//! The out-of-process message-passing backend: one shard worker **process**
//! per rank, every byte on a real socket.
//!
//! [`SocketMp`] is [`super::ChannelMp`] with the thread boundary promoted to
//! a process boundary. The host spawns one `cgselect-shard-worker` child per
//! shard and speaks the exact same versioned, batch-sequence-numbered
//! command/reply protocol (`super::protocol`) over a Unix-domain control
//! socket — each frame additionally `u32`-LE length-prefixed, because a
//! stream has no message boundaries (the framing is TCP-ready: nothing
//! below assumes the stream is local). Shard-to-shard collectives cross a
//! second socket mesh, the **fabric**: each worker implements the runtime's
//! [`cgselect_runtime::FabricLink`] transport over peer sockets and drives
//! an ordinary [`cgselect_runtime::Proc`] through
//! [`cgselect_runtime::Machine::fabric_proc`]. Because the virtual-time
//! model charges modeled bytes computed *before* encoding, and all three
//! backends run the identical `super::ops` shard code, answers,
//! collective-round counts and virtual-time makespans are identical across
//! transports — the property `tests/backend_conformance.rs` pins down.
//!
//! # Membership: join, leave, migrate, recover
//!
//! Unlike the fixed worker rings of the in-process backends, the socket
//! fabric is rebuilt on demand (fresh socket paths per epoch), which makes
//! shard membership a runtime operation:
//!
//! * [`SocketMp::replace_worker`] — bucket-granular **shard migration**:
//!   export the shard's full state (data, bucket runs, the deterministic
//!   ε-sketch mid-stream), spawn a fresh process, import the snapshot
//!   exactly, splice the newcomer into the fabric and retire the old
//!   process. The shard is bit-identical after the move, so the host's
//!   cached histogram stays warm.
//! * [`SocketMp::join_worker`] / [`SocketMp::retire_worker`] — grow or
//!   shrink the ring; a retiring shard's data merges into a survivor, and
//!   its ε-sketch merges too ([`EpsSketch::merge`] is closed under the
//!   error bound, so the union sketch keeps a provable guarantee).
//! * [`SocketMp::recover`] — "detect, re-shard, keep serving": ping every
//!   worker, respawn the dead ones empty, reset the survivors' indexes,
//!   rebuild the fabric and clear the poison so the engine serves again
//!   (the dead shards' data is lost; the surviving multiset remains exact).
//!
//! Failure semantics otherwise mirror [`super::ChannelMp`]: a worker that
//! dies mid-collective surfaces within one reply deadline as a typed
//! [`BackendError`] (never a hang), the backend poisons, and — uniquely
//! here — [`SocketMp::recover`] can un-poison it.

use std::io::{Read, Write};
use std::marker::PhantomData;
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cgselect_balance::Balancer;
use cgselect_core::{SampleSortAlgo, SelectionConfig};
use cgselect_runtime::{
    panic_message, FabricLink, FabricPoll, FabricRecvError, Key, Machine, MachineModel, OrdF64,
    Proc, Topology, WireEnvelope,
};
use cgselect_seqsel::{LocalKernel, SepBound};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};

use crate::index::{BucketStats, ShardIndex};
use crate::sketch::EpsSketch;
use crate::EngineConfig;

use super::ops::{self, Shard};
use super::protocol::{
    self, WorkerConfig, CMD_EXIT, CMD_EXPORT, CMD_FABRIC_BIND, CMD_FABRIC_CONNECT, CMD_IMPORT,
    CMD_INIT, CMD_PING, REPLY_OK,
};
use super::wire::{Reader, WireResult, Writer};
use super::{
    BackendError, BackendKind, BatchPlan, ExecBackend, RecoveryReport, ShardBatchOutcome,
    ShardDeletion,
};

/// Tuning of the [`SocketMp`] backend.
#[derive(Clone, Debug)]
pub struct SocketMpTuning {
    /// How long the host waits for a round's reply frames before declaring
    /// the silent workers [`BackendError::WorkerUnresponsive`]. One deadline
    /// covers the whole collect loop. Keep comfortably **above**
    /// `proc_timeout` (see [`super::ChannelMpTuning::reply_timeout`]).
    pub reply_timeout: Duration,
    /// The workers' collective receive timeout (how long a shard blocked in
    /// a collective waits for a dead peer before failing itself).
    pub proc_timeout: Duration,
    /// How long the host waits for a spawned worker process to connect and
    /// acknowledge its deployment configuration.
    pub spawn_timeout: Duration,
}

impl Default for SocketMpTuning {
    fn default() -> Self {
        SocketMpTuning {
            reply_timeout: Duration::from_secs(60),
            proc_timeout: Duration::from_secs(30),
            spawn_timeout: Duration::from_secs(10),
        }
    }
}

impl SocketMpTuning {
    /// Defaults: 60 s reply timeout, 30 s collective timeout, 10 s spawn
    /// timeout.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style reply-timeout choice.
    pub fn reply_timeout(mut self, timeout: Duration) -> Self {
        self.reply_timeout = timeout;
        self
    }

    /// Builder-style collective-timeout choice.
    pub fn proc_timeout(mut self, timeout: Duration) -> Self {
        self.proc_timeout = timeout;
        self
    }

    /// Builder-style spawn-timeout choice.
    pub fn spawn_timeout(mut self, timeout: Duration) -> Self {
        self.spawn_timeout = timeout;
        self
    }
}

// ---------------------------------------------------------------------
// Stream framing: every protocol frame on a byte stream is u32-LE
// length-prefixed. Nothing here assumes Unix sockets specifically — the
// same functions would drive a TcpStream.
// ---------------------------------------------------------------------

/// Upper bound on a single frame (1 GiB) — a corrupt length prefix must
/// not trigger a gigantic allocation.
const MAX_FRAME_BYTES: u32 = 1 << 30;

fn write_stream_frame(w: &mut impl Write, frame: &[u8]) -> std::io::Result<()> {
    w.write_all(&(frame.len() as u32).to_le_bytes())?;
    w.write_all(frame)?;
    w.flush()
}

fn read_stream_frame(r: &mut impl Read) -> std::io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

/// Locates the `cgselect-shard-worker` binary: the `CGSELECT_WORKER_BIN`
/// environment variable wins; otherwise walk up from the current
/// executable's directory (test binaries live in `target/debug/deps`, the
/// worker in `target/debug`).
fn discover_worker_bin() -> Result<PathBuf, String> {
    if let Ok(p) = std::env::var("CGSELECT_WORKER_BIN") {
        let p = PathBuf::from(p);
        if p.is_file() {
            return Ok(p);
        }
        return Err(format!("CGSELECT_WORKER_BIN={} is not a file", p.display()));
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe failed: {e}"))?;
    for dir in exe.ancestors().skip(1) {
        let cand = dir.join("cgselect-shard-worker");
        if cand.is_file() {
            return Ok(cand);
        }
    }
    Err(format!(
        "cgselect-shard-worker binary not found near {} (build it with \
         `cargo build -p cgselect-engine --bins` or set CGSELECT_WORKER_BIN)",
        exe.display()
    ))
}

fn spawn_err(rank: usize) -> impl Fn(std::io::Error) -> BackendError {
    move |e| BackendError::Spawn { rank, detail: e.to_string() }
}

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

fn fabric_path(dir: &Path, epoch: u64, rank: usize) -> PathBuf {
    dir.join(format!("fab-e{epoch}-r{rank}.sock"))
}

// ---------------------------------------------------------------------
// Enum byte codecs for the deployment configuration (INIT frame).
// ---------------------------------------------------------------------

fn balancer_to_u8(b: Balancer) -> u8 {
    match b {
        Balancer::None => 0,
        Balancer::Omlb => 1,
        Balancer::ModOmlb => 2,
        Balancer::DimExchange => 3,
        Balancer::GlobalExchange => 4,
    }
}

fn balancer_from_u8(v: u8) -> Option<Balancer> {
    Some(match v {
        0 => Balancer::None,
        1 => Balancer::Omlb,
        2 => Balancer::ModOmlb,
        3 => Balancer::DimExchange,
        4 => Balancer::GlobalExchange,
        _ => return None,
    })
}

fn topology_to_u8(t: Topology) -> u8 {
    match t {
        Topology::Crossbar => 0,
        Topology::Hypercube => 1,
        Topology::Mesh2D => 2,
    }
}

fn topology_from_u8(v: u8) -> Option<Topology> {
    Some(match v {
        0 => Topology::Crossbar,
        1 => Topology::Hypercube,
        2 => Topology::Mesh2D,
        _ => return None,
    })
}

fn kernel_to_u8(k: Option<LocalKernel>) -> u8 {
    match k {
        None => 0,
        Some(LocalKernel::Deterministic) => 1,
        Some(LocalKernel::Randomized) => 2,
        Some(LocalKernel::IntroSelect) => 3,
    }
}

fn kernel_from_u8(v: u8) -> Option<Option<LocalKernel>> {
    Some(match v {
        0 => None,
        1 => Some(LocalKernel::Deterministic),
        2 => Some(LocalKernel::Randomized),
        3 => Some(LocalKernel::IntroSelect),
        _ => return None,
    })
}

fn sort_to_u8(s: SampleSortAlgo) -> u8 {
    match s {
        SampleSortAlgo::Psrs => 0,
        SampleSortAlgo::Bitonic => 1,
        SampleSortAlgo::GatherSort => 2,
    }
}

fn sort_from_u8(v: u8) -> Option<SampleSortAlgo> {
    Some(match v {
        0 => SampleSortAlgo::Psrs,
        1 => SampleSortAlgo::Bitonic,
        2 => SampleSortAlgo::GatherSort,
        _ => return None,
    })
}

/// Everything a worker process needs to serve, parsed from its INIT frame.
struct WorkerDeployment {
    rank: usize,
    sketch_capacity: usize,
    proc_timeout: Duration,
    dir: PathBuf,
    model: MachineModel,
    selection: SelectionConfig,
    balancer: Balancer,
}

/// Encodes the INIT command. The leading wire tag names the element type so
/// the (monomorphic) worker binary can dispatch to the right `serve::<T>`.
fn encode_init<T: Key>(
    rank: usize,
    cfg: &EngineConfig,
    proc_timeout: Duration,
    dir: &Path,
) -> Vec<u8> {
    let mut w = Writer::new(CMD_INIT);
    w.u8(T::WIRE_TAG);
    w.usize(rank);
    w.usize(cfg.sketch_capacity);
    w.u64(proc_timeout.as_nanos() as u64);
    w.str(&dir.display().to_string());
    w.f64(cfg.model.tau);
    w.f64(cfg.model.mu);
    w.f64(cfg.model.t_op);
    w.u8(topology_to_u8(cfg.model.topology));
    w.f64(cfg.model.hop_cost);
    let s = &cfg.selection;
    w.u64(s.seed);
    w.u8(balancer_to_u8(s.balancer));
    w.usize(s.threshold_coeff);
    w.usize(s.min_sequential);
    w.f64(s.epsilon);
    w.f64(s.delta_coeff);
    w.u8(kernel_to_u8(s.local_kernel));
    w.u8(sort_to_u8(s.sample_sort));
    w.u64(u64::from(s.max_iters));
    w.u8(balancer_to_u8(cfg.balancer));
    w.into_frame()
}

fn decode_init(body: &[u8]) -> WireResult<WorkerDeployment> {
    let bad = |what: &str| cgselect_runtime::WireMsgError::new(format!("bad INIT field: {what}"));
    let mut r = Reader::new(body);
    let _wire_tag = r.u8()?; // already dispatched on by the binary's main
    let rank = r.usize()?;
    let sketch_capacity = r.usize()?;
    let proc_timeout = Duration::from_nanos(r.u64()?);
    let dir = PathBuf::from(r.str()?);
    let tau = r.f64()?;
    let mu = r.f64()?;
    let t_op = r.f64()?;
    let topology = topology_from_u8(r.u8()?).ok_or_else(|| bad("topology"))?;
    let hop_cost = r.f64()?;
    let model = MachineModel { tau, mu, t_op, topology, hop_cost };
    let selection = SelectionConfig {
        seed: r.u64()?,
        balancer: balancer_from_u8(r.u8()?).ok_or_else(|| bad("selection balancer"))?,
        threshold_coeff: r.usize()?,
        min_sequential: r.usize()?,
        epsilon: r.f64()?,
        delta_coeff: r.f64()?,
        local_kernel: kernel_from_u8(r.u8()?).ok_or_else(|| bad("local kernel"))?,
        sample_sort: sort_from_u8(r.u8()?).ok_or_else(|| bad("sample sort"))?,
        max_iters: r.u64()? as u32,
    };
    let balancer = balancer_from_u8(r.u8()?).ok_or_else(|| bad("engine balancer"))?;
    r.finish()?;
    Ok(WorkerDeployment { rank, sketch_capacity, proc_timeout, dir, model, selection, balancer })
}

// ---------------------------------------------------------------------
// Shard snapshot codec (EXPORT reply payload / IMPORT command payload).
// ---------------------------------------------------------------------

fn encode_snapshot<T: Key>(w: &mut Writer, shard: &Shard<T>) {
    w.keys(&shard.data);
    match &shard.index {
        Some(idx) => {
            w.bool(true);
            // A SepBound is structurally a probe pair: (value, inclusive).
            let pairs: Vec<(T, bool)> = idx.bounds.iter().map(|b| (b.value, b.inclusive)).collect();
            w.probes(&pairs);
            let offsets: Vec<u64> = idx.offsets.iter().map(|&o| o as u64).collect();
            w.u64s(&offsets);
        }
        None => w.bool(false),
    }
    // The ε-sketch rides its canonical byte encoding mid-stream: the
    // restored sketch is bit-identical, accumulated error bound included.
    w.eps_sketch(&shard.sketch);
}

fn decode_snapshot<T: Key>(r: &mut Reader<'_>) -> WireResult<Shard<T>> {
    let data = r.keys::<T>()?;
    let index = if r.bool()? {
        let bounds = r
            .probes::<T>()?
            .into_iter()
            .map(|(value, inclusive)| SepBound { value, inclusive })
            .collect();
        let offsets = r.u64s()?.into_iter().map(|o| o as usize).collect();
        Some(ShardIndex { bounds, offsets })
    } else {
        None
    };
    let sketch = r.eps_sketch::<T>()?;
    Ok(Shard { data, index, sketch })
}

/// The empty snapshot used to *reset* a surviving shard's index during
/// [`SocketMp::recover`] (import in merge mode with nothing to add; merging
/// an empty ε-sketch is the identity, so the survivor's sketch — still a
/// valid summary of its unchanged multiset — is kept as is).
fn empty_snapshot_import<T: Key>() -> Vec<u8> {
    let mut w = Writer::new(CMD_IMPORT);
    w.u8(1); // merge mode
    let empty: Shard<T> = Shard { data: Vec::new(), index: None, sketch: EpsSketch::new(0) };
    encode_snapshot(&mut w, &empty);
    w.into_frame()
}

// =====================================================================
// Host side
// =====================================================================

/// One live shard worker process, as the host sees it.
struct WorkerHandle {
    child: Child,
    /// Write half of the control socket (commands flow here).
    stream: UnixStream,
    /// Reply frames, pumped off the read half by `reader`.
    reply: Receiver<Vec<u8>>,
    reader: Option<JoinHandle<()>>,
}

impl WorkerHandle {
    /// Reaps the child, escalating to SIGKILL if it ignores EXIT.
    fn reap(&mut self) {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break;
                }
            }
        }
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

/// The out-of-process message-passing execution backend (see the
/// [module docs](self)).
pub struct SocketMp<T: Key> {
    dir: PathBuf,
    bin: PathBuf,
    cfg: EngineConfig,
    tuning: SocketMpTuning,
    workers: Vec<WorkerHandle>,
    /// Fabric generation: bumped on every membership change; socket paths
    /// are epoch-scoped so a rebuild never races the mesh it replaces.
    epoch: u64,
    /// Monotonic spawn counter: control-socket paths stay unique across
    /// worker generations at the same rank.
    spawns: u64,
    next_seq: u64,
    poisoned: bool,
    _marker: PhantomData<fn(T)>,
}

impl<T: Key> SocketMp<T> {
    /// Spawns `cfg.nprocs` worker processes with empty shards resident and
    /// wires their collective fabric.
    pub(crate) fn start(cfg: &EngineConfig, tuning: SocketMpTuning) -> Result<Self, BackendError> {
        let bin =
            discover_worker_bin().map_err(|detail| BackendError::Spawn { rank: 0, detail })?;
        let dir = std::env::temp_dir().join(format!(
            "cgselect-mp-{}-{}",
            std::process::id(),
            DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).map_err(spawn_err(0))?;
        let mut host = SocketMp {
            dir,
            bin,
            cfg: cfg.clone(),
            tuning,
            workers: Vec::with_capacity(cfg.nprocs),
            epoch: 0,
            spawns: 0,
            next_seq: 1,
            poisoned: false,
            _marker: PhantomData,
        };
        for rank in 0..cfg.nprocs {
            let w = host.spawn_worker(rank)?;
            host.workers.push(w);
        }
        host.rebuild_fabric()?;
        Ok(host)
    }

    /// Spawns one worker process, hands it the deployment configuration
    /// over its fresh control socket and waits for the acknowledgement.
    fn spawn_worker(&mut self, rank: usize) -> Result<WorkerHandle, BackendError> {
        let err = spawn_err(rank);
        self.spawns += 1;
        let ctrl = self.dir.join(format!("ctrl-{}.sock", self.spawns));
        let listener = UnixListener::bind(&ctrl).map_err(&err)?;
        listener.set_nonblocking(true).map_err(&err)?;
        let mut child =
            Command::new(&self.bin).arg(&ctrl).stdin(Stdio::null()).spawn().map_err(&err)?;
        let deadline = Instant::now() + self.tuning.spawn_timeout;
        let stream = loop {
            match listener.accept() {
                Ok((s, _)) => break s,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if child.try_wait().map_err(&err)?.is_some() || Instant::now() > deadline {
                        let _ = child.kill();
                        let _ = child.wait();
                        let _ = std::fs::remove_file(&ctrl);
                        return Err(BackendError::Spawn {
                            rank,
                            detail: "worker process did not connect its control socket".into(),
                        });
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(err(e));
                }
            }
        };
        let _ = std::fs::remove_file(&ctrl);
        stream.set_nonblocking(false).map_err(&err)?;
        let mut stream = stream;
        // Deployment configuration rides as the one out-of-band frame
        // (sequence 0); everything after it is the shared protocol.
        let init = encode_init::<T>(rank, &self.cfg, self.tuning.proc_timeout, &self.dir);
        write_stream_frame(&mut stream, &protocol::encode_framed(0, &init)).map_err(&err)?;
        stream.set_read_timeout(Some(self.tuning.spawn_timeout)).map_err(&err)?;
        let ack = read_stream_frame(&mut stream).map_err(&err)?;
        stream.set_read_timeout(None).map_err(&err)?;
        let (seq, body) = protocol::split_framed(&ack).map_err(|e| BackendError::Spawn {
            rank,
            detail: format!("bad INIT acknowledgement: {}", e.detail),
        })?;
        if seq != 0 || body.first() != Some(&REPLY_OK) {
            let _ = child.kill();
            let _ = child.wait();
            return Err(BackendError::Spawn {
                rank,
                detail: "worker rejected its deployment configuration".into(),
            });
        }
        let read_half = stream.try_clone().map_err(&err)?;
        let (tx, rx) = unbounded::<Vec<u8>>();
        let reader = std::thread::Builder::new()
            .name(format!("cgselect-socket-host-r{rank}"))
            .spawn(move || {
                let mut read_half = read_half;
                while let Ok(frame) = read_stream_frame(&mut read_half) {
                    if tx.send(frame).is_err() {
                        break;
                    }
                }
                // EOF or error: dropping tx disconnects the reply channel,
                // which the collect loop reports as WorkerUnresponsive.
            })
            .map_err(|e| BackendError::Spawn { rank, detail: e.to_string() })?;
        Ok(WorkerHandle { child, stream, reply: rx, reader: Some(reader) })
    }

    /// Sends one control command to worker `rank` and waits for its reply
    /// payload under the reply timeout. Control calls never poison the
    /// backend themselves — membership verbs decide what a failure means.
    fn control_one(&mut self, rank: usize, body: &[u8]) -> Result<Vec<u8>, BackendError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let w = &mut self.workers[rank];
        if write_stream_frame(&mut w.stream, &protocol::encode_framed(seq, body)).is_err() {
            return Err(BackendError::WorkerUnresponsive { rank });
        }
        let deadline = Instant::now() + self.tuning.reply_timeout;
        protocol::collect_frame(&w.reply, deadline, seq, rank)
            .and_then(|b| protocol::decode_reply_status(rank, b))
    }

    /// Sends per-rank control bodies to every worker and collects each
    /// reply individually under one shared deadline.
    fn control_round(&mut self, bodies: Vec<Vec<u8>>) -> Vec<Result<Vec<u8>, BackendError>> {
        debug_assert_eq!(bodies.len(), self.workers.len());
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut sent = vec![true; self.workers.len()];
        for (rank, (w, body)) in self.workers.iter_mut().zip(&bodies).enumerate() {
            sent[rank] =
                write_stream_frame(&mut w.stream, &protocol::encode_framed(seq, body)).is_ok();
        }
        let deadline = Instant::now() + self.tuning.reply_timeout;
        self.workers
            .iter()
            .enumerate()
            .map(|(rank, w)| {
                if !sent[rank] {
                    return Err(BackendError::WorkerUnresponsive { rank });
                }
                protocol::collect_frame(&w.reply, deadline, seq, rank)
                    .and_then(|b| protocol::decode_reply_status(rank, b))
            })
            .collect()
    }

    /// Tears down every worker's fabric and wires a fresh epoch: a BIND
    /// round (each worker drops its `Proc`, learns its — possibly new —
    /// rank and listens on an epoch-scoped socket), then a CONNECT round
    /// (the mesh is established and each worker builds its new `Proc`).
    fn rebuild_fabric(&mut self) -> Result<(), BackendError> {
        self.epoch += 1;
        let p = self.workers.len();
        let bind_bodies: Vec<Vec<u8>> = (0..p)
            .map(|rank| {
                let mut w = Writer::new(CMD_FABRIC_BIND);
                w.u64(self.epoch);
                w.usize(rank);
                w.usize(p);
                w.into_frame()
            })
            .collect();
        for r in self.control_round(bind_bodies) {
            r?;
        }
        let mut connect = Writer::new(CMD_FABRIC_CONNECT);
        connect.u64(self.epoch);
        let connect = connect.into_frame();
        for r in self.control_round(vec![connect; p]) {
            r?;
        }
        Ok(())
    }

    /// Re-reads every shard's size with one empty-ingest round (zero
    /// collectives, zero virtual time) — the resync after membership moves.
    fn sizes_round(&mut self) -> Result<Vec<u64>, BackendError> {
        let body = protocol::encode_ingest::<T>(&[]);
        let payloads = self.round_trip(vec![body; self.workers.len()])?;
        self.decode_all(payloads, protocol::decode_u64_reply)
    }

    /// The data-plane round trip: identical contract to
    /// [`super::ChannelMp`]'s — shared reply deadline, sequence-stamped
    /// frames, root-cause triage, poisoning on failure.
    fn round_trip(&mut self, bodies: Vec<Vec<u8>>) -> Result<Vec<Vec<u8>>, BackendError> {
        if self.poisoned {
            return Err(BackendError::Poisoned);
        }
        let results = self.control_round(bodies);
        let mut payloads = Vec::with_capacity(results.len());
        let mut failures: Vec<BackendError> = Vec::new();
        for r in results {
            match r {
                Ok(p) => payloads.push(p),
                Err(e) => failures.push(e),
            }
        }
        if failures.is_empty() {
            return Ok(payloads);
        }
        self.poisoned = true;
        Err(protocol::triage(failures))
    }

    fn broadcast_frames(&self, body: Vec<u8>) -> Vec<Vec<u8>> {
        vec![body; self.workers.len()]
    }

    fn decode_all<R>(
        &mut self,
        payloads: Vec<Vec<u8>>,
        decode: impl Fn(usize, &[u8]) -> Result<R, BackendError>,
    ) -> Result<Vec<R>, BackendError> {
        let mut out = Vec::with_capacity(payloads.len());
        for (rank, body) in payloads.iter().enumerate() {
            match decode(rank, body) {
                Ok(v) => out.push(v),
                Err(e) => {
                    self.poisoned = true;
                    return Err(e);
                }
            }
        }
        Ok(out)
    }

    /// Sends EXIT and reaps one worker (escalating to SIGKILL if ignored).
    fn shutdown_worker(&mut self, mut w: WorkerHandle) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let _ = write_stream_frame(&mut w.stream, &protocol::encode_framed(seq, &[CMD_EXIT]));
        w.reap();
    }
}

impl<T: Key> ExecBackend<T> for SocketMp<T> {
    fn nprocs(&self) -> usize {
        self.workers.len()
    }

    fn kind(&self) -> BackendKind {
        BackendKind::SocketMp
    }

    fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    fn ingest(&mut self, chunks: Vec<Vec<T>>) -> Result<Vec<u64>, BackendError> {
        assert_eq!(chunks.len(), self.workers.len(), "one ingest chunk per shard");
        let bodies = chunks.iter().map(|chunk| protocol::encode_ingest(chunk)).collect();
        let payloads = self.round_trip(bodies)?;
        self.decode_all(payloads, protocol::decode_u64_reply)
    }

    fn delete(&mut self, values: Vec<T>) -> Result<Vec<ShardDeletion>, BackendError> {
        let payloads = self.round_trip(self.broadcast_frames(protocol::encode_delete(&values)))?;
        self.decode_all(payloads, protocol::decode_deletion_reply)
    }

    fn rebalance(&mut self) -> Result<Vec<u64>, BackendError> {
        let payloads = self
            .round_trip(self.broadcast_frames(Writer::new(protocol::CMD_REBALANCE).into_frame()))?;
        self.decode_all(payloads, protocol::decode_u64_reply)
    }

    #[allow(clippy::type_complexity)]
    fn build_index(
        &mut self,
        buckets: usize,
    ) -> Result<Vec<(Vec<cgselect_seqsel::SepBound<T>>, BucketStats<T>)>, BackendError> {
        let payloads =
            self.round_trip(self.broadcast_frames(protocol::encode_build_index(buckets)))?;
        self.decode_all(payloads, protocol::decode_index_build_reply::<T>)
    }

    fn merge_delta(&mut self) -> Result<Vec<BucketStats<T>>, BackendError> {
        let payloads = self.round_trip(
            self.broadcast_frames(Writer::new(protocol::CMD_MERGE_DELTA).into_frame()),
        )?;
        self.decode_all(payloads, protocol::decode_bucket_stats_reply::<T>)
    }

    fn execute(&mut self, plan: &BatchPlan<T>) -> Result<Vec<ShardBatchOutcome<T>>, BackendError> {
        let payloads = self.round_trip(self.broadcast_frames(protocol::encode_execute(plan)))?;
        self.decode_all(payloads, protocol::decode_outcome::<T>)
    }

    fn export_sketches(&mut self) -> Result<Vec<crate::sketch::EpsSketch<T>>, BackendError> {
        let payloads = self.round_trip(self.broadcast_frames(protocol::encode_export_sketch()))?;
        self.decode_all(payloads, protocol::decode_sketch_reply::<T>)
    }

    fn supports_membership(&self) -> bool {
        true
    }

    fn worker_pids(&self) -> Vec<u32> {
        self.workers.iter().map(|w| w.child.id()).collect()
    }

    fn replace_worker(&mut self, rank: usize) -> Result<Vec<u64>, BackendError> {
        assert!(rank < self.workers.len(), "shard {rank} out of range");
        // Export the shard's full state: data, bucket runs, and the
        // ε-sketch's mid-stream compactor levels, bit-exactly.
        let snap = self.control_one(rank, &Writer::new(CMD_EXPORT).into_frame())?;
        let mut fresh = self.spawn_worker(rank)?;
        let mut import = Writer::new(CMD_IMPORT);
        import.u8(0); // replace mode: exact restore
        import.raw(&snap[1..]); // splice the snapshot past the status byte
        let seq = self.next_seq;
        self.next_seq += 1;
        write_stream_frame(&mut fresh.stream, &protocol::encode_framed(seq, &import.into_frame()))
            .map_err(|_| BackendError::WorkerUnresponsive { rank })?;
        let deadline = Instant::now() + self.tuning.reply_timeout;
        protocol::collect_frame(&fresh.reply, deadline, seq, rank)
            .and_then(|b| protocol::decode_reply_status(rank, b))?;
        let old = std::mem::replace(&mut self.workers[rank], fresh);
        self.shutdown_worker(old);
        self.rebuild_fabric()?;
        self.sizes_round()
    }

    fn join_worker(&mut self) -> Result<Vec<u64>, BackendError> {
        let rank = self.workers.len();
        let w = self.spawn_worker(rank)?;
        self.workers.push(w);
        self.rebuild_fabric()?;
        self.sizes_round()
    }

    fn retire_worker(&mut self, rank: usize) -> Result<Vec<u64>, BackendError> {
        assert!(rank < self.workers.len(), "shard {rank} out of range");
        if self.workers.len() == 1 {
            return Err(BackendError::Unsupported { verb: "retire_worker on the last shard" });
        }
        let snap = self.control_one(rank, &Writer::new(CMD_EXPORT).into_frame())?;
        let old = self.workers.remove(rank);
        self.shutdown_worker(old);
        // Ranks above the retiree shift down; the BIND round renumbers them.
        self.rebuild_fabric()?;
        let dst = rank % self.workers.len();
        let mut import = Writer::new(CMD_IMPORT);
        import.u8(1); // merge mode: append data, drop index, merge sketches
        import.raw(&snap[1..]);
        self.control_one(dst, &import.into_frame())?;
        self.sizes_round()
    }

    fn recover(&mut self) -> Result<RecoveryReport, BackendError> {
        // Detect: one ping round under the shared deadline.
        let ping = Writer::new(CMD_PING).into_frame();
        let results = self.control_round(vec![ping; self.workers.len()]);
        let dead: Vec<usize> =
            results.iter().enumerate().filter_map(|(rank, r)| r.is_err().then_some(rank)).collect();
        // Re-shard: respawn the dead ranks with empty shards (their data is
        // lost — the surviving multiset stays exact), reset every
        // survivor's index (a shard index abandoned mid-batch is not
        // trustworthy; the next exact batch rebuilds it). The survivors'
        // ε-sketches stay: execution permutes but never changes the
        // multiset, so each remains a valid bounded-error summary.
        for &rank in &dead {
            let _ = self.workers[rank].child.kill();
            let fresh = self.spawn_worker(rank)?;
            let mut old = std::mem::replace(&mut self.workers[rank], fresh);
            old.reap();
        }
        let reset = empty_snapshot_import::<T>();
        for rank in 0..self.workers.len() {
            if !dead.contains(&rank) {
                self.control_one(rank, &reset)?;
            }
        }
        self.rebuild_fabric()?;
        self.poisoned = false;
        let sizes = self.sizes_round()?;
        Ok(RecoveryReport { replaced: dead, sizes })
    }
}

impl<T: Key> Drop for SocketMp<T> {
    fn drop(&mut self) {
        // Reap-on-drop: tell every worker to exit and wait for it (SIGKILL
        // if it ignores us), so dropping an engine never leaks processes.
        let seq = self.next_seq;
        for w in &mut self.workers {
            let _ = write_stream_frame(&mut w.stream, &protocol::encode_framed(seq, &[CMD_EXIT]));
        }
        for w in &mut self.workers {
            w.reap();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

// =====================================================================
// Worker side
// =====================================================================

/// Events the per-peer fabric reader threads feed the link's queue.
enum FabricEvent {
    Env(WireEnvelope),
    Down(usize),
}

/// [`FabricLink`] over a Unix-socket mesh: one stream per peer (the
/// lower-ranked side listens, the higher-ranked side connects), one reader
/// thread per peer pumping envelopes into a single queue, loopback via a
/// local sender. Per-peer FIFO holds because each peer's envelopes ride one
/// stream read by one thread; a peer's `Down` marker is sent by that same
/// thread after its last envelope.
struct SocketFabric {
    rank: usize,
    p: usize,
    writers: Vec<Option<UnixStream>>,
    loopback: Sender<FabricEvent>,
    rx: Receiver<FabricEvent>,
    downs: usize,
}

impl SocketFabric {
    /// Establishes this rank's half of the epoch's mesh. Every peer's
    /// listener already exists (the host ran the full BIND round first), so
    /// connects need no retry; the 8-byte rank handshake identifies each
    /// accepted stream.
    fn establish(
        dir: &Path,
        epoch: u64,
        rank: usize,
        p: usize,
        listener: Option<UnixListener>,
        accept_deadline: Instant,
    ) -> std::io::Result<Self> {
        let (tx, rx) = unbounded::<FabricEvent>();
        let mut writers: Vec<Option<UnixStream>> = (0..p).map(|_| None).collect();
        for (peer, slot) in writers.iter_mut().enumerate().take(rank) {
            let mut s = UnixStream::connect(fabric_path(dir, epoch, peer))?;
            s.write_all(&(rank as u64).to_le_bytes())?;
            *slot = Some(s);
        }
        if rank + 1 < p {
            let listener = listener.expect("a non-top rank binds a fabric listener");
            listener.set_nonblocking(true)?;
            let mut accepted = 0usize;
            while accepted < p - rank - 1 {
                match listener.accept() {
                    Ok((mut s, _)) => {
                        s.set_nonblocking(false)?;
                        s.set_read_timeout(Some(Duration::from_secs(10)))?;
                        let mut buf = [0u8; 8];
                        s.read_exact(&mut buf)?;
                        s.set_read_timeout(None)?;
                        let peer = u64::from_le_bytes(buf) as usize;
                        if peer <= rank || peer >= p {
                            return Err(std::io::Error::new(
                                std::io::ErrorKind::InvalidData,
                                format!("bad fabric handshake rank {peer}"),
                            ));
                        }
                        writers[peer] = Some(s);
                        accepted += 1;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        if Instant::now() > accept_deadline {
                            return Err(std::io::Error::new(
                                std::io::ErrorKind::TimedOut,
                                "fabric peers did not all connect",
                            ));
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        for (peer, stream) in writers.iter().enumerate() {
            let Some(stream) = stream else { continue };
            let mut read_half = stream.try_clone()?;
            let txc = tx.clone();
            std::thread::Builder::new().name(format!("cgselect-fabric-r{rank}p{peer}")).spawn(
                move || {
                    while let Ok(frame) = read_stream_frame(&mut read_half) {
                        let Ok(env) = WireEnvelope::from_frame(&frame) else { break };
                        if txc.send(FabricEvent::Env(env)).is_err() {
                            return;
                        }
                    }
                    let _ = txc.send(FabricEvent::Down(peer));
                },
            )?;
        }
        // The worker's own listener socket file is no longer needed once
        // the mesh is up.
        let _ = std::fs::remove_file(fabric_path(dir, epoch, rank));
        Ok(SocketFabric { rank, p, writers, loopback: tx, rx, downs: 0 })
    }
}

impl FabricLink for SocketFabric {
    fn deliver(&mut self, dst: usize, env: WireEnvelope) -> Result<(), String> {
        if dst == self.rank {
            return self.loopback.send(FabricEvent::Env(env)).map_err(|_| "loopback closed".into());
        }
        let Some(stream) = self.writers.get_mut(dst).and_then(Option::as_mut) else {
            return Err(format!("no fabric link to rank {dst}"));
        };
        write_stream_frame(stream, &env.to_frame()).map_err(|e| e.to_string())
    }

    fn poll(&mut self, timeout: Duration) -> Result<FabricPoll, FabricRecvError> {
        if self.p > 1 && self.downs >= self.p - 1 && self.rx.is_empty() {
            return Err(FabricRecvError::Closed);
        }
        match self.rx.recv_timeout(timeout) {
            Ok(FabricEvent::Env(env)) => Ok(FabricPoll::Message(env)),
            Ok(FabricEvent::Down(peer)) => {
                self.downs += 1;
                Ok(FabricPoll::PeerDown(peer))
            }
            Err(RecvTimeoutError::Timeout) => Err(FabricRecvError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(FabricRecvError::Closed),
        }
    }

    fn pending(&self) -> usize {
        self.rx.len()
    }

    fn drain_pending(&mut self) -> Vec<(usize, u64)> {
        let mut out = Vec::new();
        while let Ok(ev) = self.rx.try_recv() {
            match ev {
                FabricEvent::Env(env) => out.push((env.src, env.tag)),
                FabricEvent::Down(_) => self.downs += 1,
            }
        }
        out
    }
}

/// A fabric listener bound by the BIND round, waiting for the CONNECT round
/// to establish the mesh.
struct PendingFabric {
    epoch: u64,
    rank: usize,
    p: usize,
    listener: Option<UnixListener>,
}

/// Entry point of the `cgselect-shard-worker` binary: connects the control
/// socket named by `argv[1]`, reads the INIT frame, and dispatches to the
/// monomorphic serve loop for the element type named by the frame's wire
/// tag. Returns the process exit code.
pub fn worker_main() -> i32 {
    let Some(ctrl) = std::env::args().nth(1) else {
        eprintln!("usage: cgselect-shard-worker <control-socket-path>");
        return 2;
    };
    let mut stream = match UnixStream::connect(&ctrl) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cgselect-shard-worker: connect {ctrl}: {e}");
            return 2;
        }
    };
    let frame = match read_stream_frame(&mut stream) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cgselect-shard-worker: read INIT: {e}");
            return 2;
        }
    };
    let body = match protocol::split_framed(&frame) {
        Ok((0, body)) if body.first() == Some(&CMD_INIT) && body.len() >= 2 => body.to_vec(),
        _ => {
            eprintln!("cgselect-shard-worker: malformed INIT frame");
            return 2;
        }
    };
    // body[1] is the wire tag: dispatch to the right monomorphization.
    match body[1] {
        u8::WIRE_TAG => serve::<u8>(stream, &body),
        u16::WIRE_TAG => serve::<u16>(stream, &body),
        u32::WIRE_TAG => serve::<u32>(stream, &body),
        u64::WIRE_TAG => serve::<u64>(stream, &body),
        u128::WIRE_TAG => serve::<u128>(stream, &body),
        usize::WIRE_TAG => serve::<usize>(stream, &body),
        i8::WIRE_TAG => serve::<i8>(stream, &body),
        i16::WIRE_TAG => serve::<i16>(stream, &body),
        i32::WIRE_TAG => serve::<i32>(stream, &body),
        i64::WIRE_TAG => serve::<i64>(stream, &body),
        i128::WIRE_TAG => serve::<i128>(stream, &body),
        isize::WIRE_TAG => serve::<isize>(stream, &body),
        OrdF64::WIRE_TAG => serve::<OrdF64>(stream, &body),
        other => {
            eprintln!("cgselect-shard-worker: unknown wire tag {other}");
            2
        }
    }
}

/// The worker's command loop. Control verbs (ping, fabric wiring, shard
/// export/import, exit) are always served; data-plane verbs require a live
/// fabric `Proc`. A data-plane failure (panic or protocol violation) is
/// reported in the reply frame and drops the `Proc` — the worker keeps
/// serving control verbs, which is what lets the host re-shard around a
/// failure instead of abandoning every survivor.
fn serve<T: Key>(mut stream: UnixStream, init_body: &[u8]) -> i32 {
    let mut dep = match decode_init(init_body) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("cgselect-shard-worker: bad INIT: {e}");
            return 2;
        }
    };
    let mut shard: Shard<T> = ops::init_shard(dep.sketch_capacity);
    let mut proc: Option<Proc> = None;
    let mut pending_fabric: Option<PendingFabric> = None;
    let wire_error = |detail: String| {
        let mut w = Writer::new(protocol::REPLY_WIRE_ERROR);
        w.str(&detail);
        w.into_frame()
    };
    // Acknowledge the deployment configuration (sequence 0).
    let ack = Writer::new(REPLY_OK).into_frame();
    if write_stream_frame(&mut stream, &protocol::encode_framed(0, &ack)).is_err() {
        return 1;
    }
    loop {
        let Ok(frame) = read_stream_frame(&mut stream) else {
            // Host gone (engine dropped without EXIT, or host crashed).
            return 0;
        };
        let Ok((seq, body)) = protocol::split_framed(&frame) else {
            // An unframeable command cannot be answered under a matching
            // sequence number; exit and let the host time out.
            return 1;
        };
        let reply = match body.first().copied() {
            Some(CMD_EXIT) => return 0,
            Some(CMD_PING) => Writer::new(REPLY_OK).into_frame(),
            Some(CMD_FABRIC_BIND) => {
                // Tear down the old mesh first: our peers' reader threads
                // must see EOF before the next epoch connects.
                proc = None;
                match (|| -> WireResult<(u64, usize, usize)> {
                    let mut r = Reader::new(body);
                    let epoch = r.u64()?;
                    let new_rank = r.usize()?;
                    let p = r.usize()?;
                    r.finish()?;
                    Ok((epoch, new_rank, p))
                })() {
                    Ok((epoch, new_rank, p)) => {
                        dep.rank = new_rank;
                        let listener = if new_rank + 1 < p {
                            match UnixListener::bind(fabric_path(&dep.dir, epoch, new_rank)) {
                                Ok(l) => Some(l),
                                Err(e) => {
                                    pending_fabric = None;
                                    let r = wire_error(format!("fabric bind failed: {e}"));
                                    if write_stream_frame(
                                        &mut stream,
                                        &protocol::encode_framed(seq, &r),
                                    )
                                    .is_err()
                                    {
                                        return 1;
                                    }
                                    continue;
                                }
                            }
                        } else {
                            None
                        };
                        pending_fabric = Some(PendingFabric { epoch, rank: new_rank, p, listener });
                        Writer::new(REPLY_OK).into_frame()
                    }
                    Err(e) => wire_error(e.detail),
                }
            }
            Some(CMD_FABRIC_CONNECT) => match pending_fabric.take() {
                Some(pf) => {
                    let deadline = Instant::now() + dep.proc_timeout.max(Duration::from_secs(5));
                    match SocketFabric::establish(
                        &dep.dir,
                        pf.epoch,
                        pf.rank,
                        pf.p,
                        pf.listener,
                        deadline,
                    ) {
                        Ok(fabric) => {
                            let machine =
                                Machine::with_model(pf.p, dep.model).recv_timeout(dep.proc_timeout);
                            proc = Some(machine.fabric_proc(pf.rank, Box::new(fabric)));
                            Writer::new(REPLY_OK).into_frame()
                        }
                        Err(e) => wire_error(format!("fabric connect failed: {e}")),
                    }
                }
                None => wire_error("fabric connect without a preceding bind".into()),
            },
            Some(CMD_EXPORT) => {
                let mut w = Writer::new(REPLY_OK);
                encode_snapshot(&mut w, &shard);
                w.into_frame()
            }
            Some(CMD_IMPORT) => match (|| -> WireResult<(u8, Shard<T>)> {
                let mut r = Reader::new(body);
                let mode = r.u8()?;
                let snap = decode_snapshot::<T>(&mut r)?;
                r.finish()?;
                Ok((mode, snap))
            })() {
                Ok((0, snap)) => {
                    // Replace: exact restore — the migrated shard is
                    // indistinguishable from one that never moved.
                    shard = snap;
                    Writer::new(REPLY_OK).into_frame()
                }
                Ok((1, snap)) => {
                    // Merge: absorb the data and *merge* the ε-sketches —
                    // EpsSketch::merge is closed under the error bound, so
                    // the union sketch keeps a provable guarantee without
                    // re-reading the data. The bucket runs no longer
                    // describe the union, so drop the index.
                    shard.data.extend(snap.data);
                    shard.index = None;
                    shard.sketch.merge(&snap.sketch);
                    Writer::new(REPLY_OK).into_frame()
                }
                Ok((mode, _)) => wire_error(format!("unknown import mode {mode}")),
                Err(e) => wire_error(e.detail),
            },
            _ => {
                // Data-plane verb: needs a live fabric Proc.
                let Some(pr) = proc.as_mut() else {
                    let r = wire_error("shard has no fabric (no bind/connect round yet)".into());
                    if write_stream_frame(&mut stream, &protocol::encode_framed(seq, &r)).is_err() {
                        return 1;
                    }
                    continue;
                };
                let cfg = WorkerConfig {
                    rank: dep.rank,
                    sketch_capacity: dep.sketch_capacity,
                    selection: dep.selection.clone(),
                    balancer: dep.balancer,
                };
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    protocol::run_command::<T>(pr, &mut shard, &cfg, body, false)
                }));
                let reply = match outcome {
                    Ok(Ok(payload)) => payload,
                    Ok(Err(protocol_err)) => protocol::encode_protocol_error(&protocol_err),
                    Err(payload) => {
                        let mut w = Writer::new(protocol::REPLY_PANICKED);
                        w.str(&panic_message(payload));
                        w.into_frame()
                    }
                };
                if reply.first() != Some(&REPLY_OK) {
                    // This program failed: the Proc's collective state can
                    // no longer be trusted. Drop it (peers see our fabric
                    // streams close) but keep serving control verbs so the
                    // host can re-shard around the failure.
                    proc = None;
                }
                reply
            }
        };
        if write_stream_frame(&mut stream, &protocol::encode_framed(seq, &reply)).is_err() {
            return 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_frame_round_trips() {
        let cfg = EngineConfig::new(5)
            .model(MachineModel::free())
            .sketch_capacity(17)
            .balancer(Balancer::DimExchange);
        let frame = encode_init::<u64>(3, &cfg, Duration::from_millis(250), Path::new("/tmp/x"));
        assert_eq!(frame[0], CMD_INIT);
        assert_eq!(frame[1], u64::WIRE_TAG);
        let dep = decode_init(&frame).unwrap();
        assert_eq!(dep.rank, 3);
        assert_eq!(dep.sketch_capacity, 17);
        assert_eq!(dep.proc_timeout, Duration::from_millis(250));
        assert_eq!(dep.dir, PathBuf::from("/tmp/x"));
        assert_eq!(dep.model, MachineModel::free());
        assert_eq!(format!("{:?}", dep.selection), format!("{:?}", cfg.selection));
        assert_eq!(dep.balancer, Balancer::DimExchange);
    }

    #[test]
    fn enum_byte_codecs_round_trip() {
        for b in [
            Balancer::None,
            Balancer::Omlb,
            Balancer::ModOmlb,
            Balancer::DimExchange,
            Balancer::GlobalExchange,
        ] {
            assert_eq!(balancer_from_u8(balancer_to_u8(b)), Some(b));
        }
        for t in [Topology::Crossbar, Topology::Hypercube, Topology::Mesh2D] {
            assert_eq!(topology_from_u8(topology_to_u8(t)), Some(t));
        }
        for k in [
            None,
            Some(LocalKernel::Deterministic),
            Some(LocalKernel::Randomized),
            Some(LocalKernel::IntroSelect),
        ] {
            assert_eq!(kernel_from_u8(kernel_to_u8(k)), Some(k));
        }
        for s in [SampleSortAlgo::Psrs, SampleSortAlgo::Bitonic, SampleSortAlgo::GatherSort] {
            assert_eq!(sort_from_u8(sort_to_u8(s)), Some(s));
        }
        assert_eq!(balancer_from_u8(99), None);
        assert_eq!(topology_from_u8(99), None);
        assert_eq!(kernel_from_u8(99), None);
        assert_eq!(sort_from_u8(99), None);
    }

    #[test]
    fn shard_snapshot_round_trips_exactly() {
        let mut shard: Shard<u64> = ops::init_shard(8);
        for x in [5u64, 1, 9, 7, 3, 3, 8, 2, 6, 4, 0, 11, 13, 12] {
            shard.sketch.offer(x);
            shard.data.push(x);
        }
        shard.index = Some(ShardIndex {
            bounds: vec![
                SepBound { value: 4, inclusive: false },
                SepBound { value: 9, inclusive: true },
            ],
            offsets: vec![0, 5, 11, 14],
        });
        let mut w = Writer::new(REPLY_OK);
        encode_snapshot(&mut w, &shard);
        let frame = w.into_frame();
        let mut r = Reader::new(&frame);
        let restored = decode_snapshot::<u64>(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(restored.data, shard.data);
        let idx = restored.index.as_ref().unwrap();
        let orig = shard.index.as_ref().unwrap();
        assert_eq!(idx.bounds, orig.bounds);
        assert_eq!(idx.offsets, orig.offsets);
        assert_eq!(restored.sketch, shard.sketch);
        assert_eq!(restored.sketch.to_bytes(), shard.sketch.to_bytes());
    }

    #[test]
    fn stream_framing_round_trips() {
        let mut buf: Vec<u8> = Vec::new();
        write_stream_frame(&mut buf, b"hello").unwrap();
        write_stream_frame(&mut buf, b"").unwrap();
        write_stream_frame(&mut buf, &[7u8; 300]).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_stream_frame(&mut r).unwrap(), b"hello");
        assert_eq!(read_stream_frame(&mut r).unwrap(), b"");
        assert_eq!(read_stream_frame(&mut r).unwrap(), vec![7u8; 300]);
        assert!(read_stream_frame(&mut r).is_err(), "EOF is an error, not a frame");
    }

    #[test]
    fn corrupt_length_prefixes_do_not_allocate() {
        let mut buf: Vec<u8> = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut r = &buf[..];
        let err = read_stream_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
}
