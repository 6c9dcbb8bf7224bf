//! The in-process message-passing backend: one long-lived worker thread per
//! shard, commands and replies as serialized byte frames.
//!
//! [`ChannelMp`] is the dress rehearsal for out-of-process/remote shards.
//! Unlike [`super::LocalSpmd`], where the host ships shared closures into a
//! [`cgselect_runtime::Session`], here the host holds **no shard state and
//! no code pointer into the workers**: every verb is encoded as a byte
//! frame in the shared host↔worker protocol (`super::protocol` — versioned,
//! batch-sequence-numbered framing over the `super::wire` codec), sent down
//! a per-worker channel, decoded by the worker, executed against its owned
//! `super::ops::Shard`, and answered with another byte frame. Only the
//! per-batch pivot *seed* crosses the wire per execute; the rest of the
//! selection tuning is deployment configuration every worker received at
//! spawn. Shard-to-shard collectives ride the same in-process
//! [`cgselect_runtime::Proc`] fabric as `LocalSpmd` (obtained via
//! [`cgselect_runtime::Machine::procs`]), which is precisely what keeps
//! collective-round counts identical across backends; [`super::SocketMp`]
//! speaks the same protocol with real child processes and a socket fabric.
//!
//! Failure semantics mirror session poisoning, surfaced as typed
//! [`BackendError`]s: a worker that panics mid-program reports the panic in
//! its reply frame (its peers fail shortly after with receive timeouts,
//! triaged as secondary fallout); a worker that never replies within
//! [`ChannelMpTuning::reply_timeout`] is reported as
//! [`BackendError::WorkerUnresponsive`]. The reply deadline is **shared
//! across the whole collect loop** — p stragglers stall the host for one
//! `reply_timeout`, not p of them — and replies carry the round's sequence
//! number, so a slow worker's late reply can never be mistaken for an
//! answer to a later round. Either way the backend is poisoned and every
//! later call fails fast with [`BackendError::Poisoned`]. [`Fault`]
//! injection exists so the conformance harness can force each of these
//! paths deterministically.

use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cgselect_runtime::{panic_message, Key, Machine, Proc};
use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::index::BucketStats;
use crate::EngineConfig;

use super::ops::{self, Shard};
use super::protocol::{self, WorkerConfig, CMD_EXECUTE, CMD_EXIT, REPLY_OK};
use super::wire::Writer;
use super::{BackendError, BackendKind, BatchPlan, ExecBackend, ShardBatchOutcome, ShardDeletion};

/// Tuning (and test instrumentation) of the [`ChannelMp`] backend.
#[derive(Clone, Debug)]
pub struct ChannelMpTuning {
    /// How long the host waits for the round's reply frames before
    /// declaring the silent workers [`BackendError::WorkerUnresponsive`]
    /// and poisoning the backend. One deadline covers the whole collect
    /// loop. Keep comfortably **above** `proc_timeout`: when a worker dies
    /// mid-collective its surviving peers only report (as secondary
    /// timeout panics) after `proc_timeout` has elapsed, and those reports
    /// must reach the host before the reply deadline fires or typed root
    /// causes degrade to spurious `WorkerUnresponsive`.
    pub reply_timeout: Duration,
    /// The workers' collective receive timeout (how long a shard blocked in
    /// a collective waits for a dead peer before failing itself).
    pub proc_timeout: Duration,
    /// Injected faults, for exercising the failure paths deterministically.
    pub faults: Vec<Fault>,
}

impl Default for ChannelMpTuning {
    fn default() -> Self {
        ChannelMpTuning {
            // 2x the collective timeout: headroom for peers' timeout
            // reports to arrive before the host declares silence.
            reply_timeout: Duration::from_secs(60),
            proc_timeout: Duration::from_secs(30),
            faults: Vec::new(),
        }
    }
}

impl ChannelMpTuning {
    /// Defaults: 60 s reply timeout, 30 s collective timeout, no faults.
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

    /// Builder-style fault injection.
    pub fn fault(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }
}

/// An injected fault, for pinning down [`ChannelMp`]'s typed-error and
/// poisoning behavior in tests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Worker `rank` panics *mid-batch* while serving its `nth`
    /// batch-execute command (0-based): it enters the batch's opening
    /// barrier, then dies, leaving its peers mid-collective.
    PanicOnExecute {
        /// The faulty worker.
        rank: usize,
        /// Which of its execute commands triggers the panic.
        nth: u64,
    },
    /// Worker `rank` executes its `nth` batch-execute command to completion
    /// but its reply frame is lost (never sent).
    DropReplyOnExecute {
        /// The faulty worker.
        rank: usize,
        /// Which of its execute commands loses its reply.
        nth: u64,
    },
    /// Worker `rank` sleeps `delay` before serving every command — a
    /// straggling shard. Must be well below both timeouts; the program
    /// still completes correctly, just later.
    SlowShard {
        /// The slow worker.
        rank: usize,
        /// Extra latency per command.
        delay: Duration,
    },
}

/// Everything a worker needs at spawn besides its `Proc`: deployment
/// configuration, moved (not serialized) into the thread exactly as argv
/// and config files reach a remote shard process out of band.
struct WorkerInit {
    cfg: WorkerConfig,
    faults: Vec<Fault>,
}

struct WorkerLink {
    cmd: Sender<Vec<u8>>,
    reply: Receiver<Vec<u8>>,
    handle: Option<JoinHandle<()>>,
}

/// The in-process message-passing execution backend (see the
/// [module docs](self)).
pub struct ChannelMp<T: Key> {
    workers: Vec<WorkerLink>,
    reply_timeout: Duration,
    next_seq: u64,
    poisoned: bool,
    _marker: PhantomData<fn(T)>,
}

impl<T: Key> ChannelMp<T> {
    /// Spawns the per-shard worker threads with empty shards resident.
    pub(crate) fn start(cfg: &EngineConfig, tuning: ChannelMpTuning) -> Self {
        let machine = Machine::with_model(cfg.nprocs, cfg.model).recv_timeout(tuning.proc_timeout);
        let workers = machine
            .procs()
            .into_iter()
            .enumerate()
            .map(|(rank, proc)| {
                let (cmd_tx, cmd_rx) = unbounded::<Vec<u8>>();
                let (reply_tx, reply_rx) = unbounded::<Vec<u8>>();
                let init = WorkerInit {
                    cfg: WorkerConfig {
                        rank,
                        sketch_capacity: cfg.sketch_capacity,
                        selection: cfg.selection.clone(),
                        balancer: cfg.balancer,
                    },
                    faults: tuning.faults.clone(),
                };
                let handle = std::thread::Builder::new()
                    .name(format!("cgselect-mp-shard{rank}"))
                    .spawn(move || worker_loop::<T>(proc, init, cmd_rx, reply_tx))
                    .expect("failed to spawn channel-mp shard worker");
                WorkerLink { cmd: cmd_tx, reply: reply_rx, handle: Some(handle) }
            })
            .collect();
        ChannelMp {
            workers,
            reply_timeout: tuning.reply_timeout,
            next_seq: 1,
            poisoned: false,
            _marker: PhantomData,
        }
    }

    /// Sends one command body per worker and collects one reply payload per
    /// worker, applying the session-style root-cause triage and poisoning
    /// on any failure. The round's sequence number stamps every frame; the
    /// reply deadline is shared across the whole collect loop.
    fn round_trip(&mut self, bodies: Vec<Vec<u8>>) -> Result<Vec<Vec<u8>>, BackendError> {
        if self.poisoned {
            return Err(BackendError::Poisoned);
        }
        debug_assert_eq!(bodies.len(), self.workers.len());
        let seq = self.next_seq;
        self.next_seq += 1;
        for (rank, (w, body)) in self.workers.iter().zip(bodies).enumerate() {
            if w.cmd.send(protocol::encode_framed(seq, &body)).is_err() {
                self.poisoned = true;
                return Err(BackendError::WorkerUnresponsive { rank });
            }
        }
        let deadline = Instant::now() + self.reply_timeout;
        let mut payloads = Vec::with_capacity(self.workers.len());
        let mut failures: Vec<BackendError> = Vec::new();
        for (rank, w) in self.workers.iter().enumerate() {
            match protocol::collect_frame(&w.reply, deadline, seq, rank)
                .and_then(|body| protocol::decode_reply_status(rank, body))
            {
                Ok(payload) => payloads.push(payload),
                Err(e) => failures.push(e),
            }
        }
        if failures.is_empty() {
            return Ok(payloads);
        }
        self.poisoned = true;
        Err(protocol::triage(failures))
    }

    /// The same serialized body for every worker.
    fn broadcast_frames(&self, body: Vec<u8>) -> Vec<Vec<u8>> {
        let p = self.workers.len();
        let mut bodies = Vec::with_capacity(p);
        for _ in 1..p {
            bodies.push(body.clone());
        }
        bodies.push(body);
        bodies
    }

    /// Decodes every rank's reply payload, poisoning the backend on the
    /// first malformed frame (a worker that writes garbage is as gone as
    /// one that panicked).
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
}

impl<T: Key> ExecBackend<T> for ChannelMp<T> {
    fn nprocs(&self) -> usize {
        self.workers.len()
    }

    fn kind(&self) -> BackendKind {
        BackendKind::ChannelMp
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
}

impl<T: Key> Drop for ChannelMp<T> {
    fn drop(&mut self) {
        // Join-on-drop, mirroring `Session`: tell every worker to exit and
        // wait for it, so dropping an engine never leaks shard threads.
        for w in &self.workers {
            let _ = w.cmd.send(protocol::encode_framed(self.next_seq, &[CMD_EXIT]));
        }
        for w in &mut self.workers {
            if let Some(h) = w.handle.take() {
                let _ = h.join();
            }
        }
    }
}

/// The shard worker's command loop: unframe, decode, execute against the
/// owned shard, run the end-of-program protocol, reply under the command's
/// sequence number. A panic (injected or real) or protocol violation is
/// reported in the reply frame and ends the loop, exactly as a `Session`
/// worker stops serving after a failure.
fn worker_loop<T: Key>(
    mut proc: Proc,
    init: WorkerInit,
    commands: Receiver<Vec<u8>>,
    replies: Sender<Vec<u8>>,
) {
    let rank = init.cfg.rank;
    let mut shard: Shard<T> = ops::init_shard(init.cfg.sketch_capacity);
    let slow_delay = init.faults.iter().find_map(|f| match f {
        Fault::SlowShard { rank: r, delay } if *r == rank => Some(*delay),
        _ => None,
    });
    let mut executes_served = 0u64;
    while let Ok(frame) = commands.recv() {
        let (seq, body) = match protocol::split_framed(&frame) {
            Ok(parts) => parts,
            // An unframeable command cannot be answered under a matching
            // sequence number; stop serving and let the host time out.
            Err(_) => break,
        };
        if body.first() == Some(&CMD_EXIT) {
            break;
        }
        if let Some(delay) = slow_delay {
            std::thread::sleep(delay);
        }
        let (panic_now, drop_reply) = if body.first() == Some(&CMD_EXECUTE) {
            let nth = executes_served;
            executes_served += 1;
            (
                init.faults.iter().any(|f| {
                    matches!(f, Fault::PanicOnExecute { rank: r, nth: n } if *r == rank && *n == nth)
                }),
                init.faults.iter().any(|f| {
                    matches!(f, Fault::DropReplyOnExecute { rank: r, nth: n } if *r == rank && *n == nth)
                }),
            )
        } else {
            (false, false)
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            protocol::run_command::<T>(&mut proc, &mut shard, &init.cfg, body, panic_now)
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
        let failed = reply.first() != Some(&REPLY_OK);
        if drop_reply && !failed {
            // Simulate a lost reply frame: the program ran, the host never
            // hears about it. Keep serving (the host will poison itself).
            continue;
        }
        if replies.send(protocol::encode_framed(seq, &reply)).is_err() || failed {
            // Host gone mid-run, or this program failed: this worker's Proc
            // state can no longer be trusted — stop serving.
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgselect_runtime::MachineModel;

    #[test]
    fn default_tuning_gives_reply_deadline_headroom() {
        // Peers report a dead rank only after proc_timeout; the host's
        // reply deadline must sit beyond that or root causes degrade to
        // WorkerUnresponsive.
        let t = ChannelMpTuning::default();
        assert!(t.reply_timeout >= t.proc_timeout + t.proc_timeout / 2);
    }

    #[test]
    fn straggler_timeouts_share_one_deadline() {
        // Two stragglers sleep far past the reply deadline. With a shared
        // deadline the host stalls ~one reply_timeout total; the old
        // per-worker sequential timeouts would stall ~2x. The margin
        // asserted here (< 2 full timeouts) fails on the sequential shape
        // even under scheduler noise.
        let cfg = EngineConfig::new(3).model(MachineModel::free());
        let tuning = ChannelMpTuning::new()
            .reply_timeout(Duration::from_millis(700))
            .proc_timeout(Duration::from_millis(200))
            .fault(Fault::SlowShard { rank: 0, delay: Duration::from_secs(2) })
            .fault(Fault::SlowShard { rank: 1, delay: Duration::from_secs(2) });
        let mut backend = ChannelMp::<u64>::start(&cfg, tuning);
        let start = Instant::now();
        let err = backend.ingest(vec![vec![1], vec![2], vec![3]]).unwrap_err();
        let elapsed = start.elapsed();
        assert!(
            matches!(
                err,
                BackendError::WorkerUnresponsive { .. } | BackendError::WorkerPanicked { .. }
            ),
            "{err:?}"
        );
        assert!(
            elapsed < Duration::from_millis(1300),
            "collect loop must share one deadline across stragglers, stalled {elapsed:?}"
        );
        assert!(backend.is_poisoned());
    }
}
