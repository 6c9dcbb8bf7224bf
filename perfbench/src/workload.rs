//! The three workloads, each run as three backend legs over the identical
//! generated input. A leg times only the calls into the engine; answer
//! checking, oracle upkeep and input generation happen between the timed
//! calls.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use cgselect_engine::{
    Engine, EngineConfig, FrontendConfig, FrontendStats, Outcome, RefreshPolicy, Request,
    RunReport, Served, StandingHandle,
};

use crate::gen::{ChurnStream, FreshExactStream, ServeMixedStream, Shape};
use crate::oracle::{answers_agree, check_answers, AnswerKey, Oracle};
use crate::trace::{Span, Tracer};

/// Every size and rate that defines the workloads. Fixed here, never read
/// from the machine.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Shards (`EngineConfig::nprocs`) of every engine.
    pub shards: usize,
    /// Elements resident before the first timed operation.
    pub resident: usize,
    /// `fresh_exact`, `serve_mixed`: measured segments between two extra
    /// engine set-ups of every leg. They only add `setup_s` samples, spread
    /// over the run so that a slow stretch of the host hits few of them.
    pub setup_every: usize,
    /// `fresh_exact`: exact ranks and `RankOf` probes per batch.
    pub fresh_ranks: usize,
    pub fresh_probes: usize,
    /// Batches at the start of a closed-loop leg whose counts are reported
    /// (a prefix every leg reaches, so the counts repeat exactly).
    pub count_batches: usize,
    /// `serve_mixed`: offered requests per second.
    pub offered_rate: f64,
    /// `serve_mixed`: frontend micro-batch window.
    pub window: Duration,
    /// `serve_mixed` traced run: requests replayed through `Engine::run`,
    /// in batches of `replay_batch`.
    pub replay_requests: usize,
    pub replay_batch: usize,
    /// `ingest_churn`: elements per regular ingest.
    pub chunk: usize,
    /// `ingest_churn`: a pinned burst of `resident / burst_divisor` extra
    /// elements every `burst_every` ticks.
    pub burst_every: usize,
    pub burst_divisor: usize,
    /// `ingest_churn`: fresh exact ranks per tick batch.
    pub churn_ranks: usize,
    /// `ingest_churn`: ticks per episode; each episode restarts from the
    /// start state, so the resident size stays near `resident`.
    pub episode_ticks: usize,
    /// `ingest_churn`: the imbalance watermark the pinned bursts cross.
    pub watermark: f64,
    /// `ingest_churn`: the standing quantiles' refresh policy.
    pub standing_delta: f64,
}

impl Spec {
    pub fn full() -> Self {
        Spec {
            shards: 2,
            resident: 1 << 20,
            setup_every: 10,
            fresh_ranks: 16,
            fresh_probes: 4,
            count_batches: 256,
            offered_rate: 2000.0,
            window: Duration::from_millis(1),
            replay_requests: 2048,
            replay_batch: 4,
            chunk: 4096,
            burst_every: 32,
            burst_divisor: 16,
            churn_ranks: 8,
            episode_ticks: 64,
            watermark: 1.02,
            standing_delta: 0.01,
        }
    }
}

/// Standing quantiles of `ingest_churn`.
pub const STANDING: [f64; 3] = [0.5, 0.99, 0.999];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    FreshExact,
    ServeMixed,
    IngestChurn,
}

impl Workload {
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "fresh_exact" => Some(Workload::FreshExact),
            "serve_mixed" => Some(Workload::ServeMixed),
            "ingest_churn" => Some(Workload::IngestChurn),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::FreshExact => "fresh_exact",
            Workload::ServeMixed => "serve_mixed",
            Workload::IngestChurn => "ingest_churn",
        }
    }

    pub fn shape(self) -> Shape {
        match self {
            Workload::FreshExact | Workload::IngestChurn => Shape::Uniform,
            Workload::ServeMixed => Shape::Zipf,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    LocalSpmd,
    ChannelMp,
    SocketMp,
}

pub const BACKENDS: [Backend; 3] = [Backend::LocalSpmd, Backend::ChannelMp, Backend::SocketMp];

impl Backend {
    pub fn name(self) -> &'static str {
        match self {
            Backend::LocalSpmd => "local_spmd",
            Backend::ChannelMp => "channel_mp",
            Backend::SocketMp => "socket_mp",
        }
    }

    fn config(self, cfg: EngineConfig) -> EngineConfig {
        match self {
            Backend::LocalSpmd => cfg,
            Backend::ChannelMp => cfg.channel_mp(),
            Backend::SocketMp => cfg.socket_mp(),
        }
    }
}

/// Span `op` of set-up work and layer probes (not a client operation).
pub const SETUP_OP: u64 = u64::MAX;

/// Counts that repeat exactly for a fixed seed, taken over a
/// deterministic prefix of a leg.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    pub batches: u64,
    pub collective_ops: u64,
    pub msgs: u64,
    pub bytes: u64,
    pub exact_ranks: u64,
    pub outcomes: u64,
    pub histogram: u64,
    pub sketch: u64,
    pub delta_occupancy_sum: f64,
    /// Largest measured-error / reported-guarantee ratio of a sketch answer.
    pub err_ratio_max: f64,
    pub rebuilds: u64,
    pub delta_merges: u64,
    pub standing_refreshes: u64,
    pub standing_zero_collective: u64,
    pub rebalances: u64,
}

impl Counts {
    fn add_batch(&mut self, report: &RunReport<u64>, err_ratio: f64) {
        self.err_ratio_max = self.err_ratio_max.max(err_ratio);
        self.batches += 1;
        self.collective_ops += report.collective_ops;
        self.msgs += report.comm.msgs_sent;
        self.bytes += report.comm.bytes_sent;
        self.exact_ranks += report.exact_ranks as u64;
        self.outcomes += report.outcomes.len() as u64;
        self.histogram += count_served(&report.outcomes, Served::Histogram);
        self.sketch += count_served(&report.outcomes, Served::Sketch);
        self.delta_occupancy_sum += report.delta_occupancy;
    }

    /// Engine-side counters accumulated between two points of the prefix.
    fn add_engine_deltas(&mut self, engine: &Engine<u64>, start: &EngineMarks) {
        let now = EngineMarks::of(engine);
        self.rebuilds += now.rebuilds - start.rebuilds;
        self.delta_merges += now.delta_merges - start.delta_merges;
        self.standing_refreshes += now.standing - start.standing;
        self.standing_zero_collective += now.standing_zero - start.standing_zero;
    }
}

fn count_served(outcomes: &[Outcome<u64>], served: Served) -> u64 {
    outcomes.iter().filter(|o| o.served == served).count() as u64
}

struct EngineMarks {
    rebuilds: u64,
    delta_merges: u64,
    standing: u64,
    standing_zero: u64,
}

impl EngineMarks {
    fn of(engine: &Engine<u64>) -> Self {
        let health = engine.index_health();
        EngineMarks {
            rebuilds: health.rebuilds,
            delta_merges: health.delta_merges,
            standing: engine.standing_refreshes(),
            standing_zero: engine.standing_zero_collective(),
        }
    }
}

/// One request's answer as compared across legs.
#[derive(Clone, Copy, Debug)]
pub struct Answer {
    pub key: AnswerKey,
    pub tolerant: bool,
}

fn answers_of(requests: &[Request<u64>], outcomes: &[Outcome<u64>]) -> Vec<Answer> {
    requests
        .iter()
        .zip(outcomes)
        .map(|(r, o)| Answer {
            key: AnswerKey::of(o),
            tolerant: !matches!(r.accuracy, cgselect_engine::Accuracy::Exact),
        })
        .collect()
}

/// One measured stretch of a leg. Legs are measured in short segments that
/// alternate between the backends, so a transient slowdown of the host
/// lands on every backend alike and spoils whole segments rather than the
/// run; end-to-end timings are taken from the leg's quiet segments (see
/// `metrics::QUIET`).
#[derive(Debug, Default)]
pub struct Segment {
    /// Latency of each operation, ms.
    pub latency_ms: Vec<f64>,
    /// Work done (ranks, requests or elements) and the time it took.
    pub work: f64,
    pub busy_s: f64,
}

/// Everything one backend leg measured.
pub struct Leg {
    pub backend: Backend,
    /// Wall seconds of each engine set-up (start + initial ingest + first
    /// index-building batch).
    pub setup_s: Vec<f64>,
    pub segments: Vec<Segment>,
    /// Per operation: its answers (for the cross-backend check) and the
    /// problems the oracle found.
    pub answers: Vec<Vec<Answer>>,
    pub problems: Vec<Vec<String>>,
    /// Answers of the deterministic replay (traced `serve_mixed` only).
    pub replay_answers: Vec<Vec<Answer>>,
    pub counts: Counts,
    /// Virtual makespan of every `Engine::run` batch, ms.
    pub makespan_ms: Vec<f64>,
    /// Operations with a property a per-layer metric filters on.
    pub marks: BTreeMap<&'static str, BTreeSet<u64>>,
    pub spans: Vec<Span>,
    /// Frontend counters, one snapshot per segment.
    pub frontend: Vec<FrontendStats>,
    /// p50 of the engine's own `batch_wall` track (observing engines).
    pub batch_wall_p50_ms: f64,
    pub gen_late_ms_max: f64,
}

impl Leg {
    pub fn new(backend: Backend) -> Self {
        Leg {
            backend,
            setup_s: Vec::new(),
            segments: Vec::new(),
            answers: Vec::new(),
            problems: Vec::new(),
            replay_answers: Vec::new(),
            counts: Counts::default(),
            makespan_ms: Vec::new(),
            marks: BTreeMap::new(),
            spans: Vec::new(),
            frontend: Vec::new(),
            batch_wall_p50_ms: 0.0,
            gen_late_ms_max: 0.0,
        }
    }

    fn mark(&mut self, what: &'static str, op: u64) {
        self.marks.entry(what).or_default().insert(op);
    }

    pub fn marked(&self, what: &str) -> BTreeSet<u64> {
        self.marks.get(what).cloned().unwrap_or_default()
    }

    /// Records one operation's answers and problems.
    fn record(&mut self, answers: Vec<Answer>, problems: Vec<String>) {
        self.answers.push(answers);
        self.problems.push(problems);
    }
}

/// Inputs and settings shared by the legs of one pass.
pub struct Pass<'a> {
    pub workload: Workload,
    /// The legs, in order; the first is the cross-check reference.
    pub backends: &'a [Backend],
    pub spec: Spec,
    pub seed: u64,
    pub data: &'a [u64],
    pub oracle: &'a Oracle,
    /// Measured time per leg.
    pub leg_time: Duration,
    pub traced: bool,
    pub epoch: Instant,
}

/// Segments per leg of `fresh_exact` and `serve_mixed` (about a sixth of a
/// second each at 30 s per run): short enough that most fall between the
/// shared host's slow stretches.
const SEGMENTS: u32 = 60;

/// A freshly set-up engine plus its standing-query handles.
struct Ready {
    engine: Engine<u64>,
    handles: Vec<StandingHandle<u64>>,
    secs: f64,
}

/// One backend's leg in progress.
struct Runner {
    leg: Leg,
    tr: Tracer,
    /// Tracer thread-id base of the leg (`serve_mixed` threads add to it).
    tid: u64,
    engine: Option<Engine<u64>>,
    /// A second set-up engine for the traced `serve_mixed` replay.
    spare: Option<Engine<u64>>,
    /// The final resident multiset of `ingest_churn`'s last episode.
    final_oracle: Option<Oracle>,
    fresh: FreshExactStream,
    mixed: ServeMixedStream,
    op: u64,
    start: Option<EngineMarks>,
}

impl Pass<'_> {
    fn config(&self, backend: Backend) -> EngineConfig {
        let mut cfg = EngineConfig::new(self.spec.shards);
        if self.workload == Workload::IngestChurn {
            cfg = cfg.imbalance_watermark(self.spec.watermark);
        }
        // The engine's own batch-wall track feeds `frontend.self_ms_p50`.
        if self.traced && self.workload == Workload::ServeMixed {
            cfg = cfg.observe(true);
        }
        backend.config(cfg)
    }

    /// Engine start, initial ingest, standing subscriptions and the first
    /// (index-building) batch. Its answers are checked; a wrong one is fatal.
    fn setup(&self, backend: Backend, tr: &mut Tracer) -> Result<Ready, String> {
        let items = self.data.to_vec();
        let fail = |what: &str, e: &dyn std::fmt::Display| {
            format!("{} set-up on {}: {what}: {e}", self.workload.name(), backend.name())
        };
        let whole = tr.begin("bench.setup", SETUP_OP);
        let t0 = Instant::now();
        let span = tr.begin("engine.new", SETUP_OP);
        let mut engine = Engine::new(self.config(backend)).map_err(|e| fail("start", &e))?;
        tr.end(span);
        let span = tr.begin("engine.ingest", SETUP_OP);
        engine.ingest(items).map_err(|e| fail("ingest", &e))?;
        tr.end(span);
        let handles: Vec<_> = if self.workload == Workload::IngestChurn {
            let policy = RefreshPolicy::OnDelta(self.spec.standing_delta);
            STANDING.iter().map(|&q| engine.subscribe(Request::quantile(q), policy)).collect()
        } else {
            Vec::new()
        };
        let warm = [Request::median()];
        let span = tr.begin("engine.run", SETUP_OP);
        let report = engine.run(&warm).map_err(|e| fail("first batch", &e))?;
        tr.end(span);
        let secs = t0.elapsed().as_secs_f64();
        tr.end(whole);
        let mut problems = check_answers(self.oracle, &warm, &report.outcomes, &mut 0.0);
        for (h, &q) in handles.iter().zip(&STANDING) {
            let mut next_seq = 0;
            problems.extend(check_standing(h, q, self.oracle, 1, &mut next_seq));
            if next_seq != 1 {
                problems.push(format!("standing q={q}: no inaugural update"));
            }
        }
        if !problems.is_empty() {
            return Err(fail("wrong answers", &problems.join("; ")));
        }
        Ok(Ready { engine, handles, secs })
    }

    /// Runs every backend's leg, interleaved: set-ups round-robin, then
    /// measured segments round-robin, with extra set-ups between them.
    pub fn run(&self) -> Result<Vec<Leg>, String> {
        let mut runners: Vec<Runner> = self
            .backends
            .iter()
            .enumerate()
            .map(|(i, &b)| Runner {
                leg: Leg::new(b),
                tr: Tracer::new(self.traced, self.epoch, i, i as u64 * 4 + 1),
                tid: i as u64 * 4,
                engine: None,
                spare: None,
                final_oracle: None,
                fresh: FreshExactStream::new(self.seed, self.spec),
                mixed: ServeMixedStream::new(self.seed, self.spec),
                op: 0,
                start: None,
            })
            .collect();
        let keep = if self.traced && self.workload == Workload::ServeMixed { 2 } else { 1 };
        let mut churn_ready: Vec<Option<Ready>> = runners.iter().map(|_| None).collect();
        for rep in 0..keep {
            for (r, ready) in runners.iter_mut().zip(&mut churn_ready) {
                let fresh = self.setup(r.leg.backend, &mut r.tr)?;
                r.leg.setup_s.push(fresh.secs);
                match rep {
                    0 if self.workload == Workload::IngestChurn => *ready = Some(fresh),
                    0 => r.engine = Some(fresh.engine),
                    _ => r.spare = Some(fresh.engine),
                }
            }
        }
        for r in &mut runners {
            r.start = r.engine.as_ref().map(EngineMarks::of);
        }
        let seg_time = self.leg_time / SEGMENTS;
        match self.workload {
            Workload::FreshExact => {
                for seg in 1..=SEGMENTS as usize {
                    for r in &mut runners {
                        self.fresh_segment(r, seg_time);
                    }
                    self.extra_setups(&mut runners, seg)?;
                }
            }
            Workload::ServeMixed => {
                for seg in 1..=SEGMENTS as usize {
                    for r in &mut runners {
                        self.mixed_segment(r, seg_time)?;
                    }
                    self.extra_setups(&mut runners, seg)?;
                }
            }
            Workload::IngestChurn => {
                let deadline = Instant::now() + self.leg_time * runners.len() as u32;
                let mut first = true;
                while first || Instant::now() < deadline {
                    for (r, ready) in runners.iter_mut().zip(&mut churn_ready) {
                        let ready = match ready.take() {
                            Some(ready) => ready,
                            None => {
                                let ready = self.setup(r.leg.backend, &mut r.tr)?;
                                r.leg.setup_s.push(ready.secs);
                                ready
                            }
                        };
                        self.churn_episode(r, ready, first);
                    }
                    first = false;
                }
            }
        }
        let mut legs = Vec::new();
        for mut r in runners {
            if let Some(mut spare) = r.spare.take() {
                self.replay(&mut r, &mut spare);
            }
            if let Some(metrics) = r.engine.as_ref().and_then(|e| e.metrics()) {
                let snap = metrics.snapshot();
                if let Some(track) = snap.latencies.iter().find(|l| l.name == "batch_wall") {
                    r.leg.batch_wall_p50_ms = track.p50 as f64 / 1e6;
                }
            }
            self.membership_probes(&mut r)?;
            r.leg.spans.extend(r.tr.into_spans());
            legs.push(r.leg);
        }
        cross_check(&mut legs, self.workload == Workload::ServeMixed);
        Ok(legs)
    }

    /// After every `setup_every`-th segment, sets up (and drops) one more
    /// engine per leg, for its `setup_s` sample only. (`ingest_churn` sets
    /// up an engine per episode instead.)
    fn extra_setups(&self, runners: &mut [Runner], seg: usize) -> Result<(), String> {
        if seg.is_multiple_of(self.spec.setup_every) {
            for r in runners {
                let ready = self.setup(r.leg.backend, &mut r.tr)?;
                r.leg.setup_s.push(ready.secs);
            }
        }
        Ok(())
    }

    fn fresh_segment(&self, r: &mut Runner, seg_time: Duration) {
        let engine = r.engine.as_mut().expect("a set-up engine");
        let leg = &mut r.leg;
        let mut seg = Segment::default();
        let deadline = Instant::now() + seg_time;
        while Instant::now() < deadline {
            let batch = r.fresh.next_batch();
            let (result, secs) = timed_run(&mut r.tr, engine, &batch, r.op, "bench.batch");
            seg.latency_ms.push(secs * 1e3);
            seg.busy_s += secs;
            let counted = r.op < self.spec.count_batches as u64;
            match result {
                Ok(report) => {
                    seg.work += self.spec.fresh_ranks as f64;
                    leg.makespan_ms.push(report.makespan * 1e3);
                    let mut ratio = 0.0;
                    let problems = check_answers(self.oracle, &batch, &report.outcomes, &mut ratio);
                    if counted {
                        leg.counts.add_batch(&report, ratio);
                    }
                    leg.record(answers_of(&batch, &report.outcomes), problems);
                }
                Err(e) => leg.record(Vec::new(), vec![format!("Engine::run: {e}")]),
            }
            r.op += 1;
            if r.op == self.spec.count_batches as u64 {
                let start = r.start.as_ref().expect("marks taken after set-up");
                leg.counts.add_engine_deltas(engine, start);
            }
        }
        leg.segments.push(seg);
    }

    /// One open-loop segment: a fresh frontend over the leg's engine,
    /// offered `offered_rate` requests per second for `seg_time`.
    fn mixed_segment(&self, r: &mut Runner, seg_time: Duration) -> Result<(), String> {
        let engine = r.engine.take().expect("a set-up engine");
        let cfg =
            FrontendConfig::new().window(self.spec.window).max_batch(256).queue_capacity(1024);
        let queue = engine.into_frontend(cfg);
        let interval = Duration::from_secs_f64(1.0 / self.spec.offered_rate);
        let count = (seg_time.as_secs_f64() * self.spec.offered_rate) as u64;
        let first_op = r.op;
        let (traced, epoch, leg_idx, tid) = (self.traced, self.epoch, r.tr.leg(), r.tid);
        let stream = &mut r.mixed;
        let (tx, rx) = mpsc::channel();
        let (spans, done, late) = std::thread::scope(|s| {
            let queue = &queue;
            let generator = s.spawn(move || {
                let mut gt = Tracer::new(traced, epoch, leg_idx, tid + 2);
                let start = Instant::now() + Duration::from_millis(2);
                let mut late = Duration::ZERO;
                for k in 0..count {
                    let i = first_op + k;
                    let request = stream.next_request();
                    let due = start + interval * k as u32;
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let sent = Instant::now();
                    late = late.max(sent - due);
                    let whole = gt.begin_at("frontend.request", i, due, None);
                    let span = gt.begin_at("frontend.submit_request", i, sent, whole.id());
                    let ticket = queue.submit_request(request.clone());
                    gt.end(span);
                    if tx.send((due, request, ticket, whole)).is_err() {
                        break;
                    }
                }
                (gt, late)
            });
            let collector = s.spawn(move || {
                let mut ct = Tracer::new(traced, epoch, leg_idx, tid + 3);
                let mut done = Vec::new();
                for (due, request, ticket, whole) in rx {
                    let result = ticket.map_err(|e| e.to_string()).and_then(
                        |t: cgselect_engine::OutcomeTicket<u64>| {
                            t.wait().map_err(|e| e.to_string())
                        },
                    );
                    let at = Instant::now();
                    ct.end_at(whole, at);
                    done.push((due, at, request, result));
                }
                (ct, done)
            });
            let (gt, late) = generator.join().expect("generator thread panicked");
            let (ct, done) = collector.join().expect("collector thread panicked");
            let mut spans = gt.into_spans();
            spans.extend(ct.into_spans());
            (spans, done, late)
        });
        let leg = &mut r.leg;
        leg.spans.extend(spans);
        leg.gen_late_ms_max = leg.gen_late_ms_max.max(late.as_secs_f64() * 1e3);
        leg.frontend.push(queue.stats());
        r.engine = Some(queue.shutdown().ok_or("frontend already shut down")?);
        let mut seg = Segment::default();
        let (mut first_due, mut last_done) = (None, None);
        for (due, at, request, result) in done {
            let requests = std::slice::from_ref(&request);
            match result {
                Ok(outcome) => {
                    let outcomes = std::slice::from_ref(&outcome);
                    seg.latency_ms.push((at - due).as_secs_f64() * 1e3);
                    seg.work += 1.0;
                    first_due = first_due.or(Some(due));
                    last_done = Some(at);
                    let problems = check_answers(self.oracle, requests, outcomes, &mut 0.0);
                    leg.record(answers_of(requests, outcomes), problems);
                }
                Err(e) => leg.record(Vec::new(), vec![format!("submit_request: {e}")]),
            }
            r.op += 1;
        }
        if let (Some(a), Some(b)) = (first_due, last_done) {
            seg.busy_s = (b - a).as_secs_f64();
        }
        leg.segments.push(seg);
        Ok(())
    }

    /// Replays the start of the `serve_mixed` stream through `Engine::run`
    /// in fixed batches: the deterministic source of its counts and of the
    /// host-only run spans.
    fn replay(&self, r: &mut Runner, engine: &mut Engine<u64>) {
        let start = EngineMarks::of(engine);
        let mut stream = ServeMixedStream::new(self.seed, self.spec);
        let leg = &mut r.leg;
        let batches = self.spec.replay_requests / self.spec.replay_batch;
        for b in 0..batches as u64 {
            let batch: Vec<_> =
                (0..self.spec.replay_batch).map(|_| stream.next_request()).collect();
            let (result, _) = timed_run(&mut r.tr, engine, &batch, b, "bench.replay_batch");
            match result {
                Ok(report) => {
                    if report.collective_ops == 0 {
                        leg.mark("host_only", b);
                    }
                    leg.makespan_ms.push(report.makespan * 1e3);
                    let mut ratio = 0.0;
                    let problems = check_answers(self.oracle, &batch, &report.outcomes, &mut ratio);
                    leg.counts.add_batch(&report, ratio);
                    leg.problems.push(problems);
                    leg.replay_answers.push(answers_of(&batch, &report.outcomes));
                }
                Err(e) => {
                    leg.problems.push(vec![format!("replay Engine::run: {e}")]);
                    leg.replay_answers.push(Vec::new());
                }
            }
        }
        leg.counts.add_engine_deltas(engine, &start);
    }

    /// One `ingest_churn` episode (one segment): the tick script from the
    /// start state. The first episode's counts are reported.
    fn churn_episode(&self, r: &mut Runner, ready: Ready, counted: bool) {
        let Ready { mut engine, handles, .. } = ready;
        let start = EngineMarks::of(&engine);
        let tr = &mut r.tr;
        let leg = &mut r.leg;
        let mut oracle = self.oracle.clone();
        let mut version = 1u64;
        let mut stream = ChurnStream::new(self.seed, self.spec);
        let mut seqs = vec![1u64; handles.len()];
        let mut seg = Segment::default();
        for _ in 0..self.spec.episode_ticks {
            let op = r.op;
            r.op += 1;
            let tick = stream.next_tick();
            let mut problems = Vec::new();
            let mut busy = Duration::ZERO;
            let whole = tr.begin("bench.tick", op);
            let added = (tick.ingest.len() + tick.burst.as_ref().map_or(0, |b| b.1.len())) as u64;
            if !tick.ingest.is_empty() {
                oracle.ingest(&tick.ingest);
                version += 1;
                let r = timed(tr, "engine.ingest", op, &mut busy, || engine.ingest(tick.ingest));
                check_count(&mut problems, "ingest", r.map(|m| m.elements), added);
            }
            if let Some((shard, items)) = tick.burst {
                oracle.ingest(&items);
                version += 1;
                let r = timed(tr, "engine.ingest_pinned", op, &mut busy, || {
                    engine.ingest_pinned(shard, items)
                });
                if r.as_ref().is_ok_and(|m| m.rebalanced) {
                    leg.mark("rebalanced", op);
                    if counted {
                        leg.counts.rebalances += 1;
                    }
                }
                check_count(&mut problems, "ingest_pinned", r.map(|m| m.elements), added);
            }
            if !tick.delete.is_empty() {
                let expect = oracle.delete(&tick.delete);
                if expect > 0 {
                    version += 1;
                }
                let r = timed(tr, "engine.delete", op, &mut busy, || engine.delete(&tick.delete));
                check_count(&mut problems, "delete", r.map(|m| m.elements), expect);
            }
            let r =
                timed(tr, "standing.refresh_standing", op, &mut busy, || engine.refresh_standing());
            match r {
                Ok(0) => {}
                Ok(_) => leg.mark("refreshed", op),
                Err(e) => problems.push(format!("refresh_standing: {e}")),
            }
            for ((h, &q), seq) in handles.iter().zip(&STANDING).zip(&mut seqs) {
                problems.extend(check_standing(h, q, &oracle, version, seq));
            }
            let result = timed(tr, "engine.run", op, &mut busy, || engine.run(&tick.batch));
            tr.end(whole);
            seg.latency_ms.push(busy.as_secs_f64() * 1e3);
            seg.busy_s += busy.as_secs_f64();
            seg.work += added as f64;
            let answers = match result {
                Ok(report) => {
                    leg.makespan_ms.push(report.makespan * 1e3);
                    let mut ratio = 0.0;
                    problems.extend(check_answers(
                        &oracle,
                        &tick.batch,
                        &report.outcomes,
                        &mut ratio,
                    ));
                    if counted {
                        leg.counts.add_batch(&report, ratio);
                    }
                    answers_of(&tick.batch, &report.outcomes)
                }
                Err(e) => {
                    problems.push(format!("Engine::run: {e}"));
                    Vec::new()
                }
            };
            leg.record(answers, problems);
        }
        if counted {
            leg.counts.add_engine_deltas(&engine, &start);
        }
        leg.segments.push(seg);
        r.engine = Some(engine);
        r.final_oracle = Some(oracle);
    }

    /// Times `migrate_shard`, `join_worker` and `retire_worker` once after
    /// the SocketMp leg (traced runs only), outside every end-to-end
    /// timing, then checks a batch on the reshaped ring.
    fn membership_probes(&self, r: &mut Runner) -> Result<(), String> {
        if !self.traced || r.leg.backend != Backend::SocketMp {
            return Ok(());
        }
        let engine = r.engine.as_mut().expect("the leg's engine");
        let oracle = r.final_oracle.as_ref().unwrap_or(self.oracle);
        let tr = &mut r.tr;
        let fail = |what: &str, e: &dyn std::fmt::Display| format!("{what}: {e}");
        let span = tr.begin("backend.migrate_shard", SETUP_OP);
        engine.migrate_shard(0).map_err(|e| fail("migrate_shard", &e))?;
        tr.end(span);
        let span = tr.begin("backend.join_worker", SETUP_OP);
        let p = engine.join_worker().map_err(|e| fail("join_worker", &e))?;
        tr.end(span);
        let span = tr.begin("backend.retire_worker", SETUP_OP);
        engine.retire_worker(p - 1).map_err(|e| fail("retire_worker", &e))?;
        tr.end(span);
        let n = oracle.len();
        let batch = [
            Request::rank(0),
            Request::rank(n / 3),
            Request::rank(n - 1),
            Request::rank_of(u64::MAX / 3),
        ];
        let problems = match engine.run(&batch) {
            Ok(report) => check_answers(oracle, &batch, &report.outcomes, &mut 0.0),
            Err(e) => vec![fail("run after membership changes", &e)],
        };
        r.leg.problems.push(problems);
        Ok(())
    }
}

/// Runs `f` under a span named `name`, adding its wall time to `busy`.
fn timed<R>(
    tr: &mut Tracer,
    name: &'static str,
    op: u64,
    busy: &mut Duration,
    f: impl FnOnce() -> R,
) -> R {
    let span = tr.begin(name, op);
    let t0 = Instant::now();
    let r = f();
    *busy += t0.elapsed();
    tr.end(span);
    r
}

/// Runs one batch under an operation span and an `engine.run` span,
/// returning the result and the call's wall seconds.
fn timed_run(
    tr: &mut Tracer,
    engine: &mut Engine<u64>,
    batch: &[Request<u64>],
    op: u64,
    op_name: &'static str,
) -> (Result<RunReport<u64>, cgselect_engine::EngineError>, f64) {
    let whole = tr.begin(op_name, op);
    let mut busy = Duration::ZERO;
    let result = timed(tr, "engine.run", op, &mut busy, || engine.run(batch));
    tr.end(whole);
    (result, busy.as_secs_f64())
}

fn check_count(
    problems: &mut Vec<String>,
    what: &str,
    got: Result<u64, cgselect_engine::EngineError>,
    expect: u64,
) {
    match got {
        Ok(n) if n == expect => {}
        Ok(n) => problems.push(format!("{what} reported {n} elements, oracle expects {expect}")),
        Err(e) => problems.push(format!("{what}: {e}")),
    }
}

/// Drains one standing handle and checks every update against the oracle
/// (the from-scratch answer) at the expected mutation version, and its
/// sequence numbers against `next_seq` for gaps.
fn check_standing(
    handle: &StandingHandle<u64>,
    q: f64,
    oracle: &Oracle,
    version: u64,
    next_seq: &mut u64,
) -> Vec<String> {
    let mut problems = Vec::new();
    let request = Request::quantile(q);
    for update in handle.drain() {
        if update.seq != *next_seq {
            problems.push(format!("standing q={q}: seq {} where {next_seq} was due", update.seq));
        }
        *next_seq = update.seq + 1;
        if update.outcome.freshness.version != version {
            problems.push(format!(
                "standing q={q}: update at version {}, data is at version {version}",
                update.outcome.freshness.version
            ));
            continue;
        }
        let outcomes = std::slice::from_ref(&update.outcome);
        let requests = std::slice::from_ref(&request);
        problems.extend(check_answers(oracle, requests, outcomes, &mut 0.0));
    }
    problems
}

/// Compares every later leg's answers with the first leg's, operation by
/// operation over the prefix both reached, and adds a problem to each
/// operation that disagrees. `route_may_vary` applies to the main stream
/// only; the replay's batches are fixed.
pub fn cross_check(legs: &mut [Leg], route_may_vary: bool) {
    let (first, rest) = legs.split_first_mut().expect("three legs");
    for leg in rest {
        let replay_base = leg.answers.len();
        let mut bad = Vec::new();
        for (ours, theirs, base, vary) in [
            (&first.answers, &leg.answers, 0, route_may_vary),
            (&first.replay_answers, &leg.replay_answers, replay_base, false),
        ] {
            for (op, (a, b)) in ours.iter().zip(theirs).enumerate() {
                let agree = a.len() == b.len()
                    && a.iter().zip(b).all(|(x, y)| answers_agree(x.key, y.key, x.tolerant, vary));
                if !agree {
                    bad.push(base + op);
                }
            }
        }
        for idx in bad {
            leg.problems[idx].push(format!(
                "{} disagrees with {} on operation {idx}",
                leg.backend.name(),
                first.backend.name()
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{encode_requests, resident};

    /// The workloads shrunk to test size.
    fn small_spec() -> Spec {
        Spec {
            resident: 1 << 14,
            setup_every: 20,
            count_batches: 16,
            replay_requests: 64,
            chunk: 256,
            episode_ticks: 16,
            burst_every: 8,
            ..Spec::full()
        }
    }

    /// The byte stream of every request and mutation a workload generates.
    fn stream_bytes(workload: Workload, seed: u64) -> Vec<u8> {
        let spec = small_spec();
        let mut out: Vec<u8> = resident(seed, workload.shape(), spec.resident)
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        match workload {
            Workload::FreshExact => {
                let mut s = FreshExactStream::new(seed, spec);
                for _ in 0..64 {
                    encode_requests(&mut out, &s.next_batch());
                }
            }
            Workload::ServeMixed => {
                let mut s = ServeMixedStream::new(seed, spec);
                let batch: Vec<_> = (0..512).map(|_| s.next_request()).collect();
                encode_requests(&mut out, &batch);
            }
            Workload::IngestChurn => {
                let mut s = ChurnStream::new(seed, spec);
                for _ in 0..spec.episode_ticks {
                    let t = s.next_tick();
                    let (shard, burst) = t.burst.unwrap_or((usize::MAX, Vec::new()));
                    out.extend(shard.to_le_bytes());
                    for v in t.ingest.iter().chain(&burst).chain(&t.delete) {
                        out.extend(v.to_le_bytes());
                    }
                    encode_requests(&mut out, &t.batch);
                }
            }
        }
        out
    }

    const ALL: [Workload; 3] = [Workload::FreshExact, Workload::ServeMixed, Workload::IngestChurn];

    #[test]
    fn same_seed_gives_a_byte_identical_stream() {
        for w in ALL {
            assert_eq!(stream_bytes(w, 7), stream_bytes(w, 7), "{}", w.name());
            assert_ne!(stream_bytes(w, 7), stream_bytes(w, 8), "{}", w.name());
        }
    }

    /// One in-process pass (no worker binary needed) of a small workload.
    fn small_pass(workload: Workload, seed: u64) -> Vec<Leg> {
        let spec = small_spec();
        let data = resident(seed, workload.shape(), spec.resident);
        let oracle = Oracle::new(data.clone());
        let pass = Pass {
            workload,
            backends: &[Backend::LocalSpmd, Backend::ChannelMp],
            spec,
            seed,
            data: &data,
            oracle: &oracle,
            leg_time: Duration::from_millis(400),
            traced: true,
            epoch: Instant::now(),
        };
        pass.run().expect("small pass runs")
    }

    #[test]
    fn counts_repeat_exactly_and_answers_check_out() {
        for w in ALL {
            let first = small_pass(w, 11);
            let second = small_pass(w, 11);
            for legs in [&first, &second] {
                let problems: Vec<_> = legs.iter().flat_map(|l| l.problems.concat()).collect();
                assert!(problems.is_empty(), "{}: {problems:?}", w.name());
                assert!(legs[0].counts.batches > 0, "{}: nothing counted", w.name());
                assert_eq!(legs[0].counts, legs[1].counts, "{}: legs disagree", w.name());
            }
            assert_eq!(first[0].counts, second[0].counts, "{}: runs disagree", w.name());
        }
    }

    #[test]
    fn churn_bursts_rebalance_and_standing_queries_refresh() {
        let legs = small_pass(Workload::IngestChurn, 3);
        let c = &legs[0].counts;
        assert!(c.rebalances >= 1, "{c:?}");
        assert!(c.standing_refreshes >= 1, "{c:?}");
    }

    #[test]
    fn cross_check_flags_a_planted_disagreement() {
        let mut legs = small_pass(Workload::FreshExact, 5);
        let op = legs[1].answers.iter().position(|a| !a.is_empty()).expect("an answered op");
        legs[1].answers[op][0].key = AnswerKey::Exact(u64::MAX);
        cross_check(&mut legs, false);
        assert!(!legs[1].problems[op].is_empty());
    }
}
