//! # cgselect-engine — a persistent sharded selection/quantile query engine
//!
//! The paper's algorithms are one-shot: build a machine, select one rank,
//! tear everything down. This crate turns them into a long-lived service:
//! data is ingested once, stays **resident in shards on the `p` virtual
//! processors** (a pluggable [`ExecBackend`] whose worker threads survive
//! between calls — the in-process [`cgselect_runtime::Session`] by
//! default), and an unbounded stream of query batches is served against
//! it.
//!
//! What the engine adds over raw `parallel_select`:
//!
//! * **A typed query surface with inverse queries** — [`Engine::run`]
//!   takes [`Request`]s: forward rank-direction kinds (ranks, quantiles,
//!   multi-quantiles, median, min/max, top-k) *and* the inverse direction
//!   the paper's count-below-pivot primitive makes natural —
//!   [`QueryKind::RankOf`] (value → rank, a CDF point) and
//!   [`QueryKind::CountBetween`] (range → count) — each under an explicit
//!   [`Accuracy`] contract (`Exact` | `WithinRank` | `HistogramOk`).
//!   Every answer is an [`Outcome`]: the [`Response`] plus **provenance**
//!   ([`Served::Histogram`] / [`Served::Sketch`] / [`Served::Index`] /
//!   [`Served::Scan`]) and an attributed collective-op cost. The original
//!   closed [`Query`] enum still works: [`Engine::execute`] is a thin
//!   compatibility shim over the same path.
//! * **Batched execution** — a batch's rank-direction queries are
//!   coalesced into *one* deduplicated [`RankSet`] (contiguous runs, so
//!   `TopK(k)` plans in O(1)) and resolved by a single lockstep
//!   multi-select pass ([`cgselect_core::parallel_multi_select_windows`]):
//!   `R` rank queries cost `O(log n + R)` pivot rounds instead of
//!   `O(R·log n)`. All value probes of a batch share **one** vectorized
//!   `count_below` Combine round. Per-batch [`BatchReport`] /
//!   [`RunReport`] carry the measured [`cgselect_runtime::CommStats`], the
//!   collective-operation count and the virtual-time makespan.
//! * **A resident bucket index** — each shard keeps its data organized into
//!   buckets under *shared* sample-derived splitters, and the engine caches
//!   the global per-bucket histogram. A rank query localizes against the
//!   cached histogram to a small window of candidate buckets, the
//!   multi-select recursion runs **only over those candidate buckets,
//!   borrowed in place** (the per-batch full-shard clone + scan of the
//!   pre-index engine is gone), and windows that collapse to one
//!   repeated-value bucket are answered from the histogram alone — zero
//!   element scans, which is the steady state for repeated quantiles
//!   because resolved answers refine the splitters. The same cached
//!   histogram serves the inverse direction: a value probe the splitters
//!   bound is answered host-side with zero scans and zero collectives
//!   (and a batch fully resolved this way never consults the backend at
//!   all). Ingest appends to a small unindexed *delta run* that is merged
//!   amortized. When refinement grows the bucket count past its cap, the
//!   next batch coarsens the index in place: the host picks splitters to
//!   drop from its exact histogram and ships them in the batch plan, and
//!   the shards drop them without moving an element or running a
//!   collective. Only operations that move or lose data — rebalance,
//!   membership changes, recovery — rebuild the splitters. See
//!   [`EngineConfig::index_buckets`], [`EngineConfig::delta_threshold`]
//!   and [`Engine::index_health`].
//! * **Incremental ingest/delete** with an **imbalance watermark**: shard
//!   sizes are tracked, and when `max/mean` exceeds
//!   [`EngineConfig::imbalance_watermark`] the engine re-balances with the
//!   configured [`cgselect_balance::Balancer`] — amortized, not per
//!   operation.
//! * **An approximate fast path** — every shard maintains a mergeable
//!   reservoir sketch of its data on ingest; quantile queries carrying a
//!   rank-error tolerance the sketches can honor are answered from the
//!   sketches alone, never touching the full data, and fall back to the
//!   exact paper algorithms otherwise.
//! * **An async frontend** ([`frontend`]) — concurrent clients submit
//!   single queries into a bounded [`SubmissionQueue`] and await
//!   [`Ticket`]s, while a dedicated batcher thread forms batches by
//!   deadline (micro-batching window + max batch size) so the coalescing
//!   above happens *across* clients, not just within one caller's slice.
//! * **Pluggable execution backends** ([`backend`]) — everything below the
//!   host-side planner (shard residency, collective execution,
//!   ingest/delete/rebalance, `CommStats` accounting) sits behind the
//!   [`ExecBackend`] trait, chosen via [`EngineConfig::backend`]: the
//!   in-process [`LocalSpmd`] session, or the message-passing
//!   [`ChannelMp`] worker ring whose every command and reply crosses a
//!   channel as a serialized byte frame (the dress rehearsal for
//!   out-of-process shards). Both run the identical per-shard code, so
//!   they produce identical answers *and* identical collective-round
//!   counts — enforced by `tests/backend_conformance.rs`.
//!
//! ```
//! use cgselect_engine::{Engine, EngineConfig, Query, Answer};
//!
//! let mut engine: Engine<u64> = Engine::new(EngineConfig::new(4)).unwrap();
//! engine.ingest((0..1000u64).rev().collect()).unwrap();
//!
//! let report = engine
//!     .execute(&[Query::Median, Query::Rank(10), Query::TopK(3)])
//!     .unwrap();
//! assert_eq!(report.answers[0], Answer::Value(499));
//! assert_eq!(report.answers[1], Answer::Value(10));
//! assert_eq!(report.answers[2], Answer::Top(vec![0, 1, 2]));
//! assert!(report.comm.collective_ops > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backend;
pub mod frontend;
mod index;
mod measure;
pub mod obs;
mod query;
mod request;
pub mod sketch;
mod standing;

pub use backend::{
    BackendChoice, BackendError, BackendKind, BatchPlan, ChannelMp, ChannelMpTuning, ExecBackend,
    Fault, LocalSpmd, PhaseOps, RecoveryReport, ShardBatchOutcome, ShardDeletion, SocketMp,
    SocketMpTuning,
};
pub use frontend::{
    AsyncError, FrontendConfig, FrontendStats, MutationTicket, OutcomeTicket, QueryTicket,
    StandingTicket, SubmissionQueue, SubmitError, Ticket,
};
pub use index::{BucketStats, Group};
pub use measure::{measure_rounds, ExecutionMode, RoundsMeasurement};
pub use obs::{
    BatchSpan, MetricsRegistry, MetricsSnapshot, Phase, PhaseSpan, PhaseSummary, RequestSpan,
    SloAccumulator, SloPolicy, SloReport, TraceContext, TraceId,
};
pub use query::{quantile_rank, Answer, Query, RankSet};
pub use request::{
    Accuracy, Bounds, CostAttribution, Freshness, Outcome, QueryKind, Request, Response, RunReport,
    Served,
};
pub use sketch::{EpsSketch, ReservoirSketch};
pub use standing::{RefreshPolicy, StandingHandle, StandingUpdate, SubscriptionId};

use std::sync::Arc;

use cgselect_balance::Balancer;
use cgselect_core::SelectionConfig;
use cgselect_runtime::{CommStats, Key, MachineModel, RunError};
use cgselect_seqsel::SepBound;

use index::{merge_stats, GlobalIndex};
use query::Resolution;

/// Configuration of a persistent engine.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Number of virtual processors (shards).
    pub nprocs: usize,
    /// Machine cost model for the virtual-time accounting.
    pub model: MachineModel,
    /// Tuning of the underlying selection algorithms (the multi-select
    /// pivot seed is re-derived per batch from `selection.seed`).
    pub selection: SelectionConfig,
    /// Strategy used when the imbalance watermark triggers a re-balance.
    pub balancer: Balancer,
    /// Re-balance when `max(shard)/mean(shard)` exceeds this (≥ 1.0).
    pub imbalance_watermark: f64,
    /// Compactor capacity of the deterministic ε-sketches (host-global and
    /// per-shard; 0 disables them, forcing every quantile to the exact
    /// path). Larger capacities tighten the provable rank-error bound —
    /// roughly `(n/k)·log₂(n/k)` — at proportional memory cost.
    pub sketch_capacity: usize,
    /// Target bucket count of the resident bucket index (0 disables the
    /// index: every exact batch scans the full resident data, as the
    /// pre-index engine did — the baseline the `engine` bench compares
    /// against). Adaptive refinement may grow the bucket count up to 4×
    /// this target; past that, the next batch coarsens the index in place
    /// by dropping splitters (no data moves, no collective), back to at
    /// most 2× this target.
    pub index_buckets: usize,
    /// Fraction of the resident population that may sit in the unindexed
    /// delta run before a merge folds it into the buckets (a floor of 64
    /// elements applies, so tiny engines don't merge per ingest).
    pub delta_threshold: f64,
    /// Which execution backend realizes the engine's collective rounds
    /// (see [`backend`]): the in-process [`LocalSpmd`] session (default)
    /// or the message-passing [`ChannelMp`] worker ring.
    pub backend: BackendChoice,
    /// Enables end-to-end observability (see [`obs`]): request-scoped
    /// spans in every [`RunReport`], and a [`MetricsRegistry`] fed per
    /// batch. Off by default; when off the engine takes one branch per
    /// batch and records nothing.
    pub observe: bool,
    /// When set (and the backend supports membership, i.e. [`SocketMp`]),
    /// a failed [`Engine::run`] triggers one [`Engine::recover`] —
    /// respawning dead shard workers, re-wiring the fabric — and retries
    /// the batch once, so a killed worker means degraded data, not a dead
    /// engine. Off by default: the poisoning contract (rebuild the engine)
    /// stays strict unless explicitly opted into.
    pub self_heal: bool,
    /// Intra-shard scan fan-out: large per-shard scans split into this
    /// many chunks executed on scoped threads with a deterministic
    /// chunk-order reduction, so answers and modeled ops are independent
    /// of the setting (pinned by a twin-run test). Default 1 = fully
    /// sequential (the pre-knob behavior). Honored by the in-process
    /// [`LocalSpmd`] backend only; message-passing shard workers stay
    /// single-threaded. Recorded in every [`RunReport::scan_threads`] so
    /// SLO lines from differently-tuned engines stay comparable.
    pub scan_threads: usize,
}

impl EngineConfig {
    /// Defaults for a `p`-shard engine: CM-5 cost model, global-exchange
    /// re-balancing at watermark 1.5, 2048-sample sketches, a 64-bucket
    /// resident index with a 5% delta threshold.
    pub fn new(nprocs: usize) -> Self {
        EngineConfig {
            nprocs,
            model: MachineModel::cm5(),
            selection: SelectionConfig::default(),
            balancer: Balancer::GlobalExchange,
            imbalance_watermark: 1.5,
            sketch_capacity: 2048,
            index_buckets: 64,
            delta_threshold: 0.05,
            backend: BackendChoice::LocalSpmd,
            observe: false,
            self_heal: false,
            scan_threads: 1,
        }
    }

    /// Builder-style cost model choice.
    pub fn model(mut self, model: MachineModel) -> Self {
        self.model = model;
        self
    }

    /// Builder-style balancer choice.
    pub fn balancer(mut self, balancer: Balancer) -> Self {
        self.balancer = balancer;
        self
    }

    /// Builder-style watermark choice.
    pub fn imbalance_watermark(mut self, ratio: f64) -> Self {
        self.imbalance_watermark = ratio;
        self
    }

    /// Builder-style sketch capacity choice.
    pub fn sketch_capacity(mut self, capacity: usize) -> Self {
        self.sketch_capacity = capacity;
        self
    }

    /// Builder-style bucket-index target (0 disables the index).
    pub fn index_buckets(mut self, buckets: usize) -> Self {
        self.index_buckets = buckets;
        self
    }

    /// Builder-style delta-run merge threshold (fraction of the resident
    /// population).
    pub fn delta_threshold(mut self, fraction: f64) -> Self {
        self.delta_threshold = fraction;
        self
    }

    /// Builder-style execution-backend choice.
    pub fn backend(mut self, backend: BackendChoice) -> Self {
        self.backend = backend;
        self
    }

    /// Shorthand: run on the message-passing [`ChannelMp`] backend with
    /// default tuning.
    pub fn channel_mp(self) -> Self {
        self.backend(BackendChoice::ChannelMp(ChannelMpTuning::default()))
    }

    /// Shorthand: run on the out-of-process [`SocketMp`] backend with
    /// default tuning (requires the `cgselect-shard-worker` binary on
    /// disk — built with the crate's bin targets — or the
    /// `CGSELECT_WORKER_BIN` environment variable naming it).
    pub fn socket_mp(self) -> Self {
        self.backend(BackendChoice::SocketMp(SocketMpTuning::default()))
    }

    /// Builder-style self-healing switch (see
    /// [`EngineConfig::self_heal`]).
    pub fn self_heal(mut self, enabled: bool) -> Self {
        self.self_heal = enabled;
        self
    }

    /// Builder-style observability switch (see [`obs`]).
    pub fn observe(mut self, enabled: bool) -> Self {
        self.observe = enabled;
        self
    }

    /// Builder-style intra-shard scan fan-out (see
    /// [`EngineConfig::scan_threads`]).
    pub fn scan_threads(mut self, threads: usize) -> Self {
        self.scan_threads = threads;
        self
    }

    fn validate(&self) {
        assert!(self.nprocs >= 1, "an engine needs at least one shard");
        assert!(self.scan_threads >= 1, "scan_threads must be >= 1 (1 = sequential scans)");
        assert!(
            self.imbalance_watermark >= 1.0,
            "imbalance watermark must be >= 1.0 (max/mean ratio), got {}",
            self.imbalance_watermark
        );
        assert!(
            self.delta_threshold.is_finite() && self.delta_threshold >= 0.0,
            "delta threshold must be a finite non-negative fraction, got {}",
            self.delta_threshold
        );
        self.selection.validate();
    }

    /// Refinement may grow the bucket count this far before the next batch
    /// coarsens the index back toward [`EngineConfig::index_buckets`].
    fn bucket_cap(&self) -> usize {
        (self.index_buckets * 4).max(self.index_buckets + 16)
    }
}

/// Errors surfaced to engine callers.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A query was submitted while no data is resident.
    Empty,
    /// `Query::Rank` beyond the resident population.
    RankOutOfRange {
        /// The requested 0-based rank.
        rank: u64,
        /// The resident population.
        n: u64,
    },
    /// `Query::Quantile` outside `[0, 1]`.
    InvalidQuantile(f64),
    /// A rank-error tolerance that is negative, NaN, or infinite.
    InvalidTolerance(f64),
    /// `Query::TopK` larger than the resident population.
    TopKTooLarge {
        /// The requested k.
        k: u64,
        /// The resident population.
        n: u64,
    },
    /// The underlying SPMD session failed (and is now poisoned).
    Runtime(RunError),
    /// The execution backend failed at the [`ExecBackend`] boundary —
    /// worker panic, lost reply, or a poisoned backend rejecting further
    /// work. Mirrors [`RunError::SessionPoisoned`] semantics: the engine
    /// must be rebuilt.
    Backend(BackendError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Empty => write!(f, "query on an empty engine"),
            EngineError::RankOutOfRange { rank, n } => {
                write!(f, "rank {rank} out of range for {n} resident elements")
            }
            EngineError::InvalidQuantile(q) => {
                write!(f, "quantile {q} outside [0, 1]")
            }
            EngineError::InvalidTolerance(t) => {
                write!(f, "invalid rank-error tolerance {t} (must be finite and >= 0)")
            }
            EngineError::TopKTooLarge { k, n } => {
                write!(f, "top-k of {k} exceeds the {n} resident elements")
            }
            EngineError::Runtime(e) => write!(f, "runtime failure: {e}"),
            EngineError::Backend(e) => write!(f, "backend failure: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<RunError> for EngineError {
    fn from(e: RunError) -> Self {
        EngineError::Runtime(e)
    }
}

impl From<BackendError> for EngineError {
    fn from(e: BackendError) -> Self {
        match e {
            // In-process runtime failures keep their pre-backend shape.
            BackendError::Runtime(e) => EngineError::Runtime(e),
            other => EngineError::Backend(other),
        }
    }
}

/// What one batch execution did and cost.
#[derive(Clone, Debug)]
pub struct BatchReport<T> {
    /// Per-query answers, aligned with the submitted batch.
    pub answers: Vec<Answer<T>>,
    /// Communication this batch moved, summed over all processors
    /// (`collective_ops` is summed too; divide by `nprocs` for the
    /// per-processor SPMD count).
    pub comm: CommStats,
    /// Collective operations the batch started, per processor (identical
    /// on every rank by SPMD discipline) — the "collective rounds" to
    /// compare batched against per-query execution.
    pub collective_ops: u64,
    /// Virtual-time makespan of the batch under the engine's cost model.
    pub makespan: f64,
    /// How many distinct ranks the coalesced multi-select pass resolved.
    pub exact_ranks: usize,
    /// How many queries were served from the sketches.
    pub sketch_answers: usize,
    /// How many of the distinct exact ranks were answered from the cached
    /// bucket histogram alone (zero element scans).
    pub histogram_answers: usize,
    /// Fraction of the resident population sitting in the unindexed delta
    /// run when this batch executed (0.0 when the index is disabled).
    pub delta_occupancy: f64,
}

/// What one ingest/delete did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MutationReport {
    /// Elements added (ingest) or removed (delete).
    pub elements: u64,
    /// Whether the imbalance watermark triggered a re-balance afterwards.
    pub rebalanced: bool,
}

/// Health snapshot of the resident bucket index (see
/// [`Engine::index_health`]).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IndexHealth {
    /// Current global bucket count (0 while no index is built).
    pub buckets: usize,
    /// Unindexed delta-run elements across all shards.
    pub delta_len: u64,
    /// `delta_len / resident population` (0.0 when empty).
    pub delta_occupancy: f64,
    /// Index (re)builds so far — the initial build counts as one; further
    /// rebuilds come only from operations that move or lose data:
    /// rebalances, worker join/retire and recovery. Refinement growing past
    /// the cap coarsens the index in place and is not a rebuild.
    pub rebuilds: u64,
    /// Amortized delta-run merges so far.
    pub delta_merges: u64,
    /// Exact ranks answered from the histogram alone, cumulatively.
    pub histogram_hits: u64,
}

/// A persistent sharded selection/quantile engine over element type `T`.
///
/// See the crate docs for the architecture; construction spawns the
/// configured [`ExecBackend`]'s `p` worker threads, which stay alive (and
/// keep the shards resident) until the engine is dropped — drop joins them.
pub struct Engine<T: Key> {
    backend: Box<dyn ExecBackend<T>>,
    cfg: EngineConfig,
    shard_sizes: Vec<u64>,
    total: u64,
    rebalances: u64,
    batches: u64,
    ingest_cursor: usize,
    /// Host-side cached global histogram of the shared buckets (`None`
    /// until the first exact batch, and again after any operation that
    /// moves or loses data).
    index: Option<GlobalIndex<T>>,
    index_rebuilds: u64,
    delta_merges: u64,
    histogram_hits: u64,
    /// Host-global deterministic ε-sketch over the resident multiset: fed
    /// incrementally at ingest, rebuilt by merging the shards' exports
    /// after any operation that removes elements (delete, recovery). Every
    /// sketch-rung answer is served from it with zero collectives.
    sketch: EpsSketch<T>,
    /// Live only when `cfg.observe` is set: the metrics registry every
    /// batch reports into, shared with the frontend's batcher thread.
    metrics: Option<Arc<MetricsRegistry>>,
    /// Registered standing queries (see [`Engine::subscribe`]); due
    /// subscriptions ride every [`Engine::run`] batch.
    standing: standing::StandingRegistry<T>,
    /// Mutation version: increments on every ingest/delete that changed
    /// the multiset, and on recovery (which loses data). Two outcomes with
    /// equal versions were computed against identical resident data.
    version: u64,
    /// Cumulative elements mutated (ingested + deleted) — the churn meter
    /// behind [`RefreshPolicy::OnDelta`].
    mutated: u64,
    standing_refreshes: u64,
    standing_zero_collective: u64,
}

/// An [`Engine`] is `Send` no matter the backend: the async frontend hands
/// it — resident shards, live worker threads and all — to its dedicated
/// batcher thread. This assertion makes the guarantee a compile-time
/// contract so a future backend cannot silently revoke it.
const _: () = {
    const fn assert_send<S: Send>() {}
    assert_send::<Engine<u64>>();
};

impl<T: Key> Engine<T> {
    /// Starts an engine: spawns the configured backend's workers and
    /// installs empty shards.
    pub fn new(cfg: EngineConfig) -> Result<Self, EngineError> {
        cfg.validate();
        let backend: Box<dyn ExecBackend<T>> = match &cfg.backend {
            BackendChoice::LocalSpmd => Box::new(LocalSpmd::<T>::start(&cfg)?),
            BackendChoice::ChannelMp(tuning) => {
                Box::new(ChannelMp::<T>::start(&cfg, tuning.clone()))
            }
            BackendChoice::SocketMp(tuning) => {
                Box::new(SocketMp::<T>::start(&cfg, tuning.clone())?)
            }
        };
        Ok(Engine {
            shard_sizes: vec![0; cfg.nprocs],
            total: 0,
            rebalances: 0,
            batches: 0,
            ingest_cursor: 0,
            index: None,
            index_rebuilds: 0,
            delta_merges: 0,
            histogram_hits: 0,
            metrics: cfg.observe.then(|| Arc::new(MetricsRegistry::new())),
            sketch: EpsSketch::new(cfg.sketch_capacity),
            standing: standing::StandingRegistry::default(),
            version: 0,
            mutated: 0,
            standing_refreshes: 0,
            standing_zero_collective: 0,
            backend,
            cfg,
        })
    }

    /// The engine's metrics registry — `Some` only when the engine was
    /// configured with [`EngineConfig::observe`]. Cloning the `Arc` lets
    /// frontends and exporters read snapshots while the engine runs.
    pub fn metrics(&self) -> Option<Arc<MetricsRegistry>> {
        self.metrics.clone()
    }

    /// Which execution backend this engine runs on.
    pub fn backend_kind(&self) -> BackendKind {
        self.backend.kind()
    }

    /// Number of shards (= virtual processors).
    pub fn nprocs(&self) -> usize {
        self.cfg.nprocs
    }

    /// Resident population.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// True if no data is resident.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Current per-shard element counts.
    pub fn shard_sizes(&self) -> &[u64] {
        &self.shard_sizes
    }

    /// How many watermark-triggered re-balances have run.
    pub fn rebalances(&self) -> u64 {
        self.rebalances
    }

    /// How many query batches have executed.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Health snapshot of the resident bucket index.
    pub fn index_health(&self) -> IndexHealth {
        let (buckets, delta_len) = match &self.index {
            Some(g) => (g.num_buckets(), g.delta_total),
            None => (0, 0),
        };
        IndexHealth {
            buckets,
            delta_len,
            delta_occupancy: if self.total == 0 {
                0.0
            } else {
                delta_len as f64 / self.total as f64
            },
            rebuilds: self.index_rebuilds,
            delta_merges: self.delta_merges,
            histogram_hits: self.histogram_hits,
        }
    }

    /// Current `max/mean` shard-size ratio (1.0 when empty or perfectly
    /// balanced).
    pub fn imbalance_ratio(&self) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        let max = *self.shard_sizes.iter().max().expect("nprocs >= 1") as f64;
        let mean = self.total as f64 / self.cfg.nprocs as f64;
        max / mean
    }

    /// Ingests `items`, spread round-robin across the shards (the cursor
    /// persists, so successive small ingests stay balanced). Sketches are
    /// maintained incrementally, the new elements join the index's delta
    /// run, and the watermark is checked afterwards.
    pub fn ingest(&mut self, items: Vec<T>) -> Result<MutationReport, EngineError> {
        let p = self.cfg.nprocs;
        let count = items.len();
        let mut chunks: Vec<Vec<T>> = (0..p).map(|_| Vec::new()).collect();
        for (i, x) in items.into_iter().enumerate() {
            chunks[(self.ingest_cursor + i) % p].push(x);
        }
        self.ingest_cursor = (self.ingest_cursor + count) % p;
        self.ingest_chunks(chunks)
    }

    /// Ingests `items` entirely into shard `rank` — the "hot receiver"
    /// pattern (data arriving on one node). This is what drives the
    /// imbalance watermark in practice.
    ///
    /// # Panics
    /// Panics if `rank >= nprocs()`.
    pub fn ingest_pinned(
        &mut self,
        rank: usize,
        items: Vec<T>,
    ) -> Result<MutationReport, EngineError> {
        assert!(rank < self.cfg.nprocs, "shard {rank} out of range");
        let mut chunks: Vec<Vec<T>> = (0..self.cfg.nprocs).map(|_| Vec::new()).collect();
        chunks[rank] = items;
        self.ingest_chunks(chunks)
    }

    fn ingest_chunks(&mut self, chunks: Vec<Vec<T>>) -> Result<MutationReport, EngineError> {
        let added: u64 = chunks.iter().map(|c| c.len() as u64).sum();
        // The host-global ε-sketch sees every element before the chunks
        // move to the shards, so sketch-rung batches never need a
        // collective to stay current.
        for chunk in &chunks {
            self.sketch.extend(chunk);
        }
        // The host's delta mirror sees the same elements: the index keeps
        // serving exactly through the pending delta without a collective.
        let delta_note: Vec<T> = if self.index.is_some() {
            chunks.iter().flatten().copied().collect()
        } else {
            Vec::new()
        };
        // Appends land past the indexed prefix, so they *are* the delta
        // run; no index restructuring happens here.
        let sizes = self.backend.ingest(chunks)?;
        self.set_sizes(sizes);
        if let Some(gidx) = &mut self.index {
            gidx.note_ingest(delta_note);
        }
        if added > 0 {
            self.version += 1;
            self.mutated += added;
        }
        let rebalanced = self.maybe_rebalance()?;
        if !rebalanced {
            self.maybe_merge_delta()?;
        }
        Ok(MutationReport { elements: added, rebalanced })
    }

    /// Deletes **all** resident occurrences of the given values, returning
    /// how many elements were removed. The bucket index and its histogram
    /// are maintained in place; shard sketches are rebuilt and the
    /// watermark is checked afterwards.
    ///
    /// A shard's cost scales with the buckets whose splitter range holds a
    /// deleted value, plus its delta run and its sketch rebuild: buckets
    /// holding none of the values are moved down whole, never searched.
    /// Each shard's reply is checked against the host index before it is
    /// applied; a malformed one fails with a typed
    /// [`RunError::WireProtocol`] backend error.
    pub fn delete(&mut self, values: &[T]) -> Result<MutationReport, EngineError> {
        if values.is_empty() || self.total == 0 {
            return Ok(MutationReport { elements: 0, rebalanced: false });
        }
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let results = self.backend.delete(sorted.clone())?;
        check_deletions(&self.shard_sizes, self.index.as_ref(), &results)?;
        let before = self.total;
        let (sizes, removed): (Vec<u64>, Vec<Vec<u64>>) =
            results.into_iter().map(|d| (d.remaining, d.removed)).unzip();
        self.set_sizes(sizes);
        if let Some(gidx) = &mut self.index {
            gidx.apply_removals(&removed);
            gidx.note_delete(&sorted);
        }
        let removed_total = before - self.total;
        if removed_total > 0 {
            self.version += 1;
            self.mutated += removed_total;
            self.refresh_sketch()?;
        }
        let rebalanced = self.maybe_rebalance()?;
        Ok(MutationReport { elements: removed_total, rebalanced })
    }

    /// Checks one v1 query's domain against the current resident
    /// population without executing it — the compatibility twin of
    /// [`Engine::validate_request`].
    pub fn validate_query(&self, query: &Query) -> Result<(), EngineError> {
        query::validate(query, self.total)
    }

    /// Checks one v2 request's domain against the current resident
    /// population without executing it — exactly the validation
    /// [`Engine::run`] applies to a whole batch, exposed per request so
    /// the async frontend can fail an invalid request's ticket without
    /// failing its batch.
    pub fn validate_request(&self, request: &Request<T>) -> Result<(), EngineError> {
        query::validate_request(request, self.total)
    }

    /// Hands this engine (and its persistent session) to a dedicated
    /// batcher thread and returns the async [`SubmissionQueue`] frontend.
    /// Shorthand for [`SubmissionQueue::start`].
    pub fn into_frontend(self, cfg: FrontendConfig) -> SubmissionQueue<T> {
        SubmissionQueue::start(self, cfg)
    }

    // --- Standing queries (see [`standing`](crate::StandingHandle)) ----

    /// Registers `request` as a **standing query**: it re-evaluates under
    /// `policy` whenever the resident data moves, streaming stamped
    /// [`StandingUpdate`]s to the returned [`StandingHandle`]. Refreshes
    /// ride ordinary [`Engine::run`] batches (or an explicit
    /// [`Engine::refresh_standing`]), sharing their collective rounds; a
    /// refresh whose candidate window did not move is re-served from the
    /// delta-rebased histogram or the ε-sketch at **zero collectives**.
    ///
    /// The request is *not* validated against the current population — a
    /// dashboard may subscribe before any data arrives; refreshes are
    /// simply skipped while the request is invalid (e.g. an empty engine),
    /// without burning sequence numbers.
    ///
    /// ```
    /// use cgselect_engine::{Engine, EngineConfig, RefreshPolicy, Request};
    ///
    /// let mut engine: Engine<u64> = Engine::new(EngineConfig::new(2)).unwrap();
    /// let handle = engine.subscribe(Request::quantile(0.99), RefreshPolicy::EveryBatch);
    /// engine.ingest((0..1000u64).collect()).unwrap();
    /// let delivered = engine.refresh_standing().unwrap();
    /// assert_eq!(delivered, 1);
    /// let update = handle.recv().unwrap();
    /// assert_eq!(update.seq, 0);
    /// assert_eq!(update.outcome.freshness.elements, 1000);
    /// ```
    pub fn subscribe(&mut self, request: Request<T>, policy: RefreshPolicy) -> StandingHandle<T> {
        if let RefreshPolicy::OnDelta(frac) = policy {
            assert!(
                frac.is_finite() && frac >= 0.0,
                "OnDelta fraction must be finite and >= 0, got {frac}"
            );
        }
        let handle = self.standing.subscribe(request, policy);
        if let Some(m) = &self.metrics {
            m.gauge_set("standing_active", self.standing.len() as f64);
        }
        handle
    }

    /// Removes the standing query `id`; its handle's stream ends. Returns
    /// `false` if the id was unknown (or already auto-unsubscribed by a
    /// dropped handle).
    pub fn unsubscribe(&mut self, id: SubscriptionId) -> bool {
        let removed = self.standing.unsubscribe(id);
        if let Some(m) = &self.metrics {
            m.gauge_set("standing_active", self.standing.len() as f64);
        }
        removed
    }

    /// Number of live standing queries.
    pub fn standing_active(&self) -> usize {
        self.standing.len()
    }

    /// Flushes due standing queries without a foreground batch (an empty
    /// [`Engine::run`]), returning how many updates were delivered. Cheap
    /// when nothing is due: returns immediately without planning a batch,
    /// so idle pollers (the frontend's batcher serving
    /// [`RefreshPolicy::Deadline`]) can call it every tick.
    pub fn refresh_standing(&mut self) -> Result<u64, EngineError> {
        let any_serviceable = self
            .standing
            .due_requests(self.version, self.mutated, self.total)
            .iter()
            .any(|(_, r)| query::validate_request(r, self.total).is_ok());
        if !any_serviceable {
            return Ok(0);
        }
        let before = self.standing_refreshes;
        self.run(&[])?;
        Ok(self.standing_refreshes - before)
    }

    /// Cumulative standing-query updates delivered.
    pub fn standing_refreshes(&self) -> u64 {
        self.standing_refreshes
    }

    /// How many of [`Engine::standing_refreshes`] were served without a
    /// single attributed collective op (rebased histogram / ε-sketch).
    pub fn standing_zero_collective(&self) -> u64 {
        self.standing_zero_collective
    }

    /// The engine's current mutation version (see [`Freshness::version`]).
    pub fn mutation_version(&self) -> u64 {
        self.version
    }

    /// Executes one batch of v1 [`Query`]s against the resident data —
    /// a thin compatibility shim over [`Engine::run`]: each query is
    /// lowered by [`Query::to_request`], the batch runs on the v2 path,
    /// and the typed [`Outcome`]s are folded back into v1 [`Answer`]s.
    /// Old callers compile and behave unchanged.
    pub fn execute(&mut self, queries: &[Query]) -> Result<BatchReport<T>, EngineError> {
        let requests: Vec<Request<T>> = queries.iter().map(Query::to_request).collect();
        let run = self.run(&requests)?;
        let answers =
            run.outcomes.into_iter().map(|o| query::answer_from_response(o.response)).collect();
        Ok(BatchReport {
            answers,
            comm: run.comm,
            collective_ops: run.collective_ops,
            makespan: run.makespan,
            exact_ranks: run.exact_ranks,
            sketch_answers: run.sketch_answers,
            histogram_answers: run.histogram_answers,
            delta_occupancy: run.delta_occupancy,
        })
    }

    /// The deterministic error guarantees the resident host-global
    /// ε-sketch can currently honor (`None` when sketches are disabled).
    /// The planner routes a `WithinRank(t)` request to the sketch rung iff
    /// `rank ≤ ⌈t·n⌉` — the served answer then carries `rank` as its
    /// *guaranteed* maximum rank error.
    fn sketch_guarantee(&self) -> Option<query::SketchErr> {
        (self.cfg.sketch_capacity > 0).then(|| query::SketchErr {
            rank: self.sketch.rank_error_bound(),
            count: self.sketch.count_error_bound(),
        })
    }

    /// Rebuilds the host-global ε-sketch by merging every shard's resident
    /// sketch ([`EpsSketch::merge`] is closed under the error bound), after
    /// an operation that removed elements from the multiset.
    fn refresh_sketch(&mut self) -> Result<(), EngineError> {
        let mut merged = EpsSketch::new(self.cfg.sketch_capacity);
        for shard in self.backend.export_sketches()? {
            merged.merge(&shard);
        }
        self.sketch = merged;
        Ok(())
    }

    /// Executes one batch of typed v2 [`Request`]s against the resident
    /// data (see [`request`](crate::Request) for the surface).
    ///
    /// Rank-direction requests are coalesced into one deduplicated
    /// [`RankSet`]; each rank localizes against the cached bucket
    /// histogram (answered outright when its candidate window is a single
    /// repeated-value bucket) and the remainder resolves in a single
    /// lockstep multi-select pass over candidate buckets borrowed in
    /// place. Value-direction requests ([`QueryKind::RankOf`],
    /// [`QueryKind::CountBetween`]) coalesce their endpoints into one
    /// probe list: probes the histogram's splitters bound are answered
    /// host-side with **zero data scans** (provenance
    /// [`Served::Histogram`]), and the rest cost **one vectorized Combine
    /// round for the whole probe batch**, no matter how many probes.
    /// Requests whose [`Accuracy`] contract the sketches can honor are
    /// served from the sketches without touching the full data. A batch
    /// fully resolved from the histogram skips the backend entirely (zero
    /// collectives). Outcomes are aligned with `requests`, each carrying
    /// its answer, provenance and attributed collective-op cost.
    ///
    /// ```
    /// use cgselect_engine::{Bounds, Engine, EngineConfig, Request, Served};
    ///
    /// let mut engine: Engine<u64> = Engine::new(EngineConfig::new(4)).unwrap();
    /// engine.ingest((0..1000u64).rev().collect()).unwrap();
    /// let report = engine
    ///     .run(&[
    ///         Request::median(),
    ///         Request::rank_of(250),
    ///         Request::count_between(Bounds::closed(100, 199)),
    ///     ])
    ///     .unwrap();
    /// assert_eq!(report.outcomes[0].response.element(), Some(499));
    /// assert_eq!(report.outcomes[1].response.count(), Some(250));
    /// assert_eq!(report.outcomes[2].response.count(), Some(100));
    /// assert!(report.outcomes[0].served <= Served::Scan);
    /// ```
    ///
    /// With [`EngineConfig::self_heal`] set on a membership-capable
    /// backend, a batch that fails at the execution boundary triggers one
    /// [`Engine::recover`] and retries once; request-validation errors
    /// never trigger recovery.
    pub fn run(&mut self, requests: &[Request<T>]) -> Result<RunReport<T>, EngineError> {
        match self.run_once(requests) {
            Err(e @ (EngineError::Backend(_) | EngineError::Runtime(_)))
                if self.cfg.self_heal && self.backend.supports_membership() =>
            {
                if self.recover().is_err() {
                    return Err(e);
                }
                self.run_once(requests)
            }
            other => other,
        }
    }

    /// One batch attempt (the whole pipeline documented on
    /// [`Engine::run`], without the self-healing retry).
    fn run_once(&mut self, requests: &[Request<T>]) -> Result<RunReport<T>, EngineError> {
        // -- Standing admission: subscriptions due under the current
        // mutation state append their requests to the caller's batch, so a
        // refresh shares the batch's probe Combine, multi-select pass and
        // splitter refinement instead of paying its own rounds. A
        // subscription whose request is invalid *right now* (e.g. a rank
        // beyond a shrunk population) is skipped, never failing the batch.
        let user_len = requests.len();
        let due: Vec<(SubscriptionId, Request<T>)> = self
            .standing
            .due_requests(self.version, self.mutated, self.total)
            .into_iter()
            .filter(|(_, r)| query::validate_request(r, self.total).is_ok())
            .collect();
        let combined: Vec<Request<T>>;
        let requests: &[Request<T>] = if due.is_empty() {
            requests
        } else {
            combined = requests.iter().cloned().chain(due.iter().map(|(_, r)| r.clone())).collect();
            &combined
        };
        let plan = query::plan_requests(requests, self.total, self.sketch_guarantee())?;
        // Fail fast on a poisoned backend even when the batch could be
        // served from the host-side histogram alone: the poisoning
        // contract (rebuild the engine) must not depend on which cache a
        // batch happens to hit.
        if self.backend.is_poisoned() {
            return Err(EngineError::Backend(BackendError::Poisoned));
        }
        let needs_hist_ranks =
            plan.resolutions.iter().any(|r| matches!(r, Resolution::HistRank { .. }));
        if self.cfg.index_buckets > 0
            && (!plan.exact_ranks.is_empty() || !plan.probes.is_empty() || needs_hist_ranks)
        {
            self.ensure_index()?;
        }
        let drops = self.coarsen_index();

        // Per-batch pivot seed: deterministic, but decorrelated across
        // batches so one unlucky stream cannot haunt every batch.
        let mut sel_cfg = self.cfg.selection.clone();
        sel_cfg.seed ^= (self.batches + 1).wrapping_mul(0xD1B5_4A32_D192_ED03);
        self.batches += 1;

        // Observability admission: every request keeps its stamped trace ID
        // or is assigned one here, and the batch context flows into the
        // plan (and, on the message-passing backend, across the wire).
        let wall_start = self.metrics.as_ref().map(|_| std::time::Instant::now());
        let trace_ctx = self.metrics.is_some().then(|| {
            let ids: Vec<TraceId> =
                requests.iter().map(|r| r.trace.unwrap_or_else(TraceId::next)).collect();
            let root = ids.first().copied().unwrap_or_else(TraceId::next);
            (TraceContext { batch: self.batches, root }, ids)
        });

        let n = self.total;
        let use_index = self.index.is_some();
        let exact_served = if use_index { Served::Index } else { Served::Scan };

        // -- Host-side value-probe routing against the cached histogram:
        // zero collectives. A probe whose bracket is exact never reaches
        // any backend; the rest are split per the owning request's
        // accuracy contract.
        let probe_brackets: Vec<(u64, u64)> = plan
            .probes
            .iter()
            .map(|&(v, inclusive)| match &self.index {
                Some(gidx) => gidx.count_bounds(v, inclusive),
                None => (0, n),
            })
            .collect();
        let probe_exact: Vec<Option<u64>> =
            probe_brackets.iter().map(|&(lo, hi)| (lo == hi).then_some(lo)).collect();

        let mut probe_backend = vec![false; plan.probes.len()];
        let mut probe_sketch = vec![false; plan.probes.len()];
        let mut count_routes: Vec<Option<CountRoute>> = vec![None; plan.resolutions.len()];
        for (i, res) in plan.resolutions.iter().enumerate() {
            let Resolution::Count(c) = res else { continue };
            let endpoints = [c.minuend, c.subtrahend];
            let route = if c.empty {
                CountRoute::Empty
            } else if endpoints.iter().flatten().all(|&p| probe_exact[p].is_some()) {
                CountRoute::Histogram
            } else if c.histogram_ok && use_index {
                CountRoute::HistogramApprox
            } else if c.sketch_error.is_some() {
                for p in endpoints.into_iter().flatten() {
                    probe_sketch[p] |= probe_exact[p].is_none();
                }
                CountRoute::Sketch
            } else {
                for p in endpoints.into_iter().flatten() {
                    probe_backend[p] |= probe_exact[p].is_none();
                }
                CountRoute::Backend
            };
            count_routes[i] = Some(route);
        }
        let (value_probes, probe_backend_pos) = sublist(&plan.probes, &probe_backend);
        let value_probes = Arc::new(value_probes);
        let (sketch_probes, probe_sketch_pos) = sublist(&plan.probes, &probe_sketch);

        // -- ε-sketch serving, entirely host-side: rank targets and probe
        // estimates come straight off the resident global sketch, so the
        // sketch rung costs zero collectives no matter the backend. The
        // planner already checked the guarantee against each contract.
        let sketch_values: Vec<T> =
            plan.sketch_targets.iter().map(|&r| self.sketch.query_rank(r)).collect();
        let sketch_ranks: Vec<u64> =
            sketch_probes.iter().map(|&(v, inclusive)| self.sketch.rank_of(v, inclusive)).collect();

        // -- Histogram-contract rank requests: serve from the cached
        // histogram when a single bucket bounds the target, fall back to
        // the exact rank set otherwise.
        let mut hist_rank_served: Vec<Option<(T, u64)>> = vec![None; plan.resolutions.len()];
        let mut fallback_ranks: Vec<u64> = Vec::new();
        for (i, res) in plan.resolutions.iter().enumerate() {
            let Resolution::HistRank { target_rank } = res else { continue };
            match self.index.as_ref().and_then(|g| g.approx_value(*target_rank)) {
                Some(answer) => hist_rank_served[i] = Some(answer),
                None => fallback_ranks.push(*target_rank),
            }
        }
        fallback_ranks.sort_unstable();
        fallback_ranks.dedup();
        let residual = Arc::new(plan.exact_ranks.union_points(&fallback_ranks));

        // -- Rank routing against the cached histogram: zero collectives.
        let (groups, fast): (Arc<Vec<Group>>, Vec<(usize, T)>) = match &self.index {
            Some(gidx) if !residual.is_empty() => {
                let routing = gidx.route(residual.iter());
                (Arc::new(routing.groups), routing.fast)
            }
            _ => (Arc::new(Vec::new()), Vec::new()),
        };
        let delta_total = self.index.as_ref().map_or(0, |g| g.delta_total);
        let delta_occupancy = self.index_health().delta_occupancy;

        // -- The backend-independent batch plan: the shards' half of the
        // work (the vectorized probe Combine, delta localization, borrowed
        // candidate windows, the lockstep multi-select, answer refinement)
        // runs wherever the configured [`ExecBackend`] keeps the shards. A
        // batch fully resolved host-side — histogram hits and the whole
        // sketch rung — skips the backend entirely: zero collectives, zero
        // scans.
        let backend_needed =
            !groups.is_empty() || !value_probes.is_empty() || (!use_index && !residual.is_empty());
        let batch_plan = BatchPlan {
            groups: groups.clone(),
            exact_ranks: residual.clone(),
            value_probes: value_probes.clone(),
            selection: sel_cfg,
            use_index,
            full_total: n,
            delta_total,
            trace: trace_ctx.as_ref().map(|(ctx, _)| *ctx),
            drops: Arc::new(drops),
        };
        // The shards coarsen in lockstep even when the host serves the
        // whole batch: they then get a plan that carries only the drops,
        // which runs no collective.
        let outcomes = if backend_needed || !batch_plan.drops.is_empty() {
            self.backend.execute(&batch_plan)?
        } else {
            Vec::new()
        };

        let mut comm = CommStats::default();
        let mut makespan = 0.0f64;
        for o in &outcomes {
            comm = comm.merged(&o.comm);
            makespan = makespan.max(o.elapsed);
        }

        // Check every reply against the plan before anything is read from
        // it, then fold the shards' refinement into the cached histogram:
        // the host replays their splitter splices in lockstep — group
        // refines first (descending), then the probe carves in plan order,
        // exactly the order `execute_shard` applied them — and checks each
        // refreshed summary against the bucket count it replays. A
        // malformed reply fails the batch with a typed error and drops the
        // cached index, which the shards may have refined already; the next
        // exact batch rebuilds it from the shards.
        let checked = check_outcomes(self.cfg.nprocs, &batch_plan, &fast, &outcomes).and_then(
            |()| match self.index.as_mut() {
                Some(gidx) if !outcomes.is_empty() => {
                    fold_refinement(gidx, &groups, &value_probes, &outcomes)
                }
                _ => Ok(()),
            },
        );
        if let Err(e) = checked {
            self.index = None;
            return Err(e);
        }

        // -- Assemble the per-request outcomes.
        let mut exact_slots: Vec<Option<T>> = match outcomes.first() {
            Some(rank0) => rank0.exact.clone(),
            None => vec![None; residual.len()],
        };
        let mut slot_fast = vec![false; residual.len()];
        for &(slot, v) in &fast {
            exact_slots[slot] = Some(v);
            slot_fast[slot] = true;
        }
        let exact_values: Vec<T> =
            exact_slots.into_iter().map(|v| v.expect("checked by check_outcomes")).collect();
        let assembled = assemble_outcomes(
            &plan,
            &AssemblyContext {
                n,
                residual: &residual,
                exact_values: &exact_values,
                slot_fast: &slot_fast,
                exact_served,
                probe_brackets: &probe_brackets,
                probe_exact: &probe_exact,
                probe_backend_pos: &probe_backend_pos,
                probe_sketch_pos: &probe_sketch_pos,
                count_routes: &count_routes,
                hist_rank_served: &hist_rank_served,
                sketch_values: &sketch_values,
                sketch_ranks: &sketch_ranks,
                rank0: outcomes.first(),
                freshness: Freshness { version: self.version, elements: n },
            },
        );
        let histogram_answers = fast.len()
            + assembled
                .outcomes
                .iter()
                .zip(&plan.resolutions)
                .filter(|(o, res)| {
                    o.served == Served::Histogram
                        && matches!(res, Resolution::HistRank { .. } | Resolution::Count(_))
                })
                .count();
        self.histogram_hits += histogram_answers as u64;

        let collective_ops = outcomes.first().map_or(0, |o| o.comm.collective_ops);

        // -- Span assembly + metrics: link each outcome back to the phases
        // it paid for, and feed the registry. All of it is behind the one
        // `observe` branch; a non-observing engine does none of this work.
        let span = trace_ctx.map(|(ctx, ids)| {
            let shard_spans: Vec<Vec<PhaseSpan>> =
                outcomes.iter().map(|o| o.spans.clone()).collect();
            let request_spans = ids
                .into_iter()
                .zip(requests)
                .zip(assembled.outcomes.iter().zip(&assembled.units))
                .map(|((trace, req), (outcome, units))| RequestSpan {
                    trace,
                    kind: req.kind.label(),
                    served: outcome.served,
                    phases: Phase::ALL
                        .into_iter()
                        .zip(units)
                        .filter(|&(_, u)| *u > 0)
                        .map(|(p, _)| p)
                        .collect(),
                    collective_ops: outcome.cost.collective_ops,
                })
                .collect();
            BatchSpan {
                batch: ctx.batch,
                root: ctx.root,
                requests: request_spans,
                phases: obs::summarize_phases(&shard_spans),
            }
        });
        if let Some(m) = &self.metrics {
            m.counter_add("requests_total", requests.len() as u64);
            m.counter_add("batches_total", 1);
            m.counter_add("collective_ops_total", collective_ops);
            for o in &assembled.outcomes {
                m.counter_add(
                    match o.served {
                        Served::Histogram => "served_histogram",
                        Served::Sketch => "served_sketch",
                        Served::Index => "served_index",
                        Served::Scan => "served_scan",
                    },
                    1,
                );
            }
            m.histogram_observe("batch_occupancy", requests.len() as u64);
            m.gauge_set("delta_occupancy", delta_occupancy);
            m.latency_observe("batch_virtual", (makespan * 1e9) as u64);
            if let Some(t0) = wall_start {
                m.latency_observe("batch_wall", t0.elapsed().as_nanos() as u64);
            }
        }

        // -- Standing delivery: the batch's tail outcomes belong to the due
        // subscriptions, in admission order. Each update carries the next
        // gap-free sequence number and this batch's freshness stamp; a
        // dropped handle auto-unsubscribes here. Refreshes whose outcome
        // cost zero attributed collective ops (histogram / sketch served)
        // are counted separately — the incremental-refresh win.
        let mut outcomes = assembled.outcomes;
        let standing_outcomes = outcomes.split_off(user_len);
        let mut delivered = 0u64;
        let mut zero_collective = 0u64;
        for ((id, _), outcome) in due.iter().zip(standing_outcomes) {
            let zero = outcome.cost.collective_ops == 0.0;
            if self.standing.deliver(*id, outcome, self.version, self.mutated) {
                delivered += 1;
                zero_collective += u64::from(zero);
            }
        }
        self.standing_refreshes += delivered;
        self.standing_zero_collective += zero_collective;
        if let Some(m) = &self.metrics {
            m.gauge_set("standing_active", self.standing.len() as f64);
            if delivered > 0 {
                m.counter_add("standing_refresh", delivered);
                m.counter_add("standing_zero_collective", zero_collective);
                if let Some(t0) = wall_start {
                    m.latency_observe("refresh_wall", t0.elapsed().as_nanos() as u64);
                }
            }
        }

        Ok(RunReport {
            outcomes,
            comm,
            collective_ops,
            makespan,
            exact_ranks: residual.len(),
            sketch_answers: assembled.sketch_answers,
            histogram_answers,
            value_probes: probe_backend_pos.iter().flatten().count(),
            delta_occupancy,
            scan_threads: self.cfg.scan_threads,
            span,
        })
    }

    /// Builds the resident bucket index when it is missing (first exact
    /// batch, or after data moved or was lost): the shards pool their sample
    /// sketches through one collective, derive the identical splitter
    /// vector, partition their data (delta run included) and report
    /// per-bucket summaries, which the host checks for agreement and caches
    /// as the global histogram.
    fn ensure_index(&mut self) -> Result<(), EngineError> {
        if self.index.is_some() {
            return Ok(());
        }
        debug_assert!(self.total > 0, "index builds only over resident data");
        let built = self.backend.build_index(self.cfg.index_buckets)?;
        let (bounds, stats) = check_splitters(built)?;
        self.index = Some(GlobalIndex::from_shard_stats(bounds, &stats));
        self.index_rebuilds += 1;
        Ok(())
    }

    /// Coarsens the index in place once refinement has grown it past
    /// [`EngineConfig::bucket_cap`]: the host drops splitters (see
    /// [`GlobalIndex::coarsening_drops`]) and returns them for the batch
    /// plan, so every shard drops the same ones. No data moves and no
    /// collective runs.
    fn coarsen_index(&mut self) -> Vec<usize> {
        match &mut self.index {
            Some(gidx) if gidx.num_buckets() > self.cfg.bucket_cap() => {
                let drops = gidx.coarsening_drops(self.cfg.index_buckets);
                gidx.drop_splitters(&drops);
                drops
            }
            _ => Vec::new(),
        }
    }

    /// Folds the delta run into the buckets once it outgrows the threshold.
    fn maybe_merge_delta(&mut self) -> Result<bool, EngineError> {
        let Some(gidx) = &self.index else {
            return Ok(false);
        };
        let threshold = (self.cfg.delta_threshold * self.total as f64).max(64.0);
        if (gidx.delta_total as f64) <= threshold {
            return Ok(false);
        }
        let stats = self.backend.merge_delta()?;
        if let Some(gidx) = &mut self.index {
            gidx.absorb_delta(&stats);
        }
        self.delta_merges += 1;
        Ok(true)
    }

    fn set_sizes(&mut self, sizes: Vec<u64>) {
        self.total = sizes.iter().sum();
        self.shard_sizes = sizes;
    }

    // --- Dynamic membership (SocketMp only; see [`ExecBackend`]) -------

    /// True when the engine's backend supports the membership verbs below
    /// (worker processes joining/leaving at runtime, shard migration,
    /// crash recovery).
    pub fn supports_membership(&self) -> bool {
        self.backend.supports_membership()
    }

    /// OS process ids of the shard workers, indexed by rank (empty on
    /// in-process backends).
    pub fn worker_pids(&self) -> Vec<u32> {
        self.backend.worker_pids()
    }

    /// Migrates shard `rank` onto a freshly spawned worker process; the
    /// shard's state moves exactly (data, bucket runs, mid-stream sketch),
    /// so the cached histogram stays warm through the move and subsequent
    /// batches are bit-identical to an engine that never migrated.
    pub fn migrate_shard(&mut self, rank: usize) -> Result<(), EngineError> {
        let sizes = self.backend.replace_worker(rank)?;
        self.set_sizes(sizes);
        // Membership moved: standing queries must fully re-resolve rather
        // than trust any cached candidate window.
        self.standing.invalidate_all();
        if let Some(m) = &self.metrics {
            m.counter_add("migrations_total", 1);
        }
        Ok(())
    }

    /// Adds one empty shard worker at the top rank and returns the new
    /// shard count. New ingests spread over the grown ring; the bucket
    /// index is rebuilt lazily on the next exact batch.
    pub fn join_worker(&mut self) -> Result<usize, EngineError> {
        let sizes = self.backend.join_worker()?;
        self.cfg.nprocs = sizes.len();
        self.set_sizes(sizes);
        self.index = None;
        self.standing.invalidate_all();
        self.ingest_cursor %= self.cfg.nprocs;
        Ok(self.cfg.nprocs)
    }

    /// Retires the worker at `rank`, merging its shard into a survivor
    /// (no data is lost), and returns the new shard count. Refuses to
    /// retire the last shard.
    pub fn retire_worker(&mut self, rank: usize) -> Result<usize, EngineError> {
        let sizes = self.backend.retire_worker(rank)?;
        self.cfg.nprocs = sizes.len();
        self.set_sizes(sizes);
        self.index = None;
        self.standing.invalidate_all();
        self.ingest_cursor %= self.cfg.nprocs;
        Ok(self.cfg.nprocs)
    }

    /// "Detect, re-shard, keep serving": asks the backend to ping its
    /// workers, respawn the dead ones empty, re-wire the collective fabric
    /// and clear the poisoned state (see [`ExecBackend::recover`]). The
    /// dead shards' data is lost; the surviving multiset remains exact and
    /// the engine serves again. Called automatically by [`Engine::run`]
    /// under [`EngineConfig::self_heal`].
    pub fn recover(&mut self) -> Result<RecoveryReport, EngineError> {
        let report = self.backend.recover()?;
        self.set_sizes(report.sizes.clone());
        self.index = None;
        // Recovery changes the multiset (dead shards' data is gone), so it
        // is a mutation: the version moves and every subscription refreshes.
        self.version += 1;
        self.standing.invalidate_all();
        // The dead shards' elements left the multiset, so the host-global
        // ε-sketch is re-derived from the survivors' exports. Membership
        // moves (migrate/join/retire) never touch it: they permute the
        // multiset without changing it.
        self.refresh_sketch()?;
        if let Some(m) = &self.metrics {
            m.counter_add("recoveries_total", 1);
        }
        Ok(report)
    }

    /// Runs the configured balancer if the watermark is exceeded. A
    /// re-balance moves elements between shards arbitrarily, so it drops
    /// the bucket index; the splitters are rebuilt lazily on the next exact
    /// batch.
    fn maybe_rebalance(&mut self) -> Result<bool, EngineError> {
        if self.cfg.nprocs == 1 || self.total < self.cfg.nprocs as u64 {
            return Ok(false);
        }
        if self.imbalance_ratio() <= self.cfg.imbalance_watermark {
            return Ok(false);
        }
        let sizes = self.backend.rebalance()?;
        self.set_sizes(sizes);
        self.index = None;
        self.rebalances += 1;
        Ok(true)
    }
}

/// How one value-direction request is served, decided host-side during
/// probe routing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CountRoute {
    /// Empty interval: exactly 0, no work at all.
    Empty,
    /// Every endpoint probe resolved exactly from the cached histogram.
    Histogram,
    /// Bucket-resolution brackets accepted by the contract.
    HistogramApprox,
    /// Estimated from the sketches under a `WithinRank` contract.
    Sketch,
    /// Exact resolution through the backend's probe Combine round.
    Backend,
}

/// The typed error every check of a shard reply fails with.
fn wire_violation<R>(rank: usize, detail: String) -> Result<R, EngineError> {
    Err(EngineError::Backend(BackendError::Runtime(RunError::WireProtocol { rank, detail })))
}

/// Checks the shards' deletion replies against the host's view before any
/// of them is applied, so a malformed reply (say, from an out-of-process
/// worker) fails with a typed error instead of panicking or underflowing a
/// count. There must be one reply per shard, and no shard may grow. With an
/// index, each reply holds one count per bucket plus the delta run's, the
/// counts add up to the shard's shrinkage, and no bucket or delta count,
/// summed over the shards, exceeds the cached one.
fn check_deletions<T: Key>(
    shard_sizes: &[u64],
    index: Option<&GlobalIndex<T>>,
    replies: &[ShardDeletion],
) -> Result<(), EngineError> {
    if replies.len() != shard_sizes.len() {
        let rank = replies.len().min(shard_sizes.len());
        let detail = format!("{} delete replies for {} shards", replies.len(), shard_sizes.len());
        return wire_violation(rank, detail);
    }
    let mut left = index.map(|g| (g.counts.clone(), g.delta_total));
    for (rank, (reply, &size)) in replies.iter().zip(shard_sizes).enumerate() {
        let Some(gone) = size.checked_sub(reply.remaining) else {
            return wire_violation(rank, format!("{} elements remain of {size}", reply.remaining));
        };
        let Some((counts, delta)) = left.as_mut() else { continue };
        if reply.removed.len() != counts.len() + 1 {
            let detail =
                format!("{} removal counts for {} buckets", reply.removed.len(), counts.len());
            return wire_violation(rank, detail);
        }
        if reply.removed.iter().sum::<u64>() != gone {
            return wire_violation(rank, format!("removal counts do not sum to {gone}"));
        }
        for (b, (have, &c)) in
            counts.iter_mut().chain(std::iter::once(delta)).zip(&reply.removed).enumerate()
        {
            let Some(rest) = have.checked_sub(c) else {
                return wire_violation(rank, format!("{c} removals from slot {b} holding {have}"));
            };
            *have = rest;
        }
    }
    Ok(())
}

/// Checks that every shard derived the same splitters in an index build and
/// that each summary has one entry per bucket, then splits the replies into
/// the shared splitter vector and the per-shard summaries. A shard that
/// disagrees would partition its data into different value ranges than the
/// host routes against, so this holds in release builds too.
#[allow(clippy::type_complexity)]
fn check_splitters<T: Key>(
    built: Vec<(Vec<SepBound<T>>, BucketStats<T>)>,
) -> Result<(Vec<SepBound<T>>, Vec<BucketStats<T>>), EngineError> {
    let mut bounds = None;
    let mut stats = Vec::with_capacity(built.len());
    for (rank, (b, s)) in built.into_iter().enumerate() {
        let agreed = bounds.get_or_insert(b.clone());
        if *agreed != b {
            return wire_violation(rank, "splitters disagree with shard 0's".into());
        }
        if s.len() != b.len() + 1 {
            let detail = format!("{} bucket summaries for {} splitters", s.len(), b.len());
            return wire_violation(rank, detail);
        }
        stats.push(s);
    }
    Ok((bounds.unwrap_or_default(), stats))
}

/// Checks the shards' batch replies against the plan before any of them is
/// read, so a malformed reply fails with a typed error instead of a panic —
/// the twin of [`check_deletions`]. There must be one reply per shard; each
/// must carry one slot per exact rank, one count per value probe, one
/// refreshed summary per group and as many phase spans as rank 0's; and
/// rank 0's slots must resolve every rank the histogram did not (`fast`).
/// The summaries' lengths are checked by [`fold_refinement`], which replays
/// the bucket counts they must have.
fn check_outcomes<T: Key>(
    nprocs: usize,
    plan: &BatchPlan<T>,
    fast: &[(usize, T)],
    replies: &[ShardBatchOutcome<T>],
) -> Result<(), EngineError> {
    let Some(rank0) = replies.first() else { return Ok(()) };
    if replies.len() != nprocs {
        let detail = format!("{} execute replies for {nprocs} shards", replies.len());
        return wire_violation(replies.len().min(nprocs), detail);
    }
    let (n_exact, n_probes, n_groups) =
        (plan.exact_ranks.len(), plan.value_probes.len(), plan.groups.len());
    for (rank, o) in replies.iter().enumerate() {
        if o.exact.len() != n_exact
            || o.probe_counts.len() != n_probes
            || o.refines.len() != n_groups
            || o.spans.len() != rank0.spans.len()
        {
            let detail = format!(
                "{} rank slots, {} probe counts, {} window summaries and {} spans \
                 for {n_exact} ranks, {n_probes} probes, {n_groups} windows and {} spans",
                o.exact.len(),
                o.probe_counts.len(),
                o.refines.len(),
                o.spans.len(),
                rank0.spans.len()
            );
            return wire_violation(rank, detail);
        }
    }
    let mut resolved: Vec<bool> = rank0.exact.iter().map(Option::is_some).collect();
    for &(slot, _) in fast {
        resolved[slot] = true;
    }
    match resolved.iter().position(|&r| !r) {
        Some(slot) => wire_violation(0, format!("rank slot {slot} left unresolved")),
        None => Ok(()),
    }
}

/// Replays one executed batch's splitter refinement on the host index and
/// splices in the shards' refreshed summaries, merged over shards. Each
/// summary must have exactly as many buckets as the replayed region, and
/// every shard must have carved exactly the probes the host carves; a
/// mismatch is a typed error (the caller then drops the half-refined index).
fn fold_refinement<T: Key>(
    gidx: &mut GlobalIndex<T>,
    groups: &[Group],
    probes: &[(T, bool)],
    replies: &[ShardBatchOutcome<T>],
) -> Result<(), EngineError> {
    let rank0 = &replies[0];
    for (g, group) in groups.iter().enumerate().rev() {
        let answers: Vec<T> = group.out.iter().filter_map(|&slot| rank0.exact[slot]).collect();
        let before = gidx.bounds.len();
        gidx.refine_window_bounds(group.lo, group.hi, &answers);
        let buckets = gidx.bounds.len() - before + group.hi - group.lo + 1;
        let merged = merged_stats(replies, buckets, |o| o.refines.get(g))?;
        gidx.splice_window(group.lo, group.hi, &merged);
    }
    // Probe-driven refinement: a resolved probe carves its `(v,<)(v,≤)`
    // equality-class pair host-side iff the shards carved it (the skip test
    // depends only on the shared bounds, so both sides agree without any
    // extra communication).
    let mut carved = 0usize;
    for &(v, _) in probes {
        let before = gidx.bounds.len();
        if let Some(b) = gidx.refine_probe_bounds(v) {
            let buckets = gidx.bounds.len() - before + 1;
            let merged = merged_stats(replies, buckets, |o| o.probe_refines.get(carved))?;
            gidx.splice_window(b, b, &merged);
            carved += 1;
        }
    }
    if let Some(rank) = replies.iter().position(|o| o.probe_refines.len() != carved) {
        let detail =
            format!("{} probe carves, expected {carved}", replies[rank].probe_refines.len());
        return wire_violation(rank, detail);
    }
    gidx.rebuild_prefix();
    gidx.reclassify_delta();
    Ok(())
}

/// One refreshed region's summary merged over every shard's reply, each of
/// which must be present with exactly `buckets` entries.
fn merged_stats<'a, T: Key>(
    replies: &'a [ShardBatchOutcome<T>],
    buckets: usize,
    pick: impl Fn(&'a ShardBatchOutcome<T>) -> Option<&'a BucketStats<T>>,
) -> Result<BucketStats<T>, EngineError> {
    let mut merged: BucketStats<T> = vec![(0, None); buckets];
    for (rank, o) in replies.iter().enumerate() {
        match pick(o) {
            Some(stats) if stats.len() == buckets => merge_stats(&mut merged, stats),
            other => {
                let got = other.map_or("no".into(), |s| s.len().to_string());
                return wire_violation(rank, format!("{got} refined buckets, expected {buckets}"));
            }
        }
    }
    Ok(merged)
}

/// Extracts the selected probes as a dense sub-list plus, per original
/// probe, its position in that sub-list.
fn sublist<T: Copy>(
    probes: &[(T, bool)],
    selected: &[bool],
) -> (Vec<(T, bool)>, Vec<Option<usize>>) {
    let mut list = Vec::new();
    let mut pos = vec![None; probes.len()];
    for (i, (&p, &sel)) in probes.iter().zip(selected).enumerate() {
        if sel {
            pos[i] = Some(list.len());
            list.push(p);
        }
    }
    (list, pos)
}

/// Everything [`assemble_outcomes`] needs to turn resolutions into typed
/// outcomes: the resolved rank slots, the host-side probe routing, and the
/// backend's (rank-0) shard outcome when one ran.
struct AssemblyContext<'a, T: Key> {
    n: u64,
    residual: &'a RankSet,
    exact_values: &'a [T],
    slot_fast: &'a [bool],
    exact_served: Served,
    probe_brackets: &'a [(u64, u64)],
    probe_exact: &'a [Option<u64>],
    probe_backend_pos: &'a [Option<usize>],
    probe_sketch_pos: &'a [Option<usize>],
    count_routes: &'a [Option<CountRoute>],
    hist_rank_served: &'a [Option<(T, u64)>],
    /// Host-computed ε-sketch answers, aligned with the plan's sketch
    /// targets / the sketch-probe sub-list. No backend involvement.
    sketch_values: &'a [T],
    sketch_ranks: &'a [u64],
    rank0: Option<&'a ShardBatchOutcome<T>>,
    /// The mutation state every outcome of this batch reflects.
    freshness: Freshness,
}

struct Assembled<T> {
    outcomes: Vec<Outcome<T>>,
    sketch_answers: usize,
    /// Per-request phase slot counts (`[probes, exact, sketch]`), aligned
    /// with `outcomes` — the span builder reads a request's phase
    /// participation off these.
    units: Vec<[u64; 3]>,
}

/// One response before cost attribution: `units` counts this request's
/// slots per execution phase (`[probes, exact, sketch]`).
struct Draft<T> {
    response: Response<T>,
    served: Served,
    units: [u64; 3],
}

/// Turns the plan's resolutions into typed [`Outcome`]s and attributes
/// each measured phase's collective ops proportionally over the requests
/// that used the phase (so the per-query costs sum to the batch total).
fn assemble_outcomes<T: Key>(
    plan: &query::RequestPlan<T>,
    cx: &AssemblyContext<'_, T>,
) -> Assembled<T> {
    let value_at = |r: u64| -> (T, bool) {
        let slot = cx.residual.slot_of(r);
        (cx.exact_values[slot], cx.slot_fast[slot])
    };
    let rank_served = |fast: bool| if fast { Served::Histogram } else { cx.exact_served };
    // One draft for any multi-rank kind (`TopK` runs, `Quantiles` lists):
    // gather the values, count the slots the multi-select actually paid
    // for, and label provenance by whether any slot left the histogram.
    let multi_rank_draft = |ranks: &mut dyn Iterator<Item = u64>| -> Draft<T> {
        let mut values = Vec::new();
        let mut slow = 0u64;
        for r in ranks {
            let (v, fast) = value_at(r);
            slow += u64::from(!fast);
            values.push(v);
        }
        Draft {
            response: Response::Elements(values),
            served: if slow == 0 { Served::Histogram } else { cx.exact_served },
            units: [0, slow, 0],
        }
    };

    let mut next_sketch = 0usize;
    let mut sketch_answers = 0usize;
    let mut drafts: Vec<Draft<T>> = Vec::with_capacity(plan.resolutions.len());
    for (i, res) in plan.resolutions.iter().enumerate() {
        let draft = match res {
            Resolution::Exact(r) => {
                let (v, fast) = value_at(*r);
                Draft {
                    response: Response::Element(v),
                    served: rank_served(fast),
                    units: [0, u64::from(!fast), 0],
                }
            }
            Resolution::ExactRun { len } => multi_rank_draft(&mut (0..*len)),
            Resolution::MultiExact(ranks) => multi_rank_draft(&mut ranks.iter().copied()),
            Resolution::Sketch { target_rank, max_rank_error } => {
                let value = cx.sketch_values[next_sketch];
                next_sketch += 1;
                sketch_answers += 1;
                Draft {
                    response: Response::Approximate {
                        value,
                        target_rank: *target_rank,
                        max_rank_error: *max_rank_error,
                    },
                    served: Served::Sketch,
                    units: [0, 0, 1],
                }
            }
            Resolution::HistRank { target_rank } => match cx.hist_rank_served[i] {
                Some((v, 0)) => Draft {
                    response: Response::Element(v),
                    served: Served::Histogram,
                    units: [0, 0, 0],
                },
                Some((v, err)) => Draft {
                    response: Response::Approximate {
                        value: v,
                        target_rank: *target_rank,
                        max_rank_error: err,
                    },
                    served: Served::Histogram,
                    units: [0, 0, 0],
                },
                None => {
                    let (v, fast) = value_at(*target_rank);
                    Draft {
                        response: Response::Element(v),
                        served: rank_served(fast),
                        units: [0, u64::from(!fast), 0],
                    }
                }
            },
            Resolution::Count(c) => {
                let route = cx.count_routes[i].expect("count resolution routed");
                assemble_count(c, route, cx, &mut sketch_answers)
            }
        };
        drafts.push(draft);
    }

    let phase = cx.rank0.map(|o| o.phase_ops).unwrap_or_default();
    let phase_ops = [phase.probes, phase.exact, phase.sketch];
    let mut totals = [0u64; 3];
    for d in &drafts {
        for (t, u) in totals.iter_mut().zip(d.units) {
            *t += u;
        }
    }
    let units: Vec<[u64; 3]> = drafts.iter().map(|d| d.units).collect();
    let outcomes = drafts
        .into_iter()
        .map(|d| {
            let mut collective_ops = 0.0f64;
            for k in 0..3 {
                if d.units[k] > 0 && totals[k] > 0 {
                    collective_ops += phase_ops[k] as f64 * d.units[k] as f64 / totals[k] as f64;
                }
            }
            Outcome {
                response: d.response,
                served: d.served,
                cost: CostAttribution { collective_ops },
                freshness: cx.freshness,
            }
        })
        .collect();
    Assembled { outcomes, sketch_answers, units }
}

/// Assembles one value-direction count along its decided route.
fn assemble_count<T: Key>(
    c: &query::CountResolution,
    route: CountRoute,
    cx: &AssemblyContext<'_, T>,
    sketch_answers: &mut usize,
) -> Draft<T> {
    match route {
        CountRoute::Empty => Draft {
            response: Response::Count { count: 0, max_error: 0 },
            served: Served::Histogram,
            units: [0, 0, 0],
        },
        CountRoute::Histogram => {
            let m = c.minuend.map_or(cx.n, |p| cx.probe_exact[p].expect("histogram-exact probe"));
            let s = c.subtrahend.map_or(0, |p| cx.probe_exact[p].expect("histogram-exact probe"));
            Draft {
                response: Response::Count { count: m.saturating_sub(s), max_error: 0 },
                served: Served::Histogram,
                units: [0, 0, 0],
            }
        }
        CountRoute::HistogramApprox => {
            let (m_lo, m_hi) = c.minuend.map_or((cx.n, cx.n), |p| cx.probe_brackets[p]);
            let (s_lo, s_hi) = c.subtrahend.map_or((0, 0), |p| cx.probe_brackets[p]);
            let lo = m_lo.saturating_sub(s_hi);
            let hi = m_hi.saturating_sub(s_lo);
            let count = lo + (hi - lo) / 2;
            Draft {
                response: Response::Count { count, max_error: hi - count },
                served: Served::Histogram,
                units: [0, 0, 0],
            }
        }
        CountRoute::Sketch => {
            let resolve = |p: usize| {
                cx.probe_exact[p].unwrap_or_else(|| {
                    cx.sketch_ranks[cx.probe_sketch_pos[p].expect("sketch probe listed")]
                })
            };
            let m = c.minuend.map_or(cx.n, resolve);
            let s = c.subtrahend.map_or(0, resolve);
            let estimated = [c.minuend, c.subtrahend]
                .into_iter()
                .flatten()
                .filter(|&p| cx.probe_exact[p].is_none())
                .count() as u64;
            *sketch_answers += 1;
            Draft {
                response: Response::Count {
                    count: m.saturating_sub(s),
                    max_error: c.sketch_error.expect("sketch route requires a contract"),
                },
                served: Served::Sketch,
                units: [0, 0, estimated],
            }
        }
        CountRoute::Backend => {
            let resolve = |p: usize| {
                cx.probe_exact[p].unwrap_or_else(|| {
                    cx.rank0.expect("probe batch executed").probe_counts
                        [cx.probe_backend_pos[p].expect("backend probe listed")]
                })
            };
            let m = c.minuend.map_or(cx.n, resolve);
            let s = c.subtrahend.map_or(0, resolve);
            let probed = [c.minuend, c.subtrahend]
                .into_iter()
                .flatten()
                .filter(|&p| cx.probe_exact[p].is_none())
                .count() as u64;
            Draft {
                response: Response::Count { count: m.saturating_sub(s), max_error: 0 },
                served: cx.exact_served,
                units: [probed, 0, 0],
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgselect_seqsel::SepBound;

    fn free_cfg(p: usize) -> EngineConfig {
        EngineConfig::new(p).model(MachineModel::free())
    }

    fn oracle_sorted(data: &[u64]) -> Vec<u64> {
        let mut v = data.to_vec();
        v.sort_unstable();
        v
    }

    #[test]
    fn exact_queries_match_oracle_across_batches() {
        let mut engine: Engine<u64> = Engine::new(free_cfg(4)).unwrap();
        let data: Vec<u64> = (0..5000u64).map(|i| i.wrapping_mul(0x9E3779B9) % 100_000).collect();
        engine.ingest(data.clone()).unwrap();
        let sorted = oracle_sorted(&data);
        let n = sorted.len() as u64;

        // Several batches against the same session: state persistence.
        for batch in 0..3u64 {
            let queries = vec![
                Query::Rank(batch * 100),
                Query::Median,
                Query::quantile(0.25),
                Query::quantile(0.99),
                Query::TopK(5),
            ];
            let report = engine.execute(&queries).unwrap();
            assert_eq!(report.answers[0], Answer::Value(sorted[(batch * 100) as usize]));
            assert_eq!(report.answers[1], Answer::Value(sorted[((n - 1) / 2) as usize]));
            assert_eq!(report.answers[2], Answer::Value(sorted[quantile_rank(0.25, n) as usize]));
            assert_eq!(report.answers[3], Answer::Value(sorted[quantile_rank(0.99, n) as usize]));
            assert_eq!(report.answers[4], Answer::Top(sorted[..5].to_vec()));
            assert!(report.collective_ops > 0);
            assert!(report.comm.msgs_sent > 0);
        }
        assert_eq!(engine.batches(), 3);
        // The repeated ranks (median, quantiles, top-k) were refined into
        // equality-class buckets by batch 0, so later batches answered them
        // from the histogram alone.
        assert!(engine.index_health().histogram_hits > 0);
    }

    #[test]
    fn repeated_quantiles_become_histogram_only() {
        let mut engine: Engine<u64> = Engine::new(free_cfg(4)).unwrap();
        engine.ingest((0..20_000u64).rev().collect()).unwrap();
        let queries =
            vec![Query::quantile(0.25), Query::Median, Query::quantile(0.9), Query::Rank(17)];
        let warm = engine.execute(&queries).unwrap();
        assert_eq!(warm.histogram_answers, 0);
        let hot = engine.execute(&queries).unwrap();
        // Every distinct rank of the repeated batch is a histogram answer …
        assert_eq!(hot.histogram_answers, hot.exact_ranks);
        // … so the batch paid only the synchronization barrier.
        assert!(
            hot.collective_ops < warm.collective_ops / 2,
            "hot {} vs warm {} collective ops",
            hot.collective_ops,
            warm.collective_ops
        );
        assert_eq!(hot.answers, warm.answers);
    }

    #[test]
    fn ingest_round_robin_stays_balanced() {
        let mut engine: Engine<u64> = Engine::new(free_cfg(4)).unwrap();
        for _ in 0..10 {
            engine.ingest((0..25u64).collect()).unwrap();
        }
        assert_eq!(engine.len(), 250);
        let (mn, mx) = (
            *engine.shard_sizes().iter().min().unwrap(),
            *engine.shard_sizes().iter().max().unwrap(),
        );
        assert!(mx - mn <= 1, "round-robin drifted: {:?}", engine.shard_sizes());
        assert_eq!(engine.rebalances(), 0);
    }

    #[test]
    fn pinned_ingest_trips_the_watermark_exactly_once() {
        let mut engine: Engine<u64> = Engine::new(free_cfg(4).imbalance_watermark(1.5)).unwrap();
        engine.ingest((0..4000u64).collect()).unwrap();
        assert_eq!(engine.rebalances(), 0);
        // A hot shard: +4000 elements on shard 0 -> ratio (1000+4000)/2000 = 2.5.
        let rep = engine.ingest_pinned(0, (10_000..14_000u64).collect()).unwrap();
        assert!(rep.rebalanced);
        assert_eq!(engine.rebalances(), 1);
        assert!(engine.imbalance_ratio() <= 1.05, "ratio {}", engine.imbalance_ratio());
        // Queries still correct after the move.
        let report = engine.execute(&[Query::Rank(0), Query::quantile(1.0)]).unwrap();
        assert_eq!(report.answers[0], Answer::Value(0));
        assert_eq!(report.answers[1], Answer::Value(13_999));
    }

    #[test]
    fn delete_removes_all_occurrences_and_updates_queries() {
        let mut engine: Engine<u64> = Engine::new(free_cfg(3)).unwrap();
        engine.ingest(vec![5, 1, 5, 3, 5, 2, 4, 5]).unwrap();
        let rep = engine.delete(&[5, 99]).unwrap();
        assert_eq!(rep.elements, 4);
        assert_eq!(engine.len(), 4);
        let report = engine.execute(&[Query::TopK(4)]).unwrap();
        assert_eq!(report.answers[0], Answer::Top(vec![1, 2, 3, 4]));
    }

    #[test]
    fn malformed_deletion_replies_fail_typed() {
        // Buckets `≤ 10 | > 10` holding 3 and 2 elements, plus one delta
        // element; shard 0 holds 4 of the 6, shard 1 the other 2.
        let mut g: GlobalIndex<u64> = GlobalIndex::from_shard_stats(
            vec![SepBound::le(10)],
            &[vec![(3, Some((1, 5))), (0, None)], vec![(0, None), (2, Some((20, 30)))]],
        );
        g.note_ingest([4]);
        let sizes = [4u64, 2];
        let reply = |remaining: u64, removed: &[u64]| ShardDeletion {
            remaining,
            removed: removed.to_vec(),
        };
        let check = |replies: &[ShardDeletion]| check_deletions(&sizes, Some(&g), replies);
        assert!(check(&[reply(2, &[1, 0, 1]), reply(0, &[0, 2, 0])]).is_ok());
        let bad: [(&str, Vec<ShardDeletion>, usize); 8] = [
            ("reply count", vec![reply(4, &[0, 0, 0])], 1),
            ("short", vec![reply(3, &[1, 0]), reply(2, &[0, 0, 0])], 0),
            ("long", vec![reply(4, &[0, 0, 0]), reply(2, &[0, 0, 0, 0])], 1),
            ("bucket over", vec![reply(0, &[0, 3, 1]), reply(2, &[0, 0, 0])], 0),
            ("summed over", vec![reply(2, &[0, 2, 0]), reply(1, &[0, 1, 0])], 1),
            ("delta over", vec![reply(2, &[0, 0, 2]), reply(2, &[0, 0, 0])], 0),
            ("grew", vec![reply(4, &[0, 0, 0]), reply(3, &[0, 0, 0])], 1),
            ("bad sum", vec![reply(3, &[0, 0, 0]), reply(2, &[0, 0, 0])], 0),
        ];
        for (what, replies, want_rank) in bad {
            match check(&replies) {
                Err(EngineError::Backend(BackendError::Runtime(RunError::WireProtocol {
                    rank,
                    ..
                }))) => assert_eq!(rank, want_rank, "{what}"),
                other => panic!("{what}: expected a wire-protocol error, got {other:?}"),
            }
        }
        // Without an index only the sizes are checked.
        assert!(check_deletions::<u64>(&sizes, None, &[reply(1, &[]), reply(2, &[9])]).is_ok());
        assert!(check_deletions::<u64>(&sizes, None, &[reply(5, &[])]).is_err());
    }

    #[test]
    fn malformed_execute_replies_fail_typed() {
        // Buckets `≤ 10 | (10, 20] | > 20`. Three exact rank slots: 0 and
        // 2 served by the histogram, 1 routed to bucket 1 and answered 15;
        // one value probe at 5 carves its class in bucket 0.
        let g: GlobalIndex<u64> = GlobalIndex::from_shard_stats(
            vec![SepBound::le(10), SepBound::le(20)],
            &vec![vec![(2, Some((1, 9))), (2, Some((12, 18))), (1, Some((25, 25)))]; 2],
        );
        let plan = BatchPlan {
            groups: Arc::new(vec![Group { lo: 1, hi: 1, n: 4, ranks: vec![1], out: vec![1] }]),
            exact_ranks: Arc::new(RankSet::from_runs(vec![(0, 3)])),
            value_probes: Arc::new(vec![(5u64, false)]),
            selection: SelectionConfig::default(),
            use_index: true,
            full_total: 10,
            delta_total: 0,
            trace: None,
            drops: Arc::new(Vec::new()),
        };
        let fast = [(0usize, 1u64), (2, 25)];
        let reply = |exact: &[Option<u64>], refines: &[usize], carves: &[usize], probes: usize| {
            let stats = |lens: &[usize]| lens.iter().map(|&n| vec![(0, None); n]).collect();
            ShardBatchOutcome {
                exact: exact.to_vec(),
                refines: stats(refines),
                probe_refines: stats(carves),
                probe_counts: vec![0; probes],
                phase_ops: PhaseOps::default(),
                comm: CommStats::default(),
                elapsed: 0.0,
                spans: Vec::new(),
            }
        };
        let good = || reply(&[None, Some(15), None], &[3], &[3], 1);
        // Both stages, as `run_once` runs them: the shape check, then the
        // refinement fold on a copy of the host index.
        let check = |replies: &[ShardBatchOutcome<u64>]| {
            check_outcomes(2, &plan, &fast, replies).and_then(|()| {
                fold_refinement(&mut g.clone(), &plan.groups, &[(5, false)], replies)
            })
        };
        assert!(check(&[good(), good()]).is_ok());
        assert!(check_outcomes(2, &plan, &fast, &[]).is_ok());
        let mut folded = g.clone();
        fold_refinement(&mut folded, &plan.groups, &plan.value_probes, &[good(), good()]).unwrap();
        // ≤5 splits off `< 5` and `{5}`; bucket 1 splits around 15.
        assert_eq!(folded.num_buckets(), 7);
        let mut spanned = good();
        spanned.spans =
            vec![PhaseSpan { phase: Phase::Probes, time: 0.0, comm: CommStats::default() }];
        let bad: [(&str, Vec<ShardBatchOutcome<u64>>, usize); 11] = [
            ("spans", vec![spanned, good()], 1),
            ("reply count", vec![good()], 1),
            ("short exact", vec![good(), reply(&[None, Some(15)], &[3], &[3], 1)], 1),
            ("probe counts", vec![reply(&[None, Some(15), None], &[3], &[3], 0), good()], 0),
            // With slot 1 unresolved the host replays no answer into the
            // window, which then stays one bucket.
            ("unresolved", vec![reply(&[None, None, None], &[1], &[3], 1); 2], 0),
            ("refine count", vec![good(), reply(&[None, Some(15), None], &[3, 3], &[3], 1)], 1),
            ("refine missing", vec![good(), reply(&[None, Some(15), None], &[], &[3], 1)], 1),
            ("refine length", vec![reply(&[None, Some(15), None], &[2], &[3], 1), good()], 0),
            ("carve count", vec![good(), reply(&[None, Some(15), None], &[3], &[3, 3], 1)], 1),
            ("carve missing", vec![good(), reply(&[None, Some(15), None], &[3], &[], 1)], 1),
            ("carve length", vec![reply(&[None, Some(15), None], &[3], &[4], 1), good()], 0),
        ];
        for (what, replies, want_rank) in bad {
            match check(&replies) {
                Err(EngineError::Backend(BackendError::Runtime(RunError::WireProtocol {
                    rank,
                    ..
                }))) => assert_eq!(rank, want_rank, "{what}"),
                other => panic!("{what}: expected a wire-protocol error, got {other:?}"),
            }
        }
    }

    #[test]
    fn disagreeing_splitters_fail_typed() {
        let stats = |n: usize| vec![(1u64, Some((0u64, 0u64))); n];
        let agreed = vec![SepBound::le(10u64), SepBound::le(20)];
        let built = vec![(agreed.clone(), stats(3)), (agreed.clone(), stats(3))];
        let (bounds, per_shard) = check_splitters(built).unwrap();
        assert_eq!((bounds, per_shard.len()), (agreed.clone(), 2));
        let other = vec![SepBound::le(10u64), SepBound::lt(20)];
        let bad = [
            ("disagreeing", vec![(agreed.clone(), stats(3)), (other, stats(3))], 1),
            ("short summary", vec![(agreed.clone(), stats(2)), (agreed.clone(), stats(3))], 0),
        ];
        for (what, built, want_rank) in bad {
            match check_splitters(built) {
                Err(EngineError::Backend(BackendError::Runtime(RunError::WireProtocol {
                    rank,
                    ..
                }))) => assert_eq!(rank, want_rank, "{what}"),
                other => panic!("{what}: expected a wire-protocol error, got {other:?}"),
            }
        }
    }

    #[test]
    fn delete_through_the_index_stays_exact() {
        let mut engine: Engine<u64> = Engine::new(free_cfg(4)).unwrap();
        let data: Vec<u64> = (0..6000u64).map(|i| i % 500).collect();
        engine.ingest(data.clone()).unwrap();
        // Build the index, then delete value classes through it.
        engine.execute(&[Query::Median]).unwrap();
        assert!(engine.index_health().buckets > 0);
        let rep = engine.delete(&[100, 250, 499]).unwrap();
        assert_eq!(rep.elements, 36); // 3 values × 12 occurrences each
        let mut oracle = oracle_sorted(&data);
        oracle.retain(|&x| x != 100 && x != 250 && x != 499);
        let n = oracle.len() as u64;
        let report = engine.execute(&[Query::Rank(0), Query::Median, Query::Rank(n - 1)]).unwrap();
        assert_eq!(report.answers[0], Answer::Value(oracle[0]));
        assert_eq!(report.answers[1], Answer::Value(oracle[((n - 1) / 2) as usize]));
        assert_eq!(report.answers[2], Answer::Value(oracle[(n - 1) as usize]));
    }

    #[test]
    fn delta_run_keeps_answers_exact_until_merge() {
        let mut engine: Engine<u64> = Engine::new(free_cfg(2).delta_threshold(10.0)).unwrap(); // merge never triggers
        let mut all: Vec<u64> = (0..3000u64).map(|i| i.wrapping_mul(2654435761) % 9973).collect();
        engine.ingest(all.clone()).unwrap();
        engine.execute(&[Query::Median]).unwrap(); // builds the index
        for round in 0..4u64 {
            let burst: Vec<u64> = (0..333u64).map(|i| (round * 1000 + i * 7) % 9973).collect();
            all.extend(&burst);
            engine.ingest(burst).unwrap();
            assert!(engine.index_health().delta_len > 0, "delta must accumulate");
            let sorted = oracle_sorted(&all);
            let n = sorted.len() as u64;
            let report =
                engine.execute(&[Query::Rank(0), Query::Median, Query::quantile(0.99)]).unwrap();
            assert_eq!(report.answers[0], Answer::Value(sorted[0]));
            assert_eq!(report.answers[1], Answer::Value(sorted[((n - 1) / 2) as usize]));
            assert_eq!(report.answers[2], Answer::Value(sorted[quantile_rank(0.99, n) as usize]));
            assert!(report.delta_occupancy > 0.0);
        }
        assert_eq!(engine.index_health().delta_merges, 0);
    }

    #[test]
    fn delta_merge_triggers_at_the_threshold_and_stays_exact() {
        let mut engine: Engine<u64> = Engine::new(free_cfg(2).delta_threshold(0.02)).unwrap();
        let mut all: Vec<u64> = (0..8000u64).map(|i| i.wrapping_mul(48271) % 65_536).collect();
        engine.ingest(all.clone()).unwrap();
        engine.execute(&[Query::Median]).unwrap();
        assert_eq!(engine.index_health().delta_merges, 0);
        // 8000 × 0.02 = 160 < 400-element burst -> merge must fire.
        let burst: Vec<u64> = (0..400u64).map(|i| i * 131 % 65_536).collect();
        all.extend(&burst);
        engine.ingest(burst).unwrap();
        let health = engine.index_health();
        assert_eq!(health.delta_merges, 1);
        assert_eq!(health.delta_len, 0);
        let sorted = oracle_sorted(&all);
        let n = sorted.len() as u64;
        let report = engine.execute(&[Query::Median, Query::quantile(0.75)]).unwrap();
        assert_eq!(report.answers[0], Answer::Value(sorted[((n - 1) / 2) as usize]));
        assert_eq!(report.answers[1], Answer::Value(sorted[quantile_rank(0.75, n) as usize]));
    }

    #[test]
    fn approximate_quantile_stays_within_tolerance() {
        let mut engine: Engine<u64> = Engine::new(free_cfg(4).sketch_capacity(2048)).unwrap();
        // 0..80000 shuffled deterministically: value == rank.
        let n = 80_000u64;
        let data: Vec<u64> = {
            let mut v: Vec<u64> = (0..n).collect();
            let mut rng = cgselect_seqsel::KernelRng::new(9);
            for i in (1..v.len()).rev() {
                v.swap(i, rng.below(i as u64 + 1) as usize);
            }
            v
        };
        engine.ingest(data).unwrap();
        let tol = 0.05;
        let report = engine
            .execute(&[Query::quantile_within(0.5, tol), Query::quantile_within(0.9, tol)])
            .unwrap();
        assert_eq!(report.sketch_answers, 2);
        assert_eq!(report.exact_ranks, 0);
        // The whole rung is served from the host-global ε-sketch.
        assert_eq!(report.collective_ops, 0);
        for (answer, q) in report.answers.iter().zip([0.5, 0.9]) {
            match *answer {
                Answer::Approximate { value, target_rank, max_rank_error } => {
                    assert_eq!(target_rank, quantile_rank(q, n));
                    // The reported error is the sketch's *guarantee*, which
                    // must honor (and usually beats) the ⌈t·n⌉ contract.
                    assert!(
                        max_rank_error <= (tol * n as f64).ceil() as u64,
                        "guarantee {max_rank_error} exceeds the contract"
                    );
                    assert!(max_rank_error > 0, "a compacted sketch is not exact");
                    let err = value.abs_diff(target_rank);
                    assert!(
                        err <= max_rank_error,
                        "q={q}: estimate {value} vs target {target_rank} (err {err})"
                    );
                }
                ref other => panic!("expected an approximate answer, got {other:?}"),
            }
        }
        // A tolerance tighter than the sketch bound must fall back to exact.
        let report = engine.execute(&[Query::quantile_within(0.5, 1e-9)]).unwrap();
        assert_eq!(report.sketch_answers, 0);
        assert_eq!(report.answers[0], Answer::Value(quantile_rank(0.5, n)));
    }

    #[test]
    fn batching_uses_fewer_collective_ops_than_single_queries() {
        // Baseline-path claim (index disabled): coalescing R ranks into one
        // multi-select pass beats R single-rank passes. With the index on,
        // repeated single queries would be answered from the histogram and
        // the comparison would measure the cache, not the batching.
        let mut engine: Engine<u64> = Engine::new(free_cfg(4).index_buckets(0)).unwrap();
        let data: Vec<u64> =
            (0..40_000u64).map(|i| i.wrapping_mul(2654435761) % 1_000_000).collect();
        engine.ingest(data).unwrap();
        let ranks: Vec<u64> = (1..=16).map(|i| i * 2000).collect();

        let batch: Vec<Query> = ranks.iter().map(|&r| Query::Rank(r)).collect();
        let batched = engine.execute(&batch).unwrap();

        let mut single_total = 0u64;
        for &r in &ranks {
            single_total += engine.execute(&[Query::Rank(r)]).unwrap().collective_ops;
        }
        assert!(
            batched.collective_ops < single_total,
            "batched {} vs {} summed single-query collective ops",
            batched.collective_ops,
            single_total
        );
    }

    #[test]
    fn indexed_engine_beats_the_baseline_on_collective_ops() {
        let data: Vec<u64> =
            (0..40_000u64).map(|i| i.wrapping_mul(2654435761) % 1_000_000).collect();
        let queries: Vec<Query> = (1..=16).map(|i| Query::Rank(i * 2000)).collect();

        let mut baseline: Engine<u64> = Engine::new(free_cfg(4).index_buckets(0)).unwrap();
        baseline.ingest(data.clone()).unwrap();
        let base = baseline.execute(&queries).unwrap();

        let mut indexed: Engine<u64> = Engine::new(free_cfg(4)).unwrap();
        indexed.ingest(data).unwrap();
        let idx = indexed.execute(&queries).unwrap();

        assert_eq!(idx.answers, base.answers);
        assert!(
            2 * idx.collective_ops <= base.collective_ops,
            "indexed {} vs baseline {} collective ops (first batch)",
            idx.collective_ops,
            base.collective_ops
        );
    }

    #[test]
    fn errors_reject_bad_batches_without_poisoning() {
        let mut engine: Engine<u64> = Engine::new(free_cfg(2)).unwrap();
        assert_eq!(engine.execute(&[Query::Median]).unwrap_err(), EngineError::Empty);
        engine.ingest(vec![1, 2, 3]).unwrap();
        assert_eq!(
            engine.execute(&[Query::Rank(3)]).unwrap_err(),
            EngineError::RankOutOfRange { rank: 3, n: 3 }
        );
        assert_eq!(
            engine.execute(&[Query::quantile(-0.1)]).unwrap_err(),
            EngineError::InvalidQuantile(-0.1)
        );
        // The session is still healthy.
        let report = engine.execute(&[Query::Median]).unwrap();
        assert_eq!(report.answers[0], Answer::Value(2));
    }

    #[test]
    fn channel_mp_backend_matches_local_spmd_exactly() {
        // The conformance harness (tests/backend_conformance.rs) covers the
        // full lifecycle; this is the in-crate smoke check of the same
        // invariant: identical answers AND identical collective-op counts.
        let data: Vec<u64> = (0..8000u64).map(|i| i.wrapping_mul(2654435761) % 50_000).collect();
        let queries = vec![Query::Rank(17), Query::Median, Query::quantile(0.9), Query::TopK(4)];

        let mut local: Engine<u64> = Engine::new(free_cfg(3)).unwrap();
        let mut mp: Engine<u64> = Engine::new(free_cfg(3).channel_mp()).unwrap();
        assert_eq!(local.backend_kind(), BackendKind::LocalSpmd);
        assert_eq!(mp.backend_kind(), BackendKind::ChannelMp);

        local.ingest(data.clone()).unwrap();
        mp.ingest(data).unwrap();
        for round in 0..3 {
            let a = local.execute(&queries).unwrap();
            let b = mp.execute(&queries).unwrap();
            assert_eq!(a.answers, b.answers, "round {round}");
            assert_eq!(a.collective_ops, b.collective_ops, "round {round}");
            assert_eq!(a.histogram_answers, b.histogram_answers, "round {round}");
        }
        local.delete(&[17, 99]).unwrap();
        mp.delete(&[17, 99]).unwrap();
        assert_eq!(local.len(), mp.len());
        assert_eq!(local.index_health(), mp.index_health());
        let a = local.execute(&queries).unwrap();
        let b = mp.execute(&queries).unwrap();
        assert_eq!(a.answers, b.answers);
        assert_eq!(a.collective_ops, b.collective_ops);
    }

    #[test]
    fn single_shard_engine_works() {
        let mut engine: Engine<u64> = Engine::new(free_cfg(1)).unwrap();
        engine.ingest((0..100u64).rev().collect()).unwrap();
        let report = engine.execute(&[Query::Median, Query::TopK(2)]).unwrap();
        assert_eq!(report.answers[0], Answer::Value(49));
        assert_eq!(report.answers[1], Answer::Top(vec![0, 1]));
    }

    #[test]
    fn virtual_time_advances_across_batches() {
        let mut engine: Engine<u64> = Engine::new(EngineConfig::new(4)).unwrap();
        engine.ingest((0..10_000u64).collect()).unwrap();
        let a = engine.execute(&[Query::Median]).unwrap();
        let b = engine.execute(&[Query::Rank(123)]).unwrap();
        assert!(a.makespan > 0.0);
        assert!(b.makespan > 0.0);
        // A fully histogram-answered repeat costs no measured batch time —
        // that is the point of the fast path.
        let c = engine.execute(&[Query::Median]).unwrap();
        assert_eq!(c.histogram_answers, 1);
        assert_eq!(c.answers, a.answers);
    }
}
