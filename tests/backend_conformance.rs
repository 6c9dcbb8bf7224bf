//! Cross-backend conformance and fault-injection harness.
//!
//! The engine's execution seam ([`cgselect::ExecBackend`]) promises that
//! *where* the shards live — the in-process `LocalSpmd` session or the
//! message-passing `ChannelMp` worker ring — is unobservable: every
//! scenario family (all 8 workload distributions × the full
//! ingest-burst/delta-merge/delete/rebalance lifecycle) must produce
//! answers identical to the sequential oracle **and** identical
//! collective-round counts on both backends. The fault-injection half pins
//! down the failure contract at the same boundary: a worker panic
//! mid-batch, a lost reply, or a straggling shard must surface typed
//! errors (never hangs), poison the backend, and reject subsequent work
//! fast — mirroring `RunError::SessionPoisoned` semantics.

use std::time::{Duration, Instant};

use cgselect::{
    quantile_rank, Answer, BackendChoice, BackendError, BackendKind, ChannelMpTuning, Distribution,
    Engine, EngineConfig, EngineError, Fault, FrontendConfig, IndexHealth, MachineModel, Query,
    SocketMpTuning, SubmitError,
};

const ALL_DISTRIBUTIONS: [Distribution; 8] = [
    Distribution::Random,
    Distribution::Sorted,
    Distribution::ReverseSorted,
    Distribution::FewDistinct(17),
    Distribution::Gaussian,
    Distribution::Zipf,
    Distribution::OrganPipe,
    Distribution::AllEqual,
];

fn cfg(p: usize, backend: BackendChoice) -> EngineConfig {
    // A tight delta threshold so ingest bursts cross merge boundaries and a
    // small bucket target so refinement stays visible.
    EngineConfig::new(p)
        .model(MachineModel::free())
        .index_buckets(16)
        .delta_threshold(0.03)
        .backend(backend)
}

fn channel_mp() -> BackendChoice {
    BackendChoice::ChannelMp(ChannelMpTuning::default())
}

fn mixed_batch(n: u64) -> Vec<Query> {
    vec![
        Query::Rank(0),
        Query::Rank(n / 3),
        Query::Rank(n - 1),
        Query::quantile(0.1),
        Query::quantile(0.5),
        Query::quantile(0.9),
        Query::Median,
        Query::TopK(5.min(n)),
    ]
}

fn oracle_answers(sorted: &[u64], queries: &[Query]) -> Vec<Answer<u64>> {
    let n = sorted.len() as u64;
    queries
        .iter()
        .map(|q| match *q {
            Query::Rank(k) => Answer::Value(sorted[k as usize]),
            Query::Median => Answer::Value(sorted[((n - 1) / 2) as usize]),
            Query::Quantile { q, .. } => Answer::Value(sorted[quantile_rank(q, n) as usize]),
            Query::TopK(k) => Answer::Top(sorted[..k as usize].to_vec()),
        })
        .collect()
}

/// What one lifecycle step observed — everything that must be identical
/// across backends, including the collective-round budget.
#[derive(Debug, Clone, PartialEq)]
struct Step {
    label: String,
    answers: Vec<Answer<u64>>,
    collective_ops: u64,
    histogram_answers: usize,
    len: u64,
    health: IndexHealth,
}

/// Drives one engine through the full mutation lifecycle for one
/// distribution, oracle-checking every step, and records what the backend
/// did. The op sequence is identical for every backend by construction.
fn run_lifecycle(backend: BackendChoice, dist: Distribution) -> Vec<Step> {
    let p = 4;
    let n = 3000usize;
    let data: Vec<u64> = cgselect::generate(dist, n, p, 23).into_iter().flatten().collect();
    let mut engine: Engine<u64> = Engine::new(cfg(p, backend)).unwrap();
    let mut all: Vec<u64> = Vec::new();
    let mut steps = Vec::new();

    let mut check = |engine: &mut Engine<u64>, all: &[u64], label: String| {
        let mut sorted = all.to_vec();
        sorted.sort_unstable();
        let queries = mixed_batch(sorted.len() as u64);
        let report = engine.execute(&queries).unwrap();
        assert_eq!(
            report.answers,
            oracle_answers(&sorted, &queries),
            "{} diverged from the oracle at step {label} ({dist:?})",
            engine.backend_kind(),
        );
        steps.push(Step {
            label,
            answers: report.answers,
            collective_ops: report.collective_ops,
            histogram_answers: report.histogram_answers,
            len: engine.len(),
            health: engine.index_health(),
        });
    };

    // Phase 1: bulk ingest of two thirds; the first batch builds the index.
    let (bulk, tail) = data.split_at(2 * n / 3);
    all.extend_from_slice(bulk);
    engine.ingest(bulk.to_vec()).unwrap();
    check(&mut engine, &all, "bulk".into());
    assert!(engine.index_health().buckets > 0, "{dist:?}: index must build");

    // Phase 2: the remaining third arrives in bursts that ride the delta
    // run and trip amortized merges at the threshold boundary.
    for (i, burst) in tail.chunks(n / 9).enumerate() {
        all.extend_from_slice(burst);
        engine.ingest(burst.to_vec()).unwrap();
        check(&mut engine, &all, format!("burst {i}"));
    }
    assert!(
        engine.index_health().delta_merges >= 1,
        "{dist:?}: bursts must have crossed the merge threshold ({:?})",
        engine.index_health()
    );

    // Phase 3: delete two resident value classes through the index
    // (skipped for the single-value distribution, which it would empty).
    if all.iter().any(|&x| x != all[0]) {
        let mut sorted = all.clone();
        sorted.sort_unstable();
        let victims = vec![sorted[n / 4], sorted[(3 * n) / 4]];
        engine.delete(&victims).unwrap();
        all.retain(|x| !victims.contains(x));
        check(&mut engine, &all, "delete".into());
    }

    // Phase 4: a hot-shard burst trips the watermark; the rebalance drops
    // the splitters and the next batch rebuilds them.
    let rebuilds_before = engine.index_health().rebuilds;
    let hot: Vec<u64> = (0..all.len() as u64).map(|i| i.wrapping_mul(2654435761)).collect();
    all.extend(&hot);
    let rep = engine.ingest_pinned(1, hot).unwrap();
    assert!(rep.rebalanced, "{dist:?}: watermark must trip");
    check(&mut engine, &all, "rebalance".into());
    assert!(
        engine.index_health().rebuilds > rebuilds_before,
        "{dist:?}: rebalance must force a splitter rebuild"
    );
    steps
}

// ---------------------------------------------------------------------------
// Conformance: each backend against the oracle, then differentially.
// ---------------------------------------------------------------------------

#[test]
fn conformance_local_spmd_all_distributions() {
    for dist in ALL_DISTRIBUTIONS {
        let steps = run_lifecycle(BackendChoice::LocalSpmd, dist);
        assert!(steps.len() >= 5, "{dist:?}: lifecycle must cover every phase");
    }
}

#[test]
fn conformance_channel_mp_all_distributions() {
    for dist in ALL_DISTRIBUTIONS {
        let steps = run_lifecycle(channel_mp(), dist);
        assert!(steps.len() >= 5, "{dist:?}: lifecycle must cover every phase");
    }
}

#[test]
fn backends_agree_on_answers_and_collective_rounds() {
    for dist in ALL_DISTRIBUTIONS {
        let local = run_lifecycle(BackendChoice::LocalSpmd, dist);
        let mp = run_lifecycle(channel_mp(), dist);
        assert_eq!(local.len(), mp.len(), "{dist:?}: lifecycle shapes diverged");
        for (a, b) in local.iter().zip(&mp) {
            assert_eq!(
                a, b,
                "{dist:?} step {}: backends must agree on answers, collective-round \
                 counts and index health",
                a.label
            );
        }
    }
}

// ---------------------------------------------------------------------------
// The v2 inverse op (`count_below` probe Combine): equal answers and equal
// round counts on both backends, through the mutation lifecycle.
// ---------------------------------------------------------------------------

/// Drives inverse-query batches (rank-of + range counts) through
/// ingest-burst / delete phases on one backend, oracle-checking every
/// answer and recording the per-batch collective-round counts.
fn run_inverse_lifecycle(backend: BackendChoice, dist: Distribution) -> Vec<(Vec<u64>, u64)> {
    use cgselect::{Bounds, Request};
    let p = 4;
    let n = 3000usize;
    let data: Vec<u64> = cgselect::generate(dist, n, p, 41).into_iter().flatten().collect();
    let mut engine: Engine<u64> = Engine::new(cfg(p, backend)).unwrap();
    let mut all: Vec<u64> = Vec::new();
    let mut steps: Vec<(Vec<u64>, u64)> = Vec::new();

    let mut check = |engine: &mut Engine<u64>, all: &[u64], label: &str| {
        let mut sorted = all.to_vec();
        sorted.sort_unstable();
        let lo = sorted[sorted.len() / 4];
        let hi = sorted[(3 * sorted.len()) / 4];
        let requests = vec![
            Request::rank_of(sorted[sorted.len() / 2]),
            Request::rank_of(hi.saturating_add(1)),
            Request::count_between(Bounds::closed(lo, hi)),
            Request::count_between(Bounds::below(lo)),
            Request::count_between(Bounds::at_least(hi)),
        ];
        let report = engine.run(&requests).unwrap();
        let counts: Vec<u64> =
            report.outcomes.iter().map(|o| o.response.count().expect("count answer")).collect();
        let oracle = |v: u64, incl: bool| {
            if incl {
                sorted.partition_point(|&x| x <= v) as u64
            } else {
                sorted.partition_point(|&x| x < v) as u64
            }
        };
        let expect = vec![
            oracle(sorted[sorted.len() / 2], false),
            oracle(hi.saturating_add(1), false),
            oracle(hi, true) - oracle(lo, false),
            oracle(lo, false),
            sorted.len() as u64 - oracle(hi, false),
        ];
        assert_eq!(
            counts,
            expect,
            "{} diverged from the inverse oracle at step {label} ({dist:?})",
            engine.backend_kind()
        );
        steps.push((counts, report.collective_ops));
    };

    // Bulk ingest, then an exact batch to build (and refine) the index.
    let (bulk, tail) = data.split_at(2 * n / 3);
    all.extend_from_slice(bulk);
    engine.ingest(bulk.to_vec()).unwrap();
    engine.execute(&[Query::Median]).unwrap();
    check(&mut engine, &all, "bulk");
    // A burst rides the delta run: probes must fold it in exactly.
    all.extend_from_slice(tail);
    engine.ingest(tail.to_vec()).unwrap();
    check(&mut engine, &all, "delta");
    // Delete a value class through the index.
    if all.iter().any(|&x| x != all[0]) {
        let mut sorted = all.clone();
        sorted.sort_unstable();
        let victim = sorted[n / 3];
        engine.delete(&[victim]).unwrap();
        all.retain(|&x| x != victim);
        check(&mut engine, &all, "delete");
    }
    steps
}

#[test]
fn inverse_ops_agree_on_answers_and_rounds_across_backends() {
    for dist in ALL_DISTRIBUTIONS {
        let local = run_inverse_lifecycle(BackendChoice::LocalSpmd, dist);
        let mp = run_inverse_lifecycle(channel_mp(), dist);
        assert_eq!(
            local, mp,
            "{dist:?}: backends must agree on inverse answers and collective-round counts"
        );
    }
}

#[test]
fn probe_round_count_is_independent_of_probe_batch_size_on_both_backends() {
    use cgselect::Request;
    // The acceptance bar for the new op: the whole probe batch rides ONE
    // vectorized Combine, so 12 probes cost exactly the rounds of 1 — on
    // both backends, with identical counts.
    let data: Vec<u64> = (0..20_000u64).map(|i| i.wrapping_mul(48271) % 1_000_003).collect();
    let mut measured = Vec::new();
    for backend in backends() {
        let mut engine: Engine<u64> = Engine::new(cfg(4, backend)).unwrap();
        engine.ingest(data.clone()).unwrap();
        engine.execute(&[Query::Median]).unwrap(); // builds the index
        let one = engine.run(&[Request::rank_of(500_001)]).unwrap();
        let batch: Vec<Request<u64>> =
            (0..12u64).map(|i| Request::rank_of(500_003 + i * 39_119)).collect();
        let many = engine.run(&batch).unwrap();
        assert_eq!(
            one.collective_ops,
            many.collective_ops,
            "{}: probe batches must share one Combine round",
            engine.backend_kind()
        );
        measured.push((one.collective_ops, many.collective_ops));
    }
    assert_eq!(measured[0], measured[1], "backends must agree on probe round counts");
}

/// Short timeouts so injected faults resolve in milliseconds, not the 30 s
/// production defaults.
fn faulty(faults: &[Fault]) -> BackendChoice {
    let mut tuning = ChannelMpTuning::new()
        .reply_timeout(Duration::from_millis(2000))
        .proc_timeout(Duration::from_millis(300));
    for f in faults {
        tuning = tuning.fault(f.clone());
    }
    BackendChoice::ChannelMp(tuning)
}

#[test]
fn worker_panic_mid_batch_surfaces_typed_error_and_poisons() {
    let mut engine: Engine<u64> =
        Engine::new(cfg(3, faulty(&[Fault::PanicOnExecute { rank: 1, nth: 1 }]))).unwrap();
    engine.ingest((0..3000u64).rev().collect()).unwrap();

    // Execute 0 is healthy; execute 1 hits the injected mid-batch panic.
    let ok = engine.execute(&[Query::Median]).unwrap();
    assert_eq!(ok.answers[0], Answer::Value(1499));
    let err = engine.execute(&[Query::quantile(0.25)]).unwrap_err();
    match err {
        EngineError::Backend(BackendError::WorkerPanicked { rank, ref message }) => {
            assert_eq!(rank, 1, "the injected faulty rank must be reported, got {err:?}");
            assert!(message.contains("injected fault"), "root cause lost: {message}");
        }
        other => panic!("expected a typed worker panic, got {other:?}"),
    }

    // Poisoned: subsequent batches are rejected fast (no collective work,
    // no timeout waits), as are mutations.
    let t0 = Instant::now();
    let err = engine.execute(&[Query::Median]).unwrap_err();
    assert_eq!(err, EngineError::Backend(BackendError::Poisoned));
    assert!(
        t0.elapsed() < Duration::from_millis(100),
        "poisoned rejection must be fast, took {:?}",
        t0.elapsed()
    );
    let err = engine.ingest(vec![1, 2, 3]).unwrap_err();
    assert_eq!(err, EngineError::Backend(BackendError::Poisoned));
    // Dropping the poisoned engine must still join every worker (covered
    // again by the thread-leak test below).
    drop(engine);
}

#[test]
fn dropped_reply_surfaces_worker_unresponsive_and_poisons() {
    let mut engine: Engine<u64> =
        Engine::new(cfg(3, faulty(&[Fault::DropReplyOnExecute { rank: 2, nth: 0 }]))).unwrap();
    engine.ingest((0..2000u64).collect()).unwrap();
    let err = engine.execute(&[Query::Median]).unwrap_err();
    assert_eq!(
        err,
        EngineError::Backend(BackendError::WorkerUnresponsive { rank: 2 }),
        "a lost reply must surface as a typed timeout on the silent rank"
    );
    let err = engine.execute(&[Query::Median]).unwrap_err();
    assert_eq!(err, EngineError::Backend(BackendError::Poisoned));
}

#[test]
fn slow_shard_stays_correct_within_timeouts() {
    let choice = BackendChoice::ChannelMp(
        ChannelMpTuning::new()
            .fault(Fault::SlowShard { rank: 0, delay: Duration::from_millis(40) }),
    );
    let mut slow: Engine<u64> = Engine::new(cfg(3, choice)).unwrap();
    let mut reference: Engine<u64> = Engine::new(cfg(3, BackendChoice::LocalSpmd)).unwrap();
    let data: Vec<u64> = (0..2000u64).map(|i| i.wrapping_mul(48271) % 9973).collect();
    slow.ingest(data.clone()).unwrap();
    reference.ingest(data).unwrap();
    let queries = mixed_batch(2000);
    let a = slow.execute(&queries).unwrap();
    let b = reference.execute(&queries).unwrap();
    // A straggler changes wall-clock latency, never results or rounds.
    assert_eq!(a.answers, b.answers);
    assert_eq!(a.collective_ops, b.collective_ops);
}

// ---------------------------------------------------------------------------
// Frontend shutdown hands the engine back intact on both backends.
// ---------------------------------------------------------------------------

fn backends() -> [BackendChoice; 2] {
    [BackendChoice::LocalSpmd, channel_mp()]
}

#[test]
fn frontend_shutdown_mid_window_hands_engine_back_on_both_backends() {
    for backend in backends() {
        let kind = backend.kind();
        let mut engine: Engine<u64> = Engine::new(cfg(2, backend)).unwrap();
        engine.ingest((0..500u64).collect()).unwrap();
        // A very wide window: the submitted queries hold the batch open, so
        // shutdown lands while a micro-batch window is collecting.
        let queue = engine.into_frontend(FrontendConfig::new().window(Duration::from_secs(5)));
        let t1 = queue.submit(Query::Median).unwrap();
        let t2 = queue.submit(Query::Rank(0)).unwrap();
        let mut engine = queue.shutdown().expect("first shutdown claims the engine");
        // Accepted submissions were drained before the hand-off.
        assert_eq!(t1.wait(), Ok(Answer::Value(249)), "{kind}");
        assert_eq!(t2.wait(), Ok(Answer::Value(0)), "{kind}");
        // The engine comes back intact and serviceable.
        assert_eq!(engine.len(), 500, "{kind}");
        let report = engine.execute(&[Query::TopK(2)]).unwrap();
        assert_eq!(report.answers[0], Answer::Top(vec![0, 1]), "{kind}");
    }
}

#[test]
fn frontend_shutdown_under_saturation_keeps_engine_intact_on_both_backends() {
    for backend in backends() {
        let kind = backend.kind();
        let mut engine: Engine<u64> = Engine::new(cfg(2, backend)).unwrap();
        engine.ingest((0..500u64).collect()).unwrap();
        // Paused + tiny capacity: saturate the queue, then shut down with
        // the backlog still parked.
        let queue =
            engine.into_frontend(FrontendConfig::new().queue_capacity(2).start_paused(true));
        let parked: Vec<_> = (0..2).map(|_| queue.submit(Query::Median).unwrap()).collect();
        match queue.submit(Query::Median) {
            Err(SubmitError::Saturated { capacity: 2 }) => {}
            other => panic!("{kind}: expected saturation, got {other:?}"),
        }
        let mut engine = queue.shutdown().expect("first shutdown claims the engine");
        // The parked backlog was drained (closing overrides the pause).
        for t in parked {
            assert_eq!(t.wait(), Ok(Answer::Value(249)), "{kind}");
        }
        assert_eq!(engine.len(), 500, "{kind}");
        assert_eq!(engine.execute(&[Query::Median]).unwrap().answers[0], Answer::Value(249));
    }
}

// ---------------------------------------------------------------------------
// Join-on-drop: no leaked worker threads, even mid-lifecycle.
// ---------------------------------------------------------------------------

fn live_threads() -> Option<usize> {
    // Linux-only thread census; fine for CI (ubuntu) and this container.
    std::fs::read_dir("/proc/self/task").ok().map(|d| d.count())
}

#[test]
fn dropping_engine_mid_lifecycle_leaks_no_threads_on_both_backends() {
    if live_threads().is_none() {
        eprintln!("no /proc/self/task; skipping thread-leak check");
        return;
    }
    for backend in backends() {
        let kind = backend.kind();
        // The census races against sibling tests spawning their own engine
        // threads, so a single noisy sample may over-count; a genuine leak
        // (join-on-drop broken) raises the count on *every* attempt.
        let mut leak = None;
        for _ in 0..5 {
            let before = live_threads().unwrap();
            let mut engine: Engine<u64> =
                Engine::new(cfg(4, backend.clone()).delta_threshold(10.0)).unwrap();
            engine.ingest((0..4000u64).collect()).unwrap();
            engine.execute(&[Query::Median]).unwrap(); // builds the index
            engine.ingest((0..100u64).collect()).unwrap(); // populates the delta run
            assert!(
                engine.index_health().delta_len > 0,
                "{kind}: drop must land mid-lifecycle, with a non-empty delta run"
            );
            drop(engine); // join-on-drop: all worker threads must exit here
            let after = live_threads().unwrap();
            if after <= before {
                leak = None;
                break;
            }
            leak = Some((before, after));
        }
        if let Some((before, after)) = leak {
            panic!("{kind}: dropping the engine leaked worker threads ({before} -> {after})");
        }
    }
}

// ---------------------------------------------------------------------------
// Property test: random interleavings are byte-identical across backends.
// ---------------------------------------------------------------------------

mod interleavings {
    use super::*;
    use proptest::prelude::*;

    /// One deterministic op stream derived from the seeds: interleaved
    /// ingest / delete / query batches (queries drawn from a small pool so
    /// histogram fast paths and refinement both engage).
    fn apply_ops(backend: BackendChoice, seeds: &[u64]) -> (Vec<String>, IndexHealth) {
        let mut engine: Engine<u64> = Engine::new(cfg(3, backend)).unwrap();
        let mut resident: Vec<u64> = Vec::new();
        let mut transcript = Vec::new();
        for (i, &seed) in seeds.iter().enumerate() {
            match seed % 4 {
                0 | 3 if !resident.is_empty() => {
                    // A query batch: two quantiles + a rank derived from the seed.
                    let n = resident.len() as u64;
                    let queries = vec![
                        Query::quantile((seed % 101) as f64 / 100.0),
                        Query::Median,
                        Query::Rank(seed % n),
                    ];
                    let report = engine.execute(&queries).unwrap();
                    // "Byte-identical answer sequences": compare the full
                    // rendered answers, not just values.
                    transcript
                        .push(format!("{i}: {:?} ops={}", report.answers, report.collective_ops));
                }
                1 | 0 | 3 => {
                    // Ingest a burst derived from the seed.
                    let burst: Vec<u64> =
                        (0..40 + seed % 60).map(|j| (seed.wrapping_mul(j + 1)) % 10_007).collect();
                    resident.extend(&burst);
                    engine.ingest(burst).unwrap();
                    transcript.push(format!("{i}: ingest -> {}", engine.len()));
                }
                _ => {
                    // Delete a value class (possibly absent).
                    let victim = seed % 10_007;
                    let rep = engine.delete(&[victim]).unwrap();
                    resident.retain(|&x| x != victim);
                    transcript.push(format!("{i}: delete {} -> {}", rep.elements, engine.len()));
                }
            }
            assert_eq!(engine.len(), resident.len() as u64);
        }
        (transcript, engine.index_health())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Any interleaving of query/ingest/delete batches produces
        /// byte-identical answer sequences on LocalSpmd vs ChannelMp, with
        /// the index health counters (histogram hits, merges, rebuilds) in
        /// agreement.
        #[test]
        fn random_interleavings_agree(
            seeds in prop::collection::vec(1u64..1_000_000_000, 4..14),
        ) {
            let (local_log, local_health) = apply_ops(BackendChoice::LocalSpmd, &seeds);
            let (mp_log, mp_health) = apply_ops(super::channel_mp(), &seeds);
            prop_assert_eq!(
                local_log.join("\n").into_bytes(),
                mp_log.join("\n").into_bytes(),
                "backends diverged under interleaving {:?}", seeds
            );
            prop_assert_eq!(local_health, mp_health);
        }
    }
}

// ---------------------------------------------------------------------------
// Observability: span trees are part of the conformance surface.
// ---------------------------------------------------------------------------

#[test]
fn span_trees_agree_across_backends() {
    use cgselect::{Bounds, Request};
    // Phase brackets ride the deterministic virtual clock and the comm
    // counters, so with observability on, both backends must produce the
    // SAME span tree: same phases in the same order, same per-phase
    // collective counts, comm volumes and virtual times. Trace IDs are
    // process-global and excluded from the comparison by stamping them.
    let data: Vec<u64> = (0..6000u64).map(|i| i.wrapping_mul(48271) % 99_991).collect();
    let mut trees = Vec::new();
    for backend in backends() {
        let mut engine: Engine<u64> = Engine::new(cfg(4, backend).observe(true)).unwrap();
        engine.ingest(data.clone()).unwrap();
        engine.execute(&[Query::Median]).unwrap(); // builds the index
        let requests: Vec<Request<u64>> = vec![
            Query::quantile(0.25).to_request(),
            Query::Rank(17).to_request(),
            Request::rank_of(50_000),
            Request::count_between(Bounds::closed(10_000, 20_000)),
            Query::TopK(3).to_request(),
        ]
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.traced(cgselect::TraceId(100 + i as u64)))
        .collect();
        let report = engine.run(&requests).unwrap();
        let span = report.span.expect("observing engines must attach a batch span");
        assert_eq!(span.requests.len(), requests.len());
        for (req_span, req) in span.requests.iter().zip(&requests) {
            assert_eq!(Some(req_span.trace), req.trace, "spans must link back to their request");
        }
        trees.push((span.requests, span.phases));
    }
    assert_eq!(
        trees[0], trees[1],
        "backends must agree on the span tree: phases, collective counts, comm, virtual time"
    );
}

#[test]
fn observing_engines_answer_identically_with_identical_rounds() {
    // The zero-cost contract: observability must not perturb execution.
    // Same data, same batch — obs-on and obs-off engines must agree on
    // every answer AND every collective-round count, on both backends.
    let data: Vec<u64> = (0..4000u64).map(|i| i.wrapping_mul(2654435761) % 65_521).collect();
    for backend in backends() {
        let kind = backend.kind();
        let mut plain: Engine<u64> = Engine::new(cfg(4, backend.clone())).unwrap();
        let mut observed: Engine<u64> = Engine::new(cfg(4, backend).observe(true)).unwrap();
        plain.ingest(data.clone()).unwrap();
        observed.ingest(data.clone()).unwrap();
        let requests: Vec<cgselect::Request<u64>> =
            mixed_batch(data.len() as u64).iter().map(Query::to_request).collect();
        for label in ["build", "steady"] {
            let a = plain.run(&requests).unwrap();
            let b = observed.run(&requests).unwrap();
            let (va, vb): (Vec<_>, Vec<_>) = (
                a.outcomes.iter().map(|o| &o.response).collect(),
                b.outcomes.iter().map(|o| &o.response).collect(),
            );
            assert_eq!(va, vb, "{kind}/{label}: observability changed answers");
            assert_eq!(
                a.collective_ops, b.collective_ops,
                "{kind}/{label}: observability changed the collective-round count"
            );
            assert_eq!(a.makespan, b.makespan, "{kind}/{label}: observability charged time");
            assert!(a.span.is_none() && b.span.is_some());
        }
    }
}

#[test]
fn backend_kind_is_reported() {
    let local: Engine<u64> = Engine::new(cfg(2, BackendChoice::LocalSpmd)).unwrap();
    assert_eq!(local.backend_kind(), BackendKind::LocalSpmd);
    assert_eq!(local.backend_kind().to_string(), "local-spmd");
    let mp: Engine<u64> = Engine::new(cfg(2, channel_mp())).unwrap();
    assert_eq!(mp.backend_kind(), BackendKind::ChannelMp);
    assert_eq!(mp.backend_kind().to_string(), "channel-mp");
}

// ---------------------------------------------------------------------------
// SocketMp: shard workers as real child processes over Unix-domain sockets.
// Same conformance bar (oracle answers + collective-round parity), plus the
// process-only contracts: SIGKILL surfaces typed errors, drop reaps every
// child, and membership moves (migrate / join / retire / recover) keep the
// engine serving exact answers.
// ---------------------------------------------------------------------------

/// Builds the worker binary once if this test target was invoked without it
/// (e.g. `cargo test --test backend_conformance`, which only builds hashed
/// `deps/` artifacts). No-op when `target/<profile>/cgselect-shard-worker`
/// already exists — the CI socket-mp leg builds it explicitly.
fn ensure_worker_bin() {
    use std::sync::Once;
    static BUILD: Once = Once::new();
    BUILD.call_once(|| {
        let exe = std::env::current_exe().expect("current_exe");
        let profile_dir = exe
            .parent()
            .and_then(|deps| deps.parent())
            .expect("test executable must live under target/<profile>/deps");
        if profile_dir.join("cgselect-shard-worker").is_file() {
            return;
        }
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
        let mut cmd = std::process::Command::new(cargo);
        cmd.args(["build", "-p", "cgselect-engine", "--bin", "cgselect-shard-worker"]);
        if profile_dir.file_name().and_then(|n| n.to_str()) == Some("release") {
            cmd.arg("--release");
        }
        let status = cmd.status().expect("spawn cargo to build the shard worker");
        assert!(status.success(), "building cgselect-shard-worker failed");
    });
}

fn socket_mp() -> BackendChoice {
    ensure_worker_bin();
    BackendChoice::SocketMp(SocketMpTuning::default())
}

/// Short proc timeout so survivors of a killed peer self-release in
/// milliseconds (production default: 30 s), with a generous reply window
/// above it so slow CI machines never misreport a healthy worker.
fn socket_mp_faulty() -> BackendChoice {
    ensure_worker_bin();
    BackendChoice::SocketMp(
        SocketMpTuning::new()
            .reply_timeout(Duration::from_secs(10))
            .proc_timeout(Duration::from_millis(500)),
    )
}

fn process_alive(pid: u32) -> bool {
    std::path::Path::new(&format!("/proc/{pid}")).exists()
}

fn kill9(pid: u32) {
    let status = std::process::Command::new("kill")
        .args(["-9", &pid.to_string()])
        .status()
        .expect("spawn kill");
    assert!(status.success(), "kill -9 {pid} failed");
}

#[test]
fn conformance_socket_mp_all_distributions_with_in_process_round_parity() {
    for dist in ALL_DISTRIBUTIONS {
        let sock = run_lifecycle(socket_mp(), dist);
        assert!(sock.len() >= 5, "{dist:?}: lifecycle must cover every phase");
        // The process boundary must be unobservable: identical answers,
        // collective-round counts and index health, step for step, against
        // both in-process backends.
        let local = run_lifecycle(BackendChoice::LocalSpmd, dist);
        let mp = run_lifecycle(channel_mp(), dist);
        assert_eq!(sock, local, "{dist:?}: socket workers diverged from LocalSpmd");
        assert_eq!(sock, mp, "{dist:?}: socket workers diverged from ChannelMp");
    }
}

#[test]
fn socket_mp_inverse_ops_match_in_process_answers_and_rounds() {
    for dist in [Distribution::Random, Distribution::Zipf, Distribution::AllEqual] {
        let local = run_inverse_lifecycle(BackendChoice::LocalSpmd, dist);
        let sock = run_inverse_lifecycle(socket_mp(), dist);
        assert_eq!(
            local, sock,
            "{dist:?}: inverse answers / round counts must survive the process boundary"
        );
    }
}

/// Drives fresh exact ranks and unseen `RankOf` probes until refinement has
/// pushed the index past its bucket cap (64 at 16 target buckets) several
/// times, with ingest (and the delta merges it trips) and deletes in
/// between; oracle-checks every answer and records what the backend did.
fn run_coarsening_lifecycle(backend: BackendChoice) -> Vec<Step> {
    use cgselect::Request;
    let (p, cap, per_batch) = (4, 64, 8u64);
    let mut engine: Engine<u64> = Engine::new(cfg(p, backend)).unwrap();
    let mut all: Vec<u64> = (0..4000u64).map(|i| i.wrapping_mul(2654435761) % 100_003).collect();
    engine.ingest(all.clone()).unwrap();
    let mut steps = Vec::new();
    let mut coarsenings = 0;
    let mut state = 5u64;
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };
    for batch in 0..40u64 {
        if batch % 5 == 4 {
            let burst: Vec<u64> = (0..90).map(|_| next() % 100_003).collect();
            all.extend(&burst);
            engine.ingest(burst).unwrap();
        }
        if batch % 7 == 6 {
            let victims = [all[(next() as usize) % all.len()], all[(next() as usize) % all.len()]];
            engine.delete(&victims).unwrap();
            all.retain(|x| !victims.contains(x));
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        let n = sorted.len() as u64;
        let ranks: Vec<u64> = (0..per_batch).map(|_| next() % n).collect();
        let probes: Vec<u64> = (0..2).map(|_| next() % 100_003).collect();
        let requests: Vec<Request<u64>> = ranks
            .iter()
            .map(|&r| Request::rank(r))
            .chain(probes.iter().map(|&v| Request::rank_of(v)))
            .collect();
        let mut before = engine.index_health().buckets;
        if before > cap && batch % 2 == 0 {
            // A batch the host serves alone (here from the ε-sketch) still
            // coarsens every shard, through a plan that runs no collective.
            let sketch = engine.run(&[Request::median().within_rank(0.5)]).unwrap();
            assert_eq!(sketch.collective_ops, 0, "batch {batch}: drops-only plan");
            let after = engine.index_health().buckets;
            assert!(after < before, "batch {batch}: {before} buckets were not coarsened");
            (before, coarsenings) = (after, coarsenings + 1);
        }
        let report = engine.run(&requests).unwrap();
        let got: Vec<u64> = report
            .outcomes
            .iter()
            .map(|o| o.response.element().or(o.response.count()).expect("exact answer"))
            .collect();
        let expect: Vec<u64> = ranks
            .iter()
            .map(|&r| sorted[r as usize])
            .chain(probes.iter().map(|&v| sorted.partition_point(|&x| x < v) as u64))
            .collect();
        let label = format!("batch {batch}");
        assert_eq!(got, expect, "{}: {label} diverged from the oracle", engine.backend_kind());
        let health = engine.index_health();
        assert_eq!(health.rebuilds, 1, "{label}: coarsening must not rebuild ({health:?})");
        // Coarsening runs at plan time, so between batches the count may
        // exceed the cap by at most one batch's refinement.
        assert!(health.buckets <= cap + 2 * (per_batch as usize + 2), "{label}: {health:?}");
        if before > cap {
            assert!(health.buckets < before, "{label}: {before} buckets were not coarsened");
            coarsenings += 1;
        }
        steps.push(Step {
            label,
            answers: got.into_iter().map(Answer::Value).collect(),
            collective_ops: report.collective_ops,
            histogram_answers: report.histogram_answers,
            len: engine.len(),
            health,
        });
    }
    let health = engine.index_health();
    assert!(
        coarsenings >= 3,
        "{}: crossed the cap only {coarsenings} times",
        engine.backend_kind()
    );
    assert!(health.delta_merges >= 1, "ingest bursts must trip a delta merge ({health:?})");
    steps
}

#[test]
fn socket_mp_coarsening_in_place_agrees_with_in_process_backends() {
    let local = run_coarsening_lifecycle(BackendChoice::LocalSpmd);
    let mp = run_coarsening_lifecycle(channel_mp());
    let sock = run_coarsening_lifecycle(socket_mp());
    assert_eq!(local, mp, "ChannelMp diverged from LocalSpmd while coarsening");
    assert_eq!(sock, local, "SocketMp diverged from LocalSpmd while coarsening");
}

#[test]
fn socket_mp_sigkill_mid_batch_surfaces_typed_error_and_poisons() {
    let mut engine: Engine<u64> = Engine::new(cfg(3, socket_mp_faulty())).unwrap();
    engine.ingest((0..3000u64).map(|i| i.wrapping_mul(2654435761)).collect()).unwrap();
    engine.execute(&[Query::Median]).unwrap();

    let pids = engine.worker_pids();
    assert_eq!(pids.len(), 3, "one OS process per shard");
    kill9(pids[1]);
    // SIGKILL closes rank 1's sockets; the next batch's collective wedges on
    // the dead peer and must resolve to a *typed* error on the killed rank —
    // never a hang (survivors self-release via the proc timeout, and their
    // disconnect fallout is triaged as secondary).
    let t0 = Instant::now();
    let err = engine.execute(&mixed_batch(3000)).unwrap_err();
    assert!(
        t0.elapsed() < Duration::from_secs(8),
        "a killed worker must fail the batch fast, took {:?}",
        t0.elapsed()
    );
    match err {
        EngineError::Backend(BackendError::WorkerUnresponsive { rank })
        | EngineError::Backend(BackendError::WorkerPanicked { rank, .. }) => {
            assert_eq!(rank, 1, "the killed rank must be reported, got {err:?}");
        }
        other => panic!("expected a typed rank-1 worker failure, got {other:?}"),
    }

    // Poisoned: subsequent work is rejected without touching the ring.
    let t0 = Instant::now();
    let err = engine.execute(&[Query::Median]).unwrap_err();
    assert_eq!(err, EngineError::Backend(BackendError::Poisoned));
    assert!(t0.elapsed() < Duration::from_millis(100), "poisoned rejection must be fast");
    drop(engine); // must still reap the two survivors (checked below)
}

#[test]
fn socket_mp_drop_reaps_every_worker_process() {
    let mut engine: Engine<u64> = Engine::new(cfg(4, socket_mp())).unwrap();
    engine.ingest((0..1000u64).rev().collect()).unwrap();
    engine.execute(&[Query::Median]).unwrap();
    let pids = engine.worker_pids();
    assert_eq!(pids.len(), 4);
    for &pid in &pids {
        assert!(process_alive(pid), "worker {pid} should be running");
    }
    drop(engine);
    // Drop sends EXIT and waits on every child: no orphans, no zombies (a
    // zombie still has a /proc entry, so this catches unreaped children too).
    for &pid in &pids {
        assert!(!process_alive(pid), "worker {pid} leaked past engine drop");
    }
}

#[test]
fn socket_mp_migration_mid_query_stream_is_invisible() {
    let p = 4;
    let n = 3000usize;
    let data: Vec<u64> =
        cgselect::generate(Distribution::Zipf, n, p, 77).into_iter().flatten().collect();
    let mut migrating: Engine<u64> = Engine::new(cfg(p, socket_mp())).unwrap();
    let mut reference: Engine<u64> = Engine::new(cfg(p, socket_mp())).unwrap();
    let mut all: Vec<u64> = Vec::new();

    let check = |migrating: &mut Engine<u64>,
                 reference: &mut Engine<u64>,
                 all: &[u64],
                 label: &str| {
        let mut sorted = all.to_vec();
        sorted.sort_unstable();
        let queries = mixed_batch(sorted.len() as u64);
        let a = migrating.execute(&queries).unwrap();
        let b = reference.execute(&queries).unwrap();
        assert_eq!(a.answers, oracle_answers(&sorted, &queries), "{label}: oracle divergence");
        assert_eq!(a.answers, b.answers, "{label}: migration changed answers");
        assert_eq!(a.collective_ops, b.collective_ops, "{label}: migration changed round counts");
        assert_eq!(
            migrating.index_health(),
            reference.index_health(),
            "{label}: migration must keep the histogram warm (no extra rebuilds/merges)"
        );
    };

    // Build the index, then migrate two shards mid-stream and keep serving.
    let (bulk, tail) = data.split_at(2 * n / 3);
    all.extend_from_slice(bulk);
    migrating.ingest(bulk.to_vec()).unwrap();
    reference.ingest(bulk.to_vec()).unwrap();
    check(&mut migrating, &mut reference, &all, "before migration");

    let before = migrating.worker_pids();
    migrating.migrate_shard(1).unwrap();
    migrating.migrate_shard(3).unwrap();
    let after = migrating.worker_pids();
    assert_ne!(before[1], after[1], "migration must move the shard to a fresh process");
    assert_ne!(before[3], after[3], "migration must move the shard to a fresh process");
    assert_eq!(before[0], after[0], "unmigrated shards must keep their process");
    assert!(!process_alive(before[1]), "the migrated-away worker must be reaped");
    check(&mut migrating, &mut reference, &all, "after migration");

    // The rest of the stream rides the delta run and a delete, still in step.
    all.extend_from_slice(tail);
    migrating.ingest(tail.to_vec()).unwrap();
    reference.ingest(tail.to_vec()).unwrap();
    check(&mut migrating, &mut reference, &all, "delta after migration");
    let victim = {
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted[n / 3]
    };
    migrating.delete(&[victim]).unwrap();
    reference.delete(&[victim]).unwrap();
    all.retain(|&x| x != victim);
    check(&mut migrating, &mut reference, &all, "delete after migration");
}

#[test]
fn socket_mp_join_and_retire_keep_serving_exact_answers() {
    let mut engine: Engine<u64> = Engine::new(cfg(3, socket_mp())).unwrap();
    let mut all: Vec<u64> = (0..2000u64).map(|i| i.wrapping_mul(48271) % 100_003).collect();
    engine.ingest(all.clone()).unwrap();

    let check = |engine: &mut Engine<u64>, all: &[u64], label: &str| {
        let mut sorted = all.to_vec();
        sorted.sort_unstable();
        let queries = mixed_batch(sorted.len() as u64);
        let report = engine.execute(&queries).unwrap();
        assert_eq!(report.answers, oracle_answers(&sorted, &queries), "{label}: wrong answers");
        assert_eq!(engine.len(), all.len() as u64, "{label}: population drifted");
    };
    check(&mut engine, &all, "initial p=3");

    // Grow: a fresh empty worker joins at the top rank.
    assert_eq!(engine.join_worker().unwrap(), 4);
    assert_eq!(engine.worker_pids().len(), 4);
    check(&mut engine, &all, "after join");
    let burst: Vec<u64> = (0..500u64).map(|i| i.wrapping_mul(69621) % 99_991).collect();
    all.extend_from_slice(&burst);
    engine.ingest(burst).unwrap();
    check(&mut engine, &all, "ingest over the grown ring");

    // Shrink: retiring merges the leaver's shard into a survivor — no data
    // is lost, ranks above shift down, and the ring keeps serving all the
    // way to a single worker (the degenerate one-process fabric).
    assert_eq!(engine.retire_worker(0).unwrap(), 3);
    check(&mut engine, &all, "after retiring rank 0");
    assert_eq!(engine.retire_worker(1).unwrap(), 2);
    assert_eq!(engine.retire_worker(0).unwrap(), 1);
    assert_eq!(engine.worker_pids().len(), 1);
    check(&mut engine, &all, "single surviving worker");

    // The last shard refuses to retire.
    let err = engine.retire_worker(0).unwrap_err();
    assert!(
        matches!(err, EngineError::Backend(BackendError::Unsupported { .. })),
        "retiring the last shard must be a typed refusal, got {err:?}"
    );
    check(&mut engine, &all, "still serving after the refusal");
}

// ---------------------------------------------------------------------------
// The ε-sketch rung is part of the conformance surface: a WithinRank-tolerant
// stream must be served from the host-global deterministic sketch with ZERO
// collectives, and — because the sketch is RNG-free — with bit-identical
// answers, guarantees and `Served` routing on every backend, through the
// full ingest / delete / migrate / rebalance lifecycle.
// ---------------------------------------------------------------------------

/// What one tolerant-batch step observed — everything that must be
/// identical across backends for the sketch rung.
#[derive(Debug, Clone, PartialEq)]
struct SketchStep {
    label: String,
    outcomes: Vec<(cgselect::Served, String)>,
    collective_ops: u64,
}

/// Drives a WithinRank-tolerant mixed stream (rank→value quantiles plus
/// value→rank and range-count probes) through the mutation lifecycle,
/// asserting at every step that the whole batch rides the sketch rung at
/// zero collectives and every answer honors its reported guarantee.
fn run_sketch_lifecycle(backend: BackendChoice, dist: Distribution) -> Vec<SketchStep> {
    use cgselect::{Bounds, Request, Served};
    let p = 4;
    let n = 3000usize;
    let tol = 0.05;
    let data: Vec<u64> = cgselect::generate(dist, n, p, 59).into_iter().flatten().collect();
    let mut engine: Engine<u64> = Engine::new(cfg(p, backend).sketch_capacity(256)).unwrap();
    let mut all: Vec<u64> = Vec::new();
    let mut steps: Vec<SketchStep> = Vec::new();

    let check = |engine: &mut Engine<u64>, all: &[u64], label: &str| -> SketchStep {
        let mut sorted = all.to_vec();
        sorted.sort_unstable();
        let m = sorted.len();
        let (lo, hi) = (sorted[m / 4], sorted[(3 * m) / 4]);
        let fracs = [0.1, 0.5, 0.9];
        let mut requests: Vec<Request<u64>> =
            fracs.iter().map(|&q| Request::<u64>::quantile(q).within_rank(tol)).collect();
        requests.push(Request::rank_of(sorted[m / 2]).within_rank(tol));
        requests.push(Request::count_between(Bounds::closed(lo, hi)).within_rank(tol));
        let report = engine.run(&requests).unwrap();
        let kind = engine.backend_kind();

        // The whole tolerant batch is served host-side: no collectives, no
        // backend phases, every request routed to the sketch rung.
        assert_eq!(
            report.collective_ops, 0,
            "{kind} {label} ({dist:?}): tolerant batches must be collective-free"
        );
        let budget = (tol * m as f64).ceil() as u64;
        let oracle = |v: u64, incl: bool| {
            if incl {
                sorted.partition_point(|&x| x <= v) as u64
            } else {
                sorted.partition_point(|&x| x < v) as u64
            }
        };
        for (i, outcome) in report.outcomes.iter().enumerate() {
            // The sketch rung serves every tolerant request unless the
            // cached histogram can answer it exactly (still host-side, and
            // step equality pins the routing choice across backends).
            assert!(
                matches!(outcome.served, Served::Sketch | Served::Histogram),
                "{kind} {label} ({dist:?}): request {i} must be served host-side, got {:?}",
                outcome.served
            );
            let max_error = outcome.response.max_error();
            assert!(
                max_error <= budget,
                "{kind} {label} ({dist:?}): request {i} guarantee {max_error} > budget {budget}"
            );
            if let Some(&q) = fracs.get(i) {
                // Rank→value: the answer's true rank interval must be
                // within the reported guarantee of the target.
                let target = quantile_rank(q, m as u64);
                let v = outcome.response.element().expect("value answer");
                let (lo_r, hi_r) = (oracle(v, false), oracle(v, true) - 1);
                let dist_to =
                    if target < lo_r { lo_r - target } else { target.saturating_sub(hi_r) };
                assert!(
                    dist_to <= max_error,
                    "{kind} {label} ({dist:?}): quantile {q} answer {v} off by {dist_to} \
                     > guarantee {max_error}"
                );
            } else {
                // Value→rank / range count: within the reported guarantee
                // of the exact count.
                let truth = if i == 3 {
                    oracle(sorted[m / 2], false)
                } else {
                    oracle(hi, true) - oracle(lo, false)
                };
                let count = outcome.response.count().expect("count answer");
                assert!(
                    count.abs_diff(truth) <= max_error,
                    "{kind} {label} ({dist:?}): count {count} vs {truth} \
                     > guarantee {max_error}"
                );
            }
        }
        SketchStep {
            label: label.to_string(),
            outcomes: report
                .outcomes
                .iter()
                .map(|o| (o.served, format!("{:?}", o.response)))
                .collect(),
            collective_ops: report.collective_ops,
        }
    };

    // Bulk + delta bursts feed the host sketch incrementally at ingest.
    let (bulk, tail) = data.split_at(2 * n / 3);
    all.extend_from_slice(bulk);
    engine.ingest(bulk.to_vec()).unwrap();
    steps.push(check(&mut engine, &all, "bulk"));
    all.extend_from_slice(tail);
    engine.ingest(tail.to_vec()).unwrap();
    steps.push(check(&mut engine, &all, "delta"));

    // A delete rebuilds the host sketch by merging the shards' exports
    // (skipped for the single-value distribution, which it would empty).
    if all.iter().any(|&x| x != all[0]) {
        let victims = {
            let mut sorted = all.clone();
            sorted.sort_unstable();
            vec![sorted[n / 4], sorted[(3 * n) / 4]]
        };
        engine.delete(&victims).unwrap();
        all.retain(|x| !victims.contains(x));
        steps.push(check(&mut engine, &all, "delete"));
    }

    // Migration moves a shard — and its sketch, inside the snapshot — to a
    // fresh process without changing the multiset: the rung must answer
    // identically before and after (SocketMp only; the in-process backends
    // have no migration verb).
    if engine.backend_kind() == BackendKind::SocketMp {
        let before = steps.last().expect("at least one step recorded").clone();
        engine.migrate_shard(1).unwrap();
        let after = check(&mut engine, &all, "migrate");
        assert_eq!(
            after.outcomes, before.outcomes,
            "{dist:?}: migration must be invisible to the sketch rung"
        );
    }

    // A hot burst trips the rebalance watermark; the sketch absorbs the
    // burst at ingest and the shard shuffle leaves it untouched.
    let hot: Vec<u64> = (0..all.len() as u64).map(|i| i.wrapping_mul(2654435761)).collect();
    all.extend(&hot);
    let rep = engine.ingest_pinned(1, hot).unwrap();
    assert!(rep.rebalanced, "{dist:?}: watermark must trip");
    steps.push(check(&mut engine, &all, "rebalance"));
    steps
}

#[test]
fn sketch_rung_agrees_across_in_process_backends_all_distributions() {
    for dist in ALL_DISTRIBUTIONS {
        let local = run_sketch_lifecycle(BackendChoice::LocalSpmd, dist);
        let mp = run_sketch_lifecycle(channel_mp(), dist);
        assert_eq!(
            local, mp,
            "{dist:?}: sketch-rung answers, guarantees and routing must be bit-identical"
        );
    }
}

#[test]
fn socket_mp_sketch_rung_matches_in_process_through_migration() {
    for dist in ALL_DISTRIBUTIONS {
        let local = run_sketch_lifecycle(BackendChoice::LocalSpmd, dist);
        let sock = run_sketch_lifecycle(socket_mp(), dist);
        assert_eq!(
            local, sock,
            "{dist:?}: the process boundary (and migration) must be invisible to the \
             sketch rung"
        );
    }
}

#[test]
fn socket_mp_self_heal_replaces_killed_worker_and_serves_survivors() {
    use cgselect::{Bounds, Request};
    let p = 4;
    let mut engine: Engine<u64> = Engine::new(cfg(p, socket_mp_faulty()).self_heal(true)).unwrap();
    let data: Vec<u64> = (0..2000u64).map(|i| i.wrapping_mul(2654435761) % 1_000_003).collect();
    engine.ingest(data.clone()).unwrap();
    engine.execute(&[Query::Median]).unwrap();

    // One ingest from a fresh engine round-robins element i onto shard
    // i % p, so the post-crash surviving multiset is computable exactly.
    let killed = 2usize;
    let pids = engine.worker_pids();
    kill9(pids[killed]);
    let mut surviving: Vec<u64> =
        data.iter().enumerate().filter_map(|(i, &x)| (i % p != killed).then_some(x)).collect();
    surviving.sort_unstable();

    // "Detect, re-shard, keep serving": the run hits the dead worker,
    // recovers (respawn empty + fabric rewire + size resync) and retries —
    // the caller sees zero failed queries.
    let median = surviving[surviving.len() / 2];
    let lo = surviving[surviving.len() / 4];
    let hi = surviving[(3 * surviving.len()) / 4];
    let requests = vec![Request::rank_of(median), Request::count_between(Bounds::closed(lo, hi))];
    let report = engine.run(&requests).unwrap();
    let counts: Vec<u64> =
        report.outcomes.iter().map(|o| o.response.count().expect("count answer")).collect();
    let below = |v: u64| surviving.partition_point(|&x| x < v) as u64;
    let through = |v: u64| surviving.partition_point(|&x| x <= v) as u64;
    assert_eq!(counts, vec![below(median), through(hi) - below(lo)]);
    assert_eq!(engine.len(), surviving.len() as u64, "survivors' population must be exact");

    // The dead rank runs in a fresh process; the ring is back to full width
    // and exact batches serve the surviving multiset.
    let after = engine.worker_pids();
    assert_eq!(after.len(), p);
    assert_ne!(after[killed], pids[killed], "the killed rank must have been respawned");
    let queries = mixed_batch(surviving.len() as u64);
    let exact = engine.execute(&queries).unwrap();
    assert_eq!(exact.answers, oracle_answers(&surviving, &queries));
}
