//! Turns measured legs into the named metrics the benchmark reports.

use std::collections::BTreeSet;

use cgselect_engine::FrontendStats;

use crate::probes::Probes;
use crate::stats::{median, percentile};
use crate::trace::Span;
use crate::workload::{Leg, Segment, Workload, SETUP_OP};

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn push(out: &mut Vec<Metric>, name: impl Into<String>, value: f64, unit: &'static str) {
    out.push(Metric { name: name.into(), value, unit });
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Share of a pass's operations that succeeded.
pub fn success_rate(legs: &[Leg]) -> f64 {
    let ops: usize = legs.iter().map(|l| l.problems.len()).sum();
    let failed = legs.iter().flat_map(|l| &l.problems).filter(|p| !p.is_empty()).count();
    1.0 - ratio(failed as f64, ops as f64)
}

/// Which of a leg's segments an end-to-end timing is read from: the 10th
/// percentile over the segments, ranked from fast to slow, of each
/// segment's statistic. The shared host the benchmark runs on slows down
/// for seconds to minutes at a time (CPU steal, busy neighbours), which
/// inflates whole segments; a low quantile over many short segments reads
/// the program in the host's quiet stretches, while a change that slows
/// every operation still moves every segment, the quiet ones included.
const QUIET: f64 = 0.1;

/// The `QUIET` quantile of a per-segment timing over a leg's segments;
/// `higher_is_faster` for rates, whose quiet segments are the highest.
fn quiet(leg: &Leg, higher_is_faster: bool, stat: impl Fn(&Segment) -> f64) -> f64 {
    let q = if higher_is_faster { 1.0 - QUIET } else { QUIET };
    percentile(&leg.segments.iter().map(stat).collect::<Vec<_>>(), q)
}

/// Median operation latency of a leg: each segment's median, read from the
/// quiet segments.
fn latency_p50(leg: &Leg) -> f64 {
    quiet(leg, false, |s| median(&s.latency_ms))
}

/// The end-to-end metrics of one pass.
pub fn end_to_end(legs: &[Leg]) -> Vec<Metric> {
    let mut out = Vec::new();
    for leg in legs {
        let be = leg.backend.name();
        push(&mut out, format!("latency_p50_ms.{be}"), latency_p50(leg), "ms");
        let throughput = quiet(leg, true, |s| ratio(s.work, s.busy_s));
        push(&mut out, format!("throughput.{be}"), throughput, "1/s");
    }
    let setup: f64 = legs.iter().map(|l| median(&l.setup_s)).sum();
    push(&mut out, "setup_s", setup, "s");
    push(&mut out, "success_rate", success_rate(legs), "fraction");
    out
}

/// The 99th-percentile latencies of one pass, over all of a leg's
/// operations: a per-layer diagnostic, since they do not repeat run to run
/// on a shared host (see README.md).
fn tail_latency(legs: &[Leg]) -> Vec<Metric> {
    let mut out = Vec::new();
    for leg in legs {
        let be = leg.backend.name();
        let all: Vec<f64> =
            leg.segments.iter().flat_map(|s| s.latency_ms.iter().copied()).collect();
        push(&mut out, format!("latency_p99_ms.{be}"), percentile(&all, 0.99), "ms");
    }
    out
}

/// Durations (ms) of the client-operation spans named `name` on a leg,
/// optionally only for the operations in `ops`.
fn op_spans(leg: &Leg, name: &str, ops: Option<&BTreeSet<u64>>) -> Vec<f64> {
    leg.spans
        .iter()
        .filter(|s| s.name == name && s.op != SETUP_OP)
        .filter(|s| ops.is_none_or(|o| o.contains(&s.op)))
        .map(Span::dur_ms)
        .collect()
}

fn probe_ms(leg: &Leg, name: &str) -> f64 {
    leg.spans.iter().filter(|s| s.name == name).map(Span::dur_ms).sum()
}

/// The per-layer metrics of a traced run: the untraced pass's tail
/// latencies, the layer metrics of the traced pass `legs`, and the tracing
/// overhead (traced minus untraced) of every latency and end-to-end metric.
pub fn per_layer(
    workload: Workload,
    untraced_legs: &[Leg],
    legs: &[Leg],
    probes: &Probes,
) -> Vec<Metric> {
    let untraced = [end_to_end(untraced_legs), tail_latency(untraced_legs)].concat();
    let traced = [end_to_end(legs), tail_latency(legs)].concat();
    let mut out = tail_latency(untraced_legs);
    let local = &legs[0];
    let c = &local.counts;
    let batches = c.batches as f64;
    push(
        &mut out,
        "runtime.collective_ops_per_batch",
        ratio(c.collective_ops as f64, batches),
        "count",
    );
    push(&mut out, "runtime.msgs_per_batch", ratio(c.msgs as f64, batches), "count");
    push(&mut out, "runtime.bytes_per_batch", ratio(c.bytes as f64, batches), "bytes");
    push(&mut out, "core.exact_ranks_per_batch", ratio(c.exact_ranks as f64, batches), "count");
    let virtual_ms = median(&local.makespan_ms);
    push(&mut out, "runtime.virtual_makespan_ms_p50", virtual_ms, "ms");
    let run_p50: Vec<f64> = legs.iter().map(|l| median(&op_spans(l, "engine.run", None))).collect();
    for (leg, &wall) in legs.iter().zip(&run_p50) {
        let be = leg.backend.name();
        push(&mut out, format!("runtime.wall_over_virtual.{be}"), ratio(wall, virtual_ms), "ratio");
    }
    for (leg, &wall) in legs.iter().zip(&run_p50).skip(1) {
        let be = leg.backend.name();
        push(&mut out, format!("backend.transport_ms_p50.{be}"), wall - run_p50[0], "ms");
    }
    let socket = &legs[2];
    push(&mut out, "backend.migrate_ms", probe_ms(socket, "backend.migrate_shard"), "ms");
    push(&mut out, "backend.join_ms", probe_ms(socket, "backend.join_worker"), "ms");
    push(&mut out, "backend.retire_ms", probe_ms(socket, "backend.retire_worker"), "ms");
    push(&mut out, "seqsel.count_below_ns_per_elem", probes.count_below_ns_per_elem, "ns");
    push(&mut out, "seqsel.partition_ns_per_elem", probes.partition_ns_per_elem, "ns");
    for leg in legs {
        let be = leg.backend.name();
        let f = &leg.frontend;
        let sum = |g: fn(&FrontendStats) -> f64| f.iter().map(g).fold(0.0, |a, b| a + b);
        let wait_s = sum(|s| s.total_wait.as_secs_f64());
        let wait_max_s = f.iter().map(|s| s.max_wait.as_secs_f64()).fold(0.0, f64::max);
        let batches = sum(|s| s.batches as f64);
        let mean_wait_ms = 1e3 * ratio(wait_s, sum(|s| s.processed() as f64));
        push(&mut out, format!("frontend.wait_ms_mean.{be}"), mean_wait_ms, "ms");
        push(&mut out, format!("frontend.wait_ms_max.{be}"), wait_max_s * 1e3, "ms");
        let occupancy = ratio(sum(|s| s.queries_executed as f64), batches);
        push(&mut out, format!("frontend.batch_occupancy_mean.{be}"), occupancy, "count");
        push(&mut out, format!("frontend.batches.{be}"), batches, "count");
        push(&mut out, format!("frontend.rejected.{be}"), sum(|s| s.rejected as f64), "count");
        let self_ms = if workload == Workload::ServeMixed {
            median(&op_spans(leg, "frontend.request", None)) - leg.batch_wall_p50_ms
        } else {
            0.0
        };
        push(&mut out, format!("frontend.self_ms_p50.{be}"), self_ms, "ms");
        push(&mut out, format!("bench.gen_late_ms_max.{be}"), leg.gen_late_ms_max, "ms");
    }
    let host_only = local.marked("host_only");
    let host_us = median(&op_spans(local, "engine.run", Some(&host_only))) * 1e3;
    push(&mut out, "engine.host_only_run_us_p50", host_us, "us");
    let outcomes = c.outcomes as f64;
    push(&mut out, "index.histogram_frac", ratio(c.histogram as f64, outcomes), "fraction");
    push(&mut out, "sketch.served_frac", ratio(c.sketch as f64, outcomes), "fraction");
    push(&mut out, "sketch.err_over_guarantee_max", c.err_ratio_max, "ratio");
    push(&mut out, "sketch.merge_us", probes.sketch_merge_us, "us");
    for leg in legs {
        let be = leg.backend.name();
        let ingest = op_spans(leg, "engine.ingest", None);
        let delete = op_spans(leg, "engine.delete", None);
        push(&mut out, format!("engine.ingest_ms_p50.{be}"), median(&ingest), "ms");
        push(&mut out, format!("engine.ingest_ms_p99.{be}"), percentile(&ingest, 0.99), "ms");
        push(&mut out, format!("engine.delete_ms_p50.{be}"), median(&delete), "ms");
        push(&mut out, format!("engine.delete_ms_p99.{be}"), percentile(&delete, 0.99), "ms");
    }
    push(&mut out, "index.rebuilds", c.rebuilds as f64, "count");
    push(&mut out, "index.delta_merges", c.delta_merges as f64, "count");
    push(&mut out, "index.delta_occupancy_mean", ratio(c.delta_occupancy_sum, batches), "fraction");
    push(&mut out, "standing.refreshes", c.standing_refreshes as f64, "count");
    let zero_frac = ratio(c.standing_zero_collective as f64, c.standing_refreshes as f64);
    push(&mut out, "standing.zero_collective_frac", zero_frac, "fraction");
    push(&mut out, "balance.rebalances", c.rebalances as f64, "count");
    for leg in legs {
        let be = leg.backend.name();
        let refreshed = leg.marked("refreshed");
        let refresh = op_spans(leg, "standing.refresh_standing", Some(&refreshed));
        push(&mut out, format!("standing.refresh_ms_p50.{be}"), median(&refresh), "ms");
        let rebalanced = leg.marked("rebalanced");
        let rebalance = op_spans(leg, "engine.ingest_pinned", Some(&rebalanced));
        push(&mut out, format!("balance.rebalance_ingest_ms.{be}"), median(&rebalance), "ms");
    }
    for (u, t) in untraced.iter().zip(&traced) {
        push(&mut out, format!("trace.overhead.{}", u.name), t.value - u.value, u.unit);
    }
    out
}

/// Per-layer self time (ms) of a traced pass's client operations, one
/// line per backend and layer, with its share of the leg's operation time.
pub fn self_time_table(workload: Workload, legs: &[Leg]) -> String {
    let ops: Vec<Span> =
        legs.iter().flat_map(|l| l.spans.iter().filter(|s| s.op != SETUP_OP).cloned()).collect();
    let table = crate::trace::self_times(&ops);
    let mut text =
        format!("self time per layer ({}, traced run, client operations):\n", workload.name());
    for (idx, leg) in legs.iter().enumerate() {
        let name = leg.backend.name();
        let total: f64 = table.iter().filter(|((l, _), _)| *l == idx).map(|(_, v)| v).sum();
        for ((l, layer), ms) in &table {
            if *l == idx {
                let share = 100.0 * ratio(*ms, total);
                text.push_str(&format!("  {name:<11} {layer:<9} {ms:>12.3} ms {share:>6.2}%\n"));
            }
        }
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::BACKENDS;

    /// The `name` values of one array section of `BENCHMARK.json`.
    fn names(json: &str, section: &str) -> Vec<String> {
        let start = json.find(&format!("\"{section}\"")).expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\": \"").skip(1).map(|s| s[..s.find('"').unwrap()].to_string()).collect()
    }

    #[test]
    fn reported_metrics_match_benchmark_json() {
        let json = std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json");
        let legs: Vec<Leg> = BACKENDS.iter().map(|&b| Leg::new(b)).collect();
        let e2e = end_to_end(&legs);
        let layers = per_layer(Workload::FreshExact, &legs, &legs, &Probes::default());
        let got = |m: &[Metric]| m.iter().map(|m| m.name.clone()).collect::<Vec<_>>();
        assert_eq!(got(&e2e), names(&json, "end_to_end"));
        assert_eq!(got(&layers), names(&json, "per_layer"));
    }
}
