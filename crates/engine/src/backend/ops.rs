//! The per-shard halves of every engine operation, shared by all backends.
//!
//! Each function here is the body one virtual processor runs for one
//! engine verb (ingest, delete, rebalance, index build, delta merge, batch
//! execution). [`super::LocalSpmd`] invokes them from `Session::run`
//! closures; [`super::ChannelMp`] invokes them from each shard's long-lived
//! worker thread after decoding a command frame. Because both backends run
//! *this exact code* over the same [`Proc`] collectives, they produce
//! identical answers **and identical collective-round counts** — the
//! property `tests/backend_conformance.rs` pins down.

use std::ops::Range;

use cgselect_balance::{rebalance, Balancer};
use cgselect_core::{parallel_multi_select_windows, RankedWindow};
use cgselect_runtime::{Key, Proc};
use cgselect_seqsel::{
    bucket_of, bucket_search_cmps, count_below_kernel, count_below_reference, partition_by_bounds,
    scalar_reference_mode, OpCount, SepBound,
};

use crate::index::{
    bucket_stats, build_shard_index, refine_region, splitters_from_samples, BucketStats, ShardIndex,
};
use crate::obs::{Phase, PhaseSpan};
use crate::sketch::EpsSketch;

use super::{BatchPlan, PhaseOps, ShardBatchOutcome, ShardDeletion};

/// Per-shard resident data plus its sketch and (optional) bucket index.
/// Lives wherever the backend keeps shard state: in the worker's
/// `ShardStore` for [`super::LocalSpmd`], owned directly by the shard's
/// worker thread for [`super::ChannelMp`].
pub(crate) struct Shard<T> {
    pub(crate) data: Vec<T>,
    pub(crate) sketch: EpsSketch<T>,
    pub(crate) index: Option<ShardIndex<T>>,
}

/// The empty shard every backend installs at construction. The sketch is
/// deterministic (no RNG), so every rank builds an identical empty state —
/// no per-rank seed decorrelation needed anymore.
pub(crate) fn init_shard<T: Key>(sketch_capacity: usize) -> Shard<T> {
    Shard { data: Vec::new(), sketch: EpsSketch::new(sketch_capacity), index: None }
}

/// Ingest: appends this shard's chunk past the indexed prefix (so the new
/// elements *are* the delta run), maintains the sketch incrementally, and
/// returns the shard's new size.
pub(crate) fn ingest_shard<T: Key>(proc: &mut Proc, shard: &mut Shard<T>, mine: Vec<T>) -> u64 {
    proc.charge_ops(mine.len() as u64);
    shard.sketch.extend(&mine);
    shard.data.extend_from_slice(&mine);
    shard.data.len() as u64
}

/// Delete: removes every occurrence of the (sorted, deduplicated) values
/// in one compacting pass (see [`compact_shard`]), then rebuilds the sketch
/// if anything went. Every comparison and element move is counted,
/// matching how the selection kernels charge their measured work.
pub(crate) fn delete_shard<T: Key>(
    proc: &mut Proc,
    shard: &mut Shard<T>,
    sorted: &[T],
) -> ShardDeletion {
    let before = shard.data.len();
    let mut ops = OpCount::new();
    let removed = compact_shard(&mut shard.data, shard.index.as_mut(), sorted, &mut ops);
    proc.charge_ops(ops.total());
    if shard.data.len() != before {
        shard.sketch.rebuild(&shard.data);
        proc.charge_ops(shard.data.len() as u64);
    }
    ShardDeletion { remaining: shard.data.len() as u64, removed }
}

/// Rebalance: runs the configured balancer over the shard data (dropping
/// the bucket index, whose splitters a rebalance invalidates), rebuilds the
/// sketch, and returns the shard's new size.
pub(crate) fn rebalance_shard<T: Key>(
    proc: &mut Proc,
    shard: &mut Shard<T>,
    balancer: Balancer,
) -> u64 {
    shard.index = None;
    rebalance(balancer, proc, &mut shard.data);
    shard.sketch.rebuild(&shard.data);
    proc.charge_ops(shard.data.len() as u64);
    shard.data.len() as u64
}

/// Index (re)build: the shards pool their sample sketches through one
/// collective, derive the identical splitter vector, partition their data
/// (delta run included) and report the shared splitters plus the
/// per-bucket summary for the host's cached global histogram (the host
/// mirrors the splitters so it can classify delta elements and replay
/// refinement without a collective).
pub(crate) fn build_index_shard<T: Key>(
    proc: &mut Proc,
    shard: &mut Shard<T>,
    nb: usize,
) -> (Vec<SepBound<T>>, BucketStats<T>) {
    // Sample source: evenly rank-spaced quantile points drawn from the
    // resident ε-sketch (maintained on ingest), so the pooled splitters
    // inherit the sketch's deterministic rank spread; a strided data
    // sample when sketches are disabled.
    let want = (4 * nb).max(1);
    let mut samples: Vec<T> = shard.sketch.quantile_points(want);
    if samples.is_empty() {
        let stride = (shard.data.len() / want).max(1);
        samples = shard.data.iter().copied().step_by(stride).take(want).collect();
    }
    proc.charge_ops(samples.len() as u64);
    let mut pool: Vec<T> = proc.all_gatherv(samples).into_iter().flatten().collect();
    let m = pool.len() as u64;
    pool.sort_unstable();
    proc.charge_ops(m * (1 + m.max(2).ilog2() as u64));
    let bounds = splitters_from_samples(&pool, nb);
    let mut ops = OpCount::new();
    let (idx, stats) = build_shard_index(&mut shard.data, bounds.clone(), &mut ops);
    proc.charge_ops(ops.total() + shard.data.len() as u64);
    shard.index = Some(idx);
    (bounds, stats)
}

/// Delta merge: partitions the delta run by the shared splitters and
/// rebuilds the flat storage with each bucket's delta members appended,
/// returning the delta's per-bucket summary for the host cache.
pub(crate) fn merge_delta_shard<T: Key>(proc: &mut Proc, shard: &mut Shard<T>) -> BucketStats<T> {
    let Shard { data, index, .. } = shard;
    let idx = index.as_mut().expect("delta merge requires a shard index");
    let delta_start = idx.delta_start();
    let total_len = data.len();
    let mut ops = OpCount::new();
    let (indexed_part, delta_part) = data.split_at_mut(delta_start);
    let doff = partition_by_bounds(delta_part, &idx.bounds, &mut ops);
    let dstats = bucket_stats(delta_part, &doff);
    // Amortized reorganization: rebuild the flat storage with each bucket's
    // delta members appended to it.
    let nb = idx.num_buckets();
    let mut merged = Vec::with_capacity(total_len);
    let mut new_offsets = Vec::with_capacity(nb + 1);
    new_offsets.push(0);
    for b in 0..nb {
        merged.extend_from_slice(&indexed_part[idx.offsets[b]..idx.offsets[b + 1]]);
        merged.extend_from_slice(&delta_part[doff[b]..doff[b + 1]]);
        new_offsets.push(merged.len());
    }
    proc.charge_ops(ops.total() + merged.len() as u64);
    *data = merged;
    idx.offsets = new_offsets;
    dstats
}

/// Slices shorter than this are never worth fanning out over scoped
/// threads: the spawn/join overhead of a scope dwarfs the scan itself.
const PAR_SCAN_MIN: usize = 1 << 15;

/// The local prefix count of one value probe over a plain slice, with
/// measured comparisons. Dispatches to the branchless counting kernel —
/// fanned out over `scan_threads` scoped workers in deterministic
/// chunk order when the slice is large enough — or to the scalar
/// reference loop under `set_scalar_reference_mode`. Every path charges
/// exactly one comparison per element, so modeled ops never depend on the
/// kernel or the thread count.
fn count_admitted<T: Key>(
    data: &[T],
    value: T,
    inclusive: bool,
    cmps: &mut u64,
    scan_threads: usize,
) -> u64 {
    if scalar_reference_mode() {
        return count_below_reference(data, value, inclusive, cmps);
    }
    if scan_threads > 1 && data.len() >= PAR_SCAN_MIN {
        *cmps += data.len() as u64;
        let chunk = data.len().div_ceil(scan_threads);
        let partials = crossbeam::thread::scope(|s| {
            let handles: Vec<_> = data
                .chunks(chunk)
                .map(|c| {
                    s.spawn(move || {
                        let mut uncharged = 0u64;
                        count_below_kernel(c, value, inclusive, &mut uncharged)
                    })
                })
                .collect();
            // Joined in spawn order: the reduction is a fixed left fold
            // over chunk partials, identical for every thread schedule.
            handles
                .into_iter()
                .map(|h| h.join().expect("scan worker panicked"))
                .collect::<Vec<u64>>()
        })
        .expect("scan scope failed");
        return partials.into_iter().sum();
    }
    count_below_kernel(data, value, inclusive, cmps)
}

/// The value-probe phase: local prefix counts for every probe — localized
/// to the probe's own bucket (plus the delta run) when the shard holds an
/// index, a full scan otherwise — then **one** vectorized Combine for the
/// whole probe batch. Runs *before* the multi-select phase, which permutes
/// the windows and refines the splitters.
fn count_probes_shard<T: Key>(
    proc: &mut Proc,
    shard: &Shard<T>,
    probes: &[(T, bool)],
    scan_threads: usize,
) -> Vec<u64> {
    if probes.is_empty() {
        return Vec::new();
    }
    let mut cmps = 0u64;
    let mut ops = OpCount::new();
    let local: Vec<u64> = match &shard.index {
        Some(idx) => {
            let delta_start = idx.delta_start();
            // Probe batches arrive sorted and deduplicated by value (the
            // planner builds them that way), so one forward merge against
            // the sorted bounds replaces a fresh O(log B) binary search per
            // probe: O(P + B) total. The charge per probe stays exactly
            // what `bucket_of` would have measured (`bucket_search_cmps`
            // is grid-pinned to it), so modeled ops are unchanged. The
            // per-probe search survives as the reference baseline and as
            // the fallback for unsorted batches.
            let merge = !scalar_reference_mode() && probes.windows(2).all(|w| w[0].0 <= w[1].0);
            let mut next = 0usize;
            probes
                .iter()
                .map(|&(v, inclusive)| {
                    // Every element of a bucket below `b` is strictly below
                    // the probe value, every element above is strictly
                    // above: only bucket `b` itself (and the unindexed
                    // delta run) needs scanning.
                    let b = if merge {
                        // First bound admitting `v`; monotone in `v`, so the
                        // cursor never rewinds across the sorted batch.
                        while next < idx.bounds.len() && !idx.bounds[next].admits(&v) {
                            next += 1;
                        }
                        ops.cmps += bucket_search_cmps(idx.bounds.len());
                        next
                    } else {
                        bucket_of(&idx.bounds, &v, &mut ops)
                    };
                    idx.offsets[b] as u64
                        + count_admitted(
                            &shard.data[idx.offsets[b]..idx.offsets[b + 1]],
                            v,
                            inclusive,
                            &mut cmps,
                            scan_threads,
                        )
                        + count_admitted(
                            &shard.data[delta_start..],
                            v,
                            inclusive,
                            &mut cmps,
                            scan_threads,
                        )
                })
                .collect()
        }
        None => probes
            .iter()
            .map(|&(v, inclusive)| {
                count_admitted(&shard.data, v, inclusive, &mut cmps, scan_threads)
            })
            .collect(),
    };
    proc.charge_ops(ops.total() + cmps);
    proc.combine(local, |a, b| a.into_iter().zip(b).map(|(x, y)| x + y).collect::<Vec<u64>>())
}

/// Batch execution: the whole per-shard half of [`crate::Engine::run`]
/// — index coarsening, the vectorized value-probe Combine, delta
/// localization, borrowed candidate windows, the lockstep multi-select, and
/// answer refinement.
/// (Sketch-served answers are computed host-side off the global ε-sketch
/// and never reach the backend; the sketch phase bracket survives only so
/// the span schema stays stable, always at zero collectives.) The measured
/// [`cgselect_runtime::CommStats`] delta, per-phase collective-op deltas
/// and virtual-time makespan come back in the outcome.
pub(crate) fn execute_shard<T: Key>(
    proc: &mut Proc,
    shard: &mut Shard<T>,
    plan: &BatchPlan<T>,
    scan_threads: usize,
) -> ShardBatchOutcome<T> {
    let n_exact = plan.exact_ranks.len();
    let run_full = !plan.use_index && n_exact > 0;
    let delta_total = plan.delta_total;

    // Coarsening first: the host routed this batch against the coarsened
    // buckets. Dropping a splitter merges two adjacent buckets of the
    // bucket-ordered prefix, so nothing moves and nothing is scanned.
    if let Some(idx) = shard.index.as_mut() {
        idx.drop_splitters(&plan.drops);
    }
    // A plan that only coarsens (the host served the whole batch) runs no
    // collective at all.
    if plan.groups.is_empty() && plan.value_probes.is_empty() && !run_full {
        return ShardBatchOutcome {
            exact: vec![None; n_exact],
            refines: Vec::new(),
            probe_refines: Vec::new(),
            probe_counts: Vec::new(),
            phase_ops: PhaseOps::default(),
            comm: Default::default(),
            elapsed: 0.0,
            spans: Vec::new(),
        };
    }
    // Span measurement rides on snapshots that were already taken for the
    // per-phase op deltas; the begin/end brackets charge no time and no
    // collectives, so execution with spans on is indistinguishable — in
    // answers, comm counts, and makespan — from execution with spans off.
    let observe = plan.trace.is_some();

    // Synchronize clocks so the elapsed virtual time is a makespan.
    proc.barrier();
    let comm0 = proc.comm_stats();
    let t0 = proc.now();

    // Phase 1: value probes — one Combine round for all of them together.
    if observe {
        proc.phase_begin(Phase::Probes.as_str());
    }
    let probe_counts = count_probes_shard(proc, shard, &plan.value_probes, scan_threads);
    if observe {
        proc.phase_end(Phase::Probes.as_str());
    }
    let comm_after_probes = proc.comm_stats();
    let t_after_probes = proc.now();
    let ops_after_probes = comm_after_probes.collective_ops;

    if observe {
        proc.phase_begin(Phase::Exact.as_str());
    }

    let mut exact: Vec<Option<T>> = vec![None; n_exact];
    let mut refines: Vec<BucketStats<T>> = Vec::new();
    if plan.use_index && !plan.groups.is_empty() {
        let Shard { data, index, .. } = &mut *shard;
        let idx = index.as_mut().expect("indexed execution requires a shard index");
        let delta_start = idx.delta_start();
        let nb = idx.num_buckets();
        let (indexed_part, delta_part) = data.split_at_mut(delta_start);

        // Localize the delta run once per batch: partition it by the
        // shared splitters, then Combine the per-bucket delta counts
        // (one vectorized collective) so every group can fold in
        // exactly its in-range delta elements and rebase its ranks
        // by the delta mass below its window — instead of every
        // group cloning and re-partitioning the whole delta.
        let (doff, delta_prefix) = if delta_total > 0 {
            let mut ops = OpCount::new();
            let doff = partition_by_bounds(delta_part, &idx.bounds, &mut ops);
            proc.charge_ops(ops.total());
            let local: Vec<u64> = doff.windows(2).map(|w| (w[1] - w[0]) as u64).collect();
            let global = proc.combine(local, |a, b| {
                a.into_iter().zip(b).map(|(x, y)| x + y).collect::<Vec<u64>>()
            });
            let mut prefix = vec![0u64; nb + 1];
            for (b, c) in global.into_iter().enumerate() {
                prefix[b + 1] = prefix[b] + c;
            }
            (doff, prefix)
        } else {
            (vec![0; nb + 1], vec![0; nb + 1])
        };

        // Carve the disjoint candidate windows out of the indexed
        // prefix (borrowed, never cloned); each window additionally
        // folds in its slice of the (already localized) delta run.
        let mut windows: Vec<RankedWindow<'_, T>> = Vec::with_capacity(plan.groups.len());
        let mut rest = indexed_part;
        let mut consumed = 0usize;
        for group in plan.groups.iter() {
            let start = idx.offsets[group.lo] - consumed;
            let len = idx.offsets[group.hi + 1] - idx.offsets[group.lo];
            let (_skip, tail) = rest.split_at_mut(start);
            let (slice, tail) = tail.split_at_mut(len);
            rest = tail;
            consumed = idx.offsets[group.hi + 1];
            let extra = delta_part[doff[group.lo]..doff[group.hi + 1]].to_vec();
            proc.charge_ops(extra.len() as u64);
            // The host sized the window over the *whole* delta (it
            // only knows the global delta total); with the exact
            // per-bucket delta counts the subset narrows to the
            // window's own delta mass, and ranks shift down by the
            // delta strictly below the window.
            let delta_below = delta_prefix[group.lo];
            let delta_in = delta_prefix[group.hi + 1] - delta_below;
            windows.push(RankedWindow {
                slice,
                extra,
                n: group.n - delta_total + delta_in,
                ranks: group
                    .ranks
                    .iter()
                    .map(|&r| r - delta_below)
                    .zip(group.out.iter().copied())
                    .collect(),
            });
        }
        exact = parallel_multi_select_windows(proc, windows, n_exact, &plan.selection);

        // Refine each window by its answers (descending, so earlier
        // windows' bucket indices stay valid): the resolved values
        // become equality-class splitters, restoring the index the
        // in-place pass permuted and making repeated/nearby ranks
        // histogram-only next batch.
        let (indexed_part, _) = data.split_at_mut(delta_start);
        refines = vec![Vec::new(); plan.groups.len()];
        for (g, group) in plan.groups.iter().enumerate().rev() {
            let answers: Vec<T> =
                group.out.iter().map(|&slot| exact[slot].expect("group rank resolved")).collect();
            let new_bounds = refine_region(&idx.bounds, group.lo, group.hi, &answers);
            let base = idx.offsets[group.lo];
            let range = &mut indexed_part[base..idx.offsets[group.hi + 1]];
            let mut ops = OpCount::new();
            let local = partition_by_bounds(range, &new_bounds, &mut ops);
            proc.charge_ops(ops.total() + range.len() as u64);
            refines[g] = bucket_stats(range, &local);
            idx.bounds.splice(group.lo..group.hi, new_bounds);
            let internal: Vec<usize> =
                local[1..local.len() - 1].iter().map(|&o| base + o).collect();
            idx.offsets.splice(group.lo + 1..group.hi + 1, internal);
        }
    } else if run_full {
        // No index: resolve over the whole resident slice, still
        // borrowed in place — the pre-index full-shard clone is
        // gone on this path too.
        let pairs: Vec<(u64, usize)> =
            plan.exact_ranks.iter().enumerate().map(|(i, r)| (r, i)).collect();
        let window = RankedWindow {
            slice: &mut shard.data,
            extra: Vec::new(),
            n: plan.full_total,
            ranks: pairs,
        };
        exact = parallel_multi_select_windows(proc, vec![window], n_exact, &plan.selection);
    }

    // Probe-driven splitter refinement: every resolved value probe carves
    // its `(v, <)(v, ≤)` equality class into the shared splitters, exactly
    // like rank answers do — zero collectives, so a repeated (or standing)
    // CDF probe goes histogram-exact after its first resolution. The skip
    // test (class already carved) depends only on the shared bounds, so
    // every shard splices identically and stays in lockstep with the
    // host's mirrored splitter vector, which replays this loop verbatim.
    let mut probe_refines: Vec<BucketStats<T>> = Vec::new();
    if plan.use_index && !plan.value_probes.is_empty() {
        if let Some(idx) = shard.index.as_mut() {
            let delta_start = idx.delta_start();
            let (indexed_part, _) = shard.data.split_at_mut(delta_start);
            for &(v, _) in plan.value_probes.iter() {
                let mut ops = OpCount::new();
                let b = bucket_of(&idx.bounds, &v, &mut ops);
                let inserted = refine_region(&idx.bounds, b, b, &[v]);
                if inserted.is_empty() {
                    proc.charge_ops(ops.total());
                    continue;
                }
                let base = idx.offsets[b];
                let range = &mut indexed_part[base..idx.offsets[b + 1]];
                let local = partition_by_bounds(range, &inserted, &mut ops);
                proc.charge_ops(ops.total() + range.len() as u64);
                probe_refines.push(bucket_stats(range, &local));
                idx.bounds.splice(b..b, inserted);
                let internal: Vec<usize> =
                    local[1..local.len() - 1].iter().map(|&o| base + o).collect();
                idx.offsets.splice(b + 1..b + 1, internal);
            }
        }
    }

    if observe {
        proc.phase_end(Phase::Exact.as_str());
    }
    let comm_after_exact = proc.comm_stats();
    let t_after_exact = proc.now();
    let ops_after_exact = comm_after_exact.collective_ops;

    // Sketch-contract answers moved host-side (global ε-sketch, zero
    // collectives); the phase bracket stays so span-schema consumers see
    // the same three phases, with the sketch span pinned at zero ops.
    if observe {
        proc.phase_begin(Phase::Sketch.as_str());
        proc.phase_end(Phase::Sketch.as_str());
    }

    let comm_end = proc.comm_stats();
    let t_end = proc.now();
    let comm = comm_end.since(&comm0);
    let base = comm0.collective_ops;
    let spans = if observe {
        vec![
            PhaseSpan {
                phase: Phase::Probes,
                time: t_after_probes - t0,
                comm: comm_after_probes.since(&comm0),
            },
            PhaseSpan {
                phase: Phase::Exact,
                time: t_after_exact - t_after_probes,
                comm: comm_after_exact.since(&comm_after_probes),
            },
            PhaseSpan {
                phase: Phase::Sketch,
                time: t_end - t_after_exact,
                comm: comm_end.since(&comm_after_exact),
            },
        ]
    } else {
        Vec::new()
    };
    ShardBatchOutcome {
        exact,
        refines,
        probe_refines,
        probe_counts,
        phase_ops: PhaseOps {
            probes: ops_after_probes - base,
            exact: ops_after_exact - ops_after_probes,
            sketch: comm.collective_ops - (ops_after_exact - base),
        },
        comm,
        elapsed: t_end - t0,
        spans,
    }
}

/// Binary search that reports its measured comparisons (the delete path's
/// op accounting, matching the kernels' counted discipline — the same
/// counting-closure idiom as `cgselect_seqsel::bucket_of`).
fn binary_search_counting<T: Ord>(sorted: &[T], x: &T, cmps: &mut u64) -> bool {
    let i = sorted.partition_point(|v| {
        *cmps += 1;
        v < x
    });
    i < sorted.len() && {
        *cmps += 1;
        sorted[i] == *x
    }
}

/// The compacting pass of a delete: drops every element found in `sorted`
/// while survivors keep their relative order, and shifts the bucket
/// offsets. Returns the per-bucket removal counts (`num_buckets + 1`
/// entries, the last one the delta run's), or an empty vector without an
/// index.
///
/// With an index the pass is splitter-pruned. The deleted values are cut
/// into per-bucket slices by the bucket bounds, and each bucket searches
/// only its own slice. This is exact because every element of bucket `b`
/// is admitted by bound `b` and not by bound `b − 1`, so any deleted value
/// equal to it lies in `b`'s slice. A bucket whose slice is empty is moved
/// down whole and never searched. The unindexed delta run searches the
/// whole list. Without an index every element searches the whole list.
pub(crate) fn compact_shard<T: Key>(
    data: &mut Vec<T>,
    index: Option<&mut ShardIndex<T>>,
    sorted: &[T],
    ops: &mut OpCount,
) -> Vec<u64> {
    let end = data.len();
    let mut write = 0usize;
    let Some(idx) = index else {
        compact_run(data, 0..end, &mut write, sorted, ops);
        data.truncate(write);
        return Vec::new();
    };
    let nb = idx.num_buckets();
    let mut lo = 0usize;
    let mut removed: Vec<u64> = idx
        .offsets
        .windows(2)
        .enumerate()
        .map(|(b, run)| {
            let hi = match idx.bounds.get(b) {
                Some(bound) => {
                    lo + sorted[lo..].partition_point(|x| {
                        ops.cmps += 1;
                        bound.admits(x)
                    })
                }
                None => sorted.len(),
            };
            let doomed = &sorted[lo..hi];
            lo = hi;
            compact_run(data, run[0]..run[1], &mut write, doomed, ops)
        })
        .collect();
    removed.push(compact_run(data, idx.delta_start()..end, &mut write, sorted, ops));
    data.truncate(write);
    let mut shifted = 0usize;
    for (i, &gone) in removed[..nb].iter().enumerate() {
        shifted += gone as usize;
        idx.offsets[i + 1] -= shifted;
    }
    removed
}

/// Compacts `data[run]` down to `*write`, dropping every element found in
/// the sorted `doomed` list, and returns how many it dropped. With nothing
/// doomed the run moves with one `copy_within`, searching nothing; either
/// way each element that changes position counts as one move.
fn compact_run<T: Key>(
    data: &mut [T],
    run: Range<usize>,
    write: &mut usize,
    doomed: &[T],
    ops: &mut OpCount,
) -> u64 {
    if doomed.is_empty() {
        let len = run.len();
        if *write != run.start {
            data.copy_within(run, *write);
            ops.moves += len as u64;
        }
        *write += len;
        return 0;
    }
    let mut dropped = 0u64;
    for read in run {
        let x = data[read];
        if binary_search_counting(doomed, &x, &mut ops.cmps) {
            dropped += 1;
        } else {
            if *write != read {
                data[*write] = x;
                ops.moves += 1;
            }
            *write += 1;
        }
    }
    dropped
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full-scan delete every shard ran before splitter pruning: each
    /// element searches the whole deleted list. Kept as the reference the
    /// pruned pass must reproduce exactly.
    fn full_scan_reference(
        data: &mut Vec<u64>,
        idx: &mut ShardIndex<u64>,
        sorted: &[u64],
        ops: &mut OpCount,
    ) -> Vec<u64> {
        let (delta_start, nb) = (idx.delta_start(), idx.num_buckets());
        let mut removed = vec![0u64; nb + 1];
        let (mut write, mut b) = (0usize, 0usize);
        for read in 0..data.len() {
            let bucket = if read >= delta_start {
                nb
            } else {
                while read >= idx.offsets[b + 1] {
                    b += 1;
                }
                b
            };
            let x = data[read];
            if binary_search_counting(sorted, &x, &mut ops.cmps) {
                removed[bucket] += 1;
            } else {
                if write != read {
                    data[write] = x;
                    ops.moves += 1;
                }
                write += 1;
            }
        }
        data.truncate(write);
        let mut shifted = 0usize;
        for (i, &gone) in removed[..nb].iter().enumerate() {
            shifted += gone as usize;
            idx.offsets[i + 1] -= shifted;
        }
        removed
    }

    /// A shard holding `indexed` bucket-ordered under `bounds`, with
    /// `delta` appended as the unindexed run.
    fn shard(
        indexed: &[u64],
        delta: &[u64],
        bounds: &[SepBound<u64>],
    ) -> (Vec<u64>, ShardIndex<u64>) {
        let mut data = indexed.to_vec();
        let (idx, _) = build_shard_index(&mut data, bounds.to_vec(), &mut OpCount::new());
        data.extend_from_slice(delta);
        (data, idx)
    }

    /// Runs both passes on copies of the shard and asserts identical data,
    /// offsets, removal counts and moves; returns `(pruned, full)` cmps.
    fn assert_pruned_matches_full_scan(
        indexed: &[u64],
        delta: &[u64],
        bounds: &[SepBound<u64>],
        sorted: &[u64],
    ) -> (u64, u64) {
        let (mut data, mut idx) = shard(indexed, delta, bounds);
        let (mut ref_data, mut ref_idx) =
            (data.clone(), ShardIndex { bounds: idx.bounds.clone(), offsets: idx.offsets.clone() });
        let mut ops = OpCount::new();
        let removed = compact_shard(&mut data, Some(&mut idx), sorted, &mut ops);
        let mut ref_ops = OpCount::new();
        let ref_removed = full_scan_reference(&mut ref_data, &mut ref_idx, sorted, &mut ref_ops);
        assert_eq!(data, ref_data, "deleting {sorted:?}");
        assert_eq!(idx.offsets, ref_idx.offsets, "deleting {sorted:?}");
        assert_eq!(removed, ref_removed, "deleting {sorted:?}");
        assert_eq!(ops.moves, ref_ops.moves, "deleting {sorted:?}");
        // Survivors still sit in the buckets their bounds admit.
        for b in 0..idx.num_buckets() {
            for x in &data[idx.offsets[b]..idx.offsets[b + 1]] {
                assert!(idx.bounds.get(b).is_none_or(|ub| ub.admits(x)), "{x} above bucket {b}");
                assert!(b == 0 || !idx.bounds[b - 1].admits(x), "{x} below bucket {b}");
            }
        }
        (ops.cmps, ref_ops.cmps)
    }

    /// Buckets: `<10 | {10} | (10, 30] | (30, 50) | [50, 60] | > 60` — an
    /// equality class carved by a resolved probe, inclusive and exclusive
    /// splitters.
    fn bounds() -> Vec<SepBound<u64>> {
        vec![
            SepBound::lt(10),
            SepBound::le(10),
            SepBound::le(30),
            SepBound::lt(50),
            SepBound::le(60),
        ]
    }

    fn resident() -> Vec<u64> {
        (0..400u64).map(|i| i.wrapping_mul(37) % 80).chain([10; 7]).collect()
    }

    #[test]
    fn pruned_delete_matches_the_full_scan() {
        let (indexed, delta) = (resident(), vec![3, 10, 45, 95, 96, 10, 61]);
        let cases: [&[u64]; 9] = [
            &[21, 22, 25],    // confined to one bucket
            &[30, 50],        // equal to an inclusive and an exclusive splitter
            &[10],            // the (10,<)(10,≤) equality class
            &[9, 10, 11],     // around the equality class
            &[95, 96],        // present only in the delta run
            &[80, 81, 1000],  // absent everywhere
            &[0, 60, 61, 79], // bucket edges at both ends
            &[],              // nothing
            &[3, 10, 30, 45, 50, 61, 70, 95],
        ];
        for sorted in cases {
            let (pruned, full) =
                assert_pruned_matches_full_scan(&indexed, &delta, &bounds(), sorted);
            assert!(pruned <= full, "pruning added comparisons for {sorted:?}");
        }
    }

    #[test]
    fn pruned_delete_matches_the_full_scan_on_random_lists() {
        let (indexed, delta) = (resident(), vec![1, 10, 33, 50, 77, 90]);
        let mut state = 7u64;
        for _ in 0..200 {
            let mut sorted: Vec<u64> = (0..(state % 9))
                .map(|_| {
                    state =
                        state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    (state >> 33) % 100
                })
                .collect();
            sorted.sort_unstable();
            sorted.dedup();
            assert_pruned_matches_full_scan(&indexed, &delta, &bounds(), &sorted);
        }
    }

    #[test]
    fn unindexed_delete_compacts_in_order() {
        let mut data = vec![5u64, 1, 5, 2, 9, 1];
        let mut ops = OpCount::new();
        assert!(compact_shard(&mut data, None, &[1, 5], &mut ops).is_empty());
        assert_eq!(data, vec![2, 9]);
        assert_eq!(ops.moves, 2);
    }

    #[test]
    fn drops_only_plans_coarsen_without_communicating() {
        use std::sync::Arc;
        let per_rank = cgselect_runtime::Machine::new(2)
            .run(|proc| {
                let mut shard = init_shard::<u64>(64);
                let mine = (0..500u64).map(|i| (i * 7 + proc.rank() as u64) % 1000).collect();
                ingest_shard(proc, &mut shard, mine);
                build_index_shard(proc, &mut shard, 8);
                let splitters = shard.index.as_ref().expect("built").bounds.len();
                let plan = BatchPlan {
                    groups: Arc::new(Vec::new()),
                    exact_ranks: Arc::new(crate::RankSet::default()),
                    value_probes: Arc::new(Vec::new()),
                    selection: Default::default(),
                    use_index: true,
                    full_total: 1000,
                    delta_total: 0,
                    trace: None,
                    drops: Arc::new(vec![0, 2]),
                };
                let before = proc.comm_stats();
                execute_shard(proc, &mut shard, &plan, 1);
                let sent = proc.comm_stats().since(&before).msgs_sent;
                (splitters, shard.index.expect("kept").bounds.len(), sent)
            })
            .unwrap();
        for (splitters, after, sent) in per_rank {
            assert_eq!((after, sent), (splitters - 2, 0), "{splitters} splitters before");
        }
    }

    #[test]
    fn untouched_buckets_are_never_searched() {
        // One deleted value in the last bucket: the earlier buckets cost
        // only the cut searches, not a search per element.
        let indexed = resident();
        let (pruned, full) = assert_pruned_matches_full_scan(&indexed, &[], &bounds(), &[70]);
        let last_bucket = indexed.iter().filter(|&&x| x > 60).count() as u64;
        assert!(pruned <= bounds().len() as u64 + 2 * last_bucket, "{pruned} comparisons");
        assert!(pruned < full / 2, "pruned {pruned} vs full {full}");
    }
}
