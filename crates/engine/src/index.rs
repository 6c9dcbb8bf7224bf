//! The resident bucket index: copy-free, scan-free batch execution.
//!
//! The engine's exact path originally cloned every shard and re-partitioned
//! the raw data from scratch on every batch — `O(n/p)` copy + scan whose
//! partitioning work was then thrown away. This module keeps that work:
//!
//! * **Shared splitters** — at (re)build time the shards agree, through one
//!   collective over their ingest-maintained sample sketches, on a vector
//!   of [`SepBound`] splitters (Nowicki-style regular sampling). Every
//!   shard partitions its resident data into the *same* value-range buckets
//!   ([`ShardIndex`]), so "bucket `b`" means one global value interval.
//! * **A cached global histogram** — the engine host caches the per-bucket
//!   global counts (plus per-bucket min/max) in a [`GlobalIndex`]. A rank
//!   query then *localizes* without touching data: binary search over the
//!   cached prefix sums yields the small window of candidate buckets that
//!   must contain the target ([`GlobalIndex::window`]).
//! * **Copy-free execution** — the multi-select recursion runs over the
//!   candidate buckets *borrowed in place*
//!   ([`cgselect_core::parallel_multi_select_in`]); the only per-batch copy
//!   is the small unindexed delta run.
//! * **A histogram-only fast path** — a rank whose candidate window is a
//!   single bucket of one repeated value (tracked min == max) is answered
//!   from the cached histogram alone: zero element scans, zero extra
//!   collectives. Refinement (below) makes this the steady state for
//!   repeated and near-repeated quantiles.
//! * **Adaptive refinement** — after a batch resolves its answers, each
//!   candidate window is re-partitioned by the answer values, inserting
//!   `(v, exclusive), (v, inclusive)` splitter pairs that carve out each
//!   answer's exact equality class. The next batch asking the same (or a
//!   nearby) quantile finds a constant candidate bucket and takes the fast
//!   path.
//! * **Coarsening in place** — refinement only adds splitters. Once the
//!   bucket count passes the cap, the host picks splitters to drop in one
//!   pass over the exact merged bucket masses
//!   ([`GlobalIndex::coarsening_drops`], regular sampling applied to the
//!   exact histogram instead of a sample) and ships the drop list with
//!   the next batch plan. Adjacent buckets are already contiguous in every
//!   shard's bucket-ordered prefix, so a drop removes one splitter and one
//!   offset ([`ShardIndex::drop_splitters`]): no element moves and no
//!   collective runs. Full rebuilds are left to the operations that really
//!   move or lose data (first build, rebalance, membership, recovery).
//! * **Delta runs, rebased host-side** — ingest appends to an unindexed
//!   tail on the shards *and* into a sorted host mirror
//!   ([`GlobalIndex::delta_vals`]) that classifies each pending element
//!   into its value bucket with zero collectives. Localization, the
//!   histogram fast path and value-probe brackets all read the *merged*
//!   (indexed + delta) prefix sums, so answers stay exact — and candidate
//!   windows stay single-bucket tight — between the amortized merges that
//!   fold the tail into the buckets. This is what lets a standing query
//!   re-serve from the cache while ingest streams in.

use cgselect_runtime::Key;
use cgselect_seqsel::{partition_by_bounds, OpCount, SepBound};

/// Per-shard half of the index, resident in the worker's `ShardStore`
/// alongside the data: the shard's `data[..delta_start()]` prefix is
/// bucket-ordered under the shared `bounds`; the tail is the unindexed
/// delta run.
pub(crate) struct ShardIndex<T> {
    /// The shared splitters — identical on every shard by construction.
    pub bounds: Vec<SepBound<T>>,
    /// Bucket offsets into the indexed prefix: `bounds.len() + 2` entries,
    /// non-decreasing, `offsets[0] == 0`; bucket `b` is
    /// `data[offsets[b]..offsets[b + 1]]`.
    pub offsets: Vec<usize>,
}

impl<T: Key> ShardIndex<T> {
    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Where the unindexed delta run begins in the shard's data vector.
    pub fn delta_start(&self) -> usize {
        *self.offsets.last().expect("offsets never empty")
    }

    /// Merges buckets `d` and `d + 1` for every `d` in the strictly
    /// ascending, in-range `drops` (see [`check_drops`]) by removing
    /// `bounds[d]` and `offsets[d + 1]`. The two buckets are adjacent in
    /// the bucket-ordered prefix, so no element moves.
    pub(crate) fn drop_splitters(&mut self, drops: &[usize]) {
        remove_sorted(&mut self.bounds, drops, 0);
        remove_sorted(&mut self.offsets, drops, 1);
    }
}

/// Checks a coarsening drop list against a splitter vector of `nbounds`
/// entries: strictly ascending and every index in range. Workers run it on
/// every decoded plan, so a malformed list is a typed error, never a panic.
pub(crate) fn check_drops(drops: &[usize], nbounds: usize) -> Result<(), String> {
    if let Some(w) = drops.windows(2).find(|w| w[0] >= w[1]) {
        return Err(format!("drop list not strictly ascending at {} then {}", w[0], w[1]));
    }
    match drops.last() {
        Some(&d) if d >= nbounds => Err(format!("drop index {d} beyond {nbounds} splitters")),
        _ => Ok(()),
    }
}

/// Removes `v[d + shift]` for every `d` in the strictly ascending `drops`,
/// in one pass.
fn remove_sorted<X>(v: &mut Vec<X>, drops: &[usize], shift: usize) {
    let mut next = drops.iter().map(|d| d + shift).peekable();
    let mut i = 0;
    v.retain(|_| {
        let dropped = next.next_if_eq(&i).is_some();
        i += 1;
        !dropped
    });
}

/// Per-bucket shard-local summary: `(count, Some((min, max)))` —
/// `None` for an empty bucket. Public because execution backends report it
/// across the [`crate::ExecBackend`] boundary.
pub type BucketStats<T> = Vec<(u64, Option<(T, T)>)>;

/// Scans `offsets`-delimited buckets of `data` and summarizes each.
/// Cost: one pass over `data` (caller charges `data.len()` ops).
pub(crate) fn bucket_stats<T: Key>(data: &[T], offsets: &[usize]) -> BucketStats<T> {
    offsets
        .windows(2)
        .map(|w| {
            let s = &data[w[0]..w[1]];
            let mm = s.iter().fold(None, |acc: Option<(T, T)>, &x| match acc {
                None => Some((x, x)),
                Some((lo, hi)) => Some((lo.min(x), hi.max(x))),
            });
            (s.len() as u64, mm)
        })
        .collect()
}

/// The window's refined splitters: the old internal splitters plus an
/// equality-class pair around every resolved answer value, sorted and
/// deduplicated — identical on every shard because both inputs are.
///
/// Bounds at or beyond the window's *outer* bounds (`lower`, `upper`) are
/// dropped: they would only carve empty sub-buckets (no window element
/// lies outside the outer bounds) and would violate the strictly
/// increasing invariant of the shard's stored splitter vector.
pub(crate) fn refined_bounds<T: Key>(
    old_internal: &[SepBound<T>],
    answers: &[T],
    lower: Option<SepBound<T>>,
    upper: Option<SepBound<T>>,
) -> Vec<SepBound<T>> {
    let mut v: Vec<SepBound<T>> = old_internal.to_vec();
    for &a in answers {
        v.push(SepBound::lt(a));
        v.push(SepBound::le(a));
    }
    v.sort_unstable();
    v.dedup();
    v.retain(|&b| lower.is_none_or(|lo| b > lo) && upper.is_none_or(|hi| b < hi));
    v
}

/// The splitters that replace `bounds[lo..hi]` when the region of buckets
/// `lo..=hi` is refined by `answers` (see [`refined_bounds`]; the region's
/// outer bounds are `bounds[lo - 1]` and `bounds[hi]`). A value probe
/// refines its own bucket `b` as the region `b..=b`. Shards and the host
/// both refine through this, so their splitter vectors stay identical.
pub(crate) fn refine_region<T: Key>(
    bounds: &[SepBound<T>],
    lo: usize,
    hi: usize,
    answers: &[T],
) -> Vec<SepBound<T>> {
    let lower = (lo > 0).then(|| bounds[lo - 1]);
    let upper = (hi < bounds.len()).then(|| bounds[hi]);
    refined_bounds(&bounds[lo..hi], answers, lower, upper)
}

/// One contiguous window of candidate buckets and the batch ranks routed
/// into it. Windows of distinct groups are disjoint; ranks are expressed
/// relative to the window's subset (candidate buckets + the whole delta).
/// Public because batch plans carry it across the [`crate::ExecBackend`]
/// boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Group {
    /// First candidate bucket.
    pub lo: usize,
    /// Last candidate bucket (inclusive).
    pub hi: usize,
    /// Exact global population of the window's subset:
    /// `prefix[hi + 1] - prefix[lo] + delta_total`.
    pub n: u64,
    /// Within-subset ranks (sorted, distinct).
    pub ranks: Vec<u64>,
    /// For each rank, its slot in the batch's coalesced rank list.
    pub out: Vec<usize>,
}

/// Routing of a batch's coalesced exact ranks against the cached histogram.
pub(crate) struct Routing<T> {
    /// Candidate-window groups, ascending and disjoint.
    pub groups: Vec<Group>,
    /// Histogram-only answers: `(slot, value)` pairs resolved with zero
    /// element scans.
    pub fast: Vec<(usize, T)>,
}

/// Host-side cached global histogram of the shared buckets, plus a sorted
/// mirror of the pending delta run that *rebases* the histogram after
/// every ingest/delete: the host classifies each unindexed element into
/// its value bucket without any collective, so rank localization, the
/// histogram fast path and value-probe brackets all stay **exact** while
/// a delta is pending — the mechanism that lets a standing query re-serve
/// from the cache at zero collectives between merges.
#[derive(Clone, Debug)]
pub(crate) struct GlobalIndex<T> {
    /// The shared splitters, mirrored host-side (identical to every
    /// shard's by construction) so the host can replay refinement and
    /// classify delta elements itself.
    pub bounds: Vec<SepBound<T>>,
    /// Global per-bucket counts of *indexed* elements.
    pub counts: Vec<u64>,
    /// Prefix sums of `counts` (`counts.len() + 1` entries, first 0).
    pub prefix: Vec<u64>,
    /// Global per-bucket `(min, max)` of indexed elements (`None` = empty).
    pub minmax: Vec<Option<(T, T)>>,
    /// Sorted multiset of the unindexed delta elements across all shards —
    /// the host-side mirror fed by ingest and pruned by delete.
    pub delta_vals: Vec<T>,
    /// Per-bucket prefix counts of `delta_vals` (`counts.len() + 1`
    /// entries, first 0): `delta_offsets[b]` delta elements fall in
    /// buckets `< b`, so bucket `b`'s delta slice is
    /// `delta_vals[delta_offsets[b]..delta_offsets[b + 1]]`.
    pub delta_offsets: Vec<u64>,
    /// Global number of unindexed delta elements across all shards
    /// (always `delta_vals.len()`).
    pub delta_total: u64,
}

impl<T: Key> GlobalIndex<T> {
    /// Assembles the host cache from the shared splitters and the
    /// per-shard summaries returned by the build run.
    pub fn from_shard_stats(bounds: Vec<SepBound<T>>, per_shard: &[BucketStats<T>]) -> Self {
        let nb = per_shard.first().map_or(0, Vec::len);
        debug_assert_eq!(nb, bounds.len() + 1, "splitters disagree with the bucket count");
        let mut acc: BucketStats<T> = vec![(0, None); nb];
        for stats in per_shard {
            merge_stats(&mut acc, stats);
        }
        let mut idx = GlobalIndex {
            bounds,
            counts: acc.iter().map(|&(c, _)| c).collect(),
            prefix: Vec::new(),
            minmax: acc.into_iter().map(|(_, mm)| mm).collect(),
            delta_vals: Vec::new(),
            delta_offsets: vec![0; nb + 1],
            delta_total: 0,
        };
        idx.rebuild_prefix();
        idx
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.counts.len()
    }

    /// Recomputes the prefix sums after counts changed.
    pub fn rebuild_prefix(&mut self) {
        self.prefix = std::iter::once(0)
            .chain(self.counts.iter().scan(0u64, |acc, &c| {
                *acc += c;
                Some(*acc)
            }))
            .collect();
    }

    /// Merged (indexed + pending delta) count of elements in buckets
    /// `< b` — the rebased prefix sum the localization below searches.
    fn merged_prefix(&self, b: usize) -> u64 {
        self.prefix[b] + self.delta_offsets[b]
    }

    /// Min/max over bucket `b`'s indexed elements *and* its pending delta
    /// slice (`None` when both are empty). The mirror is sorted, so the
    /// slice's endpoints are its extrema.
    fn merged_minmax(&self, b: usize) -> Option<(T, T)> {
        let d =
            &self.delta_vals[self.delta_offsets[b] as usize..self.delta_offsets[b + 1] as usize];
        let dm = (!d.is_empty()).then(|| (d[0], d[d.len() - 1]));
        merge_minmax(self.minmax[b], dm)
    }

    /// The single bucket `(b, b)` that contains global rank `r` in the
    /// merged (indexed + delta) order. Buckets are value-disjoint and the
    /// host mirror classifies every pending delta element exactly, so a
    /// pending delta no longer widens the window — localization stays
    /// single-bucket exact between merges.
    pub fn window(&self, r: u64) -> (usize, usize) {
        let last = self.counts.len() - 1;
        // Largest b with merged_prefix(b) <= r: r then falls strictly
        // inside bucket b's merged population.
        let (mut lo, mut hi) = (0usize, self.counts.len());
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            if self.merged_prefix(mid) <= r {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        let b = lo.min(last);
        (b, b)
    }

    /// Histogram-only resolution: `Some(v)` when rank `r`'s bucket holds
    /// one repeated value across both its indexed elements and its pending
    /// delta slice — the answer needs zero element scans, delta or not.
    pub fn fast_value(&self, r: u64) -> Option<T> {
        if self.counts.is_empty() {
            return None;
        }
        let (b, _) = self.window(r);
        match self.merged_minmax(b) {
            Some((mn, mx)) if mn == mx => Some(mn),
            _ => None,
        }
    }

    /// Routes the batch's sorted, deduplicated rank sequence (ascending —
    /// a [`crate::RankSet`] iteration): fast-path ranks are answered from
    /// the histogram; the rest coalesce into disjoint candidate-window
    /// groups (overlapping windows merge).
    pub fn route(&self, ranks: impl Iterator<Item = u64>) -> Routing<T> {
        /// An under-construction group: window bounds plus its
        /// `(global rank, slot)` members, ascending.
        type OpenGroup = (usize, usize, Vec<(u64, usize)>);
        let mut routing = Routing { groups: Vec::new(), fast: Vec::new() };
        let mut open: Vec<OpenGroup> = Vec::new();
        for (slot, r) in ranks.enumerate() {
            if let Some(v) = self.fast_value(r) {
                routing.fast.push((slot, v));
                continue;
            }
            let (lo, hi) = self.window(r);
            match open.last_mut() {
                // Ranks ascend, so windows ascend: overlap can only happen
                // with the most recent group.
                Some(last) if lo <= last.1 => {
                    last.1 = last.1.max(hi);
                    last.2.push((r, slot));
                }
                _ => open.push((lo, hi, vec![(r, slot)])),
            }
        }
        for (lo, hi, members) in open {
            let base = self.prefix[lo];
            let n = self.prefix[hi + 1] - base + self.delta_total;
            let (ranks, out) = members.into_iter().map(|(r, s)| (r - base, s)).unzip();
            routing.groups.push(Group { lo, hi, n, ranks, out });
        }
        routing
    }

    /// Histogram-only *rank-direction* resolution under a loosened
    /// contract: `Some((value, max_rank_error))` for rank `r`'s merged
    /// bucket. A constant bucket yields the exact element
    /// (`max_rank_error = 0`, the [`fast_value`](Self::fast_value) case);
    /// otherwise the bucket's merged minimum is returned with the error
    /// bounded by the target's offset into the bucket — zero element
    /// scans either way, pending delta included (the mirror rebases the
    /// bucket's base rank and extrema exactly).
    pub fn approx_value(&self, r: u64) -> Option<(T, u64)> {
        if self.counts.is_empty() {
            return None;
        }
        let (b, _) = self.window(r);
        match self.merged_minmax(b) {
            Some((mn, mx)) if mn == mx => Some((mn, 0)),
            // `mn`'s first occurrence sits at the bucket's merged base
            // rank, so its rank distance to `r` is at most the offset
            // into the bucket.
            Some((mn, _)) => Some((mn, r - self.merged_prefix(b))),
            None => None,
        }
    }

    /// Histogram-only bracket `[lo, hi]` on the prefix count of elements
    /// admitted by the probe `(v, inclusive)` (`x < v`, or `x ≤ v` when
    /// inclusive) — zero element scans, zero collectives.
    ///
    /// Buckets are value-disjoint under the shared splitters, so at most
    /// one bucket's contribution is ambiguous, and only when its tracked
    /// `min`/`max` straddle the probe; refined equality-class buckets
    /// (`min == max`) always resolve exactly. The pending delta
    /// contributes **exactly** — the sorted mirror answers the probe with
    /// one binary search — so the bracket is exact (`lo == hi`) precisely
    /// when every indexed bucket resolves: "the splitters bound the
    /// answer", delta or no delta.
    pub fn count_bounds(&self, v: T, inclusive: bool) -> (u64, u64) {
        let mut below = 0u64;
        let mut ambiguous = 0u64;
        for (&count, &mm) in self.counts.iter().zip(&self.minmax) {
            let Some((mn, mx)) = mm else { continue };
            let all_below = if inclusive { mx <= v } else { mx < v };
            let none_below = if inclusive { mn > v } else { mn >= v };
            if all_below {
                below += count;
            } else if !none_below {
                ambiguous += count;
            }
        }
        let d_below =
            self.delta_vals.partition_point(|&x| if inclusive { x <= v } else { x < v }) as u64;
        (below + d_below, below + ambiguous + d_below)
    }

    /// Records freshly ingested elements into the delta mirror and
    /// reclassifies — the rebase that keeps localization exact while the
    /// elements sit in the shards' unindexed delta runs.
    pub fn note_ingest(&mut self, items: impl IntoIterator<Item = T>) {
        self.delta_vals.extend(items);
        // The mirror is one sorted run followed by the new elements: the
        // run-detecting stable sort sorts only the new ones and merges,
        // instead of re-sorting the whole pending delta on every ingest.
        // Ord-equal keys are bit-equal, so stability changes nothing.
        self.delta_vals.sort();
        self.delta_total = self.delta_vals.len() as u64;
        self.reclassify_delta();
    }

    /// Drops every occurrence of the (sorted, deduplicated) deleted values
    /// from the delta mirror — the twin of the shards' delta-run
    /// compaction. Call after [`apply_removals`](Self::apply_removals);
    /// the mirror must land on the same population the shards reported.
    pub fn note_delete(&mut self, sorted: &[T]) {
        self.delta_vals.retain(|x| sorted.binary_search(x).is_err());
        self.reclassify_delta();
        debug_assert_eq!(
            self.delta_total,
            self.delta_vals.len() as u64,
            "delta mirror out of sync with the shards' removal reports"
        );
    }

    /// Recomputes `delta_offsets` after the mirror or the bounds changed:
    /// one binary search per splitter over the sorted mirror.
    pub fn reclassify_delta(&mut self) {
        let mut off = Vec::with_capacity(self.counts.len() + 1);
        off.push(0u64);
        for b in &self.bounds {
            off.push(self.delta_vals.partition_point(|x| b.admits(x)) as u64);
        }
        off.push(self.delta_vals.len() as u64);
        debug_assert_eq!(off.len(), self.counts.len() + 1, "splitters/bucket mismatch");
        self.delta_offsets = off;
    }

    /// Host replay of one resolved window's splitter refinement — the
    /// exact twin of the shard-side refinement in
    /// `backend::ops::execute_shard`, so the mirrored `bounds` stay
    /// identical to every shard's stored splitter vector. Splices `bounds`
    /// only; the caller splices counts/minmax via
    /// [`splice_window`](Self::splice_window) with the shards' merged
    /// stats, then calls [`rebuild_prefix`](Self::rebuild_prefix) and
    /// [`reclassify_delta`](Self::reclassify_delta) once all windows (in
    /// descending order) are done.
    pub fn refine_window_bounds(&mut self, lo: usize, hi: usize, answers: &[T]) {
        let new_bounds = refine_region(&self.bounds, lo, hi, answers);
        self.bounds.splice(lo..hi, new_bounds);
    }

    /// Host replay of one resolved value probe's equality-class
    /// refinement: carves `(v, <)(v, ≤)` into `v`'s bucket exactly like
    /// the shards do after their probe Combine. Returns the refined
    /// bucket's index (for the caller's counts/minmax splice), or `None`
    /// when the class is already carved — the shards skipped it too, by
    /// the same deterministic test.
    pub fn refine_probe_bounds(&mut self, v: T) -> Option<usize> {
        let b = self.bounds.partition_point(|sb| !sb.admits(&v));
        let inserted = refine_region(&self.bounds, b, b, &[v]);
        if inserted.is_empty() {
            return None;
        }
        self.bounds.splice(b..b, inserted);
        Some(b)
    }

    /// Merged (indexed + pending delta) population of bucket `b`.
    fn merged_count(&self, b: usize) -> u64 {
        self.counts[b] + self.delta_offsets[b + 1] - self.delta_offsets[b]
    }

    /// Picks the splitters to drop so the bucket count falls back toward
    /// `target_buckets`: one left-to-right pass over the exact merged
    /// bucket masses that keeps a splitter only where adding the next bucket
    /// would push the running mass past `⌈total / target_buckets⌉`. Every
    /// bucket that merges two or more old ones stays within that mass, and
    /// any two neighbouring merged buckets together exceed it, so at most
    /// `2 · target_buckets` buckets remain. Returns strictly ascending
    /// indices into `bounds`.
    pub(crate) fn coarsening_drops(&self, target_buckets: usize) -> Vec<usize> {
        let total = self.prefix[self.num_buckets()] + self.delta_total;
        let limit = total.div_ceil(target_buckets.max(1) as u64);
        let mut drops = Vec::new();
        let mut run = self.merged_count(0);
        for b in 1..self.num_buckets() {
            let mass = self.merged_count(b);
            if run + mass > limit {
                run = mass;
            } else {
                drops.push(b - 1);
                run += mass;
            }
        }
        drops
    }

    /// Drops the splitters `drops` (strictly ascending) host-side: each
    /// dropped `bounds[d]` merges buckets `d` and `d + 1` — counts add,
    /// min/max widen — and the prefix sums and delta classification lose
    /// the same entry. The shards apply the identical drops with
    /// [`ShardIndex::drop_splitters`].
    pub(crate) fn drop_splitters(&mut self, drops: &[usize]) {
        let mut next = drops.iter().peekable();
        let mut counts = Vec::with_capacity(self.counts.len() - drops.len());
        let mut minmax = Vec::with_capacity(counts.capacity());
        for (b, (&c, &mm)) in self.counts.iter().zip(&self.minmax).enumerate() {
            if b > 0 && next.next_if_eq(&&(b - 1)).is_some() {
                let last = counts.len() - 1;
                counts[last] += c;
                minmax[last] = merge_minmax(minmax[last], mm);
            } else {
                counts.push(c);
                minmax.push(mm);
            }
        }
        self.counts = counts;
        self.minmax = minmax;
        remove_sorted(&mut self.bounds, drops, 0);
        remove_sorted(&mut self.delta_offsets, drops, 1);
        self.rebuild_prefix();
    }

    /// Applies one refined window: buckets `lo..=hi` are replaced by the
    /// refreshed per-bucket stats. Call in descending `lo` order so earlier
    /// windows' indices stay valid; call [`rebuild_prefix`](Self::rebuild_prefix)
    /// and [`reclassify_delta`](Self::reclassify_delta) once afterwards.
    pub fn splice_window(&mut self, lo: usize, hi: usize, stats: &BucketStats<T>) {
        self.counts.splice(lo..=hi, stats.iter().map(|&(c, _)| c));
        self.minmax.splice(lo..=hi, stats.iter().map(|&(_, mm)| mm));
    }

    /// Folds per-shard delta-merge summaries into the cached histogram
    /// (delta elements joined their buckets; the delta run — and its host
    /// mirror — is empty again).
    pub fn absorb_delta(&mut self, per_shard: &[BucketStats<T>]) {
        let mut acc: BucketStats<T> =
            self.counts.iter().zip(&self.minmax).map(|(&c, &mm)| (c, mm)).collect();
        for stats in per_shard {
            merge_stats(&mut acc, stats);
        }
        self.counts = acc.iter().map(|&(c, _)| c).collect();
        self.minmax = acc.into_iter().map(|(_, mm)| mm).collect();
        self.delta_total = 0;
        self.delta_vals.clear();
        self.delta_offsets = vec![0; self.counts.len() + 1];
        self.rebuild_prefix();
    }

    /// Applies per-shard deletion summaries (`removed[b]` per bucket plus a
    /// final delta-run entry). Min/max are deliberately kept: removal can
    /// only shrink a bucket's value range, and the fast path reads min/max
    /// only when they are equal — which deletion cannot falsify.
    pub fn apply_removals(&mut self, per_shard: &[Vec<u64>]) {
        for removed in per_shard {
            debug_assert_eq!(removed.len(), self.counts.len() + 1);
            for (b, &c) in removed[..self.counts.len()].iter().enumerate() {
                self.counts[b] -= c;
            }
            self.delta_total -= removed[self.counts.len()];
        }
        self.rebuild_prefix();
    }
}

/// Elementwise merge of two shards' per-bucket summaries (counts sum,
/// min/max widen) — how the host folds a refined window's per-shard stats.
pub(crate) fn merge_stats<T: Key>(into: &mut BucketStats<T>, other: &BucketStats<T>) {
    debug_assert_eq!(into.len(), other.len(), "shards disagree on refined bucket count");
    for ((c, mm), &(oc, omm)) in into.iter_mut().zip(other) {
        *c += oc;
        *mm = merge_minmax(*mm, omm);
    }
}

fn merge_minmax<T: Key>(a: Option<(T, T)>, b: Option<(T, T)>) -> Option<(T, T)> {
    match (a, b) {
        (None, x) | (x, None) => x,
        (Some((alo, ahi)), Some((blo, bhi))) => Some((alo.min(blo), ahi.max(bhi))),
    }
}

/// Shard-side (re)build: partitions the whole data vector (delta included)
/// by the shared `bounds` and installs the index. Returns the per-bucket
/// summary for the host cache. Measured costs land in `ops`; the caller
/// charges them plus one pass for the summary scan.
pub(crate) fn build_shard_index<T: Key>(
    data: &mut [T],
    bounds: Vec<SepBound<T>>,
    ops: &mut OpCount,
) -> (ShardIndex<T>, BucketStats<T>) {
    let offsets = partition_by_bounds(data, &bounds, ops);
    let stats = bucket_stats(data, &offsets);
    (ShardIndex { bounds, offsets }, stats)
}

/// Picks up to `nb - 1` splitters from the pooled (sorted) sample values:
/// evenly spaced sample quantiles, deduplicated, all inclusive. Identical
/// on every shard because the pool is.
pub(crate) fn splitters_from_samples<T: Key>(pool: &[T], nb: usize) -> Vec<SepBound<T>> {
    if pool.is_empty() || nb < 2 {
        return Vec::new();
    }
    let mut values: Vec<T> = (1..nb).map(|i| pool[i * pool.len() / nb]).collect();
    values.dedup();
    values.into_iter().map(SepBound::le).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx(counts: &[u64], values: &[u64]) -> GlobalIndex<u64> {
        // Bucket b holds counts[b] copies of values[b] (min == max). Tests
        // that exercise the delta mirror set `delta_vals`/`delta_offsets`
        // explicitly; tests that exercise refinement replay set `bounds`.
        let minmax = counts
            .iter()
            .zip(values)
            .map(|(&c, &v)| if c == 0 { None } else { Some((v, v)) })
            .collect();
        let mut g = GlobalIndex {
            bounds: Vec::new(),
            counts: counts.to_vec(),
            prefix: Vec::new(),
            minmax,
            delta_vals: Vec::new(),
            delta_offsets: vec![0; counts.len() + 1],
            delta_total: 0,
        };
        g.rebuild_prefix();
        g
    }

    /// Installs a pending delta mirror: `vals` sorted, classified by the
    /// explicit per-bucket `offsets` (tests pick them by hand so the
    /// helper stays independent of `reclassify_delta`).
    fn with_delta(g: &mut GlobalIndex<u64>, vals: &[u64], offsets: &[u64]) {
        assert_eq!(offsets.len(), g.counts.len() + 1);
        g.delta_vals = vals.to_vec();
        g.delta_offsets = offsets.to_vec();
        g.delta_total = vals.len() as u64;
    }

    #[test]
    fn window_localizes_without_delta() {
        let g = idx(&[10, 0, 5, 5], &[1, 0, 3, 4]);
        assert_eq!(g.window(0), (0, 0));
        assert_eq!(g.window(9), (0, 0));
        assert_eq!(g.window(10), (2, 2)); // bucket 1 is empty
        assert_eq!(g.window(14), (2, 2));
        assert_eq!(g.window(15), (3, 3));
        assert_eq!(g.window(19), (3, 3));
    }

    #[test]
    fn delta_mirror_keeps_windows_single_bucket_exact() {
        let mut g = idx(&[10, 10], &[1, 2]);
        // Pending delta {1, 2, 2}: one element rebases bucket 0, two
        // rebase bucket 1 — merged populations 11 and 12.
        with_delta(&mut g, &[1, 2, 2], &[0, 1, 3]);
        assert_eq!(g.window(10), (0, 0));
        assert_eq!(g.window(11), (1, 1));
        assert_eq!(g.window(22), (1, 1));
        // The fast path serves straight through the pending delta: the
        // mirror proves each bucket stays a single equality class.
        assert_eq!(g.fast_value(0), Some(1));
        assert_eq!(g.fast_value(10), Some(1));
        assert_eq!(g.fast_value(11), Some(2));
        // A delta value that breaks a bucket's constancy refuses it.
        with_delta(&mut g, &[0, 2, 2], &[0, 1, 3]);
        assert_eq!(g.fast_value(0), None);
        assert_eq!(g.fast_value(12), Some(2));
    }

    #[test]
    fn fast_path_requires_singleton_constant_bucket() {
        let mut g = idx(&[4, 6, 2], &[7, 9, 11]);
        assert_eq!(g.fast_value(0), Some(7));
        assert_eq!(g.fast_value(5), Some(9));
        assert_eq!(g.fast_value(10), Some(11));
        g.minmax[1] = Some((8, 9)); // bucket 1 no longer constant
        assert_eq!(g.fast_value(5), None);
    }

    #[test]
    fn route_merges_overlapping_windows_and_splits_fast_ranks() {
        let mut g = idx(&[10, 10, 10], &[1, 2, 3]);
        g.minmax[1] = Some((2, 5)); // middle bucket not constant
        let routing = g.route([0, 12, 15, 25].into_iter());
        // Ranks 0 and 25 hit constant singleton buckets -> fast.
        assert_eq!(routing.fast, vec![(0, 1), (3, 3)]);
        // Ranks 12 and 15 share bucket-1's window -> one group.
        assert_eq!(routing.groups.len(), 1);
        let grp = &routing.groups[0];
        assert_eq!((grp.lo, grp.hi, grp.n), (1, 1, 10));
        assert_eq!(grp.ranks, vec![2, 5]); // relative to prefix[1] = 10
        assert_eq!(grp.out, vec![1, 2]);
    }

    #[test]
    fn count_bounds_are_exact_when_splitters_bound_the_probe() {
        // Buckets: 10×1 | 5 in [3,6] | 4×9.
        let mut g = idx(&[10, 5, 4], &[1, 0, 9]);
        g.minmax[1] = Some((3, 6));
        // Probes resolved by constant buckets alone are exact.
        assert_eq!(g.count_bounds(1, false), (0, 0));
        assert_eq!(g.count_bounds(1, true), (10, 10));
        assert_eq!(g.count_bounds(2, false), (10, 10));
        assert_eq!(g.count_bounds(9, false), (15, 15));
        assert_eq!(g.count_bounds(9, true), (19, 19));
        // A probe inside the straddling bucket brackets by its count.
        assert_eq!(g.count_bounds(5, false), (10, 15));
        assert_eq!(g.count_bounds(6, true), (15, 15)); // mx <= v resolves
        assert_eq!(g.count_bounds(6, false), (10, 15));
        // A pending delta contributes exactly through the sorted mirror:
        // brackets shift, they do not widen.
        with_delta(&mut g, &[0, 1, 7], &[0, 2, 3, 3]);
        assert_eq!(g.count_bounds(1, true), (12, 12));
        assert_eq!(g.count_bounds(1, false), (1, 1));
        assert_eq!(g.count_bounds(9, false), (18, 18));
        assert_eq!(g.count_bounds(5, false), (12, 17)); // straddle remains
    }

    #[test]
    fn approx_value_serves_single_bucket_windows() {
        let mut g = idx(&[4, 6], &[7, 0]);
        g.minmax[1] = Some((9, 20));
        // Constant bucket: exact, zero error.
        assert_eq!(g.approx_value(0), Some((7, 0)));
        // Straddling bucket: its min, error = offset into the bucket.
        assert_eq!(g.approx_value(4), Some((9, 0)));
        assert_eq!(g.approx_value(8), Some((9, 4)));
        // Delta pending: the mirror rebases the bucket's base rank and
        // extrema, so serving continues with the merged bounds.
        with_delta(&mut g, &[30], &[0, 0, 1]);
        assert_eq!(g.approx_value(0), Some((7, 0)));
        assert_eq!(g.approx_value(10), Some((9, 6)));
    }

    #[test]
    fn splice_and_absorb_keep_the_histogram_consistent() {
        let mut g = idx(&[10, 10], &[1, 5]);
        // Refine bucket 1 into three sub-buckets (e.g. around answer 5).
        g.splice_window(1, 1, &vec![(4, Some((4, 4))), (5, Some((5, 5))), (1, Some((6, 6)))]);
        g.rebuild_prefix();
        g.delta_offsets = vec![0; g.counts.len() + 1]; // reclassified (empty mirror)
        assert_eq!(g.counts, vec![10, 4, 5, 1]);
        assert_eq!(g.prefix, vec![0, 10, 14, 19, 20]);
        assert_eq!(g.fast_value(14), Some(5));
        // A delta merge adds counts in place.
        g.delta_total = 3;
        g.absorb_delta(&[vec![(0, None), (2, Some((3, 4))), (1, Some((5, 5))), (0, None)]]);
        assert_eq!(g.counts, vec![10, 6, 6, 1]);
        assert_eq!(g.delta_total, 0);
        assert_eq!(g.fast_value(14), None); // bucket 1 now spans 3..=4... rank 14 is in bucket 1
        assert_eq!(g.fast_value(16), Some(5));
    }

    #[test]
    fn removals_update_counts_and_delta() {
        let mut g = idx(&[5, 5], &[1, 2]);
        g.delta_total = 4;
        g.apply_removals(&[vec![2, 0, 1], vec![1, 5, 3]]);
        assert_eq!(g.counts, vec![2, 0]);
        assert_eq!(g.delta_total, 0);
        assert_eq!(g.prefix, vec![0, 2, 2]);
    }

    #[test]
    fn splitters_are_deduplicated_sample_quantiles() {
        let pool: Vec<u64> = (0..100).collect();
        let s = splitters_from_samples(&pool, 4);
        assert_eq!(s, vec![SepBound::le(25u64), SepBound::le(50), SepBound::le(75)]);
        assert!(splitters_from_samples(&[7u64; 50], 8).len() <= 1);
        assert!(splitters_from_samples::<u64>(&[], 8).is_empty());
        assert!(splitters_from_samples(&pool, 1).is_empty());
    }

    #[test]
    fn refined_bounds_carve_equality_classes() {
        let old = vec![SepBound::le(10u64)];
        let b = refined_bounds(&old, &[7, 10], None, None);
        assert_eq!(
            b,
            vec![SepBound::lt(7u64), SepBound::le(7), SepBound::lt(10), SepBound::le(10)]
        );
    }

    #[test]
    fn note_ingest_and_delete_keep_the_mirror_classified() {
        // Buckets: ≤10 | (10, 20] | >20.
        let mut g = idx(&[3, 3, 3], &[5, 15, 25]);
        g.bounds = vec![SepBound::le(10u64), SepBound::le(20)];
        g.note_ingest(vec![25, 10, 11, 5, 20]);
        assert_eq!(g.delta_vals, vec![5, 10, 11, 20, 25]);
        assert_eq!(g.delta_offsets, vec![0, 2, 4, 5]);
        assert_eq!(g.delta_total, 5);
        assert_eq!(g.window(0), (0, 0));
        assert_eq!(g.window(4), (0, 0)); // merged bucket 0 holds 5
        assert_eq!(g.window(5), (1, 1));
        // Deleting value classes prunes the mirror in place. The shards
        // would report one removal per deleted delta element, so the
        // engine's `apply_removals` decrements delta_total first.
        g.delta_total -= 2;
        g.note_delete(&[10, 20]);
        assert_eq!(g.delta_vals, vec![5, 11, 25]);
        assert_eq!(g.delta_offsets, vec![0, 1, 2, 3]);
    }

    #[test]
    fn refine_window_bounds_mirrors_the_shard_refinement() {
        // One window over buckets 1..=2 (internal splitter lt(30)),
        // refined by answer 25: the host must land on the same splitter
        // vector the shards compute from the identical inputs.
        let mut g = idx(&[2, 2, 2, 2], &[10, 20, 30, 40]);
        g.bounds = vec![SepBound::le(10u64), SepBound::lt(30), SepBound::le(30)];
        g.refine_window_bounds(1, 2, &[25]);
        assert_eq!(
            g.bounds,
            vec![
                SepBound::le(10u64),
                SepBound::lt(25),
                SepBound::le(25),
                SepBound::lt(30),
                SepBound::le(30)
            ]
        );
        // An answer equal to an inclusive outer bound still carves its
        // exclusive twin (class {10} splits off), but never re-inserts
        // the outer bound itself.
        g.refine_window_bounds(0, 0, &[10]);
        assert_eq!(g.bounds[..2], [SepBound::lt(10u64), SepBound::le(10)]);
    }

    #[test]
    fn refine_probe_bounds_carves_once_then_skips() {
        let mut g = idx(&[4, 4], &[10, 30]);
        g.bounds = vec![SepBound::le(20u64)];
        // Probe 15 lands in bucket 0: carve its equality class.
        assert_eq!(g.refine_probe_bounds(15), Some(0));
        assert_eq!(g.bounds, vec![SepBound::lt(15u64), SepBound::le(15), SepBound::le(20)]);
        // Already carved: the deterministic skip the shards also take.
        assert_eq!(g.refine_probe_bounds(15), None);
        // A probe in the last bucket carves there.
        assert_eq!(g.refine_probe_bounds(30), Some(3));
        assert_eq!(
            g.bounds,
            vec![
                SepBound::lt(15u64),
                SepBound::le(15),
                SepBound::le(20),
                SepBound::lt(30),
                SepBound::le(30)
            ]
        );
    }

    /// Deterministic pseudo-random stream for the coarsening tests.
    fn lcg(state: &mut u64) -> u64 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *state >> 33
    }

    /// One shard's data and index.
    type TestShard = (Vec<u64>, ShardIndex<u64>);

    /// Two shards of `values` (alternating), bucket-ordered under `bounds`,
    /// plus the host index assembled from their build summaries.
    fn shards_and_host(
        values: &[u64],
        bounds: &[SepBound<u64>],
    ) -> (Vec<TestShard>, GlobalIndex<u64>) {
        let mut shards = Vec::new();
        let mut stats = Vec::new();
        for r in 0..2 {
            let mut data: Vec<u64> = values.iter().skip(r).step_by(2).copied().collect();
            let (idx, st) = build_shard_index(&mut data, bounds.to_vec(), &mut OpCount::new());
            shards.push((data, idx));
            stats.push(st);
        }
        (shards, GlobalIndex::from_shard_stats(bounds.to_vec(), &stats))
    }

    #[test]
    fn coarsening_drops_are_ascending_in_range_and_bounded_by_mass() {
        let mut state = 11u64;
        for case in 0..200 {
            let nb = 2 + (lcg(&mut state) % 300) as usize;
            // Mostly light buckets, some empty, a few heavy ones.
            let counts: Vec<u64> = (0..nb)
                .map(|_| match lcg(&mut state) % 10 {
                    0 => 0,
                    1 => 500 + lcg(&mut state) % 5000,
                    _ => lcg(&mut state) % 40,
                })
                .collect();
            let g = idx(&counts, &vec![0; nb]);
            let target = 1 + (lcg(&mut state) % 64) as usize;
            let drops = g.coarsening_drops(target);
            assert!(check_drops(&drops, nb - 1).is_ok(), "case {case}: {drops:?}");
            let total: u64 = counts.iter().sum();
            let cap = total.div_ceil(target as u64);
            // Rebuild the merged buckets as runs of input buckets.
            let mut runs: Vec<Vec<u64>> = vec![vec![counts[0]]];
            for (b, &c) in counts.iter().enumerate().skip(1) {
                if drops.binary_search(&(b - 1)).is_ok() {
                    runs.last_mut().unwrap().push(c);
                } else {
                    runs.push(vec![c]);
                }
            }
            for run in &runs {
                let mass: u64 = run.iter().sum();
                assert!(run.len() == 1 || mass <= cap, "case {case}: run {run:?} over {cap}");
            }
            assert!(runs.len() <= (2 * target).max(1), "case {case}: {} buckets", runs.len());
        }
    }

    #[test]
    fn host_coarsening_equals_the_merged_shard_stats() {
        let values: Vec<u64> = (0..3000u64).map(|i| i.wrapping_mul(2654435761) % 997).collect();
        let bounds: Vec<SepBound<u64>> =
            (1..120u64).flat_map(|i| [SepBound::lt(i * 8), SepBound::le(i * 8)]).collect();
        let (mut shards, mut host) = shards_and_host(&values, &bounds);
        let drops = host.coarsening_drops(8);
        assert!(drops.len() > 200, "{} drops", drops.len());
        host.drop_splitters(&drops);
        let stats: Vec<BucketStats<u64>> = shards
            .iter_mut()
            .map(|(data, idx)| {
                idx.drop_splitters(&drops);
                bucket_stats(data, &idx.offsets)
            })
            .collect();
        let merged = GlobalIndex::from_shard_stats(shards[0].1.bounds.clone(), &stats);
        assert_eq!(host.bounds, merged.bounds);
        assert_eq!(host.counts, merged.counts);
        assert_eq!(host.minmax, merged.minmax);
        assert_eq!(host.prefix, merged.prefix);
        // No element moved: every shard is still bucket-ordered.
        for (data, idx) in &shards {
            for b in 0..idx.num_buckets() {
                for x in &data[idx.offsets[b]..idx.offsets[b + 1]] {
                    assert!(idx.bounds.get(b).is_none_or(|ub| ub.admits(x)));
                    assert!(b == 0 || !idx.bounds[b - 1].admits(x));
                }
            }
        }
    }

    #[test]
    fn coarsening_reclassifies_the_pending_delta() {
        let values: Vec<u64> = (0..400u64).map(|i| i % 100).collect();
        let bounds: Vec<SepBound<u64>> = (1..50u64).map(|i| SepBound::le(i * 2)).collect();
        let (_, mut host) = shards_and_host(&values, &bounds);
        host.note_ingest((0..300u64).map(|i| (i * 7) % 120));
        let drops = host.coarsening_drops(4);
        assert!(!drops.is_empty());
        host.drop_splitters(&drops);
        let mut reclassified = host.clone();
        reclassified.reclassify_delta();
        assert_eq!(host.delta_offsets, reclassified.delta_offsets);
        // Localization over the merged population still lands every rank
        // in the bucket that holds it.
        let mut all: Vec<u64> = values.iter().copied().chain(host.delta_vals.clone()).collect();
        all.sort_unstable();
        for (r, &x) in all.iter().enumerate() {
            let (b, _) = host.window(r as u64);
            assert!(host.bounds.get(b).is_none_or(|ub| ub.admits(&x)), "rank {r}");
            assert!(b == 0 || !host.bounds[b - 1].admits(&x), "rank {r}");
        }
    }

    #[test]
    fn malformed_drop_lists_are_rejected() {
        assert!(check_drops(&[], 0).is_ok());
        assert!(check_drops(&[0, 2, 5], 6).is_ok());
        assert!(check_drops(&[0, 2, 6], 6).is_err()); // out of range
        assert!(check_drops(&[2, 2], 6).is_err()); // repeated
        assert!(check_drops(&[3, 1], 6).is_err()); // descending
        assert!(check_drops(&[0], 0).is_err()); // no splitters at all
    }

    #[test]
    fn refined_bounds_respect_the_outer_bounds() {
        // An answer equal to an outer bound must not re-insert it: the
        // shard's stored splitter vector has to stay strictly increasing.
        let b = refined_bounds(&[], &[5u64, 20], Some(SepBound::lt(5)), Some(SepBound::le(20)));
        assert_eq!(b, vec![SepBound::le(5u64), SepBound::lt(20)]);
    }
}
