//! The deterministic mergeable ε-sketch: a compactor hierarchy in the
//! Munro–Paterson / deterministic-KLL style.
//!
//! Level `h` holds items of weight `2^h`. Offering an item appends it to
//! level 0; when a level fills to the capacity `k` it is **compacted**:
//! sorted, then every other item (alternating the starting parity
//! deterministically) is promoted to the next level with doubled weight.
//! Total mass `Σ weight` always equals the number of offered items, and
//! each compaction at level `h` moves any item's estimated rank by at most
//! `2^h` — the sketch *maintains its own worst-case error* in
//! [`EpsSketch::err`]-style accounting rather than quoting an asymptotic:
//!
//! * value → rank ([`EpsSketch::rank_of`]): error ≤
//!   [`count_error_bound`](EpsSketch::count_error_bound) `= err`;
//! * rank → value ([`EpsSketch::query_rank`]): the returned element's true
//!   rank is within [`rank_error_bound`](EpsSketch::rank_error_bound)
//!   `= err + w_max − 1` of the target, where `w_max` is the largest item
//!   weight (the extra `w_max − 1` is the discretization gap of picking
//!   one weighted item).
//!
//! Summed over a stream of `n` items the error is `O((n/k)·log(n/k))` —
//! deterministic, no RNG anywhere, so equal offer streams give
//! bit-identical sketches on every backend and every host.
//!
//! `merge` concatenates levels, adds the two `err` terms, and re-compacts:
//! the bound is **closed under merge**, which is what lets shard sketches
//! ride migration/join/retire snapshots and still sum to a valid global
//! guarantee.

use cgselect_runtime::Key;

/// A deterministic mergeable quantile sketch with a self-reported
/// worst-case rank-error bound.
#[derive(Clone, Debug)]
pub struct EpsSketch<T> {
    /// Compactor capacity per level; `0` disables the sketch (offers are
    /// counted but nothing is stored).
    k: usize,
    /// Number of items offered (or merged in); the total mass.
    n: u64,
    /// Accumulated worst-case rank error from every compaction so far.
    err: u64,
    /// `levels[h]` holds unsorted items of weight `2^h`.
    levels: Vec<Vec<T>>,
    /// Per-level compaction parity: which half survives next time.
    parities: Vec<bool>,
    /// Lazily built sorted `(item, cumulative_weight)` view for queries;
    /// invalidated by every mutation, excluded from equality and the wire
    /// encoding.
    view: Option<Vec<(T, u64)>>,
}

/// Equality of sketch *state* — the query cache is excluded, so a freshly
/// decoded sketch equals the one that was encoded.
impl<T: Key> PartialEq for EpsSketch<T> {
    fn eq(&self, other: &Self) -> bool {
        self.k == other.k
            && self.n == other.n
            && self.err == other.err
            && self.levels == other.levels
            && self.parities == other.parities
    }
}

impl<T: Key> Eq for EpsSketch<T> {}

impl<T: Key> EpsSketch<T> {
    /// An empty sketch with compactor capacity `k` (0 disables storage).
    pub fn new(k: usize) -> Self {
        EpsSketch { k, n: 0, err: 0, levels: Vec::new(), parities: Vec::new(), view: None }
    }

    /// Builds a sketch of `data` by offering every element in order.
    pub fn from_data(k: usize, data: &[T]) -> Self {
        let mut s = EpsSketch::new(k);
        s.extend(data);
        s
    }

    /// The compactor capacity this sketch was built with.
    pub fn capacity(&self) -> usize {
        self.k
    }

    /// Total mass: how many elements the sketch represents.
    pub fn population(&self) -> u64 {
        self.n
    }

    /// Offers one element. Deterministic: equal offer streams produce
    /// bit-identical sketches.
    pub fn offer(&mut self, x: T) {
        self.extend(std::slice::from_ref(&x));
    }

    /// Offers every element of `items` in order: level 0 fills by slices,
    /// each running up to the next compaction, so the state is the same
    /// however the stream is sliced across calls.
    pub(crate) fn extend(&mut self, items: &[T]) {
        self.n += items.len() as u64;
        if self.k == 0 || items.is_empty() {
            return;
        }
        self.view = None;
        if self.levels.is_empty() {
            self.levels.push(Vec::with_capacity(self.k));
            self.parities.push(false);
        }
        let mut rest = items;
        while !rest.is_empty() {
            // Level 0 compacts as soon as it reaches `k`; a level already
            // at or past `k` (`k = 1`, or a decoded state) compacts after
            // one more item.
            let room = self.k.saturating_sub(self.levels[0].len()).max(1);
            let (head, tail) = rest.split_at(room.min(rest.len()));
            self.levels[0].extend_from_slice(head);
            rest = tail;
            if self.levels[0].len() >= self.k {
                self.compact(0);
            }
        }
    }

    /// Discards the current state and re-sketches `data` — used after
    /// deletes and rebalances, which mutate the represented multiset.
    pub fn rebuild(&mut self, data: &[T]) {
        *self = EpsSketch::from_data(self.k, data);
    }

    /// Folds `other` into `self`. The error bound is closed under merge:
    /// the merged sketch's bound is valid for the union multiset.
    pub fn merge(&mut self, other: &EpsSketch<T>) {
        self.n += other.n;
        self.err += other.err;
        if other.levels.iter().all(|l| l.is_empty()) {
            return;
        }
        self.view = None;
        if self.k == 0 {
            // A disabled sketch absorbs only the counts; with no storage
            // there is nothing to answer from, and the engine never routes
            // queries here.
            return;
        }
        while self.levels.len() < other.levels.len() {
            self.levels.push(Vec::new());
            self.parities.push(false);
        }
        for (h, level) in other.levels.iter().enumerate() {
            self.levels[h].extend_from_slice(level);
        }
        let mut h = 0;
        while h < self.levels.len() {
            if self.levels[h].len() >= self.k {
                self.compact(h);
            }
            h += 1;
        }
    }

    /// Compacts level `h`: sort, hold one item back if the count is odd,
    /// promote every other item (alternating parity) with doubled weight.
    /// Adds `2^h` to the worst-case error and cascades if the next level
    /// fills.
    fn compact(&mut self, h: usize) {
        if self.levels.len() <= h + 1 {
            self.levels.push(Vec::new());
            self.parities.push(false);
        }
        let (lower, upper) = self.levels.split_at_mut(h + 1);
        let (buf, next) = (&mut lower[h], &mut upper[0]);
        // Level 0 holds offers in arrival order, where the unstable sort is
        // fastest. A higher level is a concatenation of sorted promoted runs
        // (plus at most one held-back item), which the run-adaptive stable
        // sort merges in linear time. Ord-equal keys are bit-identical, so
        // both sorts leave the same sequence.
        if h == 0 {
            buf.sort_unstable();
        } else {
            buf.sort();
        }
        // An odd survivor stays at this level so promotion always pairs
        // items; mass is conserved either way.
        let stay = if buf.len() % 2 == 1 { buf.pop() } else { None };
        let parity = self.parities[h];
        self.parities[h] = !parity;
        next.extend(buf.iter().skip(usize::from(parity)).step_by(2).copied());
        buf.clear();
        buf.extend(stay);
        self.err += 1u64 << h;
        if self.levels[h + 1].len() >= self.k {
            self.compact(h + 1);
        }
    }

    /// The largest item weight currently held (1 for an uncompacted or
    /// empty sketch).
    fn max_weight(&self) -> u64 {
        self.levels
            .iter()
            .enumerate()
            .rev()
            .find(|(_, level)| !level.is_empty())
            .map_or(1, |(h, _)| 1u64 << h)
    }

    /// Guaranteed absolute error of [`rank_of`](Self::rank_of) estimates:
    /// the accumulated compaction error. `0` while the sketch is lossless
    /// (every offered item still resident, i.e. `n < k`, before the first
    /// compaction).
    pub fn count_error_bound(&self) -> u64 {
        self.err
    }

    /// Guaranteed absolute rank error of [`query_rank`](Self::query_rank)
    /// answers: compaction error plus the weight-discretization gap.
    pub fn rank_error_bound(&self) -> u64 {
        self.err + (self.max_weight() - 1)
    }

    /// The sorted weighted view, built on first use after a mutation.
    fn view(&mut self) -> &[(T, u64)] {
        if self.view.is_none() {
            let mut items: Vec<(T, u64)> = Vec::new();
            for (h, level) in self.levels.iter().enumerate() {
                let w = 1u64 << h;
                items.extend(level.iter().map(|&x| (x, w)));
            }
            items.sort_unstable_by_key(|&(x, _)| x);
            let mut cum = 0u64;
            for item in &mut items {
                cum += item.1;
                item.1 = cum;
            }
            self.view = Some(items);
        }
        self.view.as_deref().expect("view just built")
    }

    /// The element whose estimated rank covers 0-based `target`: its true
    /// rank is within [`rank_error_bound`](Self::rank_error_bound) of
    /// `target` (for any `target < n`).
    ///
    /// # Panics
    /// Panics if the sketch holds no items.
    pub fn query_rank(&mut self, target: u64) -> T {
        let view = self.view();
        assert!(!view.is_empty(), "rank query over an empty sketch");
        // First item whose cumulative weight covers the target (+1: ranks
        // are 0-based, cumulative weights are counts).
        let i = view.partition_point(|&(_, cum)| cum < target + 1);
        view[i.min(view.len() - 1)].0
    }

    /// Estimated number of resident elements admitted by the probe
    /// (`x < value`, or `x ≤ value` when `inclusive`): within
    /// [`count_error_bound`](Self::count_error_bound) of the true count.
    /// Never exceeds the population (mass is conserved).
    pub fn rank_of(&mut self, value: T, inclusive: bool) -> u64 {
        let n = self.n;
        let view = self.view();
        let i = if inclusive {
            view.partition_point(|&(x, _)| x <= value)
        } else {
            view.partition_point(|&(x, _)| x < value)
        };
        let est = if i == 0 { 0 } else { view[i - 1].1 };
        est.min(n)
    }

    /// `m` evenly rank-spaced elements (ascending, possibly with repeats) —
    /// the deterministic splitter seed for the bucket index. Empty when the
    /// sketch holds no items.
    pub fn quantile_points(&mut self, m: usize) -> Vec<T> {
        if m == 0 || self.levels.iter().all(|l| l.is_empty()) {
            return Vec::new();
        }
        let n = self.n;
        (0..m)
            .map(|j| {
                let target =
                    if m == 1 { n / 2 } else { (j as u64).saturating_mul(n - 1) / (m as u64 - 1) };
                self.query_rank(target)
            })
            .collect()
    }

    /// Canonical byte encoding of the sketch state (query cache excluded):
    /// bit-identical for equal sketches, including mid-stream parities.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        (self.k as u64).wire_write(&mut out);
        self.n.wire_write(&mut out);
        self.err.wire_write(&mut out);
        (self.levels.len() as u64).wire_write(&mut out);
        for (level, &parity) in self.levels.iter().zip(&self.parities) {
            out.push(u8::from(parity));
            (level.len() as u64).wire_write(&mut out);
            for &x in level {
                x.wire_write(&mut out);
            }
        }
        out
    }

    /// Decodes a [`to_bytes`](Self::to_bytes) encoding. Returns `None` on
    /// truncated or malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut pos = 0usize;
        let u64_at = |pos: &mut usize| -> Option<u64> {
            let end = pos.checked_add(8)?;
            let v = u64::wire_read(bytes.get(*pos..end)?);
            *pos = end;
            Some(v)
        };
        let k = u64_at(&mut pos)? as usize;
        let n = u64_at(&mut pos)?;
        let err = u64_at(&mut pos)?;
        let num_levels = u64_at(&mut pos)? as usize;
        let mut levels = Vec::with_capacity(num_levels);
        let mut parities = Vec::with_capacity(num_levels);
        for _ in 0..num_levels {
            let parity = *bytes.get(pos)? != 0;
            pos += 1;
            let len = u64_at(&mut pos)? as usize;
            let mut level = Vec::with_capacity(len.min(1 << 20));
            for _ in 0..len {
                let end = pos.checked_add(T::WIRE_BYTES)?;
                level.push(T::wire_read(bytes.get(pos..end)?));
                pos = end;
            }
            levels.push(level);
            parities.push(parity);
        }
        if pos != bytes.len() {
            return None;
        }
        Some(EpsSketch { k, n, err, levels, parities, view: None })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgselect_runtime::OrdF64;

    fn oracle_rank(sorted: &[u64], v: u64, inclusive: bool) -> u64 {
        if inclusive {
            sorted.partition_point(|&x| x <= v) as u64
        } else {
            sorted.partition_point(|&x| x < v) as u64
        }
    }

    #[test]
    fn lossless_below_capacity() {
        let mut s = EpsSketch::new(64);
        for x in (0..50u64).rev() {
            s.offer(x);
        }
        assert_eq!(s.rank_error_bound(), 0);
        assert_eq!(s.count_error_bound(), 0);
        for r in 0..50 {
            assert_eq!(s.query_rank(r), r);
        }
        for v in [0u64, 7, 49, 100] {
            assert_eq!(s.rank_of(v, false), v.min(50));
            assert_eq!(s.rank_of(v, true), (v + 1).min(50));
        }
    }

    #[test]
    fn mass_is_conserved_through_compaction() {
        let mut s = EpsSketch::new(16);
        for x in 0..10_000u64 {
            s.offer(x.wrapping_mul(2654435761) % 100_003);
        }
        assert_eq!(s.population(), 10_000);
        let mass: u64 = s.levels.iter().enumerate().map(|(h, l)| (l.len() as u64) << h).sum();
        assert_eq!(mass, 10_000, "compaction must conserve total mass");
    }

    #[test]
    fn errors_stay_within_the_reported_bound() {
        let n = 50_000u64;
        let mut s = EpsSketch::new(256);
        let mut data: Vec<u64> = (0..n).map(|i| i.wrapping_mul(48271) % 1_000_003).collect();
        for &x in &data {
            s.offer(x);
        }
        data.sort_unstable();
        let bound = s.rank_error_bound();
        assert!(bound > 0 && bound < n / 10, "bound {bound} out of expected range");
        for target in [0u64, 1, n / 4, n / 2, 3 * n / 4, n - 1] {
            let v = s.query_rank(target);
            let lo = oracle_rank(&data, v, false);
            let hi = oracle_rank(&data, v, true) - 1;
            // The true rank of v is the closest rank in [lo, hi].
            let dist = if target < lo { lo - target } else { target.saturating_sub(hi) };
            assert!(dist <= bound, "target {target}: value {v} off by {dist} > bound {bound}");
        }
        let cbound = s.count_error_bound();
        for v in [0u64, 250_000, 500_000, 999_999] {
            let est = s.rank_of(v, false);
            let truth = oracle_rank(&data, v, false);
            assert!(est.abs_diff(truth) <= cbound, "rank_of({v}) {est} vs {truth} > {cbound}");
        }
    }

    #[test]
    fn merge_is_closed_under_the_bound() {
        let mut a = EpsSketch::new(64);
        let mut b = EpsSketch::new(64);
        let mut all: Vec<u64> = Vec::new();
        for i in 0..20_000u64 {
            let x = i.wrapping_mul(2654435761) % 65_521;
            if i % 2 == 0 {
                a.offer(x);
            } else {
                b.offer(x);
            }
            all.push(x);
        }
        all.sort_unstable();
        a.merge(&b);
        assert_eq!(a.population(), 20_000);
        let bound = a.rank_error_bound();
        for target in [0u64, 5000, 10_000, 19_999] {
            let v = a.query_rank(target);
            let lo = oracle_rank(&all, v, false);
            let hi = oracle_rank(&all, v, true) - 1;
            let dist = if target < lo { lo - target } else { target.saturating_sub(hi) };
            assert!(dist <= bound, "merged: target {target} off by {dist} > bound {bound}");
        }
    }

    #[test]
    fn equal_streams_give_bit_identical_sketches() {
        let stream: Vec<u64> = (0..5000u64).map(|i| i.wrapping_mul(69621) % 9973).collect();
        let a = EpsSketch::from_data(32, &stream);
        let b = EpsSketch::from_data(32, &stream);
        assert_eq!(a, b);
        assert_eq!(a.to_bytes(), b.to_bytes());
    }

    #[test]
    fn byte_roundtrip_is_identity_mid_stream() {
        let mut s = EpsSketch::new(16);
        for i in 0..777u64 {
            s.offer(i.wrapping_mul(48271) % 1009);
        }
        let bytes = s.to_bytes();
        let mut back: EpsSketch<u64> = EpsSketch::from_bytes(&bytes).expect("decodes");
        assert_eq!(back, s);
        assert_eq!(back.to_bytes(), bytes);
        // The restored sketch continues the stream identically.
        for i in 777..1500u64 {
            let x = i.wrapping_mul(48271) % 1009;
            s.offer(x);
            back.offer(x);
        }
        assert_eq!(back, s);
        assert!(EpsSketch::<u64>::from_bytes(&bytes[..bytes.len() - 1]).is_none());
    }

    #[test]
    fn disabled_sketch_counts_but_stores_nothing() {
        let mut s = EpsSketch::new(0);
        for x in 0..100u64 {
            s.offer(x);
        }
        assert_eq!(s.population(), 100);
        assert!(s.levels.is_empty());
        assert!(s.quantile_points(8).is_empty());
    }

    /// A deterministic stream with many duplicates (so equal keys meet in
    /// every compaction).
    fn stream(len: usize, seed: u64) -> Vec<u64> {
        (0..len as u64).map(|i| (i ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 54).collect()
    }

    /// Floats covering signed zeros, infinities and NaNs: all distinct
    /// under `total_cmp`, so any sort that confused them would show.
    fn float_stream(len: usize, seed: u64) -> Vec<OrdF64> {
        let specials = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -f64::NAN, 1.5];
        stream(len, seed)
            .into_iter()
            .map(|x| {
                let i = x as usize % (specials.len() + 3);
                OrdF64(specials.get(i).copied().unwrap_or(x as f64 - 500.0))
            })
            .collect()
    }

    /// The reference sketch: one element at a time, `sort_unstable` at
    /// every level. Bulk filling and the upper levels' merging sort must
    /// reproduce its state bit for bit.
    fn offered_reference<T: Key>(k: usize, items: &[T]) -> EpsSketch<T> {
        fn compact<T: Key>(s: &mut EpsSketch<T>, h: usize) {
            if s.levels.len() <= h + 1 {
                s.levels.push(Vec::new());
                s.parities.push(false);
            }
            let mut buf = std::mem::take(&mut s.levels[h]);
            buf.sort_unstable();
            if buf.len() % 2 == 1 {
                s.levels[h].push(buf.pop().expect("odd buffer"));
            }
            let parity = s.parities[h];
            s.parities[h] = !parity;
            s.levels[h + 1].extend(buf.iter().skip(usize::from(parity)).step_by(2));
            s.err += 1 << h;
            if s.levels[h + 1].len() >= s.k {
                compact(s, h + 1);
            }
        }
        let mut s = EpsSketch::new(k);
        for &x in items {
            s.n += 1;
            if k == 0 {
                continue;
            }
            if s.levels.is_empty() {
                s.levels.push(Vec::new());
                s.parities.push(false);
            }
            s.levels[0].push(x);
            if s.levels[0].len() >= k {
                compact(&mut s, 0);
            }
        }
        s
    }

    /// Offers `prefix` one by one, then feeds `items` through `extend` in
    /// slices whose lengths cycle through `cuts` (zero-length ones too).
    fn extended<T: Key>(k: usize, prefix: &[T], items: &[T], cuts: &[usize]) -> EpsSketch<T> {
        let mut s = EpsSketch::new(k);
        for &x in prefix {
            s.offer(x);
        }
        let mut rest = items;
        for &c in cuts.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (head, tail) = rest.split_at(c.min(rest.len()));
            s.extend(head);
            rest = tail;
        }
        s
    }

    fn assert_extend_matches_the_reference<T: Key>(make: impl Fn(usize, u64) -> Vec<T>) {
        let slicings: [&[usize]; 4] = [&[usize::MAX], &[1], &[0, 3, 1, 7], &[5, 2048, 13]];
        for k in [0usize, 1, 2, 3, 7, 2048] {
            let lens = [0, 1, k.saturating_sub(1), k, k + 1, 5 * k + 3, 10_000];
            for (case, &len) in lens.iter().enumerate() {
                let items = make(len, case as u64);
                // Mid-stream too: a prefix leaves level 0 partly full.
                for prefix in [Vec::new(), make(k / 2 + 1, 99)] {
                    let all: Vec<T> = prefix.iter().chain(&items).copied().collect();
                    let want = offered_reference(k, &all);
                    for cuts in slicings {
                        let got = extended(k, &prefix, &items, cuts);
                        assert!(got == want, "k={k} len={len} cuts={cuts:?}: state differs");
                        assert_eq!(got.to_bytes(), want.to_bytes(), "k={k} len={len}");
                    }
                }
            }
        }
    }

    #[test]
    fn extend_matches_the_one_by_one_reference_exactly() {
        assert_extend_matches_the_reference(stream);
        assert_extend_matches_the_reference(float_stream);
    }

    #[test]
    fn quantile_points_are_sorted_and_cover_the_range() {
        let mut s = EpsSketch::new(128);
        for i in 0..10_000u64 {
            s.offer(i);
        }
        let pts = s.quantile_points(16);
        assert_eq!(pts.len(), 16);
        assert!(pts.windows(2).all(|w| w[0] <= w[1]), "points must ascend: {pts:?}");
        assert!(pts[0] <= 1000 && pts[15] >= 9000, "points must span the range: {pts:?}");
    }
}
