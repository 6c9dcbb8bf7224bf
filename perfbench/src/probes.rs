//! Direct calls into single layers, outside every end-to-end timing: the
//! `seqsel` scan kernels and the ε-sketch merge, each on one shard's slice
//! of the workload's data (the engine ingests round-robin, so shard `r`
//! holds every `shards`-th element starting at `r`).

use std::hint::black_box;
use std::time::Instant;

use cgselect_engine::EpsSketch;
use cgselect_seqsel::{count_below_kernel, partition_by_bounds, OpCount, SepBound};

use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::SETUP_OP;

/// Compactor capacity of the merged sketches (the engine's default).
const SKETCH_CAPACITY: usize = 2048;
/// Splitters of the partition probe (the engine's default bucket count).
const BUCKETS: usize = 64;
const REPS: usize = 15;

#[derive(Clone, Debug, Default)]
pub struct Probes {
    pub count_below_ns_per_elem: f64,
    pub partition_ns_per_elem: f64,
    pub sketch_merge_us: f64,
}

fn shard(data: &[u64], shards: usize, rank: usize) -> Vec<u64> {
    data.iter().skip(rank).step_by(shards).copied().collect()
}

/// Median wall time in ns of `REPS` spans of `f`, each after `prepare`.
fn time_reps<S>(
    tr: &mut Tracer,
    name: &'static str,
    mut prepare: impl FnMut() -> S,
    mut f: impl FnMut(S),
) -> f64 {
    let mut ns = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let state = prepare();
        let span = tr.begin(name, SETUP_OP);
        let t0 = Instant::now();
        f(state);
        ns.push(t0.elapsed().as_nanos() as f64);
        tr.end(span);
    }
    median(&ns)
}

pub fn run(tr: &mut Tracer, data: &[u64], shards: usize) -> Probes {
    let slice = shard(data, shards, 0);
    let mut sorted = slice.clone();
    sorted.sort_unstable();
    let pivot = sorted[sorted.len() / 2];
    let count_ns = time_reps(
        tr,
        "seqsel.count_below_kernel",
        || (),
        |()| {
            let mut cmps = 0;
            black_box(count_below_kernel(black_box(&slice), pivot, false, &mut cmps));
        },
    );
    let mut bounds: Vec<SepBound<u64>> =
        (1..BUCKETS).map(|i| SepBound::le(sorted[i * sorted.len() / BUCKETS])).collect();
    bounds.dedup();
    let partition_ns = time_reps(
        tr,
        "seqsel.partition_by_bounds",
        || slice.clone(),
        |mut buf| {
            let mut ops = OpCount::new();
            black_box(partition_by_bounds(black_box(&mut buf), &bounds, &mut ops));
        },
    );
    let a = EpsSketch::from_data(SKETCH_CAPACITY, &slice);
    let b = EpsSketch::from_data(SKETCH_CAPACITY, &shard(data, shards, 1));
    let merge_ns = time_reps(
        tr,
        "sketch.merge",
        || a.clone(),
        |mut s| {
            s.merge(&b);
            black_box(s);
        },
    );
    Probes {
        count_below_ns_per_elem: count_ns / slice.len() as f64,
        partition_ns_per_elem: partition_ns / slice.len() as f64,
        sketch_merge_us: merge_ns / 1e3,
    }
}
