//! Deterministic input generation. Everything the engine sees — resident
//! data, request streams, mutation streams — is a pure function of the
//! workload seed, so the same seed gives a byte-identical stream on every
//! backend leg and every run.

use std::collections::HashSet;

use cgselect_engine::{Bounds, Request};

use crate::workload::Spec;

/// SplitMix64: tiny, fast, and good enough to drive a benchmark.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed; distinct streams of
    /// the same seed are independent.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform 63-bit value.
    pub fn uniform(&mut self) -> u64 {
        self.next_u64() >> 1
    }

    /// A power-law ("Zipf") value: `u⁴·10¹²`, most mass near 0 with a long
    /// tail and many duplicates among the smallest values.
    pub fn zipf(&mut self) -> u64 {
        (self.unit().powi(4) * 1e12) as u64
    }
}

const STREAM_DATA: u64 = 1;
const STREAM_REQUESTS: u64 = 2;
const STREAM_MUTATIONS: u64 = 3;

/// Value shape of a workload's data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    Uniform,
    Zipf,
}

impl Shape {
    fn draw(self, rng: &mut Rng) -> u64 {
        match self {
            Shape::Uniform => rng.uniform(),
            Shape::Zipf => rng.zipf(),
        }
    }
}

/// The initial resident data of a workload.
pub fn resident(seed: u64, shape: Shape, n: usize) -> Vec<u64> {
    let mut rng = Rng::new(seed, STREAM_DATA);
    (0..n).map(|_| shape.draw(&mut rng)).collect()
}

/// Draws ranks below `n` that were never drawn before (starting over once
/// half of them have been drawn, so a draw always ends quickly).
#[derive(Debug)]
struct FreshRanks {
    seen: HashSet<u64>,
}

impl FreshRanks {
    fn new() -> Self {
        FreshRanks { seen: HashSet::new() }
    }

    fn draw(&mut self, rng: &mut Rng, n: u64) -> u64 {
        if self.seen.len() as u64 >= n / 2 {
            self.seen.clear();
        }
        loop {
            let k = rng.below(n);
            if self.seen.insert(k) {
                return k;
            }
        }
    }
}

/// `fresh_exact`: batches of exact ranks never asked before plus `RankOf`
/// probes of values never probed before.
pub struct FreshExactStream {
    rng: Rng,
    n: u64,
    ranks: FreshRanks,
    probed: HashSet<u64>,
    spec: Spec,
}

impl FreshExactStream {
    pub fn new(seed: u64, spec: Spec) -> Self {
        FreshExactStream {
            rng: Rng::new(seed, STREAM_REQUESTS),
            n: spec.resident as u64,
            ranks: FreshRanks::new(),
            probed: HashSet::new(),
            spec,
        }
    }

    pub fn next_batch(&mut self) -> Vec<Request<u64>> {
        let mut batch = Vec::with_capacity(self.spec.fresh_ranks + self.spec.fresh_probes);
        for _ in 0..self.spec.fresh_ranks {
            batch.push(Request::rank(self.ranks.draw(&mut self.rng, self.n)));
        }
        for _ in 0..self.spec.fresh_probes {
            let v = loop {
                let v = self.rng.uniform();
                if self.probed.insert(v) {
                    break v;
                }
            };
            batch.push(Request::rank_of(v));
        }
        batch
    }
}

/// The four repeated dashboard quantiles of `serve_mixed`.
pub const DASHBOARD: [f64; 4] = [0.5, 0.9, 0.99, 0.999];

/// The tolerance of every `within_rank` request.
pub const TOLERANCE: f64 = 0.01;

/// `serve_mixed`: single requests drawn from a fixed mix.
pub struct ServeMixedStream {
    rng: Rng,
    n: u64,
    ranks: FreshRanks,
}

impl ServeMixedStream {
    pub fn new(seed: u64, spec: Spec) -> Self {
        ServeMixedStream {
            rng: Rng::new(seed, STREAM_REQUESTS),
            n: spec.resident as u64,
            ranks: FreshRanks::new(),
        }
    }

    /// 40% dashboard quantiles, 20% tolerant quantiles, 20% `RankOf`, 10%
    /// `CountBetween`, 10% fresh exact ranks.
    pub fn next_request(&mut self) -> Request<u64> {
        let rng = &mut self.rng;
        match rng.below(10) {
            0..=3 => Request::quantile(DASHBOARD[rng.below(4) as usize]),
            4 | 5 => Request::quantile(rng.unit()).within_rank(TOLERANCE),
            6 | 7 => Request::rank_of(rng.zipf()),
            8 => {
                let (a, b) = (rng.zipf(), rng.zipf());
                Request::count_between(Bounds::closed(a.min(b), a.max(b)))
            }
            _ => Request::rank(self.ranks.draw(rng, self.n)),
        }
    }
}

/// One `ingest_churn` tick's mutations and batch.
#[derive(Clone, Debug, PartialEq)]
pub struct Tick {
    /// Elements to ingest round-robin (empty on a burst tick).
    pub ingest: Vec<u64>,
    /// A pinned burst `(shard, elements)` that crosses the imbalance
    /// watermark.
    pub burst: Option<(usize, Vec<u64>)>,
    /// Values whose every resident occurrence is deleted (may be empty).
    pub delete: Vec<u64>,
    /// The tick's query batch: fresh exact ranks plus one tolerant quantile.
    pub batch: Vec<Request<u64>>,
}

/// `ingest_churn`: the tick script of one episode. Every episode replays
/// the same script from the same start state.
pub struct ChurnStream {
    rng: Rng,
    spec: Spec,
    tick: usize,
    ranks: FreshRanks,
    chunks: Vec<Vec<u64>>,
}

impl ChurnStream {
    pub fn new(seed: u64, spec: Spec) -> Self {
        ChurnStream {
            rng: Rng::new(seed, STREAM_MUTATIONS),
            spec,
            tick: 0,
            ranks: FreshRanks::new(),
            chunks: Vec::new(),
        }
    }

    pub fn next_tick(&mut self) -> Tick {
        let t = self.tick;
        self.tick += 1;
        let spec = self.spec;
        let rng = &mut self.rng;
        let chunk: Vec<u64> = (0..spec.chunk).map(|_| rng.zipf()).collect();
        let (ingest, burst) = if t % spec.burst_every == spec.burst_every / 2 {
            let shard = (t / spec.burst_every) % spec.shards;
            let mut items = chunk.clone();
            items.extend((0..spec.resident / spec.burst_divisor).map(|_| rng.zipf()));
            (Vec::new(), Some((shard, items)))
        } else {
            (chunk.clone(), None)
        };
        self.chunks.push(chunk);
        // Every 4th tick deletes a quarter of the chunk from three ticks
        // earlier (each chunk is chosen at most once).
        let delete = if t % 4 == 3 {
            let earlier = &self.chunks[t - 3];
            earlier[..earlier.len() / 4].to_vec()
        } else {
            Vec::new()
        };
        // Ranks stay below the start population, which an episode never
        // shrinks below: each 4-tick window ingests far more than it
        // deletes.
        let n0 = spec.resident as u64;
        let mut batch: Vec<Request<u64>> =
            (0..spec.churn_ranks).map(|_| Request::rank(self.ranks.draw(rng, n0))).collect();
        batch.push(Request::quantile(rng.unit()).within_rank(TOLERANCE));
        Tick { ingest, burst, delete, batch }
    }
}

/// A canonical byte encoding of requests, for pinning stream determinism.
#[cfg(test)]
pub fn encode_requests(out: &mut Vec<u8>, requests: &[Request<u64>]) {
    for r in requests {
        use cgselect_engine::QueryKind;
        let (tag, words): (u8, Vec<u64>) = match &r.kind {
            QueryKind::Rank(k) => (0, vec![*k]),
            QueryKind::Quantile(q) => (1, vec![q.to_bits()]),
            QueryKind::RankOf(v) => (2, vec![*v]),
            QueryKind::CountBetween(b) => {
                let lo = b.lo.map_or(u64::MAX, |(v, _)| v);
                let hi = b.hi.map_or(u64::MAX, |(v, _)| v);
                (3, vec![lo, hi])
            }
            other => panic!("the benchmark never generates {}", other.label()),
        };
        out.push(tag);
        out.extend(format!("{:?}", r.accuracy).bytes());
        for w in words {
            out.extend(w.to_le_bytes());
        }
    }
}
