//! The sorted-multiset oracle every answer is checked against, and the
//! checker that turns verdicts into the failure count behind
//! `success_rate`. Checking always happens outside the timed region.

use cgselect_engine::{Accuracy, Bounds, Outcome, QueryKind, Request, Response};

/// A sorted copy of the resident multiset, mutated exactly like the engine
/// (`delete` removes every occurrence of each value).
#[derive(Clone, Debug)]
pub struct Oracle {
    sorted: Vec<u64>,
}

impl Oracle {
    pub fn new(mut data: Vec<u64>) -> Self {
        data.sort_unstable();
        Oracle { sorted: data }
    }

    pub fn len(&self) -> u64 {
        self.sorted.len() as u64
    }

    /// Elements strictly below `v`.
    pub fn rank_of(&self, v: u64) -> u64 {
        self.sorted.partition_point(|&x| x < v) as u64
    }

    /// Elements at most `v`.
    fn count_le(&self, v: u64) -> u64 {
        self.sorted.partition_point(|&x| x <= v) as u64
    }

    fn count_between(&self, b: &Bounds<u64>) -> u64 {
        let lo = match b.lo {
            None => 0,
            Some((v, true)) => self.rank_of(v),
            Some((v, false)) => self.count_le(v),
        };
        let hi = match b.hi {
            None => self.len(),
            Some((v, true)) => self.count_le(v),
            Some((v, false)) => self.rank_of(v),
        };
        hi.saturating_sub(lo)
    }

    /// Nearest-rank quantile: `round(q·(n−1))`, the engine's documented
    /// contract.
    pub fn quantile_rank(&self, q: f64) -> u64 {
        let n = self.len();
        ((q * (n - 1) as f64).round() as u64).min(n - 1)
    }

    pub fn ingest(&mut self, items: &[u64]) {
        let mut add = items.to_vec();
        add.sort_unstable();
        let old = std::mem::take(&mut self.sorted);
        let mut merged = Vec::with_capacity(old.len() + add.len());
        let (mut i, mut j) = (0, 0);
        while i < old.len() && j < add.len() {
            if old[i] <= add[j] {
                merged.push(old[i]);
                i += 1;
            } else {
                merged.push(add[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&old[i..]);
        merged.extend_from_slice(&add[j..]);
        self.sorted = merged;
    }

    /// Removes every occurrence of each value; returns how many elements
    /// were removed.
    pub fn delete(&mut self, values: &[u64]) -> u64 {
        let mut gone = values.to_vec();
        gone.sort_unstable();
        gone.dedup();
        let before = self.sorted.len();
        self.sorted.retain(|x| gone.binary_search(x).is_err());
        (before - self.sorted.len()) as u64
    }

    /// The 0-based rank a rank-direction request targets.
    fn target_rank(&self, kind: &QueryKind<u64>) -> Option<u64> {
        match kind {
            QueryKind::Rank(k) => Some(*k),
            QueryKind::Quantile(q) => Some(self.quantile_rank(*q)),
            QueryKind::Median => Some((self.len() - 1) / 2),
            _ => None,
        }
    }

    /// Checks one answer against this state of the multiset.
    pub fn check(&self, req: &Request<u64>, out: &Outcome<u64>) -> Verdict {
        if out.freshness.elements != self.len() {
            return Verdict::Wrong(format!(
                "answer reflects {} elements, oracle holds {}",
                out.freshness.elements,
                self.len()
            ));
        }
        let tolerance = match req.accuracy {
            Accuracy::WithinRank(t) => Some((t * self.len() as f64).ceil() as u64),
            _ => None,
        };
        if let Some(target) = self.target_rank(&req.kind) {
            let truth = self.sorted[target as usize];
            return match out.response {
                Response::Element(v) if v == truth => Verdict::Exact,
                Response::Approximate { value, target_rank, max_rank_error }
                    if target_rank == target =>
                {
                    match tolerance {
                        Some(t) if max_rank_error <= t => {
                            let lo = self.rank_of(value);
                            let hi = self.count_le(value).saturating_sub(1);
                            let err = lo.saturating_sub(target).max(target.saturating_sub(hi));
                            if err <= max_rank_error {
                                Verdict::Approximate { err, bound: max_rank_error }
                            } else {
                                Verdict::Wrong(format!(
                                    "{:?}: rank error {err} exceeds reported max_error \
                                     {max_rank_error}",
                                    req.kind
                                ))
                            }
                        }
                        _ => Verdict::Wrong(format!(
                            "{:?}: approximate answer (max_error {max_rank_error}) \
                             outside the {:?} contract",
                            req.kind, req.accuracy
                        )),
                    }
                }
                ref other => {
                    Verdict::Wrong(format!("{:?}: got {other:?}, expected {truth}", req.kind))
                }
            };
        }
        let truth = match &req.kind {
            QueryKind::RankOf(v) => self.rank_of(*v),
            QueryKind::CountBetween(b) => self.count_between(b),
            other => return Verdict::Wrong(format!("unexpected request kind {}", other.label())),
        };
        match out.response {
            Response::Count { count, max_error: 0 } if count == truth => Verdict::Exact,
            ref other => Verdict::Wrong(format!("{:?}: got {other:?}, expected {truth}", req.kind)),
        }
    }
}

/// The outcome of checking one answer.
#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    Exact,
    /// A sketch answer whose measured rank error `err` is within its own
    /// reported `bound`.
    Approximate {
        err: u64,
        bound: u64,
    },
    Wrong(String),
}

/// A compact, comparable form of a response, for the cross-backend check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AnswerKey {
    Exact(u64),
    Approximate { value: u64, max_error: u64 },
    Other,
}

impl AnswerKey {
    pub fn of(out: &Outcome<u64>) -> Self {
        match out.response {
            Response::Element(v) => AnswerKey::Exact(v),
            Response::Count { count, max_error: 0 } => AnswerKey::Exact(count),
            Response::Approximate { value, max_rank_error, .. } => {
                AnswerKey::Approximate { value, max_error: max_rank_error }
            }
            _ => AnswerKey::Other,
        }
    }
}

/// Whether two legs' answers to the same request agree. Under
/// `route_may_vary` (the open-loop frontend, whose batch composition
/// depends on timing) a tolerant request may be answered exactly on one leg
/// and from the sketch on another; each is checked against the oracle on
/// its own.
pub fn answers_agree(a: AnswerKey, b: AnswerKey, tolerant: bool, route_may_vary: bool) -> bool {
    use AnswerKey::*;
    match (a, b) {
        (Exact(_), Approximate { .. }) | (Approximate { .. }, Exact(_)) => {
            tolerant && route_may_vary
        }
        _ => a == b,
    }
}

/// Checks a batch of answers, returning the problems found. Each sketch
/// answer's measured-error / reported-guarantee ratio raises `err_ratio_max`.
pub fn check_answers(
    oracle: &Oracle,
    requests: &[Request<u64>],
    outcomes: &[Outcome<u64>],
    err_ratio_max: &mut f64,
) -> Vec<String> {
    if requests.len() != outcomes.len() {
        return vec![format!("{} answers for {} requests", outcomes.len(), requests.len())];
    }
    let mut problems = Vec::new();
    for (req, out) in requests.iter().zip(outcomes) {
        match oracle.check(req, out) {
            Verdict::Exact => {}
            Verdict::Approximate { err, bound } => {
                if bound > 0 {
                    *err_ratio_max = err_ratio_max.max(err as f64 / bound as f64);
                }
            }
            Verdict::Wrong(msg) => problems.push(msg),
        }
    }
    problems
}

/// Counts a run's operations and failures, keeping the first few problem
/// descriptions for the report.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Tally {
    /// Records one operation: `problems` empty means it succeeded.
    pub fn record(&mut self, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            let room = 20usize.saturating_sub(self.messages.len());
            self.messages.extend(problems.iter().take(room).cloned());
        }
    }
}

/// Plants one wrong answer, one out-of-bound sketch answer and one
/// cross-backend disagreement, and returns an error unless the checker
/// catches each of them. Run at the start of every benchmark run.
pub fn self_test() -> Result<(), String> {
    use cgselect_engine::{CostAttribution, Freshness, Served};
    let data: Vec<u64> = (0..1000u64).map(|i| i * 3 % 1000).collect();
    let oracle = Oracle::new(data);
    let outcome = |response| Outcome {
        response,
        served: Served::Index,
        cost: CostAttribution::default(),
        freshness: Freshness { version: 1, elements: 1000 },
    };
    let requests =
        [Request::rank(10), Request::rank_of(500), Request::quantile(0.5).within_rank(0.01)];
    let right = [
        outcome(Response::Element(10)),
        outcome(Response::Count { count: 500, max_error: 0 }),
        outcome(Response::Approximate { value: 503, target_rank: 500, max_rank_error: 4 }),
    ];
    let mut ratio = 0.0;
    let problems = check_answers(&oracle, &requests, &right, &mut ratio);
    if !problems.is_empty() {
        return Err(format!("checker rejects correct answers: {problems:?}"));
    }
    let planted = [
        (0, outcome(Response::Element(11))),
        (1, outcome(Response::Count { count: 499, max_error: 0 })),
        (2, outcome(Response::Approximate { value: 510, target_rank: 500, max_rank_error: 4 })),
    ];
    for (i, wrong) in planted {
        let mut answers = right.clone();
        answers[i] = wrong;
        if check_answers(&oracle, &requests, &answers, &mut ratio).is_empty() {
            return Err(format!("checker missed a planted wrong answer to {:?}", requests[i]));
        }
    }
    let (a, b) = (AnswerKey::of(&right[0]), AnswerKey::Exact(11));
    if answers_agree(a, b, false, true) {
        return Err("checker missed a planted cross-backend disagreement".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_test_catches_planted_wrong_answers() {
        self_test().expect("the checker catches every planted error");
    }

    #[test]
    fn delete_removes_every_occurrence() {
        let mut oracle = Oracle::new(vec![5, 1, 5, 3, 5, 9]);
        assert_eq!(oracle.delete(&[5, 4]), 3);
        assert_eq!(oracle.len(), 3);
        oracle.ingest(&[5, 0]);
        assert_eq!(oracle.rank_of(5), 3);
        assert_eq!(oracle.count_between(&Bounds::closed(1, 5)), 3);
        assert_eq!(oracle.count_between(&Bounds::open(1, 9)), 2);
    }
}
