//! The host↔worker command/reply protocol shared by the message-passing
//! backends ([`super::ChannelMp`] and [`super::SocketMp`]).
//!
//! # Framing
//!
//! Every command and reply travels as one frame:
//!
//! ```text
//! [ version: u8 = 1 ][ seq: u64 LE ][ body ... ]
//! ```
//!
//! * `version` pins the protocol revision; a mismatch is a typed
//!   [`RunError::WireProtocol`] error, never a misparse.
//! * `seq` is the **batch sequence number**: the host stamps every command
//!   round with a fresh value and workers echo it in their reply. The
//!   collect loop discards replies whose `seq` doesn't match the current
//!   round, so a slow-but-alive worker that was declared unresponsive can
//!   never deliver its stale reply into a later round's collect.
//! * `body` starts with a one-byte command tag (host → worker) or reply
//!   status (worker → host), followed by fields in the [`super::wire`]
//!   codec.
//!
//! On a byte stream (the socket backend) each frame is additionally length-
//! prefixed with a `u32` LE. The in-process channel backend sends one frame
//! per channel message, so no length prefix is needed there.
//!
//! # Reply collection
//!
//! [`collect_frame`] applies **one shared deadline** across all workers of a
//! round: the worst-case host stall for a round is `reply_timeout`, not
//! `p × reply_timeout`, no matter how many shards straggle.

use std::time::Instant;

use cgselect_balance::Balancer;
use cgselect_core::SelectionConfig;
use cgselect_runtime::{Key, Proc, RunError, WireMsgError};
use crossbeam::channel::Receiver;

use super::ops::{self, Shard};
use super::wire::{Reader, WireResult, Writer};
use super::{BackendError, BatchPlan, PhaseOps, ShardBatchOutcome, ShardDeletion};
use crate::index::check_drops;

/// Protocol revision carried in every frame header. Revision 2 added the
/// splitter bounds to the BUILD_INDEX reply and the probe-refinement stats
/// to the EXECUTE reply; revision 3 added the coarsening drop list to the
/// EXECUTE command.
pub(crate) const WIRE_VERSION: u8 = 3;

/// Size of the frame header (`version` byte + `seq` u64).
pub(crate) const FRAME_HEADER_BYTES: usize = 9;

// Command frame tags (host -> worker), shared by both message-passing
// backends. 0–15 are the data-plane verbs; 16+ are the socket backend's
// control-plane verbs (membership, migration, liveness).
pub(crate) const CMD_EXIT: u8 = 0;
pub(crate) const CMD_INGEST: u8 = 1;
pub(crate) const CMD_DELETE: u8 = 2;
pub(crate) const CMD_REBALANCE: u8 = 3;
pub(crate) const CMD_BUILD_INDEX: u8 = 4;
pub(crate) const CMD_MERGE_DELTA: u8 = 5;
pub(crate) const CMD_EXECUTE: u8 = 6;
pub(crate) const CMD_EXPORT_SKETCH: u8 = 7;
pub(crate) const CMD_FABRIC_BIND: u8 = 16;
pub(crate) const CMD_FABRIC_CONNECT: u8 = 17;
pub(crate) const CMD_EXPORT: u8 = 18;
pub(crate) const CMD_IMPORT: u8 = 19;
pub(crate) const CMD_PING: u8 = 20;
pub(crate) const CMD_INIT: u8 = 21;

// Reply frame status bytes (worker -> host).
pub(crate) const REPLY_OK: u8 = 0;
pub(crate) const REPLY_PANICKED: u8 = 1;
pub(crate) const REPLY_PENDING_MESSAGES: u8 = 2;
pub(crate) const REPLY_UNBALANCED_PHASES: u8 = 3;
pub(crate) const REPLY_WIRE_ERROR: u8 = 4;

/// Wraps a body in the versioned, sequence-numbered frame header.
pub(crate) fn encode_framed(seq: u64, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + body.len());
    out.push(WIRE_VERSION);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Splits a frame into its sequence number and body, verifying the version
/// byte.
pub(crate) fn split_framed(frame: &[u8]) -> Result<(u64, &[u8]), WireMsgError> {
    if frame.len() < FRAME_HEADER_BYTES {
        return Err(WireMsgError::new(format!(
            "frame of {} bytes is shorter than the {FRAME_HEADER_BYTES}-byte header",
            frame.len()
        )));
    }
    if frame[0] != WIRE_VERSION {
        return Err(WireMsgError::new(format!(
            "wire version mismatch: got {}, this build speaks {WIRE_VERSION}",
            frame[0]
        )));
    }
    let seq = u64::from_le_bytes(frame[1..9].try_into().expect("length checked"));
    Ok((seq, &frame[FRAME_HEADER_BYTES..]))
}

/// Collects one reply body for `rank` from its reply port, under a deadline
/// **shared across the whole round**: the caller computes `deadline` once
/// and passes it to every rank's collect, so stragglers overlap instead of
/// serializing their timeouts.
///
/// Frames whose sequence number doesn't match `seq` are stale replies from
/// an earlier round (a worker that was declared unresponsive but was merely
/// slow); they are discarded without ending the wait.
pub(crate) fn collect_frame(
    rx: &Receiver<Vec<u8>>,
    deadline: Instant,
    seq: u64,
    rank: usize,
) -> Result<Vec<u8>, BackendError> {
    loop {
        let remaining = deadline.saturating_duration_since(Instant::now());
        match rx.recv_timeout(remaining) {
            Ok(frame) => {
                let (frame_seq, body) =
                    split_framed(&frame).map_err(|e| wire_protocol_error(rank, e))?;
                if frame_seq == seq {
                    return Ok(body.to_vec());
                }
                // Stale (or future — impossible for a correct worker) reply:
                // discard and keep waiting within the same deadline.
            }
            // Timeout or disconnect: the reply was lost or the worker died
            // without reporting.
            Err(_) => return Err(BackendError::WorkerUnresponsive { rank }),
        }
    }
}

/// Converts a decode failure on `rank`'s frame into the typed backend error.
pub(crate) fn wire_protocol_error(rank: usize, e: WireMsgError) -> BackendError {
    BackendError::Runtime(RunError::WireProtocol { rank, detail: e.detail })
}

/// Root-cause triage over all failed ranks of one round trip: a failure a
/// worker *reported* (panic, protocol violation) beats a silent rank —
/// silence is usually fallout of someone else's death racing the reply
/// deadline, and must never mask the reported root cause no matter which
/// rank the host happened to poll first. Within the reported failures,
/// non-secondary beats timeout/disconnect fallout; a silent rank beats
/// pure secondary fallout (a dropped reply can itself be the root cause).
pub(crate) fn triage(failures: Vec<BackendError>) -> BackendError {
    debug_assert!(!failures.is_empty());
    let reported = failures
        .iter()
        .find(|e| !e.is_secondary() && !matches!(e, BackendError::WorkerUnresponsive { .. }));
    let unresponsive =
        failures.iter().find(|e| matches!(e, BackendError::WorkerUnresponsive { .. }));
    reported.or(unresponsive).or_else(|| failures.first()).cloned().expect("failures is non-empty")
}

/// Splits a reply body into its ok-payload or typed error.
pub(crate) fn decode_reply_status(rank: usize, body: Vec<u8>) -> Result<Vec<u8>, BackendError> {
    let typed = |r: WireResult<BackendError>| match r {
        Ok(e) => e,
        Err(e) => wire_protocol_error(rank, e),
    };
    match body.first().copied() {
        Some(REPLY_OK) => Ok(body),
        Some(REPLY_PANICKED) => Err(typed((|| {
            let mut r = Reader::new(&body);
            let message = r.str()?;
            r.finish()?;
            Ok(BackendError::WorkerPanicked { rank, message })
        })())),
        Some(REPLY_PENDING_MESSAGES) => Err(typed((|| {
            let mut r = Reader::new(&body);
            let detail = r.str()?;
            r.finish()?;
            Ok(BackendError::Runtime(RunError::PendingMessages { rank, detail }))
        })())),
        Some(REPLY_UNBALANCED_PHASES) => {
            Err(BackendError::Runtime(RunError::UnbalancedPhases { rank }))
        }
        Some(REPLY_WIRE_ERROR) => Err(typed((|| {
            let mut r = Reader::new(&body);
            let detail = r.str()?;
            r.finish()?;
            Ok(BackendError::Runtime(RunError::WireProtocol { rank, detail }))
        })())),
        other => Err(BackendError::WorkerPanicked {
            rank,
            message: format!("malformed reply frame (status {other:?})"),
        }),
    }
}

// ---------------------------------------------------------------------
// Per-verb body codecs (shared by both backends' ExecBackend impls and
// worker loops).
// ---------------------------------------------------------------------

pub(crate) fn encode_ingest<T: Key>(chunk: &[T]) -> Vec<u8> {
    let mut w = Writer::new(CMD_INGEST);
    w.keys(chunk);
    w.into_frame()
}

pub(crate) fn encode_delete<T: Key>(values: &[T]) -> Vec<u8> {
    let mut w = Writer::new(CMD_DELETE);
    w.keys(values);
    w.into_frame()
}

pub(crate) fn encode_build_index(buckets: usize) -> Vec<u8> {
    let mut w = Writer::new(CMD_BUILD_INDEX);
    w.usize(buckets);
    w.into_frame()
}

pub(crate) fn encode_export_sketch() -> Vec<u8> {
    Writer::new(CMD_EXPORT_SKETCH).into_frame()
}

pub(crate) fn decode_sketch_reply<T: Key>(
    rank: usize,
    body: &[u8],
) -> Result<crate::sketch::EpsSketch<T>, BackendError> {
    (|| {
        let mut r = Reader::new(body);
        let sketch = r.eps_sketch::<T>()?;
        r.finish()?;
        Ok(sketch)
    })()
    .map_err(|e| wire_protocol_error(rank, e))
}

pub(crate) fn decode_u64_reply(rank: usize, body: &[u8]) -> Result<u64, BackendError> {
    (|| {
        let mut r = Reader::new(body);
        let v = r.u64()?;
        r.finish()?;
        Ok(v)
    })()
    .map_err(|e| wire_protocol_error(rank, e))
}

pub(crate) fn decode_deletion_reply(
    rank: usize,
    body: &[u8],
) -> Result<ShardDeletion, BackendError> {
    (|| {
        let mut r = Reader::new(body);
        let remaining = r.u64()?;
        let removed = r.u64s()?;
        r.finish()?;
        Ok(ShardDeletion { remaining, removed })
    })()
    .map_err(|e| wire_protocol_error(rank, e))
}

pub(crate) fn decode_bucket_stats_reply<T: Key>(
    rank: usize,
    body: &[u8],
) -> Result<crate::index::BucketStats<T>, BackendError> {
    (|| {
        let mut r = Reader::new(body);
        let stats = r.bucket_stats::<T>()?;
        r.finish()?;
        Ok(stats)
    })()
    .map_err(|e| wire_protocol_error(rank, e))
}

/// BUILD_INDEX replies carry the agreed splitter bounds alongside the
/// shard's bucket stats so the host can mirror the shared splitter array
/// without re-deriving it.
#[allow(clippy::type_complexity)]
pub(crate) fn decode_index_build_reply<T: Key>(
    rank: usize,
    body: &[u8],
) -> Result<(Vec<cgselect_seqsel::SepBound<T>>, crate::index::BucketStats<T>), BackendError> {
    (|| {
        let mut r = Reader::new(body);
        let bounds = r.sep_bounds::<T>()?;
        let stats = r.bucket_stats::<T>()?;
        r.finish()?;
        Ok((bounds, stats))
    })()
    .map_err(|e| wire_protocol_error(rank, e))
}

/// Serializes one batch plan. Only the per-batch pivot seed crosses the
/// wire; workers rebuild the full `SelectionConfig` from their deployment
/// copy. The coalesced rank set rides as runs and the value probes as
/// `(key, inclusive)` pairs.
pub(crate) fn encode_execute<T: Key>(plan: &BatchPlan<T>) -> Vec<u8> {
    let mut w = Writer::new(CMD_EXECUTE);
    w.u64(plan.selection.seed);
    w.bool(plan.use_index);
    w.u64(plan.full_total);
    w.u64(plan.delta_total);
    w.rank_set(&plan.exact_ranks);
    w.probes(&plan.value_probes);
    w.usize(plan.groups.len());
    for g in plan.groups.iter() {
        w.group(g);
    }
    w.usize(plan.drops.len());
    for &d in plan.drops.iter() {
        w.usize(d);
    }
    w.trace_context(&plan.trace);
    w.into_frame()
}

pub(crate) fn decode_execute<T: Key>(
    r: &mut Reader<'_>,
    base: &SelectionConfig,
) -> WireResult<BatchPlan<T>> {
    let mut selection = base.clone();
    selection.seed = r.u64()?;
    let use_index = r.bool()?;
    let full_total = r.u64()?;
    let delta_total = r.u64()?;
    let exact_ranks = r.rank_set()?;
    let value_probes = r.probes::<T>()?;
    let group_count = r.usize()?;
    let groups = (0..group_count).map(|_| r.group()).collect::<WireResult<_>>()?;
    let drop_count = r.usize()?;
    let drops = (0..drop_count).map(|_| r.usize()).collect::<WireResult<_>>()?;
    let trace = r.trace_context()?;
    Ok(BatchPlan {
        groups: std::sync::Arc::new(groups),
        exact_ranks: std::sync::Arc::new(exact_ranks),
        value_probes: std::sync::Arc::new(value_probes),
        selection,
        use_index,
        full_total,
        delta_total,
        trace,
        drops: std::sync::Arc::new(drops),
    })
}

pub(crate) fn encode_outcome<T: Key>(w: &mut Writer, o: &ShardBatchOutcome<T>) {
    w.usize(o.exact.len());
    for v in &o.exact {
        w.opt_key(*v);
    }
    w.usize(o.refines.len());
    for stats in &o.refines {
        w.bucket_stats(stats);
    }
    w.usize(o.probe_refines.len());
    for stats in &o.probe_refines {
        w.bucket_stats(stats);
    }
    w.u64s(&o.probe_counts);
    w.u64(o.phase_ops.probes);
    w.u64(o.phase_ops.exact);
    w.u64(o.phase_ops.sketch);
    w.comm_stats(&o.comm);
    w.f64(o.elapsed);
    w.phase_spans(&o.spans);
}

pub(crate) fn decode_outcome<T: Key>(
    rank: usize,
    body: &[u8],
) -> Result<ShardBatchOutcome<T>, BackendError> {
    (|| {
        let mut r = Reader::new(body);
        let exact_len = r.usize()?;
        let exact = (0..exact_len).map(|_| r.opt_key::<T>()).collect::<WireResult<_>>()?;
        let refines_len = r.usize()?;
        let refines = (0..refines_len).map(|_| r.bucket_stats::<T>()).collect::<WireResult<_>>()?;
        let probe_refines_len = r.usize()?;
        let probe_refines =
            (0..probe_refines_len).map(|_| r.bucket_stats::<T>()).collect::<WireResult<_>>()?;
        let probe_counts = r.u64s()?;
        let phase_ops = PhaseOps { probes: r.u64()?, exact: r.u64()?, sketch: r.u64()? };
        let comm = r.comm_stats()?;
        let elapsed = r.f64()?;
        let spans = r.phase_spans()?;
        r.finish()?;
        Ok(ShardBatchOutcome {
            exact,
            refines,
            probe_refines,
            probe_counts,
            phase_ops,
            comm,
            elapsed,
            spans,
        })
    })()
    .map_err(|e| wire_protocol_error(rank, e))
}

/// Deployment configuration a worker needs to serve the shared command set
/// — what reaches a remote shard process as argv/config, never per-command.
#[derive(Clone)]
pub(crate) struct WorkerConfig {
    pub rank: usize,
    pub sketch_capacity: usize,
    pub selection: SelectionConfig,
    pub balancer: Balancer,
}

/// Dispatches one data-plane command body against the worker's shard and
/// returns the reply body. Malformed commands surface as
/// [`RunError::WireProtocol`]; every served program ends with the
/// [`Proc::finish_program`] protocol check.
pub(crate) fn run_command<T: Key>(
    proc: &mut Proc,
    shard: &mut Shard<T>,
    cfg: &WorkerConfig,
    body: &[u8],
    panic_now: bool,
) -> Result<Vec<u8>, RunError> {
    let wire = |e: WireMsgError| RunError::WireProtocol { rank: cfg.rank, detail: e.detail };
    let mut r = Reader::new(body);
    let mut w = Writer::new(REPLY_OK);
    match body.first().copied() {
        Some(CMD_INGEST) => {
            let items = r.keys::<T>().map_err(wire)?;
            r.finish().map_err(wire)?;
            w.u64(ops::ingest_shard(proc, shard, items));
        }
        Some(CMD_DELETE) => {
            let values = r.keys::<T>().map_err(wire)?;
            r.finish().map_err(wire)?;
            let d = ops::delete_shard(proc, shard, &values);
            w.u64(d.remaining);
            w.u64s(&d.removed);
        }
        Some(CMD_REBALANCE) => {
            r.finish().map_err(wire)?;
            w.u64(ops::rebalance_shard(proc, shard, cfg.balancer));
        }
        Some(CMD_BUILD_INDEX) => {
            let buckets = r.usize().map_err(wire)?;
            r.finish().map_err(wire)?;
            let (bounds, stats) = ops::build_index_shard(proc, shard, buckets);
            w.sep_bounds(&bounds);
            w.bucket_stats(&stats);
        }
        Some(CMD_MERGE_DELTA) => {
            r.finish().map_err(wire)?;
            w.bucket_stats(&ops::merge_delta_shard(proc, shard));
        }
        Some(CMD_EXPORT_SKETCH) => {
            // Pure local read: the shard ships its ε-sketch bytes and no
            // collective fires — the host merges exports by itself.
            r.finish().map_err(wire)?;
            w.eps_sketch(&shard.sketch);
        }
        Some(CMD_EXECUTE) => {
            let plan = decode_execute::<T>(&mut r, &cfg.selection).map_err(wire)?;
            r.finish().map_err(wire)?;
            // Checked before any collective: every shard holds the same
            // splitters, so a bad list fails on all of them alike.
            let nbounds = shard.index.as_ref().map_or(0, |idx| idx.bounds.len());
            check_drops(&plan.drops, nbounds)
                .map_err(|detail| RunError::WireProtocol { rank: cfg.rank, detail })?;
            if panic_now {
                // Mid-batch: enter the batch's opening barrier (so the
                // peers are committed to the collective pass), then die.
                proc.barrier();
                panic!("injected fault: shard worker {} panicked mid-batch", cfg.rank);
            }
            // Message-passing workers stay single-threaded: scan fan-out is
            // a LocalSpmd-only knob (counts are thread-count-independent,
            // so conformance across backends is unaffected).
            let o = ops::execute_shard(proc, shard, &plan, 1);
            encode_outcome(&mut w, &o);
        }
        other => {
            return Err(RunError::WireProtocol {
                rank: cfg.rank,
                detail: format!("unknown command tag {other:?}"),
            })
        }
    }
    proc.finish_program()?;
    Ok(w.into_frame())
}

/// Encodes a non-panic failure (`finish_program` violation or wire decode
/// error) as a reply body.
pub(crate) fn encode_protocol_error(err: &RunError) -> Vec<u8> {
    match err {
        RunError::PendingMessages { detail, .. } => {
            let mut w = Writer::new(REPLY_PENDING_MESSAGES);
            w.str(detail);
            w.into_frame()
        }
        RunError::UnbalancedPhases { .. } => Writer::new(REPLY_UNBALANCED_PHASES).into_frame(),
        RunError::WireProtocol { detail, .. } => {
            let mut w = Writer::new(REPLY_WIRE_ERROR);
            w.str(detail);
            w.into_frame()
        }
        // run_command only produces the variants above.
        other => {
            let mut w = Writer::new(REPLY_PANICKED);
            w.str(&format!("unexpected protocol error: {other}"));
            w.into_frame()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;
    use std::time::Duration;

    #[test]
    fn frame_header_round_trips() {
        let frame = encode_framed(0xDEAD_BEEF, b"payload");
        let (seq, body) = split_framed(&frame).unwrap();
        assert_eq!(seq, 0xDEAD_BEEF);
        assert_eq!(body, b"payload");
    }

    #[test]
    fn version_mismatch_is_a_typed_error() {
        let mut frame = encode_framed(1, b"x");
        frame[0] = 99;
        let err = split_framed(&frame).unwrap_err();
        assert!(err.detail.contains("version mismatch"), "{err}");
    }

    #[test]
    fn short_frames_are_a_typed_error() {
        assert!(split_framed(&[WIRE_VERSION, 0, 0]).is_err());
        assert!(split_framed(&[]).is_err());
    }

    #[test]
    fn collect_discards_stale_sequence_numbers() {
        let (tx, rx) = unbounded::<Vec<u8>>();
        // A late reply from batch 6 sits queued when the host collects
        // batch 7: it must be discarded, and the genuine reply returned.
        tx.send(encode_framed(6, &[REPLY_OK, 0xAA])).unwrap();
        tx.send(encode_framed(7, &[REPLY_OK, 0xBB])).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let body = collect_frame(&rx, deadline, 7, 0).unwrap();
        assert_eq!(body, vec![REPLY_OK, 0xBB]);
        // The stale frame is gone, not deferred.
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn collect_times_out_as_unresponsive() {
        let (_tx, rx) = unbounded::<Vec<u8>>();
        let deadline = Instant::now() + Duration::from_millis(20);
        let err = collect_frame(&rx, deadline, 1, 3).unwrap_err();
        assert_eq!(err, BackendError::WorkerUnresponsive { rank: 3 });
    }

    #[test]
    fn collect_rejects_corrupt_headers() {
        let (tx, rx) = unbounded::<Vec<u8>>();
        tx.send(vec![0xFF; 12]).unwrap();
        let deadline = Instant::now() + Duration::from_secs(1);
        let err = collect_frame(&rx, deadline, 1, 2).unwrap_err();
        assert!(
            matches!(err, BackendError::Runtime(RunError::WireProtocol { rank: 2, .. })),
            "{err:?}"
        );
    }

    fn panicked(rank: usize, message: &str) -> BackendError {
        BackendError::WorkerPanicked { rank, message: message.into() }
    }

    #[test]
    fn triage_prefers_reported_root_cause_over_silence() {
        // The regression shape: a lower rank's reply misses the deadline
        // (silence) while a higher rank's genuine panic sits queued — the
        // panic must win regardless of the host's rank-order polling.
        let err = triage(vec![
            BackendError::WorkerUnresponsive { rank: 0 },
            panicked(1, "proc 1 timed out after 30s waiting for (src=2, tag=0x1)"),
            panicked(2, "injected fault: shard worker 2 panicked mid-batch"),
        ]);
        assert_eq!(err, panicked(2, "injected fault: shard worker 2 panicked mid-batch"));
    }

    #[test]
    fn triage_prefers_silence_over_pure_secondary_fallout() {
        // Only timeout fallout + a silent rank: the dropped reply is the
        // best root-cause candidate available.
        let err = triage(vec![
            panicked(0, "proc 0 timed out after 1s waiting for (src=2, tag=0x1)"),
            BackendError::WorkerUnresponsive { rank: 2 },
        ]);
        assert_eq!(err, BackendError::WorkerUnresponsive { rank: 2 });
    }

    #[test]
    fn triage_falls_back_to_secondary_fallout() {
        let secondary = panicked(1, "all senders disconnected");
        assert_eq!(triage(vec![secondary.clone()]), secondary);
    }

    #[test]
    fn triage_prefers_protocol_errors_over_silence() {
        let protocol =
            BackendError::Runtime(RunError::PendingMessages { rank: 1, detail: "x".into() });
        let err = triage(vec![BackendError::WorkerUnresponsive { rank: 0 }, protocol.clone()]);
        assert_eq!(err, protocol);
    }

    mod stale_reply_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Late replies never cross batch boundaries: whatever mix of
            /// stale (earlier-sequence) and future frames sits queued ahead
            /// of the current round's reply, the collect loop hands back
            /// exactly the frame stamped with the current sequence number.
            #[test]
            fn late_replies_never_cross_batch_boundaries(
                current_seq in 1u64..50,
                offsets in prop::collection::vec((0u64..60, any::<u8>()), 0..12),
            ) {
                let (tx, rx) = unbounded::<Vec<u8>>();
                for (seq, marker) in &offsets {
                    if *seq != current_seq {
                        tx.send(encode_framed(*seq, &[REPLY_OK, *marker])).unwrap();
                    }
                }
                tx.send(encode_framed(current_seq, &[REPLY_OK, 0x42])).unwrap();
                let deadline = Instant::now() + Duration::from_secs(5);
                let body = collect_frame(&rx, deadline, current_seq, 0).unwrap();
                prop_assert_eq!(body, vec![REPLY_OK, 0x42]);
            }

            /// If only mismatched-sequence frames ever arrive, the worker is
            /// reported unresponsive — a stale reply must not masquerade as
            /// this round's answer.
            #[test]
            fn stale_only_queues_time_out(
                current_seq in 1u64..50,
                stale in prop::collection::vec(0u64..60, 1..8),
            ) {
                let (tx, rx) = unbounded::<Vec<u8>>();
                for seq in &stale {
                    if *seq != current_seq {
                        tx.send(encode_framed(*seq, &[REPLY_OK])).unwrap();
                    }
                }
                drop(tx);
                let deadline = Instant::now() + Duration::from_millis(50);
                let err = collect_frame(&rx, deadline, current_seq, 7).unwrap_err();
                prop_assert_eq!(err, BackendError::WorkerUnresponsive { rank: 7 });
            }
        }
    }

    #[test]
    fn malformed_drop_lists_fail_typed_on_the_worker() {
        use std::sync::Arc;
        let mut proc = cgselect_runtime::Machine::new(1).procs().pop().expect("one proc");
        let cfg = WorkerConfig {
            rank: 0,
            sketch_capacity: 64,
            selection: SelectionConfig::default(),
            balancer: Balancer::GlobalExchange,
        };
        let mut shard = ops::init_shard::<u64>(cfg.sketch_capacity);
        let mut run = |shard: &mut Shard<u64>, body: Vec<u8>| {
            run_command::<u64>(&mut proc, shard, &cfg, &body, false)
        };
        let drops_only = |drops: Vec<usize>| {
            encode_execute(&BatchPlan::<u64> {
                groups: Arc::new(Vec::new()),
                exact_ranks: Arc::new(crate::RankSet::default()),
                value_probes: Arc::new(Vec::new()),
                selection: SelectionConfig::default(),
                use_index: true,
                full_total: 1000,
                delta_total: 0,
                trace: None,
                drops: Arc::new(drops),
            })
        };
        // Without an index any drop is out of range.
        assert!(run(&mut shard, drops_only(vec![0])).is_err());
        run(&mut shard, encode_ingest(&(0..1000u64).collect::<Vec<_>>())).unwrap();
        run(&mut shard, encode_build_index(8)).unwrap();
        let nbounds = shard.index.as_ref().expect("built").bounds.len();
        assert!(nbounds >= 4, "{nbounds} splitters");
        for bad in [vec![1, 0], vec![2, 2], vec![0, nbounds]] {
            match run(&mut shard, drops_only(bad.clone())) {
                Err(RunError::WireProtocol { rank: 0, .. }) => {}
                other => panic!("{bad:?}: expected a wire-protocol error, got {other:?}"),
            }
            assert_eq!(shard.index.as_ref().unwrap().bounds.len(), nbounds, "{bad:?} applied");
        }
        // A well-formed list applies before execution.
        run(&mut shard, drops_only(vec![0, 2])).unwrap();
        let idx = shard.index.as_ref().unwrap();
        assert_eq!((idx.bounds.len(), idx.offsets.len()), (nbounds - 2, nbounds));
    }

    #[test]
    fn truncated_reply_bodies_become_typed_errors() {
        // A half-written panic report from a dying worker must not abort
        // the host: the status decode itself is fallible.
        let mut w = Writer::new(REPLY_PANICKED);
        w.str("the full panic message");
        let mut body = w.into_frame();
        body.truncate(body.len() - 5);
        let err = decode_reply_status(4, body).unwrap_err();
        assert!(
            matches!(err, BackendError::Runtime(RunError::WireProtocol { rank: 4, .. })),
            "{err:?}"
        );
    }
}
