//! Property tests for the wire protocol: every message type round-trips
//! through encode → frame → read → decode for arbitrary field values.
//!
//! Loss values include NaN (quarantined probes store a canonical NaN),
//! so messages are compared by their *re-encoded bytes* rather than
//! `PartialEq` — bit-exact equality is the property the journal and the
//! determinism invariant actually rely on.

use clado_core::{ProbeId, ProbeRecord, ShardRunStats, ShardSpec};
use clado_dist::protocol::{self, JobSpec, Message};
use clado_dist::FrameError;
use clado_telemetry::{ManifestValue, TraceEvent, PH_COMPLETE, PH_INSTANT};
use proptest::prelude::*;

/// Round-trips `msg` through a full frame write + read + decode and
/// checks the decoded message re-encodes to identical bytes.
fn round_trip(msg: &Message) -> Result<(), TestCaseError> {
    let mut wire = Vec::new();
    protocol::send(&mut wire, msg).map_err(|e| TestCaseError::fail(format!("send: {e}")))?;
    let decoded = protocol::recv(&mut wire.as_slice())
        .map_err(|e| TestCaseError::fail(format!("recv: {e}")))?;
    prop_assert_eq!(decoded.kind(), msg.kind(), "kind changed in transit");
    prop_assert_eq!(
        decoded.encode(),
        msg.encode(),
        "re-encoded bytes differ for kind {}",
        msg.kind()
    );
    Ok(())
}

fn shard_spec(tag: u8, index: u32) -> ShardSpec {
    match tag % 3 {
        0 => ShardSpec::Base,
        1 => ShardSpec::Diag { layer: index },
        _ => ShardSpec::Pair { outer: index },
    }
}

fn probe_id(tag: u8, a: u32, b: u32, c: u32, d: u32) -> ProbeId {
    match tag % 3 {
        0 => ProbeId::Base,
        1 => ProbeId::Diag { layer: a, bit: b },
        _ => ProbeId::Pair {
            layer_i: a,
            bit_m: b,
            layer_j: c,
            bit_n: d,
        },
    }
}

/// Loss values spanning the awkward corners of f64: zeros, subnormals,
/// infinities, and NaN (index 0 maps the raw bits straight through, so
/// arbitrary bit patterns — including signalling NaNs — are covered too).
fn loss_from(selector: u8, raw: u64) -> f64 {
    match selector % 8 {
        0 => f64::from_bits(raw),
        1 => f64::NAN,
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        4 => 0.0,
        5 => -0.0,
        6 => f64::MIN_POSITIVE / 2.0, // subnormal
        _ => raw as f64 / 1e6,
    }
}

fn trace_event(
    tag: u8,
    ts_us: u64,
    dur_us: u64,
    tid: u32,
    arg_sel: u8,
    arg_raw: u64,
) -> TraceEvent {
    let value = match arg_sel % 4 {
        0 => ManifestValue::Str(format!("λ-{arg_raw:x}")),
        1 => ManifestValue::Int(arg_raw as i64),
        2 => ManifestValue::Float(loss_from(arg_sel, arg_raw)),
        _ => ManifestValue::Bool(arg_raw % 2 == 1),
    };
    TraceEvent {
        name: format!("span.{}", tag % 4),
        ph: if tag.is_multiple_of(2) {
            PH_COMPLETE
        } else {
            PH_INSTANT
        },
        ts_us,
        dur_us,
        pid: 0,
        tid,
        args: vec![("k".to_string(), value)],
    }
}

fn record(tag: u8, idx: (u32, u32, u32, u32), sel: u8, raw: u64, q: u8) -> ProbeRecord {
    ProbeRecord {
        id: probe_id(tag, idx.0, idx.1, idx.2, idx.3),
        loss: loss_from(sel, raw),
        quarantined: q % 2 == 1,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn hello_round_trips(protocol_version in 0u16..=u16::MAX, pid in 0u32..=u32::MAX) {
        round_trip(&Message::Hello { protocol: protocol_version, pid })?;
    }

    #[test]
    fn job_round_trips(
        (model_len, set_size, set_seed) in (0usize..=64, 0u64..u64::MAX, 0u64..u64::MAX),
        (batch_size, fingerprint) in (0u64..u64::MAX, 0u64..u64::MAX),
        bits in prop::collection::vec(1u8..=32, 0..=8),
        scheme in 0u8..=2,
        cache_flag in 0u8..=1,
        model_byte in 0u8..=255,
        trace_id in 0u64..u64::MAX,
    ) {
        // Model names exercise multi-byte UTF-8, not just ASCII.
        let model: String = std::iter::repeat_n('λ', model_len % 8)
            .chain(std::iter::once(char::from(model_byte % 26 + b'a')))
            .collect();
        round_trip(&Message::Job(JobSpec {
            model,
            set_size,
            set_seed,
            batch_size,
            bits,
            scheme,
            use_prefix_cache: cache_flag == 1,
            fingerprint,
            trace_id,
        }))?;
    }

    #[test]
    fn ready_and_reject_round_trip(
        fingerprint in 0u64..u64::MAX,
        clock_us in 0u64..u64::MAX,
        reason_len in 0usize..=128,
        reason_byte in 0u8..=25,
    ) {
        round_trip(&Message::Ready { fingerprint, clock_us })?;
        let reason: String =
            std::iter::repeat_n(char::from(reason_byte + b'a'), reason_len).collect();
        round_trip(&Message::Reject { reason })?;
    }

    #[test]
    fn control_messages_round_trip(lease in 0u64..u64::MAX) {
        round_trip(&Message::Shutdown)?;
        round_trip(&Message::Heartbeat { lease })?;
        round_trip(&Message::JobDone)?;
    }

    #[test]
    fn lease_round_trips(
        lease in 0u64..u64::MAX,
        span_id in 0u64..u64::MAX,
        tag in 0u8..=2,
        index in 0u32..=u32::MAX,
        probes in prop::collection::vec(
            (0u8..=2, (0u32..=1024, 0u32..=7), (0u32..=1024, 0u32..=7)),
            0..=32,
        ),
    ) {
        let probes = probes
            .into_iter()
            .map(|(kind, (a, b), (c, d))| probe_id(kind, a, b, c, d))
            .collect();
        round_trip(&Message::Lease { lease, span_id, shard: shard_spec(tag, index), probes })?;
    }

    #[test]
    fn shard_done_round_trips(
        (lease, shard_tag, shard_index) in (0u64..u64::MAX, 0u8..=2, 0u32..=1024),
        records in prop::collection::vec(
            (
                (0u8..=2, 0u32..=1024, 0u32..=7),
                (0u32..=1024, 0u32..=7),
                (0u8..=7, 0u64..u64::MAX, 0u8..=1),
            ),
            0..=32,
        ),
        stats in (
            (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
            0u64..u64::MAX,
            (0u8..=7, 0u64..u64::MAX),
        ),
        events in prop::collection::vec(
            (
                (0u8..=254, 0u64..u64::MAX, 0u64..u64::MAX),
                (0u32..u32::MAX, 0u8..=254, 0u64..u64::MAX),
            ),
            0..=8,
        ),
    ) {
        let records: Vec<ProbeRecord> = records
            .into_iter()
            .map(|((tag, a, b), (c, d), (sel, raw, q))| record(tag, (a, b, c, d), sel, raw, q))
            .collect();
        let events: Vec<TraceEvent> = events
            .into_iter()
            .map(|((tag, ts, dur), (tid, sel, raw))| trace_event(tag, ts, dur, tid, sel, raw))
            .collect();
        let ((full_evals, cache_hits, cache_builds), quarantined, (sel, raw)) = stats;
        round_trip(&Message::ShardDone {
            lease,
            shard: shard_spec(shard_tag, shard_index),
            records,
            stats: ShardRunStats {
                full_evals,
                cache_hits,
                cache_builds,
                quarantined,
                seconds: loss_from(sel, raw),
            },
            events,
        })?;
    }

    #[test]
    fn decoding_is_total_over_arbitrary_payloads(
        kind in 1u16..=11,
        payload in prop::collection::vec(0u8..=255, 0..=256),
    ) {
        // Decoding never panics; it either produces a message that
        // re-encodes canonically or a typed error. Kinds 5 and 7 (the
        // `LeaseRequest` and `Idle` retired in v7) are unknown.
        if kind == 5 || kind == 7 {
            prop_assert!(matches!(
                Message::decode(kind, &payload),
                Err(FrameError::UnknownKind(k)) if k == kind
            ));
        } else if let Ok(msg) = Message::decode(kind, &payload) {
            prop_assert_eq!(msg.kind(), kind);
            let bytes = msg.encode();
            let again = Message::decode(kind, &bytes)
                .map_err(|e| TestCaseError::fail(format!("canonical re-decode: {e}")))?;
            prop_assert_eq!(again.encode(), bytes, "canonical encoding is a fixed point");
        }
    }
}
