//! Wire messages of the coordinator/worker protocol.
//!
//! The coordinator drives the conversation after the handshake:
//!
//! ```text
//! worker → Hello { protocol, pid }
//! coord  → Job(JobSpec)                (or Reject on a version mismatch)
//! worker → Ready { fingerprint, clock_us }
//! coord  →                             (Reject + close on fingerprint mismatch)
//! loop:
//!   coord  → Lease { lease, span_id, shard, probes } | JobDone | Shutdown
//!   worker → ShardDone { lease, shard, records, stats, events }
//! worker → Heartbeat { lease }          (from a side thread, any time)
//! ```
//!
//! The coordinator sends the next `Lease` after `Ready` and after each
//! `ShardDone`, as soon as the job has a shard no worker holds, and
//! `JobDone` once the job is over; the worker only answers.
//!
//! Protocol v2 carries trace context end to end: the coordinator mints
//! a `trace_id` in the `JobSpec`, hands a per-shard `span_id` with each
//! lease, and workers ship their local trace events (timestamps on the
//! worker clock; `clock_us` from `Ready` lets the coordinator re-base
//! them) back inside `ShardDone`.
//!
//! Protocol v3 adds `JobDone`: a coordinator that pools warm workers
//! across jobs (the `clado serve` daemon) ends one job without ending
//! the connection — the worker returns to awaiting the next `Job`
//! instead of exiting. `Shutdown` still means "disconnect and exit".
//!
//! Protocol v5 puts the probe ids in each `Lease`: the coordinator's
//! plan decides which probes of a shard run, so a worker evaluates
//! exactly what it is handed and never plans. `JobSpec` no longer
//! carries estimator fields.
//!
//! Protocol v6 drops the `retried` word from the `ShardDone` stats:
//! probes are no longer rerun, so there is nothing to count.
//!
//! Protocol v7 makes the lease phase coordinator-driven: leases and
//! `JobDone` are pushed, so `LeaseRequest` (kind 5) and `Idle` (kind 7)
//! are retired and decode as unknown kinds.
//!
//! Every decode failure is a typed [`FrameError`]; unknown kinds, short
//! payloads, trailing bytes, and out-of-range enum tags are all rejected
//! without panicking.

use crate::frame::{read_frame, write_frame, FrameError};
use crate::wire::{put_bytes, put_u16, put_u32, put_u64, Reader};
use clado_core::{ProbeId, ProbeRecord, ShardRunStats, ShardSpec};
use clado_quant::QuantScheme;
use clado_telemetry::{ManifestValue, TraceEvent};
use std::io::{Read, Write};

/// The measurement job a coordinator hands each worker: everything a
/// worker needs to reconstruct the coordinator's model, sensitivity set,
/// and probe perturbations locally.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Model identifier (a `clado` model kind, e.g. `resnet20`).
    pub model: String,
    /// Sensitivity-set size requested (clamped to the train split).
    pub set_size: u64,
    /// Sensitivity-set sampling seed.
    pub set_seed: u64,
    /// Probe batch size.
    pub batch_size: u64,
    /// Bit-width candidates, low to high.
    pub bits: Vec<u8>,
    /// Quantization scheme (see [`scheme_to_u8`]).
    pub scheme: u8,
    /// Whether workers reuse cached prefix activations.
    pub use_prefix_cache: bool,
    /// The coordinator's measurement configuration fingerprint
    /// (`ShardContext::fingerprint`); workers echo their own in `Ready`
    /// and mismatches are rejected.
    pub fingerprint: u64,
    /// Trace correlation id minted by the coordinator (0 = tracing
    /// off). Workers tag their local trace events with it.
    pub trace_id: u64,
}

/// One message of the protocol. See the module docs for the exchange.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Worker greeting: protocol version and OS process id.
    Hello {
        /// The worker's [`crate::PROTOCOL_VERSION`].
        protocol: u16,
        /// The worker's OS process id (for operator-facing summaries).
        pid: u32,
    },
    /// The measurement job (coordinator → worker).
    Job(JobSpec),
    /// Worker's post-reconstruction report with its own fingerprint.
    Ready {
        /// Fingerprint of the worker's locally-built configuration.
        fingerprint: u64,
        /// The worker's trace clock (µs since its telemetry epoch) at
        /// send time; the coordinator derives a per-worker clock offset
        /// from it to re-base shipped trace events.
        clock_us: u64,
    },
    /// The coordinator refuses this worker and will close the connection.
    Reject {
        /// Human-readable refusal reason.
        reason: String,
    },
    /// A leased shard (coordinator → worker).
    Lease {
        /// Lease id to echo in `Heartbeat` and `ShardDone`.
        lease: u64,
        /// Trace span id for this shard's execution (0 = tracing off);
        /// the worker tags its shard span with it.
        span_id: u64,
        /// The shard the probes belong to.
        shard: ShardSpec,
        /// The probes to evaluate, in evaluation order.
        probes: Vec<ProbeId>,
    },
    /// The sweep is complete (or aborted); the worker should exit.
    Shutdown,
    /// Worker liveness signal while evaluating (any frame resets the
    /// coordinator's heartbeat deadline; this one exists to flow while
    /// the main worker thread is busy measuring).
    Heartbeat {
        /// The lease being worked on (0 when idle).
        lease: u64,
    },
    /// A completed shard: every probe record plus evaluation stats.
    ShardDone {
        /// The lease this shard was evaluated under.
        lease: u64,
        /// The shard that was evaluated.
        shard: ShardSpec,
        /// All probe records of the shard, in evaluation order.
        records: Vec<ProbeRecord>,
        /// Evaluation statistics for the shard.
        stats: ShardRunStats,
        /// The worker's trace events accumulated since the last
        /// `ShardDone` (empty when tracing is off). Timestamps are on
        /// the worker's clock; the coordinator re-bases them.
        events: Vec<TraceEvent>,
    },
    /// The current job is over but the connection is not (v3, pooled
    /// workers): the worker should await the next `Job` instead of
    /// exiting. Sent once the job is over: every shard is accounted for,
    /// or the job failed.
    JobDone,
}

const KIND_HELLO: u16 = 1;
const KIND_JOB: u16 = 2;
const KIND_READY: u16 = 3;
const KIND_REJECT: u16 = 4;
// Kinds 5 (`LeaseRequest`) and 7 (`Idle`) were retired in v7.
const KIND_LEASE: u16 = 6;
const KIND_SHUTDOWN: u16 = 8;
const KIND_HEARTBEAT: u16 = 9;
const KIND_SHARD_DONE: u16 = 10;
const KIND_JOB_DONE: u16 = 11;

/// Maps a [`QuantScheme`] to its wire byte.
pub fn scheme_to_u8(scheme: QuantScheme) -> u8 {
    match scheme {
        QuantScheme::PerTensorSymmetric => 0,
        QuantScheme::PerChannelSymmetric => 1,
        QuantScheme::PerChannelAffine => 2,
    }
}

/// Maps a wire byte back to its [`QuantScheme`].
///
/// # Errors
///
/// [`FrameError::Malformed`] on an unknown byte.
pub fn scheme_from_u8(byte: u8) -> Result<QuantScheme, FrameError> {
    match byte {
        0 => Ok(QuantScheme::PerTensorSymmetric),
        1 => Ok(QuantScheme::PerChannelSymmetric),
        2 => Ok(QuantScheme::PerChannelAffine),
        other => Err(FrameError::Malformed(format!(
            "unknown quantization scheme byte {other}"
        ))),
    }
}

// ---------------------------------------------------------------------
// Domain encoders on top of the shared wire primitives.

fn put_shard(out: &mut Vec<u8>, s: ShardSpec) {
    match s {
        ShardSpec::Base => {
            out.push(0);
            put_u32(out, 0);
        }
        ShardSpec::Diag { layer } => {
            out.push(1);
            put_u32(out, layer);
        }
        ShardSpec::Pair { outer } => {
            out.push(2);
            put_u32(out, outer);
        }
    }
}

/// 17-byte probe-id layout: kind, then four u32 fields.
fn put_probe(out: &mut Vec<u8>, id: ProbeId) {
    let (kind, a, b, c, d) = match id {
        ProbeId::Base => (0u8, 0u32, 0u32, 0u32, 0u32),
        ProbeId::Diag { layer, bit } => (1, layer, bit, 0, 0),
        ProbeId::Pair {
            layer_i,
            bit_m,
            layer_j,
            bit_n,
        } => (2, layer_i, bit_m, layer_j, bit_n),
    };
    out.push(kind);
    for v in [a, b, c, d] {
        put_u32(out, v);
    }
}

/// 26-byte probe-record layout, identical to the CLSJ on-disk record.
fn put_record(out: &mut Vec<u8>, rec: &ProbeRecord) {
    put_probe(out, rec.id);
    put_u64(out, rec.loss.to_bits());
    out.push(u8::from(rec.quarantined));
}

const ARG_STR: u8 = 0;
const ARG_INT: u8 = 1;
const ARG_FLOAT: u8 = 2;
const ARG_BOOL: u8 = 3;

fn put_event(out: &mut Vec<u8>, e: &TraceEvent) {
    put_bytes(out, e.name.as_bytes());
    out.push(e.ph);
    put_u64(out, e.ts_us);
    put_u64(out, e.dur_us);
    put_u32(out, e.tid);
    out.push(e.args.len().min(u8::MAX as usize) as u8);
    for (key, value) in e.args.iter().take(u8::MAX as usize) {
        put_bytes(out, key.as_bytes());
        match value {
            ManifestValue::Str(s) => {
                out.push(ARG_STR);
                put_bytes(out, s.as_bytes());
            }
            ManifestValue::Int(i) => {
                out.push(ARG_INT);
                put_u64(out, *i as u64);
            }
            ManifestValue::Float(f) => {
                out.push(ARG_FLOAT);
                put_u64(out, f.to_bits());
            }
            ManifestValue::Bool(b) => {
                out.push(ARG_BOOL);
                out.push(u8::from(*b));
            }
        }
    }
}

fn put_stats(out: &mut Vec<u8>, s: &ShardRunStats) {
    for v in [
        s.full_evals,
        s.cache_hits,
        s.cache_builds,
        s.quarantined,
        s.seconds.to_bits(),
    ] {
        put_u64(out, v);
    }
}

// ---------------------------------------------------------------------
// Domain decoders on top of [`Reader`] — every read is bounds-checked
// and typed.

fn read_shard(c: &mut Reader<'_>, what: &str) -> Result<ShardSpec, FrameError> {
    let tag = c.u8(what)?;
    let arg = c.u32(what)?;
    match tag {
        0 => Ok(ShardSpec::Base),
        1 => Ok(ShardSpec::Diag { layer: arg }),
        2 => Ok(ShardSpec::Pair { outer: arg }),
        other => Err(FrameError::Malformed(format!(
            "{what}: shard tag {other} out of range"
        ))),
    }
}

fn read_probe(c: &mut Reader<'_>) -> Result<ProbeId, FrameError> {
    let kind = c.u8("probe kind")?;
    let a = c.u32("probe field")?;
    let b = c.u32("probe field")?;
    let cc = c.u32("probe field")?;
    let d = c.u32("probe field")?;
    Ok(match kind {
        0 => ProbeId::Base,
        1 => ProbeId::Diag { layer: a, bit: b },
        2 => ProbeId::Pair {
            layer_i: a,
            bit_m: b,
            layer_j: cc,
            bit_n: d,
        },
        other => {
            return Err(FrameError::Malformed(format!(
                "probe kind {other} out of range"
            )))
        }
    })
}

/// Reads a `u32` element count, rejecting counts the payload cannot hold
/// before anything is allocated.
fn read_count(c: &mut Reader<'_>, what: &str, payload: &[u8]) -> Result<usize, FrameError> {
    let count = c.u32(what)? as usize;
    if count > payload.len() {
        return Err(FrameError::Malformed(format!(
            "{what} {count} exceeds payload size"
        )));
    }
    Ok(count)
}

fn read_record(c: &mut Reader<'_>) -> Result<ProbeRecord, FrameError> {
    let id = read_probe(c)?;
    let loss = f64::from_bits(c.u64("record loss")?);
    let quarantined = c.bool("record quarantine flag")?;
    Ok(ProbeRecord {
        id,
        loss,
        quarantined,
    })
}

fn read_event(c: &mut Reader<'_>) -> Result<TraceEvent, FrameError> {
    let name = c.string("event.name")?;
    let ph = c.u8("event.ph")?;
    if ph != clado_telemetry::PH_COMPLETE && ph != clado_telemetry::PH_INSTANT {
        return Err(FrameError::Malformed(format!("event.ph {ph} out of range")));
    }
    let ts_us = c.u64("event.ts_us")?;
    let dur_us = c.u64("event.dur_us")?;
    let tid = c.u32("event.tid")?;
    let n_args = c.u8("event.arg_count")? as usize;
    let mut args = Vec::with_capacity(n_args);
    for _ in 0..n_args {
        let key = c.string("event.arg_key")?;
        let value = match c.u8("event.arg_tag")? {
            ARG_STR => ManifestValue::Str(c.string("event.arg_str")?),
            ARG_INT => ManifestValue::Int(c.u64("event.arg_int")? as i64),
            ARG_FLOAT => ManifestValue::Float(f64::from_bits(c.u64("event.arg_float")?)),
            ARG_BOOL => ManifestValue::Bool(c.bool("event.arg_bool")?),
            other => {
                return Err(FrameError::Malformed(format!(
                    "event arg tag {other} out of range"
                )))
            }
        };
        args.push((key, value));
    }
    Ok(TraceEvent {
        name,
        ph,
        ts_us,
        dur_us,
        pid: 0, // stamped by the coordinator on ingest
        tid,
        args,
    })
}

fn read_stats(c: &mut Reader<'_>) -> Result<ShardRunStats, FrameError> {
    Ok(ShardRunStats {
        full_evals: c.u64("stats.full_evals")?,
        cache_hits: c.u64("stats.cache_hits")?,
        cache_builds: c.u64("stats.cache_builds")?,
        quarantined: c.u64("stats.quarantined")?,
        seconds: f64::from_bits(c.u64("stats.seconds")?),
    })
}

impl Message {
    /// The frame kind of this message.
    pub fn kind(&self) -> u16 {
        match self {
            Self::Hello { .. } => KIND_HELLO,
            Self::Job(_) => KIND_JOB,
            Self::Ready { .. } => KIND_READY,
            Self::Reject { .. } => KIND_REJECT,
            Self::Lease { .. } => KIND_LEASE,
            Self::Shutdown => KIND_SHUTDOWN,
            Self::Heartbeat { .. } => KIND_HEARTBEAT,
            Self::ShardDone { .. } => KIND_SHARD_DONE,
            Self::JobDone => KIND_JOB_DONE,
        }
    }

    /// Encodes the message payload (the frame layer adds the envelope).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Self::Hello { protocol, pid } => {
                put_u16(&mut out, *protocol);
                put_u32(&mut out, *pid);
            }
            Self::Job(job) => {
                put_bytes(&mut out, job.model.as_bytes());
                put_u64(&mut out, job.set_size);
                put_u64(&mut out, job.set_seed);
                put_u64(&mut out, job.batch_size);
                put_bytes(&mut out, &job.bits);
                out.push(job.scheme);
                out.push(u8::from(job.use_prefix_cache));
                put_u64(&mut out, job.fingerprint);
                put_u64(&mut out, job.trace_id);
            }
            Self::Ready {
                fingerprint,
                clock_us,
            } => {
                put_u64(&mut out, *fingerprint);
                put_u64(&mut out, *clock_us);
            }
            Self::Reject { reason } => put_bytes(&mut out, reason.as_bytes()),
            Self::Shutdown | Self::JobDone => {}
            Self::Lease {
                lease,
                span_id,
                shard,
                probes,
            } => {
                put_u64(&mut out, *lease);
                put_u64(&mut out, *span_id);
                put_shard(&mut out, *shard);
                put_u32(&mut out, probes.len() as u32);
                for &id in probes {
                    put_probe(&mut out, id);
                }
            }
            Self::Heartbeat { lease } => put_u64(&mut out, *lease),
            Self::ShardDone {
                lease,
                shard,
                records,
                stats,
                events,
            } => {
                put_u64(&mut out, *lease);
                put_shard(&mut out, *shard);
                put_u32(&mut out, records.len() as u32);
                for rec in records {
                    put_record(&mut out, rec);
                }
                put_stats(&mut out, stats);
                put_u32(&mut out, events.len() as u32);
                for e in events {
                    put_event(&mut out, e);
                }
            }
        }
        out
    }

    /// Decodes a frame payload of the given kind.
    ///
    /// # Errors
    ///
    /// [`FrameError::UnknownKind`] for an unrecognized kind;
    /// [`FrameError::Malformed`] for any payload that is short, has
    /// trailing bytes, or carries out-of-range tags.
    pub fn decode(kind: u16, payload: &[u8]) -> Result<Self, FrameError> {
        let mut c = Reader::new(payload);
        let msg = match kind {
            KIND_HELLO => Self::Hello {
                protocol: c.u16("hello.protocol")?,
                pid: c.u32("hello.pid")?,
            },
            KIND_JOB => Self::Job(JobSpec {
                model: c.string("job.model")?,
                set_size: c.u64("job.set_size")?,
                set_seed: c.u64("job.set_seed")?,
                batch_size: c.u64("job.batch_size")?,
                bits: c.bytes("job.bits")?.to_vec(),
                scheme: c.u8("job.scheme")?,
                use_prefix_cache: c.bool("job.use_prefix_cache")?,
                fingerprint: c.u64("job.fingerprint")?,
                trace_id: c.u64("job.trace_id")?,
            }),
            KIND_READY => Self::Ready {
                fingerprint: c.u64("ready.fingerprint")?,
                clock_us: c.u64("ready.clock_us")?,
            },
            KIND_REJECT => Self::Reject {
                reason: c.string("reject.reason")?,
            },
            KIND_LEASE => Self::Lease {
                lease: c.u64("lease.id")?,
                span_id: c.u64("lease.span_id")?,
                shard: read_shard(&mut c, "lease.shard")?,
                probes: {
                    // 17 bytes per id.
                    let count = read_count(&mut c, "lease.probe_count", payload)?;
                    (0..count)
                        .map(|_| read_probe(&mut c))
                        .collect::<Result<_, _>>()?
                },
            },
            KIND_SHUTDOWN => Self::Shutdown,
            KIND_HEARTBEAT => Self::Heartbeat {
                lease: c.u64("heartbeat.lease")?,
            },
            KIND_SHARD_DONE => {
                let lease = c.u64("done.lease")?;
                let shard = read_shard(&mut c, "done.shard")?;
                // 26 bytes per record.
                let count = read_count(&mut c, "done.record_count", payload)?;
                let mut records = Vec::with_capacity(count);
                for _ in 0..count {
                    records.push(read_record(&mut c)?);
                }
                let stats = read_stats(&mut c)?;
                // Each event is at least ~30 bytes.
                let event_count = read_count(&mut c, "done.event_count", payload)?;
                let mut events = Vec::with_capacity(event_count);
                for _ in 0..event_count {
                    events.push(read_event(&mut c)?);
                }
                Self::ShardDone {
                    lease,
                    shard,
                    records,
                    stats,
                    events,
                }
            }
            KIND_JOB_DONE => Self::JobDone,
            other => return Err(FrameError::UnknownKind(other)),
        };
        c.finish("message")?;
        Ok(msg)
    }
}

/// Sends one message as a frame.
pub fn send(w: &mut impl Write, msg: &Message) -> Result<(), FrameError> {
    write_frame(w, msg.kind(), &msg.encode())
}

/// Receives and decodes one message.
pub fn recv(r: &mut impl Read) -> Result<Message, FrameError> {
    let (kind, payload) = read_frame(r)?;
    Message::decode(kind, &payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: &Message) -> Message {
        Message::decode(msg.kind(), &msg.encode()).expect("decode")
    }

    #[test]
    fn every_message_kind_round_trips() {
        let msgs = vec![
            Message::Hello {
                protocol: 1,
                pid: 4242,
            },
            Message::Job(JobSpec {
                model: "resnet20".into(),
                set_size: 64,
                set_seed: 7,
                batch_size: 64,
                bits: vec![2, 4, 8],
                scheme: 0,
                use_prefix_cache: true,
                fingerprint: 0xDEAD_BEEF_CAFE_F00D,
                trace_id: 0x1234_5678_9ABC_DEF0,
            }),
            Message::Ready {
                fingerprint: u64::MAX,
                clock_us: 123_456,
            },
            Message::Reject {
                reason: "config fingerprint mismatch".into(),
            },
            Message::Lease {
                lease: 3,
                span_id: 77,
                shard: ShardSpec::Pair { outer: 11 },
                probes: vec![
                    ProbeId::Pair {
                        layer_i: 11,
                        bit_m: 0,
                        layer_j: 12,
                        bit_n: 2,
                    },
                    ProbeId::Pair {
                        layer_i: 11,
                        bit_m: 1,
                        layer_j: 14,
                        bit_n: 0,
                    },
                ],
            },
            Message::Shutdown,
            Message::JobDone,
            Message::Heartbeat { lease: 9 },
            Message::ShardDone {
                lease: 3,
                shard: ShardSpec::Diag { layer: 2 },
                records: vec![
                    ProbeRecord {
                        id: ProbeId::Diag { layer: 2, bit: 0 },
                        loss: 1.25,
                        quarantined: false,
                    },
                    ProbeRecord {
                        id: ProbeId::Diag { layer: 2, bit: 1 },
                        loss: f64::NAN,
                        quarantined: true,
                    },
                ],
                stats: ShardRunStats {
                    full_evals: 1,
                    cache_hits: 1,
                    cache_builds: 1,
                    quarantined: 1,
                    seconds: 0.25,
                },
                events: vec![
                    TraceEvent {
                        name: "dist.work.shard".into(),
                        ph: clado_telemetry::PH_COMPLETE,
                        ts_us: 1000,
                        dur_us: 250,
                        pid: 0,
                        tid: 2,
                        args: vec![
                            ("lease".into(), ManifestValue::Int(3)),
                            ("label".into(), ManifestValue::Str("diag λ".into())),
                            ("cached".into(), ManifestValue::Bool(true)),
                            ("loss".into(), ManifestValue::Float(-0.5)),
                        ],
                    },
                    TraceEvent {
                        name: "tick".into(),
                        ph: clado_telemetry::PH_INSTANT,
                        ts_us: 1100,
                        dur_us: 0,
                        pid: 0,
                        tid: 2,
                        args: Vec::new(),
                    },
                ],
            },
        ];
        for msg in &msgs {
            let back = round_trip(msg);
            // NaN losses make direct equality unusable; compare the
            // re-encoded bytes, which are bit-exact.
            assert_eq!(back.encode(), msg.encode(), "{msg:?}");
            assert_eq!(back.kind(), msg.kind());
        }
    }

    #[test]
    fn unknown_kind_is_typed() {
        // 5 and 7 are the retired `LeaseRequest` and `Idle`.
        for kind in [5, 7, 999] {
            let err = Message::decode(kind, &[]).unwrap_err();
            assert!(
                matches!(err, FrameError::UnknownKind(k) if k == kind),
                "{err}"
            );
        }
    }

    #[test]
    fn short_and_trailing_payloads_are_malformed() {
        let good = Message::Heartbeat { lease: 1 }.encode();
        let err = Message::decode(KIND_HEARTBEAT, &good[..4]).unwrap_err();
        assert!(matches!(err, FrameError::Malformed(_)), "{err}");
        let mut long = good.clone();
        long.push(0);
        let err = Message::decode(KIND_HEARTBEAT, &long).unwrap_err();
        assert!(matches!(err, FrameError::Malformed(_)), "{err}");
    }

    #[test]
    fn out_of_range_tags_are_malformed() {
        // Shard tag 3 in a Lease.
        let mut lease = Vec::new();
        put_u64(&mut lease, 1);
        lease.push(3);
        put_u32(&mut lease, 0);
        let err = Message::decode(KIND_LEASE, &lease).unwrap_err();
        assert!(matches!(err, FrameError::Malformed(_)), "{err}");
        // Boolean byte 2 in a Job.
        let mut job = Message::Job(JobSpec {
            model: "m".into(),
            set_size: 1,
            set_seed: 1,
            batch_size: 1,
            bits: vec![8],
            scheme: 0,
            use_prefix_cache: false,
            fingerprint: 0,
            trace_id: 0,
        })
        .encode();
        // The flag sits before fingerprint (8) and trace_id (8).
        let flag_at = job.len() - 17;
        job[flag_at] = 2;
        let err = Message::decode(KIND_JOB, &job).unwrap_err();
        assert!(matches!(err, FrameError::Malformed(_)), "{err}");
    }

    #[test]
    fn out_of_range_event_fields_are_malformed() {
        let base = Message::ShardDone {
            lease: 1,
            shard: ShardSpec::Base,
            records: Vec::new(),
            stats: ShardRunStats::default(),
            events: vec![TraceEvent {
                name: "e".into(),
                ph: clado_telemetry::PH_INSTANT,
                ts_us: 0,
                dur_us: 0,
                pid: 0,
                tid: 0,
                args: vec![("k".into(), ManifestValue::Bool(false))],
            }],
        };
        let good = base.encode();
        assert!(Message::decode(KIND_SHARD_DONE, &good).is_ok());
        // Corrupt the phase byte (follows the 1-byte name "e" with its
        // 4-byte length prefix).
        let name_at = good
            .windows(5)
            .position(|w| w == [1, 0, 0, 0, b'e'])
            .expect("event name");
        let mut bad_ph = good.clone();
        bad_ph[name_at + 5] = b'Z';
        let err = Message::decode(KIND_SHARD_DONE, &bad_ph).unwrap_err();
        assert!(matches!(err, FrameError::Malformed(_)), "{err}");
        // Corrupt the trailing arg tag (last two bytes are tag + bool).
        let mut bad_tag = good.clone();
        let tag_at = good.len() - 2;
        bad_tag[tag_at] = 9;
        let err = Message::decode(KIND_SHARD_DONE, &bad_tag).unwrap_err();
        assert!(matches!(err, FrameError::Malformed(_)), "{err}");
        // Absurd event counts are rejected without allocation.
        let mut huge = Message::ShardDone {
            lease: 1,
            shard: ShardSpec::Base,
            records: Vec::new(),
            stats: ShardRunStats::default(),
            events: Vec::new(),
        }
        .encode();
        let count_at = huge.len() - 4;
        huge[count_at..].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = Message::decode(KIND_SHARD_DONE, &huge).unwrap_err();
        assert!(matches!(err, FrameError::Malformed(_)), "{err}");
    }

    #[test]
    fn absurd_record_counts_are_rejected() {
        let mut payload = Vec::new();
        put_u64(&mut payload, 1);
        put_shard(&mut payload, ShardSpec::Base);
        put_u32(&mut payload, u32::MAX);
        let err = Message::decode(KIND_SHARD_DONE, &payload).unwrap_err();
        assert!(matches!(err, FrameError::Malformed(_)), "{err}");
    }

    #[test]
    fn scheme_bytes_round_trip_and_reject_unknowns() {
        for scheme in [
            QuantScheme::PerTensorSymmetric,
            QuantScheme::PerChannelSymmetric,
            QuantScheme::PerChannelAffine,
        ] {
            assert_eq!(scheme_from_u8(scheme_to_u8(scheme)).unwrap(), scheme);
        }
        assert!(scheme_from_u8(3).is_err());
    }
}
