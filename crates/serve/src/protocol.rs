//! Request/response frames of the serve protocol.
//!
//! Client conversations ride the same checksummed envelope as the
//! coordinator/worker protocol ([`clado_dist::frame`]) and use disjoint
//! frame kinds (64+ for requests, 80+ for responses) so a worker that
//! accidentally dials the client port is rejected as an unknown kind
//! rather than misparsed. One connection carries one request:
//!
//! ```text
//! client → Submit { spec, op, deadline_ms }
//! server → Accepted { request_id, queue_depth } | Rejected { reason }
//! server → Progress { probes_done, probes_total }   (zero or more)
//! server → MeasureDone | AssignDone | SweepDone | Failed
//! ```
//!
//! After `Accepted`, the client holding the connection open is part of
//! the contract: the server watches the socket and cancels the request
//! if the client disconnects mid-stream.

use clado_dist::frame::{read_frame, write_frame, FrameError};
use clado_dist::wire::{put_bool, put_bytes, put_f64, put_u32, put_u64, Reader};
use std::fmt;
use std::io::{Read, Write};

const KIND_SUBMIT: u16 = 64;
const KIND_ACCEPTED: u16 = 80;
const KIND_REJECTED: u16 = 81;
const KIND_MEASURE_DONE: u16 = 82;
const KIND_ASSIGN_DONE: u16 = 83;
const KIND_SWEEP_DONE: u16 = 84;
const KIND_FAILED: u16 = 85;
const KIND_PROGRESS: u16 = 86;

/// Everything that identifies one sensitivity measurement — the Ω cache
/// key is a fingerprint over every field.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MeasureSpec {
    /// Model identifier (a `clado` model kind, e.g. `resnet20`).
    pub model: String,
    /// Sensitivity-set size (clamped to the train split by the provider).
    pub set_size: u64,
    /// Sensitivity-set sampling seed.
    pub set_seed: u64,
    /// Probe batch size.
    pub batch_size: u64,
    /// Bit-width candidates, low to high.
    pub bits: Vec<u8>,
    /// Quantization scheme byte ([`clado_dist::scheme_to_u8`]).
    pub scheme: u8,
    /// Whether prefix-activation caching is used during probes.
    pub use_prefix_cache: bool,
    /// Estimator tag (`0` = exact measurement; `3` = blocktopk per
    /// `clado_core::OmegaProvenance`; admission refuses any other tag).
    /// Part of the cache key: an
    /// estimated Ω must never be served where an exact one was asked
    /// for, or vice versa.
    pub estimator: u8,
    /// Requested probe budget for an estimation request (`0` with a
    /// nonzero estimator means the default 25% of the full sweep; must
    /// be `0` for exact requests).
    pub probe_budget: u64,
    /// Estimator seed: `clado_estim::DEFAULT_ESTIMATOR_SEED` for an
    /// estimation request (no estimator reads it; admission refuses any
    /// other value) and `0` for exact requests, so equal specs keep
    /// equal fingerprints.
    pub estimator_seed: u64,
}

impl MeasureSpec {
    /// Canonical byte encoding — both the wire form and the cache-key
    /// preimage, so "same fingerprint" and "same request" coincide.
    fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_bytes(&mut out, self.model.as_bytes());
        put_u64(&mut out, self.set_size);
        put_u64(&mut out, self.set_seed);
        put_u64(&mut out, self.batch_size);
        put_bytes(&mut out, &self.bits);
        out.push(self.scheme);
        put_bool(&mut out, self.use_prefix_cache);
        out.push(self.estimator);
        put_u64(&mut out, self.probe_budget);
        put_u64(&mut out, self.estimator_seed);
        out
    }

    /// Content-addressed cache key: [`clado_core::fnv1a`] over the
    /// canonical encoding. This extends the shard fingerprint of
    /// [`clado_core::config_fingerprint`] with the identity fields it
    /// deliberately omits (model name, set seed), so two models with
    /// equal layer counts can never collide in the Ω cache.
    pub fn fingerprint(&self) -> u64 {
        clado_core::fnv1a(&self.canonical_bytes())
    }
}

/// What to do with the measured Ω.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Measure (or fetch from cache) and return the CLSM image.
    Measure,
    /// Measure, then solve one IQP at this weight budget.
    Assign {
        /// Average bits per weight defining the budget.
        avg_bits: f64,
    },
    /// Measure, then solve a budget sweep.
    Sweep {
        /// First budget (average bits per weight).
        from: f64,
        /// Last budget, inclusive.
        to: f64,
        /// Budget increment (must be positive).
        step: f64,
    },
}

const OP_MEASURE: u8 = 0;
const OP_ASSIGN: u8 = 1;
const OP_SWEEP: u8 = 2;

/// One planning request.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitRequest {
    /// The measurement configuration (and cache key).
    pub spec: MeasureSpec,
    /// What to compute from Ω.
    pub op: Op,
    /// Deadline in milliseconds from submission; 0 means none. The
    /// anytime solver falls back to its warm start as this approaches;
    /// measurement past the deadline fails with `DeadlineExceeded`.
    pub deadline_ms: u64,
}

/// Why a request was refused at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The admission queue is at its configured depth.
    Overloaded,
    /// The requested deadline cannot plausibly be met given the current
    /// queue and observed service times.
    DeadlineInfeasible,
    /// The daemon is draining (SIGTERM/Ctrl-C) and admits nothing new.
    Draining,
    /// The request itself is invalid (empty bit set, bad sweep range…).
    Malformed,
}

impl RejectReason {
    fn to_u8(self) -> u8 {
        match self {
            Self::Overloaded => 0,
            Self::DeadlineInfeasible => 1,
            Self::Draining => 2,
            Self::Malformed => 3,
        }
    }
    fn from_u8(b: u8) -> Result<Self, FrameError> {
        match b {
            0 => Ok(Self::Overloaded),
            1 => Ok(Self::DeadlineInfeasible),
            2 => Ok(Self::Draining),
            3 => Ok(Self::Malformed),
            other => Err(FrameError::Malformed(format!(
                "reject reason {other} out of range"
            ))),
        }
    }
    /// Stable lowercase label (CLI output, telemetry counter suffixes).
    pub fn label(self) -> &'static str {
        match self {
            Self::Overloaded => "overloaded",
            Self::DeadlineInfeasible => "deadline-infeasible",
            Self::Draining => "draining",
            Self::Malformed => "malformed",
        }
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Why an admitted request failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailKind {
    /// The per-request deadline expired mid-flight.
    DeadlineExceeded,
    /// A shard kept failing across workers past the retry cap.
    WorkerRetriesExhausted,
    /// The client disconnected (or the drain cancelled the request).
    Canceled,
    /// Anything else (provider failure, assembly failure…).
    Internal,
}

impl FailKind {
    fn to_u8(self) -> u8 {
        match self {
            Self::DeadlineExceeded => 0,
            Self::WorkerRetriesExhausted => 1,
            Self::Canceled => 2,
            Self::Internal => 3,
        }
    }
    fn from_u8(b: u8) -> Result<Self, FrameError> {
        match b {
            0 => Ok(Self::DeadlineExceeded),
            1 => Ok(Self::WorkerRetriesExhausted),
            2 => Ok(Self::Canceled),
            3 => Ok(Self::Internal),
            other => Err(FrameError::Malformed(format!(
                "fail kind {other} out of range"
            ))),
        }
    }
    /// Stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            Self::DeadlineExceeded => "deadline-exceeded",
            Self::WorkerRetriesExhausted => "worker-retries-exhausted",
            Self::Canceled => "canceled",
            Self::Internal => "internal",
        }
    }
}

impl fmt::Display for FailKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One solved budget row (`AssignDone` carries one, `SweepDone` many).
#[derive(Debug, Clone, PartialEq)]
pub struct AssignRow {
    /// Realized average bits per weight.
    pub avg_bits: f64,
    /// Chosen bit-width per layer, in layer order.
    pub bits: Vec<u8>,
    /// Predicted loss increase `αᵀĜα`.
    pub predicted_delta_loss: f64,
    /// Total weight cost in bits.
    pub cost_bits: u64,
    /// Suboptimality bound (0 when proved optimal).
    pub gap: f64,
    /// Solver method that produced the solution.
    pub method: String,
    /// How the solve terminated (proved / deadline / …).
    pub termination: String,
}

/// One message of the serve protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeMessage {
    /// Client → server: one planning request.
    Submit(SubmitRequest),
    /// The request passed admission and is queued.
    Accepted {
        /// Server-assigned request id (echoed in the final response).
        request_id: u64,
        /// Queue depth observed at admission (operator visibility).
        queue_depth: u32,
    },
    /// The request was refused at admission; the connection closes.
    Rejected {
        /// The typed refusal.
        reason: RejectReason,
        /// Human-readable elaboration.
        detail: String,
    },
    /// A `Measure` request completed.
    MeasureDone {
        /// Echo of the accepted request id.
        request_id: u64,
        /// Whether Ω came from the cache (zero probes evaluated).
        cache_hit: bool,
        /// Probe evaluations performed for this request.
        evaluations: u64,
        /// The CLSM byte image — bitwise identical to a local
        /// `save_sensitivities` of a fresh measurement.
        clsm: Vec<u8>,
    },
    /// An `Assign` request completed.
    AssignDone {
        /// Echo of the accepted request id.
        request_id: u64,
        /// Whether Ω came from the cache.
        cache_hit: bool,
        /// Probe evaluations performed for this request.
        evaluations: u64,
        /// The solved assignment.
        row: AssignRow,
    },
    /// A `Sweep` request completed.
    SweepDone {
        /// Echo of the accepted request id.
        request_id: u64,
        /// Whether Ω came from the cache.
        cache_hit: bool,
        /// Probe evaluations performed for this request.
        evaluations: u64,
        /// One row per budget, in sweep order.
        rows: Vec<AssignRow>,
    },
    /// An admitted request failed; the request dies, the daemon doesn't.
    Failed {
        /// Echo of the accepted request id.
        request_id: u64,
        /// The typed failure.
        kind: FailKind,
        /// Human-readable elaboration.
        detail: String,
    },
    /// Interim measurement progress, streamed to the waiting client
    /// between `Accepted` and the final response (cache hits and solves
    /// are too fast to bother). Clients may ignore these entirely.
    Progress {
        /// Echo of the accepted request id.
        request_id: u64,
        /// Probe evaluations integrated so far.
        probes_done: u64,
        /// Total probes the measurement plan will spend.
        probes_total: u64,
    },
}

fn put_row(out: &mut Vec<u8>, row: &AssignRow) {
    put_f64(out, row.avg_bits);
    put_bytes(out, &row.bits);
    put_f64(out, row.predicted_delta_loss);
    put_u64(out, row.cost_bits);
    put_f64(out, row.gap);
    put_bytes(out, row.method.as_bytes());
    put_bytes(out, row.termination.as_bytes());
}

fn read_row(c: &mut Reader<'_>) -> Result<AssignRow, FrameError> {
    Ok(AssignRow {
        avg_bits: c.f64("row.avg_bits")?,
        bits: c.bytes("row.bits")?.to_vec(),
        predicted_delta_loss: c.f64("row.predicted_delta_loss")?,
        cost_bits: c.u64("row.cost_bits")?,
        gap: c.f64("row.gap")?,
        method: c.string("row.method")?,
        termination: c.string("row.termination")?,
    })
}

impl ServeMessage {
    /// The frame kind of this message.
    pub fn kind(&self) -> u16 {
        match self {
            Self::Submit(_) => KIND_SUBMIT,
            Self::Accepted { .. } => KIND_ACCEPTED,
            Self::Rejected { .. } => KIND_REJECTED,
            Self::MeasureDone { .. } => KIND_MEASURE_DONE,
            Self::AssignDone { .. } => KIND_ASSIGN_DONE,
            Self::SweepDone { .. } => KIND_SWEEP_DONE,
            Self::Failed { .. } => KIND_FAILED,
            Self::Progress { .. } => KIND_PROGRESS,
        }
    }

    /// Encodes the message payload (the frame layer adds the envelope).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Self::Submit(req) => {
                out.extend_from_slice(&req.spec.canonical_bytes());
                match &req.op {
                    Op::Measure => out.push(OP_MEASURE),
                    Op::Assign { avg_bits } => {
                        out.push(OP_ASSIGN);
                        put_f64(&mut out, *avg_bits);
                    }
                    Op::Sweep { from, to, step } => {
                        out.push(OP_SWEEP);
                        put_f64(&mut out, *from);
                        put_f64(&mut out, *to);
                        put_f64(&mut out, *step);
                    }
                }
                put_u64(&mut out, req.deadline_ms);
            }
            Self::Accepted {
                request_id,
                queue_depth,
            } => {
                put_u64(&mut out, *request_id);
                put_u32(&mut out, *queue_depth);
            }
            Self::Rejected { reason, detail } => {
                out.push(reason.to_u8());
                put_bytes(&mut out, detail.as_bytes());
            }
            Self::MeasureDone {
                request_id,
                cache_hit,
                evaluations,
                clsm,
            } => {
                put_u64(&mut out, *request_id);
                put_bool(&mut out, *cache_hit);
                put_u64(&mut out, *evaluations);
                put_bytes(&mut out, clsm);
            }
            Self::AssignDone {
                request_id,
                cache_hit,
                evaluations,
                row,
            } => {
                put_u64(&mut out, *request_id);
                put_bool(&mut out, *cache_hit);
                put_u64(&mut out, *evaluations);
                put_row(&mut out, row);
            }
            Self::SweepDone {
                request_id,
                cache_hit,
                evaluations,
                rows,
            } => {
                put_u64(&mut out, *request_id);
                put_bool(&mut out, *cache_hit);
                put_u64(&mut out, *evaluations);
                put_u32(&mut out, rows.len() as u32);
                for row in rows {
                    put_row(&mut out, row);
                }
            }
            Self::Failed {
                request_id,
                kind,
                detail,
            } => {
                put_u64(&mut out, *request_id);
                out.push(kind.to_u8());
                put_bytes(&mut out, detail.as_bytes());
            }
            Self::Progress {
                request_id,
                probes_done,
                probes_total,
            } => {
                put_u64(&mut out, *request_id);
                put_u64(&mut out, *probes_done);
                put_u64(&mut out, *probes_total);
            }
        }
        out
    }

    /// Decodes a frame payload of the given kind.
    ///
    /// # Errors
    ///
    /// [`FrameError::UnknownKind`] for an unrecognized kind;
    /// [`FrameError::Malformed`] for short payloads, trailing bytes, or
    /// out-of-range tags.
    pub fn decode(kind: u16, payload: &[u8]) -> Result<Self, FrameError> {
        let mut c = Reader::new(payload);
        let msg = match kind {
            KIND_SUBMIT => {
                let spec = MeasureSpec {
                    model: c.string("spec.model")?,
                    set_size: c.u64("spec.set_size")?,
                    set_seed: c.u64("spec.set_seed")?,
                    batch_size: c.u64("spec.batch_size")?,
                    bits: c.bytes("spec.bits")?.to_vec(),
                    scheme: c.u8("spec.scheme")?,
                    use_prefix_cache: c.bool("spec.use_prefix_cache")?,
                    estimator: c.u8("spec.estimator")?,
                    probe_budget: c.u64("spec.probe_budget")?,
                    estimator_seed: c.u64("spec.estimator_seed")?,
                };
                let op = match c.u8("submit.op")? {
                    OP_MEASURE => Op::Measure,
                    OP_ASSIGN => Op::Assign {
                        avg_bits: c.f64("op.avg_bits")?,
                    },
                    OP_SWEEP => Op::Sweep {
                        from: c.f64("op.from")?,
                        to: c.f64("op.to")?,
                        step: c.f64("op.step")?,
                    },
                    other => return Err(FrameError::Malformed(format!("op {other} out of range"))),
                };
                Self::Submit(SubmitRequest {
                    spec,
                    op,
                    deadline_ms: c.u64("submit.deadline_ms")?,
                })
            }
            KIND_ACCEPTED => Self::Accepted {
                request_id: c.u64("accepted.request_id")?,
                queue_depth: c.u32("accepted.queue_depth")?,
            },
            KIND_REJECTED => Self::Rejected {
                reason: RejectReason::from_u8(c.u8("rejected.reason")?)?,
                detail: c.string("rejected.detail")?,
            },
            KIND_MEASURE_DONE => Self::MeasureDone {
                request_id: c.u64("measure.request_id")?,
                cache_hit: c.bool("measure.cache_hit")?,
                evaluations: c.u64("measure.evaluations")?,
                clsm: c.bytes("measure.clsm")?.to_vec(),
            },
            KIND_ASSIGN_DONE => Self::AssignDone {
                request_id: c.u64("assign.request_id")?,
                cache_hit: c.bool("assign.cache_hit")?,
                evaluations: c.u64("assign.evaluations")?,
                row: read_row(&mut c)?,
            },
            KIND_SWEEP_DONE => {
                let request_id = c.u64("sweep.request_id")?;
                let cache_hit = c.bool("sweep.cache_hit")?;
                let evaluations = c.u64("sweep.evaluations")?;
                let count = c.u32("sweep.row_count")? as usize;
                // Rows are ≥ 40 bytes each; reject absurd counts before
                // allocating.
                if count > payload.len() {
                    return Err(FrameError::Malformed(format!(
                        "sweep.row_count {count} exceeds payload size"
                    )));
                }
                let mut rows = Vec::with_capacity(count);
                for _ in 0..count {
                    rows.push(read_row(&mut c)?);
                }
                Self::SweepDone {
                    request_id,
                    cache_hit,
                    evaluations,
                    rows,
                }
            }
            KIND_FAILED => Self::Failed {
                request_id: c.u64("failed.request_id")?,
                kind: FailKind::from_u8(c.u8("failed.kind")?)?,
                detail: c.string("failed.detail")?,
            },
            KIND_PROGRESS => Self::Progress {
                request_id: c.u64("progress.request_id")?,
                probes_done: c.u64("progress.probes_done")?,
                probes_total: c.u64("progress.probes_total")?,
            },
            other => return Err(FrameError::UnknownKind(other)),
        };
        c.finish("serve message")?;
        Ok(msg)
    }
}

/// Sends one serve message as a frame.
///
/// # Errors
///
/// Propagates [`FrameError`] from the envelope layer.
pub fn send(w: &mut impl Write, msg: &ServeMessage) -> Result<(), FrameError> {
    write_frame(w, msg.kind(), &msg.encode())
}

/// Receives and decodes one serve message.
///
/// # Errors
///
/// Propagates [`FrameError`] from the envelope layer or the decoder.
pub fn recv(r: &mut impl Read) -> Result<ServeMessage, FrameError> {
    let (kind, payload) = read_frame(r)?;
    ServeMessage::decode(kind, &payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> MeasureSpec {
        MeasureSpec {
            model: "resnet20".into(),
            set_size: 64,
            set_seed: 7,
            batch_size: 32,
            bits: vec![2, 4, 8],
            scheme: 0,
            use_prefix_cache: true,
            estimator: 0,
            probe_budget: 0,
            estimator_seed: 0,
        }
    }

    fn row() -> AssignRow {
        AssignRow {
            avg_bits: 4.01,
            bits: vec![8, 4, 2, 4],
            predicted_delta_loss: 0.125,
            cost_bits: 99_000,
            gap: 0.0,
            method: "bnb".into(),
            termination: "proved".into(),
        }
    }

    #[test]
    fn every_serve_message_round_trips() {
        let msgs = vec![
            ServeMessage::Submit(SubmitRequest {
                spec: spec(),
                op: Op::Measure,
                deadline_ms: 0,
            }),
            ServeMessage::Submit(SubmitRequest {
                spec: spec(),
                op: Op::Assign { avg_bits: 4.0 },
                deadline_ms: 1500,
            }),
            ServeMessage::Submit(SubmitRequest {
                spec: spec(),
                op: Op::Sweep {
                    from: 2.0,
                    to: 8.0,
                    step: 0.5,
                },
                deadline_ms: 60_000,
            }),
            ServeMessage::Submit(SubmitRequest {
                spec: MeasureSpec {
                    estimator: 2,
                    probe_budget: 128,
                    estimator_seed: 0xE571,
                    ..spec()
                },
                op: Op::Measure,
                deadline_ms: 0,
            }),
            ServeMessage::Accepted {
                request_id: 3,
                queue_depth: 2,
            },
            ServeMessage::Rejected {
                reason: RejectReason::Overloaded,
                detail: "queue full (depth 16)".into(),
            },
            ServeMessage::Rejected {
                reason: RejectReason::DeadlineInfeasible,
                detail: "estimated start exceeds deadline".into(),
            },
            ServeMessage::MeasureDone {
                request_id: 3,
                cache_hit: true,
                evaluations: 0,
                clsm: vec![0xCA, 0xFE, 0x00, 0x42],
            },
            ServeMessage::AssignDone {
                request_id: 4,
                cache_hit: false,
                evaluations: 861,
                row: row(),
            },
            ServeMessage::SweepDone {
                request_id: 5,
                cache_hit: true,
                evaluations: 0,
                rows: vec![row(), row()],
            },
            ServeMessage::Failed {
                request_id: 6,
                kind: FailKind::WorkerRetriesExhausted,
                detail: "shard pair:3 failed 5 times".into(),
            },
            ServeMessage::Progress {
                request_id: 7,
                probes_done: 120,
                probes_total: 861,
            },
        ];
        for msg in &msgs {
            let back = ServeMessage::decode(msg.kind(), &msg.encode()).expect("decode");
            assert_eq!(&back, msg);
        }
    }

    #[test]
    fn unknown_kind_and_bad_tags_are_typed() {
        assert!(matches!(
            ServeMessage::decode(7777, &[]),
            Err(FrameError::UnknownKind(7777))
        ));
        // Reject reason 9 is out of range.
        let mut bad = ServeMessage::Rejected {
            reason: RejectReason::Draining,
            detail: String::new(),
        }
        .encode();
        bad[0] = 9;
        assert!(matches!(
            ServeMessage::decode(KIND_REJECTED, &bad),
            Err(FrameError::Malformed(_))
        ));
        // Truncated submit.
        let good = ServeMessage::Submit(SubmitRequest {
            spec: spec(),
            op: Op::Measure,
            deadline_ms: 1,
        })
        .encode();
        assert!(matches!(
            ServeMessage::decode(KIND_SUBMIT, &good[..good.len() - 1]),
            Err(FrameError::Malformed(_))
        ));
        // Trailing bytes.
        let mut long = good;
        long.push(0);
        assert!(matches!(
            ServeMessage::decode(KIND_SUBMIT, &long),
            Err(FrameError::Malformed(_))
        ));
        // Absurd sweep row count is rejected without allocation.
        let mut sweep = Vec::new();
        put_u64(&mut sweep, 1);
        put_bool(&mut sweep, false);
        put_u64(&mut sweep, 0);
        put_u32(&mut sweep, u32::MAX);
        assert!(matches!(
            ServeMessage::decode(KIND_SWEEP_DONE, &sweep),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn fingerprint_changes_with_every_field() {
        let base = spec();
        let fp = base.fingerprint();
        // Identical spec → identical key.
        assert_eq!(fp, spec().fingerprint());
        let variants = [
            MeasureSpec {
                model: "resnet34".into(),
                ..base.clone()
            },
            MeasureSpec {
                set_size: 65,
                ..base.clone()
            },
            MeasureSpec {
                set_seed: 8,
                ..base.clone()
            },
            MeasureSpec {
                batch_size: 16,
                ..base.clone()
            },
            MeasureSpec {
                bits: vec![4, 8],
                ..base.clone()
            },
            MeasureSpec {
                scheme: 1,
                ..base.clone()
            },
            MeasureSpec {
                use_prefix_cache: false,
                ..base.clone()
            },
            MeasureSpec {
                estimator: 3,
                ..base.clone()
            },
            MeasureSpec {
                probe_budget: 200,
                ..base.clone()
            },
            MeasureSpec {
                estimator_seed: 1,
                ..base.clone()
            },
        ];
        for v in variants {
            assert_ne!(
                v.fingerprint(),
                fp,
                "field change must change the key: {v:?}"
            );
        }
    }
}
