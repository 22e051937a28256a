//! Typed errors for the sensitivity-measurement pipeline.
//!
//! Before this module, every failure mode of the measurement fan-out was a
//! panic: a probe closure that panicked aborted the whole sweep, a worker
//! thread dying without reporting hit an `expect`, and a non-finite loss
//! silently poisoned the Ω matrix. [`MeasureError`] replaces all of those
//! with structured errors that the journal layer can flush before
//! surfacing, so completed probes survive any failure.
//!
//! [`MeasureError`] covers the *measurement* stage only. Failures of the
//! *solve* stage — damaged Ω matrices caught by hardening
//! (`NonFiniteObjective`, `DegenerateObjective`),
//! infeasible budgets, and cost overflow — are typed as
//! [`clado_solver::IqpError`] and surface from [`crate::assign_bits`];
//! deadline expiry and cancellation are *not* errors there, they degrade
//! to a feasible incumbent with a reported optimality gap.

use crate::journal::JournalError;
use std::fmt;

/// A failure of [`crate::measure_sensitivities`] or the replica fan-out.
#[derive(Debug)]
pub enum MeasureError {
    /// A probe closure panicked on `item`. Probes are deterministic, so
    /// the item is not rerun.
    WorkerPanic {
        /// Index of the work item whose closure panicked.
        item: usize,
        /// The panic payload rendered as text.
        message: String,
    },
    /// The checkpoint journal failed (I/O, config mismatch, non-empty
    /// directory without resume).
    Journal(JournalError),
    /// The unperturbed base loss `L(w)` was non-finite; no sensitivity
    /// entry can be formed without it.
    NonFiniteBaseLoss {
        /// The offending value (NaN or ±Inf).
        loss: f64,
    },
    /// Ω assembly found probes of the grid with no record — the sweep
    /// ended (or a journal was loaded) before every shard completed.
    MissingProbes {
        /// Probes of the grid without a record.
        missing: usize,
        /// Total probes the configuration requires.
        total: usize,
    },
}

impl fmt::Display for MeasureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::WorkerPanic { item, message } => {
                write!(f, "measurement worker panicked on item {item}: {message}")
            }
            Self::Journal(e) => write!(f, "{e}"),
            Self::NonFiniteBaseLoss { loss } => write!(
                f,
                "base loss L(w) is non-finite ({loss}); \
                 the sensitivity set or model is unusable"
            ),
            Self::MissingProbes { missing, total } => write!(
                f,
                "sensitivity assembly is missing {missing} of {total} probe records; \
                 the sweep did not complete"
            ),
        }
    }
}

impl std::error::Error for MeasureError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Journal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<JournalError> for MeasureError {
    fn from(e: JournalError) -> Self {
        Self::Journal(e)
    }
}
