//! Top-level error type for the distributed sweep.

use crate::frame::FrameError;
use clado_core::{JournalError, MeasureError};
use std::fmt;
use std::io;
use std::time::Duration;

/// A failure of the worker pool, a job it runs, or a worker.
#[derive(Debug)]
pub enum DistError {
    /// Socket setup failed (bind, connect, accept).
    Io(io::Error),
    /// A wire-protocol failure on an essential connection (e.g. the
    /// worker's link to its coordinator).
    Frame(FrameError),
    /// The checkpoint journal failed; completed shards stay on disk.
    Journal(JournalError),
    /// Ω assembly failed (missing probes, non-finite base loss).
    Measure(MeasureError),
    /// The coordinator refused this worker (version or fingerprint
    /// mismatch).
    Rejected(String),
    /// The worker's model provider could not reconstruct the job.
    Provider(String),
    /// Work remained but no worker was connected for the configured
    /// idle window.
    NoWorkers {
        /// How long the job waited.
        waited: Duration,
    },
    /// The job's deadline expired before its grid completed.
    DeadlineExceeded,
    /// The job's cancel flag was raised.
    Canceled,
    /// A shard was evicted (worker death, hang, or protocol violation)
    /// more often than the pool's retry cap allows.
    RetriesExhausted(String),
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "distributed socket error: {e}"),
            Self::Frame(e) => write!(f, "distributed protocol error: {e}"),
            Self::Journal(e) => write!(f, "{e}"),
            Self::Measure(e) => write!(f, "{e}"),
            Self::Rejected(reason) => write!(f, "coordinator rejected this worker: {reason}"),
            Self::Provider(why) => write!(f, "worker could not reconstruct the job: {why}"),
            Self::NoWorkers { waited } => write!(
                f,
                "work remained but no worker connected for {:.0?}",
                waited
            ),
            Self::DeadlineExceeded => write!(f, "deadline expired before the sweep completed"),
            Self::Canceled => write!(f, "sweep canceled"),
            Self::RetriesExhausted(detail) => write!(f, "worker retries exhausted: {detail}"),
        }
    }
}

impl std::error::Error for DistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Frame(e) => Some(e),
            Self::Journal(e) => Some(e),
            Self::Measure(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FrameError> for DistError {
    fn from(e: FrameError) -> Self {
        Self::Frame(e)
    }
}

impl From<JournalError> for DistError {
    fn from(e: JournalError) -> Self {
        Self::Journal(e)
    }
}

impl From<MeasureError> for DistError {
    fn from(e: MeasureError) -> Self {
        match e {
            MeasureError::Journal(e) => Self::Journal(e),
            e => Self::Measure(e),
        }
    }
}
