//! The serve-side error taxonomy.

use crate::protocol::RejectReason;
use clado_dist::{DistError, FrameError};
use std::fmt;
use std::io;

/// Everything that can go wrong binding, running, or talking to the
/// daemon.
#[derive(Debug)]
pub enum ServeError {
    /// Socket-level failure (bind, accept, connect).
    Io(io::Error),
    /// Framing or protocol failure on a client conversation.
    Frame(FrameError),
    /// The daemon refused the request at admission. This is the *typed*
    /// shed path — overload and infeasible deadlines surface here, never
    /// as timeouts or crashes.
    Rejected {
        /// The typed refusal.
        reason: RejectReason,
        /// Human-readable elaboration from the daemon.
        detail: String,
    },
    /// The peer violated the serve protocol (wrong message order).
    Protocol(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "serve I/O error: {e}"),
            Self::Frame(e) => write!(f, "serve frame error: {e}"),
            Self::Rejected { reason, detail } => {
                write!(f, "request rejected ({reason}): {detail}")
            }
            Self::Protocol(what) => write!(f, "serve protocol violation: {what}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Frame(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<FrameError> for ServeError {
    fn from(e: FrameError) -> Self {
        Self::Frame(e)
    }
}

impl From<DistError> for ServeError {
    fn from(e: DistError) -> Self {
        match e {
            DistError::Io(e) => Self::Io(e),
            other => Self::Io(io::Error::other(other.to_string())),
        }
    }
}
