//! The client side of the serve protocol: one connection, one request.

use crate::error::ServeError;
use crate::protocol::{self, ServeMessage, SubmitRequest};
use clado_dist::connect_with_retry;
use std::time::Duration;

/// One accepted-and-answered submission.
#[derive(Debug)]
pub struct SubmitOutcome {
    /// Server-assigned request id.
    pub request_id: u64,
    /// Queue depth the daemon observed at admission.
    pub queue_depth: u32,
    /// The final response: `MeasureDone`, `AssignDone`, `SweepDone`, or
    /// `Failed` — never `Accepted`/`Rejected`/`Submit`/`Progress`.
    pub response: ServeMessage,
    /// The last interim `Progress` frame observed (if any): cumulative
    /// probes done and the plan total.
    pub progress: Option<(u64, u64)>,
}

/// Submits one request to a daemon and blocks for the final response.
/// `response_timeout` bounds the wait for the *final* response (the
/// admission reply is always bounded to 30 s); `None` waits forever —
/// appropriate for measurements, which can be long.
///
/// # Errors
///
/// [`ServeError::Rejected`] when the daemon sheds the request at
/// admission (overload, infeasible deadline, drain, malformed);
/// [`ServeError::Io`]/[`ServeError::Frame`] for connection failures;
/// [`ServeError::Protocol`] when the daemon replies out of order.
pub fn submit(
    addr: &str,
    req: &SubmitRequest,
    response_timeout: Option<Duration>,
) -> Result<SubmitOutcome, ServeError> {
    submit_with_retries(addr, req, response_timeout, 0)
}

/// [`submit`] with up to `connect_retries` additional connect attempts
/// under the pooled workers' capped, jittered backoff
/// ([`clado_dist::connect_with_retry`]), so a daemon mid-restart costs a
/// submitting client a short wait instead of an error. Only the *connect* is
/// retried — once the request is on the wire it is never resent, so a
/// daemon that dies mid-request surfaces a typed error instead of a
/// silent duplicate submission.
///
/// # Errors
///
/// As [`submit`]; connect errors only after the retry budget is spent.
pub fn submit_with_retries(
    addr: &str,
    req: &SubmitRequest,
    response_timeout: Option<Duration>,
    connect_retries: u32,
) -> Result<SubmitOutcome, ServeError> {
    let stream = connect_with_retry(addr, None, connect_retries)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut s = &stream;
    protocol::send(&mut s, &ServeMessage::Submit(req.clone()))?;
    let (request_id, queue_depth) = match protocol::recv(&mut s)? {
        ServeMessage::Accepted {
            request_id,
            queue_depth,
        } => (request_id, queue_depth),
        ServeMessage::Rejected { reason, detail } => {
            return Err(ServeError::Rejected { reason, detail })
        }
        other => {
            return Err(ServeError::Protocol(format!(
                "expected Accepted/Rejected, got kind {}",
                other.kind()
            )))
        }
    };
    // Interim Progress frames keep arriving between Accepted and the
    // final response; each one restarts the response-timeout window (the
    // daemon is demonstrably alive and working on the request).
    let mut progress = None;
    let response = loop {
        stream.set_read_timeout(response_timeout)?;
        match protocol::recv(&mut s)? {
            ServeMessage::Progress {
                probes_done,
                probes_total,
                ..
            } => progress = Some((probes_done, probes_total)),
            msg @ (ServeMessage::MeasureDone { .. }
            | ServeMessage::AssignDone { .. }
            | ServeMessage::SweepDone { .. }
            | ServeMessage::Failed { .. }) => break msg,
            other => {
                return Err(ServeError::Protocol(format!(
                    "expected a final response, got kind {}",
                    other.kind()
                )))
            }
        }
    };
    Ok(SubmitOutcome {
        request_id,
        queue_depth,
        response,
        progress,
    })
}
