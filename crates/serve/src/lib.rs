//! # clado-serve
//!
//! A fault-tolerant quantization-planning daemon for CLADO. The
//! measure-once / solve-many workflow is naturally service-shaped:
//! measuring Ω is expensive, solving budgets against it is cheap, and
//! both are deterministic — so a long-running daemon with a
//! content-addressed result cache turns repeat planning requests into
//! zero-probe lookups.
//!
//! * **Admission control & shedding** ([`Server`]): a bounded queue;
//!   past its depth — or when a request's deadline cannot plausibly be
//!   met — submissions are refused with *typed* rejections
//!   ([`RejectReason`]), never timeouts or crashes.
//! * **Deadlines** ([`SubmitRequest::deadline_ms`]): threaded into the
//!   measurement pool and [`clado_solver::SolverConfig`], so solves
//!   fall back to their anytime warm start instead of overrunning.
//! * **Ω cache** ([`OmegaCache`]): keyed by a fingerprint over every
//!   field of the [`MeasureSpec`]; a hit re-serves the first response's
//!   CLSM image byte for byte, with zero probe evaluations.
//! * **Pooled crash-resilient workers** ([`clado_dist::WorkerPool`]): warm
//!   connections reused across requests, dead workers evicted by
//!   heartbeat, their shards re-leased at once to surviving workers — a
//!   SIGKILLed worker mid-request costs a retry, not the
//!   request, and never the daemon.
//! * **Graceful drain** ([`Server::drain_handle`]): stop admitting,
//!   finish in-flight work, shut the pool down, return the final
//!   [`ServeReport`].
//!
//! ## Example (in-process loopback)
//!
//! ```no_run
//! use clado_serve::{submit, MeasureSpec, Op, Server, ServeOptions, SubmitRequest};
//! use std::sync::Arc;
//!
//! # fn provider(_: &clado_serve::MeasureSpec) -> Result<(clado_nn::Network, clado_models::DataSplit), String> { unimplemented!() }
//! let server = Server::bind("127.0.0.1:0", "127.0.0.1:0", Arc::new(provider), ServeOptions::default())?;
//! let addr = server.client_addr().to_string();
//! let drain = server.drain_handle();
//! std::thread::spawn(move || server.run());
//! let outcome = submit(&addr, &SubmitRequest {
//!     spec: MeasureSpec {
//!         model: "resnet20".into(), set_size: 64, set_seed: 0, batch_size: 64,
//!         bits: vec![2, 4, 8], scheme: 0, use_prefix_cache: true,
//!         estimator: 0, probe_budget: 0, estimator_seed: 0,
//!     },
//!     op: Op::Assign { avg_bits: 4.0 },
//!     deadline_ms: 0,
//! }, None)?;
//! println!("request {} answered", outcome.request_id);
//! drain.raise();
//! # Ok::<(), clado_serve::ServeError>(())
//! ```

#![warn(missing_docs)]

mod cache;
mod client;
mod diskcache;
mod error;
pub mod protocol;
mod server;

pub use cache::{CachedOmega, OmegaCache};
pub use client::{submit, submit_with_retries, SubmitOutcome};
pub use diskcache::DiskCache;
pub use error::ServeError;
pub use protocol::{
    AssignRow, FailKind, MeasureSpec, Op, RejectReason, ServeMessage, SubmitRequest,
};
pub use server::{DrainHandle, ModelProvider, ServeOptions, ServeReport, Server};
