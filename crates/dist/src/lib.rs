//! # clado-dist
//!
//! Distributed sensitivity sweeps for CLADO: a worker pool that shards
//! the probe grid of
//! [`clado_core::measure_sensitivities`] across worker *processes* over
//! TCP, built entirely on `std::net`.
//!
//! * **Framing** ([`frame`]): length-prefixed, checksummed binary
//!   frames; every malformed input maps to a typed [`FrameError`].
//! * **Protocol** ([`protocol`]): a versioned handshake carrying the
//!   measurement configuration fingerprint (mismatched workers are
//!   rejected), then a lease loop in which the pool pushes each lease,
//!   carrying the probe ids to evaluate.
//! * **Worker pool** ([`WorkerPool`]): the one shard scheduler. Warm
//!   worker connections lease shards with heartbeat deadlines; shards
//!   of dead or hung workers are requeued and re-leased at once; completed
//!   shards can be committed through the atomic CLSJ journal.
//! * **Sweep** ([`run_sweep`]): [`clado_core::run_plan`] on the pool —
//!   each round of an [`clado_core::OmegaPlan`] (exact or estimated) is
//!   one job whose leases carry their probe ids, and Ω is bitwise
//!   identical to a single-process run. `clado measure --workers/--listen`
//!   runs one sweep (resumable from the journal); the `clado serve`
//!   daemon runs one per cache miss on one pool.
//! * **Worker** ([`run_worker`]): reconstructs each job from its spec,
//!   evaluates each lease's probes with
//!   [`clado_core::ShardContext::run_probes`], and heartbeats from a side
//!   thread while measuring.
//!
//! ## Example (in-process loopback)
//!
//! ```no_run
//! use clado_core::ShardContext;
//! use clado_dist::{run_sweep, JobControl, JobSpec, PoolOptions, WorkerOptions, WorkerPool};
//!
//! # fn demo(ctx: ShardContext, job: JobSpec) -> Result<(), clado_dist::DistError> {
//! let pool = WorkerPool::bind("127.0.0.1:0", PoolOptions::default())?;
//! let addr = pool.worker_addr().to_string();
//! std::thread::spawn(move || {
//!     clado_dist::run_worker(
//!         &addr,
//!         |job| Err(format!("reconstruct model for {job:?}")),
//!         &WorkerOptions::default(),
//!     )
//! });
//! let outcome = run_sweep(&pool, &ctx, job, None, false, &mut JobControl::wait(None))?;
//! pool.shutdown();
//! println!("Ω assembled from {} workers", outcome.workers.len());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod error;
pub mod frame;
mod pool;
pub mod protocol;
mod sweep;
pub mod wire;
mod worker;

pub use error::DistError;
pub use frame::{FrameError, MAX_PAYLOAD, PROTOCOL_VERSION};
pub use pool::{
    Fallback, Job, JobControl, JobOutcome, LocalProbes, PoolOptions, WorkerPool, WorkerSummary,
};
pub use protocol::{scheme_from_u8, scheme_to_u8, JobSpec, Message};
pub use sweep::{run_sweep, DistOutcome};
pub use worker::{connect_with_retry, run_worker, WorkerOptions, WorkerReport};
