//! A one-shot distributed sweep on the worker pool — what `clado measure
//! --workers N` / `--listen` runs.
//!
//! # Crash safety
//!
//! Completed shards flow through the same atomic CLSJ commit path the
//! in-process engine uses (write-tmp → fsync → rename → fsync-dir), one
//! commit per shard. A SIGKILLed sweep therefore leaves a journal a
//! later `--resume` run loads losslessly — whether that run is
//! distributed again or a plain single-process `measure_sensitivities`.

use crate::error::DistError;
use crate::pool::{Fallback, Job, WorkerPool, WorkerSummary};
use crate::protocol::JobSpec;
use clado_core::journal::open_checkpoint;
use clado_core::{ProbeId, SensitivityMatrix, ShardContext, ShardSpec};
use clado_estim::{assemble_omega, job_fingerprint, GridEstimation};
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

/// The result of a completed distributed sweep.
#[derive(Debug, Clone)]
pub struct DistOutcome {
    /// The assembled sensitivity matrix — bitwise identical to a
    /// single-process [`clado_core::measure_sensitivities`] run of the
    /// same configuration (or, for an estimation job, to
    /// `clado_estim::estimate_sensitivities` under the same estimator,
    /// budget, and seed).
    pub matrix: SensitivityMatrix,
    /// Per-worker accounting, ordered by worker id.
    pub workers: Vec<WorkerSummary>,
    /// Service time of each shard evaluated in this run.
    pub shard_seconds: Vec<f64>,
    /// Leases evicted (and their shards requeued) from dead or hung
    /// workers.
    pub evictions: u64,
    /// Workers the pool refused (version or fingerprint mismatch).
    pub rejected: u64,
    /// Probe records restored from the journal instead of re-measured.
    pub resumed: usize,
    /// Busy seconds of the slowest worker (the straggler).
    pub straggler_seconds: f64,
    /// Fleet spin-up: entering the sweep → first lease grant (connects,
    /// handshakes, and worker model builds).
    pub startup_seconds: f64,
    /// Steady-state shard service after the first lease grant.
    pub steady_seconds: f64,
}

/// Runs one sweep of `ctx`'s grid on `pool`: loads (or, with `resume`,
/// restores) the CLSJ journal in `checkpoint_dir`, runs one job over the
/// shards not yet journaled, and assembles Ω. `job.fingerprint` is
/// filled in from `ctx` and the job's estimator fields. The sweep does
/// no local takeover: it waits for workers and fails with
/// [`DistError::NoWorkers`] once none has been live for `idle_timeout`.
///
/// # Errors
///
/// [`DistError::BadJob`] for an estimator tag that cannot be sharded,
/// [`DistError::Journal`] for checkpoint failures (completed shards stay
/// on disk), [`DistError::Measure`] for assembly failures, and the
/// failures of [`WorkerPool::run_job`].
pub fn run_sweep(
    pool: &WorkerPool,
    ctx: &ShardContext,
    job: JobSpec,
    checkpoint_dir: Option<&Path>,
    resume: bool,
    idle_timeout: Option<Duration>,
) -> Result<DistOutcome, DistError> {
    let started = Instant::now();
    let est = GridEstimation::from_job(job.estimator, job.probe_budget, job.estimator_seed)
        .map_err(DistError::BadJob)?;
    let fingerprint = job_fingerprint(ctx, est.as_ref());

    // Load (or refuse) the checkpoint journal exactly like the in-process
    // engine: same fingerprint, same not-empty guard.
    let (state, journal) = open_checkpoint(checkpoint_dir, fingerprint, resume)?;
    let records = state.records;
    let resumed = records.len();
    // In estimation mode a pair shard only carries its selected probes,
    // so resume completeness is "any record present": CLSJ shard commits
    // are atomic and workers ship each shard's whole selection in one
    // ShardDone. A pair shard whose selection was empty is simply
    // re-leased — workers return it instantly.
    let journaled = |shard: ShardSpec| match (est, shard) {
        (Some(_), ShardSpec::Pair { outer }) => records
            .keys()
            .any(|id| matches!(id, ProbeId::Pair { layer_i, .. } if *layer_i == outer)),
        _ => ctx
            .shard_probes(shard)
            .iter()
            .all(|id| records.contains_key(id)),
    };
    let shards: Vec<ShardSpec> = ctx
        .shards()
        .into_iter()
        .filter(|&s| !journaled(s))
        .collect();

    let outcome = pool.run_job(
        Job {
            spec: JobSpec { fingerprint, ..job },
            shards,
            records,
            journal,
        },
        &AtomicBool::new(false),
        None,
        Fallback::Wait(idle_timeout),
        |_| {},
    )?;
    let matrix = assemble_omega(
        ctx,
        &outcome.records,
        est.as_ref(),
        &outcome.totals,
        outcome.workers.len(),
        resumed,
        started,
    )?;
    let total_seconds = matrix.stats.seconds;
    let startup_seconds = outcome
        .first_lease
        .map_or(total_seconds, |t| t.duration_since(started).as_secs_f64());
    Ok(DistOutcome {
        straggler_seconds: outcome
            .workers
            .iter()
            .map(|w| w.seconds)
            .fold(0.0, f64::max),
        matrix,
        workers: outcome.workers,
        shard_seconds: outcome.shard_seconds,
        evictions: outcome.evictions,
        rejected: pool.rejected_workers(),
        resumed,
        startup_seconds,
        steady_seconds: (total_seconds - startup_seconds).max(0.0),
    })
}
