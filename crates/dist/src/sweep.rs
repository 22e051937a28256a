//! An Ω sweep on the worker pool — what `clado measure --workers N` /
//! `--listen` and every `clado serve` cache miss run.
//!
//! [`run_sweep`] is [`clado_core::run_plan`] with the pool as executor:
//! each round of the plan is one [`WorkerPool::run_job`], whose leases
//! carry the round's probe ids.
//!
//! # Crash safety
//!
//! Completed shards flow through the same atomic CLSJ commit path the
//! in-process engine uses (write-tmp → fsync → rename → fsync-dir), one
//! commit per shard. A SIGKILLed sweep therefore leaves a journal a
//! later `--resume` run loads losslessly — whether that run is
//! distributed again or a plain single-process `measure_sensitivities`.

use crate::error::DistError;
use crate::pool::{Job, JobControl, WorkerPool, WorkerSummary};
use crate::protocol::JobSpec;
use clado_core::{run_plan, OmegaPlan, SensitivityMatrix};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// The result of a completed distributed sweep.
#[derive(Debug, Clone)]
pub struct DistOutcome {
    /// The assembled sensitivity matrix — bitwise identical to the same
    /// plan swept in a single process.
    pub matrix: SensitivityMatrix,
    /// Per-worker accounting over every round, ordered by worker id.
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
    /// Each round's dispatch delay, in round order: posting the round's
    /// job → its first lease grant. Rounds that leased nothing (answered
    /// by local takeover, or with no pending shard) have none.
    pub dispatch_seconds: Vec<f64>,
    /// Steady-state shard service after the first lease grant.
    pub steady_seconds: f64,
}

/// Sweeps `plan` on `pool`: loads (or, with `resume`, restores) the CLSJ
/// journal in `checkpoint_dir`, runs each round of the plan as one job of
/// `spec` under `control` — leases carry the round's unjournaled probe
/// ids — and assembles Ω. `spec.fingerprint` must be the measurement
/// configuration's (`ShardContext::fingerprint`), which every worker's
/// `Ready` echoes.
///
/// # Errors
///
/// [`DistError::Journal`] for checkpoint failures (completed shards stay
/// on disk), [`DistError::Measure`] for planning and assembly failures,
/// and the failures of [`WorkerPool::run_job`].
pub fn run_sweep(
    pool: &WorkerPool,
    plan: &dyn OmegaPlan,
    spec: JobSpec,
    checkpoint_dir: Option<&Path>,
    resume: bool,
    control: &mut JobControl<'_>,
) -> Result<DistOutcome, DistError> {
    let started = Instant::now();
    let mut workers: BTreeMap<u64, WorkerSummary> = BTreeMap::new();
    let (mut shard_seconds, mut evictions, mut first_lease) = (Vec::new(), 0, None);
    let mut dispatch_seconds = Vec::new();
    let swept = run_plan(plan, checkpoint_dir, resume, |round, _, state| {
        let job = Job {
            spec: spec.clone(),
            shards: round.clone(),
            records: std::mem::take(&mut state.records),
            journal: state.journal.take(),
        };
        let posted = Instant::now();
        let outcome = pool.run_job(job, control)?;
        state.records = outcome.records;
        state.journal = outcome.journal;
        for w in outcome.workers {
            let total = workers.entry(w.id).or_insert(WorkerSummary {
                shards: 0,
                probes: 0,
                seconds: 0.0,
                ..w
            });
            total.shards += w.shards;
            total.probes += w.probes;
            total.seconds += w.seconds;
        }
        shard_seconds.extend(outcome.shard_seconds);
        evictions += outcome.evictions;
        if let Some(leased) = outcome.first_lease {
            dispatch_seconds.push(leased.duration_since(posted).as_secs_f64());
        }
        first_lease = first_lease.or(outcome.first_lease);
        Ok::<_, DistError>(outcome.totals)
    })?;
    let workers: Vec<WorkerSummary> = workers.into_values().collect();
    let mut matrix = swept.matrix;
    matrix.stats.threads_used = workers.iter().filter(|w| w.shards > 0).count().max(1);
    let total_seconds = matrix.stats.seconds;
    let startup_seconds = first_lease.map_or(total_seconds, |t: Instant| {
        t.duration_since(started).as_secs_f64()
    });
    Ok(DistOutcome {
        straggler_seconds: workers.iter().map(|w| w.seconds).fold(0.0, f64::max),
        resumed: matrix.stats.resumed,
        matrix,
        workers,
        shard_seconds,
        evictions,
        rejected: pool.rejected_workers(),
        startup_seconds,
        dispatch_seconds,
        steady_seconds: (total_seconds - startup_seconds).max(0.0),
    })
}
