//! One Ω sweep for every driver.
//!
//! An [`OmegaPlan`] says which probes a sweep measures, round by round,
//! and how Ω is assembled from them; an executor runs each round.
//! [`run_plan`] is the loop every driver shares:
//!
//! 1. open the checkpoint under the plan's fingerprint;
//! 2. ask the plan for the next round of `(shard, probe ids)`;
//! 3. drop the ids already journaled;
//! 4. hand the rest to the executor, which commits each shard as it
//!    completes;
//! 5. when the plan has no more rounds, assemble Ω and build its
//!    [`SensitivityStats`] once.
//!
//! The exact sweep ([`ShardContext`]) is one round holding the whole
//! grid; `clado-estim`'s estimation plan measures the base and diagonal
//! probes first, then the pair probes they select. Executors differ only
//! in where probes run: [`run_plan_in_process`] fans a round out over
//! thread replicas, and `clado-dist` runs each round as one worker-pool
//! job. Every executor evaluates through [`ShardContext::run_probes`] and
//! every record is keyed by its [`ProbeId`], so Ω is bitwise identical
//! for any executor, thread or worker count, and resume point.

use crate::engine::{replica_map_checked, resolve_threads};
use crate::errors::MeasureError;
use crate::journal::{open_checkpoint, JournalWriter, ProbeId, ProbeRecord};
use crate::sensitivity::{SensitivityMatrix, SensitivityOptions, SensitivityStats};
use crate::shard::{ShardContext, ShardRunStats, ShardSpec};
use clado_models::DataSplit;
use clado_nn::Network;
use clado_solver::ObservedMask;
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

/// Every probe record of a sweep, keyed by identity.
pub type Records = HashMap<ProbeId, ProbeRecord>;

/// One round of a plan: shards, each with the probe ids it evaluates in
/// evaluation order.
pub type Round = Vec<(ShardSpec, Vec<ProbeId>)>;

/// Which probes an Ω sweep measures and how Ω is assembled from them.
pub trait OmegaPlan {
    /// The fingerprint the sweep's CLSJ journal is stamped with.
    fn fingerprint(&self) -> u64;

    /// Round `index` (counting from 0), given every record measured or
    /// resumed so far. An empty round ends the sweep.
    ///
    /// # Errors
    ///
    /// When the records cannot drive the round — an estimation plan
    /// cannot select pair probes against a non-finite base loss.
    fn round(&self, index: usize, records: &Records) -> Result<Round, MeasureError>;

    /// Assembles Ω and the mask of its measured entries from the records
    /// of every round. The matrix's stats carry the plan's provenance
    /// and quarantine count; [`run_plan`] fills in the rest.
    ///
    /// # Errors
    ///
    /// [`MeasureError::MissingProbes`] when a probe the plan needs has no
    /// record, [`MeasureError::NonFiniteBaseLoss`] for a quarantined base
    /// probe.
    fn assemble(
        &self,
        records: &Records,
    ) -> Result<(SensitivityMatrix, ObservedMask), MeasureError>;
}

/// What an executor's round works on: every record so far — fresh ones
/// are added here — and the journal each completed shard commits to.
pub struct SweepState {
    /// Every record measured or resumed so far.
    pub records: Records,
    /// The checkpoint journal, when the sweep has one.
    pub journal: Option<JournalWriter>,
}

/// A finished sweep.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// The assembled Ω. `stats.threads_used` is 1; executors that know
    /// better overwrite it.
    pub matrix: SensitivityMatrix,
    /// Which upper-triangle entries were measured.
    pub observed: ObservedMask,
    /// Probes the plan spent over all rounds, resumed ones included.
    pub planned: usize,
}

/// Runs `plan` to completion (see the module docs for the loop).
/// `run_round` evaluates one round's pending shards — every id still
/// unjournaled, shards left empty dropped — given how many of the
/// round's probes were resumed, adds their records to the state, commits
/// each shard to its journal, and returns the round's run stats.
///
/// # Errors
///
/// [`MeasureError::Journal`] when the checkpoint cannot be opened, the
/// errors of [`OmegaPlan::round`] and [`OmegaPlan::assemble`], and
/// whatever `run_round` fails with.
pub fn run_plan<E: From<MeasureError>>(
    plan: &dyn OmegaPlan,
    checkpoint_dir: Option<&Path>,
    resume: bool,
    mut run_round: impl FnMut(&Round, usize, &mut SweepState) -> Result<ShardRunStats, E>,
) -> Result<SweepOutcome, E> {
    let started = Instant::now();
    let (journaled, journal) =
        open_checkpoint(checkpoint_dir, plan.fingerprint(), resume).map_err(MeasureError::from)?;
    let mut state = SweepState {
        records: journaled.records,
        journal,
    };
    let mut run = ShardRunStats::default();
    let (mut planned, mut resumed) = (0usize, 0usize);
    for index in 0.. {
        let mut round = plan.round(index, &state.records)?;
        if round.is_empty() {
            break;
        }
        let ids: usize = round.iter().map(|(_, ids)| ids.len()).sum();
        for (_, ids) in &mut round {
            ids.retain(|id| !state.records.contains_key(id));
        }
        round.retain(|(_, ids)| !ids.is_empty());
        let fresh: usize = round.iter().map(|(_, ids)| ids.len()).sum();
        planned += ids;
        resumed += ids - fresh;
        if !round.is_empty() {
            run += run_round(&round, ids - fresh, &mut state)?;
        }
    }
    let (mut matrix, observed) = plan.assemble(&state.records)?;
    matrix.stats = SensitivityStats {
        evaluations: (run.full_evals + run.cache_hits) as usize,
        seconds: started.elapsed().as_secs_f64(),
        threads_used: 1,
        prefix_cache_builds: run.cache_builds as usize,
        prefix_cache_hits: run.cache_hits as usize,
        full_evals: run.full_evals as usize,
        resumed,
        ..matrix.stats
    };
    Ok(SweepOutcome {
        matrix,
        observed,
        planned,
    })
}

/// Runs `plan` in process: each round's shards fan out over
/// [`SensitivityOptions::threads`] workers — `network` and clones of it
/// ([`replica_map_checked`]) — every shard is journaled as soon as it
/// completes, and a panicking shard's replica is restored while the
/// other shards run on. The caller's weights end as they started.
///
/// # Errors
///
/// The errors of [`run_plan`]; [`MeasureError::WorkerPanic`] when a
/// shard fails (every other completed shard is journaled first).
pub fn run_plan_in_process(
    network: &mut Network,
    set: &DataSplit,
    ctx: &ShardContext,
    plan: &dyn OmegaPlan,
    options: &SensitivityOptions,
) -> Result<SweepOutcome, MeasureError> {
    let telemetry = &options.telemetry;
    let threads = resolve_threads(options.threads);
    let checkpoint = options.checkpoint_dir.as_deref();
    let mut outcome = run_plan(plan, checkpoint, options.resume, |round, resumed, state| {
        let fresh: usize = round.iter().map(|(_, ids)| ids.len()).sum();
        let progress = telemetry.progress("sensitivity probes", (resumed + fresh) as u64);
        progress.add(resumed as u64);
        let journal = &mut state.journal;
        let outs = replica_map_checked(
            &mut *network,
            threads,
            round,
            |net, (_, ids)| ctx.run_probes(net, set, ids, telemetry),
            |_, (recs, _)| {
                progress.add(recs.len() as u64);
                match journal.as_mut() {
                    Some(w) => w.commit_records(recs).map_err(MeasureError::from),
                    None => Ok(()),
                }
            },
        )?;
        progress.finish();
        let mut run = ShardRunStats::default();
        for (recs, stats) in outs {
            run += stats;
            state.records.extend(recs.into_iter().map(|r| (r.id, r)));
        }
        Ok::<_, MeasureError>(run)
    })?;
    telemetry
        .counter("measure.resumed")
        .add(outcome.matrix.stats.resumed as u64);
    outcome.matrix.stats.threads_used = threads;
    Ok(outcome)
}
