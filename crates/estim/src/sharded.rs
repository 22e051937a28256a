//! What every grid-sharded caller — the distributed sweep, its workers,
//! and the serve daemon — shares about a job's estimator fields: which
//! tags can be sharded, the fingerprint the journal and the worker
//! handshake key on, the probe plan each node rebuilds locally, and the
//! final Ω assembly.

use crate::{
    complete_partial, estimation_fingerprint, resolved_probe_budget, EstimatorKind, ProbePlanner,
    DEFAULT_ALS_ITERS, DEFAULT_ALS_RANK,
};
use clado_core::{
    MeasureError, OmegaProvenance, ProbeId, ProbeRecord, SensitivityMatrix, SensitivityStats,
    ShardContext, ShardRunStats,
};
use clado_models::DataSplit;
use clado_nn::Network;
use clado_telemetry::Telemetry;
use std::collections::HashMap;
use std::time::Instant;

/// The estimator settings of a grid-sharded job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridEstimation {
    /// The estimator; never [`EstimatorKind::Hutchinson`].
    pub kind: EstimatorKind,
    /// The requested probe budget (`0` = 25% of the full sweep).
    pub probe_budget: usize,
    /// Probe-selection and ALS seed.
    pub seed: u64,
}

impl GridEstimation {
    /// Reads a job's estimator fields. Tag `0` is an exact sweep
    /// (`Ok(None)`); hutchinson (diagonal-only) and unknown tags are
    /// refused with the reason every caller reports.
    ///
    /// # Errors
    ///
    /// The refusal reason for a tag that cannot be grid-sharded.
    pub fn from_job(tag: u8, probe_budget: u64, seed: u64) -> Result<Option<Self>, String> {
        if tag == 0 {
            return Ok(None);
        }
        match EstimatorKind::from_tag(tag) {
            Some(EstimatorKind::Hutchinson) => Err(
                "hutchinson estimation is diagonal-only and not grid-shardable; \
                 run it single-process"
                    .into(),
            ),
            Some(kind) => Ok(Some(Self {
                kind,
                probe_budget: probe_budget as usize,
                seed,
            })),
            None => Err(format!("unknown estimator tag {tag}")),
        }
    }

    /// Measures the base and diagonal probes on `net` and selects the
    /// pair probes — the same deterministic plan on every node. Returns
    /// the planner and the run stats of that local pass.
    ///
    /// # Errors
    ///
    /// [`MeasureError::NonFiniteBaseLoss`] when the base loss stays
    /// non-finite after the quarantine retry.
    pub fn plan(
        &self,
        ctx: &ShardContext,
        net: &mut Network,
        set: &DataSplit,
        telemetry: &Telemetry,
    ) -> Result<(ProbePlanner, ShardRunStats), MeasureError> {
        let budget = resolved_probe_budget(ctx, self.probe_budget);
        let (planner, _fresh, stats) = ProbePlanner::build(
            ctx,
            net,
            set,
            telemetry,
            self.kind,
            budget,
            self.seed,
            &HashMap::new(),
        )?;
        Ok((planner, stats))
    }
}

/// The fingerprint a job's CLSJ journal and worker handshake key on:
/// the configuration fingerprint of an exact sweep, or the estimation
/// fingerprint (configuration ⊕ kind ⊕ resolved budget ⊕ seed), so an
/// estimation sweep never mixes records with an exact one or with
/// another estimator's.
pub fn job_fingerprint(ctx: &ShardContext, est: Option<&GridEstimation>) -> u64 {
    match est {
        Some(e) => estimation_fingerprint(ctx, e.kind, e.probe_budget, e.seed),
        None => ctx.fingerprint(),
    }
}

/// Assembles Ω from a completed shard grid, bitwise identical to the
/// single-process engine: an exact grid through
/// [`ShardContext::assemble`], an estimated one through
/// [`ShardContext::assemble_partial`] and the same completion
/// [`crate::estimate_sensitivities`] runs (ALS defaults, job seed).
///
/// `totals` sums the run stats of every shard evaluated for this Ω;
/// `seconds` is measured from `started` through assembly.
///
/// # Errors
///
/// [`MeasureError::MissingProbes`] when the grid is incomplete and
/// [`MeasureError::NonFiniteBaseLoss`] for a non-finite base loss.
pub fn assemble_omega(
    ctx: &ShardContext,
    records: &HashMap<ProbeId, ProbeRecord>,
    est: Option<&GridEstimation>,
    totals: &ShardRunStats,
    threads_used: usize,
    resumed: usize,
    started: Instant,
) -> Result<SensitivityMatrix, MeasureError> {
    let (matrix, base_loss, quarantined) = match est {
        Some(e) => {
            let assembly = ctx.assemble_partial(records)?;
            let completed = complete_partial(
                e.kind,
                &assembly.g,
                &assembly.observed,
                DEFAULT_ALS_RANK,
                DEFAULT_ALS_ITERS,
                e.seed,
            );
            (completed, assembly.base_loss, assembly.quarantined)
        }
        None => ctx.assemble(records)?,
    };
    let stats = SensitivityStats {
        evaluations: (totals.full_evals + totals.cache_hits) as usize,
        seconds: started.elapsed().as_secs_f64(),
        threads_used: threads_used.max(1),
        prefix_cache_builds: totals.cache_builds as usize,
        prefix_cache_hits: totals.cache_hits as usize,
        full_evals: totals.full_evals as usize,
        resumed,
        retried: totals.retried as usize,
        quarantined,
        provenance: match est {
            Some(e) => OmegaProvenance::estimated(
                e.kind.tag(),
                resolved_probe_budget(ctx, e.probe_budget) as u64,
                e.seed,
            ),
            None => OmegaProvenance::exact(),
        },
    };
    Ok(SensitivityMatrix::from_parts(
        matrix,
        ctx.num_layers(),
        ctx.bits().clone(),
        base_loss,
        stats,
    ))
}
