//! The estimation entry point: budgeted Ω measurement for every
//! [`EstimatorKind`], with CLSJ journaling, resume, and the same threaded
//! fan-out as the exact sweep.

use crate::planner::EstimationPlan;
use crate::EstimatorKind;
use clado_core::{
    eval_loss, hawq_sensitivities, resolve_threads, run_plan_in_process, BaselineOptions,
    MeasureError, OmegaProvenance, SensitivityMatrix, SensitivityOptions, SensitivityStats,
    ShardContext,
};
use clado_models::DataSplit;
use clado_nn::Network;
use clado_quant::BitWidthSet;
use clado_solver::ObservedMask;
use clado_telemetry::Telemetry;
use std::time::Instant;

/// Default estimator RNG seed (distinct from the measurement and
/// baseline seeds so runs are independent by default).
pub const DEFAULT_ESTIMATOR_SEED: u64 = 0xE571;

/// Default ALS factor rank (sketched completion).
pub const DEFAULT_ALS_RANK: usize = 4;

/// Default ALS sweep count (sketched completion).
pub const DEFAULT_ALS_ITERS: usize = 48;

/// Cap on Hutchinson probes — beyond this the trace estimate is far past
/// diminishing returns on the models this crate targets.
const MAX_HUTCHINSON_PROBES: usize = 64;

/// Options controlling a budgeted estimation run.
#[derive(Debug, Clone)]
pub struct EstimatorOptions {
    /// Which estimator to run.
    pub kind: EstimatorKind,
    /// Total probe budget, counted in full-sweep probe units (forward
    /// evaluations of the sensitivity set). `0` means 25% of the full
    /// sweep. Grid estimators floor the budget at the mandatory
    /// `1 + |𝔹|I` base+diagonal probes and cap it at the full sweep.
    pub probe_budget: usize,
    /// RNG seed for probe selection / ALS initialization. Part of the
    /// estimator journal fingerprint.
    pub seed: u64,
    /// ALS factor rank (sketched only).
    pub rank: usize,
    /// ALS sweep count (sketched only).
    pub als_iters: usize,
    /// Underlying measurement options (scheme, batch size, threads,
    /// prefix cache, telemetry, checkpoint dir, resume, retries). The
    /// journal in `checkpoint_dir` is stamped with the estimator
    /// fingerprint, so exact and estimated runs can never share one.
    pub measure: SensitivityOptions,
}

impl EstimatorOptions {
    /// Default options for one estimator kind.
    pub fn new(kind: EstimatorKind) -> Self {
        Self {
            kind,
            probe_budget: 0,
            seed: DEFAULT_ESTIMATOR_SEED,
            rank: DEFAULT_ALS_RANK,
            als_iters: DEFAULT_ALS_ITERS,
            measure: SensitivityOptions::default(),
        }
    }
}

/// An estimated sensitivity matrix plus its budget accounting.
#[derive(Debug, Clone)]
pub struct EstimatedOmega {
    /// The completed, PSD-projected estimate in the standard
    /// [`SensitivityMatrix`] shape; its stats carry the estimator
    /// provenance, so it serializes to CLSM v4 like any measurement.
    pub matrix: SensitivityMatrix,
    /// Which upper-triangle entries were actually measured (diagonal and
    /// same-layer entries always; cross terms only where budget went).
    pub observed: ObservedMask,
    /// Probes the plan spends — deterministic for a configuration, and
    /// unchanged by resuming (resumed probes still count as spent).
    pub probes_spent: usize,
    /// Probe count of the exact full sweep for this configuration.
    pub full_sweep_probes: usize,
}

impl EstimatedOmega {
    /// `probes_spent / full_sweep_probes`.
    pub fn probe_fraction(&self) -> f64 {
        self.probes_spent as f64 / self.full_sweep_probes as f64
    }
}

/// Estimates Ω under a probe budget — the budgeted analogue of
/// [`clado_core::measure_sensitivities`].
///
/// Grid estimators (sketched, adaptive, blocktopk) sweep their
/// [`EstimationPlan`] in process ([`run_plan_in_process`]): the base and
/// diagonal probes, then the pair probes they select deterministically
/// from the seed and budget (and, for adaptive, a refinement round), each
/// round on [`SensitivityOptions::threads`] worker replicas; then the
/// partial matrix is completed. The result is bitwise identical for any
/// thread count and across resumes, and the CLSJ journal (stamped with
/// the plan's estimator fingerprint) makes the sweep crash-safe exactly
/// like exact measurement. The Hutchinson kind instead estimates a
/// diagonal-only Ω from Hessian-trace probes; it never touches the grid
/// journal.
///
/// # Errors
///
/// - [`MeasureError::Journal`] on journal I/O or fingerprint mismatch,
///   or when the checkpoint dir is non-empty without
///   [`SensitivityOptions::resume`].
/// - [`MeasureError::WorkerPanic`] / [`MeasureError::WorkerLost`] when a
///   probe panics beyond the retry budget.
/// - [`MeasureError::NonFiniteBaseLoss`] when `L(w)` stays non-finite
///   after the quarantine retry.
pub fn estimate_sensitivities(
    network: &mut Network,
    set: &DataSplit,
    bits: &BitWidthSet,
    options: &EstimatorOptions,
) -> Result<EstimatedOmega, MeasureError> {
    if options.kind == EstimatorKind::Hutchinson {
        return estimate_hutchinson(network, set, bits, options);
    }
    let measure = &options.measure;
    let _span = measure.telemetry.span("estim.measure");
    let ctx = ShardContext::new(
        network,
        set.len(),
        bits,
        measure.scheme,
        measure.batch_size,
        measure.use_prefix_cache,
    );
    let plan = EstimationPlan::new(&ctx, options.kind, options.probe_budget, options.seed)
        .with_als(options.rank, options.als_iters);
    let swept = run_plan_in_process(network, set, &ctx, &plan, measure)?;
    let estimated = EstimatedOmega {
        matrix: swept.matrix,
        observed: swept.observed,
        probes_spent: swept.planned,
        full_sweep_probes: ctx.total_probes(),
    };
    record_spend(&measure.telemetry, &estimated);
    Ok(estimated)
}

/// Counts an estimate's spend in `estim.probes_spent` and
/// `estim.probe_fraction`.
fn record_spend(telemetry: &Telemetry, est: &EstimatedOmega) {
    telemetry
        .counter("estim.probes_spent")
        .add(est.probes_spent as u64);
    telemetry.set_gauge("estim.probe_fraction", est.probe_fraction());
}

/// Diagonal-only estimation from Hutchinson Hessian-trace probes. Each
/// probe is one central-difference HVP over the whole network (two
/// gradient evaluations), so a budget of `n` buys
/// `max(1, (n − 1) / 2)` probes (capped at [`MAX_HUTCHINSON_PROBES`]);
/// spent probes are `1 + 2·probes`.
fn estimate_hutchinson(
    network: &mut Network,
    set: &DataSplit,
    bits: &BitWidthSet,
    options: &EstimatorOptions,
) -> Result<EstimatedOmega, MeasureError> {
    let start = Instant::now();
    let telemetry = options.measure.telemetry.clone();
    let _span = telemetry.span("estim.hutchinson");
    let num_layers = network.quantizable_layers().len();
    let k = bits.len();
    let full_sweep = 1 + k * num_layers + k * k * num_layers * num_layers.saturating_sub(1) / 2;
    let probes = if options.probe_budget == 0 {
        BaselineOptions::default().hutchinson_probes
    } else {
        (options.probe_budget.saturating_sub(1) / 2).max(1)
    }
    .min(MAX_HUTCHINSON_PROBES);

    let batch_size = options.measure.batch_size;
    let mut base_loss = eval_loss(network, set, batch_size);
    if !base_loss.is_finite() {
        base_loss = eval_loss(network, set, batch_size);
    }
    if !base_loss.is_finite() {
        return Err(MeasureError::NonFiniteBaseLoss { loss: base_loss });
    }

    let bopts = BaselineOptions {
        scheme: options.measure.scheme,
        batch_size,
        hutchinson_probes: probes,
        seed: options.seed,
        threads: options.measure.threads,
        telemetry: telemetry.clone(),
        ..BaselineOptions::default()
    };
    let g = hawq_sensitivities(network, set, bits, &bopts);

    let dim = num_layers * k;
    let mut observed = ObservedMask::new(dim);
    for i in 0..num_layers {
        for m in 0..k {
            for n in m..k {
                observed.set(i * k + m, i * k + n);
            }
        }
    }
    let completed = g.psd_project();
    let probes_spent = 1 + 2 * probes;
    let stats = SensitivityStats {
        // One loss eval plus two gradient passes per probe.
        evaluations: probes_spent,
        seconds: start.elapsed().as_secs_f64(),
        threads_used: resolve_threads(options.measure.threads),
        full_evals: probes_spent,
        provenance: OmegaProvenance::estimated(
            EstimatorKind::Hutchinson.tag(),
            probes_spent as u64,
            options.seed,
        ),
        ..SensitivityStats::default()
    };
    let estimated = EstimatedOmega {
        matrix: SensitivityMatrix::from_parts(
            completed,
            num_layers,
            bits.clone(),
            base_loss,
            stats,
        ),
        observed,
        probes_spent,
        full_sweep_probes: full_sweep,
    };
    record_spend(&telemetry, &estimated);
    Ok(estimated)
}
