//! The estimation entry point: budgeted Ω measurement with CLSJ
//! journaling, resume, and the same threaded fan-out as the exact sweep.

use crate::planner::EstimationPlan;
use crate::EstimatorKind;
use clado_core::{
    run_plan_in_process, MeasureError, SensitivityMatrix, SensitivityOptions, ShardContext,
};
use clado_models::DataSplit;
use clado_nn::Network;
use clado_quant::BitWidthSet;
use clado_solver::ObservedMask;

/// The seed every estimation journal fingerprint and Ω provenance
/// records. No estimator reads it; it is a constant so journals, CLSM
/// bytes and serve cache keys stay what they were when it was a knob.
pub const DEFAULT_ESTIMATOR_SEED: u64 = 0xE571;

/// Options controlling a budgeted estimation run.
#[derive(Debug, Clone)]
pub struct EstimatorOptions {
    /// Which estimator to run.
    pub kind: EstimatorKind,
    /// Total probe budget, counted in full-sweep probe units (forward
    /// evaluations of the sensitivity set). `0` means 25% of the full
    /// sweep. The budget is floored at the mandatory `1 + |𝔹|I`
    /// base+diagonal probes and capped at the full sweep.
    pub probe_budget: usize,
    /// Underlying measurement options (scheme, batch size, threads,
    /// prefix cache, telemetry, checkpoint dir, resume). The
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
/// Sweeps the [`EstimationPlan`] in process ([`run_plan_in_process`]):
/// the base and diagonal probes, then the pair probes selected
/// deterministically from the budget, each round on
/// [`SensitivityOptions::threads`] worker replicas; then the partial
/// matrix is PSD-projected. The result is bitwise identical for any
/// thread count and across resumes, and the CLSJ journal (stamped with
/// the plan's estimator fingerprint) makes the sweep crash-safe exactly
/// like exact measurement.
///
/// # Errors
///
/// - [`MeasureError::Journal`] on journal I/O or fingerprint mismatch,
///   or when the checkpoint dir is non-empty without
///   [`SensitivityOptions::resume`].
/// - [`MeasureError::WorkerPanic`] when a probe panics.
/// - [`MeasureError::NonFiniteBaseLoss`] when `L(w)` is non-finite.
pub fn estimate_sensitivities(
    network: &mut Network,
    set: &DataSplit,
    bits: &BitWidthSet,
    options: &EstimatorOptions,
) -> Result<EstimatedOmega, MeasureError> {
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
    let plan = EstimationPlan::new(&ctx, options.kind, options.probe_budget);
    let swept = run_plan_in_process(network, set, &ctx, &plan, measure)?;
    let estimated = EstimatedOmega {
        matrix: swept.matrix,
        observed: swept.observed,
        probes_spent: swept.planned,
        full_sweep_probes: ctx.total_probes(),
    };
    measure
        .telemetry
        .counter("estim.probes_spent")
        .add(estimated.probes_spent as u64);
    measure
        .telemetry
        .set_gauge("estim.probe_fraction", estimated.probe_fraction());
    Ok(estimated)
}
