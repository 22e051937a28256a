//! The estimation entry point: budgeted Ω measurement behind the
//! [`OmegaEstimator`] trait, with CLSJ journaling, resume, and the same
//! threaded fan-out as the exact sweep.

use crate::complete::complete_partial;
use crate::planner::{mandatory_probes, resolve_budget, ProbePlanner};
use crate::EstimatorKind;
use clado_core::journal::{self, ProbeId, ProbeRecord};
use clado_core::{
    estimator_config_fingerprint, eval_loss, hawq_sensitivities, replica_map_checked,
    resolve_threads, BaselineOptions, MeasureError, OmegaProvenance, SensitivityMatrix,
    SensitivityOptions, SensitivityStats, ShardContext, ShardRunStats, ShardSpec,
};
use clado_models::DataSplit;
use clado_nn::Network;
use clado_quant::BitWidthSet;
use clado_solver::ObservedMask;
use std::collections::HashMap;
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

/// A sub-quadratic Ω estimator.
///
/// The four implementations are stateless unit structs; all run
/// configuration lives in [`EstimatorOptions`] (whose `kind` field is
/// overridden by the implementation, so a `Box<dyn OmegaEstimator>` from
/// [`estimator_for`] always runs its own algorithm).
pub trait OmegaEstimator {
    /// The kind this estimator implements.
    fn kind(&self) -> EstimatorKind;

    /// Runs the estimation on `network` against `set`.
    ///
    /// # Errors
    ///
    /// Propagates [`MeasureError`] from the underlying probe engine and
    /// journal (see [`estimate_sensitivities`]).
    fn estimate(
        &self,
        network: &mut Network,
        set: &DataSplit,
        bits: &BitWidthSet,
        options: &EstimatorOptions,
    ) -> Result<EstimatedOmega, MeasureError> {
        let mut options = options.clone();
        options.kind = self.kind();
        estimate_sensitivities(network, set, bits, &options)
    }
}

/// Sketched low-rank recovery (see [`EstimatorKind::Sketched`]).
pub struct SketchedEstimator;
/// Adaptive confidence-interval sampling (see [`EstimatorKind::Adaptive`]).
pub struct AdaptiveEstimator;
/// Block-diagonal + top-k cross terms (see [`EstimatorKind::BlockTopK`]).
pub struct BlockTopKEstimator;
/// Hutchinson diagonal-only estimation (see
/// [`EstimatorKind::Hutchinson`]).
pub struct HutchinsonEstimator;

impl OmegaEstimator for SketchedEstimator {
    fn kind(&self) -> EstimatorKind {
        EstimatorKind::Sketched
    }
}
impl OmegaEstimator for AdaptiveEstimator {
    fn kind(&self) -> EstimatorKind {
        EstimatorKind::Adaptive
    }
}
impl OmegaEstimator for BlockTopKEstimator {
    fn kind(&self) -> EstimatorKind {
        EstimatorKind::BlockTopK
    }
}
impl OmegaEstimator for HutchinsonEstimator {
    fn kind(&self) -> EstimatorKind {
        EstimatorKind::Hutchinson
    }
}

/// The probe budget a grid estimation run actually spends for a
/// `requested` budget under `ctx`'s grid: `0` resolves to 25% of the
/// full sweep, and any request is floored at the mandatory
/// base+diagonal probes and capped at the full sweep.
pub fn resolved_probe_budget(ctx: &ShardContext, requested: usize) -> usize {
    let mandatory = mandatory_probes(ctx.num_layers(), ctx.bits().len());
    resolve_budget(requested, ctx.total_probes(), mandatory)
}

/// The journal/handshake fingerprint of a grid estimation run: the
/// measurement configuration fingerprint folded with the estimator tag,
/// the **resolved** probe budget, and the selection seed. Distributed
/// coordinators and workers must agree on this exact value for an
/// estimation sweep to hand out leases — and it is what
/// [`estimate_sensitivities`] stamps on the CLSJ journal, so a
/// single-process checkpoint can be finished by a cluster and vice
/// versa.
pub fn estimation_fingerprint(
    ctx: &ShardContext,
    kind: EstimatorKind,
    requested_budget: usize,
    seed: u64,
) -> u64 {
    estimator_config_fingerprint(
        ctx.fingerprint(),
        kind.tag(),
        resolved_probe_budget(ctx, requested_budget) as u64,
        seed,
    )
}

/// The estimator implementing `kind`.
pub fn estimator_for(kind: EstimatorKind) -> Box<dyn OmegaEstimator> {
    match kind {
        EstimatorKind::Sketched => Box::new(SketchedEstimator),
        EstimatorKind::Adaptive => Box::new(AdaptiveEstimator),
        EstimatorKind::BlockTopK => Box::new(BlockTopKEstimator),
        EstimatorKind::Hutchinson => Box::new(HutchinsonEstimator),
    }
}

/// Estimates Ω under a probe budget — the budgeted analogue of
/// [`clado_core::measure_sensitivities`].
///
/// Grid estimators (sketched, adaptive, blocktopk) measure the base and
/// diagonal probes exactly, select pair probes deterministically from
/// the seed/budget/diagonal values ([`ProbePlanner`]), fan the pair
/// shards out over [`SensitivityOptions::threads`] worker replicas, and
/// complete the partial matrix. The result is bitwise identical for any
/// thread count and across resumes, and the CLSJ journal (stamped with
/// [`estimator_config_fingerprint`]) makes the sweep crash-safe exactly
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
    let start = Instant::now();
    let telemetry = options.measure.telemetry.clone();
    let _span = telemetry.span("estim.measure");
    let ctx = ShardContext::new(
        network,
        set.len(),
        bits,
        options.measure.scheme,
        options.measure.batch_size,
        options.measure.use_prefix_cache,
    );
    let num_layers = ctx.num_layers();
    let k = bits.len();
    let full_sweep = ctx.total_probes();
    let mandatory = mandatory_probes(num_layers, k);
    let budget = resolve_budget(options.probe_budget, full_sweep, mandatory);

    // The estimator fingerprint binds the journal to the estimator kind,
    // budget, and seed on top of the measurement configuration — a
    // sketched checkpoint can never resume an exact sweep's journal, or
    // another estimator's, or its own under a different budget.
    let fp = estimator_config_fingerprint(
        ctx.fingerprint(),
        options.kind.tag(),
        budget as u64,
        options.seed,
    );
    let (state, mut writer) = journal::open_checkpoint(
        options.measure.checkpoint_dir.as_deref(),
        fp,
        options.measure.resume,
    )?;
    let resume_records = state.records;

    // Base + diagonal pass (serial — O(|𝔹|I) and needed before any pair
    // probe can be planned) and the deterministic pair selection.
    let (planner, fresh_mandatory, mut run_stats) = ProbePlanner::build(
        &ctx,
        network,
        set,
        &telemetry,
        options.kind,
        budget,
        options.seed,
        &resume_records,
    )?;
    if let Some(w) = writer.as_mut() {
        for shard in &fresh_mandatory {
            w.commit_records(shard)?;
        }
    }
    let fresh_count: usize = fresh_mandatory.iter().map(Vec::len).sum();
    let mut resumed = mandatory - fresh_count;

    let mut records: HashMap<ProbeId, ProbeRecord> = HashMap::new();
    for rec in planner.mandatory_records() {
        records.insert(rec.id, rec);
    }

    // A pair shard is complete iff any of its records is journaled: CLSJ
    // shard commits are atomic (corrupt shards are dropped wholly), and
    // the planner journals each shard's selection in one commit.
    let mut pending: Vec<ShardSpec> = Vec::new();
    for outer in 0..num_layers.saturating_sub(1) as u32 {
        let done = resume_records
            .keys()
            .any(|id| matches!(id, ProbeId::Pair { layer_i, .. } if *layer_i == outer));
        if done {
            for (id, rec) in &resume_records {
                if matches!(id, ProbeId::Pair { layer_i, .. } if *layer_i == outer) {
                    records.insert(*id, *rec);
                    resumed += 1;
                }
            }
        } else {
            pending.push(ShardSpec::Pair { outer });
        }
    }

    let threads = resolve_threads(options.measure.threads);
    let planner_ref = &planner;
    let ctx_ref = &ctx;
    let telemetry_ref = &telemetry;
    let (outs, panic_retries): (Vec<(Vec<ProbeRecord>, ShardRunStats)>, u64) = replica_map_checked(
        network,
        threads,
        &pending,
        options.measure.retries,
        |net, &spec| planner_ref.run_shard(ctx_ref, net, set, spec, telemetry_ref),
        |_, (recs, _)| match writer.as_mut() {
            Some(w) => w.commit_records(recs).map_err(MeasureError::from),
            None => Ok(()),
        },
    )?;
    for (recs, s) in &outs {
        run_stats += *s;
        for rec in recs {
            records.insert(rec.id, *rec);
        }
    }

    let assembly = ctx.assemble_partial(&records)?;
    let completed = complete_partial(
        options.kind,
        &assembly.g,
        &assembly.observed,
        options.rank,
        options.als_iters,
        options.seed,
    );
    let probes_spent = planner.planned_probes();
    telemetry
        .counter("estim.probes_spent")
        .add(probes_spent as u64);
    telemetry.set_gauge(
        "estim.probe_fraction",
        probes_spent as f64 / full_sweep as f64,
    );
    let stats = SensitivityStats {
        evaluations: (run_stats.full_evals + run_stats.cache_hits) as usize,
        seconds: start.elapsed().as_secs_f64(),
        threads_used: threads,
        prefix_cache_builds: run_stats.cache_builds as usize,
        prefix_cache_hits: run_stats.cache_hits as usize,
        full_evals: run_stats.full_evals as usize,
        resumed,
        retried: run_stats.retried as usize + panic_retries as usize,
        quarantined: assembly.quarantined,
        provenance: OmegaProvenance::estimated(options.kind.tag(), budget as u64, options.seed),
    };
    let matrix = SensitivityMatrix::from_parts(
        completed,
        num_layers,
        bits.clone(),
        assembly.base_loss,
        stats,
    );
    Ok(EstimatedOmega {
        matrix,
        observed: assembly.observed,
        probes_spent,
        full_sweep_probes: full_sweep,
    })
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
    telemetry
        .counter("estim.probes_spent")
        .add(probes_spent as u64);
    telemetry.set_gauge(
        "estim.probe_fraction",
        probes_spent as f64 / full_sweep as f64,
    );
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
    let matrix =
        SensitivityMatrix::from_parts(completed, num_layers, bits.clone(), base_loss, stats);
    Ok(EstimatedOmega {
        matrix,
        observed,
        probes_spent,
        full_sweep_probes: full_sweep,
    })
}
