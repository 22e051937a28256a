//! Canonical shard decomposition of the sensitivity probe grid, and the
//! one probe executor that evaluates it.
//!
//! [`crate::run_plan`] sweeps the grid on threads or, through
//! `clado-dist`, across worker processes. Every path agrees on one
//! canonical decomposition into *shards* — the unit of leasing,
//! journaling, and reassignment:
//!
//! * [`ShardSpec::Base`] — the single unperturbed evaluation `L(w)`;
//! * [`ShardSpec::Diag`]`{ layer: i }` — all `|𝔹|` diagonal probes of
//!   layer `i` (eq. 12);
//! * [`ShardSpec::Pair`]`{ outer: i }` — all `|𝔹|²(I−1−i)` cross-layer
//!   probes whose outer layer is `i` (eq. 13).
//!
//! A plan may sweep a subset of a shard's probes; every path runs them
//! through [`ShardContext::run_probes`], so CLSJ journals written by any
//! path resume interchangeably: a sweep checkpointed by a single process
//! can be finished by a distributed sweep and vice versa, bit for bit.
//! `ShardContext` is itself the exact sweep's [`OmegaPlan`].
//!
//! # Determinism
//!
//! [`ShardContext::run_probes`] probes a replica at the pristine weights
//! and restores every perturbation it applies, the evaluation-mode
//! forward is pure, and the prefix-cached and advanced-cache paths are
//! bitwise equal to a full forward (all test-enforced). Because every
//! probe is keyed by its [`ProbeId`], [`OmegaPlan::assemble`] rebuilds
//! Ω from any execution order — whichever thread or worker evaluated
//! whichever shard, however many times leases were evicted and
//! reassigned — and the result is bitwise identical.

use crate::errors::MeasureError;
use crate::journal::{fingerprint, ProbeId, ProbeRecord};
use crate::probe::{
    advance_prefix_cache, build_prefix_cache, eval_loss, eval_loss_from, quant_error_table,
    roll_prefix_cache, PrefixCache,
};
use crate::sensitivity::{SensitivityMatrix, SensitivityStats};
use crate::sweep::{OmegaPlan, Records, Round};
use clado_models::DataSplit;
use clado_nn::Network;
use clado_quant::{BitWidthSet, QuantScheme};
use clado_solver::{ObservedMask, SymMatrix};
use clado_telemetry::{faultpoint, with_panic_context, Telemetry};
use clado_tensor::Tensor;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// One leasable unit of the probe grid (see the module docs for the
/// canonical decomposition).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShardSpec {
    /// The unperturbed base evaluation `L(w)`.
    Base,
    /// All diagonal probes of one layer.
    Diag {
        /// The probed layer index.
        layer: u32,
    },
    /// All cross-layer probes with one fixed outer layer.
    Pair {
        /// The outer layer index `i` (inner layers are `i+1..I`).
        outer: u32,
    },
}

impl fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Base => write!(f, "base"),
            Self::Diag { layer } => write!(f, "diag({layer})"),
            Self::Pair { outer } => write!(f, "pair({outer})"),
        }
    }
}

/// The journal/handshake fingerprint of one measurement configuration.
///
/// Binds a CLSJ checkpoint directory — and, in distributed runs, a
/// worker's locally-reconstructed job — to one measurement
/// configuration, so probes measured under different bits, scheme, data,
/// or batch size can never silently mix. The field order is part of the
/// on-disk CLSJ format; do not reorder.
pub fn config_fingerprint(
    num_layers: usize,
    bits: &BitWidthSet,
    scheme: QuantScheme,
    set_len: usize,
    batch_size: usize,
) -> u64 {
    let mut fields: Vec<u64> = vec![
        num_layers as u64,
        bits.len() as u64,
        scheme as u64,
        set_len as u64,
        batch_size as u64,
    ];
    fields.extend((0..bits.len()).map(|m| u64::from(bits.get(m).bits())));
    fingerprint(&fields)
}

/// The journal/handshake fingerprint of one *estimation* configuration.
///
/// An estimated Ω journal must never resume an exact sweep's checkpoint
/// (or vice versa), and two estimators — or the same estimator under a
/// different budget or seed — must never share records either: the probe
/// *selection* differs, so the journals describe different grids. The
/// estimator tag, budget, and seed are therefore folded into the base
/// [`config_fingerprint`]. Field order is part of the on-disk CLSJ
/// format; do not reorder.
pub fn estimator_config_fingerprint(base: u64, estimator: u8, probe_budget: u64, seed: u64) -> u64 {
    fingerprint(&[base, u64::from(estimator), probe_budget, seed])
}

/// A partially-assembled Ω: the entries an estimator's probe subset
/// covers, plus the mask saying which those are.
#[derive(Debug, Clone)]
pub struct PartialAssembly {
    /// The assembled matrix; unobserved cross entries are zero.
    pub g: SymMatrix,
    /// Which entries carry a measurement (diagonal and same-layer
    /// entries always do; cross-layer entries only when their pair probe
    /// was evaluated).
    pub observed: ObservedMask,
    /// The unperturbed base loss `L(w)`.
    pub base_loss: f64,
    /// Probe records stored as quarantined (entry degraded to zero).
    pub quarantined: usize,
}

/// Per-shard evaluation statistics, reported by workers and aggregated
/// by the coordinator into [`crate::SensitivityStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShardRunStats {
    /// Evaluations that ran the full forward pass.
    pub full_evals: u64,
    /// Evaluations that ran only the suffix on cached activations.
    pub cache_hits: u64,
    /// Prefix-activation caches built.
    pub cache_builds: u64,
    /// Probes whose loss was non-finite.
    pub quarantined: u64,
    /// Wall-clock time spent evaluating this shard.
    pub seconds: f64,
}

impl std::ops::AddAssign for ShardRunStats {
    fn add_assign(&mut self, other: Self) {
        self.full_evals += other.full_evals;
        self.cache_hits += other.cache_hits;
        self.cache_builds += other.cache_builds;
        self.quarantined += other.quarantined;
        self.seconds += other.seconds;
    }
}

/// The `measure.<pass>.<step>` span names of one measurement pass.
struct ProbeSpans {
    build: &'static str,
    advance: &'static str,
    suffix: &'static str,
    full: &'static str,
}

const BASE_SPANS: ProbeSpans = ProbeSpans {
    build: "measure.base.prefix_build",
    advance: "measure.base.prefix_advance",
    suffix: "measure.base.suffix_eval",
    full: "measure.base.full_eval",
};
const DIAG_SPANS: ProbeSpans = ProbeSpans {
    build: "measure.diagonal.prefix_build",
    advance: "measure.diagonal.prefix_advance",
    suffix: "measure.diagonal.suffix_eval",
    full: "measure.diagonal.full_eval",
};
const PAIR_SPANS: ProbeSpans = ProbeSpans {
    build: "measure.pairwise.prefix_build",
    advance: "measure.pairwise.prefix_advance",
    suffix: "measure.pairwise.suffix_eval",
    full: "measure.pairwise.full_eval",
};

/// What a sweep derives from the pristine model alone: the Δw
/// perturbation table, the pristine weight snapshot and the stage map,
/// under one bit-width set and scheme.
///
/// These depend on the quantizable weights, not on the sensitivity set,
/// so a process that probes the same model for many sets (a pool worker,
/// the serve daemon) builds them once and shares them between its
/// [`ShardContext`]s: [`ModelTables::fits`] checks, by the weights'
/// content ids, that a network still carries the weights the tables were
/// derived from.
pub struct ModelTables {
    deltas: Vec<Vec<Tensor>>,
    originals: Vec<Tensor>,
    stages: Vec<usize>,
    bits: BitWidthSet,
    scheme: QuantScheme,
}

impl ModelTables {
    /// Derives the tables from `network`'s current weights.
    pub fn new(network: &Network, bits: &BitWidthSet, scheme: QuantScheme) -> Self {
        let num_layers = network.quantizable_layers().len();
        Self {
            deltas: quant_error_table(network, bits, scheme),
            stages: (0..num_layers).map(|i| network.stage_of(i)).collect(),
            originals: network.snapshot_weights(),
            bits: bits.clone(),
            scheme,
        }
    }

    /// Whether these tables are the ones [`ModelTables::new`] would
    /// derive from `network` under `bits` and `scheme`: the same
    /// candidate set and scheme, the same stage map, and quantizable
    /// weights with the snapshot's content ids (so bitwise its weights).
    pub fn fits(&self, network: &Network, bits: &BitWidthSet, scheme: QuantScheme) -> bool {
        self.bits == *bits
            && self.scheme == scheme
            && self.stages.len() == network.quantizable_layers().len()
            && self
                .stages
                .iter()
                .enumerate()
                .all(|(i, &stage)| network.stage_of(i) == stage)
            && network
                .weight_ids()
                .into_iter()
                .eq(self.originals.iter().map(Tensor::id))
    }

    /// The tables in `warm` when they [fit](ModelTables::fits) `network`
    /// (and `true`), otherwise new ones, which replace them in `warm`
    /// (and `false`).
    pub fn reuse_or_build(
        warm: &mut Option<Arc<ModelTables>>,
        network: &Network,
        bits: &BitWidthSet,
        scheme: QuantScheme,
    ) -> (Arc<ModelTables>, bool) {
        match warm {
            Some(tables) if tables.fits(network, bits, scheme) => (Arc::clone(tables), true),
            _ => {
                let tables = Arc::new(ModelTables::new(network, bits, scheme));
                (Arc::clone(warm.insert(tables)), false)
            }
        }
    }
}

/// Everything needed to evaluate any shard of one measurement
/// configuration: the [`ModelTables`] and the probe-evaluation options.
///
/// Construction is deterministic, so a coordinator and its workers —
/// each building a `ShardContext` from its own copy of the model —
/// arrive at identical perturbations and identical
/// [`ShardContext::fingerprint`]s.
pub struct ShardContext {
    tables: Arc<ModelTables>,
    batch_size: usize,
    use_prefix_cache: bool,
    set_len: usize,
}

impl ShardContext {
    /// Builds the context from a network positioned at the weights to be
    /// probed. The network is only read; probing happens later on a
    /// replica passed to [`ShardContext::run_shard`].
    pub fn new(
        network: &Network,
        set_len: usize,
        bits: &BitWidthSet,
        scheme: QuantScheme,
        batch_size: usize,
        use_prefix_cache: bool,
    ) -> Self {
        let tables = Arc::new(ModelTables::new(network, bits, scheme));
        Self::with_tables(tables, set_len, batch_size, use_prefix_cache)
    }

    /// [`ShardContext::new`] on tables already derived from the network
    /// to be probed (see [`ModelTables::fits`]).
    pub fn with_tables(
        tables: Arc<ModelTables>,
        set_len: usize,
        batch_size: usize,
        use_prefix_cache: bool,
    ) -> Self {
        Self {
            tables,
            batch_size,
            use_prefix_cache,
            set_len,
        }
    }

    /// The model tables this context probes with.
    pub fn tables(&self) -> &Arc<ModelTables> {
        &self.tables
    }

    /// Number of quantizable layers `I`.
    pub fn num_layers(&self) -> usize {
        self.tables.stages.len()
    }

    /// The bit-width candidate set 𝔹.
    pub fn bits(&self) -> &BitWidthSet {
        &self.tables.bits
    }

    /// The configuration fingerprint (see [`config_fingerprint`]); equal
    /// to the fingerprint [`crate::measure_sensitivities`] stamps on its
    /// CLSJ journal for the same configuration.
    pub fn fingerprint(&self) -> u64 {
        config_fingerprint(
            self.num_layers(),
            self.bits(),
            self.tables.scheme,
            self.set_len,
            self.batch_size,
        )
    }

    /// All shards of the grid in canonical order:
    /// `base, diag(0..I), pair(0..I−1)`.
    pub fn shards(&self) -> Vec<ShardSpec> {
        let i_n = self.num_layers() as u32;
        let mut out = Vec::with_capacity(2 * i_n as usize);
        out.push(ShardSpec::Base);
        out.extend((0..i_n).map(|layer| ShardSpec::Diag { layer }));
        out.extend((0..i_n.saturating_sub(1)).map(|outer| ShardSpec::Pair { outer }));
        out
    }

    /// The probe ids a shard evaluates, in evaluation order.
    pub fn shard_probes(&self, spec: ShardSpec) -> Vec<ProbeId> {
        let k = self.bits().len() as u32;
        let i_n = self.num_layers() as u32;
        match spec {
            ShardSpec::Base => vec![ProbeId::Base],
            ShardSpec::Diag { layer } => (0..k).map(|bit| ProbeId::Diag { layer, bit }).collect(),
            ShardSpec::Pair { outer } => {
                let mut out = Vec::new();
                for bit_m in 0..k {
                    for layer_j in (outer + 1)..i_n {
                        for bit_n in 0..k {
                            out.push(ProbeId::Pair {
                                layer_i: outer,
                                bit_m,
                                layer_j,
                                bit_n,
                            });
                        }
                    }
                }
                out
            }
        }
    }

    /// Total probe count across all shards:
    /// `1 + |𝔹|I + ½|𝔹|²I(I−1)`.
    pub fn total_probes(&self) -> usize {
        let k = self.bits().len();
        let i_n = self.num_layers();
        1 + k * i_n + k * k * i_n * i_n.saturating_sub(1) / 2
    }

    /// Evaluates an explicit probe subset on `net` (a replica at the
    /// pristine weights; restored before returning). This is the one
    /// probe executor: [`ShardContext::run_shard`], the in-process
    /// engine, dist/serve workers and the estimators all run through it.
    ///
    /// Probes keep one pristine prefix cache, of the stage the current
    /// probe resumes from: a switch to a later stage advances it through
    /// the pristine layers in between, a switch back rebuilds it from the
    /// input, so a run of probes in ascending stage order runs each
    /// pristine layer once. They also keep one applied outer perturbation
    /// per run of pair probes sharing an outer `(layer, bit)`, and — for
    /// a pair probe whose inner layer sits in a later stage than its
    /// outer layer — one cache advanced to the inner layer's stage with
    /// the outer perturbation baked in, so each inner probe re-runs only
    /// the suffix from its own stage. The advanced cache is dropped when
    /// the outer perturbation changes and rebuilt from the stage cache
    /// when a later inner layer comes first, so any id order is
    /// *correct*; canonical order (the order
    /// [`ShardContext::shard_probes`] emits) does the least forward work.
    /// Every path is bitwise equal to a full forward (see
    /// [`crate::advance_prefix_cache`]). `cache_builds` counts the stage
    /// switches.
    ///
    /// A probe with a non-finite loss is quarantined, not re-evaluated:
    /// evaluation is deterministic, so a rerun would give the same loss.
    /// Its record stores the canonical NaN and assembly degrades the
    /// affected Ω entries to zero. Work is counted in the returned
    /// [`ShardRunStats`] and in `telemetry`'s `measure.*` counters and
    /// `probe.*` histograms. The `measure.probe_panic` fail point panics
    /// a probe; `measure.probe_nan` poisons its loss.
    pub fn run_probes(
        &self,
        net: &mut Network,
        set: &DataSplit,
        ids: &[ProbeId],
        telemetry: &Telemetry,
    ) -> (Vec<ProbeRecord>, ShardRunStats) {
        let start = Instant::now();
        let h_eval = telemetry.histogram("probe.eval");
        let h_build = telemetry.histogram("probe.prefix_build");
        let tables = &*self.tables;
        let mut stats = ShardRunStats::default();
        let mut advances = 0u64;
        let mut out = Vec::with_capacity(ids.len());
        // Unperturbed activations entering the current stage. Only
        // pristine weights feed them (an applied outer perturbation sits
        // at or past that stage), so they stay valid across perturbation
        // changes and are keyed by stage alone.
        let mut base: Option<PrefixCache> = None;
        // `base` advanced past the applied outer layer's stage with its
        // perturbation in place; valid only while that stays applied.
        let mut advanced: Option<PrefixCache> = None;
        let mut applied: Option<(usize, usize)> = None;
        for &id in ids {
            // The outer perturbation a pair probe shares with its
            // neighbours, and the one perturbation applied per probe.
            let (spans, outer, probed) = match id {
                ProbeId::Base => (&BASE_SPANS, None, None),
                ProbeId::Diag { layer, bit } => {
                    (&DIAG_SPANS, None, Some((layer as usize, bit as usize)))
                }
                ProbeId::Pair {
                    layer_i,
                    bit_m,
                    layer_j,
                    bit_n,
                } => (
                    &PAIR_SPANS,
                    Some((layer_i as usize, bit_m as usize)),
                    Some((layer_j as usize, bit_n as usize)),
                ),
            };
            if applied != outer {
                if let Some((i, _)) = applied {
                    net.set_weight(i, &tables.originals[i]);
                }
                if let Some((i, m)) = outer {
                    net.perturb_weight(i, &tables.deltas[i][m]);
                }
                applied = outer;
                advanced = None;
            }
            // The stage cache the probe needs (`None`: a full forward),
            // and the stage to advance it to first, if any.
            let stages = &tables.stages;
            let (from, advance_to) = match (outer, probed) {
                _ if !self.use_prefix_cache => (None, None),
                (_, None) => (None, None),
                (Some((i, _)), Some((j, _))) if stages[j] > stages[i] => {
                    (Some(stages[i]), Some(stages[j]))
                }
                (Some((i, _)), _) | (None, Some((i, _))) => {
                    ((stages[i] > 0).then_some(stages[i]), None)
                }
            };
            if let Some(stage) = from {
                if base.as_ref().is_none_or(|c| c.stage() != stage) {
                    let _s = telemetry.span_timed(spans.build, &h_build);
                    stats.cache_builds += 1;
                    base = Some(match base.take() {
                        Some(c) if c.stage() < stage => roll_prefix_cache(net, c, stage),
                        old => {
                            drop(old);
                            build_prefix_cache(net, set, self.batch_size, stage)
                        }
                    });
                }
            }
            if let Some(to) = advance_to {
                if advanced.as_ref().is_none_or(|c| c.stage() != to) {
                    let _s = telemetry.span(spans.advance);
                    advances += 1;
                    advanced = Some(match advanced.take() {
                        Some(c) if c.stage() < to => roll_prefix_cache(net, c, to),
                        old => {
                            drop(old);
                            let base = base.as_ref().expect("stage cache built above");
                            advance_prefix_cache(net, base, to)
                        }
                    });
                }
            }
            let cache = if advance_to.is_some() {
                advanced.as_ref()
            } else {
                from.and(base.as_ref())
            };
            if let Some((j, n)) = probed {
                net.perturb_weight(j, &tables.deltas[j][n]);
            }
            // One forward evaluation: the suffix on `cache`, or a full
            // forward without one.
            let loss = with_panic_context(
                || format!("probe {id:?}"),
                || {
                    faultpoint!("measure.probe_panic", {
                        panic!("fault injected: probe panic")
                    });
                    let mut loss = match cache {
                        Some(cache) => {
                            let _s = telemetry.span_timed(spans.suffix, &h_eval);
                            stats.cache_hits += 1;
                            eval_loss_from(net, cache)
                        }
                        None => {
                            let _s = telemetry.span_timed(spans.full, &h_eval);
                            stats.full_evals += 1;
                            eval_loss(net, set, self.batch_size)
                        }
                    };
                    faultpoint!("measure.probe_nan", {
                        loss = f64::NAN;
                    });
                    loss
                },
            );
            if let Some((j, _)) = probed {
                net.set_weight(j, &tables.originals[j]);
            }
            let quarantined = !loss.is_finite();
            stats.quarantined += u64::from(quarantined);
            out.push(ProbeRecord {
                id,
                loss: if quarantined { f64::NAN } else { loss },
                quarantined,
            });
        }
        if let Some((i, _)) = applied {
            net.set_weight(i, &tables.originals[i]);
        }
        stats.seconds = start.elapsed().as_secs_f64();
        for (name, n) in [
            ("measure.evaluations", stats.full_evals + stats.cache_hits),
            ("measure.full_evals", stats.full_evals),
            ("measure.prefix_cache_hits", stats.cache_hits),
            ("measure.prefix_cache_builds", stats.cache_builds),
            ("measure.prefix_cache_advances", advances),
            ("measure.quarantined", stats.quarantined),
        ] {
            telemetry.counter(name).add(n);
        }
        (out, stats)
    }

    /// Evaluates one shard: [`ShardContext::run_probes`] over the
    /// shard's probes in canonical order.
    pub fn run_shard(
        &self,
        net: &mut Network,
        set: &DataSplit,
        spec: ShardSpec,
        telemetry: &Telemetry,
    ) -> (Vec<ProbeRecord>, ShardRunStats) {
        self.run_probes(net, set, &self.shard_probes(spec), telemetry)
    }

    /// Assembles a partially-observed Ω from an estimator's probe subset.
    ///
    /// The base probe and every diagonal probe are mandatory — a
    /// variable's own sensitivity cannot be defaulted, so every estimator
    /// spends budget on all of them. Pair probes are optional: present
    /// records produce cross entries with the exact-path arithmetic (and
    /// quarantine degradation); absent records leave the entry zero and
    /// unobserved in the mask. Same-layer off-diagonal entries are
    /// structurally zero in the exact sweep too, so they count as
    /// observed.
    ///
    /// # Errors
    ///
    /// [`MeasureError::MissingProbes`] when the base or a diagonal probe
    /// has no record; [`MeasureError::NonFiniteBaseLoss`] when the base
    /// record is quarantined.
    pub fn assemble_partial(
        &self,
        records: &HashMap<ProbeId, ProbeRecord>,
    ) -> Result<PartialAssembly, MeasureError> {
        let i_n = self.num_layers();
        let k = self.bits().len();
        let mut missing = 0usize;
        let mut quarantined = 0usize;
        let base_loss = match records.get(&ProbeId::Base) {
            Some(r) => {
                if r.quarantined {
                    quarantined += 1;
                }
                r.loss
            }
            None => {
                missing += 1;
                f64::NAN
            }
        };
        let mut single_loss = vec![vec![f64::NAN; k]; i_n];
        for (i, row) in single_loss.iter_mut().enumerate() {
            for (m, slot) in row.iter_mut().enumerate() {
                let id = ProbeId::Diag {
                    layer: i as u32,
                    bit: m as u32,
                };
                match records.get(&id) {
                    Some(r) => {
                        if r.quarantined {
                            quarantined += 1;
                        }
                        *slot = r.loss;
                    }
                    None => missing += 1,
                }
            }
        }
        if missing > 0 {
            return Err(MeasureError::MissingProbes {
                missing,
                total: 1 + i_n * k,
            });
        }
        if !base_loss.is_finite() {
            return Err(MeasureError::NonFiniteBaseLoss { loss: base_loss });
        }
        let mut g = SymMatrix::zeros(i_n * k);
        let mut observed = ObservedMask::new(i_n * k);
        // Diagonal and same-layer entries are always observed: the former
        // are measured, the latter structurally zero in the exact sweep.
        for i in 0..i_n {
            for m in 0..k {
                for n in m..k {
                    observed.set(i * k + m, i * k + n);
                }
            }
        }
        for i in 0..i_n.saturating_sub(1) {
            for m in 0..k {
                for j in (i + 1)..i_n {
                    for n in 0..k {
                        let id = ProbeId::Pair {
                            layer_i: i as u32,
                            bit_m: m as u32,
                            layer_j: j as u32,
                            bit_n: n as u32,
                        };
                        let Some(r) = records.get(&id) else {
                            continue;
                        };
                        if r.quarantined {
                            quarantined += 1;
                        }
                        let (si, sj) = (single_loss[i][m], single_loss[j][n]);
                        let omega = if r.quarantined || !si.is_finite() || !sj.is_finite() {
                            0.0
                        } else {
                            r.loss + base_loss - si - sj
                        };
                        g.set(i * k + m, j * k + n, omega);
                        observed.set(i * k + m, j * k + n);
                    }
                }
            }
        }
        for (i, row) in single_loss.iter().enumerate() {
            for (m, &loss) in row.iter().enumerate() {
                let v = i * k + m;
                let omega = if loss.is_finite() {
                    2.0 * (loss - base_loss)
                } else {
                    0.0
                };
                g.set(v, v, omega);
            }
        }
        Ok(PartialAssembly {
            g,
            observed,
            base_loss,
            quarantined,
        })
    }
}

/// The exact sweep: one round holding the whole grid, assembled with
/// [`ShardContext::assemble_partial`]'s arithmetic once every probe has a
/// record.
impl OmegaPlan for ShardContext {
    fn fingerprint(&self) -> u64 {
        ShardContext::fingerprint(self)
    }

    fn round(&self, index: usize, _records: &Records) -> Result<Round, MeasureError> {
        let grid = self.shards().into_iter().map(|s| (s, self.shard_probes(s)));
        Ok(if index == 0 {
            grid.collect()
        } else {
            Vec::new()
        })
    }

    fn assemble(
        &self,
        records: &Records,
    ) -> Result<(SensitivityMatrix, ObservedMask), MeasureError> {
        let missing = self
            .shards()
            .into_iter()
            .flat_map(|shard| self.shard_probes(shard))
            .filter(|id| !records.contains_key(id))
            .count();
        if missing > 0 {
            return Err(MeasureError::MissingProbes {
                missing,
                total: self.total_probes(),
            });
        }
        let p = self.assemble_partial(records)?;
        let stats = SensitivityStats {
            quarantined: p.quarantined,
            ..SensitivityStats::default()
        };
        let matrix = SensitivityMatrix::from_parts(
            p.g,
            self.num_layers(),
            self.bits().clone(),
            p.base_loss,
            stats,
        );
        Ok((matrix, p.observed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::load_journal;
    use crate::sensitivity::{measure_sensitivities, SensitivityOptions};
    use clado_models::{SynthVision, SynthVisionConfig};
    use clado_nn::{Conv2d, GlobalAvgPool, Linear, Sequential};
    use clado_tensor::Conv2dSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn setup() -> (Network, SynthVision) {
        let mut rng = StdRng::seed_from_u64(3);
        let net = Network::new(
            Sequential::new()
                .push(
                    "conv1",
                    Conv2d::new(Conv2dSpec::new(3, 6, 3, 1, 1), true, &mut rng),
                )
                .push("relu1", clado_nn::Activation::new(clado_nn::ActKind::Relu))
                .push(
                    "conv2",
                    Conv2d::new(Conv2dSpec::new(6, 6, 3, 1, 1), true, &mut rng),
                )
                .push("relu2", clado_nn::Activation::new(clado_nn::ActKind::Relu))
                .push("pool", GlobalAvgPool::new())
                .push("fc", Linear::new(6, 4, &mut rng)),
            4,
        );
        let data = SynthVision::generate(SynthVisionConfig {
            classes: 4,
            img: 8,
            train: 48,
            val: 32,
            seed: 9,
            noise: 0.2,
            label_noise: 0.0,
        });
        (net, data)
    }

    fn assert_matrix_bitwise(a: &SymMatrix, b: &SymMatrix, label: &str) {
        assert_eq!(a.dim(), b.dim(), "{label}: dimension");
        for u in 0..a.dim() {
            for v in u..a.dim() {
                assert_eq!(
                    a.get(u, v).to_bits(),
                    b.get(u, v).to_bits(),
                    "{label}: entry ({u},{v})"
                );
            }
        }
    }

    #[test]
    fn shards_partition_the_probe_grid_exactly() {
        let (net, data) = setup();
        let bits = BitWidthSet::new(&[2, 8]);
        let set = data.train.subset(&(0..16).collect::<Vec<_>>());
        let ctx = ShardContext::new(
            &net,
            set.len(),
            &bits,
            QuantScheme::PerTensorSymmetric,
            64,
            true,
        );
        let mut seen = HashSet::new();
        for shard in ctx.shards() {
            for id in ctx.shard_probes(shard) {
                assert!(seen.insert(id), "probe {id:?} appears in two shards");
            }
        }
        assert_eq!(seen.len(), ctx.total_probes());
        // I = 3, |B| = 2: 1 + 2·3 + ½·4·3·2 = 19 probes in 2I = 6 shards.
        assert_eq!(ctx.total_probes(), 19);
        assert_eq!(ctx.shards().len(), 6);
    }

    #[test]
    fn shard_runs_reproduce_measure_sensitivities_bitwise() {
        let (mut net, data) = setup();
        let bits = BitWidthSet::new(&[2, 8]);
        let set = data.train.subset(&(0..16).collect::<Vec<_>>());
        let opts = SensitivityOptions::default();
        let reference =
            measure_sensitivities(&mut net, &set, &bits, &opts).expect("reference measurement");

        for use_cache in [true, false] {
            let ctx = ShardContext::new(
                &net,
                set.len(),
                &bits,
                opts.scheme,
                opts.batch_size,
                use_cache,
            );
            let mut replica = net.clone();
            let mut records = HashMap::new();
            let telemetry = Telemetry::disabled();
            for shard in ctx.shards() {
                let (recs, _stats) = ctx.run_shard(&mut replica, &set, shard, &telemetry);
                for r in recs {
                    records.insert(r.id, r);
                }
            }
            let (sm, _) = ctx.assemble(&records).expect("assembly");
            assert_eq!(
                sm.base_loss.to_bits(),
                reference.base_loss.to_bits(),
                "cache={use_cache}: base loss"
            );
            assert_eq!(sm.stats.quarantined, 0);
            assert_matrix_bitwise(sm.matrix(), reference.matrix(), "shard-evaluated grid");
            // The replica's weights were restored after every shard.
            for (a, b) in replica
                .snapshot_weights()
                .iter()
                .zip(net.snapshot_weights())
            {
                assert_eq!(a.data(), b.data(), "cache={use_cache}: weights drifted");
            }
        }
    }

    #[test]
    fn assemble_from_single_process_journal_is_bitwise_identical() {
        let (mut net, data) = setup();
        let bits = BitWidthSet::new(&[2, 8]);
        let set = data.train.subset(&(0..16).collect::<Vec<_>>());
        let dir = std::env::temp_dir().join(format!(
            "clado-shard-journal-interop-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = SensitivityOptions {
            checkpoint_dir: Some(dir.clone()),
            ..Default::default()
        };
        let reference =
            measure_sensitivities(&mut net, &set, &bits, &opts).expect("journaled measurement");

        // The shard fingerprint opens the journal the in-process engine
        // wrote, and assembly over its records reproduces Ω bit for bit —
        // the interop a distributed resume of a single-process checkpoint
        // relies on.
        let ctx = ShardContext::new(&net, set.len(), &bits, opts.scheme, opts.batch_size, true);
        let state = load_journal(&dir, ctx.fingerprint()).expect("journal opens under shard fp");
        assert_eq!(state.records.len(), ctx.total_probes());
        let (sm, _) = ctx.assemble(&state.records).expect("assembly from journal");
        assert_eq!(sm.base_loss.to_bits(), reference.base_loss.to_bits());
        assert_matrix_bitwise(sm.matrix(), reference.matrix(), "journal-assembled grid");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_probes_matches_run_shard_bitwise_on_any_subset() {
        let (net, data) = setup();
        let bits = BitWidthSet::new(&[2, 8]);
        let set = data.train.subset(&(0..16).collect::<Vec<_>>());
        let context = |use_cache| {
            ShardContext::new(
                &net,
                set.len(),
                &bits,
                QuantScheme::PerTensorSymmetric,
                64,
                use_cache,
            )
        };
        let ctx = context(true);
        let telemetry = Telemetry::disabled();
        // The reference runs every probe as a full forward.
        let naive = context(false);
        let mut replica = net.clone();
        let mut reference = HashMap::new();
        for shard in naive.shards() {
            let (recs, _stats) = naive.run_shard(&mut replica, &set, shard, &telemetry);
            for r in recs {
                reference.insert(r.id, r);
            }
        }
        // Full canonical order, a sparse subset skipping every other
        // pair probe, and the grid with each outer block's inner layers
        // in reverse stage order (which rebuilds the advanced cache from
        // the stage cache) all reproduce the full-forward losses bit for
        // bit.
        let all: Vec<ProbeId> = ctx
            .shards()
            .into_iter()
            .flat_map(|s| ctx.shard_probes(s))
            .collect();
        let sparse: Vec<ProbeId> = all
            .iter()
            .enumerate()
            .filter(|(idx, id)| !matches!(id, ProbeId::Pair { .. }) || idx % 2 == 0)
            .map(|(_, &id)| id)
            .collect();
        let mut reversed = all.clone();
        reversed.sort_by_key(|id| match *id {
            ProbeId::Pair {
                layer_i,
                bit_m,
                layer_j,
                bit_n,
            } => (1, layer_i, bit_m, std::cmp::Reverse(layer_j), bit_n),
            _ => (0, 0, 0, std::cmp::Reverse(0), 0),
        });
        assert_ne!(reversed, all);
        for ids in [&all, &sparse, &reversed] {
            let mut replica = net.clone();
            let (recs, _stats) = ctx.run_probes(&mut replica, &set, ids, &telemetry);
            assert_eq!(recs.len(), ids.len());
            for r in &recs {
                let want = reference.get(&r.id).expect("reference record");
                assert_eq!(
                    r.loss.to_bits(),
                    want.loss.to_bits(),
                    "probe {:?} loss drifted",
                    r.id
                );
            }
            for (a, b) in replica
                .snapshot_weights()
                .iter()
                .zip(net.snapshot_weights())
            {
                assert_eq!(a.data(), b.data(), "weights drifted after run_probes");
            }
        }
    }

    #[test]
    fn assemble_partial_matches_assemble_on_full_records() {
        let (net, data) = setup();
        let bits = BitWidthSet::new(&[2, 8]);
        let set = data.train.subset(&(0..16).collect::<Vec<_>>());
        let ctx = ShardContext::new(
            &net,
            set.len(),
            &bits,
            QuantScheme::PerTensorSymmetric,
            64,
            true,
        );
        let telemetry = Telemetry::disabled();
        let mut replica = net.clone();
        let mut records = HashMap::new();
        for shard in ctx.shards() {
            let (recs, _stats) = ctx.run_shard(&mut replica, &set, shard, &telemetry);
            for r in recs {
                records.insert(r.id, r);
            }
        }
        let (sm, _) = ctx.assemble(&records).expect("full assembly");
        let partial = ctx.assemble_partial(&records).expect("partial assembly");
        assert_eq!(partial.base_loss.to_bits(), sm.base_loss.to_bits());
        assert_matrix_bitwise(&partial.g, sm.matrix(), "fully-observed partial assembly");
        assert_eq!(partial.observed.observed(), partial.observed.total());

        // Dropping pair records leaves those entries unobserved (and the
        // matrix zero there) but still assembles.
        let mut sparse = records.clone();
        sparse.retain(|id, _| !matches!(id, ProbeId::Pair { bit_m: 0, .. }));
        let partial = ctx.assemble_partial(&sparse).expect("sparse assembly");
        assert!(partial.observed.observed() < partial.observed.total());
        assert_eq!(partial.observed.first_unobserved_diagonal(), None);

        // Dropping a diagonal record is an error: every estimator must
        // cover the diagonal.
        let mut broken = records.clone();
        broken.remove(&ProbeId::Diag { layer: 1, bit: 0 });
        match ctx.assemble_partial(&broken) {
            Err(MeasureError::MissingProbes { missing, .. }) => assert_eq!(missing, 1),
            other => panic!("expected MissingProbes, got {other:?}"),
        }
    }

    #[test]
    fn assemble_rejects_incomplete_record_maps() {
        let (net, data) = setup();
        let bits = BitWidthSet::new(&[2, 8]);
        let set = data.train.subset(&(0..8).collect::<Vec<_>>());
        let ctx = ShardContext::new(
            &net,
            set.len(),
            &bits,
            QuantScheme::PerTensorSymmetric,
            64,
            true,
        );
        let err = ctx
            .assemble(&HashMap::new())
            .expect_err("empty record map must not assemble");
        match err {
            MeasureError::MissingProbes { missing, total } => {
                assert_eq!(missing, ctx.total_probes());
                assert_eq!(total, ctx.total_probes());
            }
            other => panic!("unexpected error: {other}"),
        }
    }
}
