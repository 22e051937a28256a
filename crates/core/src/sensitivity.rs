//! Algorithm 1: backpropagation-free measurement of the sensitivity matrix Ĝ.
//!
//! Layer-specific entries use eq. (12): `Ω_ii(m) ≈ 2(L(w+Δw_m⁽ⁱ⁾) − L(w))`.
//! Cross-layer entries use eq. (13):
//! `Ω_ij(m,n) ≈ L(w+Δw_m⁽ⁱ⁾+Δw_n⁽ʲ⁾) + L(w) − L(w+Δw_m⁽ⁱ⁾) − L(w+Δw_n⁽ʲ⁾)`.
//!
//! (The paper's Algorithm 1 pseudocode subtracts `0.5·Ĝ_diag` terms, which
//! expands to an extra `+2L(w)`; we implement eq. (13), the mathematically
//! consistent form the derivation produces.)
//!
//! The paper budgets `½·|𝔹|I(|𝔹|I+1)` forward evaluations. This
//! implementation is slightly cheaper: same-layer pairs with different
//! bit-widths `(i,m)–(i,n)` are never co-active under the one-hot
//! constraint, so their `I·C(|𝔹|,2)` measurements are skipped —
//! `1 + |𝔹|I + ½|𝔹|²I(I−1)` evaluations in total.
//!
//! # Fault tolerance
//!
//! Each probe is an independent, idempotent work unit identified by a
//! [`ProbeId`]. With [`SensitivityOptions::checkpoint_dir`] set, every
//! completed probe is journaled (atomically-committed CLSJ shards, one per
//! work item; see [`crate::journal`]); a later run with
//! [`SensitivityOptions::resume`] reloads the journal, skips completed
//! probes, and — because losses are stored bit-exactly — produces the
//! bitwise-identical matrix an uninterrupted run would have. A probe
//! panic is caught per item and fails the sweep with a typed error once
//! every other item is journaled; a non-finite loss is quarantined (the
//! affected cross-term degrades to the diagonal-only estimate, i.e. the
//! Ω entry is zeroed) instead of poisoning the IQP objective. Neither is
//! rerun: every probe is deterministic, so a rerun could only fail again.

use crate::engine::resolve_threads;
use crate::errors::MeasureError;
use crate::probe::PROBE_BATCH;
use crate::shard::ShardContext;
use crate::sweep::run_plan_in_process;
use clado_models::DataSplit;
use clado_nn::Network;
use clado_quant::{BitWidthSet, QuantScheme};
use clado_solver::SymMatrix;
use clado_telemetry::Telemetry;
use std::fmt;
use std::path::PathBuf;

/// Options controlling sensitivity measurement.
#[derive(Debug, Clone)]
pub struct SensitivityOptions {
    /// Quantization scheme used to produce the Δw perturbations.
    pub scheme: QuantScheme,
    /// Probe batch size.
    pub batch_size: usize,
    /// Print coarse progress to stderr.
    pub verbose: bool,
    /// Worker threads for the measurement fan-out; `0` means all
    /// available cores. The result is bitwise identical for any value.
    pub threads: usize,
    /// Reuse cached prefix activations so each probe re-runs only the
    /// suffix from its layer's stage, and batch pair probes on a cache
    /// advanced past the outer perturbation (exact — see
    /// [`crate::advance_prefix_cache`]; disable only for measurement A/B
    /// testing).
    pub use_prefix_cache: bool,
    /// Telemetry sink for spans, counters, and progress. The default
    /// (disabled) handle records nothing; measured values are bitwise
    /// identical either way (test-enforced).
    pub telemetry: Telemetry,
    /// Directory for the crash-safe probe journal. `None` (the default)
    /// disables checkpointing entirely.
    pub checkpoint_dir: Option<PathBuf>,
    /// Resume from an existing journal in
    /// [`SensitivityOptions::checkpoint_dir`], skipping completed probes.
    /// Without this flag a non-empty checkpoint directory is an error
    /// (so two runs cannot silently interleave journals).
    pub resume: bool,
}

impl Default for SensitivityOptions {
    fn default() -> Self {
        Self {
            scheme: QuantScheme::PerTensorSymmetric,
            batch_size: PROBE_BATCH,
            verbose: false,
            threads: 0,
            use_prefix_cache: true,
            telemetry: Telemetry::disabled(),
            checkpoint_dir: None,
            resume: false,
        }
    }
}

/// How an Ω matrix was produced: the exact full sweep (the default) or
/// one of the `clado-estim` sub-quadratic estimators.
///
/// Stored in the CLSM v4 stats block and folded into the dist/serve wire
/// formats, so the tag values are part of those formats; do not renumber.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OmegaProvenance {
    /// Estimator tag (see the `TAG_*` constants); `0` means the exact
    /// full sweep.
    pub estimator: u8,
    /// Probe budget the estimator was given (`0` for exact).
    pub probe_budget: u64,
    /// Estimator seed (`0` for exact). Estimators no longer read a seed;
    /// estimated Ω records `clado_estim::DEFAULT_ESTIMATOR_SEED`.
    pub seed: u64,
}

impl OmegaProvenance {
    /// Tag of the exact full sweep.
    pub const TAG_EXACT: u8 = 0;
    /// Tag of the retired sketched low-rank recovery estimator. Nothing
    /// writes it any more; it stays so older `.clsm` files still load
    /// and name their provenance.
    pub const TAG_SKETCHED: u8 = 1;
    /// Tag of the retired adaptive-sampling estimator. Nothing writes it
    /// any more; it stays so older `.clsm` files still load and name
    /// their provenance.
    pub const TAG_ADAPTIVE: u8 = 2;
    /// Tag of the block-diagonal + top-k cross-term estimator.
    pub const TAG_BLOCK_TOPK: u8 = 3;
    /// Tag of the retired Hutchinson diagonal estimator. Nothing writes
    /// it any more; it stays so older `.clsm` files still load and name
    /// their provenance.
    pub const TAG_HUTCHINSON: u8 = 4;

    /// Provenance of an exact full sweep.
    pub fn exact() -> Self {
        Self::default()
    }

    /// Provenance of an estimated Ω.
    pub fn estimated(estimator: u8, probe_budget: u64, seed: u64) -> Self {
        Self {
            estimator,
            probe_budget,
            seed,
        }
    }

    /// Whether this Ω came from the exact full sweep.
    pub fn is_exact(&self) -> bool {
        self.estimator == Self::TAG_EXACT
    }

    /// Human-readable estimator name for the tag (the CLI spelling).
    pub fn estimator_name(&self) -> &'static str {
        match self.estimator {
            Self::TAG_EXACT => "exact",
            Self::TAG_SKETCHED => "sketched",
            Self::TAG_ADAPTIVE => "adaptive",
            Self::TAG_BLOCK_TOPK => "blocktopk",
            Self::TAG_HUTCHINSON => "hutchinson",
            _ => "unknown",
        }
    }
}

impl fmt::Display for OmegaProvenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_exact() {
            write!(f, "exact")
        } else {
            write!(
                f,
                "{} (budget {}, seed {})",
                self.estimator_name(),
                self.probe_budget,
                self.seed
            )
        }
    }
}

/// Measurement statistics (the paper's runtime discussion, §5.2).
#[derive(Debug, Clone, Copy, Default)]
pub struct SensitivityStats {
    /// Number of network evaluations on the sensitivity set (full or
    /// suffix-only; always `prefix_cache_hits + full_evals`).
    pub evaluations: usize,
    /// Wall-clock measurement time in seconds.
    pub seconds: f64,
    /// Worker threads the measurement actually ran on.
    pub threads_used: usize,
    /// Prefix-activation caches built (one prefix forward per build).
    pub prefix_cache_builds: usize,
    /// Evaluations that ran only the suffix on cached activations.
    pub prefix_cache_hits: usize,
    /// Evaluations that ran the full forward pass.
    pub full_evals: usize,
    /// Probes restored from the checkpoint journal instead of being
    /// re-evaluated.
    pub resumed: usize,
    /// Probes whose loss was non-finite; their Ω entries
    /// degrade to zero instead of poisoning the IQP objective.
    pub quarantined: usize,
    /// How this Ω was produced (exact sweep or estimator name/budget/seed).
    pub provenance: OmegaProvenance,
}

/// The measured sensitivity matrix Ĝ plus its provenance.
#[derive(Debug, Clone)]
pub struct SensitivityMatrix {
    g: SymMatrix,
    num_layers: usize,
    bits: BitWidthSet,
    /// Loss of the unperturbed model on the sensitivity set, `L(w)`.
    pub base_loss: f64,
    /// Measurement statistics.
    pub stats: SensitivityStats,
}

impl SensitivityMatrix {
    /// Reassembles a matrix from its serialized parts (see
    /// [`crate::load_sensitivities`]).
    ///
    /// # Panics
    ///
    /// Panics if `g`'s dimension is not `num_layers · |bits|`.
    pub fn from_parts(
        g: SymMatrix,
        num_layers: usize,
        bits: BitWidthSet,
        base_loss: f64,
        stats: SensitivityStats,
    ) -> Self {
        assert_eq!(
            g.dim(),
            num_layers * bits.len(),
            "matrix dimension mismatch"
        );
        Self {
            g,
            num_layers,
            bits,
            base_loss,
            stats,
        }
    }

    /// The raw (pre-PSD) matrix.
    pub fn matrix(&self) -> &SymMatrix {
        &self.g
    }

    /// Number of layers `I`.
    pub fn num_layers(&self) -> usize {
        self.num_layers
    }

    /// The bit-width candidate set 𝔹.
    pub fn bits(&self) -> &BitWidthSet {
        &self.bits
    }

    /// Flat variable index of `(layer, bit_index)`: `|𝔹|·i + m`.
    pub fn var(&self, layer: usize, bit_index: usize) -> usize {
        layer * self.bits.len() + bit_index
    }

    /// The layer-specific sensitivity `Ω_ii(m, m)`.
    pub fn layer_sensitivity(&self, layer: usize, bit_index: usize) -> f64 {
        let v = self.var(layer, bit_index);
        self.g.get(v, v)
    }

    /// The cross-layer sensitivity `Ω_ij(m, n)`.
    pub fn cross_sensitivity(
        &self,
        layer_i: usize,
        bit_m: usize,
        layer_j: usize,
        bit_n: usize,
    ) -> f64 {
        self.g
            .get(self.var(layer_i, bit_m), self.var(layer_j, bit_n))
    }

    /// PSD projection of Ĝ (the paper's preprocessing before the IQP).
    pub fn psd_projected(&self) -> SymMatrix {
        self.g.psd_project()
    }

    /// A copy of Ĝ with all cross-layer blocks zeroed — the CLADO\*
    /// ablation (Table 1).
    pub fn diagonal_only(&self) -> SymMatrix {
        let mut out = SymMatrix::zeros(self.g.dim());
        let k = self.bits.len();
        for i in 0..self.num_layers {
            for m in 0..k {
                for n in 0..k {
                    let (u, v) = (i * k + m, i * k + n);
                    out.set(u, v, self.g.get(u, v));
                }
            }
        }
        out
    }

    /// A copy of Ĝ keeping intra-block interactions only — the BRECQ-style
    /// ablation (Fig. 6). `blocks[i]` is the block id of layer `i`.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` length differs from the layer count.
    pub fn block_masked(&self, blocks: &[usize]) -> SymMatrix {
        assert_eq!(blocks.len(), self.num_layers, "block id per layer required");
        let mut out = SymMatrix::zeros(self.g.dim());
        let k = self.bits.len();
        for i in 0..self.num_layers {
            for j in 0..self.num_layers {
                if blocks[i] != blocks[j] && i != j {
                    continue;
                }
                for m in 0..k {
                    for n in 0..k {
                        let (u, v) = (i * k + m, j * k + n);
                        out.set(u, v, self.g.get(u, v));
                    }
                }
            }
        }
        out
    }
}

/// Runs Algorithm 1 on `network` over the sensitivity set.
///
/// The grid is the exact [`crate::OmegaPlan`] of a [`ShardContext`]: one round
/// holding every shard, run by [`run_plan_in_process`] on
/// [`SensitivityOptions::threads`] workers (`network` and clones of it),
/// which restore every perturbation they apply. With
/// [`SensitivityOptions::use_prefix_cache`] each probe re-runs only the
/// suffix from its layer's stage (for pair probes, from the inner layer's
/// stage on a cache advanced past the outer perturbation).
/// Evaluation-mode forward is pure and the cached paths are bitwise equal
/// to a full forward, and assembly is keyed by [`crate::ProbeId`], so the result
/// is bitwise identical for any thread count, with or without the cache —
/// and, because the journal stores losses bit-exactly, identical whether
/// the run completed in one pass or was resumed any number of times.
///
/// # Errors
///
/// - [`MeasureError::Journal`] when the checkpoint journal cannot be
///   read or written, its fingerprint does not match this measurement
///   configuration, or the directory is non-empty without
///   [`SensitivityOptions::resume`]. Probes journaled before the failure
///   stay on disk.
/// - [`MeasureError::WorkerPanic`] when a probe panics. Every *other*
///   completed shard has already been journaled.
/// - [`MeasureError::NonFiniteBaseLoss`] when `L(w)` is NaN/Inf (no
///   sensitivity entry can be formed without it).
pub fn measure_sensitivities(
    network: &mut Network,
    sens_set: &DataSplit,
    bits: &BitWidthSet,
    options: &SensitivityOptions,
) -> Result<SensitivityMatrix, MeasureError> {
    let _span_measure = options.telemetry.span("measure");
    let ctx = ShardContext::new(
        network,
        sens_set.len(),
        bits,
        options.scheme,
        options.batch_size,
        options.use_prefix_cache,
    );
    if options.verbose {
        eprintln!(
            "sensitivity: {} layers × {} bit-widths on {} threads",
            ctx.num_layers(),
            bits.len(),
            resolve_threads(options.threads)
        );
    }
    let sm = run_plan_in_process(network, sens_set, &ctx, &ctx, options)?.matrix;
    let quarantined = sm.stats.quarantined;
    if options.verbose && quarantined > 0 {
        eprintln!(
            "sensitivity: WARNING {quarantined} probe(s) quarantined (non-finite loss); \
             affected Ω entries degraded to the diagonal-only estimate"
        );
    }
    Ok(sm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::JournalError;
    use crate::probe::eval_loss;
    use clado_models::{SynthVision, SynthVisionConfig};
    use clado_nn::{Conv2d, GlobalAvgPool, Linear, Network, Sequential};
    use clado_tensor::Conv2dSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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

    fn measure(
        net: &mut Network,
        set: &DataSplit,
        bits: &BitWidthSet,
        opts: &SensitivityOptions,
    ) -> SensitivityMatrix {
        measure_sensitivities(net, set, bits, opts).expect("measurement succeeds")
    }

    fn temp_ckpt(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("clado-sens-ckpt-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn measurement_count_matches_paper_formula() {
        let (mut net, data) = setup();
        let bits = BitWidthSet::new(&[2, 8]);
        let set = data.train.subset(&(0..16).collect::<Vec<_>>());
        let sm = measure(&mut net, &set, &bits, &SensitivityOptions::default());
        // 1 base + |B|I diagonal + ½|B|²I(I−1) cross-pair evaluations
        // (same-layer bit pairs are skipped; see the module docs).
        let (b, i) = (2usize, 3usize); // |B| = 2, I = 3 (conv1, conv2, fc)
        assert_eq!(sm.stats.evaluations, 1 + b * i + b * b * i * (i - 1) / 2);
        assert_eq!(sm.num_layers(), 3);
    }

    #[test]
    fn weights_are_restored_after_measurement() {
        let (mut net, data) = setup();
        let before = net.snapshot_weights();
        let set = data.train.subset(&(0..8).collect::<Vec<_>>());
        let _ = measure(
            &mut net,
            &set,
            &BitWidthSet::new(&[2, 8]),
            &SensitivityOptions::default(),
        );
        let after = net.snapshot_weights();
        for (a, b) in before.iter().zip(&after) {
            assert_eq!(a.data(), b.data());
        }
    }

    #[test]
    fn diagonal_is_twice_single_layer_loss_increase() {
        let (mut net, data) = setup();
        let set = data.train.subset(&(0..16).collect::<Vec<_>>());
        let bits = BitWidthSet::new(&[2, 8]);
        let opts = SensitivityOptions::default();
        let sm = measure(&mut net, &set, &bits, &opts);
        // Manually recompute layer 0 @ 2 bits.
        let base = eval_loss(&mut net, &set, opts.batch_size);
        let dw = clado_quant::quant_error(&net.weight(0), bits.get(0), opts.scheme);
        net.perturb_weight(0, &dw);
        let l = eval_loss(&mut net, &set, opts.batch_size);
        let expect = 2.0 * (l - base);
        assert!((sm.layer_sensitivity(0, 0) - expect).abs() < 1e-9);
    }

    #[test]
    fn eight_bit_sensitivities_are_tiny_relative_to_two_bit() {
        let (mut net, data) = setup();
        let set = data.train.subset(&(0..16).collect::<Vec<_>>());
        let bits = BitWidthSet::new(&[2, 8]);
        let sm = measure(&mut net, &set, &bits, &SensitivityOptions::default());
        for i in 0..sm.num_layers() {
            let two = sm.layer_sensitivity(i, 0).abs();
            let eight = sm.layer_sensitivity(i, 1).abs();
            assert!(
                eight <= two + 1e-9,
                "layer {i}: 8-bit {eight} vs 2-bit {two}"
            );
        }
    }

    #[test]
    fn masks_zero_the_right_blocks() {
        let (mut net, data) = setup();
        let set = data.train.subset(&(0..8).collect::<Vec<_>>());
        let bits = BitWidthSet::new(&[2, 8]);
        let sm = measure(&mut net, &set, &bits, &SensitivityOptions::default());
        let diag = sm.diagonal_only();
        // Off-diagonal block between layers 0 and 1 must vanish.
        assert_eq!(diag.get(sm.var(0, 0), sm.var(1, 0)), 0.0);
        // Diagonal block survives.
        assert_eq!(
            diag.get(sm.var(0, 0), sm.var(0, 0)),
            sm.layer_sensitivity(0, 0)
        );

        // Block mask keeping layers 0 and 1 together, layer 2 separate.
        let masked = sm.block_masked(&[0, 0, 1]);
        assert_eq!(
            masked.get(sm.var(0, 0), sm.var(1, 1)),
            sm.cross_sensitivity(0, 0, 1, 1)
        );
        assert_eq!(masked.get(sm.var(0, 0), sm.var(2, 0)), 0.0);
    }

    #[test]
    fn parallel_and_prefix_paths_are_bitwise_identical() {
        let (mut net, data) = setup();
        let set = data.train.subset(&(0..16).collect::<Vec<_>>());
        let bits = BitWidthSet::new(&[2, 8]);
        let naive = SensitivityOptions {
            threads: 1,
            use_prefix_cache: false,
            ..Default::default()
        };
        let reference = measure(&mut net, &set, &bits, &naive);
        for threads in [1, 2, 4] {
            let opts = SensitivityOptions {
                threads,
                use_prefix_cache: true,
                ..Default::default()
            };
            let sm = measure(&mut net, &set, &bits, &opts);
            assert_eq!(
                sm.base_loss.to_bits(),
                reference.base_loss.to_bits(),
                "{threads} threads: base loss drifted"
            );
            assert_eq!(sm.stats.evaluations, reference.stats.evaluations);
            assert_eq!(sm.stats.threads_used, threads);
            let dim = sm.matrix().dim();
            for u in 0..dim {
                for v in u..dim {
                    assert_eq!(
                        sm.matrix().get(u, v).to_bits(),
                        reference.matrix().get(u, v).to_bits(),
                        "{threads} threads: entry ({u},{v}) differs"
                    );
                }
            }
        }
    }

    #[test]
    fn telemetry_never_changes_the_measured_matrix_bitwise() {
        let (mut net, data) = setup();
        let set = data.train.subset(&(0..16).collect::<Vec<_>>());
        let bits = BitWidthSet::new(&[2, 8]);
        let reference = measure(&mut net, &set, &bits, &SensitivityOptions::default());
        for threads in [1, 2, 4] {
            let telemetry = Telemetry::new();
            let opts = SensitivityOptions {
                threads,
                telemetry: telemetry.clone(),
                ..Default::default()
            };
            let sm = measure(&mut net, &set, &bits, &opts);
            assert_eq!(
                sm.base_loss.to_bits(),
                reference.base_loss.to_bits(),
                "{threads} threads: base loss drifted under telemetry"
            );
            let dim = sm.matrix().dim();
            for u in 0..dim {
                for v in u..dim {
                    assert_eq!(
                        sm.matrix().get(u, v).to_bits(),
                        reference.matrix().get(u, v).to_bits(),
                        "{threads} threads: entry ({u},{v}) differs under telemetry"
                    );
                }
            }
            // The counted stats must agree with the telemetry-disabled
            // accounting exactly.
            assert_eq!(sm.stats.evaluations, reference.stats.evaluations);
            assert_eq!(sm.stats.full_evals, reference.stats.full_evals);
            assert_eq!(
                sm.stats.prefix_cache_hits,
                reference.stats.prefix_cache_hits
            );
            assert_eq!(
                sm.stats.prefix_cache_builds,
                reference.stats.prefix_cache_builds
            );
            // And with the registry's own counters.
            assert_eq!(
                telemetry.counter_value("measure.evaluations") as usize,
                sm.stats.evaluations
            );
            assert_eq!(
                telemetry.counter_value("measure.evaluations"),
                telemetry.counter_value("measure.full_evals")
                    + telemetry.counter_value("measure.prefix_cache_hits")
            );
            // No faults fired, so the fault-tolerance counters are zero.
            assert_eq!(telemetry.counter_value("measure.resumed"), 0);
            assert_eq!(telemetry.counter_value("measure.quarantined"), 0);
            // The span tree covers the measurement and every probe kind.
            for path in [
                "measure",
                "measure.base.full_eval",
                "measure.diagonal.full_eval",
                "measure.diagonal.suffix_eval",
                "measure.pairwise.suffix_eval",
            ] {
                assert!(
                    telemetry.span_stats(path).is_some(),
                    "{threads} threads: span {path} missing"
                );
            }
        }
    }

    #[test]
    fn reused_registry_still_yields_per_run_stats() {
        let (mut net, data) = setup();
        let set = data.train.subset(&(0..16).collect::<Vec<_>>());
        let bits = BitWidthSet::new(&[2, 8]);
        let telemetry = Telemetry::new();
        let opts = SensitivityOptions {
            telemetry: telemetry.clone(),
            ..Default::default()
        };
        let first = measure(&mut net, &set, &bits, &opts);
        let second = measure(&mut net, &set, &bits, &opts);
        // Stats are per-run deltas, not cumulative registry totals.
        assert_eq!(second.stats.evaluations, first.stats.evaluations);
        assert_eq!(second.stats.full_evals, first.stats.full_evals);
        // The registry itself accumulated both runs.
        assert_eq!(
            telemetry.counter_value("measure.evaluations") as usize,
            2 * first.stats.evaluations
        );
    }

    #[test]
    fn stats_partition_evaluations_between_suffix_and_full() {
        let (mut net, data) = setup();
        let set = data.train.subset(&(0..16).collect::<Vec<_>>());
        let bits = BitWidthSet::new(&[2, 8]);
        let sm = measure(&mut net, &set, &bits, &SensitivityOptions::default());
        let s = sm.stats;
        assert_eq!(s.evaluations, s.prefix_cache_hits + s.full_evals);
        // Layers sit at stages 0 (conv1), 2 (conv2), 5 (fc). With the
        // prefix cache (the default), only the base eval and conv1's 2 diagonal
        // probes run in full: every pairwise probe — including conv1's,
        // whose stage-0 "prefix" is just the raw inputs — evaluates the
        // suffix from its *inner* layer's stage on an advanced cache.
        // Builds: conv2 + fc diagonal caches plus one pairwise base cache
        // per outer layer (conv1, conv2).
        assert_eq!(s.full_evals, 3);
        assert_eq!(s.prefix_cache_hits, 16);
        assert_eq!(s.prefix_cache_builds, 4);
        assert!(s.threads_used >= 1);
        // No checkpoint, no faults: fault-tolerance stats stay zero.
        assert_eq!(s.resumed, 0);
        assert_eq!(s.quarantined, 0);

        let naive = SensitivityOptions {
            use_prefix_cache: false,
            ..Default::default()
        };
        let sm = measure(&mut net, &set, &bits, &naive);
        assert_eq!(sm.stats.prefix_cache_hits, 0);
        assert_eq!(sm.stats.prefix_cache_builds, 0);
        assert_eq!(sm.stats.full_evals, sm.stats.evaluations);
    }

    #[test]
    fn batched_probes_match_unbatched_bitwise() {
        let (mut net, data) = setup();
        let set = data.train.subset(&(0..16).collect::<Vec<_>>());
        let bits = BitWidthSet::new(&[2, 8]);
        // The reference runs every probe as a full forward.
        let naive = SensitivityOptions {
            use_prefix_cache: false,
            ..Default::default()
        };
        let reference = measure(&mut net, &set, &bits, &naive);

        let telemetry = Telemetry::new();
        let batched = SensitivityOptions {
            telemetry: telemetry.clone(),
            ..Default::default()
        };
        let sm = measure(&mut net, &set, &bits, &batched);
        assert_eq!(sm.base_loss.to_bits(), reference.base_loss.to_bits());
        assert_eq!(sm.stats.evaluations, reference.stats.evaluations);
        let dim = sm.matrix().dim();
        for u in 0..dim {
            for v in u..dim {
                assert_eq!(
                    sm.matrix().get(u, v).to_bits(),
                    reference.matrix().get(u, v).to_bits(),
                    "entry ({u},{v}) differs under batched probes"
                );
            }
        }
        // Advances per outer layer and m-block: conv1 crosses two stage
        // boundaries (→conv2, →fc), conv2 one (→fc); ×2 bit-widths.
        assert_eq!(telemetry.counter_value("measure.prefix_cache_advances"), 6);
        assert!(telemetry
            .span_stats("measure.pairwise.prefix_advance")
            .is_some());

        // Disabling the prefix cache disables batching with it.
        let telemetry = Telemetry::new();
        let naive = SensitivityOptions {
            telemetry: telemetry.clone(),
            ..naive
        };
        let sm = measure(&mut net, &set, &bits, &naive);
        assert_eq!(sm.base_loss.to_bits(), reference.base_loss.to_bits());
        assert_eq!(telemetry.counter_value("measure.prefix_cache_advances"), 0);
    }

    #[test]
    fn pairwise_entries_match_eq13_manual_recomputation() {
        let (mut net, data) = setup();
        let set = data.train.subset(&(0..16).collect::<Vec<_>>());
        let bits = BitWidthSet::new(&[2, 8]);
        let opts = SensitivityOptions::default();
        let sm = measure(&mut net, &set, &bits, &opts);

        let base = eval_loss(&mut net, &set, opts.batch_size);
        let w0 = net.weight(0);
        let w1 = net.weight(1);
        let d0 = clado_quant::quant_error(&w0, bits.get(0), opts.scheme);
        let d1 = clado_quant::quant_error(&w1, bits.get(0), opts.scheme);
        net.perturb_weight(0, &d0);
        let l0 = eval_loss(&mut net, &set, opts.batch_size);
        net.set_weight(0, &w0);
        net.perturb_weight(1, &d1);
        let l1 = eval_loss(&mut net, &set, opts.batch_size);
        net.set_weight(1, &w1);
        net.perturb_weight(0, &d0);
        net.perturb_weight(1, &d1);
        let l01 = eval_loss(&mut net, &set, opts.batch_size);
        let expect = l01 + base - l0 - l1;
        assert!(
            (sm.cross_sensitivity(0, 0, 1, 0) - expect).abs() < 1e-9,
            "{} vs {expect}",
            sm.cross_sensitivity(0, 0, 1, 0)
        );
    }

    #[test]
    fn checkpointed_run_matches_uncheckpointed_bitwise() {
        let (mut net, data) = setup();
        let set = data.train.subset(&(0..16).collect::<Vec<_>>());
        let bits = BitWidthSet::new(&[2, 8]);
        let reference = measure(&mut net, &set, &bits, &SensitivityOptions::default());

        let dir = temp_ckpt("clean");
        let opts = SensitivityOptions {
            checkpoint_dir: Some(dir.clone()),
            ..Default::default()
        };
        let sm = measure(&mut net, &set, &bits, &opts);
        assert_eq!(sm.base_loss.to_bits(), reference.base_loss.to_bits());
        assert_eq!(sm.stats.evaluations, reference.stats.evaluations);
        assert_eq!(sm.stats.resumed, 0);
        let dim = sm.matrix().dim();
        for u in 0..dim {
            for v in u..dim {
                assert_eq!(
                    sm.matrix().get(u, v).to_bits(),
                    reference.matrix().get(u, v).to_bits(),
                    "entry ({u},{v}) differs under checkpointing"
                );
            }
        }

        // Resuming a *complete* journal re-evaluates nothing and still
        // reproduces the matrix bit for bit.
        let resumed = measure(
            &mut net,
            &set,
            &bits,
            &SensitivityOptions {
                checkpoint_dir: Some(dir.clone()),
                resume: true,
                ..Default::default()
            },
        );
        assert_eq!(resumed.stats.evaluations, 0, "all probes came from disk");
        assert_eq!(
            resumed.stats.resumed, reference.stats.evaluations,
            "every probe (incl. base) was resumed"
        );
        assert_eq!(resumed.base_loss.to_bits(), reference.base_loss.to_bits());
        for u in 0..dim {
            for v in u..dim {
                assert_eq!(
                    resumed.matrix().get(u, v).to_bits(),
                    reference.matrix().get(u, v).to_bits(),
                    "entry ({u},{v}) differs after resume"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn non_empty_checkpoint_dir_without_resume_is_rejected() {
        let (mut net, data) = setup();
        let set = data.train.subset(&(0..8).collect::<Vec<_>>());
        let bits = BitWidthSet::new(&[2, 8]);
        let dir = temp_ckpt("notempty");
        let opts = SensitivityOptions {
            checkpoint_dir: Some(dir.clone()),
            ..Default::default()
        };
        let _ = measure(&mut net, &set, &bits, &opts);
        let err = measure_sensitivities(&mut net, &set, &bits, &opts)
            .expect_err("a populated checkpoint dir without --resume must be rejected");
        assert!(
            matches!(err, MeasureError::Journal(JournalError::NotEmpty { .. })),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_under_a_different_configuration_is_rejected() {
        let (mut net, data) = setup();
        let set = data.train.subset(&(0..8).collect::<Vec<_>>());
        let dir = temp_ckpt("configmismatch");
        let opts = SensitivityOptions {
            checkpoint_dir: Some(dir.clone()),
            ..Default::default()
        };
        let _ = measure(&mut net, &set, &BitWidthSet::new(&[2, 8]), &opts);
        let err = measure_sensitivities(
            &mut net,
            &set,
            &BitWidthSet::new(&[4, 8]),
            &SensitivityOptions {
                checkpoint_dir: Some(dir.clone()),
                resume: true,
                ..Default::default()
            },
        )
        .expect_err("resuming with different bit-widths must be rejected");
        assert!(
            matches!(
                err,
                MeasureError::Journal(JournalError::ConfigMismatch { .. })
            ),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
