//! Shared experiment runners: one context object that measures each
//! algorithm's sensitivities once and reuses them across budgets — the
//! reuse property the paper highlights for sensitivity-based methods.

use crate::assign::{assign_bits, solve_with_matrix, AssignOptions, BitAssignment, CladoVariant};
use crate::baselines::{hawq_sensitivities, mpqco_sensitivities, BaselineOptions};
use crate::probe::quantized_accuracy;
use crate::sensitivity::{measure_sensitivities, SensitivityMatrix, SensitivityOptions};
use clado_models::DataSplit;
use clado_nn::Network;
use clado_quant::{BitWidthSet, LayerSizes, QuantScheme};
use clado_solver::{IqpError, SolverConfig, SymMatrix};
use clado_telemetry::Telemetry;

/// The MPQ algorithms compared in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Full CLADO (cross-layer dependencies + IQP).
    Clado,
    /// CLADO\*: cross-layer terms removed (Table 1 ablation).
    CladoStar,
    /// BRECQ-style: intra-block interactions only (Fig. 6 ablation).
    BlockClado,
    /// CLADO without the PSD approximation (Fig. 7 ablation).
    CladoNoPsd,
    /// HAWQ-style Hessian-trace baseline.
    Hawq,
    /// MPQCO-style empirical-Fisher baseline.
    Mpqco,
}

impl Algorithm {
    /// The four Table 1 columns.
    pub fn table1() -> [Algorithm; 4] {
        [Self::Hawq, Self::Mpqco, Self::CladoStar, Self::Clado]
    }

    /// `true` for the CLADO variants, which solve over the CLADO Ω (so a
    /// stored one can stand in for the measurement); `false` for the
    /// baselines, which measure their own matrices.
    pub fn is_clado_variant(self) -> bool {
        !matches!(self, Self::Hawq | Self::Mpqco)
    }

    /// Short label used in printed tables.
    pub fn label(self) -> &'static str {
        match self {
            Self::Clado => "CLADO",
            Self::CladoStar => "CLADO*",
            Self::BlockClado => "BLOCK",
            Self::CladoNoPsd => "CLADO-noPSD",
            Self::Hawq => "HAWQ",
            Self::Mpqco => "MPQCO",
        }
    }
}

/// A reusable experiment context for one (model, sensitivity-set) pair.
pub struct ExperimentContext {
    /// The pretrained network under study.
    pub network: Network,
    /// Sensitivity set (small subset of training data).
    pub sens_set: DataSplit,
    /// Validation split for accuracy reporting.
    pub val: DataSplit,
    /// Candidate bit-widths 𝔹.
    pub bits: BitWidthSet,
    /// Quantization scheme.
    pub scheme: QuantScheme,
    /// Per-layer parameter counts.
    pub sizes: LayerSizes,
    blocks: Vec<usize>,
    clado: Option<SensitivityMatrix>,
    hawq: Option<SymMatrix>,
    mpqco: Option<SymMatrix>,
    /// Solver configuration used for every assignment.
    pub solver: SolverConfig,
    /// Strict Ω hardening for every assignment (`--solver-strict`): typed
    /// rejection of damaged sensitivity matrices instead of lenient repair.
    pub solver_strict: bool,
    /// Probe batch size.
    pub batch_size: usize,
    /// Telemetry registry shared by every measurement and solve in this
    /// context. Disabled by default.
    pub telemetry: Telemetry,
}

impl ExperimentContext {
    /// Creates a context. Sensitivities are measured lazily on first use.
    pub fn new(
        network: Network,
        sens_set: DataSplit,
        val: DataSplit,
        bits: BitWidthSet,
        scheme: QuantScheme,
    ) -> Self {
        let sizes = LayerSizes::new(network.layer_param_counts());
        let blocks = network
            .quantizable_layers()
            .iter()
            .map(|l| l.block)
            .collect();
        Self {
            network,
            sens_set,
            val,
            bits,
            scheme,
            sizes,
            blocks,
            clado: None,
            hawq: None,
            mpqco: None,
            solver: SolverConfig::default(),
            solver_strict: false,
            batch_size: crate::probe::PROBE_BATCH,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Uses `sens` as the CLADO sensitivity matrix instead of measuring
    /// one (a stored Ω, as `clado sweep --sens` loads).
    pub fn use_clado_matrix(&mut self, sens: SensitivityMatrix) {
        self.clado = Some(sens);
    }

    /// The CLADO sensitivity matrix, measuring it on first call.
    pub fn clado_matrix(&mut self) -> &SensitivityMatrix {
        if self.clado.is_none() {
            let opts = SensitivityOptions {
                scheme: self.scheme,
                batch_size: self.batch_size,
                telemetry: self.telemetry.clone(),
                ..Default::default()
            };
            self.clado = Some(
                measure_sensitivities(&mut self.network, &self.sens_set, &self.bits, &opts)
                    .expect("sensitivity measurement"),
            );
        }
        self.clado.as_ref().expect("just measured")
    }

    fn baseline_options(&self) -> BaselineOptions {
        BaselineOptions {
            scheme: self.scheme,
            batch_size: self.batch_size,
            telemetry: self.telemetry.clone(),
            ..Default::default()
        }
    }

    fn hawq_matrix(&mut self) -> &SymMatrix {
        if self.hawq.is_none() {
            let opts = self.baseline_options();
            self.hawq = Some(hawq_sensitivities(
                &mut self.network,
                &self.sens_set,
                &self.bits,
                &opts,
            ));
        }
        self.hawq.as_ref().expect("just measured")
    }

    fn mpqco_matrix(&mut self) -> &SymMatrix {
        if self.mpqco.is_none() {
            let opts = self.baseline_options();
            self.mpqco = Some(mpqco_sensitivities(
                &mut self.network,
                &self.sens_set,
                &self.bits,
                &opts,
            ));
        }
        self.mpqco.as_ref().expect("just measured")
    }

    /// Solves the bit assignment for `algorithm` at `budget_bits`.
    ///
    /// # Errors
    ///
    /// Returns [`IqpError`] on infeasible budgets.
    pub fn assign(
        &mut self,
        algorithm: Algorithm,
        budget_bits: u64,
    ) -> Result<BitAssignment, IqpError> {
        let mut solver = self.solver.clone();
        if !solver.telemetry.is_enabled() {
            solver.telemetry = self.telemetry.clone();
        }
        match algorithm {
            Algorithm::Clado
            | Algorithm::CladoStar
            | Algorithm::BlockClado
            | Algorithm::CladoNoPsd => {
                let variant = match algorithm {
                    Algorithm::CladoStar => CladoVariant::DiagonalOnly,
                    Algorithm::BlockClado => CladoVariant::BlockOnly(self.blocks.clone()),
                    _ => CladoVariant::Full,
                };
                let skip_psd = algorithm == Algorithm::CladoNoPsd;
                self.clado_matrix();
                let sens = self.clado.as_ref().expect("measured above");
                let sizes = &self.sizes;
                assign_bits(
                    sens,
                    sizes,
                    budget_bits,
                    &AssignOptions {
                        variant,
                        skip_psd,
                        solver,
                        strict: self.solver_strict,
                        telemetry: self.telemetry.clone(),
                    },
                )
            }
            Algorithm::Hawq => {
                self.hawq_matrix();
                let g = self.hawq.as_ref().expect("measured above").clone();
                solve_with_matrix(&g, &self.bits, &self.sizes, budget_bits, &solver)
            }
            Algorithm::Mpqco => {
                self.mpqco_matrix();
                let g = self.mpqco.as_ref().expect("measured above").clone();
                solve_with_matrix(&g, &self.bits, &self.sizes, budget_bits, &solver)
            }
        }
    }

    /// Validation top-1 accuracy of a PTQ assignment.
    pub fn ptq_accuracy(&mut self, assignment: &BitAssignment) -> f64 {
        quantized_accuracy(&mut self.network, &assignment.bits, self.scheme, &self.val)
    }

    /// Assignment + PTQ accuracy in one call.
    ///
    /// # Errors
    ///
    /// Returns [`IqpError`] on infeasible budgets.
    pub fn run(
        &mut self,
        algorithm: Algorithm,
        budget_bits: u64,
    ) -> Result<(BitAssignment, f64), IqpError> {
        let a = self.assign(algorithm, budget_bits)?;
        let acc = self.ptq_accuracy(&a);
        Ok((a, acc))
    }
}

/// Quartile summary of a sample (Fig. 4's median + quartile bands).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// 25th percentile.
    pub q25: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile.
    pub q75: f64,
}

/// Computes quartiles by linear interpolation.
///
/// # Panics
///
/// Panics if `values` is empty or contains NaN.
pub fn quartiles(values: &[f64]) -> Quartiles {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in sample"));
    let q = |p: f64| -> f64 {
        let pos = p * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    };
    Quartiles {
        q25: q(0.25),
        median: q(0.5),
        q75: q(0.75),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clado_models::{SynthVision, SynthVisionConfig};
    use clado_nn::{Conv2d, GlobalAvgPool, Linear, Sequential};
    use clado_tensor::Conv2dSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn context() -> ExperimentContext {
        let mut rng = StdRng::seed_from_u64(12);
        let net = Network::new(
            Sequential::new()
                .push(
                    "conv1",
                    Conv2d::new(Conv2dSpec::new(3, 6, 3, 1, 1), true, &mut rng),
                )
                .push("relu1", clado_nn::Activation::new(clado_nn::ActKind::Relu))
                .push(
                    "conv2",
                    Conv2d::new(Conv2dSpec::new(6, 8, 3, 2, 1), true, &mut rng),
                )
                .push("relu2", clado_nn::Activation::new(clado_nn::ActKind::Relu))
                .push("pool", GlobalAvgPool::new())
                .push("fc", Linear::new(8, 4, &mut rng)),
            4,
        );
        let data = SynthVision::generate(SynthVisionConfig {
            classes: 4,
            img: 8,
            train: 96,
            val: 48,
            seed: 17,
            noise: 0.2,
            label_noise: 0.0,
        });
        let sens = data.train.sample_subset(24, 1);
        ExperimentContext::new(
            net,
            sens,
            data.val.clone(),
            BitWidthSet::standard(),
            QuantScheme::PerTensorSymmetric,
        )
    }

    #[test]
    fn all_algorithms_produce_feasible_assignments() {
        let mut ctx = context();
        let budget = ctx.sizes.budget_from_avg_bits(4.0);
        for alg in [
            Algorithm::Clado,
            Algorithm::CladoStar,
            Algorithm::BlockClado,
            Algorithm::CladoNoPsd,
            Algorithm::Hawq,
            Algorithm::Mpqco,
        ] {
            let (a, acc) = ctx.run(alg, budget).unwrap();
            assert!(a.cost_bits <= budget, "{alg:?} exceeded budget");
            assert!((0.0..=1.0).contains(&acc), "{alg:?} accuracy {acc}");
        }
    }

    #[test]
    fn sensitivities_are_measured_once_and_reused() {
        let mut ctx = context();
        let b1 = ctx.sizes.budget_from_avg_bits(3.0);
        let b2 = ctx.sizes.budget_from_avg_bits(5.0);
        ctx.run(Algorithm::Clado, b1).unwrap();
        let evals_after_first = ctx.clado_matrix().stats.evaluations;
        ctx.run(Algorithm::Clado, b2).unwrap();
        assert_eq!(ctx.clado_matrix().stats.evaluations, evals_after_first);
    }

    #[test]
    fn quartiles_of_known_sample() {
        let q = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(q.median, 3.0);
        assert_eq!(q.q25, 2.0);
        assert_eq!(q.q75, 4.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn quartiles_reject_empty() {
        quartiles(&[]);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Algorithm::Clado.label(), "CLADO");
        assert_eq!(Algorithm::table1().len(), 4);
    }
}
