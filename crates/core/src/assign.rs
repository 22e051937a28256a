//! Bit-width assignment: from a sensitivity matrix to the IQP of eq. (11)
//! and back to per-layer bit-widths.

use crate::sensitivity::SensitivityMatrix;
use clado_quant::{BitWidth, BitWidthSet, LayerSizes};
use clado_solver::{IqpError, IqpProblem, Solution, SolverConfig, SymMatrix};
use clado_telemetry::Telemetry;
use std::fmt;

/// Strict-mode ceiling on `clipped_mass / total_mass` of the PSD
/// projection: beyond this, most of the measured spectrum was projection
/// artefact and the objective is rejected as
/// [`IqpError::DegenerateObjective`].
const MAX_CLIP_MASS_RATIO: f64 = 0.5;

/// Which sensitivity structure to optimize over — the paper's method and
/// its two structural ablations.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum CladoVariant {
    /// Full CLADO: all pairwise cross-layer terms.
    #[default]
    Full,
    /// CLADO\*: cross-layer terms removed (Table 1 ablation).
    DiagonalOnly,
    /// BRECQ-style: intra-block interactions only (Fig. 6 ablation);
    /// carries the per-layer block ids.
    BlockOnly(Vec<usize>),
}

/// Options for [`assign_bits`].
#[derive(Debug, Clone, Default)]
pub struct AssignOptions {
    /// Structural variant.
    pub variant: CladoVariant,
    /// Apply the PSD approximation to Ĝ before solving (the paper's
    /// default; disabling reproduces the Fig. 7 ablation).
    pub skip_psd: bool,
    /// IQP solver configuration. Set its `telemetry` field too to record
    /// solver node/prune counters.
    pub solver: SolverConfig,
    /// Strict Ω hardening (`--solver-strict`): reject non-finite entries
    /// and spectra the PSD projection would mostly discard, instead of the
    /// default repair-and-continue (zero unusable cross terms).
    pub strict: bool,
    /// Telemetry sink for the assignment phase (PSD projection span and
    /// eigenvalue-clip counters).
    pub telemetry: Telemetry,
}

/// A solved per-layer bit-width assignment.
#[derive(Debug, Clone)]
pub struct BitAssignment {
    /// Chosen bit-width per layer, in layer order.
    pub bits: Vec<BitWidth>,
    /// Predicted loss increase `αᵀĜα` under the (possibly projected)
    /// objective matrix used by the solver.
    pub predicted_delta_loss: f64,
    /// Total weight cost in bits.
    pub cost_bits: u64,
    /// Raw solver solution (node counts, optimality proof).
    pub solution: Solution,
}

impl BitAssignment {
    /// Mean bits per weight of the assignment.
    pub fn avg_bits(&self, sizes: &LayerSizes) -> f64 {
        clado_quant::avg_bits(self.cost_bits, sizes.total_params())
    }

    /// Compact bit map like `[8 4 4 2 …]`.
    pub fn bitmap(&self) -> String {
        let parts: Vec<String> = self.bits.iter().map(|b| b.bits().to_string()).collect();
        format!("[{}]", parts.join(" "))
    }
}

impl fmt::Display for BitAssignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (cost {} bits, predicted ΔL {:.4})",
            self.bitmap(),
            self.cost_bits,
            self.predicted_delta_loss
        )
    }
}

/// Builds the eq. (11) IQP from a sensitivity matrix and solves it.
///
/// `budget_bits` is `C_target` in bits (`Σ |w⁽ⁱ⁾| · b⁽ⁱ⁾ ≤ C_target`).
///
/// # Errors
///
/// Returns [`IqpError`] if the instance is inconsistent or infeasible.
pub fn assign_bits(
    sens: &SensitivityMatrix,
    sizes: &LayerSizes,
    budget_bits: u64,
    options: &AssignOptions,
) -> Result<BitAssignment, IqpError> {
    let _span = options.telemetry.span("assign");
    let matrix = match &options.variant {
        CladoVariant::Full => sens.matrix().clone(),
        CladoVariant::DiagonalOnly => sens.diagonal_only(),
        CladoVariant::BlockOnly(blocks) => sens.block_masked(blocks),
    };
    // Harden before the eigendecomposition: a NaN that slipped past the
    // measurement-time quarantine would otherwise corrupt every eigenvalue
    // sweep. Lenient mode zeroes unusable cross terms (rejecting only a
    // non-finite diagonal); strict mode rejects every defect typed.
    let (matrix, report) = clado_solver::harden(&matrix, options.strict)?;
    options.telemetry.add(
        "assign.omega.repaired_non_finite",
        report.repaired_non_finite as u64,
    );
    let matrix = if options.skip_psd {
        matrix
    } else {
        let _s = options.telemetry.span("assign.psd_project");
        let proj = matrix.psd_project_stats();
        options
            .telemetry
            .add("assign.psd_clipped_eigenvalues", proj.clipped as u64);
        options
            .telemetry
            .add("assign.eigen_sweeps", proj.sweeps as u64);
        options
            .telemetry
            .set_gauge("assign.psd_clip_mass", proj.clipped_mass);
        let clip_mass_ratio = if proj.total_mass > 0.0 {
            proj.clipped_mass / proj.total_mass
        } else {
            0.0
        };
        options
            .telemetry
            .set_gauge("assign.psd_clip_mass_ratio", clip_mass_ratio);
        options
            .telemetry
            .set_gauge("assign.psd_min_eigenvalue", proj.min_eigenvalue);
        options
            .telemetry
            .set_gauge("assign.psd_condition", proj.condition);
        if options.strict && clip_mass_ratio > MAX_CLIP_MASS_RATIO {
            return Err(IqpError::DegenerateObjective { clip_mass_ratio });
        }
        proj.matrix
    };
    solve_with_matrix(&matrix, sens.bits(), sizes, budget_bits, &options.solver)
}

/// Solves eq. (11) for an explicit objective matrix (used by the separable
/// baselines, which build their own diagonal Ĝ).
///
/// # Errors
///
/// Returns [`IqpError`] if the instance is inconsistent or infeasible.
pub fn solve_with_matrix(
    matrix: &SymMatrix,
    bits: &BitWidthSet,
    sizes: &LayerSizes,
    budget_bits: u64,
    solver: &SolverConfig,
) -> Result<BitAssignment, IqpError> {
    let _span = solver.telemetry.span("assign.solve");
    let num_layers = sizes.num_layers();
    let k = bits.len();
    let group_sizes = vec![k; num_layers];
    let mut costs = Vec::with_capacity(num_layers * k);
    for i in 0..num_layers {
        for b in bits.iter() {
            costs.push(sizes.params(i) as u64 * b.bits() as u64);
        }
    }
    let problem = IqpProblem::new(matrix.clone(), &group_sizes, costs, budget_bits)?;
    // The solver routes separable (diagonal) objectives — the
    // HAWQ/MPQCO/CLADO* path — to the exact multiple-choice-knapsack DP,
    // and everything else to warm-started branch and bound.
    let solution = problem.solve(solver)?;
    let chosen: Vec<BitWidth> = solution.choices.iter().map(|&m| bits.get(m)).collect();
    Ok(BitAssignment {
        cost_bits: solution.cost,
        predicted_delta_loss: solution.objective,
        bits: chosen,
        solution,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::eval_loss;
    use crate::sensitivity::{measure_sensitivities, SensitivityOptions};
    use clado_models::{SynthVision, SynthVisionConfig};
    use clado_nn::{Conv2d, GlobalAvgPool, Linear, Network, Sequential};
    use clado_tensor::Conv2dSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Network, SynthVision) {
        let mut rng = StdRng::seed_from_u64(21);
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
            train: 64,
            val: 32,
            seed: 31,
            noise: 0.2,
            label_noise: 0.0,
        });
        (net, data)
    }

    #[test]
    fn assignment_respects_budget_and_prefers_more_bits_with_slack() {
        let (mut net, data) = setup();
        let set = data.train.subset(&(0..24).collect::<Vec<_>>());
        let bits = BitWidthSet::standard();
        let sm = measure_sensitivities(&mut net, &set, &bits, &SensitivityOptions::default())
            .expect("measure");
        let sizes = LayerSizes::new(net.layer_param_counts());

        // Generous budget: the solution must fit and be at least as good as
        // the all-8-bit reference under the solver's own objective. (It need
        // not BE all-8-bit: measured sensitivities can be slightly negative,
        // so quantizing a robust layer may genuinely reduce the objective.)
        let budget = sizes.uniform_bits(BitWidth::of(8));
        let a = assign_bits(&sm, &sizes, budget, &AssignOptions::default()).unwrap();
        assert!(a.cost_bits <= budget);
        let all8 = vec![bits.len() - 1; sizes.num_layers()];
        let psd = sm.psd_projected();
        let reference =
            solve_with_matrix(&psd, &bits, &sizes, budget, &Default::default()).unwrap();
        let mut alpha = vec![0.0f64; psd.dim()];
        for (i, &m) in all8.iter().enumerate() {
            alpha[i * bits.len() + m] = 1.0;
        }
        let all8_obj = psd.quadratic_form(&alpha);
        assert!(
            reference.predicted_delta_loss <= all8_obj + 1e-9,
            "solver objective {} worse than all-8 {all8_obj}",
            reference.predicted_delta_loss
        );

        // Tight budget: must fit.
        let tight = sizes.budget_from_avg_bits(3.0);
        let a = assign_bits(&sm, &sizes, tight, &AssignOptions::default()).unwrap();
        assert!(a.cost_bits <= tight);
        assert!(a.bits.iter().any(|b| b.bits() < 8));
    }

    #[test]
    fn predicted_delta_loss_tracks_measured_loss_increase() {
        // The IQP objective (pre-PSD, full matrix) on an assignment should
        // approximate 2·(L(quantized) − L(base)) reasonably for moderate
        // perturbations.
        let (mut net, data) = setup();
        let set = data.train.subset(&(0..32).collect::<Vec<_>>());
        let bits = BitWidthSet::standard();
        let opts = SensitivityOptions::default();
        let sm = measure_sensitivities(&mut net, &set, &bits, &opts).expect("measure");
        let sizes = LayerSizes::new(net.layer_param_counts());
        let budget = sizes.budget_from_avg_bits(5.0);
        let a = assign_bits(
            &sm,
            &sizes,
            budget,
            &AssignOptions {
                skip_psd: true,
                ..Default::default()
            },
        )
        .unwrap();

        // Measure the true loss increase at that assignment.
        let base = eval_loss(&mut net, &set, 32);
        let snapshot = crate::probe::apply_quantization(&mut net, &a.bits, opts.scheme);
        let l = eval_loss(&mut net, &set, 32);
        net.restore_weights(&snapshot);
        let measured = 2.0 * (l - base);
        // Same sign and same order of magnitude.
        assert!(
            (a.predicted_delta_loss - measured).abs() < 0.5 * measured.abs().max(0.05),
            "predicted {} vs measured {measured}",
            a.predicted_delta_loss
        );
    }

    #[test]
    fn diagonal_variant_ignores_cross_terms() {
        let (mut net, data) = setup();
        let set = data.train.subset(&(0..16).collect::<Vec<_>>());
        let bits = BitWidthSet::standard();
        let sm = measure_sensitivities(&mut net, &set, &bits, &SensitivityOptions::default())
            .expect("measure");
        let sizes = LayerSizes::new(net.layer_param_counts());
        let budget = sizes.budget_from_avg_bits(4.0);
        let full = assign_bits(&sm, &sizes, budget, &AssignOptions::default()).unwrap();
        let diag = assign_bits(
            &sm,
            &sizes,
            budget,
            &AssignOptions {
                variant: CladoVariant::DiagonalOnly,
                ..Default::default()
            },
        )
        .unwrap();
        // Both feasible; objectives may differ.
        assert!(full.cost_bits <= budget && diag.cost_bits <= budget);
    }

    #[test]
    fn infeasible_budget_errors() {
        let (mut net, data) = setup();
        let set = data.train.subset(&(0..8).collect::<Vec<_>>());
        let bits = BitWidthSet::standard();
        let sm = measure_sensitivities(&mut net, &set, &bits, &SensitivityOptions::default())
            .expect("measure");
        let sizes = LayerSizes::new(net.layer_param_counts());
        let impossible = sizes.budget_from_avg_bits(1.0); // below 2-bit minimum
        let err = assign_bits(&sm, &sizes, impossible, &AssignOptions::default()).unwrap_err();
        assert!(matches!(err, IqpError::Infeasible { .. }));
    }

    #[test]
    fn poisoned_cross_term_is_repaired_leniently_and_rejected_strictly() {
        let bits = BitWidthSet::standard();
        let n = 2 * bits.len();
        let mut g = SymMatrix::zeros(n);
        for i in 0..n {
            g.set(i, i, 0.1);
        }
        g.set(1, 4, f64::NAN);
        let sm =
            crate::sensitivity::SensitivityMatrix::from_parts(g, 2, bits, 0.5, Default::default());
        let sizes = LayerSizes::new(vec![10, 10]);

        // Default (lenient) hardening zeroes the unusable cross term and
        // records the repair, so assignment still succeeds.
        let telemetry = Telemetry::new();
        let a = assign_bits(
            &sm,
            &sizes,
            u64::MAX,
            &AssignOptions {
                telemetry: telemetry.clone(),
                ..Default::default()
            },
        )
        .expect("lenient hardening repairs the poisoned cross term");
        assert!(a.predicted_delta_loss.is_finite());
        assert_eq!(
            telemetry.counter_value("assign.omega.repaired_non_finite"),
            2, // both mirrored triangles of the SymMatrix entry
        );

        // Strict hardening rejects it typed, before the eigensolver.
        let err = assign_bits(
            &sm,
            &sizes,
            u64::MAX,
            &AssignOptions {
                strict: true,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(
            matches!(err, IqpError::NonFiniteObjective { row: 1, col: 4, .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn poisoned_diagonal_is_rejected_in_both_modes() {
        let bits = BitWidthSet::standard();
        let n = 2 * bits.len();
        let mut g = SymMatrix::zeros(n);
        for i in 0..n {
            g.set(i, i, 0.1);
        }
        g.set(3, 3, f64::INFINITY);
        let sm =
            crate::sensitivity::SensitivityMatrix::from_parts(g, 2, bits, 0.5, Default::default());
        let sizes = LayerSizes::new(vec![10, 10]);
        for strict in [false, true] {
            let err = assign_bits(
                &sm,
                &sizes,
                u64::MAX,
                &AssignOptions {
                    strict,
                    ..Default::default()
                },
            )
            .unwrap_err();
            assert!(
                matches!(err, IqpError::NonFiniteObjective { row: 3, col: 3, .. }),
                "strict={strict}: got {err:?}"
            );
        }
    }

    #[test]
    fn psd_projection_records_clip_mass_gauge() {
        let (mut net, data) = setup();
        let set = data.train.subset(&(0..16).collect::<Vec<_>>());
        let bits = BitWidthSet::standard();
        let sm = measure_sensitivities(&mut net, &set, &bits, &SensitivityOptions::default())
            .expect("measure");
        let sizes = LayerSizes::new(net.layer_param_counts());
        let telemetry = Telemetry::new();
        let budget = sizes.budget_from_avg_bits(4.0);
        assign_bits(
            &sm,
            &sizes,
            budget,
            &AssignOptions {
                telemetry: telemetry.clone(),
                ..Default::default()
            },
        )
        .unwrap();
        let mass = telemetry
            .gauge_value("assign.psd_clip_mass")
            .expect("gauge recorded");
        assert!(mass >= 0.0 && mass.is_finite(), "clip mass {mass}");
    }

    #[test]
    fn bitmap_format() {
        let a = BitAssignment {
            bits: vec![BitWidth::of(8), BitWidth::of(2)],
            predicted_delta_loss: 0.0,
            cost_bits: 10,
            solution: Solution {
                choices: vec![2, 0],
                objective: 0.0,
                cost: 10,
                proved_optimal: true,
                nodes_explored: 0,
                gap: 0.0,
                method_used: clado_solver::MethodUsed::DynamicProgramming,
                termination: clado_solver::Termination::Proved,
                downgrades: vec![],
            },
        };
        assert_eq!(a.bitmap(), "[8 2]");
    }
}
