//! The plan does not depend on the GEMM backend.
//!
//! The SIMD kernels reassociate their sums, so Ω measured on them differs
//! from Ω measured on the scalar reference in the last bits. The solved
//! bit assignment must not. This test measures Ω on the dispatched backend
//! and again with the scalar backend forced, then solves both at several
//! budgets and compares the plans.
//!
//! `force_backend` is process-wide, so this must stay the only test in its
//! binary.

use clado_core::{
    assign_bits, measure_sensitivities, AssignOptions, SensitivityMatrix, SensitivityOptions,
};
use clado_models::{ModelKind, SynthVision, SynthVisionConfig};
use clado_quant::{BitWidthSet, LayerSizes};
use clado_tensor::{active_backend, force_backend, Backend};

/// Ω entries whose bits differ between two measurements of one network.
fn differing_entries(a: &SensitivityMatrix, b: &SensitivityMatrix) -> usize {
    let dim = a.matrix().dim();
    (0..dim)
        .flat_map(|u| (u..dim).map(move |v| (u, v)))
        .filter(|&(u, v)| a.matrix().get(u, v).to_bits() != b.matrix().get(u, v).to_bits())
        .count()
}

#[test]
fn scalar_and_simd_backends_solve_to_the_same_plan() {
    let data = SynthVision::generate(SynthVisionConfig {
        classes: 10,
        img: 16,
        train: 8,
        val: 4,
        seed: 11,
        noise: 0.3,
        label_noise: 0.0,
    });
    let bits = BitWidthSet::new(&[2, 4, 8]);
    let dispatched = active_backend();
    for kind in [ModelKind::ResNet20, ModelKind::ViT] {
        let mut net = kind.build(10, 7);
        let options = SensitivityOptions::default();
        let simd = measure_sensitivities(&mut net, &data.train, &bits, &options).unwrap();
        force_backend(Some(Backend::Scalar));
        let scalar = measure_sensitivities(&mut net, &data.train, &bits, &options).unwrap();
        force_backend(None);
        if dispatched != Backend::Scalar {
            assert!(
                differing_entries(&simd, &scalar) > 0,
                "{kind}: {} and scalar Ω are bitwise equal; the backends were not both exercised",
                dispatched.name()
            );
        }
        let sizes = LayerSizes::new(net.layer_param_counts());
        for avg in [3.0, 4.0, 5.0, 6.0] {
            let budget = sizes.budget_from_avg_bits(avg);
            let solve = |sens: &SensitivityMatrix| {
                assign_bits(sens, &sizes, budget, &AssignOptions::default())
                    .unwrap()
                    .bits
            };
            assert_eq!(
                solve(&simd),
                solve(&scalar),
                "{kind}: {} and scalar plans differ at {avg} average bits",
                dispatched.name()
            );
        }
    }
}
