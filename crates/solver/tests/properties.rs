//! Property-based tests for the eigen/PSD machinery and the IQP solvers.

use clado_solver::{IqpProblem, SolverConfig, SymMatrix};
use proptest::prelude::*;

fn sym_matrix_strategy(n: usize) -> impl Strategy<Value = SymMatrix> {
    prop::collection::vec(-1.0f64..1.0, n * (n + 1) / 2).prop_map(move |upper| {
        let mut m = SymMatrix::zeros(n);
        let mut it = upper.into_iter();
        for i in 0..n {
            for j in i..n {
                m.set(i, j, it.next().expect("sized"));
            }
        }
        m
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A = V Λ Vᵀ reconstruction.
    #[test]
    fn eigen_reconstructs_the_matrix(m in sym_matrix_strategy(5)) {
        let rebuilt = m.eigen().reassemble_with(|e| e);
        for i in 0..5 {
            for j in 0..5 {
                prop_assert!((rebuilt.get(i, j) - m.get(i, j)).abs() < 1e-8);
            }
        }
    }

    /// Eigenvalue sum equals the trace.
    #[test]
    fn eigenvalues_sum_to_trace(m in sym_matrix_strategy(5)) {
        let trace: f64 = (0..5).map(|i| m.get(i, i)).sum();
        let sum: f64 = m.eigen().values.iter().sum();
        prop_assert!((trace - sum).abs() < 1e-8);
    }

    /// PSD projection is idempotent and yields a non-negative quadratic form.
    #[test]
    fn psd_projection_idempotent_and_nonnegative(m in sym_matrix_strategy(5)) {
        let p = m.psd_project();
        prop_assert!(p.min_eigenvalue() > -1e-8);
        let pp = p.psd_project();
        for i in 0..5 {
            for j in 0..5 {
                prop_assert!((pp.get(i, j) - p.get(i, j)).abs() < 1e-7);
            }
        }
        for probe in 0..3 {
            let x: Vec<f64> = (0..5).map(|k| ((k * 7 + probe * 13) % 11) as f64 - 5.0).collect();
            prop_assert!(p.quadratic_form(&x) > -1e-6);
        }
    }

    /// PSD projection never moves the matrix further than the original's
    /// most-negative eigenvalue allows (projection optimality in Frobenius
    /// norm: ‖A − P(A)‖² = Σ min(λ,0)²).
    #[test]
    fn psd_projection_distance_matches_negative_spectrum(m in sym_matrix_strategy(4)) {
        let eig = m.eigen();
        let expect: f64 = eig.values.iter().map(|&e| e.min(0.0).powi(2)).sum::<f64>().sqrt();
        let p = m.psd_project();
        let mut diff2 = 0.0;
        for i in 0..4 {
            for j in 0..4 {
                let d = m.get(i, j) - p.get(i, j);
                diff2 += d * d;
            }
        }
        prop_assert!((diff2.sqrt() - expect).abs() < 1e-7);
    }
}

/// Random small IQP instance: groups of size 2–3 with positive costs.
fn iqp_strategy() -> impl Strategy<Value = (IqpProblem, usize)> {
    (2usize..=5, 0u64..1_000_000).prop_flat_map(|(k, seed)| {
        let sizes = vec![3usize; k];
        let n = 3 * k;
        (
            prop::collection::vec(-0.5f64..0.5, n * (n + 1) / 2),
            prop::collection::vec(1u64..50, n),
            Just((k, seed, sizes)),
        )
            .prop_map(|(upper, costs, (k, _seed, sizes))| {
                let n = 3 * k;
                let mut g = SymMatrix::zeros(n);
                let mut it = upper.into_iter();
                for i in 0..n {
                    for j in i..n {
                        let scale = if i == j { 1.0 } else { 0.3 };
                        g.set(i, j, it.next().expect("sized") * scale);
                    }
                }
                let min_cost: u64 = (0..k)
                    .map(|i| (0..3).map(|m| costs[3 * i + m]).min().expect("3"))
                    .sum();
                let max_cost: u64 = (0..k)
                    .map(|i| (0..3).map(|m| costs[3 * i + m]).max().expect("3"))
                    .sum();
                let budget = min_cost + (max_cost - min_cost) / 2;
                (
                    IqpProblem::new(g, &sizes, costs, budget).expect("feasible by construction"),
                    k,
                )
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Branch-and-bound matches brute force and always fits the budget.
    #[test]
    fn bnb_is_exact_on_random_instances((p, _k) in iqp_strategy()) {
        let ex = p.solve_exhaustive();
        let bb = p.solve(&SolverConfig::default()).expect("feasible");
        prop_assert!(bb.proved_optimal);
        prop_assert!((bb.objective - ex.objective).abs() < 1e-9,
            "bnb {} vs exhaustive {}", bb.objective, ex.objective);
        prop_assert!(bb.cost <= p.budget());
        prop_assert!(p.is_feasible(&bb.choices));
    }
}
