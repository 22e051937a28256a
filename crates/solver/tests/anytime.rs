//! Property tests for the anytime solve path: under every configuration
//! (the default, node caps of 0 and 1, an expired deadline, a preset
//! cancel) the solve returns a feasible assignment whose objective is
//! within the reported gap of the exhaustive optimum, on quadratic and on
//! separable instances, and a pre-raised cancel returns the greedy warm
//! start instead of erroring.

use clado_solver::{IqpProblem, MethodUsed, SolverConfig, SymMatrix, Termination};
use proptest::prelude::*;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// The default, node caps of 0 and 1, an expired deadline, and a preset
/// cancel.
fn configs() -> Vec<(&'static str, SolverConfig)> {
    let cancelled = SolverConfig::default();
    cancelled.cancel.store(true, Ordering::Relaxed);
    vec![
        ("default", SolverConfig::default()),
        (
            "max_nodes=0",
            SolverConfig {
                max_nodes: 0,
                ..Default::default()
            },
        ),
        (
            "max_nodes=1",
            SolverConfig {
                max_nodes: 1,
                ..Default::default()
            },
        ),
        (
            "max_wall=0",
            SolverConfig {
                max_wall: Some(Duration::ZERO),
                ..Default::default()
            },
        ),
        ("cancelled", cancelled),
    ]
}

/// Raw material for a small random instance: group count, group size, the
/// upper-triangle entries of G, per-variable costs, and the budget as a
/// percentage of the feasible cost range (0 = tightest, 100 = uncapped).
fn raw_instance() -> impl Strategy<Value = (usize, usize, Vec<f64>, Vec<u64>, u8)> {
    (2usize..=4, 2usize..=3).prop_flat_map(|(k, s)| {
        let n = k * s;
        (
            Just(k),
            Just(s),
            prop::collection::vec(-1.0f64..1.0, n * (n + 1) / 2),
            prop::collection::vec(1u64..50, n),
            0u8..=100,
        )
    })
}

/// Builds the instance; `separable` zeroes every cross-layer block.
fn build(
    k: usize,
    s: usize,
    tri: &[f64],
    costs: Vec<u64>,
    budget_pct: u8,
    separable: bool,
) -> IqpProblem {
    let n = k * s;
    let mut g = SymMatrix::zeros(n);
    let mut it = tri.iter();
    for i in 0..n {
        for j in i..n {
            let scale = if i == j {
                1.0
            } else if separable && i / s != j / s {
                0.0
            } else {
                0.3
            };
            g.set(i, j, it.next().expect("triangle sized to fit") * scale);
        }
    }
    let group_cost = |i: usize, agg: fn(u64, u64) -> u64, init: u64| {
        (0..s).map(|m| costs[i * s + m]).fold(init, agg)
    };
    let min_total: u64 = (0..k).map(|i| group_cost(i, u64::min, u64::MAX)).sum();
    let max_total: u64 = (0..k).map(|i| group_cost(i, u64::max, 0)).sum();
    let budget = min_total + (max_total - min_total) * budget_pct as u64 / 100;
    IqpProblem::new(g, &vec![s; k], costs, budget).expect("budget ≥ min_total by construction")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_config_is_feasible_and_within_its_reported_gap(
        (k, s, tri, costs, pct) in raw_instance()
    ) {
        for separable in [false, true] {
            let p = build(k, s, &tri, costs.clone(), pct, separable);
            let optimum = p.solve_exhaustive();
            prop_assert!(optimum.proved_optimal);
            for (name, config) in configs() {
                let sol = p.solve(&config).unwrap();
                prop_assert!(p.is_feasible(&sol.choices), "{name} infeasible");
                prop_assert!(
                    sol.gap.is_finite() && sol.gap >= 0.0,
                    "{name}: bad gap {}",
                    sol.gap
                );
                // The reported gap must cover the distance to the optimum:
                // objective − gap is a valid lower bound.
                prop_assert!(
                    sol.objective - sol.gap <= optimum.objective + 1e-9,
                    "{name}: objective {} − gap {} exceeds optimum {}",
                    sol.objective,
                    sol.gap,
                    optimum.objective
                );
                prop_assert!(sol.downgrades.len() <= 1, "{name}: {:?}", sol.downgrades);
                prop_assert_eq!(sol.proved_optimal, sol.termination == Termination::Proved);
                if sol.proved_optimal {
                    prop_assert!(
                        (sol.objective - optimum.objective).abs() < 1e-9,
                        "{name} claims proof at {} but optimum is {}",
                        sol.objective,
                        optimum.objective
                    );
                    prop_assert_eq!(sol.gap, 0.0);
                }
            }
        }
    }

    #[test]
    fn preset_cancel_degrades_to_the_warm_start_without_error(
        (k, s, tri, costs, pct) in raw_instance()
    ) {
        for separable in [false, true] {
            let p = build(k, s, &tri, costs.clone(), pct, separable);
            let warm = p.warm_start();
            prop_assert!(p.is_feasible(&warm.choices));
            let config = SolverConfig::default();
            config.cancel.store(true, Ordering::Relaxed);
            let sol = p.solve(&config).expect("cancel must degrade, not error");
            prop_assert_eq!(&sol.choices, &warm.choices);
            prop_assert_eq!(sol.termination, Termination::Cancelled);
            prop_assert_eq!(sol.method_used, MethodUsed::Greedy);
            prop_assert_eq!(sol.downgrades.len(), 1);
        }
    }

    #[test]
    fn expired_deadlines_are_deterministic(
        (k, s, tri, costs, pct) in raw_instance()
    ) {
        let p = build(k, s, &tri, costs, pct, false);
        let solve = || {
            p.solve(&SolverConfig {
                max_wall: Some(Duration::ZERO),
                ..Default::default()
            })
            .unwrap()
        };
        let a = solve();
        let b = solve();
        prop_assert_eq!(&a.choices, &b.choices);
        prop_assert!(p.is_feasible(&a.choices));
        prop_assert_eq!(a.termination, Termination::DeadlineExceeded);
        prop_assert!(a.gap.is_finite() && a.gap >= 0.0);
    }
}
