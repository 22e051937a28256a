//! Exact dynamic programming over the diagonal of G.
//!
//! The multiple-choice knapsack DP is the classic solver behind
//! HAWQ-style ILP bit allocation: when no cross-layer terms exist, the
//! objective decomposes per layer and `dp[c] = min objective within cost c`
//! solves the problem exactly in `O(I · |𝔹| · C/gcd)` time.
//!
//! [`knapsack`] itself never inspects the off-diagonal blocks — it always
//! optimizes the diagonal relaxation. The caller (the solve path in
//! `mod.rs`) decides what that means: on a separable instance the result is
//! the proved optimum ([`super::MethodUsed::DynamicProgramming`]); after a
//! node-capped B&B on a non-separable one it is a heuristic whose choices
//! are re-scored on the true quadratic objective
//! ([`super::MethodUsed::DiagonalDp`]).

// Index loops mirror the DP recurrences directly.
#![allow(clippy::needless_range_loop)]

use super::deadline::{Anytime, Stop, Ticker};
use super::IqpProblem;

/// Maximum DP table width (budget units after gcd scaling); larger
/// instances go to branch and bound.
const MAX_CAPACITY: u64 = 4_000_000;

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Returns the largest absolute off-diagonal-block entry (the separability
/// defect). Zero means the instance is exactly separable.
pub(super) fn separability_defect(problem: &IqpProblem) -> f64 {
    let g = problem.matrix();
    let mut defect = 0.0f64;
    for i in 0..problem.num_groups() {
        for j in 0..problem.num_groups() {
            if i == j {
                continue;
            }
            for m in 0..problem.group_size(i) {
                for n in 0..problem.group_size(j) {
                    defect = defect.max(g.get(problem.var(i, m), problem.var(j, n)).abs());
                }
            }
        }
    }
    defect
}

/// Outcome of the knapsack DP.
pub(super) enum DpOutcome {
    /// The diagonal-optimal choices (one candidate index per group).
    Solved(Vec<usize>),
    /// The gcd-scaled budget exceeds [`MAX_CAPACITY`].
    TooLarge,
    /// Stopped by the anytime controls mid-table.
    Stopped(Stop),
}

/// Multiple-choice knapsack DP over the diagonal of G, under the anytime
/// controls in `ctl` (checked on deterministic cell-count boundaries).
pub(super) fn knapsack(problem: &IqpProblem, ctl: &Anytime) -> DpOutcome {
    let k = problem.num_groups();
    // Scale costs by their gcd to shrink the table.
    let mut g = problem.budget();
    for i in 0..k {
        for m in 0..problem.group_size(i) {
            g = gcd(g, problem.cost(i, m));
        }
    }
    let g = g.max(1);
    let capacity = problem.budget() / g;
    if capacity > MAX_CAPACITY {
        return DpOutcome::TooLarge;
    }
    let cap = capacity as usize;
    let mut ticker = Ticker::new(ctl);

    const UNREACHED: f64 = f64::INFINITY;
    let mut dp = vec![UNREACHED; cap + 1];
    dp[0] = 0.0;
    // choice[i][c]: candidate chosen for layer i at cost c (u8 fits |𝔹|≤255).
    let mut choice = vec![vec![u8::MAX; cap + 1]; k];
    let mut reached_cost = 0usize; // max populated cost so far (prefix sums)

    for i in 0..k {
        let mut next = vec![UNREACHED; cap + 1];
        let mut next_reached = 0usize;
        for m in 0..problem.group_size(i) {
            let v = problem.var(i, m);
            let val = problem.matrix().get(v, v);
            let cost = (problem.cost(i, m) / g) as usize;
            if cost > cap {
                continue;
            }
            for c in 0..=reached_cost.min(cap - cost) {
                if let Some(stop) = ticker.tick() {
                    return DpOutcome::Stopped(stop);
                }
                if dp[c] == UNREACHED {
                    continue;
                }
                let nc = c + cost;
                let nv = dp[c] + val;
                if nv < next[nc] {
                    next[nc] = nv;
                    choice[i][nc] = m as u8;
                    next_reached = next_reached.max(nc);
                }
            }
        }
        dp = next;
        reached_cost = next_reached;
    }

    // Best objective over all affordable costs. Construction guarantees
    // `min_total_cost ≤ budget`, and the gcd divides every cost exactly, so
    // at least one cell is reached.
    let (best_cost, _) = dp
        .iter()
        .enumerate()
        .filter(|(_, &v)| v != UNREACHED)
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .expect("a feasible assignment exists after construction");

    // Reconstruct choices backwards.
    let mut choices = vec![0usize; k];
    let mut c = best_cost;
    for i in (0..k).rev() {
        let m = choice[i][c];
        assert_ne!(m, u8::MAX, "reconstruction hit an unreached cell");
        choices[i] = m as usize;
        c -= (problem.cost(i, m as usize) / g) as usize;
    }
    debug_assert_eq!(c, 0);
    DpOutcome::Solved(choices)
}

#[cfg(test)]
mod tests {
    use super::super::{IqpProblem, MethodUsed, SolverConfig};
    use super::*;
    use crate::SymMatrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    fn unconstrained() -> Anytime {
        Anytime::resolve(None, None, Arc::new(AtomicBool::new(false)))
    }

    fn random_separable(seed: u64, k: usize) -> IqpProblem {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 3 * k;
        let mut g = SymMatrix::zeros(n);
        for v in 0..n {
            g.set(v, v, rng.gen_range(-0.2..1.0));
        }
        let costs: Vec<u64> = (0..n)
            .map(|v| ((v % 3) as u64 * 2 + 2) * rng.gen_range(5..40))
            .collect();
        let min_cost: u64 = (0..k)
            .map(|i| (0..3).map(|m| costs[3 * i + m]).min().unwrap())
            .sum();
        let max_cost: u64 = (0..k)
            .map(|i| (0..3).map(|m| costs[3 * i + m]).max().unwrap())
            .sum();
        let budget = min_cost + (max_cost - min_cost) * 3 / 5;
        IqpProblem::new(g, &vec![3; k], costs, budget).expect("feasible")
    }

    #[test]
    fn dp_matches_exhaustive_on_random_separable_instances() {
        for seed in 0..15 {
            let p = random_separable(seed, 5);
            let choices = match knapsack(&p, &unconstrained()) {
                DpOutcome::Solved(c) => c,
                _ => panic!("seed {seed}: unconstrained DP must solve"),
            };
            let objective = p.assignment_objective(&choices);
            let ex = p.solve_exhaustive();
            assert!(
                (objective - ex.objective).abs() < 1e-9,
                "seed {seed}: dp {objective} vs exhaustive {}",
                ex.objective
            );
            assert!(p.assignment_cost(&choices) <= p.budget());
        }
    }

    #[test]
    fn knapsack_optimizes_the_diagonal_only() {
        let mut g = SymMatrix::zeros(4);
        g.set(0, 0, 1.0);
        g.set(2, 2, 1.0);
        g.set(0, 2, -1.5); // cross-layer entry: both cheap is the optimum
        let p = IqpProblem::new(g, &[2, 2], vec![2, 4, 2, 4], 8).unwrap();
        assert!((separability_defect(&p) - 1.5).abs() < 1e-12);
        let choices = match knapsack(&p, &unconstrained()) {
            DpOutcome::Solved(c) => c,
            _ => panic!("unconstrained DP must solve"),
        };
        // The diagonal alone prefers both expensive candidates (objective
        // 0), although both cheap scores −1 on the true objective.
        assert_eq!(choices, vec![1, 1]);
        assert_eq!(p.solve_exhaustive().choices, vec![0, 0]);
    }

    #[test]
    fn solve_takes_the_exact_dp_on_separable_instances() {
        let p = random_separable(99, 6);
        let sol = p.solve(&SolverConfig::default()).unwrap();
        assert!(sol.proved_optimal);
        assert_eq!(sol.method_used, MethodUsed::DynamicProgramming);
        assert!(sol.downgrades.is_empty());
        assert!((sol.objective - p.solve_exhaustive().objective).abs() < 1e-9);
    }

    #[test]
    fn negative_sensitivities_still_fit_the_budget() {
        // All-negative diagonal wants maximum cost everywhere; DP must still
        // respect the knapsack.
        let mut g = SymMatrix::zeros(4);
        for v in 0..4 {
            g.set(v, v, -1.0 - v as f64);
        }
        let p = IqpProblem::new(g, &[2, 2], vec![2, 10, 2, 10], 12).unwrap();
        let choices = match knapsack(&p, &unconstrained()) {
            DpOutcome::Solved(c) => c,
            _ => panic!("unconstrained DP must solve"),
        };
        let cost = p.assignment_cost(&choices);
        assert!(cost <= 12);
        // Best affordable: exactly one expensive choice. Two optima tie at
        // objective −5 ([1,0] and [0,1]); accept either.
        let objective = p.assignment_objective(&choices);
        assert!((objective - (-5.0)).abs() < 1e-12, "{objective}");
        assert_eq!(cost, 12);
    }

    #[test]
    fn preset_cancel_stops_the_table_fill() {
        // gcd 1 and a wide budget force a table with far more than one
        // check-tick's worth of cells, so the first boundary check fires
        // inside the fill.
        let g = SymMatrix::zeros(4);
        let p = IqpProblem::new(g, &[2, 2], vec![1, 3000, 1, 3000], 6000).unwrap();
        let cancel = Arc::new(AtomicBool::new(true));
        let ctl = Anytime::resolve(None, None, cancel);
        match knapsack(&p, &ctl) {
            DpOutcome::Stopped(Stop::Cancelled) => {}
            DpOutcome::Solved(_) => panic!("cancel flag ignored"),
            _ => panic!("unexpected outcome"),
        }
    }
}
