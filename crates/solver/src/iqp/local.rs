//! Multi-start local search: greedy construction plus coordinate descent,
//! the warm start of branch and bound.
//!
//! Cost arithmetic note: construction guarantees the worst-case total cost
//! fits in `u64` ([`super::IqpError::CostOverflow`] otherwise), so every
//! switched-assignment cost is computed subtract-first in `u64`
//! (`cost − old + new`) — no signed casts, no wraparound near `u64::MAX`.

use super::deadline::{Anytime, Stop};
use super::{Candidate, IqpProblem, MethodUsed};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Perturbation restarts after the first descent.
const RESTARTS: usize = 24;

/// Seed of the perturbation RNG; fixed, so every solve is reproducible.
const SEED: u64 = 0x51AD0;

/// Incremental objective/cost state for a full assignment.
struct State<'p> {
    problem: &'p IqpProblem,
    choices: Vec<usize>,
    /// `t[v] = Σ_{u ∈ selected} g[v][u]` for every variable `v`.
    t: Vec<f64>,
    objective: f64,
    cost: u64,
}

impl<'p> State<'p> {
    fn new(problem: &'p IqpProblem, choices: Vec<usize>) -> Self {
        let n = problem.matrix().dim();
        let vars: Vec<usize> = choices
            .iter()
            .enumerate()
            .map(|(i, &m)| problem.var(i, m))
            .collect();
        let mut t = vec![0.0f64; n];
        for (v, tv) in t.iter_mut().enumerate() {
            *tv = vars.iter().map(|&u| problem.matrix().get(v, u)).sum();
        }
        let objective = vars.iter().map(|&u| t[u]).sum();
        let cost = problem.assignment_cost(&choices);
        Self {
            problem,
            choices,
            t,
            objective,
            cost,
        }
    }

    /// Objective change if group `i` switches to candidate `m`.
    fn delta(&self, i: usize, m: usize) -> f64 {
        let a = self.problem.var(i, self.choices[i]);
        let b = self.problem.var(i, m);
        if a == b {
            return 0.0;
        }
        let g = self.problem.matrix();
        2.0 * self.t[b] - 2.0 * g.get(b, a) + g.get(b, b) - 2.0 * self.t[a] + g.get(a, a)
    }

    /// Total cost after switching group `i` to candidate `m`. Subtracting
    /// the old candidate first keeps the intermediate ≤ `cost`, and the
    /// construction-time worst-case bound keeps the result in `u64`.
    fn switched_cost(&self, i: usize, m: usize) -> u64 {
        self.cost - self.problem.cost(i, self.choices[i]) + self.problem.cost(i, m)
    }

    /// Applies the switch of group `i` to candidate `m`.
    fn apply(&mut self, i: usize, m: usize) {
        let a = self.problem.var(i, self.choices[i]);
        let b = self.problem.var(i, m);
        if a == b {
            return;
        }
        self.objective += self.delta(i, m);
        self.cost = self.switched_cost(i, m);
        let g = self.problem.matrix();
        for v in 0..self.t.len() {
            self.t[v] += g.get(v, b) - g.get(v, a);
        }
        self.choices[i] = m;
    }

    /// One pass of steepest coordinate descent; returns `true` if improved.
    fn descend_once(&mut self) -> bool {
        let mut best: Option<(usize, usize, f64)> = None;
        for i in 0..self.problem.num_groups() {
            for m in 0..self.problem.group_size(i) {
                if m == self.choices[i] {
                    continue;
                }
                if self.switched_cost(i, m) > self.problem.budget() {
                    continue;
                }
                let d = self.delta(i, m);
                if d < -1e-15 && best.is_none_or(|(_, _, bd)| d < bd) {
                    best = Some((i, m, d));
                }
            }
        }
        if let Some((i, m, _)) = best {
            self.apply(i, m);
            true
        } else {
            false
        }
    }

    /// Runs coordinate descent to a local minimum.
    fn descend(&mut self) {
        // Each accepted move strictly decreases the objective, so this
        // terminates; cap defensively anyway.
        let cap = 64 * self.choices.len().max(1) * 8;
        for _ in 0..cap {
            if !self.descend_once() {
                break;
            }
        }
    }

    fn candidate(&self, method: MethodUsed) -> Candidate {
        Candidate {
            choices: self.choices.clone(),
            objective: self.objective,
            cost: self.cost,
            method,
        }
    }
}

/// Cheapest-choice starting assignment (always feasible for problems that
/// passed construction).
fn cheapest_assignment(problem: &IqpProblem) -> Vec<usize> {
    (0..problem.num_groups())
        .map(|i| {
            (0..problem.group_size(i))
                .min_by_key(|&m| problem.cost(i, m))
                .expect("groups are non-empty")
        })
        .collect()
}

/// Greedy budget-filling start: begin at the cheapest assignment, then take
/// the best objective-per-cost upgrades while the budget allows.
fn greedy_assignment(problem: &IqpProblem) -> Vec<usize> {
    let mut state = State::new(problem, cheapest_assignment(problem));
    loop {
        let mut best: Option<(usize, usize, f64)> = None;
        for i in 0..problem.num_groups() {
            for m in 0..problem.group_size(i) {
                if m == state.choices[i] {
                    continue;
                }
                if state.switched_cost(i, m) > problem.budget() {
                    continue;
                }
                let d = state.delta(i, m);
                if d >= 0.0 {
                    continue;
                }
                // Rate: objective gain per extra bit (upgrades cost more).
                // i128 holds any u64 difference exactly.
                let dc = problem.cost(i, m) as i128 - problem.cost(i, state.choices[i]) as i128;
                let rate = if dc > 0 {
                    d / dc as f64
                } else {
                    f64::NEG_INFINITY
                };
                if best.is_none_or(|(_, _, br)| rate < br) {
                    best = Some((i, m, rate));
                }
            }
        }
        match best {
            Some((i, m, _)) => state.apply(i, m),
            None => break,
        }
    }
    state.choices
}

/// The deterministic greedy budget-filling construction as a [`Candidate`]
/// — the floor of the solve path and the start of the local search.
pub(super) fn greedy_candidate(problem: &IqpProblem) -> Candidate {
    State::new(problem, greedy_assignment(problem)).candidate(MethodUsed::Greedy)
}

/// Multi-start local search under the anytime controls in `ctl`; the stop
/// check runs once per restart, so restarts are atomic. A stop returns no
/// incumbent: which restarts completed is a wall-clock artefact.
pub(super) fn run(problem: &IqpProblem, ctl: &Anytime) -> Result<Candidate, Stop> {
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut best_state = State::new(problem, greedy_assignment(problem));
    best_state.descend();
    let mut best = (
        best_state.choices.clone(),
        best_state.objective,
        best_state.cost,
    );

    for _ in 0..RESTARTS {
        if let Some(stop) = ctl.check_now() {
            return Err(stop);
        }
        // Perturb the incumbent: re-randomize a handful of groups, repair
        // feasibility by downgrading to cheapest where needed, then descend.
        let mut choices = best.0.clone();
        let kicks = (problem.num_groups() / 4).max(2);
        for _ in 0..kicks {
            let i = rng.gen_range(0..problem.num_groups());
            choices[i] = rng.gen_range(0..problem.group_size(i));
        }
        // Repair: while infeasible, downgrade the most expensive group.
        let mut state = State::new(problem, choices);
        while state.cost > problem.budget() {
            let (i, m) = (0..problem.num_groups())
                .flat_map(|i| (0..problem.group_size(i)).map(move |m| (i, m)))
                .filter(|&(i, m)| problem.cost(i, m) < problem.cost(i, state.choices[i]))
                .min_by_key(|&(i, m)| state.switched_cost(i, m))
                .expect("problem is feasible, so a downgrade exists");
            state.apply(i, m);
        }
        state.descend();
        if state.objective < best.1 - 1e-15 {
            best = (state.choices.clone(), state.objective, state.cost);
        }
    }

    Ok(Candidate {
        choices: best.0,
        objective: best.1,
        cost: best.2,
        method: MethodUsed::LocalSearch,
    })
}

#[cfg(test)]
mod tests {
    use super::super::tests::cross_term_instance;
    use super::*;
    use crate::SymMatrix;
    use proptest::prelude::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    fn unconstrained() -> Anytime {
        Anytime::resolve(None, None, Arc::new(AtomicBool::new(false)))
    }

    #[test]
    fn greedy_start_is_feasible() {
        let p = cross_term_instance();
        let g = greedy_assignment(&p);
        assert!(p.is_feasible(&g));
        let cand = greedy_candidate(&p);
        assert_eq!(cand.choices, g);
        assert!((cand.objective - p.assignment_objective(&g)).abs() < 1e-12);
    }

    #[test]
    fn local_search_finds_the_planted_optimum() {
        let p = cross_term_instance();
        let sol = run(&p, &unconstrained()).expect("unconstrained run must complete");
        assert!(p.is_feasible(&sol.choices));
        // Known optimum: groups 0 and 2 cheap together (negative coupling).
        assert!((sol.objective - p.solve_exhaustive().objective).abs() < 1e-12);
        assert!((sol.objective - p.assignment_objective(&sol.choices)).abs() < 1e-12);
    }

    #[test]
    fn preset_cancel_stops_before_the_first_restart() {
        let p = cross_term_instance();
        let cancel = Arc::new(AtomicBool::new(true));
        let ctl = Anytime::resolve(None, None, cancel);
        assert_eq!(run(&p, &ctl).map(|c| c.choices), Err(Stop::Cancelled));
    }

    #[test]
    fn incremental_state_matches_direct_evaluation() {
        let p = cross_term_instance();
        let mut st = State::new(&p, vec![0, 0, 0]);
        assert!((st.objective - p.assignment_objective(&[0, 0, 0])).abs() < 1e-12);
        st.apply(1, 1);
        assert!((st.objective - p.assignment_objective(&[0, 1, 0])).abs() < 1e-12);
        assert_eq!(st.cost, p.assignment_cost(&[0, 1, 0]));
        st.apply(0, 1);
        assert!((st.objective - p.assignment_objective(&[1, 1, 0])).abs() < 1e-12);
    }

    /// Random small instance: 2–5 groups of 3, cross terms at 0.3 of the
    /// diagonal scale, budget halfway through the feasible cost range.
    fn instance() -> impl Strategy<Value = IqpProblem> {
        (2usize..=5).prop_flat_map(|k| {
            let n = 3 * k;
            (
                prop::collection::vec(-0.5f64..0.5, n * (n + 1) / 2),
                prop::collection::vec(1u64..50, n),
            )
                .prop_map(move |(upper, costs)| {
                    let mut g = SymMatrix::zeros(n);
                    let mut it = upper.into_iter();
                    for i in 0..n {
                        for j in i..n {
                            let scale = if i == j { 1.0 } else { 0.3 };
                            g.set(i, j, it.next().expect("sized") * scale);
                        }
                    }
                    let group = |i: usize| &costs[3 * i..3 * i + 3];
                    let min_cost: u64 = (0..k).map(|i| group(i).iter().min().unwrap()).sum();
                    let max_cost: u64 = (0..k).map(|i| group(i).iter().max().unwrap()).sum();
                    let budget = min_cost + (max_cost - min_cost) / 2;
                    IqpProblem::new(g, &[3; 5][..k], costs, budget).expect("feasible")
                })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Local search is feasible, no better than the proven optimum, and
        /// reports the objective of the plan it returns.
        #[test]
        fn local_search_is_feasible_and_bounded(p in instance()) {
            let optimum = p.solve_exhaustive();
            let ls = run(&p, &unconstrained()).expect("unconstrained run completes");
            prop_assert!(ls.cost <= p.budget());
            prop_assert_eq!(ls.cost, p.assignment_cost(&ls.choices));
            prop_assert!(ls.objective >= optimum.objective - 1e-9,
                "local search {} beat the optimum {}", ls.objective, optimum.objective);
            prop_assert!((ls.objective - p.assignment_objective(&ls.choices)).abs() < 1e-9);
        }
    }
}
