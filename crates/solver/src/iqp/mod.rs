//! Integer Quadratic Programming for mixed-precision bit-width assignment.
//!
//! The problem solved here is the paper's equation (11):
//!
//! ```text
//! min  αᵀ Ĝ α
//! s.t. one choice per group (layer): Σ_m α_m⁽ⁱ⁾ = 1, α binary
//!      Σ cost(chosen) ≤ budget
//! ```
//!
//! where group `i` holds the |𝔹| candidate bit-widths of layer `i` and
//! `cost` is `|w⁽ⁱ⁾|·b_m` in bits. [`IqpProblem::solve`] takes one fixed
//! path:
//!
//! * a separable (diagonal) instance — the HAWQ/MPQCO/CLADO\* baselines —
//!   goes to the exact multiple-choice-knapsack DP;
//! * everything else, and a separable instance whose DP table would be too
//!   large, goes to branch and bound, warm-started by multi-start local
//!   search. B&B is exact within its node cap, with two admissible node
//!   bounds that both end in a Dantzig-style LP relaxation of the
//!   multiple-choice knapsack: a row-min linearization of the quadratic
//!   terms, and Frank–Wolfe on a convexified objective, which the PSD
//!   projection makes tight.
//!
//! [`IqpProblem::solve_exhaustive`] enumerates every assignment; it is the
//! oracle the exactness tests compare against.
//!
//! # Anytime solving
//!
//! [`IqpProblem::solve`] is *anytime*: it honours a wall-clock deadline and
//! a cooperative cancel flag ([`SolverConfig::deadline`],
//! [`SolverConfig::max_wall`], [`SolverConfig::cancel`]) and always returns
//! a feasible [`Solution`] carrying an optimality [`Solution::gap`], the
//! [`MethodUsed`], and a [`Termination`] status. When the path cannot
//! complete, it falls back and records one typed [`Downgrade`]:
//!
//! * stopped at entry, or while the DP or the warm start runs → the
//!   greedy construction;
//! * a wall-clock stop or cancel inside B&B → the completed warm start;
//! * the B&B node cap → the B&B incumbent, unless the DP on the diagonal
//!   of Ĝ scores better on the true objective;
//! * a DP table too large → B&B.
//!
//! Determinism is preserved under deadlines: stop checks fire on
//! node-count boundaries and never influence pruning, and incumbents from
//! wall-clock-interrupted searches are discarded rather than returned (see
//! [`deadline`](self) module docs), so identical config yields
//! bitwise-identical `choices`.

mod bnb;
mod bounds;
mod deadline;
mod dp;
mod exhaustive;
mod local;

use deadline::{Anytime, Stop};
pub use deadline::{Downgrade, DowngradeReason, MethodUsed, Termination};

use crate::SymMatrix;
use clado_telemetry::Telemetry;
use std::fmt;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Errors produced when building or solving an [`IqpProblem`].
#[derive(Debug, Clone, PartialEq)]
pub enum IqpError {
    /// Matrix dimension does not match the total number of variables.
    DimensionMismatch {
        /// Matrix dimension.
        matrix: usize,
        /// Total variable count implied by the groups.
        variables: usize,
    },
    /// `costs` length does not match the variable count.
    CostLengthMismatch {
        /// Cost vector length.
        costs: usize,
        /// Total variable count.
        variables: usize,
    },
    /// A group is empty.
    EmptyGroup {
        /// Index of the offending group.
        group: usize,
    },
    /// No assignment satisfies the budget (even all-minimum-cost).
    Infeasible {
        /// Cheapest achievable cost.
        min_cost: u64,
        /// The requested budget.
        budget: u64,
    },
    /// The worst-case total assignment cost (every group at its most
    /// expensive candidate) overflows `u64`, so budget arithmetic cannot be
    /// carried out exactly; rescale the costs (e.g. bytes instead of bits).
    CostOverflow {
        /// Group at which the running worst-case sum overflowed.
        group: usize,
    },
    /// The objective matrix contains a NaN or infinite entry; every solver
    /// would silently mis-rank assignments, so construction refuses it.
    NonFiniteObjective {
        /// Row of the first offending entry.
        row: usize,
        /// Column of the first offending entry.
        col: usize,
        /// The offending value (NaN or ±∞).
        value: f64,
    },
    /// The PSD projection discarded most of the measured spectrum (strict
    /// hardening only): the clipped eigenvalue mass dominates the total, so
    /// the IQP objective would be mostly projection artefact.
    DegenerateObjective {
        /// `Σ|λ<0| / Σ|λ|` of the measured matrix.
        clip_mass_ratio: f64,
    },
}

impl fmt::Display for IqpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DimensionMismatch { matrix, variables } => write!(
                f,
                "sensitivity matrix is {matrix}×{matrix} but groups imply {variables} variables"
            ),
            Self::CostLengthMismatch { costs, variables } => {
                write!(
                    f,
                    "cost vector has {costs} entries for {variables} variables"
                )
            }
            Self::EmptyGroup { group } => write!(f, "group {group} has no candidates"),
            Self::Infeasible { min_cost, budget } => write!(
                f,
                "infeasible: cheapest assignment costs {min_cost} bits, budget is {budget}"
            ),
            Self::CostOverflow { group } => write!(
                f,
                "worst-case assignment cost overflows u64 at group {group}; \
                 rescale the per-candidate costs to a coarser unit"
            ),
            Self::NonFiniteObjective { row, col, value } => write!(
                f,
                "objective matrix entry ({row}, {col}) is non-finite ({value}); \
                 quarantine or re-measure the sensitivity before solving"
            ),
            Self::DegenerateObjective { clip_mass_ratio } => write!(
                f,
                "PSD projection would discard {:.1}% of the eigenvalue mass under \
                 strict hardening; the measured Ω is too noisy to optimize over",
                clip_mass_ratio * 100.0
            ),
        }
    }
}

impl std::error::Error for IqpError {}

/// Solver configuration.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Maximum number of branch-and-bound nodes; at the cap the solve
    /// keeps the best incumbent (deterministic stop).
    pub max_nodes: u64,
    /// Absolute wall-clock deadline; the effective deadline is the earlier
    /// of this and `now + max_wall`, resolved once at `solve` entry.
    pub deadline: Option<Instant>,
    /// Wall-clock budget for this solve, relative to `solve` entry.
    pub max_wall: Option<Duration>,
    /// Cooperative cancel flag, checked on deterministic node-count
    /// boundaries; share it with a signal handler for Ctrl-C support.
    pub cancel: Arc<AtomicBool>,
    /// Telemetry sink for solve spans and node/prune/downgrade counters;
    /// never affects the solution.
    pub telemetry: Telemetry,
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self {
            max_nodes: 2_000_000,
            deadline: None,
            max_wall: None,
            cancel: Arc::new(AtomicBool::new(false)),
            telemetry: Telemetry::disabled(),
        }
    }
}

/// A solved bit-width assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Chosen candidate index within each group (layer), in group order.
    pub choices: Vec<usize>,
    /// Objective value `αᵀĜα` of the assignment.
    pub objective: f64,
    /// Total cost (bits) of the assignment.
    pub cost: u64,
    /// Whether optimality was proved (branch and bound completed, or the
    /// exact DP on a separable instance). Equivalent to
    /// `termination == Termination::Proved`.
    pub proved_optimal: bool,
    /// Branch-and-bound nodes explored (0 for other methods).
    pub nodes_explored: u64,
    /// Upper bound on the suboptimality of `objective`: the true optimum is
    /// at least `objective - gap`. Zero when optimality was proved;
    /// otherwise the distance to the larger of the branch-and-bound root
    /// bounds (row-min and convex), so it is finite but can be loose.
    pub gap: f64,
    /// The method that produced `choices`.
    pub method_used: MethodUsed,
    /// How the solve terminated.
    pub termination: Termination,
    /// The fallback trail: one entry per step of the solve path that could
    /// not complete. Empty when the path ran to completion.
    pub downgrades: Vec<Downgrade>,
}

/// A feasible assignment produced by one step of the solve path (internal
/// currency; `solve` turns the one it keeps into a [`Solution`]).
#[derive(Debug, Clone)]
pub(crate) struct Candidate {
    pub(crate) choices: Vec<usize>,
    pub(crate) objective: f64,
    pub(crate) cost: u64,
    pub(crate) method: MethodUsed,
}

impl Candidate {
    pub(crate) fn evaluated(problem: &IqpProblem, choices: Vec<usize>, method: MethodUsed) -> Self {
        let objective = problem.assignment_objective(&choices);
        let cost = problem.assignment_cost(&choices);
        Self {
            choices,
            objective,
            cost,
            method,
        }
    }

    fn into_solution(
        self,
        termination: Termination,
        gap: f64,
        nodes_explored: u64,
        downgrades: Vec<Downgrade>,
    ) -> Solution {
        Solution {
            choices: self.choices,
            objective: self.objective,
            cost: self.cost,
            proved_optimal: termination == Termination::Proved,
            nodes_explored,
            gap,
            method_used: self.method,
            termination,
            downgrades,
        }
    }
}

/// The integer quadratic program of equation (11).
///
/// # Examples
///
/// ```
/// use clado_solver::{IqpProblem, SolverConfig, SymMatrix};
///
/// // Two layers, two bit choices each. Diagonal = layer sensitivities.
/// let mut g = SymMatrix::zeros(4);
/// g.set(0, 0, 1.0); // layer 0, cheap choice: high error
/// g.set(1, 1, 0.1); // layer 0, expensive choice: low error
/// g.set(2, 2, 0.5);
/// g.set(3, 3, 0.05);
/// let problem = IqpProblem::new(g, &[2, 2], vec![10, 20, 10, 20], 30)?;
/// let sol = problem.solve(&SolverConfig::default())?;
/// // Budget 30 permits exactly one expensive choice; layer 0 gains more.
/// assert_eq!(sol.choices, vec![1, 0]);
/// assert!(sol.proved_optimal && sol.gap == 0.0);
/// # Ok::<(), clado_solver::IqpError>(())
/// ```
#[derive(Debug, Clone)]
pub struct IqpProblem {
    g: SymMatrix,
    /// Start offset of each group in variable space; one extra final entry.
    offsets: Vec<usize>,
    costs: Vec<u64>,
    budget: u64,
}

impl IqpProblem {
    /// Builds a problem instance.
    ///
    /// `group_sizes[i]` is the number of candidates for layer `i`; variables
    /// are laid out group-contiguously, matching the paper's `Ĝ` indexing
    /// `(|𝔹|·i + m)`.
    ///
    /// # Errors
    ///
    /// Returns an [`IqpError`] describing any dimensional inconsistency, a
    /// non-finite objective entry, an unconditionally infeasible budget, or
    /// a worst-case total cost that overflows `u64`
    /// ([`IqpError::CostOverflow`]) — the last guarantee is what lets every
    /// solver use plain `u64` cost sums afterwards.
    pub fn new(
        g: SymMatrix,
        group_sizes: &[usize],
        costs: Vec<u64>,
        budget: u64,
    ) -> Result<Self, IqpError> {
        let mut offsets = Vec::with_capacity(group_sizes.len() + 1);
        let mut total = 0usize;
        for (i, &s) in group_sizes.iter().enumerate() {
            if s == 0 {
                return Err(IqpError::EmptyGroup { group: i });
            }
            offsets.push(total);
            total += s;
        }
        offsets.push(total);
        if g.dim() != total {
            return Err(IqpError::DimensionMismatch {
                matrix: g.dim(),
                variables: total,
            });
        }
        if costs.len() != total {
            return Err(IqpError::CostLengthMismatch {
                costs: costs.len(),
                variables: total,
            });
        }
        if let Some((row, col, value)) = g.first_non_finite() {
            return Err(IqpError::NonFiniteObjective { row, col, value });
        }
        // Worst-case total cost must fit in u64 so that every partial sum
        // any solver can form (one candidate per group) is overflow-free.
        let mut max_total = 0u64;
        for (i, w) in offsets.windows(2).enumerate() {
            let group_max = costs[w[0]..w[1]].iter().copied().max().expect("non-empty");
            max_total = max_total
                .checked_add(group_max)
                .ok_or(IqpError::CostOverflow { group: i })?;
        }
        let problem = Self {
            g,
            offsets,
            costs,
            budget,
        };
        let min_cost = problem.min_total_cost();
        if min_cost > budget {
            return Err(IqpError::Infeasible { min_cost, budget });
        }
        Ok(problem)
    }

    /// Number of groups (layers).
    pub fn num_groups(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of candidates in group `i`.
    pub fn group_size(&self, i: usize) -> usize {
        self.offsets[i + 1] - self.offsets[i]
    }

    /// Global variable index of candidate `m` in group `i`.
    pub fn var(&self, i: usize, m: usize) -> usize {
        debug_assert!(m < self.group_size(i));
        self.offsets[i] + m
    }

    /// The budget (bits).
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// The sensitivity matrix.
    pub fn matrix(&self) -> &SymMatrix {
        &self.g
    }

    /// Cost of candidate `m` in group `i`.
    pub fn cost(&self, i: usize, m: usize) -> u64 {
        self.costs[self.var(i, m)]
    }

    /// Cheapest possible total cost.
    pub fn min_total_cost(&self) -> u64 {
        (0..self.num_groups())
            .map(|i| {
                (0..self.group_size(i))
                    .map(|m| self.cost(i, m))
                    .min()
                    .expect("non-empty")
            })
            .sum()
    }

    /// Total cost of a full assignment.
    ///
    /// # Panics
    ///
    /// Panics if `choices` has the wrong length or an out-of-range choice.
    pub fn assignment_cost(&self, choices: &[usize]) -> u64 {
        assert_eq!(
            choices.len(),
            self.num_groups(),
            "choice vector length mismatch"
        );
        choices.iter().enumerate().fold(0u64, |acc, (i, &m)| {
            acc.checked_add(self.cost(i, m))
                .expect("construction bounds the worst-case total cost")
        })
    }

    /// Objective `αᵀĜα` of a full assignment.
    ///
    /// # Panics
    ///
    /// Panics if `choices` has the wrong length or an out-of-range choice.
    pub fn assignment_objective(&self, choices: &[usize]) -> f64 {
        assert_eq!(
            choices.len(),
            self.num_groups(),
            "choice vector length mismatch"
        );
        let vars: Vec<usize> = choices
            .iter()
            .enumerate()
            .map(|(i, &m)| self.var(i, m))
            .collect();
        let mut acc = 0.0;
        for &u in &vars {
            for &v in &vars {
                acc += self.g.get(u, v);
            }
        }
        acc
    }

    /// `true` if the assignment satisfies the budget.
    pub fn is_feasible(&self, choices: &[usize]) -> bool {
        self.assignment_cost(choices) <= self.budget
    }

    /// The greedy budget-filling construction: the deterministic start of
    /// the local search, and the floor of the solve path. Cheap
    /// (`O(k²·|𝔹|²)`), always feasible, never fails — this is the
    /// assignment `solve` returns when the cancel flag is already raised
    /// at entry.
    pub fn warm_start(&self) -> Solution {
        let cand = local::greedy_candidate(self);
        let gap = (cand.objective - bounds::root_lower_bound(self)).max(0.0);
        cand.into_solution(Termination::Heuristic, gap, 0, Vec::new())
    }

    /// Enumerates every assignment and returns the proved optimum: the
    /// oracle that the exactness tests compare [`IqpProblem::solve`]
    /// against. Exponential (`Π group_size` evaluations) and without
    /// anytime controls, so for small instances only.
    pub fn solve_exhaustive(&self) -> Solution {
        exhaustive::run(self).into_solution(Termination::Proved, 0.0, 0, Vec::new())
    }

    /// Solves the program, anytime-style: the result is always a feasible
    /// assignment, with [`Solution::gap`], [`Solution::termination`], and
    /// the [`Solution::downgrades`] trail describing how close to optimal it
    /// is and which fallbacks ran (see the module docs for the path).
    ///
    /// # Errors
    ///
    /// None in practice: [`IqpProblem::new`] already validates dimensions,
    /// finiteness, feasibility, and cost overflow, and every runtime
    /// failure mode (timeout, cancellation, node cap, DP table size) falls
    /// back to a feasible plan instead of erroring. The `Result` is kept so
    /// future validation can fail without an API break.
    pub fn solve(&self, config: &SolverConfig) -> Result<Solution, IqpError> {
        let telemetry = &config.telemetry;
        let _span = telemetry.span("solver.iqp");
        let ctl = Anytime::resolve(config.deadline, config.max_wall, config.cancel.clone());
        let mut trail = Vec::new();
        let (winner, nodes, stop) = self.solve_path(config, &ctl, &mut trail);
        let termination = match stop {
            None => Termination::Proved,
            Some(Stop::Cancelled) => Termination::Cancelled,
            Some(Stop::Deadline) => Termination::DeadlineExceeded,
            Some(Stop::NodeCap) => Termination::NodeCapExhausted,
        };
        let gap = match stop {
            None => 0.0,
            Some(_) => (winner.objective - bounds::root_lower_bound(self)).max(0.0),
        };
        telemetry.set_gauge("solver.iqp.gap", gap);
        Ok(winner.into_solution(termination, gap, nodes, trail))
    }

    /// The solve path of the module docs. Returns the plan, the B&B nodes
    /// explored, and the stop that cut the path short — `None` exactly
    /// when the plan is proved optimal.
    fn solve_path(
        &self,
        config: &SolverConfig,
        ctl: &Anytime,
        trail: &mut Vec<Downgrade>,
    ) -> (Candidate, u64, Option<Stop>) {
        let telemetry = &config.telemetry;
        // Every fallback lands in the typed trail, in the downgrade
        // counters, and, when tracing is on, as an instant on the trace
        // timeline so it lines up with the incumbent curve.
        let mut fall_back = |from: MethodUsed, to: MethodUsed, reason: DowngradeReason| {
            telemetry.add("solver.downgrades", 1);
            telemetry.add(&format!("solver.downgrades.{}", reason.slug()), 1);
            telemetry.instant(
                "solver.downgrade",
                &[
                    ("from", from.label().into()),
                    ("to", to.label().into()),
                    ("reason", reason.slug().into()),
                ],
            );
            trail.push(Downgrade { from, to, reason });
        };
        // The floor: pure deterministic construction, runs even with the
        // cancel flag raised.
        let greedy = |stop: Stop| {
            let cand = local::greedy_candidate(self);
            telemetry.series_push("solver.incumbents", cand.objective, "greedy");
            (cand, 0, Some(stop))
        };

        // Separable instances (the HAWQ/MPQCO/CLADO* baselines) take the
        // exact DP; quadratic ones go to warm-started B&B.
        let separable = dp::separability_defect(self) == 0.0;
        let entry = if separable {
            MethodUsed::DynamicProgramming
        } else {
            MethodUsed::BranchAndBound
        };
        if let Some(stop) = ctl.check_now() {
            fall_back(entry, MethodUsed::Greedy, stop.into());
            return greedy(stop);
        }
        if separable {
            let _s = telemetry.span("solver.iqp.dp");
            match dp::knapsack(self, ctl) {
                dp::DpOutcome::Solved(choices) => {
                    let cand = Candidate::evaluated(self, choices, MethodUsed::DynamicProgramming);
                    telemetry.series_push("solver.incumbents", cand.objective, "dp");
                    return (cand, 0, None);
                }
                dp::DpOutcome::Stopped(stop) => {
                    fall_back(entry, MethodUsed::Greedy, stop.into());
                    return greedy(stop);
                }
                dp::DpOutcome::TooLarge => fall_back(
                    entry,
                    MethodUsed::BranchAndBound,
                    DowngradeReason::TableTooLarge,
                ),
            }
        }

        let warm = {
            let _s = telemetry.span("solver.iqp.local");
            local::run(self, ctl)
        };
        let warm = match warm {
            Ok(warm) => warm,
            Err(stop) => {
                // Which restarts completed is a wall-clock artefact, so
                // only the deterministic greedy construction is kept.
                fall_back(MethodUsed::BranchAndBound, MethodUsed::Greedy, stop.into());
                return greedy(stop);
            }
        };
        telemetry.series_push("solver.incumbents", warm.objective, "warm_start");
        let bb = {
            let _s = telemetry.span("solver.iqp.branch");
            bnb::run(self, config, &warm, ctl)
        };
        let incumbent = Candidate::evaluated(self, bb.choices, MethodUsed::BranchAndBound);
        match bb.stop {
            None => (incumbent, bb.nodes, None),
            Some(stop @ Stop::NodeCap) => {
                // Node-cap stops are deterministic, so the incumbent (no
                // worse than the warm start) is kept, unless the DP on the
                // diagonal scores strictly better on the true objective.
                fall_back(
                    MethodUsed::BranchAndBound,
                    MethodUsed::DiagonalDp,
                    stop.into(),
                );
                let _s = telemetry.span("solver.iqp.dp");
                if let dp::DpOutcome::Solved(choices) = dp::knapsack(self, ctl) {
                    let diag = Candidate::evaluated(self, choices, MethodUsed::DiagonalDp);
                    telemetry.series_push("solver.incumbents", diag.objective, "diagonal_dp");
                    if diag.objective < incumbent.objective {
                        return (diag, bb.nodes, Some(stop));
                    }
                }
                (incumbent, bb.nodes, Some(stop))
            }
            Some(stop) => {
                // Wall-clock stop: the partial incumbent depends on where
                // the clock cut the search, so the completed warm start is
                // returned instead.
                fall_back(
                    MethodUsed::BranchAndBound,
                    MethodUsed::LocalSearch,
                    stop.into(),
                );
                (warm, bb.nodes, Some(stop))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::atomic::Ordering;

    /// 3 groups × 2 candidates with planted negative cross terms that make
    /// the separable optimum suboptimal.
    pub(crate) fn cross_term_instance() -> IqpProblem {
        let mut g = SymMatrix::zeros(6);
        // Diagonals (cheap, expensive) per group.
        let diag = [0.115, 0.0, 0.140, 0.0, 0.246, 0.0];
        for (i, &d) in diag.iter().enumerate() {
            g.set(i, i, d);
        }
        // Cross term between group 0 cheap and group 2 cheap is strongly
        // negative — mirroring the paper's Fig. 1 example where the jointly
        // best pair is not the individually best pair.
        g.set(0, 4, -0.12);
        g.set(0, 2, 0.02);
        g.set(2, 4, 0.009);
        // Costs: cheap = 2 bits/unit, expensive = 8 bits/unit, 100 units per
        // layer. Budget forces exactly one... actually allows two cheap.
        let costs = vec![200, 800, 200, 800, 200, 800];
        IqpProblem::new(g, &[2, 2, 2], costs, 1200).expect("valid instance")
    }

    #[test]
    fn construction_validations() {
        let g = SymMatrix::zeros(4);
        assert!(matches!(
            IqpProblem::new(g.clone(), &[2, 3], vec![0; 4], 10),
            Err(IqpError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            IqpProblem::new(g.clone(), &[2, 2], vec![0; 3], 10),
            Err(IqpError::CostLengthMismatch { .. })
        ));
        assert!(matches!(
            IqpProblem::new(g.clone(), &[2, 0, 2], vec![0; 4], 10),
            Err(IqpError::EmptyGroup { group: 1 })
        ));
        assert!(matches!(
            IqpProblem::new(g.clone(), &[2, 2], vec![5, 9, 7, 9], 10),
            Err(IqpError::Infeasible {
                min_cost: 12,
                budget: 10
            })
        ));
        let mut poisoned = g;
        poisoned.set(1, 3, f64::NAN);
        let err = IqpProblem::new(poisoned, &[2, 2], vec![0; 4], 10).unwrap_err();
        match err {
            IqpError::NonFiniteObjective { row, col, value } => {
                assert_eq!((row, col), (1, 3));
                assert!(value.is_nan());
                assert!(err.to_string().contains("non-finite"));
            }
            other => panic!("expected NonFiniteObjective, got {other:?}"),
        }
    }

    #[test]
    fn worst_case_cost_overflow_is_rejected_at_construction() {
        // Two groups whose most expensive candidates sum past u64::MAX.
        let g = SymMatrix::zeros(4);
        let big = u64::MAX / 2 + 1;
        let err = IqpProblem::new(g, &[2, 2], vec![1, big, 1, big], u64::MAX).unwrap_err();
        match &err {
            IqpError::CostOverflow { group } => assert_eq!(*group, 1),
            other => panic!("expected CostOverflow, got {other:?}"),
        }
        assert!(err.to_string().contains("overflows u64"));
    }

    /// The configurations the solve-path tests sweep: the default, node
    /// caps of 0 and 1, an expired deadline, and a preset cancel.
    fn configs() -> Vec<SolverConfig> {
        let cancelled = SolverConfig::default();
        cancelled.cancel.store(true, Ordering::Relaxed);
        vec![
            SolverConfig::default(),
            SolverConfig {
                max_nodes: 0,
                ..Default::default()
            },
            SolverConfig {
                max_nodes: 1,
                ..Default::default()
            },
            SolverConfig {
                max_wall: Some(Duration::ZERO),
                ..Default::default()
            },
            cancelled,
        ]
    }

    #[test]
    fn near_max_budgets_solve_without_overflow() {
        // Regression for the former `cost as i64` comparisons in local
        // search: costs near u64::MAX/4 made the i64 casts wrap. The
        // construction-time worst-case guard plus subtract-first updates
        // must keep every method exact here.
        let big = u64::MAX / 4;
        let mut g = SymMatrix::zeros(4);
        g.set(0, 0, 1.0);
        g.set(1, 1, 0.1);
        g.set(2, 2, 0.5);
        g.set(3, 3, 0.05);
        let costs = vec![big, big + 1000, big, big + 1000];
        // Budget fits exactly one upgraded group.
        let p = IqpProblem::new(g, &[2, 2], costs, 2 * big + 1000).expect("in-range costs");
        let ctl = Anytime::resolve(None, None, Arc::new(AtomicBool::new(false)));
        let local = local::run(&p, &ctl).expect("unconstrained run completes");
        let exhaustive = p.solve_exhaustive();
        for (i, sol) in [p.solve(&SolverConfig::default()).unwrap(), exhaustive]
            .iter()
            .enumerate()
        {
            assert!(sol.cost <= p.budget(), "solve {i} violated the budget");
            assert_eq!(sol.choices, vec![1, 0], "solve {i} missed the optimum");
        }
        assert_eq!(local.choices, vec![1, 0]);
    }

    #[test]
    fn infeasible_and_exact_budget_edges() {
        // budget < min_total_cost: construction rejects.
        let g = SymMatrix::zeros(4);
        let err = IqpProblem::new(g.clone(), &[2, 2], vec![5, 9, 7, 9], 11).unwrap_err();
        assert!(matches!(
            err,
            IqpError::Infeasible {
                min_cost: 12,
                budget: 11
            }
        ));
        assert!(err.to_string().contains("infeasible"));
        // budget == min_total_cost: exactly one feasible assignment — the
        // all-cheapest one — and every configuration must return it, on a
        // separable instance and on one with a cross term.
        for cross in [0.0, 0.7] {
            let mut g = SymMatrix::zeros(4);
            g.set(0, 0, 5.0);
            g.set(1, 1, 0.0);
            g.set(2, 2, 3.0);
            g.set(3, 3, 0.0);
            g.set(1, 3, cross);
            let p = IqpProblem::new(g, &[2, 2], vec![5, 9, 7, 9], 12).expect("tight but feasible");
            let exhaustive = p.solve_exhaustive();
            assert_eq!(exhaustive.choices, vec![0, 0]);
            for (i, config) in configs().iter().enumerate() {
                let sol = p.solve(config).unwrap();
                assert_eq!(sol.choices, vec![0, 0], "cross {cross}, config {i}");
                assert_eq!(sol.cost, 12, "cross {cross}, config {i}");
            }
        }
    }

    #[test]
    fn objective_counts_cross_terms_twice() {
        let p = cross_term_instance();
        // choices (0, _, 0): groups 0 and 2 at cheap → diag + 2·cross.
        let obj = p.assignment_objective(&[0, 1, 0]);
        let expect = 0.115 + 0.246 + 2.0 * (-0.12);
        assert!((obj - expect).abs() < 1e-12, "{obj} vs {expect}");
    }

    #[test]
    fn cost_accounting() {
        let p = cross_term_instance();
        assert_eq!(p.assignment_cost(&[0, 0, 0]), 600);
        assert_eq!(p.assignment_cost(&[1, 0, 0]), 1200);
        assert!(p.is_feasible(&[1, 0, 0]));
        assert!(!p.is_feasible(&[1, 1, 0]));
        assert_eq!(p.min_total_cost(), 600);
    }

    #[test]
    fn solve_matches_the_exhaustive_oracle_on_a_small_instance() {
        let p = cross_term_instance();
        let exhaustive = p.solve_exhaustive();
        let sol = p.solve(&SolverConfig::default()).unwrap();
        assert!((sol.objective - exhaustive.objective).abs() < 1e-9);
        assert!(sol.cost <= p.budget());
        assert!(sol.proved_optimal && sol.gap == 0.0);
        assert_eq!(sol.method_used, MethodUsed::BranchAndBound);
        assert!(sol.downgrades.is_empty());
        assert!(exhaustive.proved_optimal);
        assert_eq!(exhaustive.termination, Termination::Proved);
        assert_eq!(exhaustive.method_used, MethodUsed::Exhaustive);
        assert_eq!(exhaustive.gap, 0.0);
        assert!(exhaustive.downgrades.is_empty());
    }

    #[test]
    fn telemetry_records_solve_spans_and_node_counters() {
        let p = cross_term_instance();
        let telemetry = Telemetry::new();
        let sol = p
            .solve(&SolverConfig {
                telemetry: telemetry.clone(),
                ..Default::default()
            })
            .unwrap();
        assert_eq!(
            telemetry.counter_value("solver.iqp.nodes"),
            sol.nodes_explored
        );
        assert!(telemetry.span_stats("solver.iqp").is_some());
        assert!(telemetry.span_stats("solver.iqp.local").is_some());
        assert!(telemetry.span_stats("solver.iqp.branch").is_some());
        // At least one of the prune counters fires on this instance.
        let prunes = telemetry.counter_value("solver.iqp.bound_prunes")
            + telemetry.counter_value("solver.iqp.feasibility_prunes");
        assert!(prunes > 0, "no prunes recorded");
        // A completed solve records no downgrades.
        assert_eq!(telemetry.counter_value("solver.downgrades"), 0);
    }

    #[test]
    fn solve_records_an_incumbent_timeline() {
        let p = cross_term_instance();
        let telemetry = Telemetry::new();
        let sol = p
            .solve(&SolverConfig {
                telemetry: telemetry.clone(),
                ..Default::default()
            })
            .unwrap();
        let series = telemetry.series();
        let incumbents = series
            .iter()
            .find(|(name, _)| name == "solver.incumbents")
            .map(|(_, points)| points.as_slice())
            .expect("solver.incumbents series recorded");
        // The warm start always lands first; B&B improvements (if any)
        // follow, monotonically decreasing in objective.
        assert_eq!(incumbents[0].label, "warm_start");
        for pair in incumbents.windows(2) {
            assert!(pair[1].t_us >= pair[0].t_us, "timeline not ordered");
            assert!(
                pair[1].value <= pair[0].value + 1e-12,
                "incumbent objective increased along the timeline"
            );
        }
        let last = incumbents.last().expect("at least the warm start");
        assert!(
            (last.value - sol.objective).abs() < 1e-9,
            "final incumbent {} != returned objective {}",
            last.value,
            sol.objective
        );
    }

    #[test]
    fn downgrades_emit_timeline_instants_when_tracing() {
        let p = cross_term_instance();
        let telemetry = Telemetry::new();
        telemetry.set_trace_enabled(true);
        let config = SolverConfig {
            max_nodes: 0,
            telemetry: telemetry.clone(),
            ..Default::default()
        };
        p.solve(&config)
            .expect("a node cap falls back instead of erroring");
        clado_telemetry::flush_thread_local();
        let events = telemetry.take_trace_events();
        let downgrade = events
            .iter()
            .find(|e| e.name == "solver.downgrade")
            .expect("downgrade instant on the trace timeline");
        let reason = downgrade
            .args
            .iter()
            .find(|(k, _)| k == "reason")
            .map(|(_, v)| v.clone());
        assert_eq!(
            reason,
            Some(clado_telemetry::ManifestValue::Str(
                "node_cap_exhausted".to_string()
            ))
        );
    }

    #[test]
    fn cross_terms_change_the_optimum() {
        // With the planted negative interaction, the optimum must pair
        // groups 0 and 2 at their cheap setting.
        let p = cross_term_instance();
        for sol in [
            p.solve_exhaustive(),
            p.solve(&SolverConfig::default()).unwrap(),
        ] {
            assert_eq!(sol.choices[0], 0);
            assert_eq!(sol.choices[2], 0);
        }
    }

    /// A separable instance: the diagonal of [`cross_term_instance`].
    fn separable_instance() -> IqpProblem {
        let mut g = SymMatrix::zeros(6);
        for (i, d) in [0.115, 0.0, 0.140, 0.0, 0.246, 0.0].into_iter().enumerate() {
            g.set(i, i, d);
        }
        IqpProblem::new(g, &[2, 2, 2], vec![200, 800, 200, 800, 200, 800], 1200).unwrap()
    }

    fn trail(sol: &Solution) -> Vec<String> {
        sol.downgrades.iter().map(|d| d.to_string()).collect()
    }

    #[test]
    fn preset_cancel_returns_the_greedy_floor_with_one_downgrade() {
        for (p, trail_entry) in [
            (
                cross_term_instance(),
                "branch_and_bound->greedy (cancelled)",
            ),
            (
                separable_instance(),
                "dynamic_programming->greedy (cancelled)",
            ),
        ] {
            let config = SolverConfig::default();
            config.cancel.store(true, Ordering::Relaxed);
            let sol = p.solve(&config).expect("cancel falls back, never errors");
            assert_eq!(sol.choices, p.warm_start().choices);
            assert_eq!(sol.termination, Termination::Cancelled);
            assert_eq!(sol.method_used, MethodUsed::Greedy);
            assert_eq!(trail(&sol), vec![trail_entry]);
            assert!(sol.gap.is_finite() && sol.gap >= 0.0);
        }
    }

    #[test]
    fn expired_deadline_is_deterministic_and_degrades() {
        let p = cross_term_instance();
        let telemetry = Telemetry::new();
        let solve_once = || {
            p.solve(&SolverConfig {
                max_wall: Some(Duration::ZERO),
                telemetry: telemetry.clone(),
                ..Default::default()
            })
            .unwrap()
        };
        let a = solve_once();
        let b = solve_once();
        assert_eq!(a.choices, b.choices, "deadline stop broke determinism");
        assert_eq!(a.termination, Termination::DeadlineExceeded);
        assert!(p.is_feasible(&a.choices));
        assert!(a.gap.is_finite() && a.gap >= 0.0);
        assert_eq!(
            trail(&a),
            vec!["branch_and_bound->greedy (deadline_exceeded)"]
        );
        assert_eq!(telemetry.counter_value("solver.downgrades"), 2);
        assert_eq!(
            telemetry.counter_value("solver.downgrades.deadline_exceeded"),
            2
        );
    }

    /// `layers` groups of 3 with dense cross terms at a quarter of the
    /// diagonal scale — the `clado stress` shape, which branch and bound
    /// cannot finish in seconds.
    fn coupled_instance(layers: usize, seed: u64) -> IqpProblem {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 3 * layers;
        let mut g = SymMatrix::zeros(n);
        for i in 0..n {
            for j in i..n {
                let v = rng.gen_range(-1.0f64..1.0);
                g.set(i, j, if i == j { v.abs() } else { 0.25 * v });
            }
        }
        let params: Vec<u64> = (0..layers).map(|_| 64 * rng.gen_range(1u64..=64)).collect();
        let costs: Vec<u64> = params
            .iter()
            .flat_map(|&p| [2u64, 4, 8].map(|b| p * b))
            .collect();
        let budget = params.iter().sum::<u64>() * 4;
        IqpProblem::new(g, &vec![3; layers], costs, budget).unwrap()
    }

    #[test]
    fn deadline_inside_branch_and_bound_returns_the_warm_start() {
        let p = coupled_instance(32, 7);
        let ctl = Anytime::resolve(None, None, Arc::new(AtomicBool::new(false)));
        let warm = local::run(&p, &ctl).expect("unconstrained run completes");
        let telemetry = Telemetry::new();
        let sol = p
            .solve(&SolverConfig {
                max_nodes: u64::MAX,
                max_wall: Some(Duration::from_millis(300)),
                telemetry: telemetry.clone(),
                ..Default::default()
            })
            .unwrap();
        assert_eq!(sol.termination, Termination::DeadlineExceeded);
        assert_eq!(sol.method_used, MethodUsed::LocalSearch);
        assert_eq!(sol.choices, warm.choices);
        assert!(sol.nodes_explored > 0);
        assert_eq!(
            trail(&sol),
            vec!["branch_and_bound->local_search (deadline_exceeded)"]
        );
        assert_eq!(telemetry.counter_value("solver.downgrades"), 1);
    }

    #[test]
    fn solve_takes_the_exact_dp_path_on_separable_instances() {
        let mut g = SymMatrix::zeros(4);
        g.set(0, 0, 1.0);
        g.set(1, 1, 0.1);
        g.set(2, 2, 0.5);
        g.set(3, 3, 0.05);
        let p = IqpProblem::new(g, &[2, 2], vec![10, 20, 10, 20], 30).unwrap();
        let sol = p.solve(&SolverConfig::default()).unwrap();
        assert_eq!(sol.method_used, MethodUsed::DynamicProgramming);
        assert!(sol.proved_optimal);
        assert_eq!(sol.gap, 0.0);
        assert!(sol.downgrades.is_empty());
    }

    #[test]
    fn a_too_large_dp_table_goes_to_branch_and_bound() {
        // Coprime costs keep the gcd at 1, so the DP table would be
        // 5,000,000 cells wide, past its 4,000,000 limit.
        let mut g = SymMatrix::zeros(6);
        for (i, d) in [1.0, 0.1, 0.5, 0.05, 0.8, 0.2].into_iter().enumerate() {
            g.set(i, i, d);
        }
        let costs = vec![1, 2_000_003, 1, 2_000_003, 1, 2_000_003];
        let p = IqpProblem::new(g, &[2, 2, 2], costs, 5_000_000).unwrap();
        let sol = p.solve(&SolverConfig::default()).unwrap();
        assert_eq!(sol.termination, Termination::Proved);
        assert_eq!(sol.method_used, MethodUsed::BranchAndBound);
        assert_eq!(
            trail(&sol),
            vec!["dynamic_programming->branch_and_bound (table_too_large)"]
        );
        let exhaustive = p.solve_exhaustive();
        assert_eq!(sol.choices, exhaustive.choices);
        assert_eq!(sol.objective, exhaustive.objective);
    }

    /// `layers` groups of 3 (2/4/8 bits) whose diagonal falls 16× per
    /// bit-width step, with cross terms at 5% of the diagonal scale, after
    /// the PSD projection: weakly coupled, like a measured Ω.
    fn weakly_coupled_instance(layers: usize, seed: u64) -> IqpProblem {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 3 * layers;
        let diag: Vec<f64> = (0..n)
            .map(|v| rng.gen_range(0.1..1.0) * [16.0, 1.0, 0.0625][v % 3])
            .collect();
        let mut g = SymMatrix::zeros(n);
        for i in 0..n {
            for j in i..n {
                let v = if i == j {
                    diag[i]
                } else if i / 3 == j / 3 {
                    0.0
                } else {
                    0.05 * (diag[i] * diag[j]).sqrt() * rng.gen_range(-1.0..1.0)
                };
                g.set(i, j, v);
            }
        }
        let params: Vec<u64> = (0..layers).map(|_| 64 * rng.gen_range(1u64..=64)).collect();
        let costs: Vec<u64> = params
            .iter()
            .flat_map(|&p| [2u64, 4, 8].map(|b| p * b))
            .collect();
        let budget = params.iter().sum::<u64>() * 7 / 2;
        IqpProblem::new(g.psd_project(), &vec![3; layers], costs, budget).unwrap()
    }

    #[test]
    fn the_diagonal_dp_can_beat_a_node_capped_incumbent() {
        // Pinned by a seeded search: at a 10-node cap the B&B incumbent is
        // still the warm start, and the DP on the diagonal scores better
        // on the true objective.
        let p = weakly_coupled_instance(6, 65);
        let ctl = Anytime::resolve(None, None, Arc::new(AtomicBool::new(false)));
        let warm = local::run(&p, &ctl).expect("unconstrained run completes");
        let sol = p
            .solve(&SolverConfig {
                max_nodes: 10,
                ..Default::default()
            })
            .unwrap();
        assert_eq!(sol.method_used, MethodUsed::DiagonalDp);
        assert_eq!(sol.termination, Termination::NodeCapExhausted);
        assert_eq!(
            trail(&sol),
            vec!["branch_and_bound->diagonal_dp (node_cap_exhausted)"]
        );
        assert!(sol.objective < warm.objective, "{sol:?} vs {warm:?}");
        assert_eq!(sol.objective, p.assignment_objective(&sol.choices));
        let proved = p.solve(&SolverConfig::default()).unwrap();
        assert!(proved.proved_optimal);
        assert!(proved.objective <= sol.objective);
    }
}
