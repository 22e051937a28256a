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
//! `cost` is `|w⁽ⁱ⁾|·b_m` in bits. Several solvers are provided:
//!
//! * [`SolveMethod::BranchAndBound`] — exact (within a node budget), with two
//!   admissible node bounds that both end in a Dantzig-style LP relaxation
//!   of the multiple-choice knapsack: a row-min linearization of the
//!   quadratic terms, and Frank–Wolfe on a convexified objective, which
//!   the PSD projection makes tight;
//! * [`SolveMethod::LocalSearch`] — multi-start greedy descent, used
//!   standalone for large instances and as the B&B incumbent;
//! * [`SolveMethod::DynamicProgramming`] — exact multiple-choice knapsack
//!   for separable (diagonal) objectives;
//! * [`SolveMethod::Exhaustive`] — brute force, for small instances and
//!   testing.
//!
//! # Anytime solving
//!
//! [`IqpProblem::solve`] is *anytime*: it honours a wall-clock deadline and
//! a cooperative cancel flag ([`SolverConfig::deadline`],
//! [`SolverConfig::max_wall`], [`SolverConfig::cancel`]) and always returns
//! a feasible [`Solution`] carrying an optimality [`Solution::gap`], the
//! [`MethodUsed`], and a [`Termination`] status. When a method cannot
//! complete — timeout, cancellation, non-separable objective handed to the
//! DP, or node-cap exhaustion — a degradation ladder
//! (exhaustive → B&B → DP-on-diagonal → local search → greedy) steps down,
//! recording a typed [`Downgrade`] per step. Determinism is preserved under
//! deadlines: stop checks fire on node-count boundaries and never influence
//! pruning, and incumbents from wall-clock-interrupted searches are
//! discarded rather than returned (see [`deadline`](self) module docs), so
//! identical seed + config yields bitwise-identical `choices`.

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
    /// The dynamic-programming solver was asked to solve an instance with
    /// cross-layer terms (or one whose scaled budget exceeds the DP table
    /// limit, signalled by a negative `defect`).
    NotSeparable {
        /// Largest absolute off-diagonal-block entry; `-1.0` means the
        /// instance is separable but too large for the DP table.
        defect: f64,
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
    /// A partially-observed Ω (a `clado-estim` product) has a diagonal
    /// entry without an observation; the objective cannot rank that
    /// variable at all, so estimation must always spend budget on every
    /// diagonal probe.
    UnobservedDiagonal {
        /// First diagonal index without an observation.
        index: usize,
    },
    /// The raw Ω buffer is materially asymmetric (strict hardening only;
    /// the lenient path symmetrizes instead).
    AsymmetricObjective {
        /// Largest absolute difference `|a_ij − a_ji|` found.
        defect: f64,
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
            Self::NotSeparable { defect } if *defect < 0.0 => {
                write!(
                    f,
                    "instance too large for the DP table; use branch and bound"
                )
            }
            Self::NotSeparable { defect } => write!(
                f,
                "instance has cross-layer terms (max |off-diagonal| = {defect:.3e}); \
                 the DP solver handles separable objectives only"
            ),
            Self::NonFiniteObjective { row, col, value } => write!(
                f,
                "objective matrix entry ({row}, {col}) is non-finite ({value}); \
                 quarantine or re-measure the sensitivity before solving"
            ),
            Self::UnobservedDiagonal { index } => write!(
                f,
                "partially-observed objective has no observation for diagonal \
                 entry {index}; the estimator budget must cover every diagonal probe"
            ),
            Self::AsymmetricObjective { defect } => write!(
                f,
                "objective matrix is asymmetric (max |a_ij − a_ji| = {defect:.3e}) \
                 under strict hardening; re-measure or drop --solver-strict to symmetrize"
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

/// Solver strategy selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolveMethod {
    /// Exact DP when the instance is separable, otherwise local-search warm
    /// start followed by branch-and-bound within the node cap.
    #[default]
    Auto,
    /// Branch and bound (warm-started by multi-start local search).
    BranchAndBound,
    /// Multi-start local search only.
    LocalSearch,
    /// Exact multiple-choice-knapsack dynamic programming; separable
    /// (diagonal) objectives only — the classic HAWQ-style ILP path.
    /// Non-separable instances degrade to [`MethodUsed::DiagonalDp`].
    DynamicProgramming,
    /// Full enumeration (exponential; small instances only).
    Exhaustive,
}

/// Solver configuration.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Strategy to use.
    pub method: SolveMethod,
    /// Maximum number of branch-and-bound nodes before the ladder steps
    /// down with the best incumbent (deterministic stop).
    pub max_nodes: u64,
    /// Number of local-search restarts.
    pub restarts: usize,
    /// RNG seed for local-search perturbations.
    pub seed: u64,
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
            method: SolveMethod::Auto,
            max_nodes: 2_000_000,
            restarts: 24,
            seed: 0x51AD0,
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
    /// Whether optimality was proved (B&B / exhaustive completed, or exact
    /// DP on a separable instance). Equivalent to
    /// `termination == Termination::Proved`.
    pub proved_optimal: bool,
    /// Branch-and-bound nodes explored (0 for other methods).
    pub nodes_explored: u64,
    /// Upper bound on the suboptimality of `objective`: the true optimum is
    /// at least `objective - gap`. Zero when optimality was proved;
    /// otherwise the distance to the larger of the branch-and-bound root
    /// bounds (row-min and convex), so it is finite but can be loose.
    pub gap: f64,
    /// The method (ladder rung) that produced `choices`.
    pub method_used: MethodUsed,
    /// How the solve terminated.
    pub termination: Termination,
    /// The degradation-ladder trail: one entry per rung that could not
    /// complete. Empty when the requested method ran to completion.
    pub downgrades: Vec<Downgrade>,
}

/// A feasible assignment produced by one ladder rung (internal currency of
/// the degradation ladder; `solve` turns the winner into a [`Solution`]).
#[derive(Debug, Clone)]
pub(crate) struct Candidate {
    pub(crate) choices: Vec<usize>,
    pub(crate) objective: f64,
    pub(crate) cost: u64,
    pub(crate) method: MethodUsed,
    pub(crate) proved: bool,
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
            proved: false,
        }
    }
}

/// Keeps `a` unless `b` is strictly better; ties favour the earlier rung,
/// which is deterministic.
fn better(a: Candidate, b: Candidate) -> Candidate {
    if b.objective < a.objective {
        b
    } else {
        a
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

    /// The greedy budget-filling construction: the deterministic warm start
    /// every heuristic begins from, and the floor of the degradation
    /// ladder. Cheap (`O(k²·|𝔹|²)`), always feasible, never fails — this is
    /// the assignment `solve` returns when the cancel flag is already
    /// raised at entry.
    pub fn warm_start(&self) -> Solution {
        let cand = local::greedy_candidate(self);
        Solution {
            choices: cand.choices,
            objective: cand.objective,
            cost: cand.cost,
            proved_optimal: false,
            nodes_explored: 0,
            gap: (cand.objective - bounds::root_lower_bound(self)).max(0.0),
            method_used: MethodUsed::Greedy,
            termination: Termination::Heuristic,
            downgrades: Vec::new(),
        }
    }

    /// Solves the program with the configured strategy, anytime-style: the
    /// result is always a feasible assignment, with [`Solution::gap`],
    /// [`Solution::termination`], and the [`Solution::downgrades`] trail
    /// describing how close to optimal it is and which ladder rungs ran.
    ///
    /// # Errors
    ///
    /// None in practice: [`IqpProblem::new`] already validates dimensions,
    /// finiteness, feasibility, and cost overflow, and every runtime
    /// failure mode (timeout, cancellation, non-separable DP input, node
    /// caps) degrades to a feasible fallback instead of erroring. The
    /// `Result` is kept so future validation can fail without an API break.
    pub fn solve(&self, config: &SolverConfig) -> Result<Solution, IqpError> {
        let telemetry = &config.telemetry;
        let _span = telemetry.span("solver.iqp");
        let ctl = Anytime::resolve(config.deadline, config.max_wall, config.cancel.clone());
        let mut trail: Vec<Downgrade> = Vec::new();
        let (winner, nodes, first_stop) = self.run_ladder(config, &ctl, &mut trail);
        for d in &trail {
            telemetry.add("solver.downgrades", 1);
            telemetry.add(&format!("solver.downgrades.{}", d.reason.slug()), 1);
        }
        let termination = if winner.proved {
            Termination::Proved
        } else {
            match first_stop {
                Some(Stop::Cancelled) => Termination::Cancelled,
                Some(Stop::Deadline) => Termination::DeadlineExceeded,
                Some(Stop::NodeCap) => Termination::NodeCapExhausted,
                None => Termination::Heuristic,
            }
        };
        let gap = if winner.proved {
            0.0
        } else {
            (winner.objective - bounds::root_lower_bound(self)).max(0.0)
        };
        telemetry.set_gauge("solver.iqp.gap", gap);
        Ok(Solution {
            choices: winner.choices,
            objective: winner.objective,
            cost: winner.cost,
            proved_optimal: winner.proved,
            nodes_explored: nodes,
            gap,
            method_used: winner.method,
            termination,
            downgrades: trail,
        })
    }

    /// Walks the degradation ladder from the configured entry rung down to
    /// the greedy floor, carrying the best deterministically obtained
    /// incumbent. Returns the winning candidate, total B&B nodes explored,
    /// and the first stop signal observed (if any).
    fn run_ladder(
        &self,
        config: &SolverConfig,
        ctl: &Anytime,
        trail: &mut Vec<Downgrade>,
    ) -> (Candidate, u64, Option<Stop>) {
        let telemetry = &config.telemetry;
        let mut rung = self.entry_rung(config.method);
        let mut carried: Option<Candidate> = None;
        let mut nodes = 0u64;
        let mut first_stop: Option<Stop> = None;
        let note = |slot: &mut Option<Stop>, stop: Stop| {
            slot.get_or_insert(stop);
        };
        // Every ladder step lands both in the typed trail and, when tracing
        // is on, as an instant on the trace timeline so downgrades line up
        // with the incumbent curve.
        let step = |trail: &mut Vec<Downgrade>, d: Downgrade| {
            telemetry.instant(
                "solver.downgrade",
                &[
                    ("from", d.from.label().into()),
                    ("to", d.to.label().into()),
                    ("reason", d.reason.slug().into()),
                ],
            );
            trail.push(d);
        };
        let finish = |carried: Option<Candidate>, last: Candidate| match carried {
            Some(c) => better(c, last),
            None => last,
        };
        loop {
            // A rung reached after the stop signal is already raised is
            // skipped outright — running it would waste the deadline, and
            // for wall-clock stops its result would be nondeterministic.
            if rung != MethodUsed::Greedy {
                if let Some(stop) = ctl.check_now() {
                    note(&mut first_stop, stop);
                    let to = next_rung(rung);
                    step(
                        trail,
                        Downgrade {
                            from: rung,
                            to,
                            reason: stop.into(),
                        },
                    );
                    rung = to;
                    continue;
                }
            }
            match rung {
                MethodUsed::Exhaustive => {
                    let _s = telemetry.span("solver.iqp.exhaustive");
                    match exhaustive::run(self, ctl) {
                        Ok(cand) => {
                            telemetry.series_push(
                                "solver.incumbents",
                                cand.objective,
                                "exhaustive",
                            );
                            return (finish(carried, cand), nodes, first_stop);
                        }
                        Err(stop) => {
                            note(&mut first_stop, stop);
                            step(
                                trail,
                                Downgrade {
                                    from: rung,
                                    to: MethodUsed::BranchAndBound,
                                    reason: stop.into(),
                                },
                            );
                            rung = MethodUsed::BranchAndBound;
                        }
                    }
                }
                MethodUsed::DynamicProgramming => {
                    let defect = dp::separability_defect(self);
                    if defect > 0.0 {
                        step(
                            trail,
                            Downgrade {
                                from: rung,
                                to: MethodUsed::DiagonalDp,
                                reason: DowngradeReason::NotSeparable { defect },
                            },
                        );
                        rung = MethodUsed::DiagonalDp;
                        continue;
                    }
                    let _s = telemetry.span("solver.iqp.dp");
                    match dp::knapsack(self, ctl) {
                        dp::DpOutcome::Solved(choices) => {
                            let mut cand = Candidate::evaluated(self, choices, rung);
                            cand.proved = true;
                            telemetry.series_push("solver.incumbents", cand.objective, "dp");
                            return (finish(carried, cand), nodes, first_stop);
                        }
                        dp::DpOutcome::TooLarge => {
                            // The diagonal rung would hit the same table
                            // limit; skip straight to local search.
                            step(
                                trail,
                                Downgrade {
                                    from: rung,
                                    to: MethodUsed::LocalSearch,
                                    reason: DowngradeReason::TableTooLarge,
                                },
                            );
                            rung = MethodUsed::LocalSearch;
                        }
                        dp::DpOutcome::Stopped(stop) => {
                            note(&mut first_stop, stop);
                            step(
                                trail,
                                Downgrade {
                                    from: rung,
                                    to: MethodUsed::LocalSearch,
                                    reason: stop.into(),
                                },
                            );
                            rung = MethodUsed::LocalSearch;
                        }
                    }
                }
                MethodUsed::BranchAndBound => {
                    let warm = {
                        let _s = telemetry.span("solver.iqp.local");
                        local::run(self, config, ctl)
                    };
                    match warm {
                        local::LocalRun::Done(warm) => {
                            telemetry.series_push(
                                "solver.incumbents",
                                warm.objective,
                                "warm_start",
                            );
                            let _s = telemetry.span("solver.iqp.branch");
                            let bb = bnb::run(self, config, &warm, ctl);
                            nodes += bb.nodes;
                            match bb.stop {
                                None => {
                                    let cand = Candidate {
                                        proved: true,
                                        method: rung,
                                        ..Candidate::evaluated(self, bb.choices, rung)
                                    };
                                    return (finish(carried, cand), nodes, first_stop);
                                }
                                Some(stop @ Stop::NodeCap) => {
                                    // Node-cap stops are deterministic, so
                                    // the incumbent (≥ warm) is kept.
                                    note(&mut first_stop, stop);
                                    let cand = Candidate::evaluated(self, bb.choices, rung);
                                    carried = Some(match carried {
                                        Some(c) => better(c, cand),
                                        None => cand,
                                    });
                                    step(
                                        trail,
                                        Downgrade {
                                            from: rung,
                                            to: MethodUsed::DiagonalDp,
                                            reason: stop.into(),
                                        },
                                    );
                                    rung = MethodUsed::DiagonalDp;
                                }
                                Some(stop) => {
                                    // Wall-clock stop: discard the partial
                                    // incumbent (nondeterministic stopping
                                    // point), keep the completed warm start.
                                    note(&mut first_stop, stop);
                                    carried = Some(match carried {
                                        Some(c) => better(c, warm),
                                        None => warm,
                                    });
                                    step(
                                        trail,
                                        Downgrade {
                                            from: rung,
                                            to: MethodUsed::DiagonalDp,
                                            reason: stop.into(),
                                        },
                                    );
                                    rung = MethodUsed::DiagonalDp;
                                }
                            }
                        }
                        local::LocalRun::Aborted { stop, greedy } => {
                            note(&mut first_stop, stop);
                            carried = Some(match carried {
                                Some(c) => better(c, greedy),
                                None => greedy,
                            });
                            step(
                                trail,
                                Downgrade {
                                    from: rung,
                                    to: MethodUsed::DiagonalDp,
                                    reason: stop.into(),
                                },
                            );
                            rung = MethodUsed::DiagonalDp;
                        }
                    }
                }
                MethodUsed::DiagonalDp => {
                    let _s = telemetry.span("solver.iqp.dp");
                    match dp::knapsack(self, ctl) {
                        dp::DpOutcome::Solved(choices) => {
                            let mut cand = Candidate::evaluated(self, choices, rung);
                            // The diagonal relaxation is exact when the
                            // instance happens to be separable.
                            cand.proved = dp::separability_defect(self) == 0.0;
                            if cand.proved {
                                cand.method = MethodUsed::DynamicProgramming;
                            }
                            telemetry.series_push(
                                "solver.incumbents",
                                cand.objective,
                                "diagonal_dp",
                            );
                            return (finish(carried, cand), nodes, first_stop);
                        }
                        dp::DpOutcome::TooLarge => {
                            step(
                                trail,
                                Downgrade {
                                    from: rung,
                                    to: MethodUsed::LocalSearch,
                                    reason: DowngradeReason::TableTooLarge,
                                },
                            );
                            rung = MethodUsed::LocalSearch;
                        }
                        dp::DpOutcome::Stopped(stop) => {
                            note(&mut first_stop, stop);
                            step(
                                trail,
                                Downgrade {
                                    from: rung,
                                    to: MethodUsed::LocalSearch,
                                    reason: stop.into(),
                                },
                            );
                            rung = MethodUsed::LocalSearch;
                        }
                    }
                }
                MethodUsed::LocalSearch => {
                    let _s = telemetry.span("solver.iqp.local");
                    match local::run(self, config, ctl) {
                        local::LocalRun::Done(cand) => {
                            telemetry.series_push(
                                "solver.incumbents",
                                cand.objective,
                                "local_search",
                            );
                            return (finish(carried, cand), nodes, first_stop);
                        }
                        local::LocalRun::Aborted { stop, greedy } => {
                            note(&mut first_stop, stop);
                            carried = Some(match carried {
                                Some(c) => better(c, greedy),
                                None => greedy,
                            });
                            step(
                                trail,
                                Downgrade {
                                    from: rung,
                                    to: MethodUsed::Greedy,
                                    reason: stop.into(),
                                },
                            );
                            rung = MethodUsed::Greedy;
                        }
                    }
                }
                MethodUsed::Greedy => {
                    // The floor: pure deterministic construction, runs even
                    // with the cancel flag raised.
                    let cand = local::greedy_candidate(self);
                    telemetry.series_push("solver.incumbents", cand.objective, "greedy");
                    return (finish(carried, cand), nodes, first_stop);
                }
            }
        }
    }

    fn entry_rung(&self, method: SolveMethod) -> MethodUsed {
        match method {
            SolveMethod::Exhaustive => MethodUsed::Exhaustive,
            SolveMethod::DynamicProgramming => MethodUsed::DynamicProgramming,
            SolveMethod::BranchAndBound => MethodUsed::BranchAndBound,
            SolveMethod::LocalSearch => MethodUsed::LocalSearch,
            // Separable instances (the HAWQ/MPQCO/CLADO* baselines) get the
            // exact DP fast path; quadratic ones go to warm-started B&B.
            SolveMethod::Auto => {
                if dp::separability_defect(self) == 0.0 {
                    MethodUsed::DynamicProgramming
                } else {
                    MethodUsed::BranchAndBound
                }
            }
        }
    }
}

/// The rung below `rung` on the degradation ladder.
fn next_rung(rung: MethodUsed) -> MethodUsed {
    match rung {
        MethodUsed::Exhaustive => MethodUsed::BranchAndBound,
        MethodUsed::BranchAndBound => MethodUsed::DiagonalDp,
        MethodUsed::DynamicProgramming | MethodUsed::DiagonalDp => MethodUsed::LocalSearch,
        MethodUsed::LocalSearch | MethodUsed::Greedy => MethodUsed::Greedy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        for method in [
            SolveMethod::Auto,
            SolveMethod::LocalSearch,
            SolveMethod::BranchAndBound,
            SolveMethod::Exhaustive,
        ] {
            let sol = p
                .solve(&SolverConfig {
                    method,
                    ..Default::default()
                })
                .unwrap();
            assert!(sol.cost <= p.budget(), "{method:?} violated the budget");
            assert_eq!(sol.choices, vec![1, 0], "{method:?} missed the optimum");
        }
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
        // all-cheapest one — and every method must return it.
        let mut g = SymMatrix::zeros(4);
        g.set(0, 0, 5.0);
        g.set(1, 1, 0.0);
        g.set(2, 2, 3.0);
        g.set(3, 3, 0.0);
        let p = IqpProblem::new(g, &[2, 2], vec![5, 9, 7, 9], 12).expect("tight but feasible");
        for method in [
            SolveMethod::Auto,
            SolveMethod::BranchAndBound,
            SolveMethod::LocalSearch,
            SolveMethod::DynamicProgramming,
            SolveMethod::Exhaustive,
        ] {
            let sol = p
                .solve(&SolverConfig {
                    method,
                    ..Default::default()
                })
                .unwrap();
            assert_eq!(sol.choices, vec![0, 0], "{method:?}");
            assert_eq!(sol.cost, 12, "{method:?}");
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
    fn all_methods_agree_on_small_instance() {
        let p = cross_term_instance();
        let exhaustive = p
            .solve(&SolverConfig {
                method: SolveMethod::Exhaustive,
                ..Default::default()
            })
            .unwrap();
        for method in [
            SolveMethod::Auto,
            SolveMethod::BranchAndBound,
            SolveMethod::LocalSearch,
        ] {
            let sol = p
                .solve(&SolverConfig {
                    method,
                    ..Default::default()
                })
                .unwrap();
            assert!(
                (sol.objective - exhaustive.objective).abs() < 1e-9,
                "{method:?}: {} vs exhaustive {}",
                sol.objective,
                exhaustive.objective
            );
            assert!(sol.cost <= p.budget());
            assert!(sol.gap >= 0.0 && sol.gap.is_finite(), "{method:?}");
            assert!(
                sol.objective - sol.gap <= exhaustive.objective + 1e-9,
                "{method:?}: gap does not cover the optimum"
            );
        }
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
                method: SolveMethod::BranchAndBound,
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
                method: SolveMethod::BranchAndBound,
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
            method: SolveMethod::DynamicProgramming,
            telemetry: telemetry.clone(),
            ..Default::default()
        };
        p.solve(&config).expect("DP degrades instead of erroring");
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
                "not_separable".to_string()
            ))
        );
    }

    #[test]
    fn cross_terms_change_the_optimum() {
        // With the planted negative interaction, the optimum must pair
        // groups 0 and 2 at their cheap setting.
        let p = cross_term_instance();
        let sol = p
            .solve(&SolverConfig {
                method: SolveMethod::Exhaustive,
                ..Default::default()
            })
            .unwrap();
        assert_eq!(sol.choices[0], 0);
        assert_eq!(sol.choices[2], 0);
    }

    #[test]
    fn preset_cancel_returns_the_warm_start_for_every_method() {
        let p = cross_term_instance();
        let reference = p.warm_start();
        for method in [
            SolveMethod::Auto,
            SolveMethod::BranchAndBound,
            SolveMethod::LocalSearch,
            SolveMethod::DynamicProgramming,
            SolveMethod::Exhaustive,
        ] {
            let config = SolverConfig {
                method,
                ..Default::default()
            };
            config.cancel.store(true, Ordering::Relaxed);
            let sol = p.solve(&config).expect("cancel degrades, never errors");
            assert_eq!(sol.choices, reference.choices, "{method:?}");
            assert_eq!(sol.termination, Termination::Cancelled, "{method:?}");
            assert_eq!(sol.method_used, MethodUsed::Greedy, "{method:?}");
            assert!(!sol.downgrades.is_empty(), "{method:?}: no trail recorded");
            assert!(sol.gap.is_finite() && sol.gap >= 0.0, "{method:?}");
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
        assert!(!a.downgrades.is_empty());
        assert!(telemetry.counter_value("solver.downgrades") > 0);
        assert!(telemetry.counter_value("solver.downgrades.deadline_exceeded") > 0);
    }

    #[test]
    fn auto_takes_the_exact_dp_path_on_separable_instances() {
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
    fn explicit_dp_on_cross_terms_degrades_to_diagonal() {
        let p = cross_term_instance();
        let telemetry = Telemetry::new();
        let sol = p
            .solve(&SolverConfig {
                method: SolveMethod::DynamicProgramming,
                telemetry: telemetry.clone(),
                ..Default::default()
            })
            .expect("DP degrades instead of erroring");
        assert!(p.is_feasible(&sol.choices));
        assert_eq!(sol.method_used, MethodUsed::DiagonalDp);
        assert_eq!(sol.termination, Termination::Heuristic);
        assert!(!sol.proved_optimal);
        assert!(sol.gap.is_finite() && sol.gap >= 0.0);
        assert_eq!(sol.downgrades.len(), 1);
        assert!(matches!(
            sol.downgrades[0].reason,
            DowngradeReason::NotSeparable { defect } if defect > 0.0
        ));
        assert_eq!(telemetry.counter_value("solver.downgrades"), 1);
        assert_eq!(
            telemetry.counter_value("solver.downgrades.not_separable"),
            1
        );
        // The diagonal approximation scores its choices on the TRUE
        // objective, cross terms included.
        assert!((sol.objective - p.assignment_objective(&sol.choices)).abs() < 1e-12);
    }
}
