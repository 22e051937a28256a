//! Exact branch and bound for the bit-width IQP.
//!
//! Depth-first search over layers. A node is cut by the first of these
//! tests that succeeds:
//!
//! 1. **Budget feasibility**: the cheapest completion exceeds the budget.
//! 2. **Row-min bound**: the exact objective of the assigned prefix plus a
//!    per-candidate linearization of the remaining quadratic terms
//!    (interactions with assigned layers exactly; interactions among
//!    unassigned layers via per-row minima), with the Dantzig LP
//!    relaxation of the multiple-choice knapsack over the linearized
//!    coefficients accounting for the budget.
//! 3. **Convex bound**: the tangent plane of the convexified objective
//!    `h(x) = xᵀ(Ĝ − λI)x + λ·Σx`, `λ = min(λ_min(Ĝ), 0)`, at the parent's
//!    relaxed iterate, then up to [`NODE_FW_STEPS`] Frank–Wolfe steps
//!    ([`ROOT_FW_STEPS`] at the root), each certifying
//!    `h(x) + min_s ∇h(x)·(s − x)` over the node's relaxed polytope. `h`
//!    equals the objective on every plan and is convex, and its inner
//!    minimum is the same MCKP LP (see [`FrankWolfe`]). λ is computed once
//!    per solve; it is ≈ 0 on a PSD-projected Ĝ, so the projection the
//!    paper pays for is what makes this bound tight.
//!
//! A convex bound prunes only when it clears the incumbent by a rounding
//! margin scaled to ‖Ĝ‖ on top of the row-min test's `1e-12`. A subtree
//! it cuts therefore holds no plan that would have replaced the
//! incumbent, and the search returns the plan the row-min bound alone
//! returns (barring distinct plans whose objectives tie to the last bits
//! of the running sums). Nodes allocate nothing: the LP, the child order
//! and the per-depth iterates live in buffers sized once in
//! `Search::new`.
//!
//! The search is anytime: every [`TICK_MASK`]+1 nodes it consults the
//! [`Anytime`] control block, and it stops deterministically when the node
//! cap is exhausted. The stop check never influences pruning or child
//! ordering, so two runs visit identical nodes until one is stopped.

use super::bounds::{
    insertion_sort_by, mckp_lp_bound, FrankWolfe, Layout, McKp, NODE_FW_STEPS, ROOT_FW_STEPS,
};
use super::deadline::{Anytime, Stop, TICK_MASK};
use super::{Candidate, IqpProblem, SolverConfig};
use clado_telemetry::Telemetry;

/// Outcome of one branch-and-bound run.
pub(super) struct BnbRun {
    /// Best incumbent found (always feasible; at least as good as the warm
    /// start). On a wall-clock stop the caller must discard this in favour
    /// of a deterministically obtained solution.
    pub(super) choices: Vec<usize>,
    /// Nodes explored.
    pub(super) nodes: u64,
    /// `None` if the search completed (optimality proved).
    pub(super) stop: Option<Stop>,
}

/// Search state. Variables are indexed in visit order ([`Layout`]).
struct Search<'p> {
    problem: &'p IqpProblem,
    ctl: &'p Anytime,
    /// Incumbent-timeline sink: every strict improvement is pushed to the
    /// `solver.incumbents` series (no-op on a disabled handle).
    telemetry: &'p Telemetry,
    /// Groups in visit order, Ĝ dense in that order.
    layout: Layout,
    /// `rowmin[i * k + pos]`: min over candidates `j` of the group at
    /// position `pos` of `Ĝ[i][j]`.
    rowmin: Vec<f64>,
    /// `suffix_rowmin[i * (k + 1) + depth] = Σ_{pos ≥ depth} rowmin[i][pos]`.
    suffix_rowmin: Vec<f64>,
    /// `suffix_min_cost[depth]`: cheapest completion cost of groups at
    /// positions ≥ depth.
    suffix_min_cost: Vec<u64>,
    /// `inter[i] = 2 Σ_{assigned j} Ĝ[i][j]`.
    inter: Vec<f64>,
    /// Current prefix objective.
    assigned_obj: f64,
    /// Current prefix cost.
    assigned_cost: u64,
    /// Current prefix choices (by position).
    prefix: Vec<usize>,
    /// Best-known full assignment (by group index).
    best_choices: Vec<usize>,
    best_obj: f64,
    /// LP buffers shared by the row-min and convex bounds.
    lp: McKp,
    /// Per-depth relaxed iterates of the convex bound.
    fw: FrankWolfe,
    /// `(coefficient, candidate)` child order, `width` slots per depth.
    children: Vec<(f64, usize)>,
    width: usize,
    nodes: u64,
    /// Nodes cut by the row-min LP-knapsack bound.
    bound_prunes: u64,
    /// Nodes cut by the tangent or a Frank–Wolfe bound.
    convex_prunes: u64,
    /// Frank–Wolfe steps taken (tangent bounds not counted).
    fw_steps: u64,
    /// Nodes (and children) cut by budget infeasibility.
    feasibility_prunes: u64,
    max_nodes: u64,
    aborted: Option<Stop>,
}

impl<'p> Search<'p> {
    fn new(
        problem: &'p IqpProblem,
        warm: &Candidate,
        max_nodes: u64,
        ctl: &'p Anytime,
        telemetry: &'p Telemetry,
    ) -> Self {
        let k = problem.num_groups();
        // Visit groups with the widest cost spread first: their budget
        // impact is largest, so decisions near the root prune best.
        let mut order: Vec<usize> = (0..k).collect();
        let spread = |i: usize| {
            let costs: Vec<u64> = (0..problem.group_size(i))
                .map(|m| problem.cost(i, m))
                .collect();
            costs.iter().max().copied().unwrap_or(0) - costs.iter().min().copied().unwrap_or(0)
        };
        order.sort_by_key(|&i| std::cmp::Reverse(spread(i)));
        let layout = Layout::new(problem, order);
        let n = layout.n;
        let off = &layout.off;

        let mut rowmin = vec![0.0f64; n * k];
        let mut suffix_rowmin = vec![0.0f64; n * (k + 1)];
        for i in 0..n {
            for pos in 0..k {
                rowmin[i * k + pos] = (off[pos]..off[pos + 1])
                    .map(|j| layout.get(i, j))
                    .fold(f64::INFINITY, f64::min);
            }
            for pos in (0..k).rev() {
                suffix_rowmin[i * (k + 1) + pos] =
                    suffix_rowmin[i * (k + 1) + pos + 1] + rowmin[i * k + pos];
            }
        }
        let mut suffix_min_cost = vec![0u64; k + 1];
        for pos in (0..k).rev() {
            let min_c = layout.cost[off[pos]..off[pos + 1]]
                .iter()
                .copied()
                .min()
                .unwrap_or(0);
            suffix_min_cost[pos] = suffix_min_cost[pos + 1] + min_c;
        }
        // The root's relaxed iterate starts at the warm start.
        let start: Vec<(usize, f64)> = (0..k)
            .map(|pos| (off[pos] + warm.choices[layout.order[pos]], 1.0))
            .collect();
        let fw = FrankWolfe::new(problem, &layout, &start);
        let width = (0..k).map(|pos| off[pos + 1] - off[pos]).max().unwrap_or(0);

        Self {
            problem,
            ctl,
            telemetry,
            rowmin,
            suffix_rowmin,
            suffix_min_cost,
            inter: vec![0.0; n],
            assigned_obj: 0.0,
            assigned_cost: 0,
            prefix: Vec::with_capacity(k),
            best_choices: warm.choices.clone(),
            best_obj: warm.objective,
            lp: McKp::default(),
            fw,
            children: vec![(0.0, 0); k * width],
            width,
            layout,
            nodes: 0,
            bound_prunes: 0,
            convex_prunes: 0,
            fw_steps: 0,
            feasibility_prunes: 0,
            max_nodes,
            aborted: None,
        }
    }

    /// Linearized coefficient of variable `i` (of the group at `pos`),
    /// admissible for any completion of the groups at positions ≥ `depth`.
    fn coef(&self, depth: usize, pos: usize, i: usize) -> f64 {
        let k = self.layout.groups();
        self.layout.get(i, i) + self.inter[i] + self.suffix_rowmin[i * (k + 1) + depth]
            - self.rowmin[i * k + pos]
    }

    /// Assigns candidate `m` to the group at position `depth`; returns the
    /// objective it added, for [`Search::unassign`].
    fn assign(&mut self, depth: usize, m: usize) -> f64 {
        let v = self.layout.off[depth] + m;
        let obj_add = self.layout.get(v, v) + self.inter[v];
        self.assigned_obj += obj_add;
        self.assigned_cost += self.layout.cost[v];
        for u in 0..self.inter.len() {
            self.inter[u] += 2.0 * self.layout.get(u, v);
        }
        self.prefix.push(m);
        obj_add
    }

    /// Undoes [`Search::assign`] in reverse order of its updates.
    fn unassign(&mut self, depth: usize, m: usize, obj_add: f64) {
        let v = self.layout.off[depth] + m;
        self.prefix.pop();
        for u in 0..self.inter.len() {
            self.inter[u] -= 2.0 * self.layout.get(u, v);
        }
        self.assigned_cost -= self.layout.cost[v];
        self.assigned_obj -= obj_add;
    }

    /// The convex bound at the current node of depth `depth` with
    /// `remaining` budget, stopping early at `cutoff`; returns the bound.
    fn convex_bound(&mut self, depth: usize, remaining: u64, cutoff: f64) -> f64 {
        let steps = if depth == 0 {
            ROOT_FW_STEPS
        } else {
            NODE_FW_STEPS
        };
        let (bound, taken) = self.fw.node_bound(
            &self.layout,
            &mut self.lp,
            depth,
            self.assigned_obj,
            &self.inter,
            remaining,
            steps,
            cutoff,
        );
        self.fw_steps += taken;
        bound
    }

    fn dfs(&mut self, depth: usize) {
        if self.aborted.is_some() {
            return;
        }
        // `nodes` counts visited nodes only, so a node-cap stop reports
        // exactly the cap.
        if self.nodes >= self.max_nodes {
            self.aborted = Some(Stop::NodeCap);
            return;
        }
        self.nodes += 1;
        // Cooperative stop check on node-count boundaries only, so the set
        // of visited nodes up to any stop is identical across runs.
        if self.nodes & TICK_MASK == 0 {
            if let Some(stop) = self.ctl.check_now() {
                self.aborted = Some(stop);
                return;
            }
        }
        let k = self.layout.groups();
        if depth == k {
            if self.assigned_obj < self.best_obj - 1e-15 {
                self.best_obj = self.assigned_obj;
                for (pos, &m) in self.prefix.iter().enumerate() {
                    self.best_choices[self.layout.order[pos]] = m;
                }
                self.telemetry
                    .series_push("solver.incumbents", self.best_obj, "bnb");
            }
            return;
        }
        // Budget feasibility prune.
        if self.assigned_cost + self.suffix_min_cost[depth] > self.problem.budget() {
            self.feasibility_prunes += 1;
            return;
        }
        // Row-min LP-knapsack bound over the linearized remainder.
        let remaining_budget = self.problem.budget() - self.assigned_cost;
        self.lp.clear();
        for pos in depth..k {
            for i in self.layout.off[pos]..self.layout.off[pos + 1] {
                let value = self.coef(depth, pos, i);
                self.lp.push(value, self.layout.cost[i]);
            }
            self.lp.end_class();
        }
        let bound = self.assigned_obj + mckp_lp_bound(&mut self.lp, remaining_budget);
        if bound >= self.best_obj - 1e-12 {
            self.bound_prunes += 1;
            return;
        }
        // Convex bound, only where the row-min bound failed.
        let cutoff = self.best_obj - 1e-12 + self.fw.margin;
        if self.convex_bound(depth, remaining_budget, cutoff) >= cutoff {
            self.convex_prunes += 1;
            return;
        }
        // Expand children, most promising linearized coefficient first.
        let first = self.layout.off[depth];
        let size = self.layout.off[depth + 1] - first;
        let slots = depth * self.width..depth * self.width + size;
        for m in 0..size {
            self.children[slots.start + m] = (self.coef(depth, depth, first + m), m);
        }
        insertion_sort_by(&mut self.children[slots.clone()], |a, b| {
            a.0.partial_cmp(&b.0).expect("finite coefficients")
        });
        for slot in slots {
            let m = self.children[slot].1;
            let cost = self.layout.cost[first + m];
            if self.assigned_cost + cost + self.suffix_min_cost[depth + 1] > self.problem.budget() {
                self.feasibility_prunes += 1;
                continue;
            }
            let obj_add = self.assign(depth, m);
            self.dfs(depth + 1);
            self.unassign(depth, m, obj_add);
            if self.aborted.is_some() {
                return;
            }
        }
    }
}

/// Runs branch and bound, warm-started by `warm` (typically a local-search
/// solution), under the anytime controls in `ctl`.
pub(super) fn run(
    problem: &IqpProblem,
    config: &SolverConfig,
    warm: &Candidate,
    ctl: &Anytime,
) -> BnbRun {
    let telemetry = &config.telemetry;
    let mut search = Search::new(problem, warm, config.max_nodes, ctl, telemetry);
    search.dfs(0);
    telemetry.add("solver.iqp.nodes", search.nodes);
    telemetry.add("solver.iqp.bound_prunes", search.bound_prunes);
    telemetry.add("solver.iqp.convex_prunes", search.convex_prunes);
    telemetry.add("solver.iqp.fw_steps", search.fw_steps);
    telemetry.add("solver.iqp.feasibility_prunes", search.feasibility_prunes);
    BnbRun {
        choices: search.best_choices,
        nodes: search.nodes,
        stop: search.aborted,
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::cross_term_instance;
    use super::super::{DowngradeReason, MethodUsed, SolverConfig, Termination};
    use super::*;
    use crate::SymMatrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn unconstrained() -> Anytime {
        let config = SolverConfig::default();
        Anytime::resolve(None, None, config.cancel)
    }

    /// A random instance of `k` groups of 3: indefinite (diagonal in
    /// ±1, cross terms in ±0.25) or PSD (`G = M Mᵀ` with `M` of rank
    /// `n / 2`, so λ_min = 0 exactly and the LDLᵀ certificate decides λ).
    fn random_instance(rng: &mut StdRng, k: usize, psd: bool) -> IqpProblem {
        let sizes = vec![3usize; k];
        let n = 3 * k;
        let mut g = SymMatrix::zeros(n);
        if psd {
            let r = n / 2;
            let m: Vec<f64> = (0..n * r).map(|_| rng.gen_range(-0.5..0.5)).collect();
            for i in 0..n {
                for j in i..n {
                    let dot: f64 = (0..r).map(|c| m[i * r + c] * m[j * r + c]).sum();
                    g.set(i, j, dot);
                }
            }
        } else {
            for i in 0..n {
                for j in i..n {
                    let scale = if i == j { 1.0 } else { 0.25 };
                    g.set(i, j, rng.gen_range(-1.0..1.0) * scale);
                }
            }
        }
        let costs: Vec<u64> = (0..n)
            .map(|v| ((v % 3) as u64 * 2 + 2) * rng.gen_range(5..50))
            .collect();
        let min_cost: u64 = (0..k)
            .map(|i| (0..3).map(|m| costs[3 * i + m]).min().unwrap())
            .sum();
        let max_cost: u64 = (0..k)
            .map(|i| (0..3).map(|m| costs[3 * i + m]).max().unwrap())
            .sum();
        let budget = min_cost + (max_cost - min_cost) / 2;
        IqpProblem::new(g, &sizes, costs, budget).unwrap()
    }

    #[test]
    fn bnb_matches_exhaustive_on_random_instances() {
        // Indefinite instances take the Jacobi λ < 0 path, PSD ones the
        // LDLᵀ λ ≈ 0 path of the convex bound.
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..40 {
            let k = rng.gen_range(2..=6);
            let p = random_instance(&mut rng, k, trial >= 20);
            let ex = p.solve_exhaustive();
            let bb = p.solve(&SolverConfig::default()).unwrap();
            assert_eq!(bb.method_used, MethodUsed::BranchAndBound, "trial {trial}");
            assert!(bb.proved_optimal, "trial {trial} hit node cap");
            assert!(
                (bb.objective - ex.objective).abs() < 1e-9,
                "trial {trial}: bnb {} vs exhaustive {}",
                bb.objective,
                ex.objective
            );
            assert!(bb.cost <= p.budget());
        }
    }

    /// The best objective over every feasible completion of the search's
    /// current prefix (`∞` if none fits the budget).
    fn best_completion(search: &Search, choices: &mut [usize], pos: usize) -> f64 {
        let (p, layout) = (search.problem, &search.layout);
        if pos == layout.groups() {
            return if p.is_feasible(choices) {
                p.assignment_objective(choices)
            } else {
                f64::INFINITY
            };
        }
        let gi = layout.order[pos];
        if pos < search.prefix.len() {
            choices[gi] = search.prefix[pos];
            return best_completion(search, choices, pos + 1);
        }
        (0..p.group_size(gi))
            .map(|m| {
                choices[gi] = m;
                best_completion(search, choices, pos + 1)
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Visits every budget-feasible node below the current one, checking
    /// its convex bound (tangent and every Frank–Wolfe step) against the
    /// node's exhaustive best completion.
    fn check_subtree(search: &mut Search, depth: usize, checked: &mut usize) {
        let budget = search.problem.budget();
        let k = search.layout.groups();
        if depth == k || search.assigned_cost + search.suffix_min_cost[depth] > budget {
            return;
        }
        let bound = search.convex_bound(depth, budget - search.assigned_cost, f64::INFINITY);
        let best = best_completion(search, &mut vec![0; k], 0);
        assert!(
            bound <= best + 1e-9,
            "depth {depth}, prefix {:?}: convex bound {bound} > best completion {best}",
            search.prefix
        );
        *checked += 1;
        for m in 0..search.layout.off[depth + 1] - search.layout.off[depth] {
            let obj_add = search.assign(depth, m);
            check_subtree(search, depth + 1, checked);
            search.unassign(depth, m, obj_add);
        }
    }

    #[test]
    fn convex_bounds_are_admissible_at_every_node() {
        let mut rng = StdRng::seed_from_u64(5);
        let ctl = unconstrained();
        let telemetry = Telemetry::disabled();
        for trial in 0..16 {
            let k = 4 + trial % 3;
            let p = random_instance(&mut rng, k, trial % 2 == 0);
            let warm = super::super::local::greedy_candidate(&p);
            let mut search = Search::new(&p, &warm, u64::MAX, &ctl, &telemetry);
            let mut checked = 0;
            check_subtree(&mut search, 0, &mut checked);
            assert!(checked > k, "trial {trial}: only {checked} nodes checked");
        }
    }

    #[test]
    fn bnb_respects_node_cap() {
        let p = cross_term_instance();
        let ctl = unconstrained();
        let warm = super::super::local::run(&p, &ctl).expect("unconstrained run completes");
        let bb = run(
            &p,
            &SolverConfig {
                max_nodes: 0,
                ..Default::default()
            },
            &warm,
            &ctl,
        );
        assert_eq!(bb.stop, Some(Stop::NodeCap));
        assert!(p.is_feasible(&bb.choices));
        // Through the public API the node-cap stop falls back to the
        // diagonal DP and surfaces as a typed termination with a feasible
        // solution.
        let sol = p
            .solve(&SolverConfig {
                max_nodes: 0,
                ..Default::default()
            })
            .unwrap();
        assert!(!sol.proved_optimal);
        assert_eq!(sol.termination, Termination::NodeCapExhausted);
        assert!(p.is_feasible(&sol.choices));
        assert_eq!(sol.downgrades.len(), 1);
        assert_eq!(sol.downgrades[0].from, MethodUsed::BranchAndBound);
        assert_eq!(sol.downgrades[0].to, MethodUsed::DiagonalDp);
        assert_eq!(sol.downgrades[0].reason, DowngradeReason::NodeCapExhausted);
    }

    /// A node-cap stop reports the nodes it visited, which is the cap —
    /// not the node that tripped it.
    #[test]
    fn node_cap_stops_report_exactly_the_cap() {
        let p = random_instance(&mut StdRng::seed_from_u64(3), 12, false);
        for cap in [0, 1, 10] {
            let telemetry = Telemetry::new();
            let sol = p
                .solve(&SolverConfig {
                    max_nodes: cap,
                    telemetry: telemetry.clone(),
                    ..Default::default()
                })
                .unwrap();
            assert_eq!(sol.termination, Termination::NodeCapExhausted, "cap {cap}");
            assert_eq!(sol.nodes_explored, cap);
            assert_eq!(telemetry.counter_value("solver.iqp.nodes"), cap);
        }
    }

    #[test]
    fn bnb_proves_optimality_on_psd_instances_quickly() {
        // PSD instances (post-projection) should be easy: verify node
        // counts stay small on a 12-layer problem.
        let mut rng = StdRng::seed_from_u64(7);
        let k = 12;
        let n = 3 * k;
        // Build PSD G = M Mᵀ (scaled).
        let m_cols = 8;
        let m: Vec<f64> = (0..n * m_cols).map(|_| rng.gen_range(-0.3..0.3)).collect();
        let mut g = SymMatrix::zeros(n);
        for i in 0..n {
            for j in i..n {
                let dot: f64 = (0..m_cols)
                    .map(|c| m[i * m_cols + c] * m[j * m_cols + c])
                    .sum();
                g.set(i, j, dot);
            }
        }
        let costs: Vec<u64> = (0..n).map(|v| ((v % 3) as u64 + 1) * 100).collect();
        let p = IqpProblem::new(g, &vec![3; k], costs, k as u64 * 180).unwrap();
        let telemetry = Telemetry::new();
        let sol = p
            .solve(&SolverConfig {
                telemetry: telemetry.clone(),
                ..Default::default()
            })
            .unwrap();
        assert!(sol.proved_optimal, "nodes: {}", sol.nodes_explored);
        // The row-min bound alone needs 11,571 nodes here; the convex
        // bound is what keeps a PSD instance small.
        assert!(sol.nodes_explored <= 3_000, "nodes: {}", sol.nodes_explored);
        assert!(telemetry.counter_value("solver.iqp.convex_prunes") > 0);
        assert!(telemetry.counter_value("solver.iqp.fw_steps") > 0);
    }
}
