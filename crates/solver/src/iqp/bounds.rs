//! Admissible lower bounds for branch and bound.
//!
//! Both bounds end in the same LP: the Dantzig relaxation of the
//! multiple-choice knapsack problem (MCKP; Chen et al., 2110.06554).
//! Given per-candidate objective coefficients and costs,
//! [`mckp_lp_bound`] returns a value no larger than any feasible integer
//! completion, together with the fractional selection that attains it.
//!
//! * The **row-min bound** linearizes the quadratic terms among the
//!   unassigned groups with per-row minima and solves one LP over the
//!   linearized coefficients.
//! * The **convex bound** ([`FrankWolfe`]) works on the convexified
//!   objective `h(x) = xᵀ(Ĝ − λI)x + λ·Σx` with `λ = min(λ_min(Ĝ), 0)`.
//!   Since `x_v² = x_v` on a one-hot assignment, `h` equals the objective
//!   on every plan, and `Ĝ − λI ⪰ 0` makes it convex on all of ℝⁿ. Its
//!   tangent plane at any point is therefore below every plan, and the
//!   minimum of that plane over the relaxed node polytope is again the
//!   MCKP LP, with the gradient as coefficients. On a PSD-projected Ĝ the
//!   shift is negligible and this is the continuous relaxation the
//!   paper's projection makes convex; on an indefinite Ĝ (`--no-psd`) the
//!   shift weakens it but the bound stays valid.

use super::IqpProblem;
use std::cmp::Ordering;

/// Frank–Wolfe steps after the tangent bound at a branch-and-bound node.
/// Tuned on vit-mini and resnet34-mini Ω: 3 to 6 steps cost about the
/// same; fewer leave too many nodes, more cost more than they prune.
pub(crate) const NODE_FW_STEPS: usize = 4;
/// Frank–Wolfe steps at the root and for the reported root bound. The
/// children restart from the root's iterate, so the search hardly depends
/// on this; the root bound behind [`super::Solution::gap`] does.
pub(crate) const ROOT_FW_STEPS: usize = 100;

/// One candidate inside an MCKP class.
#[derive(Debug, Clone, Copy)]
pub(crate) struct McKpItem {
    /// Objective coefficient (to be minimized).
    pub value: f64,
    /// Cost in budget units.
    pub cost: u64,
}

/// One LP-improving move inside a class: from hull item `j` to `j + 1`.
#[derive(Debug, Clone, Copy)]
struct Swap {
    slope: f64,
    dv: f64,
    dc: u64,
    class: usize,
    /// Insertion order, the tie-break between equal slopes.
    seq: usize,
}

/// An MCKP instance and the LP's working buffers. Branch and bound fills
/// and solves one per node, so every buffer is reused: after the first
/// few nodes the LP allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct McKp {
    /// Items of every class, in insertion order.
    items: Vec<McKpItem>,
    /// End offset of each class in `items`.
    class_end: Vec<usize>,
    /// One class's item indices, sorted by (cost, value).
    sorted: Vec<usize>,
    /// Lower-left convex hull of each class as item indices, classes
    /// concatenated.
    hull: Vec<usize>,
    /// Each class's position in `hull`: its first hull item, then advanced
    /// by every swap the greedy fill applies.
    pos: Vec<usize>,
    swaps: Vec<Swap>,
    /// The LP's minimizer as `(item, weight)` pairs.
    argmin: Vec<(usize, f64)>,
}

impl McKp {
    /// Empties the instance, keeping the buffers.
    pub(crate) fn clear(&mut self) {
        self.items.clear();
        self.class_end.clear();
    }

    /// Appends an item to the current class.
    pub(crate) fn push(&mut self, value: f64, cost: u64) {
        self.items.push(McKpItem { value, cost });
    }

    /// Closes the current class; it must hold at least one item.
    pub(crate) fn end_class(&mut self) {
        self.class_end.push(self.items.len());
    }

    /// The minimizer of the last [`mckp_lp_bound`] call: `(item, weight)`
    /// pairs with items numbered in insertion order, one pair per class
    /// and two for the (at most one) fractional class. Empty when that
    /// call found no feasible selection.
    pub(crate) fn argmin(&self) -> &[(usize, f64)] {
        &self.argmin
    }
}

/// Stable insertion sort; the slices sorted here are a handful long, and
/// it allocates nothing.
pub(crate) fn insertion_sort_by<T: Copy>(v: &mut [T], cmp: impl Fn(&T, &T) -> Ordering) {
    for i in 1..v.len() {
        let x = v[i];
        let mut j = i;
        while j > 0 && cmp(&v[j - 1], &x) == Ordering::Greater {
            v[j] = v[j - 1];
            j -= 1;
        }
        v[j] = x;
    }
}

/// Dantzig LP lower bound for the multiple-choice knapsack (minimization)
/// held in `lp`.
///
/// Each class must contribute exactly one item (fractionally, in the LP);
/// total cost must not exceed `budget`. Returns `f64::INFINITY` when even
/// the cheapest selection exceeds the budget (the caller prunes).
/// Otherwise [`McKp::argmin`] holds the minimizer afterwards. Swaps of
/// equal slope are applied in insertion order.
pub(crate) fn mckp_lp_bound(lp: &mut McKp, budget: u64) -> f64 {
    let McKp {
        items,
        class_end,
        sorted,
        hull,
        pos,
        swaps,
        argmin,
    } = lp;
    hull.clear();
    pos.clear();
    swaps.clear();
    argmin.clear();
    // Step 1: per class, keep only LP-efficient items: sort by cost, keep
    // the lower-left convex hull of (cost, value), where value strictly
    // decreases and the slopes Δvalue/Δcost strictly increase.
    let mut start_value = 0.0f64;
    let mut start_cost = 0u64;
    let mut begin = 0;
    for (class, &end) in class_end.iter().enumerate() {
        debug_assert!(end > begin, "empty MCKP class");
        sorted.clear();
        sorted.extend(begin..end);
        insertion_sort_by(sorted, |&a, &b| {
            items[a]
                .cost
                .cmp(&items[b].cost)
                .then(items[a].value.partial_cmp(&items[b].value).expect("finite"))
        });
        let h0 = hull.len();
        pos.push(h0);
        for &idx in sorted.iter() {
            let it = items[idx];
            if hull.len() > h0 {
                let last = items[hull[hull.len() - 1]];
                if it.cost == last.cost || it.value >= last.value {
                    continue;
                }
            }
            while hull.len() >= h0 + 2 {
                let a = items[hull[hull.len() - 2]];
                let b = items[hull[hull.len() - 1]];
                let s1 = (b.value - a.value) / (b.cost - a.cost) as f64;
                let s2 = (it.value - b.value) / (it.cost - b.cost) as f64;
                if s2 <= s1 {
                    hull.pop();
                } else {
                    break;
                }
            }
            hull.push(idx);
        }
        start_value += items[hull[h0]].value;
        start_cost += items[hull[h0]].cost;
        for j in h0..hull.len() - 1 {
            let (a, b) = (items[hull[j]], items[hull[j + 1]]);
            let dv = b.value - a.value;
            let dc = b.cost - a.cost;
            debug_assert!(dc > 0);
            let slope = dv / dc as f64;
            if slope < 0.0 {
                let seq = swaps.len();
                swaps.push(Swap {
                    slope,
                    dv,
                    dc,
                    class,
                    seq,
                });
            }
        }
        begin = end;
    }
    if start_cost > budget {
        return f64::INFINITY;
    }
    // Step 2: apply the most profitable swaps (most negative slope first)
    // while the budget allows; the first partial swap is taken fractionally.
    swaps.sort_unstable_by(|a, b| {
        a.slope
            .partial_cmp(&b.slope)
            .expect("finite slopes")
            .then(a.seq.cmp(&b.seq))
    });
    let mut remaining = budget - start_cost;
    let mut value = start_value;
    let mut partial = None;
    for s in swaps.iter() {
        if s.dc <= remaining {
            value += s.dv;
            remaining -= s.dc;
            pos[s.class] += 1;
        } else {
            value += s.slope * remaining as f64;
            partial = Some((s.class, remaining as f64 / s.dc as f64));
            break;
        }
    }
    for (class, &j) in pos.iter().enumerate() {
        match partial {
            Some((c, r)) if c == class && r > 0.0 => {
                argmin.push((hull[j], 1.0 - r));
                argmin.push((hull[j + 1], r));
            }
            _ => argmin.push((hull[j], 1.0)),
        }
    }
    value
}

/// The problem with its groups in a fixed visit order: the candidates of
/// the group at position `p` are the variables `off[p]..off[p + 1]`, and
/// Ĝ and the costs are copied in that order, Ĝ dense and row-major, so
/// the suffix of still-free groups is one contiguous range.
#[derive(Debug)]
pub(crate) struct Layout {
    /// Group index at each position.
    pub(crate) order: Vec<usize>,
    /// Start of each position's variables; one extra final entry `n`.
    pub(crate) off: Vec<usize>,
    /// Cost of each variable.
    pub(crate) cost: Vec<u64>,
    /// Ĝ in visit order, row-major.
    g: Vec<f64>,
    /// Number of variables.
    pub(crate) n: usize,
}

impl Layout {
    pub(crate) fn new(problem: &IqpProblem, order: Vec<usize>) -> Self {
        let n = problem.matrix().dim();
        let mut off = Vec::with_capacity(order.len() + 1);
        let mut var = Vec::with_capacity(n);
        for &gi in &order {
            off.push(var.len());
            var.extend((0..problem.group_size(gi)).map(|m| problem.var(gi, m)));
        }
        off.push(n);
        let g = problem.matrix();
        let mut dense = vec![0.0; n * n];
        for (i, &u) in var.iter().enumerate() {
            for (j, &v) in var.iter().enumerate() {
                dense[i * n + j] = g.get(u, v);
            }
        }
        let costs = order
            .iter()
            .flat_map(|&gi| (0..problem.group_size(gi)).map(move |m| problem.cost(gi, m)))
            .collect();
        Self {
            order,
            off,
            cost: costs,
            g: dense,
            n,
        }
    }

    /// Number of groups.
    pub(crate) fn groups(&self) -> usize {
        self.off.len() - 1
    }

    /// Entry `(i, j)` of Ĝ, in visit order.
    pub(crate) fn get(&self, i: usize, j: usize) -> f64 {
        self.g[i * self.n + j]
    }

    fn row(&self, i: usize) -> &[f64] {
        &self.g[i * self.n..(i + 1) * self.n]
    }
}

/// Frank–Wolfe on the convexified objective `h` (module docs), with one
/// iterate per search depth.
///
/// At a node of depth `d` the groups at positions `< d` are assigned: they
/// contribute a constant `c` and a linear term `inter` on the free
/// variables `f`. With `Q = Ĝ_ff − λI`, the node's convexified objective
/// is `h(y) = c + (inter + λ)·y + yᵀQy`, and for any `y`
///
/// ```text
/// min over the node's plans ≥ h(y) + min_s ∇h(y)·(s − y) = c − yᵀQy + LP(∇h(y)),
/// ```
///
/// the LP running over the relaxed polytope (one unit of weight per free
/// group, remaining budget). [`FrankWolfe::node_bound`] takes this bound
/// first at the parent's iterate (the tangent bound), then moves to that
/// LP's vertex and takes Frank–Wolfe steps with exact line search, each
/// giving a bound of the same form at the new point.
#[derive(Debug)]
pub(crate) struct FrankWolfe {
    /// The shift λ ≤ min(λ_min(Ĝ), 0).
    lambda: f64,
    /// Rounding allowance, scaled to ‖Ĝ‖: a bound prunes only when it
    /// clears the incumbent by this much.
    pub(crate) margin: f64,
    /// Iterate `x` per depth slot, `n` entries each; the node at depth `d`
    /// reads slot `d` (its parent's iterate) and leaves its own in slot
    /// `d + 1`. Only the free suffix of a slot is meaningful.
    x: Vec<f64>,
    /// `w = Q x` on the free suffix, same layout as `x`.
    w: Vec<f64>,
    /// `Q s` for the LP vertex `s`.
    qs: Vec<f64>,
}

impl FrankWolfe {
    /// Convexifies Ĝ once (a shifted LDLᵀ certifies λ ≈ 0 for a PSD Ĝ;
    /// the Jacobi eigensolver runs only when it fails) and seeds the root
    /// iterate with `start`: `(variable, weight)` pairs in visit order,
    /// one unit of weight per group.
    pub(crate) fn new(problem: &IqpProblem, layout: &Layout, start: &[(usize, f64)]) -> Self {
        let n = layout.n;
        let k = layout.groups();
        // ‖Ĝ‖∞ bounds the spectral radius and every |Ĝy| for y ∈ [0, 1]ⁿ.
        let scale = (0..n)
            .map(|i| layout.row(i).iter().map(|v| v.abs()).sum::<f64>())
            .fold(0.0, f64::max);
        // LDLᵀ success on Ĝ + εI proves λ_min > −ε up to rounding far
        // below ε; −2ε leaves room for that rounding. The Jacobi value is
        // accurate to far below ε as well.
        let eps = 1e-10 * scale;
        let g = problem.matrix();
        let lambda = if g.ldlt_is_positive(eps) {
            -2.0 * eps
        } else {
            (g.min_eigenvalue() - eps).min(0.0)
        };
        // A bound and a leaf's running objective are sums of O(n) terms of
        // total size ≤ 3k·(‖Ĝ‖∞ + |λ|), so their rounding is of order
        // n·ε_mach relative to that, ~1e-14 for n ≤ 100; 1e-9 leaves a wide
        // berth. The absolute 1e-12 keeps the search's own prune slack.
        let margin = 1e-12 + 1e-9 * k as f64 * (scale + lambda.abs());
        let mut fw = Self {
            lambda,
            margin,
            x: vec![0.0; (k + 1) * n],
            w: vec![0.0; (k + 1) * n],
            qs: vec![0.0; n],
        };
        for &(j, weight) in start {
            fw.x[j] += weight;
            for (w, &gij) in fw.w[..n].iter_mut().zip(layout.row(j)) {
                *w += weight * gij;
            }
            fw.w[j] -= weight * lambda;
        }
        fw
    }

    /// The convex bound at the node of depth `depth` (module docs): its
    /// assigned prefix has objective `assigned` and adds `inter[i]`
    /// (visit order) per unit of free variable `i`, and `budget` is left.
    /// Takes the tangent bound at the parent's iterate, then up to `steps`
    /// Frank–Wolfe steps, and stops early once a bound reaches `cutoff`.
    /// Returns the largest bound and the Frank–Wolfe steps taken; the
    /// node's last iterate is kept for its children. `lp` is scratch.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn node_bound(
        &mut self,
        layout: &Layout,
        lp: &mut McKp,
        depth: usize,
        assigned: f64,
        inter: &[f64],
        budget: u64,
        steps: usize,
        cutoff: f64,
    ) -> (f64, u64) {
        let n = layout.n;
        let lambda = self.lambda;
        let f0 = layout.off[depth];
        let (xs, xd) = self.x.split_at_mut((depth + 1) * n);
        let (ws, wd) = self.w.split_at_mut((depth + 1) * n);
        let (xs, xd) = (&xs[depth * n..], &mut xd[..n]);
        let (ws, wd) = (&ws[depth * n..], &mut wd[..n]);
        // The parent's iterate restricted to this node's free groups: drop
        // the just-assigned group's share of `w`.
        xd[f0..].copy_from_slice(&xs[f0..]);
        wd[f0..].copy_from_slice(&ws[f0..]);
        if depth > 0 {
            let lo = layout.off[depth - 1];
            for (j, &xj) in (lo..f0).zip(&xs[lo..f0]) {
                if xj != 0.0 {
                    for (w, &gij) in wd[f0..].iter_mut().zip(&layout.row(j)[f0..]) {
                        *w -= xj * gij;
                    }
                }
            }
        }
        let qs = &mut self.qs;
        let mut best = f64::NEG_INFINITY;
        let mut taken = 0u64;
        for step in 0..=steps {
            // Gradient ∇h(x) = inter + λ + 2w as the LP coefficients.
            lp.clear();
            let mut xw = 0.0;
            let mut gx = 0.0;
            for p in depth..layout.groups() {
                for i in layout.off[p]..layout.off[p + 1] {
                    let grad = inter[i] + lambda + 2.0 * wd[i];
                    xw += xd[i] * wd[i];
                    gx += xd[i] * grad;
                    lp.push(grad, layout.cost[i]);
                }
                lp.end_class();
            }
            let lp_value = mckp_lp_bound(lp, budget);
            if lp_value == f64::INFINITY {
                return (f64::INFINITY, taken);
            }
            best = best.max(assigned - xw + lp_value);
            if best >= cutoff {
                return (best, taken);
            }
            // Move toward the LP vertex s: qs = Q s on the free block.
            qs[f0..].fill(0.0);
            for &(item, sigma) in lp.argmin() {
                let j = f0 + item;
                for (q, &gij) in qs[f0..].iter_mut().zip(&layout.row(j)[f0..]) {
                    *q += sigma * gij;
                }
                qs[j] -= sigma * lambda;
            }
            let t = if step == 0 {
                // The tangent bound's vertex is the first Frank–Wolfe point.
                1.0
            } else {
                taken += 1;
                // Exact line search on h(x + t(s − x)), t ∈ [0, 1].
                let (mut sqs, mut sw) = (0.0, 0.0);
                for &(item, sigma) in lp.argmin() {
                    sqs += sigma * qs[f0 + item];
                    sw += sigma * wd[f0 + item];
                }
                let curvature = sqs - 2.0 * sw + xw;
                let slope = lp_value - gx;
                if curvature > 0.0 {
                    (-slope / (2.0 * curvature)).clamp(0.0, 1.0)
                } else if slope < 0.0 {
                    1.0
                } else {
                    0.0
                }
            };
            if t > 0.0 {
                for i in f0..n {
                    xd[i] *= 1.0 - t;
                    wd[i] = (1.0 - t) * wd[i] + t * qs[i];
                }
                for &(item, sigma) in lp.argmin() {
                    xd[f0 + item] += t * sigma;
                }
            }
        }
        (best, taken)
    }
}

/// The row-min bound at the root: each variable's quadratic interactions
/// are under-approximated by per-row minima over every other group, then
/// the Dantzig LP relaxation of the resulting multiple-choice knapsack
/// accounts for the budget. Leaves its minimizer in `lp`.
fn row_min_root_bound(problem: &IqpProblem, lp: &mut McKp) -> f64 {
    let g = problem.matrix();
    let k = problem.num_groups();
    lp.clear();
    for i in 0..k {
        for m in 0..problem.group_size(i) {
            let v = problem.var(i, m);
            // coef(v) = g(v,v) + Σ_{j≠i} min_u∈j g(v,u) ≤ the true
            // contribution of v in any full assignment containing it
            // (cross terms are split symmetrically across rows).
            let mut coef = g.get(v, v);
            for j in 0..k {
                if j == i {
                    continue;
                }
                coef += (0..problem.group_size(j))
                    .map(|u| g.get(v, problem.var(j, u)))
                    .fold(f64::INFINITY, f64::min);
            }
            lp.push(coef, problem.cost(i, m));
        }
        lp.end_class();
    }
    mckp_lp_bound(lp, problem.budget())
}

/// The convex bound at the root: [`ROOT_FW_STEPS`] Frank–Wolfe steps
/// from `start` (`(variable, weight)` pairs, one unit per group), less
/// the rounding margin.
fn convex_root_bound(problem: &IqpProblem, start: &[(usize, f64)]) -> f64 {
    let layout = Layout::new(problem, (0..problem.num_groups()).collect());
    let mut fw = FrankWolfe::new(problem, &layout, start);
    let inter = vec![0.0; layout.n];
    let (bound, _) = fw.node_bound(
        &layout,
        &mut McKp::default(),
        0,
        0.0,
        &inter,
        problem.budget(),
        ROOT_FW_STEPS,
        f64::INFINITY,
    );
    bound - fw.margin
}

/// Deterministic admissible lower bound on the optimal objective of the
/// whole problem: the larger of the row-min and convex bounds at the
/// root, the latter started from the former's LP minimizer. Used to
/// report [`super::Solution::gap`] for heuristic terminations.
///
/// Always finite for problems that passed construction (the all-cheapest
/// assignment fits the budget).
pub(crate) fn root_lower_bound(problem: &IqpProblem) -> f64 {
    let mut lp = McKp::default();
    let row_min = row_min_root_bound(problem, &mut lp);
    row_min.max(convex_root_bound(problem, lp.argmin()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SymMatrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn item(value: f64, cost: u64) -> McKpItem {
        McKpItem { value, cost }
    }

    fn bound(classes: &[Vec<McKpItem>], budget: u64) -> f64 {
        let mut lp = McKp::default();
        for class in classes {
            for it in class {
                lp.push(it.value, it.cost);
            }
            lp.end_class();
        }
        mckp_lp_bound(&mut lp, budget)
    }

    #[test]
    fn root_lower_bound_is_admissible_and_finite() {
        let p = super::super::tests::cross_term_instance();
        let lb = root_lower_bound(&p);
        assert!(lb.is_finite());
        // Scan all assignments: the bound must not exceed any feasible
        // objective.
        for a in 0..2 {
            for b in 0..2 {
                for c in 0..2 {
                    let ch = [a, b, c];
                    if p.is_feasible(&ch) {
                        let obj = p.assignment_objective(&ch);
                        assert!(lb <= obj + 1e-9, "bound {lb} > objective {obj} of {ch:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn single_class_picks_best_affordable() {
        let classes = vec![vec![item(1.0, 10), item(0.2, 20), item(0.0, 40)]];
        // Budget 40: integer optimum 0.0; LP bound must be ≤ that and ≥ ...
        assert!(bound(&classes, 40) <= 0.0 + 1e-12);
        // Budget 10: only the first fits.
        assert!((bound(&classes, 10) - 1.0).abs() < 1e-12);
        // Budget 15: fractional between items 1 and 2.
        let b = bound(&classes, 15);
        assert!(b < 1.0 && b > 0.2, "{b}");
    }

    #[test]
    fn infeasible_returns_infinity() {
        let classes = vec![vec![item(0.0, 50)], vec![item(0.0, 60)]];
        assert!(bound(&classes, 100).is_infinite());
    }

    #[test]
    fn bound_is_admissible_vs_bruteforce() {
        // Random-ish small instance; check bound ≤ best integer solution
        // for a sweep of budgets.
        let classes = vec![
            vec![item(0.9, 2), item(0.4, 4), item(0.05, 8)],
            vec![item(0.5, 3), item(0.3, 6), item(0.0, 12)],
            vec![item(1.5, 2), item(0.2, 4), item(0.1, 8)],
        ];
        for budget in [7u64, 9, 12, 16, 20, 28] {
            let mut best = f64::INFINITY;
            for a in 0..3 {
                for b in 0..3 {
                    for c in 0..3 {
                        let cost = classes[0][a].cost + classes[1][b].cost + classes[2][c].cost;
                        if cost <= budget {
                            best = best.min(
                                classes[0][a].value + classes[1][b].value + classes[2][c].value,
                            );
                        }
                    }
                }
            }
            let bound = bound(&classes, budget);
            if best.is_finite() {
                assert!(
                    bound <= best + 1e-9,
                    "budget {budget}: bound {bound} > best {best}"
                );
            } else {
                assert!(bound.is_infinite());
            }
        }
    }

    #[test]
    fn dominated_items_are_ignored() {
        // Item (0.9, 5) is dominated by (0.4, 4); the bound with and
        // without it must be identical.
        let with = vec![vec![
            item(1.0, 2),
            item(0.9, 5),
            item(0.4, 4),
            item(0.05, 8),
        ]];
        let without = vec![vec![item(1.0, 2), item(0.4, 4), item(0.05, 8)]];
        for budget in [2u64, 4, 6, 8] {
            let a = bound(&with, budget);
            let b = bound(&without, budget);
            assert!((a - b).abs() < 1e-12 || (a.is_infinite() && b.is_infinite()));
        }
    }

    #[test]
    fn lp_values_are_bitwise_those_of_the_allocating_routine() {
        // Bits of every value the cases above produce, recorded from the
        // earlier implementation that cloned and sorted each class; the
        // row-min bound, and with it every node count, depends on them.
        let single = vec![vec![item(1.0, 10), item(0.2, 20), item(0.0, 40)]];
        let brute = vec![
            vec![item(0.9, 2), item(0.4, 4), item(0.05, 8)],
            vec![item(0.5, 3), item(0.3, 6), item(0.0, 12)],
            vec![item(1.5, 2), item(0.2, 4), item(0.1, 8)],
        ];
        let with = vec![vec![
            item(1.0, 2),
            item(0.9, 5),
            item(0.4, 4),
            item(0.05, 8),
        ]];
        let without = vec![vec![item(1.0, 2), item(0.4, 4), item(0.05, 8)]];
        let cases: Vec<(&[Vec<McKpItem>], u64, u64)> = vec![
            (&single, 40, 0xbc90000000000000),
            (&single, 10, 0x3ff0000000000000),
            (&single, 15, 0x3fe3333333333333),
            (&brute, 7, 0x4007333333333333),
            (&brute, 9, 0x3ff9999999999999),
            (&brute, 12, 0x3ff0333333333333),
            (&brute, 16, 0x3fe5dddddddddddc),
            (&brute, 20, 0x3fdcccccccccccca),
            (&brute, 28, 0x3fc333333333332d),
            (&with, 2, 0x3ff0000000000000),
            (&with, 4, 0x3fd999999999999a),
            (&with, 6, 0x3fcccccccccccccd),
            (&with, 8, 0x3fa9999999999998),
            (&without, 2, 0x3ff0000000000000),
            (&without, 4, 0x3fd999999999999a),
            (&without, 6, 0x3fcccccccccccccd),
            (&without, 8, 0x3fa9999999999998),
        ];
        for (classes, budget, bits) in cases {
            assert_eq!(
                bound(classes, budget).to_bits(),
                bits,
                "budget {budget} on {classes:?}"
            );
        }
        let infeasible = vec![vec![item(0.0, 50)], vec![item(0.0, 60)]];
        assert_eq!(bound(&infeasible, 100).to_bits(), f64::INFINITY.to_bits());
        let mut lp = McKp::default();
        let p = super::super::tests::cross_term_instance();
        assert_eq!(
            row_min_root_bound(&p, &mut lp).to_bits(),
            0x3fbef9db22d0e560
        );
    }

    #[test]
    fn lp_argmin_attains_the_bound_within_budget() {
        let classes = vec![
            vec![item(0.9, 2), item(0.4, 4), item(0.05, 8)],
            vec![item(0.5, 3), item(0.3, 6), item(0.0, 12)],
            vec![item(1.5, 2), item(0.2, 4), item(0.1, 8)],
        ];
        let flat: Vec<McKpItem> = classes.iter().flatten().copied().collect();
        let mut lp = McKp::default();
        for budget in [7u64, 9, 12, 16, 20, 28] {
            lp.clear();
            for class in &classes {
                for it in class {
                    lp.push(it.value, it.cost);
                }
                lp.end_class();
            }
            let value = mckp_lp_bound(&mut lp, budget);
            let mut per_class = [0.0f64; 3];
            let (mut v, mut c) = (0.0, 0.0);
            for &(idx, weight) in lp.argmin() {
                per_class[idx / 3] += weight;
                v += weight * flat[idx].value;
                c += weight * flat[idx].cost as f64;
            }
            for w in per_class {
                assert!((w - 1.0).abs() < 1e-12, "budget {budget}: weights {w}");
            }
            assert!((v - value).abs() < 1e-12, "budget {budget}: {v} vs {value}");
            assert!(c <= budget as f64 + 1e-9, "budget {budget}: cost {c}");
        }
    }

    #[test]
    fn equal_slopes_are_applied_in_insertion_order() {
        // Both upgrades have slope −0.25 and only 3 budget units remain:
        // the first class inserted upgrades fully, the second fractionally.
        for (first, second) in [((1.0, 2.0), (0.9, 4.0)), ((0.9, 4.0), (1.0, 2.0))] {
            let mut lp = McKp::default();
            for (start, dv) in [first, second] {
                lp.push(start, 2);
                lp.push(start - 0.25 * dv, 2 + dv as u64);
                lp.end_class();
            }
            mckp_lp_bound(&mut lp, 4 + 3);
            let frac = 3.0 - first.1;
            let expect = if frac > 0.0 {
                vec![(1, 1.0), (2, 1.0 - frac / second.1), (3, frac / second.1)]
            } else {
                vec![(0, 1.0 - 3.0 / first.1), (1, 3.0 / first.1), (2, 1.0)]
            };
            assert_eq!(lp.argmin(), expect.as_slice(), "{first:?} then {second:?}");
        }
    }

    /// A PSD instance G = M Mᵀ with M square, so the relaxation's minimum
    /// is strictly positive.
    fn psd_instance(seed: u64, k: usize) -> IqpProblem {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 3 * k;
        let m: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-0.3..0.3)).collect();
        let mut g = SymMatrix::zeros(n);
        for i in 0..n {
            for j in i..n {
                let dot: f64 = (0..n).map(|c| m[i * n + c] * m[j * n + c]).sum();
                g.set(i, j, dot);
            }
        }
        let costs: Vec<u64> = (0..n).map(|v| ((v % 3) as u64 + 1) * 100).collect();
        IqpProblem::new(g, &vec![3; k], costs, k as u64 * 200).unwrap()
    }

    #[test]
    fn convex_root_bound_tightens_the_psd_gap() {
        for seed in 0..4 {
            let p = psd_instance(seed, 6);
            let mut lp = McKp::default();
            let row_min = row_min_root_bound(&p, &mut lp);
            let convex = convex_root_bound(&p, lp.argmin());
            let root = root_lower_bound(&p);
            let optimum = p.solve_exhaustive().objective;
            assert!(convex >= 0.0, "seed {seed}: convex root bound {convex}");
            assert!(
                convex >= row_min,
                "seed {seed}: {convex} < row-min {row_min}"
            );
            assert!(
                convex <= optimum,
                "seed {seed}: {convex} > optimum {optimum}"
            );
            assert_eq!(root, convex, "seed {seed}");
            // Unproved stops report their gap against this root bound.
            let heuristic = p
                .solve(&super::super::SolverConfig {
                    max_nodes: 0,
                    ..Default::default()
                })
                .unwrap();
            assert!(!heuristic.proved_optimal);
            assert_eq!(heuristic.gap, (heuristic.objective - root).max(0.0));
            let greedy = p.warm_start();
            assert_eq!(greedy.gap, (greedy.objective - root).max(0.0));
        }
    }
}
