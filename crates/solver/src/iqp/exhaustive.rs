//! Brute-force enumeration: the test oracle behind
//! [`IqpProblem::solve_exhaustive`].

use super::{Candidate, IqpProblem, MethodUsed};

/// Enumerates every feasible assignment and returns the best. Exponential:
/// intended for `Π group_size ≲ 10⁶`.
pub(super) fn run(problem: &IqpProblem) -> Candidate {
    let k = problem.num_groups();
    let mut choices = vec![0usize; k];
    let mut best: Option<(Vec<usize>, f64, u64)> = None;
    loop {
        if problem.is_feasible(&choices) {
            let obj = problem.assignment_objective(&choices);
            if best.as_ref().is_none_or(|(_, b, _)| obj < *b) {
                best = Some((choices.clone(), obj, problem.assignment_cost(&choices)));
            }
        }
        // Odometer increment.
        let mut pos = 0;
        loop {
            if pos == k {
                // Construction guarantees feasibility, so the scan found
                // at least the all-cheapest assignment.
                let (choices, objective, cost) =
                    best.expect("a feasible assignment exists after construction");
                return Candidate {
                    choices,
                    objective,
                    cost,
                    method: MethodUsed::Exhaustive,
                };
            }
            choices[pos] += 1;
            if choices[pos] < problem.group_size(pos) {
                break;
            }
            choices[pos] = 0;
            pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::cross_term_instance;
    use super::*;

    #[test]
    fn exhaustive_finds_global_optimum() {
        let p = cross_term_instance();
        let sol = run(&p);
        // Verify against a manual scan of all 8 assignments.
        let mut best = f64::INFINITY;
        for a in 0..2 {
            for b in 0..2 {
                for c in 0..2 {
                    let ch = [a, b, c];
                    if p.is_feasible(&ch) {
                        best = best.min(p.assignment_objective(&ch));
                    }
                }
            }
        }
        assert!((sol.objective - best).abs() < 1e-12);
    }
}
