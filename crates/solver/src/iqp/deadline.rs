//! Anytime-solve control: deadlines, cooperative cancellation, and the
//! vocabulary of the solve path's fallbacks.
//!
//! Every step of the solve path checks an [`Anytime`] control block at
//! deterministic points — at entry, every [`TICK_MASK`]+1 DP cells or
//! branch-and-bound nodes, every local-search restart. The checks are
//! *observers only*: they never influence pruning, ordering, or any other
//! decision that shapes the search tree, so two runs with the same
//! configuration visit identical states until one of them is stopped.
//!
//! Determinism under wall-clock stops is preserved by a discard rule rather
//! than by trying to stop at the same node twice: when a method is
//! interrupted by a deadline or a cancel flag (events whose timing is not
//! reproducible), its partial incumbent is thrown away and the solve
//! returns the last plan it completed: the local-search warm start if B&B
//! was cut, else the greedy construction. Only the node-cap stop — a pure
//! function of the visit count — may keep its incumbent.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Deterministic check cadence: `Ticker::tick` consults the clock and the
/// cancel flag once every `TICK_MASK + 1` calls (a power of two).
pub(crate) const TICK_MASK: u64 = 1023;

/// Why a method stopped before completing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stop {
    /// The wall-clock deadline passed.
    Deadline,
    /// The cancel flag was raised (e.g. Ctrl-C).
    Cancelled,
    /// The branch-and-bound node cap was exhausted (deterministic).
    NodeCap,
}

/// Resolved anytime controls for one `solve` call: the effective deadline
/// (the earlier of `SolverConfig::deadline` and now + `max_wall`, resolved
/// once at entry) and the shared cancel flag.
pub(crate) struct Anytime {
    deadline: Option<Instant>,
    cancel: Arc<AtomicBool>,
}

impl Anytime {
    pub(crate) fn resolve(
        deadline: Option<Instant>,
        max_wall: Option<std::time::Duration>,
        cancel: Arc<AtomicBool>,
    ) -> Self {
        let wall = max_wall.and_then(|d| Instant::now().checked_add(d));
        let deadline = match (deadline, wall) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        Self { deadline, cancel }
    }

    /// Immediate stop check (used at solve entry and between restarts).
    pub(crate) fn check_now(&self) -> Option<Stop> {
        if self.cancel.load(Ordering::Relaxed) {
            return Some(Stop::Cancelled);
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Some(Stop::Deadline);
            }
        }
        None
    }
}

/// Counts work units and performs the stop check every `TICK_MASK + 1`
/// ticks, keeping the per-unit overhead to one increment and one mask.
pub(crate) struct Ticker<'a> {
    ctl: &'a Anytime,
    count: u64,
}

impl<'a> Ticker<'a> {
    pub(crate) fn new(ctl: &'a Anytime) -> Self {
        Self { ctl, count: 0 }
    }

    /// One work unit; returns a stop reason on check ticks only.
    pub(crate) fn tick(&mut self) -> Option<Stop> {
        self.count += 1;
        if self.count & TICK_MASK != 0 {
            return None;
        }
        self.ctl.check_now()
    }
}

/// How a [`super::Solution`] terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Termination {
    /// Optimality was proved (B&B completed, or the exact DP applied to a
    /// separable instance).
    #[default]
    Proved,
    /// A heuristic construction, such as
    /// [`super::IqpProblem::warm_start`]; the solution is feasible but only
    /// bounded through [`super::Solution::gap`].
    Heuristic,
    /// The branch-and-bound node cap was exhausted; the best incumbent
    /// found within the cap is returned (deterministic).
    NodeCapExhausted,
    /// The wall-clock deadline passed; a deterministically obtained
    /// fallback solution is returned.
    DeadlineExceeded,
    /// The cancel flag was raised; a deterministically obtained fallback
    /// solution is returned.
    Cancelled,
}

impl Termination {
    /// Stable lower-snake label for manifests and logs.
    pub fn label(&self) -> &'static str {
        match self {
            Self::Proved => "proved",
            Self::Heuristic => "heuristic",
            Self::NodeCapExhausted => "node_cap_exhausted",
            Self::DeadlineExceeded => "deadline_exceeded",
            Self::Cancelled => "cancelled",
        }
    }
}

/// The method that produced the returned assignment: a step of the solve
/// path, or full enumeration for [`super::IqpProblem::solve_exhaustive`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MethodUsed {
    /// Full enumeration (the test oracle).
    Exhaustive,
    /// Branch and bound (warm-started by local search).
    BranchAndBound,
    /// Exact multiple-choice-knapsack DP on a separable instance.
    DynamicProgramming,
    /// DP on the diagonal of a *non*-separable instance: the cross terms
    /// are dropped for the knapsack, then the returned choices are scored
    /// on the true quadratic objective. Heuristic.
    DiagonalDp,
    /// Multi-start local search: the B&B warm start, returned when a
    /// wall-clock stop or cancel cuts B&B short.
    LocalSearch,
    /// The greedy budget-filling construction — the floor of the solve
    /// path, which always completes, even with the cancel flag already
    /// raised.
    Greedy,
}

impl MethodUsed {
    /// Stable lower-snake label for manifests and logs.
    pub fn label(&self) -> &'static str {
        match self {
            Self::Exhaustive => "exhaustive",
            Self::BranchAndBound => "branch_and_bound",
            Self::DynamicProgramming => "dynamic_programming",
            Self::DiagonalDp => "diagonal_dp",
            Self::LocalSearch => "local_search",
            Self::Greedy => "greedy",
        }
    }
}

/// Why the solve path fell back from one method to another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DowngradeReason {
    /// The wall-clock deadline passed while (or before) the method ran.
    DeadlineExceeded,
    /// The cancel flag was raised.
    Cancelled,
    /// The branch-and-bound node cap was exhausted.
    NodeCapExhausted,
    /// The gcd-scaled budget exceeds the DP table limit.
    TableTooLarge,
}

impl DowngradeReason {
    /// Stable lower-snake slug used in `solver.downgrades.<slug>` counters.
    pub fn slug(&self) -> &'static str {
        match self {
            Self::DeadlineExceeded => "deadline_exceeded",
            Self::Cancelled => "cancelled",
            Self::NodeCapExhausted => "node_cap_exhausted",
            Self::TableTooLarge => "table_too_large",
        }
    }
}

impl From<Stop> for DowngradeReason {
    fn from(stop: Stop) -> Self {
        match stop {
            Stop::Deadline => Self::DeadlineExceeded,
            Stop::Cancelled => Self::Cancelled,
            Stop::NodeCap => Self::NodeCapExhausted,
        }
    }
}

/// One fallback of the solve path, recorded in
/// [`super::Solution::downgrades`] and surfaced as `solver.downgrades`
/// telemetry counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Downgrade {
    /// The method that could not complete.
    pub from: MethodUsed,
    /// The method whose plan the solve fell back to.
    pub to: MethodUsed,
    /// Why.
    pub reason: DowngradeReason,
}

impl std::fmt::Display for Downgrade {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}->{} ({})",
            self.from.label(),
            self.to.label(),
            self.reason.slug()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn resolve_takes_the_earlier_of_deadline_and_max_wall() {
        let cancel = Arc::new(AtomicBool::new(false));
        let far = Instant::now() + Duration::from_secs(3600);
        let ctl = Anytime::resolve(Some(far), Some(Duration::ZERO), cancel.clone());
        assert_eq!(ctl.check_now(), Some(Stop::Deadline));
        let ctl = Anytime::resolve(Some(far), None, cancel.clone());
        assert_eq!(ctl.check_now(), None);
        cancel.store(true, Ordering::Relaxed);
        assert_eq!(ctl.check_now(), Some(Stop::Cancelled));
    }

    #[test]
    fn ticker_checks_only_on_mask_boundaries() {
        let cancel = Arc::new(AtomicBool::new(true));
        let ctl = Anytime::resolve(None, None, cancel);
        let mut ticker = Ticker::new(&ctl);
        for _ in 0..TICK_MASK {
            assert_eq!(ticker.tick(), None);
        }
        assert_eq!(ticker.tick(), Some(Stop::Cancelled));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Termination::DeadlineExceeded.label(), "deadline_exceeded");
        assert_eq!(MethodUsed::DiagonalDp.label(), "diagonal_dp");
        assert_eq!(DowngradeReason::TableTooLarge.slug(), "table_too_large");
        let d = Downgrade {
            from: MethodUsed::BranchAndBound,
            to: MethodUsed::DiagonalDp,
            reason: DowngradeReason::NodeCapExhausted,
        };
        assert_eq!(
            d.to_string(),
            "branch_and_bound->diagonal_dp (node_cap_exhausted)"
        );
    }
}
