//! # clado-estim
//!
//! Sub-quadratic estimation of the CLADO sensitivity matrix Ω.
//!
//! The exact sweep costs `1 + |𝔹|I + ½|𝔹|²I(I−1)` forward evaluations —
//! quadratic in the layer count — and is the scaling wall for anything
//! beyond toy models. This crate trades a probe *budget* for an
//! approximate Ω with one estimator, [`EstimatorKind::BlockTopK`], run by
//! [`estimate_sensitivities`]: a BRECQ-style locality prior under which
//! every within-block cross term is probed, and the remaining budget goes
//! to the `k` cross-block entries with the highest `|Ω_ii·Ω_jj|`
//! diagonal product. Unobserved cross terms are zero, and the result is
//! PSD-projected through the solver's projection path. The estimator is
//! an [`EstimationPlan`]: a [`clado_core::OmegaPlan`] of two rounds that
//! the one Ω sweep ([`clado_core::run_plan`]) runs in process, on
//! threads, or on a worker pool alike. (The HAWQ-style diagonal-only
//! Hutchinson estimate is the `hawq` baseline,
//! [`clado_core::hawq_sensitivities`].)
//!
//! The estimator spends budget on the base probe and the full diagonal
//! (a variable's own sensitivity cannot be defaulted, and
//! `ShardContext::assemble_partial` rejects a record set that skips it), so the budget floor
//! is `1 + |𝔹|I` probes.
//!
//! # Determinism and fault tolerance
//!
//! Probe selection is a pure function of the budget and the
//! bitwise-deterministic diagonal records (no estimator draws random
//! numbers) — so the estimated Ω is bitwise identical serially, across
//! `--threads N`, and across distributed workers, and the CLSJ journal
//! makes estimation crash-safe and resumable exactly like exact
//! measurement.
//! The journal fingerprint folds in the estimator kind and budget
//! ([`clado_core::estimator_config_fingerprint`]), so an estimation
//! checkpoint can never resume an exact sweep's journal or one of
//! another budget.
//!
//! # Reporting
//!
//! [`EstimatorReport`] records probes spent vs. the full-sweep count,
//! observed-entry and whole-matrix error vs. an exact Ω when one is
//! available, and the **final-assignment regret**: the Δtask-loss of the
//! IQP solution under the estimated Ω vs. the exact one
//! ([`assignment_regret`]).

#![warn(missing_docs)]

mod estimate;
mod planner;
mod report;

pub use estimate::{
    estimate_sensitivities, EstimatedOmega, EstimatorOptions, DEFAULT_ESTIMATOR_SEED,
};
pub use planner::{EstimationPlan, GridEstimation};
pub use report::{
    assignment_regret, build_report, error_vs_exact, EstimatorReport, OmegaError, RegretReport,
};

use std::fmt;
use std::str::FromStr;

use clado_core::OmegaProvenance;

/// Which sub-quadratic estimator to run. One remains; the tags of the
/// retired sketched, adaptive and hutchinson estimators are refused
/// wherever a tag is read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EstimatorKind {
    /// All within-block cross terms plus the top-k cross-block entries by
    /// diagonal product.
    BlockTopK,
}

impl EstimatorKind {
    /// All estimator kinds, in tag order.
    pub const ALL: [EstimatorKind; 1] = [EstimatorKind::BlockTopK];

    /// The wire/CLSM tag of this kind (see
    /// [`clado_core::OmegaProvenance`]; `0` is reserved for exact).
    pub fn tag(self) -> u8 {
        match self {
            Self::BlockTopK => OmegaProvenance::TAG_BLOCK_TOPK,
        }
    }

    /// The kind for a wire/CLSM tag; `None` for `0` (exact) and unknown
    /// tags, including the retired sketched (`1`), adaptive (`2`) and
    /// hutchinson (`4`).
    pub fn from_tag(tag: u8) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.tag() == tag)
    }

    /// The CLI spelling of this kind.
    pub fn name(self) -> &'static str {
        match self {
            Self::BlockTopK => "blocktopk",
        }
    }
}

impl fmt::Display for EstimatorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for EstimatorKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "blocktopk" | "block-topk" | "block_topk" => Ok(Self::BlockTopK),
            "adaptive" | "sketched" | "hutchinson" => Err(format!(
                "estimator '{s}' was removed: blocktopk dominated it on the held-out \
                 regret gate (use blocktopk)"
            )),
            other => Err(format!("unknown estimator '{other}' (expected blocktopk)")),
        }
    }
}
