//! # clado-estim
//!
//! Sub-quadratic estimation of the CLADO sensitivity matrix Ω.
//!
//! The exact sweep costs `1 + |𝔹|I + ½|𝔹|²I(I−1)` forward evaluations —
//! quadratic in the layer count — and is the scaling wall for anything
//! beyond toy models. This crate trades a probe *budget* for an
//! approximate Ω with four estimators ([`EstimatorKind`], run by
//! [`estimate_sensitivities`]):
//!
//! * [`EstimatorKind::Sketched`] — measures a seeded uniform subset of
//!   the cross-term probes and completes the matrix by symmetric
//!   low-rank alternating least squares on the observed entries,
//!   PSD-projected through the solver's existing projection path.
//! * [`EstimatorKind::Adaptive`] — initializes a per-entry uncertainty
//!   width from the diagonal-product prior, spends half of each shard's
//!   budget on the widest entries, rescales the widths of unobserved
//!   entries from the observed `|Ω|`/prior ratios, and spends the rest
//!   where the refreshed widths are largest.
//! * [`EstimatorKind::BlockTopK`] — a BRECQ-style locality prior: every
//!   within-block cross term is probed, and the remaining budget goes to
//!   the `k` cross-block entries with the highest `|Ω_ii·Ω_jj|`
//!   diagonal product.
//! * [`EstimatorKind::Hutchinson`] — promotes the HAWQ-style Hutchinson
//!   trace baseline into an estimator mode: a diagonal-only Ω from
//!   central-difference Hessian-vector products, no pair probes at all.
//!
//! The three grid estimators are [`EstimationPlan`]s: a
//! [`clado_core::OmegaPlan`] whose rounds the one Ω sweep
//! ([`clado_core::run_plan`]) runs in process, on threads, or on a worker
//! pool alike.
//!
//! Every estimator spends budget on the base probe and the full diagonal
//! (a variable's own sensitivity cannot be defaulted — the solver's
//! `harden_partial` rejects Ω matrices that skip it), so the budget floor
//! is `1 + |𝔹|I` probes.
//!
//! # Determinism and fault tolerance
//!
//! Probe selection is a pure function of the seed, the budget, and the
//! bitwise-deterministic diagonal records, and each pair shard's
//! refinement reads only that shard's records — so the estimated Ω is
//! bitwise identical serially, across `--threads N`, and across
//! distributed workers, and the CLSJ journal makes estimation
//! crash-safe and resumable exactly like exact measurement.
//! The journal fingerprint folds in the estimator kind, budget, and seed
//! ([`clado_core::estimator_config_fingerprint`]), so an estimation
//! checkpoint can never resume an exact sweep's journal or another
//! estimator's.
//!
//! # Reporting
//!
//! [`EstimatorReport`] records probes spent vs. the full-sweep count,
//! observed-entry and whole-matrix error vs. an exact Ω when one is
//! available, and the **final-assignment regret**: the Δtask-loss of the
//! IQP solution under the estimated Ω vs. the exact one
//! ([`assignment_regret`]).

#![warn(missing_docs)]

mod complete;
mod estimate;
mod planner;
mod report;

pub use complete::{als_complete, complete_partial};
pub use estimate::{
    estimate_sensitivities, EstimatedOmega, EstimatorOptions, DEFAULT_ALS_ITERS, DEFAULT_ALS_RANK,
    DEFAULT_ESTIMATOR_SEED,
};
pub use planner::{EstimationPlan, GridEstimation};
pub use report::{
    assignment_regret, build_report, error_vs_exact, EstimatorReport, OmegaError, RegretReport,
};

use std::fmt;
use std::str::FromStr;

use clado_core::OmegaProvenance;

/// Which sub-quadratic estimator to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EstimatorKind {
    /// Seeded uniform probe subset + symmetric low-rank ALS completion.
    Sketched,
    /// Prior-weighted two-round sampling of the widest uncertainty
    /// intervals.
    Adaptive,
    /// All within-block cross terms plus the top-k cross-block entries by
    /// diagonal product.
    BlockTopK,
    /// Diagonal-only Ω from Hutchinson Hessian-trace estimates.
    Hutchinson,
}

impl EstimatorKind {
    /// All estimator kinds, in tag order.
    pub const ALL: [EstimatorKind; 4] = [
        EstimatorKind::Sketched,
        EstimatorKind::Adaptive,
        EstimatorKind::BlockTopK,
        EstimatorKind::Hutchinson,
    ];

    /// The wire/CLSM tag of this kind (see
    /// [`clado_core::OmegaProvenance`]; `0` is reserved for exact).
    pub fn tag(self) -> u8 {
        match self {
            Self::Sketched => OmegaProvenance::TAG_SKETCHED,
            Self::Adaptive => OmegaProvenance::TAG_ADAPTIVE,
            Self::BlockTopK => OmegaProvenance::TAG_BLOCK_TOPK,
            Self::Hutchinson => OmegaProvenance::TAG_HUTCHINSON,
        }
    }

    /// The kind for a wire/CLSM tag; `None` for `0` (exact) and unknown
    /// tags.
    pub fn from_tag(tag: u8) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.tag() == tag)
    }

    /// The CLI spelling of this kind.
    pub fn name(self) -> &'static str {
        match self {
            Self::Sketched => "sketched",
            Self::Adaptive => "adaptive",
            Self::BlockTopK => "blocktopk",
            Self::Hutchinson => "hutchinson",
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
            "sketched" => Ok(Self::Sketched),
            "adaptive" => Ok(Self::Adaptive),
            "blocktopk" | "block-topk" | "block_topk" => Ok(Self::BlockTopK),
            "hutchinson" => Ok(Self::Hutchinson),
            other => Err(format!(
                "unknown estimator '{other}' (expected sketched, adaptive, blocktopk, \
                 or hutchinson)"
            )),
        }
    }
}
