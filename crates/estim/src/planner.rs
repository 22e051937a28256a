//! Deterministic probe selection under a budget, and the estimation
//! plan built on it.
//!
//! The planner owns the part of estimation that must agree bitwise across
//! every execution mode: which pair probes get measured. Its inputs are
//! the estimator kind, the budget, and the diagonal measurements — all
//! of which are themselves bitwise deterministic — so every sweep,
//! however its rounds are executed or resumed, arrives at the identical
//! probe set. The adaptive kind refines its selection from
//! measured pair values, but only *within* one shard, so a shard remains
//! a self-contained, relocatable unit of work.

// Index-based loops are kept where they mirror the probe-grid layout.
#![allow(clippy::needless_range_loop)]
use crate::{EstimatorKind, DEFAULT_ESTIMATOR_SEED};
use clado_core::journal::ProbeId;
use clado_core::{
    estimator_config_fingerprint, MeasureError, OmegaPlan, OmegaProvenance, Records, Round,
    SensitivityMatrix, SensitivityStats, ShardContext, ShardSpec,
};
use clado_solver::ObservedMask;

/// Floor of any grid estimator's budget: the base probe plus the full
/// diagonal, which [`clado_solver::harden_partial`] requires.
pub(crate) fn mandatory_probes(num_layers: usize, k: usize) -> usize {
    1 + num_layers * k
}

/// Resolves a requested probe budget: `0` means the default 25% of the
/// full sweep; any request is floored at the mandatory base+diagonal
/// probes and capped at the full sweep.
pub(crate) fn resolve_budget(requested: usize, full_sweep: usize, mandatory: usize) -> usize {
    let want = if requested == 0 {
        full_sweep / 4
    } else {
        requested
    };
    want.clamp(mandatory, full_sweep)
}

/// The estimator settings of a grid-sharded job, as the serve protocol
/// carries them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridEstimation {
    /// The estimator.
    pub kind: EstimatorKind,
    /// The requested probe budget (`0` = 25% of the full sweep).
    pub probe_budget: usize,
}

impl GridEstimation {
    /// Reads a job's estimator fields. Tag `0` is an exact sweep
    /// (`Ok(None)`); unknown tags — the retired sketched (`1`) and
    /// hutchinson (`4`) included — are refused with the reason every
    /// caller reports.
    ///
    /// # Errors
    ///
    /// The refusal reason for a tag that names no estimator.
    pub fn from_job(tag: u8, probe_budget: u64) -> Result<Option<Self>, String> {
        if tag == 0 {
            return Ok(None);
        }
        match EstimatorKind::from_tag(tag) {
            Some(kind) => Ok(Some(Self {
                kind,
                probe_budget: probe_budget as usize,
            })),
            None => Err(format!("unknown estimator tag {tag}")),
        }
    }
}

/// The [`OmegaPlan`] of an estimation run: round 0 measures the base
/// and diagonal probes, round 1 the pair probes they select, and —
/// adaptive only — round 2 refines each pair shard from its own round-1
/// records. Assembly PSD-projects the partially observed Ω, whose
/// unobserved cross terms stay zero.
pub struct EstimationPlan<'a> {
    ctx: &'a ShardContext,
    kind: EstimatorKind,
    budget: usize,
}

impl<'a> EstimationPlan<'a> {
    /// The plan for `kind` under `requested_budget`. A budget of `0`
    /// resolves to 25% of the full sweep, and any request is floored at
    /// the mandatory base+diagonal probes and capped at the full sweep.
    pub fn new(ctx: &'a ShardContext, kind: EstimatorKind, requested_budget: usize) -> Self {
        let budget = resolve_budget(
            requested_budget,
            ctx.total_probes(),
            mandatory_probes(ctx.num_layers(), ctx.bits().len()),
        );
        Self { ctx, kind, budget }
    }

    /// The resolved probe budget — also the number of probes the plan
    /// spends.
    pub fn budget(&self) -> usize {
        self.budget
    }

    fn planner(&self, records: &Records) -> Result<ProbePlanner, MeasureError> {
        ProbePlanner::from_records(
            self.kind,
            self.ctx.num_layers(),
            self.ctx.bits().len(),
            self.budget,
            records,
        )
    }
}

impl OmegaPlan for EstimationPlan<'_> {
    /// The measurement configuration fingerprint folded with the
    /// estimator tag, the resolved budget and [`DEFAULT_ESTIMATOR_SEED`],
    /// so an estimation journal never mixes with an exact sweep's or
    /// another estimator's.
    fn fingerprint(&self) -> u64 {
        estimator_config_fingerprint(
            self.ctx.fingerprint(),
            self.kind.tag(),
            self.budget as u64,
            DEFAULT_ESTIMATOR_SEED,
        )
    }

    fn round(&self, index: usize, records: &Records) -> Result<Round, MeasureError> {
        Ok(match index {
            0 => self
                .ctx
                .shards()
                .into_iter()
                .filter(|s| !matches!(s, ShardSpec::Pair { .. }))
                .map(|s| (s, self.ctx.shard_probes(s)))
                .collect(),
            1 => self.planner(records)?.pair_round(),
            2 => self.planner(records)?.refine_round(records),
            _ => Vec::new(),
        })
    }

    fn assemble(
        &self,
        records: &Records,
    ) -> Result<(SensitivityMatrix, ObservedMask), MeasureError> {
        let assembly = self.ctx.assemble_partial(records)?;
        let stats = SensitivityStats {
            quarantined: assembly.quarantined,
            provenance: OmegaProvenance::estimated(
                self.kind.tag(),
                self.budget as u64,
                DEFAULT_ESTIMATOR_SEED,
            ),
            ..Default::default()
        };
        let matrix = SensitivityMatrix::from_parts(
            assembly.g.psd_project(),
            self.ctx.num_layers(),
            self.ctx.bits().clone(),
            assembly.base_loss,
            stats,
        );
        Ok((matrix, assembly.observed))
    }
}

/// One candidate pair probe of an outer shard, with its selection prior.
#[derive(Debug, Clone, Copy)]
struct PairCandidate {
    id: ProbeId,
    /// Canonical position within the outer shard's probe list (the order
    /// [`ShardContext::shard_probes`] emits) — the tie-break key.
    slot: usize,
    /// Inner layer index `j`.
    inner: usize,
    /// Diagonal-product prior `|Ω_ii(m) · Ω_jj(n)|`.
    score: f64,
}

/// Deterministic pair selection for one estimation configuration, built
/// from the base and diagonal records.
struct ProbePlanner {
    kind: EstimatorKind,
    num_layers: usize,
    k: usize,
    base_loss: f64,
    /// Raw diagonal losses `L(w+Δ)`, indexed `[layer][bit]`; NaN marks a
    /// quarantined probe.
    diag_loss: Vec<Vec<f64>>,
    /// Diagonal Ω values `|2(L−base)|` used as selection priors
    /// (quarantined probes contribute 0, consistently everywhere).
    diag_omega: Vec<Vec<f64>>,
    /// For blocktopk: the exact pair selection per outer shard, in
    /// canonical probe order. `None` for adaptive (two-round,
    /// value-dependent within the shard).
    fixed: Option<Vec<Vec<ProbeId>>>,
    /// Pair-probe budget per outer shard (adaptive; also recorded for
    /// blocktopk so both kinds read their budgets the same way).
    shard_budgets: Vec<usize>,
}

impl ProbePlanner {
    /// Builds the plan from the base and diagonal records and selects
    /// pair probes for `budget`.
    ///
    /// # Errors
    ///
    /// [`MeasureError::NonFiniteBaseLoss`] when the base record is
    /// quarantined or non-finite; [`MeasureError::MissingProbes`] when it
    /// is absent.
    fn from_records(
        kind: EstimatorKind,
        num_layers: usize,
        k: usize,
        budget: usize,
        records: &Records,
    ) -> Result<Self, MeasureError> {
        let base = records
            .get(&ProbeId::Base)
            .ok_or(MeasureError::MissingProbes {
                missing: 1,
                total: mandatory_probes(num_layers, k),
            })?;
        if base.quarantined || !base.loss.is_finite() {
            return Err(MeasureError::NonFiniteBaseLoss { loss: base.loss });
        }
        let base_loss = base.loss;
        let diag_loss: Vec<Vec<f64>> = (0..num_layers as u32)
            .map(|layer| {
                (0..k as u32)
                    .map(|bit| {
                        records
                            .get(&ProbeId::Diag { layer, bit })
                            .map_or(f64::NAN, |r| r.loss)
                    })
                    .collect()
            })
            .collect();
        let diag_omega: Vec<Vec<f64>> = diag_loss
            .iter()
            .map(|row| {
                row.iter()
                    .map(|&l| {
                        if l.is_finite() {
                            (2.0 * (l - base_loss)).abs()
                        } else {
                            0.0
                        }
                    })
                    .collect()
            })
            .collect();

        let mut planner = Self {
            kind,
            num_layers,
            k,
            base_loss,
            diag_loss,
            diag_omega,
            fixed: None,
            shard_budgets: vec![0; num_layers.saturating_sub(1)],
        };
        planner.select_pairs(budget.saturating_sub(mandatory_probes(num_layers, k)));
        Ok(planner)
    }

    /// Candidate pair probes of one outer shard with their priors, in
    /// canonical probe order.
    fn candidates(&self, outer: usize) -> Vec<PairCandidate> {
        let k = self.k;
        let mut out = Vec::new();
        let mut slot = 0usize;
        for m in 0..k {
            for j in (outer + 1)..self.num_layers {
                for n in 0..k {
                    out.push(PairCandidate {
                        id: ProbeId::Pair {
                            layer_i: outer as u32,
                            bit_m: m as u32,
                            layer_j: j as u32,
                            bit_n: n as u32,
                        },
                        slot,
                        inner: j,
                        score: self.diag_omega[outer][m] * self.diag_omega[j][n],
                    });
                    slot += 1;
                }
            }
        }
        out
    }

    /// Fills `fixed`/`shard_budgets` from the pair budget. Pure function
    /// of (kind, budget, diagonal values) — the determinism linchpin.
    fn select_pairs(&mut self, pair_budget: usize) {
        let outers = self.num_layers.saturating_sub(1);
        let per_outer: Vec<Vec<PairCandidate>> = (0..outers).map(|i| self.candidates(i)).collect();
        let total_pairs: usize = per_outer.iter().map(Vec::len).sum();
        let pair_budget = pair_budget.min(total_pairs);
        match self.kind {
            EstimatorKind::BlockTopK => {
                // BRECQ-style locality prior: all within-block pairs
                // first, then the top-k cross-block pairs by diagonal
                // product. Block width 2 layers.
                const BLOCK: usize = 2;
                let mut within: Vec<(usize, PairCandidate)> = Vec::new();
                let mut cross: Vec<(usize, PairCandidate)> = Vec::new();
                for (outer, cands) in per_outer.iter().enumerate() {
                    for c in cands {
                        if outer / BLOCK == c.inner / BLOCK {
                            within.push((outer, *c));
                        } else {
                            cross.push((outer, *c));
                        }
                    }
                }
                let by_score = |a: &(usize, PairCandidate), b: &(usize, PairCandidate)| {
                    b.1.score
                        .partial_cmp(&a.1.score)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.0.cmp(&b.0))
                        .then(a.1.slot.cmp(&b.1.slot))
                };
                let mut picked: Vec<(usize, PairCandidate)> = if within.len() > pair_budget {
                    within.sort_by(by_score);
                    within.truncate(pair_budget);
                    within
                } else {
                    let k_cross = pair_budget - within.len();
                    cross.sort_by(by_score);
                    cross.truncate(k_cross);
                    within.extend(cross);
                    within
                };
                picked.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.slot.cmp(&b.1.slot)));
                let mut fixed: Vec<Vec<ProbeId>> = vec![Vec::new(); outers];
                for (outer, c) in picked {
                    fixed[outer].push(c.id);
                }
                self.shard_budgets = fixed.iter().map(Vec::len).collect();
                self.fixed = Some(fixed);
            }
            EstimatorKind::Adaptive => {
                // Apportion the budget over outer shards by their total
                // prior mass (largest remainder, capped at the shard's
                // pair count); each shard then spends its own budget in
                // two rounds at evaluation time.
                let weights: Vec<f64> = per_outer
                    .iter()
                    .map(|cands| cands.iter().map(|c| c.score).sum())
                    .collect();
                let caps: Vec<usize> = per_outer.iter().map(Vec::len).collect();
                self.shard_budgets = apportion(pair_budget, &weights, &caps);
            }
        }
    }

    /// The pair round: each outer shard's fixed selection, or its
    /// adaptive first half — the widest prior intervals (every candidate
    /// when the shard's budget covers them all).
    fn pair_round(&self) -> Round {
        (0..self.shard_budgets.len())
            .filter(|&outer| self.shard_budgets[outer] > 0)
            .map(|outer| {
                let ids = match &self.fixed {
                    Some(fixed) => fixed[outer].clone(),
                    None => {
                        let cands = self.candidates(outer);
                        let sel = self.adaptive_first(&cands, self.shard_budgets[outer]);
                        sel.iter().map(|&s| cands[s].id).collect()
                    }
                };
                (
                    ShardSpec::Pair {
                        outer: outer as u32,
                    },
                    ids,
                )
            })
            .filter(|(_, ids)| !ids.is_empty())
            .collect()
    }

    /// Slots of an adaptive shard's first round, ascending: the widest
    /// `⌈budget/2⌉` prior intervals, or every candidate when `budget`
    /// covers them all.
    fn adaptive_first(&self, cands: &[PairCandidate], budget: usize) -> Vec<usize> {
        if budget >= cands.len() {
            return (0..cands.len()).collect();
        }
        let widths: Vec<f64> = cands.iter().map(|c| c.score).collect();
        let mut sel = by_width(&widths)[..budget.div_ceil(2)].to_vec();
        sel.sort_unstable();
        sel
    }

    /// The adaptive refinement round: per outer shard, the observed
    /// `|Ω|`/prior ratios of its first-round records rescale the widths
    /// of unobserved entries sharing the inner layer, and the rest of the
    /// shard's budget takes the widest refreshed intervals. Empty for
    /// blocktopk.
    fn refine_round(&self, records: &Records) -> Round {
        if self.fixed.is_some() {
            return Vec::new();
        }
        let mut round = Vec::new();
        for (outer, &budget) in self.shard_budgets.iter().enumerate() {
            let cands = self.candidates(outer);
            let sel1 = self.adaptive_first(&cands, budget);
            let round2 = budget.min(cands.len()) - sel1.len();
            if round2 == 0 {
                continue;
            }
            // Observed |Ω| over prior, averaged per inner layer; inner
            // layers with no observation keep ratio 1.
            let mut sums = vec![0.0f64; self.num_layers];
            let mut counts = vec![0usize; self.num_layers];
            for &slot in &sel1 {
                let c = &cands[slot];
                let Some(rec) = records.get(&c.id) else {
                    continue;
                };
                if rec.quarantined {
                    continue;
                }
                let (m, n) = match rec.id {
                    ProbeId::Pair { bit_m, bit_n, .. } => (bit_m as usize, bit_n as usize),
                    _ => continue,
                };
                let (si, sj) = (self.diag_loss[outer][m], self.diag_loss[c.inner][n]);
                if !si.is_finite() || !sj.is_finite() {
                    continue;
                }
                let omega = rec.loss + self.base_loss - si - sj;
                let prior = c.score.max(f64::MIN_POSITIVE);
                sums[c.inner] += omega.abs() / prior;
                counts[c.inner] += 1;
            }
            let taken: std::collections::HashSet<usize> = sel1.iter().copied().collect();
            let refreshed: Vec<f64> = cands
                .iter()
                .enumerate()
                .map(|(s, c)| {
                    if taken.contains(&s) {
                        -1.0 // already observed: never re-selected
                    } else {
                        let ratio = if counts[c.inner] > 0 {
                            sums[c.inner] / counts[c.inner] as f64
                        } else {
                            1.0
                        };
                        c.score * ratio
                    }
                })
                .collect();
            let mut sel2 = by_width(&refreshed)[..round2].to_vec();
            sel2.sort_unstable();
            let ids = sel2.iter().map(|&s| cands[s].id).collect();
            round.push((
                ShardSpec::Pair {
                    outer: outer as u32,
                },
                ids,
            ));
        }
        round
    }
}

/// Candidate slots ordered by descending width, ascending slot on ties.
fn by_width(w: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..w.len()).collect();
    order.sort_by(|&a, &b| {
        w[b].partial_cmp(&w[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    order
}

/// Largest-remainder apportionment of `total` units over `weights`,
/// capped per shard; overflow redistributes to uncapped shards.
/// Deterministic for identical inputs, including ties (broken by index).
fn apportion(total: usize, weights: &[f64], caps: &[usize]) -> Vec<usize> {
    let n = weights.len();
    let mut out = vec![0usize; n];
    if n == 0 {
        return out;
    }
    let mut remaining = total.min(caps.iter().sum());
    let mut open: Vec<usize> = (0..n).collect();
    while remaining > 0 {
        open.retain(|&i| out[i] < caps[i]);
        if open.is_empty() {
            break;
        }
        let wsum: f64 = open.iter().map(|&i| weights[i].max(0.0)).sum();
        let mut granted = 0usize;
        let mut fracs: Vec<(usize, f64)> = Vec::with_capacity(open.len());
        for &i in &open {
            let ideal = if wsum > 0.0 {
                remaining as f64 * weights[i].max(0.0) / wsum
            } else {
                remaining as f64 / open.len() as f64
            };
            let take = (ideal.floor() as usize).min(caps[i] - out[i]);
            out[i] += take;
            granted += take;
            fracs.push((i, ideal - ideal.floor()));
        }
        // Hand out the remainder units by descending fraction, index
        // ascending on ties.
        fracs.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        let mut leftover = remaining - granted;
        for (i, _) in fracs {
            if leftover == 0 {
                break;
            }
            if out[i] < caps[i] {
                out[i] += 1;
                granted += 1;
                leftover -= 1;
            }
        }
        if granted == 0 {
            break; // every open shard is at cap
        }
        remaining -= granted;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apportion_respects_caps_and_total() {
        let got = apportion(10, &[3.0, 1.0, 0.0], &[4, 8, 8]);
        assert_eq!(got.iter().sum::<usize>(), 10);
        assert!(got[0] <= 4);
        // Heaviest shard hits its cap; the rest flows to shard 1 first.
        assert_eq!(got[0], 4);
        assert!(got[1] >= got[2]);
    }

    #[test]
    fn apportion_zero_weights_splits_evenly() {
        let got = apportion(6, &[0.0, 0.0, 0.0], &[10, 10, 10]);
        assert_eq!(got, vec![2, 2, 2]);
    }

    #[test]
    fn apportion_caps_bound_the_total() {
        let got = apportion(100, &[1.0, 1.0], &[3, 2]);
        assert_eq!(got, vec![3, 2]);
    }

    #[test]
    fn resolve_budget_floors_and_caps() {
        assert_eq!(resolve_budget(0, 100, 7), 25);
        assert_eq!(resolve_budget(3, 100, 7), 7);
        assert_eq!(resolve_budget(1000, 100, 7), 100);
        assert_eq!(resolve_budget(40, 100, 7), 40);
    }
}
