//! Deterministic probe selection under a budget, and the estimation
//! plan built on it.
//!
//! The planner owns the part of estimation that must agree bitwise across
//! every execution mode: which pair probes get measured. Its inputs are
//! the budget and the diagonal measurements — both bitwise deterministic
//! — so every sweep, however its rounds are executed or resumed, arrives
//! at the identical probe set.

use crate::{EstimatorKind, DEFAULT_ESTIMATOR_SEED};
use clado_core::journal::ProbeId;
use clado_core::{
    estimator_config_fingerprint, MeasureError, OmegaPlan, OmegaProvenance, Records, Round,
    SensitivityMatrix, SensitivityStats, ShardContext, ShardSpec,
};
use clado_solver::ObservedMask;
use std::cmp::Ordering;

/// Floor of any grid estimator's budget: the base probe plus the full
/// diagonal, which every estimate must observe.
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
    /// (`Ok(None)`); unknown tags — the retired sketched (`1`), adaptive
    /// (`2`) and hutchinson (`4`) included — are refused with the reason
    /// every caller reports.
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

/// The [`OmegaPlan`] of an estimation run, two rounds long: round 0
/// measures the base and diagonal probes, round 1 the pair probes they
/// select — every within-block pair, then the cross-block pairs with the
/// largest diagonal-product prior, as far as the budget goes. Assembly
/// PSD-projects the partially observed Ω, whose unobserved cross terms
/// stay zero.
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
}

impl OmegaPlan for EstimationPlan<'_> {
    /// The measurement configuration fingerprint folded with the
    /// estimator tag, the resolved budget and [`DEFAULT_ESTIMATOR_SEED`],
    /// so an estimation journal never mixes with an exact sweep's or one
    /// of another budget.
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
            1 => pair_round(
                self.ctx.num_layers(),
                self.ctx.bits().len(),
                self.budget,
                records,
            )?,
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

/// One candidate pair probe with its selection key.
struct PairCandidate {
    id: ProbeId,
    /// Outer layer `i`: the pair shard the probe belongs to.
    outer: usize,
    /// Canonical position within the outer shard's probe list (the order
    /// [`ShardContext::shard_probes`] emits).
    slot: usize,
    /// Diagonal-product prior `|Ω_ii(m) · Ω_jj(n)|`.
    score: f64,
}

/// The pair probes `budget` buys, grouped per outer shard in canonical
/// probe order. BRECQ-style locality prior: every within-block pair
/// (blocks of two layers) first; if the budget covers them all, the rest
/// goes to the cross-block pairs with the largest diagonal-product prior,
/// ties to the lower outer layer, then the earlier probe. A pure function
/// of the budget and the diagonal records — the determinism linchpin.
///
/// # Errors
///
/// [`MeasureError::NonFiniteBaseLoss`] when the base record is
/// quarantined or non-finite; [`MeasureError::MissingProbes`] when it is
/// absent.
fn pair_round(
    num_layers: usize,
    k: usize,
    budget: usize,
    records: &Records,
) -> Result<Round, MeasureError> {
    const BLOCK: usize = 2;
    let mandatory = mandatory_probes(num_layers, k);
    let base = records
        .get(&ProbeId::Base)
        .ok_or(MeasureError::MissingProbes {
            missing: 1,
            total: mandatory,
        })?;
    if base.quarantined || !base.loss.is_finite() {
        return Err(MeasureError::NonFiniteBaseLoss { loss: base.loss });
    }
    // Diagonal Ω values `|2(L − base)|`; a missing or quarantined probe
    // contributes 0.
    let prior: Vec<Vec<f64>> = (0..num_layers as u32)
        .map(|layer| {
            (0..k as u32)
                .map(|bit| match records.get(&ProbeId::Diag { layer, bit }) {
                    Some(r) if r.loss.is_finite() => (2.0 * (r.loss - base.loss)).abs(),
                    _ => 0.0,
                })
                .collect()
        })
        .collect();

    let (mut within, mut cross) = (Vec::new(), Vec::new());
    for outer in 0..num_layers.saturating_sub(1) {
        let mut slot = 0;
        for m in 0..k {
            for j in (outer + 1)..num_layers {
                for n in 0..k {
                    let candidate = PairCandidate {
                        id: ProbeId::Pair {
                            layer_i: outer as u32,
                            bit_m: m as u32,
                            layer_j: j as u32,
                            bit_n: n as u32,
                        },
                        outer,
                        slot,
                        score: prior[outer][m] * prior[j][n],
                    };
                    if outer / BLOCK == j / BLOCK {
                        within.push(candidate);
                    } else {
                        cross.push(candidate);
                    }
                    slot += 1;
                }
            }
        }
    }
    let pair_budget = budget
        .saturating_sub(mandatory)
        .min(within.len() + cross.len());
    let by_prior = |a: &PairCandidate, b: &PairCandidate| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(Ordering::Equal)
            .then(a.outer.cmp(&b.outer))
            .then(a.slot.cmp(&b.slot))
    };
    let mut picked = if within.len() > pair_budget {
        within.sort_by(by_prior);
        within.truncate(pair_budget);
        within
    } else {
        cross.sort_by(by_prior);
        cross.truncate(pair_budget - within.len());
        within.extend(cross);
        within
    };
    picked.sort_by_key(|c| (c.outer, c.slot));

    let mut round: Round = Vec::new();
    for c in picked {
        let outer = c.outer as u32;
        match round.last_mut() {
            Some((ShardSpec::Pair { outer: last }, ids)) if *last == outer => ids.push(c.id),
            _ => round.push((ShardSpec::Pair { outer }, vec![c.id])),
        }
    }
    Ok(round)
}

#[cfg(test)]
mod tests {
    use super::*;

    use clado_core::journal::ProbeRecord;

    fn pair(layer_i: u32, bit_m: u32, layer_j: u32, bit_n: u32) -> ProbeId {
        ProbeId::Pair {
            layer_i,
            bit_m,
            layer_j,
            bit_n,
        }
    }

    /// Base and diagonal records of 4 layers × 2 bits whose diagonal Ω
    /// is `(layer + 1)(bit + 1)`.
    fn diagonal_records() -> Records {
        let mut records = Records::new();
        let mut put = |id, loss| {
            records.insert(
                id,
                ProbeRecord {
                    id,
                    loss,
                    quarantined: false,
                },
            );
        };
        put(ProbeId::Base, 1.0);
        for layer in 0..4u32 {
            for bit in 0..2u32 {
                let omega = f64::from((layer + 1) * (bit + 1));
                put(ProbeId::Diag { layer, bit }, 1.0 + omega / 2.0);
            }
        }
        records
    }

    #[test]
    fn pairs_take_every_within_block_pair_then_the_top_cross_pairs() {
        // Mandatory 9 probes; 8 within-block pairs (layers 0–1 and 2–3);
        // 2 left for cross pairs: priors 4·8 = 32 and 4·6 = 24, both of
        // outer layer 1, which has no within-block pair.
        let round = pair_round(4, 2, 9 + 8 + 2, &diagonal_records()).unwrap();
        let within = |i, j| -> Vec<ProbeId> {
            (0..2)
                .flat_map(|m| (0..2).map(move |n| pair(i, m, j, n)))
                .collect()
        };
        assert_eq!(
            round,
            vec![
                (ShardSpec::Pair { outer: 0 }, within(0, 1)),
                (
                    ShardSpec::Pair { outer: 1 },
                    vec![pair(1, 1, 2, 1), pair(1, 1, 3, 1)]
                ),
                (ShardSpec::Pair { outer: 2 }, within(2, 3)),
            ]
        );
    }

    #[test]
    fn a_budget_short_of_the_within_block_pairs_takes_the_top_priors() {
        // 3 pairs: prior 48, then the 24/24 tie in canonical order.
        let round = pair_round(4, 2, 9 + 3, &diagonal_records()).unwrap();
        assert_eq!(
            round,
            vec![(
                ShardSpec::Pair { outer: 2 },
                vec![pair(2, 0, 3, 1), pair(2, 1, 3, 0), pair(2, 1, 3, 1)]
            )]
        );
        assert!(pair_round(4, 2, 9, &diagonal_records()).unwrap().is_empty());
    }

    #[test]
    fn pairs_need_a_finite_base_record() {
        let mut records = diagonal_records();
        records.remove(&ProbeId::Base);
        assert!(matches!(
            pair_round(4, 2, 20, &records),
            Err(MeasureError::MissingProbes { .. })
        ));
    }

    #[test]
    fn resolve_budget_floors_and_caps() {
        assert_eq!(resolve_budget(0, 100, 7), 25);
        assert_eq!(resolve_budget(3, 100, 7), 7);
        assert_eq!(resolve_budget(1000, 100, 7), 100);
        assert_eq!(resolve_budget(40, 100, 7), 40);
    }
}
