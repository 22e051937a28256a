//! Deterministic probe selection under a budget.
//!
//! The planner owns the part of estimation that must agree bitwise across
//! every execution mode: which pair probes get measured. Its inputs are
//! the estimator kind, the seed, the budget, and the diagonal
//! measurements — all of which are themselves bitwise deterministic — so
//! a single-process run, a threaded run, and every distributed worker
//! (each building its own planner from its own copy of the model) arrive
//! at the identical probe set. The adaptive kind refines its selection
//! from measured pair values, but only *within* one shard, so a shard
//! remains a self-contained, relocatable unit of work.

// Index-based loops are kept where they mirror the probe-grid layout.
#![allow(clippy::needless_range_loop)]
use crate::EstimatorKind;
use clado_core::journal::{ProbeId, ProbeRecord};
use clado_core::{MeasureError, ShardContext, ShardRunStats, ShardSpec};
use clado_models::DataSplit;
use clado_nn::Network;
use clado_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

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

/// Deterministic probe plan for one estimation configuration.
///
/// Built from locally-measured base and diagonal probes (memoized, so
/// [`ProbePlanner::run_shard`] serves the `Base`/`Diag` shards without
/// re-evaluating them); `Pair` shards evaluate only the planned subset.
pub struct ProbePlanner {
    kind: EstimatorKind,
    seed: u64,
    num_layers: usize,
    k: usize,
    base_loss: f64,
    /// Raw diagonal losses `L(w+Δ)`, indexed `[layer][bit]`; NaN marks a
    /// quarantined probe.
    diag_loss: Vec<Vec<f64>>,
    /// Diagonal Ω values `|2(L−base)|` used as selection priors
    /// (quarantined probes contribute 0, consistently everywhere).
    diag_omega: Vec<Vec<f64>>,
    /// Memoized base+diagonal records, grouped by shard in canonical
    /// shard order (`base, diag(0..I)`).
    mandatory: Vec<Vec<ProbeRecord>>,
    /// For sketched/blocktopk: the exact pair selection per outer shard,
    /// in canonical probe order. `None` for adaptive (two-round,
    /// value-dependent within the shard).
    fixed: Option<Vec<Vec<ProbeId>>>,
    /// Pair-probe budget per outer shard (adaptive; also recorded for
    /// fixed kinds so `planned_probes` is uniform).
    shard_budgets: Vec<usize>,
}

impl ProbePlanner {
    /// Builds a plan by measuring (or resuming) the base and diagonal
    /// probes on `net`, then selecting pair probes for `budget`.
    ///
    /// `resume` supplies already-journaled records; present base/diag
    /// records are reused instead of re-measured (they are bitwise
    /// identical either way). Returns the planner plus the freshly
    /// measured record groups (one per shard, for journaling) and their
    /// accumulated run stats.
    ///
    /// # Errors
    ///
    /// [`MeasureError::NonFiniteBaseLoss`] when the base loss stays
    /// non-finite after the quarantine retry.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        ctx: &ShardContext,
        net: &mut Network,
        set: &DataSplit,
        telemetry: &Telemetry,
        kind: EstimatorKind,
        budget: usize,
        seed: u64,
        resume: &HashMap<ProbeId, ProbeRecord>,
    ) -> Result<(Self, Vec<Vec<ProbeRecord>>, ShardRunStats), MeasureError> {
        let _span = telemetry.span("estim.plan");
        let num_layers = ctx.num_layers();
        let k = ctx.bits().len();
        let mut stats = ShardRunStats::default();
        let mut fresh: Vec<Vec<ProbeRecord>> = Vec::new();
        let mut mandatory: Vec<Vec<ProbeRecord>> = Vec::new();

        let mut run_mandatory_shard = |spec: ShardSpec, net: &mut Network| -> Vec<ProbeRecord> {
            let ids = ctx.shard_probes(spec);
            if let Some(recs) = ids
                .iter()
                .map(|id| resume.get(id).copied())
                .collect::<Option<Vec<_>>>()
            {
                return recs;
            }
            let (recs, s) = ctx.run_shard(net, set, spec, telemetry);
            stats += s;
            fresh.push(recs.clone());
            recs
        };

        let base_recs = run_mandatory_shard(ShardSpec::Base, net);
        let base = base_recs[0];
        if base.quarantined || !base.loss.is_finite() {
            return Err(MeasureError::NonFiniteBaseLoss { loss: base.loss });
        }
        let base_loss = base.loss;
        mandatory.push(base_recs);

        let mut diag_loss = vec![vec![f64::NAN; k]; num_layers];
        for layer in 0..num_layers {
            let recs = run_mandatory_shard(
                ShardSpec::Diag {
                    layer: layer as u32,
                },
                net,
            );
            for r in &recs {
                if let ProbeId::Diag { bit, .. } = r.id {
                    diag_loss[layer][bit as usize] = r.loss;
                }
            }
            mandatory.push(recs);
        }
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
            seed,
            num_layers,
            k,
            base_loss,
            diag_loss,
            diag_omega,
            mandatory,
            fixed: None,
            shard_budgets: vec![0; num_layers.saturating_sub(1)],
        };
        let pair_budget = budget.saturating_sub(mandatory_probes(num_layers, k));
        planner.select_pairs(pair_budget);
        Ok((planner, fresh, stats))
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
    /// of (kind, seed, budget, diagonal values) — the determinism
    /// linchpin.
    fn select_pairs(&mut self, pair_budget: usize) {
        let outers = self.num_layers.saturating_sub(1);
        let per_outer: Vec<Vec<PairCandidate>> = (0..outers).map(|i| self.candidates(i)).collect();
        let total_pairs: usize = per_outer.iter().map(Vec::len).sum();
        let pair_budget = pair_budget.min(total_pairs);
        match self.kind {
            EstimatorKind::Sketched => {
                // Uniform subset without replacement over the global pair
                // index space — the classic matrix-completion sampling —
                // via a seeded partial Fisher–Yates.
                let mut pool: Vec<usize> = (0..total_pairs).collect();
                let mut rng = StdRng::seed_from_u64(self.seed);
                for t in 0..pair_budget {
                    let pick = rng.gen_range(t..total_pairs);
                    pool.swap(t, pick);
                }
                let mut chosen = pool[..pair_budget].to_vec();
                chosen.sort_unstable();
                let mut fixed: Vec<Vec<ProbeId>> = vec![Vec::new(); outers];
                let mut offsets = Vec::with_capacity(outers);
                let mut acc = 0usize;
                for cands in &per_outer {
                    offsets.push(acc);
                    acc += cands.len();
                }
                for g in chosen {
                    let outer = match offsets.binary_search(&g) {
                        Ok(i) => i,
                        Err(i) => i - 1,
                    };
                    fixed[outer].push(per_outer[outer][g - offsets[outer]].id);
                }
                self.shard_budgets = fixed.iter().map(Vec::len).collect();
                self.fixed = Some(fixed);
            }
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
            EstimatorKind::Hutchinson => {
                // Diagonal-only: no pair probes (handled by the
                // Hutchinson estimator, which never builds a planner).
            }
        }
    }

    /// Total probes this plan spends: base, diagonal, and every planned
    /// pair probe. Deterministic for a fixed (kind, seed, budget,
    /// configuration) — resume does not change what counts as spent.
    pub fn planned_probes(&self) -> usize {
        mandatory_probes(self.num_layers, self.k) + self.shard_budgets.iter().sum::<usize>()
    }

    /// The memoized base+diagonal records (flattened).
    pub fn mandatory_records(&self) -> Vec<ProbeRecord> {
        self.mandatory.iter().flatten().copied().collect()
    }

    /// Evaluates one shard under the plan. `Base`/`Diag` shards return
    /// the memoized records with zero cost; `Pair` shards evaluate the
    /// planned subset (two prior-refined rounds for the adaptive kind).
    pub fn run_shard(
        &self,
        ctx: &ShardContext,
        net: &mut Network,
        set: &DataSplit,
        spec: ShardSpec,
        telemetry: &Telemetry,
    ) -> (Vec<ProbeRecord>, ShardRunStats) {
        match spec {
            ShardSpec::Base => (self.mandatory[0].clone(), ShardRunStats::default()),
            ShardSpec::Diag { layer } => (
                self.mandatory[1 + layer as usize].clone(),
                ShardRunStats::default(),
            ),
            ShardSpec::Pair { outer } => {
                let budget = self.shard_budgets[outer as usize];
                if budget == 0 {
                    return (Vec::new(), ShardRunStats::default());
                }
                if let Some(fixed) = &self.fixed {
                    return ctx.run_probes(net, set, &fixed[outer as usize], telemetry);
                }
                self.run_adaptive_shard(ctx, net, set, outer as usize, budget, telemetry)
            }
        }
    }

    /// Two-round adaptive evaluation of one outer shard: round one takes
    /// the widest prior intervals; observed values then rescale the
    /// widths of unobserved entries sharing the inner layer, and round
    /// two takes the widest refreshed intervals. Self-contained, so the
    /// result is identical wherever the shard runs.
    fn run_adaptive_shard(
        &self,
        ctx: &ShardContext,
        net: &mut Network,
        set: &DataSplit,
        outer: usize,
        budget: usize,
        telemetry: &Telemetry,
    ) -> (Vec<ProbeRecord>, ShardRunStats) {
        let cands = self.candidates(outer);
        if budget >= cands.len() {
            let ids: Vec<ProbeId> = cands.iter().map(|c| c.id).collect();
            return ctx.run_probes(net, set, &ids, telemetry);
        }
        let by_width = |w: &[f64]| {
            let mut order: Vec<usize> = (0..cands.len()).collect();
            order.sort_by(|&a, &b| {
                w[b].partial_cmp(&w[a])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            order
        };

        let round1 = budget.div_ceil(2);
        let widths: Vec<f64> = cands.iter().map(|c| c.score).collect();
        let order = by_width(&widths);
        let mut sel1: Vec<usize> = order[..round1].to_vec();
        sel1.sort_unstable();
        let ids1: Vec<ProbeId> = sel1.iter().map(|&s| cands[s].id).collect();
        let (mut recs, mut stats) = ctx.run_probes(net, set, &ids1, telemetry);

        let round2 = budget - round1;
        if round2 > 0 {
            // Observed |Ω| over prior, averaged per inner layer; inner
            // layers with no observation keep ratio 1.
            let mut sums = vec![0.0f64; self.num_layers];
            let mut counts = vec![0usize; self.num_layers];
            for (&slot, rec) in sel1.iter().zip(&recs) {
                let c = &cands[slot];
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
            let order = by_width(&refreshed);
            let mut sel2: Vec<usize> = order[..round2].to_vec();
            sel2.sort_unstable();
            let ids2: Vec<ProbeId> = sel2.iter().map(|&s| cands[s].id).collect();
            let (recs2, stats2) = ctx.run_probes(net, set, &ids2, telemetry);
            recs.extend(recs2);
            stats += stats2;
        }
        (recs, stats)
    }
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
