//! Baseline sensitivity-based MPQ algorithms: HAWQ-style and MPQCO-style.
//!
//! Both produce a *diagonal* objective matrix (no cross-layer terms) in the
//! same `|𝔹|I × |𝔹|I` layout as CLADO's Ĝ, so the identical eq. (11) solve
//! path applies — that is exactly the structural comparison the paper
//! makes.
//!
//! * **HAWQ-style** (Dong et al. 2019/2020; Yao et al. 2021): per-layer
//!   sensitivity `Ω_i(b) = (Tr(H_i)/n_i) · ‖Δw_i(b)‖²`, with the Hessian
//!   trace estimated by a Hutchinson probe over Hessian-vector products
//!   (central finite differences of backprop gradients).
//! * **MPQCO-style** (Chen et al. 2021): a diagonal Gauss-Newton/empirical-
//!   Fisher second-order proxy: `Ω_i(b) = Σ_e F_i[e] · Δw_i(b)[e]²`, where
//!   `F_i` is the per-element empirical Fisher (mean squared per-sample
//!   gradient). It is much cheaper to measure than HAWQ or CLADO — a
//!   handful of backward passes — matching the paper's runtime ordering
//!   (MPQCO ≪ HAWQ ≈ CLADO).

// Index-based loops are kept where they mirror the math directly.
#![allow(clippy::needless_range_loop)]
use crate::engine::{replica_map, resolve_threads};
use crate::probe::{quant_error_table, quantizable_gradients};
use clado_models::DataSplit;
use clado_nn::{cross_entropy, Network};
use clado_quant::{BitWidthSet, QuantScheme};
use clado_solver::SymMatrix;
use clado_telemetry::Telemetry;
use clado_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Options shared by the baseline sensitivity estimators.
#[derive(Debug, Clone)]
pub struct BaselineOptions {
    /// Quantization scheme for the Δw error tensors.
    pub scheme: QuantScheme,
    /// Probe batch size.
    pub batch_size: usize,
    /// Hutchinson probes per layer (HAWQ only).
    pub hutchinson_probes: usize,
    /// Finite-difference step for Hessian-vector products (HAWQ only).
    pub fd_epsilon: f32,
    /// RNG seed for the Rademacher probes.
    pub seed: u64,
    /// Worker threads for the Hutchinson probe fan-out; `0` means all
    /// available cores. The estimate is bitwise identical for any value.
    pub threads: usize,
    /// Telemetry sink for spans, counters, and progress (never affects
    /// the estimates).
    pub telemetry: Telemetry,
}

impl Default for BaselineOptions {
    fn default() -> Self {
        Self {
            scheme: QuantScheme::PerTensorSymmetric,
            batch_size: crate::probe::PROBE_BATCH,
            hutchinson_probes: 4,
            fd_epsilon: 5e-3,
            seed: 0xBA5E,
            threads: 0,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// HAWQ-style diagonal sensitivity matrix:
/// `Ĝ[(i,m),(i,m)] = (Tr(H_i)/n_i) · ‖Δw_m⁽ⁱ⁾‖²`.
pub fn hawq_sensitivities(
    network: &mut Network,
    sens_set: &DataSplit,
    bits: &BitWidthSet,
    options: &BaselineOptions,
) -> SymMatrix {
    let _span = options.telemetry.span("baselines.hawq");
    let num_layers = network.quantizable_layers().len();
    let k = bits.len();
    let deltas = quant_error_table(network, bits, options.scheme);
    let traces = hessian_traces(network, sens_set, options);
    let mut g = SymMatrix::zeros(num_layers * k);
    for i in 0..num_layers {
        let n_i = deltas[i][0].numel() as f64;
        let avg_trace = traces[i] / n_i;
        for m in 0..k {
            let v = i * k + m;
            g.set(v, v, avg_trace * deltas[i][m].norm_sq());
        }
    }
    g
}

/// Hutchinson estimates of `Tr(H_i)` for every quantizable layer.
///
/// Each probe draws a Rademacher vector `z_i` per layer and accumulates
/// `z_iᵀ H z_i` using one central-difference HVP that covers all layers at
/// once (perturb every layer by `±ε z`, difference the gradients).
pub fn hessian_traces(
    network: &mut Network,
    sens_set: &DataSplit,
    options: &BaselineOptions,
) -> Vec<f64> {
    let _span = options.telemetry.span("baselines.hutchinson");
    let c_probes = options.telemetry.counter("baselines.hutchinson.probes");
    let num_layers = network.quantizable_layers().len();
    let mut rng = StdRng::seed_from_u64(options.seed);
    let originals = network.snapshot_weights();
    // Draw every probe's Rademacher directions up front from the single
    // seeded stream, so the estimate does not depend on which worker runs
    // which probe. Cross-layer Hessian blocks contribute zero in
    // expectation because the z_i are independent and zero-mean.
    let all_zs: Vec<Vec<Tensor>> = (0..options.hutchinson_probes)
        .map(|_| {
            (0..num_layers)
                .map(|i| {
                    let mut z = Tensor::zeros(originals[i].shape());
                    for v in z.data_mut() {
                        *v = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                    }
                    z
                })
                .collect()
        })
        .collect();
    let eps = options.fd_epsilon;
    let batch_size = options.batch_size;
    let threads = resolve_threads(options.threads);
    let progress = options
        .telemetry
        .progress("hutchinson probes", options.hutchinson_probes as u64);
    let per_probe: Vec<Vec<f64>> = replica_map(network, threads, &all_zs, |net, zs| {
        let _s = options.telemetry.span("baselines.hutchinson.probe");
        for (i, z) in zs.iter().enumerate() {
            let mut step = z.clone();
            step.scale(eps);
            net.perturb_weight(i, &step);
        }
        let g_plus = quantizable_gradients(net, sens_set, batch_size);
        net.restore_weights(&originals);
        for (i, z) in zs.iter().enumerate() {
            let mut step = z.clone();
            step.scale(-eps);
            net.perturb_weight(i, &step);
        }
        let g_minus = quantizable_gradients(net, sens_set, batch_size);
        net.restore_weights(&originals);
        let hz: Vec<f64> = zs
            .iter()
            .enumerate()
            // zᵀ H z ≈ zᵀ (g₊ − g₋) / (2ε)
            .map(|(i, z)| (&g_plus[i] - &g_minus[i]).dot(z) / (2.0 * eps as f64))
            .collect();
        c_probes.incr();
        progress.tick();
        hz
    });
    if options.hutchinson_probes > 0 {
        progress.finish();
    }
    // Accumulate in probe order — the same addition order as a serial run,
    // so the result is bitwise independent of the thread count.
    let mut traces = vec![0.0f64; num_layers];
    for hz in &per_probe {
        for (trace, &v) in traces.iter_mut().zip(hz) {
            *trace += v / options.hutchinson_probes as f64;
        }
    }
    traces
}

/// MPQCO-style diagonal sensitivity matrix from the empirical Fisher:
/// `Ĝ[(i,m),(i,m)] = Σ_e F_i[e] · Δw_m⁽ⁱ⁾[e]²`.
pub fn mpqco_sensitivities(
    network: &mut Network,
    sens_set: &DataSplit,
    bits: &BitWidthSet,
    options: &BaselineOptions,
) -> SymMatrix {
    let _span = options.telemetry.span("baselines.mpqco");
    let num_layers = network.quantizable_layers().len();
    let k = bits.len();
    let deltas = quant_error_table(network, bits, options.scheme);
    let fisher = {
        let _s = options.telemetry.span("baselines.mpqco.fisher");
        empirical_fisher(network, sens_set, options.batch_size)
    };
    let mut g = SymMatrix::zeros(num_layers * k);
    for i in 0..num_layers {
        for m in 0..k {
            let v = i * k + m;
            let omega: f64 = fisher[i]
                .data()
                .iter()
                .zip(deltas[i][m].data())
                .map(|(&f, &d)| (f as f64) * (d as f64) * (d as f64))
                .sum();
            g.set(v, v, omega);
        }
    }
    g
}

/// Per-element empirical Fisher of each quantizable layer: the mean of
/// squared per-mini-batch gradients (a standard diagonal Gauss-Newton
/// surrogate; small batches keep it close to the per-sample Fisher while
/// remaining cheap).
pub fn empirical_fisher(
    network: &mut Network,
    sens_set: &DataSplit,
    batch_size: usize,
) -> Vec<Tensor> {
    let num_layers = network.quantizable_layers().len();
    let mut fisher: Vec<Tensor> = (0..num_layers)
        .map(|i| Tensor::zeros(network.weight(i).shape()))
        .collect();
    // Small batches approximate per-sample gradients at tolerable cost.
    let fisher_batch = batch_size.clamp(1, 8);
    let mut batches = 0usize;
    for (x, labels) in sens_set.batches(fisher_batch) {
        network.zero_grad();
        let logits = network.forward(x, true);
        let (_, grad) = cross_entropy(&logits, &labels);
        network.backward(grad);
        for (f, g) in fisher.iter_mut().zip(network.quantizable_weight_grads()) {
            for (f, &g) in f.data_mut().iter_mut().zip(g.data()) {
                *f += g * g;
            }
        }
        batches += 1;
    }
    network.zero_grad();
    for f in &mut fisher {
        f.scale(1.0 / batches.max(1) as f32);
    }
    fisher
}

#[cfg(test)]
mod tests {
    use super::*;
    use clado_models::{SynthVision, SynthVisionConfig};
    use clado_nn::{Conv2d, GlobalAvgPool, Linear, Network, Sequential};
    use clado_tensor::Conv2dSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Network, SynthVision) {
        let mut rng = StdRng::seed_from_u64(77);
        let net = Network::new(
            Sequential::new()
                .push(
                    "conv1",
                    Conv2d::new(Conv2dSpec::new(3, 6, 3, 1, 1), true, &mut rng),
                )
                .push("relu1", clado_nn::Activation::new(clado_nn::ActKind::Relu))
                .push("pool", GlobalAvgPool::new())
                .push("fc", Linear::new(6, 4, &mut rng)),
            4,
        );
        let data = SynthVision::generate(SynthVisionConfig {
            classes: 4,
            img: 8,
            train: 48,
            val: 24,
            seed: 13,
            noise: 0.2,
            label_noise: 0.0,
        });
        (net, data)
    }

    #[test]
    fn hawq_matrix_is_diagonal_and_monotone_in_bits() {
        let (mut net, data) = setup();
        let set = data.train.subset(&(0..16).collect::<Vec<_>>());
        let bits = BitWidthSet::standard();
        let g = hawq_sensitivities(&mut net, &set, &bits, &BaselineOptions::default());
        let k = bits.len();
        for i in 0..2 {
            for m in 0..k {
                for n in 0..k {
                    let (u, v) = (i * k + m, (1 - i) * k + n);
                    assert_eq!(g.get(u, v), 0.0, "off-diagonal must vanish");
                }
            }
            // ‖Δw‖² decreases with bits, so the diagonal must not increase
            // (trace factor is shared within the layer).
            let d2 = g.get(i * k, i * k).abs();
            let d8 = g.get(i * k + 2, i * k + 2).abs();
            assert!(d8 <= d2 + 1e-12, "layer {i}: {d2} vs {d8}");
        }
    }

    #[test]
    fn fisher_is_nonnegative_and_shaped() {
        let (mut net, data) = setup();
        let set = data.train.subset(&(0..16).collect::<Vec<_>>());
        let fisher = empirical_fisher(&mut net, &set, 8);
        assert_eq!(fisher.len(), 2);
        assert_eq!(fisher[0].shape(), net.weight(0).shape());
        assert!(fisher.iter().all(|f| f.data().iter().all(|&v| v >= 0.0)));
        assert!(fisher.iter().any(|f| f.norm() > 0.0));
    }

    #[test]
    fn mpqco_sensitivities_nonnegative_diagonal() {
        let (mut net, data) = setup();
        let set = data.train.subset(&(0..16).collect::<Vec<_>>());
        let bits = BitWidthSet::standard();
        let g = mpqco_sensitivities(&mut net, &set, &bits, &BaselineOptions::default());
        for v in 0..g.dim() {
            assert!(g.get(v, v) >= 0.0);
        }
    }

    #[test]
    fn hessian_trace_matches_quadratic_toy_model() {
        // For a linear-softmax model the Hessian of the CE loss is PSD,
        // so traces must come out positive.
        let (mut net, data) = setup();
        let set = data.train.subset(&(0..24).collect::<Vec<_>>());
        let traces = hessian_traces(
            &mut net,
            &set,
            &BaselineOptions {
                hutchinson_probes: 3,
                ..Default::default()
            },
        );
        assert_eq!(traces.len(), 2);
        assert!(traces.iter().all(|&t| t.is_finite()));
        // The fc layer feeds the loss directly; its curvature should be
        // clearly nonzero.
        assert!(traces[1].abs() > 1e-6, "{traces:?}");
    }

    #[test]
    fn telemetry_counts_probes_without_changing_traces() {
        let (mut net, data) = setup();
        let set = data.train.subset(&(0..16).collect::<Vec<_>>());
        let reference = hessian_traces(&mut net, &set, &BaselineOptions::default());
        let telemetry = Telemetry::new();
        let traced = hessian_traces(
            &mut net,
            &set,
            &BaselineOptions {
                telemetry: telemetry.clone(),
                ..Default::default()
            },
        );
        for (a, b) in reference.iter().zip(&traced) {
            assert_eq!(a.to_bits(), b.to_bits(), "telemetry changed the estimate");
        }
        assert_eq!(telemetry.counter_value("baselines.hutchinson.probes"), 4);
        assert!(telemetry.span_stats("baselines.hutchinson").is_some());
        assert_eq!(
            telemetry
                .span_stats("baselines.hutchinson.probe")
                .expect("probe span recorded")
                .count,
            4
        );
    }

    #[test]
    fn baselines_restore_weights() {
        let (mut net, data) = setup();
        let before = net.snapshot_weights();
        let set = data.train.subset(&(0..8).collect::<Vec<_>>());
        let bits = BitWidthSet::standard();
        let _ = hawq_sensitivities(&mut net, &set, &bits, &BaselineOptions::default());
        let _ = mpqco_sensitivities(&mut net, &set, &bits, &BaselineOptions::default());
        let after = net.snapshot_weights();
        for (a, b) in before.iter().zip(&after) {
            assert_eq!(a.data(), b.data());
        }
    }
}
