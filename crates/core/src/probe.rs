//! Loss and gradient probes over a sensitivity set.
//!
//! These are the primitives Algorithm 1 and the baselines are built from:
//! evaluation-mode mean loss under weight perturbations (forward-only), and
//! training-mode mean gradients (for the HVP-based baselines and Table 2).

use clado_models::DataSplit;
use clado_nn::{cross_entropy, Network};
use clado_quant::{quant_error, BitWidthSet, QuantScheme};
use clado_tensor::Tensor;

/// Default probe batch size.
pub const PROBE_BATCH: usize = 64;

/// Evaluation-mode mean cross-entropy loss of `network` on `set`.
///
/// This is the `L(·)` of Algorithm 1.
pub fn eval_loss(network: &mut Network, set: &DataSplit, batch_size: usize) -> f64 {
    clado_models::mean_loss(network, set, batch_size)
}

/// Cached boundary activations at a stage boundary of the root stack.
///
/// Holds, for every probe batch, the activation entering stage `stage`
/// (along with its labels) so that perturbations confined to stages
/// `stage..` can be evaluated with [`eval_loss_from`] without re-running
/// the unperturbed prefix. Evaluation-mode forward is pure — no running
/// statistics are updated — so the cached prefix is *exact*: prefix +
/// suffix executes the identical op sequence as a full forward and the
/// resulting loss is bitwise equal.
#[derive(Debug, Clone)]
pub struct PrefixCache {
    stage: usize,
    batches: Vec<(Tensor, Vec<usize>)>,
    total: usize,
}

impl PrefixCache {
    /// The stage boundary the activations were captured at.
    pub fn stage(&self) -> usize {
        self.stage
    }

    /// Number of cached probe batches.
    pub fn num_batches(&self) -> usize {
        self.batches.len()
    }
}

/// Runs the unperturbed prefix `0..stage` once over `set` and caches the
/// boundary activations for repeated suffix evaluations.
pub fn build_prefix_cache(
    network: &mut Network,
    set: &DataSplit,
    batch_size: usize,
    stage: usize,
) -> PrefixCache {
    let batches = set
        .batches(batch_size)
        .map(|(x, labels)| (network.forward_prefix(stage, x, false), labels))
        .collect();
    PrefixCache {
        stage,
        batches,
        total: set.len(),
    }
}

/// Advances a prefix cache to a later stage boundary by running stages
/// `cache.stage()..to_stage` once per batch with the network's *current*
/// weights.
///
/// This is the batched-probe primitive: with an outer perturbation applied
/// to a layer in stage `s_i`, advancing the cache past `s_i` bakes that
/// perturbation into the boundary activations, so every inner probe at a
/// later stage `s_j` re-runs only `s_j..` instead of `s_i..`. Because the
/// stage fold composes bitwise-identically (see
/// `Network::forward_range`), losses computed from the advanced cache are
/// bit-for-bit equal to losses from the original cache.
///
/// # Panics
///
/// Panics if `to_stage < cache.stage()`.
pub fn advance_prefix_cache(
    network: &mut Network,
    cache: &PrefixCache,
    to_stage: usize,
) -> PrefixCache {
    roll_prefix_cache(network, cache.clone(), to_stage)
}

/// [`advance_prefix_cache`] for a cache that is not needed afterwards:
/// each batch's activation moves through the stages instead of being
/// copied first, so the old and the new cache are never held whole at
/// once.
pub(crate) fn roll_prefix_cache(
    network: &mut Network,
    cache: PrefixCache,
    to_stage: usize,
) -> PrefixCache {
    assert!(
        to_stage >= cache.stage,
        "cannot rewind a prefix cache ({} -> {to_stage})",
        cache.stage
    );
    let from = cache.stage;
    let batches = cache
        .batches
        .into_iter()
        .map(|(x, labels)| (network.forward_range(from, to_stage, x, false), labels))
        .collect();
    PrefixCache {
        stage: to_stage,
        batches,
        total: cache.total,
    }
}

/// Evaluation-mode mean cross-entropy loss computed by running only the
/// suffix `cache.stage()..` on the cached boundary activations.
///
/// Bitwise equal to [`eval_loss`] on the same set as long as all weight
/// perturbations since the cache was built are confined to the suffix.
pub fn eval_loss_from(network: &mut Network, cache: &PrefixCache) -> f64 {
    let mut loss_weighted = 0.0f64;
    for (x, labels) in &cache.batches {
        let n = labels.len() as f64;
        let logits = network.forward_from(cache.stage, x.clone(), false);
        loss_weighted += clado_nn::cross_entropy_loss(&logits, labels) * n;
    }
    loss_weighted / cache.total as f64
}

/// Training-mode mean loss (batch-statistics BatchNorm); used by QAT-style
/// probes. Note [`quantizable_gradients`] differentiates the evaluation-mode
/// loss instead, matching Algorithm 1's `L(·)`.
pub fn train_mode_loss(network: &mut Network, set: &DataSplit, batch_size: usize) -> f64 {
    let mut loss_weighted = 0.0f64;
    for (x, labels) in set.batches(batch_size) {
        let n = labels.len() as f64;
        let logits = network.forward(x, true);
        loss_weighted += clado_nn::cross_entropy_loss(&logits, &labels) * n;
    }
    loss_weighted / set.len() as f64
}

/// Mean-loss gradients of the quantizable-layer weights, computed against
/// the *evaluation-mode* loss (running-statistics BatchNorm) so they are
/// the exact gradients of the `L(·)` that Algorithm 1 probes. Returns one
/// gradient tensor per quantizable layer, in layer order.
pub fn quantizable_gradients(
    network: &mut Network,
    set: &DataSplit,
    batch_size: usize,
) -> Vec<Tensor> {
    network.zero_grad();
    let total = set.len() as f64;
    for (x, labels) in set.batches(batch_size) {
        let n = labels.len() as f64;
        let logits = network.forward(x, false);
        let (_, mut grad) = cross_entropy(&logits, &labels);
        // cross_entropy averages within the batch; reweight so the
        // accumulated gradient is the mean over the whole set.
        grad.scale((n / total) as f32);
        network.backward(grad);
    }
    let grads = network.quantizable_weight_grads();
    network.zero_grad();
    grads
}

/// Precomputes the quantization-error tensors `Δw_m⁽ⁱ⁾ = Q(w⁽ⁱ⁾, b_m) − w⁽ⁱ⁾`
/// for every quantizable layer and candidate bit-width.
///
/// Indexed as `deltas[layer][bit_index]`.
pub fn quant_error_table(
    network: &Network,
    bits: &BitWidthSet,
    scheme: QuantScheme,
) -> Vec<Vec<Tensor>> {
    let num_layers = network.quantizable_layers().len();
    (0..num_layers)
        .map(|i| {
            let w = network.weight(i);
            bits.iter().map(|b| quant_error(&w, b, scheme)).collect()
        })
        .collect()
}

/// Evaluation-mode top-1 accuracy with the quantizable weights temporarily
/// replaced by their fake-quantized versions at the given per-layer bits.
///
/// The network is restored to its original weights before returning.
///
/// # Panics
///
/// Panics if `assignment` length differs from the quantizable-layer count.
pub fn quantized_accuracy(
    network: &mut Network,
    assignment: &[clado_quant::BitWidth],
    scheme: QuantScheme,
    split: &DataSplit,
) -> f64 {
    let snapshot = apply_quantization(network, assignment, scheme);
    let acc = clado_models::evaluate(network, split);
    network.restore_weights(&snapshot);
    acc
}

/// Replaces every quantizable weight by its fake-quantized version,
/// returning the snapshot of the original weights (for restoration).
///
/// # Panics
///
/// Panics if `assignment` length differs from the quantizable-layer count.
pub fn apply_quantization(
    network: &mut Network,
    assignment: &[clado_quant::BitWidth],
    scheme: QuantScheme,
) -> Vec<Tensor> {
    let num_layers = network.quantizable_layers().len();
    assert_eq!(assignment.len(), num_layers, "assignment length mismatch");
    let snapshot = network.snapshot_weights();
    for (i, &b) in assignment.iter().enumerate() {
        let q = clado_quant::quantize_weights(&snapshot[i], b, scheme);
        network.set_weight(i, &q);
    }
    snapshot
}

#[cfg(test)]
mod tests {
    use super::*;
    use clado_models::{SynthVision, SynthVisionConfig};
    use clado_nn::{Conv2d, GlobalAvgPool, Linear, Network, Sequential};
    use clado_quant::BitWidth;
    use clado_tensor::Conv2dSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net_and_data() -> (Network, SynthVision) {
        let mut rng = StdRng::seed_from_u64(1);
        let net = Network::new(
            Sequential::new()
                .push(
                    "conv",
                    Conv2d::new(Conv2dSpec::new(3, 6, 3, 1, 1), true, &mut rng),
                )
                .push("relu", clado_nn::Activation::new(clado_nn::ActKind::Relu))
                .push("pool", GlobalAvgPool::new())
                .push("fc", Linear::new(6, 4, &mut rng)),
            4,
        );
        let data = SynthVision::generate(SynthVisionConfig {
            classes: 4,
            img: 8,
            train: 64,
            val: 32,
            seed: 5,
            noise: 0.2,
            label_noise: 0.0,
        });
        (net, data)
    }

    #[test]
    fn eval_loss_is_batch_invariant() {
        let (mut net, data) = net_and_data();
        let a = eval_loss(&mut net, &data.val, 8);
        let b = eval_loss(&mut net, &data.val, 32);
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn gradients_match_finite_difference_of_train_loss() {
        let (mut net, data) = net_and_data();
        let set = data.train.subset(&(0..16).collect::<Vec<_>>());
        let grads = quantizable_gradients(&mut net, &set, 16);
        assert_eq!(grads.len(), 2);
        let eps = 1e-3f32;
        // Check one coordinate of each layer.
        for (layer, idx) in [(0usize, 3usize), (1, 5)] {
            let w = net.weight(layer);
            let mut wp = w.clone();
            wp.data_mut()[idx] += eps;
            net.set_weight(layer, &wp);
            let lp = train_mode_loss(&mut net, &set, 16);
            let mut wm = w.clone();
            wm.data_mut()[idx] -= eps;
            net.set_weight(layer, &wm);
            let lm = train_mode_loss(&mut net, &set, 16);
            net.set_weight(layer, &w);
            let fd = ((lp - lm) / (2.0 * eps as f64)) as f32;
            let an = grads[layer].data()[idx];
            assert!(
                (fd - an).abs() < 5e-3,
                "layer {layer} idx {idx}: fd {fd} vs {an}"
            );
        }
    }

    #[test]
    fn quant_error_table_shapes() {
        let (net, _) = net_and_data();
        let bits = BitWidthSet::standard();
        let table = quant_error_table(&net, &bits, QuantScheme::PerTensorSymmetric);
        assert_eq!(table.len(), 2);
        assert_eq!(table[0].len(), 3);
        assert_eq!(table[0][0].shape(), net.weight(0).shape());
        // Errors shrink with more bits.
        assert!(table[0][0].norm_sq() > table[0][2].norm_sq());
    }

    #[test]
    fn quantized_accuracy_restores_weights() {
        let (mut net, data) = net_and_data();
        let before = net.snapshot_weights();
        let assignment = vec![BitWidth::of(2); 2];
        let _ = quantized_accuracy(
            &mut net,
            &assignment,
            QuantScheme::PerTensorSymmetric,
            &data.val,
        );
        let after = net.snapshot_weights();
        for (a, b) in before.iter().zip(&after) {
            assert_eq!(a.data(), b.data());
        }
    }

    #[test]
    fn suffix_eval_is_bitwise_equal_to_full_eval() {
        let (mut net, data) = net_and_data();
        let set = data.val.subset(&(0..24).collect::<Vec<_>>());
        let full = eval_loss(&mut net, &set, 8);
        for stage in 0..=net.num_stages() {
            let cache = build_prefix_cache(&mut net, &set, 8, stage);
            assert_eq!(cache.stage(), stage);
            assert_eq!(cache.num_batches(), 3);
            let suffix = eval_loss_from(&mut net, &cache);
            assert_eq!(
                suffix.to_bits(),
                full.to_bits(),
                "stage {stage}: {suffix} vs {full}"
            );
        }
    }

    #[test]
    fn suffix_eval_stays_exact_under_suffix_perturbations() {
        let (mut net, data) = net_and_data();
        let set = data.val.subset(&(0..16).collect::<Vec<_>>());
        // Perturbation target: the fc layer (quantizable layer 1).
        let stage = net.stage_of(1);
        let cache = build_prefix_cache(&mut net, &set, 8, stage);
        let delta = Tensor::full(net.weight(1).shape(), 0.05);
        net.perturb_weight(1, &delta);
        let full = eval_loss(&mut net, &set, 8);
        let suffix = eval_loss_from(&mut net, &cache);
        assert_eq!(suffix.to_bits(), full.to_bits(), "{suffix} vs {full}");
    }

    #[test]
    fn eight_bit_quantization_is_nearly_lossless() {
        let (mut net, data) = net_and_data();
        let base = eval_loss(&mut net, &data.val, 32);
        let snapshot = apply_quantization(
            &mut net,
            &[BitWidth::of(8); 2],
            QuantScheme::PerTensorSymmetric,
        );
        let q = eval_loss(&mut net, &data.val, 32);
        net.restore_weights(&snapshot);
        assert!((q - base).abs() < 0.05, "8-bit loss moved {base} → {q}");
    }
}
