//! Deterministic training loop used to produce the "pretrained" models.

use crate::dataset::DataSplit;
use clado_nn::{cross_entropy, top1_accuracy, Network, Sgd};

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Number of passes over the training split.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Peak learning rate (decayed by 10× at 60% and 85% of training).
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 14,
            batch_size: 32,
            lr: 0.08,
            momentum: 0.9,
            weight_decay: 1e-4,
        }
    }
}

/// Summary of a training run.
#[derive(Debug, Clone, Copy)]
pub struct TrainReport {
    /// Mean training loss of the final epoch.
    pub final_loss: f64,
    /// Validation top-1 accuracy after training.
    pub val_accuracy: f64,
}

/// Trains `network` on `train` and evaluates on `val`.
///
/// Deterministic: batches are visited in a fixed rotation (no shuffling
/// RNG; the dataset is already generated in random order).
pub fn train(
    network: &mut Network,
    train: &DataSplit,
    val: &DataSplit,
    config: &TrainConfig,
) -> TrainReport {
    let mut sgd = Sgd::new(config.lr, config.momentum, config.weight_decay);
    let mut final_loss = f64::NAN;
    for epoch in 0..config.epochs {
        // Step-decay schedule.
        let progress = epoch as f32 / config.epochs.max(1) as f32;
        sgd.lr = if progress < 0.6 {
            config.lr
        } else if progress < 0.85 {
            config.lr * 0.1
        } else {
            config.lr * 0.01
        };
        let mut loss_sum = 0.0f64;
        let mut batches = 0usize;
        for (x, labels) in train.batches(config.batch_size) {
            let logits = network.forward(x, true);
            let (loss, grad) = cross_entropy(&logits, &labels);
            network.backward(grad);
            sgd.step(network);
            loss_sum += loss;
            batches += 1;
        }
        final_loss = loss_sum / batches.max(1) as f64;
    }
    TrainReport {
        final_loss,
        val_accuracy: evaluate(network, val),
    }
}

/// Top-1 accuracy of `network` on a split (evaluation mode, through
/// [`Network::infer`]), in `[0, 1]`.
pub fn evaluate(network: &mut Network, split: &DataSplit) -> f64 {
    evaluate_batched(network, split, 64)
}

/// Top-1 accuracy with an explicit evaluation batch size.
pub fn evaluate_batched(network: &mut Network, split: &DataSplit, batch_size: usize) -> f64 {
    let mut correct_weighted = 0.0f64;
    for (x, labels) in split.batches(batch_size) {
        let n = labels.len() as f64;
        let logits = network.infer(x);
        correct_weighted += top1_accuracy(&logits, &labels) * n;
    }
    correct_weighted / split.len() as f64
}

/// Mean cross-entropy loss of `network` on a split (evaluation mode,
/// through [`Network::infer`]).
///
/// This is the `L(·)` that Algorithm 1 measures on the sensitivity set.
pub fn mean_loss(network: &mut Network, split: &DataSplit, batch_size: usize) -> f64 {
    let mut loss_weighted = 0.0f64;
    for (x, labels) in split.batches(batch_size) {
        let n = labels.len() as f64;
        let logits = network.infer(x);
        loss_weighted += clado_nn::cross_entropy_loss(&logits, &labels) * n;
    }
    loss_weighted / split.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{SynthVision, SynthVisionConfig};
    use clado_nn::{Conv2d, GlobalAvgPool, Linear, Network, Sequential};
    use clado_tensor::Conv2dSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_net(classes: usize) -> Network {
        let mut rng = StdRng::seed_from_u64(5);
        Network::new(
            Sequential::new()
                .push(
                    "conv",
                    Conv2d::new(Conv2dSpec::new(3, 8, 3, 1, 1), true, &mut rng),
                )
                .push("relu", clado_nn::Activation::new(clado_nn::ActKind::Relu))
                .push("pool", GlobalAvgPool::new())
                .push("fc", Linear::new(8, classes, &mut rng)),
            classes,
        )
    }

    #[test]
    fn training_improves_over_chance() {
        let data = SynthVision::generate(SynthVisionConfig {
            classes: 4,
            img: 8,
            train: 256,
            val: 128,
            seed: 11,
            noise: 0.15,
            label_noise: 0.0,
        });
        let mut net = tiny_net(4);
        let before = evaluate(&mut net, &data.val);
        let report = train(
            &mut net,
            &data.train,
            &data.val,
            &TrainConfig {
                epochs: 8,
                batch_size: 32,
                lr: 0.1,
                momentum: 0.9,
                weight_decay: 1e-4,
            },
        );
        assert!(
            report.val_accuracy > before.max(0.4),
            "val acc {} (before {before})",
            report.val_accuracy
        );
        assert!(report.final_loss.is_finite());
    }

    #[test]
    fn mean_loss_matches_manual_computation() {
        let data = SynthVision::generate(SynthVisionConfig {
            classes: 3,
            img: 8,
            train: 16,
            val: 16,
            seed: 3,
            noise: 0.2,
            label_noise: 0.0,
        });
        let mut net = tiny_net(3);
        let l_batched = mean_loss(&mut net, &data.val, 4);
        let (x, labels) = data.val.full_batch();
        let logits = net.forward(x, false);
        let l_full = clado_nn::cross_entropy_loss(&logits, &labels);
        assert!((l_batched - l_full).abs() < 1e-9, "{l_batched} vs {l_full}");
    }
}
