//! Mini RegNet analogue: stages of grouped-bottleneck residual blocks
//! (the RegNet-X design space with a fixed group width).

use clado_nn::{
    ActKind, Activation, BatchNorm2d, Conv2d, GlobalAvgPool, Linear, Network, ResidualBlock,
    Sequential,
};
use clado_tensor::Conv2dSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::dataset::CHANNELS;

/// Mini RegNet configuration.
#[derive(Debug, Clone)]
pub struct RegNetConfig {
    /// Stage widths (must be multiples of `group_width`).
    pub widths: Vec<usize>,
    /// Blocks per stage.
    pub blocks: Vec<usize>,
    /// Channels per group in the 3×3 convs.
    pub group_width: usize,
    /// Number of classes.
    pub classes: usize,
    /// Weight-init seed.
    pub seed: u64,
    /// Quantize activations to this many bits at stage boundaries
    /// (`None` keeps FP32 activations).
    pub act_bits: Option<u8>,
}

impl RegNetConfig {
    /// The RegNet-3.2GF analogue used in the experiments.
    pub fn regnet_mini(classes: usize, seed: u64) -> Self {
        Self {
            widths: vec![8, 16, 24],
            blocks: vec![2, 2, 2],
            group_width: 4,
            classes,
            seed,
            act_bits: None,
        }
    }

    /// Returns the config with activation quantization enabled.
    pub fn with_act_bits(mut self, bits: u8) -> Self {
        self.act_bits = Some(bits);
        self
    }
}

fn x_block(
    cin: usize,
    width: usize,
    group_width: usize,
    stride: usize,
    rng: &mut StdRng,
) -> ResidualBlock {
    let groups = width / group_width;
    let main = Sequential::new()
        .push(
            "conv1",
            Conv2d::new(Conv2dSpec::new(cin, width, 1, 1, 0), false, rng),
        )
        .push("bn1", BatchNorm2d::new(width))
        .push("relu1", Activation::new(ActKind::Relu))
        .push(
            "conv2",
            Conv2d::new(
                Conv2dSpec::new(width, width, 3, stride, 1).with_groups(groups),
                false,
                rng,
            ),
        )
        .push("bn2", BatchNorm2d::new(width))
        .push("relu2", Activation::new(ActKind::Relu))
        .push(
            "conv3",
            Conv2d::new(Conv2dSpec::new(width, width, 1, 1, 0), false, rng),
        )
        .push("bn3", BatchNorm2d::new(width));
    let shortcut = (stride != 1 || cin != width).then(|| {
        Sequential::new()
            .push(
                "0",
                Conv2d::new(Conv2dSpec::new(cin, width, 1, stride, 0), false, rng),
            )
            .push("1", BatchNorm2d::new(width))
    });
    ResidualBlock::new(main, shortcut, Some(ActKind::Relu))
}

/// Builds the mini RegNet.
///
/// # Panics
///
/// Panics if a stage width is not a multiple of `group_width`.
pub fn build_regnet(config: &RegNetConfig) -> Network {
    assert_eq!(
        config.widths.len(),
        config.blocks.len(),
        "stage configuration mismatch"
    );
    for &w in &config.widths {
        assert_eq!(
            w % config.group_width,
            0,
            "width {w} not a multiple of group width"
        );
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let stem = config.widths[0];
    let mut root = Sequential::new()
        .push_boxed(
            "stem",
            Box::new(
                Conv2d::new(Conv2dSpec::new(CHANNELS, stem, 3, 1, 1), false, &mut rng)
                    .unquantized(),
            ),
        )
        .push("stem_bn", BatchNorm2d::new(stem))
        .push("stem_relu", Activation::new(ActKind::Relu));
    let mut cin = stem;
    // Each residual block is its own root stage (`layer{s}.{b}`).
    for (s, (&w, &n)) in config.widths.iter().zip(&config.blocks).enumerate() {
        for b in 0..n {
            let stride = if b == 0 && s > 0 { 2 } else { 1 };
            root = root.push(
                format!("layer{}.{b}", s + 1),
                x_block(cin, w, config.group_width, stride, &mut rng),
            );
            cin = w;
        }
        if let Some(ab) = config.act_bits {
            root = root.push(format!("aq{}", s + 1), clado_nn::ActQuant::new(ab));
        }
    }
    root = root.push("avgpool", GlobalAvgPool::new()).push_boxed(
        "fc",
        Box::new(Linear::new(cin, config.classes, &mut rng).unquantized()),
    );
    Network::new(root, config.classes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clado_tensor::Tensor;

    #[test]
    fn layer_inventory() {
        let net = build_regnet(&RegNetConfig::regnet_mini(10, 0));
        // 6 blocks × 3 convs + 2 downsamples (stages 2 and 3) = 20.
        assert_eq!(net.quantizable_layers().len(), 20);
    }

    #[test]
    fn forward_and_backward() {
        let mut net = build_regnet(&RegNetConfig::regnet_mini(10, 1));
        let y = net.forward(Tensor::zeros([2, 3, 16, 16]), true);
        assert_eq!(y.shape().dims(), &[2, 10]);
        let (_, grad) = clado_nn::cross_entropy(&y, &[1, 2]);
        net.backward(grad);
    }

    #[test]
    #[should_panic(expected = "group width")]
    fn invalid_group_width_panics() {
        build_regnet(&RegNetConfig {
            widths: vec![6],
            blocks: vec![1],
            group_width: 4,
            classes: 2,
            seed: 0,
            act_bits: None,
        });
    }
}
