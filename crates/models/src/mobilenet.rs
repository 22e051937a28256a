//! Mini MobileNetV3 analogue: inverted residual blocks with depthwise
//! convolutions and squeeze-excite, hard-swish activations.
//!
//! Layer names follow the paper's Appendix A MobileNetV3 listing
//! (`features.{i}.block.{j}...`), with the stem (`features.0.0`) and final
//! 1×1 conv (`features.N.0`) quantizable, as in the paper.

use clado_nn::{
    ActKind, Activation, BatchNorm2d, Conv2d, GlobalAvgPool, Linear, Network, ResidualBlock,
    Sequential, SqueezeExcite,
};
use clado_tensor::Conv2dSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::dataset::CHANNELS;

/// One inverted-residual block row: `(expansion, out_channels, stride, se)`.
#[derive(Debug, Clone, Copy)]
pub struct InvertedResidualSpec {
    /// Channel expansion factor (1 skips the expand conv).
    pub expand: usize,
    /// Output channels.
    pub out: usize,
    /// Depthwise stride.
    pub stride: usize,
    /// Include a squeeze-excite module.
    pub se: bool,
}

/// Mini MobileNet configuration.
#[derive(Debug, Clone)]
pub struct MobileNetConfig {
    /// Stem output channels.
    pub stem: usize,
    /// The inverted-residual rows.
    pub rows: Vec<InvertedResidualSpec>,
    /// Final 1×1 conv output channels.
    pub head: usize,
    /// Number of classes.
    pub classes: usize,
    /// Weight-init seed.
    pub seed: u64,
    /// Quantize activations to this many bits after the stem and head
    /// convolutions (`None` keeps FP32 activations).
    pub act_bits: Option<u8>,
}

impl MobileNetConfig {
    /// The MobileNetV3-Large analogue used in the experiments.
    pub fn mobilenet_mini(classes: usize, seed: u64) -> Self {
        Self {
            stem: 8,
            rows: vec![
                InvertedResidualSpec {
                    expand: 1,
                    out: 8,
                    stride: 1,
                    se: false,
                },
                InvertedResidualSpec {
                    expand: 3,
                    out: 12,
                    stride: 2,
                    se: false,
                },
                InvertedResidualSpec {
                    expand: 3,
                    out: 12,
                    stride: 1,
                    se: true,
                },
                InvertedResidualSpec {
                    expand: 4,
                    out: 16,
                    stride: 2,
                    se: true,
                },
                InvertedResidualSpec {
                    expand: 4,
                    out: 24,
                    stride: 2,
                    se: false,
                },
            ],
            head: 32,
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

fn inverted_residual(cin: usize, spec: InvertedResidualSpec, rng: &mut StdRng) -> ResidualBlock {
    let hidden = cin * spec.expand;
    let mut main = Sequential::new();
    let mut j = 0usize;
    if spec.expand != 1 {
        main = main
            .push(
                format!("block.{j}.0"),
                Conv2d::new(Conv2dSpec::new(cin, hidden, 1, 1, 0), false, rng),
            )
            .push(format!("block.{j}.1"), BatchNorm2d::new(hidden))
            .push(
                format!("block.{j}.act"),
                Activation::new(ActKind::HardSwish),
            );
        j += 1;
    }
    // Depthwise conv.
    main = main
        .push(
            format!("block.{j}.0"),
            Conv2d::new(
                Conv2dSpec::new(hidden, hidden, 3, spec.stride, 1).with_groups(hidden),
                false,
                rng,
            ),
        )
        .push(format!("block.{j}.1"), BatchNorm2d::new(hidden))
        .push(
            format!("block.{j}.act"),
            Activation::new(ActKind::HardSwish),
        );
    j += 1;
    if spec.se {
        main = main.push(format!("block.{j}"), SqueezeExcite::new(hidden, 4, rng));
        j += 1;
    }
    // Linear projection.
    main = main
        .push(
            format!("block.{j}.0"),
            Conv2d::new(Conv2dSpec::new(hidden, spec.out, 1, 1, 0), false, rng),
        )
        .push(format!("block.{j}.1"), BatchNorm2d::new(spec.out));
    let identity = spec.stride == 1 && cin == spec.out;
    let shortcut = if identity {
        None
    } else {
        Some(
            Sequential::new()
                .push(
                    "0",
                    Conv2d::new(
                        Conv2dSpec::new(cin, spec.out, 1, spec.stride, 0),
                        false,
                        rng,
                    )
                    .unquantized(),
                )
                .push("1", BatchNorm2d::new(spec.out)),
        )
    };
    // MobileNet inverted residuals are linear at the block output.
    ResidualBlock::new(main, shortcut, None)
}

/// Builds the mini MobileNet.
pub fn build_mobilenet(config: &MobileNetConfig) -> Network {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut stem = Sequential::new()
        .push(
            "0",
            Conv2d::new(
                Conv2dSpec::new(CHANNELS, config.stem, 3, 1, 1),
                false,
                &mut rng,
            ),
        )
        .push("1", BatchNorm2d::new(config.stem))
        .push("act", Activation::new(ActKind::HardSwish));
    if let Some(ab) = config.act_bits {
        stem = stem.push("aq", clado_nn::ActQuant::new(ab));
    }
    // The stem, each inverted-residual block and the head are root stages
    // of their own (`features.{i}`).
    let mut root = Sequential::new().push("features.0", stem);
    let mut cin = config.stem;
    for (i, &row) in config.rows.iter().enumerate() {
        root = root.push(
            format!("features.{}", i + 1),
            inverted_residual(cin, row, &mut rng),
        );
        cin = row.out;
    }
    let head_idx = config.rows.len() + 1;
    let root = root.push(
        format!("features.{head_idx}"),
        Sequential::new()
            .push(
                "0",
                Conv2d::new(Conv2dSpec::new(cin, config.head, 1, 1, 0), false, &mut rng),
            )
            .push("1", BatchNorm2d::new(config.head))
            .push("act", Activation::new(ActKind::HardSwish)),
    );
    let root = root.push("avgpool", GlobalAvgPool::new()).push_boxed(
        "classifier",
        Box::new(Linear::new(config.head, config.classes, &mut rng).unquantized()),
    );
    Network::new(root, config.classes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clado_tensor::Tensor;

    #[test]
    fn layer_inventory_matches_structure() {
        let net = build_mobilenet(&MobileNetConfig::mobilenet_mini(10, 0));
        let names: Vec<&str> = net
            .quantizable_layers()
            .iter()
            .map(|l| l.name.as_str())
            .collect();
        // Stem + head are quantizable; classifier and shortcut projections
        // are not.
        assert!(names.contains(&"features.0.0"));
        assert!(names.iter().any(|n| n.contains("block.0.0")));
        assert!(names.iter().any(|n| n.contains("fc1")));
        assert!(!names.contains(&"classifier"));
        // Row layer counts: r1: dw+proj=2, r2: 3, r3: 3+2(SE)=5,
        // r4: 5, r5: 3; plus stem and head = 20.
        assert_eq!(names.len(), 20);
    }

    #[test]
    fn forward_shape_and_downsampling() {
        let mut net = build_mobilenet(&MobileNetConfig::mobilenet_mini(10, 1));
        let y = net.forward(Tensor::zeros([2, 3, 16, 16]), false);
        assert_eq!(y.shape().dims(), &[2, 10]);
    }

    #[test]
    fn backward_runs() {
        let mut net = build_mobilenet(&MobileNetConfig::mobilenet_mini(4, 2));
        let y = net.forward(Tensor::zeros([2, 3, 16, 16]), true);
        let (_, grad) = clado_nn::cross_entropy(&y, &[0, 3]);
        net.backward(grad);
    }

    #[test]
    fn identity_blocks_have_no_downsample_layers() {
        let net = build_mobilenet(&MobileNetConfig::mobilenet_mini(10, 0));
        // Row 3 (features.3) is stride-1 same-width: no "downsample" in its
        // quantizable names.
        assert!(!net
            .quantizable_layers()
            .iter()
            .any(|l| l.name.starts_with("features.3") && l.name.contains("downsample")));
    }
}
