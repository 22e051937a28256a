//! Mini ResNet family: basic-block (ResNet-20/34 analogues) and
//! bottleneck (ResNet-50 analogue) variants.
//!
//! Layer names follow the paper's Appendix A convention
//! (`layer{s}.{b}.conv{k}`, `layer{s}.{b}.downsample.0`), so sensitivity
//! matrices and bit maps are directly comparable in structure. Following
//! the paper's layer lists, the stem convolution is excluded from
//! quantization for the ResNet-34/50 analogues; the ResNet-20 analogue
//! additionally quantizes its classifier (`fc`), matching Table 2.

use clado_nn::{
    ActKind, Activation, BatchNorm2d, Conv2d, GlobalAvgPool, Linear, Network, ResidualBlock,
    Sequential,
};
use clado_tensor::Conv2dSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::dataset::CHANNELS;

/// Stage widths and block counts of a mini ResNet.
#[derive(Debug, Clone)]
pub struct ResNetConfig {
    /// Channel width of each stage.
    pub widths: Vec<usize>,
    /// Residual blocks per stage.
    pub blocks: Vec<usize>,
    /// Bottleneck blocks (3 convs + expansion) instead of basic (2 convs).
    pub bottleneck: bool,
    /// Bottleneck expansion factor (ignored for basic blocks).
    pub expansion: usize,
    /// Whether the classifier weight is quantizable (true for the
    /// ResNet-20 analogue, matching the paper's Table 2 layer list).
    pub quantize_fc: bool,
    /// Number of output classes.
    pub classes: usize,
    /// Weight-init seed.
    pub seed: u64,
    /// Quantize activations to this many bits at stage boundaries (the
    /// paper's setup quantizes activations to 8 bits). `None` keeps FP32
    /// activations.
    pub act_bits: Option<u8>,
}

impl ResNetConfig {
    /// The ResNet-34 analogue: basic blocks, four stages.
    pub fn resnet34_mini(classes: usize, seed: u64) -> Self {
        Self {
            widths: vec![6, 8, 12, 16],
            blocks: vec![2, 2, 2, 2],
            bottleneck: false,
            expansion: 1,
            quantize_fc: false,
            classes,
            seed,
            act_bits: None,
        }
    }

    /// The ResNet-50 analogue: bottleneck blocks, four stages.
    pub fn resnet50_mini(classes: usize, seed: u64) -> Self {
        Self {
            widths: vec![6, 8, 12, 16],
            blocks: vec![1, 2, 2, 1],
            bottleneck: true,
            expansion: 2,
            quantize_fc: false,
            classes,
            seed,
            act_bits: None,
        }
    }

    /// The ResNet-20 analogue (Table 2): basic blocks, three stages,
    /// quantizable classifier.
    pub fn resnet20_mini(classes: usize, seed: u64) -> Self {
        Self {
            widths: vec![4, 8, 12],
            blocks: vec![2, 2, 2],
            bottleneck: false,
            expansion: 1,
            quantize_fc: true,
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

fn basic_block(cin: usize, cout: usize, stride: usize, rng: &mut StdRng) -> ResidualBlock {
    let main = Sequential::new()
        .push(
            "conv1",
            Conv2d::new(Conv2dSpec::new(cin, cout, 3, stride, 1), false, rng),
        )
        .push("bn1", BatchNorm2d::new(cout))
        .push("relu1", Activation::new(ActKind::Relu))
        .push(
            "conv2",
            Conv2d::new(Conv2dSpec::new(cout, cout, 3, 1, 1), false, rng),
        )
        .push("bn2", BatchNorm2d::new(cout));
    let shortcut = (stride != 1 || cin != cout).then(|| {
        Sequential::new()
            .push(
                "0",
                Conv2d::new(Conv2dSpec::new(cin, cout, 1, stride, 0), false, rng),
            )
            .push("1", BatchNorm2d::new(cout))
    });
    ResidualBlock::new(main, shortcut, Some(ActKind::Relu))
}

fn bottleneck_block(
    cin: usize,
    width: usize,
    expansion: usize,
    stride: usize,
    rng: &mut StdRng,
) -> ResidualBlock {
    let cout = width * expansion;
    let main = Sequential::new()
        .push(
            "conv1",
            Conv2d::new(Conv2dSpec::new(cin, width, 1, 1, 0), false, rng),
        )
        .push("bn1", BatchNorm2d::new(width))
        .push("relu1", Activation::new(ActKind::Relu))
        .push(
            "conv2",
            Conv2d::new(Conv2dSpec::new(width, width, 3, stride, 1), false, rng),
        )
        .push("bn2", BatchNorm2d::new(width))
        .push("relu2", Activation::new(ActKind::Relu))
        .push(
            "conv3",
            Conv2d::new(Conv2dSpec::new(width, cout, 1, 1, 0), false, rng),
        )
        .push("bn3", BatchNorm2d::new(cout));
    let shortcut = (stride != 1 || cin != cout).then(|| {
        Sequential::new()
            .push(
                "0",
                Conv2d::new(Conv2dSpec::new(cin, cout, 1, stride, 0), false, rng),
            )
            .push("1", BatchNorm2d::new(cout))
    });
    ResidualBlock::new(main, shortcut, Some(ActKind::Relu))
}

/// Builds a mini ResNet for `img`-sized inputs.
///
/// # Panics
///
/// Panics if `widths` and `blocks` lengths disagree or are empty.
pub fn build_resnet(config: &ResNetConfig) -> Network {
    assert_eq!(
        config.widths.len(),
        config.blocks.len(),
        "stage configuration mismatch"
    );
    assert!(!config.widths.is_empty(), "at least one stage required");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let stem_width = config.widths[0];
    let mut root = Sequential::new().push_boxed(
        "conv1",
        Box::new(
            Conv2d::new(
                Conv2dSpec::new(CHANNELS, stem_width, 3, 1, 1),
                false,
                &mut rng,
            )
            .unquantized(),
        ),
    );
    root = root
        .push("bn1", BatchNorm2d::new(stem_width))
        .push("relu", Activation::new(ActKind::Relu));
    if let Some(ab) = config.act_bits {
        root = root.push("aq_stem", clado_nn::ActQuant::new(ab));
    }

    let mut cin = stem_width;
    // Each residual block is its own root stage (`layer{s}.{b}`).
    for (s, (&w, &n_blocks)) in config.widths.iter().zip(&config.blocks).enumerate() {
        for b in 0..n_blocks {
            let stride = if b == 0 && s > 0 { 2 } else { 1 };
            let block: ResidualBlock = if config.bottleneck {
                let blk = bottleneck_block(cin, w, config.expansion, stride, &mut rng);
                cin = w * config.expansion;
                blk
            } else {
                let blk = basic_block(cin, w, stride, &mut rng);
                cin = w;
                blk
            };
            root = root.push(format!("layer{}.{b}", s + 1), block);
        }
        if let Some(ab) = config.act_bits {
            root = root.push(format!("aq{}", s + 1), clado_nn::ActQuant::new(ab));
        }
    }
    root = root.push("avgpool", GlobalAvgPool::new());
    let fc = Linear::new(cin, config.classes, &mut rng);
    let fc = if config.quantize_fc {
        fc
    } else {
        fc.unquantized()
    };
    root = root.push("fc", fc);
    Network::new(root, config.classes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clado_tensor::Tensor;

    #[test]
    fn resnet34_mini_layer_inventory() {
        let net = build_resnet(&ResNetConfig::resnet34_mini(10, 0));
        let names: Vec<&str> = net
            .quantizable_layers()
            .iter()
            .map(|l| l.name.as_str())
            .collect();
        // 8 basic blocks × 2 convs + 3 downsamples = 19; stem and fc excluded.
        assert_eq!(names.len(), 19);
        assert!(names.contains(&"layer1.0.conv1"));
        assert!(names.contains(&"layer2.0.downsample.0"));
        assert!(!names.contains(&"conv1"));
        assert!(!names.contains(&"fc"));
    }

    #[test]
    fn resnet50_mini_layer_inventory() {
        let net = build_resnet(&ResNetConfig::resnet50_mini(10, 0));
        let n = net.quantizable_layers().len();
        // 6 bottlenecks × 3 convs + 4 downsamples (every stage starts with a
        // channel change) = 22.
        assert_eq!(n, 22);
    }

    #[test]
    fn resnet20_mini_includes_fc() {
        let net = build_resnet(&ResNetConfig::resnet20_mini(10, 0));
        let names: Vec<&str> = net
            .quantizable_layers()
            .iter()
            .map(|l| l.name.as_str())
            .collect();
        assert!(names.contains(&"fc"));
        // 6 basic blocks × 2 + 2 downsamples + fc = 15.
        assert_eq!(names.len(), 15);
    }

    #[test]
    fn forward_shapes() {
        for cfg in [
            ResNetConfig::resnet34_mini(10, 1),
            ResNetConfig::resnet50_mini(10, 1),
            ResNetConfig::resnet20_mini(10, 1),
        ] {
            let mut net = build_resnet(&cfg);
            let y = net.forward(Tensor::zeros([2, 3, 16, 16]), false);
            assert_eq!(y.shape().dims(), &[2, 10]);
        }
    }

    #[test]
    fn training_forward_backward_roundtrip() {
        let mut net = build_resnet(&ResNetConfig::resnet20_mini(4, 2));
        let x = Tensor::zeros([2, 3, 16, 16]);
        let y = net.forward(x, true);
        let (_, grad) = clado_nn::cross_entropy(&y, &[0, 1]);
        net.backward(grad);
        // Gradients reach the first quantizable conv.
        let mut any_nonzero = false;
        net.visit_params(&mut |name, p| {
            if name == "layer1.0.conv1.weight" {
                any_nonzero = p.grad.norm() >= 0.0;
            }
        });
        assert!(any_nonzero);
    }

    #[test]
    fn blocks_group_layers() {
        let net = build_resnet(&ResNetConfig::resnet34_mini(10, 0));
        let layers = net.quantizable_layers();
        let b0: Vec<_> = layers
            .iter()
            .filter(|l| l.block == layers[0].block)
            .collect();
        // layer1.0.conv1 and layer1.0.conv2 share a block.
        assert_eq!(b0.len(), 2);
    }
}
