//! Mini Vision Transformer analogue: patch embedding, pre-norm encoder
//! blocks, token mean pooling, linear classifier.
//!
//! Block parameter names match the paper's ViT listing
//! (`layer.{i}.attention.attention.query` etc., Appendix A). The class
//! token is replaced with mean pooling over tokens (a standard simplification
//! that preserves the quantizable-layer taxonomy).

use clado_nn::{Layer, Linear, Network, PatchEmbed, Sequential, TokenMeanPool, TransformerBlock};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::dataset::CHANNELS;

/// Mini ViT configuration.
#[derive(Debug, Clone)]
pub struct ViTConfig {
    /// Input image side length.
    pub img: usize,
    /// Patch side length (must divide `img`).
    pub patch: usize,
    /// Embedding dimension.
    pub dim: usize,
    /// Attention heads.
    pub heads: usize,
    /// MLP hidden width.
    pub mlp: usize,
    /// Encoder depth.
    pub depth: usize,
    /// Number of classes.
    pub classes: usize,
    /// Weight-init seed.
    pub seed: u64,
    /// Quantize activations to this many bits between encoder blocks
    /// (`None` keeps FP32 activations).
    pub act_bits: Option<u8>,
}

impl ViTConfig {
    /// The ViT-base analogue used in the experiments.
    pub fn vit_mini(classes: usize, seed: u64) -> Self {
        Self {
            img: 16,
            patch: 4,
            dim: 24,
            heads: 4,
            mlp: 48,
            depth: 3,
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

/// Builds the mini ViT.
pub fn build_vit(config: &ViTConfig) -> Network {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut pe = PatchEmbed::new(CHANNELS, config.img, config.patch, config.dim, &mut rng);
    // The patch projection is excluded from quantization, matching the
    // paper's ViT layer list (attention + MLP layers only).
    pe.visit_params("", &mut |_, p| p.quantizable = false);
    let mut root = Sequential::new().push("embeddings", pe);
    // Each encoder block is its own root stage (`layer.{i}`).
    for i in 0..config.depth {
        root = root.push(
            format!("layer.{i}"),
            TransformerBlock::new(config.dim, config.heads, config.mlp, &mut rng),
        );
        if let Some(ab) = config.act_bits {
            root = root.push(format!("layer.aq{i}"), clado_nn::ActQuant::new(ab));
        }
    }
    let root = root.push("pooler", TokenMeanPool::new()).push_boxed(
        "classifier",
        Box::new(Linear::new(config.dim, config.classes, &mut rng).unquantized()),
    );
    Network::new(root, config.classes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clado_tensor::Tensor;

    #[test]
    fn layer_inventory_matches_paper_taxonomy() {
        let net = build_vit(&ViTConfig::vit_mini(10, 0));
        let names: Vec<&str> = net
            .quantizable_layers()
            .iter()
            .map(|l| l.name.as_str())
            .collect();
        // 6 quantizable layers per block × depth 3.
        assert_eq!(names.len(), 18);
        assert!(names.contains(&"layer.0.attention.attention.query"));
        assert!(names.contains(&"layer.2.output.dense"));
        assert!(!names.iter().any(|n| n.contains("embeddings")));
        assert!(!names.contains(&"classifier"));
    }

    #[test]
    fn forward_and_backward() {
        let mut net = build_vit(&ViTConfig::vit_mini(10, 1));
        let y = net.forward(Tensor::zeros([2, 3, 16, 16]), true);
        assert_eq!(y.shape().dims(), &[2, 10]);
        let (_, grad) = clado_nn::cross_entropy(&y, &[0, 9]);
        net.backward(grad);
    }

    #[test]
    fn blocks_are_grouped_per_encoder_layer() {
        let net = build_vit(&ViTConfig::vit_mini(10, 0));
        let layers = net.quantizable_layers();
        // All six layers of encoder block 0 share a block id.
        let b0 = layers[0].block;
        assert!(layers.iter().take(6).all(|l| l.block == b0));
        assert!(layers[6].block != b0);
    }
}
