//! Deterministic "pretrained" models with an on-disk weight cache.
//!
//! `pretrained(kind)` builds the model, trains it to convergence on the
//! standard [`SynthVision`] dataset (or loads cached weights from
//! `target/clado-cache/`), and returns it together with the dataset — the
//! analogue of downloading a TorchVision checkpoint plus ImageNet.

use crate::dataset::{SynthVision, SynthVisionConfig};
use crate::mobilenet::{build_mobilenet, MobileNetConfig};
use crate::regnet::{build_regnet, RegNetConfig};
use crate::resnet::{build_resnet, ResNetConfig};
use crate::train::{evaluate, train, TrainConfig};
use crate::vit::{build_vit, ViTConfig};
use crate::weights_io::{load_weights, save_weights};
use clado_nn::Network;
use std::fmt;
use std::path::PathBuf;

/// The mini model zoo, one entry per model family in the paper's Table 1
/// plus the ResNet-20 analogue of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// ResNet-20 analogue (Table 2).
    ResNet20,
    /// ResNet-34 analogue (basic blocks).
    ResNet34,
    /// ResNet-50 analogue (bottleneck blocks).
    ResNet50,
    /// MobileNetV3-Large analogue (depthwise + squeeze-excite).
    MobileNet,
    /// RegNet-3.2GF analogue (grouped bottlenecks).
    RegNet,
    /// ViT-base analogue (transformer encoder).
    ViT,
}

impl ModelKind {
    /// All Table 1 models (excludes the Table-2-only ResNet-20).
    pub fn table1_models() -> [ModelKind; 5] {
        [
            Self::ResNet34,
            Self::ResNet50,
            Self::MobileNet,
            Self::RegNet,
            Self::ViT,
        ]
    }

    /// Stable identifier used in cache filenames and reports.
    pub fn id(self) -> &'static str {
        match self {
            Self::ResNet20 => "resnet20",
            Self::ResNet34 => "resnet34",
            Self::ResNet50 => "resnet50",
            Self::MobileNet => "mobilenetv3",
            Self::RegNet => "regnet",
            Self::ViT => "vit",
        }
    }

    /// Human-readable name echoing the paper's Table 1 headers.
    pub fn display_name(self) -> &'static str {
        match self {
            Self::ResNet20 => "ResNet-20 (mini)",
            Self::ResNet34 => "ResNet-34 (mini)",
            Self::ResNet50 => "ResNet-50 (mini)",
            Self::MobileNet => "MobileNetV3-Large (mini)",
            Self::RegNet => "RegNet-3.2GF (mini)",
            Self::ViT => "ViT-base (mini)",
        }
    }

    /// Builds the untrained network.
    pub fn build(self, classes: usize, seed: u64) -> Network {
        match self {
            Self::ResNet20 => build_resnet(&ResNetConfig::resnet20_mini(classes, seed)),
            Self::ResNet34 => build_resnet(&ResNetConfig::resnet34_mini(classes, seed)),
            Self::ResNet50 => build_resnet(&ResNetConfig::resnet50_mini(classes, seed)),
            Self::MobileNet => build_mobilenet(&MobileNetConfig::mobilenet_mini(classes, seed)),
            Self::RegNet => build_regnet(&RegNetConfig::regnet_mini(classes, seed)),
            Self::ViT => build_vit(&ViTConfig::vit_mini(classes, seed)),
        }
    }

    /// Per-family training hyper-parameters.
    pub fn train_config(self) -> TrainConfig {
        match self {
            Self::ViT => TrainConfig {
                epochs: 18,
                lr: 0.02,
                ..TrainConfig::default()
            },
            Self::MobileNet => TrainConfig {
                epochs: 16,
                lr: 0.05,
                ..TrainConfig::default()
            },
            _ => TrainConfig::default(),
        }
    }
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.display_name())
    }
}

/// A trained model plus the dataset it was trained on.
pub struct Pretrained {
    /// The trained network (evaluation-ready).
    pub network: Network,
    /// The dataset (train/val splits).
    pub data: SynthVision,
}

impl Pretrained {
    /// Validation top-1 accuracy (the "FP32 accuracy" of Table 1),
    /// evaluated on demand: loading a model does not pay for it.
    pub fn val_accuracy(&mut self) -> f64 {
        evaluate(&mut self.network, &self.data.val)
    }
}

/// Cache directory: `$CLADO_CACHE_DIR`, else `<workspace>/target/clado-cache`.
pub fn cache_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("CLADO_CACHE_DIR") {
        return PathBuf::from(dir);
    }
    // crates/models → workspace root → target/clado-cache.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("target")
        .join("clado-cache")
}

/// Weight seed of the zoo models [`pretrained`] returns.
const ZOO_SEED: u64 = 0xCAFE;

/// Returns the trained model for `kind` on the default dataset, training
/// and caching it on first use.
pub fn pretrained(kind: ModelKind) -> Pretrained {
    pretrained_with(kind, SynthVisionConfig::default(), ZOO_SEED)
}

/// The network of [`pretrained`]`(kind)` without the dataset: loaded from
/// the weights cache, which renders no image, or, when the cache has no
/// usable file, trained and cached through [`pretrained`].
pub fn pretrained_network(kind: ModelKind) -> Network {
    let data_cfg = SynthVisionConfig::default();
    let mut network = kind.build(data_cfg.classes, ZOO_SEED);
    let cache = weights_cache_path(kind, &data_cfg, ZOO_SEED);
    if cache.exists() && load_weights(&mut network, &cache).is_ok() {
        return network;
    }
    pretrained(kind).network
}

/// The weights-cache file of `kind` trained from weight seed `seed` on
/// the dataset `data_cfg` describes.
pub fn weights_cache_path(kind: ModelKind, data_cfg: &SynthVisionConfig, seed: u64) -> PathBuf {
    cache_dir().join(format!(
        "{}-s{}-d{}-n{}-i{}-c{}-x{}-l{}.cldw",
        kind.id(),
        seed,
        data_cfg.seed,
        data_cfg.train,
        data_cfg.img,
        data_cfg.classes,
        (data_cfg.noise * 1000.0) as u32,
        (data_cfg.label_noise * 1000.0) as u32
    ))
}

/// [`pretrained`] with explicit dataset configuration and weight seed.
pub fn pretrained_with(kind: ModelKind, data_cfg: SynthVisionConfig, seed: u64) -> Pretrained {
    let data = SynthVision::generate(data_cfg);
    let mut network = kind.build(data_cfg.classes, seed);
    let cache = weights_cache_path(kind, &data_cfg, seed);
    if cache.exists() && load_weights(&mut network, &cache).is_ok() {
        return Pretrained { network, data };
    }
    train(&mut network, &data.train, &data.val, &kind.train_config());
    if let Err(e) = save_weights(&mut network, &cache) {
        eprintln!(
            "warning: could not cache weights to {}: {e}",
            cache.display()
        );
    }
    Pretrained { network, data }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique() {
        let all = [
            ModelKind::ResNet20,
            ModelKind::ResNet34,
            ModelKind::ResNet50,
            ModelKind::MobileNet,
            ModelKind::RegNet,
            ModelKind::ViT,
        ];
        let mut ids: Vec<&str> = all.iter().map(|k| k.id()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), all.len());
    }

    #[test]
    fn weights_cache_names_are_unchanged() {
        let name = |kind| {
            let path = weights_cache_path(kind, &SynthVisionConfig::default(), ZOO_SEED);
            path.file_name()
                .expect("file name")
                .to_string_lossy()
                .into_owned()
        };
        assert_eq!(
            name(ModelKind::ResNet34),
            "resnet34-s51966-d793296-n1536-i16-c10-x450-l80.cldw"
        );
        assert_eq!(
            name(ModelKind::ViT),
            "vit-s51966-d793296-n1536-i16-c10-x450-l80.cldw"
        );
    }

    #[test]
    fn builders_produce_quantizable_layers() {
        for kind in [
            ModelKind::ResNet20,
            ModelKind::ResNet34,
            ModelKind::ResNet50,
            ModelKind::MobileNet,
            ModelKind::RegNet,
            ModelKind::ViT,
        ] {
            let net = kind.build(10, 0);
            assert!(
                net.quantizable_layers().len() >= 10,
                "{kind}: only {} quantizable layers",
                net.quantizable_layers().len()
            );
        }
    }

    /// Full pretrained flow on a deliberately tiny dataset: train, cache,
    /// reload, verify determinism of the cached path.
    #[test]
    fn pretrained_cache_roundtrip() {
        let cfg = SynthVisionConfig {
            classes: 3,
            img: 8,
            train: 96,
            val: 48,
            seed: 77,
            noise: 0.2,
            label_noise: 0.0,
        };
        // Use a scratch cache dir to avoid clobbering the real cache.
        let dir = std::env::temp_dir().join(format!("clado-cache-test-{}", std::process::id()));
        std::env::set_var("CLADO_CACHE_DIR", &dir);
        let mut a = pretrained_with(ModelKind::ResNet20, cfg, 5);
        let mut b = pretrained_with(ModelKind::ResNet20, cfg, 5); // cached load
        let acc = a.val_accuracy();
        assert_eq!(acc.to_bits(), b.val_accuracy().to_bits());
        assert!(acc > 1.0 / 3.0, "trained model at chance: {acc}");
        std::env::remove_var("CLADO_CACHE_DIR");
        std::fs::remove_dir_all(dir).ok();
    }
}
