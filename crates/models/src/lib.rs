//! # clado-models
//!
//! The model-and-data substrate of the CLADO reproduction: the seeded
//! `SynthVision` dataset (the ImageNet stand-in), a mini model zoo mirroring
//! the paper's five evaluation families (ResNet-34/50, MobileNetV3,
//! RegNet, ViT) plus the ResNet-20 of Table 2, a deterministic SGD trainer,
//! and an on-disk weight cache so "pretrained" models are trained once per
//! machine.
//!
//! ## Example
//!
//! ```no_run
//! use clado_models::{pretrained, ModelKind};
//!
//! let mut p = pretrained(ModelKind::ResNet20);
//! println!("FP32 val accuracy: {:.2}%", p.val_accuracy() * 100.0);
//! println!("quantizable layers: {}", p.network.quantizable_layers().len());
//! ```

#![warn(missing_docs)]

mod dataset;
mod mobilenet;
mod pretrained;
mod regnet;
mod resnet;
mod train;
mod vit;
mod weights_io;

pub use dataset::{sample_indices, DataSplit, Split, SynthVision, SynthVisionConfig, CHANNELS};
pub use mobilenet::{build_mobilenet, InvertedResidualSpec, MobileNetConfig};
pub use pretrained::{
    cache_dir, pretrained, pretrained_network, pretrained_with, weights_cache_path, ModelKind,
    Pretrained,
};
pub use regnet::{build_regnet, RegNetConfig};
pub use resnet::{build_resnet, ResNetConfig};
pub use train::{evaluate, evaluate_batched, mean_loss, train, TrainConfig, TrainReport};
pub use vit::{build_vit, ViTConfig};
pub use weights_io::{load_weights, save_weights, WeightsIoError};
