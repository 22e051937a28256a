//! Pretrains and caches every model in the zoo, printing FP32 accuracies.
//!
//! Run once per machine: `cargo run --release -p clado-bench --bin train_cache`

use clado_models::{pretrained, ModelKind};

fn main() {
    for kind in [
        ModelKind::ResNet20,
        ModelKind::ResNet34,
        ModelKind::ResNet50,
        ModelKind::MobileNet,
        ModelKind::RegNet,
        ModelKind::ViT,
    ] {
        let start = std::time::Instant::now();
        let mut p = pretrained(kind);
        println!(
            "{:<28} FP32 val acc {:>6.2}%  ({} quantizable layers, {:.1}s)",
            kind.display_name(),
            p.val_accuracy() * 100.0,
            p.network.quantizable_layers().len(),
            start.elapsed().as_secs_f64()
        );
    }
}
