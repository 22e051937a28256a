//! Quick diagnostic: uniform-precision accuracy at each bit-width.

// Index-based loops are kept where they mirror the math directly.
#![allow(clippy::needless_range_loop)]
use clado_models::{evaluate, pretrained, ModelKind};
use clado_quant::{quantize_weights, BitWidth, QuantScheme};

fn main() {
    for kind in [ModelKind::ResNet34, ModelKind::ViT, ModelKind::MobileNet] {
        let mut p = pretrained(kind);
        print!(
            "{:<28} fp32 {:>6.2}% |",
            kind.display_name(),
            p.val_accuracy() * 100.0
        );
        for bits in [8u8, 4, 3, 2] {
            let snap = p.network.snapshot_weights();
            for i in 0..snap.len() {
                let q = quantize_weights(
                    &snap[i],
                    BitWidth::of(bits),
                    QuantScheme::PerTensorSymmetric,
                );
                p.network.set_weight(i, &q);
            }
            let acc = evaluate(&mut p.network, &p.data.val);
            p.network.restore_weights(&snap);
            print!(" {}b {:>6.2}%", bits, acc * 100.0);
        }
        println!();
    }
}
