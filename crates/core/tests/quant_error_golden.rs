//! Golden bits of the Δw table.
//!
//! Every Ω probe perturbs a layer by `Δw = Q(w, b) − w`, so a change to
//! how the calibration grid is evaluated must leave each table entry
//! bitwise as it was. The hashes were captured from the scalar
//! calibration loop before the calibration grid had a vector kernel; the
//! table is built on the dispatched backend, so running this file both
//! dispatched and under `CLADO_FORCE_SCALAR=1` pins both backends.

use clado_core::quant_error_table;
use clado_models::ModelKind;
use clado_quant::{BitWidthSet, QuantScheme};

/// FNV-1a over the bit patterns of every tensor in the table.
fn table_hash(kind: ModelKind, seed: u64, scheme: QuantScheme) -> u64 {
    let net = kind.build(10, seed);
    let bits = BitWidthSet::new(&[2, 4, 8]);
    quant_error_table(&net, &bits, scheme)
        .iter()
        .flatten()
        .flat_map(|t| t.data().iter().map(|v| v.to_bits()))
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

#[test]
fn quant_error_table_keeps_its_golden_bits() {
    let mut got = Vec::new();
    for kind in [ModelKind::ResNet34, ModelKind::ViT] {
        for seed in [0, 7] {
            for scheme in [
                QuantScheme::PerTensorSymmetric,
                QuantScheme::PerChannelSymmetric,
            ] {
                got.push(format!(
                    "{kind} seed {seed} {scheme}: {:#018x}",
                    table_hash(kind, seed, scheme)
                ));
            }
        }
    }
    let want = [
        "ResNet-34 (mini) seed 0 per-tensor symmetric: 0x6671a46339159de3",
        "ResNet-34 (mini) seed 0 per-channel symmetric: 0xe80b98e7c10c7e2d",
        "ResNet-34 (mini) seed 7 per-tensor symmetric: 0x9a6746b4c2fc58a0",
        "ResNet-34 (mini) seed 7 per-channel symmetric: 0x3759de3eb5955b86",
        "ViT-base (mini) seed 0 per-tensor symmetric: 0x2f6c423dd7403fbb",
        "ViT-base (mini) seed 0 per-channel symmetric: 0x0560d85283a20dda",
        "ViT-base (mini) seed 7 per-tensor symmetric: 0xe4c99c96e6be219f",
        "ViT-base (mini) seed 7 per-channel symmetric: 0x6762068304771b5d",
    ];
    assert_eq!(got, want);
}
