//! Stage layout, telemetry span names and parameter names of every zoo
//! model.
//!
//! The sensitivity engine's prefix cache splits a forward pass at stage
//! boundaries, so every residual or encoder block is its own stage. The
//! names that leave the process must not move with that layout: trained
//! weight caches are keyed by parameter name and walk order, and
//! manifests and benchmarks key per-stage costs by `forward.<module>`.

use clado_models::ModelKind;
use clado_telemetry::Telemetry;
use clado_tensor::Tensor;
use std::collections::BTreeSet;

const ALL: [ModelKind; 6] = [
    ModelKind::ResNet20,
    ModelKind::ResNet34,
    ModelKind::ResNet50,
    ModelKind::MobileNet,
    ModelKind::RegNet,
    ModelKind::ViT,
];

#[test]
fn layers_share_a_stage_exactly_when_they_share_a_block() {
    for kind in ALL {
        let net = kind.build(10, 0);
        let layers = net.quantizable_layers();
        for a in layers {
            for b in layers {
                assert_eq!(
                    a.stage == b.stage,
                    a.block == b.block,
                    "{kind}: {} (stage {}, block {}) vs {} (stage {}, block {})",
                    a.name,
                    a.stage,
                    a.block,
                    b.name,
                    b.stage,
                    b.block
                );
            }
        }
    }
}

#[test]
fn forward_spans_are_named_after_top_level_modules() {
    let expected: [(ModelKind, &[&str]); 6] = [
        (
            ModelKind::ResNet20,
            &[
                "avgpool", "bn1", "conv1", "fc", "layer1", "layer2", "layer3", "relu",
            ],
        ),
        (
            ModelKind::ResNet34,
            &[
                "avgpool", "bn1", "conv1", "fc", "layer1", "layer2", "layer3", "layer4", "relu",
            ],
        ),
        (
            ModelKind::ResNet50,
            &[
                "avgpool", "bn1", "conv1", "fc", "layer1", "layer2", "layer3", "layer4", "relu",
            ],
        ),
        (ModelKind::MobileNet, &["avgpool", "classifier", "features"]),
        (
            ModelKind::RegNet,
            &[
                "avgpool",
                "fc",
                "layer1",
                "layer2",
                "layer3",
                "stem",
                "stem_bn",
                "stem_relu",
            ],
        ),
        (
            ModelKind::ViT,
            &["classifier", "embeddings", "layer", "pooler"],
        ),
    ];
    for (kind, modules) in expected {
        let mut net = kind.build(10, 0);
        let telemetry = Telemetry::new();
        net.set_telemetry(telemetry.clone());
        net.forward(Tensor::zeros([1, 3, 16, 16]), false);
        let got: BTreeSet<String> = telemetry
            .spans()
            .into_iter()
            .filter_map(|(path, _)| path.strip_prefix("forward.").map(str::to_string))
            .collect();
        let want: BTreeSet<String> = modules.iter().map(|m| m.to_string()).collect();
        assert_eq!(got, want, "{kind}");
    }
}

/// FNV-1a over the `(name, numel)` parameter walk.
fn walk_digest(kind: ModelKind) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    kind.build(10, 0).visit_params_ref(&mut |name, p| {
        for byte in format!("{name}:{};", p.numel()).bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    });
    h
}

#[test]
fn parameter_walk_matches_the_golden_digest() {
    // Weight caches are keyed by this walk: a changed digest means every
    // cached `.cldw` file of that model stops loading and gets retrained.
    let golden: [(ModelKind, u64); 6] = [
        (ModelKind::ResNet20, 0x4eb4_caca_2a45_b081),
        (ModelKind::ResNet34, 0xc974_2a12_c9c5_9697),
        (ModelKind::ResNet50, 0xf54d_6275_9c4b_2b6b),
        (ModelKind::MobileNet, 0x2f4c_f5b3_f2d3_01c9),
        (ModelKind::RegNet, 0x4bbc_9a4a_253b_c964),
        (ModelKind::ViT, 0x6238_33ec_4219_3927),
    ];
    for (kind, digest) in golden {
        assert_eq!(walk_digest(kind), digest, "{kind}: parameter walk changed");
    }
}
