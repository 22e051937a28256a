//! Ω through the prefix cache on every zoo model.
//!
//! Every residual or encoder block is its own prefix stage, so a probe
//! re-runs only the blocks from its perturbed layer's block on and pair
//! probes advance their cache past the outer layer's block. None of that
//! may change a bit of Ω: the cached sweep must equal the sweep of full
//! forwards entry for entry.

use clado_core::{measure_sensitivities, SensitivityMatrix, SensitivityOptions};
use clado_models::{ModelKind, SynthVision, SynthVisionConfig};
use clado_quant::BitWidthSet;
use clado_telemetry::Telemetry;

const ALL: [ModelKind; 6] = [
    ModelKind::ResNet20,
    ModelKind::ResNet34,
    ModelKind::ResNet50,
    ModelKind::MobileNet,
    ModelKind::RegNet,
    ModelKind::ViT,
];

fn assert_bitwise_equal(kind: ModelKind, a: &SensitivityMatrix, b: &SensitivityMatrix) {
    assert_eq!(
        a.base_loss.to_bits(),
        b.base_loss.to_bits(),
        "{kind}: base loss differs"
    );
    let dim = a.matrix().dim();
    assert_eq!(dim, b.matrix().dim(), "{kind}: Ω dimension differs");
    for u in 0..dim {
        for v in u..dim {
            assert_eq!(
                a.matrix().get(u, v).to_bits(),
                b.matrix().get(u, v).to_bits(),
                "{kind}: Ω entry ({u},{v}) differs"
            );
        }
    }
}

#[test]
fn prefix_cache_leaves_omega_bitwise_unchanged_on_every_model() {
    let data = SynthVision::generate(SynthVisionConfig {
        classes: 10,
        img: 16,
        train: 4,
        val: 4,
        seed: 11,
        noise: 0.3,
        label_noise: 0.0,
    });
    let bits = BitWidthSet::new(&[2, 8]);
    for kind in ALL {
        let mut net = kind.build(10, 7);
        let telemetry = Telemetry::new();
        let cached = SensitivityOptions {
            telemetry: telemetry.clone(),
            ..Default::default()
        };
        let full = SensitivityOptions {
            use_prefix_cache: false,
            ..Default::default()
        };
        let a = measure_sensitivities(&mut net, &data.train, &bits, &cached).unwrap();
        let b = measure_sensitivities(&mut net, &data.train, &bits, &full).unwrap();
        assert_bitwise_equal(kind, &a, &b);
        if kind == ModelKind::ViT {
            // Pair probes whose layers sit in different encoder blocks
            // run on a cache advanced past the outer layer's block.
            assert!(
                telemetry.counter_value("measure.prefix_cache_advances") > 0,
                "vit: no pair probe advanced its prefix cache"
            );
        }
    }
}
