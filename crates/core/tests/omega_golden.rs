//! Golden bits of Ω.
//!
//! A conv kernel change that is meant to be a pure speedup must leave
//! every Ω entry bitwise as it was. This file measures Ω of the five
//! convolutional zoo models (untrained, seeded) on a fixed 8-sample
//! SynthVision set on each backend this CPU has, and compares an FNV-1a
//! hash of the entry bits with the value captured before the fused
//! kernel's width-4 branch ran on 256-bit lanes. All five models reach
//! that branch (each has a stride-1 conv with 4-wide output); vit-mini
//! runs no fused conv and is left out.
//!
//! `force_backend` is process-wide, so this must stay the only test in its
//! binary.

use clado_core::{measure_sensitivities, SensitivityOptions};
use clado_models::{ModelKind, SynthVision, SynthVisionConfig};
use clado_quant::BitWidthSet;
use clado_tensor::{active_backend, conv2d_path, force_backend, Backend, Conv2dSpec, ConvPath};

/// Each model with one of its convs that runs the fused width-4 branch on
/// the default 16×16 input: `(cin, cout, k, padding, groups, input side)`.
const MODELS: [(ModelKind, [usize; 6]); 5] = [
    (ModelKind::ResNet34, [12, 12, 3, 1, 1, 4]),
    (ModelKind::ResNet20, [12, 12, 3, 1, 1, 4]),
    (ModelKind::ResNet50, [24, 12, 1, 0, 1, 4]),
    (ModelKind::MobileNet, [48, 16, 1, 0, 1, 4]),
    (ModelKind::RegNet, [24, 24, 1, 0, 1, 4]),
];

/// FNV-1a over the little-endian bytes of every Ω entry `(u, v)`, `u ≤ v`.
fn omega_hash(kind: ModelKind) -> u64 {
    let data = SynthVision::generate(SynthVisionConfig {
        classes: 10,
        img: 16,
        train: 8,
        val: 4,
        seed: 5,
        noise: 0.3,
        label_noise: 0.0,
    });
    let mut net = kind.build(10, 3);
    let bits = BitWidthSet::new(&[2, 4, 8]);
    let sens = measure_sensitivities(&mut net, &data.train, &bits, &SensitivityOptions::default())
        .unwrap();
    let omega = sens.matrix();
    let dim = omega.dim();
    (0..dim)
        .flat_map(|u| (u..dim).map(move |v| (u, v)))
        .flat_map(|(u, v)| omega.get(u, v).to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

#[test]
fn omega_keeps_its_golden_bits_on_every_backend() {
    let mut backends = vec![Backend::Scalar];
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        backends.push(Backend::Avx2Fma);
    }
    let mut got = Vec::new();
    for backend in backends {
        force_backend(Some(backend));
        assert_eq!(active_backend(), backend);
        for (kind, [cin, cout, k, pad, groups, side]) in MODELS {
            if backend == Backend::Avx2Fma {
                let spec = Conv2dSpec::new(cin, cout, k, 1, pad).with_groups(groups);
                assert_eq!(spec.out_size(side), 4);
                assert_eq!(conv2d_path(&spec, 8, side, side), ConvPath::Fused);
            }
            got.push(format!(
                "{} {kind}: {:#018x}",
                backend.name(),
                omega_hash(kind)
            ));
        }
    }
    force_backend(None);
    let want = [
        "scalar ResNet-34 (mini): 0xdccf21b42bb54032",
        "scalar ResNet-20 (mini): 0xba3084be44e0d326",
        "scalar ResNet-50 (mini): 0xaa52879a607537cf",
        "scalar MobileNetV3-Large (mini): 0x0e2763ddc62ed73a",
        "scalar RegNet-3.2GF (mini): 0x563c1822c7fef742",
        "avx2-fma-8x8 ResNet-34 (mini): 0xde37c2fc7c839474",
        "avx2-fma-8x8 ResNet-20 (mini): 0xb67ddb922236085c",
        "avx2-fma-8x8 ResNet-50 (mini): 0xdd4a25407461639c",
        "avx2-fma-8x8 MobileNetV3-Large (mini): 0x399d4d4ac7e45671",
        "avx2-fma-8x8 RegNet-3.2GF (mini): 0x98aa44ef4dbb4f30",
    ];
    assert_eq!(got, want[..got.len()]);
}
