//! Golden bits of symmetric MSE calibration.
//!
//! `calibrate_symmetric` picks the first strict minimum of 81 candidate
//! MSEs, and Δw inherits its scale. The hashes below were captured from
//! the scalar calibration loop before the calibration grid had a vector
//! kernel, so every backend must reproduce them exactly: the chosen
//! scales and the `quant_error` tensors, per-tensor and per-channel
//! symmetric, over a deterministic corpus that includes ties, outliers,
//! subnormals, a subnormal maximum whose candidate scales underflow to
//! zero, and NaN and ±∞ weights.

use clado_quant::{calibrate_symmetric, quant_error, BitWidth, QuantScheme};
use clado_tensor::Tensor;

/// FNV-1a over 32-bit patterns.
fn fnv(h: u64, bits: impl IntoIterator<Item = u32>) -> u64 {
    bits.into_iter()
        .fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Deterministic LCG stream in [0, 1).
fn uniform(len: usize, seed: u64) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            s = s
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (s >> 40) as f32 / (1u64 << 24) as f32
        })
        .collect()
}

/// The weight corpus: `(name, channels, values)`, `values.len()` a
/// multiple of `channels`.
fn corpus() -> Vec<(&'static str, usize, Vec<f32>)> {
    let centred =
        |len, seed| -> Vec<f32> { uniform(len, seed).iter().map(|u| u * 2.0 - 1.0).collect() };
    let gaussian = |len: usize, seed| -> Vec<f32> {
        let u = uniform(len * 12, seed);
        u.chunks_exact(12)
            .map(|c| c.iter().sum::<f32>() - 6.0)
            .map(|g| g * 0.05)
            .collect()
    };
    let mut outliers = gaussian(576, 3);
    outliers[17] = 1.5;
    outliers[300] = -2.25;
    // Values on exact multiples of 1/64 put many elements on rounding ties
    // for the power-of-two candidate scales.
    let ties: Vec<f32> = (0..256).map(|i| (i as f32 - 128.0) / 64.0).collect();
    let mut subnormal = centred(64, 5);
    for (i, v) in subnormal.iter_mut().enumerate() {
        if i % 3 == 0 {
            *v *= 1e-39;
        }
    }
    let tiny: Vec<f32> = (0..48)
        .map(|i| f32::from_bits(1 + i % 7) * if i % 2 == 0 { 1.0 } else { -1.0 })
        .collect();
    let mut with_nan = centred(40, 7);
    with_nan[9] = f32::NAN;
    let mut with_inf = centred(40, 8);
    with_inf[3] = f32::INFINITY;
    with_inf[30] = f32::NEG_INFINITY;
    let positive: Vec<f32> = uniform(96, 9).iter().map(|u| 1.0 + u).collect();
    let mut zeros = vec![0.0f32; 32];
    zeros[5] = -0.0;
    vec![
        ("single", 1, vec![0.37]),
        ("odd", 1, centred(33, 1)),
        ("conv", 16, gaussian(16 * 3 * 9, 2)),
        ("outliers", 8, outliers),
        ("ties", 4, ties),
        ("subnormal", 4, subnormal),
        ("tiny", 6, tiny),
        ("nan", 2, with_nan),
        ("inf", 2, with_inf),
        ("positive", 3, positive),
        ("zeros", 2, zeros),
        ("dense", 32, centred(32 * 144, 10)),
    ]
}

const WIDTHS: [u8; 9] = [1, 2, 3, 4, 5, 6, 7, 8, 16];

/// One hash per scheme over every corpus entry and width: the calibrated
/// scales (per channel for the per-channel scheme) and the `quant_error`
/// bits.
fn hashes() -> [(&'static str, u64); 3] {
    let (mut scales, mut tensor, mut channel) = (FNV_SEED, FNV_SEED, FNV_SEED);
    for (name, channels, w) in corpus() {
        let t = Tensor::from_vec([channels, w.len() / channels], w.clone()).expect(name);
        for bits in WIDTHS.map(BitWidth::of) {
            scales = fnv(scales, [calibrate_symmetric(&w, bits).scale.to_bits()]);
            for c in w.chunks_exact(w.len() / channels) {
                scales = fnv(scales, [calibrate_symmetric(c, bits).scale.to_bits()]);
            }
            let bits_of = |scheme| {
                let dw = quant_error(&t, bits, scheme);
                dw.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            };
            tensor = fnv(tensor, bits_of(QuantScheme::PerTensorSymmetric));
            channel = fnv(channel, bits_of(QuantScheme::PerChannelSymmetric));
        }
    }
    [
        ("scales", scales),
        ("per-tensor Δw", tensor),
        ("per-channel Δw", channel),
    ]
}

#[test]
fn symmetric_calibration_keeps_its_golden_bits() {
    let want = [
        ("scales", 0xb6c0_fe24_590c_840f),
        ("per-tensor Δw", 0x57e7_9616_ffef_378e),
        ("per-channel Δw", 0x1341_1f2b_55b6_46ff),
    ];
    let got = hashes();
    assert_eq!(got, want, "got {got:#x?}");
}
