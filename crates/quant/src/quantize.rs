//! Uniform quantization kernels and MSE scale calibration.
//!
//! Two schemes, matching the paper's experimental setup:
//!
//! * **Per-tensor symmetric** (default): `Q(w) = clip(round(w/s), −2^{b−1},
//!   2^{b−1}−1) · s`, one scale per tensor.
//! * **Per-channel affine** (used for MobileNetV3 and ViT, marked `+` in
//!   Table 1): `Q(w) = (clip(round(w/s) + z, 0, 2^b−1) − z) · s`, one
//!   `(s, z)` pair per output channel.
//!
//! Following MPQCO/MQBench, scale factors (and zero points) are chosen by
//! minimizing the mean squared error between the FP32 weights and their
//! quantized counterparts.

use crate::BitWidth;
use clado_tensor::kernel::symmetric_mse_grid;

/// Intervals of the clip-ratio grid: MSE calibration scans its 81 points.
const CALIBRATION_GRID: usize = 80;
/// Smallest clipping ratio scanned (as a fraction of the max-range scale).
const CALIBRATION_MIN_RATIO: f64 = 0.2;

/// Parameters of a symmetric per-tensor quantizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SymmetricParams {
    /// Scale factor `s` (> 0, or 0 for an all-zero tensor).
    pub scale: f32,
}

/// Parameters of an affine quantizer (one per channel in per-channel mode).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AffineParams {
    /// Scale factor `s` (> 0, or 0 for a constant tensor).
    pub scale: f32,
    /// Integer zero point `z` within the unsigned level range.
    pub zero_point: i32,
}

/// Quantizes `w` symmetrically with the given scale, returning dequantized
/// values (fake quantization).
pub fn fake_quant_symmetric(w: &[f32], bits: BitWidth, params: SymmetricParams) -> Vec<f32> {
    let mut out = vec![0.0f32; w.len()];
    fake_quant_symmetric_into(w, bits, params, &mut out);
    out
}

/// Fused quantize→dequantize into a caller-provided buffer: identical
/// values to [`fake_quant_symmetric`] without the allocation.
///
/// # Panics
///
/// Panics if `out.len() != w.len()`.
pub fn fake_quant_symmetric_into(
    w: &[f32],
    bits: BitWidth,
    params: SymmetricParams,
    out: &mut [f32],
) {
    assert_eq!(out.len(), w.len(), "output buffer length mismatch");
    let (qmin, qmax) = bits.signed_levels();
    let s = params.scale;
    if s == 0.0 {
        out.fill(0.0);
        return;
    }
    let inv = 1.0 / s;
    for (o, &x) in out.iter_mut().zip(w) {
        let q = (x * inv).round().clamp(qmin as f32, qmax as f32);
        *o = q * s;
    }
}

/// Fused quantize→dequantize→MSE: bitwise-identical to
/// `mse(w, &fake_quant_symmetric(w, bits, params))` without materializing
/// the dequantized vector. One candidate of the calibration grid.
pub fn fake_quant_symmetric_mse(w: &[f32], bits: BitWidth, params: SymmetricParams) -> f64 {
    if w.is_empty() {
        return 0.0;
    }
    let (qmin, qmax) = bits.signed_levels();
    let mut sum = [0.0f64];
    symmetric_mse_grid(w, &[params.scale], qmin as f32, qmax as f32, &mut sum);
    sum[0] / w.len() as f64
}

/// Quantizes `w` with an affine quantizer, returning dequantized values.
pub fn fake_quant_affine(w: &[f32], bits: BitWidth, params: AffineParams) -> Vec<f32> {
    let mut out = vec![0.0f32; w.len()];
    fake_quant_affine_into(w, bits, params, &mut out);
    out
}

/// Fused affine quantize→dequantize into a caller-provided buffer:
/// identical values to [`fake_quant_affine`] without the allocation.
///
/// # Panics
///
/// Panics if `out.len() != w.len()`.
pub fn fake_quant_affine_into(w: &[f32], bits: BitWidth, params: AffineParams, out: &mut [f32]) {
    assert_eq!(out.len(), w.len(), "output buffer length mismatch");
    let (qmin, qmax) = bits.unsigned_levels();
    let s = params.scale;
    if s == 0.0 {
        // Constant tensor: affine quantization represents it exactly via the
        // zero point; dequantized error is zero.
        out.copy_from_slice(w);
        return;
    }
    let inv = 1.0 / s;
    let z = params.zero_point as f32;
    for (o, &x) in out.iter_mut().zip(w) {
        let q = ((x * inv).round() + z).clamp(qmin as f32, qmax as f32);
        *o = (q - z) * s;
    }
}

/// Fused affine quantize→dequantize→MSE: bitwise-identical to
/// `mse(w, &fake_quant_affine(w, bits, params))` without materializing the
/// dequantized vector.
pub fn fake_quant_affine_mse(w: &[f32], bits: BitWidth, params: AffineParams) -> f64 {
    if w.is_empty() {
        return 0.0;
    }
    let (qmin, qmax) = bits.unsigned_levels();
    let s = params.scale;
    if s == 0.0 {
        return 0.0;
    }
    let inv = 1.0 / s;
    let z = params.zero_point as f32;
    let mut sum = 0.0f64;
    for &x in w {
        let q = ((x * inv).round() + z).clamp(qmin as f32, qmax as f32);
        let d = (x - (q - z) * s) as f64;
        sum += d * d;
    }
    sum / w.len() as f64
}

/// Mean squared error between two slices (f64 accumulation).
pub fn mse(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "mse inputs must have equal length");
    if a.is_empty() {
        return 0.0;
    }
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = (x - y) as f64;
            d * d
        })
        .sum::<f64>()
        / a.len() as f64
}

/// Chooses a symmetric scale minimizing quantization MSE over a grid of
/// clipping ratios.
///
/// The max-range scale `absmax / qmax` is always a candidate; tighter clips
/// trade saturation error for finer resolution, which matters at 2 bits.
///
/// Note: because each bit-width searches its own grid `[0.2, 1.0]·absmax/qmax`,
/// the calibrated MSE is guaranteed to be no worse than the max-range scale,
/// but it is *not* guaranteed monotone across bit-widths on adversarial
/// few-point inputs (a coarser width's grid reaches larger scales that may
/// align better with isolated values).
///
/// All 81 candidates are evaluated by one call of
/// [`clado_tensor::kernel::symmetric_mse_grid`], whose sums are bitwise
/// equal on every backend, so the chosen scale is too: the first strict
/// minimum of `sum / len`.
pub fn calibrate_symmetric(w: &[f32], bits: BitWidth) -> SymmetricParams {
    let absmax = w.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
    if absmax == 0.0 {
        return SymmetricParams { scale: 0.0 };
    }
    let (qmin, qmax) = bits.signed_levels();
    let full = absmax as f64 / qmax as f64;
    let scales: [f32; CALIBRATION_GRID + 1] = std::array::from_fn(|k| {
        let ratio = CALIBRATION_MIN_RATIO
            + (1.0 - CALIBRATION_MIN_RATIO) * (k as f64 / CALIBRATION_GRID as f64);
        (full * ratio) as f32
    });
    let mut sums = [0.0f64; CALIBRATION_GRID + 1];
    symmetric_mse_grid(w, &scales, qmin as f32, qmax as f32, &mut sums);
    let mut best = SymmetricParams { scale: full as f32 };
    let mut best_err = f64::INFINITY;
    for (&scale, &sum) in scales.iter().zip(&sums) {
        let err = sum / w.len() as f64;
        if err < best_err {
            best_err = err;
            best = SymmetricParams { scale };
        }
    }
    best
}

/// Chooses affine parameters minimizing quantization MSE over a grid of
/// range-shrink ratios around `[min(w), max(w)]`.
pub fn calibrate_affine(w: &[f32], bits: BitWidth) -> AffineParams {
    let lo = w.iter().copied().fold(f32::INFINITY, f32::min);
    let hi = w.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if !lo.is_finite() || !hi.is_finite() || hi <= lo {
        return AffineParams {
            scale: 0.0,
            zero_point: 0,
        };
    }
    let (qmin, qmax) = bits.unsigned_levels();
    let levels = (qmax - qmin) as f64;
    let mut best = AffineParams {
        scale: 0.0,
        zero_point: 0,
    };
    let mut best_err = f64::INFINITY;
    let mid = (lo as f64 + hi as f64) / 2.0;
    for k in 0..=CALIBRATION_GRID {
        let ratio = CALIBRATION_MIN_RATIO
            + (1.0 - CALIBRATION_MIN_RATIO) * (k as f64 / CALIBRATION_GRID as f64);
        // Shrink the clip range about its midpoint so asymmetric ranges
        // (e.g. strictly positive weights) stay centred on the data.
        let rlo = mid + (lo as f64 - mid) * ratio;
        let rhi = mid + (hi as f64 - mid) * ratio;
        let scale = ((rhi - rlo) / levels) as f32;
        if scale <= 0.0 {
            continue;
        }
        // The zero point may lie outside the level range when the data range
        // excludes zero; only the quantized level q is clamped to [qmin, qmax].
        let zero_point = (-(rlo / scale as f64)).round() as i32;
        let params = AffineParams { scale, zero_point };
        let err = fake_quant_affine_mse(w, bits, params);
        if err < best_err {
            best_err = err;
            best = params;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_roundtrip_error_bounded_by_half_scale() {
        let w: Vec<f32> = (-20..=20).map(|i| i as f32 * 0.05).collect();
        let bits = BitWidth::of(4);
        let params = SymmetricParams { scale: 0.15 };
        let dq = fake_quant_symmetric(&w, bits, params);
        for (&x, &y) in w.iter().zip(&dq) {
            // Inside the clip range the error is at most s/2.
            if x.abs() <= 0.15 * 7.0 {
                assert!((x - y).abs() <= 0.075 + 1e-6, "{x} -> {y}");
            }
        }
    }

    #[test]
    fn symmetric_clips_outliers() {
        let bits = BitWidth::of(2); // levels -2..=1
        let params = SymmetricParams { scale: 1.0 };
        let dq = fake_quant_symmetric(&[100.0, -100.0], bits, params);
        assert_eq!(dq, vec![1.0, -2.0]);
    }

    #[test]
    fn zero_tensor_quantizes_to_zero() {
        let params = calibrate_symmetric(&[0.0; 8], BitWidth::of(4));
        assert_eq!(params.scale, 0.0);
        assert_eq!(
            fake_quant_symmetric(&[0.0; 3], BitWidth::of(4), params),
            vec![0.0; 3]
        );
    }

    /// Deterministic pseudo-Gaussian samples (sum of 12 LCG uniforms − 6).
    fn pseudo_gaussian(n: usize) -> Vec<f32> {
        let mut s = 12345u64;
        let mut uni = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64) / ((1u64 << 53) as f64)
        };
        (0..n)
            .map(|_| ((0..12).map(|_| uni()).sum::<f64>() - 6.0) as f32)
            .collect()
    }

    #[test]
    fn calibration_beats_naive_maxrange_on_gaussian_at_low_bits() {
        // For Gaussian-like weights at 2 bits, the MSE-optimal clip is well
        // inside the max range (the classic motivation for MSE calibration).
        let w = pseudo_gaussian(512);
        let bits = BitWidth::of(2);
        let cal = calibrate_symmetric(&w, bits);
        let absmax = w.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        let naive = SymmetricParams {
            scale: absmax / 1.0,
        }; // qmax = 1 at 2 bits
        let err_cal = mse(&w, &fake_quant_symmetric(&w, bits, cal));
        let err_naive = mse(&w, &fake_quant_symmetric(&w, bits, naive));
        assert!(err_cal < err_naive * 0.9, "{err_cal} !< {err_naive}");
        assert!(cal.scale < naive.scale, "calibrated scale should clip");
    }

    #[test]
    fn more_bits_never_hurt_after_calibration() {
        let w: Vec<f32> = (0..512)
            .map(|i| ((i * 2654435761u64 as usize) % 997) as f32 / 997.0 - 0.5)
            .collect();
        let mut prev = f64::INFINITY;
        for bits in [2u8, 4, 8] {
            let b = BitWidth::of(bits);
            let p = calibrate_symmetric(&w, b);
            let err = mse(&w, &fake_quant_symmetric(&w, b, p));
            assert!(
                err <= prev + 1e-12,
                "{bits}-bit error {err} exceeds previous {prev}"
            );
            prev = err;
        }
    }

    #[test]
    fn affine_handles_asymmetric_ranges_better_than_symmetric() {
        // Strictly positive weights: affine should quantize markedly better.
        let w: Vec<f32> = (0..256).map(|i| 1.0 + (i as f32) / 256.0).collect();
        let bits = BitWidth::of(4);
        let pa = calibrate_affine(&w, bits);
        let ps = calibrate_symmetric(&w, bits);
        let err_a = mse(&w, &fake_quant_affine(&w, bits, pa));
        let err_s = mse(&w, &fake_quant_symmetric(&w, bits, ps));
        assert!(err_a < err_s * 0.5, "affine {err_a} vs symmetric {err_s}");
    }

    #[test]
    fn affine_constant_tensor_is_exact() {
        let w = vec![3.25; 16];
        let p = calibrate_affine(&w, BitWidth::of(4));
        let dq = fake_quant_affine(&w, BitWidth::of(4), p);
        for (&x, &y) in w.iter().zip(&dq) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn eight_bit_calibrated_error_is_tiny() {
        let w: Vec<f32> = (0..100).map(|i| (i as f32 / 100.0) - 0.5).collect();
        let b = BitWidth::of(8);
        let p = calibrate_symmetric(&w, b);
        let err = mse(&w, &fake_quant_symmetric(&w, b, p));
        assert!(err < 1e-5, "{err}");
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mse_length_mismatch_panics() {
        mse(&[1.0], &[1.0, 2.0]);
    }
}
