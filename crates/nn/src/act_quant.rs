//! Activation fake-quantization.
//!
//! The paper's experimental setup quantizes activations to 8 bits alongside
//! the mixed-precision weights. [`ActQuant`] implements per-tensor symmetric
//! activation quantization with running-absmax calibration and a
//! straight-through-estimator backward (gradient passes where the
//! activation was inside the clip range).

use crate::layer::{join, Layer};
use crate::param::{Param, ParamRole, ParamVisitor, ParamVisitorRef};
use clado_tensor::Tensor;

/// Momentum of the running absmax estimate during calibration.
const CALIB_MOMENTUM: f32 = 0.1;

/// A fake-quantization layer for activations.
///
/// In training mode it *calibrates*: tracks a running estimate of the
/// activation absmax and quantizes with the current estimate. In evaluation
/// mode it applies the frozen estimate. The scale is stored as a buffer, so
/// it serializes with the model.
#[derive(Clone)]
pub struct ActQuant {
    bits: u8,
    absmax: Param,                // 1-element buffer
    cache: Option<(Tensor, f32)>, // (input, scale) for the STE backward
}

impl ActQuant {
    /// Creates an activation quantizer.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= bits <= 16`.
    pub fn new(bits: u8) -> Self {
        assert!(
            (2..=16).contains(&bits),
            "activation bits must be in 2..=16, got {bits}"
        );
        Self {
            bits,
            absmax: Param::new(Tensor::zeros([1]), ParamRole::Buffer),
            cache: None,
        }
    }

    /// Quantization bit-width.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// The current absmax estimate.
    pub fn absmax(&self) -> f32 {
        self.absmax.value.data()[0]
    }

    fn qmax(&self) -> f32 {
        ((1i32 << (self.bits - 1)) - 1) as f32
    }

    /// The quantization step, 0 before any calibration.
    fn scale(&self) -> f32 {
        self.absmax() / self.qmax()
    }

    /// Fake-quantizes `x` in place with the current estimate; the
    /// identity while the estimate is 0.
    fn quantize_in_place(&self, x: &mut Tensor) {
        if self.absmax() == 0.0 {
            return;
        }
        let (qmax, scale) = (self.qmax(), self.scale());
        let inv = 1.0 / scale;
        for v in x.data_mut() {
            *v = (*v * inv).round().clamp(-qmax - 1.0, qmax) * scale;
        }
    }
}

impl Layer for ActQuant {
    fn forward(&mut self, x: Tensor, training: bool) -> Tensor {
        if training {
            let batch_absmax = x.abs_max();
            let est = &mut self.absmax.value.data_mut()[0];
            *est = if *est == 0.0 {
                batch_absmax
            } else {
                (1.0 - CALIB_MOMENTUM) * *est + CALIB_MOMENTUM * batch_absmax
            };
        }
        let scale = self.scale();
        let mut out = x.clone();
        self.quantize_in_place(&mut out);
        self.cache = Some((x, scale));
        out
    }

    fn infer(&self, mut x: Tensor) -> Tensor {
        self.quantize_in_place(&mut x);
        x
    }

    fn backward(&mut self, d_out: Tensor) -> Tensor {
        let (x, scale) = self
            .cache
            .take()
            .expect("backward requires a preceding forward");
        if scale == 0.0 {
            return d_out;
        }
        let qmax = self.qmax();
        let (lo, hi) = (-(qmax + 1.0) * scale, qmax * scale);
        // Straight-through estimator with clip masking.
        x.zip(&d_out, |xi, g| if xi >= lo && xi <= hi { g } else { 0.0 })
    }

    fn visit_params(&mut self, prefix: &str, f: &mut ParamVisitor) {
        f(&join(prefix, "absmax"), &mut self.absmax);
    }

    fn visit_params_ref(&self, prefix: &str, f: &mut ParamVisitorRef) {
        f(&join(prefix, "absmax"), &self.absmax);
    }

    fn visit_params_fast(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.absmax);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clado_tensor::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn calibration_tracks_absmax() {
        let mut aq = ActQuant::new(8);
        let x = Tensor::from_vec([4], vec![0.5, -2.0, 1.0, 0.1]).unwrap();
        aq.forward(x.clone(), true);
        assert!(
            (aq.absmax() - 2.0).abs() < 1e-6,
            "first batch seeds the estimate"
        );
        // Second batch with smaller absmax nudges the estimate down.
        let y = Tensor::from_vec([4], vec![0.1, -1.0, 0.2, 0.0]).unwrap();
        aq.forward(y, true);
        assert!(aq.absmax() < 2.0 && aq.absmax() > 1.0);
    }

    #[test]
    fn eight_bit_quantization_is_nearly_transparent() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut aq = ActQuant::new(8);
        let x = init::normal([256], 0.0, 1.0, &mut rng);
        aq.forward(x.clone(), true); // calibrate
        let y = aq.forward(x.clone(), false);
        let err = (&y - &x).abs_max();
        assert!(
            err < x.abs_max() / 100.0,
            "8-bit activation error too large: {err}"
        );
    }

    #[test]
    fn low_bit_quantization_snaps_to_grid() {
        let mut aq = ActQuant::new(2);
        let x = Tensor::from_vec([5], vec![-1.0, -0.4, 0.0, 0.4, 1.0]).unwrap();
        aq.forward(x.clone(), true);
        let y = aq.forward(x, false);
        // 2-bit: levels {-2,-1,0,1}·scale with scale = absmax/1.
        let scale = aq.absmax();
        for &v in y.data() {
            let level = v / scale;
            assert!((level - level.round()).abs() < 1e-5, "{v} off-grid");
        }
    }

    #[test]
    fn ste_backward_masks_clipped_inputs() {
        let mut aq = ActQuant::new(2);
        // Seed absmax = 1 → clip range [-2, 1].
        aq.forward(Tensor::from_vec([1], vec![1.0]).unwrap(), true);
        let x = Tensor::from_vec([3], vec![0.5, 5.0, -5.0]).unwrap();
        aq.forward(x, false);
        let dx = aq.backward(Tensor::full([3], 1.0));
        assert_eq!(dx.data(), &[1.0, 0.0, 0.0]);
    }

    #[test]
    fn zero_calibration_is_identity() {
        let mut aq = ActQuant::new(4);
        let x = Tensor::from_vec([2], vec![0.3, -0.7]).unwrap();
        // Eval before any calibration: absmax 0 → pass-through.
        let y = aq.forward(x.clone(), false);
        assert_eq!(y.data(), x.data());
        let dx = aq.backward(Tensor::full([2], 2.0));
        assert_eq!(dx.data(), &[2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "activation bits")]
    fn invalid_bits_panic() {
        ActQuant::new(1);
    }
}
