//! Fully-connected (linear) layer.

use crate::layer::{join, Layer};
use crate::param::{Param, ParamRole, ParamVisitor, ParamVisitorRef};
use clado_tensor::{init, matmul, matmul_a_bt, matmul_at_b, Shape, Tensor};
use rand::Rng;

/// A linear layer `y = x Wᵀ + b` with weight `[out, in]`.
///
/// Accepts `[N, in]` inputs, or `[N, T, in]` token inputs (ViT), which are
/// processed as `[N·T, in]` and reshaped back.
#[derive(Clone)]
pub struct Linear {
    weight: Param,
    bias: Param,
    in_features: usize,
    out_features: usize,
    cache: Option<(Tensor, Shape)>, // (2-D input, original input shape)
}

impl Linear {
    /// Creates a Kaiming-initialized linear layer.
    pub fn new(in_features: usize, out_features: usize, rng: &mut impl Rng) -> Self {
        let weight = init::kaiming_normal([out_features, in_features], in_features, rng);
        Self {
            weight: Param::new(weight, ParamRole::Weight),
            bias: Param::new(Tensor::zeros([out_features]), ParamRole::Bias),
            in_features,
            out_features,
            cache: None,
        }
    }

    /// Marks the weight as excluded from quantization (e.g. a classifier
    /// head not present in the paper's layer lists).
    pub fn unquantized(mut self) -> Self {
        self.weight.quantizable = false;
        self
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Flattens leading dimensions so the last dimension is `in_features`.
    pub(crate) fn to_2d(&self, x: Tensor) -> Tensor {
        let shape = x.shape();
        let last = shape.dim(shape.ndim() - 1);
        assert_eq!(
            last, self.in_features,
            "linear expects {} input features, got {last}",
            self.in_features
        );
        let rows = shape.numel() / last;
        x.into_shape([rows, last]).expect("element count preserved")
    }

    /// `x2 Wᵀ + b` for a 2-D input `[rows, in_features]`.
    pub(crate) fn affine(&self, x2: &Tensor) -> Tensor {
        let mut y = matmul_a_bt(x2, &self.weight.value);
        let bd = self.bias.value.data();
        for row in y.data_mut().chunks_exact_mut(self.out_features) {
            for (v, &b) in row.iter_mut().zip(bd) {
                *v += b;
            }
        }
        y
    }

    /// Restores the original leading dimensions with a new last dimension.
    fn restore_leading_dims(&self, y: Tensor, original: Shape, last: usize) -> Tensor {
        let mut dims: Vec<usize> = original.dims().to_vec();
        *dims.last_mut().expect("non-empty shape") = last;
        y.into_shape(dims.as_slice())
            .expect("element count preserved")
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: Tensor, _training: bool) -> Tensor {
        let orig = x.shape();
        let x2 = self.to_2d(x);
        let y = self.affine(&x2);
        self.cache = Some((x2, orig));
        self.restore_leading_dims(y, orig, self.out_features)
    }

    fn infer(&self, x: Tensor) -> Tensor {
        let orig = x.shape();
        let y = self.affine(&self.to_2d(x));
        self.restore_leading_dims(y, orig, self.out_features)
    }

    fn backward(&mut self, d_out: Tensor) -> Tensor {
        let (x2, orig) = self
            .cache
            .take()
            .expect("backward requires a training forward");
        let rows = x2.shape().dim(0);
        let d2 = d_out
            .into_shape([rows, self.out_features])
            .expect("gradient shape matches forward output");
        // dW = d_outᵀ · x  → [out, in]
        self.weight.grad += &matmul_at_b(&d2, &x2);
        // db = column sums of d_out
        for r in 0..rows {
            let row = &d2.data()[r * self.out_features..(r + 1) * self.out_features];
            for (g, &d) in self.bias.grad.data_mut().iter_mut().zip(row) {
                *g += d;
            }
        }
        // dx = d_out · W → [rows, in]
        let dx = matmul(&d2, &self.weight.value);
        self.restore_leading_dims(dx, orig, self.in_features)
    }

    fn visit_params(&mut self, prefix: &str, f: &mut ParamVisitor) {
        f(&join(prefix, "weight"), &mut self.weight);
        f(&join(prefix, "bias"), &mut self.bias);
    }

    fn visit_params_ref(&self, prefix: &str, f: &mut ParamVisitorRef) {
        f(&join(prefix, "weight"), &self.weight);
        f(&join(prefix, "bias"), &self.bias);
    }

    fn visit_params_fast(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn make(rng_seed: u64, in_f: usize, out_f: usize) -> Linear {
        let mut rng = StdRng::seed_from_u64(rng_seed);
        Linear::new(in_f, out_f, &mut rng)
    }

    #[test]
    fn forward_known_values() {
        let mut l = make(0, 2, 2);
        // Overwrite with known weights.
        l.weight.value = Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        l.bias.value = Tensor::from_vec([2], vec![0.5, -0.5]).unwrap();
        let y = l.forward(Tensor::from_vec([1, 2], vec![1.0, 1.0]).unwrap(), false);
        assert_eq!(y.data(), &[3.5, 6.5]);
    }

    #[test]
    fn token_input_roundtrips_shape() {
        let mut l = make(1, 4, 6);
        let x = Tensor::zeros([2, 3, 4]);
        let y = l.forward(x, true);
        assert_eq!(y.shape().dims(), &[2, 3, 6]);
        let dx = l.backward(Tensor::zeros([2, 3, 6]));
        assert_eq!(dx.shape().dims(), &[2, 3, 4]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut l = Linear::new(3, 2, &mut rng);
        let x = init::normal([4, 3], 0.0, 1.0, &mut rng);
        let seed = init::normal([4, 2], 0.0, 1.0, &mut rng);

        let y = l.forward(x.clone(), true);
        let _ = y;
        let dx = l.backward(seed.clone());

        let eps = 1e-3f32;
        // Weight gradient check.
        for idx in 0..l.weight.numel() {
            let mut lp = make(3, 3, 2);
            lp.weight.value = l.weight.value.clone();
            lp.bias.value = l.bias.value.clone();
            lp.weight.value.data_mut()[idx] += eps;
            let mut lm = make(3, 3, 2);
            lm.weight.value = l.weight.value.clone();
            lm.bias.value = l.bias.value.clone();
            lm.weight.value.data_mut()[idx] -= eps;
            let fp = lp.forward(x.clone(), false).dot(&seed);
            let fm = lm.forward(x.clone(), false).dot(&seed);
            let fd = ((fp - fm) / (2.0 * eps as f64)) as f32;
            assert!((fd - l.weight.grad.data()[idx]).abs() < 1e-2, "w[{idx}]");
        }
        // Input gradient check.
        for idx in [0usize, 5, 11] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let mut l2 = make(3, 3, 2);
            l2.weight.value = l.weight.value.clone();
            l2.bias.value = l.bias.value.clone();
            let fp = l2.forward(xp, false).dot(&seed);
            let fm = l2.forward(xm, false).dot(&seed);
            let fd = ((fp - fm) / (2.0 * eps as f64)) as f32;
            assert!((fd - dx.data()[idx]).abs() < 1e-2, "x[{idx}]");
        }
        // Bias gradient: column sums of seed.
        for o in 0..2 {
            let expect: f32 = (0..4).map(|r| seed.data()[r * 2 + o]).sum();
            assert!((l.bias.grad.data()[o] - expect).abs() < 1e-5);
        }
    }

    #[test]
    fn unquantized_flag() {
        let l = make(0, 2, 2).unquantized();
        assert!(!l.weight.quantizable);
    }

    #[test]
    #[should_panic(expected = "input features")]
    fn wrong_feature_count_panics() {
        let mut l = make(0, 3, 2);
        l.forward(Tensor::zeros([1, 4]), false);
    }
}
