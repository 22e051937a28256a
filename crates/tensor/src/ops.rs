//! Activation functions and row-wise normalization kernels.
//!
//! Activations come in forward/backward pairs; softmax variants operate on
//! the last dimension of a 2-D tensor (one row per sample/token).

use crate::{kernel, Tensor};

/// ReLU forward: `max(x, 0)`.
pub fn relu_forward(x: &Tensor) -> Tensor {
    x.map(|v| v.max(0.0))
}

/// ReLU backward: passes gradient where the *input* was positive.
pub fn relu_backward(x: &Tensor, d_out: &Tensor) -> Tensor {
    x.zip(d_out, |xi, g| if xi > 0.0 { g } else { 0.0 })
}

/// GELU forward (tanh approximation, as used by ViT). This is the frozen
/// scalar formula that training runs and [`gelu_backward`] differentiates.
pub fn gelu_forward(x: &Tensor) -> Tensor {
    x.map(gelu_scalar)
}

/// Evaluation-mode GELU on the active kernel backend: bitwise
/// [`gelu_forward`] on the scalar backend, the vector kernel
/// ([`crate::kernel::gelu_with`]) on the SIMD ones.
pub fn gelu_forward_eval(x: &Tensor) -> Tensor {
    let mut y = x.clone();
    kernel::gelu_with(kernel::active_backend(), y.data_mut());
    y
}

/// GELU backward via the analytic derivative of the tanh approximation.
pub fn gelu_backward(x: &Tensor, d_out: &Tensor) -> Tensor {
    x.zip(d_out, |xi, g| g * gelu_grad_scalar(xi))
}

/// Hard-swish forward: `x · relu6(x + 3) / 6` (MobileNetV3 activation).
pub fn hardswish_forward(x: &Tensor) -> Tensor {
    x.map(hardswish_scalar)
}

/// Hard-swish of one element, the formula [`hardswish_forward`] maps.
pub fn hardswish_scalar(v: f32) -> f32 {
    v * (v + 3.0).clamp(0.0, 6.0) / 6.0
}

/// Hard-swish backward.
pub fn hardswish_backward(x: &Tensor, d_out: &Tensor) -> Tensor {
    x.zip(d_out, |v, g| {
        let dv = if v <= -3.0 {
            0.0
        } else if v >= 3.0 {
            1.0
        } else {
            (2.0 * v + 3.0) / 6.0
        };
        g * dv
    })
}

/// Sigmoid forward.
pub fn sigmoid_forward(x: &Tensor) -> Tensor {
    x.map(|v| 1.0 / (1.0 + (-v).exp()))
}

/// Sigmoid backward, taking the *forward output* `y`.
pub fn sigmoid_backward_from_output(y: &Tensor, d_out: &Tensor) -> Tensor {
    y.zip(d_out, |yi, g| g * yi * (1.0 - yi))
}

pub(crate) fn gelu_scalar(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/π)
    0.5 * x * (1.0 + (C * (x + 0.044_715 * x * x * x)).tanh())
}

fn gelu_grad_scalar(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let inner = C * (x + 0.044_715 * x * x * x);
    let t = inner.tanh();
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * C * (1.0 + 3.0 * 0.044_715 * x * x)
}

/// Row-wise softmax over the last dimension of a 2-D tensor.
///
/// # Panics
///
/// Panics if `x` is not 2-D.
pub fn softmax_rows(x: &Tensor) -> Tensor {
    let (_, cols) = rows_cols(x);
    let mut out = x.clone();
    softmax_rows_in_place(out.data_mut(), cols);
    out
}

/// Row-wise softmax in place over the consecutive `cols`-wide rows of `x`
/// (the slice form of [`softmax_rows`], bitwise identical to it).
pub fn softmax_rows_in_place(x: &mut [f32], cols: usize) {
    for row in x.chunks_exact_mut(cols.max(1)) {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
}

/// Backward of row-wise softmax given forward output `y` and upstream
/// gradient: `dx = y ⊙ (g − Σ g·y)` per row.
pub fn softmax_rows_backward(y: &Tensor, d_out: &Tensor) -> Tensor {
    let (rows, cols) = rows_cols(y);
    assert_eq!(y.shape(), d_out.shape(), "softmax backward shape mismatch");
    let mut dx = Tensor::zeros(y.shape());
    for r in 0..rows {
        let yr = &y.data()[r * cols..(r + 1) * cols];
        let gr = &d_out.data()[r * cols..(r + 1) * cols];
        let s: f32 = yr.iter().zip(gr).map(|(&a, &b)| a * b).sum();
        let dr = &mut dx.data_mut()[r * cols..(r + 1) * cols];
        for ((d, &yv), &gv) in dr.iter_mut().zip(yr).zip(gr) {
            *d = yv * (gv - s);
        }
    }
    dx
}

/// Row-wise log-softmax over the last dimension of a 2-D tensor.
///
/// # Panics
///
/// Panics if `x` is not 2-D.
pub fn log_softmax_rows(x: &Tensor) -> Tensor {
    let (rows, cols) = rows_cols(x);
    let mut out = x.clone();
    for r in 0..rows {
        let row = &mut out.data_mut()[r * cols..(r + 1) * cols];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let lse = max + row.iter().map(|&v| (v - max).exp()).sum::<f32>().ln();
        for v in row.iter_mut() {
            *v -= lse;
        }
    }
    out
}

fn rows_cols(t: &Tensor) -> (usize, usize) {
    assert_eq!(
        t.shape().ndim(),
        2,
        "row-wise op expects 2-D tensor, got {}",
        t.shape()
    );
    (t.shape().dim(0), t.shape().dim(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn relu_pair() {
        let x = Tensor::from_vec([4], vec![-1., 0., 2., -3.]).unwrap();
        assert_eq!(relu_forward(&x).data(), &[0., 0., 2., 0.]);
        let g = Tensor::full([4], 1.0);
        assert_eq!(relu_backward(&x, &g).data(), &[0., 0., 1., 0.]);
    }

    #[test]
    fn gelu_reference_values() {
        // Reference values from the tanh-approximation formula.
        let x = Tensor::from_vec([3], vec![-1.0, 0.0, 1.0]).unwrap();
        let y = gelu_forward(&x);
        assert!((y.data()[0] - (-0.1588)).abs() < 1e-3);
        assert_eq!(y.data()[1], 0.0);
        assert!((y.data()[2] - 0.8412).abs() < 1e-3);
    }

    #[test]
    fn activation_gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(11);
        let x = init::uniform([32], -2.5, 2.5, &mut rng);
        let g = Tensor::full([32], 1.0);
        let eps = 1e-3f32;
        for (fwd, bwd) in [
            (
                gelu_forward as fn(&Tensor) -> Tensor,
                gelu_backward as fn(&Tensor, &Tensor) -> Tensor,
            ),
            (hardswish_forward, hardswish_backward),
        ] {
            let analytic = bwd(&x, &g);
            for i in 0..x.numel() {
                // Skip points near hardswish kinks where FD is unreliable.
                let xi = x.data()[i];
                if (xi.abs() - 3.0).abs() < 5e-3 {
                    continue;
                }
                let mut p = x.clone();
                p.data_mut()[i] += eps;
                let mut m = x.clone();
                m.data_mut()[i] -= eps;
                let fd = (fwd(&p).sum() - fwd(&m).sum()) / (2.0 * eps as f64);
                assert!(
                    (fd as f32 - analytic.data()[i]).abs() < 5e-3,
                    "i={i} x={xi} fd={fd} analytic={}",
                    analytic.data()[i]
                );
            }
        }
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order_preserved() {
        let x = Tensor::from_vec([2, 3], vec![1., 2., 3., -1., 0., 100.]).unwrap();
        let y = softmax_rows(&x);
        for r in 0..2 {
            let s: f32 = y.data()[r * 3..(r + 1) * 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
        assert!(y.data()[2] > y.data()[1] && y.data()[1] > y.data()[0]);
        assert!(y.data()[5] > 0.999); // large logit dominates without overflow
    }

    #[test]
    fn log_softmax_is_log_of_softmax() {
        let x = Tensor::from_vec([1, 4], vec![0.5, -1.0, 2.0, 0.0]).unwrap();
        let a = log_softmax_rows(&x);
        let b = softmax_rows(&x).map(|v| v.ln());
        for (u, v) in a.data().iter().zip(b.data()) {
            assert!((u - v).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_backward_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(5);
        let x = init::normal([2, 4], 0.0, 1.0, &mut rng);
        let seed = init::normal([2, 4], 0.0, 1.0, &mut rng);
        let y = softmax_rows(&x);
        let dx = softmax_rows_backward(&y, &seed);
        let eps = 1e-3f32;
        for i in 0..x.numel() {
            let mut p = x.clone();
            p.data_mut()[i] += eps;
            let mut m = x.clone();
            m.data_mut()[i] -= eps;
            let fd =
                (softmax_rows(&p).dot(&seed) - softmax_rows(&m).dot(&seed)) / (2.0 * eps as f64);
            assert!((fd as f32 - dx.data()[i]).abs() < 1e-2, "i={i}");
        }
    }

    #[test]
    fn sigmoid_pair() {
        let x = Tensor::from_vec([1], vec![0.0]).unwrap();
        let y = sigmoid_forward(&x);
        assert!((y.data()[0] - 0.5).abs() < 1e-6);
        let d = sigmoid_backward_from_output(&y, &Tensor::full([1], 1.0));
        assert!((d.data()[0] - 0.25).abs() < 1e-6);
    }
}
