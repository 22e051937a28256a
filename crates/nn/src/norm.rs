//! Normalization layers: BatchNorm2d and LayerNorm.

// Index-based loops are kept where they mirror the math directly.
#![allow(clippy::needless_range_loop)]
use crate::layer::{join, Layer};
use crate::param::{Param, ParamRole, ParamVisitor, ParamVisitorRef};
use clado_tensor::Tensor;

const BN_EPS: f32 = 1e-5;
const BN_MOMENTUM: f32 = 0.1;
const LN_EPS: f32 = 1e-5;

/// Batch normalization over the channel dimension of `[N, C, H, W]`.
///
/// Training mode normalizes with batch statistics and updates running
/// estimates; evaluation mode uses the running estimates (a fixed per-channel
/// affine map, which is what the CLADO sensitivity probes see).
#[derive(Clone)]
pub struct BatchNorm2d {
    gamma: Param,
    beta: Param,
    running_mean: Param,
    running_var: Param,
    channels: usize,
    cache: Option<BnCache>,
}

#[derive(Clone)]
struct BnCache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
    centered: Option<Tensor>, // Some in training mode
}

impl BatchNorm2d {
    /// Creates a BatchNorm layer with γ=1, β=0 and unit running variance.
    pub fn new(channels: usize) -> Self {
        Self {
            gamma: Param::new(Tensor::full([channels], 1.0), ParamRole::Norm),
            beta: Param::new(Tensor::zeros([channels]), ParamRole::Norm),
            running_mean: Param::new(Tensor::zeros([channels]), ParamRole::Buffer),
            running_var: Param::new(Tensor::full([channels], 1.0), ParamRole::Buffer),
            channels,
            cache: None,
        }
    }

    /// Running mean estimates, one per channel.
    pub fn running_mean(&self) -> &[f32] {
        self.running_mean.value.data()
    }

    /// Running variance estimates, one per channel.
    pub fn running_var(&self) -> &[f32] {
        self.running_var.value.data()
    }

    fn dims(&self, x: &Tensor) -> (usize, usize, usize) {
        let sh = x.shape();
        let d = sh.dims();
        assert_eq!(sh.ndim(), 4, "BatchNorm2d expects NCHW input, got {sh}");
        assert_eq!(
            d[1], self.channels,
            "channel mismatch: {} vs {}",
            d[1], self.channels
        );
        (d[0], d[2], d[3])
    }
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, x: Tensor, training: bool) -> Tensor {
        let (n, h, w) = self.dims(&x);
        let c = self.channels;
        let plane = h * w;
        let count = (n * plane) as f32;
        let (mean, var): (Vec<f32>, Vec<f32>) = if training {
            let mut mean = vec![0.0f32; c];
            let mut var = vec![0.0f32; c];
            for ch in 0..c {
                let mut sum = 0.0f64;
                let mut sum_sq = 0.0f64;
                for s in 0..n {
                    let base = (s * c + ch) * plane;
                    for &v in &x.data()[base..base + plane] {
                        sum += v as f64;
                        sum_sq += (v as f64) * (v as f64);
                    }
                }
                let m = sum / count as f64;
                mean[ch] = m as f32;
                var[ch] = ((sum_sq / count as f64) - m * m).max(0.0) as f32;
            }
            for ch in 0..c {
                let rm = &mut self.running_mean.value.data_mut()[ch];
                *rm = (1.0 - BN_MOMENTUM) * *rm + BN_MOMENTUM * mean[ch];
                let rv = &mut self.running_var.value.data_mut()[ch];
                *rv = (1.0 - BN_MOMENTUM) * *rv + BN_MOMENTUM * var[ch];
            }
            (mean, var)
        } else {
            (
                self.running_mean.value.data().to_vec(),
                self.running_var.value.data().to_vec(),
            )
        };

        let inv_std: Vec<f32> = var.iter().map(|&v| bn_inv_std(v)).collect();
        let mut x_hat = Tensor::zeros(x.shape());
        let mut out = Tensor::zeros(x.shape());
        let gd = self.gamma.value.data();
        let bd = self.beta.value.data();
        {
            let xh = x_hat.data_mut();
            let od = out.data_mut();
            for s in 0..n {
                for ch in 0..c {
                    let base = (s * c + ch) * plane;
                    let (m, is, g, b) = (mean[ch], inv_std[ch], gd[ch], bd[ch]);
                    for i in base..base + plane {
                        let xh_v = (x.data()[i] - m) * is;
                        xh[i] = xh_v;
                        od[i] = g * xh_v + b;
                    }
                }
            }
        }
        let centered = training.then(|| {
            let mut cent = x.clone();
            for s in 0..n {
                for ch in 0..c {
                    let base = (s * c + ch) * plane;
                    for v in &mut cent.data_mut()[base..base + plane] {
                        *v -= mean[ch];
                    }
                }
            }
            cent
        });
        self.cache = Some(BnCache {
            x_hat,
            inv_std,
            centered,
        });
        out
    }

    /// One in-place pass of the running-statistics map
    /// `γ·((x − μ)·σ⁻¹) + β`, the arithmetic of `forward(x, false)`.
    fn infer(&self, mut x: Tensor) -> Tensor {
        let (n, h, w) = self.dims(&x);
        let c = self.channels;
        let plane = h * w;
        let (md, vd, gd, bd) = (
            self.running_mean(),
            self.running_var(),
            self.gamma.value.data(),
            self.beta.value.data(),
        );
        let xd = x.data_mut();
        // Channel by channel, so each channel's σ⁻¹ is computed once
        // without a per-call buffer; every element's formula is unchanged.
        for ch in 0..c {
            let (m, is, g, b) = (md[ch], bn_inv_std(vd[ch]), gd[ch], bd[ch]);
            for s in 0..n {
                let base = (s * c + ch) * plane;
                for v in &mut xd[base..base + plane] {
                    *v = g * ((*v - m) * is) + b;
                }
            }
        }
        x
    }

    fn backward(&mut self, d_out: Tensor) -> Tensor {
        let cache = self
            .cache
            .take()
            .expect("backward requires a preceding forward");
        let sh = d_out.shape();
        let d = sh.dims();
        let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
        let plane = h * w;
        let count = (n * plane) as f32;
        let gd = self.gamma.value.data().to_vec();

        // dγ, dβ are identical in both modes.
        for s in 0..n {
            for ch in 0..c {
                let base = (s * c + ch) * plane;
                let mut dg = 0.0f32;
                let mut db = 0.0f32;
                for i in base..base + plane {
                    dg += d_out.data()[i] * cache.x_hat.data()[i];
                    db += d_out.data()[i];
                }
                self.gamma.grad.data_mut()[ch] += dg;
                self.beta.grad.data_mut()[ch] += db;
            }
        }

        let mut dx = Tensor::zeros(sh);
        match &cache.centered {
            // Training mode: full batch-statistics gradient.
            Some(_) => {
                for ch in 0..c {
                    // Channel-wise sums of dŷ = d_out·γ and dŷ·x̂.
                    let mut sum_dxhat = 0.0f64;
                    let mut sum_dxhat_xhat = 0.0f64;
                    for s in 0..n {
                        let base = (s * c + ch) * plane;
                        for i in base..base + plane {
                            let dxh = (d_out.data()[i] * gd[ch]) as f64;
                            sum_dxhat += dxh;
                            sum_dxhat_xhat += dxh * cache.x_hat.data()[i] as f64;
                        }
                    }
                    let mean_dxhat = (sum_dxhat / count as f64) as f32;
                    let mean_dxhat_xhat = (sum_dxhat_xhat / count as f64) as f32;
                    let is = cache.inv_std[ch];
                    for s in 0..n {
                        let base = (s * c + ch) * plane;
                        for i in base..base + plane {
                            let dxh = d_out.data()[i] * gd[ch];
                            let xh = cache.x_hat.data()[i];
                            dx.data_mut()[i] = is * (dxh - mean_dxhat - xh * mean_dxhat_xhat);
                        }
                    }
                }
            }
            // Eval mode: fixed affine map, dx = d_out · γ · inv_std.
            None => {
                for s in 0..n {
                    for ch in 0..c {
                        let base = (s * c + ch) * plane;
                        let k = gd[ch] * cache.inv_std[ch];
                        for i in base..base + plane {
                            dx.data_mut()[i] = d_out.data()[i] * k;
                        }
                    }
                }
            }
        }
        dx
    }

    fn visit_params(&mut self, prefix: &str, f: &mut ParamVisitor) {
        f(&join(prefix, "gamma"), &mut self.gamma);
        f(&join(prefix, "beta"), &mut self.beta);
        f(&join(prefix, "running_mean"), &mut self.running_mean);
        f(&join(prefix, "running_var"), &mut self.running_var);
    }

    fn visit_params_ref(&self, prefix: &str, f: &mut ParamVisitorRef) {
        f(&join(prefix, "gamma"), &self.gamma);
        f(&join(prefix, "beta"), &self.beta);
        f(&join(prefix, "running_mean"), &self.running_mean);
        f(&join(prefix, "running_var"), &self.running_var);
    }

    fn visit_params_fast(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
        f(&mut self.running_mean);
        f(&mut self.running_var);
    }
}

/// `1/√(var + ε)` of one BatchNorm channel.
fn bn_inv_std(var: f32) -> f32 {
    1.0 / (var + BN_EPS).sqrt()
}

/// Mean (rounded to `f32`) and `1/√(var + ε)` of one LayerNorm row, both
/// accumulated in `f64`.
fn ln_row_stats(row: &[f32]) -> (f32, f32) {
    let dim = row.len() as f64;
    let mean = row.iter().map(|&v| v as f64).sum::<f64>() / dim;
    let var = row.iter().map(|&v| (v as f64 - mean).powi(2)).sum::<f64>() / dim;
    (mean as f32, (1.0 / (var + LN_EPS as f64).sqrt()) as f32)
}

/// Layer normalization over the last dimension (ViT-style).
#[derive(Clone)]
pub struct LayerNorm {
    gamma: Param,
    beta: Param,
    features: usize,
    cache: Option<(Tensor, Vec<f32>)>, // (x̂, per-row inv_std)
}

impl LayerNorm {
    /// Creates a LayerNorm over the trailing `features` dimension.
    pub fn new(features: usize) -> Self {
        Self {
            gamma: Param::new(Tensor::full([features], 1.0), ParamRole::Norm),
            beta: Param::new(Tensor::zeros([features]), ParamRole::Norm),
            features,
            cache: None,
        }
    }
}

impl LayerNorm {
    /// The feature count of `x`'s last dimension, checked.
    fn check(&self, x: &Tensor) -> usize {
        let shape = x.shape();
        let dim = shape.dim(shape.ndim() - 1);
        assert_eq!(
            dim, self.features,
            "LayerNorm feature mismatch: {dim} vs {}",
            self.features
        );
        dim
    }
}

impl Layer for LayerNorm {
    fn forward(&mut self, x: Tensor, training: bool) -> Tensor {
        let dim = self.check(&x);
        let shape = x.shape();
        let rows = shape.numel() / dim;
        let mut x_hat = Tensor::zeros(shape);
        let mut out = Tensor::zeros(shape);
        let mut inv_stds = vec![0.0f32; rows];
        let gd = self.gamma.value.data();
        let bd = self.beta.value.data();
        for r in 0..rows {
            let row = &x.data()[r * dim..(r + 1) * dim];
            let (mean, inv_std) = ln_row_stats(row);
            inv_stds[r] = inv_std;
            let xh = &mut x_hat.data_mut()[r * dim..(r + 1) * dim];
            let od = &mut out.data_mut()[r * dim..(r + 1) * dim];
            for j in 0..dim {
                let v = (row[j] - mean) * inv_std;
                xh[j] = v;
                od[j] = gd[j] * v + bd[j];
            }
        }
        let _ = training;
        self.cache = Some((x_hat, inv_stds));
        out
    }

    fn infer(&self, mut x: Tensor) -> Tensor {
        let dim = self.check(&x);
        let (gd, bd) = (self.gamma.value.data(), self.beta.value.data());
        for row in x.data_mut().chunks_exact_mut(dim) {
            let (mean, inv_std) = ln_row_stats(row);
            for j in 0..dim {
                row[j] = gd[j] * ((row[j] - mean) * inv_std) + bd[j];
            }
        }
        x
    }

    fn backward(&mut self, d_out: Tensor) -> Tensor {
        let (x_hat, inv_stds) = self
            .cache
            .take()
            .expect("backward requires a training forward");
        let shape = d_out.shape();
        let dim = self.features;
        let rows = shape.numel() / dim;
        let gd = self.gamma.value.data().to_vec();
        let mut dx = Tensor::zeros(shape);
        for r in 0..rows {
            let dor = &d_out.data()[r * dim..(r + 1) * dim];
            let xhr = &x_hat.data()[r * dim..(r + 1) * dim];
            // Parameter gradients.
            for j in 0..dim {
                self.gamma.grad.data_mut()[j] += dor[j] * xhr[j];
                self.beta.grad.data_mut()[j] += dor[j];
            }
            // Input gradient.
            let mut mean_dxhat = 0.0f64;
            let mut mean_dxhat_xhat = 0.0f64;
            for j in 0..dim {
                let dxh = (dor[j] * gd[j]) as f64;
                mean_dxhat += dxh;
                mean_dxhat_xhat += dxh * xhr[j] as f64;
            }
            mean_dxhat /= dim as f64;
            mean_dxhat_xhat /= dim as f64;
            let dxr = &mut dx.data_mut()[r * dim..(r + 1) * dim];
            for j in 0..dim {
                let dxh = dor[j] * gd[j];
                dxr[j] = inv_stds[r] * (dxh - mean_dxhat as f32 - xhr[j] * mean_dxhat_xhat as f32);
            }
        }
        dx
    }

    fn visit_params(&mut self, prefix: &str, f: &mut ParamVisitor) {
        f(&join(prefix, "gamma"), &mut self.gamma);
        f(&join(prefix, "beta"), &mut self.beta);
    }

    fn visit_params_ref(&self, prefix: &str, f: &mut ParamVisitorRef) {
        f(&join(prefix, "gamma"), &self.gamma);
        f(&join(prefix, "beta"), &self.beta);
    }

    fn visit_params_fast(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clado_tensor::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bn_training_normalizes_batch() {
        let mut bn = BatchNorm2d::new(2);
        let mut rng = StdRng::seed_from_u64(0);
        let x = init::normal([4, 2, 3, 3], 3.0, 2.0, &mut rng);
        let y = bn.forward(x, true);
        // Per channel: mean ≈ 0, var ≈ 1.
        for ch in 0..2 {
            let mut vals = Vec::new();
            for s in 0..4 {
                let base = (s * 2 + ch) * 9;
                vals.extend_from_slice(&y.data()[base..base + 9]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn bn_eval_uses_running_stats() {
        let mut bn = BatchNorm2d::new(1);
        let mut rng = StdRng::seed_from_u64(1);
        // Train on shifted data to move running stats.
        for _ in 0..50 {
            let x = init::normal([8, 1, 2, 2], 5.0, 1.0, &mut rng);
            bn.forward(x, true);
        }
        assert!((bn.running_mean()[0] - 5.0).abs() < 0.5);
        // Eval on the same distribution ≈ normalized output.
        let x = init::normal([8, 1, 2, 2], 5.0, 1.0, &mut rng);
        let y = bn.forward(x, false);
        assert!(y.mean().abs() < 0.5);
    }

    #[test]
    fn bn_training_gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(2);
        let x = init::normal([2, 2, 2, 2], 1.0, 1.5, &mut rng);
        let seed = init::normal([2, 2, 2, 2], 0.0, 1.0, &mut rng);
        let mut bn = BatchNorm2d::new(2);
        // Non-trivial γ/β.
        bn.gamma.value = Tensor::from_vec([2], vec![1.3, 0.7]).unwrap();
        bn.beta.value = Tensor::from_vec([2], vec![0.2, -0.1]).unwrap();
        bn.forward(x.clone(), true);
        // Reset running stats influence by re-creating for FD loss below.
        let dx = {
            let mut bn2 = BatchNorm2d::new(2);
            bn2.gamma.value = bn.gamma.value.clone();
            bn2.beta.value = bn.beta.value.clone();
            bn2.forward(x.clone(), true);
            bn2.backward(seed.clone())
        };
        let loss = |xx: &Tensor| {
            let mut bn2 = BatchNorm2d::new(2);
            bn2.gamma.value = bn.gamma.value.clone();
            bn2.beta.value = bn.beta.value.clone();
            bn2.forward(xx.clone(), true).dot(&seed)
        };
        let eps = 1e-3f32;
        for idx in [0usize, 3, 9, 15] {
            let mut p = x.clone();
            p.data_mut()[idx] += eps;
            let mut m = x.clone();
            m.data_mut()[idx] -= eps;
            let fd = ((loss(&p) - loss(&m)) / (2.0 * eps as f64)) as f32;
            assert!(
                (fd - dx.data()[idx]).abs() < 2e-2,
                "idx {idx}: fd {fd} vs {}",
                dx.data()[idx]
            );
        }
    }

    #[test]
    fn layernorm_rows_are_normalized() {
        let mut ln = LayerNorm::new(4);
        let x = Tensor::from_vec([2, 4], vec![1., 2., 3., 4., 10., 20., 30., 40.]).unwrap();
        let y = ln.forward(x, false);
        for r in 0..2 {
            let row = &y.data()[r * 4..(r + 1) * 4];
            let mean: f32 = row.iter().sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5);
        }
    }

    #[test]
    fn layernorm_gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = init::normal([3, 5], 0.5, 2.0, &mut rng);
        let seed = init::normal([3, 5], 0.0, 1.0, &mut rng);
        let mut ln = LayerNorm::new(5);
        ln.gamma.value = init::normal([5], 1.0, 0.2, &mut rng);
        ln.forward(x.clone(), true);
        let dx = {
            let mut ln2 = LayerNorm::new(5);
            ln2.gamma.value = ln.gamma.value.clone();
            ln2.forward(x.clone(), true);
            ln2.backward(seed.clone())
        };
        let loss = |xx: &Tensor| {
            let mut ln2 = LayerNorm::new(5);
            ln2.gamma.value = ln.gamma.value.clone();
            ln2.forward(xx.clone(), false).dot(&seed)
        };
        let eps = 1e-3f32;
        for idx in 0..x.numel() {
            let mut p = x.clone();
            p.data_mut()[idx] += eps;
            let mut m = x.clone();
            m.data_mut()[idx] -= eps;
            let fd = ((loss(&p) - loss(&m)) / (2.0 * eps as f64)) as f32;
            assert!((fd - dx.data()[idx]).abs() < 2e-2, "idx {idx}");
        }
    }

    #[test]
    fn bn_eval_backward_is_affine() {
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::full([1, 1, 2, 2], 2.0);
        bn.forward(x, false);
        let dx = bn.backward(Tensor::full([1, 1, 2, 2], 1.0));
        // γ=1, running_var=1 → dx = 1/sqrt(1+eps).
        for &v in dx.data() {
            assert!((v - 1.0).abs() < 1e-4);
        }
    }
}
