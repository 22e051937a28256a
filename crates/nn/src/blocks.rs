//! Composite CNN blocks: residual blocks, squeeze-excite, patch embedding.

use crate::conv_layer::Conv2d;
use crate::dense::Linear;
use crate::layer::{activate_in_place, join, ActKind, Layer, Sequential};
use crate::param::{Param, ParamVisitor, ParamVisitorRef};
use clado_tensor::{ops, Shape, Tensor};
use rand::Rng;

/// A residual block: `act(main(x) + shortcut(x))`.
///
/// `shortcut = None` denotes the identity connection; `post_act = None`
/// skips the post-addition activation (used by MobileNet inverted
/// residuals, which are linear at the block output).
#[derive(Clone)]
pub struct ResidualBlock {
    main: Sequential,
    shortcut: Option<Sequential>,
    post_act: Option<ActKind>,
    cache: Option<(Tensor, Option<Tensor>)>, // (pre-activation sum, input when identity shortcut)
}

impl ResidualBlock {
    /// Creates a residual block.
    pub fn new(main: Sequential, shortcut: Option<Sequential>, post_act: Option<ActKind>) -> Self {
        Self {
            main,
            shortcut,
            post_act,
            cache: None,
        }
    }
}

impl Layer for ResidualBlock {
    fn forward(&mut self, x: Tensor, training: bool) -> Tensor {
        let main_out = self.main.forward(x.clone(), training);
        let short_out = match &mut self.shortcut {
            Some(s) => s.forward(x, training),
            None => x,
        };
        let sum = &main_out + &short_out;
        let out = match self.post_act {
            Some(ActKind::Relu) => ops::relu_forward(&sum),
            Some(ActKind::Gelu) if training => ops::gelu_forward(&sum),
            Some(ActKind::Gelu) => ops::gelu_forward_eval(&sum),
            Some(ActKind::HardSwish) => ops::hardswish_forward(&sum),
            None => sum.clone(),
        };
        self.cache = Some((sum, None));
        out
    }

    fn infer(&self, x: Tensor) -> Tensor {
        self.infer_ref(&x)
    }

    /// Both branches read `x` borrowed; the sum and the post-activation
    /// are done in place in the main branch's output.
    fn infer_ref(&self, x: &Tensor) -> Tensor {
        let mut out = self.main.infer_ref(x);
        match &self.shortcut {
            Some(s) => out += &s.infer_ref(x),
            None => out += x,
        }
        if let Some(kind) = self.post_act {
            activate_in_place(kind, &mut out);
        }
        out
    }

    fn backward(&mut self, d_out: Tensor) -> Tensor {
        let (sum, _) = self
            .cache
            .take()
            .expect("backward requires a training forward");
        let d_sum = match self.post_act {
            Some(ActKind::Relu) => ops::relu_backward(&sum, &d_out),
            Some(ActKind::Gelu) => ops::gelu_backward(&sum, &d_out),
            Some(ActKind::HardSwish) => ops::hardswish_backward(&sum, &d_out),
            None => d_out,
        };
        let d_main = self.main.backward(d_sum.clone());
        let d_short = match &mut self.shortcut {
            Some(s) => s.backward(d_sum),
            None => d_sum,
        };
        &d_main + &d_short
    }

    fn visit_params(&mut self, prefix: &str, f: &mut ParamVisitor) {
        self.main.visit_params(prefix, f);
        if let Some(s) = &mut self.shortcut {
            s.visit_params(&join(prefix, "downsample"), f);
        }
    }

    fn visit_params_ref(&self, prefix: &str, f: &mut ParamVisitorRef) {
        self.main.visit_params_ref(prefix, f);
        if let Some(s) = &self.shortcut {
            s.visit_params_ref(&join(prefix, "downsample"), f);
        }
    }

    fn visit_params_fast(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.main.visit_params_fast(f);
        if let Some(s) = &mut self.shortcut {
            s.visit_params_fast(f);
        }
    }
}

/// Squeeze-and-excitation: channel gating via two small FC layers
/// (MobileNetV3's `block.2.fc1`/`fc2` in the paper's layer list).
#[derive(Clone)]
pub struct SqueezeExcite {
    fc1: Linear,
    fc2: Linear,
    cache: Option<SeCache>,
    /// Pre-ReLU hidden activations, needed by the ReLU backward.
    relu_input: Option<Tensor>,
}

#[derive(Clone)]
struct SeCache {
    input: Tensor,
    gates: Tensor, // [N, C] after sigmoid
}

impl SqueezeExcite {
    /// Creates an SE block over `channels` with the given reduction ratio.
    ///
    /// # Panics
    ///
    /// Panics if `channels / reduction` is zero.
    pub fn new(channels: usize, reduction: usize, rng: &mut impl Rng) -> Self {
        let hidden = channels / reduction;
        assert!(
            hidden > 0,
            "reduction {reduction} too large for {channels} channels"
        );
        Self {
            fc1: Linear::new(channels, hidden, rng),
            fc2: Linear::new(hidden, channels, rng),
            cache: None,
            relu_input: None,
        }
    }
}

impl Layer for SqueezeExcite {
    fn forward(&mut self, x: Tensor, training: bool) -> Tensor {
        let pooled = clado_tensor::global_avg_pool_forward(&x); // [N, C]
        let h = self.fc1.forward(pooled, training);
        let h = ops::relu_forward(&h);
        let g = self.fc2.forward(h.clone(), training);
        let gates = ops::sigmoid_forward(&g);
        let mut out = x.clone();
        scale_channels(&mut out, &gates);
        let _ = training;
        self.cache = Some(SeCache { input: x, gates });
        self.relu_input = Some(h);
        out
    }

    fn infer(&self, mut x: Tensor) -> Tensor {
        let mut h = self.fc1.infer(clado_tensor::global_avg_pool_forward(&x));
        activate_in_place(ActKind::Relu, &mut h);
        let gates = ops::sigmoid_forward(&self.fc2.infer(h));
        scale_channels(&mut x, &gates);
        x
    }

    fn backward(&mut self, d_out: Tensor) -> Tensor {
        let cache = self
            .cache
            .take()
            .expect("backward requires a training forward");
        let relu_in = self.relu_input.take().expect("cache consistency");
        let sh = cache.input.shape();
        let d = sh.dims();
        let (n, c, hh, ww) = (d[0], d[1], d[2], d[3]);
        // dx (direct path) and d_gates.
        let mut dx = d_out.clone();
        let mut d_gates = Tensor::zeros([n, c]);
        for s in 0..n {
            for ch in 0..c {
                let base = (s * c + ch) * hh * ww;
                let gate = cache.gates.data()[s * c + ch];
                let mut dg = 0.0f32;
                for i in base..base + hh * ww {
                    dg += d_out.data()[i] * cache.input.data()[i];
                    dx.data_mut()[i] = d_out.data()[i] * gate;
                }
                d_gates.data_mut()[s * c + ch] = dg;
            }
        }
        // Through sigmoid → fc2 → relu → fc1 → global-avg-pool.
        let d_g = ops::sigmoid_backward_from_output(&cache.gates, &d_gates);
        let d_h = self.fc2.backward(d_g);
        let d_h = ops::relu_backward(&relu_in, &d_h);
        let d_pooled = self.fc1.backward(d_h);
        let d_from_pool = clado_tensor::global_avg_pool_backward(&d_pooled, sh);
        dx += &d_from_pool;
        dx
    }

    fn visit_params(&mut self, prefix: &str, f: &mut ParamVisitor) {
        self.fc1.visit_params(&join(prefix, "fc1"), f);
        self.fc2.visit_params(&join(prefix, "fc2"), f);
    }

    fn visit_params_ref(&self, prefix: &str, f: &mut ParamVisitorRef) {
        self.fc1.visit_params_ref(&join(prefix, "fc1"), f);
        self.fc2.visit_params_ref(&join(prefix, "fc2"), f);
    }

    fn visit_params_fast(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.fc1.visit_params_fast(f);
        self.fc2.visit_params_fast(f);
    }
}

/// Multiplies every `[H, W]` plane of `x` (`[N, C, H, W]`) by its gate
/// (`[N, C]`).
fn scale_channels(x: &mut Tensor, gates: &Tensor) {
    let plane = x.shape().dims()[2..].iter().product::<usize>();
    for (p, &gate) in x.data_mut().chunks_exact_mut(plane).zip(gates.data()) {
        p.iter_mut().for_each(|v| *v *= gate);
    }
}

/// Patch embedding: a stride-`p` convolution followed by flattening the
/// spatial grid into tokens `[N, T, D]`, plus a learned positional
/// embedding.
#[derive(Clone)]
pub struct PatchEmbed {
    conv: Conv2d,
    pos: crate::param::Param,
    tokens: usize,
    cache_shape: Option<Shape>,
}

impl PatchEmbed {
    /// Creates a patch embedding for `in_channels`×`img`×`img` inputs with
    /// square patches of side `patch` and embedding dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `patch` does not divide `img`.
    pub fn new(
        in_channels: usize,
        img: usize,
        patch: usize,
        dim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert_eq!(
            img % patch,
            0,
            "patch size {patch} must divide image size {img}"
        );
        let grid = img / patch;
        let tokens = grid * grid;
        let spec = clado_tensor::Conv2dSpec::new(in_channels, dim, patch, patch, 0);
        let pos = clado_tensor::init::normal([tokens, dim], 0.0, 0.02, rng);
        Self {
            conv: Conv2d::new(spec, true, rng),
            pos: crate::param::Param::new(pos, crate::param::ParamRole::Norm),
            tokens,
            cache_shape: None,
        }
    }

    /// Number of tokens produced per sample.
    pub fn tokens(&self) -> usize {
        self.tokens
    }

    /// `[N, D, g, g]` conv output → `[N, T, D]` tokens plus the positional
    /// embedding.
    fn tokenize(&self, y: &Tensor) -> Tensor {
        let d = y.shape().dims().to_vec();
        let (n, dim, t) = (d[0], d[1], d[2] * d[3]);
        debug_assert_eq!(t, self.tokens);
        // [N, D, T] → [N, T, D] transpose.
        let mut out = Tensor::zeros([n, t, dim]);
        for s in 0..n {
            for c in 0..dim {
                for tok in 0..t {
                    out.data_mut()[(s * t + tok) * dim + c] = y.data()[(s * dim + c) * t + tok];
                }
            }
        }
        // Add positional embedding.
        for s in 0..n {
            for tok in 0..t {
                let base = (s * t + tok) * dim;
                let pbase = tok * dim;
                for j in 0..dim {
                    out.data_mut()[base + j] += self.pos.value.data()[pbase + j];
                }
            }
        }
        out
    }
}

impl Layer for PatchEmbed {
    fn forward(&mut self, x: Tensor, training: bool) -> Tensor {
        let y = self.conv.forward(x, training); // [N, D, g, g]
        self.cache_shape = Some(y.shape());
        self.tokenize(&y)
    }

    fn infer(&self, x: Tensor) -> Tensor {
        self.tokenize(&self.conv.infer(x))
    }

    fn backward(&mut self, d_out: Tensor) -> Tensor {
        let sh = self
            .cache_shape
            .take()
            .expect("backward requires a training forward");
        let d = sh.dims();
        let (n, dim, g1, g2) = (d[0], d[1], d[2], d[3]);
        let t = g1 * g2;
        // Positional-embedding gradient.
        for s in 0..n {
            for tok in 0..t {
                let base = (s * t + tok) * dim;
                let pbase = tok * dim;
                for j in 0..dim {
                    self.pos.grad.data_mut()[pbase + j] += d_out.data()[base + j];
                }
            }
        }
        // Transpose back to [N, D, g, g] and through the conv.
        let mut dy = Tensor::zeros(sh);
        for s in 0..n {
            for c in 0..dim {
                for tok in 0..t {
                    dy.data_mut()[(s * dim + c) * t + tok] = d_out.data()[(s * t + tok) * dim + c];
                }
            }
        }
        self.conv.backward(dy)
    }

    fn visit_params(&mut self, prefix: &str, f: &mut ParamVisitor) {
        self.conv.visit_params(&join(prefix, "projection"), f);
        f(&join(prefix, "position_embeddings"), &mut self.pos);
    }

    fn visit_params_ref(&self, prefix: &str, f: &mut ParamVisitorRef) {
        self.conv.visit_params_ref(&join(prefix, "projection"), f);
        f(&join(prefix, "position_embeddings"), &self.pos);
    }

    fn visit_params_fast(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.conv.visit_params_fast(f);
        f(&mut self.pos);
    }
}

/// Mean pooling over tokens: `[N, T, D] → [N, D]` (classifier head input;
/// replaces the class token for simplicity).
#[derive(Debug, Default, Clone)]
pub struct TokenMeanPool {
    cache: Option<Shape>,
}

impl TokenMeanPool {
    /// Creates the pooling layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for TokenMeanPool {
    fn forward(&mut self, x: Tensor, training: bool) -> Tensor {
        let _ = training;
        self.cache = Some(x.shape());
        self.infer(x)
    }

    fn infer(&self, x: Tensor) -> Tensor {
        let sh = x.shape();
        assert_eq!(sh.ndim(), 3, "TokenMeanPool expects [N, T, D], got {sh}");
        let (n, t, d) = (sh.dim(0), sh.dim(1), sh.dim(2));
        let mut out = Tensor::zeros([n, d]);
        let inv = 1.0 / t as f32;
        for s in 0..n {
            for tok in 0..t {
                let base = (s * t + tok) * d;
                for j in 0..d {
                    out.data_mut()[s * d + j] += x.data()[base + j] * inv;
                }
            }
        }
        out
    }

    fn backward(&mut self, d_out: Tensor) -> Tensor {
        let sh = self
            .cache
            .take()
            .expect("backward requires a training forward");
        let (n, t, d) = (sh.dim(0), sh.dim(1), sh.dim(2));
        let inv = 1.0 / t as f32;
        let mut dx = Tensor::zeros(sh);
        for s in 0..n {
            for tok in 0..t {
                let base = (s * t + tok) * d;
                for j in 0..d {
                    dx.data_mut()[base + j] = d_out.data()[s * d + j] * inv;
                }
            }
        }
        dx
    }

    fn visit_params(&mut self, _prefix: &str, _f: &mut ParamVisitor) {}

    fn visit_params_ref(&self, _prefix: &str, _f: &mut ParamVisitorRef) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Activation, Sequential};
    use clado_tensor::{init, Conv2dSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn conv(cin: usize, cout: usize, rng: &mut StdRng) -> Conv2d {
        Conv2d::new(Conv2dSpec::new(cin, cout, 3, 1, 1), false, rng)
    }

    #[test]
    fn residual_identity_block_shapes_and_gradient_flow() {
        let mut rng = StdRng::seed_from_u64(0);
        let main = Sequential::new()
            .push("conv1", conv(4, 4, &mut rng))
            .push("relu", Activation::new(ActKind::Relu))
            .push("conv2", conv(4, 4, &mut rng));
        let mut block = ResidualBlock::new(main, None, Some(ActKind::Relu));
        let x = init::normal([2, 4, 5, 5], 0.0, 1.0, &mut rng);
        let y = block.forward(x.clone(), true);
        assert_eq!(y.shape(), x.shape());
        let dx = block.backward(Tensor::full(y.shape(), 1.0));
        assert_eq!(dx.shape(), x.shape());
        // Identity path guarantees some gradient reaches the input.
        assert!(dx.norm() > 0.0);
    }

    #[test]
    fn residual_block_gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(1);
        let main = Sequential::new().push("conv1", conv(2, 2, &mut rng));
        let mut block = ResidualBlock::new(main, None, Some(ActKind::Relu));
        let x = init::normal([1, 2, 4, 4], 0.0, 1.0, &mut rng);
        let seed = init::normal([1, 2, 4, 4], 0.0, 1.0, &mut rng);
        block.forward(x.clone(), true);
        let dx = block.backward(seed.clone());
        let eps = 1e-3f32;
        for idx in [0usize, 7, 15, 30] {
            let mut p = x.clone();
            p.data_mut()[idx] += eps;
            let mut m = x.clone();
            m.data_mut()[idx] -= eps;
            let fp = block.forward(p, false).dot(&seed);
            let fm = block.forward(m, false).dot(&seed);
            let fd = ((fp - fm) / (2.0 * eps as f64)) as f32;
            assert!((fd - dx.data()[idx]).abs() < 3e-2, "idx {idx}");
        }
    }

    #[test]
    fn squeeze_excite_gates_channels() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut se = SqueezeExcite::new(4, 2, &mut rng);
        let x = init::normal([1, 4, 3, 3], 0.0, 1.0, &mut rng);
        let y = se.forward(x.clone(), false);
        assert_eq!(y.shape(), x.shape());
        // Gates are in (0, 1): output magnitude never exceeds input.
        for (a, b) in y.data().iter().zip(x.data()) {
            assert!(a.abs() <= b.abs() + 1e-6);
        }
    }

    #[test]
    fn squeeze_excite_gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut se = SqueezeExcite::new(2, 1, &mut rng);
        let x = init::normal([1, 2, 2, 2], 0.0, 1.0, &mut rng);
        let seed = init::normal([1, 2, 2, 2], 0.0, 1.0, &mut rng);
        se.forward(x.clone(), true);
        let dx = se.backward(seed.clone());
        let eps = 1e-3f32;
        for idx in 0..x.numel() {
            let mut p = x.clone();
            p.data_mut()[idx] += eps;
            let mut m = x.clone();
            m.data_mut()[idx] -= eps;
            let fp = se.forward(p, false).dot(&seed);
            let fm = se.forward(m, false).dot(&seed);
            let fd = ((fp - fm) / (2.0 * eps as f64)) as f32;
            assert!(
                (fd - dx.data()[idx]).abs() < 2e-2,
                "idx {idx}: fd {fd} vs {}",
                dx.data()[idx]
            );
        }
    }

    #[test]
    fn patch_embed_tokenizes() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut pe = PatchEmbed::new(3, 8, 4, 16, &mut rng);
        assert_eq!(pe.tokens(), 4);
        let x = init::normal([2, 3, 8, 8], 0.0, 1.0, &mut rng);
        let y = pe.forward(x, true);
        assert_eq!(y.shape().dims(), &[2, 4, 16]);
        let dx = pe.backward(Tensor::zeros([2, 4, 16]));
        assert_eq!(dx.shape().dims(), &[2, 3, 8, 8]);
    }

    #[test]
    fn token_mean_pool_roundtrip() {
        let mut tp = TokenMeanPool::new();
        let x = Tensor::from_vec([1, 2, 2], vec![1., 2., 3., 4.]).unwrap();
        let y = tp.forward(x, true);
        assert_eq!(y.data(), &[2.0, 3.0]);
        let dx = tp.backward(Tensor::from_vec([1, 2], vec![2.0, 4.0]).unwrap());
        assert_eq!(dx.data(), &[1.0, 2.0, 1.0, 2.0]);
    }
}
