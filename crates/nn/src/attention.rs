//! Multi-head self-attention and the pre-norm transformer block (ViT).

use crate::dense::Linear;
use crate::layer::{join, ActKind, Activation, Layer};
use crate::norm::LayerNorm;
use crate::param::{Param, ParamVisitor, ParamVisitorRef};
use clado_tensor::{active_backend, kernel, ops, Backend, Tensor};
use rand::Rng;

/// Multi-head self-attention over token tensors `[N, T, D]`.
///
/// The four projection layers are named `query`, `key`, `value`, and
/// `output.dense`, mirroring the paper's ViT layer list (Appendix A).
#[derive(Clone)]
pub struct MultiHeadAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    heads: usize,
    dim: usize,
    cache: Option<AttnCache>,
}

#[derive(Clone)]
struct AttnCache {
    q: Tensor,
    k: Tensor,
    v: Tensor,
    /// Softmax attention maps, `[N, H, T, T]`: one `[T, T]` matrix per
    /// (sample, head).
    attn: Vec<f32>,
    n: usize,
    t: usize,
}

impl MultiHeadAttention {
    /// Creates an attention layer with `heads` heads over dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `heads` does not divide `dim`.
    pub fn new(dim: usize, heads: usize, rng: &mut impl Rng) -> Self {
        assert!(
            heads > 0 && dim.is_multiple_of(heads),
            "heads={heads} must divide dim={dim}"
        );
        Self {
            wq: Linear::new(dim, dim, rng),
            wk: Linear::new(dim, dim, rng),
            wv: Linear::new(dim, dim, rng),
            wo: Linear::new(dim, dim, rng),
            heads,
            dim,
            cache: None,
        }
    }

    /// Extracts head `h` of sample `n` from `[N, T, D]` as a `[T, dh]` matrix.
    fn head(&self, x: &Tensor, n: usize, h: usize, t: usize) -> Tensor {
        let dh = self.dim / self.heads;
        let mut out = vec![0.0f32; t * dh];
        for (tok, row) in out.chunks_exact_mut(dh).enumerate() {
            let base = (n * t + tok) * self.dim + h * dh;
            row.copy_from_slice(&x.data()[base..base + dh]);
        }
        Tensor::from_vec([t, dh], out).expect("sized correctly")
    }

    /// Scatters a `[T, dh]` head tile back into `[N, T, D]` storage.
    fn scatter_head(&self, dst: &mut Tensor, src: &[f32], n: usize, h: usize) {
        let dh = self.dim / self.heads;
        let t = src.len() / dh;
        for (tok, row) in src.chunks_exact(dh).enumerate() {
            let base = (n * t + tok) * self.dim + h * dh;
            dst.data_mut()[base..base + dh].copy_from_slice(row);
        }
    }
}

impl Layer for MultiHeadAttention {
    fn forward(&mut self, x: Tensor, training: bool) -> Tensor {
        let sh = x.shape();
        assert_eq!(sh.ndim(), 3, "attention expects [N, T, D] input, got {sh}");
        let (n, t) = (sh.dim(0), sh.dim(1));
        let q = self.wq.forward(x.clone(), training);
        let k = self.wk.forward(x.clone(), training);
        let v = self.wv.forward(x, training);

        // Every map lands in one `[N, H, T, T]` buffer (also the backward
        // cache). Training keeps the frozen scalar softmax.
        let backend = if training {
            Backend::Scalar
        } else {
            active_backend()
        };
        let mut concat = Tensor::zeros([n, t, self.dim]);
        let mut attn = vec![0.0f32; n * self.heads * t * t];
        kernel::attention(
            backend,
            q.data(),
            k.data(),
            v.data(),
            concat.data_mut(),
            &mut attn,
            n,
            t,
            self.heads,
        );
        let out = self.wo.forward(concat, training);
        self.cache = Some(AttnCache {
            q,
            k,
            v,
            attn,
            n,
            t,
        });
        out
    }

    /// The three projections read one 2-D view of `x`; the maps are
    /// scratch, dropped with the call.
    fn infer(&self, x: Tensor) -> Tensor {
        let sh = x.shape();
        assert_eq!(sh.ndim(), 3, "attention expects [N, T, D] input, got {sh}");
        let (n, t) = (sh.dim(0), sh.dim(1));
        let x2 = self.wq.to_2d(x);
        let (q, k, v) = (
            self.wq.affine(&x2),
            self.wk.affine(&x2),
            self.wv.affine(&x2),
        );
        drop(x2);
        let mut concat = Tensor::zeros([n, t, self.dim]);
        let mut maps = vec![0.0f32; n * self.heads * t * t];
        kernel::attention(
            active_backend(),
            q.data(),
            k.data(),
            v.data(),
            concat.data_mut(),
            &mut maps,
            n,
            t,
            self.heads,
        );
        self.wo.infer(concat)
    }

    fn backward(&mut self, d_out: Tensor) -> Tensor {
        let cache = self
            .cache
            .take()
            .expect("backward requires a training forward");
        let (n, t) = (cache.n, cache.t);
        let dh = self.dim / self.heads;
        let scale = 1.0 / (dh as f32).sqrt();

        let d_concat = self.wo.backward(d_out);
        let mut dq = Tensor::zeros([n, t, self.dim]);
        let mut dk = Tensor::zeros([n, t, self.dim]);
        let mut dv = Tensor::zeros([n, t, self.dim]);
        for s in 0..n {
            for h in 0..self.heads {
                let d_oh = self.head(&d_concat, s, h, t);
                let qh = self.head(&cache.q, s, h, t);
                let kh = self.head(&cache.k, s, h, t);
                let vh = self.head(&cache.v, s, h, t);
                let map = (s * self.heads + h) * t * t;
                let attn = Tensor::from_vec([t, t], cache.attn[map..map + t * t].to_vec())
                    .expect("sized correctly");

                // O = A·V  ⇒  dA = dO·Vᵀ, dV = Aᵀ·dO.
                let d_attn = clado_tensor::matmul_a_bt(&d_oh, &vh);
                let d_vh = clado_tensor::matmul_at_b(&attn, &d_oh);
                // A = softmax(S) row-wise.
                let mut d_scores = ops::softmax_rows_backward(&attn, &d_attn);
                d_scores.scale(scale);
                // S = Q·Kᵀ  ⇒  dQ = dS·K, dK = dSᵀ·Q.
                let d_qh = clado_tensor::matmul(&d_scores, &kh);
                let d_kh = clado_tensor::matmul_at_b(&d_scores, &qh);

                self.scatter_head(&mut dq, d_qh.data(), s, h);
                self.scatter_head(&mut dk, d_kh.data(), s, h);
                self.scatter_head(&mut dv, d_vh.data(), s, h);
            }
        }
        let dx_q = self.wq.backward(dq);
        let dx_k = self.wk.backward(dk);
        let dx_v = self.wv.backward(dv);
        let mut dx = dx_q;
        dx += &dx_k;
        dx += &dx_v;
        dx
    }

    fn visit_params(&mut self, prefix: &str, f: &mut ParamVisitor) {
        self.wq.visit_params(&join(prefix, "attention.query"), f);
        self.wk.visit_params(&join(prefix, "attention.key"), f);
        self.wv.visit_params(&join(prefix, "attention.value"), f);
        self.wo.visit_params(&join(prefix, "output.dense"), f);
    }

    fn visit_params_ref(&self, prefix: &str, f: &mut ParamVisitorRef) {
        self.wq
            .visit_params_ref(&join(prefix, "attention.query"), f);
        self.wk.visit_params_ref(&join(prefix, "attention.key"), f);
        self.wv
            .visit_params_ref(&join(prefix, "attention.value"), f);
        self.wo.visit_params_ref(&join(prefix, "output.dense"), f);
    }

    fn visit_params_fast(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.wq.visit_params_fast(f);
        self.wk.visit_params_fast(f);
        self.wv.visit_params_fast(f);
        self.wo.visit_params_fast(f);
    }
}

/// A pre-norm transformer encoder block: `x + MHA(LN(x))`, then
/// `y + MLP(LN(y))` with a GELU MLP, matching the ViT encoder.
#[derive(Clone)]
pub struct TransformerBlock {
    ln1: LayerNorm,
    attn: MultiHeadAttention,
    ln2: LayerNorm,
    fc1: Linear,
    act: Activation,
    fc2: Linear,
}

impl TransformerBlock {
    /// Creates a block with model dimension `dim`, `heads` attention heads,
    /// and an MLP hidden width of `mlp_dim`.
    pub fn new(dim: usize, heads: usize, mlp_dim: usize, rng: &mut impl Rng) -> Self {
        Self {
            ln1: LayerNorm::new(dim),
            attn: MultiHeadAttention::new(dim, heads, rng),
            ln2: LayerNorm::new(dim),
            fc1: Linear::new(dim, mlp_dim, rng),
            act: Activation::new(ActKind::Gelu),
            fc2: Linear::new(mlp_dim, dim, rng),
        }
    }
}

impl Layer for TransformerBlock {
    fn forward(&mut self, x: Tensor, training: bool) -> Tensor {
        let a = self.ln1.forward(x.clone(), training);
        let a = self.attn.forward(a, training);
        let y = &x + &a;
        let m = self.ln2.forward(y.clone(), training);
        let m = self.fc1.forward(m, training);
        let m = self.act.forward(m, training);
        let m = self.fc2.forward(m, training);
        &y + &m
    }

    /// Both residual sums land in place in the block input's buffer.
    fn infer(&self, x: Tensor) -> Tensor {
        let a = self.attn.infer(self.ln1.infer(x.clone()));
        let mut y = x;
        y += &a;
        let m = self.ln2.infer(y.clone());
        let m = self.fc2.infer(self.act.infer(self.fc1.infer(m)));
        y += &m;
        y
    }

    fn backward(&mut self, d_out: Tensor) -> Tensor {
        // out = y + mlp(ln2(y))
        let d_m = self.fc2.backward(d_out.clone());
        let d_m = self.act.backward(d_m);
        let d_m = self.fc1.backward(d_m);
        let mut d_y = self.ln2.backward(d_m);
        d_y += &d_out;
        // y = x + attn(ln1(x))
        let d_a = self.attn.backward(d_y.clone());
        let mut d_x = self.ln1.backward(d_a);
        d_x += &d_y;
        d_x
    }

    fn visit_params(&mut self, prefix: &str, f: &mut ParamVisitor) {
        self.ln1.visit_params(&join(prefix, "layernorm_before"), f);
        self.attn.visit_params(&join(prefix, "attention"), f);
        self.ln2.visit_params(&join(prefix, "layernorm_after"), f);
        self.fc1
            .visit_params(&join(prefix, "intermediate.dense"), f);
        self.fc2.visit_params(&join(prefix, "output.dense"), f);
    }

    fn visit_params_ref(&self, prefix: &str, f: &mut ParamVisitorRef) {
        self.ln1
            .visit_params_ref(&join(prefix, "layernorm_before"), f);
        self.attn.visit_params_ref(&join(prefix, "attention"), f);
        self.ln2
            .visit_params_ref(&join(prefix, "layernorm_after"), f);
        self.fc1
            .visit_params_ref(&join(prefix, "intermediate.dense"), f);
        self.fc2.visit_params_ref(&join(prefix, "output.dense"), f);
    }

    fn visit_params_fast(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.ln1.visit_params_fast(f);
        self.attn.visit_params_fast(f);
        self.ln2.visit_params_fast(f);
        self.fc1.visit_params_fast(f);
        self.fc2.visit_params_fast(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clado_tensor::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn attention_preserves_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut attn = MultiHeadAttention::new(8, 2, &mut rng);
        let x = init::normal([2, 5, 8], 0.0, 1.0, &mut rng);
        let y = attn.forward(x, false);
        assert_eq!(y.shape().dims(), &[2, 5, 8]);
    }

    /// The batched forward equals, bit for bit, the per-(sample, head)
    /// forward built from the tensor-level ops, in its output and in the
    /// cached maps. The reference's softmax is the one the forward
    /// dispatches: the frozen scalar one in training, the active backend's
    /// in evaluation. The shapes cover the scalar tiles of vit-mini and the
    /// skinny and blocked SIMD GEMM paths.
    #[test]
    fn forward_matches_per_head_reference_bitwise() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut rng = StdRng::seed_from_u64(4);
        for (n, t, dim, heads) in [(3, 16, 24, 4), (2, 12, 64, 2), (2, 20, 64, 2)] {
            for training in [false, true] {
                let mut attn = MultiHeadAttention::new(dim, heads, &mut rng);
                let x = init::normal([n, t, dim], 0.0, 1.0, &mut rng);
                let y = attn.forward(x.clone(), training);
                let maps = attn.cache.take().expect("forward caches its maps").attn;

                let q = attn.wq.forward(x.clone(), false);
                let k = attn.wk.forward(x.clone(), false);
                let v = attn.wv.forward(x, false);
                let mut concat = Tensor::zeros([n, t, dim]);
                let mut want_maps = Vec::new();
                for s in 0..n {
                    for h in 0..heads {
                        let qh = attn.head(&q, s, h, t);
                        let kh = attn.head(&k, s, h, t);
                        let vh = attn.head(&v, s, h, t);
                        let mut scores = clado_tensor::matmul_a_bt(&qh, &kh);
                        scores.scale(1.0 / ((dim / heads) as f32).sqrt());
                        let mut a = scores;
                        let backend = if training {
                            Backend::Scalar
                        } else {
                            active_backend()
                        };
                        kernel::softmax_rows_with(backend, a.data_mut(), t);
                        let oh = clado_tensor::matmul(&a, &vh);
                        attn.scatter_head(&mut concat, oh.data(), s, h);
                        want_maps.extend_from_slice(a.data());
                    }
                }
                let want = attn.wo.forward(concat, false);
                let case = format!("[{n}, {t}, {dim}] × {heads} heads, training {training}");
                assert_eq!(bits(y.data()), bits(want.data()), "{case}: output");
                assert_eq!(bits(&maps), bits(&want_maps), "{case}: maps");
            }
        }
    }

    #[test]
    fn attention_gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(1);
        let dim = 4;
        let mut attn = MultiHeadAttention::new(dim, 2, &mut rng);
        let x = init::normal([1, 3, dim], 0.0, 1.0, &mut rng);
        let seed = init::normal([1, 3, dim], 0.0, 1.0, &mut rng);

        attn.forward(x.clone(), true);
        let dx = attn.backward(seed.clone());

        let eps = 1e-3f32;
        for idx in 0..x.numel() {
            let mut p = x.clone();
            p.data_mut()[idx] += eps;
            let mut m = x.clone();
            m.data_mut()[idx] -= eps;
            let fp = attn.forward(p, false).dot(&seed);
            let fm = attn.forward(m, false).dot(&seed);
            let fd = ((fp - fm) / (2.0 * eps as f64)) as f32;
            assert!(
                (fd - dx.data()[idx]).abs() < 3e-2,
                "idx {idx}: fd {fd} vs analytic {}",
                dx.data()[idx]
            );
        }
    }

    #[test]
    fn transformer_block_gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(2);
        let dim = 4;
        let mut block = TransformerBlock::new(dim, 2, 8, &mut rng);
        let x = init::normal([1, 3, dim], 0.0, 1.0, &mut rng);
        let seed = init::normal([1, 3, dim], 0.0, 1.0, &mut rng);

        block.forward(x.clone(), true);
        let dx = block.backward(seed.clone());

        let eps = 1e-3f32;
        for idx in [0usize, 2, 5, 7, 11] {
            let mut p = x.clone();
            p.data_mut()[idx] += eps;
            let mut m = x.clone();
            m.data_mut()[idx] -= eps;
            let fp = block.forward(p, false).dot(&seed);
            let fm = block.forward(m, false).dot(&seed);
            let fd = ((fp - fm) / (2.0 * eps as f64)) as f32;
            assert!(
                (fd - dx.data()[idx]).abs() < 5e-2,
                "idx {idx}: fd {fd} vs analytic {}",
                dx.data()[idx]
            );
        }
    }

    #[test]
    fn vit_param_names_match_paper_convention() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut block = TransformerBlock::new(4, 2, 8, &mut rng);
        let mut names = Vec::new();
        block.visit_params("layer.0", &mut |n, _| names.push(n.to_string()));
        assert!(names.contains(&"layer.0.attention.attention.query.weight".to_string()));
        assert!(names.contains(&"layer.0.attention.output.dense.weight".to_string()));
        assert!(names.contains(&"layer.0.intermediate.dense.weight".to_string()));
        assert!(names.contains(&"layer.0.output.dense.weight".to_string()));
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn heads_must_divide_dim() {
        let mut rng = StdRng::seed_from_u64(0);
        MultiHeadAttention::new(6, 4, &mut rng);
    }
}
