//! Property-based tests for the dispatching kernel layer: every SIMD
//! backend must agree with the frozen scalar reference within a
//! ULP-scaled tolerance on float GEMM and convolution, `im2col` must
//! match its definition bit for bit, and the dispatched dense convolution
//! must equal the im2col + GEMM reference bit for bit. The evaluation-mode GELU and softmax
//! must match an f64 reference on every backend, keep each output a pure
//! function of its input, and stay bitwise frozen on the scalar backend.
//! The MSE calibration grid must give bitwise the scalar sums on every
//! backend, special values included.

use clado_tensor::kernel::{
    attention, gelu_with, sgemm_overwrite, sgemm_with, softmax_rows_with, symmetric_mse_grid,
    symmetric_mse_grid_with, SIMD_FLOP_THRESHOLD,
};
use clado_tensor::{
    active_backend, conv2d_forward, conv2d_forward_im2col, conv2d_path, im2col_ld, Backend,
    Conv2dSpec, ConvPath, Tensor,
};
use proptest::prelude::*;

/// Backends available on this host (scalar always included).
fn backends() -> Vec<Backend> {
    let mut v = vec![Backend::Scalar];
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            v.push(Backend::Avx2Fma);
        }
    }
    v
}

/// Deterministic pseudo-random fill in roughly [-1, 1).
fn fill(len: usize, seed: u64) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    (0..len)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
        })
        .collect()
}

/// Per-element error bound for a k-term f32 dot product whose partial sums
/// were reassociated: a small multiple of `eps · Σ|aᵢ·bᵢ|`.
fn dot_tolerance(abs_sum: f32, k: usize) -> f32 {
    4.0 * f32::EPSILON * abs_sum * (k as f32).sqrt().max(1.0) + 1e-9
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every SIMD backend matches the scalar reference on all four
    /// transpose forms, across skinny (m < 16), microkernel-tiled, and
    /// degenerate (k = 1, n = 1) shapes.
    #[test]
    fn simd_gemm_matches_scalar_within_tolerance(
        m in 1usize..24,
        k in 1usize..40,
        n in 1usize..70,
        seed in 0u64..1_000,
        ta_sel in 0usize..2,
        tb_sel in 0usize..2,
    ) {
        let (ta, tb) = (ta_sel == 1, tb_sel == 1);
        let a = fill(m * k, seed);
        let b = fill(k * n, seed + 1);
        // Absolute-value accumulation for the per-element tolerance.
        let at = |i: usize, p: usize| if ta { a[p * m + i] } else { a[i * k + p] };
        let bt = |p: usize, j: usize| if tb { b[j * k + p] } else { b[p * n + j] };
        let mut expect = vec![0.0f32; m * n];
        sgemm_with(Backend::Scalar, &a, &b, &mut expect, m, k, n, ta, tb);
        for backend in backends() {
            let mut c = vec![0.0f32; m * n];
            sgemm_with(backend, &a, &b, &mut c, m, k, n, ta, tb);
            for i in 0..m {
                for j in 0..n {
                    let abs_sum: f32 = (0..k).map(|p| (at(i, p) * bt(p, j)).abs()).sum();
                    let tol = dot_tolerance(abs_sum, k);
                    let (x, y) = (c[i * n + j], expect[i * n + j]);
                    prop_assert!(
                        (x - y).abs() <= tol,
                        "{backend:?} ({m},{k},{n}) ta={ta} tb={tb} [{i},{j}]: {x} vs {y} (tol {tol})"
                    );
                }
            }
        }
    }

    /// Overwrite-mode GEMM is bit-identical to zero-then-accumulate on
    /// the active backend (the skinny path skips the zero sweep).
    #[test]
    fn overwrite_gemm_is_bitwise_zero_then_accumulate(
        m in 1usize..20,
        k in 1usize..32,
        n in 1usize..80,
        seed in 0u64..1_000,
    ) {
        let a = fill(m * k, seed);
        let b = fill(k * n, seed + 7);
        let mut via_overwrite = fill(m * n, seed + 13); // stale garbage
        sgemm_overwrite(&a, &b, &mut via_overwrite, m, k, n, false, false);
        // Same dispatch rule as the overwrite entry point: tiny products
        // stay scalar.
        let backend = if m * k * n < SIMD_FLOP_THRESHOLD {
            Backend::Scalar
        } else {
            clado_tensor::active_backend()
        };
        let mut via_zeroed = vec![0.0f32; m * n];
        sgemm_with(backend, &a, &b, &mut via_zeroed, m, k, n, false, false);
        for (i, (&x, &y)) in via_overwrite.iter().zip(&via_zeroed).enumerate() {
            prop_assert!(x.to_bits() == y.to_bits(), "idx {i}: {x} vs {y}");
        }
    }

    /// The dispatched convolution (fused, direct, chunked-batch, or scalar
    /// im2col path, depending on backend and geometry) matches a naive
    /// direct convolution within a ULP-scaled tolerance. Shapes sweep
    /// padding, stride 1 and 2, groups, k = 1, output widths 1 and 2, the
    /// fused-path widths (wo ∈ {4, 8, 16}), and dense output channel
    /// counts on both sides of 8 and 16.
    #[test]
    fn conv_forward_matches_naive(
        n in 1usize..3,
        hw_sel in 0usize..6,
        kernel_sel in 0usize..2,
        stride in 1usize..3,
        padding in 0usize..2,
        groups_sel in 0usize..3,
        cg in 1usize..4,
        cout_mult in 1usize..18,
        seed in 0u64..1_000,
    ) {
        let hw = [1usize, 2, 4, 7, 8, 16][hw_sel];
        let kernel = [1usize, 3][kernel_sel];
        if hw + 2 * padding < kernel {
            return Ok(());
        }
        let groups = [1usize, 2, 3][groups_sel];
        let cin = groups * cg;
        let cout = groups * cout_mult;
        let spec = Conv2dSpec::new(cin, cout, kernel, stride, padding).with_groups(groups);
        let input = Tensor::from_vec([n, cin, hw, hw], fill(n * cin * hw * hw, seed)).unwrap();
        let weight =
            Tensor::from_vec(spec.weight_shape(), fill(spec.weight_numel(), seed + 1)).unwrap();
        let bias = Tensor::from_vec([cout], fill(cout, seed + 2)).unwrap();
        let got = conv2d_forward(&input, &weight, Some(&bias), &spec);

        let (ho, wo) = (spec.out_size(hw), spec.out_size(hw));
        let kk = cg * kernel * kernel;
        for s in 0..n {
            for oc in 0..cout {
                let gi = oc / (cout / groups);
                for oy in 0..ho {
                    for ox in 0..wo {
                        let mut acc = 0.0f64;
                        let mut abs = 0.0f32;
                        for c in 0..cg {
                            for ky in 0..kernel {
                                for kx in 0..kernel {
                                    let iy = (oy * stride + ky) as isize - padding as isize;
                                    let ix = (ox * stride + kx) as isize - padding as isize;
                                    if iy < 0 || ix < 0 || iy >= hw as isize || ix >= hw as isize {
                                        continue;
                                    }
                                    let iv = input.data()[((s * cin + gi * cg + c) * hw
                                        + iy as usize)
                                        * hw
                                        + ix as usize];
                                    let wv = weight.data()
                                        [(oc * cg + c) * kernel * kernel + ky * kernel + kx];
                                    acc += iv as f64 * wv as f64;
                                    abs += (iv * wv).abs();
                                }
                            }
                        }
                        acc += bias.data()[oc] as f64;
                        let got_v = got.data()[((s * cout + oc) * ho + oy) * wo + ox];
                        let tol = dot_tolerance(abs + bias.data()[oc].abs(), kk) + 1e-6;
                        prop_assert!(
                            (got_v - acc as f32).abs() <= tol,
                            "{spec:?} s={s} oc={oc} ({oy},{ox}): {got_v} vs {acc} (tol {tol})"
                        );
                    }
                }
            }
        }
    }

    /// `im2col_ld` (fast stride-1 row-staging path and the general
    /// segmented path) reproduces its definition exactly — the unfold is
    /// pure copies, so equality is bitwise.
    #[test]
    fn im2col_matches_definition_bitwise(
        cg in 1usize..4,
        hw_sel in 0usize..3,
        kernel_sel in 0usize..2,
        stride in 1usize..3,
        padding in 0usize..2,
        extra_ld in 0usize..20,
        seed in 0u64..1_000,
    ) {
        let hw = [4usize, 7, 16][hw_sel];
        let kernel = [1usize, 3][kernel_sel];
        if hw + 2 * padding < kernel {
            return Ok(());
        }
        let spec = Conv2dSpec::new(cg, cg, kernel, stride, padding);
        let (ho, wo) = (spec.out_size(hw), spec.out_size(hw));
        let ld = ho * wo + extra_ld;
        let input = fill(cg * hw * hw, seed);
        let mut col = vec![f32::NAN; cg * kernel * kernel * ld];
        im2col_ld(&input, cg, hw, hw, &spec, ho, wo, &mut col, ld);
        let mut row = 0usize;
        for c in 0..cg {
            for ky in 0..kernel {
                for kx in 0..kernel {
                    for oy in 0..ho {
                        for ox in 0..wo {
                            let iy = (oy * stride + ky) as isize - padding as isize;
                            let ix = (ox * stride + kx) as isize - padding as isize;
                            let expect = if iy < 0 || ix < 0 || iy >= hw as isize || ix >= hw as isize
                            {
                                0.0
                            } else {
                                input[(c * hw + iy as usize) * hw + ix as usize]
                            };
                            let got = col[row * ld + oy * wo + ox];
                            prop_assert!(
                                got.to_bits() == expect.to_bits(),
                                "{spec:?} row {row} ({oy},{ox}): {got} vs {expect}"
                            );
                        }
                    }
                    row += 1;
                }
            }
        }
    }
}

/// Every dense (`groups == 1`) conv geometry of the six zoo models at the
/// default 16×16 input: `(model, cin, cout, k, stride, padding, input
/// side)`. The depthwise and grouped convs of mobilenet and regnet never
/// reach the direct path.
const ZOO_DENSE_CONVS: &[(&str, usize, usize, usize, usize, usize, usize)] = &[
    ("resnet20", 3, 4, 3, 1, 1, 16),
    ("resnet20", 4, 4, 3, 1, 1, 16),
    ("resnet20", 4, 8, 3, 2, 1, 16),
    ("resnet20", 4, 8, 1, 2, 0, 16),
    ("resnet20", 8, 8, 3, 1, 1, 8),
    ("resnet20", 8, 12, 3, 2, 1, 8),
    ("resnet20", 8, 12, 1, 2, 0, 8),
    ("resnet20", 12, 12, 3, 1, 1, 4),
    ("resnet34", 3, 6, 3, 1, 1, 16),
    ("resnet34", 6, 6, 3, 1, 1, 16),
    ("resnet34", 6, 8, 3, 2, 1, 16),
    ("resnet34", 6, 8, 1, 2, 0, 16),
    ("resnet34", 8, 8, 3, 1, 1, 8),
    ("resnet34", 8, 12, 3, 2, 1, 8),
    ("resnet34", 8, 12, 1, 2, 0, 8),
    ("resnet34", 12, 12, 3, 1, 1, 4),
    ("resnet34", 12, 16, 3, 2, 1, 4),
    ("resnet34", 12, 16, 1, 2, 0, 4),
    ("resnet34", 16, 16, 3, 1, 1, 2),
    ("resnet50", 3, 6, 3, 1, 1, 16),
    ("resnet50", 6, 6, 1, 1, 0, 16),
    ("resnet50", 6, 6, 3, 1, 1, 16),
    ("resnet50", 6, 12, 1, 1, 0, 16),
    ("resnet50", 12, 8, 1, 1, 0, 16),
    ("resnet50", 8, 8, 3, 2, 1, 16),
    ("resnet50", 12, 16, 1, 2, 0, 16),
    ("resnet50", 16, 8, 1, 1, 0, 8),
    ("resnet50", 8, 8, 3, 1, 1, 8),
    ("resnet50", 8, 16, 1, 1, 0, 8),
    ("resnet50", 16, 12, 1, 1, 0, 8),
    ("resnet50", 12, 12, 3, 2, 1, 8),
    ("resnet50", 16, 24, 1, 2, 0, 8),
    ("resnet50", 24, 12, 1, 1, 0, 4),
    ("resnet50", 12, 24, 1, 1, 0, 4),
    ("resnet50", 24, 16, 1, 1, 0, 4),
    ("resnet50", 16, 16, 3, 2, 1, 4),
    ("resnet50", 24, 32, 1, 2, 0, 4),
    ("resnet50", 16, 32, 1, 1, 0, 2),
    ("mobilenet", 3, 8, 3, 1, 1, 16),
    ("mobilenet", 8, 8, 1, 1, 0, 16),
    ("mobilenet", 8, 24, 1, 1, 0, 16),
    ("mobilenet", 8, 12, 1, 2, 0, 16),
    ("mobilenet", 24, 12, 1, 1, 0, 8),
    ("mobilenet", 12, 36, 1, 1, 0, 8),
    ("mobilenet", 36, 12, 1, 1, 0, 8),
    ("mobilenet", 12, 48, 1, 1, 0, 8),
    ("mobilenet", 12, 16, 1, 2, 0, 8),
    ("mobilenet", 48, 16, 1, 1, 0, 4),
    ("mobilenet", 16, 64, 1, 1, 0, 4),
    ("mobilenet", 16, 24, 1, 2, 0, 4),
    ("mobilenet", 64, 24, 1, 1, 0, 2),
    ("mobilenet", 24, 32, 1, 1, 0, 2),
    ("regnet", 3, 8, 3, 1, 1, 16),
    ("regnet", 8, 8, 1, 1, 0, 16),
    ("regnet", 8, 16, 1, 1, 0, 16),
    ("regnet", 8, 16, 1, 2, 0, 16),
    ("regnet", 16, 16, 1, 1, 0, 8),
    ("regnet", 16, 24, 1, 1, 0, 8),
    ("regnet", 16, 24, 1, 2, 0, 8),
    ("regnet", 24, 24, 1, 1, 0, 4),
    ("vit", 3, 24, 4, 4, 0, 16),
];

/// Geometries at the edges of the direct path's eligibility and layout.
const EDGE_CONVS: &[(&str, usize, usize, usize, usize, usize, usize)] = &[
    // Depth 288 > KC: the blocked GEMM splits it, so cout = 16 must stay
    // on im2col while cout = 8 (skinny GEMM, unsplit) may go direct.
    ("k>256 cout16", 32, 16, 3, 1, 1, 2),
    ("k>256 cout8", 32, 8, 3, 1, 1, 2),
    // Output channels that fill neither 8 nor 16 lanes.
    ("cout 20", 8, 20, 3, 1, 1, 2),
    ("cout 3", 4, 3, 3, 2, 1, 8),
    // Output width 1.
    ("wo 1 stride 2", 16, 16, 3, 2, 1, 2),
    ("wo 1 from 1x1", 8, 8, 1, 1, 0, 1),
    // Stride 4 with padding, and 5×5 kernels.
    ("stride 4", 3, 16, 4, 4, 1, 14),
    ("k 5", 4, 8, 5, 1, 2, 5),
    ("k 5 stride 2", 6, 16, 5, 2, 2, 9),
];

/// The fused kernel's chain for every output element of a
/// `[n, cin, h, w]` input: from +0 over the `(c, ky, kx)` taps of its
/// group in ascending order, padded taps included, each tap either fused
/// (`w·x + acc` rounded once) or multiplied then added; the bias is added
/// last, as `conv2d_forward` does.
fn chain_reference(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: &Conv2dSpec,
    fused: bool,
) -> Vec<f32> {
    let d = input.shape().dims().to_vec();
    let (n, cin, h, w) = (d[0], d[1], d[2], d[3]);
    let (k, pad, cout) = (spec.kernel, spec.padding, spec.out_channels);
    let (cg, cg_out) = (cin / spec.groups, cout / spec.groups);
    let (ho, wo) = (spec.out_size(h), spec.out_size(w));
    let (x, wt) = (input.data(), weight.data());
    let mut out = Vec::with_capacity(n * cout * ho * wo);
    for s in 0..n {
        for oc in 0..cout {
            let c0 = oc / cg_out * cg;
            for oy in 0..ho {
                for ox in 0..wo {
                    let mut acc = 0.0f32;
                    for c in 0..cg {
                        for ky in 0..k {
                            for kx in 0..k {
                                let iy = (oy * spec.stride + ky) as isize - pad as isize;
                                let ix = (ox * spec.stride + kx) as isize - pad as isize;
                                let xv = if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize
                                {
                                    0.0
                                } else {
                                    x[((s * cin + c0 + c) * h + iy as usize) * w + ix as usize]
                                };
                                let wv = wt[((oc * cg + c) * k + ky) * k + kx];
                                acc = if fused {
                                    wv.mul_add(xv, acc)
                                } else {
                                    acc + wv * xv
                                };
                            }
                        }
                    }
                    if let Some(b) = bias {
                        acc += b.data()[oc];
                    }
                    out.push(acc);
                }
            }
        }
    }
    out
}

/// Runs one geometry at batch `n` both ways, requires equal bits (the
/// fused width-4 branch against [`chain_reference`]'s multiply-then-add
/// chain, every other path against im2col), and returns the path the
/// dispatcher took with the im2col output.
fn dispatched_equals_im2col(
    label: &str,
    (cin, cout, k, stride, pad, hw): (usize, usize, usize, usize, usize, usize),
    n: usize,
    input_fill: &dyn Fn(usize) -> Vec<f32>,
    weight_fill: &dyn Fn(usize) -> Vec<f32>,
    bias: bool,
) -> (ConvPath, Tensor) {
    let spec = Conv2dSpec::new(cin, cout, k, stride, pad);
    let input = Tensor::from_vec([n, cin, hw, hw], input_fill(n * cin * hw * hw)).unwrap();
    let weight = Tensor::from_vec(spec.weight_shape(), weight_fill(spec.weight_numel())).unwrap();
    let bias = bias.then(|| Tensor::from_vec([cout], fill(cout, 7)).unwrap());
    let got = conv2d_forward(&input, &weight, bias.as_ref(), &spec);
    let want = conv2d_forward_im2col(&input, &weight, bias.as_ref(), &spec);
    let path = conv2d_path(&spec, n, hw, hw);
    assert_eq!(got.shape(), want.shape());
    // The fused kernel's width-4 branch multiplies and adds instead of
    // fusing them: the one AVX2 conv whose arithmetic is not the GEMM's.
    let (reference, name) = if path == ConvPath::Fused && spec.out_size(hw) == 4 {
        let chain = chain_reference(&input, &weight, bias.as_ref(), &spec, false);
        (chain, "the multiply-then-add chain")
    } else {
        (want.data().to_vec(), "im2col")
    };
    for (i, (g, w)) in got.data().iter().zip(&reference).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{label} {spec:?} batch {n} on {path:?}: element {i} is {g:e}, {name} gives {w:e}"
        );
    }
    (path, want)
}

/// `conv2d_forward` equals the im2col + `sgemm_overwrite` reference bit
/// for bit on every dense zoo geometry and the edge geometries (the fused
/// kernel's width-4 branch equals its multiply-then-add chain), at batch
/// sizes on both sides of the GEMM's scalar threshold. On AVX2 it also
/// pins which geometries take the direct path; elsewhere the dispatcher
/// has no direct path and the test says which fallback it compared.
#[test]
fn dense_conv_forward_equals_im2col_reference_bitwise() {
    let backend = active_backend();
    let mut census = [0usize; 3];
    for (i, &(label, cin, cout, k, stride, pad, hw)) in
        ZOO_DENSE_CONVS.iter().chain(EDGE_CONVS).enumerate()
    {
        let geometry = (cin, cout, k, stride, pad, hw);
        for n in [1, 3, 8, 16, 64] {
            let seed = (i * 100 + n) as u64;
            let (path, _) = dispatched_equals_im2col(
                label,
                geometry,
                n,
                &|len| fill(len, seed),
                &|len| fill(len, seed + 1),
                true,
            );
            census[path as usize] += 1;
        }
    }
    let path = |label: &str, n: usize| {
        let &(_, cin, cout, k, stride, pad, hw) = ZOO_DENSE_CONVS
            .iter()
            .chain(EDGE_CONVS)
            .find(|g| g.0 == label)
            .unwrap();
        conv2d_path(&Conv2dSpec::new(cin, cout, k, stride, pad), n, hw, hw)
    };
    if backend == Backend::Avx2Fma {
        // resnet34-mini's layer4 conv and its downsample at probe batch.
        let layer4 = ZOO_DENSE_CONVS[18];
        let spec = Conv2dSpec::new(layer4.1, layer4.2, layer4.3, layer4.4, layer4.5);
        assert_eq!(conv2d_path(&spec, 64, 2, 2), ConvPath::Direct);
        assert_eq!(path("k>256 cout16", 64), ConvPath::Im2col);
        assert_eq!(path("k>256 cout8", 64), ConvPath::Direct);
        // 1×1 stride-2 12→16 on 4×4: below the GEMM's SIMD threshold at
        // batch 1 and 3 (scalar multiply-then-add), above it at 8.
        let downsample = Conv2dSpec::new(12, 16, 1, 2, 0);
        assert_eq!(conv2d_path(&downsample, 1, 4, 4), ConvPath::Im2col);
        assert_eq!(conv2d_path(&downsample, 3, 4, 4), ConvPath::Im2col);
        assert_eq!(conv2d_path(&downsample, 8, 4, 4), ConvPath::Direct);
        assert_eq!(path("stride 4", 64), ConvPath::Direct);
        assert_eq!(path("k 5", 64), ConvPath::Direct);
    } else {
        assert_eq!(census[ConvPath::Direct as usize], 0);
    }
    let note = if backend == Backend::Avx2Fma {
        ""
    } else {
        "; no direct path on this backend, so every run compared the fallback"
    };
    eprintln!(
        "backend {}: fused {}, direct {}, im2col {} runs equal to the reference{note}",
        backend.name(),
        census[ConvPath::Fused as usize],
        census[ConvPath::Direct as usize],
        census[ConvPath::Im2col as usize]
    );
}

/// Fused-path geometries `(label, cin, cout, k, padding, groups, h, w)`,
/// all stride 1: output channels 1–13 at widths 4, 8 and 16 (every
/// split into channel passes), width-4 maps of 2 and 6 rows, 1×1 and 5×5
/// kernels, and grouped and depthwise width-4 convs.
fn fused_geometries() -> Vec<(String, [usize; 7])> {
    let mut out = Vec::new();
    for side in [4, 8, 16] {
        for cout in 1..=13 {
            out.push((
                format!("{side}x{side} cout {cout}"),
                [3, cout, 3, 1, 1, side, side],
            ));
        }
    }
    for (label, g) in [
        ("6x4 map", [12, 12, 3, 1, 1, 6, 4]),
        ("2x4 map", [5, 7, 3, 1, 1, 2, 4]),
        ("1x1 on 4x4", [12, 7, 1, 0, 1, 4, 4]),
        ("5x5 on 4x4", [4, 6, 5, 2, 1, 4, 4]),
        ("groups 3 on 4x4", [12, 12, 3, 1, 3, 4, 4]),
        ("groups 2 on 6x4", [8, 12, 3, 1, 2, 6, 4]),
        ("depthwise on 4x4", [12, 12, 3, 1, 12, 4, 4]),
        ("depthwise x2 on 4x4", [6, 12, 3, 1, 6, 4, 4]),
    ] {
        out.push((label.to_string(), g));
    }
    out
}

/// Every fused-path output is exactly its chain: fused multiply-adds at
/// widths 8 and 16, multiply-then-add at width 4, at batch 1, 3, 8, 16
/// and 64. On a backend without the fused kernel the test says which
/// path it compared instead.
#[test]
fn fused_conv_equals_its_chain_bitwise() {
    let mut fused = 0;
    for (i, (label, [cin, cout, k, pad, groups, h, w])) in
        fused_geometries().into_iter().enumerate()
    {
        let spec = Conv2dSpec::new(cin, cout, k, 1, pad).with_groups(groups);
        let wo = spec.out_size(w);
        for n in [1, 3, 8, 16, 64] {
            let seed = (i * 100 + n) as u64;
            let input = Tensor::from_vec([n, cin, h, w], fill(n * cin * h * w, seed)).unwrap();
            let weight =
                Tensor::from_vec(spec.weight_shape(), fill(spec.weight_numel(), seed + 1)).unwrap();
            let bias = Tensor::from_vec([cout], fill(cout, seed + 2)).unwrap();
            let got = conv2d_forward(&input, &weight, Some(&bias), &spec);
            let path = conv2d_path(&spec, n, h, w);
            let want = if path == ConvPath::Fused {
                fused += 1;
                chain_reference(&input, &weight, Some(&bias), &spec, wo != 4)
            } else {
                assert_ne!(active_backend(), Backend::Avx2Fma, "{label}: not fused");
                conv2d_forward_im2col(&input, &weight, Some(&bias), &spec)
                    .data()
                    .to_vec()
            };
            for (j, (g, r)) in got.data().iter().zip(&want).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    r.to_bits(),
                    "{label} {spec:?} batch {n} on {path:?}: element {j} is {g:e}, reference {r:e}"
                );
            }
        }
    }
    if fused == 0 {
        eprintln!("no fused kernel on this backend: every run compared the im2col path");
    }
}

/// The direct kernel keeps transposed weights keyed by content id. A
/// weight mutated in place through any `&mut` API, overwritten by
/// `copy_from`, or restored from its snapshot must give the im2col
/// reference's bits on the next call, never a stale pack's.
#[test]
fn direct_conv_repacks_a_weight_mutated_through_any_api() {
    // resnet34-mini's 16→16 layer4 conv at an 8-sample probe batch.
    let spec = Conv2dSpec::new(16, 16, 3, 1, 1);
    let (n, hw) = (8, 2);
    if active_backend() == Backend::Avx2Fma {
        assert_eq!(conv2d_path(&spec, n, hw, hw), ConvPath::Direct);
    } else {
        eprintln!("no direct path on this backend: every run compared the fallback");
    }
    let input = Tensor::from_vec([n, 16, hw, hw], fill(n * 16 * hw * hw, 1)).unwrap();
    let shape = spec.weight_shape();
    let other = Tensor::from_vec(shape, fill(spec.weight_numel(), 2)).unwrap();
    let pristine = Tensor::from_vec(shape, fill(spec.weight_numel(), 3)).unwrap();
    type Mutation<'a> = (&'a str, &'a dyn Fn(&mut Tensor));
    let mutations: [Mutation; 6] = [
        ("data_mut", &|w| w.data_mut()[0] += 0.5),
        ("axpy", &|w| w.axpy(0.25, &other)),
        ("scale", &|w| w.scale(-1.5)),
        ("add_assign", &|w| *w += &other),
        ("copy_from", &|w| w.copy_from(&other)),
        ("restore", &|w| w.copy_from(&pristine)),
    ];
    let mut weight = pristine.clone();
    for (name, mutate) in mutations {
        // Packs the weight as it is, then changes it in place.
        let _ = conv2d_forward(&input, &weight, None, &spec);
        mutate(&mut weight);
        let got = conv2d_forward(&input, &weight, None, &spec);
        let want = conv2d_forward_im2col(&input, &weight, None, &spec);
        for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "after {name}: element {i} is {g:e}, im2col gives {w:e}"
            );
        }
    }
}

/// The sign of a zero sum: products that all underflow to −0 leave the
/// FMA chain at −0. The skinny GEMM (cout < 16) stores that; the blocked
/// GEMM adds it to a zeroed output and lands on +0. The dispatched conv
/// must reproduce both.
#[test]
fn dense_conv_forward_keeps_the_gemm_sign_of_zero() {
    for (label, geometry, want_negative) in [
        ("cout 8", (16, 8, 3, 1, 1, 2), true),
        ("cout 16", (16, 16, 3, 1, 1, 2), false),
    ] {
        let (_, want) = dispatched_equals_im2col(
            label,
            geometry,
            64,
            &|len| vec![1e-30; len],
            &|len| vec![-1e-30; len],
            false,
        );
        let negative = want
            .data()
            .iter()
            .all(|v| v.to_bits() == (-0.0f32).to_bits());
        let positive = want.data().iter().all(|v| v.to_bits() == 0);
        if active_backend() == Backend::Scalar {
            // Scalar multiply-then-add from +0: +0 + −0 = +0.
            assert!(positive, "{label}: scalar reference must read +0");
        } else {
            assert!(
                if want_negative { negative } else { positive },
                "{label}: reference zeros have the wrong sign"
            );
        }
    }
}

/// FNV-1a over the bit patterns, for golden values.
fn fnv(v: &[f32]) -> u64 {
    v.iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        (h ^ u64::from(x.to_bits())).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The special inputs every element kernel is checked on.
const SPECIALS: [f32; 10] = [
    0.0, -0.0, 1e-30, -1e-30, 1.0, -1.0, 10.0, -10.0, 100.0, -100.0,
];

/// GELU (tanh approximation) in f64, as `x / (1 + exp(−2u))`, which does
/// not cancel for negative `x` as `1 + tanh(u)` does.
fn gelu_f64(x: f32) -> f64 {
    let x = f64::from(x);
    let u = f64::from(0.797_884_6f32) * (x + f64::from(0.044_715f32) * x * x * x);
    x / (1.0 + (-2.0 * u).exp())
}

/// Eval GELU on every backend is within a few ULP of the f64 reference
/// (the scalar `tanh` form, within `ε·|x|` where `1 + tanh(u)` cancels),
/// keeps the sign of zero, and propagates NaN.
#[test]
fn eval_gelu_matches_f64_reference_on_every_backend() {
    let sweep = (-1200..=1200).map(|i| i as f32 / 100.0);
    let xs: Vec<f32> = SPECIALS.iter().copied().chain(sweep).collect();
    for backend in backends() {
        let mut y = xs.clone();
        gelu_with(backend, &mut y);
        for (&x, &got) in xs.iter().zip(&y) {
            let want = gelu_f64(x);
            let tol = 4.0 * f64::from(f32::EPSILON) * (want.abs() + f64::from(x.abs()) / 4.0);
            assert!(
                (f64::from(got) - want).abs() <= tol,
                "{backend:?} gelu({x:e}) = {got:e}, want {want:e}"
            );
            if x == 0.0 {
                assert_eq!(got.to_bits(), x.to_bits(), "{backend:?} gelu({x:?})");
            }
        }
        let mut nan = [1.0, f32::NAN, -2.0];
        gelu_with(backend, &mut nan);
        assert!(nan[1].is_nan() && nan[0].is_finite() && nan[2].is_finite());
    }
}

/// Eval softmax on every backend matches the f64 softmax of each row,
/// including rows of the special values, and a NaN poisons only its row.
#[test]
fn eval_softmax_matches_f64_reference_on_every_backend() {
    let mut rows: Vec<Vec<f32>> = vec![SPECIALS.to_vec(), SPECIALS[..7].to_vec()];
    for cols in 1..=17 {
        rows.push(fill(cols, cols as u64).iter().map(|v| v * 12.0).collect());
    }
    for backend in backends() {
        for row in &rows {
            let mut y = row.clone();
            softmax_rows_with(backend, &mut y, row.len());
            let max = row
                .iter()
                .fold(f64::NEG_INFINITY, |m, &v| m.max(f64::from(v)));
            let sum: f64 = row.iter().map(|&v| (f64::from(v) - max).exp()).sum();
            for (&x, &got) in row.iter().zip(&y) {
                let want = (f64::from(x) - max).exp() / sum;
                let tol = f64::from(f32::EPSILON) * (8.0 + row.len() as f64) * want + 1e-37;
                assert!(
                    (f64::from(got) - want).abs() <= tol,
                    "{backend:?} cols {}: softmax at {x:e} = {got:e}, want {want:e}",
                    row.len()
                );
            }
        }
        let mut two = vec![0.5, f32::NAN, 1.0, 2.0, 0.5, 1.0];
        softmax_rows_with(backend, &mut two, 3);
        assert!(two[..3].iter().all(|v| v.is_nan()), "{backend:?}: {two:?}");
        assert!(
            two[3..].iter().all(|v| v.is_finite()),
            "{backend:?}: {two:?}"
        );
    }
}

/// Every eval GELU output is a pure function of its input element, and
/// every softmax row a pure function of its row: lengths 1–17 at every
/// offset give the element-wise (row-wise) results bit for bit, so tails
/// take the same formula as full lanes.
#[test]
fn eval_activations_are_pure_in_length_and_offset() {
    let xs: Vec<f32> = fill(40, 9).iter().map(|v| v * 6.0).collect();
    for backend in backends() {
        let single: Vec<u32> = xs
            .iter()
            .map(|&x| {
                let mut one = [x];
                gelu_with(backend, &mut one);
                one[0].to_bits()
            })
            .collect();
        for len in 1..=17 {
            for off in 0..=xs.len() - len {
                let mut y = xs[off..off + len].to_vec();
                gelu_with(backend, &mut y);
                let bits: Vec<u32> = y.iter().map(|v| v.to_bits()).collect();
                assert_eq!(
                    bits,
                    single[off..off + len],
                    "{backend:?} len {len} off {off}"
                );
            }
            let mut alone = xs[..len].to_vec();
            softmax_rows_with(backend, &mut alone, len);
            for off in 0..=xs.len() - len {
                let mut buf = xs.clone();
                buf[off..off + len].copy_from_slice(&xs[..len]);
                softmax_rows_with(backend, &mut buf[off..off + len], len);
                assert_eq!(
                    fnv(&buf[off..off + len]),
                    fnv(&alone),
                    "{backend:?} softmax len {len} off {off}"
                );
            }
        }
    }
}

/// The scalar backend's eval GELU and softmax are the frozen training
/// formulas: bit patterns captured before the vector kernels existed.
#[test]
fn scalar_eval_activations_keep_their_golden_bits() {
    let mut x: Vec<f32> = fill(1000, 21).iter().map(|v| v * 8.0).collect();
    gelu_with(Backend::Scalar, &mut x);
    assert_eq!(fnv(&x), 0x9ab5_3eb3_e157_5c7c, "gelu");
    let mut s: Vec<f32> = fill(40 * 17, 22).iter().map(|v| v * 10.0).collect();
    softmax_rows_with(Backend::Scalar, &mut s, 17);
    assert_eq!(fnv(&s), 0xb908_4dad_5d81_a7c4, "softmax");
}

/// The batched attention pass equals, bit for bit on every backend, the
/// per-(sample, head) form: gathered head tiles, `sgemm_overwrite`
/// scores, scale, the backend's softmax, `sgemm_overwrite` output. The
/// shapes cover padded lane groups (T, dh not multiples of 8) and a tile
/// above the SIMD threshold.
#[test]
fn batched_attention_matches_per_head_products_bitwise() {
    for (n, t, dim, heads) in [(3, 16, 24, 4), (2, 5, 12, 1), (2, 9, 30, 3), (1, 20, 64, 2)] {
        let dh = dim / heads;
        let (q, k, v) = (
            fill(n * t * dim, 1),
            fill(n * t * dim, 2),
            fill(n * t * dim, 3),
        );
        for backend in backends() {
            let mut out = vec![f32::NAN; n * t * dim];
            let mut maps = vec![f32::NAN; n * heads * t * t];
            attention(backend, &q, &k, &v, &mut out, &mut maps, n, t, heads);
            let mut want_out = vec![0.0f32; n * t * dim];
            let mut want_maps = Vec::new();
            for s in 0..n {
                for h in 0..heads {
                    let head = |x: &[f32]| -> Vec<f32> {
                        (0..t)
                            .flat_map(|r| x[(s * t + r) * dim + h * dh..][..dh].to_vec())
                            .collect()
                    };
                    let (qh, kh, vh) = (head(&q), head(&k), head(&v));
                    let mut map = vec![0.0f32; t * t];
                    sgemm_overwrite(&qh, &kh, &mut map, t, dh, t, false, true);
                    map.iter_mut().for_each(|x| *x *= 1.0 / (dh as f32).sqrt());
                    softmax_rows_with(backend, &mut map, t);
                    let mut oh = vec![0.0f32; t * dh];
                    sgemm_overwrite(&map, &vh, &mut oh, t, t, dh, false, false);
                    for r in 0..t {
                        want_out[(s * t + r) * dim + h * dh..][..dh]
                            .copy_from_slice(&oh[r * dh..(r + 1) * dh]);
                    }
                    want_maps.extend_from_slice(&map);
                }
            }
            let case = format!("{backend:?} [{n}, {t}, {dim}] × {heads}");
            assert_eq!(fnv(&maps), fnv(&want_maps), "{case}: maps");
            assert_eq!(fnv(&out), fnv(&want_out), "{case}: output");
        }
    }
}

/// `symmetric_mse_grid_with` sums at `bits`' signed levels, as bit patterns.
fn grid_bits(backend: Backend, w: &[f32], scales: &[f32], bits: u32) -> Vec<u64> {
    let half = (1i32 << (bits - 1)) as f32;
    let mut out = vec![f64::NAN; scales.len()];
    symmetric_mse_grid_with(backend, w, scales, -half, half - 1.0, &mut out);
    out.iter().map(|v| v.to_bits()).collect()
}

/// A calibration-style grid of 81 scales (clip ratios 0.2–1.0 of
/// `absmax / qmax`) with power-of-two scales, under which `x = (k + ½)·s`
/// is an exact rounding tie, a zero scale (a subnormal `absmax` that
/// underflows `full·ratio`) and a subnormal scale whose inverse overflows.
fn calibration_scales() -> Vec<f32> {
    let full = 1.7f64 / 7.0;
    let mut scales: Vec<f32> = (0..=80)
        .map(|k| (full * (0.2 + 0.8 * (k as f64 / 80.0))) as f32)
        .collect();
    scales[3] = 0.125;
    scales[10] = 0.25;
    scales[37] = (f64::from(f32::from_bits(3)) / 127.0 * 0.5) as f32;
    scales[40] = 1.0;
    scales[64] = f32::from_bits(2);
    assert_eq!(scales[37], 0.0);
    scales
}

/// Weights `x` with `x·(1/s)` exactly `k + ½` for a scale `s` that is not
/// a power of two, chosen so that rounding the tie up or down gives
/// different squared errors (for a power-of-two scale both errors are
/// `(s/2)²`, which hides the rounding rule).
fn exact_ties(s: f32) -> Vec<f32> {
    let inv = 1.0 / s;
    let ties: Vec<f32> = (-6..6)
        .filter_map(|k| {
            let tie = k as f32 + 0.5;
            let x0 = tie * s;
            (-4..=4)
                .map(|ulp: i32| f32::from_bits(x0.to_bits().wrapping_add_signed(ulp)))
                .find(|&x| {
                    let err = |q: f32| ((x - q * s) as f64).powi(2);
                    x * inv == tie && err(tie.floor()) != err(tie.ceil())
                })
        })
        .collect();
    assert!(ties.len() >= 6, "only {} discriminating ties", ties.len());
    ties
}

/// Weights with every special the grid must carry through: ±0,
/// subnormals, exact and near half-steps, values past the clamp, then NaN
/// and ±∞ near the end so that only some windows contain them.
fn calibration_weights() -> Vec<f32> {
    let mut w: Vec<f32> = fill(24, 31).iter().map(|v| v * 1.7).collect();
    for (i, x) in exact_ties(calibration_scales()[20]).into_iter().enumerate() {
        w.insert(3 * i + 1, x);
    }
    let specials = [
        0.0,
        -0.0,
        f32::from_bits(1),
        -f32::from_bits(5),
        1e-40,
        (3.0 + 0.5) * 0.125,
        -(2.0 + 0.5) * 0.125,
        (0.5) * 0.25,
        -(1.0 + 0.5) * 0.25,
        f32::from_bits((0.5f32 * 0.125).to_bits() - 1),
        f32::from_bits((1.5f32 * 0.25).to_bits() + 1),
        (6.0 + 0.5) * 1.0,
        -(7.0 + 0.5) * 1.0,
        40.0,
        -1000.0,
    ];
    for (i, s) in specials.into_iter().enumerate() {
        w.insert(2 * i, s);
    }
    w.extend([
        0.3,
        f32::NAN,
        -0.6,
        f32::INFINITY,
        0.9,
        f32::NEG_INFINITY,
        0.1,
    ]);
    w
}

/// The calibration grid's sums are bitwise the scalar loop's on every
/// backend: lengths 0–33 at every offset, widths 1–8 (whose clamps the
/// specials pass), and a grid of 81 scales, so the last pass holds fewer
/// than 32 candidates.
#[test]
fn calibration_grid_matches_scalar_bitwise_in_length_and_offset() {
    let (w, scales) = (calibration_weights(), calibration_scales());
    for backend in backends() {
        for bits in 1..=8 {
            for len in 0..=33 {
                for off in 0..=w.len() - len {
                    let win = &w[off..off + len];
                    assert_eq!(
                        grid_bits(backend, win, &scales, bits),
                        grid_bits(Backend::Scalar, win, &scales, bits),
                        "{backend:?} {bits} bits, len {len} off {off}"
                    );
                }
            }
        }
    }
}

/// Candidate counts 1–81, including counts that are not multiples of 8
/// or 32, at every window of the grid: each candidate's sum does not
/// depend on which pass or lane it lands in.
#[test]
fn calibration_grid_matches_scalar_bitwise_for_every_candidate_count() {
    let (w, scales) = (calibration_weights(), calibration_scales());
    let finite = &w[..w.len() - 7];
    for backend in backends() {
        for bits in [1, 2, 4, 8] {
            let whole = grid_bits(Backend::Scalar, finite, &scales, bits);
            for count in 1..=scales.len() {
                for start in 0..=scales.len() - count {
                    let cands = &scales[start..start + count];
                    assert_eq!(
                        grid_bits(backend, finite, cands, bits),
                        whole[start..start + count],
                        "{backend:?} {bits} bits, {count} candidates from {start}"
                    );
                }
            }
        }
    }
}

/// NaN propagates where `f32::clamp` propagates it, and ±∞ saturates:
/// a window with NaN sums to NaN with the scalar payload under every
/// nonzero scale, one with ±∞ to +∞; the zero scale sums `x²`.
#[test]
fn calibration_grid_propagates_nan_and_infinity_like_the_scalar_loop() {
    let scales = calibration_scales();
    for backend in backends() {
        for (w, want) in [
            (vec![0.5, f32::NAN, 0.25], f64::NAN),
            (vec![0.5, f32::INFINITY, -0.25], f64::INFINITY),
            (vec![f32::NEG_INFINITY], f64::INFINITY),
        ] {
            let got = grid_bits(backend, &w, &scales, 4);
            assert_eq!(
                got,
                grid_bits(Backend::Scalar, &w, &scales, 4),
                "{backend:?} {w:?}"
            );
            for (&s, &bits) in scales.iter().zip(&got) {
                let sum = f64::from_bits(bits);
                if want.is_nan() || s == 0.0 {
                    assert_eq!(
                        sum.is_nan(),
                        want.is_nan(),
                        "{backend:?} {w:?} at s = {s:e}"
                    );
                } else if s > f32::from_bits(2) {
                    assert_eq!(sum, want, "{backend:?} {w:?} at s = {s:e}");
                }
            }
        }
    }
}

/// The dispatched entry point runs the active backend.
#[test]
fn calibration_grid_dispatches_to_the_active_backend() {
    let (w, scales) = (calibration_weights(), calibration_scales());
    let mut out = vec![0.0f64; scales.len()];
    symmetric_mse_grid(&w[..30], &scales, -8.0, 7.0, &mut out);
    let got: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
    assert_eq!(got, grid_bits(active_backend(), &w[..30], &scales, 4));
}
