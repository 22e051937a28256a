//! Property-based tests for the dispatching kernel layer: every SIMD
//! backend must agree with the frozen scalar reference within a
//! ULP-scaled tolerance on float GEMM and convolution, and `im2col` must
//! match its definition bit for bit.

use clado_tensor::kernel::{sgemm_overwrite, sgemm_with, SIMD_FLOP_THRESHOLD};
use clado_tensor::{conv2d_forward, im2col_ld, Backend, Conv2dSpec, Tensor};
use proptest::prelude::*;

/// Backends available on this host (scalar always included).
fn backends() -> Vec<Backend> {
    let mut v = vec![Backend::Scalar];
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("sse2") {
            v.push(Backend::Sse2);
        }
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

    /// The dispatched convolution (fused, chunked-batch, or scalar im2col
    /// path, depending on backend and geometry) matches a naive direct
    /// convolution within a ULP-scaled tolerance. Shapes sweep padding,
    /// stride, groups, k = 1, and the fused-path widths (wo ∈ {4, 8, 16}).
    #[test]
    fn conv_forward_matches_naive(
        n in 1usize..3,
        hw_sel in 0usize..4,
        kernel_sel in 0usize..2,
        stride in 1usize..3,
        padding in 0usize..2,
        groups_sel in 0usize..3,
        cg in 1usize..4,
        cout_mult in 1usize..6,
        seed in 0u64..1_000,
    ) {
        let hw = [4usize, 7, 8, 16][hw_sel];
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
