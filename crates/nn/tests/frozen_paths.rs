//! Training-mode forwards and the scalar backend are frozen: a ViT encoder
//! block gives, on every backend available here, the bits it gave before
//! evaluation mode got vector GELU, softmax and the batched attention
//! kernel. Training-mode outputs and input gradients must match the old
//! bits on each backend (weights trained on it stay unchanged), and the
//! scalar backend's evaluation forward must match them too.
//!
//! `force_backend` is process-wide, so this must stay the only test in its
//! binary.

use clado_nn::{Layer, TransformerBlock};
use clado_tensor::{force_backend, init, Backend};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over the bit patterns.
fn fnv(v: &[f32]) -> u64 {
    v.iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        (h ^ u64::from(x.to_bits())).wrapping_mul(0x0100_0000_01b3)
    })
}

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

/// `(training output, input gradient)` golden hashes per backend, for a
/// vit-mini-shaped block (tiles below the SIMD threshold) and a wider one
/// (tiles above it).
fn golden(backend: Backend, case: usize) -> (u64, u64) {
    const SCALAR: [(u64, u64); 2] = [
        (0x173c_9217_84c2_a741, 0xdd70_a666_4b8a_1191),
        (0x3407_2e26_2fa0_d076, 0x3901_5786_ad93_33ff),
    ];
    const AVX2_FMA: [(u64, u64); 2] = [
        (0xa7bd_94d8_7af3_f89b, 0xcb05_b3fc_6d22_bd15),
        (0x5ecb_e179_1fe3_7e9d, 0xdcdb_6fea_4d0f_fc1b),
    ];
    match backend {
        Backend::Scalar => SCALAR[case],
        Backend::Avx2Fma => AVX2_FMA[case],
    }
}

#[test]
fn training_and_scalar_forwards_keep_their_bits() {
    let cases = [(4, 16, 24, 4, 48), (2, 20, 64, 2, 32)];
    for backend in backends() {
        force_backend(Some(backend));
        for (case, &(n, t, dim, heads, mlp)) in cases.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(17);
            let mut block = TransformerBlock::new(dim, heads, mlp, &mut rng);
            let x = init::normal([n, t, dim], 0.0, 1.0, &mut rng);
            let seed = init::normal([n, t, dim], 0.0, 1.0, &mut rng);
            let y = block.forward(x.clone(), true);
            let dx = block.backward(seed);
            let (train, grad) = golden(backend, case);
            let name = format!("{backend:?} [{n}, {t}, {dim}] × {heads}");
            assert_eq!(fnv(y.data()), train, "{name}: training forward");
            assert_eq!(fnv(dx.data()), grad, "{name}: input gradient");
            if backend == Backend::Scalar {
                let e = block.forward(x, false);
                assert_eq!(fnv(e.data()), train, "{name}: scalar eval forward");
            }
        }
    }
    force_backend(None);
}
