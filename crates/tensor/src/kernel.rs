//! The dispatching compute-kernel layer behind every GEMM in the crate.
//!
//! One entry point — `sgemm` — backs [`crate::matmul`], the transposed
//! variants, and the im2col convolution products. At process start the
//! layer picks a backend once:
//!
//! * **AVX2+FMA** — cache-blocked (MC/KC/NC) GEMM with an 8×8
//!   register-tiled microkernel over 256-bit lanes.
//! * **SSE2** — the same blocking with the microkernel split into two
//!   128-bit half-lanes (x86-64 baseline, always present).
//! * **Scalar** — the original `ikj`-ordered loops. This path is the
//!   *bitwise reference*: its floating-point operation order is frozen, so
//!   results under `CLADO_FORCE_SCALAR=1` are bit-for-bit identical to the
//!   pre-kernel-layer implementation (and to any older journal/matrix
//!   artifacts produced by it).
//!
//! # Determinism contract
//!
//! Backend selection happens once per process ([`active_backend`]), so a
//! run never mixes accumulation orders. The SIMD paths reassociate the
//! k-loop (8 partial sums per output element) and therefore differ from
//! the scalar path by normal floating-point reassociation error — bounded
//! in practice by a few ULP per accumulated term (the property suite
//! asserts a ULP-scaled tolerance across shapes). Quantization kernels in
//! `clado-quant` stay scalar on purpose, so Δw probes and fake-quant
//! semantics are backend-independent.
//!
//! Tiny products (`m·k·n` below [`SIMD_FLOP_THRESHOLD`]) stay on the
//! scalar path even when SIMD is available: packing two operand panels
//! costs more than the multiply saves.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Row-block size: panel of `op(A)` rows kept hot in L2 while it streams
/// over the packed B panel.
const MC: usize = 64;
/// Depth-block size: the shared dimension is consumed KC at a time so one
/// packed A panel (MC×KC) fits comfortably in L2.
const KC: usize = 256;
/// Column-block size: packed B panel (KC×NC) sized for L3/L2 residency.
const NC: usize = 1024;
/// Microkernel register tile: 8 rows × 8 columns of C.
const MR: usize = 8;
/// Microkernel register tile width (one 256-bit lane of f32).
const NR: usize = 8;
/// Below this many multiply-adds the packed SIMD path loses to the plain
/// scalar loops; measured crossover on the bench host is ~2–4k.
#[doc(hidden)]
pub const SIMD_FLOP_THRESHOLD: usize = 4096;
/// Products with fewer `op(A)` rows than this skip panel packing entirely
/// and stream B through the broadcast skinny-M kernel: with so few rows
/// the packed B panel is used once or twice, so packing costs more than
/// the multiply (im2col convolutions sit squarely in this regime).
#[cfg(target_arch = "x86_64")]
const SKINNY_M_MAX: usize = 16;

/// A compute backend for the f32 GEMM kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Reference `ikj` loops; bitwise-frozen operation order.
    Scalar,
    /// 128-bit SSE2 microkernel (x86-64 baseline).
    Sse2,
    /// 256-bit AVX2 microkernel with fused multiply-add.
    Avx2Fma,
}

impl Backend {
    /// Stable kernel identifier recorded in telemetry manifests.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Sse2 => "sse2-8x8",
            Backend::Avx2Fma => "avx2-fma-8x8",
        }
    }
}

static BACKEND: OnceLock<Backend> = OnceLock::new();

/// Process-wide backend override: 0 = none, otherwise `discriminant + 1`.
/// Tests pin the scalar path through this to compare it with the SIMD
/// path in one process.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

fn detect_backend() -> Backend {
    if std::env::var("CLADO_FORCE_SCALAR").is_ok_and(|v| v == "1") {
        return Backend::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return Backend::Avx2Fma;
        }
        // SSE2 is part of the x86-64 baseline; detection cannot fail, but
        // keep the check so the dispatch logic reads uniformly.
        if std::arch::is_x86_feature_detected!("sse2") {
            return Backend::Sse2;
        }
    }
    Backend::Scalar
}

/// The backend every dispatched GEMM in this process uses, selected once
/// on first use. `CLADO_FORCE_SCALAR=1` (read at selection time) pins the
/// scalar reference path. A live [`force_backend`] override takes
/// precedence over the cached selection.
pub fn active_backend() -> Backend {
    match OVERRIDE.load(Ordering::Relaxed) {
        1 => Backend::Scalar,
        2 => Backend::Sse2,
        3 => Backend::Avx2Fma,
        _ => *BACKEND.get_or_init(detect_backend),
    }
}

/// Overrides the dispatched backend process-wide until called again with
/// `None`, so one process can run both the SIMD and the scalar float
/// paths (`crates/core/tests/backend_identity.rs` solves the same plan
/// on each). The override is global: a test that sets it must be the only
/// test in its binary. Callers must not request a backend the host lacks.
#[doc(hidden)]
pub fn force_backend(backend: Option<Backend>) {
    let code = match backend {
        None => 0,
        Some(Backend::Scalar) => 1,
        Some(Backend::Sse2) => 2,
        Some(Backend::Avx2Fma) => 3,
    };
    OVERRIDE.store(code, Ordering::Relaxed);
}

/// The active kernel's stable name (for run manifests and bench configs).
pub fn kernel_name() -> &'static str {
    active_backend().name()
}

/// Comma-separated list of the SIMD features detected on this CPU that
/// the kernel layer cares about (independent of which backend was
/// actually selected, so a forced-scalar run still records the host).
pub fn cpu_features() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut feats = Vec::new();
        for (name, present) in [
            ("sse2", std::arch::is_x86_feature_detected!("sse2")),
            ("sse4.2", std::arch::is_x86_feature_detected!("sse4.2")),
            ("avx", std::arch::is_x86_feature_detected!("avx")),
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("fma", std::arch::is_x86_feature_detected!("fma")),
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
        ] {
            if present {
                feats.push(name);
            }
        }
        feats.join(",")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        String::from("none")
    }
}

/// `C += op(A) · op(B)` on raw row-major slices, dispatched to the active
/// backend. `op(A)` is `m×k` (`a` stored `k×m` when `ta`), `op(B)` is
/// `k×n` (`b` stored `n×k` when `tb`), `c` is `m×n`.
///
/// # Panics
///
/// Debug-asserts the slice lengths; callers validate shapes.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sgemm(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    ta: bool,
    tb: bool,
) {
    let backend = if m * k * n < SIMD_FLOP_THRESHOLD {
        Backend::Scalar
    } else {
        active_backend()
    };
    sgemm_with(backend, a, b, c, m, k, n, ta, tb);
}

/// `C = op(A) · op(B)` (overwrite, no accumulation): zeroes `c` and runs
/// [`sgemm`]. The skinny-M SIMD path skips the zero pass and writes its
/// accumulators directly — bit-identical to zero-then-accumulate, one
/// less sweep over `c`. Public (hidden) so the property suite can pin
/// that equivalence.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn sgemm_overwrite(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    ta: bool,
    tb: bool,
) {
    assert_eq!(a.len(), m * k, "lhs length");
    assert_eq!(b.len(), k * n, "rhs length");
    assert_eq!(c.len(), m * n, "output length");
    if m == 0 || n == 0 || k == 0 {
        c.fill(0.0);
        return;
    }
    let backend = if m * k * n < SIMD_FLOP_THRESHOLD {
        Backend::Scalar
    } else {
        active_backend()
    };
    #[cfg(target_arch = "x86_64")]
    if matches!(backend, Backend::Sse2 | Backend::Avx2Fma) && !ta && !tb && m < SKINNY_M_MAX {
        x86::sgemm_skinny_overwrite(a, b, c, m, k, n, backend);
        return;
    }
    c.fill(0.0);
    sgemm_with(backend, a, b, c, m, k, n, ta, tb);
}

/// [`sgemm`] with an explicit backend — the property suite uses this to
/// compare SIMD output against the scalar reference on the same inputs.
///
/// # Panics
///
/// Panics if slice lengths disagree with the dimensions.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn sgemm_with(
    backend: Backend,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    ta: bool,
    tb: bool,
) {
    assert_eq!(a.len(), m * k, "lhs length");
    assert_eq!(b.len(), k * n, "rhs length");
    assert_eq!(c.len(), m * n, "output length");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    match backend {
        Backend::Scalar => sgemm_scalar(a, b, c, m, k, n, ta, tb),
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 | Backend::Avx2Fma => {
            // Skinny-M products (im2col convolutions have M = output
            // channels, often < 8) can't amortize panel packing: stream B
            // directly instead of going through the blocked path.
            if !ta && !tb && m < SKINNY_M_MAX {
                x86::sgemm_skinny(a, b, c, m, k, n, backend);
            } else {
                sgemm_blocked(a, b, c, m, k, n, ta, tb, backend);
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        _ => sgemm_scalar(a, b, c, m, k, n, ta, tb),
    }
}

/// The frozen scalar reference: identical operation order to the original
/// un-dispatched GEMM (sans the sparsity branches, which only skipped
/// exact-zero multiplicands).
#[allow(clippy::too_many_arguments)]
fn sgemm_scalar(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    ta: bool,
    tb: bool,
) {
    match (ta, tb) {
        (false, false) => {
            // ikj order: streams through rows of B, accumulating into rows of C.
            for i in 0..m {
                let a_row = &a[i * k..(i + 1) * k];
                let c_row = &mut c[i * n..(i + 1) * n];
                for (p, &aip) in a_row.iter().enumerate() {
                    let b_row = &b[p * n..(p + 1) * n];
                    for (cij, &bpj) in c_row.iter_mut().zip(b_row) {
                        *cij += aip * bpj;
                    }
                }
            }
        }
        (true, false) => {
            // a is k×m: c[i][j] += a[p][i] * b[p][j]
            for p in 0..k {
                let a_row = &a[p * m..(p + 1) * m];
                let b_row = &b[p * n..(p + 1) * n];
                for (i, &api) in a_row.iter().enumerate() {
                    let c_row = &mut c[i * n..(i + 1) * n];
                    for (cij, &bpj) in c_row.iter_mut().zip(b_row) {
                        *cij += api * bpj;
                    }
                }
            }
        }
        (false, true) => {
            // b is n×k: c[i][j] = dot(a_row_i, b_row_j)
            for i in 0..m {
                let a_row = &a[i * k..(i + 1) * k];
                let c_row = &mut c[i * n..(i + 1) * n];
                for (j, cij) in c_row.iter_mut().enumerate() {
                    let b_row = &b[j * k..(j + 1) * k];
                    let mut acc = 0.0f32;
                    for (&x, &y) in a_row.iter().zip(b_row) {
                        acc += x * y;
                    }
                    *cij += acc;
                }
            }
        }
        (true, true) => {
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for p in 0..k {
                        acc += a[p * m + i] * b[j * k + p];
                    }
                    c[i * n + j] += acc;
                }
            }
        }
    }
}

/// Reads `op(A)[i][p]` regardless of storage order.
#[inline(always)]
fn at_a(a: &[f32], i: usize, p: usize, m: usize, k: usize, ta: bool) -> f32 {
    if ta {
        a[p * m + i]
    } else {
        a[i * k + p]
    }
}

/// Reads `op(B)[p][j]` regardless of storage order.
#[inline(always)]
fn at_b(b: &[f32], p: usize, j: usize, k: usize, n: usize, tb: bool) -> f32 {
    if tb {
        b[j * k + p]
    } else {
        b[p * n + j]
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{at_a, at_b, Backend, KC, MC, MR, NC, NR};
    use std::arch::x86_64::*;
    use std::cell::RefCell;

    thread_local! {
        /// Packing scratch reused across calls; sized once for the block
        /// parameters so the hot loop never allocates.
        static PACK: RefCell<(Vec<f32>, Vec<f32>)> =
            RefCell::new((vec![0.0; MC * KC], vec![0.0; KC * NC]));
    }

    /// Packs an `mc×kc` block of `op(A)` into MR-row panels, padded with
    /// zeros to a multiple of MR rows: panel-major, then `p`, then `r`.
    #[allow(clippy::too_many_arguments)]
    fn pack_a(
        a: &[f32],
        pack: &mut [f32],
        i0: usize,
        p0: usize,
        mc: usize,
        kc: usize,
        m: usize,
        k: usize,
        ta: bool,
    ) {
        let mut dst = 0;
        let mut i = 0;
        while i < mc {
            let rows = MR.min(mc - i);
            for p in 0..kc {
                for r in 0..MR {
                    pack[dst] = if r < rows {
                        at_a(a, i0 + i + r, p0 + p, m, k, ta)
                    } else {
                        0.0
                    };
                    dst += 1;
                }
            }
            i += MR;
        }
    }

    /// Packs a `kc×nc` block of `op(B)` into NR-column panels, padded with
    /// zeros to a multiple of NR columns: panel-major, then `p`, then `c`.
    #[allow(clippy::too_many_arguments)]
    fn pack_b(
        b: &[f32],
        pack: &mut [f32],
        p0: usize,
        j0: usize,
        kc: usize,
        nc: usize,
        k: usize,
        n: usize,
        tb: bool,
    ) {
        let mut dst = 0;
        let mut j = 0;
        while j < nc {
            let cols = NR.min(nc - j);
            for p in 0..kc {
                for c in 0..NR {
                    pack[dst] = if c < cols {
                        at_b(b, p0 + p, j0 + j + c, k, n, tb)
                    } else {
                        0.0
                    };
                    dst += 1;
                }
            }
            j += NR;
        }
    }

    /// 8×8 AVX2+FMA microkernel: `C[8×8] += Apanel · Bpanel` over `kc`
    /// terms. `a` is MR-interleaved, `b` is NR-interleaved; `c` points at
    /// an 8×8 tile with row stride `ldc`.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA; `c` must be valid for 8 rows of 8 f32 at `ldc`.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn mk8x8_avx2(a: *const f32, b: *const f32, c: *mut f32, ldc: usize, kc: usize) {
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut acc2 = _mm256_setzero_ps();
        let mut acc3 = _mm256_setzero_ps();
        let mut acc4 = _mm256_setzero_ps();
        let mut acc5 = _mm256_setzero_ps();
        let mut acc6 = _mm256_setzero_ps();
        let mut acc7 = _mm256_setzero_ps();
        for p in 0..kc {
            let bv = _mm256_loadu_ps(b.add(p * NR));
            let ap = a.add(p * MR);
            acc0 = _mm256_fmadd_ps(_mm256_broadcast_ss(&*ap), bv, acc0);
            acc1 = _mm256_fmadd_ps(_mm256_broadcast_ss(&*ap.add(1)), bv, acc1);
            acc2 = _mm256_fmadd_ps(_mm256_broadcast_ss(&*ap.add(2)), bv, acc2);
            acc3 = _mm256_fmadd_ps(_mm256_broadcast_ss(&*ap.add(3)), bv, acc3);
            acc4 = _mm256_fmadd_ps(_mm256_broadcast_ss(&*ap.add(4)), bv, acc4);
            acc5 = _mm256_fmadd_ps(_mm256_broadcast_ss(&*ap.add(5)), bv, acc5);
            acc6 = _mm256_fmadd_ps(_mm256_broadcast_ss(&*ap.add(6)), bv, acc6);
            acc7 = _mm256_fmadd_ps(_mm256_broadcast_ss(&*ap.add(7)), bv, acc7);
        }
        for (r, acc) in [acc0, acc1, acc2, acc3, acc4, acc5, acc6, acc7]
            .into_iter()
            .enumerate()
        {
            let crow = c.add(r * ldc);
            _mm256_storeu_ps(crow, _mm256_add_ps(_mm256_loadu_ps(crow), acc));
        }
    }

    /// 8×8 SSE2 microkernel: same tile as the AVX2 kernel with each row
    /// held as two 128-bit half-lanes (multiply + add, no FMA).
    ///
    /// # Safety
    ///
    /// Requires SSE2; `c` must be valid for 8 rows of 8 f32 at `ldc`.
    #[target_feature(enable = "sse2")]
    unsafe fn mk8x8_sse2(a: *const f32, b: *const f32, c: *mut f32, ldc: usize, kc: usize) {
        let mut lo = [_mm_setzero_ps(); MR];
        let mut hi = [_mm_setzero_ps(); MR];
        for p in 0..kc {
            let bl = _mm_loadu_ps(b.add(p * NR));
            let bh = _mm_loadu_ps(b.add(p * NR + 4));
            let ap = a.add(p * MR);
            for r in 0..MR {
                let av = _mm_set1_ps(*ap.add(r));
                lo[r] = _mm_add_ps(lo[r], _mm_mul_ps(av, bl));
                hi[r] = _mm_add_ps(hi[r], _mm_mul_ps(av, bh));
            }
        }
        for r in 0..MR {
            let crow = c.add(r * ldc);
            _mm_storeu_ps(crow, _mm_add_ps(_mm_loadu_ps(crow), lo[r]));
            _mm_storeu_ps(crow.add(4), _mm_add_ps(_mm_loadu_ps(crow.add(4)), hi[r]));
        }
    }

    /// Skinny-M GEMM (`ta = tb = false`): `C[m×n] += A[m×k] · B[k×n]`
    /// without packing. Works in 32-column strips: the strip of B
    /// (`k × 32` floats) stays L1-resident while each of the few A rows
    /// broadcasts through it. Per output element the k-loop accumulates
    /// in ascending order, like every other backend.
    pub(super) fn sgemm_skinny(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
        backend: Backend,
    ) {
        sgemm_skinny_impl(a, b, c, m, k, n, backend, true);
    }

    /// Skinny-M GEMM in overwrite mode: `C = A · B`. The accumulators
    /// start at zero instead of loading `C`, which is bit-identical to
    /// zeroing `C` first and accumulating, minus one sweep over `C`.
    pub(super) fn sgemm_skinny_overwrite(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
        backend: Backend,
    ) {
        sgemm_skinny_impl(a, b, c, m, k, n, backend, false);
    }

    #[allow(clippy::too_many_arguments)]
    fn sgemm_skinny_impl(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
        backend: Backend,
        accumulate: bool,
    ) {
        let mut j = 0;
        // SAFETY: strip bounds are checked before each call; the target
        // features are implied by the selected backend.
        unsafe {
            match backend {
                Backend::Avx2Fma => {
                    while j + 32 <= n {
                        // Row pairs share the B loads and double the
                        // independent FMA chains (8 per pair) — with very
                        // few rows a single row's 4 chains can't hide the
                        // FMA latency.
                        let mut i = 0;
                        while i + 2 <= m {
                            skinny_strip32x2_avx2(a, b, c, i, k, n, j, accumulate);
                            i += 2;
                        }
                        if i < m {
                            skinny_strip32_avx2(a, b, c, i, i + 1, k, n, j, accumulate);
                        }
                        j += 32;
                    }
                    while j + 8 <= n {
                        skinny_strip8_avx2(a, b, c, 0, m, k, n, j, accumulate);
                        j += 8;
                    }
                }
                _ => {
                    while j + 16 <= n {
                        skinny_strip16_sse2(a, b, c, m, k, n, j, accumulate);
                        j += 16;
                    }
                    while j + 4 <= n {
                        skinny_strip4_sse2(a, b, c, m, k, n, j, accumulate);
                        j += 4;
                    }
                }
            }
        }
        // Scalar tail for the last few columns.
        for jj in j..n {
            for i in 0..m {
                let mut acc = if accumulate { c[i * n + jj] } else { 0.0 };
                for p in 0..k {
                    acc = a[i * k + p].mul_add(b[p * n + jj], acc);
                }
                c[i * n + jj] = acc;
            }
        }
    }

    /// One 32-column strip of the skinny kernel (4 × 256-bit lanes),
    /// rows `i0..i1`.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA, `j + 32 <= n`, and `i1 <= m`.
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn skinny_strip32_avx2(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        i0: usize,
        i1: usize,
        k: usize,
        n: usize,
        j: usize,
        accumulate: bool,
    ) {
        for i in i0..i1 {
            let crow = c.as_mut_ptr().add(i * n + j);
            let z = _mm256_setzero_ps();
            let mut acc0 = if accumulate { _mm256_loadu_ps(crow) } else { z };
            let mut acc1 = if accumulate {
                _mm256_loadu_ps(crow.add(8))
            } else {
                z
            };
            let mut acc2 = if accumulate {
                _mm256_loadu_ps(crow.add(16))
            } else {
                z
            };
            let mut acc3 = if accumulate {
                _mm256_loadu_ps(crow.add(24))
            } else {
                z
            };
            for p in 0..k {
                let av = _mm256_broadcast_ss(a.get_unchecked(i * k + p));
                let bp = b.as_ptr().add(p * n + j);
                acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp), acc0);
                acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp.add(8)), acc1);
                acc2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp.add(16)), acc2);
                acc3 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp.add(24)), acc3);
            }
            _mm256_storeu_ps(crow, acc0);
            _mm256_storeu_ps(crow.add(8), acc1);
            _mm256_storeu_ps(crow.add(16), acc2);
            _mm256_storeu_ps(crow.add(24), acc3);
        }
    }

    /// Two-row 32-column strip: rows `i` and `i + 1` share every B load
    /// and together keep 8 independent FMA chains in flight.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA, `j + 32 <= n`, and `i + 2 <= m`.
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn skinny_strip32x2_avx2(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        i: usize,
        k: usize,
        n: usize,
        j: usize,
        accumulate: bool,
    ) {
        let crow0 = c.as_mut_ptr().add(i * n + j);
        let crow1 = c.as_mut_ptr().add((i + 1) * n + j);
        let z = _mm256_setzero_ps();
        let mut r0a = if accumulate {
            _mm256_loadu_ps(crow0)
        } else {
            z
        };
        let mut r0b = if accumulate {
            _mm256_loadu_ps(crow0.add(8))
        } else {
            z
        };
        let mut r0c = if accumulate {
            _mm256_loadu_ps(crow0.add(16))
        } else {
            z
        };
        let mut r0d = if accumulate {
            _mm256_loadu_ps(crow0.add(24))
        } else {
            z
        };
        let mut r1a = if accumulate {
            _mm256_loadu_ps(crow1)
        } else {
            z
        };
        let mut r1b = if accumulate {
            _mm256_loadu_ps(crow1.add(8))
        } else {
            z
        };
        let mut r1c = if accumulate {
            _mm256_loadu_ps(crow1.add(16))
        } else {
            z
        };
        let mut r1d = if accumulate {
            _mm256_loadu_ps(crow1.add(24))
        } else {
            z
        };
        for p in 0..k {
            let a0 = _mm256_broadcast_ss(a.get_unchecked(i * k + p));
            let a1 = _mm256_broadcast_ss(a.get_unchecked((i + 1) * k + p));
            let bp = b.as_ptr().add(p * n + j);
            let b0 = _mm256_loadu_ps(bp);
            let b1 = _mm256_loadu_ps(bp.add(8));
            let b2 = _mm256_loadu_ps(bp.add(16));
            let b3 = _mm256_loadu_ps(bp.add(24));
            r0a = _mm256_fmadd_ps(a0, b0, r0a);
            r0b = _mm256_fmadd_ps(a0, b1, r0b);
            r0c = _mm256_fmadd_ps(a0, b2, r0c);
            r0d = _mm256_fmadd_ps(a0, b3, r0d);
            r1a = _mm256_fmadd_ps(a1, b0, r1a);
            r1b = _mm256_fmadd_ps(a1, b1, r1b);
            r1c = _mm256_fmadd_ps(a1, b2, r1c);
            r1d = _mm256_fmadd_ps(a1, b3, r1d);
        }
        _mm256_storeu_ps(crow0, r0a);
        _mm256_storeu_ps(crow0.add(8), r0b);
        _mm256_storeu_ps(crow0.add(16), r0c);
        _mm256_storeu_ps(crow0.add(24), r0d);
        _mm256_storeu_ps(crow1, r1a);
        _mm256_storeu_ps(crow1.add(8), r1b);
        _mm256_storeu_ps(crow1.add(16), r1c);
        _mm256_storeu_ps(crow1.add(24), r1d);
    }

    /// One 8-column strip of the skinny kernel, rows `i0..i1`.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA, `j + 8 <= n`, and `i1 <= m`.
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn skinny_strip8_avx2(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        i0: usize,
        i1: usize,
        k: usize,
        n: usize,
        j: usize,
        accumulate: bool,
    ) {
        for i in i0..i1 {
            let crow = c.as_mut_ptr().add(i * n + j);
            let mut acc = if accumulate {
                _mm256_loadu_ps(crow)
            } else {
                _mm256_setzero_ps()
            };
            for p in 0..k {
                let av = _mm256_broadcast_ss(a.get_unchecked(i * k + p));
                acc = _mm256_fmadd_ps(av, _mm256_loadu_ps(b.as_ptr().add(p * n + j)), acc);
            }
            _mm256_storeu_ps(crow, acc);
        }
    }

    /// One 16-column strip of the skinny kernel (4 × 128-bit lanes).
    ///
    /// # Safety
    ///
    /// Requires SSE2 and `j + 16 <= n`.
    #[target_feature(enable = "sse2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn skinny_strip16_sse2(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
        j: usize,
        accumulate: bool,
    ) {
        for i in 0..m {
            let crow = c.as_mut_ptr().add(i * n + j);
            let z = _mm_setzero_ps();
            let mut acc0 = if accumulate { _mm_loadu_ps(crow) } else { z };
            let mut acc1 = if accumulate {
                _mm_loadu_ps(crow.add(4))
            } else {
                z
            };
            let mut acc2 = if accumulate {
                _mm_loadu_ps(crow.add(8))
            } else {
                z
            };
            let mut acc3 = if accumulate {
                _mm_loadu_ps(crow.add(12))
            } else {
                z
            };
            for p in 0..k {
                let av = _mm_set1_ps(*a.get_unchecked(i * k + p));
                let bp = b.as_ptr().add(p * n + j);
                acc0 = _mm_add_ps(acc0, _mm_mul_ps(av, _mm_loadu_ps(bp)));
                acc1 = _mm_add_ps(acc1, _mm_mul_ps(av, _mm_loadu_ps(bp.add(4))));
                acc2 = _mm_add_ps(acc2, _mm_mul_ps(av, _mm_loadu_ps(bp.add(8))));
                acc3 = _mm_add_ps(acc3, _mm_mul_ps(av, _mm_loadu_ps(bp.add(12))));
            }
            _mm_storeu_ps(crow, acc0);
            _mm_storeu_ps(crow.add(4), acc1);
            _mm_storeu_ps(crow.add(8), acc2);
            _mm_storeu_ps(crow.add(12), acc3);
        }
    }

    /// One 4-column strip of the skinny kernel.
    ///
    /// # Safety
    ///
    /// Requires SSE2 and `j + 4 <= n`.
    #[target_feature(enable = "sse2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn skinny_strip4_sse2(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
        j: usize,
        accumulate: bool,
    ) {
        for i in 0..m {
            let crow = c.as_mut_ptr().add(i * n + j);
            let mut acc = if accumulate {
                _mm_loadu_ps(crow)
            } else {
                _mm_setzero_ps()
            };
            for p in 0..k {
                let av = _mm_set1_ps(*a.get_unchecked(i * k + p));
                acc = _mm_add_ps(acc, _mm_mul_ps(av, _mm_loadu_ps(b.as_ptr().add(p * n + j))));
            }
            _mm_storeu_ps(crow, acc);
        }
    }

    /// Cache-blocked GEMM driver shared by the SSE2 and AVX2 backends:
    /// GotoBLAS-style jc/pc/ic loops over packed panels, full 8×8
    /// microkernel tiles, edge tiles routed through a zero-padded scratch.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn sgemm_blocked(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
        ta: bool,
        tb: bool,
        backend: Backend,
    ) {
        PACK.with(|pack| {
            let mut pack = pack.borrow_mut();
            let (pack_a_buf, pack_b_buf) = &mut *pack;
            let mut jc = 0;
            while jc < n {
                let nc = NC.min(n - jc);
                let nc_panels = nc.div_ceil(NR);
                let mut pc = 0;
                while pc < k {
                    let kc = KC.min(k - pc);
                    pack_b(b, pack_b_buf, pc, jc, kc, nc, k, n, tb);
                    let mut ic = 0;
                    while ic < m {
                        let mc = MC.min(m - ic);
                        let mc_panels = mc.div_ceil(MR);
                        pack_a(a, pack_a_buf, ic, pc, mc, kc, m, k, ta);
                        for ip in 0..mc_panels {
                            let rows = MR.min(mc - ip * MR);
                            let ap = &pack_a_buf[ip * kc * MR..];
                            for jp in 0..nc_panels {
                                let cols = NR.min(nc - jp * NR);
                                let bp = &pack_b_buf[jp * kc * NR..];
                                let row0 = ic + ip * MR;
                                let col0 = jc + jp * NR;
                                unsafe {
                                    if rows == MR && cols == NR {
                                        let cp = c.as_mut_ptr().add(row0 * n + col0);
                                        match backend {
                                            Backend::Avx2Fma => {
                                                mk8x8_avx2(ap.as_ptr(), bp.as_ptr(), cp, n, kc)
                                            }
                                            _ => mk8x8_sse2(ap.as_ptr(), bp.as_ptr(), cp, n, kc),
                                        }
                                    } else {
                                        let mut tile = [0.0f32; MR * NR];
                                        match backend {
                                            Backend::Avx2Fma => mk8x8_avx2(
                                                ap.as_ptr(),
                                                bp.as_ptr(),
                                                tile.as_mut_ptr(),
                                                NR,
                                                kc,
                                            ),
                                            _ => mk8x8_sse2(
                                                ap.as_ptr(),
                                                bp.as_ptr(),
                                                tile.as_mut_ptr(),
                                                NR,
                                                kc,
                                            ),
                                        }
                                        for r in 0..rows {
                                            let crow = &mut c[(row0 + r) * n + col0
                                                ..(row0 + r) * n + col0 + cols];
                                            for (cv, tv) in
                                                crow.iter_mut().zip(&tile[r * NR..r * NR + cols])
                                            {
                                                *cv += tv;
                                            }
                                        }
                                    }
                                }
                            }
                        }
                        ic += mc;
                    }
                    pc += kc;
                }
                jc += nc;
            }
        });
    }
}

#[cfg(target_arch = "x86_64")]
use x86::sgemm_blocked;

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0f64; m * n];
        for i in 0..m {
            for p in 0..k {
                for j in 0..n {
                    c[i * n + j] += a[i * k + p] as f64 * b[p * n + j] as f64;
                }
            }
        }
        c.into_iter().map(|v| v as f32).collect()
    }

    fn fill(len: usize, seed: u64) -> Vec<f32> {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 40) as f32 / (1u64 << 24) as f32) - 0.5
            })
            .collect()
    }

    fn backends() -> Vec<Backend> {
        let mut v = vec![Backend::Scalar];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("sse2") {
                v.push(Backend::Sse2);
            }
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                v.push(Backend::Avx2Fma);
            }
        }
        v
    }

    #[test]
    fn all_backends_match_wide_reference() {
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 1, 5),
            (8, 8, 8),
            (9, 17, 11),
            (64, 64, 64),
            (65, 257, 70),
            (5, 300, 1030),
        ] {
            let a = fill(m * k, 1 + m as u64);
            let b = fill(k * n, 2 + n as u64);
            let expect = reference(&a, &b, m, k, n);
            for backend in backends() {
                let mut c = vec![0.0f32; m * n];
                sgemm_with(backend, &a, &b, &mut c, m, k, n, false, false);
                let tol = 1e-5 * (k as f32).max(1.0);
                for (i, (&x, &y)) in c.iter().zip(&expect).enumerate() {
                    assert!(
                        (x - y).abs() <= tol,
                        "{backend:?} ({m},{k},{n}) idx {i}: {x} vs {y}"
                    );
                }
            }
        }
    }

    #[test]
    fn transposed_forms_agree_across_backends() {
        let (m, k, n) = (13, 37, 21);
        let a = fill(m * k, 7);
        let b = fill(k * n, 8);
        // Build transposed storage.
        let mut a_t = vec![0.0f32; m * k];
        for i in 0..m {
            for p in 0..k {
                a_t[p * m + i] = a[i * k + p];
            }
        }
        let mut b_t = vec![0.0f32; k * n];
        for p in 0..k {
            for j in 0..n {
                b_t[j * k + p] = b[p * n + j];
            }
        }
        let mut expect = vec![0.0f32; m * n];
        sgemm_with(Backend::Scalar, &a, &b, &mut expect, m, k, n, false, false);
        for backend in backends() {
            for (lhs, rhs, ta, tb) in [
                (&a, &b_t, false, true),
                (&a_t, &b, true, false),
                (&a_t, &b_t, true, true),
            ] {
                let mut c = vec![0.0f32; m * n];
                sgemm_with(backend, lhs, rhs, &mut c, m, k, n, ta, tb);
                for (i, (&x, &y)) in c.iter().zip(&expect).enumerate() {
                    assert!(
                        (x - y).abs() <= 2e-4,
                        "{backend:?} (ta={ta},tb={tb}) idx {i}: {x} vs {y}"
                    );
                }
            }
        }
    }

    #[test]
    fn accumulates_into_existing_c() {
        let (m, k, n) = (16, 24, 16);
        let a = fill(m * k, 3);
        let b = fill(k * n, 4);
        for backend in backends() {
            let mut c = vec![1.0f32; m * n];
            sgemm_with(backend, &a, &b, &mut c, m, k, n, false, false);
            let mut plain = vec![0.0f32; m * n];
            sgemm_with(backend, &a, &b, &mut plain, m, k, n, false, false);
            for (x, y) in c.iter().zip(&plain) {
                assert!((x - (y + 1.0)).abs() <= 1e-5, "{x} vs {}", y + 1.0);
            }
        }
    }

    #[test]
    fn kernel_name_is_stable() {
        let b = active_backend();
        assert!(!b.name().is_empty());
        assert_eq!(b, active_backend(), "selection is cached");
    }
}
