//! The dispatching compute-kernel layer behind every GEMM in the crate,
//! the evaluation-mode GELU, softmax and attention, and the MSE
//! calibration grid.
//!
//! One entry point — `sgemm` — backs [`crate::matmul`], the transposed
//! variants, and the im2col convolution products; [`gelu_with`],
//! [`softmax_rows_with`] and [`attention`] back the transformer block's
//! evaluation forward; [`symmetric_mse_grid`] backs MSE scale
//! calibration in `clado-quant`. At process start the layer picks a
//! backend once:
//!
//! * **AVX2+FMA** — cache-blocked (MC/KC/NC) GEMM with an 8×8
//!   register-tiled microkernel over 256-bit lanes, on x86-64 hosts with
//!   AVX2 and FMA.
//! * **Scalar** — every other host: the original `ikj`-ordered loops.
//!   This path is the *bitwise reference*: its floating-point operation
//!   order is frozen, so results under `CLADO_FORCE_SCALAR=1` are
//!   bit-for-bit identical to the pre-kernel-layer implementation (and to
//!   any older journal/matrix artifacts produced by it).
//!
//! # Determinism contract
//!
//! Backend selection happens once per process ([`active_backend`]), so a
//! run never mixes accumulation orders. The AVX2 paths reassociate the
//! k-loop (8 partial sums per output element) and therefore differ from
//! the scalar path by normal floating-point reassociation error — bounded
//! in practice by a few ULP per accumulated term (the property suite
//! asserts a ULP-scaled tolerance across shapes). The MSE calibration
//! grid ([`symmetric_mse_grid`]) is vectorised but keeps the scalar
//! operation order per candidate, so its sums — and the calibrated
//! scales, Δw probes and fake-quant results built on them — are bitwise
//! equal on every backend.
//!
//! Tiny products (`m·k·n` below [`SIMD_FLOP_THRESHOLD`]) stay on the
//! scalar path even when SIMD is available: packing two operand panels
//! costs more than the multiply saves.
//!
//! The contract extends to evaluation-mode activations. Training-mode
//! forwards and the scalar backend run the frozen scalar GELU and softmax
//! (the formulas GELU's backward differentiates), bit for bit. On the
//! AVX2 backend evaluation runs vector forms within a few ULP of the
//! exact functions, and every GELU output is a pure function of its input
//! element (every softmax row of its row): tails are padded through the
//! same vector formula, so prefix/suffix evaluation and a full forward
//! agree bitwise whatever the slice length or offset. The batched
//! attention kernel's products keep the scalar GEMM's operation order, so
//! only its softmax differs from the per-head scalar path.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Row-block size: panel of `op(A)` rows kept hot in L2 while it streams
/// over the packed B panel.
const MC: usize = 64;
/// Depth-block size: the shared dimension is consumed KC at a time so one
/// packed A panel (MC×KC) fits comfortably in L2.
pub(crate) const KC: usize = 256;
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
pub(crate) const SKINNY_M_MAX: usize = 16;

/// A compute backend for the f32 GEMM kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Reference `ikj` loops; bitwise-frozen operation order.
    Scalar,
    /// 256-bit AVX2 microkernel with fused multiply-add.
    Avx2Fma,
}

impl Backend {
    /// Stable kernel identifier recorded in telemetry manifests.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
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
        2 => Backend::Avx2Fma,
        _ => *BACKEND.get_or_init(detect_backend),
    }
}

/// Overrides the dispatched backend process-wide until called again with
/// `None`, so one process can run both the SIMD and the scalar float
/// paths (`crates/core/tests/backend_identity.rs` solves the same plan
/// on each). The override is global: a test that sets it must be the only
/// test in its binary.
///
/// # Panics
///
/// Panics if this CPU lacks `backend`'s instructions: the override also
/// steers every dispatched GEMM and convolution, which check nothing.
#[doc(hidden)]
pub fn force_backend(backend: Option<Backend>) {
    let code = match backend {
        None => 0,
        Some(Backend::Scalar) => 1,
        Some(b @ Backend::Avx2Fma) => {
            assert_available(b);
            2
        }
    };
    OVERRIDE.store(code, Ordering::Relaxed);
}

/// Panics unless this CPU can run `backend`, for the entry points that
/// take the backend from their caller instead of [`active_backend`].
fn assert_available(backend: Backend) {
    #[cfg(target_arch = "x86_64")]
    if backend == Backend::Avx2Fma {
        x86::assert_available();
    }
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
    sgemm_on(backend, a, b, c, m, k, n, ta, tb);
}

/// `C = op(A) · op(B)` (overwrite, no accumulation): zeroes `c` and runs
/// [`sgemm`]. The skinny-M AVX2 path skips the zero pass and writes its
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
    if backend == Backend::Avx2Fma && !ta && !tb && m < SKINNY_M_MAX {
        x86::sgemm_skinny_overwrite(a, b, c, m, k, n);
        return;
    }
    c.fill(0.0);
    sgemm_on(backend, a, b, c, m, k, n, ta, tb);
}

/// [`sgemm`] with an explicit backend — the property suite uses this to
/// compare AVX2 output against the scalar reference on the same inputs.
///
/// # Panics
///
/// Panics if slice lengths disagree with the dimensions, or if this CPU
/// lacks `backend`'s instructions.
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
    assert_available(backend);
    sgemm_on(backend, a, b, c, m, k, n, ta, tb);
}

/// [`sgemm_with`] for the dispatched callers, whose backend comes from
/// [`active_backend`] and so runs on this CPU: no availability check.
#[allow(clippy::too_many_arguments)]
fn sgemm_on(
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
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2Fma => {
            // Skinny-M products (im2col convolutions have M = output
            // channels, often < 8) can't amortize panel packing: stream B
            // directly instead of going through the blocked path.
            if !ta && !tb && m < SKINNY_M_MAX {
                x86::sgemm_skinny(a, b, c, m, k, n);
            } else {
                x86::sgemm_blocked(a, b, c, m, k, n, ta, tb);
            }
        }
        _ => sgemm_scalar(a, b, c, m, k, n, ta, tb),
    }
}

/// Evaluation-mode GELU (tanh approximation) in place on `backend`.
///
/// `Scalar` runs the frozen formula `0.5·x·(1 + tanh(√(2/π)·(x +
/// 0.044715·x³)))` bit for bit. The AVX2 backend evaluates the same
/// function as `x / (1 + exp(−2·√(2/π)·(x + 0.044715·x³)))` with a
/// Cephes-style polynomial `exp`, within a few ULP of the exact value
/// (the scalar form loses all relative accuracy for negative `x` where
/// `1 + tanh` cancels; this one does not).
/// Each output is a pure function of its input element: the tail past
/// the last full lane is padded and goes through the same vector formula,
/// so a value's result does not depend on the slice length or offset.
#[doc(hidden)]
pub fn gelu_with(backend: Backend, x: &mut [f32]) {
    match backend {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2Fma => x86::gelu(x),
        _ => x.iter_mut().for_each(|v| *v = crate::ops::gelu_scalar(*v)),
    }
}

/// Evaluation-mode row-wise softmax in place over the consecutive
/// `cols`-wide rows of `x`, on `backend`. `Scalar` is bitwise
/// [`crate::ops::softmax_rows_in_place`]; the AVX2 backend takes the row
/// max, exponentiate with the vector `exp` of [`gelu_with`] (padded tail,
/// same formula) and reduce the sum in an order fixed by `cols` alone.
#[doc(hidden)]
pub fn softmax_rows_with(backend: Backend, x: &mut [f32], cols: usize) {
    match backend {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2Fma => x.chunks_exact_mut(cols.max(1)).for_each(x86::softmax_row),
        _ => crate::ops::softmax_rows_in_place(x, cols),
    }
}

/// Scaled dot-product attention for every (sample, head) of `[N, T, D]`
/// activations split into `heads` heads of width `dh = D / heads`:
/// `out[s, :, head h] = softmax(Q_h·K_hᵀ / √dh) · V_h`, each map kept in
/// `maps` as `[N, H, T, T]`. `backend` selects the softmax (see
/// [`softmax_rows_with`]) and the product path.
///
/// On the AVX2 backend, tiles below [`SIMD_FLOP_THRESHOLD`] take one
/// batched pass: Q rows are read and head outputs written in place in the
/// `[N, T, D]` buffers, and both products run in the scalar GEMM's
/// operation order — one multiply then one add per term, ascending over
/// the shared dimension — vectorised across output columns, with the
/// `1/√dh` scale and the softmax applied to each score row as it is
/// produced. Scores and head outputs are therefore bitwise those of
/// [`sgemm_overwrite`]. The scalar backend and larger tiles gather each
/// head into tiles and go through [`sgemm_overwrite`].
///
/// # Panics
///
/// Panics if the slice lengths disagree with `n`, `t` and `heads`, if
/// `heads` does not divide `D`, or if this CPU lacks `backend`'s
/// instructions.
#[allow(clippy::too_many_arguments)]
pub fn attention(
    backend: Backend,
    q: &[f32],
    k: &[f32],
    v: &[f32],
    out: &mut [f32],
    maps: &mut [f32],
    n: usize,
    t: usize,
    heads: usize,
) {
    assert_eq!(maps.len(), n * heads * t * t, "maps length");
    if maps.is_empty() {
        return;
    }
    let dim = q.len() / (n * t);
    assert!(
        dim.is_multiple_of(heads),
        "heads={heads} must divide dim={dim}"
    );
    for (name, len) in [
        ("q", q.len()),
        ("k", k.len()),
        ("v", v.len()),
        ("out", out.len()),
    ] {
        assert_eq!(len, n * t * dim, "{name} length");
    }
    let tiles = AttentionTiles {
        q,
        k,
        v,
        t,
        dim,
        dh: dim / heads,
        heads,
    };
    match backend {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2Fma if t * tiles.dh * t < SIMD_FLOP_THRESHOLD => {
            x86::assert_available();
            // SAFETY: the host has AVX2, checked just above.
            unsafe { x86::attention_lanes_avx2(&tiles, out, maps) }
        }
        _ => tiles.gemm(out, maps, backend),
    }
}

/// Symmetric fake-quantization error sums over a grid of candidate
/// scales: `out[j] = Σᵢ (wᵢ − clamp(round(wᵢ/sⱼ), qmin, qmax)·sⱼ)²`,
/// computed on the active backend. MSE calibration scans its clip ratios
/// through this; see [`symmetric_mse_grid_with`] for the operation order
/// that makes every backend bitwise equal.
///
/// # Panics
///
/// Panics if `out.len() != scales.len()`.
pub fn symmetric_mse_grid(w: &[f32], scales: &[f32], qmin: f32, qmax: f32, out: &mut [f64]) {
    symmetric_mse_grid_with(active_backend(), w, scales, qmin, qmax, out);
}

/// [`symmetric_mse_grid`] on `backend`. `qmin ≤ qmax` must be integers.
///
/// `Scalar` runs the frozen loop: per candidate `s`, `inv = 1/s`, then per
/// element in order `q = round(x·inv).clamp(qmin, qmax)` (round half away
/// from zero), `d = x − q·s` in f32 and `sum += (d as f64)²`; a zero scale
/// sums `(x as f64)²`. The AVX2 backend evaluates up to 32 candidates per
/// pass over `w`, one per f32 lane with an f64 accumulator each, and
/// applies the same operations to every lane: it clamps `x·inv` before
/// rounding (equal to round-then-clamp for integer bounds, and NaN passes
/// through both), rounds by truncation plus `frac ≥ ½` on the magnitude,
/// and multiplies and subtracts without fusing. Every sum is therefore
/// bitwise the scalar one, NaN and ±∞ included.
///
/// # Panics
///
/// Panics if `out.len() != scales.len()`, or if this CPU lacks
/// `backend`'s instructions.
#[doc(hidden)]
pub fn symmetric_mse_grid_with(
    backend: Backend,
    w: &[f32],
    scales: &[f32],
    qmin: f32,
    qmax: f32,
    out: &mut [f64],
) {
    assert_eq!(out.len(), scales.len(), "one sum per candidate scale");
    debug_assert!(qmin.fract() == 0.0 && qmax.fract() == 0.0 && qmin <= qmax);
    match backend {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2Fma => x86::symmetric_mse_grid(w, scales, qmin, qmax, out),
        _ => {
            for (o, &s) in out.iter_mut().zip(scales) {
                *o = symmetric_mse_scalar(w, s, qmin, qmax);
            }
        }
    }
}

/// One candidate of the frozen scalar calibration loop.
fn symmetric_mse_scalar(w: &[f32], s: f32, qmin: f32, qmax: f32) -> f64 {
    let mut sum = 0.0f64;
    if s == 0.0 {
        for &x in w {
            let d = x as f64;
            sum += d * d;
        }
        return sum;
    }
    let inv = 1.0 / s;
    for &x in w {
        let q = (x * inv).round().clamp(qmin, qmax);
        let d = (x - q * s) as f64;
        sum += d * d;
    }
    sum
}

/// The operands of one [`attention`] call.
struct AttentionTiles<'a> {
    q: &'a [f32],
    k: &'a [f32],
    v: &'a [f32],
    t: usize,
    dim: usize,
    dh: usize,
    heads: usize,
}

impl AttentionTiles<'_> {
    /// Start of token `r`'s head-`h` slice in sample `s`.
    fn at(&self, s: usize, h: usize, r: usize) -> usize {
        (s * self.t + r) * self.dim + h * self.dh
    }

    /// Per (sample, head): gather the head tiles, two [`sgemm_overwrite`]
    /// products around the scale and softmax, scatter the output.
    fn gemm(&self, out: &mut [f32], maps: &mut [f32], backend: Backend) {
        let (t, dh) = (self.t, self.dh);
        let scale = 1.0 / (dh as f32).sqrt();
        let [mut qh, mut kh, mut vh] = [(); 3].map(|_| vec![0.0f32; t * dh]);
        for (i, map) in maps.chunks_exact_mut(t * t).enumerate() {
            let (s, h) = (i / self.heads, i % self.heads);
            for r in 0..t {
                let src = self.at(s, h, r)..self.at(s, h, r) + dh;
                qh[r * dh..(r + 1) * dh].copy_from_slice(&self.q[src.clone()]);
                kh[r * dh..(r + 1) * dh].copy_from_slice(&self.k[src.clone()]);
                vh[r * dh..(r + 1) * dh].copy_from_slice(&self.v[src]);
            }
            sgemm_overwrite(&qh, &kh, map, t, dh, t, false, true);
            map.iter_mut().for_each(|x| *x *= scale);
            softmax_rows_with(backend, map, t);
            sgemm_overwrite(map, &vh, &mut qh, t, t, dh, false, false);
            for r in 0..t {
                let dst = self.at(s, h, r)..self.at(s, h, r) + dh;
                out[dst].copy_from_slice(&qh[r * dh..(r + 1) * dh]);
            }
        }
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
    use super::{at_a, at_b, AttentionTiles, KC, MC, MR, NC, NR};
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

    /// Skinny-M GEMM (`ta = tb = false`): `C[m×n] += A[m×k] · B[k×n]`
    /// without packing. Works in 32-column strips: the strip of B
    /// (`k × 32` floats) stays L1-resident while each of the few A rows
    /// broadcasts through it. Per output element the k-loop accumulates
    /// in ascending order, like every other backend.
    pub(super) fn sgemm_skinny(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        sgemm_skinny_impl(a, b, c, m, k, n, true);
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
    ) {
        sgemm_skinny_impl(a, b, c, m, k, n, false);
    }

    fn sgemm_skinny_impl(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
        accumulate: bool,
    ) {
        let mut j = 0;
        // SAFETY: strip bounds are checked before each call; callers
        // dispatch here only on the AVX2+FMA backend.
        unsafe {
            while j + 32 <= n {
                // Row pairs share the B loads and double the independent
                // FMA chains (8 per pair) — with very few rows a single
                // row's 4 chains can't hide the FMA latency.
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

    /// Panics unless this CPU has AVX2 and FMA: [`super::gelu_with`],
    /// [`super::softmax_rows_with`] and [`super::attention`] take the
    /// backend from their caller, and running AVX2 code on a host without
    /// it is undefined behaviour.
    pub(super) fn assert_available() {
        assert!(
            is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"),
            "the AVX2+FMA backend needs a CPU with AVX2 and FMA"
        );
    }

    /// Lane group of the batched attention pass: one 256-bit register.
    const LANES: usize = 8;
    type Lanes = [f32; LANES];

    /// The batched pass of [`super::attention`]. Per (sample, head),
    /// `K_hᵀ` (`[dh, T]`) and `V_h` (`[T, dh]`) are staged as rows of
    /// zero-padded lane groups, so each output row is a sum of whole-group
    /// multiply-adds: `acc[l] += a · b[l]` on every lane, one multiply then
    /// one add.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn attention_lanes_avx2(
        tiles: &AttentionTiles<'_>,
        out: &mut [f32],
        maps: &mut [f32],
    ) {
        let madd = |acc: &mut Lanes, a: f32, b: &Lanes| {
            let (pa, pb) = (acc.as_mut_ptr(), b.as_ptr());
            // SAFETY: each group holds 8 floats; AVX2 is enabled here.
            unsafe {
                let prod = _mm256_mul_ps(_mm256_set1_ps(a), _mm256_loadu_ps(pb));
                _mm256_storeu_ps(pa, _mm256_add_ps(_mm256_loadu_ps(pa), prod));
            }
        };
        let (t, dh) = (tiles.t, tiles.dh);
        let scale = 1.0 / (dh as f32).sqrt();
        let (tl, dl) = (t.div_ceil(LANES), dh.div_ceil(LANES));
        let mut kt = vec![[0.0f32; LANES]; dh * tl];
        let mut vt = vec![[0.0f32; LANES]; t * dl];
        let mut acc = vec![[0.0f32; LANES]; tl.max(dl)];
        for (i, map) in maps.chunks_exact_mut(t * t).enumerate() {
            let (s, h) = (i / tiles.heads, i % tiles.heads);
            for r in 0..t {
                let at = tiles.at(s, h, r);
                for (p, (&kv, &vv)) in tiles.k[at..at + dh]
                    .iter()
                    .zip(&tiles.v[at..at + dh])
                    .enumerate()
                {
                    kt[p * tl + r / LANES][r % LANES] = kv;
                    vt[r * dl + p / LANES][p % LANES] = vv;
                }
            }
            for (r, row) in map.chunks_exact_mut(t).enumerate() {
                let acc = &mut acc[..tl];
                acc.fill([0.0; LANES]);
                let at = tiles.at(s, h, r);
                for (&qv, kt_row) in tiles.q[at..at + dh].iter().zip(kt.chunks_exact(tl)) {
                    for (a, kv) in acc.iter_mut().zip(kt_row) {
                        madd(a, qv, kv);
                    }
                }
                for (c, &a) in row.iter_mut().zip(acc.as_flattened()) {
                    *c = a * scale;
                }
                softmax_row(row);
            }
            for (r, a_row) in map.chunks_exact(t).enumerate() {
                let acc = &mut acc[..dl];
                acc.fill([0.0; LANES]);
                for (&a, vt_row) in a_row.iter().zip(vt.chunks_exact(dl)) {
                    for (o, vv) in acc.iter_mut().zip(vt_row) {
                        madd(o, a, vv);
                    }
                }
                let at = tiles.at(s, h, r);
                out[at..at + dh].copy_from_slice(&acc.as_flattened()[..dh]);
            }
        }
    }

    /// Cephes `expf`: clamp, split `x = n·ln2 + r`, a degree-5 polynomial
    /// in `r`, then scale by `2ⁿ` through the exponent bits. Arguments
    /// below the clamp give 0, above it +∞; NaN stays NaN (the clamps put
    /// `x` second, where `min`/`max` return a NaN operand).
    const EXP_HI: f32 = 88.376_26;
    const EXP_LO: f32 = -88.376_26;
    const LOG2E: f32 = std::f32::consts::LOG2_E;
    const LN2_HI: f32 = 0.693_359_4;
    const LN2_LO: f32 = -2.121_944_4e-4;
    const EXP_POLY: [f32; 6] = [
        1.987_569_1e-4,
        1.398_199_9e-3,
        8.333_452e-3,
        4.166_579_6e-2,
        0.166_666_65,
        0.5,
    ];
    /// GELU's `√(2/π)` and cubic coefficient, as in the scalar formula.
    const GELU_C: f32 = 0.797_884_6;
    const GELU_A: f32 = 0.044_715;

    /// # Safety
    ///
    /// Requires AVX2+FMA.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn exp8(x: __m256) -> __m256 {
        let x = _mm256_max_ps(
            _mm256_set1_ps(EXP_LO),
            _mm256_min_ps(_mm256_set1_ps(EXP_HI), x),
        );
        let fx = _mm256_floor_ps(_mm256_fmadd_ps(
            x,
            _mm256_set1_ps(LOG2E),
            _mm256_set1_ps(0.5),
        ));
        let r = _mm256_fnmadd_ps(fx, _mm256_set1_ps(LN2_HI), x);
        let r = _mm256_fnmadd_ps(fx, _mm256_set1_ps(LN2_LO), r);
        let mut y = _mm256_set1_ps(EXP_POLY[0]);
        for &c in &EXP_POLY[1..] {
            y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(c));
        }
        let y = _mm256_add_ps(
            _mm256_fmadd_ps(y, _mm256_mul_ps(r, r), r),
            _mm256_set1_ps(1.0),
        );
        let pow2 = _mm256_slli_epi32::<23>(_mm256_add_epi32(
            _mm256_cvttps_epi32(fx),
            _mm256_set1_epi32(127),
        ));
        _mm256_mul_ps(y, _mm256_castsi256_ps(pow2))
    }

    /// `gelu(x) = x / (1 + exp(−2u))`, `u = √(2/π)·x·(1 + 0.044715·x²)`.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn gelu8(x: __m256) -> __m256 {
        let one = _mm256_set1_ps(1.0);
        let u = _mm256_mul_ps(
            x,
            _mm256_fmadd_ps(_mm256_mul_ps(x, x), _mm256_set1_ps(GELU_A), one),
        );
        let e = exp8(_mm256_mul_ps(u, _mm256_set1_ps(-2.0 * GELU_C)));
        _mm256_div_ps(x, _mm256_add_ps(one, e))
    }

    /// Vector GELU over a slice; see [`super::gelu_with`].
    pub(super) fn gelu(x: &mut [f32]) {
        assert_available();
        // SAFETY: the host has AVX2 and FMA, checked just above.
        unsafe { gelu_avx2(x) }
    }

    /// # Safety
    ///
    /// Requires AVX2+FMA.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn gelu_avx2(x: &mut [f32]) {
        let mut chunks = x.chunks_exact_mut(8);
        for c in &mut chunks {
            // SAFETY: `c` holds exactly 8 floats.
            _mm256_storeu_ps(c.as_mut_ptr(), gelu8(_mm256_loadu_ps(c.as_ptr())));
        }
        let tail = chunks.into_remainder();
        let mut lanes = [0.0f32; 8];
        lanes[..tail.len()].copy_from_slice(tail);
        _mm256_storeu_ps(lanes.as_mut_ptr(), gelu8(_mm256_loadu_ps(lanes.as_ptr())));
        tail.copy_from_slice(&lanes[..tail.len()]);
    }

    /// Vector softmax of one row; see [`super::softmax_rows_with`].
    pub(super) fn softmax_row(row: &mut [f32]) {
        assert_available();
        // SAFETY: the host has AVX2 and FMA, checked just above.
        let sum = unsafe { exp_shifted_avx2(row) };
        let inv = 1.0 / sum;
        row.iter_mut().for_each(|v| *v *= inv);
    }

    /// Replaces `row` by `exp(row − max(row))` and returns its sum: the
    /// lane partial sums reduced in a fixed tree, then the tail in order.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn exp_shifted_avx2(row: &mut [f32]) -> f32 {
        // Folds the 8 lanes of `v` pairwise with `op`; lane 0 holds the result.
        #[target_feature(enable = "avx2,fma")]
        fn fold8(v: __m256, op: impl Fn(__m256, __m256) -> __m256) -> f32 {
            let v = op(v, _mm256_permute2f128_ps::<1>(v, v));
            let v = op(v, _mm256_permute_ps::<0b01_00_11_10>(v));
            _mm256_cvtss_f32(op(v, _mm256_permute_ps::<0b10_11_00_01>(v)))
        }
        let mut chunks = row.chunks_exact_mut(8);
        let mut acc = _mm256_set1_ps(f32::NEG_INFINITY);
        for c in &mut chunks {
            acc = _mm256_max_ps(acc, _mm256_loadu_ps(c.as_ptr()));
        }
        let tail = chunks.into_remainder();
        let max = tail
            .iter()
            .fold(fold8(acc, |a, b| _mm256_max_ps(a, b)), |m, &v| m.max(v));
        let m = _mm256_set1_ps(max);
        let mut sum = _mm256_setzero_ps();
        let mut chunks = row.chunks_exact_mut(8);
        for c in &mut chunks {
            let e = exp8(_mm256_sub_ps(_mm256_loadu_ps(c.as_ptr()), m));
            _mm256_storeu_ps(c.as_mut_ptr(), e);
            sum = _mm256_add_ps(sum, e);
        }
        let mut total = fold8(sum, |a, b| _mm256_add_ps(a, b));
        let tail = chunks.into_remainder();
        if !tail.is_empty() {
            let mut lanes = [max; 8];
            lanes[..tail.len()].copy_from_slice(tail);
            let e = exp8(_mm256_sub_ps(_mm256_loadu_ps(lanes.as_ptr()), m));
            _mm256_storeu_ps(lanes.as_mut_ptr(), e);
            for (v, &e) in tail.iter_mut().zip(&lanes) {
                *v = e;
                total += e;
            }
        }
        total
    }

    /// Candidate scales evaluated per pass over the weights: four groups
    /// of eight lanes.
    const GRID_PASS: usize = 4 * 8;

    /// Vector calibration grid; see [`super::symmetric_mse_grid_with`].
    /// Zero scales take the scalar `s == 0` branch (one shared sum of
    /// squares); their lanes run a placeholder scale whose sums are
    /// discarded.
    pub(super) fn symmetric_mse_grid(
        w: &[f32],
        scales: &[f32],
        qmin: f32,
        qmax: f32,
        out: &mut [f64],
    ) {
        assert_available();
        let mut zero_sum = None;
        for (cands, out) in scales.chunks(GRID_PASS).zip(out.chunks_mut(GRID_PASS)) {
            let mut pass = [1.0f32; GRID_PASS];
            for (p, &s) in pass.iter_mut().zip(cands) {
                if s != 0.0 {
                    *p = s;
                }
            }
            let mut sums = [0.0f64; GRID_PASS];
            // SAFETY: the host has AVX2, checked above.
            unsafe {
                match cands.len().div_ceil(8) {
                    1 => mse_grid_pass_avx2::<1>(w, &pass, qmin, qmax, &mut sums),
                    2 => mse_grid_pass_avx2::<2>(w, &pass, qmin, qmax, &mut sums),
                    3 => mse_grid_pass_avx2::<3>(w, &pass, qmin, qmax, &mut sums),
                    _ => mse_grid_pass_avx2::<4>(w, &pass, qmin, qmax, &mut sums),
                }
            }
            for ((o, &s), &sum) in out.iter_mut().zip(cands).zip(&sums) {
                *o = if s == 0.0 {
                    *zero_sum.get_or_insert_with(|| super::symmetric_mse_scalar(w, 0.0, qmin, qmax))
                } else {
                    sum
                };
            }
        }
    }

    /// One pass over `w` for the first `8·G` scales of `scales`, writing
    /// their sums to the front of `sums`. Each lane mirrors the scalar
    /// loop's operations on its candidate; the clamp puts `y` second so
    /// `max`/`min` return it when it is NaN, as `f32::clamp` does.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn mse_grid_pass_avx2<const G: usize>(
        w: &[f32],
        scales: &[f32; GRID_PASS],
        qmin: f32,
        qmax: f32,
        sums: &mut [f64; GRID_PASS],
    ) {
        const { assert!(8 * G <= GRID_PASS) };
        // SAFETY (loads and stores below): with 8·G ≤ GRID_PASS, group
        // `g`'s 8 lanes lie inside `scales` and `sums`.
        let s: [__m256; G] = std::array::from_fn(|g| _mm256_loadu_ps(scales[8 * g..].as_ptr()));
        let inv = s.map(|s| _mm256_div_ps(_mm256_set1_ps(1.0), s));
        let (lo, hi) = (_mm256_set1_ps(qmin), _mm256_set1_ps(qmax));
        let (sign, half, one) = (
            _mm256_set1_ps(-0.0),
            _mm256_set1_ps(0.5),
            _mm256_set1_ps(1.0),
        );
        let mut acc = [[_mm256_setzero_pd(); 2]; G];
        for &x in w {
            let xv = _mm256_set1_ps(x);
            for g in 0..G {
                let c = _mm256_min_ps(hi, _mm256_max_ps(lo, _mm256_mul_ps(xv, inv[g])));
                let mag = _mm256_andnot_ps(sign, c);
                let t = _mm256_round_ps::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(mag);
                let up = _mm256_and_ps(
                    _mm256_cmp_ps::<_CMP_GE_OQ>(_mm256_sub_ps(mag, t), half),
                    one,
                );
                let q = _mm256_or_ps(_mm256_add_ps(t, up), _mm256_and_ps(sign, c));
                let d = _mm256_sub_ps(xv, _mm256_mul_ps(q, s[g]));
                let d_lo = _mm256_cvtps_pd(_mm256_castps256_ps128(d));
                let d_hi = _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(d));
                acc[g][0] = _mm256_add_pd(acc[g][0], _mm256_mul_pd(d_lo, d_lo));
                acc[g][1] = _mm256_add_pd(acc[g][1], _mm256_mul_pd(d_hi, d_hi));
            }
        }
        for (g, [a_lo, a_hi]) in acc.into_iter().enumerate() {
            _mm256_storeu_pd(sums[8 * g..].as_mut_ptr(), a_lo);
            _mm256_storeu_pd(sums[8 * g + 4..].as_mut_ptr(), a_hi);
        }
    }

    /// Cache-blocked GEMM driver of the AVX2 backend: GotoBLAS-style
    /// jc/pc/ic loops over packed panels, full 8×8 microkernel tiles, edge
    /// tiles routed through a zero-padded scratch.
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
                                // SAFETY: full tiles lie inside `c`, edge
                                // tiles go through `tile`; callers dispatch
                                // here only on the AVX2+FMA backend.
                                unsafe {
                                    if rows == MR && cols == NR {
                                        let cp = c.as_mut_ptr().add(row0 * n + col0);
                                        mk8x8_avx2(ap.as_ptr(), bp.as_ptr(), cp, n, kc);
                                    } else {
                                        let mut tile = [0.0f32; MR * NR];
                                        mk8x8_avx2(
                                            ap.as_ptr(),
                                            bp.as_ptr(),
                                            tile.as_mut_ptr(),
                                            NR,
                                            kc,
                                        );
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
