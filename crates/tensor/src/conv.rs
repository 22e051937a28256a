//! 2-D convolution kernels (forward and backward) via im2col.
//!
//! Supports strides, symmetric zero padding, and grouped/depthwise
//! convolution — everything the mini model zoo needs.

use crate::kernel;
use crate::Tensor;
use std::cell::RefCell;

thread_local! {
    /// Forward-pass scratch (column matrix + GEMM output) reused across
    /// calls: the suffix-forward hot path runs thousands of convolutions
    /// per second, and allocating + zeroing a fresh multi-hundred-KB
    /// column matrix each call costs more than the GEMM for the small
    /// shapes in the mini model zoo. Both buffers are fully overwritten
    /// before being read, so reuse never leaks data between calls.
    static FWD_SCRATCH: RefCell<(Vec<f32>, Vec<f32>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Grows `buf` if needed and hands back exactly `len` elements. Contents
/// are unspecified — callers must fully overwrite before reading.
fn scratch_slice(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

/// Widest padded input row the stride-1 im2col fast path stages on the
/// stack; wider inputs fall back to the general segmented loop.
const PADDED_ROW_MAX: usize = 256;

/// Rounds the shared column-matrix row stride up to an odd number of
/// 64-byte cache lines. A batch-of-16 stride like `16·16·16` floats is
/// 16 KiB — a power-of-two stride maps every GEMM B-panel row onto the
/// same L1 set-group, so the strip the skinny kernel wants resident
/// thrashes on conflict misses. An odd line stride cycles the rows
/// through all sets. Padding columns are never read back (the scatter
/// only copies each sample's real `ho·wo` segment), and the GEMM just
/// computes a few throwaway columns over whatever finite values the
/// scratch held.
fn pad_stride(len: usize) -> usize {
    let lines = len.div_ceil(16);
    (lines | 1) * 16
}

/// Copy of `len` f32s that turns the common small widths into straight
/// register moves instead of a runtime-length `memcpy` call — the im2col
/// inner loop issues four such copies per staged row, so the dispatch
/// overhead of the libc call dominates at `wo ∈ {4, 8, 16}`.
///
/// # Safety
///
/// `src` and `dst` must be valid for `len` reads/writes and disjoint.
#[inline(always)]
unsafe fn copy_floats(src: *const f32, dst: *mut f32, len: usize) {
    match len {
        4 => dst
            .cast::<[f32; 4]>()
            .write_unaligned(src.cast::<[f32; 4]>().read_unaligned()),
        8 => dst
            .cast::<[f32; 8]>()
            .write_unaligned(src.cast::<[f32; 8]>().read_unaligned()),
        16 => dst
            .cast::<[f32; 16]>()
            .write_unaligned(src.cast::<[f32; 16]>().read_unaligned()),
        32 => dst
            .cast::<[f32; 32]>()
            .write_unaligned(src.cast::<[f32; 32]>().read_unaligned()),
        _ => std::ptr::copy_nonoverlapping(src, dst, len),
    }
}

/// Zero-fill counterpart of [`copy_floats`].
///
/// # Safety
///
/// `dst` must be valid for `len` writes.
#[inline(always)]
unsafe fn zero_floats(dst: *mut f32, len: usize) {
    match len {
        4 => dst.cast::<[f32; 4]>().write_unaligned([0.0; 4]),
        8 => dst.cast::<[f32; 8]>().write_unaligned([0.0; 8]),
        16 => dst.cast::<[f32; 16]>().write_unaligned([0.0; 16]),
        32 => dst.cast::<[f32; 32]>().write_unaligned([0.0; 32]),
        _ => std::ptr::write_bytes(dst, 0, len),
    }
}

/// Geometry of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dSpec {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Symmetric zero padding in both spatial dimensions.
    pub padding: usize,
    /// Number of groups (`1` = dense, `in_channels` = depthwise).
    pub groups: usize,
}

impl Conv2dSpec {
    /// Creates a dense (single-group) convolution spec.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        Self {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            groups: 1,
        }
    }

    /// Returns the spec with `groups` set, validating divisibility.
    ///
    /// # Panics
    ///
    /// Panics if `groups` does not divide both channel counts.
    pub fn with_groups(mut self, groups: usize) -> Self {
        assert!(groups > 0, "groups must be positive");
        assert!(
            self.in_channels.is_multiple_of(groups) && self.out_channels.is_multiple_of(groups),
            "groups={groups} must divide in_channels={} and out_channels={}",
            self.in_channels,
            self.out_channels
        );
        self.groups = groups;
        self
    }

    /// Spatial output size for a given input size.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit in the padded input.
    pub fn out_size(&self, input: usize) -> usize {
        let padded = input + 2 * self.padding;
        assert!(
            padded >= self.kernel,
            "kernel {} does not fit input {input} with padding {}",
            self.kernel,
            self.padding
        );
        (padded - self.kernel) / self.stride + 1
    }

    /// Shape of the weight tensor: `[out_channels, in_channels/groups, k, k]`.
    pub fn weight_shape(&self) -> [usize; 4] {
        [
            self.out_channels,
            self.in_channels / self.groups,
            self.kernel,
            self.kernel,
        ]
    }

    /// Number of weight elements.
    pub fn weight_numel(&self) -> usize {
        self.weight_shape().iter().product()
    }
}

/// Unfolds one sample's group-slice into a `[cg·k·k, ho·wo]` column matrix.
///
/// Public so higher crates and tests can build their own GEMM-form
/// convolutions.
#[allow(clippy::too_many_arguments)]
pub fn im2col(
    input: &[f32],
    cg: usize,
    h: usize,
    w: usize,
    spec: &Conv2dSpec,
    ho: usize,
    wo: usize,
    col: &mut [f32],
) {
    debug_assert_eq!(col.len(), cg * spec.kernel * spec.kernel * ho * wo);
    im2col_ld(input, cg, h, w, spec, ho, wo, col, ho * wo);
}

/// [`im2col`] into a wider matrix: writes the `[cg·k·k, ho·wo]` columns of
/// one sample starting at `col[0]` with row stride `ld`, so a batch of
/// samples can share one `[cg·k·k, n·ho·wo]` matrix (sample `s` passes
/// `&mut wide[s*ho*wo..]`) and the convolution becomes a single wide GEMM
/// per group instead of one skinny GEMM per sample.
#[allow(clippy::too_many_arguments)]
pub fn im2col_ld(
    input: &[f32],
    cg: usize,
    h: usize,
    w: usize,
    spec: &Conv2dSpec,
    ho: usize,
    wo: usize,
    col: &mut [f32],
    ld: usize,
) {
    let k = spec.kernel;
    let stride = spec.stride;
    let pad = spec.padding;
    debug_assert!(ld >= ho * wo, "row stride shorter than one sample");
    debug_assert!(col.len() >= (cg * k * k - 1) * ld + ho * wo);
    // Stride-1 fast path: stage each input row once into a zero-padded
    // buffer, then every kx-row of the column matrix is one full-width
    // copy (`dst[ox] = prow[ox + kx]`) — no per-segment edge fills. Pure
    // copies, so output is bitwise identical to the general path.
    if stride == 1 && w + 2 * pad <= PADDED_ROW_MAX {
        assert!(input.len() >= cg * h * w, "input slice too short");
        assert!(
            col.len() >= (cg * k * k - 1) * ld + ho * wo,
            "column slice too short"
        );
        let mut prow = [0.0f32; PADDED_ROW_MAX];
        // SAFETY: every pointer offset below is within the bounds the two
        // asserts establish: source rows are `iy < h`, destination rows
        // are `row0 + kx < cg·k·k` at column `oy·wo + wo <= ld`, and
        // `kx + wo <= w + 2·pad` inside the staging buffer.
        unsafe {
            let cp = col.as_mut_ptr();
            for c in 0..cg {
                let src_c = input.as_ptr().add(c * h * w);
                for ky in 0..k {
                    let row0 = (c * k + ky) * k;
                    for oy in 0..ho {
                        let iy = (oy + ky) as isize - pad as isize;
                        let dbase = cp.add(row0 * ld + oy * wo);
                        if iy < 0 || iy >= h as isize {
                            for kx in 0..k {
                                zero_floats(dbase.add(kx * ld), wo);
                            }
                            continue;
                        }
                        copy_floats(src_c.add(iy as usize * w), prow.as_mut_ptr().add(pad), w);
                        for kx in 0..k {
                            copy_floats(prow.as_ptr().add(kx), dbase.add(kx * ld), wo);
                        }
                    }
                }
            }
        }
        return;
    }
    let mut row = 0usize;
    for c in 0..cg {
        for ky in 0..k {
            for kx in 0..k {
                let base = row * ld;
                row += 1;
                // `ix = ox·stride + off`; the in-bounds ox range
                // [lo, hi) is computed once so the inner loop is
                // branch-free (and a straight memcpy when stride = 1).
                let off = kx as isize - spec.padding as isize;
                let lo = if off >= 0 {
                    0
                } else {
                    ((-off) as usize).div_ceil(stride).min(wo)
                };
                let hi = if (w as isize) <= off {
                    lo
                } else {
                    ((w as isize - off) as usize).div_ceil(stride).clamp(lo, wo)
                };
                for oy in 0..ho {
                    let iy = (oy * stride + ky) as isize - spec.padding as isize;
                    let dst = &mut col[base + oy * wo..base + oy * wo + wo];
                    if iy < 0 || iy >= h as isize {
                        dst.fill(0.0);
                        continue;
                    }
                    let src = &input[c * h * w + iy as usize * w..][..w];
                    dst[..lo].fill(0.0);
                    dst[hi..].fill(0.0);
                    if stride == 1 {
                        let s0 = (lo as isize + off) as usize;
                        dst[lo..hi].copy_from_slice(&src[s0..s0 + (hi - lo)]);
                    } else {
                        for ox in lo..hi {
                            dst[ox] = src[((ox * stride) as isize + off) as usize];
                        }
                    }
                }
            }
        }
    }
}

/// Accumulates a column matrix back into a spatial gradient (adjoint of
/// [`im2col`]).
#[allow(clippy::too_many_arguments)]
fn col2im(
    col: &[f32],
    cg: usize,
    h: usize,
    w: usize,
    spec: &Conv2dSpec,
    ho: usize,
    wo: usize,
    out: &mut [f32],
) {
    let k = spec.kernel;
    let mut row = 0usize;
    for c in 0..cg {
        for ky in 0..k {
            for kx in 0..k {
                let base = row * ho * wo;
                row += 1;
                for oy in 0..ho {
                    let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let iy = iy as usize;
                    for ox in 0..wo {
                        let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        out[c * h * w + iy * w + ix as usize] += col[base + oy * wo + ox];
                    }
                }
            }
        }
    }
}

/// Fused implicit-im2col convolution for the AVX2 backend: stages each
/// sample's group-slice into a small zero-padded image and runs the GEMM
/// microkernel straight out of it through a precomputed offsets table —
/// the 9×-inflated column matrix is never materialized. Stride-1 only;
/// each output element accumulates its `cg·k·k` terms in ascending order
/// (the same order as the scalar reference, with FMA rounding).
#[cfg(target_arch = "x86_64")]
mod fused {
    use super::{copy_floats, Conv2dSpec, Tensor};
    use std::arch::x86_64::*;
    use std::cell::RefCell;

    thread_local! {
        /// Padded-image staging + offsets table, reused across calls.
        static STAGE: RefCell<(Vec<f32>, Vec<usize>)> =
            const { RefCell::new((Vec::new(), Vec::new())) };
    }

    /// Whether [`run`] supports this geometry (caller has already checked
    /// that the AVX2 backend is active).
    pub(super) fn supported(spec: &Conv2dSpec, wo: usize, ho: usize) -> bool {
        spec.stride == 1 && matches!(wo, 4 | 8 | 16) && (wo == 16 || ho.is_multiple_of(2))
    }

    /// Runs the fused convolution. Output tensor must be zero-filled;
    /// every output element is written exactly once.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn run(
        input: &Tensor,
        weight: &Tensor,
        out: &mut Tensor,
        spec: &Conv2dSpec,
        n: usize,
        cin: usize,
        h: usize,
        w: usize,
        ho: usize,
        wo: usize,
    ) {
        let pad = spec.padding;
        let k = spec.kernel;
        let g = spec.groups;
        let (cg, cg_out) = (cin / g, spec.out_channels / g);
        let (hp, wp) = (h + 2 * pad, w + 2 * pad);
        let kk = cg * k * k;
        let howo = ho * wo;
        STAGE.with(|stage| {
            let mut stage = stage.borrow_mut();
            let (padded, off) = &mut *stage;
            padded.clear();
            padded.resize(cg * hp * wp, 0.0);
            off.clear();
            off.reserve(kk);
            for c in 0..cg {
                for ky in 0..k {
                    for kx in 0..k {
                        off.push(c * hp * wp + ky * wp + kx);
                    }
                }
            }
            let wdat = weight.data();
            let indat = input.data();
            let od = out.data_mut();
            for s in 0..n {
                for gi in 0..g {
                    // Stage the group-slice; borders stay zero because
                    // only interior rows are ever written.
                    let src = &indat[(s * cin + gi * cg) * h * w..];
                    for c in 0..cg {
                        for iy in 0..h {
                            // SAFETY: destination row `(iy+pad)` at column
                            // `pad` leaves `pad` zeros on each side.
                            unsafe {
                                copy_floats(
                                    src.as_ptr().add((c * h + iy) * w),
                                    padded.as_mut_ptr().add(c * hp * wp + (iy + pad) * wp + pad),
                                    w,
                                );
                            }
                        }
                    }
                    let out_base = (s * spec.out_channels + gi * cg_out) * howo;
                    let mut oc = 0;
                    // SAFETY: AVX2+FMA availability is the caller's
                    // dispatch condition; offsets stay within the staged
                    // image (max term `off[kk-1] + (ho-1)·wp + wo` equals
                    // the buffer length for stride 1).
                    unsafe {
                        while oc + 4 <= cg_out {
                            let wrow = wdat.as_ptr().add((gi * cg_out + oc) * kk);
                            let dst = od.as_mut_ptr().add(out_base + oc * howo);
                            rows4(wrow, kk, padded, off, wp, ho, wo, dst, howo);
                            oc += 4;
                        }
                        while oc < cg_out {
                            let wrow = wdat.as_ptr().add((gi * cg_out + oc) * kk);
                            let dst = od.as_mut_ptr().add(out_base + oc * howo);
                            rows1(wrow, kk, padded, off, wp, ho, wo, dst);
                            oc += 1;
                        }
                    }
                }
            }
        });
    }

    /// Four output channels at once over the staged image.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA; `w` valid for 4 rows of `kk`, `dst` for 4 rows
    /// of `ho·wo` at stride `dstride`; offsets in bounds per [`run`].
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn rows4(
        w: *const f32,
        kk: usize,
        padded: &[f32],
        off: &[usize],
        wp: usize,
        ho: usize,
        wo: usize,
        dst: *mut f32,
        dstride: usize,
    ) {
        let pd = padded.as_ptr();
        let z = _mm256_setzero_ps();
        let zx = _mm_setzero_ps();
        match wo {
            16 => {
                for oy in 0..ho {
                    let oyw = oy * wp;
                    let mut acc = [z; 8];
                    for (p, &o) in off.iter().enumerate().take(kk) {
                        let bp = pd.add(o + oyw);
                        let b0 = _mm256_loadu_ps(bp);
                        let b1 = _mm256_loadu_ps(bp.add(8));
                        for r in 0..4 {
                            let av = _mm256_broadcast_ss(&*w.add(r * kk + p));
                            acc[2 * r] = _mm256_fmadd_ps(av, b0, acc[2 * r]);
                            acc[2 * r + 1] = _mm256_fmadd_ps(av, b1, acc[2 * r + 1]);
                        }
                    }
                    for r in 0..4 {
                        let d = dst.add(r * dstride + oy * wo);
                        _mm256_storeu_ps(d, acc[2 * r]);
                        _mm256_storeu_ps(d.add(8), acc[2 * r + 1]);
                    }
                }
            }
            8 => {
                let mut oy = 0;
                while oy < ho {
                    let oyw = oy * wp;
                    let mut acc = [z; 8];
                    for (p, &o) in off.iter().enumerate().take(kk) {
                        let bp = pd.add(o + oyw);
                        let b0 = _mm256_loadu_ps(bp);
                        let b1 = _mm256_loadu_ps(bp.add(wp));
                        for r in 0..4 {
                            let av = _mm256_broadcast_ss(&*w.add(r * kk + p));
                            acc[2 * r] = _mm256_fmadd_ps(av, b0, acc[2 * r]);
                            acc[2 * r + 1] = _mm256_fmadd_ps(av, b1, acc[2 * r + 1]);
                        }
                    }
                    for r in 0..4 {
                        let d = dst.add(r * dstride + oy * wo);
                        _mm256_storeu_ps(d, acc[2 * r]);
                        _mm256_storeu_ps(d.add(wo), acc[2 * r + 1]);
                    }
                    oy += 2;
                }
            }
            _ => {
                let mut oy = 0;
                while oy < ho {
                    let oyw = oy * wp;
                    let mut acc = [zx; 8];
                    for (p, &o) in off.iter().enumerate().take(kk) {
                        let bp = pd.add(o + oyw);
                        let b0 = _mm_loadu_ps(bp);
                        let b1 = _mm_loadu_ps(bp.add(wp));
                        for r in 0..4 {
                            let av = _mm_set1_ps(*w.add(r * kk + p));
                            acc[2 * r] = _mm_add_ps(acc[2 * r], _mm_mul_ps(av, b0));
                            acc[2 * r + 1] = _mm_add_ps(acc[2 * r + 1], _mm_mul_ps(av, b1));
                        }
                    }
                    for r in 0..4 {
                        let d = dst.add(r * dstride + oy * wo);
                        _mm_storeu_ps(d, acc[2 * r]);
                        _mm_storeu_ps(d.add(wo), acc[2 * r + 1]);
                    }
                    oy += 2;
                }
            }
        }
    }

    /// Single-channel remainder of [`rows4`].
    ///
    /// # Safety
    ///
    /// Same contract as [`rows4`] with one weight/output row.
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn rows1(
        w: *const f32,
        kk: usize,
        padded: &[f32],
        off: &[usize],
        wp: usize,
        ho: usize,
        wo: usize,
        dst: *mut f32,
    ) {
        let pd = padded.as_ptr();
        for oy in 0..ho {
            let oyw = oy * wp;
            match wo {
                16 => {
                    let mut a0 = _mm256_setzero_ps();
                    let mut a1 = _mm256_setzero_ps();
                    for (p, &o) in off.iter().enumerate().take(kk) {
                        let bp = pd.add(o + oyw);
                        let av = _mm256_broadcast_ss(&*w.add(p));
                        a0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp), a0);
                        a1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp.add(8)), a1);
                    }
                    let d = dst.add(oy * wo);
                    _mm256_storeu_ps(d, a0);
                    _mm256_storeu_ps(d.add(8), a1);
                }
                8 => {
                    let mut a0 = _mm256_setzero_ps();
                    for (p, &o) in off.iter().enumerate().take(kk) {
                        let av = _mm256_broadcast_ss(&*w.add(p));
                        a0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(pd.add(o + oyw)), a0);
                    }
                    _mm256_storeu_ps(dst.add(oy * wo), a0);
                }
                _ => {
                    let mut a0 = _mm_setzero_ps();
                    for (p, &o) in off.iter().enumerate().take(kk) {
                        let av = _mm_set1_ps(*w.add(p));
                        a0 = _mm_add_ps(a0, _mm_mul_ps(av, _mm_loadu_ps(pd.add(o + oyw))));
                    }
                    _mm_storeu_ps(dst.add(oy * wo), a0);
                }
            }
        }
    }
}

/// Convolution forward pass.
///
/// `input` is `[N, Cin, H, W]`, `weight` is `[Cout, Cin/g, k, k]`, `bias` is
/// `[Cout]` (optional). Returns `[N, Cout, Ho, Wo]`.
///
/// # Panics
///
/// Panics on any shape inconsistency with `spec`.
pub fn conv2d_forward(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: &Conv2dSpec,
) -> Tensor {
    let (n, cin, h, w) = nchw(input);
    assert_eq!(
        cin, spec.in_channels,
        "input channels {cin} != spec {}",
        spec.in_channels
    );
    assert_eq!(
        weight.shape().dims(),
        &spec.weight_shape(),
        "weight shape mismatch for {spec:?}"
    );
    if let Some(b) = bias {
        assert_eq!(b.numel(), spec.out_channels, "bias length mismatch");
    }
    let (ho, wo) = (spec.out_size(h), spec.out_size(w));
    let g = spec.groups;
    let (cg_in, cg_out) = (cin / g, spec.out_channels / g);
    let k = spec.kernel;
    let col_rows = cg_in * k * k;
    let howo = ho * wo;
    // All samples share one wide column matrix (`ld = n·ho·wo`), so each
    // group runs a single wide GEMM instead of one skinny GEMM per sample.
    // Every output element's reduction order over `col_rows` is unchanged,
    // so results are bitwise identical to the per-sample formulation on
    // the scalar path.
    #[cfg(target_arch = "x86_64")]
    if matches!(kernel::active_backend(), crate::Backend::Avx2Fma) && fused::supported(spec, wo, ho)
    {
        let mut out = Tensor::zeros([n, spec.out_channels, ho, wo]);
        fused::run(input, weight, &mut out, spec, n, cin, h, w, ho, wo);
        add_bias(&mut out, bias, spec, n, ho * wo);
        return out;
    }
    // Samples are processed in chunks sized so the shared column matrix
    // stays L2-resident (≈96 KiB): im2col writes it and the GEMM reads it
    // straight back while hot. One wide GEMM per (group, chunk) instead
    // of one skinny GEMM per sample.
    let chunk = (96 * 1024 / (col_rows * howo * 4)).clamp(1, n.max(1));
    let ld = pad_stride(chunk * howo);
    let mut out = Tensor::zeros([n, spec.out_channels, ho, wo]);
    let wdat = weight.data();
    FWD_SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        let (col_buf, gemm_buf) = &mut *scratch;
        let col = scratch_slice(col_buf, col_rows * ld);
        let gemm_out = scratch_slice(gemm_buf, cg_out * ld);
        let mut s0 = 0usize;
        while s0 < n {
            let sc = chunk.min(n - s0);
            for gi in 0..g {
                for si in 0..sc {
                    let s = s0 + si;
                    let in_s = &input.data()[s * cin * h * w..(s + 1) * cin * h * w];
                    im2col_ld(
                        &in_s[gi * cg_in * h * w..],
                        cg_in,
                        h,
                        w,
                        spec,
                        ho,
                        wo,
                        &mut col[si * howo..],
                        ld,
                    );
                }
                let w_g = &wdat[gi * cg_out * col_rows..(gi + 1) * cg_out * col_rows];
                // gemm_out[oc][si·howo + p] = Σ_r w_g[oc][r] * col[r][si·howo + p]
                kernel::sgemm_overwrite(w_g, col, gemm_out, cg_out, col_rows, ld, false, false);
                let od = out.data_mut();
                for si in 0..sc {
                    for oc in 0..cg_out {
                        let dst = ((s0 + si) * spec.out_channels + gi * cg_out + oc) * howo;
                        let src = oc * ld + si * howo;
                        od[dst..dst + howo].copy_from_slice(&gemm_out[src..src + howo]);
                    }
                }
            }
            s0 += sc;
        }
    });
    add_bias(&mut out, bias, spec, n, ho * wo);
    out
}

/// Adds the per-channel bias over all spatial positions.
fn add_bias(out: &mut Tensor, bias: Option<&Tensor>, spec: &Conv2dSpec, n: usize, howo: usize) {
    if let Some(b) = bias {
        let bd = b.data();
        let od = out.data_mut();
        for s in 0..n {
            for (oc, &bv) in bd.iter().enumerate() {
                let base = (s * spec.out_channels + oc) * howo;
                for o in &mut od[base..base + howo] {
                    *o += bv;
                }
            }
        }
    }
}

/// Gradients produced by [`conv2d_backward`].
#[derive(Debug)]
pub struct Conv2dGrads {
    /// Gradient w.r.t. the input, `[N, Cin, H, W]`.
    pub input: Tensor,
    /// Gradient w.r.t. the weight, `[Cout, Cin/g, k, k]`.
    pub weight: Tensor,
    /// Gradient w.r.t. the bias, `[Cout]`.
    pub bias: Tensor,
}

/// Convolution backward pass: given `d_out = ∂L/∂output`, returns gradients
/// w.r.t. input, weight, and bias.
///
/// # Panics
///
/// Panics on any shape inconsistency with `spec`.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    d_out: &Tensor,
    spec: &Conv2dSpec,
) -> Conv2dGrads {
    let (n, cin, h, w) = nchw(input);
    let (no, cout, ho, wo) = nchw(d_out);
    assert_eq!(n, no, "batch mismatch between input and d_out");
    assert_eq!(cout, spec.out_channels, "d_out channels mismatch");
    assert_eq!(
        (spec.out_size(h), spec.out_size(w)),
        (ho, wo),
        "d_out spatial mismatch"
    );
    let g = spec.groups;
    let (cg_in, cg_out) = (cin / g, cout / g);
    let k = spec.kernel;
    let col_rows = cg_in * k * k;
    let mut col = vec![0.0f32; col_rows * ho * wo];
    let mut dcol = vec![0.0f32; col_rows * ho * wo];
    let mut d_input = Tensor::zeros(input.shape());
    let mut d_weight = Tensor::zeros(weight.shape());
    let mut d_bias = Tensor::zeros([cout]);
    let wdat = weight.data();

    for s in 0..n {
        let in_s = &input.data()[s * cin * h * w..(s + 1) * cin * h * w];
        for gi in 0..g {
            im2col(
                &in_s[gi * cg_in * h * w..],
                cg_in,
                h,
                w,
                spec,
                ho,
                wo,
                &mut col,
            );
            let d_out_base = s * cout * ho * wo + gi * cg_out * ho * wo;
            let d_out_g = &d_out.data()[d_out_base..d_out_base + cg_out * ho * wo];
            let w_g = &wdat[gi * cg_out * col_rows..(gi + 1) * cg_out * col_rows];
            let dw_g =
                &mut d_weight.data_mut()[gi * cg_out * col_rows..(gi + 1) * cg_out * col_rows];
            // dW[oc][r] += Σ_p d_out[oc][p] * col[r][p]
            kernel::sgemm(d_out_g, &col, dw_g, cg_out, ho * wo, col_rows, false, true);
            // dcol[r][p] = Σ_oc w[oc][r] * d_out[oc][p]
            dcol.fill(0.0);
            kernel::sgemm(
                w_g,
                d_out_g,
                &mut dcol,
                col_rows,
                cg_out,
                ho * wo,
                true,
                false,
            );
            let din_base = s * cin * h * w + gi * cg_in * h * w;
            col2im(
                &dcol,
                cg_in,
                h,
                w,
                spec,
                ho,
                wo,
                &mut d_input.data_mut()[din_base..],
            );
        }
        // Bias gradient: sum over spatial positions.
        for oc in 0..cout {
            let base = (s * cout + oc) * ho * wo;
            let sum: f32 = d_out.data()[base..base + ho * wo].iter().sum();
            d_bias.data_mut()[oc] += sum;
        }
    }
    Conv2dGrads {
        input: d_input,
        weight: d_weight,
        bias: d_bias,
    }
}

fn nchw(t: &Tensor) -> (usize, usize, usize, usize) {
    assert_eq!(
        t.shape().ndim(),
        4,
        "expected NCHW tensor, got {}",
        t.shape()
    );
    let sh = t.shape();
    let d = sh.dims();
    (d[0], d[1], d[2], d[3])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Naive direct convolution used as a reference implementation.
    fn conv_naive(
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        spec: &Conv2dSpec,
    ) -> Tensor {
        let sh = input.shape();
        let d = sh.dims();
        let (n, _cin, h, w) = (d[0], d[1], d[2], d[3]);
        let (ho, wo) = (spec.out_size(h), spec.out_size(w));
        let g = spec.groups;
        let (cg_in, cg_out) = (spec.in_channels / g, spec.out_channels / g);
        let k = spec.kernel;
        let mut out = Tensor::zeros([n, spec.out_channels, ho, wo]);
        for s in 0..n {
            for gi in 0..g {
                for oc in 0..cg_out {
                    let oc_abs = gi * cg_out + oc;
                    for oy in 0..ho {
                        for ox in 0..wo {
                            let mut acc = bias.map_or(0.0, |b| b.data()[oc_abs]);
                            for ic in 0..cg_in {
                                let ic_abs = gi * cg_in + ic;
                                for ky in 0..k {
                                    for kx in 0..k {
                                        let iy = (oy * spec.stride + ky) as isize
                                            - spec.padding as isize;
                                        let ix = (ox * spec.stride + kx) as isize
                                            - spec.padding as isize;
                                        if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize
                                        {
                                            continue;
                                        }
                                        let iv = input.data()[((s * spec.in_channels + ic_abs)
                                            * h
                                            + iy as usize)
                                            * w
                                            + ix as usize];
                                        let wv = weight.data()
                                            [((oc_abs * cg_in + ic) * k + ky) * k + kx];
                                        acc += iv * wv;
                                    }
                                }
                            }
                            out.data_mut()
                                [((s * spec.out_channels + oc_abs) * ho + oy) * wo + ox] = acc;
                        }
                    }
                }
            }
        }
        out
    }

    fn close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() < tol, "{x} vs {y}");
        }
    }

    #[test]
    fn forward_matches_naive_dense() {
        let mut rng = StdRng::seed_from_u64(1);
        let spec = Conv2dSpec::new(3, 4, 3, 1, 1);
        let input = init::normal([2, 3, 5, 5], 0.0, 1.0, &mut rng);
        let weight = init::normal(spec.weight_shape(), 0.0, 0.5, &mut rng);
        let bias = init::normal([4], 0.0, 0.1, &mut rng);
        close(
            &conv2d_forward(&input, &weight, Some(&bias), &spec),
            &conv_naive(&input, &weight, Some(&bias), &spec),
            1e-4,
        );
    }

    #[test]
    fn forward_matches_naive_strided_grouped() {
        let mut rng = StdRng::seed_from_u64(2);
        let spec = Conv2dSpec::new(4, 6, 3, 2, 1).with_groups(2);
        let input = init::normal([1, 4, 7, 7], 0.0, 1.0, &mut rng);
        let weight = init::normal(spec.weight_shape(), 0.0, 0.5, &mut rng);
        close(
            &conv2d_forward(&input, &weight, None, &spec),
            &conv_naive(&input, &weight, None, &spec),
            1e-4,
        );
    }

    #[test]
    fn forward_matches_naive_depthwise() {
        let mut rng = StdRng::seed_from_u64(3);
        let spec = Conv2dSpec::new(4, 4, 3, 1, 1).with_groups(4);
        let input = init::normal([2, 4, 6, 6], 0.0, 1.0, &mut rng);
        let weight = init::normal(spec.weight_shape(), 0.0, 0.5, &mut rng);
        close(
            &conv2d_forward(&input, &weight, None, &spec),
            &conv_naive(&input, &weight, None, &spec),
            1e-4,
        );
    }

    /// Finite-difference check of the full backward pass.
    #[test]
    fn backward_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(4);
        let spec = Conv2dSpec::new(2, 3, 3, 2, 1);
        let input = init::normal([1, 2, 5, 5], 0.0, 1.0, &mut rng);
        let weight = init::normal(spec.weight_shape(), 0.0, 0.5, &mut rng);
        // Loss = sum(output * seed) for a fixed random seed tensor.
        let out = conv2d_forward(&input, &weight, None, &spec);
        let seed = init::normal(out.shape(), 0.0, 1.0, &mut rng);
        let grads = conv2d_backward(&input, &weight, &seed, &spec);

        let eps = 1e-3f32;
        // Check a sample of weight coordinates.
        for idx in [0usize, 5, 11, 17] {
            let mut wp = weight.clone();
            wp.data_mut()[idx] += eps;
            let mut wm = weight.clone();
            wm.data_mut()[idx] -= eps;
            let lp = conv2d_forward(&input, &wp, None, &spec).dot(&seed);
            let lm = conv2d_forward(&input, &wm, None, &spec).dot(&seed);
            let fd = ((lp - lm) / (2.0 * eps as f64)) as f32;
            let an = grads.weight.data()[idx];
            assert!(
                (fd - an).abs() < 2e-2,
                "weight[{idx}]: fd={fd} analytic={an}"
            );
        }
        // Check a sample of input coordinates.
        for idx in [0usize, 7, 23, 49] {
            let mut ip = input.clone();
            ip.data_mut()[idx] += eps;
            let mut im = input.clone();
            im.data_mut()[idx] -= eps;
            let lp = conv2d_forward(&ip, &weight, None, &spec).dot(&seed);
            let lm = conv2d_forward(&im, &weight, None, &spec).dot(&seed);
            let fd = ((lp - lm) / (2.0 * eps as f64)) as f32;
            let an = grads.input.data()[idx];
            assert!(
                (fd - an).abs() < 2e-2,
                "input[{idx}]: fd={fd} analytic={an}"
            );
        }
    }

    #[test]
    fn bias_gradient_sums_spatial_positions() {
        let spec = Conv2dSpec::new(1, 1, 1, 1, 0);
        let input = Tensor::full([1, 1, 2, 2], 1.0);
        let weight = Tensor::full(spec.weight_shape(), 1.0);
        let d_out = Tensor::full([1, 1, 2, 2], 0.5);
        let grads = conv2d_backward(&input, &weight, &d_out, &spec);
        assert_eq!(grads.bias.data(), &[2.0]);
    }

    #[test]
    fn out_size_arithmetic() {
        let spec = Conv2dSpec::new(1, 1, 3, 2, 1);
        assert_eq!(spec.out_size(7), 4);
        assert_eq!(spec.out_size(8), 4);
        let s1 = Conv2dSpec::new(1, 1, 1, 1, 0);
        assert_eq!(s1.out_size(16), 16);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn bad_groups_panics() {
        let _ = Conv2dSpec::new(3, 4, 3, 1, 1).with_groups(2);
    }
}
