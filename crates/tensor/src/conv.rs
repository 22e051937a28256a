//! 2-D convolution kernels (forward and backward) via im2col, with fused
//! and direct forward kernels on the AVX2 backend ([`conv2d_path`]).
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

/// Copies `channels` planes of `h×w` from `src` into the interior of the
/// zero-bordered image `padded` (`[channels, h+2·pad, w+2·pad]`). Only
/// interior cells are written, so borders zeroed once stay zero for every
/// later sample staged into the same buffer.
#[cfg(target_arch = "x86_64")]
fn stage_padded(src: &[f32], channels: usize, h: usize, w: usize, pad: usize, padded: &mut [f32]) {
    let (hp, wp) = (h + 2 * pad, w + 2 * pad);
    assert!(src.len() >= channels * h * w, "input slice too short");
    assert!(
        padded.len() >= channels * hp * wp,
        "staging buffer too short"
    );
    for c in 0..channels {
        for iy in 0..h {
            // SAFETY: source row `(c, iy)` lies in the `channels·h·w`
            // prefix of `src`; destination row `iy + pad` at column `pad`
            // stays inside plane `c` and leaves `pad` zeros on each side.
            unsafe {
                copy_floats(
                    src.as_ptr().add((c * h + iy) * w),
                    padded.as_mut_ptr().add(c * hp * wp + (iy + pad) * wp + pad),
                    w,
                );
            }
        }
    }
}

/// Fused implicit-im2col convolution for the AVX2 backend: stages each
/// sample into a small zero-padded image and runs a register-blocked
/// kernel straight out of it through a precomputed offsets table — the
/// 9×-inflated column matrix is never materialized. Stride-1 only;
/// each output element accumulates its `cg·k·k` terms from +0 in
/// ascending order, padded taps included (the same order as the scalar
/// reference): fused multiply-adds at output width 8 and 16, a multiply
/// then an add at width 4.
///
/// Every pass computes 16 outputs of up to 6 output channels per
/// iteration, two 8-float vectors per channel (12 accumulators): one
/// 16-wide row, two 8-wide rows, or four 4-wide rows. For width 4 each
/// padded channel is first copied into `k` shifted strips,
/// `strip[c][kx][y][0..4] = padded[c][y][kx..kx+4]`, so a tap's inputs
/// for consecutive output rows are contiguous.
#[cfg(target_arch = "x86_64")]
mod fused {
    use super::{stage_padded, Conv2dSpec, Tensor};
    use std::arch::x86_64::*;
    use std::cell::RefCell;

    /// Output channels per pass at most.
    const PASS: usize = 6;

    /// Buffers reused across calls.
    struct Stage {
        /// The sample's zero-padded image `[cin][h+2·pad][w+2·pad]`.
        padded: Vec<f32>,
        /// Width 4 only: the shifted strips `[cin][k][rows][4]`, where
        /// `rows` is the output rows rounded up to 4, plus `k − 1`.
        strips: Vec<f32>,
        /// Offset of each tap `(c, ky, kx)` in the image a pass reads.
        off: Vec<usize>,
    }

    thread_local! {
        static STAGE: RefCell<Stage> = const {
            RefCell::new(Stage {
                padded: Vec::new(),
                strips: Vec::new(),
                off: Vec::new(),
            })
        };
    }

    /// Whether [`run`] supports this geometry (caller has already checked
    /// that the AVX2 backend is active).
    pub(super) fn supported(spec: &Conv2dSpec, wo: usize, ho: usize) -> bool {
        spec.stride == 1 && matches!(wo, 4 | 8 | 16) && (wo == 16 || ho.is_multiple_of(2))
    }

    /// Runs the fused convolution. Every output element is written
    /// exactly once.
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
        // The bounds in the safety argument below rest on this.
        assert_eq!(
            (ho, wo, hp),
            (spec.out_size(h), spec.out_size(w), ho + k - 1)
        );
        let kk = cg * k * k;
        let howo = ho * wo;
        // Strip rows per (c, kx): the last pass of a 2-row remainder reads
        // two zero rows past the image.
        let rows = ho.next_multiple_of(4) + k - 1;
        // Floats a pass advances per iteration, and the offset of its
        // second vector.
        let (step, second) = match wo {
            16 => (wp, 8),
            8 => (2 * wp, wp),
            _ => (16, 8),
        };
        let passes = cg_out.div_ceil(PASS);
        STAGE.with(|stage| {
            let mut stage = stage.borrow_mut();
            let Stage {
                padded,
                strips,
                off,
            } = &mut *stage;
            padded.clear();
            padded.resize(cin * hp * wp, 0.0);
            strips.clear();
            if wo == 4 {
                strips.resize(cin * k * rows * 4, 0.0);
            }
            // Floats per channel of the image a pass reads.
            let chan = if wo == 4 { k * rows * 4 } else { hp * wp };
            off.clear();
            for c in 0..cg {
                for ky in 0..k {
                    for kx in 0..k {
                        let tap = if wo == 4 {
                            (kx * rows + ky) * 4
                        } else {
                            ky * wp + kx
                        };
                        off.push(c * chan + tap);
                    }
                }
            }
            let wdat = weight.data();
            let indat = input.data();
            let od = out.data_mut();
            for s in 0..n {
                stage_padded(&indat[s * cin * h * w..], cin, h, w, pad, padded);
                let img = if wo == 4 {
                    stage_strips(padded, hp * wp, wp, k, rows, strips);
                    &strips[..]
                } else {
                    &padded[..]
                };
                for gi in 0..g {
                    let img = &img[gi * cg * chan..(gi + 1) * cg * chan];
                    let out_base = (s * spec.out_channels + gi * cg_out) * howo;
                    for i in 0..passes {
                        // Passes of as equal a size as 6 channels allow.
                        let (lo, hi) = (i * cg_out / passes, (i + 1) * cg_out / passes);
                        let pass = if wo == 4 {
                            MUL_ADD_PASSES[hi - lo - 1]
                        } else {
                            FMA_PASSES[hi - lo - 1]
                        };
                        // SAFETY: AVX2+FMA availability is the caller's
                        // dispatch condition. Iteration `j` of a pass reads
                        // `off[p] + j·step` and `+ second` for 8 floats of
                        // the group's `cg·chan` image: in the padded image
                        // the largest read ends at `off[kk-1] + (ho-1)·wp +
                        // wo`, its length for stride 1; in the strips it
                        // ends at `((cg·k-1)·rows + k-1)·4 + (ho/4 rounded
                        // up − 1)·16 + 16`, their length. The destination is
                        // rows `lo..hi` of this group's `cg_out·ho·wo` block
                        // of `out`.
                        unsafe {
                            pass(
                                wdat.as_ptr().add((gi * cg_out + lo) * kk),
                                kk,
                                img.as_ptr(),
                                off,
                                step,
                                second,
                                od.as_mut_ptr().add(out_base + lo * howo),
                                howo,
                            );
                        }
                    }
                }
            }
        });
    }

    /// Copies each `hp × wp` plane of `padded` into its `k` width-4
    /// strips of `rows` rows: `strips[c][kx][y][0..4] =
    /// padded[c][y][kx..kx+4]`. Rows past the plane are never written, so
    /// they keep the zeros the buffer was sized with.
    fn stage_strips(
        padded: &[f32],
        plane: usize,
        wp: usize,
        k: usize,
        rows: usize,
        strips: &mut [f32],
    ) {
        let mut strips = strips.chunks_exact_mut(rows * 4);
        for plane in padded.chunks_exact(plane) {
            for kx in 0..k {
                let strip = strips.next().expect("one strip per (c, kx)");
                for (dst, row) in strip.chunks_exact_mut(4).zip(plane.chunks_exact(wp)) {
                    dst.copy_from_slice(&row[kx..kx + 4]);
                }
            }
        }
    }

    type Pass = unsafe fn(*const f32, usize, *const f32, &[usize], usize, usize, *mut f32, usize);

    /// [`pass`] for 1–6 channels with fused multiply-adds (width 8, 16).
    const FMA_PASSES: [Pass; PASS] = [
        pass::<1, true>,
        pass::<2, true>,
        pass::<3, true>,
        pass::<4, true>,
        pass::<5, true>,
        pass::<6, true>,
    ];

    /// [`pass`] for 1–6 channels with a multiply then an add (width 4).
    const MUL_ADD_PASSES: [Pass; PASS] = [
        pass::<1, false>,
        pass::<2, false>,
        pass::<3, false>,
        pass::<4, false>,
        pass::<5, false>,
        pass::<6, false>,
    ];

    /// `R` output channels over the staged image: each iteration `j`
    /// accumulates 16 outputs per channel, from the 8 floats at
    /// `img + off[p] + j·step` and at `+ second` for every tap `p`, and
    /// stores them at `16·j` of the channel's row (the second vector only
    /// where the row has room for it).
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA; `w` valid for `R` rows of `kk`, `dst` for `R`
    /// rows of `howo` (a multiple of 8); reads in bounds per [`run`].
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn pass<const R: usize, const FMA: bool>(
        w: *const f32,
        kk: usize,
        img: *const f32,
        off: &[usize],
        step: usize,
        second: usize,
        dst: *mut f32,
        howo: usize,
    ) {
        let mut base = img;
        let mut q = 0;
        while q < howo {
            let mut acc = [[_mm256_setzero_ps(); 2]; R];
            for (p, &o) in off.iter().enumerate() {
                let bp = base.add(o);
                let x = [_mm256_loadu_ps(bp), _mm256_loadu_ps(bp.add(second))];
                for (r, row) in acc.iter_mut().enumerate() {
                    let wv = _mm256_broadcast_ss(&*w.add(r * kk + p));
                    for (a, &x) in row.iter_mut().zip(&x) {
                        *a = if FMA {
                            _mm256_fmadd_ps(wv, x, *a)
                        } else {
                            _mm256_add_ps(*a, _mm256_mul_ps(wv, x))
                        };
                    }
                }
            }
            for (r, row) in acc.iter().enumerate() {
                let d = dst.add(r * howo + q);
                _mm256_storeu_ps(d, row[0]);
                if q + 8 < howo {
                    _mm256_storeu_ps(d.add(8), row[1]);
                }
            }
            base = base.add(step);
            q += 16;
        }
    }
}

/// Direct convolution for the AVX2 backend, for the dense convs the fused
/// kernel rejects (strided, 1×1-downsample, and output widths other than
/// 4/8/16). Each sample is staged once into a zero-padded image; the
/// weights are transposed to `[cin·k·k][cout rounded up to 8]` so eight
/// output channels share one register, and each pass advances 4 output
/// pixels (8 when at most 8 channels remain), which keeps up to 8
/// independent FMA chains in flight. No column matrix is built.
///
/// The transposed weights are kept per thread, keyed by the weight's
/// content id ([`Tensor::id`]), for the `PACKS` most
/// recently used weights: a probe sweep restores every weight it perturbs
/// from its snapshot, which gives back the snapshot's id, so a pristine
/// layer is transposed once per thread rather than once per call.
///
/// Every output is the chain the im2col GEMM computes for it: `fma` over
/// the `(c, ky, kx)` taps in ascending order from +0, padded taps
/// included. [`supported`] admits only geometries where the GEMM runs
/// that chain unsplit: on the blocked kernel (`cout ≥ SKINNY_M_MAX`) the
/// depth must fit one `KC` block, whose sum the GEMM adds to a zeroed
/// output (so a −0 chain lands as +0, and [`run`] adds +0 likewise); and
/// the product must not fall below `SIMD_FLOP_THRESHOLD`, where the GEMM
/// runs scalar multiply-then-add.
#[cfg(target_arch = "x86_64")]
mod direct {
    use super::{im2col_chunk, stage_padded, Conv2dSpec, Tensor};
    use crate::kernel::{KC, SIMD_FLOP_THRESHOLD, SKINNY_M_MAX};
    use std::arch::x86_64::*;
    use std::cell::RefCell;

    /// Transposed weights kept per thread, most recently used first. A
    /// sweep's suffix forwards cycle through the direct-path layers
    /// after the probed one, and each probe adds a perturbed weight seen
    /// only for a while; on resnet34-mini (8-sample sweep) an LRU of 16
    /// misses 13% of calls against 12% for 64 and 37% for 8, and holds
    /// at most 134 KB against 462 KB for 64.
    const PACKS: usize = 16;

    /// One weight tensor transposed to `[cin·k·k][lanes]`.
    struct Pack {
        /// Content id of the weight it was transposed from.
        id: u64,
        /// `cin·k·k`.
        kk: usize,
        /// `cout` rounded up to 8.
        lanes: usize,
        wt: Vec<f32>,
    }

    /// Buffers reused across calls.
    struct Stage {
        /// The sample's zero-padded image `[cin][h+2·pad][w+2·pad]`
        /// (unused when `pad == 0`: the sample is read in place).
        padded: Vec<f32>,
        /// At most [`PACKS`] transposed weights, most recently used first.
        packs: Vec<Pack>,
        /// Image offset of each tap `(c, ky, kx)`.
        off: Vec<usize>,
        /// Image offset of each output pixel's first tap.
        pix: Vec<usize>,
    }

    thread_local! {
        static STAGE: RefCell<Stage> = const {
            RefCell::new(Stage {
                padded: Vec::new(),
                packs: Vec::new(),
                off: Vec::new(),
                pix: Vec::new(),
            })
        };
    }

    /// Moves `weight`'s transposed pack to the front of `packs`,
    /// transposing it first (and forgetting the least recently used pack
    /// once [`PACKS`] are kept) when no pack has its id and layout. Each
    /// pack is sized to its own weight.
    fn pack_to_front(packs: &mut Vec<Pack>, weight: &Tensor, kk: usize, lanes: usize) {
        let key = (weight.id(), kk, lanes);
        let at = match packs.iter().position(|p| (p.id, p.kk, p.lanes) == key) {
            Some(at) => at,
            None => {
                packs.truncate(PACKS - 1);
                // wt[p][oc] = weight[oc][p]; lanes past `cout` stay zero.
                let mut wt = vec![0.0; kk * lanes];
                for (oc, row) in weight.data().chunks_exact(kk).enumerate() {
                    for (p, &v) in row.iter().enumerate() {
                        wt[p * lanes + oc] = v;
                    }
                }
                let (id, kk, lanes) = key;
                packs.push(Pack { id, kk, lanes, wt });
                packs.len() - 1
            }
        };
        packs[..=at].rotate_right(1);
    }

    /// Whether [`run`] computes bitwise what the im2col path would for
    /// this geometry at batch `n` (caller has already checked that the
    /// AVX2 backend is active and the fused kernel declined).
    pub(super) fn supported(spec: &Conv2dSpec, n: usize, howo: usize) -> bool {
        let kk = spec.in_channels * spec.kernel * spec.kernel;
        let m = spec.out_channels;
        let (_, ld) = im2col_chunk(n, kk, howo);
        spec.groups == 1 && (m < SKINNY_M_MAX || kk <= KC) && m * kk * ld >= SIMD_FLOP_THRESHOLD
    }

    /// Runs the direct convolution. Every output element is written
    /// exactly once.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn run(
        input: &Tensor,
        weight: &Tensor,
        out: &mut Tensor,
        spec: &Conv2dSpec,
        n: usize,
        h: usize,
        w: usize,
        ho: usize,
        wo: usize,
    ) {
        let (cin, cout, k, stride, pad) = (
            spec.in_channels,
            spec.out_channels,
            spec.kernel,
            spec.stride,
            spec.padding,
        );
        // The tap bound in `sample`'s safety argument rests on this.
        assert_eq!((ho, wo), (spec.out_size(h), spec.out_size(w)));
        let (hp, wp) = (h + 2 * pad, w + 2 * pad);
        let kk = cin * k * k;
        let howo = ho * wo;
        let lanes = cout.next_multiple_of(8);
        STAGE.with(|stage| {
            let mut stage = stage.borrow_mut();
            let Stage {
                padded,
                packs,
                off,
                pix,
            } = &mut *stage;
            padded.clear();
            if pad > 0 {
                padded.resize(cin * hp * wp, 0.0);
            }
            pack_to_front(packs, weight, kk, lanes);
            let wt = &packs[0].wt;
            off.clear();
            for c in 0..cin {
                for ky in 0..k {
                    for kx in 0..k {
                        off.push(c * hp * wp + ky * wp + kx);
                    }
                }
            }
            pix.clear();
            for oy in 0..ho {
                for ox in 0..wo {
                    pix.push(oy * stride * wp + ox * stride);
                }
            }
            let indat = input.data();
            let od = out.data_mut();
            for s in 0..n {
                let src = &indat[s * cin * h * w..(s + 1) * cin * h * w];
                let img: &[f32] = if pad == 0 {
                    src
                } else {
                    stage_padded(src, cin, h, w, pad, padded);
                    padded
                };
                // SAFETY: AVX2+FMA availability is the caller's dispatch
                // condition. `wt` holds `kk` rows of `lanes ≥ cout` floats;
                // every tap `off[p] + pix[q]` stays inside the image of
                // `cin·hp·wp` floats, staged or read in place (its largest
                // value is that of the last output pixel's last tap, which
                // the output-size formula keeps in bounds); the destination
                // is this sample's `cout·ho·wo` block of `out`.
                unsafe {
                    sample(
                        wt,
                        lanes,
                        img,
                        off,
                        pix,
                        cout,
                        od[s * cout * howo..(s + 1) * cout * howo].as_mut_ptr(),
                    );
                }
            }
        });
    }

    /// One sample: output channels in groups of 16 (8 once at most 8
    /// remain), pixels 4 at a time (8 for a group of 8, so it too keeps 8
    /// chains), then one at a time.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA and the bounds [`run`] establishes.
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn sample(
        wt: &[f32],
        lanes: usize,
        img: &[f32],
        off: &[usize],
        pix: &[usize],
        cout: usize,
        dst: *mut f32,
    ) {
        // The blocked GEMM adds its sum to a zeroed output; the skinny one
        // stores it. Only the former turns a −0 sum into +0.
        let plus_zero = cout >= SKINNY_M_MAX;
        let howo = pix.len();
        let mut oc = 0;
        while oc < cout {
            let live = (cout - oc).min(16);
            let w0 = wt.as_ptr().add(oc);
            let d0 = dst.add(oc * howo);
            let mut q = 0;
            if live <= 8 {
                while q + 8 <= howo {
                    let px = &pix[q..q + 8];
                    tile::<8, 1>(w0, lanes, img, off, px, d0.add(q), howo, live, plus_zero);
                    q += 8;
                }
            }
            while q + 4 <= howo {
                let px = &pix[q..q + 4];
                if live > 8 {
                    tile::<4, 2>(w0, lanes, img, off, px, d0.add(q), howo, live, plus_zero);
                } else {
                    tile::<4, 1>(w0, lanes, img, off, px, d0.add(q), howo, live, plus_zero);
                }
                q += 4;
            }
            while q < howo {
                let px = &pix[q..q + 1];
                if live > 8 {
                    tile::<1, 2>(w0, lanes, img, off, px, d0.add(q), howo, live, plus_zero);
                } else {
                    tile::<1, 1>(w0, lanes, img, off, px, d0.add(q), howo, live, plus_zero);
                }
                q += 1;
            }
            oc += live;
        }
    }

    /// `P` pixels × `B` groups of 8 output channels: `P·B` independent
    /// FMA chains over all taps, then a scatter of the `live` real
    /// channels into the `[cout][ho·wo]` output at row stride `howo`.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA; `w` valid for `off.len()` rows of `8·B` floats
    /// at stride `lanes`; every `off[p] + px[j]` inside `img`; `dst` valid
    /// for `live` rows of `P` floats at stride `howo`.
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
    #[inline]
    unsafe fn tile<const P: usize, const B: usize>(
        w: *const f32,
        lanes: usize,
        img: &[f32],
        off: &[usize],
        px: &[usize],
        dst: *mut f32,
        howo: usize,
        live: usize,
        plus_zero: bool,
    ) {
        let mut base = [img.as_ptr(); P];
        for (b, &q) in base.iter_mut().zip(px) {
            *b = img.as_ptr().add(q);
        }
        let mut acc = [[_mm256_setzero_ps(); B]; P];
        for (p, &o) in off.iter().enumerate() {
            let wrow = w.add(p * lanes);
            let mut wv = [_mm256_setzero_ps(); B];
            for (b, v) in wv.iter_mut().enumerate() {
                *v = _mm256_loadu_ps(wrow.add(8 * b));
            }
            for (row, &bp) in acc.iter_mut().zip(&base) {
                let x = _mm256_broadcast_ss(&*bp.add(o));
                for (a, &wb) in row.iter_mut().zip(&wv) {
                    *a = _mm256_fmadd_ps(x, wb, *a);
                }
            }
        }
        if plus_zero {
            for row in &mut acc {
                for v in row {
                    *v = _mm256_add_ps(_mm256_setzero_ps(), *v);
                }
            }
        }
        for b in 0..B {
            let live = live.saturating_sub(8 * b).min(8);
            let dst = dst.add(8 * b * howo);
            if P.is_multiple_of(4) {
                // 4 pixels × 8 channels → 8 channels × 4 pixels: each
                // channel's pixels are one 128-bit store.
                for g in (0..P).step_by(4) {
                    let t0 = _mm256_unpacklo_ps(acc[g][b], acc[g + 1][b]);
                    let t1 = _mm256_unpackhi_ps(acc[g][b], acc[g + 1][b]);
                    let t2 = _mm256_unpacklo_ps(acc[g + 2][b], acc[g + 3][b]);
                    let t3 = _mm256_unpackhi_ps(acc[g + 2][b], acc[g + 3][b]);
                    let rows = [
                        _mm256_shuffle_ps::<0x44>(t0, t2),
                        _mm256_shuffle_ps::<0xEE>(t0, t2),
                        _mm256_shuffle_ps::<0x44>(t1, t3),
                        _mm256_shuffle_ps::<0xEE>(t1, t3),
                    ];
                    let d = dst.add(g);
                    for (l, &r) in rows.iter().enumerate() {
                        if l < live {
                            _mm_storeu_ps(d.add(l * howo), _mm256_castps256_ps128(r));
                        }
                        if l + 4 < live {
                            _mm_storeu_ps(d.add((l + 4) * howo), _mm256_extractf128_ps::<1>(r));
                        }
                    }
                }
            } else {
                let mut lane = [0.0f32; 8];
                for j in 0..P {
                    _mm256_storeu_ps(lane.as_mut_ptr(), acc[j][b]);
                    for (l, &x) in lane.iter().enumerate().take(live) {
                        *dst.add(l * howo + j) = x;
                    }
                }
            }
        }
    }
}

/// The kernel [`conv2d_forward`] runs for one geometry.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvPath {
    /// AVX2 implicit im2col over a staged image (stride 1, output width
    /// 4, 8 or 16).
    Fused,
    /// AVX2 direct convolution, output channels across the lanes (dense
    /// convs the fused kernel rejects, where the result is bitwise the
    /// GEMM's).
    Direct,
    /// Column matrix + [`kernel::sgemm_overwrite`]: every other conv, and
    /// every conv on the scalar backend.
    Im2col,
}

/// The path [`conv2d_forward`] takes for `spec` on an `[n, _, h, w]`
/// input on the active backend. Public (hidden) so the property suite can
/// check that the geometries it pins really reach each kernel.
#[doc(hidden)]
pub fn conv2d_path(spec: &Conv2dSpec, n: usize, h: usize, w: usize) -> ConvPath {
    #[cfg(target_arch = "x86_64")]
    if matches!(kernel::active_backend(), crate::Backend::Avx2Fma) {
        let (ho, wo) = (spec.out_size(h), spec.out_size(w));
        if fused::supported(spec, wo, ho) {
            return ConvPath::Fused;
        }
        if direct::supported(spec, n, ho * wo) {
            return ConvPath::Direct;
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (spec, n, h, w);
    ConvPath::Im2col
}

/// Samples per im2col chunk and the row stride of the shared column
/// matrix. Chunks are sized so the column matrix stays L2-resident
/// (≈96 KiB): im2col writes it and the GEMM reads it straight back while
/// hot. The direct path reads the stride too, because it fixes the size
/// of the GEMM the im2col path would issue.
fn im2col_chunk(n: usize, col_rows: usize, howo: usize) -> (usize, usize) {
    let chunk = (96 * 1024 / (col_rows * howo * 4)).clamp(1, n.max(1));
    (chunk, pad_stride(chunk * howo))
}

/// Checks `input`, `weight` and `bias` against `spec`; returns the input
/// dims `(n, cin, h, w)` and the output size `(ho, wo)`.
fn check_forward(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: &Conv2dSpec,
) -> ((usize, usize, usize, usize), (usize, usize)) {
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
    ((n, cin, h, w), (spec.out_size(h), spec.out_size(w)))
}

/// Convolution forward pass.
///
/// `input` is `[N, Cin, H, W]`, `weight` is `[Cout, Cin/g, k, k]`, `bias` is
/// `[Cout]` (optional). Returns `[N, Cout, Ho, Wo]`. The kernel is picked
/// by [`conv2d_path`]; the direct path's output is bitwise that of
/// [`conv2d_forward_im2col`].
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
    let ((n, cin, h, w), (ho, wo)) = check_forward(input, weight, bias, spec);
    let mut out = Tensor::zeros([n, spec.out_channels, ho, wo]);
    match conv2d_path(spec, n, h, w) {
        #[cfg(target_arch = "x86_64")]
        ConvPath::Fused => fused::run(input, weight, &mut out, spec, n, cin, h, w, ho, wo),
        #[cfg(target_arch = "x86_64")]
        ConvPath::Direct => direct::run(input, weight, &mut out, spec, n, h, w, ho, wo),
        _ => im2col_gemm(input, weight, &mut out, spec, n, cin, h, w, ho, wo),
    }
    add_bias(&mut out, bias, spec, n, ho * wo);
    out
}

/// [`conv2d_forward`] on the im2col + [`kernel::sgemm_overwrite`] path
/// whatever the backend and geometry: the reference the direct path must
/// match bit for bit. Public (hidden) so the property suite can pin that.
///
/// # Panics
///
/// Panics on any shape inconsistency with `spec`.
#[doc(hidden)]
pub fn conv2d_forward_im2col(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: &Conv2dSpec,
) -> Tensor {
    let ((n, cin, h, w), (ho, wo)) = check_forward(input, weight, bias, spec);
    let mut out = Tensor::zeros([n, spec.out_channels, ho, wo]);
    im2col_gemm(input, weight, &mut out, spec, n, cin, h, w, ho, wo);
    add_bias(&mut out, bias, spec, n, ho * wo);
    out
}

/// The im2col convolution: samples are processed in chunks
/// ([`im2col_chunk`]) that share one wide column matrix (`ld ≥
/// chunk·ho·wo`), so each (group, chunk) runs a single wide GEMM instead
/// of one skinny GEMM per sample. Every output element's reduction order
/// over the column rows is that of the per-sample formulation.
#[allow(clippy::too_many_arguments)]
fn im2col_gemm(
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
    let g = spec.groups;
    let (cg_in, cg_out) = (cin / g, spec.out_channels / g);
    let k = spec.kernel;
    let col_rows = cg_in * k * k;
    let howo = ho * wo;
    let (chunk, ld) = im2col_chunk(n, col_rows, howo);
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
