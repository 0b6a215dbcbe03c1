//! 2-D convolution: direct (reference), and fast separable convolution for
//! the radially symmetric Gaussian kernels used by the optical model.
//!
//! All convolutions use "same" output size with zero padding, which models a
//! mask embedded in an empty (chrome) surround.
//!
//! The separable convolution has two implementations that agree bit for
//! bit (DESIGN.md §13): the scalar reference, a row pass then a column
//! pass, and the SIMD kernel, one transposing row kernel run once per axis
//! that skips the taps falling wholly in the zero padding, on AVX-512, AVX2
//! or SSE2 vectors (see the SIMD section below for the argument).

use ldmo_geom::Grid;

/// Direct 2-D convolution of `input` with a dense `kernel`, same-size output,
/// zero padding. `O(W·H·kw·kh)` — the reference implementation used to
/// validate the separable and FFT fast paths, and for non-separable kernels.
///
/// The kernel is indexed `kernel[ky * kw + kx]` and is *centered*: taps run
/// from `-(kw/2)` to `kw - kw/2 - 1` relative to the output pixel
/// (convolution flips the kernel; for the symmetric kernels used here
/// convolution and correlation coincide).
///
/// # Panics
///
/// Panics if `kernel.len() != kw * kh` or either kernel dimension is even
/// (centered kernels must be odd-sized).
pub fn convolve2d_direct(input: &Grid, kernel: &[f32], kw: usize, kh: usize) -> Grid {
    assert_eq!(kernel.len(), kw * kh, "kernel buffer length mismatch");
    assert!(kw % 2 == 1 && kh % 2 == 1, "kernel must be odd-sized");
    let (w, h) = input.shape();
    let (cx, cy) = ((kw / 2) as i64, (kh / 2) as i64);
    let mut out = Grid::zeros(w, h);
    for y in 0..h {
        for x in 0..w {
            let mut acc = 0.0f32;
            for ky in 0..kh {
                for kx in 0..kw {
                    // convolution: out(x,y) = sum in(x - (kx - cx), y - (ky - cy)) * k(kx, ky)
                    let sx = x as i64 - (kx as i64 - cx);
                    let sy = y as i64 - (ky as i64 - cy);
                    acc += input.get_padded(sx, sy) * kernel[ky * kw + kx];
                }
            }
            out.set(x, y, acc);
        }
    }
    out
}

/// Separable convolution with a centered, odd-length 1-D `profile` applied
/// along x then along y: `input ⊗ (p pᵀ)`. `O(W·H·k)` per axis.
///
/// Thin wrapper over [`convolve_separable_into`] with transient buffers;
/// hot loops should hold the buffers and call the `_into` variant.
///
/// # Panics
///
/// Panics if `profile.len()` is even.
pub fn convolve_separable(input: &Grid, profile: &[f32]) -> Grid {
    let (w, h) = input.shape();
    let mut tmp = Grid::zeros(w, h);
    let mut out = Grid::zeros(w, h);
    convolve_separable_into(input, profile, &mut tmp, &mut out);
    out
}

/// Buffer-reuse variant of [`convolve_separable`]: `tmp` holds the
/// intermediate between the two passes (the SIMD passes store it
/// transposed), `out` the result. Neither buffer's prior contents matter;
/// both are fully overwritten.
///
/// Allocates the padded source strip the passes read from; hot loops hold a
/// [`crate::ConvScratch`] and call [`convolve_separable_padded_into`],
/// which is allocation-free.
///
/// Dispatches to the process-global [`crate::backend`] selection; every
/// in-tree backend is bit-identical, so the choice affects speed only.
///
/// # Panics
///
/// Panics if `profile.len()` is even or either buffer's shape differs from
/// `input`'s.
pub fn convolve_separable_into(input: &Grid, profile: &[f32], tmp: &mut Grid, out: &mut Grid) {
    convolve_separable_padded_into(input, profile, tmp, &mut Vec::new(), out);
}

/// [`convolve_separable_into`] with a caller-owned `pad` for the padded
/// source strip. `pad` grows once if it is too short for the grid and
/// profile (a [`crate::ConvScratch`]'s `pad` is sized for its grid and the
/// bank's profiles up front); after that the call never allocates.
///
/// # Panics
///
/// As [`convolve_separable_into`].
pub fn convolve_separable_padded_into(
    input: &Grid,
    profile: &[f32],
    tmp: &mut Grid,
    pad: &mut Vec<f32>,
    out: &mut Grid,
) {
    if ldmo_obs::enabled() {
        conv_pass_counter().incr();
    }
    crate::backend::active().convolve_separable_into(input, profile, tmp, pad, out);
}

/// Telemetry: one count per separable convolution pass (row + column
/// sweep). Registered once; recording is a single relaxed atomic add, so
/// the zero-allocation hot path (DESIGN.md §6) stays allocation-free.
fn conv_pass_counter() -> ldmo_obs::Counter {
    static COUNTER: std::sync::OnceLock<ldmo_obs::Counter> = std::sync::OnceLock::new();
    *COUNTER.get_or_init(|| ldmo_obs::counter("litho.conv_passes"))
}

/// Correlation with a separable symmetric kernel. For the symmetric Gaussian
/// profiles used here this is identical to [`convolve_separable`]; it exists
/// so gradient code can state its intent (backpropagation through a
/// convolution is a correlation with the same kernel).
pub fn correlate_separable(input: &Grid, profile: &[f32]) -> Grid {
    // A symmetric profile equals its own flip, so correlation == convolution.
    convolve_separable(input, profile)
}

/// Buffer-reuse variant of [`correlate_separable`]; see
/// [`convolve_separable_into`].
pub fn correlate_separable_into(input: &Grid, profile: &[f32], tmp: &mut Grid, out: &mut Grid) {
    convolve_separable_into(input, profile, tmp, out);
}

/// Output tile width of the scalar register-blocked passes: the
/// accumulator tile stays in registers across the whole tap loop, so the
/// output row is written exactly once instead of once per tap.
const TILE: usize = 32;

/// The scalar row pass of the register-blocked separable convolution — the
/// reference implementation every backend must reproduce bit-for-bit.
/// `pad` holds the zero-padded source row and grows to `width + 2·radius`
/// if it is shorter.
pub(crate) fn convolve_rows_scalar(
    input: &Grid,
    profile: &[f32],
    out: &mut Grid,
    pad: &mut Vec<f32>,
) {
    assert!(profile.len() % 2 == 1, "profile must be odd-length");
    assert_eq!(input.shape(), out.shape(), "output shape mismatch");
    let (w, h) = input.shape();
    let k_len = profile.len();
    let c = k_len / 2;
    let src = input.as_slice();
    let dst = out.as_mut_slice();
    // zero-padded row: out-of-range taps read an exact 0.0 instead of
    // branching, which keeps every tile iteration branch-free
    let padded_len = w + 2 * c;
    if pad.len() < padded_len {
        pad.resize(padded_len, 0.0);
    }
    let padded = &mut pad[..padded_len];
    padded.fill(0.0);
    for y in 0..h {
        padded[c..c + w].copy_from_slice(&src[y * w..(y + 1) * w]);
        let out_row = &mut dst[y * w..(y + 1) * w];
        // out[x] = Σ_k p[k] · row[x - (k - c)] = Σ_k p[k] · padded[x + 2c - k],
        // accumulated in increasing-k order per element (the same order as
        // a tap-at-a-time pass over a zeroed output)
        let mut x = 0;
        while x + TILE <= w {
            let mut acc = [0.0f32; TILE];
            for (k, &p) in profile.iter().enumerate() {
                let s = &padded[x + 2 * c - k..x + 2 * c - k + TILE];
                for j in 0..TILE {
                    acc[j] += s[j] * p;
                }
            }
            out_row[x..x + TILE].copy_from_slice(&acc);
            x += TILE;
        }
        for (xr, o) in out_row.iter_mut().enumerate().skip(x) {
            let mut a = 0.0f32;
            for (k, &p) in profile.iter().enumerate() {
                a += padded[xr + 2 * c - k] * p;
            }
            *o = a;
        }
    }
}

/// The scalar column pass; see [`convolve_rows_scalar`].
pub(crate) fn convolve_cols_scalar(input: &Grid, profile: &[f32], out: &mut Grid) {
    assert!(profile.len() % 2 == 1, "profile must be odd-length");
    assert_eq!(input.shape(), out.shape(), "output shape mismatch");
    let (w, h) = input.shape();
    let k_len = profile.len();
    let c = k_len as i64 / 2;
    let src = input.as_slice();
    let dst = out.as_mut_slice();
    for y in 0..h {
        let out_row = &mut dst[y * w..(y + 1) * w];
        // out(x, y) = Σ_k p[k] · in(x, y - (k - c)); out-of-range source
        // rows contribute nothing, and k stays increasing per element
        let mut x = 0;
        while x + TILE <= w {
            let mut acc = [0.0f32; TILE];
            for (k, &p) in profile.iter().enumerate() {
                let sy = y as i64 - (k as i64 - c);
                if sy < 0 || sy as usize >= h {
                    continue;
                }
                let s = &src[sy as usize * w + x..sy as usize * w + x + TILE];
                for j in 0..TILE {
                    acc[j] += s[j] * p;
                }
            }
            out_row[x..x + TILE].copy_from_slice(&acc);
            x += TILE;
        }
        for (xr, o) in out_row.iter_mut().enumerate().skip(x) {
            let mut a = 0.0f32;
            for (k, &p) in profile.iter().enumerate() {
                let sy = y as i64 - (k as i64 - c);
                if sy < 0 || sy as usize >= h {
                    continue;
                }
                a += src[sy as usize * w + xr] * p;
            }
            *o = a;
        }
    }
}

// ---------------------------------------------------------------------------
// SIMD passes (x86_64 AVX-512 / AVX2 / SSE2, runtime-detected)
//
// Both passes are one kernel, run twice: [`transposing_pass`] convolves the
// rows of its source and stores the result transposed. Pass 1 reads the
// rows of `input` and writes `tmpᵀ`; pass 2 reads the rows of `tmpᵀ` (the
// columns of the row-pass output) and writes `out` back in the original
// orientation. The kernel works on a strip of `LANES` source rows at a
// time: it copies the strip into `pad` interleaved (position-major, one
// vector lane per row, zero margins at both ends) with register-blocked
// `LANES × LANES` transposes, so every tap of every lane reads one aligned
// vector from a buffer held in L1, and one accumulator holds `LANES`
// outputs of the transposed result, stored as one contiguous run. There is
// no column sweep over L2.
//
// Bit-identity argument. The scalar reference computes each output as
// `acc = +0.0; for k in 0..=2c { acc = acc + src[x + c - k] · p[k] }`, with
// an unfused multiply then add, zero for out-of-range sources (the row pass
// adds the padding's `±0.0` products, the column pass skips them). The
// vector kernel evaluates the same sequence per lane: lanes run across
// independent outputs, `mulps`/`addps` are exact IEEE-754 single ops per
// lane, and no FMA is ever emitted. Tap order is increasing `k` per
// accumulator. The kernel skips the taps whose whole window lies in the
// zero padding; that is exact because an accumulator that starts at `+0.0`
// can never become `−0.0` (a round-to-nearest sum is `−0.0` only when both
// addends are), so adding a `±0.0` product never changes its bits. The
// same lemma makes the row pass's padded taps and the column pass's
// skipped rows agree, so the transposed order reproduces the scalar
// rows-then-columns result exactly. Padded lanes of a partial strip compute
// on zeros and are never stored.
// ---------------------------------------------------------------------------

/// Outputs per register tile along a strip: `STRIP_TILE` accumulators of
/// `LANES` rows each stay in registers across the whole tap loop.
const STRIP_TILE: usize = 8;

/// Zero positions on each side of a padded strip. A trimmed tile reads at
/// most `STRIP_TILE - 1` positions past either end of its source rows.
const MARGIN: usize = STRIP_TILE;

/// Vector width, in `f32` lanes, of the widest tier (AVX-512).
const MAX_LANES: usize = 16;

/// `f32` length of the padded-strip buffer the SIMD passes need for a
/// `width × height` grid, including the slack that lets the strip start on
/// a 64-byte boundary. [`crate::ConvScratch`] allocates this much.
pub(crate) fn strip_pad_len(width: usize, height: usize) -> usize {
    (width.max(height) + 2 * MARGIN + 1) * MAX_LANES
}

/// An instruction-set tier of the SIMD passes. Every tier computes the same
/// bits; they differ in how many rows share a vector.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Isa {
    /// 16 rows per `zmm` vector.
    Avx512,
    /// 8 rows per `ymm` vector.
    Avx2,
    /// 4 rows per `xmm` vector (baseline x86_64).
    Sse2,
}

#[cfg(target_arch = "x86_64")]
impl Isa {
    /// Whether the host can run this tier.
    pub(crate) fn available(self) -> bool {
        match self {
            Isa::Avx512 => is_x86_feature_detected!("avx512f"),
            Isa::Avx2 => is_x86_feature_detected!("avx2"),
            Isa::Sse2 => true,
        }
    }

    /// The widest tier the host supports, detected once.
    fn best() -> Isa {
        static BEST: std::sync::OnceLock<Isa> = std::sync::OnceLock::new();
        *BEST.get_or_init(|| {
            [Isa::Avx512, Isa::Avx2]
                .into_iter()
                .find(|isa| isa.available())
                .unwrap_or(Isa::Sse2)
        })
    }
}

/// The SIMD separable convolution: [`transposing_pass`] over the rows of
/// `input` into `tmp` (which then holds the row-pass result transposed),
/// then over the rows of that into `out`. `pad` grows to
/// [`strip_pad_len`] if it is shorter; callers that size it up front (as
/// [`crate::ConvScratch`] does) never allocate. Off x86_64 this runs the
/// scalar passes.
pub(crate) fn convolve_separable_simd(
    input: &Grid,
    profile: &[f32],
    tmp: &mut Grid,
    pad: &mut Vec<f32>,
    out: &mut Grid,
) {
    #[cfg(target_arch = "x86_64")]
    convolve_separable_isa(Isa::best(), input, profile, tmp, pad, out);
    #[cfg(not(target_arch = "x86_64"))]
    {
        convolve_rows_scalar(input, profile, tmp, pad);
        convolve_cols_scalar(tmp, profile, out);
    }
}

/// [`convolve_separable_simd`] on one named tier, which the host must
/// support; the tier tests call it directly.
#[cfg(target_arch = "x86_64")]
pub(crate) fn convolve_separable_isa(
    isa: Isa,
    input: &Grid,
    profile: &[f32],
    tmp: &mut Grid,
    pad: &mut Vec<f32>,
    out: &mut Grid,
) {
    assert!(profile.len() % 2 == 1, "profile must be odd-length");
    assert_eq!(input.shape(), tmp.shape(), "output shape mismatch");
    assert_eq!(input.shape(), out.shape(), "output shape mismatch");
    let (w, h) = input.shape();
    let need = strip_pad_len(w, h);
    if pad.len() < need {
        pad.resize(need, 0.0);
    }
    // the strip starts on a 64-byte boundary so every tap load is aligned
    let align = pad.as_ptr().align_offset(64).min(MAX_LANES);
    let strip = &mut pad[align..need - MAX_LANES + align];
    transposing_pass(
        isa,
        input.as_slice(),
        h,
        w,
        profile,
        strip,
        tmp.as_mut_slice(),
    );
    transposing_pass(
        isa,
        tmp.as_slice(),
        w,
        h,
        profile,
        strip,
        out.as_mut_slice(),
    );
}

/// Convolves each of the `rows` rows of `src` (each `len` long) with
/// `profile` and writes the result transposed: `dst[x · rows + r]` is output
/// `x` of row `r`.
#[cfg(target_arch = "x86_64")]
fn transposing_pass(
    isa: Isa,
    src: &[f32],
    rows: usize,
    len: usize,
    profile: &[f32],
    pad: &mut [f32],
    dst: &mut [f32],
) {
    assert_eq!(src.len(), rows * len, "source length mismatch");
    assert_eq!(dst.len(), rows * len, "destination length mismatch");
    assert!(
        pad.len() >= (len + 2 * MARGIN) * MAX_LANES,
        "strip buffer too short"
    );
    assert_eq!(pad.as_ptr() as usize % 64, 0, "strip buffer misaligned");
    assert!(isa.available(), "{isa:?} is not supported on this host");
    // SAFETY: the lengths, the alignment and the host's support for the
    // tier were all checked above.
    unsafe {
        match isa {
            Isa::Avx512 => x86::avx512::pass(src, rows, len, profile, pad, dst),
            Isa::Avx2 => x86::avx2::pass(src, rows, len, profile, pad, dst),
            Isa::Sse2 => x86::sse2::pass(src, rows, len, profile, pad, dst),
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The per-tier strip kernels, generated from one template so the
    //! tiers differ only in vector type, lane count and block transpose.

    use super::MARGIN;
    use std::arch::x86_64::*;

    /// Copies rows `r0 .. r0 + live` of `src` into `strip`, interleaved:
    /// `strip[(MARGIN + s) · lanes + r] = src[(r0 + r) · len + s]`, with
    /// zeros in both margins and in the lanes past `live`. Positions below
    /// `done` are already in place (a tier's block transposes wrote them).
    #[inline(always)]
    fn fill_strip(
        src: &[f32],
        r0: usize,
        live: usize,
        len: usize,
        lanes: usize,
        strip: &mut [f32],
        done: usize,
    ) {
        let strip = &mut strip[..(len + 2 * MARGIN) * lanes];
        strip[..MARGIN * lanes].fill(0.0);
        strip[(MARGIN + len) * lanes..].fill(0.0);
        let body = &mut strip[(MARGIN + done) * lanes..(MARGIN + len) * lanes];
        for r in 0..lanes {
            if r < live {
                let row = &src[(r0 + r) * len + done..(r0 + r + 1) * len];
                for (cell, &v) in body.chunks_exact_mut(lanes).zip(row) {
                    cell[r] = v;
                }
            } else {
                for cell in body.chunks_exact_mut(lanes) {
                    cell[r] = 0.0;
                }
            }
        }
    }

    /// Transposes the 16×16 block at column `s` of the 16 `rows` into 16
    /// consecutive strip positions at `dst`.
    ///
    /// # Safety
    ///
    /// Every `rows[i]` is readable for `s + 16` floats, `dst` is writable
    /// for 256, and the host supports AVX-512F.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn transpose16(rows: &[*const f32; 16], s: usize, dst: *mut f32) {
        let mut r = [_mm512_setzero_ps(); 16];
        for (v, row) in r.iter_mut().zip(rows) {
            *v = _mm512_loadu_ps(row.add(s));
        }
        // t[2g] / t[2g+1]: rows 2g and 2g+1 interleaved, low / high pairs
        let mut t = [_mm512_setzero_ps(); 16];
        for g in 0..8 {
            t[2 * g] = _mm512_unpacklo_ps(r[2 * g], r[2 * g + 1]);
            t[2 * g + 1] = _mm512_unpackhi_ps(r[2 * g], r[2 * g + 1]);
        }
        // u[4q + m]: in each 128-bit lane L, column 4L + m of rows 4q..4q+3
        let mut u = [_mm512_setzero_ps(); 16];
        for q in 0..4 {
            let pd = |a: __m512| _mm512_castps_pd(a);
            let (a, b, c, d) = (
                pd(t[4 * q]),
                pd(t[4 * q + 1]),
                pd(t[4 * q + 2]),
                pd(t[4 * q + 3]),
            );
            u[4 * q] = _mm512_castpd_ps(_mm512_unpacklo_pd(a, c));
            u[4 * q + 1] = _mm512_castpd_ps(_mm512_unpackhi_pd(a, c));
            u[4 * q + 2] = _mm512_castpd_ps(_mm512_unpacklo_pd(b, d));
            u[4 * q + 3] = _mm512_castpd_ps(_mm512_unpackhi_pd(b, d));
        }
        // gather the four row groups' 128-bit lanes into whole columns
        for m in 0..4 {
            let v = _mm512_shuffle_f32x4::<0x88>(u[m], u[4 + m]);
            let w = _mm512_shuffle_f32x4::<0xDD>(u[m], u[4 + m]);
            let v2 = _mm512_shuffle_f32x4::<0x88>(u[8 + m], u[12 + m]);
            let w2 = _mm512_shuffle_f32x4::<0xDD>(u[8 + m], u[12 + m]);
            _mm512_storeu_ps(dst.add(m * 16), _mm512_shuffle_f32x4::<0x88>(v, v2));
            _mm512_storeu_ps(dst.add((4 + m) * 16), _mm512_shuffle_f32x4::<0x88>(w, w2));
            _mm512_storeu_ps(dst.add((8 + m) * 16), _mm512_shuffle_f32x4::<0xDD>(v, v2));
            _mm512_storeu_ps(dst.add((12 + m) * 16), _mm512_shuffle_f32x4::<0xDD>(w, w2));
        }
    }

    /// The 8×8 counterpart of [`transpose16`].
    ///
    /// # Safety
    ///
    /// As [`transpose16`] with 8 rows and 64 floats, on an AVX2 host.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn transpose8(rows: &[*const f32; 8], s: usize, dst: *mut f32) {
        let mut r = [_mm256_setzero_ps(); 8];
        for (v, row) in r.iter_mut().zip(rows) {
            *v = _mm256_loadu_ps(row.add(s));
        }
        let mut t = [_mm256_setzero_ps(); 8];
        for g in 0..4 {
            t[2 * g] = _mm256_unpacklo_ps(r[2 * g], r[2 * g + 1]);
            t[2 * g + 1] = _mm256_unpackhi_ps(r[2 * g], r[2 * g + 1]);
        }
        // u[4q + m]: in each 128-bit lane L, column 4L + m of rows 4q..4q+3
        let mut u = [_mm256_setzero_ps(); 8];
        for q in 0..2 {
            u[4 * q] = _mm256_shuffle_ps::<0x44>(t[4 * q], t[4 * q + 2]);
            u[4 * q + 1] = _mm256_shuffle_ps::<0xEE>(t[4 * q], t[4 * q + 2]);
            u[4 * q + 2] = _mm256_shuffle_ps::<0x44>(t[4 * q + 1], t[4 * q + 3]);
            u[4 * q + 3] = _mm256_shuffle_ps::<0xEE>(t[4 * q + 1], t[4 * q + 3]);
        }
        for m in 0..4 {
            _mm256_storeu_ps(
                dst.add(m * 8),
                _mm256_permute2f128_ps::<0x20>(u[m], u[4 + m]),
            );
            _mm256_storeu_ps(
                dst.add((4 + m) * 8),
                _mm256_permute2f128_ps::<0x31>(u[m], u[4 + m]),
            );
        }
    }

    /// The 4×4 counterpart of [`transpose16`].
    ///
    /// # Safety
    ///
    /// As [`transpose16`] with 4 rows and 16 floats.
    #[inline]
    unsafe fn transpose4(rows: &[*const f32; 4], s: usize, dst: *mut f32) {
        let r = [0, 1, 2, 3].map(|i| _mm_loadu_ps(rows[i].add(s)));
        let (t0, t1) = (_mm_unpacklo_ps(r[0], r[1]), _mm_unpacklo_ps(r[2], r[3]));
        let (t2, t3) = (_mm_unpackhi_ps(r[0], r[1]), _mm_unpackhi_ps(r[2], r[3]));
        _mm_storeu_ps(dst, _mm_movelh_ps(t0, t1));
        _mm_storeu_ps(dst.add(4), _mm_movehl_ps(t1, t0));
        _mm_storeu_ps(dst.add(8), _mm_movelh_ps(t2, t3));
        _mm_storeu_ps(dst.add(12), _mm_movehl_ps(t3, t2));
    }

    macro_rules! strip_kernel {
        ($isa:ident, $feature:literal, $lanes:literal, $vec:ty, $transpose:ident,
         $zero:ident, $set1:ident, $load:ident, $store:ident, $mul:ident, $add:ident) => {
            pub(super) mod $isa {
                use super::super::{MARGIN, STRIP_TILE};
                use std::arch::x86_64::*;

                const LANES: usize = $lanes;

                /// The transposing pass on this tier; see
                /// `super::super::transposing_pass`.
                ///
                /// # Safety
                ///
                /// `src` and `dst` hold `rows · len` floats, `pad` holds at
                /// least `(len + 2·MARGIN) · LANES` and starts 64-byte
                /// aligned, and the host supports the tier.
                #[target_feature(enable = $feature)]
                pub(in super::super) unsafe fn pass(
                    src: &[f32],
                    rows: usize,
                    len: usize,
                    profile: &[f32],
                    pad: &mut [f32],
                    dst: &mut [f32],
                ) {
                    let c = profile.len() / 2;
                    let mut r0 = 0;
                    while r0 < rows {
                        let live = LANES.min(rows - r0);
                        let done = if live == LANES {
                            transpose_strip(src, r0, len, pad)
                        } else {
                            0
                        };
                        super::fill_strip(src, r0, live, len, LANES, pad, done);
                        let mut x = 0;
                        while x + STRIP_TILE <= len {
                            let acc = tile::<STRIP_TILE>(pad, profile, c, len, x);
                            store(&acc, dst, rows, r0, live, x);
                            x += STRIP_TILE;
                        }
                        while x < len {
                            let acc = tile::<1>(pad, profile, c, len, x);
                            store(&acc, dst, rows, r0, live, x);
                            x += 1;
                        }
                        r0 += LANES;
                    }
                }

                /// Fills the strip body of a full strip `LANES` positions at
                /// a time with register-blocked transposes; returns how many
                /// positions it wrote (the rest go through `fill_strip`).
                ///
                /// # Safety
                ///
                /// Rows `r0 .. r0 + LANES` of `src` exist, `pad` holds at
                /// least `(len + 2·MARGIN) · LANES` floats, and the host
                /// supports the tier.
                #[target_feature(enable = $feature)]
                #[inline]
                unsafe fn transpose_strip(
                    src: &[f32],
                    r0: usize,
                    len: usize,
                    pad: &mut [f32],
                ) -> usize {
                    let mut rows = [src.as_ptr(); LANES];
                    for (r, row) in rows.iter_mut().enumerate() {
                        *row = src.as_ptr().add((r0 + r) * len);
                    }
                    let body = pad.as_mut_ptr().add(MARGIN * LANES);
                    let mut s = 0;
                    while s + LANES <= len {
                        super::$transpose(&rows, s, body.add(s * LANES));
                        s += LANES;
                    }
                    s
                }

                /// Outputs `x .. x + N` of every lane of the current strip.
                /// Only the taps whose window reaches the source row run:
                /// output `x + j` reads source `x + j + c - k`, so the tile
                /// needs `k` in `[x + c + 1 - len, x + c + N - 1] ∩ [0, 2c]`,
                /// and every read stays within `N - 1 ≤ MARGIN` positions
                /// of the row.
                ///
                /// # Safety
                ///
                /// `x + N <= len`, `pad` holds a filled strip of `len`
                /// positions (`(len + 2·MARGIN) · LANES` floats) starting
                /// 64-byte aligned, and the host supports the tier.
                #[target_feature(enable = $feature)]
                #[inline]
                unsafe fn tile<const N: usize>(
                    pad: &[f32],
                    profile: &[f32],
                    c: usize,
                    len: usize,
                    x: usize,
                ) -> [$vec; N] {
                    let mut acc = [$zero(); N];
                    let k_lo = (x + c + 1).saturating_sub(len);
                    let k_hi = (x + c + N - 1).min(2 * c);
                    for (i, &p) in profile[k_lo..=k_hi].iter().enumerate() {
                        let pv = $set1(p);
                        let base = pad.as_ptr().add((MARGIN + x + c - k_lo - i) * LANES);
                        for (j, a) in acc.iter_mut().enumerate() {
                            *a = $add(*a, $mul($load(base.add(j * LANES)), pv));
                        }
                    }
                    acc
                }

                /// Writes a tile's `N` accumulators to `dst[(x + j) · rows +
                /// r0 ..]`, the first `live` lanes of each.
                ///
                /// # Safety
                ///
                /// `dst` holds `len · rows` floats with `x + N <= len` and
                /// `r0 + live <= rows`, and the host supports the tier.
                #[target_feature(enable = $feature)]
                #[inline]
                unsafe fn store<const N: usize>(
                    acc: &[$vec; N],
                    dst: &mut [f32],
                    rows: usize,
                    r0: usize,
                    live: usize,
                    x: usize,
                ) {
                    for (j, a) in acc.iter().enumerate() {
                        let at = (x + j) * rows + r0;
                        if live == LANES {
                            $store(dst.as_mut_ptr().add(at), *a);
                        } else {
                            let mut lanes = [0.0f32; LANES];
                            $store(lanes.as_mut_ptr(), *a);
                            dst[at..at + live].copy_from_slice(&lanes[..live]);
                        }
                    }
                }
            }
        };
    }

    strip_kernel!(
        avx512,
        "avx512f",
        16,
        __m512,
        transpose16,
        _mm512_setzero_ps,
        _mm512_set1_ps,
        _mm512_load_ps,
        _mm512_storeu_ps,
        _mm512_mul_ps,
        _mm512_add_ps
    );
    strip_kernel!(
        avx2,
        "avx2",
        8,
        __m256,
        transpose8,
        _mm256_setzero_ps,
        _mm256_set1_ps,
        _mm256_load_ps,
        _mm256_storeu_ps,
        _mm256_mul_ps,
        _mm256_add_ps
    );
    strip_kernel!(
        sse2,
        "sse2",
        4,
        __m128,
        transpose4,
        _mm_setzero_ps,
        _mm_set1_ps,
        _mm_load_ps,
        _mm_storeu_ps,
        _mm_mul_ps,
        _mm_add_ps
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn outer(profile: &[f32]) -> Vec<f32> {
        let k = profile.len();
        let mut dense = vec![0.0f32; k * k];
        for y in 0..k {
            for x in 0..k {
                dense[y * k + x] = profile[y] * profile[x];
            }
        }
        dense
    }

    #[test]
    fn identity_kernel_is_noop() {
        let mut g = Grid::zeros(5, 5);
        g.set(2, 2, 3.0);
        g.set(0, 4, -1.0);
        let out = convolve2d_direct(&g, &[1.0], 1, 1);
        assert_eq!(out, g);
        let out_sep = convolve_separable(&g, &[1.0]);
        assert_eq!(out_sep, g);
    }

    #[test]
    fn impulse_response_reproduces_kernel() {
        let mut g = Grid::zeros(7, 7);
        g.set(3, 3, 1.0);
        let kernel = [0.1, 0.2, 0.1, 0.2, 0.4, 0.2, 0.05, 0.1, 0.05];
        let out = convolve2d_direct(&g, &kernel, 3, 3);
        // impulse at center: output around (3,3) equals the kernel
        for ky in 0..3 {
            for kx in 0..3 {
                let v = out.get(2 + kx, 2 + ky);
                assert!((v - kernel[ky * 3 + kx]).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn asymmetric_kernel_is_flipped() {
        // convolution flips the kernel: an impulse convolved with a kernel
        // that has weight only at its "right" tap shifts mass to the RIGHT
        // when the kernel tap is at the right (since out(x) = sum in(x-k')k).
        let mut g = Grid::zeros(5, 1);
        g.set(2, 0, 1.0);
        let kernel = [0.0, 0.0, 1.0]; // tap at kx=2, offset +1
        let out = convolve2d_direct(&g, &kernel, 3, 1);
        assert_eq!(out.get(3, 0), 1.0);
        assert_eq!(out.get(1, 0), 0.0);
    }

    #[test]
    fn separable_matches_direct_dense() {
        let profile = [0.25f32, 0.5, 0.25];
        let dense = outer(&profile);
        let mut g = Grid::zeros(9, 9);
        g.set(4, 4, 1.0);
        g.set(1, 7, 2.0);
        g.set(8, 0, -0.5);
        let a = convolve_separable(&g, &profile);
        let b = convolve2d_direct(&g, &dense, 3, 3);
        for (x, y) in (0..9).flat_map(|y| (0..9).map(move |x| (x, y))) {
            assert!((a.get(x, y) - b.get(x, y)).abs() < 1e-5, "at ({x},{y})");
        }
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_kernel_rejected() {
        let g = Grid::zeros(4, 4);
        let _ = convolve2d_direct(&g, &[0.5, 0.5], 2, 1);
    }

    #[test]
    fn into_variant_overwrites_dirty_buffers_bit_identically() {
        let profile = [0.2f32, 0.6, 0.2];
        let mut g = Grid::zeros(9, 9);
        g.set(4, 4, 1.0);
        g.set(0, 8, -2.0);
        let reference = convolve_separable(&g, &profile);
        // garbage in the buffers must not leak into the result
        let mut tmp = Grid::filled(9, 9, f32::NAN);
        let mut out = Grid::filled(9, 9, 123.0);
        convolve_separable_into(&g, &profile, &mut tmp, &mut out);
        assert_eq!(out, reference);
        let mut out2 = Grid::filled(9, 9, -7.0);
        correlate_separable_into(&g, &profile, &mut tmp, &mut out2);
        assert_eq!(out2, correlate_separable(&g, &profile));
    }

    #[test]
    #[should_panic(expected = "output shape mismatch")]
    fn into_variant_rejects_wrong_shape() {
        let g = Grid::zeros(4, 4);
        let mut tmp = Grid::zeros(4, 4);
        let mut out = Grid::zeros(5, 4);
        convolve_separable_into(&g, &[1.0], &mut tmp, &mut out);
    }

    /// Scalar reference: rows then columns.
    fn scalar_separable(input: &Grid, profile: &[f32]) -> Grid {
        let (w, h) = input.shape();
        let mut tmp = Grid::zeros(w, h);
        let mut out = Grid::zeros(w, h);
        convolve_rows_scalar(input, profile, &mut tmp, &mut Vec::new());
        convolve_cols_scalar(&tmp, profile, &mut out);
        out
    }

    /// A deterministic field with bands of `+0.0` and `−0.0`.
    fn banded_input(w: usize, h: usize) -> Grid {
        let vals = (0..w * h)
            .map(|i| {
                let (x, y) = (i % w, i / w);
                match (x % 19, y % 13) {
                    (0..=4, _) => -0.0,
                    (_, 0..=3) => 0.0,
                    _ => ((i * 2_654_435_761) % 1000) as f32 / 500.0 - 1.0,
                }
            })
            .collect();
        Grid::from_vec(w, h, vals)
    }

    /// Runs one ISA tier's entry point against the scalar reference on
    /// shapes with partial strips and tile tails, the bank's widest
    /// profile and a negative-lobe one, through dirty buffers.
    #[cfg(target_arch = "x86_64")]
    fn assert_tier_matches_scalar(isa: Isa) {
        if !isa.available() {
            eprintln!("{isa:?} not available on this host; tier not exercised");
            return;
        }
        let bank = crate::KernelBank::paper_bank(&crate::LithoConfig::default());
        let widest = bank
            .kernels()
            .iter()
            .flat_map(|k| k.components().map(|(_, p)| p.to_vec()))
            .max_by_key(|p| p.len())
            .expect("bank kernels have components");
        let profiles = [vec![0.05f32, -0.15, 0.3, 0.55, 0.2, -0.1, 0.05], widest];
        for (w, h) in [(1, 1), (3, 7), (16, 16), (101, 37), (37, 101), (224, 224)] {
            let input = banded_input(w, h);
            for profile in &profiles {
                let want = scalar_separable(&input, profile);
                let mut tmp = Grid::filled(w, h, f32::NAN);
                let mut pad = vec![f32::NAN; 5];
                let mut out = Grid::filled(w, h, f32::NAN);
                convolve_separable_isa(isa, &input, profile, &mut tmp, &mut pad, &mut out);
                for (i, (g, r)) in out.as_slice().iter().zip(want.as_slice()).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        r.to_bits(),
                        "{isa:?} {w}x{h}, {} taps, index {i}: {g:e} vs {r:e}",
                        profile.len()
                    );
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_tier_matches_scalar_bitwise() {
        assert_tier_matches_scalar(Isa::Avx512);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_tier_matches_scalar_bitwise() {
        assert_tier_matches_scalar(Isa::Avx2);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sse2_tier_matches_scalar_bitwise() {
        assert_tier_matches_scalar(Isa::Sse2);
    }

    #[test]
    fn scratch_pad_covers_the_bank_on_every_backend() {
        // a ConvScratch's pad is long enough for every bank profile on
        // both the scalar row pass and the SIMD strips, so no pass grows it
        let bank = crate::KernelBank::paper_bank(&crate::LithoConfig::default());
        for (w, h) in [(1, 1), (7, 300), (494, 494), (1600, 40)] {
            let mut scratch = crate::ConvScratch::new(w, h);
            let before = (scratch.pad.as_ptr(), scratch.pad.len());
            let input = banded_input(w, h);
            for backend in crate::backend::registry() {
                for kernel in bank.kernels() {
                    for (_, profile) in kernel.components() {
                        backend.convolve_separable_into(
                            &input,
                            profile,
                            &mut scratch.tmp,
                            &mut scratch.pad,
                            &mut scratch.part,
                        );
                    }
                }
            }
            assert_eq!((scratch.pad.as_ptr(), scratch.pad.len()), before, "{w}x{h}");
        }
    }

    proptest! {
        #[test]
        fn separable_equals_dense_on_random_input(
            vals in proptest::collection::vec(-1.0f32..1.0, 64),
            p0 in 0.01f32..1.0, p1 in 0.01f32..1.0, p2 in 0.01f32..1.0,
        ) {
            let profile = [p0, p1, p2];
            let g = Grid::from_vec(8, 8, vals);
            let a = convolve_separable(&g, &profile);
            let b = convolve2d_direct(&g, &outer(&profile), 3, 3);
            for i in 0..64 {
                prop_assert!((a.as_slice()[i] - b.as_slice()[i]).abs() < 1e-4);
            }
        }

        #[test]
        fn convolution_is_linear(
            vals in proptest::collection::vec(-1.0f32..1.0, 16),
            scale in -2.0f32..2.0,
        ) {
            let profile = [0.25f32, 0.5, 0.25];
            let g = Grid::from_vec(4, 4, vals);
            let scaled = g.map(|v| v * scale);
            let a = convolve_separable(&scaled, &profile);
            let b = convolve_separable(&g, &profile).map(|v| v * scale);
            for i in 0..16 {
                prop_assert!((a.as_slice()[i] - b.as_slice()[i]).abs() < 1e-4);
            }
        }
    }
}
