//! Pluggable convolution backends for the litho forward pass.
//!
//! The separable convolution in [`crate::convolve_separable_into`] is the
//! innermost hot loop of every flow stage, so it is abstracted behind the
//! [`LithoBackend`] trait (DESIGN.md §13): one contract, several
//! implementations that must agree with [`ScalarBackend`] bit-for-bit (or
//! within a declared ULP tolerance — every in-tree backend declares 0).
//!
//! - [`ScalarBackend`] — the register-blocked scalar passes, rows then
//!   columns: the reference that defines the bits.
//! - [`SimdBackend`] — one transposing row kernel run twice (rows of the
//!   input into the transposed intermediate, rows of that back into the
//!   output), vectorized with `std::arch` AVX-512, AVX2 or SSE2 tiles on
//!   x86_64, the widest tier detected at runtime; scalar elsewhere.
//!   Bit-identical by construction: each vector lane is one output, which
//!   keeps the scalar tap order (increasing `k`) and operation shape (`mul`
//!   then `add`, never fused); the taps it skips only ever add `±0.0` to an
//!   accumulator that cannot be `−0.0` (DESIGN.md §13).
//!
//! Selection is process-global, like the `ldmo-par` thread pool: the
//! default comes from `LDMO_BACKEND` (falling back to [`BackendKind::Auto`]),
//! the `ldmo` CLI and bench bins call [`cli_setup`] to honour `--backend`,
//! and tests flip it with [`set_backend`]. Because every in-tree backend is
//! bit-identical, switching backends never changes results — only speed.

use crate::conv;
use ldmo_geom::Grid;
use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// The contract every convolution backend implements: the separable-conv
/// forward pass on caller-owned buffers. Implementations must be
/// allocation-free (DESIGN.md §6) and must reproduce [`ScalarBackend`]
/// within [`LithoBackend::max_ulps`] (0 = bit-identical), which the
/// conformance suite (`crates/litho/tests/backend_conformance.rs`) enforces
/// for every backend in [`registry`].
pub trait LithoBackend: Send + Sync + fmt::Debug {
    /// Stable lowercase backend name (`"scalar"`, `"simd"`).
    fn name(&self) -> &'static str;

    /// Separable convolution `input ⊗ (p pᵀ)` into `out`, through the
    /// intermediate `tmp` (whose layout is the backend's own) and the
    /// padded-row buffer `pad`. `tmp` and `out` are fully overwritten;
    /// `pad` grows if it is too short and is otherwise not reallocated.
    ///
    /// # Panics
    ///
    /// Panics if `profile.len()` is even or either buffer's shape differs
    /// from `input`'s.
    fn convolve_separable_into(
        &self,
        input: &Grid,
        profile: &[f32],
        tmp: &mut Grid,
        pad: &mut Vec<f32>,
        out: &mut Grid,
    );

    /// Maximum tolerated divergence from [`ScalarBackend`], in units in the
    /// last place per output element. Every in-tree backend returns 0
    /// (bit-identical); a future backend with reassociated arithmetic
    /// (e.g. horizontal-add reductions) would declare its bound here and
    /// document it in DESIGN.md §13.
    fn max_ulps(&self) -> u32 {
        0
    }
}

/// Backend selection, as spelled on the `--backend` flag / `LDMO_BACKEND`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Resolve at runtime: SIMD where detected, scalar elsewhere. The
    /// separable path never auto-selects FFT — see [`FFT_CROSSOVER_PX`]
    /// for the dense-kernel crossover the auto rule is keyed on.
    Auto,
    /// The register-blocked scalar passes.
    Scalar,
    /// Runtime-detected AVX-512/AVX2/SSE2 vector passes.
    Simd,
}

impl BackendKind {
    /// Parses a CLI/env spelling; `None` for anything unknown.
    pub fn parse(s: &str) -> Option<BackendKind> {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" => Some(BackendKind::Auto),
            "scalar" => Some(BackendKind::Scalar),
            "simd" => Some(BackendKind::Simd),
            _ => None,
        }
    }

    /// The canonical lowercase spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            BackendKind::Auto => "auto",
            BackendKind::Scalar => "scalar",
            BackendKind::Simd => "simd",
        }
    }

    /// Numeric code for span metadata (`litho.backend` on `flow.run`):
    /// 0 auto (unresolved), 1 scalar, 2 simd.
    pub fn code(self) -> u8 {
        match self {
            BackendKind::Auto => 0,
            BackendKind::Scalar => 1,
            BackendKind::Simd => 2,
        }
    }

    fn from_code(code: u8) -> BackendKind {
        match code {
            1 => BackendKind::Scalar,
            2 => BackendKind::Simd,
            _ => BackendKind::Auto,
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Grid side length (pixels) at which a *dense* (non-separable) kernel
/// convolution of a bank-scale kernel switches from the direct path to the
/// FFT. The bank's own kernels are separable and never route through this
/// — the separable passes beat the FFT at every size we run. Re-measured
/// for this PR at ≥224² via the `backend/xover_*` bench rows (see
/// EXPERIMENTS.md): for the σ=6 (37-tap) dense kernel the FFT wins 39.8ms
/// vs 70.8ms direct at 224² and 39.5ms vs 92.7ms at 256², and the
/// direct/FFT cost models (`n²k²` vs padded-`n² log n`) put the break-even
/// between 32² and 64² — 64 is the measured floor where FFT padding
/// overhead stops dominating.
pub const FFT_CROSSOVER_PX: usize = 64;

/// Minimum dense-kernel width (taps) for the FFT path to be worth it at
/// *any* grid size: FFT cost is kernel-size independent, so small kernels
/// never amortize it — at 128² the 13-tap σ=2 kernel runs 2.9ms direct vs
/// 8.1ms FFT, and the gap widens with grid size (direct `∝ n²k²` vs FFT
/// `∝ n_pad² log n_pad`). 25 taps sits between the measured always-loses
/// 13-tap and always-wins-past-64² 37-tap points.
pub const FFT_MIN_KERNEL_TAPS: usize = 25;

/// Dense-kernel convolution with automatic direct/FFT selection: the FFT
/// path when the grid is at least [`FFT_CROSSOVER_PX`] on a side *and* the
/// kernel at least [`FFT_MIN_KERNEL_TAPS`] wide, the cache-friendly direct
/// path otherwise. Results differ between the two paths only by FFT
/// rounding (~1e-6 relative); callers needing bit-stable output should
/// call one of [`crate::convolve2d_direct`] / [`crate::convolve2d_fft`]
/// explicitly.
///
/// # Panics
///
/// Panics if `kernel.len() != kw * kh` or either kernel dimension is even.
pub fn convolve2d_auto(input: &Grid, kernel: &[f32], kw: usize, kh: usize) -> Grid {
    let (w, h) = input.shape();
    if w.max(h) >= FFT_CROSSOVER_PX && kw.max(kh) >= FFT_MIN_KERNEL_TAPS {
        crate::fft::convolve2d_fft(input, kernel, kw, kh)
    } else {
        conv::convolve2d_direct(input, kernel, kw, kh)
    }
}

/// The scalar reference backend: the register-blocked separable passes
/// every other backend is differentially tested against.
#[derive(Debug)]
pub struct ScalarBackend;

impl LithoBackend for ScalarBackend {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn convolve_separable_into(
        &self,
        input: &Grid,
        profile: &[f32],
        tmp: &mut Grid,
        pad: &mut Vec<f32>,
        out: &mut Grid,
    ) {
        conv::convolve_rows_scalar(input, profile, tmp, pad);
        conv::convolve_cols_scalar(tmp, profile, out);
    }
}

/// The vectorized backend: the transposing row kernel, run once per axis,
/// on the widest of AVX-512/AVX2/SSE2 the x86_64 host has; scalar
/// fallback elsewhere. Bit-identical to [`ScalarBackend`] — lanes run
/// across output elements, so each element sees the scalar tap order and
/// unfused mul/add sequence exactly.
#[derive(Debug)]
pub struct SimdBackend;

impl LithoBackend for SimdBackend {
    fn name(&self) -> &'static str {
        "simd"
    }

    fn convolve_separable_into(
        &self,
        input: &Grid,
        profile: &[f32],
        tmp: &mut Grid,
        pad: &mut Vec<f32>,
        out: &mut Grid,
    ) {
        conv::convolve_separable_simd(input, profile, tmp, pad, out);
    }
}

static SCALAR: ScalarBackend = ScalarBackend;
static SIMD: SimdBackend = SimdBackend;

/// Every registered backend, scalar first. The conformance suite iterates
/// this, so a new backend gets differential coverage by joining the list.
pub fn registry() -> &'static [&'static dyn LithoBackend] {
    static REGISTRY: [&dyn LithoBackend; 2] = [&SCALAR, &SIMD];
    &REGISTRY
}

/// Whether vector passes are available on this build/host. On x86_64 SSE2
/// is part of the baseline ISA, so this is a compile-time yes there.
pub fn simd_available() -> bool {
    cfg!(target_arch = "x86_64")
}

/// The process-global selection cell; its default is read from
/// `LDMO_BACKEND` once, exactly like `ldmo-par`'s `LDMO_THREADS`.
fn selected_cell() -> &'static AtomicU8 {
    static CELL: OnceLock<AtomicU8> = OnceLock::new();
    CELL.get_or_init(|| AtomicU8::new(default_kind().code()))
}

/// The backend the process starts with: `LDMO_BACKEND` when set to a valid
/// spelling, otherwise [`BackendKind::Auto`].
pub fn default_kind() -> BackendKind {
    std::env::var("LDMO_BACKEND")
        .ok()
        .and_then(|v| BackendKind::parse(&v))
        .unwrap_or(BackendKind::Auto)
}

/// Replaces the process-global backend selection. Safe at any time: every
/// in-tree backend is bit-identical, so in-flight work is unaffected
/// numerically (which is what lets one test process compare backends).
pub fn set_backend(kind: BackendKind) {
    selected_cell().store(kind.code(), Ordering::Relaxed);
}

/// The currently selected backend kind (possibly [`BackendKind::Auto`]).
pub fn backend_kind() -> BackendKind {
    BackendKind::from_code(selected_cell().load(Ordering::Relaxed))
}

/// [`backend_kind`] with `Auto` resolved to what will actually run:
/// [`BackendKind::Simd`] where vector passes exist, scalar elsewhere.
pub fn resolved_kind() -> BackendKind {
    match backend_kind() {
        BackendKind::Auto => {
            if simd_available() {
                BackendKind::Simd
            } else {
                BackendKind::Scalar
            }
        }
        k => k,
    }
}

/// The backend instance serving [`crate::convolve_separable_into`] right
/// now (auto resolved per [`resolved_kind`]).
pub fn active() -> &'static dyn LithoBackend {
    match resolved_kind() {
        BackendKind::Scalar => &SCALAR,
        BackendKind::Simd | BackendKind::Auto => &SIMD,
    }
}

/// One-call CLI setup shared by the `ldmo` binary and the bench bins
/// (mirrors `ldmo_par::cli_setup`): scans `std::env::args` for
/// `--backend {auto,scalar,simd}` (last occurrence wins) and
/// installs it; without the flag the process keeps its default
/// (`LDMO_BACKEND` or auto). Returns the resulting resolved kind.
pub fn cli_setup() -> BackendKind {
    let args: Vec<String> = std::env::args().collect();
    let mut requested = None;
    for pair in args.windows(2) {
        if pair[0] == "--backend" {
            match BackendKind::parse(&pair[1]) {
                Some(kind) => requested = Some(kind),
                None => eprintln!(
                    "ignoring invalid --backend value '{}' (want auto|scalar|simd)",
                    pair[1]
                ),
            }
        }
    }
    if let Some(kind) = requested {
        set_backend(kind);
    }
    let resolved = resolved_kind();
    ldmo_obs::set_run_info("backend", resolved.as_str());
    resolved
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_parse_round_trips() {
        for kind in [BackendKind::Auto, BackendKind::Scalar, BackendKind::Simd] {
            assert_eq!(BackendKind::parse(kind.as_str()), Some(kind));
            assert_eq!(BackendKind::from_code(kind.code()), kind);
        }
        assert_eq!(BackendKind::parse("AVX512"), None);
        assert_eq!(BackendKind::parse(" Simd "), Some(BackendKind::Simd));
    }

    #[test]
    fn registry_leads_with_scalar_reference() {
        let names: Vec<&str> = registry().iter().map(|b| b.name()).collect();
        assert_eq!(names, ["scalar", "simd"]);
        assert!(registry().iter().all(|b| b.max_ulps() == 0));
    }

    #[test]
    fn auto_resolves_to_a_concrete_backend() {
        let prev = backend_kind();
        set_backend(BackendKind::Auto);
        assert_ne!(resolved_kind(), BackendKind::Auto);
        set_backend(prev);
    }

    #[test]
    fn dense_auto_selects_by_grid_size() {
        // behaviourally: tiny grids and large grids agree within FFT
        // rounding, whichever path auto picks
        let kernel = crate::CoherentKernel::gaussian(2.0, 1.0);
        let (dense, k) = kernel.to_dense();
        for side in [32usize, 96] {
            let mut g = Grid::zeros(side, side);
            g.set(side / 2, side / 2, 1.0);
            let auto = convolve2d_auto(&g, &dense, k, k);
            let direct = conv::convolve2d_direct(&g, &dense, k, k);
            for i in 0..side * side {
                assert!(
                    (auto.as_slice()[i] - direct.as_slice()[i]).abs() < 1e-5,
                    "auto/direct mismatch at {i} (side {side})"
                );
            }
        }
    }
}
