//! Per-backend litho benchmarks (DESIGN.md §13): the same forward pass /
//! ILT step / candidate ranking measured under each [`BackendKind`], plus
//! the direct-vs-separable-vs-FFT dense-kernel crossover at ≥224² that
//! pins [`ldmo_litho::backend::FFT_CROSSOVER_PX`]. Feeds
//! `BENCH_backends.json` (via `--json-out`), which `scripts/perf_gate.py`
//! diffs against the committed `bench_out/` baseline.
//!
//! Backend selection is process-global; every section sets it explicitly
//! and the file restores the default at the end.

use criterion::{criterion_group, criterion_main, Criterion};
use ldmo_core::flow::{FlowConfig, LdmoFlow, SelectionStrategy};
use ldmo_decomp::{generate_candidates, DecompConfig};
use ldmo_geom::{Grid, Rect};
use ldmo_ilt::{IltConfig, IltContext, IltSession};
use ldmo_layout::cells;
use ldmo_litho::backend::{self, BackendKind};
use ldmo_litho::{simulate_print, CoherentKernel, KernelBank, LithoConfig};

fn short_ilt() -> IltConfig {
    IltConfig {
        max_iterations: 6,
        abort_warmup: 3,
        ..IltConfig::default()
    }
}

/// One full print (kernel bank forward + resist) per backend, on the
/// 224² raster of a standard cell.
fn bench_print_backends(c: &mut Criterion) {
    let cfg = LithoConfig::default();
    let bank = KernelBank::paper_bank(&cfg);
    let layout = cells::cell("AOI211_X1").expect("known cell");
    let mask = layout.rasterize_target(cfg.nm_per_px);
    let mut group = c.benchmark_group("backend");
    group.sample_size(20);
    for kind in [BackendKind::Scalar, BackendKind::Simd] {
        backend::set_backend(kind);
        group.bench_function(format!("print_224_{kind}"), |b| {
            b.iter(|| simulate_print(&mask, &bank, &cfg))
        });
    }
    backend::set_backend(backend::default_kind());
    group.finish();
}

/// One workspace ILT iteration per backend (the flow's inner hot loop).
fn bench_step_backends(c: &mut Criterion) {
    let layout = cells::cell("BUF_X1").expect("known cell");
    let cfg = IltConfig::default();
    let mut group = c.benchmark_group("backend");
    group.sample_size(20);
    for kind in [BackendKind::Scalar, BackendKind::Simd] {
        backend::set_backend(kind);
        let mut session = IltSession::new(&layout, &[0, 1, 1, 0], &cfg);
        group.bench_function(format!("step_{kind}"), |b| b.iter(|| session.step_one()));
    }
    backend::set_backend(backend::default_kind());
    group.finish();
}

/// Candidate ranking per backend: the ladder's proxy ranking, one forward
/// simulation per candidate.
fn bench_rank_backends(c: &mut Criterion) {
    let layout = cells::cell("AOI211_X1").expect("known cell");
    let candidates = generate_candidates(&layout, &DecompConfig::default());
    let cfg = FlowConfig {
        ilt: short_ilt(),
        ..FlowConfig::default()
    };
    let ctx = IltContext::new(&cfg.ilt);
    let mut group = c.benchmark_group("backend");
    group.sample_size(10);
    for kind in [BackendKind::Scalar, BackendKind::Simd] {
        backend::set_backend(kind);
        let mut flow = LdmoFlow::new(cfg.clone(), SelectionStrategy::LithoProxy);
        group.bench_function(format!("rank_{kind}"), |b| {
            b.iter(|| flow.rank_candidates(&layout, &candidates, &ctx))
        });
    }
    backend::set_backend(backend::default_kind());
    group.finish();
}

/// Dense-kernel convolution crossover at flow-scale grids (≥224²): what
/// `convolve2d_auto` switches on. The bank's own kernels are separable,
/// so `separable` is the bar FFT has to clear.
fn bench_crossover(c: &mut Criterion) {
    use ldmo_litho::{convolve2d_direct, convolve2d_fft};
    let mut group = c.benchmark_group("backend");
    group.sample_size(10);
    let kernel = CoherentKernel::gaussian(6.0, 1.0);
    let (dense, k) = kernel.to_dense();
    for side in [224usize, 256] {
        let mut grid = Grid::zeros(side, side);
        let margin = side as i32 / 4;
        grid.fill_rect(&Rect::new(margin, margin, 3 * margin, 3 * margin), 1.0);
        group.bench_function(format!("xover_separable_{side}"), |b| {
            b.iter(|| kernel.field(&grid))
        });
        group.bench_function(format!("xover_fft_{side}"), |b| {
            b.iter(|| convolve2d_fft(&grid, &dense, k, k))
        });
        group.bench_function(format!("xover_direct_{side}"), |b| {
            b.iter(|| convolve2d_direct(&grid, &dense, k, k))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_print_backends,
    bench_step_backends,
    bench_rank_backends,
    bench_crossover
);
criterion_main!(benches);
