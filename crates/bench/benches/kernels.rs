//! Criterion micro-benchmarks of the atomic operations the paper's runtime
//! argument rests on: one lithography forward pass vs one CNN inference
//! (the reason learned selection beats simulation-based selection), plus
//! the decomposition and vision substrates.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ldmo_core::predictor::PrintabilityPredictor;
use ldmo_decomp::covering::covering_array;
use ldmo_decomp::{generate_candidates, DecompConfig};
use ldmo_geom::{Grid, Rect};
use ldmo_ilt::{GuardPolicy, IltConfig, IltSession};
use ldmo_layout::cells;
use ldmo_litho::{
    aerial_image, combine_prints, convolve_separable_padded_into, detect_violations, measure_epe,
    resist_threshold, sigmoid, simulate_print, AerialImage, CoherentKernel, ConvScratch,
    KernelBank, LithoConfig,
};
use ldmo_vision::sift::{extract_features, SiftConfig};

fn cell_mask() -> (Grid, KernelBank, LithoConfig) {
    let cfg = LithoConfig::default();
    let bank = KernelBank::paper_bank(&cfg);
    let layout = cells::cell("AOI211_X1").expect("known cell");
    let mask = layout.rasterize_target(cfg.nm_per_px);
    (mask, bank, cfg)
}

fn bench_litho(c: &mut Criterion) {
    let (mask, bank, cfg) = cell_mask();
    let mut group = c.benchmark_group("litho");
    group.sample_size(20);
    group.bench_function("aerial_image_224", |b| {
        b.iter(|| aerial_image(&mask, &bank))
    });
    // one separable convolution with the bank's widest (271-tap) profile
    // on a chip-tile-sized grid (~494² px haloed windows), the cell mask
    // centered in it
    let widest = bank
        .kernels()
        .iter()
        .flat_map(|k| k.components().map(|(_, p)| p))
        .max_by_key(|p| p.len())
        .expect("bank kernels have components");
    let side = 494;
    let mut tile = Grid::zeros(side, side);
    let (mw, mh) = mask.shape();
    let (ox, oy) = ((side - mw) / 2, (side - mh) / 2);
    for y in 0..mh {
        for x in 0..mw {
            tile.set(ox + x, oy + y, mask.get(x, y));
        }
    }
    let mut scratch = ConvScratch::new(side, side);
    group.bench_function("separable_494", |b| {
        b.iter(|| {
            convolve_separable_padded_into(
                &tile,
                widest,
                &mut scratch.tmp,
                &mut scratch.pad,
                &mut scratch.part,
            )
        })
    });
    let aerial = aerial_image(&mask, &bank);
    group.bench_function("resist_threshold_224", |b| {
        b.iter(|| resist_threshold(&aerial.intensity, &cfg))
    });
    let printed = simulate_print(&mask, &bank, &cfg);
    let layout = cells::cell("AOI211_X1").expect("known cell");
    group.bench_function("measure_epe", |b| {
        b.iter(|| measure_epe(&printed, layout.patterns(), &cfg))
    });
    group.bench_function("detect_violations", |b| {
        b.iter(|| detect_violations(&printed, layout.patterns(), 0.5, cfg.nm_per_px))
    });
    group.finish();
}

// ---------------------------------------------------------------------------
// The pre-workspace hot path, reproduced verbatim as the perf baseline for
// `step_workspace`: per-call-allocating primitives over the original
// tap-outer slice-add separable convolution. Outputs are identical to the
// workspace path up to the sign of zero (the register-blocked passes
// accumulate in the same tap order; zero padding only contributes exact
// `+0.0` terms), which `bench_ilt` asserts once at setup.
// ---------------------------------------------------------------------------

fn seed_convolve_rows(input: &Grid, profile: &[f32]) -> Grid {
    let (w, h) = input.shape();
    let c = (profile.len() / 2) as i64;
    let mut out = Grid::zeros(w, h);
    let src = input.as_slice();
    let dst = out.as_mut_slice();
    for y in 0..h {
        let row = &src[y * w..(y + 1) * w];
        let out_row = &mut dst[y * w..(y + 1) * w];
        for (k, &p) in profile.iter().enumerate() {
            let off = k as i64 - c;
            let (dst_range, src_range) = if off >= 0 {
                let off = (off as usize).min(w);
                (off..w, 0..w - off)
            } else {
                let off = ((-off) as usize).min(w);
                (0..w - off, off..w)
            };
            for (d, &s) in out_row[dst_range].iter_mut().zip(&row[src_range]) {
                *d += s * p;
            }
        }
    }
    out
}

fn seed_convolve_cols(input: &Grid, profile: &[f32]) -> Grid {
    let (w, h) = input.shape();
    let c = (profile.len() / 2) as i64;
    let mut out = Grid::zeros(w, h);
    let src = input.as_slice();
    let dst = out.as_mut_slice();
    for y in 0..h {
        for (k, &p) in profile.iter().enumerate() {
            let sy = y as i64 - (k as i64 - c);
            if sy < 0 || sy as usize >= h {
                continue;
            }
            let src_row = &src[sy as usize * w..(sy as usize + 1) * w];
            let dst_row = &mut dst[y * w..(y + 1) * w];
            for (d, &s) in dst_row.iter_mut().zip(src_row) {
                *d += s * p;
            }
        }
    }
    out
}

fn seed_convolve_separable(input: &Grid, profile: &[f32]) -> Grid {
    let tmp = seed_convolve_rows(input, profile);
    seed_convolve_cols(&tmp, profile)
}

/// The seed's `CoherentKernel::field`: fresh accumulator + one allocating
/// separable convolution per component. Symmetric profiles make this also
/// the seed's `backproject`.
fn seed_field(kernel: &CoherentKernel, mask: &Grid) -> Grid {
    let (w, h) = mask.shape();
    let mut acc = Grid::zeros(w, h);
    for (amplitude, profile) in kernel.components() {
        let part = seed_convolve_separable(mask, profile);
        let a = acc.as_mut_slice();
        for (v, &p) in a.iter_mut().zip(part.as_slice()) {
            *v += amplitude * p;
        }
    }
    acc
}

/// One ILT iteration's forward + gradient as composed before the workspace
/// engine: every primitive allocates (and zero-fills) its own buffers per
/// call, exactly the original structure.
fn seed_step(
    p1: &Grid,
    p2: &Grid,
    target: &Grid,
    theta_m: f32,
    bank: &KernelBank,
    litho: &LithoConfig,
) -> (Grid, Grid) {
    let ps = [p1.clone(), p2.clone()];
    let masks: Vec<Grid> = ps.iter().map(|p| p.map(|v| sigmoid(theta_m * v))).collect();
    let aerials: Vec<AerialImage> = masks
        .iter()
        .map(|m| {
            let (w, h) = m.shape();
            let mut intensity = Grid::zeros(w, h);
            let mut fields = Vec::with_capacity(bank.kernels().len());
            for kernel in bank.kernels() {
                let field = seed_field(kernel, m);
                let wk = kernel.weight() as f32;
                for (a, &v) in intensity.as_mut_slice().iter_mut().zip(field.as_slice()) {
                    *a += wk * v * v;
                }
                fields.push(field);
            }
            AerialImage { intensity, fields }
        })
        .collect();
    let resists: Vec<Grid> = aerials
        .iter()
        .map(|a| resist_threshold(&a.intensity, litho))
        .collect();
    let printed = combine_prints(&resists);
    let _l2 = printed.l2_dist_sq(target).expect("shapes match");

    let (w, h) = printed.shape();
    let mut dl_dt = Grid::zeros(w, h);
    {
        let t = printed.as_slice();
        let tp = target.as_slice();
        let out = dl_dt.as_mut_slice();
        for i in 0..out.len() {
            let sum: f32 = resists.iter().map(|r| r.as_slice()[i]).sum();
            let gate = if sum < 1.0 { 1.0 } else { 0.0 };
            out[i] = 2.0 * (t[i] - tp[i]) * gate;
        }
    }
    let mut grads: Vec<Grid> = (0..2)
        .map(|idx| {
            let mut g_int = Grid::zeros(w, h);
            {
                let t = resists[idx].as_slice();
                let d = dl_dt.as_slice();
                let out = g_int.as_mut_slice();
                for i in 0..out.len() {
                    out[i] = d[i] * litho.theta_z * t[i] * (1.0 - t[i]);
                }
            }
            let mut dl_dm = Grid::zeros(w, h);
            for (k, kernel) in bank.kernels().iter().enumerate() {
                let field = &aerials[idx].fields[k];
                let weighted = g_int.zip_map(field, |g, f| g * f).expect("shapes match");
                let back = seed_field(kernel, &weighted);
                let wk = 2.0 * kernel.weight() as f32;
                for (a, &b) in dl_dm.as_mut_slice().iter_mut().zip(back.as_slice()) {
                    *a += wk * b;
                }
            }
            let m = masks[idx].as_slice();
            let s = dl_dm.as_mut_slice();
            for i in 0..s.len() {
                s[i] *= theta_m * m[i] * (1.0 - m[i]);
            }
            dl_dm
        })
        .collect();
    let g2 = grads.pop().expect("two");
    let g1 = grads.pop().expect("two");
    (g1, g2)
}

/// One full pre-workspace iteration: [`seed_step`] plus the max-normalized
/// descent and MRC corridor clamp, mutating `p` exactly like the seed
/// optimizer's `step_one` did. This is what `step_workspace` replaced.
fn seed_iteration(
    p: &mut [Grid],
    corridors: &[Grid],
    target: &Grid,
    cfg: &IltConfig,
    bank: &KernelBank,
) {
    let (g1, g2) = seed_step(&p[0], &p[1], target, cfg.theta_m, bank, &cfg.litho);
    for (pi, g) in p.iter_mut().zip([&g1, &g2]) {
        let max_abs = g.as_slice().iter().fold(0.0f32, |a, &v| a.max(v.abs()));
        if max_abs > f32::EPSILON {
            let s = cfg.step_size / max_abs;
            for (v, &d) in pi.as_mut_slice().iter_mut().zip(g.as_slice()) {
                *v -= s * d;
            }
        }
    }
    for (pi, c) in p.iter_mut().zip(corridors) {
        for (v, &cv) in pi.as_mut_slice().iter_mut().zip(c.as_slice()) {
            if cv < 0.5 {
                *v = -1.0;
            }
        }
    }
}

fn bench_ilt(c: &mut Criterion) {
    let layout = cells::cell("BUF_X1").expect("known cell");
    let cfg = IltConfig::default();
    let assignment: &[u8] = &[0, 1, 1, 0];
    let mut group = c.benchmark_group("ilt");
    group.sample_size(10);
    group.bench_function("one_iteration", |b| {
        b.iter_batched(
            || IltSession::new(&layout, assignment, &cfg),
            |mut session| session.step_one(),
            BatchSize::LargeInput,
        )
    });
    // allocating iteration (the pre-workspace hot path): forward + gradient
    // + descent with every intermediate freshly allocated per primitive call
    let bank = KernelBank::paper_bank(&cfg.litho);
    let scale = cfg.litho.nm_per_px;
    let target = layout.rasterize_target(scale);
    let p0 = 0.25f32;
    let mut ps: Vec<Grid> = (0u8..2)
        .map(|m| {
            layout
                .rasterize_mask(assignment, m, scale)
                .expect("assignment covers the layout")
                .map(|v| if v > 0.5 { p0 } else { -p0 })
        })
        .collect();
    let corridors: Vec<Grid> = (0u8..2)
        .map(|m| {
            layout
                .rasterize_mask_expanded(assignment, m, scale, cfg.mrc_expand_nm)
                .expect("assignment covers the layout")
        })
        .collect();
    // the baseline must compute the same numbers as the workspace path
    // (`-0.0 == 0.0` under `PartialEq`, everything else bit-equal)
    for kernel in bank.kernels() {
        assert_eq!(
            seed_field(kernel, &ps[0]),
            kernel.field(&ps[0]),
            "seed convolution diverged from the workspace passes"
        );
    }
    group.bench_function("step_alloc", |b| {
        b.iter(|| seed_iteration(&mut ps, &corridors, &target, &cfg, &bank))
    });
    // workspace iteration: identical per-iteration work, all buffers owned
    // by the session (zero per-iteration allocations). Guards are on by
    // default; `step_guard_off` isolates their overhead (EXPERIMENTS.md
    // pins it at <=2%).
    let mut session = IltSession::new(&layout, assignment, &cfg);
    group.bench_function("step_workspace", |b| b.iter(|| session.step_one()));
    let unguarded_cfg = IltConfig {
        guard: GuardPolicy::disabled(),
        ..cfg.clone()
    };
    let mut unguarded = IltSession::new(&layout, assignment, &unguarded_cfg);
    group.bench_function("step_guard_off", |b| b.iter(|| unguarded.step_one()));
    // full live-ops iteration: collector on, flight ring recording and the
    // sampling profiler running at 97 Hz — the perf gate holds this within
    // 5% of step_workspace (scrapes and samples must not perturb the hot
    // path)
    ldmo_obs::enable();
    let sampler = ldmo_obs::profiler::start(97.0);
    let mut liveops = IltSession::new(&layout, assignment, &cfg);
    group.bench_function("step_liveops", |b| b.iter(|| liveops.step_one()));
    drop(sampler);
    ldmo_obs::disable();
    group.finish();
}

fn bench_cnn(c: &mut Criterion) {
    // the paper's core runtime claim: CNN inference ≪ litho simulation
    let layout = cells::cell("AOI211_X1").expect("known cell");
    let mut predictor = PrintabilityPredictor::lite(1);
    let assignment: Vec<u8> = vec![0, 1, 0, 1, 0, 1, 0, 1];
    let mut group = c.benchmark_group("cnn");
    group.sample_size(20);
    group.bench_function("predict_one_candidate", |b| {
        b.iter(|| predictor.predict(&layout, &assignment))
    });
    group.finish();
}

fn bench_decomp(c: &mut Criterion) {
    let layout = cells::cell("AOI211_X1").expect("known cell");
    let cfg = DecompConfig::default();
    let mut group = c.benchmark_group("decomp");
    group.bench_function("generate_candidates_aoi211", |b| {
        b.iter(|| generate_candidates(&layout, &cfg))
    });
    group.bench_function("covering_array_10_3", |b| b.iter(|| covering_array(10, 3)));
    group.finish();
}

fn bench_vision(c: &mut Criterion) {
    let layout = cells::cell("AOI211_X1").expect("known cell");
    let img = layout.rasterize_target(4.0);
    let mut group = c.benchmark_group("vision");
    group.sample_size(20);
    group.bench_function("sift_extract_112", |b| {
        b.iter(|| extract_features(&img, &SiftConfig::default()))
    });
    group.finish();
}

fn bench_conv_ablation(c: &mut Criterion) {
    // DESIGN.md §4: direct vs separable vs FFT convolution crossover
    use ldmo_litho::{convolve2d_direct, convolve2d_fft, CoherentKernel};
    let mut grid = Grid::zeros(128, 128);
    grid.fill_rect(&Rect::new(40, 40, 90, 90), 1.0);
    let mut group = c.benchmark_group("conv_ablation");
    group.sample_size(10);
    for sigma in [2.0f64, 6.0] {
        let kernel = CoherentKernel::gaussian(sigma, 1.0);
        let (dense, k) = kernel.to_dense();
        group.bench_function(format!("direct_sigma{sigma}"), |b| {
            b.iter(|| convolve2d_direct(&grid, &dense, k, k))
        });
        group.bench_function(format!("separable_sigma{sigma}"), |b| {
            b.iter(|| kernel.field(&grid))
        });
        group.bench_function(format!("fft_sigma{sigma}"), |b| {
            b.iter(|| convolve2d_fft(&grid, &dense, k, k))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_litho,
    bench_ilt,
    bench_cnn,
    bench_decomp,
    bench_vision,
    bench_conv_ablation
);
criterion_main!(benches);
