//! `chip_tiles`: a seeded placement of the cell templates through
//! `run_chip`, once at 1 thread and once at 2, per op pair.

use crate::layers::{self, Direct, OpSample, Table, TraceView};
use crate::report::{self, median, quantile, ratio, Checks, Metric, Report, Rng};
use crate::Args;
use ldmo_chip::{run_chip, ChipConfig, ChipOutcome, ChipTiming};
use ldmo_geom::Rect;
use ldmo_layout::{cells, Layout};
use std::time::Instant;

/// Chip columns, in 448 nm cell windows (one tile core per cell).
const COLS: usize = 2;
/// Chip rows, in cell windows.
const ROWS: usize = 2;
/// Per-tile ILT iteration cap. Below the 9-iteration abort warm-up, so
/// every tile makes exactly one attempt of this many iterations.
const TILE_ITERS: usize = 8;
/// Per-tile candidate cap. The tiles of cell-template placements had at
/// least this many candidates on every seed tried, so every tile ranks
/// exactly this many.
const TILE_CANDIDATES: usize = 8;
/// Latency limit of a tile: the time a tile holds a worker, i.e. a run's
/// wall time × threads ÷ tiles. 1.5× the 90th percentile of the 1-thread
/// per-tile time measured on a 2-vCPU Xeon VM (866 ms), so host noise stays
/// inside it and a 1.5× slowdown of the tile path falls outside.
const SLO_MS: f64 = 1300.0;

fn config() -> ChipConfig {
    let mut cfg = ChipConfig::default();
    cfg.ilt.max_iterations = TILE_ITERS;
    cfg.decomp.max_candidates = TILE_CANDIDATES;
    cfg
}

/// A standard-cell row placement: `COLS × ROWS` of the 8 cell templates in
/// a seeded order, abutted. Returns the chip and its cells (the inputs of
/// the per-layer probes). Every seed gives the same per-tile work, so the
/// seed moves the layout but not the amount of computation.
fn inputs(seed: u64) -> (Layout, Vec<Layout>) {
    let mut cells: Vec<Layout> = cells::all_cells().into_iter().map(|(_, l)| l).collect();
    let mut rng = Rng(seed);
    for i in (1..cells.len()).rev() {
        cells.swap(i, rng.below(i + 1));
    }
    cells.truncate(COLS * ROWS);
    let w = cells[0].window();
    let (bw, bh) = (w.width(), w.height());
    let mut patterns = Vec::new();
    for (k, cell) in cells.iter().enumerate() {
        assert_eq!(cell.window(), w, "cell templates share one window");
        let (c, r) = ((k % COLS) as i32, (k / COLS) as i32);
        let (dx, dy) = (c * bw - w.x0, r * bh - w.y0);
        patterns.extend(cell.patterns().iter().map(|p| p.translated(dx, dy)));
    }
    let window = Rect::new(0, 0, COLS as i32 * bw, ROWS as i32 * bh);
    (Layout::new(window, patterns), cells)
}

/// What a pair keeps of one chip run, timed by the benchmark.
struct ChipRun {
    threads: usize,
    wall_s: f64,
    tiles: usize,
    degraded: usize,
    epe: usize,
    timing: ChipTiming,
    /// The run was usable and its masks matched the first run's.
    passed: bool,
}

fn run_at(chip: &Layout, cfg: &ChipConfig, threads: usize, op: usize) -> (ChipRun, ChipOutcome) {
    ldmo_par::set_global_threads(threads);
    let mut span = ldmo_obs::span("bench.chip");
    span.set("op", op as f64);
    span.set("threads", threads as f64);
    let t = Instant::now();
    let out = run_chip(chip, cfg);
    let wall_s = t.elapsed().as_secs_f64();
    span.set("tiles", out.tiles.len() as f64);
    let run = ChipRun {
        threads,
        wall_s,
        tiles: out.tiles.len(),
        degraded: out.degraded_tiles,
        epe: out.epe_violations,
        timing: out.timing,
        passed: false,
    };
    (run, out)
}

/// Runs (1-thread, 2-thread) pairs until `seconds` would be exceeded (at
/// least one pair), checking that every run's masks match the first one.
fn pairs(
    chip: &Layout,
    cfg: &ChipConfig,
    seconds: f64,
    reference: &mut Option<String>,
    checks: &mut Checks,
) -> Vec<ChipRun> {
    let start = Instant::now();
    let mut runs = Vec::new();
    loop {
        for threads in [1, 2] {
            let (mut run, out) = run_at(chip, cfg, threads, runs.len());
            let tiles = run.tiles as u64;
            let usable = run.tiles == out.grid.len()
                && run.degraded == 0
                && run.epe == out.tiles.iter().map(|t| t.epe_owned).sum::<usize>()
                && out
                    .masks
                    .iter()
                    .all(|m| m.as_slice().iter().all(|v| v.is_finite()));
            checks.op(tiles, usable, || {
                format!("{threads}-thread chip run: unusable or degraded tiles")
            });
            let hash = ldmo_serve::mask_hash(&out.masks);
            let same = match reference {
                None => {
                    *reference = Some(hash);
                    true
                }
                Some(h) => *h == hash,
            };
            if usable && !same {
                checks.fail(tiles, || {
                    format!("{threads}-thread chip masks differ from the first run")
                });
            }
            run.passed = usable && same;
            runs.push(run);
        }
        let per_pair = start.elapsed().as_secs_f64() / (runs.len() / 2) as f64;
        if start.elapsed().as_secs_f64() + per_pair > seconds {
            break;
        }
    }
    runs
}

fn tile_ms(run: &ChipRun) -> f64 {
    run.wall_s * 1e3 / run.tiles as f64
}

/// How long a tile of the run held a worker, on average.
fn tile_worker_ms(run: &ChipRun) -> f64 {
    tile_ms(run) * run.threads as f64
}

fn tiles_per_s(run: &ChipRun) -> f64 {
    run.tiles as f64 / run.wall_s
}

fn at(runs: &[ChipRun], threads: usize) -> impl Iterator<Item = &ChipRun> {
    runs.iter().filter(move |r| r.threads == threads)
}

/// Runs the workload.
pub fn run(args: &Args) -> Report {
    let cfg = config();
    let (chip, blocks) = inputs(args.seed);
    let mut checks = Checks::default();
    let mut reference = None;
    if !args.trace {
        let runs = pairs(&chip, &cfg, args.seconds, &mut reference, &mut checks);
        let lat_ms: Vec<f64> = at(&runs, 1).map(tile_ms).collect();
        let t1: Vec<f64> = at(&runs, 1).map(tiles_per_s).collect();
        let t2: Vec<f64> = at(&runs, 2).map(tiles_per_s).collect();
        // set-up is what run_chip does before its tiles (kernel expansion,
        // tiling), as its own ChipTiming reports it; the placement is input
        // generation and stays outside
        let setup: Vec<f64> = runs.iter().map(|r| r.timing.setup.as_secs_f64()).collect();
        let setup_s = median(&setup);
        let within: u64 = runs
            .iter()
            .filter(|r| r.passed && tile_worker_ms(r) <= SLO_MS)
            .map(|r| r.tiles as u64)
            .sum();
        let attempted = checks.attempted;
        let rss = report::peak_rss_mb();
        let m = |name, value, unit| Metric { name, value, unit };
        report::print_workload_metrics(&[
            m("chip_tiles_per_s_t1", median(&t1), "1/s"),
            m("chip_tiles_per_s_t2", median(&t2), "1/s"),
            m("epe_violations", runs[0].epe as f64, "count"),
            m("setup_s", setup_s, "s"),
            m("peak_rss_mb", rss, "MB"),
        ]);
        let mut report = checks.into_report();
        report.metric("setup_s", setup_s, "s");
        report.metric("peak_rss_mb", rss, "MB");
        report.metric("op_p50_ms", median(&lat_ms), "ms");
        report.metric("op_p90_ms", quantile(&lat_ms, 0.9), "ms");
        report.metric("ops_per_s", median(&t2), "1/s");
        report.metric("slo_frac", ratio(within as f64, attempted as f64), "ratio");
        return report;
    }

    let untraced = pairs(&chip, &cfg, args.seconds / 2.0, &mut reference, &mut checks);
    ldmo_obs::enable();
    ldmo_obs::reset();
    let traced = pairs(&chip, &cfg, args.seconds / 2.0, &mut reference, &mut checks);
    // each pair runs the chip twice; the per-layer rows count one run per op
    let conv_passes = ldmo_obs::counter("litho.conv_passes").get() as f64 / 2.0;
    // worker busy time over pool capacity, from the pool's own histograms
    // (the 1-thread runs take the serial path and record no regions)
    let busy = ldmo_obs::histogram("par.worker_busy_us").snapshot().sum as f64;
    let region = ldmo_obs::histogram("par.region_us").snapshot().sum as f64;
    let per_tile = |runs: &[ChipRun]| {
        runs.iter().map(|r| r.wall_s).sum::<f64>()
            / runs.iter().map(|r| r.tiles).sum::<usize>() as f64
    };
    let overhead = per_tile(&traced) / per_tile(&untraced) - 1.0;
    let direct = Direct::probe(&blocks, &cfg.ilt, &cfg.decomp, false, conv_passes, overhead);
    let view = TraceView::flush(args);

    let mut ops = Vec::new();
    let mut tile_s = [Vec::new(), Vec::new()];
    let mut buckets_gap = Vec::new();
    for root in view.named("bench.chip") {
        let threads = root.meta_get("threads").unwrap_or(1.0) as usize;
        let Some(run) = view.child(root, "chip.run").into_iter().next() else {
            continue;
        };
        let buckets: f64 = ["setup_us", "tiles_us", "stitch_us"]
            .iter()
            .map(|k| run.meta_get(k).unwrap_or(0.0))
            .sum();
        buckets_gap.push(1.0 - buckets / root.dur_us as f64);
        for tile in view.descendants(run, "chip.tile") {
            tile_s[threads.min(2) - 1].push(tile.dur_us as f64 / 1e6);
            if threads == 1 {
                let candidates = tile.meta_get("candidates").unwrap_or(0.0);
                let epe = tile.meta_get("epe").unwrap_or(0.0);
                ops.push(OpSample::from_ilt_spans(&view, tile, candidates, epe));
            }
        }
    }
    let reconciled = match view.trace.reconcile_flow_timing(0.01) {
        Ok(n) => n as f64,
        Err(e) => {
            checks.broken(format!("chip timing reconciliation: {e}"));
            0.0
        }
    };
    let mut report = checks.into_report();
    report.metrics = layers::per_layer(&view, &ops, &direct);

    let bucket = |threads: usize, f: fn(&ChipTiming) -> f64| -> f64 {
        median(
            &at(&traced, threads)
                .map(|r| f(&r.timing))
                .collect::<Vec<_>>(),
        )
    };
    let tiles_s_t1 = bucket(1, |o| o.tiles.as_secs_f64());
    let tiles_s_t2 = bucket(2, |o| o.tiles.as_secs_f64());
    let m = |name, value, unit| Metric { name, value, unit };
    let table = Table {
        rows: vec![
            m(
                "chip.setup_ms",
                bucket(1, |o| o.setup.as_secs_f64() * 1e3),
                "ms",
            ),
            m("chip.tiles_s", tiles_s_t1, "s"),
            m("chip.tiles_s_t2", tiles_s_t2, "s"),
            m(
                "chip.stitch_ms",
                bucket(1, |o| o.stitch.as_secs_f64() * 1e3),
                "ms",
            ),
            m("chip.tile_p50_s", median(&tile_s[0]), "s"),
            m("chip.tile_max_s", quantile(&tile_s[0], 1.0), "s"),
            m("chip.tile_p50_s_t2", median(&tile_s[1]), "s"),
            m("chip.tile_max_s_t2", quantile(&tile_s[1], 1.0), "s"),
            m(
                "chip.degraded_tiles",
                traced.iter().map(|r| r.degraded as f64).sum(),
                "count",
            ),
            m("chip.runs_reconciled", reconciled, "count"),
            m("par.busy_frac", ratio(busy, region * 2.0), "ratio"),
            m("par.speedup", ratio(tiles_s_t1, tiles_s_t2), "ratio"),
        ],
        reconciliation: vec![
            m(
                "recon.chip_timing_uncovered_frac",
                report::mean(&buckets_gap),
                "ratio",
            ),
            m(
                "recon.tile_layers_uncovered_frac",
                1.0 - ratio(
                    ops.iter().map(|o| o.covered_us).sum(),
                    ops.iter().map(|o| o.wall_us).sum(),
                ),
                "ratio",
            ),
        ],
    };
    layers::finish(args, &view, report, &table)
}
