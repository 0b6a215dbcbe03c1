//! `flow_cells`: the 13 Table-I clips through `LdmoFlow::run` with the CNN
//! selector, one thread, the paper's 29-iteration budget.

use crate::layers::{self, Direct, OpSample, Table, TraceView};
use crate::report::{self, median, quantile, ratio, Checks, Metric, Report};
use crate::Args;
use ldmo_core::flow::{FlowConfig, LdmoFlow, SelectionStrategy};
use ldmo_core::predictor::PrintabilityPredictor;
use ldmo_decomp::{generate_candidates, is_dpl_compatible, DecompConfig};
use ldmo_layout::classify::ClassifyConfig;
use ldmo_layout::generate::LayoutGenerator;
use ldmo_layout::{cells, Layout};
use std::time::Instant;

/// A clip slower than this misses the latency limit.
const SLO_MS: f64 = 2000.0;
/// Set-ups timed before every lap; the median over the run is reported.
/// The reference host's vCPU switches between two speeds about 35% apart
/// every fraction of a second, so a burst of set-ups at the start of a run
/// lands in one of them by chance; set-ups spread over the run do not.
const SETUP_REPS_PER_LAP: usize = 50;
/// Generated clips next to the 8 cell templates.
const GENERATED: usize = 5;

/// The 8 cell templates plus 5 DPL-compatible generated clips drawn from
/// `seed` (the Table-I recipe of `ldmo_bench::testcases`, with the seed as
/// an argument). The generated clips are the ones with a single
/// decomposition candidate, so the seed changes their layout but hardly
/// their work: a clip with several candidates can run 1 to 5 abort-ladder
/// attempts (0.4-1.3 s), and two such clips moved a lap's 90th percentile
/// by a quarter from seed to seed. The cells still rank 2-8 candidates and
/// run the ladder.
fn inputs(seed: u64, decomp: &DecompConfig) -> Vec<(String, Layout)> {
    let mut cases: Vec<(String, Layout)> = cells::all_cells()
        .into_iter()
        .map(|(n, l)| (n.to_owned(), l))
        .collect();
    let nmin = ClassifyConfig::default().nmin;
    let mut generator = LayoutGenerator::new(ldmo_bench::dense_generator_config(), seed);
    let mut drawn = 0;
    for _ in 0..GENERATED * 200 {
        if drawn == GENERATED {
            break;
        }
        for layout in generator.generate_dataset(1) {
            if is_dpl_compatible(&layout, nmin) && generate_candidates(&layout, decomp).len() == 1 {
                drawn += 1;
                cases.push((format!("GEN_{drawn}"), layout));
            }
        }
    }
    assert_eq!(
        drawn, GENERATED,
        "seed {seed} yields {GENERATED} DPL-compatible single-candidate clips"
    );
    cases
}

fn cnn() -> SelectionStrategy {
    // untrained deterministic weights: the per-prediction cost does not
    // depend on the weights, and training would cost minutes of labeling
    SelectionStrategy::Cnn(Box::new(PrintabilityPredictor::lite(7)))
}

/// What a lap keeps of one clip.
struct Clip {
    wall_s: f64,
    usable: bool,
    epe: usize,
}

/// Times `reps` builds of the flow with its CNN selector, in seconds.
fn time_setups(cfg: &FlowConfig, reps: usize, setup_s: &mut Vec<f64>) {
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(LdmoFlow::new(cfg.clone(), cnn()));
        setup_s.push(t.elapsed().as_secs_f64());
    }
}

/// Runs whole laps over `cases` until `seconds` would be exceeded (at
/// least one lap), checking every result against the first lap's masks
/// and timing set-ups before each lap.
fn laps(
    flow: &mut LdmoFlow,
    cases: &[(String, Layout)],
    seconds: f64,
    reference: &mut Vec<String>,
    checks: &mut Checks,
    setup_s: &mut Vec<f64>,
) -> Vec<Clip> {
    let start = Instant::now();
    let mut clips = Vec::new();
    let mut lap = 0usize;
    loop {
        time_setups(flow.config(), SETUP_REPS_PER_LAP, setup_s);
        for (k, (name, layout)) in cases.iter().enumerate() {
            let mut span = ldmo_obs::span("bench.clip");
            span.set("op", (lap * cases.len() + k) as f64);
            let t = Instant::now();
            let result = flow.run(layout);
            let wall_s = t.elapsed().as_secs_f64();
            span.set("candidates", result.candidates as f64);
            span.set("epe", result.outcome.epe_violations() as f64);
            drop(span);
            let masks = &result.outcome.masks;
            let usable = result.outcome.health.is_usable()
                && result.assignment.len() == layout.len()
                && result.attempts >= 1
                && masks
                    .iter()
                    .all(|m| m.as_slice().iter().all(|v| v.is_finite()));
            checks.op(1, usable, || format!("{name}: unusable flow result"));
            let hash = ldmo_serve::mask_hash(masks);
            match reference.get(k) {
                None => reference.push(hash),
                Some(h) if *h != hash => {
                    checks.fail(1, || format!("{name}: masks differ from the first run"))
                }
                Some(_) => {}
            }
            clips.push(Clip {
                wall_s,
                usable,
                epe: result.outcome.epe_violations(),
            });
        }
        lap += 1;
        let per_lap = start.elapsed().as_secs_f64() / lap as f64;
        if start.elapsed().as_secs_f64() + per_lap > seconds {
            break;
        }
    }
    clips
}

/// Runs the workload.
pub fn run(args: &Args) -> Report {
    ldmo_par::set_global_threads(1);
    let cfg = FlowConfig::default();
    let cases = inputs(args.seed, &cfg.decomp);
    // set-up is what the program builds before its first clip: the flow
    // with its CNN selector (`LdmoFlow::run` expands the kernel bank per
    // clip, inside the op). Input generation stays outside, so the seed
    // does not move set-up time.
    let mut setups = Vec::new();
    let t = Instant::now();
    let mut flow = LdmoFlow::new(cfg.clone(), cnn());
    setups.push(t.elapsed().as_secs_f64());
    let mut checks = Checks::default();
    let mut reference = Vec::new();
    // one checked but unmeasured clip first: a process's first clip ran
    // about a third slower than its later runs (a cold start), while the
    // rest of the first lap ran like later laps
    let start = Instant::now();
    let warmup = laps(
        &mut flow,
        &cases[..1],
        0.0,
        &mut reference,
        &mut checks,
        &mut setups,
    );
    let left_s = (args.seconds - start.elapsed().as_secs_f64()).max(0.0);
    if !args.trace {
        let clips = laps(
            &mut flow,
            &cases,
            left_s,
            &mut reference,
            &mut checks,
            &mut setups,
        );
        let lat_ms: Vec<f64> = clips.iter().map(|c| c.wall_s * 1e3).collect();
        let total_s: f64 = clips.iter().map(|c| c.wall_s).sum();
        let within = warmup
            .iter()
            .chain(&clips)
            .filter(|c| c.usable && c.wall_s * 1e3 <= SLO_MS)
            .count();
        let epe: usize = clips[..cases.len()].iter().map(|c| c.epe).sum();
        let attempted = checks.attempted;
        let setup_s = median(&setups);
        let rss = report::peak_rss_mb();
        let m = |name, value, unit| Metric { name, value, unit };
        report::print_workload_metrics(&[
            m("flow_clip_p50_s", median(&lat_ms) / 1e3, "s"),
            m("flow_clips_per_s", clips.len() as f64 / total_s, "1/s"),
            m("epe_violations", epe as f64, "count"),
            m("setup_s", setup_s, "s"),
            m("peak_rss_mb", rss, "MB"),
        ]);
        let mut report = checks.into_report();
        report.metric("setup_s", setup_s, "s");
        report.metric("peak_rss_mb", rss, "MB");
        report.metric("op_p50_ms", median(&lat_ms), "ms");
        report.metric("op_p90_ms", quantile(&lat_ms, 0.9), "ms");
        report.metric("ops_per_s", clips.len() as f64 / total_s, "1/s");
        report.metric("slo_frac", ratio(within as f64, attempted as f64), "ratio");
        return report;
    }

    // traced run: half the time untraced (the overhead baseline), half
    // traced, then the direct layer probes
    let untraced = laps(
        &mut flow,
        &cases,
        left_s / 2.0,
        &mut reference,
        &mut checks,
        &mut setups,
    );
    ldmo_obs::enable();
    ldmo_obs::reset();
    let traced = laps(
        &mut flow,
        &cases,
        left_s / 2.0,
        &mut reference,
        &mut checks,
        &mut setups,
    );
    let conv_passes = ldmo_obs::counter("litho.conv_passes").get() as f64;
    let per_clip =
        |clips: &[Clip]| clips.iter().map(|c| c.wall_s).sum::<f64>() / clips.len() as f64;
    let overhead = per_clip(&traced) / per_clip(&untraced) - 1.0;
    let layouts = cases.iter().map(|(_, l)| l);
    let direct = Direct::probe(layouts, &cfg.ilt, &cfg.decomp, true, conv_passes, overhead);
    let view = TraceView::flush(args);

    let mut ops = Vec::new();
    let mut timing_gap = Vec::new();
    for clip in view.named("bench.clip") {
        let Some(run) = view.child(clip, "flow.run").into_iter().next() else {
            continue;
        };
        let sel = run.meta_get("sel_us").unwrap_or(0.0);
        let opt = run.meta_get("opt_us").unwrap_or(0.0);
        let stage = |name| -> f64 { view.child(run, name).iter().map(|s| s.dur_us as f64).sum() };
        let runs = layers::ilt_runs(&view, run);
        let rank_us = stage("flow.rank");
        let wall_us = clip.dur_us as f64;
        timing_gap.push(1.0 - (sel + opt) / wall_us);
        ops.push(OpSample {
            wall_us,
            candidates: clip.meta_get("candidates").unwrap_or(0.0),
            rank_us,
            select_us: sel,
            optimize_us: opt,
            covered_us: stage("flow.kernel_expand")
                + stage("flow.candidate_gen")
                + rank_us
                + runs.iter().map(|r| r.0).sum::<f64>(),
            ilt_runs: runs,
            epe: clip.meta_get("epe").unwrap_or(0.0),
        });
    }
    let reconciled = match view.trace.reconcile_flow_timing(0.01) {
        Ok(n) => n,
        Err(e) => {
            checks.broken(format!("flow timing reconciliation: {e}"));
            0
        }
    };
    let mut report = checks.into_report();
    report.metrics = layers::per_layer(&view, &ops, &direct);
    let table = Table {
        rows: vec![Metric {
            name: "flow.runs_reconciled",
            value: reconciled as f64,
            unit: "count",
        }],
        reconciliation: vec![Metric {
            name: "recon.flow_timing_uncovered_frac",
            value: report::mean(&timing_gap),
            unit: "ratio",
        }],
    };
    layers::finish(args, &view, report, &table)
}
