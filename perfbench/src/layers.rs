//! The traced run: the span file, the per-layer metrics derived from it,
//! and the per-layer table with its reconciliation.
//!
//! Every workload reduces its traced ops (a clip, a tile or a replayed
//! request) to [`OpSample`]s read from the span tree of the trace file it
//! just wrote — the file is loaded back with the same parser `ldmo trace
//! summarize` uses — and [`per_layer`] turns them into the per-layer
//! metrics listed in `BENCHMARK.json`. Rows that exist on one workload
//! only go into the table file next to the trace.

use crate::report::{self, median, ratio, Metric, Report};
use crate::Args;
use ldmo_core::predictor::PrintabilityPredictor;
use ldmo_decomp::{generate_candidates, DecompConfig};
use ldmo_ilt::{IltConfig, IltContext};
use ldmo_layout::Layout;
use ldmo_obs::analyze::{Trace, TraceSpan};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// The parsed trace of a traced run, indexed by parent.
pub struct TraceView {
    /// The parsed trace.
    pub trace: Trace,
    children: HashMap<u64, Vec<usize>>,
    /// Where the trace was written.
    pub path: PathBuf,
}

impl TraceView {
    /// Flushes the collector to `.perfbench_out/trace_<workload>_s<seed>.jsonl`
    /// and reads it back. Panics when the file cannot be written or parsed:
    /// the traced run exists to produce it.
    pub fn flush(args: &Args) -> TraceView {
        let path = report::out_dir().join(format!("trace_{}_s{}.jsonl", args.workload, args.seed));
        let lines = ldmo_obs::flush_jsonl(&path).expect("write the span file");
        let trace = Trace::load(&path).expect("the span file parses as an ldmo-obs trace");
        assert_eq!(trace.skipped_lines, 0, "every trace line parses");
        // the text `ldmo trace summarize` prints for this file
        let summary = ldmo_obs::analyze::render_summary(&trace);
        eprintln!(
            "[perfbench] trace: {lines} lines in {} ({} summary lines)",
            path.display(),
            summary.lines().count()
        );
        let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, s) in trace.spans.iter().enumerate() {
            children.entry(s.parent).or_default().push(i);
        }
        TraceView {
            trace,
            children,
            path,
        }
    }

    /// All spans named `name`, in start order.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a TraceSpan> + 'a {
        self.trace.spans.iter().filter(move |s| s.name == name)
    }

    /// Direct children of `span` named `name`, in start order.
    pub fn child<'a>(&'a self, span: &TraceSpan, name: &'a str) -> Vec<&'a TraceSpan> {
        self.children
            .get(&span.id)
            .map(|v| {
                v.iter()
                    .map(|&i| &self.trace.spans[i])
                    .filter(|s| s.name == name)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Every descendant of `span` named `name`, in start order.
    pub fn descendants<'a>(&'a self, span: &TraceSpan, name: &str) -> Vec<&'a TraceSpan> {
        let mut out = Vec::new();
        let mut stack = vec![span.id];
        while let Some(id) = stack.pop() {
            for &i in self.children.get(&id).map_or(&[][..], Vec::as_slice) {
                let s = &self.trace.spans[i];
                if s.name == name {
                    out.push(s);
                }
                stack.push(s.id);
            }
        }
        out.sort_by_key(|s| (s.start_us, s.id));
        out
    }
}

/// One traced op reduced to its layer rows, in microseconds.
#[derive(Debug, Clone, Default)]
pub struct OpSample {
    /// Wall time of the op's root span.
    pub wall_us: f64,
    /// Decomposition candidates generated.
    pub candidates: f64,
    /// Candidate ranking time.
    pub rank_us: f64,
    /// Selection bucket: everything but the accepted optimization.
    pub select_us: f64,
    /// The accepted (or final) ILT run.
    pub optimize_us: f64,
    /// Time explained by layer spans (kernel expansion, candidate
    /// generation, ranking, ILT runs).
    pub covered_us: f64,
    /// `(duration µs, iterations, aborted)` of every ILT run of the op.
    pub ilt_runs: Vec<(f64, f64, bool)>,
    /// EPE violations of the op's final masks.
    pub epe: f64,
}

impl OpSample {
    /// Splits an op whose ranking is a set of `ilt.evaluate` spans and whose
    /// attempts are `ilt.run` spans below `root` (a chip tile or a replayed
    /// request): the last ILT run is the accepted one, the rest of the
    /// root's time is selection.
    pub fn from_ilt_spans(view: &TraceView, root: &TraceSpan, candidates: f64, epe: f64) -> Self {
        let rank_us: f64 = ["ilt.evaluate", "ilt.evaluate_batch"]
            .iter()
            .flat_map(|n| view.descendants(root, n))
            .map(|s| s.dur_us as f64)
            .sum();
        let runs = ilt_runs(view, root);
        let optimize_us = runs.last().map_or(0.0, |r| r.0);
        let wall_us = root.dur_us as f64;
        OpSample {
            wall_us,
            candidates,
            rank_us,
            select_us: wall_us - optimize_us,
            optimize_us,
            covered_us: rank_us + runs.iter().map(|r| r.0).sum::<f64>(),
            ilt_runs: runs,
            epe,
        }
    }
}

/// `(duration µs, iterations, aborted)` of every `ilt.run` below `root`.
pub fn ilt_runs(view: &TraceView, root: &TraceSpan) -> Vec<(f64, f64, bool)> {
    view.descendants(root, "ilt.run")
        .iter()
        .map(|s| {
            (
                s.dur_us as f64,
                s.meta_get("iterations").unwrap_or(0.0),
                s.meta_get("aborted").unwrap_or(0.0) > 0.0,
            )
        })
        .collect()
}

/// Inputs of [`per_layer`] that are not read from op spans.
pub struct Direct {
    /// `IltContext::new` wall times, ms.
    pub kernel_expand_ms: Vec<f64>,
    /// `litho.conv_passes` counted over the traced ops.
    pub conv_passes: f64,
    /// `PrintabilityPredictor::rank` ms per candidate.
    pub nn_rank_ms_per_candidate: f64,
    /// Traced op time over untraced op time, minus one.
    pub trace_overhead_frac: f64,
}

impl Direct {
    /// Direct probes on the workload's own layouts, each under a benchmark
    /// span: kernel expansion (`IltContext::new`) and CNN ranking
    /// (`PrintabilityPredictor::rank`, whose cost does not depend on the
    /// weights). With `evaluate`, also the litho-proxy forward pass on each
    /// layout's first candidate, for a path that never calls it itself.
    pub fn probe<'a>(
        layouts: impl IntoIterator<Item = &'a Layout>,
        ilt: &IltConfig,
        decomp: &DecompConfig,
        evaluate: bool,
        conv_passes: f64,
        trace_overhead_frac: f64,
    ) -> Direct {
        let mut kernel_expand_ms = Vec::new();
        let mut nn_ms = 0.0;
        let mut nn_candidates = 0usize;
        let mut predictor = PrintabilityPredictor::lite(7);
        for layout in layouts {
            let t = Instant::now();
            let ctx = {
                let _s = ldmo_obs::span("bench.kernel_expand");
                IltContext::new(ilt)
            };
            kernel_expand_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let candidates = generate_candidates(layout, decomp);
            let t = Instant::now();
            {
                let mut s = ldmo_obs::span("bench.nn_rank");
                s.set("candidates", candidates.len() as f64);
                std::hint::black_box(predictor.rank(layout, &candidates));
            }
            nn_ms += t.elapsed().as_secs_f64() * 1e3;
            nn_candidates += candidates.len();
            if evaluate {
                let _s = ldmo_obs::span("bench.evaluate");
                std::hint::black_box(ctx.evaluate_unoptimized(layout, &candidates[0]));
            }
        }
        Direct {
            kernel_expand_ms,
            conv_passes,
            nn_rank_ms_per_candidate: ratio(nn_ms, nn_candidates as f64),
            trace_overhead_frac,
        }
    }
}

/// The per-layer metrics of `BENCHMARK.json`, measured the same way on
/// every workload.
pub fn per_layer(view: &TraceView, ops: &[OpSample], direct: &Direct) -> Vec<Metric> {
    let n = ops.len() as f64;
    let runs: Vec<&(f64, f64, bool)> = ops.iter().flat_map(|o| &o.ilt_runs).collect();
    let run_us: f64 = runs.iter().map(|r| r.0).sum();
    let iterations: f64 = runs.iter().map(|r| r.1).sum();
    let aborted = runs.iter().filter(|r| r.2).count() as f64;
    let evaluate_ms: Vec<f64> = view
        .named("ilt.evaluate")
        .map(|s| s.dur_us as f64 / 1e3)
        .collect();
    let wall: f64 = ops.iter().map(|o| o.wall_us).sum();
    let covered: f64 = ops.iter().map(|o| o.covered_us).sum();
    let per_op = |f: fn(&OpSample) -> f64| ratio(ops.iter().map(f).sum(), n);
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("decomp.candidates", per_op(|o| o.candidates), "count"),
        m(
            "litho.kernel_expand_ms",
            median(&direct.kernel_expand_ms),
            "ms",
        ),
        m("litho.conv_passes", ratio(direct.conv_passes, n), "count"),
        m("ilt.step_ms", ratio(run_us / 1e3, iterations), "ms"),
        m("ilt.iterations", ratio(iterations, n), "count"),
        m("ilt.attempts", ratio(runs.len() as f64, n), "count"),
        m("ilt.abort_frac", ratio(aborted, runs.len() as f64), "ratio"),
        m("ilt.evaluate_ms", median(&evaluate_ms), "ms"),
        m(
            "ilt.epe_violations",
            ops.iter().map(|o| o.epe).sum(),
            "count",
        ),
        m("core.rank_ms", per_op(|o| o.rank_us) / 1e3, "ms"),
        m("core.select_s", per_op(|o| o.select_us) / 1e6, "s"),
        m("core.optimize_s", per_op(|o| o.optimize_us) / 1e6, "s"),
        m(
            "nn.rank_ms_per_candidate",
            direct.nn_rank_ms_per_candidate,
            "ms",
        ),
        m(
            "obs.trace_overhead_frac",
            direct.trace_overhead_frac,
            "ratio",
        ),
        m("recon.uncovered_frac", 1.0 - ratio(covered, wall), "ratio"),
    ]
}

/// Rows of the per-layer table that are not result-line metrics.
#[derive(Debug, Default)]
pub struct Table {
    /// Workload-specific layer rows (`chip.*`, `par.*`, `serve.*`, …).
    pub rows: Vec<Metric>,
    /// Reconciliation rows: layer sums against end-to-end time.
    pub reconciliation: Vec<Metric>,
}

/// Writes `.perfbench_out/layers_<workload>_s<seed>.json` (every per-layer
/// metric, the workload rows and the reconciliation), prints the same
/// table to stderr, and returns the per-layer report.
pub fn finish(args: &Args, view: &TraceView, report: Report, table: &Table) -> Report {
    let fp = report::Fingerprint::collect();
    let json = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"trace_file\":\"{}\",\"fingerprint\":{},\
         \"per_layer\":{},\"workload_rows\":{},\"reconciliation\":{}}}\n",
        args.workload,
        args.seed,
        ldmo_obs::json::escape(&view.path.display().to_string()),
        fp.to_json(args),
        report::metrics_json(&report.metrics),
        report::metrics_json(&table.rows),
        report::metrics_json(&table.reconciliation)
    );
    let path = report::out_dir().join(format!("layers_{}_s{}.json", args.workload, args.seed));
    std::fs::write(&path, json).expect("write the per-layer table");
    let mut text = format!("[perfbench] per-layer table ({})\n", path.display());
    for (title, rows) in [
        ("per-layer", &report.metrics),
        ("workload rows", &table.rows),
        ("reconciliation", &table.reconciliation),
    ] {
        let _ = writeln!(text, "  {title}:");
        for m in rows.iter() {
            let _ = writeln!(text, "    {:<32} {:>14.4} {}", m.name, m.value, m.unit);
        }
    }
    eprint!("{text}");
    report
}
