//! End-to-end trace smoke test: run the full LDMO flow with the `ldmo-obs`
//! collector enabled, flush the JSONL trace, and validate its contents —
//! every flow stage must appear as a span with correct parentage, and the
//! ILT loop must have emitted per-iteration convergence records.
//!
//! This is the same contract the CI smoke job checks against a real
//! `table1 --trace-out` run; keeping a fast in-process copy here means a
//! broken trace fails `cargo test` before it fails CI.

use ldmo::obs;
use ldmo_core::flow::{FlowConfig, LdmoFlow, SelectionStrategy};
use ldmo_geom::Rect;
use ldmo_ilt::IltConfig;
use ldmo_layout::Layout;
use std::sync::Mutex;

/// The obs collector is process-global and `flush_jsonl` snapshots rather
/// than drains, so the tests in this binary serialize on this lock and
/// reset the collector before recording.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

fn quad_layout(gap: i32) -> Layout {
    let pitch = 64 + gap;
    Layout::new(
        Rect::new(0, 0, 448, 448),
        vec![
            Rect::square(120, 120, 64),
            Rect::square(120 + pitch, 120, 64),
            Rect::square(120, 120 + pitch, 64),
            Rect::square(120 + pitch, 120 + pitch, 64),
        ],
    )
}

#[test]
fn flow_trace_has_stage_spans_and_convergence_records() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obs::reset();
    obs::enable();
    ldmo::par::set_global_threads(1);

    let cfg = FlowConfig {
        ilt: IltConfig {
            max_iterations: 6,
            ..IltConfig::default()
        },
        ..FlowConfig::default()
    };
    let mut flow = LdmoFlow::new(cfg, SelectionStrategy::LithoProxy);
    let result = flow.run(&quad_layout(60));
    assert!(result.attempts >= 1);

    let path = std::env::temp_dir().join(format!("ldmo_trace_smoke_{}.jsonl", std::process::id()));
    let lines_written = obs::flush_jsonl(&path).expect("flush trace");
    let text = std::fs::read_to_string(&path).expect("read trace back");
    let _ = std::fs::remove_file(&path);
    let lines = obs::json::parse_jsonl(&text).expect("trace must be valid JSONL");
    assert_eq!(lines.len(), lines_written);

    // header
    let meta = &lines[0];
    assert_eq!(meta.get("type").and_then(|v| v.as_str()), Some("meta"));
    assert!(meta.get("spans").and_then(|v| v.as_f64()).unwrap_or(0.0) > 0.0);

    let of_type = |ty: &str| -> Vec<&obs::json::Value> {
        lines
            .iter()
            .filter(|l| l.get("type").and_then(|v| v.as_str()) == Some(ty))
            .collect()
    };
    let spans = of_type("span");
    fn span_name(s: &obs::json::Value) -> &str {
        s.get("name").and_then(|v| v.as_str()).unwrap_or("")
    }

    // every flow stage shows up as a span
    for stage in [
        "flow.run",
        "flow.kernel_expand",
        "flow.candidate_gen",
        "flow.rank",
    ] {
        assert!(
            spans.iter().any(|s| span_name(s) == stage),
            "missing span for stage {stage}"
        );
    }
    assert!(
        spans
            .iter()
            .any(|s| matches!(span_name(s), "flow.ilt_attempt" | "flow.ilt_final")),
        "missing ILT attempt span"
    );
    assert!(
        spans.iter().any(|s| span_name(s) == "ilt.run"),
        "missing ilt.run span"
    );

    // stage spans are children of the (single) flow.run root
    let root_id = spans
        .iter()
        .find(|s| span_name(s) == "flow.run")
        .and_then(|s| s.get("id"))
        .and_then(|v| v.as_f64())
        .expect("flow.run span id");
    for stage in ["flow.kernel_expand", "flow.candidate_gen", "flow.rank"] {
        let parent = spans
            .iter()
            .find(|s| span_name(s) == stage)
            .and_then(|s| s.get("parent"))
            .and_then(|v| v.as_f64());
        assert_eq!(parent, Some(root_id), "{stage} must nest under flow.run");
    }

    // per-iteration convergence records with finite, positive L2
    let conv = of_type("conv");
    assert!(
        !conv.is_empty(),
        "ILT iterations must emit convergence records"
    );
    let step_rows = conv
        .iter()
        .filter(|r| r.get("epe").and_then(|v| v.as_f64()) == Some(-1.0))
        .count();
    assert!(step_rows > 0, "missing per-step convergence rows");
    for r in &conv {
        let l2 = r.get("l2").and_then(|v| v.as_f64()).expect("numeric l2");
        assert!(l2 > 0.0, "implausible L2 in trace: {l2}");
        assert!(r.get("iter").and_then(|v| v.as_f64()).is_some());
    }

    // litho instrumentation fired
    let counters = of_type("counter");
    let counter = |name: &str| {
        counters
            .iter()
            .find(|c| c.get("name").and_then(|v| v.as_str()) == Some(name))
            .and_then(|c| c.get("value"))
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0)
    };
    assert!(counter("litho.conv_passes") > 0.0, "no conv passes counted");
    assert!(counter("ilt.sessions") > 0.0, "no ILT sessions counted");

    // the histogram of step durations saw every recorded step
    let hists = of_type("hist");
    let step_hist = hists
        .iter()
        .find(|h| h.get("name").and_then(|v| v.as_str()) == Some("ilt.step_us"))
        .expect("ilt.step_us histogram");
    assert!(
        step_hist
            .get("count")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0)
            >= step_rows as f64
    );

    // and the human-readable summary mentions the stages
    let summary = obs::summary();
    assert!(summary.contains("flow.run"));
    assert!(summary.contains("litho.conv_passes"));
}

/// The same flow traced at `--threads 4`: worker threads record spans
/// concurrently and adopt the dispatcher's span as their parent, so the
/// JSONL trace must stay parseable and every parent id must resolve to a
/// recorded span — no orphans floating at the root.
#[test]
fn flow_trace_stays_parseable_with_four_threads() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obs::reset();
    obs::enable();
    ldmo::par::set_global_threads(4);

    let cfg = FlowConfig {
        ilt: IltConfig {
            max_iterations: 6,
            ..IltConfig::default()
        },
        ..FlowConfig::default()
    };
    let mut flow = LdmoFlow::new(cfg, SelectionStrategy::LithoProxy);
    let result = flow.run(&quad_layout(60));
    ldmo::par::set_global_threads(1);
    assert!(result.attempts >= 1);

    let path = std::env::temp_dir().join(format!("ldmo_trace_mt_{}.jsonl", std::process::id()));
    let lines_written = obs::flush_jsonl(&path).expect("flush trace");
    let text = std::fs::read_to_string(&path).expect("read trace back");
    let _ = std::fs::remove_file(&path);
    let lines = obs::json::parse_jsonl(&text).expect("trace must be valid JSONL under threads=4");
    assert_eq!(lines.len(), lines_written);

    let spans: Vec<&obs::json::Value> = lines
        .iter()
        .filter(|l| l.get("type").and_then(|v| v.as_str()) == Some("span"))
        .collect();
    let ids: std::collections::HashSet<u64> = spans
        .iter()
        .filter_map(|s| s.get("id").and_then(|v| v.as_f64()))
        .map(|v| v as u64)
        .collect();
    for s in &spans {
        if let Some(parent) = s.get("parent").and_then(|v| v.as_f64()) {
            let parent = parent as u64;
            assert!(
                parent == 0 || ids.contains(&parent),
                "span {:?} has dangling parent {parent}",
                s.get("name")
            );
        }
    }

    // worker-side evaluation spans must hang off the flow.rank span
    // through the adopted parent, not float at the root
    let rank_id = spans
        .iter()
        .find(|s| s.get("name").and_then(|v| v.as_str()) == Some("flow.rank"))
        .and_then(|s| s.get("id"))
        .and_then(|v| v.as_f64())
        .expect("flow.rank span id");
    let evals: Vec<_> = spans
        .iter()
        .filter(|s| s.get("name").and_then(|v| v.as_str()) == Some("ilt.evaluate"))
        .collect();
    assert!(!evals.is_empty(), "ranking must record evaluation spans");
    for e in &evals {
        assert_eq!(
            e.get("parent").and_then(|v| v.as_f64()),
            Some(rank_id),
            "candidate evaluation must nest under flow.rank"
        );
    }

    // the pool advertised itself on the root span and counted its tasks
    let root = spans
        .iter()
        .find(|s| s.get("name").and_then(|v| v.as_str()) == Some("flow.run"))
        .expect("flow.run span");
    assert_eq!(root.get("pool").and_then(|v| v.as_f64()), Some(4.0));
    let par_tasks = lines
        .iter()
        .filter(|l| l.get("type").and_then(|v| v.as_str()) == Some("counter"))
        .find(|c| c.get("name").and_then(|v| v.as_str()) == Some("par.tasks"))
        .and_then(|c| c.get("value"))
        .and_then(|v| v.as_f64())
        .unwrap_or(0.0);
    assert!(par_tasks > 0.0, "par.tasks counter must have fired");
}
