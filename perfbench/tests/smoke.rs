//! Smoke test of the benchmark itself: every workload as the benchmark
//! runs it, with a 1-second measurement (each workload still runs at least
//! one lap, pair or stream), untraced and traced, asserting that the result
//! line carries every metric `BENCHMARK.json` names, with its unit, and
//! that the traced run leaves a span file that parses and a per-layer
//! table.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use ldmo_obs::json::{self, Value};
use std::path::{Path, PathBuf};
use std::process::Command;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` list.
fn declared(bench: &Value, list: &str) -> Vec<(String, String)> {
    bench
        .get(list)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn workdir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench_smoke_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the smoke work dir");
    dir
}

/// Runs one smoke invocation and returns its parsed result line.
fn run(dir: &Path, workload: &str, trace: bool) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_ldmo-perfbench"))
        .current_dir(dir)
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    json::parse(last).expect("the result line parses")
}

fn check(workload: &str) {
    let bench = benchmark_json();
    let dir = workdir(workload);
    for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
        let result = run(&dir, workload, trace);
        let keys: Vec<&str> = match &result {
            Value::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("result line is an object"),
        };
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(matches!(result.get("correct"), Some(Value::Bool(true))));
        assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
        assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
        let metrics = result.get("metrics").expect("metrics");
        let declared = declared(&bench, list);
        for (name, unit) in &declared {
            let metric = metrics
                .get(name)
                .unwrap_or_else(|| panic!("{workload}: metric {name} missing"));
            assert_eq!(
                metric.get("unit").and_then(Value::as_str),
                Some(unit.as_str())
            );
            let value = metric.get("value").and_then(Value::as_f64);
            assert!(
                value.is_some_and(f64::is_finite),
                "{workload}: {name} = {value:?}"
            );
        }
        match metrics {
            Value::Obj(fields) => {
                assert_eq!(fields.len(), declared.len(), "{workload}: extra metrics")
            }
            _ => panic!("metrics is an object"),
        }
    }
    let out = dir.join(".perfbench_out");
    let trace = out.join(format!("trace_{workload}_s3.jsonl"));
    let parsed = ldmo_obs::analyze::Trace::load(&trace).expect("the span file parses");
    assert!(parsed.spans.iter().any(|s| s.name.starts_with("bench.")));
    let table = std::fs::read_to_string(out.join(format!("layers_{workload}_s3.json")))
        .expect("the per-layer table exists");
    let table = json::parse(&table).expect("the per-layer table parses");
    assert!(table.get("reconciliation").is_some());
}

#[test]
fn flow_cells_reports_every_metric() {
    check("flow_cells");
}

#[test]
fn chip_tiles_reports_every_metric() {
    check("chip_tiles");
}

#[test]
fn serve_mixed_reports_every_metric() {
    check("serve_mixed");
}
