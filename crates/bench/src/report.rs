//! Machine-readable bench reports: the `BENCH_<name>.json` schema shared by
//! the reproduction binaries, the vendored criterion harness and the
//! `ldmo bench-report` aggregator / CI perf gate.
//!
//! One report per harness run, one result row per measured quantity:
//!
//! ```json
//! {"schema":"ldmo-bench-report","version":1,"name":"table1",
//!  "git_rev":"abc1234","threads":8,"cpu":"Intel(R) Xeon(R) ...",
//!  "fast":false,"written_unix_ms":0,
//!  "results":[{"id":"AOI211_X1/ours","unit":"s","n":1,
//!              "min":1.2,"median":1.2,"max":1.2,"mean":1.2,
//!              "meta":{"epe":0}}]}
//! ```
//!
//! Row `id`s are stable across runs (testcase/flow names, bench ids), which
//! is what lets `scripts/perf_gate.py` and `ldmo trace diff`-style tooling
//! match rows between a fresh run and a committed baseline. Conventions are
//! documented in DESIGN.md §12.

use ldmo_obs::json::{self, Value};
use std::io;
use std::path::{Path, PathBuf};

/// One measured quantity: summary statistics over `n` samples plus free-form
/// numeric metadata (grid sizes, EPE counts, iteration counts …).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Stable row identifier, e.g. `"AOI211_X1/ours"` or
    /// `"ilt/step_one_448"`.
    pub id: String,
    /// Unit of the statistics fields: `"s"`, `"ns"`, `"count"` …
    pub unit: String,
    /// Number of samples the statistics summarize.
    pub n: u64,
    /// Smallest sample.
    pub min: f64,
    /// Median sample.
    pub median: f64,
    /// Largest sample.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Extra numeric context, emitted as a nested `"meta"` object.
    pub meta: Vec<(String, f64)>,
}

/// A full `BENCH_<name>.json` report.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Harness name (`table1`, `kernels` …); also names the output file.
    pub name: String,
    /// `git rev-parse --short HEAD` at collection time, `"unknown"` when
    /// git is unavailable.
    pub git_rev: String,
    /// Worker-thread count the run was collected with (the host's cores).
    pub threads: usize,
    /// The host's CPU model (`model name` in `/proc/cpuinfo`), `"unknown"`
    /// where that is unavailable.
    pub cpu: String,
    /// Whether `LDMO_FAST=1` shrank the workload.
    pub fast: bool,
    /// Wall-clock collection time (ms since the Unix epoch).
    pub written_unix_ms: u64,
    /// The measured rows.
    pub results: Vec<BenchResult>,
}

/// The first `model name` in `/proc/cpuinfo`, or `"unknown"`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// `git rev-parse --short HEAD`, or `"unknown"` outside a git checkout.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

impl BenchReport {
    /// Starts an empty report, stamping git revision, thread count and fast
    /// mode from the environment.
    pub fn new(name: impl Into<String>) -> Self {
        BenchReport {
            name: name.into(),
            git_rev: git_rev(),
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu: cpu_model(),
            fast: crate::fast_mode(),
            written_unix_ms: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0),
            results: Vec::new(),
        }
    }

    /// Records a single-sample measurement; returns the row for optional
    /// `meta` additions.
    pub fn push_value(
        &mut self,
        id: impl Into<String>,
        unit: impl Into<String>,
        value: f64,
    ) -> &mut BenchResult {
        self.push_samples(id, unit, &[value])
    }

    /// Records summary statistics over `samples` (must be non-empty; an
    /// empty slice records an all-NaN row rather than panicking).
    pub fn push_samples(
        &mut self,
        id: impl Into<String>,
        unit: impl Into<String>,
        samples: &[f64],
    ) -> &mut BenchResult {
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let (min, median, max, mean) = if sorted.is_empty() {
            (f64::NAN, f64::NAN, f64::NAN, f64::NAN)
        } else {
            (
                sorted[0],
                sorted[sorted.len() / 2],
                sorted[sorted.len() - 1],
                sorted.iter().sum::<f64>() / sorted.len() as f64,
            )
        };
        self.results.push(BenchResult {
            id: id.into(),
            unit: unit.into(),
            n: samples.len() as u64,
            min,
            median,
            max,
            mean,
            meta: Vec::new(),
        });
        self.results.last_mut().expect("just pushed")
    }

    /// Serializes the report (one line per result row for reviewable
    /// diffs of committed baselines).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"schema\":\"ldmo-bench-report\",\"version\":1,\
             \"name\":\"{}\",\"git_rev\":\"{}\",\"threads\":{},\"cpu\":\"{}\",\
             \"fast\":{},\"written_unix_ms\":{},\"results\":[",
            json::escape(&self.name),
            json::escape(&self.git_rev),
            self.threads,
            json::escape(&self.cpu),
            self.fast,
            self.written_unix_ms
        );
        for (i, r) in self.results.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                " {{\"id\":\"{}\",\"unit\":\"{}\",\"n\":{},\"min\":{},\
                 \"median\":{},\"max\":{},\"mean\":{}",
                json::escape(&r.id),
                json::escape(&r.unit),
                r.n,
                json::number(r.min),
                json::number(r.median),
                json::number(r.max),
                json::number(r.mean)
            ));
            if !r.meta.is_empty() {
                out.push_str(",\"meta\":{");
                for (j, (k, v)) in r.meta.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("\"{}\":{}", json::escape(k), json::number(*v)));
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("\n]}\n");
        out
    }

    /// Writes the report to `target`: a directory (existing, or a path
    /// ending in `/`) receives `BENCH_<name>.json` inside it; any other
    /// path is used verbatim. Parent directories are created. Returns the
    /// resolved file path.
    pub fn write(&self, target: &Path) -> io::Result<PathBuf> {
        let path = resolve_out_path(target, &self.name);
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Parses a report previously written by [`BenchReport::write`] (or the
    /// vendored criterion harness, which emits the same schema).
    pub fn load(path: &Path) -> Result<BenchReport, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Parses the report schema from a JSON string.
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let value = json::parse(text)?;
        if !matches!(&value, Value::Obj(_)) {
            return Err("report root is not an object".into());
        }
        let get_str = |key: &str| -> String {
            value
                .get(key)
                .and_then(Value::as_str)
                .unwrap_or("unknown")
                .to_owned()
        };
        let get_num = |key: &str| -> f64 { value.get(key).and_then(Value::as_f64).unwrap_or(0.0) };
        if get_str("schema") != "ldmo-bench-report" {
            return Err("missing or wrong \"schema\" marker".into());
        }
        let fast = matches!(value.get("fast"), Some(Value::Bool(true)));
        let mut results = Vec::new();
        if let Some(rows) = value.get("results").and_then(Value::as_array) {
            for row in rows {
                let num = |key: &str| row.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN);
                let mut meta = Vec::new();
                if let Some(Value::Obj(pairs)) = row.get("meta") {
                    for (k, v) in pairs {
                        meta.push((k.clone(), v.as_f64().unwrap_or(f64::NAN)));
                    }
                }
                results.push(BenchResult {
                    id: row
                        .get("id")
                        .and_then(Value::as_str)
                        .ok_or("result row without \"id\"")?
                        .to_owned(),
                    unit: row
                        .get("unit")
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_owned(),
                    n: num("n") as u64,
                    min: num("min"),
                    median: num("median"),
                    max: num("max"),
                    mean: num("mean"),
                    meta,
                });
            }
        }
        Ok(BenchReport {
            name: get_str("name"),
            git_rev: get_str("git_rev"),
            threads: get_num("threads") as usize,
            cpu: get_str("cpu"),
            fast,
            written_unix_ms: get_num("written_unix_ms") as u64,
            results,
        })
    }

    /// Loads every `BENCH_*.json` in `dir`, sorted by report name.
    pub fn load_dir(dir: &Path) -> Result<Vec<BenchReport>, String> {
        let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut reports = Vec::new();
        for entry in entries {
            let path = entry.map_err(|e| e.to_string())?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with("BENCH_") && name.ends_with(".json") {
                reports.push(BenchReport::load(&path)?);
            }
        }
        reports.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(reports)
    }
}

fn resolve_out_path(target: &Path, name: &str) -> PathBuf {
    let trailing_slash = target
        .as_os_str()
        .to_str()
        .is_some_and(|s| s.ends_with('/'));
    if target.is_dir() || trailing_slash {
        target.join(format!("BENCH_{name}.json"))
    } else {
        target.to_path_buf()
    }
}

/// Walks up from the current directory to the nearest ancestor whose
/// `Cargo.toml` declares a `[workspace]` section.
///
/// Cargo runs bench/test executables with the *package* directory as CWD,
/// so a relative `--json-out bench_out/` passed to a crate's bench would
/// otherwise land in `crates/<pkg>/bench_out/` instead of the repo-level
/// `bench_out/` that the perf gate and committed baselines use.
pub fn workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if std::fs::read_to_string(dir.join("Cargo.toml")).is_ok_and(|t| t.contains("[workspace]"))
        {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Anchors a relative output path at [`workspace_root`]; absolute paths
/// (and relative ones outside any workspace) pass through untouched.
fn resolve_against_workspace(target: PathBuf) -> PathBuf {
    if target.is_absolute() {
        return target;
    }
    match workspace_root() {
        Some(root) => root.join(target),
        None => target,
    }
}

/// Scans `std::env::args` for `--json-out PATH` (the shared CLI convention
/// of the bench bins and criterion benches). Relative paths resolve against
/// the workspace root, not the executable's CWD.
pub fn json_out_arg() -> Option<PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2)
        .rfind(|pair| pair[0] == "--json-out")
        .map(|pair| resolve_against_workspace(PathBuf::from(&pair[1])))
}

/// Writes `report` when `--json-out` was passed, reporting the outcome on
/// stderr. Silent no-op otherwise — the bins call this unconditionally at
/// the end of the run.
pub fn maybe_write(report: &BenchReport) {
    let Some(target) = json_out_arg() else { return };
    match report.write(&target) {
        Ok(path) => eprintln!("[bench] report written to {}", path.display()),
        Err(e) => eprintln!("[bench] could not write {}: {e}", target.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_preserves_rows() {
        let mut report = BenchReport::new("unit_test");
        report.push_value("case_a/ours", "s", 1.25);
        let row = report.push_samples("kernel/x", "ns", &[3.0, 1.0, 2.0]);
        row.meta.push(("grid".into(), 448.0));
        let parsed = BenchReport::from_json(&report.to_json()).expect("parses");
        assert_eq!(parsed, report);
        assert_eq!(parsed.results[1].min, 1.0);
        assert_eq!(parsed.results[1].median, 2.0);
        assert_eq!(parsed.results[1].max, 3.0);
        assert_eq!(parsed.results[1].mean, 2.0);
    }

    #[test]
    fn rejects_foreign_json() {
        assert!(BenchReport::from_json("{\"schema\":\"other\"}").is_err());
        assert!(BenchReport::from_json("not json").is_err());
    }

    #[test]
    fn relative_json_out_anchors_at_the_workspace_root() {
        // cargo runs this test with crates/bench as CWD; the walk-up must
        // land on the repo root, one level above the package dir
        let root = workspace_root().expect("tests run inside the workspace");
        let cwd = std::env::current_dir().expect("cwd");
        assert_ne!(root, cwd, "package dir must not masquerade as the root");
        assert!(cwd.starts_with(&root));
        assert_eq!(
            resolve_against_workspace(PathBuf::from("bench_out/")),
            root.join("bench_out/")
        );
        let absolute = cwd.join("explicit.json");
        assert_eq!(resolve_against_workspace(absolute.clone()), absolute);
    }

    #[test]
    fn dir_target_appends_file_name() {
        let path = resolve_out_path(Path::new("bench_out/"), "kernels");
        assert_eq!(path, Path::new("bench_out/BENCH_kernels.json"));
        let path = resolve_out_path(Path::new("explicit.json"), "kernels");
        assert_eq!(path, Path::new("explicit.json"));
    }
}
