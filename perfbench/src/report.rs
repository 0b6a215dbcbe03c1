//! The result line, summary statistics and the run fingerprint.

use crate::Args;
use std::path::PathBuf;

/// One measured value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
}

/// What one run prints as its last line.
#[derive(Debug, Default)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (clips, tiles or requests).
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// End-to-end metrics (`--trace 0`) or per-layer metrics (`--trace 1`).
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Appends a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// The result line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics_json(&self.metrics)
        )
    }
}

/// `{"name":{"value":..,"unit":".."},..}` for a list of metrics.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", items.join(","))
}

/// Prints the untraced run's `{"workload_metrics":{..}}` line: the
/// workload's numbers under their path-specific names, with units.
pub fn print_workload_metrics(metrics: &[Metric]) {
    println!("{{\"workload_metrics\":{}}}", metrics_json(metrics));
}

/// A JSON number with all its digits; non-finite values become `null`.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Tallies operations and output checks.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// A check not tied to single ops failed (e.g. a reconciliation).
    pub broken: bool,
    /// First few failure descriptions (for stderr).
    pub notes: Vec<String>,
}

impl Checks {
    /// Counts `ops` operations; when `ok` is false they all count as failed.
    pub fn op(&mut self, ops: u64, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += ops;
        if !ok {
            self.failed += ops;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }

    /// A check that is not tied to newly attempted ops (e.g. a repeat that
    /// disagrees with an earlier op): marks `ops` already-attempted ops as
    /// failed.
    pub fn fail(&mut self, ops: u64, what: impl FnOnce() -> String) {
        self.failed += ops;
        if self.notes.len() < 8 {
            self.notes.push(what());
        }
    }

    /// A run-level check failed: the run is not correct, no op is blamed.
    pub fn broken(&mut self, what: String) {
        self.broken = true;
        if self.notes.len() < 8 {
            self.notes.push(what);
        }
    }

    /// Starts a report from the tallies, printing failures to stderr.
    pub fn into_report(self) -> Report {
        for note in &self.notes {
            eprintln!("[perfbench] check failed: {note}");
        }
        Report {
            correct: self.failed == 0 && !self.broken && self.attempted > 0,
            attempted: self.attempted,
            failed: self.failed,
            metrics: Vec::new(),
        }
    }
}

/// Quantile `q` in [0, 1] by linear interpolation between order statistics
/// (NaN for an empty sample).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of a sample.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Arithmetic mean (NaN for an empty sample).
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// `a / b`, 0 when `b` is 0 (a layer that did no work).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Where traces, tables and temporary cache logs go: `.perfbench_out/`
/// under the working directory.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(".perfbench_out");
    std::fs::create_dir_all(&dir).expect("create .perfbench_out");
    dir
}

/// SplitMix64: a small seeded generator for schedules and placements.
pub struct Rng(pub u64);

impl Rng {
    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_f64() * n as f64) as usize).min(n - 1)
    }
}

/// The machine and build a result was measured on.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// Resolved litho backend.
    pub backend: &'static str,
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// CPU model from `/proc/cpuinfo`.
    pub cpu: String,
    /// `git rev-parse --short HEAD`, `unknown` outside a git checkout.
    pub git_rev: String,
}

impl Fingerprint {
    /// Collects the fingerprint of this process.
    pub fn collect() -> Fingerprint {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".into());
        Fingerprint {
            backend: ldmo_litho::backend::resolved_kind().as_str(),
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            cpu,
            git_rev: ldmo_bench::report::git_rev(),
        }
    }

    /// One-line human-readable form.
    pub fn describe(&self) -> String {
        format!(
            "backend={} nproc={} cpu=\"{}\" git_rev={}",
            self.backend, self.nproc, self.cpu, self.git_rev
        )
    }

    /// The fingerprint line printed before the result line.
    pub fn to_json(&self, args: &Args) -> String {
        format!(
            "{{\"fingerprint\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
             \"backend\":\"{}\",\"nproc\":{},\"cpu\":\"{}\",\"git_rev\":\"{}\"}}}}",
            ldmo_obs::json::escape(&args.workload),
            args.seed,
            json_number(args.seconds),
            u8::from(args.trace),
            self.backend,
            self.nproc,
            ldmo_obs::json::escape(&self.cpu),
            ldmo_obs::json::escape(&self.git_rev)
        )
    }
}
