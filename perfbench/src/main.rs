//! End-to-end and per-layer benchmark of the ldmo entry points.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload flow_cells --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Each invocation runs one workload in a fresh process and prints, as the
//! last line of standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end metrics of `BENCHMARK.json`; with `--trace 1` the
//! workload runs again with the `ldmo-obs` collector on, the benchmark's
//! own spans wrap every layer call, and the metrics are the per-layer
//! metrics. The traced run also writes its span file and a per-layer table
//! (with the workload-specific rows and the reconciliation) under
//! `.perfbench_out/`. `perfbench/README.md` describes the workloads, the
//! metrics and the layer → end-to-end map.
//!
//! Workloads (`--workload`):
//! - `flow_cells`: the 13 Table-I clips through `LdmoFlow::run`;
//! - `chip_tiles`: a seeded chip through `run_chip` at 1 and 2 threads;
//! - `serve_mixed`: an open-loop request stream against an in-process
//!   `Server` with the result cache on.

mod chip;
mod flow;
mod layers;
mod report;
mod serve;

use report::Report;
use std::process::ExitCode;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measurement length in seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

const USAGE: &str = "usage: ldmo-perfbench --workload flow_cells|chip_tiles|serve_mixed \
                     --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
                })
            }
            other => return Err(format!("unknown option '{other}'")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // pinned so that a later change of the `auto` rule shows as a change of
    // this stamp, not as a silent change of the measured code path
    ldmo_litho::backend::set_backend(ldmo_litho::BackendKind::Simd);
    let fingerprint = report::Fingerprint::collect();
    eprintln!("[perfbench] {}", fingerprint.describe());
    let run: fn(&Args) -> Report = match args.workload.as_str() {
        "flow_cells" => flow::run,
        "chip_tiles" => chip::run,
        "serve_mixed" => serve::run,
        other => {
            eprintln!("error: unknown workload '{other}'\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&args);
    // every result carries the machine it was measured on
    println!("{}", fingerprint.to_json(&args));
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
