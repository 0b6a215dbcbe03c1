//! `serve_mixed`: an open-loop, seeded request stream against an
//! in-process `Server` (result cache on, 2 pool threads) over at most 2
//! connections. One request in four repeats an earlier layout (a cache
//! read); the rest are new layouts (ILT plus a durable cache append).

use crate::layers::{self, Direct, OpSample, Table, TraceView};
use crate::report::{self, median, quantile, ratio, Checks, Metric, Report, Rng};
use crate::Args;
use ldmo_ilt::IltContext;
use ldmo_layout::generate::{GeneratorConfig, LayoutGenerator};
use ldmo_layout::io as layout_io;
use ldmo_layout::Layout;
use ldmo_serve::cache::{CachedResult, ResultCache};
use ldmo_serve::{
    client, optimize_request, OptimizeRequest, OptimizeResponse, RequestOutcome, ServeConfig,
    Server, StatsSnapshot,
};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Requests per second (an open loop at a fixed rate): one request per
/// `1 / RATE` slot.
const RATE: f64 = 3.0;
/// Share of a slot over which a request's seeded offset is spread: enough
/// (33 ms) that arrivals do not lock onto the server's 5 ms accept poll,
/// little enough that consecutive requests stay at least 300 ms apart, so
/// that a request does not queue behind the previous miss (about 100-200
/// ms). Random overlaps would make the latency percentiles depend on
/// arrival coincidences, which moved one seed's 90th percentile by a
/// quarter from run to run.
const JITTER: f64 = 0.1;
/// One slot in this many repeats an earlier layout (a cache hit); the
/// others carry a new layout (a miss). Misses are the majority, so the
/// request-latency median and 90th percentile both fall among misses and
/// follow the pipeline's compute, not the timer-bound hit path (which is
/// reported separately as `serve_hit_*`).
const HIT_EVERY: usize = 4;
/// ILT iteration cap each request asks for. It stays below the 9-iteration
/// abort warm-up, so a miss is one ranking plus one short ILT run and its
/// cost varies little from layout to layout.
const REQUEST_ITERS: usize = 4;
/// A repeat only picks layouts first sent at least this long before, so
/// that their result is cached by the time the repeat arrives.
const HIT_GAP_S: f64 = 1.0;
/// Schedule time left free at the end of the run for the last misses.
const TAIL_S: f64 = 1.0;
/// A request answered later than this after its due time misses the
/// latency limit.
const SLO_MS: f64 = 2000.0;
/// Concurrent connections of the load generator.
const CONNS: usize = 2;
/// Threads of the server's scheduling pool.
const POOL_THREADS: usize = 2;
/// Set-up repetitions (server start until healthy); the median is reported.
const SETUP_REPS: usize = 15;
/// `GET /healthz` round trips timed in the traced run.
const HEALTHZ_PINGS: usize = 20;

/// One scheduled request: due time from the start of the stream and the
/// index of its layout.
#[derive(Debug, Clone, Copy)]
struct Planned {
    due_s: f64,
    layout: usize,
}

/// The seeded stream: one request per `1 / RATE` slot; within each block
/// of [`HIT_EVERY`] slots one seeded slot repeats a layout first sent at
/// least [`HIT_GAP_S`] earlier, picked uniformly (skipped while there is
/// none), and every other slot sends a new layout.
struct Workload {
    layouts: Vec<String>,
    plan: Vec<Planned>,
}

fn workload(seed: u64, horizon_s: f64) -> Workload {
    let mut rng = Rng(seed);
    let slots = (horizon_s * RATE) as usize;
    let mut plan = Vec::with_capacity(slots);
    let mut first_sent: Vec<f64> = Vec::new();
    let mut hit_slot = 0;
    for slot in 0..slots {
        if slot % HIT_EVERY == 0 {
            hit_slot = rng.below(HIT_EVERY);
        }
        let due_s = (slot as f64 + JITTER * rng.next_f64()) / RATE;
        if slot % HIT_EVERY != hit_slot {
            plan.push(Planned {
                due_s,
                layout: first_sent.len(),
            });
            first_sent.push(due_s);
            continue;
        }
        let eligible = first_sent.partition_point(|&d| d <= due_s - HIT_GAP_S);
        if eligible > 0 {
            plan.push(Planned {
                due_s,
                layout: rng.below(eligible),
            });
        }
    }
    let mut generator = LayoutGenerator::new(GeneratorConfig::default(), seed);
    let layouts: Vec<String> = generator
        .generate_dataset(first_sent.len())
        .iter()
        .map(layout_io::to_string)
        .collect();
    assert_eq!(
        layouts.len(),
        first_sent.len(),
        "one layout per new request"
    );
    Workload { layouts, plan }
}

/// What came back for one scheduled request.
struct Sent {
    /// Due time → response received.
    latency_ms: f64,
    /// Due time → request sent (the generator's lateness).
    late_ms: f64,
    response: Result<OptimizeResponse, String>,
}

/// Plain `GET` round trip (the serve client only speaks `POST`).
fn http_get(addr: &str, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    write!(stream, "GET {path} HTTP/1.0\r\nConnection: close\r\n\r\n")?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    Ok(raw
        .split_once("\r\n\r\n")
        .map_or(raw.clone(), |(_, b)| b.to_owned()))
}

/// A started server and its cache log (removed on [`Running::stop`]).
struct Running {
    server: Server,
    addr: String,
    cache: PathBuf,
}

impl Running {
    fn stop(self) -> StatsSnapshot {
        let stats = self.server.shutdown();
        let _ = std::fs::remove_file(&self.cache);
        stats
    }
}

/// Starts a server with a fresh cache log and waits until `/healthz`
/// answers.
fn start(rep: usize) -> Running {
    let cache = report::out_dir().join(format!("serve_cache_{}_{rep}.log", std::process::id()));
    let _ = std::fs::remove_file(&cache);
    let cfg = ServeConfig {
        cache_path: Some(cache.clone()),
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).expect("start the server");
    let addr = server.addr().to_string();
    let body = http_get(&addr, "/healthz").expect("healthz answers");
    assert!(body.contains("\"ok\""), "healthy server: {body}");
    Running {
        server,
        addr,
        cache,
    }
}

/// Sends the schedule over [`CONNS`] connections, each request at its due
/// time or as soon as a connection frees up after it.
fn drive(addr: &str, wl: &Workload, iters: usize) -> Vec<Sent> {
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Sent>>> = Mutex::new((0..wl.plan.len()).map(|_| None).collect());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CONNS {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some(planned) = wl.plan.get(i) else { break };
                let due = start + Duration::from_secs_f64(planned.due_s);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let late_ms = Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
                let body = OptimizeRequest {
                    id: format!("r{i}"),
                    layout_text: wl.layouts[planned.layout].clone(),
                    deadline_ms: None,
                    max_iterations: Some(iters),
                    max_candidates: None,
                }
                .to_json();
                let mut span = ldmo_obs::span("bench.request");
                span.set("op", i as f64);
                let response = client::post(addr, "/optimize", &body)
                    .map_err(|e| e.to_string())
                    .and_then(|b| OptimizeResponse::from_json(&b));
                let latency_ms = Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
                if let Ok(r) = &response {
                    span.set("cached", f64::from(u8::from(r.cached)));
                    span.set("status", f64::from(r.status));
                }
                span.set("late_ms", late_ms);
                drop(span);
                slots.lock().expect("result slots")[i] = Some(Sent {
                    latency_ms,
                    late_ms,
                    response,
                });
            });
        }
    });
    slots
        .into_inner()
        .expect("result slots")
        .into_iter()
        .map(|s| s.expect("every scheduled request was sent"))
        .collect()
}

/// Per-request output checks; returns whether each request was served
/// `ok` with a result consistent with every other answer for its layout.
fn check(wl: &Workload, sent: &[Sent], checks: &mut Checks) -> Vec<bool> {
    // the hash of the first computed (uncached) answer per layout; every
    // other answer for the layout, cached or not, must carry the same one
    let mut computed: HashMap<usize, String> = HashMap::new();
    for (p, s) in wl.plan.iter().zip(sent) {
        if let Ok(r) = &s.response {
            if r.code == "ok" && !r.cached {
                if let Some(h) = &r.mask_hash {
                    computed.entry(p.layout).or_insert_with(|| h.clone());
                }
            }
        }
    }
    wl.plan
        .iter()
        .zip(sent)
        .enumerate()
        .map(|(i, (p, s))| {
            let ok = match &s.response {
                Err(e) => Err(format!("request r{i}: {e}")),
                Ok(r) if r.id != format!("r{i}") => {
                    Err(format!("request r{i}: response id '{}'", r.id))
                }
                Ok(r) if r.status != 200 || r.code != "ok" => {
                    Err(format!("request r{i}: {} {}", r.status, r.code))
                }
                Ok(r) if r.mask_hash.as_ref() != computed.get(&p.layout) => Err(format!(
                    "request r{i}: mask hash differs from the computed answer for its layout"
                )),
                Ok(_) => Ok(()),
            };
            let good = ok.is_ok();
            checks.op(1, good, || ok.unwrap_err());
            good
        })
        .collect()
}

/// Latencies of answered requests, split by whether the cache served them.
fn split(sent: &[Sent], cached: bool) -> Vec<f64> {
    sent.iter()
        .filter(|s| matches!(&s.response, Ok(r) if r.cached == cached))
        .map(|s| s.latency_ms)
        .collect()
}

/// Runs the workload.
pub fn run(args: &Args) -> Report {
    ldmo_par::set_global_threads(POOL_THREADS);
    // the traced run gives half its time to the stream, half to the replay
    let budget_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let horizon = (budget_s - TAIL_S).max(1.0);
    let wl = workload(args.seed, horizon);
    // set-up: server start (cache open and recovery, bind, threads) until
    // /healthz answers; all but the last server are stopped. Input
    // generation stays outside, so the seed does not move set-up time.
    let mut start_ms = Vec::new();
    let mut last: Option<Running> = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let running = start(rep);
        start_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if let Some(prev) = last.replace(running) {
            Running::stop(prev);
        }
    }
    let setup_s = median(&start_ms) / 1e3;
    let running = last.expect("at least one set-up");
    let mut checks = Checks::default();
    // the server forced the collector on; keep only the measured phase
    ldmo_obs::reset();
    let sent = drive(&running.addr, &wl, REQUEST_ITERS);
    let healthz_ms: Vec<f64> = if args.trace {
        (0..HEALTHZ_PINGS)
            .map(|_| {
                let t = Instant::now();
                let _s = ldmo_obs::span("bench.healthz");
                http_get(&running.addr, "/healthz").expect("healthz answers");
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect()
    } else {
        Vec::new()
    };
    let stats = running.stop();
    // the scheduler's busy time: the summed `serve.batch` spans the server
    // records itself (the collector is always on under `Server::start`),
    // read after the drain so that the last batch has closed its span
    let busy_s: f64 = ldmo_obs::events_snapshot()
        .iter()
        .filter(|e| e.name == "serve.batch")
        .map(|e| e.dur_us as f64 / 1e6)
        .sum();
    let good = check(&wl, &sent, &mut checks);
    let lat: Vec<f64> = sent.iter().map(|s| s.latency_ms).collect();
    let hits = split(&sent, true);
    let misses = split(&sent, false);
    let served = good.iter().filter(|&&g| g).count() as f64;
    let within = sent
        .iter()
        .zip(&good)
        .filter(|(s, &g)| g && s.latency_ms <= SLO_MS)
        .count() as f64;
    let epe: u64 = sent
        .iter()
        .filter_map(|s| s.response.as_ref().ok())
        .filter(|r| !r.cached)
        .filter_map(|r| r.epe_violations)
        .sum();
    eprintln!(
        "[perfbench] serve: {} requests ({} cached, {} computed), stats {stats:?}",
        sent.len(),
        hits.len(),
        misses.len()
    );

    if !args.trace {
        let rss = report::peak_rss_mb();
        let m = |name, value, unit| Metric { name, value, unit };
        report::print_workload_metrics(&[
            m("serve_miss_p50_ms", median(&misses), "ms"),
            m("serve_miss_p90_ms", quantile(&misses, 0.9), "ms"),
            m("serve_hit_p50_ms", median(&hits), "ms"),
            m("serve_hit_p90_ms", quantile(&hits, 0.9), "ms"),
            m("serve_slo_frac", ratio(within, sent.len() as f64), "ratio"),
            m("epe_violations", epe as f64, "count"),
            m("setup_s", setup_s, "s"),
            m("peak_rss_mb", rss, "MB"),
        ]);
        let mut report = checks.into_report();
        report.metric("setup_s", setup_s, "s");
        report.metric("peak_rss_mb", rss, "MB");
        report.metric("op_p50_ms", median(&lat), "ms");
        report.metric("op_p90_ms", quantile(&lat, 0.9), "ms");
        report.metric("ops_per_s", ratio(served, busy_s), "1/s");
        report.metric("slo_frac", ratio(within, sent.len() as f64), "ratio");
        return report;
    }
    traced(args, &wl, &sent, &stats, &healthz_ms, &start_ms, checks)
}

/// The traced run's replay of the computed requests, the layer probes and
/// the per-layer table. The daemon's pipeline has no per-request spans, so
/// the per-layer ILT rows come from replaying `optimize_request` on the
/// layouts the stream computed, under the benchmark's own spans.
fn traced(
    args: &Args,
    wl: &Workload,
    sent: &[Sent],
    stats: &StatsSnapshot,
    healthz_ms: &[f64],
    start_ms: &[f64],
    checks: Checks,
) -> Report {
    let queue_wait = ldmo_obs::histogram("serve.queue_wait_us").snapshot();
    let pcfg = {
        let mut cfg = ServeConfig::default().pipeline;
        cfg.ilt.max_iterations = REQUEST_ITERS;
        cfg
    };
    let miss_layouts: Vec<Layout> = {
        let mut seen = Vec::new();
        for (p, s) in wl.plan.iter().zip(sent) {
            if matches!(&s.response, Ok(r) if !r.cached) && !seen.contains(&p.layout) {
                seen.push(p.layout);
            }
        }
        seen.iter()
            .map(|&i| layout_io::from_str(&wl.layouts[i]).expect("generated layouts parse"))
            .collect()
    };
    let ctx = IltContext::new(&pcfg.ilt);
    let replay = |layout: &Layout| -> (f64, RequestOutcome) {
        let t = Instant::now();
        let out = optimize_request(layout, &pcfg, &ctx, None);
        (t.elapsed().as_secs_f64(), out)
    };
    ldmo_obs::disable();
    let untraced_s: f64 = miss_layouts.iter().map(|l| replay(l).0).sum();
    ldmo_obs::enable();
    let conv_before = ldmo_obs::counter("litho.conv_passes").get();
    let mut pipeline_ms = Vec::new();
    let mut outcomes = Vec::new();
    for (k, layout) in miss_layouts.iter().enumerate() {
        let mut span = ldmo_obs::span("bench.replay");
        span.set("op", k as f64);
        let (secs, out) = replay(layout);
        span.set("candidates", out.candidates as f64);
        span.set("epe", out.epe_violations as f64);
        pipeline_ms.push(secs * 1e3);
        outcomes.push(out);
    }
    let conv_passes = (ldmo_obs::counter("litho.conv_passes").get() - conv_before) as f64;
    let traced_s: f64 = pipeline_ms.iter().sum::<f64>() / 1e3;
    let overhead = traced_s / untraced_s - 1.0;
    // the serve path ranks with the litho proxy, which the replay covers
    let direct = Direct::probe(
        &miss_layouts,
        &pcfg.ilt,
        &pcfg.decomp,
        false,
        conv_passes,
        overhead,
    );
    let append_ms = cache_appends(&outcomes);
    let view = TraceView::flush(args);

    let ops: Vec<OpSample> = view
        .named("bench.replay")
        .map(|root| {
            let candidates = root.meta_get("candidates").unwrap_or(0.0);
            let epe = root.meta_get("epe").unwrap_or(0.0);
            OpSample::from_ilt_spans(&view, root, candidates, epe)
        })
        .collect();
    let mut report = checks.into_report();
    report.metrics = layers::per_layer(&view, &ops, &direct);

    let hits = split(sent, true);
    let misses = split(sent, false);
    let late: Vec<f64> = sent.iter().map(|s| s.late_ms).collect();
    let queue_p50_ms = queue_wait.percentile(0.5) / 1e3;
    let retried = sent
        .iter()
        .filter(|s| matches!(&s.response, Ok(r) if r.retried))
        .count();
    let m = |name, value, unit| Metric { name, value, unit };
    let table = Table {
        rows: vec![
            m("serve.start_ms", median(start_ms), "ms"),
            m("serve.healthz_rtt_ms", median(healthz_ms), "ms"),
            m("serve.queue_wait_ms", queue_p50_ms, "ms"),
            m(
                "serve.queue_wait_p90_ms",
                queue_wait.percentile(0.9) / 1e3,
                "ms",
            ),
            m(
                "serve.batch_jobs",
                report::mean(
                    &view
                        .named("serve.batch")
                        .map(|s| s.meta_get("jobs").unwrap_or(0.0))
                        .collect::<Vec<_>>(),
                ),
                "count",
            ),
            m("serve.pipeline_ms", median(&pipeline_ms), "ms"),
            m("serve.cache_append_ms", median(&append_ms), "ms"),
            m(
                "serve.hit_frac",
                ratio(
                    stats.cache_hits as f64,
                    (stats.cache_hits + stats.cache_misses) as f64,
                ),
                "ratio",
            ),
            m("serve.shed", stats.shed as f64, "count"),
            m("serve.degraded", stats.degraded as f64, "count"),
            m("serve.retried", retried as f64, "count"),
            m("serve.gen_late_ms", median(&late), "ms"),
            m("serve.gen_late_p90_ms", quantile(&late, 0.9), "ms"),
            m("serve_hit_p50_ms", median(&hits), "ms"),
            m("serve_hit_p90_ms", quantile(&hits, 0.9), "ms"),
            m("serve_miss_p50_ms", median(&misses), "ms"),
            m("serve_miss_p90_ms", quantile(&misses, 0.9), "ms"),
        ],
        reconciliation: vec![m(
            "recon.miss_latency_uncovered_frac",
            1.0 - ratio(median(&pipeline_ms) + queue_p50_ms, median(&misses)),
            "ratio",
        )],
    };
    layers::finish(args, &view, report, &table)
}

/// Durable appends of the replayed results to a scratch cache log, timed
/// one by one (ms).
fn cache_appends(outcomes: &[RequestOutcome]) -> Vec<f64> {
    let log = report::out_dir().join(format!("append_probe_{}.log", std::process::id()));
    let _ = std::fs::remove_file(&log);
    let (mut cache, _) = ResultCache::open(&log).expect("open the probe cache log");
    let append_ms = outcomes
        .iter()
        .enumerate()
        .map(|(key, out)| {
            let result = CachedResult {
                masks: out.masks.clone(),
                epe_violations: out.epe_violations as u32,
                attempts: out.attempts as u32,
                candidates: out.candidates as u32,
                iterations: out.iterations as u32,
                recovered: false,
            };
            let t = Instant::now();
            let _s = ldmo_obs::span("bench.cache_append");
            cache
                .insert(key as u64, result)
                .expect("append to the probe log");
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    drop(cache);
    let _ = std::fs::remove_file(&log);
    append_ms
}
