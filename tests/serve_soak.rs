//! Chaos soak and crash-recovery tests of the `ldmo-serve` daemon
//! (DESIGN.md §16). These are the robustness proofs of the serving
//! contract:
//!
//! - **zero poisoned, zero dropped** — N concurrent clients through a
//!   fault plan that panics workers, poisons gradients, stalls batch
//!   slots, drops connections and slows sockets, and every request still
//!   receives a well-formed typed response;
//! - **bit-identical warm start** — a cache log torn mid-frame by a
//!   simulated `kill -9` recovers on reopen, and the cached mask hash
//!   equals the hash a cacheless server recomputes from scratch.
//!
//! The fault plan is process-global, so every test here serializes on
//! one lock and clears the plan on entry and exit.

use ldmo::guard::fault::{self, FaultPlan};
use ldmo::layout::generate::{GeneratorConfig, LayoutGenerator};
use ldmo::layout::io as layout_io;
use ldmo::serve::{client, ClientConfig, OptimizeRequest, OptimizeResponse, ServeConfig, Server};
use std::io::Write;
use std::sync::Mutex;

static CHAOS_LOCK: Mutex<()> = Mutex::new(());

struct ClearedPlan<'a> {
    _lock: std::sync::MutexGuard<'a, ()>,
}

fn chaos_guard() -> ClearedPlan<'static> {
    let lock = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();
    ClearedPlan { _lock: lock }
}

impl Drop for ClearedPlan<'_> {
    fn drop(&mut self) {
        fault::clear();
    }
}

/// A serve config sized for test budgets: tiny ILT runs, a small queue so
/// concurrent clients actually exercise shedding.
fn fast_serve_cfg() -> ServeConfig {
    let mut cfg = ServeConfig {
        queue_capacity: 4,
        batch_max: 4,
        ..ServeConfig::default()
    };
    cfg.pipeline.ilt.max_iterations = 4;
    cfg.pipeline.decomp.max_candidates = 4;
    cfg
}

fn unique_tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ldmo_serve_{}_{name}", std::process::id()))
}

/// One request round-trip against a live server; panics on any transport
/// or protocol error (these tests own the clean-plan window).
fn roundtrip(addr: &str, request: &OptimizeRequest) -> OptimizeResponse {
    let payload = client::post(addr, "/optimize", &request.to_json()).expect("post");
    let response = OptimizeResponse::from_json(&payload).expect("well-formed response");
    assert_eq!(response.id, request.id, "response echoes the request id");
    response
}

#[test]
fn chaos_soak_zero_poisoned_zero_dropped() {
    let _g = chaos_guard();
    let server = Server::start(fast_serve_cfg()).expect("server starts");
    let addr = server.addr().to_string();

    // every fault class at once: NaN gradients at ILT iteration 1, a
    // panicking batch slot, a stalled batch slot, one dropped connection
    // and one slowed connection
    fault::install(
        FaultPlan::from_spec("nan-grad@1;panic@1;stall@0:5;drop-conn@3;slow-io@5:10")
            .expect("spec parses"),
    );

    let report = client::run_soak(&ClientConfig {
        addr: addr.clone(),
        clients: 4,
        requests: 3,
        seed: 11,
        max_retries: 8,
        deadline_ms: None,
        max_iterations: None,
        max_candidates: None,
    });
    fault::clear();

    assert!(
        report.clean(),
        "soak must be clean: dropped={} poisoned={:?}",
        report.dropped,
        report.poisoned
    );
    assert_eq!(report.sent, 12);
    // through shed-retries every request eventually lands a real verdict
    assert_eq!(
        report.ok + report.degraded,
        report.sent,
        "every request eventually served: {report:?}"
    );
    // the panicking batch slot produced at least one degraded (but typed
    // and well-formed) response
    assert!(report.degraded > 0, "panic@1 degrades some requests");

    let stats = server.shutdown();
    assert_eq!(stats.served, report.ok + report.degraded);
    assert_eq!(stats.rejected, 0, "the driver only sends valid requests");
}

#[test]
fn drop_conn_fault_is_survived_by_retry() {
    let _g = chaos_guard();
    let server = Server::start(fast_serve_cfg()).expect("server starts");
    let addr = server.addr().to_string();

    // connection index 1 (the second accepted socket) is closed before
    // any byte is served; the soak client observes EOF and reconnects
    fault::install(FaultPlan::from_spec("drop-conn@1").expect("spec parses"));
    let report = client::run_soak(&ClientConfig {
        addr,
        clients: 1,
        requests: 3,
        seed: 5,
        ..ClientConfig::default()
    });
    fault::clear();

    assert!(report.clean(), "retries absorb the drop: {report:?}");
    assert_eq!(report.ok + report.degraded, 3);
    assert!(
        report.conn_retries >= 1,
        "the dropped socket forced a retry"
    );
    let stats = server.shutdown();
    assert_eq!(stats.conn_drops, 1, "exactly one planned drop fired");
}

#[test]
fn cache_warm_start_survives_a_torn_tail_and_stays_bit_identical() {
    let _g = chaos_guard();
    let cache_path = unique_tmp("warm.cachelog");
    let _ = std::fs::remove_file(&cache_path);

    let layout = LayoutGenerator::new(GeneratorConfig::default(), 21)
        .generate_dataset(1)
        .remove(0);
    let request = OptimizeRequest {
        id: "warm-1".into(),
        layout_text: layout_io::to_string(&layout),
        deadline_ms: None,
        max_iterations: None,
        max_candidates: None,
    };

    // first server: miss then hit, remember the content hash
    let mut cfg = fast_serve_cfg();
    cfg.cache_path = Some(cache_path.clone());
    let server = Server::start(cfg).expect("server starts");
    let addr = server.addr().to_string();
    let cold = roundtrip(&addr, &request);
    assert_eq!(cold.code, "ok");
    assert!(!cold.cached, "first sight is a miss");
    let hash = cold.mask_hash.clone().expect("200 carries a mask hash");
    let warm = roundtrip(&addr, &request);
    assert!(warm.cached, "second sight hits the cache");
    assert_eq!(warm.mask_hash.as_ref(), Some(&hash));
    server.shutdown();

    // simulate a `kill -9` mid-append: a torn, checksum-less partial
    // frame at the tail of the log
    {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&cache_path)
            .expect("cache log exists");
        f.write_all(&[0x52, 0x4d, 0x44, 0x4c, 0xde, 0xad, 0xbe, 0xef, 0x01])
            .expect("append garbage");
    }

    // second server: recovery truncates the torn tail, the good frame
    // warm-starts, and the served masks are the same bits
    let mut cfg = fast_serve_cfg();
    cfg.cache_path = Some(cache_path.clone());
    let server = Server::start(cfg).expect("server restarts over torn log");
    let addr = server.addr().to_string();
    let revived = roundtrip(&addr, &request);
    assert!(revived.cached, "the recovered log warm-starts the cache");
    assert_eq!(revived.mask_hash.as_ref(), Some(&hash));
    server.shutdown();

    // and a cacheless server recomputing from scratch produces the very
    // same bits — cached-vs-recomputed is bit-identical
    let server = Server::start(fast_serve_cfg()).expect("cacheless server");
    let addr = server.addr().to_string();
    let recomputed = roundtrip(&addr, &request);
    assert!(!recomputed.cached);
    assert_eq!(recomputed.mask_hash.as_ref(), Some(&hash));
    server.shutdown();

    let _ = std::fs::remove_file(&cache_path);
}

#[test]
fn draining_server_refuses_new_work_with_a_typed_response() {
    let _g = chaos_guard();
    let server = Server::start(fast_serve_cfg()).expect("server starts");
    let addr = server.addr().to_string();

    let drain = client::shutdown(&addr).expect("shutdown posts");
    let drain = OptimizeResponse::from_json(&drain).expect("typed drain ack");
    assert_eq!(drain.code, "draining");
    assert!(server.shutdown_requested());

    // post-drain submissions get the deterministic 503, never a hang or
    // a dropped socket
    let late = OptimizeRequest {
        id: "late-1".into(),
        layout_text: "too late".into(),
        deadline_ms: None,
        max_iterations: None,
        max_candidates: None,
    };
    let response = roundtrip(&addr, &late);
    assert_eq!(response.status, 503);
    assert_eq!(response.code, "draining");
    let stats = server.shutdown();
    assert_eq!(stats.drained, 1, "the late request was counted");
}

#[test]
fn deadline_zero_degrades_deterministically() {
    let _g = chaos_guard();
    let server = Server::start(fast_serve_cfg()).expect("server starts");
    let addr = server.addr().to_string();

    let layout = LayoutGenerator::new(GeneratorConfig::default(), 31)
        .generate_dataset(1)
        .remove(0);
    let request = OptimizeRequest {
        id: "dl-1".into(),
        layout_text: layout_io::to_string(&layout),
        // a 1 ms deadline is spent in queue wait; the pipeline degrades
        // to the unoptimized drawn masks instead of timing out the socket
        deadline_ms: Some(1),
        max_iterations: None,
        max_candidates: None,
    };
    let first = roundtrip(&addr, &request);
    assert_eq!(first.status, 200);
    assert_eq!(first.code, "degraded");
    assert!(first.degraded);
    assert!(!first.cached, "degraded outcomes never enter the cache");
    let hash = first.mask_hash.clone().expect("degraded still has masks");

    // the drawn-mask fallback is a pure function of the layout
    let second = roundtrip(&addr, &request);
    assert_eq!(second.mask_hash.as_ref(), Some(&hash));
    server.shutdown();
}

#[test]
fn oversized_layout_gets_a_typed_422_and_the_daemon_serves_on() {
    let _g = chaos_guard();
    let server = Server::start(fast_serve_cfg()).expect("server starts");
    let addr = server.addr().to_string();

    // a 130-byte body whose 4 mm window would rasterize to 2e6 x 2e6 px
    let probe = OptimizeRequest {
        id: "huge-1".into(),
        layout_text: "ldmo-layout v1\nwindow 0 0 4000000 4000000\n\
                      pattern 40 40 104 104\npattern 160 40 224 104\n"
            .into(),
        deadline_ms: None,
        max_iterations: None,
        max_candidates: None,
    };
    let refused = roundtrip(&addr, &probe);
    assert_eq!((refused.status, refused.code.as_str()), (422, "bad-layout"));

    let layout = LayoutGenerator::new(GeneratorConfig::default(), 21)
        .generate_dataset(1)
        .remove(0);
    let request = OptimizeRequest {
        id: "after-1".into(),
        layout_text: layout_io::to_string(&layout),
        deadline_ms: None,
        max_iterations: None,
        max_candidates: None,
    };
    let served = roundtrip(&addr, &request);
    assert_eq!((served.status, served.code.as_str()), (200, "ok"));
    assert_eq!(served.rung.as_deref(), Some("attempt"));
    let stats = server.shutdown();
    assert_eq!(stats.rejected, 1, "only the probe was refused");
}
