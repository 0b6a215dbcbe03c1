//! The daemon: bounded admission, batched scheduling on the `ldmo-par`
//! pool, graceful drain (DESIGN.md §16).
//!
//! Two threads own everything:
//!
//! - the **accept** thread reads and parses each connection (applying the
//!   `drop-conn`/`slow-io` network faults), answers control routes
//!   inline, and admits optimization jobs into a bounded queue — a full
//!   queue is answered with the deterministic 429 `shed` row *before*
//!   admission, so overload never aborts or starves an admitted request;
//! - the **scheduler** thread pops up to `batch_max` jobs, serves cache
//!   hits, fans the misses over the global pool (panics contained per
//!   request), writes every response, and appends cacheable results.
//!
//! Graceful drain: `POST /shutdown` (the SIGTERM-equivalent) flips the
//! daemon into draining — new requests get the 503 `draining` row,
//! queued and in-flight requests finish and respond, the cache log is
//! already durable per append, and [`Server::shutdown`] joins both
//! threads. Nothing admitted is ever dropped without a response.

use crate::cache::{self, CachedResult, ResultCache};
use crate::pipeline::{self, PipelineConfig, RequestOutcome};
use crate::protocol::{self, HttpRequest, OptimizeRequest, OptimizeResponse};
use ldmo_core::ladder::Rung;
use ldmo_guard::{fault, LdmoError, OutcomeHealth};
use ldmo_ilt::IltContext;
use ldmo_layout::{io as layout_io, Layout};
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` for an OS-assigned port).
    pub addr: String,
    /// Bounded admission queue capacity; a full queue sheds (429).
    pub queue_capacity: usize,
    /// Jobs the scheduler pops per batch.
    pub batch_max: usize,
    /// Default per-request deadline (measured from admission; a request
    /// may override it with `deadline_ms`). `None` disables deadlines.
    pub default_deadline: Option<Duration>,
    /// Content-addressed result cache log; `None` disables caching.
    pub cache_path: Option<PathBuf>,
    /// Per-request optimization knobs.
    pub pipeline: PipelineConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            queue_capacity: 64,
            batch_max: 8,
            default_deadline: Some(Duration::from_secs(10)),
            cache_path: None,
            pipeline: PipelineConfig::default(),
        }
    }
}

/// Aggregate counters, published both here and as `serve.*` metrics.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Optimization requests admitted and answered.
    pub served: AtomicU64,
    /// Requests shed with 429 at admission.
    pub shed: AtomicU64,
    /// Requests refused with 503 during drain.
    pub drained: AtomicU64,
    /// Served responses flagged degraded.
    pub degraded: AtomicU64,
    /// Cache hits / misses.
    pub cache_hits: AtomicU64,
    /// Cache misses (computed fresh).
    pub cache_misses: AtomicU64,
    /// Malformed requests answered 4xx.
    pub rejected: AtomicU64,
    /// Connections dropped by the `drop-conn` fault.
    pub conn_drops: AtomicU64,
}

/// A snapshot of [`ServeStats`] for reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// See [`ServeStats::served`].
    pub served: u64,
    /// See [`ServeStats::shed`].
    pub shed: u64,
    /// See [`ServeStats::drained`].
    pub drained: u64,
    /// See [`ServeStats::degraded`].
    pub degraded: u64,
    /// See [`ServeStats::cache_hits`].
    pub cache_hits: u64,
    /// See [`ServeStats::cache_misses`].
    pub cache_misses: u64,
    /// See [`ServeStats::rejected`].
    pub rejected: u64,
    /// See [`ServeStats::conn_drops`].
    pub conn_drops: u64,
}

impl ServeStats {
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            served: self.served.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            drained: self.drained.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            conn_drops: self.conn_drops.load(Ordering::Relaxed),
        }
    }
}

/// One admitted job: the parsed request plus the connection awaiting its
/// response and the admission instant its deadline runs from.
struct Job {
    stream: TcpStream,
    request: OptimizeRequest,
    admitted: Instant,
}

struct Shared {
    queue: Mutex<VecDeque<Job>>,
    notify: Condvar,
    draining: AtomicBool,
    shutdown_requested: AtomicBool,
    stop: AtomicBool,
    stats: ServeStats,
}

/// A running daemon. Stop it with [`Server::shutdown`] (graceful drain);
/// dropping it without shutdown also drains.
#[derive(Debug)]
pub struct Server {
    local: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    scheduler: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("draining", &self.draining.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds and starts the daemon: opens (and crash-recovers) the cache
    /// log, builds the shared `IltContext` once, and spawns the accept
    /// and scheduler threads.
    ///
    /// # Errors
    ///
    /// Propagates bind and cache-open failures.
    pub fn start(cfg: ServeConfig) -> io::Result<Server> {
        ldmo_obs::enable();
        let cache = match &cfg.cache_path {
            Some(path) => {
                let (cache, recovery) = ResultCache::open(path)?;
                if recovery.truncated_bytes > 0 {
                    ldmo_obs::counter("serve.cache_truncated_bytes").add(recovery.truncated_bytes);
                    eprintln!(
                        "[serve] cache recovery: {} record(s) kept, {} torn byte(s) truncated",
                        recovery.records, recovery.truncated_bytes
                    );
                }
                ldmo_obs::gauge("serve.cache_entries").set(cache.len() as f64);
                Some(cache)
            }
            None => None,
        };
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            notify: Condvar::new(),
            draining: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            stats: ServeStats::default(),
        });

        let accept_shared = Arc::clone(&shared);
        let accept_cap = cfg.queue_capacity;
        let accept = std::thread::Builder::new()
            .name("ldmo-serve-accept".into())
            .spawn(move || accept_loop(&listener, &accept_shared, accept_cap))?;

        let sched_shared = Arc::clone(&shared);
        let sched_cfg = cfg;
        let scheduler = std::thread::Builder::new()
            .name("ldmo-serve-sched".into())
            .spawn(move || scheduler_loop(&sched_shared, &sched_cfg, cache))?;

        Ok(Server {
            local,
            shared,
            accept: Some(accept),
            scheduler: Some(scheduler),
        })
    }

    /// The address the daemon actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.local
    }

    /// Whether a client asked the daemon to shut down (`POST /shutdown`).
    /// The owner should then call [`Server::shutdown`].
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown_requested.load(Ordering::SeqCst)
    }

    /// Graceful drain: stop admitting (new requests answer 503), wait for
    /// every queued and in-flight request to respond, stop both threads,
    /// and return the final stats. The cache log needs no flush here —
    /// every append was already durable before its response left.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.drain_and_join();
        self.shared.stats.snapshot()
    }

    fn drain_and_join(&mut self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        // wait until the queue is empty and the scheduler is idle; the
        // scheduler exits its loop when draining && empty
        self.shared.notify.notify_all();
        if let Some(handle) = self.scheduler.take() {
            let _ = handle.join();
        }
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.drain_and_join();
    }
}

// ---------------------------------------------------------------------------
// Accept side
// ---------------------------------------------------------------------------

fn accept_loop(listener: &TcpListener, shared: &Shared, capacity: usize) {
    let mut conn_index = 0usize;
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let n = conn_index;
                conn_index += 1;
                // network fault injection is first-class here: drop-conn
                // closes without a byte (the peer retries), slow-io delays
                // the whole exchange
                if fault::drop_conn_at(n) {
                    shared.stats.conn_drops.fetch_add(1, Ordering::Relaxed);
                    ldmo_obs::incr("serve.conn_drops");
                    drop(stream);
                    continue;
                }
                fault::apply_slow_io(n);
                if let Err(e) = handle_conn(stream, shared, capacity) {
                    eprintln!("[serve] connection error: {e}");
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => {
                eprintln!("[serve] accept error: {e}");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

fn respond(stream: &mut TcpStream, response: &OptimizeResponse) -> io::Result<()> {
    protocol::write_http(stream, response.status, &response.to_json())
}

fn handle_conn(mut stream: TcpStream, shared: &Shared, capacity: usize) -> io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    let admitted = Instant::now();
    let http = match protocol::read_http(&mut stream) {
        Ok(http) => http,
        Err(e) if e.kind() == io::ErrorKind::InvalidData => {
            shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
            return respond(
                &mut stream,
                &OptimizeResponse::bare("", 400, "bad-request", Some(e.to_string())),
            );
        }
        Err(e) => return Err(e),
    };
    match (http.method.as_str(), http.path.as_str()) {
        ("POST", "/optimize") => admit(stream, shared, capacity, &http, admitted),
        ("POST", "/shutdown") => {
            shared.shutdown_requested.store(true, Ordering::SeqCst);
            shared.draining.store(true, Ordering::SeqCst);
            shared.notify.notify_all();
            ldmo_obs::incr("serve.shutdowns");
            respond(
                &mut stream,
                &OptimizeResponse::bare("", 200, "draining", Some("drain started".into())),
            )
        }
        ("GET", "/healthz") => {
            let depth = shared.queue.lock().map(|q| q.len()).unwrap_or(0);
            let draining = shared.draining.load(Ordering::SeqCst);
            let body = format!(
                "{{\"code\":\"{}\",\"queue_depth\":{depth}}}",
                if draining { "draining" } else { "ok" }
            );
            protocol::write_http(&mut stream, 200, &body)
        }
        ("POST", _) | ("GET", _) => respond(
            &mut stream,
            &OptimizeResponse::bare("", 404, "bad-request", Some("unknown route".into())),
        ),
        _ => respond(
            &mut stream,
            &OptimizeResponse::bare("", 405, "bad-request", Some("POST or GET only".into())),
        ),
    }
}

fn admit(
    mut stream: TcpStream,
    shared: &Shared,
    capacity: usize,
    http: &HttpRequest,
    admitted: Instant,
) -> io::Result<()> {
    ldmo_obs::incr("serve.requests");
    let request = match OptimizeRequest::from_json(&http.body) {
        Ok(request) => request,
        Err(reason) => {
            shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
            ldmo_obs::incr("serve.bad_requests");
            return respond(
                &mut stream,
                &OptimizeResponse::bare("", 400, "bad-request", Some(reason)),
            );
        }
    };
    let mut queue = shared
        .queue
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    // the draining check must happen under the queue lock: the scheduler
    // only exits with the lock held, the queue empty and the flag set, so
    // a job admitted here is guaranteed a scheduler pass
    if shared.draining.load(Ordering::SeqCst) {
        drop(queue);
        shared.stats.drained.fetch_add(1, Ordering::Relaxed);
        ldmo_obs::incr("serve.draining_rejects");
        return respond(&mut stream, &OptimizeResponse::draining(&request.id));
    }
    if queue.len() >= capacity {
        drop(queue);
        shared.stats.shed.fetch_add(1, Ordering::Relaxed);
        ldmo_obs::incr("serve.shed");
        return respond(&mut stream, &OptimizeResponse::shed(&request.id));
    }
    queue.push_back(Job {
        stream,
        request,
        admitted,
    });
    ldmo_obs::gauge("serve.queue_depth").set(queue.len() as f64);
    drop(queue);
    shared.notify.notify_one();
    Ok(())
}

// ---------------------------------------------------------------------------
// Scheduler side
// ---------------------------------------------------------------------------

fn scheduler_loop(shared: &Shared, cfg: &ServeConfig, mut cache: Option<ResultCache>) {
    let ctx = IltContext::new(&cfg.pipeline.ilt);
    loop {
        let batch = {
            let mut queue = shared
                .queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            while queue.is_empty() {
                if shared.draining.load(Ordering::SeqCst) {
                    return; // drained: every admitted job has responded
                }
                let (q, _) = shared
                    .notify
                    .wait_timeout(queue, Duration::from_millis(50))
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                queue = q;
            }
            let take = cfg.batch_max.max(1).min(queue.len());
            let batch: Vec<Job> = queue.drain(..take).collect();
            ldmo_obs::gauge("serve.queue_depth").set(queue.len() as f64);
            batch
        };
        process_batch(batch, shared, cfg, &ctx, cache.as_mut());
    }
}

/// What one job needs after envelope validation and cache lookup.
struct Work {
    stream: TcpStream,
    id: String,
    layout: Layout,
    key: u64,
    pcfg: PipelineConfig,
    remaining: Option<Duration>,
    admitted: Instant,
}

fn process_batch(
    batch: Vec<Job>,
    shared: &Shared,
    cfg: &ServeConfig,
    ctx: &IltContext,
    mut cache: Option<&mut ResultCache>,
) {
    let mut span = ldmo_obs::span("serve.batch");
    span.set("jobs", batch.len() as f64);
    let mut work: Vec<Work> = Vec::with_capacity(batch.len());
    for mut job in batch {
        let queue_wait = job.admitted.elapsed();
        ldmo_obs::histogram("serve.queue_wait_us").record_duration(queue_wait);
        // per-request knob overrides (bounded by the server's own config
        // so one request cannot inflate the work unit arbitrarily)
        let iters = job
            .request
            .max_iterations
            .unwrap_or(cfg.pipeline.ilt.max_iterations)
            .min(cfg.pipeline.ilt.max_iterations);
        let cands = job
            .request
            .max_candidates
            .unwrap_or(cfg.pipeline.decomp.max_candidates)
            .min(cfg.pipeline.decomp.max_candidates);
        // a layout whose raster would not fit is refused like a malformed
        // one, before anything is allocated for it
        let nm_per_px = cfg.pipeline.ilt.litho.nm_per_px;
        let parsed = layout_io::from_str(&job.request.layout_text)
            .map_err(LdmoError::from)
            .and_then(|layout| {
                layout.check_raster_extent(nm_per_px)?;
                Ok(layout)
            });
        let layout = match parsed {
            Ok(layout) => layout,
            Err(e) => {
                shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
                ldmo_obs::incr("serve.bad_requests");
                let error = e.with_context("request layout".to_owned());
                let _ = respond(
                    &mut job.stream,
                    &OptimizeResponse::from_error(&job.request.id, &error),
                );
                continue;
            }
        };
        let key = cache::request_key(&layout_io::to_string(&layout), iters, cands);
        let deadline = job
            .request
            .deadline_ms
            .map(Duration::from_millis)
            .or(cfg.default_deadline);
        let remaining = deadline.map(|d| d.saturating_sub(queue_wait));
        if let Some(hit) = cache.as_deref().and_then(|c| c.get(key)) {
            shared.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            shared.stats.served.fetch_add(1, Ordering::Relaxed);
            ldmo_obs::incr("serve.cache_hits");
            let health = if hit.recovered {
                OutcomeHealth::RecoveredAfterRollback
            } else {
                OutcomeHealth::Clean
            };
            let _ = respond(
                &mut job.stream,
                &OptimizeResponse::result(
                    &job.request.id,
                    health,
                    hit.epe_violations as usize,
                    hit.attempts as usize,
                    hit.candidates as usize,
                    hit.iterations as usize,
                    hit.mask_hash(),
                    true,
                    None,
                ),
            );
            continue;
        }
        shared.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
        ldmo_obs::incr("serve.cache_misses");
        // per-request knob overrides become a per-request config (the
        // same values the cache key hashed)
        let mut pcfg = cfg.pipeline.clone();
        pcfg.ilt.max_iterations = iters;
        pcfg.decomp.max_candidates = cands;
        work.push(Work {
            stream: job.stream,
            id: job.request.id,
            layout,
            key,
            pcfg,
            remaining,
            admitted: job.admitted,
        });
    }
    if work.is_empty() {
        return;
    }
    span.set("misses", work.len() as f64);

    let tasks: Vec<usize> = (0..work.len()).collect();
    let pool = ldmo_par::global();
    let results = pool.par_map_catching(&tasks, |&i| {
        // the serving layer's injection point for the worker-panic and
        // stall faults, keyed by batch slot like the flow's candidates
        fault::apply_stall(i);
        fault::maybe_panic(i);
        pipeline::optimize_request(&work[i].layout, &work[i].pcfg, ctx, work[i].remaining)
    });
    for (i, result) in results.into_iter().enumerate() {
        let outcome: RequestOutcome = result.unwrap_or_else(|_| {
            // a panicked worker loses one request's optimization, never
            // the daemon: rebuild the slot serially, marked degraded
            pipeline::panicked_fallback(&work[i].layout, &work[i].pcfg, ctx)
        });
        let w = &mut work[i];
        if outcome.health.is_degraded() {
            shared.stats.degraded.fetch_add(1, Ordering::Relaxed);
        }
        // cache policy (bit-identity invariant): usable, non-retried
        // outcomes only — see the cache module docs
        if outcome.health.is_usable() && outcome.rung != Rung::Retry {
            if let Some(cache) = cache.as_deref_mut() {
                let inserted = cache.insert(
                    w.key,
                    CachedResult {
                        masks: outcome.masks.clone(),
                        epe_violations: outcome.epe_violations as u32,
                        attempts: outcome.attempts as u32,
                        candidates: outcome.candidates as u32,
                        iterations: outcome.iterations as u32,
                        recovered: outcome.health == OutcomeHealth::RecoveredAfterRollback,
                    },
                );
                match inserted {
                    Ok(_) => ldmo_obs::gauge("serve.cache_entries").set(cache.len() as f64),
                    Err(e) => eprintln!("[serve] cache append failed: {e}"),
                }
            }
        }
        shared.stats.served.fetch_add(1, Ordering::Relaxed);
        ldmo_obs::incr("serve.responses");
        // admission → response, queue wait included: the latency a client
        // actually observes (minus the network)
        ldmo_obs::histogram("serve.request_us").record_duration(w.admitted.elapsed());
        let _ = respond(
            &mut w.stream,
            &OptimizeResponse::result(
                &w.id,
                outcome.health,
                outcome.epe_violations,
                outcome.attempts,
                outcome.candidates,
                outcome.iterations,
                cache::mask_hash(&outcome.masks),
                false,
                Some(outcome.rung),
            ),
        );
    }
}
