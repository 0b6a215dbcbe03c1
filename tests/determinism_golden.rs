//! Determinism golden test for the ILT engine.
//!
//! Pins the outcome of the paper's Table-I testcase 1 (the first template
//! cell, INV_X1) under the SUALD decomposition and the default engine
//! config. The entire pipeline is deterministic — rasterization, kernel
//! expansion, the workspace-backed gradient loop — so the EPE violation
//! count is pinned exactly and the L2 error to four significant digits.
//! A change here means the numerical behaviour of the engine changed, which
//! must be deliberate (and re-pinned with justification).

use ldmo_core::baselines::suald_decompose;
use ldmo_core::dataset::{build_dataset, DatasetConfig, SamplerKind};
use ldmo_core::flow::{FlowConfig, LdmoFlow, SelectionStrategy};
use ldmo_core::predictor::PrintabilityPredictor;
use ldmo_core::sampling::SamplingConfig;
use ldmo_core::trainer::{train, TrainConfig};
use ldmo_ilt::{optimize, IltConfig};
use ldmo_layout::cells;
use ldmo_nn::layers::Layer;
use std::sync::Mutex;

/// The thread pool is process-global, so the threaded cross-checks (and
/// the pinned test, which must see the serial path) serialize on this.
static POOL_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn testcase_1_outcome_is_pinned() {
    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Tracing must be an observer, not a participant: the pinned numbers
    // below must hold with the collector recording every iteration.
    ldmo::obs::enable();
    let (name, layout) = cells::all_cells()
        .into_iter()
        .next()
        .expect("cell templates");
    assert_eq!(name, "INV_X1", "testcase 1 is the first template cell");

    let assignment = suald_decompose(&layout);
    assert_eq!(assignment, vec![0, 1, 1], "SUALD decomposition of INV_X1");

    let cfg = IltConfig::default();
    let out = optimize(&layout, &assignment, &cfg);

    assert_eq!(out.iterations_run, cfg.max_iterations);
    assert_eq!(out.epe.violations(), 0, "INV_X1 converges violation-free");
    // four significant digits of the final L2 error (binarized-mask print)
    assert_eq!(
        format!("{:.3e}", out.l2),
        "8.970e2",
        "final L2 drifted: got {:.10e}",
        out.l2
    );

    // bit-level determinism: a second run reproduces the exact outcome
    let again = optimize(&layout, &assignment, &cfg);
    assert_eq!(out.l2.to_bits(), again.l2.to_bits());
    assert_eq!(out.masks[0], again.masks[0]);
    assert_eq!(out.masks[1], again.masks[1]);
    let t1: Vec<f64> = out.trajectory.iter().map(|s| s.l2).collect();
    let t2: Vec<f64> = again.trajectory.iter().map(|s| s.l2).collect();
    assert_eq!(t1, t2);
}

/// Runs `f` once on a 1-thread global pool and once on a 4-thread pool,
/// with tracing enabled, and returns both results for bitwise comparison.
/// This is the crate's parallelism contract: static chunking plus
/// fixed-order reduction make thread count invisible in the output.
fn serial_vs_threaded<R>(f: impl Fn() -> R) -> (R, R) {
    ldmo::obs::enable();
    ldmo::par::set_global_threads(1);
    let serial = f();
    ldmo::par::set_global_threads(4);
    let threaded = f();
    ldmo::par::set_global_threads(1);
    (serial, threaded)
}

fn fast_dataset_inputs() -> (Vec<ldmo_layout::Layout>, SamplingConfig, DatasetConfig) {
    let layouts: Vec<_> = ["NAND2_X1", "NOR2_X1", "AOI211_X1"]
        .iter()
        .map(|n| cells::cell(n).expect("known cell"))
        .collect();
    let scfg = SamplingConfig {
        clusters: 2,
        per_cluster: 1,
        max_per_layout: 3,
        ..SamplingConfig::default()
    };
    let mut dcfg = DatasetConfig::default();
    dcfg.ilt.max_iterations = 4;
    (layouts, scfg, dcfg)
}

#[test]
fn dataset_labeling_is_thread_count_invariant() {
    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (layouts, scfg, dcfg) = fast_dataset_inputs();
    let (a, b) =
        serial_vs_threaded(|| build_dataset(&layouts, &SamplerKind::Engineered, &scfg, &dcfg));
    assert_eq!(a.provenance, b.provenance);
    assert_eq!(a.images.len(), b.images.len());
    for (x, y) in a.images.iter().zip(&b.images) {
        assert_eq!(x, y);
    }
    let bits = |v: &[f64]| v.iter().map(|s| s.to_bits()).collect::<Vec<u64>>();
    assert_eq!(bits(&a.raw_scores), bits(&b.raw_scores));
    assert_eq!(
        a.labels.iter().map(|l| l.to_bits()).collect::<Vec<u32>>(),
        b.labels.iter().map(|l| l.to_bits()).collect::<Vec<u32>>()
    );
}

#[test]
fn training_is_thread_count_invariant() {
    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (layouts, scfg, dcfg) = fast_dataset_inputs();
    ldmo::par::set_global_threads(1);
    let dataset = build_dataset(&layouts, &SamplerKind::Engineered, &scfg, &dcfg);
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 4,
        ..TrainConfig::default()
    };
    let (a, b) = serial_vs_threaded(|| {
        let mut predictor = PrintabilityPredictor::lite(3);
        let history = train(&mut predictor, &dataset, &cfg);
        let mut weights: Vec<u32> = Vec::new();
        predictor.network_mut().visit_params(&mut |p| {
            weights.extend(p.value.as_slice().iter().map(|w| w.to_bits()));
        });
        (history, weights)
    });
    // conv batch parallelism reduces weight-gradient partials in sample
    // order, so the trained weights — not just the loss curve — match
    // bit for bit
    assert_eq!(
        a.0.epoch_mae
            .iter()
            .map(|m| m.to_bits())
            .collect::<Vec<u32>>(),
        b.0.epoch_mae
            .iter()
            .map(|m| m.to_bits())
            .collect::<Vec<u32>>()
    );
    assert_eq!(a.1, b.1);
}

#[test]
fn golden_holds_on_every_backend_at_1_and_4_threads() {
    // the litho backends are bit-identical (DESIGN.md §13), so the
    // testcase-1 golden must hold under every selection, serial and
    // threaded — backend choice may only change speed, never numbers
    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    use ldmo::litho::backend::{self, BackendKind};
    let (_, layout) = cells::all_cells().into_iter().next().expect("cells");
    let assignment = suald_decompose(&layout);
    let cfg = IltConfig::default();
    let prev = backend::backend_kind();
    for kind in [BackendKind::Scalar, BackendKind::Simd, BackendKind::Auto] {
        backend::set_backend(kind);
        let (a, b) = serial_vs_threaded(|| optimize(&layout, &assignment, &cfg));
        for (threads, out) in [(1, &a), (4, &b)] {
            assert_eq!(
                format!("{:.3e}", out.l2),
                "8.970e2",
                "golden broke under backend '{kind}' at {threads} threads: {:.10e}",
                out.l2
            );
            assert_eq!(out.epe.violations(), 0, "backend '{kind}'");
        }
        assert_eq!(a.l2.to_bits(), b.l2.to_bits(), "backend '{kind}'");
        assert_eq!(a.masks, b.masks, "backend '{kind}'");
    }
    backend::set_backend(prev);
}

#[test]
fn golden_holds_with_live_ops_enabled() {
    // the live-ops layer is an observer, not a participant: with the
    // flight recorder active and the sampling profiler interrupting every
    // worker's span-stack mirror, the pinned Table-I numbers must hold
    // bit for bit at 1 and 4 threads
    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    ldmo::obs::enable();
    assert!(ldmo::obs::flight::active(), "enable() arms the flight ring");
    let sampler = ldmo::obs::profiler::start(211.0);
    assert!(sampler.is_some(), "sampler starts when none is running");
    let (_, layout) = cells::all_cells().into_iter().next().expect("cells");
    let assignment = suald_decompose(&layout);
    let cfg = IltConfig::default();
    let (a, b) = serial_vs_threaded(|| optimize(&layout, &assignment, &cfg));
    for (threads, out) in [(1, &a), (4, &b)] {
        assert_eq!(
            format!("{:.3e}", out.l2),
            "8.970e2",
            "golden broke with live-ops at {threads} threads: {:.10e}",
            out.l2
        );
        assert_eq!(out.epe.violations(), 0, "{threads} threads");
    }
    assert_eq!(a.l2.to_bits(), b.l2.to_bits());
    assert_eq!(a.masks, b.masks);
    drop(sampler);
    // the ring saw the runs: convergence rows and span closes landed
    assert!(ldmo::obs::flight::recorded() > 0, "flight ring recorded");
}

#[test]
fn flow_ranking_is_backend_invariant() {
    // the scalar and simd backends must select the same decomposition and
    // produce the same masks, at any thread count — ranking scores are
    // keyed on candidate indices only
    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    use ldmo::litho::backend::{self, BackendKind};
    let (_, layout) = cells::all_cells().into_iter().next().expect("cells");
    let cfg = FlowConfig {
        ilt: IltConfig {
            max_iterations: 6,
            ..IltConfig::default()
        },
        ..FlowConfig::default()
    };
    let prev = backend::backend_kind();
    let mut results = Vec::new();
    for kind in [BackendKind::Scalar, BackendKind::Simd] {
        backend::set_backend(kind);
        let (a, b) = serial_vs_threaded(|| {
            LdmoFlow::new(cfg.clone(), SelectionStrategy::LithoProxy).run(&layout)
        });
        assert_eq!(a.assignment, b.assignment, "backend '{kind}'");
        assert_eq!(a.outcome.l2.to_bits(), b.outcome.l2.to_bits());
        results.push(a);
    }
    backend::set_backend(prev);
    let (scalar, simd) = (&results[0], &results[1]);
    assert_eq!(scalar.assignment, simd.assignment);
    assert_eq!(scalar.attempts, simd.attempts);
    assert_eq!(scalar.outcome.l2.to_bits(), simd.outcome.l2.to_bits());
    assert_eq!(scalar.outcome.masks, simd.outcome.masks);
}

#[test]
fn tiled_chip_is_thread_and_backend_invariant() {
    // the tiled full-chip pipeline (DESIGN.md §15) extends the contract:
    // per-tile optimization fans out across the pool, yet the stitched
    // chip masks are bit-identical for any thread count and any litho
    // backend — ownership stitching leaves no seam for scheduling noise
    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    use ldmo::litho::backend::{self, BackendKind};
    use ldmo_chip::{run_chip, ChipConfig};
    use ldmo_layout::generate::{GeneratorConfig, LayoutGenerator};
    let layout = LayoutGenerator::new(GeneratorConfig::default(), 11)
        .generate_chip(2, 1)
        .expect("demo chip generates");
    let mut cfg = ChipConfig {
        tile_nm: 448,
        ..ChipConfig::default()
    };
    cfg.ilt.max_iterations = 4;
    cfg.decomp.max_candidates = 6;
    let prev = backend::backend_kind();
    let mut pinned: Option<ldmo::geom::Grid> = None;
    for kind in [BackendKind::Scalar, BackendKind::Simd] {
        backend::set_backend(kind);
        let (a, b) = serial_vs_threaded(|| run_chip(&layout, &cfg));
        assert_eq!(a.grid.len(), 2, "two 448 nm tiles");
        assert_eq!(a.epe_violations, b.epe_violations, "backend '{kind}'");
        assert_eq!(a.degraded_tiles, 0, "backend '{kind}'");
        assert_eq!(a.masks, b.masks, "backend '{kind}': 1 vs 4 threads");
        for (x, y) in a.tiles.iter().zip(&b.tiles) {
            assert_eq!(x.epe_owned, y.epe_owned, "backend '{kind}'");
            assert_eq!(x.attempts, y.attempts, "backend '{kind}'");
        }
        // and across backends: the stitched chip mask is one artifact
        match &pinned {
            Some(mask) => assert_eq!(mask, &a.masks[0], "backend '{kind}' vs scalar"),
            None => pinned = Some(a.masks[0].clone()),
        }
    }
    backend::set_backend(prev);
}

#[test]
fn flow_run_is_thread_count_invariant() {
    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (_, layout) = cells::all_cells().into_iter().next().expect("cells");
    let cfg = FlowConfig {
        ilt: IltConfig {
            max_iterations: 6,
            ..IltConfig::default()
        },
        ..FlowConfig::default()
    };
    let (a, b) = serial_vs_threaded(|| {
        // LdmoFlow::new captures the global pool, so build inside
        LdmoFlow::new(cfg.clone(), SelectionStrategy::LithoProxy).run(&layout)
    });
    assert_eq!(a.assignment, b.assignment);
    assert_eq!(a.attempts, b.attempts);
    assert_eq!(a.candidates, b.candidates);
    assert_eq!(a.outcome.l2.to_bits(), b.outcome.l2.to_bits());
    assert_eq!(a.outcome.epe.violations(), b.outcome.epe.violations());
    assert_eq!(a.outcome.masks, b.outcome.masks);
}
