//! Allocation-count regression test: `IltSession::step_one` must not touch
//! the heap once the session is constructed — every per-iteration buffer
//! (forward artifacts, gradients, convolution scratch) is owned by the
//! session.
//!
//! The counting allocator that started life in this file is now the
//! reusable `ldmo_obs::alloc::CountingAlloc` (the same machinery the
//! `mem.*` trace gauges read), so this test doubles as proof that the
//! memory self-profiling layer itself observes zero hot-path allocations.
//!
//! This test lives in its own integration-test binary because it installs a
//! counting `#[global_allocator]`, which must not observe allocations from
//! unrelated concurrently running tests.

use ldmo_obs::alloc::{alloc_event_count, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn step_one_is_allocation_free_after_warmup() {
    use ldmo_geom::Rect;
    use ldmo_ilt::{IltConfig, IltSession};
    use ldmo_layout::Layout;

    let clip = Layout::new(
        Rect::new(0, 0, 448, 448),
        vec![
            Rect::square(120, 120, 64),
            Rect::square(248, 120, 64),
            Rect::square(120, 248, 64),
            Rect::square(248, 248, 64),
        ],
    );
    // wider than 1508 nm: a padded row of this window plus the widest
    // profile's 2 x 135 taps no longer fits a 1024-float stack buffer, so
    // every pass must take its padded rows from the caller's scratch
    let wide = Layout::new(
        Rect::new(0, 0, 1600, 160),
        vec![
            Rect::square(100, 48, 64),
            Rect::square(760, 48, 64),
            Rect::square(1420, 48, 64),
        ],
    );
    // The trace collector must also be allocation-free on the hot path:
    // records go into a preallocated buffer, metric handles are leaked
    // statics. Enabling it here makes the guard cover the instrumented
    // path, not just the disabled fast path.
    ldmo_obs::enable();
    assert!(
        ldmo_obs::alloc::installed(),
        "the counting allocator must have observed the setup allocations"
    );
    // Every backend must keep the hot loop allocation-free — the SIMD
    // passes use the same caller-owned buffers as scalar. One loop in one test:
    // the counting allocator is process-global, so parallel per-backend
    // tests would observe each other's setup allocations.
    use ldmo_litho::backend::{self, BackendKind};
    let prev = backend::backend_kind();
    for (name, layout) in [("clip", &clip), ("wide", &wide)] {
        for kind in [BackendKind::Scalar, BackendKind::Simd] {
            backend::set_backend(kind);
            let mut session = IltSession::new(
                layout,
                &[0, 1, 1, 0][..layout.patterns().len()],
                &IltConfig::default(),
            );
            // warmup: the first iterations populate anything touched lazily
            // (including lazy metric registration in ldmo-obs and the SIMD
            // feature-detection cache)
            session.step_one();
            session.step_one();

            let before = alloc_event_count();
            let l2 = session.step_one();
            let allocated = alloc_event_count() - before;
            assert!(l2.is_finite());
            assert_eq!(
                allocated, 0,
                "step_one on the {name} window under backend '{kind}' performed \
                 {allocated} heap allocations; the hot path must reuse session buffers"
            );
        }
    }
    backend::set_backend(prev);
    // the self-profiling counters themselves must have seen real traffic
    assert!(ldmo_obs::alloc::peak_bytes() > 0);
    assert!(ldmo_obs::alloc::current_bytes() <= ldmo_obs::alloc::peak_bytes());
}
