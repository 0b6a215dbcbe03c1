//! Kernel-bank amortization regression test: ranking N candidates must
//! expand (or deep-copy) kernel components O(1) times, not O(N).
//!
//! Before the `Arc<KernelBank>` sharing in `IltContext`, every
//! per-candidate session deep-cloned the bank, re-materializing each
//! component's profile buffer — the `litho.kernel_expansions` counter
//! (incremented by both `Component::new` and `Component::clone`) grew
//! linearly with the candidate count. With the shared bank the counter
//! must not move at all during ranking, on every backend.

use ldmo_core::flow::{FlowConfig, LdmoFlow, SelectionStrategy};
use ldmo_decomp::{generate_candidates, DecompConfig};
use ldmo_ilt::{IltConfig, IltContext};
use ldmo_layout::cells;
use ldmo_litho::backend::{self, BackendKind};
use std::sync::Mutex;

/// Backend selection and the obs collector are process-global.
static GATE: Mutex<()> = Mutex::new(());

#[test]
fn ranking_expands_kernels_once_per_context_not_per_candidate() {
    let _guard = GATE.lock().unwrap_or_else(|e| e.into_inner());
    ldmo::obs::enable();
    let layout = cells::cell("AOI211_X1").expect("known cell");
    let candidates = generate_candidates(&layout, &DecompConfig::default());
    assert!(
        candidates.len() >= 4,
        "need several candidates for the O(1) claim to be meaningful"
    );
    let cfg = FlowConfig {
        ilt: IltConfig {
            max_iterations: 4,
            ..IltConfig::default()
        },
        ..FlowConfig::default()
    };
    let expansions = ldmo::obs::counter("litho.kernel_expansions");
    let prev = backend::backend_kind();
    for kind in [BackendKind::Scalar, BackendKind::Simd] {
        backend::set_backend(kind);
        // the one allowed expansion: building the context's bank
        let before_ctx = expansions.get();
        let ctx = IltContext::new(&cfg.ilt);
        let per_context = expansions.get() - before_ctx;
        assert!(
            per_context > 0,
            "context construction must expand the bank (counter dead?)"
        );

        let mut flow = LdmoFlow::new(cfg.clone(), SelectionStrategy::LithoProxy);
        let before_rank = expansions.get();
        let order = flow.rank_candidates(&layout, &candidates, &ctx);
        let during_rank = expansions.get() - before_rank;
        assert_eq!(order.len(), candidates.len());
        assert_eq!(
            during_rank,
            0,
            "backend '{kind}': ranking {} candidates re-expanded kernel \
             components {during_rank} times; sessions must share the \
             context's Arc<KernelBank>",
            candidates.len()
        );
    }
    backend::set_backend(prev);
}
