//! Integration tests of the end-to-end LDMO flow and the baselines.

use ldmo::core::baselines::{two_stage_bfs, two_stage_suald, unified_flow, UnifiedConfig};
use ldmo::core::flow::{FlowConfig, LdmoFlow, Rung, SelectionStrategy};
use ldmo::core::predictor::PrintabilityPredictor;
use ldmo::ilt::IltConfig;
use ldmo::layout::cells;

fn fast_flow_cfg() -> FlowConfig {
    let mut cfg = FlowConfig::default();
    cfg.ilt.max_iterations = 10;
    cfg.ilt.abort_warmup = 6;
    cfg.max_attempts = 3;
    cfg
}

fn fast_ilt() -> IltConfig {
    IltConfig {
        max_iterations: 10,
        ..IltConfig::default()
    }
}

#[test]
fn all_flows_complete_on_every_cell() {
    for (name, layout) in cells::all_cells() {
        let proxy = LdmoFlow::new(fast_flow_cfg(), SelectionStrategy::LithoProxy).run(&layout);
        assert_eq!(
            proxy.assignment.len(),
            layout.len(),
            "{name}: proxy flow incomplete"
        );
        // without a deadline or budget the ladder stops at an accepted
        // attempt or completes the best candidate after every attempt
        let tried = fast_flow_cfg().max_attempts.min(proxy.candidates);
        match proxy.rung {
            Rung::Attempt => assert!(proxy.attempts <= tried, "{name}"),
            Rung::CompleteBest => assert_eq!(proxy.attempts, tried + 1, "{name}"),
            other => panic!("{name}: unexpected rung {other:?}"),
        }
        let suald = two_stage_suald(&layout, &fast_ilt());
        assert_eq!(suald.assignment.len(), layout.len());
        let bfs = two_stage_bfs(&layout, &fast_ilt());
        assert_eq!(bfs.assignment.len(), layout.len());
    }
}

#[test]
fn unified_flow_result_is_no_worse_than_its_own_worst_candidate() {
    let layout = cells::cell("NAND2_X1").expect("known cell");
    let cfg = UnifiedConfig {
        ilt: fast_ilt(),
        max_initial: 4,
        ..UnifiedConfig::default()
    };
    let result = unified_flow(&layout, &cfg);
    // sanity only: the selected candidate was fully optimized
    assert_eq!(result.outcome.iterations_run, fast_ilt().max_iterations);
}

#[test]
fn cnn_flow_uses_rejection_feedback() {
    // An untrained predictor may pick violating candidates first; the flow
    // must recover through the Fig. 2 feedback loop and emit masks.
    let layout = cells::cell("NOR2_X1").expect("known cell");
    let predictor = PrintabilityPredictor::lite(11);
    let mut flow = LdmoFlow::new(fast_flow_cfg(), SelectionStrategy::Cnn(Box::new(predictor)));
    let result = flow.run(&layout);
    assert_eq!(result.assignment.len(), layout.len());
    assert!(result.attempts >= 1);
}

#[test]
fn flow_timing_sums_to_total() {
    let layout = cells::cell("BUF_X1").expect("known cell");
    let result = LdmoFlow::new(fast_flow_cfg(), SelectionStrategy::First).run(&layout);
    let t = result.timing;
    assert_eq!(t.total(), t.decomposition_selection + t.mask_optimization);
}
