//! The per-request optimization pipeline: candidate generation, then the
//! shared `ldmo-core` ladder (rank → abort-attempt loop → complete
//! best-ranked → retry once with a halved budget → unoptimized drawn
//! masks) under the request's deadline.

use ldmo_core::ladder::{self, Ladder, Rung, SelectionStrategy};
use ldmo_core::score::ScoreWeights;
use ldmo_decomp::{generate_candidates, DecompConfig};
use ldmo_geom::Grid;
use ldmo_guard::{DegradeReason, OutcomeHealth};
use ldmo_ilt::{IltConfig, IltContext, IltOutcome};
use ldmo_layout::Layout;
use std::time::{Duration, Instant};

/// Per-request optimization knobs (the serving analogue of `ChipConfig`).
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// ILT engine config; its budget composes with the request deadline
    /// (the tighter bound wins on each axis).
    pub ilt: IltConfig,
    /// Candidate generation (its `max_candidates` caps the ranking
    /// fan-out and is part of the cache key).
    pub decomp: DecompConfig,
    /// Eq. 9 weights for the litho-proxy ranking.
    pub weights: ScoreWeights,
    /// Candidates attempted under the abort policy before completing the
    /// best-ranked one without it.
    pub max_attempts: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            ilt: IltConfig::default(),
            decomp: DecompConfig::default(),
            weights: ScoreWeights::default(),
            max_attempts: 4,
        }
    }
}

/// What one request's optimization produced.
#[derive(Debug, Clone)]
pub struct RequestOutcome {
    /// The served double-patterning mask pair.
    pub masks: [Grid; 2],
    /// EPE violations of the served masks.
    pub epe_violations: usize,
    /// ILT attempts made (abort-loop + fallback + retry).
    pub attempts: usize,
    /// Decomposition candidates ranked.
    pub candidates: usize,
    /// Iterations of the accepted run.
    pub iterations: usize,
    /// Guard verdict. `Degraded` means the deterministic unoptimized
    /// drawn masks were served.
    pub health: OutcomeHealth,
    /// The ladder rung that produced the served masks. A
    /// [`Rung::Retry`] outcome is never cached — the retry only runs
    /// against a wall-clock deadline, which is not a function of the input.
    pub rung: Rung,
}

impl RequestOutcome {
    fn new(out: IltOutcome, attempts: usize, candidates: usize, rung: Rung) -> Self {
        if out.health.is_degraded() {
            ldmo_obs::incr("serve.degraded");
        }
        if rung == Rung::Retry {
            ldmo_obs::incr("serve.retries");
        }
        RequestOutcome {
            epe_violations: out.epe_violations(),
            iterations: out.iterations_run,
            health: out.health,
            masks: out.masks,
            attempts,
            candidates,
            rung,
        }
    }
}

/// Runs one request end to end. `remaining` is the wall-clock budget left
/// of the request's deadline at processing start (queue wait already
/// deducted); `None` means no deadline.
///
/// Every rung of the ladder (DESIGN.md §16) returns a well-formed outcome;
/// nothing panics or blocks past the deadline by more than one budget
/// check interval.
pub fn optimize_request(
    layout: &Layout,
    cfg: &PipelineConfig,
    ctx: &IltContext,
    remaining: Option<Duration>,
) -> RequestOutcome {
    let deadline = remaining.and_then(|d| Instant::now().checked_add(d));
    let candidates = generate_candidates(layout, &cfg.decomp);
    let ctx = ctx.with_config(&cfg.ilt);
    let ladder = Ladder {
        ctx: &ctx,
        weights: cfg.weights,
        max_attempts: cfg.max_attempts,
        candidate_deadline: None,
        pool: None,
    };
    let climb = ladder.run(
        layout,
        &candidates,
        &mut SelectionStrategy::LithoProxy,
        deadline,
        &mut None,
    );
    RequestOutcome::new(climb.outcome, climb.attempts, candidates.len(), climb.rung)
}

/// Serial replacement for a request whose pool worker panicked: the
/// ladder's drawn rung on the first candidate, marked degraded — the
/// serving mirror of `ldmo-chip`'s `panicked_tile`.
pub fn panicked_fallback(
    layout: &Layout,
    cfg: &PipelineConfig,
    ctx: &IltContext,
) -> RequestOutcome {
    ldmo_obs::incr("serve.panics");
    let candidates = generate_candidates(layout, &cfg.decomp);
    let out = ladder::drawn(
        ctx,
        layout,
        &candidates[0],
        DegradeReason::WorkerPanic,
        &mut None,
    );
    RequestOutcome::new(out, 0, candidates.len(), Rung::Drawn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldmo_geom::Rect;
    use ldmo_guard::Budget;

    fn small_layout() -> Layout {
        Layout::new(
            Rect::new(0, 0, 448, 448),
            vec![Rect::square(80, 80, 64), Rect::square(240, 240, 64)],
        )
    }

    fn fast_cfg() -> PipelineConfig {
        let mut cfg = PipelineConfig::default();
        cfg.ilt.max_iterations = 4;
        cfg.decomp.max_candidates = 4;
        cfg
    }

    #[test]
    fn healthy_request_is_deterministic() {
        let layout = small_layout();
        let cfg = fast_cfg();
        let ctx = IltContext::new(&cfg.ilt);
        let a = optimize_request(&layout, &cfg, &ctx, None);
        let b = optimize_request(&layout, &cfg, &ctx, None);
        assert!(a.health.is_usable());
        assert_ne!(a.rung, Rung::Retry);
        assert_eq!(a.masks, b.masks);
        assert_eq!(a.epe_violations, b.epe_violations);
        assert_eq!(a.attempts, b.attempts);
    }

    #[test]
    fn exhausted_budget_without_a_deadline_serves_the_drawn_masks() {
        let layout = small_layout();
        let mut cfg = fast_cfg();
        cfg.ilt.budget = Budget::iterations(0);
        let ctx = IltContext::new(&cfg.ilt);
        let out = optimize_request(&layout, &cfg, &ctx, None);
        // without a deadline there is no retry: the exhausted run falls to
        // the drawn masks — well-formed, never a panic
        assert_eq!(out.rung, Rung::Drawn);
        assert!(out.health.is_degraded());
        assert!(out.masks[0].as_slice().iter().any(|&v| v > 0.0));
    }

    #[test]
    fn a_live_deadline_gives_a_degraded_run_one_halved_retry() {
        // 5 iterations under a 4-iteration budget degrade; the retry runs
        // 2 iterations under a 2-iteration budget and completes
        let layout = small_layout();
        let mut cfg = fast_cfg();
        cfg.ilt.max_iterations = 5;
        cfg.ilt.budget = Budget::iterations(4);
        let ctx = IltContext::new(&cfg.ilt);
        let out = optimize_request(&layout, &cfg, &ctx, Some(Duration::from_secs(600)));
        assert_eq!(out.rung, Rung::Retry);
        assert!(out.health.is_usable());
        assert_eq!(out.iterations, 2);
    }

    #[test]
    fn expired_deadline_degrades_immediately_and_deterministically() {
        let layout = small_layout();
        let cfg = fast_cfg();
        let ctx = IltContext::new(&cfg.ilt);
        let a = optimize_request(&layout, &cfg, &ctx, Some(Duration::ZERO));
        let b = optimize_request(&layout, &cfg, &ctx, Some(Duration::ZERO));
        assert_eq!(
            a.health,
            OutcomeHealth::Degraded {
                reason: DegradeReason::BudgetExhausted
            }
        );
        assert_eq!(a.iterations, 0);
        assert_eq!(a.rung, Rung::Drawn);
        assert_eq!(a.masks, b.masks, "fallback masks are deterministic");
    }

    #[test]
    fn panicked_fallback_is_degraded_and_deterministic() {
        let layout = small_layout();
        let cfg = fast_cfg();
        let ctx = IltContext::new(&cfg.ilt);
        let a = panicked_fallback(&layout, &cfg, &ctx);
        let b = panicked_fallback(&layout, &cfg, &ctx);
        assert_eq!(
            a.health,
            OutcomeHealth::Degraded {
                reason: DegradeReason::WorkerPanic
            }
        );
        assert_eq!(a.masks, b.masks);
    }
}
