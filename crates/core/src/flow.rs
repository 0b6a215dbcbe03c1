//! The end-to-end LDMO flow (paper Fig. 2).
//!
//! `input layout → decomposition generation → printability prediction →
//! ILT optimization → optimized masks`, with the feedback edge: when a
//! print violation aborts ILT on a candidate, the next-best candidate is
//! tried. Everything after candidate generation is the shared
//! [`crate::ladder::Ladder`].

use crate::ladder::{Ladder, StagePeak};
use crate::score::ScoreWeights;
use ldmo_decomp::{generate_candidates, DecompConfig};
use ldmo_ilt::{IltConfig, IltContext, IltOutcome};
use ldmo_layout::{Layout, MaskAssignment};
use std::time::{Duration, Instant};

pub use crate::ladder::{Rung, SelectionStrategy};

/// Flow configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowConfig {
    /// Candidate generation (Algorithm 1).
    pub decomp: DecompConfig,
    /// ILT engine; the ladder forces
    /// [`ldmo_ilt::ViolationPolicy::AbortOnViolation`] during candidate
    /// attempts.
    pub ilt: IltConfig,
    /// Eq. 9 weights used by the `LithoProxy` strategy.
    pub weights: ScoreWeights,
    /// Maximum candidates attempted before giving up and completing the
    /// best-ranked candidate without the abort policy.
    pub max_attempts: usize,
    /// Wall-clock deadline for ranking one candidate. A candidate that
    /// blows it is not scored — it receives the deterministic
    /// [`ldmo_guard::penalty_score`] for
    /// [`ldmo_guard::DegradeReason::BudgetExhausted`], so one pathological
    /// candidate cannot stall the whole selection. `None` (the default)
    /// keeps ranking fully deterministic.
    pub candidate_deadline: Option<Duration>,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            decomp: DecompConfig::default(),
            ilt: IltConfig::default(),
            weights: ScoreWeights::default(),
            max_attempts: 4,
            candidate_deadline: None,
        }
    }
}

/// Wall-clock breakdown of one flow run — the quantities behind the
/// paper's Fig. 1(c) and the "Time" columns of Table I.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlowTiming {
    /// Decomposition-selection time: candidate generation + scoring +
    /// aborted ILT attempts.
    pub decomposition_selection: Duration,
    /// Mask-optimization time: the ladder rung that produced the masks.
    pub mask_optimization: Duration,
}

impl FlowTiming {
    /// Splits a measured flow total into the two buckets: everything that
    /// is not the successful mask optimization is decomposition selection
    /// (candidate generation, scoring, aborted ILT attempts). Built this
    /// way the buckets sum exactly to the measured total — no stage can
    /// silently fall outside both (see `timing_accounts_for_total_span`).
    pub fn from_total(total: Duration, mask_optimization: Duration) -> Self {
        FlowTiming {
            decomposition_selection: total.saturating_sub(mask_optimization),
            mask_optimization,
        }
    }

    /// Total wall-clock time.
    pub fn total(&self) -> Duration {
        self.decomposition_selection + self.mask_optimization
    }

    /// Fraction of time spent on decomposition selection.
    pub fn ds_fraction(&self) -> f64 {
        let total = self.total().as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            self.decomposition_selection.as_secs_f64() / total
        }
    }
}

/// Result of one LDMO flow run.
#[derive(Debug)]
pub struct FlowResult {
    /// The decomposition the final masks came from.
    pub assignment: MaskAssignment,
    /// The final ILT outcome.
    pub outcome: IltOutcome,
    /// ILT runs made (1 = the first choice succeeded).
    pub attempts: usize,
    /// Number of candidates generated.
    pub candidates: usize,
    /// The ladder rung that produced `outcome`.
    pub rung: Rung,
    /// Wall-clock breakdown.
    pub timing: FlowTiming,
}

/// The deep-learning-driven LDMO flow (Fig. 2).
pub struct LdmoFlow {
    cfg: FlowConfig,
    strategy: SelectionStrategy,
    pool: ldmo_par::ThreadPool,
}

impl LdmoFlow {
    /// Creates a flow with the given selection strategy, ranking
    /// candidates on the global [`ldmo_par`] pool.
    pub fn new(cfg: FlowConfig, strategy: SelectionStrategy) -> Self {
        LdmoFlow {
            cfg,
            strategy,
            pool: ldmo_par::global(),
        }
    }

    /// Replaces the pool used for candidate ranking (results are
    /// bit-identical for any pool size).
    pub fn with_pool(mut self, pool: ldmo_par::ThreadPool) -> Self {
        self.pool = pool;
        self
    }

    /// Read access to the configuration.
    pub fn config(&self) -> &FlowConfig {
        &self.cfg
    }

    /// Runs the full flow on one layout.
    ///
    /// Every stage is wrapped in an `ldmo-obs` span (`flow.run` at the
    /// root; see DESIGN.md §8 for the span inventory); the spans also feed
    /// the legacy [`FlowTiming`] breakdown, with
    /// `decomposition_selection = total − mask_optimization` so the two
    /// buckets account for the whole run by construction.
    ///
    /// # Panics
    ///
    /// Panics if candidate generation yields nothing (cannot happen for
    /// non-empty layouts).
    pub fn run(&mut self, layout: &Layout) -> FlowResult {
        let run_start = Instant::now();
        let mem = ldmo_obs::enabled() && ldmo_obs::alloc::installed();
        let mut run_peak_kb = 0f64;
        let mut root = ldmo_obs::span("flow.run");
        root.set("patterns", layout.len() as f64);
        root.set("pool", self.pool.threads() as f64);
        // which litho backend executes this run's convolutions
        // (BackendKind::code: 1 scalar, 2 simd)
        root.set(
            "backend",
            f64::from(ldmo_litho::backend::resolved_kind().code()),
        );
        // one kernel-bank expansion serves the proxy ranking, every abort
        // attempt and the final optimization
        let ctx = {
            let mut s = ldmo_obs::span("flow.kernel_expand");
            let peak = StagePeak::start(mem);
            let ctx = IltContext::new(&self.cfg.ilt);
            peak.finish(&mut s, &mut run_peak_kb);
            ctx
        };
        let candidates = {
            let mut s = ldmo_obs::span("flow.candidate_gen");
            let peak = StagePeak::start(mem);
            let candidates = generate_candidates(layout, &self.cfg.decomp);
            peak.finish(&mut s, &mut run_peak_kb);
            s.set("candidates", candidates.len() as f64);
            candidates
        };
        let climb = Self::ladder(&self.cfg, &self.pool, &ctx).run(
            layout,
            &candidates,
            &mut self.strategy,
            None,
            &mut None,
        );
        let timing = FlowTiming::from_total(run_start.elapsed(), climb.optimize_time);
        // the FlowTiming buckets in microseconds: `sel_us` + `opt_us` must
        // reconcile with the span's own duration (`ldmo trace summarize
        // --reconcile` enforces it within 1%); with memory profiling this
        // fills all 8 of the collector's ldmo_obs::MAX_SPAN_META slots
        root.set("attempts", climb.attempts as f64);
        root.set("rung", f64::from(climb.rung as u8));
        root.set("sel_us", timing.decomposition_selection.as_micros() as f64);
        root.set("opt_us", timing.mask_optimization.as_micros() as f64);
        if mem {
            root.set("peak_kb", run_peak_kb.max(climb.peak_kb));
        }
        FlowResult {
            assignment: candidates[climb.candidate].clone(),
            outcome: climb.outcome,
            attempts: climb.attempts,
            candidates: candidates.len(),
            rung: climb.rung,
            timing,
        }
    }

    /// Candidate indices in selection order (best first).
    ///
    /// Exposed for the scaling benches; `ctx` must have been built for
    /// `self.config().ilt` (see [`IltContext::new`]).
    pub fn rank_candidates(
        &mut self,
        layout: &Layout,
        candidates: &[MaskAssignment],
        ctx: &IltContext,
    ) -> Vec<usize> {
        Self::ladder(&self.cfg, &self.pool, ctx).rank(
            layout,
            candidates,
            &mut self.strategy,
            &mut None,
        )
    }

    fn ladder<'a>(
        cfg: &FlowConfig,
        pool: &'a ldmo_par::ThreadPool,
        ctx: &'a IltContext,
    ) -> Ladder<'a> {
        Ladder {
            ctx,
            weights: cfg.weights,
            max_attempts: cfg.max_attempts,
            candidate_deadline: cfg.candidate_deadline,
            pool: Some(pool),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::PrintabilityPredictor;
    use ldmo_geom::Rect;

    fn quad_layout(gap: i32) -> Layout {
        let size = 64;
        let pitch = size + gap;
        Layout::new(
            Rect::new(0, 0, 448, 448),
            vec![
                Rect::square(120, 120, size),
                Rect::square(120 + pitch, 120, size),
                Rect::square(120, 120 + pitch, size),
                Rect::square(120 + pitch, 120 + pitch, size),
            ],
        )
    }

    fn fast_cfg() -> FlowConfig {
        let mut cfg = FlowConfig::default();
        cfg.ilt.max_iterations = 12;
        cfg.ilt.abort_warmup = 6;
        cfg
    }

    #[test]
    fn litho_proxy_flow_completes() {
        let layout = quad_layout(60);
        let mut flow = LdmoFlow::new(fast_cfg(), SelectionStrategy::LithoProxy);
        let result = flow.run(&layout);
        assert!(result.candidates > 0);
        assert!(result.attempts >= 1);
        assert_eq!(result.assignment.len(), layout.len());
        assert!(result.timing.total() > Duration::ZERO);
    }

    #[test]
    fn proxy_selection_separates_the_quad() {
        // the unoptimized-print proxy must rank a checkerboard-ish
        // decomposition above all-same-mask for a dense quad
        let layout = quad_layout(60);
        let mut flow = LdmoFlow::new(fast_cfg(), SelectionStrategy::LithoProxy);
        let result = flow.run(&layout);
        // at least one close pair must be split in the selected candidate
        let a = &result.assignment;
        assert!(
            a.contains(&0) && a.contains(&1),
            "selected an all-one-mask decomposition: {a:?}"
        );
    }

    #[test]
    fn first_strategy_is_deterministic() {
        let layout = quad_layout(72);
        let r1 = LdmoFlow::new(fast_cfg(), SelectionStrategy::First).run(&layout);
        let r2 = LdmoFlow::new(fast_cfg(), SelectionStrategy::First).run(&layout);
        assert_eq!(r1.assignment, r2.assignment);
    }

    #[test]
    fn random_strategy_depends_on_seed() {
        let layout = quad_layout(72);
        let a = LdmoFlow::new(fast_cfg(), SelectionStrategy::Random { seed: 1 }).run(&layout);
        let b = LdmoFlow::new(fast_cfg(), SelectionStrategy::Random { seed: 2 }).run(&layout);
        // different seeds may pick the same candidate, but the flow must
        // still finish cleanly in both cases
        assert_eq!(a.assignment.len(), b.assignment.len());
    }

    #[test]
    fn untrained_cnn_flow_still_produces_masks() {
        // an untrained CNN gives arbitrary rankings; the violation feedback
        // loop must still deliver a result
        let layout = quad_layout(60);
        let predictor = PrintabilityPredictor::lite(3);
        let mut flow = LdmoFlow::new(fast_cfg(), SelectionStrategy::Cnn(Box::new(predictor)));
        let result = flow.run(&layout);
        assert_eq!(result.assignment.len(), 4);
        assert!(result.attempts <= fast_cfg().max_attempts + 1);
    }

    #[test]
    fn timing_breakdown_is_consistent() {
        let layout = quad_layout(72);
        let result = LdmoFlow::new(fast_cfg(), SelectionStrategy::First).run(&layout);
        let t = result.timing;
        assert!(t.total() >= t.mask_optimization);
        assert!((0.0..=1.0).contains(&t.ds_fraction()));
    }

    #[test]
    fn timing_accounts_for_total_span() {
        // accounting-drift regression: decomposition_selection +
        // mask_optimization must equal the whole flow.run span (± slack),
        // so no stage can silently fall outside both buckets (kernel
        // expansion and abort bookkeeping used to)
        let layout = quad_layout(60);
        let mut flow = LdmoFlow::new(fast_cfg(), SelectionStrategy::LithoProxy);
        let wall = Instant::now();
        let result = flow.run(&layout);
        let measured = wall.elapsed();
        let bucketed = result.timing.total();
        assert!(
            bucketed <= measured,
            "buckets exceed the measured span: {bucketed:?} > {measured:?}"
        );
        assert!(
            measured - bucketed < Duration::from_millis(50),
            "{:?} of the flow span fell outside both timing buckets",
            measured - bucketed
        );
    }
}
