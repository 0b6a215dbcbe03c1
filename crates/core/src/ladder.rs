//! The selection ladder of the paper's Fig. 2 — rank → attempt →
//! complete-best → retry → drawn (DESIGN.md §17) — shared by the
//! whole-layout [`crate::flow`], the tiled chip runner (`ldmo-chip`) and
//! the serving pipeline (`ldmo-serve`).
//!
//! The paper marks rejected outputs "and when facing the same
//! decomposition, we drop it to avoid giving the same output". Walking the
//! ranked order once *is* that rule: `generate_candidates` returns
//! canonical, deduplicated candidates and every strategy's order is a
//! permutation, so no decomposition is attempted twice and the ladder
//! keeps no rejection memory.

use crate::predictor::PrintabilityPredictor;
use crate::score::{printability_score, ScoreWeights};
use ldmo_guard::{fault, penalty_score, Budget, DegradeReason, OutcomeHealth};
use ldmo_ilt::{IltConfig, IltContext, IltOutcome, IltScratch, ViolationPolicy};
use ldmo_layout::{Layout, MaskAssignment};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// How the ladder ranks decomposition candidates — the paper's CNN plus
/// the ablation strategies of DESIGN.md §4.
pub enum SelectionStrategy {
    /// The paper's method: a trained CNN printability predictor.
    Cnn(Box<PrintabilityPredictor>),
    /// Rank candidates by the Eq. 9 score of their *unoptimized* print —
    /// a cheap lithography proxy (one forward simulation per candidate,
    /// no ILT).
    LithoProxy,
    /// Uniform random selection.
    Random {
        /// Selection seed.
        seed: u64,
    },
    /// Take candidates in generation order.
    First,
}

impl std::fmt::Debug for SelectionStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SelectionStrategy::Cnn(_) => write!(f, "Cnn(..)"),
            SelectionStrategy::LithoProxy => write!(f, "LithoProxy"),
            SelectionStrategy::Random { seed } => write!(f, "Random {{ seed: {seed} }}"),
            SelectionStrategy::First => write!(f, "First"),
        }
    }
}

/// The ladder rung that produced a result. The discriminant is the
/// `rung` code on the `flow.run` and `chip.tile` spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// An abort-policy attempt finished without a print violation.
    Attempt = 1,
    /// Every attempt aborted; the best-ranked candidate was completed.
    CompleteBest = 2,
    /// The accepted run was unusable; the halved-budget retry produced the
    /// result (only under a deadline).
    Retry = 3,
    /// The unoptimized drawn masks of the candidate (the result is
    /// degraded).
    Drawn = 4,
}

impl Rung {
    /// Stable lowercase name, as the serve response spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Rung::Attempt => "attempt",
            Rung::CompleteBest => "complete-best",
            Rung::Retry => "retry",
            Rung::Drawn => "drawn",
        }
    }
}

/// What one ladder climb produced.
#[derive(Debug)]
pub struct LadderOutcome {
    /// Index of the chosen candidate.
    pub candidate: usize,
    /// The outcome of the rung that produced the result; its health is
    /// `Degraded` exactly when `rung` is [`Rung::Drawn`].
    pub outcome: IltOutcome,
    /// ILT runs made: attempts, plus the completion and the retry when
    /// they ran.
    pub attempts: usize,
    /// The rung that produced `outcome`.
    pub rung: Rung,
    /// Wall time of that rung — the flow's mask-optimization bucket.
    pub optimize_time: Duration,
    /// Largest per-stage peak heap in KiB (0 unless memory profiling is
    /// active).
    pub peak_kb: f64,
}

/// The ladder's settings. Built per run by each entry point from its own
/// config; `ctx` must have been built for the ILT config the entry point
/// optimizes under.
#[derive(Debug, Clone, Copy)]
pub struct Ladder<'a> {
    /// Shared kernel bank and the base ILT config of every rung.
    pub ctx: &'a IltContext,
    /// Eq. 9 weights of the `LithoProxy` ranking.
    pub weights: ScoreWeights,
    /// Candidates attempted under the abort policy before completing the
    /// best-ranked one.
    pub max_attempts: usize,
    /// Wall-clock deadline for ranking one candidate. A candidate that
    /// blows it receives the deterministic
    /// [`penalty_score`]`(BudgetExhausted)` instead of its score; `None`
    /// keeps ranking fully deterministic.
    pub candidate_deadline: Option<Duration>,
    /// Pool the proxy ranking fans out on; `None` ranks serially on the
    /// calling thread. Chip tiles and serve requests pass `None`: they
    /// already run one per pool worker, and a serial ranking shares their
    /// one scratch instead of allocating one per helper thread.
    pub pool: Option<&'a ldmo_par::ThreadPool>,
}

impl Ladder<'_> {
    /// Climbs the ladder for `candidates` of `layout`. `deadline` is the
    /// instant the result is due (`None`: no deadline); it bounds every
    /// ILT run's wall budget, and only with time left before it does an
    /// unusable run get the retry rung. A deadline already spent after
    /// ranking skips to the drawn masks of the best-ranked candidate.
    /// Ranking and every ILT run reuse `scratch`.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    pub fn run(
        &self,
        layout: &Layout,
        candidates: &[MaskAssignment],
        strategy: &mut SelectionStrategy,
        deadline: Option<Instant>,
        scratch: &mut Option<IltScratch>,
    ) -> LadderOutcome {
        assert!(!candidates.is_empty(), "no decomposition candidates");
        let mut climb = Climb {
            ctx: self.ctx,
            layout,
            candidates,
            scratch,
            mem: ldmo_obs::enabled() && ldmo_obs::alloc::installed(),
            attempts: 0,
            peak_kb: 0.0,
        };
        let order = {
            let mut s = ldmo_obs::span("flow.rank");
            let peak = StagePeak::start(climb.mem);
            let order = self.rank(layout, candidates, strategy, climb.scratch);
            peak.finish(&mut s, &mut climb.peak_kb);
            order
        };
        let left = || deadline.map(|t| t.saturating_duration_since(Instant::now()));
        let (ci, reason) = if left().is_some_and(|d| d.is_zero()) {
            (order[0], DegradeReason::BudgetExhausted)
        } else {
            let base = self.ctx.cfg();
            let cfg = IltConfig {
                budget: Budget {
                    max_wall: base.budget.max_wall.into_iter().chain(left()).min(),
                    ..base.budget
                },
                ..base.clone()
            };
            let abort = IltConfig {
                policy: ViolationPolicy::AbortOnViolation,
                ..cfg.clone()
            };
            let mut accepted = None;
            for &ci in order.iter().take(self.max_attempts.max(1)) {
                let (out, time) = climb.ilt("flow.ilt_attempt", &abort, ci);
                if out.aborted_at.is_none() {
                    accepted = Some((ci, out, Rung::Attempt, time));
                    break;
                }
                ldmo_obs::incr("flow.rejections");
            }
            let (ci, out, rung, time) = accepted.unwrap_or_else(|| {
                let (out, time) = climb.ilt("flow.ilt_final", &cfg, order[0]);
                (order[0], out, Rung::CompleteBest, time)
            });
            let OutcomeHealth::Degraded { reason } = out.health else {
                return climb.done(ci, out, rung, time);
            };
            if let Some(left) = left().filter(|d| !d.is_zero()) {
                // half the iteration cap, so a shortened run can complete
                // instead of re-blowing the bound, in half the time left
                let retry = IltConfig {
                    max_iterations: (base.max_iterations / 2).max(1),
                    budget: Budget {
                        max_iterations: base.budget.max_iterations.map(|n| (n / 2).max(1)),
                        max_wall: Some(left / 2),
                    },
                    ..base.clone()
                };
                let (out, time) = climb.ilt("flow.ilt_retry", &retry, ci);
                if out.health.is_usable() {
                    return climb.done(ci, out, Rung::Retry, time);
                }
            }
            (ci, reason)
        };
        let s = ldmo_obs::span("flow.drawn");
        let out = drawn(self.ctx, layout, &candidates[ci], reason, climb.scratch);
        climb.done(ci, out, Rung::Drawn, s.elapsed())
    }

    /// Candidate indices in selection order (best first) — the ladder's
    /// first rung on its own.
    pub fn rank(
        &self,
        layout: &Layout,
        candidates: &[MaskAssignment],
        strategy: &mut SelectionStrategy,
        scratch: &mut Option<IltScratch>,
    ) -> Vec<usize> {
        let mut order: Vec<usize> = (0..candidates.len()).collect();
        match strategy {
            SelectionStrategy::Cnn(p) => order = p.rank(layout, candidates),
            SelectionStrategy::LithoProxy => {
                let scores = self.proxy_scores(layout, candidates, scratch);
                // stable sort from index order: ties keep generation order
                order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
            }
            SelectionStrategy::Random { seed } => order.shuffle(&mut StdRng::seed_from_u64(*seed)),
            SelectionStrategy::First => {}
        }
        order
    }

    /// `LithoProxy` scores, keyed by candidate index: one forward
    /// simulation per candidate, fanned over the pool, so the sort sees
    /// exactly the serial values for any thread count. Each candidate runs
    /// in its own fault window — a panic, a degraded evaluation or a blown
    /// `candidate_deadline` penalizes that candidate (it ranks last,
    /// counted in `guard.candidate_penalized`) instead of failing the
    /// ranking.
    fn proxy_scores(
        &self,
        layout: &Layout,
        candidates: &[MaskAssignment],
        scratch: &mut Option<IltScratch>,
    ) -> Vec<f64> {
        let home = Mutex::new(scratch.take());
        let indices: Vec<usize> = (0..candidates.len()).collect();
        let serial;
        let pool = match self.pool {
            Some(pool) => pool,
            None => {
                serial = ldmo_par::ThreadPool::new(1);
                &serial
            }
        };
        let results = pool.par_map_init_catching(
            &indices,
            || Lent::take(&home),
            |lent, &i| {
                // the stall injection simulates a slow candidate, so it
                // must land inside the timed window
                let started = Instant::now();
                fault::apply_stall(i);
                fault::maybe_panic(i);
                let out = self.ctx.evaluate_unoptimized_reusing(
                    layout,
                    &candidates[i],
                    &mut lent.scratch,
                );
                if let OutcomeHealth::Degraded { reason } = out.health {
                    return penalize(reason);
                }
                if self
                    .candidate_deadline
                    .is_some_and(|d| started.elapsed() > d)
                {
                    return penalize(DegradeReason::BudgetExhausted);
                }
                printability_score(&out, &self.weights)
            },
        );
        *scratch = home.into_inner().unwrap_or_else(PoisonError::into_inner);
        results
            .into_iter()
            .map(|r| r.unwrap_or_else(|_| penalize(DegradeReason::WorkerPanic)))
            .collect()
    }
}

/// The drawn rung on its own: `candidate`'s unoptimized drawn masks,
/// marked degraded for `reason`. Also what chip and serve return for a
/// tile or request whose pool worker panicked.
pub fn drawn(
    ctx: &IltContext,
    layout: &Layout,
    candidate: &[u8],
    reason: DegradeReason,
    scratch: &mut Option<IltScratch>,
) -> IltOutcome {
    let mut outcome = ctx.evaluate_unoptimized_reusing(layout, candidate, scratch);
    outcome.health = OutcomeHealth::Degraded { reason };
    outcome
}

fn penalize(reason: DegradeReason) -> f64 {
    ldmo_obs::incr("guard.candidate_penalized");
    penalty_score(reason)
}

/// One ranking worker's scratch. The caller's scratch goes to the first
/// worker that starts — the only one when the fan runs serially, as it
/// does inside a chip tile or a serve request — and the first worker to
/// finish hands its scratch back, so ranking never holds a second scratch
/// beside the caller's. Every update of `home` is one `take` or store, so
/// a lock poisoned by a panicking candidate still guards a valid value.
struct Lent<'h> {
    home: &'h Mutex<Option<IltScratch>>,
    scratch: Option<IltScratch>,
}

impl<'h> Lent<'h> {
    fn take(home: &'h Mutex<Option<IltScratch>>) -> Self {
        let scratch = home.lock().unwrap_or_else(PoisonError::into_inner).take();
        Lent { home, scratch }
    }
}

impl Drop for Lent<'_> {
    fn drop(&mut self) {
        let mut home = self.home.lock().unwrap_or_else(PoisonError::into_inner);
        if home.is_none() {
            *home = self.scratch.take();
        }
    }
}

/// One climb's inputs, the caller's scratch, and what the climb has spent
/// so far: ILT runs and the largest stage peak.
struct Climb<'c> {
    ctx: &'c IltContext,
    layout: &'c Layout,
    candidates: &'c [MaskAssignment],
    scratch: &'c mut Option<IltScratch>,
    mem: bool,
    attempts: usize,
    peak_kb: f64,
}

impl Climb<'_> {
    /// One ILT run of candidate `ci` under `cfg`, in its own `span`.
    fn ilt(&mut self, span: &'static str, cfg: &IltConfig, ci: usize) -> (IltOutcome, Duration) {
        self.attempts += 1;
        let mut s = ldmo_obs::span(span);
        s.set("attempt", self.attempts as f64);
        s.set("candidate", ci as f64);
        let peak = StagePeak::start(self.mem);
        let ctx = self.ctx.with_config(cfg);
        let out = ctx.optimize_reusing(self.layout, &self.candidates[ci], self.scratch);
        peak.finish(&mut s, &mut self.peak_kb);
        s.set("aborted", if out.aborted_at.is_some() { 1.0 } else { 0.0 });
        (out, s.elapsed())
    }

    fn done(&self, ci: usize, out: IltOutcome, rung: Rung, time: Duration) -> LadderOutcome {
        LadderOutcome {
            candidate: ci,
            outcome: out,
            attempts: self.attempts,
            rung,
            optimize_time: time,
            peak_kb: self.peak_kb,
        }
    }
}

/// Per-stage peak-heap attribution: resets the counting allocator's
/// high-water mark at stage start and stamps the stage's own peak onto its
/// span at the end. Active only when the binary installed
/// `ldmo_obs::alloc::CountingAlloc` *and* the collector is on — otherwise
/// every call is a no-op, keeping unprofiled runs free.
pub(crate) struct StagePeak {
    on: bool,
}

impl StagePeak {
    pub(crate) fn start(on: bool) -> StagePeak {
        if on {
            ldmo_obs::alloc::reset_peak();
        }
        StagePeak { on }
    }

    /// Stamps `peak_kb` on the stage span and folds it into the run-level
    /// maximum.
    pub(crate) fn finish(self, span: &mut ldmo_obs::Span, run_peak_kb: &mut f64) {
        if self.on {
            let kb = ldmo_obs::alloc::peak_bytes() as f64 / 1024.0;
            span.set("peak_kb", kb);
            *run_peak_kb = run_peak_kb.max(kb);
        }
    }
}
