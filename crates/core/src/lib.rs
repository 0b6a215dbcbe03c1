#![warn(missing_docs)]
//! # ldmo-core — the DAC 2020 LDMO framework
//!
//! The paper's contribution: a deep-learning-driven flow that couples
//! layout decomposition with mask optimization (Fig. 2).
//!
//! ```text
//!  input layout ──► decomposition generation (MST + n-wise)
//!                    │ candidates
//!                    ▼
//!                  printability prediction (CNN) ──► best candidate
//!                    ▲                                │
//!                    │ reselect on print violation    ▼
//!                    └───────────────────── ILT optimization ──► masks
//! ```
//!
//! Modules, mapped to the paper:
//!
//! - [`score`] — Eq. 9 printability score (`α=1, β=3500, γ=8000`) and
//!   z-score label normalization;
//! - [`predictor`] — the CNN printability predictor (Section III-B);
//! - [`sampling`] — layout sampling via SIFT + k-medoids (Section IV-A)
//!   and decomposition sampling via MST + 3-wise arrays (Section IV-B),
//!   plus the random-sampling ablation of Fig. 8;
//! - [`dataset`] — training-set construction with ILT labeling (Fig. 5);
//! - [`trainer`] — Adam + MAE training loop (Section IV-C);
//! - [`ladder`] — the rank → attempt → complete-best → retry → drawn
//!   selection ladder that the flow, `ldmo-chip` and `ldmo-serve` share;
//! - [`flow`] — the end-to-end [`flow::LdmoFlow`] with selection-strategy
//!   ablations and the violation-triggered reselection loop;
//! - [`baselines`] — the comparison flows of Table I: the ICCAD'17 unified
//!   framework with greedy pruning, and two two-stage
//!   decompose-then-optimize flows.
//!
//! ```no_run
//! use ldmo_layout::cells;
//! use ldmo_core::flow::{FlowConfig, LdmoFlow, SelectionStrategy};
//!
//! let layout = cells::cell("BUF_X1").expect("known cell");
//! let mut flow = LdmoFlow::new(FlowConfig::default(), SelectionStrategy::LithoProxy);
//! let result = flow.run(&layout);
//! println!("EPE violations: {}", result.outcome.epe_violations());
//! ```

pub mod baselines;
pub mod dataset;
pub mod flow;
pub mod ladder;
pub mod predictor;
pub mod sampling;
pub mod score;
pub mod trainer;
