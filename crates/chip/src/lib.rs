#![warn(missing_docs)]
//! # ldmo-chip — the full-chip tiled optimization pipeline
//!
//! The paper optimizes one contact-cell window at a time; this crate
//! scales that flow to arbitrarily large layouts by tiling (DESIGN.md
//! §15). A chip window is cut into a grid of *core* rectangles that
//! partition it exactly; each core is grown by a *halo* sized from the
//! optical interaction radius of the kernel bank — beyond that radius the
//! kernels are identically zero, so patterns outside a tile's haloed
//! window contribute nothing to the print inside its core. Each tile runs
//! the shared selection ladder (`ldmo_core::ladder`: proxy ranking, ILT
//! attempts, completion, drawn-mask fallback) independently on the
//! `ldmo-par` pool, one recycled scratch per worker, and the per-tile
//! masks are stitched back into one
//! chip mask under a deterministic ownership rule: every chip pixel is
//! owned by exactly one tile (the tile whose core contains it — cores
//! partition the chip, so the lowest-index tile tiebreak never actually
//! fires), and only the owner writes it. The result is bit-identical for
//! any thread count and any tile completion order.
//!
//! Per-tile failures degrade, never abort: a tile that blows its
//! [`ldmo_guard::Budget`] (or loses its worker to a panic) falls back to
//! its unoptimized drawn-decomposition mask and is reported as degraded in
//! the [`ChipOutcome`]; the rest of the chip is unaffected.

mod runner;
mod stitch;
mod tiles;

pub use runner::{run_chip, ChipConfig, ChipOutcome, ChipTiming, TileSummary};
pub use stitch::stitch_masks;
pub use tiles::{halo_nm, snap_up, Tile, TileGrid};
