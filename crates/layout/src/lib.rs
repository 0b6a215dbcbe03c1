#![warn(missing_docs)]
//! # ldmo-layout — layouts, synthetic generation, DRC, pattern classification
//!
//! The paper evaluates on 8000 manually generated contact layouts
//! "resembling the NanGate 45 nm library", rule-checked with a commercial
//! DRC tool. This crate supplies the equivalents:
//!
//! - [`Layout`] — a window plus a set of rectangular contact patterns, all
//!   in nm, with rasterization to target/decomposition images;
//! - [`generate::LayoutGenerator`] — a seeded synthetic generator producing
//!   cell-like contact arrangements with a controlled spacing distribution;
//! - [`cells`] — fixed contact templates named after the standard cells the
//!   paper shows in Fig. 7 (`AOI211_X1`, `NAND3_X2`, `BUF_X1`, …);
//! - [`drc`] — the design-rule checker standing in for Calibre;
//! - [`classify`] — the paper's Eq. 6 pattern classification into separated
//!   (`SP`), violated (`VP`) and normal (`NP`) patterns with
//!   `nmin = 80 nm`, `nmax = 98 nm`.
//!
//! ```
//! use ldmo_layout::{Layout, classify::{classify_patterns, ClassifyConfig, PatternClass}};
//! use ldmo_geom::Rect;
//!
//! let layout = Layout::new(
//!     Rect::new(0, 0, 448, 448),
//!     vec![
//!         Rect::square(40, 40, 64),
//!         Rect::square(174, 40, 64),  // 70 nm gap to the first: SP
//!         Rect::square(40, 300, 64),  // far from both: NP
//!     ],
//! );
//! let classes = classify_patterns(&layout, &ClassifyConfig::default());
//! assert_eq!(classes[0], PatternClass::Separated);
//! assert_eq!(classes[2], PatternClass::Normal);
//! ```

pub mod cells;
pub mod classify;
pub mod drc;
pub mod generate;
pub mod io;
mod layout;

pub use layout::{Layout, MaskAssignment};

/// Errors produced by layout operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayoutError {
    /// An assignment vector length did not match the pattern count.
    AssignmentLength {
        /// Number of patterns in the layout.
        patterns: usize,
        /// Length of the offending assignment.
        assignment: usize,
    },
    /// The generator could not place the requested patterns within the
    /// retry budget (window too crowded for the spacing rules).
    PlacementFailed {
        /// Patterns successfully placed before giving up.
        placed: usize,
        /// Patterns requested.
        requested: usize,
    },
    /// Rasterizing the window would exceed [`MAX_RASTER_PX`].
    RasterTooLarge {
        /// Raster width in pixels.
        width: usize,
        /// Raster height in pixels.
        height: usize,
    },
}

/// The largest raster, in pixels, that one whole-layout run may allocate
/// (2048²: one `f32` grid is 16 MiB, and an ILT session holds dozens). The
/// largest shipped input, a haloed chip tile, is 494². Larger windows are
/// `ldmo chip`'s job: it tiles them.
pub const MAX_RASTER_PX: usize = 2048 * 2048;

// Bridge into the workspace-wide taxonomy: an oversized layout is an input
// problem (exit 3, serve's 422 `bad-layout`), like a malformed file.
impl From<LayoutError> for ldmo_guard::LdmoError {
    fn from(e: LayoutError) -> Self {
        ldmo_guard::LdmoError::Parse {
            context: "layout".to_owned(),
            detail: e.to_string(),
        }
    }
}

impl std::fmt::Display for LayoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LayoutError::AssignmentLength {
                patterns,
                assignment,
            } => write!(
                f,
                "assignment length {assignment} does not match pattern count {patterns}"
            ),
            LayoutError::PlacementFailed { placed, requested } => write!(
                f,
                "could only place {placed} of {requested} patterns under the spacing rules"
            ),
            LayoutError::RasterTooLarge { width, height } => write!(
                f,
                "a {width}x{height} px raster exceeds the {MAX_RASTER_PX} px cap of one \
                 whole-layout run; tile it with `ldmo chip`"
            ),
        }
    }
}

impl std::error::Error for LayoutError {}
