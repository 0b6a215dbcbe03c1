//! Reusable scratch buffers for the litho/ILT hot path.
//!
//! The forward model and the ILT gradient are evaluated hundreds of times
//! per testcase on grids of a fixed shape. The `*_into` function variants
//! across this crate (and `ldmo-ilt`) write into caller-owned buffers
//! instead of allocating, and the scratch grids they need between stages
//! live here, so a whole ILT session can run allocation-free after its
//! buffers are built once.
//!
//! Ownership convention (DESIGN.md §6): the *caller at the top of the hot
//! loop* owns one [`LithoWorkspace`] (plus its output buffers) and threads
//! `&mut` borrows down; `*_into` functions never allocate and never resize.
//! The pre-existing allocating functions remain as thin wrappers that build
//! a transient workspace, so every caller outside the hot loop keeps its
//! one-line API.
//!
//! Scratch contents are unspecified between calls: every `*_into` function
//! fully overwrites what it reads from its scratch before using it, which
//! is also what makes the buffer-reuse path bit-for-bit identical to the
//! allocating path (a freshly zeroed buffer and a `fill(0.0)`-ed one are
//! indistinguishable).

use ldmo_geom::Grid;

/// Scratch grids for separable convolution ([`crate::convolve_separable_into`])
/// and kernel evaluation ([`crate::CoherentKernel::field_into`]).
#[derive(Debug, Clone)]
pub struct ConvScratch {
    /// Intermediate between the two passes of a separable convolution
    /// (transposed on the SIMD backends; its length is `width · height`
    /// either way).
    pub tmp: Grid,
    /// Per-component separable result, accumulated into a kernel's field.
    pub part: Grid,
    /// Zero-padded source rows the passes read their taps from. Sized for
    /// the grid up front, which covers the bank's profiles on every
    /// backend, so no pass allocates at any grid size.
    pub pad: Vec<f32>,
}

impl ConvScratch {
    /// Allocates scratch for `width × height` grids.
    pub fn new(width: usize, height: usize) -> Self {
        ConvScratch {
            tmp: Grid::zeros(width, height),
            part: Grid::zeros(width, height),
            pad: vec![0.0; crate::conv::strip_pad_len(width, height)],
        }
    }

    /// `(width, height)` the scratch was allocated for.
    pub fn shape(&self) -> (usize, usize) {
        self.tmp.shape()
    }
}

/// Scratch grids for the ILT L2 gradient (`ldmo-ilt::l2_gradient_multi_into`).
///
/// Separate from [`ConvScratch`] so a gradient routine can hold `&mut`
/// borrows of both halves of a [`LithoWorkspace`] at once (the
/// back-projection reads `weighted` while writing `back` through the
/// convolution scratch).
#[derive(Debug, Clone)]
pub struct GradScratch {
    /// `∂L/∂T`, gated by the min branch — shared across masks.
    pub dl_dt: Grid,
    /// `∂L/∂I_i` for the mask currently being differentiated.
    pub g_int: Grid,
    /// `g_int ⊙ field_k`, the back-projection input.
    pub weighted: Grid,
    /// Back-projection output before weight accumulation.
    pub back: Grid,
}

impl GradScratch {
    /// Allocates scratch for `width × height` grids.
    pub fn new(width: usize, height: usize) -> Self {
        GradScratch {
            dl_dt: Grid::zeros(width, height),
            g_int: Grid::zeros(width, height),
            weighted: Grid::zeros(width, height),
            back: Grid::zeros(width, height),
        }
    }
}

/// All intermediate grids one litho/ILT evaluation needs, allocated once.
#[derive(Debug, Clone)]
pub struct LithoWorkspace {
    /// Convolution/kernel scratch.
    pub conv: ConvScratch,
    /// Gradient scratch.
    pub grad: GradScratch,
}

impl LithoWorkspace {
    /// Allocates a workspace for `width × height` grids.
    pub fn new(width: usize, height: usize) -> Self {
        LithoWorkspace {
            conv: ConvScratch::new(width, height),
            grad: GradScratch::new(width, height),
        }
    }

    /// `(width, height)` the workspace was allocated for.
    pub fn shape(&self) -> (usize, usize) {
        self.conv.shape()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_allocates_requested_shape() {
        let ws = LithoWorkspace::new(7, 3);
        assert_eq!(ws.shape(), (7, 3));
        assert_eq!(ws.conv.tmp.shape(), (7, 3));
        assert_eq!(ws.grad.back.shape(), (7, 3));
    }
}
