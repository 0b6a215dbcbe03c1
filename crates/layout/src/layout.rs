//! The [`Layout`] type: a window of contact patterns plus rasterization.

use crate::LayoutError;
use ldmo_geom::{Grid, Rect};
use serde::{Deserialize, Serialize};

/// A double-patterning mask assignment: `assignment[i]` is `0` or `1`, the
/// mask index pattern `i` is placed on.
pub type MaskAssignment = Vec<u8>;

/// A contact layout: a rectangular window containing rectangular patterns,
/// all coordinates in nm.
///
/// ```
/// use ldmo_geom::Rect;
/// use ldmo_layout::Layout;
///
/// let l = Layout::new(
///     Rect::new(0, 0, 448, 448),
///     vec![Rect::square(50, 50, 64), Rect::square(250, 250, 64)],
/// );
/// assert_eq!(l.len(), 2);
/// let grid = l.rasterize_target(2.0);
/// assert_eq!(grid.shape(), (224, 224));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Layout {
    window: Rect,
    patterns: Vec<Rect>,
}

impl Layout {
    /// Creates a layout from a window and its patterns.
    pub fn new(window: Rect, patterns: Vec<Rect>) -> Self {
        Layout { window, patterns }
    }

    /// The layout window.
    pub fn window(&self) -> Rect {
        self.window
    }

    /// The patterns.
    pub fn patterns(&self) -> &[Rect] {
        &self.patterns
    }

    /// Number of patterns.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// Whether the layout holds no patterns.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Grid dimensions when rasterized at `nm_per_px`.
    pub fn grid_shape(&self, nm_per_px: f64) -> (usize, usize) {
        let w = (f64::from(self.window.width()) / nm_per_px).round() as usize;
        let h = (f64::from(self.window.height()) / nm_per_px).round() as usize;
        (w.max(1), h.max(1))
    }

    /// Checks that rasterizing at `nm_per_px` stays within
    /// [`crate::MAX_RASTER_PX`] pixels, before any raster is allocated.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::RasterTooLarge`] when the raster would exceed
    /// the cap.
    pub fn check_raster_extent(&self, nm_per_px: f64) -> Result<(), LayoutError> {
        let (width, height) = self.grid_shape(nm_per_px);
        if width.saturating_mul(height) > crate::MAX_RASTER_PX {
            return Err(LayoutError::RasterTooLarge { width, height });
        }
        Ok(())
    }

    /// Converts a pattern rect (nm, window coordinates) to pixel coordinates.
    fn to_px(&self, r: &Rect, nm_per_px: f64) -> Rect {
        let sx = |v: i32| ((f64::from(v - self.window.x0) / nm_per_px).round()) as i32;
        let sy = |v: i32| ((f64::from(v - self.window.y0) / nm_per_px).round()) as i32;
        Rect {
            x0: sx(r.x0),
            y0: sy(r.y0),
            x1: sx(r.x1).max(sx(r.x0) + 1),
            y1: sy(r.y1).max(sy(r.y0) + 1),
        }
    }

    /// Patterns converted to pixel coordinates at `nm_per_px`.
    pub fn patterns_px(&self, nm_per_px: f64) -> Vec<Rect> {
        self.patterns
            .iter()
            .map(|r| self.to_px(r, nm_per_px))
            .collect()
    }

    /// Rasterizes the target image `T'`: 1.0 inside any pattern, 0.0 outside.
    pub fn rasterize_target(&self, nm_per_px: f64) -> Grid {
        let (w, h) = self.grid_shape(nm_per_px);
        let mut g = Grid::zeros(w, h);
        for r in &self.patterns {
            g.fill_rect(&self.to_px(r, nm_per_px), 1.0);
        }
        g
    }

    /// Rasterizes one mask of a decomposition: patterns with
    /// `assignment[i] == mask` are drawn at 1.0.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::AssignmentLength`] if `assignment.len()` does
    /// not match the pattern count.
    pub fn rasterize_mask(
        &self,
        assignment: &[u8],
        mask: u8,
        nm_per_px: f64,
    ) -> Result<Grid, LayoutError> {
        self.check_assignment(assignment)?;
        let (w, h) = self.grid_shape(nm_per_px);
        let mut g = Grid::zeros(w, h);
        for (r, &m) in self.patterns.iter().zip(assignment) {
            if m == mask {
                g.fill_rect(&self.to_px(r, nm_per_px), 1.0);
            }
        }
        Ok(g)
    }

    /// Rasterizes one mask of a decomposition with every pattern expanded by
    /// `expand_nm` on all sides. Used to build the mask-rule-check (MRC)
    /// corridor that bounds how far ILT may grow a mask feature beyond its
    /// drawn shape.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::AssignmentLength`] if `assignment.len()` does
    /// not match the pattern count.
    pub fn rasterize_mask_expanded(
        &self,
        assignment: &[u8],
        mask: u8,
        nm_per_px: f64,
        expand_nm: i32,
    ) -> Result<Grid, LayoutError> {
        self.check_assignment(assignment)?;
        let (w, h) = self.grid_shape(nm_per_px);
        let mut g = Grid::zeros(w, h);
        for (r, &m) in self.patterns.iter().zip(assignment) {
            if m == mask {
                g.fill_rect(&self.to_px(&r.expanded(expand_nm), nm_per_px), 1.0);
            }
        }
        Ok(g)
    }

    /// Rasterizes the paper's grayscale *decomposition image* — the CNN
    /// input: mask-0 patterns at level 1.0, mask-1 patterns at level 0.5
    /// (Section III-A: "a gray-scale image with different grayscale levels
    /// to represent patterns distributed on different masks").
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::AssignmentLength`] if `assignment.len()` does
    /// not match the pattern count.
    pub fn decomposition_image(
        &self,
        assignment: &[u8],
        nm_per_px: f64,
    ) -> Result<Grid, LayoutError> {
        self.check_assignment(assignment)?;
        let (w, h) = self.grid_shape(nm_per_px);
        let mut g = Grid::zeros(w, h);
        for (r, &m) in self.patterns.iter().zip(assignment) {
            let level = if m == 0 { 1.0 } else { 0.5 };
            g.fill_rect(&self.to_px(r, nm_per_px), level);
        }
        Ok(g)
    }

    /// Pairwise edge-to-edge gaps: `gaps[i][j]` in nm (`f64::INFINITY` on
    /// the diagonal so "nearest neighbour" scans need no special casing).
    pub fn gap_matrix(&self) -> Vec<Vec<f64>> {
        let n = self.patterns.len();
        let mut m = vec![vec![f64::INFINITY; n]; n];
        // symmetric fill: both `m[i][j]` and `m[j][i]` are written, so an
        // iterator over rows cannot express this
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            for j in (i + 1)..n {
                let g = self.patterns[i].gap_to(&self.patterns[j]);
                m[i][j] = g;
                m[j][i] = g;
            }
        }
        m
    }

    /// Extracts the sub-layout covered by `window` (nm, chip coordinates),
    /// translated so the returned layout's window starts at the origin.
    ///
    /// Patterns intersecting `window` are kept whole (they may overhang the
    /// window edge); everything else is dropped. The translation matters:
    /// downstream consumers — rasterization via [`Layout::to_px`] is
    /// origin-relative, but EPE measurement samples at absolute pattern
    /// coordinates — agree only when the window origin is `(0, 0)`.
    pub fn extract_window(&self, window: Rect) -> Layout {
        let patterns = self
            .patterns
            .iter()
            .filter(|r| r.intersects(&window))
            .map(|r| r.translated(-window.x0, -window.y0))
            .collect();
        Layout::new(window.translated(-window.x0, -window.y0), patterns)
    }

    fn check_assignment(&self, assignment: &[u8]) -> Result<(), LayoutError> {
        if assignment.len() != self.patterns.len() {
            return Err(LayoutError::AssignmentLength {
                patterns: self.patterns.len(),
                assignment: assignment.len(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Layout {
        Layout::new(
            Rect::new(0, 0, 448, 448),
            vec![
                Rect::square(40, 40, 64),
                Rect::square(200, 40, 64),
                Rect::square(40, 300, 64),
            ],
        )
    }

    #[test]
    fn raster_shape_follows_scale() {
        let l = sample();
        assert_eq!(l.grid_shape(2.0), (224, 224));
        assert_eq!(l.grid_shape(1.0), (448, 448));
        assert_eq!(l.grid_shape(4.0), (112, 112));
    }

    #[test]
    fn target_raster_area_matches() {
        let l = sample();
        let g = l.rasterize_target(1.0);
        assert_eq!(g.sum() as i64, 3 * 64 * 64);
        let g2 = l.rasterize_target(2.0);
        assert_eq!(g2.sum() as i64, 3 * 32 * 32);
    }

    #[test]
    fn mask_raster_respects_assignment() {
        let l = sample();
        let m0 = l.rasterize_mask(&[0, 1, 0], 0, 1.0).expect("valid");
        let m1 = l.rasterize_mask(&[0, 1, 0], 1, 1.0).expect("valid");
        assert_eq!(m0.sum() as i64, 2 * 64 * 64);
        assert_eq!(m1.sum() as i64, 64 * 64);
        // masks partition the target
        let target = l.rasterize_target(1.0);
        let both = m0.zip_map(&m1, |a, b| a + b).expect("same shape");
        assert_eq!(both, target);
    }

    #[test]
    fn decomposition_image_levels() {
        let l = sample();
        let img = l.decomposition_image(&[0, 1, 0], 1.0).expect("valid");
        assert_eq!(img.get(50, 50), 1.0); // pattern 0 on mask 0
        assert_eq!(img.get(210, 50), 0.5); // pattern 1 on mask 1
        assert_eq!(img.get(0, 0), 0.0);
    }

    #[test]
    fn wrong_assignment_length_rejected() {
        let l = sample();
        assert!(matches!(
            l.rasterize_mask(&[0, 1], 0, 1.0),
            Err(LayoutError::AssignmentLength { .. })
        ));
        assert!(l.decomposition_image(&[0, 1], 1.0).is_err());
    }

    #[test]
    fn gap_matrix_symmetric_with_inf_diagonal() {
        let l = sample();
        let m = l.gap_matrix();
        assert_eq!(m.len(), 3);
        assert!(m[0][0].is_infinite());
        assert_eq!(m[0][1], m[1][0]);
        // patterns 0 and 1: horizontal gap 200 - (40+64) = 96
        assert!((m[0][1] - 96.0).abs() < 1e-9);
    }

    #[test]
    fn window_offset_respected_in_raster() {
        let l = Layout::new(
            Rect::new(100, 100, 228, 228),
            vec![Rect::square(100, 100, 64)],
        );
        let g = l.rasterize_target(1.0);
        assert_eq!(g.shape(), (128, 128));
        assert_eq!(g.get(0, 0), 1.0); // pattern at window origin
        assert_eq!(g.get(70, 70), 0.0);
    }

    #[test]
    fn extract_window_translates_to_origin() {
        let l = sample();
        let sub = l.extract_window(Rect::new(150, 0, 448, 200));
        // only pattern 1 (at 200,40) intersects; translated by (-150, 0)
        assert_eq!(sub.window(), Rect::new(0, 0, 298, 200));
        assert_eq!(sub.patterns(), &[Rect::square(50, 40, 64)]);
    }

    #[test]
    fn extract_window_keeps_overhanging_patterns_whole() {
        let l = sample();
        // window edge cuts through pattern 1 (x ∈ [200, 264))
        let sub = l.extract_window(Rect::new(0, 0, 230, 448));
        assert_eq!(sub.len(), 3);
        // pattern 1 kept whole, overhanging the window
        assert!(sub.patterns().contains(&Rect::square(200, 40, 64)));
    }

    #[test]
    fn extract_full_window_is_identity_for_origin_layouts() {
        let l = sample();
        let sub = l.extract_window(l.window());
        assert_eq!(sub, l);
    }

    #[test]
    fn tiny_pattern_still_rasterizes_at_least_one_pixel() {
        let l = Layout::new(Rect::new(0, 0, 100, 100), vec![Rect::new(10, 10, 11, 11)]);
        let g = l.rasterize_target(4.0); // 1 nm pattern at 4 nm/px
        assert!(g.sum() >= 1.0);
    }
}
