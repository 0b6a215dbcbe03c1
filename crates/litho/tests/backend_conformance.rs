//! Differential conformance suite for [`ldmo_litho::backend::registry`]
//! (DESIGN.md §13): every registered backend is run against the scalar
//! reference on structured fixtures (impulse, straight edge, dense
//! contacts) and proptest-random grids, and must agree within its declared
//! [`LithoBackend::max_ulps`] — 0 for every in-tree backend, so the
//! assertions below are bit-for-bit. Property tests (linearity,
//! translation equivariance, kernel symmetry) then pin the *analytic*
//! contract of the separable pass itself, on every backend.

use ldmo_geom::{Grid, Rect};
use ldmo_litho::backend::{self, registry, BackendKind, LithoBackend};
use ldmo_litho::{simulate_print, KernelBank, LithoConfig};
use proptest::prelude::*;

/// Small odd profiles exercising symmetric, asymmetric, negative-lobe and
/// single-tap cases (the bank's own profiles are all odd-length), plus the
/// paper bank's first and widest optical profiles. The widest (271 taps)
/// is longer than most grids below, so whole tiles of it fall in the
/// padding.
fn test_profiles() -> Vec<Vec<f32>> {
    let mut profiles = vec![
        vec![1.0],
        vec![0.25, 0.5, 0.25],
        vec![0.1, 0.2, 0.4, 0.2, 0.1],
        vec![0.05, -0.15, 0.3, 0.55, 0.2, -0.1, 0.05],
    ];
    let bank = KernelBank::paper_bank(&LithoConfig::default());
    let bank_profiles: Vec<&[f32]> = bank
        .kernels()
        .iter()
        .flat_map(|k| k.components().map(|(_, p)| p))
        .collect();
    let widest = bank_profiles
        .iter()
        .max_by_key(|p| p.len())
        .expect("bank kernels have components");
    assert_eq!(widest.len(), 271, "the bank's widest profile");
    profiles.push(bank_profiles[0].to_vec());
    profiles.push(widest.to_vec());
    profiles
}

fn impulse(w: usize, h: usize) -> Grid {
    let mut g = Grid::zeros(w, h);
    g.set(w / 2, h / 2, 1.0);
    g
}

fn straight_edge(w: usize, h: usize) -> Grid {
    let mut g = Grid::zeros(w, h);
    let half = w.div_ceil(2);
    let s = g.as_mut_slice();
    for y in 0..h {
        for x in 0..half {
            s[y * w + x] = 1.0;
        }
    }
    g
}

fn dense_contacts(w: usize, h: usize) -> Grid {
    let mut g = Grid::zeros(w, h);
    let mut y = 1i32;
    while (y as usize) + 2 < h {
        let mut x = 1i32;
        while (x as usize) + 2 < w {
            g.fill_rect(&Rect::new(x, y, x + 2, y + 2), 1.0);
            x += 5;
        }
        y += 5;
    }
    g
}

/// Bands of `+0.0` and `−0.0` (rows and columns) over a field of nonzero
/// values: outputs whose every tap reads a signed zero must still match
/// the reference, sign of zero included.
fn signed_zero_bands(w: usize, h: usize) -> Grid {
    let mut g = Grid::zeros(w, h);
    let s = g.as_mut_slice();
    for y in 0..h {
        for x in 0..w {
            s[y * w + x] = match (x % 23, y % 17) {
                (0..=6, _) => -0.0,
                (_, 0..=4) => 0.0,
                (_, 5..=8) => -0.0,
                _ => ((x * 7 + y * 3) % 11) as f32 * 0.125 - 0.5,
            };
        }
    }
    g
}

/// One separable pass on `b`, through dirty buffers: nothing left in
/// `tmp`, `pad` or `out` may reach the result.
fn run_backend(b: &dyn LithoBackend, input: &Grid, profile: &[f32]) -> Grid {
    let (w, h) = input.shape();
    let mut tmp = Grid::filled(w, h, f32::NAN);
    let mut pad = vec![f32::NAN; 37];
    let mut out = Grid::filled(w, h, f32::NAN);
    b.convolve_separable_into(input, profile, &mut tmp, &mut pad, &mut out);
    out
}

/// Monotonic integer key: adjacent representable floats differ by 1.
/// `-0.0` and `+0.0` share key 0.
fn ulp_key(x: f32) -> i64 {
    let b = i64::from(x.to_bits() as i32);
    if b < 0 {
        i64::from(i32::MIN) - b
    } else {
        b
    }
}

fn ulp_distance(a: f32, b: f32) -> u64 {
    if a.is_nan() || b.is_nan() {
        return u64::MAX;
    }
    (ulp_key(a) - ulp_key(b)).unsigned_abs()
}

/// Runs `input ⊗ profile` on every registered backend and asserts each
/// agrees with the scalar reference within its declared ULP budget.
fn assert_conforms(input: &Grid, profile: &[f32], ctx: &str) {
    let all = registry();
    let reference = run_backend(all[0], input, profile);
    assert_eq!(all[0].name(), "scalar", "registry must lead with scalar");
    for backend in &all[1..] {
        let got = run_backend(*backend, input, profile);
        for (i, (g, r)) in got.as_slice().iter().zip(reference.as_slice()).enumerate() {
            let ulps = ulp_distance(*g, *r);
            assert!(
                ulps <= u64::from(backend.max_ulps()),
                "{ctx}: backend '{}' diverges from scalar at index {i}: \
                 {g:e} vs {r:e} ({ulps} ulps, budget {})",
                backend.name(),
                backend.max_ulps(),
            );
        }
    }
}

/// Grid shapes covering even, odd, mixed-parity, non-square and degenerate
/// 1×N / N×1 grids; the clip size (224²) and tall and wide grids with the
/// bank's profiles; and sizes that leave remainders at every blocking
/// level: the scalar passes' 32-wide tiles, the SIMD passes' 8-output
/// tiles with single-output tails, and partial 16-, 8- and 4-row strips
/// (101 = 3·32 + 5 = 12·8 + 5, 37 = 2·16 + 5).
const SHAPES: [(usize, usize); 13] = [
    (64, 64),
    (33, 47),
    (31, 31),
    (40, 9),
    (1, 64),
    (64, 1),
    (1, 1),
    (3, 3),
    (224, 224),
    (97, 161),
    (161, 97),
    (101, 37),
    (37, 101),
];

#[test]
fn impulse_conforms_on_all_backends() {
    for &(w, h) in &SHAPES {
        for profile in test_profiles() {
            assert_conforms(&impulse(w, h), &profile, &format!("impulse {w}x{h}"));
        }
    }
}

#[test]
fn straight_edge_conforms_on_all_backends() {
    for &(w, h) in &SHAPES {
        for profile in test_profiles() {
            assert_conforms(
                &straight_edge(w, h),
                &profile,
                &format!("straight edge {w}x{h}"),
            );
        }
    }
}

#[test]
fn signed_zero_bands_conform_on_all_backends() {
    for &(w, h) in &SHAPES {
        for profile in test_profiles() {
            assert_conforms(
                &signed_zero_bands(w, h),
                &profile,
                &format!("signed-zero bands {w}x{h}"),
            );
        }
    }
}

#[test]
fn dense_contacts_conform_on_all_backends() {
    for &(w, h) in &[(64usize, 64usize), (33, 47), (96, 40)] {
        for profile in test_profiles() {
            assert_conforms(
                &dense_contacts(w, h),
                &profile,
                &format!("dense contacts {w}x{h}"),
            );
        }
    }
}

#[test]
fn full_print_is_bit_identical_across_backends() {
    // end-to-end: the entire forward model (kernel bank + resist), not
    // just one pass, agrees bitwise whichever backend runs it. The
    // selection is process-global; flipping it cannot disturb the other
    // tests here, because every backend computes the same bits.
    let cfg = LithoConfig::default();
    let bank = KernelBank::paper_bank(&cfg);
    let prev = backend::backend_kind();
    for mask in [
        dense_contacts(96, 96),
        impulse(96, 96),
        straight_edge(96, 96),
    ] {
        backend::set_backend(BackendKind::Scalar);
        let reference = simulate_print(&mask, &bank, &cfg);
        backend::set_backend(BackendKind::Simd);
        let simd = simulate_print(&mask, &bank, &cfg);
        assert_eq!(
            simd.as_slice(),
            reference.as_slice(),
            "simd print diverged from scalar print"
        );
    }
    backend::set_backend(prev);
}

// ---------------------------------------------------------------------------
// Analytic properties, asserted per backend.
// ---------------------------------------------------------------------------

#[test]
fn linearity_holds_on_all_backends() {
    // conv(a·x + b·y) == a·conv(x) + b·conv(y), up to f32 rounding
    let (w, h) = (48usize, 37usize);
    let x = dense_contacts(w, h);
    let y = straight_edge(w, h);
    let (a, b) = (0.75f32, -0.5f32);
    let combined = x
        .zip_map(&y, |xv, yv| a * xv + b * yv)
        .expect("shapes match");
    for profile in test_profiles() {
        for backend in registry() {
            let conv_combined = run_backend(*backend, &combined, &profile);
            let conv_x = run_backend(*backend, &x, &profile);
            let conv_y = run_backend(*backend, &y, &profile);
            for i in 0..w * h {
                let want = a * conv_x.as_slice()[i] + b * conv_y.as_slice()[i];
                let got = conv_combined.as_slice()[i];
                assert!(
                    (got - want).abs() < 1e-4,
                    "backend '{}' not linear at {i}: {got} vs {want}",
                    backend.name()
                );
            }
        }
    }
}

#[test]
fn translation_equivariance_holds_on_all_backends() {
    // shifting an interior impulse shifts the response bit-exactly, as
    // long as neither support touches a boundary
    let (w, h) = (64usize, 64usize);
    let (dx, dy) = (3usize, 2usize);
    let mut base = Grid::zeros(w, h);
    base.set(30, 30, 1.0);
    let mut shifted = Grid::zeros(w, h);
    shifted.set(30 + dx, 30 + dy, 1.0);
    for profile in test_profiles() {
        let r = profile.len() / 2;
        let margin = r + 1;
        // the bank's widest profile exceeds the grid: nothing to check
        // there (the small profiles cover the property)
        let y_end = (h - dy).saturating_sub(margin);
        let x_end = (w - dx).saturating_sub(margin);
        for backend in registry() {
            let out_base = run_backend(*backend, &base, &profile);
            let out_shifted = run_backend(*backend, &shifted, &profile);
            for y in margin..y_end {
                for x in margin..x_end {
                    assert_eq!(
                        out_shifted.get(x + dx, y + dy).to_bits(),
                        out_base.get(x, y).to_bits(),
                        "backend '{}' not translation-equivariant at ({x},{y})",
                        backend.name()
                    );
                }
            }
        }
    }
}

#[test]
fn symmetric_kernel_preserves_symmetry_on_all_backends() {
    // a symmetric profile applied to a centered impulse yields a response
    // symmetric about the center, bit-exactly, on every backend
    let side = 33usize; // odd: exact center pixel
    let c = side / 2;
    let input = impulse(side, side);
    let profile = [0.05f32, 0.2, 0.5, 0.2, 0.05];
    let r = profile.len() / 2;
    for backend in registry() {
        let out = run_backend(*backend, &input, &profile);
        for dy in 0..=r {
            for dx in 0..=r {
                let a = out.get(c + dx, c + dy);
                for (x, y) in [(c - dx, c + dy), (c + dx, c - dy), (c - dx, c - dy)] {
                    assert_eq!(
                        a.to_bits(),
                        out.get(x, y).to_bits(),
                        "backend '{}' broke symmetry at offset ({dx},{dy})",
                        backend.name()
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_grids_conform_on_all_backends(
        w in 1usize..100,
        h in 1usize..100,
        vals in proptest::collection::vec(-1.0f32..1.0, 10_000),
        taps in proptest::collection::vec(-0.5f32..0.5, 81),
        half_width in 0usize..40,
    ) {
        let grid = Grid::from_vec(w, h, vals[..w * h].to_vec());
        let profile = &taps[..2 * half_width + 1];
        assert_conforms(&grid, profile, &format!("proptest {w}x{h}"));
    }
}
