//! Property tests for the lane-batched eq. (1) kernel (`Eq1Kernel`):
//! the batch results must track the scalar reference (`cost_at`) within the
//! documented accuracy contract, agree exactly on feasibility (die
//! counts are integer-exact), and stay bit-identical across thread
//! counts. Dense
//! surfaces price whole λ-rows per block; they must equal one flat
//! kernel call over the same cells whatever the block shape.
//!
//! The workspace builds offline with no external crates, so the
//! properties are checked over deterministic pseudo-random samples from
//! a tiny SplitMix64 generator instead of proptest strategies.

use std::sync::{Mutex, MutexGuard};

use maly_cost_model::surface::{CostSurface, Eq1Kernel, SurfaceParameters, EQ1_CELLS};
use maly_par::Executor;
use maly_units::{Microns, TransistorCount};

/// Serializes the tests in this binary: one of them asserts deltas of
/// the process-global `eq1.cells` counter.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Deterministic uniform sampler (SplitMix64).
struct Sampler(u64);

impl Sampler {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + (hi - lo) * u
    }

    /// Log-uniform in [lo, hi].
    fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        (self.uniform(lo.ln(), hi.ln())).exp()
    }
}

/// The lane-kernel accuracy contract vs the scalar path: the lane `exp`
/// is within a few ulp, and `exp` amplifies its argument's rounding by
/// `|ln Y|`, so the bound is relative error ≈ (1 + |ln Y|) · 1e-14. `Y`
/// is not observable from the public API, but `cost ≈ base / Y` with
/// `|ln base| ≲ 50` over the sampled windows, so
/// `|ln Y| ≤ |ln cost| + 50` gives a sound per-point bound. A die-count
/// or exp-argument mismatch overshoots it by orders of magnitude.
fn rel_tol(scalar_cost: f64) -> f64 {
    (51.0 + scalar_cost.abs().max(f64::MIN_POSITIVE).ln().abs()) * 1e-14
}

fn bits(cells: &[Option<f64>]) -> Vec<Option<u64>> {
    cells.iter().map(|c| c.map(f64::to_bits)).collect()
}

/// Prices `points` through one [`Eq1Kernel`] whose axes are the points'
/// own λ and `N_tr` values, one cell `(k, k)` per point, and holds each
/// cell to the scalar `cost_at`.
fn assert_matches_scalar(params: &SurfaceParameters, points: &[(Microns, TransistorCount)]) {
    let lambda_axis: Vec<f64> = points.iter().map(|(l, _)| l.value()).collect();
    let n_tr_axis: Vec<f64> = points.iter().map(|(_, n)| n.value()).collect();
    let cells: Vec<(usize, usize)> = (0..points.len()).map(|k| (k, k)).collect();
    let exec = Executor::serial();
    let batched = Eq1Kernel::new(params, &lambda_axis, &n_tr_axis).eval_cells_with(&exec, &cells);
    assert_eq!(batched.len(), points.len());
    for (k, &(lambda, n_tr)) in points.iter().enumerate() {
        let scalar = params.cost_at(lambda, n_tr).ok().map(|d| d.value());
        match (batched[k], scalar) {
            (None, None) => {}
            (Some(b), Some(s)) => {
                let rel = (b - s).abs() / s.abs().max(f64::MIN_POSITIVE);
                assert!(
                    rel <= rel_tol(s),
                    "point {k} (λ={}, N={}): batched {b:e} vs scalar {s:e}, rel {rel:e}",
                    lambda.value(),
                    n_tr.value()
                );
            }
            (b, s) => panic!(
                "feasibility mismatch at point {k} (λ={}, N={}): batched {b:?}, scalar {s:?}",
                lambda.value(),
                n_tr.value()
            ),
        }
    }
}

/// Randomized points over (and beyond) the Fig 8 window — including
/// dies too large to pack, so both sides of the feasibility mask are
/// exercised — at deliberately odd slice lengths (lane width is 4, so
/// remainders of 1–3 hit the scalar tail loop).
#[test]
fn batched_costs_match_scalar_across_randomized_points() {
    let _guard = lock();
    let params = SurfaceParameters::fig8();
    let mut s = Sampler(0xC0FFEE);
    for len in [1usize, 2, 3, 5, 7, 33, 101] {
        let points: Vec<(Microns, TransistorCount)> = (0..len)
            .map(|_| {
                (
                    Microns::clamped(s.uniform(0.3, 2.0)),
                    TransistorCount::clamped(s.log_uniform(1.0e4, 5.0e8)),
                )
            })
            .collect();
        assert_matches_scalar(&params, &points);
    }
}

/// A fine λ scan at a fixed large design walks the eq. (4) die-count
/// staircase: each integer step (and the final fall to infeasible) must
/// land on exactly the same λ in the batched and scalar paths. A
/// one-off die count shows up here as a feasibility or tolerance
/// mismatch at the boundary sample.
#[test]
fn exact_zone_staircase_boundaries_agree_with_scalar() {
    let _guard = lock();
    let params = SurfaceParameters::fig8();
    // 2e7 transistors: feasible at small λ, the die outgrows the wafer
    // as λ rises, so the scan crosses many staircase steps and the
    // feasibility edge itself.
    let n_tr = TransistorCount::clamped(2.0e7);
    let points: Vec<(Microns, TransistorCount)> = (0..801)
        .map(|i| (Microns::clamped(0.3 + 1.2 * i as f64 / 800.0), n_tr))
        .collect();
    assert_matches_scalar(&params, &points);
    // The scan must actually cross the edge, or the test is vacuous.
    let mask: Vec<bool> = points
        .iter()
        .map(|&(l, n)| params.cost_at(l, n).is_ok())
        .collect();
    assert!(mask[0], "smallest λ should be feasible");
    assert!(!mask[800], "largest λ should be infeasible");
}

/// Dense surfaces with odd step counts (lane remainders on every row)
/// agree with the scalar reference cell by cell, both as a dense
/// surface and as the same nodes dispatched one cell per point.
#[test]
fn odd_sized_surfaces_match_scalar_reference() {
    let _guard = lock();
    let params = SurfaceParameters::fig8();
    for (li, ni) in [(7usize, 13usize), (5, 9), (3, 2)] {
        let surface = CostSurface::compute(&params, (0.4, 1.5, li), (2.0e4, 4.0e6, ni));
        for (i, row) in surface.values().iter().enumerate() {
            for (j, &cell) in row.iter().enumerate() {
                let lambda = Microns::clamped(surface.lambda_axis()[i]);
                let n_tr = TransistorCount::clamped(surface.n_tr_axis()[j]);
                let scalar = params.cost_at(lambda, n_tr).ok().map(|d| d.value());
                match (cell, scalar) {
                    (None, None) => {}
                    (Some(b), Some(s)) => {
                        let rel = (b - s).abs() / s.abs().max(f64::MIN_POSITIVE);
                        assert!(
                            rel <= rel_tol(s),
                            "{li}x{ni} cell ({i},{j}): surface {b:e} vs scalar {s:e}, rel {rel:e}"
                        );
                    }
                    (b, s) => panic!(
                        "{li}x{ni} feasibility mismatch at ({i},{j}): surface {b:?}, scalar {s:?}"
                    ),
                }
            }
        }
        let points: Vec<(Microns, TransistorCount)> = surface
            .lambda_axis()
            .iter()
            .flat_map(|&l| {
                surface
                    .n_tr_axis()
                    .iter()
                    .map(move |&n| (Microns::clamped(l), TransistorCount::clamped(n)))
            })
            .collect();
        assert_matches_scalar(&params, &points);
    }
}

/// Determinism golden: the same surface at 1, 2, and 8 threads is
/// bit-identical (not merely close) — the kernel chunks work but never
/// reassociates math across chunk boundaries.
#[test]
fn surface_is_bit_identical_at_1_2_and_8_threads() {
    let _guard = lock();
    let params = SurfaceParameters::fig8();
    let window = ((0.4, 1.5, 56), (2.0e4, 4.0e6, 48));
    let bits = |threads: usize| -> Vec<Option<u64>> {
        CostSurface::compute_with(
            &Executor::with_threads(threads),
            &params,
            window.0,
            window.1,
        )
        .values()
        .iter()
        .flatten()
        .map(|c| c.map(f64::to_bits))
        .collect()
    };
    let serial = bits(1);
    assert_eq!(serial, bits(2), "2-thread surface diverged");
    assert_eq!(serial, bits(8), "8-thread surface diverged");
}

/// Every cell of a dense surface, row-major, as bit patterns.
fn surface_bits(surface: &CostSurface) -> Vec<Option<u64>> {
    surface
        .values()
        .iter()
        .flatten()
        .map(|c| c.map(f64::to_bits))
        .collect()
}

/// Row blocks: a dense surface prices `max(1, 1024 / n_tr_steps)`
/// λ-rows per executor item. Column counts around the block width and
/// λ step counts that leave a ragged last block must give exactly one
/// flat kernel call over the row-major cell list, at 1, 2 and 8
/// threads, and count every cell once.
#[test]
fn row_blocks_match_one_flat_kernel_call() {
    let _guard = lock();
    let params = SurfaceParameters::fig8();
    // (λ steps, N_tr steps): 512, 341 and 21 rows per block with a
    // short last block, then one row per block around the block width.
    for (rows, cols) in [
        (1025usize, 2usize),
        (700, 3),
        (50, 47),
        (3, 1023),
        (3, 1024),
        (3, 1025),
        (3, 2049),
    ] {
        let (lambda_range, n_tr_range) = ((0.35, 1.45, rows), (2.0e4, 4.0e6, cols));
        let serial =
            CostSurface::compute_with(&Executor::serial(), &params, lambda_range, n_tr_range);
        let (lambda_axis, n_tr_axis) = (serial.lambda_axis(), serial.n_tr_axis());
        let cells: Vec<(usize, usize)> = (0..rows)
            .flat_map(|i| (0..cols).map(move |j| (i, j)))
            .collect();
        let expected = bits(
            &Eq1Kernel::new(&params, lambda_axis, n_tr_axis)
                .eval_cells_with(&Executor::serial(), &cells),
        );
        for threads in [1, 2, 8] {
            let exec = Executor::with_threads(threads);
            let cells0 = EQ1_CELLS.value();
            let surface = CostSurface::compute_with(&exec, &params, lambda_range, n_tr_range);
            assert_eq!(
                EQ1_CELLS.value() - cells0,
                (rows * cols) as u64,
                "{rows}x{cols}: eq1.cells must count each cell once"
            );
            assert_eq!(surface.lambda_axis(), lambda_axis);
            assert_eq!(surface.n_tr_axis(), n_tr_axis);
            assert!(surface.values().iter().all(|row| row.len() == cols));
            assert_eq!(
                surface_bits(&surface),
                expected,
                "{rows}x{cols} at {threads} threads"
            );
        }
    }
}

/// A perfbench-sized surface (448 × 384, 224 row blocks) pinned to the
/// FNV-1a digest of its value bits, recorded before dense surfaces
/// were built in row blocks, at 1, 2 and 8 threads.
#[test]
fn large_surface_digest_is_pinned() {
    let _guard = lock();
    let fnv = |hash: u64, word: u64| (hash ^ word).wrapping_mul(0x0100_0000_01b3);
    for threads in [1, 2, 8] {
        let surface = CostSurface::compute_with(
            &Executor::with_threads(threads),
            &SurfaceParameters::fig8(),
            (0.35, 1.45, 448),
            (2.0e4, 4.0e6, 384),
        );
        let digest = surface
            .values()
            .iter()
            .flatten()
            .fold(0xcbf2_9ce4_8422_2325, |h, cell| match cell {
                Some(c) => fnv(fnv(h, 1), c.to_bits()),
                None => fnv(h, 0),
            });
        assert_eq!(digest, 0xb60d_6614_000a_7655, "digest at {threads} threads");
    }
}
