//! Eq. (4): the row-packing dies-per-wafer formula.
//!
//! The paper computes `N_ch` by slicing the wafer into horizontal rows of
//! height `b` (the die height) starting at the bottom edge, and packing
//! each row with as many dies of width `a` as fit inside the circle:
//!
//! ```text
//!           Floor[2·R_w/b] − 1
//!   N_ch  =       Σ            Floor[ (2/a) · min(R_j, R_{j+1}) ]
//!                j=0
//!
//!   R_j = sqrt( R_w² − (j·b − R_w)² )
//! ```
//!
//! `R_j` is the half-width of the wafer at height `j·b` above the bottom;
//! a row confined between heights `j·b` and `(j+1)·b` is limited by the
//! *narrower* of its two boundary chords, hence the `min`. Dies in a row
//! are centered on the vertical diameter.
//!
//! The printed formula's `(2/(a/b))·Min(R_i, R_{i+1})` is a typesetting
//! corruption of `(2/a)·min(...)` — only the latter is dimensionally a
//! count, and only the latter reproduces Table 3 (see DESIGN.md §1).

use crate::{DieDimensions, Wafer};
use maly_units::DieCount;

/// Number of complete dies per wafer according to eq. (4).
///
/// Uses the wafer's *usable* radius, so an edge exclusion (if configured)
/// is honored; the saw street is ignored, matching the paper's idealized
/// geometry. Returns zero when the die does not fit at all.
///
/// # Examples
///
/// ```
/// use maly_units::{Centimeters, SquareCentimeters};
/// use maly_wafer_geom::{maly, DieDimensions, Wafer};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // 1 cm² die on a 6-inch wafer.
/// let n = maly::dies_per_wafer(
///     &Wafer::six_inch(),
///     DieDimensions::square(Centimeters::new(1.0)?),
/// );
/// assert_eq!(n.value(), 154);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn dies_per_wafer(wafer: &Wafer, die: DieDimensions) -> DieCount {
    row_sum_kernel(
        wafer.usable_radius().value(),
        die.width().value(),
        die.height().value(),
    )
}

/// The eq. (4) row sum with the chord recurrence hoisted: row `j`'s
/// upper chord `R_{j+1}` is row `j+1`'s lower chord, so one square root
/// per row suffices instead of two. The carried value is the *same*
/// `sqrt` of the *same* argument the two-per-row loop would compute, so
/// the result is bit-identical to the textbook form.
///
/// The count saturates at `u32::MAX`: row counts are non-negative, so
/// once the running total reaches it the loop stops. With the skip of
/// [`first_nonzero_chord`], a microscopic die costs a few rows rather
/// than billions.
fn row_sum_kernel(r_w: f64, a: f64, b: f64) -> DieCount {
    // For the non-negative (or NaN, or +∞) quotients here, a saturating
    // `as` cast equals `floor` then cast, without a libm call.
    let rows = (2.0 * r_w / b) as u64;
    if rows == 0 {
        return DieCount::new(0);
    }

    let half_width_at = |height: f64| -> f64 {
        let d = height - r_w;
        let sq = r_w * r_w - d * d;
        if sq <= 0.0 {
            0.0
        } else {
            sq.sqrt()
        }
    };

    let first = first_nonzero_chord(r_w, b, rows);
    let mut total: u32 = 0;
    let mut r_lo = half_width_at(first as f64 * b);
    for j in first..rows {
        let r_hi = half_width_at((j + 1) as f64 * b);
        let chord = r_lo.min(r_hi);
        // `as` floors the non-negative quotient and saturates a count
        // beyond `u32::MAX` to it.
        total = total.saturating_add((2.0 * chord / a) as u32);
        if total == u32::MAX {
            break;
        }
        r_lo = r_hi;
    }

    DieCount::new(total)
}

/// The first row index worth summing: every chord `R_k` below it is
/// zero, so every row below it packs no die, and both row sums start
/// there with their result unchanged. `R_k` never shrinks while the
/// height `k·b` stays at or below `R_w`, so a binary search over
/// `0..=c`, `c = min(rows, floor(R_w/b))`, finds the first positive
/// chord; if even `R_c` is zero, every chord up to `c` is, and the sum
/// starts at `c`. For a die of any physical size the answer is 1, found
/// with two comparisons. The search matters when `k·b` stays below the
/// rounding step of `R_w` for billions of rows.
fn first_nonzero_chord(r_w: f64, b: f64, rows: u64) -> u64 {
    // The same `R_w² − d²` the kernels take the square root of.
    let positive = |k: u64| {
        let d = k as f64 * b - r_w;
        r_w * r_w - d * d > 0.0
    };
    let mut hi = ((r_w / b) as u64).min(rows);
    if hi == 0 || !positive(hi) {
        return hi;
    }
    // Invariant: `R_lo` is zero and `R_hi` positive (`R_0` is always 0).
    let mut lo = 0;
    while hi - lo > 1 {
        let mid = if lo == 0 { 1 } else { lo + (hi - lo) / 2 };
        if positive(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// Rows per block of the batched row sum's chord table.
const CHORD_BLOCK: usize = 256;

/// Batched eq. (4): die counts for a slice of dies on one wafer, as a
/// λ-sweep produces (one die geometry per feature-size sample).
///
/// The wafer's usable radius is hoisted once, and one fixed-size
/// scratch table of `R_j` chords is shared across the whole batch: for
/// each die, blocks of boundary half-widths `R_j = sqrt(R_w² − (j·b −
/// R_w)²)` are filled by a plain branch-free loop, then a second pass
/// reads neighbouring chords from the table. Each chord is the *same*
/// correctly rounded IEEE expression as the scalar loop's
/// (`sqrt(max(sq, 0))` gives the `sq <= 0` branch's zero count), so
/// each count stays bit-identical — integer-exact — to the scalar
/// [`dies_per_wafer`], which remains the reference path.
#[must_use]
pub fn dies_per_wafer_batch(wafer: &Wafer, dies: &[DieDimensions]) -> Vec<DieCount> {
    let r_w = wafer.usable_radius().value();
    let mut chords = [0.0; CHORD_BLOCK + 1];
    dies.iter()
        .map(|die| row_sum_from_table(r_w, die.width().value(), die.height().value(), &mut chords))
        .collect()
}

/// The eq. (4) row sum over chord tables of up to [`CHORD_BLOCK`] rows:
/// row `j` is bounded by chords `R_j` and `R_{j+1}`, so each block is a
/// single pass of `floor(2·min(R_j, R_{j+1})/a)` over adjacent table
/// entries, each floored by a saturating `as u32` cast (exact for the
/// non-negative quotient, and free of a libm `floor` call on targets
/// without SSE4.1). Like the scalar loop, the count saturates
/// at `u32::MAX` and stops there, so neither time nor memory grows with
/// the row count of a microscopic die.
fn row_sum_from_table(r_w: f64, a: f64, b: f64, chords: &mut [f64; CHORD_BLOCK + 1]) -> DieCount {
    let rows = (2.0 * r_w / b) as u64;
    if rows == 0 {
        return DieCount::new(0);
    }
    let mut total: u32 = 0;
    let mut first = first_nonzero_chord(r_w, b, rows);
    while first < rows && total < u32::MAX {
        let len = (rows - first).min(CHORD_BLOCK as u64) as usize;
        let table = &mut chords[..=len];
        // The wafer half-width at heights `k·b`, from the scalar
        // kernel's own `R_w² − d²`.
        for (k, chord) in (first..).zip(table.iter_mut()) {
            let d = k as f64 * b - r_w;
            *chord = (r_w * r_w - d * d).max(0.0).sqrt();
        }
        // At most 256 rows of at most `u32::MAX` dies each: no overflow.
        let mut block: u64 = 0;
        for j in 0..len {
            block += u64::from((2.0 * table[j].min(table[j + 1]) / a) as u32);
        }
        total = total.saturating_add(u32::try_from(block).unwrap_or(u32::MAX));
        first += len as u64;
    }
    DieCount::new(total)
}

/// Dies per wafer for the better of the two die orientations
/// (as drawn, or rotated by 90°).
///
/// Eq. (4) is not symmetric in `a` and `b` for non-square dies; real
/// steppers choose the better orientation, so optimization studies should
/// prefer this entry point.
#[must_use]
pub fn dies_per_wafer_best_orientation(wafer: &Wafer, die: DieDimensions) -> DieCount {
    let as_drawn = dies_per_wafer(wafer, die);
    let rotated = dies_per_wafer(wafer, die.rotated());
    as_drawn.max(rotated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use maly_units::{Centimeters, SquareCentimeters};

    fn square_die(area_cm2: f64) -> DieDimensions {
        DieDimensions::square_with_area(SquareCentimeters::new(area_cm2).unwrap())
    }

    /// Hand-computed reference for Table 3 row 1 (2.976 cm² die,
    /// R_w = 7.5 cm): rows contribute 5+7+8+8+8+6+4 = 46.
    #[test]
    fn table3_row1_die_count() {
        let n = dies_per_wafer(&Wafer::six_inch(), square_die(2.976));
        assert_eq!(n.value(), 46);
    }

    /// Table 3 row 14: 4.785 cm² die on an 8-inch wafer. The paper's
    /// printed cost of 2.18 µ$ back-solves to N_ch = 52.
    #[test]
    fn table3_row14_die_count() {
        let n = dies_per_wafer(&Wafer::eight_inch(), square_die(4.785216));
        assert_eq!(n.value(), 52);
    }

    #[test]
    fn die_larger_than_wafer_gives_zero() {
        let n = dies_per_wafer(
            &Wafer::six_inch(),
            DieDimensions::square(Centimeters::new(16.0).unwrap()),
        );
        assert!(n.is_zero());
    }

    #[test]
    fn die_exactly_wafer_diameter_gives_zero() {
        // A 15 cm square die on a 7.5 cm-radius wafer: one row, but the
        // chord at its boundary is zero, so nothing fits.
        let n = dies_per_wafer(
            &Wafer::six_inch(),
            DieDimensions::square(Centimeters::new(15.0).unwrap()),
        );
        assert!(n.is_zero());
    }

    #[test]
    fn count_is_monotone_in_die_area() {
        let wafer = Wafer::six_inch();
        let mut last = u32::MAX;
        for area in [0.25, 0.5, 1.0, 2.0, 4.0, 8.0] {
            let n = dies_per_wafer(&wafer, square_die(area)).value();
            assert!(
                n <= last,
                "count must not increase with area: {n} after {last}"
            );
            last = n;
        }
    }

    #[test]
    fn total_die_area_never_exceeds_wafer_area() {
        let wafer = Wafer::six_inch();
        for area in [0.1, 0.33, 1.0, 2.976, 4.785] {
            let n = dies_per_wafer(&wafer, square_die(area)).as_f64();
            assert!(n * area <= wafer.area().value() + 1e-9);
        }
    }

    #[test]
    fn edge_exclusion_reduces_count() {
        let die = square_die(1.0);
        let full = dies_per_wafer(&Wafer::six_inch(), die).value();
        let excluded = dies_per_wafer(
            &Wafer::six_inch().edge_exclusion(Centimeters::new(0.5).unwrap()),
            die,
        )
        .value();
        assert!(excluded < full);
    }

    #[test]
    fn rotation_can_matter_for_rectangles() {
        let wafer = Wafer::six_inch();
        let die = DieDimensions::new(
            Centimeters::new(2.9).unwrap(),
            Centimeters::new(0.9).unwrap(),
        );
        let best = dies_per_wafer_best_orientation(&wafer, die).value();
        let a = dies_per_wafer(&wafer, die).value();
        let b = dies_per_wafer(&wafer, die.rotated()).value();
        assert_eq!(best, a.max(b));
    }

    #[test]
    fn batch_matches_scalar_calls() {
        let wafer = Wafer::six_inch();
        // A λ-sweep-shaped batch: square dies whose side scales like λ.
        let dies: Vec<DieDimensions> = (1..60)
            .map(|i| DieDimensions::square(Centimeters::new(0.05 * f64::from(i)).unwrap()))
            .collect();
        let batch = dies_per_wafer_batch(&wafer, &dies);
        assert_eq!(batch.len(), dies.len());
        for (die, got) in dies.iter().zip(&batch) {
            assert_eq!(*got, dies_per_wafer(&wafer, *die));
        }
    }

    /// Batch vs scalar over randomized rectangular dies on several
    /// wafers: the lane chord-table path must stay integer-exact,
    /// including odd row counts that exercise the non-multiple-of-four
    /// table tail.
    #[test]
    fn batch_is_integer_exact_vs_scalar_randomized() {
        let mut state: u64 = 0x853c_49e6_748f_ea9b;
        let mut uniform = |lo: f64, hi: f64| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let u = (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64;
            lo + u * (hi - lo)
        };
        let wafers = [
            Wafer::six_inch(),
            Wafer::eight_inch(),
            Wafer::six_inch().edge_exclusion(Centimeters::new(0.3).unwrap()),
        ];
        for wafer in &wafers {
            let dies: Vec<DieDimensions> = (0..500)
                .map(|_| {
                    DieDimensions::new(
                        Centimeters::new(uniform(0.05, 6.0)).unwrap(),
                        Centimeters::new(uniform(0.05, 6.0)).unwrap(),
                    )
                })
                .collect();
            let batch = dies_per_wafer_batch(wafer, &dies);
            for (die, got) in dies.iter().zip(&batch) {
                assert_eq!(*got, dies_per_wafer(wafer, *die), "die {die:?}");
            }
            // Near the `u32::MAX` saturation edge: thin rows (a few
            // hundred to a few thousand of them) of narrow dies, sized so
            // the wafer holds 0.8–1.25 × `u32::MAX` of them.
            let r_w = wafer.usable_radius().value();
            let full = std::f64::consts::PI * r_w * r_w / f64::from(u32::MAX);
            let edge: Vec<DieDimensions> = (0..40)
                .map(|_| {
                    let b = uniform(0.005, 0.05);
                    let a = full / b * uniform(0.8, 1.25);
                    DieDimensions::new(Centimeters::new(a).unwrap(), Centimeters::new(b).unwrap())
                })
                .collect();
            let batch = dies_per_wafer_batch(wafer, &edge);
            let saturated = batch.iter().filter(|n| n.value() == u32::MAX).count();
            assert!(
                0 < saturated && saturated < edge.len(),
                "{saturated} saturated"
            );
            for (die, got) in edge.iter().zip(&batch) {
                assert_eq!(*got, dies_per_wafer(wafer, *die), "die {die:?}");
            }
        }
    }

    /// A microscopic die saturates the count at `u32::MAX` within a few
    /// rows, on both paths, however many rows the wafer would hold.
    #[test]
    fn microscopic_dies_saturate_quickly() {
        let wafer = Wafer::six_inch();
        for edge in [1e-6, 1e-12, 1e-20, 1e-30] {
            let die = DieDimensions::square(Centimeters::new(edge).unwrap());
            assert_eq!(dies_per_wafer(&wafer, die).value(), u32::MAX, "edge {edge}");
            let batch = dies_per_wafer_batch(&wafer, &[die, square_die(1.0)]);
            assert_eq!(batch[0].value(), u32::MAX, "edge {edge}");
            assert_eq!(batch[1], dies_per_wafer(&wafer, square_die(1.0)));
        }
        // Below ~1e-34 cm every chord the (capped) row count reaches
        // rounds to zero: the formula packs nothing, and both paths say
        // so at once.
        let speck = DieDimensions::square(Centimeters::new(1e-150).unwrap());
        assert!(dies_per_wafer(&wafer, speck).is_zero());
        assert!(dies_per_wafer_batch(&wafer, &[speck])[0].is_zero());
    }

    /// The binary search agrees with a linear scan, including chords
    /// that rounding keeps at zero for thousands of rows, or for every
    /// row up to the wafer's middle.
    #[test]
    fn first_nonzero_chord_matches_a_scan() {
        for r_w in [7.5_f64, 10.0, 7.2] {
            for b in [20.0, 7.0, 1.0, 1e-3, 1e-15, 1e-17, 3e-18, 1e-19] {
                let rows = (2.0 * r_w / b).floor() as u64;
                let c = ((r_w / b).floor() as u64).min(rows);
                let scan = (0..=c)
                    .find(|&k| {
                        let d = k as f64 * b - r_w;
                        r_w * r_w - d * d > 0.0
                    })
                    .unwrap_or(c);
                assert_eq!(first_nonzero_chord(r_w, b, rows), scan, "R_w {r_w}, b {b}");
            }
            // Every chord is zero: the sum starts past the last row.
            assert_eq!(first_nonzero_chord(r_w, 1e-150, 1_000), 1_000);
        }
    }

    /// The kernels floor with a saturating `as` cast instead of
    /// `f64::floor`. The two agree on every input: random bit patterns
    /// (negatives, NaNs and subnormals among them) and the edges.
    #[test]
    fn as_cast_equals_floor_then_cast() {
        let edges = [
            0.0,
            -0.0,
            0.5,
            0.49999999999999994,
            1.0 - f64::EPSILON / 2.0,
            2f64.powi(52) - 0.5,
            2f64.powi(52) + 0.5,
            2f64.powi(52) + 1.0,
            2f64.powi(53) + 1.0,
            2f64.powi(53) + 2.0,
            2f64.powi(32) - 0.5,
            2f64.powi(32),
            2f64.powi(63),
            2f64.powi(64),
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            -1.5,
        ];
        let mut state: u64 = 0x2545_f491_4f6c_dd1d;
        let random = (0..200_000).map(|_| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            f64::from_bits(state.wrapping_mul(0x2545_f491_4f6c_dd1d))
        });
        for x in edges.into_iter().chain(random) {
            assert_eq!(x as u64, x.floor() as u64, "{x:e}");
            assert_eq!(x as u32, x.floor() as u32, "{x:e}");
        }
    }

    #[test]
    fn batch_of_nothing_is_empty() {
        assert!(dies_per_wafer_batch(&Wafer::six_inch(), &[]).is_empty());
    }

    #[test]
    fn bigger_wafer_holds_more_dies() {
        let die = square_die(1.0);
        let six = dies_per_wafer(&Wafer::six_inch(), die).value();
        let eight = dies_per_wafer(&Wafer::eight_inch(), die).value();
        assert!(eight > six);
    }
}
