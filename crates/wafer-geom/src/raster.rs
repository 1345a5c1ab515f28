//! Exact grid-placement simulation of dies on a wafer.
//!
//! Eq. (4) fixes the placement grid to start at the bottom of the wafer
//! and centers every row. Real steppers expose the grid *offset* as a free
//! parameter and pick the one that maximizes good sites. This module
//! simulates the placement exactly: dies live on a regular grid with pitch
//! `die + saw street`, and a die counts iff its entire rectangle lies
//! inside the usable radius. An offset sweep finds the best alignment.
//!
//! Note a deliberate difference from eq. (4): the formula lets every *row*
//! center itself on the wafer independently, which no rigid stepper grid
//! can do. Eq. (4) is therefore typically 1–3% *optimistic* relative to
//! the best rigid-grid placement computed here (e.g. 321 vs 316 dies for
//! a 0.5 cm² die on a 6-inch wafer).
//!
//! # One row routine
//!
//! Counting and placing share one routine, the row run: the columns of
//! a grid row whose die fits form one contiguous run, so a row is two
//! column indices, not a scan over its cells. The run is contiguous
//! because the fit test, `far_x² + far_y² ≤ r²` with the row's `far_y`
//! fixed, is monotone in `far_x = max(|x0|, |x0 + w|)`, and `far_x` is
//! quasi-convex in the column index `i` even under IEEE rounding: `x0 =
//! dx + i·pitch` and `x0 + w` are both non-decreasing in `i`, so `far_x`
//! cannot rise on the left of the innermost columns or fall on their
//! right. The run's ends are found with that *same* f64 predicate, by
//! stepping from a closed-form estimate, so every site the per-cell scan
//! would accept is accepted here and no other.
//!
//! [`RasterPlacement::count`] sums run lengths over every offset of the
//! sweep; [`RasterPlacement::place`] picks the best offset the same way
//! and materializes only that offset's sites from its runs.

use maly_units::DieCount;

use crate::{DieDimensions, DieSite, Wafer, WaferMap};

/// Grid rows whose column run was searched (over every offset of every
/// sweep). Work kind: the row range of each offset is fixed by the
/// wafer and die, whatever the thread count.
static ROWS_SEARCHED: maly_obs::Counter = maly_obs::Counter::work("raster.rows_searched");

/// Exact raster die placement with grid-offset optimization.
///
/// # Examples
///
/// ```
/// use maly_units::Centimeters;
/// use maly_wafer_geom::{raster::RasterPlacement, DieDimensions, Wafer};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let placement = RasterPlacement::new(8); // sweep an 8×8 offset grid
/// let map = placement.place(
///     &Wafer::six_inch(),
///     DieDimensions::square(Centimeters::new(1.0)?),
/// );
/// // Close to (slightly below) the 154 dies of the row-centering eq. (4).
/// assert!(map.count().value() >= 150);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RasterPlacement {
    offset_steps: u32,
}

impl RasterPlacement {
    /// Creates a placement engine sweeping `offset_steps × offset_steps`
    /// grid offsets in `[0, pitch)²`.
    ///
    /// `offset_steps = 1` pins the grid so a die corner sits at the wafer
    /// center (no optimization). Larger values approach the true optimum;
    /// 8–16 is plenty in practice.
    ///
    /// # Panics
    ///
    /// Panics if `offset_steps` is zero.
    #[must_use]
    pub fn new(offset_steps: u32) -> Self {
        assert!(offset_steps > 0, "offset_steps must be at least 1");
        Self { offset_steps }
    }

    /// Number of offsets swept per axis.
    #[must_use]
    pub fn offset_steps(&self) -> u32 {
        self.offset_steps
    }

    /// The number of complete dies at the best offset of the sweep:
    /// `self.place(wafer, die).count()` without building any map.
    ///
    /// Each offset's count is the sum of its grid rows' run lengths
    /// (see the [module docs](self)), so the sweep costs a few predicate
    /// evaluations per row instead of one per grid cell.
    #[must_use]
    pub fn count(&self, wafer: &Wafer, die: DieDimensions) -> DieCount {
        let (count, _) = self.best_offset(wafer, die);
        DieCount::new(u32::try_from(count).unwrap_or(u32::MAX))
    }

    /// Places `die` on `wafer`, returning the best wafer map over the
    /// offset sweep (ties broken toward the earlier offset). Only the
    /// winning offset's sites are built.
    #[must_use]
    pub fn place(&self, wafer: &Wafer, die: DieDimensions) -> WaferMap {
        let (_, grid) = self.best_offset(wafer, die);
        WaferMap::new(*wafer, die, grid.sites())
    }

    /// The best offset of the sweep and its die count: the first offset,
    /// in `ix`-major order, whose count no later offset strictly beats.
    fn best_offset(&self, wafer: &Wafer, die: DieDimensions) -> (u64, Grid) {
        let origin = Grid::new(wafer, die);
        let steps = f64::from(self.offset_steps);

        let mut best: Option<(u64, Grid)> = None;
        let mut rows = 0u64;
        for ix in 0..self.offset_steps {
            for iy in 0..self.offset_steps {
                let dx = origin.pitch_x * f64::from(ix) / steps;
                let dy = origin.pitch_y * f64::from(iy) / steps;
                let grid = origin.at_offset(dx, dy);
                let count = grid.count();
                rows += grid.row_count();
                if best.as_ref().is_none_or(|(b, _)| count > *b) {
                    best = Some((count, grid));
                }
            }
        }
        ROWS_SEARCHED.add(rows);
        // `offset_steps ≥ 1`, so the sweep visited at least one offset.
        best.unwrap_or((0, origin))
    }
}

impl Default for RasterPlacement {
    /// An 8×8 offset sweep — accurate to a die or two of the true optimum.
    fn default() -> Self {
        Self::new(8)
    }
}

/// The die grid at one fixed offset: cell `(i, j)` holds a die whose
/// lower-left corner is at `(dx + i·pitch_x, dy + j·pitch_y)` relative
/// to the wafer center, for the cells `i_min..=i_max`, `j_min..=j_max`
/// that could possibly intersect the wafer.
#[derive(Debug, Clone, Copy)]
struct Grid {
    r: f64,
    w: f64,
    h: f64,
    pitch_x: f64,
    pitch_y: f64,
    dx: f64,
    dy: f64,
    /// Distance from the center to the flat chord, if the wafer has one.
    flat: Option<f64>,
    i_min: i64,
    i_max: i64,
    j_min: i64,
    j_max: i64,
    /// The innermost column: no column's die reaches less far from the
    /// vertical axis (see [`Grid::at_offset`]).
    anchor: i64,
}

impl Grid {
    /// The grid of `die` on `wafer` at offset zero.
    fn new(wafer: &Wafer, die: DieDimensions) -> Self {
        let grid = Self {
            r: wafer.usable_radius().value(),
            w: die.width().value(),
            h: die.height().value(),
            pitch_x: die.width().value() + wafer.saw_street_width_cm(),
            pitch_y: die.height().value() + wafer.saw_street_width_cm(),
            dx: 0.0,
            dy: 0.0,
            flat: wafer.flat_distance().map(|d| d.value()),
            i_min: 0,
            i_max: 0,
            j_min: 0,
            j_max: 0,
            anchor: 0,
        };
        grid.at_offset(0.0, 0.0)
    }

    /// The same grid shifted to offset `(dx, dy)`.
    ///
    /// Also finds the anchor column, which depends on the offset but not
    /// on the row. Columns up to `last_left` (die wholly at `x ≤ 0`) only
    /// move inward as `i` grows, and columns from `first_right` on (die
    /// wholly at `x ≥ 0`) only move outward, so the innermost column lies
    /// in `last_left..=first_right`, usually two cells, and is the one
    /// whose `far_x` is least there.
    fn at_offset(self, dx: f64, dy: f64) -> Self {
        let r = self.r;
        let mut grid = Self {
            dx,
            dy,
            i_min: ((-r - dx) / self.pitch_x).floor() as i64 - 1,
            i_max: ((r - dx) / self.pitch_x).ceil() as i64 + 1,
            j_min: ((-r - dy) / self.pitch_y).floor() as i64 - 1,
            j_max: ((r - dy) / self.pitch_y).ceil() as i64 + 1,
            ..self
        };
        let (lo, hi) = (grid.i_min, grid.i_max);
        let first_right = first_true(lo, hi, 0, |i| grid.x0(i) >= 0.0);
        let last_left = first_true(lo, hi, -1, |i| grid.x0(i) + grid.w > 0.0) - 1;
        let far_x = |i: i64| {
            let x0 = grid.x0(i);
            x0.abs().max((x0 + grid.w).abs())
        };
        grid.anchor = (last_left.max(lo)..=first_right.min(hi))
            .min_by(|&a, &b| far_x(a).total_cmp(&far_x(b)))
            .unwrap_or(lo);
        grid
    }

    fn row_count(&self) -> u64 {
        (self.j_max - self.j_min + 1).max(0) as u64
    }

    fn x0(&self, i: i64) -> f64 {
        self.dx + i as f64 * self.pitch_x
    }

    fn y0(&self, j: i64) -> f64 {
        self.dy + j as f64 * self.pitch_y
    }

    /// Complete dies at this offset: the sum of the row-run lengths.
    fn count(&self) -> u64 {
        (self.j_min..=self.j_max)
            .filter_map(|j| self.row_run(j))
            .map(|(lo, hi)| (hi - lo + 1) as u64)
            .sum()
    }

    /// Every complete die site at this offset, row by row from the
    /// bottom and left to right within a row, with grid indices
    /// normalized so the smallest occupied row and column are zero.
    fn sites(&self) -> Vec<DieSite> {
        let runs: Vec<(i64, i64, i64)> = (self.j_min..=self.j_max)
            .filter_map(|j| self.row_run(j).map(|(lo, hi)| (j, lo, hi)))
            .collect();
        let min_i = runs.iter().map(|&(_, lo, _)| lo).min().unwrap_or(0);
        let min_j = runs.first().map_or(0, |&(j, _, _)| j);
        let mut sites =
            Vec::with_capacity(runs.iter().map(|&(_, lo, hi)| (hi - lo + 1) as usize).sum());
        for (j, lo, hi) in runs {
            let y0 = self.y0(j);
            for i in lo..=hi {
                let x0 = self.x0(i);
                // Both differences are non-negative by the choice of
                // `min_i` and `min_j`, and bounded by the grid's extent.
                sites.push(DieSite {
                    column: (i - min_i) as u32,
                    row: (j - min_j) as u32,
                    center_x: x0 + self.w / 2.0,
                    center_y: y0 + self.h / 2.0,
                });
            }
        }
        sites
    }

    /// The run `lo..=hi` of columns in `i_min..=i_max` whose die in row
    /// `j` fits on the wafer, or `None` when none does.
    ///
    /// The fit test is quasi-convex along the row (see the module docs),
    /// and the anchor column reaches least far from the axis, so if its
    /// die does not fit, no die in the row does. Otherwise the run holds
    /// the anchor, and its ends are two monotone searches: the first
    /// fitting column in `i_min..=anchor` and the last in
    /// `anchor..=i_max`. Each steps from a closed-form estimate (the
    /// circle's chord at the row's far edge), so it costs a couple of
    /// predicate evaluations; a poor estimate only costs more steps,
    /// never a different answer.
    fn row_run(&self, j: i64) -> Option<(i64, i64)> {
        let y0 = self.y0(j);
        // Above the flat chord, if one exists (the die's bottom edge is
        // its lowest point).
        if !self.flat.is_none_or(|d| y0 >= -d) {
            return None;
        }
        let fits = |i: i64| rectangle_inside_circle(self.x0(i), y0, self.w, self.h, self.r);
        if !fits(self.anchor) {
            return None;
        }

        // Estimates: the die spans `[x0, x0 + w]`, which must lie within
        // the half-chord at the row's outer edge.
        let far_y = y0.abs().max((y0 + self.h).abs());
        let half_chord = (self.r * self.r - far_y * far_y).max(0.0).sqrt();
        let left_guess = ((-half_chord - self.dx) / self.pitch_x) as i64;
        let right_guess = ((half_chord - self.w - self.dx) / self.pitch_x) as i64 + 1;

        let start = first_true(self.i_min, self.anchor, left_guess, fits);
        let end = first_true(self.anchor, self.i_max, right_guess, |i| !fits(i)) - 1;
        Some((start, end))
    }
}

/// The first index in `lo..=hi` at which `pred` holds, or `hi + 1` if it
/// holds nowhere, for a `pred` that is monotone (false, then true) over
/// `lo..=hi`. Steps right from `guess` while `pred` fails, then left
/// while it still holds one step earlier: exact for any `guess`, and two
/// evaluations when the guess is right.
fn first_true(lo: i64, hi: i64, guess: i64, pred: impl Fn(i64) -> bool) -> i64 {
    let mut i = guess.clamp(lo, hi + 1);
    while i <= hi && !pred(i) {
        i += 1;
    }
    while i > lo && pred(i - 1) {
        i -= 1;
    }
    i
}

/// True when the axis-aligned rectangle with lower-left corner `(x0, y0)`
/// and size `w × h` lies entirely inside the circle of radius `r` centered
/// at the origin. For a convex region it suffices to test the corners; the
/// farthest corner dominates.
fn rectangle_inside_circle(x0: f64, y0: f64, w: f64, h: f64, r: f64) -> bool {
    let far_x = x0.abs().max((x0 + w).abs());
    let far_y = y0.abs().max((y0 + h).abs());
    far_x * far_x + far_y * far_y <= r * r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maly;
    use maly_units::{Centimeters, SquareCentimeters};

    fn square_die(area_cm2: f64) -> DieDimensions {
        DieDimensions::square_with_area(SquareCentimeters::new(area_cm2).unwrap())
    }

    /// Eq. (4) centers each row independently, so it may exceed the rigid
    /// grid slightly — but never by more than a few percent.
    #[test]
    fn raster_tracks_eq4_within_a_few_percent() {
        let wafer = Wafer::six_inch();
        for area in [0.25, 0.5, 1.0, 2.0, 2.976, 4.785] {
            let die = square_die(area);
            let eq4 = maly::dies_per_wafer(&wafer, die).as_f64();
            let raster = RasterPlacement::default()
                .place(&wafer, die)
                .count()
                .as_f64();
            assert!(
                raster >= eq4 * 0.95,
                "area {area}: raster {raster} far below eq4 {eq4}"
            );
        }
    }

    #[test]
    fn all_sites_fit_on_wafer() {
        let wafer = Wafer::six_inch();
        let die = square_die(1.0);
        let map = RasterPlacement::default().place(&wafer, die);
        let (hw, hh) = (die.width().value() / 2.0, die.height().value() / 2.0);
        for s in map.sites() {
            // Exact criterion: the farthest corner lies inside the circle.
            let far_x = s.center_x.abs() + hw;
            let far_y = s.center_y.abs() + hh;
            assert!(far_x.hypot(far_y) <= 7.5 + 1e-9);
        }
    }

    #[test]
    fn sites_do_not_overlap() {
        let wafer = Wafer::six_inch();
        let die = square_die(1.0);
        let map = RasterPlacement::default().place(&wafer, die);
        let w = die.width().value();
        let h = die.height().value();
        for (i, a) in map.sites().iter().enumerate() {
            for b in &map.sites()[i + 1..] {
                let overlap_x = (a.center_x - b.center_x).abs() < w - 1e-9;
                let overlap_y = (a.center_y - b.center_y).abs() < h - 1e-9;
                assert!(!(overlap_x && overlap_y), "sites {a:?} and {b:?} overlap");
            }
        }
    }

    #[test]
    fn more_offsets_never_hurt() {
        let wafer = Wafer::six_inch();
        let die = square_die(2.0);
        let coarse = RasterPlacement::new(1).place(&wafer, die).count().value();
        let fine = RasterPlacement::new(8).place(&wafer, die).count().value();
        assert!(fine >= coarse);
    }

    #[test]
    fn primary_flat_costs_dies() {
        // Fixed grid (no offset re-optimization): removing the bottom
        // chord must strictly cost sites.
        let die = square_die(1.0);
        let fixed = RasterPlacement::new(1);
        let round = fixed.place(&Wafer::six_inch(), die).count().value();
        let flatted = fixed
            .place(
                &Wafer::six_inch().primary_flat(Centimeters::new(6.0).unwrap()),
                die,
            )
            .count()
            .value();
        assert!(flatted < round, "flat {flatted} vs round {round}");
        // But only by the bottom-chord sites — well under 10%.
        assert!(f64::from(flatted) > 0.9 * f64::from(round));
        // With offset optimization, part (but not all) of the loss can
        // be recovered.
        let optimized = RasterPlacement::default()
            .place(
                &Wafer::six_inch().primary_flat(Centimeters::new(6.0).unwrap()),
                die,
            )
            .count()
            .value();
        assert!(optimized >= flatted);
    }

    #[test]
    fn flat_sites_respect_the_chord() {
        let die = square_die(1.0);
        let wafer = Wafer::six_inch().primary_flat(Centimeters::new(6.5).unwrap());
        let map = RasterPlacement::default().place(&wafer, die);
        for s in map.sites() {
            let bottom = s.center_y - die.height().value() / 2.0;
            assert!(bottom >= -6.5 - 1e-9);
        }
    }

    #[test]
    fn saw_street_reduces_count() {
        let die = square_die(1.0);
        let without = RasterPlacement::default()
            .place(&Wafer::six_inch(), die)
            .count()
            .value();
        let with = RasterPlacement::default()
            .place(
                &Wafer::six_inch().saw_street(Centimeters::new(0.1).unwrap()),
                die,
            )
            .count()
            .value();
        assert!(with < without);
    }

    #[test]
    fn huge_die_yields_empty_map() {
        let map = RasterPlacement::default().place(&Wafer::six_inch(), square_die(300.0));
        assert!(map.count().is_zero());
        assert!(map.covered_area().is_none());
    }

    #[test]
    fn grid_indices_are_normalized() {
        let map = RasterPlacement::default().place(&Wafer::six_inch(), square_die(1.0));
        assert!(map.sites().iter().any(|s| s.row == 0));
        assert!(map.sites().iter().any(|s| s.column == 0));
    }

    #[test]
    #[should_panic(expected = "offset_steps")]
    fn zero_offset_steps_rejected() {
        let _ = RasterPlacement::new(0);
    }
}
