//! Marching-squares contour extraction (Fig 8's constant-cost curves).

use maly_cost_model::surface::CostSurface;
use maly_par::Executor;

/// One [`ContourLine`] segment.
type Segment = ((f64, f64), (f64, f64));

/// A contour line: the level and the polyline points `(λ, N_tr)` tracing
/// it (segments concatenated; may contain several disconnected runs).
#[derive(Debug, Clone, PartialEq)]
pub struct ContourLine {
    /// The cost level this contour traces (same unit as the surface —
    /// dollars per transistor).
    pub level: f64,
    /// Line segments, each `((x0, y0), (x1, y1))` in axis coordinates.
    pub segments: Vec<((f64, f64), (f64, f64))>,
}

impl ContourLine {
    /// Number of segments traced.
    #[must_use]
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// True when the level crossed no cell.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }
}

/// Extracts constant-cost contours from a cost surface at the given
/// levels, via marching squares with linear interpolation. Cells with
/// missing (infeasible) corners are skipped.
///
/// # Examples
///
/// ```
/// use maly_cost_model::surface::{CostSurface, SurfaceParameters};
/// use maly_cost_optim::contour::extract_contours;
///
/// let surface = CostSurface::compute(
///     &SurfaceParameters::fig8(),
///     (0.4, 1.2, 24),
///     (2.0e5, 5.0e6, 20),
/// );
/// let contours = extract_contours(&surface, &[10.0e-6, 30.0e-6]);
/// assert_eq!(contours.len(), 2);
/// // The 10 µ$ contour exists inside this window.
/// assert!(!contours[0].is_empty());
/// ```
#[must_use]
pub fn extract_contours(surface: &CostSurface, levels: &[f64]) -> Vec<ContourLine> {
    extract_contours_with(&Executor::from_env(), surface, levels)
}

/// [`extract_contours`] on an explicit executor. Cell marching is
/// independent per `(level, row)` strip; strips come back in `(level,
/// row, column)` order, so the segment lists are bit-identical to the
/// serial pass at every thread count.
///
/// No cell visit allocates: corners are read as a tuple, the
/// marching-squares case index is computed first, and cells the level
/// does not cross (cases 0 and 15) are skipped before the corner
/// coordinates are read.
#[must_use]
pub fn extract_contours_with(
    exec: &Executor,
    surface: &CostSurface,
    levels: &[f64],
) -> Vec<ContourLine> {
    let xs = surface.lambda_axis();
    let ys = surface.n_tr_axis();
    let values = surface.values();
    let rows = xs.len().saturating_sub(1);

    // One work item per (level, row-of-cells) strip; the executor
    // prices the map, so small surfaces march serially.
    let strips = exec.grid(levels.len(), rows.max(1), |li, i| {
        let level = levels[li];
        let mut segments = Vec::new();
        if i >= rows {
            return segments;
        }
        let (lo, hi) = (&values[i], &values[i + 1]);
        for (j, (l, h)) in lo.windows(2).zip(hi.windows(2)).enumerate() {
            // Cell corners: (i,j), (i+1,j), (i+1,j+1), (i,j+1).
            let (Some(a), Some(b), Some(c), Some(d)) = (l[0], h[0], h[1], l[1]) else {
                continue;
            };
            let vals = [a, b, c, d];
            let case = cell_case(&vals, level);
            if case == 0 || case == 0b1111 {
                continue;
            }
            let corners = [
                (xs[i], ys[j]),
                (xs[i + 1], ys[j]),
                (xs[i + 1], ys[j + 1]),
                (xs[i], ys[j + 1]),
            ];
            march_cell(&corners, &vals, case, level, &mut segments);
        }
        segments
    });

    levels
        .iter()
        .zip(strips)
        .map(|(&level, rows)| ContourLine {
            level,
            segments: rows.into_iter().flatten().collect(),
        })
        .collect()
}

/// The marching-squares case index of a cell: bit `k` is set when
/// corner `k` is at or above `level`.
fn cell_case(vals: &[f64; 4], level: f64) -> usize {
    let mut case = 0;
    for (bit, v) in vals.iter().enumerate() {
        case |= usize::from(*v >= level) << bit;
    }
    case
}

/// Marches one cell of case `case` (from [`cell_case`]): finds level
/// crossings on its four edges and pushes them, paired into segments,
/// onto `out` (standard 16-case table, ambiguous saddles split by the
/// cell-average rule; cases 0 and 15 push nothing).
fn march_cell(
    corners: &[(f64, f64); 4],
    vals: &[f64; 4],
    case: usize,
    level: f64,
    out: &mut Vec<Segment>,
) {
    // Edge k joins corner k and corner (k+1)%4.
    let crossing = |k: usize| -> (f64, f64) {
        let (x0, y0) = corners[k];
        let (x1, y1) = corners[(k + 1) % 4];
        let v0 = vals[k];
        let v1 = vals[(k + 1) % 4];
        let t = if (v1 - v0).abs() < f64::EPSILON {
            0.5
        } else {
            ((level - v0) / (v1 - v0)).clamp(0.0, 1.0)
        };
        (x0 + t * (x1 - x0), y0 + t * (y1 - y0))
    };

    // For each case, which edges are crossed (pairs in drawing order).
    let edge_pairs: &[(usize, usize)] = match case {
        0b0001 | 0b1110 => &[(0, 3)],
        0b0010 | 0b1101 => &[(0, 1)],
        0b0100 | 0b1011 => &[(1, 2)],
        0b1000 | 0b0111 => &[(2, 3)],
        0b0011 | 0b1100 => &[(1, 3)],
        0b0110 | 0b1001 => &[(0, 2)],
        0b0101 => {
            // Saddle: resolve by center average.
            let center = vals.iter().sum::<f64>() / 4.0;
            if center >= level {
                &[(0, 1), (2, 3)]
            } else {
                &[(0, 3), (1, 2)]
            }
        }
        0b1010 => {
            let center = vals.iter().sum::<f64>() / 4.0;
            if center >= level {
                &[(0, 3), (1, 2)]
            } else {
                &[(0, 1), (2, 3)]
            }
        }
        _ => &[],
    };

    out.extend(edge_pairs.iter().map(|&(a, b)| (crossing(a), crossing(b))));
}

#[cfg(test)]
mod tests {
    use super::*;
    use maly_cost_model::surface::{surface_from_grid, SurfaceParameters};

    fn fig8_surface() -> CostSurface {
        CostSurface::compute(
            &SurfaceParameters::fig8(),
            (0.4, 1.2, 30),
            (2.0e5, 5.0e6, 24),
        )
    }

    #[test]
    fn contours_exist_at_interior_levels() {
        let s = fig8_surface();
        // Find the value range to pick levels that must cross.
        let mut lo = f64::INFINITY;
        let mut hi = 0.0f64;
        for row in s.values() {
            for v in row.iter().flatten() {
                lo = lo.min(*v);
                hi = hi.max(*v);
            }
        }
        let mid = (lo * hi).sqrt(); // geometric mean: interior level
        let contours = extract_contours(&s, &[mid]);
        assert!(!contours[0].is_empty(), "midlevel contour must exist");
    }

    #[test]
    fn out_of_range_levels_give_empty_contours() {
        let s = fig8_surface();
        // Below every cell (the yield-collapse corner reaches absurd
        // costs, so the upper sentinel must be truly enormous).
        let contours = extract_contours(&s, &[1.0e-12, 1.0e80]);
        assert!(contours[0].is_empty());
        assert!(contours[1].is_empty());
    }

    #[test]
    fn segment_endpoints_lie_inside_the_grid() {
        let s = fig8_surface();
        let contours = extract_contours(&s, &[20.0e-6]);
        let (x0, x1) = (s.lambda_axis()[0], *s.lambda_axis().last().unwrap());
        let (y0, y1) = (s.n_tr_axis()[0], *s.n_tr_axis().last().unwrap());
        for seg in &contours[0].segments {
            for p in [seg.0, seg.1] {
                assert!(p.0 >= x0 - 1e-9 && p.0 <= x1 + 1e-9);
                assert!(p.1 >= y0 - 1e-9 && p.1 <= y1 + 1e-9);
            }
        }
    }

    #[test]
    fn crossing_points_interpolate_the_level() {
        // Cells marched directly on the unit square (corners 0..4 run
        // counter-clockwise from the origin). Dyadic values keep every
        // crossing exact.
        type Case = (&'static str, [f64; 4], f64, usize, &'static [Segment]);
        let table: [Case; 7] = [
            // f(x, y) = x at level 0.5 is the vertical line x = 0.5.
            (
                "planar",
                [0.0, 1.0, 1.0, 0.0],
                0.5,
                0b0110,
                &[((0.5, 0.0), (0.5, 1.0))],
            ),
            // `v >= level` puts the max corners above: still marched.
            (
                "level at max",
                [0.0, 1.0, 1.0, 0.0],
                1.0,
                0b0110,
                &[((1.0, 0.0), (1.0, 1.0))],
            ),
            // Every corner is at or above the min: case 15, skipped.
            ("level at min", [0.0, 1.0, 1.0, 0.0], 0.0, 0b1111, &[]),
            // Saddles: the center average (0.5) picks the pairing.
            (
                "saddle 0101, center above",
                [1.0, 0.0, 1.0, 0.0],
                0.25,
                0b0101,
                &[((0.75, 0.0), (1.0, 0.25)), ((0.25, 1.0), (0.0, 0.75))],
            ),
            (
                "saddle 0101, center below",
                [1.0, 0.0, 1.0, 0.0],
                0.75,
                0b0101,
                &[((0.25, 0.0), (0.0, 0.25)), ((1.0, 0.75), (0.75, 1.0))],
            ),
            (
                "saddle 1010, center above",
                [0.0, 1.0, 0.0, 1.0],
                0.25,
                0b1010,
                &[((0.25, 0.0), (0.0, 0.25)), ((1.0, 0.75), (0.75, 1.0))],
            ),
            (
                "saddle 1010, center below",
                [0.0, 1.0, 0.0, 1.0],
                0.75,
                0b1010,
                &[((0.75, 0.0), (1.0, 0.25)), ((0.25, 1.0), (0.0, 0.75))],
            ),
        ];
        let corners = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)];
        for (name, vals, level, case, expected) in table {
            assert_eq!(cell_case(&vals, level), case, "{name}");
            let mut segments = Vec::new();
            march_cell(&corners, &vals, case, level, &mut segments);
            assert_eq!(segments, expected, "{name}");
        }

        // A cell with one infeasible corner gives no segment, though
        // its feasible corners straddle the level.
        let grid = |corner: Option<f64>| {
            surface_from_grid(
                vec![0.5, 1.0],
                vec![1.0e5, 2.0e5],
                vec![vec![Some(0.0), corner], vec![Some(1.0), Some(1.0)]],
            )
            .expect("2 × 2 grid")
        };
        let exec = Executor::serial();
        assert_eq!(
            extract_contours_with(&exec, &grid(Some(0.0)), &[0.5])[0].len(),
            1
        );
        assert!(extract_contours_with(&exec, &grid(None), &[0.5])[0].is_empty());
    }

    #[test]
    fn nested_levels_do_not_cross() {
        // Higher-cost contours enclose lower ones around the optimum; a
        // cheap necessary condition: more segments at levels nearer the
        // surface median, zero at the extremes — already covered — plus
        // both requested levels return in order.
        let s = fig8_surface();
        let contours = extract_contours(&s, &[10.0e-6, 40.0e-6]);
        assert_eq!(contours[0].level, 10.0e-6);
        assert_eq!(contours[1].level, 40.0e-6);
    }
}
