//! Marching-squares contour extraction (Fig 8's constant-cost curves).

use maly_cost_model::adaptive::AdaptiveSurface;
use maly_cost_model::surface::CostSurface;
use maly_par::Executor;

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
        for j in 0..ys.len().saturating_sub(1) {
            // Cell corners: (i,j), (i+1,j), (i+1,j+1), (i,j+1).
            let corners = [
                (xs[i], ys[j], values[i][j]),
                (xs[i + 1], ys[j], values[i + 1][j]),
                (xs[i + 1], ys[j + 1], values[i + 1][j + 1]),
                (xs[i], ys[j + 1], values[i][j + 1]),
            ];
            let Some(vals) = corners
                .iter()
                .map(|(_, _, v)| *v)
                .collect::<Option<Vec<f64>>>()
            else {
                continue;
            };
            segments.extend(march_cell(&corners, &vals, level));
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

/// Contour extraction over an adaptively computed surface: only cells in
/// the surface's march mask ([`AdaptiveSurface::cell_is_exact`]) are
/// visited. The mask covers every cell that can carry a segment of a
/// protected level — cells with exact corners plus accepted cells whose
/// values straddle a level — so for levels the surface was refined
/// against, the result equals marching every cell of the same surface,
/// at a fraction of the visits (see `exact_cell_count`).
///
/// # Panics
///
/// Panics if any requested level is not among the surface's
/// [`AdaptiveSurface::protected_levels`] — marching an unprotected level
/// against the mask could silently drop segments.
#[must_use]
pub fn extract_contours_adaptive(surface: &AdaptiveSurface, levels: &[f64]) -> Vec<ContourLine> {
    extract_contours_adaptive_with(&Executor::from_env(), surface, levels)
}

/// [`extract_contours_adaptive`] on an explicit executor. Strips come
/// back in `(level, row, column)` order — the same order as
/// [`extract_contours_with`] — so segment lists are bit-identical to the
/// serial pass at every thread count.
///
/// # Panics
///
/// As for [`extract_contours_adaptive`].
#[must_use]
pub fn extract_contours_adaptive_with(
    exec: &Executor,
    surface: &AdaptiveSurface,
    levels: &[f64],
) -> Vec<ContourLine> {
    for level in levels {
        assert!(
            surface
                .protected_levels()
                .iter()
                .any(|protected| protected == level),
            "level {level} was not protected when the surface was computed"
        );
    }
    let grid = surface.surface();
    let xs = grid.lambda_axis();
    let ys = grid.n_tr_axis();
    let values = grid.values();
    let rows = xs.len().saturating_sub(1);
    let cell_cols = ys.len().saturating_sub(1);

    let strips = exec.grid(levels.len(), rows.max(1), |li, i| {
        let level = levels[li];
        let mut segments = Vec::new();
        if i >= rows {
            return segments;
        }
        for j in 0..cell_cols {
            if !surface.cell_is_exact(i, j) {
                continue;
            }
            let corners = [
                (xs[i], ys[j], values[i][j]),
                (xs[i + 1], ys[j], values[i + 1][j]),
                (xs[i + 1], ys[j + 1], values[i + 1][j + 1]),
                (xs[i], ys[j + 1], values[i][j + 1]),
            ];
            let Some(vals) = corners
                .iter()
                .map(|(_, _, v)| *v)
                .collect::<Option<Vec<f64>>>()
            else {
                continue;
            };
            segments.extend(march_cell(&corners, &vals, level));
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

/// Marches one cell: finds level crossings on its four edges and pairs
/// them into segments (standard 16-case table, ambiguous saddles split
/// by the cell-average rule).
fn march_cell(
    corners: &[(f64, f64, Option<f64>); 4],
    vals: &[f64],
    level: f64,
) -> Vec<((f64, f64), (f64, f64))> {
    let mut case = 0usize;
    for (bit, v) in vals.iter().enumerate() {
        if *v >= level {
            case |= 1 << bit;
        }
    }
    if case == 0 || case == 0b1111 {
        return Vec::new();
    }

    // Edge k joins corner k and corner (k+1)%4.
    let crossing = |k: usize| -> (f64, f64) {
        let (x0, y0, _) = corners[k];
        let (x1, y1, _) = corners[(k + 1) % 4];
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
        // audit:allow(panic): the 4-bit marching-squares index is
        // exhaustive — cases 0 and 15 returned early above.
        _ => unreachable!("cases 0 and 15 early-returned"),
    };

    edge_pairs
        .iter()
        .map(|&(a, b)| (crossing(a), crossing(b)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use maly_cost_model::surface::SurfaceParameters;

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
        // Synthetic planar surface via a tiny grid check: contour of
        // f(x,y) = x at level 0.5 must be the vertical line x = 0.5.
        // (Exercised through the public API on a cost surface is
        // impractical; the planar check uses march_cell directly.)
        let corners = [
            (0.0, 0.0, Some(0.0)),
            (1.0, 0.0, Some(1.0)),
            (1.0, 1.0, Some(1.0)),
            (0.0, 1.0, Some(0.0)),
        ];
        let vals = [0.0, 1.0, 1.0, 0.0];
        let segs = march_cell(&corners, &vals, 0.5);
        assert_eq!(segs.len(), 1);
        let ((ax, _), (bx, _)) = segs[0];
        assert!((ax - 0.5).abs() < 1e-12);
        assert!((bx - 0.5).abs() < 1e-12);
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
