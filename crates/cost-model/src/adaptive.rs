//! Adaptive coarse-to-fine evaluation of the Fig 8 cost surface.
//!
//! The dense engine in [`crate::surface`] evaluates eq. (1) at every grid
//! point — `56 × 48 = 2688` evaluations for the default Fig 8 window —
//! even though most of that window needs far less work. This module
//! exploits the factored structure of eq. (1),
//!
//! ```text
//!   ln C_tr = ln C_w(λ) − ln N_ch − ln N_tr − ln Y(λ, N_tr)
//! ```
//!
//! in which every term is smooth in `(λ, log N_tr)` *except*
//! `ln N_ch` — an integer staircase whose relative jumps are `≈ 1/N_ch`.
//! That one observation splits the grid into two regimes:
//!
//! * **Exact zone** (few dies per wafer, `N_ch` small or zero): the
//!   staircase jumps exceed any useful tolerance, so interpolation is
//!   hopeless — but dies are big, so the whole eq. (1) stack per point is
//!   cheap (the eq. (4) row-sum kernel touches a handful of rows). Cells
//!   whose corner die counts stay at or below [`EXACT_ZONE_MAX_DIES`] and
//!   that touch the staircase regime (a corner below
//!   [`SMOOTH_MIN_DIES`], or an infeasible corner) are evaluated exactly
//!   at *every* grid point through the batched row-hoisted kernel — no
//!   probing, no refinement, and every unit cell is contour-exact.
//! * **Smooth zone** (`N_ch ≥` [`SMOOTH_MIN_DIES`] at every corner):
//!   staircase jumps are below `1/64 ≈ 1.6 %`, so `ln C_tr` is
//!   interpolable. A quadtree starts from coarse cells, evaluates
//!   corners, probes each candidate cell (center plus edge midpoints for
//!   wide cells) and accepts the cell when every probe matches the
//!   bilinear-in-`ln` prediction within a safety-scaled tolerance;
//!   otherwise it splits and recurses. Accepted cells are filled with
//!   `exp(bilerp(ln C))`, one `exp` per cell row and a running multiply
//!   along the row (the bilerp is linear along a row in index space, so
//!   the fills form a geometric sequence).
//!
//! Cells straddling both regimes refine until they fall into one.
//! Interpolation happens in grid-*index* space: λ is linear in index and
//! `N_tr` is log-spaced, so index-space interpolation is interpolation in
//! `(λ, log N_tr)` — the natural coordinates of the paper's axes.
//!
//! At `tol = 0` the engine degenerates to the dense scan: every grid
//! point is evaluated through the shared lane-batched eq. (1) kernel
//! ([`crate::surface`]'s `Eq1Kernel`) — the same kernel the dense scan
//! dispatches through — so the result is **bit-identical** to
//! [`CostSurface::compute`] (pinned by golden tests). At the default tolerance the quadtree mesh needs
//! ~5–10× fewer full eq. (1) evaluations than the dense scan on the
//! Fig 8 window (see [`AdaptiveStats::savings`]) while every value stays
//! within `tol` relative error of the dense surface and the feasibility
//! mask matches exactly.

use maly_par::Executor;
use maly_units::{Microns, TransistorCount};

use crate::surface::{
    eval_in_blocks, linear_axis, log_axis, CostSurface, Eq1Kernel, PointEval, SurfaceParameters,
};

/// Process totals of the per-computation [`AdaptiveStats`] fields,
/// mirrored onto `maly-obs` work counters at the end of every
/// computation. Work kind: the stats are thread-count-invariant (the
/// golden tests assert it), so these totals golden-compare across
/// thread counts and land in bench snapshots and exported traces.
static ADAPTIVE_MESH_EVALS: maly_obs::Counter = maly_obs::Counter::work("adaptive.mesh_evals");
/// Totals of [`AdaptiveStats::analytic_exact`].
static ADAPTIVE_EXACT_ZONE_EVALS: maly_obs::Counter =
    maly_obs::Counter::work("adaptive.exact_zone_evals");
/// Totals of [`AdaptiveStats::interpolated`].
static ADAPTIVE_INTERPOLATED: maly_obs::Counter = maly_obs::Counter::work("adaptive.interpolated");
/// Totals of [`AdaptiveStats::infeasible_deduced`].
static ADAPTIVE_INFEASIBLE: maly_obs::Counter =
    maly_obs::Counter::work("adaptive.infeasible_deduced");
/// Totals of [`AdaptiveStats::grid_points`].
static ADAPTIVE_GRID_POINTS: maly_obs::Counter = maly_obs::Counter::work("adaptive.grid_points");

/// Default relative tolerance for interpolated values.
///
/// 10 % is far finer than the reading precision of Fig 8 (a log-scale
/// contour plot spanning two decades); empirically the engine stays
/// within ~7 % worst-case of the dense scan at this setting while doing
/// ~5× less mesh work.
pub const DEFAULT_TOL: f64 = 0.1;

/// Safety factor applied to the tolerance when judging probes: a cell is
/// accepted only when every probe error is below `tol × 0.7`, leaving
/// headroom for interior points farther from the probes and for the
/// sub-tolerance staircase jumps of `N_ch` inside the smooth zone
/// (worst observed total: ~0.09 relative at `tol = 0.1` across the
/// randomized property windows).
const PROBE_SAFETY: f64 = 0.7;

/// Corner die count below which `1/N_ch` staircase jumps are too coarse
/// to interpolate: cells touching this regime are evaluated exactly.
const SMOOTH_MIN_DIES: u32 = 64;

/// Largest corner die count the exact zone may extend to. Beyond it the
/// staircase jumps shrink below `1/128` — comfortably interpolation
/// territory — so wholesale evaluation would waste work the probed
/// quadtree can skip.
const EXACT_ZONE_MAX_DIES: u32 = 128;

/// Cells at least this wide (in grid steps, either axis) get the 5-point
/// probe (center + edge midpoints); narrower candidates use the center
/// probe only.
const WIDE_PROBE_SPAN: usize = 8;

/// Smooth cells covering at most this many unit cells refine without
/// probing: a skinny 1×2 cell has a single interior point, so a probe
/// there saves nothing, while a 2×2 cell's center probe still vouches
/// for its four edge midpoints.
const PROBE_FREE_CELL_AREA: usize = 2;

/// Configuration of the adaptive engine.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveConfig {
    /// Relative tolerance for accepting interpolated cells. `0` (or any
    /// non-positive value) forces the dense scan.
    pub tol: f64,
    /// Contour levels that must be marchable losslessly: the engine
    /// refines any smooth cell whose corner range straddles one of
    /// these, so [`AdaptiveSurface::cell_is_exact`] marks every unit
    /// cell that can carry a segment of these levels.
    pub levels: Vec<f64>,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self {
            tol: DEFAULT_TOL,
            levels: Vec::new(),
        }
    }
}

impl AdaptiveConfig {
    /// Config with the given tolerance and no protected contour levels.
    #[must_use]
    pub fn new(tol: f64) -> Self {
        Self {
            tol,
            levels: Vec::new(),
        }
    }

    /// The degenerate config: full evaluation, bit-identical to the
    /// dense scan.
    #[must_use]
    pub fn exact() -> Self {
        Self::new(0.0)
    }

    /// Protects contour levels (see [`AdaptiveConfig::levels`]).
    #[must_use]
    pub fn with_levels(mut self, levels: &[f64]) -> Self {
        self.levels = levels.to_vec();
        self
    }
}

/// Work accounting for one adaptive computation.
///
/// Every grid point is produced exactly one way, so `evaluated +
/// analytic_exact + interpolated + infeasible_deduced == grid_points`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdaptiveStats {
    /// Grid points the quadtree had to sample through the full eq. (1)
    /// kernel: cell corners and acceptance probes. This is the adaptive
    /// mesh — the number the dense scan spends `grid_points` on.
    pub evaluated: usize,
    /// Grid points of exact-zone cells evaluated wholesale through the
    /// batched row-hoisted closed form (cheap big-die evaluations; exact,
    /// but never probed or refined).
    pub analytic_exact: usize,
    /// Grid points filled by bilinear-in-`ln` interpolation.
    pub interpolated: usize,
    /// Grid points deduced infeasible without evaluation: die area grows
    /// monotonically along both axes, so a cell whose four corners all
    /// count zero dies is infeasible throughout.
    pub infeasible_deduced: usize,
    /// Total grid points (`lambda_steps × n_tr_steps`).
    pub grid_points: usize,
    /// Smooth cells accepted as bilinear (not refined further).
    pub accepted_cells: usize,
    /// Cells split into children.
    pub refined_cells: usize,
    /// Exact-zone cells evaluated wholesale.
    pub analytic_cells: usize,
}

impl AdaptiveStats {
    /// Ratio of dense mesh evaluations to adaptive mesh evaluations:
    /// `grid_points / evaluated`. This counts only the full-kernel
    /// quadtree samples; exact-zone points ([`Self::analytic_exact`])
    /// are still computed, through the cheaper closed-form batch, and
    /// are reported separately.
    #[must_use]
    pub fn savings(&self) -> f64 {
        if self.evaluated == 0 {
            1.0
        } else {
            self.grid_points as f64 / self.evaluated as f64
        }
    }

    /// Grid points holding exact eq. (1) values (mesh + exact zone).
    #[must_use]
    pub fn exact_points(&self) -> usize {
        self.evaluated + self.analytic_exact
    }
}

/// An adaptively computed cost surface: the full-resolution grid, the
/// work accounting, and the unit-cell march mask that contour extraction
/// uses to skip cells that cannot carry segments.
#[derive(Debug, Clone)]
pub struct AdaptiveSurface {
    surface: CostSurface,
    stats: AdaptiveStats,
    /// `exact[i * cell_cols + j]`: unit cell `(i, j)` must be marched
    /// when extracting the protected levels.
    exact: Vec<bool>,
    cell_cols: usize,
    levels: Vec<f64>,
}

impl AdaptiveSurface {
    /// Computes the surface adaptively on the same grid
    /// [`CostSurface::compute`] would use (λ linear, `N_tr` log-spaced).
    ///
    /// # Panics
    ///
    /// Panics if either range is not ascending-positive or a step count
    /// is below 2 (same contract as the dense engine).
    #[must_use]
    pub fn compute(
        params: &SurfaceParameters,
        lambda_range: (f64, f64, usize),
        n_tr_range: (f64, f64, usize),
        config: &AdaptiveConfig,
    ) -> Self {
        Self::compute_with(
            &Executor::from_env(),
            params,
            lambda_range,
            n_tr_range,
            config,
        )
    }

    /// [`AdaptiveSurface::compute`] on an explicit executor. Each
    /// refinement wave batches its new points through the SoA kernels
    /// and tiles them in fixed blocks across the executor; results are
    /// bit-identical at every thread count.
    ///
    /// # Panics
    ///
    /// Panics if either range is not ascending-positive or a step count
    /// is below 2.
    #[must_use]
    pub fn compute_with(
        exec: &Executor,
        params: &SurfaceParameters,
        (lambda_min, lambda_max, lambda_steps): (f64, f64, usize),
        (n_tr_min, n_tr_max, n_tr_steps): (f64, f64, usize),
        config: &AdaptiveConfig,
    ) -> Self {
        assert!(lambda_steps >= 2 && n_tr_steps >= 2, "grids need ≥ 2 steps");
        assert!(
            0.0 < lambda_min && lambda_min < lambda_max,
            "bad λ range {lambda_min}..{lambda_max}"
        );
        assert!(
            0.0 < n_tr_min && n_tr_min < n_tr_max,
            "bad N_tr range {n_tr_min}..{n_tr_max}"
        );
        let _span = maly_obs::span("adaptive.surface");
        let lambda_axis = linear_axis(lambda_min, lambda_max, lambda_steps);
        let n_tr_axis = log_axis(n_tr_min, n_tr_max, n_tr_steps);
        let engine = Engine::new(params, exec, config, &lambda_axis, &n_tr_axis);
        let (values, stats, exact) = if config.tol <= 0.0 {
            engine.dense()
        } else {
            engine.refine()
        };
        ADAPTIVE_MESH_EVALS.add(stats.evaluated as u64);
        ADAPTIVE_EXACT_ZONE_EVALS.add(stats.analytic_exact as u64);
        ADAPTIVE_INTERPOLATED.add(stats.interpolated as u64);
        ADAPTIVE_INFEASIBLE.add(stats.infeasible_deduced as u64);
        ADAPTIVE_GRID_POINTS.add(stats.grid_points as u64);
        Self {
            surface: CostSurface::from_parts(lambda_axis, n_tr_axis, values),
            stats,
            exact,
            cell_cols: n_tr_steps - 1,
            levels: config.levels.clone(),
        }
    }

    /// The full-resolution surface (exact + interpolated values).
    #[must_use]
    pub fn surface(&self) -> &CostSurface {
        &self.surface
    }

    /// Consumes the wrapper, yielding the surface.
    #[must_use]
    pub fn into_surface(self) -> CostSurface {
        self.surface
    }

    /// The work accounting.
    #[must_use]
    pub fn stats(&self) -> &AdaptiveStats {
        &self.stats
    }

    /// The contour levels this surface was refined against
    /// ([`AdaptiveConfig::levels`]).
    #[must_use]
    pub fn protected_levels(&self) -> &[f64] {
        &self.levels
    }

    /// Whether unit cell `(i, j)` (lower corner at `lambda_axis[i]`,
    /// `n_tr_axis[j]`) must be marched when extracting the protected
    /// levels. With protected levels the mask holds exactly the cells
    /// that can carry a segment of those levels: four feasible corners
    /// straddling a level (a cell with an infeasible corner or entirely
    /// on one side of every level marches to nothing, so skipping it is
    /// lossless). Without protected levels the mask instead means
    /// "corners hold computed — hence dense-exact — values":
    /// refined-to-unit, exact-zone, and deduced-infeasible cells.
    #[must_use]
    pub fn cell_is_exact(&self, i: usize, j: usize) -> bool {
        i < self.surface.lambda_axis().len() - 1
            && j < self.cell_cols
            && self.exact[i * self.cell_cols + j]
    }

    /// Number of marchable unit cells (out of
    /// `(lambda_steps − 1) × (n_tr_steps − 1)`).
    #[must_use]
    pub fn exact_cell_count(&self) -> usize {
        self.exact.iter().filter(|e| **e).count()
    }
}

/// A quadtree cell over grid indices: the rectangle
/// `[i0, i1] × [j0, j1]` (inclusive corners). Unit cells have both spans
/// equal to 1; skinny cells (span 1 on one axis) split only on the
/// other.
#[derive(Debug, Clone, Copy)]
struct Cell {
    i0: usize,
    i1: usize,
    j0: usize,
    j1: usize,
}

impl Cell {
    fn is_unit(self) -> bool {
        self.i1 - self.i0 <= 1 && self.j1 - self.j0 <= 1
    }

    fn unit_cells(self) -> usize {
        (self.i1 - self.i0) * (self.j1 - self.j0)
    }

    /// Corner indices in bilerp order:
    /// `(i0,j0), (i1,j0), (i0,j1), (i1,j1)`.
    fn corners(self) -> [(usize, usize); 4] {
        [
            (self.i0, self.j0),
            (self.i1, self.j0),
            (self.i0, self.j1),
            (self.i1, self.j1),
        ]
    }

    /// Probe points: the center, plus the four edge midpoints for wide
    /// cells. Degenerate probes (coinciding with corners on skinny
    /// cells) are dropped.
    fn probe_points(self, out: &mut Vec<(usize, usize)>) {
        let im = (self.i0 + self.i1) / 2;
        let jm = (self.j0 + self.j1) / 2;
        out.clear();
        out.push((im, jm));
        if (self.i1 - self.i0).max(self.j1 - self.j0) >= WIDE_PROBE_SPAN {
            out.extend([(self.i0, jm), (self.i1, jm), (im, self.j0), (im, self.j1)]);
        }
        out.retain(|&(i, j)| !((i == self.i0 || i == self.i1) && (j == self.j0 || j == self.j1)));
        out.sort_unstable();
        out.dedup();
    }

    /// Splits at the integer midpoints, only along axes with span > 1.
    fn children(self, out: &mut Vec<Cell>) {
        let im = (self.i0 + self.i1) / 2;
        let jm = (self.j0 + self.j1) / 2;
        let i_cuts: &[(usize, usize)] = if self.i1 - self.i0 > 1 {
            &[(self.i0, im), (im, self.i1)]
        } else {
            &[(self.i0, self.i1)]
        };
        let j_cuts: &[(usize, usize)] = if self.j1 - self.j0 > 1 {
            &[(self.j0, jm), (jm, self.j1)]
        } else {
            &[(self.j0, self.j1)]
        };
        for &(i0, i1) in i_cuts {
            for &(j0, j1) in j_cuts {
                out.push(Cell { i0, i1, j0, j1 });
            }
        }
    }
}

/// The refinement engine: borrowed inputs plus the hoisted lane kernel
/// for one computation.
struct Engine<'a> {
    params: &'a SurfaceParameters,
    exec: &'a Executor,
    config: &'a AdaptiveConfig,
    lambda_axis: &'a [f64],
    n_tr_axis: &'a [f64],
    /// The shared lane-batched eq. (1) kernel ([`Eq1Kernel`]) — the
    /// same one the dense scan dispatches through, so adaptive mesh
    /// and exact-zone values are bit-identical to the dense surface by
    /// construction. `None` unless the batched eq. (4) kernel and a
    /// valid eq. (7) calibration are both available.
    kernel: Option<Eq1Kernel>,
}

type Computed = (Vec<Vec<Option<f64>>>, AdaptiveStats, Vec<bool>);

impl<'a> Engine<'a> {
    fn new(
        params: &'a SurfaceParameters,
        exec: &'a Executor,
        config: &'a AdaptiveConfig,
        lambda_axis: &'a [f64],
        n_tr_axis: &'a [f64],
    ) -> Self {
        let kernel = Eq1Kernel::new(params, lambda_axis, n_tr_axis);
        Self {
            params,
            exec,
            config,
            lambda_axis,
            n_tr_axis,
            kernel,
        }
    }

    fn rows(&self) -> usize {
        self.lambda_axis.len()
    }

    fn cols(&self) -> usize {
        self.n_tr_axis.len()
    }

    /// The point the dense scan evaluates at grid index `(i, j)` — same
    /// clamped-newtype construction, so values are bit-identical.
    fn point_at(&self, i: usize, j: usize) -> (Microns, TransistorCount) {
        (
            Microns::clamped(self.lambda_axis[i]),
            TransistorCount::clamped(self.n_tr_axis[j]),
        )
    }

    /// Batch-evaluates eq. (1) at grid points in fixed blocks across
    /// the executor. Blocks map back in index order, so the output is
    /// independent of the thread count.
    fn eval_points(&self, indices: &[(usize, usize)]) -> Vec<PointEval> {
        eval_in_blocks(self.exec, indices, |block| self.eval_slice(block))
    }

    /// The serial kernel under [`Engine::eval_points`]: one
    /// [`Eq1Kernel::eq1_for_slice`] dispatch for the whole node set —
    /// the same kernel the dense scan runs, so every evaluated point is
    /// bit-identical to the dense surface by construction.
    fn eval_slice(&self, indices: &[(usize, usize)]) -> Vec<PointEval> {
        match &self.kernel {
            Some(kernel) => kernel.eq1_for_slice(indices),
            None => {
                // No batched eq. (4) kernel (or an invalid calibration,
                // where every point is infeasible anyway): fall back to
                // the scalar path and report no die count, which
                // disables the exact zone.
                let points: Vec<(Microns, TransistorCount)> =
                    indices.iter().map(|&(i, j)| self.point_at(i, j)).collect();
                self.params
                    .costs_for_points(&points)
                    .into_iter()
                    .map(|c| (c, u32::MAX))
                    .collect()
            }
        }
    }

    /// The degenerate `tol ≤ 0` path: every grid point evaluated through
    /// the batched kernels, every unit cell exact. Bit-identical to
    /// [`CostSurface::compute`].
    fn dense(&self) -> Computed {
        let (rows, cols) = (self.rows(), self.cols());
        let indices: Vec<(usize, usize)> = (0..rows)
            .flat_map(|i| (0..cols).map(move |j| (i, j)))
            .collect();
        let values: Vec<Vec<Option<f64>>> = self
            .eval_points(&indices)
            .chunks(cols)
            .map(|row| row.iter().map(|&(c, _)| c).collect())
            .collect();
        let stats = AdaptiveStats {
            evaluated: rows * cols,
            grid_points: rows * cols,
            ..AdaptiveStats::default()
        };
        (values, stats, vec![true; (rows - 1) * (cols - 1)])
    }

    /// The coarse-to-fine path: wave-ordered refinement with batched
    /// evaluation rounds.
    fn refine(&self) -> Computed {
        let (rows, cols) = (self.rows(), self.cols());
        let np = rows * cols;
        let cell_cols = cols - 1;
        let mut have = vec![false; np];
        let mut val: Vec<Option<f64>> = vec![None; np];
        let mut nch = vec![0u32; np];
        let mut exact = vec![false; (rows - 1) * cell_cols];
        let mut stats = AdaptiveStats {
            grid_points: np,
            ..AdaptiveStats::default()
        };

        // Root tiling: the largest power-of-two stride at or below half
        // the smaller axis, so the coarse pass is a small fraction of
        // the dense scan while midpoint splits stay integer-aligned.
        let target = ((rows.min(cols) - 1) / 2).max(1);
        let mut stride = 1usize;
        while stride * 2 <= target {
            stride *= 2;
        }
        let mut wave: Vec<Cell> = Vec::new();
        let mut i0 = 0;
        while i0 < rows - 1 {
            let i1 = (i0 + stride).min(rows - 1);
            let mut j0 = 0;
            while j0 < cols - 1 {
                let j1 = (j0 + stride).min(cols - 1);
                wave.push(Cell { i0, i1, j0, j1 });
                j0 = j1;
            }
            i0 = i1;
        }

        // Accepted smooth cells, with their corner ln-costs for the
        // final fill pass.
        let mut accepted: Vec<(Cell, [f64; 4])> = Vec::new();
        let mut need: Vec<(usize, usize)> = Vec::new();
        let mut scratch: Vec<(usize, usize)> = Vec::new();
        while !wave.is_empty() {
            // Round A: evaluate every missing corner of this wave.
            need.clear();
            need.extend(
                wave.iter()
                    .flat_map(|c| c.corners())
                    .filter(|&(i, j)| !have[i * cols + j]),
            );
            need.sort_unstable();
            need.dedup();
            stats.evaluated += need.len();
            for (&(i, j), (c, n)) in need.iter().zip(self.eval_points(&need)) {
                let k = i * cols + j;
                have[k] = true;
                val[k] = c;
                nch[k] = n;
            }

            // Classify: exact zone, smooth probe candidate, or refine.
            let mut probing: Vec<(Cell, [f64; 4])> = Vec::new();
            let mut analytic: Vec<Cell> = Vec::new();
            let mut next: Vec<Cell> = Vec::new();
            for cell in wave.drain(..) {
                if cell.is_unit() {
                    self.mark_marchable_units(cell, &val, &mut exact);
                    continue;
                }
                let keys = cell.corners().map(|(i, j)| i * cols + j);
                let n_min = keys.iter().fold(u32::MAX, |a, &k| a.min(nch[k]));
                let n_max = keys.iter().fold(0u32, |a, &k| a.max(nch[k]));
                let any_infeasible = keys.iter().any(|&k| val[k].is_none());
                if n_max == 0 {
                    // Die area grows monotonically along both axes, so
                    // the eq. (4) count is extremal at the corners: four
                    // zero-die corners mean every interior point is
                    // infeasible too — no evaluation needed.
                    for i in cell.i0..=cell.i1 {
                        for j in cell.j0..=cell.j1 {
                            let k = i * cols + j;
                            if !have[k] {
                                have[k] = true;
                                stats.infeasible_deduced += 1;
                            }
                        }
                    }
                    self.mark_marchable_units(cell, &val, &mut exact);
                    continue;
                }
                if n_max <= EXACT_ZONE_MAX_DIES
                    && n_min > 0
                    && (n_min < SMOOTH_MIN_DIES || any_infeasible)
                {
                    // Staircase regime with every corner placing dies:
                    // evaluate wholesale. Cells with a zero-die corner
                    // refine instead (the fall-through below), so their
                    // all-zero children are deduced for free rather than
                    // evaluated point by point.
                    stats.analytic_cells += 1;
                    analytic.push(cell);
                    continue;
                }
                if any_infeasible || n_min < SMOOTH_MIN_DIES {
                    // Straddles the zone boundary (or the feasibility
                    // frontier at large die counts): split until the
                    // pieces classify cleanly.
                    stats.refined_cells += 1;
                    cell.children(&mut next);
                    continue;
                }
                // Smooth cell: all corners feasible, N_ch comfortably
                // large. Gather the corner values.
                let mut quad = [0.0f64; 4];
                for (q, &k) in quad.iter_mut().zip(&keys) {
                    // Feasible by the any_infeasible check above.
                    *q = val[k].unwrap_or(f64::NAN);
                }
                let (lo, hi) = quad
                    .iter()
                    .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                        (lo.min(v), hi.max(v))
                    });
                if self.config.levels.iter().any(|&l| hi >= l && lo < l) {
                    // A protected contour runs through: resolve to unit
                    // cells so marching the exact mask is lossless.
                    stats.refined_cells += 1;
                    cell.children(&mut next);
                    continue;
                }
                if cell.unit_cells() <= PROBE_FREE_CELL_AREA {
                    // Probing would cost as much as the points it saves.
                    stats.refined_cells += 1;
                    cell.children(&mut next);
                    continue;
                }
                probing.push((cell, quad.map(f64::ln)));
            }

            // Round B1: evaluate this wave's probe points.
            need.clear();
            for (cell, _) in &probing {
                cell.probe_points(&mut scratch);
                need.extend(
                    scratch
                        .iter()
                        .copied()
                        .filter(|&(i, j)| !have[i * cols + j]),
                );
            }
            need.sort_unstable();
            need.dedup();
            stats.evaluated += need.len();
            for (&(i, j), (c, n)) in need.iter().zip(self.eval_points(&need)) {
                let k = i * cols + j;
                have[k] = true;
                val[k] = c;
                nch[k] = n;
            }

            // Round B2: evaluate exact-zone cells wholesale.
            need.clear();
            for cell in &analytic {
                for i in cell.i0..=cell.i1 {
                    for j in cell.j0..=cell.j1 {
                        if !have[i * cols + j] {
                            need.push((i, j));
                        }
                    }
                }
            }
            need.sort_unstable();
            need.dedup();
            stats.analytic_exact += need.len();
            for (&(i, j), (c, n)) in need.iter().zip(self.eval_points(&need)) {
                let k = i * cols + j;
                have[k] = true;
                val[k] = c;
                nch[k] = n;
            }
            // With every exact-zone value now known, mark the marchable
            // unit cells (all of them without protected levels, only the
            // level-straddling ones otherwise).
            for &cell in &analytic {
                self.mark_marchable_units(cell, &val, &mut exact);
            }

            // Probe verdicts: accept when every probe tracks the
            // bilinear-in-ln prediction, else split.
            for (cell, ln_quad) in probing {
                cell.probe_points(&mut scratch);
                let mut ok = true;
                for &(i, j) in scratch.iter() {
                    let Some(actual) = val[i * cols + j] else {
                        ok = false;
                        break;
                    };
                    let predicted = bilerp(cell, (i, j), ln_quad);
                    if (actual.ln() - predicted).abs() > self.config.tol * PROBE_SAFETY {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    stats.accepted_cells += 1;
                    accepted.push((cell, ln_quad));
                } else {
                    stats.refined_cells += 1;
                    cell.children(&mut next);
                }
            }
            wave = next;
        }

        // Fill accepted cells with exp(bilerp(ln C)) via geometric
        // recurrences: the ln-bilerp is affine along each axis plus one
        // cross term, so the whole cell unrolls from four exps — the
        // value at the low corner, the per-row and per-column ratios,
        // and the cross-term ratio update. Multiplicative drift over a
        // cell is a few hundred ulps, far below any useful tolerance.
        // Evaluated points — cell corners, kept probes, and exact
        // neighbors on shared edges — always win over fills.
        for &(cell, ln_quad) in &accepted {
            let di = (cell.i1 - cell.i0) as f64;
            let dj = (cell.j1 - cell.j0) as f64;
            let cross = ln_quad[3] - ln_quad[1] - ln_quad[2] + ln_quad[0];
            let mut row_start = ln_quad[0].exp();
            let row_mult = ((ln_quad[1] - ln_quad[0]) / di).exp();
            let mut col_ratio = ((ln_quad[2] - ln_quad[0]) / dj).exp();
            let ratio_mult = (cross / (di * dj)).exp();
            for i in cell.i0..=cell.i1 {
                let mut v = row_start;
                for j in cell.j0..=cell.j1 {
                    let k = i * cols + j;
                    if !have[k] {
                        have[k] = true;
                        val[k] = Some(v);
                        stats.interpolated += 1;
                    }
                    v *= col_ratio;
                }
                row_start *= row_mult;
                col_ratio *= ratio_mult;
            }
            if !self.config.levels.is_empty() {
                // Fills are convex in ln and cannot straddle a level the
                // corners do not straddle — but kept probe/edge values
                // can exceed the corner range by up to the probe
                // tolerance. Mark exactly the unit cells whose (now
                // final) corner values straddle a protected level, so
                // masked marching over this surface stays lossless.
                self.mark_marchable_units(cell, &val, &mut exact);
            }
        }

        debug_assert!(have.iter().all(|f| *f), "quadtree cells must tile the grid");
        debug_assert_eq!(
            stats.evaluated + stats.analytic_exact + stats.interpolated + stats.infeasible_deduced,
            stats.grid_points,
            "every grid point is produced exactly once"
        );
        let values: Vec<Vec<Option<f64>>> = val.chunks(cols).map(<[Option<f64>]>::to_vec).collect();
        (values, stats, exact)
    }

    /// Marks the unit cells of `cell` that contour extraction must
    /// march. Without protected levels the mask means "corners hold
    /// computed values" and every unit cell of `cell` is marked. With
    /// protected levels only cells that can actually carry a segment
    /// are marked: four feasible corners whose range straddles some
    /// level. A cell with an infeasible corner yields no marching
    /// segments, and a cell entirely on one side of every level yields
    /// none either, so skipping both loses nothing relative to marching
    /// every cell of this surface.
    fn mark_marchable_units(&self, cell: Cell, val: &[Option<f64>], exact: &mut [bool]) {
        let cols = self.cols();
        let cell_cols = cols - 1;
        if self.config.levels.is_empty() {
            for ci in cell.i0..cell.i1 {
                for cj in cell.j0..cell.j1 {
                    exact[ci * cell_cols + cj] = true;
                }
            }
            return;
        }
        for ci in cell.i0..cell.i1 {
            for cj in cell.j0..cell.j1 {
                let quad = [
                    val[ci * cols + cj],
                    val[(ci + 1) * cols + cj],
                    val[ci * cols + cj + 1],
                    val[(ci + 1) * cols + cj + 1],
                ];
                let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
                let mut feasible = true;
                for v in quad {
                    match v {
                        Some(v) => {
                            lo = lo.min(v);
                            hi = hi.max(v);
                        }
                        None => feasible = false,
                    }
                }
                if feasible && self.config.levels.iter().any(|&l| hi >= l && lo < l) {
                    exact[ci * cell_cols + cj] = true;
                }
            }
        }
    }
}

/// Bilinear interpolation at grid index `(i, j)` inside `cell`, from the
/// corner values in [`Cell::corners`] order
/// (`(i0,j0), (i1,j0), (i0,j1), (i1,j1)`), with fractions taken in
/// index space.
fn bilerp(cell: Cell, (i, j): (usize, usize), quad: [f64; 4]) -> f64 {
    let tx = (i - cell.i0) as f64 / (cell.i1 - cell.i0) as f64;
    let ty = (j - cell.j0) as f64 / (cell.j1 - cell.j0) as f64;
    quad[0] * (1.0 - tx) * (1.0 - ty)
        + quad[1] * tx * (1.0 - ty)
        + quad[2] * (1.0 - tx) * ty
        + quad[3] * tx * ty
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG8_WINDOW: ((f64, f64, usize), (f64, f64, usize)) =
        ((0.4, 1.5, 56), (2.0e4, 4.0e6, 48));

    fn dense_reference() -> CostSurface {
        CostSurface::compute(&SurfaceParameters::fig8(), FIG8_WINDOW.0, FIG8_WINDOW.1)
    }

    #[test]
    fn tol_zero_is_bit_identical_to_dense() {
        let adaptive = AdaptiveSurface::compute(
            &SurfaceParameters::fig8(),
            FIG8_WINDOW.0,
            FIG8_WINDOW.1,
            &AdaptiveConfig::exact(),
        );
        assert_eq!(adaptive.surface(), &dense_reference());
        assert_eq!(adaptive.stats().evaluated, 56 * 48);
        assert_eq!(adaptive.stats().interpolated, 0);
        assert_eq!(adaptive.exact_cell_count(), 55 * 47);
    }

    #[test]
    fn default_tol_cuts_evaluations_substantially() {
        let adaptive = AdaptiveSurface::compute(
            &SurfaceParameters::fig8(),
            FIG8_WINDOW.0,
            FIG8_WINDOW.1,
            &AdaptiveConfig::default(),
        );
        let stats = adaptive.stats();
        assert_eq!(stats.grid_points, 56 * 48);
        assert!(
            stats.savings() >= 3.0,
            "expected ≥3× fewer mesh evaluations, got {:.2}× ({} of {})",
            stats.savings(),
            stats.evaluated,
            stats.grid_points
        );
        assert!(stats.interpolated > 0);
        assert!(stats.analytic_exact > 0, "fig8 has a big-die exact zone");
        // Every grid point is produced exactly one way.
        assert_eq!(
            stats.evaluated + stats.analytic_exact + stats.interpolated + stats.infeasible_deduced,
            stats.grid_points
        );
    }

    #[test]
    fn default_tol_matches_dense_within_tolerance() {
        let dense = dense_reference();
        let adaptive = AdaptiveSurface::compute(
            &SurfaceParameters::fig8(),
            FIG8_WINDOW.0,
            FIG8_WINDOW.1,
            &AdaptiveConfig::default(),
        );
        let mut worst = 0.0f64;
        for (da, aa) in dense.values().iter().zip(adaptive.surface().values()) {
            for (dv, av) in da.iter().zip(aa) {
                match (dv, av) {
                    (Some(d), Some(a)) => {
                        worst = worst.max((d - a).abs() / d.abs().max(f64::MIN_POSITIVE));
                    }
                    (None, None) => {}
                    (d, a) => panic!("feasibility mismatch: dense {d:?} vs adaptive {a:?}"),
                }
            }
        }
        assert!(
            worst <= DEFAULT_TOL,
            "worst relative error {worst:.4} exceeds tol {DEFAULT_TOL}"
        );
    }

    #[test]
    fn exact_cells_hold_dense_values() {
        // Without protected levels the march mask covers exactly the
        // cells whose corners were computed — and computed points are
        // bit-identical to the dense scan (the row-hoisted kernel runs
        // the same operations on the same values).
        let dense = dense_reference();
        let adaptive = AdaptiveSurface::compute(
            &SurfaceParameters::fig8(),
            FIG8_WINDOW.0,
            FIG8_WINDOW.1,
            &AdaptiveConfig::default(),
        );
        let dv = dense.values();
        let av = adaptive.surface().values();
        let mut checked = 0usize;
        for i in 0..dv.len() - 1 {
            for j in 0..dv[0].len() - 1 {
                if adaptive.cell_is_exact(i, j) {
                    for (ci, cj) in [(i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1)] {
                        assert_eq!(
                            av[ci][cj], dv[ci][cj],
                            "exact-cell corner ({ci},{cj}) must hold the dense value"
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 0, "fig8 must produce exact cells");
    }

    #[test]
    fn protected_levels_make_marching_lossless() {
        let levels = [10.0e-6, 30.0e-6];
        let adaptive = AdaptiveSurface::compute(
            &SurfaceParameters::fig8(),
            FIG8_WINDOW.0,
            FIG8_WINDOW.1,
            &AdaptiveConfig::default().with_levels(&levels),
        );
        // Every unit cell of the *adaptive* surface whose corner values
        // straddle a protected level must be in the march mask: marching
        // only flagged cells then reproduces full marching over this
        // surface.
        let vals = adaptive.surface().values();
        for i in 0..vals.len() - 1 {
            for j in 0..vals[0].len() - 1 {
                let quad = [
                    vals[i][j],
                    vals[i + 1][j],
                    vals[i][j + 1],
                    vals[i + 1][j + 1],
                ];
                let Some(quad) = quad.into_iter().collect::<Option<Vec<f64>>>() else {
                    // A cell with an infeasible corner: the exact zone
                    // resolves these, so they are always marchable.
                    continue;
                };
                let lo = quad.iter().fold(f64::INFINITY, |a, b| a.min(*b));
                let hi = quad.iter().fold(f64::NEG_INFINITY, |a, b| a.max(*b));
                for level in levels {
                    if hi >= level && lo < level {
                        assert!(
                            adaptive.cell_is_exact(i, j),
                            "cell ({i},{j}) straddles {level} but is not marchable"
                        );
                    }
                }
            }
        }
        assert!(adaptive.protected_levels() == levels);
    }

    #[test]
    fn infeasible_cells_are_marchable() {
        // Cells on the feasibility frontier (die too large) land in the
        // exact zone, so the frontier is resolved point-exactly.
        let dense = dense_reference();
        let adaptive = AdaptiveSurface::compute(
            &SurfaceParameters::fig8(),
            FIG8_WINDOW.0,
            FIG8_WINDOW.1,
            &AdaptiveConfig::default(),
        );
        let dv = dense.values();
        let av = adaptive.surface().values();
        for i in 0..dv.len() {
            for j in 0..dv[0].len() {
                assert_eq!(
                    dv[i][j].is_none(),
                    av[i][j].is_none(),
                    "feasibility must agree at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn all_zero_cells_are_deduced_without_evaluation() {
        // A window reaching deep into the infeasible corner (large λ,
        // huge N_tr): cells whose four corners all count zero dies are
        // filled by monotonicity, not evaluation — and the deduced
        // feasibility mask must still match the dense scan exactly.
        let window = ((1.0, 3.0, 33), (1.0e6, 1.0e8, 33));
        let adaptive = AdaptiveSurface::compute(
            &SurfaceParameters::fig8(),
            window.0,
            window.1,
            &AdaptiveConfig::default(),
        );
        let stats = adaptive.stats();
        assert!(
            stats.infeasible_deduced > 0,
            "expected deduced infeasible points, got {stats:?}"
        );
        assert_eq!(
            stats.evaluated + stats.analytic_exact + stats.interpolated + stats.infeasible_deduced,
            stats.grid_points
        );
        let dense = CostSurface::compute(&SurfaceParameters::fig8(), window.0, window.1);
        for (da, aa) in dense.values().iter().zip(adaptive.surface().values()) {
            for (dv, av) in da.iter().zip(aa) {
                assert_eq!(dv.is_none(), av.is_none(), "feasibility must agree");
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_the_result() {
        let config = AdaptiveConfig::default().with_levels(&[20.0e-6]);
        let serial = AdaptiveSurface::compute_with(
            &Executor::with_threads(1),
            &SurfaceParameters::fig8(),
            FIG8_WINDOW.0,
            FIG8_WINDOW.1,
            &config,
        );
        let parallel = AdaptiveSurface::compute_with(
            &Executor::with_threads(8),
            &SurfaceParameters::fig8(),
            FIG8_WINDOW.0,
            FIG8_WINDOW.1,
            &config,
        );
        assert_eq!(serial.surface(), parallel.surface());
        assert_eq!(serial.stats(), parallel.stats());
    }

    #[test]
    fn skinny_grids_are_handled() {
        // 3 × 40: the λ axis refines to unit immediately; cells stay
        // skinny throughout.
        let adaptive = AdaptiveSurface::compute(
            &SurfaceParameters::fig8(),
            (0.5, 1.2, 3),
            (1.0e5, 2.0e6, 40),
            &AdaptiveConfig::exact(),
        );
        let dense = CostSurface::compute(
            &SurfaceParameters::fig8(),
            (0.5, 1.2, 3),
            (1.0e5, 2.0e6, 40),
        );
        assert_eq!(adaptive.surface(), &dense);
    }

    #[test]
    #[should_panic(expected = "grids need")]
    fn degenerate_grid_is_rejected() {
        let _ = AdaptiveSurface::compute(
            &SurfaceParameters::fig8(),
            (0.4, 1.5, 1),
            (2.0e4, 4.0e6, 8),
            &AdaptiveConfig::default(),
        );
    }
}
