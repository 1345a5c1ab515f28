//! Fig 8 — the transistor cost surface over `(λ × N_tr)`.
//!
//! Sec. IV.B evaluates eqs (1), (3), (4) and (7) on a grid of feature
//! sizes and transistor counts, with the calibration "extracted from a
//! real manufacturing operation": `X = 1.4`, `C₀ = \$500`,
//! `R_w = 7.5 cm`, `d_d = 152`, `D = 1.72`, `p = 4.07`. The constant-cost
//! contours show local optima: "for each die size there is a different
//! λ^opt which minimizes the cost per transistor" — and it is often *not*
//! the smallest available feature size.

use maly_par::Executor;
use maly_units::{
    DefectDensity, DesignDensity, Dollars, Microns, Probability, ReferenceDefectDensity,
    TransistorCount,
};
use maly_wafer_geom::{DieDimensions, Wafer};
use maly_yield_model::ScaledPoissonYield;

use crate::{CostError, TransistorCostModel, WaferCostModel};

/// Grid cells per executor work item in the lane-kernel sweeps. The
/// block is fixed, not one per thread: the executor prices a block like
/// any other map item, and the work split never depends on the thread
/// count. Each block pays its own eq. (4) memo lock round trip and
/// buffers, a few percent of a 56 × 48 surface at 512 cells, so blocks
/// are 1024 cells and a serial executor takes one call.
const CELL_BLOCK: usize = 1024;

/// Eq. (1) grid cells dispatched through the lane-batched kernel. A
/// thread-count-invariant Work counter: every consumer (dense scans
/// and planned batch fusion) routes whole index sets
/// through [`Eq1Kernel::eval_cells_with`], so this is the ground truth
/// for "how many eq. (1) evaluations actually ran" — the fusion
/// goldens diff it directly instead of trusting wall clock.
pub static EQ1_CELLS: maly_obs::Counter = maly_obs::Counter::work("eq1.cells");

/// Parameters of a cost-surface study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurfaceParameters {
    /// Wafer cost model (`C₀`, `X`).
    pub wafer_cost: WaferCostModel,
    /// The wafer.
    pub wafer: Wafer,
    /// Design density `d_d`.
    pub density: DesignDensity,
    /// Eq. (7) reference defect density `D`.
    pub defect_d: ReferenceDefectDensity,
    /// Eq. (7) defect size exponent `p`.
    pub defect_p: f64,
}

impl SurfaceParameters {
    /// The Fig 8 calibration.
    #[must_use]
    pub fn fig8() -> Self {
        // Compile-time validated constants: this constructor cannot panic.
        const FIG8_WAFER_COST: WaferCostModel =
            WaferCostModel::const_new(Dollars::const_new(500.0), 1.4);
        const FIG8_DENSITY: DesignDensity = DesignDensity::const_new(152.0);
        Self {
            wafer_cost: FIG8_WAFER_COST,
            wafer: Wafer::six_inch(),
            density: FIG8_DENSITY,
            defect_d: ScaledPoissonYield::FIG8_D,
            defect_p: ScaledPoissonYield::FIG8_P,
        }
    }

    /// Cost per transistor at one `(λ, N_tr)` point, with eq. (4) row
    /// packing for the dies per wafer.
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures (die too large, yield collapsed).
    pub fn cost_at(
        &self,
        lambda: Microns,
        transistors: TransistorCount,
    ) -> Result<Dollars, CostError> {
        let yield_model = ScaledPoissonYield::new(self.defect_d, self.defect_p, lambda)?;
        let model =
            TransistorCostModel::new(self.wafer, self.wafer_cost.wafer_cost(lambda), yield_model);
        let area = crate::density::die_area(transistors, self.density, lambda);
        let die = maly_wafer_geom::DieDimensions::square_with_area(area);
        Ok(model.evaluate(die, transistors)?.cost_per_transistor)
    }
}

/// Per-λ-row hoisted state of [`Eq1Kernel`]: the wafer cost `C_w(λ)`
/// and the eq. (7) exponent scale `−D/λ^p` — both depend only on λ, so
/// computing them once per row removes two `powf` calls from every
/// point evaluation.
#[derive(Clone, Copy)]
struct Eq1Row {
    lambda: Microns,
    wafer_cost: Dollars,
    /// `−D/λ^p`: the eq. (7) yield is `exp(neg_d_eff · A)` at this row.
    neg_d_eff: f64,
}

/// The lane-batched eq. (1) kernel over a fixed `(λ × N_tr)` grid of
/// caller-supplied axis values. The dense scan dispatches a whole
/// surface through it, and `maly-model`'s batch planner unions the λ
/// and `N_tr` axis values of every cold tile in a query batch,
/// evaluates each unique `(λ, N_tr)` cell exactly once, and scatters
/// the results back per tile.
///
/// Per-cell values depend only on the cell's own `(λ, N_tr)` pair —
/// never on which axes, tiles, or chunks surround it — so any tile
/// whose axis values appear bit-equal in these sets receives values
/// bit-identical to a direct [`CostSurface::compute_with`] over that
/// tile alone. That independence is what makes cross-request fusion
/// safe under the workspace's bit-identical-output contract.
///
/// Construction hoists everything that depends on one axis alone: the
/// wafer cost `C_w(λ)` and the effective defect density `D/λ^p` per
/// λ-row (two `powf` calls each, paid once per row instead of once per
/// point), and the clamped [`TransistorCount`] per column. The
/// per-point work is then one eq. (4) memo lookup and one lane-`exp`
/// element — no scalar transcendentals on the hot path.
pub struct Eq1Kernel {
    wafer: Wafer,
    density: DesignDensity,
    /// Whether the eq. (7) `(D, p)` calibration is valid. When it is
    /// not, [`SurfaceParameters::cost_at`] errs on every point, so
    /// every cell of this kernel is `None`.
    calibrated: bool,
    rows: Vec<Eq1Row>,
    cols: Vec<TransistorCount>,
}

impl Eq1Kernel {
    /// Builds the kernel for a parameter set over explicit axis values
    /// (λ in µm, both axes positive).
    #[must_use]
    pub fn new(params: &SurfaceParameters, lambda_axis: &[f64], n_tr_axis: &[f64]) -> Self {
        // Same calibration validation as ScaledPoissonYield::new (the
        // checks only look at D and p, so any λ works).
        const PROBE_LAMBDA: Microns = Microns::const_new(1.0);
        let calibrated =
            ScaledPoissonYield::new(params.defect_d, params.defect_p, PROBE_LAMBDA).is_ok();
        let rows = lambda_axis
            .iter()
            .map(|&l| {
                let lambda = Microns::clamped(l);
                Eq1Row {
                    lambda,
                    wafer_cost: params.wafer_cost.wafer_cost(lambda),
                    // The eq. (7) effective density D/λ^p, negated so
                    // the per-point exponent is a single multiply.
                    neg_d_eff: -DefectDensity::clamped(
                        params.defect_d.value() / lambda.value().powf(params.defect_p),
                    )
                    .value(),
                }
            })
            .collect();
        let cols = n_tr_axis
            .iter()
            .map(|&n| TransistorCount::clamped(n))
            .collect();
        Self {
            wafer: params.wafer,
            density: params.density,
            calibrated,
            rows,
            cols,
        }
    }

    /// Batched eq. (1) over grid indices `(i, j)` into the row/column
    /// axes: die counts go through the shared eq. (4) memo in one
    /// batch, eq. (7) yields through one lane-`exp` pass over the
    /// hoisted `−D/λ^p · A` exponents, and the final combine runs in
    /// the same operation order as [`TransistorCostModel::evaluate`].
    ///
    /// Accuracy: die counts and the feasibility mask are integer-exact;
    /// the only departure from the scalar path is the lane `exp`
    /// (≤ 2 ulp over the model's exponent range), so costs match
    /// [`SurfaceParameters::cost_at`] to a few ulp and mostly bit for
    /// bit. Every element is computed
    /// independently, so any chunking of `indices` produces
    /// bit-identical values — thread counts and plan orders cannot
    /// change results.
    fn eq1_for_slice(&self, indices: &[(usize, usize)]) -> Vec<Option<f64>> {
        EQ1_CELLS.add(indices.len() as u64);
        if !self.calibrated {
            return vec![None; indices.len()];
        }
        let dies: Vec<DieDimensions> = indices
            .iter()
            .map(|&(i, j)| {
                DieDimensions::square_with_area(crate::density::die_area(
                    self.cols[j],
                    self.density,
                    self.rows[i].lambda,
                ))
            })
            .collect();
        let counts = maly_wafer_geom::cache::dies_per_wafer_batch(&self.wafer, &dies);
        // Eq. (7) exponents ln Y = −D/λ^p · A over the *realized* die
        // areas (side², after the √ of square_with_area, exactly as
        // `evaluate` does), then one lane exp pass for the whole set.
        let mut yields: Vec<f64> = indices
            .iter()
            .zip(&dies)
            .map(|(&(i, _), die)| self.rows[i].neg_d_eff * die.area().value())
            .collect();
        maly_lanes::exp_slice(&mut yields);
        let mut out = Vec::with_capacity(indices.len());
        for (k, &(i, j)) in indices.iter().enumerate() {
            let n_ch = counts[k];
            let y = Probability::clamped(yields[k]).value();
            if n_ch.is_zero() || y <= 0.0 {
                out.push(None);
                continue;
            }
            // Same operation order as TransistorCostModel::evaluate.
            let good_dies = n_ch.as_f64() * y;
            let cost_per_good_die = self.rows[i].wafer_cost / good_dies;
            out.push(Some((cost_per_good_die / self.cols[j].value()).value()));
        }
        out
    }

    /// Evaluates the given `(λ index, N_tr index)` cells across the
    /// executor in fixed-size blocks (one block on a serial executor);
    /// `None` marks infeasible cells (die too large, yield collapsed).
    /// Blocks map back in index order and elements are independent, so
    /// the output is bit-identical at every thread count and under any
    /// chunking or ordering of `cells`.
    #[must_use]
    pub fn eval_cells_with(&self, exec: &Executor, cells: &[(usize, usize)]) -> Vec<Option<f64>> {
        if exec.threads() <= 1 {
            return self.eq1_for_slice(cells);
        }
        let blocks: Vec<&[(usize, usize)]> = cells.chunks(CELL_BLOCK).collect();
        exec.map(&blocks, |block| self.eq1_for_slice(block))
            .concat()
    }
}

fn ascending_positive(lo: f64, hi: f64) -> bool {
    lo.is_finite() && hi.is_finite() && 0.0 < lo && lo < hi
}

/// The exact λ axis [`CostSurface::compute`] derives for this range —
/// linear spacing — or `None` when the range is degenerate (not
/// ascending-positive, or fewer than 2 steps). The planner keys its
/// cell-level fusion on bit-equality of axis values, so they must come
/// from the same arithmetic as the compute path; the panicking contract
/// stays with `compute`. The two axes are separate functions so a batch
/// planner whose tiles repeat one axis range (the usual sliding-window
/// shape) can compute each distinct axis once.
#[must_use]
pub fn lambda_axis_values((min, max, steps): (f64, f64, usize)) -> Option<Vec<f64>> {
    if steps < 2 || !ascending_positive(min, max) {
        return None;
    }
    Some(linear_axis(min, max, steps))
}

/// The exact `N_tr` axis [`CostSurface::compute`] derives for this
/// range — logarithmic spacing, one `exp` per point — with the same
/// validation as [`lambda_axis_values`].
#[must_use]
pub fn n_tr_axis_values((min, max, steps): (f64, f64, usize)) -> Option<Vec<f64>> {
    if steps < 2 || !ascending_positive(min, max) {
        return None;
    }
    Some(log_axis(min, max, steps))
}

/// Assembles a [`CostSurface`] from externally computed parts (the
/// planner's scatter path), or `None` when the value grid's shape does
/// not match the axes or an axis is shorter than 2 entries.
#[must_use]
pub fn surface_from_grid(
    lambda_axis: Vec<f64>,
    n_tr_axis: Vec<f64>,
    values: Vec<Vec<Option<f64>>>,
) -> Option<CostSurface> {
    if lambda_axis.len() < 2
        || n_tr_axis.len() < 2
        || values.len() != lambda_axis.len()
        || values.iter().any(|row| row.len() != n_tr_axis.len())
    {
        return None;
    }
    Some(CostSurface {
        lambda_axis,
        n_tr_axis,
        values,
    })
}

/// A computed cost surface: `values[i][j]` is `C_tr` at
/// `lambda_axis[i]`, `n_tr_axis[j]`, or `None` where evaluation failed
/// (die larger than the wafer, yield underflow).
#[derive(Debug, Clone, PartialEq)]
pub struct CostSurface {
    lambda_axis: Vec<f64>,
    n_tr_axis: Vec<f64>,
    values: Vec<Vec<Option<f64>>>,
}

impl CostSurface {
    /// Computes the surface on a `lambda_steps × n_tr_steps` grid.
    ///
    /// λ is swept linearly over `[lambda_min, lambda_max]`; `N_tr` is
    /// swept *logarithmically* over `[n_tr_min, n_tr_max]` (the paper's
    /// axis spans orders of magnitude).
    ///
    /// # Panics
    ///
    /// Panics if either range is not ascending-positive or a step count
    /// is below 2.
    #[must_use]
    pub fn compute(
        params: &SurfaceParameters,
        lambda_range: (f64, f64, usize),
        n_tr_range: (f64, f64, usize),
    ) -> Self {
        Self::compute_with(&Executor::from_env(), params, lambda_range, n_tr_range)
    }

    /// [`CostSurface::compute`] on an explicit executor. Grid cells are
    /// independent, so they are tiled across the executor's threads;
    /// the result is bit-identical at every thread count.
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
        let lambda_axis = linear_axis(lambda_min, lambda_max, lambda_steps);
        let n_tr_axis = log_axis(n_tr_min, n_tr_max, n_tr_steps);

        // Every grid node through one kernel dispatch, shared with the
        // batch planner so served tiles and dense surfaces agree
        // bit-for-bit.
        let kernel = Eq1Kernel::new(params, &lambda_axis, &n_tr_axis);
        let cells: Vec<(usize, usize)> = (0..lambda_steps)
            .flat_map(|i| (0..n_tr_steps).map(move |j| (i, j)))
            .collect();
        let values = kernel
            .eval_cells_with(exec, &cells)
            .chunks(n_tr_steps)
            .map(<[_]>::to_vec)
            .collect();

        Self {
            lambda_axis,
            n_tr_axis,
            values,
        }
    }

    /// The λ grid (µm).
    #[must_use]
    pub fn lambda_axis(&self) -> &[f64] {
        &self.lambda_axis
    }

    /// The N_tr grid.
    #[must_use]
    pub fn n_tr_axis(&self) -> &[f64] {
        &self.n_tr_axis
    }

    /// The cost values (dollars per transistor), `values[lambda][n_tr]`.
    #[must_use]
    pub fn values(&self) -> &[Vec<Option<f64>>] {
        &self.values
    }

    /// The cost-minimizing λ for each `N_tr` column: the paper's
    /// `λ^opt(N_tr)` locus. Entries are `None` when no λ in the grid
    /// could build the product at all.
    #[must_use]
    pub fn optimal_lambda_per_n_tr(&self) -> Vec<Option<(f64, f64)>> {
        self.optimal_lambda_per_n_tr_with(&Executor::from_env())
    }

    /// [`CostSurface::optimal_lambda_per_n_tr`] on an explicit executor:
    /// columns scan independently, each with the serial strict-`<`
    /// tie-break, so the locus is bit-identical at every thread count.
    #[must_use]
    pub fn optimal_lambda_per_n_tr_with(&self, exec: &Executor) -> Vec<Option<(f64, f64)>> {
        exec.map_indexed(self.n_tr_axis.len(), |j| {
            let mut best: Option<(f64, f64)> = None;
            for (i, &l) in self.lambda_axis.iter().enumerate() {
                if let Some(c) = self.values[i][j] {
                    if best.is_none_or(|(_, bc)| c < bc) {
                        best = Some((l, c));
                    }
                }
            }
            best
        })
    }

    /// Global minimum `(λ, N_tr, cost)` over the grid, if any cell
    /// evaluated.
    #[must_use]
    pub fn global_minimum(&self) -> Option<(f64, f64, f64)> {
        let mut best: Option<(f64, f64, f64)> = None;
        for (i, row) in self.values.iter().enumerate() {
            for (j, cell) in row.iter().enumerate() {
                if let Some(c) = *cell {
                    if best.is_none_or(|(_, _, bc)| c < bc) {
                        best = Some((self.lambda_axis[i], self.n_tr_axis[j], c));
                    }
                }
            }
        }
        best
    }
}

/// The linearly spaced λ axis of [`CostSurface::compute`].
fn linear_axis(min: f64, max: f64, steps: usize) -> Vec<f64> {
    (0..steps)
        .map(|i| min + (max - min) * i as f64 / (steps - 1) as f64)
        .collect()
}

/// The log-spaced `N_tr` axis of [`CostSurface::compute`].
fn log_axis(min: f64, max: f64, steps: usize) -> Vec<f64> {
    let log_lo = min.ln();
    let log_hi = max.ln();
    (0..steps)
        .map(|j| (log_lo + (log_hi - log_lo) * j as f64 / (steps - 1) as f64).exp())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig8_surface() -> CostSurface {
        CostSurface::compute(
            &SurfaceParameters::fig8(),
            (0.3, 1.5, 25),
            (1.0e5, 2.0e7, 20),
        )
    }

    #[test]
    fn surface_axes_match_request() {
        let s = fig8_surface();
        assert_eq!(s.lambda_axis().len(), 25);
        assert_eq!(s.n_tr_axis().len(), 20);
        assert!((s.lambda_axis()[0] - 0.3).abs() < 1e-12);
        assert!((s.lambda_axis()[24] - 1.5).abs() < 1e-12);
        // Log-spaced N_tr: constant ratio between neighbors.
        let r1 = s.n_tr_axis()[1] / s.n_tr_axis()[0];
        let r2 = s.n_tr_axis()[11] / s.n_tr_axis()[10];
        assert!((r1 - r2).abs() < 1e-9);
    }

    #[test]
    fn interior_optimum_exists_for_large_designs() {
        // Fig 8's message: for a multi-million-transistor die, neither the
        // largest nor the smallest λ in the window is optimal.
        let s = fig8_surface();
        let optima = s.optimal_lambda_per_n_tr();
        let j_large = s.n_tr_axis().len() - 1; // 2e7 transistors
        let (l_opt, _) = optima[j_large].expect("large design should be buildable somewhere");
        assert!(
            l_opt > s.lambda_axis()[0] && l_opt < s.lambda_axis()[24],
            "λ^opt {l_opt} should be interior"
        );
    }

    #[test]
    fn optimal_lambda_shrinks_with_design_size() {
        // Larger designs push λ^opt downward (they need the density), but
        // never to the window edge. Compare a small and a large design.
        let s = fig8_surface();
        let optima = s.optimal_lambda_per_n_tr();
        let small = optima[2].unwrap().0;
        let large = optima[s.n_tr_axis().len() - 1].unwrap().0;
        assert!(
            large <= small,
            "λ^opt should not grow with N_tr: {small} → {large}"
        );
    }

    #[test]
    fn costs_are_positive_where_defined() {
        let s = fig8_surface();
        let mut defined = 0;
        for row in s.values() {
            for cell in row.iter().flatten() {
                assert!(*cell > 0.0);
                defined += 1;
            }
        }
        assert!(defined > 100, "most of the grid should evaluate");
    }

    #[test]
    fn global_minimum_is_consistent_with_columns() {
        let s = fig8_surface();
        let (_, _, c_min) = s.global_minimum().unwrap();
        for col in s.optimal_lambda_per_n_tr().into_iter().flatten() {
            assert!(col.1 >= c_min - 1e-15);
        }
    }

    #[test]
    fn cost_at_fails_gracefully_for_monster_dies() {
        let p = SurfaceParameters::fig8();
        let err = p.cost_at(
            Microns::new(1.5).unwrap(),
            TransistorCount::new(5.0e9).unwrap(),
        );
        assert!(err.is_err());
    }

    #[test]
    fn invalid_eq7_calibration_is_infeasible_at_every_point() {
        // p ≤ 2 is outside eq. (7)'s domain, so `cost_at` errs on every
        // point; the batched path must report every point infeasible.
        // 48 × 40 cells span two kernel blocks on a parallel executor.
        let params = SurfaceParameters {
            defect_p: 2.0,
            ..SurfaceParameters::fig8()
        };
        let (lambda_range, n_tr_range) = ((0.3, 1.5, 48), (1.0e5, 2.0e7, 40));
        for threads in [1, 2, 8] {
            let s = CostSurface::compute_with(
                &Executor::with_threads(threads),
                &params,
                lambda_range,
                n_tr_range,
            );
            assert!(
                s.values().iter().flatten().all(Option::is_none),
                "feasible cell at {threads} threads"
            );
        }
        let n_tr_axis = n_tr_axis_values(n_tr_range).unwrap();
        let points: Vec<(Microns, TransistorCount)> = lambda_axis_values(lambda_range)
            .unwrap()
            .into_iter()
            .flat_map(|l| n_tr_axis.iter().map(move |&n| (l, n)))
            .map(|(l, n)| (Microns::clamped(l), TransistorCount::clamped(n)))
            .collect();
        for &(lambda, n) in &points {
            assert!(
                params.cost_at(lambda, n).is_err(),
                "cost_at({lambda:?}, {n:?})"
            );
        }
    }

    #[test]
    #[should_panic(expected = "grids need")]
    fn compute_rejects_degenerate_grid() {
        let _ = CostSurface::compute(&SurfaceParameters::fig8(), (0.3, 1.5, 1), (1e5, 1e6, 5));
    }
}
