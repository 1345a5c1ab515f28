//! The paper's two manufacturing scenarios (Sec. IV.A, Figs 6–7).
//!
//! * **Scenario #1** — the industry's optimistic premise: high-volume
//!   memory production, mature yields of 100% (redundancy and mature
//!   contamination control), `X ∈ [1.1, 1.3]`, zero overhead. Eq. (8)
//!   then says the transistor cost *falls* as λ shrinks (Fig 6), because
//!   the wafer's transistor capacity grows faster than its cost.
//!
//! * **Scenario #2** — the realistic counterpoint for custom logic:
//!   `X ∈ [1.8, 2.4]`, redundancy-free dies of 70% reference yield whose
//!   area *grows* along the Fig 3 trend. Eq. (9) then says the transistor
//!   cost *rises* as λ shrinks (Fig 7) — the paper's headline warning.

use maly_tech_trend::diesize::DieSizeTrend;
use maly_units::{ensure_finite, DesignDensity, Dollars, Microns, Probability, UnitError};
use maly_wafer_geom::Wafer;

use crate::{CostError, WaferCostModel};

/// The figures' shared reference wafer cost `C₀ = $500` (compile-time
/// validated constants cannot panic at run time).
const FIG_C0: Dollars = Dollars::const_new(500.0);
/// Fig 6 design density `d_d = 30 λ²/tr` (memory-style layout).
const FIG6_DENSITY: DesignDensity = DesignDensity::const_new(30.0);
/// Fig 7 design density `d_d = 200 λ²/tr` (custom-logic layout).
const FIG7_DENSITY: DesignDensity = DesignDensity::const_new(200.0);
/// Fig 7 reference yield `Y₀ = 70%`.
const FIG7_Y0: Probability = Probability::const_new(0.7);

/// Scenario #1 (eq. 8): `C_tr = C'_w(λ) · d_d · λ² / A_w`.
///
/// Yield is 100% and every square micron of the wafer counts (gross
/// capacity) — memory-style accounting.
///
/// # Examples
///
/// ```
/// use maly_units::{DesignDensity, Dollars, Microns};
/// use maly_wafer_geom::Wafer;
/// use maly_cost_model::{scenario::Scenario1, WaferCostModel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Fig 6 parameters: C0 = $500, d_d = 30, R_w = 7.5 cm.
/// let s1 = Scenario1::new(
///     WaferCostModel::new(Dollars::new(500.0)?, 1.2)?,
///     DesignDensity::new(30.0)?,
///     Wafer::six_inch(),
/// );
/// // Cost per transistor falls monotonically with λ.
/// let at_1um = s1.cost_per_transistor(Microns::new(1.0)?);
/// let at_quarter = s1.cost_per_transistor(Microns::new(0.25)?);
/// assert!(at_quarter < at_1um);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario1 {
    wafer_cost: WaferCostModel,
    density: DesignDensity,
    wafer: Wafer,
}

impl Scenario1 {
    /// Creates the scenario.
    #[must_use]
    pub fn new(wafer_cost: WaferCostModel, density: DesignDensity, wafer: Wafer) -> Self {
        Self {
            wafer_cost,
            density,
            wafer,
        }
    }

    /// The Fig 6 configuration for a given `X`: `C₀ = $500`, `d_d = 30`,
    /// 6-inch wafer.
    ///
    /// # Errors
    ///
    /// Propagates `X` validation from [`WaferCostModel::new`].
    pub fn fig6(x: f64) -> Result<Self, UnitError> {
        Ok(Self::new(
            WaferCostModel::new(FIG_C0, x)?,
            FIG6_DENSITY,
            Wafer::six_inch(),
        ))
    }

    /// Eq. (8): cost per transistor at feature size λ.
    #[must_use]
    pub fn cost_per_transistor(&self, lambda: Microns) -> Dollars {
        let c_w = self.wafer_cost.wafer_cost(lambda);
        let per_tr_cm2 = self
            .density
            .transistor_footprint(lambda)
            .to_square_centimeters();
        c_w * (per_tr_cm2.value() / self.wafer.area().value())
    }

    /// Sweeps the cost over a λ range (inclusive ends, `steps ≥ 2`
    /// points), producing a Fig 6 series.
    ///
    /// # Errors
    ///
    /// Returns [`CostError::InvalidSweep`] if `steps < 2` or the range
    /// is not ascending.
    pub fn sweep(
        &self,
        lambda_min: Microns,
        lambda_max: Microns,
        steps: usize,
    ) -> Result<Vec<(f64, Dollars)>, CostError> {
        sweep_lambda(lambda_min, lambda_max, steps, |l| {
            Ok(self.cost_per_transistor(l))
        })
    }
}

/// Scenario #2 (eq. 9):
/// `C_tr = C'_w(λ) · d_d · λ² / (A_w · Y₀^{A_ch(λ)/A₀})`.
///
/// Identical to Scenario #1 except every wafer transistor is discounted
/// by the yield of the *growing* die the Fig 3 trend prescribes.
///
/// # Examples
///
/// ```
/// use maly_units::Microns;
/// use maly_cost_model::scenario::Scenario2;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Fig 7: X = 2.4 — shrinking now RAISES the transistor cost.
/// let s2 = Scenario2::fig7(2.4)?;
/// let at_08 = s2.cost_per_transistor(Microns::new(0.8)?)?;
/// let at_quarter = s2.cost_per_transistor(Microns::new(0.25)?)?;
/// assert!(at_quarter > at_08 * 3.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario2 {
    base: Scenario1,
    reference_yield: Probability,
    die_trend: DieSizeTrend,
}

impl Scenario2 {
    /// Creates the scenario from a Scenario #1 base, a reference yield
    /// `Y₀` (for a 1 cm² die) and a die-size trend.
    #[must_use]
    pub fn new(base: Scenario1, reference_yield: Probability, die_trend: DieSizeTrend) -> Self {
        Self {
            base,
            reference_yield,
            die_trend,
        }
    }

    /// The Fig 7 configuration for a given `X`: `C₀ = $500`, `d_d = 200`,
    /// 6-inch wafer, `Y₀ = 70%`, paper die-size fit.
    ///
    /// # Errors
    ///
    /// Propagates `X` validation.
    pub fn fig7(x: f64) -> Result<Self, UnitError> {
        let base = Scenario1::new(
            WaferCostModel::new(FIG_C0, x)?,
            FIG7_DENSITY,
            Wafer::six_inch(),
        );
        Ok(Self::new(base, FIG7_Y0, DieSizeTrend::paper_fit()))
    }

    /// Die yield at feature size λ: `Y₀^{A_ch(λ)/A₀}` with `A₀ = 1 cm²`.
    ///
    /// # Errors
    ///
    /// Propagates the die-size trend's failure where its area underflows
    /// to 0 cm² (far above any printed λ).
    pub fn die_yield(&self, lambda: Microns) -> Result<Probability, UnitError> {
        let area = self.die_trend.area_at(lambda)?;
        Ok(self.reference_yield.powf(area.value()))
    }

    /// Eq. (9): cost per transistor at feature size λ.
    ///
    /// # Errors
    ///
    /// As [`Scenario2::die_yield`].
    pub fn cost_per_transistor(&self, lambda: Microns) -> Result<Dollars, UnitError> {
        let y = self.die_yield(lambda)?.value();
        // Y is in (0, 1]; dividing by it scales the Scenario #1 cost up.
        Ok(self.base.cost_per_transistor(lambda) / y)
    }

    /// Sweeps the cost over a λ range, producing a Fig 7 series.
    ///
    /// # Errors
    ///
    /// Returns [`CostError::InvalidSweep`] if `steps < 2` or the range
    /// is not ascending, and [`CostError::InvalidInput`] if a point lies
    /// outside the die-size trend's domain.
    pub fn sweep(
        &self,
        lambda_min: Microns,
        lambda_max: Microns,
        steps: usize,
    ) -> Result<Vec<(f64, Dollars)>, CostError> {
        sweep_lambda(lambda_min, lambda_max, steps, |l| {
            self.cost_per_transistor(l)
        })
    }

    /// The feature size at which eq. (9) is minimized within a range —
    /// the "optimal shrink depth" for a Scenario #2 product line.
    ///
    /// # Errors
    ///
    /// As [`Scenario2::sweep`].
    pub fn optimal_lambda(
        &self,
        lambda_min: Microns,
        lambda_max: Microns,
        steps: usize,
    ) -> Result<Microns, CostError> {
        let series = self.sweep(lambda_min, lambda_max, steps)?;
        // A validated sweep holds ≥ 2 points, so a minimum always exists.
        let Some(best) = series
            .iter()
            .min_by(|a, b| a.1.value().total_cmp(&b.1.value()))
        else {
            return Err(CostError::InvalidSweep {
                lambda_min_um: lambda_min.value(),
                lambda_max_um: lambda_max.value(),
                steps,
            });
        };
        Ok(Microns::clamped(best.0))
    }
}

fn sweep_lambda(
    lambda_min: Microns,
    lambda_max: Microns,
    steps: usize,
    f: impl Fn(Microns) -> Result<Dollars, UnitError> + Sync,
) -> Result<Vec<(f64, Dollars)>, CostError> {
    let lo = lambda_min.value();
    let hi = lambda_max.value();
    if steps < 2 || lo >= hi {
        return Err(CostError::InvalidSweep {
            lambda_min_um: lo,
            lambda_max_um: hi,
            steps,
        });
    }
    // Sweep points are independent; the executor returns them in index
    // order, so the series (and its first failure) match the serial loop.
    maly_par::Executor::from_env()
        .map_indexed(steps, |i| {
            let l = lo + (hi - lo) * i as f64 / (steps - 1) as f64;
            ensure_finite!(l, "λ sweep interpolant");
            // Interpolants of validated positive bounds stay positive.
            Ok::<_, CostError>((l, f(Microns::clamped(l))?))
        })
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn um(v: f64) -> Microns {
        Microns::new(v).unwrap()
    }

    #[test]
    fn fig6_cost_decreases_for_all_printed_x() {
        // Fig 6 plots X = 1.1, 1.2, 1.3: cost falls monotonically.
        for x in [1.1, 1.2, 1.3] {
            let s1 = Scenario1::fig6(x).unwrap();
            let series = s1.sweep(um(0.25), um(1.0), 16).unwrap();
            for w in series.windows(2) {
                assert!(
                    w[0].1.value() < w[1].1.value(),
                    "X={x}: cost must fall with λ"
                );
            }
        }
    }

    #[test]
    fn fig6_reference_point_value() {
        // At λ = 1 µm the cost is C0·d_d·λ²/A_w = 500·30 µm²/176.71 cm²
        // ≈ 0.849 µ$ regardless of X.
        for x in [1.1, 1.3] {
            let s1 = Scenario1::fig6(x).unwrap();
            let c = s1.cost_per_transistor(um(1.0)).to_micro_dollars().value();
            assert!((c - 0.849).abs() < 0.002, "X={x}: {c}");
        }
    }

    #[test]
    fn fig6_higher_x_flattens_the_decrease() {
        let low = Scenario1::fig6(1.1).unwrap();
        let high = Scenario1::fig6(1.3).unwrap();
        let ratio_low = low.cost_per_transistor(um(0.25)) / low.cost_per_transistor(um(1.0));
        let ratio_high = high.cost_per_transistor(um(0.25)) / high.cost_per_transistor(um(1.0));
        assert!(ratio_high > ratio_low);
        assert!(ratio_low < 1.0 && ratio_high < 1.0);
    }

    #[test]
    fn fig7_cost_increases_for_all_printed_x() {
        // Fig 7 plots X in 1.8–2.4: shrinking raises the cost across the
        // sub-micron sweep.
        for x in [1.8, 2.0, 2.2, 2.4] {
            let s2 = Scenario2::fig7(x).unwrap();
            let c_08 = s2.cost_per_transistor(um(0.8)).unwrap().value();
            let c_05 = s2.cost_per_transistor(um(0.5)).unwrap().value();
            let c_025 = s2.cost_per_transistor(um(0.25)).unwrap().value();
            assert!(c_05 > c_08, "X={x}");
            assert!(c_025 > c_05, "X={x}");
        }
    }

    #[test]
    fn fig7_hand_computed_anchor() {
        // Hand-validated during calibration: X = 2.4 at λ = 0.8 gives
        // ≈ 9.5 µ$ and at λ = 0.25 ≈ 45 µ$ (see DESIGN.md §1).
        let s2 = Scenario2::fig7(2.4).unwrap();
        let c_08 = s2
            .cost_per_transistor(um(0.8))
            .unwrap()
            .to_micro_dollars()
            .value();
        let c_025 = s2
            .cost_per_transistor(um(0.25))
            .unwrap()
            .to_micro_dollars()
            .value();
        assert!((c_08 - 9.46).abs() < 0.1, "got {c_08}");
        assert!((c_025 - 45.1).abs() < 1.0, "got {c_025}");
    }

    #[test]
    fn fig7_yield_collapses_with_shrink() {
        let s2 = Scenario2::fig7(1.8).unwrap();
        let y_08 = s2.die_yield(um(0.8)).unwrap().value();
        let y_025 = s2.die_yield(um(0.25)).unwrap().value();
        assert!(y_08 > 0.9);
        assert!(y_025 < 0.25);
    }

    #[test]
    fn scenario2_reduces_to_scenario1_at_perfect_yield() {
        let base = Scenario1::fig6(1.2).unwrap();
        let s2 = Scenario2::new(base, Probability::ONE, DieSizeTrend::paper_fit());
        for l in [1.0, 0.5, 0.25] {
            let c1 = base.cost_per_transistor(um(l)).value();
            let c2 = s2.cost_per_transistor(um(l)).unwrap().value();
            assert!((c1 - c2).abs() < 1e-15);
        }
    }

    #[test]
    fn scenario2_sweep_past_the_trend_domain_errs() {
        // Above ~140.6 µm the Fig 3 area underflows to 0 cm².
        let s2 = Scenario2::fig7(2.0).unwrap();
        assert!(matches!(
            s2.sweep(um(0.5), um(200.0), 3),
            Err(CostError::InvalidInput(UnitError::NotPositive { .. }))
        ));
        assert!(s2.sweep(um(0.5), um(100.0), 3).is_ok());
    }

    #[test]
    fn scenario2_never_rewards_shrinking() {
        // Under Scenario #2 assumptions (X ≥ 1.8, growing dies, fixed Y0),
        // the cheapest transistor is always at the *largest* feature size
        // in the window: shrinking never pays. (The interior optima of
        // Fig 8 appear only at fixed N_tr — see `surface`.)
        let s2 = Scenario2::fig7(1.8).unwrap();
        let opt = s2.optimal_lambda(um(0.2), um(1.5), 200).unwrap();
        assert!(
            (opt.value() - 1.5).abs() < 1e-9,
            "optimum {opt} should sit at the window's upper edge"
        );
    }

    #[test]
    fn sweep_covers_endpoints() {
        let s1 = Scenario1::fig6(1.2).unwrap();
        let series = s1.sweep(um(0.25), um(1.0), 4).unwrap();
        assert_eq!(series.len(), 4);
        assert!((series[0].0 - 0.25).abs() < 1e-12);
        assert!((series[3].0 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sweep_rejects_degenerate_requests() {
        let s1 = Scenario1::fig6(1.2).unwrap();
        assert!(matches!(
            s1.sweep(um(0.25), um(1.0), 1),
            Err(CostError::InvalidSweep { steps: 1, .. })
        ));
        assert!(matches!(
            s1.sweep(um(1.0), um(0.25), 8),
            Err(CostError::InvalidSweep { .. })
        ));
    }
}
