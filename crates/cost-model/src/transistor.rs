//! Eq. (1): the transistor cost model proper.

use maly_units::{DieCount, Dollars, Probability, TransistorCount};
use maly_wafer_geom::{approx, maly, raster::RasterPlacement, DieDimensions, Wafer};
use maly_yield_model::YieldModel;

use crate::CostError;

/// How `N_ch` (dies per wafer) is computed.
///
/// The paper uses eq. (4); the alternatives allow sensitivity studies
/// (how much of the cost conclusion depends on the die-packing model —
/// answer: little, the methods agree within a few percent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DiesPerWaferMethod {
    /// Eq. (4): per-row centered packing (the paper's choice).
    #[default]
    MalyEq4,
    /// Exact rigid-grid placement with an offset sweep of the given size.
    Raster {
        /// Offsets swept per axis (see `RasterPlacement::new`).
        offset_steps: u32,
    },
    /// Floor of the gross area ratio `π R²/A` (upper bound).
    GrossEstimate,
    /// Floor of the edge-corrected closed form.
    EdgeCorrected,
}

impl DiesPerWaferMethod {
    /// Computes the die count for a wafer/die pair.
    #[must_use]
    pub fn dies_per_wafer(&self, wafer: &Wafer, die: DieDimensions) -> DieCount {
        match self {
            // Computed directly: a one-off evaluation has no memo to
            // reuse, and the row sum costs less than a memo insert.
            DiesPerWaferMethod::MalyEq4 => maly::dies_per_wafer(wafer, die),
            DiesPerWaferMethod::Raster { offset_steps } => {
                RasterPlacement::new(*offset_steps).count(wafer, die)
            }
            DiesPerWaferMethod::GrossEstimate => {
                DieCount::new(approx::gross_estimate(wafer, die).floor().max(0.0) as u32)
            }
            DiesPerWaferMethod::EdgeCorrected => {
                DieCount::new(approx::edge_corrected_estimate(wafer, die).floor().max(0.0) as u32)
            }
        }
    }
}

/// Full decomposition of one eq. (1) evaluation — every intermediate the
/// paper's tables report (C-INTERMEDIATE: expose what was computed anyway).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostBreakdown {
    /// Wafer cost `C_w` used.
    pub wafer_cost: Dollars,
    /// Dies per wafer `N_ch`.
    pub dies_per_wafer: DieCount,
    /// Die yield `Y`.
    pub die_yield: Probability,
    /// Expected good dies per wafer, `N_ch · Y`.
    pub good_dies_per_wafer: f64,
    /// Cost of one *good* die, `C_w / (N_ch · Y)`.
    pub cost_per_good_die: Dollars,
    /// Cost of one transistor in a good die, eq. (1).
    pub cost_per_transistor: Dollars,
}

/// Eq. (1) with pluggable dies-per-wafer method and yield model:
/// `C_tr = C_w / (N_ch · N_tr · Y)`.
///
/// # Examples
///
/// ```
/// use maly_units::{Dollars, Probability, SquareCentimeters, TransistorCount};
/// use maly_wafer_geom::{DieDimensions, Wafer};
/// use maly_yield_model::AreaScaledYield;
/// use maly_cost_model::TransistorCostModel;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Table 3 row 2: $1260 wafer, 2.976 cm² die, Y0 = 0.7, 3.1M transistors.
/// let model = TransistorCostModel::new(
///     Wafer::six_inch(),
///     Dollars::new(1260.0)?,
///     AreaScaledYield::per_square_centimeter(Probability::new(0.7)?),
/// );
/// let die = DieDimensions::square_with_area(SquareCentimeters::new(2.976)?);
/// let result = model.evaluate(die, TransistorCount::from_millions(3.1)?)?;
/// let micro = result.cost_per_transistor.to_micro_dollars().value();
/// assert!((micro - 25.5).abs() < 0.1); // paper prints 25.50 µ$
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransistorCostModel<Y> {
    wafer: Wafer,
    wafer_cost: Dollars,
    yield_model: Y,
    dies_per_wafer_method: DiesPerWaferMethod,
}

impl<Y: YieldModel> TransistorCostModel<Y> {
    /// Creates the model with the default eq. (4) dies-per-wafer method.
    #[must_use]
    pub fn new(wafer: Wafer, wafer_cost: Dollars, yield_model: Y) -> Self {
        Self {
            wafer,
            wafer_cost,
            yield_model,
            dies_per_wafer_method: DiesPerWaferMethod::default(),
        }
    }

    /// Selects a different dies-per-wafer method (builder style).
    #[must_use]
    pub fn dies_per_wafer_method(mut self, method: DiesPerWaferMethod) -> Self {
        self.dies_per_wafer_method = method;
        self
    }

    /// The wafer this model manufactures on.
    #[must_use]
    pub fn wafer(&self) -> &Wafer {
        &self.wafer
    }

    /// The wafer cost `C_w`.
    #[must_use]
    pub fn wafer_cost(&self) -> Dollars {
        self.wafer_cost
    }

    /// The yield model in use.
    #[must_use]
    pub fn yield_model(&self) -> &Y {
        &self.yield_model
    }

    /// Evaluates eq. (1) for a die holding `transistors` transistors.
    ///
    /// # Errors
    ///
    /// * [`CostError::NoDiesFit`] when the die is too large for the wafer;
    /// * [`CostError::ZeroYield`] when the yield model returns zero.
    pub fn evaluate(
        &self,
        die: DieDimensions,
        transistors: TransistorCount,
    ) -> Result<CostBreakdown, CostError> {
        let n_ch = self.dies_per_wafer_method.dies_per_wafer(&self.wafer, die);
        if n_ch.is_zero() {
            return Err(CostError::NoDiesFit {
                die_area_cm2: die.area().value(),
                wafer_radius_cm: self.wafer.radius().value(),
            });
        }
        let y = self.yield_model.die_yield(die.area());
        if y.value() <= 0.0 {
            return Err(CostError::ZeroYield {
                die_area_cm2: die.area().value(),
            });
        }
        let good_dies = n_ch.as_f64() * y.value();
        let cost_per_good_die = self.wafer_cost / good_dies;
        let cost_per_transistor = cost_per_good_die / transistors.value();
        Ok(CostBreakdown {
            wafer_cost: self.wafer_cost,
            dies_per_wafer: n_ch,
            die_yield: y,
            good_dies_per_wafer: good_dies,
            cost_per_good_die,
            cost_per_transistor,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maly_units::SquareCentimeters;
    use maly_yield_model::{AreaScaledYield, PerfectYield};

    fn dollars(v: f64) -> Dollars {
        Dollars::new(v).unwrap()
    }

    fn square_die(area: f64) -> DieDimensions {
        DieDimensions::square_with_area(SquareCentimeters::new(area).unwrap())
    }

    fn y0(v: f64) -> AreaScaledYield {
        AreaScaledYield::per_square_centimeter(Probability::new(v).unwrap())
    }

    #[test]
    fn table3_row1_full_breakdown() {
        let model = TransistorCostModel::new(Wafer::six_inch(), dollars(980.0), y0(0.9));
        let result = model
            .evaluate(
                square_die(2.976),
                TransistorCount::from_millions(3.1).unwrap(),
            )
            .unwrap();
        assert_eq!(result.dies_per_wafer.value(), 46);
        assert!((result.die_yield.value() - 0.9f64.powf(2.976)).abs() < 1e-12);
        let micro = result.cost_per_transistor.to_micro_dollars().value();
        assert!((micro - 9.40).abs() < 0.05, "got {micro}");
    }

    #[test]
    fn perfect_yield_reduces_to_pure_geometry() {
        let model = TransistorCostModel::new(Wafer::six_inch(), dollars(1000.0), PerfectYield);
        let result = model
            .evaluate(
                square_die(1.0),
                TransistorCount::from_millions(1.0).unwrap(),
            )
            .unwrap();
        assert_eq!(result.die_yield, Probability::ONE);
        assert!((result.good_dies_per_wafer - result.dies_per_wafer.as_f64()).abs() < 1e-12);
        let per_die = 1000.0 / result.dies_per_wafer.as_f64();
        assert!((result.cost_per_good_die.value() - per_die).abs() < 1e-12);
    }

    #[test]
    fn oversized_die_errors() {
        let model = TransistorCostModel::new(Wafer::six_inch(), dollars(1000.0), PerfectYield);
        let err = model
            .evaluate(
                square_die(400.0),
                TransistorCount::from_millions(1.0).unwrap(),
            )
            .unwrap_err();
        assert!(matches!(err, CostError::NoDiesFit { .. }));
    }

    #[test]
    fn zero_yield_errors() {
        let model = TransistorCostModel::new(
            Wafer::six_inch(),
            dollars(1000.0),
            y0(1e-300), // astronomically bad reference yield
        );
        // Large die drives Y to exactly 0 in f64.
        let err = model
            .evaluate(
                square_die(4.0),
                TransistorCount::from_millions(1.0).unwrap(),
            )
            .unwrap_err();
        assert!(matches!(err, CostError::ZeroYield { .. }));
    }

    #[test]
    fn methods_give_similar_costs() {
        let die = square_die(1.0);
        let n = TransistorCount::from_millions(1.0).unwrap();
        let reference = TransistorCostModel::new(Wafer::six_inch(), dollars(1000.0), y0(0.8))
            .evaluate(die, n)
            .unwrap()
            .cost_per_transistor
            .value();
        for method in [
            DiesPerWaferMethod::Raster { offset_steps: 8 },
            DiesPerWaferMethod::GrossEstimate,
            DiesPerWaferMethod::EdgeCorrected,
        ] {
            let cost = TransistorCostModel::new(Wafer::six_inch(), dollars(1000.0), y0(0.8))
                .dies_per_wafer_method(method)
                .evaluate(die, n)
                .unwrap()
                .cost_per_transistor
                .value();
            assert!(
                (cost - reference).abs() / reference < 0.15,
                "{method:?}: {cost} vs {reference}"
            );
        }
    }

    #[test]
    fn cost_scales_inversely_with_transistor_count() {
        let model = TransistorCostModel::new(Wafer::six_inch(), dollars(1000.0), y0(0.8));
        let die = square_die(1.0);
        let c1 = model
            .evaluate(die, TransistorCount::from_millions(1.0).unwrap())
            .unwrap()
            .cost_per_transistor
            .value();
        let c2 = model
            .evaluate(die, TransistorCount::from_millions(2.0).unwrap())
            .unwrap()
            .cost_per_transistor
            .value();
        assert!((c1 / c2 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn better_yield_is_cheaper() {
        let die = square_die(2.0);
        let n = TransistorCount::from_millions(1.0).unwrap();
        let good = TransistorCostModel::new(Wafer::six_inch(), dollars(1000.0), y0(0.9))
            .evaluate(die, n)
            .unwrap();
        let bad = TransistorCostModel::new(Wafer::six_inch(), dollars(1000.0), y0(0.6))
            .evaluate(die, n)
            .unwrap();
        assert!(good.cost_per_transistor < bad.cost_per_transistor);
    }
}
