//! Product scenarios — the rows of Table 3.
//!
//! A [`ProductScenario`] bundles the seven inputs of the paper's cost
//! diversity study (`N_tr`, λ, `d_d`, `R_w`, `Y₀`, `C₀`, `X`) plus a
//! product label, and evaluates the cost model built from eqs (1), (3),
//! (4) and the area-scaled yield convention. This is the quantitative
//! anchor of the reproduction: all fully specified printed rows come out
//! within half a percent.

use maly_units::{
    Centimeters, DesignDensity, Dollars, Microns, Probability, SquareCentimeters, TransistorCount,
};
use maly_wafer_geom::{DieDimensions, Wafer};
use maly_yield_model::AreaScaledYield;

use crate::{
    density, CostBreakdown, CostError, DiesPerWaferMethod, TransistorCostModel, WaferCostModel,
};

/// One product/manufacturing scenario (a Table 3 row).
///
/// Construct with [`ProductScenario::builder`].
///
/// # Examples
///
/// ```
/// use maly_cost_model::product::ProductScenario;
/// use maly_units::{
///     Centimeters, DesignDensity, Dollars, Microns, Probability, TransistorCount,
/// };
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Table 3 row 13: 256 Mb DRAM.
/// let dram = ProductScenario::builder("DRAM, 256Mb")
///     .transistors(TransistorCount::new(264.0e6)?)
///     .feature_size(Microns::new(0.25)?)
///     .design_density(DesignDensity::new(29.0)?)
///     .wafer_radius(Centimeters::new(7.5)?)
///     .reference_yield(Probability::new(0.9)?)
///     .reference_wafer_cost(Dollars::new(600.0)?)
///     .cost_escalation(1.8)?
///     .build()?;
/// let micro = dram.evaluate()?.cost_per_transistor.to_micro_dollars().value();
/// assert!((micro - 1.31).abs() < 0.01); // paper prints 1.31 µ$
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProductScenario {
    name: String,
    transistors: TransistorCount,
    lambda: Microns,
    density: DesignDensity,
    wafer: Wafer,
    reference_yield: Probability,
    wafer_cost_model: WaferCostModel,
    dies_per_wafer_method: DiesPerWaferMethod,
}

impl ProductScenario {
    /// Starts building a scenario with the given product label.
    #[must_use]
    pub fn builder(name: impl Into<String>) -> ProductScenarioBuilder {
        ProductScenarioBuilder::new(name)
    }

    /// Product label.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Transistor count `N_tr`.
    #[must_use]
    pub fn transistors(&self) -> TransistorCount {
        self.transistors
    }

    /// Feature size λ.
    #[must_use]
    pub fn feature_size(&self) -> Microns {
        self.lambda
    }

    /// Design density `d_d`.
    #[must_use]
    pub fn design_density(&self) -> DesignDensity {
        self.density
    }

    /// The wafer manufactured on.
    #[must_use]
    pub fn wafer(&self) -> &Wafer {
        &self.wafer
    }

    /// Reference (1 cm²) yield `Y₀`.
    #[must_use]
    pub fn reference_yield(&self) -> Probability {
        self.reference_yield
    }

    /// The wafer cost model (`C₀`, `X`).
    #[must_use]
    pub fn wafer_cost_model(&self) -> &WaferCostModel {
        &self.wafer_cost_model
    }

    /// Die area implied by eq. (5).
    #[must_use]
    pub fn die_area(&self) -> SquareCentimeters {
        density::die_area(self.transistors, self.density, self.lambda)
    }

    /// The (square) die outline.
    #[must_use]
    pub fn die(&self) -> DieDimensions {
        DieDimensions::square_with_area(self.die_area())
    }

    /// Evaluates the full cost model for this scenario.
    ///
    /// # Errors
    ///
    /// Propagates [`CostError::NoDiesFit`] / [`CostError::ZeroYield`] from
    /// the underlying model — both indicate a physically impossible
    /// scenario (die larger than the wafer, or a yield that collapsed).
    pub fn evaluate(&self) -> Result<CostBreakdown, CostError> {
        let wafer_cost = self.wafer_cost_model.wafer_cost(self.lambda);
        let model = TransistorCostModel::new(
            self.wafer,
            wafer_cost,
            AreaScaledYield::per_square_centimeter(self.reference_yield),
        )
        .dies_per_wafer_method(self.dies_per_wafer_method);
        model.evaluate(self.die(), self.transistors)
    }

    /// Re-evaluates the scenario at a different feature size, keeping the
    /// transistor count and density fixed (a *shrink study*: same design,
    /// next node).
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::evaluate`].
    pub fn evaluate_at(&self, lambda: Microns) -> Result<CostBreakdown, CostError> {
        let mut shrunk = self.clone();
        shrunk.lambda = lambda;
        shrunk.evaluate()
    }
}

impl std::fmt::Display for ProductScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({} at {}, d_d = {})",
            self.name,
            self.transistors,
            self.lambda,
            self.density.value()
        )
    }
}

/// Builder for [`ProductScenario`] (C-BUILDER).
#[derive(Debug, Clone)]
pub struct ProductScenarioBuilder {
    name: String,
    transistors: Option<TransistorCount>,
    lambda: Option<Microns>,
    density: Option<DesignDensity>,
    wafer: Option<Wafer>,
    reference_yield: Option<Probability>,
    reference_cost: Option<Dollars>,
    escalation: Option<f64>,
    generation_rate: f64,
    dies_per_wafer_method: DiesPerWaferMethod,
}

impl ProductScenarioBuilder {
    fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            transistors: None,
            lambda: None,
            density: None,
            wafer: None,
            reference_yield: None,
            reference_cost: None,
            escalation: None,
            generation_rate: WaferCostModel::CALIBRATED_GENERATION_RATE,
            dies_per_wafer_method: DiesPerWaferMethod::default(),
        }
    }

    /// Sets `N_tr`.
    #[must_use]
    pub fn transistors(mut self, count: TransistorCount) -> Self {
        self.transistors = Some(count);
        self
    }

    /// Sets λ.
    #[must_use]
    pub fn feature_size(mut self, lambda: Microns) -> Self {
        self.lambda = Some(lambda);
        self
    }

    /// Sets `d_d`.
    #[must_use]
    pub fn design_density(mut self, d_d: DesignDensity) -> Self {
        self.density = Some(d_d);
        self
    }

    /// Sets the wafer radius (Table 3 prints `R_w` in centimeters).
    #[must_use]
    pub fn wafer_radius(mut self, r_w: Centimeters) -> Self {
        self.wafer = Some(Wafer::with_radius(r_w));
        self
    }

    /// Sets the full wafer description (edge exclusion, saw street).
    #[must_use]
    pub fn wafer(mut self, wafer: Wafer) -> Self {
        self.wafer = Some(wafer);
        self
    }

    /// Sets the 1 cm² reference yield `Y₀`.
    #[must_use]
    pub fn reference_yield(mut self, y0: Probability) -> Self {
        self.reference_yield = Some(y0);
        self
    }

    /// Sets the reference wafer cost `C₀`.
    #[must_use]
    pub fn reference_wafer_cost(mut self, c0: Dollars) -> Self {
        self.reference_cost = Some(c0);
        self
    }

    /// Sets the cost escalation factor `X`.
    ///
    /// # Errors
    ///
    /// Returns an error for `X < 1`.
    pub fn cost_escalation(mut self, x: f64) -> Result<Self, CostError> {
        if !x.is_finite() || x < 1.0 {
            return Err(CostError::InvalidInput(maly_units::UnitError::OutOfRange {
                quantity: "cost escalation factor X",
                value: x,
                min: 1.0,
                max: f64::INFINITY,
            }));
        }
        self.escalation = Some(x);
        Ok(self)
    }

    /// Overrides the generation rate `k` in the eq. (3) exponent
    /// (defaults to the calibrated 5 /µm).
    #[must_use]
    pub fn generation_rate(mut self, k: f64) -> Self {
        self.generation_rate = k;
        self
    }

    /// Overrides the dies-per-wafer method (defaults to eq. 4).
    #[must_use]
    pub fn dies_per_wafer_method(mut self, method: DiesPerWaferMethod) -> Self {
        self.dies_per_wafer_method = method;
        self
    }

    /// Finalizes the scenario.
    ///
    /// # Errors
    ///
    /// Returns [`CostError::MissingField`] naming the first field that was
    /// never set, or an invalid-input error from the wafer cost model.
    pub fn build(self) -> Result<ProductScenario, CostError> {
        let missing = |field| CostError::MissingField { field };
        let transistors = self.transistors.ok_or(missing("transistors"))?;
        let lambda = self.lambda.ok_or(missing("feature_size"))?;
        let density = self.density.ok_or(missing("design_density"))?;
        let wafer = self.wafer.ok_or(missing("wafer_radius"))?;
        let reference_yield = self.reference_yield.ok_or(missing("reference_yield"))?;
        let reference_cost = self.reference_cost.ok_or(missing("reference_wafer_cost"))?;
        let escalation = self.escalation.ok_or(missing("cost_escalation"))?;
        let wafer_cost_model =
            WaferCostModel::with_generation_rate(reference_cost, escalation, self.generation_rate)?;
        Ok(ProductScenario {
            name: self.name,
            transistors,
            lambda,
            density,
            wafer,
            reference_yield,
            wafer_cost_model,
            dies_per_wafer_method: self.dies_per_wafer_method,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::too_many_arguments)]
    fn row(
        name: &str,
        n_tr: f64,
        lambda: f64,
        d_d: f64,
        r_w: f64,
        y0: f64,
        c0: f64,
        x: f64,
    ) -> ProductScenario {
        ProductScenario::builder(name)
            .transistors(TransistorCount::new(n_tr).unwrap())
            .feature_size(Microns::new(lambda).unwrap())
            .design_density(DesignDensity::new(d_d).unwrap())
            .wafer_radius(Centimeters::new(r_w).unwrap())
            .reference_yield(Probability::new(y0).unwrap())
            .reference_wafer_cost(Dollars::new(c0).unwrap())
            .cost_escalation(x)
            .unwrap()
            .build()
            .unwrap()
    }

    fn micro_cost(s: &ProductScenario) -> f64 {
        s.evaluate()
            .unwrap()
            .cost_per_transistor
            .to_micro_dollars()
            .value()
    }

    #[test]
    fn table3_rows_1_to_3_reproduce() {
        // Same µP at three (Y0, X) pessimism levels.
        let r1 = row("row1", 3.1e6, 0.8, 150.0, 7.5, 0.9, 700.0, 1.4);
        let r2 = row("row2", 3.1e6, 0.8, 150.0, 7.5, 0.7, 700.0, 1.8);
        let r3 = row("row3", 3.1e6, 0.8, 150.0, 7.5, 0.6, 700.0, 2.2);
        assert!((micro_cost(&r1) - 9.40).abs() < 0.05, "{}", micro_cost(&r1));
        assert!((micro_cost(&r2) - 25.5).abs() < 0.1, "{}", micro_cost(&r2));
        assert!((micro_cost(&r3) - 49.3).abs() < 0.2, "{}", micro_cost(&r3));
    }

    #[test]
    fn table3_memory_rows_reproduce() {
        let sram = row("SRAM 1Mb", 6.2e6, 0.35, 36.0, 7.5, 0.9, 500.0, 1.8);
        let dram256 = row("DRAM 256Mb", 264.0e6, 0.25, 29.0, 7.5, 0.9, 600.0, 1.8);
        let dram256_8in = row("DRAM 256Mb", 264.0e6, 0.25, 29.0, 10.0, 0.7, 600.0, 1.8);
        assert!(
            (micro_cost(&sram) - 0.93).abs() < 0.01,
            "{}",
            micro_cost(&sram)
        );
        assert!(
            (micro_cost(&dram256) - 1.31).abs() < 0.01,
            "{}",
            micro_cost(&dram256)
        );
        assert!(
            (micro_cost(&dram256_8in) - 2.18).abs() < 0.02,
            "{}",
            micro_cost(&dram256_8in)
        );
    }

    #[test]
    fn table3_pld_row_reproduces() {
        // Row 17: 7.2k transistors at d_d = 2600 — the most expensive
        // transistors in the table, 240 µ$.
        let pld = row("PLD", 7.2e3, 0.8, 2600.0, 7.5, 0.7, 1300.0, 1.8);
        assert!(
            (micro_cost(&pld) - 240.0).abs() < 12.0,
            "{}",
            micro_cost(&pld)
        );
    }

    #[test]
    fn memory_vs_logic_cost_gap() {
        // The paper's headline diversity: DRAM transistors are ~20× cheaper
        // than µP transistors under comparable assumptions.
        let dram = row("DRAM", 264.0e6, 0.25, 29.0, 7.5, 0.9, 600.0, 1.8);
        let up = row("µP", 3.1e6, 0.8, 150.0, 7.5, 0.7, 700.0, 1.8);
        assert!(micro_cost(&up) / micro_cost(&dram) > 15.0);
    }

    #[test]
    fn missing_field_is_reported_by_name() {
        let err = ProductScenario::builder("incomplete")
            .transistors(TransistorCount::new(1.0e6).unwrap())
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            CostError::MissingField {
                field: "feature_size"
            }
        );
    }

    #[test]
    fn shrink_study_via_evaluate_at() {
        // Row 2 shrunk to 0.65 µm: smaller die, better yield, pricier
        // wafer. For X = 1.8 the shrink wins.
        let r2 = row("row2", 3.1e6, 0.8, 150.0, 7.5, 0.7, 700.0, 1.8);
        let at_065 = r2
            .evaluate_at(Microns::new(0.65).unwrap())
            .unwrap()
            .cost_per_transistor
            .to_micro_dollars()
            .value();
        assert!(at_065 < micro_cost(&r2));
    }

    #[test]
    fn accessors_expose_inputs() {
        let r = row("x", 3.1e6, 0.8, 150.0, 7.5, 0.9, 700.0, 1.4);
        assert_eq!(r.name(), "x");
        assert_eq!(r.feature_size().value(), 0.8);
        assert_eq!(r.design_density().value(), 150.0);
        assert_eq!(r.reference_yield().value(), 0.9);
        assert!((r.die_area().value() - 2.976).abs() < 1e-9);
        assert!(r.to_string().contains("3.10M tr"));
    }

    #[test]
    fn builder_validates_inputs() {
        // Bad magnitudes never reach the builder: the newtypes reject
        // them at construction. The builder's own check is X ≥ 1.
        assert!(TransistorCount::new(-1.0).is_err());
        assert!(Microns::new(0.0).is_err());
        assert!(Probability::new(1.5).is_err());
        assert!(ProductScenario::builder("bad")
            .cost_escalation(0.5)
            .is_err());
    }
}
