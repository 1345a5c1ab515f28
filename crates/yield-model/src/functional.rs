//! Closed-form functional (spot-defect) yield models.

use maly_units::{DefectDensity, Microns, Probability, ReferenceDefectDensity, SquareCentimeters};

use crate::YieldModel;

/// Converts an "expected faults per die" exponent into a probability,
/// guarding against rounding excursions outside `[0, 1]`.
fn prob(value: f64) -> Probability {
    Probability::clamped(value)
}

/// The standard Poisson yield model, eq. (6): `Y = exp(−A_ch · D₀)`.
///
/// Assumes killing defects arrive independently and uniformly — the
/// simplest and most pessimistic of the classical models for a given
/// defect density.
///
/// # Examples
///
/// ```
/// use maly_units::{DefectDensity, SquareCentimeters};
/// use maly_yield_model::{PoissonYield, YieldModel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let model = PoissonYield::new(DefectDensity::new(0.5)?);
/// let y = model.die_yield(SquareCentimeters::new(2.0)?);
/// assert!((y.value() - (-1.0f64).exp()).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonYield {
    d0: DefectDensity,
}

impl PoissonYield {
    /// Creates a Poisson model with killing-defect density `d0`.
    #[must_use]
    pub fn new(d0: DefectDensity) -> Self {
        Self { d0 }
    }

    /// The defect density `D₀`.
    #[must_use]
    pub fn defect_density(&self) -> DefectDensity {
        self.d0
    }

    /// The defect density that explains an observed `(area, yield)` pair
    /// under Poisson statistics: `D₀ = −ln(Y)/A`.
    ///
    /// Returns `None` for `Y = 0` (infinite density) or `Y = 1`
    /// (zero density, which [`DefectDensity`] rejects — use
    /// [`PerfectYield`] instead).
    #[must_use]
    pub fn from_observation(area: SquareCentimeters, observed: Probability) -> Option<Self> {
        let y = observed.value();
        if y <= 0.0 || y >= 1.0 {
            return None;
        }
        DefectDensity::new(-y.ln() / area.value())
            .ok()
            .map(Self::new)
    }
}

impl YieldModel for PoissonYield {
    fn die_yield(&self, area: SquareCentimeters) -> Probability {
        prob((-self.d0.expected_defects(area)).exp())
    }
}

/// Murphy's yield model: `Y = ((1 − e^{−A·D}) / (A·D))²`.
///
/// Derived by averaging the Poisson model over a triangular distribution
/// of defect densities; less pessimistic than Poisson for large dies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MurphyYield {
    d0: DefectDensity,
}

impl MurphyYield {
    /// Creates a Murphy model with killing-defect density `d0`.
    #[must_use]
    pub fn new(d0: DefectDensity) -> Self {
        Self { d0 }
    }

    /// The defect density `D₀`.
    #[must_use]
    pub fn defect_density(&self) -> DefectDensity {
        self.d0
    }
}

impl YieldModel for MurphyYield {
    fn die_yield(&self, area: SquareCentimeters) -> Probability {
        let ad = self.d0.expected_defects(area);
        if ad < 1e-12 {
            return Probability::ONE;
        }
        let base = (1.0 - (-ad).exp()) / ad;
        prob(base * base)
    }
}

/// Seeds' yield model: `Y = 1 / (1 + A·D)`.
///
/// The exponential-density-mixture limit; the most optimistic classical
/// model (equivalent to negative binomial with `α = 1`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeedsYield {
    d0: DefectDensity,
}

impl SeedsYield {
    /// Creates a Seeds model with killing-defect density `d0`.
    #[must_use]
    pub fn new(d0: DefectDensity) -> Self {
        Self { d0 }
    }

    /// The defect density `D₀`.
    #[must_use]
    pub fn defect_density(&self) -> DefectDensity {
        self.d0
    }
}

impl YieldModel for SeedsYield {
    fn die_yield(&self, area: SquareCentimeters) -> Probability {
        prob(1.0 / (1.0 + self.d0.expected_defects(area)))
    }
}

/// Stapper's negative-binomial yield model:
/// `Y = (1 + A·D/α)^{−α}`.
///
/// `α` is the clustering parameter: defects on real wafers cluster, which
/// *helps* yield (clustered defects waste fewer dies). `α → ∞` recovers
/// Poisson; `α = 1` recovers Seeds. Industrial values are typically 0.3–5.
///
/// # Examples
///
/// ```
/// use maly_units::{DefectDensity, SquareCentimeters};
/// use maly_yield_model::{NegativeBinomialYield, PoissonYield, YieldModel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let d0 = DefectDensity::new(1.0)?;
/// let area = SquareCentimeters::new(2.0)?;
/// let clustered = NegativeBinomialYield::new(d0, 2.0)?;
/// let poisson = PoissonYield::new(d0);
/// assert!(clustered.die_yield(area) > poisson.die_yield(area));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NegativeBinomialYield {
    d0: DefectDensity,
    alpha: f64,
}

impl NegativeBinomialYield {
    /// Creates a negative-binomial model.
    ///
    /// # Errors
    ///
    /// Returns an error if `alpha` is not finite and positive.
    pub fn new(d0: DefectDensity, alpha: f64) -> Result<Self, maly_units::UnitError> {
        if !alpha.is_finite() || alpha <= 0.0 {
            return Err(maly_units::UnitError::NotPositive {
                quantity: "clustering parameter alpha",
                value: alpha,
            });
        }
        Ok(Self { d0, alpha })
    }

    /// The defect density `D₀`.
    #[must_use]
    pub fn defect_density(&self) -> DefectDensity {
        self.d0
    }

    /// The clustering parameter `α`.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

impl YieldModel for NegativeBinomialYield {
    fn die_yield(&self, area: SquareCentimeters) -> Probability {
        let ad = self.d0.expected_defects(area);
        prob((1.0 + ad / self.alpha).powf(-self.alpha))
    }
}

/// Eq. (7): the Poisson model with feature-size defect acceleration,
/// `Y = exp(−A_ch · D/λ^p)`.
///
/// The `1/R^p` tail of the defect size distribution (Fig. 5) means that
/// shrinking λ recruits previously harmless small defects as killers; the
/// effective density grows as `D/λ^p` (λ in µm, `D` in defects/cm² at
/// λ = 1 µm). Fig. 8 uses `D = 1.72`, `p = 4.07`, "extracted from a real
/// manufacturing operation".
///
/// With `A_ch = N_tr·d_d·λ²` this is exactly the printed
/// `Y = exp(−N_tr·d_d·D/λ^{p−2})` (the µm²→cm² conversion is absorbed
/// into `D`, as the paper's calibrated constants do).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaledPoissonYield {
    d_ref: ReferenceDefectDensity,
    p: f64,
    lambda: Microns,
}

impl ScaledPoissonYield {
    /// Creates the eq. (7) model.
    ///
    /// `d_ref` is the defect density at λ = 1 µm; `p` the
    /// size-distribution exponent; `lambda` the minimum feature size.
    ///
    /// # Errors
    ///
    /// Returns an error unless `p > 2` is finite (`p ≤ 2` would make
    /// shrinking *reduce* the fault count, which contradicts the defect
    /// physics of Fig. 5).
    pub fn new(
        d_ref: ReferenceDefectDensity,
        p: f64,
        lambda: Microns,
    ) -> Result<Self, maly_units::UnitError> {
        if !p.is_finite() || p <= 2.0 {
            return Err(maly_units::UnitError::OutOfRange {
                quantity: "defect size exponent p",
                value: p,
                min: 2.0,
                max: f64::INFINITY,
            });
        }
        Ok(Self { d_ref, p, lambda })
    }

    /// The Fig. 8 `D = 1.72` reference defect density.
    pub const FIG8_D: ReferenceDefectDensity = ReferenceDefectDensity::const_new(1.72);
    /// The Fig. 8 `p = 4.07` defect size exponent.
    pub const FIG8_P: f64 = 4.07;

    /// The Fig. 8 calibration: `D = 1.72`, `p = 4.07`.
    ///
    /// # Errors
    ///
    /// Propagates constructor validation (never fails for the built-in
    /// constants; fallible because `lambda` combines with them).
    pub fn fig8_calibration(lambda: Microns) -> Result<Self, maly_units::UnitError> {
        Self::new(Self::FIG8_D, Self::FIG8_P, lambda)
    }

    /// Effective defect density `D/λ^p` at this model's feature size.
    #[must_use]
    pub fn effective_density(&self) -> DefectDensity {
        DefectDensity::clamped(self.d_ref.value() / self.lambda.value().powf(self.p))
    }

    /// The feature size λ.
    #[must_use]
    pub fn lambda(&self) -> Microns {
        self.lambda
    }

    /// The size-distribution exponent `p`.
    #[must_use]
    pub fn exponent(&self) -> f64 {
        self.p
    }
}

impl YieldModel for ScaledPoissonYield {
    fn die_yield(&self, area: SquareCentimeters) -> Probability {
        PoissonYield::new(self.effective_density()).die_yield(area)
    }
}

/// The `Y = Y₀^{A_ch/A₀}` convention of eq. (9) and Table 3.
///
/// `Y₀` is the yield of a reference die of area `A₀` (1 cm² in the
/// paper). Algebraically identical to Poisson with
/// `D₀ = −ln(Y₀)/A₀`, but stated the way fab engineers quote yields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaScaledYield {
    y0: Probability,
    a0: SquareCentimeters,
}

impl AreaScaledYield {
    /// Creates the model from a reference yield and reference area.
    #[must_use]
    pub fn new(y0: Probability, a0: SquareCentimeters) -> Self {
        Self { y0, a0 }
    }

    /// Reference area of 1 cm², the paper's `A₀`.
    #[must_use]
    pub fn per_square_centimeter(y0: Probability) -> Self {
        const A0: SquareCentimeters = SquareCentimeters::const_new(1.0);
        Self::new(y0, A0)
    }

    /// The reference yield `Y₀`.
    #[must_use]
    pub fn reference_yield(&self) -> Probability {
        self.y0
    }

    /// The reference area `A₀`.
    #[must_use]
    pub fn reference_area(&self) -> SquareCentimeters {
        self.a0
    }

    /// The equivalent Poisson defect density `−ln(Y₀)/A₀`, when defined
    /// (`0 < Y₀ < 1`).
    #[must_use]
    pub fn equivalent_poisson(&self) -> Option<PoissonYield> {
        PoissonYield::from_observation(self.a0, self.y0)
    }
}

impl YieldModel for AreaScaledYield {
    fn die_yield(&self, area: SquareCentimeters) -> Probability {
        self.y0.powf(area.value() / self.a0.value())
    }
}

/// The 100%-yield idealization of Scenario #1 (Assumption S1.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PerfectYield;

impl PerfectYield {
    /// Creates the perfect-yield model.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl YieldModel for PerfectYield {
    fn die_yield(&self, _area: SquareCentimeters) -> Probability {
        Probability::ONE
    }
}

/// Product of a functional and a parametric yield model:
/// `Y = Y_fnc · Y_par` (Sec. III.C).
///
/// The parametric factor is area-independent here (global disturbances
/// affect the whole die equally), supplied as a fixed probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompositeYield<F> {
    functional: F,
    parametric: Probability,
}

impl<F: YieldModel> CompositeYield<F> {
    /// Combines a functional model with a parametric yield factor.
    #[must_use]
    pub fn new(functional: F, parametric: Probability) -> Self {
        Self {
            functional,
            parametric,
        }
    }

    /// The parametric factor `Y_par`.
    #[must_use]
    pub fn parametric_yield(&self) -> Probability {
        self.parametric
    }

    /// The functional component.
    #[must_use]
    pub fn functional(&self) -> &F {
        &self.functional
    }
}

impl<F: YieldModel> YieldModel for CompositeYield<F> {
    fn die_yield(&self, area: SquareCentimeters) -> Probability {
        self.functional.die_yield(area) * self.parametric
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn area(v: f64) -> SquareCentimeters {
        SquareCentimeters::new(v).unwrap()
    }

    fn density(v: f64) -> DefectDensity {
        DefectDensity::new(v).unwrap()
    }

    #[test]
    fn poisson_matches_eq6() {
        let y = PoissonYield::new(density(1.72)).die_yield(area(1.0));
        assert!((y.value() - (-1.72f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn poisson_from_observation_roundtrips() {
        let model = PoissonYield::new(density(0.8));
        let observed = model.die_yield(area(2.5));
        let recovered = PoissonYield::from_observation(area(2.5), observed).unwrap();
        assert!((recovered.defect_density().value() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn poisson_from_observation_rejects_degenerate() {
        assert!(PoissonYield::from_observation(area(1.0), Probability::ONE).is_none());
        assert!(PoissonYield::from_observation(area(1.0), Probability::ZERO).is_none());
    }

    #[test]
    fn classical_models_order_poisson_murphy_seeds() {
        // For any positive A·D: Poisson < Murphy < Seeds.
        let d0 = density(1.0);
        for a in [0.2, 1.0, 3.0] {
            let ar = area(a);
            let p = PoissonYield::new(d0).die_yield(ar).value();
            let m = MurphyYield::new(d0).die_yield(ar).value();
            let s = SeedsYield::new(d0).die_yield(ar).value();
            assert!(p < m && m < s, "ordering violated at A={a}: {p} {m} {s}");
        }
    }

    #[test]
    fn negative_binomial_limits() {
        let d0 = density(1.0);
        let ar = area(2.0);
        // α = 1 is exactly Seeds.
        let nb1 = NegativeBinomialYield::new(d0, 1.0).unwrap().die_yield(ar);
        let seeds = SeedsYield::new(d0).die_yield(ar);
        assert!((nb1.value() - seeds.value()).abs() < 1e-12);
        // α → ∞ approaches Poisson.
        let nb_inf = NegativeBinomialYield::new(d0, 1e6).unwrap().die_yield(ar);
        let poisson = PoissonYield::new(d0).die_yield(ar);
        assert!((nb_inf.value() - poisson.value()).abs() < 1e-5);
    }

    #[test]
    fn negative_binomial_rejects_bad_alpha() {
        let d0 = density(1.0);
        assert!(NegativeBinomialYield::new(d0, 0.0).is_err());
        assert!(NegativeBinomialYield::new(d0, -1.0).is_err());
        assert!(NegativeBinomialYield::new(d0, f64::NAN).is_err());
    }

    #[test]
    fn murphy_handles_tiny_ad_without_blowup() {
        let y = MurphyYield::new(density(1e-15)).die_yield(area(1e-3));
        assert_eq!(y, Probability::ONE);
    }

    #[test]
    fn scaled_poisson_matches_eq7_alias() {
        // Y = exp(−A_cm²·D/λ^p); with A = N_tr·d_d·λ²(µm²→cm² in D) this is
        // the printed exp(−N_tr·d_d·D/λ^{p−2}). Spot-check λ = 0.8 µm.
        let lam = Microns::new(0.8).unwrap();
        let model = ScaledPoissonYield::fig8_calibration(lam).unwrap();
        let d_eff = model.effective_density().value();
        assert!((d_eff - 1.72 / 0.8f64.powf(4.07)).abs() < 1e-9);
        let y = model.die_yield(area(1.0));
        assert!((y.value() - (-d_eff).exp()).abs() < 1e-12);
    }

    #[test]
    fn scaled_poisson_shrink_hurts_yield() {
        let a = area(1.0);
        let y_08 = ScaledPoissonYield::fig8_calibration(Microns::new(0.8).unwrap())
            .unwrap()
            .die_yield(a);
        let y_05 = ScaledPoissonYield::fig8_calibration(Microns::new(0.5).unwrap())
            .unwrap()
            .die_yield(a);
        assert!(y_05 < y_08);
    }

    #[test]
    fn scaled_poisson_validates_parameters() {
        let lam = Microns::new(0.8).unwrap();
        // A non-positive D never reaches the model: the newtype rejects it.
        assert!(ReferenceDefectDensity::new(0.0).is_err());
        let d = ReferenceDefectDensity::new(1.0).unwrap();
        assert!(ScaledPoissonYield::new(d, 2.0, lam).is_err());
        assert!(ScaledPoissonYield::new(d, 1.5, lam).is_err());
    }

    #[test]
    fn area_scaled_matches_table3_row2() {
        let model = AreaScaledYield::per_square_centimeter(Probability::new(0.7).unwrap());
        let y = model.die_yield(area(2.976));
        assert!((y.value() - 0.7f64.powf(2.976)).abs() < 1e-12);
    }

    #[test]
    fn area_scaled_reference_area_yields_y0() {
        let y0 = Probability::new(0.9).unwrap();
        let model = AreaScaledYield::per_square_centimeter(y0);
        assert_eq!(model.die_yield(area(1.0)), y0);
    }

    #[test]
    fn area_scaled_equivalent_poisson_agrees() {
        let model = AreaScaledYield::per_square_centimeter(Probability::new(0.7).unwrap());
        let poisson = model.equivalent_poisson().unwrap();
        for a in [0.3, 1.0, 2.976, 4.785] {
            let ya = model.die_yield(area(a)).value();
            let yp = poisson.die_yield(area(a)).value();
            assert!((ya - yp).abs() < 1e-12, "mismatch at {a}");
        }
    }

    #[test]
    fn perfect_yield_is_one_everywhere() {
        assert_eq!(PerfectYield::new().die_yield(area(100.0)), Probability::ONE);
    }

    #[test]
    fn composite_multiplies_factors() {
        let fnc = PoissonYield::new(density(0.5));
        let combo = CompositeYield::new(fnc, Probability::new(0.9).unwrap());
        let a = area(1.0);
        let expected = fnc.die_yield(a).value() * 0.9;
        assert!((combo.die_yield(a).value() - expected).abs() < 1e-12);
        assert_eq!(combo.parametric_yield().value(), 0.9);
    }
}
