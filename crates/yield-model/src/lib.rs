//! IC manufacturing yield models.
//!
//! Yield `Y` — "the probability that a fabricated and tested die functions
//! according to its desired specifications" — is the most sensitive factor
//! of the paper's transistor cost model (eq. 1). This crate implements the
//! paper's models and the classical alternatives needed to judge them:
//!
//! * **Functional yield** (spot defects): [`PoissonYield`] (eq. 6),
//!   [`ScaledPoissonYield`] (eq. 7, with the `D/λ^p` defect acceleration),
//!   [`AreaScaledYield`] (the `Y₀^{A/A₀}` convention of eq. 9 and Table 3),
//!   plus [`MurphyYield`], [`SeedsYield`] and [`NegativeBinomialYield`]
//!   (Stapper clustering) for comparison.
//! * **Defect statistics**: the Fig. 5 defect size distribution
//!   ([`defects::DefectSizeDistribution`]).
//! * **Composite yield**: [`CompositeYield`] forms `Y = Y_fnc · Y_par`
//!   from a functional model and a parametric factor.
//! * **Monte Carlo**: [`monte_carlo`] drops defects on a real
//!   [`maly_wafer_geom::WaferMap`] and measures yield empirically,
//!   validating the closed forms (and exhibiting clustering effects).
//!
//! # Examples
//!
//! ```
//! use maly_units::{Probability, SquareCentimeters};
//! use maly_yield_model::{AreaScaledYield, YieldModel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Table 3 row 2: Y0 = 70% per cm², 2.976 cm² die.
//! let model = AreaScaledYield::per_square_centimeter(Probability::new(0.7)?);
//! let y = model.die_yield(SquareCentimeters::new(2.976)?);
//! assert!((y.value() - 0.346).abs() < 1e-3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod defects;
mod functional;
pub mod monte_carlo;
pub mod prng;
pub mod sampling;

pub use functional::{
    AreaScaledYield, CompositeYield, MurphyYield, NegativeBinomialYield, PerfectYield,
    PoissonYield, ScaledPoissonYield, SeedsYield,
};

use maly_units::{Probability, SquareCentimeters};

/// A die-level manufacturing yield model.
///
/// Implementors map a die area to the probability that a die of that area
/// is functional. All of the paper's cost expressions consume yield
/// through this interface, so models are interchangeable (e.g. swapping
/// eq. (7) for a negative-binomial model in an ablation study).
pub trait YieldModel {
    /// Probability that a die of the given area is functional.
    fn die_yield(&self, area: SquareCentimeters) -> Probability;

    /// Expected number of *good* dies among `gross` candidate dies.
    fn expected_good_dies(&self, area: SquareCentimeters, gross: maly_units::DieCount) -> f64 {
        gross.as_f64() * self.die_yield(area).value()
    }
}

impl<T: YieldModel + ?Sized> YieldModel for &T {
    fn die_yield(&self, area: SquareCentimeters) -> Probability {
        (**self).die_yield(area)
    }
}

impl<T: YieldModel + ?Sized> YieldModel for Box<T> {
    fn die_yield(&self, area: SquareCentimeters) -> Probability {
        (**self).die_yield(area)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maly_units::DefectDensity;

    #[test]
    fn trait_is_object_safe_and_blanket_impls_work() {
        let poisson = PoissonYield::new(DefectDensity::new(0.5).unwrap());
        let boxed: Box<dyn YieldModel> = Box::new(poisson);
        let area = SquareCentimeters::new(1.0).unwrap();
        assert_eq!(boxed.die_yield(area), poisson.die_yield(area));
        let by_ref: &dyn YieldModel = &poisson;
        assert_eq!(by_ref.die_yield(area), poisson.die_yield(area));
    }

    #[test]
    fn expected_good_dies_scales_with_gross() {
        let model = PoissonYield::new(DefectDensity::new(1.0).unwrap());
        let area = SquareCentimeters::new(1.0).unwrap();
        let expected = model.expected_good_dies(area, maly_units::DieCount::new(100));
        assert!((expected - 100.0 * (-1.0f64).exp()).abs() < 1e-9);
    }
}
