//! Fig 3 — the die-size trend `A_ch(λ)`.
//!
//! Scenario #2 assumes "a number of transistors growing such that
//! technology trends shown in Fig. 3 are followed"; eq. (9) encodes the
//! trend as `A_ch(λ) = 16.5 · exp(−5.3·λ)` cm², extracted from the Fig 3
//! data. This module carries that model and can re-extract it from die
//! size data.

use maly_units::{Microns, SquareCentimeters, UnitError};

use crate::fit;

/// The exponential die-size trend `A_ch(λ) = a · e^{b·λ}` (cm², λ in µm).
///
/// # Examples
///
/// ```
/// use maly_units::Microns;
/// use maly_tech_trend::diesize::DieSizeTrend;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let trend = DieSizeTrend::paper_fit();
/// // The paper's extracted values: 16.5 and −5.3.
/// assert_eq!(trend.amplitude_cm2(), 16.5);
/// assert_eq!(trend.rate_per_um(), -5.3);
/// // At 0.5 µm a leading die is ~1.16 cm².
/// let a = trend.area_at(Microns::new(0.5)?)?;
/// assert!((a.value() - 1.16).abs() < 0.01);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DieSizeTrend {
    amplitude_cm2: f64,
    rate_per_um: f64,
}

impl DieSizeTrend {
    /// Creates a trend `A_ch(λ) = amplitude · e^{rate·λ}`.
    ///
    /// # Errors
    ///
    /// Returns an error unless `amplitude > 0` and `rate < 0` (die sizes
    /// must grow as λ shrinks — that is the Fig 3 observation).
    pub fn new(amplitude_cm2: f64, rate_per_um: f64) -> Result<Self, UnitError> {
        if !amplitude_cm2.is_finite() || amplitude_cm2 <= 0.0 {
            return Err(UnitError::NotPositive {
                quantity: "die size trend amplitude",
                value: amplitude_cm2,
            });
        }
        if !rate_per_um.is_finite() || rate_per_um >= 0.0 {
            return Err(UnitError::OutOfRange {
                quantity: "die size trend rate",
                value: rate_per_um,
                min: f64::NEG_INFINITY,
                max: 0.0,
            });
        }
        Ok(Self {
            amplitude_cm2,
            rate_per_um,
        })
    }

    /// The paper's extracted fit: `16.5 · exp(−5.3·λ)`.
    #[must_use]
    pub fn paper_fit() -> Self {
        Self {
            amplitude_cm2: 16.5,
            rate_per_um: -5.3,
        }
    }

    /// Re-extracts the trend from `(λ, area)` data, e.g.
    /// [`crate::datasets::DIE_SIZE_BY_GENERATION`].
    ///
    /// # Errors
    ///
    /// Propagates fit failures (too few points, non-positive areas).
    pub fn fit(points: &[(f64, f64)]) -> Result<Self, UnitError> {
        let exp_fit = fit::fit_exponential(points)?;
        Self::new(exp_fit.amplitude(), exp_fit.rate())
    }

    /// Amplitude `a` (cm² extrapolated to λ = 0).
    #[must_use]
    pub fn amplitude_cm2(&self) -> f64 {
        self.amplitude_cm2
    }

    /// Rate `b` (per µm, negative).
    #[must_use]
    pub fn rate_per_um(&self) -> f64 {
        self.rate_per_um
    }

    /// Die area at feature size λ.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError::NotPositive`] where `e^{b·λ}` underflows and
    /// the area rounds to 0 cm² (λ above ~140.6 µm for the paper fit).
    pub fn area_at(&self, lambda: Microns) -> Result<SquareCentimeters, UnitError> {
        SquareCentimeters::new(self.amplitude_cm2 * (self.rate_per_um * lambda.value()).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets;

    fn um(v: f64) -> Microns {
        Microns::new(v).unwrap()
    }

    #[test]
    fn paper_fit_values_at_key_nodes() {
        let t = DieSizeTrend::paper_fit();
        // Spot values used when validating Fig 7 by hand.
        assert!((t.area_at(um(0.8)).unwrap().value() - 0.238).abs() < 5e-3);
        assert!((t.area_at(um(0.25)).unwrap().value() - 4.387).abs() < 5e-3);
    }

    #[test]
    fn area_grows_as_lambda_shrinks() {
        let t = DieSizeTrend::paper_fit();
        let mut last = 0.0;
        for l in [1.0, 0.8, 0.65, 0.5, 0.35, 0.25] {
            let a = t.area_at(um(l)).unwrap().value();
            assert!(a > last);
            last = a;
        }
    }

    #[test]
    fn fit_recovers_paper_coefficients_from_dataset() {
        let t = DieSizeTrend::fit(datasets::DIE_SIZE_BY_GENERATION).unwrap();
        assert!(
            (t.amplitude_cm2() - 16.5).abs() < 1.0,
            "amplitude {}",
            t.amplitude_cm2()
        );
        assert!(
            (t.rate_per_um() - (-5.3)).abs() < 0.15,
            "rate {}",
            t.rate_per_um()
        );
    }

    #[test]
    fn area_underflow_is_an_error_not_a_panic() {
        // 16.5 · e^{−5.3·200} underflows to 0 cm², which no area holds.
        let t = DieSizeTrend::paper_fit();
        assert!(t.area_at(um(140.0)).is_ok());
        assert!(matches!(
            t.area_at(um(200.0)),
            Err(UnitError::NotPositive { .. })
        ));
    }

    #[test]
    fn constructor_validates_signs() {
        assert!(DieSizeTrend::new(-1.0, -5.3).is_err());
        assert!(DieSizeTrend::new(16.5, 0.1).is_err());
        assert!(DieSizeTrend::new(16.5, 0.0).is_err());
    }
}
