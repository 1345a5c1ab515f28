//! Yield learning: defect density as a function of process maturity.
//!
//! Scenario #1's critical assumption S1.3 — "at the mature stage of each
//! technology generation the yield is 100%" — presumes that defect
//! density is *learned down* over time. Sec. V lists "computer aids in
//! rapid yield learning" among the survival strategies for niche
//! manufacturers. The standard industrial model is exponential learning:
//!
//! ```text
//!   D(t) = D_mature + (D_start − D_mature) · e^{−t/τ}
//! ```
//!
//! with `τ` the learning time constant (months). This module models the
//! curve, answers "when do we reach an economic yield?", and prices the
//! ramp (wafers started before yield matures are mostly scrap — a real
//! cost of entering a new node that eq. (1) alone does not show).

use maly_units::{
    DefectDensity, Dollars, Probability, ProductionVolume, SquareCentimeters, UnitError,
};

use crate::{PoissonYield, YieldModel};

/// An exponential defect-density learning curve.
///
/// # Examples
///
/// ```
/// use maly_units::{DefectDensity, SquareCentimeters};
/// use maly_yield_model::learning::LearningCurve;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let curve = LearningCurve::new(
///     DefectDensity::new(5.0)?,  // at process bring-up
///     DefectDensity::new(0.5)?,  // mature floor
///     6.0,                       // τ = 6 months
/// )?;
/// let die = SquareCentimeters::new(1.0)?;
/// // Yield improves monotonically with maturity.
/// assert!(curve.yield_at(12.0, die) > curve.yield_at(3.0, die));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LearningCurve {
    start: DefectDensity,
    mature: DefectDensity,
    tau_months: f64,
}

impl LearningCurve {
    /// Creates a curve from the bring-up density, the mature floor and
    /// the time constant `τ` in months.
    ///
    /// # Errors
    ///
    /// Returns an error unless `start > mature` and `τ > 0` (a curve
    /// that doesn't learn isn't a learning curve).
    pub fn new(
        start: DefectDensity,
        mature: DefectDensity,
        tau_months: f64,
    ) -> Result<Self, UnitError> {
        if start.value() <= mature.value() {
            return Err(UnitError::OutOfRange {
                quantity: "starting defect density",
                value: start.value(),
                min: mature.value(),
                max: f64::INFINITY,
            });
        }
        if !tau_months.is_finite() || tau_months <= 0.0 {
            return Err(UnitError::NotPositive {
                quantity: "learning time constant",
                value: tau_months,
            });
        }
        Ok(Self {
            start,
            mature,
            tau_months,
        })
    }

    /// Defect density after `months` of production learning.
    ///
    /// # Panics
    ///
    /// Panics if `months` is negative or not finite.
    #[must_use]
    pub fn density_at(&self, months: f64) -> DefectDensity {
        assert!(
            months.is_finite() && months >= 0.0,
            "maturity must be non-negative, got {months}"
        );
        let excess = self.start.value() - self.mature.value();
        DefectDensity::clamped(self.mature.value() + excess * (-months / self.tau_months).exp())
    }

    /// Die yield after `months` of learning (Poisson on the learned
    /// density).
    #[must_use]
    pub fn yield_at(&self, months: f64, die_area: SquareCentimeters) -> Probability {
        PoissonYield::new(self.density_at(months)).die_yield(die_area)
    }

    /// Months of learning needed to reach `target` density; `None` if the
    /// target is below the mature floor (never reached).
    #[must_use]
    fn months_to_density(&self, target: DefectDensity) -> Option<f64> {
        if target.value() <= self.mature.value() {
            return None;
        }
        if target.value() >= self.start.value() {
            return Some(0.0);
        }
        let excess = self.start.value() - self.mature.value();
        let fraction = (target.value() - self.mature.value()) / excess;
        Some(-self.tau_months * fraction.ln())
    }

    /// Months of learning needed for a die of `die_area` to reach
    /// `target_yield`; `None` if unreachable even at maturity.
    #[must_use]
    pub fn months_to_yield(
        &self,
        target_yield: Probability,
        die_area: SquareCentimeters,
    ) -> Option<f64> {
        let y = target_yield.value();
        if y <= 0.0 {
            return Some(0.0);
        }
        if y >= 1.0 {
            return None;
        }
        // Required density: D = −ln(Y)/A.
        let required = -y.ln() / die_area.value();
        DefectDensity::new(required)
            .ok()
            .and_then(|d| self.months_to_density(d))
    }

    /// Average yield over a ramp of `months` (time-weighted, monthly
    /// sampling) — what the ramp's wafers actually deliver.
    #[must_use]
    fn average_ramp_yield(&self, months: f64, die_area: SquareCentimeters) -> Probability {
        assert!(months > 0.0, "ramp must have positive length");
        let samples = (months.ceil() as usize).max(1);
        let total: f64 = (0..samples)
            .map(|i| {
                let t = months * (i as f64 + 0.5) / samples as f64;
                self.yield_at(t, die_area).value()
            })
            .sum();
        Probability::clamped(total / samples as f64)
    }

    /// Extra silicon cost of the ramp, relative to producing the same
    /// good dies at mature yield: `(1/Y_ramp − 1/Y_mature) · C_die_raw`
    /// summed over the ramp volume.
    ///
    /// `wafer_cost / dies_per_wafer` is the raw (pre-yield) die cost.
    #[must_use]
    pub fn ramp_scrap_premium(
        &self,
        months: f64,
        die_area: SquareCentimeters,
        raw_die_cost: Dollars,
        dies_ramped: ProductionVolume,
    ) -> Dollars {
        let ramp_yield = self.average_ramp_yield(months, die_area).value();
        let mature_yield = PoissonYield::new(self.mature).die_yield(die_area).value();
        let per_good_ramp = raw_die_cost.value() / ramp_yield;
        let per_good_mature = raw_die_cost.value() / mature_yield;
        Dollars::clamped((per_good_ramp - per_good_mature) * dies_ramped.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve() -> LearningCurve {
        LearningCurve::new(
            DefectDensity::new(5.0).unwrap(),
            DefectDensity::new(0.5).unwrap(),
            6.0,
        )
        .unwrap()
    }

    fn die() -> SquareCentimeters {
        SquareCentimeters::new(1.0).unwrap()
    }

    #[test]
    fn density_decays_from_start_to_floor() {
        let c = curve();
        assert!((c.density_at(0.0).value() - 5.0).abs() < 1e-12);
        // One time constant: floor + excess/e.
        let expected = 0.5 + 4.5 / std::f64::consts::E;
        assert!((c.density_at(6.0).value() - expected).abs() < 1e-12);
        // Far future: the floor.
        assert!((c.density_at(120.0).value() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn yield_improves_monotonically() {
        let c = curve();
        let mut last = 0.0;
        for months in [0.0, 2.0, 6.0, 12.0, 24.0] {
            let y = c.yield_at(months, die()).value();
            assert!(y > last);
            last = y;
        }
    }

    #[test]
    fn months_to_density_inverts_density_at() {
        let c = curve();
        let target = c.density_at(9.3);
        let t = c.months_to_density(target).unwrap();
        assert!((t - 9.3).abs() < 1e-9);
    }

    #[test]
    fn unreachable_targets_are_none() {
        let c = curve();
        assert!(c
            .months_to_density(DefectDensity::new(0.4).unwrap())
            .is_none());
        assert!(c.months_to_yield(Probability::ONE, die()).is_none());
        // Yield above the mature capability of a big die: unreachable.
        let big = SquareCentimeters::new(10.0).unwrap();
        assert!(c
            .months_to_yield(Probability::new(0.9).unwrap(), big)
            .is_none());
    }

    #[test]
    fn months_to_yield_is_achieved_at_that_time() {
        let c = curve();
        let target = Probability::new(0.5).unwrap();
        let t = c.months_to_yield(target, die()).unwrap();
        let achieved = c.yield_at(t, die()).value();
        assert!((achieved - 0.5).abs() < 1e-9, "achieved {achieved}");
    }

    #[test]
    fn average_ramp_yield_is_between_start_and_end() {
        let c = curve();
        let avg = c.average_ramp_yield(12.0, die()).value();
        let start = c.yield_at(0.0, die()).value();
        let end = c.yield_at(12.0, die()).value();
        assert!(avg > start && avg < end);
    }

    #[test]
    fn scrap_premium_positive_and_decreasing_with_faster_learning() {
        let slow = LearningCurve::new(
            DefectDensity::new(5.0).unwrap(),
            DefectDensity::new(0.5).unwrap(),
            12.0,
        )
        .unwrap();
        let fast = LearningCurve::new(
            DefectDensity::new(5.0).unwrap(),
            DefectDensity::new(0.5).unwrap(),
            3.0,
        )
        .unwrap();
        let raw = Dollars::new(20.0).unwrap();
        let volume = ProductionVolume::new(10_000.0).unwrap();
        let premium_slow = slow.ramp_scrap_premium(12.0, die(), raw, volume);
        let premium_fast = fast.ramp_scrap_premium(12.0, die(), raw, volume);
        assert!(premium_slow.value() > premium_fast.value());
        assert!(premium_fast.value() > 0.0);
    }

    #[test]
    fn constructor_validation() {
        let d5 = DefectDensity::new(5.0).unwrap();
        let d05 = DefectDensity::new(0.5).unwrap();
        assert!(LearningCurve::new(d05, d5, 6.0).is_err()); // inverted
        assert!(LearningCurve::new(d5, d05, 0.0).is_err());
        assert!(LearningCurve::new(d5, d05, f64::NAN).is_err());
    }

    #[test]
    #[should_panic(expected = "maturity")]
    fn negative_maturity_panics() {
        let _ = curve().density_at(-1.0);
    }
}
