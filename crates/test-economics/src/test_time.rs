//! Test time and tester cost per die.
//!
//! "The cost of testing (both probe and final) will grow with a decrease
//! of minimum feature and an increase in the die size" (Sec. III.A.e).
//! The standard first-order model: the number of test vectors needed for
//! a given stuck-at coverage grows roughly with the square root of the
//! gate count (empirically observed across scan designs), each vector
//! costs one tester cycle, and tester time is billed by the hour.

use maly_units::{Dollars, Probability, TransistorCount, UnitError};

/// Tester-floor economics: vector rate and hourly cost.
///
/// # Examples
///
/// ```
/// use maly_units::{Dollars, Probability, TransistorCount};
/// use maly_test_economics::test_time::TesterEconomics;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let tester = TesterEconomics::new(1.0e6, Dollars::new(360.0)?)?;
/// let time = tester.test_seconds(
///     TransistorCount::from_millions(3.1)?,
///     Probability::new(0.95)?,
/// );
/// // Seconds, not hours — but far from free at $0.10/second.
/// assert!(time > 0.1 && time < 60.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TesterEconomics {
    vectors_per_second: f64,
    hourly_rate: Dollars,
}

/// Empirical vectors-per-coverage scaling: `vectors ≈ v₀ · √gates ·
/// stretch(T)` where `stretch` diverges as coverage approaches 1
/// (the last faults are exponentially harder to excite).
const VECTORS_PER_SQRT_GATE: f64 = 2000.0;
/// Transistors per logic gate (4-transistor NAND equivalent).
const TRANSISTORS_PER_GATE: f64 = 4.0;

impl TesterEconomics {
    /// Creates the model from the tester's vector application rate
    /// (vectors/second) and its fully loaded hourly rate.
    ///
    /// # Errors
    ///
    /// Returns an error unless the vector rate is positive and finite.
    pub fn new(vectors_per_second: f64, hourly_rate: Dollars) -> Result<Self, UnitError> {
        if !vectors_per_second.is_finite() || vectors_per_second <= 0.0 {
            return Err(UnitError::NotPositive {
                quantity: "vector rate",
                value: vectors_per_second,
            });
        }
        Ok(Self {
            vectors_per_second,
            hourly_rate,
        })
    }

    /// A representative early-1990s digital tester: 1 M effective
    /// vectors/s (pattern reloads and parametric measures included),
    /// \$360/hour (≈ \$0.10/second).
    #[must_use]
    pub fn typical_1994() -> Self {
        Self {
            vectors_per_second: 1.0e6,
            hourly_rate: Dollars::new(360.0).expect("positive"),
        }
    }

    /// Hourly rate.
    #[must_use]
    pub fn hourly_rate(&self) -> Dollars {
        self.hourly_rate
    }

    /// Vectors needed to reach `coverage` on a design of `transistors`.
    ///
    /// # Panics
    ///
    /// Panics if `coverage` equals 1 exactly — the stuck-at model needs
    /// exponentially many vectors for the last fault; ask for 0.9999…
    #[must_use]
    fn vectors_for(&self, transistors: TransistorCount, coverage: Probability) -> f64 {
        assert!(
            coverage.value() < 1.0,
            "exact 100% coverage needs unbounded vectors; request < 1.0"
        );
        let gates = transistors.value() / TRANSISTORS_PER_GATE;
        // stretch(T) = −ln(1−T): 1 at T≈0.63, ~3 at T=0.95, ~6.9 at 0.999.
        let stretch = -(1.0 - coverage.value()).ln();
        VECTORS_PER_SQRT_GATE * gates.sqrt() * stretch.max(0.1)
    }

    /// Tester seconds per die for a target coverage.
    #[must_use]
    pub fn test_seconds(&self, transistors: TransistorCount, coverage: Probability) -> f64 {
        self.vectors_for(transistors, coverage) / self.vectors_per_second
    }

    /// Tester cost per die for a target coverage.
    #[must_use]
    pub fn cost_per_die(&self, transistors: TransistorCount, coverage: Probability) -> Dollars {
        self.hourly_rate * (self.test_seconds(transistors, coverage) / 3600.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tester() -> TesterEconomics {
        TesterEconomics::typical_1994()
    }

    fn n(millions: f64) -> TransistorCount {
        TransistorCount::from_millions(millions).unwrap()
    }

    fn p(v: f64) -> Probability {
        Probability::new(v).unwrap()
    }

    #[test]
    fn vectors_grow_with_design_size() {
        let t = tester();
        let small = t.vectors_for(n(0.5), p(0.95));
        let large = t.vectors_for(n(8.0), p(0.95));
        assert!((large / small - 4.0).abs() < 1e-9); // √(16×) = 4×
    }

    #[test]
    fn coverage_stretch_diverges() {
        let t = tester();
        let base = t.vectors_for(n(1.0), p(0.63));
        let tight = t.vectors_for(n(1.0), p(0.999));
        assert!(tight > 5.0 * base);
    }

    #[test]
    #[should_panic(expected = "100% coverage")]
    fn exact_full_coverage_rejected() {
        let _ = tester().vectors_for(n(1.0), Probability::ONE);
    }

    #[test]
    fn cost_per_die_is_rate_times_time() {
        let t = tester();
        let secs = t.test_seconds(n(3.1), p(0.95));
        let cost = t.cost_per_die(n(3.1), p(0.95)).value();
        assert!((cost - 360.0 * secs / 3600.0).abs() < 1e-12);
    }

    #[test]
    fn wafer_probe_cost_can_rival_wafer_cost() {
        // Sec. III.A.e's "extreme case": many large dies at high coverage
        // make probing a three-digit dollar item — same order as C_w.
        let t = tester();
        let cost = t.cost_per_die(n(5.0), p(0.999)).value() * 150.0;
        assert!(cost > 50.0, "probe cost {cost}");
    }

    #[test]
    fn validation() {
        assert!(TesterEconomics::new(0.0, Dollars::new(100.0).unwrap()).is_err());
        assert!(TesterEconomics::new(f64::NAN, Dollars::new(100.0).unwrap()).is_err());
    }
}
