//! Calendar roadmaps: cost per transistor as a function of *time*.
//!
//! The paper's figures plot cost against feature size; its argument is
//! about time ("will the cost per transistor keep falling?"). This
//! module composes the Fig 1 node cadence λ(year) with Scenarios #1 and
//! #2 to answer directly: under which assumptions does the historical
//! cost decline continue, and under which does it *reverse* — and when.

use maly_tech_trend::fit::{fit_exponential, ExponentialFit};
use maly_units::{Dollars, Microns, UnitError};

use crate::scenario::{Scenario1, Scenario2};

/// One projected year.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoadmapPoint {
    /// Calendar year.
    pub year: f64,
    /// Feature size the cadence predicts for that year.
    pub lambda: Microns,
    /// Scenario #1 (optimistic) cost per transistor.
    pub optimistic: Dollars,
    /// Scenario #2 (realistic) cost per transistor.
    pub realistic: Dollars,
}

/// A cost-vs-calendar projection.
#[derive(Debug, Clone, PartialEq)]
pub struct CostRoadmap {
    cadence: ExponentialFit,
    optimistic: Scenario1,
    realistic: Scenario2,
}

impl CostRoadmap {
    /// Builds a roadmap from a `(year, λ)` node-cadence dataset (e.g.
    /// [`maly_tech_trend::datasets::FEATURE_SIZE_BY_YEAR`]) and the two
    /// scenarios to project.
    ///
    /// # Errors
    ///
    /// Propagates cadence-fit failures (too few points, non-positive λ).
    pub fn new(
        cadence_data: &[(f64, f64)],
        optimistic: Scenario1,
        realistic: Scenario2,
    ) -> Result<Self, UnitError> {
        Ok(Self {
            cadence: fit_exponential(cadence_data)?,
            optimistic,
            realistic,
        })
    }

    /// The paper's default projection: Fig 6's Scenario #1 at X = 1.2 vs
    /// Fig 7's Scenario #2 at X = 2.0, on the historical node cadence.
    ///
    /// # Errors
    ///
    /// Never fails for the built-in constants; kept fallible for parity
    /// with [`Self::new`].
    pub fn paper_default() -> Result<Self, UnitError> {
        Self::new(
            maly_tech_trend::datasets::FEATURE_SIZE_BY_YEAR,
            Scenario1::fig6(1.2)?,
            Scenario2::fig7(2.0)?,
        )
    }

    /// The feature size the cadence predicts for a year.
    ///
    /// # Errors
    ///
    /// Returns an error if the extrapolated λ is no longer a positive
    /// finite number (absurdly far future).
    pub fn lambda_at(&self, year: f64) -> Result<Microns, UnitError> {
        Microns::new(self.cadence.predict(year))
    }

    /// Projects a span of years (inclusive, yearly steps).
    ///
    /// # Errors
    ///
    /// Propagates λ extrapolation and die-size trend failures.
    ///
    /// # Panics
    ///
    /// Panics if `from > to`.
    pub fn project(&self, from: u32, to: u32) -> Result<Vec<RoadmapPoint>, UnitError> {
        assert!(from <= to, "year range reversed: {from}..{to}");
        (from..=to)
            .map(|y| {
                let year = f64::from(y);
                let lambda = self.lambda_at(year)?;
                Ok(RoadmapPoint {
                    year,
                    lambda,
                    optimistic: self.optimistic.cost_per_transistor(lambda),
                    realistic: self.realistic.cost_per_transistor(lambda)?,
                })
            })
            .collect()
    }

    /// The year Scenario #2's cost bottoms out — after it, continuing to
    /// ride the cadence *raises* the realistic transistor cost. Returns
    /// `None` when the cost is still falling at the end of the window.
    ///
    /// # Errors
    ///
    /// Propagates projection failures.
    pub fn realistic_turning_year(&self, from: u32, to: u32) -> Result<Option<u32>, UnitError> {
        let points = self.project(from, to)?;
        let min = points
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.realistic.value().total_cmp(&b.1.realistic.value()))
            .map(|(i, p)| (i, p.year as u32));
        Ok(min.and_then(|(i, year)| (i + 1 < points.len()).then_some(year)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roadmap() -> CostRoadmap {
        CostRoadmap::paper_default().unwrap()
    }

    #[test]
    fn cadence_interpolates_history() {
        let r = roadmap();
        // Mid-80s: around the 1.2–1.5 µm nodes.
        let lambda = r.lambda_at(1984.0).unwrap();
        assert!((1.0..2.2).contains(&lambda.value()), "{lambda}");
        // Mid-90s: sub-half-micron territory.
        let lambda = r.lambda_at(1995.0).unwrap();
        assert!((0.2..0.6).contains(&lambda.value()), "{lambda}");
    }

    #[test]
    fn optimistic_cost_falls_every_year() {
        let points = roadmap().project(1986, 2000).unwrap();
        for w in points.windows(2) {
            assert!(
                w[1].optimistic.value() < w[0].optimistic.value(),
                "Scenario #1 must keep falling: {} → {}",
                w[0].year,
                w[1].year
            );
        }
    }

    #[test]
    fn realistic_cost_turns_upward_in_the_projection() {
        // The paper's warning, in calendar form: somewhere in the
        // projection the realistic cost stops falling and reverses.
        let r = roadmap();
        let turning = r.realistic_turning_year(1986, 2005).unwrap();
        let year = turning.expect("a turning year must exist in the window");
        assert!(
            (1986..2000).contains(&year),
            "turning year {year} out of band"
        );
        // And after the turn it really rises.
        let points = r.project(year, 2005).unwrap();
        assert!(points.last().unwrap().realistic.value() > points[0].realistic.value());
    }

    #[test]
    fn no_turning_year_when_still_falling() {
        // Scenario #2 with Scenario-#1-grade assumptions keeps falling
        // through the window → None.
        let gentle = CostRoadmap::new(
            maly_tech_trend::datasets::FEATURE_SIZE_BY_YEAR,
            Scenario1::fig6(1.1).unwrap(),
            Scenario2::new(
                Scenario1::fig6(1.1).unwrap(),
                maly_units::Probability::ONE,
                maly_tech_trend::diesize::DieSizeTrend::paper_fit(),
            ),
        )
        .unwrap();
        assert!(gentle.realistic_turning_year(1986, 1999).unwrap().is_none());
    }

    #[test]
    #[should_panic(expected = "range reversed")]
    fn reversed_range_panics() {
        let _ = roadmap().project(2000, 1990);
    }
}
