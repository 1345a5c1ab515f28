//! Wafer-level yield Monte Carlo.
//!
//! Drops killing defects onto a real [`WaferMap`] and counts surviving
//! dies. Two defect arrival models are supported:
//!
//! * **Uniform** — a spatial Poisson process with constant density, whose
//!   die yield converges to the eq. (6) closed form;
//! * **Clustered** — the per-wafer density is itself gamma-distributed
//!   (a compound/mixed Poisson process), whose *mean* die yield converges
//!   to the negative-binomial closed form with the same `α`.
//!
//! Running both against their closed forms is the crate's strongest
//! validation: the analytic models and the simulator share no code.

use crate::prng::UniformSource;
use maly_units::{DefectDensity, Probability, SquareCentimeters};
use maly_wafer_geom::WaferMap;

use crate::{sampling, YieldModel as _};

/// Spatial arrival model for killing defects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DefectArrival {
    /// Homogeneous Poisson field with the given mean density.
    Uniform {
        /// Mean killing-defect density.
        density: DefectDensity,
    },
    /// Gamma-mixed Poisson: each wafer draws its density from a gamma
    /// distribution with mean `density` and shape `alpha` (the clustering
    /// parameter of the negative-binomial yield model).
    Clustered {
        /// Mean killing-defect density across wafers.
        density: DefectDensity,
        /// Gamma shape (smaller = more clustered).
        alpha: f64,
    },
    /// Radial ("bull's-eye") gradient: the local intensity grows
    /// quadratically toward the wafer edge,
    /// `i(r) ∝ 1 + (edge_multiplier − 1)·(r/R)²`, normalized so the
    /// wafer-average density equals `density`. Models the classic
    /// edge-degraded uniformity of real processes (Sec. III.A.c:
    /// "larger wafers are more difficult to process").
    RadialGradient {
        /// Wafer-average killing-defect density.
        density: DefectDensity,
        /// Ratio of edge to center intensity (≥ 1).
        edge_multiplier: f64,
    },
}

impl DefectArrival {
    /// Mean defect density of the arrival model.
    #[must_use]
    pub fn mean_density(&self) -> DefectDensity {
        match self {
            DefectArrival::Uniform { density }
            | DefectArrival::Clustered { density, .. }
            | DefectArrival::RadialGradient { density, .. } => *density,
        }
    }
}

/// Result of a wafer-yield simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationResult {
    /// Number of simulated wafers.
    pub wafers: u32,
    /// Complete die sites per wafer.
    pub sites_per_wafer: u32,
    /// Total good dies across all wafers.
    pub good_dies: u64,
    /// Total defects dropped across all wafers.
    pub defects: u64,
    /// Per-wafer good-die counts (for variance studies).
    pub per_wafer_good: Vec<u32>,
    /// Per-site good-die counts across all wafers, indexed like
    /// [`WaferMap::sites`] — exposes spatial yield patterns
    /// (bull's-eye gradients show up as center–edge contrast).
    pub per_site_good: Vec<u32>,
}

impl SimulationResult {
    /// Empirical die yield across all wafers.
    #[must_use]
    pub fn yield_estimate(&self) -> Probability {
        let total = u64::from(self.wafers) * u64::from(self.sites_per_wafer);
        if total == 0 {
            return Probability::ONE;
        }
        Probability::clamped(self.good_dies as f64 / total as f64)
    }
}

/// Simulates `wafers` wafers of the given map under an arrival model.
///
/// A die is good iff no killing defect lands inside its rectangle. Only
/// defects within the wafer circle are generated (density × wafer area).
///
/// # Examples
///
/// ```
/// use maly_units::{Centimeters, DefectDensity};
/// use maly_wafer_geom::{raster::RasterPlacement, DieDimensions, Wafer};
/// use maly_yield_model::monte_carlo::{simulate, DefectArrival};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let map = RasterPlacement::default().place(
///     &Wafer::six_inch(),
///     DieDimensions::square(Centimeters::new(1.0)?),
/// );
/// let mut rng = maly_yield_model::prng::Xoshiro256PlusPlus::seed_from_u64(42);
/// let result = simulate(
///     &map,
///     DefectArrival::Uniform { density: DefectDensity::new(0.5)? },
///     20,
///     &mut rng,
/// );
/// let y = result.yield_estimate().value();
/// assert!(y > 0.4 && y < 0.8); // exp(−0.5) ≈ 0.61
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn simulate<R: UniformSource + ?Sized>(
    map: &WaferMap,
    arrival: DefectArrival,
    wafers: u32,
    rng: &mut R,
) -> SimulationResult {
    let r_w = map.wafer().radius().value();
    let wafer_area = map.wafer().area().value();
    let sites = map.sites();
    let mut per_wafer_good = Vec::with_capacity(wafers as usize);
    let mut good_total: u64 = 0;
    let mut defects_total: u64 = 0;

    let mut per_site_good = vec![0u32; sites.len()];

    for _ in 0..wafers {
        let density = match arrival {
            DefectArrival::Uniform { density } | DefectArrival::RadialGradient { density, .. } => {
                density.value()
            }
            DefectArrival::Clustered { density, alpha } => {
                sampling::gamma(alpha, density.value() / alpha, rng)
            }
        };
        let n_defects = sampling::poisson(density * wafer_area, rng);
        defects_total += n_defects;

        let mut dead = vec![false; sites.len()];
        for _ in 0..n_defects {
            // Rejection-sample a point in the wafer disk, biased by the
            // arrival model's radial intensity profile where applicable.
            let (x, y) = loop {
                let x = (rng.next_f64() * 2.0 - 1.0) * r_w;
                let y = (rng.next_f64() * 2.0 - 1.0) * r_w;
                let rr = x * x + y * y;
                if rr > r_w * r_w {
                    continue;
                }
                if let DefectArrival::RadialGradient {
                    edge_multiplier, ..
                } = arrival
                {
                    // Accept with probability i(r)/i(R):
                    // (1 + (m−1)(r/R)²)/m — the average over the disk is
                    // (1 + (m−1)/2)/m, which the Poisson count above
                    // already carries via the mean density.
                    let m = edge_multiplier.max(1.0);
                    let accept = (1.0 + (m - 1.0) * rr / (r_w * r_w)) / m;
                    if rng.next_f64() > accept {
                        continue;
                    }
                }
                break (x, y);
            };
            if let Some(idx) = map.die_at(x, y) {
                dead[idx] = true;
            }
        }
        let mut good = 0u32;
        for (idx, &is_dead) in dead.iter().enumerate() {
            if !is_dead {
                good += 1;
                per_site_good[idx] += 1;
            }
        }
        per_wafer_good.push(good);
        good_total += u64::from(good);
    }

    SimulationResult {
        wafers,
        sites_per_wafer: map.count().value(),
        good_dies: good_total,
        defects: defects_total,
        per_wafer_good,
        per_site_good,
    }
}

/// Convenience: the analytic yield the uniform simulation should converge
/// to — eq. (6) with the die area of the map.
#[must_use]
pub fn analytic_uniform_yield(map: &WaferMap, density: DefectDensity) -> Probability {
    let area = map.die().area();
    crate::PoissonYield::new(density).die_yield(area)
}

/// Convenience: the analytic mean yield of the clustered model — negative
/// binomial with the same `α`.
///
/// # Errors
///
/// Returns an error if `alpha` is invalid (propagated from
/// [`crate::NegativeBinomialYield::new`]).
pub fn analytic_clustered_yield(
    map: &WaferMap,
    density: DefectDensity,
    alpha: f64,
) -> Result<Probability, maly_units::UnitError> {
    let area: SquareCentimeters = map.die().area();
    Ok(crate::NegativeBinomialYield::new(density, alpha)?.die_yield(area))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prng::Xoshiro256PlusPlus;
    use crate::YieldModel;
    use maly_units::Centimeters;
    use maly_wafer_geom::{raster::RasterPlacement, DieDimensions, Wafer};

    fn map_with_die(edge_cm: f64) -> WaferMap {
        RasterPlacement::default().place(
            &Wafer::six_inch(),
            DieDimensions::square(Centimeters::new(edge_cm).unwrap()),
        )
    }

    fn rng(seed: u64) -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::seed_from_u64(seed)
    }

    /// Mean yield of the sites whose center lies within (`inner`) or
    /// beyond `fraction` of the wafer radius.
    fn zone_yield(result: &SimulationResult, map: &WaferMap, fraction: f64, inner: bool) -> f64 {
        let r = map.wafer().radius().value() * fraction;
        let mut good = 0u64;
        let mut count = 0u64;
        for (site, &g) in map.sites().iter().zip(&result.per_site_good) {
            if (site.radial_distance() <= r) == inner {
                good += u64::from(g);
                count += 1;
            }
        }
        assert!(count > 0 && result.wafers > 0, "empty zone");
        good as f64 / (count * u64::from(result.wafers)) as f64
    }

    /// Sample variance of the per-wafer good-die count.
    fn per_wafer_variance(result: &SimulationResult) -> f64 {
        let good: Vec<f64> = result
            .per_wafer_good
            .iter()
            .map(|&g| f64::from(g))
            .collect();
        let n = good.len() as f64;
        let mean = good.iter().sum::<f64>() / n;
        good.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / (n - 1.0)
    }

    #[test]
    fn uniform_simulation_converges_to_poisson() {
        let map = map_with_die(1.0);
        let density = DefectDensity::new(0.8).unwrap();
        let mut r = rng(3);
        let result = simulate(&map, DefectArrival::Uniform { density }, 400, &mut r);
        let analytic = analytic_uniform_yield(&map, density).value();
        let measured = result.yield_estimate().value();
        assert!(
            (measured - analytic).abs() < 0.015,
            "measured {measured} vs analytic {analytic}"
        );
    }

    #[test]
    fn clustered_simulation_converges_to_negative_binomial() {
        let map = map_with_die(1.0);
        let density = DefectDensity::new(0.8).unwrap();
        let alpha = 1.5;
        let mut r = rng(5);
        let result = simulate(
            &map,
            DefectArrival::Clustered { density, alpha },
            600,
            &mut r,
        );
        let analytic = analytic_clustered_yield(&map, density, alpha)
            .unwrap()
            .value();
        let poisson = analytic_uniform_yield(&map, density).value();
        let measured = result.yield_estimate().value();
        assert!(
            (measured - analytic).abs() < 0.02,
            "measured {measured} vs NB analytic {analytic}"
        );
        // And clustering must beat Poisson at equal mean density.
        assert!(measured > poisson);
    }

    #[test]
    fn clustering_raises_wafer_to_wafer_variance() {
        let map = map_with_die(1.0);
        let density = DefectDensity::new(0.8).unwrap();
        let mut r = rng(7);
        let uniform = simulate(&map, DefectArrival::Uniform { density }, 200, &mut r);
        let clustered = simulate(
            &map,
            DefectArrival::Clustered {
                density,
                alpha: 0.8,
            },
            200,
            &mut r,
        );
        assert!(per_wafer_variance(&clustered) > 2.0 * per_wafer_variance(&uniform));
    }

    #[test]
    fn zero_wafers_gives_trivial_result() {
        let map = map_with_die(1.0);
        let mut r = rng(1);
        let result = simulate(
            &map,
            DefectArrival::Uniform {
                density: DefectDensity::new(1.0).unwrap(),
            },
            0,
            &mut r,
        );
        assert_eq!(result.good_dies, 0);
        assert_eq!(result.yield_estimate(), maly_units::Probability::ONE);
    }

    #[test]
    fn defect_count_scales_with_density() {
        let map = map_with_die(1.0);
        let mut r = rng(9);
        let low = simulate(
            &map,
            DefectArrival::Uniform {
                density: DefectDensity::new(0.2).unwrap(),
            },
            50,
            &mut r,
        );
        let high = simulate(
            &map,
            DefectArrival::Uniform {
                density: DefectDensity::new(2.0).unwrap(),
            },
            50,
            &mut r,
        );
        assert!(high.defects > 5 * low.defects);
    }

    #[test]
    fn bigger_dies_yield_worse_in_simulation() {
        let density = DefectDensity::new(0.8).unwrap();
        let mut r = rng(11);
        let small = simulate(
            &map_with_die(0.7),
            DefectArrival::Uniform { density },
            150,
            &mut r,
        );
        let large = simulate(
            &map_with_die(1.8),
            DefectArrival::Uniform { density },
            150,
            &mut r,
        );
        assert!(small.yield_estimate() > large.yield_estimate());
    }

    #[test]
    fn radial_gradient_degrades_edge_dies() {
        let map = map_with_die(1.0);
        let density = DefectDensity::new(1.0).unwrap();
        let mut r = rng(13);
        let result = simulate(
            &map,
            DefectArrival::RadialGradient {
                density,
                edge_multiplier: 6.0,
            },
            400,
            &mut r,
        );
        let inner = zone_yield(&result, &map, 0.55, true);
        let outer = zone_yield(&result, &map, 0.55, false);
        assert!(
            inner > outer + 0.05,
            "bull's-eye expected: inner {inner:.3} vs outer {outer:.3}"
        );
        // Like clustering, a gradient concentrates defects and therefore
        // *raises* the wafer-average yield relative to uniform at equal
        // mean density (Jensen on the convex exp(−λ)).
        let uniform = analytic_uniform_yield(&map, density).value();
        let measured = result.yield_estimate().value();
        assert!(
            measured >= uniform - 0.02,
            "{measured} vs uniform {uniform}"
        );
        assert!(measured < uniform + 0.2);
    }

    #[test]
    fn uniform_arrival_shows_no_radial_trend() {
        let map = map_with_die(1.0);
        let density = DefectDensity::new(1.0).unwrap();
        let mut r = rng(17);
        let result = simulate(&map, DefectArrival::Uniform { density }, 400, &mut r);
        let inner = zone_yield(&result, &map, 0.55, true);
        let outer = zone_yield(&result, &map, 0.55, false);
        assert!(
            (inner - outer).abs() < 0.03,
            "inner {inner} vs outer {outer}"
        );
    }

    #[test]
    fn per_site_counts_sum_to_total_good() {
        let map = map_with_die(1.2);
        let mut r = rng(19);
        let result = simulate(
            &map,
            DefectArrival::Uniform {
                density: DefectDensity::new(0.5).unwrap(),
            },
            50,
            &mut r,
        );
        let site_sum: u64 = result.per_site_good.iter().map(|&g| u64::from(g)).sum();
        assert_eq!(site_sum, result.good_dies);
        assert_eq!(result.per_site_good.len(), map.sites().len());
    }

    #[test]
    fn analytic_helpers_match_models() {
        let map = map_with_die(1.0);
        let density = DefectDensity::new(0.5).unwrap();
        let direct = crate::PoissonYield::new(density).die_yield(map.die().area());
        assert_eq!(analytic_uniform_yield(&map, density), direct);
        assert!(analytic_clustered_yield(&map, density, -1.0).is_err());
    }
}
