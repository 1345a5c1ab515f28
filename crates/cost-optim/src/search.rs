//! 1-D minimization: golden section and dense grids.

use maly_cost_model::product::ProductScenario;
use maly_cost_model::CostError;
use maly_par::Executor;
use maly_units::Microns;

/// Golden-section minimization of a unimodal function on `[a, b]`.
///
/// Returns `(x_min, f(x_min))` after converging to `tolerance` in `x`.
/// For non-unimodal functions it still converges, but only to a local
/// minimum — use [`grid_min`] for the floor-riddled cost model.
///
/// # Panics
///
/// Panics if the interval is invalid or the tolerance is not positive.
///
/// # Examples
///
/// ```
/// use maly_cost_optim::search::golden_section;
///
/// let (x, fx) = golden_section(|x| (x - 2.0).powi(2) + 1.0, 0.0, 5.0, 1e-9);
/// assert!((x - 2.0).abs() < 1e-7);
/// assert!((fx - 1.0).abs() < 1e-12);
/// ```
pub fn golden_section(
    f: impl Fn(f64) -> f64,
    mut a: f64,
    mut b: f64,
    tolerance: f64,
) -> (f64, f64) {
    assert!(a < b, "invalid interval [{a}, {b}]");
    assert!(
        tolerance > 0.0 && tolerance.is_finite(),
        "tolerance must be positive"
    );
    let inv_phi = (5.0_f64.sqrt() - 1.0) / 2.0;
    let mut c = b - inv_phi * (b - a);
    let mut d = a + inv_phi * (b - a);
    let mut fc = f(c);
    let mut fd = f(d);
    while (b - a) > tolerance {
        if fc < fd {
            b = d;
            d = c;
            fd = fc;
            c = b - inv_phi * (b - a);
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + inv_phi * (b - a);
            fd = f(d);
        }
    }
    let x = (a + b) / 2.0;
    (x, f(x))
}

/// Dense-grid minimization on `[a, b]` with `steps` samples.
///
/// Robust against the floor() discontinuities of dies-per-wafer counts;
/// the resolution is `(b − a) / (steps − 1)`.
///
/// # Panics
///
/// Panics if the interval is invalid or `steps < 2`.
pub fn grid_min(f: impl Fn(f64) -> f64 + Sync, a: f64, b: f64, steps: usize) -> (f64, f64) {
    grid_min_with(&Executor::from_env(), f, a, b, steps)
}

/// [`grid_min`] on an explicit executor: samples evaluate in parallel;
/// the minimum is an ordered strict-`<` fold, so the earliest grid
/// point wins ties exactly as in the serial scan.
///
/// # Panics
///
/// Panics if the interval is invalid or `steps < 2`.
pub fn grid_min_with(
    exec: &Executor,
    f: impl Fn(f64) -> f64 + Sync,
    a: f64,
    b: f64,
    steps: usize,
) -> (f64, f64) {
    assert!(a < b, "invalid interval [{a}, {b}]");
    assert!(steps >= 2, "need at least 2 samples");
    let samples = exec.map_indexed(steps, |i| {
        let x = a + (b - a) * i as f64 / (steps - 1) as f64;
        (x, f(x))
    });
    let mut it = samples.into_iter();
    // steps >= 2 was asserted, so the first sample exists.
    let Some(mut best) = it.next() else {
        return (a, f(a));
    };
    for (x, fx) in it {
        if fx < best.1 {
            best = (x, fx);
        }
    }
    best
}

/// The feature size minimizing a product scenario's transistor cost when
/// the *same design* (fixed `N_tr`, fixed `d_d`) is retargeted across
/// nodes — the shrink-planning question of Sec. IV.B.
///
/// Infeasible nodes (die too large for the wafer) are skipped; returns
/// `None` when no node in the window can build the product.
///
/// # Errors
///
/// Propagates input validation from the λ sweep.
pub fn optimal_feature_size(
    scenario: &ProductScenario,
    lambda_min: f64,
    lambda_max: f64,
    steps: usize,
) -> Result<Option<(Microns, f64)>, CostError> {
    optimal_feature_size_with(
        &Executor::from_env(),
        scenario,
        lambda_min,
        lambda_max,
        steps,
    )
}

/// [`optimal_feature_size`] on an explicit executor: node candidates
/// evaluate in parallel; the cheapest is an ordered strict-`<` fold
/// matching the serial scan's tie-break bit for bit.
///
/// # Errors
///
/// As for [`optimal_feature_size`].
pub fn optimal_feature_size_with(
    exec: &Executor,
    scenario: &ProductScenario,
    lambda_min: f64,
    lambda_max: f64,
    steps: usize,
) -> Result<Option<(Microns, f64)>, CostError> {
    if !(lambda_min > 0.0 && lambda_min < lambda_max) || steps < 2 {
        return Err(CostError::InvalidInput(maly_units::UnitError::OutOfRange {
            quantity: "lambda window",
            value: lambda_min,
            min: 0.0,
            max: lambda_max,
        }));
    }
    let evaluated = exec.map_indexed(steps, |i| -> Result<Option<(Microns, f64)>, CostError> {
        let l = lambda_min + (lambda_max - lambda_min) * i as f64 / (steps - 1) as f64;
        let lambda = Microns::new(l)?;
        Ok(scenario
            .evaluate_at(lambda)
            .ok()
            .map(|breakdown| (lambda, breakdown.cost_per_transistor.value())))
    });
    let mut best: Option<(Microns, f64)> = None;
    for point in evaluated {
        let point = match point {
            Ok(p) => p,
            Err(e) => return Err(e),
        };
        if let Some((lambda, cost)) = point {
            if best.is_none_or(|(_, c)| cost < c) {
                best = Some((lambda, cost));
            }
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use maly_units::{Centimeters, DesignDensity, Dollars, Probability, TransistorCount};

    use super::*;

    fn fig8_like_scenario(n_tr: f64) -> ProductScenario {
        ProductScenario::builder("fig8-point")
            .transistors(TransistorCount::new(n_tr).unwrap())
            .feature_size(Microns::new(0.8).unwrap())
            .design_density(DesignDensity::new(152.0).unwrap())
            .wafer_radius(Centimeters::new(7.5).unwrap())
            .reference_yield(Probability::new(0.7).unwrap())
            .reference_wafer_cost(Dollars::new(500.0).unwrap())
            .cost_escalation(1.4)
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn golden_section_finds_parabola_minimum() {
        let (x, fx) = golden_section(|x| (x - 3.3).powi(2), 0.0, 10.0, 1e-10);
        assert!((x - 3.3).abs() < 1e-7);
        assert!(fx < 1e-12);
    }

    #[test]
    fn golden_section_handles_boundary_minimum() {
        let (x, _) = golden_section(|x| x, 1.0, 2.0, 1e-9);
        assert!((x - 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "invalid interval")]
    fn golden_section_rejects_bad_interval() {
        let _ = golden_section(|x| x, 2.0, 1.0, 1e-9);
    }

    #[test]
    fn grid_min_finds_global_among_local_minima() {
        // w-shaped: local min at x≈1 (f=1), global at x≈4 (f=0).
        let f = |x: f64| ((x - 1.0) * (x - 4.0)).powi(2) + (x - 4.0).abs();
        let (x, _) = grid_min(f, 0.0, 5.0, 2001);
        assert!((x - 4.0).abs() < 0.01);
    }

    /// Under the Y₀ (area-scaled) yield convention and moderate X, the
    /// shrink study is monotone: finer nodes always win, so λ^opt sits
    /// at the window's lower edge. (The interior optima of Fig 8 need
    /// the eq. (7) λ^p defect acceleration — tested below.)
    #[test]
    fn y0_convention_shrink_study_is_monotone() {
        let scenario = fig8_like_scenario(1.0e6);
        let (lambda, _) = optimal_feature_size(&scenario, 0.3, 1.5, 241)
            .unwrap()
            .expect("feasible somewhere");
        assert!((lambda.value() - 0.3).abs() < 1e-9, "λ^opt {lambda}");
    }

    /// Fig 8 proper (eq. 7 yield): the cheapest feature size for a fixed
    /// design is *not* the smallest one in the window — the defect
    /// acceleration `D/λ^p` punishes deep shrinks.
    #[test]
    fn fig8_optimum_is_not_the_smallest_lambda() {
        use maly_cost_model::surface::SurfaceParameters;
        use maly_units::TransistorCount;
        let params = SurfaceParameters::fig8();
        let n = TransistorCount::new(1.0e6).unwrap();
        let (lambda, _) = grid_min(
            |l| {
                params
                    .cost_at(Microns::new(l).unwrap(), n)
                    .map_or(f64::INFINITY, |d| d.value())
            },
            0.3,
            1.5,
            481,
        );
        assert!(lambda > 0.6, "λ^opt {lambda} should be well above 0.3");
    }

    /// Fig 8's "number of local optima": the cost-vs-λ curve at fixed
    /// N_tr is non-monotonic because the dies-per-wafer floor() injects
    /// downward jumps into an otherwise smooth tradeoff.
    #[test]
    fn fig8_cost_curve_has_local_optima() {
        use maly_cost_model::surface::SurfaceParameters;
        use maly_units::TransistorCount;
        let params = SurfaceParameters::fig8();
        let n = TransistorCount::new(1.0e6).unwrap();
        let costs: Vec<f64> = (0..600)
            .map(|i| {
                let l = 0.5 + (1.5 - 0.5) * i as f64 / 599.0;
                params
                    .cost_at(Microns::new(l).unwrap(), n)
                    .map_or(f64::INFINITY, |d| d.value())
            })
            .collect();
        let mut sign_changes = 0;
        let mut last_rising: Option<bool> = None;
        for w in costs.windows(2) {
            if !w[0].is_finite() || !w[1].is_finite() || w[0] == w[1] {
                continue;
            }
            let rising = w[1] > w[0];
            if let Some(prev) = last_rising {
                if prev != rising {
                    sign_changes += 1;
                }
            }
            last_rising = Some(rising);
        }
        assert!(
            sign_changes >= 2,
            "expected multiple local optima, saw {sign_changes} slope changes"
        );
    }

    #[test]
    fn infeasible_window_returns_none() {
        // A 100M-transistor design cannot be built at any λ ≥ 1.2 µm on a
        // 6-inch wafer.
        let scenario = fig8_like_scenario(1.0e8);
        let result = optimal_feature_size(&scenario, 1.2, 1.5, 16).unwrap();
        assert!(result.is_none());
    }

    #[test]
    fn window_validation() {
        let scenario = fig8_like_scenario(1.0e6);
        assert!(optimal_feature_size(&scenario, 1.0, 0.5, 10).is_err());
        assert!(optimal_feature_size(&scenario, 0.5, 1.0, 1).is_err());
    }
}
