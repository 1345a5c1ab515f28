//! Least-squares trend fitting on linear and log scales.

use maly_units::UnitError;

/// An ordinary least-squares line `y = intercept + slope·x`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Fitted intercept.
    pub intercept: f64,
    /// Fitted slope.
    pub slope: f64,
    /// Coefficient of determination on the fitted scale.
    pub r_squared: f64,
}

impl LinearFit {
    /// Predicted `y` at `x`.
    #[must_use]
    pub fn predict(&self, x: f64) -> f64 {
        self.intercept + self.slope * x
    }
}

/// Fits `y = intercept + slope·x` by ordinary least squares.
///
/// # Errors
///
/// Returns an error if fewer than two points are given or all `x` values
/// coincide (the slope would be undefined).
pub fn fit_linear(points: &[(f64, f64)]) -> Result<LinearFit, UnitError> {
    let n = points.len();
    if n < 2 {
        return Err(UnitError::OutOfRange {
            quantity: "fit points",
            value: n as f64,
            min: 2.0,
            max: f64::INFINITY,
        });
    }
    let nf = n as f64;
    let mean_x = points.iter().map(|p| p.0).sum::<f64>() / nf;
    let mean_y = points.iter().map(|p| p.1).sum::<f64>() / nf;
    let sxx: f64 = points.iter().map(|p| (p.0 - mean_x).powi(2)).sum();
    let sxy: f64 = points.iter().map(|p| (p.0 - mean_x) * (p.1 - mean_y)).sum();
    if sxx <= 0.0 {
        return Err(UnitError::NotPositive {
            quantity: "x variance",
            value: sxx,
        });
    }
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    let syy: f64 = points.iter().map(|p| (p.1 - mean_y).powi(2)).sum();
    let ss_res: f64 = points
        .iter()
        .map(|p| (p.1 - (intercept + slope * p.0)).powi(2))
        .sum();
    let r_squared = if syy > 0.0 { 1.0 - ss_res / syy } else { 1.0 };
    Ok(LinearFit {
        intercept,
        slope,
        r_squared,
    })
}

/// An exponential trend `y = amplitude · e^{rate·x}`, fitted on log scale.
///
/// # Examples
///
/// ```
/// use maly_tech_trend::fit::fit_exponential;
///
/// // Perfect doubling every unit of x.
/// let points: Vec<(f64, f64)> = (0..6).map(|i| (i as f64, 2f64.powi(i))).collect();
/// let fit = fit_exponential(&points).unwrap();
/// assert!((fit.rate() - std::f64::consts::LN_2).abs() < 1e-9);
/// assert!((fit.predict(6.0) - 64.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExponentialFit {
    amplitude: f64,
    rate: f64,
    r_squared: f64,
}

impl ExponentialFit {
    /// Amplitude (`y` at `x = 0`).
    #[must_use]
    pub fn amplitude(&self) -> f64 {
        self.amplitude
    }

    /// Exponential rate (positive = growth, negative = decay).
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// R² of the underlying log-scale linear fit.
    #[must_use]
    pub fn r_squared(&self) -> f64 {
        self.r_squared
    }

    /// Predicted `y` at `x`.
    #[must_use]
    pub fn predict(&self, x: f64) -> f64 {
        self.amplitude * (self.rate * x).exp()
    }

    /// Growth factor over an interval `Δx` (e.g. per year).
    #[must_use]
    pub fn factor_per(&self, dx: f64) -> f64 {
        (self.rate * dx).exp()
    }
}

/// Fits `y = A·e^{B·x}` by linear least squares on `ln y`.
///
/// # Errors
///
/// Returns an error if any `y ≤ 0` (not representable on log scale) or
/// the underlying linear fit fails.
pub fn fit_exponential(points: &[(f64, f64)]) -> Result<ExponentialFit, UnitError> {
    let logged = log_y(points)?;
    let lin = fit_linear(&logged)?;
    Ok(ExponentialFit {
        amplitude: lin.intercept.exp(),
        rate: lin.slope,
        r_squared: lin.r_squared,
    })
}

/// The paper's wafer-cost escalation law fitted to data:
/// `C_w(λ) = C₀ · X^{k(1−λ)}` with `k = 5 /µm` (DESIGN.md §1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEscalationFit {
    /// Extracted per-generation escalation factor `X`.
    pub x_factor: f64,
    /// Extracted reference cost `C₀` (at λ = 1 µm).
    pub c0: f64,
    /// R² of the log-scale fit.
    pub r_squared: f64,
}

/// Extracts `X` and `C₀` from `(λ, wafer cost)` pairs.
///
/// Linearizes `ln C = ln C₀ + 5(1−λ)·ln X` and regresses `ln C` on
/// `5(1−λ)`. Applied to the Fig 2 wafer-cost series this lands in the
/// paper's quoted 1.2–1.4 band.
///
/// # Errors
///
/// Returns an error if costs are non-positive or the fit is degenerate.
pub fn extract_cost_escalation(points: &[(f64, f64)]) -> Result<CostEscalationFit, UnitError> {
    for (lambda, cost) in points {
        if *cost <= 0.0 || !cost.is_finite() {
            return Err(UnitError::NotPositive {
                quantity: "wafer cost",
                value: *cost,
            });
        }
        if *lambda <= 0.0 || !lambda.is_finite() {
            return Err(UnitError::NotPositive {
                quantity: "feature size",
                value: *lambda,
            });
        }
    }
    let transformed: Vec<(f64, f64)> = points
        .iter()
        .map(|(lambda, cost)| (5.0 * (1.0 - lambda), cost.ln()))
        .collect();
    let lin = fit_linear(&transformed)?;
    Ok(CostEscalationFit {
        x_factor: lin.slope.exp(),
        c0: lin.intercept.exp(),
        r_squared: lin.r_squared,
    })
}

fn log_y(points: &[(f64, f64)]) -> Result<Vec<(f64, f64)>, UnitError> {
    points
        .iter()
        .map(|(x, y)| {
            if *y > 0.0 && y.is_finite() {
                Ok((*x, y.ln()))
            } else {
                Err(UnitError::NotPositive {
                    quantity: "log-scale y value",
                    value: *y,
                })
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_fit_recovers_exact_line() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 + 2.0 * i as f64)).collect();
        let fit = fit_linear(&pts).unwrap();
        assert!((fit.slope - 2.0).abs() < 1e-12);
        assert!((fit.intercept - 3.0).abs() < 1e-12);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn linear_fit_r_squared_degrades_with_noise() {
        let clean: Vec<(f64, f64)> = (0..20).map(|i| (i as f64, i as f64)).collect();
        let noisy: Vec<(f64, f64)> = (0..20)
            .map(|i| {
                let x = i as f64;
                (x, x + if i % 2 == 0 { 3.0 } else { -3.0 })
            })
            .collect();
        let r_clean = fit_linear(&clean).unwrap().r_squared;
        let r_noisy = fit_linear(&noisy).unwrap().r_squared;
        assert!(r_clean > r_noisy);
    }

    #[test]
    fn linear_fit_needs_two_distinct_points() {
        assert!(fit_linear(&[(1.0, 2.0)]).is_err());
        assert!(fit_linear(&[(1.0, 2.0), (1.0, 3.0)]).is_err());
    }

    #[test]
    fn exponential_fit_recovers_decay() {
        // Feature-size-like decay: 10 µm halving every 5 years.
        let pts: Vec<(f64, f64)> = (0..8)
            .map(|i| {
                let t = 5.0 * i as f64;
                (t, 10.0 * 0.5f64.powf(t / 5.0))
            })
            .collect();
        let fit = fit_exponential(&pts).unwrap();
        assert!((fit.factor_per(5.0) - 0.5).abs() < 1e-9);
        assert!((fit.amplitude() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn exponential_fit_rejects_non_positive_y() {
        assert!(fit_exponential(&[(0.0, 1.0), (1.0, 0.0)]).is_err());
        assert!(fit_exponential(&[(0.0, 1.0), (1.0, -2.0)]).is_err());
    }

    #[test]
    fn cost_escalation_roundtrips_synthetic_data() {
        // Generate exact C = 600·1.3^{5(1−λ)} and recover X = 1.3.
        let pts: Vec<(f64, f64)> = [2.0, 1.5, 1.0, 0.8, 0.5, 0.35, 0.25]
            .iter()
            .map(|&l| (l, 600.0 * 1.3f64.powf(5.0 * (1.0 - l))))
            .collect();
        let fit = extract_cost_escalation(&pts).unwrap();
        assert!((fit.x_factor - 1.3).abs() < 1e-9);
        assert!((fit.c0 - 600.0).abs() < 1e-6);
        assert!(fit.r_squared > 0.999_999);
    }

    #[test]
    fn cost_escalation_validates_inputs() {
        assert!(extract_cost_escalation(&[(1.0, 0.0), (0.5, 100.0)]).is_err());
        assert!(extract_cost_escalation(&[(-1.0, 100.0), (0.5, 100.0)]).is_err());
    }
}
