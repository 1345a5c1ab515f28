//! Random samplers used by the yield Monte Carlo.
//!
//! The workspace is std-only: [`crate::prng`] supplies uniform variates,
//! and the Poisson, normal and gamma variates needed here are
//! implemented from first principles and validated against their
//! analytic moments in tests.
//!
//! The module serves only [`crate::monte_carlo`], the cross-validation
//! oracle for the analytic yield models (`tests/cross_validation.rs`);
//! no `repro` experiment or served query calls either.

use crate::prng::UniformSource;

/// Draws a Poisson-distributed count with the given mean.
///
/// Uses Knuth's product-of-uniforms method for small means and a normal
/// approximation (with continuity correction, clamped at zero) for large
/// means, where Knuth's method would need thousands of uniforms per draw.
///
/// # Panics
///
/// Panics if `mean` is negative or not finite.
#[must_use]
pub fn poisson<R: UniformSource + ?Sized>(mean: f64, rng: &mut R) -> u64 {
    assert!(
        mean.is_finite() && mean >= 0.0,
        "poisson mean must be non-negative and finite, got {mean}"
    );
    // audit:allow(float-cmp): exact zero mean short-circuits the sampler.
    if mean == 0.0 {
        return 0;
    }
    if mean < 64.0 {
        // Knuth: count uniforms until their product drops below e^{−mean}.
        let limit = (-mean).exp();
        let mut product: f64 = 1.0;
        let mut count: u64 = 0;
        loop {
            product *= rng.next_f64();
            if product <= limit {
                return count;
            }
            count += 1;
        }
    } else {
        // Normal approximation: Poisson(λ) ≈ N(λ, λ) for large λ.
        let draw = mean + mean.sqrt() * standard_normal(rng);
        draw.round().max(0.0) as u64
    }
}

/// Draws a standard normal variate via the Box–Muller transform.
#[must_use]
fn standard_normal<R: UniformSource + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0) by nudging the first uniform away from zero.
    let u1: f64 = rng.next_f64().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.next_f64();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Draws a gamma variate with the given `shape` and `scale`
/// (mean = `shape · scale`).
///
/// Marsaglia–Tsang squeeze method; the `shape < 1` case is boosted via
/// the standard `U^{1/shape}` augmentation.
///
/// # Panics
///
/// Panics if `shape` or `scale` is not positive and finite.
#[must_use]
pub fn gamma<R: UniformSource + ?Sized>(shape: f64, scale: f64, rng: &mut R) -> f64 {
    assert!(
        shape.is_finite() && shape > 0.0,
        "gamma shape must be positive, got {shape}"
    );
    assert!(
        scale.is_finite() && scale > 0.0,
        "gamma scale must be positive, got {scale}"
    );
    if shape < 1.0 {
        // Gamma(a) = Gamma(a+1) · U^{1/a}
        let boost = rng.next_f64().max(f64::MIN_POSITIVE).powf(1.0 / shape);
        return gamma(shape + 1.0, scale, rng) * boost;
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = standard_normal(rng);
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.next_f64().max(f64::MIN_POSITIVE);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v * scale;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prng::Xoshiro256PlusPlus;

    fn rng() -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::seed_from_u64(12345)
    }

    fn sample_stats(mut f: impl FnMut() -> f64, n: usize) -> (f64, f64) {
        let xs: Vec<f64> = (0..n).map(|_| f()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        (mean, var)
    }

    #[test]
    fn poisson_small_mean_moments() {
        let mut r = rng();
        let (mean, var) = sample_stats(|| poisson(3.5, &mut r) as f64, 40_000);
        assert!((mean - 3.5).abs() < 0.05, "mean {mean}");
        assert!((var - 3.5).abs() < 0.15, "var {var}");
    }

    #[test]
    fn poisson_large_mean_moments() {
        let mut r = rng();
        let (mean, var) = sample_stats(|| poisson(400.0, &mut r) as f64, 20_000);
        assert!((mean - 400.0).abs() < 1.0, "mean {mean}");
        assert!((var - 400.0).abs() < 20.0, "var {var}");
    }

    #[test]
    fn poisson_zero_mean_is_zero() {
        let mut r = rng();
        assert_eq!(poisson(0.0, &mut r), 0);
    }

    #[test]
    #[should_panic(expected = "poisson mean")]
    fn poisson_rejects_negative_mean() {
        let mut r = rng();
        let _ = poisson(-1.0, &mut r);
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = rng();
        let (mean, var) = sample_stats(|| standard_normal(&mut r), 60_000);
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn gamma_moments_shape_above_one() {
        let mut r = rng();
        let (mean, var) = sample_stats(|| gamma(4.0, 2.0, &mut r), 40_000);
        assert!((mean - 8.0).abs() < 0.1, "mean {mean}");
        assert!((var - 16.0).abs() < 0.7, "var {var}");
    }

    #[test]
    fn gamma_moments_shape_below_one() {
        let mut r = rng();
        let (mean, var) = sample_stats(|| gamma(0.5, 3.0, &mut r), 60_000);
        assert!((mean - 1.5).abs() < 0.05, "mean {mean}");
        assert!((var - 4.5).abs() < 0.35, "var {var}");
    }

    #[test]
    fn gamma_is_positive() {
        let mut r = rng();
        for _ in 0..1000 {
            assert!(gamma(0.3, 1.0, &mut r) > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "gamma shape")]
    fn gamma_rejects_bad_shape() {
        let mut r = rng();
        let _ = gamma(0.0, 1.0, &mut r);
    }
}
