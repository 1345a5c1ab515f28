//! Property-style tests for the yield models.
//!
//! The workspace builds offline with no external crates, so instead of
//! proptest strategies these properties are checked over deterministic
//! pseudo-random samples drawn from the crate's own [`prng`] module.

use maly_units::{DefectDensity, Microns, Probability, SquareCentimeters};
use maly_yield_model::prng::{UniformSource, Xoshiro256PlusPlus};
use maly_yield_model::{
    defects::DefectSizeDistribution, AreaScaledYield, MurphyYield, NegativeBinomialYield,
    PoissonYield, ScaledPoissonYield, SeedsYield, YieldModel,
};

const CASES: usize = 128;

fn uniform<R: UniformSource>(rng: &mut R, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.next_f64()
}

fn density<R: UniformSource>(rng: &mut R) -> DefectDensity {
    DefectDensity::new(uniform(rng, 0.01, 5.0)).unwrap()
}

fn area<R: UniformSource>(rng: &mut R) -> SquareCentimeters {
    SquareCentimeters::new(uniform(rng, 0.05, 10.0)).unwrap()
}

/// Every closed-form model maps any area to a valid probability and is
/// monotonically non-increasing in area.
#[test]
fn models_are_valid_and_monotone() {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(701);
    for _ in 0..CASES {
        let d0 = density(&mut rng);
        let a = area(&mut rng);
        let extra = uniform(&mut rng, 0.01, 5.0);
        let larger = SquareCentimeters::new(a.value() + extra).unwrap();
        let models: Vec<Box<dyn YieldModel>> = vec![
            Box::new(PoissonYield::new(d0)),
            Box::new(MurphyYield::new(d0)),
            Box::new(SeedsYield::new(d0)),
            Box::new(NegativeBinomialYield::new(d0, 2.0).unwrap()),
        ];
        for m in &models {
            let y_small = m.die_yield(a);
            let y_large = m.die_yield(larger);
            assert!((0.0..=1.0).contains(&y_small.value()));
            assert!(y_large <= y_small);
        }
    }
}

/// Classical ordering: Poisson ≤ Murphy ≤ Seeds for any (D, A).
#[test]
fn classical_ordering_holds() {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(702);
    for _ in 0..CASES {
        let d0 = density(&mut rng);
        let a = area(&mut rng);
        let p = PoissonYield::new(d0).die_yield(a).value();
        let m = MurphyYield::new(d0).die_yield(a).value();
        let s = SeedsYield::new(d0).die_yield(a).value();
        assert!(p <= m + 1e-12);
        assert!(m <= s + 1e-12);
    }
}

/// Negative binomial interpolates between Seeds (α=1) and Poisson (α→∞),
/// monotonically in α.
#[test]
fn negative_binomial_monotone_in_alpha() {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(703);
    for _ in 0..CASES {
        let d0 = density(&mut rng);
        let a = area(&mut rng);
        let alpha = uniform(&mut rng, 1.0, 50.0);
        let step = uniform(&mut rng, 0.1, 10.0);
        let y_lo = NegativeBinomialYield::new(d0, alpha)
            .unwrap()
            .die_yield(a)
            .value();
        let y_hi = NegativeBinomialYield::new(d0, alpha + step)
            .unwrap()
            .die_yield(a)
            .value();
        assert!(y_hi <= y_lo + 1e-12, "yield must decrease toward Poisson");
        let seeds = SeedsYield::new(d0).die_yield(a).value();
        let poisson = PoissonYield::new(d0).die_yield(a).value();
        assert!(y_lo <= seeds + 1e-12);
        assert!(y_lo >= poisson - 1e-12);
    }
}

/// Area-scaled (eq. 9) and its equivalent Poisson agree everywhere.
#[test]
fn area_scaled_equals_equivalent_poisson() {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(704);
    for _ in 0..CASES {
        let y0 = uniform(&mut rng, 0.05, 0.99);
        let a = area(&mut rng);
        let model = AreaScaledYield::per_square_centimeter(Probability::new(y0).unwrap());
        let poisson = model.equivalent_poisson().unwrap();
        let diff = (model.die_yield(a).value() - poisson.die_yield(a).value()).abs();
        assert!(diff < 1e-10);
    }
}

/// Eq. (7): yield strictly degrades as λ shrinks, all else equal.
#[test]
fn scaled_poisson_monotone_in_lambda() {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(705);
    for _ in 0..CASES {
        let a = area(&mut rng);
        let lam = uniform(&mut rng, 0.2, 1.5);
        let shrink = uniform(&mut rng, 0.5, 0.95);
        let big = ScaledPoissonYield::fig8_calibration(Microns::new(lam).unwrap()).unwrap();
        let small =
            ScaledPoissonYield::fig8_calibration(Microns::new(lam * shrink).unwrap()).unwrap();
        assert!(small.die_yield(a) <= big.die_yield(a));
    }
}

/// Defect size distribution: CDF is a valid, monotone CDF and the
/// survival function complements it.
#[test]
fn defect_cdf_properties() {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(707);
    for _ in 0..CASES {
        let r0 = uniform(&mut rng, 0.1, 2.0);
        let p = uniform(&mut rng, 2.5, 6.0);
        let r = uniform(&mut rng, 0.01, 20.0);
        let dist = DefectSizeDistribution::classic(Microns::new(r0).unwrap(), p).unwrap();
        let radius = Microns::new(r).unwrap();
        let c = dist.cdf(radius);
        assert!((0.0..=1.0 + 1e-9).contains(&c));
        assert!((c + dist.fraction_larger_than(radius) - 1.0).abs() < 1e-9);
        // CDF monotone.
        let c2 = dist.cdf(Microns::new(r * 1.5).unwrap());
        assert!(c2 >= c - 1e-12);
    }
}

/// Shrinking the fatal threshold always recruits more defects.
#[test]
fn shrink_recruitment_at_least_one() {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(708);
    for _ in 0..CASES {
        let r0 = uniform(&mut rng, 0.1, 1.0);
        let p = uniform(&mut rng, 2.5, 6.0);
        let lam = uniform(&mut rng, 0.3, 1.5);
        let shrink = uniform(&mut rng, 0.3, 0.99);
        let dist = DefectSizeDistribution::classic(Microns::new(r0).unwrap(), p).unwrap();
        let from = Microns::new(lam).unwrap();
        let to = Microns::new(lam * shrink).unwrap();
        assert!(dist.shrink_recruitment(from, to, 0.5) >= 1.0 - 1e-12);
    }
}
