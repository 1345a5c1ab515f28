//! Property-style tests for the cost model.
//!
//! The workspace builds offline with no external crates, so instead of
//! proptest strategies these properties are checked over deterministic
//! pseudo-random samples drawn from a tiny SplitMix64 generator.

use maly_cost_model::product::ProductScenario;
use maly_cost_model::scenario::{Scenario1, Scenario2};
use maly_units::{Centimeters, DesignDensity, Dollars, Microns, Probability, TransistorCount};

/// Deterministic uniform sampler (SplitMix64).
struct Sampler(u64);

impl Sampler {
    fn new(seed: u64) -> Self {
        Self(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + (hi - lo) * u
    }
}

const CASES: usize = 48;

fn scenario(
    n_tr: f64,
    lambda: f64,
    d_d: f64,
    r_w: f64,
    y0: f64,
    c0: f64,
    x: f64,
) -> ProductScenario {
    ProductScenario::builder("prop")
        .transistors(TransistorCount::new(n_tr).unwrap())
        .feature_size(Microns::new(lambda).unwrap())
        .design_density(DesignDensity::new(d_d).unwrap())
        .wafer_radius(Centimeters::new(r_w).unwrap())
        .reference_yield(Probability::new(y0).unwrap())
        .reference_wafer_cost(Dollars::new(c0).unwrap())
        .cost_escalation(x)
        .unwrap()
        .build()
        .unwrap()
}

/// Input ranges chosen so the die always fits a 6–8-inch wafer and the
/// yield stays representable.
fn plausible_inputs(s: &mut Sampler) -> (f64, f64, f64, f64, f64, f64, f64) {
    (
        s.uniform(1.0e5, 5.0e6),  // n_tr
        s.uniform(0.3, 1.0),      // lambda
        s.uniform(30.0, 400.0),   // d_d
        s.uniform(6.0, 10.0),     // r_w
        s.uniform(0.5, 0.95),     // y0
        s.uniform(300.0, 1500.0), // c0
        s.uniform(1.0, 2.4),      // x
    )
}

/// Eq. (1) always yields a strictly positive, finite cost for
/// physically plausible inputs.
#[test]
fn cost_is_positive_and_finite() {
    let mut s = Sampler::new(101);
    for _ in 0..CASES {
        let (n, l, d, r, y0, c0, x) = plausible_inputs(&mut s);
        let cost = scenario(n, l, d, r, y0, c0, x)
            .evaluate()
            .unwrap()
            .cost_per_transistor
            .value();
        assert!(cost.is_finite() && cost > 0.0);
    }
}

/// Better reference yield can never raise the transistor cost.
#[test]
fn cost_monotone_in_yield() {
    let mut s = Sampler::new(102);
    for _ in 0..CASES {
        let (n, l, d, r, y0, c0, x) = plausible_inputs(&mut s);
        let bump = s.uniform(0.01, 0.04);
        let worse = scenario(n, l, d, r, y0, c0, x).evaluate().unwrap();
        let better = scenario(n, l, d, r, y0 + bump, c0, x).evaluate().unwrap();
        assert!(better.cost_per_transistor <= worse.cost_per_transistor);
        assert!(better.die_yield >= worse.die_yield);
    }
}

/// A higher escalation factor X can never make sub-micron wafers
/// cheaper (λ < 1 µm ⇒ positive exponent).
#[test]
fn cost_monotone_in_x() {
    let mut s = Sampler::new(103);
    for _ in 0..CASES {
        let (n, l, d, r, y0, c0, x) = plausible_inputs(&mut s);
        let bump = s.uniform(0.05, 0.5);
        let cheap = scenario(n, l, d, r, y0, c0, x).evaluate().unwrap();
        let dear = scenario(n, l, d, r, y0, c0, x + bump).evaluate().unwrap();
        assert!(dear.wafer_cost >= cheap.wafer_cost);
        assert!(dear.cost_per_transistor >= cheap.cost_per_transistor);
    }
}

/// A bigger wafer at the same wafer cost can never cost more per
/// transistor (more dies for the same money).
#[test]
fn cost_monotone_in_wafer_radius() {
    let mut s = Sampler::new(104);
    for _ in 0..CASES {
        let (n, l, d, _r, y0, c0, x) = plausible_inputs(&mut s);
        let six = scenario(n, l, d, 7.5, y0, c0, x).evaluate().unwrap();
        let eight = scenario(n, l, d, 10.0, y0, c0, x).evaluate().unwrap();
        assert!(eight.dies_per_wafer >= six.dies_per_wafer);
        assert!(eight.cost_per_transistor <= six.cost_per_transistor);
    }
}

/// Denser layout (smaller d_d) can never cost more per transistor.
#[test]
fn cost_monotone_in_density() {
    let mut s = Sampler::new(105);
    for _ in 0..CASES {
        let (n, l, d, r, y0, c0, x) = plausible_inputs(&mut s);
        let shrink = s.uniform(0.5, 0.95);
        let sparse = scenario(n, l, d, r, y0, c0, x).evaluate().unwrap();
        let dense = scenario(n, l, d * shrink, r, y0, c0, x).evaluate().unwrap();
        assert!(dense.cost_per_transistor <= sparse.cost_per_transistor * 1.000001);
    }
}

/// The breakdown is internally consistent: good dies = N_ch·Y and
/// C_tr = C_w/(N_ch·N_tr·Y).
#[test]
fn breakdown_is_consistent() {
    let mut s = Sampler::new(106);
    for _ in 0..CASES {
        let (n, l, d, r, y0, c0, x) = plausible_inputs(&mut s);
        let b = scenario(n, l, d, r, y0, c0, x).evaluate().unwrap();
        let good = b.dies_per_wafer.as_f64() * b.die_yield.value();
        assert!((b.good_dies_per_wafer - good).abs() < 1e-9);
        let expected = b.wafer_cost.value() / (good * n);
        assert!((b.cost_per_transistor.value() - expected).abs() <= expected * 1e-9);
        let per_die = b.wafer_cost.value() / good;
        assert!((b.cost_per_good_die.value() - per_die).abs() <= per_die * 1e-9);
    }
}

/// Scenario #1 is always monotonically decreasing in λ for any X in
/// the Fig 6 band.
#[test]
fn scenario1_decreasing() {
    let mut s = Sampler::new(107);
    for _ in 0..CASES {
        let x = s.uniform(1.05, 1.35);
        let s1 = Scenario1::fig6(x).unwrap();
        let series = s1
            .sweep(Microns::new(0.25).unwrap(), Microns::new(1.0).unwrap(), 12)
            .unwrap();
        for w in series.windows(2) {
            assert!(w[0].1.value() < w[1].1.value());
        }
    }
}

/// Scenario #2 always punishes shrinking below 0.8 µm for X in the
/// Fig 7 band.
#[test]
fn scenario2_increasing() {
    let mut s = Sampler::new(108);
    for _ in 0..CASES {
        let x = s.uniform(1.8, 2.4);
        let s2 = Scenario2::fig7(x).unwrap();
        let c_08 = s2.cost_per_transistor(Microns::new(0.8).unwrap()).unwrap();
        let c_04 = s2.cost_per_transistor(Microns::new(0.4).unwrap()).unwrap();
        let c_025 = s2.cost_per_transistor(Microns::new(0.25).unwrap()).unwrap();
        assert!(c_04 > c_08);
        assert!(c_025 > c_04);
    }
}
