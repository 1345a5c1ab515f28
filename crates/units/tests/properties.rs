//! Property-style tests for the unit newtypes.
//!
//! The workspace builds offline with no external crates, so instead of
//! proptest strategies these properties are checked over deterministic
//! pseudo-random samples drawn from a tiny SplitMix64 generator.

use maly_units::{
    DesignDensity, Dollars, Microns, Probability, SquareCentimeters, TransistorCount,
};

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

    /// Positive magnitudes across several orders of magnitude (log-uniform
    /// over [1e-6, 1e6], mirroring the old proptest strategy).
    fn positive(&mut self) -> f64 {
        10f64.powf(self.uniform(-6.0, 6.0))
    }
}

const CASES: usize = 256;

#[test]
fn length_conversions_roundtrip() {
    let mut s = Sampler::new(601);
    for _ in 0..CASES {
        let v = s.positive();
        let um = Microns::new(v).unwrap();
        let rt = um.to_centimeters().to_microns();
        assert!((rt.value() - v).abs() <= v * 1e-12);
    }
}

#[test]
fn area_conversions_roundtrip() {
    let mut s = Sampler::new(602);
    for _ in 0..CASES {
        let v = s.positive();
        let cm2 = SquareCentimeters::new(v).unwrap();
        let rt = cm2.to_square_microns().to_square_centimeters();
        assert!((rt.value() - v).abs() <= v * 1e-12);
        let rt2 = cm2.to_square_millimeters().to_square_centimeters();
        assert!((rt2.value() - v).abs() <= v * 1e-12);
    }
}

#[test]
fn square_side_squares_back() {
    let mut s = Sampler::new(603);
    for _ in 0..CASES {
        let v = s.positive();
        let a = SquareCentimeters::new(v).unwrap();
        let side = a.square_side();
        let back = side * side;
        assert!((back.value() - v).abs() <= v * 1e-12);
    }
}

#[test]
fn probability_product_never_exceeds_factors() {
    let mut s = Sampler::new(604);
    for _ in 0..CASES {
        let a = s.uniform(0.0, 1.0);
        let b = s.uniform(0.0, 1.0);
        let pa = Probability::new(a).unwrap();
        let pb = Probability::new(b).unwrap();
        let prod = pa * pb;
        assert!(prod.value() <= pa.value() + 1e-15);
        assert!(prod.value() <= pb.value() + 1e-15);
        assert!((0.0..=1.0).contains(&prod.value()));
    }
}

#[test]
fn probability_powf_stays_in_unit_interval() {
    let mut s = Sampler::new(605);
    for _ in 0..CASES {
        let p = s.uniform(0.0, 1.0);
        let e = s.uniform(0.0, 50.0);
        let y = Probability::new(p).unwrap().powf(e);
        assert!((0.0..=1.0).contains(&y.value()));
    }
}

#[test]
fn probability_powf_monotone_in_area() {
    let mut s = Sampler::new(606);
    for _ in 0..CASES {
        let p = s.uniform(0.01, 1.0);
        let a = s.uniform(0.1, 10.0);
        let extra = s.uniform(0.1, 10.0);
        // Larger dies can never yield better (eq. 9 monotonicity).
        let y_small = Probability::new(p).unwrap().powf(a);
        let y_large = Probability::new(p).unwrap().powf(a + extra);
        assert!(y_large.value() <= y_small.value() + 1e-15);
    }
}

#[test]
fn complement_is_involutive() {
    let mut s = Sampler::new(607);
    for _ in 0..CASES {
        let p = s.uniform(0.0, 1.0);
        let pr = Probability::new(p).unwrap();
        let twice = pr.complement().complement();
        assert!((twice.value() - p).abs() < 1e-12);
    }
}

#[test]
fn dollars_sum_is_commutative() {
    let mut s = Sampler::new(608);
    for _ in 0..CASES {
        let a = s.uniform(0.0, 1e9);
        let b = s.uniform(0.0, 1e9);
        let da = Dollars::new(a).unwrap();
        let db = Dollars::new(b).unwrap();
        assert!(((da + db).value() - (db + da).value()).abs() == 0.0);
    }
}

#[test]
fn micro_dollars_roundtrip() {
    let mut s = Sampler::new(609);
    for _ in 0..CASES {
        let v = s.positive();
        let d = Dollars::new(v).unwrap();
        let rt = d.to_micro_dollars().to_dollars();
        assert!((rt.value() - v).abs() <= v * 1e-12);
    }
}

#[test]
fn design_density_from_layout_inverts_footprint() {
    let mut s = Sampler::new(610);
    for _ in 0..CASES {
        let d_d = s.uniform(10.0, 3000.0);
        let lam = s.uniform(0.1, 2.0);
        let n = s.uniform(1.0e3, 1.0e8);
        let density = DesignDensity::new(d_d).unwrap();
        let lambda = Microns::new(lam).unwrap();
        let area = density.transistor_footprint(lambda) * n;
        let recovered = DesignDensity::from_layout(area, n, lambda).unwrap();
        assert!((recovered.value() - d_d).abs() <= d_d * 1e-9);
    }
}

#[test]
fn transistor_count_millions_roundtrip() {
    let mut s = Sampler::new(611);
    for _ in 0..CASES {
        let m = s.uniform(0.001, 1e4);
        let c = TransistorCount::from_millions(m).unwrap();
        assert!((c.millions() - m).abs() <= m * 1e-12);
    }
}
