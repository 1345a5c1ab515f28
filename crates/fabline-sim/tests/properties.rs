//! Property-style tests for the fab-line economics.
//!
//! The workspace builds offline with no external crates, so instead of
//! proptest strategies these properties are checked over deterministic
//! pseudo-random samples drawn from a tiny SplitMix64 generator.

use maly_fabline_sim::cost::FabEconomics;
use maly_fabline_sim::process::ProcessFlow;

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

    fn node(&mut self) -> f64 {
        const NODES: [f64; 6] = [1.5, 1.0, 0.8, 0.65, 0.5, 0.35];
        NODES[(self.next_u64() % NODES.len() as u64) as usize]
    }
}

const CASES: usize = 32;

/// Wafer cost decreases (weakly) with volume for a fixed flow: the
/// fixed facility and tool-count granularity amortize.
#[test]
fn wafer_cost_weakly_decreasing_in_volume() {
    let mut s = Sampler::new(302);
    for _ in 0..CASES {
        let lambda = s.node();
        let volume = s.uniform(2_000.0, 80_000.0);
        let growth = s.uniform(1.2, 4.0);
        let econ = FabEconomics::default();
        let flow = ProcessFlow::for_generation("p", lambda);
        let small = econ.wafer_cost(&[(flow.clone(), volume)]).unwrap().value();
        let large = econ.wafer_cost(&[(flow, volume * growth)]).unwrap().value();
        assert!(
            large <= small * 1.02,
            "cost rose with volume: {small} → {large}"
        );
    }
}

/// Splitting one product's volume into two identical products never
/// makes wafers cheaper (changeovers only add hours).
#[test]
fn fragmentation_never_helps() {
    let mut s = Sampler::new(303);
    for _ in 0..CASES {
        let lambda = s.node();
        let volume = s.uniform(4_000.0, 60_000.0);
        let econ = FabEconomics::default();
        let a = ProcessFlow::for_generation("a", lambda);
        let b = ProcessFlow::for_generation("b", lambda);
        let mono = econ.wafer_cost(&[(a.clone(), volume)]).unwrap().value();
        let duo = econ
            .wafer_cost(&[(a, volume / 2.0), (b, volume / 2.0)])
            .unwrap()
            .value();
        assert!(
            duo >= mono * 0.999,
            "fragmenting got cheaper: {mono} → {duo}"
        );
    }
}

/// Utilization metrics are well-formed: productive ≤ total ≤ 1 for a
/// sized fab.
#[test]
fn utilizations_are_ordered_fractions() {
    let mut s = Sampler::new(304);
    for _ in 0..CASES {
        let lambda = s.node();
        let volume = s.uniform(1_000.0, 80_000.0);
        let econ = FabEconomics::default();
        let flows: Vec<_> = (0..3)
            .map(|i| {
                (
                    ProcessFlow::for_generation(format!("p{i}"), lambda),
                    volume / 3.0,
                )
            })
            .collect();
        let total = econ.utilization(&flows);
        let productive = econ.productive_utilization(&flows);
        assert!(productive <= total + 1e-12);
        assert!(total <= 1.0 + 1e-9, "sized fab overloaded: {total}");
        assert!(productive > 0.0);
    }
}

/// Step counts scale monotonically down the ladder.
#[test]
fn finer_nodes_take_more_steps() {
    let mut s = Sampler::new(305);
    for _ in 0..CASES {
        let coarse = s.uniform(0.6, 2.0);
        let shrink = s.uniform(0.4, 0.9);
        let big = ProcessFlow::for_generation("big", coarse);
        let small = ProcessFlow::for_generation("small", coarse * shrink);
        assert!(small.step_count() >= big.step_count());
    }
}
