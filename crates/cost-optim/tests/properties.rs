//! Property-style tests for the optimizers.
//!
//! The workspace builds offline with no external crates, so instead of
//! proptest strategies these properties are checked over deterministic
//! pseudo-random samples drawn from a tiny SplitMix64 generator.

use maly_cost_model::system::{ManufacturingContext, Partition, SystemDesign};
use maly_cost_model::WaferCostModel;
use maly_cost_optim::partition::{optimize, set_partitions};
use maly_cost_optim::search::grid_min_with;
use maly_par::Executor;
use maly_units::{DesignDensity, Dollars, Microns, Probability, TransistorCount};
use maly_wafer_geom::Wafer;

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

    fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

const CASES: usize = 24;

/// Grid minimization never returns a value above any sampled point.
#[test]
fn grid_min_is_a_lower_envelope() {
    let mut s = Sampler::new(202);
    for _ in 0..CASES {
        let seed = s.index(1000) as f64;
        // A deterministic "random-looking" bumpy function.
        let f = move |x: f64| ((x * 7.3 + seed).sin() + (x * 1.9).cos()) * x.abs();
        let (_, fmin) = grid_min_with(&Executor::from_env(), f, -5.0, 5.0, 501);
        for i in 0..501 {
            let x = -5.0 + 10.0 * f64::from(i) / 500.0;
            assert!(fmin <= f(x) + 1e-12);
        }
    }
}

/// The partition optimizer's answer is no worse than any candidate
/// assignment drawn from its own search space.
#[test]
fn optimizer_dominates_arbitrary_assignments() {
    let mut s = Sampler::new(204);
    for _ in 0..CASES {
        let n_a = s.uniform(2.0e5, 3.0e6);
        let n_b = s.uniform(2.0e5, 3.0e6);
        let d_a = s.uniform(40.0, 400.0);
        let d_b = s.uniform(40.0, 400.0);
        let grouping_pick = s.index(2);
        let lambda_pick = s.index(4);
        let system = SystemDesign::new(vec![
            Partition::new(
                "a",
                TransistorCount::new(n_a).unwrap(),
                DesignDensity::new(d_a).unwrap(),
            ),
            Partition::new(
                "b",
                TransistorCount::new(n_b).unwrap(),
                DesignDensity::new(d_b).unwrap(),
            ),
        ])
        .unwrap();
        let ctx = ManufacturingContext {
            wafer: Wafer::six_inch(),
            reference_yield: Probability::new(0.7).unwrap(),
            wafer_cost: WaferCostModel::new(Dollars::new(700.0).unwrap(), 1.8).unwrap(),
            per_die_overhead: Dollars::new(5.0).unwrap(),
        };
        let nodes = [1.0, 0.8, 0.65, 0.5];
        let ladder: Vec<Microns> = nodes.iter().map(|&l| Microns::new(l).unwrap()).collect();
        let best = optimize(&system, &ctx, &ladder).unwrap();

        // An arbitrary candidate from the same space.
        let grouping = set_partitions(2)[grouping_pick].clone();
        let n_dies = grouping.iter().max().unwrap() + 1;
        let lambdas = vec![Microns::new(nodes[lambda_pick]).unwrap(); n_dies];
        if let Ok(candidate) = system.evaluate(&ctx, &grouping, &lambdas) {
            assert!(
                best.cost.total.value() <= candidate.total.value() + 1e-9,
                "optimizer {} beaten by candidate {}",
                best.cost.total.value(),
                candidate.total.value()
            );
        }
    }
}
