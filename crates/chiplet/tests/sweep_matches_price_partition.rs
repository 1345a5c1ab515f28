//! The partition sweep and the single-partition pricer must agree: every
//! per-chiplet-count optimum a sweep reports, re-priced through
//! `price_partition` (the scalar eq. (1) path a served `chiplet_cost`
//! takes), lands within a few ulp. The sweep batches its die costs
//! through `Eq1Kernel`, whose only departure from the scalar path is the
//! lane `exp`, so a second batch path with its own rounding shows up
//! here as a relative error far above the bound.
//!
//! The workspace builds offline with no external crates, so the random
//! windows come from a tiny SplitMix64 generator instead of proptest
//! strategies.

use maly_chiplet::{ChipletParameters, Partition, SweepSpec};
use maly_par::Executor;
use maly_units::{Microns, TransistorCount};

/// A few ulp of relative error: the lane `exp` is within 2 ulp of the
/// scalar one and the composition after it is shared code.
const REL_TOL: f64 = 2e-15;

/// Deterministic uniform sampler (SplitMix64).
struct Sampler(u64);

impl Sampler {
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

    fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        self.uniform(lo.ln(), hi.ln()).exp()
    }

    /// Uniform integer in `[lo, hi]`.
    fn int(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

fn rel(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(f64::MIN_POSITIVE)
}

/// Re-prices every per-chiplet-count entry of the sweep and returns how
/// many entries were checked (zero when no candidate is feasible).
fn assert_sweep_matches_price_partition(params: &ChipletParameters, spec: &SweepSpec) -> usize {
    let Ok(outcome) = params.sweep(spec, &Executor::serial()) else {
        return 0;
    };
    for swept in &outcome.per_chiplet_count {
        let partition = Partition {
            chiplets: swept.chiplets,
            spares: swept.spares,
            lambda: swept.lambda,
            system_transistors: spec.system_transistors,
            volume: spec.volume,
        };
        let priced = params
            .price_partition(&partition)
            .unwrap_or_else(|e| panic!("{partition:?} swept feasible, priced {e:?}"));
        for (what, s, p) in [
            (
                "known_good_die_cost",
                swept.known_good_die_cost.value(),
                priced.known_good_die_cost.value(),
            ),
            (
                "cost_per_system",
                swept.cost_per_system.value(),
                priced.cost_per_system.value(),
            ),
        ] {
            assert!(
                rel(s, p) <= REL_TOL,
                "{what} of {partition:?}: sweep {s:e} vs price_partition {p:e}, rel {:e}",
                rel(s, p)
            );
        }
    }
    outcome.per_chiplet_count.len()
}

/// The benchmark-shaped grid: 8e6 transistors, 31 λ × 16 n × 4 spares
/// at volume 5,000, over three λ windows.
#[test]
fn dense_grid_optima_match_price_partition() {
    let params = ChipletParameters::fig8_mcm();
    for (lo, hi) in [(0.3, 1.5), (0.5, 1.2), (0.8, 2.0)] {
        let spec = SweepSpec {
            system_transistors: TransistorCount::new(8.0e6).unwrap(),
            volume: 5_000,
            lambda_min: Microns::new(lo).unwrap(),
            lambda_max: Microns::new(hi).unwrap(),
            lambda_steps: 31,
            max_chiplets: 16,
            max_spares: 3,
        };
        assert!(
            assert_sweep_matches_price_partition(&params, &spec) > 0,
            "window {lo}..{hi} has no feasible partition"
        );
    }
}

/// Seeded random windows over system size, λ range, grid shape and
/// volume, including windows where some chiplet counts are infeasible.
#[test]
fn random_window_optima_match_price_partition() {
    let params = ChipletParameters::fig8_mcm();
    let mut s = Sampler(0x5EED_C41F);
    let mut checked = 0;
    for _ in 0..200 {
        let lambda_min = s.uniform(0.3, 1.2);
        let spec = SweepSpec {
            system_transistors: TransistorCount::new(s.log_uniform(1.0e5, 5.0e7)).unwrap(),
            volume: s.int(100, 1_000_000),
            lambda_min: Microns::new(lambda_min).unwrap(),
            lambda_max: Microns::new(lambda_min + s.uniform(0.05, 1.5)).unwrap(),
            lambda_steps: s.int(1, 40) as usize,
            max_chiplets: s.int(1, 16) as u32,
            max_spares: s.int(0, 3) as u32,
        };
        checked += assert_sweep_matches_price_partition(&params, &spec);
    }
    assert!(checked > 500, "only {checked} optima checked");
}
