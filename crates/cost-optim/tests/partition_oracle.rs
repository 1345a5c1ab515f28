//! Differential oracle for the subset-table partition search.
//!
//! `oracle_optimize` is the original per-grouping search: every grouping
//! prices each of its dies at every candidate λ as a one-die system, then
//! evaluates the whole assignment. It lives here only as a reference.
//! `optimize_with`, which prices each die subset once, must return the
//! identical `PartitionSolution` (or the identical error) on seeded
//! random systems, at 1, 2 and 8 threads.

use maly_cost_model::system::{ManufacturingContext, Partition, SystemDesign};
use maly_cost_model::{CostError, WaferCostModel};
use maly_cost_optim::partition::{optimize_with, set_partitions, PartitionSolution};
use maly_par::Executor;
use maly_units::{DesignDensity, Dollars, Microns, Probability, TransistorCount};
use maly_wafer_geom::Wafer;

fn oracle_optimize(
    exec: &Executor,
    system: &SystemDesign,
    context: &ManufacturingContext,
    candidate_lambdas: &[Microns],
) -> Result<PartitionSolution, CostError> {
    let groupings = set_partitions(system.partitions().len());
    let candidates = exec.map(&groupings, |grouping| {
        price_grouping(system, context, candidate_lambdas, grouping)
    });

    let mut best: Option<PartitionSolution> = None;
    for candidate in candidates {
        match candidate {
            Err(e) => return Err(e),
            Ok(Some(solution)) => {
                if best
                    .as_ref()
                    .is_none_or(|b| solution.cost.total.value() < b.cost.total.value())
                {
                    best = Some(solution);
                }
            }
            Ok(None) => {}
        }
    }

    best.ok_or(CostError::MissingField {
        field: "feasible assignment",
    })
}

/// Prices one grouping: chooses each die's λ independently and
/// evaluates the full assignment. `Ok(None)` means infeasible.
fn price_grouping(
    system: &SystemDesign,
    context: &ManufacturingContext,
    candidate_lambdas: &[Microns],
    grouping: &[usize],
) -> Result<Option<PartitionSolution>, CostError> {
    let n_dies = grouping.iter().max().map_or(0, |&m| m + 1);
    // Choose each die's λ independently: evaluate die-by-die.
    let mut lambdas: Vec<Microns> = Vec::with_capacity(n_dies);
    for die_idx in 0..n_dies {
        // Per-die costs are separable, so price this die alone as a
        // one-die system and keep its best candidate node.
        let members: Vec<_> = grouping
            .iter()
            .zip(system.partitions())
            .filter(|(&g, _)| g == die_idx)
            .map(|(_, p)| p.clone())
            .collect();
        let sub = SystemDesign::new(members)?;
        let sub_grouping = vec![0; sub.partitions().len()];
        let mut best_lambda: Option<(Microns, f64)> = None;
        for &lambda in candidate_lambdas {
            if let Ok(cost) = sub.evaluate(context, &sub_grouping, &[lambda]) {
                let total = cost.total.value();
                if best_lambda.is_none_or(|(_, c)| total < c) {
                    best_lambda = Some((lambda, total));
                }
            }
        }
        match best_lambda {
            Some((lambda, _)) => lambdas.push(lambda),
            None => return Ok(None),
        }
    }
    match system.evaluate(context, grouping, &lambdas) {
        Ok(cost) => Ok(Some(PartitionSolution {
            grouping: grouping.to_vec(),
            lambdas,
            cost,
        })),
        Err(_) => Ok(None),
    }
}

/// xorshift64* stream: reproducible without any dependency.
struct Rng(u64);

impl Rng {
    fn unit(&mut self) -> f64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64
    }

    fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        (lo.ln() + self.unit() * (hi.ln() - lo.ln())).exp()
    }
}

fn random_system(rng: &mut Rng, n: usize) -> SystemDesign {
    let partitions = (0..n)
        .map(|i| {
            Partition::new(
                format!("p{i}"),
                TransistorCount::new(rng.log_uniform(1.0e4, 3.0e7)).unwrap(),
                DesignDensity::new(rng.log_uniform(20.0, 800.0)).unwrap(),
            )
        })
        .collect();
    SystemDesign::new(partitions).unwrap()
}

fn random_context(rng: &mut Rng) -> ManufacturingContext {
    ManufacturingContext {
        wafer: if rng.unit() < 0.5 {
            Wafer::six_inch()
        } else {
            Wafer::eight_inch()
        },
        reference_yield: Probability::new(0.5 + 0.4 * rng.unit()).unwrap(),
        wafer_cost: WaferCostModel::new(Dollars::new(700.0).unwrap(), 1.2 + 1.4 * rng.unit())
            .unwrap(),
        per_die_overhead: Dollars::new(50.0 * rng.unit() * rng.unit()).unwrap(),
    }
}

fn random_ladder(rng: &mut Rng, len: usize) -> Vec<Microns> {
    (0..len)
        .map(|_| Microns::new(0.3 + 1.2 * rng.unit()).unwrap())
        .collect()
}

#[test]
fn subset_search_matches_the_per_grouping_oracle() {
    let mut rng = Rng(0x2545_f491_4f6c_dd1d);
    let mut feasible = 0;
    for n in 1..=7 {
        for ladder_len in 1..=5 {
            let system = random_system(&mut rng, n);
            let context = random_context(&mut rng);
            let ladder = random_ladder(&mut rng, ladder_len);
            let want = oracle_optimize(&Executor::with_threads(1), &system, &context, &ladder);
            feasible += usize::from(want.is_ok());
            for threads in [1, 2, 8] {
                let got =
                    optimize_with(&Executor::with_threads(threads), &system, &context, &ladder);
                assert_eq!(got, want, "n {n}, ladder {ladder:?}, threads {threads}");
            }
        }
    }
    // The random systems must mostly be feasible, or the comparison
    // would only ever check the error path.
    assert!(feasible >= 30, "{feasible} of 35 feasible");
}

/// A die too large for the wafer at every λ rules out every grouping
/// that puts it alone or merged; the two searches must agree on which
/// groupings survive, or on the error when none does.
#[test]
fn infeasible_dies_match_the_oracle() {
    let context = ManufacturingContext {
        wafer: Wafer::six_inch(),
        reference_yield: Probability::new(0.7).unwrap(),
        wafer_cost: WaferCostModel::new(Dollars::new(700.0).unwrap(), 1.8).unwrap(),
        per_die_overhead: Dollars::new(5.0).unwrap(),
    };
    let ladder = [Microns::new(1.0).unwrap(), Microns::new(0.5).unwrap()];
    let part = |name: &str, n_tr: f64| {
        Partition::new(
            name,
            TransistorCount::new(n_tr).unwrap(),
            DesignDensity::new(200.0).unwrap(),
        )
    };
    for parts in [
        vec![part("huge", 5.0e9)],
        vec![part("a", 1.0e6), part("huge", 5.0e9)],
        vec![part("a", 1.0e6), part("b", 2.0e8), part("c", 2.0e8)],
    ] {
        let system = SystemDesign::new(parts).unwrap();
        let want = oracle_optimize(&Executor::with_threads(1), &system, &context, &ladder);
        for threads in [1, 2, 8] {
            let got = optimize_with(&Executor::with_threads(threads), &system, &context, &ladder);
            assert_eq!(got, want, "threads {threads}");
        }
    }
}
