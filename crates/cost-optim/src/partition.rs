//! Exhaustive system-partitioning optimization (Sec. IV.B).
//!
//! Searches every way to group a system's partitions onto dies (set
//! partitions of the partition list) and, for each die, every candidate
//! feature size — pricing each candidate with
//! [`maly_cost_model::system::SystemDesign::evaluate`] and keeping the
//! cheapest. Exhaustive enumeration is exact and affordable for the
//! system sizes the paper contemplates (Bell(7) = 877 groupings).

use maly_cost_model::system::{ManufacturingContext, SystemCost, SystemDesign};
use maly_cost_model::CostError;
use maly_par::Executor;
use maly_units::Microns;

/// The optimizer's result: the winning assignment and its cost.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionSolution {
    /// `grouping[i]` = die index of partition `i`.
    pub grouping: Vec<usize>,
    /// Feature size chosen for each die.
    pub lambdas: Vec<Microns>,
    /// Full cost report.
    pub cost: SystemCost,
}

/// Upper limit on partitions for exhaustive search (Bell(10) = 115 975
/// candidate groupings — still fine; beyond that, refuse).
pub const MAX_PARTITIONS: usize = 10;

/// Finds the cheapest grouping × per-die-λ assignment.
///
/// `candidate_lambdas` are the nodes available to manufacture on (e.g.
/// the process generations a company has access to). Each die
/// independently picks its best candidate.
///
/// # Errors
///
/// * [`CostError::MissingField`] when inputs are empty or the system has
///   more than [`MAX_PARTITIONS`] partitions;
/// * evaluation errors only if *no* candidate assignment is feasible.
pub fn optimize(
    system: &SystemDesign,
    context: &ManufacturingContext,
    candidate_lambdas: &[Microns],
) -> Result<PartitionSolution, CostError> {
    optimize_with(&Executor::from_env(), system, context, candidate_lambdas)
}

/// [`optimize`] on an explicit executor: groupings are priced in
/// parallel (each one's per-die λ choice is self-contained), then the
/// winner is picked by an ordered strict-`<` fold over the canonical
/// grouping order — the same tie-break as the serial loop, so the
/// solution is bit-identical at every thread count.
///
/// # Errors
///
/// As for [`optimize`].
pub fn optimize_with(
    exec: &Executor,
    system: &SystemDesign,
    context: &ManufacturingContext,
    candidate_lambdas: &[Microns],
) -> Result<PartitionSolution, CostError> {
    let n = system.partitions().len();
    if n == 0 || candidate_lambdas.is_empty() || n > MAX_PARTITIONS {
        return Err(CostError::MissingField {
            field: "partitions/candidate lambdas",
        });
    }

    let groupings = set_partitions(n);
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

/// Enumerates all set partitions of `n` items as canonical grouping
/// vectors (restricted growth strings): `g[0] = 0`,
/// `g[i] ≤ max(g[0..i]) + 1`.
#[must_use]
pub fn set_partitions(n: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut current = vec![0usize; n];
    fn recurse(current: &mut Vec<usize>, i: usize, max_used: usize, out: &mut Vec<Vec<usize>>) {
        if i == current.len() {
            out.push(current.clone());
            return;
        }
        for g in 0..=max_used + 1 {
            current[i] = g;
            recurse(current, i + 1, max_used.max(g), out);
        }
    }
    if n == 0 {
        return vec![vec![]];
    }
    recurse(&mut current, 1, 0, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use maly_cost_model::system::Partition;
    use maly_cost_model::WaferCostModel;
    use maly_units::{DesignDensity, Dollars, Probability, TransistorCount};
    use maly_wafer_geom::Wafer;

    fn partition(name: &str, n_tr: f64, d_d: f64) -> Partition {
        Partition::new(
            name,
            TransistorCount::new(n_tr).unwrap(),
            DesignDensity::new(d_d).unwrap(),
        )
    }

    fn context(per_die_overhead: f64) -> ManufacturingContext {
        ManufacturingContext {
            wafer: Wafer::six_inch(),
            reference_yield: Probability::new(0.7).unwrap(),
            wafer_cost: WaferCostModel::new(Dollars::new(700.0).unwrap(), 1.8).unwrap(),
            per_die_overhead: Dollars::new(per_die_overhead).unwrap(),
        }
    }

    fn ladder() -> Vec<Microns> {
        [1.0, 0.8, 0.65, 0.5]
            .iter()
            .map(|&l| Microns::new(l).unwrap())
            .collect()
    }

    #[test]
    fn bell_numbers() {
        assert_eq!(set_partitions(1).len(), 1);
        assert_eq!(set_partitions(2).len(), 2);
        assert_eq!(set_partitions(3).len(), 5);
        assert_eq!(set_partitions(4).len(), 15);
        assert_eq!(set_partitions(5).len(), 52);
    }

    #[test]
    fn partitions_are_canonical() {
        for p in set_partitions(4) {
            assert_eq!(p[0], 0);
            let mut max_seen = 0;
            for &g in &p {
                assert!(g <= max_seen + 1);
                max_seen = max_seen.max(g);
            }
        }
    }

    #[test]
    fn optimizer_beats_naive_single_die_single_lambda() {
        let system = SystemDesign::new(vec![
            partition("dram", 4.0e6, 35.0),
            partition("logic", 0.8e6, 300.0),
            partition("io", 0.1e6, 600.0),
        ])
        .unwrap();
        let ctx = context(5.0);
        let solution = optimize(&system, &ctx, &ladder()).unwrap();
        // The naive candidate: everything on one 0.8 µm die.
        let naive = system
            .evaluate(&ctx, &[0, 0, 0], &[Microns::new(0.8).unwrap()])
            .unwrap();
        assert!(
            solution.cost.total.value() <= naive.total.value() + 1e-9,
            "optimizer {} vs naive {}",
            solution.cost.total.value(),
            naive.total.value()
        );
    }

    #[test]
    fn huge_overhead_forces_merging() {
        let system = SystemDesign::new(vec![
            partition("a", 0.5e6, 150.0),
            partition("b", 0.5e6, 150.0),
        ])
        .unwrap();
        let ctx = context(2000.0);
        let solution = optimize(&system, &ctx, &ladder()).unwrap();
        assert_eq!(solution.grouping, vec![0, 0], "should merge to one die");
        assert_eq!(solution.lambdas.len(), 1);
    }

    #[test]
    fn dense_memory_splits_from_sparse_logic_when_splitting_is_cheap() {
        // A big dense memory block and a sparse logic block under steep
        // escalation (X = 2.4): the memory's huge die needs the shrink
        // for yield, while the small logic die is cheapest on the mature
        // node. With tiny per-die overhead the optimizer splits them.
        let system = SystemDesign::new(vec![
            partition("memory", 3.0e7, 30.0),
            partition("logic", 0.3e6, 500.0),
        ])
        .unwrap();
        let ctx = ManufacturingContext {
            wafer_cost: WaferCostModel::new(Dollars::new(700.0).unwrap(), 2.4).unwrap(),
            ..context(0.5)
        };
        let solution = optimize(&system, &ctx, &ladder()).unwrap();
        assert_eq!(solution.grouping, vec![0, 1], "should split dies");
        // Memory die runs at a finer node than the logic die.
        assert!(
            solution.lambdas[0] < solution.lambdas[1],
            "memory at {}, logic at {}",
            solution.lambdas[0],
            solution.lambdas[1]
        );
    }

    #[test]
    fn too_many_partitions_rejected() {
        let parts: Vec<Partition> = (0..11)
            .map(|i| partition(&format!("p{i}"), 1.0e5, 200.0))
            .collect();
        let system = SystemDesign::new(parts).unwrap();
        assert!(optimize(&system, &context(5.0), &ladder()).is_err());
    }

    #[test]
    fn empty_candidates_rejected() {
        let system = SystemDesign::new(vec![partition("a", 1.0e6, 150.0)]).unwrap();
        assert!(optimize(&system, &context(5.0), &[]).is_err());
    }

    #[test]
    fn solution_is_internally_consistent() {
        let system = SystemDesign::new(vec![
            partition("a", 1.0e6, 100.0),
            partition("b", 2.0e6, 200.0),
        ])
        .unwrap();
        let ctx = context(5.0);
        let solution = optimize(&system, &ctx, &ladder()).unwrap();
        // Re-evaluating the winning assignment reproduces the cost.
        let recheck = system
            .evaluate(&ctx, &solution.grouping, &solution.lambdas)
            .unwrap();
        assert!((recheck.total.value() - solution.cost.total.value()).abs() < 1e-9);
    }
}
