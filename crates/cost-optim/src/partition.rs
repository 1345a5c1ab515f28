//! Exhaustive system-partitioning optimization (Sec. IV.B).
//!
//! Searches every way to group a system's partitions onto dies (set
//! partitions of the partition list) and, for each die, every candidate
//! feature size, keeping the cheapest. Exhaustive enumeration is exact
//! and affordable for the system sizes the paper contemplates (Bell(7) =
//! 877 groupings).
//!
//! A die's cost depends only on which partitions it carries and its λ,
//! so the search prices each of the `2^n − 1` possible dies (non-empty
//! subsets of the `n` partitions) once, over the whole λ ladder, with
//! [`maly_cost_model::system::SystemDesign::evaluate`]. A grouping is
//! then `Bell(n)` table lookups and a sum, and only the winning grouping
//! is evaluated in full for its report. The search costs `2^n − 1`
//! subset pricings rather than one per die of every grouping (for
//! `n = 7`, 127 instead of 3,263).

use maly_cost_model::system::{ManufacturingContext, SystemCost, SystemDesign};
use maly_cost_model::CostError;
use maly_par::Executor;
use maly_units::{Dollars, Microns};

/// Die subsets priced over the λ ladder: `2^n − 1` per search of `n`
/// partitions. Work kind: fixed by the system size, whatever the
/// thread count.
pub static SUBSETS_PRICED: maly_obs::Counter = maly_obs::Counter::work("partition.subsets_priced");

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

/// [`optimize`] on an explicit executor: the die subsets are priced in
/// parallel (each one's λ choice is self-contained), then the groupings
/// are ranked by an ordered strict-`<` fold over the canonical grouping
/// order. Each grouping's total is its dies' costs summed in die order,
/// the same additions [`SystemDesign::evaluate`] makes, so the solution
/// is bit-identical at every thread count.
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

    // `dies[mask - 1]`: the best λ and cost of the die carrying the
    // partitions whose bits are set in `mask`, or `None` if no λ works.
    let subsets: Vec<usize> = (1..1usize << n).collect();
    let dies = exec
        .map(&subsets, |&mask| {
            price_die(system, context, candidate_lambdas, mask)
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    SUBSETS_PRICED.add(subsets.len() as u64);

    let mut best: Option<(f64, Vec<usize>)> = None;
    let mut masks = Vec::with_capacity(n);
    for grouping in set_partitions(n) {
        die_masks(&grouping, &mut masks);
        let mut total = Some(Dollars::zero());
        for &mask in &masks {
            total = total.zip(dies[mask - 1]).map(|(sum, (_, cost))| sum + cost);
        }
        if let Some(total) = total.map(Dollars::value) {
            if best.as_ref().is_none_or(|(b, _)| total < *b) {
                best = Some((total, grouping));
            }
        }
    }

    let infeasible = || CostError::MissingField {
        field: "feasible assignment",
    };
    let (_, grouping) = best.ok_or_else(infeasible)?;
    die_masks(&grouping, &mut masks);
    let lambdas: Vec<Microns> = masks
        .iter()
        .map(|&mask| dies[mask - 1].map(|(lambda, _)| lambda))
        .collect::<Option<_>>()
        .ok_or_else(infeasible)?;
    let cost = system.evaluate(context, &grouping, &lambdas)?;
    Ok(PartitionSolution {
        grouping,
        lambdas,
        cost,
    })
}

/// Fills `masks` with each die's partition bitmask (bit `i` for
/// partition `i`), in die order, for a canonical `grouping`.
fn die_masks(grouping: &[usize], masks: &mut Vec<usize>) {
    masks.clear();
    for (i, &die) in grouping.iter().enumerate() {
        if die == masks.len() {
            masks.push(0);
        }
        masks[die] |= 1 << i;
    }
}

/// Prices the die carrying the partitions in `mask` (bit `i` for
/// partition `i`, members in partition order) as a one-die system at
/// every candidate λ, keeping the first cheapest (strict `<`). Returns
/// that λ and the die's cost, or `Ok(None)` when no candidate λ is
/// feasible. A one-die system's total is `0 + cost` of its die, which
/// is exact, so summing these totals in die order repeats the additions
/// of the full evaluation.
fn price_die(
    system: &SystemDesign,
    context: &ManufacturingContext,
    candidate_lambdas: &[Microns],
    mask: usize,
) -> Result<Option<(Microns, Dollars)>, CostError> {
    let members: Vec<_> = system
        .partitions()
        .iter()
        .enumerate()
        .filter(|&(i, _)| mask & 1 << i != 0)
        .map(|(_, p)| p.clone())
        .collect();
    let sub = SystemDesign::new(members)?;
    let sub_grouping = vec![0; sub.partitions().len()];
    let mut best: Option<(Microns, Dollars)> = None;
    for &lambda in candidate_lambdas {
        if let Ok(cost) = sub.evaluate(context, &sub_grouping, &[lambda]) {
            if best.is_none_or(|(_, c)| cost.total.value() < c.value()) {
                best = Some((lambda, cost.total));
            }
        }
    }
    Ok(best)
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
