//! `partition.subsets_priced` must read `2^n − 1` per search of `n`
//! partitions, at every thread count: each die subset is priced once.
//! It runs in a test binary of its own so no other test moves the
//! process-global counter between the reads.

use maly_cost_model::system::{ManufacturingContext, Partition, SystemDesign};
use maly_cost_model::WaferCostModel;
use maly_cost_optim::partition::{optimize_with, SUBSETS_PRICED};
use maly_par::Executor;
use maly_units::{DesignDensity, Dollars, Microns, Probability, TransistorCount};
use maly_wafer_geom::Wafer;

#[test]
fn each_die_subset_is_priced_once_per_search() {
    let context = ManufacturingContext {
        wafer: Wafer::six_inch(),
        reference_yield: Probability::new(0.7).unwrap(),
        wafer_cost: WaferCostModel::new(Dollars::new(700.0).unwrap(), 1.8).unwrap(),
        per_die_overhead: Dollars::new(5.0).unwrap(),
    };
    let ladder: Vec<Microns> = [1.0, 0.8, 0.65, 0.5]
        .iter()
        .map(|&l| Microns::new(l).unwrap())
        .collect();
    for n in 1..=7 {
        let parts = (0..n)
            .map(|i| {
                Partition::new(
                    format!("p{i}"),
                    TransistorCount::new(2.0e5 * (i + 1) as f64).unwrap(),
                    DesignDensity::new(100.0 + 50.0 * i as f64).unwrap(),
                )
            })
            .collect();
        let system = SystemDesign::new(parts).unwrap();
        for threads in [1, 2, 8] {
            let before = SUBSETS_PRICED.value();
            optimize_with(&Executor::with_threads(threads), &system, &context, &ladder).unwrap();
            assert_eq!(
                SUBSETS_PRICED.value() - before,
                (1 << n) - 1,
                "n {n}, threads {threads}"
            );
        }
    }
}
