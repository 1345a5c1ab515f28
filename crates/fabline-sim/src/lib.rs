//! Fab-line capacity, utilization and wafer-cost economics.
//!
//! Sec. III.A.d of the paper ("Product mix") argues that wafer cost is
//! dominated by how well a fab's equipment is utilized: "the cost of
//! 'ownership' for some equipment may be the same for 'active' and
//! 'inactive' equipment usage", and a detailed study \[12\] found "the
//! ratio of the cost of the wafer fabricated with low volume
//! multi-product fabline and high volume mono-product environment may
//! reach as high value as 7."
//!
//! This crate builds that argument from first principles:
//!
//! * [`equipment::EquipmentClass`] — tools with throughput and a fixed
//!   annual cost of ownership (paid whether the tool runs or idles);
//! * [`process::ProcessFlow`] — per-product step sequences whose length
//!   scales with the technology generation (the Fig 4 trend);
//! * [`capacity::Fab`] — the tool units a fab owns and their annual
//!   cost of ownership;
//! * [`cost::FabEconomics`] — the minimal tool-set for a demand
//!   ([`cost::FabEconomics::size_fab`], setups included), its
//!   utilization, and wafer cost as cost of ownership ÷ throughput;
//!   [`cost::product_mix_study`] compares mono- and multi-product fabs,
//!   reproducing the ×7 mechanism;
//! * [`des`] — a discrete-event lot-flow simulation that validates the
//!   capacity model's utilizations and exposes cycle-time effects the
//!   static model cannot see;
//! * [`mc`] — Monte Carlo replications over demand uncertainty, run in
//!   parallel on [`maly_par::Executor`] with per-replication seeds, so
//!   reports are bit-identical at every thread count.
//!
//! # Examples
//!
//! ```
//! use maly_fabline_sim::{cost, process::ProcessFlow};
//!
//! // A dedicated high-volume fab for one 0.8 µm CMOS flow...
//! let flow = ProcessFlow::for_generation("cmos-0.8", 0.8);
//! let demand = [(flow, 100_000.0)];
//! let fab = cost::FabEconomics::default().size_fab(&demand);
//! let mono = cost::wafer_cost(&fab, &demand).unwrap();
//! // ...makes wafers for hundreds, not thousands, of dollars.
//! assert!(mono.value() > 100.0 && mono.value() < 2000.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capacity;
pub mod cost;
pub mod des;
pub mod equipment;
pub mod mc;
pub mod process;

#[cfg(test)]
mod tests {
    use super::*;
    use process::ProcessFlow;

    /// The paper's headline product-mix claim: a low-volume multi-product
    /// fab pays several times more per wafer than a high-volume
    /// mono-product fab, approaching the reported ×7 for sufficiently
    /// fragmented demand.
    #[test]
    fn product_mix_penalty_reaches_paper_band() {
        // Ten niche products at 300 wafers/year each vs one commodity
        // line at 100k — the regime \[12\] measured.
        let report = cost::product_mix_study(10, 300.0, 100_000.0);
        assert!(
            report.cost_ratio > 5.0,
            "penalty {} too small",
            report.cost_ratio
        );
        assert!(
            report.cost_ratio < 12.0,
            "penalty {} implausibly large",
            report.cost_ratio
        );
    }

    #[test]
    fn utilization_explains_the_penalty() {
        let report = cost::product_mix_study(10, 500.0, 100_000.0);
        assert!(
            report.mono_utilization > 0.7,
            "mono {}",
            report.mono_utilization
        );
        assert!(
            report.multi_utilization < 0.5,
            "multi {}",
            report.multi_utilization
        );
        assert!(report.cost_ratio > 3.0);
    }

    #[test]
    fn single_product_high_volume_has_no_penalty() {
        let flow = ProcessFlow::for_generation("x", 0.8);
        let fab = cost::FabEconomics::default().size_fab(&[(flow.clone(), 100_000.0)]);
        let cost_a = cost::wafer_cost(&fab, &[(flow.clone(), 100_000.0)]).unwrap();
        // The same fab run at the same volume with the "multi-product"
        // path but one product is identical.
        let cost_b = cost::wafer_cost(&fab, &[(flow, 100_000.0)]).unwrap();
        assert_eq!(cost_a, cost_b);
    }
}
