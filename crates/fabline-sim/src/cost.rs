//! Wafer cost from cost of ownership, and the product-mix study.
//!
//! The wafer cost of a fab is its total annual cost of ownership divided
//! by its annual wafer output. Three mechanisms make a low-volume
//! multi-product fab expensive per wafer (Sec. III.A.d):
//!
//! 1. **Granularity** — the fab must own at least one tool of every
//!    family any product touches; at low volume most of that capacity
//!    idles but its ownership cost accrues anyway.
//! 2. **Changeovers** — with many products interleaved in small lots,
//!    tools burn hours on setups and re-qualification that a mono-product
//!    line never pays.
//! 3. **Base facility** — cleanroom, utilities and administration are
//!    volume-independent.
//!
//! [`product_mix_study`] combines all three and reproduces the paper's
//! "up to ×7" penalty for sufficiently fragmented demand.

use maly_units::Dollars;

use crate::capacity::Fab;
use crate::equipment::{standard_toolset, ToolFamily};
use crate::process::ProcessFlow;

/// Lot size (wafers per carrier) used for changeover accounting.
pub const DEFAULT_LOT_SIZE: f64 = 24.0;
/// Hours to set up / re-qualify a tool when the incoming lot belongs to a
/// different product than the previous one.
pub const DEFAULT_SETUP_HOURS: f64 = 0.5;
/// Annual volume-independent facility cost (cleanroom, utilities, staff
/// not tied to tools).
pub const DEFAULT_BASE_FACILITY_COST: f64 = 10.0e6;

/// Economic assumptions for wafer-cost accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabEconomics {
    /// Wafers per lot.
    pub lot_size: f64,
    /// Setup hours per product changeover at a tool.
    pub setup_hours: f64,
    /// Annual volume-independent facility cost.
    pub base_facility_cost: Dollars,
}

impl Default for FabEconomics {
    fn default() -> Self {
        Self {
            lot_size: DEFAULT_LOT_SIZE,
            setup_hours: DEFAULT_SETUP_HOURS,
            base_facility_cost: Dollars::new(DEFAULT_BASE_FACILITY_COST).expect("positive"),
        }
    }
}

impl FabEconomics {
    /// Probability that two consecutive lots at a tool belong to
    /// different products, for a randomly interleaved demand:
    /// `1 − Σ share_i²` (zero for a mono-product line).
    #[must_use]
    fn changeover_probability(demand: &[(ProcessFlow, f64)]) -> f64 {
        let total: f64 = demand.iter().map(|(_, v)| v).sum();
        if total <= 0.0 {
            return 0.0;
        }
        1.0 - demand.iter().map(|(_, v)| (v / total).powi(2)).sum::<f64>()
    }

    /// Tool hours demanded per family and year, including changeover
    /// setups.
    #[must_use]
    fn demanded_hours(&self, demand: &[(ProcessFlow, f64)]) -> Vec<(ToolFamily, f64)> {
        let p_switch = Self::changeover_probability(demand);
        let toolset = standard_toolset();
        ToolFamily::ALL
            .iter()
            .filter_map(|&family| {
                let class = toolset.iter().find(|c| c.family() == family)?;
                let mut processing = 0.0;
                let mut lot_visits = 0.0;
                for (flow, starts) in demand {
                    let steps = flow.steps_on(family) as f64;
                    if steps > 0.0 {
                        processing += class.hours_for_steps(steps * starts);
                        lot_visits += steps * (starts / self.lot_size);
                    }
                }
                if processing <= 0.0 {
                    return None;
                }
                let setups = lot_visits * p_switch * self.setup_hours;
                Some((family, processing + setups))
            })
            .collect()
    }

    /// The minimal fab for a demand under these economics (tool counts
    /// cover processing *and* setup hours).
    #[must_use]
    pub fn size_fab(&self, demand: &[(ProcessFlow, f64)]) -> Fab {
        let toolset = standard_toolset();
        let tools = self
            .demanded_hours(demand)
            .into_iter()
            .map(|(family, hours)| {
                let class = *toolset
                    .iter()
                    .find(|c| c.family() == family)
                    .expect("demanded_hours only returns known families");
                let available = crate::equipment::HOURS_PER_YEAR * crate::equipment::AVAILABILITY;
                let units = (hours / available).ceil().max(1.0) as u32;
                (class, units)
            })
            .collect();
        Fab::new(tools)
    }

    /// Wafer cost of a demand in the minimal fab for it:
    /// `(tool ownership + base facility) / wafers`.
    ///
    /// # Errors
    ///
    /// Returns an error when total demand is zero wafers.
    pub fn wafer_cost(
        &self,
        demand: &[(ProcessFlow, f64)],
    ) -> Result<Dollars, maly_units::UnitError> {
        let wafers: f64 = demand.iter().map(|(_, v)| v).sum();
        if wafers <= 0.0 {
            return Err(maly_units::UnitError::NotPositive {
                quantity: "annual wafer volume",
                value: wafers,
            });
        }
        let fab = self.size_fab(demand);
        let annual = fab.annual_cost() + self.base_facility_cost;
        Ok(annual / wafers)
    }

    /// Processing-only tool hours per family (no setups) — the hours that
    /// actually move wafers.
    #[must_use]
    fn processing_hours(&self, demand: &[(ProcessFlow, f64)]) -> Vec<(ToolFamily, f64)> {
        let toolset = standard_toolset();
        ToolFamily::ALL
            .iter()
            .filter_map(|&family| {
                let class = toolset.iter().find(|c| c.family() == family)?;
                let mut processing = 0.0;
                for (flow, starts) in demand {
                    let steps = flow.steps_on(family) as f64;
                    if steps > 0.0 {
                        processing += class.hours_for_steps(steps * starts);
                    }
                }
                (processing > 0.0).then_some((family, processing))
            })
            .collect()
    }

    /// Hour-weighted utilization of the minimal fab for a demand
    /// (setup hours count as load — the tool is occupied either way).
    #[must_use]
    pub fn utilization(&self, demand: &[(ProcessFlow, f64)]) -> f64 {
        self.utilization_of(demand, self.demanded_hours(demand))
    }

    /// *Productive* utilization: the fraction of owned tool-hours that
    /// process wafers. Setups and idle both count against it — this is
    /// the number that collapses for fragmented product mixes and drives
    /// the paper's ×7 wafer-cost penalty.
    #[must_use]
    pub fn productive_utilization(&self, demand: &[(ProcessFlow, f64)]) -> f64 {
        self.utilization_of(demand, self.processing_hours(demand))
    }

    fn utilization_of(&self, demand: &[(ProcessFlow, f64)], hours: Vec<(ToolFamily, f64)>) -> f64 {
        let fab = self.size_fab(demand);
        let available = crate::equipment::HOURS_PER_YEAR * crate::equipment::AVAILABILITY;
        let total_available: f64 = fab
            .tools()
            .iter()
            .map(|(_, units)| available * f64::from(*units))
            .sum();
        let total_demanded: f64 = hours.iter().map(|(_, h)| h).sum();
        if total_available > 0.0 {
            total_demanded / total_available
        } else {
            0.0
        }
    }
}

/// Wafer cost of a *given* fab under a demand — the basic
/// ownership-over-output accounting (no base facility, no setups), used
/// when the fab is fixed rather than sized.
///
/// # Errors
///
/// Returns an error when total demand is zero wafers.
pub fn wafer_cost(
    fab: &Fab,
    demand: &[(ProcessFlow, f64)],
) -> Result<Dollars, maly_units::UnitError> {
    let wafers: f64 = demand.iter().map(|(_, v)| v).sum();
    if wafers <= 0.0 {
        return Err(maly_units::UnitError::NotPositive {
            quantity: "annual wafer volume",
            value: wafers,
        });
    }
    Ok(fab.annual_cost() / wafers)
}

/// Result of a mono- vs multi-product wafer-cost comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProductMixReport {
    /// Wafer cost of the high-volume mono-product line.
    pub mono_cost: Dollars,
    /// Wafer cost of the low-volume multi-product line.
    pub multi_cost: Dollars,
    /// `multi_cost / mono_cost` — the paper quotes "as high as 7".
    pub cost_ratio: f64,
    /// Productive (wafer-moving) utilization of the mono-product fab.
    pub mono_utilization: f64,
    /// Productive utilization of the multi-product fab.
    pub multi_utilization: f64,
}

/// Compares a mono-product high-volume fab against a multi-product
/// low-volume fab with default economics.
///
/// The mono fab runs one 0.8 µm flow at `mono_volume` wafers/year. The
/// multi fab runs `n_products` deliberately dissimilar flows (different
/// nodes, different family biases) at `volume_each` wafers/year each.
///
/// # Panics
///
/// Panics if `n_products` is zero or a volume is not positive.
#[must_use]
pub fn product_mix_study(
    n_products: usize,
    volume_each: f64,
    mono_volume: f64,
) -> ProductMixReport {
    assert!(n_products > 0, "need at least one product");
    assert!(
        volume_each > 0.0 && mono_volume > 0.0,
        "volumes must be positive"
    );
    let econ = FabEconomics::default();

    let mono_flow = ProcessFlow::for_generation("commodity-0.8", 0.8);
    let mono_demand = vec![(mono_flow, mono_volume)];
    let mono_cost = econ.wafer_cost(&mono_demand).expect("positive volume");
    let mono_utilization = econ.productive_utilization(&mono_demand);

    let multi_demand: Vec<(ProcessFlow, f64)> = (0..n_products)
        .map(|i| {
            // Spread products across nodes and bias each toward a family
            // so their equipment fingerprints differ.
            let nodes = [1.0, 0.8, 0.65, 0.5];
            let lambda = nodes[i % nodes.len()];
            let bias = ToolFamily::ALL[i % ToolFamily::ALL.len()];
            let flow = ProcessFlow::for_generation(format!("niche-{i}"), lambda)
                .with_extra_steps(bias, 30);
            (flow, volume_each)
        })
        .collect();
    let multi_cost = econ.wafer_cost(&multi_demand).expect("positive volume");
    let multi_utilization = econ.productive_utilization(&multi_demand);

    ProductMixReport {
        mono_cost,
        multi_cost,
        cost_ratio: multi_cost.value() / mono_cost.value(),
        mono_utilization,
        multi_utilization,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn changeover_probability_limits() {
        let flow = ProcessFlow::for_generation("a", 0.8);
        // Mono-product: never switches.
        assert_eq!(
            FabEconomics::changeover_probability(&[(flow.clone(), 1000.0)]),
            0.0
        );
        // Two equal products: switches half the time.
        let two = [(flow.clone(), 500.0), (flow.clone(), 500.0)];
        assert!((FabEconomics::changeover_probability(&two) - 0.5).abs() < 1e-12);
        // Many equal products: approaches 1.
        let many: Vec<_> = (0..20).map(|_| (flow.clone(), 50.0)).collect();
        assert!(FabEconomics::changeover_probability(&many) > 0.9);
        // Empty demand: zero.
        assert_eq!(FabEconomics::changeover_probability(&[]), 0.0);
    }

    #[test]
    fn wafer_cost_falls_with_volume() {
        let econ = FabEconomics::default();
        let flow = ProcessFlow::for_generation("a", 0.8);
        let mut last = f64::INFINITY;
        for volume in [2_000.0, 10_000.0, 50_000.0, 200_000.0] {
            let c = econ.wafer_cost(&[(flow.clone(), volume)]).unwrap().value();
            assert!(c < last, "cost must fall with volume: {c} at {volume}");
            last = c;
        }
    }

    #[test]
    fn high_volume_mono_cost_in_plausible_band() {
        // The paper quotes $500–800 for a 1 µm 6-inch wafer and $1300 for
        // a 0.8 µm 3-metal wafer; our synthetic fab should land in that
        // order of magnitude for a committed high-volume line.
        let econ = FabEconomics::default();
        let flow = ProcessFlow::for_generation("a", 0.8);
        let c = econ.wafer_cost(&[(flow, 100_000.0)]).unwrap().value();
        assert!((400.0..2_000.0).contains(&c), "cost {c}");
    }

    #[test]
    fn finer_nodes_make_dearer_wafers() {
        let econ = FabEconomics::default();
        let coarse = econ
            .wafer_cost(&[(ProcessFlow::for_generation("a", 1.0), 100_000.0)])
            .unwrap();
        let fine = econ
            .wafer_cost(&[(ProcessFlow::for_generation("b", 0.35), 100_000.0)])
            .unwrap();
        assert!(fine.value() > coarse.value());
    }

    #[test]
    fn setups_inflate_multi_product_hours() {
        let econ = FabEconomics::default();
        let flow_a = ProcessFlow::for_generation("a", 0.8);
        let flow_b = ProcessFlow::for_generation("b", 0.8);
        let mono: f64 = econ
            .demanded_hours(&[(flow_a.clone(), 10_000.0)])
            .iter()
            .map(|(_, h)| h)
            .sum();
        let duo: f64 = econ
            .demanded_hours(&[(flow_a, 5_000.0), (flow_b, 5_000.0)])
            .iter()
            .map(|(_, h)| h)
            .sum();
        assert!(duo > mono * 1.1, "duo {duo} vs mono {mono}");
    }

    #[test]
    fn zero_volume_is_an_error() {
        let econ = FabEconomics::default();
        assert!(econ.wafer_cost(&[]).is_err());
        let fab = Fab::new(vec![]);
        assert!(wafer_cost(&fab, &[]).is_err());
    }

    #[test]
    fn mix_penalty_grows_as_volume_fragments() {
        let r_coarse = product_mix_study(4, 5_000.0, 100_000.0);
        let r_fine = product_mix_study(10, 500.0, 100_000.0);
        assert!(r_fine.cost_ratio > r_coarse.cost_ratio);
        assert!(r_coarse.cost_ratio > 1.0);
    }

    #[test]
    fn extreme_fragmentation_approaches_the_paper_ratio() {
        // Ten niche products at a few hundred wafers each: the penalty
        // climbs into the upper half of the paper's reported range.
        let r = product_mix_study(10, 300.0, 100_000.0);
        assert!(r.cost_ratio > 5.0, "ratio {}", r.cost_ratio);
        assert!(r.cost_ratio < 20.0, "ratio {}", r.cost_ratio);
    }

    #[test]
    fn report_utilizations_are_ordered() {
        let r = product_mix_study(8, 1_000.0, 100_000.0);
        assert!(r.mono_utilization > r.multi_utilization);
        assert!(r.mono_utilization <= 1.0);
        assert!(r.multi_utilization > 0.0);
    }
}
