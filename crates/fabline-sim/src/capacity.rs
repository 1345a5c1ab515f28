//! Fab capacity: the tool units a fab owns and what owning them costs.

use crate::equipment::EquipmentClass;

/// A fab: a set of owned tool units per family.
///
/// # Examples
///
/// ```
/// use maly_fabline_sim::{cost::FabEconomics, process::ProcessFlow};
///
/// let flow = ProcessFlow::for_generation("cmos-0.8", 0.8);
/// let fab = FabEconomics::default().size_fab(&[(flow, 50_000.0)]);
/// // The minimal fab owns at least one tool of every family the flow
/// // touches, and pays for every owned unit whether it runs or idles.
/// assert!(fab.tools().iter().all(|&(_, units)| units >= 1));
/// assert!(fab.annual_cost().value() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Fab {
    tools: Vec<(EquipmentClass, u32)>,
}

impl Fab {
    /// Creates a fab owning the given tool units.
    #[must_use]
    pub fn new(tools: Vec<(EquipmentClass, u32)>) -> Self {
        Self { tools }
    }

    /// Owned tools.
    #[must_use]
    pub fn tools(&self) -> &[(EquipmentClass, u32)] {
        &self.tools
    }

    /// Total annual cost of ownership — paid regardless of load.
    #[must_use]
    pub fn annual_cost(&self) -> maly_units::Dollars {
        self.tools
            .iter()
            .map(|(class, units)| class.annual_cost() * f64::from(*units))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::FabEconomics;
    use crate::equipment::standard_toolset;
    use crate::process::ProcessFlow;

    fn flow() -> ProcessFlow {
        ProcessFlow::for_generation("cmos-0.8", 0.8)
    }

    #[test]
    fn low_volume_fab_is_poorly_utilized() {
        // A tiny demand still needs one tool of every family — most of
        // that capacity idles.
        let demand = [(flow(), 1_000.0)];
        let average = FabEconomics::default().utilization(&demand);
        assert!(average < 0.3, "avg {average}");
    }

    #[test]
    fn high_volume_fab_is_well_utilized() {
        let demand = [(flow(), 200_000.0)];
        let average = FabEconomics::default().utilization(&demand);
        assert!(average > 0.7, "avg {average}");
    }

    #[test]
    fn annual_cost_sums_units() {
        let toolset = standard_toolset();
        let one_each = Fab::new(toolset.iter().map(|c| (*c, 1u32)).collect());
        let two_each = Fab::new(toolset.iter().map(|c| (*c, 2u32)).collect());
        assert!(
            (two_each.annual_cost().value() - 2.0 * one_each.annual_cost().value()).abs() < 1e-6
        );
    }

    #[test]
    fn empty_fab_has_zero_utilization_and_cost() {
        let economics = FabEconomics::default();
        let fab = economics.size_fab(&[]);
        assert!(fab.tools().is_empty());
        assert_eq!(fab.annual_cost().value(), 0.0);
        assert_eq!(economics.utilization(&[]), 0.0);
    }
}
