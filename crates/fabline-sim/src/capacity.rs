//! Deterministic fab capacity model: load, utilization, bottlenecks.

use std::collections::HashMap;

use crate::equipment::{standard_toolset, EquipmentClass, ToolFamily};
use crate::process::ProcessFlow;

/// A fab: a set of owned tool units per family.
///
/// # Examples
///
/// ```
/// use maly_fabline_sim::{capacity::Fab, process::ProcessFlow};
///
/// let flow = ProcessFlow::for_generation("cmos-0.8", 0.8);
/// let demand = [(flow, 50_000.0)];
/// let fab = Fab::sized_for(&demand);
/// let report = fab.utilization(&demand);
/// // Sized-for fabs are feasible and reasonably loaded at the bottleneck.
/// assert!(report.is_feasible());
/// assert!(report.bottleneck_utilization() > 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Fab {
    tools: Vec<(EquipmentClass, u32)>,
}

/// Per-family utilization report.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilizationReport {
    entries: Vec<UtilizationEntry>,
}

/// Utilization of one tool family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilizationEntry {
    /// Tool family.
    pub family: ToolFamily,
    /// Units owned.
    pub units: u32,
    /// Wafer-steps demanded per year.
    pub demanded_steps: f64,
    /// Wafer-steps available per year across owned units.
    pub available_steps: f64,
}

impl UtilizationEntry {
    /// Demanded / available (can exceed 1 for infeasible demands).
    #[must_use]
    pub fn utilization(&self) -> f64 {
        if self.available_steps > 0.0 {
            self.demanded_steps / self.available_steps
        } else if self.demanded_steps > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    }
}

impl UtilizationReport {
    /// Per-family entries (one per family owned or demanded).
    #[must_use]
    pub fn entries(&self) -> &[UtilizationEntry] {
        &self.entries
    }

    /// True when every family's demand fits its capacity.
    #[must_use]
    pub fn is_feasible(&self) -> bool {
        self.entries.iter().all(|e| e.utilization() <= 1.0)
    }

    /// The highest per-family utilization (the bottleneck).
    #[must_use]
    pub fn bottleneck_utilization(&self) -> f64 {
        self.entries
            .iter()
            .map(UtilizationEntry::utilization)
            .fold(0.0, f64::max)
    }
}

impl Fab {
    /// Creates a fab owning the given tool units.
    #[must_use]
    pub fn new(tools: Vec<(EquipmentClass, u32)>) -> Self {
        Self { tools }
    }

    /// Builds the *minimal* fab (fewest units of the standard toolset,
    /// at least one of every family demanded) that can process the given
    /// annual demand: `demand` pairs a flow with wafer starts per year.
    #[must_use]
    pub fn sized_for(demand: &[(ProcessFlow, f64)]) -> Self {
        let toolset = standard_toolset();
        let steps = demanded_steps(demand);
        let tools = toolset
            .into_iter()
            .filter_map(|class| {
                let needed = steps.get(&class.family()).copied().unwrap_or(0.0);
                if needed <= 0.0 {
                    return None;
                }
                let units = (needed / class.annual_capacity_steps()).ceil().max(1.0) as u32;
                Some((class, units))
            })
            .collect();
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

    /// Utilization report for an annual demand.
    #[must_use]
    pub fn utilization(&self, demand: &[(ProcessFlow, f64)]) -> UtilizationReport {
        let steps = demanded_steps(demand);
        let mut entries: Vec<UtilizationEntry> = self
            .tools
            .iter()
            .map(|(class, units)| UtilizationEntry {
                family: class.family(),
                units: *units,
                demanded_steps: steps.get(&class.family()).copied().unwrap_or(0.0),
                available_steps: class.annual_capacity_steps() * f64::from(*units),
            })
            .collect();
        // Families demanded but not owned appear as infeasible entries,
        // visited in ToolFamily::ALL order so the report is independent
        // of the demand map's hash order.
        for family in ToolFamily::ALL {
            let Some(demanded) = steps.get(&family) else {
                continue;
            };
            if !entries.iter().any(|e| e.family == family) {
                entries.push(UtilizationEntry {
                    family,
                    units: 0,
                    demanded_steps: *demanded,
                    available_steps: 0.0,
                });
            }
        }
        UtilizationReport { entries }
    }
}

/// Total demanded wafer-steps per family for an annual demand.
fn demanded_steps(demand: &[(ProcessFlow, f64)]) -> HashMap<ToolFamily, f64> {
    let mut steps: HashMap<ToolFamily, f64> = HashMap::new();
    for (flow, starts) in demand {
        for family in ToolFamily::ALL {
            let per_wafer = flow.steps_on(family) as f64;
            if per_wafer > 0.0 {
                *steps.entry(family).or_insert(0.0) += per_wafer * starts;
            }
        }
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow() -> ProcessFlow {
        ProcessFlow::for_generation("cmos-0.8", 0.8)
    }

    /// Capacity-weighted average utilization: demanded over available
    /// wafer-steps summed across families.
    fn average_utilization(report: &UtilizationReport) -> f64 {
        let available: f64 = report.entries().iter().map(|e| e.available_steps).sum();
        let demanded: f64 = report.entries().iter().map(|e| e.demanded_steps).sum();
        if available > 0.0 {
            demanded / available
        } else {
            0.0
        }
    }

    #[test]
    fn sized_for_is_feasible_and_tight() {
        let demand = [(flow(), 80_000.0)];
        let fab = Fab::sized_for(&demand);
        let report = fab.utilization(&demand);
        assert!(report.is_feasible());
        // Removing one unit from the bottleneck family must break it.
        let bottleneck = report
            .entries()
            .iter()
            .max_by(|a, b| a.utilization().total_cmp(&b.utilization()))
            .unwrap()
            .family;
        let mut reduced: Vec<(EquipmentClass, u32)> = fab.tools().to_vec();
        for (class, units) in &mut reduced {
            if class.family() == bottleneck {
                *units -= 1;
            }
        }
        let has_zero = reduced.iter().any(|(_, u)| *u == 0);
        if !has_zero {
            let smaller = Fab::new(reduced);
            assert!(!smaller.utilization(&demand).is_feasible());
        }
    }

    #[test]
    fn low_volume_fab_is_poorly_utilized() {
        // A tiny demand still needs one tool of every family — most of
        // that capacity idles.
        let demand = [(flow(), 1_000.0)];
        let fab = Fab::sized_for(&demand);
        let report = fab.utilization(&demand);
        assert!(report.is_feasible());
        let average = average_utilization(&report);
        assert!(average < 0.3, "avg {average}");
    }

    #[test]
    fn high_volume_fab_is_well_utilized() {
        let demand = [(flow(), 200_000.0)];
        let fab = Fab::sized_for(&demand);
        let report = fab.utilization(&demand);
        assert!(report.is_feasible());
        let average = average_utilization(&report);
        assert!(average > 0.7, "avg {average}");
    }

    #[test]
    fn missing_family_reported_infeasible() {
        let demand = [(flow(), 10_000.0)];
        // A fab with only lithography cannot run a full flow.
        let litho_only = Fab::new(
            standard_toolset()
                .into_iter()
                .filter(|c| c.family() == ToolFamily::Lithography)
                .map(|c| (c, 100))
                .collect(),
        );
        let report = litho_only.utilization(&demand);
        assert!(!report.is_feasible());
        assert_eq!(report.bottleneck_utilization(), f64::INFINITY);
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
        let fab = Fab::new(vec![]);
        assert_eq!(fab.annual_cost().value(), 0.0);
        let report = fab.utilization(&[]);
        assert!(report.is_feasible());
        assert_eq!(average_utilization(&report), 0.0);
        assert!(report.entries().is_empty());
    }
}
