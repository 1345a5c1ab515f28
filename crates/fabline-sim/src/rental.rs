//! Capacity rental: the §V Phase-2 market.
//!
//! "Winners of the race towards smaller feature size will be forced to
//! maintain very high volume production to recover huge past
//! investments. It will be done by ... eventually renting superfluous
//! fabline capacity." The counterparties are the niche designers whose
//! own-fab wafer cost carries the full product-mix penalty.
//!
//! This module computes the *bargaining range* for such a deal: the
//! owner will not rent below its incremental cost of hosting the
//! tenant's wafers; the tenant will not pay above its own standalone
//! cost. A deal exists when the range is non-empty — and because the
//! owner's tool-count ceilings leave real headroom while the tenant's
//! alternative is a poorly utilized mini-fab, the range is usually wide.

use maly_units::Dollars;

use crate::cost::FabEconomics;
use crate::process::ProcessFlow;

/// A rental quote: per-wafer price bounds for the tenant's volume.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BargainingRange {
    /// Owner's incremental cost per tenant wafer (the price floor).
    pub floor: Dollars,
    /// Tenant's standalone cost per wafer (the price ceiling).
    pub ceiling: Dollars,
}

impl BargainingRange {
    /// True when a mutually beneficial price exists.
    #[must_use]
    pub fn deal_exists(&self) -> bool {
        self.floor.value() < self.ceiling.value()
    }

    /// The even-split price.
    #[must_use]
    pub fn midpoint(&self) -> Dollars {
        Dollars::new((self.floor.value() + self.ceiling.value()) / 2.0)
            .expect("average of non-negative costs")
    }
}

/// Computes the bargaining range for a tenant bringing `tenant_demand`
/// into a fab currently sized for (and running) `owner_demand`.
///
/// * Floor: `(cost of fab sized for combined demand − cost of fab sized
///   for owner alone) / tenant wafers` — the extra tools, if any, that
///   hosting forces the owner to buy (base facility is sunk).
/// * Ceiling: the tenant's standalone wafer cost from
///   [`FabEconomics::wafer_cost`] (its own mini-fab, with the full
///   product-mix and granularity penalties).
///
/// # Panics
///
/// Panics when either demand is empty or has non-positive volume.
#[must_use]
pub fn bargaining_range(
    econ: &FabEconomics,
    owner_demand: &[(ProcessFlow, f64)],
    tenant_demand: &[(ProcessFlow, f64)],
) -> BargainingRange {
    let owner_wafers: f64 = owner_demand.iter().map(|(_, v)| v).sum();
    let tenant_wafers: f64 = tenant_demand.iter().map(|(_, v)| v).sum();
    assert!(
        owner_wafers > 0.0 && tenant_wafers > 0.0,
        "both parties need positive volume"
    );

    let owner_alone = econ.size_fab(owner_demand).annual_cost().value();
    let mut combined: Vec<(ProcessFlow, f64)> = owner_demand.to_vec();
    combined.extend(tenant_demand.iter().cloned());
    let together = econ.size_fab(&combined).annual_cost().value();
    let incremental = (together - owner_alone).max(0.0);
    let floor = Dollars::new(incremental / tenant_wafers).expect("non-negative");

    let ceiling = econ
        .wafer_cost(tenant_demand)
        .expect("tenant volume validated positive");

    BargainingRange { floor, ceiling }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn econ() -> FabEconomics {
        FabEconomics::default()
    }

    fn commodity(volume: f64) -> Vec<(ProcessFlow, f64)> {
        vec![(ProcessFlow::for_generation("commodity-0.8", 0.8), volume)]
    }

    fn niche(volume: f64) -> Vec<(ProcessFlow, f64)> {
        vec![(ProcessFlow::for_generation("niche-0.8", 0.8), volume)]
    }

    #[test]
    fn small_tenant_rides_headroom_almost_free() {
        // 100k-wafer owner, 1k-wafer tenant: the ceilings of the owner's
        // tool counts swallow the tenant — the floor is far below the
        // tenant's standalone cost.
        let range = bargaining_range(&econ(), &commodity(100_000.0), &niche(1_000.0));
        assert!(range.deal_exists());
        assert!(
            range.ceiling.value() > 5.0 * range.floor.value(),
            "floor {} vs ceiling {}",
            range.floor.value(),
            range.ceiling.value()
        );
    }

    #[test]
    fn tenant_ceiling_is_the_product_mix_penalty() {
        // The tenant's standalone cost at 1k wafers is several times the
        // owner's commodity cost — the §III.A.d penalty is exactly what
        // makes renting attractive.
        let range = bargaining_range(&econ(), &commodity(100_000.0), &niche(1_000.0));
        let owner_cost = econ().wafer_cost(&commodity(100_000.0)).unwrap().value();
        assert!(range.ceiling.value() > 3.0 * owner_cost);
    }

    #[test]
    fn big_tenant_forces_new_tools() {
        // A tenant as large as the owner cannot ride headroom: the floor
        // approaches real per-wafer tool cost.
        let small = bargaining_range(&econ(), &commodity(100_000.0), &niche(1_000.0));
        let large = bargaining_range(&econ(), &commodity(100_000.0), &niche(80_000.0));
        assert!(large.floor.value() > small.floor.value());
        // The deal usually still exists (the owner's scale is simply
        // more efficient), but the surplus narrows.
        let surplus = |range: BargainingRange| range.ceiling.value() - range.floor.value();
        assert!(small.deal_exists());
        assert!(surplus(large) < surplus(small));
    }

    #[test]
    fn midpoint_sits_inside_the_range() {
        let range = bargaining_range(&econ(), &commodity(100_000.0), &niche(2_000.0));
        let mid = range.midpoint().value();
        assert!(mid > range.floor.value() && mid < range.ceiling.value());
    }

    #[test]
    #[should_panic(expected = "positive volume")]
    fn empty_tenant_panics() {
        let _ = bargaining_range(&econ(), &commodity(100_000.0), &[]);
    }
}
