//! Discrete-event simulation of lot flow through a fab.
//!
//! The capacity model answers "does the demand fit"; this simulator
//! answers "what actually happens": lots queue at tool groups, setups
//! interleave, and cycle time grows nonlinearly as the bottleneck
//! saturates. It is also an independent check — measured tool
//! utilizations must converge to the capacity model's static numbers.
//!
//! Deterministic by construction: lots are released at fixed intervals,
//! products rotate round-robin, queues are FIFO, and time advances in
//! integer minutes.
//!
//! No `repro` experiment or served query calls this module. It is kept
//! as a cross-validation oracle for the analytic capacity model
//! ([`crate::cost::FabEconomics`]): `tests/cross_validation.rs` checks
//! that simulated utilizations converge to the static ones, and
//! `examples/fab_planning.rs` shows the cycle-time effects on top.

use std::collections::{BinaryHeap, VecDeque};

use crate::capacity::Fab;
use crate::equipment::ToolFamily;
use crate::process::ProcessFlow;

/// Simulation configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesConfig {
    /// Wafers per lot.
    pub lot_size: f64,
    /// Hours per product changeover at a tool unit.
    pub setup_hours: f64,
    /// Simulated horizon in days.
    pub horizon_days: f64,
}

impl Default for DesConfig {
    fn default() -> Self {
        Self {
            lot_size: crate::cost::DEFAULT_LOT_SIZE,
            setup_hours: crate::cost::DEFAULT_SETUP_HOURS,
            horizon_days: 90.0,
        }
    }
}

/// Simulation results.
#[derive(Debug, Clone, PartialEq)]
pub struct DesReport {
    /// Lots that completed their full flow within the horizon.
    pub completed_lots: usize,
    /// Lots released.
    pub released_lots: usize,
    /// Mean cycle time of completed lots, in hours.
    pub mean_cycle_time_hours: f64,
    /// Busy fraction per tool family (busy time / available unit-time).
    pub utilization_by_family: Vec<(ToolFamily, f64)>,
    /// Largest number of lots simultaneously in the line.
    pub peak_wip: usize,
}

impl DesReport {
    /// Utilization of one family, if it exists in the fab.
    #[must_use]
    pub fn utilization_of(&self, family: ToolFamily) -> Option<f64> {
        self.utilization_by_family
            .iter()
            .find(|(f, _)| *f == family)
            .map(|(_, u)| *u)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    /// A new lot enters the line.
    Release { lot: usize },
    /// A tool unit finishes a lot's current step.
    StepDone {
        family_idx: usize,
        unit: usize,
        lot: usize,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Event {
    /// Minutes since simulation start.
    time: u64,
    /// Tiebreaker for determinism.
    seq: u64,
    kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap: invert for earliest-first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct LotState {
    product: usize,
    step: usize,
    released_at: u64,
}

struct UnitState {
    busy_until: u64,
    last_product: Option<usize>,
    busy_minutes: u64,
}

/// Runs the simulation.
///
/// `demand` pairs each flow with its annual wafer starts; releases are
/// paced so the horizon carries the pro-rated share of that demand.
///
/// # Panics
///
/// Panics if the demand is empty, the fab lacks a family some flow
/// needs, or the configuration is degenerate.
#[must_use]
pub fn simulate(fab: &Fab, demand: &[(ProcessFlow, f64)], config: DesConfig) -> DesReport {
    assert!(!demand.is_empty(), "demand must contain at least one flow");
    assert!(
        config.horizon_days > 0.0 && config.lot_size > 0.0,
        "degenerate configuration"
    );
    for (flow, _) in demand {
        for family in ToolFamily::ALL {
            if flow.steps_on(family) > 0 {
                assert!(
                    fab.tools().iter().any(|(c, _)| c.family() == family),
                    "fab lacks {family} required by flow {}",
                    flow.name()
                );
            }
        }
    }

    // Flatten tool groups: index by position in fab.tools().
    let families: Vec<ToolFamily> = fab.tools().iter().map(|(c, _)| c.family()).collect();
    let family_index = |f: ToolFamily| families.iter().position(|&x| x == f).expect("checked");
    let minutes_per_wafer: Vec<f64> = fab
        .tools()
        .iter()
        .map(|(c, _)| 60.0 / c.wafer_steps_per_hour())
        .collect();

    let horizon_min = (config.horizon_days * 24.0 * 60.0) as u64;
    let setup_min = (config.setup_hours * 60.0).round() as u64;
    let process_min: Vec<u64> = minutes_per_wafer
        .iter()
        .map(|m| (m * config.lot_size).round().max(1.0) as u64)
        .collect();

    // Release schedule: total lots over the horizon, products round-robin
    // weighted by volume share.
    let total_wafers_per_year: f64 = demand.iter().map(|(_, v)| v).sum();
    let lots_in_horizon =
        (total_wafers_per_year / config.lot_size * config.horizon_days / 365.0).floor() as usize;
    assert!(lots_in_horizon > 0, "horizon too short for any lot release");
    let release_interval = horizon_min / lots_in_horizon as u64;

    // Assign products to lots proportionally to volume (largest remainder).
    let mut product_of_lot: Vec<usize> = Vec::with_capacity(lots_in_horizon);
    {
        let mut credit: Vec<f64> = vec![0.0; demand.len()];
        for _ in 0..lots_in_horizon {
            for (i, (_, v)) in demand.iter().enumerate() {
                credit[i] += v / total_wafers_per_year;
            }
            let best = credit
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .expect("non-empty demand");
            credit[best] -= 1.0;
            product_of_lot.push(best);
        }
    }

    let mut events: BinaryHeap<Event> = BinaryHeap::new();
    let mut seq: u64 = 0;
    for (lot, _) in product_of_lot.iter().enumerate() {
        events.push(Event {
            time: lot as u64 * release_interval,
            seq,
            kind: EventKind::Release { lot },
        });
        seq += 1;
    }

    let mut lots: Vec<LotState> = product_of_lot
        .iter()
        .map(|&product| LotState {
            product,
            step: 0,
            released_at: 0,
        })
        .collect();
    let mut units: Vec<Vec<UnitState>> = fab
        .tools()
        .iter()
        .map(|(_, count)| {
            (0..*count)
                .map(|_| UnitState {
                    busy_until: 0,
                    last_product: None,
                    busy_minutes: 0,
                })
                .collect()
        })
        .collect();
    let mut queues: Vec<VecDeque<usize>> = families.iter().map(|_| VecDeque::new()).collect();

    let mut completed = 0usize;
    let mut cycle_sum_min = 0u64;
    let mut wip = 0usize;
    let mut peak_wip = 0usize;

    // Routes each lot's next step, or retires it.
    #[allow(clippy::too_many_arguments)]
    fn route(
        lot_id: usize,
        now: u64,
        lots: &mut [LotState],
        demand: &[(ProcessFlow, f64)],
        family_index: &dyn Fn(ToolFamily) -> usize,
        queues: &mut [VecDeque<usize>],
        completed: &mut usize,
        cycle_sum_min: &mut u64,
        wip: &mut usize,
    ) -> Option<usize> {
        let lot = &lots[lot_id];
        let flow = &demand[lot.product].0;
        if lot.step >= flow.step_count() {
            *completed += 1;
            *cycle_sum_min += now - lot.released_at;
            *wip -= 1;
            return None;
        }
        let family = flow.steps()[lot.step].family;
        let idx = family_index(family);
        queues[idx].push_back(lot_id);
        Some(idx)
    }

    // Tries to start work on a family's queue.
    let try_dispatch = |family_idx: usize,
                        now: u64,
                        queues: &mut [VecDeque<usize>],
                        units: &mut [Vec<UnitState>],
                        lots: &mut [LotState],
                        events: &mut BinaryHeap<Event>,
                        seq: &mut u64| {
        while !queues[family_idx].is_empty() {
            let free_unit = units[family_idx].iter().position(|u| u.busy_until <= now);
            let Some(unit) = free_unit else { break };
            let lot_id = queues[family_idx].pop_front().expect("non-empty");
            let product = lots[lot_id].product;
            let needs_setup = units[family_idx][unit].last_product != Some(product);
            let duration = process_min[family_idx] + if needs_setup { setup_min } else { 0 };
            let done = now + duration;
            units[family_idx][unit].busy_until = done;
            units[family_idx][unit].last_product = Some(product);
            units[family_idx][unit].busy_minutes += duration;
            events.push(Event {
                time: done,
                seq: *seq,
                kind: EventKind::StepDone {
                    family_idx,
                    unit,
                    lot: lot_id,
                },
            });
            *seq += 1;
        }
    };

    while let Some(event) = events.pop() {
        if event.time > horizon_min {
            break;
        }
        let now = event.time;
        match event.kind {
            EventKind::Release { lot } => {
                lots[lot].released_at = now;
                wip += 1;
                peak_wip = peak_wip.max(wip);
                if let Some(idx) = route(
                    lot,
                    now,
                    &mut lots,
                    demand,
                    &family_index,
                    &mut queues,
                    &mut completed,
                    &mut cycle_sum_min,
                    &mut wip,
                ) {
                    try_dispatch(
                        idx,
                        now,
                        &mut queues,
                        &mut units,
                        &mut lots,
                        &mut events,
                        &mut seq,
                    );
                }
            }
            EventKind::StepDone {
                family_idx, lot, ..
            } => {
                lots[lot].step += 1;
                if let Some(idx) = route(
                    lot,
                    now,
                    &mut lots,
                    demand,
                    &family_index,
                    &mut queues,
                    &mut completed,
                    &mut cycle_sum_min,
                    &mut wip,
                ) {
                    try_dispatch(
                        idx,
                        now,
                        &mut queues,
                        &mut units,
                        &mut lots,
                        &mut events,
                        &mut seq,
                    );
                }
                // The freed unit can take more work from its own queue.
                try_dispatch(
                    family_idx,
                    now,
                    &mut queues,
                    &mut units,
                    &mut lots,
                    &mut events,
                    &mut seq,
                );
            }
        }
    }

    let utilization_by_family = families
        .iter()
        .enumerate()
        .map(|(i, &family)| {
            let unit_count = units[i].len() as f64;
            let busy: u64 = units[i].iter().map(|u| u.busy_minutes).sum();
            (family, busy as f64 / (unit_count * horizon_min as f64))
        })
        .collect();

    DesReport {
        completed_lots: completed,
        released_lots: lots_in_horizon,
        mean_cycle_time_hours: if completed > 0 {
            cycle_sum_min as f64 / completed as f64 / 60.0
        } else {
            0.0
        },
        utilization_by_family,
        peak_wip,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::FabEconomics;

    fn flow() -> ProcessFlow {
        ProcessFlow::for_generation("cmos-0.8", 0.8)
    }

    fn config() -> DesConfig {
        DesConfig {
            horizon_days: 120.0,
            ..DesConfig::default()
        }
    }

    #[test]
    fn underloaded_fab_completes_everything() {
        let econ = FabEconomics::default();
        let demand = [(flow(), 20_000.0)];
        // Build the fab for twice the demand: plenty of headroom.
        let fab = econ.size_fab(&[(flow(), 40_000.0)]);
        let report = simulate(&fab, &demand, config());
        assert!(report.released_lots > 50);
        // Nearly all lots complete (the last few are still in flight).
        assert!(
            report.completed_lots as f64 >= 0.9 * report.released_lots as f64,
            "{} of {}",
            report.completed_lots,
            report.released_lots
        );
    }

    #[test]
    fn overload_shows_up_as_queueing() {
        // With deterministic releases and service, a below-capacity line
        // never queues (D/D/c); push the demand past the bottleneck and
        // cycle time and WIP must blow up.
        let econ = FabEconomics::default();
        let fab = econ.size_fab(&[(flow(), 50_000.0)]);
        let light = simulate(&fab, &[(flow(), 20_000.0)], config());
        let overloaded = simulate(&fab, &[(flow(), 70_000.0)], config());
        assert!(
            overloaded.mean_cycle_time_hours > 1.5 * light.mean_cycle_time_hours,
            "overloaded {} vs light {}",
            overloaded.mean_cycle_time_hours,
            light.mean_cycle_time_hours
        );
        assert!(overloaded.peak_wip > 2 * light.peak_wip);
    }

    #[test]
    fn measured_utilization_tracks_capacity_model() {
        let econ = FabEconomics::default();
        let demand = [(flow(), 40_000.0)];
        let fab = econ.size_fab(&demand);
        let des = simulate(&fab, &demand, config());
        let static_util = econ.utilization(&demand);
        let des_avg: f64 = des
            .utilization_by_family
            .iter()
            .map(|(_, u)| u)
            .sum::<f64>()
            / des.utilization_by_family.len() as f64;
        // The DES measures busy/total-scheduled; the static model uses
        // available (85%) hours — align and compare loosely.
        let aligned = des_avg / crate::equipment::AVAILABILITY;
        assert!(
            (aligned - static_util).abs() < 0.25,
            "des {aligned} vs static {static_util}"
        );
    }

    #[test]
    fn setups_visible_in_multi_product_cycle_time() {
        let econ = FabEconomics::default();
        let a = flow();
        let b = ProcessFlow::for_generation("other", 0.8);
        let demand_multi = [(a.clone(), 15_000.0), (b, 15_000.0)];
        let demand_mono = [(a, 30_000.0)];
        let fab = econ.size_fab(&demand_mono);
        let mono = simulate(&fab, &demand_mono, config());
        let multi = simulate(&fab, &demand_multi, config());
        assert!(
            multi.mean_cycle_time_hours > mono.mean_cycle_time_hours,
            "multi {} vs mono {}",
            multi.mean_cycle_time_hours,
            mono.mean_cycle_time_hours
        );
    }

    #[test]
    fn utilizations_are_fractions() {
        let econ = FabEconomics::default();
        let demand = [(flow(), 30_000.0)];
        let fab = econ.size_fab(&demand);
        let report = simulate(&fab, &demand, config());
        for (family, u) in &report.utilization_by_family {
            assert!((0.0..=1.05).contains(u), "{family}: {u}");
        }
    }

    #[test]
    #[should_panic(expected = "fab lacks")]
    fn missing_family_panics() {
        let fab = Fab::new(vec![]);
        let _ = simulate(&fab, &[(flow(), 10_000.0)], config());
    }

    #[test]
    #[should_panic(expected = "at least one flow")]
    fn empty_demand_panics() {
        let econ = FabEconomics::default();
        let fab = econ.size_fab(&[(flow(), 10_000.0)]);
        let _ = simulate(&fab, &[], config());
    }
}
