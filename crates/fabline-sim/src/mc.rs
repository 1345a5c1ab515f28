//! Monte Carlo study of fab economics under demand uncertainty.
//!
//! The product-mix argument of Sec. III.A.d is deterministic: given a
//! demand vector, [`crate::cost::FabEconomics`] prices the wafer. But
//! the demand a fab is sized for is a *forecast*; actual annual volumes
//! jitter around it, and because tool counts are `ceil()`ed the wafer
//! cost responds asymmetrically — a small volume shortfall strands an
//! entire tool's cost of ownership. This module quantifies that band:
//! each replication perturbs every product's volume by a bounded
//! relative jitter, re-sizes the minimal fab, and reprices the wafer.
//!
//! Replications run on the [`maly_par::Executor`] and are seeded as a
//! pure function of `(base_seed, replication index)`, so the report is
//! bit-identical at every thread count.

use maly_par::Executor;
use maly_units::{Dollars, UnitError};
use maly_yield_model::prng::{SplitMix64, UniformSource, Xoshiro256PlusPlus};

use crate::cost::FabEconomics;
use crate::process::ProcessFlow;

/// Replications completed, across all studies in the process. Work
/// kind: the replication count is part of the configuration, so the
/// total is thread-count-invariant.
static MC_REPLICATIONS: maly_obs::Counter = maly_obs::Counter::work("mc.replications");
/// Per-replication wall-clock durations (recorded only when obs is
/// enabled).
static MC_REPLICATION_NS: maly_obs::Histogram = maly_obs::Histogram::new("mc.replication_ns");

/// Monte Carlo configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McConfig {
    /// Number of replications.
    pub replications: usize,
    /// Maximum relative volume perturbation: each product's volume is
    /// scaled by a factor drawn uniformly from
    /// `[1 − volume_jitter, 1 + volume_jitter]`. Must lie in `[0, 1)`
    /// so volumes stay positive.
    pub volume_jitter: f64,
    /// Base seed; replication `r` derives its own stream from
    /// `(base_seed, r)` regardless of which thread runs it.
    pub base_seed: u64,
}

impl Default for McConfig {
    fn default() -> Self {
        Self {
            replications: 200,
            volume_jitter: 0.3,
            base_seed: 0x4d61_6c79_3139_3934, // "Maly1994"
        }
    }
}

/// One replication's outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McSample {
    /// Wafer cost in the minimal fab for the perturbed demand.
    pub wafer_cost: Dollars,
    /// Tool utilization of that fab under the perturbed demand.
    pub utilization: f64,
    /// Total perturbed annual wafer volume.
    pub wafers: f64,
}

/// Aggregate over all replications (order-independent summaries plus
/// the full per-replication series in replication order).
#[derive(Debug, Clone, PartialEq)]
pub struct McReport {
    /// Per-replication outcomes, index = replication number.
    pub samples: Vec<McSample>,
    /// Mean wafer cost across replications.
    pub mean_wafer_cost: Dollars,
    /// Cheapest replication.
    pub min_wafer_cost: Dollars,
    /// Most expensive replication.
    pub max_wafer_cost: Dollars,
    /// Mean tool utilization.
    pub mean_utilization: f64,
}

impl McReport {
    /// Max-over-min wafer-cost spread: how much the `ceil()`ed tool
    /// counts amplify demand uncertainty into cost uncertainty.
    #[must_use]
    pub fn cost_spread(&self) -> f64 {
        if self.min_wafer_cost.value() > 0.0 {
            self.max_wafer_cost.value() / self.min_wafer_cost.value()
        } else {
            f64::INFINITY
        }
    }
}

/// Runs the study on `exec`. Replications are embarrassingly parallel;
/// results are collected in replication order and every stream is
/// seeded from `(base_seed, index)`, so the report is bit-identical
/// whether it ran on one thread or eight.
///
/// # Errors
///
/// Returns an error when `replications` is zero, `volume_jitter` is
/// outside `[0, 1)`, or the demand is empty / non-positive.
pub fn run_with(
    exec: &Executor,
    economics: &FabEconomics,
    demand: &[(ProcessFlow, f64)],
    config: &McConfig,
) -> Result<McReport, UnitError> {
    if config.replications == 0 {
        return Err(UnitError::NotPositive {
            quantity: "Monte Carlo replications",
            value: 0.0,
        });
    }
    if !(config.volume_jitter >= 0.0 && config.volume_jitter < 1.0) {
        return Err(UnitError::OutOfRange {
            quantity: "volume jitter",
            value: config.volume_jitter,
            min: 0.0,
            max: 1.0,
        });
    }
    if demand.is_empty() || demand.iter().any(|(_, v)| !(*v > 0.0)) {
        return Err(UnitError::NotPositive {
            quantity: "annual wafer volume",
            value: demand.iter().map(|(_, v)| *v).fold(0.0, f64::min),
        });
    }

    let run_span = maly_obs::span("mc.run");
    let run_id = run_span.id();
    let evaluated = exec.map_indexed(config.replications, |r| -> Result<McSample, UnitError> {
        // Replication spans open on worker threads, so they parent onto
        // the submitting run span explicitly (the executor's chunk span
        // sits in between when the map actually goes parallel).
        let _rep_span = maly_obs::span_child("mc.replication", maly_obs::current_span().or(run_id))
            .with_histogram(&MC_REPLICATION_NS);
        MC_REPLICATIONS.incr();
        let mut rng = replication_rng(config.base_seed, r as u64);
        let perturbed: Vec<(ProcessFlow, f64)> = demand
            .iter()
            .map(|(flow, volume)| {
                let swing = config.volume_jitter * (2.0 * rng.next_f64() - 1.0);
                (flow.clone(), volume * (1.0 + swing))
            })
            .collect();
        let wafer_cost = economics.wafer_cost(&perturbed)?;
        Ok(McSample {
            wafer_cost,
            utilization: economics.utilization(&perturbed),
            wafers: perturbed.iter().map(|(_, v)| v).sum(),
        })
    });

    let mut samples = Vec::with_capacity(config.replications);
    for sample in evaluated {
        samples.push(sample?);
    }

    let n = samples.len() as f64;
    let mean_cost = samples.iter().map(|s| s.wafer_cost.value()).sum::<f64>() / n;
    let min_cost = samples
        .iter()
        .map(|s| s.wafer_cost.value())
        .fold(f64::INFINITY, f64::min);
    let max_cost = samples
        .iter()
        .map(|s| s.wafer_cost.value())
        .fold(0.0, f64::max);
    let mean_utilization = samples.iter().map(|s| s.utilization).sum::<f64>() / n;

    Ok(McReport {
        samples,
        mean_wafer_cost: Dollars::new(mean_cost)?,
        min_wafer_cost: Dollars::new(min_cost)?,
        max_wafer_cost: Dollars::new(max_cost)?,
        mean_utilization,
    })
}

/// The RNG for replication `r`: a pure function of `(base_seed, r)`.
/// SplitMix64 whitens the combined seed so neighbouring replication
/// indices do not produce correlated Xoshiro streams.
fn replication_rng(base_seed: u64, r: u64) -> Xoshiro256PlusPlus {
    let mut mixer = SplitMix64::new(base_seed ^ r.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    Xoshiro256PlusPlus::seed_from_u64(mixer.next_u64())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand() -> Vec<(ProcessFlow, f64)> {
        vec![
            (ProcessFlow::for_generation("cmos-0.8", 0.8), 20_000.0),
            (ProcessFlow::for_generation("cmos-1.2", 1.2), 5_000.0),
            (ProcessFlow::for_generation("bicmos-0.8", 0.8), 1_000.0),
        ]
    }

    fn config(replications: usize) -> McConfig {
        McConfig {
            replications,
            ..McConfig::default()
        }
    }

    #[test]
    fn report_is_bit_identical_across_thread_counts() {
        let economics = FabEconomics::default();
        let d = demand();
        let cfg = config(64);
        let serial = run_with(&Executor::with_threads(1), &economics, &d, &cfg).unwrap();
        for threads in [1usize, 2, 8] {
            let parallel =
                run_with(&Executor::with_threads(threads), &economics, &d, &cfg).unwrap();
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn zero_jitter_reproduces_the_deterministic_cost() {
        let economics = FabEconomics::default();
        let d = demand();
        let cfg = McConfig {
            replications: 8,
            volume_jitter: 0.0,
            ..McConfig::default()
        };
        let report = run_with(&Executor::from_env(), &economics, &d, &cfg).unwrap();
        let exact = economics.wafer_cost(&d).unwrap();
        for s in &report.samples {
            assert_eq!(s.wafer_cost, exact);
        }
        assert_eq!(report.min_wafer_cost, report.max_wafer_cost);
    }

    #[test]
    fn jitter_opens_a_cost_band() {
        let economics = FabEconomics::default();
        let report = run_with(&Executor::from_env(), &economics, &demand(), &config(128)).unwrap();
        assert!(
            report.cost_spread() > 1.0,
            "spread {} should exceed 1",
            report.cost_spread()
        );
        let mean = report.mean_wafer_cost.value();
        assert!(report.min_wafer_cost.value() <= mean && mean <= report.max_wafer_cost.value());
    }

    #[test]
    fn same_seed_reproduces_and_new_seed_differs() {
        let economics = FabEconomics::default();
        let d = demand();
        let a = run_with(&Executor::from_env(), &economics, &d, &config(32)).unwrap();
        let b = run_with(&Executor::from_env(), &economics, &d, &config(32)).unwrap();
        assert_eq!(a, b);
        let c = run_with(
            &Executor::from_env(),
            &economics,
            &d,
            &McConfig {
                base_seed: 1,
                ..config(32)
            },
        )
        .unwrap();
        assert_ne!(a.samples, c.samples, "a fresh seed must draw fresh volumes");
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let economics = FabEconomics::default();
        let d = demand();
        assert!(run_with(&Executor::from_env(), &economics, &d, &config(0)).is_err());
        assert!(run_with(
            &Executor::from_env(),
            &economics,
            &d,
            &McConfig {
                volume_jitter: 1.0,
                ..config(4)
            }
        )
        .is_err());
        assert!(run_with(&Executor::from_env(), &economics, &[], &config(4)).is_err());
    }
}
