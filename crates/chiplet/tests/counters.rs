//! Work-counter goldens for the partition search.
//!
//! `chiplet.partitions` and `chiplet.die_points` are process-global, so
//! these assertions live in their own test binary: no unit test pricing
//! partitions concurrently can move them. The tests here share one lock
//! for the same reason.

use std::sync::{Mutex, MutexGuard, PoisonError};

use maly_chiplet::{ChipletParameters, Partition, SweepSpec, DIE_POINTS, PARTITIONS};
use maly_par::Executor;
use maly_units::{Microns, TransistorCount};

fn hold() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn spec() -> SweepSpec {
    SweepSpec {
        system_transistors: TransistorCount::new(2.0e6).unwrap(),
        volume: 50_000,
        lambda_min: Microns::new(0.5).unwrap(),
        lambda_max: Microns::new(1.2).unwrap(),
        lambda_steps: 5,
        max_chiplets: 3,
        max_spares: 1,
    }
}

#[test]
fn sweep_counters_track_grid_size() {
    let _guard = hold();
    let params = ChipletParameters::fig8_mcm();
    for threads in [1, 2, 8] {
        let partitions0 = PARTITIONS.value();
        let die_points0 = DIE_POINTS.value();
        params
            .sweep(&spec(), &Executor::with_threads(threads))
            .unwrap();
        assert_eq!(PARTITIONS.value() - partitions0, 5 * 3 * 2, "{threads}");
        assert_eq!(DIE_POINTS.value() - die_points0, 5 * 3, "{threads}");
    }
}

#[test]
fn only_priced_partitions_are_counted() {
    let _guard = hold();
    let params = ChipletParameters::fig8_mcm();
    let good = Partition {
        chiplets: 4,
        spares: 0,
        lambda: Microns::new(1.0).unwrap(),
        system_transistors: TransistorCount::new(2.0e6).unwrap(),
        volume: 50_000,
    };
    let partitions0 = PARTITIONS.value();
    let die_points0 = DIE_POINTS.value();
    // Degenerate inputs are rejected before any pricing work.
    for bad in [
        Partition {
            chiplets: 0,
            ..good
        },
        Partition { volume: 0, ..good },
    ] {
        assert!(params.price_partition(&bad).is_err(), "{bad:?}");
    }
    assert_eq!(PARTITIONS.value(), partitions0);
    assert_eq!(DIE_POINTS.value(), die_points0);
    params.price_partition(&good).unwrap();
    assert_eq!(PARTITIONS.value() - partitions0, 1);
    assert_eq!(DIE_POINTS.value() - die_points0, 1);
}
