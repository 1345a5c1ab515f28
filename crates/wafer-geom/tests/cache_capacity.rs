//! The eq. (4) memo is bounded: a shard that reaches
//! `cache::SHARD_CAPACITY` entries is emptied before its next insert.
//! This test overfills one shard with distinct keys, so it runs in a
//! test binary of its own: no other test shares the process-global memo
//! while a shard is being flushed.

use maly_units::Centimeters;
use maly_wafer_geom::cache::{self, SHARDS, SHARD_CAPACITY};
use maly_wafer_geom::{maly, DieDimensions, Wafer};

fn evictions() -> u64 {
    maly_obs::counters_snapshot()
        .iter()
        .find(|c| c.name == "wafer_geom.cache.evictions")
        .map_or(0, |c| c.value)
}

#[test]
fn a_full_shard_is_cleared_and_answers_stay_exact() {
    let wafer = Wafer::six_inch();
    // Dies 1e-8 cm apart in width: every one a distinct memo key, and
    // tall enough that eq. (4) sums only a few rows.
    let die = |k: u64| {
        DieDimensions::new(
            Centimeters::new(1.0 + k as f64 * 1.0e-8).unwrap(),
            Centimeters::new(2.5).unwrap(),
        )
    };
    let target = cache::shard_index(&wafer, die(0));
    let keys: Vec<DieDimensions> = (0..)
        .map(die)
        .filter(|d| cache::shard_index(&wafer, *d) == target)
        .take(SHARD_CAPACITY + SHARD_CAPACITY / 2)
        .collect();

    let before = evictions();
    for (k, d) in keys.iter().enumerate() {
        let got = cache::dies_per_wafer(&wafer, *d);
        assert!(cache::shard_len(target) <= SHARD_CAPACITY, "key {k}");
        // Checking every key against the direct formula would double the
        // run time; a stride still crosses the flush.
        if k % 97 == 0 || k == SHARD_CAPACITY || k == SHARD_CAPACITY + 1 {
            assert_eq!(got, maly::dies_per_wafer(&wafer, *d), "key {k}");
        }
    }
    let evicted = evictions() - before;
    assert!(evicted >= SHARD_CAPACITY as u64, "{evicted} evicted");
    assert!(cache::shard_len(target) <= SHARD_CAPACITY / 2 + 1);

    // A batch through the full shard gives the same counts as eq. (4).
    let batch = cache::dies_per_wafer_batch(&wafer, &keys[..512]);
    for (d, got) in keys.iter().zip(&batch) {
        assert_eq!(*got, maly::dies_per_wafer(&wafer, *d));
    }
    for shard in 0..SHARDS {
        assert!(cache::shard_len(shard) <= SHARD_CAPACITY);
    }
}
