//! A memo in front of eq. (4), kept for two frozen benchmarks.
//!
//! Every library, served, CLI and repro path calls
//! [`crate::maly::dies_per_wafer_batch`] directly: the count is a pure
//! function of wafer and die, and on their traffic a memo costs more
//! than the row sums it saves. The perf harness's `eq4.*` probe and the
//! `eq4_cache` group of `maly-bench`'s sweeps bench time one
//! process-wide memo through [`dies_per_wafer_batch`], [`stats`] and
//! [`clear`]; this module is exactly that.
//!
//! The key is the *only* input the formula reads — the usable radius
//! and the two die edges — each quantized to integer nanocentimeters
//! ([`KEY_QUANTUM_CM`]), ten orders of magnitude below any die
//! dimension in the model, so distinct designs never collide. A hit
//! answers exactly what eq. (4) computes. The memo holds at most 2^22
//! entries and is emptied before the insert that would pass that; its
//! lock recovers from poison, and the `wafer_geom.cache.entries` gauge
//! reports the entries it holds.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{LazyLock, Mutex, MutexGuard, PoisonError};

use maly_units::DieCount;

use crate::{maly, DieDimensions, Wafer};

/// Quantization step of the cache key, in centimeters.
pub const KEY_QUANTUM_CM: f64 = 1.0e-9;

/// Entries held by the process-wide memo.
static CACHE_ENTRIES: maly_obs::Gauge = maly_obs::Gauge::new("wafer_geom.cache.entries");

/// Most entries the process-wide memo holds.
const CAPACITY: usize = 1 << 22;

/// One memo key: `(usable radius, die width, die height)` in integer
/// multiples of [`KEY_QUANTUM_CM`].
type Key = (u64, u64, u64);

/// Multiply-rotate hasher for the integer key: SipHash costs more than
/// the whole warm-hit budget. The mix has no secret, so crafted keys
/// could collide, but the entry bound caps their probe chains. Each
/// word folds in as `state = (rotl(state, 5) ^ word) × φ64`, whose high
/// and low halves both spread well for hashbrown's control bytes.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-u64 fields; the memo key never takes it.
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

type KeyMap = HashMap<Key, u32, BuildHasherDefault<KeyHasher>>;

/// Quantizes a positive dimension to integer nanocentimeters. It
/// multiplies by the reciprocal of [`KEY_QUANTUM_CM`]: a divide per key
/// was a measurable slice of the warm-hit budget.
fn quantize(value_cm: f64) -> u64 {
    round_to_u64(value_cm * 1.0e9)
}

/// `x.round() as u64` (saturating, NaN to zero) without the libm call
/// that targets lacking SSE4.1 make. The fraction `x − t` is exact and
/// reaches one half only below 2^52, so `t + 1` cannot overflow.
fn round_to_u64(x: f64) -> u64 {
    let t = x as u64;
    if x - t as f64 >= 0.5 {
        t.saturating_add(1)
    } else {
        t
    }
}

/// A bounded map of eq. (4) counts and the lookups it answered.
struct Table {
    map: KeyMap,
    capacity: usize,
    stats: CacheStats,
}

impl Table {
    /// An empty table of at most `capacity` entries.
    fn bounded(capacity: usize) -> Self {
        Self {
            map: KeyMap::default(),
            capacity,
            stats: CacheStats::default(),
        }
    }

    /// Memoized [`crate::maly::dies_per_wafer_batch`]: one pass of
    /// lookups, then the misses through the batched row-sum kernel and
    /// into the map. Counts are bit-identical to the direct call.
    fn dies_per_wafer_batch(&mut self, wafer: &Wafer, dies: &[DieDimensions]) -> Vec<DieCount> {
        let r_key = quantize(wafer.usable_radius().value());
        // Miss slots hold a zero until the miss pass patches them.
        let mut out: Vec<DieCount> = Vec::with_capacity(dies.len());
        let mut misses: Vec<(usize, Key)> = Vec::new(); // (batch index, key)
        let mut miss_dies: Vec<DieDimensions> = Vec::new();
        for (i, die) in dies.iter().enumerate() {
            let key = (
                r_key,
                quantize(die.width().value()),
                quantize(die.height().value()),
            );
            if let Some(&count) = self.map.get(&key) {
                out.push(DieCount::new(count));
            } else {
                misses.push((i, key));
                miss_dies.push(*die);
                out.push(DieCount::new(0));
            }
        }
        self.stats.hits += (dies.len() - misses.len()) as u64;
        self.stats.misses += misses.len() as u64;
        if !miss_dies.is_empty() {
            let computed = maly::dies_per_wafer_batch(wafer, &miss_dies);
            for (&(i, key), &count) in misses.iter().zip(&computed) {
                out[i] = count;
                // A full map is emptied, keeping its allocation.
                if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
                    self.map.clear();
                }
                self.map.insert(key, count.value());
            }
        }
        out
    }

    /// Empties the map and zeroes the stats.
    fn clear(&mut self) {
        self.map.clear();
        self.stats = CacheStats::default();
    }
}

/// Locks a table; a poisoned one is recovered, as no entry can be torn.
fn lock(table: &Mutex<Table>) -> MutexGuard<'_, Table> {
    table.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f` on the process-wide memo and moves the gauge to match.
fn with_shim<T>(f: impl FnOnce(&mut Table) -> T) -> T {
    static SHIM: LazyLock<Mutex<Table>> = LazyLock::new(|| Mutex::new(Table::bounded(CAPACITY)));
    let mut table = lock(&SHIM);
    let before = table.map.len() as i64;
    let out = f(&mut table);
    CACHE_ENTRIES.add(table.map.len() as i64 - before);
    out
}

/// Hit and miss counts of the memo since it was last cleared.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that computed eq. (4) and stored the result.
    pub misses: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]` (zero before any call).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses).max(1) as f64
    }
}

/// Memoized [`crate::maly::dies_per_wafer_batch`] on the process-wide
/// memo: a warm batch is pure lookups, a cold one pays one kernel run
/// plus the inserts. Counts are bit-identical to the direct call.
#[must_use]
pub fn dies_per_wafer_batch(wafer: &Wafer, dies: &[DieDimensions]) -> Vec<DieCount> {
    with_shim(|table| table.dies_per_wafer_batch(wafer, dies))
}

/// The process-wide memo's hit and miss counts.
#[must_use]
pub fn stats() -> CacheStats {
    with_shim(|table| table.stats)
}

/// Empties the process-wide memo and zeroes its stats.
pub fn clear() {
    with_shim(Table::clear);
}

#[cfg(test)]
mod tests {
    use super::*;
    use maly_units::{Centimeters, SquareCentimeters};

    fn one(table: &mut Table, wafer: &Wafer, die: DieDimensions) -> DieCount {
        table.dies_per_wafer_batch(wafer, &[die])[0]
    }

    fn table() -> Table {
        Table::bounded(CAPACITY)
    }

    /// xorshift64* stream for seeded test inputs.
    fn stream(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }
    }

    /// The one test that touches the process-wide memo and its gauge,
    /// so neither races with another test. It replays the perf
    /// harness's `eq4.*` probe: 1024 square dies of 0.05–3.05 cm² on an
    /// R = 7.5 cm wafer, cleared, then one cold and one warm batch.
    #[test]
    fn shims_answer_the_probe_cold_then_warm_at_half_hit_rate() {
        let mut next = stream(0xE04);
        let dies: Vec<DieDimensions> = (0..1024)
            .map(|_| {
                let unit = (next() >> 11) as f64 / (1u64 << 53) as f64;
                DieDimensions::square_with_area(SquareCentimeters::new(0.05 + 3.0 * unit).unwrap())
            })
            .collect();
        let wafer = Wafer::with_radius(Centimeters::new(7.5).unwrap());
        let direct = maly::dies_per_wafer_batch(&wafer, &dies);
        let n = dies.len() as u64;

        clear();
        let held = CACHE_ENTRIES.value();
        let cold = dies_per_wafer_batch(&wafer, &dies);
        assert_eq!(cold, direct);
        assert_eq!(stats(), CacheStats { hits: 0, misses: n });
        assert_eq!(CACHE_ENTRIES.value(), held + n as i64, "one entry per die");

        let warm = dies_per_wafer_batch(&wafer, &dies);
        assert_eq!(warm, direct);
        assert_eq!(stats(), CacheStats { hits: n, misses: n });
        assert_eq!(stats().hit_rate(), 0.5);
        assert_eq!(
            CACHE_ENTRIES.value(),
            held + n as i64,
            "a warm batch inserts nothing"
        );

        clear();
        assert_eq!(stats(), CacheStats::default());
        assert_eq!(stats().hit_rate(), 0.0);
        assert_eq!(CACHE_ENTRIES.value(), held);
    }

    #[test]
    fn cached_count_matches_direct_eq4() {
        let mut table = table();
        let wafer = Wafer::six_inch();
        for area in [0.25, 1.0, 2.976, 4.785216] {
            let die = DieDimensions::square_with_area(SquareCentimeters::new(area).unwrap());
            assert_eq!(
                one(&mut table, &wafer, die),
                maly::dies_per_wafer(&wafer, die),
                "area {area}"
            );
            // Second call exercises the hit path; value must not change.
            assert_eq!(
                one(&mut table, &wafer, die),
                maly::dies_per_wafer(&wafer, die)
            );
        }
        assert_eq!(table.stats, CacheStats { hits: 4, misses: 4 });
    }

    #[test]
    fn best_orientation_matches_direct() {
        // A rotated rectangle is a key of its own, so the best of both
        // memoized orientations is the direct best orientation.
        let mut table = table();
        let wafer = Wafer::six_inch();
        let die = DieDimensions::new(
            Centimeters::new(2.9).unwrap(),
            Centimeters::new(0.9).unwrap(),
        );
        let both = table.dies_per_wafer_batch(&wafer, &[die, die.rotated()]);
        assert_eq!(table.map.len(), 2);
        assert_eq!(
            both[0].max(both[1]),
            maly::dies_per_wafer_best_orientation(&wafer, die)
        );
    }

    #[test]
    fn edge_exclusion_changes_the_key() {
        // Same die, different usable radius: must not alias.
        let mut table = table();
        let die = DieDimensions::square(Centimeters::new(1.0).unwrap());
        let full = one(&mut table, &Wafer::six_inch(), die);
        let excluded = one(
            &mut table,
            &Wafer::six_inch().edge_exclusion(Centimeters::new(0.5).unwrap()),
            die,
        );
        assert!(excluded < full);
    }

    #[test]
    fn nearby_but_distinct_dimensions_do_not_alias() {
        // 1 µm apart (1e-4 cm) is 100 000 quanta apart: distinct keys.
        let mut table = table();
        let wafer = Wafer::six_inch();
        let a = DieDimensions::square(Centimeters::new(1.0).unwrap());
        let b = DieDimensions::square(Centimeters::new(1.0001).unwrap());
        assert_eq!(one(&mut table, &wafer, a), maly::dies_per_wafer(&wafer, a));
        assert_eq!(one(&mut table, &wafer, b), maly::dies_per_wafer(&wafer, b));
        assert_eq!(table.map.len(), 2);
    }

    #[test]
    fn batch_matches_scalar_and_warms_the_cache() {
        let mut table = table();
        let wafer = Wafer::six_inch();
        let dies: Vec<DieDimensions> = (1..30)
            .map(|i| DieDimensions::square(Centimeters::new(0.17 * f64::from(i)).unwrap()))
            .collect();
        let cold = table.dies_per_wafer_batch(&wafer, &dies);
        for (die, got) in dies.iter().zip(&cold) {
            assert_eq!(*got, maly::dies_per_wafer(&wafer, *die), "die {die:?}");
        }
        // Second pass must be pure hits and identical.
        let before = table.stats;
        let warm = table.dies_per_wafer_batch(&wafer, &dies);
        assert_eq!(cold, warm);
        assert_eq!(table.stats.hits, before.hits + dies.len() as u64);
        assert_eq!(table.stats.misses, before.misses);
    }

    #[test]
    fn batch_and_scalar_share_the_memo() {
        let mut table = table();
        let wafer = Wafer::six_inch();
        let die = DieDimensions::square(Centimeters::new(0.77).unwrap());
        let scalar = one(&mut table, &wafer, die);
        let batch = table.dies_per_wafer_batch(&wafer, &[die, die]);
        assert_eq!(batch, vec![scalar, scalar]);
        assert_eq!(table.stats, CacheStats { hits: 2, misses: 1 });
    }

    #[test]
    fn stats_and_clear_work() {
        let mut table = table();
        let wafer = Wafer::six_inch();
        let die = DieDimensions::square(Centimeters::new(1.25).unwrap());
        let _ = one(&mut table, &wafer, die);
        let _ = one(&mut table, &wafer, die);
        let s = table.stats;
        assert_eq!(s, CacheStats { hits: 1, misses: 1 });
        assert_eq!(s.hit_rate(), 0.5);
        table.clear();
        assert_eq!(table.stats, CacheStats::default());
        assert_eq!(table.stats.hit_rate(), 0.0);
        assert!(table.map.is_empty());
    }

    /// A table that reaches its bound is emptied before its next new
    /// key: overfill a small one and check the bound on every insert and
    /// the answers across the flush.
    #[test]
    fn a_full_memo_is_cleared_and_answers_stay_exact() {
        const CAP: usize = 64;
        let mut table = Table::bounded(CAP);
        let wafer = Wafer::six_inch();
        // Dies 1e-8 cm apart in width: every one a distinct memo key.
        let keys: Vec<DieDimensions> = (0..CAP + CAP / 2)
            .map(|k| {
                DieDimensions::new(
                    Centimeters::new(1.0 + k as f64 * 1.0e-8).unwrap(),
                    Centimeters::new(2.5).unwrap(),
                )
            })
            .collect();
        for (k, d) in keys.iter().enumerate() {
            let got = one(&mut table, &wafer, *d);
            assert!(table.map.len() <= CAP, "key {k}");
            assert_eq!(got, maly::dies_per_wafer(&wafer, *d), "key {k}");
        }
        assert_eq!(table.map.len(), CAP / 2);

        // A batch through the full table gives the same counts as eq. (4).
        let batch = table.dies_per_wafer_batch(&wafer, &keys);
        for (d, got) in keys.iter().zip(&batch) {
            assert_eq!(*got, maly::dies_per_wafer(&wafer, *d));
        }
        assert!(table.map.len() <= CAP);

        // A batch that repeats a new key misses it twice; storing it the
        // second time, into the now-full table, flushes nothing.
        let mut table = Table::bounded(2);
        let _ = table.dies_per_wafer_batch(&wafer, &[keys[0], keys[1], keys[1]]);
        assert_eq!(table.map.len(), 2);
        assert_eq!(table.stats, CacheStats { hits: 0, misses: 3 });
    }

    /// `round_to_u64` replaces `f64::round` in the key quantizer; it must
    /// agree with `round() as u64` on every input: random bit patterns
    /// (negatives, NaNs and subnormals among them), halves and the edges
    /// of exact integer representation.
    #[test]
    fn round_to_u64_equals_round_then_cast() {
        let edges = [
            0.0,
            -0.0,
            0.5,
            1.5,
            2.5,
            -0.5,
            0.49999999999999994,
            2f64.powi(52) - 0.5,
            2f64.powi(52) + 0.5,
            2f64.powi(52) + 1.0,
            2f64.powi(53) + 1.0,
            2f64.powi(63),
            2f64.powi(64) - 2048.0,
            2f64.powi(64),
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
        ];
        let mut next = stream(0x853c_49e6_748f_ea9b);
        // Raw bit patterns cover every exponent; uniform values below
        // 2^20 with fractions exercise the half-way branch.
        let random: Vec<f64> = (0..200_000)
            .map(|k| {
                let bits = next();
                if k % 2 == 0 {
                    f64::from_bits(bits)
                } else {
                    (bits >> 11) as f64 / (1u64 << 33) as f64
                }
            })
            .collect();
        for x in edges.into_iter().chain(random) {
            assert_eq!(round_to_u64(x), x.round() as u64, "{x:e}");
        }
    }

    #[test]
    fn concurrent_lookups_agree() {
        let table = Mutex::new(table());
        let wafer = Wafer::six_inch();
        let reference: Vec<u32> = (1..40)
            .map(|i| {
                let die = DieDimensions::square(Centimeters::new(i as f64 * 0.1).unwrap());
                maly::dies_per_wafer(&wafer, die).value()
            })
            .collect();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for (i, want) in (1..40).zip(&reference) {
                        let die = DieDimensions::square(Centimeters::new(i as f64 * 0.1).unwrap());
                        assert_eq!(one(&mut lock(&table), &wafer, die).value(), *want);
                    }
                });
            }
        });
        let table = lock(&table);
        assert_eq!(table.map.len(), reference.len());
        assert_eq!(table.stats.misses, reference.len() as u64);
    }

    #[test]
    fn a_poisoned_lock_is_recovered() {
        let table = Mutex::new(table());
        let wafer = Wafer::six_inch();
        let die = DieDimensions::square(Centimeters::new(1.5).unwrap());
        let _ = std::thread::scope(|s| {
            s.spawn(|| {
                let _ = one(&mut lock(&table), &wafer, die);
                let _held = lock(&table);
                panic!("poison the lock");
            })
            .join()
        });
        assert!(table.is_poisoned());
        assert_eq!(
            one(&mut lock(&table), &wafer, die),
            maly::dies_per_wafer(&wafer, die)
        );
        assert_eq!(lock(&table).stats, CacheStats { hits: 1, misses: 1 });
    }
}
