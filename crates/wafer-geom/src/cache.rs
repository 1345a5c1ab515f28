//! Memoized eq. (4) dies-per-wafer evaluation.
//!
//! The row-packing sum dominates the per-cell cost of every sweep: a
//! Fig 8 surface, a partition search, or a Table 3 regeneration asks
//! for `N_ch` thousands of times. A [`Memo`] stores those counts, but
//! it pays only where the same `(usable radius, die width, die height)`
//! triple comes back. A one-shot dense sweep asks for mostly new keys,
//! and inserting them costs more than computing them; a server answers
//! repeated windows from its tile cache before eq. (4) is reached. So
//! every sweep and every served query calls
//! [`crate::maly::dies_per_wafer_batch`] directly, and no workspace
//! path routes through a memo.
//!
//! The memo's only callers are two frozen benchmarks: the `eq4_cache`
//! group of `maly-bench`'s sweeps bench builds its own [`Memo`]s, and
//! the standalone perf harness's `eq4.*` probe uses the process-wide
//! shims [`dies_per_wafer_batch`], [`stats`] and [`clear`]. The memo
//! goes with their next change.
//!
//! The key is the *only* input the formula reads — the usable radius
//! and the two die edges — each quantized to an integer number of
//! **nanocentimeters** (1e-9 cm, i.e. 10 femtometers). The quantum sits
//! ten orders of magnitude below any physical die dimension in the
//! model, so distinct designs never collide, while dimensionally
//! identical requests reuse the stored count. The memo is pure: a hit,
//! a miss and an eviction all answer exactly what eq. (4) computes, so
//! memoized and direct sweeps are bit-identical (see DESIGN.md,
//! "Parallel execution & determinism").
//!
//! A memo is sharded to keep lock contention negligible under the
//! parallel executor, and safe across panics: a poisoned shard is
//! recovered, not unwrapped. It is also bounded: distinct keys are
//! unlimited, so each shard holds at most [`SHARD_CAPACITY`] entries,
//! and a full shard is emptied before its next insert.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

use maly_units::DieCount;

use crate::{maly, DieDimensions, Wafer};

/// Quantization step of the cache key, in centimeters.
pub const KEY_QUANTUM_CM: f64 = 1.0e-9;

/// Calls answered from a memo, summed over every memo in the process.
/// Diagnostic kind: concurrent sweeps can race two misses on the same
/// key that a serial run would split hit/miss, so the totals are not
/// thread-count-invariant.
static CACHE_HITS: maly_obs::Counter = maly_obs::Counter::diag("wafer_geom.cache.hits");
/// Calls that computed eq. (4) and stored the result.
static CACHE_MISSES: maly_obs::Counter = maly_obs::Counter::diag("wafer_geom.cache.misses");
/// Entries dropped by clearing a full shard. Diagnostic kind, like the
/// hit and miss counts it depends on.
static CACHE_EVICTIONS: maly_obs::Counter = maly_obs::Counter::diag("wafer_geom.cache.evictions");
/// Entries held by every live [`Memo`] (diagnostic: depends on request
/// history).
static CACHE_ENTRIES: maly_obs::Gauge = maly_obs::Gauge::new("wafer_geom.cache.entries");

/// Number of shards per memo; a power of two so the selector is a mask.
const SHARDS: usize = 16;

/// Most entries one shard holds: 2^18, so a memo never exceeds
/// `16 × 2^18 ≈ 4.2 M` entries.
pub const SHARD_CAPACITY: usize = 1 << 18;

/// One memo key: `(usable radius, die width, die height)` in integer
/// multiples of [`KEY_QUANTUM_CM`].
type Key = (u64, u64, u64);

/// Multiply-rotate hasher for the fixed-shape integer key. The default
/// `HashMap` hasher (SipHash) is DoS-resistant but costs more than the
/// whole warm-hit budget of this memo. The mix has no secret, so keys
/// crafted to collide would slow every lookup in their shard. [`SHARD_CAPACITY`] bounds how long such a shard can get.
/// Each `u64` word folds in as `state = (rotl(state, 5) ^ word) × φ64`
/// (the 64-bit golden-ratio constant), whose high and low halves are
/// both well distributed for hashbrown's control-byte scheme.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-u64 fields; the memo key never takes it.
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

type KeyMap = HashMap<Key, u32, BuildHasherDefault<KeyHasher>>;

/// Reciprocal of [`KEY_QUANTUM_CM`]: quantization multiplies by this
/// instead of dividing by the quantum — the division was a measurable
/// slice of the warm-hit budget, and key identity only needs the same
/// mapping on every call, not any particular rounding of it.
const KEY_QUANTUM_INV: f64 = 1.0e9;

/// Quantizes a positive dimension to integer nanocentimeters.
/// Float-to-int casts saturate, so pathological inputs stay safe.
fn quantize(value_cm: f64) -> u64 {
    round_to_u64(value_cm * KEY_QUANTUM_INV)
}

/// `x.round() as u64` (halves away from zero, saturating, NaN to zero)
/// without the libm `round` call that targets without SSE4.1 make.
/// Truncation is `floor` for `x ≥ 0`; the fraction `x − t` is exact, and
/// it can reach one half only below 2^52, so `t + 1` never overflows
/// there. At and past 2^64, `t` is already `u64::MAX`.
fn round_to_u64(x: f64) -> u64 {
    let t = x as u64;
    if x - t as f64 >= 0.5 {
        t.saturating_add(1)
    } else {
        t
    }
}

fn shard_of(key: &Key) -> usize {
    // Cheap mix of the three coordinates; only distribution matters.
    let h = key
        .0
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(key.1.rotate_left(21))
        .wrapping_add(key.2.rotate_left(42));
    (h >> 58) as usize & (SHARDS - 1)
}

fn die_key(r_key: u64, die: &DieDimensions) -> Key {
    (
        r_key,
        quantize(die.width().value()),
        quantize(die.height().value()),
    )
}

/// A bounded, sharded memo of eq. (4) die counts, owned by its caller.
///
/// Every memo reports into the same `wafer_geom.cache.{hits, misses,
/// evictions}` Diag counters and the `wafer_geom.cache.entries` gauge,
/// so a trace shows how much memo a process holds and how well it
/// pays; [`Memo::stats`] counts this memo's own lookups.
pub struct Memo {
    shards: [RwLock<KeyMap>; SHARDS],
    shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for Memo {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Memo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Memo")
            .field("entries", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

/// Locks a shard for reading, recovering from poison (a panicked writer
/// cannot have left a torn entry: `HashMap::insert` of a `u32` is not
/// observable mid-write through the lock).
fn read(shard: &RwLock<KeyMap>) -> RwLockReadGuard<'_, KeyMap> {
    shard
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn write(shard: &RwLock<KeyMap>) -> RwLockWriteGuard<'_, KeyMap> {
    shard
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Memo {
    /// An empty memo holding at most [`SHARD_CAPACITY`] entries per
    /// shard. Building one allocates no table until the first insert.
    #[must_use]
    pub fn new() -> Self {
        Self::with_shard_capacity(SHARD_CAPACITY)
    }

    /// An empty memo with a smaller per-shard bound, so tests can
    /// overfill a shard without inserting a quarter million keys.
    pub(crate) fn with_shard_capacity(shard_capacity: usize) -> Self {
        Self {
            shards: std::array::from_fn(|_| RwLock::new(KeyMap::default())),
            shard_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Memoized [`crate::maly::dies_per_wafer_batch`]: one pass of
    /// lookups over the dies, with the misses computed through the
    /// batched row-sum kernel and stored back. A warm batch is pure
    /// lookups; a cold one pays one kernel run plus the inserts, under
    /// one write lock per shard it touches. Counts are bit-identical to
    /// the direct call.
    #[must_use]
    pub fn dies_per_wafer_batch(&self, wafer: &Wafer, dies: &[DieDimensions]) -> Vec<DieCount> {
        let r_key = quantize(wafer.usable_radius().value());
        // Miss slots hold a zero placeholder until the miss pass patches
        // them; a flat Vec<DieCount> keeps the warm path free of Option
        // repacking.
        let mut out: Vec<DieCount> = Vec::with_capacity(dies.len());
        // (shard, batch index, key) of each miss.
        let mut misses: Vec<(usize, usize, Key)> = Vec::new();
        let mut miss_dies: Vec<DieDimensions> = Vec::new();
        {
            // One read acquisition per shard for the whole batch, instead
            // of one per element: the lock round-trip otherwise costs as
            // much as the warm lookup it guards. Read guards never block
            // each other; writers wait only for this short hit pass.
            let guards: Vec<RwLockReadGuard<'_, KeyMap>> = self.shards.iter().map(read).collect();
            for (i, die) in dies.iter().enumerate() {
                let key = die_key(r_key, die);
                let shard = shard_of(&key);
                if let Some(&count) = guards[shard].get(&key) {
                    out.push(DieCount::new(count));
                } else {
                    misses.push((shard, i, key));
                    miss_dies.push(*die);
                    out.push(DieCount::new(0));
                }
            }
        }
        let hits = (dies.len() - miss_dies.len()) as u64;
        CACHE_HITS.add(hits);
        self.hits.fetch_add(hits, Ordering::SeqCst);
        if !miss_dies.is_empty() {
            let computed = maly::dies_per_wafer_batch(wafer, &miss_dies);
            CACHE_MISSES.add(miss_dies.len() as u64);
            self.misses
                .fetch_add(miss_dies.len() as u64, Ordering::SeqCst);
            // Group the misses by shard, keeping batch order within
            // each, so every touched shard is write-locked once.
            let mut stores: Vec<(usize, Key, DieCount)> = misses
                .iter()
                .zip(&computed)
                .map(|(&(shard, i, key), &count)| {
                    out[i] = count;
                    (shard, key, count)
                })
                .collect();
            stores.sort_by_key(|&(shard, ..)| shard);
            let mut entries = 0i64;
            for run in stores.chunk_by(|a, b| a.0 == b.0) {
                let mut guard = write(&self.shards[run[0].0]);
                for &(_, key, count) in run {
                    entries += self.store(&mut guard, key, count.value());
                }
            }
            CACHE_ENTRIES.add(entries);
        }
        out
    }

    /// Inserts one entry into a locked shard, first emptying the shard
    /// if it is full, and returns the change in entries held. Clearing
    /// keeps the table's allocation, so a full shard costs no
    /// reallocation.
    fn store(&self, guard: &mut KeyMap, key: Key, value: u32) -> i64 {
        let mut delta = 0;
        if guard.len() >= self.shard_capacity && !guard.contains_key(&key) {
            CACHE_EVICTIONS.add(guard.len() as u64);
            delta -= guard.len() as i64;
            guard.clear();
        }
        // Two threads that miss the same key both insert the same
        // count; only the first adds an entry.
        if guard.insert(key, value).is_none() {
            delta += 1;
        }
        delta
    }

    /// Entries currently held, over all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| read(s).len()).sum()
    }

    /// Whether the memo holds no entry.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// This memo's hit and miss counts since it was built or cleared.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::SeqCst),
            misses: self.misses.load(Ordering::SeqCst),
        }
    }

    /// Empties every shard and zeroes [`Memo::stats`] (for cold-start
    /// measurements; correctness never requires clearing).
    fn clear(&self) {
        let mut dropped = 0i64;
        for shard in &self.shards {
            let mut guard = write(shard);
            dropped += guard.len() as i64;
            guard.clear();
        }
        CACHE_ENTRIES.add(-dropped);
        self.hits.store(0, Ordering::SeqCst);
        self.misses.store(0, Ordering::SeqCst);
    }
}

impl Drop for Memo {
    fn drop(&mut self) {
        let held: usize = self
            .shards
            .iter_mut()
            .map(|s| {
                s.get_mut()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .len()
            })
            .sum();
        CACHE_ENTRIES.add(-(held as i64));
    }
}

/// Hit and miss counts of one [`Memo`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Calls answered from the memo.
    pub hits: u64,
    /// Calls that computed eq. (4) and stored the result.
    pub misses: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]` (zero before any call).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The memo behind the shims below, built on first use.
fn shim() -> &'static Memo {
    static SHIM: OnceLock<Memo> = OnceLock::new();
    SHIM.get_or_init(Memo::new)
}

/// [`Memo::dies_per_wafer_batch`] on the process-wide shim memo.
#[must_use]
pub fn dies_per_wafer_batch(wafer: &Wafer, dies: &[DieDimensions]) -> Vec<DieCount> {
    shim().dies_per_wafer_batch(wafer, dies)
}

/// [`Memo::stats`] of the process-wide shim memo.
#[must_use]
pub fn stats() -> CacheStats {
    shim().stats()
}

/// Empties the process-wide shim memo and zeroes its stats.
pub fn clear() {
    shim().clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use maly_units::{Centimeters, SquareCentimeters};

    fn one(memo: &Memo, wafer: &Wafer, die: DieDimensions) -> DieCount {
        memo.dies_per_wafer_batch(wafer, &[die])[0]
    }

    #[test]
    fn cached_count_matches_direct_eq4() {
        let memo = Memo::new();
        let wafer = Wafer::six_inch();
        for area in [0.25, 1.0, 2.976, 4.785216] {
            let die = DieDimensions::square_with_area(SquareCentimeters::new(area).unwrap());
            assert_eq!(
                one(&memo, &wafer, die),
                maly::dies_per_wafer(&wafer, die),
                "area {area}"
            );
            // Second call exercises the hit path; value must not change.
            assert_eq!(one(&memo, &wafer, die), maly::dies_per_wafer(&wafer, die));
        }
        assert_eq!(memo.stats(), CacheStats { hits: 4, misses: 4 });
    }

    #[test]
    fn best_orientation_matches_direct() {
        // A rotated rectangle is a key of its own, so the best of both
        // memoized orientations is the direct best orientation.
        let memo = Memo::new();
        let wafer = Wafer::six_inch();
        let die = DieDimensions::new(
            Centimeters::new(2.9).unwrap(),
            Centimeters::new(0.9).unwrap(),
        );
        let both = memo.dies_per_wafer_batch(&wafer, &[die, die.rotated()]);
        assert_eq!(memo.len(), 2);
        assert_eq!(
            both[0].max(both[1]),
            maly::dies_per_wafer_best_orientation(&wafer, die)
        );
    }

    #[test]
    fn edge_exclusion_changes_the_key() {
        // Same die, different usable radius: must not alias.
        let memo = Memo::new();
        let die = DieDimensions::square(Centimeters::new(1.0).unwrap());
        let full = one(&memo, &Wafer::six_inch(), die);
        let excluded = one(
            &memo,
            &Wafer::six_inch().edge_exclusion(Centimeters::new(0.5).unwrap()),
            die,
        );
        assert!(excluded < full);
    }

    #[test]
    fn nearby_but_distinct_dimensions_do_not_alias() {
        // 1 µm apart (1e-4 cm) is 100 000 quanta apart: distinct keys.
        let memo = Memo::new();
        let wafer = Wafer::six_inch();
        let a = DieDimensions::square(Centimeters::new(1.0).unwrap());
        let b = DieDimensions::square(Centimeters::new(1.0001).unwrap());
        assert_eq!(one(&memo, &wafer, a), maly::dies_per_wafer(&wafer, a));
        assert_eq!(one(&memo, &wafer, b), maly::dies_per_wafer(&wafer, b));
        assert_eq!(memo.len(), 2);
    }

    #[test]
    fn batch_matches_scalar_and_warms_the_cache() {
        let memo = Memo::new();
        let wafer = Wafer::six_inch();
        let dies: Vec<DieDimensions> = (1..30)
            .map(|i| DieDimensions::square(Centimeters::new(0.17 * f64::from(i)).unwrap()))
            .collect();
        let cold = memo.dies_per_wafer_batch(&wafer, &dies);
        for (die, got) in dies.iter().zip(&cold) {
            assert_eq!(*got, maly::dies_per_wafer(&wafer, *die), "die {die:?}");
        }
        // Second pass must be pure hits and identical.
        let before = memo.stats();
        let warm = memo.dies_per_wafer_batch(&wafer, &dies);
        let after = memo.stats();
        assert_eq!(cold, warm);
        assert_eq!(after.hits, before.hits + dies.len() as u64);
        assert_eq!(after.misses, before.misses);
    }

    #[test]
    fn batch_and_scalar_share_the_memo() {
        let memo = Memo::new();
        let wafer = Wafer::six_inch();
        let die = DieDimensions::square(Centimeters::new(0.77).unwrap());
        let scalar = one(&memo, &wafer, die);
        let batch = memo.dies_per_wafer_batch(&wafer, &[die, die]);
        assert_eq!(batch, vec![scalar, scalar]);
        assert_eq!(memo.stats(), CacheStats { hits: 2, misses: 1 });
    }

    #[test]
    fn stats_and_clear_work() {
        let memo = Memo::new();
        let wafer = Wafer::six_inch();
        let die = DieDimensions::square(Centimeters::new(1.25).unwrap());
        let _ = one(&memo, &wafer, die);
        let _ = one(&memo, &wafer, die);
        let s = memo.stats();
        assert!(s.misses >= 1);
        assert!(s.hits >= 1);
        assert!(s.hit_rate() > 0.0 && s.hit_rate() < 1.0);
        memo.clear();
        let s = memo.stats();
        assert_eq!(s.hits + s.misses, 0);
        assert_eq!(s.hit_rate(), 0.0);
        assert!(memo.is_empty());
    }

    /// A shard that reaches its bound is emptied before its next insert:
    /// overfill one shard of a memo with a small bound and check the
    /// bound on every insert, the eviction count and the answers across
    /// the flush.
    #[test]
    fn a_full_shard_is_cleared_and_answers_stay_exact() {
        const CAP: usize = 64;
        let memo = Memo::with_shard_capacity(CAP);
        let wafer = Wafer::six_inch();
        let r_key = quantize(wafer.usable_radius().value());
        let shard_len = |shard: usize| read(&memo.shards[shard]).len();
        // Dies 1e-8 cm apart in width: every one a distinct memo key.
        let die = |k: u64| {
            DieDimensions::new(
                Centimeters::new(1.0 + k as f64 * 1.0e-8).unwrap(),
                Centimeters::new(2.5).unwrap(),
            )
        };
        let target = shard_of(&die_key(r_key, &die(0)));
        let keys: Vec<DieDimensions> = (0..)
            .map(die)
            .filter(|d| shard_of(&die_key(r_key, d)) == target)
            .take(CAP + CAP / 2)
            .collect();

        let evictions = || CACHE_EVICTIONS.value();
        let before = evictions();
        for (k, d) in keys.iter().enumerate() {
            let got = one(&memo, &wafer, *d);
            assert!(shard_len(target) <= CAP, "key {k}");
            assert_eq!(got, maly::dies_per_wafer(&wafer, *d), "key {k}");
        }
        let evicted = evictions() - before;
        assert!(evicted >= CAP as u64, "{evicted} evicted");
        assert_eq!(shard_len(target), CAP / 2);

        // A batch through the full shard gives the same counts as eq. (4).
        let batch = memo.dies_per_wafer_batch(&wafer, &keys);
        for (d, got) in keys.iter().zip(&batch) {
            assert_eq!(*got, maly::dies_per_wafer(&wafer, *d));
        }
        for shard in 0..SHARDS {
            assert!(shard_len(shard) <= CAP);
        }
    }

    #[test]
    fn entries_gauge_counts_live_entries() {
        // Other tests' memos only ever add their own live entries, so
        // the process-wide gauge is at least this memo's size.
        let memo = Memo::new();
        let wafer = Wafer::six_inch();
        let dies: Vec<DieDimensions> = (1..=40)
            .map(|i| DieDimensions::square(Centimeters::new(0.013 * f64::from(i)).unwrap()))
            .collect();
        let _ = memo.dies_per_wafer_batch(&wafer, &dies);
        let _ = memo.dies_per_wafer_batch(&wafer, &dies);
        assert_eq!(memo.len(), dies.len(), "a repeat inserts nothing");
        assert!(CACHE_ENTRIES.value() >= dies.len() as i64);
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
        let mut state: u64 = 0x853c_49e6_748f_ea9b;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
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
        let memo = Memo::new();
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
                        assert_eq!(one(&memo, &wafer, die).value(), *want);
                    }
                });
            }
        });
        assert_eq!(memo.len(), reference.len());
    }
}
