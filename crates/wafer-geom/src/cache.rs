//! Memoized eq. (4) dies-per-wafer evaluation.
//!
//! The row-packing sum dominates the per-cell cost of every sweep: a
//! Fig 8 surface, a partition search, or a Table 3 regeneration asks
//! for `N_ch` thousands of times, and many of those calls repeat the
//! same `(usable radius, die width, die height)` triple — most visibly
//! in the partition search, where the same die subsets recur across
//! hundreds of groupings, and across repeated surface/report passes.
//!
//! [`dies_per_wafer`] is a drop-in memoized front for
//! [`crate::maly::dies_per_wafer`]. The cache key is the *only* input
//! the formula reads — the usable radius and the two die edges — each
//! quantized to an integer number of **nanocentimeters** (1e-9 cm,
//! i.e. 10 femtometers). The quantum sits ten orders of magnitude below
//! any physical die dimension in the model, so distinct designs never
//! collide, while dimensionally identical requests reuse the stored
//! count. Because every caller routes through the same cache, parallel
//! and serial sweeps observe identical values (see DESIGN.md,
//! "Parallel execution & determinism").
//!
//! The cache is process-global (`OnceLock`), sharded to keep lock
//! contention negligible under the parallel executor, and safe across
//! panics: a poisoned shard is recovered, not unwrapped.
//!
//! It is also bounded. Under `maly-serve` the die edges come from client
//! windows, so distinct keys are unlimited; each shard holds at most
//! [`SHARD_CAPACITY`] entries, and a full shard is emptied before its
//! next insert. The memo is pure, so an eviction costs only recomputation,
//! never a different answer.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{OnceLock, RwLock, RwLockReadGuard};

use maly_units::DieCount;

use crate::{maly, DieDimensions, Wafer};

/// Quantization step of the cache key, in centimeters.
pub const KEY_QUANTUM_CM: f64 = 1.0e-9;

/// Calls answered from the memo. Diagnostic kind: concurrent sweeps can
/// race two misses on the same key that a serial run would split
/// hit/miss, so the totals are not thread-count-invariant.
static CACHE_HITS: maly_obs::Counter = maly_obs::Counter::diag("wafer_geom.cache.hits");
/// Calls that computed eq. (4) and stored the result.
static CACHE_MISSES: maly_obs::Counter = maly_obs::Counter::diag("wafer_geom.cache.misses");
/// Entries dropped by clearing a full shard. Diagnostic kind, like the
/// hit and miss counts it depends on.
static CACHE_EVICTIONS: maly_obs::Counter = maly_obs::Counter::diag("wafer_geom.cache.evictions");

/// Number of shards; a power of two so the selector is a mask.
pub const SHARDS: usize = 16;

/// Most entries one shard holds: 2^18, so the memo never exceeds
/// `16 × 2^18 ≈ 4.2 M` entries (about 2.8× the ~1.5 M keys a long run of
/// `repro all` plus design-space studies keeps live).
pub const SHARD_CAPACITY: usize = 1 << 18;

/// One memo key: `(usable radius, die width, die height)` in integer
/// multiples of [`KEY_QUANTUM_CM`].
type Key = (u64, u64, u64);

/// Multiply-rotate hasher for the fixed-shape integer key. The default
/// `HashMap` hasher (SipHash) is DoS-resistant but costs more than the
/// whole warm-hit budget of this memo. The keys are not trusted: under
/// `maly-serve` the die edges come from client windows, and this mix
/// has no secret, so keys crafted to collide would slow every lookup in
/// their shard. [`SHARD_CAPACITY`] bounds how long such a shard can get.
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

struct Shard {
    map: RwLock<KeyMap>,
}

struct Cache {
    shards: Vec<Shard>,
}

static CACHE: OnceLock<Cache> = OnceLock::new();

fn cache() -> &'static Cache {
    CACHE.get_or_init(|| Cache {
        shards: (0..SHARDS)
            .map(|_| Shard {
                map: RwLock::new(KeyMap::default()),
            })
            .collect(),
    })
}

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

/// Reads a shard, recovering from poison (a panicked writer cannot have
/// left a torn entry: `HashMap::insert` of a `u32` is not observable
/// mid-write through the lock).
fn lookup(key: &Key) -> Option<u32> {
    let shard = &cache().shards[shard_of(key)];
    let guard = match shard.map.read() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    guard.get(key).copied()
}

/// Inserts one entry, first emptying the shard if it is full. Clearing
/// keeps the table's allocation, so a full shard costs no reallocation.
fn store(key: Key, value: u32) {
    let shard = &cache().shards[shard_of(&key)];
    let mut guard = match shard.map.write() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    if guard.len() >= SHARD_CAPACITY && !guard.contains_key(&key) {
        CACHE_EVICTIONS.add(guard.len() as u64);
        guard.clear();
    }
    guard.insert(key, value);
}

/// The shard the memo key of `(wafer, die)` lives in, in `0..SHARDS`.
#[must_use]
pub fn shard_index(wafer: &Wafer, die: DieDimensions) -> usize {
    shard_of(&key_of(wafer, die))
}

/// Entries currently held by shard `shard` (zero for an index past the
/// last shard).
#[must_use]
pub fn shard_len(shard: usize) -> usize {
    cache().shards.get(shard).map_or(0, |s| match s.map.read() {
        Ok(g) => g.len(),
        Err(poisoned) => poisoned.into_inner().len(),
    })
}

fn key_of(wafer: &Wafer, die: DieDimensions) -> Key {
    (
        quantize(wafer.usable_radius().value()),
        quantize(die.width().value()),
        quantize(die.height().value()),
    )
}

/// Memoized [`crate::maly::dies_per_wafer`]; bit-identical to the
/// direct call.
#[must_use]
pub fn dies_per_wafer(wafer: &Wafer, die: DieDimensions) -> DieCount {
    let key = key_of(wafer, die);
    if let Some(count) = lookup(&key) {
        CACHE_HITS.incr();
        return DieCount::new(count);
    }
    let count = maly::dies_per_wafer(wafer, die);
    CACHE_MISSES.incr();
    store(key, count.value());
    count
}

/// Batched memoized eq. (4): one pass of cache lookups over a λ-batch
/// of dies, with the misses computed through the batched row-sum kernel
/// ([`crate::maly::dies_per_wafer_batch`]) and stored back.
///
/// Composes the two layers: a warm sweep is pure lookups; a cold sweep
/// pays one batched kernel run instead of `n` scalar entries. Results
/// are bit-identical to calling [`dies_per_wafer`] per element.
#[must_use]
pub fn dies_per_wafer_batch(wafer: &Wafer, dies: &[DieDimensions]) -> Vec<DieCount> {
    let r_key = quantize(wafer.usable_radius().value());
    // Miss slots hold a zero placeholder until the miss pass patches
    // them; a flat Vec<DieCount> keeps the warm path free of Option
    // repacking.
    let mut out: Vec<DieCount> = Vec::with_capacity(dies.len());
    let mut miss_idx: Vec<usize> = Vec::new();
    let mut miss_dies: Vec<DieDimensions> = Vec::new();
    let mut hits = 0u64;
    {
        // One read acquisition per shard for the whole batch, instead of
        // one per element: the lock round-trip otherwise costs as much
        // as the warm lookup it guards. Read guards never block each
        // other; writers wait only for this short hit pass.
        let guards: Vec<RwLockReadGuard<'_, KeyMap>> = cache()
            .shards
            .iter()
            .map(|shard| match shard.map.read() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            })
            .collect();
        for (i, die) in dies.iter().enumerate() {
            let key = (
                r_key,
                quantize(die.width().value()),
                quantize(die.height().value()),
            );
            match guards[shard_of(&key)].get(&key) {
                Some(&count) => {
                    hits += 1;
                    out.push(DieCount::new(count));
                }
                None => {
                    miss_idx.push(i);
                    miss_dies.push(*die);
                    out.push(DieCount::new(0));
                }
            }
        }
    }
    CACHE_HITS.add(hits);
    if !miss_dies.is_empty() {
        let computed = maly::dies_per_wafer_batch(wafer, &miss_dies);
        CACHE_MISSES.add(miss_dies.len() as u64);
        for ((&i, die), count) in miss_idx.iter().zip(&miss_dies).zip(&computed) {
            let key = (
                r_key,
                quantize(die.width().value()),
                quantize(die.height().value()),
            );
            store(key, count.value());
            out[i] = *count;
        }
    }
    out
}

/// Memoized [`crate::maly::dies_per_wafer_best_orientation`]: both
/// orientations go through the shared cache, so a rotated request of
/// the same rectangle is already warm.
#[must_use]
pub fn dies_per_wafer_best_orientation(wafer: &Wafer, die: DieDimensions) -> DieCount {
    let as_drawn = dies_per_wafer(wafer, die);
    let rotated = dies_per_wafer(wafer, die.rotated());
    as_drawn.max(rotated)
}

/// Cache effectiveness counters (process lifetime totals), read from
/// the `maly-obs` registry — the cache keeps no bookkeeping of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Calls answered from the cache.
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

/// Current hit/miss counters: a thin shim over the
/// `wafer_geom.cache.hits` / `wafer_geom.cache.misses` obs counters, so
/// the same totals appear here and in an exported trace.
#[must_use]
pub fn stats() -> CacheStats {
    CacheStats {
        hits: CACHE_HITS.value(),
        misses: CACHE_MISSES.value(),
    }
}

/// Empties every shard and resets the counters (for cold-start
/// benchmarks; correctness never requires clearing).
pub fn clear() {
    for shard in &cache().shards {
        let mut guard = match shard.map.write() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        guard.clear();
    }
    CACHE_HITS.reset();
    CACHE_MISSES.reset();
    CACHE_EVICTIONS.reset();
}

#[cfg(test)]
mod tests {
    use super::*;
    use maly_units::{Centimeters, SquareCentimeters};

    #[test]
    fn cached_count_matches_direct_eq4() {
        let wafer = Wafer::six_inch();
        for area in [0.25, 1.0, 2.976, 4.785216] {
            let die = DieDimensions::square_with_area(SquareCentimeters::new(area).unwrap());
            assert_eq!(
                dies_per_wafer(&wafer, die),
                maly::dies_per_wafer(&wafer, die),
                "area {area}"
            );
            // Second call exercises the hit path; value must not change.
            assert_eq!(
                dies_per_wafer(&wafer, die),
                maly::dies_per_wafer(&wafer, die)
            );
        }
    }

    #[test]
    fn best_orientation_matches_direct() {
        let wafer = Wafer::six_inch();
        let die = DieDimensions::new(
            Centimeters::new(2.9).unwrap(),
            Centimeters::new(0.9).unwrap(),
        );
        assert_eq!(
            dies_per_wafer_best_orientation(&wafer, die),
            maly::dies_per_wafer_best_orientation(&wafer, die)
        );
    }

    #[test]
    fn edge_exclusion_changes_the_key() {
        // Same die, different usable radius: must not alias.
        let die = DieDimensions::square(Centimeters::new(1.0).unwrap());
        let full = dies_per_wafer(&Wafer::six_inch(), die);
        let excluded = dies_per_wafer(
            &Wafer::six_inch().edge_exclusion(Centimeters::new(0.5).unwrap()),
            die,
        );
        assert!(excluded < full);
    }

    #[test]
    fn nearby_but_distinct_dimensions_do_not_alias() {
        // 1 µm apart (1e-4 cm) is 100 000 quanta apart: distinct keys.
        let wafer = Wafer::six_inch();
        let a = DieDimensions::square(Centimeters::new(1.0).unwrap());
        let b = DieDimensions::square(Centimeters::new(1.0001).unwrap());
        assert_eq!(dies_per_wafer(&wafer, a), maly::dies_per_wafer(&wafer, a));
        assert_eq!(dies_per_wafer(&wafer, b), maly::dies_per_wafer(&wafer, b));
    }

    #[test]
    fn batch_matches_scalar_and_warms_the_cache() {
        let wafer = Wafer::six_inch();
        let dies: Vec<DieDimensions> = (1..30)
            .map(|i| DieDimensions::square(Centimeters::new(0.17 * f64::from(i)).unwrap()))
            .collect();
        let cold = dies_per_wafer_batch(&wafer, &dies);
        for (die, got) in dies.iter().zip(&cold) {
            assert_eq!(*got, maly::dies_per_wafer(&wafer, *die), "die {die:?}");
        }
        // Second pass must be pure hits and identical.
        let before = stats();
        let warm = dies_per_wafer_batch(&wafer, &dies);
        let after = stats();
        assert_eq!(cold, warm);
        assert!(after.hits >= before.hits + dies.len() as u64);
    }

    #[test]
    fn batch_and_scalar_share_the_memo() {
        let wafer = Wafer::six_inch();
        let die = DieDimensions::square(Centimeters::new(0.77).unwrap());
        let scalar = dies_per_wafer(&wafer, die);
        let batch = dies_per_wafer_batch(&wafer, &[die, die]);
        assert_eq!(batch, vec![scalar, scalar]);
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
                        assert_eq!(dies_per_wafer(&wafer, die).value(), *want);
                    }
                });
            }
        });
    }
}
