//! Deterministic data-parallel execution for the workspace's sweeps.
//!
//! Every design-space exploration in the paper — the Fig 8 cost surface
//! over `(λ × N_tr)`, the Scenario #1/#2 trend sweeps, the set-partition
//! search, and the fab-line Monte Carlo — is embarrassingly parallel:
//! grid cells and candidates are independent. This crate provides the
//! one sanctioned way to exploit that (a workspace lint forbids raw
//! `std::thread::spawn` elsewhere):
//!
//! [`Executor`], a scoped-thread pool-of-the-moment with chunked work
//! distribution ([`Executor::map`], [`Executor::map_indexed`],
//! [`Executor::grid`]). Reductions fold the index-ordered results on
//! the caller.
//!
//! # Determinism contract
//!
//! Results are **bit-identical** to the serial path at every thread
//! count: work items are pure functions of their index, outputs are
//! collected in index order, and reductions fold sequentially over that
//! order. The only thing threads change is wall-clock time. The
//! workspace's golden tests (`cost-optim/tests/determinism.rs`) enforce
//! this for the Fig 8 surface, contour extraction, and the partition
//! search.
//!
//! # Configuration
//!
//! `MALY_PAR_THREADS` sets the thread count (default: the machine's
//! available parallelism; `1` forces the serial fallback, which runs the
//! closures inline on the caller's stack with no thread machinery at
//! all). Code that needs a specific count regardless of the environment
//! — tests, benchmarks — uses [`Executor::with_threads`].
//!
//! # Overhead awareness
//!
//! Spawning a scoped thread costs real time (tens of microseconds), so
//! a parallel sweep over a small grid can be *slower* than the serial
//! loop. The grain policy therefore lives in one place,
//! [`Executor::map_indexed`], and every map and grid inherits
//! it — no call site passes a cost hint or can forget one:
//!
//! 1. the caller runs items inline from item 0 on for [`PROBE_NS`],
//!    timing them through [`maly_obs::now_ns`]; `n ×` their mean time
//!    is the map's serial estimate;
//! 2. estimates under [`SEQUENTIAL_CUTOFF_NS`] finish serially on the
//!    caller;
//! 3. otherwise at most `min(threads, cores, estimate ÷`
//!    [`MIN_PARALLEL_GRAIN_NS`]`)` threads, the caller among them,
//!    claim contiguous chunks of the remaining items until none are
//!    left, so the caller never idles in the scope and a helper that
//!    starts late takes less work;
//! 4. a map issued from inside a worker of another map runs inline, so
//!    nested sweeps never multiply threads past the cores;
//! 5. every parallel map compares its wall time with its serial
//!    estimate: a loss doubles the cutoff (up to 64×), a clear win
//!    halves it again. On a host whose cores do not really run side by
//!    side (a shared or throttled VM), fan-out then backs off to the
//!    maps big enough to pay.
//!
//! The policy only changes scheduling: results stay bit-identical at
//! every thread count. Services get their parallelism from
//! connections, so the serve layer evaluates every request on
//! [`Executor::serial`] and never reaches the policy at all.
//!
//! # Observability
//!
//! The executor reports its scheduling decisions through `maly-obs`
//! diagnostic counters (`par.serial_maps`, `par.parallel_maps`,
//! `par.chunks`, `par.lost`) and, when `MALY_OBS=1`, a `par.map` span
//! per parallel map with one `par.chunk` child span per worker thread
//! (fed into the `par.chunk_ns` histogram). Chunk spans carry the
//! submitting thread's span as an explicit parent, so a trace nests
//! worker time under the sweep that submitted it. These are diagnostics
//! — they vary with thread count and machine speed by design — and when
//! obs is disabled the whole layer costs a handful of atomics and a few
//! clock reads per *map call* (never per item).
//!
//! # Examples
//!
//! ```
//! use maly_par::Executor;
//!
//! let exec = Executor::with_threads(4);
//! let squares = exec.map_indexed(8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//!
//! // Ordered reduce: fold the results sequentially in index order with
//! // a strict `<`, so the first minimum wins exactly as in the serial
//! // loop (indices 3 and 7 both hold 0; index 3 is kept).
//! let values = exec.map_indexed(8, |i| (7 - i) % 4);
//! let mut best: Option<(usize, usize)> = None;
//! for (i, v) in values.into_iter().enumerate() {
//!     if best.is_none_or(|(_, b)| v < b) {
//!         best = Some((i, v));
//!     }
//! }
//! assert_eq!(best, Some((3, 0)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

/// Environment variable selecting the executor's thread count.
pub const THREADS_ENV_VAR: &str = "MALY_PAR_THREADS";

/// Maps that ran on the inline serial path (diagnostic: varies with
/// thread count and machine speed by design).
static PAR_SERIAL_MAPS: maly_obs::Counter = maly_obs::Counter::diag("par.serial_maps");
/// Maps that took the scoped-thread parallel path.
static PAR_PARALLEL_MAPS: maly_obs::Counter = maly_obs::Counter::diag("par.parallel_maps");
/// Chunks claimed across all parallel maps (by the caller or a
/// helper thread).
static PAR_CHUNKS: maly_obs::Counter = maly_obs::Counter::diag("par.chunks");
/// Parallel maps that ran slower than their serial estimate.
static PAR_LOST: maly_obs::Counter = maly_obs::Counter::diag("par.lost");
/// Per-worker wall-clock durations of parallel maps (recorded only
/// when obs is enabled).
static PAR_CHUNK_NS: maly_obs::Histogram = maly_obs::Histogram::new("par.chunk_ns");

/// Maps whose estimated serial cost falls below this run serial: a
/// scoped-thread spawn+join round trip costs tens of microseconds, so a
/// sub-200 µs map cannot recoup even one extra thread.
pub const SEQUENTIAL_CUTOFF_NS: f64 = 200_000.0;

/// Minimum estimated work per thread. Adding a thread that owns less
/// than ~100 µs of work loses more to spawn/join overhead and cache
/// cooling than it gains in concurrency.
pub const MIN_PARALLEL_GRAIN_NS: f64 = 100_000.0;

/// How long the inline prefix that prices a map runs: items execute on
/// the caller from item 0 on until they have taken this long (or the
/// map is done). An item that alone takes longer is the whole prefix;
/// cheap items are averaged, so one cold first item cannot price a
/// small map as a large one.
pub const PROBE_NS: u64 = 20_000;

/// Chunks per thread in a parallel map: threads claim chunks as they
/// free up, so uneven items still balance.
const CHUNKS_PER_THREAD: usize = 8;

/// Cap on [`BACKOFF`]: the cutoff never rises past 64× its base.
const MAX_BACKOFF: u32 = 6;

/// log₂ of the factor on [`SEQUENTIAL_CUTOFF_NS`]. Every parallel map
/// checks its wall time against its serial estimate: a loss (a shared
/// or throttled host whose cores do not really run side by side)
/// doubles the cutoff, a clear win halves it again.
static BACKOFF: AtomicU32 = AtomicU32::new(0);

/// The cutoff a map's estimate must reach to fan out right now.
fn cutoff_ns() -> f64 {
    SEQUENTIAL_CUTOFF_NS * f64::from(1u32 << BACKOFF.load(Ordering::SeqCst))
}

/// Feeds one parallel map's realized speedup (serial estimate over
/// wall time) back into [`BACKOFF`].
fn record_speedup(speedup: f64) {
    if speedup < 1.0 {
        PAR_LOST.incr();
    }
    let _ = BACKOFF.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |b| {
        if speedup < 1.0 {
            Some((b + 1).min(MAX_BACKOFF))
        } else if speedup >= 1.25 {
            b.checked_sub(1)
        } else {
            None
        }
    });
}

thread_local! {
    /// Set while this thread runs items of a map, so a map issued from
    /// inside one runs inline instead of multiplying threads.
    static IN_MAP: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Runs `f` as a map worker: maps it issues run inline. Restores the
/// previous state on exit, unwinding included.
fn as_worker<T>(f: impl FnOnce() -> T) -> T {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            IN_MAP.with(|flag| flag.set(self.0));
        }
    }
    let _restore = Restore(IN_MAP.with(|flag| flag.replace(true)));
    f()
}

/// The grain policy's clock: the probe and the fan-out feedback into
/// [`BACKOFF`] read time only through here. Under `cfg(test)` a
/// per-thread script of readings ([`SCRIPTED_NS`]) takes precedence, so
/// the policy's decisions can be tested without timing real work.
fn policy_now_ns() -> u64 {
    #[cfg(test)]
    if let Some(ns) = SCRIPTED_NS.with(|script| script.borrow_mut().pop_front()) {
        return ns;
    }
    maly_obs::now_ns()
}

#[cfg(test)]
thread_local! {
    /// Scripted [`policy_now_ns`] readings, consumed front first; once
    /// empty, the real clock answers.
    static SCRIPTED_NS: std::cell::RefCell<std::collections::VecDeque<u64>> =
        const { std::cell::RefCell::new(std::collections::VecDeque::new()) };
}

/// Runs items inline from item 0, doubling the batch between clock
/// reads, until they have taken [`PROBE_NS`] or all `n` are done.
/// Returns their results and mean time per item.
fn probe<R>(n: usize, f: &impl Fn(usize) -> R) -> (Vec<R>, f64) {
    let mut out = Vec::with_capacity(n);
    let start = policy_now_ns();
    let mut elapsed = 0;
    as_worker(|| {
        let mut batch = 1;
        while out.len() < n && elapsed < PROBE_NS {
            let end = n.min(out.len() + batch);
            out.extend((out.len()..end).map(f));
            elapsed = policy_now_ns().saturating_sub(start);
            batch *= 2;
        }
    });
    let per_item_ns = elapsed as f64 / out.len() as f64;
    (out, per_item_ns)
}

/// Resolves the thread count from [`THREADS_ENV_VAR`], falling back to
/// the machine's available parallelism. Unparsable or zero values fall
/// back too, so a broken environment can never disable the sweeps.
#[must_use]
pub fn threads_from_env() -> usize {
    match std::env::var(THREADS_ENV_VAR) {
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => default_parallelism(),
        },
        Err(_) => default_parallelism(),
    }
}

/// The machine's available parallelism (1 when it cannot be queried).
///
/// Queried once per process and cached: on Linux,
/// `std::thread::available_parallelism` re-reads cgroup quota files on
/// every call — about 10 µs, enough to visibly slow down the
/// sub-millisecond maps [`Executor::map_indexed`] caps by it.
#[must_use]
pub fn default_parallelism() -> usize {
    static CACHED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CACHED.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// A deterministic data-parallel executor over scoped threads.
///
/// Work is split into contiguous index chunks that threads claim in
/// turn; each chunk's results are put back at its index range, so they
/// come back in index order whichever thread ran them. With one thread
/// (or one item) everything runs inline, and [`Executor::map_indexed`]
/// decides per map whether the work is worth more threads at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    threads: usize,
}

impl Default for Executor {
    fn default() -> Self {
        Self::from_env()
    }
}

impl Executor {
    /// An executor sized by `MALY_PAR_THREADS` (default: available
    /// parallelism).
    #[must_use]
    pub fn from_env() -> Self {
        Self::with_threads(threads_from_env())
    }

    /// An executor with an explicit thread count (`0` is treated as 1).
    /// Thread counts above the machine's core count are legal — the
    /// determinism tests use them to exercise chunk boundaries.
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// The serial executor: every closure runs inline on the caller's
    /// stack.
    #[must_use]
    pub fn serial() -> Self {
        Self::with_threads(1)
    }

    /// The configured thread count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every index in `0..n`, returning results in index
    /// order. The parallel and serial paths produce identical vectors.
    ///
    /// Item 0 runs inline and prices the map: the caller keeps running
    /// items for [`PROBE_NS`], and `n ×` their mean time is the map's
    /// serial estimate. Under [`SEQUENTIAL_CUTOFF_NS`] (raised while
    /// fan-out keeps losing on this machine) the rest runs serially
    /// too; otherwise at most `min(threads, cores, estimate ÷`
    /// [`MIN_PARALLEL_GRAIN_NS`]`)` threads, the caller among them,
    /// claim contiguous chunks of the rest until none are left. A map
    /// issued from inside a worker of another map runs inline.
    pub fn map_indexed<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let cap = self.threads.min(default_parallelism());
        if cap <= 1 || n <= 1 || IN_MAP.with(std::cell::Cell::get) {
            PAR_SERIAL_MAPS.incr();
            return (0..n).map(f).collect();
        }
        let (mut out, per_item_ns) = probe(n, &f);
        let probed = out.len();
        let rest = n - probed;
        let estimate_ns = per_item_ns * n as f64;
        // A lone remaining item goes to the caller, which claims first.
        let threads = cap
            .min((estimate_ns / MIN_PARALLEL_GRAIN_NS) as usize)
            .min(rest);
        if threads <= 1 || estimate_ns < cutoff_ns() {
            PAR_SERIAL_MAPS.incr();
            out.extend((probed..n).map(f));
            return out;
        }
        PAR_PARALLEL_MAPS.incr();
        let chunk = rest.div_ceil(threads * CHUNKS_PER_THREAD);
        let chunks = rest.div_ceil(chunk);
        PAR_CHUNKS.add(chunks as u64);
        // The map span lives on the submitting thread; each worker opens
        // a child span with it as an explicit parent, so the trace tree
        // nests cross-thread work under the sweep that submitted it.
        let map_span = maly_obs::span("par.map");
        let parent = map_span.id();
        let next = AtomicUsize::new(0);
        let work = || {
            let _span = maly_obs::span_child("par.chunk", parent).with_histogram(&PAR_CHUNK_NS);
            as_worker(|| {
                let mut done: Vec<(usize, Vec<R>)> = Vec::new();
                loop {
                    let c = next.fetch_add(1, Ordering::SeqCst);
                    if c >= chunks {
                        return done;
                    }
                    let lo = probed + c * chunk;
                    done.push((lo, (lo..n.min(lo + chunk)).map(&f).collect()));
                }
            })
        };
        let start = policy_now_ns();
        let mut parts = std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
            let mut parts = work();
            for helper in helpers {
                match helper.join() {
                    Ok(done) => parts.extend(done),
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
            parts
        });
        let wall_ns = policy_now_ns().saturating_sub(start).max(1);
        record_speedup(per_item_ns * rest as f64 / wall_ns as f64);
        parts.sort_unstable_by_key(|(lo, _)| *lo);
        for (_, values) in parts {
            out.extend(values);
        }
        assert_eq!(out.len(), n, "executor lost results");
        out
    }

    /// Applies `f` to every element of `items`, preserving order.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.map_indexed(items.len(), |i| f(&items[i]))
    }

    /// Evaluates `f(row, col)` over a `rows × cols` grid, returning
    /// `out[row][col]`. The grid is flattened into row-major tiles and
    /// chunked across threads, so long and skinny grids still balance.
    pub fn grid<R, F>(&self, rows: usize, cols: usize, f: F) -> Vec<Vec<R>>
    where
        R: Send,
        F: Fn(usize, usize) -> R + Sync,
    {
        if rows == 0 || cols == 0 {
            return (0..rows).map(|_| Vec::new()).collect();
        }
        let flat = self.map_indexed(rows * cols, |id| f(id / cols, id % cols));
        let mut out: Vec<Vec<R>> = Vec::with_capacity(rows);
        let mut it = flat.into_iter();
        for _ in 0..rows {
            out.push(it.by_ref().take(cols).collect());
        }
        out
    }

    /// Runs `f(worker_index)` on `threads()` long-lived workers and
    /// blocks until every worker returns. Worker 0 runs inline on the
    /// caller's stack; workers `1..threads()` run on scoped threads.
    ///
    /// This is the sanctioned way for long-running services (the serve
    /// layer's connection workers) to hold threads: the workspace lint
    /// forbids raw `std::thread::spawn` outside this crate, and scoped
    /// workers cannot leak past their caller. Unlike the map family
    /// this makes no determinism promise — workers coordinate through
    /// whatever shared state the caller gives them — but it also does
    /// no scheduling of its own, so it cannot introduce divergence
    /// either.
    pub fn run_workers<F>(&self, f: F)
    where
        F: Fn(usize) + Sync,
    {
        if self.threads <= 1 {
            f(0);
            return;
        }
        std::thread::scope(|scope| {
            let f = &f;
            for worker in 1..self.threads {
                scope.spawn(move || f(worker));
            }
            f(0);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Serializes the tests of this module: several read the
    /// process-global scheduling counters, and concurrent maps from
    /// other tests would move them.
    fn hold() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        let guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        BACKOFF.store(0, Ordering::SeqCst);
        guard
    }

    /// Item 0 costs `PRICEY` of sleep, so `n × t₀` clears the
    /// sequential cutoff for every `n ≥ 1` while the other items stay
    /// cheap: the parallel path runs without a slow test.
    const PRICEY: std::time::Duration = std::time::Duration::from_micros(300);

    fn pricey_first(i: usize) -> u64 {
        if i == 0 {
            std::thread::sleep(PRICEY);
        }
        (i as u64).wrapping_mul(2654435761)
    }

    fn thread_tag() -> String {
        format!("{:?}", std::thread::current().id())
    }

    fn multi_core() -> bool {
        default_parallelism() >= 2
    }

    #[test]
    fn map_indexed_matches_serial_at_every_thread_count() {
        let _guard = hold();
        let reference: Vec<u64> = (0..97)
            .map(|i| (i as u64).wrapping_mul(2654435761))
            .collect();
        for threads in [1, 2, 3, 4, 8, 16, 97, 200] {
            let exec = Executor::with_threads(threads);
            let got = exec.map_indexed(97, |i| (i as u64).wrapping_mul(2654435761));
            assert_eq!(got, reference, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_path_matches_serial_for_every_size() {
        let _guard = hold();
        for n in [0usize, 1, 2, 7, 97, 10_007] {
            let reference: Vec<u64> = (0..n)
                .map(|i| (i as u64).wrapping_mul(2654435761))
                .collect();
            for threads in [1, 2, 8] {
                let parallel0 = PAR_PARALLEL_MAPS.value();
                let got = Executor::with_threads(threads).map_indexed(n, pricey_first);
                assert_eq!(got, reference, "n = {n}, threads = {threads}");
                let fanned = PAR_PARALLEL_MAPS.value() - parallel0;
                // Item 0 prices the map; fan-out needs two items left.
                let expect = u64::from(threads >= 2 && n >= 3 && multi_core());
                assert_eq!(fanned, expect, "n = {n}, threads = {threads}");
            }
        }
    }

    #[test]
    fn a_map_below_the_cutoff_spawns_no_chunks() {
        let _guard = hold();
        let caller = std::thread::current().id();
        let chunks0 = PAR_CHUNKS.value();
        let parallel0 = PAR_PARALLEL_MAPS.value();
        // 16 items of 100 ns each, scripted so a preempted probe cannot
        // price them past the cutoff: the probe runs them all in
        // batches of 1, 2, 4, 8 and 1, reading the clock after each. A
        // single core takes the serial path without reading it.
        let readings: &[u64] = if multi_core() {
            &[0, 100, 300, 700, 1_500, 1_600]
        } else {
            &[]
        };
        let seen = scripted(readings, || {
            Executor::with_threads(8).map_indexed(16, |_| std::thread::current().id())
        });
        assert!(seen.iter().all(|id| *id == caller));
        assert_eq!(PAR_CHUNKS.value() - chunks0, 0);
        assert_eq!(PAR_PARALLEL_MAPS.value() - parallel0, 0);
    }

    #[test]
    fn a_priced_map_uses_at_most_the_cores_and_the_caller_starts_it() {
        let _guard = hold();
        let caller = thread_tag();
        let chunks0 = PAR_CHUNKS.value();
        let seen = Executor::with_threads(512).map_indexed(64, |i| {
            let us = if i == 0 { 300 } else { 50 };
            std::thread::sleep(std::time::Duration::from_micros(us));
            thread_tag()
        });
        assert_eq!(seen[0], caller, "item 0 prices the map on the caller");
        let mut distinct = seen.clone();
        distinct.sort();
        distinct.dedup();
        assert!(
            distinct.len() <= default_parallelism(),
            "{} threads on {} cores",
            distinct.len(),
            default_parallelism()
        );
        let chunks = PAR_CHUNKS.value() - chunks0;
        if multi_core() {
            // 63 items after the probe, 8 chunks per thread.
            let threads = default_parallelism().min(512);
            assert_eq!(chunks, 63u64.div_ceil(63u64.div_ceil(threads as u64 * 8)));
        } else {
            assert_eq!(chunks, 0);
        }
    }

    /// Queues `readings` for this thread's [`policy_now_ns`], runs `f`,
    /// and checks the policy consumed exactly those readings.
    fn scripted<T>(readings: &[u64], f: impl FnOnce() -> T) -> T {
        SCRIPTED_NS.with(|script| script.borrow_mut().extend(readings));
        let out = f();
        let left = SCRIPTED_NS.with(|script| script.borrow_mut().drain(..).count());
        assert_eq!(
            left, 0,
            "the policy read {left} fewer clock values than scripted"
        );
        out
    }

    #[test]
    fn the_probe_averages_cheap_items_and_stops_at_an_expensive_one() {
        let _guard = hold();
        // Cheap items at 10 ns each: batches of 1, 2, 4, … items end at
        // 10·(2^k − 1) ns, and the probe runs far past item 0 until the
        // 2047th item takes it over PROBE_NS.
        let readings: Vec<u64> = std::iter::once(0)
            .chain((1..=11).map(|k| 10 * ((1 << k) - 1)))
            .collect();
        let (done, per_item) = scripted(&readings, || probe(100_000, &|i| i));
        assert!(done.len() > 1 && done.len() < 100_000, "{}", done.len());
        assert_eq!(done.len(), 2047);
        assert!(per_item < PROBE_NS as f64);
        assert_eq!(per_item, 10.0);
        // One item over the probe budget is the whole probe.
        let (done, per_item) = scripted(&[0, 100_000], || probe(8, &|i| i));
        assert_eq!(done, vec![0]);
        assert!(per_item >= 100_000.0);
    }

    #[test]
    fn the_real_clock_stops_the_probe_at_an_expensive_item() {
        let _guard = hold();
        let (done, per_item) = probe(8, &|i| {
            std::thread::sleep(std::time::Duration::from_micros(100));
            i
        });
        assert_eq!(done, vec![0]);
        assert!(per_item >= 100_000.0);
    }

    #[test]
    fn losing_fan_outs_raise_the_cutoff_and_wins_lower_it() {
        let _guard = hold();
        if !multi_core() {
            return; // one core never fans out, so nothing is measured
        }
        let exec = Executor::with_threads(2);
        let lost0 = PAR_LOST.value();
        // Item 0 takes 300 µs and prices the map at 4 × 300 µs, but the
        // fan-out over the other three takes 3 ms of wall time: far
        // slower than estimated.
        scripted(&[0, 300_000, 300_000, 3_300_000], || {
            exec.map_indexed(4, |_| ())
        });
        assert_eq!(PAR_LOST.value() - lost0, 1);
        assert_eq!(BACKOFF.load(Ordering::SeqCst), 1);
        // A map priced between the base cutoff and the raised one now
        // stays serial: 3 × 90 µs.
        let parallel0 = PAR_PARALLEL_MAPS.value();
        assert_eq!(cutoff_ns(), 2.0 * SEQUENTIAL_CUTOFF_NS);
        scripted(&[0, 90_000], || exec.map_indexed(3, |_| ()));
        assert_eq!(PAR_PARALLEL_MAPS.value(), parallel0);
        // A clear win lowers it again: 32 items of 400 µs, the 31 after
        // the probe overlapping on two threads in 6.2 ms.
        scripted(&[0, 400_000, 400_000, 6_600_000], || {
            exec.map_indexed(32, |_| ())
        });
        assert_eq!(PAR_PARALLEL_MAPS.value() - parallel0, 1);
        assert_eq!(BACKOFF.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn a_nested_map_runs_inline() {
        let _guard = hold();
        let parallel0 = PAR_PARALLEL_MAPS.value();
        let exec = Executor::with_threads(8);
        // Both levels are priced over the cutoff, but only the outer
        // map may fan out: each inner map stays on its item's thread.
        let outer = exec.map_indexed(4, |i| {
            pricey_first(i);
            let here = thread_tag();
            let inner = exec.map_indexed(4, |j| {
                pricey_first(j);
                thread_tag()
            });
            inner.iter().all(|id| *id == here)
        });
        assert_eq!(outer, vec![true; 4]);
        let fanned = PAR_PARALLEL_MAPS.value() - parallel0;
        assert_eq!(fanned, u64::from(multi_core()));
        // The flag is scoped: a map after the nested one may fan out
        // again.
        let parallel1 = PAR_PARALLEL_MAPS.value();
        exec.map_indexed(4, pricey_first);
        assert_eq!(
            PAR_PARALLEL_MAPS.value() - parallel1,
            u64::from(multi_core())
        );
    }

    #[test]
    fn errors_surface_in_first_canonical_index_order() {
        let _guard = hold();
        // Errors sit in the caller's chunk (3) and in later chunks
        // (600, 900): the serial loop meets index 3 first, and so must
        // every thread count.
        let check = |i: usize| -> Result<usize, usize> {
            pricey_first(i);
            if [3, 600, 900].contains(&i) {
                Err(i)
            } else {
                Ok(i)
            }
        };
        for threads in [1, 2, 8] {
            let exec = Executor::with_threads(threads);
            let got: Result<Vec<usize>, usize> =
                exec.map_indexed(1000, check).into_iter().collect();
            assert_eq!(got, Err(3), "threads = {threads}");
            // Errors only in a later chunk still come back lowest first.
            let late: Result<Vec<usize>, usize> = exec
                .map_indexed(1000, |i| {
                    check(i).or_else(|e| if e == 3 { Ok(e) } else { Err(e) })
                })
                .into_iter()
                .collect();
            assert_eq!(late, Err(600), "threads = {threads}");
        }
    }

    #[test]
    fn map_preserves_element_order() {
        let _guard = hold();
        let items: Vec<i32> = (0..50).map(|i| i * 3).collect();
        let exec = Executor::with_threads(7);
        assert_eq!(
            exec.map(&items, |&v| v + 1),
            (0..50).map(|i| i * 3 + 1).collect::<Vec<_>>()
        );
    }

    #[test]
    fn grid_is_row_major_and_exact() {
        let _guard = hold();
        for threads in [1, 3, 8] {
            let exec = Executor::with_threads(threads);
            let g = exec.grid(5, 7, |r, c| {
                pricey_first(r * 7 + c);
                (r, c)
            });
            assert_eq!(g.len(), 5);
            for (r, row) in g.iter().enumerate() {
                assert_eq!(row.len(), 7);
                for (c, cell) in row.iter().enumerate() {
                    assert_eq!(*cell, (r, c));
                }
            }
        }
    }

    #[test]
    fn grid_handles_empty_dimensions() {
        let _guard = hold();
        let exec = Executor::with_threads(4);
        assert_eq!(exec.grid(0, 5, |_, _| 0), Vec::<Vec<i32>>::new());
        let empty_rows = exec.grid(3, 0, |_, _| 0);
        assert_eq!(empty_rows.len(), 3);
        assert!(empty_rows.iter().all(Vec::is_empty));
    }

    #[test]
    fn ordered_fold_keeps_the_earliest_minimum() {
        let _guard = hold();
        // Values with duplicates: index 2 and 5 both hold the minimum 1;
        // a serial strict-< scan keeps index 2. A strict-< fold over the
        // index-ordered map must agree at every thread count.
        let values = [4usize, 3, 1, 3, 2, 1, 4];
        for threads in [1, 2, 8] {
            let exec = Executor::with_threads(threads);
            let mapped = exec.map_indexed(values.len(), |i| {
                pricey_first(i);
                (i, values[i])
            });
            let best = mapped
                .into_iter()
                .fold(None, |best: Option<(usize, usize)>, (i, v)| match best {
                    Some((_, bv)) if bv <= v => best,
                    _ => Some((i, v)),
                });
            assert_eq!(best, Some((2, 1)), "threads = {threads}");
        }
    }

    #[test]
    fn threads_are_actually_used_when_the_map_is_worth_it() {
        let _guard = hold();
        // 64 items of 200 µs each: 12.8 ms of work, so a multi-core
        // host must put at least 2 distinct threads on it.
        let exec = Executor::with_threads(4);
        let ids = exec.map_indexed(64, |_| {
            std::thread::sleep(std::time::Duration::from_micros(200));
            thread_tag()
        });
        let mut distinct: Vec<&String> = ids.iter().collect();
        distinct.sort();
        distinct.dedup();
        let want = if multi_core() { 2 } else { 1 };
        assert!(
            distinct.len() >= want,
            "saw {} distinct threads",
            distinct.len()
        );
    }

    #[test]
    fn serial_executor_runs_inline() {
        let _guard = hold();
        // The serial path must not spawn: the closure sees the caller's
        // thread id.
        let caller = thread_tag();
        let exec = Executor::serial();
        let seen = exec.map_indexed(4, |i| {
            pricey_first(i);
            thread_tag()
        });
        assert!(seen.iter().all(|id| *id == caller));
    }

    #[test]
    fn closure_runs_exactly_once_per_index() {
        let _guard = hold();
        let calls = AtomicUsize::new(0);
        let exec = Executor::with_threads(6);
        let out = exec.map_indexed(100, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            pricey_first(i);
            i
        });
        assert_eq!(out, (0..100).collect::<Vec<_>>());
        assert_eq!(calls.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn env_var_controls_from_env() {
        let _guard = hold();
        // Single test owning the env var (other tests use with_threads
        // to avoid process-global races).
        std::env::set_var(THREADS_ENV_VAR, "3");
        assert_eq!(Executor::from_env().threads(), 3);
        std::env::set_var(THREADS_ENV_VAR, "0");
        assert_eq!(Executor::from_env().threads(), default_parallelism());
        std::env::set_var(THREADS_ENV_VAR, "not-a-number");
        assert_eq!(Executor::from_env().threads(), default_parallelism());
        std::env::remove_var(THREADS_ENV_VAR);
        assert_eq!(Executor::from_env().threads(), default_parallelism());
    }

    #[test]
    fn run_workers_runs_every_index_and_worker_zero_inline() {
        let _guard = hold();
        let caller = thread_tag();
        let seen: Vec<std::sync::Mutex<Option<String>>> =
            (0..4).map(|_| std::sync::Mutex::new(None)).collect();
        Executor::with_threads(4).run_workers(|w| {
            *seen[w].lock().unwrap() = Some(thread_tag());
        });
        let ids: Vec<String> = seen
            .iter()
            .map(|m| m.lock().unwrap().clone().expect("every worker ran"))
            .collect();
        assert_eq!(ids[0], caller, "worker 0 runs on the caller");
        assert!(ids[1..].iter().all(|id| *id != caller));
    }
}
