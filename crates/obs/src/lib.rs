//! Std-only structured observability for the workspace's hot paths.
//!
//! Every sweep and simulation in this workspace is deterministic and
//! CPU-bound; what varies between machines, thread counts, and PRs is
//! *how much work* ran and *where the time went*. This crate makes both
//! first-class, without adding a dependency:
//!
//! * [`span`] / [`span_child`] — hierarchical, monotonic-clock-timed
//!   spans. Spans are thread-aware: a worker chunk spawned by
//!   `maly-par` opens its span with the submitting thread's span as an
//!   explicit parent, so the trace tree nests `par.chunk` under the
//!   sweep that submitted it even though they ran on different threads.
//! * [`Counter`] — sharded relaxed-atomic event counters, declared as
//!   `static`s at the instrumentation site and lazily registered into a
//!   process-wide registry for snapshotting.
//! * [`Gauge`] — sharded signed level gauges (queue depths, in-flight
//!   requests); always diagnostic, never golden-compared.
//! * [`Histogram`] — fixed-bucket log-scale duration histograms, at
//!   log₂ ([`Histogram::new`]) or quarter-octave resolution
//!   ([`Histogram::high_resolution`], for sub-millisecond request
//!   timing); [`HistogramSnapshot::percentile_ns`] interpolates
//!   p50/p90/p99/p999 latencies from the buckets.
//! * [`export_ndjson`] / [`write_trace`] — an ndjson exporter (one JSON
//!   object per line: spans in completion order, then counters, gauges,
//!   and histograms, each sorted by name).
//!
//! # Disabled-cost contract
//!
//! Observability is off by default. When disabled, a span probe costs
//! one relaxed atomic load and returns a no-op guard — no clock read,
//! no allocation, no lock. Counters always count (they are the backing
//! store for public stats accessors like `wafer_geom::cache::stats`,
//! which must work without `MALY_OBS`); an increment is one relaxed
//! load plus one relaxed `fetch_add` on a per-thread shard, exactly the
//! cost of the bespoke atomics they replaced. The bench suite's
//! `obs_overhead` test pins the end-to-end cost on a sweep hot path to
//! ≤ 1 %.
//!
//! # Determinism contract
//!
//! Instrumentation never feeds back into results: golden tests pass
//! bit-identical with `MALY_OBS=1` at every thread count. Counters are
//! split into two kinds:
//!
//! * [`CounterKind::Work`] — counts model work (grid cells evaluated,
//!   MC replications, …). Totals are **thread-count-invariant** because
//!   the executor's work distribution is deterministic; the exported
//!   snapshot is sorted by name, so the whole work-counter section of a
//!   trace is reproducible.
//! * [`CounterKind::Diag`] — scheduling and caching diagnostics (chunk
//!   counts, cache hits). These legitimately vary with thread count and
//!   timing; they are exported for humans, not for golden comparisons.
//!
//! Gauges and histograms are always on the Diag side of this split:
//! levels and latencies are wall-clock state, so they are exported (and
//! served via `server_stats`) for humans and load generators, never
//! golden-compared.
//!
//! # Activation
//!
//! * `MALY_OBS=1` enables span collection;
//! * `MALY_OBS_OUT=<path>` enables collection *and* makes the workspace
//!   binaries write an ndjson trace there on exit
//!   ([`write_trace_if_requested`]);
//! * the CLI's `--trace-out <path>` flag does both for a single run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod metrics;
mod span;

pub use export::{export_ndjson, write_trace, write_trace_if_requested};
pub use metrics::{
    counters_snapshot, gauges_snapshot, histograms_snapshot, reset_metrics, Counter, CounterKind,
    CounterSnapshot, Gauge, GaugeSnapshot, HistResolution, Histogram, HistogramSnapshot,
    LatencyPercentiles, HIRES_HIST_BUCKETS, HIST_BUCKETS,
};
pub use span::{
    current_span, finished_spans, reset_spans, span, span_child, SpanGuard, SpanRecord,
};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Environment variable enabling span collection (`1`/`true`).
pub const OBS_ENV_VAR: &str = "MALY_OBS";

/// Environment variable naming the ndjson trace output path. Setting it
/// implies [`OBS_ENV_VAR`].
pub const OBS_OUT_ENV_VAR: &str = "MALY_OBS_OUT";

/// Tri-state enabled flag: 0 = unresolved, 1 = off, 2 = on. Steady
/// state is a single relaxed load; the environment is consulted once.
static STATE: AtomicU8 = AtomicU8::new(0);

/// Whether span collection is enabled. One relaxed atomic load in the
/// steady state — this is the probe every instrumentation site gates on.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        0 => resolve_from_env(),
        s => s == 2,
    }
}

/// Cold path of [`enabled`]: resolve the flag from the environment.
fn resolve_from_env() -> bool {
    let truthy = |v: std::result::Result<String, std::env::VarError>| {
        v.map(|s| {
            let t = s.trim();
            !t.is_empty() && t != "0" && !t.eq_ignore_ascii_case("false")
        })
        .unwrap_or(false)
    };
    let on = truthy(std::env::var(OBS_ENV_VAR))
        || std::env::var(OBS_OUT_ENV_VAR).map(|s| !s.trim().is_empty()) == Ok(true);
    // A concurrent set_enabled wins: only fill in the unresolved slot.
    let _ = STATE.compare_exchange(
        0,
        if on { 2 } else { 1 },
        Ordering::Relaxed,
        Ordering::Relaxed,
    );
    STATE.load(Ordering::Relaxed) == 2
}

/// Force the enabled flag, overriding the environment. Used by the CLI
/// `--trace-out` flag and by tests that must own the process-global
/// state regardless of how the suite was invoked.
pub fn set_enabled(on: bool) {
    STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Nanoseconds since the process-wide monotonic epoch (the first call
/// into the clock). All span timestamps share this origin, so traces
/// from one process are directly comparable across threads.
///
/// This is the workspace's one clock outside the measurement harnesses:
/// code that must time something to make a decision (the `maly-par`
/// executor pricing a map by its first item) reads it here instead of
/// calling `Instant::now()` itself.
#[must_use]
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Reset all observability state: counters, histograms, and recorded
/// spans. For tests and controlled bench sections; concurrent probes
/// during a reset are not lost, merely split across the boundary.
pub fn reset_all() {
    reset_metrics();
    reset_spans();
}

#[cfg(test)]
pub(crate) mod test_lock {
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Serializes tests that toggle the process-global enabled flag or
    /// reset the registry, so parallel test threads cannot interleave.
    static LOCK: Mutex<()> = Mutex::new(());

    pub fn hold() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_is_sticky_after_set() {
        let _guard = test_lock::hold();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }

    #[test]
    fn clock_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
