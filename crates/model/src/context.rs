//! The long-lived evaluation context shared by every query.
//!
//! Several consumers — the repro harness, the CLI, and now the serve
//! layer — need the same derived artifacts: the tech-trend fits
//! (Figs 1–4), the Table 3 row set, the calendar roadmap, and the Fig 8
//! cost surface, by far the most expensive single object the workspace
//! builds. [`shared`] derives them exactly once per process behind a
//! `OnceLock` (this context started life in `maly-repro`, which now
//! re-exports it).
//!
//! On top of the static artifacts, [`EvalContext`] owns a bounded cache
//! of *surface tiles*, keyed by the exact bits of each request's window
//! and step counts: one key is one window, so a cached body is only
//! ever served for the request it was written for. An entry is the
//! tile's serialized `ok` body ([`SurfaceBody`]), written straight from
//! the grid once, when the tile enters the cache; the grid is then
//! dropped. A repeated `surface_tile` query for the same window answers
//! with a reference-count bump — no grid cell re-evaluated, no number
//! re-formatted — and the response splices the body into its envelope
//! through [`crate::json::Json::Raw`].
//!
//! The cache is a plain store: a lookup counts nothing, and an insert
//! counts only the evictions it makes. [`crate::plan`] resolves every
//! tile — a single query's or a whole batch's — and keeps the
//! `model.tile_{hits,misses,cells}` ledger; the warm-cache integration
//! test asserts `model.tile_cells` does not move on a repeat query.
//!
//! A full cache makes room one tile at a time: the new tile overwrites
//! one slot, picked by the context's own SplitMix64 sequence. Clients
//! sweep sliding windows cyclically, and on a cyclic scan longer than
//! the cache LRU, FIFO and CLOCK replacement all miss every time; a
//! random victim keeps part of the cycle warm. The sequence advances
//! once per eviction, so the victims depend only on the order tiles
//! enter the cache, and a hit stays a read-locked lookup with no
//! bookkeeping.

use std::collections::HashMap;
use std::sync::{OnceLock, RwLock};

use maly_cost_model::roadmap::CostRoadmap;
use maly_cost_model::surface::{CostSurface, SurfaceParameters};
use maly_paper_data::table3::{self, Table3Row};
use maly_tech_trend::diesize::DieSizeTrend;
use maly_tech_trend::fit::{CostEscalationFit, ExponentialFit};
use maly_tech_trend::{datasets, fit};
use maly_yield_model::prng::{SplitMix64, UniformSource};

use crate::query::SurfaceBody;

/// The Fig 8 grid the reports render: `(λ min, λ max, steps)`.
pub const FIG8_LAMBDA_RANGE: (f64, f64, usize) = (0.4, 1.5, 56);
/// The Fig 8 grid the reports render: `(N_tr min, N_tr max, steps)`.
pub const FIG8_N_TR_RANGE: (f64, f64, usize) = (2.0e4, 4.0e6, 48);

/// Grid cells of the surface tiles that missed, each tile's full count
/// (counted in [`crate::plan`]). A thread-count-invariant work counter:
/// the warm-cache test asserts a repeat query adds exactly zero here.
pub static TILE_CELLS: maly_obs::Counter = maly_obs::Counter::work("model.tile_cells");
/// Queries answered, one per query of a single line or a batch.
pub static QUERIES: maly_obs::Counter = maly_obs::Counter::work("model.queries");
/// Tile queries answered without pricing their tile: from the cache, or
/// from a tile resolved earlier in the same batch (diagnostic: depends
/// on request history). Counted in [`crate::plan`].
pub static TILE_HITS: maly_obs::Counter = maly_obs::Counter::diag("model.tile_hits");
/// Tile queries whose tile was priced for them, one per cold key
/// (diagnostic). Counted in [`crate::plan`].
pub static TILE_MISSES: maly_obs::Counter = maly_obs::Counter::diag("model.tile_misses");
/// Tile bodies dropped to make room in a full cache, one per eviction
/// (diagnostic). Registered when a context is built, so `server_stats`
/// reports it, zero or not, next to the hits and misses.
pub static TILE_EVICTIONS: maly_obs::Counter = maly_obs::Counter::diag("model.tile_evictions");
/// Per-query evaluation latency, attached to the `model.query` span.
pub static EVAL_NS: maly_obs::Histogram = maly_obs::Histogram::new("model.eval_ns");
/// Whole-batch latency (pricing the cold tiles, every query's
/// evaluation and the cold tiles' cache inserts), attached to the
/// `model.plan` span.
pub static PLAN_NS: maly_obs::Histogram = maly_obs::Histogram::new("model.plan_ns");
/// Writing one cold tile into its cached body, attached to the
/// `model.tile_serialize` span (nested in the span of the query or
/// batch that missed).
pub static TILE_SERIALIZE_NS: maly_obs::Histogram =
    maly_obs::Histogram::new("model.tile_serialize_ns");
/// Bytes of serialized tile bodies held by every live [`EvalContext`]
/// (diagnostic: depends on request history).
pub static TILE_CACHE_BYTES: maly_obs::Gauge = maly_obs::Gauge::new("model.tile_cache_bytes");

/// Every artifact derived once and shared by the experiments.
#[derive(Debug)]
pub struct SharedContext {
    /// Fig 1: exponential fit of feature size vs year.
    pub feature_trend: ExponentialFit,
    /// Fig 2a: exponential fit of fab cost vs year.
    pub fab_cost_trend: ExponentialFit,
    /// Fig 2b: the wafer-cost escalation factor `X` and `C₀`.
    pub wafer_cost_escalation: CostEscalationFit,
    /// Fig 3: `A_ch(λ)` re-fit from the die-size-by-node dataset.
    pub die_size_fit: DieSizeTrend,
    /// Fig 3/4: the paper's printed `16.5·e^{−5.3λ}` coefficients.
    pub die_size_paper: DieSizeTrend,
    /// Roadmap experiment: the two-scenario calendar projection.
    pub roadmap: CostRoadmap,
    /// Table 3 + ablation: all printed rows.
    pub table3_rows: Vec<Table3Row>,
    /// Fig 8: the paper's fab calibration.
    pub fig8_params: SurfaceParameters,
    /// Fig 8: the full cost surface on the report grid.
    pub fig8_surface: CostSurface,
}

/// The process-wide context, built on first use.
///
/// # Panics
///
/// Panics if a built-in dataset fails to fit — impossible for the
/// checked-in data, and a reproduction without its calibration cannot
/// report anything anyway.
#[must_use]
pub fn shared() -> &'static SharedContext {
    static CONTEXT: OnceLock<SharedContext> = OnceLock::new();
    CONTEXT.get_or_init(|| {
        let fig8_params = SurfaceParameters::fig8();
        SharedContext {
            // Checked-in datasets are positive by construction; a
            // context without its calibration cannot answer anything
            // anyway, so these expects fire only on a broken build.
            feature_trend: fit::fit_exponential(datasets::FEATURE_SIZE_BY_YEAR)
                // audit:allow(panic): built-in dataset is positive.
                .expect("dataset is positive"),
            fab_cost_trend: fit::fit_exponential(datasets::FAB_COST_BY_YEAR)
                // audit:allow(panic): built-in dataset is positive.
                .expect("dataset is positive"),
            wafer_cost_escalation: fit::extract_cost_escalation(datasets::WAFER_COST_BY_GENERATION)
                // audit:allow(panic): built-in dataset is positive.
                .expect("dataset is positive"),
            die_size_fit: DieSizeTrend::fit(datasets::DIE_SIZE_BY_GENERATION)
                // audit:allow(panic): built-in dataset is positive.
                .expect("dataset is positive"),
            die_size_paper: DieSizeTrend::paper_fit(),
            // audit:allow(panic): built-in datasets are valid.
            roadmap: CostRoadmap::paper_default().expect("built-in datasets are valid"),
            table3_rows: table3::rows(),
            fig8_surface: CostSurface::compute(&fig8_params, FIG8_LAMBDA_RANGE, FIG8_N_TR_RANGE),
            fig8_params,
        }
    })
}

/// Cache key for a surface tile: the exact bits of its four window
/// endpoints and its two step counts, so one key is one window. Two
/// requests that differ only in float noise are two windows, each
/// cached under its own key with its own bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct TileKey {
    bounds: [u64; 4],
    steps: [usize; 2],
}

impl TileKey {
    pub(crate) fn exact(lambda_range: (f64, f64, usize), n_tr_range: (f64, f64, usize)) -> Self {
        Self {
            bounds: [
                lambda_range.0.to_bits(),
                lambda_range.1.to_bits(),
                n_tr_range.0.to_bits(),
                n_tr_range.1.to_bits(),
            ],
            steps: [lambda_range.2, n_tr_range.2],
        }
    }
}

/// Most tiles a server keeps warm; one more evicts one. An entry is
/// the tile's serialized body, ~23 B per cell: 64 KiB for the 56×48
/// Fig 8 report tile, 4–15 KiB for 12–24-step windows, ~6 MiB for a
/// 512×512 tile at `MAX_TILE_STEPS`. The 16 B-per-cell grid a body came
/// from is not kept, so every hit is a reference-count bump and one
/// copy.
const TILE_CACHE_CAPACITY: usize = 64;

/// The tile bodies behind [`EvalContext`]'s lock, with the slots random
/// replacement picks its victims from.
#[derive(Debug)]
struct TileCache {
    bodies: HashMap<TileKey, SurfaceBody>,
    /// The key each slot holds, in insertion order until the cache
    /// fills; then a new tile overwrites the slot of its victim.
    slots: Vec<TileKey>,
    /// Picks the victim slot, one draw per eviction.
    victims: SplitMix64,
}

impl TileCache {
    fn new() -> Self {
        Self {
            bodies: HashMap::with_capacity(TILE_CACHE_CAPACITY),
            slots: Vec::with_capacity(TILE_CACHE_CAPACITY),
            victims: SplitMix64::new(0),
        }
    }

    /// Caches `body` under `key`, evicting one body if the cache is
    /// full, and returns the change in bytes held.
    fn insert(&mut self, key: TileKey, body: SurfaceBody) -> i64 {
        let mut delta = body_len(&body);
        if let Some(held) = self.bodies.get_mut(&key) {
            // Two threads that miss the same key both insert; the
            // bodies are equal, and the second replaces the first in
            // place without evicting anything.
            delta -= body_len(held);
            *held = body;
            return delta;
        }
        if self.slots.len() < TILE_CACHE_CAPACITY {
            self.slots.push(key);
        } else {
            let slot = (self.victims.next_u64() % TILE_CACHE_CAPACITY as u64) as usize;
            let victim = std::mem::replace(&mut self.slots[slot], key);
            if let Some(old) = self.bodies.remove(&victim) {
                delta -= body_len(&old);
            }
            TILE_EVICTIONS.incr();
        }
        self.bodies.insert(key, body);
        delta
    }
}

/// The query API's long-lived state: a bounded cache of serialized
/// surface tiles (the shared artifacts are process-wide).
#[derive(Debug)]
pub struct EvalContext {
    tiles: RwLock<TileCache>,
}

impl Default for EvalContext {
    fn default() -> Self {
        Self::new()
    }
}

impl EvalContext {
    /// Creates an empty context (the shared artifacts are process-wide
    /// and need no per-context setup).
    #[must_use]
    pub fn new() -> Self {
        TILE_EVICTIONS.add(0);
        Self {
            tiles: RwLock::new(TileCache::new()),
        }
    }

    /// The process-wide context, built on first use.
    #[must_use]
    pub fn process() -> &'static EvalContext {
        static CONTEXT: OnceLock<EvalContext> = OnceLock::new();
        CONTEXT.get_or_init(EvalContext::new)
    }

    /// The cached body for this key, if any. Counts nothing: the
    /// resolver in [`crate::plan`] keeps the tile ledger.
    pub(crate) fn cached_tile(&self, key: &TileKey) -> Option<SurfaceBody> {
        self.tiles.read().ok()?.bodies.get(key).cloned()
    }

    /// Caches cold tiles' bodies in order, evicting one body per new
    /// tile once the cache is full. Counts no hit or miss: the resolver
    /// that priced the tiles has.
    pub(crate) fn store_tiles(&self, tiles: Vec<(TileKey, SurfaceBody)>) {
        if let Ok(mut cache) = self.tiles.write() {
            for (key, body) in tiles {
                TILE_CACHE_BYTES.add(cache.insert(key, body));
            }
        }
    }

    /// Number of cached tiles (for tests and diagnostics).
    #[must_use]
    pub fn cached_tiles(&self) -> usize {
        self.tiles.read().map(|c| c.bodies.len()).unwrap_or(0)
    }
}

impl Drop for EvalContext {
    fn drop(&mut self) {
        if let Ok(cache) = self.tiles.get_mut() {
            let held: i64 = cache
                .slots
                .iter()
                .map(|k| cache.bodies.get(k).map_or(0, body_len))
                .sum();
            TILE_CACHE_BYTES.add(-held);
        }
    }
}

/// Writes a cold tile's body straight from its grid — the one time its
/// numbers are formatted.
pub(crate) fn serialize_tile(tile: &CostSurface) -> SurfaceBody {
    let _span = maly_obs::span("model.tile_serialize").with_histogram(&TILE_SERIALIZE_NS);
    SurfaceBody::from_surface(tile)
}

/// A cached body's length, as a gauge delta.
fn body_len(body: &SurfaceBody) -> i64 {
    body.as_str().len() as i64
}

/// Serializes lib tests that read the process-global counters; cargo
/// runs tests in parallel inside one process, so unlocked readers
/// would see each other's deltas.
#[cfg(test)]
pub(crate) fn counter_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use maly_par::Executor;

    use super::*;
    use crate::json::Json;
    use crate::{Query, QueryResponse};

    type Window = ((f64, f64, usize), (f64, f64, usize));

    /// A 2 × 2 tile window, distinct for every `i`.
    fn small_tile(i: usize) -> Window {
        let lo = 0.4 + 0.01 * i as f64;
        ((lo, lo + 0.2, 2), (1.0e5, 2.0e5, 2))
    }

    fn tile_query((lambda, n_tr): Window) -> Query {
        Query::SurfaceTile {
            lambda_min: lambda.0,
            lambda_max: lambda.1,
            lambda_steps: lambda.2,
            n_tr_min: n_tr.0,
            n_tr_max: n_tr.1,
            n_tr_steps: n_tr.2,
        }
    }

    /// One tile query's body, evaluated on its own against `ctx`.
    fn answer(ctx: &EvalContext, window: Window) -> SurfaceBody {
        match tile_query(window).evaluate_with(&Executor::serial(), ctx) {
            Ok(QueryResponse::Surface(body)) => body,
            other => panic!("a tile query answers with a surface: {other:?}"),
        }
    }

    fn is_cached(ctx: &EvalContext, (lambda, n_tr): Window) -> bool {
        ctx.cached_tile(&TileKey::exact(lambda, n_tr)).is_some()
    }

    #[test]
    fn shared_context_is_one_instance() {
        let a: *const SharedContext = shared();
        let b: *const SharedContext = shared();
        assert_eq!(a, b, "two calls must return the same allocation");
    }

    #[test]
    fn shared_artifacts_match_fresh_derivations() {
        let ctx = shared();
        assert_eq!(
            ctx.feature_trend,
            fit::fit_exponential(datasets::FEATURE_SIZE_BY_YEAR).unwrap()
        );
        assert_eq!(ctx.table3_rows, table3::rows());
        assert_eq!(ctx.table3_rows.len(), 17, "Table 3 prints 17 rows");
        assert_eq!(
            ctx.fig8_surface,
            CostSurface::compute(&ctx.fig8_params, FIG8_LAMBDA_RANGE, FIG8_N_TR_RANGE)
        );
    }

    #[test]
    fn tile_cache_hits_on_repeat() {
        let _guard = counter_test_lock();
        let ctx = EvalContext::new();
        let window = ((0.4, 1.2, 6), (1.0e5, 1.0e6, 5));
        let (hits0, misses0) = (TILE_HITS.value(), TILE_MISSES.value());
        let first = answer(&ctx, window);
        assert_eq!(TILE_MISSES.value() - misses0, 1, "cold query is one miss");
        assert_eq!(TILE_HITS.value() - hits0, 0);
        let again = answer(&ctx, window);
        assert!(
            Arc::ptr_eq(&first.0, &again.0),
            "repeat must answer with the cached body itself"
        );
        assert_eq!(TILE_HITS.value() - hits0, 1, "warm query is one hit");
        assert_eq!(TILE_MISSES.value() - misses0, 1, "and no further miss");
        assert_eq!(ctx.cached_tiles(), 1);
    }

    #[test]
    fn cold_insert_counts_like_an_unplanned_miss() {
        // A one-tile batch prices its tile: its query is the tile's one
        // miss and answers from the batch, and the body enters the
        // cache after, so a repeat is one hit on the same body.
        let _guard = counter_test_lock();
        let ctx = EvalContext::new();
        let exec = Executor::serial();
        let window = ((0.5, 1.0, 4), (1.0e5, 1.0e6, 3));
        assert!(!is_cached(&ctx, window));
        let (hits0, misses0, cells0) = (TILE_HITS.value(), TILE_MISSES.value(), TILE_CELLS.value());
        let answers = Query::evaluate_batch(&exec, &ctx, &[tile_query(window)]);
        let Ok(QueryResponse::Surface(first)) = &answers[0] else {
            panic!("a tile query answers with a surface: {answers:?}");
        };
        assert!(is_cached(&ctx, window), "the batch's tile enters the cache");
        assert_eq!(TILE_MISSES.value() - misses0, 1);
        assert_eq!(TILE_CELLS.value() - cells0, 12);
        assert_eq!(
            TILE_HITS.value() - hits0,
            0,
            "the tile's own query is its miss"
        );
        let again = answer(&ctx, window);
        assert_eq!(TILE_HITS.value() - hits0, 1, "a repeat is one hit");
        assert_eq!(TILE_MISSES.value() - misses0, 1, "and no further miss");
        assert!(
            Arc::ptr_eq(&first.0, &again.0),
            "the batch's answer is the body it cached"
        );
    }

    #[test]
    fn cached_bodies_parse_back_to_themselves() {
        let _guard = counter_test_lock();
        let ctx = EvalContext::new();
        // Single cold tiles — one whose largest dies do not fit the
        // wafer, so it holds `null` cells and optima — plus a cold
        // batch.
        for window in [
            ((0.4, 1.5, 7), (2.0e4, 4.0e6, 6)),
            ((0.4, 1.5, 3), (1.0e6, 1.0e9, 3)),
            ((0.8, 1.2, 2), (1.0e5, 2.0e5, 2)),
        ] {
            answer(&ctx, window);
        }
        let batch: Vec<Query> = [0.5, 0.6]
            .iter()
            .map(|&lo| tile_query(((lo, lo + 0.4, 5), (2.0e4, 4.0e6, 4))))
            .collect();
        let answers = Query::evaluate_batch(&Executor::serial(), &ctx, &batch);
        assert!(answers.iter().all(Result::is_ok));
        let cache = ctx.tiles.read().unwrap();
        assert_eq!(cache.bodies.len(), 5);
        assert!(cache
            .bodies
            .values()
            .any(|body| body.as_str().contains("null")));
        for body in cache.bodies.values() {
            let parsed = crate::json::parse(body.as_str()).expect("cached body is JSON");
            assert_eq!(parsed.get("kind").and_then(Json::as_str), Some("surface"));
            assert_eq!(parsed.write(), body.as_str());
        }
    }

    #[test]
    fn cache_bytes_gauge_tracks_inserts_evictions_and_drops() {
        let _guard = counter_test_lock();
        let bytes0 = TILE_CACHE_BYTES.value();
        let ctx = EvalContext::new();
        let held = |ctx: &EvalContext| -> i64 {
            ctx.tiles
                .read()
                .unwrap()
                .bodies
                .values()
                .map(body_len)
                .sum()
        };
        for i in 0..TILE_CACHE_CAPACITY {
            answer(&ctx, small_tile(i));
            assert_eq!(TILE_CACHE_BYTES.value() - bytes0, held(&ctx), "tile {i}");
        }
        assert_eq!(ctx.cached_tiles(), TILE_CACHE_CAPACITY);
        let stats = crate::query::StatsReport::capture();
        assert!(
            stats
                .gauges
                .iter()
                .any(|(name, v)| name == "model.tile_cache_bytes" && *v >= held(&ctx)),
            "server_stats exports the gauge: {:?}",
            stats.gauges
        );
        assert!(
            stats
                .work
                .iter()
                .all(|(name, _)| !name.starts_with("model.tile_cache")),
            "the gauge is no Work counter"
        );
        assert!(
            stats
                .diag
                .iter()
                .any(|(name, _)| name == "model.tile_evictions"),
            "server_stats exports the eviction count: {:?}",
            stats.diag
        );
        // Each tile past capacity evicts exactly one body.
        for i in TILE_CACHE_CAPACITY..2 * TILE_CACHE_CAPACITY {
            let evictions0 = TILE_EVICTIONS.value();
            let body = answer(&ctx, small_tile(i));
            assert_eq!(TILE_EVICTIONS.value() - evictions0, 1, "tile {i}");
            assert_eq!(ctx.cached_tiles(), TILE_CACHE_CAPACITY, "tile {i}");
            assert!(is_cached(&ctx, small_tile(i)), "tile {i} is cached");
            assert_eq!(TILE_CACHE_BYTES.value() - bytes0, held(&ctx), "tile {i}");
            assert!(body.as_str().starts_with("{\"kind\":\"surface\""));
        }
        drop(ctx);
        assert_eq!(
            TILE_CACHE_BYTES.value(),
            bytes0,
            "a dropped cache holds nothing"
        );
    }

    #[test]
    fn reinserting_a_cached_key_evicts_nothing() {
        let _guard = counter_test_lock();
        let ctx = EvalContext::new();
        for i in 0..TILE_CACHE_CAPACITY {
            answer(&ctx, small_tile(i));
        }
        // Two connection workers that miss the same window both store
        // it: the full cache takes the second body back in place.
        let (l, n) = small_tile(TILE_CACHE_CAPACITY - 1);
        let key = TileKey::exact(l, n);
        let body = ctx.cached_tile(&key).expect("the last tile is cached");
        let evictions0 = TILE_EVICTIONS.value();
        ctx.store_tiles(vec![(key, body)]);
        assert_eq!(ctx.cached_tiles(), TILE_CACHE_CAPACITY);
        assert_eq!(TILE_EVICTIONS.value(), evictions0);
        let (hits0, cells0) = (TILE_HITS.value(), TILE_CELLS.value());
        answer(&ctx, small_tile(0));
        assert_eq!(TILE_HITS.value() - hits0, 1, "the oldest tile still hits");
        assert_eq!(TILE_CELLS.value(), cells0, "and evaluates no cell");
    }

    #[test]
    fn fresh_contexts_evict_the_same_tiles() {
        let _guard = counter_test_lock();
        // A cyclic sweep over one and a half cache's worth of windows,
        // twice: 3 × capacity requests, evicting and hitting.
        let run = || {
            let ctx = EvalContext::new();
            let (hits0, misses0, evictions0) = (
                TILE_HITS.value(),
                TILE_MISSES.value(),
                TILE_EVICTIONS.value(),
            );
            for k in 0..3 * TILE_CACHE_CAPACITY {
                answer(&ctx, small_tile(k % (3 * TILE_CACHE_CAPACITY / 2)));
            }
            let deltas = (
                TILE_HITS.value() - hits0,
                TILE_MISSES.value() - misses0,
                TILE_EVICTIONS.value() - evictions0,
            );
            let keys: std::collections::HashSet<TileKey> =
                ctx.tiles.read().unwrap().bodies.keys().copied().collect();
            (deltas, keys)
        };
        let (first, second) = (run(), run());
        assert_eq!(first, second);
        let (hits, misses, evictions) = first.0;
        assert!(hits > 0, "the second cycle hits part of the first");
        assert_eq!(hits + misses, 3 * TILE_CACHE_CAPACITY as u64);
        assert_eq!(evictions, misses - TILE_CACHE_CAPACITY as u64);
        assert_eq!(first.1.len(), TILE_CACHE_CAPACITY);
    }

    #[test]
    fn distinct_windows_never_share_a_key() {
        let window = ((0.4, 1.5, 10), (2.0e4, 4.0e6, 8));
        let a = TileKey::exact(window.0, window.1);
        assert_eq!(a, TileKey::exact(window.0, window.1));
        let next_up = |v: f64| f64::from_bits(v.to_bits() + 1);
        let ((l_min, l_max, l_steps), (n_min, n_max, n_steps)) = window;
        // One ulp on any endpoint, or one step on either axis, is
        // another window.
        for other in [
            ((next_up(l_min), l_max, l_steps), window.1),
            ((l_min, next_up(l_max), l_steps), window.1),
            (window.0, (next_up(n_min), n_max, n_steps)),
            (window.0, (n_min, next_up(n_max), n_steps)),
            ((l_min, l_max, l_steps + 1), window.1),
            (window.0, (n_min, n_max, n_steps + 1)),
        ] {
            assert_ne!(a, TileKey::exact(other.0, other.1), "{other:?}");
        }
        // Pairs a 1 nm λ grain and a 1e-6 `ln N_tr` grain clamped at 0
        // would merge.
        let lambda = (0.4, 1.5, 10);
        let n_tr = (1.0e5, 1.0e6, 8);
        for (a, b) in [
            ((lambda, (0.25, 0.5, 8)), (lambda, (0.6, 0.9, 8))),
            ((lambda, n_tr), ((0.4004, 1.5, 10), n_tr)),
            ((lambda, n_tr), (lambda, (1.0e5, 1.000_000_4e6, 8))),
        ] {
            assert_ne!(TileKey::exact(a.0, a.1), TileKey::exact(b.0, b.1), "{b:?}");
        }
    }
}
