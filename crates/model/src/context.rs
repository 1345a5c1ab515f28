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
//! of *surface tiles* keyed by quantized query parameters. An entry is
//! the tile's serialized `ok` body ([`SurfaceBody`]), built once when
//! the tile enters the cache; the grid it came from is dropped. A
//! repeated `surface_tile` query for the same window answers with a
//! reference-count bump — no grid cell re-evaluated, no number
//! re-formatted — and the response splices the body into its envelope
//! through [`crate::json::Json::Raw`]. The obs counters below make
//! that checkable: the warm-cache integration test asserts
//! `model.tile_cells` does not move on a repeat query.

use std::collections::HashMap;
use std::sync::{OnceLock, RwLock};

use maly_cost_model::roadmap::CostRoadmap;
use maly_cost_model::surface::{CostSurface, SurfaceParameters};
use maly_paper_data::table3::{self, Table3Row};
use maly_par::Executor;
use maly_tech_trend::diesize::DieSizeTrend;
use maly_tech_trend::fit::{CostEscalationFit, ExponentialFit};
use maly_tech_trend::{datasets, fit};

use crate::query::{SurfaceBody, SurfaceReport};

/// The Fig 8 grid the reports render: `(λ min, λ max, steps)`.
pub const FIG8_LAMBDA_RANGE: (f64, f64, usize) = (0.4, 1.5, 56);
/// The Fig 8 grid the reports render: `(N_tr min, N_tr max, steps)`.
pub const FIG8_N_TR_RANGE: (f64, f64, usize) = (2.0e4, 4.0e6, 48);

/// Grid cells evaluated for surface tiles (cache misses only). A
/// thread-count-invariant work counter: the warm-cache test asserts a
/// repeat query adds exactly zero here.
pub static TILE_CELLS: maly_obs::Counter = maly_obs::Counter::work("model.tile_cells");
/// Queries answered through [`crate::query::Query::evaluate_with`].
pub static QUERIES: maly_obs::Counter = maly_obs::Counter::work("model.queries");
/// Surface-tile cache hits (diagnostic: depends on request history).
pub static TILE_HITS: maly_obs::Counter = maly_obs::Counter::diag("model.tile_hits");
/// Surface-tile cache misses (diagnostic).
pub static TILE_MISSES: maly_obs::Counter = maly_obs::Counter::diag("model.tile_misses");
/// Per-query evaluation latency, attached to the `model.query` span.
pub static EVAL_NS: maly_obs::Histogram = maly_obs::Histogram::high_resolution("model.eval_ns");
/// Batch planning latency (compile + fused prefetch + scatter),
/// attached to the `model.plan` span.
pub static PLAN_NS: maly_obs::Histogram = maly_obs::Histogram::high_resolution("model.plan_ns");
/// Serializing one cold tile into its cached body, attached to the
/// `model.tile_serialize` span (nested in the span of the query or
/// batch that missed).
pub static TILE_SERIALIZE_NS: maly_obs::Histogram =
    maly_obs::Histogram::high_resolution("model.tile_serialize_ns");
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

/// Cache key for a computed surface tile. Axis endpoints are quantized
/// (λ at 1 nλ, `N_tr` at a relative 2⁻³² grain) so two requests that
/// differ only in float noise share an entry, while the step counts
/// stay exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct TileKey {
    lambda_min_nm: u64,
    lambda_max_nm: u64,
    n_tr_min_q: u64,
    n_tr_max_q: u64,
    lambda_steps: usize,
    n_tr_steps: usize,
}

impl TileKey {
    pub(crate) fn new(lambda_range: (f64, f64, usize), n_tr_range: (f64, f64, usize)) -> Self {
        // λ arrives in µm; 1e-3 µm = 1 nm grain. N_tr spans orders of
        // magnitude, so quantize its log instead of its value.
        let q_nm = |v: f64| (v * 1.0e3).round() as u64;
        let q_log = |v: f64| (v.ln() * 1.0e6).round() as u64;
        Self {
            lambda_min_nm: q_nm(lambda_range.0),
            lambda_max_nm: q_nm(lambda_range.1),
            n_tr_min_q: q_log(n_tr_range.0),
            n_tr_max_q: q_log(n_tr_range.1),
            lambda_steps: lambda_range.2,
            n_tr_steps: n_tr_range.2,
        }
    }
}

/// Most tiles a server keeps warm. An entry is the tile's serialized
/// body, ~23 B per cell: 64 KiB for the 56×48 Fig 8 report tile, 4–15
/// KiB for 12–24-step windows, ~6 MiB for a 512×512 tile at
/// `MAX_TILE_STEPS`. The 16 B-per-cell grid a body came from is not
/// kept, so every hit is a reference-count bump and one copy.
const TILE_CACHE_CAPACITY: usize = 64;

/// The query API's long-lived state: the shared artifacts plus a
/// bounded cache of serialized surface tiles.
#[derive(Debug)]
pub struct EvalContext {
    tiles: RwLock<HashMap<TileKey, SurfaceBody>>,
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
        Self {
            tiles: RwLock::new(HashMap::new()),
        }
    }

    /// The process-wide context, built on first use.
    #[must_use]
    pub fn process() -> &'static EvalContext {
        static CONTEXT: OnceLock<EvalContext> = OnceLock::new();
        CONTEXT.get_or_init(EvalContext::new)
    }

    /// The serialized body of a surface tile for the given ranges:
    /// cached when warm; computed on the executor (and counted in
    /// [`struct@TILE_CELLS`]), then serialized once, when cold.
    ///
    /// The caller must have validated the ranges
    /// (ascending-positive, ≥ 2 steps) — `CostSurface::compute` panics
    /// on degenerate grids by contract.
    pub(crate) fn surface_tile(
        &self,
        exec: &Executor,
        params: &SurfaceParameters,
        lambda_range: (f64, f64, usize),
        n_tr_range: (f64, f64, usize),
    ) -> SurfaceBody {
        let key = TileKey::new(lambda_range, n_tr_range);
        if let Ok(cache) = self.tiles.read() {
            if let Some(body) = cache.get(&key) {
                TILE_HITS.incr();
                return body.clone();
            }
        }
        TILE_MISSES.incr();
        TILE_CELLS.add((lambda_range.2 * n_tr_range.2) as u64);
        let tile = CostSurface::compute_with(exec, params, lambda_range, n_tr_range);
        self.store_tile(key, &tile)
    }

    /// Whether a tile for this key is already warm. Deliberately bumps
    /// no counters: the batch planner probes with this before deciding
    /// what to fuse, and the hit/miss ledger must reflect only actual
    /// tile requests, identically to the unplanned path.
    pub(crate) fn has_tile(&self, key: &TileKey) -> bool {
        self.tiles
            .read()
            .map(|c| c.contains_key(key))
            .unwrap_or(false)
    }

    /// Inserts a tile the batch planner materialized outside
    /// [`Self::surface_tile`]. Counts the same miss + cell ledger the
    /// unplanned cold path would — `cells` is the tile's *full* cell
    /// count even when fusion evaluated fewer, so `model.tile_cells`
    /// goldens hold with the planner on or off; the fusion saving shows
    /// up in `eq1.cells` and `plan.nodes_evaluated` instead.
    pub(crate) fn insert_cold_tile(&self, key: TileKey, cells: u64, tile: &CostSurface) {
        TILE_MISSES.incr();
        TILE_CELLS.add(cells);
        self.store_tile(key, tile);
    }

    /// Serializes a cold tile — the one time its numbers are
    /// formatted — and caches the body.
    fn store_tile(&self, key: TileKey, tile: &CostSurface) -> SurfaceBody {
        let body = {
            let _span = maly_obs::span("model.tile_serialize").with_histogram(&TILE_SERIALIZE_NS);
            SurfaceBody::from(&SurfaceReport::from_surface(tile))
        };
        if let Ok(mut cache) = self.tiles.write() {
            if cache.len() >= TILE_CACHE_CAPACITY {
                // Bounded, not LRU: full flush is simple, deterministic
                // in effect (the next query recomputes), and the
                // capacity is far above any real request mix.
                TILE_CACHE_BYTES.add(-body_bytes(cache.values()));
                cache.clear();
            }
            TILE_CACHE_BYTES.add(body_bytes([&body]));
            // Two threads that miss the same key both insert; the
            // bodies are equal, and the gauge drops the one replaced.
            if let Some(old) = cache.insert(key, body.clone()) {
                TILE_CACHE_BYTES.add(-body_bytes([&old]));
            }
        }
        body
    }

    /// Number of cached tiles (for tests and diagnostics).
    #[must_use]
    pub fn cached_tiles(&self) -> usize {
        self.tiles.read().map(|c| c.len()).unwrap_or(0)
    }
}

impl Drop for EvalContext {
    fn drop(&mut self) {
        if let Ok(cache) = self.tiles.get_mut() {
            TILE_CACHE_BYTES.add(-body_bytes(cache.values()));
        }
    }
}

/// Total length of the given bodies, as a gauge delta.
fn body_bytes<'a>(bodies: impl IntoIterator<Item = &'a SurfaceBody>) -> i64 {
    bodies.into_iter().map(|b| b.as_str().len() as i64).sum()
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

    use super::*;
    use crate::json::Json;

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
        let exec = Executor::serial();
        let params = SurfaceParameters::fig8();
        let ranges = ((0.4, 1.2, 6), (1.0e5, 1.0e6, 5));
        let (hits0, misses0) = (TILE_HITS.value(), TILE_MISSES.value());
        let first = ctx.surface_tile(&exec, &params, ranges.0, ranges.1);
        assert_eq!(TILE_MISSES.value() - misses0, 1, "cold query is one miss");
        assert_eq!(TILE_HITS.value() - hits0, 0);
        let again = ctx.surface_tile(&exec, &params, ranges.0, ranges.1);
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
        let _guard = counter_test_lock();
        let ctx = EvalContext::new();
        let exec = Executor::serial();
        let params = SurfaceParameters::fig8();
        let ranges = ((0.5, 1.0, 4), (1.0e5, 1.0e6, 3));
        let tile = CostSurface::compute_with(&exec, &params, ranges.0, ranges.1);
        let key = TileKey::new(ranges.0, ranges.1);
        assert!(!ctx.has_tile(&key));
        let (hits0, misses0, cells0) = (TILE_HITS.value(), TILE_MISSES.value(), TILE_CELLS.value());
        ctx.insert_cold_tile(key, 12, &tile);
        assert!(ctx.has_tile(&key), "inserted tile must be warm");
        assert_eq!(TILE_MISSES.value() - misses0, 1);
        assert_eq!(TILE_CELLS.value() - cells0, 12);
        assert_eq!(TILE_HITS.value() - hits0, 0, "probes bump nothing");
        let again = ctx.surface_tile(&exec, &params, ranges.0, ranges.1);
        assert_eq!(TILE_HITS.value() - hits0, 1, "surface_tile must hit it");
        assert_eq!(
            again.as_str(),
            SurfaceReport::from_surface(&tile).to_json().write(),
            "the hit answers with the inserted tile's body"
        );
    }

    #[test]
    fn cached_bodies_parse_back_to_themselves() {
        let _guard = counter_test_lock();
        let ctx = EvalContext::new();
        let exec = Executor::serial();
        let params = SurfaceParameters::fig8();
        // Direct cold tiles — one whose largest dies do not fit the
        // wafer, so it holds `null` cells and optima — plus a fused
        // planner batch.
        for ranges in [
            ((0.4, 1.5, 7), (2.0e4, 4.0e6, 6)),
            ((0.4, 1.5, 3), (1.0e6, 1.0e9, 3)),
            ((0.8, 1.2, 2), (1.0e5, 2.0e5, 2)),
        ] {
            ctx.surface_tile(&exec, &params, ranges.0, ranges.1);
        }
        let batch: Vec<crate::Query> = [0.5, 0.6]
            .iter()
            .map(|&lo| crate::Query::SurfaceTile {
                lambda_min: lo,
                lambda_max: lo + 0.4,
                lambda_steps: 5,
                n_tr_min: 2.0e4,
                n_tr_max: 4.0e6,
                n_tr_steps: 4,
            })
            .collect();
        let answers = crate::Query::evaluate_batch(&exec, &ctx, &batch);
        assert!(answers.iter().all(Result::is_ok));
        let cache = ctx.tiles.read().unwrap();
        assert_eq!(cache.len(), 5);
        assert!(cache.values().any(|b| b.as_str().contains("null")));
        for body in cache.values() {
            let parsed = crate::json::parse(body.as_str()).expect("cached body is JSON");
            assert_eq!(parsed.get("kind").and_then(Json::as_str), Some("surface"));
            assert_eq!(parsed.write(), body.as_str());
        }
    }

    #[test]
    fn cache_bytes_gauge_tracks_inserts_flushes_and_drops() {
        let _guard = counter_test_lock();
        let exec = Executor::serial();
        let params = SurfaceParameters::fig8();
        let bytes0 = TILE_CACHE_BYTES.value();
        let ctx = EvalContext::new();
        let tile = |i: usize| {
            let lo = 0.4 + 0.01 * i as f64;
            ((lo, lo + 0.2, 2), (1.0e5, 2.0e5, 2))
        };
        let mut held = 0;
        for i in 0..TILE_CACHE_CAPACITY {
            let (l, n) = tile(i);
            held += ctx.surface_tile(&exec, &params, l, n).as_str().len() as i64;
        }
        assert_eq!(TILE_CACHE_BYTES.value() - bytes0, held);
        let stats = crate::query::StatsReport::capture();
        assert!(
            stats
                .gauges
                .iter()
                .any(|(name, v)| name == "model.tile_cache_bytes" && *v >= held),
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
        // One more tile flushes the full cache: only the new body stays.
        let (l, n) = tile(TILE_CACHE_CAPACITY);
        let last = ctx.surface_tile(&exec, &params, l, n).as_str().len() as i64;
        assert_eq!(ctx.cached_tiles(), 1);
        assert_eq!(TILE_CACHE_BYTES.value() - bytes0, last);
        drop(ctx);
        assert_eq!(
            TILE_CACHE_BYTES.value(),
            bytes0,
            "a dropped cache holds nothing"
        );
    }

    #[test]
    fn tile_key_quantization_absorbs_float_noise() {
        let a = TileKey::new((0.4, 1.5, 10), (2.0e4, 4.0e6, 8));
        let b = TileKey::new((0.4 + 1e-9, 1.5 - 1e-9, 10), (2.0e4, 4.0e6, 8));
        assert_eq!(a, b);
        let c = TileKey::new((0.4, 1.5, 11), (2.0e4, 4.0e6, 8));
        assert_ne!(a, c, "step counts stay exact");
    }
}
