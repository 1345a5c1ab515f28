//! The batch path: the cold surface tiles of a whole batch priced in
//! one fused eq. (1) dispatch, then every query through the per-query
//! path.
//!
//! [`Query::evaluate_batch`] collects the batch's cold tile keys in
//! first-occurrence order and materializes them through one
//! [`Eq1Kernel`] dispatch over the union of their axis values, each
//! unique `(λ, N_tr)` cell evaluated once. Every query then runs
//! through [`Query::evaluate_with`]'s path under the executor's
//! index-ordered `map_indexed`, a fused tile answering from the
//! batch's own bodies and any other tile from the context's cache.
//! The fused bodies enter the cache after the answers, in
//! first-occurrence order, so the victims they pick are deterministic
//! and no fused tile is evicted before its queries read it; tiles that
//! were warm when the batch started stay warm through it.
//!
//! Tile ledger: each tile query counts one lookup, as it would on the
//! unplanned path. The batch counts its fused tiles' share as it
//! collects them: the first query for a cold key is that key's miss
//! (with the tile's full cell count in `model.tile_cells`), and each
//! repeat in the batch is a hit. A warm tile's query counts its own
//! hit in the cache.
//!
//! Determinism contract: the batch path is bit-identical to
//! [`Query::evaluate_batch_unplanned`] at every executor width.
//! `Eq1Kernel` cells depend only on their own `(λ, N_tr)` bits, and
//! cells only fuse when their axis values are *bit-equal*, so a fused
//! tile holds exactly the bytes a per-tile `CostSurface::compute_with`
//! would. Tiles keep the ranges of their first requester (tile keys
//! match the cache grain), as a left-to-right evaluation against a
//! shared context would cache them. The `plan_fusion` property tests
//! and the serve loopback suite diff the two paths.

use maly_cost_model::surface::{self, Eq1Kernel};
use maly_par::Executor;

use crate::context::{self, EvalContext, FusedTiles, TileKey};
use crate::error::Error;
use crate::query::{Query, QueryResponse, SurfaceBody};

/// Grid nodes a batch asked for: every cell of every surface-tile
/// query plus one node per other query. Work counter — determined by
/// batch contents alone.
pub static NODES_REQUESTED: maly_obs::Counter = maly_obs::Counter::work("plan.nodes_requested");
/// Grid nodes actually evaluated: the fused dispatch's cells plus one
/// node per non-tile query. The fusion goldens assert this stays well
/// under [`static@NODES_REQUESTED`] on overlapping batches.
pub static NODES_EVALUATED: maly_obs::Counter = maly_obs::Counter::work("plan.nodes_evaluated");
/// Fused kernel dispatches issued (one per batch with ≥ 1 cold tile).
pub static FUSED_DISPATCHES: maly_obs::Counter = maly_obs::Counter::work("plan.fused_dispatches");

/// A cold tile: its cache key and its λ and `N_tr` axis values.
type ColdTile = (TileKey, Vec<f64>, Vec<f64>);

/// Evaluates a batch: fused cold tiles first, then every query in
/// index order, then the fused tiles into the cache. Per-element
/// errors, input order and the `model.*` ledger match the unplanned
/// path; only the amount of grid work differs.
pub(crate) fn evaluate(
    exec: &Executor,
    ctx: &EvalContext,
    queries: &[Query],
) -> Vec<Result<QueryResponse, Error>> {
    let _span = maly_obs::span("model.plan").with_histogram(&context::PLAN_NS);
    let mut requested = 0u64;
    let mut singles = 0u64;
    let mut cold: Vec<ColdTile> = Vec::new();
    for q in queries {
        let Some((lambda_range, n_tr_range)) = q.tile_request() else {
            requested += 1;
            singles += 1;
            continue;
        };
        let cells = (lambda_range.2 * n_tr_range.2) as u64;
        requested += cells;
        let key = TileKey::new(lambda_range, n_tr_range);
        if cold.iter().any(|(k, ..)| *k == key) {
            context::TILE_HITS.incr();
            continue;
        }
        if ctx.has_tile(&key) {
            continue;
        }
        // Axes from the same arithmetic as the compute path: the
        // bit-equality fusion keys on is meaningful only because of that.
        if let Some((l, n)) = surface::tile_axes(lambda_range, n_tr_range) {
            // The tile's full cell count even when fusion evaluates
            // fewer, so `model.tile_cells` reads as on the unplanned
            // path; the saving shows in `eq1.cells` and
            // `plan.nodes_evaluated` instead.
            context::TILE_MISSES.incr();
            context::TILE_CELLS.add(cells);
            cold.push((key, l, n));
        }
    }
    NODES_REQUESTED.add(requested);
    NODES_EVALUATED.add(singles);
    let fused = fuse_cold_tiles(exec, cold);
    let batch: FusedTiles = fused.iter().cloned().collect();
    let answers = exec.map_indexed(queries.len(), |i| queries[i].evaluate_in(exec, ctx, &batch));
    for (key, body) in fused {
        ctx.store_tile(key, body);
    }
    answers
}

/// Materializes the cold tiles in one kernel dispatch: union the
/// tiles' axis values, evaluate each bit-unique `(λ, N_tr)` cell
/// exactly once, scatter per-tile grids back out, and serialize each
/// tile's body, in the order the tiles came.
fn fuse_cold_tiles(exec: &Executor, tiles: Vec<ColdTile>) -> Vec<(TileKey, SurfaceBody)> {
    if tiles.is_empty() {
        return Vec::new();
    }
    let lambdas = bit_union(tiles.iter().map(|t| &t.1));
    let n_trs = bit_union(tiles.iter().map(|t| &t.2));
    // Every axis value is in its union by construction, and `total_cmp`
    // orders distinct bit patterns distinctly, so the search always
    // lands on the entry carrying exactly `v`'s bits.
    let ranks = |axis: &[f64], union: &[f64]| -> Vec<usize> {
        axis.iter()
            .map(|v| {
                union
                    .binary_search_by(|p| p.total_cmp(v))
                    .unwrap_or_else(|i| i)
            })
            .collect()
    };
    let tile_idx: Vec<(Vec<usize>, Vec<usize>)> = tiles
        .iter()
        .map(|(_, l, n)| (ranks(l, &lambdas), ranks(n, &n_trs)))
        .collect();
    // First-occurrence unique cells over the union grid; `slot` maps a
    // union cell to its position in the dispatch.
    let n_cols = n_trs.len();
    let mut slot = vec![usize::MAX; lambdas.len() * n_cols];
    let mut cells: Vec<(usize, usize)> = Vec::new();
    for (l_idx, n_idx) in &tile_idx {
        for &ri in l_idx {
            for &ci in n_idx {
                let k = ri * n_cols + ci;
                if slot[k] == usize::MAX {
                    slot[k] = cells.len();
                    cells.push((ri, ci));
                }
            }
        }
    }
    NODES_EVALUATED.add(cells.len() as u64);
    FUSED_DISPATCHES.incr();
    let values = Eq1Kernel::new(&context::shared().fig8_params, &lambdas, &n_trs)
        .eval_cells_with(exec, &cells);
    let mut bodies = Vec::with_capacity(tiles.len());
    for ((key, l_axis, n_axis), (l_idx, n_idx)) in tiles.into_iter().zip(&tile_idx) {
        let grid = l_idx
            .iter()
            .map(|&ri| {
                n_idx
                    .iter()
                    .map(|&ci| values[slot[ri * n_cols + ci]])
                    .collect()
            })
            .collect();
        if let Some(tile) = surface::surface_from_grid(l_axis, n_axis, grid) {
            bodies.push((key, context::serialize_tile(&tile)));
        }
    }
    bodies
}

/// The sorted, bit-deduped union of some axes. Bit-equal values are
/// indistinguishable and everything else is strictly ordered by
/// `total_cmp`, so an unstable sort cannot change the result.
fn bit_union<'a>(axes: impl Iterator<Item = &'a Vec<f64>>) -> Vec<f64> {
    let mut union: Vec<f64> = axes.flatten().copied().collect();
    union.sort_unstable_by(f64::total_cmp);
    union.dedup_by(|a, b| a.to_bits() == b.to_bits());
    union
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{counter_test_lock, TILE_CELLS, TILE_HITS, TILE_MISSES};
    use maly_obs::Counter;

    fn tile(lambda_min: f64, lambda_max: f64) -> Query {
        Query::SurfaceTile {
            lambda_min,
            lambda_max,
            lambda_steps: 9,
            n_tr_min: 2.0e4,
            n_tr_max: 4.0e6,
            n_tr_steps: 24,
        }
    }

    /// Each answer's bytes, with the deltas of `counters` over the
    /// batch on `ctx`.
    fn run<const N: usize>(
        ctx: &EvalContext,
        batch: &[Query],
        counters: [&Counter; N],
    ) -> (Vec<String>, [u64; N]) {
        let before = counters.map(Counter::value);
        let answers = evaluate(&Executor::serial(), ctx, batch);
        let bytes = answers
            .iter()
            .map(|r| {
                r.as_ref()
                    .map_or_else(|e| format!("err:{e:?}"), |ok| ok.to_json().write())
            })
            .collect();
        let mut delta = counters.map(Counter::value);
        delta.iter_mut().zip(before).for_each(|(d, b)| *d -= b);
        (bytes, delta)
    }

    #[test]
    fn batch_fuses_each_cold_tile_key_once() {
        let _guard = counter_test_lock();
        // A repeat, and float noise within the 1 nm key grain: three
        // distinct requests, one cached tile.
        let batch = [
            tile(0.5, 1.0),
            Query::Table3,
            tile(0.5, 1.0),
            tile(0.5 + 1e-9, 1.0),
            tile(0.625, 1.125),
        ];
        let (bytes, delta) = run(
            &EvalContext::new(),
            &batch,
            [
                &NODES_REQUESTED,
                &FUSED_DISPATCHES,
                &TILE_HITS,
                &TILE_MISSES,
                &TILE_CELLS,
            ],
        );
        // Two cold keys, one dispatch; each of the four tile queries is
        // one lookup: the first of each key claims its miss, the two
        // repeats hit.
        assert_eq!(delta, [4 * 9 * 24 + 1, 1, 2, 2, 2 * 9 * 24]);
        // The first requester's ranges win, as in a left-to-right
        // evaluation against a shared context.
        assert_eq!(bytes[2], bytes[0]);
        assert_eq!(bytes[3], bytes[0]);
        assert_ne!(bytes[4], bytes[0]);
    }

    #[test]
    fn a_full_cache_batch_counts_each_new_tile_once() {
        let _guard = counter_test_lock();
        let exec = Executor::serial();
        let ctx = EvalContext::new();
        // A 2 × 2 window, distinct for every `i`.
        let small = |i: usize| {
            let lo = 0.4 + 0.01 * i as f64;
            Query::SurfaceTile {
                lambda_min: lo,
                lambda_max: lo + 0.2,
                lambda_steps: 2,
                n_tr_min: 1.0e5,
                n_tr_max: 2.0e5,
                n_tr_steps: 2,
            }
        };
        for i in 0..64 {
            assert!(small(i).evaluate_with(&exec, &ctx).is_ok());
        }
        assert_eq!(ctx.cached_tiles(), 64, "the cache is full");
        // Forty new tiles in one batch: each inserted body evicts one,
        // but only after every query has its answer, so no fused tile
        // is computed twice.
        let batch: Vec<Query> = (64..104).map(small).collect();
        let (bytes, delta) = run(
            &ctx,
            &batch,
            [
                &TILE_MISSES,
                &TILE_HITS,
                &TILE_CELLS,
                &context::TILE_EVICTIONS,
            ],
        );
        assert!(bytes.iter().all(|b| !b.starts_with("err:")));
        assert_eq!(delta, [40, 0, 40 * 4, 40]);
        assert_eq!(ctx.cached_tiles(), 64);
    }

    #[test]
    fn malformed_tiles_are_single_nodes() {
        let _guard = counter_test_lock();
        let (bytes, delta) = run(
            &EvalContext::new(),
            &[tile(1.0, 0.5)],
            [&NODES_REQUESTED, &NODES_EVALUATED, &FUSED_DISPATCHES],
        );
        assert!(
            bytes[0].starts_with("err:"),
            "the malformed tile keeps its error"
        );
        assert_eq!(delta, [1, 1, 0], "one node each, nothing to fuse");
    }
}
