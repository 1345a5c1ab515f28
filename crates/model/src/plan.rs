//! The one place surface tiles are resolved, and the batch path built
//! on it.
//!
//! An evaluation — one query through [`Query::evaluate_with`], or a
//! whole batch through [`Query::evaluate_batch`] — resolves its tile
//! queries once, in request order, each keyed by its exact window: a
//! key already resolved in this evaluation is a hit; otherwise the
//! cache is read once, and a body found there is kept in the
//! evaluation's own map and counted as a hit; every remaining key is a
//! miss (its full cell count in `model.tile_cells`), priced as the
//! dense surface of its own window by [`CostSurface::compute_with`].
//! Answers come only from that map, so each tile query counts one hit
//! or one miss whatever other connections evict meanwhile; the priced
//! bodies enter the cache afterwards, in first-occurrence order, so
//! their victims are deterministic. Nothing else moves
//! `model.tile_{hits,misses,cells}`.
//!
//! Only a batch counts `plan.*` nodes and opens a `model.plan` span; its
//! non-tile queries evaluate through [`Query::evaluate_with`] under the
//! executor's index-ordered `map_indexed`.
//!
//! Determinism contract: the batch path is bit-identical to
//! [`Query::evaluate_batch_unplanned`] at every executor width, by
//! construction — a batch prices each cold tile with the same
//! `compute_with` call a single tile query makes, and one key is one
//! window. The `plan_fusion` property tests and the serve loopback
//! suite diff the two paths.

use std::collections::HashMap;

use maly_cost_model::surface::CostSurface;
use maly_par::Executor;

use crate::context::{self, EvalContext, TileKey};
use crate::error::Error;
use crate::query::{Query, QueryResponse, SurfaceBody};

/// Grid nodes a batch asked for: every cell of every surface-tile
/// query plus one node per other query. Work counter — determined by
/// batch contents alone.
pub static NODES_REQUESTED: maly_obs::Counter = maly_obs::Counter::work("plan.nodes_requested");
/// Grid nodes a batch actually evaluated: the cold tiles' cells plus
/// one node per non-tile query. Below [`static@NODES_REQUESTED`] only by
/// the cells of tiles answered from the cache or repeated in the batch.
pub static NODES_EVALUATED: maly_obs::Counter = maly_obs::Counter::work("plan.nodes_evaluated");
/// Batch evaluations that priced at least one cold tile (one each,
/// however many cold tiles the batch held). Work counter; perfbench
/// and `ci.sh` read it under this name.
pub static FUSED_DISPATCHES: maly_obs::Counter = maly_obs::Counter::work("plan.fused_dispatches");

/// A well-formed tile query's λ and `N_tr` ranges.
pub(crate) type TileRequest = ((f64, f64, usize), (f64, f64, usize));

/// Tile bodies with their keys, in first-occurrence order.
type Priced = Vec<(TileKey, SurfaceBody)>;

/// Resolves `requests` in order, counting one hit or one miss each.
/// Returns every requested key's body, the cold ones (to cache after
/// the answers) and the cells pricing them evaluated.
fn resolve<'a>(
    exec: &Executor,
    ctx: &EvalContext,
    requests: impl IntoIterator<Item = &'a TileRequest>,
) -> (HashMap<TileKey, SurfaceBody>, Priced, usize) {
    let mut bodies = HashMap::new();
    let mut cold: Vec<(TileKey, TileRequest)> = Vec::new();
    for &request in requests {
        let key = TileKey::exact(request.0, request.1);
        if bodies.contains_key(&key) || cold.iter().any(|(k, _)| *k == key) {
            context::TILE_HITS.incr();
        } else if let Some(body) = ctx.cached_tile(&key) {
            context::TILE_HITS.incr();
            bodies.insert(key, body);
        } else {
            context::TILE_MISSES.incr();
            context::TILE_CELLS.add((request.0 .2 * request.1 .2) as u64);
            cold.push((key, request));
        }
    }
    let (priced, cells) = price_cold_tiles(exec, &cold);
    bodies.extend(priced.iter().cloned());
    (bodies, priced, cells)
}

/// A resolved request's answer: [`resolve`] holds a body for every key
/// it was given.
fn answer(bodies: &HashMap<TileKey, SurfaceBody>, (l, n): TileRequest) -> QueryResponse {
    QueryResponse::Surface(bodies[&TileKey::exact(l, n)].clone())
}

/// Answers one well-formed tile query outside a batch: the same
/// resolver, with no `plan.*` counter and no `model.plan` span.
pub(crate) fn tile(exec: &Executor, ctx: &EvalContext, request: TileRequest) -> QueryResponse {
    let (bodies, priced, _) = resolve(exec, ctx, [&request]);
    ctx.store_tiles(priced);
    answer(&bodies, request)
}

/// Evaluates a batch: its tiles resolved first, then every query in
/// index order, then the cold tiles into the cache. Per-element
/// errors, input order and the `model.*` ledger match the unplanned
/// path.
pub(crate) fn evaluate(
    exec: &Executor,
    ctx: &EvalContext,
    queries: &[Query],
) -> Vec<Result<QueryResponse, Error>> {
    let _span = maly_obs::span("model.plan").with_histogram(&context::PLAN_NS);
    let requests: Vec<Option<TileRequest>> = queries.iter().map(Query::tile_request).collect();
    let (bodies, priced, cells) = resolve(exec, ctx, requests.iter().flatten());
    let nodes = |r: &Option<TileRequest>| r.map_or(1, |(l, n)| (l.2 * n.2) as u64);
    NODES_REQUESTED.add(requests.iter().map(nodes).sum());
    NODES_EVALUATED.add(requests.iter().filter(|r| r.is_none()).count() as u64 + cells as u64);
    if cells > 0 {
        FUSED_DISPATCHES.incr();
    }
    let answers = exec.map_indexed(queries.len(), |i| match requests[i] {
        Some(request) => {
            let _span = maly_obs::span("model.query").with_histogram(&context::EVAL_NS);
            context::QUERIES.incr();
            Ok(answer(&bodies, request))
        }
        None => queries[i].evaluate_with(exec, ctx),
    });
    ctx.store_tiles(priced);
    answers
}

/// Prices each cold tile as the dense surface of its own window, in
/// the order the tiles came. Returns the bodies and the cells priced.
fn price_cold_tiles(exec: &Executor, cold: &[(TileKey, TileRequest)]) -> (Priced, usize) {
    let params = &context::shared().fig8_params;
    // `check_tile` admitted every request, and it is strictly tighter
    // than `compute_with`'s asserts (finite bounds, 0 < min < max,
    // 2..=MAX_TILE_STEPS steps), so no cold tile can panic here.
    let priced = exec.map(cold, |&(key, (l, n))| {
        let tile = CostSurface::compute_with(exec, params, l, n);
        (key, context::serialize_tile(&tile))
    });
    let cells = cold.iter().map(|(_, (l, n))| l.2 * n.2).sum();
    (priced, cells)
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
        // A repeat, and a window one float-noise step away: four tile
        // requests, three keys.
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
        // Three cold keys, one counted dispatch; each of the four tile queries
        // is one lookup: the first of each key is its miss, the repeat
        // hits.
        assert_eq!(delta, [4 * 9 * 24 + 1, 1, 1, 3, 3 * 9 * 24]);
        assert_eq!(bytes[2], bytes[0]);
        // The noisy window is its own tile, with the bytes of its own
        // request evaluated alone.
        assert_ne!(bytes[3], bytes[0]);
        let (alone, _) = run(&EvalContext::new(), &batch[3..4], []);
        assert_eq!(bytes[3], alone[0]);
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
        // but only after every query has its answer, so no cold tile
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
        assert_eq!(delta, [1, 1, 0], "one node each, nothing to price");
    }
}
