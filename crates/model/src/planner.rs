//! Executes a compiled [`Plan`]: fused tile prefetch, deduplicated
//! query evaluation, per-slot scatter.
//!
//! Determinism contract: the planned path is bit-identical to
//! [`Query::evaluate_batch_unplanned`] at every executor width.
//! Three facts carry the proof:
//!
//! 1. **Per-cell independence.** `Eq1Kernel` cells depend only on
//!    their own `(λ, N_tr)` bits (the PR 7 kernel contract), and cells
//!    only fuse when their axis values are *bit-equal*, so a fused
//!    evaluation produces exactly the bytes a per-tile
//!    `CostSurface::compute_with` would.
//! 2. **First-occurrence representatives.** Dedup (of queries and of
//!    tile nodes within the cache-key grain) keeps the first
//!    occurrence, matching what a sequential left-to-right evaluation
//!    of the batch against a shared context would cache and reuse.
//! 3. **Index-ordered scatter.** Unique queries run under the
//!    executor's index-ordered `map_indexed`, and answers fan back out
//!    through the slot map, so batch order never depends on thread
//!    interleaving.

use maly_cost_model::surface::{self, Eq1Kernel};
use maly_par::Executor;

use crate::context::{self, EvalContext};
use crate::error::Error;
use crate::plan::{self, Plan, TileNode};
use crate::query::{Query, QueryResponse};

/// Evaluates a batch through the plan IR. Semantics (per-element
/// errors, input order, counters visible to callers) match the
/// unplanned path; only the amount of grid work differs.
pub(crate) fn evaluate(
    exec: &Executor,
    ctx: &EvalContext,
    queries: &[Query],
) -> Vec<Result<QueryResponse, Error>> {
    let _span = maly_obs::span("model.plan").with_histogram(&context::PLAN_NS);
    let plan = Plan::compile(queries);
    plan::NODES_REQUESTED.add(plan.nodes_requested);
    let cold: Vec<&TileNode> = plan
        .tiles
        .iter()
        .filter(|t| !ctx.has_tile(&t.key))
        .collect();
    prefetch_fused(exec, ctx, &cold);
    // Unique queries evaluate through the ordinary per-query path —
    // tile queries now hit the entries the prefetch warmed.
    let answers = exec.map_indexed(plan.unique.len(), |u| {
        plan.unique[u].evaluate_with(exec, ctx)
    });
    let single_nodes = plan
        .unique
        .iter()
        .filter(|q| q.tile_request().is_none())
        .count() as u64;
    plan::NODES_EVALUATED.add(single_nodes);
    let duplicates = plan.duplicate_queries();
    if duplicates == 0 {
        // No fan-out: `slots` is the identity map and the answers are
        // already in request order — return them without cloning.
        return answers;
    }
    // A deduped duplicate is still an answered query: the
    // model.queries ledger must equal responses produced whether or
    // not the planner elided the work.
    context::QUERIES.add(duplicates);
    plan::DEDUPED_QUERIES.add(duplicates);
    plan.slots.iter().map(|&u| answers[u].clone()).collect()
}

/// Materializes every cold tile node in one fused kernel dispatch:
/// union the tiles' axis values, evaluate each bit-unique `(λ, N_tr)`
/// cell exactly once, scatter per-tile grids back out, and insert them
/// as ordinary cold cache entries (each serialized once there).
fn prefetch_fused(exec: &Executor, ctx: &EvalContext, cold: &[&TileNode]) {
    if cold.is_empty() {
        return;
    }
    // Per-tile axes from the same arithmetic as the compute path —
    // bit-equality below is meaningful only because of that. Tile
    // nodes are unique as pairs, but single axis ranges repeat (a
    // sliding λ window usually shares one `N_tr` range), so each
    // distinct range computes its axis once; the log-spaced `N_tr`
    // axis costs one `exp` per point.
    let range_key = |(lo, hi, steps): (f64, f64, usize)| (lo.to_bits(), hi.to_bits(), steps);
    let mut l_cache: Vec<((u64, u64, usize), Vec<f64>)> = Vec::new();
    let mut n_cache: Vec<((u64, u64, usize), Vec<f64>)> = Vec::new();
    let mut axis_from = |cache_is_lambda: bool, range: (f64, f64, usize)| -> Option<Vec<f64>> {
        let (cache, compute): (_, fn((f64, f64, usize)) -> Option<Vec<f64>>) = if cache_is_lambda {
            (&mut l_cache, surface::lambda_axis_values)
        } else {
            (&mut n_cache, surface::n_tr_axis_values)
        };
        let key = range_key(range);
        if let Some((_, v)) = cache.iter().find(|(k, _)| *k == key) {
            return Some(v.clone());
        }
        let v = compute(range)?;
        cache.push((key, v.clone()));
        Some(v)
    };
    let mut planned: Vec<&TileNode> = Vec::with_capacity(cold.len());
    let mut axes: Vec<(Vec<f64>, Vec<f64>)> = Vec::with_capacity(cold.len());
    for t in cold {
        let Some(l_axis) = axis_from(true, t.lambda_range) else {
            continue;
        };
        let Some(n_axis) = axis_from(false, t.n_tr_range) else {
            continue;
        };
        planned.push(t);
        axes.push((l_axis, n_axis));
    }
    let params = &context::shared().fig8_params;
    // Unions over the *distinct* axes (the caches), not per tile — a
    // shared range contributes its values once.
    let sorted_union = |cache: &[((u64, u64, usize), Vec<f64>)]| {
        let mut union: Vec<f64> = cache.iter().flat_map(|(_, v)| v.iter().copied()).collect();
        // Unstable sort: bit-equal keys are indistinguishable and
        // everything else is strictly ordered by `total_cmp`, so
        // instability cannot change the deduped result.
        union.sort_unstable_by(f64::total_cmp);
        union.dedup_by(|a, b| a.to_bits() == b.to_bits());
        union
    };
    let lambda_union = sorted_union(&l_cache);
    let n_tr_union = sorted_union(&n_cache);
    // Bit-exact rank into a sorted, bit-deduped union: `total_cmp`
    // orders distinct bit patterns distinctly, so a hit is the entry
    // carrying exactly `v`'s bits, and every tile axis value is in its
    // union by construction. Binary search plus the dense slot grid
    // below keep planning overhead in index arithmetic — hashing every
    // cell would cost more than the fused dispatch saves. An axis as
    // long as its union *is* the union (sorted, every value a member),
    // so its ranks are the identity without searching.
    let rank = |vals: &[f64], v: f64| vals.binary_search_by(|probe| probe.total_cmp(&v)).ok();
    let ranks_into = |vals: &[f64], union: &[f64]| -> Option<Vec<usize>> {
        if vals.len() == union.len() {
            return Some((0..vals.len()).collect());
        }
        vals.iter().map(|&v| rank(union, v)).collect()
    };
    let tile_idx: Vec<(Vec<usize>, Vec<usize>)> = axes
        .iter()
        .map(|(l_axis, n_axis)| {
            let l = ranks_into(l_axis, &lambda_union);
            let n = ranks_into(n_axis, &n_tr_union);
            (l.unwrap_or_default(), n.unwrap_or_default())
        })
        .collect();
    // When every tile spans the full `N_tr` union — the sliding-λ-
    // window shape batched sweeps produce — the union grid is fully
    // covered: each union row comes from some tile's λ axis, and that
    // tile pairs it with every column. The dispatch is then the whole
    // grid row-major with identity slots, and the per-cell discovery
    // loop (the planner's single largest fixed cost) is skipped
    // entirely. Cell order is irrelevant to the output bits — per-cell
    // independence again — it only has to be deterministic, and both
    // orders are.
    const UNPLANNED: usize = usize::MAX;
    let n_cols = n_tr_union.len();
    let full_grid = tile_idx.iter().all(|(_, n_idx)| n_idx.len() == n_cols);
    let (cells, slot): (Vec<(usize, usize)>, Vec<usize>) = if full_grid {
        let cells = (0..lambda_union.len())
            .flat_map(|ri| (0..n_cols).map(move |ci| (ri, ci)))
            .collect();
        (cells, Vec::new())
    } else {
        // General case: first-occurrence unique cell list over the
        // union grid; `slot` maps a union cell to its position in the
        // fused dispatch.
        let mut slot = vec![UNPLANNED; lambda_union.len() * n_cols];
        let mut cells: Vec<(usize, usize)> = Vec::with_capacity(slot.len());
        for (l_idx, n_idx) in &tile_idx {
            for &ri in l_idx {
                for &ci in n_idx {
                    let k = ri * n_cols + ci;
                    if slot[k] == UNPLANNED {
                        slot[k] = cells.len();
                        cells.push((ri, ci));
                    }
                }
            }
        }
        (cells, slot)
    };
    plan::NODES_EVALUATED.add(cells.len() as u64);
    plan::FUSED_DISPATCHES.incr();
    let values = Eq1Kernel::new(params, &lambda_union, &n_tr_union)
        .with_memo(Some(ctx.memo()))
        .eval_cells_with(exec, &cells);
    for ((t, (l_axis, n_axis)), (l_idx, n_idx)) in planned.iter().zip(&axes).zip(&tile_idx) {
        if l_idx.len() != l_axis.len() || n_idx.len() != n_axis.len() {
            continue; // unreachable: union ranks cover every tile value
        }
        let grid: Vec<Vec<Option<f64>>> = if full_grid {
            // Row-major dispatch means each tile row is one
            // contiguous slice of `values`.
            l_idx
                .iter()
                .map(|&ri| values[ri * n_cols..(ri + 1) * n_cols].to_vec())
                .collect()
        } else {
            l_idx
                .iter()
                .map(|&ri| {
                    n_idx
                        .iter()
                        .map(|&ci| values[slot[ri * n_cols + ci]])
                        .collect()
                })
                .collect()
        };
        if let Some(tile) = surface::surface_from_grid(l_axis.clone(), n_axis.clone(), grid) {
            ctx.insert_cold_tile(t.key, tile_cells(t), &tile);
        }
    }
}

fn tile_cells(t: &TileNode) -> u64 {
    (t.lambda_range.2 * t.n_tr_range.2) as u64
}
