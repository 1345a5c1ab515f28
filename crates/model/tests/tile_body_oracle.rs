//! An independent oracle for surface-tile answers.
//!
//! The tile cache serializes a tile once, when it enters the cache, and
//! every later answer — a warm hit, a fused batch, a deduplicated
//! duplicate — copies those bytes. The planned and unplanned batch
//! paths therefore share one body and cannot check each other's
//! writer. This test rebuilds each expected body from scratch instead:
//! a fresh `CostSurface::compute`, a `SurfaceReport` filled from its
//! public accessors, then `SurfaceReport::to_json().write()`. Every
//! served `ok` payload must equal it byte for byte, at 1, 2 and 8
//! executor threads.

use std::sync::{Mutex, MutexGuard};

use maly_cost_model::surface::{CostSurface, SurfaceParameters};
use maly_model::json::Json;
use maly_model::query::SurfaceReport;
use maly_model::{context, plan, EvalContext, Query, QueryResponse};
use maly_par::Executor;

const THREADS: [usize; 3] = [1, 2, 8];

type Range = (f64, f64, usize);

/// Serializes the tests in this binary: they assert deltas of the
/// process-global tile and plan counters.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn tile(lambda: Range, n_tr: Range) -> Query {
    Query::SurfaceTile {
        lambda_min: lambda.0,
        lambda_max: lambda.1,
        lambda_steps: lambda.2,
        n_tr_min: n_tr.0,
        n_tr_max: n_tr.1,
        n_tr_steps: n_tr.2,
    }
}

/// The expected `ok` bytes, built without the tile cache.
fn oracle(lambda: Range, n_tr: Range, threads: usize) -> String {
    let surface = CostSurface::compute(&SurfaceParameters::fig8(), lambda, n_tr);
    SurfaceReport {
        lambda_axis: surface.lambda_axis().to_vec(),
        n_tr_axis: surface.n_tr_axis().to_vec(),
        values: surface.values().to_vec(),
        optimal_lambda_per_n_tr: surface
            .optimal_lambda_per_n_tr_with(&Executor::with_threads(threads)),
        global_minimum: surface.global_minimum(),
    }
    .to_json()
    .write()
}

/// The `ok` payload of one answer, as it goes on the wire, checked to
/// splice verbatim into a response envelope.
fn served(result: &Result<QueryResponse, maly_model::Error>) -> String {
    let response = result.as_ref().expect("tile query succeeds");
    assert!(matches!(response, QueryResponse::Surface(_)));
    let ok = response.to_json().write();
    let envelope = Json::obj(vec![("id", Json::Num(7.0)), ("ok", response.to_json())]).write();
    assert_eq!(envelope, format!("{{\"id\":7,\"ok\":{ok}}}"));
    ok
}

const WINDOW: (Range, Range) = ((0.45, 1.35, 10), (3.0e4, 3.0e6, 9));

#[test]
fn cold_tile_and_warm_hit_match_the_oracle() {
    let _guard = lock();
    let (lambda, n_tr) = WINDOW;
    for threads in THREADS {
        let exec = Executor::with_threads(threads);
        let ctx = EvalContext::new();
        let expected = oracle(lambda, n_tr, threads);
        let (hits0, misses0) = (context::TILE_HITS.value(), context::TILE_MISSES.value());
        let cold = tile(lambda, n_tr).evaluate_with(&exec, &ctx);
        assert_eq!(
            context::TILE_MISSES.value() - misses0,
            1,
            "{threads} threads"
        );
        assert_eq!(served(&cold), expected, "cold tile at {threads} threads");
        let warm = tile(lambda, n_tr).evaluate_with(&exec, &ctx);
        assert_eq!(context::TILE_HITS.value() - hits0, 1, "{threads} threads");
        assert_eq!(served(&warm), expected, "warm hit at {threads} threads");
    }
}

#[test]
fn fused_cold_batch_matches_the_oracle() {
    let _guard = lock();
    // A sliding λ window over one N_tr range: the shape the planner
    // fuses into a single kernel dispatch.
    let n_tr = (2.0e4, 4.0e6, 12);
    let windows: Vec<Range> = [0.5, 0.6, 0.7]
        .iter()
        .map(|&lo| (lo, lo + 0.45, 10))
        .collect();
    let batch: Vec<Query> = windows.iter().map(|&l| tile(l, n_tr)).collect();
    for threads in THREADS {
        let ctx = EvalContext::new();
        let fused0 = plan::FUSED_DISPATCHES.value();
        let misses0 = context::TILE_MISSES.value();
        let answers = Query::evaluate_batch(&Executor::with_threads(threads), &ctx, &batch);
        assert_eq!(
            plan::FUSED_DISPATCHES.value() - fused0,
            1,
            "{threads} threads"
        );
        assert_eq!(
            context::TILE_MISSES.value() - misses0,
            3,
            "{threads} threads"
        );
        for (lambda, answer) in windows.iter().zip(&answers) {
            assert_eq!(
                served(answer),
                oracle(*lambda, n_tr, threads),
                "fused tile {lambda:?} at {threads} threads"
            );
        }
    }
}

#[test]
fn in_batch_duplicates_match_the_oracle() {
    let _guard = lock();
    let (lambda, n_tr) = WINDOW;
    let other = ((0.6, 1.1, 6), n_tr);
    let a = tile(lambda, n_tr);
    let batch = vec![a.clone(), tile(other.0, other.1), a.clone(), a];
    for threads in THREADS {
        let ctx = EvalContext::new();
        let deduped0 = plan::DEDUPED_QUERIES.value();
        let answers = Query::evaluate_batch(&Executor::with_threads(threads), &ctx, &batch);
        assert_eq!(
            plan::DEDUPED_QUERIES.value() - deduped0,
            2,
            "{threads} threads"
        );
        let expected = oracle(lambda, n_tr, threads);
        for i in [0, 2, 3] {
            assert_eq!(
                served(&answers[i]),
                expected,
                "slot {i} at {threads} threads"
            );
        }
        assert_eq!(
            served(&answers[1]),
            oracle(other.0, other.1, threads),
            "slot 1 at {threads} threads"
        );
    }
}
