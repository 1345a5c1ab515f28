//! An independent oracle for surface-tile answers.
//!
//! The tile cache serializes a tile once, when it enters the cache, and
//! every later answer — a warm hit, a fused batch, an in-batch
//! duplicate — copies those bytes. The planned and unplanned batch
//! paths therefore share one body and cannot check each other's
//! writer. This test rebuilds each expected body from scratch instead:
//! a fresh `CostSurface::compute`, a `SurfaceReport` filled from its
//! public accessors, then `SurfaceReport::to_json().write()`. Every
//! served `ok` payload must equal it byte for byte, at 1, 2 and 8
//! executor threads. The cache writes its bodies straight from the grid
//! rather than through that tree, so seeded random windows — with
//! feasible, partly and wholly infeasible cells, past the cache's
//! capacity — check the two writers against each other.

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
        let answers = Query::evaluate_batch(&Executor::with_threads(threads), &ctx, &batch);
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

/// Deterministic uniform sampler (SplitMix64).
struct Sampler(u64);

impl Sampler {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + (hi - lo) * u
    }

    fn steps(&mut self) -> usize {
        2 + (self.next_u64() % 23) as usize
    }
}

/// A window of 2..=24 steps per axis. `N_tr` reaches 10¹⁰, past what
/// the largest λ can fit on the Fig 8 wafer, so some windows hold
/// infeasible cells and some nothing but.
fn random_window(s: &mut Sampler) -> (Range, Range) {
    let lambda_min = s.uniform(0.3, 1.4);
    let lambda = (lambda_min, lambda_min + s.uniform(0.02, 1.0), s.steps());
    let n_tr_min = 10f64.powf(s.uniform(4.0, 9.0));
    let n_tr = (
        n_tr_min,
        n_tr_min * 10f64.powf(s.uniform(0.05, 1.5)),
        s.steps(),
    );
    (lambda, n_tr)
}

#[test]
fn random_windows_match_the_oracle() {
    let _guard = lock();
    let mut s = Sampler(0x5eed_0b0d_1e5);
    let windows: Vec<(Range, Range)> = (0..240).map(|_| random_window(&mut s)).collect();
    let ctx = EvalContext::new();
    let lookups0 = tile_lookups();
    let (mut partial, mut infeasible) = (0, 0);
    // Alternate single queries and planned batches of four, cycling
    // the thread count; 240 windows overfill the cache, so later ones
    // are written into evicted slots.
    for (g, group) in windows.chunks(4).enumerate() {
        let threads = THREADS[g % THREADS.len()];
        let exec = Executor::with_threads(threads);
        let answers: Vec<_> = if g % 2 == 0 {
            group
                .iter()
                .map(|&(l, n)| tile(l, n).evaluate_with(&exec, &ctx))
                .collect()
        } else {
            let batch: Vec<Query> = group.iter().map(|&(l, n)| tile(l, n)).collect();
            Query::evaluate_batch(&exec, &ctx, &batch)
        };
        for (&(lambda, n_tr), answer) in group.iter().zip(&answers) {
            let body = served(answer);
            assert_eq!(
                body,
                oracle(lambda, n_tr, threads),
                "window {lambda:?} × {n_tr:?} at {threads} threads"
            );
            if body.ends_with("\"global_minimum\":null}") {
                infeasible += 1;
            } else if body.contains("null") {
                partial += 1;
            }
        }
    }
    assert!(
        partial >= 20,
        "{partial} windows with some infeasible cells"
    );
    assert!(
        infeasible >= 20,
        "{infeasible} windows with no feasible cell"
    );
    // A second pass answers from whatever the cache kept and recomputes
    // the rest, to the same bytes.
    let exec = Executor::serial();
    for &(lambda, n_tr) in windows.iter().rev().take(80) {
        let answer = tile(lambda, n_tr).evaluate_with(&exec, &ctx);
        assert_eq!(
            served(&answer),
            oracle(lambda, n_tr, 1),
            "{lambda:?} × {n_tr:?}"
        );
    }
    // Each of the 240 + 80 tile queries is one hit or one miss, even
    // where a batch's inserts evict each other.
    assert_eq!(tile_lookups() - lookups0, 320);
}

/// Tile hits plus misses so far.
fn tile_lookups() -> u64 {
    context::TILE_HITS.value() + context::TILE_MISSES.value()
}

#[test]
fn random_batches_on_a_full_cache_count_each_tile_query_once() {
    let _guard = lock();
    let mut s = Sampler(0xf0_11ca_c4e);
    // A pool two and a half caches large, so batches mix warm tiles,
    // several cold ones, tiles evicted earlier and in-batch repeats.
    let pool: Vec<(Range, Range)> = (0..160).map(|_| random_window(&mut s)).collect();
    let ctx = EvalContext::new();
    let serial = Executor::serial();
    for &(l, n) in &pool[..64] {
        assert!(tile(l, n).evaluate_with(&serial, &ctx).is_ok());
    }
    assert_eq!(ctx.cached_tiles(), 64, "the cache is full");
    let (hits0, misses0) = (context::TILE_HITS.value(), context::TILE_MISSES.value());
    let mut sent = 0;
    for b in 0..48 {
        let exec = Executor::with_threads(THREADS[b % THREADS.len()]);
        let len = 1 + (s.next_u64() % 16) as usize;
        let batch: Vec<Query> = (0..len)
            .map(|_| {
                let (l, n) = pool[(s.next_u64() % pool.len() as u64) as usize];
                tile(l, n)
            })
            .collect();
        let answers = Query::evaluate_batch(&exec, &ctx, &batch);
        assert!(answers.iter().all(Result::is_ok), "batch {b}");
        sent += len as u64;
        let (hits, misses) = (
            context::TILE_HITS.value() - hits0,
            context::TILE_MISSES.value() - misses0,
        );
        assert_eq!(
            hits + misses,
            sent,
            "after batch {b}: {hits} hits, {misses} misses"
        );
    }
    assert_eq!(ctx.cached_tiles(), 64);
}

/// Window pairs a tile key quantized to 1 nm in λ and to 1e-6 in
/// `ln N_tr` (clamped at 0) would merge: sub-unit `N_tr` ranges, a
/// 0.4 nm λ shift and a 4e-7 relative `N_tr` shift.
const NEAR_PAIRS: [[(Range, Range); 2]; 3] = [
    [
        ((0.5, 1.0, 6), (0.25, 0.5, 5)),
        ((0.5, 1.0, 6), (0.6, 0.9, 5)),
    ],
    [
        ((0.4, 1.2, 6), (1.0e5, 1.0e6, 5)),
        ((0.4004, 1.2, 6), (1.0e5, 1.0e6, 5)),
    ],
    [
        ((0.5, 1.0, 6), (1.0e5, 1.0e6, 5)),
        ((0.5, 1.0, 6), (1.0e5, 1.000_000_4e6, 5)),
    ],
];

#[test]
fn near_windows_answer_their_own_bytes_on_a_shared_context() {
    let _guard = lock();
    for threads in THREADS {
        let exec = Executor::with_threads(threads);
        // Each window evaluated alone on a fresh context.
        let alone =
            |(l, n): (Range, Range)| served(&tile(l, n).evaluate_with(&exec, &EvalContext::new()));
        for pair in NEAR_PAIRS {
            let expected = pair.map(alone);
            assert_ne!(expected[0], expected[1], "{pair:?} are different windows");
            // Single queries, the second after the first is cached.
            let ctx = EvalContext::new();
            for (&(l, n), want) in pair.iter().zip(&expected) {
                let got = served(&tile(l, n).evaluate_with(&exec, &ctx));
                assert_eq!(&got, want, "single {l:?} × {n:?} at {threads} threads");
            }
            // A batch on a context that already holds the first window.
            let ctx = EvalContext::new();
            assert!(tile(pair[0].0, pair[0].1)
                .evaluate_with(&exec, &ctx)
                .is_ok());
            let warm: Vec<Query> = pair.iter().map(|&(l, n)| tile(l, n)).collect();
            for (answer, want) in Query::evaluate_batch(&exec, &ctx, &warm)
                .iter()
                .zip(&expected)
            {
                assert_eq!(&served(answer), want, "warm batch at {threads} threads");
            }
        }
        // One cold batch holding all three pairs, each window twice.
        let windows: Vec<(Range, Range)> = NEAR_PAIRS.iter().flatten().copied().collect();
        let batch: Vec<Query> = windows
            .iter()
            .chain(&windows)
            .map(|&(l, n)| tile(l, n))
            .collect();
        let answers = Query::evaluate_batch(&exec, &EvalContext::new(), &batch);
        for (k, answer) in answers.iter().enumerate() {
            let window = windows[k % windows.len()];
            assert_eq!(
                served(answer),
                alone(window),
                "batch slot {k}, {window:?} at {threads} threads"
            );
        }
    }
}
