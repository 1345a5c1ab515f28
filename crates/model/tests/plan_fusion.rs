//! The batch planner's contracts, checked from counters and bytes:
//!
//! * **A cold batch prices exactly the cells asked for.** Each cold
//!   tile of a 4-tile batch is priced once, as the dense surface of its
//!   own window: `plan.nodes_requested`, `plan.nodes_evaluated` and the
//!   eq. (1) cell counter all read the 864 cells the four tiles hold,
//!   and the batch counts one `plan.fused_dispatches`, proven from Work
//!   counters rather than wall clock.
//! * **Batching changes no bytes.** Randomized batches (overlapping
//!   tiles, float-noise near-duplicates, exact duplicates, a tall
//!   3 × 512 tile priced in two λ-row blocks, non-tile queries) answer
//!   bit-identically to sequential per-query evaluation, at 1, 2, and
//!   8 executor threads, and move the tile hit, miss and cell counters
//!   exactly as the unplanned path does.
//! * **Every query is counted once.** A mixed batch requests and
//!   evaluates one node per non-tile query, duplicates included.
//!
//! The workspace builds offline with no external crates, so the
//! property runs over deterministic SplitMix64 samples.

use std::sync::{Mutex, MutexGuard, PoisonError};

use maly_cost_model::surface::EQ1_CELLS;
use maly_model::query::ProductSpec;
use maly_model::{context, plan};
use maly_model::{EvalContext, Query};
use maly_obs::Counter;
use maly_par::Executor;

/// Counters are process-global; serialize the tests in this binary.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Four λ windows sliding by half a window over a shared `N_tr` range:
/// 4·9·24 = 864 cells. The dyadic endpoints put the 9-step linear axes
/// on bit-identical λ = k/16 grid values, so the windows share rows,
/// which the batch prices once per tile all the same.
fn overlapping_tiles() -> Vec<Query> {
    [0.5, 0.625, 0.75, 0.875]
        .iter()
        .map(|&lo| Query::SurfaceTile {
            lambda_min: lo,
            lambda_max: lo + 0.5,
            lambda_steps: 9,
            n_tr_min: 2.0e4,
            n_tr_max: 4.0e6,
            n_tr_steps: 24,
        })
        .collect()
}

fn response_bytes(r: &Result<maly_model::QueryResponse, maly_model::Error>) -> String {
    match r {
        Ok(resp) => resp.to_json().write(),
        Err(e) => format!("err:{e:?}"),
    }
}

#[test]
fn cold_batch_prices_its_cells_in_one_dispatch() {
    let _guard = lock();
    // Building the process-wide context computes the 56×48 Fig 8
    // report surface; force it now so deltas below see only the batch.
    let _ = maly_model::shared();
    let batch = overlapping_tiles();
    let exec = Executor::serial();
    let unplanned = Query::evaluate_batch_unplanned(&exec, &EvalContext::new(), &batch);
    let (planned, delta) = deltas(
        [
            &plan::NODES_REQUESTED,
            &plan::NODES_EVALUATED,
            &EQ1_CELLS,
            &plan::FUSED_DISPATCHES,
        ],
        || Query::evaluate_batch(&exec, &EvalContext::new(), &batch),
    );
    assert_eq!(
        delta,
        [864, 864, 864, 1],
        "nodes requested, nodes evaluated, eq1 cells, dispatches"
    );
    let unplanned: Vec<String> = unplanned.iter().map(response_bytes).collect();
    assert_eq!(planned, unplanned, "batching changed bytes");
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

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + (hi - lo) * u
    }
}

fn random_query(s: &mut Sampler) -> Query {
    match s.below(7) {
        0 | 1 => {
            // Overlapping dyadic windows: tiles that share λ rows.
            let lo = 0.5 + 0.125 * s.below(4) as f64;
            Query::SurfaceTile {
                lambda_min: lo,
                lambda_max: lo + 0.5,
                lambda_steps: 5 + 2 * s.below(3) as usize,
                n_tr_min: 2.0e4,
                n_tr_max: 4.0e6,
                n_tr_steps: 8,
            }
        }
        2 => {
            // Arbitrary window, sometimes shifted by float noise: a
            // window of its own, with a tile key of its own.
            let lo = s.uniform(0.45, 0.9);
            let noise = if s.below(2) == 0 { 1.0e-10 } else { 0.0 };
            Query::SurfaceTile {
                lambda_min: lo + noise,
                lambda_max: lo + 0.4,
                lambda_steps: 6,
                n_tr_min: 1.0e5,
                n_tr_max: 2.0e6,
                n_tr_steps: 7,
            }
        }
        3 => Query::Product(ProductSpec {
            name: "prop".to_string(),
            transistors: s.uniform(1.0e5, 5.0e6),
            lambda_um: s.uniform(0.5, 1.2),
            density: 150.0,
            radius_cm: 7.5,
            yield0: 0.9,
            c0: 700.0,
            x: 1.4,
        }),
        4 => Query::Table3Row {
            id: 1 + s.below(17) as u8,
        },
        5 => {
            // A tall 3 × 512 tile: two rows fill one 1024-cell block, so
            // it prices in two λ-row blocks.
            let lo = s.uniform(0.4, 0.8);
            Query::SurfaceTile {
                lambda_min: lo,
                lambda_max: lo + 0.6,
                lambda_steps: 3,
                n_tr_min: 2.0e4,
                n_tr_max: 4.0e6,
                n_tr_steps: 512,
            }
        }
        _ => Query::Scenario1Sweep {
            x: 1.4,
            lambda_min: 0.4,
            lambda_max: 1.0,
            steps: 5 + s.below(4) as usize,
        },
    }
}

/// A batch's response bytes with the deltas of `counters` it caused.
fn deltas<const N: usize>(
    counters: [&Counter; N],
    run: impl FnOnce() -> Vec<Result<maly_model::QueryResponse, maly_model::Error>>,
) -> (Vec<String>, [u64; N]) {
    let before = counters.map(Counter::value);
    let bytes = run().iter().map(response_bytes).collect();
    let mut delta = counters.map(Counter::value);
    delta.iter_mut().zip(before).for_each(|(d, b)| *d -= b);
    (bytes, delta)
}

#[test]
fn planned_batches_match_sequential_evaluation_at_1_2_8_threads() {
    let _guard = lock();
    let mut s = Sampler(0x5EED_0F00D);
    let mut tall_tiles = 0;
    for round in 0..6u32 {
        let mut batch: Vec<Query> = (0..8).map(|_| random_query(&mut s)).collect();
        tall_tiles += batch
            .iter()
            .filter(|q| {
                matches!(
                    q,
                    Query::SurfaceTile {
                        n_tr_steps: 512,
                        ..
                    }
                )
            })
            .count();
        // Exact duplicates: copy a few batch-mates verbatim.
        for _ in 0..3 {
            let src = s.below(batch.len() as u64) as usize;
            batch.push(batch[src].clone());
        }
        // Reference: sequential left-to-right per-query evaluation on
        // one shared fresh context — what a naive client would do.
        let serial = Executor::serial();
        let ref_ctx = EvalContext::new();
        let reference: Vec<String> = batch
            .iter()
            .map(|q| response_bytes(&q.evaluate_with(&serial, &ref_ctx)))
            .collect();
        // The tile ledger counts each tile query once either way.
        let ledger = [
            &context::TILE_HITS,
            &context::TILE_MISSES,
            &context::TILE_CELLS,
        ];
        let planned = deltas(ledger, || {
            Query::evaluate_batch(&serial, &EvalContext::new(), &batch)
        });
        let unplanned = deltas(ledger, || {
            Query::evaluate_batch_unplanned(&serial, &EvalContext::new(), &batch)
        });
        assert_eq!(planned.0, reference, "round {round}");
        assert_eq!(unplanned.0, reference, "round {round}");
        assert_eq!(planned.1, unplanned.1, "round {round}: hits, misses, cells");
        for threads in [1usize, 2, 8] {
            let got = Query::evaluate_batch(
                &Executor::with_threads(threads),
                &EvalContext::new(),
                &batch,
            );
            assert_eq!(got.len(), batch.len());
            for (i, r) in got.iter().enumerate() {
                assert_eq!(
                    response_bytes(r),
                    reference[i],
                    "round {round}, {threads} threads, slot {i}: {:?}",
                    batch[i]
                );
            }
        }
    }
    assert!(tall_tiles > 0, "the sample draws a tall tile");
}

#[test]
fn mixed_batch_counts_every_query_once() {
    let _guard = lock();
    let _ = maly_model::shared();
    let product = Query::Product(ProductSpec {
        name: "mixed".to_string(),
        transistors: 2.0e6,
        lambda_um: 0.7,
        density: 150.0,
        radius_cm: 7.5,
        yield0: 0.9,
        c0: 700.0,
        x: 1.4,
    });
    let batch = vec![
        product.clone(),
        overlapping_tiles().remove(0),
        product,
        Query::ProductMix {
            products: 4,
            volume_each: 1.0e5,
            mono_volume: 4.0e5,
        },
    ];
    let (bytes, delta) = deltas(
        [
            &plan::NODES_REQUESTED,
            &plan::NODES_EVALUATED,
            &plan::FUSED_DISPATCHES,
            &context::QUERIES,
        ],
        || Query::evaluate_batch(&Executor::serial(), &EvalContext::new(), &batch),
    );
    assert!(bytes.iter().all(|b| !b.starts_with("err:")), "{bytes:?}");
    assert_eq!(
        delta,
        [3 + 9 * 24, 3 + 9 * 24, 1, 4],
        "nodes requested, nodes evaluated, fused dispatches, queries"
    );
}
