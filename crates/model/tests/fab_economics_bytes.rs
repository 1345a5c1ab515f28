//! Computed fab-economics answers pinned byte for byte.
//!
//! `wire_golden.rs` pins each response's *shape* with hand-written
//! values. These goldens pin what the model actually computes for the
//! two fab-economics queries — a Monte Carlo study and the §III.A.d
//! product-mix ladder in the shape perfbench's `serve_heavy` sends — so
//! a change to process flows, fab sizing or the Monte Carlo loop that
//! moves any bit of an answer fails here. Every answer must match at 1,
//! 2 and 8 executor threads, asked alone and inside one batch.

use maly_model::{EvalContext, Query};
use maly_par::Executor;

const THREADS: [usize; 3] = [1, 2, 8];

/// The `mc_yield` request of the wire golden (2 products, 10
/// replications, seed 7) and its `ok` payload.
const MC_YIELD: &str = "{\"kind\":\"mc\",\"replications\":10,\"mean_wafer_cost\":9726.428498295942,\"min_wafer_cost\":7764.425404847994,\"max_wafer_cost\":12523.549100944125,\"mean_utilization\":0.2447534476783193,\"cost_spread\":1.6129395863761666}";

/// `product_mix` `ok` payloads for products 1..=8 at `volume_each` 1000
/// and `mono_volume` 50000.
const PRODUCT_MIX: [&str; 8] = [
    "{\"kind\":\"product_mix\",\"mono_cost\":1032,\"multi_cost\":18400,\"cost_ratio\":17.829457364341085,\"mono_utilization\":0.8582310311006925,\"multi_utilization\":0.0788830130087181}",
    "{\"kind\":\"product_mix\",\"mono_cost\":1032,\"multi_cost\":9200,\"cost_ratio\":8.914728682170542,\"mono_utilization\":0.8582310311006925,\"multi_utilization\":0.17014035446750997}",
    "{\"kind\":\"product_mix\",\"mono_cost\":1032,\"multi_cost\":6133.333333333333,\"cost_ratio\":5.943152454780361,\"mono_utilization\":0.8582310311006925,\"multi_utilization\":0.26497564571698334}",
    "{\"kind\":\"product_mix\",\"mono_cost\":1032,\"multi_cost\":5775,\"cost_ratio\":5.59593023255814,\"mono_utilization\":0.8582310311006925,\"multi_utilization\":0.2648381477954403}",
    "{\"kind\":\"product_mix\",\"mono_cost\":1032,\"multi_cost\":4620,\"cost_ratio\":4.476744186046512,\"mono_utilization\":0.8582310311006925,\"multi_utilization\":0.31669874951502675}",
    "{\"kind\":\"product_mix\",\"mono_cost\":1032,\"multi_cost\":3850,\"cost_ratio\":3.7306201550387597,\"mono_utilization\":0.8582310311006925,\"multi_utilization\":0.37895100616696104}",
    "{\"kind\":\"product_mix\",\"mono_cost\":1032,\"multi_cost\":3485.714285714286,\"cost_ratio\":3.377630121816168,\"mono_utilization\":0.8582310311006925,\"multi_utilization\":0.3702737148546979}",
    "{\"kind\":\"product_mix\",\"mono_cost\":1032,\"multi_cost\":3937.5,\"cost_ratio\":3.815406976744186,\"mono_utilization\":0.8582310311006925,\"multi_utilization\":0.3072592062732841}",
];

/// Every pinned query, paired with its expected `ok` payload.
fn goldens() -> Vec<(Query, &'static str)> {
    let mut goldens = vec![(
        Query::McYield {
            products: 2,
            volume_each: 1_000.0,
            replications: 10,
            jitter: 0.3,
            seed: 7,
        },
        MC_YIELD,
    )];
    for (products, expected) in (1..).zip(PRODUCT_MIX) {
        let query = Query::ProductMix {
            products,
            volume_each: 1_000.0,
            mono_volume: 50_000.0,
        };
        goldens.push((query, expected));
    }
    goldens
}

fn ok_bytes(result: &Result<maly_model::QueryResponse, maly_model::Error>) -> String {
    result.as_ref().expect("query succeeds").to_json().write()
}

#[test]
fn fab_economics_answers_match_their_pinned_bytes_at_1_2_8_threads() {
    let goldens = goldens();
    let batch: Vec<Query> = goldens.iter().map(|(q, _)| q.clone()).collect();
    for threads in THREADS {
        let exec = Executor::with_threads(threads);
        let ctx = EvalContext::new();
        for (query, expected) in &goldens {
            let got = ok_bytes(&query.evaluate_with(&exec, &ctx));
            assert_eq!(&got, expected, "{query:?} at {threads} threads");
        }
        let answers = Query::evaluate_batch(&exec, &ctx, &batch);
        for ((query, expected), answer) in goldens.iter().zip(&answers) {
            assert_eq!(
                &ok_bytes(answer),
                expected,
                "batched {query:?} at {threads} threads"
            );
        }
    }
}
