//! Loopback integration tests: a real server on 127.0.0.1, real
//! sockets, and the determinism contract checked byte for byte.
//!
//! Process-wide state (the shared EvalContext and the obs counters) is
//! serialized behind one test mutex so counter deltas are attributable.

use std::sync::{Mutex, MutexGuard, OnceLock};

use maly_model::json::{self, Json};
use maly_model::{EvalContext, Query};
use maly_par::Executor;
use maly_serve::{client, protocol, ServeConfig, Server, ServerHandle};

/// Serializes tests that observe process-global counters or the shared
/// tile cache.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn start(config: ServeConfig) -> (ServerHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind(config).expect("bind 127.0.0.1:0");
    let handle = server.handle().expect("local addr");
    let join = std::thread::spawn(move || server.serve());
    (handle, join)
}

fn request_line(id: f64, query: &Query) -> String {
    Json::obj(vec![("id", Json::Num(id)), ("query", query.to_json())]).write()
}

/// A mixed workload exercising every query family, including one batch
/// line (a JSON array evaluated together on the executor).
fn mixed_workload() -> Vec<String> {
    let spec_line = concat!(
        "{\"id\": 10, \"query\": {\"type\": \"product\", \"name\": \"row1\", ",
        "\"transistors\": 3.1e6, \"lambda_um\": 0.8, \"density\": 150, ",
        "\"yield0\": 0.9, \"c0\": 700, \"x\": 1.4}}"
    )
    .to_string();
    vec![
        spec_line,
        request_line(11.0, &Query::Table3Row { id: 5 }),
        request_line(12.0, &Query::Table3),
        request_line(
            13.0,
            &Query::Scenario1Sweep {
                x: 1.4,
                lambda_min: 0.3,
                lambda_max: 1.2,
                steps: 19,
            },
        ),
        request_line(
            14.0,
            &Query::Scenario2Sweep {
                x: 2.4,
                lambda_min: 0.3,
                lambda_max: 1.2,
                steps: 19,
            },
        ),
        request_line(
            15.0,
            &Query::SurfaceTile {
                lambda_min: 0.45,
                lambda_max: 1.35,
                lambda_steps: 10,
                n_tr_min: 5.0e4,
                n_tr_max: 2.0e6,
                n_tr_steps: 8,
            },
        ),
        request_line(
            16.0,
            &Query::McYield {
                products: 3,
                volume_each: 2_000.0,
                replications: 12,
                jitter: 0.3,
                seed: 99,
            },
        ),
        request_line(
            17.0,
            &Query::Roadmap {
                from: 1990,
                to: 1996,
            },
        ),
        request_line(
            18.0,
            &Query::ProductMix {
                products: 6,
                volume_each: 1_500.0,
                mono_volume: 80_000.0,
            },
        ),
        request_line(
            19.0,
            &Query::ChipletCost {
                transistors: 2.0e6,
                lambda_um: 1.0,
                chiplets: 4,
                spares: 1,
                volume: 50_000,
            },
        ),
        request_line(
            23.0,
            &Query::ChipletPartitionSweep {
                transistors: 2.0e6,
                volume: 50_000,
                lambda_min: 0.5,
                lambda_max: 1.2,
                lambda_steps: 15,
                max_chiplets: 8,
                max_spares: 1,
            },
        ),
        // One batch line: three queries answered as one array line.
        format!(
            "[{}, {}, {}]",
            Json::obj(vec![
                ("id", Json::Num(20.0)),
                ("query", Query::Table3Row { id: 1 }.to_json()),
            ])
            .write(),
            Json::obj(vec![
                ("id", Json::Num(21.0)),
                ("query", Query::Table3Row { id: 2 }.to_json()),
            ])
            .write(),
            Json::obj(vec![
                ("id", Json::Num(22.0)),
                (
                    "query",
                    Query::OptimalLambda {
                        spec: maly_model::query::ProductSpec {
                            name: "opt".to_string(),
                            transistors: 1.0e6,
                            lambda_um: 0.8,
                            density: 150.0,
                            radius_cm: 7.5,
                            yield0: 0.9,
                            c0: 700.0,
                            x: 1.4,
                        },
                        lambda_min: 0.4,
                        lambda_max: 1.2,
                        steps: 33,
                    }
                    .to_json()
                ),
            ])
            .write(),
        ),
    ]
}

/// Direct in-process evaluation of the same workload: the reference
/// bytes every served configuration must reproduce exactly. Array
/// lines are answered by the unplanned oracle
/// [`Query::evaluate_batch_unplanned`], serialized the way
/// [`protocol::handle_line`] serializes a batch, so every served batch
/// is diffed against evaluation without the planner. Both paths answer
/// a surface tile with the body the tile cache serialized once;
/// `maly-model`'s `tile_body_oracle` test checks those bytes against an
/// independent rebuild.
fn direct_reference(lines: &[String]) -> Vec<String> {
    let ctx = EvalContext::new();
    lines
        .iter()
        .map(|line| match json::parse(line) {
            Ok(Json::Arr(items)) => {
                let ids: Vec<Json> = items
                    .iter()
                    .map(|v| v.get("id").cloned().unwrap_or(Json::Null))
                    .collect();
                let queries: Vec<Query> = items
                    .iter()
                    .map(|v| Query::from_json(v.get("query").expect("query field")))
                    .collect::<Result<_, _>>()
                    .expect("workload queries parse");
                let results = Query::evaluate_batch_unplanned(&Executor::serial(), &ctx, &queries);
                let responses = ids
                    .iter()
                    .zip(&results)
                    .map(|(id, result)| protocol::response_json(id, result))
                    .collect();
                Json::Arr(responses).write()
            }
            _ => protocol::handle_line(&ctx, line),
        })
        .collect()
}

#[test]
fn served_responses_are_bit_identical_at_1_2_8_workers() {
    let _guard = lock();
    let lines = mixed_workload();
    let expected = direct_reference(&lines);
    for workers in [1usize, 2, 8] {
        let (handle, join) = start(ServeConfig::default().workers(workers));
        let addr = handle.addr().to_string();
        let got = client::query_lines(&addr, &lines).expect("loopback round trip");
        assert_eq!(
            got, expected,
            "served bytes must match direct evaluation at {workers} workers"
        );
        handle.shutdown();
        join.join().expect("server thread exits cleanly");
    }
}

/// A process-wide `maly-par` scheduling counter (0 before first use).
fn par_counter(name: &str) -> u64 {
    maly_obs::counters_snapshot()
        .iter()
        .find(|c| c.name == name)
        .map_or(0, |c| c.value)
}

/// The heavy request shapes: a cold surface-tile batch, a partition
/// sweep over a 31 × 16 × 4 grid, and a mixed batch. Each is priced
/// well over the executor's sequential cutoff, so a server that
/// evaluated requests on a multi-threaded executor would fan them out.
fn heavy_workload() -> Vec<String> {
    let element =
        |id: f64, q: &Query| Json::obj(vec![("id", Json::Num(id)), ("query", q.to_json())]).write();
    let tile = |id: f64, lambda_min: f64| {
        element(
            id,
            &Query::SurfaceTile {
                lambda_min,
                lambda_max: lambda_min + 0.8,
                lambda_steps: 48,
                n_tr_min: 4.0e4,
                n_tr_max: 3.0e6,
                n_tr_steps: 40,
            },
        )
    };
    let sweep = Query::ChipletPartitionSweep {
        transistors: 3.0e6,
        volume: 80_000,
        lambda_min: 0.5,
        lambda_max: 1.2,
        lambda_steps: 31,
        max_chiplets: 16,
        max_spares: 3,
    };
    vec![
        format!(
            "[{}, {}, {}]",
            tile(1.0, 0.41),
            tile(2.0, 0.47),
            tile(3.0, 0.41)
        ),
        request_line(4.0, &sweep),
        format!(
            "[{}, {}, {}, {}]",
            element(5.0, &Query::Table3),
            element(6.0, &sweep),
            element(
                7.0,
                &Query::McYield {
                    products: 3,
                    volume_each: 2_000.0,
                    replications: 24,
                    jitter: 0.3,
                    seed: 5,
                }
            ),
            tile(8.0, 0.53),
        ),
    ]
}

#[test]
fn serving_heavy_requests_never_fans_out_and_matches_at_1_2_8_workers() {
    let _guard = lock();
    let lines = heavy_workload();
    let expected = direct_reference(&lines);
    for workers in [1usize, 2, 8] {
        let (handle, join) = start(ServeConfig::default().workers(workers));
        let addr = handle.addr().to_string();
        let parallel0 = par_counter("par.parallel_maps");
        let chunks0 = par_counter("par.chunks");
        let got = client::query_lines(&addr, &lines).expect("loopback round trip");
        assert_eq!(
            par_counter("par.parallel_maps"),
            parallel0,
            "a served request fanned out at {workers} workers"
        );
        assert_eq!(par_counter("par.chunks"), chunks0);
        assert_eq!(
            got, expected,
            "served bytes must match direct evaluation at {workers} workers"
        );
        handle.shutdown();
        join.join().expect("server thread exits cleanly");
    }
}

#[test]
fn concurrent_clients_get_correct_interleaved_answers() {
    let _guard = lock();
    let lines = mixed_workload();
    let expected = direct_reference(&lines);
    let (handle, join) = start(ServeConfig::default().workers(4));
    let addr = handle.addr().to_string();
    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for _client in 0..4 {
            let addr = addr.clone();
            let lines = &lines;
            let expected = &expected;
            joins.push(scope.spawn(move || {
                let got = client::query_lines(&addr, lines).expect("round trip");
                assert_eq!(&got, expected);
            }));
        }
        for j in joins {
            j.join().expect("client thread");
        }
    });
    handle.shutdown();
    join.join().expect("server thread exits cleanly");
}

/// A 3 × 3 window no other test requests, distinct for every `k`.
fn sliding_window(k: usize) -> Query {
    let lambda_min = 0.41 + 0.005 * k as f64;
    Query::SurfaceTile {
        lambda_min,
        lambda_max: lambda_min + 0.3,
        lambda_steps: 3,
        n_tr_min: 1.5e5,
        n_tr_max: 1.5e6,
        n_tr_steps: 3,
    }
}

#[test]
fn concurrent_clients_sliding_past_the_cache_match_the_oracle() {
    let _guard = lock();
    // 96 windows, more than the 64 tiles the cache holds, plus a head
    // tile every batch line repeats at both ends.
    const WINDOWS: usize = 96;
    const CLIENTS: usize = 4;
    const PER_LINE: usize = 3;
    let head = sliding_window(WINDOWS);
    // The oracle: each window evaluated alone on a fresh context.
    let oracle: Vec<String> = (0..=WINDOWS)
        .map(|k| {
            let result = sliding_window(k).evaluate_with(&Executor::serial(), &EvalContext::new());
            result.expect("window evaluates").to_json().write()
        })
        .collect();
    let element = |id: usize, q: &Query| {
        Json::obj(vec![("id", Json::Num(id as f64)), ("query", q.to_json())]).write()
    };
    // Client `c` slides over every window from its own offset, so the
    // four streams overlap, evict each other's tiles and race on the
    // same keys. Ids encode the window: id = 1000 × line + window.
    let lines_for = |c: usize| -> Vec<String> {
        (0..WINDOWS / PER_LINE)
            .map(|line| {
                let mut items = vec![element(1000 * line + WINDOWS, &head)];
                for j in 0..PER_LINE {
                    let k = (c * WINDOWS / CLIENTS + line * PER_LINE + j) % WINDOWS;
                    items.push(element(1000 * line + k, &sliding_window(k)));
                }
                items.push(element(1000 * line + WINDOWS, &head));
                format!("[{}]", items.join(", "))
            })
            .collect()
    };
    let sent = (CLIENTS * (WINDOWS / PER_LINE) * (PER_LINE + 2)) as u64;
    let (handle, join) = start(ServeConfig::default().workers(CLIENTS));
    let addr = handle.addr().to_string();
    let ledger = || {
        (
            maly_model::context::TILE_HITS.value() + maly_model::context::TILE_MISSES.value(),
            maly_model::context::TILE_EVICTIONS.value(),
        )
    };
    let (lookups0, evictions0) = ledger();
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (addr, oracle, lines) = (&addr, &oracle, lines_for(c));
                scope.spawn(move || {
                    let got = client::query_lines(addr, &lines).expect("round trip");
                    for (line, response) in got.iter().enumerate() {
                        let Ok(Json::Arr(items)) = json::parse(response) else {
                            panic!("client {c}, line {line}: not an array: {response}");
                        };
                        assert_eq!(items.len(), PER_LINE + 2);
                        for item in &items {
                            let id = item.get("id").and_then(Json::as_f64).expect("id") as usize;
                            let ok = item.get("ok").expect("ok payload").write();
                            assert_eq!(ok, oracle[id % 1000], "client {c}, line {line}, id {id}");
                        }
                    }
                })
            })
            .collect();
        for client in clients {
            client.join().expect("client thread");
        }
    });
    let (lookups, evictions) = ledger();
    assert_eq!(
        lookups - lookups0,
        sent,
        "each tile query is one hit or one miss"
    );
    assert!(evictions > evictions0, "the sweep evicts tiles");
    handle.shutdown();
    join.join().expect("server thread exits cleanly");
}

#[test]
fn malformed_requests_are_rejected_with_typed_errors() {
    let _guard = lock();
    let (handle, join) = start(ServeConfig::default().workers(1));
    let addr = handle.addr().to_string();
    let lines = vec![
        "this is not json".to_string(),
        "{\"id\": 1}".to_string(),
        "{\"id\": 2, \"query\": {\"type\": \"nonsense\"}}".to_string(),
        "{\"id\": 3, \"query\": {\"type\": \"table3_row\", \"id\": 99}}".to_string(),
        "{\"id\": 4, \"query\": {\"type\": \"product\", \"transistors\": \"many\"}}".to_string(),
    ];
    let got = client::query_lines(&addr, &lines).expect("round trip");
    let kinds: Vec<String> = got
        .iter()
        .map(|line| {
            json::parse(line)
                .expect("protocol JSON")
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str)
                .expect("error kind")
                .to_string()
        })
        .collect();
    assert_eq!(
        kinds,
        vec![
            "parse",
            "missing-field",
            "unsupported-query",
            "unknown-table-row",
            "invalid-field",
        ]
    );
    handle.shutdown();
    join.join().expect("server thread exits cleanly");
}

/// A subnormal transistor count underflows the die area to zero; the
/// query layer answers `invalid-field` and the connection keeps serving.
#[test]
fn subnormal_transistor_count_is_an_invalid_field_and_the_connection_survives() {
    let _guard = lock();
    let (handle, join) = start(ServeConfig::default().workers(1));
    let addr = handle.addr().to_string();
    let lines = vec![
        "{\"id\":1,\"query\":{\"type\":\"product\",\"transistors\":5e-324,\
         \"lambda_um\":0.8,\"density\":150,\"yield0\":0.7,\"c0\":700,\"x\":1.4}}"
            .to_string(),
        "{\"id\":2,\"query\":{\"type\":\"table3_row\",\"id\":1}}".to_string(),
    ];
    let got = client::query_lines(&addr, &lines).expect("round trip");
    assert_eq!(got.len(), 2);
    let error = json::parse(&got[0]).expect("protocol JSON");
    let error = error.get("error").expect("error answer");
    assert_eq!(
        error.get("kind").and_then(Json::as_str),
        Some("invalid-field")
    );
    assert!(error
        .get("message")
        .and_then(Json::as_str)
        .is_some_and(|m| m.contains("`transistors`")));
    let ok = client::decode_response(&got[1]).expect("table3_row answers");
    assert_eq!(ok.get("kind").and_then(Json::as_str), Some("table3"));
    handle.shutdown();
    join.join().expect("server thread exits cleanly");
}

/// Sends `line` alone on a fresh connection and returns everything the
/// server writes back before closing, or panics after 5 s of silence.
fn answer_alone(addr: &str, line: &str) -> String {
    use std::io::{Read, Write};
    let mut stream = client::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .expect("read timeout");
    stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("send");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut answer = String::new();
    stream
        .read_to_string(&mut answer)
        .unwrap_or_else(|e| panic!("no answer to {line}: {e}"));
    answer
}

/// A Scenario #2 window whose top lies past the Fig 3 trend's domain
/// (the die area underflows to 0 cm² above ~140.6 µm) is an
/// `invalid-field` on `lambda_max`. Sent twice, once per worker of the
/// default two, it must leave both workers serving.
#[test]
fn scenario2_window_past_the_die_trend_is_an_invalid_field_and_workers_survive() {
    let _guard = lock();
    let (handle, join) = start(ServeConfig::default().workers(2));
    let addr = handle.addr().to_string();
    let found = "{\"type\": \"scenario2_sweep\", \"x\": 2.0, \"lambda_min\": 0.5, \
                 \"lambda_max\": 200.0, \"steps\": 3}";
    let line = format!("{{\"id\": 1, \"query\": {found}}}");
    for _ in 0..2 {
        let answer = answer_alone(&addr, &line);
        assert_eq!(answer.matches('\n').count(), 1, "{answer}");
        let v = json::parse(answer.trim_end()).expect("protocol JSON");
        let error = v.get("error").expect("error answer");
        assert_eq!(
            error.get("kind").and_then(Json::as_str),
            Some("invalid-field")
        );
        assert!(error
            .get("message")
            .and_then(Json::as_str)
            .is_some_and(|m| m.contains("`lambda_max`")));
    }
    let answer = answer_alone(
        &addr,
        "{\"id\": 2, \"query\": {\"type\": \"table3_row\", \"id\": 1}}",
    );
    let ok = client::decode_response(answer.trim_end()).expect("table3_row answers");
    assert_eq!(ok.get("kind").and_then(Json::as_str), Some("table3"));
    handle.shutdown();
    join.join().expect("server thread exits cleanly");
}

#[test]
fn oversized_payloads_are_rejected_and_the_connection_closed() {
    let _guard = lock();
    let (handle, join) = start(ServeConfig::default().workers(1).max_line_bytes(256));
    let addr = handle.addr().to_string();
    let huge = format!(
        "{{\"id\": 1, \"query\": {{\"type\": \"table3\", \"pad\": \"{}\"}}}}",
        "x".repeat(1024)
    );
    let got = client::query_lines(&addr, std::slice::from_ref(&huge)).expect("error line arrives");
    let v = json::parse(&got[0]).expect("protocol JSON");
    assert_eq!(
        v.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("payload-too-large")
    );
    // Best-effort id echo: `"id": 1` sits inside the retained prefix of
    // the oversized line, so the rejection is attributable.
    assert_eq!(
        v.get("id").and_then(Json::as_f64),
        Some(1.0),
        "the id is recovered from the truncated prefix: {got:?}"
    );
    // The server closes after an oversized line: a follow-up on the
    // same connection cannot be answered, but a fresh connection works.
    let again = client::query_lines(&addr, &[request_line(2.0, &Query::Table3Row { id: 1 })])
        .expect("fresh connection serves normally");
    assert!(again[0].contains("\"ok\""));
    handle.shutdown();
    join.join().expect("server thread exits cleanly");
}

#[test]
fn warm_tile_cache_answers_repeat_queries_without_grid_work() {
    let _guard = lock();
    let (handle, join) = start(ServeConfig::default().workers(2));
    let addr = handle.addr().to_string();
    // A window no other test requests, so the first query is a real
    // cache miss attributable to this test.
    let tile = request_line(
        1.0,
        &Query::SurfaceTile {
            lambda_min: 0.55,
            lambda_max: 1.25,
            lambda_steps: 13,
            n_tr_min: 7.0e4,
            n_tr_max: 9.0e5,
            n_tr_steps: 11,
        },
    );
    let before = maly_model::context::TILE_CELLS.value();
    let hits0 = maly_model::context::TILE_HITS.value();
    let misses0 = maly_model::context::TILE_MISSES.value();
    let first = client::query_lines(&addr, std::slice::from_ref(&tile)).expect("cold query");
    let after_cold = maly_model::context::TILE_CELLS.value();
    assert_eq!(
        after_cold - before,
        13 * 11,
        "the cold query evaluates the full grid"
    );
    assert_eq!(
        maly_model::context::TILE_MISSES.value() - misses0,
        1,
        "the cold query is exactly one cache miss"
    );
    assert_eq!(maly_model::context::TILE_HITS.value() - hits0, 0);
    let second = client::query_lines(&addr, std::slice::from_ref(&tile)).expect("warm query");
    assert_eq!(
        maly_model::context::TILE_CELLS.value(),
        after_cold,
        "the warm repeat query adds zero grid-cell work"
    );
    assert_eq!(
        maly_model::context::TILE_HITS.value() - hits0,
        1,
        "the warm repeat query is exactly one cache hit"
    );
    assert_eq!(
        maly_model::context::TILE_MISSES.value() - misses0,
        1,
        "and no further miss"
    );
    assert_eq!(first, second, "warm and cold answers are byte-identical");
    handle.shutdown();
    join.join().expect("server thread exits cleanly");
}

#[test]
fn duplicate_batch_queries_answer_per_id_without_reevaluation() {
    let _guard = lock();
    let (handle, join) = start(ServeConfig::default().workers(2));
    let addr = handle.addr().to_string();
    // A window no other test requests, repeated three times in one
    // array line alongside a duplicated product query.
    let tile = Query::SurfaceTile {
        lambda_min: 0.52,
        lambda_max: 0.92,
        lambda_steps: 7,
        n_tr_min: 8.0e4,
        n_tr_max: 6.0e5,
        n_tr_steps: 6,
    };
    let product = Query::Product(maly_model::query::ProductSpec {
        name: "dup".to_string(),
        transistors: 2.0e6,
        lambda_um: 0.7,
        density: 150.0,
        radius_cm: 7.5,
        yield0: 0.9,
        c0: 700.0,
        x: 1.4,
    });
    let element =
        |id: f64, q: &Query| Json::obj(vec![("id", Json::Num(id)), ("query", q.to_json())]).write();
    let line = format!(
        "[{}, {}, {}, {}, {}]",
        element(1.0, &tile),
        element(2.0, &product),
        element(3.0, &tile),
        element(4.0, &tile),
        element(5.0, &product),
    );
    let cells0 = maly_model::context::TILE_CELLS.value();
    let queries0 = maly_model::context::QUERIES.value();
    let misses0 = maly_model::context::TILE_MISSES.value();
    let hits0 = maly_model::context::TILE_HITS.value();
    let got = client::query_lines(&addr, std::slice::from_ref(&line)).expect("batch line");
    assert_eq!(
        maly_model::context::TILE_CELLS.value() - cells0,
        7 * 6,
        "three identical tile queries evaluate one tile"
    );
    assert_eq!(
        maly_model::context::QUERIES.value() - queries0,
        5,
        "every answered query is on the ledger"
    );
    assert_eq!(
        maly_model::context::TILE_MISSES.value() - misses0,
        1,
        "the first tile query misses"
    );
    assert_eq!(
        maly_model::context::TILE_HITS.value() - hits0,
        2,
        "and its two repeats hit"
    );
    // One response line carrying all five ids, duplicates byte-equal.
    let batch = json::parse(&got[0]).expect("protocol JSON");
    let Json::Arr(elems) = &batch else {
        panic!("batch response must be an array");
    };
    let payload = |i: usize| -> String {
        let v = &elems[i];
        assert_eq!(v.get("id").and_then(Json::as_f64), Some((i + 1) as f64));
        v.get("ok").expect("ok payload").write()
    };
    assert_eq!(payload(0), payload(2), "duplicate tiles answer identically");
    assert_eq!(payload(0), payload(3));
    assert_eq!(payload(1), payload(4), "duplicate products too");
    handle.shutdown();
    join.join().expect("server thread exits cleanly");
}

#[test]
fn request_work_counters_track_lines_and_batches() {
    let _guard = lock();
    let (handle, join) = start(ServeConfig::default().workers(1));
    let addr = handle.addr().to_string();
    let lines = vec![
        request_line(1.0, &Query::Table3Row { id: 1 }),
        format!(
            "[{}, {}]",
            Json::obj(vec![
                ("id", Json::Num(2.0)),
                ("query", Query::Table3Row { id: 2 }.to_json()),
            ])
            .write(),
            Json::obj(vec![
                ("id", Json::Num(3.0)),
                ("query", Query::Table3Row { id: 3 }.to_json()),
            ])
            .write(),
        ),
    ];
    let req_before = protocol::REQUEST_LINES.value();
    let batch_before = protocol::BATCHED_QUERIES.value();
    let queries_before = maly_model::context::QUERIES.value();
    client::query_lines(&addr, &lines).expect("round trip");
    assert_eq!(protocol::REQUEST_LINES.value() - req_before, 2);
    assert_eq!(protocol::BATCHED_QUERIES.value() - batch_before, 2);
    assert_eq!(maly_model::context::QUERIES.value() - queries_before, 3);
    handle.shutdown();
    join.join().expect("server thread exits cleanly");
}

#[test]
fn socket_writes_are_timed_apart_from_serialization() {
    let _guard = lock();
    let was_enabled = maly_obs::enabled();
    maly_obs::set_enabled(true);
    let (handle, join) = start(ServeConfig::default().workers(1));
    let addr = handle.addr().to_string();
    let lines = vec![
        request_line(1.0, &Query::Table3Row { id: 1 }),
        request_line(2.0, &Query::Table3Row { id: 2 }),
        "{not json".to_string(),
    ];
    let socket_before = maly_serve::server::SOCKET_WRITE_NS.count();
    let serialize_before = protocol::WRITE_NS.count();
    let got = client::query_lines(&addr, &lines).expect("round trip");
    // Joining the server lets the last span close before the counts.
    handle.shutdown();
    join.join().expect("server thread exits cleanly");
    maly_obs::set_enabled(was_enabled);
    assert_eq!(got.len(), 3);
    assert!(got[2].contains("\"kind\":\"parse\""), "{}", got[2]);
    // Every response line is one timed socket write; the unparseable
    // line never reaches the serializer's span.
    assert_eq!(
        maly_serve::server::SOCKET_WRITE_NS.count() - socket_before,
        3
    );
    assert_eq!(protocol::WRITE_NS.count() - serialize_before, 2);
}

/// Eq. (4) over a microscopic die: the row sum saturates at `u32::MAX`
/// instead of allocating a chord table per row or summing billions of
/// rows. Each line, alone on its connection, must get exactly one
/// response line within a second.
#[test]
fn microscopic_dies_answer_one_line_within_a_second() {
    use std::io::{Read, Write};
    let _guard = lock();
    let (handle, join) = start(ServeConfig::default().workers(1));
    let addr = handle.addr().to_string();
    let tile = |n_tr_min: &str| {
        format!(
            "{{\"id\": 1, \"query\": {{\"type\": \"surface_tile\", \"lambda_min\": 0.5, \
             \"lambda_max\": 1.0, \"lambda_steps\": 2, \"n_tr_min\": {n_tr_min}, \
             \"n_tr_max\": 1e6, \"n_tr_steps\": 2}}}}"
        )
    };
    let product = |transistors: &str| {
        format!(
            "{{\"id\": 1, \"query\": {{\"type\": \"product\", \"name\": \"speck\", \
             \"transistors\": {transistors}, \"lambda_um\": 0.8, \"density\": 150, \
             \"yield0\": 0.9, \"c0\": 700, \"x\": 1.4}}}}"
        )
    };
    let lines = [
        tile("1e-9"),
        tile("1e-30"),
        tile("1e-300"),
        product("1e-8"),
        product("1e-20"),
    ];
    for line in &lines {
        let started = std::time::Instant::now();
        let mut stream = client::connect(&addr).expect("connect");
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(1)))
            .expect("read timeout");
        stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let mut answer = String::new();
        stream
            .read_to_string(&mut answer)
            .expect("answer within 1 s");
        assert!(
            started.elapsed() < std::time::Duration::from_secs(1),
            "{line}"
        );
        assert_eq!(answer.matches('\n').count(), 1, "{line} -> {answer}");
        let v = json::parse(answer.trim_end()).expect("protocol JSON");
        let ok = v.get("ok").unwrap_or_else(|| panic!("{line} -> {answer}"));
        if let Some(dies) = ok.get("dies_per_wafer") {
            assert_eq!(dies.as_f64(), Some(f64::from(u32::MAX)), "{line}");
        }
    }
    handle.shutdown();
    join.join().expect("server thread exits cleanly");
}

/// Polls `cond` for up to ~2 s; panics (naming `what`) on timeout.
fn wait_until(cond: impl Fn() -> bool, what: &str) {
    for _ in 0..400 {
        if cond() {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    panic!("timed out waiting for {what}");
}

#[test]
fn queue_full_refusals_answer_overloaded_and_count() {
    use maly_serve::server::{INFLIGHT, QUEUE_DEPTH, REFUSED};
    let _guard = lock();
    let (handle, join) = start(ServeConfig::default().workers(1).queue_capacity(1));
    let addr = handle.addr().to_string();
    let refused0 = REFUSED.value();
    // Occupy the single worker: it blocks reading this idle connection.
    let a = client::connect(&addr).expect("first connection");
    wait_until(
        || INFLIGHT.value() >= 1,
        "the worker to pick up the first connection",
    );
    // Fill the one queue slot with a second idle connection.
    let b = client::connect(&addr).expect("second connection");
    wait_until(
        || QUEUE_DEPTH.value() >= 1,
        "the second connection to park in the queue",
    );
    // The third connection finds the queue full: the server answers
    // `overloaded`, closes, and counts the refusal.
    let c = client::connect(&addr).expect("third connection");
    let mut reader = std::io::BufReader::new(c);
    let mut line = String::new();
    std::io::BufRead::read_line(&mut reader, &mut line).expect("refusal line");
    let v = json::parse(line.trim_end()).expect("protocol JSON");
    assert_eq!(
        v.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("overloaded"),
        "{line}"
    );
    assert_eq!(REFUSED.value() - refused0, 1);
    drop(reader);
    drop(a);
    drop(b);
    wait_until(
        || INFLIGHT.value() == 0 && QUEUE_DEPTH.value() == 0,
        "the held connections to drain",
    );
    handle.shutdown();
    join.join().expect("server thread exits cleanly");
}

/// A deterministic workload for the stats goldens: every query family
/// whose Work counters are independent of cache warmth (no surface
/// tiles — `model.tile_cells` only counts cache *misses*, and the
/// process-wide tile cache outlives each per-width server).
fn stats_workload() -> Vec<String> {
    let element =
        |id: f64, q: &Query| Json::obj(vec![("id", Json::Num(id)), ("query", q.to_json())]).write();
    vec![
        request_line(1.0, &Query::Table3Row { id: 1 }),
        request_line(2.0, &Query::Table3),
        request_line(
            3.0,
            &Query::Roadmap {
                from: 1990,
                to: 1994,
            },
        ),
        request_line(
            4.0,
            &Query::McYield {
                products: 2,
                volume_each: 1_500.0,
                replications: 8,
                jitter: 0.25,
                seed: 7,
            },
        ),
        // A duplicate-heavy batch line: dedup fan-out is part of the
        // deterministic work ledger.
        format!(
            "[{}, {}, {}, {}]",
            element(5.0, &Query::Table3Row { id: 2 }),
            element(
                6.0,
                &Query::ProductMix {
                    products: 4,
                    volume_each: 1_200.0,
                    mono_volume: 60_000.0,
                }
            ),
            element(7.0, &Query::Table3Row { id: 2 }),
            element(8.0, &Query::Table3Row { id: 2 }),
        ),
        request_line(9.0, &Query::ServerStats),
    ]
}

#[test]
fn server_stats_work_counters_are_identical_at_1_2_8_workers() {
    let _guard = lock();
    // Warm every once-per-process artifact (calibration fits) before
    // the per-width runs, so the first width doesn't count one-time
    // work the later widths skip.
    Query::Table3
        .evaluate_with(&Executor::serial(), EvalContext::process())
        .expect("warmup");
    let lines = stats_workload();
    let mut sections: Vec<String> = Vec::new();
    for workers in [1usize, 2, 8] {
        maly_obs::reset_metrics();
        let (handle, join) = start(ServeConfig::default().workers(workers));
        let addr = handle.addr().to_string();
        let got = client::query_lines(&addr, &lines).expect("round trip");
        let stats = got.last().expect("stats response");
        let v = json::parse(stats).expect("protocol JSON");
        let ok = v.get("ok").expect("stats ok payload");
        assert_eq!(ok.get("kind").and_then(Json::as_str), Some("server_stats"));
        let work = ok.get("work").expect("work section").write();
        assert!(work.contains("\"model.queries\""), "{work}");
        assert!(work.contains("\"serve.request_lines\""), "{work}");
        sections.push(work);
        handle.shutdown();
        join.join().expect("server thread exits cleanly");
    }
    assert_eq!(
        sections[0], sections[1],
        "work counters must be bit-identical at 1 vs 2 workers"
    );
    assert_eq!(
        sections[0], sections[2],
        "work counters must be bit-identical at 1 vs 8 workers"
    );
}

#[test]
fn shutdown_is_graceful_and_idempotent() {
    let _guard = lock();
    let (handle, join) = start(ServeConfig::default().workers(2));
    let addr = handle.addr().to_string();
    let got = client::query_lines(&addr, &[request_line(1.0, &Query::Table3Row { id: 4 })])
        .expect("round trip before shutdown");
    assert!(got[0].contains("\"ok\""));
    handle.shutdown();
    handle.shutdown(); // second call must be harmless
    join.join().expect("server thread exits cleanly");
}
