//! Wire-codec byte goldens: one pinned serialization per [`Query`] and
//! [`QueryResponse`] variant.
//!
//! The wire format is a compatibility surface — deployed clients parse
//! these exact bytes, and the versioned envelope (`"v": 1`) promises
//! that version 1 bytes never change shape silently. Any diff here is
//! a wire-format change and must be intentional: either bump the
//! protocol version or fix the regression.
//!
//! The `all_variants_are_pinned` matches have no wildcard arm, so
//! adding a `Query`/`QueryResponse` variant fails compilation until a
//! golden is added here.

use maly_model::json;
use maly_model::query::{
    ChipletReport, ChipletSweepReport, LatencyReport, McSummary, MixReport, OptimalReport,
    ProductReport, ProductSpec, Query, QueryResponse, RoadmapRow, StatsReport, SurfaceBody,
    SurfaceReport, SweepPoint, Table3Report,
};

fn spec() -> ProductSpec {
    ProductSpec {
        name: "golden µP".to_string(),
        transistors: 3.1e6,
        lambda_um: 0.8,
        density: 150.0,
        radius_cm: 7.5,
        yield0: 0.9,
        c0: 700.0,
        x: 1.4,
    }
}

fn chiplet_report() -> ChipletReport {
    ChipletReport {
        chiplets: 4,
        spares: 1,
        lambda_um: 1.0,
        transistors_per_chiplet: 5.0e5,
        known_good_die_cost: 6.25,
        assembly_yield: 0.960_596_01,
        system_yield: 0.956_75,
        packaging_cost: 23.0,
        nre_per_system: 7.0,
        cost_per_system: 65.25,
    }
}

/// Every `Query` variant with fixed field values, in declaration
/// order, paired with its pinned wire bytes.
fn query_goldens() -> Vec<(Query, &'static str)> {
    vec![
        (
            Query::Product(spec()),
            "{\"type\":\"product\",\"name\":\"golden µP\",\"transistors\":3100000,\"lambda_um\":0.8,\"density\":150,\"radius_cm\":7.5,\"yield0\":0.9,\"c0\":700,\"x\":1.4}",
        ),
        (
            Query::Table3Row { id: 13 },
            "{\"type\":\"table3_row\",\"id\":13}",
        ),
        (Query::Table3, "{\"type\":\"table3\"}"),
        (
            Query::Scenario1Sweep {
                x: 1.4,
                lambda_min: 0.3,
                lambda_max: 1.2,
                steps: 11,
            },
            "{\"type\":\"scenario1_sweep\",\"x\":1.4,\"lambda_min\":0.3,\"lambda_max\":1.2,\"steps\":11}",
        ),
        (
            Query::Scenario2Sweep {
                x: 2.4,
                lambda_min: 0.3,
                lambda_max: 1.2,
                steps: 11,
            },
            "{\"type\":\"scenario2_sweep\",\"x\":2.4,\"lambda_min\":0.3,\"lambda_max\":1.2,\"steps\":11}",
        ),
        (
            Query::SurfaceTile {
                lambda_min: 0.4,
                lambda_max: 1.5,
                lambda_steps: 8,
                n_tr_min: 2.0e4,
                n_tr_max: 4.0e6,
                n_tr_steps: 6,
            },
            "{\"type\":\"surface_tile\",\"lambda_min\":0.4,\"lambda_max\":1.5,\"lambda_steps\":8,\"n_tr_min\":20000,\"n_tr_max\":4000000,\"n_tr_steps\":6}",
        ),
        (
            Query::OptimalLambda {
                spec: spec(),
                lambda_min: 0.3,
                lambda_max: 1.2,
                steps: 21,
            },
            "{\"type\":\"optimal_lambda\",\"name\":\"golden µP\",\"transistors\":3100000,\"lambda_um\":0.8,\"density\":150,\"radius_cm\":7.5,\"yield0\":0.9,\"c0\":700,\"x\":1.4,\"lambda_min\":0.3,\"lambda_max\":1.2,\"steps\":21}",
        ),
        (
            Query::McYield {
                products: 2,
                volume_each: 1_000.0,
                replications: 10,
                jitter: 0.3,
                seed: 7,
            },
            "{\"type\":\"mc_yield\",\"products\":2,\"volume_each\":1000,\"replications\":10,\"jitter\":0.3,\"seed\":7}",
        ),
        (
            Query::Roadmap {
                from: 1990,
                to: 1994,
            },
            "{\"type\":\"roadmap\",\"from\":1990,\"to\":1994}",
        ),
        (
            Query::ProductMix {
                products: 4,
                volume_each: 1_000.0,
                mono_volume: 50_000.0,
            },
            "{\"type\":\"product_mix\",\"products\":4,\"volume_each\":1000,\"mono_volume\":50000}",
        ),
        (Query::ServerStats, "{\"type\":\"server_stats\"}"),
        (
            Query::ChipletCost {
                transistors: 2.0e6,
                lambda_um: 1.0,
                chiplets: 4,
                spares: 1,
                volume: 50_000,
            },
            "{\"type\":\"chiplet_cost\",\"transistors\":2000000,\"lambda_um\":1,\"chiplets\":4,\"spares\":1,\"volume\":50000}",
        ),
        (
            Query::ChipletPartitionSweep {
                transistors: 2.0e6,
                volume: 50_000,
                lambda_min: 0.5,
                lambda_max: 1.2,
                lambda_steps: 15,
                max_chiplets: 8,
                max_spares: 1,
            },
            "{\"type\":\"chiplet_partition_sweep\",\"transistors\":2000000,\"volume\":50000,\"lambda_min\":0.5,\"lambda_max\":1.2,\"lambda_steps\":15,\"max_chiplets\":8,\"max_spares\":1}",
        ),
    ]
}

/// Every `QueryResponse` variant with fixed field values, in
/// declaration order, paired with its pinned wire bytes.
fn response_goldens() -> Vec<(QueryResponse, &'static str)> {
    vec![
        (
            QueryResponse::Product(ProductReport {
                name: "golden µP".to_string(),
                die_area_cm2: 2.976,
                wafer_cost: 1_780.5,
                dies_per_wafer: 46,
                die_yield: 0.125,
                good_dies_per_wafer: 5.75,
                cost_per_good_die: 309.65,
                cost_per_transistor_micro: 9.4,
            }),
            "{\"kind\":\"product\",\"name\":\"golden µP\",\"die_area_cm2\":2.976,\"wafer_cost\":1780.5,\"dies_per_wafer\":46,\"die_yield\":0.125,\"good_dies_per_wafer\":5.75,\"cost_per_good_die\":309.65,\"cost_per_transistor_micro\":9.4}",
        ),
        (
            QueryResponse::Table3(vec![Table3Report {
                id: 1,
                name: "BiCMOS µP".to_string(),
                paper_micro_dollars: 9.4,
                model_micro_dollars: 9.398,
            }]),
            "{\"kind\":\"table3\",\"rows\":[{\"id\":1,\"name\":\"BiCMOS µP\",\"paper_micro_dollars\":9.4,\"model_micro_dollars\":9.398}]}",
        ),
        (
            QueryResponse::Sweep(vec![
                SweepPoint {
                    lambda_um: 0.5,
                    cost_per_transistor: 1.25e-5,
                },
                SweepPoint {
                    lambda_um: 0.8,
                    cost_per_transistor: 9.4e-6,
                },
            ]),
            "{\"kind\":\"sweep\",\"points\":[[0.5,0.0000125],[0.8,0.0000094]]}",
        ),
        (
            // A surface response carries the body `SurfaceReport::to_json`
            // wrote; this golden pins that writer.
            QueryResponse::Surface(SurfaceBody::from(&SurfaceReport {
                lambda_axis: vec![0.5, 1.0],
                n_tr_axis: vec![1.0e5, 2.0e5],
                values: vec![vec![Some(1.5e-5), None], vec![Some(2.5e-5), Some(3.5e-5)]],
                optimal_lambda_per_n_tr: vec![Some((0.5, 1.5e-5)), None],
                global_minimum: Some((0.5, 1.0e5, 1.5e-5)),
            })),
            "{\"kind\":\"surface\",\"lambda_axis\":[0.5,1],\"n_tr_axis\":[100000,200000],\"values\":[[0.000015,null],[0.000025,0.000035]],\"optimal_lambda_per_n_tr\":[[0.5,0.000015],null],\"global_minimum\":[0.5,100000,0.000015]}",
        ),
        (
            QueryResponse::OptimalLambda(Some(OptimalReport {
                lambda_um: 0.65,
                cost_per_transistor: 8.2e-6,
            })),
            "{\"kind\":\"optimal_lambda\",\"best\":{\"lambda_um\":0.65,\"cost_per_transistor\":0.0000082}}",
        ),
        (
            QueryResponse::Mc(McSummary {
                replications: 10,
                mean_wafer_cost: 2_150.25,
                min_wafer_cost: 1_900.5,
                max_wafer_cost: 2_400.75,
                mean_utilization: 0.85,
                cost_spread: 1.263,
            }),
            "{\"kind\":\"mc\",\"replications\":10,\"mean_wafer_cost\":2150.25,\"min_wafer_cost\":1900.5,\"max_wafer_cost\":2400.75,\"mean_utilization\":0.85,\"cost_spread\":1.263}",
        ),
        (
            QueryResponse::Roadmap(vec![RoadmapRow {
                year: 1994.0,
                lambda_um: 0.5,
                optimistic_micro: 1.8,
                realistic_micro: 3.6,
            }]),
            "{\"kind\":\"roadmap\",\"rows\":[{\"year\":1994,\"lambda_um\":0.5,\"optimistic_micro\":1.8,\"realistic_micro\":3.6}]}",
        ),
        (
            QueryResponse::ProductMix(MixReport {
                mono_cost: 1_000.0,
                multi_cost: 6_800.0,
                cost_ratio: 6.8,
                mono_utilization: 0.9,
                multi_utilization: 0.35,
            }),
            "{\"kind\":\"product_mix\",\"mono_cost\":1000,\"multi_cost\":6800,\"cost_ratio\":6.8,\"mono_utilization\":0.9,\"multi_utilization\":0.35}",
        ),
        (
            QueryResponse::ServerStats(StatsReport {
                work: vec![("model.queries".to_string(), 12)],
                diag: vec![("plan.deduped_queries".to_string(), 3)],
                gauges: vec![("serve.queue_depth".to_string(), -1)],
                latency: vec![LatencyReport {
                    name: "serve.request_ns".to_string(),
                    count: 4,
                    mean_ns: 1_500.0,
                    p50_ns: 1_200.0,
                    p90_ns: 2_000.0,
                    p99_ns: 2_400.0,
                    p999_ns: 2_450.0,
                }],
            }),
            "{\"kind\":\"server_stats\",\"work\":{\"model.queries\":12},\"diag\":{\"plan.deduped_queries\":3},\"gauges\":{\"serve.queue_depth\":-1},\"latency\":{\"serve.request_ns\":{\"count\":4,\"mean_ns\":1500,\"p50_ns\":1200,\"p90_ns\":2000,\"p99_ns\":2400,\"p999_ns\":2450}}}",
        ),
        (
            QueryResponse::Chiplet(chiplet_report()),
            "{\"kind\":\"chiplet\",\"chiplets\":4,\"spares\":1,\"lambda_um\":1,\"transistors_per_chiplet\":500000,\"known_good_die_cost\":6.25,\"assembly_yield\":0.96059601,\"system_yield\":0.95675,\"packaging_cost\":23,\"nre_per_system\":7,\"cost_per_system\":65.25}",
        ),
        (
            QueryResponse::ChipletSweep(ChipletSweepReport {
                evaluated: 240,
                feasible: 240,
                best: chiplet_report(),
                per_chiplet_count: vec![chiplet_report()],
            }),
            "{\"kind\":\"chiplet_sweep\",\"evaluated\":240,\"feasible\":240,\"best\":{\"chiplets\":4,\"spares\":1,\"lambda_um\":1,\"transistors_per_chiplet\":500000,\"known_good_die_cost\":6.25,\"assembly_yield\":0.96059601,\"system_yield\":0.95675,\"packaging_cost\":23,\"nre_per_system\":7,\"cost_per_system\":65.25},\"per_chiplet_count\":[{\"chiplets\":4,\"spares\":1,\"lambda_um\":1,\"transistors_per_chiplet\":500000,\"known_good_die_cost\":6.25,\"assembly_yield\":0.96059601,\"system_yield\":0.95675,\"packaging_cost\":23,\"nre_per_system\":7,\"cost_per_system\":65.25}]}",
        ),
    ]
}

/// Compile-time exhaustiveness: adding a variant to either enum breaks
/// these matches (no wildcard arm), forcing a golden to be added above.
fn query_variant_index(q: &Query) -> usize {
    match q {
        Query::Product(_) => 0,
        Query::Table3Row { .. } => 1,
        Query::Table3 => 2,
        Query::Scenario1Sweep { .. } => 3,
        Query::Scenario2Sweep { .. } => 4,
        Query::SurfaceTile { .. } => 5,
        Query::OptimalLambda { .. } => 6,
        Query::McYield { .. } => 7,
        Query::Roadmap { .. } => 8,
        Query::ProductMix { .. } => 9,
        Query::ServerStats => 10,
        Query::ChipletCost { .. } => 11,
        Query::ChipletPartitionSweep { .. } => 12,
    }
}

fn response_variant_index(r: &QueryResponse) -> usize {
    match r {
        QueryResponse::Product(_) => 0,
        QueryResponse::Table3(_) => 1,
        QueryResponse::Sweep(_) => 2,
        QueryResponse::Surface(_) => 3,
        QueryResponse::OptimalLambda(_) => 4,
        QueryResponse::Mc(_) => 5,
        QueryResponse::Roadmap(_) => 6,
        QueryResponse::ProductMix(_) => 7,
        QueryResponse::ServerStats(_) => 8,
        QueryResponse::Chiplet(_) => 9,
        QueryResponse::ChipletSweep(_) => 10,
    }
}

#[test]
fn every_query_variant_serializes_to_its_pinned_bytes() {
    let goldens = query_goldens();
    // One golden per variant, in declaration order.
    for (i, (q, _)) in goldens.iter().enumerate() {
        assert_eq!(query_variant_index(q), i, "goldens out of order at {i}");
    }
    for (q, expected) in &goldens {
        assert_eq!(&q.to_json().write(), expected, "wire bytes for {q:?}");
    }
}

#[test]
fn every_query_golden_parses_back_to_its_query() {
    for (q, expected) in &query_goldens() {
        let parsed = json::parse(expected).expect("golden bytes parse as JSON");
        assert_eq!(
            &Query::from_json(&parsed).expect("golden bytes decode"),
            q,
            "round trip for {expected}"
        );
    }
}

#[test]
fn every_response_variant_serializes_to_its_pinned_bytes() {
    let goldens = response_goldens();
    for (i, (r, _)) in goldens.iter().enumerate() {
        assert_eq!(response_variant_index(r), i, "goldens out of order at {i}");
    }
    for (r, expected) in &goldens {
        assert_eq!(&r.to_json().write(), expected, "wire bytes for {r:?}");
    }
}

/// `products` outside `1..=MAX_PRODUCTS` fails both fab-economics
/// queries as `invalid-field` with pinned error bytes; the bound itself
/// is accepted.
#[test]
fn products_outside_the_bound_are_rejected_with_pinned_bytes() {
    use maly_model::json::Json;
    use maly_model::query::MAX_PRODUCTS;
    let mc = |products| Query::McYield {
        products,
        volume_each: 1_000.0,
        replications: 2,
        jitter: 0.3,
        seed: 7,
    };
    let mix = |products| Query::ProductMix {
        products,
        volume_each: 1_000.0,
        mono_volume: 50_000.0,
    };
    assert_eq!(MAX_PRODUCTS, 64);
    let zero = "{\"kind\":\"invalid-field\",\"message\":\"invalid field `products`: products 0 outside 1..=64\"}";
    let above = "{\"kind\":\"invalid-field\",\"message\":\"invalid field `products`: products 65 outside 1..=64\"}";
    for (query, expected) in [
        (mc(0), zero),
        (mc(65), above),
        (mix(0), zero),
        (mix(65), above),
    ] {
        let error = query.evaluate().expect_err("products out of bounds");
        let wire = Json::obj(vec![
            ("kind", Json::Str(error.kind().to_string())),
            ("message", Json::Str(error.to_string())),
        ])
        .write();
        assert_eq!(wire, expected, "{query:?}");
    }
    for query in [mc(MAX_PRODUCTS), mix(MAX_PRODUCTS)] {
        assert!(query.evaluate().is_ok(), "{query:?}");
    }
}

/// Queries that reach the Fig 3 die-size trend past its domain (the
/// area underflows to 0 cm² above ~140.6 µm) fail with pinned error
/// bytes where they once panicked: a Scenario #2 window as
/// `invalid-field` on `lambda_max`, and a roadmap whose early years
/// extrapolate λ that far as `unit`. A window just inside the domain
/// answers.
#[test]
fn queries_past_the_die_trend_are_rejected_with_pinned_bytes() {
    use maly_model::error::KIND_REGISTRY;
    use maly_model::json::Json;
    let sweep = |lambda_max| Query::Scenario2Sweep {
        x: 2.0,
        lambda_min: 0.5,
        lambda_max,
        steps: 3,
    };
    let roadmap = Query::Roadmap {
        from: 1800,
        to: 1802,
    };
    for (query, expected) in [
        (
            sweep(200.0),
            "{\"kind\":\"invalid-field\",\"message\":\"invalid field `lambda_max`: the die-size trend has no positive area up to λ = 200 µm: square centimeters must be positive, got 0\"}",
        ),
        (
            roadmap,
            "{\"kind\":\"unit\",\"message\":\"square centimeters must be positive, got 0\"}",
        ),
    ] {
        let error = query.evaluate().expect_err("area underflows");
        assert!(KIND_REGISTRY.contains(&error.kind()));
        let wire = Json::obj(vec![
            ("kind", Json::Str(error.kind().to_string())),
            ("message", Json::Str(error.to_string())),
        ])
        .write();
        assert_eq!(wire, expected, "{query:?}");
    }
    assert!(sweep(140.0).evaluate().is_ok());
}
