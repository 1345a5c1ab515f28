//! Serial vs parallel timing for every sweep hot path, plus the
//! eq. (4) memo — the `BENCH_sweeps.json` baseline.
//!
//! Before timing anything, each comparison asserts the parallel result
//! is **bit-identical** to the serial one: a fast wrong sweep would be
//! worthless. The JSON records `available_parallelism` so a baseline
//! from a single-core container (speedup ≈ 1) is not mistaken for a
//! regression; the memo-cache cold/warm comparison is core-count
//! independent.

use std::hint::black_box;

use maly_bench::harness::{
    bench, bench_pair, group, record_counter, record_per_eval, record_speedup,
    write_json_if_requested,
};
use maly_cost_model::surface::{CostSurface, SurfaceParameters};
use maly_cost_optim::contour::extract_contours_with;
use maly_cost_optim::partition::{optimize_with, SUBSETS_PRICED};
use maly_cost_optim::search::grid_min_with;
use maly_par::Executor;
use maly_units::{Centimeters, DesignDensity, Dollars, Microns, Probability, TransistorCount};
use maly_wafer_geom::{cache, maly, DieDimensions, Wafer};

/// Threads for the "parallel" side: at least 4 so the baseline captures
/// the issue's 4-thread target even when the ambient default is 1.
fn parallel_executor() -> Executor {
    Executor::with_threads(maly_par::default_parallelism().max(4))
}

fn fig8_surface(exec: &Executor) -> CostSurface {
    CostSurface::compute_with(
        exec,
        &SurfaceParameters::fig8(),
        FIG8_WINDOW.0,
        FIG8_WINDOW.1,
    )
}

const FIG8_WINDOW: ((f64, f64, usize), (f64, f64, usize)) = ((0.4, 1.5, 56), (2.0e4, 4.0e6, 48));

/// Same window at 4× the node count. The lane kernels pushed the 56×48
/// scan under the executor's serial cutoff, so this denser grid is the
/// surface record that still demonstrates multi-core scaling (the
/// speedup gate in `xtask bench-check` keys on the best per-group
/// ratio).
const FIG8_WINDOW_DENSE: ((f64, f64, usize), (f64, f64, usize)) =
    ((0.4, 1.5, 112), (2.0e4, 4.0e6, 96));

const CONTOUR_LEVELS: [f64; 5] = [3.0e-6, 1.0e-5, 3.0e-5, 1.0e-4, 3.0e-4];

fn bench_fig8_surface() {
    group("sweeps/fig8_surface");
    let serial_exec = Executor::serial();
    let par_exec = parallel_executor();
    assert_eq!(
        fig8_surface(&serial_exec),
        fig8_surface(&par_exec),
        "parallel surface must be bit-identical to serial"
    );
    let (serial, parallel) = bench_pair(
        "surface_56x48/serial",
        || {
            black_box(fig8_surface(&serial_exec));
        },
        "surface_56x48/parallel",
        || {
            black_box(fig8_surface(&par_exec));
        },
    );
    record_speedup("surface_56x48", serial, parallel);
    let dense = bench("surface_56x48/dense", || {
        black_box(fig8_surface(&serial_exec));
    });
    let points = (FIG8_WINDOW.0 .2 * FIG8_WINDOW.1 .2) as u64;
    record_counter("surface_56x48/eq1_dense_evals", points);
    record_per_eval("surface_56x48_dense", dense, points);

    // The 4×-denser window: big enough that the executor's grain policy
    // fans it out even after the lane-kernel speedup, so this is
    // the record the multi-core speedup gate watches.
    let large = |exec: &Executor| {
        CostSurface::compute_with(
            exec,
            &SurfaceParameters::fig8(),
            FIG8_WINDOW_DENSE.0,
            FIG8_WINDOW_DENSE.1,
        )
    };
    assert_eq!(
        large(&serial_exec),
        large(&par_exec),
        "parallel 112x96 surface must be bit-identical to serial"
    );
    let (serial, parallel) = bench_pair(
        "surface_112x96/serial",
        || {
            black_box(large(&serial_exec));
        },
        "surface_112x96/parallel",
        || {
            black_box(large(&par_exec));
        },
    );
    record_speedup("surface_112x96", serial, parallel);
    let points = (FIG8_WINDOW_DENSE.0 .2 * FIG8_WINDOW_DENSE.1 .2) as u64;
    record_per_eval("surface_112x96_dense", serial, points);
}

fn bench_contours() {
    group("sweeps/contours");
    let surface = fig8_surface(&Executor::serial());
    let levels = CONTOUR_LEVELS;
    let serial_exec = Executor::serial();
    let par_exec = parallel_executor();
    assert_eq!(
        extract_contours_with(&serial_exec, &surface, &levels),
        extract_contours_with(&par_exec, &surface, &levels),
        "parallel contours must be bit-identical to serial"
    );
    let (serial, parallel) = bench_pair(
        "contours_5_levels/serial",
        || {
            black_box(extract_contours_with(&serial_exec, &surface, &levels));
        },
        "contours_5_levels/parallel",
        || {
            black_box(extract_contours_with(&par_exec, &surface, &levels));
        },
    );
    record_speedup("contours_5_levels", serial, parallel);

    // The same levels over the 4×-denser window: allocation-free
    // marching put the 56x48 march near the executor's serial cutoff,
    // so this is the contour record the multi-core speedup gate
    // watches.
    let large = CostSurface::compute_with(
        &serial_exec,
        &SurfaceParameters::fig8(),
        FIG8_WINDOW_DENSE.0,
        FIG8_WINDOW_DENSE.1,
    );
    assert_eq!(
        extract_contours_with(&serial_exec, &large, &levels),
        extract_contours_with(&par_exec, &large, &levels),
        "parallel 112x96 contours must be bit-identical to serial"
    );
    let (serial, parallel) = bench_pair(
        "contours_5_levels_112x96/serial",
        || {
            black_box(extract_contours_with(&serial_exec, &large, &levels));
        },
        "contours_5_levels_112x96/parallel",
        || {
            black_box(extract_contours_with(&par_exec, &large, &levels));
        },
    );
    record_speedup("contours_5_levels_112x96", serial, parallel);
    record_counter(
        "contours_5_levels/total_cells",
        ((FIG8_WINDOW.0 .2 - 1) * (FIG8_WINDOW.1 .2 - 1)) as u64,
    );
}

fn bench_partition_search() {
    use maly_cost_model::system::{ManufacturingContext, Partition, SystemDesign};
    use maly_cost_model::WaferCostModel;

    group("sweeps/partition");
    let part = |name: &str, n_tr: f64, d_d: f64| {
        Partition::new(
            name,
            TransistorCount::new(n_tr).expect("positive"),
            DesignDensity::new(d_d).expect("positive"),
        )
    };
    let system = SystemDesign::new(vec![
        part("dram", 4.0e6, 35.0),
        part("logic", 0.8e6, 300.0),
        part("io", 0.1e6, 600.0),
        part("analog", 0.2e6, 450.0),
        part("cache", 1.5e6, 60.0),
    ])
    .expect("non-empty");
    let context = ManufacturingContext {
        wafer: Wafer::six_inch(),
        reference_yield: Probability::new(0.7).expect("valid"),
        wafer_cost: WaferCostModel::new(Dollars::new(700.0).expect("valid"), 1.8).expect("valid"),
        per_die_overhead: Dollars::new(5.0).expect("valid"),
    };
    let ladder: Vec<Microns> = [1.0, 0.8, 0.65, 0.5]
        .iter()
        .map(|&l| Microns::new(l).expect("positive"))
        .collect();

    let serial_exec = Executor::serial();
    let par_exec = parallel_executor();
    assert_eq!(
        optimize_with(&serial_exec, &system, &context, &ladder).expect("feasible"),
        optimize_with(&par_exec, &system, &context, &ladder).expect("feasible"),
        "parallel partition search must be bit-identical to serial"
    );
    // Work-counter delta from one controlled run: each of the 2^5 − 1
    // die subsets is priced once, diffed exactly by bench-check.
    let subsets0 = SUBSETS_PRICED.value();
    black_box(optimize_with(&serial_exec, &system, &context, &ladder).expect("feasible"));
    record_counter(
        "partition_bell5_x4/subsets_priced",
        SUBSETS_PRICED.value() - subsets0,
    );
    let (serial, parallel) = bench_pair(
        "partition_bell5_x4/serial",
        || {
            black_box(optimize_with(&serial_exec, &system, &context, &ladder).expect("feasible"));
        },
        "partition_bell5_x4/parallel",
        || {
            black_box(optimize_with(&par_exec, &system, &context, &ladder).expect("feasible"));
        },
    );
    record_speedup("partition_bell5_x4", serial, parallel);
}

fn bench_grid_min() {
    group("sweeps/grid_min");
    let scenario = maly_bench::standard_product();
    let f = |l: f64| {
        Microns::new(l)
            .ok()
            .and_then(|lambda| scenario.evaluate_at(lambda).ok())
            .map_or(f64::INFINITY, |b| b.cost_per_transistor.value())
    };
    let serial_exec = Executor::serial();
    let par_exec = parallel_executor();
    let s = grid_min_with(&serial_exec, f, 0.4, 1.5, 481);
    let p = grid_min_with(&par_exec, f, 0.4, 1.5, 481);
    assert_eq!(s.0.to_bits(), p.0.to_bits(), "tie-break must match serial");
    assert_eq!(s.1.to_bits(), p.1.to_bits(), "tie-break must match serial");
    let (serial, parallel) = bench_pair(
        "lambda_grid_481/serial",
        || {
            black_box(grid_min_with(&serial_exec, f, 0.4, 1.5, 481));
        },
        "lambda_grid_481/parallel",
        || {
            black_box(grid_min_with(&par_exec, f, 0.4, 1.5, 481));
        },
    );
    record_speedup("lambda_grid_481", serial, parallel);
}

fn bench_mc() {
    use maly_fabline_sim::cost::FabEconomics;
    use maly_fabline_sim::mc::{run_with, McConfig};
    use maly_fabline_sim::process::ProcessFlow;

    group("sweeps/mc");
    let economics = FabEconomics::default();
    let demand = vec![
        (ProcessFlow::for_generation("cmos-0.8", 0.8), 20_000.0),
        (ProcessFlow::for_generation("cmos-1.2", 1.2), 5_000.0),
    ];
    let config = McConfig {
        replications: 64,
        ..McConfig::default()
    };
    let serial_exec = Executor::serial();
    let par_exec = parallel_executor();
    assert_eq!(
        run_with(&serial_exec, &economics, &demand, &config).expect("valid MC config"),
        run_with(&par_exec, &economics, &demand, &config).expect("valid MC config"),
        "parallel MC study must be bit-identical to serial"
    );
    let (serial, parallel) = bench_pair(
        "mc_yield_64/serial",
        || {
            black_box(run_with(&serial_exec, &economics, &demand, &config).expect("valid config"));
        },
        "mc_yield_64/parallel",
        || {
            black_box(run_with(&par_exec, &economics, &demand, &config).expect("valid config"));
        },
    );
    record_speedup("mc_yield_64", serial, parallel);
    record_per_eval(
        "mc_yield_64_replication",
        serial,
        config.replications as u64,
    );
}

fn bench_fused_batch() {
    use maly_model::{plan, EvalContext, Query};

    group("sweeps/fused_batch");
    // The ISSUE 8 acceptance batch: four λ windows sliding by half a
    // window over a shared N_tr range. Dyadic endpoints land the 9-step
    // axes on bit-identical λ = k/16 rows, so of the 864 requested
    // cells only 360 are unique — the fused path evaluates exactly
    // those.
    let batch: Vec<Query> = [0.5, 0.625, 0.75, 0.875]
        .iter()
        .map(|&lo| Query::SurfaceTile {
            lambda_min: lo,
            lambda_max: lo + 0.5,
            lambda_steps: 9,
            n_tr_min: 2.0e4,
            n_tr_max: 4.0e6,
            n_tr_steps: 24,
        })
        .collect();
    let exec = Executor::serial();
    // Correctness before timing: the fused batch must be byte-identical
    // to the unfused one.
    let fused_out = Query::evaluate_batch(&exec, &EvalContext::new(), &batch);
    let unfused_out = Query::evaluate_batch_unplanned(&exec, &EvalContext::new(), &batch);
    assert_eq!(fused_out.len(), unfused_out.len());
    for (f, u) in fused_out.iter().zip(&unfused_out) {
        let bytes = |r: &Result<maly_model::QueryResponse, maly_model::Error>| match r {
            Ok(resp) => resp.to_json().write(),
            Err(e) => format!("err:{e:?}"),
        };
        assert_eq!(bytes(f), bytes(u), "fusion must not change bytes");
    }
    // Plan counters from one controlled run (fresh context, so every
    // tile is cold): deterministic, diffed exactly by bench-check.
    let requested0 = plan::NODES_REQUESTED.value();
    let evaluated0 = plan::NODES_EVALUATED.value();
    let dispatches0 = plan::FUSED_DISPATCHES.value();
    black_box(Query::evaluate_batch(&exec, &EvalContext::new(), &batch));
    record_counter(
        "batch_4tiles/plan_nodes_requested",
        plan::NODES_REQUESTED.value() - requested0,
    );
    record_counter(
        "batch_4tiles/plan_nodes_evaluated",
        plan::NODES_EVALUATED.value() - evaluated0,
    );
    record_counter(
        "batch_4tiles/plan_fused_dispatches",
        plan::FUSED_DISPATCHES.value() - dispatches0,
    );
    // Fresh context per iteration: this measures the cold-batch cost
    // the plan exists to cut, at one thread, so the ratio is pure work
    // elimination rather than scheduling.
    let (unfused, fused) = bench_pair(
        "batch_4tiles/unfused",
        || {
            black_box(Query::evaluate_batch_unplanned(
                &exec,
                &EvalContext::new(),
                &batch,
            ));
        },
        "batch_4tiles/fused",
        || {
            black_box(Query::evaluate_batch(&exec, &EvalContext::new(), &batch));
        },
    );
    record_speedup("batch_4tiles_unfused_vs_fused", unfused, fused);
}

fn bench_chiplet() {
    use maly_chiplet::{ChipletParameters, SweepSpec, DIE_POINTS, PARTITIONS};

    group("sweeps/chiplet");
    let params = ChipletParameters::fig8_mcm();
    // A denser grid than the ISSUE 10 reference (31 λ × 16 n × 4 s)
    // so the candidate loop is worth scheduling across cores.
    let spec = SweepSpec {
        system_transistors: TransistorCount::new(2.0e6).expect("positive"),
        volume: 50_000,
        lambda_min: Microns::new(0.5).expect("positive"),
        lambda_max: Microns::new(1.2).expect("positive"),
        lambda_steps: 31,
        max_chiplets: 16,
        max_spares: 3,
    };
    let serial_exec = Executor::serial();
    let par_exec = parallel_executor();
    // Correctness before timing: the parallel partition search must be
    // bit-identical to the serial one.
    assert_eq!(
        params.sweep(&spec, &serial_exec).expect("feasible sweep"),
        params.sweep(&spec, &par_exec).expect("feasible sweep"),
        "parallel partition sweep must be bit-identical to serial"
    );
    // Work-counter deltas from one controlled run: deterministic grid
    // size, diffed exactly by bench-check.
    let partitions0 = PARTITIONS.value();
    let die_points0 = DIE_POINTS.value();
    black_box(params.sweep(&spec, &serial_exec).expect("feasible sweep"));
    record_counter(
        "partition_sweep_31x16x4/chiplet_partitions",
        PARTITIONS.value() - partitions0,
    );
    record_counter(
        "partition_sweep_31x16x4/chiplet_die_points",
        DIE_POINTS.value() - die_points0,
    );
    let (serial, parallel) = bench_pair(
        "partition_sweep_31x16x4/serial",
        || {
            black_box(params.sweep(&spec, &serial_exec).expect("feasible sweep"));
        },
        "partition_sweep_31x16x4/parallel",
        || {
            black_box(params.sweep(&spec, &par_exec).expect("feasible sweep"));
        },
    );
    record_speedup("partition_sweep_31x16x4", serial, parallel);
}

fn bench_eq4_cache() {
    group("eq4_cache");
    let wafer = Wafer::six_inch();
    let dies: Vec<DieDimensions> = (0..64)
        .map(|i| {
            let side = Centimeters::new(0.3 + 0.02 * f64::from(i)).expect("positive side");
            DieDimensions::square(side)
        })
        .collect();
    // Cold empties the process-wide memo and prices one batch through
    // it: every lookup misses, computes eq. (4) and inserts. Warm
    // repeats the batch, which every cold sample leaves stored, so every
    // lookup hits.
    cache::clear();
    let direct = maly::dies_per_wafer_batch(&wafer, &dies);
    assert_eq!(cache::dies_per_wafer_batch(&wafer, &dies), direct);
    assert_eq!(cache::dies_per_wafer_batch(&wafer, &dies), direct);
    let n = dies.len() as u64;
    assert_eq!(cache::stats(), cache::CacheStats { hits: n, misses: n });
    let (cold, warm) = bench_pair(
        "dies_per_wafer_64_dies/cold",
        || {
            cache::clear();
            black_box(cache::dies_per_wafer_batch(&wafer, &dies));
        },
        "dies_per_wafer_64_dies/warm",
        || {
            black_box(cache::dies_per_wafer_batch(&wafer, &dies));
        },
    );
    record_speedup("dies_per_wafer_64_dies_cold_vs_warm", cold, warm);
}

fn bench_obs_work() {
    use maly_fabline_sim::cost::FabEconomics;
    use maly_fabline_sim::mc::{run_with, McConfig};
    use maly_fabline_sim::process::ProcessFlow;

    group("obs/work");
    // Controlled serial workload on a clean slate: the snapshot must
    // reflect exactly one dense 56x48 surface and one MC study, not
    // whatever iteration counts the timed benches above calibrated to.
    // Only Work-kind counters land in the baseline — they are
    // thread-count-invariant and deterministic; Diag counters (par
    // scheduling) legitimately vary by machine.
    maly_obs::reset_metrics();
    let serial_exec = Executor::serial();
    black_box(fig8_surface(&serial_exec));
    let economics = FabEconomics::default();
    let demand = vec![
        (ProcessFlow::for_generation("cmos-0.8", 0.8), 20_000.0),
        (ProcessFlow::for_generation("cmos-1.2", 1.2), 5_000.0),
    ];
    let config = McConfig {
        replications: 64,
        ..McConfig::default()
    };
    black_box(run_with(&serial_exec, &economics, &demand, &config).expect("valid MC config"));
    for c in maly_obs::counters_snapshot() {
        if c.kind == maly_obs::CounterKind::Work {
            record_counter(&format!("obs/{}", c.name), c.value);
        }
    }
}

fn main() {
    bench_fig8_surface();
    bench_contours();
    bench_partition_search();
    bench_grid_min();
    bench_mc();
    bench_fused_batch();
    bench_chiplet();
    bench_eq4_cache();
    bench_obs_work();
    write_json_if_requested();
}
