//! Smoke test for the parallel-slower-than-serial regression: every
//! sweep entry point must run at least ~as fast on the parallel
//! executor as on the serial one (speedup ≥ 0.95), at any core count.
//!
//! No call site tunes its executor: `Executor::map_indexed` prices each
//! map by timing its first items and fans out only past the sequential
//! cutoff, and backs off while fan-out loses on the host. Small sweeps
//! therefore run the serial loop on both sides, and only measurement
//! noise separates them. The sites at the end never had a per-site
//! hint (the chiplet partition sweep, Monte Carlo, a planned batch), so
//! they are checked here too. To keep CPU-throttle drift from failing
//! the test spuriously, the serial and parallel sides are sampled
//! **interleaved** (throttle phases then hit both sides alike) and the
//! comparison retries a few times, asserting only on repeated failure.

use std::hint::black_box;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use maly_cost_model::surface::{CostSurface, SurfaceParameters};
use maly_cost_optim::contour::extract_contours_with;
use maly_cost_optim::search::grid_min_with;
use maly_par::Executor;

const MIN_SPEEDUP: f64 = 0.95;
const ATTEMPTS: usize = 4;
const REPS: usize = 8;

/// Interleaved serial-vs-parallel timing: alternates the two sides
/// rep by rep and returns `serial_total / parallel_total`.
fn interleaved_speedup(mut serial: impl FnMut(), mut parallel: impl FnMut()) -> f64 {
    // One warmup per side so lazy init (thread pools, memo caches)
    // lands outside the measurement.
    serial();
    parallel();
    let mut serial_total = 0.0f64;
    let mut parallel_total = 0.0f64;
    for _ in 0..REPS {
        let t = Instant::now();
        serial();
        serial_total += t.elapsed().as_secs_f64();
        let t = Instant::now();
        parallel();
        parallel_total += t.elapsed().as_secs_f64();
    }
    serial_total / parallel_total.max(f64::MIN_POSITIVE)
}

/// Retries the interleaved comparison, passing as soon as one attempt
/// clears [`MIN_SPEEDUP`]; panics with the last ratio otherwise.
///
/// Comparisons hold one lock, so the tests of this binary time one
/// pair at a time: another test's threads competing for the cores
/// would land on whichever side happened to overlap them.
fn assert_not_slower(label: &str, mut serial: impl FnMut(), mut parallel: impl FnMut()) {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    let mut last = 0.0;
    for _ in 0..ATTEMPTS {
        last = interleaved_speedup(&mut serial, &mut parallel);
        if last >= MIN_SPEEDUP {
            return;
        }
    }
    panic!(
        "{label}: parallel executor is slower than serial \
         (speedup {last:.3} < {MIN_SPEEDUP}) in every attempt"
    );
}

/// The parallel side mirrors the bench baseline: at least 4 threads so
/// the executor's own grain policy — not a lucky 1-thread ambient
/// default — is what keeps small sweeps off extra threads.
fn parallel_executor() -> Executor {
    Executor::with_threads(maly_par::default_parallelism().max(4))
}

#[test]
fn fig8_surface_parallel_not_slower() {
    let serial = Executor::serial();
    let parallel = parallel_executor();
    let window = ((0.4, 1.5, 40), (2.0e4, 4.0e6, 32));
    let compute = |exec: &Executor| {
        black_box(CostSurface::compute_with(
            exec,
            &SurfaceParameters::fig8(),
            window.0,
            window.1,
        ));
    };
    assert_not_slower("fig8_surface", || compute(&serial), || compute(&parallel));
}

#[test]
fn contours_parallel_not_slower() {
    let surface = CostSurface::compute_with(
        &Executor::serial(),
        &SurfaceParameters::fig8(),
        (0.4, 1.5, 40),
        (2.0e4, 4.0e6, 32),
    );
    let levels = [3.0e-6, 1.0e-5, 3.0e-5, 1.0e-4];
    let serial = Executor::serial();
    let parallel = parallel_executor();
    assert_not_slower(
        "contours",
        || {
            black_box(extract_contours_with(&serial, &surface, &levels));
        },
        || {
            black_box(extract_contours_with(&parallel, &surface, &levels));
        },
    );
}

#[test]
fn grid_min_parallel_not_slower() {
    let scenario = maly_bench::standard_product();
    let f = |l: f64| {
        maly_units::Microns::new(l)
            .ok()
            .and_then(|lambda| scenario.evaluate_at(lambda).ok())
            .map_or(f64::INFINITY, |b| b.cost_per_transistor.value())
    };
    let serial = Executor::serial();
    let parallel = parallel_executor();
    assert_not_slower(
        "grid_min",
        || {
            black_box(grid_min_with(&serial, f, 0.4, 1.5, 481));
        },
        || {
            black_box(grid_min_with(&parallel, f, 0.4, 1.5, 481));
        },
    );
}

#[test]
fn partition_search_parallel_not_slower() {
    use maly_cost_model::system::{ManufacturingContext, Partition, SystemDesign};
    use maly_cost_model::WaferCostModel;
    use maly_cost_optim::partition::optimize_with;
    use maly_units::{DesignDensity, Dollars, Microns, Probability, TransistorCount};
    use maly_wafer_geom::Wafer;

    let system = SystemDesign::new(vec![
        Partition::new(
            "dram",
            TransistorCount::new(4.0e6).unwrap(),
            DesignDensity::new(35.0).unwrap(),
        ),
        Partition::new(
            "logic",
            TransistorCount::new(0.8e6).unwrap(),
            DesignDensity::new(300.0).unwrap(),
        ),
        Partition::new(
            "io",
            TransistorCount::new(0.1e6).unwrap(),
            DesignDensity::new(600.0).unwrap(),
        ),
        Partition::new(
            "cache",
            TransistorCount::new(1.5e6).unwrap(),
            DesignDensity::new(60.0).unwrap(),
        ),
    ])
    .unwrap();
    let context = ManufacturingContext {
        wafer: Wafer::six_inch(),
        reference_yield: Probability::new(0.7).unwrap(),
        wafer_cost: WaferCostModel::new(Dollars::new(700.0).unwrap(), 1.8).unwrap(),
        per_die_overhead: Dollars::new(5.0).unwrap(),
    };
    let ladder: Vec<Microns> = [1.0, 0.8, 0.65, 0.5]
        .iter()
        .map(|&l| Microns::new(l).unwrap())
        .collect();
    let serial = Executor::serial();
    let parallel = parallel_executor();
    assert_not_slower(
        "partition_search",
        || {
            black_box(optimize_with(&serial, &system, &context, &ladder).unwrap());
        },
        || {
            black_box(optimize_with(&parallel, &system, &context, &ladder).unwrap());
        },
    );
}

#[test]
fn chiplet_sweep_parallel_not_slower() {
    use maly_chiplet::{ChipletParameters, SweepSpec};
    use maly_units::{Microns, TransistorCount};

    let params = ChipletParameters::fig8_mcm();
    // The bench's 31 λ × 16 n × 4 s grid.
    let spec = SweepSpec {
        system_transistors: TransistorCount::new(2.0e6).unwrap(),
        volume: 50_000,
        lambda_min: Microns::new(0.5).unwrap(),
        lambda_max: Microns::new(1.2).unwrap(),
        lambda_steps: 31,
        max_chiplets: 16,
        max_spares: 3,
    };
    let serial = Executor::serial();
    let parallel = parallel_executor();
    assert_not_slower(
        "chiplet_sweep",
        || {
            black_box(params.sweep(&spec, &serial).unwrap());
        },
        || {
            black_box(params.sweep(&spec, &parallel).unwrap());
        },
    );
}

#[test]
fn monte_carlo_parallel_not_slower() {
    use maly_fabline_sim::cost::FabEconomics;
    use maly_fabline_sim::mc::{run_with, McConfig};
    use maly_fabline_sim::process::ProcessFlow;

    let economics = FabEconomics::default();
    let demand = vec![
        (ProcessFlow::for_generation("cmos-0.8", 0.8), 20_000.0),
        (ProcessFlow::for_generation("cmos-1.2", 1.2), 5_000.0),
    ];
    let config = McConfig {
        replications: 64,
        ..McConfig::default()
    };
    let serial = Executor::serial();
    let parallel = parallel_executor();
    assert_not_slower(
        "monte_carlo",
        || {
            black_box(run_with(&serial, &economics, &demand, &config).unwrap());
        },
        || {
            black_box(run_with(&parallel, &economics, &demand, &config).unwrap());
        },
    );
}

#[test]
fn planned_batch_parallel_not_slower() {
    use maly_model::{EvalContext, Query};

    // Cold surface tiles (a fresh context per call), a partition sweep,
    // a Monte Carlo study and Table 3 in one planned batch: the batch
    // maps its queries, and each query's own maps run inline.
    let mut batch: Vec<Query> = [0.5, 0.625, 0.75, 0.875]
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
    batch.push(Query::ChipletPartitionSweep {
        transistors: 2.0e6,
        volume: 50_000,
        lambda_min: 0.5,
        lambda_max: 1.2,
        lambda_steps: 15,
        max_chiplets: 8,
        max_spares: 1,
    });
    batch.push(Query::McYield {
        products: 3,
        volume_each: 2_000.0,
        replications: 16,
        jitter: 0.3,
        seed: 11,
    });
    batch.push(Query::Table3);
    let serial = Executor::serial();
    let parallel = parallel_executor();
    assert_not_slower(
        "planned_batch",
        || {
            black_box(Query::evaluate_batch(&serial, &EvalContext::new(), &batch));
        },
        || {
            black_box(Query::evaluate_batch(
                &parallel,
                &EvalContext::new(),
                &batch,
            ));
        },
    );
}
