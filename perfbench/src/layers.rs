//! The traced run's layer panel: times public calls into each library
//! layer from outside, on the seed's study inputs, and reads the
//! layers' own Work/Diag counters around them.

use maly_chiplet::ChipletParameters;
use maly_cost_model::surface::{CostSurface, SurfaceParameters};
use maly_cost_optim::contour::extract_contours_with;
use maly_fabline_sim::cost::FabEconomics;
use maly_fabline_sim::mc;
use maly_par::Executor;
use maly_units::{Centimeters, SquareCentimeters};
use maly_wafer_geom::{cache, DieDimensions, Wafer};
use maly_yield_model::prng::{UniformSource, Xoshiro256PlusPlus};

use crate::gen::{self, Study};
use crate::report::{median, Metrics};
use crate::studies;
use crate::trace::Tracer;

/// The 17 `repro` experiments, timed one by one.
type Experiment = (&'static str, fn() -> maly_repro::ExperimentReport);
const EXPERIMENTS: [Experiment; 17] = {
    use maly_repro::experiments as e;
    [
        ("fig1", e::fig1::report),
        ("fig2", e::fig2::report),
        ("fig3", e::fig3::report),
        ("fig4", e::fig4::report),
        ("fig5", e::fig5::report),
        ("table1", e::table1::report),
        ("table2", e::table2::report),
        ("fig6", e::fig6::report),
        ("fig7", e::fig7::report),
        ("fig8", e::fig8::report),
        ("table3", e::table3::report),
        ("product_mix", e::product_mix::report),
        ("mcm_kgd", e::mcm_kgd::report),
        ("chiplet", e::chiplet::report),
        ("roadmap", e::roadmap::report),
        ("system_opt", e::system_opt::report),
        ("ablation", e::ablation::report),
    ]
};

/// Trace ids of panel spans: one per repetition, apart from the ids of
/// request lines and studies.
const PANEL_TRACE: u64 = 1 << 62;

/// Process-wide Work/Diag counter value by name (0 before first use).
pub fn counter(name: &str) -> f64 {
    maly_obs::counters_snapshot()
        .iter()
        .find(|c| c.name == name)
        .map_or(0.0, |c| c.value as f64)
}

/// Median duration (ns) of `reps` calls of `f`, each in a span.
fn timed(tracer: &mut Tracer, name: &'static str, reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|r| tracer.time(name, PANEL_TRACE | r as u64, 0, &mut f).1 as f64)
        .collect();
    median(&samples)
}

/// Parallel (ambient executor) vs serial medians of one call, in ns.
fn paired(
    tracer: &mut Tracer,
    name: &'static str,
    reps: usize,
    f: impl Fn(&Executor),
) -> (f64, f64) {
    let wide = Executor::from_env();
    let serial = Executor::serial();
    let mut par = Vec::with_capacity(reps);
    let mut ser = Vec::with_capacity(reps);
    // Alternate the two so drift on a throttling host hits both alike.
    for r in 0..reps {
        par.push(tracer.time(name, PANEL_TRACE | r as u64, 0, || f(&wide)).1 as f64);
        ser.push(
            tracer
                .time(name, PANEL_TRACE | r as u64, 0, || f(&serial))
                .1 as f64,
        );
    }
    (median(&par), median(&ser))
}

/// Runs the panel and records its metrics.
pub fn panel(
    seed: u64,
    pool: &[Study],
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> Result<(), String> {
    let params = SurfaceParameters::fig8();
    // One study per surface size: the pool cycles over the sizes.
    let windows: Vec<&Study> = pool.iter().take(gen::SURFACE_SIZES.len()).collect();
    let mut surface_par = 0.0;
    let mut surface_ser = 0.0;
    let mut cells = 0.0;
    let mut surfaces = Vec::new();
    for (study, (l, n)) in windows.iter().zip(gen::SURFACE_SIZES) {
        let reps = if l * n > 100_000 { 5 } else { 15 };
        let before = counter("eq1.cells");
        let (par, ser) = paired(tracer, "surface.compute", reps, |exec| {
            std::hint::black_box(CostSurface::compute_with(
                exec,
                &params,
                study.lambda,
                study.n_tr,
            ));
        });
        cells += (counter("eq1.cells") - before) / (2 * reps) as f64;
        surface_par += par;
        surface_ser += ser;
        m.layer(&format!("surface.compute_us.{l}x{n}"), par / 1e3, "us");
        surfaces.push(CostSurface::compute_with(
            &Executor::serial(),
            &params,
            study.lambda,
            study.n_tr,
        ));
    }
    m.layer("surface.ns_per_cell", surface_par / cells.max(1.0), "ns");
    m.base(
        "surface.ns_per_cell",
        format!("{surface_par:.0} ns over {cells} eq1.cells"),
    );
    m.ratio("par.parallel_over_serial.surface", surface_ser, surface_par);

    let (contour_par, contour_ser) = paired(tracer, "contour.dense", 5, |exec| {
        for s in &surfaces {
            std::hint::black_box(extract_contours_with(exec, s, &gen::CONTOUR_LEVELS));
        }
    });
    m.layer("contour.dense_us", contour_par / 1e3, "us");
    m.ratio(
        "par.parallel_over_serial.contours",
        contour_ser,
        contour_par,
    );
    let (marchable, total) = surfaces.iter().fold((0usize, 0usize), |(a, b), s| {
        let v = s.values();
        let rows = v.len().saturating_sub(1);
        let cols = v.first().map_or(0, |r| r.len().saturating_sub(1));
        let ok = (0..rows)
            .flat_map(|i| (0..cols).map(move |j| (i, j)))
            .filter(|&(i, j)| {
                [v[i][j], v[i + 1][j], v[i][j + 1], v[i + 1][j + 1]]
                    .iter()
                    .all(Option::is_some)
            })
            .count();
        (a + ok, b + rows * cols)
    });
    m.ratio("contour.marchable_ratio", marchable as f64, total as f64);

    let chiplet = ChipletParameters::fig8_mcm();
    let spec = studies::sweep_spec(pool.first().ok_or("empty study pool")?)?;
    let before = counter("chiplet.partitions");
    let (sweep_par, sweep_ser) = paired(tracer, "chiplet.sweep", 9, |exec| {
        std::hint::black_box(chiplet.sweep(&spec, exec).ok());
    });
    let partitions = (counter("chiplet.partitions") - before) / 18.0;
    m.layer("chiplet.sweep_us", sweep_par / 1e3, "us");
    m.layer("chiplet.sweep_serial_us", sweep_ser / 1e3, "us");
    m.layer(
        "chiplet.ns_per_partition",
        sweep_par / partitions.max(1.0),
        "ns",
    );
    m.base(
        "chiplet.ns_per_partition",
        format!("{sweep_par:.0} ns over {partitions} chiplet.partitions"),
    );
    m.ratio("par.parallel_over_serial.chiplet", sweep_ser, sweep_par);

    let study = pool[0];
    let economics = FabEconomics::default();
    let demand = studies::mc_demand(&study);
    let config = studies::mc_config(&study);
    let (mc_par, mc_ser) = paired(tracer, "mc.run", 7, |exec| {
        std::hint::black_box(mc::run_with(exec, &economics, &demand, &config).ok());
    });
    m.layer("mc.run_us", mc_par / 1e3, "us");
    m.ratio("par.parallel_over_serial.mc", mc_ser, mc_par);

    eq4(seed, tracer, m)?;
    lanes(seed, tracer, m);

    for (id, report) in EXPERIMENTS {
        let ns = timed(tracer, "repro.experiment", 3, || {
            std::hint::black_box(report());
        });
        m.layer(&format!("repro.{id}_ms"), ns / 1e6, "ms");
    }
    Ok(())
}

/// Eq. (4) die counting through the memo cache, cold then warm.
fn eq4(seed: u64, tracer: &mut Tracer, m: &mut Metrics) -> Result<(), String> {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed ^ 0xE04);
    let dies = (0..1024)
        .map(|_| {
            let area =
                SquareCentimeters::new(0.05 + 3.0 * rng.next_f64()).map_err(|e| e.to_string())?;
            Ok(DieDimensions::square_with_area(area))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let wafer = Wafer::with_radius(Centimeters::new(7.5).map_err(|e| e.to_string())?);
    let mut cold = Vec::new();
    let mut warm = Vec::new();
    let mut hit_rate = 0.0;
    for r in 0..7 {
        cache::clear();
        cold.push(
            tracer
                .time("eq4.batch_cold", PANEL_TRACE | r, 0, || {
                    std::hint::black_box(cache::dies_per_wafer_batch(&wafer, &dies));
                })
                .1 as f64,
        );
        warm.push(
            tracer
                .time("eq4.batch_warm", PANEL_TRACE | r, 0, || {
                    std::hint::black_box(cache::dies_per_wafer_batch(&wafer, &dies));
                })
                .1 as f64,
        );
        hit_rate = cache::stats().hit_rate();
    }
    cache::clear();
    m.layer("eq4.batch_cold_us", median(&cold) / 1e3, "us");
    m.layer("eq4.batch_warm_us", median(&warm) / 1e3, "us");
    m.layer("eq4.hit_rate", hit_rate, "ratio");
    m.base(
        "eq4.hit_rate",
        format!(
            "hits over lookups of one cold + one warm batch of {} dies",
            dies.len()
        ),
    );
    Ok(())
}

/// The lane `exp` kernel on 4096 elements.
fn lanes(seed: u64, tracer: &mut Tracer, m: &mut Metrics) {
    const N: usize = 4096;
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed ^ 0x1A4E);
    let source: Vec<f64> = (0..N).map(|_| -20.0 * rng.next_f64()).collect();
    let mut xs = source.clone();
    let samples: Vec<f64> = (0..51)
        .map(|r| {
            xs.copy_from_slice(&source);
            tracer
                .time("lanes.exp_slice", PANEL_TRACE | r, 0, || {
                    maly_lanes::exp_slice(std::hint::black_box(&mut xs))
                })
                .1 as f64
        })
        .collect();
    m.layer("lanes.exp_ns_per_elem", median(&samples) / N as f64, "ns");
}
