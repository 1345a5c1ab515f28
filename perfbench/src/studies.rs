//! `repro_studies`: in-process, serve-free design-space studies on the
//! library's public functions.

use maly_chiplet::{ChipletParameters, SweepOutcome, SweepSpec};
use maly_cost_model::surface::{CostSurface, SurfaceParameters};
use maly_cost_optim::contour::{extract_contours_with, ContourLine};
use maly_fabline_sim::cost::FabEconomics;
use maly_fabline_sim::mc::{self, McConfig, McReport};
use maly_fabline_sim::process::ProcessFlow;
use maly_model::{EvalContext, Query, QueryResponse};
use maly_par::Executor;
use maly_repro::ExperimentReport;
use maly_units::{Microns, TransistorCount};

use crate::gen::{self, Study};
use crate::report::{fnv, FNV_OFFSET};
use crate::trace::Tracer;

/// The calibrations every study evaluates against.
pub struct Calibration {
    surface: SurfaceParameters,
    chiplet: ChipletParameters,
    economics: FabEconomics,
}

impl Calibration {
    pub fn paper() -> Self {
        Self {
            surface: SurfaceParameters::fig8(),
            chiplet: ChipletParameters::fig8_mcm(),
            economics: FabEconomics::default(),
        }
    }
}

/// Everything one study iteration produced.
pub struct StudyResult {
    pub reports: Vec<ExperimentReport>,
    pub surface: CostSurface,
    pub contours: Vec<ContourLine>,
    pub chiplet: SweepOutcome,
    pub mc: McReport,
}

/// Per-call durations of one iteration (ns).
#[derive(Debug, Clone, Copy, Default)]
pub struct StudyTimes {
    pub repro_all: u64,
    pub surface: u64,
    pub contours: u64,
    pub chiplet: u64,
    pub mc: u64,
}

impl StudyTimes {
    pub fn total(&self) -> u64 {
        self.repro_all + self.surface + self.contours + self.chiplet + self.mc
    }
}

pub fn sweep_spec(study: &Study) -> Result<SweepSpec, String> {
    Ok(SweepSpec {
        system_transistors: TransistorCount::new(study.chiplet_transistors)
            .map_err(|e| e.to_string())?,
        volume: study.chiplet_volume,
        lambda_min: Microns::new(gen::STUDY_LAMBDA.0).map_err(|e| e.to_string())?,
        lambda_max: Microns::new(gen::STUDY_LAMBDA.1).map_err(|e| e.to_string())?,
        lambda_steps: gen::STUDY_LAMBDA.2,
        max_chiplets: gen::STUDY_MAX_CHIPLETS as u32,
        max_spares: gen::STUDY_MAX_SPARES as u32,
    })
}

/// The Monte Carlo fab of a study, spread over nearby nodes as the
/// `mc_yield` query does.
pub fn mc_demand(study: &Study) -> Vec<(ProcessFlow, f64)> {
    (0..study.mc_products)
        .map(|i| {
            let lambda = 0.8 + 0.05 * (i % 4) as f64;
            (
                ProcessFlow::for_generation(format!("mc-{i}"), lambda),
                gen::MC_VOLUME_EACH,
            )
        })
        .collect()
}

pub fn mc_config(study: &Study) -> McConfig {
    McConfig {
        replications: gen::MC_REPLICATIONS,
        volume_jitter: gen::MC_JITTER,
        base_seed: study.mc_seed,
    }
}

/// Runs one iteration: `maly_repro::all_experiments()`, then the
/// study's dense surface, its contours, one partition search and one
/// Monte Carlo study, each on `exec`.
pub fn run(
    study: &Study,
    cal: &Calibration,
    exec: &Executor,
    mut tracer: Option<&mut Tracer>,
    trace_id: u64,
) -> Result<(StudyResult, StudyTimes), String> {
    let spec = sweep_spec(study)?;
    let demand = mc_demand(study);
    let config = mc_config(study);
    let root = match tracer.as_deref_mut() {
        Some(t) => t.open("study", trace_id, 0),
        None => 0,
    };
    let mut times = StudyTimes::default();
    let mut timed = |name, f: &mut dyn FnMut()| -> u64 {
        match tracer.as_deref_mut() {
            Some(t) => t.time(name, trace_id, root, f).1,
            None => {
                let start = std::time::Instant::now();
                f();
                u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
            }
        }
    };
    let mut reports = Vec::new();
    times.repro_all = timed("repro.all", &mut || reports = maly_repro::all_experiments());
    let mut surface = None;
    times.surface = timed("surface.compute", &mut || {
        surface = Some(CostSurface::compute_with(
            exec,
            &cal.surface,
            study.lambda,
            study.n_tr,
        ));
    });
    let surface = surface.ok_or("surface not computed")?;
    let mut contours = Vec::new();
    times.contours = timed("contour.dense", &mut || {
        contours = extract_contours_with(exec, &surface, &gen::CONTOUR_LEVELS);
    });
    let mut chiplet = None;
    times.chiplet = timed("chiplet.sweep", &mut || {
        chiplet = Some(cal.chiplet.sweep(&spec, exec));
    });
    let mut mc_report = None;
    times.mc = timed("mc.run", &mut || {
        mc_report = Some(mc::run_with(exec, &cal.economics, &demand, &config));
    });
    if let Some(t) = tracer {
        t.close(root);
    }
    let chiplet = chiplet
        .ok_or("partition search not run")?
        .map_err(|e| format!("partition search failed: {e}"))?;
    let mc = mc_report
        .ok_or("Monte Carlo not run")?
        .map_err(|e| format!("Monte Carlo failed: {e}"))?;
    Ok((
        StudyResult {
            reports,
            surface,
            contours,
            chiplet,
            mc,
        },
        times,
    ))
}

/// What a correct iteration of one study must reproduce: digests of
/// the bulky outputs, the small ones verbatim.
pub struct Reference {
    surface: u64,
    contours: u64,
    chiplet: SweepOutcome,
    mc: McReport,
}

fn surface_digest(s: &CostSurface) -> u64 {
    s.values()
        .iter()
        .flatten()
        .fold(FNV_OFFSET, |h, v| fnv(h, v.map_or(u64::MAX, f64::to_bits)))
}

fn contour_digest(lines: &[ContourLine]) -> u64 {
    lines.iter().fold(FNV_OFFSET, |h, line| {
        line.segments
            .iter()
            .fold(fnv(h, line.level.to_bits()), |h, ((a, b), (c, d))| {
                [a, b, c, d].iter().fold(h, |h, v| fnv(h, v.to_bits()))
            })
    })
}

impl Reference {
    /// The reference answer, computed on the serial executor: every
    /// timed run on a wider executor must match it bit for bit.
    pub fn compute(study: &Study, cal: &Calibration) -> Result<Reference, String> {
        let exec = Executor::serial();
        let surface = CostSurface::compute_with(&exec, &cal.surface, study.lambda, study.n_tr);
        let contours = extract_contours_with(&exec, &surface, &gen::CONTOUR_LEVELS);
        if contours.iter().all(ContourLine::is_empty) {
            return Err("study surface crosses no contour level".to_string());
        }
        let chiplet = cal
            .chiplet
            .sweep(&sweep_spec(study)?, &exec)
            .map_err(|e| format!("partition search failed: {e}"))?;
        let mc = mc::run_with(&exec, &cal.economics, &mc_demand(study), &mc_config(study))
            .map_err(|e| format!("Monte Carlo failed: {e}"))?;
        Ok(Reference {
            surface: surface_digest(&surface),
            contours: contour_digest(&contours),
            chiplet,
            mc,
        })
    }

    /// Checks an iteration against this reference and the shared
    /// `repro` output; the error names the first mismatch.
    pub fn check(&self, result: &StudyResult, reports: &[ExperimentReport]) -> Result<(), String> {
        if result.reports != reports {
            return Err("all_experiments() output changed between iterations".to_string());
        }
        let feasible_finite = result
            .surface
            .values()
            .iter()
            .flatten()
            .flatten()
            .all(|v| v.is_finite());
        if !feasible_finite {
            return Err("a feasible surface cell is not finite".to_string());
        }
        if surface_digest(&result.surface) != self.surface {
            return Err("surface differs from the serial reference".to_string());
        }
        if contour_digest(&result.contours) != self.contours {
            return Err("contours differ from the serial reference".to_string());
        }
        if result.chiplet != self.chiplet {
            return Err("partition search differs from the serial reference".to_string());
        }
        if result.mc != self.mc {
            return Err("Monte Carlo differs from the serial reference".to_string());
        }
        Ok(())
    }
}

/// The goldens the reproduction pins: Table 3 row 1 is 9.40 µ$ per
/// transistor, and the reference partition search (N_tr = 2e6,
/// V = 50k) picks 4 chiplets + 0 spares at 64.95 $/system.
pub fn check_goldens() -> Result<(), String> {
    let exec = Executor::serial();
    let row = Query::Table3Row { id: 1 }
        .evaluate_with(&exec, &EvalContext::new())
        .map_err(|e| e.to_string())?;
    let micro = match row {
        QueryResponse::Table3(rows) if rows.len() == 1 => rows[0].model_micro_dollars,
        other => return Err(format!("table3_row answered {other:?}")),
    };
    if format!("{micro:.2}") != "9.40" {
        return Err(format!("Table 3 row 1 is {micro} µ$, expected 9.40"));
    }
    let spec = SweepSpec {
        system_transistors: TransistorCount::new(2.0e6).map_err(|e| e.to_string())?,
        volume: 50_000,
        lambda_min: Microns::new(0.5).map_err(|e| e.to_string())?,
        lambda_max: Microns::new(1.2).map_err(|e| e.to_string())?,
        lambda_steps: 15,
        max_chiplets: 8,
        max_spares: 1,
    };
    let best = ChipletParameters::fig8_mcm()
        .sweep(&spec, &exec)
        .map_err(|e| e.to_string())?
        .best;
    let cost = format!("{:.2}", best.cost_per_system.value());
    if (best.chiplets, best.spares, cost.as_str()) != (4, 0, "64.95") {
        return Err(format!(
            "chiplet optimum is {} + {} spares at {cost} $/system, expected 4 + 0 at 64.95",
            best.chiplets, best.spares
        ));
    }
    Ok(())
}
