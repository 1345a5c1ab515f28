//! The unified query API: every question the workspace can answer,
//! as one typed request/response pair.
//!
//! Historically each consumer wired itself to the model crates
//! directly: the CLI built `ProductScenario`s by hand, the repro
//! harness owned the Fig 8 surface, benchmarks re-derived Table 3.
//! [`Query`] is the single sanctioned entry point: a typed request
//! that evaluates against the shared [`crate::context`] artifacts,
//! batches onto the deterministic `maly-par` executor, and serializes
//! to/from the line-delimited JSON wire format the serve crate speaks.
//!
//! Determinism contract: [`Query::evaluate_with`] produces
//! bit-identical results at every executor width, because every
//! parallel path underneath (surface grids, optimal-λ scans, MC
//! replications) is index-ordered. The serve loopback tests compare
//! served bytes against direct in-process evaluation.

use std::sync::Arc;

use maly_cost_model::product::ProductScenario;
use maly_cost_model::scenario::{Scenario1, Scenario2};
use maly_cost_model::surface::CostSurface;
use maly_cost_model::CostError;
use maly_cost_optim::search::optimal_feature_size_with;
use maly_fabline_sim::cost::{product_mix_study, FabEconomics};
use maly_fabline_sim::mc::{self, McConfig};
use maly_fabline_sim::process::ProcessFlow;
use maly_par::Executor;
use maly_units::{Centimeters, DesignDensity, Dollars, Microns, Probability, TransistorCount};

use crate::context::{self, EvalContext};
use crate::error::Error;
use crate::json::{self, Json};
use crate::plan::TileRequest;

/// Most grid steps a single sweep/scan may request — a service bound,
/// far above anything the paper's figures need (Fig 6/7 use ≤ 481).
pub const MAX_SWEEP_STEPS: usize = 100_000;
/// Most steps per surface-tile axis (the Fig 8 report tile is 56×48).
pub const MAX_TILE_STEPS: usize = 512;
/// Most Monte Carlo replications per query.
pub const MAX_REPLICATIONS: usize = 100_000;
/// Most concurrent products per `mc_yield` or `product_mix` query (the
/// paper's mix study and the repro experiments use at most 10).
pub const MAX_PRODUCTS: usize = 64;
/// Most chiplets per partition (a service bound; real packages top out
/// far lower).
pub const MAX_CHIPLETS: usize = 64;
/// Most redundant (spare) dies per partition.
pub const MAX_SPARES: usize = 8;

/// The full input vector of an eq. (1) product evaluation — Table 3's
/// columns as a value type.
#[derive(Debug, Clone, PartialEq)]
pub struct ProductSpec {
    /// Product label (echoed back; defaults to `"query"`).
    pub name: String,
    /// Transistor count `N_tr`.
    pub transistors: f64,
    /// Feature size λ in µm.
    pub lambda_um: f64,
    /// Design density `d_d` in λ²/transistor.
    pub density: f64,
    /// Wafer radius in cm.
    pub radius_cm: f64,
    /// Reference yield `Y₀` for a 1 cm² die.
    pub yield0: f64,
    /// Reference wafer cost `C₀` in dollars.
    pub c0: f64,
    /// Cost escalation factor `X`.
    pub x: f64,
}

impl ProductSpec {
    /// Builds the executable scenario, validating every field through
    /// the maly-units newtypes.
    ///
    /// # Errors
    ///
    /// Returns the first validation failure, and
    /// [`Error::InvalidField`] on `transistors` when the die area is not
    /// a positive normal number (a subnormal count underflows the area).
    pub fn scenario(&self) -> Result<ProductScenario, Error> {
        let scenario = ProductScenario::builder(self.name.clone())
            .transistors(TransistorCount::new(self.transistors)?)
            .feature_size(Microns::new(self.lambda_um)?)
            .design_density(DesignDensity::new(self.density)?)
            .wafer_radius(Centimeters::new(self.radius_cm)?)
            .reference_yield(Probability::new(self.yield0)?)
            .reference_wafer_cost(Dollars::new(self.c0)?)
            .cost_escalation(self.x)?
            .build()?;
        let area = scenario.die_area().value();
        if !area.is_normal() {
            return Err(Error::InvalidField {
                field: "transistors",
                message: format!(
                    "transistor count {:e} gives die area {area:e} cm², not a positive normal number",
                    self.transistors
                ),
            });
        }
        Ok(scenario)
    }

    fn to_pairs(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("name", Json::Str(self.name.clone())),
            ("transistors", Json::Num(self.transistors)),
            ("lambda_um", Json::Num(self.lambda_um)),
            ("density", Json::Num(self.density)),
            ("radius_cm", Json::Num(self.radius_cm)),
            ("yield0", Json::Num(self.yield0)),
            ("c0", Json::Num(self.c0)),
            ("x", Json::Num(self.x)),
        ]
    }

    fn from_json(v: &Json) -> Result<Self, Error> {
        Ok(Self {
            name: v
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or("query")
                .to_string(),
            transistors: f64_field(v, "transistors")?,
            lambda_um: f64_field(v, "lambda_um")?,
            density: f64_field(v, "density")?,
            radius_cm: f64_field_or(v, "radius_cm", 7.5)?,
            yield0: f64_field(v, "yield0")?,
            c0: f64_field(v, "c0")?,
            x: f64_field(v, "x")?,
        })
    }
}

/// A typed query — the union of everything the service answers.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// One eq. (1) product evaluation (a Table 3-style row).
    Product(ProductSpec),
    /// One printed Table 3 row by id (1-based, as printed).
    Table3Row {
        /// Row id in 1..=17.
        id: u8,
    },
    /// All 17 printed Table 3 rows, paper cost vs model cost.
    Table3,
    /// Scenario #1 (eq. 8) λ sweep at escalation `X` — Fig 6.
    Scenario1Sweep {
        /// Escalation factor `X`.
        x: f64,
        /// Sweep window start (µm).
        lambda_min: f64,
        /// Sweep window end (µm).
        lambda_max: f64,
        /// Points, ≥ 2.
        steps: usize,
    },
    /// Scenario #2 (eq. 9) λ sweep at escalation `X` — Fig 7.
    Scenario2Sweep {
        /// Escalation factor `X`.
        x: f64,
        /// Sweep window start (µm).
        lambda_min: f64,
        /// Sweep window end (µm).
        lambda_max: f64,
        /// Points, ≥ 2.
        steps: usize,
    },
    /// A Fig 8 cost-surface tile on the paper's fab calibration,
    /// answered from the warm tile cache when possible.
    SurfaceTile {
        /// λ window start (µm).
        lambda_min: f64,
        /// λ window end (µm).
        lambda_max: f64,
        /// λ axis steps, 2..=[`MAX_TILE_STEPS`].
        lambda_steps: usize,
        /// `N_tr` window start.
        n_tr_min: f64,
        /// `N_tr` window end.
        n_tr_max: f64,
        /// `N_tr` axis steps, 2..=[`MAX_TILE_STEPS`].
        n_tr_steps: usize,
    },
    /// The cost-minimizing feature size for a product over a λ window.
    OptimalLambda {
        /// The product under study.
        spec: ProductSpec,
        /// Window start (µm).
        lambda_min: f64,
        /// Window end (µm).
        lambda_max: f64,
        /// Candidate nodes, ≥ 2.
        steps: usize,
    },
    /// A Monte Carlo wafer-cost study over a jittered product mix.
    McYield {
        /// Concurrent products in the fab, 1..=[`MAX_PRODUCTS`].
        products: usize,
        /// Wafer starts per product per year.
        volume_each: f64,
        /// Replications, 1..=[`MAX_REPLICATIONS`].
        replications: usize,
        /// Relative volume jitter in `[0, 1)`.
        jitter: f64,
        /// Base PRNG seed (deterministic per replication index).
        seed: u64,
    },
    /// The two-scenario calendar roadmap (Figs 6+7 over time).
    Roadmap {
        /// First calendar year.
        from: u32,
        /// Last calendar year.
        to: u32,
    },
    /// Mono- vs multi-product fab economics (Sec. III).
    ProductMix {
        /// Concurrent products, 1..=[`MAX_PRODUCTS`].
        products: usize,
        /// Wafer starts per product per year in the multi-product fab.
        volume_each: f64,
        /// Wafer starts per year in the mono-product reference fab.
        mono_volume: f64,
    },
    /// Admin: a snapshot of the process metrics registry (work/diag
    /// counters, gauges, latency percentiles). Served over the same
    /// wire protocol so operators can ask "what is p99 right now?"
    /// without attaching anything.
    ServerStats,
    /// One multi-die partition priced end-to-end on the `fig8_mcm`
    /// calibration: per-chiplet die cost (eq. 1–7), KGD test cost,
    /// bonding with `Y_asm^(m−1)` assembly yield, NRE over volume.
    ChipletCost {
        /// Total system transistor count, split equally over chiplets.
        transistors: f64,
        /// Feature size (µm).
        lambda_um: f64,
        /// Dies required for a working system, 1..=[`MAX_CHIPLETS`].
        chiplets: usize,
        /// Redundant dies mounted, 0..=[`MAX_SPARES`].
        spares: usize,
        /// Production volume the NRE amortizes over.
        volume: u64,
    },
    /// The partition search: given `N_tr` total at volume `V`, how many
    /// chiplets of what size (over a λ window, with up to `max_spares`
    /// redundant dies) minimize \$/system?
    ChipletPartitionSweep {
        /// Total system transistor count.
        transistors: f64,
        /// Production volume the NRE amortizes over.
        volume: u64,
        /// λ window start (µm).
        lambda_min: f64,
        /// λ window end (µm).
        lambda_max: f64,
        /// λ grid points, ≥ 2; the full grid (λ × chiplets × spares)
        /// is bounded by [`MAX_SWEEP_STEPS`].
        lambda_steps: usize,
        /// Largest chiplet count probed, 1..=[`MAX_CHIPLETS`].
        max_chiplets: usize,
        /// Largest spare count probed, 0..=[`MAX_SPARES`].
        max_spares: usize,
    },
}

/// A typed response, mirroring [`Query`]'s variants.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResponse {
    /// Eq. (1) breakdown of one product.
    Product(ProductReport),
    /// Paper-vs-model rows.
    Table3(Vec<Table3Report>),
    /// `(λ, C_tr)` series from a scenario sweep.
    Sweep(Vec<SweepPoint>),
    /// A cost-surface tile, already serialized.
    Surface(SurfaceBody),
    /// The optimum, or `None` when no node in the window is feasible.
    OptimalLambda(Option<OptimalReport>),
    /// Monte Carlo summary.
    Mc(McSummary),
    /// Calendar projection rows.
    Roadmap(Vec<RoadmapRow>),
    /// Product-mix penalty report.
    ProductMix(MixReport),
    /// Metrics registry snapshot.
    ServerStats(StatsReport),
    /// One priced multi-die partition.
    Chiplet(ChipletReport),
    /// Partition-search result: the arg-min plus the per-chiplet-count
    /// frontier.
    ChipletSweep(ChipletSweepReport),
}

/// Eq. (1) outputs for one product.
#[derive(Debug, Clone, PartialEq)]
pub struct ProductReport {
    /// Echoed product label.
    pub name: String,
    /// Realized die area (cm²).
    pub die_area_cm2: f64,
    /// Wafer cost `C_w` ($).
    pub wafer_cost: f64,
    /// Dies per wafer `N_ch`.
    pub dies_per_wafer: u32,
    /// Die yield `Y` in `[0, 1]`.
    pub die_yield: f64,
    /// Expected good dies per wafer.
    pub good_dies_per_wafer: f64,
    /// Cost per good die ($).
    pub cost_per_good_die: f64,
    /// Cost per transistor (µ$) — the paper's Table 3 unit.
    pub cost_per_transistor_micro: f64,
}

/// One Table 3 comparison row.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Report {
    /// Row id as printed.
    pub id: u8,
    /// IC type.
    pub name: String,
    /// The printed cost (µ$).
    pub paper_micro_dollars: f64,
    /// The model's cost (µ$).
    pub model_micro_dollars: f64,
}

/// One sweep sample.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Feature size (µm).
    pub lambda_um: f64,
    /// Cost per transistor ($).
    pub cost_per_transistor: f64,
}

/// A surface tile plus its derived optima.
#[derive(Debug, Clone, PartialEq)]
pub struct SurfaceReport {
    /// The λ axis (µm).
    pub lambda_axis: Vec<f64>,
    /// The `N_tr` axis.
    pub n_tr_axis: Vec<f64>,
    /// `values[i][j]` = `C_tr` at `(lambda_axis[i], n_tr_axis[j])`,
    /// `None` where infeasible.
    pub values: Vec<Vec<Option<f64>>>,
    /// `λ^opt(N_tr)` per column: `(λ, cost)` or `None`.
    pub optimal_lambda_per_n_tr: Vec<Option<(f64, f64)>>,
    /// Global `(λ, N_tr, cost)` minimum, if any cell evaluated.
    pub global_minimum: Option<(f64, f64, f64)>,
}

impl SurfaceReport {
    /// The wire form of a surface response — the `ok` body every
    /// `surface_tile` answer carries. The tile cache writes the same
    /// bytes straight from the grid ([`SurfaceBody`]); this tree form
    /// stays as the oracle the body tests compare against.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("kind", Json::Str("surface".to_string())),
            (
                "lambda_axis",
                Json::Arr(self.lambda_axis.iter().map(|&v| Json::Num(v)).collect()),
            ),
            (
                "n_tr_axis",
                Json::Arr(self.n_tr_axis.iter().map(|&v| Json::Num(v)).collect()),
            ),
            (
                "values",
                Json::Arr(
                    self.values
                        .iter()
                        .map(|row| {
                            Json::Arr(
                                row.iter()
                                    .map(|cell| match cell {
                                        Some(v) => Json::Num(*v),
                                        None => Json::Null,
                                    })
                                    .collect(),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "optimal_lambda_per_n_tr",
                Json::Arr(
                    self.optimal_lambda_per_n_tr
                        .iter()
                        .map(|col| match col {
                            Some((l, c)) => Json::Arr(vec![Json::Num(*l), Json::Num(*c)]),
                            None => Json::Null,
                        })
                        .collect(),
                ),
            ),
            (
                "global_minimum",
                match self.global_minimum {
                    Some((l, n, c)) => Json::Arr(vec![Json::Num(l), Json::Num(n), Json::Num(c)]),
                    None => Json::Null,
                },
            ),
        ])
    }
}

/// A surface tile's serialized `ok` body ([`SurfaceReport::to_json`]),
/// shared with the tile cache that built it: cloning is a reference
/// count bump, and two bodies compare by bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SurfaceBody(pub(crate) Arc<str>);

impl SurfaceBody {
    /// The serialized JSON object.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Serializes a computed tile straight from its grid: the bytes
    /// [`SurfaceReport::to_json`] writes for the tile's report, without
    /// copying the grid into a report or building a `Json` node per
    /// number. The per-column optimum scan runs serially: it happens
    /// once per tile, when the tile enters the cache.
    pub(crate) fn from_surface(tile: &CostSurface) -> Self {
        let (lambdas, n_trs) = (tile.lambda_axis(), tile.n_tr_axis());
        // ~23 B per number, so one reservation holds a typical body.
        let numbers = lambdas.len() * (n_trs.len() + 1) + 3 * n_trs.len() + 3;
        let mut out = String::with_capacity(128 + 24 * numbers);
        let num = |out: &mut String, v: &f64| json::push_num(out, *v);
        out.push_str("{\"kind\":\"surface\",\"lambda_axis\":");
        push_list(&mut out, lambdas, num);
        out.push_str(",\"n_tr_axis\":");
        push_list(&mut out, n_trs, num);
        out.push_str(",\"values\":");
        push_list(&mut out, tile.values(), |out, row| {
            push_list(out, row, |out, cell| match cell {
                Some(v) => json::push_num(out, *v),
                None => out.push_str("null"),
            });
        });
        out.push_str(",\"optimal_lambda_per_n_tr\":");
        push_list(
            &mut out,
            &tile.optimal_lambda_per_n_tr_with(&Executor::serial()),
            |out, col| match col {
                Some((l, c)) => push_list(out, &[*l, *c], num),
                None => out.push_str("null"),
            },
        );
        out.push_str(",\"global_minimum\":");
        match tile.global_minimum() {
            Some((l, n, c)) => push_list(&mut out, &[l, n, c], num),
            None => out.push_str("null"),
        }
        out.push('}');
        Self(Arc::from(out))
    }
}

/// Writes `[a,b,…]`, each item through `item`.
fn push_list<T>(out: &mut String, items: &[T], mut item: impl FnMut(&mut String, &T)) {
    out.push('[');
    for (i, v) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(out, v);
    }
    out.push(']');
}

impl From<&SurfaceReport> for SurfaceBody {
    fn from(report: &SurfaceReport) -> Self {
        Self(Arc::from(report.to_json().write()))
    }
}

/// An optimal-λ search hit.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimalReport {
    /// The cost-minimizing feature size (µm).
    pub lambda_um: f64,
    /// The cost per transistor there ($).
    pub cost_per_transistor: f64,
}

/// Monte Carlo wafer-cost summary.
#[derive(Debug, Clone, PartialEq)]
pub struct McSummary {
    /// Replications run.
    pub replications: usize,
    /// Mean wafer cost ($).
    pub mean_wafer_cost: f64,
    /// Cheapest replication ($).
    pub min_wafer_cost: f64,
    /// Most expensive replication ($).
    pub max_wafer_cost: f64,
    /// Mean tool utilization in `[0, 1]`.
    pub mean_utilization: f64,
    /// `max / min` wafer cost.
    pub cost_spread: f64,
}

/// One roadmap calendar row.
#[derive(Debug, Clone, PartialEq)]
pub struct RoadmapRow {
    /// Calendar year.
    pub year: f64,
    /// Projected feature size (µm).
    pub lambda_um: f64,
    /// Scenario #1 cost (µ$/transistor).
    pub optimistic_micro: f64,
    /// Scenario #2 cost (µ$/transistor).
    pub realistic_micro: f64,
}

/// Mono- vs multi-product fab comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct MixReport {
    /// Mono-product wafer cost ($).
    pub mono_cost: f64,
    /// Multi-product wafer cost ($).
    pub multi_cost: f64,
    /// `multi / mono` — the paper quotes "as high as 7".
    pub cost_ratio: f64,
    /// Mono-fab productive utilization.
    pub mono_utilization: f64,
    /// Multi-fab productive utilization.
    pub multi_utilization: f64,
}

/// One priced multi-die partition — the wire form of
/// [`maly_chiplet::PartitionCost`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChipletReport {
    /// Dies required for a working system.
    pub chiplets: u32,
    /// Redundant dies mounted beyond `chiplets`.
    pub spares: u32,
    /// Feature size (µm).
    pub lambda_um: f64,
    /// Transistors on each die (the equal split).
    pub transistors_per_chiplet: f64,
    /// Per-die cost delivered known-good (bare die + KGD test, $).
    pub known_good_die_cost: f64,
    /// `Y_asm^(m−1)` over the bonds.
    pub assembly_yield: f64,
    /// Assembly yield × P(enough dies escape the residual DL).
    pub system_yield: f64,
    /// Package base plus per-joint bonding ($).
    pub packaging_cost: f64,
    /// Amortized NRE per system ($).
    pub nre_per_system: f64,
    /// Expected cost of one good system ($).
    pub cost_per_system: f64,
}

impl ChipletReport {
    fn from_cost(c: &maly_chiplet::PartitionCost) -> Self {
        Self {
            chiplets: c.chiplets,
            spares: c.spares,
            lambda_um: c.lambda.value(),
            transistors_per_chiplet: c.transistors_per_chiplet.value(),
            known_good_die_cost: c.known_good_die_cost.value(),
            assembly_yield: c.assembly_yield.value(),
            system_yield: c.system_yield.value(),
            packaging_cost: c.packaging_cost.value(),
            nre_per_system: c.nre_per_system.value(),
            cost_per_system: c.cost_per_system.value(),
        }
    }

    fn pairs(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("chiplets", Json::Num(f64::from(self.chiplets))),
            ("spares", Json::Num(f64::from(self.spares))),
            ("lambda_um", Json::Num(self.lambda_um)),
            (
                "transistors_per_chiplet",
                Json::Num(self.transistors_per_chiplet),
            ),
            ("known_good_die_cost", Json::Num(self.known_good_die_cost)),
            ("assembly_yield", Json::Num(self.assembly_yield)),
            ("system_yield", Json::Num(self.system_yield)),
            ("packaging_cost", Json::Num(self.packaging_cost)),
            ("nre_per_system", Json::Num(self.nre_per_system)),
            ("cost_per_system", Json::Num(self.cost_per_system)),
        ]
    }

    fn to_json(&self) -> Json {
        Json::obj(self.pairs())
    }
}

/// The partition-search result.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipletSweepReport {
    /// Grid candidates priced (feasible or not).
    pub evaluated: usize,
    /// Candidates with a feasible die and non-zero system yield.
    pub feasible: usize,
    /// The deterministic arg-min over the grid.
    pub best: ChipletReport,
    /// The best feasible partition at each chiplet count, ascending.
    pub per_chiplet_count: Vec<ChipletReport>,
}

/// A deterministic-shape snapshot of the process metrics registry.
///
/// Every section is sorted by metric name, so identical registry state
/// serializes to identical bytes. The split mirrors the obs crate's
/// determinism contract: `work` counters are exact and
/// thread-count-invariant (safe to golden-compare across worker
/// counts); `diag` counters, `gauges`, and `latency` are diagnostics
/// that legitimately vary with scheduling and wall-clock time and are
/// excluded from the bit-identity contract.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsReport {
    /// Work counters (name → exact total), sorted by name.
    pub work: Vec<(String, u64)>,
    /// Diagnostic counters (name → total), sorted by name.
    pub diag: Vec<(String, u64)>,
    /// Gauge levels (name → signed level), sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// Per-histogram latency summaries, sorted by name.
    pub latency: Vec<LatencyReport>,
}

/// One histogram's latency summary inside a [`StatsReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyReport {
    /// Histogram registry name (e.g. `serve.request_ns`).
    pub name: String,
    /// Number of recorded durations.
    pub count: u64,
    /// Mean duration (ns).
    pub mean_ns: f64,
    /// Interpolated median (ns).
    pub p50_ns: f64,
    /// Interpolated 90th percentile (ns).
    pub p90_ns: f64,
    /// Interpolated 99th percentile (ns).
    pub p99_ns: f64,
    /// Interpolated 99.9th percentile (ns).
    pub p999_ns: f64,
}

impl StatsReport {
    /// Snapshots the process-wide metrics registry. The obs snapshot
    /// functions already sort by name, so the report's shape is
    /// deterministic for a given registry state.
    #[must_use]
    pub fn capture() -> Self {
        let mut work = Vec::new();
        let mut diag = Vec::new();
        for c in maly_obs::counters_snapshot() {
            match c.kind {
                maly_obs::CounterKind::Work => work.push((c.name.to_string(), c.value)),
                maly_obs::CounterKind::Diag => diag.push((c.name.to_string(), c.value)),
            }
        }
        let gauges = maly_obs::gauges_snapshot()
            .into_iter()
            .map(|g| (g.name.to_string(), g.value))
            .collect();
        let latency = maly_obs::histograms_snapshot()
            .into_iter()
            .map(|h| {
                let p = h.latency_percentiles();
                LatencyReport {
                    name: h.name.to_string(),
                    count: h.count,
                    mean_ns: h.mean_ns(),
                    p50_ns: p.p50_ns,
                    p90_ns: p.p90_ns,
                    p99_ns: p.p99_ns,
                    p999_ns: p.p999_ns,
                }
            })
            .collect();
        Self {
            work,
            diag,
            gauges,
            latency,
        }
    }
}

// ---------------------------------------------------------------------
// Field extraction helpers
// ---------------------------------------------------------------------

fn f64_field(v: &Json, field: &'static str) -> Result<f64, Error> {
    v.get(field)
        .ok_or(Error::MissingField { field })?
        .as_f64()
        .ok_or(Error::InvalidField {
            field,
            message: "expected a number".to_string(),
        })
}

fn f64_field_or(v: &Json, field: &'static str, default: f64) -> Result<f64, Error> {
    match v.get(field) {
        None => Ok(default),
        Some(j) => j.as_f64().ok_or(Error::InvalidField {
            field,
            message: "expected a number".to_string(),
        }),
    }
}

fn usize_field(v: &Json, field: &'static str) -> Result<usize, Error> {
    let raw = f64_field(v, field)?;
    let message = if raw.fract() != 0.0 || raw < 0.0 {
        format!("expected a non-negative integer, got {raw}")
    } else if raw > f64::from(u32::MAX) {
        format!("integer {raw} above {}", u32::MAX)
    } else {
        return Ok(raw as usize);
    };
    Err(Error::InvalidField { field, message })
}

fn usize_field_or(v: &Json, field: &'static str, default: usize) -> Result<usize, Error> {
    match v.get(field) {
        None => Ok(default),
        Some(_) => usize_field(v, field),
    }
}

fn check_window(
    lambda_min: f64,
    lambda_max: f64,
    steps: usize,
    max_steps: usize,
) -> Result<(), Error> {
    if !(lambda_min.is_finite() && lambda_max.is_finite() && 0.0 < lambda_min)
        || lambda_min >= lambda_max
    {
        return Err(Error::InvalidField {
            field: "lambda_min",
            message: format!("window {lambda_min}..{lambda_max} must be ascending-positive"),
        });
    }
    if !(2..=max_steps).contains(&steps) {
        return Err(Error::InvalidField {
            field: "steps",
            message: format!("steps {steps} outside 2..={max_steps}"),
        });
    }
    Ok(())
}

fn check_products(products: usize) -> Result<(), Error> {
    if !(1..=MAX_PRODUCTS).contains(&products) {
        return Err(Error::InvalidField {
            field: "products",
            message: format!("products {products} outside 1..={MAX_PRODUCTS}"),
        });
    }
    Ok(())
}

fn check_partition_shape(chiplets: usize, spares: usize, volume: u64) -> Result<(), Error> {
    if !(1..=MAX_CHIPLETS).contains(&chiplets) {
        return Err(Error::InvalidField {
            field: "chiplets",
            message: format!("chiplet count {chiplets} outside 1..={MAX_CHIPLETS}"),
        });
    }
    if spares > MAX_SPARES {
        return Err(Error::InvalidField {
            field: "spares",
            message: format!("spare count {spares} above {MAX_SPARES}"),
        });
    }
    if volume == 0 {
        return Err(Error::InvalidField {
            field: "volume",
            message: "volume must be at least 1".to_string(),
        });
    }
    Ok(())
}

fn check_tile(
    lambda_range: (f64, f64, usize),
    n_tr_range: (f64, f64, usize),
) -> Result<TileRequest, Error> {
    let (lambda_min, lambda_max, lambda_steps) = lambda_range;
    let (n_tr_min, n_tr_max, n_tr_steps) = n_tr_range;
    check_window(lambda_min, lambda_max, lambda_steps, MAX_TILE_STEPS)?;
    if !(n_tr_min.is_finite() && n_tr_max.is_finite() && 0.0 < n_tr_min) || n_tr_min >= n_tr_max {
        return Err(Error::InvalidField {
            field: "n_tr_min",
            message: format!("window {n_tr_min}..{n_tr_max} must be ascending-positive"),
        });
    }
    if !(2..=MAX_TILE_STEPS).contains(&n_tr_steps) {
        return Err(Error::InvalidField {
            field: "n_tr_steps",
            message: format!("steps {n_tr_steps} outside 2..={MAX_TILE_STEPS}"),
        });
    }
    Ok((lambda_range, n_tr_range))
}

impl Query {
    /// Parses a query from its JSON object form (the wire format's
    /// `query` field).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnsupportedQuery`], [`Error::MissingField`] or
    /// [`Error::InvalidField`] describing the first problem found.
    pub fn from_json(v: &Json) -> Result<Self, Error> {
        let kind = v
            .get("type")
            .and_then(Json::as_str)
            .ok_or(Error::MissingField { field: "type" })?;
        match kind {
            "product" => Ok(Query::Product(ProductSpec::from_json(v)?)),
            "table3_row" => {
                let id = usize_field(v, "id")?;
                let id = u8::try_from(id).map_err(|_| Error::UnknownTableRow { id: id as u32 })?;
                Ok(Query::Table3Row { id })
            }
            "table3" => Ok(Query::Table3),
            "scenario1_sweep" | "scenario2_sweep" => {
                let x = f64_field(v, "x")?;
                let lambda_min = f64_field_or(v, "lambda_min", 0.2)?;
                let lambda_max = f64_field_or(v, "lambda_max", 1.2)?;
                let steps = usize_field_or(v, "steps", 41)?;
                if kind == "scenario1_sweep" {
                    Ok(Query::Scenario1Sweep {
                        x,
                        lambda_min,
                        lambda_max,
                        steps,
                    })
                } else {
                    Ok(Query::Scenario2Sweep {
                        x,
                        lambda_min,
                        lambda_max,
                        steps,
                    })
                }
            }
            "surface_tile" => Ok(Query::SurfaceTile {
                lambda_min: f64_field(v, "lambda_min")?,
                lambda_max: f64_field(v, "lambda_max")?,
                lambda_steps: usize_field(v, "lambda_steps")?,
                n_tr_min: f64_field(v, "n_tr_min")?,
                n_tr_max: f64_field(v, "n_tr_max")?,
                n_tr_steps: usize_field(v, "n_tr_steps")?,
            }),
            "optimal_lambda" => Ok(Query::OptimalLambda {
                spec: ProductSpec::from_json(v)?,
                lambda_min: f64_field_or(v, "lambda_min", 0.3)?,
                lambda_max: f64_field_or(v, "lambda_max", 1.2)?,
                steps: usize_field_or(v, "steps", 481)?,
            }),
            "mc_yield" => Ok(Query::McYield {
                products: usize_field_or(v, "products", 4)?,
                volume_each: f64_field_or(v, "volume_each", 5_000.0)?,
                replications: usize_field_or(v, "replications", 200)?,
                jitter: f64_field_or(v, "jitter", 0.3)?,
                seed: {
                    let raw = f64_field_or(v, "seed", 0.0)?;
                    if raw.fract() != 0.0 || raw < 0.0 {
                        return Err(Error::InvalidField {
                            field: "seed",
                            message: format!("expected a non-negative integer, got {raw}"),
                        });
                    }
                    raw as u64
                },
            }),
            "roadmap" => Ok(Query::Roadmap {
                from: usize_field_or(v, "from", 1986)? as u32,
                to: usize_field_or(v, "to", 2002)? as u32,
            }),
            "product_mix" => Ok(Query::ProductMix {
                products: usize_field_or(v, "products", 8)?,
                volume_each: f64_field_or(v, "volume_each", 1_000.0)?,
                mono_volume: f64_field_or(v, "mono_volume", 100_000.0)?,
            }),
            "server_stats" => Ok(Query::ServerStats),
            "chiplet_cost" => Ok(Query::ChipletCost {
                transistors: f64_field(v, "transistors")?,
                lambda_um: f64_field(v, "lambda_um")?,
                chiplets: usize_field(v, "chiplets")?,
                spares: usize_field_or(v, "spares", 0)?,
                volume: usize_field_or(v, "volume", 100_000)? as u64,
            }),
            "chiplet_partition_sweep" => Ok(Query::ChipletPartitionSweep {
                transistors: f64_field(v, "transistors")?,
                volume: usize_field_or(v, "volume", 100_000)? as u64,
                lambda_min: f64_field_or(v, "lambda_min", 0.5)?,
                lambda_max: f64_field_or(v, "lambda_max", 1.2)?,
                lambda_steps: usize_field_or(v, "lambda_steps", 15)?,
                max_chiplets: usize_field_or(v, "max_chiplets", 8)?,
                max_spares: usize_field_or(v, "max_spares", 1)?,
            }),
            other => Err(Error::UnsupportedQuery {
                found: other.to_string(),
            }),
        }
    }

    /// The JSON object form of this query (inverse of
    /// [`Query::from_json`]).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let tag = |t: &str| ("type", Json::Str(t.to_string()));
        match self {
            Query::Product(spec) => {
                let mut pairs = vec![tag("product")];
                pairs.extend(spec.to_pairs());
                Json::obj(pairs)
            }
            Query::Table3Row { id } => {
                Json::obj(vec![tag("table3_row"), ("id", Json::Num(f64::from(*id)))])
            }
            Query::Table3 => Json::obj(vec![tag("table3")]),
            Query::Scenario1Sweep {
                x,
                lambda_min,
                lambda_max,
                steps,
            } => Json::obj(vec![
                tag("scenario1_sweep"),
                ("x", Json::Num(*x)),
                ("lambda_min", Json::Num(*lambda_min)),
                ("lambda_max", Json::Num(*lambda_max)),
                ("steps", Json::Num(*steps as f64)),
            ]),
            Query::Scenario2Sweep {
                x,
                lambda_min,
                lambda_max,
                steps,
            } => Json::obj(vec![
                tag("scenario2_sweep"),
                ("x", Json::Num(*x)),
                ("lambda_min", Json::Num(*lambda_min)),
                ("lambda_max", Json::Num(*lambda_max)),
                ("steps", Json::Num(*steps as f64)),
            ]),
            Query::SurfaceTile {
                lambda_min,
                lambda_max,
                lambda_steps,
                n_tr_min,
                n_tr_max,
                n_tr_steps,
            } => Json::obj(vec![
                tag("surface_tile"),
                ("lambda_min", Json::Num(*lambda_min)),
                ("lambda_max", Json::Num(*lambda_max)),
                ("lambda_steps", Json::Num(*lambda_steps as f64)),
                ("n_tr_min", Json::Num(*n_tr_min)),
                ("n_tr_max", Json::Num(*n_tr_max)),
                ("n_tr_steps", Json::Num(*n_tr_steps as f64)),
            ]),
            Query::OptimalLambda {
                spec,
                lambda_min,
                lambda_max,
                steps,
            } => {
                let mut pairs = vec![tag("optimal_lambda")];
                pairs.extend(spec.to_pairs());
                pairs.push(("lambda_min", Json::Num(*lambda_min)));
                pairs.push(("lambda_max", Json::Num(*lambda_max)));
                pairs.push(("steps", Json::Num(*steps as f64)));
                Json::obj(pairs)
            }
            Query::McYield {
                products,
                volume_each,
                replications,
                jitter,
                seed,
            } => Json::obj(vec![
                tag("mc_yield"),
                ("products", Json::Num(*products as f64)),
                ("volume_each", Json::Num(*volume_each)),
                ("replications", Json::Num(*replications as f64)),
                ("jitter", Json::Num(*jitter)),
                ("seed", Json::Num(*seed as f64)),
            ]),
            Query::Roadmap { from, to } => Json::obj(vec![
                tag("roadmap"),
                ("from", Json::Num(f64::from(*from))),
                ("to", Json::Num(f64::from(*to))),
            ]),
            Query::ProductMix {
                products,
                volume_each,
                mono_volume,
            } => Json::obj(vec![
                tag("product_mix"),
                ("products", Json::Num(*products as f64)),
                ("volume_each", Json::Num(*volume_each)),
                ("mono_volume", Json::Num(*mono_volume)),
            ]),
            Query::ServerStats => Json::obj(vec![tag("server_stats")]),
            Query::ChipletCost {
                transistors,
                lambda_um,
                chiplets,
                spares,
                volume,
            } => Json::obj(vec![
                tag("chiplet_cost"),
                ("transistors", Json::Num(*transistors)),
                ("lambda_um", Json::Num(*lambda_um)),
                ("chiplets", Json::Num(*chiplets as f64)),
                ("spares", Json::Num(*spares as f64)),
                ("volume", Json::Num(*volume as f64)),
            ]),
            Query::ChipletPartitionSweep {
                transistors,
                volume,
                lambda_min,
                lambda_max,
                lambda_steps,
                max_chiplets,
                max_spares,
            } => Json::obj(vec![
                tag("chiplet_partition_sweep"),
                ("transistors", Json::Num(*transistors)),
                ("volume", Json::Num(*volume as f64)),
                ("lambda_min", Json::Num(*lambda_min)),
                ("lambda_max", Json::Num(*lambda_max)),
                ("lambda_steps", Json::Num(*lambda_steps as f64)),
                ("max_chiplets", Json::Num(*max_chiplets as f64)),
                ("max_spares", Json::Num(*max_spares as f64)),
            ]),
        }
    }

    /// Evaluates against the process-wide context on the ambient
    /// executor (`MALY_PAR_THREADS`).
    ///
    /// # Errors
    ///
    /// Returns the unified [`Error`] for validation and model failures.
    pub fn evaluate(&self) -> Result<QueryResponse, Error> {
        self.evaluate_with(&Executor::from_env(), EvalContext::process())
    }

    /// Evaluates on an explicit executor and context. Results are
    /// bit-identical at every executor width.
    ///
    /// # Errors
    ///
    /// Returns the unified [`Error`] for validation and model failures.
    pub fn evaluate_with(
        &self,
        exec: &Executor,
        ctx: &EvalContext,
    ) -> Result<QueryResponse, Error> {
        let _span = maly_obs::span("model.query").with_histogram(&context::EVAL_NS);
        context::QUERIES.incr();
        match self {
            Query::Product(spec) => {
                let scenario = spec.scenario()?;
                let b = scenario.evaluate()?;
                Ok(QueryResponse::Product(ProductReport {
                    name: spec.name.clone(),
                    die_area_cm2: scenario.die_area().value(),
                    wafer_cost: b.wafer_cost.value(),
                    dies_per_wafer: b.dies_per_wafer.value(),
                    die_yield: b.die_yield.value(),
                    good_dies_per_wafer: b.good_dies_per_wafer,
                    cost_per_good_die: b.cost_per_good_die.value(),
                    cost_per_transistor_micro: b.cost_per_transistor.to_micro_dollars().value(),
                }))
            }
            Query::Table3Row { id } => {
                let rows = &context::shared().table3_rows;
                let row = rows
                    .iter()
                    .find(|r| r.id == *id)
                    .ok_or(Error::UnknownTableRow { id: u32::from(*id) })?;
                Ok(QueryResponse::Table3(vec![table3_report(row)?]))
            }
            Query::Table3 => {
                let rows = &context::shared().table3_rows;
                // Rows are independent eq. (1) evaluations; batch them
                // across the executor in printed order.
                let reports = exec.map_indexed(rows.len(), |i| table3_report(&rows[i]));
                Ok(QueryResponse::Table3(
                    reports.into_iter().collect::<Result<Vec<_>, _>>()?,
                ))
            }
            Query::Scenario1Sweep {
                x,
                lambda_min,
                lambda_max,
                steps,
            } => {
                check_window(*lambda_min, *lambda_max, *steps, MAX_SWEEP_STEPS)?;
                let s1 = Scenario1::fig6(*x)?;
                let series = s1.sweep(
                    Microns::new(*lambda_min)?,
                    Microns::new(*lambda_max)?,
                    *steps,
                )?;
                Ok(QueryResponse::Sweep(sweep_points(series)))
            }
            Query::Scenario2Sweep {
                x,
                lambda_min,
                lambda_max,
                steps,
            } => {
                check_window(*lambda_min, *lambda_max, *steps, MAX_SWEEP_STEPS)?;
                let s2 = Scenario2::fig7(*x)?;
                let series = s2
                    .sweep(
                        Microns::new(*lambda_min)?,
                        Microns::new(*lambda_max)?,
                        *steps,
                    )
                    // The window is checked, so a unit failure here is
                    // the Fig 3 die area underflowing at the top of it.
                    .map_err(|e| match e {
                        CostError::InvalidInput(unit) => Error::InvalidField {
                            field: "lambda_max",
                            message: format!(
                                "the die-size trend has no positive area up to λ = {lambda_max} µm: {unit}"
                            ),
                        },
                        other => other.into(),
                    })?;
                Ok(QueryResponse::Sweep(sweep_points(series)))
            }
            Query::SurfaceTile {
                lambda_min,
                lambda_max,
                lambda_steps,
                n_tr_min,
                n_tr_max,
                n_tr_steps,
            } => {
                let request = check_tile(
                    (*lambda_min, *lambda_max, *lambda_steps),
                    (*n_tr_min, *n_tr_max, *n_tr_steps),
                )?;
                Ok(crate::plan::tile(exec, ctx, request))
            }
            Query::OptimalLambda {
                spec,
                lambda_min,
                lambda_max,
                steps,
            } => {
                check_window(*lambda_min, *lambda_max, *steps, MAX_SWEEP_STEPS)?;
                let scenario = spec.scenario()?;
                let best =
                    optimal_feature_size_with(exec, &scenario, *lambda_min, *lambda_max, *steps)?;
                Ok(QueryResponse::OptimalLambda(best.map(|(lambda, cost)| {
                    OptimalReport {
                        lambda_um: lambda.value(),
                        cost_per_transistor: cost,
                    }
                })))
            }
            Query::McYield {
                products,
                volume_each,
                replications,
                jitter,
                seed,
            } => {
                check_products(*products)?;
                if !(*volume_each > 0.0 && volume_each.is_finite()) {
                    return Err(Error::InvalidField {
                        field: "volume_each",
                        message: format!("volume {volume_each} must be positive"),
                    });
                }
                if !(1..=MAX_REPLICATIONS).contains(replications) {
                    return Err(Error::InvalidField {
                        field: "replications",
                        message: format!(
                            "replications {replications} outside 1..={MAX_REPLICATIONS}"
                        ),
                    });
                }
                let demand: Vec<(ProcessFlow, f64)> = (0..*products)
                    .map(|i| {
                        // Spread products over nearby nodes, as the
                        // product_mix study does.
                        let lambda = 0.8 + 0.05 * (i % 4) as f64;
                        (
                            ProcessFlow::for_generation(format!("mc-{i}"), lambda),
                            *volume_each,
                        )
                    })
                    .collect();
                let config = McConfig {
                    replications: *replications,
                    volume_jitter: *jitter,
                    base_seed: *seed,
                };
                let report = mc::run_with(exec, &FabEconomics::default(), &demand, &config)
                    .map_err(Error::Unit)?;
                Ok(QueryResponse::Mc(McSummary {
                    replications: report.samples.len(),
                    mean_wafer_cost: report.mean_wafer_cost.value(),
                    min_wafer_cost: report.min_wafer_cost.value(),
                    max_wafer_cost: report.max_wafer_cost.value(),
                    mean_utilization: report.mean_utilization,
                    cost_spread: report.cost_spread(),
                }))
            }
            Query::Roadmap { from, to } => {
                if from >= to {
                    return Err(Error::InvalidField {
                        field: "from",
                        message: format!("year range {from}..{to} must be ascending"),
                    });
                }
                let roadmap = &context::shared().roadmap;
                let points = roadmap.project(*from, *to)?;
                Ok(QueryResponse::Roadmap(
                    points
                        .iter()
                        .map(|p| RoadmapRow {
                            year: p.year,
                            lambda_um: p.lambda.value(),
                            optimistic_micro: p.optimistic.to_micro_dollars().value(),
                            realistic_micro: p.realistic.to_micro_dollars().value(),
                        })
                        .collect(),
                ))
            }
            Query::ProductMix {
                products,
                volume_each,
                mono_volume,
            } => {
                check_products(*products)?;
                if !(*volume_each > 0.0) || !(*mono_volume > 0.0) {
                    return Err(Error::InvalidField {
                        field: "products",
                        message: "need positive products and volumes".to_string(),
                    });
                }
                let study = product_mix_study(*products, *volume_each, *mono_volume);
                Ok(QueryResponse::ProductMix(MixReport {
                    mono_cost: study.mono_cost.value(),
                    multi_cost: study.multi_cost.value(),
                    cost_ratio: study.cost_ratio,
                    mono_utilization: study.mono_utilization,
                    multi_utilization: study.multi_utilization,
                }))
            }
            Query::ServerStats => Ok(QueryResponse::ServerStats(StatsReport::capture())),
            Query::ChipletCost {
                transistors,
                lambda_um,
                chiplets,
                spares,
                volume,
            } => {
                check_partition_shape(*chiplets, *spares, *volume)?;
                let params = maly_chiplet::ChipletParameters::fig8_mcm();
                let partition = maly_chiplet::Partition {
                    chiplets: *chiplets as u32,
                    spares: *spares as u32,
                    lambda: Microns::new(*lambda_um)?,
                    system_transistors: TransistorCount::new(*transistors)?,
                    volume: *volume,
                };
                let cost = params.price_partition(&partition)?;
                Ok(QueryResponse::Chiplet(ChipletReport::from_cost(&cost)))
            }
            Query::ChipletPartitionSweep {
                transistors,
                volume,
                lambda_min,
                lambda_max,
                lambda_steps,
                max_chiplets,
                max_spares,
            } => {
                check_window(*lambda_min, *lambda_max, *lambda_steps, MAX_SWEEP_STEPS)?;
                check_partition_shape(*max_chiplets, *max_spares, *volume)?;
                let candidates = *lambda_steps * *max_chiplets * (*max_spares + 1);
                if candidates > MAX_SWEEP_STEPS {
                    return Err(Error::InvalidField {
                        field: "lambda_steps",
                        message: format!(
                            "partition grid has {candidates} candidates, above {MAX_SWEEP_STEPS}"
                        ),
                    });
                }
                let params = maly_chiplet::ChipletParameters::fig8_mcm();
                let spec = maly_chiplet::SweepSpec {
                    system_transistors: TransistorCount::new(*transistors)?,
                    volume: *volume,
                    lambda_min: Microns::new(*lambda_min)?,
                    lambda_max: Microns::new(*lambda_max)?,
                    lambda_steps: *lambda_steps,
                    max_chiplets: *max_chiplets as u32,
                    max_spares: *max_spares as u32,
                };
                let outcome = params.sweep(&spec, exec)?;
                Ok(QueryResponse::ChipletSweep(ChipletSweepReport {
                    evaluated: outcome.evaluated,
                    feasible: outcome.feasible,
                    best: ChipletReport::from_cost(&outcome.best),
                    per_chiplet_count: outcome
                        .per_chiplet_count
                        .iter()
                        .map(ChipletReport::from_cost)
                        .collect(),
                }))
            }
        }
    }

    /// The validated grid ranges when this query is a well-formed
    /// [`Query::SurfaceTile`] — the tiles the batch path resolves.
    /// Malformed tiles return `None` and keep their per-query typed
    /// error from [`Query::evaluate_with`].
    pub(crate) fn tile_request(&self) -> Option<TileRequest> {
        match self {
            Query::SurfaceTile {
                lambda_min,
                lambda_max,
                lambda_steps,
                n_tr_min,
                n_tr_max,
                n_tr_steps,
            } => check_tile(
                (*lambda_min, *lambda_max, *lambda_steps),
                (*n_tr_min, *n_tr_max, *n_tr_steps),
            )
            .ok(),
            _ => None,
        }
    }

    /// Evaluates a batch of queries, preserving input order. Each
    /// element fails independently.
    ///
    /// The surface tiles of the whole batch are resolved first, each
    /// key once, the cold ones priced as the dense surface of their own
    /// windows ([`crate::plan`]); every tile query then answers from
    /// that resolution and every other query evaluates through
    /// [`Query::evaluate_with`]. Results are
    /// bit-identical to [`Query::evaluate_batch_unplanned`] (and to
    /// per-query [`Query::evaluate_with`]) at every executor width.
    #[must_use]
    pub fn evaluate_batch(
        exec: &Executor,
        ctx: &EvalContext,
        queries: &[Query],
    ) -> Vec<Result<QueryResponse, Error>> {
        crate::plan::evaluate(exec, ctx, queries)
    }

    /// The direct batch path: every query scheduled independently
    /// across the executor, each cold tile priced by its own query.
    /// Kept only as the batch path's bit-identity oracle for tests and
    /// benches; no service path calls it.
    #[must_use]
    pub fn evaluate_batch_unplanned(
        exec: &Executor,
        ctx: &EvalContext,
        queries: &[Query],
    ) -> Vec<Result<QueryResponse, Error>> {
        // Each query may itself fan out (surface tiles, MC); batching
        // happens at the query level, inner evaluation reuses the same
        // executor. Index order keeps the batch deterministic.
        exec.map_indexed(queries.len(), |i| queries[i].evaluate_with(exec, ctx))
    }
}

fn table3_report(row: &maly_paper_data::table3::Table3Row) -> Result<Table3Report, Error> {
    let measured = row
        .scenario()?
        .evaluate()?
        .cost_per_transistor
        .to_micro_dollars()
        .value();
    Ok(Table3Report {
        id: row.id,
        name: row.name.to_string(),
        paper_micro_dollars: row.paper_cost_micro_dollars,
        model_micro_dollars: measured,
    })
}

fn sweep_points(series: Vec<(f64, Dollars)>) -> Vec<SweepPoint> {
    series
        .into_iter()
        .map(|(lambda_um, cost)| SweepPoint {
            lambda_um,
            cost_per_transistor: cost.value(),
        })
        .collect()
}

// ---------------------------------------------------------------------
// Response serialization
// ---------------------------------------------------------------------

impl QueryResponse {
    /// The JSON object form of this response — the wire format's `ok`
    /// payload. Serialization is deterministic: same response, same
    /// bytes.
    #[must_use]
    pub fn to_json(&self) -> Json {
        match self {
            QueryResponse::Product(r) => Json::obj(vec![
                ("kind", Json::Str("product".to_string())),
                ("name", Json::Str(r.name.clone())),
                ("die_area_cm2", Json::Num(r.die_area_cm2)),
                ("wafer_cost", Json::Num(r.wafer_cost)),
                ("dies_per_wafer", Json::Num(f64::from(r.dies_per_wafer))),
                ("die_yield", Json::Num(r.die_yield)),
                ("good_dies_per_wafer", Json::Num(r.good_dies_per_wafer)),
                ("cost_per_good_die", Json::Num(r.cost_per_good_die)),
                (
                    "cost_per_transistor_micro",
                    Json::Num(r.cost_per_transistor_micro),
                ),
            ]),
            QueryResponse::Table3(rows) => Json::obj(vec![
                ("kind", Json::Str("table3".to_string())),
                (
                    "rows",
                    Json::Arr(
                        rows.iter()
                            .map(|r| {
                                Json::obj(vec![
                                    ("id", Json::Num(f64::from(r.id))),
                                    ("name", Json::Str(r.name.clone())),
                                    ("paper_micro_dollars", Json::Num(r.paper_micro_dollars)),
                                    ("model_micro_dollars", Json::Num(r.model_micro_dollars)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            QueryResponse::Sweep(points) => Json::obj(vec![
                ("kind", Json::Str("sweep".to_string())),
                (
                    "points",
                    Json::Arr(
                        points
                            .iter()
                            .map(|p| {
                                Json::Arr(vec![
                                    Json::Num(p.lambda_um),
                                    Json::Num(p.cost_per_transistor),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            QueryResponse::Surface(body) => Json::Raw(Arc::clone(&body.0)),
            QueryResponse::OptimalLambda(best) => Json::obj(vec![
                ("kind", Json::Str("optimal_lambda".to_string())),
                (
                    "best",
                    match best {
                        Some(r) => Json::obj(vec![
                            ("lambda_um", Json::Num(r.lambda_um)),
                            ("cost_per_transistor", Json::Num(r.cost_per_transistor)),
                        ]),
                        None => Json::Null,
                    },
                ),
            ]),
            QueryResponse::Mc(m) => Json::obj(vec![
                ("kind", Json::Str("mc".to_string())),
                ("replications", Json::Num(m.replications as f64)),
                ("mean_wafer_cost", Json::Num(m.mean_wafer_cost)),
                ("min_wafer_cost", Json::Num(m.min_wafer_cost)),
                ("max_wafer_cost", Json::Num(m.max_wafer_cost)),
                ("mean_utilization", Json::Num(m.mean_utilization)),
                ("cost_spread", Json::Num(m.cost_spread)),
            ]),
            QueryResponse::Roadmap(rows) => Json::obj(vec![
                ("kind", Json::Str("roadmap".to_string())),
                (
                    "rows",
                    Json::Arr(
                        rows.iter()
                            .map(|r| {
                                Json::obj(vec![
                                    ("year", Json::Num(r.year)),
                                    ("lambda_um", Json::Num(r.lambda_um)),
                                    ("optimistic_micro", Json::Num(r.optimistic_micro)),
                                    ("realistic_micro", Json::Num(r.realistic_micro)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            QueryResponse::ProductMix(m) => Json::obj(vec![
                ("kind", Json::Str("product_mix".to_string())),
                ("mono_cost", Json::Num(m.mono_cost)),
                ("multi_cost", Json::Num(m.multi_cost)),
                ("cost_ratio", Json::Num(m.cost_ratio)),
                ("mono_utilization", Json::Num(m.mono_utilization)),
                ("multi_utilization", Json::Num(m.multi_utilization)),
            ]),
            QueryResponse::Chiplet(r) => {
                let mut pairs = vec![("kind", Json::Str("chiplet".to_string()))];
                pairs.extend(r.pairs());
                Json::obj(pairs)
            }
            QueryResponse::ChipletSweep(s) => Json::obj(vec![
                ("kind", Json::Str("chiplet_sweep".to_string())),
                ("evaluated", Json::Num(s.evaluated as f64)),
                ("feasible", Json::Num(s.feasible as f64)),
                ("best", s.best.to_json()),
                (
                    "per_chiplet_count",
                    Json::Arr(
                        s.per_chiplet_count
                            .iter()
                            .map(ChipletReport::to_json)
                            .collect(),
                    ),
                ),
            ]),
            QueryResponse::ServerStats(s) => {
                let counts = |v: &[(String, u64)]| -> Json {
                    Json::Obj(
                        v.iter()
                            .map(|(k, n)| (k.clone(), Json::Num(*n as f64)))
                            .collect(),
                    )
                };
                let latency = Json::Obj(
                    s.latency
                        .iter()
                        .map(|l| {
                            (
                                l.name.clone(),
                                Json::obj(vec![
                                    ("count", Json::Num(l.count as f64)),
                                    ("mean_ns", Json::Num(l.mean_ns)),
                                    ("p50_ns", Json::Num(l.p50_ns)),
                                    ("p90_ns", Json::Num(l.p90_ns)),
                                    ("p99_ns", Json::Num(l.p99_ns)),
                                    ("p999_ns", Json::Num(l.p999_ns)),
                                ]),
                            )
                        })
                        .collect(),
                );
                Json::obj(vec![
                    ("kind", Json::Str("server_stats".to_string())),
                    ("work", counts(&s.work)),
                    ("diag", counts(&s.diag)),
                    (
                        "gauges",
                        Json::Obj(
                            s.gauges
                                .iter()
                                .map(|(k, n)| (k.clone(), Json::Num(*n as f64)))
                                .collect(),
                        ),
                    ),
                    ("latency", latency),
                ])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn row1_spec() -> ProductSpec {
        ProductSpec {
            name: "BiCMOS µP".to_string(),
            transistors: 3.1e6,
            lambda_um: 0.8,
            density: 150.0,
            radius_cm: 7.5,
            yield0: 0.9,
            c0: 700.0,
            x: 1.4,
        }
    }

    #[test]
    fn product_query_reproduces_table3_row1() {
        let resp = Query::Product(row1_spec()).evaluate().unwrap();
        let QueryResponse::Product(report) = resp else {
            panic!("wrong response kind");
        };
        assert_eq!(report.dies_per_wafer, 46);
        assert!((report.cost_per_transistor_micro - 9.40).abs() < 0.05);
    }

    #[test]
    fn queries_round_trip_through_json() {
        let queries = vec![
            Query::Product(row1_spec()),
            Query::Table3Row { id: 13 },
            Query::Table3,
            Query::Scenario1Sweep {
                x: 1.4,
                lambda_min: 0.3,
                lambda_max: 1.2,
                steps: 11,
            },
            Query::Scenario2Sweep {
                x: 2.4,
                lambda_min: 0.3,
                lambda_max: 1.2,
                steps: 11,
            },
            Query::SurfaceTile {
                lambda_min: 0.4,
                lambda_max: 1.5,
                lambda_steps: 8,
                n_tr_min: 2.0e4,
                n_tr_max: 4.0e6,
                n_tr_steps: 6,
            },
            Query::OptimalLambda {
                spec: row1_spec(),
                lambda_min: 0.3,
                lambda_max: 1.2,
                steps: 21,
            },
            Query::McYield {
                products: 2,
                volume_each: 1_000.0,
                replications: 10,
                jitter: 0.3,
                seed: 7,
            },
            Query::Roadmap {
                from: 1990,
                to: 1994,
            },
            Query::ProductMix {
                products: 4,
                volume_each: 1_000.0,
                mono_volume: 50_000.0,
            },
            Query::ServerStats,
            Query::ChipletCost {
                transistors: 2.0e6,
                lambda_um: 0.9,
                chiplets: 4,
                spares: 1,
                volume: 50_000,
            },
            Query::ChipletPartitionSweep {
                transistors: 2.0e6,
                volume: 50_000,
                lambda_min: 0.5,
                lambda_max: 1.2,
                lambda_steps: 15,
                max_chiplets: 8,
                max_spares: 1,
            },
        ];
        for q in queries {
            let text = q.to_json().write();
            let back = Query::from_json(&json::parse(&text).unwrap()).unwrap();
            assert_eq!(q, back, "{text}");
        }
    }

    #[test]
    fn unknown_type_and_missing_fields_are_typed_errors() {
        let bad = json::parse("{\"type\":\"nonsense\"}").unwrap();
        let err = Query::from_json(&bad).unwrap_err();
        assert!(matches!(&err, Error::UnsupportedQuery { found } if found == "nonsense"));
        assert_eq!(err.kind(), "unsupported-query");
        let missing = json::parse("{\"type\":\"product\"}").unwrap();
        assert!(matches!(
            Query::from_json(&missing),
            Err(Error::MissingField { .. })
        ));
        let no_type = json::parse("{}").unwrap();
        assert!(matches!(
            Query::from_json(&no_type),
            Err(Error::MissingField { field: "type" })
        ));
        // A whole number past the bound is told the bound, not that it
        // is not a non-negative integer; a fraction keeps that message.
        let err = |text: &str| Query::from_json(&json::parse(text).unwrap()).unwrap_err();
        let huge = err("{\"type\":\"table3_row\",\"id\":5000000000}");
        assert_eq!(huge.kind(), "invalid-field");
        assert!(
            huge.to_string()
                .contains("integer 5000000000 above 4294967295"),
            "{huge}"
        );
        let fraction = err("{\"type\":\"table3_row\",\"id\":1.5}");
        assert!(fraction
            .to_string()
            .contains("expected a non-negative integer, got 1.5"));
    }

    #[test]
    fn subnormal_transistor_count_is_an_invalid_field() {
        // 5e-324 transistors underflow the die area to zero, which the
        // square-die outline cannot take; the query layer rejects it.
        let spec = ProductSpec {
            transistors: 5e-324,
            ..row1_spec()
        };
        assert!(matches!(
            Query::Product(spec).evaluate(),
            Err(Error::InvalidField {
                field: "transistors",
                ..
            })
        ));
    }

    #[test]
    fn surface_tile_validates_before_compute() {
        // CostSurface::compute panics on degenerate grids; the query
        // layer must reject them as typed errors instead.
        let _guard = context::counter_test_lock();
        let tile = |(lambda_min, lambda_max, lambda_steps), (n_tr_min, n_tr_max, n_tr_steps)| {
            Query::SurfaceTile {
                lambda_min,
                lambda_max,
                lambda_steps,
                n_tr_min,
                n_tr_max,
                n_tr_steps,
            }
            .evaluate_with(&Executor::serial(), &EvalContext::new())
        };
        let (lambda, n_tr) = ((0.4, 1.5, 8), (2.0e4, 4.0e6, 6));
        for (lo, hi) in [
            (f64::NAN, 1.5),
            (0.4, f64::NAN),
            (f64::NEG_INFINITY, 1.5),
            (0.4, f64::INFINITY),
            (f64::INFINITY, f64::INFINITY),
            (1.0, 1.0),
            (0.0, 1.5),
        ] {
            for got in [tile((lo, hi, 8), n_tr), tile(lambda, (lo, hi, 6))] {
                assert!(
                    matches!(got, Err(Error::InvalidField { .. })),
                    "{lo}..{hi}: {got:?}"
                );
            }
        }
        // Every window `check_tile` admits prices without a panic, to a
        // body whose axes are numbers, at its extremes too: subnormal
        // and 1e308 endpoints with 2 and 512 steps on either axis, and
        // the widest window there is.
        let tiny = f64::from_bits(1);
        for (lo, hi) in [(tiny, 1.5), (0.4, 1e308), (tiny, 1e308), (tiny, f64::MAX)] {
            for (a, b) in [(2, 2), (2, 512), (512, 2)] {
                for got in [
                    tile((lo, hi, a), (2.0e4, 4.0e6, b)),
                    tile((0.4, 1.5, a), (lo, hi, b)),
                    tile((lo, hi, a), (lo, hi, b)),
                ] {
                    let body = json::parse(&got.unwrap().to_json().write()).unwrap();
                    for axis in ["lambda_axis", "n_tr_axis"] {
                        let values = body.get(axis).and_then(Json::as_arr).unwrap();
                        assert!(
                            values.iter().all(|v| v.as_f64().is_some()),
                            "{axis} of {lo}..{hi}, {a}x{b}"
                        );
                    }
                }
            }
        }
        let q = Query::SurfaceTile {
            lambda_min: 0.4,
            lambda_max: 1.5,
            lambda_steps: 1,
            n_tr_min: 2.0e4,
            n_tr_max: 4.0e6,
            n_tr_steps: 6,
        };
        assert!(matches!(q.evaluate(), Err(Error::InvalidField { .. })));
        let q = Query::SurfaceTile {
            lambda_min: 1.5,
            lambda_max: 0.4,
            lambda_steps: 8,
            n_tr_min: 2.0e4,
            n_tr_max: 4.0e6,
            n_tr_steps: 6,
        };
        assert!(matches!(q.evaluate(), Err(Error::InvalidField { .. })));
        let q = Query::SurfaceTile {
            lambda_min: 0.4,
            lambda_max: 1.5,
            lambda_steps: 8,
            n_tr_min: 2.0e4,
            n_tr_max: 4.0e6,
            n_tr_steps: MAX_TILE_STEPS + 1,
        };
        assert!(matches!(q.evaluate(), Err(Error::InvalidField { .. })));
    }

    #[test]
    fn unknown_table_row_is_a_typed_error() {
        assert!(matches!(
            Query::Table3Row { id: 99 }.evaluate(),
            Err(Error::UnknownTableRow { id: 99 })
        ));
        // An id past `u8` echoes the id asked for.
        let wire = json::parse("{\"type\":\"table3_row\",\"id\":300}").unwrap();
        let err = Query::from_json(&wire).unwrap_err();
        assert_eq!(err, Error::UnknownTableRow { id: 300 });
        assert_eq!(err.kind(), "unknown-table-row");
        assert!(err.to_string().contains("no row 300"), "{err}");
    }

    #[test]
    fn evaluation_is_thread_count_invariant() {
        // Evaluations bump the global tile counters; hold the lock so
        // the counter-golden tests see clean deltas.
        let _guard = context::counter_test_lock();
        let ctx = EvalContext::new();
        let queries = vec![
            Query::Table3,
            Query::Scenario2Sweep {
                x: 2.4,
                lambda_min: 0.3,
                lambda_max: 1.2,
                steps: 31,
            },
            Query::SurfaceTile {
                lambda_min: 0.4,
                lambda_max: 1.5,
                lambda_steps: 12,
                n_tr_min: 2.0e4,
                n_tr_max: 4.0e6,
                n_tr_steps: 10,
            },
            Query::McYield {
                products: 3,
                volume_each: 2_000.0,
                replications: 16,
                jitter: 0.3,
                seed: 42,
            },
            Query::ChipletPartitionSweep {
                transistors: 2.0e6,
                volume: 50_000,
                lambda_min: 0.5,
                lambda_max: 1.2,
                lambda_steps: 15,
                max_chiplets: 8,
                max_spares: 1,
            },
        ];
        for q in &queries {
            // Fresh context per width so the tile cache cannot mask a
            // divergent computation.
            let serial = q
                .evaluate_with(&Executor::with_threads(1), &EvalContext::new())
                .unwrap();
            let parallel = q
                .evaluate_with(&Executor::with_threads(8), &EvalContext::new())
                .unwrap();
            assert_eq!(
                serial.to_json().write(),
                parallel.to_json().write(),
                "{q:?} must be thread-count-invariant"
            );
        }
        // And a batch call preserves order and content.
        let batch = Query::evaluate_batch(&Executor::with_threads(4), &ctx, &queries);
        assert_eq!(batch.len(), queries.len());
        assert!(batch.iter().all(Result::is_ok));
    }

    #[test]
    fn repeated_surface_tile_reuses_the_cache() {
        let _guard = context::counter_test_lock();
        let ctx = EvalContext::new();
        let exec = Executor::serial();
        let q = Query::SurfaceTile {
            lambda_min: 0.5,
            lambda_max: 1.4,
            lambda_steps: 9,
            n_tr_min: 1.0e5,
            n_tr_max: 1.0e6,
            n_tr_steps: 7,
        };
        let cells_before = context::TILE_CELLS.value();
        let (hits0, misses0) = (context::TILE_HITS.value(), context::TILE_MISSES.value());
        let first = q.evaluate_with(&exec, &ctx).unwrap();
        let after_first = context::TILE_CELLS.value();
        assert_eq!(after_first - cells_before, 9 * 7, "cold tile evaluates");
        assert_eq!(context::TILE_MISSES.value() - misses0, 1, "one miss");
        assert_eq!(context::TILE_HITS.value() - hits0, 0);
        let second = q.evaluate_with(&exec, &ctx).unwrap();
        assert_eq!(
            context::TILE_CELLS.value(),
            after_first,
            "warm tile adds zero grid-cell work"
        );
        assert_eq!(context::TILE_HITS.value() - hits0, 1, "repeat is one hit");
        assert_eq!(context::TILE_MISSES.value() - misses0, 1, "and no new miss");
        assert_eq!(first.to_json().write(), second.to_json().write());
    }

    #[test]
    fn tile_request_extracts_only_valid_surface_tiles() {
        let good = Query::SurfaceTile {
            lambda_min: 0.5,
            lambda_max: 1.0,
            lambda_steps: 9,
            n_tr_min: 2.0e4,
            n_tr_max: 4.0e6,
            n_tr_steps: 24,
        };
        assert_eq!(
            good.tile_request(),
            Some(((0.5, 1.0, 9), (2.0e4, 4.0e6, 24)))
        );
        let degenerate = Query::SurfaceTile {
            lambda_min: 1.0,
            lambda_max: 0.5,
            lambda_steps: 9,
            n_tr_min: 2.0e4,
            n_tr_max: 4.0e6,
            n_tr_steps: 24,
        };
        assert_eq!(degenerate.tile_request(), None);
        assert_eq!(Query::Table3.tile_request(), None);
    }

    #[test]
    fn server_stats_snapshot_is_sorted_and_typed() {
        let QueryResponse::ServerStats(report) = Query::ServerStats.evaluate().unwrap() else {
            panic!("wrong response kind");
        };
        // Every section must be name-sorted — the deterministic-shape
        // contract the trace checker and goldens rely on.
        assert!(report.work.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(report.diag.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(report.gauges.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(report.latency.windows(2).all(|w| w[0].name <= w[1].name));
        // Evaluating the stats query itself bumps model.queries, so the
        // work section is never empty.
        assert!(report.work.iter().any(|(k, _)| k == "model.queries"));
        let text = QueryResponse::ServerStats(report).to_json().write();
        assert!(
            text.starts_with("{\"kind\":\"server_stats\",\"work\":{"),
            "{text}"
        );
        assert!(text.contains("\"diag\":{"), "{text}");
        assert!(text.contains("\"gauges\":{"), "{text}");
        assert!(text.contains("\"latency\":{"), "{text}");
    }

    #[test]
    fn chiplet_sweep_matches_direct_evaluation_and_pins_the_optimum() {
        let q = Query::ChipletPartitionSweep {
            transistors: 2.0e6,
            volume: 50_000,
            lambda_min: 0.5,
            lambda_max: 1.2,
            lambda_steps: 15,
            max_chiplets: 8,
            max_spares: 1,
        };
        let QueryResponse::ChipletSweep(report) = q.evaluate().unwrap() else {
            panic!("wrong kind");
        };
        // Bit-identical to the chiplet crate's direct sweep.
        let params = maly_chiplet::ChipletParameters::fig8_mcm();
        let spec = maly_chiplet::SweepSpec {
            system_transistors: TransistorCount::new(2.0e6).unwrap(),
            volume: 50_000,
            lambda_min: Microns::new(0.5).unwrap(),
            lambda_max: Microns::new(1.2).unwrap(),
            lambda_steps: 15,
            max_chiplets: 8,
            max_spares: 1,
        };
        let direct = params.sweep(&spec, &Executor::from_env()).unwrap();
        assert_eq!(report.evaluated, direct.evaluated);
        assert_eq!(report.feasible, direct.feasible);
        assert_eq!(
            report.best.cost_per_system.to_bits(),
            direct.best.cost_per_system.value().to_bits()
        );
        // The reference-point golden: 2M transistors at 50k volume
        // partition into 4 chiplets with no spares at λ = 1.2 µm.
        assert_eq!((report.best.chiplets, report.best.spares), (4, 0));
        assert!((report.best.lambda_um - 1.2).abs() < 1e-12);
        assert!((report.best.cost_per_system - 64.950_204_570_179).abs() < 1e-6);
        assert_eq!(report.per_chiplet_count.len(), 8);
    }

    #[test]
    fn chiplet_queries_validate_their_shape() {
        let base = Query::ChipletCost {
            transistors: 2.0e6,
            lambda_um: 0.9,
            chiplets: 0,
            spares: 0,
            volume: 1,
        };
        assert!(matches!(base.evaluate(), Err(Error::InvalidField { .. })));
        let q = Query::ChipletPartitionSweep {
            transistors: 2.0e6,
            volume: 50_000,
            lambda_min: 0.5,
            lambda_max: 1.2,
            lambda_steps: MAX_SWEEP_STEPS,
            max_chiplets: 8,
            max_spares: 1,
        };
        // 100k λ steps × 8 chiplets × 2 spares overflows the grid cap.
        assert!(matches!(q.evaluate(), Err(Error::InvalidField { .. })));
        let q = Query::ChipletCost {
            transistors: 2.0e6,
            lambda_um: 0.9,
            chiplets: 4,
            spares: MAX_SPARES + 1,
            volume: 1,
        };
        assert!(matches!(q.evaluate(), Err(Error::InvalidField { .. })));
    }

    #[test]
    fn sweep_response_matches_direct_scenario_evaluation() {
        let q = Query::Scenario1Sweep {
            x: 1.4,
            lambda_min: 0.4,
            lambda_max: 1.0,
            steps: 7,
        };
        let QueryResponse::Sweep(points) = q.evaluate().unwrap() else {
            panic!("wrong kind");
        };
        let direct = Scenario1::fig6(1.4)
            .unwrap()
            .sweep(Microns::new(0.4).unwrap(), Microns::new(1.0).unwrap(), 7)
            .unwrap();
        assert_eq!(points.len(), direct.len());
        for (p, (l, c)) in points.iter().zip(&direct) {
            assert_eq!(p.lambda_um.to_bits(), l.to_bits());
            assert_eq!(p.cost_per_transistor.to_bits(), c.value().to_bits());
        }
    }
}
