//! # silicon-cost
//!
//! A production-quality Rust implementation of the analytical silicon
//! cost model from **W. Maly, "Cost of Silicon Viewed from VLSI Design
//! Perspective", DAC 1994**, together with every substrate the paper's
//! analysis rests on: dies-per-wafer geometry, functional yield
//! models, technology trends, fab-line economics, and test/MCM
//! economics.
//!
//! This crate is a facade: it re-exports the workspace crates under
//! stable module names and offers a [`prelude`] for the common types.
//!
//! ## Quick start
//!
//! Reproduce row 1 of the paper's Table 3 — a 3.1 M-transistor BiCMOS
//! microprocessor at 0.8 µm costing 9.40 µ$ per transistor:
//!
//! ```
//! use silicon_cost::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let product = ProductScenario::builder("BiCMOS µP")
//!     .transistors(TransistorCount::new(3.1e6)?)
//!     .feature_size(Microns::new(0.8)?)
//!     .design_density(DesignDensity::new(150.0)?)
//!     .wafer_radius(Centimeters::new(7.5)?)
//!     .reference_yield(Probability::new(0.9)?)
//!     .reference_wafer_cost(Dollars::new(700.0)?)
//!     .cost_escalation(1.4)?
//!     .build()?;
//!
//! let cost = product.evaluate()?;
//! assert_eq!(cost.dies_per_wafer.value(), 46);
//! let micro = cost.cost_per_transistor.to_micro_dollars().value();
//! assert!((micro - 9.40).abs() < 0.05);
//! # Ok(())
//! # }
//! ```
//!
//! ## Module map
//!
//! | Module | Contents |
//! |--------|----------|
//! | [`units`] | Typed quantities (µm, cm², $, probabilities, densities) |
//! | [`wafer_geom`] | Dies-per-wafer: eq. (4), raster placement, bounds |
//! | [`yield_model`] | Poisson/Murphy/Seeds/NB yields, defect sizes, learning curves, Monte Carlo |
//! | [`tech_trend`] | Figs 1–4 datasets and trend fitting |
//! | [`fabline`] | Fab capacity/utilization economics, product mix, DES |
//! | [`test_economics`] | Test time, Williams–Brown escapes, MCM/KGD |
//! | [`cost_model`] | Eqs (1)–(9): the transistor cost model and scenarios |
//! | [`optim`] | λ optimization, Fig 8 contours, system partitioning |
//! | [`viz`] | Text plots, wafer maps, tables, CSV |
//! | [`paper_data`] | Everything the paper prints (Tables 1–3, captions) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use maly_cost_model as cost_model;
pub use maly_cost_optim as optim;
pub use maly_fabline_sim as fabline;
pub use maly_paper_data as paper_data;
pub use maly_tech_trend as tech_trend;
pub use maly_test_economics as test_economics;
pub use maly_units as units;
pub use maly_viz as viz;
pub use maly_wafer_geom as wafer_geom;
pub use maly_yield_model as yield_model;

/// The types almost every user touches.
pub mod prelude {
    pub use maly_cost_model::product::ProductScenario;
    pub use maly_cost_model::scenario::{Scenario1, Scenario2};
    pub use maly_cost_model::{
        CostBreakdown, CostError, DiesPerWaferMethod, TransistorCostModel, VolumeCostModel,
        WaferCostModel,
    };
    pub use maly_units::{
        Centimeters, DefectDensity, DesignDensity, DieCount, Dollars, MicroDollars, Microns,
        MicronsDelta, Millimeters, Probability, ProductionVolume, ReferenceDefectDensity,
        SquareCentimeters, SquareMicrons, SquareMillimeters, TransistorCount, UnitError,
    };
    pub use maly_wafer_geom::{DieDimensions, Wafer, WaferMap};
    pub use maly_yield_model::{
        AreaScaledYield, CompositeYield, MurphyYield, NegativeBinomialYield, PerfectYield,
        PoissonYield, ScaledPoissonYield, SeedsYield, YieldModel,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_resolve() {
        use crate::prelude::*;
        let wafer = Wafer::six_inch();
        assert!((wafer.area().value() - 176.7).abs() < 0.1);
        let y = PoissonYield::new(DefectDensity::new(0.5).unwrap());
        let p = y.die_yield(SquareCentimeters::new(1.0).unwrap());
        assert!(p.value() > 0.0);
    }
}
