//! The transistor cost model of Maly, *"Cost of Silicon Viewed from VLSI
//! Design Perspective"*, DAC 1994 — the paper's core contribution.
//!
//! The cost of a transistor in a functioning IC is (eq. 1):
//!
//! ```text
//!   C_tr = C_w / (N_ch · N_tr · Y)
//! ```
//!
//! with `C_w` the wafer cost, `N_ch` the dies per wafer, `N_tr` the
//! transistors per die and `Y` the manufacturing yield. This crate wires
//! the substrates together:
//!
//! * [`WaferCostModel`] — eq. (3), the feature-size cost escalation
//!   `C'_w = C₀·X^{k(1−λ)}` (see the calibration note below), and
//!   [`VolumeCostModel`] — eq. (2), overhead amortization over volume;
//! * [`density`] — eq. (5), design density `d_d` mapping transistor
//!   counts to die areas;
//! * [`TransistorCostModel`] — eq. (1) with pluggable dies-per-wafer
//!   method and yield model;
//! * [`scenario`] — the paper's Scenario #1 (eq. 8, Fig 6) and
//!   Scenario #2 (eq. 9, Fig 7) trend studies;
//! * [`product`] — [`product::ProductScenario`], one row of Table 3;
//! * [`surface`] — the `C_tr(λ, N_tr)` cost surface of Fig 8, one
//!   lane-batched eq. (1) kernel over the whole grid;
//! * [`system`] — multi-partition system cost (Sec. IV.B).
//!
//! # Calibration note (eq. 3 exponent)
//!
//! The DAC-94 scan prints eq. (3) as `C'_w = C₀·X^{0.5(1−λ)}`. That
//! exponent reproduces *none* of the paper's own numbers; with
//! `k = 5 /µm` instead, every fully specified Table 3 row reproduces to
//! three significant figures and Figs 6–7 take their printed shapes. We
//! therefore default to `k = 5` and keep `k` configurable
//! ([`WaferCostModel::with_generation_rate`]) including the as-printed
//! `0.5` for comparison. See DESIGN.md §1 for the full derivation.
//!
//! # Examples
//!
//! Reproduce Table 3 row 1 (3.1 M-transistor BiCMOS µP at 0.8 µm):
//!
//! ```
//! use maly_cost_model::product::ProductScenario;
//! use maly_units::{
//!     Centimeters, DesignDensity, Dollars, Microns, Probability, TransistorCount,
//! };
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let row1 = ProductScenario::builder("BiCMOS µP")
//!     .transistors(TransistorCount::new(3.1e6)?)
//!     .feature_size(Microns::new(0.8)?)
//!     .design_density(DesignDensity::new(150.0)?)
//!     .wafer_radius(Centimeters::new(7.5)?)
//!     .reference_yield(Probability::new(0.9)?)
//!     .reference_wafer_cost(Dollars::new(700.0)?)
//!     .cost_escalation(1.4)?
//!     .build()?;
//! let cost = row1.evaluate()?;
//! let micro = cost.cost_per_transistor.to_micro_dollars().value();
//! assert!((micro - 9.40).abs() < 0.05); // paper prints 9.40 µ$
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod density;
mod error;
pub mod product;
pub mod roadmap;
pub mod scenario;
pub mod surface;
pub mod system;
mod transistor;
mod wafer;

pub use error::CostError;
pub use transistor::{CostBreakdown, DiesPerWaferMethod, TransistorCostModel};
pub use wafer::{VolumeCostModel, WaferCostModel};
