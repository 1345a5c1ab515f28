//! Dies-per-wafer geometry models.
//!
//! `N_ch` — the number of complete die sites on a wafer — is one of the four
//! factors of the paper's transistor cost model (eq. 1). This crate provides
//! three independent ways to obtain it:
//!
//! * [`maly::dies_per_wafer`] — the row-packing formula the paper cites
//!   (eq. 4, after Ferris-Prabhu \[20\]),
//! * [`raster::RasterPlacement`] — an exact grid-placement simulator with
//!   edge exclusion, saw-street (kerf) width and placement-offset
//!   optimization, which also produces [`WaferMap`]s consumed by the yield
//!   Monte Carlo and the wafer-map renderer,
//! * [`approx`] — classical closed-form estimates (gross area ratio and the
//!   edge-corrected variant) useful for sanity bounds and quick sizing,
//! * [`cache`] — one process-wide, bounded memo in front of eq. (4),
//!   keyed on quantized wafer/die dimensions, behind three functions
//!   that only two frozen benchmarks call.
//!
//! # Examples
//!
//! ```
//! use maly_units::Centimeters;
//! use maly_wafer_geom::{maly, DieDimensions, Wafer};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Table 3 row 1: 2.976 cm² square die on a 6-inch (R = 7.5 cm) wafer.
//! let wafer = Wafer::with_radius(Centimeters::new(7.5)?);
//! let die = DieDimensions::square_with_area(maly_units::SquareCentimeters::new(2.976)?);
//! let n_ch = maly::dies_per_wafer(&wafer, die);
//! assert_eq!(n_ch.value(), 46);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod approx;
pub mod cache;
mod die;
pub mod maly;
pub mod raster;
mod wafer;
mod wafer_map;

pub use die::DieDimensions;
pub use wafer::Wafer;
pub use wafer_map::{DieSite, WaferMap};

#[cfg(test)]
mod tests {
    use super::*;
    use maly_units::{Centimeters, SquareCentimeters};

    /// The three methods must roughly agree for a moderate die.
    #[test]
    fn methods_agree_within_tolerance() {
        let wafer = Wafer::with_radius(Centimeters::new(7.5).unwrap());
        let die = DieDimensions::square_with_area(SquareCentimeters::new(1.0).unwrap());
        let maly = maly::dies_per_wafer(&wafer, die).as_f64();
        let raster = raster::RasterPlacement::default()
            .place(&wafer, die)
            .count()
            .as_f64();
        let simple = approx::gross_estimate(&wafer, die);
        let corrected = approx::edge_corrected_estimate(&wafer, die);
        // Eq. (4) and the edge-corrected estimate should sit close to the
        // exact raster placement; the gross area ratio is a known
        // overestimate (it ignores edge losses entirely).
        for v in [maly, corrected] {
            assert!(
                (v - raster).abs() / raster < 0.12,
                "estimate {v} too far from raster {raster}"
            );
        }
        assert!(simple >= raster, "gross estimate must be an upper bound");
        assert!((simple - raster) / raster < 0.3);
    }
}
