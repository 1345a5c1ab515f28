//! IC test economics: test time, fault escapes and MCM known-good-die
//! analysis.
//!
//! Sections V–VI of the paper argue that test cost is the neglected half
//! of the silicon cost problem: "in the extreme case the cost of testing
//! a wafer may be comparable with the cost of manufacturing", yet
//! "adequate analytical relationships expressing cost of testing ... do
//! not exist". This crate supplies the standard first-principles models
//! the paper calls for:
//!
//! * [`test_time`] — tester-time and cost per die as a function of
//!   transistor count and coverage;
//! * [`escapes`] — the Williams–Brown defect-level model
//!   `DL = 1 − Y^{1−T}` connecting yield, coverage and shipped quality;
//! * [`mcm`] — known-good-die economics for multi-chip modules
//!   (refs \[30, 31\]): bare-die test level vs module yield vs
//!   smart-substrate self-test.
//!
//! # Examples
//!
//! ```
//! use maly_units::Probability;
//! use maly_test_economics::escapes::defect_level;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 60% yield, 95% fault coverage → ~2.5% of shipped parts are bad.
//! let dl = defect_level(Probability::new(0.6)?, Probability::new(0.95)?);
//! assert!((dl.value() - 0.0252).abs() < 1e-3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod escapes;
pub mod mcm;
pub mod test_time;
