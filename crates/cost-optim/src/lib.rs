//! Optimization over the silicon cost model (Sec. IV.B).
//!
//! "By including in the IC system design process such variables as sizes
//! of the system's partitions and minimum feature sizes of each partition
//! one can minimize the overall system cost. It is important to note that
//! the optimum solution may not call for the smallest possible (and
//! expensive) feature size."
//!
//! * [`search`] — dense-grid 1-D minimization (robust on the
//!   floor-discontinuous cost model) and the `λ^opt` finder for product
//!   scenarios;
//! * [`contour`] — marching-squares contour extraction over
//!   [`maly_cost_model::surface::CostSurface`] grids (Fig 8's
//!   constant-cost curves);
//! * [`partition`] — exhaustive system-partitioning: group partitions
//!   onto dies and pick each die's feature size.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod contour;
pub mod partition;
pub mod search;
