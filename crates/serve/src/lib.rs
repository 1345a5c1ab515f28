//! `maly-serve` — a batched TCP query service over the unified
//! `maly-model` evaluation API.
//!
//! The server speaks line-delimited JSON on a plain `TcpListener`:
//! one request per line, one response line per request, batches as
//! JSON-array lines whose surface tiles are resolved once per window
//! before any query runs (see [`protocol`] for the wire format). Parallelism comes from
//! connections: each worker answers its requests serially, with no
//! per-request thread fan-out. Everything is `std`-only — the
//! JSON codec is `maly_model::json`, the threads come from
//! [`maly_par::Executor::run_workers`], and there is no async runtime.
//!
//! Long-lived state is the process-wide [`maly_model::EvalContext`]:
//! calibration artifacts fit once behind a `OnceLock` plus the bounded
//! surface-tile cache, so a warm repeat query answers without
//! re-evaluating a single grid cell (asserted by the loopback tests
//! via the `model.tile_cells` Work counter, not wall clock).
//!
//! Determinism: served responses are bit-identical to direct
//! [`maly_model::Query::evaluate_with`] evaluation at every executor
//! width and worker count — the loopback suite runs 1/2/8 workers
//! against the same mixed workload and compares bytes.
//!
//! ```no_run
//! use maly_serve::{ServeConfig, Server};
//!
//! let server = Server::bind(ServeConfig::bind("127.0.0.1:7878").workers(4)).unwrap();
//! server.serve(); // blocks until handle().shutdown()
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod config;
pub mod protocol;
pub mod server;

pub use config::ServeConfig;
pub use server::{Server, ServerHandle};
