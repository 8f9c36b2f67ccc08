//! The FastFrame benchmark: seeded streams of the paper's Flights queries
//! driven through the public API by one closed-loop client, with every
//! answer checked against the exact baseline.
//!
//! See `README.md` in this directory for the workloads, the metrics and
//! what each per-layer metric is expected to move.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod gate;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
