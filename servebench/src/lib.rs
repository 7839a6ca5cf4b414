//! # gbj-servebench
//!
//! The serving benchmark: seeded workloads driven through the public
//! `gbj_server` API, end-to-end metrics from an untraced run, and
//! per-layer self times from a traced run whose spans are recorded
//! around public calls made from this crate. See `README.md`.

pub mod adhoc;
pub mod data;
pub mod model;
pub mod trace;
pub mod workload;
