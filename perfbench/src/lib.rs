//! End-to-end benchmark of the `orfpredd` daemon.
//!
//! The real daemon runs as a child process with one `smart` tenant (the
//! paper-default forest, Table-2 columns, two shards) and is driven over
//! ORFB/TCP by this load generator: pre-encoded event frames on one
//! session, `Score` / `Stats` / `Checkpoint` requests on a second. A traced
//! run adds per-layer numbers: `Stats` sampled during the daemon run, and
//! an in-process stage run that times each layer's public functions. See
//! `README.md` next to this crate for the workloads and metrics.

pub mod client;
pub mod input;
pub mod metrics;
pub mod provenance;
pub mod stages;
pub mod workloads;
