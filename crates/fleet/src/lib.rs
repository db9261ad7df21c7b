//! `orfpred-fleet`: the multi-tenant serving engine and the one daemon.
//!
//! `orfpred-serve` scales one drive-model's pipeline across shard threads;
//! this crate scales *models*: a [`FleetEngine`] hosts many independent
//! per-tenant engines (tenant = drive-model × domain-schema) behind one
//! daemon, each with its own checkpoint lineage, telemetry-store catch-up
//! cursor, and bit-exactness guarantee. [`run`] is the only daemon loop:
//! without `--tenant` flags, `orfpredd` and `orfpred serve` run it as a
//! one-tenant fleet whose tenant is named [`DEFAULT_TENANT`]. On top of it:
//!
//! * **Binary wire protocol** ([`wire`]) — length-prefixed frames
//!   negotiated per connection alongside the line-JSON protocol, with a
//!   versioned `Hello` handshake that pins the tenant and its
//!   domain-schema fingerprint before the first event flows;
//! * **Connection multiplexing** ([`daemon`]) — the primary input plus a
//!   TCP listener, each connection sniffed for its wire format and served
//!   on its own thread, with per-tenant request batching on the binary
//!   ingest path and backpressure from each tenant's bounded shard queues;
//! * **Live re-sharding** ([`FleetEngine::reshard`]) — a tenant's shard
//!   count changes without restart via a suspend drain-barrier and a
//!   deterministic re-partition of the restored labelling queues,
//!   preserving the alarm stream bit-for-bit (DESIGN §16).

#![warn(missing_docs)]

pub mod daemon;
pub mod engine;
pub mod spec;
pub mod wire;

pub use daemon::{run, FleetDaemonConfig, BATCH_EVENTS};
pub use engine::{
    CatchupNote, FleetEngine, FleetError, TenantConfig, TenantCounters, TenantFinished,
    TenantStats, DEFAULT_TENANT,
};
pub use spec::parse_tenant_spec;
pub use wire::{read_frame, ClientFrame, ServerFrame, WIRE_MAGIC, WIRE_VERSION};
