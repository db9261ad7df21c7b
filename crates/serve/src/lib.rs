//! `orfpred-serve`: a sharded online serving engine for the paper's
//! Algorithm 2 pipeline, with checkpoint/restore and live metrics.
//!
//! The offline crates answer "does the ORF reproduce the paper's
//! curves?"; this crate answers "can it run as a long-lived service?".
//! Architecture (details and the determinism argument in [`engine`]):
//!
//! * **Sharded labelling** — disks are partitioned across N shard threads
//!   by a stable hash of `disk_id`; each shard owns its slice of the
//!   per-disk labelling queues (Algorithm 2 state) and turns raw events
//!   into labelled training samples;
//! * **Single model writer** — labelled samples flow over bounded
//!   channels into one writer thread that owns the forest and scaler,
//!   applies updates in global sequence order (a reorder buffer undoes
//!   shard interleaving), and raises alarms exactly as the serial
//!   [`orfpred_core::OnlinePredictor`] would;
//! * **Lock-free scoring** — the writer periodically compiles the live
//!   forest into a flat [`orfpred_trees::FrozenForest`] and publishes the
//!   immutable [`ModelSnapshot`] through a lock-free [`epoch::EpochCell`]
//!   swap; `score` requests never contend with training or with the
//!   publisher;
//! * **Atomic checkpoints** — a barrier token flows through every shard
//!   so the saved labelling queues, scaler, forest and stream position
//!   form one consistent cut; files are written tmp → fsync → rename and
//!   a restored daemon resumes byte-identically;
//! * **Protocol** — the line-delimited JSON request vocabulary
//!   ([`protocol`]) and live counters ([`stats`]). The daemon that serves
//!   engines over stdin and TCP is `orfpred-fleet`: without `--tenant`
//!   flags it hosts exactly one engine, as a one-tenant fleet.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod engine;
pub mod epoch;
pub mod fault;
pub mod protocol;
pub mod stats;

pub use checkpoint::{Checkpoint, CheckpointError, CHECKPOINT_VERSION};
pub use engine::{
    shard_of, Engine, Finished, ModelSnapshot, ServeConfig, ServeError, WRITER_BATCH,
};
pub use epoch::EpochCell;
pub use fault::{CheckpointFault, FaultInjector, NoFaults};
pub use protocol::{pad_features, ProtocolError, Request, Response, MAX_FRAME_LEN};
pub use stats::{LatencyHistogram, ServeStats, StatsReport};
