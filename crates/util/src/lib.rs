//! Deterministic utilities shared by every `orfpred` crate.
//!
//! The reproduction depends on *bit-for-bit determinism under a fixed seed,
//! regardless of thread count*: the Online Random Forest updates its trees in
//! parallel, and the fleet simulator fans out across disks. To guarantee
//! that, every parallel unit of work (a tree, a disk, a bootstrap replicate)
//! owns its **own** RNG stream derived from a master seed, rather than
//! sharing a global generator. This crate provides:
//!
//! * [`rng::Xoshiro256pp`] — a small, fast, well-tested PRNG with
//!   [`rng::Xoshiro256pp::split`] for spawning independent streams,
//! * [`dist`] — the handful of distributions the paper's algorithms need
//!   (Poisson for online bagging, normal/log-normal/geometric for the fleet
//!   simulator), implemented in-crate so results never change under a
//!   dependency bump,
//! * [`stats`] — streaming statistics (Welford mean/variance, EWMA) used by
//!   OOBE tracking and the experiment reports,
//! * [`crc`], [`varint`] and [`codec`] — the byte-level pieces of the
//!   durable formats: CRC-32, LEB128/zigzag integers, and the binary image
//!   of the serde shim's `Value` model that serving checkpoints are made
//!   of, plus [`durable::sync_parent_dir`] for fsync-after-rename.

#![warn(missing_docs)]

pub mod codec;
pub mod crc;
pub mod dist;
pub mod durable;
pub mod matrix;
pub mod rng;
pub mod stats;
pub mod varint;

pub use matrix::Matrix;
pub use rng::Xoshiro256pp;
