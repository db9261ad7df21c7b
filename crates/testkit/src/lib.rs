//! `orfpred-testkit`: deterministic simulation and fault injection for the
//! full orfpred pipeline (fleet simulator → labeller → ORF → serving
//! engine).
//!
//! The serving engine's headline guarantee is that its alarm stream is
//! bit-identical to a serial Algorithm 2 replay for any shard count. This
//! crate stresses that guarantee under faults instead of around them:
//!
//! * [`plan`] — [`FaultPlan`], a seeded, one-shot fault schedule
//!   implementing the engine's [`FaultInjector`] hooks: shard kills,
//!   delayed/reordered channel delivery, torn, crash-interrupted or
//!   silently bit-rotted checkpoint writes, and malformed daemon input
//!   lines, each keyed to an
//!   exact stream position;
//! * [`driver`] — the crash-recovery driver (drop the broken engine,
//!   restore from the newest checkpoint that loads, replay) and the
//!   golden-trace differential oracle that asserts alarm-stream and
//!   final-state bit-equality against the serial [`OnlinePredictor`];
//! * [`prop`] — a dependency-free seeded property runner with a shrinking
//!   loop; every failure prints one `orfpred faultsim --seed N --size Z`
//!   line that reproduces it exactly;
//! * [`scenario`] — seed-derived multi-fault end-to-end scenarios, shared
//!   between `tests/fault_sim.rs` and the hidden `faultsim` subcommand.
//!
//! Everything is deterministic from explicit seeds: no clocks, no OS
//! randomness, no dependence on thread scheduling for *outcomes* (only for
//! interleavings the reorder buffer and barriers already erase).
//!
//! [`FaultPlan`]: plan::FaultPlan
//! [`FaultInjector`]: orfpred_serve::FaultInjector
//! [`OnlinePredictor`]: orfpred_core::OnlinePredictor

#![warn(missing_docs)]

pub mod driver;
pub mod plan;
pub mod prop;
pub mod scenario;

pub use driver::{
    actions_with_checkpoints, checkpoint_path, compare_alarms, compare_final_state, run_faulted,
    serial_reference, Action, DriverConfig, Outcome,
};
pub use plan::FaultPlan;
pub use prop::{check_shrinking, default_seeds, seeds_from_env};
pub use scenario::{run_scenario, ScenarioReport};
