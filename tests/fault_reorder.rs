//! Injected delivery skew: labelled messages held back on their shard so
//! they reach the model writer far out of sequence order. The writer's
//! reorder buffer must absorb all of it — alarms bit-identical to serial
//! replay, no recovery involved — and barriers must flush held messages so
//! checkpoints and shutdown never wait on a delayed delivery.

use orfpred::core::OnlinePredictorConfig;
use orfpred::serve::WRITER_BATCH;
use orfpred::smart::attrs::table2_feature_columns;
use orfpred::smart::gen::{FleetConfig, FleetEvent, FleetSim, ScalePreset};
use orfpred_testkit::{
    actions_with_checkpoints, compare_alarms, compare_final_state, run_faulted, serial_reference,
    Action, DriverConfig,
};
use std::path::PathBuf;

fn fleet_events(seed: u64) -> Vec<FleetEvent> {
    let mut cfg = FleetConfig::sta(ScalePreset::Tiny, seed);
    cfg.n_good = 26;
    cfg.n_failed = 5;
    cfg.duration_days = 95;
    FleetSim::new(&cfg).collect()
}

fn predictor_cfg() -> OnlinePredictorConfig {
    let mut cfg = OnlinePredictorConfig::new(table2_feature_columns(), 9);
    cfg.orf.n_trees = 8;
    cfg.orf.min_parent_size = 30.0;
    cfg.orf.warmup_age = 10;
    cfg.orf.lambda_neg = 0.2;
    cfg.alarm_threshold = 0.5;
    cfg
}

fn workdir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "orfpred_fault_reorder_{tag}_{}",
        std::process::id()
    ))
}

fn run_delay_case(tag: &str, seed: u64, n_shards: usize, delays: &[(usize, usize)]) {
    let actions = actions_with_checkpoints(fleet_events(seed), 750);
    let dir = workdir(tag);
    let mut cfg = DriverConfig::new(predictor_cfg(), dir.clone());
    cfg.shard_cycle = vec![n_shards];
    for &(offset, by) in delays {
        // Only events carry a delayable message; skip checkpoint indices.
        let idx = (offset..actions.len())
            .find(|&i| matches!(actions[i], Action::Event(_)))
            .expect("event exists");
        cfg.plan.delay_at(idx as u64, by);
    }

    let (serial, predictor) = serial_reference(&cfg.predictor, &actions);
    let out = run_faulted(&cfg, &actions).expect("driver completes");
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(out.recoveries, 0, "delays alone never need recovery");
    assert_eq!(out.checkpoint_failures, 0);
    assert!(
        !cfg.plan.fired().is_empty(),
        "at least one delay fired on its shard"
    );
    compare_alarms(&serial, &out.alarms).unwrap();
    compare_final_state(&predictor, &out.final_checkpoint).unwrap();
}

#[test]
fn a_burst_of_delays_is_reordered_back_by_the_writer() {
    run_delay_case(
        "burst",
        2301,
        4,
        &[(500, 3), (501, 5), (502, 2), (503, 7), (504, 1), (505, 4)],
    );
}

#[test]
fn delays_straddling_a_checkpoint_barrier_are_flushed_first() {
    // The cadence is 750 events per checkpoint: park delays right below
    // the first barrier with holdbacks long enough that, without the
    // barrier flush, they would still be held when the checkpoint cuts.
    run_delay_case(
        "barrier",
        2302,
        3,
        &[(745, 40), (746, 40), (747, 40), (748, 40), (749, 40)],
    );
}

#[test]
fn delays_held_across_batch_flushes_are_flushed_at_the_barrier() {
    // Shards hand the writer batches of up to WRITER_BATCH messages. Park
    // the delays four batches before the first barrier (750 events) with
    // holdbacks of six batches: their shards flush several batches while
    // the messages are held, and the checkpoint barrier cuts before the
    // holdbacks expire, so only the barrier flush releases them.
    let b = WRITER_BATCH;
    let at = 750 - 4 * b;
    run_delay_case(
        "batch",
        2305,
        2,
        &[(at, 6 * b), (at + 1, 6 * b + 1), (at + 2, 6 * b)],
    );
}

#[test]
fn delays_on_the_stream_tail_are_flushed_by_shutdown() {
    let n = actions_with_checkpoints(fleet_events(2303), 750).len();
    // Holdbacks near the very end can never see enough later traffic to
    // expire naturally; only the shutdown barrier releases them.
    run_delay_case(
        "tail",
        2303,
        2,
        &[(n - 8, 50), (n - 6, 50), (n - 4, 50), (n - 3, 50)],
    );
}

#[test]
fn single_shard_delays_also_hold() {
    run_delay_case("single", 2304, 1, &[(300, 6), (301, 6), (302, 6)]);
}
