//! Checkpoint faults end to end: torn writes, crashes between write and
//! rename, and silent on-disk corruption (truncation, a flipped bit)
//! discovered only at recovery time.
//! In every case the driver must restore from a checkpoint that still
//! loads, replay, and end bit-identical to the serial golden trace.

use orfpred::core::OnlinePredictorConfig;
use orfpred::serve::{Checkpoint, CheckpointError, CheckpointFault};
use orfpred::smart::attrs::table2_feature_columns;
use orfpred::smart::gen::{FleetConfig, FleetEvent, FleetSim, ScalePreset};
use orfpred_testkit::{
    actions_with_checkpoints, checkpoint_path, compare_alarms, compare_final_state, run_faulted,
    serial_reference, Action, DriverConfig, FaultPlan,
};
use std::path::PathBuf;
use std::sync::Arc;

fn fleet_events(seed: u64) -> Vec<FleetEvent> {
    let mut cfg = FleetConfig::sta(ScalePreset::Tiny, seed);
    cfg.n_good = 30;
    cfg.n_failed = 6;
    cfg.duration_days = 100;
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
    std::env::temp_dir().join(format!("orfpred_fault_ckpt_{tag}_{}", std::process::id()))
}

/// Action indices that are checkpoint requests.
fn checkpoint_idxs(actions: &[Action]) -> Vec<usize> {
    actions
        .iter()
        .enumerate()
        .filter(|(_, a)| matches!(a, Action::Checkpoint))
        .map(|(i, _)| i)
        .collect()
}

#[test]
fn torn_checkpoint_write_recovers_from_the_previous_checkpoint() {
    let actions = actions_with_checkpoints(fleet_events(2101), 700);
    let cps = checkpoint_idxs(&actions);
    assert!(cps.len() >= 3, "need several checkpoints, got {cps:?}");

    let dir = workdir("torn");
    let mut cfg = DriverConfig::new(predictor_cfg(), dir.clone());
    cfg.shard_cycle = vec![3, 2];
    // Tear the second checkpoint: only 150 bytes of it reach the disk.
    cfg.plan.fail_checkpoint(
        &checkpoint_path(&dir, cps[1]),
        CheckpointFault::TornWrite { keep: 150 },
    );

    let (serial, predictor) = serial_reference(&cfg.predictor, &actions);
    let out = run_faulted(&cfg, &actions).expect("driver completes");
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(out.checkpoint_failures, 1, "the torn save failed");
    assert_eq!(out.recoveries, 1, "one recovery from checkpoint 1");
    assert!(cfg.plan.all_consumed(), "the fault fired");
    compare_alarms(&serial, &out.alarms).unwrap();
    compare_final_state(&predictor, &out.final_checkpoint).unwrap();
}

#[test]
fn crash_before_rename_keeps_the_previous_file_loadable() {
    let actions = actions_with_checkpoints(fleet_events(2102), 800);
    let cps = checkpoint_idxs(&actions);

    let dir = workdir("rename");
    let cfg = DriverConfig::new(predictor_cfg(), dir.clone());
    cfg.plan.fail_checkpoint(
        &checkpoint_path(&dir, cps[1]),
        CheckpointFault::CrashBeforeRename,
    );

    let (serial, predictor) = serial_reference(&cfg.predictor, &actions);
    let out = run_faulted(&cfg, &actions).expect("driver completes");

    // The crash left the target path absent and the previous checkpoint
    // file untouched — which is exactly what the recovery restored from.
    assert_eq!(out.recoveries, 1);
    assert!(
        Checkpoint::load(&checkpoint_path(&dir, cps[0])).is_ok(),
        "first checkpoint survived the later crash"
    );
    std::fs::remove_dir_all(&dir).ok();
    compare_alarms(&serial, &out.alarms).unwrap();
    compare_final_state(&predictor, &out.final_checkpoint).unwrap();
}

#[test]
fn silent_disk_corruption_falls_back_to_an_older_checkpoint() {
    let actions = actions_with_checkpoints(fleet_events(2103), 600);
    let cps = checkpoint_idxs(&actions);
    assert!(cps.len() >= 3);

    let dir = workdir("fallback");
    let mut cfg = DriverConfig::new(predictor_cfg(), dir.clone());
    cfg.shard_cycle = vec![2, 4, 1];
    // The second checkpoint *succeeds*, then its file rots on disk (kept
    // bytes truncated to 90) — the driver only finds out when a later
    // crash forces it to restore, and must fall back to checkpoint 1.
    cfg.corrupt_saved = vec![(cps[1], 90)];
    cfg.crash_after = vec![cps[1] + 50];

    let (serial, predictor) = serial_reference(&cfg.predictor, &actions);
    let out = run_faulted(&cfg, &actions).expect("driver completes");
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(out.recoveries, 1);
    assert_eq!(out.checkpoint_failures, 0, "every save call succeeded");
    assert!(
        out.checkpoints_taken > cps.len() as u32,
        "the corrupted checkpoint was re-taken during replay"
    );
    compare_alarms(&serial, &out.alarms).unwrap();
    compare_final_state(&predictor, &out.final_checkpoint).unwrap();
}

#[test]
fn a_flipped_bit_falls_back_to_an_older_checkpoint() {
    let actions = actions_with_checkpoints(fleet_events(2105), 600);
    let cps = checkpoint_idxs(&actions);
    assert!(cps.len() >= 3);

    let dir = workdir("flip");
    let mut cfg = DriverConfig::new(predictor_cfg(), dir.clone());
    cfg.shard_cycle = vec![3, 2];
    // The second checkpoint saves "successfully" with one byte rotted;
    // a later crash forces a restore, which must refuse that file and
    // fall back to checkpoint 1.
    let flip_at = 4_000;
    cfg.plan.fail_checkpoint(
        &checkpoint_path(&dir, cps[1]),
        CheckpointFault::FlipByte {
            at: flip_at,
            xor: 0x01,
        },
    );
    cfg.crash_after = vec![cps[1] + 50];

    let (serial, predictor) = serial_reference(&cfg.predictor, &actions);
    let out = run_faulted(&cfg, &actions).expect("driver completes");
    // The rotted byte sat in the middle of the file, not in its framing.
    let len = std::fs::metadata(checkpoint_path(&dir, cps[1]))
        .unwrap()
        .len();
    std::fs::remove_dir_all(&dir).ok();
    assert!(len > 2 * flip_at as u64, "checkpoint is only {len} bytes");

    assert!(cfg.plan.all_consumed(), "the fault fired");
    assert_eq!(
        out.checkpoint_failures, 0,
        "the rotted save reported success"
    );
    assert_eq!(out.recoveries, 1);
    assert!(
        out.checkpoints_taken > cps.len() as u32,
        "the rotted checkpoint was re-taken during replay"
    );
    compare_alarms(&serial, &out.alarms).unwrap();
    compare_final_state(&predictor, &out.final_checkpoint).unwrap();
}

#[test]
fn a_flipped_bit_in_a_daemon_checkpoint_is_a_typed_corrupt_error() {
    let dir = workdir("flip-typed");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ck.ckpt");
    let cfg = {
        let mut c = orfpred::serve::ServeConfig::new(predictor_cfg());
        c.n_shards = 2;
        c
    };
    let engine = orfpred::serve::Engine::new(&cfg);
    for event in fleet_events(2106).into_iter().take(400) {
        engine.ingest(event).unwrap();
    }
    engine.checkpoint(&path).unwrap();
    let fin = engine.finish().unwrap();
    let len = std::fs::metadata(&path).unwrap().len() as usize;

    let plan = Arc::new(FaultPlan::new());
    plan.fail_checkpoint(
        &path,
        CheckpointFault::FlipByte {
            at: len / 2,
            xor: 0x04,
        },
    );
    fin.checkpoint
        .save_atomic_faulted(&path, &*plan)
        .expect("bit rot is silent at save time");
    match Checkpoint::load(&path) {
        Err(CheckpointError::Corrupt { path: p, detail }) => {
            assert_eq!(p, path);
            assert!(detail.contains("CRC"), "{detail}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_torn_file_loads_as_a_typed_corrupt_error_naming_the_file() {
    // Satellite check at the integration level: tear a real checkpoint
    // through the injector and make sure the load side reports a typed,
    // operator-readable error — never a panic.
    let dir = workdir("typed");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ck.json");

    let cfg = {
        let mut c = orfpred::serve::ServeConfig::new(predictor_cfg());
        c.n_shards = 2;
        c
    };
    let engine = orfpred::serve::Engine::new(&cfg);
    for event in fleet_events(2104).into_iter().take(400) {
        engine.ingest(event).unwrap();
    }
    engine.checkpoint(&path).unwrap();
    let fin = engine.finish().unwrap();

    let plan = Arc::new(FaultPlan::new());
    plan.fail_checkpoint(&path, CheckpointFault::TornWrite { keep: 200 });
    let err = fin
        .checkpoint
        .save_atomic_faulted(&path, &*plan)
        .expect_err("injected tear reports failure");
    assert!(matches!(err, CheckpointError::Injected { .. }), "{err:?}");

    match Checkpoint::load(&path) {
        Err(CheckpointError::Corrupt { path: p, detail }) => {
            assert_eq!(p, path);
            assert!(!detail.is_empty());
            let msg = CheckpointError::Corrupt { path: p, detail }.to_string();
            assert!(
                msg.contains("truncated or corrupt") && msg.contains("ck.json"),
                "unhelpful message: {msg}"
            );
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}
