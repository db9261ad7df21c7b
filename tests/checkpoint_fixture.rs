//! Checkpoint byte stability across model-internal layout changes.
//!
//! `tests/fixtures/checkpoint_v3_small.json` is the checkpoint the serving
//! engine wrote after the first [`CUT`] events of the stream below, saved
//! as JSON before live trees gained their derived walk arrays and before
//! checkpoints became CRC-framed binary files.
//! `tests/fixtures/checkpoint_v3_small.ckpt` is the binary image of the
//! same checkpoint. Live state may add derived fields freely, but neither
//! format may move: the JSON fixture must still load and re-serialize to
//! the same JSON bytes, a fresh engine at the same stream point must write
//! the binary fixture byte for byte, both fixtures must hold the same
//! checkpoint, and the stream must continue from them exactly like an
//! uninterrupted serial replay.

use orfpred::core::{Alarm, OnlinePredictor, OnlinePredictorConfig};
use orfpred::serve::{Checkpoint, Engine, ServeConfig, CHECKPOINT_VERSION, CKPT_MAGIC};
use orfpred::smart::attrs::table2_feature_columns;
use orfpred::smart::gen::{FleetConfig, FleetEvent, FleetSim, ScalePreset};
use orfpred_testkit::compare_final_state;
use std::path::{Path, PathBuf};

/// Events the fixture's engine had ingested when it checkpointed.
const CUT: usize = 1500;

fn fixture_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/checkpoint_v3_small.json")
}

fn binary_fixture_path() -> PathBuf {
    fixture_path().with_extension("ckpt")
}

fn events() -> Vec<FleetEvent> {
    let mut cfg = FleetConfig::sta(ScalePreset::Tiny, 4242);
    cfg.n_good = 20;
    cfg.n_failed = 6;
    cfg.duration_days = 90;
    FleetSim::new(&cfg).collect()
}

fn serve_cfg() -> ServeConfig {
    let mut p = OnlinePredictorConfig::new(table2_feature_columns(), 5);
    p.orf.n_trees = 4;
    p.orf.n_tests = 20;
    p.orf.min_parent_size = 15.0;
    p.orf.warmup_age = 10;
    p.orf.lambda_neg = 0.2;
    let mut c = ServeConfig::new(p);
    c.n_shards = 2;
    c
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "orfpred_checkpoint_fixture_{tag}_{}.json",
        std::process::id()
    ))
}

#[test]
fn fixture_reserializes_to_identical_bytes() {
    let bytes = std::fs::read(fixture_path()).unwrap();
    let ck = Checkpoint::load(&fixture_path()).unwrap();
    let Checkpoint::Online {
        version, forest, ..
    } = &ck;
    assert_eq!(*version, Some(CHECKPOINT_VERSION));
    assert!(
        forest.tree_stats().iter().any(|&(_, _, splits)| splits > 0),
        "the fixture should hold split trees"
    );
    assert!(serde_json::to_vec(&ck).unwrap() == bytes);
}

#[test]
fn fresh_engine_writes_the_fixture_bytes() {
    let engine = Engine::new(&serve_cfg());
    for ev in &events()[..CUT] {
        engine.ingest(ev.clone()).unwrap();
    }
    let path = scratch("fresh");
    engine.checkpoint(&path).unwrap();
    engine.finish().unwrap();
    let written = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(written.starts_with(CKPT_MAGIC));
    assert!(written == std::fs::read(binary_fixture_path()).unwrap());
}

#[test]
fn both_fixtures_hold_the_same_checkpoint() {
    let json = Checkpoint::load(&fixture_path()).unwrap();
    let binary = Checkpoint::load(&binary_fixture_path()).unwrap();
    assert!(serde_json::to_vec(&json).unwrap() == serde_json::to_vec(&binary).unwrap());
}

#[test]
fn continuing_from_the_fixture_matches_serial_replay() {
    let events = events();
    assert!(
        events.len() > CUT + 300,
        "the stream continues past the cut"
    );

    let cfg = serve_cfg();
    let mut serial = OnlinePredictor::new(&cfg.predictor);
    let mut serial_alarms: Vec<Alarm> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let alarm = serial.observe(ev);
        if i >= CUT {
            serial_alarms.extend(alarm);
        }
    }

    let mut three = cfg.clone();
    three.n_shards = 3;
    let engine = Engine::restore(&three, Checkpoint::load(&fixture_path()).unwrap());
    for ev in &events[CUT..] {
        engine.ingest(ev.clone()).unwrap();
    }
    let fin = engine.finish().unwrap();

    let bits = |a: &[Alarm]| -> Vec<(u32, u16, u32)> {
        a.iter()
            .map(|a| (a.disk_id, a.day, a.score.to_bits()))
            .collect()
    };
    assert_eq!(bits(&fin.alarms), bits(&serial_alarms));
    compare_final_state(&serial, &fin.checkpoint).unwrap();
}
