//! The benchmark's own logic: the stage-run replica of Algorithm 2, the
//! alarm quality metrics, and the open-loop timer.

use orfpred_core::{OnlinePredictor, OnlinePredictorConfig};
use orfpred_perfbench::input::{self, Encoded};
use orfpred_perfbench::metrics::{open_loop, tail, AlarmQuality, Clock};
use orfpred_perfbench::stages::stage_run;
use orfpred_smart::gen::{FleetConfig, FleetEvent, FleetSim, ScalePreset};
use std::time::Duration;

/// The benchmark tenant's predictor, shrunk so a small stream grows trees
/// and raises alarms quickly.
fn small_predictor() -> OnlinePredictorConfig {
    let mut p = input::tenant_config().serve.predictor;
    p.orf.n_trees = 5;
    p.orf.n_tests = 50;
    p.orf.warmup_age = 0;
    p.orf.min_parent_size = 20.0;
    p.orf.lambda_neg = 0.5;
    p.alarm_threshold = 0.3;
    p
}

fn small_stream(seed: u64) -> Vec<FleetEvent> {
    let mut cfg = FleetConfig::sta(ScalePreset::Tiny, seed);
    cfg.n_good = 60;
    cfg.n_failed = 20;
    cfg.duration_days = 150;
    FleetSim::new(&cfg).collect()
}

#[test]
fn stage_run_replica_matches_online_predictor_bit_for_bit() {
    let cfg = small_predictor();
    let schema = cfg.domain_schema();
    for seed in [3, 11] {
        let events = small_stream(seed);
        let mut reference = OnlinePredictor::new(&cfg);
        let want: Vec<_> = events.iter().filter_map(|e| reference.observe(e)).collect();
        assert!(
            !want.is_empty(),
            "seed {seed}: the stream must raise alarms"
        );

        let frames = Encoded::events(&events);
        let probe = vec![vec![0.5f32; schema.n_features()]];
        let run = stage_run(&cfg, &frames.bytes, schema.n_base_features(), 64, &probe).unwrap();
        assert_eq!(run.alarms.len(), want.len(), "seed {seed}");
        for (got, want) in run.alarms.iter().zip(&want) {
            assert_eq!(
                (got.disk_id, got.day),
                (want.disk_id, want.day),
                "seed {seed}"
            );
            assert_eq!(got.score.to_bits(), want.score.to_bits(), "seed {seed}");
        }
        let samples = events
            .iter()
            .filter(|e| matches!(e, FleetEvent::Sample(_)))
            .count() as u64;
        assert_eq!(run.observed, samples);
        assert_eq!(
            run.spans[0].count,
            events.len() as u64,
            "one decode per frame"
        );
        assert!(run.spans[5].count > 0, "snapshots were published");
        assert!(run.cover_pct() <= 100.0 + 1e-9);
    }
}

#[test]
fn alarm_quality_counts_disks_not_alarms() {
    // Failed disks: 1 fails day 20, 2 fails day 30, 3 fails day 40.
    let failures = [(1, 20), (2, 30), (3, 40)];
    // Never-failed disks: 10, 11, 12, 13.
    let good = [10, 11, 12, 13];
    let alarms = [
        (1, 14), // inside disk 1's window (20 - 7 < 14 <= 20)
        (1, 15), // a second alarm on the same disk counts once
        (2, 23), // on the window's open edge: 30 - 23 = 7, not inside
        (2, 31), // after the failure: not a detection
        (3, 40), // the failure day itself counts
        (10, 5), // false alarm
        (10, 6), // same disk again: still one false-alarmed disk
        (12, 9), // false alarm
        (99, 1), // disk outside both scopes: ignored
    ];
    let q = AlarmQuality::score(&alarms, &failures, &good, 7);
    assert_eq!(q.failed_disks, 3);
    assert_eq!(q.detected, 2);
    assert_eq!(q.good_disks, 4);
    assert_eq!(q.false_alarmed, 2);
    assert!((q.fdr_pct() - 200.0 / 3.0).abs() < 1e-9);
    assert!((q.far_pct() - 50.0).abs() < 1e-9);

    let empty = AlarmQuality::score(&[], &[], &[], 7);
    assert_eq!((empty.fdr_pct(), empty.far_pct()), (0.0, 0.0));
}

/// A simulated clock: sleeping jumps to the deadline, each call advances
/// by its service time.
struct SimClock {
    now: Duration,
}

impl Clock for SimClock {
    fn now(&self) -> Duration {
        self.now
    }

    fn sleep_until(&mut self, t: Duration) {
        self.now = self.now.max(t);
    }
}

#[test]
fn open_loop_charges_a_stalled_reply_to_every_later_request() {
    let period = Duration::from_millis(1);
    let service = Duration::from_micros(100);
    let stall = Duration::from_millis(10);
    let mut clock = SimClock {
        now: Duration::ZERO,
    };
    let lat = open_loop(20, period, &mut clock, |i, c: &mut SimClock| {
        c.now += if i == 3 { stall } else { service };
        Ok::<(), ()>(())
    })
    .unwrap();

    // Before the stall every request takes its service time.
    assert!(lat[..3].iter().all(|&l| l == service));
    assert_eq!(lat[3], stall);
    // Request 3's reply comes back at 13 ms; request i (due at i ms) cannot
    // leave before then, so it is charged the wait from its due time.
    let stall_end = period * 3 + stall;
    for (i, &l) in lat.iter().enumerate().take(13).skip(4) {
        let queued = stall_end - period * i as u32;
        assert!(l >= queued, "request {i}: {l:?} < {queued:?}");
    }
    // Once the backlog drains the schedule recovers.
    assert_eq!(lat[19], service);
}

#[test]
fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
    let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(tail(&xs), Some((0.99, 990.0)));
    assert_eq!(tail(&xs[..100]).map(|t| t.0), Some(0.9));
    assert_eq!(tail(&xs[..10]), None);
}
