//! The traced in-process stage run: the stream passes through the public
//! functions of each layer on the serving path, with one span around each
//! call, so per-layer busy time adds up to the run's wall time.
//!
//! The replica runs Algorithm 2 exactly as `OnlinePredictor::observe` and
//! the serve writer do (scaler update → labeller → forest update on each
//! released sample → score the fresh row), plus what the daemon adds
//! around it: ORFB decoding in front and a published snapshot every
//! `snapshot_every` applied samples, scored on probe rows.

use orfpred_core::{Alarm, OnlineLabeller, OnlinePredictorConfig, OnlineRandomForest};
use orfpred_fleet::{read_frame, ClientFrame};
use orfpred_serve::{pad_features, Checkpoint, Engine, ModelSnapshot, ServeConfig};
use orfpred_smart::gen::FleetEvent;
use orfpred_smart::record::DiskDay;
use orfpred_smart::scale::OnlineMinMax;
use std::io::Cursor;
use std::path::Path;
use std::time::{Duration, Instant};

/// The layers the stage run times, in report order.
pub const STAGES: [&str; 7] = [
    "fleet.wire.decode",
    "smart.scale",
    "core.labeller",
    "core.forest.update",
    "core.forest.score",
    "core.forest.freeze",
    "trees.frozen.score",
];

const DECODE: usize = 0;
const SCALE: usize = 1;
const LABELLER: usize = 2;
const UPDATE: usize = 3;
const SCORE: usize = 4;
const FREEZE: usize = 5;
const FROZEN: usize = 6;

/// Probe rows scored against every published snapshot.
const PROBES_PER_SNAPSHOT: usize = 4;

/// Calls and time of one span.
#[derive(Clone, Debug, Default)]
pub struct Span {
    /// Calls recorded.
    pub count: u64,
    /// Total time inside the span.
    pub busy: Duration,
    /// Per-call durations, ns.
    pub calls_ns: Vec<u32>,
}

impl Span {
    fn record(&mut self, d: Duration) {
        self.count += 1;
        self.busy += d;
        self.calls_ns
            .push(u32::try_from(d.as_nanos()).unwrap_or(u32::MAX));
    }

    /// Nearest-rank per-call quantile, ns (0 when never called).
    pub fn quantile_ns(&self, q: f64) -> f64 {
        let xs: Vec<f64> = self.calls_ns.iter().map(|&n| f64::from(n)).collect();
        crate::metrics::quantile(&xs, q).unwrap_or(0.0)
    }
}

/// Chained span clock: each `lap` charges the time since the previous lap
/// to one span, so consecutive spans tile the run without gaps.
struct Laps {
    spans: Vec<Span>,
    last: Instant,
}

impl Laps {
    fn new(n: usize) -> Self {
        Self {
            spans: vec![Span::default(); n],
            last: Instant::now(),
        }
    }

    fn lap(&mut self, span: usize) {
        let now = Instant::now();
        self.spans[span].record(now - self.last);
        self.last = now;
    }

    /// Restart the chain without charging anyone (untimed bookkeeping).
    fn skip(&mut self) {
        self.last = Instant::now();
    }
}

/// Result of the traced stage run.
pub struct StageRun {
    /// One span per entry of [`STAGES`].
    pub spans: Vec<Span>,
    /// Wall time of the whole run.
    pub wall: Duration,
    /// Samples the labeller observed.
    pub observed: u64,
    /// Training samples it released (by age-out or failure).
    pub released: u64,
    /// Alarms, in stream order.
    pub alarms: Vec<Alarm>,
}

impl StageRun {
    /// Sum of all span time over wall time, percent.
    pub fn cover_pct(&self) -> f64 {
        let busy: Duration = self.spans.iter().map(|s| s.busy).sum();
        100.0 * busy.as_secs_f64() / self.wall.as_secs_f64()
    }

    /// Time spent in the Algorithm 2 layers alone (what the untraced
    /// serial predictor does): the wall time minus decode, publish and
    /// probe scoring.
    pub fn algorithm2_wall(&self) -> Duration {
        self.wall
            .saturating_sub(self.spans[DECODE].busy)
            .saturating_sub(self.spans[FREEZE].busy)
            .saturating_sub(self.spans[FROZEN].busy)
    }
}

/// Run the stream, given as ORFB event frames, through the layers.
/// `probes` are full-width rows scored against each published snapshot.
pub fn stage_run(
    cfg: &OnlinePredictorConfig,
    frames: &[u8],
    n_base: usize,
    snapshot_every: u64,
    probes: &[Vec<f32>],
) -> Result<StageRun, String> {
    let mut scaler = OnlineMinMax::new_log1p(&cfg.feature_cols);
    let mut labeller = OnlineLabeller::new(cfg.window_days);
    let mut forest = OnlineRandomForest::new(cfg.feature_cols.len(), cfg.orf.clone(), cfg.seed);
    let mut scratch = vec![0.0f32; scaler.n_outputs()];
    let mut alarms = Vec::new();
    let (mut observed, mut released, mut applied, mut probe) = (0u64, 0u64, 0u64, 0usize);
    let mut cursor = Cursor::new(frames);

    let t0 = Instant::now();
    let mut laps = Laps::new(STAGES.len());
    while let Some((op, payload)) = read_frame(&mut cursor).map_err(|e| e.to_string())? {
        let frame = ClientFrame::decode(op, &payload).map_err(|e| e.to_string())?;
        let event = match frame {
            ClientFrame::Sample {
                disk_id,
                day,
                features,
            } => FleetEvent::Sample(DiskDay {
                disk_id,
                day,
                features: pad_features(&features, n_base),
            }),
            ClientFrame::Failure { disk_id, day } => FleetEvent::Failure { disk_id, day },
            other => return Err(format!("unexpected frame in the event stream: {other:?}")),
        };
        laps.lap(DECODE);
        match event {
            FleetEvent::Sample(rec) => {
                scaler.update(&rec.features);
                laps.lap(SCALE);
                let rel = labeller.observe_sample(rec.disk_id, rec.day, &rec.features);
                laps.lap(LABELLER);
                observed += 1;
                if let Some(rel) = rel {
                    released += 1;
                    scaler.transform_into(&rel.features, &mut scratch);
                    laps.lap(SCALE);
                    forest.update(&scratch, rel.positive);
                    laps.lap(UPDATE);
                }
                scaler.transform_into(&rec.features, &mut scratch);
                laps.lap(SCALE);
                let score = forest.score(&scratch);
                laps.lap(SCORE);
                if score >= cfg.alarm_threshold {
                    alarms.push(Alarm {
                        disk_id: rec.disk_id,
                        day: rec.day,
                        score,
                    });
                }
                applied += 1;
                if applied.is_multiple_of(snapshot_every) {
                    laps.skip();
                    let snap = ModelSnapshot {
                        scaler: scaler.clone(),
                        forest: forest.freeze(),
                        alarm_threshold: cfg.alarm_threshold,
                    };
                    laps.lap(FREEZE);
                    for _ in 0..PROBES_PER_SNAPSHOT.min(probes.len()) {
                        std::hint::black_box(snap.score(&probes[probe % probes.len()]));
                        probe += 1;
                        laps.lap(FROZEN);
                    }
                }
            }
            FleetEvent::Failure { disk_id, .. } => {
                let flushed = labeller.observe_failure(disk_id);
                laps.lap(LABELLER);
                for rel in flushed {
                    released += 1;
                    scaler.transform_into(&rel.features, &mut scratch);
                    laps.lap(SCALE);
                    forest.update(&scratch, true);
                    laps.lap(UPDATE);
                }
            }
        }
        laps.skip();
    }
    Ok(StageRun {
        spans: laps.spans,
        wall: t0.elapsed(),
        observed,
        released,
        alarms,
    })
}

/// Time a caller spends blocked in an in-process [`Engine`]'s calls.
pub struct EngineRun {
    /// Each `ingest` call.
    pub ingest: Span,
    /// Each `flush` call.
    pub flush: Span,
    /// Each `checkpoint` call (barrier, serialization, rename).
    pub checkpoint: Span,
    /// Wall time of the run.
    pub wall: Duration,
    /// Events ingested.
    pub events: u64,
    /// Alarms, in stream order.
    pub alarms: Vec<Alarm>,
    /// The final checkpoint, for the save / load stages.
    pub final_checkpoint: Checkpoint,
}

/// Feed the stream through an in-process engine with the tenant's serve
/// configuration, flushing and checkpointing to `dir` at the given event
/// indices.
pub fn engine_run(
    cfg: &ServeConfig,
    events: &[FleetEvent],
    checkpoints_at: &[usize],
    dir: &Path,
) -> Result<EngineRun, String> {
    let engine = Engine::new(cfg);
    let (mut ingest, mut flush, mut checkpoint) =
        (Span::default(), Span::default(), Span::default());
    let t0 = Instant::now();
    for (i, e) in events.iter().enumerate() {
        if checkpoints_at.contains(&i) {
            let t = Instant::now();
            engine.flush();
            flush.record(t.elapsed());
            let t = Instant::now();
            engine.checkpoint(&dir.join("engine.json"))?;
            checkpoint.record(t.elapsed());
        }
        let t = Instant::now();
        engine.ingest(e.clone()).map_err(|e| e.to_string())?;
        ingest.record(t.elapsed());
    }
    let t = Instant::now();
    engine.flush();
    flush.record(t.elapsed());
    let wall = t0.elapsed();
    let fin = engine.finish().map_err(|e| e.to_string())?;
    Ok(EngineRun {
        ingest,
        flush,
        checkpoint,
        wall,
        events: events.len() as u64,
        alarms: fin.alarms,
        final_checkpoint: fin.checkpoint,
    })
}

/// Durations and size of checkpoint save and load + restore.
pub struct CheckpointRun {
    /// `Checkpoint::save_atomic` calls.
    pub save: Span,
    /// `Checkpoint::load` + `Engine::restore` calls.
    pub load: Span,
    /// Bytes of the checkpoint file.
    pub bytes: u64,
}

/// Save and reload `ck` `reps` times in `dir`.
pub fn checkpoint_run(
    cfg: &ServeConfig,
    ck: &Checkpoint,
    dir: &Path,
    reps: usize,
) -> Result<CheckpointRun, String> {
    let path = dir.join("stage.json");
    let mut run = CheckpointRun {
        save: Span::default(),
        load: Span::default(),
        bytes: 0,
    };
    for _ in 0..reps {
        let t = Instant::now();
        ck.save_atomic(&path).map_err(|e| e.to_string())?;
        run.save.record(t.elapsed());
        let t = Instant::now();
        let loaded = Checkpoint::load(&path).map_err(|e| e.to_string())?;
        let engine = Engine::restore(cfg, loaded);
        run.load.record(t.elapsed());
        engine.finish().map_err(|e| e.to_string())?;
    }
    run.bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    Ok(run)
}

/// Durations of the store layer on a restart's catch-up path.
#[derive(Default)]
pub struct StoreRun {
    /// `Store::open` + `verify_domain`.
    pub open: Span,
    /// `events_from(cursor)` up to the first event after the cursor.
    pub seek: Span,
    /// Decoding the rest of the tail.
    pub replay: Span,
    /// Events replayed per repetition.
    pub rows: u64,
}

/// Open the store at `dir`, seek past `cursor` events and replay the rest,
/// `reps` times.
pub fn store_run(
    dir: &Path,
    schema: &orfpred_smart::DomainSchema,
    cursor: u64,
    reps: usize,
) -> Result<StoreRun, String> {
    let mut run = StoreRun::default();
    for _ in 0..reps {
        let t = Instant::now();
        let store = orfpred_store::Store::open(dir).map_err(|e| e.to_string())?;
        store.verify_domain(schema).map_err(|e| e.to_string())?;
        run.open.record(t.elapsed());
        let t = Instant::now();
        let mut events = store.events_from(cursor);
        let first = events.next().transpose().map_err(|e| e.to_string())?;
        run.seek.record(t.elapsed());
        let t = Instant::now();
        let mut rows = u64::from(first.is_some());
        for e in events {
            std::hint::black_box(e.map_err(|e| e.to_string())?);
            rows += 1;
        }
        run.replay.record(t.elapsed());
        run.rows = rows;
    }
    Ok(run)
}
