//! Benchmark inputs, all derived from the workload seed and built before
//! any timing starts: the simulated STA stream, its ORFB encoding, the
//! probe rows, the serial reference run, and (for `restart`) the
//! checkpoint and telemetry store the daemon boots from.

use orfpred_core::{Alarm, OnlinePredictor, OnlinePredictorConfig};
use orfpred_fleet::{parse_tenant_spec, ClientFrame, TenantConfig, WIRE_MAGIC, WIRE_VERSION};
use orfpred_serve::{Checkpoint, CHECKPOINT_VERSION};
use orfpred_smart::gen::{FleetConfig, FleetEvent, FleetSim, ScalePreset};
use orfpred_smart::record::DiskInfo;
use orfpred_store::{StoreConfig, StoreWriter};
use orfpred_util::Xoshiro256pp;
use std::path::Path;
use std::time::Instant;

/// Tenant name the daemon hosts.
pub const TENANT: &str = "sta";
/// The `--tenant` spec: paper-default forest (30 trees, 500 tests per
/// leaf), Table-2 columns, two labelling shards.
pub const TENANT_SPEC: &str = "sta,shards=2";
/// Observation window of the simulated fleet, in days (about 503k events
/// at the `Small` preset).
pub const STREAM_DAYS: u16 = 365;

/// The tenant configuration `orfpredd` builds from [`TENANT_SPEC`]; the
/// reference and the stage run use exactly this predictor.
pub fn tenant_config() -> TenantConfig {
    parse_tenant_spec(TENANT_SPEC).expect("the benchmark's tenant spec parses")
}

/// One seeded fleet stream in simulator order.
pub struct Stream {
    /// Workload seed the stream was simulated from.
    pub seed: u64,
    /// Every event, in the order the daemon receives them.
    pub events: Vec<FleetEvent>,
    /// Per-disk roster (install day, last day, failed flag).
    pub disks: Vec<DiskInfo>,
    /// Drive-model name (store manifest).
    pub model: String,
}

impl Stream {
    /// Simulate the STA `Small` fleet for [`STREAM_DAYS`] days.
    pub fn generate(seed: u64) -> Self {
        let mut cfg = FleetConfig::sta(ScalePreset::Small, seed);
        cfg.duration_days = STREAM_DAYS;
        let sim = FleetSim::new(&cfg);
        let disks = sim.disk_infos();
        Self {
            seed,
            events: sim.collect(),
            disks,
            model: cfg.profile.name.clone(),
        }
    }

    /// Index of the first event after the last event of `day` (events are
    /// in day order, failures after the day's samples).
    pub fn end_of_day(&self, day: u16) -> usize {
        self.events.partition_point(|e| event_day(e) <= day)
    }

    /// Day of the last event.
    pub fn last_day(&self) -> u16 {
        self.events.last().map_or(0, event_day)
    }

    /// Number of events that are SMART samples.
    pub fn n_samples(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, FleetEvent::Sample(_)))
            .count()
    }
}

/// Day an event belongs to.
pub fn event_day(e: &FleetEvent) -> u16 {
    match e {
        FleetEvent::Sample(rec) => rec.day,
        FleetEvent::Failure { day, .. } => *day,
    }
}

/// ORFB bytes of a run of events, with the byte offset where each event's
/// frame starts (`offsets[i]..offsets[i + 1]` is event `i`).
pub struct Encoded {
    /// Concatenated `Sample` / `Failure` frames.
    pub bytes: Vec<u8>,
    /// `events.len() + 1` frame boundaries.
    pub offsets: Vec<usize>,
}

impl Encoded {
    /// Encode `events` as ORFB event frames.
    pub fn events(events: &[FleetEvent]) -> Self {
        let mut bytes = Vec::with_capacity(events.len() * 210);
        let mut offsets = Vec::with_capacity(events.len() + 1);
        for e in events {
            offsets.push(bytes.len());
            event_frame(e).encode(&mut bytes);
        }
        offsets.push(bytes.len());
        Self { bytes, offsets }
    }

    /// Bytes of events `lo..hi`.
    pub fn range(&self, lo: usize, hi: usize) -> &[u8] {
        &self.bytes[self.offsets[lo]..self.offsets[hi]]
    }

    /// Number of events encoded.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether no events are encoded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The wire frame of one stream event.
pub fn event_frame(e: &FleetEvent) -> ClientFrame {
    match e {
        FleetEvent::Sample(rec) => ClientFrame::Sample {
            disk_id: rec.disk_id,
            day: rec.day,
            features: rec.features.clone(),
        },
        FleetEvent::Failure { disk_id, day } => ClientFrame::Failure {
            disk_id: *disk_id,
            day: *day,
        },
    }
}

/// Session preamble: the `ORFB` magic plus a `Hello` for the tenant.
pub fn hello_bytes(fingerprint: u64) -> Vec<u8> {
    let mut out = WIRE_MAGIC.to_vec();
    ClientFrame::Hello {
        version: WIRE_VERSION,
        fingerprint,
        tenant: TENANT.into(),
    }
    .encode(&mut out);
    out
}

/// `n` probe rows drawn from the stream's samples by a seeded RNG, each
/// padded to the full feature width `n_features`.
pub fn probe_rows(stream: &Stream, n: usize, n_features: usize) -> Vec<Vec<f32>> {
    let samples: Vec<&[f32]> = stream
        .events
        .iter()
        .filter_map(|e| match e {
            FleetEvent::Sample(rec) => Some(rec.features.as_slice()),
            FleetEvent::Failure { .. } => None,
        })
        .collect();
    let mut rng = Xoshiro256pp::seed_from_u64(stream.seed ^ 0x7072_6f62_6573);
    (0..n)
        .map(|_| {
            let mut row = samples[rng.index(samples.len())].to_vec();
            row.resize(n_features, 0.0);
            row
        })
        .collect()
}

/// Encode one `Score` frame per probe row.
pub fn score_frames(rows: &[Vec<f32>]) -> Vec<Vec<u8>> {
    rows.iter()
        .map(|r| {
            let mut out = Vec::new();
            ClientFrame::Score {
                features: r.clone(),
            }
            .encode(&mut out);
            out
        })
        .collect()
}

/// An alarm tagged with the index of the stream event that raised it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RefAlarm {
    /// Index into [`Stream::events`].
    pub event: usize,
    /// The alarm itself.
    pub alarm: Alarm,
}

/// The serial Algorithm 2 reference over a stream.
pub struct Reference {
    /// Every alarm, in stream order.
    pub alarms: Vec<RefAlarm>,
    /// Wall time of the untraced serial `OnlinePredictor::observe` loop.
    pub wall_s: f64,
    /// The predictor state after event `cut - 1`, as a serving checkpoint
    /// (only when a cut was asked for).
    pub checkpoint: Option<Checkpoint>,
}

/// Run the serial `OnlinePredictor` over the stream; when `cut` is given,
/// also capture its state after the first `cut` events as a checkpoint
/// whose catch-up cursor is `cut`.
pub fn reference(
    cfg: &OnlinePredictorConfig,
    events: &[FleetEvent],
    cut: Option<usize>,
) -> Reference {
    let mut p = OnlinePredictor::new(cfg);
    let mut alarms = Vec::new();
    let mut checkpoint = None;
    let mut paused = 0.0;
    let t0 = Instant::now();
    for (i, e) in events.iter().enumerate() {
        if Some(i) == cut {
            let t = Instant::now();
            checkpoint = Some(snapshot(&p, cfg, i as u64));
            paused += t.elapsed().as_secs_f64();
        }
        if let Some(alarm) = p.observe(e) {
            alarms.push(RefAlarm { event: i, alarm });
        }
    }
    p.finish();
    let wall_s = t0.elapsed().as_secs_f64() - paused;
    Reference {
        alarms,
        wall_s,
        checkpoint,
    }
}

/// The serving checkpoint of a serial predictor that has applied `events`
/// stream events (no barrier has consumed a sequence number).
fn snapshot(p: &OnlinePredictor, cfg: &OnlinePredictorConfig, events: u64) -> Checkpoint {
    Checkpoint::Online {
        scaler: p.scaler().clone(),
        forest: p.forest().clone(),
        version: Some(CHECKPOINT_VERSION),
        labeller: Some(p.labeller().clone()),
        alarm_threshold: Some(p.alarm_threshold()),
        alarms_raised: Some(p.alarms_raised()),
        next_seq: Some(events),
        events_ingested: Some(events),
        prep: p.prep().cloned(),
        adapt: p.adaptive().cloned(),
        schema: Some(cfg.domain_schema()),
        window: p.window().cloned(),
    }
}

/// Record the first `upto` events of the stream into a new telemetry store
/// at `dir`. Disks that fail later are recorded as survivors, so the
/// store's event replay is exactly the stream prefix.
pub fn record_store_prefix(stream: &Stream, upto: usize, dir: &Path) -> Result<(), String> {
    let last_day = stream.events[..upto].last().map_or(0, event_day);
    let roster: Vec<DiskInfo> = stream
        .disks
        .iter()
        .map(|d| DiskInfo {
            failed: d.failed && d.last_day <= last_day,
            ..*d
        })
        .collect();
    let mut w = StoreWriter::create(
        dir,
        &stream.model,
        STREAM_DAYS,
        &roster,
        StoreConfig::default(),
    )
    .map_err(|e| format!("create store: {e}"))?;
    for e in &stream.events[..upto] {
        if let FleetEvent::Sample(rec) = e {
            w.append(rec).map_err(|e| format!("append to store: {e}"))?;
        }
    }
    w.finish().map_err(|e| format!("seal store: {e}"))?;
    Ok(())
}
