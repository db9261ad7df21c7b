//! The sharded serving engine.
//!
//! ```text
//!                      ┌────────── shard 0 (labeller part) ──────┐
//!  ingest ── seq ──┬──▶│ queue │ Algorithm 2 labelling           │──┐
//!  (stamps global  │   └─────────────────────────────────────────┘  │   ┌─────────────┐
//!   sequence nums) │   ┌────────── shard 1 ──────────────────────┐  ├──▶│ model writer│──▶ alarms
//!                  ├──▶│   ...                                   │──┤   │ (reorders by│──▶ checkpoints
//!                  │   └─────────────────────────────────────────┘  │   │  seq; owns  │──▶ snapshot ─▶ score/stats
//!                  └──▶ ...                                         │   │  ORF+scaler)│
//!                                                                   └──▶└─────────────┘
//! ```
//!
//! Disks are partitioned over shards by a hash of `disk_id`; each shard
//! owns its slice of the per-disk labelling queues (Algorithm 2 state) and
//! turns raw events into labelled training samples. Labelled events flow
//! over bounded channels into the single **model writer**, which owns the
//! ORF and the streaming scaler. To keep the writer's per-event work small,
//! shards also run the scaler's row pre-transform and hand events over in
//! batches of up to [`WRITER_BATCH`] (DESIGN §8.1).
//!
//! # Determinism
//!
//! The ingest path stamps every event with a global, contiguous sequence
//! number, and the writer applies events in exactly that order (a small
//! reorder buffer absorbs cross-shard skew; its size is bounded by the
//! channel capacities, which also provide backpressure). Because labelling
//! is a pure per-disk function and per-disk order is preserved (a disk maps
//! to one shard; channels are FIFO), the writer sees, for every event, the
//! same released training samples a single-threaded [`OnlinePredictor`]
//! replay would produce — and applies scaler updates, forest updates, and
//! scoring in the identical order. The alarm stream is therefore identical
//! for **any** shard count.
//!
//! # Checkpoints
//!
//! A checkpoint request takes one sequence number and is broadcast to all
//! shards; each shard forwards its labelling-queue snapshot at that point
//! in its stream. When the writer has applied everything before the
//! checkpoint's sequence number and holds all shard snapshots, the merged
//! state is written atomically. A restored engine resumes byte-identically:
//! feeding the same remaining events yields the same alarms and the same
//! final checkpoint bytes.
//!
//! [`OnlinePredictor`]: orfpred_core::OnlinePredictor

use crate::checkpoint::{Checkpoint, CHECKPOINT_VERSION};
use crate::epoch::EpochCell;
use crate::fault::{FaultInjector, NoFaults};
use crate::stats::{ServeStats, StatsReport};
use orfpred_core::{
    AdaptiveState, Alarm, OnlineLabeller, OnlinePredictorConfig, OnlineRandomForest, ReleasedSample,
};
use orfpred_prep::Preprocessor;
use orfpred_smart::gen::FleetEvent;
use orfpred_smart::scale::OnlineMinMax;
use orfpred_smart::{DomainSchema, WindowStage};
use orfpred_trees::FrozenForest;
use orfpred_util::Matrix;
use parking_lot::Mutex;
use std::collections::{BinaryHeap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Route a disk to its shard. Stable across restarts (and used to
/// re-partition restored labelling queues), uniform via splitmix64.
pub fn shard_of(disk_id: u32, n_shards: usize) -> usize {
    let mut s = u64::from(disk_id) ^ 0x6f72_6670_7265_6421;
    (orfpred_util::rng::splitmix64(&mut s) % n_shards as u64) as usize
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// The Algorithm 2 pipeline to run (hyper-parameters, window, alarm
    /// threshold, feature columns, seed).
    pub predictor: OnlinePredictorConfig,
    /// Number of labelling shards (threads). Alarms are identical for any
    /// value; more shards increase ingest throughput.
    pub n_shards: usize,
    /// Bounded capacity of each shard's input queue; a full queue blocks
    /// `ingest` (backpressure).
    pub queue_capacity: usize,
    /// Publish a fresh scoring snapshot every this many applied samples.
    pub snapshot_every: u64,
    /// Fault-injection points ([`NoFaults`] in production). Consulted by
    /// the shard loops (kill / delayed delivery) and the checkpoint
    /// writer; the testkit installs seeded fault plans here.
    pub injector: Arc<dyn FaultInjector>,
}

impl ServeConfig {
    /// Defaults: 4 shards, 1024-event queues, snapshot every 256 samples,
    /// no fault injection.
    pub fn new(predictor: OnlinePredictorConfig) -> Self {
        Self {
            predictor,
            n_shards: 4,
            queue_capacity: 1024,
            snapshot_every: 256,
            injector: Arc::new(NoFaults),
        }
    }
}

/// Immutable published model state; scoring reads never contend with the
/// writer (they load an `Arc` out of the epoch cell and work on frozen
/// state).
pub struct ModelSnapshot {
    /// Streaming scaler state at publication time.
    pub scaler: OnlineMinMax,
    /// The forest at publication time, compiled to the flat scoring
    /// representation (no candidate-test pools, no growth state).
    pub forest: FrozenForest,
    /// Alarm operating point.
    pub alarm_threshold: f32,
}

impl ModelSnapshot {
    /// Score a full-width feature row against this frozen model.
    pub fn score(&self, features: &[f32]) -> f32 {
        let mut scaled = vec![0.0f32; self.scaler.n_outputs()];
        self.scaler.transform_into(features, &mut scaled);
        self.forest.score(&scaled)
    }

    /// Score a batch of full-width feature rows through the frozen
    /// breadth-first batch kernel (the bulk path for catch-up scans and
    /// offline replay against a published snapshot). Bit-identical to
    /// mapping [`Self::score`] over `rows`.
    pub fn score_batch(&self, rows: &[&[f32]]) -> Vec<f32> {
        let mut scaled_row = vec![0.0f32; self.scaler.n_outputs()];
        let mut scaled = Matrix::with_capacity(self.scaler.n_outputs(), rows.len());
        for r in rows {
            self.scaler.transform_into(r, &mut scaled_row);
            scaled.push_row(&scaled_row);
        }
        self.forest.score_batch(&scaled)
    }
}

/// Why an engine call failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The engine has been shut down (or its writer died).
    ShuttingDown,
    /// A worker thread panicked; the engine's state is unrecoverable and
    /// the caller should restore from the last checkpoint.
    WorkerPanicked,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::ShuttingDown => f.write_str("serving engine is shutting down"),
            ServeError::WorkerPanicked => {
                f.write_str("a serving engine thread panicked; restore from the last checkpoint")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Everything a finished engine hands back.
pub struct Finished {
    /// Every alarm raised over the engine's lifetime (in stream order).
    pub alarms: Vec<Alarm>,
    /// Final state, identical to what a checkpoint at shutdown would hold.
    pub checkpoint: Checkpoint,
}

/// Ingest-side message to a shard. The event is boxed so barrier messages
/// don't pay for the 48-feature sample payload in the channel.
enum ShardMsg {
    /// One stream event, stamped with its global sequence number.
    Event(u64, Box<FleetEvent>),
    /// Checkpoint barrier: forward a labeller snapshot to the writer.
    Checkpoint(u64),
    /// Final barrier: hand the labeller to the writer and exit.
    Shutdown(u64),
}

/// Most messages a shard hands the writer in one channel send. Shards
/// also flush a partial batch whenever their input queue is momentarily
/// empty and at every barrier, so a batch never waits for more traffic.
pub const WRITER_BATCH: usize = 64;

/// A training sample released by a shard's labeller, already through the
/// scaler's pre-transform on the shard thread.
struct ShardRelease {
    /// Selected columns of the released row after `log1p`
    /// ([`OnlineMinMax::pre_transform_into`]).
    pre: Box<[f32]>,
    positive: bool,
    /// The raw row, kept only when the adaptation loop consumes it.
    raw: Option<Box<[f32]>>,
}

impl ShardRelease {
    fn new(rel: ReleasedSample, pre: &OnlineMinMax, keep_raw: bool) -> Self {
        Self {
            pre: pre_transform(pre, &rel.features),
            positive: rel.positive,
            raw: keep_raw.then_some(rel.features),
        }
    }
}

/// A row's scaler pre-transform in a fresh buffer.
fn pre_transform(pre: &OnlineMinMax, row: &[f32]) -> Box<[f32]> {
    let mut out = vec![0.0f32; pre.n_outputs()].into_boxed_slice();
    pre.pre_transform_into(row, &mut out);
    out
}

/// Shard-side message to the model writer.
enum WriterMsg {
    Sample {
        seq: u64,
        disk_id: u32,
        day: u16,
        /// The fresh row's scaler pre-transform.
        pre: Box<[f32]>,
        released: Option<ShardRelease>,
    },
    Failure {
        seq: u64,
        flushed: Vec<ShardRelease>,
    },
    Marker {
        seq: u64,
        labeller: OnlineLabeller,
        shutdown: bool,
    },
}

impl WriterMsg {
    fn seq(&self) -> u64 {
        match self {
            WriterMsg::Sample { seq, .. }
            | WriterMsg::Failure { seq, .. }
            | WriterMsg::Marker { seq, .. } => *seq,
        }
    }
}

/// Min-heap adapter: BinaryHeap is a max-heap, so order by reversed seq.
struct BySeq(WriterMsg);

impl PartialEq for BySeq {
    fn eq(&self, other: &Self) -> bool {
        self.0.seq() == other.0.seq()
    }
}
impl Eq for BySeq {}
impl PartialOrd for BySeq {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for BySeq {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.0.seq().cmp(&self.0.seq())
    }
}

/// A pending `checkpoint` call: target path, the caller's wakeup, and the
/// ingest-side state captured under the ingest lock at the barrier (the
/// writer owns everything else the checkpoint needs).
struct CheckpointRequest {
    path: PathBuf,
    done: SyncSender<Result<(), String>>,
    /// Raw events offered to `ingest` before the barrier — the store
    /// catch-up cursor (pre-prep, so it matches what the store replays).
    raw_events: u64,
    /// Preprocessing state at the barrier.
    prep: Option<Preprocessor>,
    /// Window-stage state at the barrier (per-disk derived-feature
    /// history); restored so recovery extends rows bit-identically.
    window: Option<WindowStage>,
}

/// Mutable ingest-side state, serialized by one mutex so sequence stamping
/// and channel sends stay atomic (per-disk FIFO order is what the
/// determinism argument rests on). The preprocessing stage lives here too:
/// it must see raw events in arrival order, before sharding.
struct IngestState {
    next_seq: u64,
    txs: Option<Vec<SyncSender<ShardMsg>>>,
    /// Raw events offered to `ingest` (pre-prep); the checkpoint cursor.
    raw_events: u64,
    /// Optional repair/hold stage between the raw stream and the shards.
    prep: Option<Preprocessor>,
    /// Schema-driven sliding-window derived-feature stage, after prep and
    /// before sharding. It lives under the ingest lock for the same reason
    /// prep does: per-disk state must see the disk's rows in arrival
    /// order, which is what keeps N-shard == serial bit-exact (DESIGN §15).
    /// `None` when the domain's derived plan is empty.
    window: Option<WindowStage>,
    /// Reusable scratch buffer for prep output (0..n events per raw one).
    prep_buf: Vec<FleetEvent>,
}

/// The sharded serving engine. All methods take `&self`; the engine is
/// meant to be shared (e.g. in an `Arc`) between an ingest loop and any
/// number of scoring/stats readers.
pub struct Engine {
    ingest: Mutex<IngestState>,
    stats: Arc<ServeStats>,
    snapshot: Arc<EpochCell<ModelSnapshot>>,
    fresh_alarms: Arc<Mutex<Vec<Alarm>>>,
    checkpoints: Arc<Mutex<VecDeque<CheckpointRequest>>>,
    shard_handles: Mutex<Vec<JoinHandle<()>>>,
    writer_handle: Mutex<Option<JoinHandle<WriterFinal>>>,
    n_shards: usize,
    /// The resolved telemetry domain (implicit SMART when the predictor
    /// config carries none). Scoring clients pad rows to its width.
    schema: DomainSchema,
}

/// State the writer thread returns at shutdown.
struct WriterFinal {
    scaler: OnlineMinMax,
    forest: OnlineRandomForest,
    labeller: OnlineLabeller,
    alarm_threshold: f32,
    alarms: Vec<Alarm>,
    alarms_raised: u64,
    next_seq: u64,
    adaptive: Option<AdaptiveState>,
}

impl Engine {
    /// Start a fresh engine.
    pub fn new(cfg: &ServeConfig) -> Self {
        Self::build(cfg, None)
    }

    /// Start an engine from a checkpoint (also accepts v1 `SavedModel`
    /// files holding only scaler + forest; serving state then starts
    /// empty). The shard count may differ from the checkpointing run —
    /// queues are re-partitioned.
    pub fn restore(cfg: &ServeConfig, checkpoint: Checkpoint) -> Self {
        Self::build(cfg, Some(checkpoint))
    }

    fn build(cfg: &ServeConfig, from: Option<Checkpoint>) -> Self {
        assert!(cfg.n_shards > 0, "need at least one shard");
        assert!(cfg.queue_capacity > 0, "need a positive queue capacity");
        let p = &cfg.predictor;
        // A fresh engine (or an older checkpoint without the fields) builds
        // the prep stage and adaptation loop from the predictor config; a
        // checkpoint that carries them resumes their exact state.
        let schema = p.domain_schema();
        let fresh_prep = || p.prep.as_ref().map(Preprocessor::new);
        let fresh_adapt = || {
            p.adapt
                .as_ref()
                .map(|a| AdaptiveState::new(a, p.feature_cols.len(), &p.orf, p.seed))
        };
        let fresh_window = || p.window_stage();
        let (
            scaler,
            forest,
            labeller,
            threshold,
            alarms_raised,
            start_seq,
            raw_events,
            prep,
            adaptive,
            window,
        ) = match from {
            None => (
                OnlineMinMax::new_log1p(&p.feature_cols),
                OnlineRandomForest::new(p.feature_cols.len(), p.orf.clone(), p.seed),
                OnlineLabeller::new(p.window_days),
                p.alarm_threshold,
                0,
                0,
                0,
                fresh_prep(),
                fresh_adapt(),
                fresh_window(),
            ),
            Some(Checkpoint::Online {
                scaler,
                forest,
                labeller,
                alarm_threshold,
                alarms_raised,
                next_seq,
                events_ingested,
                prep,
                adapt,
                schema: ck_schema,
                window,
                version: _,
            }) => {
                // A checkpoint from a different domain would misalign every
                // feature column; fail loudly at restore time.
                if let Some(s) = &ck_schema {
                    assert_eq!(
                        s.fingerprint(),
                        schema.fingerprint(),
                        "checkpoint domain `{}` does not match the configured domain `{}`",
                        s.name,
                        schema.name
                    );
                }
                (
                    scaler,
                    forest,
                    labeller.unwrap_or_else(|| OnlineLabeller::new(p.window_days)),
                    alarm_threshold.unwrap_or(p.alarm_threshold),
                    alarms_raised.unwrap_or(0),
                    next_seq.unwrap_or(0),
                    events_ingested.unwrap_or(0),
                    prep.or_else(fresh_prep),
                    adapt.or_else(fresh_adapt),
                    window.or_else(fresh_window),
                )
            }
        };

        let n = cfg.n_shards;
        let stats = Arc::new(ServeStats::new(n));
        stats.events_issued.store(start_seq, Ordering::Relaxed);
        stats.events_applied.store(start_seq, Ordering::Relaxed);
        if let Some(ad) = &adaptive {
            stats
                .drift_events
                .store(ad.drift_events(), Ordering::Relaxed);
            stats.model_rebuilds.store(ad.rebuilds(), Ordering::Relaxed);
        }
        let snapshot = Arc::new(EpochCell::new(Arc::new(ModelSnapshot {
            scaler: scaler.clone(),
            forest: forest.freeze(),
            alarm_threshold: threshold,
        })));
        let fresh_alarms = Arc::new(Mutex::new(Vec::new()));
        let checkpoints: Arc<Mutex<VecDeque<CheckpointRequest>>> =
            Arc::new(Mutex::new(VecDeque::new()));

        // Writer channel: big enough that every in-flight shard event plus
        // one marker per shard fits, which also bounds the reorder buffer.
        // It carries batches, so its capacity in batches is that event
        // bound divided by the batch size: events in flight never exceed it.
        let in_flight = n * cfg.queue_capacity + n;
        let batch = WRITER_BATCH.min(in_flight);
        let (wtx, wrx) = sync_channel::<Vec<WriterMsg>>(in_flight / batch);
        // The adaptation loop is the only writer-side consumer of raw rows.
        let keep_raw = adaptive.is_some();

        let mut txs = Vec::with_capacity(n);
        let mut shard_handles = Vec::with_capacity(n);
        let mut parts = labeller.split_by(n, |d| shard_of(d, n));
        for (idx, part) in parts.drain(..).enumerate() {
            let (tx, rx) = sync_channel::<ShardMsg>(cfg.queue_capacity);
            txs.push(tx);
            let out = Outbox {
                tx: wtx.clone(),
                batch: Vec::with_capacity(batch),
                size: batch,
            };
            let pre = scaler.clone();
            let stats = Arc::clone(&stats);
            let injector = Arc::clone(&cfg.injector);
            shard_handles.push(
                std::thread::Builder::new()
                    .name(format!("orfpred-shard-{idx}"))
                    .spawn(move || {
                        let shard = Shard {
                            idx,
                            labeller: part,
                            pre,
                            keep_raw,
                        };
                        shard.run(rx, out, &stats, &*injector)
                    })
                    // lint: allow(panic_path, reason="construction-time spawn failure (OS out of threads) before any stream state exists; failing fast is the only sane recovery")
                    .expect("spawn shard thread"),
            );
        }
        drop(wtx);

        let writer = WriterThread {
            rx: wrx,
            schema: schema.clone(),
            scaler,
            forest,
            alarm_threshold: threshold,
            next_seq: start_seq,
            alarms_raised,
            n_shards: n,
            snapshot_every: cfg.snapshot_every.max(1),
            adaptive,
            stats: Arc::clone(&stats),
            snapshot: Arc::clone(&snapshot),
            fresh_alarms: Arc::clone(&fresh_alarms),
            checkpoints: Arc::clone(&checkpoints),
            injector: Arc::clone(&cfg.injector),
        };
        let writer_handle = std::thread::Builder::new()
            .name("orfpred-writer".into())
            .spawn(move || writer.run())
            // lint: allow(panic_path, reason="construction-time spawn failure before any stream state exists; failing fast is the only sane recovery")
            .expect("spawn writer thread");

        Self {
            ingest: Mutex::new(IngestState {
                next_seq: start_seq,
                txs: Some(txs),
                raw_events,
                prep,
                window,
                prep_buf: Vec::new(),
            }),
            stats,
            snapshot,
            fresh_alarms,
            checkpoints,
            shard_handles: Mutex::new(shard_handles),
            writer_handle: Mutex::new(Some(writer_handle)),
            n_shards: n,
            schema,
        }
    }

    /// Number of labelling shards.
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// The telemetry domain this engine serves (implicit SMART when the
    /// predictor config carries none).
    pub fn schema(&self) -> &DomainSchema {
        &self.schema
    }

    /// Full feature-row width (base + derived columns) of the domain.
    pub fn n_features(&self) -> usize {
        self.schema.n_features()
    }

    /// Feed one raw stream event. The optional preprocessing stage runs
    /// here, under the ingest lock, before sequence stamping: one raw event
    /// becomes 0 (dropped / held) or more (held failures released) stamped
    /// events. Blocks when the target shard's queue is full (backpressure)
    /// and returns an error after shutdown.
    pub fn ingest(&self, event: FleetEvent) -> Result<(), ServeError> {
        // Preprocessing, stamping seqs and enqueueing to the shards must be
        // one atomic step: two ingests racing between stamp and send could
        // invert per-disk order and break the N-shard == serial determinism
        // argument (DESIGN §8). The sends under this lock live in
        // `send_prepped`, which carries the lock_discipline justification.
        let mut st = self.ingest.lock();
        if st.txs.is_none() {
            return Err(ServeError::ShuttingDown);
        }
        let is_sample = matches!(&event, FleetEvent::Sample(_));
        let mut buf = std::mem::take(&mut st.prep_buf);
        buf.clear();
        match st.prep.as_mut() {
            Some(prep) => prep.observe(&event, &mut buf),
            None => buf.push(event),
        }
        // Raw-side accounting happens even when prep swallows the event:
        // the checkpoint cursor must match what the telemetry store holds.
        st.raw_events += 1;
        if is_sample {
            self.stats.samples_ingested.fetch_add(1, Ordering::Relaxed);
        } else {
            self.stats.failures_ingested.fetch_add(1, Ordering::Relaxed);
        }
        let mut result = Ok(());
        for mut ev in buf.drain(..) {
            // The window stage runs after prep and before sharding: rows
            // grow to full width here, so labeller queues and the writer
            // only ever see extended rows (mirroring the serial
            // predictor's hook point in `observe_sample_scored`).
            if let Some(w) = st.window.as_mut() {
                match &mut ev {
                    FleetEvent::Sample(rec) => w.extend(rec.disk_id, &mut rec.features),
                    FleetEvent::Failure { disk_id, .. } => w.forget(*disk_id),
                }
            }
            if let Err(e) = self.send_prepped(&mut st, ev) {
                result = Err(e);
                break;
            }
        }
        st.prep_buf = buf;
        result
    }

    /// Stamp one prepped event with the next global sequence number and
    /// enqueue it to its shard. Callers hold the ingest lock.
    fn send_prepped(&self, st: &mut IngestState, event: FleetEvent) -> Result<(), ServeError> {
        let seq = st.next_seq;
        let shard = match &event {
            FleetEvent::Sample(rec) => shard_of(rec.disk_id, self.n_shards),
            FleetEvent::Failure { disk_id, .. } => shard_of(*disk_id, self.n_shards),
        };
        let txs = st.txs.as_ref().ok_or(ServeError::ShuttingDown)?;
        // lint: allow(panic_path, reason="shard < n_shards: shard_of reduces mod n_shards; stats and txs both have n_shards entries")
        self.stats.shard_depths[shard].fetch_add(1, Ordering::Relaxed);
        if txs[shard] // lint: allow(panic_path, reason="shard < n_shards by shard_of's modulo; txs has one sender per shard")
            .send(ShardMsg::Event(seq, Box::new(event)))
            .is_err()
        {
            // lint: allow(panic_path, reason="shard < n_shards by shard_of's modulo; same bound as the fetch_add above")
            self.stats.shard_depths[shard].fetch_sub(1, Ordering::Relaxed);
            return Err(ServeError::ShuttingDown);
        }
        st.next_seq += 1;
        self.stats
            .events_issued
            .store(st.next_seq, Ordering::Relaxed);
        Ok(())
    }

    /// Score a full-width feature row against the latest published model
    /// snapshot. Lock-free with respect to the writer (an epoch-cell load,
    /// not a lock); never blocks ingest.
    pub fn score(&self, features: &[f32]) -> f32 {
        let snap = self.snapshot.load();
        let t0 = Instant::now();
        let score = snap.score(features);
        self.stats.score_latency.record(t0.elapsed());
        score
    }

    /// The latest published model snapshot.
    pub fn model_snapshot(&self) -> Arc<ModelSnapshot> {
        self.snapshot.load()
    }

    /// Point-in-time serving counters (including the prep stage's repair
    /// counters when one is configured).
    pub fn stats(&self) -> StatsReport {
        let mut report = self.stats.report();
        report.prep = self
            .ingest
            .lock()
            .prep
            .as_ref()
            .map(|p| p.counters().clone());
        report
    }

    /// Drain alarms raised since the last call (in stream order).
    pub fn take_alarms(&self) -> Vec<Alarm> {
        std::mem::take(&mut *self.fresh_alarms.lock())
    }

    /// Block until every event ingested before this call has been applied
    /// by the model writer (and is visible in alarms / the next snapshot).
    pub fn flush(&self) {
        let target = self.ingest.lock().next_seq;
        while self.stats.events_applied.load(Ordering::Acquire) < target {
            if self.writer_handle.lock().is_none() {
                return; // already finished
            }
            std::thread::sleep(std::time::Duration::from_micros(100));
        }
    }

    /// Write an atomic checkpoint of the full serving state to `path`.
    /// Blocks until the file is durably in place; events ingested after
    /// this call are not included.
    pub fn checkpoint(&self, path: &Path) -> Result<(), String> {
        let (done_tx, done_rx) = sync_channel(1);
        {
            // lint: allow(lock_discipline, reason="the checkpoint barrier must take one seq slot across every shard with no ingest interleaved, or shards would snapshot at different stream points; the sends are to bounded queues the shards are actively draining")
            let mut st = self.ingest.lock();
            let txs = st.txs.as_ref().ok_or("engine is shutting down")?;
            let seq = st.next_seq;
            self.checkpoints.lock().push_back(CheckpointRequest {
                path: path.to_path_buf(),
                done: done_tx,
                raw_events: st.raw_events,
                prep: st.prep.clone(),
                window: st.window.clone(),
            });
            for tx in txs {
                tx.send(ShardMsg::Checkpoint(seq))
                    .map_err(|_| "a shard exited before the checkpoint".to_string())?;
            }
            st.next_seq += 1;
            self.stats
                .events_issued
                .store(st.next_seq, Ordering::Relaxed);
        }
        done_rx
            .recv()
            .map_err(|_| "the writer exited before completing the checkpoint".to_string())?
    }

    /// Shut down: barrier all shards, join every thread, and return the
    /// collected alarms plus the final state (the same state `checkpoint`
    /// would have written). Subsequent calls return `ShuttingDown`.
    pub fn finish(&self) -> Result<Finished, ServeError> {
        self.shutdown(true)
    }

    /// Shut down *without* end-of-stream semantics: the prep stage keeps
    /// any failures it is still holding for their survival re-check, so
    /// the returned checkpoint can seed a successor engine that continues
    /// the stream bit-identically (live re-sharding). `finish()` on the
    /// same stream point would release held failures early and diverge
    /// from a serial run that kept going.
    ///
    /// The barrier consumes one sequence number — exactly like
    /// `checkpoint()` — so a reference run that calls `checkpoint()` where
    /// a fleet run suspends sees the same seq stream afterwards.
    pub fn suspend(&self) -> Result<Finished, ServeError> {
        self.shutdown(false)
    }

    fn shutdown(&self, flush_prep: bool) -> Result<Finished, ServeError> {
        let (raw_events, final_prep, final_window) = {
            // The shutdown barrier must reach every shard at one seq with no
            // ingest interleaved (same atomicity as `ingest`); the sends
            // under this lock go through `send_prepped`, which carries the
            // lock_discipline justification.
            let mut st = self.ingest.lock();
            if st.txs.is_none() {
                return Err(ServeError::ShuttingDown);
            }
            if flush_prep {
                // End-of-stream for the prep stage: failures still held for
                // their survival re-check enter the stream now, before the
                // shutdown barrier — exactly like `OnlinePredictor::finish`.
                let mut buf = std::mem::take(&mut st.prep_buf);
                buf.clear();
                if let Some(prep) = st.prep.as_mut() {
                    prep.finish(&mut buf);
                }
                for mut ev in buf.drain(..) {
                    // Late-released events pass through the window stage like
                    // any other (they are failures, so this only drops state).
                    if let Some(w) = st.window.as_mut() {
                        match &mut ev {
                            FleetEvent::Sample(rec) => w.extend(rec.disk_id, &mut rec.features),
                            FleetEvent::Failure { disk_id, .. } => w.forget(*disk_id),
                        }
                    }
                    // A dead shard is noticed at join time, like the barrier
                    // sends below.
                    let _ = self.send_prepped(&mut st, ev);
                }
                st.prep_buf = buf;
            }
            let txs = st.txs.take().ok_or(ServeError::ShuttingDown)?;
            let seq = st.next_seq;
            for tx in &txs {
                // A shard that already died will be noticed at join time.
                let _ = tx.send(ShardMsg::Shutdown(seq));
            }
            st.next_seq += 1;
            self.stats
                .events_issued
                .store(st.next_seq, Ordering::Relaxed);
            (st.raw_events, st.prep.clone(), st.window.clone())
            // txs drop here: shard channels close once drained.
        };
        let mut panicked = false;
        for h in self.shard_handles.lock().drain(..) {
            panicked |= h.join().is_err();
        }
        let writer = self
            .writer_handle
            .lock()
            .take()
            .ok_or(ServeError::ShuttingDown)?;
        let fin = writer.join().map_err(|_| ServeError::WorkerPanicked)?;
        if panicked {
            return Err(ServeError::WorkerPanicked);
        }
        Ok(Finished {
            alarms: fin.alarms,
            checkpoint: Checkpoint::Online {
                scaler: fin.scaler,
                forest: fin.forest,
                version: Some(CHECKPOINT_VERSION),
                labeller: Some(fin.labeller),
                alarm_threshold: Some(fin.alarm_threshold),
                alarms_raised: Some(fin.alarms_raised),
                next_seq: Some(fin.next_seq),
                events_ingested: Some(raw_events),
                prep: final_prep,
                adapt: fin.adaptive,
                schema: Some(self.schema.clone()),
                window: final_window,
            },
        })
    }
}

/// A shard's outgoing batch to the model writer.
struct Outbox {
    tx: SyncSender<Vec<WriterMsg>>,
    batch: Vec<WriterMsg>,
    /// Flush threshold (at most [`WRITER_BATCH`]).
    size: usize,
}

impl Outbox {
    /// Queue one message, sending the batch once it is full. `false` once
    /// the writer is gone.
    fn push(&mut self, msg: WriterMsg) -> bool {
        self.batch.push(msg);
        self.batch.len() < self.size || self.flush()
    }

    /// Send whatever is queued. `false` once the writer is gone.
    fn flush(&mut self) -> bool {
        if self.batch.is_empty() {
            return true;
        }
        let full = std::mem::replace(&mut self.batch, Vec::with_capacity(self.size));
        self.tx.send(full).is_ok()
    }
}

/// One labelling shard's state.
struct Shard {
    idx: usize,
    labeller: OnlineLabeller,
    /// A copy of the writer's scaler, used only for its column set and
    /// `log1p` flag (which never change): shards pre-transform rows so the
    /// writer only widens bounds and scales.
    pre: OnlineMinMax,
    /// Whether released samples keep their raw rows for the adaptation loop.
    keep_raw: bool,
}

impl Shard {
    /// Shard thread body: apply Algorithm 2 labelling for this shard's
    /// disks and forward every event (pre-transformed, with any released
    /// training samples attached) to the model writer, in batches flushed
    /// when full, when the input queue is momentarily empty, and at every
    /// barrier.
    ///
    /// The injector hooks live here: `kill_shard` makes the thread die on
    /// the spot (labelling queues, queued events and the unsent batch lost,
    /// exactly like a crashed thread), and `delay_to_writer` holds a
    /// labelled message back until later messages have been forwarded —
    /// injected delivery reordering the writer's sequence-number reorder
    /// buffer must absorb. Held messages are flushed before any barrier so
    /// checkpoints and shutdown never wait on an injected delay.
    fn run(
        mut self,
        rx: Receiver<ShardMsg>,
        mut out: Outbox,
        stats: &ServeStats,
        injector: &dyn FaultInjector,
    ) {
        // Injected-delay holdback: (messages still to let pass first, message).
        let mut held: Vec<(usize, WriterMsg)> = Vec::new();
        loop {
            let msg = if out.batch.is_empty() {
                match rx.recv() {
                    Ok(m) => m,
                    Err(_) => return,
                }
            } else {
                match rx.try_recv() {
                    Ok(m) => m,
                    // Nothing waiting: hand the writer what we have now
                    // rather than stall it until the next event arrives.
                    Err(TryRecvError::Empty) => {
                        if !out.flush() {
                            return;
                        }
                        continue;
                    }
                    Err(TryRecvError::Disconnected) => {
                        out.flush();
                        return;
                    }
                }
            };
            match msg {
                ShardMsg::Event(seq, event) => {
                    stats.shard_depths[self.idx].fetch_sub(1, Ordering::Relaxed);
                    if injector.kill_shard(self.idx, seq) {
                        // Simulated shard crash: abandon the labelling
                        // queues, the held messages, the unsent batch and
                        // the channel, as a real dead thread would. The
                        // engine reports ShuttingDown on the next ingest
                        // routed here; recovery is restore-from-checkpoint
                        // (tests/fault_shard.rs).
                        return;
                    }
                    let msg = self.label(seq, *event);
                    let delay = injector.delay_to_writer(self.idx, seq);
                    if delay > 0 {
                        held.push((delay, msg));
                    } else if !out.push(msg) {
                        return; // writer is gone; nothing left to do
                    }
                    // One more message has gone past (or joined the
                    // holdback): tick every held entry and release the
                    // expired ones.
                    let mut i = 0;
                    while i < held.len() {
                        // lint: allow(panic_path, reason="i < held.len() is the loop condition; remove() below re-checks it")
                        held[i].0 -= 1;
                        // lint: allow(panic_path, reason="i < held.len() is the loop condition and i is not advanced since the check")
                        if held[i].0 == 0 {
                            let (_, m) = held.remove(i);
                            if !out.push(m) {
                                return;
                            }
                        } else {
                            i += 1;
                        }
                    }
                }
                ShardMsg::Checkpoint(seq) => {
                    out.batch.extend(held.drain(..).map(|(_, m)| m));
                    out.batch.push(WriterMsg::Marker {
                        seq,
                        labeller: self.labeller.clone(),
                        shutdown: false,
                    });
                    if !out.flush() {
                        return;
                    }
                }
                ShardMsg::Shutdown(seq) => {
                    out.batch.extend(held.drain(..).map(|(_, m)| m));
                    out.batch.push(WriterMsg::Marker {
                        seq,
                        labeller: self.labeller,
                        shutdown: true,
                    });
                    out.flush();
                    return;
                }
            }
        }
    }

    /// Label one event and pre-transform its rows for the writer.
    fn label(&mut self, seq: u64, event: FleetEvent) -> WriterMsg {
        match event {
            FleetEvent::Sample(rec) => {
                let released = self
                    .labeller
                    .observe_sample(rec.disk_id, rec.day, &rec.features)
                    .map(|rel| ShardRelease::new(rel, &self.pre, self.keep_raw));
                WriterMsg::Sample {
                    seq,
                    disk_id: rec.disk_id,
                    day: rec.day,
                    pre: pre_transform(&self.pre, &rec.features),
                    released,
                }
            }
            FleetEvent::Failure { disk_id, .. } => WriterMsg::Failure {
                seq,
                flushed: self
                    .labeller
                    .observe_failure(disk_id)
                    .into_iter()
                    .map(|rel| ShardRelease::new(rel, &self.pre, self.keep_raw))
                    .collect(),
            },
        }
    }
}

/// The model writer: single owner of the ORF and scaler, applying events
/// in global sequence order.
struct WriterThread {
    rx: Receiver<Vec<WriterMsg>>,
    /// The engine's resolved domain, embedded in every checkpoint so a
    /// restore against a different domain fails its fingerprint check.
    schema: DomainSchema,
    scaler: OnlineMinMax,
    forest: OnlineRandomForest,
    alarm_threshold: f32,
    next_seq: u64,
    alarms_raised: u64,
    n_shards: usize,
    snapshot_every: u64,
    /// Drift-triggered adaptation loop; `None` runs the writer exactly as
    /// before. The writer owns it because rebuilds swap the forest —
    /// mirroring the serial predictor's hook point keeps N-shard == serial.
    adaptive: Option<AdaptiveState>,
    stats: Arc<ServeStats>,
    snapshot: Arc<EpochCell<ModelSnapshot>>,
    fresh_alarms: Arc<Mutex<Vec<Alarm>>>,
    checkpoints: Arc<Mutex<VecDeque<CheckpointRequest>>>,
    injector: Arc<dyn FaultInjector>,
}

impl WriterThread {
    fn run(mut self) -> WriterFinal {
        let mut heap: BinaryHeap<BySeq> = BinaryHeap::new();
        let mut scratch = vec![0.0f32; self.scaler.n_outputs()];
        let mut alarms: Vec<Alarm> = Vec::new();
        let mut applied_samples: u64 = 0;
        let mut final_labeller: Option<OnlineLabeller> = None;

        'main: loop {
            // Pull until the next contiguous sequence number is buffered.
            while heap.peek().map(|m| m.0.seq()) != Some(self.next_seq) {
                match self.rx.recv() {
                    Ok(batch) => heap.extend(batch.into_iter().map(BySeq)),
                    Err(_) => break 'main, // all shards gone
                }
            }
            // lint: allow(panic_path, reason="the pull loop above only exits with the heap head at next_seq, so pop() is Some")
            match heap.pop().expect("peeked").0 {
                WriterMsg::Sample {
                    disk_id,
                    day,
                    pre,
                    released,
                    ..
                } => {
                    // Exactly OnlinePredictor::observe_sample's order:
                    // widen scaler → train on released (adaptation hook
                    // after the forest update, so a rebuild is visible to
                    // this event's own score) → score fresh row. The shard
                    // already ran the pre-transform half of each step.
                    self.scaler.widen(&pre);
                    if let Some(rel) = released {
                        self.apply_released(rel, &mut scratch);
                    }
                    let t0 = Instant::now();
                    self.scaler.scale_into(&pre, &mut scratch);
                    let score = self.forest.score(&scratch);
                    self.stats.score_latency.record(t0.elapsed());
                    if score >= self.alarm_threshold {
                        self.alarms_raised += 1;
                        self.stats.alarms_raised.fetch_add(1, Ordering::Relaxed);
                        let alarm = Alarm {
                            disk_id,
                            day,
                            score,
                        };
                        alarms.push(alarm);
                        self.fresh_alarms.lock().push(alarm);
                    }
                    applied_samples += 1;
                    if applied_samples.is_multiple_of(self.snapshot_every) {
                        self.publish();
                    }
                }
                WriterMsg::Failure { flushed, .. } => {
                    for rel in flushed {
                        self.apply_released(rel, &mut scratch);
                    }
                }
                WriterMsg::Marker {
                    seq,
                    labeller,
                    shutdown,
                } => {
                    let merged = self.collect_markers(&mut heap, seq, labeller);
                    if shutdown {
                        self.advance();
                        final_labeller = Some(merged);
                        break 'main;
                    }
                    self.handle_checkpoint(merged);
                }
            }
            self.advance();
        }

        self.publish();
        WriterFinal {
            scaler: self.scaler,
            forest: self.forest,
            labeller: final_labeller.unwrap_or_default(),
            alarm_threshold: self.alarm_threshold,
            alarms,
            alarms_raised: self.alarms_raised,
            next_seq: self.next_seq,
            adaptive: self.adaptive,
        }
    }

    /// Train on one released sample: scale it, update the forest, then run
    /// the adaptation hook.
    fn apply_released(&mut self, rel: ShardRelease, scratch: &mut [f32]) {
        self.scaler.scale_into(&rel.pre, scratch);
        self.forest.update(scratch, rel.positive);
        if let Some(raw) = rel.raw {
            self.adapt_released(&raw, rel.positive);
        }
    }

    /// Feed one released training sample (raw features + final label) to
    /// the adaptation loop; on a declared shift, run the update policy and
    /// publish the rebuilt model immediately so the lock-free scoring path
    /// sees it without waiting for the next scheduled snapshot. Shards keep
    /// the raw row exactly when the loop is configured.
    fn adapt_released(&mut self, features: &[f32], positive: bool) {
        let Some(adaptive) = self.adaptive.as_mut() else {
            return;
        };
        if adaptive.on_released(features, positive).is_none() {
            return;
        }
        if let Some(forest) = adaptive.rebuild(&self.scaler) {
            self.forest = forest;
        }
        self.publish();
    }

    /// One barrier message per shard arrives with the same sequence number;
    /// gather them all and merge the labelling-queue partitions.
    fn collect_markers(
        &mut self,
        heap: &mut BinaryHeap<BySeq>,
        seq: u64,
        first: OnlineLabeller,
    ) -> OnlineLabeller {
        let mut merged = first;
        let mut have = 1;
        while have < self.n_shards {
            if heap.peek().map(|m| m.0.seq()) == Some(seq) {
                // lint: allow(panic_path, reason="peek() just returned Some at this seq and the heap is writer-local")
                match heap.pop().expect("peeked").0 {
                    WriterMsg::Marker { labeller, .. } => {
                        merged.absorb(labeller);
                        have += 1;
                    }
                    // lint: allow(panic_path, reason="barrier seq numbers are allocated once and every shard sends exactly a Marker for them; a non-marker here is memory corruption, where dying beats absorbing garbage into the model")
                    other => unreachable!("non-marker at barrier seq {}", other.seq()),
                }
            } else {
                match self.rx.recv() {
                    Ok(batch) => heap.extend(batch.into_iter().map(BySeq)),
                    Err(_) => break, // shards died mid-barrier; best effort
                }
            }
        }
        merged
    }

    fn handle_checkpoint(&mut self, labeller: OnlineLabeller) {
        let Some(req) = self.checkpoints.lock().pop_front() else {
            return; // request vanished (caller gave up); drop silently
        };
        let ck = Checkpoint::Online {
            scaler: self.scaler.clone(),
            forest: self.forest.clone(),
            version: Some(CHECKPOINT_VERSION),
            labeller: Some(labeller),
            alarm_threshold: Some(self.alarm_threshold),
            alarms_raised: Some(self.alarms_raised),
            next_seq: Some(self.next_seq + 1),
            events_ingested: Some(req.raw_events),
            prep: req.prep,
            adapt: self.adaptive.clone(),
            schema: Some(self.schema.clone()),
            window: req.window,
        };
        let result = ck
            .save_atomic_faulted(&req.path, &*self.injector)
            .map_err(|e| e.to_string());
        self.publish();
        let _ = req.done.send(result);
    }

    /// Mark the current sequence number applied and move to the next.
    fn advance(&mut self) {
        self.next_seq += 1;
        self.stats
            .events_applied
            .store(self.next_seq, Ordering::Release);
    }

    /// Compile the live forest into its frozen scoring form, publish the
    /// immutable snapshot through the epoch cell, and mirror the
    /// writer-owned counters into the shared stats. This is the only
    /// storer, satisfying [`EpochCell::store`]'s single-writer contract.
    fn publish(&self) {
        self.snapshot.store(Arc::new(ModelSnapshot {
            scaler: self.scaler.clone(),
            forest: self.forest.freeze(),
            alarm_threshold: self.alarm_threshold,
        }));
        self.stats
            .forest_samples_seen
            .store(self.forest.samples_seen(), Ordering::Relaxed);
        self.stats
            .trees_replaced
            .store(self.forest.trees_replaced(), Ordering::Relaxed);
        if let Some(ad) = &self.adaptive {
            self.stats
                .drift_events
                .store(ad.drift_events(), Ordering::Relaxed);
            self.stats
                .model_rebuilds
                .store(ad.rebuilds(), Ordering::Relaxed);
        }
        self.stats
            .snapshots_published
            .fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orfpred_smart::attrs::N_FEATURES;
    use orfpred_smart::record::DiskDay;

    fn cfg(n_shards: usize) -> ServeConfig {
        let mut p = OnlinePredictorConfig::new(vec![0, 1, 2], 9);
        p.orf.n_trees = 5;
        p.orf.n_tests = 10;
        p.orf.min_parent_size = 10.0;
        p.orf.min_gain = 0.0;
        p.orf.lambda_neg = 0.5;
        p.orf.warmup_age = 0;
        let mut c = ServeConfig::new(p);
        c.n_shards = n_shards;
        c.snapshot_every = 16;
        c
    }

    fn rec(disk_id: u32, day: u16, v: f32) -> DiskDay {
        let mut features = vec![0.0f32; N_FEATURES];
        features[0] = v;
        features[1] = v * 0.5;
        features[2] = v * 2.0;
        DiskDay {
            disk_id,
            day,
            features,
        }
    }

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        for n in [1usize, 2, 4, 7] {
            for disk in 0..200u32 {
                let s = shard_of(disk, n);
                assert!(s < n);
                assert_eq!(s, shard_of(disk, n), "routing must be deterministic");
            }
        }
        // Non-degenerate spread over 4 shards.
        let mut counts = [0usize; 4];
        for disk in 0..1000u32 {
            counts[shard_of(disk, 4)] += 1;
        }
        assert!(
            counts.iter().all(|&c| c > 100),
            "skewed routing: {counts:?}"
        );
    }

    #[test]
    fn ingest_flush_and_counters() {
        let engine = Engine::new(&cfg(2));
        for day in 0..30u16 {
            for disk in 0..10u32 {
                engine
                    .ingest(FleetEvent::Sample(rec(
                        disk,
                        day,
                        if disk == 0 { 30.0 } else { 0.0 },
                    )))
                    .unwrap();
            }
        }
        engine
            .ingest(FleetEvent::Failure {
                disk_id: 0,
                day: 30,
            })
            .unwrap();
        engine.flush();
        let s = engine.stats();
        assert_eq!(s.samples_ingested, 300);
        assert_eq!(s.failures_ingested, 1);
        assert_eq!(s.events_applied, s.events_issued);
        assert!(
            s.forest_samples_seen > 0,
            "labelled samples reached the forest"
        );
        assert!(s.snapshots_published >= 1);
        let fin = engine.finish().unwrap();
        assert!(engine.finish().is_err(), "double finish must fail");
        let Checkpoint::Online { labeller, .. } = fin.checkpoint;
        assert!(labeller.unwrap().n_pending() > 0, "survivors stay queued");
    }

    #[test]
    fn score_and_snapshot_survive_shutdown() {
        let engine = Engine::new(&cfg(3));
        for day in 0..40u16 {
            for disk in 0..8u32 {
                engine
                    .ingest(FleetEvent::Sample(rec(disk, day, 0.0)))
                    .unwrap();
            }
        }
        engine.flush();
        let s = engine.score(&rec(99, 0, 0.0).features);
        assert!((0.0..=1.0).contains(&s));
        let snap = engine.model_snapshot();
        engine.finish().unwrap();
        // Frozen snapshots keep working after shutdown.
        assert_eq!(snap.score(&rec(99, 0, 0.0).features), s);
        assert!(engine
            .ingest(FleetEvent::Failure { disk_id: 1, day: 0 })
            .is_err());
    }

    #[test]
    fn snapshot_batch_scoring_is_bit_identical_to_single_row() {
        let engine = Engine::new(&cfg(2));
        for day in 0..60u16 {
            for disk in 0..12u32 {
                engine
                    .ingest(FleetEvent::Sample(rec(
                        disk,
                        day,
                        (disk as f32) * 0.3 + (day as f32) * 0.1,
                    )))
                    .unwrap();
            }
        }
        engine
            .ingest(FleetEvent::Failure {
                disk_id: 3,
                day: 60,
            })
            .unwrap();
        engine.flush();
        let snap = engine.model_snapshot();
        engine.finish().unwrap();
        // Batch probes span ordinary, boundary, and non-finite inputs.
        let mut probes: Vec<Vec<f32>> = Vec::new();
        for i in 0..37 {
            let mut f = rec(i, 0, (i as f32) * 0.7 - 3.0).features;
            if i % 11 == 0 {
                f[0] = f32::NAN;
            }
            if i % 13 == 0 {
                f[2] = f32::INFINITY;
            }
            probes.push(f);
        }
        let rows: Vec<&[f32]> = probes.iter().map(|f| &f[..]).collect();
        let batch = snap.score_batch(&rows);
        assert_eq!(batch.len(), rows.len());
        for (row, &b) in rows.iter().zip(&batch) {
            assert_eq!(
                snap.score(row).to_bits(),
                b.to_bits(),
                "snapshot batch diverged from single-row"
            );
        }
    }

    #[test]
    fn take_alarms_drains_in_stream_order() {
        let c = {
            let mut c = cfg(2);
            c.predictor.alarm_threshold = 0.0; // everything alarms
            c
        };
        let engine = Engine::new(&c);
        for day in 0..10u16 {
            engine.ingest(FleetEvent::Sample(rec(1, day, 1.0))).unwrap();
        }
        engine.flush();
        let drained = engine.take_alarms();
        assert_eq!(drained.len(), 10);
        assert!(drained.windows(2).all(|w| w[0].day < w[1].day));
        assert!(engine.take_alarms().is_empty(), "drained exactly once");
        let fin = engine.finish().unwrap();
        assert_eq!(fin.alarms.len(), 10, "finish still returns the full list");
    }

    #[test]
    fn checkpoint_restore_continues_identically() {
        let c = cfg(2);
        let path = std::env::temp_dir().join("orfpred_engine_ckpt_test.json");

        // Uninterrupted reference run.
        let reference = Engine::new(&c);
        for day in 0..30u16 {
            for disk in 0..6u32 {
                reference
                    .ingest(FleetEvent::Sample(rec(disk, day, f32::from(day % 5))))
                    .unwrap();
            }
        }
        // Take the same checkpoint barrier so sequence numbers line up.
        reference.checkpoint(&path).unwrap();
        for day in 30..50u16 {
            for disk in 0..6u32 {
                reference
                    .ingest(FleetEvent::Sample(rec(disk, day, f32::from(day % 5))))
                    .unwrap();
            }
        }
        let ref_fin = reference.finish().unwrap();

        // Restore from the mid-stream checkpoint (different shard count)
        // and replay only the tail.
        let mut c3 = c.clone();
        c3.n_shards = 3;
        let resumed = Engine::restore(&c3, Checkpoint::load(&path).unwrap());
        for day in 30..50u16 {
            for disk in 0..6u32 {
                resumed
                    .ingest(FleetEvent::Sample(rec(disk, day, f32::from(day % 5))))
                    .unwrap();
            }
        }
        let res_fin = resumed.finish().unwrap();

        // The final states must be byte-identical.
        assert_eq!(
            serde_json::to_string(&ref_fin.checkpoint).unwrap(),
            serde_json::to_string(&res_fin.checkpoint).unwrap()
        );
        std::fs::remove_file(&path).ok();
    }
}
