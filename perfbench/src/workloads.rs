//! The three daemon workloads. Each run builds its inputs once (outside
//! timing), then repeats *passes* — one fresh `orfpredd` each — until the
//! measuring time is used up, and checks every pass against the serial
//! reference.
//!
//! Every pass of every workload yields every end-to-end metric. A pass has
//! a main phase that the workload exists for and, afterwards on the idle
//! daemon, the probes its main phase lacks: idle `Score` round trips where
//! the main phase sent none, idle `Checkpoint` round trips where it took
//! none.

use crate::client::{
    checkpoint_request, open_session, stats_request, Daemon, Inbox, Reader, TempDir,
};
use crate::input::{self, Encoded, RefAlarm, Reference, Stream};
use crate::metrics::{open_loop, Clock, WallClock};
use orfpred_core::Alarm;
use orfpred_fleet::ServerFrame;
use orfpred_serve::StatsReport;
use orfpred_smart::gen::FleetEvent;
use std::io::Write;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["ingest", "score_mix", "restart"];

/// Open-loop `Score` rate, requests per second.
pub const SCORE_HZ: u32 = 1_000;
/// Idle `Score` probes per pass where the main phase sends none.
pub const IDLE_SCORES: usize = 500;
/// Idle `Checkpoint` round trips per pass where the main phase takes none.
pub const IDLE_CHECKPOINTS: usize = 5;
/// Events per write in the closed-loop phases.
const CLOSED_CHUNK: usize = 64;
/// `score_mix`: days ingested closed-loop before the paced phase.
pub const MIX_WARM_DAYS: u16 = 300;
/// `score_mix`: paced ingest rate, events per second.
pub const MIX_INGEST_EPS: f64 = 50_000.0;
/// `score_mix`: events per paced write.
const MIX_CHUNK: usize = 50;
/// `restart`: the checkpoint covers the stream up to this many days
/// before its last day.
pub const RESTART_CHECKPOINT_DAYS_BEFORE_END: u16 = 30;
/// `restart`: the telemetry store holds the stream up to this many days
/// before its last day; the live tail is the rest.
pub const RESTART_STORE_DAYS_BEFORE_END: u16 = 12;
/// `restart`: a `Checkpoint` frame follows every this many tail days.
pub const RESTART_CHECKPOINT_EVERY_DAYS: u16 = 3;
/// `restart`: events per tail write.
const RESTART_CHUNK: usize = 16;
/// Stats sampling period of a traced pass.
const TRACE_SAMPLE: Duration = Duration::from_millis(20);
/// Upper bound on any wait for the daemon.
const WAIT: Duration = Duration::from_secs(60);

/// Everything a run builds before timing starts.
pub struct Inputs {
    /// `orfpredd` binary.
    pub daemon_bin: PathBuf,
    /// Scratch directory of this run.
    pub dir: TempDir,
    /// The seeded stream.
    pub stream: Stream,
    /// All its events as ORFB frames.
    pub encoded: Encoded,
    /// Session preamble (magic + `Hello`).
    pub hello: Vec<u8>,
    /// One encoded `Score` frame per probe row.
    pub probes: Vec<Vec<u8>>,
    /// Serial reference over the whole stream.
    pub reference: Reference,
    /// `restart` only: events covered by the checkpoint.
    pub cut: usize,
    /// `restart` only: events held by the telemetry store.
    pub store_upto: usize,
}

impl Inputs {
    /// Build the inputs of `workload` for `seed` in a fresh directory
    /// under `scratch`.
    pub fn build(
        workload: &str,
        seed: u64,
        daemon_bin: &Path,
        scratch: &Path,
    ) -> Result<Self, String> {
        let dir = TempDir::new(scratch, "run").map_err(|e| format!("scratch dir: {e}"))?;
        let stream = Stream::generate(seed);
        let tenant = input::tenant_config();
        let schema = tenant.serve.predictor.domain_schema();
        let encoded = Encoded::events(&stream.events);
        let n_probes = IDLE_SCORES.max(SCORE_HZ as usize * 4);
        let probes =
            input::score_frames(&input::probe_rows(&stream, n_probes, schema.n_features()));
        let (cut, store_upto) = if workload == "restart" {
            let last = stream.last_day();
            (
                stream.end_of_day(last - RESTART_CHECKPOINT_DAYS_BEFORE_END),
                stream.end_of_day(last - RESTART_STORE_DAYS_BEFORE_END),
            )
        } else {
            (0, 0)
        };
        let reference = input::reference(
            &tenant.serve.predictor,
            &stream.events,
            (workload == "restart").then_some(cut),
        );
        if let Some(ck) = &reference.checkpoint {
            ck.save_atomic(&dir.path().join("base.json"))
                .map_err(|e| format!("save base checkpoint: {e}"))?;
            let store = dir.path().join("store");
            input::record_store_prefix(&stream, store_upto, &store)?;
            check_store_replay(&store, &stream.events[..store_upto])?;
        }
        Ok(Self {
            daemon_bin: daemon_bin.to_path_buf(),
            hello: input::hello_bytes(schema.fingerprint()),
            dir,
            stream,
            encoded,
            probes,
            reference,
            cut,
            store_upto,
        })
    }

    /// Reference alarms the daemon of this workload must reproduce, sorted
    /// by `(day, disk_id)`.
    pub fn expected_alarms(&self) -> Vec<Alarm> {
        let mut out: Vec<Alarm> = self
            .reference
            .alarms
            .iter()
            .filter(|a| a.event >= self.cut)
            .map(|a: &RefAlarm| a.alarm)
            .collect();
        sort_alarms(&mut out);
        out
    }
}

/// The store must replay exactly the stream prefix it was built from.
fn check_store_replay(dir: &Path, prefix: &[FleetEvent]) -> Result<(), String> {
    let store = orfpred_store::Store::open(dir).map_err(|e| e.to_string())?;
    let mut n = 0usize;
    for (got, want) in store.events().zip(prefix) {
        let got = got.map_err(|e| e.to_string())?;
        if input::event_frame(&got) != input::event_frame(want) {
            return Err(format!(
                "store replay diverges from the stream at event {n}"
            ));
        }
        n += 1;
    }
    if n != prefix.len() || store.events().count() != prefix.len() {
        return Err("store replay length differs from the stream prefix".into());
    }
    Ok(())
}

/// Sort alarms into stream order (one sample per disk per day).
pub fn sort_alarms(alarms: &mut [Alarm]) {
    alarms.sort_by_key(|a| (a.day, a.disk_id));
}

/// One `Stats` reply, reduced to what the benchmark reads.
#[derive(Clone, Debug, Default)]
pub struct Stats {
    /// Sequence numbers issued.
    pub issued: u64,
    /// Sequence numbers applied by the model writer.
    pub applied: u64,
    /// In-flight events per shard.
    pub shard_depths: Vec<u64>,
    /// Snapshots published for scoring.
    pub snapshots: u64,
    /// Trees replaced by the ORF.
    pub trees_replaced: u64,
    /// Server-side score latency histogram, p50 (ns).
    pub score_p50_ns: u64,
    /// Server-side score latency histogram, p99 (ns).
    pub score_p99_ns: u64,
}

fn parse_stats(json: &str) -> Result<Stats, String> {
    let v = serde_json::value_from_str(json).map_err(|e| format!("stats reply: {e}"))?;
    let r: StatsReport = serde::get_field(&v, "engine").map_err(|e| format!("stats reply: {e}"))?;
    Ok(Stats {
        issued: r.events_issued,
        applied: r.events_applied,
        shard_depths: r.shard_queue_depths,
        snapshots: r.snapshots_published,
        trees_replaced: r.trees_replaced,
        score_p50_ns: r.score_latency_p50_ns,
        score_p99_ns: r.score_latency_p99_ns,
    })
}

/// One ORFB session: its writing half, reading half, and what arrived
/// unasked.
struct Session {
    w: TcpStream,
    r: Reader,
    inbox: Inbox,
}

impl Session {
    fn open(daemon: &mut Daemon, hello: &[u8]) -> Result<Self, String> {
        let (w, r) = open_session(daemon, hello)?;
        // Bounded waits: a wedged daemon fails the run instead of hanging it.
        w.set_write_timeout(Some(WAIT)).map_err(|e| e.to_string())?;
        w.set_read_timeout(Some(WAIT)).map_err(|e| e.to_string())?;
        Ok(Self {
            w,
            r,
            inbox: Inbox::default(),
        })
    }

    fn send(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.w.write_all(bytes).map_err(|e| format!("send: {e}"))
    }

    fn reply(&mut self) -> Result<ServerFrame, String> {
        self.r.reply(&mut self.inbox)
    }

    fn send_stats(&mut self) -> Result<(), String> {
        self.send(&stats_request())
    }

    fn read_stats(&mut self) -> Result<Stats, String> {
        match self.reply()? {
            ServerFrame::StatsReply { json } => parse_stats(&json),
            other => Err(format!("expected a stats reply, got {other:?}")),
        }
    }

    fn stats(&mut self) -> Result<Stats, String> {
        self.send_stats()?;
        self.read_stats()
    }

    /// Poll `Stats` until `events_applied` reaches `target` (or the wait
    /// bound passes); returns the last reply and when it arrived.
    fn wait_applied(&mut self, target: u64) -> Result<(Stats, Instant), String> {
        let deadline = Instant::now() + WAIT;
        loop {
            let s = self.stats()?;
            let at = Instant::now();
            if s.applied >= target || at > deadline {
                return Ok((s, at));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Send a `Checkpoint` frame and wait for its reply: the round trip in
    /// ms, or `None` when the daemon answered with an error.
    fn checkpoint(&mut self, path: &str) -> Result<Option<f64>, String> {
        let t = Instant::now();
        self.send(&checkpoint_request(path))?;
        match self.reply()? {
            ServerFrame::Ok { .. } => Ok(Some(t.elapsed().as_secs_f64() * 1e3)),
            ServerFrame::Error { .. } => Ok(None),
            other => Err(format!("expected a checkpoint reply, got {other:?}")),
        }
    }
}

/// Everything one pass measured and observed.
#[derive(Default)]
pub struct Pass {
    /// Spawn → `HelloAck` on the first session, seconds.
    pub setup_s: f64,
    /// Events sent in the measured ingest phase.
    pub events_sent: u64,
    /// First event byte → `Stats` showing them all applied, seconds.
    pub ingest_s: f64,
    /// Per-write lateness against the ingest schedule, ms.
    pub late_ms: Vec<f64>,
    /// Open-loop `Score` latencies, µs.
    pub score_us: Vec<f64>,
    /// `Score` requests sent.
    pub scores_sent: u64,
    /// Score replies that were not a finite value in [0, 1].
    pub bad_scores: u64,
    /// `Checkpoint` round trips, ms.
    pub checkpoint_ms: Vec<f64>,
    /// `Checkpoint` requests sent.
    pub checkpoints_sent: u64,
    /// Every alarm this daemon raised, in stream order.
    pub alarms: Vec<Alarm>,
    /// `Error` frame messages.
    pub errors: Vec<String>,
    /// Events sent over the whole pass (all phases).
    pub events_total: u64,
    /// Sent events the daemon had not applied at the end.
    pub not_applied: u64,
    /// `events_applied` when the first session opened.
    pub base_applied: u64,
    /// `events_applied` expected at the end.
    pub applied_expected: u64,
    /// `events_applied` at the end.
    pub applied_final: u64,
    /// Daemon `VmHWM`, MiB.
    pub rss_mb: f64,
    /// Traced passes: `Stats` sampled during the main phase.
    pub samples: Vec<Stats>,
    /// `Stats` at the end of the pass.
    pub final_stats: Stats,
}

impl Pass {
    /// Operations the pass attempted: events, scores and checkpoints.
    pub fn attempted(&self) -> u64 {
        self.events_total + self.scores_sent + self.checkpoints_sent
    }

    /// Operations that failed: error frames, events not applied, score
    /// requests without a valid reply, checkpoints without a round trip.
    pub fn failed(&self) -> u64 {
        self.errors.len() as u64
            + self.not_applied
            + self.bad_scores
            + (self.scores_sent - self.score_us.len() as u64)
            + (self.checkpoints_sent - self.checkpoint_ms.len() as u64)
    }
}

/// Run one pass of `workload` on a fresh daemon; `trace` samples `Stats`
/// during the main phase.
pub fn run_pass(inputs: &Inputs, workload: &str, trace: bool) -> Result<Pass, String> {
    let pass_dir = TempDir::new(inputs.dir.path(), "pass").map_err(|e| e.to_string())?;
    let spec = daemon_spec(inputs, workload, pass_dir.path())?;
    let t_spawn = Instant::now();
    let mut daemon = Daemon::spawn(&inputs.daemon_bin, &spec, pass_dir.path())?;
    let mut a = Session::open(&mut daemon, &inputs.hello)?;
    let mut pass = Pass {
        setup_s: t_spawn.elapsed().as_secs_f64(),
        ..Pass::default()
    };
    let mut b = Session::open(&mut daemon, &inputs.hello)?;
    // A restored daemon resumes at the checkpoint's cursor plus the store
    // events it caught up on; a fresh one at zero.
    let base = b.stats()?.applied;
    pass.base_applied = base;

    match workload {
        "ingest" => ingest_phase(inputs, &mut a, &mut b, base, trace, &mut pass)?,
        "score_mix" => score_mix_phase(inputs, &mut a, &mut b, base, trace, &mut pass)?,
        "restart" => restart_phase(inputs, &mut a, &mut b, base, trace, &mut pass)?,
        other => return Err(format!("unknown workload `{other}`")),
    }

    // Idle probes for what the main phase did not exercise.
    if workload != "score_mix" {
        let us = scores(&mut b, &inputs.probes[..IDLE_SCORES], &mut pass)?;
        pass.score_us.extend(us);
    }
    if workload != "restart" {
        for k in 0..IDLE_CHECKPOINTS {
            pass.checkpoints_sent += 1;
            pass.checkpoint_ms
                .extend(b.checkpoint(&format!("idle-{k}.json"))?);
        }
    }

    // A checkpoint's reply can overtake the writer's count of its barrier,
    // so wait for the count; then a last Stats on each session drains
    // every alarm still queued.
    pass.applied_expected = base + pass.events_total + pass.checkpoints_sent;
    let (end, _) = b.wait_applied(pass.applied_expected)?;
    a.stats()?;
    pass.not_applied = pass.applied_expected.saturating_sub(end.applied);
    pass.applied_final = end.applied;
    pass.final_stats = end;
    pass.rss_mb = daemon.peak_rss_mb().unwrap_or(f64::NAN);
    let mut alarms = daemon.stdout_alarms()?;
    for s in [&mut a, &mut b] {
        alarms.append(&mut s.inbox.alarms);
        pass.errors.append(&mut s.inbox.errors);
    }
    sort_alarms(&mut alarms);
    pass.alarms = alarms;
    drop((a, b));
    daemon.shutdown()?;
    Ok(pass)
}

/// Passes per stream at the least. `ingest` measures its throughput in one
/// 4-5 s burst per pass, which varies by about ±8 % from pass to pass on a
/// shared 2-core host, so it takes two; the other workloads' figures
/// pool many samples within a pass.
pub fn min_passes(workload: &str) -> usize {
    if workload == "ingest" {
        2
    } else {
        1
    }
}

/// Start a daemon for `workload` and open one session: the set-up time
/// alone, in seconds. The daemon is killed afterwards.
pub fn setup_only(inputs: &Inputs, workload: &str) -> Result<f64, String> {
    let pass_dir = TempDir::new(inputs.dir.path(), "setup").map_err(|e| e.to_string())?;
    let spec = daemon_spec(inputs, workload, pass_dir.path())?;
    let t_spawn = Instant::now();
    let mut daemon = Daemon::spawn(&inputs.daemon_bin, &spec, pass_dir.path())?;
    Session::open(&mut daemon, &inputs.hello)?;
    Ok(t_spawn.elapsed().as_secs_f64())
}

/// The `--tenant` spec of `workload`'s daemon started in `dir`; `restart`
/// gets a fresh copy of the base checkpoint there.
fn daemon_spec(inputs: &Inputs, workload: &str, dir: &Path) -> Result<String, String> {
    if workload == "restart" {
        std::fs::copy(inputs.dir.path().join("base.json"), dir.join("ck.json"))
            .map_err(|e| format!("copy checkpoint: {e}"))?;
        Ok(format!(
            "{},checkpoint=ck.json,store=../store",
            input::TENANT_SPEC
        ))
    } else {
        Ok(input::TENANT_SPEC.to_string())
    }
}

/// Where a traced phase samples `Stats` between its writes.
enum Sampler<'a> {
    /// Not traced.
    Off,
    /// On the session being written (its other session is busy).
    Writer,
    /// On another session.
    Other(&'a mut Session),
}

/// Write events `lo..hi` of `encoded` on `w` in `chunk`-event writes, write
/// `k` due at `origin + due(k)`. Records each write's lateness against its
/// due time and, when traced, samples `Stats` between writes.
#[allow(clippy::too_many_arguments)]
fn write_scheduled(
    encoded: &Encoded,
    lo: usize,
    hi: usize,
    chunk: usize,
    origin: Instant,
    due: impl Fn(usize) -> Duration,
    w: &mut Session,
    mut sampler: Sampler<'_>,
    pass: &mut Pass,
) -> Result<(), String> {
    let mut clock = WallClock::at(origin);
    let mut next_sample = clock.now();
    for (k, start) in (lo..hi).step_by(chunk).enumerate() {
        let d = due(k);
        clock.sleep_until(d);
        pass.late_ms
            .push(clock.now().saturating_sub(d).as_secs_f64() * 1e3);
        w.send(encoded.range(start, (start + chunk).min(hi)))?;
        if clock.now() >= next_sample {
            let sample = match &mut sampler {
                Sampler::Off => None,
                Sampler::Writer => Some(w.stats()?),
                Sampler::Other(s) => Some(s.stats()?),
            };
            pass.samples.extend(sample);
            next_sample = clock.now() + TRACE_SAMPLE;
        }
    }
    pass.events_total += (hi - lo) as u64;
    Ok(())
}

/// Closed loop: every write is due when the phase starts, so a write's
/// lateness is how long the stream before it took to hand over.
fn closed(_: usize) -> Duration {
    Duration::ZERO
}

/// `ingest`: the whole stream, closed loop, on one session.
fn ingest_phase(
    inputs: &Inputs,
    a: &mut Session,
    b: &mut Session,
    base: u64,
    trace: bool,
    pass: &mut Pass,
) -> Result<(), String> {
    let n = inputs.encoded.len();
    let sampler = if trace {
        Sampler::Other(b)
    } else {
        Sampler::Off
    };
    let t0 = Instant::now();
    write_scheduled(
        &inputs.encoded,
        0,
        n,
        CLOSED_CHUNK,
        t0,
        closed,
        a,
        sampler,
        pass,
    )?;
    a.send_stats()?; // ends the daemon's partial batch
    let (_, t1) = b.wait_applied(base + n as u64)?;
    a.read_stats()?;
    pass.events_sent = n as u64;
    pass.ingest_s = (t1 - t0).as_secs_f64();
    Ok(())
}

/// `score_mix`: warm up closed loop, then pace the rest of the stream
/// while a second thread sends open-loop scores on the other session.
fn score_mix_phase(
    inputs: &Inputs,
    a: &mut Session,
    b: &mut Session,
    base: u64,
    trace: bool,
    pass: &mut Pass,
) -> Result<(), String> {
    let n = inputs.encoded.len();
    let warm = inputs.stream.end_of_day(MIX_WARM_DAYS - 1);
    write_scheduled(
        &inputs.encoded,
        0,
        warm,
        CLOSED_CHUNK,
        Instant::now(),
        closed,
        a,
        Sampler::Off,
        pass,
    )?;
    a.stats()?;
    b.wait_applied(base + warm as u64)?;
    pass.late_ms.clear();

    let paced = n - warm;
    let n_scores = (paced as f64 / MIX_INGEST_EPS * f64::from(SCORE_HZ)) as usize;
    let frames = &inputs.probes[..n_scores.min(inputs.probes.len())];
    let period = Duration::from_secs_f64(MIX_CHUNK as f64 / MIX_INGEST_EPS);
    let sampler = if trace { Sampler::Writer } else { Sampler::Off };
    let t0 = Instant::now();
    let (written, scored) = std::thread::scope(|s| {
        let scorer = s.spawn(|| {
            let mut p = Pass::default();
            scores(b, frames, &mut p).map(|us| (us, p))
        });
        let written = write_scheduled(
            &inputs.encoded,
            warm,
            n,
            MIX_CHUNK,
            t0,
            |k| period * k as u32,
            a,
            sampler,
            pass,
        );
        (written, scorer.join())
    });
    written?;
    let (score_us, p) = scored.map_err(|_| "score thread panicked".to_string())??;
    a.send_stats()?;
    a.read_stats()?;
    let (_, t1) = a.wait_applied(base + n as u64)?;
    pass.events_sent = paced as u64;
    pass.ingest_s = (t1 - t0).as_secs_f64();
    pass.score_us = score_us;
    pass.scores_sent = p.scores_sent;
    pass.bad_scores = p.bad_scores;
    Ok(())
}

/// `restart`: the daemon has restored and caught up; feed the live tail
/// closed loop, sending a `Checkpoint` (and waiting for it) every few
/// simulated days.
fn restart_phase(
    inputs: &Inputs,
    a: &mut Session,
    b: &mut Session,
    base: u64,
    trace: bool,
    pass: &mut Pass,
) -> Result<(), String> {
    let n = inputs.encoded.len();
    let lo = inputs.store_upto;
    let t0 = Instant::now();
    let mut start = lo;
    while start < n {
        let day = input::event_day(&inputs.stream.events[start]);
        let end = inputs
            .stream
            .end_of_day(day + RESTART_CHECKPOINT_EVERY_DAYS - 1);
        let sampler = if trace {
            Sampler::Other(&mut *b)
        } else {
            Sampler::Off
        };
        write_scheduled(
            &inputs.encoded,
            start,
            end,
            RESTART_CHUNK,
            t0,
            closed,
            a,
            sampler,
            pass,
        )?;
        if end < n {
            pass.checkpoints_sent += 1;
            pass.checkpoint_ms.extend(a.checkpoint("live.json")?);
        }
        start = end;
    }
    a.send_stats()?;
    let target = base + (n - lo) as u64 + pass.checkpoints_sent;
    let (_, t1) = b.wait_applied(target)?;
    a.read_stats()?;
    pass.events_sent = (n - lo) as u64;
    pass.ingest_s = (t1 - t0).as_secs_f64();
    Ok(())
}

/// Open-loop `Score` requests at [`SCORE_HZ`] on one session; latencies in
/// µs. Replies that are not finite values in [0, 1] count as bad.
fn scores(s: &mut Session, frames: &[Vec<u8>], pass: &mut Pass) -> Result<Vec<f64>, String> {
    let mut clock = WallClock::start();
    let period = Duration::from_secs(1) / SCORE_HZ;
    let mut bad = 0;
    let lat = open_loop(frames.len(), period, &mut clock, |i, _| {
        s.send(&frames[i])?;
        match s.reply()? {
            ServerFrame::ScoreReply { score }
                if score.is_finite() && (0.0..=1.0).contains(&score) =>
            {
                Ok(())
            }
            ServerFrame::ScoreReply { .. } => {
                bad += 1;
                Ok(())
            }
            other => Err(format!("expected a score reply, got {other:?}")),
        }
    })?;
    pass.scores_sent += frames.len() as u64;
    pass.bad_scores += bad;
    Ok(lat.iter().map(|d| d.as_secs_f64() * 1e6).collect())
}
