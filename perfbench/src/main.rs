//! `orfpred-perfbench`: run one workload (or all three) against a real
//! `orfpredd`, check its outputs against the serial reference, and print
//! every metric with its unit and sample count. The last stdout line is a
//! JSON object `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! orfpred-perfbench --daemon PATH --workload <ingest|score_mix|restart|all>
//!                   --seed N --seconds S --trace <0|1>
//! ```

use orfpred_perfbench::client::TempDir;
use orfpred_perfbench::input;
use orfpred_perfbench::metrics::{median, quantile, tail, AlarmQuality};
use orfpred_perfbench::provenance::provenance;
use orfpred_perfbench::stages::{self, STAGES};
use orfpred_perfbench::workloads::{self, run_pass, Inputs, Pass, WORKLOADS};
use serde::Value;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Directory (relative to the working directory) for per-run scratch.
const SCRATCH: &str = ".bench_tmp";

/// Daemon starts timed per run (passes plus set-up-only starts).
const MIN_SETUPS: usize = 9;

/// Seeded streams per untraced run.
const STREAMS_PER_RUN: usize = 3;

/// End-to-end metrics in the result line. The others are printed with
/// their sample counts but vary too much between runs on a shared 2-core
/// host to carry a regression bound (README, "End-to-end metrics").
const IN_RESULT: [&str; 5] = [
    "ingest_eps",
    "setup_s",
    "checkpoint_p50_ms",
    "alarm_fdr_pct",
    "rss_peak_mb",
];

struct Args {
    daemon: PathBuf,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        daemon: PathBuf::new(),
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--daemon" => args.daemon = PathBuf::from(value()?),
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed: not a number")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds: not a number")?
            }
            "--trace" => args.trace = value()? == "1",
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    // Absolute, because each daemon runs in its own scratch directory.
    args.daemon = std::fs::canonicalize(&args.daemon)
        .map_err(|e| format!("--daemon `{}`: {e}", args.daemon.display()))?;
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?} or all"));
    }
    Ok(args)
}

/// One reported metric.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    samples: String,
}

impl Metric {
    fn new(
        name: impl Into<String>,
        unit: &'static str,
        value: f64,
        samples: impl Into<String>,
    ) -> Self {
        Self {
            name: name.into(),
            unit,
            value,
            samples: samples.into(),
        }
    }
}

/// What one workload run produced.
struct Outcome {
    metrics: Vec<Metric>,
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let list: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut all = Vec::new();
    for w in &list {
        match run_workload(&args, w) {
            Ok(o) => all.push((*w, o)),
            Err(e) => {
                eprintln!("perfbench: {w}: {e}");
                std::process::exit(1);
            }
        }
    }

    let correct = all.iter().all(|(_, o)| o.problems.is_empty());
    let attempted: u64 = all.iter().map(|(_, o)| o.attempted).sum();
    let failed: u64 = all.iter().map(|(_, o)| o.failed).sum();
    let mut metrics = Vec::new();
    for (w, o) in &all {
        for p in &o.problems {
            println!("CHECK FAILED {w}: {p}");
        }
        for m in &o.metrics {
            let name = if list.len() == 1 {
                m.name.clone()
            } else {
                format!("{w}.{}", m.name)
            };
            metrics.push((
                name,
                Value::Obj(vec![
                    ("value".into(), Value::Float(m.value)),
                    ("unit".into(), Value::Str(m.unit.into())),
                ]),
            ));
        }
    }
    let result = Value::Obj(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Int(i128::from(attempted.max(1)))),
        ("failed".into(), Value::Int(i128::from(failed))),
        ("metrics".into(), Value::Obj(metrics)),
    ]);
    println!("{}", serde_json::value_to_string(&result));
    if !correct {
        std::process::exit(1);
    }
}

fn run_workload(args: &Args, workload: &str) -> Result<Outcome, String> {
    // A run spreads its passes over several seeded streams so that one
    // stream's model growth does not set the run's figures; a traced run
    // uses the first stream only.
    let n_streams = if args.trace { 1 } else { STREAMS_PER_RUN };
    let budget = Duration::from_secs(args.seconds) / STREAMS_PER_RUN as u32;
    let mut passes = Vec::new();
    let mut setups = Vec::new();
    let mut problems = Vec::new();
    let mut quality = AlarmQuality::default();
    let mut metrics = Vec::new();
    for j in 0..n_streams {
        let seed = stream_seed(args.seed, j);
        let inputs = Inputs::build(workload, seed, &args.daemon, Path::new(SCRATCH))?;
        println!(
            "provenance {workload} {}",
            provenance(args.seed, &stream_sizes(&inputs))
        );
        let t0 = Instant::now();
        let first = passes.len();
        let min = if args.trace {
            1
        } else {
            workloads::min_passes(workload)
        };
        while passes.len() - first < min || (!args.trace && t0.elapsed() < budget) {
            passes.push(run_pass(&inputs, workload, args.trace)?);
        }
        let mine = &passes[first..];
        setups.extend(mine.iter().map(|p| p.setup_s));
        while setups.len() < MIN_SETUPS * (j + 1) / STREAMS_PER_RUN {
            setups.push(workloads::setup_only(&inputs, workload)?);
        }
        problems.extend(
            check_passes(&inputs, workload, mine)
                .into_iter()
                .map(|p| format!("stream {seed}: {p}")),
        );
        quality.add(&stream_quality(&inputs, &mine[0]));
        if args.trace {
            metrics = layer_metrics(&inputs, workload, &mine[0], &mut problems)?;
        }
    }
    let attempted: u64 = passes.iter().map(Pass::attempted).sum();
    let failed: u64 = passes.iter().map(Pass::failed).sum();
    if !args.trace {
        metrics = end_to_end(&passes, &setups, &quality);
    }
    for m in &metrics {
        let tag = match (args.trace, IN_RESULT.contains(&m.name.as_str())) {
            (true, _) => "layer",
            (false, true) => "e2e  ",
            (false, false) => "e2e* ",
        };
        println!(
            "{tag} {workload:<9} {:<40} {:>16.4} {:<8} ({})",
            m.name, m.value, m.unit, m.samples
        );
    }
    let frac = failed as f64 / attempted.max(1) as f64;
    println!("e2e*  {workload:<9} {:<40} {frac:>16.4} ratio    ({failed} failed of {attempted} operations)", "error_frac");
    if !args.trace {
        println!("(e2e* lines are reported for reading but not in the result line: see README)");
        metrics.retain(|m| IN_RESULT.contains(&m.name.as_str()));
    }
    Ok(Outcome {
        metrics,
        problems,
        attempted,
        failed,
    })
}

/// Seed of stream `j` of a run with workload seed `seed`.
fn stream_seed(seed: u64, j: usize) -> u64 {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ j as u64;
    orfpred_util::rng::splitmix64(&mut s)
}

/// Input sizes recorded in a stream's provenance line.
fn stream_sizes(inputs: &Inputs) -> Vec<(&'static str, u64)> {
    let s = &inputs.stream;
    vec![
        ("stream_seed", s.seed),
        ("events", s.events.len() as u64),
        ("samples", s.n_samples() as u64),
        ("disks", s.disks.len() as u64),
        (
            "failed_disks",
            s.disks.iter().filter(|d| d.failed).count() as u64,
        ),
        ("days", u64::from(s.last_day()) + 1),
        ("stream_bytes", inputs.encoded.bytes.len() as u64),
        ("probe_rows", inputs.probes.len() as u64),
        ("checkpoint_cursor", inputs.cut as u64),
        ("store_events", inputs.store_upto as u64),
    ]
}

/// Correctness gate: alarms bit-equal to the serial reference, every sent
/// event applied, no `Error` frames, every score a finite value in [0, 1].
fn check_passes(inputs: &Inputs, workload: &str, passes: &[Pass]) -> Vec<String> {
    let expected = inputs.expected_alarms();
    let base = if workload == "restart" {
        inputs.store_upto as u64
    } else {
        0
    };
    let mut problems = Vec::new();
    for (i, p) in passes.iter().enumerate() {
        let same = p.alarms.len() == expected.len()
            && p.alarms.iter().zip(&expected).all(|(a, b)| {
                a.disk_id == b.disk_id && a.day == b.day && a.score.to_bits() == b.score.to_bits()
            });
        if !same {
            let first = p.alarms.iter().zip(&expected).position(|(a, b)| a != b);
            problems.push(format!(
                "pass {i}: {} alarms, reference has {} (first difference at {first:?})",
                p.alarms.len(),
                expected.len()
            ));
        }
        if p.base_applied != base {
            problems.push(format!(
                "pass {i}: resumed at event {}, expected {base}",
                p.base_applied
            ));
        }
        if p.applied_final != p.applied_expected {
            problems.push(format!(
                "pass {i}: events_applied {} != {} sent (plus barriers)",
                p.applied_final, p.applied_expected
            ));
        }
        if !p.errors.is_empty() {
            problems.push(format!(
                "pass {i}: {} error frames, first: {}",
                p.errors.len(),
                p.errors[0]
            ));
        }
        if p.failed() > 0 {
            problems.push(format!("pass {i}: {} failed operations", p.failed()));
        }
    }
    problems
}

/// Alarm quality over the whole stream. For `restart` the alarms before
/// the checkpoint cursor are the reference's: the checkpoint was cut from
/// that run, and the gate pins the daemon's alarms after it to the same
/// run.
fn stream_quality(inputs: &Inputs, pass: &Pass) -> AlarmQuality {
    let mut alarms: Vec<(u32, u16)> = inputs
        .reference
        .alarms
        .iter()
        .filter(|a| a.event < inputs.cut)
        .map(|a| (a.alarm.disk_id, a.alarm.day))
        .collect();
    alarms.extend(pass.alarms.iter().map(|a| (a.disk_id, a.day)));
    let disks = &inputs.stream.disks;
    let failures: Vec<(u32, u16)> = disks
        .iter()
        .filter(|d| d.failed)
        .map(|d| (d.disk_id, d.last_day))
        .collect();
    let good: Vec<u32> = disks
        .iter()
        .filter(|d| !d.failed)
        .map(|d| d.disk_id)
        .collect();
    let window = input::tenant_config().serve.predictor.window_days as u16;
    AlarmQuality::score(&alarms, &failures, &good, window)
}

fn end_to_end(passes: &[Pass], setups: &[f64], q: &AlarmQuality) -> Vec<Metric> {
    let n = passes.len();
    let per_pass = |f: &dyn Fn(&Pass) -> f64| {
        median(&passes.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
    };
    let pooled = |f: &dyn Fn(&Pass) -> &Vec<f64>| {
        passes
            .iter()
            .flat_map(|p| f(p).iter().copied())
            .collect::<Vec<f64>>()
    };
    let scores = pooled(&|p| &p.score_us);
    let ckpt = pooled(&|p| &p.checkpoint_ms);
    // Lateness: per pass, the highest percentile with ten writes beyond it.
    let late_tails: Vec<f64> = passes
        .iter()
        .filter_map(|p| tail(&p.late_ms).map(|t| t.1))
        .collect();
    let late_q = tail(&passes[0].late_ms).map_or(f64::NAN, |t| t.0);
    let late_each = passes[0].late_ms.len();
    let events = passes[0].events_sent;
    vec![
        Metric::new(
            "ingest_eps",
            "events/s",
            per_pass(&|p| p.events_sent as f64 / p.ingest_s),
            format!("median of {n} passes, ~{events} events each"),
        ),
        Metric::new(
            "setup_s",
            "s",
            median(setups).unwrap_or(f64::NAN),
            format!("median of {} daemon starts", setups.len()),
        ),
        Metric::new(
            "score_p50_us",
            "us",
            quantile(&scores, 0.5).unwrap_or(f64::NAN),
            format!("{} requests", scores.len()),
        ),
        Metric::new(
            "score_p99_us",
            "us",
            quantile(&scores, 0.99).unwrap_or(f64::NAN),
            format!("{} requests", scores.len()),
        ),
        Metric::new(
            "ingest_late_ms",
            "ms",
            median(&late_tails).unwrap_or(f64::NAN),
            format!(
                "median over passes of p{} of ~{late_each} writes",
                late_q * 100.0
            ),
        ),
        Metric::new(
            "checkpoint_p50_ms",
            "ms",
            quantile(&ckpt, 0.5).unwrap_or(f64::NAN),
            format!("{} checkpoints", ckpt.len()),
        ),
        Metric::new(
            "alarm_fdr_pct",
            "%",
            q.fdr_pct(),
            format!("{} of {} failed disks", q.detected, q.failed_disks),
        ),
        Metric::new(
            "alarm_far_pct",
            "%",
            q.far_pct(),
            format!("{} of {} never-failed disks", q.false_alarmed, q.good_disks),
        ),
        Metric::new(
            "rss_peak_mb",
            "MiB",
            per_pass(&|p| p.rss_mb),
            format!("median of {n} daemons"),
        ),
    ]
}

/// Per-layer metrics of a traced run: the daemon's own `Stats` sampled
/// during the pass, then the in-process stage, engine, checkpoint and
/// store runs over the same stream.
fn layer_metrics(
    inputs: &Inputs,
    workload: &str,
    pass: &Pass,
    problems: &mut Vec<String>,
) -> Result<Vec<Metric>, String> {
    let mut m = Vec::new();
    let samples = &pass.samples;
    let ns = samples.len();
    let backlog: Vec<f64> = samples
        .iter()
        .map(|s| s.issued.saturating_sub(s.applied) as f64)
        .collect();
    let max = |xs: &[f64]| xs.iter().copied().fold(0.0, f64::max);
    let sampled = format!("{ns} Stats samples");
    m.push(Metric::new(
        "serve.backlog_events.p50",
        "events",
        median(&backlog).unwrap_or(0.0),
        sampled.clone(),
    ));
    m.push(Metric::new(
        "serve.backlog_events.max",
        "events",
        max(&backlog),
        sampled.clone(),
    ));
    for shard in 0..2 {
        let depth: Vec<f64> = samples
            .iter()
            .map(|s| s.shard_depths.get(shard).copied().unwrap_or(0) as f64)
            .collect();
        m.push(Metric::new(
            format!("serve.shard_queue_depth.{shard}.p50"),
            "events",
            median(&depth).unwrap_or(0.0),
            sampled.clone(),
        ));
        m.push(Metric::new(
            format!("serve.shard_queue_depth.{shard}.max"),
            "events",
            max(&depth),
            sampled.clone(),
        ));
    }
    let end = &pass.final_stats;
    m.push(Metric::new(
        "serve.snapshots_published",
        "count",
        end.snapshots as f64,
        "end of pass",
    ));
    m.push(Metric::new(
        "core.trees_replaced",
        "count",
        end.trees_replaced as f64,
        "end of pass",
    ));
    m.push(Metric::new(
        "serve.score_latency_p50_ns",
        "ns",
        end.score_p50_ns as f64,
        "server histogram, in-stream and request scoring pooled",
    ));
    m.push(Metric::new(
        "serve.score_latency_p99_ns",
        "ns",
        end.score_p99_ns as f64,
        "server histogram, in-stream and request scoring pooled",
    ));

    // Part 2: in-process layers over the same stream.
    let tenant = input::tenant_config();
    let cfg = &tenant.serve;
    let schema = cfg.predictor.domain_schema();
    let probe_rows = input::probe_rows(&inputs.stream, 256, schema.n_features());
    // The untraced serial baseline runs right before the traced replica,
    // so the two see the same host state.
    let online = input::reference(&cfg.predictor, &inputs.stream.events, None);
    let run = stages::stage_run(
        &cfg.predictor,
        &inputs.encoded.bytes,
        schema.n_base_features(),
        cfg.snapshot_every,
        &probe_rows,
    )?;
    let want: Vec<_> = inputs.reference.alarms.iter().map(|a| a.alarm).collect();
    if run.alarms != want {
        problems.push(format!(
            "stage run: {} alarms differ from the reference's {}",
            run.alarms.len(),
            want.len()
        ));
    }
    let wall_ms = run.wall.as_secs_f64() * 1e3;
    for (name, span) in STAGES.iter().zip(&run.spans) {
        let busy_ms = span.busy.as_secs_f64() * 1e3;
        let calls = format!("{} calls", span.count);
        m.push(Metric::new(
            format!("{name}.count"),
            "count",
            span.count as f64,
            "stage run",
        ));
        m.push(Metric::new(
            format!("{name}.busy_ms"),
            "ms",
            busy_ms,
            calls.clone(),
        ));
        m.push(Metric::new(
            format!("{name}.p50_ns"),
            "ns",
            span.quantile_ns(0.5),
            calls.clone(),
        ));
        m.push(Metric::new(
            format!("{name}.p99_ns"),
            "ns",
            span.quantile_ns(0.99),
            calls.clone(),
        ));
        m.push(Metric::new(
            format!("{name}.share_pct"),
            "%",
            100.0 * busy_ms / wall_ms,
            "of stage wall time",
        ));
    }
    m.push(Metric::new(
        "core.labeller.release_ratio",
        "ratio",
        run.released as f64 / run.observed.max(1) as f64,
        format!("{} released / {} observed", run.released, run.observed),
    ));
    let online_eps = inputs.encoded.len() as f64 / online.wall_s;
    let overhead = 100.0 * (run.algorithm2_wall().as_secs_f64() / online.wall_s - 1.0);
    m.push(Metric::new("stage.wall_ms", "ms", wall_ms, "one stage run"));
    m.push(Metric::new(
        "stage.span_cover_pct",
        "%",
        run.cover_pct(),
        "span time / wall time",
    ));
    m.push(Metric::new(
        "stage.trace_overhead_pct",
        "%",
        overhead,
        "traced Algorithm 2 layers vs core.online.eps run",
    ));
    m.push(Metric::new(
        "core.online.eps",
        "events/s",
        online_eps,
        "untraced serial OnlinePredictor::observe",
    ));

    let dir = TempDir::new(inputs.dir.path(), "stage").map_err(|e| e.to_string())?;
    let n = inputs.stream.events.len();
    let at: Vec<usize> = (1..=3).map(|k| k * n / 4).collect();
    let eng = stages::engine_run(cfg, &inputs.stream.events, &at, dir.path())?;
    if eng.alarms != want {
        problems.push(format!(
            "engine run: {} alarms differ from the reference's {}",
            eng.alarms.len(),
            want.len()
        ));
    }
    m.push(Metric::new(
        "serve.engine.eps",
        "events/s",
        eng.events as f64 / eng.wall.as_secs_f64(),
        "in-process Engine, 2 shards",
    ));
    let calls = format!("{} calls", eng.ingest.count);
    m.push(Metric::new(
        "serve.engine.ingest_blocked.busy_ms",
        "ms",
        eng.ingest.busy.as_secs_f64() * 1e3,
        calls.clone(),
    ));
    m.push(Metric::new(
        "serve.engine.ingest_blocked.p50_ns",
        "ns",
        eng.ingest.quantile_ns(0.5),
        calls.clone(),
    ));
    m.push(Metric::new(
        "serve.engine.ingest_blocked.p99_ns",
        "ns",
        eng.ingest.quantile_ns(0.99),
        calls,
    ));
    m.push(Metric::new(
        "serve.engine.flush.busy_ms",
        "ms",
        eng.flush.busy.as_secs_f64() * 1e3,
        format!("{} calls", eng.flush.count),
    ));
    m.push(Metric::new(
        "serve.engine.checkpoint.p50_ms",
        "ms",
        eng.checkpoint.quantile_ns(0.5) / 1e6,
        format!("{} calls", eng.checkpoint.count),
    ));

    let ck = stages::checkpoint_run(cfg, &eng.final_checkpoint, dir.path(), 3)?;
    m.push(Metric::new(
        "serve.checkpoint.save.p50_ms",
        "ms",
        ck.save.quantile_ns(0.5) / 1e6,
        "3 saves",
    ));
    m.push(Metric::new(
        "serve.checkpoint.load.p50_ms",
        "ms",
        ck.load.quantile_ns(0.5) / 1e6,
        "3 loads + Engine::restore",
    ));
    m.push(Metric::new(
        "serve.checkpoint.bytes",
        "bytes",
        ck.bytes as f64,
        "end-of-stream checkpoint",
    ));

    let st = if workload == "restart" {
        stages::store_run(
            &inputs.dir.path().join("store"),
            &schema,
            inputs.cut as u64,
            3,
        )?
    } else {
        stages::StoreRun::default() // no workload but restart touches the store
    };
    let replay_s = st.replay.quantile_ns(0.5) / 1e9;
    m.push(Metric::new(
        "store.open.p50_ms",
        "ms",
        st.open.quantile_ns(0.5) / 1e6,
        format!("{} opens", st.open.count),
    ));
    m.push(Metric::new(
        "store.seek.p50_ms",
        "ms",
        st.seek.quantile_ns(0.5) / 1e6,
        format!("{} seeks", st.seek.count),
    ));
    m.push(Metric::new(
        "store.replay.rows",
        "rows",
        st.rows as f64,
        "catch-up tail",
    ));
    m.push(Metric::new(
        "store.replay.rows_per_s",
        "rows/s",
        if replay_s > 0.0 {
            st.rows as f64 / replay_s
        } else {
            0.0
        },
        format!("{} replays", st.replay.count),
    ));
    Ok(m)
}
