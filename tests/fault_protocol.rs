//! Garbage on the wire: a corpus of malformed, oversized, and interleaved
//! JSON lines pushed through the daemon's primary input (a one-tenant
//! fleet, as `orfpredd` runs without `--tenant`), plus in-place line
//! corruption through the injector hook. Every bad line must yield
//! an error response; none may corrupt state — the daemon's final
//! checkpoint must be byte-identical to a run that never saw the garbage.

use orfpred::core::OnlinePredictorConfig;
use orfpred::fleet::{run, FleetDaemonConfig, TenantConfig, TenantFinished, DEFAULT_TENANT};
use orfpred::serve::Request;
use orfpred_testkit::FaultPlan;
use std::io::Cursor;
use std::sync::Arc;

fn daemon_cfg() -> FleetDaemonConfig {
    let mut p = OnlinePredictorConfig::new(vec![0, 1, 2], 5);
    p.orf.n_trees = 5;
    p.orf.warmup_age = 0;
    p.orf.min_parent_size = 10.0;
    p.orf.lambda_neg = 0.5;
    let mut tenant = TenantConfig::new(DEFAULT_TENANT, p);
    tenant.serve.n_shards = 2;
    FleetDaemonConfig::new(vec![tenant])
}

/// A small valid workload: two disks, 30 days, one failure.
fn clean_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for day in 0..30u16 {
        for disk in 1..=2u32 {
            lines.push(
                Request::Sample {
                    disk_id: disk,
                    day,
                    features: vec![f32::from(day) * disk as f32, 1.0, 0.5],
                }
                .to_line(),
            );
        }
    }
    lines.push(
        Request::Failure {
            disk_id: 2,
            day: 30,
        }
        .to_line(),
    );
    lines
}

/// Lines that must each produce exactly one error response and no state
/// change: unparseable bytes, non-objects, bad types, interleaved JSON
/// documents, oversized garbage.
fn garbage_corpus() -> Vec<String> {
    vec![
        "garbage".into(),
        "{".into(),
        "}{".into(),
        "[1,2,3]".into(),
        "\"just a string\"".into(),
        "{\"type\":\"nope\"}".into(),
        "{\"no_type\":1}".into(),
        "{\"type\":\"sample\"}".into(), // missing required fields
        "{\"type\":\"sample\",\"disk_id\":\"abc\",\"day\":0,\"features\":[]}".into(),
        "{\"type\":\"failure\",\"disk_id\":1}".into(), // missing day
        // Two documents interleaved on one line: trailing content.
        "{\"type\":\"stats\"}{\"type\":\"stats\"}".into(),
        // Oversized garbage line (64 KiB of noise).
        "x".repeat(64 * 1024),
        // Valid JSON, absurd nesting.
        format!("{}1{}", "[".repeat(64), "]".repeat(64)),
    ]
}

fn run_daemon(cfg: &FleetDaemonConfig, lines: &[String]) -> (TenantFinished, Vec<String>) {
    let script = lines.join("\n") + "\n";
    let mut out = Vec::new();
    let mut fins = run(cfg, Cursor::new(script), &mut out).expect("daemon survives");
    let text = String::from_utf8(out).unwrap();
    (fins.remove(0), text.lines().map(str::to_string).collect())
}

#[test]
fn malformed_corpus_yields_errors_and_leaves_state_untouched() {
    let clean = clean_lines();
    let corpus = garbage_corpus();

    // Interleave the garbage throughout the valid stream.
    let mut dirty = Vec::new();
    let mut used = 0;
    for (i, line) in clean.iter().enumerate() {
        if i % 5 == 0 && used < corpus.len() {
            dirty.push(corpus[used].clone());
            used += 1;
        }
        dirty.push(line.clone());
    }
    dirty.extend(corpus[used..].iter().cloned());

    let (clean_fin, clean_out) = run_daemon(&daemon_cfg(), &clean);
    let (dirty_fin, dirty_out) = run_daemon(&daemon_cfg(), &dirty);

    let errors = dirty_out
        .iter()
        .filter(|l| l.contains("\"type\":\"error\""))
        .count();
    assert_eq!(errors, corpus.len(), "one error response per bad line");
    assert!(
        !clean_out.iter().any(|l| l.contains("\"type\":\"error\"")),
        "clean run has no errors"
    );

    // Bit-identical state and alarms: the garbage changed nothing.
    assert_eq!(
        serde_json::to_string(&clean_fin.checkpoint).unwrap(),
        serde_json::to_string(&dirty_fin.checkpoint).unwrap(),
        "garbage lines corrupted the serving state"
    );
    assert_eq!(clean_fin.alarms, dirty_fin.alarms);
}

#[test]
fn injected_line_corruption_fires_through_the_daemon_hook() {
    // Same oracle, but the garbage is injected *in place* by the fault
    // plan's mangle hook: the dirty input carries benign stats probes at
    // known line indices and the injector rewrites them into garbage
    // before parsing.
    let clean = clean_lines();
    let mut dirty = clean.clone();
    // Two stats probes at fixed positions (state-neutral in both runs).
    dirty.insert(10, "{\"type\":\"stats\"}".into());
    dirty.insert(25, "{\"type\":\"stats\"}".into());

    let plan = Arc::new(FaultPlan::new());
    plan.mangle_at(10, "{\"type\":\"sample\",\"day\":true}");
    plan.mangle_at(25, "\u{0}\u{1}binary junk\u{fffd}");
    let mut cfg = daemon_cfg();
    cfg.injector = Arc::clone(&plan) as Arc<dyn orfpred::serve::FaultInjector>;

    let (clean_fin, _) = run_daemon(&daemon_cfg(), &clean);
    let (dirty_fin, dirty_out) = run_daemon(&cfg, &dirty);

    assert!(plan.all_consumed(), "both mangles fired");
    assert_eq!(
        dirty_out
            .iter()
            .filter(|l| l.contains("\"type\":\"error\""))
            .count(),
        2,
        "each mangled line produced an error response"
    );
    assert_eq!(
        serde_json::to_string(&clean_fin.checkpoint).unwrap(),
        serde_json::to_string(&dirty_fin.checkpoint).unwrap()
    );
}

#[test]
fn oversized_feature_rows_are_truncated_not_fatal() {
    // A structurally valid sample with far more than 48 features is
    // accepted (padded/truncated to the canonical layout) and the daemon
    // keeps serving afterwards.
    let mut lines = Vec::new();
    let many: Vec<String> = (0..500).map(|i| format!("{}.0", i % 7)).collect();
    lines.push(format!(
        "{{\"type\":\"sample\",\"disk_id\":1,\"day\":0,\"features\":[{}]}}",
        many.join(",")
    ));
    lines.push("{\"type\":\"stats\"}".into());
    let (_fin, out) = run_daemon(&daemon_cfg(), &lines);
    assert!(
        !out.iter().any(|l| l.contains("\"type\":\"error\"")),
        "oversized row must not error: {out:?}"
    );
    assert!(
        out.iter()
            .any(|l| l.contains("\"type\":\"stats\"") && l.contains("\"samples_ingested\":1")),
        "the sample was ingested and the daemon still answers: {out:?}"
    );
}
