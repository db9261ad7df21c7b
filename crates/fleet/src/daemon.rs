//! The `orfpredd` loop — the only daemon: one primary input, one TCP
//! listener, two wire formats, one or many tenants.
//!
//! Mode negotiation is sniffed per connection (and on the primary input):
//! a stream that opens with the 4-byte magic `ORFB` is a binary session —
//! it must then `Hello` with a wire version, a tenant name, and that
//! tenant's schema fingerprint, and stays bound to that tenant for its
//! lifetime. Anything else is line-JSON, where each request may carry an
//! optional `"tenant"` field (omitted = the fleet's only tenant, so scripts
//! for a one-tenant fleet — `orfpredd` without `--tenant` — never name it).
//!
//! Binary ingest is batched: consecutive `Sample`/`Failure` frames are
//! decoded into a local buffer and pushed under **one** tenant-lock
//! acquisition per [`BATCH_EVENTS`] events, which is where the ≥2×
//! JSON-ingest speedup comes from. Backpressure is unchanged from the
//! single-tenant engine: each tenant's bounded shard queues block the
//! ingesting session when the pipeline falls behind — one firehose tenant
//! stalls its own sessions, not the fleet.
//!
//! Alarms raised by a tenant flow to whichever session addresses that
//! tenant next (JSON lines carry a `"tenant"` tag; binary sessions only
//! ever see their bound tenant's alarms). With
//! [`FleetDaemonConfig::alarms_to_primary`] — how `orfpredd` runs without
//! `--tenant` — TCP JSON sessions never take alarms: they are probes
//! against a daemon busy ingesting, and the primary output carries the
//! whole alarm stream, TCP-ingested samples included. At shutdown every
//! tenant drains
//! and the per-tenant results — full alarm history, final checkpoint,
//! lifetime counters — are returned to the caller.

use crate::engine::{FleetEngine, FleetError, TenantConfig, TenantFinished};
use crate::wire::{read_frame, ClientFrame, ServerFrame, WIRE_MAGIC, WIRE_VERSION};
use orfpred_core::Alarm;
use orfpred_serve::{pad_features, FaultInjector, NoFaults, ProtocolError, Request, Response};
use orfpred_smart::gen::FleetEvent;
use orfpred_smart::record::DiskDay;
use serde::{Serialize, Value};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;

/// How many binary event frames are decoded before the batch is pushed
/// into the tenant's engine under a single lock acquisition.
pub const BATCH_EVENTS: usize = 512;

/// Fleet daemon configuration.
#[derive(Clone, Debug)]
pub struct FleetDaemonConfig {
    /// The tenants to host (at least one).
    pub tenants: Vec<TenantConfig>,
    /// Optional TCP listen address (e.g. `127.0.0.1:7077`); every
    /// connection negotiates its own wire format.
    pub listen: Option<String>,
    /// Fault hooks consulted on the primary input (line mangling, live
    /// reshards, tenant kills). Production uses [`NoFaults`].
    pub injector: Arc<dyn FaultInjector>,
    /// Keep every JSON alarm line on the primary output: TCP JSON sessions
    /// never drain alarms. `false` hands a tenant's alarms to whichever
    /// session addresses it next. Binary sessions always receive their
    /// bound tenant's alarms.
    pub alarms_to_primary: bool,
}

impl FleetDaemonConfig {
    /// A fleet daemon with no listener and no fault injection.
    pub fn new(tenants: Vec<TenantConfig>) -> Self {
        Self {
            tenants,
            listen: None,
            injector: Arc::new(NoFaults),
            alarms_to_primary: false,
        }
    }
}

fn alarm_line(tenant: &str, a: &Alarm) -> String {
    serde_json::value_to_string(&Value::Obj(vec![
        ("type".into(), Value::Str("alarm".into())),
        ("tenant".into(), Value::Str(tenant.into())),
        ("disk_id".into(), Value::Int(i128::from(a.disk_id))),
        ("day".into(), Value::Int(i128::from(a.day))),
        ("score".into(), a.score.ser()),
    ]))
}

fn stats_line(stats: &crate::engine::TenantStats) -> String {
    let mut fields = vec![("type".into(), Value::Str("stats".into()))];
    match stats.ser() {
        Value::Obj(rest) => fields.extend(rest),
        // lint: allow(panic_path, reason="TenantStats is a struct; the derived ser() for structs always yields Value::Obj — anything else is a serde-layer bug worth dying loudly on")
        _ => unreachable!("TenantStats serializes to an object"),
    }
    serde_json::value_to_string(&Value::Obj(fields))
}

/// Drain a tenant's fresh alarms into JSON lines appended to `lines`.
/// Unresolvable tenants are ignored here — the request handler reports
/// the routing error itself.
fn drain_alarm_lines(fleet: &FleetEngine, tenant: Option<&str>, lines: &mut Vec<String>) {
    let Ok(name) = fleet.resolve_tenant(tenant) else {
        return;
    };
    let name = name.to_string();
    if let Ok(alarms) = fleet.take_alarms(Some(&name)) {
        for a in &alarms {
            lines.push(alarm_line(&name, a));
        }
    }
}

fn error_line(message: impl std::fmt::Display) -> String {
    Response::Error {
        message: message.to_string(),
    }
    .to_line()
}

/// Serve one parsed JSON request: its reply line, if it has one (accepted
/// events are not acknowledged).
fn handle_json(
    fleet: &FleetEngine,
    tenant: Option<&str>,
    req: Request,
    allow_shutdown: bool,
) -> Result<Option<String>, FleetError> {
    let ok = |what: String| Some(Response::Ok { what }.to_line());
    Ok(match req {
        Request::Sample {
            disk_id,
            day,
            features,
        } => {
            let (_, n_base, _) = fleet.schema_info(tenant)?;
            let features = pad_features(&features, n_base);
            let rec = DiskDay {
                disk_id,
                day,
                features,
            };
            fleet.ingest(tenant, FleetEvent::Sample(rec))?;
            None
        }
        Request::Failure { disk_id, day } => {
            fleet.ingest(tenant, FleetEvent::Failure { disk_id, day })?;
            None
        }
        Request::Score { features } => {
            let (_, _, n_features) = fleet.schema_info(tenant)?;
            let score = fleet.score(tenant, &pad_features(&features, n_features))?;
            Some(Response::Score { score }.to_line())
        }
        Request::Stats => Some(stats_line(&fleet.stats(tenant)?)),
        Request::Checkpoint { path } => {
            let written = fleet.checkpoint(tenant, path.map(PathBuf::from).as_deref())?;
            ok(format!("checkpoint {}", written.display()))
        }
        Request::Reshard { n_shards } => {
            fleet.reshard(tenant, n_shards)?;
            ok(format!("reshard to {n_shards} shards"))
        }
        Request::Shutdown if allow_shutdown => ok("shutdown".into()),
        Request::Shutdown => return Err(FleetError::Invalid(SHUTDOWN_REFUSED.into())),
    })
}

/// Why a TCP session's `shutdown` is refused.
const SHUTDOWN_REFUSED: &str = "shutdown is only accepted on the primary input";

fn write_lines(out: &mut impl Write, lines: &[String]) -> Result<(), String> {
    for line in lines {
        writeln!(out, "{line}").map_err(|e| format!("write output: {e}"))?;
    }
    out.flush().map_err(|e| format!("flush output: {e}"))
}

/// What the session preamble sniff decided.
enum Mode {
    Json,
    Binary,
    /// The stream opened with `O` but not the full `ORFB` magic.
    GarbledMagic,
}

/// Decide a stream's wire format from its first bytes. A binary session's
/// magic is consumed; a JSON stream is left untouched. JSON requests always
/// open with `{` (or whitespace), so a leading `O` unambiguously announces
/// a binary-intent client.
fn sniff_mode(reader: &mut impl BufRead) -> Result<Mode, String> {
    let buf = reader.fill_buf().map_err(|e| format!("read input: {e}"))?;
    let Some(&first) = buf.first() else {
        return Ok(Mode::Json); // empty stream; JSON loop ends at EOF
    };
    if first != WIRE_MAGIC[0] {
        return Ok(Mode::Json);
    }
    let mut magic = [0u8; 4];
    reader
        .read_exact(&mut magic)
        .map_err(|e| format!("read session magic: {e}"))?;
    if magic == WIRE_MAGIC {
        Ok(Mode::Binary)
    } else {
        Ok(Mode::GarbledMagic)
    }
}

/// Check a binary session's opening frame, which must be a version- and
/// schema-checked `Hello`. Returns the tenant it binds the session to plus
/// that tenant's `(n_base, n_features)`, or the message of the error frame
/// that ends the session.
fn handshake(
    fleet: &FleetEngine,
    first: Result<(u8, Vec<u8>), ProtocolError>,
) -> Result<(String, usize, usize), String> {
    let (op, payload) = first.map_err(|e| e.to_string())?;
    let ClientFrame::Hello {
        version: theirs,
        fingerprint: got,
        tenant,
    } = ClientFrame::decode(op, &payload).map_err(|e| e.to_string())?
    else {
        return Err("binary sessions must open with a hello frame".into());
    };
    let ours = WIRE_VERSION;
    if theirs != ours {
        return Err(ProtocolError::Version { ours, theirs }.to_string());
    }
    let (expected, n_base, n_features) = fleet
        .schema_info(Some(&tenant))
        .map_err(|e| e.to_string())?;
    if got != expected {
        return Err(ProtocolError::SchemaMismatch { expected, got }.to_string());
    }
    Ok((tenant, n_base, n_features))
}

/// Serve a binary session: handshake, then batched frames until EOF or
/// `Shutdown`. Returns whether the peer requested daemon shutdown.
fn serve_binary(
    fleet: &FleetEngine,
    reader: &mut impl BufRead,
    writer: &mut impl Write,
    allow_shutdown: bool,
) -> Result<bool, String> {
    let mut out = Vec::new();
    let send_error = |writer: &mut dyn Write, message: String| -> Result<(), String> {
        let mut buf = Vec::new();
        ServerFrame::Error { message }.encode(&mut buf);
        writer
            .write_all(&buf)
            .and_then(|()| writer.flush())
            .map_err(|e| format!("write output: {e}"))
    };

    let Some(first) = read_frame(reader).transpose() else {
        return Ok(false);
    };
    let (tenant, n_base, n_features) = match handshake(fleet, first) {
        Ok(bound) => bound,
        Err(message) => {
            send_error(writer, message)?;
            return Ok(false);
        }
    };
    ServerFrame::HelloAck {
        version: WIRE_VERSION,
        n_base: n_base.min(u16::MAX as usize) as u16,
        n_features: n_features.min(u16::MAX as usize) as u16,
    }
    .encode(&mut out);
    writer
        .write_all(&out)
        .and_then(|()| writer.flush())
        .map_err(|e| format!("write output: {e}"))?;
    out.clear();

    let mut batch: Vec<FleetEvent> = Vec::with_capacity(BATCH_EVENTS);
    let mut shutdown = false;
    loop {
        let frame = match read_frame(reader) {
            Ok(f) => f,
            Err(e) => {
                // Binary framing cannot re-synchronise after garbage: report
                // and end the session (the daemon itself keeps running).
                send_error(writer, e.to_string())?;
                break;
            }
        };
        let at_eof = frame.is_none();

        // Decode event frames straight into the batch; everything else
        // flushes the batch first so request ordering is preserved.
        let control = match frame {
            Some((op, payload)) => match ClientFrame::decode(op, &payload) {
                Ok(ClientFrame::Sample {
                    disk_id,
                    day,
                    features,
                }) => {
                    batch.push(FleetEvent::Sample(DiskDay {
                        disk_id,
                        day,
                        features: pad_features(&features, n_base),
                    }));
                    if batch.len() < BATCH_EVENTS {
                        continue;
                    }
                    None
                }
                Ok(ClientFrame::Failure { disk_id, day }) => {
                    batch.push(FleetEvent::Failure { disk_id, day });
                    if batch.len() < BATCH_EVENTS {
                        continue;
                    }
                    None
                }
                Ok(other) => Some(other),
                Err(e) => {
                    send_error(writer, e.to_string())?;
                    break;
                }
            },
            None => None, // EOF: flush what's batched, then leave
        };

        if !batch.is_empty() {
            let events = std::mem::take(&mut batch);
            batch = Vec::with_capacity(BATCH_EVENTS);
            if let Err(e) = fleet.ingest_batch(Some(&tenant), events) {
                ServerFrame::Error {
                    message: e.to_string(),
                }
                .encode(&mut out);
            }
        }

        let mut done = at_eof;
        if let Some(req) = control {
            let reply = match req {
                ClientFrame::Hello { .. } => Err(FleetError::Invalid(
                    "session is already bound to a tenant".into(),
                )),
                ClientFrame::Score { features } => fleet
                    .score(Some(&tenant), &pad_features(&features, n_features))
                    .map(|score| ServerFrame::ScoreReply { score }),
                ClientFrame::Stats => fleet.stats(Some(&tenant)).map(|stats| {
                    let json = stats_line(&stats);
                    ServerFrame::StatsReply { json }
                }),
                ClientFrame::Checkpoint { path } => fleet
                    .checkpoint(Some(&tenant), path.map(PathBuf::from).as_deref())
                    .map(|p| {
                        let message = format!("checkpoint {}", p.display());
                        ServerFrame::Ok { message }
                    }),
                ClientFrame::Reshard { n_shards } => {
                    fleet.reshard(Some(&tenant), n_shards as usize).map(|()| {
                        let message = format!("reshard to {n_shards} shards");
                        ServerFrame::Ok { message }
                    })
                }
                ClientFrame::Shutdown if allow_shutdown => {
                    shutdown = true;
                    done = true;
                    fleet.flush(Some(&tenant)).map_err(|e| e.to_string())?;
                    let message = "shutdown".into();
                    Ok(ServerFrame::Ok { message })
                }
                ClientFrame::Shutdown => Err(FleetError::Invalid(SHUTDOWN_REFUSED.into())),
                // Event frames were batched above and never reach here.
                ClientFrame::Sample { .. } | ClientFrame::Failure { .. } => continue,
            };
            let frame = reply.unwrap_or_else(|e| {
                let message = e.to_string();
                ServerFrame::Error { message }
            });
            frame.encode(&mut out);
        }

        // Alarms precede the direct reply, mirroring the JSON loop's order.
        let mut frames = Vec::new();
        if let Ok(alarms) = fleet.take_alarms(Some(&tenant)) {
            for a in alarms {
                ServerFrame::Alarm {
                    disk_id: a.disk_id,
                    day: a.day,
                    score: a.score,
                }
                .encode(&mut frames);
            }
        }
        frames.extend_from_slice(&out);
        out.clear();
        if !frames.is_empty() {
            writer
                .write_all(&frames)
                .and_then(|()| writer.flush())
                .map_err(|e| format!("write output: {e}"))?;
        }
        if done {
            break;
        }
    }
    Ok(shutdown)
}

/// Serve a JSON session (primary input or one TCP connection). Alarms of
/// the addressed tenant precede each reply when `take_alarms` is set.
/// Returns whether the peer requested daemon shutdown.
fn serve_json(
    fleet: &FleetEngine,
    reader: impl BufRead,
    writer: &mut impl Write,
    allow_shutdown: bool,
    take_alarms: bool,
    injector: Option<&Arc<dyn FaultInjector>>,
) -> Result<bool, String> {
    for (line_idx, line) in (0_u64..).zip(reader.lines()) {
        let mut line = line.map_err(|e| format!("read input: {e}"))?;
        let mut lines = Vec::new();
        if let Some(inj) = injector {
            if let Some(mangled) = inj.mangle_line(line_idx, &line) {
                line = mangled;
            }
            // Fleet-level fault hooks: a live reshard or a tenant kill
            // scheduled at this exact stream position (empty name = a
            // one-tenant fleet's only tenant).
            if let Some((t, n)) = inj.reshard_event(line_idx) {
                let target = if t.is_empty() { None } else { Some(t.as_str()) };
                if let Err(e) = fleet.reshard(target, n) {
                    lines.push(error_line(format!("injected reshard: {e}")));
                }
            }
            if let Some(t) = inj.kill_tenant(line_idx) {
                let target = if t.is_empty() { None } else { Some(t.as_str()) };
                if let Err(e) = fleet.kill(target) {
                    lines.push(error_line(format!("injected tenant kill: {e}")));
                }
            }
        }
        if line.trim().is_empty() {
            if !lines.is_empty() {
                write_lines(writer, &lines)?;
            }
            continue;
        }
        let mut shutdown = false;
        match Request::parse_with_tenant(&line) {
            Ok((tenant, req)) => {
                if take_alarms {
                    drain_alarm_lines(fleet, tenant.as_deref(), &mut lines);
                }
                shutdown = allow_shutdown && matches!(req, Request::Shutdown);
                match handle_json(fleet, tenant.as_deref(), req, allow_shutdown) {
                    Ok(reply) => lines.extend(reply),
                    Err(e) => lines.push(error_line(e)),
                }
            }
            Err(e) => lines.push(error_line(e)),
        }
        write_lines(writer, &lines)?;
        if shutdown {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Run the fleet daemon until `shutdown` or end of primary input. Returns
/// per-tenant results (full alarm history, final checkpoint, lifetime
/// counters) in configuration order.
pub fn run(
    cfg: &FleetDaemonConfig,
    mut input: impl BufRead,
    mut output: impl Write,
) -> Result<Vec<TenantFinished>, String> {
    let (fleet, notes) = FleetEngine::start(cfg.tenants.clone())?;
    let fleet = Arc::new(fleet);

    // Catch-up notes (and any alarms the replay raised) go out first, one
    // per tenant with a store, before the daemon reads a single request.
    let mut lines = Vec::new();
    for note in &notes {
        drain_alarm_lines(&fleet, Some(&note.tenant), &mut lines);
        lines.push(
            Response::Ok {
                what: format!(
                    "catch-up tenant `{}`: applied {} events from {} (skipped {})",
                    note.tenant,
                    note.applied,
                    note.store.display(),
                    note.skipped
                ),
            }
            .to_line(),
        );
    }
    if !lines.is_empty() {
        write_lines(&mut output, &lines)?;
    }

    if let Some(addr) = &cfg.listen {
        let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
        let fleet = Arc::clone(&fleet);
        let take_alarms = !cfg.alarms_to_primary;
        std::thread::Builder::new()
            .name("orfpredd-accept".into())
            .spawn(move || accept_loop(&listener, &fleet, take_alarms))
            .map_err(|e| format!("spawn acceptor: {e}"))?;
    }

    match sniff_mode(&mut input)? {
        Mode::Binary => {
            serve_binary(&fleet, &mut input, &mut output, true)?;
        }
        Mode::GarbledMagic => {
            let garbled =
                ProtocolError::Garbled("stream opened with a partial binary magic".into());
            write_lines(&mut output, &[error_line(garbled)])?;
            serve_json(&fleet, input, &mut output, true, true, Some(&cfg.injector))?;
        }
        Mode::Json => {
            serve_json(&fleet, input, &mut output, true, true, Some(&cfg.injector))?;
        }
    }

    // Drain every tenant before the engines shut down, then finish.
    let mut lines = Vec::new();
    for name in fleet.tenant_names() {
        if fleet.flush(Some(&name)).is_ok() {
            drain_alarm_lines(&fleet, Some(&name), &mut lines);
        }
    }
    write_lines(&mut output, &lines)?;
    fleet.finish()
}

/// Accept TCP connections, each served on its own thread in whichever wire
/// format it opens with. Connections cannot shut the daemon down;
/// `take_alarms` decides whether their JSON sessions drain alarms.
fn accept_loop(listener: &TcpListener, fleet: &Arc<FleetEngine>, take_alarms: bool) {
    for conn in listener.incoming() {
        let Ok(stream) = conn else { return };
        let fleet = Arc::clone(fleet);
        let _ = std::thread::Builder::new()
            .name("orfpredd-conn".into())
            .spawn(move || {
                let mut reader = BufReader::new(match stream.try_clone() {
                    Ok(s) => s,
                    Err(_) => return,
                });
                let mut writer = stream;
                match sniff_mode(&mut reader) {
                    Ok(Mode::Binary) => {
                        let _ = serve_binary(&fleet, &mut reader, &mut writer, false);
                    }
                    Ok(Mode::Json) => {
                        let _ = serve_json(&fleet, reader, &mut writer, false, take_alarms, None);
                    }
                    Ok(Mode::GarbledMagic) | Err(_) => {}
                }
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orfpred_core::OnlinePredictorConfig;
    use orfpred_serve::Checkpoint;
    use std::io::Cursor;

    fn predictor(seed: u64) -> OnlinePredictorConfig {
        let mut p = OnlinePredictorConfig::new(vec![0, 1], seed);
        p.orf.n_trees = 3;
        p.orf.warmup_age = 0;
        p.orf.min_parent_size = 10.0;
        p.orf.lambda_neg = 0.5;
        p
    }

    fn two_tenant_cfg() -> FleetDaemonConfig {
        FleetDaemonConfig::new(vec![
            TenantConfig::new("sta", predictor(5)),
            TenantConfig::new("stb", predictor(6)),
        ])
    }

    fn run_script(cfg: &FleetDaemonConfig, script: &str) -> (Vec<TenantFinished>, Vec<String>) {
        let mut out = Vec::new();
        let fins = run(cfg, Cursor::new(script.to_string()), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        (fins, text.lines().map(str::to_string).collect())
    }

    #[test]
    fn json_requests_route_by_tenant_field() {
        let mut script = String::new();
        for day in 0..20 {
            script.push_str(&format!(
                "{{\"type\":\"sample\",\"tenant\":\"sta\",\"disk_id\":1,\"day\":{day},\"features\":[{day},1.0]}}\n"
            ));
        }
        script.push_str("{\"type\":\"failure\",\"tenant\":\"sta\",\"disk_id\":1,\"day\":20}\n");
        script.push_str("{\"type\":\"stats\",\"tenant\":\"sta\"}\n");
        script.push_str("{\"type\":\"stats\",\"tenant\":\"stb\"}\n");
        script.push_str("{\"type\":\"score\",\"tenant\":\"stb\",\"features\":[1.0,1.0]}\n");
        script.push_str("{\"type\":\"stats\",\"tenant\":\"nope\"}\n");
        script.push_str("{\"type\":\"stats\"}\n"); // ambiguous in a 2-tenant fleet
        script.push_str("{\"type\":\"shutdown\"}\n");

        let (fins, lines) = run_script(&two_tenant_cfg(), &script);
        assert_eq!(fins.len(), 2);
        assert!(lines
            .iter()
            .any(|l| l.contains("\"tenant\":\"sta\"") && l.contains("\"events\":21")));
        assert!(lines
            .iter()
            .any(|l| l.contains("\"tenant\":\"stb\"") && l.contains("\"events\":0")));
        assert!(lines.iter().any(|l| l.contains("\"type\":\"score\"")));
        assert!(lines.iter().any(|l| l.contains("unknown tenant `nope`")));
        assert!(
            lines.iter().any(|l| l.contains("explicit tenant")),
            "tenant-less request in a multi-tenant fleet errors: {lines:?}"
        );
        let sta = fins.iter().find(|f| f.tenant == "sta").unwrap();
        assert_eq!(sta.counters.events, 21);
    }

    #[test]
    fn json_reshard_request_is_served_live() {
        let mut script = String::new();
        for day in 0..10 {
            script.push_str(&format!(
                "{{\"type\":\"sample\",\"tenant\":\"sta\",\"disk_id\":1,\"day\":{day},\"features\":[{day},1.0]}}\n"
            ));
        }
        script.push_str("{\"type\":\"reshard\",\"tenant\":\"sta\",\"n_shards\":3}\n");
        for day in 10..20 {
            script.push_str(&format!(
                "{{\"type\":\"sample\",\"tenant\":\"sta\",\"disk_id\":1,\"day\":{day},\"features\":[{day},1.0]}}\n"
            ));
        }
        script.push_str("{\"type\":\"stats\",\"tenant\":\"sta\"}\n");
        script.push_str("{\"type\":\"shutdown\"}\n");
        let (fins, lines) = run_script(&two_tenant_cfg(), &script);
        assert!(lines.iter().any(|l| l.contains("reshard to 3 shards")));
        assert!(lines
            .iter()
            .any(|l| l.contains("\"n_shards\":3") && l.contains("\"reshards\":1")));
        let sta = fins.iter().find(|f| f.tenant == "sta").unwrap();
        assert_eq!(sta.counters.events, 20, "events counted across the reshard");
        assert_eq!(sta.counters.reshards, 1);
    }

    #[test]
    fn binary_session_handshakes_and_ingests() {
        let cfg = FleetDaemonConfig::new(vec![TenantConfig::new("solo", predictor(7))]);
        let fingerprint = cfg.tenants[0].serve.predictor.domain_schema().fingerprint();

        let mut input = Vec::new();
        input.extend_from_slice(&WIRE_MAGIC);
        ClientFrame::Hello {
            version: WIRE_VERSION,
            fingerprint,
            tenant: "solo".into(),
        }
        .encode(&mut input);
        for day in 0..30u16 {
            ClientFrame::Sample {
                disk_id: 1,
                day,
                features: vec![f32::from(day), 1.0],
            }
            .encode(&mut input);
        }
        ClientFrame::Failure {
            disk_id: 1,
            day: 30,
        }
        .encode(&mut input);
        ClientFrame::Stats.encode(&mut input);
        ClientFrame::Shutdown.encode(&mut input);

        let mut out = Vec::new();
        let fins = run(&cfg, Cursor::new(input), &mut out).unwrap();
        let mut cursor = &out[..];
        let (op, payload) = read_frame(&mut cursor).unwrap().unwrap();
        assert!(matches!(
            ServerFrame::decode(op, &payload).unwrap(),
            ServerFrame::HelloAck {
                version: WIRE_VERSION,
                ..
            }
        ));
        let mut saw_stats = false;
        let mut saw_ok = false;
        while let Some((op, payload)) = read_frame(&mut cursor).unwrap() {
            match ServerFrame::decode(op, &payload).unwrap() {
                ServerFrame::StatsReply { json } => {
                    assert!(json.contains("\"events\":31"), "got: {json}");
                    saw_stats = true;
                }
                ServerFrame::Ok { message } => {
                    assert_eq!(message, "shutdown");
                    saw_ok = true;
                }
                ServerFrame::Alarm { .. } => {}
                other => panic!("unexpected frame: {other:?}"),
            }
        }
        assert!(saw_stats && saw_ok);
        assert_eq!(fins[0].counters.events, 31);
    }

    #[test]
    fn binary_handshake_rejects_bad_version_schema_and_tenant() {
        let cfg = FleetDaemonConfig::new(vec![TenantConfig::new("solo", predictor(7))]);
        let fingerprint = cfg.tenants[0].serve.predictor.domain_schema().fingerprint();

        let attempts: Vec<(ClientFrame, &str)> = vec![
            (
                ClientFrame::Hello {
                    version: WIRE_VERSION + 1,
                    fingerprint,
                    tenant: "solo".into(),
                },
                "wire version mismatch",
            ),
            (
                ClientFrame::Hello {
                    version: WIRE_VERSION,
                    fingerprint: fingerprint ^ 1,
                    tenant: "solo".into(),
                },
                "schema fingerprint mismatch",
            ),
            (
                ClientFrame::Hello {
                    version: WIRE_VERSION,
                    fingerprint,
                    tenant: "ghost".into(),
                },
                "unknown tenant",
            ),
        ];
        for (hello, expect) in attempts {
            let mut input = Vec::new();
            input.extend_from_slice(&WIRE_MAGIC);
            hello.encode(&mut input);
            let mut out = Vec::new();
            run(&cfg, Cursor::new(input), &mut out).unwrap();
            let mut cursor = &out[..];
            let (op, payload) = read_frame(&mut cursor).unwrap().unwrap();
            let ServerFrame::Error { message } = ServerFrame::decode(op, &payload).unwrap() else {
                panic!("expected an error frame");
            };
            assert!(message.contains(expect), "got: {message}");
        }
    }

    #[test]
    fn injected_reshard_and_tenant_kill_fire_from_the_plan_hooks() {
        #[derive(Debug)]
        struct Hooks;
        impl FaultInjector for Hooks {
            fn reshard_event(&self, idx: u64) -> Option<(String, usize)> {
                (idx == 3).then(|| ("sta".to_string(), 2))
            }
            fn kill_tenant(&self, idx: u64) -> Option<String> {
                (idx == 6).then(|| "stb".to_string())
            }
        }
        let mut cfg = two_tenant_cfg();
        cfg.injector = Arc::new(Hooks);
        let mut script = String::new();
        for day in 0..8 {
            script.push_str(&format!(
                "{{\"type\":\"sample\",\"tenant\":\"sta\",\"disk_id\":1,\"day\":{day},\"features\":[{day},1.0]}}\n"
            ));
        }
        script.push_str("{\"type\":\"stats\",\"tenant\":\"sta\"}\n");
        script.push_str("{\"type\":\"stats\",\"tenant\":\"stb\"}\n");
        script.push_str("{\"type\":\"shutdown\"}\n");
        let (fins, lines) = run_script(&cfg, &script);
        assert!(lines
            .iter()
            .any(|l| l.contains("\"tenant\":\"sta\"") && l.contains("\"reshards\":1")));
        assert!(
            lines
                .iter()
                .any(|l| l.contains("tenant `stb` is shut down")),
            "killed tenant rejects requests: {lines:?}"
        );
        // The killed tenant was skipped by finish(): only sta reports back.
        assert_eq!(fins.len(), 1);
        assert_eq!(fins[0].tenant, "sta");
        assert_eq!(fins[0].counters.events, 8);
    }

    /// A one-tenant fleet, as `orfpredd` builds it without `--tenant`.
    fn solo_cfg() -> FleetDaemonConfig {
        let mut tenant = TenantConfig::new(crate::DEFAULT_TENANT, predictor(5));
        tenant.serve.n_shards = 2;
        let mut cfg = FleetDaemonConfig::new(vec![tenant]);
        cfg.alarms_to_primary = true;
        cfg
    }

    /// A primary input that blocks on a channel, so a daemon under test
    /// stays alive until the test sends `shutdown`.
    struct ChanRead(std::sync::mpsc::Receiver<String>, Vec<u8>);

    impl std::io::Read for ChanRead {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            while self.1.is_empty() {
                match self.0.recv() {
                    Ok(s) => self.1.extend_from_slice(s.as_bytes()),
                    Err(_) => return Ok(0),
                }
            }
            let n = buf.len().min(self.1.len());
            buf[..n].copy_from_slice(&self.1[..n]);
            self.1.drain(..n);
            Ok(n)
        }
    }

    /// Pick a free loopback address for `cfg.listen`.
    fn free_addr() -> String {
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        probe.local_addr().unwrap().to_string()
    }

    /// Connect to a daemon listener, waiting for it to come up.
    fn connect(addr: &str) -> std::net::TcpStream {
        for _ in 0..100 {
            match std::net::TcpStream::connect(addr) {
                Ok(c) => return c,
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
            }
        }
        panic!("daemon listener at {addr} never came up");
    }

    /// Send one JSON request on a TCP session and read its single reply.
    fn probe(conn: &mut std::net::TcpStream, reader: &mut impl BufRead, req: &str) -> String {
        writeln!(conn, "{req}").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line
    }

    fn sample_line(disk_id: u32, day: u16, features: [f32; 2]) -> String {
        Request::Sample {
            disk_id,
            day,
            features: features.to_vec(),
        }
        .to_line()
            + "\n"
    }

    fn tmp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("orfpred_fleet_daemon_{tag}_{}", std::process::id()))
    }

    #[test]
    fn alarm_response_shape_is_stable() {
        let line = alarm_line(
            crate::DEFAULT_TENANT,
            &Alarm {
                disk_id: 1,
                day: 2,
                score: 0.5,
            },
        );
        assert_eq!(
            line,
            "{\"type\":\"alarm\",\"tenant\":\"default\",\"disk_id\":1,\"day\":2,\"score\":0.5}"
        );
    }

    #[test]
    fn tenantless_script_drives_the_full_protocol() {
        let ckpt = tmp_path("explicit_ckpt.json");
        let mut script = String::new();
        for day in 0..20 {
            script.push_str(&sample_line(1, day, [f32::from(day), 1.0]));
        }
        script.push_str("{\"type\":\"failure\",\"disk_id\":1,\"day\":20}\n");
        script.push_str("{\"type\":\"score\",\"features\":[5.0,1.0]}\n");
        script.push_str("{\"type\":\"stats\"}\n");
        script.push_str(&format!(
            "{{\"type\":\"checkpoint\",\"path\":\"{}\"}}\n",
            ckpt.display()
        ));
        script.push_str("{\"type\":\"shutdown\"}\n");

        let (fins, lines) = run_script(&solo_cfg(), &script);
        assert!(lines.iter().any(|l| l.contains("\"type\":\"score\"")));
        assert!(lines.iter().any(|l| l.contains("\"type\":\"stats\"")
            && l.contains("\"tenant\":\"default\"")
            && l.contains("\"samples_ingested\":20")));
        assert!(lines
            .iter()
            .any(|l| l.contains("\"type\":\"ok\"") && l.contains("checkpoint")));
        assert!(lines
            .last()
            .is_some_and(|l| l.contains("\"what\":\"shutdown\"")));
        let Checkpoint::Online { labeller, .. } = Checkpoint::load(&ckpt).unwrap();
        assert_eq!(
            labeller.unwrap().n_pending(),
            0,
            "failure flushed the queue before the checkpoint"
        );
        let Checkpoint::Online { forest, .. } = &fins[0].checkpoint;
        assert!(forest.samples_seen() > 0);
        std::fs::remove_file(&ckpt).ok();
    }

    #[test]
    fn eof_writes_the_default_checkpoint_and_the_next_run_restores_it() {
        let path = tmp_path("restart.json");
        std::fs::remove_file(&path).ok();
        let mut cfg = solo_cfg();
        cfg.tenants[0].checkpoint_path = Some(path.clone());

        let mut first = String::new();
        for day in 0..10 {
            first.push_str(&sample_line(2, day, [1.0, f32::from(day)]));
        }
        run_script(&cfg, &first); // EOF shutdown writes the default checkpoint
        assert!(path.exists());

        // Second run restores: the disk's queue still holds the last 7 days.
        let (fins, _) = run_script(&cfg, "{\"type\":\"stats\"}\n{\"type\":\"shutdown\"}\n");
        let Checkpoint::Online {
            labeller, next_seq, ..
        } = &fins[0].checkpoint;
        assert_eq!(labeller.as_ref().unwrap().n_pending(), 7);
        assert!(next_seq.unwrap() > 10, "sequence numbers continued");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn store_catch_up_replays_only_the_missed_tail() {
        use orfpred_smart::gen::{FleetConfig, ScalePreset};

        let base = tmp_path("catchup");
        std::fs::remove_dir_all(&base).ok();
        std::fs::create_dir_all(&base).unwrap();
        let store_dir = base.join("store");

        let mut fleet = FleetConfig::sta(ScalePreset::Tiny, 7);
        fleet.n_good = 6;
        fleet.n_failed = 2;
        fleet.duration_days = 60;
        let meta = orfpred_store::record_fleet(
            &store_dir,
            &fleet,
            orfpred_store::StoreConfig {
                segment_rows: 64,
                ..Default::default()
            },
        )
        .unwrap();
        let total = orfpred_store::Store::open(&store_dir)
            .unwrap()
            .events()
            .count() as u64;
        assert!(total > meta.total_rows, "failures add events beyond rows");

        let mut cfg = solo_cfg();
        cfg.tenants[0].checkpoint_path = Some(base.join("ck.json"));
        cfg.tenants[0].catchup_store = Some(store_dir);

        // First run: fresh engine, the whole store is the tail.
        let (fins, lines) = run_script(&cfg, "{\"type\":\"shutdown\"}\n");
        assert!(
            lines
                .iter()
                .any(|l| l.contains(&format!("applied {total} events")) && l.contains("skipped 0")),
            "catch-up note missing: {lines:?}"
        );
        let Checkpoint::Online {
            events_ingested, ..
        } = &fins[0].checkpoint;
        assert_eq!(*events_ingested, Some(total));

        // Second run restores the checkpoint: the cursor covers the whole
        // store, so catch-up applies nothing.
        let (_, lines) = run_script(&cfg, "{\"type\":\"shutdown\"}\n");
        assert!(
            lines
                .iter()
                .any(|l| l.contains("applied 0 events") && l.contains(&format!("skipped {total}"))),
            "tail-only catch-up missing: {lines:?}"
        );
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn tcp_json_probes_answer_score_and_stats_and_cannot_shut_down() {
        let mut cfg = solo_cfg();
        let addr = free_addr();
        cfg.listen = Some(addr.clone());
        let (input_tx, input_rx) = std::sync::mpsc::sync_channel::<String>(16);
        let daemon = std::thread::spawn(move || {
            let input = BufReader::new(ChanRead(input_rx, Vec::new()));
            run(&cfg, input, Vec::new()).is_ok()
        });

        let mut conn = connect(&addr);
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let score = probe(
            &mut conn,
            &mut reader,
            "{\"type\":\"score\",\"features\":[0.0,0.0]}",
        );
        assert!(score.contains("\"type\":\"score\""), "got: {score}");
        let stats = probe(&mut conn, &mut reader, "{\"type\":\"stats\"}");
        assert!(stats.contains("\"type\":\"stats\""), "got: {stats}");
        let refused = probe(&mut conn, &mut reader, "{\"type\":\"shutdown\"}");
        assert!(
            refused.contains("primary input"),
            "TCP shutdown must be refused: {refused}"
        );
        drop(reader);

        input_tx.send("{\"type\":\"shutdown\"}\n".into()).unwrap();
        drop(input_tx);
        assert!(daemon.join().unwrap(), "daemon exited cleanly");
    }

    #[test]
    fn tcp_probes_leave_every_alarm_on_the_primary_output() {
        /// Output shared with the test thread.
        #[derive(Clone, Default)]
        struct SharedOut(Arc<parking_lot::Mutex<Vec<u8>>>);
        impl Write for SharedOut {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        // Threshold 0 makes every ingested sample raise an alarm.
        let mut cfg = solo_cfg();
        cfg.tenants[0].serve.predictor.alarm_threshold = 0.0;
        let addr = free_addr();
        cfg.listen = Some(addr.clone());
        let out = SharedOut::default();
        let (input_tx, input_rx) = std::sync::mpsc::sync_channel::<String>(64);
        let daemon = {
            let out = out.clone();
            std::thread::spawn(move || {
                let input = BufReader::new(ChanRead(input_rx, Vec::new()));
                run(&cfg, input, out).unwrap()
            })
        };

        // Stdin ingests; TCP probes stats until the writer has applied
        // (and alarmed on) every sample, then scores once more.
        let n_samples = 40u64;
        for day in 0..n_samples as u16 {
            input_tx
                .send(sample_line(u32::from(day % 4), day, [f32::from(day), 1.0]))
                .unwrap();
        }
        let mut conn = connect(&addr);
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut replies = Vec::new();
        let done = format!("\"alarms_raised\":{n_samples},");
        for _ in 0..500 {
            let stats = probe(&mut conn, &mut reader, "{\"type\":\"stats\"}");
            let finished = stats.contains(&done);
            replies.push(stats);
            if finished {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert!(
            replies.last().is_some_and(|l| l.contains(&done)),
            "writer never applied the samples: {replies:?}"
        );
        replies.push(probe(
            &mut conn,
            &mut reader,
            "{\"type\":\"score\",\"features\":[1.0,1.0]}",
        ));
        assert!(
            replies.iter().all(|l| !l.contains("\"type\":\"alarm\"")),
            "a TCP probe took alarms: {replies:?}"
        );
        drop(reader);

        input_tx.send("{\"type\":\"shutdown\"}\n".into()).unwrap();
        drop(input_tx);
        let fins = daemon.join().unwrap();
        assert_eq!(fins[0].alarms.len() as u64, n_samples);
        let text = String::from_utf8(out.0.lock().clone()).unwrap();
        let on_stdout: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("\"type\":\"alarm\""))
            .collect();
        let expected: Vec<String> = fins[0]
            .alarms
            .iter()
            .map(|a| alarm_line(crate::DEFAULT_TENANT, a))
            .collect();
        assert_eq!(
            on_stdout, expected,
            "every alarm reaches the primary output"
        );
    }

    #[test]
    fn malformed_lines_and_partial_magic_do_not_kill_the_daemon() {
        let cfg = FleetDaemonConfig::new(vec![TenantConfig::new("solo", predictor(7))]);
        let script = "garbage\n{\"type\":\"stats\"}\n{\"type\":\"shutdown\"}\n";
        let (_, lines) = run_script(&cfg, script);
        assert!(lines.iter().any(|l| l.contains("\"type\":\"error\"")));
        assert!(lines.iter().any(|l| l.contains("\"type\":\"stats\"")));
    }
}
