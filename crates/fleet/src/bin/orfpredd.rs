//! `orfpredd` — the ORF serving daemon.
//!
//! Every run is a fleet daemon (`orfpred_fleet::run`): each tenant is an
//! independent engine (own domain schema, shard count, checkpoint lineage,
//! store catch-up cursor), JSON requests route by their `"tenant"` field,
//! and connections — stdin included — may open a compact binary session
//! instead by leading with the `ORFB` magic. Tenants can be live-resharded
//! without restart via `reshard` requests.
//!
//! One or more `--tenant` flags name the tenants. Without them the
//! single-tenant flags build one tenant named `default`, and requests
//! need not name it (see `README.md`, "Serving").
//!
//! ```text
//! orfpredd [--shards N] [--listen ADDR] [--checkpoint PATH]
//!          [--store DIR] [--threshold T] [--window W] [--seed S]
//!          [--trees K] [--queue-capacity Q] [--snapshot-every M]
//!          [--tenant SPEC]...
//! ```

use orfpred_core::OnlinePredictorConfig;
use orfpred_fleet::{
    parse_tenant_spec, FleetDaemonConfig, TenantConfig, TenantFinished, DEFAULT_TENANT,
};
use orfpred_serve::ServeConfig;
use orfpred_smart::attrs::table2_feature_columns;
use std::io::Write;
use std::path::PathBuf;

const USAGE: &str = "\
orfpredd — sharded online disk-failure-prediction daemon

Serves line-JSON requests on stdin/stdout (and --listen); any connection,
stdin included, may open a binary session by leading with the ORFB magic.
Without --tenant flags the single-tenant options below build one tenant
named `default`, and requests need not name it.

USAGE:
    orfpredd [OPTIONS]

SINGLE-TENANT OPTIONS:
    --shards N           labelling shard threads (default 4)
    --checkpoint PATH    restore from PATH if it exists; checkpoint to it
                         on shutdown and on path-less checkpoint requests
    --store DIR          replay the telemetry store at DIR before going
                         live, skipping events the restored checkpoint
                         already covers; a store recorded under another
                         domain schema is refused
    --threshold T        alarm threshold (default 0.5)
    --window W           labelling window W in days (default 7)
    --seed S             forest RNG seed (default 42)
    --trees K            number of trees (default from OrfConfig)
    --queue-capacity Q   per-shard bounded queue capacity (default 1024)
    --snapshot-every M   publish a scoring snapshot every M samples
                         (default 256)

FLEET OPTIONS:
    --tenant SPEC        host a tenant; repeatable. SPEC is
                         name[,key=value]... with keys domain (smart|
                         smart-windowed|mce), shards, threshold, window,
                         seed, trees, queue, snapshot, store, checkpoint,
                         cols=i:j:k. With --tenant flags the single-tenant
                         options above are ignored and requests route by
                         their \"tenant\" field.

SHARED OPTIONS:
    --listen ADDR        also serve the protocol on this TCP address
    -h, --help           print this help
";

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    value
        .ok_or_else(|| format!("{flag} needs a value"))?
        .parse()
        .map_err(|_| format!("{flag}: invalid value"))
}

fn build_config(mut argv: impl Iterator<Item = String>) -> Result<FleetDaemonConfig, String> {
    let mut predictor = OnlinePredictorConfig::new(table2_feature_columns(), 42);
    let mut serve = ServeConfig::new(predictor.clone());
    let mut listen = None;
    let mut checkpoint_path = None;
    let mut catchup_store = None;
    let mut tenants = Vec::new();

    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--shards" => serve.n_shards = parse("--shards", argv.next())?,
            "--listen" => listen = Some(argv.next().ok_or("--listen needs a value")?),
            "--checkpoint" => {
                checkpoint_path = Some(PathBuf::from(
                    argv.next().ok_or("--checkpoint needs a value")?,
                ));
            }
            "--store" => {
                catchup_store = Some(PathBuf::from(argv.next().ok_or("--store needs a value")?));
            }
            "--threshold" => predictor.alarm_threshold = parse("--threshold", argv.next())?,
            "--window" => predictor.window_days = parse("--window", argv.next())?,
            "--seed" => predictor.seed = parse("--seed", argv.next())?,
            "--trees" => predictor.orf.n_trees = parse("--trees", argv.next())?,
            "--queue-capacity" => {
                serve.queue_capacity = parse("--queue-capacity", argv.next())?;
            }
            "--snapshot-every" => {
                serve.snapshot_every = parse("--snapshot-every", argv.next())?;
            }
            "--tenant" => {
                let spec = argv.next().ok_or("--tenant needs a value")?;
                tenants.push(parse_tenant_spec(&spec)?);
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`\n\n{USAGE}")),
        }
    }

    // Without --tenant, TCP connections are probes and stdout carries
    // every alarm.
    let alarms_to_primary = tenants.is_empty();
    if alarms_to_primary {
        if serve.n_shards == 0 {
            return Err("--shards must be at least 1".into());
        }
        serve.predictor = predictor;
        tenants.push(TenantConfig {
            name: DEFAULT_TENANT.into(),
            serve,
            checkpoint_path,
            catchup_store,
        });
    }
    let mut cfg = FleetDaemonConfig::new(tenants);
    cfg.listen = listen;
    cfg.alarms_to_primary = alarms_to_primary;
    Ok(cfg)
}

/// The per-tenant shutdown report written to stderr (one line per tenant).
fn fleet_summary(fins: &[TenantFinished]) -> String {
    let mut out = String::from("orfpredd: clean shutdown\n");
    for f in fins {
        out.push_str(&format!(
            "orfpredd: tenant `{}`: {} events, {} alarms, {} drift events, {} rebuilds, {} reshards\n",
            f.tenant,
            f.counters.events,
            f.counters.alarms,
            f.counters.drift_events,
            f.counters.model_rebuilds,
            f.counters.reshards,
        ));
    }
    out
}

fn main() {
    // lint: allow(nondeterminism, reason="argv is the program's input, read once at startup; nothing downstream branches on ambient state")
    let cfg = match build_config(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("orfpredd: {e}");
            std::process::exit(2);
        }
    };
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    match orfpred_fleet::run(&cfg, stdin.lock(), stdout.lock()) {
        Ok(fins) => {
            let _ = write!(std::io::stderr(), "{}", fleet_summary(&fins));
        }
        Err(e) => {
            eprintln!("orfpredd: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> impl Iterator<Item = String> {
        list.iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    /// The single tenant `cfg` hosts; panics when it hosts several.
    fn only_tenant(cfg: &FleetDaemonConfig) -> &TenantConfig {
        let [only] = cfg.tenants.as_slice() else {
            panic!("expected exactly one tenant, got {}", cfg.tenants.len());
        };
        only
    }

    #[test]
    fn defaults_and_overrides_parse() {
        let cfg = build_config(args(&[])).unwrap();
        let t = only_tenant(&cfg);
        assert_eq!(t.name, DEFAULT_TENANT);
        assert!(cfg.listen.is_none());
        assert!(t.checkpoint_path.is_none() && t.catchup_store.is_none());
        // The implicit tenant runs exactly the engine a bare `orfpredd`
        // always ran: the Table-2 SMART predictor, seed 42, stock serving
        // knobs.
        let stock = ServeConfig::new(OnlinePredictorConfig::new(table2_feature_columns(), 42));
        assert_eq!(format!("{:?}", t.serve), format!("{stock:?}"));

        let cfg = build_config(args(&[
            "--shards",
            "8",
            "--threshold",
            "0.7",
            "--window",
            "5",
            "--seed",
            "9",
            "--trees",
            "12",
            "--queue-capacity",
            "64",
            "--snapshot-every",
            "32",
            "--checkpoint",
            "/tmp/ck.json",
            "--store",
            "/data/store",
            "--listen",
            "127.0.0.1:7077",
        ]))
        .unwrap();
        let t = only_tenant(&cfg);
        let mut predictor = OnlinePredictorConfig::new(table2_feature_columns(), 9);
        predictor.alarm_threshold = 0.7;
        predictor.window_days = 5;
        predictor.orf.n_trees = 12;
        let mut serve = ServeConfig::new(predictor);
        serve.n_shards = 8;
        serve.queue_capacity = 64;
        serve.snapshot_every = 32;
        assert_eq!(format!("{:?}", t.serve), format!("{serve:?}"));
        assert_eq!(t.checkpoint_path, Some(PathBuf::from("/tmp/ck.json")));
        assert_eq!(t.catchup_store, Some(PathBuf::from("/data/store")));
        assert_eq!(cfg.listen.as_deref(), Some("127.0.0.1:7077"));
    }

    #[test]
    fn tenant_flags_select_the_named_tenants() {
        let cfg = build_config(args(&[
            "--tenant",
            "sta,shards=2",
            "--tenant",
            "mce0,domain=mce",
            "--shards",
            "0",
            "--listen",
            "127.0.0.1:7078",
        ]))
        .unwrap();
        assert_eq!(cfg.tenants.len(), 2, "no implicit tenant beside named ones");
        assert_eq!(cfg.tenants[0].name, "sta");
        assert_eq!(cfg.tenants[0].serve.n_shards, 2);
        assert_eq!(cfg.tenants[1].name, "mce0");
        assert_eq!(cfg.listen.as_deref(), Some("127.0.0.1:7078"));
    }

    #[test]
    fn bad_arguments_are_rejected() {
        assert!(build_config(args(&["--shards"])).is_err());
        assert!(build_config(args(&["--shards", "zero"])).is_err());
        assert!(build_config(args(&["--shards", "0"])).is_err());
        assert!(build_config(args(&["--frobnicate"])).is_err());
        assert!(build_config(args(&["--tenant", "t,domain=lustre"])).is_err());
        assert!(build_config(args(&["--tenant"])).is_err());
    }

    #[test]
    fn tenantless_store_recorded_under_another_domain_is_refused() {
        use orfpred_smart::gen::{MceFleetConfig, MceSim, ScalePreset};
        use orfpred_smart::DomainSchema;

        let dir = std::env::temp_dir().join(format!("orfpredd_mce_store_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut mce = MceFleetConfig::preset(ScalePreset::Tiny, 3);
        mce.n_good = 4;
        mce.n_failed = 1;
        mce.duration_days = 90;
        orfpred_store::record_dataset(
            &dir,
            &MceSim::collect(&mce),
            orfpred_store::StoreConfig {
                schema: DomainSchema::mce(),
                ..Default::default()
            },
        )
        .unwrap();

        // A bare `orfpredd --store DIR` serves the SMART domain, so the mce
        // store's narrower rows must never reach the engine: startup refuses.
        let store = dir.to_str().unwrap();
        let cfg = build_config(args(&["--shards", "1", "--trees", "2", "--store", store])).unwrap();
        let err = orfpred_fleet::run(&cfg, std::io::Cursor::new(""), Vec::new())
            .err()
            .expect("an mce store must not feed a SMART tenant");
        assert!(
            err.contains("store was recorded under schema `mce`"),
            "got: {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fleet_summary_reports_per_tenant_counters() {
        use orfpred_fleet::TenantCounters;
        use orfpred_serve::Checkpoint;

        // A synthetic finished record is enough to pin the format.
        let mut p = OnlinePredictorConfig::new(vec![0], 1);
        p.orf.n_trees = 1;
        let serve = ServeConfig::new(p);
        let engine = orfpred_serve::Engine::new(&serve);
        let fin = engine.finish().unwrap();
        let _: &Checkpoint = &fin.checkpoint;
        let fins = vec![TenantFinished {
            tenant: "sta".into(),
            alarms: Vec::new(),
            checkpoint: fin.checkpoint,
            counters: TenantCounters {
                events: 10,
                alarms: 2,
                drift_events: 1,
                model_rebuilds: 1,
                reshards: 3,
            },
        }];
        let text = fleet_summary(&fins);
        assert!(text.contains("tenant `sta`"));
        assert!(text.contains("10 events"));
        assert!(text.contains("2 alarms"));
        assert!(text.contains("3 reshards"));
    }
}
