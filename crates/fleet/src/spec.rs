//! `--tenant` CLI spec parsing.
//!
//! One flag per tenant, value = `name[,key=value]...`:
//!
//! ```text
//! --tenant sta,domain=smart,shards=4,checkpoint=/var/lib/orfpred/sta.ckpt
//! --tenant mce0,domain=mce,shards=2,store=/data/mce0,threshold=0.6
//! ```
//!
//! Keys: `domain` (smart | smart-windowed | mce; default smart), `shards`,
//! `threshold`, `window`, `seed`, `trees`, `queue`, `snapshot`, `store`
//! (telemetry-store catch-up dir), `checkpoint` (default checkpoint file),
//! and `cols` (colon-separated feature column indices; defaults to the
//! paper's Table-2 columns for the SMART domain and to every column for
//! other domains).

use crate::engine::TenantConfig;
use orfpred_core::OnlinePredictorConfig;
use orfpred_smart::attrs::table2_feature_columns;
use orfpred_smart::DomainSchema;
use std::path::PathBuf;

fn parse_num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("--tenant: `{key}={value}` is not a valid value"))
}

/// Parse one `--tenant` spec into a [`TenantConfig`].
pub fn parse_tenant_spec(spec: &str) -> Result<TenantConfig, String> {
    let mut parts = spec.split(',');
    let name = parts.next().unwrap_or("").trim();
    if name.is_empty() {
        return Err("--tenant: spec must start with a tenant name".into());
    }
    if name.contains('=') {
        return Err(format!(
            "--tenant: first element `{name}` must be the tenant name, not a key=value pair"
        ));
    }

    let mut domain = "smart".to_string();
    let mut kvs = Vec::new();
    for part in parts {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let Some((key, value)) = part.split_once('=') else {
            return Err(format!("--tenant {name}: `{part}` is not key=value"));
        };
        if key == "domain" {
            domain = value.to_string();
        } else {
            kvs.push((key.to_string(), value.to_string()));
        }
    }

    let schema = DomainSchema::for_domain(&domain).ok_or_else(|| {
        format!("--tenant {name}: unknown domain `{domain}` (smart|smart-windowed|mce)")
    })?;
    let cols = if domain == "smart" {
        table2_feature_columns()
    } else {
        (0..schema.n_features()).collect()
    };
    let mut predictor = OnlinePredictorConfig::for_domain(schema, cols, 42);
    let mut cfg = TenantConfig::new(name, predictor.clone());

    for (key, value) in kvs {
        match key.as_str() {
            "shards" => {
                cfg.serve.n_shards = parse_num(&key, &value)?;
                if cfg.serve.n_shards == 0 {
                    return Err(format!("--tenant {name}: shards must be at least 1"));
                }
            }
            "threshold" => predictor.alarm_threshold = parse_num(&key, &value)?,
            "window" => predictor.window_days = parse_num(&key, &value)?,
            "seed" => predictor.seed = parse_num(&key, &value)?,
            "trees" => predictor.orf.n_trees = parse_num(&key, &value)?,
            "queue" => cfg.serve.queue_capacity = parse_num(&key, &value)?,
            "snapshot" => cfg.serve.snapshot_every = parse_num(&key, &value)?,
            "store" => cfg.catchup_store = Some(PathBuf::from(value)),
            "checkpoint" => cfg.checkpoint_path = Some(PathBuf::from(value)),
            "cols" => {
                let mut cols = Vec::new();
                for c in value.split(':') {
                    cols.push(parse_num::<usize>(&key, c)?);
                }
                if cols.is_empty() {
                    return Err(format!("--tenant {name}: cols must name at least one column"));
                }
                predictor.feature_cols = cols;
            }
            other => {
                return Err(format!(
                    "--tenant {name}: unknown key `{other}` \
                     (domain|shards|threshold|window|seed|trees|queue|snapshot|store|checkpoint|cols)"
                ))
            }
        }
    }
    cfg.serve.predictor = predictor;
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_spec_defaults_to_smart_table2() {
        let cfg = parse_tenant_spec("sta").unwrap();
        assert_eq!(cfg.name, "sta");
        assert_eq!(cfg.serve.predictor.feature_cols, table2_feature_columns());
        assert_eq!(cfg.serve.n_shards, 4);
        assert!(cfg.checkpoint_path.is_none());
        assert!(cfg.catchup_store.is_none());
    }

    #[test]
    fn full_spec_parses_every_key() {
        let cfg = parse_tenant_spec(
            "mce0,domain=mce,shards=2,threshold=0.6,window=5,seed=7,trees=9,queue=64,snapshot=32,store=/data/mce0,checkpoint=/ck/mce0.json,cols=0:2:4",
        )
        .unwrap();
        assert_eq!(cfg.name, "mce0");
        assert_eq!(
            cfg.serve.predictor.domain_schema().name,
            DomainSchema::mce().name
        );
        assert_eq!(cfg.serve.n_shards, 2);
        assert_eq!(cfg.serve.predictor.alarm_threshold, 0.6);
        assert_eq!(cfg.serve.predictor.window_days, 5);
        assert_eq!(cfg.serve.predictor.seed, 7);
        assert_eq!(cfg.serve.predictor.orf.n_trees, 9);
        assert_eq!(cfg.serve.queue_capacity, 64);
        assert_eq!(cfg.serve.snapshot_every, 32);
        assert_eq!(
            cfg.catchup_store.as_deref(),
            Some(std::path::Path::new("/data/mce0"))
        );
        assert_eq!(
            cfg.checkpoint_path.as_deref(),
            Some(std::path::Path::new("/ck/mce0.json"))
        );
        assert_eq!(cfg.serve.predictor.feature_cols, vec![0, 2, 4]);
    }

    #[test]
    fn non_smart_domains_default_to_all_columns() {
        let cfg = parse_tenant_spec("m,domain=mce").unwrap();
        let schema = cfg.serve.predictor.domain_schema().clone();
        assert_eq!(
            cfg.serve.predictor.feature_cols,
            (0..schema.n_features()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn malformed_specs_are_rejected_with_context() {
        assert!(parse_tenant_spec("").is_err());
        assert!(parse_tenant_spec("domain=mce").is_err(), "name first");
        assert!(parse_tenant_spec("t,frobnicate=1").is_err());
        assert!(parse_tenant_spec("t,domain=lustre").is_err());
        assert!(parse_tenant_spec("t,shards=0").is_err());
        assert!(parse_tenant_spec("t,shards=lots").is_err());
        assert!(parse_tenant_spec("t,shards").is_err());
    }
}
