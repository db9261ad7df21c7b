//! Store writer: append-only segment rotation with the tmp + fsync +
//! rename + directory-fsync discipline, plus an atomically rewritten `store.json` manifest
//! so a crash at any instant leaves a readable consistent prefix.

use crate::fault::{NoStoreFaults, SegmentFault, StoreFaultInjector};
use crate::segment::SegmentBuilder;
use crate::StoreError;
use orfpred_smart::gen::{FleetConfig, FleetEvent, FleetSim};
use orfpred_smart::record::{Dataset, DiskDay, DiskInfo};
use orfpred_smart::DomainSchema;
use orfpred_util::durable::sync_parent_dir;
use serde::{Deserialize, Serialize};
use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// On-disk manifest format version (v2 added the embedded domain schema;
/// v1 manifests are read as the implicit SMART layout).
pub const STORE_VERSION: u32 = 2;
/// Manifest file name inside a store directory.
pub const META_FILE: &str = "store.json";
/// Default rows per segment (~6.5 MB logical per segment; encoded far
/// smaller for typical SMART streams).
pub const DEFAULT_SEGMENT_ROWS: u32 = 32_768;

/// Manifest entry for one sealed segment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SegmentMeta {
    /// File name relative to the store directory (`seg-00000.orfseg`).
    pub file: String,
    /// Rows in the segment.
    pub rows: u64,
    /// Exact encoded size in bytes (readers cheaply detect tears by
    /// comparing against the file's actual size before decoding).
    pub bytes: u64,
    /// First day covered (inclusive).
    pub first_day: u16,
    /// Last day covered (inclusive).
    pub last_day: u16,
}

/// The store manifest: everything a reader needs except the row bytes.
/// Disk metadata lives here (not in segments) because the fleet roster is
/// known up front and failure events are synthesized from it on replay.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StoreMeta {
    pub version: u32,
    /// Drive model the telemetry belongs to (e.g. `ST4000DM000`).
    pub model: String,
    /// Observation window length in days (same meaning as
    /// [`Dataset::duration_days`]).
    pub duration_days: u16,
    /// Rows per full segment (the last segment may be shorter).
    pub segment_rows: u32,
    /// Total rows across all sealed segments.
    pub total_rows: u64,
    pub segments: Vec<SegmentMeta>,
    /// Fleet roster: dense ids, install/last days, failure flags.
    pub disks: Vec<DiskInfo>,
    /// Domain schema the rows were recorded under. `None` (v1 manifests)
    /// means the implicit SMART layout.
    pub schema: Option<DomainSchema>,
}

/// Writer configuration.
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Rows per segment before rotation.
    pub segment_rows: u32,
    /// Domain schema the rows are recorded under (defaults to SMART).
    pub schema: DomainSchema,
    /// Fault-injection points ([`NoStoreFaults`] in production).
    pub injector: Arc<dyn StoreFaultInjector>,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            segment_rows: DEFAULT_SEGMENT_ROWS,
            schema: DomainSchema::smart(),
            injector: Arc::new(NoStoreFaults),
        }
    }
}

fn io_err(path: &Path, e: impl std::fmt::Display) -> StoreError {
    StoreError::Io {
        path: path.to_path_buf(),
        detail: e.to_string(),
    }
}

/// Write `bytes` to `path` atomically: temp file in the same directory,
/// fsync, rename, fsync the directory. The same discipline serve uses for
/// checkpoints.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
        f.write_all(bytes).map_err(|e| io_err(&tmp, e))?;
        f.sync_all().map_err(|e| io_err(&tmp, e))?;
    }
    fs::rename(&tmp, path).map_err(|e| io_err(path, e))?;
    sync_parent_dir(path).map_err(|e| io_err(path, format!("fsync of the directory: {e}")))
}

/// Appends records in `(day, disk_id)` order, sealing a segment every
/// `segment_rows` rows. The manifest is rewritten atomically after every
/// seal, so the durable store is always a consistent prefix of the stream.
#[derive(Debug)]
pub struct StoreWriter {
    dir: PathBuf,
    meta: StoreMeta,
    schema: DomainSchema,
    builder: SegmentBuilder,
    injector: Arc<dyn StoreFaultInjector>,
    last_key: Option<(u16, u32)>,
}

impl StoreWriter {
    /// Create a new store at `dir` (created if absent; refuses to overwrite
    /// an existing store). The full disk roster must be known up front.
    pub fn create(
        dir: &Path,
        model: &str,
        duration_days: u16,
        disks: &[DiskInfo],
        cfg: StoreConfig,
    ) -> Result<StoreWriter, StoreError> {
        if cfg.segment_rows == 0 {
            return Err(StoreError::InvalidInput {
                detail: "segment_rows must be at least 1".into(),
            });
        }
        if let Err(e) = cfg.schema.validate() {
            return Err(StoreError::InvalidInput {
                detail: format!("invalid domain schema: {e}"),
            });
        }
        for (i, d) in disks.iter().enumerate() {
            if d.disk_id as usize != i {
                return Err(StoreError::InvalidInput {
                    detail: format!("disk roster not dense: slot {i} holds id {}", d.disk_id),
                });
            }
        }
        fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        let meta_path = dir.join(META_FILE);
        if meta_path.exists() {
            return Err(StoreError::InvalidInput {
                detail: format!("{} already contains a store", dir.display()),
            });
        }
        let meta = StoreMeta {
            version: STORE_VERSION,
            model: model.to_string(),
            duration_days,
            segment_rows: cfg.segment_rows,
            total_rows: 0,
            segments: Vec::new(),
            disks: disks.to_vec(),
            schema: Some(cfg.schema.clone()),
        };
        let w = StoreWriter {
            dir: dir.to_path_buf(),
            meta,
            builder: SegmentBuilder::for_schema(&cfg.schema),
            schema: cfg.schema,
            injector: cfg.injector,
            last_key: None,
        };
        w.write_meta()?;
        Ok(w)
    }

    /// Append one record. Records must arrive in strictly increasing
    /// `(day, disk_id)` order — the invariant every reader and the replay
    /// oracle rely on — and reference a disk in the roster.
    pub fn append(&mut self, rec: &DiskDay) -> Result<(), StoreError> {
        if rec.features.len() != self.schema.n_base_features() {
            return Err(StoreError::InvalidInput {
                detail: format!(
                    "record has {} feature columns but the store's `{}` schema has {} \
                     base columns (the store holds raw telemetry; derived window \
                     columns are computed downstream — mixed-schema appends are refused)",
                    rec.features.len(),
                    self.schema.name,
                    self.schema.n_base_features()
                ),
            });
        }
        if rec.disk_id as usize >= self.meta.disks.len() {
            return Err(StoreError::InvalidInput {
                detail: format!(
                    "record references disk {} but the roster has {}",
                    rec.disk_id,
                    self.meta.disks.len()
                ),
            });
        }
        if rec.day > self.meta.duration_days {
            return Err(StoreError::InvalidInput {
                detail: format!(
                    "record day {} past observation window {}",
                    rec.day, self.meta.duration_days
                ),
            });
        }
        let key = (rec.day, rec.disk_id);
        if let Some(last) = self.last_key {
            if key <= last {
                return Err(StoreError::InvalidInput {
                    detail: format!(
                        "records out of order: {key:?} after {last:?} (must be strictly \
                         increasing by (day, disk_id))"
                    ),
                });
            }
        }
        self.last_key = Some(key);
        self.builder.push(rec);
        if self.builder.n_rows() as u64 >= u64::from(self.meta.segment_rows) {
            self.rotate()?;
        }
        Ok(())
    }

    /// Rows buffered but not yet sealed into a segment.
    pub fn pending_rows(&self) -> usize {
        self.builder.n_rows()
    }

    /// Rows already durable in sealed segments.
    pub fn sealed_rows(&self) -> u64 {
        self.meta.total_rows
    }

    /// Seal the buffered rows into a segment, then atomically rewrite the
    /// manifest to include it.
    fn rotate(&mut self) -> Result<(), StoreError> {
        if self.builder.is_empty() {
            return Ok(());
        }
        let idx = self.meta.segments.len() as u64;
        let file = format!("seg-{idx:05}.orfseg");
        let path = self.dir.join(&file);
        let mut bytes = self.builder.encode();
        // lint: allow(panic_path, reason="the is_empty early-return above guarantees the builder holds at least one row, so day_range() is Some")
        let (first_day, last_day) = self.builder.day_range().expect("builder not empty");
        let rows = self.builder.n_rows() as u64;

        match self.injector.segment_fault(idx) {
            SegmentFault::None => write_atomic(&path, &bytes)?,
            SegmentFault::FlipByte { byte_from_end, xor } => {
                // Silent bit rot: the write itself succeeds; only the
                // reader's CRCs can catch this.
                let n = bytes.len();
                let at = n - 1 - byte_from_end.min(n - 1);
                // lint: allow(panic_path, reason="at = n-1-min(_, n-1) is always in 0..n, and n >= 1 because encode() of a non-empty builder emits at least the magic")
                bytes[at] ^= xor;
                write_atomic(&path, &bytes)?;
            }
            SegmentFault::TornWrite { keep } => {
                // Prefix lands at the *final* path: rename journaled, data
                // blocks lost. Reader-side CRC/trailer checks must catch it.
                let kept = &bytes[..keep.min(bytes.len())];
                let mut f = File::create(&path).map_err(|e| io_err(&path, e))?;
                f.write_all(kept).map_err(|e| io_err(&path, e))?;
                f.sync_all().map_err(|e| io_err(&path, e))?;
                let kept_len = kept.len();
                return Err(StoreError::Injected {
                    path,
                    detail: format!("torn segment write ({kept_len} of {} bytes)", bytes.len()),
                });
            }
            SegmentFault::CrashBeforeRename => {
                let tmp = path.with_extension("tmp");
                let mut f = File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
                f.write_all(&bytes).map_err(|e| io_err(&tmp, e))?;
                f.sync_all().map_err(|e| io_err(&tmp, e))?;
                return Err(StoreError::Injected {
                    path: tmp,
                    detail: "crash before segment rename".into(),
                });
            }
        }

        self.meta.segments.push(SegmentMeta {
            file,
            rows,
            bytes: bytes.len() as u64,
            first_day,
            last_day,
        });
        self.meta.total_rows += rows;
        self.write_meta()?;
        self.builder = SegmentBuilder::for_schema(&self.schema);
        Ok(())
    }

    fn write_meta(&self) -> Result<(), StoreError> {
        let path = self.dir.join(META_FILE);
        let json = serde_json::to_string(&self.meta).map_err(|e| io_err(&path, e))?;
        write_atomic(&path, json.as_bytes())
    }

    /// Seal any buffered rows and return the final manifest.
    pub fn finish(mut self) -> Result<StoreMeta, StoreError> {
        self.rotate()?;
        Ok(self.meta)
    }
}

/// Record a materialized [`Dataset`] into a new store at `dir`.
pub fn record_dataset(dir: &Path, ds: &Dataset, cfg: StoreConfig) -> Result<StoreMeta, StoreError> {
    let mut w = StoreWriter::create(dir, &ds.model, ds.duration_days, &ds.disks, cfg)?;
    for rec in &ds.records {
        w.append(rec)?;
    }
    w.finish()
}

/// Stream a simulated fleet straight into a new store at `dir` without
/// materializing the dataset (constant memory regardless of fleet scale).
pub fn record_fleet(
    dir: &Path,
    fleet: &FleetConfig,
    cfg: StoreConfig,
) -> Result<StoreMeta, StoreError> {
    let sim = FleetSim::new(fleet);
    let disks = sim.disk_infos();
    let duration = sim.duration_days();
    let mut w = StoreWriter::create(dir, &fleet.profile.name, duration, &disks, cfg)?;
    for ev in sim {
        if let FleetEvent::Sample(rec) = ev {
            w.append(&rec)?;
        }
    }
    w.finish()
}
