//! Store reader: manifest-driven access to sealed segments, streaming
//! record/event replay, full verification, and the footer-only summary
//! behind `orfpred data info`.
//!
//! Replay works segment-at-a-time on owned buffers (one decoded segment
//! resident at a time), so memory stays bounded by the segment size, not
//! the fleet. Failure events are synthesized from the manifest's disk
//! roster and interleaved in exactly the simulator's order — all samples
//! of day *d* (ascending disk id), then all failures of day *d* — which is
//! what makes replay-from-store bit-identical to replay-from-sim.

use crate::segment::{logical_row_bytes, Footer, Segment, SEG_MAGIC};
use crate::writer::{StoreMeta, META_FILE, STORE_VERSION};
use crate::StoreError;
use orfpred_smart::gen::FleetEvent;
use orfpred_smart::record::{Dataset, DiskDay};
use orfpred_smart::DomainSchema;
use std::fs;
use std::path::{Path, PathBuf};

fn io_err(path: &Path, e: impl std::fmt::Display) -> StoreError {
    StoreError::Io {
        path: path.to_path_buf(),
        detail: e.to_string(),
    }
}

fn corrupt(path: &Path, detail: impl Into<String>) -> StoreError {
    StoreError::Corrupt {
        path: path.to_path_buf(),
        detail: detail.into(),
    }
}

/// An opened store: validated manifest + lazy segment access.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    meta: StoreMeta,
    /// Resolved domain schema (manifest's, or implicit SMART for v1).
    schema: DomainSchema,
}

impl Store {
    /// Open a store directory: parse the manifest and cheaply
    /// cross-check it (version, row totals, dense roster, segment files
    /// present with the exact recorded size — which already catches torn
    /// writes without reading row data). Full CRC verification is
    /// [`verify`](Self::verify).
    pub fn open(dir: &Path) -> Result<Store, StoreError> {
        let meta_path = dir.join(META_FILE);
        let json = fs::read_to_string(&meta_path).map_err(|e| io_err(&meta_path, e))?;
        let meta: StoreMeta = serde_json::from_str(&json)
            .map_err(|e| corrupt(&meta_path, format!("bad manifest: {e}")))?;
        if meta.version > STORE_VERSION {
            return Err(corrupt(
                &meta_path,
                format!(
                    "manifest version {} is newer than this reader ({})",
                    meta.version, STORE_VERSION
                ),
            ));
        }
        let sum: u64 = meta.segments.iter().map(|s| s.rows).sum();
        if sum != meta.total_rows {
            return Err(corrupt(
                &meta_path,
                format!(
                    "total_rows {} != sum of segment rows {sum}",
                    meta.total_rows
                ),
            ));
        }
        for (i, d) in meta.disks.iter().enumerate() {
            if d.disk_id as usize != i {
                return Err(corrupt(
                    &meta_path,
                    format!("disk roster not dense at slot {i}"),
                ));
            }
        }
        for s in &meta.segments {
            let path = dir.join(&s.file);
            let actual = fs::metadata(&path).map_err(|e| io_err(&path, e))?.len();
            if actual != s.bytes {
                return Err(corrupt(
                    &path,
                    format!(
                        "segment is {actual} bytes, manifest says {} (torn write?)",
                        s.bytes
                    ),
                ));
            }
        }
        let schema = match &meta.schema {
            Some(s) => {
                s.validate()
                    .map_err(|e| corrupt(&meta_path, format!("manifest schema invalid: {e}")))?;
                s.clone()
            }
            None => DomainSchema::smart(),
        };
        Ok(Store {
            dir: dir.to_path_buf(),
            meta,
            schema,
        })
    }

    pub fn meta(&self) -> &StoreMeta {
        &self.meta
    }

    /// The domain schema the store's rows follow (implicit SMART when the
    /// manifest predates embedded schemas).
    pub fn schema(&self) -> &DomainSchema {
        &self.schema
    }

    /// Typed error when the store's layout disagrees with `domain` — the
    /// check behind `orfpred data verify --domain`. Fingerprints cover
    /// attribute ids/names/plausibility bits and the derived-feature plan,
    /// so a rename or window change is caught, not just a width change.
    pub fn verify_domain(&self, domain: &DomainSchema) -> Result<(), StoreError> {
        let (store_fp, domain_fp) = (self.schema.fingerprint(), domain.fingerprint());
        if store_fp != domain_fp {
            return Err(StoreError::InvalidInput {
                detail: format!(
                    "store was recorded under schema `{}` (fingerprint {store_fp:016x}, \
                     {} features) but domain `{}` expects fingerprint {domain_fp:016x} \
                     ({} features)",
                    self.schema.name,
                    self.schema.n_base_features(),
                    domain.name,
                    domain.n_base_features()
                ),
            });
        }
        Ok(())
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn n_segments(&self) -> usize {
        self.meta.segments.len()
    }

    pub fn n_rows(&self) -> u64 {
        self.meta.total_rows
    }

    fn segment_path(&self, i: usize) -> PathBuf {
        // lint: allow(panic_path, reason="private helper; every caller iterates i in 0..n_segments()")
        self.dir.join(&self.meta.segments[i].file)
    }

    /// Read segment `i` and run every check that needs no column decode:
    /// its size against the manifest, the footer and body CRCs, and its
    /// row count and schema against the manifest. Replay decodes the image
    /// this returns; a seek stops here for the segments it skips.
    fn checked_image(&self, i: usize) -> Result<(PathBuf, Vec<u8>, Footer), StoreError> {
        let path = self.segment_path(i);
        let bytes = fs::read(&path).map_err(|e| io_err(&path, e))?;
        // lint: allow(panic_path, reason="segment_path(i) above already indexed the same manifest entry; callers stay in 0..n_segments()")
        let sm = &self.meta.segments[i];
        if bytes.len() as u64 != sm.bytes {
            return Err(corrupt(
                &path,
                format!(
                    "segment is {} bytes, manifest says {} (torn write?)",
                    bytes.len(),
                    sm.bytes
                ),
            ));
        }
        let footer = Footer::parse(&bytes, &path)?;
        footer.check_body(&bytes, &path)?;
        if u64::from(footer.n_rows) != sm.rows {
            return Err(corrupt(
                &path,
                format!(
                    "segment holds {} rows, manifest says {}",
                    footer.n_rows, sm.rows
                ),
            ));
        }
        if footer.schema_fp != self.schema.fingerprint() {
            return Err(corrupt(
                &path,
                format!(
                    "segment schema fingerprint {:016x} does not match the store's \
                     `{}` schema ({:016x})",
                    footer.schema_fp,
                    self.schema.name,
                    self.schema.fingerprint()
                ),
            ));
        }
        if footer.n_features as usize != self.schema.n_base_features() {
            return Err(corrupt(
                &path,
                format!(
                    "segment rows have {} feature columns, schema `{}` has {} base columns",
                    footer.n_features,
                    self.schema.name,
                    self.schema.n_base_features()
                ),
            ));
        }
        Ok((path, bytes, footer))
    }

    /// Load and fully decode (CRC-verify) segment `i`.
    pub fn segment(&self, i: usize) -> Result<Segment, StoreError> {
        let (path, bytes, footer) = self.checked_image(i)?;
        Segment::decode_verified(&bytes, &footer, &path)
    }

    /// Stream every record in `(day, disk_id)` order.
    pub fn records(&self) -> Records<'_> {
        Records {
            store: self,
            next_seg: 0,
            seg: None,
            row: 0,
            failed: false,
        }
    }

    /// Stream the full event sequence — samples interleaved with
    /// synthesized failure events — in exactly [`FleetSim`]'s order.
    ///
    /// [`FleetSim`]: orfpred_smart::gen::FleetSim
    pub fn events(&self) -> Events<'_> {
        let mut failures: Vec<(u16, u32)> = self
            .meta
            .disks
            .iter()
            .filter(|d| d.failed)
            .map(|d| (d.last_day, d.disk_id))
            .collect();
        failures.sort_unstable();
        Events {
            records: self.records(),
            failures,
            next_failure: 0,
            pending: None,
            done: false,
        }
    }

    /// Stream the event sequence starting after a catch-up cursor: the
    /// first `skip` events (already covered by a restored checkpoint's
    /// `events_ingested` count) are passed over, the rest are yielded in
    /// [`Self::events`] order. One daemon tenant calls this with its own
    /// cursor, so every tenant replays exactly the store tail it missed.
    ///
    /// Whole segments before the cursor are skipped by their manifest
    /// entries: the events before segment `k` are the rows of segments
    /// `0..k` plus the failures dated before `k`'s first day (a failure
    /// follows every sample of its own day). Each skipped segment is still
    /// read and checked (its size, both CRCs, row count and schema, as a
    /// full replay would) but its columns are not decoded; a failed
    /// check is yielded as the first item. Only the segment holding the
    /// cursor is decoded and stepped through event by event.
    pub fn events_from(
        &self,
        skip: u64,
    ) -> impl Iterator<Item = Result<FleetEvent, StoreError>> + '_ {
        let mut events = self.events();
        // (segments skipped, events before them, failures before them).
        let mut seek = (0usize, 0u64, 0usize);
        let segs = &self.meta.segments;
        // Boundary k < n opens segment k; boundary n is the end of the
        // rows, where the failures dated on or after the last day remain.
        let boundaries = segs
            .iter()
            .map(|s| s.first_day)
            .chain(segs.last().map(|s| s.last_day));
        let mut rows = 0u64;
        for (k, day) in boundaries.enumerate() {
            let fails = events.failures.partition_point(|&(d, _)| d < day);
            let before = rows + fails as u64;
            if before > skip {
                break;
            }
            seek = (k, before, fails);
            rows += segs.get(k).map_or(0, |s| s.rows);
        }
        let (seg, before, fails) = seek;
        let error = (0..seg).find_map(|i| self.checked_image(i).err());
        if error.is_some() {
            events.done = true;
        } else {
            events.records.next_seg = seg;
            events.next_failure = fails;
        }
        let rest = usize::try_from(skip - before).unwrap_or(usize::MAX);
        error.map(Err).into_iter().chain(events.skip(rest))
    }

    /// Materialize the whole store as a [`Dataset`] (validated). Only for
    /// stores that fit in memory — replay via [`events`](Self::events) for
    /// the rest.
    pub fn dataset(&self) -> Result<Dataset, StoreError> {
        let mut records = Vec::with_capacity(self.meta.total_rows as usize);
        for rec in self.records() {
            records.push(rec?);
        }
        let ds = Dataset {
            model: self.meta.model.clone(),
            duration_days: self.meta.duration_days,
            records,
            disks: self.meta.disks.clone(),
        };
        ds.validate().map_err(|e| {
            corrupt(
                &self.dir.join(META_FILE),
                format!("replayed dataset invalid: {e}"),
            )
        })?;
        Ok(ds)
    }

    /// Decode every segment, verifying both CRCs, the manifest row counts,
    /// global `(day, disk_id)` ordering, and that every row lands inside
    /// its disk's `[install_day, last_day]` window.
    pub fn verify(&self) -> Result<VerifyReport, StoreError> {
        let mut rows = 0u64;
        let mut bytes = 0u64;
        let mut last_key: Option<(u16, u32)> = None;
        for i in 0..self.n_segments() {
            let seg = self.segment(i)?;
            let path = self.segment_path(i);
            // lint: allow(panic_path, reason="i ranges over 0..n_segments(), the length of this vec")
            bytes += self.meta.segments[i].bytes;
            for r in 0..seg.n_rows() {
                // lint: allow(panic_path, reason="r ranges over 0..n_rows(); decode() guarantees all column vecs share that length")
                let (day, disk) = (seg.days()[r], seg.disk_ids()[r]);
                let key = (day, disk);
                if let Some(last) = last_key {
                    if key <= last {
                        return Err(corrupt(
                            &path,
                            format!("row order violated: {key:?} after {last:?}"),
                        ));
                    }
                }
                last_key = Some(key);
                let info = self.meta.disks.get(disk as usize).ok_or_else(|| {
                    corrupt(&path, format!("row references disk {disk} outside roster"))
                })?;
                if day < info.install_day || day > info.last_day {
                    return Err(corrupt(
                        &path,
                        format!(
                            "disk {disk} sampled on day {day} outside its window [{}, {}]",
                            info.install_day, info.last_day
                        ),
                    ));
                }
            }
            rows += seg.n_rows() as u64;
        }
        if rows != self.meta.total_rows {
            return Err(corrupt(
                &self.dir.join(META_FILE),
                format!(
                    "replayed {rows} rows, manifest says {}",
                    self.meta.total_rows
                ),
            ));
        }
        Ok(VerifyReport {
            segments: self.n_segments(),
            rows,
            bytes,
            schema_fp: self.schema.fingerprint(),
        })
    }

    /// Footer-only summary (no row decode): sizes, date range, and
    /// per-column encoded bytes + modes for the `data info` report.
    pub fn info(&self) -> Result<StoreInfo, StoreError> {
        let n_features = self.schema.n_base_features();
        let mut columns: Vec<ColumnStat> = (0..n_features)
            .map(|c| ColumnStat {
                name: self.schema.feature_name(c),
                encoded_bytes: 0,
                raw_segments: 0,
                int_segments: 0,
            })
            .collect();
        let mut disk_id_bytes = 0u64;
        let mut day_bytes = 0u64;
        let mut disk_bytes = 0u64;
        for (i, sm) in self.meta.segments.iter().enumerate() {
            let path = self.segment_path(i);
            let bytes = fs::read(&path).map_err(|e| io_err(&path, e))?;
            let footer = Footer::parse(&bytes, &path)?;
            if u64::from(footer.n_rows) != sm.rows {
                return Err(corrupt(
                    &path,
                    format!(
                        "footer says {} rows, manifest says {}",
                        footer.n_rows, sm.rows
                    ),
                ));
            }
            if footer.schema_fp != self.schema.fingerprint()
                || footer.n_features as usize != n_features
            {
                return Err(corrupt(
                    &path,
                    format!(
                        "segment footer schema (fingerprint {:016x}, {} features) \
                         disagrees with the store's `{}` schema",
                        footer.schema_fp, footer.n_features, self.schema.name
                    ),
                ));
            }
            disk_bytes += bytes.len() as u64;
            disk_id_bytes += footer.block_bytes(0);
            day_bytes += footer.block_bytes(1);
            for (c, col) in columns.iter_mut().enumerate() {
                let b = 2 + c;
                col.encoded_bytes += footer.block_bytes(b);
                // Peek the mode byte (first byte of the block's body span).
                let start = if b == 0 { 0 } else { footer.block_ends[b - 1] };
                let mode = bytes[SEG_MAGIC.len() + start as usize];
                if mode == 0 {
                    col.int_segments += 1;
                } else {
                    col.raw_segments += 1;
                }
            }
        }
        let m = &self.meta;
        Ok(StoreInfo {
            segments: m.segments.len(),
            rows: m.total_rows,
            segment_rows: m.segment_rows,
            n_disks: m.disks.len(),
            n_failed: m.disks.iter().filter(|d| d.failed).count(),
            first_day: m.segments.first().map(|s| s.first_day),
            last_day: m.segments.last().map(|s| s.last_day),
            duration_days: m.duration_days,
            model: m.model.clone(),
            disk_bytes,
            logical_bytes: m.total_rows * logical_row_bytes(n_features),
            disk_id_bytes,
            day_bytes,
            columns,
            schema_name: self.schema.name.clone(),
            schema_fp: self.schema.fingerprint(),
            n_attributes: self.schema.n_attributes(),
        })
    }
}

/// What [`Store::verify`] checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyReport {
    pub segments: usize,
    pub rows: u64,
    /// Encoded bytes decoded and CRC-verified.
    pub bytes: u64,
    /// Schema fingerprint every segment matched.
    pub schema_fp: u64,
}

/// Per-feature-column stats for `data info`.
#[derive(Debug, Clone)]
pub struct ColumnStat {
    /// Human feature name (e.g. `smart_5_raw`).
    pub name: String,
    /// Encoded bytes across all segments (including the mode byte).
    pub encoded_bytes: u64,
    /// Segments that stored this column as raw f32 bits.
    pub raw_segments: u32,
    /// Segments that stored this column delta-coded.
    pub int_segments: u32,
}

/// Footer-level store summary.
#[derive(Debug, Clone)]
pub struct StoreInfo {
    pub segments: usize,
    pub rows: u64,
    pub segment_rows: u32,
    pub n_disks: usize,
    pub n_failed: usize,
    pub first_day: Option<u16>,
    pub last_day: Option<u16>,
    pub duration_days: u16,
    pub model: String,
    /// Actual bytes across segment files.
    pub disk_bytes: u64,
    /// Uncompressed row-struct bytes the same rows would occupy.
    pub logical_bytes: u64,
    pub disk_id_bytes: u64,
    pub day_bytes: u64,
    pub columns: Vec<ColumnStat>,
    /// Domain schema name (`smart` for v1 manifests).
    pub schema_name: String,
    /// Schema fingerprint all segments were written under.
    pub schema_fp: u64,
    /// Attributes (not feature columns) in the schema.
    pub n_attributes: usize,
}

/// Streaming record iterator: one decoded segment resident at a time.
/// Yields `Err` once on the first corrupt/unreadable segment, then fuses.
#[derive(Debug)]
pub struct Records<'a> {
    store: &'a Store,
    next_seg: usize,
    seg: Option<Segment>,
    row: usize,
    failed: bool,
}

impl Iterator for Records<'_> {
    type Item = Result<DiskDay, StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        loop {
            if let Some(seg) = &self.seg {
                if self.row < seg.n_rows() {
                    let rec = seg.record(self.row);
                    self.row += 1;
                    return Some(Ok(rec));
                }
                self.seg = None;
            }
            if self.next_seg >= self.store.n_segments() {
                return None;
            }
            match self.store.segment(self.next_seg) {
                Ok(seg) => {
                    self.next_seg += 1;
                    self.row = 0;
                    self.seg = Some(seg);
                }
                Err(e) => {
                    self.failed = true;
                    return Some(Err(e));
                }
            }
        }
    }
}

/// Streaming event iterator: records plus synthesized failure events, in
/// simulator order.
#[derive(Debug)]
pub struct Events<'a> {
    records: Records<'a>,
    /// `(fail_day, disk_id)` sorted ascending.
    failures: Vec<(u16, u32)>,
    next_failure: usize,
    pending: Option<DiskDay>,
    done: bool,
}

impl Iterator for Events<'_> {
    type Item = Result<FleetEvent, StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        if self.pending.is_none() {
            match self.records.next() {
                Some(Ok(rec)) => self.pending = Some(rec),
                Some(Err(e)) => {
                    self.done = true;
                    return Some(Err(e));
                }
                None => {}
            }
        }
        // A failure on day d comes after every sample of day d (the failing
        // disk reports its final SMART snapshot before the failure event).
        let fail_now = match (&self.pending, self.failures.get(self.next_failure)) {
            (Some(rec), Some(&(fd, _))) => fd < rec.day,
            (None, Some(_)) => true,
            (_, None) => false,
        };
        if fail_now {
            let (day, disk_id) = self.failures[self.next_failure];
            self.next_failure += 1;
            return Some(Ok(FleetEvent::Failure { disk_id, day }));
        }
        match self.pending.take() {
            Some(rec) => Some(Ok(FleetEvent::Sample(rec))),
            None => {
                self.done = true;
                None
            }
        }
    }
}
