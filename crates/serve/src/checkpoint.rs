//! Durable serving state: the full Algorithm 2 pipeline — forest, scaler,
//! labelling queues, alarm threshold — plus the stream position, written
//! atomically (write-tmp → fsync → rename → fsync the directory) so a
//! crash never leaves a half-written file.
//!
//! This module owns the checkpoint *file format* (DESIGN.md §8.2), which
//! the CLI's model files share:
//!
//! ```text
//! magic "ORFCKP1\n" | body | CRC32 u32 LE | tail magic "ORFCKPF\n"
//! ```
//!
//! The body is the binary image of the value's serde `Value` tree
//! ([`orfpred_util::codec`]): the encoder consumes the type's streamed
//! serialization events, so saving builds no tree and renders no text.
//! The CRC covers magic + body, so any flipped bit fails the load; a torn
//! write loses the tail magic. [`read_file`] recognises the format by its
//! leading magic — never by the file extension — and hands any other
//! bytes to the JSON parser, so JSON files written before the binary
//! format still load.
//!
//! The logical shape is deliberately identical to the CLI's `SavedModel`
//! (`{"Online": {...}}`): a v1 model file written by `orfpred train
//! --online` (scaler + forest only) restores into a daemon with empty
//! labelling queues, and a daemon checkpoint loads anywhere a `SavedModel`
//! does. The extra fields are optional for exactly that reason.
//!
//! Loading is defensive: a truncated, torn, bit-flipped, or structurally
//! inconsistent file yields a typed [`CheckpointError`] with a message
//! naming the file and the defect — never a panic deep inside a decoder or,
//! worse, an engine that starts on nonsense state
//! (`tests/fault_checkpoint.rs` exercises these paths end to end).

use crate::fault::{CheckpointFault, FaultInjector, NoFaults};
use orfpred_core::{AdaptiveState, OnlineLabeller, OnlineRandomForest};
use orfpred_prep::Preprocessor;
use orfpred_smart::scale::OnlineMinMax;
use orfpred_smart::{DomainSchema, WindowStage};
use orfpred_util::codec::{self, Encoder};
use orfpred_util::crc::crc32;
use orfpred_util::durable::sync_parent_dir;
use serde::{Deserialize, Serialize, Value};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Current checkpoint schema version ([`Checkpoint::Online`]'s `version`
/// field). v1 files predate the field and deserialize as `None`; v2 files
/// predate the domain-schema and window-stage fields, which deserialize as
/// `None` — the implicit SMART domain with no derived features.
pub const CHECKPOINT_VERSION: u32 = 3;

/// Leading magic of a checkpoint file: format name + framing version.
pub const CKPT_MAGIC: &[u8; 8] = b"ORFCKP1\n";
/// Trailing magic: tells a torn write from a file of another format.
pub const CKPT_TAIL_MAGIC: &[u8; 8] = b"ORFCKPF\n";
/// Bytes after the body: CRC32 + tail magic.
const TRAILER_LEN: usize = 4 + CKPT_TAIL_MAGIC.len();

/// Why a checkpoint could not be saved or loaded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// The file could not be read or written (missing, permissions,
    /// full disk, failed fsync/rename).
    Io {
        /// File the operation targeted.
        path: PathBuf,
        /// Operating-system error text.
        detail: String,
    },
    /// The file exists but does not hold a usable checkpoint: truncated by
    /// a torn write, garbage bytes, or a JSON document whose pieces are
    /// mutually inconsistent (see [`Checkpoint::validate`]).
    Corrupt {
        /// Offending file.
        path: PathBuf,
        /// What exactly is wrong with it.
        detail: String,
    },
    /// An injected fault aborted the save mid-write (testkit only). The
    /// on-disk state is whatever the fault left behind — the previous file
    /// for [`CheckpointFault::CrashBeforeRename`], a truncated file for
    /// [`CheckpointFault::TornWrite`].
    Injected {
        /// File the aborted save targeted.
        path: PathBuf,
        /// The fault that fired.
        detail: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io { path, detail } => {
                write!(f, "checkpoint I/O error on {}: {detail}", path.display())
            }
            CheckpointError::Corrupt { path, detail } => write!(
                f,
                "checkpoint {} is truncated or corrupt: {detail} \
                 (delete it or restore an older checkpoint to proceed)",
                path.display()
            ),
            CheckpointError::Injected { path, detail } => write!(
                f,
                "injected checkpoint fault on {}: {detail}",
                path.display()
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A serving checkpoint; the single variant keeps the external tag that
/// makes the file a valid `SavedModel` document.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Checkpoint {
    /// Online pipeline state.
    Online {
        /// Streaming min–max scaler state.
        scaler: OnlineMinMax,
        /// The online random forest.
        forest: OnlineRandomForest,
        /// Schema version; `None` on v1 files (scaler + forest only).
        version: Option<u32>,
        /// Merged per-disk labelling queues (Algorithm 2 state). `None` on
        /// v1 files: restore with empty queues.
        labeller: Option<OnlineLabeller>,
        /// Alarm operating point. `None` on v1 files: use the config's.
        alarm_threshold: Option<f32>,
        /// Alarms raised before the checkpoint.
        alarms_raised: Option<u64>,
        /// Next global sequence number; a restored engine resumes here.
        next_seq: Option<u64>,
        /// Stream events (samples + failures, barriers excluded) applied
        /// before the checkpoint. `next_seq` cannot serve this purpose —
        /// it also counts checkpoint/shutdown barriers — and the telemetry
        /// store's catch-up replay needs the exact number of *events* to
        /// skip (`daemon`'s `catchup_store`). `None` on older files:
        /// catch-up then replays from the beginning. With a preprocessing
        /// stage enabled this counts *raw* events offered to `ingest`
        /// (before repair/drop/hold), matching what the store replays.
        events_ingested: Option<u64>,
        /// Ingest-side preprocessing state (imputation memory, held
        /// failures, repair counters). `None` on older files or when the
        /// engine runs without a prep stage.
        prep: Option<Preprocessor>,
        /// Drift-adaptation loop state (detector windows, labelled-history
        /// buffers, rebuild bookkeeping). `None` on older files or when the
        /// engine runs without adaptation.
        adapt: Option<AdaptiveState>,
        /// The telemetry domain the checkpointed pipeline ran on. `None`
        /// on v1/v2 files: the implicit SMART domain. Carried so a restore
        /// against a different domain fails a fingerprint check instead of
        /// silently misaligning feature columns.
        schema: Option<DomainSchema>,
        /// Sliding-window derived-feature state at the barrier (per-disk
        /// history). `None` on v1/v2 files or when the domain's derived
        /// plan is empty.
        window: Option<WindowStage>,
    },
}

impl Checkpoint {
    /// Serialize and atomically replace `path`: write to a sibling
    /// temporary file, fsync it, rename it over the target and fsync the
    /// directory, so `path` always holds either the previous or the new
    /// checkpoint in full.
    pub fn save_atomic(&self, path: &Path) -> Result<(), CheckpointError> {
        self.save_atomic_faulted(path, &NoFaults)
    }

    /// [`Checkpoint::save_atomic`] with an injection point: the injector
    /// may abort the save mid-write to simulate a crash or a torn file, or
    /// report success while the rename is lost (the fault semantics are
    /// documented on [`CheckpointFault`]).
    pub fn save_atomic_faulted(
        &self,
        path: &Path,
        injector: &dyn FaultInjector,
    ) -> Result<(), CheckpointError> {
        write_file(path, self, injector)
    }

    /// Load a checkpoint (or v1 `SavedModel::Online`) from `path`.
    ///
    /// A missing/unreadable file is [`CheckpointError::Io`]; anything that
    /// decodes wrong or fails [`Checkpoint::validate`] is
    /// [`CheckpointError::Corrupt`] — callers can distinguish "no
    /// checkpoint yet" from "the checkpoint is damaged, fall back".
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let ck: Checkpoint = read_file(path)?;
        ck.validate().map_err(|detail| CheckpointError::Corrupt {
            path: path.to_path_buf(),
            detail,
        })?;
        Ok(ck)
    }

    /// Structural consistency checks on a parsed checkpoint: pieces that
    /// deserialize fine individually but cannot have come from one engine
    /// are rejected here, before they can panic deep inside scoring or
    /// restore (scaler/forest width mismatch, a zero labelling window, a
    /// version from the future).
    pub fn validate(&self) -> Result<(), String> {
        // lint: allow(checkpoint_coverage, reason="shape validation probes only the structurally constrained fields; Engine::restore consumes every field")
        let Checkpoint::Online {
            scaler,
            forest,
            version,
            labeller,
            alarm_threshold,
            schema,
            window,
            ..
        } = self;
        if let Some(v) = version {
            if *v > CHECKPOINT_VERSION {
                return Err(format!(
                    "version {v} is newer than this binary's {CHECKPOINT_VERSION}"
                ));
            }
        }
        if scaler.n_outputs() == 0 {
            return Err("scaler has zero output columns".into());
        }
        if scaler.n_outputs() != forest.n_features() {
            return Err(format!(
                "scaler produces {} features but the forest expects {}",
                scaler.n_outputs(),
                forest.n_features()
            ));
        }
        if let Some(l) = labeller {
            if l.window() == 0 {
                return Err("labeller window is zero (queues could never release)".into());
            }
        }
        if let Some(t) = alarm_threshold {
            if !t.is_finite() {
                return Err(format!("alarm threshold {t} is not finite"));
            }
        }
        if let Some(s) = schema {
            s.validate().map_err(|e| format!("domain schema: {e}"))?;
            if let Some(w) = window {
                if w.n_base() != s.n_base_features() || w.n_features() != s.n_features() {
                    return Err(format!(
                        "window stage is {}→{} columns but the schema says {}→{}",
                        w.n_base(),
                        w.n_features(),
                        s.n_base_features(),
                        s.n_features()
                    ));
                }
            }
        } else if window.is_some() {
            return Err("window state present without a domain schema".into());
        }
        Ok(())
    }
}

/// The file image of `value`: magic, binary body, CRC32, tail magic.
fn encode_file<T: Serialize + ?Sized>(value: &T) -> Vec<u8> {
    let mut enc = Encoder::new(CKPT_MAGIC.to_vec());
    value.emit(&mut enc);
    let mut bytes = enc.finish();
    let crc = crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
    bytes.extend_from_slice(CKPT_TAIL_MAGIC);
    bytes
}

/// The `Value` tree inside a file image that starts with [`CKPT_MAGIC`].
fn decode_image(bytes: &[u8]) -> Result<Value, String> {
    let Some(body_end) = bytes
        .len()
        .checked_sub(TRAILER_LEN)
        .filter(|&end| end > CKPT_MAGIC.len())
    else {
        return Err(format!("file too short ({} bytes)", bytes.len()));
    };
    let (image, trailer) = bytes.split_at(body_end);
    let (crc, tail) = trailer.split_at(4);
    if tail != CKPT_TAIL_MAGIC {
        return Err("missing tail magic (torn or truncated write)".into());
    }
    let stored = u32::from_le_bytes([crc[0], crc[1], crc[2], crc[3]]);
    if crc32(image) != stored {
        return Err("CRC mismatch".into());
    }
    codec::decode(&image[CKPT_MAGIC.len()..]).map_err(|e| e.to_string())
}

/// Write `value` to `path` in the checkpoint file format, atomically:
/// sibling temporary file, fsync, rename over `path`, fsync the directory.
/// `injector` may replace the clean save with a fault
/// ([`CheckpointFault`]). [`Checkpoint::save_atomic`] and the CLI's model
/// files both save through here.
pub fn write_file<T: Serialize + ?Sized>(
    path: &Path,
    value: &T,
    injector: &dyn FaultInjector,
) -> Result<(), CheckpointError> {
    let io = |p: &Path, e: std::io::Error| CheckpointError::Io {
        path: p.to_path_buf(),
        detail: e.to_string(),
    };
    let mut bytes = encode_file(value);
    let tmp = path.with_extension("tmp");
    match injector.checkpoint_fault(path) {
        CheckpointFault::None => {}
        CheckpointFault::CrashBeforeRename => {
            // The crash window the rename protects against: tmp fully
            // written and synced, target untouched.
            std::fs::write(&tmp, &bytes).map_err(|e| io(&tmp, e))?;
            return Err(CheckpointError::Injected {
                path: path.to_path_buf(),
                detail: "crash before rename (tmp written, target untouched)".into(),
            });
        }
        CheckpointFault::LostRename => {
            // The save "succeeds", but only the tmp file reached the disk:
            // the rename's directory entry was lost with the fsync.
            std::fs::write(&tmp, &bytes).map_err(|e| io(&tmp, e))?;
            return Ok(());
        }
        CheckpointFault::TornWrite { keep } => {
            // A filesystem without the atomic guarantee: a prefix of
            // the new bytes lands directly in the target.
            let keep = keep.min(bytes.len());
            std::fs::write(path, &bytes[..keep]).map_err(|e| io(path, e))?;
            return Err(CheckpointError::Injected {
                path: path.to_path_buf(),
                detail: format!("torn write ({keep} of {} bytes)", bytes.len()),
            });
        }
        CheckpointFault::FlipByte { at, xor } => {
            // Silent bit rot: the save below succeeds; only the loader's
            // CRC can notice.
            let at = at.min(bytes.len().saturating_sub(1));
            if let Some(b) = bytes.get_mut(at) {
                *b ^= xor;
            }
        }
    }
    let mut file = std::fs::File::create(&tmp).map_err(|e| io(&tmp, e))?;
    file.write_all(&bytes).map_err(|e| io(&tmp, e))?;
    file.sync_all().map_err(|e| io(&tmp, e))?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(|e| io(path, e))?;
    sync_parent_dir(path).map_err(|e| CheckpointError::Io {
        path: path.to_path_buf(),
        detail: format!("fsync of the directory: {e}"),
    })
}

/// Read a value [`write_file`] wrote, or a JSON document of the same
/// shape: the format is told by the leading magic, not the extension.
/// A missing/unreadable file is [`CheckpointError::Io`]; bytes that fail
/// the framing checks or do not decode into `T` are
/// [`CheckpointError::Corrupt`].
pub fn read_file<T: Deserialize>(path: &Path) -> Result<T, CheckpointError> {
    let bytes = std::fs::read(path).map_err(|e| CheckpointError::Io {
        path: path.to_path_buf(),
        detail: e.to_string(),
    })?;
    parse_file(&bytes).map_err(|detail| CheckpointError::Corrupt {
        path: path.to_path_buf(),
        detail,
    })
}

/// Decode a file's bytes: the binary format if they start with its magic,
/// JSON otherwise.
fn parse_file<T: Deserialize>(bytes: &[u8]) -> Result<T, String> {
    if bytes.starts_with(CKPT_MAGIC) {
        T::de(&decode_image(bytes)?).map_err(|e| e.to_string())
    } else {
        serde_json::from_slice(bytes).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orfpred_core::{AdaptConfig, OrfConfig, UpdatePolicy};
    use orfpred_smart::gen::FleetEvent;
    use orfpred_smart::record::DiskDay;

    fn tiny() -> Checkpoint {
        let cols = vec![0usize, 2];
        let mut scaler = OnlineMinMax::new_log1p(&cols);
        scaler.update(&[1.0, 9.0, 3.0]);
        let mut forest = OnlineRandomForest::new(
            2,
            OrfConfig {
                n_trees: 2,
                warmup_age: 0,
                ..OrfConfig::default()
            },
            7,
        );
        forest.update(&[0.1, 0.9], true);
        let mut labeller = OnlineLabeller::new(7);
        labeller.observe_sample(3, 1, &[1.0, 9.0, 3.0]);
        Checkpoint::Online {
            scaler,
            forest,
            version: Some(CHECKPOINT_VERSION),
            labeller: Some(labeller),
            alarm_threshold: Some(0.4),
            alarms_raised: Some(5),
            next_seq: Some(42),
            events_ingested: Some(41),
            prep: Some(Preprocessor::new(&orfpred_prep::PrepConfig::tolerant())),
            adapt: None,
            schema: Some(DomainSchema::smart()),
            window: None,
        }
    }

    #[test]
    fn atomic_save_round_trips_byte_identically() {
        let ck = tiny();
        let path = std::env::temp_dir().join("orfpred_serve_ckpt_test.json");
        ck.save_atomic(&path).unwrap();
        let back = Checkpoint::load(&path).unwrap();
        // Byte-identity of re-serialization is the restore guarantee.
        assert_eq!(
            serde_json::to_string(&ck).unwrap(),
            serde_json::to_string(&back).unwrap()
        );
        assert!(
            !path.with_extension("tmp").exists(),
            "tmp file renamed away"
        );
        std::fs::remove_file(&path).ok();
    }

    /// A checkpoint with every optional part populated: prep, adapt, an
    /// mce schema and window state.
    fn full() -> Checkpoint {
        let schema = DomainSchema::mce();
        let mut window = WindowStage::new(&schema);
        for day in 0..4u16 {
            for disk in [2u32, 9] {
                let mut row = vec![0.0f32; schema.n_base_features()];
                row[1] = f32::from(day) * 3.0 + disk as f32;
                window.extend(disk, &mut row);
            }
        }
        let orf = OrfConfig {
            n_trees: 2,
            n_tests: 8,
            ..OrfConfig::default()
        };
        let policy = AdaptConfig::new(UpdatePolicy::Accumulate, vec![0, 1]);
        let mut adapt = AdaptiveState::new(&policy, 2, &orf, 9);
        for i in 0..60u16 {
            adapt.on_released(&[f32::from(i) * 0.25, 1.0], i % 7 == 0);
        }
        let mut prep = Preprocessor::new(&orfpred_prep::PrepConfig::tolerant());
        let mut out = Vec::new();
        for (day, x) in [(0u16, 1.0f32), (1, f32::NAN), (2, -3.5)] {
            let features = vec![x; schema.n_base_features()];
            let sample = DiskDay {
                disk_id: 4,
                day,
                features,
            };
            prep.observe(&FleetEvent::Sample(sample), &mut out);
        }
        let Checkpoint::Online {
            scaler,
            forest,
            labeller,
            ..
        } = tiny();
        Checkpoint::Online {
            scaler,
            forest,
            version: Some(CHECKPOINT_VERSION),
            labeller,
            alarm_threshold: Some(0.25),
            alarms_raised: Some(3),
            next_seq: Some(u64::MAX),
            events_ingested: Some(u64::MAX - 1),
            prep: Some(prep),
            adapt: Some(adapt),
            schema: Some(schema),
            window: Some(window),
        }
    }

    /// A checkpoint small enough to corrupt one byte at a time.
    fn small() -> Checkpoint {
        let mut scaler = OnlineMinMax::new_log1p(&[0]);
        scaler.update(&[2.0]);
        let cfg = OrfConfig {
            n_trees: 1,
            n_tests: 2,
            warmup_age: 0,
            ..OrfConfig::default()
        };
        let mut forest = OnlineRandomForest::new(1, cfg, 3);
        forest.update(&[0.5], false);
        Checkpoint::Online {
            scaler,
            forest,
            version: Some(CHECKPOINT_VERSION),
            labeller: Some(OnlineLabeller::new(3)),
            alarm_threshold: Some(0.5),
            alarms_raised: Some(0),
            next_seq: Some(9),
            events_ingested: Some(8),
            prep: None,
            adapt: None,
            schema: Some(DomainSchema::smart()),
            window: None,
        }
    }

    #[test]
    fn binary_image_is_the_value_tree_of_a_full_checkpoint() {
        let ck = full();
        ck.validate().unwrap();
        assert_eq!(codec::decode(&codec::encode(&ck)).unwrap(), ck.ser());
        let path = std::env::temp_dir().join("orfpred_serve_ckpt_full_test.ckpt");
        ck.save_atomic(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert!(bytes.starts_with(CKPT_MAGIC) && bytes.ends_with(CKPT_TAIL_MAGIC));
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(
            serde_json::to_string(&ck).unwrap(),
            serde_json::to_string(&back).unwrap()
        );
        // The same checkpoint as a legacy JSON file, under the binary
        // extension: detection goes by content.
        std::fs::write(&path, serde_json::to_vec(&ck).unwrap()).unwrap();
        let legacy = Checkpoint::load(&path).unwrap();
        assert_eq!(legacy.ser(), ck.ser());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_truncation_and_bit_flip_is_corrupt() {
        let ck = small();
        let bytes = encode_file(&ck);
        assert!(parse_file::<Checkpoint>(&bytes).is_ok());
        for cut in 0..bytes.len() {
            assert!(
                parse_file::<Checkpoint>(&bytes[..cut]).is_err(),
                "truncation to {cut} of {} bytes loaded",
                bytes.len()
            );
        }
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[i] ^= 1 << bit;
                assert!(
                    parse_file::<Checkpoint>(&flipped).is_err(),
                    "bit {bit} of byte {i} flipped and the file still loaded"
                );
            }
        }
        // Through the file API the same damage is a typed Corrupt error.
        let path = std::env::temp_dir().join("orfpred_serve_ckpt_flip_test.ckpt");
        let mut flipped = bytes.clone();
        flipped[bytes.len() / 2] ^= 0x10;
        std::fs::write(&path, &flipped).unwrap();
        match Checkpoint::load(&path) {
            Err(CheckpointError::Corrupt { detail, .. }) => {
                assert!(detail.contains("CRC"), "{detail}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_forged_length_with_a_valid_crc_is_corrupt_not_an_allocation() {
        // An array claiming 2^40 elements, correctly framed and checksummed.
        let mut bytes = CKPT_MAGIC.to_vec();
        bytes.push(6);
        orfpred_util::varint::write_u64(&mut bytes, 1 << 40);
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes.extend_from_slice(CKPT_TAIL_MAGIC);
        let err = parse_file::<Checkpoint>(&bytes).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
    }

    #[test]
    fn v1_saved_model_without_serving_fields_loads() {
        let ck = tiny();
        // Strip the serving fields down to a v1 document by hand.
        let Checkpoint::Online { scaler, forest, .. } = ck;
        let v1 = format!(
            "{{\"Online\":{{\"scaler\":{},\"forest\":{}}}}}",
            serde_json::to_string(&scaler).unwrap(),
            serde_json::to_string(&forest).unwrap()
        );
        let loaded: Checkpoint = serde_json::from_str(&v1).unwrap();
        loaded.validate().unwrap();
        let Checkpoint::Online {
            version,
            labeller,
            alarm_threshold,
            next_seq,
            ..
        } = loaded;
        assert_eq!(version, None);
        assert!(labeller.is_none());
        assert!(alarm_threshold.is_none());
        assert!(next_seq.is_none());
    }

    #[test]
    fn missing_file_is_io_not_corrupt() {
        let path = std::env::temp_dir().join("orfpred_serve_ckpt_does_not_exist.json");
        match Checkpoint::load(&path) {
            Err(CheckpointError::Io { .. }) => {}
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    #[test]
    fn truncated_file_is_a_typed_corrupt_error() {
        let path = std::env::temp_dir().join("orfpred_serve_ckpt_trunc_test.json");
        let ck = tiny();
        ck.save_atomic(&path).unwrap();
        let full = std::fs::read(&path).unwrap();
        for frac in [0, full.len() / 3, full.len() - 1] {
            std::fs::write(&path, &full[..frac]).unwrap();
            match Checkpoint::load(&path) {
                Err(CheckpointError::Corrupt { detail, .. }) => {
                    assert!(!detail.is_empty());
                }
                other => panic!("truncation to {frac} bytes: expected Corrupt, got {other:?}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn inconsistent_document_is_rejected_by_validate() {
        // Scaler for 2 columns, forest expecting 5: parses, must not load.
        let Checkpoint::Online { scaler, .. } = tiny();
        let forest = OnlineRandomForest::new(5, OrfConfig::default(), 7);
        let bad = Checkpoint::Online {
            scaler,
            forest,
            version: Some(CHECKPOINT_VERSION),
            labeller: None,
            alarm_threshold: Some(0.5),
            alarms_raised: None,
            next_seq: None,
            events_ingested: None,
            prep: None,
            adapt: None,
            schema: None,
            window: None,
        };
        let err = bad.validate().unwrap_err();
        assert!(err.contains("forest expects"), "got: {err}");
        let path = std::env::temp_dir().join("orfpred_serve_ckpt_inconsistent_test.json");
        std::fs::write(&path, serde_json::to_vec(&bad).unwrap()).unwrap();
        assert!(matches!(
            Checkpoint::load(&path),
            Err(CheckpointError::Corrupt { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn future_version_is_rejected() {
        let Checkpoint::Online { scaler, forest, .. } = tiny();
        let bad = Checkpoint::Online {
            scaler,
            forest,
            version: Some(CHECKPOINT_VERSION + 1),
            labeller: None,
            alarm_threshold: None,
            alarms_raised: None,
            next_seq: None,
            events_ingested: None,
            prep: None,
            adapt: None,
            schema: None,
            window: None,
        };
        assert!(bad.validate().unwrap_err().contains("newer"));
    }

    #[test]
    fn v3_checkpoint_with_non_default_domain_round_trips() {
        let schema = DomainSchema::mce();
        let mut window = WindowStage::new(&schema);
        // Give the window real per-disk history so the round trip covers it.
        for day in 0..4u16 {
            for disk in [2u32, 9] {
                let mut row = vec![0.0f32; schema.n_base_features()];
                row[1] = f32::from(day) * 3.0 + disk as f32;
                window.extend(disk, &mut row);
            }
        }
        let Checkpoint::Online {
            scaler,
            forest,
            labeller,
            ..
        } = tiny();
        let ck = Checkpoint::Online {
            scaler,
            forest,
            version: Some(CHECKPOINT_VERSION),
            labeller,
            alarm_threshold: Some(0.4),
            alarms_raised: Some(1),
            next_seq: Some(7),
            events_ingested: Some(6),
            prep: None,
            adapt: None,
            schema: Some(schema.clone()),
            window: Some(window),
        };
        let path = std::env::temp_dir().join("orfpred_serve_ckpt_v3_domain_test.json");
        ck.save_atomic(&path).unwrap();
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(
            serde_json::to_string(&ck).unwrap(),
            serde_json::to_string(&back).unwrap()
        );
        let Checkpoint::Online {
            schema: s,
            window: w,
            ..
        } = back;
        let s = s.unwrap();
        assert_eq!(s.fingerprint(), schema.fingerprint());
        let w = w.unwrap();
        assert_eq!(w.n_tracked(), 2, "per-disk history survived");
        assert_eq!(w.n_features(), schema.n_features());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v2_checkpoint_without_schema_loads_as_implicit_smart() {
        // A v2 document: everything tiny() has except the v3 fields.
        let Checkpoint::Online { scaler, forest, .. } = tiny();
        let v2 = format!(
            "{{\"Online\":{{\"scaler\":{},\"forest\":{},\"version\":2,\"alarm_threshold\":0.5}}}}",
            serde_json::to_string(&scaler).unwrap(),
            serde_json::to_string(&forest).unwrap()
        );
        let loaded: Checkpoint = serde_json::from_str(&v2).unwrap();
        loaded.validate().unwrap();
        let Checkpoint::Online { schema, window, .. } = loaded;
        assert!(
            schema.is_none(),
            "v2 files carry no schema (implicit SMART)"
        );
        assert!(window.is_none());
    }

    #[test]
    fn mismatched_window_and_schema_are_rejected() {
        let Checkpoint::Online { scaler, forest, .. } = tiny();
        let bad = Checkpoint::Online {
            scaler,
            forest,
            version: Some(CHECKPOINT_VERSION),
            labeller: None,
            alarm_threshold: None,
            alarms_raised: None,
            next_seq: None,
            events_ingested: None,
            prep: None,
            adapt: None,
            // SMART schema but a window stage built for the mce layout.
            schema: Some(DomainSchema::smart()),
            window: Some(WindowStage::new(&DomainSchema::mce())),
        };
        let err = bad.validate().unwrap_err();
        assert!(err.contains("window stage"), "got: {err}");
    }
}
