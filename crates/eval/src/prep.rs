//! Glue from labelled datasets to trained models.
//!
//! Implements the offline training pipeline of §4.4 — label with the 7-day
//! window, keep the training disks, λ-downsample the negatives (Eq. 4), fit
//! the min–max scaler on the kept rows, build the matrix — plus the
//! chronological streaming protocol used to train ORF in Tables 4 and
//! Figures 2–3 ("we simulate the sequential arrival of training data
//! according to the timestamp of labeled samples").

use orfpred_core::{OnlineRandomForest, OrfConfig};
use orfpred_smart::label::{LabelPolicy, Labeled};
use orfpred_smart::record::Dataset;
use orfpred_smart::scale::{MinMaxScaler, OnlineMinMax};
use orfpred_trees::downsample_negatives;
use orfpred_util::{Matrix, Xoshiro256pp};

/// Labelled samples of the training disks, observable up to `cutoff`.
pub fn training_labels(ds: &Dataset, is_train: &[bool], cutoff: u16, window: u16) -> Vec<Labeled> {
    let policy = LabelPolicy {
        window_days: window,
    };
    policy
        .label_dataset(ds, cutoff)
        .into_iter()
        .filter(|l| is_train[ds.records[l.record].disk_id as usize])
        .collect()
}

/// Labelled training-disk samples within `(from, to]` (the 1-month
/// replacing strategy of §4.5).
pub fn training_labels_range(
    ds: &Dataset,
    is_train: &[bool],
    from: u16,
    to: u16,
    window: u16,
) -> Vec<Labeled> {
    let policy = LabelPolicy {
        window_days: window,
    };
    policy
        .label_range(ds, from, to)
        .into_iter()
        .filter(|l| is_train[ds.records[l.record].disk_id as usize])
        .collect()
}

/// A ready-to-train design matrix plus the scaler that produced it.
pub struct TrainMatrix {
    /// Scaled feature rows.
    pub x: Matrix,
    /// Labels aligned with `x`.
    pub y: Vec<bool>,
    /// Scaler fitted on the kept (post-downsampling) rows.
    pub scaler: MinMaxScaler,
}

impl TrainMatrix {
    /// Number of positive labels.
    pub fn n_pos(&self) -> usize {
        self.y.iter().filter(|&&b| b).count()
    }
}

/// Downsample (λ = `lambda`, `None` = keep all), fit the scaler, build the
/// matrix. Returns `None` when no positives survive (a model cannot be
/// trained yet — early months of the stream).
pub fn build_matrix(
    ds: &Dataset,
    labeled: &[Labeled],
    cols: &[usize],
    lambda: Option<f64>,
    rng: &mut Xoshiro256pp,
) -> Option<TrainMatrix> {
    if labeled.is_empty() {
        return None;
    }
    let y_all: Vec<bool> = labeled.iter().map(|l| l.positive).collect();
    if !y_all.iter().any(|&b| b) {
        return None;
    }
    let keep = downsample_negatives(&y_all, lambda, rng);
    // log1p + min–max: heavy-tailed counters need the compression (see
    // `orfpred_smart::scale`).
    let scaler = MinMaxScaler::fit_log1p(
        keep.iter()
            .map(|&k| ds.records[labeled[k].record].features.as_slice()),
        cols,
    );
    let mut x = Matrix::with_capacity(cols.len(), keep.len());
    let mut y = Vec::with_capacity(keep.len());
    let mut buf = vec![0.0f32; cols.len()];
    for &k in &keep {
        scaler.transform_into(&ds.records[labeled[k].record].features, &mut buf);
        x.push_row(&buf);
        y.push(labeled[k].positive);
    }
    Some(TrainMatrix { x, y, scaler })
}

/// Train an ORF by replaying the labelled samples in timestamp order
/// (batched per day through `update_batch`), with a streaming scaler
/// that widens as data arrives — no future peeking.
///
/// Returns the forest and the scaler state at the end of the stream.
pub fn stream_orf(
    ds: &Dataset,
    labeled: &[Labeled],
    cols: &[usize],
    cfg: &OrfConfig,
    seed: u64,
) -> (OnlineRandomForest, OnlineMinMax) {
    let mut forest = OnlineRandomForest::new(cols.len(), cfg.clone(), seed);
    let mut scaler = OnlineMinMax::new_log1p(cols);
    stream_orf_continue(ds, labeled, &mut forest, &mut scaler);
    (forest, scaler)
}

/// Continue an existing ORF stream with more labelled samples (the monthly
/// harness feeds increments between evaluation points).
///
/// `labeled` must be sorted by record position (= chronological), which is
/// what [`training_labels`] produces.
pub fn stream_orf_continue(
    ds: &Dataset,
    labeled: &[Labeled],
    forest: &mut OnlineRandomForest,
    scaler: &mut OnlineMinMax,
) {
    let mut i = 0usize;
    let mut scaled_rows: Vec<(Vec<f32>, bool)> = Vec::new();
    while i < labeled.len() {
        // One calendar day per batch.
        let day = ds.records[labeled[i].record].day;
        let mut j = i;
        scaled_rows.clear();
        while j < labeled.len() && ds.records[labeled[j].record].day == day {
            let rec = &ds.records[labeled[j].record];
            scaler.update(&rec.features);
            scaled_rows.push((scaler.transform(&rec.features), labeled[j].positive));
            j += 1;
        }
        let batch: Vec<(&[f32], bool)> = scaled_rows
            .iter()
            .map(|(v, p)| (v.as_slice(), *p))
            .collect();
        forest.update_batch(&batch);
        i = j;
    }
}

/// Truncate a dataset at `cutoff` (inclusive): drop later records, clamp
/// observation windows, and mark disks failing after the cutoff as (still)
/// good. This is "the world as known at `cutoff`" — used to tune operating
/// points on training-period data without leaking the future (§4.5).
pub fn truncate_dataset(ds: &Dataset, cutoff: u16) -> Dataset {
    let records = ds
        .records
        .iter()
        .filter(|r| r.day <= cutoff)
        .cloned()
        .collect();
    let disks = ds
        .disks
        .iter()
        .map(|d| {
            let mut d = *d;
            if d.install_day > cutoff {
                // Not yet installed: collapse to an empty window at the
                // cutoff (no records reference it).
                d.install_day = cutoff;
                d.last_day = cutoff;
                d.failed = false;
            } else if d.last_day > cutoff {
                d.last_day = cutoff;
                d.failed = false;
            }
            d
        })
        .collect();
    Dataset {
        model: ds.model.clone(),
        duration_days: cutoff.min(ds.duration_days),
        records,
        disks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orfpred_smart::attrs::{feature_index, FeatureKind};
    use orfpred_smart::gen::{FleetConfig, FleetSim, ScalePreset};

    fn dataset() -> Dataset {
        let mut cfg = FleetConfig::sta(ScalePreset::Tiny, 11);
        cfg.n_good = 60;
        cfg.n_failed = 12;
        cfg.duration_days = 240;
        FleetSim::collect(&cfg)
    }

    fn cols() -> Vec<usize> {
        vec![
            feature_index(5, FeatureKind::Raw).unwrap(),
            feature_index(187, FeatureKind::Raw).unwrap(),
            feature_index(197, FeatureKind::Raw).unwrap(),
            feature_index(9, FeatureKind::Raw).unwrap(),
        ]
    }

    #[test]
    fn training_labels_only_cover_train_disks_and_cutoff() {
        let ds = dataset();
        let mut is_train = vec![false; ds.disks.len()];
        is_train[..30].fill(true);
        let labels = training_labels(&ds, &is_train, 100, 7);
        assert!(!labels.is_empty());
        for l in &labels {
            let rec = &ds.records[l.record];
            assert!(is_train[rec.disk_id as usize]);
            assert!(rec.day <= 100);
        }
    }

    #[test]
    fn build_matrix_balances_and_scales() {
        let ds = dataset();
        let is_train = vec![true; ds.disks.len()];
        let labels = training_labels(&ds, &is_train, ds.duration_days, 7);
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let tm = build_matrix(&ds, &labels, &cols(), Some(3.0), &mut rng).unwrap();
        let n_pos = tm.n_pos();
        assert!(n_pos > 0);
        let n_neg = tm.y.len() - n_pos;
        assert!(
            (n_neg as f64 / n_pos as f64 - 3.0).abs() < 0.2,
            "ratio {} with {n_pos} positives",
            n_neg as f64 / n_pos as f64
        );
        for i in 0..tm.x.n_rows() {
            for &v in tm.x.row(i) {
                assert!((0.0..=1.0).contains(&v));
            }
        }
    }

    #[test]
    fn build_matrix_without_positives_returns_none() {
        let ds = dataset();
        let is_train = vec![true; ds.disks.len()];
        // Cutoff before any failure can be observed.
        let labels = training_labels(&ds, &is_train, 10, 7);
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        assert!(build_matrix(&ds, &labels, &cols(), Some(3.0), &mut rng).is_none());
    }

    #[test]
    fn stream_orf_learns_the_failure_signature() {
        let ds = dataset();
        let is_train = vec![true; ds.disks.len()];
        let labels = training_labels(&ds, &is_train, ds.duration_days, 7);
        let cfg = OrfConfig {
            n_trees: 15,
            n_tests: 60,
            min_parent_size: 40.0,
            min_gain: 0.02,
            lambda_neg: 0.05,
            warmup_age: 10,
            ..OrfConfig::default()
        };
        let (forest, scaler) = stream_orf(&ds, &labels, &cols(), &cfg, 7);
        assert!(forest.samples_seen() > 100);
        // Failure signature: large raw counters → high score.
        let mut sick = [0.0f32; orfpred_smart::attrs::N_FEATURES];
        for &c in &cols() {
            sick[c] = 1e9;
        }
        let healthy = [0.0f32; orfpred_smart::attrs::N_FEATURES];
        let mut s_buf = vec![0.0f32; 4];
        scaler.transform_into(&sick, &mut s_buf);
        let sick_score = forest.score(&s_buf);
        scaler.transform_into(&healthy, &mut s_buf);
        let healthy_score = forest.score(&s_buf);
        assert!(
            sick_score > healthy_score + 0.25,
            "sick {sick_score} vs healthy {healthy_score}"
        );
    }

    #[test]
    fn truncate_dataset_hides_the_future() {
        let ds = dataset();
        let cutoff = 120u16;
        let cut = truncate_dataset(&ds, cutoff);
        cut.validate().unwrap();
        assert!(cut.records.iter().all(|r| r.day <= cutoff));
        for (orig, t) in ds.disks.iter().zip(&cut.disks) {
            if orig.failed && orig.last_day <= cutoff {
                assert!(t.failed, "observed failures stay failures");
            }
            if orig.last_day > cutoff {
                assert!(!t.failed, "future failures are invisible");
                assert_eq!(t.last_day, cutoff.max(t.install_day));
            }
        }
        assert!(cut.n_failed() <= ds.n_failed());
    }
}
