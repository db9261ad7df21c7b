//! Algorithm 2 end-to-end: the deployable online predictor.
//!
//! Consumes the chronological fleet event stream. For every arriving SMART
//! snapshot it (1) widens the streaming min–max scaler, (2) lets the
//! [`OnlineLabeller`] release any sample whose label has become certain and
//! feeds those to the ORF, and (3) scores the fresh snapshot, raising an
//! [`Alarm`] when the ensemble vote crosses the alarm threshold ("immediate
//! data migration is recommended", Algorithm 2 line 20). Disk failures
//! flush that disk's queue as positive training data.
//!
//! No offline retraining ever happens — this is the paper's headline
//! property.

use crate::adapt::{AdaptConfig, AdaptiveState};
use crate::config::OrfConfig;
use crate::forest::OnlineRandomForest;
use crate::labeller::OnlineLabeller;
use orfpred_prep::{PrepConfig, Preprocessor};
use orfpred_smart::gen::FleetEvent;
use orfpred_smart::record::DiskDay;
use orfpred_smart::scale::OnlineMinMax;
use orfpred_smart::{DomainSchema, WindowStage};
use serde::{Deserialize, Serialize};

/// Configuration of the online predictor.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct OnlinePredictorConfig {
    /// ORF hyper-parameters.
    pub orf: OrfConfig,
    /// Prediction window `W` in days (queue length; the paper fixes 7).
    pub window_days: usize,
    /// Ensemble vote threshold above which an alarm is raised.
    pub alarm_threshold: f32,
    /// Columns of the full feature row used as model inputs (typically the
    /// Table 2 selection for SMART). Indices may point at base *or*
    /// derived (windowed) columns of the domain schema.
    pub feature_cols: Vec<usize>,
    /// Seed for the forest's RNG streams.
    pub seed: u64,
    /// Optional preprocessing stage applied to events entering through
    /// [`OnlinePredictor::observe`] (imputation, dedup, stuck-at,
    /// survival re-checks). `None` feeds events to the labeller verbatim.
    pub prep: Option<PrepConfig>,
    /// Optional drift-triggered closed-loop adaptation. `None` keeps the
    /// paper's pure-ORF behaviour.
    pub adapt: Option<AdaptConfig>,
    /// Telemetry domain the pipeline runs on. `None` (and every config
    /// serialized before the field existed) means the implicit SMART
    /// domain with an empty derived plan — bit-exact with the pre-schema
    /// pipeline. A schema with a non-empty derived plan enables the
    /// sliding-window feature stage between prep and the labeller.
    pub domain: Option<DomainSchema>,
}

impl OnlinePredictorConfig {
    /// Default configuration over the given feature columns.
    pub fn new(feature_cols: Vec<usize>, seed: u64) -> Self {
        Self {
            orf: OrfConfig::default(),
            window_days: 7,
            alarm_threshold: 0.5,
            feature_cols,
            seed,
            prep: None,
            adapt: None,
            domain: None,
        }
    }

    /// Default configuration for an explicit telemetry domain.
    pub fn for_domain(schema: DomainSchema, feature_cols: Vec<usize>, seed: u64) -> Self {
        let mut cfg = Self::new(feature_cols, seed);
        cfg.domain = Some(schema);
        cfg
    }

    /// The resolved domain schema (`None` ⇒ implicit SMART).
    pub fn domain_schema(&self) -> DomainSchema {
        self.domain.clone().unwrap_or_else(DomainSchema::smart)
    }

    /// A window stage for this config's derived plan; `None` when the plan
    /// is empty (the stage would be a strict no-op).
    pub fn window_stage(&self) -> Option<WindowStage> {
        let stage = WindowStage::new(&self.domain_schema());
        if stage.is_noop() {
            None
        } else {
            Some(stage)
        }
    }
}

/// A raised at-risk alarm.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Alarm {
    /// Disk predicted to fail within the window.
    pub disk_id: u32,
    /// Day the alarm fired.
    pub day: u16,
    /// Ensemble score that triggered it.
    pub score: f32,
}

/// The deployable Algorithm 2 pipeline.
///
/// Serializable: a running deployment can be checkpointed (labeller queues,
/// scaler bounds, forest state, RNG streams) and restored bit-exactly.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct OnlinePredictor {
    labeller: OnlineLabeller,
    scaler: OnlineMinMax,
    forest: OnlineRandomForest,
    alarm_threshold: f32,
    scratch: Vec<f32>,
    /// The fresh row's scaler pre-transform, computed once per row and
    /// used both to widen the bounds and to score it.
    pre_row: Vec<f32>,
    alarms_raised: u64,
    prep: Option<Preprocessor>,
    adaptive: Option<AdaptiveState>,
    /// Sliding-window derived-feature stage (schema-driven); `None` for
    /// domains with an empty derived plan, which also keeps checkpoints
    /// written before the field existed loading unchanged.
    window: Option<WindowStage>,
}

impl OnlinePredictor {
    /// Build the pipeline.
    pub fn new(cfg: &OnlinePredictorConfig) -> Self {
        let n = cfg.feature_cols.len();
        assert!(n > 0, "need at least one feature column");
        Self {
            labeller: OnlineLabeller::new(cfg.window_days),
            scaler: OnlineMinMax::new_log1p(&cfg.feature_cols),
            forest: OnlineRandomForest::new(n, cfg.orf.clone(), cfg.seed),
            alarm_threshold: cfg.alarm_threshold,
            scratch: vec![0.0; n],
            pre_row: vec![0.0; n],
            alarms_raised: 0,
            prep: cfg.prep.as_ref().map(Preprocessor::new),
            adaptive: cfg
                .adapt
                .as_ref()
                .map(|a| AdaptiveState::new(a, n, &cfg.orf, cfg.seed)),
            window: cfg.window_stage(),
        }
    }

    /// Process one fleet event; returns an alarm if the fresh sample looks
    /// at-risk.
    ///
    /// This is the *raw ingest* entry point: when a preprocessing stage is
    /// configured the event runs through it first and the pipeline sees
    /// only what prep emits (a dropped sample never touches the labeller;
    /// a held failure commits later). The snapshot-level APIs
    /// ([`Self::observe_sample`], [`Self::observe_failure`]) are the
    /// post-prep entry points and bypass the stage.
    pub fn observe(&mut self, event: &FleetEvent) -> Option<Alarm> {
        let Some(mut prep) = self.prep.take() else {
            return self.observe_prepped(event);
        };
        let mut buf = Vec::new();
        prep.observe(event, &mut buf);
        let mut alarm = None;
        for ev in &buf {
            alarm = self.observe_prepped(ev).or(alarm);
        }
        self.prep = Some(prep);
        alarm
    }

    /// End of stream: flush failures still held by the preprocessing
    /// stage's survival re-check (no-op without prep or pending holds).
    pub fn finish(&mut self) {
        let Some(mut prep) = self.prep.take() else {
            return;
        };
        let mut buf = Vec::new();
        prep.finish(&mut buf);
        for ev in &buf {
            self.observe_prepped(ev);
        }
        self.prep = Some(prep);
    }

    /// Dispatch one already-preprocessed event.
    fn observe_prepped(&mut self, event: &FleetEvent) -> Option<Alarm> {
        match event {
            FleetEvent::Sample(rec) => self.observe_sample(rec),
            FleetEvent::Failure { disk_id, .. } => {
                self.observe_failure(*disk_id);
                None
            }
        }
    }

    /// Process one SMART snapshot (Algorithm 2 lines 10–22).
    pub fn observe_sample(&mut self, rec: &DiskDay) -> Option<Alarm> {
        self.observe_sample_scored(rec).1
    }

    /// Like [`OnlinePredictor::observe_sample`], but also returns the score
    /// the model assigned to the fresh sample (evaluation harnesses record
    /// every causal score, alarm or not).
    ///
    /// When the domain schema has a non-empty derived plan, the window
    /// stage extends the base row here — after prep, before the labeller —
    /// so the labeller queues, the scaler, and the forest all see
    /// full-width rows. With an empty plan the row passes through
    /// untouched (the SMART bit-exactness pin).
    pub fn observe_sample_scored(&mut self, rec: &DiskDay) -> (f32, Option<Alarm>) {
        if let Some(w) = self.window.as_mut() {
            let mut features = rec.features.clone();
            w.extend(rec.disk_id, &mut features);
            let extended = DiskDay {
                disk_id: rec.disk_id,
                day: rec.day,
                features,
            };
            return self.observe_extended(&extended);
        }
        self.observe_extended(rec)
    }

    /// Algorithm 2 lines 10–22 on a row already at full feature width.
    fn observe_extended(&mut self, rec: &DiskDay) -> (f32, Option<Alarm>) {
        // The scaler only ever widens, so updating it before training keeps
        // past and future transforms consistent.
        self.scaler
            .pre_transform_into(&rec.features, &mut self.pre_row);
        self.scaler.widen(&self.pre_row);

        // Model update phase: train on whatever just became labelled.
        if let Some(released) = self
            .labeller
            .observe_sample(rec.disk_id, rec.day, &rec.features)
        {
            self.scaler
                .transform_into(&released.features, &mut self.scratch);
            self.forest.update(&self.scratch, released.positive);
            self.adapt_on_released(&released.features, released.positive);
        }

        // Prediction phase on the fresh (still unlabelled) sample.
        self.scaler.scale_into(&self.pre_row, &mut self.scratch);
        let score = self.forest.score(&self.scratch);
        let alarm = if score >= self.alarm_threshold {
            self.alarms_raised += 1;
            Some(Alarm {
                disk_id: rec.disk_id,
                day: rec.day,
                score,
            })
        } else {
            None
        };
        (score, alarm)
    }

    /// Process a disk failure (Algorithm 2 lines 2–8): flush its queue as
    /// positive training samples.
    pub fn observe_failure(&mut self, disk_id: u32) {
        for released in self.labeller.observe_failure(disk_id) {
            self.scaler
                .transform_into(&released.features, &mut self.scratch);
            self.forest.update(&self.scratch, true);
            self.adapt_on_released(&released.features, true);
        }
        // The disk is gone; its window history can never be extended again.
        if let Some(w) = self.window.as_mut() {
            w.forget(disk_id);
        }
    }

    /// Feed one labeller release to the adaptation loop; on a drift event
    /// the update policy may swap in a rebuilt forest. Must run at the
    /// same per-release points in serial replay and in the serve engine's
    /// writer thread, or the two diverge.
    fn adapt_on_released(&mut self, features: &[f32], positive: bool) {
        let Some(adaptive) = self.adaptive.as_mut() else {
            return;
        };
        if adaptive.on_released(features, positive).is_some() {
            if let Some(forest) = adaptive.rebuild(&self.scaler) {
                self.forest = forest;
            }
        }
    }

    /// Score a full-width feature row with the current model (no state
    /// change). For a domain with derived columns the caller supplies them
    /// (e.g. via [`WindowStage::extend_records`] offline); stateless probes
    /// may zero-pad.
    pub fn score_row(&self, features: &[f32]) -> f32 {
        let mut scaled = vec![0.0f32; self.scaler.n_outputs()];
        self.scaler.transform_into(features, &mut scaled);
        self.forest.score(&scaled)
    }

    /// Change the alarm operating point.
    pub fn set_alarm_threshold(&mut self, tau: f32) {
        self.alarm_threshold = tau;
    }

    /// Current alarm operating point.
    pub fn alarm_threshold(&self) -> f32 {
        self.alarm_threshold
    }

    /// The underlying forest (diagnostics / evaluation).
    pub fn forest(&self) -> &OnlineRandomForest {
        &self.forest
    }

    /// The labeller (diagnostics).
    pub fn labeller(&self) -> &OnlineLabeller {
        &self.labeller
    }

    /// Streaming scaler (diagnostics).
    pub fn scaler(&self) -> &OnlineMinMax {
        &self.scaler
    }

    /// Total alarms raised so far.
    pub fn alarms_raised(&self) -> u64 {
        self.alarms_raised
    }

    /// The preprocessing stage, when configured (counters / diagnostics).
    pub fn prep(&self) -> Option<&Preprocessor> {
        self.prep.as_ref()
    }

    /// The adaptation loop, when configured (counters / diagnostics).
    pub fn adaptive(&self) -> Option<&AdaptiveState> {
        self.adaptive.as_ref()
    }

    /// The window stage, when the domain's derived plan is non-empty
    /// (counters / diagnostics).
    pub fn window(&self) -> Option<&WindowStage> {
        self.window.as_ref()
    }

    /// Freeze the current model state for batch scoring: the compiled
    /// forest plus a copy of the streaming scaler. Scoring a raw row with
    /// the pair is bit-identical to [`Self::score_row`] at the freeze point.
    pub fn freeze(&self) -> (orfpred_trees::FrozenForest, OnlineMinMax) {
        (self.forest.freeze(), self.scaler.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orfpred_smart::attrs::{feature_index, FeatureKind, N_FEATURES};

    fn cols() -> Vec<usize> {
        vec![
            feature_index(187, FeatureKind::Raw).unwrap(),
            feature_index(197, FeatureKind::Raw).unwrap(),
            feature_index(5, FeatureKind::Raw).unwrap(),
        ]
    }

    fn cfg() -> OnlinePredictorConfig {
        let mut c = OnlinePredictorConfig::new(cols(), 77);
        c.orf.n_trees = 10;
        c.orf.n_tests = 30;
        c.orf.min_parent_size = 20.0;
        c.orf.min_gain = 0.02;
        c.orf.lambda_neg = 0.1;
        c.orf.warmup_age = 5;
        c
    }

    fn rec(disk_id: u32, day: u16, err: f32) -> DiskDay {
        let mut features = vec![0.0f32; N_FEATURES];
        for &c in &cols() {
            features[c] = err;
        }
        DiskDay {
            disk_id,
            day,
            features,
        }
    }

    /// Healthy disks report ~0 errors; dying disks ramp up for their last
    /// week. Returns (predictor, last trained day).
    fn train_stream(p: &mut OnlinePredictor, n_disks: u32, days: u16) {
        for day in 0..days {
            for disk in 0..n_disks {
                // Every 10th disk dies at day = 40 + disk, with a ramp.
                let dies_at = if disk % 10 == 0 {
                    40 + disk as u16
                } else {
                    u16::MAX
                };
                if day > dies_at {
                    continue;
                }
                let err = if dies_at != u16::MAX && day + 7 > dies_at {
                    20.0 + f32::from(day + 7 - dies_at)
                } else {
                    0.0
                };
                p.observe_sample(&rec(disk, day, err));
                if day == dies_at {
                    p.observe_failure(disk);
                }
            }
        }
    }

    #[test]
    fn pipeline_learns_to_separate_ramps_from_healthy() {
        let mut p = OnlinePredictor::new(&cfg());
        train_stream(&mut p, 50, 120);
        assert!(p.forest().samples_seen() > 1_000, "forest was fed");
        let healthy = p.score_row(&rec(999, 0, 0.0).features);
        let dying = p.score_row(&rec(999, 0, 25.0).features);
        assert!(dying > healthy + 0.3, "dying {dying} vs healthy {healthy}");
    }

    #[test]
    fn alarms_fire_on_risky_samples_only() {
        let mut p = OnlinePredictor::new(&cfg());
        train_stream(&mut p, 50, 120);
        p.set_alarm_threshold(0.5);
        let a = p.observe_sample(&rec(500, 121, 25.0));
        assert!(a.is_some(), "ramping disk must alarm");
        let a = a.unwrap();
        assert_eq!(a.disk_id, 500);
        assert!(a.score >= 0.5);
        let none = p.observe_sample(&rec(501, 121, 0.0));
        assert!(none.is_none(), "healthy disk must stay silent");
        assert!(p.alarms_raised() >= 1);
    }

    #[test]
    fn failure_without_samples_is_harmless() {
        let mut p = OnlinePredictor::new(&cfg());
        p.observe_failure(12345);
        assert_eq!(p.forest().samples_seen(), 0);
    }

    #[test]
    fn observe_dispatches_both_event_kinds() {
        let mut p = OnlinePredictor::new(&cfg());
        let r = rec(1, 0, 0.0);
        assert!(p.observe(&FleetEvent::Sample(r)).is_none());
        assert_eq!(p.labeller().n_pending(), 1);
        p.observe(&FleetEvent::Failure { disk_id: 1, day: 0 });
        assert_eq!(p.labeller().n_pending(), 0);
        assert_eq!(
            p.forest().samples_seen(),
            1,
            "queued sample trained as positive"
        );
    }

    #[test]
    fn checkpoint_restore_resumes_bit_exactly() {
        let mut p = OnlinePredictor::new(&cfg());
        train_stream(&mut p, 30, 80);
        let checkpoint = serde_json::to_string(&p).expect("checkpoint");
        let mut restored: OnlinePredictor = serde_json::from_str(&checkpoint).expect("restore");
        // Continue both pipelines identically: same updates, same scores.
        for day in 80..120u16 {
            for disk in 0..30u32 {
                let r = rec(disk, day, if disk % 7 == 0 { 10.0 } else { 0.0 });
                let a = p.observe_sample(&r);
                let b = restored.observe_sample(&r);
                assert_eq!(a, b, "divergence at day {day} disk {disk}");
            }
        }
        assert_eq!(p.forest().samples_seen(), restored.forest().samples_seen());
    }

    #[test]
    fn windowed_domain_extends_rows_and_checkpoints_bit_exactly() {
        // An mce-domain config whose feature columns include derived
        // (windowed) indices; the predictor must extend rows internally.
        let schema = DomainSchema::mce();
        let n_base = schema.n_base_features();
        let cols = vec![1usize, 3, n_base, n_base + 1]; // two base, two derived
        let mut c = OnlinePredictorConfig::for_domain(schema.clone(), cols, 41);
        c.orf.n_trees = 5;
        c.orf.n_tests = 10;
        c.orf.min_parent_size = 10.0;
        c.orf.min_gain = 0.0;
        c.orf.warmup_age = 0;
        let mut p = OnlinePredictor::new(&c);
        assert!(p.window().is_some(), "mce derived plan enables the stage");

        let mce_rec = |disk: u32, day: u16, v: f32| DiskDay {
            disk_id: disk,
            day,
            features: {
                let mut f = vec![0.0f32; n_base];
                f[1] = v;
                f[3] = v * 0.5;
                f
            },
        };
        for day in 0..40u16 {
            for disk in 0..8u32 {
                p.observe_sample(&mce_rec(
                    disk,
                    day,
                    f32::from(day % 6) * f32::from(disk as u8 + 1),
                ));
            }
        }
        p.observe_failure(3);
        assert_eq!(
            p.window().unwrap().n_tracked(),
            7,
            "failed disk's window state is dropped"
        );

        // Checkpoint mid-stream and continue both pipelines identically.
        let json = serde_json::to_string(&p).unwrap();
        let mut restored: OnlinePredictor = serde_json::from_str(&json).unwrap();
        for day in 40..70u16 {
            for disk in 0..8u32 {
                if disk == 3 {
                    continue;
                }
                let r = mce_rec(disk, day, f32::from(day % 9));
                let (sa, aa) = p.observe_sample_scored(&r);
                let (sb, ab) = restored.observe_sample_scored(&r);
                assert_eq!(sa.to_bits(), sb.to_bits(), "day {day} disk {disk}");
                assert_eq!(aa, ab);
            }
        }
    }

    #[test]
    fn smart_domain_with_empty_plan_is_bit_exact_with_no_domain() {
        // Explicit SMART schema (empty derived plan) must not perturb the
        // pipeline at all relative to the implicit default.
        let mut a = OnlinePredictor::new(&cfg());
        let explicit = OnlinePredictorConfig {
            domain: Some(DomainSchema::smart()),
            ..cfg()
        };
        let mut b = OnlinePredictor::new(&explicit);
        assert!(b.window().is_none(), "empty plan must not build a stage");
        train_stream(&mut a, 30, 80);
        train_stream(&mut b, 30, 80);
        let probe = rec(999, 81, 13.0);
        assert_eq!(
            a.score_row(&probe.features).to_bits(),
            b.score_row(&probe.features).to_bits()
        );
    }

    #[test]
    fn threshold_controls_alarm_volume() {
        let mut p = OnlinePredictor::new(&cfg());
        train_stream(&mut p, 50, 120);
        let probe = rec(900, 121, 12.0);
        let score = p.score_row(&probe.features);
        p.set_alarm_threshold(score + 0.01);
        assert!(p.observe_sample(&probe).is_none());
        p.set_alarm_threshold((score - 0.01).max(0.0));
        assert!(p.observe_sample(&rec(901, 121, 12.0)).is_some());
    }
}
