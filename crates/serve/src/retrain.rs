//! Closing the drift loop: label lag and guarded retraining.
//!
//! A drift monitor that only *reports* decay leaves the recovery to a
//! human. This module closes the loop (DESIGN.md §15):
//!
//! * [`LabelLagBuffer`] models the operational reality that ground truth
//!   arrives late — a manual review queue, a chargeback window, a
//!   platform audit all label an item `lag` virtual ticks after it was
//!   scored. Retraining can only ever use *matured* labels; the examples
//!   still inside the lag window are invisible.
//! * [`RetrainController`] turns a `Critical` drift verdict into a
//!   retrain over the matured window, then applies a **promotion
//!   guard**: the candidate is validated on a held-out slice of the
//!   matured labels (never on its own training rows) against the
//!   incumbent, round-tripped through the exact snapshot wire format
//!   the serving path loads, and promoted only if it is not worse than
//!   the incumbent by more than [`RetrainConfig::f1_tolerance`]. A
//!   failed or regressing candidate leaves the serving model untouched
//!   — drift recovery must never make the fleet worse than doing
//!   nothing.
//!
//! Promotion itself rides the existing hot-swap machinery: with
//! [`RetrainConfig::snapshot_path`] set, the controller writes the
//! validated snapshot as a checksummed atomic file and the
//! [`crate::ModelWatcher`] (or `/admin/load`) performs the swap — the
//! same zero-dropped-requests path every other deploy takes. Without a
//! path, the controller swaps the in-process [`ModelSlot`] directly.

use crate::model::ModelSlot;
use cats_core::{CatsPipeline, ItemComments, PipelineSnapshot};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Arc;

/// One item whose ground-truth label has (eventually) arrived.
#[derive(Debug, Clone)]
pub struct LaggedExample {
    /// The item's comments as scored.
    pub comments: ItemComments,
    /// Public sales volume at scoring time (stage-1 filter input).
    pub sales_volume: u64,
    /// Ground truth: 1 = fraud, 0 = organic.
    pub label: u8,
}

/// Ground-truth labels delayed by a fixed number of virtual ticks.
///
/// `push` records an example at its scoring tick; `advance` moves the
/// virtual clock and matures every example whose label has now arrived
/// (`scored_tick + lag <= now`). The matured window is bounded: beyond
/// `capacity` examples the oldest are dropped, so the retrain window
/// tracks the recent — drifted — distribution instead of averaging over
/// every epoch ever seen.
pub struct LabelLagBuffer {
    lag: u64,
    capacity: usize,
    pending: VecDeque<(u64, LaggedExample)>,
    matured: Vec<LaggedExample>,
}

impl LabelLagBuffer {
    /// A buffer whose labels arrive `lag` ticks late, keeping at most
    /// `capacity` matured examples.
    pub fn new(lag: u64, capacity: usize) -> Self {
        Self { lag, capacity: capacity.max(1), pending: VecDeque::new(), matured: Vec::new() }
    }

    /// Records an example scored at `tick`; its label stays invisible
    /// until the clock passes `tick + lag`.
    pub fn push(&mut self, tick: u64, example: LaggedExample) {
        self.pending.push_back((tick, example));
    }

    /// Advances the virtual clock to `now`, maturing every example whose
    /// label has arrived. Returns how many matured in this call.
    pub fn advance(&mut self, now: u64) -> usize {
        let mut moved = 0usize;
        while let Some((tick, _)) = self.pending.front() {
            if tick.saturating_add(self.lag) > now {
                break;
            }
            let (_, ex) = self.pending.pop_front().expect("front exists");
            self.matured.push(ex);
            moved += 1;
        }
        if self.matured.len() > self.capacity {
            let excess = self.matured.len() - self.capacity;
            self.matured.drain(..excess);
        }
        cats_obs::gauge("cats.serve.retrain.labeled_window").set(self.matured.len() as f64);
        moved
    }

    /// The matured (labeled) window, oldest first.
    pub fn matured(&self) -> &[LaggedExample] {
        &self.matured
    }

    /// Examples still waiting for their label.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// The configured label delay in ticks.
    pub fn lag(&self) -> u64 {
        self.lag
    }
}

/// Tuning knobs for the retrain controller.
#[derive(Debug, Clone)]
pub struct RetrainConfig {
    /// Minimum matured labels before a retrain is attempted; below this
    /// a `Critical` verdict waits for more ground truth.
    pub min_labeled: usize,
    /// Every n-th matured example goes to the holdout slice (the rest
    /// train). Clamped to ≥ 2 so both slices are non-empty.
    pub holdout_every: usize,
    /// How much worse (absolute holdout F1) a candidate may be than the
    /// incumbent and still promote. Zero means strictly-no-worse.
    pub f1_tolerance: f64,
    /// Ticks after a retrain attempt (promoted or not) before the next
    /// may fire, so a persistently-Critical monitor cannot retrain in a
    /// tight loop faster than labels mature.
    pub cooldown_ticks: u64,
    /// When set, promotion writes the validated snapshot here as a
    /// checksummed atomic file for the [`crate::ModelWatcher`] /
    /// `/admin/load` machinery to swap in; when `None`, the controller
    /// swaps the in-process slot directly.
    pub snapshot_path: Option<PathBuf>,
}

impl Default for RetrainConfig {
    fn default() -> Self {
        Self {
            min_labeled: 64,
            holdout_every: 5,
            f1_tolerance: 0.02,
            cooldown_ticks: 100,
            snapshot_path: None,
        }
    }
}

/// What one [`RetrainController::maybe_retrain`] call did.
#[derive(Debug, Clone, PartialEq)]
pub enum RetrainOutcome {
    /// Nothing ran: drift not critical, cooling down, or too few labels.
    Idle,
    /// The candidate passed the promotion guard. `version` is the new
    /// slot version for direct swaps, `None` when promotion went through
    /// the snapshot file (the watcher assigns the version when it picks
    /// the file up).
    Promoted { version: Option<u64>, candidate_f1: f64, incumbent_f1: f64 },
    /// The candidate validated worse than the incumbent and was dropped;
    /// the serving model is untouched.
    Rejected { candidate_f1: f64, incumbent_f1: f64 },
    /// The trainer errored or produced an unservable snapshot; the
    /// serving model is untouched.
    Failed { reason: String },
}

/// Drives the drift → retrain → validate → promote loop against one
/// [`ModelSlot`]. The controller owns no thread: callers (the serving
/// shell, the drift bench) invoke [`RetrainController::maybe_retrain`]
/// on their own cadence with the current drift verdict.
pub struct RetrainController {
    slot: Arc<ModelSlot>,
    config: RetrainConfig,
    last_attempt: Option<u64>,
}

impl RetrainController {
    /// A controller promoting into `slot` under `config`.
    pub fn new(slot: Arc<ModelSlot>, config: RetrainConfig) -> Self {
        Self { slot, config, last_attempt: None }
    }

    /// The active configuration.
    pub fn config(&self) -> &RetrainConfig {
        &self.config
    }

    /// Runs one control step at virtual tick `tick`. `critical` is the
    /// drift monitor's verdict (`DriftVerdict::Critical`); anything less
    /// is a no-op. `trainer` builds a candidate snapshot from the
    /// training slice of the matured window: either a whole pipeline,
    /// trained by `CatsPipeline::train` over a checkpoint store (so a
    /// crash mid-retrain resumes instead of restarting) and taken
    /// by `CatsPipeline::to_snapshot`, or, as `exp_drift` does, a GBT
    /// refit under the incumbent's analyzer and passed to
    /// `CatsPipeline::snapshot`.
    pub fn maybe_retrain(
        &mut self,
        tick: u64,
        critical: bool,
        buffer: &LabelLagBuffer,
        trainer: &mut dyn FnMut(&[LaggedExample]) -> Result<PipelineSnapshot, String>,
    ) -> RetrainOutcome {
        if !critical {
            return RetrainOutcome::Idle;
        }
        if let Some(last) = self.last_attempt {
            if tick.saturating_sub(last) < self.config.cooldown_ticks {
                return RetrainOutcome::Idle;
            }
        }
        let matured = buffer.matured();
        if matured.len() < self.config.min_labeled.max(2) {
            cats_obs::counter("cats.serve.retrain.waiting_labels").inc();
            return RetrainOutcome::Idle;
        }
        self.last_attempt = Some(tick);
        cats_obs::counter("cats.serve.retrain.triggered").inc();

        // Split matured labels: every n-th example is held out for the
        // promotion guard, the rest train the candidate. The candidate
        // is never judged on its own training rows.
        let every = self.config.holdout_every.max(2);
        let mut train = Vec::new();
        let mut holdout = Vec::new();
        for (i, ex) in matured.iter().enumerate() {
            if i % every == 0 {
                holdout.push(ex.clone());
            } else {
                train.push(ex.clone());
            }
        }

        let snapshot = match trainer(&train) {
            Ok(s) => s,
            Err(reason) => {
                cats_obs::counter("cats.serve.retrain.failed").inc();
                return RetrainOutcome::Failed { reason };
            }
        };
        // Validate the exact artifact the serving path would load: the
        // snapshot round-trips through its binary wire format before any
        // holdout example is scored. A snapshot that cannot survive its
        // own encoding must never be promoted.
        let candidate = match snapshot
            .to_io2_bytes()
            .map_err(|e| e.to_string())
            .and_then(|b| PipelineSnapshot::from_bytes(&b).map_err(|e| e.to_string()))
        {
            Ok(reparsed) => CatsPipeline::restore(reparsed),
            Err(reason) => {
                cats_obs::counter("cats.serve.retrain.failed").inc();
                cats_obs::counter("cats.serve.model.swap_rejected").inc();
                return RetrainOutcome::Failed {
                    reason: format!("candidate snapshot does not round-trip: {reason}"),
                };
            }
        };

        let incumbent = self.slot.load();
        let candidate_f1 = holdout_f1(&candidate, &holdout);
        let incumbent_f1 = holdout_f1(&incumbent.pipeline, &holdout);
        cats_obs::gauge("cats.serve.retrain.candidate_f1").set(candidate_f1);
        cats_obs::gauge("cats.serve.retrain.incumbent_f1").set(incumbent_f1);
        if candidate_f1 + self.config.f1_tolerance < incumbent_f1 {
            // Guarded rollback: the retrain produced something worse
            // than the decayed incumbent (poisoned labels, a degenerate
            // window). Keep serving the incumbent.
            cats_obs::counter("cats.serve.retrain.rejected").inc();
            cats_obs::counter("cats.serve.model.swap_rejected").inc();
            return RetrainOutcome::Rejected { candidate_f1, incumbent_f1 };
        }

        let version = match &self.config.snapshot_path {
            Some(path) => {
                if let Err(e) = snapshot.save(path) {
                    cats_obs::counter("cats.serve.retrain.failed").inc();
                    return RetrainOutcome::Failed { reason: e.to_string() };
                }
                None
            }
            None => Some(self.slot.swap(candidate)),
        };
        cats_obs::counter("cats.serve.retrain.promoted").inc();
        RetrainOutcome::Promoted { version, candidate_f1, incumbent_f1 }
    }
}

/// F1 of `pipeline`'s verdicts against the holdout's ground truth
/// (0 when the pipeline finds no true positive at all).
fn holdout_f1(pipeline: &CatsPipeline, holdout: &[LaggedExample]) -> f64 {
    let comments: Vec<&ItemComments> = holdout.iter().map(|ex| &ex.comments).collect();
    let sales: Vec<u64> = holdout.iter().map(|ex| ex.sales_volume).collect();
    let reports = pipeline.detect(&comments, &sales);
    let (mut tp, mut fp, mut fn_) = (0u64, 0u64, 0u64);
    for (rep, ex) in reports.iter().zip(holdout) {
        match (rep.is_fraud, ex.label == 1) {
            (true, true) => tp += 1,
            (true, false) => fp += 1,
            (false, true) => fn_ += 1,
            (false, false) => {}
        }
    }
    let denom = 2 * tp + fp + fn_;
    if denom == 0 {
        return 0.0;
    }
    2.0 * tp as f64 / denom as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;
    use cats_ml::Classifier as _;

    fn example(i: usize, fraud: bool) -> LaggedExample {
        LaggedExample {
            comments: if fraud { testutil::fraud_item(i) } else { testutil::normal_item(i) },
            sales_volume: 50,
            label: u8::from(fraud),
        }
    }

    /// A matured buffer holding `n` fraud + `n` organic labeled items.
    fn labeled_buffer(n: usize) -> LabelLagBuffer {
        let mut buf = LabelLagBuffer::new(3, 4 * n);
        for i in 0..n {
            buf.push(i as u64, example(i, true));
            buf.push(i as u64, example(i, false));
        }
        buf.advance(n as u64 + 3);
        assert_eq!(buf.matured().len(), 2 * n);
        buf
    }

    /// A poisoned candidate: `pipeline`'s analyzer with a GBT fit on its
    /// training items under flipped labels.
    fn poisoned_snapshot(pipeline: &cats_core::CatsPipeline) -> PipelineSnapshot {
        let mut items = Vec::new();
        let mut labels = Vec::new();
        for i in 0..30 {
            items.push(testutil::fraud_item(i));
            labels.push(0u8);
            items.push(testutil::normal_item(i));
            labels.push(1u8);
        }
        let rows = cats_core::features::extract_batch(&items, pipeline.analyzer(), 0);
        let data = cats_core::detector::training_dataset(&rows, &labels);
        let mut gbt = cats_ml::gbt::GradientBoostedTrees::new(cats_ml::gbt::GbtConfig::default());
        gbt.fit(&data);
        cats_core::CatsPipeline::snapshot(
            pipeline.analyzer().clone(),
            pipeline.detector().config(),
            gbt,
        )
    }

    #[test]
    fn labels_mature_only_after_the_lag() {
        let mut buf = LabelLagBuffer::new(5, 100);
        buf.push(10, example(0, true));
        buf.push(12, example(1, false));
        assert_eq!(buf.advance(14), 0, "nothing matures inside the lag window");
        assert_eq!(buf.pending_len(), 2);
        assert_eq!(buf.advance(15), 1, "tick 10 + lag 5 matures at 15");
        assert_eq!(buf.advance(17), 1);
        assert_eq!(buf.pending_len(), 0);
        assert_eq!(buf.matured().len(), 2);
        assert_eq!(buf.matured()[0].label, 1, "matured in scoring order");
    }

    #[test]
    fn matured_window_is_bounded_dropping_oldest() {
        let mut buf = LabelLagBuffer::new(0, 4);
        for i in 0..10 {
            buf.push(i, example(i as usize, i % 2 == 0));
            buf.advance(i);
        }
        assert_eq!(buf.matured().len(), 4, "window bounded at capacity");
        // Oldest dropped: the survivors are the last four pushes (6..10).
        assert_eq!(buf.matured()[0].label, 1, "push 6 (even => fraud) survives");
    }

    #[test]
    fn idle_without_critical_drift_or_enough_labels() {
        let slot = Arc::new(ModelSlot::new(testutil::trained(0.0)));
        let mut ctl = RetrainController::new(slot, RetrainConfig::default());
        let buf = labeled_buffer(40);
        let mut trainer = |_: &[LaggedExample]| -> Result<PipelineSnapshot, String> {
            panic!("trainer must not run")
        };
        assert_eq!(ctl.maybe_retrain(1, false, &buf, &mut trainer), RetrainOutcome::Idle);
        let thin = labeled_buffer(4); // 8 matured < min_labeled 64
        assert_eq!(ctl.maybe_retrain(2, true, &thin, &mut trainer), RetrainOutcome::Idle);
    }

    #[test]
    fn promotes_a_sound_candidate_and_respects_cooldown() {
        let slot = Arc::new(ModelSlot::new(testutil::trained(0.0)));
        let snapshot = slot.load().pipeline.to_snapshot();
        let mut ctl = RetrainController::new(
            slot.clone(),
            RetrainConfig { min_labeled: 16, cooldown_ticks: 50, ..RetrainConfig::default() },
        );
        let buf = labeled_buffer(20);
        let mut calls = 0usize;
        // Snapshots are not Clone (they own the model); hand the single
        // prebuilt one to the single expected trainer invocation.
        let mut snapshot = Some(snapshot);
        let mut trainer = |train: &[LaggedExample]| {
            calls += 1;
            assert!(!train.is_empty());
            Ok(snapshot.take().expect("trainer runs once"))
        };
        let promoted = cats_obs::counter("cats.serve.retrain.promoted");
        let before = promoted.get();
        match ctl.maybe_retrain(100, true, &buf, &mut trainer) {
            RetrainOutcome::Promoted { version: Some(v), candidate_f1, incumbent_f1 } => {
                assert_eq!(v, 2, "direct promotion bumps the slot");
                assert!(
                    candidate_f1 + 0.02 >= incumbent_f1,
                    "guard held: {candidate_f1} vs {incumbent_f1}"
                );
            }
            other => panic!("expected promotion, got {other:?}"),
        }
        assert_eq!(slot.version(), 2);
        assert!(promoted.get() > before);
        // Still critical, but inside the cooldown: no second retrain.
        assert_eq!(ctl.maybe_retrain(120, true, &buf, &mut trainer), RetrainOutcome::Idle);
        assert_eq!(calls, 1);
    }

    #[test]
    fn rejects_a_poisoned_candidate_leaving_the_slot_untouched() {
        let slot = Arc::new(ModelSlot::new(testutil::trained(0.0)));
        let poisoned = poisoned_snapshot(&slot.load().pipeline);
        let mut ctl = RetrainController::new(
            slot.clone(),
            RetrainConfig { min_labeled: 16, ..RetrainConfig::default() },
        );
        let buf = labeled_buffer(20);
        let rejected = cats_obs::counter("cats.serve.retrain.rejected");
        let swap_rejected = cats_obs::counter("cats.serve.model.swap_rejected");
        let (rej_before, swap_before) = (rejected.get(), swap_rejected.get());
        let mut poisoned = Some(poisoned);
        let mut trainer = |_: &[LaggedExample]| Ok(poisoned.take().expect("trainer runs once"));
        match ctl.maybe_retrain(10, true, &buf, &mut trainer) {
            RetrainOutcome::Rejected { candidate_f1, incumbent_f1 } => {
                assert!(
                    candidate_f1 < incumbent_f1,
                    "label-flipped candidate must validate worse: {candidate_f1} vs {incumbent_f1}"
                );
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        assert_eq!(slot.version(), 1, "rejected candidate never reaches the slot");
        assert!(rejected.get() > rej_before, "rejection is visible in the registry");
        assert!(swap_rejected.get() > swap_before, "swap_rejected counts the guard");
    }

    #[test]
    fn failed_trainer_is_reported_not_promoted() {
        let slot = Arc::new(ModelSlot::new(testutil::trained(0.0)));
        let mut ctl = RetrainController::new(
            slot.clone(),
            RetrainConfig { min_labeled: 16, cooldown_ticks: 0, ..RetrainConfig::default() },
        );
        let buf = labeled_buffer(20);
        let mut trainer = |_: &[LaggedExample]| Err("no corpus".to_string());
        match ctl.maybe_retrain(5, true, &buf, &mut trainer) {
            RetrainOutcome::Failed { reason } => assert!(reason.contains("no corpus")),
            other => panic!("expected failure, got {other:?}"),
        }
        assert_eq!(slot.version(), 1);
    }

    #[test]
    fn file_promotion_writes_a_watcher_loadable_snapshot() {
        let dir = cats_io::ScratchDir::new("cats_retrain");
        let path = dir.join("model.snapshot");
        let slot = Arc::new(ModelSlot::new(testutil::trained(0.0)));
        let snapshot = slot.load().pipeline.to_snapshot();
        let mut ctl = RetrainController::new(
            slot.clone(),
            RetrainConfig {
                min_labeled: 16,
                snapshot_path: Some(path.clone()),
                ..RetrainConfig::default()
            },
        );
        let buf = labeled_buffer(20);
        let mut snapshot = Some(snapshot);
        let mut trainer = |_: &[LaggedExample]| Ok(snapshot.take().expect("trainer runs once"));
        match ctl.maybe_retrain(10, true, &buf, &mut trainer) {
            RetrainOutcome::Promoted { version: None, .. } => {}
            other => panic!("expected file promotion, got {other:?}"),
        }
        assert_eq!(slot.version(), 1, "file promotion leaves the swap to the watcher");
        let written = std::fs::read(&path).unwrap();
        assert!(cats_io::io2::is_io2(&written), "promoted as a bare IO2 container, unframed");
        let loaded = crate::model::load_pipeline_file(&path)
            .expect("promoted snapshot must load through the serving path");
        assert!((0.0..=1.0).contains(&loaded.detector().threshold()));
    }
}
