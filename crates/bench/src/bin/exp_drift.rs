//! Extension — adversarial drift survival: the closed
//! monitor → label-lag → retrain → validate → hot-swap loop.
//!
//! The paper evaluates a detector trained once and deployed (§V); a real
//! deployment faces sellers who *adapt*. This experiment drives the
//! epoch-indexed drift process (`cats_platform::drift`) against two
//! lanes sharing one trained starting model:
//!
//! * **frozen** — the paper's deployment: never retrained, its catch
//!   rate decays as campaigns rotate templates and strip tells;
//! * **adaptive** — a [`cats_obs::DriftMonitor`] anchored on the
//!   training feature distributions watches the scored rows, a
//!   [`cats_serve::LabelLagBuffer`] holds ground truth back one epoch
//!   (audits lag), and on a `Critical` verdict a
//!   [`cats_serve::RetrainController`] refits the classifier on the
//!   matured labels, validates the candidate on held-out labels, and
//!   hot-swaps it into the [`cats_serve::ModelSlot`].
//!
//! Two hard safety demonstrations ride along: a *poisoned* retrain
//! (label-flipped window, an adversary feeding the feedback loop) must
//! be rejected by the promotion guard with the incumbent untouched; and
//! a live HTTP server must lose zero requests while drift-triggered
//! retrains rewrite its checksummed snapshot file under load.
//!
//! Every invariant is asserted here. Two of them are statistical — the
//! adaptive lane's recovery margin over the frozen one and its absolute
//! tail-F1 floor — so they are asserted only at the default seed, where
//! they were established; at other seeds the frozen lane may barely
//! decay, leaving nothing to recover.

use cats_bench::{render, setup, Args, ScratchDir};
use cats_core::{
    CatsPipeline, DetectorConfig, FeatureReferenceSet, FeatureVector, ItemComments,
    PipelineSnapshot,
};
use cats_ml::gbt::{GbtConfig, GradientBoostedTrees};
use cats_ml::Classifier;
use cats_obs::{DriftConfig, DriftMonitor, DriftVerdict};
use cats_platform::drift::PlatformDriftConfig;
use cats_platform::{datasets, Platform};
use cats_serve::{
    LabelLagBuffer, LaggedExample, ModelSlot, ModelWatcher, RetrainConfig, RetrainController,
    RetrainOutcome, ScoreClient, ScoreItem, ServeConfig, Server,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default `--seed`; the statistical recovery checks run at this seed.
const DEFAULT_SEED: u64 = 0xD21F;
/// Floor on the adaptive lane's tail F1 at the default seed: 0.8 × the
/// 0.7796 it measured when the closed loop was introduced.
const ADAPTIVE_TAIL_F1_FLOOR: f64 = 0.62368;
/// Drift epochs swept (epoch 0 is the training epoch). Evasion ramps
/// 0.22/epoch and plateaus at [`MAX_EVASION`] by epoch 3, leaving the
/// closed loop several plateau epochs of matured labels to recover on.
const EPOCHS: u32 = 9;
/// Evasion ceiling for the swept drift process. The default (0.85)
/// makes late-epoch fraud near-indistinguishable — no detector,
/// retrained or not, can catch what carries no signal. Campaigns that
/// strip *every* tell also stop moving product, so the bench models the
/// economically sustainable plateau instead.
const MAX_EVASION: f64 = 0.5;
/// Epochs ground truth lags behind scoring (audit delay).
const LABEL_LAG: u64 = 1;
/// Frozen-lane decay floor: the first epoch whose F1 drops below this
/// fraction of the epoch-0 F1 marks "the deployment has degraded".
const DECAY_FLOOR: f64 = 0.85;
/// Concurrent clients in the zero-loss HTTP phase.
const CLIENTS: usize = 3;
/// Drift-triggered snapshot rewrites performed under load.
const HOT_PROMOTIONS: usize = 3;

/// Extracts feature rows, comment lists and labels from a platform.
fn platform_batch(platform: &Platform) -> (Vec<ItemComments>, Vec<u64>, Vec<u8>) {
    let items: Vec<ItemComments> = platform.items().iter().map(setup::item_comments).collect();
    let sales: Vec<u64> = platform.items().iter().map(|i| i.sales_volume).collect();
    let labels: Vec<u8> = platform.items().iter().map(setup::item_label).collect();
    (items, sales, labels)
}

/// Fits a fresh GBT on labeled examples through `analyzer` and wraps it
/// into a snapshot — the retrain step of the closed loop (the analyzer
/// is kept: the drift process rotates campaign *composition*, not the
/// platform's language, so only the classifier needs to move).
fn refit_snapshot(
    examples: &[LaggedExample],
    analyzer: &cats_core::SemanticAnalyzer,
    detector_config: DetectorConfig,
) -> PipelineSnapshot {
    let items: Vec<&ItemComments> = examples.iter().map(|e| &e.comments).collect();
    let rows = cats_core::features::extract_batch(&items, analyzer, 0);
    let labels: Vec<u8> = examples.iter().map(|e| e.label).collect();
    let data = cats_core::detector::training_dataset(&rows, &labels);
    let mut gbt = GradientBoostedTrees::new(GbtConfig::default());
    gbt.fit(&data);
    let reference = FeatureReferenceSet::from_rows(&rows);
    CatsPipeline::snapshot(analyzer.clone(), detector_config, gbt).with_feature_reference(reference)
}

fn main() {
    let total_t0 = Instant::now();
    let args = Args::parse(0.004, DEFAULT_SEED);
    let phase = |name: &str, t0: Instant| {
        println!(
            "[{name}] {:.2}s (t+{:.2}s)",
            t0.elapsed().as_secs_f64(),
            total_t0.elapsed().as_secs_f64()
        );
    };
    let drift_cfg =
        PlatformDriftConfig { max_evasion: MAX_EVASION, ..PlatformDriftConfig::default() };

    // Phase 1: train on epoch 0 and anchor the monitor on the training
    // feature distributions (the IO2 `featref` section).
    let t0 = Instant::now();
    let train_platform = datasets::d0_drift_epoch(args.scale, args.seed, &drift_cfg, 0);
    println!(
        "== Extension: adversarial drift survival ({} items/epoch, {EPOCHS} epochs) ==",
        train_platform.items().len()
    );
    let trained = setup::train_pipeline(&train_platform, args.seed);
    let (train_items, _, _) = platform_batch(&train_platform);
    let train_rows: Vec<FeatureVector> =
        cats_core::features::extract_batch(&train_items, trained.analyzer(), 0);
    let reference = FeatureReferenceSet::from_rows(&train_rows);
    // One deterministic snapshot seeds BOTH lanes, so frozen vs adaptive
    // differ only in what the closed loop does afterwards.
    let seed_bytes = trained
        .to_snapshot()
        .with_feature_reference(reference.clone())
        .to_io2_bytes()
        .expect("seed snapshot serializes");
    let restore = || {
        CatsPipeline::restore(PipelineSnapshot::from_bytes(&seed_bytes).expect("seed bytes parse"))
    };
    let frozen = restore();
    let slot = Arc::new(ModelSlot::new(restore()));
    let analyzer = trained.analyzer().clone();
    let monitor = DriftMonitor::new(
        reference.references(),
        DriftConfig { window: 256, min_window: 96, eval_every: 64, ..DriftConfig::default() },
    );
    phase("train + reference", t0);

    // Phase 2: the epoch sweep — frozen decays, the closed loop recovers.
    let t0 = Instant::now();
    let mut buffer = LabelLagBuffer::new(LABEL_LAG, 16 * train_platform.items().len());
    // The original training labels are known from day one — seed the
    // buffer with them (at tick 0, so they mature with the first
    // advance) so a retrain never *narrows* the training distribution,
    // it appends the drifted epochs to it.
    for item in train_platform.items() {
        buffer.push(
            0,
            LaggedExample {
                comments: setup::item_comments(item),
                sales_volume: item.sales_volume,
                label: setup::item_label(item),
            },
        );
    }
    // Retraining before any *drifted* labels have matured just refits
    // the status quo from a different sample — with a one-epoch label
    // lag the window must be at least three epochs deep (training set +
    // two eval epochs) to contain post-drift ground truth.
    let min_labeled = 3 * train_platform.items().len();
    let mut controller = RetrainController::new(
        slot.clone(),
        RetrainConfig { min_labeled, cooldown_ticks: 1, ..RetrainConfig::default() },
    );
    let mut frozen_f1 = Vec::new();
    let mut adaptive_f1 = Vec::new();
    let mut verdicts = Vec::new();
    let mut first_fire_epoch: Option<u32> = None;
    let mut floor_epoch: Option<u32> = None;
    let mut promotions = 0u32;
    for epoch in 0..EPOCHS {
        // A fresh platform instance per epoch (different base seed than
        // training, so even epoch 0 is held out).
        let platform = datasets::d0_drift_epoch(args.scale, args.seed ^ 0x77AA, &drift_cfg, epoch);
        let (items, sales, labels) = platform_batch(&platform);

        let f_reports = frozen.detect(&items, &sales);
        frozen_f1.push(CatsPipeline::evaluate(&f_reports, &labels).f1);

        let model = slot.load();
        let a_reports = model.pipeline.detect(&items, &sales);
        adaptive_f1.push(CatsPipeline::evaluate(&a_reports, &labels).f1);
        for rep in &a_reports {
            if let Some(f) = &rep.features {
                monitor.observe_row(&f.0);
            }
        }
        let verdict = monitor.evaluate();
        verdicts.push(verdict);
        if verdict >= DriftVerdict::Warning && first_fire_epoch.is_none() {
            first_fire_epoch = Some(epoch);
        }
        if frozen_f1[epoch as usize] < DECAY_FLOOR * frozen_f1[0] && floor_epoch.is_none() {
            floor_epoch = Some(epoch);
        }

        // Ground truth arrives one epoch late; retrain only once the
        // monitor escalates to Critical AND enough labels have matured.
        for item in platform.items() {
            buffer.push(
                epoch as u64,
                LaggedExample {
                    comments: setup::item_comments(item),
                    sales_volume: item.sales_volume,
                    label: setup::item_label(item),
                },
            );
        }
        buffer.advance(epoch as u64);
        let outcome = controller.maybe_retrain(
            epoch as u64,
            verdict == DriftVerdict::Critical,
            &buffer,
            &mut |train: &[LaggedExample]| {
                Ok(refit_snapshot(train, &analyzer, DetectorConfig::default()))
            },
        );
        if let RetrainOutcome::Promoted { version, candidate_f1, incumbent_f1 } = &outcome {
            promotions += 1;
            println!(
                "epoch {epoch}: PROMOTED v{version:?} (candidate F1 {candidate_f1:.3} vs incumbent {incumbent_f1:.3})"
            );
            // Re-anchor the monitor on what the new model was trained
            // against, so residual drift is measured against *it*.
            let matured_items: Vec<&ItemComments> =
                buffer.matured().iter().map(|e| &e.comments).collect();
            let rows = cats_core::features::extract_batch(&matured_items, &analyzer, 0);
            monitor.reset(FeatureReferenceSet::from_rows(&rows).references());
        }
        println!(
            "epoch {epoch}: frozen F1 {:.3} | adaptive F1 {:.3} | drift {} | matured {}",
            frozen_f1[epoch as usize],
            adaptive_f1[epoch as usize],
            verdict.as_str(),
            buffer.matured().len(),
        );
    }
    phase("epoch sweep", t0);

    // Judge recovery on the mean of the last two epochs — a single
    // epoch's F1 at this scale carries sampling noise either lane could
    // ride.
    let tail = |v: &[f64]| (v[v.len() - 1] + v[v.len() - 2]) / 2.0;
    let frozen_final = tail(&frozen_f1);
    let adaptive_final = tail(&adaptive_f1);
    let monitor_fired_before_floor = match (first_fire_epoch, floor_epoch) {
        (Some(fire), Some(floor)) => fire <= floor,
        (Some(_), None) => true,
        (None, _) => false,
    };
    // The recovery margin and the tail-F1 floor are statistical (at odd
    // seeds the frozen lane barely decays, leaving nothing to recover),
    // so they hold only at the default seed; the rest hold at any seed.
    let recovery_ok = promotions >= 1 && adaptive_final >= frozen_final + 0.02;
    if args.seed == DEFAULT_SEED {
        assert!(
            recovery_ok,
            "adaptive lane did not recover past the frozen lane's decay: tail F1 \
             {adaptive_final:.4} vs frozen {frozen_final:.4} (+0.02 needed), {promotions} promotions"
        );
        assert!(
            adaptive_final >= ADAPTIVE_TAIL_F1_FLOOR,
            "adaptive tail F1 {adaptive_final:.4} is below the {ADAPTIVE_TAIL_F1_FLOOR} floor"
        );
    }
    assert!(first_fire_epoch.is_some(), "drift monitor never fired across {EPOCHS} epochs");
    assert!(floor_epoch.is_some(), "frozen lane never decayed — drift process too weak");
    assert!(monitor_fired_before_floor, "monitor fired after the frozen lane had already decayed");
    assert!(promotions >= 1, "closed loop never promoted a retrained model");
    for (e, (f, a)) in frozen_f1.iter().zip(&adaptive_f1).enumerate() {
        assert!(
            a >= &(f - 0.03),
            "closed loop must never materially underperform the frozen lane: \
             epoch {e} adaptive {a:.3} vs frozen {f:.3}"
        );
    }

    // Phase 3: poisoned retrain — an adversary label-flips the feedback
    // window; the promotion guard must hold the incumbent.
    let t0 = Instant::now();
    let version_before = slot.version();
    let mut poison_controller = RetrainController::new(
        slot.clone(),
        RetrainConfig { min_labeled, cooldown_ticks: 0, ..RetrainConfig::default() },
    );
    let outcome = poison_controller.maybe_retrain(
        u64::from(EPOCHS) + 10,
        true,
        &buffer,
        &mut |train: &[LaggedExample]| {
            let flipped: Vec<LaggedExample> = train
                .iter()
                .map(|e| LaggedExample {
                    comments: e.comments.clone(),
                    sales_volume: e.sales_volume,
                    label: 1 - e.label,
                })
                .collect();
            Ok(refit_snapshot(&flipped, &analyzer, DetectorConfig::default()))
        },
    );
    let poisoned_rejected = matches!(outcome, RetrainOutcome::Rejected { .. });
    assert!(poisoned_rejected, "poisoned candidate must be rejected, got {outcome:?}");
    assert_eq!(slot.version(), version_before, "rejected candidate must not touch the slot");
    phase("poisoned retrain", t0);

    // Phase 4: zero-loss hot recovery over HTTP — drift-triggered
    // retrains rewrite the checksummed snapshot file while concurrent
    // clients score; the watcher swaps each rewrite in and no request
    // may be lost.
    let t0 = Instant::now();
    let dir = ScratchDir::new("cats-exp-drift");
    let model_path = dir.join("model.cats");
    cats_io::atomic_write(&model_path, &seed_bytes).expect("write initial snapshot");
    let serve_slot = Arc::new(ModelSlot::new(
        cats_serve::load_pipeline_file(&model_path).expect("load snapshot"),
    ));
    let serve_monitor = Arc::new(DriftMonitor::new(
        reference.references(),
        DriftConfig { window: 256, min_window: 96, eval_every: 64, ..DriftConfig::default() },
    ));
    let server = Server::start_with_drift(
        serve_slot.clone(),
        ServeConfig { addr: "127.0.0.1:0".into(), ..ServeConfig::default() },
        Some(serve_monitor.clone()),
    )
    .expect("bind serve socket");
    let watcher =
        ModelWatcher::spawn(serve_slot.clone(), model_path.clone(), Duration::from_millis(30));
    let addr = server.addr().to_string();
    // Clients replay the LAST drift epoch — the traffic the incumbent
    // was never trained on — so the live monitor sees real drift.
    let last_platform =
        datasets::d0_drift_epoch(args.scale, args.seed ^ 0x77AA, &drift_cfg, EPOCHS - 1);
    let pool: Vec<ScoreItem> = last_platform
        .items()
        .iter()
        .map(|it| ScoreItem {
            item_id: it.id,
            sales_volume: it.sales_volume,
            comments: it.comments.iter().map(|c| c.content.clone()).collect(),
        })
        .collect();
    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let (addr, stop, pool) = (addr.clone(), stop.clone(), pool.clone());
            std::thread::spawn(move || {
                let client = ScoreClient::new(addr).with_timeout(Duration::from_secs(30));
                let (mut ok, mut lost) = (0u64, 0u64);
                let mut versions: Vec<u64> = Vec::new();
                let mut cursor = c * 7;
                while !stop.load(Ordering::Relaxed) {
                    let batch: Vec<ScoreItem> =
                        (0..6).map(|k| pool[(cursor + k) % pool.len()].clone()).collect();
                    cursor = (cursor + 6) % pool.len();
                    match client.score(&batch) {
                        Ok(resp) => {
                            ok += 1;
                            if !versions.contains(&resp.model_version) {
                                versions.push(resp.model_version);
                            }
                        }
                        Err(cats_serve::ClientError::Http { status: 429 | 503, .. }) => {}
                        Err(_) => lost += 1,
                    }
                }
                (ok, lost, versions)
            })
        })
        .collect();
    // The recovery loop: file-promote retrained candidates while load
    // runs. Each round nudges the operating threshold so every rewrite
    // is a distinct artifact the watcher must validate and swap.
    let mut file_controller = RetrainController::new(
        slot.clone(),
        RetrainConfig {
            min_labeled,
            cooldown_ticks: 0,
            snapshot_path: Some(model_path.clone()),
            ..RetrainConfig::default()
        },
    );
    let mut file_promotions = 0u32;
    for round in 0..HOT_PROMOTIONS {
        let config = DetectorConfig {
            threshold: 0.5 + 0.002 * (round as f64 + 1.0),
            ..DetectorConfig::default()
        };
        let outcome = file_controller.maybe_retrain(
            1_000 + round as u64,
            true,
            &buffer,
            &mut |train: &[LaggedExample]| Ok(refit_snapshot(train, &analyzer, config)),
        );
        if matches!(outcome, RetrainOutcome::Promoted { .. }) {
            file_promotions += 1;
        }
        std::thread::sleep(Duration::from_millis(250));
    }
    stop.store(true, Ordering::Relaxed);
    let (mut ok, mut lost) = (0u64, 0u64);
    let mut versions_seen: Vec<u64> = Vec::new();
    for h in clients {
        let (o, l, vs) = h.join().expect("client thread");
        ok += o;
        lost += l;
        for v in vs {
            if !versions_seen.contains(&v) {
                versions_seen.push(v);
            }
        }
    }
    versions_seen.sort_unstable();
    let health = ScoreClient::new(addr.clone()).health().expect("healthz responds");
    let drift_rows = serve_monitor.rows_seen();
    watcher.stop();
    server.shutdown();
    assert_eq!(lost, 0, "drift-triggered hot-swaps must not lose requests");
    assert!(ok > 0, "load phase scored nothing");
    assert!(
        file_promotions >= 1 && versions_seen.len() > 1,
        "load must observe the promoted models: {file_promotions} promotions, versions {versions_seen:?}"
    );
    assert!(drift_rows > 0, "the server-side monitor saw no scored rows");
    assert!(health.drift != "off" && !health.drift.is_empty(), "healthz must report drift state");
    phase("http zero-loss recovery", t0);

    let rows: Vec<Vec<String>> = (0..EPOCHS as usize)
        .map(|e| {
            vec![
                e.to_string(),
                format!("{:.3}", frozen_f1[e]),
                format!("{:.3}", adaptive_f1[e]),
                verdicts[e].as_str().to_string(),
            ]
        })
        .collect();
    println!("{}", render::table(&["Epoch", "Frozen F1", "Adaptive F1", "Drift verdict"], &rows));
    println!(
        "fired at epoch {:?}, frozen crossed the decay floor at epoch {:?}, {promotions} promotions; \
         http: {ok} requests, {lost} lost, versions {versions_seen:?}, healthz drift \"{}\"",
        first_fire_epoch, floor_epoch, health.drift
    );
    println!(
        "tail F1 (last two epochs): frozen {frozen_final:.4}, adaptive {adaptive_final:.4} \
         (recovery {}); label lag {LABEL_LAG} epoch(s); poisoned retrain rejected; \
         {file_promotions} file promotions under load; server monitor saw {drift_rows} rows",
        if recovery_ok { "ok" } else { "not reached" }
    );
}
