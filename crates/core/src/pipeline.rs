//! End-to-end CATS pipeline: train once, detect anywhere.
//!
//! Wires the semantic analyzer, feature extractor and detector into the
//! paper's deployment story: pre-train on a labeled dataset (D0), then
//! run on any platform's public data (D1, E-platform) without retraining
//! — the cross-platform property under evaluation in §III–IV. Also hosts
//! the Table VI evaluation slicing (overall frauds vs sufficient-evidence
//! frauds) and detector persistence.

use crate::detector::{DetectionReport, Detector, DetectorConfig};
use crate::features::{DetectItem, ItemComments};
use crate::semantic::{SemanticAnalyzer, SemanticConfig};
use cats_ml::metrics::BinaryMetrics;
use cats_par::Parallelism;
use std::path::Path;

/// Pipeline construction knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineConfig {
    /// Semantic-analyzer training configuration.
    pub semantic: SemanticConfig,
    /// Detector configuration.
    pub detector: DetectorConfig,
    /// Top-level parallelism knob. [`CatsPipeline::train`] copies it into
    /// the semantic and detector configurations, and the detector passes
    /// it on to its GBT, so setting it here is enough to parallelize the
    /// whole pipeline.
    pub parallelism: Parallelism,
}

/// One labeled training example for the pipeline.
#[derive(Debug, Clone)]
pub struct LabeledItem {
    /// The item's comments.
    pub comments: ItemComments,
    /// 1 = fraud, 0 = normal.
    pub label: u8,
}

/// A trained CATS instance.
pub struct CatsPipeline {
    analyzer: SemanticAnalyzer,
    detector: Detector,
}

impl CatsPipeline {
    /// Trains the full system:
    ///
    /// * the semantic analyzer from `corpus_texts` (word2vec + expansion)
    ///   and the labeled sentiment review corpora;
    /// * the detector's GBT from `training_items`.
    ///
    /// With a `checkpoint` store, training survives a kill: word2vec
    /// epochs checkpoint under `"w2v"`, the finished analyzer under
    /// `"analyzer"` and GBT boosting rounds under `"gbt"`, so a rerun with
    /// the same inputs, config and store resumes after the last checkpoint
    /// instead of starting over. Every stage is deterministic, so the
    /// resumed model is bit-identical to one trained without
    /// interruption. Checkpoints from other inputs or configs are detected
    /// by fingerprint and ignored; all slots are cleared once training
    /// completes. A store never changes the model. Word2vec saves epochs
    /// only on corpora of at least 4,096 sentences, where it runs its
    /// sharded schedule; a kill during a smaller corpus's word2vec
    /// retrains it from epoch zero.
    #[allow(clippy::too_many_arguments)]
    pub fn train(
        corpus_texts: &[&str],
        positive_seeds: &[String],
        negative_seeds: &[String],
        sentiment_positive: &[&str],
        sentiment_negative: &[&str],
        training_items: &[LabeledItem],
        checkpoint: Option<&cats_io::CheckpointStore>,
        config: PipelineConfig,
    ) -> Self {
        let _span = cats_obs::span!("cats.core.pipeline.train", { training_items.len() });
        // The top-level knob wins: stage configs inherit it wholesale.
        let semantic = SemanticConfig { parallelism: config.parallelism, ..config.semantic };
        let detector_cfg = DetectorConfig { parallelism: config.parallelism, ..config.detector };
        let fingerprinted = checkpoint.map(|store| {
            let fp = train_fingerprint(
                corpus_texts,
                positive_seeds,
                negative_seeds,
                sentiment_positive,
                sentiment_negative,
                training_items,
                &config,
            );
            (store, fp)
        });

        let resumed = fingerprinted.and_then(|(store, fp)| {
            let bytes = store.load("analyzer")?;
            match decode_analyzer_slot(&bytes) {
                Ok((saved, analyzer)) if saved == fp => {
                    cats_obs::counter("cats.core.train.resumed_stages").inc();
                    // The finished analyzer supersedes any epoch-level
                    // word2vec state.
                    store.clear("w2v");
                    Some(analyzer)
                }
                _ => {
                    cats_obs::counter("cats.core.train.ckpt_rejected").inc();
                    eprintln!("cats-core: ignoring mismatched analyzer checkpoint");
                    None
                }
            }
        });
        let analyzer = resumed.unwrap_or_else(|| {
            let analyzer = SemanticAnalyzer::train_impl(
                corpus_texts,
                positive_seeds,
                negative_seeds,
                sentiment_positive,
                sentiment_negative,
                semantic,
                checkpoint,
            );
            if let Some((store, fp)) = fingerprinted {
                if let Err(e) = store.save("analyzer", &encode_analyzer_slot(fp, &analyzer)) {
                    eprintln!("cats-core: analyzer checkpoint save failed: {e}");
                }
            }
            analyzer
        });

        let mut detector = Detector::with_default_classifier(detector_cfg);
        let items: Vec<&ItemComments> = training_items.iter().map(|l| &l.comments).collect();
        let labels: Vec<u8> = training_items.iter().map(|l| l.label).collect();
        detector.fit_impl(&items, &labels, &analyzer, checkpoint);
        if let Some(store) = checkpoint {
            store.clear_all();
        }
        Self { analyzer, detector }
    }

    /// Builds a pipeline from a pre-trained analyzer and detector.
    pub fn from_parts(analyzer: SemanticAnalyzer, detector: Detector) -> Self {
        Self { analyzer, detector }
    }

    /// The semantic analyzer.
    pub fn analyzer(&self) -> &SemanticAnalyzer {
        &self.analyzer
    }

    /// The detector.
    pub fn detector(&self) -> &Detector {
        &self.detector
    }

    /// Mutable access to the detector (e.g. for threshold recalibration).
    pub fn detector_mut(&mut self) -> &mut Detector {
        &mut self.detector
    }

    /// Detects frauds in a batch of items (with their public sales
    /// volumes).
    ///
    /// Accepts segmented items, owned or borrowed (`&[ItemComments]`,
    /// `&[&ItemComments]`), or items as their raw comment texts
    /// (`&[&[String]]`): the serving micro-batcher passes request
    /// comment lists straight in, and each is segmented into slices of its
    /// own strings inside the detector's per-item work (see
    /// [`Detector::detect`]).
    pub fn detect<T: DetectItem>(&self, items: &[T], sales: &[u64]) -> Vec<DetectionReport> {
        let _span = cats_obs::span!("cats.core.pipeline.detect", { items.len() });
        self.detector.detect(items, sales, &self.analyzer)
    }

    /// Evaluates predictions against ground-truth labels, overall.
    pub fn evaluate(reports: &[DetectionReport], labels: &[u8]) -> BinaryMetrics {
        let preds: Vec<bool> = reports.iter().map(|r| r.is_fraud).collect();
        BinaryMetrics::compute(labels, &preds)
    }
}

/// Table VI slices: the paper reports metrics for "the overall fraud
/// items" and separately for "fraud items labeled with sufficient
/// evidences" (recall restricted to that slice; precision is shared
/// because the detector emits one report list).
#[derive(Debug, Clone)]
pub struct EvaluationSlices {
    /// Metrics against all fraud labels.
    pub overall: BinaryMetrics,
    /// Metrics where only sufficient-evidence frauds count as positive;
    /// expert-labeled frauds are excluded from the evaluation set (they
    /// are neither positives nor negatives in this slice).
    pub sufficient_evidence: BinaryMetrics,
}

/// Label provenance for slicing (mirrors `cats_platform::ItemLabel`
/// without depending on the platform crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelKind {
    /// Fraud backed by transaction evidence.
    FraudSufficient,
    /// Fraud identified by expert analysis.
    FraudExpert,
    /// Normal item.
    Normal,
}

impl EvaluationSlices {
    /// Computes both Table VI rows from reports plus label provenance.
    pub fn compute(reports: &[DetectionReport], kinds: &[LabelKind]) -> Self {
        assert_eq!(reports.len(), kinds.len(), "reports/labels mismatch");
        let preds: Vec<bool> = reports.iter().map(|r| r.is_fraud).collect();

        let overall_labels: Vec<u8> =
            kinds.iter().map(|k| u8::from(!matches!(k, LabelKind::Normal))).collect();
        let overall = BinaryMetrics::compute(&overall_labels, &preds);

        // Sufficient-evidence slice: drop expert-labeled frauds entirely.
        let keep: Vec<usize> = kinds
            .iter()
            .enumerate()
            .filter(|(_, k)| !matches!(k, LabelKind::FraudExpert))
            .map(|(i, _)| i)
            .collect();
        let se_labels: Vec<u8> = keep
            .iter()
            .map(|&i| u8::from(matches!(kinds[i], LabelKind::FraudSufficient)))
            .collect();
        let se_preds: Vec<bool> = keep.iter().map(|&i| preds[i]).collect();
        let sufficient_evidence = BinaryMetrics::compute(&se_labels, &se_preds);

        Self { overall, sufficient_evidence }
    }
}

/// Picks the decision threshold at the *balanced* operating point —
/// where precision is closest to recall (ties broken by higher F1) —
/// from scored reports against holdout labels. This is the calibration a
/// production deployment runs on a labeled validation slice before
/// applying the detector to an unlabeled platform.
///
/// Returns the default threshold 0.5 when the holdout has no usable
/// signal (no positive labels or no scored items).
pub fn calibrate_balanced_threshold(reports: &[DetectionReport], labels: &[u8]) -> f64 {
    assert_eq!(reports.len(), labels.len(), "reports/labels mismatch");
    // Candidate thresholds: the distinct scores of classified items.
    let mut scores: Vec<f64> =
        reports.iter().filter(|r| r.features.is_some()).map(|r| r.score).collect();
    if scores.is_empty() || !labels.contains(&1) {
        return 0.5;
    }
    scores.sort_by(|a, b| a.total_cmp(b));
    scores.dedup();

    let mut best = (f64::INFINITY, f64::NEG_INFINITY, 0.5); // (|P−R|, F1, threshold)
    for &t in &scores {
        let preds: Vec<bool> =
            reports.iter().map(|r| r.features.is_some() && r.score >= t).collect();
        let m = BinaryMetrics::compute(labels, &preds);
        if m.precision == 0.0 && m.recall == 0.0 {
            continue;
        }
        let gap = (m.precision - m.recall).abs();
        if gap < best.0 - 1e-12 || (gap < best.0 + 1e-12 && m.f1 > best.1) {
            best = (gap, m.f1, t);
        }
    }
    best.2
}

/// Picks the smallest threshold whose holdout precision reaches
/// `target_precision` (maximizing recall under the precision constraint).
/// Falls back to the highest-precision threshold when the target is
/// unreachable, and to 0.5 when the holdout carries no signal.
pub fn calibrate_precision_threshold(
    reports: &[DetectionReport],
    labels: &[u8],
    target_precision: f64,
) -> f64 {
    assert_eq!(reports.len(), labels.len(), "reports/labels mismatch");
    let mut scores: Vec<f64> =
        reports.iter().filter(|r| r.features.is_some()).map(|r| r.score).collect();
    if scores.is_empty() || !labels.contains(&1) {
        return 0.5;
    }
    scores.sort_by(|a, b| a.total_cmp(b));
    scores.dedup();

    let metrics_at = |t: f64| {
        let preds: Vec<bool> =
            reports.iter().map(|r| r.features.is_some() && r.score >= t).collect();
        BinaryMetrics::compute(labels, &preds)
    };
    // Smallest threshold meeting the precision target (recall decreases
    // with threshold, so the first hit maximizes recall).
    let mut best_fallback = (0.0f64, 0.5f64); // (precision, threshold)
    for &t in &scores {
        let m = metrics_at(t);
        if m.precision >= target_precision && m.recall > 0.0 {
            return t;
        }
        if m.precision > best_fallback.0 && m.recall > 0.0 {
            best_fallback = (m.precision, t);
        }
    }
    best_fallback.1
}

/// The `"analyzer"` checkpoint slot: the run's [`train_fingerprint`],
/// then the analyzer's two snapshot sections.
fn encode_analyzer_slot(fingerprint: u32, analyzer: &SemanticAnalyzer) -> Vec<u8> {
    let (lexicon, sentiment) = analyzer.to_io2_sections();
    let mut e = cats_io::io2::Enc::new();
    e.u32(fingerprint).u8s(&lexicon).u8s(&sentiment);
    e.into_bytes()
}

/// Decodes [`encode_analyzer_slot`] through the snapshot's own section
/// decoders.
fn decode_analyzer_slot(bytes: &[u8]) -> Result<(u32, SemanticAnalyzer), String> {
    let mut d = cats_io::io2::Dec::new(bytes);
    let fingerprint = d.u32()?;
    let (lexicon, sentiment) = (d.u8s()?, d.u8s()?);
    if d.remaining() != 0 {
        return Err(format!("{} trailing bytes after analyzer checkpoint", d.remaining()));
    }
    Ok((fingerprint, SemanticAnalyzer::from_io2_sections(&lexicon, &sentiment)?))
}

fn digest_texts(acc: &mut String, label: &str, texts: &[&str]) {
    use std::fmt::Write as _;
    let _ = write!(acc, "{label}:{}:", texts.len());
    for t in texts {
        let _ = write!(acc, "{:08x},", cats_io::crc32(t.as_bytes()));
    }
}

/// Fingerprint tying resumable-training checkpoints to one (inputs,
/// config) pair: CRCs of every input text, the training labels and
/// tokens, and the full config (`Debug` form — conservative: any config
/// change, including parallelism, restarts stage training; the w2v and
/// gbt stage checkpoints carry their own thread-count-independent
/// fingerprints).
fn train_fingerprint(
    corpus_texts: &[&str],
    positive_seeds: &[String],
    negative_seeds: &[String],
    sentiment_positive: &[&str],
    sentiment_negative: &[&str],
    training_items: &[LabeledItem],
    config: &PipelineConfig,
) -> u32 {
    use std::fmt::Write as _;
    let mut acc = String::new();
    digest_texts(&mut acc, "corpus", corpus_texts);
    let pos: Vec<&str> = positive_seeds.iter().map(String::as_str).collect();
    let neg: Vec<&str> = negative_seeds.iter().map(String::as_str).collect();
    digest_texts(&mut acc, "pos_seeds", &pos);
    digest_texts(&mut acc, "neg_seeds", &neg);
    digest_texts(&mut acc, "sent_pos", sentiment_positive);
    digest_texts(&mut acc, "sent_neg", sentiment_negative);
    let _ = write!(acc, "items:{}:", training_items.len());
    for it in training_items {
        let mut item_acc = String::new();
        for toks in &it.comments.tokens {
            for t in toks {
                item_acc.push_str(t);
                item_acc.push('\x1f');
            }
            item_acc.push('\x1e');
        }
        let _ = write!(acc, "{}@{:08x},", it.label, cats_io::crc32(item_acc.as_bytes()));
    }
    let _ = write!(acc, "config:{config:?}");
    cats_io::crc32(acc.as_bytes())
}

/// Why loading or saving a persisted pipeline snapshot failed.
#[derive(Debug)]
pub enum PersistError {
    /// The file could not be read or written, was empty, truncated, or
    /// failed its checksum — see [`cats_io::IoError`] for the exact
    /// corruption class.
    Io(cats_io::IoError),
    /// The container was intact on disk but a section does not decode
    /// as a snapshot (malformed or inconsistent section contents, or an
    /// unsupported format version).
    Format(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "{e}"),
            Self::Format(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<cats_io::IoError> for PersistError {
    fn from(e: cats_io::IoError) -> Self {
        Self::Io(e)
    }
}

/// The snapshot format this build writes and the only one it reads,
/// stored in the `meta` section of every snapshot container. Format 3
/// holds no JSON: the `detector` and `gbt` sections are IO2 fields.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 3;

/// Snapshot of a trained pipeline, persisted as a `CATS-IO2` container.
/// [`CatsPipeline::to_snapshot`] takes one; [`CatsPipeline::restore`]
/// turns one back into a pipeline.
pub struct PipelineSnapshot {
    /// Snapshot format version (see [`SNAPSHOT_FORMAT_VERSION`]).
    pub format_version: u32,
    /// The trained analyzer (lexicon + sentiment model).
    pub analyzer: SemanticAnalyzer,
    /// Detector configuration.
    pub detector_config: DetectorConfig,
    /// The detector's trained GBT.
    pub gbt: cats_ml::gbt::GradientBoostedTrees,
    /// Training-time feature distributions (drift-monitor anchor), in
    /// the optional `featref` section.
    pub feature_reference: Option<crate::features::FeatureReferenceSet>,
}

impl PipelineSnapshot {
    /// Attaches a training-time feature reference (builder style) — the
    /// drift-monitor anchor persisted in the `featref` IO2 section.
    pub fn with_feature_reference(mut self, fr: crate::features::FeatureReferenceSet) -> Self {
        self.feature_reference = Some(fr);
        self
    }

    /// Encodes the snapshot as a `CATS-IO2` container: a `meta` section
    /// carrying the snapshot format version, the detector configuration
    /// (`u64` minimum sales volume, `u8` evidence rule, `f64` threshold),
    /// the lexicon as sorted length-prefixed word lists, and the
    /// sentiment and GBT models as flat binary arrays. The encoding is
    /// canonical: decoding and re-encoding reproduces the bytes exactly.
    /// It cannot fail; the `Result` is kept for callers that match on it.
    pub fn to_io2_bytes(&self) -> Result<Vec<u8>, PersistError> {
        use cats_io::io2::{Enc, Io2Builder};
        let mut meta = Enc::new();
        meta.u32(self.format_version);

        let d = &self.detector_config;
        let mut detector = Enc::new();
        detector.u64(d.min_sales_volume).u8(d.require_positive_evidence.into()).f64(d.threshold);

        let (lexicon, sentiment) = self.analyzer.to_io2_sections();

        let mut b = Io2Builder::new();
        b.section("meta", meta.into_bytes());
        b.section("detector", detector.into_bytes());
        b.section("lexicon", lexicon);
        b.section("sentiment", sentiment);
        b.section("gbt", self.gbt.to_io2_bytes());
        // Optional trailing section: emitted only when present, so
        // reference-less snapshots keep their exact pre-drift byte
        // layout (the canonical-encoding property).
        if let Some(fr) = &self.feature_reference {
            let mut enc = Enc::new();
            enc.u64(fr.rows);
            enc.u32(fr.per_feature.len() as u32);
            for col in &fr.per_feature {
                enc.f64s(col);
            }
            b.section("featref", enc.into_bytes());
        }
        Ok(b.finish())
    }

    /// Decodes a `CATS-IO2` snapshot container, the one snapshot
    /// encoding. Section CRCs are verified by the container parser;
    /// unknown sections from future writers are skipped, and a `meta`
    /// format version other than [`SNAPSHOT_FORMAT_VERSION`] is rejected
    /// up front. Any input yields a snapshot or a typed [`PersistError`]:
    /// every length and count is checked against the bytes present
    /// before it sizes an allocation, and every section must be consumed
    /// exactly.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, PersistError> {
        use cats_io::io2::{Dec, Io2File};
        let file = Io2File::parse(bytes, "snapshot")?;
        let fmt = |e: String| PersistError::Format(format!("model: {e}"));

        let mut meta = Dec::new(file.require("meta", "snapshot")?);
        let format_version = meta.u32().map_err(fmt)?;
        trailing(&meta, "meta")?;
        if format_version != SNAPSHOT_FORMAT_VERSION {
            let age = if format_version > SNAPSHOT_FORMAT_VERSION { "newer" } else { "older" };
            return Err(PersistError::Format(format!(
                "model: snapshot format {format_version} is {age} than supported \
                 {SNAPSHOT_FORMAT_VERSION}"
            )));
        }

        let mut d = Dec::new(file.require("detector", "snapshot")?);
        let min_sales_volume = d.u64().map_err(fmt)?;
        let require_positive_evidence = match d.u8().map_err(fmt)? {
            0 => false,
            1 => true,
            b => return Err(PersistError::Format(format!("model: detector rule flag {b}"))),
        };
        let threshold = d.f64().map_err(fmt)?;
        trailing(&d, "detector")?;
        DetectorConfig::check_threshold(threshold)
            .map_err(|e| PersistError::Format(format!("model: detector {e}")))?;
        let detector_config = DetectorConfig {
            min_sales_volume,
            require_positive_evidence,
            threshold,
            parallelism: Parallelism::default(),
        };

        let analyzer = SemanticAnalyzer::from_io2_sections(
            file.require("lexicon", "snapshot")?,
            file.require("sentiment", "snapshot")?,
        )
        .map_err(fmt)?;

        let gbt =
            cats_ml::gbt::GradientBoostedTrees::from_io2_bytes(file.require("gbt", "snapshot")?)
                .map_err(fmt)?;
        // A restored detector scores with this GBT; an empty forest would
        // make every detect call panic instead of failing the load.
        if !gbt.is_fit() {
            return Err(PersistError::Format("model: gbt has no trees".into()));
        }
        // The detector scores N_FEATURES-wide rows; a model trained on
        // wider rows could index past them.
        let n_features = gbt.feature_importance().len();
        if n_features > crate::features::N_FEATURES {
            return Err(PersistError::Format(format!(
                "model: classifier has {n_features} features, the detector extracts {}",
                crate::features::N_FEATURES
            )));
        }

        let feature_reference = match file.section("featref") {
            Some(payload) => {
                let mut d = Dec::new(payload);
                let rows = d.u64().map_err(fmt)?;
                let n = d.u32().map_err(fmt)? as usize;
                // Every column costs at least its 8-byte count prefix:
                // reject a lying feature count before allocating.
                if n.checked_mul(8).map_or(true, |b| b > d.remaining()) {
                    return Err(PersistError::Format(format!(
                        "model: featref column count {n} exceeds section size"
                    )));
                }
                let mut per_feature = Vec::with_capacity(n);
                for _ in 0..n {
                    per_feature.push(d.f64s().map_err(fmt)?);
                }
                trailing(&d, "featref")?;
                Some(crate::features::FeatureReferenceSet { rows, per_feature })
            }
            None => None,
        };

        Ok(Self { format_version, analyzer, detector_config, gbt, feature_reference })
    }

    /// Writes the snapshot to `path` atomically (temp file + fsync +
    /// rename) in the binary `CATS-IO2` format, whose per-section CRC32s
    /// catch truncation, torn rewrites and bit flips at load instead of
    /// producing a silently wrong model.
    pub fn save(&self, path: &Path) -> Result<(), PersistError> {
        cats_io::atomic_write(path, &self.to_io2_bytes()?)?;
        Ok(())
    }

    /// Loads a snapshot written by [`PipelineSnapshot::save`]. Never
    /// panics and never yields a half-loaded model: every corruption
    /// class surfaces as a typed [`PersistError`].
    pub fn load(path: &Path) -> Result<Self, PersistError> {
        let bytes = std::fs::read(path)
            .map_err(|e| cats_io::IoError::Io(format!("{}: {e}", path.display())))?;
        Self::from_bytes(&bytes)
    }
}

/// Rejects bytes left over after a section's last field: the encoder
/// writes none, so they mean a damaged or foreign section.
fn trailing(d: &cats_io::io2::Dec<'_>, section: &str) -> Result<(), PersistError> {
    match d.remaining() {
        0 => Ok(()),
        n => Err(PersistError::Format(format!("model: {n} trailing bytes in {section} section"))),
    }
}

impl CatsPipeline {
    /// A snapshot of parts trained outside a pipeline: an analyzer, a
    /// detector configuration and a GBT.
    pub fn snapshot(
        analyzer: SemanticAnalyzer,
        detector_config: DetectorConfig,
        gbt: cats_ml::gbt::GradientBoostedTrees,
    ) -> PipelineSnapshot {
        PipelineSnapshot {
            format_version: SNAPSHOT_FORMAT_VERSION,
            analyzer,
            detector_config,
            gbt,
            feature_reference: None,
        }
    }

    /// This pipeline's own analyzer, detector configuration and GBT as a
    /// snapshot: the inverse of [`CatsPipeline::restore`].
    pub fn to_snapshot(&self) -> PipelineSnapshot {
        Self::snapshot(self.analyzer.clone(), self.detector.config(), self.detector.gbt().clone())
    }

    /// Restores a pipeline from a snapshot.
    pub fn restore(snapshot: PipelineSnapshot) -> Self {
        Self {
            analyzer: snapshot.analyzer,
            detector: Detector::new(snapshot.detector_config, snapshot.gbt),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::FilterDecision;

    fn corpus() -> Vec<String> {
        let mut texts = Vec::new();
        for i in 0..250 {
            let v = i % 3;
            texts.push(format!("hao{v} zan{v} hao{v} bang{v} kuai du"));
            texts.push(format!("cha{v} lan{v} cha{v} huai{v} man du"));
            texts.push("he zi kuai di shou dao".to_string());
        }
        texts
    }

    fn fraud_item(i: usize) -> ItemComments {
        ItemComments::from_texts([
            format!("hao0 hao0 zan1 ! hao0 bang2 w{i} ， hao0 hao0 zan0 hao1 hao1").as_str(),
            "hen hao0 zan2 ！ hao2 hao0 hao0 bang0 hao0",
        ])
    }

    fn normal_item(i: usize) -> ItemComments {
        ItemComments::from_texts([format!("shu hao0 kan w{i}").as_str(), "dongxi cha0 le dian"])
    }

    const SENT_POS: [&str; 2] = ["hao0 zan0 bang0 hao1", "zan1 hao2 bang1"];
    const SENT_NEG: [&str; 2] = ["cha0 lan0 huai0", "lan1 cha2 huai2"];

    /// 30 fraud and 30 normal items.
    fn training_items() -> Vec<LabeledItem> {
        (0..30)
            .flat_map(|i| {
                [
                    LabeledItem { comments: fraud_item(i), label: 1 },
                    LabeledItem { comments: normal_item(i), label: 0 },
                ]
            })
            .collect()
    }

    /// Trains on `texts` and [`training_items`] with the test seeds and
    /// sentiment reviews.
    fn train_on(
        texts: &[String],
        checkpoint: Option<&cats_io::CheckpointStore>,
        config: PipelineConfig,
    ) -> CatsPipeline {
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        CatsPipeline::train(
            &refs,
            &["hao0".to_string()],
            &["cha0".to_string()],
            &SENT_POS,
            &SENT_NEG,
            &training_items(),
            checkpoint,
            config,
        )
    }

    fn trained() -> CatsPipeline {
        train_on(&corpus(), None, PipelineConfig::default())
    }

    #[test]
    fn end_to_end_train_and_detect() {
        let p = trained();
        let items = vec![fraud_item(77), normal_item(77)];
        let reports = p.detect(&items, &[50, 50]);
        assert!(reports[0].is_fraud);
        assert!(!reports[1].is_fraud);
        let m = CatsPipeline::evaluate(&reports, &[1, 0]);
        assert_eq!(m.accuracy, 1.0);
    }

    #[test]
    fn slices_split_by_label_provenance() {
        let p = trained();
        let items = vec![fraud_item(1), fraud_item(2), normal_item(3), normal_item(4)];
        let reports = p.detect(&items, &[50, 50, 50, 50]);
        let kinds = vec![
            LabelKind::FraudSufficient,
            LabelKind::FraudExpert,
            LabelKind::Normal,
            LabelKind::Normal,
        ];
        let slices = EvaluationSlices::compute(&reports, &kinds);
        // overall sees 2 positives, SE slice sees 1 positive and 3 rows
        assert_eq!(slices.overall.confusion.total(), 4);
        assert_eq!(slices.sufficient_evidence.confusion.total(), 3);
    }

    /// The 60 items `trained()` fits on, with their labels.
    fn training_rows() -> (Vec<ItemComments>, Vec<u8>) {
        training_items().into_iter().map(|l| (l.comments, l.label)).unzip()
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let p = trained();
        let bytes = p.to_snapshot().to_io2_bytes().unwrap();
        let p2 = CatsPipeline::restore(PipelineSnapshot::from_bytes(&bytes).unwrap());

        let test_items: Vec<ItemComments> =
            (0..20).map(|i| if i % 2 == 0 { fraud_item(88 + i) } else { normal_item(i) }).collect();
        let sales = vec![50u64; test_items.len()];
        let want = p.detect(&test_items, &sales);
        let got = p2.detect(&test_items, &sales);
        assert_eq!(got.len(), want.len());
        for (x, y) in got.iter().zip(&want) {
            assert_eq!(x.score.to_bits(), y.score.to_bits(), "item {}", x.index);
            assert_eq!((x.filter, x.is_fraud), (y.filter, y.is_fraud), "item {}", x.index);
        }
        assert!(got[0].is_fraud);
        assert!(!got[1].is_fraud);
    }

    #[test]
    fn to_snapshot_matches_a_gbt_fit_outside_the_pipeline() {
        use cats_ml::gbt::{GbtConfig, GradientBoostedTrees};
        use cats_ml::Classifier as _;
        let p = trained();
        let (items, labels) = training_rows();
        let rows = crate::features::extract_batch(&items, p.analyzer(), 0);
        let mut gbt = GradientBoostedTrees::new(GbtConfig::default());
        gbt.fit(&crate::detector::training_dataset(&rows, &labels));
        let outside = CatsPipeline::snapshot(p.analyzer().clone(), DetectorConfig::default(), gbt);
        assert_eq!(p.to_snapshot().to_io2_bytes().unwrap(), outside.to_io2_bytes().unwrap());
    }

    #[test]
    fn snapshot_rejects_a_threshold_outside_the_unit_interval() {
        let mut snap = trained().to_snapshot();
        for (threshold, ok) in [(0.0, true), (1.0, true), (-0.25, false), (1.5, false)] {
            snap.detector_config.threshold = threshold;
            let got = PipelineSnapshot::from_bytes(&snap.to_io2_bytes().unwrap());
            match got {
                Ok(back) => {
                    assert!(ok, "threshold {threshold} decoded");
                    assert_eq!(back.detector_config.threshold, threshold);
                }
                Err(PersistError::Format(msg)) => {
                    assert!(!ok, "threshold {threshold}: {msg}");
                    assert!(msg.contains("outside [0, 1]"), "{msg}");
                }
                Err(e) => panic!("threshold {threshold}: not a format error: {e}"),
            }
        }
    }

    #[test]
    fn snapshot_with_an_unfit_gbt_is_rejected() {
        let p = trained();
        let unfit = cats_ml::gbt::GradientBoostedTrees::new(cats_ml::gbt::GbtConfig::default());
        let snap = CatsPipeline::snapshot(p.analyzer().clone(), p.detector().config(), unfit);
        match PipelineSnapshot::from_bytes(&snap.to_io2_bytes().unwrap()) {
            Err(PersistError::Format(msg)) => assert!(msg.contains("gbt has no trees"), "{msg}"),
            Err(e) => panic!("not a format error: {e}"),
            Ok(_) => panic!("a snapshot with an empty forest decoded"),
        }
    }

    #[test]
    fn snapshot_version_is_written_and_validated() {
        let snap = trained().to_snapshot();
        assert_eq!(snap.format_version, SNAPSHOT_FORMAT_VERSION);
        let bytes = snap.to_io2_bytes().unwrap();
        let file = cats_io::io2::Io2File::parse(&bytes, "t").unwrap();
        assert_eq!(
            file.section("meta"),
            Some(&SNAPSHOT_FORMAT_VERSION.to_le_bytes()[..]),
            "version written to the meta section"
        );

        // Round-trip keeps the version.
        let back = PipelineSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back.format_version, SNAPSHOT_FORMAT_VERSION);

        // Every other format is rejected up front, by name: a future one
        // and format 2, whose `detector` and `gbt` sections held JSON.
        let mut other = snap;
        for (version, age) in [(SNAPSHOT_FORMAT_VERSION + 1, "newer"), (2, "older")] {
            other.format_version = version;
            match PipelineSnapshot::from_bytes(&other.to_io2_bytes().unwrap()) {
                Err(PersistError::Format(msg)) => assert!(
                    msg.contains(&format!("snapshot format {version} is {age} than supported")),
                    "{msg}"
                ),
                Err(e) => panic!("format {version}: not a format error: {e}"),
                Ok(_) => panic!("format {version} decoded"),
            }
        }
    }

    #[test]
    fn detector_section_is_three_fields_and_rejects_a_non_boolean_rule_flag() {
        let mut snap = trained().to_snapshot();
        snap.detector_config = DetectorConfig {
            min_sales_volume: 9,
            require_positive_evidence: false,
            ..snap.detector_config
        };
        let bytes = snap.to_io2_bytes().unwrap();
        let file = cats_io::io2::Io2File::parse(&bytes, "t").unwrap();
        let detector = file.section("detector").unwrap();
        let mut want = 9u64.to_le_bytes().to_vec();
        want.push(0);
        want.extend_from_slice(&snap.detector_config.threshold.to_le_bytes());
        assert_eq!(detector, want.as_slice());
        let back = PipelineSnapshot::from_bytes(&bytes).unwrap().detector_config;
        assert_eq!((back.min_sales_volume, back.require_positive_evidence), (9, false));

        let mut sections: Vec<(String, Vec<u8>)> = file
            .section_names()
            .map(|n| (n.to_owned(), file.section(n).unwrap().to_vec()))
            .collect();
        sections.iter_mut().find(|(n, _)| n == "detector").unwrap().1[8] = 2;
        let mut b = cats_io::io2::Io2Builder::new();
        for (name, payload) in sections {
            b.section(&name, payload);
        }
        match PipelineSnapshot::from_bytes(&b.finish()) {
            Err(PersistError::Format(msg)) => assert!(msg.contains("rule flag 2"), "{msg}"),
            Err(e) => panic!("not a format error: {e}"),
            Ok(_) => panic!("a rule flag of 2 decoded"),
        }
    }

    #[test]
    fn io2_snapshot_roundtrips_and_scores_bit_identically() {
        let p = trained();
        let bytes = p.to_snapshot().to_io2_bytes().unwrap();
        assert!(cats_io::io2::is_io2(&bytes));

        // Canonical: decode → encode reproduces the container exactly.
        let back = PipelineSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back.to_io2_bytes().unwrap(), bytes, "canonical IO2 encoding");

        // The decoded pipeline and the in-memory one it was encoded from
        // must produce byte-equal verdicts at every thread count.
        let test_items: Vec<ItemComments> = (0..12)
            .map(|i| if i % 2 == 0 { fraud_item(100 + i) } else { normal_item(i) })
            .collect();
        let sales = vec![50u64; test_items.len()];
        for threads in [1usize, 2, 8] {
            let par = Parallelism::with_threads(threads);
            let mut sa = PipelineSnapshot::from_bytes(&bytes).unwrap();
            sa.detector_config.parallelism = par;
            let mut sb = p.to_snapshot();
            sb.detector_config.parallelism = par;
            let ra = CatsPipeline::restore(sa).detect(&test_items, &sales);
            let rb = CatsPipeline::restore(sb).detect(&test_items, &sales);
            for (x, y) in ra.iter().zip(&rb) {
                assert_eq!(x.score.to_bits(), y.score.to_bits(), "threads={threads}");
                assert_eq!(x.is_fraud, y.is_fraud);
            }
        }
    }

    #[test]
    fn feature_reference_roundtrips_in_io2() {
        use crate::features::{extract_batch, FeatureReferenceSet, N_FEATURES};
        let p = trained();
        let rows = extract_batch(&training_rows().0, p.analyzer(), 0);

        let fr = FeatureReferenceSet::from_rows(&rows);
        assert_eq!(fr.rows, rows.len() as u64);
        assert_eq!(fr.per_feature.len(), N_FEATURES);
        assert!(!fr.is_empty());
        assert!(fr
            .per_feature
            .iter()
            .all(|c| c.windows(2).all(|w| w[0] <= w[1])
                && c.len() <= FeatureReferenceSet::MAX_SAMPLE));
        assert_eq!(fr.references().len(), N_FEATURES);

        let snap = p.to_snapshot().with_feature_reference(fr.clone());

        // IO2 round-trip is canonical WITH the optional section present.
        let bytes = snap.to_io2_bytes().unwrap();
        let back = PipelineSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back.feature_reference.as_ref(), Some(&fr));
        assert_eq!(back.to_io2_bytes().unwrap(), bytes, "canonical with featref");

        // The section is written only when a reference is present.
        let bare = p.to_snapshot();
        let bare_bytes = bare.to_io2_bytes().unwrap();
        let bare_file = cats_io::io2::Io2File::parse(&bare_bytes, "t").unwrap();
        assert!(bare_file.section("featref").is_none());
        assert!(PipelineSnapshot::from_bytes(&bare_bytes).unwrap().feature_reference.is_none());
        assert!(bare_bytes.len() < bytes.len());
    }

    #[test]
    fn io2_snapshot_save_and_load() {
        let snap = trained().to_snapshot();
        let dir = cats_io::ScratchDir::new("cats_snap_io2");

        // save() writes IO2; load() reads it back.
        let binary = dir.join("model.cats");
        snap.save(&binary).unwrap();
        assert!(cats_io::io2::is_io2(&std::fs::read(&binary).unwrap()));
        let loaded = PipelineSnapshot::load(&binary).unwrap();
        assert_eq!(loaded.format_version, snap.format_version);
        assert_eq!(std::fs::read(&binary).unwrap(), snap.to_io2_bytes().unwrap());
    }

    #[test]
    fn snapshot_decodes_lexicons_of_single_character_words() {
        // A lexicon word costs its 4-byte length prefix plus its UTF-8
        // bytes, so a one-character CJK word takes 7 bytes in all.
        let p = trained();
        let lexicon = cats_text::Lexicon::new(
            ["好".to_string(), "赞".to_string()],
            ["差".to_string(), "烂".to_string()],
        );
        let analyzer = SemanticAnalyzer::from_parts(lexicon, p.analyzer().sentiment().clone());
        let snap =
            CatsPipeline::snapshot(analyzer, DetectorConfig::default(), p.detector().gbt().clone());
        let bytes = snap.to_io2_bytes().unwrap();
        let back = PipelineSnapshot::from_bytes(&bytes).expect("short words decode");
        assert_eq!(back.to_io2_bytes().unwrap(), bytes);
    }

    #[test]
    fn snapshot_rejects_a_classifier_wider_than_the_feature_row() {
        // A forest splitting on feature N_FEATURES would index past the
        // detector's rows at the first score; decoding refuses it.
        use crate::features::N_FEATURES;
        use cats_ml::gbt::{GbtConfig, GradientBoostedTrees};
        use cats_ml::Classifier as _;
        let mut data = cats_ml::Dataset::new(N_FEATURES + 1);
        for i in 0..40 {
            let mut row = vec![0.0; N_FEATURES + 1];
            row[N_FEATURES] = i as f64;
            data.push(&row, u8::from(i >= 20));
        }
        let mut gbt = GradientBoostedTrees::new(GbtConfig::default());
        gbt.fit(&data);
        let snap =
            CatsPipeline::snapshot(trained().analyzer().clone(), DetectorConfig::default(), gbt);
        let err = PipelineSnapshot::from_bytes(&snap.to_io2_bytes().unwrap())
            .err()
            .expect("a 12-feature classifier must be rejected");
        assert!(err.to_string().contains("the detector extracts 11"), "{err}");
    }

    #[test]
    fn detect_accepts_borrowed_item_slices() {
        let p = trained();
        let owned = vec![fraud_item(12), normal_item(12)];
        let borrowed: Vec<&ItemComments> = owned.iter().collect();
        let a = p.detect(&owned, &[50, 50]);
        let b = p.detect(&borrowed, &[50, 50]);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                x.score.to_bits(),
                y.score.to_bits(),
                "borrowed batch must score identically"
            );
            assert_eq!(x.is_fraud, y.is_fraud);
        }
    }

    #[test]
    fn calibration_survives_nan_scores() {
        // Regression: a NaN score among the candidate thresholds must not
        // panic the sort or be chosen as the operating point.
        use crate::features::{FeatureVector, N_FEATURES};
        let mk = |index: usize, score: f64| DetectionReport {
            index,
            filter: FilterDecision::Classified,
            score,
            is_fraud: score >= 0.5,
            features: Some(FeatureVector([0.0; N_FEATURES])),
        };
        let reports = vec![mk(0, 0.9), mk(1, 0.2), mk(2, f64::NAN), mk(3, 0.8), mk(4, 0.1)];
        let labels = [1, 0, 0, 1, 0];
        let t = calibrate_balanced_threshold(&reports, &labels);
        assert!(t.is_finite(), "got {t}");
        assert!((0.0..=1.0).contains(&t));
        let tp = calibrate_precision_threshold(&reports, &labels, 0.9);
        assert!(tp.is_finite(), "got {tp}");
    }

    #[test]
    fn filtered_items_flow_through_pipeline() {
        let p = trained();
        let items = vec![fraud_item(5)];
        let reports = p.detect(&items, &[1]);
        assert_eq!(reports[0].filter, FilterDecision::FilteredLowSales);
        assert!(!reports[0].is_fraud);
    }

    fn snapshot_bytes(p: &CatsPipeline) -> Vec<u8> {
        p.to_snapshot().to_io2_bytes().unwrap()
    }

    #[test]
    fn analyzer_slot_resumes_when_intact_and_is_ignored_when_damaged_or_foreign() {
        let texts = corpus();
        let config = PipelineConfig::default();
        let dir = cats_io::ScratchDir::new("cats_pipeline_analyzer_slot");
        let store = cats_io::CheckpointStore::open(&*dir).expect("open checkpoint store");
        let uninterrupted = train_on(&texts, Some(&store), config);
        let want = snapshot_bytes(&uninterrupted);

        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let fp = train_fingerprint(
            &refs,
            &["hao0".to_string()],
            &["cha0".to_string()],
            &SENT_POS,
            &SENT_NEG,
            &training_items(),
            &config,
        );
        let slot = encode_analyzer_slot(fp, uninterrupted.analyzer());
        let resumed = cats_obs::counter("cats.core.train.resumed_stages");
        let rejected = cats_obs::counter("cats.core.train.ckpt_rejected");

        // The intact slot is taken as the finished analyzer stage.
        store.save("analyzer", &slot).unwrap();
        let before = resumed.get();
        assert_eq!(snapshot_bytes(&train_on(&texts, Some(&store), config)), want);
        assert!(resumed.get() > before, "an intact analyzer slot must be resumed");

        // Damage that leaves the store's own container intact: only the
        // slot's decoder or its fingerprint can catch it.
        let mut flipped_len = slot.clone();
        flipped_len[4 + 7] ^= 0x80; // top bit of the lexicon section length
        let mut flipped_count = slot.clone();
        flipped_count[4 + 8 + 7] ^= 0x80; // top bit of the positive word count
        let mut foreign = slot.clone();
        foreign[0] ^= 1;
        let cases = [
            ("truncated", slot[..slot.len() - 3].to_vec()),
            ("section length flipped", flipped_len),
            ("word count flipped", flipped_count),
            ("foreign fingerprint", foreign),
        ];
        for (name, bytes) in cases {
            store.save("analyzer", &bytes).unwrap();
            let before = rejected.get();
            let got = train_on(&texts, Some(&store), config);
            assert!(rejected.get() > before, "{name}: slot must be rejected");
            assert_eq!(
                snapshot_bytes(&got),
                want,
                "{name}: model differs from an uninterrupted run"
            );
            assert!(store.load("analyzer").is_none(), "{name}: store drained");
        }
    }

    #[test]
    fn a_store_never_changes_the_model_and_a_killed_run_resumes_bit_identical() {
        // 750 and 4,200 sentences: either side of word2vec's sharding
        // size (4,096). The kill fires after the 2nd save: on the smaller
        // corpus, which saves no word2vec epoch, that is the first GBT
        // round checkpoint after the analyzer slot; on the larger one, a
        // word2vec epoch, so only its resume skips epochs.
        let config = PipelineConfig {
            semantic: SemanticConfig {
                word2vec: cats_embedding::Word2VecConfig {
                    dim: 16,
                    epochs: 2,
                    ..Default::default()
                },
                ..SemanticConfig::default()
            },
            ..PipelineConfig::default()
        };
        let resumed_epochs = cats_obs::counter("cats.embedding.w2v.resumed_epochs");
        for (sentences, resumes_epochs) in [(750, false), (4_200, true)] {
            let mut texts = corpus();
            while texts.len() < sentences {
                texts.extend_from_within(..750.min(sentences - texts.len()));
            }
            let dir = cats_io::ScratchDir::new(&format!("cats_pipeline_store_{sentences}"));
            let store = cats_io::CheckpointStore::open(&*dir).expect("open checkpoint store");
            let plain = snapshot_bytes(&train_on(&texts, None, config));
            let checkpointed = snapshot_bytes(&train_on(&texts, Some(&store), config));
            assert_eq!(plain, checkpointed, "{sentences} sentences: a store changed the model");

            store.kill_after_saves(2);
            let run = || train_on(&texts, Some(&store), config);
            let killed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run));
            assert!(killed.is_err(), "{sentences} sentences: simulated kill fires");
            let before = resumed_epochs.get();
            assert_eq!(snapshot_bytes(&run()), plain, "{sentences} sentences: resumed model");
            assert_eq!(resumed_epochs.get() > before, resumes_epochs, "{sentences} sentences");
            for slot in ["w2v", "analyzer", "gbt"] {
                assert!(store.load(slot).is_none(), "{sentences} sentences: {slot} drained");
            }
        }
    }
}
