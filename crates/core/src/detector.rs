//! The two-stage detector (paper §II-B).
//!
//! **Stage 1 — rule filter.** "It filters part of the items according to
//! some rules, e.g., filtering the e-commerce items, of which the sales
//! volumes are less than 5, and filtering the e-commerce items which
//! contain no positive n-grams or words." Filtered items are never
//! classified (they are reported as normal).
//!
//! **Stage 2 — binary classifier.** The gradient-boosted-tree model that
//! won Table III, over the 11-feature rows. The detector owns the
//! concrete [`GradientBoostedTrees`], so a trained detector is also a
//! serializable one (see `CatsPipeline::to_snapshot`); the other Table
//! III models are compared on feature datasets by
//! [`cats_ml::model_selection`], not plugged in here.

use crate::features::{
    extract_batch, extract_view, map_items, DetectItem, FeatureVector, ItemComments, ItemView,
    N_FEATURES,
};
use crate::semantic::SemanticAnalyzer;
use cats_ml::gbt::{GbtConfig, GradientBoostedTrees};
use cats_ml::{Classifier, Dataset};
use cats_par::Parallelism;
use serde::{Deserialize, Serialize};

/// Rule-filter and decision-threshold configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DetectorConfig {
    /// Items below this sales volume are filtered out (paper: 5).
    pub min_sales_volume: u64,
    /// Items whose comments contain no positive words and no positive
    /// 2-grams are filtered out.
    pub require_positive_evidence: bool,
    /// Classification threshold on the fraud score.
    pub threshold: f64,
    /// Parallelism for feature extraction during fit/detect and for GBT
    /// fitting (a runtime knob, not part of the serialized model).
    #[serde(skip)]
    pub parallelism: Parallelism,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        Self {
            min_sales_volume: 5,
            require_positive_evidence: true,
            threshold: 0.5,
            parallelism: Parallelism::default(),
        }
    }
}

impl DetectorConfig {
    /// Checks a decision threshold against its range `[0, 1]`: outside
    /// it (or NaN) the detector would report every classified item as
    /// fraud or none.
    pub fn check_threshold(threshold: f64) -> Result<(), String> {
        if (0.0..=1.0).contains(&threshold) {
            Ok(())
        } else {
            Err(format!("threshold {threshold} is outside [0, 1]"))
        }
    }
}

/// Why stage 1 kept or dropped an item.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FilterDecision {
    /// Passed both rules; scored by the classifier.
    Classified,
    /// Dropped: sales volume below the minimum.
    FilteredLowSales,
    /// Dropped: no positive words or positive 2-grams in any comment.
    FilteredNoPositiveEvidence,
    /// Dropped for data health, not by the paper's rules: the item has
    /// zero usable comments (e.g. a fully truncated crawl) or produced a
    /// non-finite feature row. Quarantined items are never scored.
    Quarantined,
}

/// Per-item detection outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DetectionReport {
    /// Position of the item in the input batch.
    pub index: usize,
    /// Stage-1 outcome.
    pub filter: FilterDecision,
    /// Fraud score in \[0,1\]; 0 for filtered items.
    pub score: f64,
    /// Final verdict: reported as fraud?
    pub is_fraud: bool,
    /// The extracted features (present for classified items).
    pub features: Option<FeatureVector>,
}

/// Boosting rounds between GBT checkpoints in a checkpointed
/// [`crate::CatsPipeline::train`].
const GBT_CKPT_EVERY: usize = 10;

/// Builds the training [`Dataset`] the stage-2 classifier fits on: the
/// finite feature rows of `rows`, with non-finite rows (degraded input
/// that slipped past upstream cleaning) dropped. This is exactly the
/// cleaning [`Detector::fit_features`] applies — exposed so callers that
/// fit a GBT outside a detector see the same data the detector would.
pub fn training_dataset(rows: &[FeatureVector], labels: &[u8]) -> Dataset {
    assert_eq!(rows.len(), labels.len(), "rows/labels mismatch");
    let mut data = Dataset::new(N_FEATURES);
    for (r, &l) in rows.iter().zip(labels) {
        if r.is_finite() {
            data.push(r.as_slice(), l);
        }
    }
    data
}

/// Stage-1 evidence: any token of any comment in *P*. A positive 2-gram
/// contains a positive word, so this is the whole "no positive n-grams or
/// words" test.
fn has_positive_evidence<V: ItemView>(item: &V, analyzer: &SemanticAnalyzer) -> bool {
    let lex = analyzer.lexicon();
    (0..item.comment_count()).any(|i| item.comment(i).1.iter().any(|t| lex.is_positive(t.as_ref())))
}

/// The CATS detector: rule filter + trained GBT.
pub struct Detector {
    config: DetectorConfig,
    gbt: GradientBoostedTrees,
}

impl Detector {
    /// A detector with an unfit GBT of the Table III hyperparameters.
    pub fn with_default_classifier(config: DetectorConfig) -> Self {
        Self::new(config, GradientBoostedTrees::new(GbtConfig::default()))
    }

    /// A detector over `gbt`, fit or not — e.g. a model restored from a
    /// snapshot. The GBT fits with the configuration's `parallelism`.
    pub fn new(config: DetectorConfig, mut gbt: GradientBoostedTrees) -> Self {
        gbt.set_parallelism(config.parallelism);
        Self { config, gbt }
    }

    /// The active configuration.
    pub fn config(&self) -> DetectorConfig {
        self.config
    }

    /// Whether the stage-2 GBT has been fit.
    pub fn is_fit(&self) -> bool {
        self.gbt.is_fit()
    }

    /// The stage-2 GBT.
    pub fn gbt(&self) -> &GradientBoostedTrees {
        &self.gbt
    }

    /// Adjusts the decision threshold — used to move the trained detector
    /// to a different operating point (e.g. one calibrated on a holdout,
    /// or the high-precision deployment point) without refitting.
    pub fn set_threshold(&mut self, threshold: f64) {
        DetectorConfig::check_threshold(threshold).unwrap_or_else(|e| panic!("{e}"));
        self.config.threshold = threshold;
    }

    /// Pins the thread count of feature extraction and GBT fitting —
    /// used by sharded serving, where each shard process owns a slice of
    /// the machine and must not oversubscribe it with the auto-resolved
    /// pool width.
    pub fn set_parallelism(&mut self, parallelism: Parallelism) {
        self.config.parallelism = parallelism;
        self.gbt.set_parallelism(parallelism);
    }

    /// Applies the stage-1 rules to one item.
    pub fn filter_item(
        &self,
        sales_volume: u64,
        item: &ItemComments,
        analyzer: &SemanticAnalyzer,
    ) -> FilterDecision {
        match self.sales_rule(sales_volume) {
            FilterDecision::Classified => self.evidence_rule(item, analyzer),
            dropped => dropped,
        }
    }

    /// Stage 1's first rule, which needs no tokens.
    fn sales_rule(&self, sales_volume: u64) -> FilterDecision {
        if sales_volume < self.config.min_sales_volume {
            FilterDecision::FilteredLowSales
        } else {
            FilterDecision::Classified
        }
    }

    /// Stage 1's second rule, over the item's tokens.
    fn evidence_rule<V: ItemView>(&self, item: &V, analyzer: &SemanticAnalyzer) -> FilterDecision {
        if self.config.require_positive_evidence && !has_positive_evidence(item, analyzer) {
            FilterDecision::FilteredNoPositiveEvidence
        } else {
            FilterDecision::Classified
        }
    }

    /// Trains the stage-2 classifier on labeled feature rows. Non-finite
    /// rows (degraded input that slipped past upstream cleaning) are
    /// dropped rather than poisoning the model.
    ///
    /// # Panics
    /// Panics if no finite rows remain.
    pub fn fit_features(&mut self, rows: &[FeatureVector], labels: &[u8]) {
        self.fit_rows(rows, labels, None);
    }

    /// [`Detector::fit_features`], with the GBT's boosting rounds
    /// checkpointing into `checkpoint` under the `"gbt"` stage every
    /// [`GBT_CKPT_EVERY`] rounds when a store is given.
    fn fit_rows(
        &mut self,
        rows: &[FeatureVector],
        labels: &[u8],
        checkpoint: Option<&cats_io::CheckpointStore>,
    ) {
        let data = training_dataset(rows, labels);
        assert!(!data.is_empty(), "no finite training rows");
        match checkpoint {
            Some(store) => self.gbt.fit_checkpointed(&data, store, "gbt", GBT_CKPT_EVERY),
            None => self.gbt.fit(&data),
        }
    }

    /// Trains from labeled items: extracts features (in parallel) then
    /// fits. Filtered-out items still participate in training — the paper
    /// pre-trains on a labeled dataset without re-filtering it.
    ///
    /// Accepts owned items or references, so callers holding borrowed
    /// training sets do not have to clone the comment vectors.
    pub fn fit<T>(&mut self, items: &[T], labels: &[u8], analyzer: &SemanticAnalyzer)
    where
        T: std::borrow::Borrow<ItemComments> + Sync,
    {
        self.fit_impl(items, labels, analyzer, None);
    }

    /// [`Detector::fit`], checkpointing the GBT's rounds into
    /// `checkpoint` when a store is given (see [`Detector::fit_rows`]).
    pub(crate) fn fit_impl<T>(
        &mut self,
        items: &[T],
        labels: &[u8],
        analyzer: &SemanticAnalyzer,
        checkpoint: Option<&cats_io::CheckpointStore>,
    ) where
        T: std::borrow::Borrow<ItemComments> + Sync,
    {
        let _span = cats_obs::span!("cats.core.fit", { items.len() });
        let rows = extract_batch(items, analyzer, self.config.parallelism.threads);
        self.fit_rows(&rows, labels, checkpoint);
    }

    /// Runs both stages over a batch, producing one report per item.
    ///
    /// Accepts any [`DetectItem`]: owned or borrowed [`ItemComments`]
    /// (`&[ItemComments]` and `&[&ItemComments]` both work), or items
    /// given as their raw comment texts (`&[&[String]]`), which are
    /// segmented into slices of those texts inside each item's work —
    /// the serving layer passes request comment lists straight in,
    /// copying no text or token.
    ///
    /// The quarantine check and the sales rule need no tokens and run
    /// first. Each remaining item is then segmented, evidence-tested and
    /// extracted as one task on the `cats-par` pool, so segmentation
    /// follows the detector's `Parallelism` and the evidence rule and the
    /// kernel read the same tokens. The reports are identical at every
    /// thread count and for either form of the same item.
    ///
    /// # Panics
    /// Panics if the detector has not been fit, or if
    /// `sales_volumes.len() != items.len()`.
    pub fn detect<T: DetectItem>(
        &self,
        items: &[T],
        sales_volumes: &[u64],
        analyzer: &SemanticAnalyzer,
    ) -> Vec<DetectionReport> {
        assert!(self.is_fit(), "detect before fit");
        assert_eq!(items.len(), sales_volumes.len(), "items/sales mismatch");
        let _span = cats_obs::span!("cats.core.detect", { items.len() });

        // Stage 0: data-health quarantine — an item with zero usable
        // comments (fully truncated or fully dropped crawl) carries no
        // text signal; scoring its synthetic zero-row would be noise.
        // Stage 1 starts with the paper's sales rule.
        let decisions: Vec<FilterDecision> = items
            .iter()
            .zip(sales_volumes)
            .map(|(item, &sales)| {
                if item.comment_count() == 0 {
                    FilterDecision::Quarantined
                } else {
                    self.sales_rule(sales)
                }
            })
            .collect();

        // The rest of stage 1 and stage 2's features, one pool task per
        // remaining item.
        let pending: Vec<usize> =
            (0..items.len()).filter(|&i| decisions[i] == FilterDecision::Classified).collect();
        let rows = map_items(self.config.parallelism.threads, pending.len(), |k| {
            let view = items[pending[k]].view();
            match self.evidence_rule(&view, analyzer) {
                FilterDecision::Classified => Ok(extract_view(&view, analyzer)),
                dropped => Err(dropped),
            }
        });

        let classify_span = cats_obs::span!("cats.core.detect.classify", { pending.len() });
        let mut reports: Vec<DetectionReport> = decisions
            .iter()
            .enumerate()
            .map(|(index, &filter)| DetectionReport {
                index,
                filter,
                score: 0.0,
                is_fraud: false,
                features: None,
            })
            .collect();
        for (&i, row) in pending.iter().zip(rows) {
            let row = match row {
                Ok(row) => row,
                Err(dropped) => {
                    reports[i].filter = dropped;
                    continue;
                }
            };
            // Post-extraction quarantine: never feed a non-finite row to
            // the classifier or emit a NaN score.
            if !row.is_finite() {
                reports[i].filter = FilterDecision::Quarantined;
                continue;
            }
            let score = self.gbt.predict_proba(row.as_slice());
            reports[i].score = score;
            reports[i].is_fraud = score >= self.config.threshold;
            reports[i].features = Some(row);
        }
        drop(classify_span);
        reports
    }

    /// Scores feature rows straight through the stage-2 classifier, one
    /// `predict_proba` per row. Non-finite rows score 0.0 — the
    /// streaming caller has no quarantine lane, and a zero score is the
    /// same "treat as normal" outcome [`Detector::detect`] reaches
    /// through [`FilterDecision::Quarantined`].
    ///
    /// # Panics
    /// Panics if the detector has not been fit.
    pub fn score_rows(&self, rows: &[FeatureVector]) -> Vec<f64> {
        assert!(self.is_fit(), "score before fit");
        rows.iter()
            .map(|row| if row.is_finite() { self.gbt.predict_proba(row.as_slice()) } else { 0.0 })
            .collect()
    }

    /// Stage-2 decision threshold currently in force.
    pub fn threshold(&self) -> f64 {
        self.config.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cats_sentiment::SentimentModel;
    use cats_text::Lexicon;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn analyzer() -> SemanticAnalyzer {
        let lex = Lexicon::new(["hao".to_string()], ["cha".to_string()]);
        let docs = |texts: &[&str]| -> Vec<Vec<String>> {
            texts.iter().map(|t| t.split_whitespace().map(String::from).collect()).collect()
        };
        let sent = SentimentModel::train(&docs(&["hao hao"]), &docs(&["cha cha"]));
        SemanticAnalyzer::from_parts(lex, sent)
    }

    /// Fraud-looking item: positive-saturated repetitive comments.
    fn fraud_item(i: usize) -> ItemComments {
        ItemComments::from_texts([
            format!("hao hao hao ! zhen hao w{i} ， hao hao x y z hao").as_str(),
            "hen hao hao ！ hao hao feichang hao hao hao",
        ])
    }

    /// Normal-looking item: short mixed comments.
    fn normal_item(i: usize) -> ItemComments {
        ItemComments::from_texts([format!("shu hao kan w{i}").as_str(), "dongxi cha le dian"])
    }

    fn trained_detector(a: &SemanticAnalyzer) -> Detector {
        let mut items = Vec::new();
        let mut labels = Vec::new();
        for i in 0..40 {
            items.push(fraud_item(i));
            labels.push(1);
            items.push(normal_item(i));
            labels.push(0);
        }
        let mut det = Detector::with_default_classifier(DetectorConfig::default());
        det.fit(&items, &labels, a);
        det
    }

    #[test]
    fn filter_drops_low_sales() {
        let a = analyzer();
        let det = Detector::with_default_classifier(DetectorConfig::default());
        let item = fraud_item(0);
        assert_eq!(det.filter_item(4, &item, &a), FilterDecision::FilteredLowSales);
        assert_eq!(det.filter_item(5, &item, &a), FilterDecision::Classified);
    }

    #[test]
    fn filter_drops_items_without_positive_evidence() {
        let a = analyzer();
        let det = Detector::with_default_classifier(DetectorConfig::default());
        let bare = ItemComments::from_texts(["cha dongxi", "x y z"]);
        assert_eq!(det.filter_item(100, &bare, &a), FilterDecision::FilteredNoPositiveEvidence);
        let cfg = DetectorConfig { require_positive_evidence: false, ..DetectorConfig::default() };
        let det2 = Detector::with_default_classifier(cfg);
        assert_eq!(det2.filter_item(100, &bare, &a), FilterDecision::Classified);
    }

    #[test]
    fn evidence_filter_matches_word_or_bigram_rule() {
        // The paper's rule, as first written: a positive word or a
        // positive 2-gram in some comment.
        let a = analyzer();
        let det = Detector::with_default_classifier(DetectorConfig::default());
        let lex = a.lexicon();
        let words = ["hao", "cha", "x", "!", "hao\u{1}cha"];
        let mut rng = StdRng::seed_from_u64(7);
        for case in 0..500 {
            let texts: Vec<String> = (0..case % 4)
                .map(|_| {
                    (0..case % 7)
                        .map(|_| words[rng.next_u64() as usize % words.len()])
                        .collect::<Vec<_>>()
                        .join(" ")
                })
                .collect();
            let item = ItemComments::from_texts(texts.iter().map(String::as_str));
            let has_evidence = item.tokens.iter().any(|toks| {
                lex.positive_count(toks) > 0
                    || cats_text::ngram::positive_bigram_count(toks, lex) > 0
            });
            let want = if has_evidence {
                FilterDecision::Classified
            } else {
                FilterDecision::FilteredNoPositiveEvidence
            };
            assert_eq!(det.filter_item(100, &item, &a), want, "case {case}: {texts:?}");
        }
    }

    #[test]
    fn detector_learns_to_separate() {
        let a = analyzer();
        let det = trained_detector(&a);
        let items = vec![fraud_item(99), normal_item(99)];
        let reports = det.detect(&items, &[50, 50], &a);
        assert!(reports[0].is_fraud, "score {}", reports[0].score);
        assert!(!reports[1].is_fraud, "score {}", reports[1].score);
        assert!(reports[0].features.is_some());
    }

    #[test]
    fn filtered_items_are_not_scored() {
        let a = analyzer();
        let det = trained_detector(&a);
        let items = vec![fraud_item(1)];
        let reports = det.detect(&items, &[2], &a);
        assert_eq!(reports[0].filter, FilterDecision::FilteredLowSales);
        assert!(!reports[0].is_fraud);
        assert_eq!(reports[0].score, 0.0);
        assert!(reports[0].features.is_none());
    }

    #[test]
    fn reports_preserve_input_order() {
        let a = analyzer();
        let det = trained_detector(&a);
        let items = vec![normal_item(1), fraud_item(2), normal_item(3)];
        let reports = det.detect(&items, &[50, 50, 50], &a);
        assert_eq!(reports.len(), 3);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.index, i);
        }
        assert!(reports[1].is_fraud);
    }

    #[test]
    fn threshold_shifts_verdicts() {
        let a = analyzer();
        let mut permissive = Detector::with_default_classifier(DetectorConfig {
            threshold: 0.0,
            ..DetectorConfig::default()
        });
        let mut items = Vec::new();
        let mut labels = Vec::new();
        for i in 0..20 {
            items.push(fraud_item(i));
            labels.push(1);
            items.push(normal_item(i));
            labels.push(0);
        }
        permissive.fit(&items, &labels, &a);
        let reports = permissive.detect(&[normal_item(7)], &[50], &a);
        assert!(reports[0].is_fraud, "threshold 0 reports everything classified");
    }

    #[test]
    #[should_panic(expected = "detect before fit")]
    fn detect_before_fit_panics() {
        let a = analyzer();
        let det = Detector::with_default_classifier(DetectorConfig::default());
        det.detect(&[fraud_item(0)], &[10], &a);
    }

    #[test]
    fn empty_items_are_quarantined_not_scored() {
        let a = analyzer();
        let det = trained_detector(&a);
        let items = vec![ItemComments::default(), fraud_item(3)];
        let reports = det.detect(&items, &[50, 50], &a);
        assert_eq!(reports[0].filter, FilterDecision::Quarantined);
        assert!(!reports[0].is_fraud);
        assert_eq!(reports[0].score, 0.0);
        assert!(reports[0].features.is_none());
        assert!(reports[1].is_fraud, "healthy items still classified");
    }

    /// A seeded item given as raw texts: zero comments; empty,
    /// whitespace-only and punctuation-only comments; multi-byte words;
    /// ASCII and Unicode whitespace; punctuation next to whitespace.
    fn seeded_texts(case: usize, rng: &mut StdRng) -> Vec<String> {
        const WORDS: &[&str] =
            &["hao", "cha", "x", "dongxi", "很好", "🙂", "é", "!", "。", "，", "…", "\u{1}"];
        const SEPS: &[&str] = &[" ", " ", "", "\t", "\u{a0}", "\u{3000}", "\u{2028}", " ! "];
        let comments = if case % 7 == 0 { 0 } else { 1 + (rng.next_u64() % 6) as usize };
        (0..comments)
            .map(|c| match (case + c) % 9 {
                0 => String::new(),
                1 => " \u{3000}\t\u{a0} ".to_string(),
                2 => "!。，…".to_string(),
                _ => {
                    // Words without "hao" leave the item no positive evidence.
                    let lo = usize::from(case % 5 == 0);
                    let mut text = String::new();
                    for _ in 0..rng.next_u64() % 14 {
                        text.push_str(
                            WORDS[lo + (rng.next_u64() % (WORDS.len() - lo) as u64) as usize],
                        );
                        text.push_str(SEPS[(rng.next_u64() % SEPS.len() as u64) as usize]);
                    }
                    text
                }
            })
            .collect()
    }

    fn same_report(a: &DetectionReport, b: &DetectionReport) -> bool {
        let features = match (&a.features, &b.features) {
            (Some(x), Some(y)) => x.0.iter().zip(&y.0).all(|(p, q)| p.to_bits() == q.to_bits()),
            (x, y) => x.is_none() && y.is_none(),
        };
        a.index == b.index
            && a.filter == b.filter
            && a.score.to_bits() == b.score.to_bits()
            && a.is_fraud == b.is_fraud
            && features
    }

    #[test]
    fn raw_text_detect_is_bit_identical_to_segmented_detect() {
        let a = analyzer();
        let mut det = trained_detector(&a);
        let mut rng = StdRng::seed_from_u64(0xD37E_C7E5);
        let raw: Vec<Vec<String>> = (0..600).map(|case| seeded_texts(case, &mut rng)).collect();
        let sales: Vec<u64> =
            (0..raw.len()).map(|_| [0, 4, 5, 50][rng.next_u64() as usize % 4]).collect();
        let segmented: Vec<ItemComments> =
            raw.iter().map(|t| ItemComments::from_texts(t.iter().map(String::as_str))).collect();
        det.set_parallelism(Parallelism::serial());
        let want = det.detect(&segmented, &sales, &a);

        // Every stage-0/1 outcome is exercised, and the filter decision
        // matches the public rule filter.
        for decision in [
            FilterDecision::Classified,
            FilterDecision::FilteredLowSales,
            FilterDecision::FilteredNoPositiveEvidence,
            FilterDecision::Quarantined,
        ] {
            assert!(want.iter().any(|r| r.filter == decision), "no {decision:?} case");
        }
        for (r, (item, &sv)) in want.iter().zip(segmented.iter().zip(&sales)) {
            if !item.is_empty() {
                assert_eq!(r.filter, det.filter_item(sv, item, &a), "item {}", r.index);
            }
        }

        let slices: Vec<&[String]> = raw.iter().map(Vec::as_slice).collect();
        for threads in [1, 2] {
            det.set_parallelism(Parallelism::with_threads(threads));
            let runs = [det.detect(&slices, &sales, &a), det.detect(&segmented, &sales, &a)];
            for got in &runs {
                let mismatches = got.iter().zip(&want).filter(|(g, w)| !same_report(g, w)).count();
                assert_eq!((got.len(), mismatches), (want.len(), 0), "threads={threads}");
            }
        }
    }

    #[test]
    fn non_finite_training_rows_are_dropped() {
        let mut det = Detector::with_default_classifier(DetectorConfig::default());
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..20 {
            let mut v = [0.0; N_FEATURES];
            v[0] = (i % 7) as f64;
            v[5] = i as f64;
            rows.push(FeatureVector(v));
            labels.push(u8::from(i % 7 >= 4));
        }
        rows.push(FeatureVector([f64::NAN; N_FEATURES]));
        labels.push(1);
        rows.push(FeatureVector([f64::INFINITY; N_FEATURES]));
        labels.push(0);
        det.fit_features(&rows, &labels);
        assert!(det.is_fit());
        // scoring a finite row stays finite
        let score = {
            let a = analyzer();
            let reports = det.detect(&[fraud_item(0)], &[50], &a);
            reports[0].score
        };
        assert!(score.is_finite());
    }

    #[test]
    #[should_panic(expected = "no finite training rows")]
    fn all_non_finite_training_rows_panic() {
        let mut det = Detector::with_default_classifier(DetectorConfig::default());
        det.fit_features(&[FeatureVector([f64::NAN; N_FEATURES])], &[1]);
    }

    #[test]
    fn feature_vector_finiteness_check() {
        assert!(FeatureVector([0.0; N_FEATURES]).is_finite());
        let mut v = [1.0; N_FEATURES];
        v[4] = f64::NAN;
        assert!(!FeatureVector(v).is_finite());
        v[4] = f64::NEG_INFINITY;
        assert!(!FeatureVector(v).is_finite());
    }

    #[test]
    fn the_gbt_fits_with_the_configured_parallelism() {
        // GbtConfig's parallelism is readable only through its Debug form.
        let fits_with = |det: &Detector, par: Parallelism| {
            format!("{:?}", det.gbt()).contains(&format!("parallelism: {par:?}"))
        };
        for par in [Parallelism::serial(), Parallelism::with_threads(3), Parallelism::default()] {
            let cfg = DetectorConfig { parallelism: par, ..DetectorConfig::default() };
            let mut det = Detector::with_default_classifier(cfg);
            assert!(fits_with(&det, par), "{par:?}");
            assert!(!det.is_fit());
            det.set_parallelism(Parallelism::with_threads(5));
            assert!(fits_with(&det, Parallelism::with_threads(5)), "{par:?} then 5");
        }
    }
}
