//! Shared experiment setup: platform → trained CATS instance.
//!
//! The paper's protocol, reproduced once here and reused by every
//! experiment binary:
//!
//! 1. instantiate the D0-shaped training platform;
//! 2. train the semantic analyzer: word2vec over the platform's comment
//!    corpus, seed expansion into *P*/*N*, and the sentiment model from a
//!    generated labeled review corpus (the SnowNLP stand-in);
//! 3. extract features for the labeled items and fit the detector's
//!    classifier (GBT by default).
//!
//! The detector is then applied *unchanged* to other platforms (D1,
//! E-platform) — the cross-platform deployment under evaluation.

use cats_core::pipeline::LabeledItem;
use cats_core::{
    CatsPipeline, DetectorConfig, ItemComments, PipelineConfig, SemanticAnalyzer, SemanticConfig,
};
use cats_embedding::{ExpansionConfig, Word2VecConfig};
use cats_platform::comment_model::{generate_comment, CommentStyle};
use cats_platform::{datasets, Item, ItemLabel, Platform, SyntheticLexicon};
use rand::{rngs::StdRng, SeedableRng};

/// Caps the word2vec training corpus so experiments stay laptop-scale even
/// at large `--scale` (the embedding only needs enough co-occurrence
/// statistics to cluster the lexicon).
pub const MAX_W2V_COMMENTS: usize = 60_000;

/// Number of labeled reviews per polarity for the sentiment model.
pub const SENTIMENT_REVIEWS: usize = 3_000;

/// Generates the labeled review corpus the sentiment model trains on —
/// the stand-in for SnowNLP's pre-training data (large-scale e-commerce
/// reviews with rating labels).
pub fn sentiment_corpus(
    lexicon: &SyntheticLexicon,
    n_per_class: usize,
    seed: u64,
) -> (Vec<String>, Vec<String>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E47);
    let pos = (0..n_per_class)
        .map(|_| generate_comment(lexicon, CommentStyle::OrganicPositive, &mut rng))
        .collect();
    let neg = (0..n_per_class)
        .map(|_| generate_comment(lexicon, CommentStyle::OrganicNegative, &mut rng))
        .collect();
    (pos, neg)
}

/// Converts a platform item into the extractor's input shape.
pub fn item_comments(item: &Item) -> ItemComments {
    ItemComments::from_texts(item.comments.iter().map(|c| c.content.as_str()))
}

/// Binary label of an item (fraud = 1).
pub fn item_label(item: &Item) -> u8 {
    u8::from(item.label.is_fraud())
}

/// Word2vec configuration used by the experiments (smaller than the
/// library defaults so the corpus pass stays fast).
pub fn experiment_w2v() -> Word2VecConfig {
    Word2VecConfig { dim: 48, window: 4, negative: 5, epochs: 3, ..Word2VecConfig::default() }
}

/// Trains the semantic analyzer from a platform's own public comments.
pub fn train_analyzer(platform: &Platform, seed: u64) -> SemanticAnalyzer {
    train_analyzer_with(platform, seed, cats_par::Parallelism::default())
}

/// [`train_analyzer`] with an explicit parallelism setting — the scaling
/// experiment sweeps this over thread counts.
pub fn train_analyzer_with(
    platform: &Platform,
    seed: u64,
    parallelism: cats_par::Parallelism,
) -> SemanticAnalyzer {
    let (corpus, sent_pos, sent_neg) = analyzer_texts(platform, seed);
    let sp: Vec<&str> = sent_pos.iter().map(String::as_str).collect();
    let sn: Vec<&str> = sent_neg.iter().map(String::as_str).collect();
    SemanticAnalyzer::train(
        &corpus,
        &platform.lexicon().positive_seeds(),
        &platform.lexicon().negative_seeds(),
        &sp,
        &sn,
        SemanticConfig { parallelism, ..pipeline_config().semantic },
    )
}

/// The analyzer's training texts from a platform: its first
/// [`MAX_W2V_COMMENTS`] comments for word2vec, and the positive and
/// negative reviews of [`sentiment_corpus`].
fn analyzer_texts(platform: &Platform, seed: u64) -> (Vec<&str>, Vec<String>, Vec<String>) {
    let corpus: Vec<&str> = platform
        .items()
        .iter()
        .flat_map(|i| i.comments.iter().map(|c| c.content.as_str()))
        .take(MAX_W2V_COMMENTS)
        .collect();
    let (sent_pos, sent_neg) = sentiment_corpus(platform.lexicon(), SENTIMENT_REVIEWS, seed);
    (corpus, sent_pos, sent_neg)
}

/// The standard trained pipeline: analyzer + detector fit on the given
/// (usually D0-shaped) platform, at the default 0.5 operating point.
pub fn train_pipeline(train_platform: &Platform, seed: u64) -> CatsPipeline {
    train_pipeline_with(train_platform, seed, DetectorConfig::default())
}

/// Audited-precision target of the deployment operating point (the paper
/// reports 0.96 on the E-platform sample).
pub const DEPLOY_PRECISION_TARGET: f64 = 0.99;

/// [`train_pipeline`] with an explicit detector configuration (e.g. the
/// deployment threshold), whose parallelism the whole training inherits.
pub fn train_pipeline_with(
    train_platform: &Platform,
    seed: u64,
    config: DetectorConfig,
) -> CatsPipeline {
    let (corpus, sent_pos, sent_neg) = analyzer_texts(train_platform, seed);
    let sp: Vec<&str> = sent_pos.iter().map(String::as_str).collect();
    let sn: Vec<&str> = sent_neg.iter().map(String::as_str).collect();
    let labeled: Vec<LabeledItem> = train_platform
        .items()
        .iter()
        .map(|it| LabeledItem { comments: item_comments(it), label: item_label(it) })
        .collect();
    CatsPipeline::train(
        &corpus,
        &train_platform.lexicon().positive_seeds(),
        &train_platform.lexicon().negative_seeds(),
        &sp,
        &sn,
        &labeled,
        None,
        PipelineConfig { detector: config, parallelism: config.parallelism, ..pipeline_config() },
    )
}

/// [`train_pipeline`] calibrated to the deployment operating point: the
/// threshold is chosen on a small labeled production-shaped holdout so
/// that holdout precision reaches [`DEPLOY_PRECISION_TARGET`] — the
/// classifier trains on the balanced D0 set, but production prevalence is
/// ~0.3%, and reporting only high-confidence items is what gives the
/// paper its 0.96 audited precision on 10,720 reports.
pub fn train_deploy_pipeline(train_platform: &Platform, seed: u64) -> CatsPipeline {
    let mut pipeline = train_pipeline(train_platform, seed);
    // The audited calibration sample must match the *deployment* platform's
    // comment density: items with few comments have noisy feature averages,
    // so a threshold tuned on dense-comment data under-filters sparse ones.
    let holdout = datasets::e_platform(0.001, seed.wrapping_add(0xCA11));
    let items: Vec<ItemComments> = holdout.items().iter().map(item_comments).collect();
    let sales: Vec<u64> = holdout.items().iter().map(|i| i.sales_volume).collect();
    let reports = pipeline.detect(&items, &sales);
    let labels: Vec<u8> = holdout.items().iter().map(item_label).collect();
    let threshold = cats_core::pipeline::calibrate_precision_threshold(
        &reports,
        &labels,
        DEPLOY_PRECISION_TARGET,
    );
    pipeline.detector_mut().set_threshold(threshold);
    pipeline
}

/// D0 at `scale` (see `cats_platform::datasets::d0`).
pub fn d0(scale: f64, seed: u64) -> Platform {
    datasets::d0(scale, seed)
}

/// Splits a platform's items into (fraud, normal) reference vectors.
pub fn split_by_label(platform: &Platform) -> (Vec<&Item>, Vec<&Item>) {
    let mut fraud = Vec::new();
    let mut normal = Vec::new();
    for item in platform.items() {
        if item.label.is_fraud() {
            fraud.push(item);
        } else {
            normal.push(item);
        }
    }
    (fraud, normal)
}

/// Label-kind conversion for Table VI slicing.
pub fn label_kind(label: ItemLabel) -> cats_core::pipeline::LabelKind {
    match label {
        ItemLabel::FraudSufficientEvidence => cats_core::pipeline::LabelKind::FraudSufficient,
        ItemLabel::FraudExpertLabeled => cats_core::pipeline::LabelKind::FraudExpert,
        ItemLabel::Normal => cats_core::pipeline::LabelKind::Normal,
    }
}

/// The default `PipelineConfig` used across experiments.
pub fn pipeline_config() -> PipelineConfig {
    PipelineConfig {
        semantic: SemanticConfig {
            word2vec: experiment_w2v(),
            expansion: ExpansionConfig::default(),
            ..SemanticConfig::default()
        },
        detector: DetectorConfig::default(),
        ..PipelineConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sentiment_corpus_has_requested_sizes_and_polarity() {
        let lex = SyntheticLexicon::generate(Default::default(), 3);
        let (pos, neg) = sentiment_corpus(&lex, 50, 1);
        assert_eq!(pos.len(), 50);
        assert_eq!(neg.len(), 50);
        // positive reviews mention positive words more often
        let count_hits = |texts: &[String], words: &[String]| -> usize {
            texts
                .iter()
                .flat_map(|t| t.split_whitespace())
                .filter(|w| words.iter().any(|p| p == w))
                .count()
        };
        let pos_hits = count_hits(&pos, lex.positive());
        let neg_hits = count_hits(&neg, lex.negative());
        assert!(pos_hits > 0 && neg_hits > 0);
    }

    #[test]
    fn train_pipeline_detects_on_holdout() {
        let d0 = datasets::d0(0.004, 11); // ~56 fraud / 80 normal
        let pipeline = train_pipeline(&d0, 11);
        // Evaluate on a different platform instance (cross-platform claim).
        let holdout = datasets::d0(0.004, 99);
        let items: Vec<ItemComments> = holdout.items().iter().map(item_comments).collect();
        let sales: Vec<u64> = holdout.items().iter().map(|i| i.sales_volume).collect();
        let reports = pipeline.detect(&items, &sales);
        let labels: Vec<u8> = holdout.items().iter().map(item_label).collect();
        let m = CatsPipeline::evaluate(&reports, &labels);
        assert!(m.f1 > 0.8, "holdout F1 {} too low", m.f1);
    }

    #[test]
    fn split_by_label_partitions() {
        let p = datasets::d0(0.002, 2);
        let (f, n) = split_by_label(&p);
        assert_eq!(f.len() + n.len(), p.items().len());
        assert!(f.iter().all(|i| i.label.is_fraud()));
        assert!(n.iter().all(|i| !i.label.is_fraud()));
    }
}
