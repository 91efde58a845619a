//! # cats-core — the Cross-platform Anti-fraud System
//!
//! The paper's primary contribution: a third-party fraud-item detector
//! that consumes only public e-commerce data. Architecture (Fig 6):
//!
//! ```text
//!  data collector ─▶ semantic analyzer ─▶ feature extractor ─▶ detector
//!  (cats-collector)  (word2vec+sentiment)  (11 features)    (filter+classifier)
//! ```
//!
//! * [`semantic`] — the semantic analyzer: trains a word2vec model over a
//!   comment corpus, expands seed words into the positive/negative
//!   lexicon (Table I), and hosts the sentiment model.
//! * [`features`] — the feature extractor: the 11 platform-independent
//!   features of Table II, computed per item from its comments, with a
//!   parallel batch path ("implemented in a parallelized style for fast
//!   processing").
//! * [`detector`] — the two-stage detector: rule filter (sales volume and
//!   positive-evidence gates) followed by the GBT that won Table III.
//! * [`pipeline`] — end-to-end orchestration: train on a labeled corpus,
//!   detect over item streams, evaluate against ground truth (Table VI),
//!   and snapshot/restore trained pipelines.

pub mod detector;
pub mod features;
pub mod fusion;
pub mod pipeline;
pub mod report;
pub mod semantic;

pub use detector::{DetectionReport, Detector, DetectorConfig, FilterDecision};
pub use features::{
    DetectItem, FeatureReferenceSet, FeatureVector, ItemComments, FEATURE_NAMES, N_FEATURES,
};
pub use fusion::{
    fuse_scores, velocity_risk, StreamVerdict, VelocityFeatures, DEFAULT_FUSION_WEIGHT,
    N_VELOCITY_FEATURES, VELOCITY_FEATURE_NAMES,
};
pub use pipeline::{
    CatsPipeline, EvaluationSlices, PersistError, PipelineConfig, PipelineSnapshot,
    SNAPSHOT_FORMAT_VERSION,
};
pub use report::{DataHealth, DetectionSummary};
pub use semantic::{SemanticAnalyzer, SemanticConfig, WordKey};
