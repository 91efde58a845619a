//! Cross-validation and the Table III comparison harness.
//!
//! The paper selects its classifier by "the standard five-cross
//! validation" on a 5,000 + 5,000 ground-truth set: 4/5 trains, 1/5
//! tests, averaged over folds. [`cross_validate`] runs that protocol for
//! one model; [`compare_models`] runs it for a panel and returns rows
//! shaped like Table III.

use crate::classifier::{fit_evaluate, Classifier};
use crate::data::Dataset;
use crate::metrics::BinaryMetrics;
use cats_par::Parallelism;

/// Averaged cross-validation result for one model.
#[derive(Debug, Clone)]
pub struct CvResult {
    /// Model display name.
    pub name: String,
    /// Mean precision over folds.
    pub precision: f64,
    /// Mean recall over folds.
    pub recall: f64,
    /// Mean F1 over folds.
    pub f1: f64,
    /// Mean accuracy over folds.
    pub accuracy: f64,
    /// Per-fold metrics.
    pub folds: Vec<BinaryMetrics>,
}

/// Runs stratified k-fold cross-validation of `model` on `data` with
/// default (auto) parallelism. See [`cross_validate_with`].
pub fn cross_validate(model: &mut dyn Classifier, data: &Dataset, k: usize, seed: u64) -> CvResult {
    cross_validate_with(model, data, k, seed, Parallelism::default())
}

/// Runs stratified k-fold cross-validation of `model` on `data`, refitting
/// the folds in parallel.
///
/// Each fold refits a [`Classifier::clone_box`] copy of `model` from
/// scratch on its training split, so fold results — and their average —
/// are identical to the serial protocol at any thread count.
pub fn cross_validate_with(
    model: &mut dyn Classifier,
    data: &Dataset,
    k: usize,
    seed: u64,
    par: Parallelism,
) -> CvResult {
    let folds = data.stratified_kfold(k, seed);
    let model_ref: &dyn Classifier = model;
    let per_fold: Vec<BinaryMetrics> = cats_par::map_chunked(par, &folds, |(train, test)| {
        let mut fold_model = model_ref.clone_box();
        fit_evaluate(fold_model.as_mut(), train, test)
    });
    let n = per_fold.len() as f64;
    CvResult {
        name: model.name().to_string(),
        precision: per_fold.iter().map(|m| m.precision).sum::<f64>() / n,
        recall: per_fold.iter().map(|m| m.recall).sum::<f64>() / n,
        f1: per_fold.iter().map(|m| m.f1).sum::<f64>() / n,
        accuracy: per_fold.iter().map(|m| m.accuracy).sum::<f64>() / n,
        folds: per_fold,
    }
}

/// Cross-validates every model in `models` on the same folds and returns
/// one row per model, in input order (Table III).
pub fn compare_models(
    models: &mut [Box<dyn Classifier>],
    data: &Dataset,
    k: usize,
    seed: u64,
) -> Vec<CvResult> {
    models.iter_mut().map(|m| cross_validate(m.as_mut(), data, k, seed)).collect()
}

/// The paper's candidate panel with CATS' default hyperparameters, in
/// Table III row order.
pub fn paper_panel() -> Vec<Box<dyn Classifier>> {
    use crate::adaboost::{AdaBoost, AdaBoostConfig};
    use crate::gbt::{GbtConfig, GradientBoostedTrees};
    use crate::mlp::{Mlp, MlpConfig};
    use crate::naive_bayes::GaussianNaiveBayes;
    use crate::svm::{LinearSvm, SvmConfig};
    use crate::tree::{DecisionTree, TreeConfig};

    vec![
        Box::new(GradientBoostedTrees::new(GbtConfig::default())),
        Box::new(LinearSvm::new(SvmConfig::default())),
        Box::new(AdaBoost::new(AdaBoostConfig::default())),
        Box::new(Mlp::new(MlpConfig::default())),
        Box::new(DecisionTree::new(TreeConfig::default())),
        Box::new(GaussianNaiveBayes::new()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive_bayes::GaussianNaiveBayes;
    use crate::tree::{DecisionTree, TreeConfig};

    fn blobs(n: usize) -> Dataset {
        let mut d = Dataset::new(2);
        for i in 0..n {
            let j = ((i * 31) % 100) as f64 / 100.0;
            d.push(&[2.0 + j, j], 1);
            d.push(&[-2.0 - j, -j], 0);
        }
        d
    }

    #[test]
    fn cross_validate_averages_folds() {
        let d = blobs(100);
        let mut m = GaussianNaiveBayes::new();
        let r = cross_validate(&mut m, &d, 5, 3);
        assert_eq!(r.folds.len(), 5);
        assert_eq!(r.name, "Naive Bayes");
        let manual: f64 = r.folds.iter().map(|f| f.precision).sum::<f64>() / 5.0;
        assert!((r.precision - manual).abs() < 1e-12);
        assert!(r.accuracy > 0.95, "easy data should score high: {}", r.accuracy);
    }

    #[test]
    fn compare_models_preserves_order_and_names() {
        let d = blobs(60);
        let mut panel: Vec<Box<dyn Classifier>> = vec![
            Box::new(GaussianNaiveBayes::new()),
            Box::new(DecisionTree::new(TreeConfig::default())),
        ];
        let rows = compare_models(&mut panel, &d, 3, 1);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "Naive Bayes");
        assert_eq!(rows[1].name, "Decision Tree");
    }

    #[test]
    fn paper_panel_has_six_models_in_table3_order() {
        let p = paper_panel();
        let names: Vec<&str> = p.iter().map(|m| m.name()).collect();
        assert_eq!(
            names,
            vec!["Xgboost", "SVM", "AdaBoost", "Neural Network", "Decision Tree", "Naive Bayes"]
        );
    }

    #[test]
    fn same_seed_same_folds() {
        let d = blobs(50);
        let mut m1 = GaussianNaiveBayes::new();
        let mut m2 = GaussianNaiveBayes::new();
        let a = cross_validate(&mut m1, &d, 4, 7);
        let b = cross_validate(&mut m2, &d, 4, 7);
        assert_eq!(a.precision, b.precision);
        assert_eq!(a.recall, b.recall);
    }
}
