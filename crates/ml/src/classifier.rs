//! The classifier interface.
//!
//! The paper notes that "any classifier that shows satisfactory
//! performance can be employed" in the detector. All six Table III models
//! implement this object-safe trait, so the model-selection harness can
//! compare them on the same feature datasets; the detector then uses the
//! winner, the GBT, directly.

use crate::data::Dataset;
use crate::metrics::BinaryMetrics;

/// An object-safe binary classifier.
///
/// `Send + Sync` so a shared reference can cross worker threads during
/// fold-parallel cross-validation; every model here is plain data.
pub trait Classifier: Send + Sync {
    /// Fits the model to `data`, replacing any previous fit.
    fn fit(&mut self, data: &Dataset);

    /// Probability-like fraud score for a feature row, in `[0, 1]`.
    fn predict_proba(&self, row: &[f64]) -> f64;

    /// Hard decision at the 0.5 operating point.
    fn predict(&self, row: &[f64]) -> bool {
        self.predict_proba(row) >= 0.5
    }

    /// Human-readable model name (used in Table III output).
    fn name(&self) -> &'static str;

    /// Boxed deep copy, so parallel cross-validation can refit one clone
    /// per fold.
    fn clone_box(&self) -> Box<dyn Classifier>;
}

/// Scores every row of `data` with `model`.
pub fn predict_all(model: &dyn Classifier, data: &Dataset) -> Vec<bool> {
    (0..data.len()).map(|i| model.predict(data.row(i))).collect()
}

/// Fits on `train`, evaluates on `test`.
pub fn fit_evaluate(model: &mut dyn Classifier, train: &Dataset, test: &Dataset) -> BinaryMetrics {
    model.fit(train);
    let preds = predict_all(model, test);
    BinaryMetrics::compute(test.labels(), &preds)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fixed-threshold toy model: positive iff feature 0 is positive.
    struct Stub;
    impl Classifier for Stub {
        fn fit(&mut self, _: &Dataset) {}
        fn predict_proba(&self, row: &[f64]) -> f64 {
            if row[0] > 0.0 {
                1.0
            } else {
                0.0
            }
        }
        fn name(&self) -> &'static str {
            "stub"
        }
        fn clone_box(&self) -> Box<dyn Classifier> {
            Box::new(Stub)
        }
    }

    fn toy() -> Dataset {
        Dataset::from_rows(&[vec![1.0], vec![2.0], vec![-1.0], vec![-2.0]], &[1, 1, 0, 0])
    }

    #[test]
    fn default_predict_uses_half_threshold() {
        let s = Stub;
        assert!(s.predict(&[1.0]));
        assert!(!s.predict(&[-1.0]));
    }

    #[test]
    fn predict_all_covers_every_row() {
        let preds = predict_all(&Stub, &toy());
        assert_eq!(preds, vec![true, true, false, false]);
    }

    #[test]
    fn fit_evaluate_end_to_end() {
        let d = toy();
        let m = fit_evaluate(&mut Stub, &d, &d);
        assert_eq!(m.accuracy, 1.0);
    }

    #[test]
    fn trait_is_object_safe() {
        let boxed: Box<dyn Classifier> = Box::new(Stub);
        assert_eq!(boxed.name(), "stub");
    }
}
