//! Gaussian Naive Bayes over the 11 dense features.
//!
//! One of the Table III baselines (paper: P 0.91 / R 0.65). Per class and
//! per feature, fits a univariate Gaussian; prediction multiplies the
//! class prior by the product of feature likelihoods (in log space).

use crate::classifier::Classifier;
use crate::data::Dataset;

/// Variance floor: features with (near-)zero within-class variance would
/// otherwise produce infinite likelihood ratios.
const VAR_FLOOR: f64 = 1e-9;

/// Per-class Gaussian parameters.
#[derive(Debug, Clone, Default)]
struct ClassStats {
    log_prior: f64,
    means: Vec<f64>,
    vars: Vec<f64>,
}

/// The fitted model.
#[derive(Debug, Clone, Default)]
pub struct GaussianNaiveBayes {
    pos: ClassStats,
    neg: ClassStats,
    fit_done: bool,
}

impl GaussianNaiveBayes {
    /// Creates an untrained model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the model has been fit.
    pub fn is_fit(&self) -> bool {
        self.fit_done
    }

    fn class_stats(data: &Dataset, class: u8, n_total: usize) -> ClassStats {
        let nf = data.n_features();
        let idx: Vec<usize> = (0..data.len()).filter(|&i| data.label(i) == class).collect();
        let n = idx.len();
        // An absent class gets a vanishing prior and uninformative
        // likelihoods; predictions then collapse to the other class.
        if n == 0 {
            return ClassStats {
                log_prior: f64::NEG_INFINITY,
                means: vec![0.0; nf],
                vars: vec![1.0; nf],
            };
        }
        let mut means = vec![0.0; nf];
        for &i in &idx {
            for (m, &v) in means.iter_mut().zip(data.row(i)) {
                *m += v;
            }
        }
        means.iter_mut().for_each(|m| *m /= n as f64);
        let mut vars = vec![0.0; nf];
        for &i in &idx {
            for ((s, &v), &m) in vars.iter_mut().zip(data.row(i)).zip(&means) {
                *s += (v - m) * (v - m);
            }
        }
        vars.iter_mut().for_each(|v| *v = (*v / n as f64).max(VAR_FLOOR));
        ClassStats { log_prior: (n as f64 / n_total as f64).ln(), means, vars }
    }

    fn log_likelihood(stats: &ClassStats, row: &[f64]) -> f64 {
        let mut ll = stats.log_prior;
        if ll == f64::NEG_INFINITY {
            return ll;
        }
        for ((&x, &m), &v) in row.iter().zip(&stats.means).zip(&stats.vars) {
            ll += -0.5 * ((x - m) * (x - m) / v + v.ln() + (2.0 * std::f64::consts::PI).ln());
        }
        ll
    }
}

impl Classifier for GaussianNaiveBayes {
    fn fit(&mut self, data: &Dataset) {
        assert!(!data.is_empty(), "cannot fit NB on an empty dataset");
        self.pos = Self::class_stats(data, 1, data.len());
        self.neg = Self::class_stats(data, 0, data.len());
        self.fit_done = true;
    }

    fn predict_proba(&self, row: &[f64]) -> f64 {
        assert!(self.is_fit(), "predict before fit");
        let lp = Self::log_likelihood(&self.pos, row);
        let ln = Self::log_likelihood(&self.neg, row);
        if lp == f64::NEG_INFINITY {
            return 0.0;
        }
        if ln == f64::NEG_INFINITY {
            return 1.0;
        }
        1.0 / (1.0 + (ln - lp).exp())
    }

    fn name(&self) -> &'static str {
        "Naive Bayes"
    }

    fn clone_box(&self) -> Box<dyn Classifier> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::predict_all;

    fn gaussian_blobs(n: usize) -> Dataset {
        // Two well-separated blobs along feature 0 with deterministic
        // low-discrepancy jitter.
        let mut d = Dataset::new(2);
        for i in 0..n {
            let j = ((i * 37) % 100) as f64 / 100.0 - 0.5;
            d.push(&[3.0 + j, j], 1);
            d.push(&[-3.0 + j, -j], 0);
        }
        d
    }

    #[test]
    fn separates_gaussian_blobs() {
        let d = gaussian_blobs(100);
        let mut m = GaussianNaiveBayes::new();
        m.fit(&d);
        let preds = predict_all(&m, &d);
        assert!(preds.iter().zip(d.labels()).all(|(p, &l)| *p == (l == 1)));
    }

    #[test]
    fn probabilities_reflect_distance_to_means() {
        let d = gaussian_blobs(100);
        let mut m = GaussianNaiveBayes::new();
        m.fit(&d);
        let near_pos = m.predict_proba(&[3.0, 0.0]);
        let mid = m.predict_proba(&[0.0, 0.0]);
        let near_neg = m.predict_proba(&[-3.0, 0.0]);
        assert!(near_pos > 0.95);
        assert!(near_neg < 0.05);
        assert!((0.05..0.95).contains(&mid), "{mid}");
    }

    #[test]
    fn constant_feature_does_not_explode() {
        let mut d = Dataset::new(2);
        for i in 0..20 {
            d.push(&[1.0, i as f64], u8::from(i >= 10));
        }
        let mut m = GaussianNaiveBayes::new();
        m.fit(&d);
        let p = m.predict_proba(&[1.0, 15.0]);
        assert!(p.is_finite());
        assert!(p > 0.5);
    }

    #[test]
    fn single_class_training() {
        let mut d = Dataset::new(1);
        for i in 0..10 {
            d.push(&[i as f64], 1);
        }
        let mut m = GaussianNaiveBayes::new();
        m.fit(&d);
        assert_eq!(m.predict_proba(&[4.0]), 1.0);
    }

    #[test]
    fn prior_shifts_decision() {
        // Same likelihoods, imbalanced priors: ambiguous point goes to the
        // majority class.
        let mut d = Dataset::new(1);
        for i in 0..90 {
            d.push(&[(i % 10) as f64 - 5.0], 0);
        }
        for i in 0..10 {
            d.push(&[(i % 10) as f64 - 5.0], 1);
        }
        let mut m = GaussianNaiveBayes::new();
        m.fit(&d);
        assert!(m.predict_proba(&[0.0]) < 0.5);
    }

    #[test]
    fn proba_in_unit_interval() {
        let d = gaussian_blobs(50);
        let mut m = GaussianNaiveBayes::new();
        m.fit(&d);
        for x in [-10.0, -1.0, 0.0, 1.0, 10.0] {
            let p = m.predict_proba(&[x, x]);
            assert!((0.0..=1.0).contains(&p) && p.is_finite());
        }
    }

    #[test]
    #[should_panic(expected = "predict before fit")]
    fn predict_before_fit_panics() {
        GaussianNaiveBayes::new().predict_proba(&[0.0]);
    }
}
