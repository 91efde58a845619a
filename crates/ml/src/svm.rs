//! Linear SVM trained with the Pegasos primal subgradient method.
//!
//! One of the Table III baselines. In the paper SVM shows a distinctive
//! operating point — very high precision (0.99) at low recall (0.62) — the
//! signature of a conservative maximum-margin separator on features whose
//! fraud class has a long tail the margin refuses to cover.
//!
//! Inputs are standardized internally (the scaler is fit during
//! [`Classifier::fit`]), since hinge-loss SGD assumes comparable feature
//! scales. The probability output maps the signed margin through a
//! logistic link.

use crate::classifier::Classifier;
use crate::data::{Dataset, StandardScaler};
use rand::{rngs::StdRng, RngExt, SeedableRng};

/// SVM hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct SvmConfig {
    /// Regularization strength λ of the Pegasos objective; larger values
    /// shrink the weight vector harder and make the margin more
    /// conservative.
    pub lambda: f64,
    /// Number of SGD epochs over the data.
    pub epochs: usize,
    /// RNG seed for example ordering.
    pub seed: u64,
}

impl Default for SvmConfig {
    fn default() -> Self {
        Self { lambda: 1e-2, epochs: 40, seed: 13 }
    }
}

/// Linear SVM with internal standardization.
#[derive(Debug, Clone)]
pub struct LinearSvm {
    config: SvmConfig,
    weights: Vec<f64>,
    bias: f64,
    scaler: Option<StandardScaler>,
}

impl LinearSvm {
    /// Creates an untrained SVM.
    pub fn new(config: SvmConfig) -> Self {
        assert!(config.lambda > 0.0, "lambda must be positive");
        assert!(config.epochs > 0, "epochs must be positive");
        Self { config, weights: Vec::new(), bias: 0.0, scaler: None }
    }

    /// Whether the model has been fit.
    pub fn is_fit(&self) -> bool {
        self.scaler.is_some()
    }

    /// Signed margin `w·x + b` of an (unstandardized) row.
    pub fn margin(&self, row: &[f64]) -> f64 {
        let scaler = self.scaler.as_ref().expect("predict before fit");
        let mut x = row.to_vec();
        scaler.transform_row(&mut x);
        self.weights.iter().zip(&x).map(|(w, v)| w * v).sum::<f64>() + self.bias
    }
}

impl Classifier for LinearSvm {
    fn fit(&mut self, data: &Dataset) {
        assert!(!data.is_empty(), "cannot fit SVM on an empty dataset");
        let cfg = self.config;
        let scaler = StandardScaler::fit(data);
        let scaled = scaler.transform(data);
        let n = scaled.len();
        let nf = scaled.n_features();
        let mut w = vec![0.0f64; nf];
        let mut b = 0.0f64;
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        let mut t: u64 = 0;
        for _epoch in 0..cfg.epochs {
            for _ in 0..n {
                t += 1;
                let i = rng.random_range(0..n);
                let x = scaled.row(i);
                let y = if scaled.label(i) == 1 { 1.0 } else { -1.0 };
                let eta = 1.0 / (cfg.lambda * t as f64);
                let margin = w.iter().zip(x).map(|(wi, xi)| wi * xi).sum::<f64>() + b;
                // Regularization shrink (bias is unregularized).
                let shrink = 1.0 - eta * cfg.lambda;
                w.iter_mut().for_each(|wi| *wi *= shrink);
                if y * margin < 1.0 {
                    for (wi, xi) in w.iter_mut().zip(x) {
                        *wi += eta * y * xi;
                    }
                    b += eta * y;
                }
            }
        }
        self.weights = w;
        self.bias = b;
        self.scaler = Some(scaler);
    }

    fn predict_proba(&self, row: &[f64]) -> f64 {
        1.0 / (1.0 + (-self.margin(row)).exp())
    }

    fn name(&self) -> &'static str {
        "SVM"
    }

    fn clone_box(&self) -> Box<dyn Classifier> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::predict_all;

    fn separable(n: usize) -> Dataset {
        let mut d = Dataset::new(2);
        for i in 0..n {
            let jitter = (i % 10) as f64 / 10.0;
            d.push(&[2.0 + jitter, 100.0 * (1.0 + jitter)], 1);
            d.push(&[-2.0 - jitter, -100.0 * (1.0 + jitter)], 0);
        }
        d
    }

    #[test]
    fn separates_linear_data() {
        let d = separable(100);
        let mut m = LinearSvm::new(SvmConfig::default());
        m.fit(&d);
        let preds = predict_all(&m, &d);
        let acc = preds.iter().zip(d.labels()).filter(|(p, &l)| **p == (l == 1)).count() as f64
            / d.len() as f64;
        assert!(acc > 0.98, "accuracy {acc}");
    }

    #[test]
    fn margin_sign_matches_prediction() {
        let d = separable(50);
        let mut m = LinearSvm::new(SvmConfig::default());
        m.fit(&d);
        for i in 0..d.len() {
            let row = d.row(i);
            assert_eq!(m.margin(row) >= 0.0, m.predict(row));
        }
    }

    #[test]
    fn handles_unscaled_features() {
        // feature 1 is 100x the scale of feature 0; internal scaler must cope
        let d = separable(80);
        let mut m = LinearSvm::new(SvmConfig::default());
        m.fit(&d);
        assert!(m.predict(&[3.0, 250.0]));
        assert!(!m.predict(&[-3.0, -250.0]));
    }

    #[test]
    fn proba_in_unit_interval() {
        let d = separable(30);
        let mut m = LinearSvm::new(SvmConfig::default());
        m.fit(&d);
        for i in 0..d.len() {
            let p = m.predict_proba(d.row(i));
            assert!((0.0..=1.0).contains(&p) && p.is_finite());
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let d = separable(40);
        let mut a = LinearSvm::new(SvmConfig::default());
        let mut b = LinearSvm::new(SvmConfig::default());
        a.fit(&d);
        b.fit(&d);
        assert_eq!(a.margin(d.row(0)), b.margin(d.row(0)));
    }

    #[test]
    fn heavy_regularization_shrinks_weights() {
        let d = separable(40);
        let mut loose = LinearSvm::new(SvmConfig { lambda: 1e-3, ..SvmConfig::default() });
        let mut tight = LinearSvm::new(SvmConfig { lambda: 10.0, ..SvmConfig::default() });
        loose.fit(&d);
        tight.fit(&d);
        let norm = |m: &LinearSvm| m.weights.iter().map(|w| w * w).sum::<f64>().sqrt();
        assert!(norm(&tight) < norm(&loose));
    }

    #[test]
    #[should_panic(expected = "predict before fit")]
    fn predict_before_fit_panics() {
        LinearSvm::new(SvmConfig::default()).predict_proba(&[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "lambda must be positive")]
    fn invalid_lambda_rejected() {
        LinearSvm::new(SvmConfig { lambda: 0.0, ..SvmConfig::default() });
    }
}
