//! Discrete AdaBoost over depth-1 decision stumps.
//!
//! One of the Table III baselines (the paper reports it close behind
//! Xgboost at P 0.90 / R 0.90). Classical Freund–Schapire reweighting:
//! each round fits a weighted stump, computes the weighted error ε, the
//! stage weight `α = ½ ln((1−ε)/ε)`, and multiplies example weights by
//! `exp(±α)`.

use crate::classifier::Classifier;
use crate::data::Dataset;
use crate::tree::{DecisionTree, TreeConfig};

/// AdaBoost hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct AdaBoostConfig {
    /// Number of boosting rounds (stumps).
    pub n_rounds: usize,
    /// Depth of each weak learner (1 = classic stump).
    pub stump_depth: usize,
}

impl Default for AdaBoostConfig {
    fn default() -> Self {
        Self { n_rounds: 80, stump_depth: 1 }
    }
}

/// The boosted ensemble.
#[derive(Debug, Clone)]
pub struct AdaBoost {
    config: AdaBoostConfig,
    stages: Vec<(f64, DecisionTree)>,
}

impl AdaBoost {
    /// Creates an untrained ensemble.
    pub fn new(config: AdaBoostConfig) -> Self {
        assert!(config.n_rounds > 0, "n_rounds must be positive");
        Self { config, stages: Vec::new() }
    }

    /// Whether the model has been fit.
    pub fn is_fit(&self) -> bool {
        !self.stages.is_empty()
    }

    /// Number of fitted stages (may stop early on a perfect weak learner).
    pub fn n_stages(&self) -> usize {
        self.stages.len()
    }

    /// Weighted vote in `[-1, 1]`-ish space (sum of ±α, normalized by Σα).
    fn vote(&self, row: &[f64]) -> f64 {
        let mut score = 0.0;
        let mut total = 0.0;
        for (alpha, stump) in &self.stages {
            let h = if stump.predict_proba(row) >= 0.5 { 1.0 } else { -1.0 };
            score += alpha * h;
            total += alpha;
        }
        if total > 0.0 {
            score / total
        } else {
            0.0
        }
    }
}

impl Classifier for AdaBoost {
    fn fit(&mut self, data: &Dataset) {
        assert!(!data.is_empty(), "cannot fit AdaBoost on an empty dataset");
        self.stages.clear();
        let n = data.len();
        let mut weights = vec![1.0 / n as f64; n];

        for _round in 0..self.config.n_rounds {
            let mut stump = DecisionTree::new(TreeConfig {
                max_depth: self.config.stump_depth,
                min_split_weight: 0.0,
                min_gain: 1e-12,
            });
            stump.fit_weighted(data, &weights);

            // Weighted error of the stump.
            let mut eps = 0.0;
            let preds: Vec<bool> =
                (0..n).map(|i| stump.predict_proba(data.row(i)) >= 0.5).collect();
            for i in 0..n {
                if preds[i] != (data.label(i) == 1) {
                    eps += weights[i];
                }
            }
            let eps = eps.clamp(1e-12, 1.0);
            if eps >= 0.5 {
                // Weak learner no better than chance: stop boosting. Keep at
                // least one stage so the model is usable.
                if self.stages.is_empty() {
                    self.stages.push((1.0, stump));
                }
                break;
            }
            let alpha = 0.5 * ((1.0 - eps) / eps).ln();
            for i in 0..n {
                let correct = preds[i] == (data.label(i) == 1);
                weights[i] *= if correct { (-alpha).exp() } else { alpha.exp() };
            }
            let z: f64 = weights.iter().sum();
            weights.iter_mut().for_each(|w| *w /= z);
            self.stages.push((alpha, stump));
            if eps <= 1e-10 {
                break; // perfect learner; further rounds are redundant
            }
        }
    }

    fn predict_proba(&self, row: &[f64]) -> f64 {
        assert!(self.is_fit(), "predict before fit");
        // Map the normalized vote in [-1, 1] to [0, 1].
        (self.vote(row) + 1.0) / 2.0
    }

    fn name(&self) -> &'static str {
        "AdaBoost"
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
            let x = (i % 13) as f64 / 13.0;
            d.push(&[1.0 + x, x], 1);
            d.push(&[-1.0 - x, x], 0);
        }
        d
    }

    #[test]
    fn fits_separable_data() {
        let d = separable(60);
        let mut m = AdaBoost::new(AdaBoostConfig::default());
        m.fit(&d);
        let preds = predict_all(&m, &d);
        assert!(preds.iter().zip(d.labels()).all(|(p, &l)| *p == (l == 1)));
    }

    #[test]
    fn stops_early_on_perfect_stump() {
        let d = separable(60);
        let mut m = AdaBoost::new(AdaBoostConfig { n_rounds: 50, stump_depth: 1 });
        m.fit(&d);
        assert!(m.n_stages() < 50, "perfect stump should short-circuit");
    }

    #[test]
    fn boosting_beats_single_stump_on_interval_data() {
        // Positive iff x in [-1, 1]: needs two thresholds, so one stump
        // cannot represent it but boosted stumps can.
        let mut d = Dataset::new(1);
        for i in 0..200 {
            let x = -3.0 + 6.0 * (i as f64 / 199.0);
            d.push(&[x], u8::from(x.abs() <= 1.0));
        }
        let mut stump = AdaBoost::new(AdaBoostConfig { n_rounds: 1, stump_depth: 1 });
        stump.fit(&d);
        let acc_1 = predict_all(&stump, &d)
            .iter()
            .zip(d.labels())
            .filter(|(p, &l)| **p == (l == 1))
            .count() as f64
            / d.len() as f64;

        let mut boosted = AdaBoost::new(AdaBoostConfig { n_rounds: 60, stump_depth: 1 });
        boosted.fit(&d);
        let acc_many = predict_all(&boosted, &d)
            .iter()
            .zip(d.labels())
            .filter(|(p, &l)| **p == (l == 1))
            .count() as f64
            / d.len() as f64;
        assert!(acc_many > acc_1, "{acc_many} vs {acc_1}");
        assert!(acc_many > 0.9, "{acc_many}");
    }

    #[test]
    fn proba_in_unit_interval() {
        let d = separable(40);
        let mut m = AdaBoost::new(AdaBoostConfig::default());
        m.fit(&d);
        for i in 0..d.len() {
            let p = m.predict_proba(d.row(i));
            assert!((0.0..=1.0).contains(&p) && p.is_finite());
        }
    }

    #[test]
    fn deterministic() {
        let d = separable(40);
        let mut a = AdaBoost::new(AdaBoostConfig::default());
        let mut b = AdaBoost::new(AdaBoostConfig::default());
        a.fit(&d);
        b.fit(&d);
        for i in 0..d.len() {
            assert_eq!(a.predict_proba(d.row(i)), b.predict_proba(d.row(i)));
        }
    }

    #[test]
    fn single_class_data_is_handled() {
        let mut d = Dataset::new(1);
        for i in 0..10 {
            d.push(&[i as f64], 1);
        }
        let mut m = AdaBoost::new(AdaBoostConfig::default());
        m.fit(&d);
        assert!(m.is_fit());
        assert!(m.predict(&[5.0]));
    }

    #[test]
    #[should_panic(expected = "predict before fit")]
    fn predict_before_fit_panics() {
        AdaBoost::new(AdaBoostConfig::default()).predict_proba(&[1.0, 2.0]);
    }
}
