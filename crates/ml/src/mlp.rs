//! One-hidden-layer neural network with SGD.
//!
//! The "Neural Network" baseline of Table III (the paper's weakest
//! candidate at P 0.83 / R 0.65 — small tabular data with 11 features does
//! not favour an MLP). tanh hidden units, a sigmoid output, cross-entropy
//! loss, mini-batchless SGD with momentum, internal standardization.

use crate::classifier::Classifier;
use crate::data::{Dataset, StandardScaler};
use rand::{rngs::StdRng, RngExt, SeedableRng};

/// MLP hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct MlpConfig {
    /// Hidden-layer width.
    pub hidden: usize,
    /// Learning rate.
    pub lr: f64,
    /// Momentum coefficient.
    pub momentum: f64,
    /// Epochs of SGD.
    pub epochs: usize,
    /// L2 weight decay.
    pub weight_decay: f64,
    /// RNG seed for init and example order.
    pub seed: u64,
}

impl Default for MlpConfig {
    fn default() -> Self {
        Self { hidden: 16, lr: 0.05, momentum: 0.9, epochs: 60, weight_decay: 1e-4, seed: 21 }
    }
}

/// The network: `w1 [hidden × in]`, `b1 [hidden]`, `w2 [hidden]`, `b2`.
#[derive(Debug, Clone)]
pub struct Mlp {
    config: MlpConfig,
    w1: Vec<f64>,
    b1: Vec<f64>,
    w2: Vec<f64>,
    b2: f64,
    n_in: usize,
    scaler: Option<StandardScaler>,
}

impl Mlp {
    /// Creates an untrained network.
    pub fn new(config: MlpConfig) -> Self {
        assert!(config.hidden > 0, "hidden width must be positive");
        Self {
            config,
            w1: Vec::new(),
            b1: Vec::new(),
            w2: Vec::new(),
            b2: 0.0,
            n_in: 0,
            scaler: None,
        }
    }

    /// Whether the network has been fit.
    pub fn is_fit(&self) -> bool {
        self.scaler.is_some()
    }

    /// Forward pass on a standardized row; returns (hidden activations,
    /// output probability).
    fn forward(&self, x: &[f64], hidden_buf: &mut Vec<f64>) -> f64 {
        let h = self.config.hidden;
        hidden_buf.clear();
        hidden_buf.reserve(h);
        for j in 0..h {
            let mut z = self.b1[j];
            let row = &self.w1[j * self.n_in..(j + 1) * self.n_in];
            for (w, xi) in row.iter().zip(x) {
                z += w * xi;
            }
            hidden_buf.push(z.tanh());
        }
        let mut z = self.b2;
        for (w, a) in self.w2.iter().zip(hidden_buf.iter()) {
            z += w * a;
        }
        1.0 / (1.0 + (-z).exp())
    }
}

impl Classifier for Mlp {
    fn fit(&mut self, data: &Dataset) {
        assert!(!data.is_empty(), "cannot fit MLP on an empty dataset");
        let cfg = self.config;
        let scaler = StandardScaler::fit(data);
        let scaled = scaler.transform(data);
        let n = scaled.len();
        self.n_in = scaled.n_features();
        let h = cfg.hidden;
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        // Xavier-ish init.
        let scale1 = (2.0 / (self.n_in + h) as f64).sqrt();
        self.w1 = (0..h * self.n_in).map(|_| (rng.random::<f64>() * 2.0 - 1.0) * scale1).collect();
        self.b1 = vec![0.0; h];
        let scale2 = (2.0 / (h + 1) as f64).sqrt();
        self.w2 = (0..h).map(|_| (rng.random::<f64>() * 2.0 - 1.0) * scale2).collect();
        self.b2 = 0.0;

        let mut vw1 = vec![0.0; h * self.n_in];
        let mut vb1 = vec![0.0; h];
        let mut vw2 = vec![0.0; h];
        let mut vb2 = 0.0;
        let mut hidden = Vec::with_capacity(h);

        for _epoch in 0..cfg.epochs {
            for _step in 0..n {
                let i = rng.random_range(0..n);
                let x = scaled.row(i);
                let y = f64::from(scaled.label(i));
                let p = self.forward(x, &mut hidden);
                let dz2 = p - y; // dL/dz_out for cross-entropy + sigmoid

                // Output layer.
                for j in 0..h {
                    let g = dz2 * hidden[j] + cfg.weight_decay * self.w2[j];
                    vw2[j] = cfg.momentum * vw2[j] - cfg.lr * g;
                    self.w2[j] += vw2[j];
                }
                vb2 = cfg.momentum * vb2 - cfg.lr * dz2;
                self.b2 += vb2;

                // Hidden layer.
                for j in 0..h {
                    let da = dz2 * self.w2[j];
                    let dz1 = da * (1.0 - hidden[j] * hidden[j]);
                    let row = j * self.n_in;
                    for k in 0..self.n_in {
                        let g = dz1 * x[k] + cfg.weight_decay * self.w1[row + k];
                        vw1[row + k] = cfg.momentum * vw1[row + k] - cfg.lr * g;
                        self.w1[row + k] += vw1[row + k];
                    }
                    vb1[j] = cfg.momentum * vb1[j] - cfg.lr * dz1;
                    self.b1[j] += vb1[j];
                }
            }
        }
        self.scaler = Some(scaler);
    }

    fn predict_proba(&self, row: &[f64]) -> f64 {
        let scaler = self.scaler.as_ref().expect("predict before fit");
        let mut x = row.to_vec();
        scaler.transform_row(&mut x);
        let mut hidden = Vec::with_capacity(self.config.hidden);
        self.forward(&x, &mut hidden)
    }

    fn name(&self) -> &'static str {
        "Neural Network"
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
            let x = (i % 17) as f64 / 17.0;
            d.push(&[1.0 + x, 10.0 * x], 1);
            d.push(&[-1.0 - x, -10.0 * x], 0);
        }
        d
    }

    #[test]
    fn fits_separable_data() {
        let d = separable(80);
        let mut m = Mlp::new(MlpConfig::default());
        m.fit(&d);
        let acc =
            predict_all(&m, &d).iter().zip(d.labels()).filter(|(p, &l)| **p == (l == 1)).count()
                as f64
                / d.len() as f64;
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn solves_xor() {
        let mut d = Dataset::new(2);
        for _ in 0..40 {
            d.push(&[0.0, 0.0], 0);
            d.push(&[0.0, 1.0], 1);
            d.push(&[1.0, 0.0], 1);
            d.push(&[1.0, 1.0], 0);
        }
        let mut m = Mlp::new(MlpConfig { epochs: 200, hidden: 8, ..MlpConfig::default() });
        m.fit(&d);
        assert!(!m.predict(&[0.0, 0.0]));
        assert!(m.predict(&[0.0, 1.0]));
        assert!(m.predict(&[1.0, 0.0]));
        assert!(!m.predict(&[1.0, 1.0]));
    }

    #[test]
    fn proba_in_unit_interval() {
        let d = separable(30);
        let mut m = Mlp::new(MlpConfig::default());
        m.fit(&d);
        for i in 0..d.len() {
            let p = m.predict_proba(d.row(i));
            assert!((0.0..=1.0).contains(&p) && p.is_finite());
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let d = separable(30);
        let mut a = Mlp::new(MlpConfig::default());
        let mut b = Mlp::new(MlpConfig::default());
        a.fit(&d);
        b.fit(&d);
        assert_eq!(a.predict_proba(d.row(3)), b.predict_proba(d.row(3)));
    }

    #[test]
    #[should_panic(expected = "predict before fit")]
    fn predict_before_fit_panics() {
        Mlp::new(MlpConfig::default()).predict_proba(&[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "hidden width must be positive")]
    fn zero_hidden_rejected() {
        Mlp::new(MlpConfig { hidden: 0, ..MlpConfig::default() });
    }
}
