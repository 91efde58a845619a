//! Second-order gradient boosted trees — the XGBoost algorithm, from
//! scratch.
//!
//! CATS' detector ships with this model (the paper's Table III winner).
//! Implements the core of Chen & Guestrin's system (the paper's reference 12):
//!
//! * logistic loss with per-example gradient `g = p − y` and hessian
//!   `h = p(1 − p)`;
//! * regression trees grown by exact greedy search maximizing the
//!   structure gain `½[G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)] − γ`;
//! * leaf weights `−G/(H+λ)`, scaled by the shrinkage `η`;
//! * optional per-tree example subsampling;
//! * feature importance as **split counts** — the metric Fig 7 plots
//!   ("the times this feature is split during the construction process").

use crate::classifier::Classifier;
use crate::data::Dataset;
use crate::flat::{ColMatrix, FlatForest};
use cats_par::Parallelism;
use rand::{rngs::StdRng, RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Split-finding strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SplitMode {
    /// Exact greedy: every boundary between distinct sorted feature
    /// values is a candidate (the reference's "exact greedy algorithm").
    Exact,
    /// Histogram/approximate: candidates are the boundaries of `bins`
    /// global quantile buckets per feature (the reference's approximate
    /// algorithm with a global proposal) — O(bins) instead of O(n)
    /// candidate evaluations per node and feature.
    Histogram {
        /// Number of quantile buckets per feature.
        bins: usize,
    },
}

/// GBT hyperparameters. A model's IO2 encoding does not store them
/// (see [`GradientBoostedTrees::from_io2_bytes`]).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct GbtConfig {
    /// Number of boosting rounds (trees).
    pub n_trees: usize,
    /// Maximum depth per tree.
    pub max_depth: usize,
    /// Shrinkage (learning rate) η.
    pub eta: f64,
    /// L2 regularization λ on leaf weights.
    pub lambda: f64,
    /// Minimum gain γ to keep a split.
    pub gamma: f64,
    /// Minimum hessian sum per child (≈ min child weight).
    pub min_child_weight: f64,
    /// Per-tree row subsample fraction in `(0, 1]`.
    pub subsample: f64,
    /// RNG seed for subsampling.
    pub seed: u64,
    /// Split-finding strategy.
    pub split_mode: SplitMode,
    /// Per-tree feature subsample fraction in `(0, 1]` (colsample_bytree).
    pub colsample: f64,
    /// Parallelism for split scans and per-round recomputation. Results
    /// are bit-identical at every thread count (parallelism is only over
    /// features and rows whose accumulation order is self-contained).
    /// A runtime knob: the serde form skips it.
    #[serde(skip)]
    pub parallelism: Parallelism,
}

impl Default for GbtConfig {
    fn default() -> Self {
        Self {
            n_trees: 120,
            max_depth: 4,
            eta: 0.15,
            lambda: 1.0,
            gamma: 0.0,
            min_child_weight: 1.0,
            subsample: 0.9,
            seed: 7,
            split_mode: SplitMode::Exact,
            colsample: 1.0,
            parallelism: Parallelism::default(),
        }
    }
}

/// Rows below which per-round gradient/margin recomputation stays serial.
const PAR_MIN_ROWS: usize = 2048;
/// Node size below which split scans stay serial (a per-feature scan over
/// few members no longer amortizes the thread hand-off).
const PAR_MIN_SPLIT_MEMBERS: usize = 1024;

/// `par` when the work is `large`, else strictly serial — a size gate so
/// tiny work items never pay scheduling overhead.
fn par_if(par: Parallelism, large: bool) -> Parallelism {
    if large {
        par
    } else {
        Parallelism::serial()
    }
}

/// A node of one tree as [`TreeBuilder`] grows it: a depth-first arena
/// that [`push_tree`] lays out breadth-first into the forest's pool.
#[derive(Debug, Clone)]
enum Node {
    Leaf { weight: f64 },
    Split { feature: usize, threshold: f64, left: usize, right: usize },
}

/// The boosted model.
#[derive(Debug, Clone)]
pub struct GradientBoostedTrees {
    config: GbtConfig,
    base_score: f64,
    /// Split counts per feature (Fig 7's importance metric).
    split_counts: Vec<u64>,
    /// Total structure gain accumulated per feature (the "gain"
    /// importance variant).
    gain_sums: Vec<f64>,
    /// The ensemble as one contiguous struct-of-arrays node pool
    /// (DESIGN.md §12). Fit appends each tree as soon as it is built, so
    /// fit-time margins, early stopping, checkpoints, scoring and the
    /// IO2 encoding all read this one forest.
    flat: FlatForest,
}

/// Appends one builder tree to the pool, breadth-first with sibling
/// pairs adjacent. Deterministic: the same trees always produce the same
/// pool (and therefore the same [`FlatForest::to_bytes`] bytes).
fn push_tree(flat: &mut FlatForest, nodes: &[Node]) {
    let root = flat.push_root();
    let mut queue = VecDeque::from([(0usize, root)]);
    while let Some((src, dst)) = queue.pop_front() {
        match &nodes[src] {
            Node::Leaf { weight } => flat.set_leaf(dst, *weight),
            Node::Split { feature, threshold, left, right } => {
                let l = flat.alloc_children();
                flat.set_split(dst, *feature as u32, *threshold, l);
                queue.push_back((*left, l));
                queue.push_back((*right, l + 1));
            }
        }
    }
}

impl GradientBoostedTrees {
    /// Creates an untrained model.
    pub fn new(config: GbtConfig) -> Self {
        assert!(config.n_trees > 0, "n_trees must be positive");
        assert!((0.0..=1.0).contains(&config.subsample) && config.subsample > 0.0);
        assert!(
            (0.0..=1.0).contains(&config.colsample) && config.colsample > 0.0,
            "colsample in (0, 1]"
        );
        Self {
            config,
            base_score: 0.0,
            split_counts: Vec::new(),
            gain_sums: Vec::new(),
            flat: FlatForest::new(),
        }
    }

    /// Whether the model has been fit.
    pub fn is_fit(&self) -> bool {
        self.flat.n_trees() > 0
    }

    /// Sets the thread count of later fits (results are bit-identical at
    /// every count).
    pub fn set_parallelism(&mut self, parallelism: Parallelism) {
        self.config.parallelism = parallelism;
    }

    /// Number of trees in the fitted ensemble.
    pub fn n_trees(&self) -> usize {
        self.flat.n_trees()
    }

    /// Split-count feature importance (length = `n_features` of the
    /// training data). This is the "weight" importance Fig 7 plots.
    pub fn feature_importance(&self) -> &[u64] {
        &self.split_counts
    }

    /// Gain feature importance: total structure-gain contributed by each
    /// feature's splits. More faithful to predictive value than split
    /// counts when features have very different split granularities.
    pub fn feature_gain(&self) -> &[f64] {
        &self.gain_sums
    }

    /// Raw margin (log-odds) for a row: the base score plus every tree's
    /// output, descending the branch-lite flat pool.
    pub fn predict_margin(&self, row: &[f64]) -> f64 {
        self.flat.margin(self.base_score, row)
    }

    /// Binary (`CATS-IO2` section payload) encoding of what prediction
    /// and the importances read: the base score (`f64`), the split counts
    /// (`u64` array) and gain sums (`f64` array), then the forest as flat
    /// little-endian arrays. Deterministic — the same model always
    /// yields the same bytes.
    pub fn to_io2_bytes(&self) -> Vec<u8> {
        let mut e = cats_io::io2::Enc::new();
        e.f64(self.base_score)
            .u64s(&self.split_counts)
            .f64s(&self.gain_sums)
            .u8s(&self.flat.to_bytes());
        e.into_bytes()
    }

    /// Decodes [`GradientBoostedTrees::to_io2_bytes`]. The flat pool is
    /// taken as stored (so re-encoding is byte-identical); split feature
    /// indices are validated against the feature count. The encoding
    /// holds no hyperparameters: a decoded model predicts, and carries
    /// [`GbtConfig::default()`] for any later fit.
    pub fn from_io2_bytes(bytes: &[u8]) -> Result<Self, String> {
        let mut d = cats_io::io2::Dec::new(bytes);
        let base_score = d.f64()?;
        let split_counts = d.u64s()?;
        let gain_sums = d.f64s()?;
        let flat = FlatForest::from_bytes(&d.u8s()?)?;
        if d.remaining() != 0 {
            return Err(format!("{} trailing bytes after gbt payload", d.remaining()));
        }
        let n_features = split_counts.len();
        if gain_sums.len() != n_features {
            return Err(format!(
                "gbt: importance arrays disagree ({n_features} vs {})",
                gain_sums.len()
            ));
        }
        check_features(&flat, n_features)?;
        Ok(Self { config: GbtConfig::default(), base_score, split_counts, gain_sums, flat })
    }

    /// A mid-fit checkpoint slot: the run's fingerprint, the boosting
    /// rounds completed (loop iterations, which exceed the tree count
    /// when a subsampled round came up empty), and the model so far in
    /// its own [`GradientBoostedTrees::to_io2_bytes`] encoding.
    fn encode_checkpoint(&self, fingerprint: u32, rounds_done: usize) -> Vec<u8> {
        let mut e = cats_io::io2::Enc::new();
        e.u32(fingerprint).u64(rounds_done as u64).u8s(&self.to_io2_bytes());
        e.into_bytes()
    }

    /// Decodes [`GradientBoostedTrees::encode_checkpoint`]. The model goes
    /// through [`GradientBoostedTrees::from_io2_bytes`], a loaded model's
    /// validation, so a damaged or crafted slot is rejected before any
    /// descent.
    fn decode_checkpoint(bytes: &[u8]) -> Result<(u32, usize, Self), String> {
        let mut d = cats_io::io2::Dec::new(bytes);
        let fingerprint = d.u32()?;
        let rounds_done = usize::try_from(d.u64()?).map_err(|e| e.to_string())?;
        let model = Self::from_io2_bytes(&d.u8s()?)?;
        if d.remaining() != 0 {
            return Err(format!("{} trailing bytes after gbt checkpoint", d.remaining()));
        }
        Ok((fingerprint, rounds_done, model))
    }
}

/// Rejects a decoded pool whose splits index past the model's features
/// (descent would index a row out of bounds).
fn check_features(flat: &FlatForest, n_features: usize) -> Result<(), String> {
    match flat.max_feature() {
        Some(f) if f as usize >= n_features => {
            Err(format!("forest references feature {f} but the model has {n_features} features"))
        }
        _ => Ok(()),
    }
}

impl GradientBoostedTrees {
    /// Fits with early stopping: after each boosting round the model is
    /// scored on `valid` (log-loss); training stops once the loss has not
    /// improved for `patience` consecutive rounds, and the forest is
    /// truncated back to the best round. Returns the number of trees
    /// kept.
    pub fn fit_early_stopping(
        &mut self,
        train: &Dataset,
        valid: &Dataset,
        patience: usize,
    ) -> usize {
        assert!(patience > 0, "patience must be positive");
        assert!(!valid.is_empty(), "validation set must be non-empty");
        self.fit_impl(train, Some((valid, patience)), None);
        self.flat.n_trees()
    }

    /// Fits with crash recovery: every `every` completed boosting rounds
    /// the ensemble state is checkpointed into `store` under `stage`, and
    /// a rerun after a crash resumes from the last checkpoint instead of
    /// round zero. Boosting is deterministic given (data, config) — the
    /// per-round RNG draws depend only on the dataset shape, so a resume
    /// replays the completed rounds' draws and continues with the RNG
    /// exactly where an uninterrupted run would have it. The resumed
    /// model is therefore bit-identical to an uninterrupted fit. The
    /// checkpoint is cleared on successful completion; one whose config
    /// or data fingerprint does not match is ignored.
    pub fn fit_checkpointed(
        &mut self,
        data: &Dataset,
        store: &cats_io::CheckpointStore,
        stage: &str,
        every: usize,
    ) {
        assert!(every > 0, "checkpoint cadence must be positive");
        self.fit_impl(data, None, Some((store, stage, every)));
    }

    /// Mean log-loss of the current model on `data`.
    pub fn log_loss(&self, data: &Dataset) -> f64 {
        assert!(!data.is_empty(), "log-loss of empty dataset");
        let mut sum = 0.0;
        for i in 0..data.len() {
            let p = sigmoid(self.predict_margin(data.row(i))).clamp(1e-12, 1.0 - 1e-12);
            sum -= if data.label(i) == 1 { p.ln() } else { (1.0 - p).ln() };
        }
        sum / data.len() as f64
    }

    fn fit_impl(
        &mut self,
        data: &Dataset,
        early: Option<(&Dataset, usize)>,
        ckpt: Option<(&cats_io::CheckpointStore, &str, usize)>,
    ) {
        assert!(!data.is_empty(), "cannot fit GBT on an empty dataset");
        let _span = cats_obs::span!("cats.ml.gbt.fit", { data.len() });
        let cfg = self.config;
        let n = data.len();
        self.flat = FlatForest::new();
        self.split_counts = vec![0; data.n_features()];
        self.gain_sums = vec![0.0; data.n_features()];

        // One transpose up front: split scans walk whole feature columns
        // (and re-walk them once per node), so contiguous columns beat
        // the row-major matrix's n_features-strided reads.
        let cols = data.to_cols();

        // Base score: log-odds of the positive prior (clamped away from
        // degenerate single-class priors).
        let pos = data.n_positive() as f64;
        let prior = (pos / n as f64).clamp(1e-6, 1.0 - 1e-6);
        self.base_score = (prior / (1.0 - prior)).ln();

        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut margins = vec![self.base_score; n];
        let mut grad = vec![0.0f64; n];
        let mut hess = vec![0.0f64; n];

        // Parallelism for row-linear passes (feature pre-sorts, gradient
        // and margin recomputation). Gated on the dataset size.
        let row_par = par_if(cfg.parallelism, n >= PAR_MIN_ROWS);

        // Quantile candidate thresholds per feature (histogram mode).
        let candidates: Option<Vec<Vec<f64>>> = match cfg.split_mode {
            SplitMode::Exact => None,
            SplitMode::Histogram { bins } => {
                assert!(bins >= 2, "histogram mode needs at least 2 bins");
                Some(cats_par::map_indexed(row_par, data.n_features(), |f| {
                    quantile_thresholds(cols.col(f), bins)
                }))
            }
        };

        // Pre-sorted feature orders, reused by every tree.
        let sorted: Vec<Vec<u32>> = cats_par::map_indexed(row_par, data.n_features(), |f| {
            let col = cols.col(f);
            let mut idx: Vec<u32> = (0..n as u32).collect();
            idx.sort_by(|&a, &b| {
                col[a as usize].partial_cmp(&col[b as usize]).unwrap_or(std::cmp::Ordering::Equal)
            });
            idx
        });

        let mut best_valid_loss = f64::INFINITY;
        let mut best_round = 0usize;
        let mut rounds_since_best = 0usize;

        // Crash recovery: restore the last valid checkpoint, rebuild the
        // margins tree by tree (same f64 addition order as the original
        // rounds), and replay the completed rounds' RNG draws so the
        // stream continues exactly where an uninterrupted run would be.
        // `rounds_done` counts loop iterations, not trees: a round whose
        // subsample comes up empty contributes draws but no tree.
        let fingerprint = ckpt.map(|_| ckpt_fingerprint(&cfg, data));
        let mut start_round = 0usize;
        if let (Some((store, stage, _)), Some(fp)) = (ckpt, fingerprint) {
            if let Some(bytes) = store.load(stage) {
                match Self::decode_checkpoint(&bytes) {
                    Ok((saved_fp, rounds_done, saved))
                        if saved_fp == fp
                            && saved.split_counts.len() == data.n_features()
                            && rounds_done <= cfg.n_trees
                            && saved.flat.n_trees() <= rounds_done =>
                    {
                        // `self.config` stays: the slot stores none, and
                        // the fingerprint pinned every field but
                        // parallelism.
                        *self = Self { config: self.config, ..saved };
                        for t in 0..self.flat.n_trees() {
                            let flat = &self.flat;
                            let deltas = cats_par::map_indexed(row_par, n, |i| {
                                flat.predict_tree(t, data.row(i))
                            });
                            for (m, d) in margins.iter_mut().zip(&deltas) {
                                *m += d;
                            }
                        }
                        for _ in 0..rounds_done {
                            if cfg.subsample < 1.0 {
                                for _ in 0..n {
                                    let _ = rng.random::<f64>();
                                }
                            }
                            if cfg.colsample < 1.0 {
                                for i in (1..data.n_features()).rev() {
                                    let _ = rng.random_range(0..=i);
                                }
                            }
                        }
                        start_round = rounds_done;
                        cats_obs::counter("cats.ml.gbt.resumed_rounds").add(start_round as u64);
                    }
                    _ => {
                        cats_obs::counter("cats.ml.gbt.ckpt_rejected").inc();
                        eprintln!("cats-ml: ignoring mismatched gbt checkpoint ({stage})");
                    }
                }
            }
        }

        // Per-round training-progress gauge: mean |p − y| is already on
        // hand in the gradient pass, so publishing it costs one add per
        // row and no extra log/exp work.
        let round_err = cats_obs::gauge("cats.ml.gbt.round_mean_abs_grad");
        for round in start_round..cfg.n_trees {
            let _round_span = cats_obs::span!("cats.ml.gbt.round");
            let gh = cats_par::map_indexed(row_par, n, |i| {
                let p = sigmoid(margins[i]);
                (p - f64::from(data.label(i)), (p * (1.0 - p)).max(1e-16))
            });
            let mut abs_grad = 0.0f64;
            for (i, &(g, h)) in gh.iter().enumerate() {
                grad[i] = g;
                hess[i] = h;
                abs_grad += g.abs();
            }
            round_err.set(abs_grad / n as f64);
            let in_sample: Vec<bool> = if cfg.subsample < 1.0 {
                (0..n).map(|_| rng.random::<f64>() < cfg.subsample).collect()
            } else {
                vec![true; n]
            };
            // Per-tree feature mask: keep at least one feature.
            let feature_mask: Vec<bool> = if cfg.colsample < 1.0 {
                let nf = data.n_features();
                let keep = (((nf as f64) * cfg.colsample).round() as usize).clamp(1, nf);
                let mut idx: Vec<usize> = (0..nf).collect();
                for i in (1..nf).rev() {
                    let j = rng.random_range(0..=i);
                    idx.swap(i, j);
                }
                let mut mask = vec![false; nf];
                for &f in &idx[..keep] {
                    mask[f] = true;
                }
                mask
            } else {
                vec![true; data.n_features()]
            };

            let mut builder = TreeBuilder {
                data,
                cols: &cols,
                grad: &grad,
                hess: &hess,
                sorted: &sorted,
                candidates: candidates.as_deref(),
                feature_mask: &feature_mask,
                cfg: &cfg,
                nodes: Vec::new(),
                split_counts: &mut self.split_counts,
                gain_sums: &mut self.gain_sums,
            };
            let members: Vec<u32> = (0..n as u32).filter(|&i| in_sample[i as usize]).collect();
            if members.is_empty() {
                continue;
            }
            builder.build(members, 0);
            push_tree(&mut self.flat, &builder.nodes);
            let (flat, t) = (&self.flat, self.flat.n_trees() - 1);
            let deltas = cats_par::map_indexed(row_par, n, |i| flat.predict_tree(t, data.row(i)));
            for (m, d) in margins.iter_mut().zip(&deltas) {
                *m += d;
            }

            if let Some((valid, patience)) = early {
                let loss = self.log_loss(valid);
                if loss + 1e-12 < best_valid_loss {
                    best_valid_loss = loss;
                    best_round = self.flat.n_trees();
                    rounds_since_best = 0;
                } else {
                    rounds_since_best += 1;
                    if rounds_since_best >= patience {
                        break;
                    }
                }
            }

            if let (Some((store, stage, every)), Some(fp)) = (ckpt, fingerprint) {
                let done = round + 1;
                if done % every == 0 && done < cfg.n_trees {
                    // A failed save costs the resume point, never the fit;
                    // the next cadence point retries.
                    if let Err(e) = store.save(stage, &self.encode_checkpoint(fp, done)) {
                        eprintln!("cats-ml: gbt checkpoint save failed ({stage}): {e}");
                    }
                }
            }
        }
        if early.is_some() {
            self.flat.truncate(best_round.max(1));
        }
        if let Some((store, stage, _)) = ckpt {
            store.clear(stage);
        }
    }
}

/// Fingerprint tying a checkpoint to one (config, dataset) pair. Covers
/// every hyperparameter that shapes the RNG stream or the trees, the
/// dataset shape, and a CRC of the labels (a cheap stand-in for the full
/// feature matrix). Parallelism is excluded: fits are bit-identical at
/// every thread count, so a resume may legally change it.
fn ckpt_fingerprint(cfg: &GbtConfig, data: &Dataset) -> u32 {
    let desc = format!(
        "gbt n_trees={} max_depth={} eta={} lambda={} gamma={} min_child_weight={} subsample={} \
         seed={} split_mode={:?} colsample={} rows={} features={} labels={:08x}",
        cfg.n_trees,
        cfg.max_depth,
        cfg.eta,
        cfg.lambda,
        cfg.gamma,
        cfg.min_child_weight,
        cfg.subsample,
        cfg.seed,
        cfg.split_mode,
        cfg.colsample,
        data.len(),
        data.n_features(),
        cats_io::crc32(data.labels()),
    );
    cats_io::crc32(desc.as_bytes())
}

impl Classifier for GradientBoostedTrees {
    fn fit(&mut self, data: &Dataset) {
        self.fit_impl(data, None, None);
    }

    fn predict_proba(&self, row: &[f64]) -> f64 {
        assert!(self.is_fit(), "predict before fit");
        sigmoid(self.predict_margin(row))
    }

    fn name(&self) -> &'static str {
        "Xgboost"
    }

    fn clone_box(&self) -> Box<dyn Classifier> {
        Box::new(self.clone())
    }
}

#[inline]
fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Global quantile thresholds of one feature column: up to `bins − 1`
/// distinct cut points at evenly spaced sample quantiles.
fn quantile_thresholds(col: &[f64], bins: usize) -> Vec<f64> {
    let mut values: Vec<f64> = col.to_vec();
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mut out = Vec::with_capacity(bins.saturating_sub(1));
    for b in 1..bins {
        let idx = (b * values.len()) / bins;
        let v = values[idx.min(values.len() - 1)];
        if out.last().map_or(true, |&last| v > last) {
            out.push(v);
        }
    }
    out
}

/// Grows one regression tree over (grad, hess).
struct TreeBuilder<'a> {
    data: &'a Dataset,
    /// Column-major mirror of `data`'s features: scans touch one feature
    /// across many rows, which is contiguous here.
    cols: &'a ColMatrix,
    grad: &'a [f64],
    hess: &'a [f64],
    sorted: &'a [Vec<u32>],
    candidates: Option<&'a [Vec<f64>]>,
    feature_mask: &'a [bool],
    cfg: &'a GbtConfig,
    nodes: Vec<Node>,
    split_counts: &'a mut [u64],
    gain_sums: &'a mut [f64],
}

impl TreeBuilder<'_> {
    fn build(&mut self, members: Vec<u32>, depth: usize) -> usize {
        let g: f64 = members.iter().map(|&i| self.grad[i as usize]).sum();
        let h: f64 = members.iter().map(|&i| self.hess[i as usize]).sum();
        let leaf_weight = -g / (h + self.cfg.lambda) * self.cfg.eta;

        if depth >= self.cfg.max_depth || members.len() < 2 {
            self.nodes.push(Node::Leaf { weight: leaf_weight });
            return self.nodes.len() - 1;
        }

        let Some((feature, threshold, gain)) = self.best_split(&members, g, h) else {
            self.nodes.push(Node::Leaf { weight: leaf_weight });
            return self.nodes.len() - 1;
        };

        let col = self.cols.col(feature);
        let (left, right): (Vec<u32>, Vec<u32>) =
            members.into_iter().partition(|&i| col[i as usize] < threshold);
        if left.is_empty() || right.is_empty() {
            self.nodes.push(Node::Leaf { weight: leaf_weight });
            return self.nodes.len() - 1;
        }

        self.split_counts[feature] += 1;
        self.gain_sums[feature] += gain;
        let me = self.nodes.len();
        self.nodes.push(Node::Leaf { weight: leaf_weight });
        let l = self.build(left, depth + 1);
        let r = self.build(right, depth + 1);
        self.nodes[me] = Node::Split { feature, threshold, left: l, right: r };
        me
    }

    fn best_split(&self, members: &[u32], g_total: f64, h_total: f64) -> Option<(usize, f64, f64)> {
        match self.candidates {
            None => self.best_split_exact(members, g_total, h_total),
            Some(c) => self.best_split_histogram(members, g_total, h_total, c),
        }
    }

    /// Histogram split: features scan independently — in parallel on
    /// large nodes — and the per-feature bests fold in feature order.
    /// Per-feature (G, H) accumulation order is untouched, so the result
    /// is bit-identical to the serial sweep.
    fn best_split_histogram(
        &self,
        members: &[u32],
        g_total: f64,
        h_total: f64,
        candidates: &[Vec<f64>],
    ) -> Option<(usize, f64, f64)> {
        let par = par_if(self.cfg.parallelism, members.len() >= PAR_MIN_SPLIT_MEMBERS);
        let per_feature = cats_par::map_indexed(par, candidates.len(), |feature| {
            self.scan_feature_histogram(feature, members, &candidates[feature], g_total, h_total)
        });
        fold_feature_bests(per_feature)
    }

    /// One feature's histogram scan: accumulate (G, H) per global quantile
    /// bucket, then scan the O(bins) boundaries. Returns
    /// `(gain, feature, threshold)` of the feature's best candidate.
    fn scan_feature_histogram(
        &self,
        feature: usize,
        members: &[u32],
        thresholds: &[f64],
        g_total: f64,
        h_total: f64,
    ) -> Option<(f64, usize, f64)> {
        let cfg = self.cfg;
        if thresholds.is_empty() || !self.feature_mask[feature] {
            return None;
        }
        let parent_score = g_total * g_total / (h_total + cfg.lambda);
        let mut best: Option<(f64, usize, f64)> = None;
        // Bucket b holds rows with value < thresholds[b]; the last
        // bucket is everything >= the final threshold.
        let mut g_bins = vec![0.0f64; thresholds.len() + 1];
        let mut h_bins = vec![0.0f64; thresholds.len() + 1];
        let col = self.cols.col(feature);
        for &i in members {
            let v = col[i as usize];
            let b = thresholds.partition_point(|&t| t <= v);
            g_bins[b] += self.grad[i as usize];
            h_bins[b] += self.hess[i as usize];
        }
        let mut gl = 0.0;
        let mut hl = 0.0;
        for (b, &t) in thresholds.iter().enumerate() {
            gl += g_bins[b];
            hl += h_bins[b];
            let gr = g_total - gl;
            let hr = h_total - hl;
            if hl < cfg.min_child_weight || hr < cfg.min_child_weight {
                continue;
            }
            let gain = 0.5
                * (gl * gl / (hl + cfg.lambda) + gr * gr / (hr + cfg.lambda) - parent_score)
                - cfg.gamma;
            if gain > 1e-12 && best.as_ref().map_or(true, |(bg, _, _)| gain > *bg) {
                best = Some((gain, feature, t));
            }
        }
        best
    }

    /// Exact greedy split over the node's members. Features scan
    /// independently (in parallel on large nodes) and fold in feature
    /// order, bit-identical to the serial sweep.
    fn best_split_exact(
        &self,
        members: &[u32],
        g_total: f64,
        h_total: f64,
    ) -> Option<(usize, f64, f64)> {
        let mut in_node = vec![false; self.data.len()];
        for &i in members {
            in_node[i as usize] = true;
        }
        let in_node = &in_node;
        let par = par_if(self.cfg.parallelism, members.len() >= PAR_MIN_SPLIT_MEMBERS);
        let per_feature = cats_par::map_indexed(par, self.sorted.len(), |feature| {
            self.scan_feature_exact(feature, in_node, g_total, h_total)
        });
        fold_feature_bests(per_feature)
    }

    /// One feature's exact greedy scan, walking the node's members in
    /// globally pre-sorted order.
    fn scan_feature_exact(
        &self,
        feature: usize,
        in_node: &[bool],
        g_total: f64,
        h_total: f64,
    ) -> Option<(f64, usize, f64)> {
        if !self.feature_mask[feature] {
            return None;
        }
        let cfg = self.cfg;
        let parent_score = g_total * g_total / (h_total + cfg.lambda);
        let mut best: Option<(f64, usize, f64)> = None;
        let mut gl = 0.0;
        let mut hl = 0.0;
        let mut prev_val: Option<f64> = None;
        let col = self.cols.col(feature);
        for &i in &self.sorted[feature] {
            let i = i as usize;
            if !in_node[i] {
                continue;
            }
            let v = col[i];
            if let Some(pv) = prev_val {
                if v > pv && hl >= cfg.min_child_weight {
                    let gr = g_total - gl;
                    let hr = h_total - hl;
                    if hr >= cfg.min_child_weight {
                        let gain = 0.5
                            * (gl * gl / (hl + cfg.lambda) + gr * gr / (hr + cfg.lambda)
                                - parent_score)
                            - cfg.gamma;
                        if gain > 1e-12 && best.as_ref().map_or(true, |(bg, _, _)| gain > *bg) {
                            best = Some((gain, feature, (pv + v) / 2.0));
                        }
                    }
                }
            }
            gl += self.grad[i];
            hl += self.hess[i];
            prev_val = Some(v);
        }
        best
    }
}

/// Folds per-feature `(gain, feature, threshold)` results in feature order
/// with the same strict `gain >` comparison the serial sweep used: the
/// first feature (and first candidate within it) reaching the maximum gain
/// wins, exactly as in a single serial pass.
fn fold_feature_bests(per_feature: Vec<Option<(f64, usize, f64)>>) -> Option<(usize, f64, f64)> {
    let mut best: Option<(f64, usize, f64)> = None;
    for cand in per_feature.into_iter().flatten() {
        if best.as_ref().map_or(true, |(bg, _, _)| cand.0 > *bg) {
            best = Some(cand);
        }
    }
    best.map(|(g, f, t)| (f, t, g))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::predict_all;
    use crate::data::Dataset;

    fn cfg_small() -> GbtConfig {
        GbtConfig { n_trees: 30, max_depth: 3, eta: 0.3, subsample: 1.0, ..GbtConfig::default() }
    }

    /// Noisy linearly separable data on feature 0.
    fn separable(n: usize) -> Dataset {
        let mut d = Dataset::new(3);
        for i in 0..n {
            let x = i as f64 / n as f64;
            d.push(&[1.0 + x, x, (i % 7) as f64], 1);
            d.push(&[-1.0 - x, x, (i % 5) as f64], 0);
        }
        d
    }

    #[test]
    fn fits_separable_data() {
        let d = separable(100);
        let mut m = GradientBoostedTrees::new(cfg_small());
        m.fit(&d);
        let preds = predict_all(&m, &d);
        let correct = preds.iter().zip(d.labels()).filter(|(p, &l)| **p == (l == 1)).count();
        assert_eq!(correct, d.len());
    }

    #[test]
    fn solves_xor_unlike_a_stump() {
        let mut d = Dataset::new(2);
        for _ in 0..20 {
            d.push(&[0.0, 0.0], 0);
            d.push(&[0.0, 1.0], 1);
            d.push(&[1.0, 0.0], 1);
            d.push(&[1.0, 1.0], 0);
        }
        // Full-batch exact greedy finds zero gain at the XOR root (both
        // children inherit G = 0); row subsampling breaks the symmetry.
        let mut m = GradientBoostedTrees::new(GbtConfig { subsample: 0.7, ..cfg_small() });
        m.fit(&d);
        assert!(!m.predict(&[0.0, 0.0]));
        assert!(m.predict(&[0.0, 1.0]));
        assert!(m.predict(&[1.0, 0.0]));
        assert!(!m.predict(&[1.0, 1.0]));
    }

    #[test]
    fn probabilities_in_unit_interval_and_finite() {
        let d = separable(50);
        let mut m = GradientBoostedTrees::new(cfg_small());
        m.fit(&d);
        for i in 0..d.len() {
            let p = m.predict_proba(d.row(i));
            assert!(p.is_finite() && (0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn importance_concentrates_on_informative_feature() {
        let d = separable(200);
        let mut m = GradientBoostedTrees::new(cfg_small());
        m.fit(&d);
        let imp = m.feature_importance();
        assert_eq!(imp.len(), 3);
        assert!(imp[0] > imp[1] && imp[0] > imp[2], "feature 0 should dominate: {imp:?}");
    }

    #[test]
    fn gain_importance_tracks_split_importance() {
        let d = separable(200);
        let mut m = GradientBoostedTrees::new(cfg_small());
        m.fit(&d);
        let gains = m.feature_gain();
        assert_eq!(gains.len(), 3);
        assert!(gains.iter().all(|g| g.is_finite() && *g >= 0.0));
        // The informative feature dominates by gain too.
        assert!(gains[0] > gains[1] && gains[0] > gains[2], "{gains:?}");
        // Features never split have zero accumulated gain.
        for (f, (&c, &g)) in m.feature_importance().iter().zip(gains).enumerate() {
            if c == 0 {
                assert_eq!(g, 0.0, "feature {f} has gain without splits");
            } else {
                assert!(g > 0.0, "feature {f} split {c} times with zero gain");
            }
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let d = separable(60);
        let mut a = GradientBoostedTrees::new(cfg_small());
        let mut b = GradientBoostedTrees::new(cfg_small());
        a.fit(&d);
        b.fit(&d);
        for i in 0..d.len() {
            assert_eq!(a.predict_proba(d.row(i)), b.predict_proba(d.row(i)));
        }
    }

    #[test]
    fn subsampling_still_learns() {
        let d = separable(150);
        let mut m =
            GradientBoostedTrees::new(GbtConfig { subsample: 0.6, n_trees: 60, ..cfg_small() });
        m.fit(&d);
        let preds = predict_all(&m, &d);
        let correct = preds.iter().zip(d.labels()).filter(|(p, &l)| **p == (l == 1)).count();
        assert!(correct as f64 / d.len() as f64 > 0.95);
    }

    #[test]
    fn single_class_data_predicts_that_class() {
        let mut d = Dataset::new(1);
        for i in 0..20 {
            d.push(&[i as f64], 1);
        }
        let mut m = GradientBoostedTrees::new(cfg_small());
        m.fit(&d);
        assert!(m.predict_proba(&[5.0]) > 0.9);
    }

    #[test]
    fn gamma_prunes_trees() {
        let d = separable(100);
        let mut free = GradientBoostedTrees::new(GbtConfig { gamma: 0.0, ..cfg_small() });
        let mut strict = GradientBoostedTrees::new(GbtConfig { gamma: 1e6, ..cfg_small() });
        free.fit(&d);
        strict.fit(&d);
        let splits_free: u64 = free.feature_importance().iter().sum();
        let splits_strict: u64 = strict.feature_importance().iter().sum();
        assert!(splits_strict < splits_free, "{splits_strict} vs {splits_free}");
    }

    #[test]
    #[should_panic(expected = "predict before fit")]
    fn predict_before_fit_panics() {
        GradientBoostedTrees::new(cfg_small()).predict_proba(&[0.0, 0.0, 0.0]);
    }

    #[test]
    fn margin_matches_proba() {
        let d = separable(40);
        let mut m = GradientBoostedTrees::new(cfg_small());
        m.fit(&d);
        let row = d.row(0);
        assert!((sigmoid(m.predict_margin(row)) - m.predict_proba(row)).abs() < 1e-15);
    }

    #[test]
    fn colsample_restricts_but_still_learns() {
        // With 3 features of which feature 0 carries the signal,
        // colsample 0.67 keeps 2 of 3 per tree; across many trees the
        // informative feature participates often enough to learn.
        let d = separable(150);
        let mut m =
            GradientBoostedTrees::new(GbtConfig { colsample: 0.67, n_trees: 60, ..cfg_small() });
        m.fit(&d);
        let acc =
            predict_all(&m, &d).iter().zip(d.labels()).filter(|(p, &l)| **p == (l == 1)).count()
                as f64
                / d.len() as f64;
        assert!(acc > 0.95, "colsample accuracy {acc}");
        // and the other features get split chances they wouldn't otherwise
        let imp = m.feature_importance();
        assert!(imp.iter().filter(|&&c| c > 0).count() >= 2, "{imp:?}");
    }

    #[test]
    #[should_panic(expected = "colsample in (0, 1]")]
    fn zero_colsample_rejected() {
        GradientBoostedTrees::new(GbtConfig { colsample: 0.0, ..cfg_small() });
    }

    #[test]
    fn histogram_mode_learns_separable_data() {
        let d = separable(150);
        let mut m = GradientBoostedTrees::new(GbtConfig {
            split_mode: SplitMode::Histogram { bins: 16 },
            ..cfg_small()
        });
        m.fit(&d);
        let preds = predict_all(&m, &d);
        let acc = preds.iter().zip(d.labels()).filter(|(p, &l)| **p == (l == 1)).count() as f64
            / d.len() as f64;
        assert!(acc > 0.97, "histogram-mode accuracy {acc}");
    }

    #[test]
    fn histogram_and_exact_agree_closely() {
        let d = separable(200);
        let mut exact = GradientBoostedTrees::new(cfg_small());
        let mut hist = GradientBoostedTrees::new(GbtConfig {
            split_mode: SplitMode::Histogram { bins: 32 },
            ..cfg_small()
        });
        exact.fit(&d);
        hist.fit(&d);
        let disagreements =
            (0..d.len()).filter(|&i| exact.predict(d.row(i)) != hist.predict(d.row(i))).count();
        assert!(
            disagreements * 20 <= d.len(),
            "modes disagree on {disagreements}/{} rows",
            d.len()
        );
    }

    #[test]
    fn quantile_thresholds_sorted_distinct_bounded() {
        let mut d = Dataset::new(1);
        for i in 0..97 {
            d.push(&[(i % 13) as f64], u8::from(i % 2 == 0));
        }
        let col: Vec<f64> = (0..d.len()).map(|i| d.row(i)[0]).collect();
        let t = quantile_thresholds(&col, 8);
        assert!(t.len() <= 7);
        assert!(t.windows(2).all(|w| w[0] < w[1]), "{t:?}");
    }

    #[test]
    fn constant_feature_has_no_thresholds_but_trains() {
        let mut d = Dataset::new(2);
        for i in 0..40 {
            d.push(&[5.0, i as f64], u8::from(i >= 20));
        }
        let col: Vec<f64> = (0..d.len()).map(|i| d.row(i)[0]).collect();
        assert!(quantile_thresholds(&col, 8).len() <= 1);
        let mut m = GradientBoostedTrees::new(GbtConfig {
            split_mode: SplitMode::Histogram { bins: 8 },
            ..cfg_small()
        });
        m.fit(&d);
        assert!(m.predict(&[5.0, 35.0]));
        assert!(!m.predict(&[5.0, 5.0]));
    }

    #[test]
    #[should_panic(expected = "at least 2 bins")]
    fn single_bin_rejected() {
        let d = separable(10);
        GradientBoostedTrees::new(GbtConfig {
            split_mode: SplitMode::Histogram { bins: 1 },
            ..cfg_small()
        })
        .fit(&d);
    }

    #[test]
    fn early_stopping_truncates_and_matches_best_round() {
        // Train/valid split of separable data: validation loss improves
        // quickly then flattens; early stopping must keep fewer trees than
        // the full budget without hurting accuracy.
        let train = separable(120);
        let valid = separable(40);
        let cfg = GbtConfig { n_trees: 200, ..cfg_small() };
        let mut es = GradientBoostedTrees::new(cfg);
        let kept = es.fit_early_stopping(&train, &valid, 5);
        assert!(kept >= 1);
        assert!(kept < 200, "early stopping should fire before the budget: {kept}");
        assert_eq!(es.n_trees(), kept);
        let preds = predict_all(&es, &valid);
        let acc = preds.iter().zip(valid.labels()).filter(|(p, &l)| **p == (l == 1)).count() as f64
            / valid.len() as f64;
        assert!(acc > 0.95, "early-stopped model accuracy {acc}");
    }

    #[test]
    fn log_loss_decreases_with_training() {
        let d = separable(80);
        let mut short = GradientBoostedTrees::new(GbtConfig { n_trees: 1, ..cfg_small() });
        let mut long = GradientBoostedTrees::new(GbtConfig { n_trees: 30, ..cfg_small() });
        short.fit(&d);
        long.fit(&d);
        assert!(long.log_loss(&d) < short.log_loss(&d));
        assert!(long.log_loss(&d) >= 0.0);
    }

    #[test]
    #[should_panic(expected = "patience must be positive")]
    fn zero_patience_rejected() {
        let d = separable(10);
        GradientBoostedTrees::new(cfg_small()).fit_early_stopping(&d, &d, 0);
    }

    #[test]
    fn parallel_fit_is_bit_identical_to_serial() {
        // Large enough to cross both parallel gates (row count and node
        // member count), in both split modes.
        let d = separable(1500);
        for mode in [SplitMode::Exact, SplitMode::Histogram { bins: 16 }] {
            let base = GbtConfig { n_trees: 8, split_mode: mode, ..cfg_small() };
            let mut serial =
                GradientBoostedTrees::new(GbtConfig { parallelism: Parallelism::serial(), ..base });
            let mut parallel = GradientBoostedTrees::new(GbtConfig {
                parallelism: Parallelism::with_threads(8),
                ..base
            });
            serial.fit(&d);
            parallel.fit(&d);
            assert_eq!(serial.feature_importance(), parallel.feature_importance());
            for i in 0..d.len() {
                assert_eq!(
                    serial.predict_proba(d.row(i)).to_bits(),
                    parallel.predict_proba(d.row(i)).to_bits(),
                    "row {i} diverged in {mode:?}"
                );
            }
        }
    }

    /// The enum-arena walk the flat pool replaced: the bitwise oracle
    /// for the flat descent, rebuilt from a model's pool.
    struct RegTree {
        nodes: Vec<Node>,
    }

    impl RegTree {
        fn predict(&self, row: &[f64]) -> f64 {
            let mut node = 0usize;
            loop {
                match &self.nodes[node] {
                    Node::Leaf { weight } => return *weight,
                    Node::Split { feature, threshold, left, right } => {
                        node = if row[*feature] < *threshold { *left } else { *right };
                    }
                }
            }
        }
    }

    /// Splits the pool back into one enum arena per tree. Tree `t` owns
    /// the node range `[root(t), root(t+1))`, which `from_bytes` enforces.
    fn unflatten_trees(flat: &FlatForest) -> Vec<RegTree> {
        (0..flat.n_trees())
            .map(|t| {
                let start = flat.root(t) as usize;
                let end =
                    if t + 1 < flat.n_trees() { flat.root(t + 1) as usize } else { flat.n_nodes() };
                let nodes = (start..end)
                    .map(|i| match flat.node_feature(i) {
                        crate::flat::LEAF => Node::Leaf { weight: flat.node_leaf(i) },
                        f => {
                            let l = flat.node_left(i) as usize;
                            Node::Split {
                                feature: f as usize,
                                threshold: flat.node_threshold(i),
                                left: l - start,
                                right: l + 1 - start,
                            }
                        }
                    })
                    .collect();
                RegTree { nodes }
            })
            .collect()
    }

    fn predict_margin_recursive(trees: &[RegTree], base_score: f64, row: &[f64]) -> f64 {
        let mut m = base_score;
        for t in trees {
            m += t.predict(row);
        }
        m
    }

    /// Every row of `d`, plus each row with a NaN feature, must get the
    /// same margin bits from the flat descent and the enum oracle.
    fn assert_matches_oracle(m: &GradientBoostedTrees, d: &Dataset, what: &str) {
        let trees = unflatten_trees(&m.flat);
        assert_eq!(trees.len(), m.n_trees(), "{what}");
        for i in 0..d.len() {
            let mut row = d.row(i).to_vec();
            for nan_at in [None, Some(i % row.len())] {
                if let Some(f) = nan_at {
                    row[f] = f64::NAN;
                }
                assert_eq!(
                    m.predict_margin(&row).to_bits(),
                    predict_margin_recursive(&trees, m.base_score, &row).to_bits(),
                    "{what}: row {i} (NaN at {nan_at:?}): flat and enum walks diverged"
                );
            }
        }
    }

    #[test]
    fn flat_walk_is_bit_identical_to_recursive_walk() {
        let d = separable(120);
        let mut fitted = GradientBoostedTrees::new(cfg_small());
        fitted.fit(&d);
        assert_matches_oracle(&fitted, &d, "fitted");

        let mut early = GradientBoostedTrees::new(GbtConfig { n_trees: 200, ..cfg_small() });
        let kept = early.fit_early_stopping(&d, &separable(40), 5);
        assert!(kept < 200, "early stopping must truncate: {kept}");
        assert_matches_oracle(&early, &d, "early-stopped");

        let (_dir, store) = ckpt_store("oracle");
        store.kill_after_saves(2);
        let mut doomed = GradientBoostedTrees::new(cfg_ckpt());
        let killed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            doomed.fit_checkpointed(&d, &store, "gbt", 5)
        }));
        assert!(killed.is_err(), "simulated kill fires");
        let mut resumed = GradientBoostedTrees::new(cfg_ckpt());
        resumed.fit_checkpointed(&d, &store, "gbt", 5);
        assert_matches_oracle(&resumed, &d, "resumed");

        for m in [&fitted, &early, &resumed] {
            let decoded = GradientBoostedTrees::from_io2_bytes(&m.to_io2_bytes()).unwrap();
            assert_matches_oracle(&decoded, &d, "decoded");
        }
    }

    #[test]
    fn io2_roundtrip_preserves_predictions_bitwise() {
        let d = separable(80);
        let mut m = GradientBoostedTrees::new(cfg_small());
        m.fit(&d);
        let bytes = m.to_io2_bytes();
        let m2 = GradientBoostedTrees::from_io2_bytes(&bytes).unwrap();
        let trees = unflatten_trees(&m.flat);
        for i in 0..d.len() {
            assert_eq!(
                m.predict_margin(d.row(i)).to_bits(),
                m2.predict_margin(d.row(i)).to_bits(),
                "row {i}: io2-decoded model diverged"
            );
            // The decoded model also agrees with the enum oracle built
            // from the original's pool.
            assert_eq!(
                m2.predict_margin(d.row(i)).to_bits(),
                predict_margin_recursive(&trees, m.base_score, d.row(i)).to_bits(),
                "row {i}: decoded model diverged from the enum oracle"
            );
        }
        // The binary encoding is canonical: decode → encode is
        // byte-identical.
        assert_eq!(m2.to_io2_bytes(), bytes);
    }

    #[test]
    fn io2_decode_rejects_damaged_payloads() {
        let d = separable(40);
        let mut m = GradientBoostedTrees::new(cfg_small());
        m.fit(&d);
        let bytes = m.to_io2_bytes();
        let mut truncated = bytes.clone();
        truncated.truncate(bytes.len() - 9);
        assert!(GradientBoostedTrees::from_io2_bytes(&truncated).is_err());
        assert!(GradientBoostedTrees::from_io2_bytes(&[]).is_err());
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(GradientBoostedTrees::from_io2_bytes(&extended).is_err());
    }

    /// A checkpoint store in a scratch directory removed when the test
    /// ends, passing or not.
    fn ckpt_store(name: &str) -> (cats_io::ScratchDir, cats_io::CheckpointStore) {
        let dir = cats_io::ScratchDir::new(&format!("cats_gbt_{name}"));
        let store = cats_io::CheckpointStore::open(&*dir).expect("open checkpoint store");
        (dir, store)
    }

    /// Subsampled + column-sampled config: exercises both RNG replay
    /// paths on resume.
    fn cfg_ckpt() -> GbtConfig {
        GbtConfig { n_trees: 30, subsample: 0.7, colsample: 0.67, ..cfg_small() }
    }

    #[test]
    fn killed_fit_resumes_bit_identical() {
        let d = separable(100);
        let (_dir, store) = ckpt_store("kill");

        let mut uninterrupted = GradientBoostedTrees::new(cfg_ckpt());
        uninterrupted.fit_checkpointed(&d, &store, "gbt", 5);
        assert!(store.load("gbt").is_none(), "checkpoint cleared on completion");

        // Kill the run right after the second checkpoint (round 10) lands.
        store.kill_after_saves(2);
        let mut doomed = GradientBoostedTrees::new(cfg_ckpt());
        let killed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            doomed.fit_checkpointed(&d, &store, "gbt", 5)
        }));
        assert!(killed.is_err(), "simulated kill fires");
        assert!(store.load("gbt").is_some(), "a valid checkpoint survives the kill");

        let before = cats_obs::counter("cats.ml.gbt.resumed_rounds").get();
        let mut resumed = GradientBoostedTrees::new(cfg_ckpt());
        resumed.fit_checkpointed(&d, &store, "gbt", 5);
        assert!(
            cats_obs::counter("cats.ml.gbt.resumed_rounds").get() > before,
            "resume actually skipped completed rounds"
        );
        assert_eq!(uninterrupted.n_trees(), resumed.n_trees());
        assert_eq!(uninterrupted.feature_importance(), resumed.feature_importance());
        for i in 0..d.len() {
            assert_eq!(
                uninterrupted.predict_proba(d.row(i)).to_bits(),
                resumed.predict_proba(d.row(i)).to_bits(),
                "row {i} diverged after resume"
            );
        }
        assert!(store.load("gbt").is_none(), "checkpoint cleared after resume completes");
    }

    #[test]
    fn mismatched_checkpoint_is_ignored() {
        let d = separable(100);
        let (_dir, store) = ckpt_store("mismatch");

        // Leave a checkpoint from a fit with a different seed behind.
        store.kill_after_saves(1);
        let mut doomed = GradientBoostedTrees::new(GbtConfig { seed: 999, ..cfg_ckpt() });
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            doomed.fit_checkpointed(&d, &store, "gbt", 5)
        }));
        assert!(store.load("gbt").is_some());

        let mut from_dirty = GradientBoostedTrees::new(cfg_ckpt());
        from_dirty.fit_checkpointed(&d, &store, "gbt", 5);
        let mut clean = GradientBoostedTrees::new(cfg_ckpt());
        clean.fit(&d);
        for i in 0..d.len() {
            assert_eq!(
                from_dirty.predict_proba(d.row(i)).to_bits(),
                clean.predict_proba(d.row(i)).to_bits(),
                "a foreign checkpoint must not leak into the fit"
            );
        }
    }

    #[test]
    fn crafted_checkpoints_are_rejected_and_fit_from_round_zero() {
        let d = separable(100);
        let mut clean = GradientBoostedTrees::new(cfg_ckpt());
        clean.fit(&d);

        // One split whose left child is itself (descent would never
        // end), one on a feature past the row's end (descent would index
        // out of bounds), and that one again inside a model claiming one
        // feature more than the data has. All carry the run's true
        // fingerprint.
        let mut self_link = FlatForest::new();
        let root = self_link.push_root();
        let l = self_link.alloc_children();
        self_link.set_leaf(l, 1.0);
        self_link.set_leaf(l + 1, -1.0);
        self_link.set_split(root, 0, 0.5, root);
        let mut past_end = self_link.clone();
        past_end.set_split(root, d.n_features() as u32, 0.5, l);

        let nf = d.n_features();
        for (name, forest, width) in [
            ("self_link", self_link, nf),
            ("past_end", past_end.clone(), nf),
            ("past_end_wide", past_end, nf + 1),
        ] {
            let (_dir, store) = ckpt_store(name);
            let mut state = GradientBoostedTrees::new(cfg_ckpt());
            state.flat = forest;
            state.split_counts = vec![0; width];
            state.gain_sums = vec![0.0; width];
            let slot = state.encode_checkpoint(ckpt_fingerprint(&cfg_ckpt(), &d), 5);
            store.save("gbt", &slot).unwrap();
            let before = cats_obs::counter("cats.ml.gbt.ckpt_rejected").get();
            let mut m = GradientBoostedTrees::new(cfg_ckpt());
            m.fit_checkpointed(&d, &store, "gbt", 5);
            assert!(
                cats_obs::counter("cats.ml.gbt.ckpt_rejected").get() > before,
                "{name}: crafted checkpoint must be rejected"
            );
            assert_eq!(m.to_io2_bytes(), clean.to_io2_bytes(), "{name}");
            for i in 0..d.len() {
                assert_eq!(
                    m.predict_proba(d.row(i)).to_bits(),
                    clean.predict_proba(d.row(i)).to_bits(),
                    "{name}: row {i} diverged from an uninterrupted fit"
                );
            }
        }
    }
}
