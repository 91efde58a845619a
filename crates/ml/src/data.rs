//! Dense datasets, splits, and standardization.

use crate::flat::ColMatrix;
use cats_io::io2::{Dec, Enc, Io2Builder, Io2File};
use rand::{rngs::StdRng, RngExt, SeedableRng};
use std::path::Path;

/// Byte-format version of the dataset `meta` section.
const DATASET_CODEC_VERSION: u32 = 1;

/// A dense binary-classification dataset: row-major feature matrix plus
/// 0/1 labels (1 = fraud in the CATS pipeline).
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    n_features: usize,
    x: Vec<f64>,
    y: Vec<u8>,
}

impl Dataset {
    /// Creates an empty dataset for rows of width `n_features`.
    pub fn new(n_features: usize) -> Self {
        Self { n_features, x: Vec::new(), y: Vec::new() }
    }

    /// Appends one row.
    ///
    /// # Panics
    /// Panics if `row.len() != n_features` or `label > 1`.
    pub fn push(&mut self, row: &[f64], label: u8) {
        assert_eq!(row.len(), self.n_features, "row width mismatch");
        assert!(label <= 1, "labels must be 0 or 1");
        self.x.extend_from_slice(row);
        self.y.push(label);
    }

    /// Builds a dataset from rows and labels.
    pub fn from_rows(rows: &[Vec<f64>], labels: &[u8]) -> Self {
        assert_eq!(rows.len(), labels.len(), "rows/labels length mismatch");
        let n_features = rows.first().map_or(0, Vec::len);
        let mut d = Self::new(n_features);
        for (r, &l) in rows.iter().zip(labels) {
            d.push(r, l);
        }
        d
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// Whether the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Row width.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.x[i * self.n_features..(i + 1) * self.n_features]
    }

    /// Label of row `i`.
    pub fn label(&self, i: usize) -> u8 {
        self.y[i]
    }

    /// All labels.
    pub fn labels(&self) -> &[u8] {
        &self.y
    }

    /// Count of positive (label 1) rows.
    pub fn n_positive(&self) -> usize {
        self.y.iter().filter(|&&l| l == 1).count()
    }

    /// The feature matrix transposed into column-major storage, so
    /// per-feature walks (split scans) read contiguous memory instead of
    /// striding by `n_features`.
    pub fn to_cols(&self) -> ColMatrix {
        if self.n_features == 0 {
            return ColMatrix::default();
        }
        ColMatrix::from_row_major(&self.x, self.n_features)
    }

    /// Saves the dataset as a `CATS-IO2` container — sections `meta`
    /// (codec version and shape), `x` (feature matrix, raw little-endian
    /// f64), and `y` (labels). Loading is a bounds check plus a byte
    /// sweep; no JSON is parsed.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        let mut meta = Enc::new();
        meta.u32(DATASET_CODEC_VERSION).u64(self.n_features as u64).u64(self.y.len() as u64);
        let mut x = Enc::new();
        x.f64s(&self.x);
        let mut y = Enc::new();
        y.u8s(&self.y);
        let mut container = Io2Builder::new();
        container
            .section("meta", meta.into_bytes())
            .section("x", x.into_bytes())
            .section("y", y.into_bytes());
        container.write(path).map_err(|e| e.to_string())
    }

    /// Loads a dataset saved by [`Dataset::save`].
    pub fn load(path: &Path) -> Result<Self, String> {
        let name = path.display().to_string();
        let bytes = std::fs::read(path).map_err(|e| format!("{name}: {e}"))?;
        let file = Io2File::parse(&bytes, &name).map_err(|e| e.to_string())?;
        let mut meta = Dec::new(file.require("meta", &name).map_err(|e| e.to_string())?);
        let version = meta.u32()?;
        if version != DATASET_CODEC_VERSION {
            return Err(format!(
                "{name}: dataset codec version {version} is newer than supported \
                 {DATASET_CODEC_VERSION}"
            ));
        }
        let n_features = meta.u64()? as usize;
        let n_rows = meta.u64()? as usize;
        let x = Dec::new(file.require("x", &name).map_err(|e| e.to_string())?).f64s()?;
        let y = Dec::new(file.require("y", &name).map_err(|e| e.to_string())?).u8s()?;
        if y.len() != n_rows || x.len() != n_rows.saturating_mul(n_features) {
            return Err(format!(
                "{name}: dataset shape mismatch: meta says {n_rows}×{n_features}, found \
                 x={} y={}",
                x.len(),
                y.len()
            ));
        }
        if y.iter().any(|&l| l > 1) {
            return Err(format!("{name}: labels must be 0 or 1"));
        }
        Ok(Self { n_features, x, y })
    }

    /// A new dataset containing the rows at `indices` (in that order).
    pub fn subset(&self, indices: &[usize]) -> Self {
        let mut d = Self::new(self.n_features);
        for &i in indices {
            d.push(self.row(i), self.y[i]);
        }
        d
    }

    /// Splits into (train, test) with the positive/negative ratio preserved
    /// in both halves. `test_fraction` of each class goes to the test set.
    pub fn stratified_split(&self, test_fraction: f64, seed: u64) -> (Self, Self) {
        assert!((0.0..1.0).contains(&test_fraction), "test_fraction in [0,1)");
        let folds = stratified_assignment(
            &self.y,
            ((1.0 / test_fraction.max(1e-9)).round() as usize).max(2),
            seed,
        );
        // Fold 0 is the test fold; its expected share is 1/k ≈ test_fraction.
        let (mut train_idx, mut test_idx) = (Vec::new(), Vec::new());
        for (i, &f) in folds.iter().enumerate() {
            if f == 0 {
                test_idx.push(i);
            } else {
                train_idx.push(i);
            }
        }
        (self.subset(&train_idx), self.subset(&test_idx))
    }

    /// Stratified k-fold assignment: returns `k` (train, test) pairs.
    pub fn stratified_kfold(&self, k: usize, seed: u64) -> Vec<(Self, Self)> {
        let folds = stratified_assignment(&self.y, k, seed);
        (0..k)
            .map(|f| {
                let (mut tr, mut te) = (Vec::new(), Vec::new());
                for (i, &fi) in folds.iter().enumerate() {
                    if fi == f {
                        te.push(i);
                    } else {
                        tr.push(i);
                    }
                }
                (self.subset(&tr), self.subset(&te))
            })
            .collect()
    }
}

/// Assigns each row a fold in `0..k`, shuffling within each class so every
/// fold receives an equal share of both classes (±1).
fn stratified_assignment(labels: &[u8], k: usize, seed: u64) -> Vec<usize> {
    assert!(k >= 2, "need at least 2 folds");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut folds = vec![0usize; labels.len()];
    for class in [0u8, 1u8] {
        let mut idx: Vec<usize> =
            labels.iter().enumerate().filter(|(_, &l)| l == class).map(|(i, _)| i).collect();
        // Fisher–Yates shuffle.
        for i in (1..idx.len()).rev() {
            let j = rng.random_range(0..=i);
            idx.swap(i, j);
        }
        for (pos, &i) in idx.iter().enumerate() {
            folds[i] = pos % k;
        }
    }
    folds
}

/// Per-feature standardization (zero mean, unit variance), fit on training
/// data and applied to any dataset — required by the SVM and MLP, harmless
/// for trees.
#[derive(Debug, Clone)]
pub struct StandardScaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl StandardScaler {
    /// Fits means and standard deviations on `data`.
    ///
    /// # Panics
    /// Panics on an empty dataset.
    pub fn fit(data: &Dataset) -> Self {
        assert!(!data.is_empty(), "cannot fit a scaler on an empty dataset");
        let nf = data.n_features();
        let n = data.len() as f64;
        let mut means = vec![0.0; nf];
        for i in 0..data.len() {
            for (m, &v) in means.iter_mut().zip(data.row(i)) {
                *m += v;
            }
        }
        means.iter_mut().for_each(|m| *m /= n);
        let mut vars = vec![0.0; nf];
        for i in 0..data.len() {
            for ((v, &x), &m) in vars.iter_mut().zip(data.row(i)).zip(&means) {
                *v += (x - m) * (x - m);
            }
        }
        let stds = vars
            .into_iter()
            .map(|v| {
                let s = (v / n).sqrt();
                if s > 1e-12 {
                    s
                } else {
                    1.0 // constant feature: leave it centered, unscaled
                }
            })
            .collect();
        Self { means, stds }
    }

    /// Transforms a single row in place.
    pub fn transform_row(&self, row: &mut [f64]) {
        for ((x, &m), &s) in row.iter_mut().zip(&self.means).zip(&self.stds) {
            *x = (*x - m) / s;
        }
    }

    /// Returns a standardized copy of `data`.
    pub fn transform(&self, data: &Dataset) -> Dataset {
        let mut out = Dataset::new(data.n_features());
        let mut buf = vec![0.0; data.n_features()];
        for i in 0..data.len() {
            buf.copy_from_slice(data.row(i));
            self.transform_row(&mut buf);
            out.push(&buf, data.label(i));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n_pos: usize, n_neg: usize) -> Dataset {
        let mut d = Dataset::new(2);
        for i in 0..n_pos {
            d.push(&[i as f64, 1.0], 1);
        }
        for i in 0..n_neg {
            d.push(&[i as f64, -1.0], 0);
        }
        d
    }

    #[test]
    fn push_and_access() {
        let d = toy(3, 2);
        assert_eq!(d.len(), 5);
        assert_eq!(d.n_features(), 2);
        assert_eq!(d.row(0), &[0.0, 1.0]);
        assert_eq!(d.label(0), 1);
        assert_eq!(d.n_positive(), 3);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_width_rejected() {
        let mut d = Dataset::new(2);
        d.push(&[1.0], 0);
    }

    #[test]
    #[should_panic(expected = "labels must be 0 or 1")]
    fn bad_label_rejected() {
        let mut d = Dataset::new(1);
        d.push(&[1.0], 2);
    }

    #[test]
    fn subset_preserves_rows() {
        let d = toy(2, 2);
        let s = d.subset(&[3, 0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.row(0), d.row(3));
        assert_eq!(s.label(1), 1);
    }

    #[test]
    fn stratified_split_preserves_ratio() {
        let d = toy(100, 300);
        let (tr, te) = d.stratified_split(0.25, 1);
        assert_eq!(tr.len() + te.len(), 400);
        let ratio_tr = tr.n_positive() as f64 / tr.len() as f64;
        let ratio_te = te.n_positive() as f64 / te.len() as f64;
        assert!((ratio_tr - 0.25).abs() < 0.02, "{ratio_tr}");
        assert!((ratio_te - 0.25).abs() < 0.02, "{ratio_te}");
    }

    #[test]
    fn kfold_partitions_all_rows_exactly_once() {
        let d = toy(30, 50);
        let folds = d.stratified_kfold(5, 2);
        assert_eq!(folds.len(), 5);
        let total_test: usize = folds.iter().map(|(_, te)| te.len()).sum();
        assert_eq!(total_test, 80);
        for (tr, te) in &folds {
            assert_eq!(tr.len() + te.len(), 80);
            // each fold keeps both classes
            assert!(te.n_positive() >= 5);
            assert!(te.len() - te.n_positive() >= 9);
        }
    }

    #[test]
    fn kfold_is_deterministic_per_seed() {
        let d = toy(20, 20);
        let a = d.stratified_kfold(4, 9);
        let b = d.stratified_kfold(4, 9);
        assert_eq!(a[0].1.labels(), b[0].1.labels());
        let c = d.stratified_kfold(4, 10);
        // different seed very likely shuffles differently
        let same = a
            .iter()
            .zip(&c)
            .all(|((_, x), (_, y))| x.labels() == y.labels() && x.row(0) == y.row(0));
        assert!(!same);
    }

    #[test]
    fn scaler_standardizes_train_data() {
        let mut d = Dataset::new(2);
        d.push(&[1.0, 10.0], 0);
        d.push(&[3.0, 30.0], 1);
        d.push(&[5.0, 50.0], 0);
        let sc = StandardScaler::fit(&d);
        let t = sc.transform(&d);
        for j in 0..2 {
            let mean: f64 = (0..3).map(|i| t.row(i)[j]).sum::<f64>() / 3.0;
            let var: f64 = (0..3).map(|i| (t.row(i)[j] - mean).powi(2)).sum::<f64>() / 3.0;
            assert!(mean.abs() < 1e-12);
            assert!((var - 1.0).abs() < 1e-12);
        }
        // labels ride through unchanged
        assert_eq!(t.labels(), d.labels());
    }

    #[test]
    fn scaler_handles_constant_feature() {
        let mut d = Dataset::new(1);
        d.push(&[7.0], 0);
        d.push(&[7.0], 1);
        let sc = StandardScaler::fit(&d);
        let t = sc.transform(&d);
        assert_eq!(t.row(0)[0], 0.0);
        assert!(t.row(1)[0].is_finite());
    }

    #[test]
    fn from_rows_builder() {
        let d = Dataset::from_rows(&[vec![1.0], vec![2.0]], &[0, 1]);
        assert_eq!(d.len(), 2);
        assert_eq!(d.row(1), &[2.0]);
    }
}
