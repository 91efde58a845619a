//! Weighted CART decision trees.
//!
//! One of the Table III baselines, and (at depth 1) the weak learner of
//! AdaBoost. Splits are exact: candidate thresholds are the midpoints
//! between consecutive distinct sorted feature values, scored by weighted
//! Gini impurity decrease.

use crate::classifier::Classifier;
use crate::data::Dataset;

/// Decision-tree hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct TreeConfig {
    /// Maximum tree depth (a depth-0 tree is a single leaf).
    pub max_depth: usize,
    /// Minimum total example weight required to attempt a split.
    pub min_split_weight: f64,
    /// Minimum impurity decrease required to keep a split. The default of
    /// 0 admits zero-gain splits on impure nodes (necessary for XOR-like
    /// structure where no single split reduces Gini but descendants do).
    pub min_gain: f64,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self { max_depth: 6, min_split_weight: 2.0, min_gain: 0.0 }
    }
}

/// Tree nodes in a flat arena.
#[derive(Debug, Clone)]
enum Node {
    Leaf {
        /// Weighted fraction of positive examples at the leaf.
        prob: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        /// Index of the `< threshold` child.
        left: usize,
        /// Index of the `>= threshold` child.
        right: usize,
    },
}

/// A trained (or yet-untrained) CART classifier.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    config: TreeConfig,
    nodes: Vec<Node>,
}

impl DecisionTree {
    /// Creates an untrained tree.
    pub fn new(config: TreeConfig) -> Self {
        Self { config, nodes: Vec::new() }
    }

    /// Fits with uniform example weights.
    pub fn fit_unweighted(&mut self, data: &Dataset) {
        let w = vec![1.0; data.len()];
        self.fit_weighted(data, &w);
    }

    /// Fits with explicit non-negative example weights (AdaBoost re-weights
    /// between rounds).
    ///
    /// # Panics
    /// Panics if `weights.len() != data.len()` or the dataset is empty.
    pub fn fit_weighted(&mut self, data: &Dataset, weights: &[f64]) {
        assert_eq!(weights.len(), data.len(), "weights/data mismatch");
        assert!(!data.is_empty(), "cannot fit a tree on an empty dataset");
        self.nodes.clear();
        let idx: Vec<usize> = (0..data.len()).collect();
        self.build(data, weights, idx, 0);
    }

    /// Recursively builds the subtree over `idx`; returns the node index.
    fn build(&mut self, data: &Dataset, weights: &[f64], idx: Vec<usize>, depth: usize) -> usize {
        let (w_total, w_pos) = class_weights(data, weights, &idx);
        let prob = if w_total > 0.0 { w_pos / w_total } else { 0.5 };

        let make_leaf = |nodes: &mut Vec<Node>| {
            nodes.push(Node::Leaf { prob });
            nodes.len() - 1
        };

        if depth >= self.config.max_depth
            || w_total < self.config.min_split_weight
            || prob == 0.0
            || prob == 1.0
        {
            return make_leaf(&mut self.nodes);
        }

        let Some(split) = best_split(data, weights, &idx, self.config.min_gain) else {
            return make_leaf(&mut self.nodes);
        };

        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
            idx.into_iter().partition(|&i| data.row(i)[split.feature] < split.threshold);
        if left_idx.is_empty() || right_idx.is_empty() {
            return make_leaf(&mut self.nodes);
        }

        // Reserve our slot before the children claim theirs.
        let me = self.nodes.len();
        self.nodes.push(Node::Leaf { prob });
        let left = self.build(data, weights, left_idx, depth + 1);
        let right = self.build(data, weights, right_idx, depth + 1);
        self.nodes[me] =
            Node::Split { feature: split.feature, threshold: split.threshold, left, right };
        me
    }

    /// Whether the tree has been fit.
    pub fn is_fit(&self) -> bool {
        !self.nodes.is_empty()
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }
}

/// The selected split of [`best_split`].
struct SplitChoice {
    feature: usize,
    threshold: f64,
}

/// Weighted totals (total, positive) over `idx`.
fn class_weights(data: &Dataset, weights: &[f64], idx: &[usize]) -> (f64, f64) {
    let mut t = 0.0;
    let mut p = 0.0;
    for &i in idx {
        t += weights[i];
        if data.label(i) == 1 {
            p += weights[i];
        }
    }
    (t, p)
}

/// Gini impurity of a (total, positive) weighted node.
fn gini(total: f64, pos: f64) -> f64 {
    if total <= 0.0 {
        return 0.0;
    }
    let p = pos / total;
    2.0 * p * (1.0 - p)
}

/// Exhaustive best split by weighted Gini decrease; `None` if no split
/// clears `min_gain`.
fn best_split(
    data: &Dataset,
    weights: &[f64],
    idx: &[usize],
    min_gain: f64,
) -> Option<SplitChoice> {
    let (w_total, w_pos) = class_weights(data, weights, idx);
    let parent = gini(w_total, w_pos);
    let mut best: Option<(f64, SplitChoice)> = None;

    let mut order: Vec<usize> = idx.to_vec();
    for feature in 0..data.n_features() {
        order.sort_by(|&a, &b| {
            data.row(a)[feature]
                .partial_cmp(&data.row(b)[feature])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut wl = 0.0;
        let mut pl = 0.0;
        for k in 0..order.len() - 1 {
            let i = order[k];
            wl += weights[i];
            if data.label(i) == 1 {
                pl += weights[i];
            }
            let v = data.row(i)[feature];
            let v_next = data.row(order[k + 1])[feature];
            if v == v_next {
                continue; // not a boundary between distinct values
            }
            let wr = w_total - wl;
            let pr = w_pos - pl;
            if wl <= 0.0 || wr <= 0.0 {
                continue;
            }
            let child = (wl * gini(wl, pl) + wr * gini(wr, pr)) / w_total;
            let gain = parent - child;
            if gain >= min_gain
                && gain.is_finite()
                && best.as_ref().map_or(true, |(g, _)| gain > *g)
            {
                best = Some((gain, SplitChoice { feature, threshold: (v + v_next) / 2.0 }));
            }
        }
    }
    best.map(|(_, s)| s)
}

impl Classifier for DecisionTree {
    fn fit(&mut self, data: &Dataset) {
        self.fit_unweighted(data);
    }

    fn predict_proba(&self, row: &[f64]) -> f64 {
        assert!(self.is_fit(), "predict before fit");
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                Node::Leaf { prob } => return *prob,
                Node::Split { feature, threshold, left, right } => {
                    node = if row[*feature] < *threshold { *left } else { *right };
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "Decision Tree"
    }

    fn clone_box(&self) -> Box<dyn Classifier> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::predict_all;

    /// Linearly separable on feature 1.
    fn separable() -> Dataset {
        let mut d = Dataset::new(2);
        for i in 0..50 {
            d.push(&[i as f64, 1.0 + (i % 5) as f64], 1);
            d.push(&[i as f64, -1.0 - (i % 5) as f64], 0);
        }
        d
    }

    #[test]
    fn learns_separable_data_perfectly() {
        let d = separable();
        let mut t = DecisionTree::new(TreeConfig::default());
        t.fit(&d);
        let preds = predict_all(&t, &d);
        assert_eq!(preds, d.labels().iter().map(|&l| l == 1).collect::<Vec<_>>());
    }

    #[test]
    fn depth_zero_is_single_prior_leaf() {
        let d = separable();
        let mut t = DecisionTree::new(TreeConfig { max_depth: 0, ..TreeConfig::default() });
        t.fit(&d);
        assert_eq!(t.n_nodes(), 1);
        assert!((t.predict_proba(&[0.0, 5.0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn stump_splits_on_informative_feature() {
        let d = separable();
        let mut t = DecisionTree::new(TreeConfig { max_depth: 1, ..TreeConfig::default() });
        t.fit(&d);
        assert!(t.n_nodes() <= 3);
        assert!(t.predict(&[25.0, 3.0]));
        assert!(!t.predict(&[25.0, -3.0]));
    }

    #[test]
    fn pure_node_stops_early() {
        let mut d = Dataset::new(1);
        for i in 0..10 {
            d.push(&[i as f64], 1);
        }
        let mut t = DecisionTree::new(TreeConfig::default());
        t.fit(&d);
        assert_eq!(t.n_nodes(), 1);
        assert_eq!(t.predict_proba(&[3.0]), 1.0);
    }

    #[test]
    fn constant_features_yield_single_leaf() {
        let mut d = Dataset::new(2);
        d.push(&[1.0, 1.0], 1);
        d.push(&[1.0, 1.0], 0);
        d.push(&[1.0, 1.0], 1);
        let mut t = DecisionTree::new(TreeConfig::default());
        t.fit(&d);
        assert_eq!(t.n_nodes(), 1);
        assert!((t.predict_proba(&[1.0, 1.0]) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn weights_steer_the_split() {
        // Feature 0 separates {0,1} from {2,3}; labels disagree with it on
        // rows 1 and 2, which carry almost no weight. Heavy rows dominate.
        let mut d = Dataset::new(1);
        d.push(&[0.0], 0);
        d.push(&[1.0], 1); // light
        d.push(&[2.0], 0); // light
        d.push(&[3.0], 1);
        let mut t = DecisionTree::new(TreeConfig { max_depth: 1, ..TreeConfig::default() });
        t.fit_weighted(&d, &[10.0, 0.01, 0.01, 10.0]);
        assert!(!t.predict(&[0.4]));
        assert!(t.predict(&[2.9]));
    }

    #[test]
    fn xor_needs_depth_two() {
        let rows = vec![vec![0.0, 0.0], vec![0.0, 1.0], vec![1.0, 0.0], vec![1.0, 1.0]];
        let labels = vec![0, 1, 1, 0];
        let d = Dataset::from_rows(&rows, &labels);
        let mut shallow = DecisionTree::new(TreeConfig {
            max_depth: 1,
            min_split_weight: 1.0,
            ..TreeConfig::default()
        });
        shallow.fit(&d);
        let acc1 =
            predict_all(&shallow, &d).iter().zip(&labels).filter(|(p, &l)| **p == (l == 1)).count();
        let mut deep = DecisionTree::new(TreeConfig {
            max_depth: 3,
            min_split_weight: 1.0,
            ..TreeConfig::default()
        });
        deep.fit(&d);
        let acc3 =
            predict_all(&deep, &d).iter().zip(&labels).filter(|(p, &l)| **p == (l == 1)).count();
        assert!(acc1 < 4, "depth-1 cannot solve XOR");
        assert_eq!(acc3, 4, "depth-3 solves XOR");
    }

    #[test]
    #[should_panic(expected = "predict before fit")]
    fn predict_before_fit_panics() {
        DecisionTree::new(TreeConfig::default()).predict_proba(&[0.0]);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_fit_panics() {
        DecisionTree::new(TreeConfig::default()).fit(&Dataset::new(1));
    }

    #[test]
    fn refit_replaces_model() {
        let d = separable();
        let mut t = DecisionTree::new(TreeConfig::default());
        t.fit(&d);
        let n1 = t.n_nodes();
        t.fit(&d);
        assert_eq!(t.n_nodes(), n1, "refit is idempotent");
    }
}
