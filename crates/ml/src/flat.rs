//! # Branch-lite flattened forests and column-major matrices
//!
//! The scoring hot loop of [`crate::gbt`] historically walked a
//! `Vec<Node>` enum arena per tree: every step pattern-matched a
//! two-variant enum and chased an index into a heap allocation per tree.
//! This module replaces that with a *branch-lite contiguous node pool*
//! shared by the whole ensemble (DESIGN.md §12), struct-of-arrays:
//!
//! ```text
//! feature[i]    u32   split feature, or LEAF (u32::MAX) for leaves
//! threshold[i]  f64   split threshold (unused for leaves)
//! left[i]       u32   left-child index; right child is left[i] + 1
//! leaf[i]       f64   leaf output (unused for splits)
//! ```
//!
//! Trees are laid out breadth-first with sibling pairs adjacent, so
//! descent needs no `right` array and no branch on the comparison:
//!
//! ```text
//! i = left[i] + (row[feature[i]] < threshold[i] ? 0 : 1)
//! ```
//!
//! The comparison result feeds the index arithmetic directly instead of
//! selecting a code path, and all node metadata for the hot ensemble
//! sits in four dense arrays that stay cache-resident. Predictions are
//! **bit-identical** to the enum walk: the same `<` comparisons route a
//! row to the same leaf (NaN features route right in both, since
//! `NaN < t` is false), and margins accumulate in the same tree order.
//!
//! [`ColMatrix`] is the column-major companion for fitting: split scans
//! read one feature across many rows, which in row-major storage strides
//! by `n_features` — column-major makes those walks contiguous. Values
//! are identical `f64`s, so every comparison and accumulation is
//! unchanged bit-for-bit.
//!
//! This module is deliberately serde-free and `crate`-path-free so it
//! can be compiled and tested standalone against `cats-io` alone.

use cats_io::io2::{Dec, Enc};

/// Sentinel in `feature[]` marking a leaf node.
pub const LEAF: u32 = u32::MAX;

/// Byte-format version of [`FlatForest::to_bytes`].
const FOREST_CODEC_VERSION: u32 = 1;

/// A whole ensemble flattened into one struct-of-arrays node pool.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlatForest {
    feature: Vec<u32>,
    threshold: Vec<f64>,
    left: Vec<u32>,
    leaf: Vec<f64>,
    /// Root node index of each tree, in ensemble order.
    roots: Vec<u32>,
}

impl FlatForest {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.roots.len()
    }

    fn alloc(&mut self) -> u32 {
        let i = self.feature.len() as u32;
        self.feature.push(LEAF);
        self.threshold.push(0.0);
        self.left.push(0);
        self.leaf.push(0.0);
        i
    }

    /// Starts a new tree: allocates its root slot and returns the index.
    pub fn push_root(&mut self) -> u32 {
        let i = self.alloc();
        self.roots.push(i);
        i
    }

    /// Allocates an adjacent (left, right) child pair, returning the
    /// left index; the right child is that plus one.
    pub fn alloc_children(&mut self) -> u32 {
        let l = self.alloc();
        self.alloc();
        l
    }

    /// Fills node `i` as a leaf.
    pub fn set_leaf(&mut self, i: u32, value: f64) {
        let i = i as usize;
        self.feature[i] = LEAF;
        self.leaf[i] = value;
    }

    /// Fills node `i` as a split whose children start at `left`.
    pub fn set_split(&mut self, i: u32, feature: u32, threshold: f64, left: u32) {
        assert_ne!(feature, LEAF, "feature index collides with the leaf sentinel");
        let i = i as usize;
        self.feature[i] = feature;
        self.threshold[i] = threshold;
        self.left[i] = left;
    }

    /// Output of tree `t` for one row — the branch-lite iterative
    /// descent replacing the recursive enum walk.
    #[inline]
    pub fn predict_tree(&self, t: usize, row: &[f64]) -> f64 {
        let mut i = self.roots[t] as usize;
        loop {
            let f = self.feature[i];
            if f == LEAF {
                return self.leaf[i];
            }
            // `!(v < t)` sends NaN right, matching the enum walk's
            // `if v < t { left } else { right }`.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            let go_right = usize::from(!(row[f as usize] < self.threshold[i]));
            i = self.left[i] as usize + go_right;
        }
    }

    /// Margin for one row: `base` plus every tree's output, accumulated
    /// in tree order. Seeding the accumulator with `base` (rather than
    /// adding it afterwards) reproduces the enum walk's exact f64
    /// association `((base + t0) + t1) + …`, so margins are
    /// bit-identical.
    #[inline]
    pub fn margin(&self, base: f64, row: &[f64]) -> f64 {
        let mut m = base;
        for t in 0..self.roots.len() {
            m += self.predict_tree(t, row);
        }
        m
    }

    /// Drops every tree after the first `n_trees` (early stopping's
    /// rewind to the best round). Trees are appended one at a time, so
    /// tree `n_trees` starts the node range being cut.
    pub fn truncate(&mut self, n_trees: usize) {
        if n_trees >= self.roots.len() {
            return;
        }
        let end = self.roots[n_trees] as usize;
        self.roots.truncate(n_trees);
        self.feature.truncate(end);
        self.threshold.truncate(end);
        self.left.truncate(end);
        self.leaf.truncate(end);
    }

    /// Largest feature index referenced by any split, if any split
    /// exists. Callers validate this against their feature count before
    /// trusting a decoded pool.
    pub fn max_feature(&self) -> Option<u32> {
        self.feature.iter().copied().filter(|&f| f != LEAF).max()
    }

    /// Serializes the pool as flat little-endian arrays.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u32(FOREST_CODEC_VERSION)
            .u32s(&self.roots)
            .u32s(&self.feature)
            .f64s(&self.threshold)
            .u32s(&self.left)
            .f64s(&self.leaf);
        e.into_bytes()
    }

    /// Decodes and structurally validates a pool. Beyond the container's
    /// CRC (integrity), this enforces the invariants descent relies on
    /// for memory safety and termination: equal array lengths, in-range
    /// and strictly increasing roots, and strictly forward child links
    /// (`left[i] > i`) that stay inside the node's own tree — forward
    /// links make cycles impossible, so every descent terminates, and
    /// [`FlatForest::truncate`] can cut the pool at any root.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let mut d = Dec::new(bytes);
        let version = d.u32()?;
        if version != FOREST_CODEC_VERSION {
            return Err(format!(
                "forest codec version {version} is newer than supported {FOREST_CODEC_VERSION}"
            ));
        }
        let roots = d.u32s()?;
        let feature = d.u32s()?;
        let threshold = d.f64s()?;
        let left = d.u32s()?;
        let leaf = d.f64s()?;
        if d.remaining() != 0 {
            return Err(format!("{} trailing bytes after forest arrays", d.remaining()));
        }
        let n = feature.len();
        if threshold.len() != n || left.len() != n || leaf.len() != n {
            return Err(format!(
                "forest arrays disagree on node count: feature={n} threshold={} left={} leaf={}",
                threshold.len(),
                left.len(),
                leaf.len()
            ));
        }
        for &r in &roots {
            if r as usize >= n {
                return Err(format!("tree root {r} out of range ({n} nodes)"));
            }
        }
        if let Some(t) = roots.windows(2).position(|w| w[1] <= w[0]) {
            return Err(format!("tree {}: roots are not strictly increasing", t + 1));
        }
        // Tree t owns nodes [roots[t], roots[t+1]); nodes before the
        // first root belong to no tree and are only held to `n`.
        let mut end = roots.first().map_or(n, |&r| r as usize);
        let mut next_root = 0;
        for i in 0..n {
            if next_root < roots.len() && i == roots[next_root] as usize {
                next_root += 1;
                end = roots.get(next_root).map_or(n, |&r| r as usize);
            }
            if feature[i] != LEAF {
                let l = left[i] as usize;
                if l <= i || l + 1 >= end {
                    return Err(format!(
                        "node {i}: children at {l} are not strictly forward links inside its tree"
                    ));
                }
            }
        }
        Ok(Self { feature, threshold, left, leaf, roots })
    }
}

/// Node-level reads for the enum-walk oracle in `gbt`'s tests; scoring
/// and encoding need none of them.
#[cfg(test)]
impl FlatForest {
    /// Number of nodes across all trees.
    pub(crate) fn n_nodes(&self) -> usize {
        self.feature.len()
    }

    /// Root node index of tree `t`.
    pub(crate) fn root(&self, t: usize) -> u32 {
        self.roots[t]
    }

    /// Split feature of node `i` ([`LEAF`] for leaves).
    pub(crate) fn node_feature(&self, i: usize) -> u32 {
        self.feature[i]
    }

    /// Split threshold of node `i` (meaningless for leaves).
    pub(crate) fn node_threshold(&self, i: usize) -> f64 {
        self.threshold[i]
    }

    /// Left-child index of node `i` (right child is this plus one).
    pub(crate) fn node_left(&self, i: usize) -> u32 {
        self.left[i]
    }

    /// Leaf output of node `i` (meaningless for splits).
    pub(crate) fn node_leaf(&self, i: usize) -> f64 {
        self.leaf[i]
    }
}

/// A dense column-major `f64` matrix: column `c` occupies
/// `data[c*n_rows .. (c+1)*n_rows]`, so per-feature walks (split scans)
/// are contiguous loads instead of `n_cols`-strided ones.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColMatrix {
    n_rows: usize,
    n_cols: usize,
    data: Vec<f64>,
}

impl ColMatrix {
    /// Transposes a row-major buffer (`n_rows × n_cols`, rows
    /// contiguous) into column-major storage.
    pub fn from_row_major(x: &[f64], n_cols: usize) -> Self {
        assert!(n_cols > 0, "ColMatrix needs at least one column");
        assert_eq!(x.len() % n_cols, 0, "buffer is not a whole number of rows");
        let n_rows = x.len() / n_cols;
        let mut data = vec![0.0; x.len()];
        for (r, row) in x.chunks_exact(n_cols).enumerate() {
            for (c, &v) in row.iter().enumerate() {
                data[c * n_rows + r] = v;
            }
        }
        Self { n_rows, n_cols, data }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// One column as a contiguous slice.
    pub fn col(&self, c: usize) -> &[f64] {
        &self.data[c * self.n_rows..(c + 1) * self.n_rows]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Reference implementation: the enum arena walk `FlatForest`
    /// replaces, kept here so the flat descent is tested against the
    /// exact semantics it must preserve.
    enum RefNode {
        Leaf(f64),
        Split { feature: usize, threshold: f64, left: usize, right: usize },
    }

    struct RefTree {
        nodes: Vec<RefNode>,
    }

    impl RefTree {
        fn predict(&self, row: &[f64]) -> f64 {
            let mut i = 0;
            loop {
                match &self.nodes[i] {
                    RefNode::Leaf(w) => return *w,
                    RefNode::Split { feature, threshold, left, right } => {
                        i = if row[*feature] < *threshold { *left } else { *right };
                    }
                }
            }
        }
    }

    /// Builds a random reference tree (DFS arena, left = me+1 like the
    /// production TreeBuilder) and its flat equivalent.
    fn random_tree(
        rng: &mut StdRng,
        n_features: usize,
        depth: usize,
        nodes: &mut Vec<RefNode>,
    ) -> usize {
        let me = nodes.len();
        if depth == 0 || rng.random::<f64>() < 0.3 {
            nodes.push(RefNode::Leaf(rng.random::<f64>() * 2.0 - 1.0));
            return me;
        }
        nodes.push(RefNode::Leaf(0.0));
        let feature = rng.random_range(0..n_features);
        let threshold = rng.random::<f64>();
        let left = random_tree(rng, n_features, depth - 1, nodes);
        let right = random_tree(rng, n_features, depth - 1, nodes);
        nodes[me] = RefNode::Split { feature, threshold, left, right };
        me
    }

    fn flatten(trees: &[RefTree]) -> FlatForest {
        let mut flat = FlatForest::new();
        for tree in trees {
            let root = flat.push_root();
            let mut queue = std::collections::VecDeque::from([(0usize, root)]);
            while let Some((src, dst)) = queue.pop_front() {
                match &tree.nodes[src] {
                    RefNode::Leaf(w) => flat.set_leaf(dst, *w),
                    RefNode::Split { feature, threshold, left, right } => {
                        let l = flat.alloc_children();
                        flat.set_split(dst, *feature as u32, *threshold, l);
                        queue.push_back((*left, l));
                        queue.push_back((*right, l + 1));
                    }
                }
            }
        }
        flat
    }

    fn random_forest(seed: u64, n_trees: usize, n_features: usize) -> (Vec<RefTree>, FlatForest) {
        let mut rng = StdRng::seed_from_u64(seed);
        let trees: Vec<RefTree> = (0..n_trees)
            .map(|_| {
                let mut nodes = Vec::new();
                random_tree(&mut rng, n_features, 6, &mut nodes);
                RefTree { nodes }
            })
            .collect();
        let flat = flatten(&trees);
        (trees, flat)
    }

    #[test]
    fn flat_descent_is_bit_identical_to_reference_walk() {
        let (trees, flat) = random_forest(42, 25, 7);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let row: Vec<f64> = (0..7).map(|_| rng.random::<f64>()).collect();
            let reference: f64 = trees.iter().map(|t| t.predict(&row)).sum();
            // Per-tree outputs and the summed margin must match exactly.
            for (t, tree) in trees.iter().enumerate() {
                assert_eq!(
                    flat.predict_tree(t, &row).to_bits(),
                    tree.predict(&row).to_bits(),
                    "tree {t} diverged"
                );
            }
            assert_eq!(flat.margin(0.0, &row).to_bits(), reference.to_bits());
        }
    }

    #[test]
    fn nan_features_route_right_in_both_walks() {
        let (trees, flat) = random_forest(11, 10, 4);
        let row = [f64::NAN, 0.5, f64::NAN, 0.25];
        let reference: f64 = trees.iter().map(|t| t.predict(&row)).sum();
        assert_eq!(flat.margin(0.0, &row).to_bits(), reference.to_bits());
    }

    #[test]
    fn truncate_keeps_a_prefix_of_trees() {
        let (trees, flat) = random_forest(3, 30, 5);
        let mut rng = StdRng::seed_from_u64(99);
        for keep in [0, 1, 17, 30, 31] {
            let mut cut = flat.clone();
            cut.truncate(keep);
            let kept = keep.min(trees.len());
            // Cutting at a root equals flattening the kept prefix alone.
            assert_eq!(cut, flatten(&trees[..kept]), "keep {keep}");
            let row: Vec<f64> = (0..5).map(|_| rng.random::<f64>()).collect();
            let reference = trees[..kept].iter().fold(0.0, |m, t| m + t.predict(&row));
            assert_eq!(cut.margin(0.0, &row).to_bits(), reference.to_bits(), "keep {keep}");
        }
    }

    #[test]
    fn codec_roundtrip_is_byte_identical() {
        let (_, flat) = random_forest(8, 12, 6);
        let bytes = flat.to_bytes();
        let decoded = FlatForest::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, flat);
        // Canonical encoding: decode→encode reproduces the same bytes.
        assert_eq!(decoded.to_bytes(), bytes);
        assert_eq!(decoded.max_feature(), flat.max_feature());
    }

    #[test]
    fn from_bytes_rejects_malformed_pools() {
        // Backward child link (potential cycle) must be rejected.
        let mut evil = FlatForest::new();
        let root = evil.push_root();
        let l = evil.alloc_children();
        evil.set_split(root, 0, 0.5, l);
        evil.set_leaf(l, 1.0);
        evil.set_leaf(l + 1, 2.0);
        evil.left[root as usize] = 0; // self-referential
        assert!(FlatForest::from_bytes(&evil.to_bytes()).is_err());

        // Out-of-range child link.
        evil.left[root as usize] = 40;
        assert!(FlatForest::from_bytes(&evil.to_bytes()).is_err());

        // Out-of-range root.
        let mut evil = FlatForest::new();
        evil.push_root();
        evil.set_leaf(0, 1.0);
        evil.roots[0] = 9;
        assert!(FlatForest::from_bytes(&evil.to_bytes()).is_err());

        // Roots not strictly increasing: a repeated root, then a
        // backwards one.
        let (_, good) = random_forest(5, 3, 4);
        let mut evil = good.clone();
        evil.roots[2] = evil.roots[1];
        let err = FlatForest::from_bytes(&evil.to_bytes()).unwrap_err();
        assert!(err.contains("strictly increasing"), "{err}");
        evil.roots[2] = evil.roots[1] - 1;
        assert!(FlatForest::from_bytes(&evil.to_bytes()).is_err());

        // A forward link that leaves its own tree for the next one.
        let mut evil = FlatForest::new();
        for _ in 0..2 {
            let root = evil.push_root();
            let l = evil.alloc_children();
            evil.set_split(root, 0, 0.5, l);
            evil.set_leaf(l, 1.0);
            evil.set_leaf(l + 1, 2.0);
        }
        assert!(FlatForest::from_bytes(&evil.to_bytes()).is_ok());
        evil.left[0] = evil.roots[1] + 1; // tree 0's root points into tree 1
        let err = FlatForest::from_bytes(&evil.to_bytes()).unwrap_err();
        assert!(err.contains("inside its tree"), "{err}");

        // Array length disagreement.
        let mut lopsided = good.clone();
        lopsided.leaf.pop();
        assert!(FlatForest::from_bytes(&lopsided.to_bytes()).is_err());

        // Future codec version.
        let mut bytes = good.to_bytes();
        bytes[0..4].copy_from_slice(&99u32.to_le_bytes());
        let err = FlatForest::from_bytes(&bytes).unwrap_err();
        assert!(err.contains("newer than supported"), "{err}");

        // Truncation; trailing bytes.
        let bytes = good.to_bytes();
        assert!(FlatForest::from_bytes(&bytes[..bytes.len() - 7]).is_err());
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(FlatForest::from_bytes(&longer).is_err());
    }

    #[test]
    fn col_matrix_transposes_correctly() {
        // 3 rows × 4 cols, row-major.
        let x = [0.0, 1.0, 2.0, 3.0, 10.0, 11.0, 12.0, 13.0, 20.0, 21.0, 22.0, 23.0];
        let m = ColMatrix::from_row_major(&x, 4);
        assert_eq!((m.n_rows(), m.n_cols()), (3, 4));
        for c in 0..4 {
            let col: Vec<f64> = (0..3).map(|r| (r * 10 + c) as f64).collect();
            assert_eq!(m.col(c), col.as_slice());
        }
        assert_eq!(m.col(2), &[2.0, 12.0, 22.0]);
    }
}
