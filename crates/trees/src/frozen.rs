//! The frozen-forest scoring layer: one flat, cache-friendly representation
//! shared by every scoring consumer (serve snapshots, the eval harnesses,
//! the CLI).
//!
//! Live trees are built for *growth*: arena nodes are enum-tagged, online
//! leaves drag candidate-test pools of up to `N = 5 000` streaming
//! statistics, and the online ensemble re-derives its mature-tree pool on
//! every call. None of that is needed to *score* — the deployable hot path
//! of Algorithm 2, which touches every arriving SMART snapshot. `freeze()`
//! compiles any tree model ([`crate::DecisionTree`], [`crate::RandomForest`],
//! and the online forest in `orfpred-core`) into a [`FrozenForest`]:
//!
//! * **struct-of-arrays** — parallel `feature: u16` / `threshold: f32` /
//!   `lo: u32` / `hi: u32` / `value: f32` arrays, no enum tags, no per-leaf
//!   pools;
//! * **breadth-first layout** — every tree is emitted level by level, so
//!   while a block of rows sits at depth `d` every node it can touch lies in
//!   one contiguous stretch (the batch kernels in [`crate::level`] rely on
//!   this);
//! * **self-looping leaves** — a leaf's `lo` and `hi` both point at the leaf
//!   itself: the single-row walk stops at the first such node, and the
//!   batch kernels let finished lanes spin there;
//! * **contiguous per-forest storage** — all trees share one node pool,
//!   delimited by `tree_starts`;
//! * **bit-identical scores** — routing is the live walkers' `x[f] <= thr`
//!   (NaN routes right), leaf values are copied verbatim, and tree
//!   contributions are summed in tree order before one division, so
//!   freezing never changes a prediction (enforced by
//!   `tests/frozen_equiv.rs` and `tests/batch_equiv.rs`).
//!
//! Per-feature importances are preserved at freeze time (normalized, as the
//! live `importances()` accessors report them) — the paper's
//! interpretability hook survives compilation.

/// One resolved node of a source tree, handed to [`FrozenBuilder::add_tree`]
/// by a model's `freeze()` implementation.
pub enum SourceNode {
    /// An internal decision node: `x[feature] <= threshold` routes left.
    Split {
        /// Feature index tested.
        feature: u16,
        /// Decision threshold.
        threshold: f32,
        /// Source-arena index of the left child.
        left: u32,
        /// Source-arena index of the right child.
        right: u32,
    },
    /// A leaf with its final score contribution (positive-class fraction).
    Leaf {
        /// The value `score()` returns when a row reaches this leaf.
        value: f32,
    },
}

/// Incremental constructor for a [`FrozenForest`]: each source tree is
/// emitted breadth-first through a node resolver.
pub struct FrozenBuilder {
    forest: FrozenForest,
    /// Breadth-first queue of `(source index, depth)`; entry `i` of the
    /// current tree lands in pool slot `tree base + i`.
    queue: Vec<(u32, u32)>,
}

impl FrozenBuilder {
    /// Start a forest over `n_features` inputs.
    pub fn new(n_features: usize) -> Self {
        assert!(
            n_features > 0 && n_features <= u16::MAX as usize,
            "feature count {n_features} does not fit the packed u16 layout"
        );
        Self {
            forest: FrozenForest {
                feature: Vec::new(),
                threshold: Vec::new(),
                lo: Vec::new(),
                hi: Vec::new(),
                value: Vec::new(),
                tree_starts: vec![0],
                tree_depths: Vec::new(),
                n_features,
                importances: Vec::new(),
            },
            queue: Vec::new(),
        }
    }

    /// Append one tree, walking it breadth-first from `root` via `resolve`
    /// (which maps a source-arena index to its node). Each source node is
    /// resolved once; a split's children take the next two free queue slots,
    /// so both child slots are known when the split is written. Trees are
    /// scored in insertion order, so callers must add them in the same order
    /// the live ensemble sums.
    pub fn add_tree(&mut self, root: u32, resolve: &mut dyn FnMut(u32) -> SourceNode) {
        let f = &mut self.forest;
        let base = f.feature.len();
        // Every stored offset (child slots, `tree_starts`) goes through here,
        // so none can wrap.
        let slot = |i: usize| u32::try_from(base + i).expect("node pool exceeds u32 offsets");
        self.queue.clear();
        self.queue.push((root, 0));
        let mut head = 0;
        while head < self.queue.len() {
            let (src, depth) = self.queue[head];
            match resolve(src) {
                SourceNode::Leaf { value } => {
                    f.feature.push(0);
                    f.threshold.push(0.0);
                    f.lo.push(slot(head));
                    f.hi.push(slot(head));
                    f.value.push(value);
                }
                SourceNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    assert!(
                        (feature as usize) < f.n_features,
                        "split feature {feature} out of range"
                    );
                    f.feature.push(feature);
                    f.threshold.push(threshold);
                    f.lo.push(slot(self.queue.len()));
                    f.hi.push(slot(self.queue.len() + 1));
                    f.value.push(0.0);
                    self.queue.push((left, depth + 1));
                    self.queue.push((right, depth + 1));
                }
            }
            head += 1;
        }
        f.tree_starts.push(slot(head));
        // Breadth-first order visits depths in non-decreasing order, so the
        // last node dequeued is the deepest leaf.
        f.tree_depths.push(self.queue[head - 1].1);
    }

    /// Seal the forest. `importances` are raw per-feature accumulated gains
    /// (summed over however many trees the caller chose); they are
    /// normalized here exactly as the live `importances()` accessors do.
    pub fn finish(self, mut importances: Vec<f64>) -> FrozenForest {
        let mut forest = self.forest;
        assert_eq!(importances.len(), forest.n_features);
        assert!(
            forest.tree_starts.len() > 1,
            "a frozen forest needs at least one tree"
        );
        let total: f64 = importances.iter().sum();
        if total > 0.0 {
            for v in &mut importances {
                *v /= total;
            }
        }
        forest.importances = importances;
        forest
    }
}

/// An immutable, flat forest — the single scoring representation used by
/// serve snapshots, the eval batch paths, and the CLI.
///
/// Node `i` carries `feature[i]` / `threshold[i]` and two absolute child
/// indices: `lo[i]` is taken when `x[feature] <= threshold`, `hi[i]`
/// otherwise. A leaf points both at itself and holds its contribution in
/// `value[i]`. The batch entry points (`score_batch`, `score_rows`,
/// `score_columns` and their `_threaded` forms) are the interleaved kernels
/// in [`crate::level`].
///
/// Build one with `freeze()` on [`crate::DecisionTree`],
/// [`crate::RandomForest`], or the online tree/forest in `orfpred-core`.
/// Only [`FrozenBuilder`] writes the arrays; the unchecked walks here and in
/// [`crate::level`] rely on the invariants it establishes.
#[derive(Clone, Debug)]
pub struct FrozenForest {
    /// Split feature per node (`< n_features`); leaves store 0.
    pub(crate) feature: Vec<u16>,
    /// Split threshold per internal node; leaves store 0.0.
    pub(crate) threshold: Vec<f32>,
    /// Next node when `x[feature] <= threshold`; for leaves, the node itself.
    pub(crate) lo: Vec<u32>,
    /// Next node otherwise; for leaves, the node itself.
    pub(crate) hi: Vec<u32>,
    /// Leaf value at leaf nodes, 0.0 at internal nodes.
    pub(crate) value: Vec<f32>,
    /// Node-pool offsets: tree `t` occupies `tree_starts[t]..tree_starts[t+1]`
    /// in breadth-first order, root first.
    pub(crate) tree_starts: Vec<u32>,
    /// Deepest leaf per tree — the number of advance steps after which every
    /// batch lane is guaranteed to sit on (or spin at) a leaf.
    pub(crate) tree_depths: Vec<u32>,
    n_features: usize,
    /// Normalized per-feature importances captured at freeze time.
    importances: Vec<f64>,
}

impl FrozenForest {
    /// Walk one tree from its root until the first self-looping node.
    ///
    /// # Safety
    ///
    /// Requires `root` to be a `tree_starts[t]` entry with `t < n_trees` and
    /// `x.len() == self.n_features`. In-bounds access then follows from the
    /// builder's invariants: the five node arrays are pushed in lockstep
    /// (equal lengths); `lo`/`hi` hold absolute slots inside the same tree's
    /// pool range (a split's children are queued, and so emitted, in its
    /// tree); and every split asserts `feature < n_features` when written.
    /// Each step moves to a strictly later slot until a leaf, which points at
    /// itself, so the loop terminates.
    // SAFETY: sound to *define* under the documented preconditions — every
    // `get_unchecked` below stays in bounds because the builder pushes the
    // node arrays in lockstep, writes in-pool `lo`/`hi` slots, and asserts
    // `feature < n_features` on splits; the loop returns at a leaf before
    // reading its (unused) feature (see `# Safety` for what callers uphold).
    #[inline]
    unsafe fn score_tree(&self, root: usize, x: &[f32]) -> f32 {
        let mut at = root;
        loop {
            let lo = *self.lo.get_unchecked(at) as usize;
            if lo == at {
                return *self.value.get_unchecked(at);
            }
            let f = *self.feature.get_unchecked(at) as usize;
            // A branch, not a select: on real telemetry the routing is
            // predictable enough that speculating down the predicted child
            // beats waiting for every compare.
            at = if *x.get_unchecked(f) <= *self.threshold.get_unchecked(at) {
                lo
            } else {
                *self.hi.get_unchecked(at) as usize
            };
        }
    }

    /// Ensemble score of one (scaled) row: mean leaf value over the trees,
    /// summed in tree order — bit-identical to the live ensembles.
    pub fn score(&self, x: &[f32]) -> f32 {
        assert_eq!(x.len(), self.n_features, "feature dimension mismatch");
        let mut sum = 0.0f32;
        for &root in &self.tree_starts[..self.n_trees()] {
            // SAFETY: `x` is dimension-checked above and every
            // `tree_starts[t]` for t < n_trees is a tree root by
            // construction.
            sum += unsafe { self.score_tree(root as usize, x) };
        }
        sum / self.n_trees() as f32
    }

    /// Hard prediction at vote threshold `tau`.
    pub fn predict(&self, x: &[f32], tau: f32) -> bool {
        self.score(x) >= tau
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.tree_starts.len() - 1
    }

    /// Total nodes across all trees.
    pub fn n_nodes(&self) -> usize {
        self.feature.len()
    }

    /// Total leaves across all trees (nodes whose child edges self-loop).
    pub fn n_leaves(&self) -> usize {
        self.lo
            .iter()
            .enumerate()
            .filter(|&(i, &lo)| lo as usize == i)
            .count()
    }

    /// Number of input features.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Node count of each tree, in scoring order.
    pub fn tree_node_counts(&self) -> Vec<usize> {
        self.tree_starts
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .collect()
    }

    /// Leaf-depth histogram over the whole forest: `hist[d]` = number of
    /// leaves at depth `d` (root = 0).
    pub fn depth_histogram(&self) -> Vec<u64> {
        let mut hist = vec![0u64; self.max_depth() + 1];
        let mut depth = vec![0u32; self.feature.len()];
        for w in self.tree_starts.windows(2) {
            // Breadth-first layout ⇒ children sit strictly after their
            // parent, so one forward sweep settles every depth before it is
            // read.
            for i in w[0] as usize..w[1] as usize {
                let (lo, hi) = (self.lo[i] as usize, self.hi[i] as usize);
                if lo == i {
                    hist[depth[i] as usize] += 1;
                } else {
                    depth[lo] = depth[i] + 1;
                    depth[hi] = depth[i] + 1;
                }
            }
        }
        hist
    }

    /// Deepest leaf in the forest.
    pub fn max_depth(&self) -> usize {
        self.tree_depths.iter().copied().max().unwrap_or(0) as usize
    }

    /// Heap footprint of the packed arrays, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.feature.len() * std::mem::size_of::<u16>()
            + (self.threshold.len() + self.value.len()) * std::mem::size_of::<f32>()
            + (self.lo.len() + self.hi.len() + self.tree_starts.len() + self.tree_depths.len())
                * std::mem::size_of::<u32>()
            + self.importances.len() * std::mem::size_of::<f64>()
    }

    /// Normalized per-feature importances captured at freeze time (sum to 1
    /// unless the source never split).
    pub fn importances(&self) -> &[f64] {
        &self.importances
    }

    /// The `k` most important features as `(feature, weight)` pairs,
    /// heaviest first; features with zero importance are omitted.
    pub fn top_importances(&self, k: usize) -> Vec<(usize, f64)> {
        let mut ranked: Vec<(usize, f64)> = self
            .importances
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, w)| w > 0.0)
            .collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        ranked.truncate(k);
        ranked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orfpred_util::Matrix;

    /// Hand-build: tree 0 = stump splitting on feature 1 at 0.5
    /// (left leaf 0.25, right leaf 0.75); tree 1 = single leaf 1.0.
    fn two_tree_forest() -> FrozenForest {
        let mut b = FrozenBuilder::new(3);
        b.add_tree(0, &mut |i| match i {
            0 => SourceNode::Split {
                feature: 1,
                threshold: 0.5,
                left: 1,
                right: 2,
            },
            1 => SourceNode::Leaf { value: 0.25 },
            _ => SourceNode::Leaf { value: 0.75 },
        });
        b.add_tree(0, &mut |_| SourceNode::Leaf { value: 1.0 });
        b.finish(vec![0.0, 2.0, 0.0])
    }

    #[test]
    fn hand_built_forest_scores_and_counts() {
        let f = two_tree_forest();
        assert_eq!(f.n_trees(), 2);
        assert_eq!(f.n_nodes(), 4);
        assert_eq!(f.n_leaves(), 3);
        assert_eq!(f.tree_node_counts(), vec![3, 1]);
        assert_eq!(f.score(&[0.0, 0.2, 0.0]), (0.25 + 1.0) / 2.0);
        assert_eq!(f.score(&[0.0, 0.9, 0.0]), (0.75 + 1.0) / 2.0);
        assert!(f.predict(&[0.0, 0.9, 0.0], 0.8));
        assert!(!f.predict(&[0.0, 0.2, 0.0], 0.8));
    }

    #[test]
    fn importances_are_normalized_at_finish() {
        let f = two_tree_forest();
        assert_eq!(f.importances(), &[0.0, 1.0, 0.0]);
        assert_eq!(f.top_importances(5), vec![(1, 1.0)]);
    }

    #[test]
    fn depth_histogram_and_memory_accounting() {
        let f = two_tree_forest();
        // Tree 0: two leaves at depth 1; tree 1: one leaf at depth 0.
        assert_eq!(f.depth_histogram(), vec![1, 2]);
        assert_eq!(f.max_depth(), 1);
        // 4 nodes · (2 + 4 + 4 + 4 + 4) bytes + 3 starts · 4 + 2 depths · 4
        // + 3 importances · 8.
        assert_eq!(f.memory_bytes(), 4 * 18 + 12 + 8 + 24);
    }

    #[test]
    fn batch_scoring_matches_single_row() {
        let f = two_tree_forest();
        let mut m = Matrix::new(3);
        for v in [0.0f32, 0.4, 0.6, 1.0] {
            m.push_row(&[0.0, v, 0.0]);
        }
        let batch = f.score_batch(&m);
        for (i, &s) in batch.iter().enumerate() {
            assert_eq!(s, f.score(m.row(i)), "row {i}");
        }
        let rows: Vec<&[f32]> = (0..m.n_rows()).map(|i| m.row(i)).collect();
        assert_eq!(f.score_rows(&rows), batch);
    }

    #[test]
    fn columnar_scoring_matches_row_scoring() {
        let f = two_tree_forest();
        let rows = [
            [0.0f32, 0.0, 0.7],
            [0.3, 0.4, 0.1],
            [0.9, 0.6, 0.2],
            [0.1, 1.0, 0.5],
        ];
        let cols: Vec<Vec<f32>> = (0..3)
            .map(|c| rows.iter().map(|r| r[c]).collect())
            .collect();
        let col_refs: Vec<&[f32]> = cols.iter().map(|c| c.as_slice()).collect();
        let by_col = f.score_columns(&col_refs);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(by_col[i].to_bits(), f.score(r).to_bits(), "row {i}");
        }
        let empty: Vec<&[f32]> = vec![&[], &[], &[]];
        assert!(f.score_columns(&empty).is_empty());
    }

    /// Chain depth of the two skewed trees below.
    const CHAIN: u32 = 41;

    /// Leaf value where a chain's `k`-th split exits (`k < CHAIN`), and at
    /// its far end (`k == CHAIN`). Distinct per depth and per chain, exact in
    /// `f32`.
    fn exit_value(chain: u32, k: u32) -> f32 {
        (chain * 64 + k + 1) as f32 / 256.0
    }

    /// Three trees over 2 features:
    ///  0. a left chain — split `k` tests `x[0] <= -k` and continues left;
    ///     its right child is a leaf `exit_value(0, k)`;
    ///  1. a right chain — split `k` tests `x[1] <= k` with a leaf
    ///     `exit_value(1, k)` on the left and the chain continuing right;
    ///  2. a single leaf 0.5.
    ///
    /// Source arenas number split `k` as `2k` and its exit leaf as `2k + 1`,
    /// so split `k`'s chain child is `2k + 2` (the far-end leaf is `2·CHAIN`).
    fn skewed_forest() -> FrozenForest {
        let mut b = FrozenBuilder::new(2);
        b.add_tree(0, &mut |i| {
            let k = i / 2;
            if i == 2 * CHAIN {
                SourceNode::Leaf {
                    value: exit_value(0, CHAIN),
                }
            } else if i % 2 == 1 {
                SourceNode::Leaf {
                    value: exit_value(0, k),
                }
            } else {
                SourceNode::Split {
                    feature: 0,
                    threshold: -(k as f32),
                    left: i + 2,
                    right: i + 1,
                }
            }
        });
        b.add_tree(0, &mut |i| {
            let k = i / 2;
            if i == 2 * CHAIN {
                SourceNode::Leaf {
                    value: exit_value(1, CHAIN),
                }
            } else if i % 2 == 1 {
                SourceNode::Leaf {
                    value: exit_value(1, k),
                }
            } else {
                SourceNode::Split {
                    feature: 1,
                    threshold: k as f32,
                    left: i + 1,
                    right: i + 2,
                }
            }
        });
        b.add_tree(0, &mut |_| SourceNode::Leaf { value: 0.5 });
        b.finish(vec![1.0, 1.0])
    }

    /// Where a value stops in the left chain: the first split `k` that
    /// `v <= -k` fails (NaN never satisfies `<=`, so it exits at split 0).
    fn left_chain_exit(v: f32) -> u32 {
        (0..CHAIN).take_while(|&k| v <= -(k as f32)).count() as u32
    }

    /// Where a value stops in the right chain: the first split `k` with
    /// `v <= k`; NaN never does, so it runs the whole chain.
    fn right_chain_exit(v: f32) -> u32 {
        (0..CHAIN).find(|&k| v <= k as f32).unwrap_or(CHAIN)
    }

    #[test]
    fn skewed_and_degenerate_trees_score_bit_exactly_on_every_path() {
        let f = skewed_forest();
        let chain_nodes = 2 * CHAIN as usize + 1;
        assert_eq!(f.n_trees(), 3);
        assert_eq!(f.n_nodes(), 2 * chain_nodes + 1);
        assert_eq!(f.n_leaves(), 2 * (CHAIN as usize + 1) + 1);
        assert_eq!(f.tree_node_counts(), vec![chain_nodes, chain_nodes, 1]);
        assert_eq!(f.max_depth(), CHAIN as usize);
        // Each chain has one exit leaf at depths 1..CHAIN and two at depth
        // CHAIN; the single-leaf tree adds one leaf at depth 0.
        let mut want_hist = vec![2u64; CHAIN as usize + 1];
        want_hist[0] = 1;
        want_hist[CHAIN as usize] = 4;
        assert_eq!(f.depth_histogram(), want_hist);

        // Values that stop at every depth of both chains, plus the hostile
        // ones: NaN routes right (exits the left chain at once, runs the
        // right chain to its end), and the infinities pin the far ends.
        let mut values: Vec<f32> = (0..=CHAIN + 1)
            .flat_map(|k| [k as f32 - 0.5, k as f32, -(k as f32), -(k as f32) + 0.5])
            .collect();
        values.extend([f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0]);
        let mut rows: Vec<[f32; 2]> = Vec::new();
        for &a in &values {
            rows.push([a, a]);
            rows.push([a, -a]);
        }
        rows.push([f32::NAN, f32::INFINITY]);
        rows.push([f32::NEG_INFINITY, f32::NAN]);

        let want: Vec<f32> = rows
            .iter()
            .map(|r| {
                let sum = exit_value(0, left_chain_exit(r[0]))
                    + exit_value(1, right_chain_exit(r[1]))
                    + 0.5;
                sum / 3.0
            })
            .collect();
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        for (i, r) in refs.iter().enumerate() {
            assert_eq!(f.score(r).to_bits(), want[i].to_bits(), "row {i}: {r:?}");
        }
        let cols: Vec<Vec<f32>> = (0..2)
            .map(|c| rows.iter().map(|r| r[c]).collect())
            .collect();
        let col_refs: Vec<&[f32]> = cols.iter().map(|c| c.as_slice()).collect();
        let mut m = Matrix::new(2);
        for r in &rows {
            m.push_row(r);
        }
        let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
        let want = bits(want);
        assert_eq!(bits(f.score_rows(&refs)), want, "score_rows");
        assert_eq!(bits(f.score_columns(&col_refs)), want, "score_columns");
        assert_eq!(bits(f.score_batch(&m)), want, "score_batch");
        for workers in [1, 2] {
            assert_eq!(
                bits(f.score_rows_threaded(&refs, workers)),
                want,
                "score_rows_threaded({workers})"
            );
            assert_eq!(
                bits(f.score_columns_threaded(&col_refs, workers)),
                want,
                "score_columns_threaded({workers})"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one tree")]
    fn empty_forest_is_rejected() {
        let _ = FrozenBuilder::new(2).finish(vec![0.0, 0.0]);
    }
}
