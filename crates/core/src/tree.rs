//! The online decision tree (§3.1).
//!
//! Every unsplit leaf carries `N` random tests of the form
//! `SMART_i > θ` (here: `feature f > threshold t` over scaled inputs in
//! `[0, 1]`) plus streaming class counts. When the leaf has absorbed
//! `MinParentSize` samples and the best test's Gini gain (Eq. 2) reaches
//! `MinGain`, the leaf becomes a decision node: the winning test's side
//! statistics seed the children's class priors (so they predict sensibly
//! from the first moment, following Saffari et al.), and each child gets a
//! fresh random test pool.
//!
//! Routing runs over a flat walk array (`WalkNode`) kept beside the node
//! arena: every node's `feature`, `threshold` and both child indices, with
//! leaves looping back to themselves. A walk of the tree's depth therefore
//! lands on the right leaf from any row without a per-step leaf test, and
//! the forest can advance all of its trees together one level at a time
//! (see `crate::forest`). The array is derived from the arena: it is
//! rebuilt on load and never serialized, so checkpoints keep their shape.

use crate::config::OrfConfig;
use orfpred_trees::gini::{split_gain, ClassCounts};
use orfpred_util::Xoshiro256pp;
use serde::{Deserialize, Serialize, Value};

/// One candidate split test with streaming statistics.
///
/// Only the left-side counts are stored; the right side is the leaf total
/// minus the left — halving the per-test memory, which dominates ORF's
/// footprint at the paper's `N = 5 000`.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct CandidateTest {
    feature: u16,
    threshold: f32,
    left: ClassCounts,
}

/// Arena node.
#[derive(Clone, Debug, Serialize, Deserialize)]
enum Node {
    Leaf {
        counts: ClassCounts,
        depth: u16,
        tests: Vec<CandidateTest>,
        /// Next `counts.total()` at which the split condition is evaluated.
        /// Scanning all `N` tests on *every* update once `|D| ≥ α` would
        /// make stubborn leaves (impure but below `MinGain`) cost O(N) per
        /// sample forever; instead the check backs off geometrically
        /// (≤ 12.5% later than the exact condition — measured as harmless,
        /// and it keeps per-update cost O(tests touched) amortized).
        next_check: f64,
    },
    Split {
        feature: u16,
        threshold: f32,
        left: u32,
        right: u32,
    },
}

/// Routing of one arena node, in the walk array.
///
/// A split node sends `x[feature] <= threshold` to `lo` and everything else
/// (NaN included) to `hi`, exactly as its [`Node::Split`] does. A leaf sends
/// both edges to itself and keeps its current score,
/// `counts.pos_fraction() as f32`, in `threshold`, so the out-of-bag vote
/// and `score` read it without touching the leaf's test pool.
#[derive(Clone, Copy, Debug)]
struct WalkNode {
    feature: u16,
    threshold: f32,
    lo: u32,
    hi: u32,
}

impl WalkNode {
    fn leaf(at: u32, counts: &ClassCounts) -> Self {
        Self {
            feature: 0,
            threshold: counts.pos_fraction() as f32,
            lo: at,
            hi: at,
        }
    }

    /// One routing step from this node. Leaves compare `x[0]` against their
    /// score and go nowhere either way, so the step needs no leaf test.
    #[inline(always)]
    fn step(&self, x: &[f32]) -> u32 {
        if x[usize::from(self.feature)] <= self.threshold {
            self.lo
        } else {
            self.hi
        }
    }
}

/// A single online random tree.
#[derive(Clone, Debug)]
pub struct OnlineTree {
    nodes: Vec<Node>,
    n_features: usize,
    n_splits: usize,
    /// Per-feature accumulated weighted Gini gain — the interpretability
    /// hook the paper highlights ("models are highly interpretable so they
    /// can be used to reveal the real cause of disk failures").
    importances: Vec<f64>,
    /// Routing of `nodes[i]` at index `i` (derived, never serialized).
    walk: Vec<WalkNode>,
    /// Deepest leaf: after this many steps from the root every walk sits
    /// on its leaf (derived, never serialized).
    depth: u32,
}

/// Build the walk array and depth of a node arena. Children always sit
/// after their parent in the arena, which this checks, so a forward sweep
/// settles every depth and a damaged arena is an error, not a bad walk.
fn build_walk(nodes: &[Node], n_features: usize) -> Result<(Vec<WalkNode>, u32), String> {
    if nodes.is_empty() {
        return Err("tree has no nodes".into());
    }
    let mut walk = Vec::with_capacity(nodes.len());
    let mut depth_of = vec![0u32; nodes.len()];
    let mut depth = 0u32;
    for (i, node) in nodes.iter().enumerate() {
        let at = i as u32;
        match node {
            Node::Leaf { counts, .. } => {
                walk.push(WalkNode::leaf(at, counts));
                depth = depth.max(depth_of[i]);
            }
            &Node::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                for child in [left, right] {
                    if child <= at || child as usize >= nodes.len() {
                        return Err(format!("node {i} has child {child} out of order"));
                    }
                    depth_of[child as usize] = depth_of[i] + 1;
                }
                if usize::from(feature) >= n_features {
                    return Err(format!(
                        "node {i} splits on feature {feature} of {n_features}"
                    ));
                }
                walk.push(WalkNode {
                    feature,
                    threshold,
                    lo: left,
                    hi: right,
                });
            }
        }
    }
    Ok((walk, depth))
}

// Manual impls keep the serialized shape the derive gave before the walk
// array existed (same fields, same order) and rebuild the array on load.
impl Serialize for OnlineTree {
    fn emit(&self, sink: &mut dyn serde::Sink) {
        sink.obj(4);
        sink.key("nodes");
        self.nodes.emit(sink);
        sink.key("n_features");
        self.n_features.emit(sink);
        sink.key("n_splits");
        self.n_splits.emit(sink);
        sink.key("importances");
        self.importances.emit(sink);
    }
}

impl Deserialize for OnlineTree {
    fn de(v: &Value) -> Result<Self, serde::Error> {
        let nodes: Vec<Node> = serde::get_field(v, "nodes")?;
        let n_features = serde::get_field(v, "n_features")?;
        let (walk, depth) = build_walk(&nodes, n_features).map_err(serde::Error::msg)?;
        Ok(Self {
            nodes,
            n_features,
            n_splits: serde::get_field(v, "n_splits")?,
            importances: serde::get_field(v, "importances")?,
            walk,
            depth,
        })
    }
}

impl OnlineTree {
    /// Fresh single-leaf tree. `rng` supplies the root's random tests.
    pub fn new(n_features: usize, cfg: &OrfConfig, rng: &mut Xoshiro256pp) -> Self {
        assert!(n_features > 0 && n_features <= u16::MAX as usize);
        let counts = ClassCounts::new();
        let root = Node::Leaf {
            counts,
            depth: 0,
            tests: Self::fresh_tests(n_features, cfg.n_tests, rng),
            next_check: cfg.min_parent_size,
        };
        Self {
            nodes: vec![root],
            n_features,
            n_splits: 0,
            importances: vec![0.0; n_features],
            walk: vec![WalkNode::leaf(0, &counts)],
            depth: 0,
        }
    }

    fn fresh_tests(
        n_features: usize,
        n_tests: usize,
        rng: &mut Xoshiro256pp,
    ) -> Vec<CandidateTest> {
        (0..n_tests)
            .map(|_| CandidateTest {
                feature: rng.index(n_features) as u16,
                // Inputs are min–max scaled, so thresholds live in (0, 1).
                threshold: rng.next_f32(),
                left: ClassCounts::new(),
            })
            .collect()
    }

    /// Number of walk steps after which every row sits on its leaf.
    #[inline]
    pub(crate) fn walk_depth(&self) -> u32 {
        self.depth
    }

    /// One routing step of `x` from node `at`; leaves step to themselves.
    #[inline(always)]
    pub(crate) fn step(&self, at: u32, x: &[f32]) -> u32 {
        self.walk[at as usize].step(x)
    }

    /// Score of leaf `leaf` (a node index a full walk ended on).
    #[inline]
    pub(crate) fn leaf_score(&self, leaf: u32) -> f32 {
        self.walk[leaf as usize].threshold
    }

    /// Index of the leaf that `x` routes to (Algorithm 1's `FindLeaf`).
    pub(crate) fn leaf_of(&self, x: &[f32]) -> u32 {
        let mut at = 0;
        for _ in 0..self.depth {
            at = self.step(at, x);
        }
        at
    }

    /// Absorb one (scaled) sample; splits the reached leaf if Algorithm 1's
    /// condition `|D| ≥ α ∧ ∃s: ΔG ≥ β` is met.
    pub fn update(&mut self, x: &[f32], positive: bool, cfg: &OrfConfig, rng: &mut Xoshiro256pp) {
        self.update_at(self.leaf_of(x), x, positive, cfg, rng);
    }

    /// [`Self::update`] with the leaf `x` routes to already found.
    pub(crate) fn update_at(
        &mut self,
        leaf: u32,
        x: &[f32],
        positive: bool,
        cfg: &OrfConfig,
        rng: &mut Xoshiro256pp,
    ) {
        debug_assert_eq!(x.len(), self.n_features);
        let at = leaf as usize;
        let (should_split, best) = {
            let Node::Leaf {
                counts,
                depth,
                tests,
                next_check,
            } = &mut self.nodes[at]
            else {
                unreachable!("a full walk ends on a leaf")
            };
            counts.add(positive, 1.0);
            self.walk[at] = WalkNode::leaf(leaf, counts);
            for t in tests.iter_mut() {
                if x[t.feature as usize] <= t.threshold {
                    t.left.add(positive, 1.0);
                }
            }
            let total = counts.total();
            if total >= cfg.min_parent_size
                && total >= *next_check
                && (*depth as usize) < cfg.max_depth
            {
                // Find the best test (UpdateNode + split check).
                let mut best: Option<(f64, usize)> = None;
                for (i, t) in tests.iter().enumerate() {
                    let right = ClassCounts {
                        neg: counts.neg - t.left.neg,
                        pos: counts.pos - t.left.pos,
                    };
                    // Degenerate tests (everything on one side) cannot split.
                    if t.left.total() <= 0.0 || right.total() <= 0.0 {
                        continue;
                    }
                    let g = split_gain(&t.left, &right);
                    if g >= cfg.min_gain && best.is_none_or(|(bg, _)| g > bg) {
                        best = Some((g, i));
                    }
                }
                if best.is_none() {
                    // Back off geometrically before re-scanning.
                    *next_check = total * 1.125;
                }
                (best.is_some(), best)
            } else {
                (false, None)
            }
        };

        if should_split {
            let (gain, test_idx) = best.unwrap();
            self.split_leaf(at, test_idx, gain, cfg, rng);
        }
    }

    /// Turn leaf `at` into a decision node using its `test_idx`-th test.
    fn split_leaf(
        &mut self,
        at: usize,
        test_idx: usize,
        gain: f64,
        cfg: &OrfConfig,
        rng: &mut Xoshiro256pp,
    ) {
        let (feature, threshold, left_counts, right_counts, child_depth) = {
            let Node::Leaf {
                counts,
                depth,
                tests,
                ..
            } = &self.nodes[at]
            else {
                unreachable!()
            };
            let t = &tests[test_idx];
            let right = ClassCounts {
                neg: counts.neg - t.left.neg,
                pos: counts.pos - t.left.pos,
            };
            (t.feature, t.threshold, t.left, right, depth + 1)
        };
        // Children inherit prior counts; their first split check happens
        // once they have absorbed α *new* samples on top of the priors.
        let left_id = self.nodes.len() as u32;
        self.nodes.push(Node::Leaf {
            counts: left_counts,
            depth: child_depth,
            tests: Self::fresh_tests(self.n_features, cfg.n_tests, rng),
            next_check: left_counts.total() + cfg.min_parent_size,
        });
        let right_id = self.nodes.len() as u32;
        self.nodes.push(Node::Leaf {
            counts: right_counts,
            depth: child_depth,
            tests: Self::fresh_tests(self.n_features, cfg.n_tests, rng),
            next_check: right_counts.total() + cfg.min_parent_size,
        });
        let node_weight = left_counts.total() + right_counts.total();
        self.nodes[at] = Node::Split {
            feature,
            threshold,
            left: left_id,
            right: right_id,
        };
        self.walk.push(WalkNode::leaf(left_id, &left_counts));
        self.walk.push(WalkNode::leaf(right_id, &right_counts));
        self.walk[at] = WalkNode {
            feature,
            threshold,
            lo: left_id,
            hi: right_id,
        };
        self.depth = self.depth.max(u32::from(child_depth));
        self.n_splits += 1;
        self.importances[usize::from(feature)] += gain * node_weight;
    }

    /// Positive-class probability estimate at the reached leaf.
    ///
    /// An empty leaf (fresh root) returns 0 — "no evidence of failure" is
    /// the conservative answer for an alarm system.
    pub fn score(&self, x: &[f32]) -> f32 {
        self.leaf_score(self.leaf_of(x))
    }

    /// Hard prediction at threshold 0.5 (used for OOBE accounting).
    pub fn predict(&self, x: &[f32]) -> bool {
        self.score(x) >= 0.5
    }

    /// Number of splits performed so far.
    pub fn n_splits(&self) -> usize {
        self.n_splits
    }

    /// Total node count.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of input features.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count()
    }

    /// Maximum leaf depth reached.
    pub fn max_depth(&self) -> usize {
        self.depth as usize
    }

    /// Accumulate this tree's per-feature weighted gains into `acc`.
    pub fn add_importances(&self, acc: &mut [f64]) {
        assert_eq!(acc.len(), self.n_features);
        for (a, &v) in acc.iter_mut().zip(&self.importances) {
            *a += v;
        }
    }

    /// Approximate heap footprint of the test pools, in bytes — the memory
    /// knob the `n_tests` default guards (see [`OrfConfig`]).
    pub fn test_pool_bytes(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| match n {
                Node::Leaf { tests, .. } => tests.len() * std::mem::size_of::<CandidateTest>(),
                Node::Split { .. } => 0,
            })
            .sum()
    }

    /// Re-emit this tree into a frozen-forest builder, dropping the
    /// candidate-test pools: each leaf freezes to the exact value
    /// [`Self::score`] would return there (`pos_fraction() as f32`).
    pub(crate) fn freeze_into(&self, b: &mut orfpred_trees::FrozenBuilder) {
        use orfpred_trees::SourceNode;
        b.add_tree(0, &mut |i| match &self.nodes[i as usize] {
            Node::Leaf { counts, .. } => SourceNode::Leaf {
                value: counts.pos_fraction() as f32,
            },
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => SourceNode::Split {
                feature: *feature,
                threshold: *threshold,
                left: *left,
                right: *right,
            },
        });
    }

    /// Compile this tree into the flat scoring representation (a one-tree
    /// [`orfpred_trees::FrozenForest`]); bit-identical to [`Self::score`].
    pub fn freeze(&self) -> orfpred_trees::FrozenForest {
        let mut b = orfpred_trees::FrozenBuilder::new(self.n_features);
        self.freeze_into(&mut b);
        let mut imp = vec![0.0; self.n_features];
        self.add_importances(&mut imp);
        b.finish(imp)
    }
}

/// Test-only reference: Algorithm 1's `FindLeaf` as a plain descent of the
/// node arena, independent of the walk array.
#[cfg(test)]
impl OnlineTree {
    pub(crate) fn arena_leaf(&self, x: &[f32]) -> usize {
        let mut at = 0usize;
        loop {
            match &self.nodes[at] {
                Node::Leaf { .. } => return at,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    at = if x[*feature as usize] <= *threshold {
                        *left as usize
                    } else {
                        *right as usize
                    };
                }
            }
        }
    }

    pub(crate) fn arena_score(&self, x: &[f32]) -> f32 {
        match &self.nodes[self.arena_leaf(x)] {
            Node::Leaf { counts, .. } => counts.pos_fraction() as f32,
            Node::Split { .. } => unreachable!(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_small() -> OrfConfig {
        OrfConfig {
            n_tests: 40,
            min_parent_size: 30.0,
            min_gain: 0.05,
            ..OrfConfig::default()
        }
    }

    #[test]
    fn new_tree_is_a_single_empty_leaf_scoring_zero() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let t = OnlineTree::new(3, &cfg_small(), &mut rng);
        assert_eq!(t.n_nodes(), 1);
        assert_eq!(t.n_splits(), 0);
        assert_eq!(t.score(&[0.5, 0.5, 0.5]), 0.0);
    }

    #[test]
    fn does_not_split_before_min_parent_size() {
        let cfg = cfg_small();
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let mut t = OnlineTree::new(1, &cfg, &mut rng);
        // 29 perfectly separable samples — still below α = 30.
        for i in 0..29 {
            let v = if i % 2 == 0 { 0.1 } else { 0.9 };
            t.update(&[v], i % 2 == 1, &cfg, &mut rng);
        }
        assert_eq!(t.n_splits(), 0);
    }

    #[test]
    fn splits_separable_stream_and_scores_correctly() {
        let cfg = cfg_small();
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let mut t = OnlineTree::new(1, &cfg, &mut rng);
        let mut data_rng = Xoshiro256pp::seed_from_u64(99);
        for _ in 0..500 {
            let pos = data_rng.bernoulli(0.5);
            let v = if pos {
                data_rng.range_f32(0.6, 1.0)
            } else {
                data_rng.range_f32(0.0, 0.4)
            };
            t.update(&[v], pos, &cfg, &mut rng);
        }
        assert!(t.n_splits() >= 1, "separable stream must split");
        assert!(t.score(&[0.9]) > 0.9, "score {}", t.score(&[0.9]));
        assert!(t.score(&[0.1]) < 0.1, "score {}", t.score(&[0.1]));
    }

    #[test]
    fn pure_stream_never_splits() {
        let cfg = cfg_small();
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let mut t = OnlineTree::new(2, &cfg, &mut rng);
        let mut data_rng = Xoshiro256pp::seed_from_u64(5);
        for _ in 0..500 {
            t.update(
                &[data_rng.next_f32(), data_rng.next_f32()],
                false,
                &cfg,
                &mut rng,
            );
        }
        assert_eq!(t.n_splits(), 0, "no gain exists in a pure stream");
        assert_eq!(t.score(&[0.5, 0.5]), 0.0);
    }

    #[test]
    fn max_depth_bounds_growth() {
        let cfg = OrfConfig {
            max_depth: 1,
            ..cfg_small()
        };
        let mut rng = Xoshiro256pp::seed_from_u64(6);
        let mut t = OnlineTree::new(1, &cfg, &mut rng);
        let mut data_rng = Xoshiro256pp::seed_from_u64(7);
        for _ in 0..2_000 {
            let v = data_rng.next_f32();
            // Checkerboard labels — would grow deep without the cap.
            t.update(&[v], ((v * 4.0) as u32).is_multiple_of(2), &cfg, &mut rng);
        }
        assert!(t.n_splits() <= 1, "depth cap violated: {}", t.n_splits());
    }

    #[test]
    fn children_inherit_split_statistics() {
        let cfg = OrfConfig {
            n_tests: 200,
            min_parent_size: 50.0,
            min_gain: 0.2,
            ..OrfConfig::default()
        };
        let mut rng = Xoshiro256pp::seed_from_u64(8);
        let mut t = OnlineTree::new(1, &cfg, &mut rng);
        let mut data_rng = Xoshiro256pp::seed_from_u64(9);
        let mut updates = 0;
        while t.n_splits() == 0 && updates < 1_000 {
            let pos = data_rng.bernoulli(0.5);
            let v = if pos {
                data_rng.range_f32(0.55, 1.0)
            } else {
                data_rng.range_f32(0.0, 0.45)
            };
            t.update(&[v], pos, &cfg, &mut rng);
            updates += 1;
        }
        assert_eq!(t.n_splits(), 1);
        // Immediately after the split — with no further updates — the
        // children must already predict from the inherited priors.
        assert!(t.score(&[0.99]) > 0.8);
        assert!(t.score(&[0.01]) < 0.2);
    }

    #[test]
    fn update_is_deterministic_in_rng_stream() {
        let cfg = cfg_small();
        let run = || {
            let mut rng = Xoshiro256pp::seed_from_u64(10);
            let mut t = OnlineTree::new(2, &cfg, &mut rng);
            let mut data_rng = Xoshiro256pp::seed_from_u64(11);
            for _ in 0..300 {
                let a = data_rng.next_f32();
                let b = data_rng.next_f32();
                t.update(&[a, b], a > 0.5, &cfg, &mut rng);
            }
            (t.n_splits(), t.score(&[0.7, 0.2]))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn structure_accounting_is_consistent() {
        let cfg = cfg_small();
        let mut rng = Xoshiro256pp::seed_from_u64(21);
        let mut t = OnlineTree::new(1, &cfg, &mut rng);
        let mut data_rng = Xoshiro256pp::seed_from_u64(22);
        for _ in 0..2_000 {
            let v = data_rng.next_f32();
            t.update(&[v], v > 0.5, &cfg, &mut rng);
        }
        assert_eq!(t.n_nodes(), 2 * t.n_splits() + 1, "binary tree arithmetic");
        assert_eq!(t.n_leaves(), t.n_splits() + 1);
        assert!(t.max_depth() >= 1);
        let mut imp = vec![0.0];
        t.add_importances(&mut imp);
        assert!(imp[0] > 0.0, "splits must register importance");
    }

    #[test]
    fn serde_round_trip_rebuilds_the_walk() {
        let cfg = cfg_small();
        let mut rng = Xoshiro256pp::seed_from_u64(31);
        let mut t = OnlineTree::new(2, &cfg, &mut rng);
        let mut data_rng = Xoshiro256pp::seed_from_u64(32);
        for _ in 0..3_000 {
            let (a, b) = (data_rng.next_f32(), data_rng.next_f32());
            t.update(&[a, b], (a > 0.3) != (b > 0.6), &cfg, &mut rng);
        }
        assert!(t.n_splits() >= 2);
        let json = serde_json::to_string(&t).unwrap();
        // The derived walk array is not part of the serialized shape.
        assert!(json.starts_with(r#"{"nodes":["#), "{}", &json[..40]);
        assert!(json.contains(r#""n_features":2,"n_splits":"#));
        assert!(!json.contains("walk") && !json.contains("depth\":{"));
        let back: OnlineTree = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        assert_eq!(back.walk_depth(), t.walk_depth());
        for _ in 0..500 {
            let x = [data_rng.range_f32(-0.5, 1.5), data_rng.range_f32(-0.5, 1.5)];
            assert_eq!(back.leaf_of(&x), t.leaf_of(&x));
            assert_eq!(back.score(&x).to_bits(), t.score(&x).to_bits());
        }
    }

    #[test]
    fn damaged_arena_is_a_load_error() {
        let cfg = cfg_small();
        let mut rng = Xoshiro256pp::seed_from_u64(33);
        let mut t = OnlineTree::new(1, &cfg, &mut rng);
        for i in 0..400 {
            let v = (i % 100) as f32 / 100.0;
            t.update(&[v], v > 0.5, &cfg, &mut rng);
        }
        assert!(t.n_splits() >= 1);
        let json = serde_json::to_string(&t).unwrap();
        // Point the root's left child back at the root: a cycle.
        let bad = json.replacen(r#""left":1,"#, r#""left":0,"#, 1);
        assert_ne!(bad, json);
        let err = serde_json::from_str::<OnlineTree>(&bad).unwrap_err();
        assert!(err.to_string().contains("out of order"), "{err}");
        let empty = r#"{"nodes":[],"n_features":1,"n_splits":0,"importances":[0.0]}"#;
        assert!(serde_json::from_str::<OnlineTree>(empty).is_err());
    }

    #[test]
    fn test_pool_memory_accounting_scales_with_n_tests() {
        let mut rng = Xoshiro256pp::seed_from_u64(12);
        let small = OnlineTree::new(
            4,
            &OrfConfig {
                n_tests: 10,
                ..OrfConfig::default()
            },
            &mut rng,
        );
        let big = OnlineTree::new(
            4,
            &OrfConfig {
                n_tests: 1_000,
                ..OrfConfig::default()
            },
            &mut rng,
        );
        assert_eq!(big.test_pool_bytes(), 100 * small.test_pool_bytes());
    }
}
