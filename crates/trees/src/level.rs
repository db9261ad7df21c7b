//! Breadth-first batch scoring kernels over the [`crate::FrozenForest`]
//! layout, built for *throughput*.
//!
//! Scoring a batch row by row leaves the CPU idle: each traversal step is a
//! serial dependency chain (load node → load feature → compare → compute
//! next index), so a single row exposes almost no instruction-level
//! parallelism and every node fetch is paid once per row. The kernels here
//! restructure the work, not the trees:
//!
//! * **level-order node layout** — each tree's nodes are stored level by
//!   level, so while a block of rows is at depth `d` every node they can
//!   possibly touch sits in one contiguous stretch of the arrays and the
//!   fetches amortize across the block;
//! * **interleaved multi-row traversal** — [`LANES`] rows advance together
//!   one level per step. The per-row dependency chains are independent, so
//!   the out-of-order core overlaps them; the inner compare-and-advance
//!   loop is a fixed-trip-count, branch-free select over flat arrays that
//!   the autovectorizer can chew on;
//! * **self-looping leaves** — a leaf's two child slots both point at the
//!   leaf itself, so rows that finish early simply spin in place until the
//!   block completes the tree's deepest level. No masks, no compaction, no
//!   divergence bookkeeping;
//! * **bit-identical scores** — routing is the same `x[f] <= thr` the
//!   single-row walk and the live walkers use (NaN routes right), leaf
//!   values are read verbatim, and each row's tree contributions are summed
//!   in tree order before one division — so every score is bit-identical to
//!   [`crate::FrozenForest::score`] and therefore to the live models
//!   (`tests/batch_equiv.rs` pins this as a shrinking property).
//!
//! Batches large enough to amortize thread startup fan out over
//! `std::thread::scope` with each worker writing a disjoint slice of the
//! output; per-row results do not depend on the split, so the output is
//! bit-identical for every thread count (including 1).

use crate::frozen::FrozenForest;
use orfpred_util::Matrix;

/// Rows advanced together per tree level. Eight keeps the cursor block and
/// accumulators comfortably in registers while exposing eight independent
/// load-compare-select chains per step.
pub const LANES: usize = 8;

/// Batches below this many rows stay on the calling thread: a thread spawn
/// costs far more than scoring a few thousand rows.
const MIN_ROWS_PER_THREAD: usize = 4096;

impl FrozenForest {
    /// The interleaved block kernel: advance [`LANES`] rows together one
    /// tree level per step, gathering each lane's feature via `fetch`.
    ///
    /// # Safety
    ///
    /// `fetch(lane, f)` must be in-bounds for every `lane < LANES` and
    /// every `f < self.n_features` (the public wrappers check row/column
    /// dimensions before calling). Node indices stay in-bounds because the
    /// builder writes `lo`/`hi` as absolute offsets inside the same tree's
    /// pool range and leaves self-loop, so a cursor never leaves the pool.
    #[inline(always)]
    // SAFETY: sound iff `fetch(lane, f)` is in-bounds for every lane < LANES
    // and f < n_features — the `# Safety` contract above, upheld by the two
    // length-checked wrappers (`score_rows_range`, `score_columns_range`).
    unsafe fn score_block<F: Fn(usize, usize) -> f32>(&self, fetch: F, out: &mut [f32]) {
        let mut acc = [0.0f32; LANES];
        for t in 0..self.n_trees() {
            // SAFETY: t < n_trees, so tree_starts[t] and tree_depths[t]
            // exist; the root offset is a valid pool index by construction.
            let root = *self.tree_starts.get_unchecked(t);
            let depth = *self.tree_depths.get_unchecked(t);
            let mut cur = [root; LANES];
            for _ in 0..depth {
                for (l, c) in cur.iter_mut().enumerate() {
                    let at = *c as usize;
                    // SAFETY: `at` starts at a tree root and only ever moves
                    // through `lo`/`hi`, which the builder fills with
                    // absolute in-pool indices (leaves point at themselves),
                    // so every node-array read below is in bounds. `feature`
                    // is < n_features for splits and 0 for leaves, so the
                    // caller-guaranteed `fetch` contract covers the gather.
                    let f = *self.feature.get_unchecked(at) as usize;
                    let thr = *self.threshold.get_unchecked(at);
                    let lo = *self.lo.get_unchecked(at);
                    let hi = *self.hi.get_unchecked(at);
                    let v = fetch(l, f);
                    *c = if v <= thr { lo } else { hi };
                }
            }
            for l in 0..LANES {
                // SAFETY: cursors are in-pool (argument above).
                acc[l] += *self.value.get_unchecked(cur[l] as usize);
            }
        }
        let n_trees = self.n_trees() as f32;
        for l in 0..LANES {
            out[l] = acc[l] / n_trees;
        }
    }

    /// Score a contiguous run of borrowed rows into `out` (single thread).
    /// Full lane blocks go through the interleaved kernel; the tail takes
    /// the single-row walk. Callers must have length-checked every row.
    fn score_rows_range(&self, rows: &[&[f32]], out: &mut [f32]) {
        debug_assert_eq!(rows.len(), out.len());
        let n = rows.len();
        let full = n - n % LANES;
        for base in (0..full).step_by(LANES) {
            let block: &[&[f32]] = &rows[base..base + LANES];
            // SAFETY: every row's length was asserted equal to n_features
            // by the public entry point, and `f < n_features` per the
            // kernel's contract, so the gather below is in bounds.
            unsafe {
                self.score_block(
                    |l, f| *block.get_unchecked(l).get_unchecked(f),
                    &mut out[base..base + LANES],
                );
            }
        }
        for i in full..n {
            out[i] = self.score(rows[i]);
        }
    }

    /// Score a contiguous run of column-major rows `[base, base+len)` into
    /// `out` (single thread). Callers must have checked that every column
    /// slice is at least `base + len` long.
    fn score_columns_range(&self, cols: &[&[f32]], base: usize, out: &mut [f32]) {
        let n = out.len();
        let full = n - n % LANES;
        for start in (0..full).step_by(LANES) {
            let row0 = base + start;
            // SAFETY: `f < n_features == cols.len()` per the kernel's
            // contract, and `row0 + l < base + n <= cols[f].len()` was
            // checked by the public entry point.
            unsafe {
                self.score_block(
                    |l, f| *cols.get_unchecked(f).get_unchecked(row0 + l),
                    &mut out[start..start + LANES],
                );
            }
        }
        let mut row = vec![0.0f32; self.n_features()];
        for i in full..n {
            for (f, c) in cols.iter().enumerate() {
                row[f] = c[base + i];
            }
            out[i] = self.score(&row);
        }
    }

    /// Batch-score borrowed rows with an explicit worker count. Rows are
    /// split into contiguous chunks, one per worker, each writing its own
    /// disjoint slice of the output — per-row scores are independent, so
    /// the result is bit-identical for every `n_threads` (the bench pins
    /// this to 1 for per-thread numbers and to the core count for totals).
    pub fn score_rows_threaded(&self, rows: &[&[f32]], n_threads: usize) -> Vec<f32> {
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), self.n_features(), "row {i}: feature dimension");
        }
        let mut out = vec![0.0f32; rows.len()];
        let workers = n_threads.max(1).min(rows.len().div_ceil(LANES).max(1));
        if workers == 1 {
            self.score_rows_range(rows, &mut out);
            return out;
        }
        // Chunks are multiples of LANES so only the final worker has a tail.
        let per = rows.len().div_ceil(workers).div_ceil(LANES) * LANES;
        std::thread::scope(|s| {
            for (chunk_rows, chunk_out) in rows.chunks(per).zip(out.chunks_mut(per)) {
                s.spawn(move || self.score_rows_range(chunk_rows, chunk_out));
            }
        });
        out
    }

    /// Batch-score column-major storage with an explicit worker count (see
    /// [`Self::score_rows_threaded`] for the determinism argument).
    pub fn score_columns_threaded(&self, cols: &[&[f32]], n_threads: usize) -> Vec<f32> {
        assert_eq!(cols.len(), self.n_features(), "feature dimension mismatch");
        let n = cols.first().map_or(0, |c| c.len());
        for c in cols {
            assert_eq!(c.len(), n, "ragged feature columns");
        }
        let mut out = vec![0.0f32; n];
        let workers = n_threads.max(1).min(n.div_ceil(LANES).max(1));
        if workers == 1 {
            self.score_columns_range(cols, 0, &mut out);
            return out;
        }
        let per = n.div_ceil(workers).div_ceil(LANES) * LANES;
        std::thread::scope(|s| {
            for (i, chunk_out) in out.chunks_mut(per).enumerate() {
                s.spawn(move || self.score_columns_range(cols, i * per, chunk_out));
            }
        });
        out
    }

    /// Batch prediction over borrowed rows: lane blocks advance level by
    /// level, with large batches fanned over the available cores (small ones
    /// stay on the calling thread). Every row scores bit-identically to
    /// [`FrozenForest::score`].
    pub fn score_rows(&self, rows: &[&[f32]]) -> Vec<f32> {
        self.score_rows_threaded(rows, auto_threads(rows.len()))
    }

    /// Batch prediction over the rows of a [`Matrix`] (same kernel as
    /// [`Self::score_rows`]).
    pub fn score_batch(&self, rows: &Matrix) -> Vec<f32> {
        let refs: Vec<&[f32]> = rows.rows().collect();
        self.score_rows(&refs)
    }

    /// Batch prediction over column-major storage (one slice per feature,
    /// equal lengths) — the telemetry-store replay path, which scores
    /// decoded segments without materializing row vectors. The gather reads
    /// `cols[f][i]` instead of `row[f]`; routing, tree order, and summation
    /// are unchanged, so results are bit-identical to the row paths.
    pub fn score_columns(&self, cols: &[&[f32]]) -> Vec<f32> {
        let n = cols.first().map_or(0, |c| c.len());
        self.score_columns_threaded(cols, auto_threads(n))
    }
}

/// Worker count for an auto-fanned batch: one per `MIN_ROWS_PER_THREAD`
/// rows, capped at the available cores. Thread count never changes scores
/// (disjoint output slices, row-independent work), only wall-clock.
fn auto_threads(n_rows: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    cores.min(n_rows / MIN_ROWS_PER_THREAD).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frozen::{FrozenBuilder, SourceNode};

    /// Tree 0: split on f1 at 0.5 (left leaf 0.25 / right split on f0 at
    /// 0.3 → leaves 0.5, 0.75); tree 1: lone leaf 1.0. Depths differ so
    /// self-looping is exercised.
    fn forest() -> FrozenForest {
        let mut b = FrozenBuilder::new(3);
        b.add_tree(0, &mut |i| match i {
            0 => SourceNode::Split {
                feature: 1,
                threshold: 0.5,
                left: 1,
                right: 2,
            },
            1 => SourceNode::Leaf { value: 0.25 },
            2 => SourceNode::Split {
                feature: 0,
                threshold: 0.3,
                left: 3,
                right: 4,
            },
            3 => SourceNode::Leaf { value: 0.5 },
            _ => SourceNode::Leaf { value: 0.75 },
        });
        b.add_tree(0, &mut |_| SourceNode::Leaf { value: 1.0 });
        b.finish(vec![1.0, 2.0, 0.0])
    }

    #[test]
    fn nan_routes_right_like_the_live_walkers() {
        let f = forest();
        // NaN on the split feature must take the `hi` edge (v <= thr is
        // false), exactly like the live walkers' `else` branch.
        let nan_row = [0.0f32, f32::NAN, 0.0];
        let hi_row = [0.0f32, 0.9, 0.0]; // routes right at the root too
        assert_eq!(f.score(&nan_row).to_bits(), f.score(&hi_row).to_bits());
        let rows: Vec<&[f32]> = vec![&nan_row; LANES];
        for s in f.score_rows(&rows) {
            assert_eq!(s.to_bits(), f.score(&hi_row).to_bits());
        }
    }

    #[test]
    fn block_kernel_matches_single_row_at_every_batch_size() {
        let f = forest();
        // Deterministic pseudo-rows including NaN and out-of-range values.
        let make_row = |i: usize| -> Vec<f32> {
            let v = |k: usize| ((i * 31 + k * 17) % 13) as f32 / 6.0 - 0.4;
            match i % 7 {
                3 => vec![f32::NAN, v(1), v(2)],
                5 => vec![v(0), f32::INFINITY, -1e30],
                _ => vec![v(0), v(1), v(2)],
            }
        };
        for n in [0, 1, LANES - 1, LANES, LANES + 1, 3 * LANES + 5] {
            let rows: Vec<Vec<f32>> = (0..n).map(make_row).collect();
            let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
            let got = f.score_rows(&refs);
            assert_eq!(got.len(), n);
            for (i, r) in refs.iter().enumerate() {
                assert_eq!(got[i].to_bits(), f.score(r).to_bits(), "n={n} row {i}");
            }
            // Column-major path over the same rows.
            let cols: Vec<Vec<f32>> = (0..3)
                .map(|c| rows.iter().map(|r| r[c]).collect())
                .collect();
            let col_refs: Vec<&[f32]> = cols.iter().map(|c| c.as_slice()).collect();
            let by_col = f.score_columns(&col_refs);
            for (i, &s) in by_col.iter().enumerate() {
                assert_eq!(s.to_bits(), got[i].to_bits(), "columns n={n} row {i}");
            }
        }
    }

    #[test]
    fn thread_count_never_changes_scores() {
        let f = forest();
        let rows: Vec<Vec<f32>> = (0..5 * LANES + 3)
            .map(|i| vec![(i % 5) as f32 * 0.2, (i % 7) as f32 * 0.15, 0.0])
            .collect();
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        let serial = f.score_rows_threaded(&refs, 1);
        for threads in [2, 3, 8] {
            assert_eq!(f.score_rows_threaded(&refs, threads), serial);
        }
        let cols: Vec<Vec<f32>> = (0..3)
            .map(|c| rows.iter().map(|r| r[c]).collect())
            .collect();
        let col_refs: Vec<&[f32]> = cols.iter().map(|c| c.as_slice()).collect();
        let col_serial = f.score_columns_threaded(&col_refs, 1);
        assert_eq!(col_serial, serial);
        for threads in [2, 5] {
            assert_eq!(f.score_columns_threaded(&col_refs, threads), col_serial);
        }
    }
}
