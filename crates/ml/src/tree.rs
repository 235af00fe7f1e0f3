//! Random Tree — a single randomized regression tree.
//!
//! Mirrors Weka's `RandomTree`: at every node a random subset of
//! `K = ⌊log₂(d)⌋ + 1` candidate features is considered, the best
//! variance-reducing split among them is taken, and the tree is grown without
//! pruning until nodes are pure or hold one row. Those are Weka's defaults and
//! the tree's only settings: a leaf holds one row at least and a path splits
//! at most 64 times, a bound no knowledge base reaches. It is both one of the
//! paper's six models and the base learner of [`crate::RandomForest`].
//!
//! A tree is grown on row numbers into one `TreeFit` view of the data,
//! never on copies of rows: a node is a slice of row numbers in ascending
//! order (a forest's bag names some more than once) that its split
//! partitions stably in place. The fitted tree is one `Vec` of `Node`s in
//! pre-order, and a prediction a loop over slots.
//!
//! A batch whose rows differ from its first row in one feature at most,
//! which holds no NaN, is a column: a grid's run of node counts is one. The
//! tree answers a column with one walk for all its rows
//! (`RandomTree::descend_column`): the rows are ordered once by the
//! varying feature, a split on another feature sends them all one way, a
//! split on the varying feature cuts them at `partition_point(x <=
//! threshold)`, and a leaf hands its value to the rows that reach it. Each
//! row gets the bits its own descent gives it. Any other batch descends row
//! by row.
//!
//! Each node draws its candidate features from a stream of its own, keyed
//! by its path: the root's key is the tree's seed and a child's is
//! `split_seed(key, 1)` on the `<=` side and `split_seed(key, 2)` on the
//! `>` side. A subtree is then a function of its rows in order, its key and
//! its depth alone, which is what lets a forest regrow a tree on a bag that
//! gained rows by copying every subtree whose rows it did not gain
//! (`RandomTree::grow`).

use crate::batch::{check_out_len, Column, FeatureMatrix, PredictScratch};
use crate::dataset::Dataset;
use crate::regressor::{IncrementalRegressor, Regressor};
use crate::MlError;
use disar_math::rng::{split_seed, stream_rng};
use std::hint::select_unpredictable;
use std::ops::Range;

/// `Node::feature` of a leaf.
const LEAF: u32 = u32::MAX;

/// A node this many splits below the root is a leaf.
const MAX_DEPTH: usize = 64;

/// Weka's `K = ⌊log₂ d⌋ + 1` candidates per split, at most `d` (none without
/// columns, where every node is a leaf).
fn features_per_split(dim: usize) -> usize {
    ((dim as f64).log2().floor() as usize + 1).min(dim)
}

/// A node of at most this many rows orders its keys by placement.
const PLACE_MAX: usize = 16;
/// A larger node counting-sorts its keys when its ranks span at most this
/// many values per row.
const SPAN_PER_ROW: usize = 4;

/// One slot of a tree's arena, in pre-order: the root is slot 0, a split's
/// `<=` child is the slot after it and its `>` child the slot after the `<=`
/// subtree. A fitted tree is one exact-size allocation, a clone is one copy,
/// and a subtree is a run of slots that ends at its rightmost leaf.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Node {
    /// The column a split tests, or [`LEAF`].
    feature: u32,
    /// A split's `x[feature] > value` child (0 in a leaf).
    right: u32,
    /// A split's threshold; a leaf's prediction.
    value: f64,
    /// A split's variance reduction, SSE(parent) − SSE(children) floored at
    /// 0, which its feature's importance sums (0 in a leaf).
    gain: f64,
}

/// A node's counterpart in the arena of the tree being regrown: `slot` roots
/// a subtree grown on the rows of this node below `from`, in this order.
#[derive(Clone, Copy)]
struct Hint<'h> {
    old: &'h [Node],
    slot: usize,
    from: usize,
}

/// What one fit shares among the nodes of a tree and the trees of a forest:
/// the training data as a split search reads it, and the buffers a node
/// borrows while it searches.
pub(crate) struct TreeFit<'a> {
    ys: &'a [f64],
    n: usize,
    /// `x[f * n + i]` is feature `f` of row `i`; `rank[f * n + i]` is its
    /// dense rank among the column's distinct values, which are ascending in
    /// `distinct[starts[f]..starts[f + 1]]`.
    x: Vec<f64>,
    rank: Vec<u32>,
    distinct: Vec<f64>,
    starts: Vec<usize>,
    /// `rank << 32 | position` of a node's rows under one candidate feature,
    /// the same keys in ascending order, and the counting sort's buckets:
    /// sized once, for the largest sample a tree of the fit grows on.
    keys: Vec<u64>,
    ordered: Vec<u64>,
    counts: Vec<u32>,
    /// The right-hand rows while a node's slice is partitioned.
    spill: Vec<usize>,
    /// The shuffled features; a node's candidates are the first `k`.
    feats: Vec<usize>,
    /// The arena of the tree being grown, which takes an exact-size copy.
    nodes: Vec<Node>,
}

impl<'a> TreeFit<'a> {
    /// The view of `data` for trees grown on samples of at most `cap` rows
    /// (a bag may hold more rows than `data`).
    pub(crate) fn new(data: &'a Dataset, cap: usize) -> Self {
        let (n, dim) = (data.len(), data.dim());
        // Ranks, positions in a node and arena slots (< 2·cap) are held as u32.
        assert!(n.max(cap) < (LEAF / 2) as usize, "too many rows for a tree");
        let mut fit = TreeFit {
            ys: data.targets(),
            n,
            x: Vec::with_capacity(n * dim),
            rank: vec![0; n * dim],
            distinct: Vec::new(),
            starts: vec![0],
            keys: vec![0; cap],
            ordered: vec![0; cap],
            counts: vec![0; SPAN_PER_ROW * cap],
            spill: vec![0; cap],
            feats: Vec::with_capacity(dim),
            // A leaf holds a row at least, so a tree has fewer than 2·cap nodes.
            nodes: Vec::with_capacity(2 * cap),
        };
        let mut order: Vec<u32> = Vec::with_capacity(n);
        for f in 0..dim {
            fit.x.extend(data.rows().iter().map(|row| row[f]));
            let (col, rank) = (&fit.x[f * n..], &mut fit.rank[f * n..(f + 1) * n]);
            order.clear();
            order.extend(0..n as u32);
            order.sort_unstable_by(|&a, &b| col[a as usize].total_cmp(&col[b as usize]));
            let first = fit.distinct.len();
            for &i in &order {
                let v = col[i as usize];
                // `>` and not `total_cmp`: -0.0 and 0.0 share a rank.
                if fit.distinct[first..].last().is_none_or(|&top| v > top) {
                    fit.distinct.push(v);
                }
                rank[i as usize] = (fit.distinct.len() - first - 1) as u32;
            }
            fit.starts.push(fit.distinct.len());
        }
        fit
    }
}

/// A node's keys, which are distinct and whose ranks lie in `lo..=hi`, in the
/// ascending order `sort_unstable` gives them. At a few rows per node a sort
/// pays for its mispredicted comparisons, so a small node places each key at
/// its count of smaller keys and a larger one with dense ranks takes a
/// counting sort by rank (buckets in rank order, a bucket's keys in node
/// order), neither of which branches on a key. Any other sorts in place.
fn order_keys<'k>(
    keys: &'k mut [u64],
    (lo, hi): (u32, u32),
    out: &'k mut [u64],
    counts: &mut [u32],
) -> &'k [u64] {
    let (n, span) = (keys.len(), (hi - lo) as usize + 1);
    let bucket = |key: u64| ((key >> 32) as u32 - lo) as usize;
    if n <= PLACE_MAX {
        for &key in &*keys {
            out[keys.iter().map(|&k| usize::from(k < key)).sum::<usize>()] = key;
        }
    } else if span <= SPAN_PER_ROW * n {
        let counts = &mut counts[..span];
        counts.fill(0);
        for &key in &*keys {
            counts[bucket(key)] += 1;
        }
        let mut start = 0;
        for c in counts.iter_mut() {
            (*c, start) = (start, start + *c);
        }
        for &key in &*keys {
            let at = &mut counts[bucket(key)];
            out[*at as usize] = key;
            *at += 1;
        }
    } else {
        keys.sort_unstable();
        return keys;
    }
    out
}

/// A randomized regression tree (Weka `RandomTree` analogue).
///
/// # Example
///
/// ```
/// use disar_ml::{Dataset, RandomTree, Regressor};
///
/// let mut data = Dataset::new(vec!["x".into()]);
/// for i in 0..40 {
///     data.push(vec![i as f64], if i < 20 { 1.0 } else { 9.0 }).unwrap();
/// }
/// let mut tree = RandomTree::new(1);
/// tree.fit(&data).unwrap();
/// assert!((tree.predict(&[5.0]).unwrap() - 1.0).abs() < 1e-9);
/// assert!((tree.predict(&[30.0]).unwrap() - 9.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct RandomTree {
    seed: u64,
    dim: usize,
    nodes: Vec<Node>,
    importances: Vec<f64>,
    /// Rows [`Regressor::fit`] or [`IncrementalRegressor::partial_fit`]
    /// last grew the tree on (0 before fitting, and in a forest's trees).
    fitted_len: usize,
}

impl RandomTree {
    /// An unfitted tree whose node streams are keyed by `seed`.
    pub fn new(seed: u64) -> Self {
        RandomTree {
            seed,
            dim: 0,
            nodes: Vec::new(),
            importances: Vec::new(),
            fitted_len: 0,
        }
    }

    /// Depth of the fitted tree (`0` before fitting).
    pub fn depth(&self) -> usize {
        // Children sit after their parent: going backwards, both are done.
        let mut depth = vec![1; self.nodes.len()];
        for (slot, node) in self.nodes.iter().enumerate().rev() {
            if node.feature != LEAF {
                depth[slot] = 1 + depth[slot + 1].max(depth[node.right as usize]);
            }
        }
        depth.first().copied().unwrap_or(0)
    }

    /// Number of leaves of the fitted tree (`0` before fitting).
    pub fn leaf_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.feature == LEAF).count()
    }

    /// Variance-reduction feature importances, normalized to sum to 1
    /// (empty before fitting; all-zero when the target is constant).
    ///
    /// `importances()[j]` is the share of total squared-error reduction
    /// attributable to splits on feature `j` — the measure behind the
    /// paper's claim that its characteristic parameters "induce the
    /// highest variability in the execution time".
    pub fn importances(&self) -> &[f64] {
        &self.importances
    }

    /// Fits the tree to the rows `idx` of `fit`, which ascend (a forest's
    /// bag names some rows more than once), reordering `idx` as it goes.
    ///
    /// `from > 0` says the tree's current arena was grown on the rows of
    /// `idx` below `from`, in the same order (a bag that gained rows). The
    /// growth is then the same, slot for slot, and cheaper: a node whose rows
    /// all lie below `from` copies its counterpart's subtree, and a node that
    /// re-searches and splits as its counterpart did hands the counterpart's
    /// children down to its own.
    pub(crate) fn grow(&mut self, fit: &mut TreeFit<'_>, idx: &mut [usize], from: usize) {
        debug_assert!(idx.windows(2).all(|w| w[0] <= w[1]), "rows out of order");
        let old = std::mem::take(&mut self.nodes);
        let hint = (from > 0).then_some(Hint {
            old: &old,
            slot: 0,
            from,
        });
        self.dim = fit.starts.len() - 1;
        self.importances.clear();
        self.importances.resize(self.dim, 0.0);
        fit.nodes.clear();
        self.grow_node(fit, idx, self.seed, 0, hint);
        // Exact size: a forest keeps a hundred of these for as long as it lives.
        self.nodes = fit.nodes.to_vec();
        // Normalize to proportions (all-zero stays all-zero: pure data).
        let total: f64 = self.importances.iter().sum();
        if total > 0.0 {
            for v in &mut self.importances {
                *v /= total;
            }
        }
    }

    /// Grows the subtree keyed `key` over the rows `idx` and returns its slot.
    fn grow_node(
        &mut self,
        fit: &mut TreeFit<'_>,
        idx: &mut [usize],
        key: u64,
        depth: usize,
        hint: Option<Hint<'_>>,
    ) -> u32 {
        let (n, ys) = (idx.len(), fit.ys);
        let slot = fit.nodes.len();
        // The rows ascend: the last is the largest.
        if let Some(h) = hint.filter(|h| idx[n - 1] < h.from) {
            self.copy_subtree(fit, h);
            return slot as u32;
        }
        let mean = idx.iter().map(|&i| ys[i]).sum::<f64>() / n as f64;
        fit.nodes.push(Node {
            feature: LEAF,
            right: 0,
            value: mean,
            gain: 0.0,
        });
        if depth >= MAX_DEPTH || n < 2 {
            return slot as u32;
        }
        // Pure node?
        let first = ys[idx[0]];
        if idx.iter().all(|&i| (ys[i] - first).abs() < 1e-12) {
            return slot as u32;
        }

        fit.feats.clear();
        fit.feats.extend(0..self.dim);
        stream_rng(key, 0x7EE5).shuffle(&mut fit.feats);

        let total_sum: f64 = idx.iter().map(|&i| ys[i]).sum();
        let total_sq: f64 = idx.iter().map(|&i| ys[i] * ys[i]).sum();

        let mut best: Option<(f64, usize, f64)> = None; // (score, feature, threshold)
        for &f in &fit.feats[..features_per_split(self.dim)] {
            let rank = &fit.rank[f * fit.n..];
            let distinct = &fit.distinct[fit.starts[f]..fit.starts[f + 1]];
            if distinct.len() == 1 {
                continue; // the column never varies: no threshold anywhere
            }
            // Ranks order as values do and the position breaks ties in node
            // order: ascending, the keys are the rows as a stable sort by
            // value leaves them.
            let (keys, mut lo, mut hi) = (&mut fit.keys[..n], u32::MAX, 0);
            for ((key, pos), &i) in keys.iter_mut().zip(0..).zip(&*idx) {
                (lo, hi) = (lo.min(rank[i]), hi.max(rank[i]));
                *key = u64::from(rank[i]) << 32 | pos;
            }
            if lo == hi {
                continue; // one value in the node: no threshold here
            }
            let keys = order_keys(keys, (lo, hi), &mut fit.ordered[..n], &mut fit.counts);
            // Scan split positions; candidate threshold between consecutive
            // distinct feature values. Every position leaves a row on either
            // side, which is all a leaf needs.
            let mut lsum = 0.0;
            let mut lsq = 0.0;
            for (pos, pair) in keys.windows(2).enumerate() {
                let y = ys[idx[pair[0] as u32 as usize]];
                lsum += y;
                lsq += y * y;
                let nl = (pos + 1) as f64;
                let nr = (n - pos - 1) as f64;
                let (r, rnext) = ((pair[0] >> 32) as usize, (pair[1] >> 32) as usize);
                if rnext == r {
                    continue; // no valid threshold between equal values
                }
                let rsum = total_sum - lsum;
                let rsq = total_sq - lsq;
                // Sum of squared errors left + right (lower is better).
                let sse = (lsq - lsum * lsum / nl) + (rsq - rsum * rsum / nr);
                if best.is_none_or(|(b, _, _)| sse < b) {
                    best = Some((sse, f, 0.5 * (distinct[r] + distinct[rnext])));
                }
            }
        }

        let Some((best_sse, feature, threshold)) = best else {
            return slot as u32;
        };
        // Variance-reduction importance: SSE(parent) − SSE(children).
        let parent_sse = total_sq - total_sum * total_sum / n as f64;
        let gain = (parent_sse - best_sse).max(0.0);
        self.importances[feature] += gain;

        // Partition idx stably in place: the left rows close up, the right
        // rows wait in the spill and then follow them. Each row is written
        // to both and the comparison advances one count, not a branch.
        let col = &fit.x[feature * fit.n..];
        let (mut n_left, mut n_right) = (0, 0);
        for p in 0..n {
            let i = idx[p];
            let goes_left = usize::from(col[i] <= threshold);
            (idx[n_left], fit.spill[n_right]) = (i, i);
            n_left += goes_left;
            n_right += 1 - goes_left;
        }
        let (left, right) = idx.split_at_mut(n_left);
        right.copy_from_slice(&fit.spill[..n_right]);
        debug_assert!(!left.is_empty() && !right.is_empty());
        // A counterpart that split alike sent its rows below `from` the same
        // ways, so its children are these children's counterparts.
        let alike = hint.filter(|h| {
            let at = h.old[h.slot];
            at.feature == feature as u32 && at.value.to_bits() == threshold.to_bits()
        });
        let left_hint = alike.map(|h| Hint {
            slot: h.slot + 1,
            ..h
        });
        let right_hint = alike.map(|h| Hint {
            slot: h.old[h.slot].right as usize,
            ..h
        });
        self.grow_node(fit, left, split_seed(key, 1), depth + 1, left_hint);
        let right = self.grow_node(fit, right, split_seed(key, 2), depth + 1, right_hint);
        fit.nodes[slot] = Node {
            feature: feature as u32,
            right,
            value: threshold,
            gain,
        };
        slot as u32
    }

    /// Appends the subtree of `h`, which was grown on the same rows with the
    /// same key at the same depth and so is the one a growth would give: its
    /// slots move by the distance between the two arenas' positions, and its
    /// gains add to the importances in pre-order, as its growth added them.
    fn copy_subtree(&mut self, fit: &mut TreeFit<'_>, h: Hint<'_>) {
        let mut last = h.slot;
        while h.old[last].feature != LEAF {
            last = h.old[last].right as usize;
        }
        let shift = (fit.nodes.len() as u32).wrapping_sub(h.slot as u32);
        for &node in &h.old[h.slot..=last] {
            if node.feature == LEAF {
                fit.nodes.push(node);
            } else {
                self.importances[node.feature as usize] += node.gain;
                let right = node.right.wrapping_add(shift);
                fit.nodes.push(Node { right, ..node });
            }
        }
    }

    /// What a query must pass before [`RandomTree::descend`]: a fitted tree
    /// and rows of the width it was fitted on.
    pub(crate) fn check_query(&self, dim: usize) -> Result<(), MlError> {
        if self.nodes.is_empty() {
            return Err(MlError::NotFitted);
        }
        if dim != self.dim {
            return Err(MlError::FeatureDimensionMismatch {
                expected: self.dim,
                got: dim,
            });
        }
        Ok(())
    }

    /// The leaf value `x` falls to; [`RandomTree::check_query`] comes first.
    pub(crate) fn descend(&self, x: &[f64]) -> f64 {
        let (mut slot, mut node) = (0, &self.nodes[0]);
        while node.feature != LEAF {
            // One indexing, fed by a select: a forest's hundred trees give
            // a branch here little to predict.
            let go_left = x[node.feature as usize] <= node.value;
            slot = select_unpredictable(go_left, slot + 1, node.right as usize);
            node = &self.nodes[slot];
        }
        node.value
    }

    /// The tree walked once for a whole column (`Column::fill`), not once per
    /// row: a split on another feature sends every row one way on one
    /// comparison of `first`, the batch's first row; a split on the varying
    /// feature cuts the rows where the column's keys pass its threshold; and
    /// each leaf hands its value to `leaf` with the positions in
    /// `col.order` of the rows that reach it. Every row reaches the leaf
    /// [`RandomTree::descend`] gives it, because the keys ascend, so
    /// `x <= threshold` holds on a prefix of them.
    pub(crate) fn descend_column(
        &self,
        first: &[f64],
        col: &mut Column,
        mut leaf: impl FnMut(Range<usize>, f64),
    ) {
        let Column {
            feature,
            order,
            keys,
            stack,
        } = col;
        stack.push((0, 0, order.len()));
        while let Some((mut slot, lo, mut hi)) = stack.pop() {
            let mut node = &self.nodes[slot];
            while node.feature != LEAF {
                let (f, right) = (node.feature as usize, node.right as usize);
                if *feature == Some(f) {
                    let cut = lo + keys[lo..hi].partition_point(|&x| x <= node.value);
                    if cut == lo {
                        slot = right;
                    } else {
                        if cut < hi {
                            stack.push((right, cut, hi));
                            hi = cut;
                        }
                        slot += 1;
                    }
                } else {
                    slot = select_unpredictable(first[f] <= node.value, slot + 1, right);
                }
                node = &self.nodes[slot];
            }
            leaf(lo..hi, node.value);
        }
    }

    /// Grows the tree on every row of `data`, whose first `from` rows its
    /// arena was grown on.
    fn grow_on_all(&mut self, data: &Dataset, from: usize) {
        let mut idx: Vec<usize> = (0..data.len()).collect();
        self.grow(&mut TreeFit::new(data, data.len()), &mut idx, from);
        self.fitted_len = data.len();
    }

    /// The arena as bits, to hold two trees equal slot for slot.
    #[cfg(test)]
    pub(crate) fn arena_bits(&self) -> Vec<(u32, u32, u64, u64)> {
        let bits = |n: &Node| (n.feature, n.right, n.value.to_bits(), n.gain.to_bits());
        self.nodes.iter().map(bits).collect()
    }
}

impl Regressor for RandomTree {
    fn fit(&mut self, data: &Dataset) -> Result<(), MlError> {
        if data.is_empty() {
            return Err(MlError::EmptyTrainingSet);
        }
        self.grow_on_all(data, 0);
        Ok(())
    }

    /// The fitted and dimension checks once per batch, then one walk for a
    /// column (`RandomTree::descend_column`) or each row's descent from the
    /// root.
    fn predict_batch(
        &self,
        xs: &FeatureMatrix,
        out: &mut [f64],
        scratch: &mut PredictScratch,
    ) -> Result<(), MlError> {
        check_out_len(xs.len(), out)?;
        if xs.is_empty() {
            return Ok(());
        }
        self.check_query(xs.dim())?;
        let PredictScratch { column, sums, .. } = scratch;
        if column.fill(xs) {
            sums.resize(xs.len(), 0.0);
            self.descend_column(xs.row(0), column, |at, y| sums[at].fill(y));
            for (&i, &y) in column.order.iter().zip(&*sums) {
                out[i] = y;
            }
            return Ok(());
        }
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.descend(xs.row(i));
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "RT"
    }

    fn clone_box(&self) -> Box<dyn Regressor> {
        Box::new(self.clone())
    }

    fn as_incremental(&mut self) -> Option<&mut dyn IncrementalRegressor> {
        Some(self)
    }
}

/// A tree fitted on the first `from` rows grew on the rows `0..from` in
/// order, which are the rows below `from` of `0..n`: its regrowth on all
/// `n` rows is the cold fit's, slot for slot (`RandomTree::grow`), as a
/// forest's tree is on a bag that gained rows.
impl IncrementalRegressor for RandomTree {
    fn partial_fit(&mut self, data: &Dataset, from: usize) -> Result<(), MlError> {
        if self.nodes.is_empty() && from == 0 {
            return self.fit(data);
        }
        if from != self.fitted_len || from > data.len() {
            return Err(MlError::IncrementalMismatch {
                fitted: self.fitted_len,
                from,
            });
        }
        self.check_query(data.dim())?;
        if from < data.len() {
            self.grow_on_all(data, from);
        }
        Ok(())
    }

    fn fitted_len(&self) -> usize {
        self.fitted_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::tests::bagged;

    fn step_data() -> Dataset {
        let mut d = Dataset::new(vec!["x".into(), "noise".into()]);
        for i in 0..100 {
            let x = i as f64;
            let y = if x < 50.0 { 10.0 } else { 100.0 };
            d.push(vec![x, (i % 7) as f64], y).unwrap();
        }
        d
    }

    #[test]
    fn learns_step_function_exactly() {
        let mut t = RandomTree::new(3);
        t.fit(&step_data()).unwrap();
        assert_eq!(t.predict(&[10.0, 0.0]).unwrap(), 10.0);
        assert_eq!(t.predict(&[80.0, 0.0]).unwrap(), 100.0);
    }

    #[test]
    fn interpolates_training_points_with_min_leaf_one() {
        // With one-row leaves and no depth cap, a regression tree fits the
        // training targets exactly when feature values are distinct.
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..30 {
            d.push(vec![i as f64], (i as f64).sin() * 10.0).unwrap();
        }
        let mut t = RandomTree::new(1);
        t.fit(&d).unwrap();
        for i in 0..30 {
            let (x, y) = d.get(i);
            assert!((t.predict(x).unwrap() - y).abs() < 1e-9);
        }
    }

    #[test]
    fn constant_target_single_leaf() {
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..10 {
            d.push(vec![i as f64], 3.0).unwrap();
        }
        let mut t = RandomTree::new(0);
        t.fit(&d).unwrap();
        assert_eq!(t.leaf_count(), 1);
        assert_eq!(t.predict(&[100.0]).unwrap(), 3.0);
    }

    #[test]
    fn duplicate_feature_values_no_invalid_split() {
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..20 {
            d.push(vec![(i % 2) as f64], i as f64).unwrap();
        }
        let mut t = RandomTree::new(2);
        t.fit(&d).unwrap();
        // Only one valid threshold (0.5); both sides must predict their mean.
        let y0 = t.predict(&[0.0]).unwrap();
        let y1 = t.predict(&[1.0]).unwrap();
        assert!((y0 - 9.0).abs() < 1e-9, "even-index mean, got {y0}");
        assert!((y1 - 10.0).abs() < 1e-9, "odd-index mean, got {y1}");
    }

    #[test]
    fn deterministic_per_seed() {
        let d = step_data();
        let mut a = RandomTree::new(11);
        let mut b = RandomTree::new(11);
        a.fit(&d).unwrap();
        b.fit(&d).unwrap();
        for i in 0..d.len() {
            assert_eq!(a.predict(d.get(i).0).unwrap(), b.predict(d.get(i).0).unwrap());
        }
    }

    #[test]
    fn importances_identify_the_signal_feature() {
        // Feature 0 carries the whole signal; feature 1 is noise.
        let mut d = Dataset::new(vec!["signal".into(), "noise".into()]);
        for i in 0..200 {
            let s = (i % 10) as f64;
            d.push(vec![s, ((i * 31) % 17) as f64], s * 100.0).unwrap();
        }
        let mut t = RandomTree::new(5);
        t.fit(&d).unwrap();
        let imp = t.importances();
        assert_eq!(imp.len(), 2);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(imp[0] > 0.9, "signal importance {imp:?}");
    }

    #[test]
    fn constant_target_zero_importances() {
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..10 {
            d.push(vec![i as f64], 5.0).unwrap();
        }
        let mut t = RandomTree::new(0);
        t.fit(&d).unwrap();
        assert_eq!(t.importances(), &[0.0]);
    }

    /// The tree written the dumb way, to check the fitted one against: every
    /// node owns copies of its rows, orders them by value with the stable
    /// sort and draws its candidates from the stream its key names.
    enum Ref {
        Leaf(f64),
        Split(usize, f64, Box<[Ref; 2]>),
    }

    struct Reference {
        gains: Vec<f64>,
    }

    impl Reference {
        fn grow(&mut self, rows: Vec<(Vec<f64>, f64)>, depth: usize, key: u64) -> Ref {
            let n = rows.len();
            let sum: f64 = rows.iter().map(|r| r.1).sum();
            let pure = rows.iter().all(|r| (r.1 - rows[0].1).abs() < 1e-12);
            if depth >= MAX_DEPTH || n < 2 || pure {
                return Ref::Leaf(sum / n as f64);
            }
            let mut feats: Vec<usize> = (0..rows[0].0.len()).collect();
            stream_rng(key, 0x7EE5).shuffle(&mut feats);
            let sq: f64 = rows.iter().map(|r| r.1 * r.1).sum();
            let mut best: Option<(f64, usize, f64)> = None;
            for &f in &feats[..features_per_split(feats.len())] {
                let mut sorted = rows.clone();
                sorted.sort_by(|a, b| a.0[f].partial_cmp(&b.0[f]).unwrap());
                let (mut lsum, mut lsq) = (0.0, 0.0);
                for pos in 0..n - 1 {
                    lsum += sorted[pos].1;
                    lsq += sorted[pos].1 * sorted[pos].1;
                    let (nl, nr) = (pos + 1, n - pos - 1);
                    let (xv, xnext) = (sorted[pos].0[f], sorted[pos + 1].0[f]);
                    if xnext <= xv {
                        continue;
                    }
                    let (rsum, rsq) = (sum - lsum, sq - lsq);
                    let sse = (lsq - lsum * lsum / nl as f64) + (rsq - rsum * rsum / nr as f64);
                    if best.is_none_or(|b| sse < b.0) {
                        best = Some((sse, f, 0.5 * (xv + xnext)));
                    }
                }
            }
            let Some((sse, f, at)) = best else {
                return Ref::Leaf(sum / n as f64);
            };
            self.gains[f] += ((sq - sum * sum / n as f64) - sse).max(0.0);
            let (l, r): (Vec<_>, Vec<_>) = rows.into_iter().partition(|row| row.0[f] <= at);
            let l = self.grow(l, depth + 1, split_seed(key, 1));
            let r = self.grow(r, depth + 1, split_seed(key, 2));
            Ref::Split(f, at, Box::new([l, r]))
        }
    }

    impl Ref {
        fn descend(&self, x: &[f64]) -> f64 {
            match self {
                Ref::Leaf(v) => *v,
                Ref::Split(f, at, kids) => kids[(x[*f] > *at) as usize].descend(x),
            }
        }

        /// `(depth, leaves)`.
        fn shape(&self) -> (usize, usize) {
            match self {
                Ref::Leaf(_) => (1, 1),
                Ref::Split(_, _, kids) => {
                    let ((dl, ll), (dr, lr)) = (kids[0].shape(), kids[1].shape());
                    (1 + dl.max(dr), ll + lr)
                }
            }
        }
    }

    /// Columns chosen to break a split search that orders rows some other
    /// way than by value with ties in node order: signed zeros among other
    /// values, one value only, two values, few values, and nearly distinct
    /// ones; every fourth row repeats an earlier one.
    fn tied_data(n: usize) -> Dataset {
        let zeros = [-0.0, 0.0, -1.5, 2.0, 0.0, -0.0, 1.0];
        let mut d = Dataset::new((0..5).map(|j| format!("c{j}")).collect());
        for i in 0..n {
            if i % 4 == 3 {
                let (x, y) = d.get((i * 7) % i);
                let x = x.to_vec();
                d.push(x, y).unwrap();
                continue;
            }
            let few = (i % 8 + 1) as f64;
            let many = ((i * 37) % 101) as f64;
            let x = vec![
                zeros[i % 7],
                7.0,
                ((i * 7) % 11 < 5) as u8 as f64,
                few,
                many,
            ];
            let y = 3.0 * x[0] - 20.0 * x[2] + 100.0 / few + (many * 0.7).sin();
            d.push(x, y).unwrap();
        }
        d
    }

    /// Fits a tree on `d` and grows the reference from copies of its rows
    /// with the same stream: same shape, same predictions on every row (and
    /// on the row with its signed zeros flipped), same importances.
    fn assert_tree_matches_reference(d: &Dataset, seed: u64) {
        let mut t = RandomTree::new(seed);
        t.fit(d).unwrap();
        let rows = d.rows().iter().cloned().zip(d.targets().iter().copied());
        let mut dumb = Reference {
            gains: vec![0.0; d.dim()],
        };
        let r = dumb.grow(rows.collect(), 0, seed);
        let gains = dumb.gains;
        let case = format!("{} rows, seed {seed}", d.len());
        assert_eq!((t.depth(), t.leaf_count()), r.shape(), "{case}");
        for x in d.rows() {
            // The row itself, then each signed zero flipped.
            let flipped: Vec<f64> = x.iter().map(|&v| if v == 0.0 { -v } else { v }).collect();
            for q in [x, &flipped] {
                assert_eq!(t.predict(q).unwrap().to_bits(), r.descend(q).to_bits());
            }
        }
        let total: f64 = gains.iter().sum();
        for (g, i) in gains.iter().zip(t.importances()) {
            let g = if total > 0.0 { g / total } else { *g };
            assert_eq!(g.to_bits(), i.to_bits(), "{case}");
        }
    }

    #[test]
    fn fitted_tree_matches_the_copied_rows_reference_bitwise() {
        let sets = [
            tied_data(120),
            tied_data(31),
            crate::dataset::tests::kb_shaped(100, 5),
            // A forest's bag, copied: rows left out and rows repeated.
            bagged(&tied_data(40), 3),
        ];
        for d in &sets {
            for seed in 0..12 {
                assert_tree_matches_reference(d, seed);
            }
        }
    }

    /// A forest, whose trees share one set of buffers, against reference
    /// trees grown on its materialised bags: every prediction on `d`'s rows.
    fn assert_forest_matches_reference(d: &Dataset, seed: u64) {
        use crate::forest::N_TREES;
        use crate::RandomForest;

        let mut rf = RandomForest::new(seed);
        rf.fit(d).unwrap();
        let trees: Vec<Ref> = (0..N_TREES as u64)
            .map(|i| {
                let tree_seed = split_seed(seed, i);
                let sample = bagged(d, tree_seed);
                let targets = sample.targets().iter().copied();
                let rows = sample.rows().iter().cloned().zip(targets);
                let mut dumb = Reference {
                    gains: vec![0.0; d.dim()],
                };
                dumb.grow(rows.collect(), 0, tree_seed ^ 0x51ED)
            })
            .collect();
        for x in d.rows() {
            let sum = trees.iter().fold(0.0, |s, r| s + r.descend(x));
            let (got, want) = (rf.predict(x).unwrap(), sum / N_TREES as f64);
            let case = format!("{} rows, seed {seed}", d.len());
            assert_eq!(got.to_bits(), want.to_bits(), "{case}");
        }
    }

    /// A shard's seven constant columns are most of a node's candidates: the
    /// search passes over them, and neither the stream nor the tree moves.
    #[test]
    fn constant_candidates_are_skipped_and_the_reference_tree_still_grows() {
        use crate::dataset::{tests::shard_shaped, Scaler};

        disar_math::check::cases(8, |rng| {
            let d = shard_shaped(rng.gen_range(7usize..120), rng.next_u64());
            // One distinct value in the fit's view is a column that does not vary.
            let (fit, scaler) = (TreeFit::new(&d, d.len()), Scaler::fit(&d).unwrap());
            for f in 0..d.dim() {
                assert_eq!(fit.starts[f + 1] - fit.starts[f] > 1, scaler.varies(f));
            }
            let seed = rng.gen_range(0u64..1000);
            assert_tree_matches_reference(&d, seed);
            assert_forest_matches_reference(&d, seed);
        });
    }

    /// Columns for each way a node orders its keys: a nearly distinct one,
    /// whose ranks span more than `SPAN_PER_ROW` per row in a node split off
    /// by another column; one of six values; signed zeros among few values;
    /// and one that takes a single value wherever the six-valued one is low,
    /// so a node split off there has a candidate with one rank. Rows come in
    /// pairs with equal features and unequal targets, so every order of tied
    /// rows shows in the sums.
    fn paths_data(n: usize) -> Dataset {
        let mut d = Dataset::new((0..4).map(|j| format!("c{j}")).collect());
        for i in 0..n {
            let j = i / 2;
            let six = (j * 5 % 6) as f64 * 1.5 - 3.0;
            let zeros = [-0.0, 0.0, 1.0, -2.0, 0.0][j % 5];
            let near_unique = ((j * 7919) % 1009) as f64 / 8.0;
            let low_flat = if six < 0.0 { 7.0 } else { (j % 13) as f64 };
            let wave = (near_unique * 0.3).sin();
            let y = 2.0 * six + 5.0 * wave + 10.0 * zeros + 0.3 * low_flat + 0.37 * (i % 2) as f64;
            d.push(vec![near_unique, six, zeros, low_flat], y).unwrap();
        }
        d
    }

    #[test]
    fn split_search_paths_match_the_copied_rows_reference_bitwise() {
        use crate::dataset::tests::kb_shaped;

        // Keys as a node builds them, at sizes on both sides of the
        // placement cutoff and with rank spans under and over the bound,
        // against the sort they stand in for.
        let mut rng = stream_rng(5, 0x0DE5);
        let (mut out, mut counts) = (vec![0; 64], vec![0; SPAN_PER_ROW * 64]);
        for n in 1..=64 {
            for span in [1, 2, 6, n, SPAN_PER_ROW * n, SPAN_PER_ROW * n + 1, 1000] {
                let base = rng.gen_range(0..50u32);
                let ranks: Vec<u32> = (0..n)
                    .map(|_| base + rng.gen_range(0..span as u32))
                    .collect();
                let key = |(pos, &r): (u64, &u32)| u64::from(r) << 32 | pos;
                let mut keys: Vec<u64> = (0..).zip(&ranks).map(key).collect();
                let mut sorted = keys.clone();
                sorted.sort_unstable();
                let lo_hi = (*ranks.iter().min().unwrap(), *ranks.iter().max().unwrap());
                let ordered = order_keys(&mut keys, lo_hi, &mut out[..n], &mut counts);
                assert_eq!(ordered, &sorted[..], "{n} keys over {span} ranks");
            }
        }

        // Whole trees: roots of 15, 16 and 17 rows and the deep small nodes
        // of larger ones, a forest's bag copied.
        let mut sets: Vec<Dataset> = [15, 16, 17, 120, 500].map(paths_data).into();
        sets.push(bagged(&paths_data(60), 4));
        for d in &sets {
            for seed in 7..11 {
                assert_tree_matches_reference(d, seed);
            }
        }

        for n in [30, 50, 100, 500] {
            assert_forest_matches_reference(&kb_shaped(n, 13), 21);
        }
    }

    /// Without columns there is nothing to split on: a tree is one leaf, the
    /// mean, and a forest's trees are each the mean of its bag.
    #[test]
    fn a_dataset_without_columns_fits_one_leaf_its_mean() {
        use crate::{forest::N_TREES, RandomForest};

        let d = Dataset::from_rows(Vec::new(), vec![Vec::new(); 2], vec![2.0, 5.0]).unwrap();
        let mut t = RandomTree::new(1);
        t.fit(&d).unwrap();
        assert_eq!((t.depth(), t.leaf_count()), (1, 1));
        assert_eq!(t.predict(&[]).unwrap(), 3.5);
        assert_eq!(t.importances(), &[] as &[f64]);

        let mut rf = RandomForest::new(1);
        rf.fit(&d).unwrap();
        let sum = (0..N_TREES as u64).fold(0.0, |s, i| {
            let bag = bagged(&d, split_seed(1, i));
            s + bag.targets().iter().sum::<f64>() / bag.len() as f64
        });
        let mean = sum / N_TREES as f64;
        assert_eq!(rf.predict(&[]).unwrap().to_bits(), mean.to_bits());
    }

    /// `partial_fit` is a cold fit with the same seed, to the bit: the
    /// arena, the importances and the predictions. Appends of 1–7 rows from
    /// random prefixes, on shard-shaped data with seven constant columns and
    /// on a base's.
    #[test]
    fn tree_partial_fit_equals_a_cold_fit_bitwise() {
        use crate::dataset::tests::{kb_shaped, shard_shaped};

        let held_out = kb_shaped(20, 0xFEED);
        disar_math::check::cases(24, |rng| {
            let n = rng.gen_range(8usize..120);
            let d = if rng.gen_bool(0.5) {
                shard_shaped(n, rng.next_u64())
            } else {
                kb_shaped(n, rng.next_u64())
            };
            let seed = rng.next_u64();
            let mut from = rng.gen_range(1..n);
            let mut inc = RandomTree::new(seed);
            inc.partial_fit(&d.filter(|i| i < from), 0).unwrap();
            while from < n {
                let to = (from + rng.gen_range(1usize..8)).min(n);
                let grown = d.filter(|i| i < to);
                inc.partial_fit(&grown, from).unwrap();
                let mut cold = RandomTree::new(seed);
                cold.fit(&grown).unwrap();
                let what = format!("{from} → {to} of {n} rows");
                assert_eq!(inc.fitted_len(), to, "{what}");
                assert_eq!(inc.arena_bits(), cold.arena_bits(), "{what}");
                let bits = |t: &RandomTree| {
                    t.importances()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<_>>()
                };
                assert_eq!(bits(&inc), bits(&cold), "{what}: importances");
                for x in grown.rows().iter().chain(held_out.rows()) {
                    let (a, b) = (inc.predict(x).unwrap(), cold.predict(x).unwrap());
                    assert_eq!(a.to_bits(), b.to_bits(), "{what}: at {x:?}");
                }
                from = to;
            }
        });
    }

    #[test]
    fn tree_partial_fit_checks_what_it_continues() {
        use crate::dataset::tests::kb_shaped;

        let d = kb_shaped(30, 2);
        let mut t = RandomTree::new(1);
        assert!(matches!(
            t.partial_fit(&d, 10),
            Err(MlError::IncrementalMismatch {
                fitted: 0,
                from: 10
            })
        ));
        t.fit(&d.filter(|i| i < 20)).unwrap();
        assert!(matches!(
            t.partial_fit(&d, 15),
            Err(MlError::IncrementalMismatch {
                fitted: 20,
                from: 15
            })
        ));
        let narrow =
            Dataset::from_rows(vec!["x".into()], vec![vec![1.0]; 25], vec![1.0; 25]).unwrap();
        assert!(matches!(
            t.partial_fit(&narrow, 20),
            Err(MlError::FeatureDimensionMismatch {
                expected: 10,
                got: 1
            })
        ));
        let before = t.arena_bits();
        t.partial_fit(&d.filter(|i| i < 20), 20).unwrap();
        assert_eq!(t.arena_bits(), before, "no rows appended");
        // Through the trait object the retrain is the same partial fit.
        let mut boxed: Box<dyn Regressor> = Box::new(t.clone());
        boxed.fit_appended(&d, 20).unwrap();
        t.partial_fit(&d, 20).unwrap();
        for x in d.rows() {
            let (a, b) = (boxed.predict(x).unwrap(), t.predict(x).unwrap());
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn single_row_dataset() {
        let mut d = Dataset::new(vec!["x".into()]);
        d.push(vec![1.0], 42.0).unwrap();
        let mut t = RandomTree::new(0);
        t.fit(&d).unwrap();
        assert_eq!(t.predict(&[99.0]).unwrap(), 42.0);
    }
}
