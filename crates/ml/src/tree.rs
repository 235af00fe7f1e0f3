//! Random Tree — a single randomized regression tree.
//!
//! Mirrors Weka's `RandomTree`: at every node a random subset of
//! `K = ⌊log₂(d)⌋ + 1` candidate features is considered, the best
//! variance-reducing split among them is taken, and the tree is grown without
//! pruning until nodes are pure or smaller than `min_leaf`. It is both one of
//! the paper's six models and the base learner of [`crate::RandomForest`].

use crate::batch::{check_out_len, FeatureMatrix, PredictScratch};
use crate::dataset::Dataset;
use crate::regressor::{IncrementalRegressor, Regressor};
use crate::MlError;
use disar_math::rng::{split_seed, stream_rng, Xoshiro256PlusPlus};
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

impl Node {
    fn predict(&self, x: &[f64]) -> f64 {
        match self {
            Node::Leaf { value } => *value,
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                if x[*feature] <= *threshold {
                    left.predict(x)
                } else {
                    right.predict(x)
                }
            }
        }
    }

    fn depth(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Split { left, right, .. } => 1 + left.depth().max(right.depth()),
        }
    }

    fn leaves(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Split { left, right, .. } => left.leaves() + right.leaves(),
        }
    }
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
/// let mut tree = RandomTree::with_defaults(1);
/// tree.fit(&data).unwrap();
/// assert!((tree.predict(&[5.0]).unwrap() - 1.0).abs() < 1e-9);
/// assert!((tree.predict(&[30.0]).unwrap() - 9.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RandomTree {
    features_per_split: Option<usize>,
    min_leaf: usize,
    max_depth: usize,
    seed: u64,
    dim: usize,
    root: Option<Node>,
    importances: Vec<f64>,
    #[serde(default)]
    fitted_len: usize,
}

impl RandomTree {
    /// Weka defaults: `K = ⌊log₂ d⌋ + 1` random features per split,
    /// minimum leaf size 1, effectively unbounded depth.
    pub fn with_defaults(seed: u64) -> Self {
        RandomTree {
            features_per_split: None,
            min_leaf: 1,
            max_depth: 64,
            seed,
            dim: 0,
            root: None,
            importances: Vec::new(),
            fitted_len: 0,
        }
    }

    /// Fully parameterized constructor.
    ///
    /// `features_per_split = None` selects the `⌊log₂ d⌋ + 1` default at fit
    /// time; `Some(k)` forces exactly `k` (clamped to the dimension).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidHyperparameter`] if `min_leaf == 0` or
    /// `max_depth == 0`.
    pub fn new(
        features_per_split: Option<usize>,
        min_leaf: usize,
        max_depth: usize,
        seed: u64,
    ) -> Result<Self, MlError> {
        if min_leaf == 0 {
            return Err(MlError::InvalidHyperparameter("min_leaf must be > 0"));
        }
        if max_depth == 0 {
            return Err(MlError::InvalidHyperparameter("max_depth must be > 0"));
        }
        Ok(RandomTree {
            features_per_split,
            min_leaf,
            max_depth,
            seed,
            dim: 0,
            root: None,
            importances: Vec::new(),
            fitted_len: 0,
        })
    }

    /// Depth of the fitted tree (`0` before fitting).
    pub fn depth(&self) -> usize {
        self.root.as_ref().map_or(0, Node::depth)
    }

    /// Number of leaves of the fitted tree (`0` before fitting).
    pub fn leaf_count(&self) -> usize {
        self.root.as_ref().map_or(0, Node::leaves)
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

    fn k_for(&self, dim: usize) -> usize {
        let k = self
            .features_per_split
            .unwrap_or_else(|| (dim as f64).log2().floor() as usize + 1);
        k.clamp(1, dim)
    }

    #[allow(clippy::too_many_arguments)]
    fn build(
        &self,
        rows: &[Vec<f64>],
        ys: &[f64],
        idx: &mut [usize],
        depth: usize,
        rng: &mut Xoshiro256PlusPlus,
        feat_buf: &mut Vec<usize>,
        importances: &mut [f64],
    ) -> Node {
        let n = idx.len();
        let mean = idx.iter().map(|&i| ys[i]).sum::<f64>() / n as f64;
        if depth >= self.max_depth || n < 2 * self.min_leaf || n < 2 {
            return Node::Leaf { value: mean };
        }
        // Pure node?
        let first = ys[idx[0]];
        if idx.iter().all(|&i| (ys[i] - first).abs() < 1e-12) {
            return Node::Leaf { value: mean };
        }

        let dim = rows[0].len();
        let k = self.k_for(dim);
        feat_buf.clear();
        feat_buf.extend(0..dim);
        rng.shuffle(feat_buf);
        let candidates: Vec<usize> = feat_buf[..k].to_vec();

        let total_sum: f64 = idx.iter().map(|&i| ys[i]).sum();
        let total_sq: f64 = idx.iter().map(|&i| ys[i] * ys[i]).sum();

        let mut best: Option<(f64, usize, f64)> = None; // (score, feature, threshold)
        let mut order: Vec<usize> = Vec::with_capacity(n);
        for &f in &candidates {
            order.clear();
            order.extend_from_slice(idx);
            order.sort_by(|&a, &b| {
                rows[a][f]
                    .partial_cmp(&rows[b][f])
                    .expect("non-finite feature in tree split")
            });
            // Scan split positions; candidate threshold between consecutive
            // distinct feature values.
            let mut lsum = 0.0;
            let mut lsq = 0.0;
            for pos in 0..n - 1 {
                let i = order[pos];
                lsum += ys[i];
                lsq += ys[i] * ys[i];
                let nl = (pos + 1) as f64;
                let nr = (n - pos - 1) as f64;
                if (pos + 1) < self.min_leaf || (n - pos - 1) < self.min_leaf {
                    continue;
                }
                let xv = rows[order[pos]][f];
                let xnext = rows[order[pos + 1]][f];
                if xnext <= xv {
                    continue; // no valid threshold between equal values
                }
                let rsum = total_sum - lsum;
                let rsq = total_sq - lsq;
                // Sum of squared errors left + right (lower is better).
                let sse = (lsq - lsum * lsum / nl) + (rsq - rsum * rsum / nr);
                if best.is_none_or(|(b, _, _)| sse < b) {
                    best = Some((sse, f, 0.5 * (xv + xnext)));
                }
            }
        }

        let Some((best_sse, feature, threshold)) = best else {
            return Node::Leaf { value: mean };
        };
        // Variance-reduction importance: SSE(parent) − SSE(children).
        let parent_sse = total_sq - total_sum * total_sum / n as f64;
        importances[feature] += (parent_sse - best_sse).max(0.0);

        // Partition idx in place.
        let mut left: Vec<usize> = Vec::new();
        let mut right: Vec<usize> = Vec::new();
        for &i in idx.iter() {
            if rows[i][feature] <= threshold {
                left.push(i);
            } else {
                right.push(i);
            }
        }
        debug_assert!(!left.is_empty() && !right.is_empty());
        Node::Split {
            feature,
            threshold,
            left: Box::new(self.build(rows, ys, &mut left, depth + 1, rng, feat_buf, importances)),
            right: Box::new(self.build(rows, ys, &mut right, depth + 1, rng, feat_buf, importances)),
        }
    }
}

impl Regressor for RandomTree {
    fn fit(&mut self, data: &Dataset) -> Result<(), MlError> {
        if data.is_empty() {
            return Err(MlError::EmptyTrainingSet);
        }
        let mut idx: Vec<usize> = (0..data.len()).collect();
        let mut rng = stream_rng(self.seed, 0x7EE5);
        let mut feat_buf = Vec::new();
        let mut importances = vec![0.0; data.dim()];
        let root = self.build(
            data.rows(),
            data.targets(),
            &mut idx,
            0,
            &mut rng,
            &mut feat_buf,
            &mut importances,
        );
        self.dim = data.dim();
        self.root = Some(root);
        self.fitted_len = data.len();
        // Normalize to proportions (all-zero stays all-zero: pure data).
        let total: f64 = importances.iter().sum();
        if total > 0.0 {
            for v in &mut importances {
                *v /= total;
            }
        }
        self.importances = importances;
        Ok(())
    }

    fn predict(&self, x: &[f64]) -> Result<f64, MlError> {
        let root = self.root.as_ref().ok_or(MlError::NotFitted)?;
        if x.len() != self.dim {
            return Err(MlError::FeatureDimensionMismatch {
                expected: self.dim,
                got: x.len(),
            });
        }
        Ok(root.predict(x))
    }

    /// Batched traversal hoisting the fitted-root and dimension checks out
    /// of the per-row loop; each row then walks the exact scalar descent,
    /// so every output is bit-identical to [`Regressor::predict`].
    fn predict_batch(
        &self,
        xs: &FeatureMatrix,
        out: &mut [f64],
        scratch: &mut PredictScratch,
    ) -> Result<(), MlError> {
        let _ = scratch;
        check_out_len(xs.len(), out)?;
        if xs.is_empty() {
            return Ok(());
        }
        let root = self.root.as_ref().ok_or(MlError::NotFitted)?;
        if xs.dim() != self.dim {
            return Err(MlError::FeatureDimensionMismatch {
                expected: self.dim,
                got: xs.dim(),
            });
        }
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = root.predict(xs.row(i));
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

impl IncrementalRegressor for RandomTree {
    /// Suffix retrain by subsampling: the tree is regrown on
    /// [`Dataset::suffix_subsample`] — every appended row plus a
    /// deterministic sample of the history — instead of the full dataset.
    /// The result is *inexact* ([`IncrementalRegressor::exact`] is
    /// `false`): bit-identity-preserving callers keep refitting from
    /// scratch, opt-in warm retrains trade exactness for O(suffix) cost.
    fn partial_fit(&mut self, data: &Dataset, from: usize) -> Result<(), MlError> {
        if self.root.is_none() && from == 0 {
            return self.fit(data);
        }
        if from != self.fitted_len || from > data.len() {
            return Err(MlError::IncrementalMismatch {
                fitted: self.fitted_len,
                from,
            });
        }
        if data.dim() != self.dim {
            return Err(MlError::FeatureDimensionMismatch {
                expected: self.dim,
                got: data.dim(),
            });
        }
        if from == data.len() {
            return Ok(());
        }
        let sample = data.suffix_subsample(from, split_seed(self.seed, from as u64));
        self.fit(&sample)?;
        // The fit trained on the subsample; the cursor tracks the source.
        self.fitted_len = data.len();
        Ok(())
    }

    fn fitted_len(&self) -> usize {
        self.fitted_len
    }

    fn exact(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut t = RandomTree::with_defaults(3);
        t.fit(&step_data()).unwrap();
        assert_eq!(t.predict(&[10.0, 0.0]).unwrap(), 10.0);
        assert_eq!(t.predict(&[80.0, 0.0]).unwrap(), 100.0);
    }

    #[test]
    fn interpolates_training_points_with_min_leaf_one() {
        // With min_leaf=1 and no depth cap, a regression tree fits the
        // training targets exactly when feature values are distinct.
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..30 {
            d.push(vec![i as f64], (i as f64).sin() * 10.0).unwrap();
        }
        let mut t = RandomTree::with_defaults(1);
        t.fit(&d).unwrap();
        for i in 0..30 {
            let (x, y) = d.get(i);
            assert!((t.predict(x).unwrap() - y).abs() < 1e-9);
        }
    }

    #[test]
    fn min_leaf_limits_tree_size() {
        let d = step_data();
        let mut small = RandomTree::new(None, 1, 64, 1).unwrap();
        let mut big = RandomTree::new(None, 25, 64, 1).unwrap();
        small.fit(&d).unwrap();
        big.fit(&d).unwrap();
        assert!(big.leaf_count() <= small.leaf_count());
        assert!(big.leaf_count() >= 2);
    }

    #[test]
    fn max_depth_one_is_a_stump() {
        // `max_depth` counts splits along a path: with max_depth = 1 the
        // root may split once and both children must be leaves.
        let d = step_data();
        let mut t = RandomTree::new(None, 1, 1, 1).unwrap();
        t.fit(&d).unwrap();
        assert!(t.depth() <= 2, "depth {}", t.depth());
        assert!(t.leaf_count() <= 2);
        let y = t.predict(&[0.0, 0.0]).unwrap();
        assert!(y.is_finite());
    }

    #[test]
    fn constant_target_single_leaf() {
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..10 {
            d.push(vec![i as f64], 3.0).unwrap();
        }
        let mut t = RandomTree::with_defaults(0);
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
        let mut t = RandomTree::with_defaults(2);
        t.fit(&d).unwrap();
        // Only one valid threshold (0.5); both sides must predict their mean.
        let y0 = t.predict(&[0.0]).unwrap();
        let y1 = t.predict(&[1.0]).unwrap();
        assert!((y0 - 9.0).abs() < 1e-9, "even-index mean, got {y0}");
        assert!((y1 - 10.0).abs() < 1e-9, "odd-index mean, got {y1}");
    }

    #[test]
    fn rejects_invalid_hyperparameters() {
        assert!(RandomTree::new(None, 0, 10, 0).is_err());
        assert!(RandomTree::new(None, 1, 0, 0).is_err());
    }

    #[test]
    fn deterministic_per_seed() {
        let d = step_data();
        let mut a = RandomTree::with_defaults(11);
        let mut b = RandomTree::with_defaults(11);
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
        let mut t = RandomTree::new(Some(2), 1, 64, 5).unwrap();
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
        let mut t = RandomTree::with_defaults(0);
        t.fit(&d).unwrap();
        assert_eq!(t.importances(), &[0.0]);
    }

    #[test]
    fn partial_fit_from_zero_matches_fit() {
        let d = step_data();
        let mut a = RandomTree::with_defaults(3);
        a.partial_fit(&d, 0).unwrap();
        let mut b = RandomTree::with_defaults(3);
        b.fit(&d).unwrap();
        assert_eq!(a.fitted_len(), d.len());
        for i in 0..d.len() {
            assert_eq!(
                a.predict(d.get(i).0).unwrap().to_bits(),
                b.predict(d.get(i).0).unwrap().to_bits()
            );
        }
    }

    #[test]
    fn partial_fit_is_inexact_deterministic_and_learns_the_suffix() {
        assert!(!RandomTree::with_defaults(0).exact());
        let mut d = Dataset::new(vec!["x".into(), "noise".into()]);
        for i in 0..110 {
            let x = i as f64;
            let y = if x < 60.0 { 10.0 } else { 100.0 };
            d.push(vec![x, (i % 7) as f64], y).unwrap();
        }
        // Prefix (100) > max(4 × suffix, 64): the history really is
        // subsampled, not replayed whole.
        let prefix = d.filter(|i| i < 100);
        let mut a = RandomTree::with_defaults(5);
        a.fit(&prefix).unwrap();
        a.partial_fit(&d, 100).unwrap();
        assert_eq!(a.fitted_len(), 110);
        let mut b = RandomTree::with_defaults(5);
        b.fit(&prefix).unwrap();
        b.partial_fit(&d, 100).unwrap();
        // Same seed, same cursor → the same subsample → the same tree.
        for i in 0..d.len() {
            assert_eq!(
                a.predict(d.get(i).0).unwrap().to_bits(),
                b.predict(d.get(i).0).unwrap().to_bits()
            );
        }
        // The warm tree still captures the step (the suffix is kept whole).
        assert!((a.predict(&[10.0, 0.0]).unwrap() - 10.0).abs() < 1e-9);
        assert!((a.predict(&[110.0, 0.0]).unwrap() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn partial_fit_rejects_mismatched_cursor() {
        let d = step_data();
        let mut t = RandomTree::with_defaults(1);
        t.fit(&d).unwrap();
        assert!(matches!(
            t.partial_fit(&d, 30),
            Err(MlError::IncrementalMismatch {
                fitted: 100,
                from: 30
            })
        ));
        // `from == data.len()` is the no-op contract.
        let before = t.predict(&[10.0, 0.0]).unwrap();
        t.partial_fit(&d, d.len()).unwrap();
        assert_eq!(t.predict(&[10.0, 0.0]).unwrap(), before);
    }

    #[test]
    fn single_row_dataset() {
        let mut d = Dataset::new(vec!["x".into()]);
        d.push(vec![1.0], 42.0).unwrap();
        let mut t = RandomTree::with_defaults(0);
        t.fit(&d).unwrap();
        assert_eq!(t.predict(&[99.0]).unwrap(), 42.0);
    }
}
