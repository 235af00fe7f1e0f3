//! Random Forest regressor (Breiman 2001).
//!
//! Bagged ensemble of [`RandomTree`]s: each tree is trained on a resample of
//! the data and the forest predicts the mean of the trees. Weka's default of
//! 100 trees is the forest's one setting; each tree keeps its own defaults
//! (`⌊log₂ d⌋ + 1` features per split).
//!
//! The resample is an online bag (Oza & Russell 2001): tree `t`'s sample is
//! row `i` repeated `k_{t,i}` times, in ascending `i`, where `k_{t,i}` is a
//! Poisson(1) count drawn from a uniform keyed by the tree's seed and `i`
//! alone (`bag_count`). A bag that draws no row, which has probability
//! e⁻ⁿ at `n` rows, holds every row once (`fill_bag`). A sample is a
//! list of row numbers, not a copied dataset, and one list is refilled for
//! every tree: every tree grows on the same `TreeFit` view of the data and
//! borrows its buffers, so a tree's own allocations are its arena and its
//! importances.
//!
//! A base that grows by appending rows appends to every bag and reorders
//! none, so the forest is an exact [`IncrementalRegressor`]. A tree whose
//! bag gained no row (e⁻¹ ≈ 37 % of trees per appended row) is the tree a
//! cold fit grows and is kept as it is. The others regrow from their old
//! arena (`RandomTree::grow`), copying every subtree whose rows are all
//! old ones; the tree's per-node streams make that copy the subtree a cold
//! fit grows. After `partial_fit` every arena, prediction and importance is
//! the one a cold [`Regressor::fit`] with the same seed gives, to the bit.
//!
//! A prediction sums the trees in tree order from 0.0 and divides once. A
//! grid column (rows that differ from the first in one feature at most,
//! which holds no NaN) walks each tree once for all its rows, ranges of rows
//! going down together (`RandomTree::descend_column`), and any other batch
//! descends each tree row by row; either way each row's sum is the same, so
//! its bits do not depend on the batch around it.

use crate::batch::{check_out_len, FeatureMatrix, PredictScratch};
use crate::dataset::Dataset;
use crate::regressor::{IncrementalRegressor, Regressor};
use crate::tree::{RandomTree, TreeFit};
use crate::MlError;
use disar_math::rng::{split_seed, splitmix64};

/// Trees per forest.
pub(crate) const N_TREES: usize = 100;

/// `⌊P(K ≤ k) · 2⁶⁴⌋` for a Poisson(1) count `K` and `k` in `0..20`;
/// `P(K > 19)` is below 2⁻⁶².
const POISSON1_CDF: [u64; 20] = [
    0x5e2d_58d8_b3bc_df1a,
    0xbc5a_b1b1_6779_be35,
    0xeb71_5e1d_c158_2dc2,
    0xfb23_9797_34a2_52f1,
    0xff10_25f5_9174_dc3d,
    0xffd9_0f3b_a405_5e19,
    0xfffa_8b71_fc72_c913,
    0xffff_540c_0914_b3c9,
    0xffff_ed1f_4aa8_f120,
    0xffff_fe21_6e64_1462,
    0xffff_ffd4_d85d_3183,
    0xffff_fffc_6da2_62b4,
    0xffff_ffff_ba12_d178,
    0xffff_ffff_fb07_c64c,
    0xffff_ffff_ffab_8ea5,
    0xffff_ffff_fffa_be22,
    0xffff_ffff_ffff_b11a,
    0xffff_ffff_ffff_fba1,
    0xffff_ffff_ffff_ffc5,
    0xffff_ffff_ffff_fffd,
];

/// How many times the bag of the tree seeded `tree_seed` holds row `i`: a
/// Poisson(1) count, inverted from the `i`-th output of the SplitMix64
/// stream seeded `tree_seed`, so it is a function of the seed and the row
/// number alone.
fn bag_count(tree_seed: u64, i: usize) -> usize {
    let mut state = tree_seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let u = splitmix64(&mut state);
    // Branch-free over the first four thresholds, past which 1.9 % of
    // counts lie: a count is a coin the branch predictor cannot call.
    let k = POISSON1_CDF[..4].iter().map(|&t| usize::from(u >= t)).sum();
    if k < 4 {
        k
    } else {
        4 + POISSON1_CDF[4..].iter().take_while(|&&t| u >= t).count()
    }
}

/// The tree seeded `tree_seed`'s sample of the first `n` rows, in
/// `sample`: row `i` [`bag_count`] times, in ascending `i`, or every row once
/// when the bag draws none. `sample` needs room for 4 rows past the bag.
fn fill_bag(tree_seed: u64, n: usize, sample: &mut Vec<usize>) {
    sample.clear();
    for i in 0..n {
        let (len, k) = (sample.len(), bag_count(tree_seed, i));
        // Four copies and a cut, which do not branch on the count.
        sample.extend_from_slice(&[i; 4]);
        if k <= 4 {
            sample.truncate(len + k);
        } else {
            sample.resize(len + k, i);
        }
    }
    if sample.is_empty() {
        sample.extend(0..n);
    }
}

/// Whether the tree keyed `key`, last grown on its bag of the first `from`
/// rows, must grow again on its bag of `n` rows. `None`: the bag gained no
/// row, so it is the bag the tree was grown on. `Some(below)`: the old bag is
/// the new one's rows below `below` (`RandomTree::grow`'s `from`). That is
/// `from`, unless the old bag drew no row, so held every row once, and the
/// new one draws some: the two then share no row and `below` is 0.
fn regrow_below(key: u64, from: usize, n: usize) -> Option<usize> {
    let gained = (from..n).any(|i| bag_count(key, i) > 0);
    let was_empty = (0..from).all(|i| bag_count(key, i) == 0);
    match (gained, was_empty) {
        (false, false) => None,
        (true, true) => Some(0),
        _ => Some(from),
    }
}

/// A bagged forest of randomized regression trees.
///
/// # Example
///
/// ```
/// use disar_ml::{Dataset, RandomForest, Regressor};
///
/// let mut data = Dataset::new(vec!["x".into()]);
/// for i in 0..60 {
///     data.push(vec![i as f64], i as f64 * i as f64).unwrap();
/// }
/// let mut rf = RandomForest::new(7);
/// rf.fit(&data).unwrap();
/// let y = rf.predict(&[30.0]).unwrap();
/// assert!((y - 900.0).abs() < 150.0);
/// ```
#[derive(Debug, Clone)]
pub struct RandomForest {
    seed: u64,
    trees: Vec<RandomTree>,
    /// Rows of the data the trees were grown on (0 before fitting).
    fitted_len: usize,
}

impl RandomForest {
    /// An unfitted forest whose bags and trees are keyed by `seed`.
    pub fn new(seed: u64) -> Self {
        RandomForest {
            seed,
            trees: Vec::new(),
            fitted_len: 0,
        }
    }

    /// Mean variance-reduction feature importances across the fitted
    /// trees, normalized to sum to 1 (empty before fitting).
    pub fn importances(&self) -> Vec<f64> {
        let Some(first) = self.trees.first() else {
            return Vec::new();
        };
        let dim = first.importances().len();
        let mut out = vec![0.0; dim];
        for t in &self.trees {
            for (o, v) in out.iter_mut().zip(t.importances()) {
                *o += v;
            }
        }
        let total: f64 = out.iter().sum();
        if total > 0.0 {
            for v in &mut out {
                *v /= total;
            }
        }
        out
    }

    /// Checked once per call, for every tree: all were grown on one dataset.
    fn check_query(&self, dim: usize) -> Result<(), MlError> {
        self.trees
            .first()
            .ok_or(MlError::NotFitted)?
            .check_query(dim)
    }

    /// Tree `t`'s bag key; the tree itself is seeded `tree_seed(t) ^ 0x51ED`.
    fn tree_seed(&self, t: usize) -> u64 {
        split_seed(self.seed, t as u64)
    }

    /// Brings every tree to its bag of `data`, whose first `from` rows the
    /// trees were last grown on (`from == 0`: none, so every tree grows).
    fn grow(&mut self, data: &Dataset, from: usize) {
        let n = data.len();
        // The buffers are sized once, for the largest bag that grows (or
        // every row, which a bag that draws none holds).
        let cap = (0..self.trees.len())
            .map(|t| self.tree_seed(t))
            .filter(|&key| regrow_below(key, from, n).is_some())
            .map(|key| (0..n).map(|i| bag_count(key, i)).sum::<usize>().max(n))
            .max();
        let Some(cap) = cap else {
            return; // every bag is the one its tree was grown on
        };
        let mut fit = TreeFit::new(data, cap);
        let mut sample = Vec::with_capacity(cap + 4);
        for t in 0..self.trees.len() {
            let key = self.tree_seed(t);
            if let Some(below) = regrow_below(key, from, n) {
                fill_bag(key, n, &mut sample);
                self.trees[t].grow(&mut fit, &mut sample, below);
            }
        }
    }
}

impl Regressor for RandomForest {
    fn fit(&mut self, data: &Dataset) -> Result<(), MlError> {
        if data.is_empty() {
            return Err(MlError::EmptyTrainingSet);
        }
        self.trees = (0..N_TREES)
            .map(|t| RandomTree::new(self.tree_seed(t) ^ 0x51ED))
            .collect();
        self.grow(data, 0);
        self.fitted_len = data.len();
        Ok(())
    }

    /// Tree-major batched traversal: each tree streams over the whole batch
    /// before the next, keeping its nodes hot in cache. A column (rows that
    /// differ in one feature at most, `Column::fill`) takes one walk per tree
    /// for all its rows (`RandomTree::descend_column`); any other batch
    /// descends each tree row by row (`RandomTree::descend`). Either way, per
    /// row the tree contributions land in tree order starting from 0.0 and
    /// the sum is divided once, so a row gets the same bits in a batch of any
    /// width and shape.
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
        let n = self.trees.len() as f64;
        let PredictScratch { column, sums, .. } = scratch;
        if column.fill(xs) {
            sums.clear();
            sums.resize(xs.len(), 0.0);
            for t in &self.trees {
                t.descend_column(xs.row(0), column, |at, y| {
                    for s in &mut sums[at] {
                        *s += y;
                    }
                });
            }
            for (&i, &s) in column.order.iter().zip(&*sums) {
                out[i] = s / n;
            }
            return Ok(());
        }
        out.fill(0.0);
        for t in &self.trees {
            for (i, slot) in out.iter_mut().enumerate() {
                *slot += t.descend(xs.row(i));
            }
        }
        for slot in out.iter_mut() {
            *slot /= n;
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "RF"
    }

    fn clone_box(&self) -> Box<dyn Regressor> {
        Box::new(self.clone())
    }

    fn as_incremental(&mut self) -> Option<&mut dyn IncrementalRegressor> {
        Some(self)
    }
}

impl IncrementalRegressor for RandomForest {
    fn partial_fit(&mut self, data: &Dataset, from: usize) -> Result<(), MlError> {
        if self.trees.is_empty() && from == 0 {
            return self.fit(data);
        }
        if from != self.fitted_len || from > data.len() {
            return Err(MlError::IncrementalMismatch {
                fitted: self.fitted_len,
                from,
            });
        }
        self.check_query(data.dim())?;
        if from == data.len() {
            return Ok(());
        }
        self.grow(data, from);
        self.fitted_len = data.len();
        Ok(())
    }

    fn fitted_len(&self) -> usize {
        self.fitted_len
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::dataset::tests::{kb_shaped, shard_shaped};

    /// The bag of the tree seeded `tree_seed`, its rows copied.
    pub(crate) fn bagged(d: &Dataset, tree_seed: u64) -> Dataset {
        let (mut out, mut sample) = (Dataset::new(d.feature_names().to_vec()), Vec::new());
        fill_bag(tree_seed, d.len(), &mut sample);
        for i in sample {
            let (x, y) = d.get(i);
            out.push(x.to_vec(), y).unwrap();
        }
        out
    }

    fn wavy(n: usize) -> Dataset {
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..n {
            let x = i as f64 / 10.0;
            d.push(vec![x], (x * 1.3).sin() * 50.0 + x * 5.0).unwrap();
        }
        d
    }

    #[test]
    fn forest_beats_or_matches_single_tree_on_noise() {
        use disar_math::rng::{stream_rng, StandardNormal};

        // Noisy linear data: bagging should reduce variance vs one tree.
        let mut rng = stream_rng(1, 0);
        let mut gauss = StandardNormal::new();
        let mut train = Dataset::new(vec!["x".into()]);
        let mut test = Dataset::new(vec!["x".into()]);
        for i in 0..300 {
            let x = (i % 100) as f64;
            let y = 2.0 * x + 10.0 * gauss.sample(&mut rng);
            if i < 200 {
                train.push(vec![x], y).unwrap();
            } else {
                test.push(vec![x], y).unwrap();
            }
        }
        let mut tree = RandomTree::new(2);
        tree.fit(&train).unwrap();
        let mut forest = RandomForest::new(2);
        forest.fit(&train).unwrap();
        let tp: Vec<f64> = test.rows().iter().map(|r| tree.predict(r).unwrap()).collect();
        let fp: Vec<f64> = test.rows().iter().map(|r| forest.predict(r).unwrap()).collect();
        let t_rmse = disar_math::stats::rmse(&tp, test.targets());
        let f_rmse = disar_math::stats::rmse(&fp, test.targets());
        assert!(
            f_rmse <= t_rmse * 1.05,
            "forest rmse {f_rmse} should not exceed tree rmse {t_rmse}"
        );
    }

    #[test]
    fn prediction_within_target_hull() {
        let d = wavy(80);
        let mut rf = RandomForest::new(3);
        rf.fit(&d).unwrap();
        let lo = d.targets().iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = d.targets().iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for i in 0..d.len() {
            let y = rf.predict(d.get(i).0).unwrap();
            assert!(y >= lo - 1e-9 && y <= hi + 1e-9);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let d = wavy(50);
        let mut a = RandomForest::new(9);
        let mut b = RandomForest::new(9);
        a.fit(&d).unwrap();
        b.fit(&d).unwrap();
        assert_eq!(a.predict(&[2.5]).unwrap(), b.predict(&[2.5]).unwrap());
    }

    #[test]
    fn unfitted_reports_not_fitted() {
        let rf = RandomForest::new(0);
        assert!(matches!(rf.predict(&[1.0]), Err(MlError::NotFitted)));
    }

    #[test]
    fn forest_importances_aggregate_and_normalize() {
        let mut d = Dataset::new(vec!["signal".into(), "noise".into()]);
        for i in 0..150 {
            let s = (i % 8) as f64;
            d.push(vec![s, ((i * 29) % 13) as f64], s * 10.0).unwrap();
        }
        let mut rf = RandomForest::new(3);
        assert!(rf.importances().is_empty(), "unfitted forest");
        rf.fit(&d).unwrap();
        let imp = rf.importances();
        assert_eq!(imp.len(), 2);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(imp[0] > imp[1], "signal must dominate: {imp:?}");
    }

    /// The forest's definition, spelled out with public parts: tree `t` is a
    /// `RandomTree` seeded `tree_seed ^ 0x51ED` and fitted on the copied
    /// rows of its online bag (`bagged(tree_seed)`).
    #[test]
    fn forest_equals_trees_on_materialised_bootstraps_bitwise() {
        let held_out = kb_shaped(50, 0xFEED);
        for n in [30, 100, 260] {
            let d = kb_shaped(n, 11);
            let mut rf = RandomForest::new(5);
            rf.fit(&d).unwrap();
            let trees: Vec<RandomTree> = (0..N_TREES as u64)
                .map(|t| {
                    let tree_seed = split_seed(5, t);
                    let mut tree = RandomTree::new(tree_seed ^ 0x51ED);
                    tree.fit(&bagged(&d, tree_seed)).unwrap();
                    tree
                })
                .collect();
            for x in d.rows().iter().chain(held_out.rows()) {
                let sum = trees.iter().fold(0.0, |s, t| s + t.predict(x).unwrap());
                let mean = sum / N_TREES as f64;
                assert_eq!(rf.predict(x).unwrap().to_bits(), mean.to_bits());
            }
            let mut imp = vec![0.0; d.dim()];
            for t in &trees {
                for (o, v) in imp.iter_mut().zip(t.importances()) {
                    *o += v;
                }
            }
            let total: f64 = imp.iter().sum();
            let imp: Vec<u64> = imp.iter().map(|v| (v / total).to_bits()).collect();
            let got: Vec<u64> = rf.importances().iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, imp, "{n} rows");
        }
    }

    /// What callers ask of a fitted forest besides predictions: its shape,
    /// a clone that answers alike, and a batch that answers as its rows do
    /// one at a time.
    #[test]
    fn shape_queries_and_clones_answer_as_before() {
        use crate::dataset::tests::fnv1a;

        let d = kb_shaped(100, 3);
        let mut tree = RandomTree::new(9);
        assert_eq!((tree.depth(), tree.leaf_count()), (0, 0));
        tree.fit(&d).unwrap();
        assert_eq!((tree.depth(), tree.leaf_count()), (11, 52));

        let mut rf = RandomForest::new(9);
        rf.fit(&d).unwrap();
        let copy = rf.clone();
        let boxed = rf.clone_box();
        let mut xs = FeatureMatrix::new();
        for x in d.rows() {
            xs.push_row(x);
        }
        let mut batch = vec![0.0; d.len()];
        copy.predict_batch(&xs, &mut batch, &mut PredictScratch::default())
            .unwrap();
        for (x, b) in d.rows().iter().zip(&batch) {
            let y = rf.predict(x).unwrap().to_bits();
            assert_eq!(y, boxed.predict(x).unwrap().to_bits());
            assert_eq!(y, b.to_bits());
        }
        assert_eq!(fnv1a(&batch), 0x02fa24f0b2d5c19e);
        // A batch of seven rows that form no column, row by row.
        let mut seven = FeatureMatrix::new();
        for x in &d.rows()[..7] {
            seven.push_row(x);
        }
        let mut out = [0.0; 7];
        rf.predict_batch(&seven, &mut out, &mut PredictScratch::default())
            .unwrap();
        assert_eq!(fnv1a(&out), fnv1a(&batch[..7]));
        assert!(matches!(
            rf.predict(&[1.0]),
            Err(MlError::FeatureDimensionMismatch {
                expected: 10,
                got: 1
            })
        ));
    }

    /// A bag is a Poisson(1) count per row, keyed by the tree and the row
    /// alone: a grown base appends to it, and over many rows it holds about
    /// one draw per row and leaves out about e⁻¹ of them.
    #[test]
    fn online_bags_append_and_draw_one_row_per_row_on_average() {
        let (n, trees) = (400, 50);
        let (mut drawn, mut left_out) = (0, 0);
        for t in 0..trees {
            let key = split_seed(11, t);
            let bag = |n| {
                let mut rows = Vec::new();
                fill_bag(key, n, &mut rows);
                rows
            };
            let all = bag(n);
            for m in [1, 2, 37, 399] {
                let head = bag(m);
                if all.iter().any(|&i| i < m) {
                    let kept: Vec<usize> = all.iter().copied().filter(|&i| i < m).collect();
                    assert_eq!(head, kept, "tree {t}, {m} rows");
                }
            }
            assert!(
                all.windows(2).all(|w| w[0] <= w[1]),
                "tree {t}: out of order"
            );
            drawn += all.len();
            left_out += (0..n).filter(|&i| bag_count(key, i) == 0).count();
        }
        let rows = (n * trees as usize) as f64;
        assert!((drawn as f64 / rows - 1.0).abs() < 0.02, "{drawn} draws");
        let share = left_out as f64 / rows;
        assert!(
            (share - (-1.0f64).exp()).abs() < 0.01,
            "{left_out} left out"
        );
    }

    /// The thresholds a count is inverted against are the Poisson(1)
    /// distribution's: `2⁶⁴ − POISSON1_CDF[k]` is `P(K > k) · 2⁶⁴` rounded up,
    /// each tail summed in `f64` from its largest term.
    #[test]
    fn bag_thresholds_are_the_poisson_tail() {
        let two64 = 2f64.powi(64);
        for (k, &t) in POISSON1_CDF.iter().enumerate() {
            let (mut term, mut tail) = ((-1.0f64).exp(), 0.0);
            for j in 1..=k + 1 {
                term /= j as f64;
            }
            for j in k + 2..k + 40 {
                tail += term;
                term /= j as f64;
            }
            let above = (u64::MAX - t) as f64 + 1.0;
            let want = tail * two64;
            assert!(
                (above - want).abs() <= 1.0 + 1e-12 * want,
                "k = {k}: {above} vs {want}"
            );
        }
        assert!(POISSON1_CDF.windows(2).all(|w| w[0] < w[1]));
    }

    /// Every tree of two forests, arena and importances, bit for bit; their
    /// predictions on `rows`; and the forests' importances.
    fn assert_forests_identical(a: &RandomForest, b: &RandomForest, rows: &[Vec<f64>], what: &str) {
        assert_eq!(a.fitted_len, b.fitted_len, "{what}");
        assert_eq!(a.trees.len(), b.trees.len(), "{what}");
        for (t, (ta, tb)) in a.trees.iter().zip(&b.trees).enumerate() {
            assert_eq!(ta.arena_bits(), tb.arena_bits(), "{what}: tree {t}");
            let bits = |t: &RandomTree| {
                t.importances()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>()
            };
            assert_eq!(bits(ta), bits(tb), "{what}: tree {t}'s importances");
        }
        for x in rows {
            let (pa, pb) = (a.predict(x).unwrap(), b.predict(x).unwrap());
            assert_eq!(pa.to_bits(), pb.to_bits(), "{what}: at {x:?}");
        }
        let bits = |f: &RandomForest| {
            f.importances()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(a), bits(b), "{what}: importances");
    }

    /// `partial_fit` is a cold fit with the same seed, to the bit: every
    /// tree's arena and importances, the predictions and the forest's
    /// importances. Appends of 1–7 rows, from 2-row starts (where about one
    /// bag in seven draws no row) and from random prefixes, on shard-shaped
    /// data with seven constant columns and on a base's.
    #[test]
    fn partial_fit_equals_a_cold_fit_bitwise() {
        let held_out = kb_shaped(20, 0xFEED);
        let mut empty_bags = 0;
        disar_math::check::cases(16, |rng| {
            let n = rng.gen_range(8usize..80);
            let d = if rng.gen_bool(0.5) {
                shard_shaped(n, rng.next_u64())
            } else {
                kb_shaped(n, rng.next_u64())
            };
            let seed = rng.next_u64();
            let forest = || RandomForest::new(seed);
            let mut from = if rng.gen_bool(0.5) {
                2
            } else {
                rng.gen_range(1..n)
            };
            let mut inc = forest();
            inc.fit(&d.filter(|i| i < from)).unwrap();
            empty_bags += (0..N_TREES)
                .filter(|&t| (0..from).all(|i| bag_count(inc.tree_seed(t), i) == 0))
                .count();
            while from < n {
                let to = (from + rng.gen_range(1usize..8)).min(n);
                let grown = d.filter(|i| i < to);
                inc.partial_fit(&grown, from).unwrap();
                let mut cold = forest();
                cold.fit(&grown).unwrap();
                let rows: Vec<Vec<f64>> = grown
                    .rows()
                    .iter()
                    .chain(held_out.rows())
                    .cloned()
                    .collect();
                assert_forests_identical(&inc, &cold, &rows, &format!("{from} → {to} of {n} rows"));
                from = to;
            }
        });
        assert!(
            empty_bags > 0,
            "no case started from a bag that drew no row"
        );
    }

    /// A clone continues as the forest does: the service retrains clones.
    #[test]
    fn a_cloned_forest_continues_identically() {
        let d = kb_shaped(70, 4);
        let mut rf = RandomForest::new(3);
        rf.fit(&d.filter(|i| i < 40)).unwrap();
        let mut copy = rf.clone();
        let mut boxed = rf.clone_box();
        for (from, to) in [(40, 41), (41, 52), (52, 70)] {
            let grown = d.filter(|i| i < to);
            rf.partial_fit(&grown, from).unwrap();
            copy.partial_fit(&grown, from).unwrap();
            let inc = boxed.as_incremental().unwrap();
            inc.partial_fit(&grown, from).unwrap();
            assert_eq!(inc.fitted_len(), to);
        }
        assert_forests_identical(&rf, &copy, d.rows(), "clone");
        for x in d.rows() {
            assert_eq!(
                rf.predict(x).unwrap().to_bits(),
                boxed.predict(x).unwrap().to_bits()
            );
        }
    }

    #[test]
    fn partial_fit_checks_what_it_continues() {
        let d = kb_shaped(30, 2);
        let mut rf = RandomForest::new(1);
        assert!(matches!(
            rf.partial_fit(&d, 10),
            Err(MlError::IncrementalMismatch {
                fitted: 0,
                from: 10
            })
        ));
        rf.partial_fit(&d.filter(|i| i < 20), 0).unwrap();
        assert_eq!(rf.fitted_len(), 20);
        assert!(matches!(
            rf.partial_fit(&d, 15),
            Err(MlError::IncrementalMismatch {
                fitted: 20,
                from: 15
            })
        ));
        let narrow =
            Dataset::from_rows(vec!["x".into()], vec![vec![1.0]; 25], vec![1.0; 25]).unwrap();
        assert!(matches!(
            rf.partial_fit(&narrow, 20),
            Err(MlError::FeatureDimensionMismatch {
                expected: 10,
                got: 1
            })
        ));
        let before = rf.clone();
        rf.partial_fit(&d.filter(|i| i < 20), 20).unwrap();
        assert_forests_identical(&rf, &before, d.rows(), "no rows appended");
    }

    #[test]
    fn single_tree_forest_close_to_tree_family() {
        // A forest on a small base predicts as the trees' mean does: finitely.
        let d = wavy(40);
        let mut rf = RandomForest::new(4);
        rf.fit(&d).unwrap();
        let y = rf.predict(&[2.0]).unwrap();
        assert!(y.is_finite());
    }
}
