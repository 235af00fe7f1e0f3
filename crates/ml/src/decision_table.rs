//! Decision Table majority regressor (Kohavi, *The Power of Decision
//! Tables*, ECML 1995; Weka's `DecisionTable`).
//!
//! A decision table stores, for a selected subset of (discretized)
//! attributes, the mean training target of every observed attribute
//! combination. Queries look their cell up; unseen cells fall back to the
//! global training mean. The attribute subset is chosen by best-first
//! search maximizing leave-one-out cross-validation accuracy (here: minimal
//! LOO RMSE), as in Kohavi's DTM with Weka's default search.

use crate::batch::{check_out_len, FeatureMatrix, PredictScratch};
use crate::dataset::{Dataset, Scaler};
use crate::regressor::Regressor;
use crate::MlError;
use std::collections::HashMap;

/// Number of equal-width bins used to discretize each numeric attribute.
const DEFAULT_BINS: usize = 10;
/// Best-first search stops after this many non-improving expansions.
const DEFAULT_STALE_LIMIT: usize = 5;

/// The Decision Table regressor.
///
/// # Example
///
/// ```
/// use disar_ml::{Dataset, DecisionTable, Regressor};
///
/// let mut data = Dataset::new(vec!["x".into(), "junk".into()]);
/// for i in 0..40 {
///     let x = (i % 4) as f64;
///     data.push(vec![x, (i % 7) as f64], x * 100.0).unwrap();
/// }
/// let mut dt = DecisionTable::with_defaults();
/// dt.fit(&data).unwrap();
/// assert!((dt.predict(&[2.0, 3.0]).unwrap() - 200.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct DecisionTable {
    bins: usize,
    stale_limit: usize,
    fitted: Option<FittedTable>,
}

#[derive(Debug, Clone)]
struct FittedTable {
    dim: usize,
    selected: Vec<usize>,
    mins: Vec<f64>,
    widths: Vec<f64>,
    bins: usize,
    cells: HashMap<Vec<u32>, f64>,
    global_mean: f64,
}

impl DecisionTable {
    /// Weka-like defaults: 10 discretization bins, best-first search with a
    /// stale limit of 5.
    pub fn with_defaults() -> Self {
        DecisionTable {
            bins: DEFAULT_BINS,
            stale_limit: DEFAULT_STALE_LIMIT,
            fitted: None,
        }
    }

    /// Fully parameterized constructor.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidHyperparameter`] for zero bins or a zero
    /// stale limit.
    pub fn new(bins: usize, stale_limit: usize) -> Result<Self, MlError> {
        if bins == 0 {
            return Err(MlError::InvalidHyperparameter("bins must be > 0"));
        }
        if stale_limit == 0 {
            return Err(MlError::InvalidHyperparameter("stale_limit must be > 0"));
        }
        Ok(DecisionTable {
            bins,
            stale_limit,
            fitted: None,
        })
    }

    /// The attribute indices the best-first search selected (empty before
    /// fitting; an empty selection after fitting means "always predict the
    /// global mean").
    pub fn selected_features(&self) -> &[usize] {
        self.fitted.as_ref().map_or(&[], |f| &f.selected)
    }

    fn discretize(v: f64, min: f64, width: f64, bins: usize) -> u32 {
        if width == 0.0 {
            return 0;
        }
        (((v - min) / width).floor().clamp(0.0, (bins - 1) as f64)) as u32
    }
}

/// `Groups::slots` of a slot no row has fallen in yet.
const EMPTY: u32 = u32::MAX;

/// The rows grouped by their keys on an attribute subset, as the best-first
/// search walks it: a candidate subset is the search's current one plus one
/// column, so its groups are the current groups split by that column's key.
/// Groups are numbered as their first rows come and summed in row order.
struct Groups<'a> {
    /// `keys[j * n + i]` is the bin of row `i` in column `j`.
    keys: &'a [u32],
    targets: &'a [f64],
    bins: usize,
    /// Every row's group under the current subset, and how many there are.
    gid: Vec<u32>,
    n_groups: usize,
    /// The last refinement: every row's group, every group's target sum and
    /// row count, and the table `gid * bins + key` → group it was numbered
    /// through.
    fine: Vec<u32>,
    sums: Vec<(f64, u32)>,
    slots: Vec<u32>,
}

impl<'a> Groups<'a> {
    fn new(keys: &'a [u32], targets: &'a [f64], bins: usize) -> Self {
        let n = targets.len();
        let mut groups = Groups {
            keys,
            targets,
            bins,
            gid: vec![0; n],
            n_groups: 0,
            fine: vec![0; n],
            sums: Vec::new(),
            slots: Vec::new(),
        };
        groups.root();
        groups
    }

    /// The empty subset as the last refinement: one group of all the rows.
    fn root(&mut self) {
        self.fine.fill(0);
        self.sums.clear();
        let sum = self.targets.iter().fold(0.0, |s, y| s + y);
        self.sums.push((sum, self.targets.len() as u32));
    }

    /// Splits the current groups by column `j`.
    fn refine(&mut self, j: usize) {
        let n = self.targets.len();
        self.slots.clear();
        self.slots.resize(self.n_groups * self.bins, EMPTY);
        self.sums.clear();
        let column = &self.keys[j * n..(j + 1) * n];
        for (i, (&g, &key)) in self.gid.iter().zip(column).enumerate() {
            let slot = &mut self.slots[g as usize * self.bins + key as usize];
            if *slot == EMPTY {
                *slot = self.sums.len() as u32;
                // `0.0 + y`, as `+=` onto a fresh sum gives: a -0.0 target
                // starts its group at 0.0.
                self.sums.push((0.0 + self.targets[i], 1));
            } else {
                let sum = &mut self.sums[*slot as usize];
                sum.0 += self.targets[i];
                sum.1 += 1;
            }
            self.fine[i] = *slot;
        }
    }

    /// Makes the last refinement the current subset.
    fn adopt(&mut self) {
        std::mem::swap(&mut self.gid, &mut self.fine);
        self.n_groups = self.sums.len();
    }

    /// Leave-one-out RMSE of the table keyed as the last refinement groups.
    fn score(&self) -> f64 {
        let n = self.targets.len() as f64;
        let global_sum: f64 = self.targets.iter().sum();
        let mut sse = 0.0;
        for (&g, &y) in self.fine.iter().zip(self.targets) {
            let (sum, cnt) = self.sums[g as usize];
            let pred = if cnt > 1 {
                (sum - y) / (cnt - 1) as f64
            } else if n > 1.0 {
                // Singleton cell: LOO falls back to the global mean without y.
                (global_sum - y) / (n - 1.0)
            } else {
                y
            };
            sse += (pred - y) * (pred - y);
        }
        (sse / n).sqrt()
    }
}

impl Regressor for DecisionTable {
    fn fit(&mut self, data: &Dataset) -> Result<(), MlError> {
        if data.is_empty() {
            return Err(MlError::EmptyTrainingSet);
        }
        let (n, d) = (data.len(), data.dim());
        // Per-attribute discretization parameters.
        let scaler = Scaler::fit(data)?;
        let mins = scaler.mins().to_vec();
        // A column that never varies has width zero and one bin.
        let widths: Vec<f64> = scaler
            .ranges()
            .iter()
            .map(|r| r / self.bins as f64)
            .collect();
        // Pre-discretize all rows over all attributes, by column.
        let mut keys = Vec::with_capacity(n * d);
        for j in 0..d {
            let bin = |row: &Vec<f64>| Self::discretize(row[j], mins[j], widths[j], self.bins);
            keys.extend(data.rows().iter().map(bin));
        }

        // Best-first forward selection: start from the empty subset
        // (global-mean predictor), greedily add the attribute that most
        // reduces LOO RMSE, allow `stale_limit` non-improving additions
        // before stopping, keep the best subset seen. A column that never
        // varies splits no group: it ties with the current score and uses up
        // a stale round like any other.
        let mut groups = Groups::new(&keys, data.targets(), self.bins);
        let mut best_subset: Vec<usize> = Vec::new();
        let mut best_score = groups.score();
        groups.adopt();
        let mut current: Vec<usize> = Vec::new();
        let mut stale = 0;
        while stale < self.stale_limit && current.len() < d {
            let mut round_best: Option<(f64, usize)> = None;
            for j in 0..d {
                if current.contains(&j) {
                    continue;
                }
                groups.refine(j);
                let score = groups.score();
                if round_best.is_none_or(|(s, _)| score < s) {
                    round_best = Some((score, j));
                }
            }
            let Some((score, j)) = round_best else { break };
            current.push(j);
            groups.refine(j);
            groups.adopt();
            if score + 1e-12 < best_score {
                best_score = score;
                best_subset = current.clone();
                stale = 0;
            } else {
                stale += 1;
            }
        }

        // Build the final table on the winning subset: a cell per group,
        // entered at the group's first row.
        groups.root();
        for &j in &best_subset {
            groups.adopt();
            groups.refine(j);
        }
        let mut cells = HashMap::with_capacity(groups.sums.len());
        for (i, &g) in groups.fine.iter().enumerate() {
            if g as usize == cells.len() {
                let (sum, cnt) = groups.sums[g as usize];
                let key = best_subset.iter().map(|&j| keys[j * n + i]).collect();
                cells.insert(key, sum / cnt as f64);
            }
        }

        self.fitted = Some(FittedTable {
            dim: d,
            selected: best_subset,
            mins,
            widths,
            bins: self.bins,
            cells,
            global_mean: data.target_mean(),
        });
        Ok(())
    }

    /// Table lookup reusing one discretized-key buffer across the batch.
    /// (`HashMap<Vec<u32>, _>` can be probed with a `&[u32]` key because
    /// `Vec<u32>: Borrow<[u32]>`.)
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
        let f = self.fitted.as_ref().ok_or(MlError::NotFitted)?;
        if xs.dim() != f.dim {
            return Err(MlError::FeatureDimensionMismatch {
                expected: f.dim,
                got: xs.dim(),
            });
        }
        let key = &mut scratch.key;
        for (i, slot) in out.iter_mut().enumerate() {
            let x = xs.row(i);
            key.clear();
            key.extend(
                f.selected
                    .iter()
                    .map(|&j| Self::discretize(x[j], f.mins[j], f.widths[j], f.bins)),
            );
            *slot = *f.cells.get(key.as_slice()).unwrap_or(&f.global_mean);
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "DT"
    }

    fn clone_box(&self) -> Box<dyn Regressor> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Leave-one-out RMSE of the table keyed on `subset`, the way the search
    /// scored a subset before it refined group numbers: every row's projected
    /// key hashed, once to sum its group and once to read it.
    fn loo_rmse(keys: &[Vec<u32>], targets: &[f64], subset: &[usize]) -> f64 {
        let mut groups: HashMap<Vec<u32>, (f64, u32)> = HashMap::new(); // sum, n
        for (key, &y) in keys.iter().zip(targets) {
            let e = groups
                .entry(subset.iter().map(|&j| key[j]).collect())
                .or_insert((0.0, 0));
            e.0 += y;
            e.1 += 1;
        }
        let n = targets.len() as f64;
        let global_sum: f64 = targets.iter().sum();
        let mut sse = 0.0;
        for (key, &y) in keys.iter().zip(targets) {
            let pk: Vec<u32> = subset.iter().map(|&j| key[j]).collect();
            let (sum, cnt) = groups[&pk];
            let pred = if cnt > 1 {
                (sum - y) / (cnt - 1) as f64
            } else if n > 1.0 {
                (global_sum - y) / (n - 1.0)
            } else {
                y
            };
            sse += (pred - y) * (pred - y);
        }
        (sse / n).sqrt()
    }

    /// The bins of `x` in a table fitted on `data`.
    fn binned(data: &Dataset, bins: usize, x: &[f64]) -> Vec<u32> {
        let s = Scaler::fit(data).unwrap();
        let bin = |(j, &v): (usize, &f64)| {
            DecisionTable::discretize(v, s.mins()[j], s.ranges()[j] / bins as f64, bins)
        };
        x.iter().enumerate().map(bin).collect()
    }

    /// The best-first search over the hashing scorer, and the table built on
    /// its subset by hashing: `(selected, cells)`.
    fn reference_fit(
        data: &Dataset,
        bins: usize,
        stale_limit: usize,
    ) -> (Vec<usize>, HashMap<Vec<u32>, f64>) {
        let d = data.dim();
        let keys: Vec<Vec<u32>> = data.rows().iter().map(|x| binned(data, bins, x)).collect();
        let mut best_subset: Vec<usize> = Vec::new();
        let mut best_score = loo_rmse(&keys, data.targets(), &best_subset);
        let mut current: Vec<usize> = Vec::new();
        let mut stale = 0;
        while stale < stale_limit && current.len() < d {
            let mut round_best: Option<(f64, usize)> = None;
            for j in (0..d).filter(|j| !current.contains(j)) {
                let mut cand = current.clone();
                cand.push(j);
                let score = loo_rmse(&keys, data.targets(), &cand);
                if round_best.is_none_or(|(s, _)| score < s) {
                    round_best = Some((score, j));
                }
            }
            let Some((score, j)) = round_best else { break };
            current.push(j);
            if score + 1e-12 < best_score {
                (best_score, best_subset, stale) = (score, current.clone(), 0);
            } else {
                stale += 1;
            }
        }
        let mut sums: HashMap<Vec<u32>, (f64, u32)> = HashMap::new();
        for (key, &y) in keys.iter().zip(data.targets()) {
            let e = sums
                .entry(best_subset.iter().map(|&j| key[j]).collect())
                .or_insert((0.0, 0));
            e.0 += y;
            e.1 += 1;
        }
        let cells = sums.into_iter().map(|(k, (s, c))| (k, s / c as f64));
        (best_subset, cells.collect())
    }

    /// Rows over a small alphabet (duplicate rows and shared cells are the
    /// rule), a column that never varies, targets that are often `-0.0`.
    fn tied_rows(rng: &mut disar_math::rng::Xoshiro256PlusPlus, n: usize) -> Dataset {
        let d = rng.gen_range(1..6usize);
        let constant = rng.gen_range(0..d);
        let mut data = Dataset::new((0..d).map(|j| format!("c{j}")).collect());
        for _ in 0..n {
            let cell = |j| {
                if j == constant {
                    7.0
                } else {
                    rng.gen_range(0..4) as f64 * 2.5
                }
            };
            let x: Vec<f64> = (0..d).map(cell).collect();
            let y = if rng.gen_bool(0.3) {
                -0.0
            } else {
                x[0] - rng.gen_range(0..3) as f64
            };
            data.push(x, y).unwrap();
        }
        data
    }

    #[test]
    fn refined_groups_score_as_the_hashed_keys_do() {
        use crate::dataset::tests::{kb_shaped, shard_shaped};
        disar_math::check::cases(40, |rng| {
            let n = [1, 2, 9, 40, 120][rng.gen_range(0..5usize)];
            let data = match rng.gen_range(0..4u32) {
                0 => kb_shaped(n, rng.next_u64()),
                1 => shard_shaped(n, rng.next_u64()),
                _ => tied_rows(rng, n),
            };
            let bins = [1, 3, 10, 64][rng.gen_range(0..4usize)];

            // Score for score along a random walk of the subsets.
            let (n, d) = (data.len(), data.dim());
            let by_row: Vec<Vec<u32>> =
                data.rows().iter().map(|x| binned(&data, bins, x)).collect();
            let by_column: Vec<u32> = (0..d * n).map(|at| by_row[at % n][at / n]).collect();
            let mut groups = Groups::new(&by_column, data.targets(), bins);
            let mut order: Vec<usize> = (0..d).collect();
            rng.shuffle(&mut order);
            let score = |g: &Groups, subset: &[usize]| {
                let hashed = loo_rmse(&by_row, data.targets(), subset);
                assert_eq!(g.score().to_bits(), hashed.to_bits(), "{subset:?}");
            };
            score(&groups, &[]);
            for at in 0..d {
                groups.adopt();
                for &j in &order[at..] {
                    groups.refine(j);
                    score(&groups, &[&order[..at], &[j]].concat());
                }
                groups.refine(order[at]);
            }

            // The fitted table: same subset, same cells, same answers.
            let stale_limit = rng.gen_range(1..6usize);
            let mut dt = DecisionTable::new(bins, stale_limit).unwrap();
            dt.fit(&data).unwrap();
            let (selected, cells) = reference_fit(&data, bins, stale_limit);
            let f = dt.fitted.as_ref().unwrap();
            assert_eq!(f.selected, selected);
            let bits = |cells: &HashMap<Vec<u32>, f64>| {
                let mut cells: Vec<_> = cells
                    .iter()
                    .map(|(k, v)| (k.clone(), v.to_bits()))
                    .collect();
                cells.sort();
                cells
            };
            assert_eq!(bits(&f.cells), bits(&cells));
            let strangers = tied_rows(rng, 4);
            for x in data
                .rows()
                .iter()
                .chain(strangers.rows().iter().filter(|x| x.len() == d))
            {
                let bins_of_x = binned(&data, bins, x);
                let key: Vec<u32> = selected.iter().map(|&j| bins_of_x[j]).collect();
                let expected = cells.get(&key).copied().unwrap_or(data.target_mean());
                assert_eq!(dt.predict(x).unwrap().to_bits(), expected.to_bits());
            }
        });
    }

    #[test]
    fn selects_informative_feature_ignores_noise() {
        let mut d = Dataset::new(vec!["signal".into(), "noise".into()]);
        for i in 0..200 {
            let s = (i % 5) as f64;
            let n = ((i * 31) % 13) as f64;
            d.push(vec![s, n], s * 10.0).unwrap();
        }
        let mut dt = DecisionTable::with_defaults();
        dt.fit(&d).unwrap();
        assert!(dt.selected_features().contains(&0));
        assert!((dt.predict(&[3.0, 12.0]).unwrap() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn unseen_cell_falls_back_to_global_mean() {
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..10 {
            d.push(vec![i as f64], i as f64).unwrap();
        }
        let mut dt = DecisionTable::with_defaults();
        dt.fit(&d).unwrap();
        // Far outside → clamps to edge bin, still a seen cell; instead use a
        // constant-target check below for the fallback.
        let mut d2 = Dataset::new(vec!["x".into(), "y".into()]);
        d2.push(vec![0.0, 0.0], 1.0).unwrap();
        d2.push(vec![9.0, 9.0], 3.0).unwrap();
        let mut dt2 = DecisionTable::with_defaults();
        dt2.fit(&d2).unwrap();
        // A middle cell was never observed when both features are selected;
        // if no feature is selected the prediction is the global mean anyway.
        let y = dt2.predict(&[4.5, 0.0]).unwrap();
        assert!(y.is_finite());
    }

    #[test]
    fn constant_target_predicts_constant() {
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..20 {
            d.push(vec![i as f64], 5.5).unwrap();
        }
        let mut dt = DecisionTable::with_defaults();
        dt.fit(&d).unwrap();
        assert_eq!(dt.predict(&[3.0]).unwrap(), 5.5);
        // No feature can improve on the global mean.
        assert!(dt.selected_features().is_empty());
    }

    #[test]
    fn piecewise_constant_function_recovered() {
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..100 {
            let x = i as f64 / 10.0; // 0..10
            let y = if x < 5.0 { -50.0 } else { 70.0 };
            d.push(vec![x], y).unwrap();
        }
        let mut dt = DecisionTable::with_defaults();
        dt.fit(&d).unwrap();
        assert_eq!(dt.predict(&[1.0]).unwrap(), -50.0);
        assert_eq!(dt.predict(&[9.0]).unwrap(), 70.0);
    }

    #[test]
    fn rejects_invalid_hyperparameters() {
        assert!(DecisionTable::new(0, 5).is_err());
        assert!(DecisionTable::new(10, 0).is_err());
    }

    #[test]
    fn empty_training_set_rejected() {
        let d = Dataset::new(vec!["x".into()]);
        let mut dt = DecisionTable::with_defaults();
        assert!(matches!(dt.fit(&d), Err(MlError::EmptyTrainingSet)));
    }

    #[test]
    fn constant_feature_maps_to_single_bin() {
        let mut d = Dataset::new(vec!["c".into(), "x".into()]);
        for i in 0..30 {
            d.push(vec![7.0, (i % 3) as f64], ((i % 3) * 10) as f64)
                .unwrap();
        }
        let mut dt = DecisionTable::with_defaults();
        dt.fit(&d).unwrap();
        assert!((dt.predict(&[7.0, 1.0]).unwrap() - 10.0).abs() < 1e-9);
    }
}
