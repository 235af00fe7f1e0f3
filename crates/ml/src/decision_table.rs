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
use crate::dataset::Dataset;
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

    /// Leave-one-out RMSE of the table keyed on `subset`.
    fn loo_rmse(
        keys: &[Vec<u32>],
        targets: &[f64],
        subset: &[usize],
    ) -> f64 {
        // Group rows by the projected key, built in one buffer and copied
        // only when it names a new group.
        let mut pk: Vec<u32> = Vec::with_capacity(subset.len());
        let mut groups: HashMap<Vec<u32>, (f64, u32)> = HashMap::new(); // sum, n
        for (key, &y) in keys.iter().zip(targets) {
            pk.clear();
            pk.extend(subset.iter().map(|&j| key[j]));
            if let Some(e) = groups.get_mut(pk.as_slice()) {
                e.0 += y;
                e.1 += 1;
            } else {
                // `0.0 + y`, as `+=` onto a fresh sum gives: a -0.0 target
                // starts its group at 0.0.
                groups.insert(pk.clone(), (0.0 + y, 1));
            }
        }
        let n = targets.len() as f64;
        let global_sum: f64 = targets.iter().sum();
        let mut sse = 0.0;
        for (key, &y) in keys.iter().zip(targets) {
            pk.clear();
            pk.extend(subset.iter().map(|&j| key[j]));
            let &(sum, cnt) = groups.get(pk.as_slice()).expect("group exists");
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
        let d = data.dim();
        // Per-attribute discretization parameters.
        let mut mins = vec![f64::INFINITY; d];
        let mut maxs = vec![f64::NEG_INFINITY; d];
        for row in data.rows() {
            for j in 0..d {
                mins[j] = mins[j].min(row[j]);
                maxs[j] = maxs[j].max(row[j]);
            }
        }
        let widths: Vec<f64> = (0..d)
            .map(|j| {
                let r = maxs[j] - mins[j];
                if r == 0.0 {
                    0.0
                } else {
                    r / self.bins as f64
                }
            })
            .collect();
        // Pre-discretize all rows over all attributes.
        let keys: Vec<Vec<u32>> = data
            .rows()
            .iter()
            .map(|row| {
                (0..d)
                    .map(|j| Self::discretize(row[j], mins[j], widths[j], self.bins))
                    .collect()
            })
            .collect();

        // Best-first forward selection: start from the empty subset
        // (global-mean predictor), greedily add the attribute that most
        // reduces LOO RMSE, allow `stale_limit` non-improving additions
        // before stopping, keep the best subset seen.
        let mut best_subset: Vec<usize> = Vec::new();
        let mut best_score = Self::loo_rmse(&keys, data.targets(), &best_subset);
        let mut current: Vec<usize> = Vec::new();
        let mut stale = 0;
        while stale < self.stale_limit && current.len() < d {
            let mut round_best: Option<(f64, usize)> = None;
            for j in 0..d {
                if current.contains(&j) {
                    continue;
                }
                let mut cand = current.clone();
                cand.push(j);
                let score = Self::loo_rmse(&keys, data.targets(), &cand);
                if round_best.is_none_or(|(s, _)| score < s) {
                    round_best = Some((score, j));
                }
            }
            let Some((score, j)) = round_best else { break };
            current.push(j);
            if score + 1e-12 < best_score {
                best_score = score;
                best_subset = current.clone();
                stale = 0;
            } else {
                stale += 1;
            }
        }

        // Build the final table on the winning subset.
        let mut sums: HashMap<Vec<u32>, (f64, u32)> = HashMap::new();
        for (key, &y) in keys.iter().zip(data.targets()) {
            let pk: Vec<u32> = best_subset.iter().map(|&j| key[j]).collect();
            let e = sums.entry(pk).or_insert((0.0, 0));
            e.0 += y;
            e.1 += 1;
        }
        let cells = sums
            .into_iter()
            .map(|(k, (s, c))| (k, s / c as f64))
            .collect();

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

    fn predict(&self, x: &[f64]) -> Result<f64, MlError> {
        let f = self.fitted.as_ref().ok_or(MlError::NotFitted)?;
        if x.len() != f.dim {
            return Err(MlError::FeatureDimensionMismatch {
                expected: f.dim,
                got: x.len(),
            });
        }
        let key: Vec<u32> = f
            .selected
            .iter()
            .map(|&j| Self::discretize(x[j], f.mins[j], f.widths[j], f.bins))
            .collect();
        Ok(*f.cells.get(&key).unwrap_or(&f.global_mean))
    }

    /// Batched lookup reusing one discretized-key buffer across the batch.
    /// The key is built with the same discretization in the same selected-
    /// attribute order, so every output is bit-identical to
    /// [`Regressor::predict`]. (`HashMap<Vec<u32>, _>` can be probed with a
    /// `&[u32]` key because `Vec<u32>: Borrow<[u32]>`.)
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
