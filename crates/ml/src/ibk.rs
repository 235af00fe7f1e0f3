//! IBk — instance-based learning with `k` nearest neighbours
//! (Aha, Kibler & Albert, *Machine Learning* 6, 1991).
//!
//! Distances are Euclidean over min–max-normalized attributes, exactly as in
//! Weka's `IBk`. For regression the prediction is the mean of the `k = 3`
//! nearest targets, the paper's family's one setting (fewer when the
//! training set holds fewer rows).
//!
//! A query scans the store by column (`InstanceStore`): a row's squared
//! distance is its terms summed over the live columns, left to right from
//! 0.0, and the `k` smallest `(d², row)` pairs are kept in ascending order,
//! a tie going to the lower row. That is the neighbour list, and so the
//! mean, of the early-abandon row loop [`IbK::predict_linear`], which the
//! tests hold the scan to bit for bit. A grid column (`Column::fill`: rows
//! that differ from the first in one feature at most) shares the terms of
//! every column before the one it varies in, so the batch sums those once
//! and each row adds the rest in column order: the same sum, term for term.
//! A query whose distance to some row is NaN (a NaN in its standardized
//! value) takes the row loop itself, whose order among NaN distances the
//! scan does not mirror.
//!
//! The training state is append-only ([`IncrementalRegressor`]),
//! bit-identical to a from-scratch fit.

use crate::batch::{check_out_len, FeatureMatrix, PredictScratch};
use crate::dataset::Dataset;
use crate::instances::InstanceStore;
use crate::regressor::{IncrementalRegressor, Regressor};
use crate::MlError;

/// Neighbours a prediction averages.
const K: usize = 3;

/// The IBk k-nearest-neighbour regressor.
///
/// # Example
///
/// ```
/// use disar_ml::{Dataset, IbK, Regressor};
///
/// let mut data = Dataset::new(vec!["x".into()]);
/// for i in 0..10 {
///     data.push(vec![i as f64], i as f64).unwrap();
/// }
/// let mut knn = IbK::new();
/// knn.fit(&data).unwrap();
/// // The three nearest rows are 3, 4 and 2.
/// assert_eq!(knn.predict(&[3.2]).unwrap(), 3.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct IbK {
    fitted: Option<InstanceStore>,
}

impl IbK {
    /// An unfitted IBk model.
    pub fn new() -> Self {
        IbK { fitted: None }
    }

    /// The fitted store, for queries of width `dim`.
    fn store(&self, dim: usize) -> Result<&InstanceStore, MlError> {
        let store = self.fitted.as_ref().ok_or(MlError::NotFitted)?;
        if dim != store.scaler.dim() {
            return Err(MlError::FeatureDimensionMismatch {
                expected: store.scaler.dim(),
                got: dim,
            });
        }
        Ok(store)
    }

    /// The mean target of a sorted `(distance², row)` list.
    fn mean(targets: &[f64], neighbours: &[(f64, usize)]) -> f64 {
        neighbours.iter().map(|&(_, i)| targets[i]).sum::<f64>() / neighbours.len() as f64
    }

    /// Reference prediction through the early-abandon row loop.
    ///
    /// [`Regressor::predict_batch`] scans by column and must return
    /// bit-identical results; this path is the baseline of the property
    /// `ibk_batch_matches_the_row_loop` (`tests/proptests.rs`). It is not
    /// API — all real callers go through [`Regressor::predict_batch`].
    ///
    /// # Errors
    ///
    /// Same contract as [`Regressor::predict`].
    #[doc(hidden)]
    pub fn predict_linear(&self, x: &[f64]) -> Result<f64, MlError> {
        let store = self.store(x.len())?;
        let mut best = Vec::new();
        row_loop(
            store,
            &store.scaler.transform(x),
            K.min(store.len()),
            &mut best,
        );
        Ok(Self::mean(&store.targets, &best))
    }
}

/// Puts row `i` at squared distance `d2` into the sorted list `best`, after
/// the rows as near, and keeps its first `k`.
fn insert(best: &mut Vec<(f64, usize)>, k: usize, d2: f64, i: usize) {
    let pos = best.partition_point(|&(bd2, _)| bd2 <= d2);
    best.insert(pos, (d2, i));
    best.truncate(k);
}

/// The `k` rows nearest the standardized query `q`, into `best`, row by
/// row: a row is abandoned mid-sum once its partial distance exceeds the
/// current `k`-th best. Only rows whose *full* distance is strictly worse
/// are dropped, so the neighbour set matches a full scan (ties at the
/// boundary resolve to the lowest row index).
fn row_loop(store: &InstanceStore, q: &[f64], k: usize, best: &mut Vec<(f64, usize)>) {
    best.clear();
    'rows: for i in 0..store.len() {
        let threshold = if best.len() < k {
            f64::INFINITY
        } else {
            best[k - 1].0
        };
        let mut d2 = 0.0;
        for (j, col) in &store.cols {
            let t = col[i] - q[*j];
            d2 += t * t;
            if d2 > threshold {
                continue 'rows;
            }
        }
        insert(best, k, d2, i);
    }
}

/// The `k` rows nearest the standardized query `q`, into `best`, by a scan
/// that sums each row's distance in full into `dists`: `shared[i]` is row
/// `i`'s sum over the columns before `split`, to which the terms of the
/// others are added a column at a time, in column order. Returns `false`,
/// with `best` in no particular state, at a NaN distance.
fn scan(
    store: &InstanceStore,
    q: &[f64],
    k: usize,
    (split, shared): (usize, &[f64]),
    dists: &mut Vec<f64>,
    best: &mut Vec<(f64, usize)>,
) -> bool {
    dists.clear();
    dists.extend_from_slice(shared);
    for (j, col) in &store.cols[split..] {
        let qj = q[*j];
        for (d2, &c) in dists.iter_mut().zip(col) {
            let t = c - qj;
            *d2 += t * t;
        }
    }
    best.clear();
    let mut threshold = f64::INFINITY;
    for (run, d2s) in dists.chunks(8).enumerate() {
        // Eight rows all farther than the `k`-th best pass with no branch
        // per row: the fold is packed compares.
        if let Ok(d2s) = <&[f64; 8]>::try_from(d2s) {
            if d2s.iter().fold(true, |far, &d2| far & (d2 > threshold)) {
                continue;
            }
        }
        for (i, &d2) in (run * 8..).zip(d2s) {
            if d2 <= threshold {
                insert(best, k, d2, i);
                if best.len() == k {
                    threshold = best[k - 1].0;
                }
            } else if d2.is_nan() {
                return false;
            }
        }
    }
    true
}

impl Regressor for IbK {
    fn fit(&mut self, data: &Dataset) -> Result<(), MlError> {
        self.fitted = Some(InstanceStore::fit(data)?);
        Ok(())
    }

    /// The column scan per row, reusing one standardized-query buffer, one
    /// neighbour list and one row of shared sums across the whole batch.
    /// The shared sums are zeros unless the batch is a grid column.
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
        let store = self.store(xs.dim())?;
        let k = K.min(store.len());
        let PredictScratch {
            q,
            best,
            dists,
            column,
            sums: shared,
            ..
        } = scratch;
        let split = if column.fill(xs) {
            let before = |v| store.cols.partition_point(|&(j, _)| j < v);
            column.feature.map_or(store.cols.len(), before)
        } else {
            0
        };
        store.scaler.transform_into(xs.row(0), q);
        shared.clear();
        shared.resize(store.len(), 0.0);
        for (j, col) in &store.cols[..split] {
            let qj = q[*j];
            for (sum, &c) in shared.iter_mut().zip(col) {
                let t = c - qj;
                *sum += t * t;
            }
        }
        for (i, slot) in out.iter_mut().enumerate() {
            store.scaler.transform_into(xs.row(i), q);
            if !scan(store, q, k, (split, shared), dists, best) {
                row_loop(store, q, k, best);
            }
            *slot = Self::mean(&store.targets, best);
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "IBk"
    }

    fn clone_box(&self) -> Box<dyn Regressor> {
        Box::new(self.clone())
    }

    fn as_incremental(&mut self) -> Option<&mut dyn IncrementalRegressor> {
        Some(self)
    }
}

impl IncrementalRegressor for IbK {
    fn partial_fit(&mut self, data: &Dataset, from: usize) -> Result<(), MlError> {
        InstanceStore::partial_fit(&mut self.fitted, data, from)
    }

    fn fitted_len(&self) -> usize {
        self.fitted.as_ref().map_or(0, InstanceStore::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Dataset {
        let mut d = Dataset::new(vec!["x".into(), "y".into()]);
        for i in 0..10 {
            for j in 0..10 {
                d.push(vec![i as f64, j as f64], (i + j) as f64).unwrap();
            }
        }
        d
    }

    /// The mean target of the `k` rows the scan finds nearest `x`: the
    /// prediction at a neighbour count other than `K`.
    fn mean_of_nearest(m: &IbK, x: &[f64], k: usize) -> f64 {
        let store = m.fitted.as_ref().unwrap();
        let (q, zeros) = (store.scaler.transform(x), vec![0.0; store.len()]);
        let (mut dists, mut best) = (Vec::new(), Vec::new());
        assert!(scan(store, &q, k, (0, &zeros), &mut dists, &mut best));
        IbK::mean(&store.targets, &best)
    }

    #[test]
    fn one_nn_memorizes_training_set() {
        let d = grid();
        let mut m = IbK::new();
        m.fit(&d).unwrap();
        for i in 0..d.len() {
            let (x, y) = d.get(i);
            assert_eq!(mean_of_nearest(&m, x, 1), y);
            assert_eq!(mean_of_nearest(&m, x, K), m.predict(x).unwrap());
        }
    }

    #[test]
    fn k_larger_than_dataset_uses_all() {
        let mut d = Dataset::new(vec!["x".into()]);
        d.push(vec![0.0], 2.0).unwrap();
        d.push(vec![1.0], 4.0).unwrap();
        let mut m = IbK::new();
        m.fit(&d).unwrap();
        assert_eq!(m.predict(&[0.5]).unwrap(), 3.0);
    }

    #[test]
    fn normalization_makes_scales_comparable() {
        // Feature "big" spans 0..10000, feature "small" 0..1 and carries the
        // signal; without normalization "big" would dominate distances.
        let mut d = Dataset::new(vec!["big".into(), "small".into()]);
        for i in 0..50 {
            let big = (i * 97 % 10_000) as f64;
            let small = (i % 2) as f64;
            d.push(vec![big, small], small * 100.0).unwrap();
        }
        let mut m = IbK::new();
        m.fit(&d).unwrap();
        let y = m.predict(&[5000.0, 1.0]).unwrap();
        assert!((y - 100.0).abs() < 1e-9, "got {y}");
    }

    #[test]
    fn early_abandon_matches_brute_force_neighbours() {
        // 1-D line: the 3 nearest to 17.3 are 17, 18, 16 → mean 17.
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..50 {
            d.push(vec![i as f64], i as f64).unwrap();
        }
        let mut m = IbK::new();
        m.fit(&d).unwrap();
        assert!((m.predict(&[17.3]).unwrap() - 17.0).abs() < 1e-12);
        assert!((m.predict_linear(&[17.3]).unwrap() - 17.0).abs() < 1e-12);

        // 2-D grid: the 3 nearest to (3.2, 7.1) are (3,7), (4,7), (3,8)
        // → targets 10, 11, 11 → mean 32/3.
        let mut m = IbK::new();
        m.fit(&grid()).unwrap();
        assert!((m.predict(&[3.2, 7.1]).unwrap() - 32.0 / 3.0).abs() < 1e-12);
        assert!((m.predict_linear(&[3.2, 7.1]).unwrap() - 32.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn scan_matches_the_row_loop() {
        let d = grid();
        let mut m = IbK::new();
        m.fit(&d).unwrap();
        for q in [[3.2, 7.1], [0.0, 0.0], [-4.0, 15.0], [9.5, 0.5], [4.5, 4.5]] {
            let scanned = m.predict(&q).unwrap();
            let linear = m.predict_linear(&q).unwrap();
            assert_eq!(scanned.to_bits(), linear.to_bits(), "q={q:?}");
        }
    }

    /// A store whose range overflows holds NaN where a value minus the
    /// minimum overflows too: a query at a finite distance from every other
    /// row takes the row loop, and its answer is the loop's.
    #[test]
    fn a_nan_distance_takes_the_row_loop() {
        let mut d = Dataset::new(vec!["wide".into(), "x".into()]);
        for (i, w) in [-1e308, 1e308, 0.0, 5.0, -7.0].into_iter().enumerate() {
            d.push(vec![w, i as f64], i as f64).unwrap();
        }
        let mut m = IbK::new();
        m.fit(&d).unwrap();
        let store = m.fitted.as_ref().unwrap();
        assert!(store.cols[0].1[1].is_nan(), "1e308 - (-1e308) overflows");
        for q in [[0.0, 1.0], [1e308, 3.0], [f64::NAN, 2.0], [3.0, f64::NAN]] {
            let (scanned, linear) = (m.predict(&q).unwrap(), m.predict_linear(&q).unwrap());
            assert_eq!(scanned.to_bits(), linear.to_bits(), "q={q:?}");
        }
    }

    #[test]
    fn partial_fit_matches_full_fit() {
        let d = grid();
        let mut full = IbK::new();
        full.fit(&d).unwrap();
        let mut inc = IbK::new();
        inc.partial_fit(&d.filter(|i| i < 30), 0).unwrap();
        assert_eq!(inc.fitted_len(), 30);
        inc.partial_fit(&d, 30).unwrap();
        assert_eq!(inc.fitted_len(), 100);
        for q in [[3.2, 7.1], [0.0, 0.0], [11.0, -2.0]] {
            assert_eq!(
                inc.predict(&q).unwrap().to_bits(),
                full.predict(&q).unwrap().to_bits()
            );
        }
        // Offsets that do not continue the fitted prefix are rejected.
        assert!(matches!(
            inc.partial_fit(&d, 10),
            Err(MlError::IncrementalMismatch { .. })
        ));
    }

    #[test]
    fn dimension_check() {
        let d = grid();
        let mut m = IbK::new();
        m.fit(&d).unwrap();
        assert!(matches!(
            m.predict(&[1.0]),
            Err(MlError::FeatureDimensionMismatch { .. })
        ));
    }
}
