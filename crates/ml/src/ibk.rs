//! IBk — instance-based learning with `k` nearest neighbours
//! (Aha, Kibler & Albert, *Machine Learning* 6, 1991).
//!
//! Distances are Euclidean over min–max-normalized attributes, exactly as in
//! Weka's `IBk`. For regression the prediction is the mean of the `k = 3`
//! nearest targets, the paper's family's one setting (fewer when the
//! training set holds fewer rows).
//!
//! Neighbour lookups run through a kd-tree ([`crate::neighbours`]) and the
//! training state is append-only ([`IncrementalRegressor`]); both are
//! bit-identical to the from-scratch fit + early-abandon linear scan, which
//! is kept as [`IbK::predict_linear`] for the equivalence tests and benches.

use crate::batch::{check_out_len, FeatureMatrix, PredictScratch};
use crate::dataset::Dataset;
use crate::instances::InstanceStore;
use crate::neighbours::NeighbourIndex;
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
    fitted: Option<Fitted>,
}

/// The training set and the kd-tree over its standardized rows.
#[derive(Debug, Clone)]
struct Fitted {
    store: InstanceStore,
    index: NeighbourIndex,
}

impl IbK {
    /// An unfitted IBk model.
    pub fn new() -> Self {
        IbK { fitted: None }
    }

    fn standardized_query(&self, x: &[f64]) -> Result<(&Fitted, Vec<f64>), MlError> {
        let f = self.fitted.as_ref().ok_or(MlError::NotFitted)?;
        if x.len() != f.store.scaler.dim() {
            return Err(MlError::FeatureDimensionMismatch {
                expected: f.store.scaler.dim(),
                got: x.len(),
            });
        }
        Ok((f, f.store.scaler.transform(x)))
    }

    /// The mean target of a sorted `(distance², row)` list.
    fn mean(f: &InstanceStore, neighbours: &[(f64, usize)]) -> f64 {
        neighbours.iter().map(|&(_, i)| f.targets[i]).sum::<f64>() / neighbours.len() as f64
    }

    /// Reference prediction via the original early-abandon **linear scan**.
    ///
    /// [`Regressor::predict`] goes through the kd-tree and must return
    /// bit-identical results; this path is the baseline of the property
    /// `ibk_index_matches_linear_scan` (`tests/proptests.rs`). It is not API —
    /// all real callers go through [`Regressor::predict_batch`].
    ///
    /// # Errors
    ///
    /// Same contract as [`Regressor::predict`].
    #[doc(hidden)]
    pub fn predict_linear(&self, x: &[f64]) -> Result<f64, MlError> {
        let (f, q) = self.standardized_query(x)?;
        let f = &f.store;
        // The k smallest (distance², index), kept sorted ascending. A row is
        // abandoned mid-sum once its partial distance exceeds the current
        // k-th best: only rows whose *full* distance is strictly worse are
        // dropped, so the neighbour set matches a full scan (ties at the
        // boundary resolve to the lowest row index).
        let k = K.min(f.rows.len());
        let mut best: Vec<(f64, usize)> = Vec::with_capacity(k + 1);
        for (i, r) in f.rows.iter().enumerate() {
            let threshold = if best.len() < k {
                f64::INFINITY
            } else {
                best[k - 1].0
            };
            let mut d2 = 0.0;
            let mut abandoned = false;
            for (a, b) in r.iter().zip(&q) {
                d2 += (a - b) * (a - b);
                if d2 > threshold {
                    abandoned = true;
                    break;
                }
            }
            if abandoned {
                continue;
            }
            let pos = best.partition_point(|&(bd2, _)| bd2 <= d2);
            best.insert(pos, (d2, i));
            best.truncate(k);
        }
        Ok(Self::mean(f, &best[..k]))
    }
}

impl Regressor for IbK {
    fn fit(&mut self, data: &Dataset) -> Result<(), MlError> {
        let store = InstanceStore::fit(data)?;
        let index = NeighbourIndex::build(&store.rows);
        self.fitted = Some(Fitted { store, index });
        Ok(())
    }

    /// Batched kd-tree queries reusing one standardized-query buffer and one
    /// neighbour heap across the whole batch; each row is standardized,
    /// searched and tie-broken on its own.
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
        let Fitted { store, index } = f;
        if xs.dim() != store.scaler.dim() {
            return Err(MlError::FeatureDimensionMismatch {
                expected: store.scaler.dim(),
                got: xs.dim(),
            });
        }
        let k = K.min(store.rows.len());
        for (i, slot) in out.iter_mut().enumerate() {
            store.scaler.transform_into(xs.row(i), &mut scratch.q);
            index.nearest_into(&store.rows, &scratch.q, k, &mut scratch.best);
            *slot = Self::mean(store, &scratch.best);
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
        match &mut self.fitted {
            Some(Fitted { store, index }) => {
                let start = store.len();
                if store.extend(data, from)? {
                    *index = NeighbourIndex::build(&store.rows);
                } else {
                    index.append(&store.rows, start);
                }
                Ok(())
            }
            None if from == 0 => self.fit(data),
            None => Err(MlError::IncrementalMismatch { fitted: 0, from }),
        }
    }

    fn fitted_len(&self) -> usize {
        self.fitted.as_ref().map_or(0, |f| f.store.len())
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

    /// The mean target of the `k` rows the fitted index finds nearest `x`:
    /// the prediction at a neighbour count other than `K`.
    fn mean_of_nearest(m: &IbK, x: &[f64], k: usize) -> f64 {
        let Fitted { store, index } = m.fitted.as_ref().unwrap();
        let mut best = Vec::new();
        index.nearest_into(&store.rows, &store.scaler.transform(x), k, &mut best);
        IbK::mean(store, &best)
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
    fn indexed_predict_matches_linear_scan() {
        let d = grid();
        let mut m = IbK::new();
        m.fit(&d).unwrap();
        for q in [[3.2, 7.1], [0.0, 0.0], [-4.0, 15.0], [9.5, 0.5], [4.5, 4.5]] {
            let indexed = m.predict(&q).unwrap();
            let linear = m.predict_linear(&q).unwrap();
            assert_eq!(indexed.to_bits(), linear.to_bits(), "q={q:?}");
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
