//! Shared append-only training state for the instance-based learners.
//!
//! [`IbK`](crate::IbK) and [`KStar`](crate::KStar) both keep their training
//! set standardized: a min–max scaler, the standardized rows by column and
//! the targets. Both measure a query's distance to every row, and column by
//! column that sweep is plain arithmetic over contiguous values.
//! [`InstanceStore`] owns that state and implements the incremental-fit step
//! both models share.
//!
//! Only the columns that vary are kept. One that does not is all zeros, as is
//! a query's value in it, so it adds `+0.0` to every distance: leaving it out
//! changes no bit.
//!
//! The incremental invariant: [`Scaler::extend`] folds the appended rows
//! into the stored bounds, which yields bit-identical bounds to a
//! from-scratch fold over all rows. When the bounds are unchanged only the
//! new rows are standardized and appended; when a bound moved, every
//! normalized coordinate shifts (and a column may start to vary), so the
//! store re-standardizes the grown set, which holds the fitted prefix as its
//! first rows — still bit-identical to a full refit, just no longer O(new
//! rows) for that append.

use crate::dataset::{Dataset, Scaler};
use crate::MlError;

/// Fitted state of an instance-based learner: scaler bounds, standardized
/// columns, and targets.
#[derive(Debug, Clone)]
pub(crate) struct InstanceStore {
    pub scaler: Scaler,
    /// `(j, column j standardized)` for every column `j` that varies,
    /// ascending in `j`: the space all distances are measured in.
    pub cols: Vec<(usize, Vec<f64>)>,
    pub targets: Vec<f64>,
}

impl InstanceStore {
    /// Fits from scratch over all of `data`.
    pub fn fit(data: &Dataset) -> Result<Self, MlError> {
        let scaler = Scaler::fit(data)?;
        let mut store = InstanceStore {
            scaler,
            cols: Vec::new(),
            targets: data.targets().to_vec(),
        };
        store.standardize(data, 0);
        Ok(store)
    }

    /// Number of rows the store is fitted on.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Extends the fit with `data.rows()[from..]`. The caller guarantees
    /// `data.rows()[..from]` is exactly the prefix this store was fitted on.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::IncrementalMismatch`] when `from` does not continue
    /// the fitted prefix and [`MlError::FeatureDimensionMismatch`] when the
    /// feature dimension changed.
    pub fn extend(&mut self, data: &Dataset, from: usize) -> Result<(), MlError> {
        if data.dim() != self.scaler.dim() {
            return Err(MlError::FeatureDimensionMismatch {
                expected: self.scaler.dim(),
                got: data.dim(),
            });
        }
        if from != self.len() || from > data.len() {
            return Err(MlError::IncrementalMismatch {
                fitted: self.len(),
                from,
            });
        }
        if from == data.len() {
            return Ok(());
        }
        let bounds_moved = self.scaler.extend(&data.rows()[from..]);
        self.targets.extend_from_slice(&data.targets()[from..]);
        self.standardize(data, if bounds_moved { 0 } else { from });
        Ok(())
    }

    /// `IncrementalRegressor::partial_fit` of a learner whose fitted state
    /// is `fitted`: an unfitted one with `from == 0` fits from scratch.
    pub fn partial_fit(
        fitted: &mut Option<Self>,
        data: &Dataset,
        from: usize,
    ) -> Result<(), MlError> {
        match fitted {
            Some(store) => store.extend(data, from),
            None if from == 0 => {
                *fitted = Some(Self::fit(data)?);
                Ok(())
            }
            None => Err(MlError::IncrementalMismatch { fitted: 0, from }),
        }
    }

    /// Brings the columns up to `data`'s rows: from `keep`, the rows the
    /// scaler leaves as they are, with the live columns taken anew when
    /// `keep` is 0.
    fn standardize(&mut self, data: &Dataset, keep: usize) {
        let rows = &data.rows()[keep..];
        if keep == 0 {
            let live = self.scaler.live_columns().into_iter();
            self.cols = live.map(|j| (j, Vec::with_capacity(rows.len()))).collect();
        }
        for (j, col) in &mut self.cols {
            let j = *j;
            col.extend(rows.iter().map(|r| self.scaler.scale(j, r[j])));
        }
    }

    /// Row `i` as [`Scaler::transform`] standardizes it, with a column that
    /// does not vary at 0.
    #[cfg(test)]
    pub fn row(&self, i: usize) -> Vec<f64> {
        let mut row = vec![0.0; self.scaler.dim()];
        for (j, col) in &self.cols {
            row[*j] = col[i];
        }
        row
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(n: usize) -> Dataset {
        let mut d = Dataset::new(vec!["x".into(), "y".into(), "flat".into()]);
        for i in 0..n {
            let x = ((i * 37) % 23) as f64;
            d.push(vec![x, (i % 7) as f64, 4.0], x * 2.0).unwrap();
        }
        d
    }

    #[test]
    fn extend_matches_fresh_fit() {
        let all = data(60);
        let fresh = InstanceStore::fit(&all).unwrap();
        assert_eq!(fresh.cols.iter().map(|c| c.0).collect::<Vec<_>>(), [0, 1]);
        for (i, row) in all.rows().iter().enumerate() {
            assert_eq!(fresh.row(i), fresh.scaler.transform(row));
        }
        // Five rows span neither column's range, twenty-five span both: one
        // append re-standardizes every row, the other only adds.
        for (prefix, moves_a_bound) in [(5, true), (25, false)] {
            let mut grown = InstanceStore::fit(&all.filter(|i| i < prefix)).unwrap();
            let before = grown.scaler.clone();
            grown.extend(&all, prefix).unwrap();
            assert_eq!(grown.scaler != before, moves_a_bound);
            assert_eq!(grown.scaler, fresh.scaler);
            assert_eq!(grown.cols, fresh.cols);
            assert_eq!(grown.targets, fresh.targets);
        }
    }

    #[test]
    fn extend_rejects_wrong_offset() {
        let all = data(10);
        let mut store = InstanceStore::fit(&all).unwrap();
        assert!(matches!(
            store.extend(&all, 3),
            Err(MlError::IncrementalMismatch { fitted: 10, from: 3 })
        ));
        assert!(store.extend(&all, 10).is_ok()); // no-op
    }
}
