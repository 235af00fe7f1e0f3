//! Shared append-only training state for the instance-based learners.
//!
//! [`IbK`](crate::IbK) and [`KStar`](crate::KStar) both keep their training
//! set standardized: a min–max scaler, the standardized rows and the
//! targets. [`InstanceStore`] owns that state and implements the
//! incremental-fit step both models share; IBk keeps its neighbour index
//! beside the store and K* a copy of the standardized rows by column.
//!
//! The incremental invariant: [`Scaler::extend`] folds the appended rows
//! into the stored bounds, which yields bit-identical bounds to a
//! from-scratch fold over all rows. When the
//! bounds are unchanged only the new rows are standardized and appended; when
//! a bound moved, every normalized coordinate shifts, so the store
//! re-standardizes the rows of the grown set, which holds the fitted prefix
//! as its first rows — still bit-identical to a full refit,
//! just no longer O(new rows) for that append. [`InstanceStore::extend`]
//! reports which of the two happened so an index over the rows can follow.

use crate::dataset::{Dataset, Scaler};
use crate::MlError;

/// Fitted state of an instance-based learner: scaler bounds, standardized
/// rows, and targets.
#[derive(Debug, Clone)]
pub(crate) struct InstanceStore {
    pub scaler: Scaler,
    /// Standardized rows — the space all distances are measured in.
    pub rows: Vec<Vec<f64>>,
    pub targets: Vec<f64>,
}

impl InstanceStore {
    /// Fits from scratch over all of `data`.
    pub fn fit(data: &Dataset) -> Result<Self, MlError> {
        let scaler = Scaler::fit(data)?;
        let rows: Vec<Vec<f64>> = data.rows().iter().map(|r| scaler.transform(r)).collect();
        Ok(InstanceStore {
            scaler,
            rows,
            targets: data.targets().to_vec(),
        })
    }

    /// Number of rows the store is fitted on.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Extends the fit with `data.rows()[from..]`. The caller guarantees
    /// `data.rows()[..from]` is exactly the prefix this store was fitted on.
    /// Returns `true` when a scaler bound moved and every standardized row
    /// was recomputed, `false` when rows were only appended.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::IncrementalMismatch`] when `from` does not continue
    /// the fitted prefix and [`MlError::FeatureDimensionMismatch`] when the
    /// feature dimension changed.
    pub fn extend(&mut self, data: &Dataset, from: usize) -> Result<bool, MlError> {
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
            return Ok(false);
        }
        let bounds_moved = self.scaler.extend(&data.rows()[from..]);
        self.targets.extend_from_slice(&data.targets()[from..]);
        // The standardized rows the bounds leave as they are.
        let keep = if bounds_moved { 0 } else { from };
        self.rows.truncate(keep);
        let scaler = &self.scaler;
        self.rows
            .extend(data.rows()[keep..].iter().map(|r| scaler.transform(r)));
        Ok(bounds_moved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(n: usize) -> Dataset {
        let mut d = Dataset::new(vec!["x".into(), "y".into()]);
        for i in 0..n {
            let x = ((i * 37) % 23) as f64;
            d.push(vec![x, (i % 7) as f64], x * 2.0).unwrap();
        }
        d
    }

    #[test]
    fn extend_matches_fresh_fit() {
        let all = data(60);
        let fresh = InstanceStore::fit(&all).unwrap();
        // Five rows span neither column's range, twenty-five span both: one
        // append re-standardizes every row, the other only adds.
        for (prefix, moves_a_bound) in [(5, true), (25, false)] {
            let mut grown = InstanceStore::fit(&all.filter(|i| i < prefix)).unwrap();
            assert_eq!(grown.extend(&all, prefix).unwrap(), moves_a_bound);
            assert_eq!(grown.scaler, fresh.scaler);
            assert_eq!(grown.rows, fresh.rows);
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
        assert!(matches!(store.extend(&all, 10), Ok(false))); // no-op
    }
}
