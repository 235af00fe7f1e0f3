//! Batched inference primitives: the row-major [`FeatureMatrix`] and the
//! reusable [`PredictScratch`].
//!
//! The Algorithm 1 grid sweep evaluates the whole `(instance × n_nodes)`
//! grid through every member of the family per selection.
//! [`crate::Regressor::predict_batch`] is each member's one prediction
//! kernel: it carries one [`PredictScratch`] across the batch (the
//! standardized query, IBk's neighbour list, K*'s distances and weights,
//! the decision-table key, the MLP's row block), so a warm scratch
//! allocates nothing, and a row's prediction does not depend on the rows
//! around it (the properties of `tests/batch_proptests.rs`).
//! [`crate::Regressor::predict`] is a batch of one row.
//!
//! A grid column is a batch of one shape: its rows are one job on one
//! instance type at a run of node counts, so they agree in every feature
//! but one. The trees answer such a batch with one walk per tree for the
//! whole column (`RandomTree::descend_column`), and IBk sums the distance
//! terms of the features before the varying one once for all its rows;
//! `Column::fill` tells the shape and orders the rows by the feature that
//! varies.

use crate::MlError;

/// A dense row-major batch of feature vectors.
///
/// The first pushed row fixes the dimension; every later row must match.
/// Clearing keeps the backing capacity, so a matrix reused across
/// selections stops allocating once warm.
#[derive(Debug, Clone, Default)]
pub struct FeatureMatrix {
    dim: usize,
    rows: usize,
    data: Vec<f64>,
}

impl FeatureMatrix {
    /// An empty matrix; the first pushed row fixes the dimension.
    pub fn new() -> Self {
        FeatureMatrix::default()
    }

    /// An empty matrix with capacity for `rows × dim` values.
    pub fn with_capacity(rows: usize, dim: usize) -> Self {
        FeatureMatrix {
            dim: 0,
            rows: 0,
            data: Vec::with_capacity(rows * dim),
        }
    }

    /// Number of rows in the batch.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// `true` when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The feature dimension (0 until the first row is pushed).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Drops all rows, keeping the backing capacity.
    pub fn clear(&mut self) {
        self.dim = 0;
        self.rows = 0;
        self.data.clear();
    }

    /// Appends one feature row. A first row without values fixes the
    /// dimension 0: the batch of a model fitted on no columns.
    ///
    /// # Panics
    ///
    /// Panics if the row's length differs from the matrix dimension fixed
    /// by the first row.
    pub fn push_row(&mut self, row: &[f64]) {
        self.push_row_with(|buf| buf.extend_from_slice(row));
    }

    /// Appends one row by letting `fill` push its values directly onto the
    /// backing buffer — the allocation-free variant of
    /// [`FeatureMatrix::push_row`] for callers that assemble features in
    /// place.
    ///
    /// # Panics
    ///
    /// Panics if `fill` pushes a number of values that differs from the
    /// matrix dimension fixed by the first row.
    pub fn push_row_with(&mut self, fill: impl FnOnce(&mut Vec<f64>)) {
        let start = self.data.len();
        fill(&mut self.data);
        let pushed = self.data.len() - start;
        if self.rows == 0 {
            self.dim = pushed;
        } else {
            assert_eq!(
                pushed, self.dim,
                "feature row length must match the matrix dimension"
            );
        }
        self.rows += 1;
    }

    /// The `i`-th feature row.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// The backing row-major storage (`len × dim` values).
    pub fn data(&self) -> &[f64] {
        &self.data
    }
}

/// Reusable per-query buffers for [`crate::Regressor::predict_batch`].
///
/// One scratch serves every member kind: each kernel uses only the fields
/// it needs and leaves the rest untouched. All buffers grow on first use
/// and are retained across batches, so a warm scratch allocates nothing in
/// steady state.
#[derive(Debug, Clone, Default)]
pub struct PredictScratch {
    /// Standardized query vector (IBk, K*).
    pub(crate) q: Vec<f64>,
    /// The `k` nearest rows found so far, as `(distance², row)` in
    /// ascending order, ties in row order (IBk).
    pub(crate) best: Vec<(f64, usize)>,
    /// Per-row L1 distances, min-shifted in place by the scale search (K*);
    /// per-row squared distances (IBk).
    pub(crate) dists: Vec<f64>,
    /// Per-row kernel weights at the scale the search stands at (K*).
    pub(crate) weights: Vec<f64>,
    /// Discretized lookup key (decision table).
    pub(crate) key: Vec<u32>,
    /// Standardized row block (MLP's blocked forward pass).
    pub(crate) block: Vec<f64>,
    /// A column batch ordered for the trees' column descent (RT, RF).
    pub(crate) column: Column,
    /// The column descent's value at each position of `column.order` (RT,
    /// RF); per-row sums of the squared-distance terms a grid column's rows
    /// share (IBk).
    pub(crate) sums: Vec<f64>,
}

impl PredictScratch {
    /// An empty scratch; buffers are sized lazily by the kernels.
    pub fn new() -> Self {
        PredictScratch::default()
    }
}

/// A batch of two rows or more that each equal the first, bit for bit, in
/// every feature but at most one, which holds no NaN, ordered by that
/// feature. A tree's column descent reads it (`RandomTree::descend_column`):
/// the rows at positions `lo..hi` of [`Column::order`] reach a node together,
/// and a split on the varying feature cuts them where [`Column::keys`] pass
/// its threshold.
#[derive(Debug, Clone, Default)]
pub(crate) struct Column {
    /// The feature in which the rows differ (`None`: all rows are equal).
    pub(crate) feature: Option<usize>,
    /// The batch's rows in ascending order of `feature` (ties and ±0.0 in
    /// any order: a threshold sends them the same way).
    pub(crate) order: Vec<usize>,
    /// `feature`'s value in each row of `order` (empty when `feature` is
    /// `None`).
    pub(crate) keys: Vec<f64>,
    /// The walk's pending subtrees: a slot and the positions `lo..hi` that
    /// reach it. At most one per row, and reserved so.
    pub(crate) stack: Vec<(usize, usize, usize)>,
}

impl Column {
    /// Orders `xs` for the column descent and returns `true` when it is a
    /// column; otherwise returns `false`, and the batch takes the per-row
    /// path. A one-row batch is not a column: its descent is already one
    /// walk per tree. Grows the buffers once, to the widest column seen.
    pub(crate) fn fill(&mut self, xs: &FeatureMatrix) -> bool {
        let n = xs.len();
        if n < 2 {
            return false;
        }
        let first = xs.row(0);
        let mut feature = None;
        for i in 1..n {
            for (j, (x, f)) in xs.row(i).iter().zip(first).enumerate() {
                if x.to_bits() != f.to_bits() {
                    match feature {
                        None => feature = Some(j),
                        Some(v) if v == j => {}
                        Some(_) => return false,
                    }
                }
            }
        }
        let at = |i: usize| feature.map_or(0.0, |j| xs.row(i)[j]);
        if (0..n).any(|i| at(i).is_nan()) {
            return false;
        }
        self.feature = feature;
        self.order.clear();
        self.order.extend(0..n);
        // Grid rows ascend by node count, so the sort is usually skipped.
        if (1..n).any(|i| at(i - 1) > at(i)) {
            self.order
                .sort_unstable_by(|&a, &b| at(a).total_cmp(&at(b)));
        }
        self.keys.clear();
        if feature.is_some() {
            self.keys.extend(self.order.iter().map(|&i| at(i)));
        }
        self.stack.clear();
        self.stack.reserve(n);
        true
    }
}

/// Shared output-shape check: `out` must carry one slot per batch row.
pub(crate) fn check_out_len(rows: usize, out: &[f64]) -> Result<(), MlError> {
    if out.len() != rows {
        return Err(MlError::BatchShapeMismatch {
            rows,
            out: out.len(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_row_fixes_dimension() {
        let mut m = FeatureMatrix::new();
        assert!(m.is_empty());
        assert_eq!(m.dim(), 0);
        m.push_row(&[1.0, 2.0, 3.0]);
        m.push_row_with(|buf| buf.extend([4.0, 5.0, 6.0]));
        assert_eq!(m.len(), 2);
        assert_eq!(m.dim(), 3);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.data().len(), 6);
    }

    #[test]
    fn clear_keeps_capacity_and_resets_dimension() {
        let mut m = FeatureMatrix::with_capacity(4, 2);
        m.push_row(&[1.0, 2.0]);
        let cap = m.data.capacity();
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.data.capacity(), cap);
        // A cleared matrix accepts a different dimension.
        m.push_row(&[9.0]);
        assert_eq!(m.dim(), 1);
    }

    #[test]
    #[should_panic(expected = "feature row length must match")]
    fn mismatched_row_panics() {
        let mut m = FeatureMatrix::new();
        m.push_row(&[1.0, 2.0]);
        m.push_row(&[1.0]);
    }

    #[test]
    fn out_length_is_checked() {
        assert!(check_out_len(2, &[0.0, 0.0]).is_ok());
        assert!(matches!(
            check_out_len(2, &[0.0]),
            Err(MlError::BatchShapeMismatch { rows: 2, out: 1 })
        ));
    }
}
