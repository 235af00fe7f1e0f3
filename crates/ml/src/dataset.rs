//! Tabular regression datasets, normalization and splitting.
//!
//! A [`Dataset`] is a dense feature table with a single continuous target —
//! exactly the shape of the paper's knowledge base (characteristic
//! parameters of an EEB plus the deploy configuration as features, measured
//! execution time as target).

use crate::MlError;
use disar_math::rng::stream_rng;

/// A regression dataset: named features, dense rows, one `f64` target per
/// row.
///
/// # Example
///
/// ```
/// use disar_ml::Dataset;
///
/// let mut d = Dataset::new(vec!["contracts".into(), "nodes".into()]);
/// d.push(vec![120.0, 4.0], 310.5).unwrap();
/// assert_eq!(d.len(), 1);
/// assert_eq!(d.dim(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Dataset {
    feature_names: Vec<String>,
    rows: Vec<Vec<f64>>,
    targets: Vec<f64>,
}

impl Dataset {
    /// Creates an empty dataset with the given feature names.
    pub fn new(feature_names: Vec<String>) -> Self {
        Dataset {
            feature_names,
            rows: Vec::new(),
            targets: Vec::new(),
        }
    }

    /// Builds a dataset from parallel rows/targets.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::FeatureDimensionMismatch`] on ragged rows or if
    /// `rows.len() != targets.len()`, and [`MlError::NonFiniteInput`] if any
    /// value is NaN/∞.
    pub fn from_rows(
        feature_names: Vec<String>,
        rows: Vec<Vec<f64>>,
        targets: Vec<f64>,
    ) -> Result<Self, MlError> {
        if rows.len() != targets.len() {
            return Err(MlError::FeatureDimensionMismatch {
                expected: rows.len(),
                got: targets.len(),
            });
        }
        let mut d = Dataset::new(feature_names);
        for (r, t) in rows.into_iter().zip(targets) {
            d.push(r, t)?;
        }
        Ok(d)
    }

    /// Appends one observation.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::FeatureDimensionMismatch`] if `features.len()`
    /// differs from the declared dimension and [`MlError::NonFiniteInput`] if
    /// any value is NaN or infinite.
    pub fn push(&mut self, features: Vec<f64>, target: f64) -> Result<(), MlError> {
        if features.len() != self.feature_names.len() {
            return Err(MlError::FeatureDimensionMismatch {
                expected: self.feature_names.len(),
                got: features.len(),
            });
        }
        if !target.is_finite() || features.iter().any(|x| !x.is_finite()) {
            return Err(MlError::NonFiniteInput);
        }
        self.rows.push(features);
        self.targets.push(target);
        Ok(())
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` when the dataset holds no observations.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.feature_names.len()
    }

    /// Feature names.
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// Feature rows.
    pub fn rows(&self) -> &[Vec<f64>] {
        &self.rows
    }

    /// Targets.
    pub fn targets(&self) -> &[f64] {
        &self.targets
    }

    /// The `i`-th observation as `(features, target)`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn get(&self, i: usize) -> (&[f64], f64) {
        (&self.rows[i], self.targets[i])
    }

    /// Mean of the targets (`0.0` when empty).
    pub fn target_mean(&self) -> f64 {
        disar_math::stats::mean(&self.targets)
    }

    /// Randomly shuffles and splits into `(train, test)` where train receives
    /// `train_fraction` of the rows (rounded down, but at least one row in
    /// each side when `len() >= 2`).
    ///
    /// This is the 40 %/60 % "splitting percentage" used for Table I.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyTrainingSet`] if the dataset has fewer than
    /// two rows, and [`MlError::InvalidSplitFraction`] if the fraction is
    /// outside `(0, 1)`.
    pub fn split(&self, train_fraction: f64, seed: u64) -> Result<(Dataset, Dataset), MlError> {
        if self.len() < 2 {
            return Err(MlError::EmptyTrainingSet);
        }
        if !(train_fraction > 0.0 && train_fraction < 1.0) {
            return Err(MlError::InvalidSplitFraction(train_fraction));
        }
        let mut idx: Vec<usize> = (0..self.len()).collect();
        let mut rng = stream_rng(seed, 0xDA7A);
        rng.shuffle(&mut idx);
        let n_train = ((self.len() as f64 * train_fraction) as usize).clamp(1, self.len() - 1);
        let mut train = Dataset::new(self.feature_names.clone());
        let mut test = Dataset::new(self.feature_names.clone());
        for (pos, &i) in idx.iter().enumerate() {
            let dst = if pos < n_train { &mut train } else { &mut test };
            dst.rows.push(self.rows[i].clone());
            dst.targets.push(self.targets[i]);
        }
        Ok((train, test))
    }

    /// Selects the observations whose index satisfies `keep`, preserving
    /// order. Used e.g. to build the per-instance-type subsets of Table I.
    pub fn filter<F: Fn(usize) -> bool>(&self, keep: F) -> Dataset {
        let mut out = Dataset::new(self.feature_names.clone());
        for i in 0..self.len() {
            if keep(i) {
                out.rows.push(self.rows[i].clone());
                out.targets.push(self.targets[i]);
            }
        }
        out
    }
}

/// Per-column min–max scaler mapping each feature to `[0, 1]`, the
/// normalization Weka's distance-based learners apply.
///
/// Constant columns map to `0.0` (range zero ⇒ no information).
///
/// # Example
///
/// ```
/// use disar_ml::{Dataset, Scaler};
///
/// let d = Dataset::from_rows(
///     vec!["a".into()],
///     vec![vec![10.0], vec![20.0], vec![30.0]],
///     vec![0.0, 0.0, 0.0],
/// ).unwrap();
/// let s = Scaler::fit(&d).unwrap();
/// assert_eq!(s.transform(&[20.0]), vec![0.5]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Scaler {
    mins: Vec<f64>,
    maxs: Vec<f64>,
    ranges: Vec<f64>,
}

/// Folds `rows` into per-column bounds: the one min/max fold every fitted
/// model's bounds come from. It is exact and left-associative, so folding
/// appended rows into stored bounds gives the bounds of a fold from scratch.
fn fold_bounds(mins: &mut [f64], maxs: &mut [f64], rows: &[Vec<f64>]) {
    for row in rows {
        for ((lo, hi), &v) in mins.iter_mut().zip(maxs.iter_mut()).zip(row) {
            *lo = lo.min(v);
            *hi = hi.max(v);
        }
    }
}

impl Scaler {
    /// Computes per-column minima and ranges over the dataset.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyTrainingSet`] on an empty dataset.
    pub fn fit(data: &Dataset) -> Result<Self, MlError> {
        if data.is_empty() {
            return Err(MlError::EmptyTrainingSet);
        }
        let mut mins = vec![f64::INFINITY; data.dim()];
        let mut maxs = vec![f64::NEG_INFINITY; data.dim()];
        fold_bounds(&mut mins, &mut maxs, data.rows());
        Ok(Scaler::from_bounds(mins, maxs))
    }

    /// Builds a scaler from precomputed per-column bounds, producing exactly
    /// the scaler [`Scaler::fit`] would return for data with those bounds.
    ///
    /// # Panics
    ///
    /// Panics if `mins.len() != maxs.len()`.
    pub fn from_bounds(mins: Vec<f64>, maxs: Vec<f64>) -> Self {
        assert_eq!(mins.len(), maxs.len(), "bounds dimension mismatch");
        let ranges = mins.iter().zip(&maxs).map(|(lo, hi)| hi - lo).collect();
        Scaler { mins, maxs, ranges }
    }

    /// Extends the fit over appended `rows`, bit-identically to
    /// [`Scaler::fit`] over the old rows and the new. Returns `true` when a
    /// bound moved, and with it every scaled coordinate.
    pub(crate) fn extend(&mut self, rows: &[Vec<f64>]) -> bool {
        let (mut mins, mut maxs) = (self.mins.clone(), self.maxs.clone());
        fold_bounds(&mut mins, &mut maxs, rows);
        let same = |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(a, b)| a.to_bits() == b.to_bits());
        let moved = !(same(&mins, &self.mins) && same(&maxs, &self.maxs));
        if moved {
            *self = Scaler::from_bounds(mins, maxs);
        }
        moved
    }

    /// Whether column `j` takes more than one value over the fitted rows.
    /// One that does not scales to `0.0` whatever the query holds there, so
    /// no distance, activation, split or table cell can depend on it.
    ///
    /// # Panics
    ///
    /// Panics if `j` is not a fitted column.
    pub fn varies(&self, j: usize) -> bool {
        self.ranges[j] != 0.0
    }

    /// The fitted columns that vary, ascending.
    pub(crate) fn live_columns(&self) -> Vec<usize> {
        (0..self.dim()).filter(|&j| self.varies(j)).collect()
    }

    /// Per-column minima.
    pub(crate) fn mins(&self) -> &[f64] {
        &self.mins
    }

    /// Per-column `max − min`.
    pub(crate) fn ranges(&self) -> &[f64] {
        &self.ranges
    }

    /// Column `j` of [`Scaler::transform`] alone.
    pub(crate) fn scale(&self, j: usize, v: f64) -> f64 {
        if self.varies(j) {
            (v - self.mins[j]) / self.ranges[j]
        } else {
            0.0
        }
    }

    /// Maps a feature vector into `[0, 1]^d`. Values outside the fitted range
    /// extrapolate linearly (may fall outside `[0, 1]`).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the fitted dimension.
    pub fn transform(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.mins.len(), "scaler dimension mismatch");
        x.iter()
            .enumerate()
            .map(|(j, &v)| self.scale(j, v))
            .collect()
    }

    /// [`Scaler::transform`] into a reused buffer (cleared first) — the
    /// allocation-free variant for batched prediction. Values are computed
    /// with the exact same expressions in the same column order, so the
    /// result is bit-identical to [`Scaler::transform`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the fitted dimension.
    pub fn transform_into(&self, x: &[f64], out: &mut Vec<f64>) {
        assert_eq!(x.len(), self.mins.len(), "scaler dimension mismatch");
        out.clear();
        out.extend(x.iter().enumerate().map(|(j, &v)| self.scale(j, v)));
    }

    /// Number of columns the scaler was fitted on.
    pub fn dim(&self) -> usize {
        self.mins.len()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// `(vcpus, per_core_speed, memory_gib)` of six instance types.
    const INSTANCES: [(f64, f64, f64); 6] = [
        (2.0, 1.0, 4.0),
        (4.0, 1.0, 16.0),
        (8.0, 1.15, 15.0),
        (16.0, 1.15, 64.0),
        (36.0, 1.3, 60.0),
        (40.0, 0.95, 160.0),
    ];

    /// `n` rows of the ten columns `RunRecord::features` produces: a job drawn
    /// from a dozen, four columns that never vary, three columns that take six
    /// values together, node counts `1..=8`. Every fifth row repeats an earlier
    /// one, target included, so ties are the common case in every column.
    pub(crate) fn kb_shaped(n: usize, seed: u64) -> Dataset {
        kb_rows(n, seed, None)
    }

    /// [`kb_shaped`] with every run on one instance type, as a per-instance
    /// shard holds them: seven columns that never vary.
    pub(crate) fn shard_shaped(n: usize, seed: u64) -> Dataset {
        kb_rows(n, seed, Some(INSTANCES[seed as usize % 6]))
    }

    fn kb_rows(n: usize, seed: u64, only: Option<(f64, f64, f64)>) -> Dataset {
        let names = "contracts horizon fund_assets risk_factors n_outer n_inner vcpus \
                     per_core_speed memory_gib n_nodes";
        let mut d = Dataset::new(names.split(' ').map(String::from).collect());
        let mut rng = stream_rng(seed, 0xF1C5);
        for i in 0..n {
            if i % 5 == 4 {
                let (x, y) = d.get(rng.gen_range(0..i));
                let x = x.to_vec();
                d.push(x, y).unwrap();
                continue;
            }
            let job = rng.gen_range(0..12usize);
            let contracts = 150.0 + 75.0 * job as f64;
            let horizon = 10.0 + 5.0 * (job % 4) as f64;
            let drawn = INSTANCES[rng.gen_range(0..6usize)];
            let (vcpus, speed, mem) = only.unwrap_or(drawn);
            let nodes = rng.gen_range(1..=8usize) as f64;
            let work = 0.12 * contracts * horizon;
            let secs = 40.0 + work / (vcpus * speed * nodes).powf(0.85) * rng.gen_range(0.9..1.1);
            let row = [
                contracts, horizon, 40.0, 2.0, 1000.0, 50.0, vcpus, speed, mem, nodes,
            ];
            d.push(row.to_vec(), secs).unwrap();
        }
        d
    }

    /// FNV-1a over the little-endian bytes of every value's bit pattern.
    pub(crate) fn fnv1a(values: &[f64]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        for b in values.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    fn toy(n: usize) -> Dataset {
        let mut d = Dataset::new(vec!["x".into(), "y".into()]);
        for i in 0..n {
            d.push(vec![i as f64, (i * 2) as f64], i as f64 * 10.0)
                .unwrap();
        }
        d
    }

    #[test]
    fn push_validates_dimension() {
        let mut d = Dataset::new(vec!["x".into()]);
        assert!(matches!(
            d.push(vec![1.0, 2.0], 0.0),
            Err(MlError::FeatureDimensionMismatch { expected: 1, got: 2 })
        ));
    }

    #[test]
    fn push_rejects_non_finite() {
        let mut d = Dataset::new(vec!["x".into()]);
        assert!(matches!(
            d.push(vec![f64::NAN], 0.0),
            Err(MlError::NonFiniteInput)
        ));
        assert!(matches!(
            d.push(vec![1.0], f64::INFINITY),
            Err(MlError::NonFiniteInput)
        ));
    }

    #[test]
    fn split_partitions_everything() {
        let d = toy(100);
        let (train, test) = d.split(0.4, 42).unwrap();
        assert_eq!(train.len(), 40);
        assert_eq!(test.len(), 60);
        // Every target must appear exactly once across the two halves.
        let mut all: Vec<f64> = train.targets().iter().chain(test.targets()).copied().collect();
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let expect: Vec<f64> = (0..100).map(|i| i as f64 * 10.0).collect();
        assert_eq!(all, expect);
    }

    #[test]
    fn split_is_deterministic_per_seed() {
        let d = toy(50);
        let (a1, _) = d.split(0.5, 7).unwrap();
        let (a2, _) = d.split(0.5, 7).unwrap();
        assert_eq!(a1, a2);
        let (a3, _) = d.split(0.5, 8).unwrap();
        assert_ne!(a1, a3);
    }

    #[test]
    fn split_rejects_bad_fraction() {
        let d = toy(10);
        for f in [0.0, 1.0, f64::NAN] {
            let e = d.split(f, 1).unwrap_err();
            assert_eq!(e.to_string(), MlError::InvalidSplitFraction(f).to_string());
        }
        assert_eq!(toy(1).split(0.5, 1), Err(MlError::EmptyTrainingSet));
    }

    #[test]
    fn filter_keeps_matching_rows() {
        let d = toy(10);
        let even = d.filter(|i| i % 2 == 0);
        assert_eq!(even.len(), 5);
        assert_eq!(even.targets()[1], 20.0);
    }

    #[test]
    fn scaler_maps_to_unit_interval() {
        let d = toy(11);
        let s = Scaler::fit(&d).unwrap();
        for row in d.rows() {
            for v in s.transform(row) {
                assert!((0.0..=1.0).contains(&v));
            }
        }
        assert_eq!(s.transform(&[0.0, 0.0]), vec![0.0, 0.0]);
        assert_eq!(s.transform(&[10.0, 20.0]), vec![1.0, 1.0]);
    }

    #[test]
    fn scaler_constant_column_is_zero() {
        let d = Dataset::from_rows(
            vec!["c".into()],
            vec![vec![5.0], vec![5.0]],
            vec![1.0, 2.0],
        )
        .unwrap();
        let s = Scaler::fit(&d).unwrap();
        assert_eq!(s.transform(&[5.0]), vec![0.0]);
    }

    #[test]
    fn varies_is_a_nonzero_range_and_shards_keep_three_live_columns() {
        let live = |d: &Dataset| Scaler::fit(d).unwrap().live_columns();
        assert_eq!(live(&kb_shaped(100, 1)), [0, 1, 6, 7, 8, 9]);
        assert_eq!(live(&shard_shaped(100, 1)), [0, 1, 9]);
        // Signed zeros are one value; a constant column scales to 0.0
        // whatever the query holds.
        let rows = vec![vec![-0.0, 3.0], vec![0.0, 3.0]];
        let d = Dataset::from_rows(vec!["z".into(), "c".into()], rows, vec![1.0, 2.0]).unwrap();
        let s = Scaler::fit(&d).unwrap();
        assert!(!s.varies(0) && !s.varies(1));
        assert_eq!(s.transform(&[f64::NAN, 9.0]), vec![0.0, 0.0]);
    }

    #[test]
    fn extend_matches_a_fit_over_all_rows() {
        let all = toy(20);
        for prefix in [1, 7, 20] {
            let mut grown = Scaler::fit(&all.filter(|i| i < prefix)).unwrap();
            // Rows arrive ascending in both columns: any append moves a maximum.
            assert_eq!(grown.extend(&all.rows()[prefix..]), prefix < 20);
            assert_eq!(grown, Scaler::fit(&all).unwrap());
        }
        let mut same = Scaler::fit(&all).unwrap();
        assert!(!same.extend(&all.rows()[3..9]));
    }

    #[test]
    fn from_bounds_matches_fit() {
        let d = toy(17);
        let fitted = Scaler::fit(&d).unwrap();
        let mut mins = vec![f64::INFINITY; d.dim()];
        let mut maxs = vec![f64::NEG_INFINITY; d.dim()];
        for row in d.rows() {
            for j in 0..d.dim() {
                mins[j] = mins[j].min(row[j]);
                maxs[j] = maxs[j].max(row[j]);
            }
        }
        assert_eq!(Scaler::from_bounds(mins, maxs), fitted);
    }

    #[test]
    fn from_rows_validates() {
        assert!(Dataset::from_rows(vec!["a".into()], vec![vec![1.0]], vec![]).is_err());
    }

    #[test]
    fn target_mean_empty_is_zero() {
        let d = Dataset::new(vec![]);
        assert_eq!(d.target_mean(), 0.0);
    }
}
