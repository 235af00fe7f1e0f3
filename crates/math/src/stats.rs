//! Descriptive statistics, quantiles, histograms and prediction-error
//! metrics.
//!
//! The experimental harness uses these to compute the paper's headline
//! quantities: the signed bias `δ̄` of Table I ([`bias`]), the error
//! histogram of Figure 3 ([`Histogram`]), and the 99.5 % quantile at the
//! heart of the Solvency Capital Requirement ([`quantile`]).


/// Arithmetic mean. Returns `0.0` for an empty slice (documented sentinel:
/// the empirical mean of no observations is conventionally zero in the
/// accumulator-style usage throughout this workspace).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance (denominator `n - 1`).
///
/// Returns `0.0` when fewer than two observations are supplied.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Sample standard deviation (square root of [`variance`]).
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Standard error of the mean: `std_dev / sqrt(n)`.
pub fn std_error(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    std_dev(xs) / (xs.len() as f64).sqrt()
}

/// Sample covariance between two equally long series.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn covariance(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "covariance requires equal lengths");
    if xs.len() < 2 {
        return 0.0;
    }
    let mx = mean(xs);
    let my = mean(ys);
    xs.iter()
        .zip(ys)
        .map(|(x, y)| (x - mx) * (y - my))
        .sum::<f64>()
        / (xs.len() - 1) as f64
}

/// Pearson correlation coefficient; `0.0` when either series is constant.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn correlation(xs: &[f64], ys: &[f64]) -> f64 {
    let sx = std_dev(xs);
    let sy = std_dev(ys);
    if sx == 0.0 || sy == 0.0 {
        return 0.0;
    }
    covariance(xs, ys) / (sx * sy)
}

/// Empirical quantile, linear interpolation ("type 7", the R default).
///
/// `p` is clamped to `[0, 1]`. The input need not be sorted.
///
/// # Panics
///
/// Panics on an empty slice.
///
/// # Example
///
/// ```
/// use disar_math::stats::quantile;
/// let xs = vec![3.0, 1.0, 2.0, 4.0];
/// assert_eq!(quantile(&xs, 0.0), 1.0);
/// assert_eq!(quantile(&xs, 1.0), 4.0);
/// ```
pub fn quantile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of empty slice");
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    quantile_sorted(&sorted, p)
}

/// [`quantile`] for data that is already sorted ascending (no copy).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty slice");
    let p = p.clamp(0.0, 1.0);
    let h = (sorted.len() - 1) as f64 * p;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let w = h - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    }
}

/// Signed mean prediction error `δ̄ = mean(predicted - real)` — Eq. (6) of
/// the paper. Negative values mean the model *underestimates* execution time
/// (dangerous: deadline violations), positive values mean it overestimates
/// (safe but costly).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn bias(predicted: &[f64], real: &[f64]) -> f64 {
    assert_eq!(predicted.len(), real.len(), "bias requires equal lengths");
    if predicted.is_empty() {
        return 0.0;
    }
    predicted
        .iter()
        .zip(real)
        .map(|(p, r)| p - r)
        .sum::<f64>()
        / predicted.len() as f64
}

/// Mean absolute error.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mae(predicted: &[f64], real: &[f64]) -> f64 {
    assert_eq!(predicted.len(), real.len(), "mae requires equal lengths");
    if predicted.is_empty() {
        return 0.0;
    }
    predicted
        .iter()
        .zip(real)
        .map(|(p, r)| (p - r).abs())
        .sum::<f64>()
        / predicted.len() as f64
}

/// Root mean squared error.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn rmse(predicted: &[f64], real: &[f64]) -> f64 {
    assert_eq!(predicted.len(), real.len(), "rmse requires equal lengths");
    if predicted.is_empty() {
        return 0.0;
    }
    (predicted
        .iter()
        .zip(real)
        .map(|(p, r)| (p - r) * (p - r))
        .sum::<f64>()
        / predicted.len() as f64)
        .sqrt()
}

/// Coefficient of determination R². Returns `0.0` when the target is
/// constant.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn r_squared(predicted: &[f64], real: &[f64]) -> f64 {
    assert_eq!(predicted.len(), real.len(), "r_squared requires equal lengths");
    let my = mean(real);
    let ss_tot: f64 = real.iter().map(|y| (y - my) * (y - my)).sum();
    if ss_tot == 0.0 {
        return 0.0;
    }
    let ss_res: f64 = predicted
        .iter()
        .zip(real)
        .map(|(p, y)| (y - p) * (y - p))
        .sum();
    1.0 - ss_res / ss_tot
}

/// Fraction of predictions whose absolute error is within `tol` — the
/// quantity behind the paper's "around 80 % of the predictions have an
/// absolute error smaller than 200 seconds" claim (Figure 3).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn fraction_within(predicted: &[f64], real: &[f64], tol: f64) -> f64 {
    assert_eq!(predicted.len(), real.len(), "fraction_within equal lengths");
    if predicted.is_empty() {
        return 0.0;
    }
    let hits = predicted
        .iter()
        .zip(real)
        .filter(|(p, r)| (*p - *r).abs() <= tol)
        .count();
    hits as f64 / predicted.len() as f64
}

/// A fixed-width histogram over a closed range, used to regenerate Figure 3.
///
/// Values outside the range are clamped into the first/last bin so no
/// observation is silently dropped.
///
/// # Example
///
/// ```
/// use disar_math::stats::Histogram;
///
/// let mut h = Histogram::new(-10.0, 10.0, 4).unwrap();
/// h.extend([-9.0, -1.0, 1.0, 9.0, 9.5]);
/// assert_eq!(h.counts(), &[1, 1, 1, 2]);
/// assert_eq!(h.total(), 5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// Returns an error string if `bins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Result<Self, crate::MathError> {
        if bins == 0 {
            return Err(crate::MathError::InvalidArgument("bins must be > 0"));
        }
        if !(hi > lo) {
            return Err(crate::MathError::InvalidArgument("hi must exceed lo"));
        }
        Ok(Histogram {
            lo,
            hi,
            counts: vec![0; bins],
        })
    }

    /// Adds one observation, clamping out-of-range values into the edge bins.
    pub fn add(&mut self, x: f64) {
        let bins = self.counts.len();
        let w = (self.hi - self.lo) / bins as f64;
        let idx = ((x - self.lo) / w).floor();
        let idx = if idx < 0.0 {
            0
        } else if idx as usize >= bins {
            bins - 1
        } else {
            idx as usize
        };
        self.counts[idx] += 1;
    }

    /// Bin counts, in order.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of observations added.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Lower edge of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn bin_lo(&self, i: usize) -> f64 {
        assert!(i < self.counts.len());
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + w * i as f64
    }

    /// Per-bin relative frequency (percentage in `[0, 100]`).
    pub fn percentages(&self) -> Vec<f64> {
        let t = self.total();
        if t == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| 100.0 * c as f64 / t as f64)
            .collect()
    }
}

impl Extend<f64> for Histogram {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.add(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_known() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_are_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(std_error(&[]), 0.0);
        assert_eq!(bias(&[], &[]), 0.0);
        assert_eq!(mae(&[], &[]), 0.0);
        assert_eq!(rmse(&[], &[]), 0.0);
    }

    #[test]
    fn quantile_median_even_odd() {
        assert_eq!(quantile(&[1.0, 2.0, 3.0], 0.5), 2.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
    }

    #[test]
    fn quantile_extremes() {
        let xs = [5.0, 1.0, 3.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        // clamping
        assert_eq!(quantile(&xs, -0.5), 1.0);
        assert_eq!(quantile(&xs, 1.5), 5.0);
    }

    #[test]
    fn quantile_995_tail() {
        // 1000 points 1..=1000; 99.5% quantile ≈ 995.005 by type-7.
        let xs: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        let q = quantile(&xs, 0.995);
        assert!((q - 995.005).abs() < 1e-9, "got {q}");
    }

    #[test]
    fn bias_sign_convention() {
        // Predictions above reality → positive δ̄ (overestimation).
        assert!(bias(&[10.0, 12.0], &[8.0, 9.0]) > 0.0);
        assert!(bias(&[5.0, 6.0], &[8.0, 9.0]) < 0.0);
    }

    #[test]
    fn metrics_consistency() {
        let p = [1.0, 2.0, 3.0];
        let r = [1.5, 2.5, 3.5];
        assert!((bias(&p, &r) + 0.5).abs() < 1e-12);
        assert!((mae(&p, &r) - 0.5).abs() < 1e-12);
        assert!((rmse(&p, &r) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn r_squared_perfect_and_mean() {
        let r = [1.0, 2.0, 3.0, 4.0];
        assert!((r_squared(&r, &r) - 1.0).abs() < 1e-12);
        let m = mean(&r);
        let pm = [m, m, m, m];
        assert!(r_squared(&pm, &r).abs() < 1e-12);
    }

    #[test]
    fn fraction_within_works() {
        let p = [0.0, 100.0, 250.0, 500.0];
        let r = [0.0, 0.0, 0.0, 0.0];
        assert_eq!(fraction_within(&p, &r, 200.0), 0.5);
    }

    #[test]
    fn correlation_linear_is_one() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x + 1.0).collect();
        assert!((correlation(&xs, &ys) - 1.0).abs() < 1e-12);
        let yneg: Vec<f64> = xs.iter().map(|x| -2.0 * x).collect();
        assert!((correlation(&xs, &yneg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_clamps_outliers() {
        let mut h = Histogram::new(0.0, 10.0, 2).unwrap();
        h.add(-100.0);
        h.add(100.0);
        assert_eq!(h.counts(), &[1, 1]);
    }

    #[test]
    fn histogram_edges_and_width() {
        let h = Histogram::new(-6000.0, 4000.0, 50).unwrap();
        assert_eq!(h.bin_lo(0), -6000.0);
        assert_eq!(h.bin_lo(1) - h.bin_lo(0), 200.0);
        assert_eq!(h.bin_lo(30), 0.0);
    }

    #[test]
    fn histogram_percentages_sum_to_100() {
        let mut h = Histogram::new(0.0, 1.0, 4).unwrap();
        h.extend([0.1, 0.3, 0.6, 0.9, 0.95]);
        let s: f64 = h.percentages().iter().sum();
        assert!((s - 100.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_rejects_bad_args() {
        assert!(Histogram::new(0.0, 1.0, 0).is_err());
        assert!(Histogram::new(1.0, 1.0, 4).is_err());
        assert!(Histogram::new(2.0, 1.0, 4).is_err());
    }
}
