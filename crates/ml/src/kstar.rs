//! K* — the entropic instance-based learner of Cleary & Trigg
//! (*K\*: An Instance-based Learner Using an Entropic Distance Measure*,
//! ICML 1995).
//!
//! K* predicts by averaging training targets weighted by a *transformation
//! probability* `P*(b|a)`: the probability that instance `a` transforms into
//! instance `b` under a random sequence of elementary transformations. For
//! real-valued attributes this yields a Laplace (double-exponential) kernel
//!
//! ```text
//! P*(b|a) ∝ exp(-d_b / x0),    d_b = |x_b − x_a|₁ in min–max-normalized space
//! ```
//!
//! whose scale `x0` is *not* a fixed hyper-parameter: it is chosen **per
//! query** so that the *effective number of neighbours*
//!
//! ```text
//! n_eff(x0) = (Σ_b p_b)² / Σ_b p_b²
//! ```
//!
//! equals `target = 1 + (blend/100) · (N − 1)`, where `blend ∈ [0, 100]` is
//! the "global blend" parameter (Weka default 20).
//!
//! # The scale search
//!
//! Both `n_eff` and the weighted mean `Σ p·y / Σ p` are unchanged when every
//! weight is multiplied by the same factor, and replacing `d_b` by
//! `e_b = d_b − d_min` multiplies every weight by `exp(d_min/x0)`. So the
//! kernel works on the **min-shifted** distances: the nearest row then has
//! weight exactly 1, `Σp ≥ 1` and `Σp² ≥ 1` at every scale, and a far query
//! (`d_min ≫ x0`) cannot underflow the sums the way raw distances do.
//!
//! `n_eff` grows monotonically in `x0`, from the number of rows at `d_min`
//! to `N`. The root of
//!
//! ```text
//! g(u) = 2·ln S1 − ln S2 − ln target,   u = ln x0,
//! S1 = Σp, S2 = Σp², A1 = Σe·p, A2 = Σe·p²,   p = exp(−e/x0)
//! g'(u) = (2/x0)·(A1/S1 − A2/S2) ≥ 0
//! ```
//!
//! is found by Newton's method on `u`, safeguarded by a bracket: one fused
//! pass over the rows yields the four sums and `Σp·y`; a Newton step that
//! leaves the running bracket is replaced by its midpoint; the search stops
//! once the step or the residual `g` falls below 1e-13 and returns that
//! pass's `Σp·y / Σp`. The start `x0 = mean(e)·target/N` is exact for
//! uniformly spread distances, where `g` is linear in `u`. The initial
//! bracket needs no evaluation: at `e⁺_min/750` (`e⁺_min` the smallest
//! positive shifted distance) every weight but those at `d_min` is
//! `exp(−750) = 0`, and at `e_max·2/ln(N/target)` every weight is at least
//! `√(target/N)`, so `n_eff ≥ target`. Start, bracket and iterates depend on
//! the query's own distances only, so a row's prediction is the same bits
//! alone or in any batch.
//!
//! Three cases have no root to search for and are defined directly: all
//! distances equal (within 1e-12) or `target ≥ N` (`blend = 100`) give the
//! plain mean of the targets; at least `target` rows at `d_min` (always so
//! for `blend = 0`) give the mean over those rows.
//!
//! The training state is append-only ([`IncrementalRegressor`]), bit-identical
//! to a from-scratch fit. Every training row carries weight and the per-query
//! scale depends on all distances, so a prediction is an O(n) pass by
//! definition and K* keeps no neighbour index: since the shifted nearest row
//! always weighs 1, there is no all-weights-underflowed case for one to serve.

use crate::batch::{check_out_len, FeatureMatrix, PredictScratch};
use crate::dataset::Dataset;
use crate::instances::InstanceStore;
use crate::regressor::{IncrementalRegressor, Regressor};
use crate::MlError;
use serde::{Deserialize, Serialize};

/// The scale search stops when its step in `u = ln x0`, or its residual
/// `ln(n_eff / target)`, is below this.
const TOL: f64 = 1e-13;

/// Ceiling on fused passes per query. Newton needs 4–6; the ceiling only
/// bounds the loop should the bracket ever shrink slower than that.
const MAX_PASSES: u32 = 64;

/// The K* regressor.
///
/// # Example
///
/// ```
/// use disar_ml::{Dataset, KStar, Regressor};
///
/// let mut data = Dataset::new(vec!["x".into()]);
/// for i in 0..20 {
///     data.push(vec![i as f64], 4.0 * i as f64).unwrap();
/// }
/// let mut ks = KStar::new(20.0);
/// ks.fit(&data).unwrap();
/// let y = ks.predict(&[10.0]).unwrap();
/// assert!((y - 40.0).abs() < 8.0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KStar {
    blend: f64,
    fitted: Option<InstanceStore>,
}

impl KStar {
    /// Creates a K* model with the given global blend percentage
    /// (clamped to `[0, 100]`; Weka's default is 20).
    pub fn new(blend: f64) -> Self {
        KStar {
            blend: blend.clamp(0.0, 100.0),
            fitted: None,
        }
    }

    /// The configured blend percentage.
    pub fn blend(&self) -> f64 {
        self.blend
    }

    /// One query against the fitted store: standardize into `q`, take the L1
    /// distances (the natural metric for a product of per-attribute Laplace
    /// kernels) into `dists`, run the kernel. The single path behind both
    /// [`Regressor::predict`] and [`Regressor::predict_batch`].
    fn predict_row(
        &self,
        f: &InstanceStore,
        x: &[f64],
        q: &mut Vec<f64>,
        dists: &mut Vec<f64>,
    ) -> f64 {
        if f.rows.len() == 1 {
            return f.targets[0];
        }
        f.scaler.transform_into(x, q);
        dists.clear();
        dists.extend(f.rows.iter().map(|r| {
            r.iter()
                .zip(q.iter())
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>()
        }));
        Self::kernel_predict(&f.targets, self.blend, dists).0
    }

    /// The per-query kernel on precomputed distances (at least two), which
    /// it shifts in place: the scale search of the module header and the
    /// weighted mean at the scale found. Also returns the number of fused
    /// passes the search took.
    fn kernel_predict(targets: &[f64], blend: f64, dists: &mut [f64]) -> (f64, u32) {
        let n = dists.len() as f64;
        let target = 1.0 + (blend / 100.0) * (n - 1.0);
        let dmin = dists.iter().cloned().fold(f64::INFINITY, f64::min);
        let dmax = dists.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        // Negated so that a non-finite spread (a non-finite query) also ends here.
        if !(dmax - dmin >= 1e-12) || target >= n {
            return (targets.iter().sum::<f64>() / n, 0);
        }

        let mut e_sum = 0.0;
        let mut e_pos_min = f64::INFINITY;
        let mut at_min = 0.0;
        let mut y_at_min = 0.0;
        for (e, y) in dists.iter_mut().zip(targets) {
            *e -= dmin;
            e_sum += *e;
            if *e == 0.0 {
                at_min += 1.0;
                y_at_min += y;
            } else {
                e_pos_min = e_pos_min.min(*e);
            }
        }
        if at_min >= target {
            return (y_at_min / at_min, 0);
        }

        let ln_target = target.ln();
        // g(lo) < 0 ≤ g(hi) without evaluating either (module header); the
        // cap keeps `hi` finite when `target` is within rounding of `n`, and
        // exp(-1e-17) is 1 in f64.
        let mut lo = (e_pos_min / 750.0).ln();
        let mut hi = ((dmax - dmin) * (2.0 / (n / target).ln()).min(1e17)).ln();
        let mut u = (e_sum / n * target / n).ln().clamp(lo, hi);
        let mut passes = 0;
        loop {
            passes += 1;
            let neg_inv_x0 = -1.0 / u.exp();
            let (mut s1, mut s2, mut a1, mut a2, mut num) = (0.0, 0.0, 0.0, 0.0, 0.0);
            for (&e, &y) in dists.iter().zip(targets) {
                let p = (e * neg_inv_x0).exp();
                let pp = p * p;
                s1 += p;
                s2 += pp;
                a1 += e * p;
                a2 += e * pp;
                num += p * y;
            }
            let g = 2.0 * s1.ln() - s2.ln() - ln_target;
            if g < 0.0 {
                lo = u;
            } else {
                hi = u;
            }
            let slope = -2.0 * neg_inv_x0 * (a1 / s1 - a2 / s2);
            let mut next = u - g / slope;
            // Also catches the NaN of a flat `g` (slope 0).
            if !(lo < next && next < hi) {
                next = 0.5 * (lo + hi);
            }
            // Where `g` is nearly flat its rounding noise alone makes steps
            // above the tolerance, hence the test on `g` itself.
            if g.abs().min((next - u).abs()) < TOL || passes == MAX_PASSES {
                return (num / s1, passes);
            }
            u = next;
        }
    }
}

impl Regressor for KStar {
    fn fit(&mut self, data: &Dataset) -> Result<(), MlError> {
        self.fitted = Some(InstanceStore::fit(data)?);
        Ok(())
    }

    fn predict(&self, x: &[f64]) -> Result<f64, MlError> {
        let f = self.fitted.as_ref().ok_or(MlError::NotFitted)?;
        if x.len() != f.scaler.dim() {
            return Err(MlError::FeatureDimensionMismatch {
                expected: f.scaler.dim(),
                got: x.len(),
            });
        }
        Ok(self.predict_row(f, x, &mut Vec::new(), &mut Vec::new()))
    }

    /// Batched K*: the scalar path per row with the per-query buffers
    /// (standardized query, distances) carried in `scratch`, so every output
    /// is bit-identical to [`Regressor::predict`] by construction.
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
        if xs.dim() != f.scaler.dim() {
            return Err(MlError::FeatureDimensionMismatch {
                expected: f.scaler.dim(),
                got: xs.dim(),
            });
        }
        let PredictScratch { q, dists, .. } = scratch;
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.predict_row(f, xs.row(i), q, dists);
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "KStar"
    }

    fn clone_box(&self) -> Box<dyn Regressor> {
        Box::new(self.clone())
    }

    fn as_incremental(&mut self) -> Option<&mut dyn IncrementalRegressor> {
        Some(self)
    }
}

impl IncrementalRegressor for KStar {
    fn partial_fit(&mut self, data: &Dataset, from: usize) -> Result<(), MlError> {
        match &mut self.fitted {
            Some(store) => store.extend(data, from).map(|_| ()),
            None if from == 0 => self.fit(data),
            None => Err(MlError::IncrementalMismatch { fitted: 0, from }),
        }
    }

    fn fitted_len(&self) -> usize {
        self.fitted.as_ref().map_or(0, InstanceStore::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disar_math::rng::stream_rng;

    fn ramp(n: usize) -> Dataset {
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..n {
            d.push(vec![i as f64], 2.0 * i as f64).unwrap();
        }
        d
    }

    /// Min-shifted L1 distances of `x` to the fitted rows, in row order.
    fn shifted_distances(ks: &KStar, x: &[f64]) -> Vec<f64> {
        let f = ks.fitted.as_ref().unwrap();
        let q = f.scaler.transform(x);
        let d: Vec<f64> = f
            .rows
            .iter()
            .map(|r| r.iter().zip(&q).map(|(a, b)| (a - b).abs()).sum())
            .collect();
        let dmin = d.iter().cloned().fold(f64::INFINITY, f64::min);
        d.iter().map(|d| d - dmin).collect()
    }

    /// The algorithm the Newton search replaced, kept as its reference: a
    /// 200-step log-bisection of `n_eff(x0) = target` over `[1e-300, 1e300]`
    /// on the shifted distances, then the weighted mean at the scale found.
    fn reference_predict(ks: &KStar, x: &[f64]) -> f64 {
        let e = shifted_distances(ks, x);
        let ys = &ks.fitted.as_ref().unwrap().targets;
        let target = 1.0 + (ks.blend / 100.0) * (e.len() as f64 - 1.0);
        let n_eff = |x0: f64| {
            let (s, s2) = e.iter().fold((0.0, 0.0), |(s, s2), e| {
                let p = (-e / x0).exp();
                (s + p, s2 + p * p)
            });
            s * s / s2
        };
        let (mut lo, mut hi) = (1e-300_f64.ln(), 1e300_f64.ln());
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if n_eff(mid.exp()) < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let x0 = (0.5 * (lo + hi)).exp();
        let (num, den) = e.iter().zip(ys).fold((0.0, 0.0), |(num, den), (e, y)| {
            let p = (-e / x0).exp();
            (num + p * y, den + p)
        });
        num / den
    }

    /// A fitted model over `n` seeded rows in `[0, 1]^dim` — on a four-level
    /// grid when `grid`, so that many rows and many distances coincide.
    fn random_model(n: usize, dim: usize, blend: f64, grid: bool, seed: u64) -> KStar {
        let mut rng = stream_rng(seed, 0x4B53);
        let mut d = Dataset::new((0..dim).map(|j| format!("x{j}")).collect());
        for _ in 0..n {
            let x: Vec<f64> = (0..dim)
                .map(|_| {
                    if grid {
                        rng.gen_range(0..4) as f64 / 3.0
                    } else {
                        rng.gen_range(0.0..1.0)
                    }
                })
                .collect();
            let y = 100.0
                + x.iter()
                    .enumerate()
                    .map(|(j, v)| 50.0 * (j + 1) as f64 * v)
                    .sum::<f64>()
                + rng.gen_range(0.0..10.0);
            d.push(x, y).unwrap();
        }
        let mut ks = KStar::new(blend);
        ks.fit(&d).unwrap();
        ks
    }

    /// Runs `check(model, query)` over the seeded sets the solver is held to:
    /// n 2…2000, dim 1…5, continuous and duplicate-heavy rows, four blends,
    /// queries inside the hull, far outside, and at a training row's
    /// standardized coordinates (the row itself when the set spans `[0, 1]`,
    /// as the grid sets do; a hair off it otherwise).
    fn for_each_case(mut check: impl FnMut(&KStar, &[f64])) {
        let sizes = [2, 3, 5, 17, 100, 530, 2000];
        for (i, &n) in sizes.iter().enumerate() {
            for dim in 1..=5 {
                for grid in [false, true] {
                    let blend = [1.0, 20.0, 60.0, 99.0][(i + dim) % 4];
                    let seed = (n * 10 + dim) as u64;
                    let ks = random_model(n, dim, blend, grid, seed);
                    let mut rng = stream_rng(seed, 0x5155);
                    for _ in 0..3 {
                        let inside: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect();
                        check(&ks, &inside);
                        let far: Vec<f64> = inside.iter().map(|v| 50.0 + 1e3 * v).collect();
                        check(&ks, &far);
                    }
                    let at_a_row = ks.fitted.as_ref().unwrap().rows[n / 2].clone();
                    check(&ks, &at_a_row);
                }
            }
        }
    }

    #[test]
    fn scale_search_matches_bisection_reference() {
        for_each_case(|ks, x| {
            let got = ks.predict(x).unwrap();
            let want = reference_predict(ks, x);
            assert!(
                (got - want).abs() <= 1e-12 * want.abs(),
                "n {} x {x:?}: {got} vs reference {want}",
                ks.fitted_len()
            );
        });
    }

    #[test]
    fn scale_search_pass_ceiling() {
        // Bisection needed ~83 passes per query; Newton must stay far below.
        let mut searched = 0;
        for_each_case(|ks, x| {
            let ys = &ks.fitted.as_ref().unwrap().targets;
            let (y, passes) = KStar::kernel_predict(ys, ks.blend, &mut shifted_distances(ks, x));
            assert_eq!(y.to_bits(), ks.predict(x).unwrap().to_bits());
            assert!(passes <= 12, "n {} x {x:?}: {passes} passes", ys.len());
            searched += (passes > 0) as usize;
        });
        assert!(searched > 300, "only {searched} cases reached the search");
    }

    #[test]
    fn scale_search_survives_far_query_underflow() {
        // d_min/x0 is in the thousands here. On raw distances p² underflowed,
        // n_eff fell back to 1 and the search settled on the underflow
        // boundary (291.21) rather than the root (322.58).
        let mut d = Dataset::new((0..5).map(|j| format!("x{j}")).collect());
        d.push(vec![0.1, 0.9, 0.3, 0.5, 0.2], 250.0).unwrap();
        d.push(vec![0.8, 0.2, 0.6, 0.1, 0.9], 290.0).unwrap();
        d.push(vec![0.4, 0.5, 0.9, 0.7, 0.4], 330.0).unwrap();
        let mut ks = KStar::new(20.0);
        ks.fit(&d).unwrap();
        let x = [900.0, 700.0, 800.0, 600.0, 1000.0];
        let got = ks.predict(&x).unwrap();
        let want = reference_predict(&ks, &x);
        assert!(
            (got - want).abs() <= 1e-12 * want,
            "{got} vs reference {want}"
        );
    }

    #[test]
    fn scale_search_is_bitwise_stable_across_batches() {
        let ks = random_model(200, 3, 20.0, false, 7);
        let mut rng = stream_rng(7, 0x5155);
        let queries: Vec<Vec<f64>> = (0..64)
            .map(|_| (0..3).map(|_| rng.gen_range(-0.5..1.5)).collect())
            .collect();
        let scalar: Vec<u64> = queries
            .iter()
            .map(|x| ks.predict(x).unwrap().to_bits())
            .collect();
        // One dirty scratch across every batch; rows in a stride-27 order
        // (coprime to 64), so neighbours in a batch are never the same twice.
        let mut scratch = PredictScratch::new();
        for width in [1, 2, 7, 64] {
            let order: Vec<usize> = (0..width).map(|i| (i * 27 + width) % 64).collect();
            let mut xs = FeatureMatrix::new();
            for &i in &order {
                xs.push_row(&queries[i]);
            }
            let mut out = vec![0.0; width];
            ks.predict_batch(&xs, &mut out, &mut scratch).unwrap();
            for (&i, y) in order.iter().zip(&out) {
                assert_eq!(y.to_bits(), scalar[i], "width {width} row {i}");
            }
        }
    }

    #[test]
    fn blend_zero_behaves_like_nearest_neighbour() {
        let d = ramp(30);
        let mut ks = KStar::new(0.0);
        ks.fit(&d).unwrap();
        // Query close to x=7 → target = 14.
        assert_eq!(ks.predict(&[7.1]).unwrap(), 14.0);
    }

    #[test]
    fn blend_zero_averages_the_rows_at_dmin() {
        let mut d = Dataset::new(vec!["x".into()]);
        for (x, y) in [(0.0, 0.0), (2.0, 20.0), (2.0, 40.0), (4.0, 90.0)] {
            d.push(vec![x], y).unwrap();
        }
        let mut ks = KStar::new(0.0);
        ks.fit(&d).unwrap();
        assert_eq!(ks.predict(&[2.5]).unwrap(), 30.0);
        // Rows 1 and 2 on one side, row 3 on the other, all at distance 1.
        assert_eq!(ks.predict(&[3.0]).unwrap(), 50.0);
    }

    #[test]
    fn blend_hundred_is_the_plain_mean() {
        let d = ramp(30);
        let mut ks = KStar::new(100.0);
        ks.fit(&d).unwrap();
        let mean = d.targets().iter().sum::<f64>() / 30.0;
        assert_eq!(ks.predict(&[0.0]).unwrap(), mean);
    }

    #[test]
    fn non_finite_query_gets_the_plain_mean() {
        // Every distance is infinite and their spread NaN: no scale to search.
        let d = ramp(30);
        let mut ks = KStar::new(20.0);
        ks.fit(&d).unwrap();
        let mean = d.targets().iter().sum::<f64>() / 30.0;
        assert_eq!(ks.predict(&[f64::INFINITY]).unwrap(), mean);
        assert_eq!(ks.predict(&[f64::NAN]).unwrap(), mean);
    }

    #[test]
    fn default_blend_interpolates_sensibly() {
        let d = ramp(50);
        let mut ks = KStar::new(20.0);
        ks.fit(&d).unwrap();
        let y = ks.predict(&[25.0]).unwrap();
        assert!((y - 50.0).abs() < 10.0, "got {y}");
    }

    #[test]
    fn monotone_in_blend_towards_mean() {
        // At a boundary query, larger blend → prediction closer to the mean.
        let d = ramp(40);
        let mean = d.target_mean();
        let mut prev_gap = f64::INFINITY;
        for blend in [0.0, 20.0, 60.0, 100.0] {
            let mut ks = KStar::new(blend);
            ks.fit(&d).unwrap();
            let y = ks.predict(&[0.0]).unwrap();
            let gap = (y - mean).abs();
            assert!(gap <= prev_gap + 1e-6, "blend {blend}: gap {gap} > {prev_gap}");
            prev_gap = gap;
        }
    }

    #[test]
    fn duplicate_rows_handled() {
        let mut d = Dataset::new(vec!["x".into()]);
        for _ in 0..5 {
            d.push(vec![1.0], 10.0).unwrap();
        }
        for _ in 0..5 {
            d.push(vec![1.0], 20.0).unwrap();
        }
        let mut ks = KStar::new(20.0);
        ks.fit(&d).unwrap();
        let y = ks.predict(&[1.0]).unwrap();
        assert!((y - 15.0).abs() < 1e-9, "uniform over duplicates, got {y}");
    }

    #[test]
    fn single_instance_training_set() {
        let mut d = Dataset::new(vec!["x".into()]);
        d.push(vec![5.0], 123.0).unwrap();
        let mut ks = KStar::new(20.0);
        ks.fit(&d).unwrap();
        assert_eq!(ks.predict(&[0.0]).unwrap(), 123.0);
    }

    #[test]
    fn blend_is_clamped() {
        assert_eq!(KStar::new(-5.0).blend(), 0.0);
        assert_eq!(KStar::new(250.0).blend(), 100.0);
    }

    #[test]
    fn predictions_within_target_range() {
        let d = ramp(25);
        let mut ks = KStar::new(35.0);
        ks.fit(&d).unwrap();
        for x in [-10.0, 0.0, 12.5, 24.0, 100.0] {
            let y = ks.predict(&[x]).unwrap();
            assert!((0.0..=48.0).contains(&y), "x={x} y={y}");
        }
    }

    #[test]
    fn partial_fit_matches_full_fit() {
        let d = ramp(40);
        let mut full = KStar::new(20.0);
        full.fit(&d).unwrap();
        let mut inc = KStar::new(20.0);
        inc.partial_fit(&d.filter(|i| i < 15), 0).unwrap();
        inc.partial_fit(&d, 15).unwrap();
        assert_eq!(inc.fitted_len(), 40);
        for x in [-3.0, 0.0, 14.5, 39.0, 55.0] {
            assert_eq!(
                inc.predict(&[x]).unwrap().to_bits(),
                full.predict(&[x]).unwrap().to_bits(),
                "x={x}"
            );
        }
    }
}
