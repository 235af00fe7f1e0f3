//! One policy year of the short rate and the equity index in one Gaussian
//! draw.
//!
//! A valuation that credits profit sharing reads three numbers per path and
//! policy year `[a, b]` (`a`, `b` grid steps `spy` apart):
//!
//! - the equity log-ratio `X = ln S_b / S_a`;
//! - the closing rate `r_b`;
//! - the grid sum `Σ = Σ_{i=a..b} r_i` of the rate, whose mean over the
//!   `spy + 1` points is the year's average rate, and from which the year's
//!   trapezoid integral is `dt · (Σ − (r_a + r_b)/2)`.
//!
//! When the rate's step is the exact Ornstein–Uhlenbeck transition
//! ([`StepCoeffs::OrnsteinUhlenbeck`]) and the equity's the exact lognormal
//! one ([`StepCoeffs::Lognormal`]), and one Cholesky factor correlates the
//! two shocks of every step with correlation `ρ`, every step is affine in the
//! previous state and in that step's Gaussian shocks. So, given `r_a`, the
//! triple `(X, r_b, Σ)` is 3-variate Gaussian: its mean is affine in `r_a`
//! and its covariance is a constant of the grid, the two drivers'
//! coefficients and `ρ`. [`AnnualRatesEquity`] holds that law and draws a
//! year from three standard normals. Chained year by year from the closing
//! rate, its triples have the joint law of the triples a step-by-step path
//! yields: the step-by-step path is Markov in the rate (the equity enters
//! only through its ratios), and each year's triple has the same conditional
//! law given the year's opening rate.
//!
//! With `m` the rate's mean level, `c` its decay and `v` its step
//! volatility, `μ` and `s` the equity's log drift and `σ·√dt` per step, and
//! `ε_i`, `η_i` the rate's and the equity's shocks at step `i = 1..n`
//! (`n = spy`):
//!
//! ```text
//! X   = n·μ                  + s · Σ_i η_i
//! r_b = m + cⁿ·(r_a − m)     + v · Σ_i c^{n−i} ε_i
//! Σ   = (n+1)·m + G·(r_a − m) + v · Σ_i g_{n−i} ε_i
//! ```
//!
//! where `g_k = Σ_{l=0..k} c^l` and `G = g_n`. The covariance follows from
//! `Var ε_i = Var η_i = 1` and `Cov(ε_i, η_i) = ρ`, the steps independent.

use crate::drivers::StepCoeffs;
use crate::StochasticError;

/// What a valuation reads of one policy year `[a, b]` of a path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YearDraw {
    /// The equity log-ratio `ln S_b / S_a`.
    pub log_return: f64,
    /// The closing rate `r_b`.
    pub rate_end: f64,
    /// The grid sum `Σ_{i=a..b} r_i` of the rate over the year's
    /// `steps_per_year + 1` points.
    pub rate_sum: f64,
}

/// The exact law of a policy year's `(ln S_b/S_a, r_b, Σ r)` given its
/// opening rate, for a Vasicek rate and a lognormal equity (module docs).
/// Built by [`crate::scenario::ScenarioGenerator::annual_rates_equity`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnualRatesEquity {
    steps_per_year: usize,
    dt: f64,
    n_years: usize,
    /// The triple's mean given `r_a` is `intercept + slope · r_a`.
    intercept: [f64; 3],
    slope: [f64; 3],
    /// Lower factor of the triple's covariance, row by row: `(0,0)`,
    /// `(1,0)`, `(1,1)`, `(2,0)`, `(2,1)`, `(2,2)`.
    factor: [f64; 6],
}

/// A conditional variance at most this share of its unconditioned one is a
/// direction the triple does not have (rank deficiency), not a pivot.
const RANK_TOLERANCE: f64 = 1e-12;

impl AnnualRatesEquity {
    /// The law of a year of `steps_per_year` steps of width `dt`, over
    /// `n_years` policy years, for a rate with coefficients `rate`, an
    /// equity with coefficients `equity` and shock correlation `rho`.
    ///
    /// # Errors
    ///
    /// [`StochasticError::InvalidConfiguration`] unless `rate` is
    /// [`StepCoeffs::OrnsteinUhlenbeck`], `equity` is
    /// [`StepCoeffs::Lognormal`] and `rho` lies in `[-1, 1]`.
    pub(crate) fn new(
        rate: StepCoeffs,
        equity: StepCoeffs,
        rho: f64,
        steps_per_year: usize,
        dt: f64,
        n_years: usize,
    ) -> Result<Self, StochasticError> {
        let StepCoeffs::OrnsteinUhlenbeck {
            mean_level: m,
            decay: c,
            vol: v,
        } = rate
        else {
            return Err(StochasticError::InvalidConfiguration(format!(
                "the rate driver steps by {rate:?}, not by an exact Ornstein-Uhlenbeck transition"
            )));
        };
        let StepCoeffs::Lognormal {
            log_drift: mu,
            vol_sqrt_dt: s,
        } = equity
        else {
            return Err(StochasticError::InvalidConfiguration(format!(
                "the equity driver steps by {equity:?}, not by an exact lognormal transition"
            )));
        };
        if !(-1.0..=1.0).contains(&rho) {
            return Err(StochasticError::InvalidConfiguration(format!(
                "rate-equity correlation {rho} outside [-1, 1]"
            )));
        }
        let n = steps_per_year;
        // Step `i`'s shocks reach `r_b` through c^{n−i} and Σ through
        // g_{n−i}; `k = n − i` runs over 0..n.
        let (mut sum_c, mut sum_g, mut sum_cc, mut sum_gg, mut sum_cg) = (0.0, 0.0, 0.0, 0.0, 0.0);
        let (mut c_k, mut g_k) = (1.0_f64, 1.0_f64);
        for _ in 0..n {
            sum_c += c_k;
            sum_g += g_k;
            sum_cc += c_k * c_k;
            sum_gg += g_k * g_k;
            sum_cg += c_k * g_k;
            c_k *= c;
            g_k += c_k;
        }
        // After the loop `c_k = cⁿ` and `g_k = g_n = G`.
        let (c_n, big_g) = (c_k, g_k);
        let var_x = n as f64 * s * s;
        let covariance = [
            [var_x, rho * s * v * sum_c, rho * s * v * sum_g],
            [rho * s * v * sum_c, v * v * sum_cc, v * v * sum_cg],
            [rho * s * v * sum_g, v * v * sum_cg, v * v * sum_gg],
        ];
        Ok(AnnualRatesEquity {
            steps_per_year,
            dt,
            n_years,
            intercept: [n as f64 * mu, m * (1.0 - c_n), m * ((n + 1) as f64 - big_g)],
            slope: [0.0, c_n, big_g],
            factor: lower_factor(&covariance),
        })
    }

    /// Grid steps per policy year.
    pub fn steps_per_year(&self) -> usize {
        self.steps_per_year
    }

    /// Grid step width in years.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Whole policy years the generator's grid covers.
    pub fn n_years(&self) -> usize {
        self.n_years
    }

    /// The triple's mean `(E X, E r_b, E Σ)` given the opening rate.
    pub fn mean(&self, rate_start: f64) -> [f64; 3] {
        [0, 1, 2].map(|i| self.intercept[i] + self.slope[i] * rate_start)
    }

    /// One policy year from the opening rate and three independent standard
    /// normals: the mean plus the lower factor times `z`. Negating `z`
    /// mirrors the year's deviation from its mean.
    #[inline]
    pub fn draw(&self, rate_start: f64, z: [f64; 3]) -> YearDraw {
        let f = &self.factor;
        let [mean_x, mean_b, mean_sum] = self.mean(rate_start);
        YearDraw {
            log_return: mean_x + f[0] * z[0],
            rate_end: mean_b + (f[1] * z[0] + f[2] * z[1]),
            rate_sum: mean_sum + (f[3] * z[0] + f[4] * z[1] + f[5] * z[2]),
        }
    }
}

/// A lower factor `L` of a positive semi-definite 3 × 3 covariance,
/// `L · Lᵀ = cov`, packed row by row. Cholesky without pivoting, except that
/// a pivot at most [`RANK_TOLERANCE`] of its diagonal entry (a direction the
/// law does not have: a one-step year, where `Σ = r_a + r_b`; a
/// zero-volatility equity; a correlation of ±1) leaves its column zero
/// instead of dividing by it. For a semi-definite matrix that column's
/// entries below the pivot vanish too, so nothing is lost but rounding.
fn lower_factor(cov: &[[f64; 3]; 3]) -> [f64; 6] {
    let mut l = [[0.0_f64; 3]; 3];
    for j in 0..3 {
        let pivot = cov[j][j] - (0..j).map(|k| l[j][k] * l[j][k]).sum::<f64>();
        if !(pivot > RANK_TOLERANCE * cov[j][j]) {
            continue;
        }
        let d = pivot.sqrt();
        l[j][j] = d;
        for i in j + 1..3 {
            l[i][j] = (cov[i][j] - (0..j).map(|k| l[i][k] * l[j][k]).sum::<f64>()) / d;
        }
    }
    [l[0][0], l[1][0], l[1][1], l[2][0], l[2][1], l[2][2]]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correlation::CorrelationMatrix;
    use crate::drivers::{Gbm, RiskDriver, Vasicek};
    use crate::scenario::{Measure, ScenarioBuffer, ScenarioGenerator, TimeGrid};
    use disar_math::rng::{stream_rng, StandardNormal};

    const PATHS: usize = 100_000;
    const RATE_START: f64 = 0.045;

    fn vasicek() -> Vasicek {
        Vasicek::new(0.025, 0.35, 0.028, 0.009, 0.18).unwrap()
    }

    fn generator(spy: usize, equity_sigma: f64, rho: f64) -> ScenarioGenerator {
        ScenarioGenerator::builder()
            .driver(Box::new(vasicek()))
            .driver(Box::new(
                Gbm::new(100.0, 0.065, equity_sigma, 0.025).unwrap(),
            ))
            .correlation(CorrelationMatrix::new(vec![vec![1.0, rho], vec![rho, 1.0]]).unwrap())
            .grid(TimeGrid::new(1.0, spy).unwrap())
            .build()
            .unwrap()
    }

    /// `PATHS` one-year triples from the step-by-step generator, every path
    /// opening at `RATE_START`.
    fn stepped_years(gen: &ScenarioGenerator) -> Vec<[f64; 3]> {
        let mut buf = ScenarioBuffer::new();
        gen.generate_into(
            Measure::RiskNeutral,
            PATHS,
            11,
            Some(&[RATE_START, 100.0]),
            &mut buf,
        )
        .unwrap();
        let view = buf.view();
        let n = view.grid().n_steps();
        (0..PATHS)
            .map(|p| {
                let (rates, equity) = (view.path(p, 0), view.path(p, 1));
                [(equity[n] / equity[0]).ln(), rates[n], rates.iter().sum()]
            })
            .collect()
    }

    /// `PATHS` one-year triples from the sampler, every path opening at
    /// `RATE_START`.
    fn sampled_years(law: &AnnualRatesEquity) -> Vec<[f64; 3]> {
        let mut z = vec![0.0; 3 * PATHS];
        StandardNormal::new().fill(&mut stream_rng(23, 0), &mut z);
        z.chunks(3)
            .map(|z| {
                let y = law.draw(RATE_START, [z[0], z[1], z[2]]);
                [y.log_return, y.rate_end, y.rate_sum]
            })
            .collect()
    }

    /// Sample means and (n − 1)-normalized covariances of the triples.
    fn moments(years: &[[f64; 3]]) -> ([f64; 3], [[f64; 3]; 3]) {
        let n = years.len() as f64;
        let mean = [0, 1, 2].map(|i| years.iter().map(|y| y[i]).sum::<f64>() / n);
        let mut cov = [[0.0; 3]; 3];
        for (i, row) in cov.iter_mut().enumerate() {
            for (j, entry) in row.iter_mut().enumerate() {
                let sum: f64 = years
                    .iter()
                    .map(|y| (y[i] - mean[i]) * (y[j] - mean[j]))
                    .sum();
                *entry = sum / (n - 1.0);
            }
        }
        (mean, cov)
    }

    /// Every mean and covariance entry of the two samples agrees within four
    /// standard errors of their difference. A Gaussian sample covariance
    /// has variance `(c_ii · c_jj + c_ij²) / n`. The absolute floor, far
    /// below any standard error here, admits entries that are zero up to
    /// rounding on both sides (a zero-volatility equity).
    fn assert_same_law(what: &str, a: &[[f64; 3]], b: &[[f64; 3]]) {
        let (mean_a, cov_a) = moments(a);
        let (mean_b, cov_b) = moments(b);
        let n = a.len() as f64;
        let names = ["ln S_b/S_a", "r_b", "sum r"];
        let pooled = |i: usize, j: usize| 0.5 * (cov_a[i][j] + cov_b[i][j]);
        for i in 0..3 {
            let se = ((cov_a[i][i] + cov_b[i][i]) / n).sqrt();
            let diff = (mean_a[i] - mean_b[i]).abs();
            assert!(
                diff <= 4.0 * se + 1e-14,
                "{what}: mean of {} {} vs {} ({} standard errors)",
                names[i],
                mean_a[i],
                mean_b[i],
                diff / se
            );
            for j in 0..=i {
                let se = (2.0 * (pooled(i, i) * pooled(j, j) + pooled(i, j).powi(2)) / n).sqrt();
                let diff = (cov_a[i][j] - cov_b[i][j]).abs();
                assert!(
                    diff <= 4.0 * se + 1e-14,
                    "{what}: Cov({}, {}) {} vs {} ({} standard errors)",
                    names[i],
                    names[j],
                    cov_a[i][j],
                    cov_b[i][j],
                    diff / se
                );
            }
        }
    }

    fn assert_finite_factor(what: &str, law: &AnnualRatesEquity) {
        assert!(
            law.factor.iter().all(|f| f.is_finite()),
            "{what}: {:?}",
            law.factor
        );
    }

    #[test]
    fn annual_law_matches_the_step_by_step_generator() {
        for spy in [1, 4, 12] {
            let gen = generator(spy, 0.17, -0.25);
            let law = gen.annual_rates_equity(Measure::RiskNeutral, 0, 1).unwrap();
            let what = format!("{spy} steps a year");
            assert_finite_factor(&what, &law);
            assert_same_law(&what, &stepped_years(&gen), &sampled_years(&law));
        }
    }

    #[test]
    fn annual_law_of_a_one_step_year_has_rank_two() {
        // One step: Σ = r_a + r_b, so the third pivot is not there.
        let law = generator(1, 0.17, -0.25)
            .annual_rates_equity(Measure::RiskNeutral, 0, 1)
            .unwrap();
        assert_eq!(law.factor[5], 0.0);
        for y in sampled_years(&law).iter().take(1000) {
            assert!((y[2] - (RATE_START + y[1])).abs() < 1e-15, "{y:?}");
        }
    }

    #[test]
    fn annual_law_of_a_zero_volatility_equity() {
        let gen = generator(4, 0.0, -0.25);
        let law = gen.annual_rates_equity(Measure::RiskNeutral, 0, 1).unwrap();
        assert_finite_factor("sigma 0", &law);
        assert_eq!([law.factor[0], law.factor[1], law.factor[3]], [0.0; 3]);
        assert_same_law("sigma 0", &stepped_years(&gen), &sampled_years(&law));
    }

    #[test]
    fn annual_law_at_a_correlation_of_plus_or_minus_one() {
        // No correlation matrix with |ρ| = 1 is positive definite, so the
        // reference steps the two drivers itself, with the equity's shock
        // ρ times the rate's.
        let (spy, dt) = (4, 0.25);
        let rate = vasicek();
        let equity = Gbm::new(100.0, 0.065, 0.17, 0.025).unwrap();
        let measure = Measure::RiskNeutral;
        for rho in [1.0, -1.0] {
            let law = AnnualRatesEquity::new(
                rate.step_coeffs(dt, measure),
                equity.step_coeffs(dt, measure),
                rho,
                spy,
                dt,
                1,
            )
            .unwrap();
            let what = format!("rho {rho}");
            assert_finite_factor(&what, &law);
            // Σ is then a linear function of X and r_b: rank two.
            assert!(
                law.factor[5].abs() < 1e-9 * law.factor[3].abs(),
                "{what}: {:?}",
                law.factor
            );
            let mut rng = stream_rng(5, 0);
            let mut gauss = StandardNormal::new();
            let stepped: Vec<[f64; 3]> = (0..PATHS)
                .map(|_| {
                    let (mut r, mut s) = (RATE_START, 100.0);
                    let mut sum = r;
                    for _ in 0..spy {
                        let z = gauss.sample(&mut rng);
                        r = rate.step(r, dt, z, measure);
                        s = equity.step(s, dt, rho * z, measure);
                        sum += r;
                    }
                    [(s / 100.0).ln(), r, sum]
                })
                .collect();
            assert_same_law(&what, &stepped, &sampled_years(&law));
        }
    }

    #[test]
    fn annual_antithetic_years_mirror_each_other() {
        // Every year is affine in its opening rate and its normals, so a
        // path drawn from −z deviates from the path drawn from zeros by the
        // exact opposite of the path drawn from z, year after year.
        let law = generator(4, 0.17, -0.25)
            .annual_rates_equity(Measure::RiskNeutral, 0, 1)
            .unwrap();
        let mut z = vec![0.0; 3 * 25];
        StandardNormal::new().fill(&mut stream_rng(3, 0), &mut z);
        let (mut up, mut down, mut centre) = (RATE_START, RATE_START, RATE_START);
        for z in z.chunks(3) {
            let a = law.draw(up, [z[0], z[1], z[2]]);
            let b = law.draw(down, [-z[0], -z[1], -z[2]]);
            let c = law.draw(centre, [0.0; 3]);
            for (x, y, m) in [
                (a.log_return, b.log_return, c.log_return),
                (a.rate_end, b.rate_end, c.rate_end),
                (a.rate_sum, b.rate_sum, c.rate_sum),
            ] {
                assert!((x - m + (y - m)).abs() < 1e-14, "{x} and {y} around {m}");
                assert_ne!(x, y);
            }
            (up, down, centre) = (a.rate_end, b.rate_end, c.rate_end);
        }
    }

    #[test]
    fn annual_law_mean_is_the_transition_mean() {
        // The zero-shock year is the step-by-step mean path: r_b the OU
        // mean after spy steps, Σ the sum of the means on the grid.
        let gen = generator(12, 0.17, -0.25);
        let law = gen.annual_rates_equity(Measure::RiskNeutral, 0, 1).unwrap();
        let (b, a, dt) = (0.028_f64, 0.35_f64, 1.0 / 12.0);
        let mean_at = |i: i32| b + (RATE_START - b) * (-a * dt * f64::from(i)).exp();
        let [x, r_b, sum] = law.mean(RATE_START);
        assert!((x - (0.025 - 0.5 * 0.17 * 0.17)).abs() < 1e-15);
        assert!((r_b - mean_at(12)).abs() < 1e-15);
        assert!((sum - (0..=12).map(mean_at).sum::<f64>()).abs() < 1e-14);
    }

    #[test]
    fn annual_law_rejects_a_correlation_outside_the_unit_interval() {
        let coeffs = |d: &dyn RiskDriver| d.step_coeffs(0.25, Measure::RiskNeutral);
        let (rate, equity) = (vasicek(), Gbm::new(100.0, 0.065, 0.17, 0.025).unwrap());
        for rho in [1.5, f64::NAN] {
            assert!(matches!(
                AnnualRatesEquity::new(coeffs(&rate), coeffs(&equity), rho, 4, 0.25, 1),
                Err(StochasticError::InvalidConfiguration(_))
            ));
        }
    }
}
