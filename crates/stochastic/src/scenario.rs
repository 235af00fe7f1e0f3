//! Time grids, the scenario buffer and the scenario generator.
//!
//! A *scenario* is a joint path of all risk drivers on a fine time grid.
//! The nested Monte Carlo procedure of the paper needs two kinds:
//!
//! 1. `nP` **outer** paths under the real-world measure `P` from `t = 0` to
//!    `t = 1` (the Solvency II unwinding horizon);
//! 2. for each outer endpoint, `nQ` **inner** paths under the risk-neutral
//!    measure `Q` from `t = 1` to contract maturity, *re-anchored* at the
//!    outer endpoint's state (the `F_1` filtration conditioning).
//!
//! The re-anchoring is expressed through the `initial_overrides` parameter
//! of [`ScenarioGenerator::generate_into`]. The nested valuation of
//! `disar-alm` steps only its outer paths on the grid: its inner paths are
//! drawn one policy year at a time from the exact law that
//! [`ScenarioGenerator::annual_rates_equity`] derives from the same drivers
//! ([`crate::annual`]), anchored at the outer endpoint's rate.
//!
//! # Allocation discipline
//!
//! A caller may fill many scenario sets of one shape in a row. Generated
//! paths therefore live in one place only, a caller-owned
//! [`ScenarioBuffer`] that [`ScenarioGenerator::generate_into`] fills in
//! place: after the first fill of a given shape, a reused buffer performs
//! **zero** heap allocations. They are read through one type, the borrowed
//! [`ScenarioView`] that [`ScenarioBuffer::view`] returns.
//!
//! # Generation
//!
//! The fill is one loop over the paths. Path `p` draws its whole path of
//! normals from its own stream `stream_rng(seed, p)`, correlates them driver
//! by driver, and then advances each driver along the path with
//! [`RiskDriver::step`], writing every state straight into the buffer. Paths
//! share no floating-point state, so a path's values depend only on the
//! seed, its index and the generator (DESIGN.md §12).

use crate::annual::AnnualRatesEquity;
use crate::correlation::CorrelationMatrix;
use crate::drivers::RiskDriver;
use crate::StochasticError;
use disar_math::rng::{stream_rng, StandardNormal};

/// The probability measure scenarios are generated under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Measure {
    /// Real-world ("natural") measure `P` — outer simulations.
    RealWorld,
    /// Risk-neutral measure `Q` — inner, market-consistent simulations.
    RiskNeutral,
}

/// An evenly spaced time grid from `0` to `horizon` years.
///
/// # Example
///
/// ```
/// use disar_stochastic::scenario::TimeGrid;
///
/// let g = TimeGrid::new(2.0, 12).unwrap();
/// assert_eq!(g.n_steps(), 24);
/// assert!((g.dt() - 1.0 / 12.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeGrid {
    horizon: f64,
    steps_per_year: usize,
}

impl TimeGrid {
    /// Creates a grid covering `horizon` years with `steps_per_year`
    /// sub-steps ("fine-grained time grid" in the paper's words).
    ///
    /// # Errors
    ///
    /// Returns [`StochasticError::InvalidParameter`] if `horizon` is not a
    /// positive finite number or `steps_per_year == 0`.
    pub fn new(horizon: f64, steps_per_year: usize) -> Result<Self, StochasticError> {
        if !(horizon > 0.0 && horizon.is_finite()) {
            return Err(StochasticError::InvalidParameter(
                "horizon must be positive and finite",
            ));
        }
        if steps_per_year == 0 {
            return Err(StochasticError::InvalidParameter(
                "steps_per_year must be > 0",
            ));
        }
        Ok(TimeGrid {
            horizon,
            steps_per_year,
        })
    }

    /// Total number of steps (at least 1; fractional final years round up).
    pub fn n_steps(&self) -> usize {
        ((self.horizon * self.steps_per_year as f64).ceil() as usize).max(1)
    }

    /// Step width in years.
    pub fn dt(&self) -> f64 {
        1.0 / self.steps_per_year as f64
    }

    /// Horizon in years.
    pub fn horizon(&self) -> f64 {
        self.horizon
    }

    /// Steps per year.
    pub fn steps_per_year(&self) -> usize {
        self.steps_per_year
    }
}

/// A borrowed, read-only window over the paths of a [`ScenarioBuffer`]'s
/// last fill ([`ScenarioBuffer::view`]). The valuation kernels in
/// `disar-alm` read every scenario through it. Two views are equal when
/// their shape, measure and every value are.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioView<'a> {
    grid: TimeGrid,
    measure: Measure,
    short_rate_index: Option<usize>,
    n_paths: usize,
    n_drivers: usize,
    /// Flattened `[path][driver][step]`.
    data: &'a [f64],
}

impl<'a> ScenarioView<'a> {
    /// Number of simulated paths.
    pub fn n_paths(&self) -> usize {
        self.n_paths
    }

    /// Number of risk drivers.
    pub fn n_drivers(&self) -> usize {
        self.n_drivers
    }

    /// The time grid the data was generated on.
    pub fn grid(&self) -> TimeGrid {
        self.grid
    }

    /// The measure the data was generated under.
    pub fn measure(&self) -> Measure {
        self.measure
    }

    /// Index of the short-rate driver, if one was configured.
    pub fn short_rate_index(&self) -> Option<usize> {
        self.short_rate_index
    }

    fn offset(&self, path: usize, driver: usize) -> usize {
        let stride = self.grid.n_steps() + 1;
        (path * self.n_drivers + driver) * stride
    }

    /// The full path of `driver` on `path` (length `n_steps + 1`), borrowed
    /// from the buffer for `'a`, not from the view, so it outlives a
    /// temporary `buf.view()`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn path(&self, path: usize, driver: usize) -> &'a [f64] {
        assert!(path < self.n_paths, "path index out of range");
        assert!(driver < self.n_drivers, "driver index out of range");
        let o = self.offset(path, driver);
        &self.data[o..o + self.grid.n_steps() + 1]
    }

    /// The value of `driver` on `path` at grid `step`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn value(&self, path: usize, driver: usize, step: usize) -> f64 {
        assert!(step <= self.grid.n_steps(), "step index out of range");
        self.path(path, driver)[step]
    }

    /// Writes all drivers' values on `path` at grid `step` into `out`
    /// (cleared first; used to re-anchor inner simulations at an outer
    /// endpoint without allocating).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn state_into(&self, path: usize, step: usize, out: &mut Vec<f64>) {
        out.clear();
        out.extend((0..self.n_drivers).map(|d| self.value(path, d, step)));
    }

    /// Money-market discount factor from step 0 to `step` along `path`,
    /// `exp(-∫ r dt)` by trapezoidal integration of the short-rate path.
    ///
    /// Returns `1.0` when no short-rate driver is present (deterministic
    /// zero-rate fallback).
    ///
    /// Each call re-sums the integral from step 0, i.e. costs `O(step)` —
    /// calling it for every step of a path is `O(n_steps²)`. Callers that
    /// need the factors at every year boundary of a path use
    /// [`ScenarioView::year_discount_factors_into`], one linear pass
    /// bit-identical to the per-call results.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn discount_factor(&self, path: usize, step: usize) -> f64 {
        let Some(sr) = self.short_rate_index else {
            return 1.0;
        };
        let rates = self.path(path, sr);
        assert!(step < rates.len(), "step index out of range");
        let dt = self.grid.dt();
        let mut integral = 0.0_f64;
        for s in 0..step {
            integral += 0.5 * (rates[s] + rates[s + 1]) * dt;
        }
        (-integral).exp()
    }

    /// Fills `out` (cleared first) with the discount factors at the
    /// whole-year boundaries `1..=n_years`: entry `k - 1` is bit-identical
    /// to `discount_factor(path, k * steps_per_year)`.
    ///
    /// One running trapezoidal integral serves all years; because the
    /// per-step additions happen in exactly the same order as each fresh
    /// `discount_factor` loop, every partial sum — and hence every emitted
    /// factor — matches the per-call result to the bit, at `O(n_steps)`
    /// total instead of `O(n_years · n_steps)`.
    ///
    /// # Panics
    ///
    /// Panics if `path` is out of range or the grid is shorter than
    /// `n_years` years.
    pub fn year_discount_factors_into(&self, path: usize, n_years: usize, out: &mut Vec<f64>) {
        out.clear();
        let spy = self.grid.steps_per_year();
        assert!(path < self.n_paths, "path index out of range");
        let n_steps = self.grid.n_steps();
        assert!(n_years * spy <= n_steps, "year index out of range");
        let Some(sr) = self.short_rate_index else {
            out.resize(n_years, 1.0);
            return;
        };
        let rates = self.path(path, sr);
        let dt = self.grid.dt();
        let mut integral = 0.0_f64;
        for k in 1..=n_years {
            for s in (k - 1) * spy..k * spy {
                integral += 0.5 * (rates[s] + rates[s + 1]) * dt;
            }
            out.push((-integral).exp());
        }
    }
}

/// Shape and provenance of the paths currently held by a
/// [`ScenarioBuffer`], stamped by the last `generate_into` fill.
#[derive(Debug, Clone, Copy)]
struct BufferMeta {
    grid: TimeGrid,
    measure: Measure,
    short_rate_index: Option<usize>,
    n_paths: usize,
    n_drivers: usize,
}

/// A reusable, caller-owned workspace for scenario generation.
///
/// [`ScenarioGenerator::generate_into`] fills it in place; after the first
/// fill of a given shape, subsequent fills of the same (or a smaller) shape
/// perform **zero** heap allocations. The buffer also owns the generator's
/// per-path scratch (raw draws and correlated shocks), so the whole
/// generation loop runs without touching the allocator.
///
/// Read access goes through [`ScenarioBuffer::view`].
#[derive(Debug, Clone, Default)]
pub struct ScenarioBuffer {
    meta: Option<BufferMeta>,
    /// Flattened `[path][driver][step]`.
    data: Vec<f64>,
    initials: Vec<f64>,
    /// One path's independent draws, `[step][driver]`.
    raw: Vec<f64>,
    /// The same path's correlated shocks, `[step][driver]`.
    shocks: Vec<f64>,
}

impl ScenarioBuffer {
    /// An empty buffer; the first fill sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-sizes the buffer, path scratch included, for `n_paths` paths
    /// from `generator`, so even the *first* fill of that shape allocates
    /// nothing.
    pub fn reserve_for(&mut self, generator: &ScenarioGenerator, n_paths: usize) {
        let n_drivers = generator.n_drivers();
        let n_steps = generator.grid().n_steps();
        let reserve = |v: &mut Vec<f64>, need: usize| v.reserve(need.saturating_sub(v.len()));
        reserve(&mut self.data, n_paths * n_drivers * (n_steps + 1));
        reserve(&mut self.initials, n_drivers);
        reserve(&mut self.raw, n_steps * n_drivers);
        reserve(&mut self.shocks, n_steps * n_drivers);
    }

    /// A read-only view over the paths written by the last fill.
    ///
    /// # Panics
    ///
    /// Panics if the buffer has never been filled.
    pub fn view(&self) -> ScenarioView<'_> {
        let meta = self
            .meta
            .expect("ScenarioBuffer::view called before any generate_into fill");
        ScenarioView {
            grid: meta.grid,
            measure: meta.measure,
            short_rate_index: meta.short_rate_index,
            n_paths: meta.n_paths,
            n_drivers: meta.n_drivers,
            data: &self.data,
        }
    }
}

/// Builder-constructed generator of correlated joint scenarios.
pub struct ScenarioGenerator {
    drivers: Vec<Box<dyn RiskDriver>>,
    correlation: CorrelationMatrix,
    grid: TimeGrid,
}

impl ScenarioGenerator {
    /// Starts building a generator.
    pub fn builder() -> ScenarioGeneratorBuilder {
        ScenarioGeneratorBuilder::default()
    }

    /// Number of drivers.
    pub fn n_drivers(&self) -> usize {
        self.drivers.len()
    }

    /// The configured time grid.
    pub fn grid(&self) -> TimeGrid {
        self.grid
    }

    /// The exact law of one policy year of `rate_driver` and
    /// `equity_driver` under `measure` on this generator's grid: the
    /// drivers' [`crate::drivers::StepCoeffs`], their shock correlation
    /// `(L·Lᵀ)[rate][equity]` and the steps per year, folded once into the mean
    /// coefficients and the 3 × 3 factor of [`AnnualRatesEquity`]. Drawing a
    /// path year by year from it gives what the generator's paths give a
    /// valuation (the equity's annual ratios, the rate at year ends, the
    /// rate's grid sums), in law, for three normals a year.
    ///
    /// # Errors
    ///
    /// [`StochasticError::IndexOutOfRange`] for a driver index past the
    /// drivers; [`StochasticError::InvalidConfiguration`] if the two indices
    /// are equal, the rate driver is not the short rate the generator's
    /// paths discount with, the grid is shorter than a year, or the rate's
    /// coefficients are not [`crate::drivers::StepCoeffs::OrnsteinUhlenbeck`]
    /// or the equity's not [`crate::drivers::StepCoeffs::Lognormal`] (a CIR
    /// rate, a driver on the `Generic` coefficients).
    pub fn annual_rates_equity(
        &self,
        measure: Measure,
        rate_driver: usize,
        equity_driver: usize,
    ) -> Result<AnnualRatesEquity, StochasticError> {
        let n_drivers = self.drivers.len();
        if rate_driver >= n_drivers || equity_driver >= n_drivers {
            return Err(StochasticError::IndexOutOfRange("driver index"));
        }
        if rate_driver == equity_driver {
            return Err(StochasticError::InvalidConfiguration(
                "the rate and the equity driver must differ".into(),
            ));
        }
        if self.drivers.iter().position(|d| d.is_short_rate()) != Some(rate_driver) {
            return Err(StochasticError::InvalidConfiguration(format!(
                "driver {rate_driver} is not the short rate the paths discount with"
            )));
        }
        let spy = self.grid.steps_per_year();
        let n_years = self.grid.n_steps() / spy;
        if n_years == 0 {
            return Err(StochasticError::InvalidConfiguration(
                "the grid is shorter than one policy year".into(),
            ));
        }
        let chol = self.correlation.cholesky();
        let rho: f64 = (0..n_drivers)
            .map(|k| chol[(rate_driver, k)] * chol[(equity_driver, k)])
            .sum();
        let dt = self.grid.dt();
        AnnualRatesEquity::new(
            self.drivers[rate_driver].step_coeffs(dt, measure),
            self.drivers[equity_driver].step_coeffs(dt, measure),
            rho.clamp(-1.0, 1.0),
            spy,
            dt,
            n_years,
        )
    }

    /// Fills `buf` with `n_paths` joint paths under `measure`, with
    /// deterministic per-path RNG streams derived from `seed`, reusing the
    /// buffer's storage: a warm same-shape refill performs zero heap
    /// allocations.
    ///
    /// `initial_overrides` replaces the drivers' own `t = 0` values — this is
    /// how a simulation is conditioned on another's state.
    ///
    /// Path `p` draws its `n_steps · n_drivers` normals from
    /// `stream_rng(seed, p)` with one [`StandardNormal::fill`] (step 1's
    /// drivers, then step 2's, …), correlates each step's draws with the
    /// Cholesky factor, and advances each driver with [`RiskDriver::step`].
    ///
    /// # Errors
    ///
    /// Returns [`StochasticError::InvalidConfiguration`] if `n_paths == 0` or
    /// the override vector has the wrong length.
    pub fn generate_into(
        &self,
        measure: Measure,
        n_paths: usize,
        seed: u64,
        initial_overrides: Option<&[f64]>,
        buf: &mut ScenarioBuffer,
    ) -> Result<(), StochasticError> {
        let n_drivers = self.drivers.len();
        if n_paths == 0 {
            return Err(StochasticError::InvalidConfiguration(
                "n_paths must be > 0".into(),
            ));
        }
        if let Some(init) = initial_overrides {
            if init.len() != n_drivers {
                return Err(StochasticError::InvalidConfiguration(format!(
                    "{} initial overrides for {n_drivers} drivers",
                    init.len()
                )));
            }
        }
        let n_steps = self.grid.n_steps();
        let dt = self.grid.dt();
        let stride = n_steps + 1;
        // `resize` without `clear`: on a same-shape refill this neither
        // allocates nor redundantly zero-fills — the loop below overwrites
        // every slot (initial state + all steps of all drivers).
        buf.data.resize(n_paths * n_drivers * stride, 0.0);
        buf.initials.clear();
        match initial_overrides {
            Some(init) => buf.initials.extend_from_slice(init),
            None => buf
                .initials
                .extend(self.drivers.iter().map(|d| d.initial_value())),
        }
        buf.raw.resize(n_steps * n_drivers, 0.0);
        buf.shocks.resize(n_steps * n_drivers, 0.0);
        buf.meta = Some(BufferMeta {
            grid: self.grid,
            measure,
            short_rate_index: self.drivers.iter().position(|d| d.is_short_rate()),
            n_paths,
            n_drivers,
        });
        let ScenarioBuffer {
            data,
            initials,
            raw,
            shocks,
            ..
        } = buf;
        let mut gauss = StandardNormal::new();
        for (p, path) in data.chunks_mut(n_drivers * stride).enumerate() {
            gauss.fill(&mut stream_rng(seed, p as u64), raw);
            self.correlation.correlate_path_into(raw, shocks);
            for (d, values) in path.chunks_mut(stride).enumerate() {
                let driver = &self.drivers[d];
                let mut state = initials[d];
                values[0] = state;
                let path_shocks = shocks[d..].iter().step_by(n_drivers);
                for (value, &z) in values[1..].iter_mut().zip(path_shocks) {
                    state = driver.step(state, dt, z, measure);
                    *value = state;
                }
            }
        }
        Ok(())
    }
}

/// Builder for [`ScenarioGenerator`].
#[derive(Default)]
pub struct ScenarioGeneratorBuilder {
    drivers: Vec<Box<dyn RiskDriver>>,
    correlation: Option<CorrelationMatrix>,
    grid: Option<TimeGrid>,
}

impl ScenarioGeneratorBuilder {
    /// Adds a risk driver (order defines the driver index).
    pub fn driver(mut self, driver: Box<dyn RiskDriver>) -> Self {
        self.drivers.push(driver);
        self
    }

    /// Sets the correlation matrix (defaults to identity).
    pub fn correlation(mut self, correlation: CorrelationMatrix) -> Self {
        self.correlation = Some(correlation);
        self
    }

    /// Sets the time grid (required).
    pub fn grid(mut self, grid: TimeGrid) -> Self {
        self.grid = Some(grid);
        self
    }

    /// Finalizes the generator.
    ///
    /// # Errors
    ///
    /// Returns [`StochasticError::InvalidConfiguration`] when no drivers were
    /// added, no grid was set, or the correlation dimension does not match
    /// the driver count.
    pub fn build(self) -> Result<ScenarioGenerator, StochasticError> {
        if self.drivers.is_empty() {
            return Err(StochasticError::InvalidConfiguration(
                "at least one driver is required".into(),
            ));
        }
        let grid = self.grid.ok_or_else(|| {
            StochasticError::InvalidConfiguration("a time grid is required".into())
        })?;
        let correlation = self
            .correlation
            .unwrap_or_else(|| CorrelationMatrix::identity(self.drivers.len()));
        if correlation.dim() != self.drivers.len() {
            return Err(StochasticError::InvalidConfiguration(format!(
                "correlation dimension {} != driver count {}",
                correlation.dim(),
                self.drivers.len()
            )));
        }
        Ok(ScenarioGenerator {
            drivers: self.drivers,
            correlation,
            grid,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drivers::tests::Drifting;
    use crate::drivers::{Cir, FxRate, Gbm, Vasicek};
    use disar_math::stats;

    fn sample_generator() -> ScenarioGenerator {
        ScenarioGenerator::builder()
            .driver(Box::new(Vasicek::new(0.02, 0.5, 0.03, 0.01, 0.2).unwrap()))
            .driver(Box::new(Gbm::new(100.0, 0.07, 0.2, 0.02).unwrap()))
            .correlation(
                CorrelationMatrix::new(vec![vec![1.0, -0.3], vec![-0.3, 1.0]]).unwrap(),
            )
            .grid(TimeGrid::new(1.0, 12).unwrap())
            .build()
            .unwrap()
    }

    #[test]
    fn grid_rounds_fractional_years_up() {
        let g = TimeGrid::new(1.5, 12).unwrap();
        assert_eq!(g.n_steps(), 18);
        let g2 = TimeGrid::new(0.01, 12).unwrap();
        assert_eq!(g2.n_steps(), 1);
    }

    /// A fresh buffer holding `generate_into`'s fill.
    fn fill(
        gen: &ScenarioGenerator,
        measure: Measure,
        n_paths: usize,
        seed: u64,
        overrides: Option<&[f64]>,
    ) -> ScenarioBuffer {
        let mut buf = ScenarioBuffer::new();
        gen.generate_into(measure, n_paths, seed, overrides, &mut buf)
            .unwrap();
        buf
    }

    #[test]
    fn non_finite_grid_horizons_are_typed_errors() {
        for horizon in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                matches!(
                    TimeGrid::new(horizon, 12),
                    Err(StochasticError::InvalidParameter(_))
                ),
                "horizon {horizon}"
            );
        }
    }

    #[test]
    fn set_shape_and_initials() {
        let gen = sample_generator();
        let buf = fill(&gen, Measure::RealWorld, 25, 3, None);
        let set = buf.view();
        assert_eq!(set.n_paths(), 25);
        assert_eq!(set.n_drivers(), 2);
        assert_eq!(set.path(0, 0).len(), 13);
        for p in 0..25 {
            assert_eq!(set.value(p, 0, 0), 0.02);
            assert_eq!(set.value(p, 1, 0), 100.0);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let gen = sample_generator();
        let a = fill(&gen, Measure::RiskNeutral, 10, 5, None);
        let b = fill(&gen, Measure::RiskNeutral, 10, 5, None);
        assert_eq!(a.view(), b.view());
        let c = fill(&gen, Measure::RiskNeutral, 10, 6, None);
        assert_ne!(a.view(), c.view());
    }

    #[test]
    fn initial_overrides_anchor_paths() {
        let gen = sample_generator();
        let init = vec![0.05, 80.0];
        let buf = fill(&gen, Measure::RiskNeutral, 5, 1, Some(&init));
        let mut state = Vec::new();
        for p in 0..5 {
            buf.view().state_into(p, 0, &mut state);
            assert_eq!(state, init);
        }
    }

    #[test]
    fn override_length_validated() {
        let gen = sample_generator();
        let mut buf = ScenarioBuffer::new();
        assert!(gen
            .generate_into(Measure::RiskNeutral, 5, 1, Some(&[0.05]), &mut buf)
            .is_err());
    }

    #[test]
    fn discount_factor_decreases_with_positive_rates() {
        let gen = sample_generator();
        let buf = fill(&gen, Measure::RiskNeutral, 3, 9, None);
        let set = buf.view();
        for p in 0..3 {
            let d_half = set.discount_factor(p, 6);
            let d_full = set.discount_factor(p, 12);
            assert!(d_half <= 1.0);
            assert!(d_full <= d_half, "discount must be non-increasing");
            assert!(d_full > 0.8, "rates are small; {d_full}");
        }
    }

    #[test]
    fn discount_factor_without_short_rate_is_one() {
        let buf = rateless_set();
        assert_eq!(buf.view().discount_factor(0, 4), 1.0);
        assert_eq!(buf.view().short_rate_index(), None);
    }

    #[test]
    fn empirical_cross_correlation_has_right_sign() {
        let gen = sample_generator();
        let buf = fill(&gen, Measure::RealWorld, 4000, 13, None);
        let set = buf.view();
        // One-step increments of rate vs log-equity should correlate ≈ -0.3.
        let mut dr = Vec::new();
        let mut ds = Vec::new();
        for p in 0..set.n_paths() {
            dr.push(set.value(p, 0, 1) - set.value(p, 0, 0));
            ds.push((set.value(p, 1, 1) / set.value(p, 1, 0)).ln());
        }
        let c = stats::correlation(&dr, &ds);
        assert!((c + 0.3).abs() < 0.05, "empirical correlation {c}");
    }

    #[test]
    fn builder_validation() {
        assert!(ScenarioGenerator::builder()
            .grid(TimeGrid::new(1.0, 12).unwrap())
            .build()
            .is_err());
        assert!(ScenarioGenerator::builder()
            .driver(Box::new(Gbm::new(1.0, 0.0, 0.1, 0.0).unwrap()))
            .build()
            .is_err());
        assert!(ScenarioGenerator::builder()
            .driver(Box::new(Gbm::new(1.0, 0.0, 0.1, 0.0).unwrap()))
            .correlation(CorrelationMatrix::identity(3))
            .grid(TimeGrid::new(1.0, 12).unwrap())
            .build()
            .is_err());
    }

    #[test]
    fn zero_paths_rejected() {
        let gen = sample_generator();
        let mut buf = ScenarioBuffer::new();
        assert!(gen
            .generate_into(Measure::RealWorld, 0, 1, None, &mut buf)
            .is_err());
    }

    #[test]
    fn rates_equity_terminal_moments_match_closed_form_under_q() {
        let (r0, a, b, sigma) = (0.025, 0.35, 0.028, 0.009);
        let (s0, vol, risk_free, rho) = (100.0_f64, 0.17, 0.025, -0.25);
        let (years, spy, n_paths) = (10.0, 4, 20_000);
        let gen = ScenarioGenerator::builder()
            .driver(Box::new(Vasicek::new(r0, a, b, sigma, 0.18).unwrap()))
            .driver(Box::new(Gbm::new(s0, 0.065, vol, risk_free).unwrap()))
            .correlation(CorrelationMatrix::new(vec![vec![1.0, rho], vec![rho, 1.0]]).unwrap())
            .grid(TimeGrid::new(years, spy).unwrap())
            .build()
            .unwrap();
        let buf = fill(&gen, Measure::RiskNeutral, n_paths, 20160627, None);
        let set = buf.view();
        let n_steps = set.grid().n_steps();
        assert_eq!(n_steps, 40);
        let rate: Vec<f64> = (0..n_paths).map(|p| set.value(p, 0, n_steps)).collect();
        let log_s: Vec<f64> = (0..n_paths)
            .map(|p| set.value(p, 1, n_steps).ln())
            .collect();

        let dt = 1.0 / spy as f64;
        let decay = (-a * dt).exp();
        let rate_var = sigma * sigma / (2.0 * a) * (1.0 - (-2.0 * a * years).exp());
        let log_var = vol * vol * years;
        // Step j's shocks reach the terminal rate through decay^(n − j).
        let step_vol = (sigma * sigma / (2.0 * a) * (1.0 - decay * decay)).sqrt();
        let cov = rho * step_vol * vol * dt.sqrt() * (1.0 - decay.powi(40)) / (1.0 - decay);
        let corr = cov / (rate_var * log_var).sqrt();

        let n = n_paths as f64;
        let rate_mean = b + (r0 - b) * (-a * years).exp();
        let log_mean = s0.ln() + (risk_free - 0.5 * vol * vol) * years;
        let var_se = (2.0 / (n - 1.0)).sqrt();
        let what = ["E r", "E ln S", "Var r", "Var ln S", "Corr(r, ln S)"];
        let got = [
            stats::mean(&rate),
            stats::mean(&log_s),
            stats::variance(&rate),
            stats::variance(&log_s),
            stats::correlation(&rate, &log_s),
        ];
        let want = [rate_mean, log_mean, rate_var, log_var, corr];
        let se = [
            (rate_var / n).sqrt(),
            (log_var / n).sqrt(),
            rate_var * var_se,
            log_var * var_se,
            (1.0 - corr * corr) / n.sqrt(),
        ];
        for i in 0..what.len() {
            let z = (got[i] - want[i]) / se[i];
            assert!(z.abs() < 4.0, "{}: {z} standard errors off", what[i]);
        }
    }

    /// Shape, measure and every value of `a` equal `b`'s, bit for bit.
    fn assert_views_bitwise(a: &ScenarioView<'_>, b: &ScenarioView<'_>) {
        let shape = |v: &ScenarioView<'_>| (v.grid, v.measure, v.short_rate_index, v.n_paths, v.n_drivers);
        assert_eq!(shape(a), shape(b));
        let bits = |v: &ScenarioView<'_>| v.data.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(b));
    }

    #[test]
    fn buffer_reuse_does_not_leak_between_fills() {
        let gen = sample_generator();
        let mut buf = ScenarioBuffer::new();
        // Pollute with a larger fill, then refill smaller: the result must
        // match a fresh buffer's fill exactly.
        gen.generate_into(Measure::RealWorld, 18, 7, None, &mut buf)
            .unwrap();
        gen.generate_into(Measure::RiskNeutral, 4, 11, Some(&[0.01, 95.0]), &mut buf)
            .unwrap();
        let fresh = fill(&gen, Measure::RiskNeutral, 4, 11, Some(&[0.01, 95.0]));
        assert_views_bitwise(&buf.view(), &fresh.view());
    }

    #[test]
    fn reserve_for_presizes_without_filling() {
        let gen = sample_generator();
        let mut buf = ScenarioBuffer::new();
        buf.reserve_for(&gen, 10);
        gen.generate_into(Measure::RealWorld, 10, 3, None, &mut buf).unwrap();
        let fresh = fill(&gen, Measure::RealWorld, 10, 3, None);
        assert_views_bitwise(&buf.view(), &fresh.view());
    }

    #[test]
    fn year_discount_factors_match_per_step_calls() {
        let gen = ScenarioGenerator::builder()
            .driver(Box::new(Vasicek::new(0.02, 0.5, 0.03, 0.01, 0.2).unwrap()))
            .driver(Box::new(Gbm::new(100.0, 0.07, 0.2, 0.02).unwrap()))
            .grid(TimeGrid::new(3.0, 12).unwrap())
            .build()
            .unwrap();
        let buf = fill(&gen, Measure::RiskNeutral, 4, 21, None);
        let v = buf.view();
        let mut dfs = Vec::new();
        for p in 0..v.n_paths() {
            v.year_discount_factors_into(p, 3, &mut dfs);
            assert_eq!(dfs.len(), 3);
            for (k, df) in dfs.iter().enumerate() {
                let reference = v.discount_factor(p, (k + 1) * 12);
                assert_eq!(df.to_bits(), reference.to_bits(), "path {p} year {}", k + 1);
            }
        }
    }

    #[test]
    fn year_discount_factors_without_short_rate_are_one() {
        let mut dfs = vec![0.5; 7];
        rateless_set()
            .view()
            .year_discount_factors_into(0, 2, &mut dfs);
        assert_eq!(dfs, vec![1.0, 1.0]);
    }

    /// Two paths over two years, no short-rate driver.
    fn rateless_set() -> ScenarioBuffer {
        let gen = ScenarioGenerator::builder()
            .driver(Box::new(Gbm::new(1.0, 0.0, 0.1, 0.0).unwrap()))
            .grid(TimeGrid::new(2.0, 4).unwrap())
            .build()
            .unwrap();
        fill(&gen, Measure::RiskNeutral, 2, 0, None)
    }

    #[test]
    #[should_panic(expected = "path index out of range")]
    fn year_discount_factors_without_short_rate_check_the_path() {
        rateless_set()
            .view()
            .year_discount_factors_into(2, 2, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "year index out of range")]
    fn year_discount_factors_without_short_rate_check_the_years() {
        rateless_set()
            .view()
            .year_discount_factors_into(0, 3, &mut Vec::new());
    }

    #[test]
    fn state_into_matches_per_driver_values() {
        let gen = sample_generator();
        let buf = fill(&gen, Measure::RealWorld, 3, 17, None);
        let v = buf.view();
        let mut state = Vec::new();
        for p in 0..3 {
            v.state_into(p, 12, &mut state);
            let expected: Vec<f64> = (0..v.n_drivers()).map(|d| v.value(p, d, 12)).collect();
            assert_eq!(state, expected);
        }
    }

    #[test]
    #[should_panic(expected = "before any generate_into fill")]
    fn buffer_view_before_fill_panics() {
        let _ = ScenarioBuffer::new().view();
    }

    /// All four built-in drivers (CIR violating the Feller condition, so
    /// the truncation branch runs) plus one on the `Generic` coefficients.
    fn kernel_drivers() -> Vec<Box<dyn RiskDriver>> {
        vec![
            Box::new(Vasicek::new(0.02, 0.5, 0.03, 0.01, 0.1).unwrap()),
            Box::new(Gbm::new(100.0, 0.05, 0.2, 0.02).unwrap()),
            Box::new(FxRate::new(1.1, 0.02, 0.1, 0.015).unwrap()),
            Box::new(Cir::default_intensity(0.01, 0.3, 0.02, 0.5).unwrap()),
            Box::new(Drifting),
        ]
    }

    fn kernel_generator() -> ScenarioGenerator {
        let mut corr: Vec<Vec<f64>> = (0..5)
            .map(|i| (0..5).map(|j| if i == j { 1.0 } else { 0.0 }).collect())
            .collect();
        for (i, j, rho) in [(0, 1, -0.3), (0, 2, 0.1), (1, 2, 0.2), (3, 4, 0.25)] {
            corr[i][j] = rho;
            corr[j][i] = rho;
        }
        let mut b = ScenarioGenerator::builder();
        for d in kernel_drivers() {
            b = b.driver(d);
        }
        b.correlation(CorrelationMatrix::new(corr).unwrap())
            .grid(TimeGrid::new(1.5, 4).unwrap())
            .build()
            .unwrap()
    }

    /// The generation loop step by step, sharing no code with
    /// `generate_into`: per path and step, one draw per driver, the
    /// correlation entry by entry, one `RiskDriver::step` call per driver.
    fn reference_scalar_paths(
        gen: &ScenarioGenerator,
        measure: Measure,
        n_paths: usize,
        seed: u64,
        overrides: Option<&[f64]>,
    ) -> Vec<f64> {
        let n_drivers = gen.drivers.len();
        let dt = gen.grid.dt();
        let stride = gen.grid.n_steps() + 1;
        let initials: Vec<f64> = match overrides {
            Some(o) => o.to_vec(),
            None => gen.drivers.iter().map(|d| d.initial_value()).collect(),
        };
        let mut data = vec![0.0; n_paths * n_drivers * stride];
        let mut raw = vec![0.0; n_drivers];
        let mut shocks = vec![0.0; n_drivers];
        let chol = gen.correlation.cholesky();
        for p in 0..n_paths {
            let mut rng = stream_rng(seed, p as u64);
            let mut gauss = StandardNormal::new();
            let mut state = initials.clone();
            for d in 0..n_drivers {
                data[(p * n_drivers + d) * stride] = initials[d];
            }
            for step in 1..stride {
                for z in raw.iter_mut() {
                    *z = gauss.sample(&mut rng);
                }
                // `L · raw` entry by entry: `0.0`, then `L[d][j] · raw[j]`
                // for `j ≤ d` in order of `j`.
                for (d, shock) in shocks.iter_mut().enumerate() {
                    let mut sum = 0.0;
                    for (j, z) in raw[..=d].iter().enumerate() {
                        sum += chol[(d, j)] * z;
                    }
                    *shock = sum;
                }
                for d in 0..n_drivers {
                    state[d] = gen.drivers[d].step(state[d], dt, shocks[d], measure);
                    data[(p * n_drivers + d) * stride + step] = state[d];
                }
            }
        }
        data
    }

    #[test]
    fn fill_bitwise_matches_scalar_reference() {
        let gen = kernel_generator();
        let init = [0.045, 110.0, 0.9, 0.03, 1.2];
        let mut buf = ScenarioBuffer::new();
        for n_paths in [1usize, 7, 8, 9, 17] {
            for measure in [Measure::RealWorld, Measure::RiskNeutral] {
                for overrides in [None, Some(&init[..])] {
                    gen.generate_into(measure, n_paths, 42, overrides, &mut buf)
                        .unwrap();
                    let reference = reference_scalar_paths(&gen, measure, n_paths, 42, overrides);
                    let view = buf.view();
                    assert_eq!(view.data.len(), reference.len());
                    for (k, (x, y)) in view.data.iter().zip(&reference).enumerate() {
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "{n_paths} paths {measure:?} flat index {k}"
                        );
                    }
                }
            }
        }
    }

    /// The valuation's shape: 40 years at four steps a year, with the
    /// rates-equity market's two correlated drivers and with a third.
    fn valuation_shape_generators() -> [ScenarioGenerator; 2] {
        let rates_equity = || {
            ScenarioGenerator::builder()
                .driver(Box::new(
                    Vasicek::new(0.025, 0.35, 0.028, 0.009, 0.18).unwrap(),
                ))
                .driver(Box::new(Gbm::new(100.0, 0.065, 0.17, 0.025).unwrap()))
                .grid(TimeGrid::new(40.0, 4).unwrap())
        };
        let corr = |rows: Vec<Vec<f64>>| CorrelationMatrix::new(rows).unwrap();
        [
            rates_equity()
                .correlation(corr(vec![vec![1.0, -0.25], vec![-0.25, 1.0]]))
                .build()
                .unwrap(),
            rates_equity()
                .driver(Box::new(FxRate::new(1.1, 0.02, 0.1, 0.015).unwrap()))
                .correlation(corr(vec![
                    vec![1.0, -0.3, 0.1],
                    vec![-0.3, 1.0, 0.2],
                    vec![0.1, 0.2, 1.0],
                ]))
                .build()
                .unwrap(),
        ]
    }

    #[test]
    fn fill_bitwise_matches_scalar_reference_at_the_valuation_shape() {
        let mut buf = ScenarioBuffer::new();
        for gen in valuation_shape_generators() {
            assert_eq!(gen.grid.n_steps(), 160);
            let init: Vec<f64> = gen
                .drivers
                .iter()
                .map(|d| 1.1 * d.initial_value())
                .collect();
            for n_paths in [1usize, 8, 9, 50] {
                for measure in [Measure::RealWorld, Measure::RiskNeutral] {
                    for overrides in [None, Some(&init[..])] {
                        gen.generate_into(measure, n_paths, 7, overrides, &mut buf)
                            .unwrap();
                        let reference =
                            reference_scalar_paths(&gen, measure, n_paths, 7, overrides);
                        let data = buf.view().data;
                        assert_eq!(data.len(), reference.len());
                        for (k, (x, y)) in data.iter().zip(&reference).enumerate() {
                            assert_eq!(
                                x.to_bits(),
                                y.to_bits(),
                                "{} drivers, {n_paths} paths {measure:?} flat index {k}",
                                gen.n_drivers()
                            );
                        }
                    }
                }
            }
        }
    }

    /// FNV-1a over the little-endian bytes of every value's bits.
    fn fnv1a_bits(values: &[f64]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        for byte in values.iter().flat_map(|x| x.to_bits().to_le_bytes()) {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    #[test]
    fn fill_known_answer_digests() {
        // The bits of `generate_into` for all four built-in drivers and one
        // on the `Generic` coefficients, and for both valuation shapes, under
        // both measures, with and without overrides: nine paths each. A
        // change to the fill's arithmetic, stream layout or correlation
        // order moves a digest.
        let [two, three] = valuation_shape_generators();
        let mut digests = Vec::new();
        for gen in [kernel_generator(), two, three] {
            let init: Vec<f64> = gen
                .drivers
                .iter()
                .map(|d| 1.1 * d.initial_value())
                .collect();
            for measure in [Measure::RealWorld, Measure::RiskNeutral] {
                for overrides in [None, Some(&init[..])] {
                    let buf = fill(&gen, measure, 9, 20160627, overrides);
                    digests.push(fnv1a_bits(buf.view().data));
                }
            }
        }
        // Per generator: (P, none), (P, overrides), (Q, none), (Q, overrides).
        let expected: [u64; 12] = [
            0x75501320e6e2e863,
            0x463f4e0bf2f6711d,
            0xb265d3d9cea333e5,
            0x626da125613ce872,
            0x24fe2d15a5513c68,
            0xad3bbc3cd813d507,
            0xb9089a1dadb592f9,
            0x9e7a8b09e9f6a50c,
            0xa02e93d82f8c293a,
            0xc7b61dcf5b72eb45,
            0xd648c35f59145e4d,
            0xeadcd2f43359e267,
        ];
        for (k, (got, want)) in digests.iter().zip(expected).enumerate() {
            assert_eq!(*got, want, "fill {k}: {got:#018x}");
        }
    }

    #[test]
    fn reserve_for_covers_the_first_fill() {
        let capacities = |b: &ScenarioBuffer| {
            [
                b.data.capacity(),
                b.initials.capacity(),
                b.raw.capacity(),
                b.shocks.capacity(),
            ]
        };
        let [two, three] = valuation_shape_generators();
        for gen in [kernel_generator(), two, three] {
            let mut buf = ScenarioBuffer::new();
            buf.reserve_for(&gen, 20);
            let reserved = capacities(&buf);
            gen.generate_into(Measure::RiskNeutral, 20, 3, None, &mut buf)
                .unwrap();
            let what = format!("{} drivers", gen.n_drivers());
            assert_eq!(capacities(&buf), reserved, "{what}");
            let scratch = gen.grid.n_steps() * gen.n_drivers();
            assert_eq!(buf.raw.len(), scratch, "{what}");
            assert_eq!(buf.shocks.len(), scratch, "{what}");
        }
    }

    #[test]
    fn annual_rates_equity_is_a_typed_error_off_vasicek_and_lognormal() {
        let build = |drivers: Vec<Box<dyn RiskDriver>>| {
            let mut b = ScenarioGenerator::builder();
            for d in drivers {
                b = b.driver(d);
            }
            b.grid(TimeGrid::new(2.0, 4).unwrap()).build().unwrap()
        };
        let vasicek = || Box::new(Vasicek::new(0.02, 0.5, 0.03, 0.01, 0.1).unwrap());
        let gbm = || Box::new(Gbm::new(100.0, 0.05, 0.2, 0.02).unwrap());
        let cir = Box::new(Cir::short_rate(0.02, 0.5, 0.03, 0.05, 0.0).unwrap());
        let config_error = |gen: &ScenarioGenerator, rate, equity| {
            matches!(
                gen.annual_rates_equity(Measure::RiskNeutral, rate, equity),
                Err(StochasticError::InvalidConfiguration(_))
            )
        };
        // A CIR short rate, an equity on the `Generic` coefficients, two
        // equities, one index twice, and a Vasicek that is not the first
        // short rate (the paths discount with the CIR one).
        assert!(config_error(&build(vec![cir.clone(), gbm()]), 0, 1));
        assert!(config_error(&build(vec![vasicek(), Box::new(Drifting)]), 0, 1));
        assert!(config_error(&build(vec![gbm(), gbm()]), 0, 1));
        assert!(config_error(&build(vec![vasicek(), gbm()]), 0, 0));
        assert!(config_error(&build(vec![cir, vasicek(), gbm()]), 1, 2));
        let gen = build(vec![vasicek(), gbm()]);
        assert!(matches!(
            gen.annual_rates_equity(Measure::RiskNeutral, 0, 2),
            Err(StochasticError::IndexOutOfRange(_))
        ));
        assert!(gen.annual_rates_equity(Measure::RiskNeutral, 0, 1).is_ok());
        let short = ScenarioGenerator::builder()
            .driver(vasicek())
            .driver(gbm())
            .grid(TimeGrid::new(0.5, 4).unwrap())
            .build()
            .unwrap();
        assert!(config_error(&short, 0, 1));
    }
}
