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
//! equals `target = 1 + (blend/100) · (N − 1)`, where the "global blend" is
//! Weka's default of 20 percent, K\*'s one setting. The kernel below is
//! written over `target`, which a blend anywhere in `[0, 100]` puts in
//! `[1, N]`.
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
//! to `N`. The search is for the root of
//!
//! ```text
//! g(u) = 2·ln S1 − ln S2 − ln target,   u = ln x0,   p = exp(−e/x0)
//! S1 = Σp      A1 = Σe·p     B1 = Σe²·p     m1 = A1/S1   v1 = B1/S1 − m1²
//! S2 = Σp²     A2 = Σe·p²    B2 = Σe²·p²    m2 = A2/S2   v2 = B2/S2 − m2²
//! g'(u)  = (2/x0)·(m1 − m2) ≥ 0
//! g''(u) = (2/x0²)·(v1 − 2·v2) − g'(u)
//! ```
//!
//! and a query costs about two passes that take an `exp` per row, where a
//! Newton search on the same `g` took five:
//!
//! - **A pass fills, then reduces.** The weights at the current scale go
//!   into a buffer through [`disar_math::exp::exp_nonpositive`], a
//!   branch-free `exp` that the fill loop runs as packed arithmetic; one
//!   reduction of the buffer — no call in it, row `i` summed on lane `i % 8`
//!   of eight accumulators per sum (`LANES`) — yields the six sums above
//!   and `Σp·y`, `Σe·p·y`.
//! - **Halley's step.** With `g`, `g'` and `g''` the step is Newton's
//!   `−g/g'` divided by `1 + ½·(−g/g')·g''/g'`, which converges cubically:
//!   measured steps go 0.3, 5·10⁻³, 5·10⁻⁸. Where the curvature term is not
//!   a correction (half of Newton's step or more) the step is Newton's. A
//!   step that leaves the running bracket is replaced by the start's guess
//!   made anew from the rows that still weigh (`x0 = m1·target/n_eff`, which
//!   finds the next scale down from a plateau of `g`), and that by the
//!   bracket's midpoint.
//! - **The series step.** A step `Δ` in `1/x0` multiplies row `b`'s weight by
//!   `exp(−e_b·Δ)`. Once `e_max·|Δ| ≤ 0.08` — after the second pass, as a
//!   rule — that factor is ten terms of its Taylor series to rounding, so the
//!   weights at the next scale come from the buffer with no `exp`, and one
//!   more reduction gives the sums there.
//! - **The answer.** A Halley or Newton step shorter than 10⁻⁶ is not
//!   taken: the root is where it would land, to far less than its length,
//!   and the answer is this reduction's `Σp·y / Σp` corrected to first order
//!   along it, by `d(Σp·y/Σp)/du = (Σe·p·y/S1 − (Σp·y/S1)·m1)/x0` times the
//!   step; what that leaves is of the order of the step squared (measured:
//!   3·10⁻¹⁴ of the answer at most). The search also ends on a residual
//!   `|g|` below 10⁻¹³, and where it is down to fallback steps on one of
//!   those below 10⁻¹³, which is no estimate of the root and adds no
//!   correction.
//!
//! The start `x0 = mean(e)·target/N` is exact for uniformly spread distances,
//! where `g` is linear in `u`. The initial bracket needs no evaluation: at
//! `e⁺_min/750` (`e⁺_min` the smallest positive shifted distance) every
//! weight but those at `d_min` is `exp(−750) = 0`, and at
//! `e_max·2/ln(N/target)` every weight is at least `√(target/N)`, so
//! `n_eff ≥ target`.
//!
//! **Purity.** Start, bracket, iterates, the choice between an `exp` pass
//! and a series step, and the order of every sum (fixed by the row count)
//! depend on the query's own distances only; the buffers carry nothing from
//! one query to the next. So a row's prediction is the same bits alone, in
//! any batch and on any thread count. The search runs into its ceiling of 64
//! reductions on no case the tests hold it to; if it ever does, the exit is
//! not silent (`Found::converged`, asserted in debug builds).
//!
//! Three cases have no root to search for and are defined directly: all
//! distances equal (within 1e-12) or `target ≥ N` (a blend of 100) give the
//! plain mean of the targets; at least `target` rows at `d_min` (always so
//! at a blend of 0) give the mean over those rows.
//!
//! The training state is append-only ([`IncrementalRegressor`]), bit-identical
//! to a from-scratch fit. Every training row carries weight and the per-query
//! scale depends on all distances, so a prediction is an O(n) pass by
//! definition and K* keeps no neighbour index: since the shifted nearest row
//! always weighs 1, there is no all-weights-underflowed case for one to serve.
//!
//! # Two instances
//!
//! [`Regressor::predict_batch`] runs one row loop that is compiled twice: for
//! the baseline target, which packs two `f64` lanes, and on x86-64 once more
//! with `avx512f` enabled, which packs eight. A batch takes the wide instance
//! whenever the CPU reports `avx512f` and the features the compiler enables
//! with it. Everything the loop calls is `#[inline(always)]`,
//! `exp_nonpositive` included, so in the wide instance the exp fill, the
//! series step, the distance sweep and the sweeps that sum over the rows
//! (`min_max`, `shift`, `reduce`) run eight rows to an instruction: each sum
//! of a sweep is eight lanes, row `i` on lane `i % 8`, added in lane order
//! at the end, which is one AVX-512 register and one add per eight rows.
//! Both instances do the same IEEE operations in the same order: the lane
//! order is the code's, not the register's, and the portable instance keeps
//! it in four registers of two. `avx512f` brings `fma` with it, but nothing
//! here can be fused: the code calls no `mul_add`, and Rust emits every
//! multiply and add as its own operation, which LLVM may not contract. `ln`,
//! `exp` and `exp_m1` are the same libm calls. So a prediction has the same
//! bits on either instance.

use crate::batch::{check_out_len, FeatureMatrix, PredictScratch};
use crate::dataset::Dataset;
use crate::instances::InstanceStore;
use crate::regressor::{IncrementalRegressor, Regressor};
use crate::MlError;
use disar_math::exp::{exp_nonpositive, INV_FACTORIALS};

/// The global blend, in percent of the rows past the first.
const BLEND: f64 = 20.0;

/// The scale search stops on a residual `ln(n_eff / target)`, or on a
/// midpoint step in `u = ln x0`, below this.
const TOL: f64 = 1e-13;

/// A Halley or Newton step shorter than this is the search's last: the root
/// is where it lands to the cube or the square of its length, and correcting
/// the answer to first order along it leaves an error of the order of its
/// square.
const LAST_STEP: f64 = 1e-6;

/// A step to a new scale multiplies every weight by `exp(-e·Δ(1/x0))`. While
/// no exponent exceeds this, the factor is [`SERIES`] terms of its series to
/// rounding (the first dropped is below `3·10⁻¹⁸`) and the step costs no `exp`.
const SERIES_REACH: f64 = 0.08;

/// How many terms of `exp`'s Taylor series, the last ten of
/// [`INV_FACTORIALS`] (`1/9!` first), a series step sums.
const SERIES: usize = 10;

/// Ceiling on reductions per query. The search needs three or four; the
/// ceiling only bounds the loop should the bracket ever shrink slower than
/// that, and [`Found::converged`] tells when it did.
const MAX_REDUCTIONS: u32 = 64;

/// What [`KStar::kernel_predict`] found, and at what cost.
#[derive(Debug)]
struct Found {
    y: f64,
    /// Passes that took an `exp` per row (the series steps take none).
    exp_passes: u32,
    /// `false` when the search ran into [`MAX_REDUCTIONS`] and `y` is the
    /// value at an iterate that met neither stopping rule.
    converged: bool,
}

/// Lanes per sweep over the rows: row `i` goes to lane `i % LANES`, and the
/// lanes of a sum are added in lane order once every row is in. That fixes
/// the order of every sum by the row count alone, and eight `f64` lanes are
/// one AVX-512 register, so in the wide instance a sum takes one add per
/// eight rows.
///
/// A sweep runs its body, an `#[inline(always)]` fn with one reference
/// parameter per column and per set of sums, on each full run of `LANES`
/// rows ([`run`]), then once on the rows after them, padded to a full run
/// ([`padded_tail`]). Separate reference parameters tell the compiler that
/// the sums and the columns do not overlap, so the body's loop over the lanes
/// becomes one vector instruction per operation with the sums in registers.
/// A `map` over the sums, or the body written inline in the loop over the
/// runs, leaves it a scalar loop over sums in memory; a closure per run
/// compiled to the same 46 `vaddpd` and 42 `vmulpd` on `zmm` as the fn
/// (rustc 1.95).
const LANES: usize = 8;

/// One value per lane.
type Lanes = [f64; LANES];

/// The run of `col` that starts at row `i`.
#[inline(always)]
fn run(col: &[f64], i: usize) -> &Lanes {
    col[i..i + LANES].try_into().expect("a slice of LANES rows")
}

/// The rows of each column after its last full run, padded with `pad` to a
/// run (of padding alone when there are none).
#[inline(always)]
fn padded_tail<const K: usize>(cols: [&[f64]; K], pad: f64) -> [Lanes; K] {
    let mut tail = [[pad; LANES]; K];
    for (tail, col) in tail.iter_mut().zip(cols) {
        let rest = &col[col.len() - col.len() % LANES..];
        for (l, t) in tail.iter_mut().enumerate() {
            if let Some(&v) = rest.get(l) {
                *t = v;
            }
        }
    }
    tail
}

/// The lanes of `s` folded by `f` in lane order.
#[inline(always)]
fn across(s: Lanes, f: impl Fn(f64, f64) -> f64) -> f64 {
    s[1..].iter().fold(s[0], |t, &v| f(t, v))
}

/// Whether this CPU has every feature [`KStar::predict_rows_wide`] enables:
/// `avx512f`, and the `avx2`, `fma` and `f16c` the compiler enables with it
/// (`avx` and the SSE levels come with each of those).
#[cfg(target_arch = "x86_64")]
fn wide_detected() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx2")
        && std::arch::is_x86_feature_detected!("fma")
        && std::arch::is_x86_feature_detected!("f16c")
}

/// Smallest and largest of `d`. NaN compares as neither, so it is passed
/// over; it pads the last run.
#[inline(always)]
fn min_max(d: &[f64]) -> (f64, f64) {
    #[inline(always)]
    fn add(lo: &mut Lanes, hi: &mut Lanes, d: &Lanes) {
        for l in 0..LANES {
            lo[l] = if d[l] < lo[l] { d[l] } else { lo[l] };
            hi[l] = if d[l] > hi[l] { d[l] } else { hi[l] };
        }
    }
    let (mut lo, mut hi) = ([f64::INFINITY; LANES], [f64::NEG_INFINITY; LANES]);
    for i in (0..d.len() - d.len() % LANES).step_by(LANES) {
        add(&mut lo, &mut hi, run(d, i));
    }
    let [d] = padded_tail([d], f64::NAN);
    add(&mut lo, &mut hi, &d);
    (across(lo, f64::min), across(hi, f64::max))
}

/// What [`shift`] gathers while it shifts.
struct Shifted {
    /// `Σe` over all rows.
    e_sum: f64,
    /// The smallest positive shifted distance.
    e_pos_min: f64,
    /// How many rows sit at `dmin`.
    at_min: f64,
}

/// Replaces every distance `d` by `e = d − dmin`, then takes the sums the
/// search starts from in one sweep.
#[inline(always)]
fn shift(d: &mut [f64], dmin: f64) -> Shifted {
    #[inline(always)]
    fn add(e_sum: &mut Lanes, at_min: &mut Lanes, e_pos_min: &mut Lanes, e: &Lanes) {
        for l in 0..LANES {
            let nearest = e[l] == 0.0;
            e_sum[l] += e[l];
            at_min[l] += if nearest { 1.0 } else { 0.0 };
            let e_pos = if nearest { f64::INFINITY } else { e[l] };
            e_pos_min[l] = if e_pos < e_pos_min[l] {
                e_pos
            } else {
                e_pos_min[l]
            };
        }
    }
    for d in d.iter_mut() {
        *d -= dmin;
    }
    let e = &*d;
    let (mut e_sum, mut at_min) = ([0.0; LANES], [0.0; LANES]);
    let mut e_pos_min = [f64::INFINITY; LANES];
    for i in (0..e.len() - e.len() % LANES).step_by(LANES) {
        add(&mut e_sum, &mut at_min, &mut e_pos_min, run(e, i));
    }
    let [tail] = padded_tail([e], 0.0);
    add(&mut e_sum, &mut at_min, &mut e_pos_min, &tail);
    // A padded row is a row at `dmin`: it adds `+0.0` to `Σe` and one to the
    // count, which is of whole numbers and so exact in any order.
    let padded = LANES - e.len() % LANES;
    Shifted {
        e_sum: across(e_sum, |a, b| a + b),
        e_pos_min: across(e_pos_min, f64::min),
        at_min: across(at_min, |a, b| a + b) - padded as f64,
    }
}

/// The sum of the targets `y` of the rows whose shifted distance `e` is 0,
/// which is all a query needs of them when they are at least `target` rows.
/// Its own sweep, and not a fourth sum of [`shift`]'s: beside the others, its
/// select of a target keeps that sweep from packing into vectors.
#[inline(always)]
fn y_at_min(e: &[f64], y: &[f64]) -> f64 {
    #[inline(always)]
    fn add(sum: &mut Lanes, e: &Lanes, y: &Lanes) {
        for l in 0..LANES {
            sum[l] += if e[l] == 0.0 { y[l] } else { 0.0 };
        }
    }
    let y = &y[..e.len()];
    let mut sum = [0.0; LANES];
    for i in (0..e.len() - e.len() % LANES).step_by(LANES) {
        add(&mut sum, run(e, i), run(y, i));
    }
    let [e, y] = padded_tail([e, y], 0.0);
    add(&mut sum, &e, &y);
    across(sum, |a, b| a + b)
}

/// One reduction of the weight buffer `p` over the shifted distances `e` and
/// the targets `y`: `[Σp, Σp², Σe·p, Σe·p², Σe²·p, Σe²·p², Σp·y, Σe·p·y]`.
/// Zeros pad the last run: each adds `+0.0`, which leaves a sum unchanged.
#[inline(always)]
fn reduce(p: &[f64], e: &[f64], y: &[f64]) -> [f64; 8] {
    #[inline(always)]
    fn add(sums: &mut [Lanes; 8], p: &Lanes, e: &Lanes, y: &Lanes) {
        let [s1, s2, a1, a2, b1, b2, c0, c1] = sums;
        for l in 0..LANES {
            let (p, e, y) = (p[l], e[l], y[l]);
            let (pp, ep, py) = (p * p, e * p, p * y);
            let epp = ep * p;
            s1[l] += p;
            s2[l] += pp;
            a1[l] += ep;
            a2[l] += epp;
            b1[l] += e * ep;
            b2[l] += e * epp;
            c0[l] += py;
            c1[l] += e * py;
        }
    }
    let (e, y) = (&e[..p.len()], &y[..p.len()]);
    let mut sums = [[0.0; LANES]; 8];
    for i in (0..p.len() - p.len() % LANES).step_by(LANES) {
        add(&mut sums, run(p, i), run(e, i), run(y, i));
    }
    let [p, e, y] = padded_tail([p, e, y], 0.0);
    add(&mut sums, &p, &e, &y);
    // Unpacked, not `sums.map(..)`: `map` takes the sums' address, and the
    // loop over the lanes would then need overlap checks at run time, which
    // a loop of eight is too short to be given.
    let sum = |s| across(s, |a, b| a + b);
    let [s1, s2, a1, a2, b1, b2, c0, c1] = sums;
    [
        sum(s1),
        sum(s2),
        sum(a1),
        sum(a2),
        sum(b1),
        sum(b2),
        sum(c0),
        sum(c1),
    ]
}

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
/// let mut ks = KStar::new();
/// ks.fit(&data).unwrap();
/// let y = ks.predict(&[10.0]).unwrap();
/// assert!((y - 40.0).abs() < 8.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct KStar {
    fitted: Option<InstanceStore>,
}

impl KStar {
    /// An unfitted K\* model.
    pub fn new() -> Self {
        KStar { fitted: None }
    }

    /// `predict_row` for every row of `xs` into `out`: the loop both
    /// instances compile, everything it calls inlined into it.
    #[inline(always)]
    fn predict_rows(
        &self,
        f: &InstanceStore,
        xs: &FeatureMatrix,
        out: &mut [f64],
        scratch: &mut PredictScratch,
    ) {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.predict_row(f, xs.row(i), scratch);
        }
    }

    /// [`KStar::predict_rows`] compiled for AVX-512: the exp fill, the series
    /// step and the distance sweep go eight rows per instruction, with the
    /// same operations in the same order, so the same bits.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    fn predict_rows_wide(
        &self,
        f: &InstanceStore,
        xs: &FeatureMatrix,
        out: &mut [f64],
        scratch: &mut PredictScratch,
    ) {
        self.predict_rows(f, xs, out, scratch);
    }

    /// One query against the fitted store: standardize into `scratch.q`, take
    /// the L1 distances (the natural metric for a product of per-attribute
    /// Laplace kernels) into `scratch.dists`, run the kernel: the per-row
    /// body of [`Regressor::predict_batch`].
    #[inline(always)]
    fn predict_row(&self, store: &InstanceStore, x: &[f64], scratch: &mut PredictScratch) -> f64 {
        if store.targets.len() == 1 {
            return store.targets[0];
        }
        let PredictScratch {
            q, dists, weights, ..
        } = scratch;
        store.scaler.transform_into(x, q);
        let n = store.targets.len();
        Self::distances(&store.cols, q, n, dists);
        let target = 1.0 + (BLEND / 100.0) * (n as f64 - 1.0);
        let found = Self::kernel_predict(&store.targets, target, dists, weights);
        debug_assert!(
            found.converged,
            "scale search left by its ceiling after {} exp passes",
            found.exp_passes
        );
        found.y
    }

    /// The L1 distance of the standardized query `q` to each of the `n` rows
    /// held by column, summed a column at a time: per row the same
    /// left-to-right sum from zero as over the row itself, so the same bits.
    #[inline(always)]
    fn distances(cols: &[(usize, Vec<f64>)], q: &[f64], n: usize, dists: &mut Vec<f64>) {
        dists.clear();
        dists.resize(n, 0.0);
        for (j, col) in cols {
            let qj = q[*j];
            for (d, &c) in dists.iter_mut().zip(col) {
                *d += (c - qj).abs();
            }
        }
    }

    /// The per-query kernel on precomputed distances (at least two), which
    /// it shifts in place, with `weights` as its buffer: the scale search of
    /// the module header for the effective neighbour count `target`, and the
    /// weighted mean at the scale found.
    #[inline(always)]
    fn kernel_predict(
        targets: &[f64],
        target: f64,
        dists: &mut [f64],
        weights: &mut Vec<f64>,
    ) -> Found {
        let settled = |y| Found {
            y,
            exp_passes: 0,
            converged: true,
        };
        let n = dists.len() as f64;
        let (dmin, dmax) = min_max(dists);
        let e_max = dmax - dmin;
        // Negated so that a non-finite spread (a non-finite query) also ends here.
        if !(e_max >= 1e-12) || target >= n {
            return settled(targets.iter().sum::<f64>() / n);
        }
        let shifted = shift(dists, dmin);
        if shifted.at_min >= target {
            return settled(y_at_min(dists, targets) / shifted.at_min);
        }
        let dists = &*dists;

        let ln_target = target.ln();
        // g(lo) < 0 ≤ g(hi) without evaluating either (module header); the
        // cap keeps `hi` finite when `target` is within rounding of `n`, and
        // exp(-1e-17) is 1 in f64.
        let mut lo = (shifted.e_pos_min / 750.0).ln();
        let mut hi = (e_max * (2.0 / (n / target).ln()).min(1e17)).ln();
        // Were the `n_eff` rows that weigh, at mean distance `mean_e`, spread
        // uniformly, `target` of them would weigh at this scale.
        let guess = |mean_e: f64, n_eff: f64| (mean_e * target / n_eff).ln();
        let mut u = guess(shifted.e_sum / n, n).clamp(lo, hi);
        // Every pass writes all of it before it reads any.
        weights.resize(dists.len(), 0.0);
        let (mut exp_passes, mut reductions) = (0, 0);
        loop {
            exp_passes += 1;
            // `inv_x0` is the scale the weights are at; `u` follows it to
            // rounding and is what the bracket and the steps are in.
            let mut inv_x0 = (-u).exp();
            for (p, &e) in weights.iter_mut().zip(dists) {
                *p = exp_nonpositive(-e * inv_x0);
            }
            loop {
                reductions += 1;
                let [s1, s2, a1, a2, b1, b2, c0, c1] = reduce(weights, dists, targets);
                let g = 2.0 * s1.ln() - s2.ln() - ln_target;
                if g < 0.0 {
                    lo = u;
                } else {
                    hi = u;
                }
                // Means and variances of `e` under the weights `p` and `p²`.
                let (m1, m2) = (a1 / s1, a2 / s2);
                let (v1, v2) = (b1 / s1 - m1 * m1, b2 / s2 - m2 * m2);
                let g1 = 2.0 * inv_x0 * (m1 - m2);
                let g2 = 2.0 * inv_x0 * inv_x0 * (v1 - 2.0 * v2) - g1;
                // Halley's step is Newton's over `1 + bend`; it is taken where
                // the curvature bends Newton's step by less than half of it,
                // and where the step lands inside the bracket (NaN, of a flat
                // `g`, lands nowhere).
                let newton = -g / g1;
                let bend = 0.5 * newton * g2 / g1;
                let halley = if bend.abs() < 0.5 {
                    newton / (1.0 + bend)
                } else {
                    newton
                };
                let landing = Some(halley).filter(|s| (lo..=hi).contains(&(u + s)));
                // Off the bracket `g` is too flat for either (a plateau: some
                // rows weigh fully, the rest not at all), and the guess made
                // of the rows that weigh is tried before the midpoint.
                let step = landing.unwrap_or_else(|| {
                    let again = guess(m1, s1 * s1 / s2);
                    if lo < again && again < hi {
                        again - u
                    } else {
                        0.5 * (lo + hi) - u
                    }
                });
                let limit = if landing.is_some() { LAST_STEP } else { TOL };
                // Where `g` is nearly flat its rounding noise alone makes
                // steps above any tolerance, hence the test on `g` itself.
                let converged = g.abs() < TOL || step.abs() < limit;
                if converged || reductions == MAX_REDUCTIONS {
                    let y = c0 / s1;
                    // dy/du, for the step not taken (a midpoint is no estimate
                    // of the root, so none is added for it).
                    let slope = inv_x0 * (c1 / s1 - y * m1);
                    return Found {
                        y: y + slope * landing.unwrap_or(0.0),
                        exp_passes,
                        converged,
                    };
                }
                u += step;
                let delta = inv_x0 * (-step).exp_m1();
                if (delta * e_max).abs() > SERIES_REACH {
                    break;
                }
                inv_x0 += delta;
                let series = &INV_FACTORIALS[INV_FACTORIALS.len() - SERIES..];
                for (p, &e) in weights.iter_mut().zip(dists) {
                    let z = -e * delta;
                    *p *= series[1..].iter().fold(series[0], |s, c| s * z + c);
                }
            }
        }
    }
}

impl Regressor for KStar {
    fn fit(&mut self, data: &Dataset) -> Result<(), MlError> {
        self.fitted = Some(InstanceStore::fit(data)?);
        Ok(())
    }

    /// Batched K*: `predict_row` per row, with the per-query buffers
    /// (standardized query, distances, weights) carried in `scratch`, on the
    /// instance of the row loop that the CPU and the store's size pick (the
    /// module header's "Two instances").
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
        #[cfg(target_arch = "x86_64")]
        if wide_detected() {
            // SAFETY: `predict_rows_wide` needs `avx512f` and the features it
            // implies, and `wide_detected` has just found them on this CPU.
            unsafe { self.predict_rows_wide(f, xs, out, scratch) };
            return Ok(());
        }
        self.predict_rows(f, xs, out, scratch);
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
        InstanceStore::partial_fit(&mut self.fitted, data, from)
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
        let d: Vec<f64> = (0..f.len())
            .map(|i| f.row(i).iter().zip(&q).map(|(a, b)| (a - b).abs()).sum())
            .collect();
        let dmin = d.iter().cloned().fold(f64::INFINITY, f64::min);
        d.iter().map(|d| d - dmin).collect()
    }

    /// The effective neighbour count a global blend of `blend` percent
    /// aims at among `n` rows, as `predict_row` computes it at `BLEND`.
    fn target_at(blend: f64, n: usize) -> f64 {
        1.0 + (blend / 100.0) * (n as f64 - 1.0)
    }

    /// The algorithm the scale search replaced, kept as its reference: a
    /// 200-step log-bisection of `n_eff(x0) = target` over `[1e-300, 1e300]`
    /// on the shifted distances, then the weighted mean at the scale found.
    fn reference_predict(ks: &KStar, x: &[f64], blend: f64) -> f64 {
        let e = shifted_distances(ks, x);
        let ys = &ks.fitted.as_ref().unwrap().targets;
        let target = target_at(blend, e.len());
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
    fn random_model(n: usize, dim: usize, grid: bool, seed: u64) -> KStar {
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
        let mut ks = KStar::new();
        ks.fit(&d).unwrap();
        ks
    }

    /// Runs `check(model, query, blend)` over the seeded sets the solver is
    /// held to: n 2…2000, dim 1…5, continuous and duplicate-heavy rows, the
    /// kernel at four blends (a fit does not depend on the blend), queries
    /// inside the hull, far outside, and at a training row's standardized
    /// coordinates (the row itself when the set spans `[0, 1]`, as the grid
    /// sets do; a hair off it otherwise).
    fn for_each_case(mut check: impl FnMut(&KStar, &[f64], f64)) {
        let sizes = [2, 3, 5, 17, 100, 530, 2000];
        for (i, &n) in sizes.iter().enumerate() {
            for dim in 1..=5 {
                for grid in [false, true] {
                    let blend = [1.0, 20.0, 60.0, 99.0][(i + dim) % 4];
                    let seed = (n * 10 + dim) as u64;
                    let ks = random_model(n, dim, grid, seed);
                    let mut rng = stream_rng(seed, 0x5155);
                    for _ in 0..3 {
                        let inside: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect();
                        check(&ks, &inside, blend);
                        let far: Vec<f64> = inside.iter().map(|v| 50.0 + 1e3 * v).collect();
                        check(&ks, &far, blend);
                    }
                    let at_a_row = ks.fitted.as_ref().unwrap().row(n / 2);
                    check(&ks, &at_a_row, blend);
                }
            }
        }
    }

    #[test]
    fn scale_search_matches_bisection_reference() {
        for_each_case(|ks, x, blend| {
            let got = search(ks, x, blend).y;
            let want = reference_predict(ks, x, blend);
            assert!(
                (got - want).abs() <= 1e-12 * want.abs(),
                "n {} x {x:?}: {got} vs reference {want}",
                ks.fitted_len()
            );
        });
    }

    /// The kernel on `x`'s by-row distances for a global blend of `blend`
    /// percent; at `BLEND` its answer is checked against `predict` (whose
    /// distances are by column) bit for bit.
    fn search(ks: &KStar, x: &[f64], blend: f64) -> Found {
        let ys = &ks.fitted.as_ref().unwrap().targets;
        let mut dists = shifted_distances(ks, x);
        let target = target_at(blend, ys.len());
        let found = KStar::kernel_predict(ys, target, &mut dists, &mut Vec::new());
        if blend == BLEND {
            assert_eq!(found.y.to_bits(), ks.predict(x).unwrap().to_bits());
        }
        found
    }

    #[test]
    fn scale_search_pass_ceiling() {
        // Bisection needed ~83 passes with an `exp` per row and Newton five;
        // the far and the duplicate-heavy cases included, this search stays
        // at a few and never leaves by its ceiling.
        let mut searched = 0;
        for_each_case(|ks, x, blend| {
            let found = search(ks, x, blend);
            assert!(
                found.converged && found.exp_passes <= 8,
                "n {} x {x:?}: {found:?}",
                ks.fitted_len()
            );
            searched += (found.exp_passes > 0) as usize;
        });
        assert!(searched > 300, "only {searched} cases reached the search");
    }

    /// A knowledge-base shard as Algorithm 1's grid sweep meets it: `n` runs
    /// of one instance type (three constant columns), six job columns, node
    /// counts on 64 levels.
    fn shard_model(n: usize, seed: u64) -> KStar {
        let mut rng = stream_rng(seed, 0x5348);
        let mut d = Dataset::new((0..10).map(|j| format!("x{j}")).collect());
        for _ in 0..n {
            let mut x: Vec<f64> = (0..6).map(|_| rng.gen_range(0.0..1.0)).collect();
            x.extend([8.0, 2.5, 32.0]);
            let nodes = rng.gen_range(1..=64usize) as f64;
            x.push(nodes);
            let work = 2e3 * (0.2 + x[0]) * (0.5 + x[1]);
            d.push(x, 40.0 + work / nodes.powf(0.85) * rng.gen_range(0.9..1.1))
                .unwrap();
        }
        let mut ks = KStar::new();
        ks.fit(&d).unwrap();
        ks
    }

    #[test]
    fn scale_search_on_a_shard_takes_two_passes_and_matches_the_reference() {
        let mut rng = stream_rng(31, 0x5155);
        let (mut queries, mut exp_passes, mut worst) = (0, 0, 0);
        for (n, seed) in [(501, 1), (501, 2), (470, 3), (529, 4)] {
            let ks = shard_model(n, seed);
            for _ in 0..3 {
                // One job at every node count: a row of the grid.
                let job: Vec<f64> = (0..6).map(|_| rng.gen_range(0.0..1.0)).collect();
                for nodes in 1..=64 {
                    let mut x = job.clone();
                    x.extend([8.0, 2.5, 32.0, nodes as f64]);
                    let found = search(&ks, &x, BLEND);
                    let want = reference_predict(&ks, &x, BLEND);
                    assert!(
                        (found.y - want).abs() <= 1e-12 * want.abs(),
                        "n {n} x {x:?}: {} vs reference {want}",
                        found.y
                    );
                    assert!(found.converged, "n {n} x {x:?}: {found:?}");
                    queries += 1;
                    exp_passes += found.exp_passes;
                    worst = worst.max(found.exp_passes);
                }
            }
        }
        let mean = f64::from(exp_passes) / f64::from(queries);
        assert!(
            mean <= 2.5 && worst <= 8,
            "exp passes: mean {mean}, most {worst}"
        );
    }

    #[test]
    fn distances_by_column_are_the_by_row_sums_bitwise() {
        // Three columns of the shard never vary and are not held by column;
        // the query differs from the rows in those too.
        for (ks, varying) in [(shard_model(501, 5), 7), (random_model(100, 3, true, 9), 3)] {
            let store = ks.fitted.as_ref().unwrap();
            assert_eq!(store.cols.len(), varying);
            let x: Vec<f64> = store.row(7).iter().map(|v| 1.7 * v + 0.3).collect();
            let q = store.scaler.transform(&x);
            let l1 = |r: Vec<f64>| r.iter().zip(&q).map(|(a, b)| (a - b).abs()).sum();
            let by_row: Vec<f64> = (0..store.len()).map(|i| l1(store.row(i))).collect();
            let mut by_column = vec![f64::NAN; 3];
            KStar::distances(&store.cols, &q, store.len(), &mut by_column);
            let bits = |d: &[f64]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&by_column), bits(&by_row));
        }
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
        let mut ks = KStar::new();
        ks.fit(&d).unwrap();
        let x = [900.0, 700.0, 800.0, 600.0, 1000.0];
        let got = ks.predict(&x).unwrap();
        let want = reference_predict(&ks, &x, BLEND);
        assert!(
            (got - want).abs() <= 1e-12 * want,
            "{got} vs reference {want}"
        );
    }

    #[test]
    fn scale_search_is_bitwise_stable_across_batches() {
        let ks = random_model(200, 3, false, 7);
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

    /// The declared order of every sweep, written as the plain loop it
    /// stands for: row `i` added to lane `i % 8`, the lanes added in lane
    /// order at the end.
    fn eight_lane_sum(n: usize, term: impl Fn(usize) -> f64) -> f64 {
        let mut lanes = [0.0; 8];
        for i in 0..n {
            lanes[i % 8] += term(i);
        }
        lanes[1..].iter().fold(lanes[0], |s, v| s + v)
    }

    #[test]
    fn sweeps_match_the_eight_lane_reference_bitwise() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut rng = stream_rng(50, 0x5357);
        for n in (1..=40).chain([501]) {
            // Distances on a coarse grid, so that several rows share `dmin`,
            // weights in (0, 1], targets of either sign.
            let d: Vec<f64> = (0..n)
                .map(|_| rng.gen_range(0..6) as f64 * 0.25 + 1.5)
                .collect();
            let p: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0) + 1e-3).collect();
            let y: Vec<f64> = (0..n).map(|_| rng.gen_range(-50.0..150.0)).collect();

            let (dmin, dmax) = min_max(&d);
            let fold = |f: fn(f64, f64) -> f64, from: f64| d.iter().fold(from, |a, &b| f(a, b));
            assert_eq!(
                dmin.to_bits(),
                fold(f64::min, f64::INFINITY).to_bits(),
                "n {n}"
            );
            assert_eq!(
                dmax.to_bits(),
                fold(f64::max, f64::NEG_INFINITY).to_bits(),
                "n {n}"
            );

            let mut e = d.clone();
            let shifted = shift(&mut e, dmin);
            let want: Vec<f64> = d.iter().map(|d| d - dmin).collect();
            assert_eq!(bits(&e), bits(&want), "n {n}: shifted distances");
            let nearest = |i: usize| e[i] == 0.0;
            assert_eq!(
                shifted.e_sum.to_bits(),
                eight_lane_sum(n, |i| e[i]).to_bits(),
                "n {n}"
            );
            assert_eq!(
                shifted.at_min,
                (0..n).filter(|&i| nearest(i)).count() as f64,
                "n {n}"
            );
            let e_pos_min = e
                .iter()
                .filter(|e| **e > 0.0)
                .fold(f64::INFINITY, |a, &b| a.min(b));
            assert_eq!(shifted.e_pos_min.to_bits(), e_pos_min.to_bits(), "n {n}");
            let y_near = eight_lane_sum(n, |i| if nearest(i) { y[i] } else { 0.0 });
            assert_eq!(y_at_min(&e, &y).to_bits(), y_near.to_bits(), "n {n}");

            let terms: [fn(f64, f64, f64) -> f64; 8] = [
                |p, _, _| p,
                |p, _, _| p * p,
                |p, e, _| e * p,
                |p, e, _| e * p * p,
                |p, e, _| e * (e * p),
                |p, e, _| e * (e * p * p),
                |p, _, y| p * y,
                |p, e, y| e * (p * y),
            ];
            let want = terms.map(|t| eight_lane_sum(n, |i| t(p[i], e[i], y[i])));
            assert_eq!(bits(&reduce(&p, &e, &y)), bits(&want), "n {n}: reduce");
        }

        // `min_max` passes over NaN, and takes infinities like any value.
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        for (d, lo, hi) in [
            (vec![nan; 11], inf, -inf),
            (
                vec![3.0, nan, -inf, 2.0, nan, 7.0, nan, 1.0, nan],
                -inf,
                7.0,
            ),
            (
                vec![nan, 4.0, inf, nan, 0.5, nan, nan, nan, nan, 2.0],
                0.5,
                inf,
            ),
            (vec![inf; 9], inf, inf),
        ] {
            assert_eq!(min_max(&d), (lo, hi), "{d:?}");
        }
    }

    /// Each instance's outputs on `xs` as bits, portable first.
    #[cfg(target_arch = "x86_64")]
    fn on_both_instances(ks: &KStar, xs: &FeatureMatrix) -> (Vec<u64>, Vec<u64>) {
        assert!(wide_detected());
        let f = ks.fitted.as_ref().unwrap();
        let mut scratch = PredictScratch::new();
        let (mut portable, mut wide) = (vec![0.0; xs.len()], vec![0.0; xs.len()]);
        ks.predict_rows(f, xs, &mut portable, &mut scratch);
        // SAFETY: the assertion above found every feature the wide instance enables.
        unsafe { ks.predict_rows_wide(f, xs, &mut wide, &mut scratch) };
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect();
        (bits(portable), bits(wide))
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn wide_instance_matches_portable_bitwise() {
        if !wide_detected() {
            eprintln!("note: this CPU lacks AVX-512; the wide instance is not tested");
            return;
        }
        let one_row = |x: &[f64]| {
            let mut xs = FeatureMatrix::new();
            xs.push_row(x);
            xs
        };
        // The seeded sets of the scale search's tests: 2 to 2000 rows,
        // queries inside, far outside and at a row.
        let mut cases = 0;
        for_each_case(|ks, x, _| {
            let (portable, wide) = on_both_instances(ks, &one_row(x));
            assert_eq!(wide, portable, "n {} x {x:?}", ks.fitted_len());
            cases += 1;
        });
        assert_eq!(cases, 490);

        // A knowledge-base shard whose three varying columns are two job
        // columns and the node count, swept as a row of the grid: one job at
        // every node count, in one batch.
        let mut rng = stream_rng(49, 0x5348);
        let mut d = Dataset::new((0..10).map(|j| format!("x{j}")).collect());
        for _ in 0..500 {
            let mut x = vec![rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)];
            let nodes = rng.gen_range(1..=64usize) as f64;
            x.extend([0.5, 0.5, 0.5, 0.5, 8.0, 2.5, 32.0, nodes]);
            let work = 2e3 * (0.2 + x[0]) * (0.5 + x[1]);
            d.push(x, 40.0 + work / nodes.powf(0.85) * rng.gen_range(0.9..1.1))
                .unwrap();
        }
        let mut shard = KStar::new();
        shard.fit(&d).unwrap();
        assert_eq!(shard.fitted.as_ref().unwrap().cols.len(), 3);
        for _ in 0..4 {
            let (a, b) = (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
            let mut x = [a, b, 0.5, 0.5, 0.5, 0.5, 8.0, 2.5, 32.0, 0.0];
            let mut xs = FeatureMatrix::new();
            for nodes in 1..=64 {
                x[9] = nodes as f64;
                xs.push_row(&x);
            }
            let (portable, wide) = on_both_instances(&shard, &xs);
            assert_eq!(wide, portable, "shard, job ({a}, {b})");
        }

        // Every tail a sweep can end on: stores of 16 to 23 rows, each with
        // queries inside the hull, far outside and at a row.
        for n in 16..24 {
            let ks = random_model(n, 3, false, n as u64);
            let mut xs = FeatureMatrix::new();
            xs.push_row(&[0.4, 0.6, 0.1]);
            xs.push_row(&[40.0, -7.0, 900.0]);
            xs.push_row(&ks.fitted.as_ref().unwrap().row(n / 3));
            let (portable, wide) = on_both_instances(&ks, &xs);
            assert_eq!(wide, portable, "{n} rows, tail {}", n % 8);
        }

        // A two-row store, all-equal distances and non-finite queries.
        let mut two = Dataset::new(vec!["x".into(), "z".into()]);
        two.push(vec![0.0, 1.0], 3.0).unwrap();
        two.push(vec![1.0, 0.0], 5.0).unwrap();
        let mut equal = Dataset::new(vec!["x".into()]);
        for i in 0..10 {
            equal.push(vec![1.0], 10.0 + i as f64).unwrap();
        }
        for data in [two, ramp(30), equal] {
            let mut ks = KStar::new();
            ks.fit(&data).unwrap();
            let dim = data.dim();
            let mut xs = FeatureMatrix::new();
            for v in [0.3, 7.1, -4.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
                xs.push_row(&vec![v; dim]);
            }
            let (portable, wide) = on_both_instances(&ks, &xs);
            assert_eq!(wide, portable, "{} rows, dim {dim}", data.len());
        }
    }

    #[test]
    fn blend_zero_behaves_like_nearest_neighbour() {
        let d = ramp(30);
        let mut ks = KStar::new();
        ks.fit(&d).unwrap();
        // Query close to x=7 → target = 14.
        assert_eq!(search(&ks, &[7.1], 0.0).y, 14.0);
    }

    #[test]
    fn blend_zero_averages_the_rows_at_dmin() {
        let mut d = Dataset::new(vec!["x".into()]);
        for (x, y) in [(0.0, 0.0), (2.0, 20.0), (2.0, 40.0), (4.0, 90.0)] {
            d.push(vec![x], y).unwrap();
        }
        let mut ks = KStar::new();
        ks.fit(&d).unwrap();
        assert_eq!(search(&ks, &[2.5], 0.0).y, 30.0);
        // Rows 1 and 2 on one side, row 3 on the other, all at distance 1.
        assert_eq!(search(&ks, &[3.0], 0.0).y, 50.0);
    }

    #[test]
    fn blend_hundred_is_the_plain_mean() {
        let d = ramp(30);
        let mut ks = KStar::new();
        ks.fit(&d).unwrap();
        let mean = d.targets().iter().sum::<f64>() / 30.0;
        assert_eq!(search(&ks, &[0.0], 100.0).y, mean);
    }

    #[test]
    fn non_finite_query_gets_the_plain_mean() {
        // Every distance is infinite and their spread NaN: no scale to search.
        let d = ramp(30);
        let mut ks = KStar::new();
        ks.fit(&d).unwrap();
        let mean = d.targets().iter().sum::<f64>() / 30.0;
        assert_eq!(ks.predict(&[f64::INFINITY]).unwrap(), mean);
        assert_eq!(ks.predict(&[f64::NAN]).unwrap(), mean);
    }

    #[test]
    fn default_blend_interpolates_sensibly() {
        let d = ramp(50);
        let mut ks = KStar::new();
        ks.fit(&d).unwrap();
        let y = ks.predict(&[25.0]).unwrap();
        assert!((y - 50.0).abs() < 10.0, "got {y}");
    }

    #[test]
    fn monotone_in_blend_towards_mean() {
        // At a boundary query, larger blend → prediction closer to the mean.
        let d = ramp(40);
        let mean = d.target_mean();
        let mut ks = KStar::new();
        ks.fit(&d).unwrap();
        let mut prev_gap = f64::INFINITY;
        for blend in [0.0, 20.0, 60.0, 100.0] {
            let y = search(&ks, &[0.0], blend).y;
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
        let mut ks = KStar::new();
        ks.fit(&d).unwrap();
        let y = ks.predict(&[1.0]).unwrap();
        assert!((y - 15.0).abs() < 1e-9, "uniform over duplicates, got {y}");
    }

    #[test]
    fn single_instance_training_set() {
        let mut d = Dataset::new(vec!["x".into()]);
        d.push(vec![5.0], 123.0).unwrap();
        let mut ks = KStar::new();
        ks.fit(&d).unwrap();
        assert_eq!(ks.predict(&[0.0]).unwrap(), 123.0);
    }

    #[test]
    fn predictions_within_target_range() {
        let d = ramp(25);
        let mut ks = KStar::new();
        ks.fit(&d).unwrap();
        for x in [-10.0, 0.0, 12.5, 24.0, 100.0] {
            let y = ks.predict(&[x]).unwrap();
            assert!((0.0..=48.0).contains(&y), "x={x} y={y}");
        }
    }

    #[test]
    fn partial_fit_matches_full_fit() {
        // On the ramp the appended rows move the upper bound and every row is
        // standardized anew; with the last row first, fifteen rows span the
        // range and the columns only grow.
        let mut spanned = Dataset::new(vec!["x".into()]);
        for i in std::iter::once(39).chain(0..39) {
            spanned.push(vec![i as f64], 2.0 * i as f64).unwrap();
        }
        for d in [ramp(40), spanned] {
            let mut full = KStar::new();
            full.fit(&d).unwrap();
            let mut inc = KStar::new();
            inc.partial_fit(&d.filter(|i| i < 15), 0).unwrap();
            inc.partial_fit(&d, 15).unwrap();
            assert_eq!(inc.fitted_len(), 40);
            assert_eq!(
                inc.fitted.as_ref().unwrap().cols,
                full.fitted.as_ref().unwrap().cols
            );
            for x in [-3.0, 0.0, 14.5, 39.0, 55.0] {
                assert_eq!(
                    inc.predict(&[x]).unwrap().to_bits(),
                    full.predict(&[x]).unwrap().to_bits(),
                    "x={x}"
                );
            }
        }
    }
}
