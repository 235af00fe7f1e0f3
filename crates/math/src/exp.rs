//! A branch-free `exp` for non-positive arguments.
//!
//! K\*'s scale search turns every training row's distance into a weight
//! `exp(-e / x0)` on each pass, and a libm call per row is what such a pass
//! costs. [`exp_nonpositive`] has no branch, no table and no call, so a loop
//! that fills a buffer with it compiles to packed arithmetic: two rows per
//! instruction on baseline x86-64, and eight in K\*'s AVX-512 instance of
//! its row loop, which the function is `#[inline(always)]` for (a function
//! compiled for more features vectorises only what it inlines). Both give
//! the same bits: the instance has `fma`, but the function calls no
//! `mul_add`, and LLVM contracts none of the separate multiplies and adds
//! Rust emits; it uses no `std::simd` either. Every other caller of `exp` in
//! the workspace keeps libm, and with it its recorded digests.

use std::f64::consts::LOG2_E;

/// `ln 2` split in two: the high part carries 21 trailing zero bits, so
/// `k · LN2_HI` is exact for every `k` the reduction can produce.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);

/// `1.5 · 2⁵²`: adding it to `|v| < 2⁵¹` rounds `v` to the nearest integer,
/// which then sits in the sum's low mantissa bits in two's complement.
const ROUND: f64 = 6_755_399_441_055_744.0;

/// Below this the argument is clamped: `exp(-700) ≈ 1e-304` is still a normal
/// number, so the exponent arithmetic below cannot leave the normal range.
const FLOOR: f64 = -700.0;

/// `1/k!` for `k = 13, 12, …, 0`: the Taylor polynomial of `exp` in Horner
/// order, whose remainder on `|r| ≤ ln 2 / 2` is below `5·10⁻¹⁸`. A caller
/// whose argument is smaller still takes a tail of it.
pub const INV_FACTORIALS: [f64; 14] = [
    1.0 / 6_227_020_800.0,
    1.0 / 479_001_600.0,
    1.0 / 39_916_800.0,
    1.0 / 3_628_800.0,
    1.0 / 362_880.0,
    1.0 / 40_320.0,
    1.0 / 5_040.0,
    1.0 / 720.0,
    1.0 / 120.0,
    1.0 / 24.0,
    1.0 / 6.0,
    0.5,
    1.0,
    1.0,
];

/// `exp(x)` for `x ≤ 0`, within 2 ulp of [`f64::exp`] on `[-700, 0]`.
///
/// Exactly 1 at `±0`; arguments below −700 (`-∞` included) and NaN give
/// `exp(-700)`, so the result is always finite and positive. Positive
/// arguments are outside the contract.
///
/// The argument is reduced to `x = k·ln 2 + r` with `k` the nearest integer
/// to `x / ln 2` (rounded by `ROUND`, subtracted in two parts à la Cody and
/// Waite), `exp(r)` is a degree-13 polynomial, and `2ᵏ` is applied by adding
/// `k` to the result's exponent field.
///
/// # Example
///
/// ```
/// use disar_math::exp::exp_nonpositive;
///
/// assert_eq!(exp_nonpositive(0.0), 1.0);
/// let (got, want) = (exp_nonpositive(-3.25), (-3.25f64).exp());
/// assert!((got - want).abs() <= 2.0 * f64::EPSILON * want);
/// ```
#[inline(always)]
pub fn exp_nonpositive(x: f64) -> f64 {
    let x = if x > FLOOR { x } else { FLOOR };
    let shifted = x * LOG2_E + ROUND;
    let k = shifted - ROUND;
    let r = (x - k * LN2_HI) - k * LN2_LO;
    let mut p = INV_FACTORIALS[0];
    for c in &INV_FACTORIALS[1..] {
        p = p * r + c;
    }
    f64::from_bits(p.to_bits().wrapping_add(shifted.to_bits() << 52))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::stream_rng;

    fn ulps_apart(a: f64, b: f64) -> u64 {
        a.to_bits().abs_diff(b.to_bits())
    }

    #[test]
    fn within_two_ulp_of_libm_on_a_dense_sweep() {
        let mut rng = stream_rng(20160627, 0xE4B);
        // Uniform draws over (-745, 0], draws crowded towards 0 where the
        // weights that matter sit, and the reduction's own breakpoints (odd
        // multiples of ln 2 / 2) with their two neighbours.
        let mut xs: Vec<f64> = (0..500_000).map(|_| -rng.gen_range(0.0..745.0)).collect();
        xs.extend((0..500_000).map(|_| -745.0 * rng.gen_range(0.0..1.0f64).powi(6)));
        xs.extend((0..2100).flat_map(|k| {
            let b = -(k as f64 + 0.5) * std::f64::consts::LN_2;
            [
                b,
                f64::from_bits(b.to_bits() + 1),
                f64::from_bits(b.to_bits() - 1),
            ]
        }));
        let mut worst = 0;
        for x in xs {
            let d = ulps_apart(exp_nonpositive(x), x.max(FLOOR).exp());
            assert!(d <= 2, "exp({x}) is {d} ulp from libm");
            worst = worst.max(d);
        }
        assert!(
            worst >= 1,
            "a sweep that never differs from libm tests nothing"
        );
    }

    #[test]
    fn exactly_one_at_both_zeros() {
        assert_eq!(exp_nonpositive(0.0).to_bits(), 1.0f64.to_bits());
        assert_eq!(exp_nonpositive(-0.0).to_bits(), 1.0f64.to_bits());
    }

    #[test]
    fn non_increasing_along_a_descending_sweep() {
        // Steps of 2⁻¹⁰ change the value by a thousandth: a slip in the
        // exponent arithmetic at a reduction breakpoint cannot hide.
        let mut prev = exp_nonpositive(0.0);
        for i in 1..=(750 * 1024) {
            let y = exp_nonpositive(-(i as f64) / 1024.0);
            assert!(y <= prev, "exp rose from {prev} to {y} at step {i}");
            prev = y;
        }
    }

    #[test]
    fn finite_and_positive_wherever_the_scale_search_can_land() {
        let floor = FLOOR.exp();
        for x in [
            -700.0,
            -700.000_000_1,
            -745.2,
            -1e3,
            -1e17,
            -1e300,
            f64::MIN,
            f64::NEG_INFINITY,
        ] {
            let y = exp_nonpositive(x);
            assert!(ulps_apart(y, floor) <= 2, "exp({x}) = {y}");
        }
        // The smallest steps below zero a shifted distance over a scale makes.
        for x in [-5e-324, -1e-300, -1e-17, -f64::EPSILON] {
            let y = exp_nonpositive(x);
            assert!(y.is_finite() && y > 0.0 && y <= 1.0, "exp({x}) = {y}");
            assert!(ulps_apart(y, x.exp()) <= 1, "exp({x}) = {y}");
        }
    }
}
