//! Deterministic random-number utilities.
//!
//! Reproducibility is a hard requirement in a regulatory context: a solvency
//! figure must be re-derivable. Every stochastic component in the workspace
//! therefore takes an explicit `u64` seed and derives *independent
//! sub-streams* per Monte Carlo path through [`split_seed`], so results do
//! not depend on thread scheduling.
//!
//! The workspace has one generator, [`Xoshiro256PlusPlus`], and it is this
//! module's own code: the streams behind every recorded digest, SCR and
//! regret figure are defined here, draw for draw, and by no external crate.
//! The only way to make one is [`stream_rng`].
//!
//! Gaussian variates come from a 128-layer ziggurat ([`StandardNormal`]):
//! one [`Xoshiro256PlusPlus::next_u64`] per variate 97.2 % of the time, and
//! no libm call on that path.

use std::ops::{Range, RangeInclusive};
use std::sync::LazyLock;

/// SplitMix64 step: advances `state` and returns a well-mixed 64-bit output.
///
/// This is the generator recommended by Vigna for seeding other PRNGs; we use
/// it to derive uncorrelated sub-seeds from a master seed.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the `index`-th sub-seed of `master`.
///
/// Distinct `(master, index)` pairs map to (practically) independent seeds;
/// the same pair always maps to the same seed.
///
/// # Example
///
/// ```
/// use disar_math::rng::split_seed;
/// assert_eq!(split_seed(42, 7), split_seed(42, 7));
/// assert_ne!(split_seed(42, 7), split_seed(42, 8));
/// ```
pub fn split_seed(master: u64, index: u64) -> u64 {
    let mut s = master ^ 0xD1B5_4A32_D192_ED03u64.wrapping_mul(index.wrapping_add(1));
    // Two rounds of mixing decorrelate adjacent indices.
    let a = splitmix64(&mut s);
    let mut s2 = a ^ index.rotate_left(17);
    splitmix64(&mut s2)
}

/// Creates the generator of the `(master, index)` stream: its four state
/// words are four [`splitmix64`] steps from [`split_seed`]`(master, index)`.
pub fn stream_rng(master: u64, index: u64) -> Xoshiro256PlusPlus {
    let mut state = split_seed(master, index);
    Xoshiro256PlusPlus {
        s: std::array::from_fn(|_| splitmix64(&mut state)),
    }
}

/// xoshiro256++ (Blackman & Vigna), the workspace's only generator.
///
/// How each draw consumes [`next_u64`](Self::next_u64) is part of the
/// contract: changing it changes every number the program has recorded, and
/// the known-answer test of this module fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

impl Xoshiro256PlusPlus {
    /// The next 64 bits of the stream.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`: the top 53 bits of one draw, times 2⁻⁵³.
    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Draws uniformly from `lo..hi` or `lo..=hi` (`f64`, `usize`, `u32`,
    /// `u64`, `i32`).
    ///
    /// # Panics
    ///
    /// If the range is empty.
    pub fn gen_range<T, R: UniformRange<T>>(&mut self, range: R) -> T {
        range.draw(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// If `p` is outside `[0, 1]`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p outside [0, 1]");
        self.unit_f64() < p
    }

    /// Fisher–Yates shuffle, from the top of the slice down.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            slice.swap(i, self.gen_range(0..=i));
        }
    }
}

/// A range [`Xoshiro256PlusPlus::gen_range`] draws a `T` from. Callers pass
/// `lo..hi` or `lo..=hi` and never name this trait.
pub trait UniformRange<T> {
    /// One draw from `self`.
    fn draw(self, rng: &mut Xoshiro256PlusPlus) -> T;
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl UniformRange<$t> for RangeInclusive<$t> {
            fn draw(self, rng: &mut Xoshiro256PlusPlus) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "gen_range: empty range");
                // Multiply-shift maps 64 random bits onto the span + 1 values
                // of the range; the bias is below (span + 1) / 2^64. `as u64`
                // sign-extends, so the wrapping arithmetic is right for `i32`.
                let span = (hi as u64).wrapping_sub(lo as u64);
                let offset = ((rng.next_u64() as u128 * (span as u128 + 1)) >> 64) as u64;
                (lo as u64).wrapping_add(offset) as $t
            }
        }

        impl UniformRange<$t> for Range<$t> {
            fn draw(self, rng: &mut Xoshiro256PlusPlus) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                (self.start..=self.end - 1).draw(rng)
            }
        }
    )*};
}

uniform_int!(usize, u32, u64, i32);

impl UniformRange<f64> for Range<f64> {
    fn draw(self, rng: &mut Xoshiro256PlusPlus) -> f64 {
        let (lo, hi) = (self.start, self.end);
        assert!(lo < hi, "gen_range: empty range");
        loop {
            let x = lo + (hi - lo) * rng.unit_f64();
            // Rounding can land exactly on `hi`; draw again.
            if x < hi {
                return x;
            }
        }
    }
}

impl UniformRange<f64> for RangeInclusive<f64> {
    fn draw(self, rng: &mut Xoshiro256PlusPlus) -> f64 {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "gen_range: empty range");
        (lo + (hi - lo) * rng.unit_f64()).min(hi)
    }
}

/// The 128-layer ziggurat of Marsaglia & Tsang (2000) in Doornik's ZIGNOR
/// form: layer `i` spans `|x| < x[i]`, `x[1] = R` down to `x[128] = 0`, every
/// layer has area `V`, and layer 0 is the base strip plus the tail beyond `R`,
/// given the width `x[0] = V / f(R)` it would have as a rectangle.
struct Ziggurat {
    x: [f64; 129],
    /// `x[i + 1] / x[i]`: the share of layer `i` that lies under the curve
    /// whatever the height drawn.
    ratio: [f64; 128],
}

const ZIGGURAT_R: f64 = 3.442619855899;
const ZIGGURAT_V: f64 = 9.91256303526217e-3;

static ZIGGURAT: LazyLock<Ziggurat> = LazyLock::new(|| {
    let mut x = [0.0; 129];
    let mut f = (-0.5 * ZIGGURAT_R * ZIGGURAT_R).exp();
    x[0] = ZIGGURAT_V / f;
    x[1] = ZIGGURAT_R;
    for i in 2..128 {
        x[i] = (-2.0 * (ZIGGURAT_V / x[i - 1] + f).ln()).sqrt();
        f = (-0.5 * x[i] * x[i]).exp();
    }
    let ratio = std::array::from_fn(|i| x[i + 1] / x[i]);
    Ziggurat { x, ratio }
});

impl Ziggurat {
    /// One N(0,1) variate. A draw of the generator is split into two
    /// disjoint fields (Doornik's correction of the original): its low 7
    /// bits choose the layer, its top 53 bits, read as a signed integer, give
    /// `u` uniform in `[-1, 1)`. `|u| < ratio[layer]` accepts `u * x[layer]`
    /// on that one draw.
    #[inline]
    fn draw(&self, rng: &mut Xoshiro256PlusPlus) -> f64 {
        loop {
            let bits = rng.next_u64();
            let layer = (bits & 0x7F) as usize;
            let u = ((bits as i64) >> 11) as f64 * (1.0 / (1u64 << 52) as f64);
            if u.abs() < self.ratio[layer] {
                return u * self.x[layer];
            }
            if let Some(z) = self.draw_edge(layer, u, rng) {
                return z;
            }
        }
    }

    /// The 2.8 % of draws that fall outside a layer's core. In the base
    /// layer: the tail beyond `R` by Marsaglia's method, two logarithms per
    /// attempt. In any other: the wedge between the layer's rectangle and
    /// the curve, one more draw and two `exp`s, `None` when rejected.
    #[cold]
    fn draw_edge(&self, layer: usize, u: f64, rng: &mut Xoshiro256PlusPlus) -> Option<f64> {
        if layer == 0 {
            loop {
                // `1 - U` is in (0, 1]: the logarithms are finite.
                let x = (1.0 - rng.unit_f64()).ln() / ZIGGURAT_R;
                let y = (1.0 - rng.unit_f64()).ln();
                if -2.0 * y >= x * x {
                    return Some((ZIGGURAT_R - x).copysign(u));
                }
            }
        }
        let x = u * self.x[layer];
        let f0 = (-0.5 * (self.x[layer] * self.x[layer] - x * x)).exp();
        let f1 = (-0.5 * (self.x[layer + 1] * self.x[layer + 1] - x * x)).exp();
        (f1 + rng.unit_f64() * (f0 - f1) < 1.0).then_some(x)
    }
}

/// Samples standard-normal variates from the ziggurat. The sampler has no
/// state: what a variate consumes of the stream — one `next_u64`, and on the
/// wedge and tail branches a few more — is a function of the stream alone.
///
/// # Example
///
/// ```
/// use disar_math::rng::{stream_rng, StandardNormal};
///
/// let mut rng = stream_rng(1, 0);
/// let mut gauss = StandardNormal::new();
/// let z = gauss.sample(&mut rng);
/// assert!(z.is_finite());
/// ```
#[derive(Debug, Clone, Default)]
pub struct StandardNormal;

impl StandardNormal {
    /// Creates a sampler.
    pub fn new() -> Self {
        StandardNormal
    }

    /// Draws one N(0,1) variate.
    #[inline]
    pub fn sample(&mut self, rng: &mut Xoshiro256PlusPlus) -> f64 {
        ZIGGURAT.draw(rng)
    }

    /// Fills `out` with N(0,1) variates, the ones as many calls of
    /// [`StandardNormal::sample`] return.
    #[inline]
    pub fn fill(&mut self, rng: &mut Xoshiro256PlusPlus, out: &mut [f64]) {
        let ziggurat = &*ZIGGURAT;
        for x in out {
            *x = ziggurat.draw(rng);
        }
    }
}

/// Convenience: draws `n` standard normals from a fresh stream of `master`.
pub fn normal_vec(master: u64, index: u64, n: usize) -> Vec<f64> {
    let mut rng = stream_rng(master, index);
    let mut g = StandardNormal::new();
    let mut v = vec![0.0; n];
    g.fill(&mut rng, &mut v);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    #[test]
    fn splitmix_is_deterministic() {
        let mut s1 = 123u64;
        let mut s2 = 123u64;
        assert_eq!(splitmix64(&mut s1), splitmix64(&mut s2));
        assert_eq!(s1, s2);
    }

    #[test]
    fn split_seed_distinct_indices() {
        let seeds: Vec<u64> = (0..1000).map(|i| split_seed(99, i)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "sub-seed collision");
    }

    #[test]
    fn split_seed_distinct_masters() {
        assert_ne!(split_seed(1, 0), split_seed(2, 0));
    }

    #[test]
    fn stream_rng_reproducible() {
        let mut a = stream_rng(7, 3);
        let mut b = stream_rng(7, 3);
        assert_eq!(a.next_u64(), b.next_u64());
        assert_eq!(a, b);
    }

    /// The streams every recorded digest, SCR and regret figure depends on
    /// (the values are also those of `benchmark/shims/rand`'s `StdRng` at the
    /// same seed). If this fails, the streams have moved and no recorded
    /// number is comparable any more.
    #[test]
    fn known_answers_pin_the_streams() {
        let mut r = stream_rng(20160627, 0);
        assert_eq!(r.next_u64(), 0x6b17_3036_bacc_c2c4);
        assert_eq!(r.next_u64(), 0xec32_1f8c_0c58_e562);
        assert_eq!(r.next_u64(), 0x1fbf_3748_a02e_fb32);
        assert_eq!(r.gen_range(-1.0..1.0), -0.43946993595847506);
        assert_eq!(r.gen_range(1..=64usize), 19);
        let mut v: Vec<usize> = (0..8).collect();
        r.shuffle(&mut v);
        assert_eq!(v, [5, 3, 4, 7, 1, 2, 6, 0]);
        assert!(!r.gen_bool(0.5));

        // The normal stream: what a variate is and what it consumes.
        let mut r = stream_rng(20160627, 0);
        let mut by_fill = r.clone();
        let mut gauss = StandardNormal::new();
        let drawn: [u64; 8] = std::array::from_fn(|_| gauss.sample(&mut r).to_bits());
        assert_eq!(drawn, NORMAL_BITS, "{drawn:#018x?}");
        // `fill` of n and n calls of `sample` are the same draws.
        let mut filled = [0.0; 8];
        gauss.fill(&mut by_fill, &mut filled);
        assert_eq!(filled.map(f64::to_bits), drawn);
        assert_eq!(by_fill, r);
        // The tables, as this platform's `exp`, `ln` and `sqrt` build them: a
        // libm that builds others fails here and does not shift a stream.
        let tables = [
            (&ZIGGURAT.x[..], ZIGGURAT_X_FNV),
            (&ZIGGURAT.ratio[..], ZIGGURAT_RATIO_FNV),
        ];
        for (table, pinned) in tables {
            let bytes = table.iter().flat_map(|x| x.to_bits().to_le_bytes());
            let fnv = bytes.fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
            assert_eq!(fnv, pinned, "{fnv:#018x}");
        }
    }

    /// The first eight normals of stream `(20160627, 0)`.
    const NORMAL_BITS: [u64; 8] = [
        0x3ff3_cc52_38e1_62fd,
        0xbfc5_07bb_7d06_bc39,
        0x3fdb_7643_0af1_44d2,
        0x3fe1_9f82_2578_ddb5,
        0x3ff4_b4eb_2478_c859,
        0x3fcc_25cd_970b_5f7a,
        0xbfdb_677d_a448_b0a3,
        0x3ff5_da27_7e83_fc56,
    ];
    /// FNV-1a over the little-endian bytes of each table's `to_bits()`.
    const ZIGGURAT_X_FNV: u64 = 0x5816_45bd_8055_ad22;
    const ZIGGURAT_RATIO_FNV: u64 = 0x52b1_03ba_e424_d0d1;

    #[test]
    fn gen_range_hits_and_respects_its_bounds() {
        use std::collections::BTreeSet;
        let mut r = stream_rng(1, 0);
        let (mut a, mut b, mut c) = (BTreeSet::new(), BTreeSet::new(), BTreeSet::new());
        for _ in 0..2000 {
            a.insert(r.gen_range(3..7usize));
            b.insert(r.gen_range(18..=21u32));
            c.insert(r.gen_range(-2..=2));
            let x = r.gen_range(-1.0..1.0);
            assert!((-1.0..1.0).contains(&x));
            let y = r.gen_range(0.5..=0.75);
            assert!((0.5..=0.75).contains(&y));
        }
        // Every value of each range, both ends included, and nothing else.
        assert_eq!(a, (3..7).collect());
        assert_eq!(b, (18..=21).collect());
        assert_eq!(c, (-2..=2).collect());
        assert_eq!(r.gen_range(9..10), 9);
        assert_eq!(r.gen_range(9..=9), 9);
        assert_eq!(r.gen_range(0.5..=0.5), 0.5);
        assert_eq!(r.gen_range(u64::MAX - 1..=u64::MAX) | 1, u64::MAX);
        // The widest span: span + 1 = 2^64 must not wrap to zero.
        let mut twin = r.clone();
        assert_eq!(r.gen_range(0..=u64::MAX), twin.next_u64());
    }

    #[test]
    fn f64_draws_stay_half_open_where_rounding_reaches_the_end() {
        // Between 1 and its successor every product rounds to one of the two
        // ends: the half-open draw must redraw, the inclusive one may land.
        let hi = 1.0 + f64::EPSILON;
        let mut r = stream_rng(2, 0);
        let mut landed = false;
        for _ in 0..200 {
            assert_eq!(r.gen_range(1.0..hi), 1.0);
            landed |= r.gen_range(1.0..=hi) == hi;
        }
        assert!(landed);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn gen_range_panics_on_an_empty_integer_range() {
        stream_rng(1, 0).gen_range(5..5usize);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn gen_range_panics_on_an_empty_float_range() {
        stream_rng(1, 0).gen_range(1.0..1.0);
    }

    #[test]
    fn gen_bool_hits_its_probability_and_its_extremes() {
        let mut r = stream_rng(2, 0);
        let hits = (0..40_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((9_400..10_600).contains(&hits), "hits {hits}");
        assert!(!(0..100).any(|_| r.gen_bool(0.0)));
        assert!((0..100).all(|_| r.gen_bool(1.0)));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<usize> = (0..50).collect();
        stream_rng(3, 0).shuffle(&mut v);
        assert_ne!(v, (0..50).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..50).collect::<Vec<_>>());
        let mut short = [7];
        stream_rng(3, 0).shuffle(&mut short);
        stream_rng(3, 0).shuffle::<u8>(&mut []);
        assert_eq!(short, [7]);
    }

    /// The Marsaglia polar method, which made every normal until the
    /// ziggurat: the reference of the two-sample test below.
    fn polar_vec(master: u64, index: u64, n: usize) -> Vec<f64> {
        let mut rng = stream_rng(master, index);
        let mut spare = None;
        let mut draw = || loop {
            if let Some(z) = spare.take() {
                return z;
            }
            let u: f64 = rng.gen_range(-1.0..1.0);
            let v: f64 = rng.gen_range(-1.0..1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let f = (-2.0 * s.ln() / s).sqrt();
                spare = Some(v * f);
                return u * f;
            }
        };
        (0..n).map(|_| draw()).collect()
    }

    /// Φ(x) by Marsaglia's series `½ + φ(x) Σ x^(2k+1) / (2k+1)!!`, good to
    /// machine precision over the range these tests use.
    fn normal_cdf(x: f64) -> f64 {
        let (mut sum, mut term, mut k) = (x, x, 1.0);
        while term.abs() > 1e-17 * sum.abs() {
            k += 2.0;
            term *= x * x / k;
            sum += term;
        }
        0.5 + sum * (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt()
    }

    const N: usize = 1_000_000;

    #[test]
    fn normal_moments_within_four_standard_errors() {
        let v = normal_vec(2024, 0, N);
        let n = N as f64;
        let m = stats::mean(&v);
        let central = |p: i32| v.iter().map(|z| (z - m).powi(p)).sum::<f64>() / n;
        let var = central(2);
        let skew = central(3) / var.powf(1.5);
        let kurt = central(4) / (var * var) - 3.0;
        assert!(m.abs() < 4.0 * (1.0 / n).sqrt(), "mean {m}");
        assert!((var - 1.0).abs() < 4.0 * (2.0 / n).sqrt(), "variance {var}");
        assert!(skew.abs() < 4.0 * (6.0 / n).sqrt(), "skewness {skew}");
        assert!(
            kurt.abs() < 4.0 * (24.0 / n).sqrt(),
            "excess kurtosis {kurt}"
        );
    }

    #[test]
    fn normal_tail_mass_on_every_branch() {
        // A variate that consumed one draw ended in a layer's core; of the
        // others only the tail branch returns |z| >= R.
        let mut rng = stream_rng(5, 1);
        let mut gauss = StandardNormal::new();
        let (mut wedge, mut tail) = (0usize, 0usize);
        let mut beyond = [(1.96, 0usize), (3.0, 0), (ZIGGURAT_R, 0)];
        for _ in 0..N {
            let mut one_draw = rng.clone();
            one_draw.next_u64();
            let z = gauss.sample(&mut rng);
            if rng != one_draw {
                if z.abs() >= ZIGGURAT_R {
                    tail += 1;
                } else {
                    wedge += 1;
                }
            }
            for (t, count) in &mut beyond {
                *count += usize::from(z.abs() > *t);
            }
        }
        let n = N as f64;
        for (t, count) in beyond {
            let p = 2.0 * (1.0 - normal_cdf(t));
            let se = (p * (1.0 - p) / n).sqrt();
            let frac = count as f64 / n;
            assert!(
                (frac - p).abs() < 4.0 * se,
                "P(|Z| > {t}) = {p}, drew {frac}"
            );
        }
        assert_eq!(tail, beyond[2].1, "only the tail branch reaches beyond R");
        assert!(tail > 0 && wedge > 0, "wedge {wedge}, tail {tail}");
        // A variate costs one draw when its first draw lands in a core:
        // with probability mean(ratio), 97.2 %.
        let p = 1.0 - ZIGGURAT.ratio.iter().sum::<f64>() / 128.0;
        let se = (p * (1.0 - p) / n).sqrt();
        let slow = (wedge + tail) as f64 / n;
        assert!((0.0275..0.0276).contains(&p), "share past the cores {p}");
        assert!((slow - p).abs() < 4.0 * se, "wedge {wedge}, tail {tail}");
    }

    #[test]
    fn normal_chi_square_over_128_equiprobable_bins() {
        const BINS: usize = 128;
        let mut counts = [0usize; BINS];
        for z in normal_vec(99, 3, N) {
            counts[(normal_cdf(z) * BINS as f64) as usize] += 1;
        }
        let expected = N as f64 / BINS as f64;
        let chi2: f64 = counts
            .iter()
            .map(|&c| (c as f64 - expected).powi(2) / expected)
            .sum();
        // 99.9 % quantile of χ² with 127 degrees of freedom.
        assert!(chi2 < 181.99, "chi-square {chi2}");
    }

    #[test]
    fn normal_two_sample_ks_against_the_polar_method() {
        const M: usize = 100_000;
        let mut a = normal_vec(31, 0, M);
        let mut b = polar_vec(31, 1, M);
        a.sort_by(f64::total_cmp);
        b.sort_by(f64::total_cmp);
        // The largest gap between the two empirical distribution functions.
        let (mut i, mut j, mut d) = (0, 0, 0.0_f64);
        while i < M && j < M {
            if a[i] <= b[j] {
                i += 1;
            } else {
                j += 1;
            }
            d = d.max((i as f64 - j as f64).abs() / M as f64);
        }
        // 99.9 % critical value: sqrt(-ln(0.0005) / 2) · sqrt(2 / M).
        let critical = (-(0.0005_f64).ln() / 2.0).sqrt() * (2.0 / M as f64).sqrt();
        assert!(d < critical, "KS statistic {d}, critical {critical}");
    }

    #[test]
    fn normal_pairs_uncorrelated_across_streams() {
        let a = normal_vec(11, 0, 50_000);
        let b = normal_vec(11, 1, 50_000);
        let c = stats::correlation(&a, &b);
        assert!(c.abs() < 0.02, "cross-stream correlation {c}");
    }
}
