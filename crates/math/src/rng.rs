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
//! Gaussian variates are produced with the Marsaglia polar method
//! ([`StandardNormal`]).

use std::ops::{Range, RangeInclusive};

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

/// Samples standard-normal variates using the Marsaglia polar method.
///
/// The sampler caches the second variate of each generated pair, so the
/// amortized cost is one `ln` + one `sqrt` per two samples.
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
pub struct StandardNormal {
    spare: Option<f64>,
}

impl StandardNormal {
    /// Creates a sampler with an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Draws one N(0,1) variate.
    pub fn sample(&mut self, rng: &mut Xoshiro256PlusPlus) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        loop {
            let u: f64 = rng.gen_range(-1.0..1.0);
            let v: f64 = rng.gen_range(-1.0..1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let f = (-2.0 * s.ln() / s).sqrt();
                self.spare = Some(v * f);
                return u * f;
            }
        }
    }

    /// Fills `out` with N(0,1) variates.
    pub fn fill(&mut self, rng: &mut Xoshiro256PlusPlus, out: &mut [f64]) {
        for x in out {
            *x = self.sample(rng);
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
    }

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

    #[test]
    fn normal_moments() {
        let v = normal_vec(2024, 0, 200_000);
        let m = stats::mean(&v);
        let sd = stats::std_dev(&v);
        assert!(m.abs() < 0.01, "mean {m}");
        assert!((sd - 1.0).abs() < 0.01, "sd {sd}");
    }

    #[test]
    fn normal_tail_mass() {
        // P(|Z| > 1.96) ≈ 0.05
        let v = normal_vec(5, 1, 100_000);
        let frac = v.iter().filter(|z| z.abs() > 1.96).count() as f64 / v.len() as f64;
        assert!((frac - 0.05).abs() < 0.005, "tail fraction {frac}");
    }

    #[test]
    fn normal_pairs_uncorrelated_across_streams() {
        let a = normal_vec(11, 0, 50_000);
        let b = normal_vec(11, 1, 50_000);
        let c = stats::correlation(&a, &b);
        assert!(c.abs() < 0.02, "cross-stream correlation {c}");
    }
}
