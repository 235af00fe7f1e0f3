//! Seeded input generation. Everything the program is fed derives from the
//! `--seed` argument through this module and nothing else.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One Solvency II job, by the two sizes that drive its cost (the job shape
/// of `examples/elastic_provisioning.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    /// Representative contracts, in `[100, 600)`.
    pub contracts: usize,
    /// Maximum policy horizon in years, in `[10, 40)`.
    pub horizon: u32,
}

/// Independent input streams of one benchmark seed, so adding a draw to one
/// never shifts another.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    Jobs = 1,
    SeedingRuns = 2,
    GateSample = 3,
    Tenants = 4,
}

pub fn rng(seed: u64, stream: Stream, index: u64) -> StdRng {
    StdRng::seed_from_u64(
        seed ^ (stream as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03),
    )
}

pub fn job(rng: &mut StdRng) -> Job {
    Job {
        contracts: rng.gen_range(100..600),
        horizon: rng.gen_range(10..40),
    }
}

pub fn jobs(seed: u64, stream: Stream, index: u64, n: usize) -> Vec<Job> {
    let mut r = rng(seed, stream, index);
    (0..n).map(|_| job(&mut r)).collect()
}

/// `k` distinct indices below `n` (all of them when `k >= n`), ascending.
pub fn sample_indices(seed: u64, n: usize, k: usize) -> Vec<usize> {
    use rand::seq::SliceRandom;
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(&mut rng(seed, Stream::GateSample, 0));
    idx.truncate(k);
    idx.sort_unstable();
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::seq::SliceRandom;

    #[test]
    fn equal_seeds_give_equal_jobs_and_other_seeds_other_jobs() {
        let a = jobs(7, Stream::Jobs, 0, 200);
        assert_eq!(a, jobs(7, Stream::Jobs, 0, 200));
        assert_ne!(a, jobs(8, Stream::Jobs, 0, 200));
        assert_ne!(a, jobs(7, Stream::Jobs, 1, 200));
        assert_ne!(a, jobs(7, Stream::Tenants, 0, 200));
        assert!(a
            .iter()
            .all(|j| (100..600).contains(&j.contracts) && (10..40).contains(&j.horizon)));
    }

    #[test]
    fn sample_indices_are_distinct_sorted_and_in_range() {
        let s = sample_indices(3, 100, 20);
        assert_eq!(s.len(), 20);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(s.iter().all(|&i| i < 100));
        assert_eq!(sample_indices(3, 5, 20), vec![0, 1, 2, 3, 4]);
    }

    // The stand-in `rand` is this benchmark's code, so its contract is
    // tested here, through the API the workspace calls.

    #[test]
    fn gen_range_respects_half_open_and_inclusive_bounds() {
        let mut r = StdRng::seed_from_u64(1);
        let (mut saw_lo, mut saw_hi_incl) = (false, false);
        for _ in 0..20_000 {
            let a: usize = r.gen_range(3..7);
            assert!((3..7).contains(&a));
            saw_lo |= a == 3;
            let b: i32 = r.gen_range(-2..=2);
            assert!((-2..=2).contains(&b));
            saw_hi_incl |= b == 2;
            let x: f64 = r.gen_range(-1.0..1.0);
            assert!((-1.0..1.0).contains(&x));
            let y: f64 = r.gen_range(0.5..=0.75);
            assert!((0.5..=0.75).contains(&y));
            let u: f64 = r.gen();
            assert!((0.0..1.0).contains(&u));
        }
        assert!(saw_lo && saw_hi_incl);
        assert_eq!(r.gen_range(9..10), 9);
        assert_eq!(r.gen_range(9..=9), 9);
        assert_eq!(r.gen_range(u64::MAX - 1..=u64::MAX) | 1, u64::MAX);
    }

    #[test]
    fn gen_bool_hits_its_probability_and_its_extremes() {
        let mut r = StdRng::seed_from_u64(2);
        let hits = (0..40_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((9_000..11_000).contains(&hits), "{hits}");
        assert!(!(0..100).any(|_| r.gen_bool(0.0)));
        assert!((0..100).all(|_| r.gen_bool(1.0)));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<u32> = (0..1000).collect();
        v.shuffle(&mut StdRng::seed_from_u64(3));
        assert_ne!(v, (0..1000).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..1000).collect::<Vec<_>>());
    }
}
