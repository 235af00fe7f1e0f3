//! Order statistics and the output digest.

/// Median of the samples (mean of the two middle ones for an even count).
/// Returns 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Lower quartile by nearest rank, `ceil(n / 4)`: the harness's estimate of
/// an undisturbed timing from repeated observations of the same computation.
/// Disturbances only add time, so the truth sits low in the sample; the very
/// lowest observation is left out because one wrong clock reading can push a
/// single observation below it. Returns 0 for no samples.
pub fn lower_quartile(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len().div_ceil(4) - 1]
}

/// Samples that must lie beyond a tail percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 100]`): the sample at rank
/// `ceil(p/100 · n)`. `None` unless at least [`MIN_BEYOND`] samples lie
/// beyond that rank, so a reported tail always rests on ten observations.
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || rank > n || n - rank < MIN_BEYOND {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// FNV-1a, the digest the correctness gate compares across repetitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn lower_quartile_is_nearest_rank() {
        assert_eq!(lower_quartile(&[]), 0.0);
        assert_eq!(lower_quartile(&[7.0]), 7.0);
        assert_eq!(lower_quartile(&[4.0, 3.0, 2.0, 1.0]), 1.0);
        assert_eq!(lower_quartile(&[5.0, 4.0, 3.0, 2.0, 1.0]), 2.0);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(lower_quartile(&v), 5.0);
    }

    #[test]
    fn tail_percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // rank ceil(0.95 * 200) = 190, ten samples beyond.
        assert_eq!(tail_percentile(&v, 95.0), Some(190.0));
        assert_eq!(tail_percentile(&v, 50.0), Some(100.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=199).map(f64::from).collect();
        // rank ceil(0.95 * 199) = 190 leaves nine beyond: not reported.
        assert_eq!(tail_percentile(&v, 95.0), None);
        // p99 of 200 samples leaves two beyond.
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 99.0), None);
        assert_eq!(tail_percentile(&[], 95.0), None);
    }

    #[test]
    fn digest_depends_on_order_and_bits() {
        let mut a = Fnv::new();
        a.f64(1.0);
        a.f64(2.0);
        let mut b = Fnv::new();
        b.f64(2.0);
        b.f64(1.0);
        assert_ne!(a, b);
        let mut c = Fnv::new();
        c.f64(0.0);
        let mut d = Fnv::new();
        d.f64(-0.0);
        assert_ne!(c, d);
    }
}
