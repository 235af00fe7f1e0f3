//! Dataset generators the two property files of this crate share.

use disar_math::rng::Xoshiro256PlusPlus;
use disar_ml::Dataset;

/// A random regression dataset with 1–3 features.
pub fn any_dataset(rng: &mut Xoshiro256PlusPlus) -> Dataset {
    let (dim, n) = (rng.gen_range(1usize..4), rng.gen_range(5usize..40));
    let rows = (0..n)
        .map(|_| (0..dim).map(|_| rng.gen_range(-100.0..100.0)).collect())
        .collect();
    let ys = (0..n).map(|_| rng.gen_range(-1000.0..1000.0)).collect();
    let names = (0..dim).map(|i| format!("f{i}")).collect();
    Dataset::from_rows(names, rows, ys).expect("finite values")
}

/// A duplicate-heavy dataset (tiny value alphabet), so neighbour ties — where
/// the lowest-row-index tie-break matters — are the common case rather than
/// the corner case.
pub fn any_tied_dataset(rng: &mut Xoshiro256PlusPlus) -> Dataset {
    let (dim, n) = (rng.gen_range(1usize..3), rng.gen_range(6usize..32));
    let rows = (0..n)
        .map(|_| {
            (0..dim)
                .map(|_| f64::from(rng.gen_range(0i32..4)))
                .collect()
        })
        .collect();
    let ys = (0..n).map(|_| f64::from(rng.gen_range(0i32..3))).collect();
    let names = (0..dim).map(|i| format!("f{i}")).collect();
    Dataset::from_rows(names, rows, ys).expect("finite values")
}
