//! Counting-allocator gate for the retrain of a grown base through the
//! trait object.
//!
//! `Regressor::fit_appended` is the one call a retrain makes on every
//! member. For a member that extends its fit exactly it must be that
//! member's `IncrementalRegressor::partial_fit` and nothing more: a forest
//! retrained on one appended row allocates exactly as often as its own
//! partial fit does, which is far less than a cold fit of its 100 trees,
//! and lands on the cold fit's model to the bit.
//!
//! The counts are per thread (`disar_math::check::CountingAlloc`): a
//! retrain runs on the test's own thread, and what the test harness
//! allocates on its threads never lands in a window. What keeps a count
//! clean is that nothing else runs on the test's thread while a window is
//! open; a second `#[test]` in this file would run on a thread of its own.

use disar_math::check::{allocations, CountingAlloc};
use disar_math::rng::stream_rng;
use disar_ml::{Dataset, IncrementalRegressor, RandomForest, Regressor};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// 100 rows of a job size, a core count and a node count against a time.
fn rows() -> Dataset {
    let mut d = Dataset::new(vec!["contracts".into(), "vcpus".into(), "nodes".into()]);
    let mut rng = stream_rng(5, 0xF17A);
    for _ in 0..100 {
        let contracts = 150.0 + 75.0 * rng.gen_range(0..12usize) as f64;
        let vcpus = [16.0, 32.0, 36.0][rng.gen_range(0..3usize)];
        let nodes = rng.gen_range(1..=8usize) as f64;
        let secs = 40.0 + 0.4 * contracts / (vcpus * nodes).powf(0.85);
        d.push(vec![contracts, vcpus, nodes], secs)
            .expect("finite row");
    }
    d
}

#[test]
fn fit_appended_is_the_forests_partial_fit() {
    let data = rows();
    let n = data.len();
    let mut head_fit = RandomForest::new(11);
    head_fit
        .fit(&data.filter(|i| i < n - 1))
        .expect("non-empty data");

    let mut direct = head_fit.clone();
    let ((), partial) = allocations(|| {
        direct
            .partial_fit(&data, n - 1)
            .expect("the base grew by appending")
    });
    let mut boxed: Box<dyn Regressor> = Box::new(head_fit.clone());
    let ((), appended) = allocations(|| {
        boxed
            .fit_appended(&data, n - 1)
            .expect("the base grew by appending")
    });
    let mut cold = RandomForest::new(11);
    let ((), refit) = allocations(|| cold.fit(&data).expect("non-empty data"));
    assert_eq!(
        appended, partial,
        "fit_appended allocated {appended} times, partial_fit {partial} (a cold fit: {refit})"
    );
    assert!(partial < refit, "partial fit {partial}, cold fit {refit}");

    for (i, x) in data.rows().iter().enumerate() {
        let want = cold.predict(x).expect("fitted").to_bits();
        assert_eq!(boxed.predict(x).expect("fitted").to_bits(), want, "row {i}");
        assert_eq!(
            direct.predict(x).expect("fitted").to_bits(),
            want,
            "row {i}"
        );
    }
}
