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
//! This file deliberately holds a single `#[test]`: the counter is a
//! process-global and concurrently running tests would pollute it.

use disar_math::rng::stream_rng;
use disar_ml::{Dataset, IncrementalRegressor, RandomForest, Regressor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

/// System allocator wrapper that counts every allocation-producing call.
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations `f` makes.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

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
    let mut head_fit = RandomForest::with_defaults(11);
    head_fit
        .fit(&data.filter(|i| i < n - 1))
        .expect("non-empty data");

    let mut direct = head_fit.clone();
    let partial = allocations(|| {
        direct
            .partial_fit(&data, n - 1)
            .expect("the base grew by appending")
    });
    let mut boxed: Box<dyn Regressor> = Box::new(head_fit.clone());
    let appended = allocations(|| {
        boxed
            .fit_appended(&data, n - 1)
            .expect("the base grew by appending")
    });
    let mut cold = RandomForest::with_defaults(11);
    let refit = allocations(|| cold.fit(&data).expect("non-empty data"));
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
