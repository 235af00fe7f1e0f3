//! Seeded property checks: a property is a closure over a generator, run on
//! a fixed number of cases.
//!
//! ```
//! use disar_math::check::{cases, vec_of};
//!
//! cases(64, |rng| {
//!     let xs = vec_of(rng, 1..20, |rng| rng.gen_range(-1e3..1e3));
//!     let sum: f64 = xs.iter().sum();
//!     assert!(sum.abs() <= 1e3 * xs.len() as f64);
//! });
//! ```
//!
//! Case `i` of every property draws from [`stream_rng`]`(MASTER, i)`, so a run
//! is the same on every machine and every day. A failing case panics with its
//! index, and [`case`] reruns that index alone: that is how a failure is
//! debugged, and a `#[test]` calling `case(i, …)` is how it is pinned as a
//! regression. There is nothing to configure and nothing is shrunk; a
//! generator is any function of `&mut Xoshiro256PlusPlus`, built from its
//! `gen_range`, `gen_bool` and `shuffle`.
//!
//! The allocation gates of the workspace (the `alloc_*` test files) count
//! with [`CountingAlloc`], which a test binary installs as its global
//! allocator, and read a window with [`allocations`].

use crate::rng::{stream_rng, UniformRange, Xoshiro256PlusPlus};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The master seed of every property's cases.
const MASTER: u64 = 0x00C0_FFEE_D15A_2016;

/// Runs `property` on cases `0..n`.
///
/// # Panics
///
/// When a case does, naming its index.
pub fn cases(n: u64, mut property: impl FnMut(&mut Xoshiro256PlusPlus)) {
    for index in 0..n {
        case(index, &mut property);
    }
}

/// Runs `property` on case `index` alone, with the draws [`cases`] hands it.
///
/// # Panics
///
/// When the case does: the message is the property's own, behind the index.
pub fn case(index: u64, property: impl FnOnce(&mut Xoshiro256PlusPlus)) {
    let mut rng = stream_rng(MASTER, index);
    if let Err(cause) = catch_unwind(AssertUnwindSafe(|| property(&mut rng))) {
        let message = cause
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| cause.downcast_ref::<&str>().copied())
            .unwrap_or("a panic that carries no message");
        panic!("case {index} of the property failed: {message}");
    }
}

/// A vector whose length is drawn from `len` and whose items come from `item`.
pub fn vec_of<T>(
    rng: &mut Xoshiro256PlusPlus,
    len: impl UniformRange<usize>,
    mut item: impl FnMut(&mut Xoshiro256PlusPlus) -> T,
) -> Vec<T> {
    (0..rng.gen_range(len)).map(|_| item(rng)).collect()
}

/// The system allocator, counting each allocation-producing call on the
/// thread that makes it. A test binary installs it with
///
/// ```
/// use disar_math::check::{allocations, CountingAlloc};
///
/// #[global_allocator]
/// static GLOBAL: CountingAlloc = CountingAlloc;
///
/// let (v, n) = allocations(|| vec![1u8; 3]);
/// assert_eq!((v.len(), n), (3, 1));
/// ```
///
/// and reads the count with [`allocations`]. A count is per thread, so what
/// the test harness or a concurrently running test allocates on a thread of
/// its own never lands in a window.
pub struct CountingAlloc;

thread_local! {
    /// Allocations the thread has made. Constant-initialised and without a
    /// destructor, so the counter itself never allocates and is never torn
    /// down.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every call goes to `System` unchanged; counting touches no heap.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
}

/// `f`'s result and the allocations the calling thread made while it ran:
/// 0 unless the binary's global allocator is [`CountingAlloc`]. Work that
/// `f` hands to other threads is not counted.
pub fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The message `f` panics with.
    fn panic_message(f: impl FnOnce()) -> String {
        let cause = catch_unwind(AssertUnwindSafe(f)).expect_err("the property fails");
        cause
            .downcast_ref::<String>()
            .expect("a formatted message")
            .clone()
    }

    #[test]
    fn two_runs_hand_the_body_identical_draws() {
        let run = || {
            let mut seen = Vec::new();
            cases(16, |rng| {
                seen.push((
                    rng.next_u64(),
                    vec_of(rng, 0..5, |rng| rng.gen_range(0.0..1.0)),
                ));
            });
            seen
        };
        let first = run();
        assert_eq!(first.len(), 16);
        assert_eq!(first, run());
        // Distinct cases draw from distinct streams.
        assert_ne!(first[0].0, first[1].0);
    }

    #[test]
    fn a_failure_names_its_case_and_case_reruns_it() {
        // The value case 11 draws first: the property fails there and only there.
        let mut poison = 0;
        case(11, |rng| poison = rng.next_u64());
        let property = |rng: &mut Xoshiro256PlusPlus| {
            let x = rng.next_u64();
            assert_ne!(x, poison, "drew the poisoned value");
        };
        let message = panic_message(|| cases(32, property));
        assert!(
            message.starts_with("case 11 of the property failed: "),
            "{message}"
        );
        assert!(message.contains("drew the poisoned value"), "{message}");
        assert_eq!(panic_message(|| case(11, property)), message);
        case(10, property);
        case(12, property);
    }

    #[test]
    fn zero_cases_run_nothing() {
        cases(0, |_| panic!("no case to run"));
    }
}
