//! Data-parallel execution over independent work items.
//!
//! Type-B EEBs are "parallelized by distributing different work units on the
//! available computing nodes … each node computes concurrently average local
//! values, which are then suitably combined" (§III). In-process, the same
//! structure is a parallel map over independent items with a final gather;
//! this module provides it on std scoped threads with deterministic output
//! order (each worker owns a contiguous run of indices and the runs are
//! gathered in order, so the schedule cannot change the result). It is
//! shared by the ALM nested Monte Carlo, Algorithm 1's grid sweep, the
//! predictor retrain loop and the experiment drivers of `disar-bench`.

/// The library-wide default worker-thread count: one per core the process
/// may use ([`std::thread::available_parallelism`]), falling back to `1`
/// when the platform cannot report it.
///
/// Every parallel entry point in the workspace is bit-identical for any
/// thread count, so this only changes speed, never results; pass
/// `n_threads = 1` explicitly for the sequential escape hatch.
pub fn default_n_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Applies `f` to every index in `0..n_items` using up to `n_threads`
/// worker threads, returning results in index order.
///
/// `n_threads = 1` degrades to a plain sequential map (no threads spawned),
/// which keeps small workloads cheap.
///
/// # Panics
///
/// Panics if `n_threads == 0`, or if `f` panics on any item (the panic is
/// propagated).
///
/// # Example
///
/// ```
/// use disar_math::parallel::parallel_map;
///
/// let squares = parallel_map(8, 4, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
pub fn parallel_map<T, F>(n_items: usize, n_threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    parallel_map_mut(&mut vec![(); n_items], n_threads, |i, _| f(i))
}

/// Applies `f` to every element of `items` in place, using up to
/// `n_threads` worker threads, and returns the per-item results in index
/// order.
///
/// This is the mutable companion of [`parallel_map`]: each worker owns a
/// disjoint chunk of `items`, so `f` may freely mutate its element (e.g.
/// fitting one model of an ensemble). Results are written by index, so the
/// output — like the mutations — is independent of the thread schedule as
/// long as `f(i, item)` depends only on `i` and `*item`.
///
/// Worker `t` takes the `t`-th contiguous chunk of
/// `items.len().div_ceil(n_threads)` items. `n_threads = 1` degrades to a
/// plain sequential loop (no threads spawned).
///
/// # Panics
///
/// Panics if `n_threads == 0`, or if `f` panics on any item (the panic is
/// propagated).
///
/// # Example
///
/// ```
/// use disar_math::parallel::parallel_map_mut;
///
/// let mut xs = vec![1, 2, 3, 4];
/// let old = parallel_map_mut(&mut xs, 2, |i, x| {
///     let before = *x;
///     *x += i as i32;
///     before
/// });
/// assert_eq!(xs, vec![1, 3, 5, 7]);
/// assert_eq!(old, vec![1, 2, 3, 4]);
/// ```
pub fn parallel_map_mut<T, R, F>(items: &mut [T], n_threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    assert!(n_threads > 0, "n_threads must be positive");
    let n_items = items.len();
    let run = |base: usize, part: &mut [T]| -> Vec<R> {
        part.iter_mut()
            .enumerate()
            .map(|(off, item)| f(base + off, item))
            .collect()
    };
    if n_threads == 1 || n_items <= 1 {
        return run(0, items);
    }
    let chunk = n_items.div_ceil(n_threads.min(n_items));
    std::thread::scope(|s| {
        let run = &run;
        let workers: Vec<_> = items
            .chunks_mut(chunk)
            .enumerate()
            .map(|(t, part)| s.spawn(move || run(t * chunk, part)))
            .collect();
        let mut results = Vec::with_capacity(n_items);
        for w in workers {
            results.extend(w.join().expect("worker thread panicked"));
        }
        results
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn default_threads_is_positive() {
        assert!(default_n_threads() >= 1);
    }

    #[test]
    fn matches_sequential_map() {
        let seq: Vec<usize> = (0..100).map(|i| i * 3 + 1).collect();
        for threads in [1, 2, 3, 8, 100, 200] {
            let par = parallel_map(100, threads, |i| i * 3 + 1);
            assert_eq!(par, seq, "threads = {threads}");
        }
    }

    #[test]
    fn empty_input() {
        let v: Vec<u32> = parallel_map(0, 4, |_| unreachable!());
        assert!(v.is_empty());
    }

    #[test]
    fn every_item_computed_exactly_once() {
        let counter = AtomicUsize::new(0);
        let v = parallel_map(1000, 7, |i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
        assert_eq!(v.len(), 1000);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i);
        }
    }

    #[test]
    fn actually_uses_multiple_threads() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let ids = Mutex::new(HashSet::new());
        parallel_map(64, 4, |i| {
            ids.lock().unwrap().insert(std::thread::current().id());
            i
        });
        assert!(ids.lock().unwrap().len() > 1, "expected >1 worker thread");
    }

    #[test]
    #[should_panic(expected = "n_threads must be positive")]
    fn zero_threads_panics() {
        let _ = parallel_map(4, 0, |i| i);
    }

    #[test]
    #[should_panic(expected = "worker thread panicked")]
    fn worker_panic_propagates() {
        let _ = parallel_map(8, 4, |i| {
            assert!(i != 5, "item 5 fails");
            i
        });
    }

    #[test]
    fn map_mut_matches_sequential_for_any_thread_count() {
        let expect_items: Vec<i64> = (0..97).map(|i| i * 2 + 5).collect();
        let expect_results: Vec<i64> = (0..97).collect();
        for threads in [1, 2, 3, 8, 97, 200] {
            let mut items: Vec<i64> = (0..97).collect();
            let results = parallel_map_mut(&mut items, threads, |i, x| {
                let before = *x;
                *x = *x * 2 + 5;
                debug_assert_eq!(before, i as i64);
                before
            });
            assert_eq!(items, expect_items, "threads = {threads}");
            assert_eq!(results, expect_results, "threads = {threads}");
        }
    }

    #[test]
    fn map_mut_empty_and_singleton() {
        let mut empty: Vec<u8> = Vec::new();
        let r: Vec<u8> = parallel_map_mut(&mut empty, 4, |_, _| unreachable!());
        assert!(r.is_empty());

        let mut one = vec![10u32];
        let r = parallel_map_mut(&mut one, 4, |i, x| {
            *x += 1;
            i
        });
        assert_eq!(one, vec![11]);
        assert_eq!(r, vec![0]);
    }

    #[test]
    fn map_mut_touches_every_item_exactly_once() {
        let counter = AtomicUsize::new(0);
        let mut items = vec![0usize; 500];
        parallel_map_mut(&mut items, 6, |i, x| {
            counter.fetch_add(1, Ordering::Relaxed);
            *x = i;
        });
        assert_eq!(counter.load(Ordering::Relaxed), 500);
        for (i, x) in items.iter().enumerate() {
            assert_eq!(*x, i);
        }
    }

    #[test]
    #[should_panic(expected = "n_threads must be positive")]
    fn map_mut_zero_threads_panics() {
        let mut items = vec![1, 2];
        let _ = parallel_map_mut(&mut items, 0, |_, x| *x);
    }
}
