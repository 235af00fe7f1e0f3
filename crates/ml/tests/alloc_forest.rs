//! Counting-allocator gate for a forest fit and a forest's partial fit.
//!
//! The trees of a forest share one view of the data and one set of buffers:
//! the bag list, the split search's keys, buckets and spill, and the arena a
//! tree grows in. What a tree allocates of its own is then what it keeps, an
//! exact-size copy of its arena and its importances, so a forest fit may
//! allocate at most two times per tree more than one tree's fit on the same
//! rows, which builds the same view and buffers. A partial fit keeps every
//! tree whose bag gained no row, which allocates nothing, and regrows the
//! others in the importances they hold, so each allocates only its arena's
//! copy: one time per regrown tree more than one tree's fit at most. With
//! about a third of the trees kept, a kept tree that allocated would break
//! that bound.
//!
//! The counts are per thread (`disar_math::check::CountingAlloc`): a fit
//! runs on the test's own thread, and what the test harness allocates on
//! its threads never lands in a window. What keeps a count clean is that
//! nothing else runs on the test's thread while a window is open; a second
//! `#[test]` in this file would run on a thread of its own.

use disar_math::check::{allocations, CountingAlloc};
use disar_math::rng::{split_seed, splitmix64, stream_rng};
use disar_ml::{Dataset, IncrementalRegressor, RandomForest, RandomTree, Regressor};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The trees of a forest (Weka's default).
const TREES: usize = 100;

/// 100 rows shaped like a knowledge base's: a job's two varying columns,
/// four that never vary, an instance type's three, and a node count.
fn knowledge_base_rows() -> Dataset {
    const TYPES: [(f64, f64, f64); 3] = [(16.0, 1.0, 64.0), (32.0, 1.06, 60.0), (36.0, 1.18, 60.0)];
    let names = (0..10).map(|j| format!("c{j}")).collect();
    let mut d = Dataset::new(names);
    let mut rng = stream_rng(3, 0xA110C);
    for _ in 0..100 {
        let contracts = 150.0 + 75.0 * rng.gen_range(0..12usize) as f64;
        let (vcpus, speed, mem) = TYPES[rng.gen_range(0..3usize)];
        let nodes = rng.gen_range(1..=8usize) as f64;
        let secs = 40.0 + 0.4 * contracts / (vcpus * speed * nodes).powf(0.85);
        let row = [
            contracts, 20.0, 40.0, 2.0, 1000.0, 50.0, vcpus, speed, mem, nodes,
        ];
        d.push(row.to_vec(), secs).expect("finite row");
    }
    d
}

#[test]
fn a_forest_fit_allocates_at_most_two_times_per_tree() {
    let data = knowledge_base_rows();
    let mut tree = RandomTree::new(7);
    let ((), one_tree) = allocations(|| tree.fit(&data).expect("non-empty data"));
    let mut rf = RandomForest::new(7);
    let ((), forest) = allocations(|| rf.fit(&data).expect("non-empty data"));
    assert!(rf.predict(data.get(0).0).expect("fitted").is_finite());
    assert!(
        forest <= one_tree + 2 * TREES,
        "{TREES} trees allocated {forest} times, one tree's fit {one_tree}"
    );

    // The last row appended to the other 99.
    let head = data.filter(|i| i < 99);
    let mut rf = RandomForest::new(7);
    rf.fit(&head).expect("non-empty data");
    let ((), partial) = allocations(|| {
        rf.partial_fit(&data, 99)
            .expect("the base grew by appending")
    });
    assert!(rf.predict(data.get(99).0).expect("fitted").is_finite());
    // Row 99 joins the bag of tree `t` unless its Poisson(1) count is 0: unless
    // output 99 of the SplitMix64 stream seeded with the tree's seed falls
    // below e⁻¹ · 2⁶⁴.
    let joins = |t: u64| {
        let mut state = split_seed(7, t).wrapping_add(99u64.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        splitmix64(&mut state) as f64 >= (-1.0f64).exp() * 2f64.powi(64)
    };
    let regrown = (0..TREES as u64).filter(|&t| joins(t)).count();
    assert!(
        0 < regrown && regrown < TREES,
        "{regrown} of {TREES} trees regrow"
    );
    assert!(
        partial <= one_tree + regrown,
        "{regrown} of {TREES} trees regrown, a partial fit allocated {partial} times, \
         one tree's fit {one_tree}"
    );
}
