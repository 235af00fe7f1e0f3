//! The std-only stand-ins are this benchmark's code: the behaviour the
//! workspace relies on is pinned here. (`rand`'s is in `src/jobs.rs`, next to
//! the generator that uses it.)

use serde::{Deserialize, Serialize};
use std::sync::Arc;

#[test]
fn scope_joins_workers_and_returns_the_closure_value() {
    let mut slots = [0u32; 4];
    let sum = crossbeam::thread::scope(|s| {
        for (i, slot) in slots.iter_mut().enumerate() {
            s.spawn(move |_| *slot = i as u32 + 1);
        }
        let handle = s.spawn(|inner| inner.spawn(|_| 20).join().unwrap() + 1);
        handle.join().unwrap()
    })
    .expect("no worker panicked");
    assert_eq!(sum, 21);
    assert_eq!(slots, [1, 2, 3, 4]);
}

#[test]
fn scope_surfaces_a_worker_panic_as_err() {
    let result = crossbeam::thread::scope(|s| {
        s.spawn(|_| panic!("worker died"));
        7
    });
    assert!(
        result.is_err(),
        "an unjoined panicking worker must not be lost"
    );

    // A panic taken through `join` is the caller's to handle; the scope is fine.
    let result = crossbeam::thread::scope(|s| s.spawn(|_| panic!("joined")).join().is_err());
    assert_eq!(result.ok(), Some(true));
}

#[test]
fn mutex_does_not_poison() {
    let m = Arc::new(parking_lot::Mutex::new(1));
    let m2 = Arc::clone(&m);
    let _ = std::thread::spawn(move || {
        let _guard = m2.lock();
        panic!("while holding the lock");
    })
    .join();
    *m.lock() += 1;
    assert_eq!(*m.lock(), 2);
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(transparent)]
struct Wrapper(#[serde(default)] u32);

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Shape<T> {
    #[serde(rename = "dot")]
    Dot,
    Line {
        #[serde(default, skip)]
        len: T,
    },
}

#[test]
fn derives_accept_serde_attributes_and_json_is_a_typed_failure() {
    let err = serde_json::to_string(&Wrapper(3)).unwrap_err();
    assert!(err.is_unavailable());
    assert!(err.to_string().contains("unavailable"));
    assert!(serde_json::to_string_pretty(&Shape::Line { len: 2.0 }).is_err());
    assert!(serde_json::from_str::<Shape<f64>>("\"dot\"").is_err());
    assert!(serde_json::to_value(Shape::<u8>::Dot).is_err());
    assert!(serde_json::from_value::<Wrapper>(serde_json::Value).is_err());
}
