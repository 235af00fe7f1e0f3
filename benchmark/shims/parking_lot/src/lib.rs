//! Stand-in for `parking_lot`: the one type the workspace uses, a `Mutex`
//! whose `lock` returns the guard directly and ignores poisoning.

use std::sync::{self, MutexGuard};

#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|p| p.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Like `parking_lot`, a panic while the lock was held does not poison it.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|p| p.into_inner())
    }
}
