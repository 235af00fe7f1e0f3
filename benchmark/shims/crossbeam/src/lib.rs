//! Stand-in for `crossbeam`: only `thread::scope`, over `std::thread::scope`.

pub mod thread {
    use std::any::Any;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    type Panic = Box<dyn Any + Send + 'static>;

    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    pub struct ScopedJoinHandle<'scope, T>(std::thread::ScopedJoinHandle<'scope, T>);

    impl<T> ScopedJoinHandle<'_, T> {
        pub fn join(self) -> Result<T, Panic> {
            self.0.join()
        }
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// As in crossbeam, the closure receives the scope so it can spawn
        /// further threads.
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self.inner;
            ScopedJoinHandle(inner.spawn(move || f(&Scope { inner })))
        }
    }

    /// Runs `f`, joins every thread it spawned, and returns `Err` with the
    /// panic payload if `f` or a thread whose handle was not joined panicked
    /// (crossbeam's contract; `std::thread::scope` alone would re-panic).
    pub fn scope<'env, F, R>(f: F) -> Result<R, Panic>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        catch_unwind(AssertUnwindSafe(|| {
            std::thread::scope(|s| f(&Scope { inner: s }))
        }))
    }
}
