//! Progress monitoring — the DiInt side of the architecture.
//!
//! "A set of Clients, each hosting the Disar Interface (DiInt) that allows
//! to set computational parameters and monitors the progress of the
//! elaborations" (§II). The master emits [`ProgressEvent`]s as EEBs move
//! through the pipeline; any [`ProgressMonitor`] can observe them. The
//! built-in [`RecordingMonitor`] collects a thread-safe event log suitable
//! for progress bars, audits, or the tests below.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// One lifecycle event of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub enum ProgressEvent {
    /// The portfolio was decomposed into EEBs.
    Decomposed {
        /// Number of type-B blocks.
        n_type_b: usize,
    },
    /// A computing unit started elaborating an EEB.
    EebStarted {
        /// EEB index within the type-B list.
        eeb: usize,
        /// Computing-unit index.
        unit: usize,
    },
    /// A computing unit finished an EEB.
    EebCompleted {
        /// EEB index within the type-B list.
        eeb: usize,
        /// Computing-unit index.
        unit: usize,
    },
    /// All partial results were gathered and combined.
    Gathered,
}

/// Observer of simulation progress. Implementations must be cheap and
/// non-blocking: events are emitted from worker threads.
pub trait ProgressMonitor: Send + Sync {
    /// Called for every lifecycle event, in per-unit order (cross-unit
    /// interleaving is scheduling-dependent).
    fn on_event(&self, event: ProgressEvent);
}

/// A monitor that ignores everything (the default).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopMonitor;

impl ProgressMonitor for NoopMonitor {
    fn on_event(&self, _event: ProgressEvent) {}
}

/// A monitor that records every event in arrival order.
#[derive(Debug, Default)]
pub struct RecordingMonitor {
    events: Mutex<Vec<ProgressEvent>>,
}

impl RecordingMonitor {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The event log, also after a thread panicked while holding it: the
    /// only update is `push`, which leaves the `Vec` valid at every step, so
    /// a worker's panic must not become a second one in whoever asks next.
    fn log(&self) -> MutexGuard<'_, Vec<ProgressEvent>> {
        self.events.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Snapshot of the events recorded so far.
    pub fn events(&self) -> Vec<ProgressEvent> {
        self.log().clone()
    }

    /// Number of completed EEBs observed so far — a progress fraction's
    /// numerator.
    pub fn completed(&self) -> usize {
        self.log()
            .iter()
            .filter(|e| matches!(e, ProgressEvent::EebCompleted { .. }))
            .count()
    }
}

impl ProgressMonitor for RecordingMonitor {
    fn on_event(&self, event: ProgressEvent) {
        self.log().push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_keeps_order_and_counts() {
        let m = RecordingMonitor::new();
        m.on_event(ProgressEvent::Decomposed { n_type_b: 2 });
        m.on_event(ProgressEvent::EebStarted { eeb: 0, unit: 0 });
        m.on_event(ProgressEvent::EebCompleted { eeb: 0, unit: 0 });
        m.on_event(ProgressEvent::Gathered);
        assert_eq!(m.completed(), 1);
        let ev = m.events();
        assert_eq!(ev.len(), 4);
        assert_eq!(ev[0], ProgressEvent::Decomposed { n_type_b: 2 });
        assert_eq!(ev[3], ProgressEvent::Gathered);
    }

    #[test]
    fn recorder_is_threadsafe() {
        let m = std::sync::Arc::new(RecordingMonitor::new());
        let handles: Vec<_> = (0..8)
            .map(|u| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for e in 0..50 {
                        m.on_event(ProgressEvent::EebStarted { eeb: e, unit: u });
                        m.on_event(ProgressEvent::EebCompleted { eeb: e, unit: u });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("no panics");
        }
        assert_eq!(m.completed(), 400);
        assert_eq!(m.events().len(), 800);
    }

    #[test]
    fn recorder_answers_after_a_holder_panicked() {
        let m = std::sync::Arc::new(RecordingMonitor::new());
        m.on_event(ProgressEvent::EebCompleted { eeb: 0, unit: 0 });
        let held = m.clone();
        let worker = std::thread::spawn(move || {
            let _guard = held.events.lock().expect("first holder");
            panic!("worker dies holding the recorder");
        });
        assert!(worker.join().is_err());
        assert!(m.events.is_poisoned());
        m.on_event(ProgressEvent::Gathered);
        assert_eq!(m.completed(), 1);
        assert_eq!(m.events().len(), 2);
    }

    #[test]
    fn noop_is_free() {
        NoopMonitor.on_event(ProgressEvent::Gathered);
    }
}
