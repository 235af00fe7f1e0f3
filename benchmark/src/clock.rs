//! A reference clock for a machine whose speed changes under the benchmark.
//!
//! The shared two-core machines this runs on switch, every few seconds and
//! for minutes at a time, between speeds 28 % apart (whatever else the host
//! is doing changes the clock rate and the share of a core a virtual CPU
//! gets). An identical computation then reads 180 ms or 230 ms depending on
//! the moment, and no statistic of raw wall times taken inside one run holds
//! still from run to run. What does hold still is the ratio between the
//! program's time and the time of a fixed arithmetic loop run next to it.
//!
//! So the harness runs that loop (a "tick", about 2 ms) every few dozen
//! milliseconds of measured work, and divides each wall time by how much
//! slower than [`REFERENCE_TICK_S`] the ticks around it were. Times are
//! thereby reported in *reference milliseconds*: the time the work takes on
//! a machine that runs the loop in exactly the reference time, which is this
//! machine class at full speed. Ticks are never inside a timed interval.

use std::hint::black_box;
use std::time::Instant;

const LOOP_STEPS: u64 = 85_000;
const LOOPS_PER_TICK: usize = 4;
/// One loop at full speed on the machine class the baseline was taken on.
pub const REFERENCE_TICK_S: f64 = 0.000_490;

/// A dependent chain of square roots: its time follows the core's clock and
/// nothing else (no memory traffic, no branches to mispredict).
fn arithmetic_loop() -> f64 {
    let t = Instant::now();
    let mut x = 1.0f64;
    for i in 0..LOOP_STEPS {
        x = (x * 1.000_000_1 + i as f64).sqrt();
    }
    black_box(x);
    t.elapsed().as_secs_f64()
}

#[derive(Debug, Default)]
pub struct ReferenceClock {
    /// `(when it ended, slowdown)`, in time order.
    ticks: Vec<(Instant, f64)>,
}

impl ReferenceClock {
    pub fn new() -> Self {
        ReferenceClock::default()
    }

    /// Reads the machine's current slowdown: the fastest of a few loops, so a
    /// momentary disturbance of one of them does not pass for a slow clock.
    pub fn tick(&mut self) {
        let fastest = (0..LOOPS_PER_TICK)
            .map(|_| arithmetic_loop())
            .fold(f64::INFINITY, f64::min);
        self.ticks
            .push((Instant::now(), fastest / REFERENCE_TICK_S));
    }

    /// Ticks at least every 50 ms of whatever the caller is doing.
    pub fn tick_if_due(&mut self) {
        const PERIOD_S: f64 = 0.05;
        if self
            .ticks
            .last()
            .is_none_or(|(t, _)| t.elapsed().as_secs_f64() >= PERIOD_S)
        {
            self.tick();
        }
    }

    /// Slowdown over `[from, to]`: the mean of the last tick before it, the
    /// first after it and any in between. 1 when no tick was taken.
    pub fn slowdown(&self, from: Instant, to: Instant) -> f64 {
        let first = self
            .ticks
            .partition_point(|(t, _)| *t <= from)
            .saturating_sub(1);
        let last = (self.ticks.partition_point(|(t, _)| *t < to) + 1).min(self.ticks.len());
        let around = &self.ticks[first.min(last)..last];
        if around.is_empty() {
            return 1.0;
        }
        around.iter().map(|(_, s)| s).sum::<f64>() / around.len() as f64
    }

    /// Wall seconds of `[from, to]` in reference seconds.
    pub fn reference_secs(&self, from: Instant, to: Instant) -> f64 {
        (to - from).as_secs_f64() / self.slowdown(from, to)
    }

    /// Median slowdown over every tick: how far from full speed the machine
    /// was while this run measured.
    pub fn median_slowdown(&self) -> f64 {
        crate::stats::median(&self.ticks.iter().map(|(_, s)| *s).collect::<Vec<_>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn slowdown_is_the_mean_of_the_bracketing_ticks() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let clock = ReferenceClock {
            ticks: vec![(at(0), 1.0), (at(100), 1.2), (at(200), 1.4), (at(300), 2.0)],
        };
        // Inside one gap: the ticks on either side.
        assert!((clock.slowdown(at(110), at(190)) - 1.3).abs() < 1e-12);
        // Across a tick: that one too.
        assert!((clock.slowdown(at(50), at(250)) - 1.4).abs() < 1e-12);
        // Past the last tick: only the one before.
        assert!((clock.slowdown(at(310), at(320)) - 2.0).abs() < 1e-12);
        assert!((clock.reference_secs(at(110), at(190)) - 0.08 / 1.3).abs() < 1e-12);
        assert_eq!(ReferenceClock::new().slowdown(at(0), at(1)), 1.0);
    }

    #[test]
    fn a_tick_reads_a_positive_slowdown() {
        let mut clock = ReferenceClock::new();
        clock.tick();
        clock.tick_if_due();
        assert_eq!(clock.ticks.len(), 1);
        assert!(clock.median_slowdown() > 0.0);
    }
}
