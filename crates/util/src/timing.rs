//! Wall-clock timing and run statistics for the experiment harness.
//!
//! The paper runs every configuration three times "to capture some of the
//! variability"; [`RunStats`] aggregates such repeated measurements.

use std::time::{Duration, Instant};

/// A simple scope timer.
#[derive(Debug)]
pub struct Timer {
    start: Instant,
}

impl Timer {
    /// Starts timing now.
    pub fn start() -> Self {
        Timer {
            start: Instant::now(),
        }
    }

    /// Elapsed time since start.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed seconds since start.
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed().as_secs_f64()
    }
}

/// Times a closure, returning its result and the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Timer::start();
    let out = f();
    (out, t.elapsed_secs())
}

/// Monotonic tick source for the trace recorder: integer nanoseconds since
/// the clock's own epoch (its construction). Spans stamped by one clock are
/// directly comparable; ticks from different clocks are not. Reading the
/// clock never allocates, so recorders may stamp ticks in steady state.
#[derive(Debug, Clone, Copy)]
pub struct TickClock {
    epoch: Instant,
}

impl TickClock {
    /// A clock whose epoch is now.
    pub fn new() -> Self {
        TickClock {
            epoch: Instant::now(),
        }
    }

    /// Nanoseconds elapsed since the epoch. Saturates at `u64::MAX`
    /// (about 584 years), which no detection run reaches.
    pub fn ticks(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

impl Default for TickClock {
    fn default() -> Self {
        TickClock::new()
    }
}

/// Min / median / max / mean over repeated runs (seconds or any metric).
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Sorted samples.
    pub samples: Vec<f64>,
}

impl RunStats {
    /// Builds stats from raw samples (sorts them).
    pub fn new(mut samples: Vec<f64>) -> Self {
        // analyze: allow(panic, reason = "bench-harness stats: a NaN timing sample is a bug worth dying on")
        samples.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        RunStats { samples }
    }

    /// Smallest sample.
    pub fn min(&self) -> f64 {
        // analyze: allow(panic, reason = "documented contract: stats over zero samples are a caller bug")
        *self.samples.first().expect("empty RunStats")
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        // analyze: allow(panic, reason = "documented contract: stats over zero samples are a caller bug")
        *self.samples.last().expect("empty RunStats")
    }

    /// Median sample.
    pub fn median(&self) -> f64 {
        let n = self.samples.len();
        assert!(n > 0, "empty RunStats");
        if n % 2 == 1 {
            self.samples[n / 2]
        } else {
            0.5 * (self.samples[n / 2 - 1] + self.samples[n / 2])
        }
    }

    /// Arithmetic mean of the samples.
    pub fn mean(&self) -> f64 {
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_odd() {
        let s = RunStats::new(vec![3.0, 1.0, 2.0]);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.median(), 2.0);
        assert_eq!(s.max(), 3.0);
        assert_eq!(s.mean(), 2.0);
    }

    #[test]
    fn stats_even() {
        let s = RunStats::new(vec![4.0, 1.0, 2.0, 3.0]);
        assert_eq!(s.median(), 2.5);
    }

    #[test]
    fn timed_returns_result() {
        let (v, secs) = timed(|| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
    }

    #[test]
    fn tick_clock_is_monotonic_from_its_epoch() {
        let clock = TickClock::new();
        let a = clock.ticks();
        let b = clock.ticks();
        assert!(b >= a);
    }
}
