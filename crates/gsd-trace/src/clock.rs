//! The workspace's single wall-clock access point.
//!
//! GraphSD's determinism story depends on knowing exactly where wall-clock
//! time enters the system: a [`crate::TraceEvent`] stream or an I/O figure
//! computed from the SimDisk virtual clock must not silently depend on
//! host timing. `clippy.toml` therefore bans `std::time::Instant` /
//! `SystemTime` everywhere (DESIGN.md §11) and this module carries the one
//! exception; everything else — engines, the bench harness, tests —
//! measures elapsed time through the [`Stopwatch`] defined here. The
//! stopwatch only ever produces *durations* — host timestamps never leak
//! into traced state, so virtual-clock runs stay reproducible while
//! wall-clock observability (I/O wait, kernel times, request latency
//! histograms) keeps working.

#![expect(
    clippy::disallowed_types,
    reason = "the workspace's single wall-clock access point; everything else measures through Stopwatch/timed"
)]

use std::time::{Duration, Instant};

/// A started wall-clock timer; the only way first-party code reads the
/// host clock.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts a stopwatch now.
    pub fn start() -> Self {
        Stopwatch {
            started: Instant::now(),
        }
    }

    /// Wall time elapsed since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Elapsed nanoseconds, saturated to `u64` (585 years) for histogram
    /// recording.
    pub fn elapsed_nanos(&self) -> u64 {
        u64::try_from(self.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Runs `f` and adds its wall time to `elapsed`, returning `f`'s value.
/// The building block of the `*_timed` kernel wrappers and the engines'
/// I/O-wait accounting.
pub fn timed<T>(elapsed: &mut Duration, f: impl FnOnce() -> T) -> T {
    let sw = Stopwatch::start();
    let out = f();
    *elapsed += sw.elapsed();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_measures_forward_time() {
        let sw = Stopwatch::start();
        let spin = Stopwatch::start();
        while spin.elapsed() < Duration::from_micros(50) {
            std::hint::spin_loop();
        }
        assert!(sw.elapsed() >= Duration::from_micros(50));
        assert!(sw.elapsed_nanos() >= 50_000);
    }

    #[test]
    fn timed_accumulates_and_returns() {
        let mut total = Duration::ZERO;
        let v = timed(&mut total, || 42);
        assert_eq!(v, 42);
        let before = total;
        let v2 = timed(&mut total, || "x");
        assert_eq!(v2, "x");
        assert!(total >= before);
    }
}
