//! Waiting for the host to stop taking the CPU away.
//!
//! The sandbox is a guest with two cores of a shared host. A few times
//! an hour another tenant gets busy for a minute or two and the
//! hypervisor takes time slices of about 10 ms from this guest, a
//! quarter to a third of its time in all. Every timed unit of 0.4 s or
//! more gets its share, so the medians of invocations that fall into
//! such a minute are 25–35 % high, and three of those in a set of ten
//! push a workload's spread past any bound (RESULTS.md has the runs).
//!
//! What can be seen from inside: a fixed piece of work of about 1 ms,
//! repeated, takes the same time every time on a quiet host, and eleven
//! times as long whenever a slice is taken during it. So before every
//! timed unit the benchmark glances at thirty-two such samples, and when
//! time was lost in them it sleeps and looks again, for longer, until the
//! host is quiet or the waiting budget is spent. Waiting is never timed
//! and costs no CPU. It is bounded per invocation and per checkout (a
//! ledger file under `out/`), so that a host that is never quiet costs a
//! known amount of time and nothing else.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Dependent multiply-adds per sample: about 1 ms.
const SAMPLE_OPS: u64 = 700_000;
/// Samples of a glance before each unit, and the share of their time
/// that may be lost: one 10 ms slice in 32 ms is 0.3. On a quiet host
/// one glance in a thousand loses that much.
const GLANCE: usize = 32;
const GLANCE_LOSS: f64 = 0.25;
/// Samples of a look while waiting, and the loss that counts as quiet:
/// nine looks in ten lose less on a quiet host, none inside a busy minute.
const LOOK: usize = 200;
const LOOK_LOSS: f64 = 0.05;
/// Seconds one invocation may wait, and all invocations of a checkout.
const PER_INVOCATION_S: f64 = 45.0;
const PER_CHECKOUT_S: f64 = 400.0;

fn sample() -> f64 {
    let started = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..SAMPLE_OPS {
        x = black_box(x)
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(i);
    }
    black_box(x);
    started.elapsed().as_secs_f64()
}

/// The share of the samples' time that went somewhere else: what they
/// took beyond their count times their own median. A slower clock moves
/// every sample and loses nothing; a stolen slice moves one sample by a
/// lot.
fn lost_share(samples: &[f64]) -> f64 {
    let expected = crate::stats::median(samples) * samples.len() as f64;
    (samples.iter().sum::<f64>() - expected) / expected
}

fn lost(n: usize) -> f64 {
    lost_share(&(0..n).map(|_| sample()).collect::<Vec<_>>())
}

pub struct Quiet {
    /// Seconds this invocation may still wait.
    budget_s: f64,
    waited_s: f64,
    pauses: u32,
    ledger: PathBuf,
}

impl Quiet {
    /// `out_dir` holds the checkout's ledger of seconds waited so far.
    pub fn new(out_dir: &Path) -> Self {
        let ledger = out_dir.join("quiet_waited_s");
        let spent: f64 = std::fs::read_to_string(&ledger)
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(0.0);
        Quiet {
            budget_s: PER_INVOCATION_S.min(PER_CHECKOUT_S - spent).max(0.0),
            waited_s: 0.0,
            pauses: 0,
            ledger,
        }
    }

    /// Returns when the host looks quiet, or the budget is spent; how
    /// long that took.
    pub fn wait(&mut self) -> Duration {
        let started = Instant::now();
        if self.waited_s >= self.budget_s || lost(GLANCE) <= GLANCE_LOSS {
            return started.elapsed();
        }
        self.pauses += 1;
        loop {
            std::thread::sleep(Duration::from_secs(1));
            let so_far = self.waited_s + started.elapsed().as_secs_f64();
            if so_far >= self.budget_s || lost(LOOK) <= LOOK_LOSS {
                break;
            }
        }
        self.waited_s += started.elapsed().as_secs_f64();
        started.elapsed()
    }
}

impl Drop for Quiet {
    fn drop(&mut self) {
        if self.pauses == 0 {
            return;
        }
        eprintln!(
            "waited {:.1} s in {} pauses for the host to be quiet",
            self.waited_s, self.pauses
        );
        let spent: f64 = std::fs::read_to_string(&self.ledger)
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(0.0);
        // A ledger that cannot be written only means more waiting later.
        let _ = std::fs::write(&self.ledger, format!("{}\n", spent + self.waited_s));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_spent_ledger_means_no_waiting() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/quiet_test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("quiet_waited_s"), format!("{PER_CHECKOUT_S}\n")).unwrap();
        let mut quiet = Quiet::new(&dir);
        assert_eq!(quiet.budget_s, 0.0);
        assert!(quiet.wait() < Duration::from_millis(100));
        assert_eq!(quiet.pauses, 0);
        drop(quiet);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_stolen_slice_shows_and_a_slower_clock_does_not() {
        assert!(lost_share(&[1.0; 16]).abs() < 1e-12);
        assert!(lost_share(&[1.3; 16]).abs() < 1e-12);
        let mut samples = [1.0; GLANCE];
        samples[5] = 11.0;
        assert!((lost_share(&samples) - 10.0 / GLANCE as f64).abs() < 1e-12);
        assert!(lost_share(&samples) > GLANCE_LOSS);
        let one = sample();
        assert!(one > 1e-4 && one < 2e-2, "one sample took {one} s");
    }
}
