//! Run accounting: everything the paper's evaluation section plots.
//!
//! * Figure 5 / Table 4 — [`RunStats::execution_time`];
//! * Figure 6 — the [`RunStats::io_time`] vs [`RunStats::compute_time`]
//!   breakdown;
//! * Figure 7 / Figure 9b — [`RunStats::io`] traffic;
//! * Figure 10 — [`IterationStats`] per-iteration times and the chosen
//!   [`IoAccessModel`];
//! * Figure 11 — [`RunStats::scheduler_time`] (the benefit-evaluation
//!   overhead) against the I/O time it saves;
//! * Figure 12 — [`RunStats::buffer_hit_bytes`] (I/O avoided by the
//!   sub-block buffer).

use gsd_io::IoStatsSnapshot;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// The I/O access model the state-aware scheduler picked for an iteration
/// (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IoAccessModel {
    /// Selectively read only active vertices' edge lists (triggers SCIU).
    OnDemand,
    /// Stream entire sub-blocks (triggers FCIU, or plain streaming in
    /// engines without cross-iteration support).
    Full,
}

/// Accounting for one BSP iteration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IterationStats {
    /// 1-based iteration number.
    pub iteration: u32,
    /// The I/O access model used.
    pub model: IoAccessModel,
    /// Frontier size at the start of the iteration.
    pub frontier: u64,
    /// I/O counters consumed by this iteration.
    pub io: IoStatsSnapshot,
    /// Device time (simulated on `SimDisk`, measured otherwise).
    pub io_time: Duration,
    /// Scatter + apply wall time.
    pub compute_time: Duration,
    /// Wall time inside the scatter kernel (a component of
    /// `compute_time`).
    pub scatter_time: Duration,
    /// Wall time inside the apply kernel (a component of `compute_time`).
    pub apply_time: Duration,
    /// Wall time the engine blocked on storage requests. Unlike
    /// `io_time` this is always measured, never simulated, so it can be
    /// compared against the wall-clock phase timers.
    pub io_wait_time: Duration,
    /// Wall time the engine blocked on *scheduled* reads the prefetch
    /// pipeline had not finished (a component of `io_wait_time`; zero
    /// when prefetching is disabled).
    pub prefetch_stall_time: Duration,
    /// Whether this iteration's values were computed entirely by
    /// cross-iteration propagation (FCIU second pass reading only
    /// secondary sub-blocks, or an SCIU iteration fully pre-served).
    pub cross_iteration: bool,
}

/// Accounting for a whole run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunStats {
    /// Engine that produced the run.
    pub engine: String,
    /// Algorithm name.
    pub algorithm: String,
    /// BSP iterations executed (as observed by the program semantics).
    pub iterations: u32,
    /// Total scatter/apply wall time.
    pub compute_time: Duration,
    /// Total device time (simulated on `SimDisk`, measured otherwise).
    pub io_time: Duration,
    /// Time spent in the state-aware scheduler's benefit evaluation.
    pub scheduler_time: Duration,
    /// I/O traffic of the run.
    pub io: IoStatsSnapshot,
    /// Edges whose next-iteration work was served by cross-iteration
    /// propagation (I/O for them was avoided).
    pub cross_iter_edges: u64,
    /// Sub-block buffer hits.
    pub buffer_hits: u64,
    /// Bytes served from the sub-block buffer instead of storage.
    pub buffer_hit_bytes: u64,
    /// Scheduled reads the prefetch pipeline finished before the engine
    /// asked for them (zero when prefetching is disabled).
    pub prefetch_hits: u64,
    /// Scheduled reads the engine had to wait for because the pipeline
    /// had not finished them.
    pub prefetch_misses: u64,
    /// Total wall time the engine blocked on unfinished scheduled reads
    /// (sum of the per-iteration `prefetch_stall_time`).
    pub prefetch_stall_time: Duration,
    /// Bytes checksummed by verify-on-read (zero when verification is
    /// off; tracked apart from `io` so enabling verification never
    /// perturbs the traffic figures).
    pub verify_bytes: u64,
    /// Corruption detections during the run.
    pub corrupt_blocks: u64,
    /// Corrupt reads transparently recovered by bounded re-read.
    pub repaired_blocks: u64,
    /// Per-iteration detail.
    pub per_iteration: Vec<IterationStats>,
}

impl RunStats {
    /// Creates empty stats for an engine/algorithm pair.
    pub fn new(engine: impl Into<String>, algorithm: impl Into<String>) -> Self {
        RunStats {
            engine: engine.into(),
            algorithm: algorithm.into(),
            ..Default::default()
        }
    }

    /// Total modeled execution time: I/O + compute + scheduler overhead.
    /// (On a simulated disk this corresponds to the paper's end-to-end
    /// execution time with I/O and computation serialized, which is the
    /// regime direct I/O with a saturated disk produces.)
    pub fn execution_time(&self) -> Duration {
        self.io_time + self.compute_time + self.scheduler_time
    }

    /// Fraction of execution time spent in I/O (Figure 6's breakdown).
    pub fn io_fraction(&self) -> f64 {
        let total = self.execution_time().as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            self.io_time.as_secs_f64() / total
        }
    }

    /// Adds one iteration's detail, folding it into the totals.
    pub fn push_iteration(&mut self, iter: IterationStats) {
        self.iterations = self.iterations.max(iter.iteration);
        self.compute_time += iter.compute_time;
        self.io_time += iter.io_time;
        self.prefetch_stall_time += iter.prefetch_stall_time;
        self.per_iteration.push(iter);
    }

    /// Folds a verification-counter delta into the run totals.
    /// Additive, not assignment: engines fold several disjoint spans into
    /// one run (the main run span plus each checkpoint's traffic, or one
    /// delta per grid in dual-grid engines).
    pub fn fold_verify(&mut self, delta: &gsd_integrity::VerifyCounters) {
        self.verify_bytes += delta.verify_bytes;
        self.corrupt_blocks += delta.corrupt_blocks;
        self.repaired_blocks += delta.repaired_blocks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iter_stats(n: u32, io_ms: u64, cpu_ms: u64) -> IterationStats {
        IterationStats {
            iteration: n,
            model: IoAccessModel::Full,
            frontier: 10,
            io: IoStatsSnapshot::default(),
            io_time: Duration::from_millis(io_ms),
            compute_time: Duration::from_millis(cpu_ms),
            scatter_time: Duration::ZERO,
            apply_time: Duration::ZERO,
            io_wait_time: Duration::from_millis(io_ms),
            prefetch_stall_time: Duration::ZERO,
            cross_iteration: false,
        }
    }

    #[test]
    fn push_iteration_accumulates() {
        let mut s = RunStats::new("test", "pr");
        s.push_iteration(iter_stats(1, 100, 50));
        s.push_iteration(iter_stats(2, 200, 30));
        assert_eq!(s.iterations, 2);
        assert_eq!(s.io_time, Duration::from_millis(300));
        assert_eq!(s.compute_time, Duration::from_millis(80));
        assert_eq!(s.execution_time(), Duration::from_millis(380));
        assert_eq!(s.per_iteration.len(), 2);
    }

    #[test]
    fn io_fraction() {
        let mut s = RunStats::new("t", "a");
        s.push_iteration(iter_stats(1, 75, 25));
        assert!((s.io_fraction() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn io_fraction_of_empty_run_is_zero() {
        let s = RunStats::new("t", "a");
        assert_eq!(s.io_fraction(), 0.0);
    }

    #[test]
    fn push_iteration_totals_equal_per_iteration_sums() {
        // The folded run totals must equal the sums over `per_iteration`
        // for every folded field — the invariant `gsd report` relies on
        // when replaying a trace against RunStats.
        let mut s = RunStats::new("t", "a");
        let durations = [(1u32, 10u64, 7u64), (2, 0, 13), (3, 25, 0)];
        for (n, io_ms, cpu_ms) in durations {
            let mut it = iter_stats(n, io_ms, cpu_ms);
            it.prefetch_stall_time = Duration::from_millis(u64::from(n));
            s.push_iteration(it);
        }
        let io_sum: Duration = s.per_iteration.iter().map(|i| i.io_time).sum();
        let cpu_sum: Duration = s.per_iteration.iter().map(|i| i.compute_time).sum();
        let stall_sum: Duration = s.per_iteration.iter().map(|i| i.prefetch_stall_time).sum();
        assert_eq!(s.io_time, io_sum);
        assert_eq!(s.compute_time, cpu_sum);
        assert_eq!(s.prefetch_stall_time, stall_sum);
        assert_eq!(
            s.iterations,
            s.per_iteration.iter().map(|i| i.iteration).max().unwrap()
        );
    }

    #[test]
    fn io_fraction_guards_zero_duration_components() {
        // All-zero run: guarded to 0.0, not NaN.
        let s = RunStats::new("t", "a");
        assert_eq!(s.io_fraction(), 0.0);
        assert!(!s.io_fraction().is_nan());
        // Pure-compute run: fraction 0 with a nonzero denominator.
        let mut s = RunStats::new("t", "a");
        s.push_iteration(iter_stats(1, 0, 50));
        assert_eq!(s.io_fraction(), 0.0);
        // Pure-IO run: fraction 1.
        let mut s = RunStats::new("t", "a");
        s.push_iteration(iter_stats(1, 50, 0));
        assert!((s.io_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fold_verify_is_additive_across_spans() {
        use gsd_integrity::VerifyCounters;
        let mut s = RunStats::new("t", "a");
        s.fold_verify(&VerifyCounters {
            verify_bytes: 100,
            corrupt_blocks: 1,
            repaired_blocks: 1,
        });
        // A second span (e.g. checkpoint traffic) folds on top, never
        // overwrites.
        s.fold_verify(&VerifyCounters {
            verify_bytes: 40,
            corrupt_blocks: 0,
            repaired_blocks: 2,
        });
        assert_eq!(s.verify_bytes, 140);
        assert_eq!(s.corrupt_blocks, 1);
        assert_eq!(s.repaired_blocks, 3);
    }

    #[test]
    fn prefetch_counters_fold_additively_per_iteration() {
        // Engines add tracker hit/miss counts per iteration; the totals
        // are plain sums.
        let mut s = RunStats::new("t", "a");
        for (hits, misses) in [(3u64, 1u64), (0, 0), (5, 2)] {
            s.prefetch_hits += hits;
            s.prefetch_misses += misses;
        }
        assert_eq!(s.prefetch_hits, 8);
        assert_eq!(s.prefetch_misses, 3);
    }

    #[test]
    fn serializes_to_json() {
        let mut s = RunStats::new("gsd", "cc");
        s.push_iteration(iter_stats(1, 1, 1));
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains("\"engine\":\"gsd\""));
    }
}
