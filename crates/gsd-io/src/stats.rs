//! Lock-free I/O accounting shared by every storage backend.
//!
//! The paper's evaluation reports three I/O-derived quantities: total I/O
//! traffic (Figure 7, Figure 9b), the disk-I/O share of execution time
//! (Figure 6) and the I/O time saved by the state-aware scheduler
//! (Figure 11). All of them are computed from the counters kept here.
//!
//! A read is classified **sequential** when it starts exactly where the
//! previous request on the same object ended (the head does not move) and
//! **random** otherwise. Classification is done mechanically by the backend
//! rather than trusted from caller hints, so baseline engines cannot
//! accidentally under-report seeks.

use gsd_trace::Counter;
use serde::{Deserialize, Serialize};

/// Monotonic I/O counters, each a [`Counter`]: they are statistically
/// aggregated, never used to order other memory between threads.
#[derive(Debug, Default)]
pub struct IoStats {
    seq_read_bytes: Counter,
    rand_read_bytes: Counter,
    write_bytes: Counter,
    seq_read_ops: Counter,
    rand_read_ops: Counter,
    write_ops: Counter,
    /// Virtual nanoseconds charged by a [`crate::SimDisk`] backend.
    /// Always zero for real backends (their cost is wall-clock time).
    sim_nanos: Counter,
}

impl IoStats {
    /// Creates a zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a sequential read of `bytes` bytes.
    pub fn record_seq_read(&self, bytes: u64) {
        self.seq_read_bytes.add(bytes);
        self.seq_read_ops.add(1);
    }

    /// Records a random (seek-preceded) read of `bytes` bytes.
    pub fn record_rand_read(&self, bytes: u64) {
        self.rand_read_bytes.add(bytes);
        self.rand_read_ops.add(1);
    }

    /// Records a write of `bytes` bytes.
    pub fn record_write(&self, bytes: u64) {
        self.write_bytes.add(bytes);
        self.write_ops.add(1);
    }

    /// Adds `nanos` of simulated device time to the virtual clock.
    pub fn add_sim_nanos(&self, nanos: u64) {
        self.sim_nanos.add(nanos);
    }

    /// Total bytes read (sequential + random).
    pub fn read_bytes(&self) -> u64 {
        self.seq_read_bytes.get() + self.rand_read_bytes.get()
    }

    /// Total bytes written.
    pub fn written_bytes(&self) -> u64 {
        self.write_bytes.get()
    }

    /// Total traffic: bytes read + bytes written. This is the quantity the
    /// paper plots as "I/O traffic" (Figure 7).
    pub fn total_traffic(&self) -> u64 {
        self.read_bytes() + self.written_bytes()
    }

    /// Simulated device time accumulated so far.
    pub fn sim_time(&self) -> std::time::Duration {
        std::time::Duration::from_nanos(self.sim_nanos.get())
    }

    /// Takes an immutable snapshot of all counters.
    pub fn snapshot(&self) -> IoStatsSnapshot {
        IoStatsSnapshot {
            seq_read_bytes: self.seq_read_bytes.get(),
            rand_read_bytes: self.rand_read_bytes.get(),
            write_bytes: self.write_bytes.get(),
            seq_read_ops: self.seq_read_ops.get(),
            rand_read_ops: self.rand_read_ops.get(),
            write_ops: self.write_ops.get(),
            sim_nanos: self.sim_nanos.get(),
        }
    }

    /// Resets every counter to zero. Used between experiment phases (e.g.
    /// to separate preprocessing traffic from execution traffic).
    pub fn reset(&self) {
        self.seq_read_bytes.reset();
        self.rand_read_bytes.reset();
        self.write_bytes.reset();
        self.seq_read_ops.reset();
        self.rand_read_ops.reset();
        self.write_ops.reset();
        self.sim_nanos.reset();
    }
}

/// A point-in-time copy of [`IoStats`], cheap to clone and serialize.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IoStatsSnapshot {
    /// Bytes read by requests classified sequential.
    pub seq_read_bytes: u64,
    /// Bytes read by requests classified random (preceded by a seek).
    pub rand_read_bytes: u64,
    /// Bytes written.
    pub write_bytes: u64,
    /// Number of sequential read operations.
    pub seq_read_ops: u64,
    /// Number of random read operations.
    pub rand_read_ops: u64,
    /// Number of write operations.
    pub write_ops: u64,
    /// Simulated device nanoseconds (zero on real backends).
    pub sim_nanos: u64,
}

impl IoStatsSnapshot {
    /// Total bytes read.
    pub fn read_bytes(&self) -> u64 {
        self.seq_read_bytes + self.rand_read_bytes
    }

    /// Total traffic (read + written bytes).
    pub fn total_traffic(&self) -> u64 {
        self.read_bytes() + self.write_bytes
    }

    /// Simulated device time.
    pub fn sim_time(&self) -> std::time::Duration {
        std::time::Duration::from_nanos(self.sim_nanos)
    }

    /// Counter-wise difference `self - earlier`; panics in debug builds if
    /// `earlier` is not actually earlier (counters are monotonic). Release
    /// builds saturate instead of wrapping, so a misordered pair (e.g.
    /// snapshots taken around a counter reset) yields zeros, not garbage.
    pub fn since(&self, earlier: &IoStatsSnapshot) -> IoStatsSnapshot {
        debug_assert!(self.seq_read_bytes >= earlier.seq_read_bytes);
        debug_assert!(self.rand_read_bytes >= earlier.rand_read_bytes);
        debug_assert!(self.write_bytes >= earlier.write_bytes);
        debug_assert!(self.seq_read_ops >= earlier.seq_read_ops);
        debug_assert!(self.rand_read_ops >= earlier.rand_read_ops);
        debug_assert!(self.write_ops >= earlier.write_ops);
        debug_assert!(self.sim_nanos >= earlier.sim_nanos);
        IoStatsSnapshot {
            seq_read_bytes: self.seq_read_bytes.saturating_sub(earlier.seq_read_bytes),
            rand_read_bytes: self.rand_read_bytes.saturating_sub(earlier.rand_read_bytes),
            write_bytes: self.write_bytes.saturating_sub(earlier.write_bytes),
            seq_read_ops: self.seq_read_ops.saturating_sub(earlier.seq_read_ops),
            rand_read_ops: self.rand_read_ops.saturating_sub(earlier.rand_read_ops),
            write_ops: self.write_ops.saturating_sub(earlier.write_ops),
            sim_nanos: self.sim_nanos.saturating_sub(earlier.sim_nanos),
        }
    }

    /// Counter-wise sum `self + other` — used to splice the I/O accounting
    /// of a resumed run onto the checkpointed totals of the interrupted
    /// one.
    pub fn plus(&self, other: &IoStatsSnapshot) -> IoStatsSnapshot {
        IoStatsSnapshot {
            seq_read_bytes: self.seq_read_bytes + other.seq_read_bytes,
            rand_read_bytes: self.rand_read_bytes + other.rand_read_bytes,
            write_bytes: self.write_bytes + other.write_bytes,
            seq_read_ops: self.seq_read_ops + other.seq_read_ops,
            rand_read_ops: self.rand_read_ops + other.rand_read_ops,
            write_ops: self.write_ops + other.write_ops,
            sim_nanos: self.sim_nanos + other.sim_nanos,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = IoStats::new();
        s.record_seq_read(100);
        s.record_seq_read(50);
        s.record_rand_read(7);
        s.record_write(30);
        assert_eq!(s.read_bytes(), 157);
        assert_eq!(s.written_bytes(), 30);
        assert_eq!(s.total_traffic(), 187);
        let snap = s.snapshot();
        assert_eq!(snap.seq_read_bytes, 150);
        assert_eq!(snap.rand_read_bytes, 7);
        assert_eq!(snap.seq_read_ops, 2);
        assert_eq!(snap.rand_read_ops, 1);
        assert_eq!(snap.write_ops, 1);
    }

    #[test]
    fn snapshot_since_subtracts() {
        let s = IoStats::new();
        s.record_seq_read(100);
        let a = s.snapshot();
        s.record_rand_read(11);
        s.record_write(5);
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.seq_read_bytes, 0);
        assert_eq!(d.rand_read_bytes, 11);
        assert_eq!(d.write_bytes, 5);
        assert_eq!(d.total_traffic(), 16);
    }

    #[test]
    fn reset_zeroes_everything() {
        let s = IoStats::new();
        s.record_seq_read(1);
        s.record_rand_read(2);
        s.record_write(3);
        s.add_sim_nanos(4);
        s.reset();
        assert_eq!(s.snapshot(), IoStatsSnapshot::default());
    }

    #[test]
    fn snapshot_roundtrips_through_serde_and_ignores_retired_fields() {
        let s = IoStats::new();
        s.record_seq_read(1);
        s.record_rand_read(2);
        s.record_write(3);
        s.add_sim_nanos(4);
        let snap = s.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        assert_eq!(
            serde_json::from_str::<IoStatsSnapshot>(&json).unwrap(),
            snap
        );
        // Snapshots persisted while the retry counters existed still load.
        let older = r#"{"seq_read_bytes":1,"rand_read_bytes":2,"write_bytes":3,
            "seq_read_ops":4,"rand_read_ops":5,"write_ops":6,"sim_nanos":7,
            "retried_ops":0,"gave_up_ops":0}"#;
        let snap: IoStatsSnapshot = serde_json::from_str(older).unwrap();
        assert_eq!(
            (snap.seq_read_bytes, snap.write_ops, snap.sim_nanos),
            (1, 6, 7)
        );
    }

    #[test]
    fn sim_time_converts_nanos() {
        let s = IoStats::new();
        s.add_sim_nanos(1_500_000_000);
        assert_eq!(s.sim_time(), std::time::Duration::from_millis(1500));
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "test: hammers the counters from eight threads"
    )]
    fn concurrent_updates_do_not_lose_counts() {
        let s = std::sync::Arc::new(IoStats::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    s.record_seq_read(1);
                    s.record_write(2);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.read_bytes(), 8000);
        assert_eq!(s.written_bytes(), 16000);
    }
}
