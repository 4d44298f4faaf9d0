//! Shared statistics counters and power-of-two-bucket histograms.
//!
//! [`Counter`] is the workspace's one atomic: every shared statistic (the
//! I/O, verification and fault-injection counters, the ring recorder's
//! drop count, the temp-dir sequence, each histogram cell) is one.
//! [`Histogram`] is the shared, lock-free histogram (one counter
//! increment per cell), named and owned by a [`CounterRegistry`];
//! [`HistogramSnapshot`] is its point-in-time copy and, through
//! [`HistogramSnapshot::record`], the single-owner form the trace fold
//! accumulates into.

use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

pub use counter::Counter;

#[expect(
    clippy::disallowed_types,
    reason = "the one atomic of the workspace: every shared statistic is a Counter"
)]
mod counter {
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A shared `u64` statistics counter.
    ///
    /// Every access is `Ordering::Relaxed`, and that is enough: the value
    /// is the counter's only state and publishes no other memory. Relaxed
    /// read-modify-writes of one atomic are still atomic and totally
    /// ordered, so no add is lost and [`Counter::add`] hands out distinct
    /// previous values. What `Relaxed` gives up is ordering against other
    /// memory, which a statistic never needs: totals are read after the
    /// measured work is joined, or shown as approximate while it runs. A
    /// value that must order other memory takes a lock; `clippy.toml`
    /// bans the raw atomic types everywhere else.
    #[derive(Debug, Default)]
    pub struct Counter(AtomicU64);

    impl Counter {
        /// A counter at zero.
        pub const fn new() -> Self {
            Counter(AtomicU64::new(0))
        }

        /// Adds `n` (wrapping on overflow) and returns the value before
        /// the add.
        pub fn add(&self, n: u64) -> u64 {
            self.0.fetch_add(n, Ordering::Relaxed)
        }

        /// The current value.
        pub fn get(&self) -> u64 {
            self.0.load(Ordering::Relaxed)
        }

        /// Sets the counter back to zero.
        pub fn reset(&self) {
            self.0.store(0, Ordering::Relaxed);
        }
    }
}

/// Number of power-of-two buckets: bucket `k` counts values whose bit
/// length is `k`, i.e. `v == 0` lands in bucket 0 and `v` in
/// `[2^(k-1), 2^k)` lands in bucket `k`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// The bucket a sample lands in: its bit length.
fn bucket_of(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `k`.
fn bucket_upper(k: usize) -> u64 {
    match k {
        0 => 0,
        64 => u64::MAX,
        k => (1u64 << k) - 1,
    }
}

/// A fixed-bucket power-of-two histogram over `u64` samples.
pub struct Histogram {
    buckets: [Counter; HISTOGRAM_BUCKETS],
    count: Counter,
    sum: Counter,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| Counter::new()),
            count: Counter::new(),
            sum: Counter::new(),
        }
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].add(1);
        self.count.add(1);
        self.sum.add(value);
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.get()
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.get()
    }

    /// A point-in-time copy of the non-empty buckets.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (k, b) in self.buckets.iter().enumerate() {
            let n = b.get();
            if n > 0 {
                buckets.push((bucket_upper(k), n));
            }
        }
        HistogramSnapshot {
            buckets,
            count: self.count(),
            sum: self.sum(),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// `(inclusive_upper_bound, count)` for each non-empty bucket,
    /// ascending.
    pub buckets: Vec<(u64, u64)>,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Adds one sample: the single-owner counterpart of
    /// [`Histogram::record`], for a fold that owns its distributions.
    /// Recording the same samples either way gives equal snapshots.
    pub fn record(&mut self, value: u64) {
        let upper = bucket_upper(bucket_of(value));
        match self.buckets.binary_search_by_key(&upper, |&(le, _)| le) {
            Ok(k) => self.buckets[k].1 += 1,
            Err(k) => self.buckets.insert(k, (upper, 1)),
        }
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
    }

    /// Upper bound of the bucket containing the `q`-quantile sample
    /// (`0.0 <= q <= 1.0`), or `None` for an empty histogram.
    ///
    /// Power-of-two buckets only bound a sample's bit length, so the
    /// returned value is the bucket's inclusive upper bound — an
    /// over-estimate by at most 2×, which is the standard trade-off for
    /// constant-space histograms. `q` outside `[0, 1]` is clamped.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the quantile sample, 1-based: the smallest rank r with
        // r >= q * count (ceil), clamped into [1, count].
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(upper, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return Some(upper);
            }
        }
        // Bucket counts always sum to `count`, so the loop returns above;
        // fall back to the last bucket rather than panicking if they ever
        // disagree.
        self.buckets.last().map(|&(upper, _)| upper)
    }

    /// Median (50th percentile) bucket upper bound.
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 95th-percentile bucket upper bound.
    pub fn p95(&self) -> Option<u64> {
        self.quantile(0.95)
    }

    /// 99th-percentile bucket upper bound.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// Mean sample value, or `None` for an empty histogram. Exact (the
    /// histogram keeps the true sum), unlike the bucketed quantiles.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }
}

impl Serialize for HistogramSnapshot {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("count".to_string(), Value::U64(self.count)),
            ("sum".to_string(), Value::U64(self.sum)),
            (
                "buckets".to_string(),
                Value::Seq(
                    self.buckets
                        .iter()
                        .map(|(le, n)| {
                            Value::Map(vec![
                                ("le".to_string(), Value::U64(*le)),
                                ("n".to_string(), Value::U64(*n)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// A named collection of [`Histogram`]s, shared by reference with the hot
/// paths that record into it.
#[derive(Default)]
pub struct CounterRegistry {
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl CounterRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns (creating on first use) the histogram named `name`.
    /// Callers on hot paths should fetch once and cache the `Arc`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self
            .histograms
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(Histogram::new()))
            .clone()
    }

    /// Snapshots every histogram, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, HistogramSnapshot)> {
        let map = self
            .histograms
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        map.iter()
            .map(|(name, h)| (name.clone(), h.snapshot()))
            .collect()
    }
}

impl Serialize for CounterRegistry {
    fn to_value(&self) -> Value {
        Value::Map(
            self.snapshot()
                .into_iter()
                .map(|(name, snap)| (name, snap.to_value()))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        let snap = h.snapshot();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 1030);
        // 0 -> le 0; 1 -> le 1; 2,3 -> le 3; 1024 -> le 2047.
        assert_eq!(snap.buckets, vec![(0, 1), (1, 1), (3, 2), (2047, 1)]);
    }

    #[test]
    fn recording_into_a_snapshot_equals_snapshotting_a_histogram() {
        let h = Histogram::new();
        let mut snap = HistogramSnapshot::default();
        for v in [1024, 0, 3, u64::MAX, 2, 1, u64::MAX, 700] {
            h.record(v);
            snap.record(v);
        }
        assert_eq!(snap, h.snapshot());
    }

    #[test]
    fn quantiles_of_empty_histogram_are_none() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.quantile(0.5), None);
        assert_eq!(snap.p50(), None);
        assert_eq!(snap.p95(), None);
        assert_eq!(snap.p99(), None);
        assert_eq!(snap.mean(), None);
    }

    #[test]
    fn quantiles_of_single_sample() {
        let h = Histogram::new();
        h.record(1000); // bucket upper bound 1023
        let snap = h.snapshot();
        // Every quantile of a one-sample distribution is that sample's
        // bucket, including the extremes.
        assert_eq!(snap.quantile(0.0), Some(1023));
        assert_eq!(snap.p50(), Some(1023));
        assert_eq!(snap.p95(), Some(1023));
        assert_eq!(snap.p99(), Some(1023));
        assert_eq!(snap.quantile(1.0), Some(1023));
        assert_eq!(snap.mean(), Some(1000.0));
    }

    #[test]
    fn quantiles_walk_cumulative_buckets() {
        let h = Histogram::new();
        // 90 samples in the `le 15` bucket, 9 in `le 1023`, 1 at the top.
        for _ in 0..90 {
            h.record(10);
        }
        for _ in 0..9 {
            h.record(600);
        }
        h.record(u64::MAX);
        let snap = h.snapshot();
        assert_eq!(snap.count, 100);
        assert_eq!(snap.p50(), Some(15));
        assert_eq!(snap.quantile(0.90), Some(15));
        assert_eq!(snap.p95(), Some(1023));
        assert_eq!(snap.quantile(0.99), Some(1023));
        assert_eq!(snap.quantile(1.0), Some(u64::MAX));
    }

    #[test]
    fn top_bucket_holds_u64_max_without_overflow() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        let snap = h.snapshot();
        // The top bucket's inclusive upper bound is u64::MAX itself; the
        // sum wraps-by-saturation is not required (relaxed adds wrap), but
        // the quantile path must still return the sentinel bound.
        assert_eq!(snap.buckets, vec![(u64::MAX, 2)]);
        assert_eq!(snap.p50(), Some(u64::MAX));
        assert_eq!(snap.p99(), Some(u64::MAX));
    }

    #[test]
    fn out_of_range_quantiles_are_clamped() {
        let h = Histogram::new();
        h.record(4);
        let snap = h.snapshot();
        assert_eq!(snap.quantile(-1.0), snap.quantile(0.0));
        assert_eq!(snap.quantile(2.0), snap.quantile(1.0));
    }

    #[test]
    fn registry_reuses_histograms_and_serializes() {
        let reg = CounterRegistry::new();
        reg.histogram("read_bytes").record(100);
        reg.histogram("read_bytes").record(200);
        assert_eq!(reg.histogram("read_bytes").count(), 2);
        let json = serde_json::to_string(&reg).unwrap();
        assert!(json.contains("\"read_bytes\""));
        assert!(json.contains("\"count\":2"));
    }
}
