//! Shared statistics counters and power-of-two-bucket histograms.
//!
//! [`Counter`] is the workspace's one atomic: every shared statistic (the
//! I/O, verification and fault-injection counters, the ring recorder's
//! drop count, the temp-dir sequence) is one. [`HistogramSnapshot`] is a
//! single-owner power-of-two histogram the trace fold records its
//! distributions into.

use serde::{Serialize, Value};

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

/// The bucket a sample lands in: its bit length, so `v == 0` lands in
/// bucket 0 and `v` in `[2^(k-1), 2^k)` in bucket `k` (65 buckets).
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

/// A power-of-two-bucket histogram over `u64` samples.
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
    /// Adds one sample.
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

/// A placeholder with no values. No backend keeps request histograms;
/// the type stays only because the frozen `benchmark/src/timed_storage.rs`
/// names it in its `Storage::counters` override (ROADMAP 1(d)).
pub enum CounterRegistry {}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(samples: impl IntoIterator<Item = u64>) -> HistogramSnapshot {
        let mut h = HistogramSnapshot::default();
        samples.into_iter().for_each(|v| h.record(v));
        h
    }

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let snap = hist([0, 1, 2, 3, 1024]);
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 1030);
        // 0 -> le 0; 1 -> le 1; 2,3 -> le 3; 1024 -> le 2047.
        assert_eq!(snap.buckets, vec![(0, 1), (1, 1), (3, 2), (2047, 1)]);
    }

    #[test]
    fn recording_order_does_not_change_the_histogram() {
        let samples = [1024, 0, 3, u64::MAX, 2, 1, u64::MAX, 700];
        let mut sorted = samples;
        sorted.sort_unstable();
        assert_eq!(hist(samples), hist(sorted));
    }

    #[test]
    fn quantiles_of_empty_histogram_are_none() {
        let snap = HistogramSnapshot::default();
        assert_eq!(snap.quantile(0.5), None);
        assert_eq!(snap.p50(), None);
        assert_eq!(snap.p95(), None);
        assert_eq!(snap.p99(), None);
        assert_eq!(snap.mean(), None);
    }

    #[test]
    fn quantiles_of_single_sample() {
        // Every quantile of a one-sample distribution is that sample's
        // bucket (le 1023), including the extremes.
        let snap = hist([1000]);
        assert_eq!(snap.quantile(0.0), Some(1023));
        assert_eq!(snap.p50(), Some(1023));
        assert_eq!(snap.p95(), Some(1023));
        assert_eq!(snap.p99(), Some(1023));
        assert_eq!(snap.quantile(1.0), Some(1023));
        assert_eq!(snap.mean(), Some(1000.0));
    }

    #[test]
    fn quantiles_walk_cumulative_buckets() {
        // 90 samples in the `le 15` bucket, 9 in `le 1023`, 1 at the top.
        let snap = hist(
            std::iter::repeat_n(10, 90)
                .chain(std::iter::repeat_n(600, 9))
                .chain([u64::MAX]),
        );
        assert_eq!(snap.count, 100);
        assert_eq!(snap.p50(), Some(15));
        assert_eq!(snap.quantile(0.90), Some(15));
        assert_eq!(snap.p95(), Some(1023));
        assert_eq!(snap.quantile(0.99), Some(1023));
        assert_eq!(snap.quantile(1.0), Some(u64::MAX));
    }

    #[test]
    fn top_bucket_holds_u64_max_without_overflow() {
        let snap = hist([u64::MAX, u64::MAX]);
        // The top bucket's inclusive upper bound is u64::MAX itself; the
        // sum wraps, but the quantile path must still return the sentinel
        // bound.
        assert_eq!(snap.buckets, vec![(u64::MAX, 2)]);
        assert_eq!(snap.p50(), Some(u64::MAX));
        assert_eq!(snap.p99(), Some(u64::MAX));
    }

    #[test]
    fn out_of_range_quantiles_are_clamped() {
        let snap = hist([4]);
        assert_eq!(snap.quantile(-1.0), snap.quantile(0.0));
        assert_eq!(snap.quantile(2.0), snap.quantile(1.0));
    }
}
