//! Sample statistics and the computed device-time formula.

use graphsd::io::IoStatsSnapshot;

/// Median of `samples` (mean of the two middle values for an even
/// count). Panics on an empty slice: every caller times at least one
/// operation before asking.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The `q`-quantile (nearest rank, `0 < q <= 1`) of `samples`.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile of `n` samples that still has at least ten
/// samples beyond it, as a quantile in `(0.5, 1)`; `None` below 20
/// samples, where the median is all the sample supports.
pub fn tail_quantile(n: usize) -> Option<f64> {
    (n >= 20).then(|| 1.0 - 10.0 / n as f64)
}

/// Seconds an HDD like the paper's would spend on this traffic:
/// streaming at 160 MB/s, one 8 ms seek per discontiguous read, writes
/// at 140 MB/s — `DiskModel::hdd()`'s pricing applied to the accounted
/// counters. Computed, not measured: the sandbox serves the files from
/// its page cache.
pub fn hdd_io_s(io: &IoStatsSnapshot) -> f64 {
    io.read_bytes() as f64 / 160.0e6
        + io.rand_read_ops as f64 * 0.008
        + io.write_bytes as f64 / 140.0e6
}

/// First and third quartile of `samples` (nearest rank).
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    (percentile(samples, 0.25), percentile(samples, 0.75))
}

/// Smallest and largest of `samples`.
pub fn range(samples: &[f64]) -> (f64, f64) {
    samples
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        })
}

pub fn mb(bytes: u64) -> f64 {
    bytes as f64 / 1.0e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphsd::io::DiskModel;

    #[test]
    fn median_picks_the_middle() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(20), Some(0.5));
        assert_eq!(tail_quantile(1000), Some(0.99));
        let xs: Vec<f64> = (1..=300).map(f64::from).collect();
        let q = tail_quantile(xs.len()).unwrap();
        let beyond = xs.iter().filter(|&&x| x > percentile(&xs, q)).count();
        assert_eq!(beyond, 10);
    }

    #[test]
    fn hdd_formula_matches_the_disk_model() {
        let hdd = DiskModel::hdd();
        let io = IoStatsSnapshot {
            seq_read_bytes: 3 << 20,
            rand_read_bytes: 1 << 20,
            write_bytes: 2 << 20,
            seq_read_ops: 3,
            rand_read_ops: 4,
            write_ops: 2,
            ..IoStatsSnapshot::default()
        };
        // Three 1 MiB streamed reads, four 256 KiB seek-preceded reads,
        // two 1 MiB streamed writes, priced request by request.
        let priced = 3.0 * hdd.read_cost(1 << 20, false).as_secs_f64()
            + 4.0 * hdd.read_cost(256 << 10, true).as_secs_f64()
            + 2.0 * hdd.write_cost(1 << 20, false).as_secs_f64();
        assert!(
            (hdd_io_s(&io) - priced).abs() < 1e-6,
            "{} vs {priced}",
            hdd_io_s(&io)
        );
    }
}
