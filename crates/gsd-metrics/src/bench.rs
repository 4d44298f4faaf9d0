//! The schema-versioned `BENCH_*.json` report of `gsd bench`.
//!
//! `gsd bench` (`gsd_bench::wall::run_wall`) measures each engine ×
//! algorithm × dataset cell of one analytic run with
//! warmup/repeat/median-of-N discipline on real storage and serializes
//! the result here. One report is committed, `ci/bench_baseline.json`;
//! [`BenchReport::compare_deterministic`] gates CI and
//! `tests/bench_gate.rs` against it on the counters that are
//! reproducible across machines (bytes moved, read requests, iteration
//! counts, prefetch totals) while leaving wall times and RSS as
//! informational. Every field holds what its name says, for an analytic
//! run; nothing else writes this schema.

use serde::{DeError, Deserialize, Serialize, Value};

/// Version of the `BENCH_*.json` schema. Bump on any breaking change to
/// the field set; consumers must reject unknown major versions.
pub const BENCH_SCHEMA_VERSION: u64 = 2;

/// One benchmark cell: a (system, algorithm, dataset) triple measured
/// over `wall_us.len()` timed repeats.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// System label (`"GraphSD"`, `"HUS-Graph"`, ...).
    pub system: String,
    /// Algorithm label (`"PR"`, `"CC"`, ...).
    pub algorithm: String,
    /// Dataset name (`"twitter_sim"`, ...).
    pub dataset: String,
    /// BSP iterations the run executed (identical across repeats — the
    /// engines are deterministic; a drift here is a correctness bug).
    pub iterations: u32,
    /// Wall time of every timed repeat, microseconds, in execution order.
    pub wall_us: Vec<u64>,
    /// Median of `wall_us` (upper median for even counts).
    pub wall_us_median: u64,
    /// I/O wait time of the median repeat, microseconds.
    pub io_wait_us: u64,
    /// Scatter + apply compute time of the median repeat, microseconds.
    pub compute_us: u64,
    /// Prefetch stall time of the median repeat, microseconds (a
    /// component of `io_wait_us`; zero with prefetching disabled).
    pub stall_us: u64,
    /// Scheduler benefit-evaluation time of the median repeat,
    /// microseconds.
    pub scheduler_us: u64,
    /// Bytes read from storage during one repeat (deterministic).
    pub bytes_read: u64,
    /// Read requests issued to storage during one repeat (deterministic)
    /// — what a seeking device charges for besides the bytes.
    pub read_ops: u64,
    /// Bytes written to storage during one repeat (deterministic).
    pub bytes_written: u64,
    /// Prefetch hits of the median repeat (timing-dependent split).
    pub prefetch_hits: u64,
    /// Prefetch misses of the median repeat (timing-dependent split;
    /// `prefetch_hits + prefetch_misses` is deterministic).
    pub prefetch_misses: u64,
    /// `hits / (hits + misses)`, or 0.0 with prefetching disabled.
    pub prefetch_hit_rate: f64,
    /// Peak resident set size of the process after the median repeat,
    /// bytes; 0 where the platform offers no reading.
    pub peak_rss_bytes: u64,
}

impl BenchEntry {
    fn key(&self) -> (String, String, String) {
        (
            self.system.clone(),
            self.algorithm.clone(),
            self.dataset.clone(),
        )
    }
}

impl Serialize for BenchEntry {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("system".to_string(), Value::Str(self.system.clone())),
            ("algorithm".to_string(), Value::Str(self.algorithm.clone())),
            ("dataset".to_string(), Value::Str(self.dataset.clone())),
            (
                "iterations".to_string(),
                Value::U64(u64::from(self.iterations)),
            ),
            (
                "wall_us".to_string(),
                Value::Seq(self.wall_us.iter().map(|v| Value::U64(*v)).collect()),
            ),
            (
                "wall_us_median".to_string(),
                Value::U64(self.wall_us_median),
            ),
            ("io_wait_us".to_string(), Value::U64(self.io_wait_us)),
            ("compute_us".to_string(), Value::U64(self.compute_us)),
            ("stall_us".to_string(), Value::U64(self.stall_us)),
            ("scheduler_us".to_string(), Value::U64(self.scheduler_us)),
            ("bytes_read".to_string(), Value::U64(self.bytes_read)),
            ("read_ops".to_string(), Value::U64(self.read_ops)),
            ("bytes_written".to_string(), Value::U64(self.bytes_written)),
            ("prefetch_hits".to_string(), Value::U64(self.prefetch_hits)),
            (
                "prefetch_misses".to_string(),
                Value::U64(self.prefetch_misses),
            ),
            (
                "prefetch_hit_rate".to_string(),
                Value::F64(self.prefetch_hit_rate),
            ),
            (
                "peak_rss_bytes".to_string(),
                Value::U64(self.peak_rss_bytes),
            ),
        ])
    }
}

fn str_field(v: &Value, name: &str) -> Result<String, DeError> {
    String::from_value(serde::value_field(v, name)?)
}

fn u64_field(v: &Value, name: &str) -> Result<u64, DeError> {
    u64::from_value(serde::value_field(v, name)?)
}

fn f64_field(v: &Value, name: &str) -> Result<f64, DeError> {
    f64::from_value(serde::value_field(v, name)?)
}

fn u32_field(v: &Value, name: &str) -> Result<u32, DeError> {
    let raw = u64_field(v, name)?;
    u32::try_from(raw).map_err(|_| DeError::msg(format!("field {name} out of u32 range: {raw}")))
}

impl Deserialize for BenchEntry {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let wall_us = match serde::value_field(v, "wall_us")? {
            Value::Seq(items) => items
                .iter()
                .map(u64::from_value)
                .collect::<Result<Vec<u64>, DeError>>()?,
            _ => return Err(DeError::msg("wall_us is not an array")),
        };
        Ok(BenchEntry {
            system: str_field(v, "system")?,
            algorithm: str_field(v, "algorithm")?,
            dataset: str_field(v, "dataset")?,
            iterations: u32_field(v, "iterations")?,
            wall_us,
            wall_us_median: u64_field(v, "wall_us_median")?,
            io_wait_us: u64_field(v, "io_wait_us")?,
            compute_us: u64_field(v, "compute_us")?,
            stall_us: u64_field(v, "stall_us")?,
            scheduler_us: u64_field(v, "scheduler_us")?,
            bytes_read: u64_field(v, "bytes_read")?,
            read_ops: u64_field(v, "read_ops")?,
            bytes_written: u64_field(v, "bytes_written")?,
            prefetch_hits: u64_field(v, "prefetch_hits")?,
            prefetch_misses: u64_field(v, "prefetch_misses")?,
            prefetch_hit_rate: f64_field(v, "prefetch_hit_rate")?,
            peak_rss_bytes: u64_field(v, "peak_rss_bytes")?,
        })
    }
}

/// A full benchmark report: one entry per measured cell plus the
/// measurement configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Schema version ([`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Report label — the `<label>` of `BENCH_<label>.json`.
    pub label: String,
    /// Dataset scale the run used (`"tiny"`, `"small"`, `"medium"`).
    pub scale: String,
    /// Untimed warmup runs per cell.
    pub warmup: u32,
    /// Timed repeats per cell.
    pub repeats: u32,
    /// Whether the prefetch pipeline was enabled.
    pub prefetch: bool,
    /// Measured cells.
    pub entries: Vec<BenchEntry>,
}

impl Serialize for BenchReport {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            (
                "schema_version".to_string(),
                Value::U64(self.schema_version),
            ),
            ("label".to_string(), Value::Str(self.label.clone())),
            ("scale".to_string(), Value::Str(self.scale.clone())),
            ("warmup".to_string(), Value::U64(u64::from(self.warmup))),
            ("repeats".to_string(), Value::U64(u64::from(self.repeats))),
            ("prefetch".to_string(), Value::Bool(self.prefetch)),
            (
                "entries".to_string(),
                Value::Seq(self.entries.iter().map(|e| e.to_value()).collect()),
            ),
        ])
    }
}

impl Deserialize for BenchReport {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let schema_version = u64_field(v, "schema_version")?;
        if schema_version != BENCH_SCHEMA_VERSION {
            return Err(DeError::msg(format!(
                "unsupported bench schema version {schema_version} (this build reads {BENCH_SCHEMA_VERSION})"
            )));
        }
        let entries = match serde::value_field(v, "entries")? {
            Value::Seq(items) => items
                .iter()
                .map(BenchEntry::from_value)
                .collect::<Result<Vec<BenchEntry>, DeError>>()?,
            _ => return Err(DeError::msg("entries is not an array")),
        };
        let prefetch = match serde::value_field(v, "prefetch")? {
            Value::Bool(b) => *b,
            _ => return Err(DeError::msg("prefetch is not a bool")),
        };
        Ok(BenchReport {
            schema_version,
            label: str_field(v, "label")?,
            scale: str_field(v, "scale")?,
            warmup: u32_field(v, "warmup")?,
            repeats: u32_field(v, "repeats")?,
            prefetch,
            entries,
        })
    }
}

/// Median of `xs` (upper median for even counts); 0 for an empty slice.
pub fn median(xs: &[u64]) -> u64 {
    if xs.is_empty() {
        return 0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_unstable();
    sorted[sorted.len() / 2]
}

impl BenchReport {
    /// The canonical file name for this report: `BENCH_<label>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.label)
    }

    /// Serializes the report to pretty JSON (trailing newline included,
    /// since these files are committed).
    pub fn to_json(&self) -> String {
        // Serializing an owned Value tree cannot fail.
        let mut s = serde_json::to_string_pretty(&self.to_value()).unwrap_or_default();
        s.push('\n');
        s
    }

    /// Parses and validates a report from JSON text.
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let value: Value =
            serde_json::from_str(text).map_err(|e| format!("invalid JSON: {e:?}"))?;
        Self::validate_value(&value)?;
        BenchReport::from_value(&value).map_err(|e| format!("schema error: {e:?}"))
    }

    /// Structural schema validation of a parsed JSON value: field
    /// presence, types and internal consistency (median ∈ wall_us,
    /// wall_us length == repeats, hit rate in range). Returns a
    /// diagnostic naming the first offending field.
    pub fn validate_value(v: &Value) -> Result<(), String> {
        let report = BenchReport::from_value(v).map_err(|e| format!("schema error: {e:?}"))?;
        for (idx, e) in report.entries.iter().enumerate() {
            let at = format!(
                "entries[{idx}] ({}/{}/{})",
                e.system, e.algorithm, e.dataset
            );
            if e.wall_us.len() != report.repeats as usize {
                return Err(format!(
                    "{at}: wall_us has {} samples, repeats is {}",
                    e.wall_us.len(),
                    report.repeats
                ));
            }
            if !e.wall_us.contains(&e.wall_us_median) {
                return Err(format!(
                    "{at}: wall_us_median {} is not one of the samples",
                    e.wall_us_median
                ));
            }
            if e.wall_us_median != median(&e.wall_us) {
                return Err(format!(
                    "{at}: wall_us_median {} disagrees with recomputed median {}",
                    e.wall_us_median,
                    median(&e.wall_us)
                ));
            }
            if !(0.0..=1.0).contains(&e.prefetch_hit_rate) {
                return Err(format!(
                    "{at}: prefetch_hit_rate {} outside [0, 1]",
                    e.prefetch_hit_rate
                ));
            }
            if e.iterations == 0 {
                return Err(format!("{at}: zero iterations"));
            }
        }
        Ok(())
    }

    /// Compares the **deterministic** counters of `self` against a
    /// committed `baseline`: per matching (system, algorithm, dataset)
    /// cell, `iterations`, `bytes_read`, `read_ops`, `bytes_written` and
    /// the prefetch total (`hits + misses`) must be identical. Wall times,
    /// the hit/miss *split* and RSS are timing-dependent and ignored.
    /// Returns every drifted cell in the error, or `Ok` with the number
    /// of compared cells.
    pub fn compare_deterministic(&self, baseline: &BenchReport) -> Result<usize, String> {
        let mut drifts = Vec::new();
        let mut compared = 0usize;
        for base in &baseline.entries {
            let Some(entry) = self.entries.iter().find(|e| e.key() == base.key()) else {
                drifts.push(format!(
                    "{}/{}/{}: missing from the new report",
                    base.system, base.algorithm, base.dataset
                ));
                continue;
            };
            compared += 1;
            let mut drift = |what: &str, got: u64, want: u64| {
                if got != want {
                    drifts.push(format!(
                        "{}/{}/{}: {what} got {got}, want {want}",
                        base.system, base.algorithm, base.dataset
                    ));
                }
            };
            drift(
                "iterations",
                u64::from(entry.iterations),
                u64::from(base.iterations),
            );
            drift("bytes_read", entry.bytes_read, base.bytes_read);
            drift("read_ops", entry.read_ops, base.read_ops);
            drift("bytes_written", entry.bytes_written, base.bytes_written);
            drift(
                "prefetch total (hits+misses)",
                entry.prefetch_hits + entry.prefetch_misses,
                base.prefetch_hits + base.prefetch_misses,
            );
        }
        if drifts.is_empty() {
            Ok(compared)
        } else {
            Err(drifts.join("\n"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(system: &str, wall: Vec<u64>) -> BenchEntry {
        BenchEntry {
            system: system.to_string(),
            algorithm: "PR".to_string(),
            dataset: "kron_sim".to_string(),
            iterations: 5,
            wall_us_median: median(&wall),
            wall_us: wall,
            io_wait_us: 800,
            compute_us: 150,
            stall_us: 40,
            scheduler_us: 10,
            bytes_read: 1 << 20,
            read_ops: 200,
            bytes_written: 1 << 16,
            prefetch_hits: 30,
            prefetch_misses: 10,
            prefetch_hit_rate: 0.75,
            peak_rss_bytes: 10 << 20,
        }
    }

    fn report() -> BenchReport {
        BenchReport {
            schema_version: BENCH_SCHEMA_VERSION,
            label: "test".to_string(),
            scale: "tiny".to_string(),
            warmup: 1,
            repeats: 3,
            prefetch: true,
            entries: vec![entry("GraphSD", vec![1200, 1000, 1100])],
        }
    }

    #[test]
    fn median_is_upper_for_even_counts() {
        assert_eq!(median(&[]), 0);
        assert_eq!(median(&[7]), 7);
        assert_eq!(median(&[1, 9]), 9);
        assert_eq!(median(&[3, 1, 2]), 2);
        assert_eq!(median(&[4, 1, 3, 2]), 3);
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = report();
        assert_eq!(r.file_name(), "BENCH_test.json");
        let json = r.to_json();
        assert!(json.ends_with('\n'));
        let back = BenchReport::from_json(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn validation_rejects_inconsistent_reports() {
        let mut r = report();
        r.entries[0].wall_us_median = 9999;
        assert!(BenchReport::from_json(&r.to_json())
            .unwrap_err()
            .contains("not one of the samples"));

        let mut r = report();
        r.entries[0].wall_us.push(1);
        assert!(BenchReport::from_json(&r.to_json())
            .unwrap_err()
            .contains("samples"));

        let mut r = report();
        r.entries[0].prefetch_hit_rate = 1.5;
        assert!(BenchReport::from_json(&r.to_json())
            .unwrap_err()
            .contains("outside"));

        let mut r = report();
        r.schema_version = BENCH_SCHEMA_VERSION + 1;
        assert!(BenchReport::from_json(&r.to_json())
            .unwrap_err()
            .contains("unsupported bench schema version"));

        // Median must be a real sample AND the recomputed median.
        let mut r = report();
        r.entries[0].wall_us_median = 1000; // a sample, but not the median
        assert!(BenchReport::from_json(&r.to_json())
            .unwrap_err()
            .contains("recomputed median"));
    }

    #[test]
    fn deterministic_comparison_ignores_timing() {
        let base = report();
        let mut new = report();
        // Timing drifts are fine.
        new.entries[0].wall_us = vec![5000, 4000, 4500];
        new.entries[0].wall_us_median = 4500;
        new.entries[0].peak_rss_bytes = 99 << 20;
        // Hit/miss split moves but the total is stable.
        new.entries[0].prefetch_hits = 25;
        new.entries[0].prefetch_misses = 15;
        assert_eq!(new.compare_deterministic(&base), Ok(1));
        // Byte drift is a failure.
        new.entries[0].bytes_read += 1;
        let err = new.compare_deterministic(&base).unwrap_err();
        assert!(err.contains("bytes_read"));
        // So is a request drift at equal bytes, reported got/want.
        new.entries[0].bytes_read -= 1;
        new.entries[0].read_ops += 3;
        let err = new.compare_deterministic(&base).unwrap_err();
        assert!(err.contains("read_ops got 203, want 200"), "{err}");
        new.entries[0].read_ops -= 3;
        // A missing cell is a failure.
        let empty = BenchReport {
            entries: Vec::new(),
            ..report()
        };
        assert!(empty
            .compare_deterministic(&base)
            .unwrap_err()
            .contains("missing"));
    }
}
