//! The schema-versioned `BENCH_*.json` report of `gsd bench`.
//!
//! `gsd bench` ([`crate::wall::run_wall`]) runs each engine × algorithm ×
//! dataset cell of one analytic run once on real storage and records
//! here the counters that are reproducible across machines: iterations,
//! bytes moved, read requests and prefetch events. One report is
//! committed, `ci/bench_baseline.json`; [`BenchReport::compare_deterministic`]
//! gates CI and `tests/bench_gate.rs` against it. There is no clock in
//! this schema — wall time, phase times and RSS are measured by the
//! repository-root `benchmark/` package.

use serde::{Deserialize, Serialize};

/// Version of the `BENCH_*.json` schema. Bump on any breaking change to
/// the field set; consumers must reject unknown major versions.
pub const BENCH_SCHEMA_VERSION: u64 = 3;

/// One benchmark cell: the timing-free counters of a (system, algorithm,
/// dataset) run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BenchEntry {
    /// System label (`"GraphSD"`, `"HUS-Graph"`, ...).
    pub system: String,
    /// Algorithm label (`"PR"`, `"CC"`, ...).
    pub algorithm: String,
    /// Dataset name (`"twitter_sim"`, ...).
    pub dataset: String,
    /// BSP iterations the run executed.
    pub iterations: u32,
    /// Bytes read from storage.
    pub bytes_read: u64,
    /// Read requests issued to storage — what a seeking device charges
    /// for besides the bytes.
    pub read_ops: u64,
    /// Bytes written to storage.
    pub bytes_written: u64,
    /// Requests consumed through the prefetch pipeline (hits + misses;
    /// how they split is timing and is not recorded). Zero with
    /// prefetching disabled.
    pub prefetch_events: u64,
}

/// A full benchmark report: one entry per cell plus the configuration
/// the counters depend on.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Schema version ([`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Dataset scale the run used (`"tiny"`, `"small"`, `"medium"`).
    pub scale: String,
    /// Whether the prefetch pipeline was enabled.
    pub prefetch: bool,
    /// Measured cells.
    pub entries: Vec<BenchEntry>,
}

impl BenchEntry {
    fn key(&self) -> (&str, &str, &str) {
        (&self.system, &self.algorithm, &self.dataset)
    }
}

impl BenchReport {
    /// Serializes the report to pretty JSON (trailing newline included,
    /// since these files are committed).
    pub fn to_json(&self) -> String {
        // Serializing an owned Value tree cannot fail.
        let mut s = serde_json::to_string_pretty(self).unwrap_or_default();
        s.push('\n');
        s
    }

    /// Parses a report from JSON text, rejecting any schema version but
    /// [`BENCH_SCHEMA_VERSION`] and any cell with zero iterations.
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let value: serde::Value =
            serde_json::from_str(text).map_err(|e| format!("invalid JSON: {e:?}"))?;
        let version = serde::value_field(&value, "schema_version")
            .and_then(u64::from_value)
            .map_err(|e| format!("schema error: {e:?}"))?;
        if version != BENCH_SCHEMA_VERSION {
            return Err(format!(
                "unsupported bench schema version {version} (this build reads {BENCH_SCHEMA_VERSION})"
            ));
        }
        let report = BenchReport::from_value(&value).map_err(|e| format!("schema error: {e:?}"))?;
        for (idx, e) in report.entries.iter().enumerate() {
            if e.iterations == 0 {
                return Err(format!(
                    "entries[{idx}] ({}/{}/{}): zero iterations",
                    e.system, e.algorithm, e.dataset
                ));
            }
        }
        Ok(report)
    }

    /// Compares `self` against a committed `baseline`: every
    /// (system, algorithm, dataset) cell of the baseline must be present
    /// with identical counters. Returns every drifted cell in the error,
    /// or `Ok` with the number of compared cells.
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
                "prefetch_events",
                entry.prefetch_events,
                base.prefetch_events,
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

    fn entry(system: &str) -> BenchEntry {
        BenchEntry {
            system: system.to_string(),
            algorithm: "PR".to_string(),
            dataset: "kron_sim".to_string(),
            iterations: 5,
            bytes_read: 1 << 20,
            read_ops: 200,
            bytes_written: 1 << 16,
            prefetch_events: 40,
        }
    }

    fn report() -> BenchReport {
        BenchReport {
            schema_version: BENCH_SCHEMA_VERSION,
            scale: "tiny".to_string(),
            prefetch: true,
            entries: vec![entry("GraphSD")],
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = report();
        let json = r.to_json();
        assert!(json.ends_with('\n'));
        let back = BenchReport::from_json(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn validation_rejects_inconsistent_reports() {
        let mut r = report();
        r.schema_version = BENCH_SCHEMA_VERSION - 1;
        assert!(BenchReport::from_json(&r.to_json())
            .unwrap_err()
            .contains("unsupported bench schema version"));

        let mut r = report();
        r.entries[0].iterations = 0;
        assert!(BenchReport::from_json(&r.to_json())
            .unwrap_err()
            .contains("zero iterations"));

        let missing_field = report().to_json().replace("read_ops", "read_requests");
        assert!(BenchReport::from_json(&missing_field)
            .unwrap_err()
            .contains("schema error"));
    }

    #[test]
    fn comparison_names_every_drifted_counter() {
        let base = report();
        let mut new = report();
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
