//! The metric and workload tables, the result line, and `BENCHMARK.json`.
//!
//! One table names every metric with its unit; the result line and the
//! root `BENCHMARK.json` are both written from it, and a test checks the
//! committed file against it, so the three cannot drift apart.

use std::collections::BTreeMap;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "pr_stream",
        why: "dense PageRank on a Kronecker graph: every vertex active, full streaming + FCIU, scatter/apply dominate and I/O is hidden",
    },
    Workload {
        name: "sssp_frontier",
        why: "SSSP wavefronts on a weighted road grid: hundreds of sparse-frontier iterations of small synchronous reads, so read_at, decode, scheduler and driver overhead dominate",
    },
    Workload {
        name: "mutate_cycle",
        why: "ingest + incremental BFS, verified checkpointed PageRank over the delta overlay, compaction, on an in-memory store: the write path and the hardened read path block",
    },
    Workload {
        name: "serve_mixed",
        why: "closed-loop TCP lookups and k-hop/PPR traversals against the daemon with a cache smaller than the graph: wire, queue, batching, cache",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// What a user of the system sees, defined for every workload (the unit
/// of work is one analytic run, one mutation cycle or one serve round;
/// see README.md).
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "run_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "read_mb",
        unit: "MB",
        better: "lower",
        bound: 0.15,
    },
    EndToEnd {
        name: "hdd_io_s",
        unit: "s",
        better: "lower",
        bound: 0.2,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.2,
    },
];

/// `(name, unit, better)`, named `<crate>.<metric>`. Reported by the
/// traced invocation; a layer the workload does not cross reports 0.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("gsd-io.read_ops", "count", "lower"),
    ("gsd-io.read_mb", "MB", "lower"),
    ("gsd-io.rand_read_ops", "count", "lower"),
    ("gsd-io.read_busy_s", "s", "lower"),
    ("gsd-io.read_busy_main_s", "s", "lower"),
    ("gsd-io.write_mb", "MB", "lower"),
    ("gsd-io.write_busy_s", "s", "lower"),
    ("gsd-io.sync_ops", "count", "lower"),
    ("gsd-io.sync_busy_s", "s", "lower"),
    ("gsd-io.raw_read_mb_per_s", "MB/s", "higher"),
    ("gsd-io.files_setup_s", "s", "lower"),
    ("gsd-io.files_run_s", "s", "lower"),
    ("gsd-integrity.crc_mb_per_s", "MB/s", "higher"),
    ("gsd-integrity.verify_mb", "MB", "lower"),
    ("gsd-integrity.verify_overhead_ratio", "ratio", "lower"),
    ("gsd-integrity.scrub_s", "s", "lower"),
    ("gsd-graph.decode_medges_per_s", "Medges/s", "higher"),
    ("gsd-graph.block_read_medges_per_s", "Medges/s", "higher"),
    ("gsd-graph.overlay_read_medges_per_s", "Medges/s", "higher"),
    ("gsd-graph.index_read_us", "us", "lower"),
    ("gsd-graph.preprocess_load_s", "s", "lower"),
    ("gsd-graph.preprocess_partition_s", "s", "lower"),
    ("gsd-graph.preprocess_sort_s", "s", "lower"),
    ("gsd-graph.preprocess_write_s", "s", "lower"),
    ("gsd-graph.grid_mb", "MB", "lower"),
    ("gsd-graph.bytes_per_edge", "B/edge", "lower"),
    (
        "gsd-runtime.scatter_dense_medges_per_s",
        "Medges/s",
        "higher",
    ),
    (
        "gsd-runtime.scatter_sparse_medges_per_s",
        "Medges/s",
        "higher",
    ),
    ("gsd-runtime.apply_mverts_per_s", "Mverts/s", "higher"),
    ("gsd-runtime.frontier_rotate_us", "us", "lower"),
    ("gsd-runtime.iterations", "count", "lower"),
    ("gsd-runtime.compute_s", "s", "lower"),
    ("gsd-runtime.io_wait_s", "s", "lower"),
    ("gsd-runtime.scheduler_s", "s", "lower"),
    ("gsd-runtime.phase_sum_over_wall", "ratio", "lower"),
    ("gsd-runtime.reference_run_s", "s", "lower"),
    ("gsd-core.full_iterations", "count", "lower"),
    ("gsd-core.on_demand_iterations", "count", "higher"),
    ("gsd-core.cross_iter_medges", "Medges", "higher"),
    ("gsd-core.buffer_hits", "count", "higher"),
    ("gsd-core.buffer_hit_mb", "MB", "higher"),
    ("gsd-core.buffer_offer_us", "us", "lower"),
    ("gsd-core.scheduler_select_us", "us", "lower"),
    ("gsd-core.session_open_ms", "ms", "lower"),
    ("gsd-pipeline.prefetch_hits", "count", "higher"),
    ("gsd-pipeline.prefetch_misses", "count", "lower"),
    ("gsd-pipeline.hit_share", "ratio", "higher"),
    ("gsd-pipeline.stall_s", "s", "lower"),
    ("gsd-pipeline.take_medges_per_s", "Medges/s", "higher"),
    ("gsd-pipeline.prefetch_run_s", "s", "lower"),
    ("gsd-pipeline.sync_run_s", "s", "lower"),
    ("gsd-recover.ckpt_writes", "count", "lower"),
    ("gsd-recover.ckpt_mb", "MB", "lower"),
    ("gsd-recover.ckpt_write_ms", "ms", "lower"),
    ("gsd-recover.ckpt_restore_ms", "ms", "lower"),
    ("gsd-delta.ingest_p50_ms", "ms", "lower"),
    ("gsd-delta.recompute_p50_ms", "ms", "lower"),
    ("gsd-delta.verified_run_s", "s", "lower"),
    ("gsd-delta.compact_s", "s", "lower"),
    ("gsd-delta.ingest_segments", "count", "lower"),
    ("gsd-delta.ingest_write_kb", "KB", "lower"),
    ("gsd-delta.compact_read_mb", "MB", "lower"),
    ("gsd-delta.compact_rewritten_mb", "MB", "lower"),
    ("gsd-delta.write_amp", "ratio", "lower"),
    ("gsd-delta.recompute_iterations", "count", "lower"),
    ("gsd-delta.recompute_resets", "count", "lower"),
    ("gsd-delta.recompute_read_mb", "MB", "lower"),
    ("gsd-serve.lookup_qps", "1/s", "higher"),
    ("gsd-serve.lookup_p50_ms", "ms", "lower"),
    ("gsd-serve.lookup_p99_ms", "ms", "lower"),
    ("gsd-serve.traversal_qps", "1/s", "higher"),
    ("gsd-serve.traversal_p50_ms", "ms", "lower"),
    ("gsd-serve.traversal_p95_ms", "ms", "lower"),
    ("gsd-serve.wire_roundtrip_us", "us", "lower"),
    ("gsd-serve.core_lookup_us", "us", "lower"),
    ("gsd-serve.inproc_lookup_us", "us", "lower"),
    ("gsd-serve.core_traversal_ms", "ms", "lower"),
    ("gsd-serve.cache_hit_share", "ratio", "higher"),
    ("gsd-serve.blocks_read", "count", "lower"),
    ("gsd-serve.read_mb", "MB", "lower"),
    ("gsd-serve.batch_passes", "count", "lower"),
    ("gsd-serve.batched_query_share", "ratio", "higher"),
    ("gsd-baselines.gridgraph_run_s", "s", "lower"),
    ("gsd-baselines.gridgraph_read_mb", "MB", "lower"),
    ("gsd-baselines.lumos_run_s", "s", "lower"),
    ("gsd-baselines.lumos_read_mb", "MB", "lower"),
    ("gsd-baselines.hus_run_s", "s", "lower"),
    ("gsd-baselines.hus_read_mb", "MB", "lower"),
    ("benchmark.generate_s", "s", "lower"),
    ("benchmark.budget_mb", "MB", "lower"),
    ("benchmark.units", "count", "higher"),
    ("benchmark.cpu_s", "s", "lower"),
    ("benchmark.untraced_run_s", "s", "lower"),
    ("benchmark.traced_run_s", "s", "lower"),
    ("benchmark.trace_overhead_ratio", "ratio", "lower"),
];

/// Measured values by metric name.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.0 == name),
            "metric {name} is not in the tables"
        );
        self.0.insert(name, value);
    }

    /// The five end-to-end metrics of one invocation: medians over its
    /// set-ups and its timed units, and one unit's accounted traffic.
    pub fn set_end_to_end(
        &mut self,
        setup_s: f64,
        run_s: f64,
        read_mb: f64,
        hdd_io_s: f64,
        peak_rss_mb: f64,
    ) {
        self.set("setup_s", setup_s);
        self.set("run_s", run_s);
        self.set("read_mb", read_mb);
        self.set("hdd_io_s", hdd_io_s);
        self.set("peak_rss_mb", peak_rss_mb);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What one invocation found, printed as the last line of stdout.
pub struct Outcome {
    pub metrics: Metrics,
    /// Operations whose output was checked (runs, batches, replies, …).
    pub attempted: u64,
    /// Of those, how many failed or returned a wrong answer.
    pub failed: u64,
    /// Why, one line per failed check.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn new() -> Self {
        Outcome {
            metrics: Metrics::default(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Counts one checked operation; records `why` when it failed.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(why());
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The `(name, unit)` list an invocation must report.
pub fn expected(trace: bool) -> Vec<(&'static str, &'static str)> {
    if trace {
        PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    }
}

/// The result object. End-to-end metrics must all be present, finite
/// and non-zero (else the run is reported incorrect); per-layer metrics
/// a workload does not produce read 0.
pub fn result_line(outcome: &mut Outcome, trace: bool) -> String {
    let mut fields = Vec::new();
    for (name, unit) in expected(trace) {
        let value = outcome.metrics.get(name);
        if !trace {
            let usable = value.is_some_and(|v| v.is_finite() && v > 0.0);
            outcome.check(usable, || {
                format!("end-to-end metric {name} is missing or zero: {value:?}")
            });
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value.unwrap_or(0.0))
        ));
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    )
}

/// The root `BENCHMARK.json`, written from the tables.
pub fn benchmark_json(run_seconds: u32) -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.0, m.1, m.2
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// The `"name"` values of the array `section` in a `BENCHMARK.json`
/// text. The file has no nested arrays inside its sections, so the
/// section ends at the first `]`.
#[cfg(test)]
pub fn section_names(json: &str, section: &str) -> Vec<String> {
    let Some(start) = json.find(&format!("\"{section}\"")) else {
        return Vec::new();
    };
    let body = &json[start..];
    let body = &body[..body.find(']').unwrap_or(body.len())];
    body.split("\"name\"")
        .skip(1)
        .filter_map(|rest| {
            let rest = rest
                .trim_start()
                .strip_prefix(':')?
                .trim_start()
                .strip_prefix('"')?;
            Some(rest[..rest.find('"')?].to_string())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root")
    }

    #[test]
    fn committed_benchmark_json_names_match_the_tables() {
        let json = committed();
        let names = |section| section_names(&json, section);
        assert_eq!(
            names("workloads"),
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names("end_to_end"),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names("per_layer"),
            PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>()
        );
    }

    #[test]
    fn tables_respect_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        for name in &names {
            assert!(
                name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric(),
                "{name}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "names are used once");
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.1))
        {
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(benchmark_json(10).len() < 64 << 10);
    }

    #[test]
    fn result_line_carries_exactly_the_expected_metrics() {
        for trace in [false, true] {
            let mut outcome = Outcome::new();
            outcome.check(true, String::new);
            for (k, (name, _)) in expected(trace).into_iter().enumerate() {
                outcome.metrics.set(name, 1.5 + k as f64);
            }
            let line = result_line(&mut outcome, trace);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            for (name, unit) in expected(trace) {
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{name}"
                );
                assert!(line.contains(&format!("\"unit\": \"{unit}\"}}")), "{unit}");
            }
            assert_eq!(line.matches("\"value\"").count(), expected(trace).len());
        }
    }

    #[test]
    fn a_zero_end_to_end_metric_fails_the_run() {
        let mut outcome = Outcome::new();
        for m in END_TO_END {
            outcome.metrics.set(m.name, 1.0);
        }
        outcome.metrics.set("read_mb", 0.0);
        let line = result_line(&mut outcome, false);
        assert!(line.starts_with("{\"correct\": false"), "{line}");
        assert_eq!(outcome.failed, 1);
    }
}
