//! The typed trace event model.
//!
//! Every observable step of an out-of-core run — iteration boundaries,
//! block loads, scheduler decisions, cross-iteration passes, buffer
//! activity, vertex-value flushes — is one [`TraceEvent`]. Events are
//! plain data: cheap to clone, comparable in tests, and serializable to a
//! stable JSONL schema where each event is one JSON object tagged by its
//! `"ev"` field (snake_case event name).
//!
//! The schema is declared **once**, in the `trace_events!` table below:
//! [`TraceEvent::kind`], `Serialize` and the total decoder (`Deserialize`)
//! are generated from it, and every reader of the stream goes through
//! that decoder — nothing else spells a tag or a field name.

use serde::{value_field, DeError, Deserialize, Serialize, Value};

/// Which I/O access model an engine used for an iteration (trace-level
/// mirror of `gsd_runtime::IoAccessModel`; `gsd-trace` sits below the
/// runtime crate in the dependency graph and cannot import it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessModel {
    /// Selective on-demand loads of active vertices' edges (SCIU).
    OnDemand,
    /// Full sequential streaming of the edge grid (FCIU).
    Full,
}

impl AccessModel {
    /// Stable string form used in the JSONL schema.
    pub fn as_str(self) -> &'static str {
        match self {
            AccessModel::OnDemand => "on_demand",
            AccessModel::Full => "full",
        }
    }
}

impl Serialize for AccessModel {
    fn to_value(&self) -> Value {
        Value::Str(self.as_str().to_string())
    }
}

impl Deserialize for AccessModel {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let s = String::from_value(v)?;
        [AccessModel::OnDemand, AccessModel::Full]
            .into_iter()
            .find(|m| m.as_str() == s)
            .ok_or_else(|| DeError(format!("unknown access model `{s}`")))
    }
}

use crate::labels::{ENGINES, QUERY_OPS};

/// Decodes the required field `name` of `v`, naming it in the error.
fn field<T: Deserialize>(v: &Value, name: &str) -> Result<T, DeError> {
    T::from_value(value_field(v, name)?).map_err(|e| DeError(format!("field `{name}`: {}", e.0)))
}

/// Decodes the required string field `name` of `v` against a closed set.
fn label(v: &Value, name: &str, set: &'static [&'static str]) -> Result<&'static str, DeError> {
    let s: String = field(v, name)?;
    set.iter()
        .copied()
        .find(|l| *l == s)
        .ok_or_else(|| DeError(format!("field `{name}`: `{s}` is not one of {set:?}")))
}

macro_rules! decode_field {
    ($v:ident, $field:ident: $ty:ty) => {
        field::<$ty>($v, stringify!($field))?
    };
    ($v:ident, $field:ident: $ty:ty, $set:ident) => {
        label($v, stringify!($field), $set)?
    };
}

/// Declares the event enum and derives its whole wire format from the one
/// table: `Variant = "ev_tag" { field: Type, .. }`, fields in JSONL order;
/// a `&'static str` field names the label set it decodes against.
macro_rules! trace_events {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $tag:literal {
                    $(
                        $(#[$fmeta:meta])*
                        $field:ident: $ty:ty $([in $set:ident])?
                    ),+ $(,)?
                }
            ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $(
                $(#[$vmeta])*
                $variant {
                    $(
                        $(#[$fmeta])*
                        $field: $ty
                    ),+
                }
            ),+
        }

        impl $name {
            /// The event's stable snake_case tag — the `"ev"` field of the
            /// JSONL schema.
            pub fn kind(&self) -> &'static str {
                match self {
                    $( $name::$variant { .. } => $tag, )+
                }
            }

            /// Every `(tag, field names in JSONL order)` of the schema.
            #[cfg(test)]
            const SCHEMA: &'static [(&'static str, &'static [&'static str])] =
                &[$( ($tag, &[$( stringify!($field) ),+]) ),+];
        }

        impl Serialize for $name {
            fn to_value(&self) -> Value {
                let mut entries = vec![("ev".to_string(), Value::Str(self.kind().to_string()))];
                match self {
                    $(
                        $name::$variant { $( $field ),+ } => {
                            $( entries.push((stringify!($field).to_string(), $field.to_value())); )+
                        }
                    )+
                }
                Value::Map(entries)
            }
        }

        /// The total decoder: an unknown tag or a missing, ill-typed,
        /// negative or out-of-set field is an `Err` — never a default.
        /// Fields the schema does not name are ignored.
        impl Deserialize for $name {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let tag: String = field(v, "ev")?;
                match tag.as_str() {
                    $(
                        $tag => Ok($name::$variant {
                            $( $field: decode_field!(v, $field: $ty $(, $set)?) ),+
                        }),
                    )+
                    other => Err(DeError(format!("unknown event tag `{other}`"))),
                }
            }
        }
    };
}

trace_events! {
    /// One structured trace event.
    #[derive(Debug, Clone, PartialEq)]
    pub enum TraceEvent {
        /// An engine starts a run.
        RunStart = "run_start" {
            /// Engine name (`"graphsd"`, `"hus-graph"`, `"lumos"`, `"gridstream"`).
            engine: &'static str [in ENGINES],
            /// Algorithm label reported by the engine's stats.
            algorithm: String,
        },
        /// An engine finished a run.
        RunEnd = "run_end" {
            /// Engine name.
            engine: &'static str [in ENGINES],
            /// Number of iterations executed.
            iterations: u32,
        },
        /// A BSP iteration begins.
        IterationStart = "iteration_start" {
            /// 1-based iteration number.
            iteration: u32,
        },
        /// A BSP iteration finished; carries the iteration's headline numbers
        /// so a streaming consumer needs no other state.
        IterationEnd = "iteration_end" {
            /// 1-based iteration number.
            iteration: u32,
            /// Access model the iteration ran under.
            model: AccessModel,
            /// Active vertices at the start of the iteration.
            frontier: u64,
            /// Bytes read from storage during the iteration.
            bytes_read: u64,
            /// Microseconds spent in the scatter kernel.
            scatter_us: u64,
            /// Microseconds spent in the apply kernel.
            apply_us: u64,
            /// Microseconds the engine waited on storage.
            io_wait_us: u64,
        },
        /// One edge sub-block (or edge run within it) was loaded.
        BlockLoad = "block_load" {
            /// Source interval (grid row).
            i: u32,
            /// Destination interval (grid column).
            j: u32,
            /// Bytes requested.
            bytes: u64,
            /// Whether the load was part of a sequential sweep (`true`) or an
            /// on-demand selective read (`false`).
            seq: bool,
        },
        /// The state-aware scheduler chose an access model for an iteration.
        SchedulerDecision = "scheduler_decision" {
            /// Iteration the decision applies to.
            iteration: u32,
            /// Active vertices classified sequential (clustered).
            s_seq: u64,
            /// Active vertices classified random (scattered).
            s_ran: u64,
            /// Estimated seconds for the full I/O model (`C_s`).
            cost_full: f64,
            /// Estimated seconds for the on-demand I/O model (`C_r`).
            cost_on_demand: f64,
            /// The model the scheduler picked.
            chosen: AccessModel,
        },
        /// A selective cross-iteration update pass (Algorithm 2) completed.
        SciuPass = "sciu_pass" {
            /// Iteration the pass ran in.
            iteration: u32,
            /// Edges served for the *next* iteration while blocks were hot.
            edges_served: u64,
        },
        /// A full cross-iteration update pass (Algorithm 3) completed.
        FciuPass = "fciu_pass" {
            /// Iteration the pass ran in.
            iteration: u32,
            /// Edges served for the *next* iteration while blocks were hot.
            edges_served: u64,
        },
        /// The sub-block buffer served a block from memory.
        BufferHit = "buffer_hit" {
            /// Source interval of the block.
            i: u32,
            /// Destination interval of the block.
            j: u32,
            /// Bytes of disk traffic avoided.
            bytes: u64,
        },
        /// The sub-block buffer evicted a resident block.
        BufferEviction = "buffer_eviction" {
            /// Source interval of the evicted block.
            i: u32,
            /// Destination interval of the evicted block.
            j: u32,
            /// Bytes released.
            bytes: u64,
        },
        /// Vertex values crossed storage: a checkpoint committed them or
        /// a resume read them back. A run keeps its values resident
        /// between checkpoints, so this is the only value I/O it performs.
        ValueFlush = "value_flush" {
            /// Length of the snapshot's values section.
            bytes: u64,
            /// `true` for a checkpoint commit, `false` for a resume.
            write: bool,
        },
        /// A sub-block (or edge-run) read was handed to the prefetch pipeline.
        PrefetchIssued = "prefetch_issued" {
            /// Source interval of the scheduled block.
            i: u32,
            /// Destination interval of the scheduled block.
            j: u32,
            /// Bytes the request will read.
            bytes: u64,
        },
        /// The engine consumed a prefetched read that was already decoded —
        /// the pipeline fully hid the storage latency.
        PrefetchHit = "prefetch_hit" {
            /// Source interval of the block.
            i: u32,
            /// Destination interval of the block.
            j: u32,
            /// Bytes served ahead of the compute loop.
            bytes: u64,
        },
        /// The engine blocked on a scheduled read that was not ready: either
        /// a worker was still mid-read (wait) or no worker had started it and
        /// the engine read it synchronously itself (fallback).
        PrefetchStall = "prefetch_stall" {
            /// Source interval of the block.
            i: u32,
            /// Destination interval of the block.
            j: u32,
            /// Microseconds the engine was blocked acquiring the data.
            wait_us: u64,
        },
        /// A checkpoint was committed (its snapshot created and synced).
        CkptWritten = "ckpt_written" {
            /// Last committed iteration the checkpoint captures.
            iteration: u32,
            /// Snapshot size in bytes.
            bytes: u64,
        },
        /// A run resumed from a checkpoint instead of starting cold.
        CkptRestored = "ckpt_restored" {
            /// Iteration the restored snapshot had committed.
            iteration: u32,
            /// Snapshot size in bytes.
            bytes: u64,
        },
        /// A grid object's bytes matched its manifest checksum on first read.
        ChecksumOk = "checksum_ok" {
            /// Full storage key of the verified object.
            key: String,
            /// Bytes checksummed.
            bytes: u64,
        },
        /// A grid object's bytes disagreed with its manifest entry.
        CorruptionDetected = "corruption_detected" {
            /// Full storage key of the corrupt object.
            key: String,
            /// CRC32 recorded in the manifest.
            expected: u64,
            /// CRC32 of the bytes actually read (or the mismatching length
            /// for truncation, mirroring the structured error).
            actual: u64,
        },
        /// The query daemon opened its grid and is ready to accept queries.
        ServeStarted = "serve_started" {
            /// Vertex count of the resident graph.
            vertices: u64,
            /// Partition count P of the resident grid.
            p: u64,
        },
        /// The daemon admitted a query into the scheduler.
        QueryAccepted = "query_accepted" {
            /// Daemon-assigned query id (monotonic per process).
            query: u64,
            /// Query kind tag (`"degree"`, `"neighbors"`, `"khop"`, `"ppr"`,
            /// `"run"`, `"stats"`, `"ping"`).
            op: &'static str [in QUERY_OPS],
        },
        /// A query finished and its response was produced; carries the
        /// per-query I/O account.
        QueryCompleted = "query_completed" {
            /// Daemon-assigned query id.
            query: u64,
            /// Query kind tag.
            op: &'static str [in QUERY_OPS],
            /// Sub-block reads charged to this query that hit the shared cache.
            cache_hits: u64,
            /// Sub-block reads charged to this query that went to storage.
            cache_misses: u64,
            /// Bytes read from storage on behalf of this query.
            bytes_read: u64,
        },
        /// The shared sub-block cache admitted a block on behalf of a query.
        CacheAdmit = "cache_admit" {
            /// Source interval of the admitted block.
            i: u32,
            /// Destination interval of the admitted block.
            j: u32,
            /// Bytes now resident for the block.
            bytes: u64,
        },
        /// The shared sub-block cache evicted a resident block to make room.
        CacheEvict = "cache_evict" {
            /// Source interval of the evicted block.
            i: u32,
            /// Destination interval of the evicted block.
            j: u32,
            /// Bytes released.
            bytes: u64,
        },
        /// A mutation batch was committed as delta segments (one new epoch).
        DeltaApplied = "delta_applied" {
            /// The epoch the batch committed (monotonic per grid).
            epoch: u64,
            /// Edge insertions in the batch.
            inserts: u64,
            /// Edge deletions in the batch.
            deletes: u64,
            /// Delta segment objects the batch appended.
            segments: u64,
            /// Total segment bytes written.
            bytes: u64,
        },
        /// A compaction pass started folding delta segments into the base grid.
        CompactionStarted = "compaction_started" {
            /// Epoch of the grid being compacted.
            epoch: u64,
            /// Live segment objects to fold.
            segments: u64,
            /// Total live segment bytes.
            bytes: u64,
        },
        /// A compaction pass finished; the grid has no live delta segments.
        CompactionFinished = "compaction_finished" {
            /// Epoch of the compacted grid (unchanged by compaction).
            epoch: u64,
            /// Base sub-blocks rewritten with merged payloads.
            blocks_rewritten: u64,
            /// Bytes of rewritten base objects.
            bytes: u64,
        },
        /// Incremental recompute seeded its frontier from a mutation batch's
        /// affected region instead of starting from scratch.
        IncrementalSeeded = "incremental_seeded" {
            /// Vertices seeded into the initial frontier.
            seeds: u64,
            /// Vertices whose values were reset before the run.
            resets: u64,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_serialize_with_stable_tags() {
        let e = TraceEvent::BlockLoad {
            i: 1,
            j: 2,
            bytes: 512,
            seq: true,
        };
        let json = serde_json::to_string(&e).unwrap();
        assert_eq!(
            json,
            r#"{"ev":"block_load","i":1,"j":2,"bytes":512,"seq":true}"#
        );
        assert_eq!(e.kind(), "block_load");

        let d = TraceEvent::SchedulerDecision {
            iteration: 3,
            s_seq: 10,
            s_ran: 4,
            cost_full: 1.5,
            cost_on_demand: 0.25,
            chosen: AccessModel::OnDemand,
        };
        let json = serde_json::to_string(&d).unwrap();
        assert!(json.starts_with(r#"{"ev":"scheduler_decision""#));
        assert!(json.contains(r#""chosen":"on_demand""#));
    }

    #[test]
    fn prefetch_events_serialize_with_stable_tags() {
        let issued = TraceEvent::PrefetchIssued {
            i: 2,
            j: 1,
            bytes: 4096,
        };
        assert_eq!(
            serde_json::to_string(&issued).unwrap(),
            r#"{"ev":"prefetch_issued","i":2,"j":1,"bytes":4096}"#
        );
        let hit = TraceEvent::PrefetchHit {
            i: 2,
            j: 1,
            bytes: 4096,
        };
        assert_eq!(
            serde_json::to_string(&hit).unwrap(),
            r#"{"ev":"prefetch_hit","i":2,"j":1,"bytes":4096}"#
        );
        let stall = TraceEvent::PrefetchStall {
            i: 0,
            j: 3,
            wait_us: 250,
        };
        assert_eq!(
            serde_json::to_string(&stall).unwrap(),
            r#"{"ev":"prefetch_stall","i":0,"j":3,"wait_us":250}"#
        );
        assert_eq!(stall.kind(), "prefetch_stall");
    }

    #[test]
    fn recovery_events_serialize_with_stable_tags() {
        let written = TraceEvent::CkptWritten {
            iteration: 4,
            bytes: 8192,
        };
        assert_eq!(
            serde_json::to_string(&written).unwrap(),
            r#"{"ev":"ckpt_written","iteration":4,"bytes":8192}"#
        );
        let restored = TraceEvent::CkptRestored {
            iteration: 4,
            bytes: 8192,
        };
        assert_eq!(
            serde_json::to_string(&restored).unwrap(),
            r#"{"ev":"ckpt_restored","iteration":4,"bytes":8192}"#
        );
        assert_eq!(restored.kind(), "ckpt_restored");
    }

    #[test]
    fn serve_events_serialize_with_stable_tags() {
        let started = TraceEvent::ServeStarted {
            vertices: 100,
            p: 4,
        };
        assert_eq!(
            serde_json::to_string(&started).unwrap(),
            r#"{"ev":"serve_started","vertices":100,"p":4}"#
        );
        assert_eq!(started.kind(), "serve_started");
        let accepted = TraceEvent::QueryAccepted {
            query: 7,
            op: "khop",
        };
        assert_eq!(
            serde_json::to_string(&accepted).unwrap(),
            r#"{"ev":"query_accepted","query":7,"op":"khop"}"#
        );
        let completed = TraceEvent::QueryCompleted {
            query: 7,
            op: "khop",
            cache_hits: 3,
            cache_misses: 2,
            bytes_read: 2048,
        };
        assert_eq!(
            serde_json::to_string(&completed).unwrap(),
            r#"{"ev":"query_completed","query":7,"op":"khop","cache_hits":3,"cache_misses":2,"bytes_read":2048}"#
        );
        let admit = TraceEvent::CacheAdmit {
            i: 1,
            j: 2,
            bytes: 512,
        };
        assert_eq!(
            serde_json::to_string(&admit).unwrap(),
            r#"{"ev":"cache_admit","i":1,"j":2,"bytes":512}"#
        );
        let evict = TraceEvent::CacheEvict {
            i: 1,
            j: 2,
            bytes: 512,
        };
        assert_eq!(
            serde_json::to_string(&evict).unwrap(),
            r#"{"ev":"cache_evict","i":1,"j":2,"bytes":512}"#
        );
        assert_eq!(evict.kind(), "cache_evict");
    }

    #[test]
    fn delta_events_serialize_with_stable_tags() {
        let applied = TraceEvent::DeltaApplied {
            epoch: 3,
            inserts: 10,
            deletes: 2,
            segments: 4,
            bytes: 180,
        };
        assert_eq!(
            serde_json::to_string(&applied).unwrap(),
            r#"{"ev":"delta_applied","epoch":3,"inserts":10,"deletes":2,"segments":4,"bytes":180}"#
        );
        assert_eq!(applied.kind(), "delta_applied");
        let started = TraceEvent::CompactionStarted {
            epoch: 3,
            segments: 4,
            bytes: 180,
        };
        assert_eq!(
            serde_json::to_string(&started).unwrap(),
            r#"{"ev":"compaction_started","epoch":3,"segments":4,"bytes":180}"#
        );
        let finished = TraceEvent::CompactionFinished {
            epoch: 3,
            blocks_rewritten: 6,
            bytes: 9000,
        };
        assert_eq!(
            serde_json::to_string(&finished).unwrap(),
            r#"{"ev":"compaction_finished","epoch":3,"blocks_rewritten":6,"bytes":9000}"#
        );
        let seeded = TraceEvent::IncrementalSeeded {
            seeds: 12,
            resets: 7,
        };
        assert_eq!(
            serde_json::to_string(&seeded).unwrap(),
            r#"{"ev":"incremental_seeded","seeds":12,"resets":7}"#
        );
        assert_eq!(seeded.kind(), "incremental_seeded");
    }

    #[test]
    fn integrity_events_serialize_with_stable_tags() {
        let ok = TraceEvent::ChecksumOk {
            key: "blocks/b_0_1.edges".to_string(),
            bytes: 4096,
        };
        assert_eq!(
            serde_json::to_string(&ok).unwrap(),
            r#"{"ev":"checksum_ok","key":"blocks/b_0_1.edges","bytes":4096}"#
        );
        let detected = TraceEvent::CorruptionDetected {
            key: "degrees.bin".to_string(),
            expected: 0xCBF4_3926,
            actual: 0x414F_A339,
        };
        assert_eq!(
            serde_json::to_string(&detected).unwrap(),
            r#"{"ev":"corruption_detected","key":"degrees.bin","expected":3421780262,"actual":1095738169}"#
        );
        assert_eq!(detected.kind(), "corruption_detected");
    }

    /// One instance of every variant with its pinned JSONL line.
    fn samples() -> Vec<(TraceEvent, &'static str)> {
        use TraceEvent as E;
        let key = || "blocks/b_0_1.edges".to_string();
        vec![
            (
                E::RunStart {
                    engine: "graphsd",
                    algorithm: "PR".to_string(),
                },
                r#"{"ev":"run_start","engine":"graphsd","algorithm":"PR"}"#,
            ),
            (
                E::RunEnd {
                    engine: "hus-graph",
                    iterations: 5,
                },
                r#"{"ev":"run_end","engine":"hus-graph","iterations":5}"#,
            ),
            (
                E::IterationStart { iteration: 1 },
                r#"{"ev":"iteration_start","iteration":1}"#,
            ),
            (
                E::IterationEnd {
                    iteration: 1,
                    model: AccessModel::Full,
                    frontier: 14,
                    bytes_read: 9092,
                    scatter_us: 120,
                    apply_us: 60,
                    io_wait_us: 300,
                },
                r#"{"ev":"iteration_end","iteration":1,"model":"full","frontier":14,"bytes_read":9092,"scatter_us":120,"apply_us":60,"io_wait_us":300}"#,
            ),
            (
                E::BlockLoad {
                    i: 1,
                    j: 2,
                    bytes: 512,
                    seq: true,
                },
                r#"{"ev":"block_load","i":1,"j":2,"bytes":512,"seq":true}"#,
            ),
            (
                E::SchedulerDecision {
                    iteration: 3,
                    s_seq: 10,
                    s_ran: 4,
                    cost_full: 1.5,
                    cost_on_demand: 0.25,
                    chosen: AccessModel::OnDemand,
                },
                r#"{"ev":"scheduler_decision","iteration":3,"s_seq":10,"s_ran":4,"cost_full":1.5,"cost_on_demand":0.25,"chosen":"on_demand"}"#,
            ),
            (
                E::SciuPass {
                    iteration: 2,
                    edges_served: 77,
                },
                r#"{"ev":"sciu_pass","iteration":2,"edges_served":77}"#,
            ),
            (
                E::FciuPass {
                    iteration: 2,
                    edges_served: 78,
                },
                r#"{"ev":"fciu_pass","iteration":2,"edges_served":78}"#,
            ),
            (
                E::BufferHit {
                    i: 0,
                    j: 1,
                    bytes: 4096,
                },
                r#"{"ev":"buffer_hit","i":0,"j":1,"bytes":4096}"#,
            ),
            (
                E::BufferEviction {
                    i: 0,
                    j: 1,
                    bytes: 4096,
                },
                r#"{"ev":"buffer_eviction","i":0,"j":1,"bytes":4096}"#,
            ),
            (
                E::ValueFlush {
                    bytes: 800,
                    write: false,
                },
                r#"{"ev":"value_flush","bytes":800,"write":false}"#,
            ),
            (
                E::PrefetchIssued {
                    i: 2,
                    j: 1,
                    bytes: 4096,
                },
                r#"{"ev":"prefetch_issued","i":2,"j":1,"bytes":4096}"#,
            ),
            (
                E::PrefetchHit {
                    i: 2,
                    j: 1,
                    bytes: 4096,
                },
                r#"{"ev":"prefetch_hit","i":2,"j":1,"bytes":4096}"#,
            ),
            (
                E::PrefetchStall {
                    i: 0,
                    j: 3,
                    wait_us: 250,
                },
                r#"{"ev":"prefetch_stall","i":0,"j":3,"wait_us":250}"#,
            ),
            (
                E::CkptWritten {
                    iteration: 4,
                    bytes: 8192,
                },
                r#"{"ev":"ckpt_written","iteration":4,"bytes":8192}"#,
            ),
            (
                E::CkptRestored {
                    iteration: 4,
                    bytes: 8192,
                },
                r#"{"ev":"ckpt_restored","iteration":4,"bytes":8192}"#,
            ),
            (
                E::ChecksumOk {
                    key: key(),
                    bytes: 4096,
                },
                r#"{"ev":"checksum_ok","key":"blocks/b_0_1.edges","bytes":4096}"#,
            ),
            (
                E::CorruptionDetected {
                    key: key(),
                    expected: 0xCBF4_3926,
                    actual: 0x414F_A339,
                },
                r#"{"ev":"corruption_detected","key":"blocks/b_0_1.edges","expected":3421780262,"actual":1095738169}"#,
            ),
            (
                E::ServeStarted {
                    vertices: 100,
                    p: 4,
                },
                r#"{"ev":"serve_started","vertices":100,"p":4}"#,
            ),
            (
                E::QueryAccepted {
                    query: 7,
                    op: "khop",
                },
                r#"{"ev":"query_accepted","query":7,"op":"khop"}"#,
            ),
            (
                E::QueryCompleted {
                    query: 7,
                    op: "khop",
                    cache_hits: 3,
                    cache_misses: 2,
                    bytes_read: 2048,
                },
                r#"{"ev":"query_completed","query":7,"op":"khop","cache_hits":3,"cache_misses":2,"bytes_read":2048}"#,
            ),
            (
                E::CacheAdmit {
                    i: 1,
                    j: 2,
                    bytes: 512,
                },
                r#"{"ev":"cache_admit","i":1,"j":2,"bytes":512}"#,
            ),
            (
                E::CacheEvict {
                    i: 1,
                    j: 2,
                    bytes: 512,
                },
                r#"{"ev":"cache_evict","i":1,"j":2,"bytes":512}"#,
            ),
            (
                E::DeltaApplied {
                    epoch: 3,
                    inserts: 10,
                    deletes: 2,
                    segments: 4,
                    bytes: 180,
                },
                r#"{"ev":"delta_applied","epoch":3,"inserts":10,"deletes":2,"segments":4,"bytes":180}"#,
            ),
            (
                E::CompactionStarted {
                    epoch: 3,
                    segments: 4,
                    bytes: 180,
                },
                r#"{"ev":"compaction_started","epoch":3,"segments":4,"bytes":180}"#,
            ),
            (
                E::CompactionFinished {
                    epoch: 3,
                    blocks_rewritten: 6,
                    bytes: 9000,
                },
                r#"{"ev":"compaction_finished","epoch":3,"blocks_rewritten":6,"bytes":9000}"#,
            ),
            (
                E::IncrementalSeeded {
                    seeds: 12,
                    resets: 7,
                },
                r#"{"ev":"incremental_seeded","seeds":12,"resets":7}"#,
            ),
        ]
    }

    #[test]
    fn every_variant_round_trips_through_its_pinned_line() {
        let samples = samples();
        let sampled: Vec<&str> = samples.iter().map(|(e, _)| e.kind()).collect();
        let declared: Vec<&str> = TraceEvent::SCHEMA.iter().map(|(tag, _)| *tag).collect();
        assert_eq!(
            sampled, declared,
            "one sample per declared variant, in order"
        );
        for (event, line) in &samples {
            assert_eq!(serde_json::to_string(event).unwrap(), *line);
            assert_eq!(serde_json::from_str::<TraceEvent>(line).unwrap(), *event);
            assert_eq!(TraceEvent::from_value(&event.to_value()).unwrap(), *event);
        }
    }

    #[test]
    fn the_decoder_is_total_and_never_defaults() {
        for (line, why) in [
            (
                r#"{"ev":"heartbeat","series":1,"bytes":2}"#,
                "unknown event tag",
            ),
            (r#"{"i":0,"j":0,"bytes":1}"#, "missing field `ev`"),
            (
                r#"{"ev":"buffer_hit","i":0,"j":0}"#,
                "missing field `bytes`",
            ),
            (
                r#"{"ev":"buffer_hit","i":0,"j":0,"bytes":-1}"#,
                "field `bytes`",
            ),
            (
                r#"{"ev":"buffer_hit","i":0,"j":0,"bytes":"many"}"#,
                "field `bytes`",
            ),
            (
                r#"{"ev":"buffer_hit","i":4294967296,"j":0,"bytes":1}"#,
                "field `i`",
            ),
            (
                r#"{"ev":"block_load","i":1,"j":2,"bytes":512}"#,
                "missing field `seq`",
            ),
            (
                r#"{"ev":"run_end","engine":"graphchi","iterations":1}"#,
                "is not one of",
            ),
            (
                r#"{"ev":"query_accepted","query":1,"op":"read"}"#,
                "is not one of",
            ),
            (
                r#"{"ev":"value_flush","bytes":1,"write":1}"#,
                "field `write`",
            ),
            (r#"[1,2,3]"#, "missing field `ev`"),
        ] {
            let err = serde_json::from_str::<TraceEvent>(line)
                .unwrap_err()
                .to_string();
            assert!(err.contains(why), "{line}: {err}");
        }
        // An `iteration_end` without its model is an error, not a "?" row.
        let (event, _) = &samples()[3];
        let Value::Map(mut entries) = event.to_value() else {
            panic!("events lower to maps");
        };
        entries.retain(|(name, _)| name != "model");
        assert!(TraceEvent::from_value(&Value::Map(entries)).is_err());
        // Fields the schema does not name are ignored.
        let extra = r#"{"ev":"iteration_start","iteration":1,"host":"ci"}"#;
        assert!(serde_json::from_str::<TraceEvent>(extra).is_ok());
    }

    #[test]
    fn design_md_event_table_matches_the_declaration() {
        let design = include_str!("../../../DESIGN.md");
        let section = design
            .split("### Event model")
            .nth(1)
            .and_then(|rest| rest.split("\n### ").next())
            .expect("DESIGN.md §10 has an Event model section");
        let documented: Vec<&str> = section
            .lines()
            .filter(|l| l.starts_with("| `") && l.contains("` | `"))
            .collect();
        let declared: Vec<String> = TraceEvent::SCHEMA
            .iter()
            .map(|(tag, fields)| {
                let fields: Vec<String> = fields.iter().map(|f| format!("`{f}`")).collect();
                format!("| `{tag}` | {} |", fields.join(", "))
            })
            .collect();
        assert_eq!(documented.len(), declared.len(), "a row per variant");
        for (row, want) in documented.iter().zip(&declared) {
            assert!(
                row.starts_with(want),
                "DESIGN.md §10 row {row:?} != {want:?}"
            );
        }
    }
}
