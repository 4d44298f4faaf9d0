// GSD004 fixture event model, linted as crates/gsd-trace/src/event.rs.
/// Trace events for the fixture workspace.
#[derive(Debug, Clone)]
pub enum TraceEvent {
    /// Start of a run.
    RunStart { iteration: u32 },
    /// A sub-block buffer hit.
    BufferHit { block: u32, bytes: u64 },
    /// A prefetch request handed to the pipeline.
    PrefetchIssued { block: u32, bytes: u64 },
    /// A consumer took an already-decoded sub-block.
    PrefetchHit { block: u32, bytes: u64 },
    /// A consumer waited on (or fell back past) the pipeline.
    PrefetchStall { block: u32, wait_us: u64 },
    /// A checkpoint committed at an iteration boundary.
    CkptWritten { iteration: u32, bytes: u64 },
    /// A run resumed from a checkpoint.
    CkptRestored { iteration: u32, bytes: u64 },
    /// A grid object passed its checksum on first read.
    ChecksumOk { block: u32, bytes: u64 },
    /// A grid object failed its checksum.
    CorruptionDetected { block: u32, expected: u64 },
    /// A corrupt object was healed by a re-read.
    BlockRewritten { block: u32, bytes: u64 },
    /// One timed repeat of a benchmark cell completed.
    BenchRepeat { repeat: u32, wall_us: u64 },
    /// The query daemon opened its grid and is ready.
    ServeStarted { vertices: u64, p: u64 },
    /// A query was admitted into the scheduler.
    QueryAccepted { query: u64 },
    /// A query finished with its per-query I/O account.
    QueryCompleted { query: u64, bytes: u64 },
    /// The shared cache admitted a block for a query.
    CacheAdmit { block: u32, bytes: u64 },
    /// The shared cache evicted a resident block.
    CacheEvict { block: u32, bytes: u64 },
    /// A mutation batch committed as a delta epoch.
    DeltaApplied { epoch: u64, segments: u64 },
    /// A compaction pass began folding live segments.
    CompactionStarted { epoch: u64, segments: u64 },
    /// A compaction pass rewrote the base grid.
    CompactionFinished { epoch: u64, rewritten: u64 },
    /// An incremental recompute seeded its frontier.
    IncrementalSeeded { seeds: u64, resets: u64 },
}
