// GSD004 fixture event model, checked as crates/gsd-trace/src/event.rs.
/// Trace events for the fixture workspace.
#[derive(Debug, Clone)]
pub enum TraceEvent {
    /// Start of a run.
    RunStart { iteration: u32 },
    /// A sub-block buffer hit.
    BufferHit { block: u32, bytes: u64 },
    /// A grid object failed its checksum.
    #[doc(alias = "crc_mismatch")]
    CorruptionDetected { block: u32, expected: u64 },
    /// A compaction pass rewrote the base grid.
    CompactionFinished { epoch: u64, rewritten: u64 },
}
