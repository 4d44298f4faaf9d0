// GSD004 positive-scenario consumer: RunStart and the prefetch variants
// are constructed, but BufferHit is only ever pattern-matched — dead
// telemetry. Exactly one diagnostic must fire, anchored at BufferHit.
pub fn emit(sink: &dyn Sink) {
    sink.emit(TraceEvent::RunStart { iteration: 0 });
    sink.emit(TraceEvent::PrefetchIssued { block: 1, bytes: 4096 });
    sink.emit(TraceEvent::PrefetchHit { block: 1, bytes: 4096 });
    sink.emit(TraceEvent::PrefetchStall { block: 2, wait_us: 17 });
    sink.emit(TraceEvent::CkptWritten { iteration: 4, bytes: 8192 });
    sink.emit(TraceEvent::CkptRestored { iteration: 4, bytes: 8192 });
    sink.emit(TraceEvent::ChecksumOk { block: 6, bytes: 4096 });
    sink.emit(TraceEvent::CorruptionDetected { block: 6, expected: 9 });
    sink.emit(TraceEvent::BlockRewritten { block: 6, bytes: 4096 });
    sink.emit(TraceEvent::BenchRepeat { repeat: 2, wall_us: 900 });
    sink.emit(TraceEvent::ServeStarted { vertices: 50, p: 2 });
    sink.emit(TraceEvent::QueryAccepted { query: 3 });
    sink.emit(TraceEvent::QueryCompleted { query: 3, bytes: 1024 });
    sink.emit(TraceEvent::CacheAdmit { block: 2, bytes: 1024 });
    sink.emit(TraceEvent::CacheEvict { block: 2, bytes: 1024 });
    sink.emit(TraceEvent::DeltaApplied { epoch: 2, segments: 1 });
    sink.emit(TraceEvent::CompactionStarted { epoch: 2, segments: 1 });
    sink.emit(TraceEvent::CompactionFinished { epoch: 2, rewritten: 4 });
    sink.emit(TraceEvent::IncrementalSeeded { seeds: 3, resets: 0 });
}

pub fn describe(ev: &TraceEvent) -> String {
    match ev {
        TraceEvent::RunStart { iteration } => format!("run {iteration}"),
        TraceEvent::BufferHit { block, .. } if *block > 0 => format!("hit {block}"),
        TraceEvent::BufferHit { block, bytes } => format!("hit {block} ({bytes} B)"),
        TraceEvent::PrefetchIssued { block, .. } => format!("issued {block}"),
        TraceEvent::PrefetchHit { block, .. } => format!("pf hit {block}"),
        TraceEvent::PrefetchStall { block, wait_us } => format!("stall {block} {wait_us}us"),
        TraceEvent::CkptWritten { iteration, .. } => format!("ckpt {iteration}"),
        TraceEvent::CkptRestored { iteration, .. } => format!("restored {iteration}"),
        TraceEvent::ChecksumOk { block, .. } => format!("crc ok {block}"),
        TraceEvent::CorruptionDetected { block, expected } => {
            format!("corrupt {block} (wanted {expected:#x})")
        }
        TraceEvent::BlockRewritten { block, .. } => format!("rewritten {block}"),
        TraceEvent::BenchRepeat { repeat, wall_us } => format!("repeat {repeat} {wall_us}us"),
        TraceEvent::ServeStarted { vertices, p } => format!("serve {vertices}v p={p}"),
        TraceEvent::QueryAccepted { query } => format!("accepted {query}"),
        TraceEvent::QueryCompleted { query, bytes } => format!("done {query} ({bytes} B)"),
        TraceEvent::CacheAdmit { block, .. } => format!("admit {block}"),
        TraceEvent::CacheEvict { block, .. } => format!("evict {block}"),
        TraceEvent::DeltaApplied { epoch, segments } => format!("delta {epoch} ({segments})"),
        TraceEvent::CompactionStarted { epoch, .. } => format!("compacting {epoch}"),
        TraceEvent::CompactionFinished { epoch, rewritten } => {
            format!("compacted {epoch} ({rewritten})")
        }
        TraceEvent::IncrementalSeeded { seeds, resets } => format!("seeded {seeds}/{resets}"),
    }
}
