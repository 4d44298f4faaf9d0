// GSD004 negative-scenario consumer: every variant is constructed.
pub fn emit(sink: &dyn Sink) {
    sink.emit(TraceEvent::RunStart { iteration: 0 });
    sink.emit(TraceEvent::BufferHit { block: 3, bytes: 4096 });
    sink.emit(TraceEvent::PrefetchIssued { block: 3, bytes: 4096 });
    sink.emit(TraceEvent::PrefetchHit { block: 3, bytes: 4096 });
    sink.emit(TraceEvent::PrefetchStall { block: 3, wait_us: 12 });
    sink.emit(TraceEvent::CkptWritten { iteration: 2, bytes: 8192 });
    sink.emit(TraceEvent::CkptRestored { iteration: 2, bytes: 8192 });
    sink.emit(TraceEvent::ChecksumOk { block: 5, bytes: 4096 });
    sink.emit(TraceEvent::CorruptionDetected { block: 5, expected: 7 });
    sink.emit(TraceEvent::BlockRewritten { block: 5, bytes: 4096 });
    sink.emit(TraceEvent::BenchRepeat { repeat: 1, wall_us: 250 });
    sink.emit(TraceEvent::ServeStarted { vertices: 100, p: 4 });
    sink.emit(TraceEvent::QueryAccepted { query: 1 });
    sink.emit(TraceEvent::QueryCompleted { query: 1, bytes: 4096 });
    sink.emit(TraceEvent::CacheAdmit { block: 7, bytes: 4096 });
    sink.emit(TraceEvent::CacheEvict { block: 7, bytes: 4096 });
    sink.emit(TraceEvent::DeltaApplied { epoch: 1, segments: 3 });
    sink.emit(TraceEvent::CompactionStarted { epoch: 1, segments: 3 });
    sink.emit(TraceEvent::CompactionFinished { epoch: 1, rewritten: 9 });
    sink.emit(TraceEvent::IncrementalSeeded { seeds: 12, resets: 4 });
}
