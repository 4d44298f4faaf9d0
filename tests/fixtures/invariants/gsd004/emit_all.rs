// GSD004 negative-scenario consumer: every variant is constructed.
pub fn emit(sink: &dyn Sink) {
    sink.emit(TraceEvent::RunStart { iteration: 0 });
    sink.emit(TraceEvent::BufferHit { block: 3, bytes: 4096 });
    sink.emit(TraceEvent::CorruptionDetected { block: 5, expected: 7 });
    sink.emit(TraceEvent::CompactionFinished { epoch: 1, rewritten: 9 });
}
