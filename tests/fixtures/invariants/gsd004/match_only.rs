// GSD004 positive-scenario consumer: every variant but BufferHit is
// constructed; BufferHit is only ever pattern-matched — dead telemetry —
// once in each shape that marks a pattern (`..`, `let`, `|`, `if`, `=>`).
// Exactly one finding must fire, anchored at BufferHit.
pub fn emit(sink: &dyn Sink) {
    sink.emit(TraceEvent::RunStart { iteration: 0 });
    sink.emit(TraceEvent::CorruptionDetected { block: 6, expected: 9 });
    sink.emit(TraceEvent::CompactionFinished { epoch: 2, rewritten: 4 });
}

pub fn describe(ev: &TraceEvent) -> String {
    if matches!(ev, TraceEvent::BufferHit { .. }) {
        let TraceEvent::BufferHit { block, bytes }: &TraceEvent = ev else { unreachable!() };
        return format!("hit {block} ({bytes} B)");
    }
    match ev {
        TraceEvent::BufferHit { block: 0, bytes: 0 } | TraceEvent::RunStart { iteration: 0 } => "empty".into(),
        TraceEvent::BufferHit { block, bytes } if *block > 1 => format!("hit {block} {bytes}"),
        TraceEvent::BufferHit { block, bytes } => format!("hit {block} ({bytes} B)"),
        TraceEvent::RunStart { iteration } => format!("run {iteration}"),
        TraceEvent::CorruptionDetected { block, expected } => format!("corrupt {block} {expected}"),
        TraceEvent::CompactionFinished { epoch, rewritten } => format!("{epoch} ({rewritten})"),
    }
}
