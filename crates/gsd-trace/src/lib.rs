//! # gsd-trace — structured event tracing for GraphSD
//!
//! A small always-available observability substrate (std + serde only)
//! shared by every engine, the scheduler, the sub-block buffer, the
//! daemon and the mutation path:
//!
//! * [`TraceEvent`] — the typed event model, declared once with its JSONL
//!   schema and total decoder: iteration spans, block loads, scheduler
//!   decisions, SCIU/FCIU passes, buffer hits and evictions, vertex-value
//!   flushes, serve queries, delta batches. [`labels`] holds the closed
//!   sets its `&'static str` fields decode against.
//! * [`TraceSink`] — where events go. [`NullSink`] (the default) reports
//!   itself disabled so emission sites skip event construction entirely;
//!   [`RingRecorder`] keeps a bounded in-memory window for tests;
//!   [`JsonlWriter`] streams one JSON object per event; [`FanoutSink`]
//!   tees to several sinks.
//! * [`Counter`] — the one shared statistics counter (the only atomic in
//!   the workspace; `clippy.toml` bans the raw atomic types elsewhere).
//! * [`HistogramSnapshot`] — a power-of-two histogram; the trace fold
//!   records its I/O-size and stall distributions into it.
//!   ([`CounterRegistry`] is an uninhabited placeholder: it stays for the
//!   frozen `benchmark/`'s `Storage::counters` override.)
//! * [`Stopwatch`] / [`timed`] — the workspace's single wall-clock access
//!   point; everything else measures elapsed time through it, and the
//!   `clippy.toml` ban on `Instant`/`SystemTime` keeps SimDisk
//!   virtual-clock runs wall-clock-free.
//!
//! The JSONL schema tags each event with an `"ev"` field holding its
//! snake_case name; all other fields are flat scalars. See DESIGN.md
//! ("Observability") for the full schema.

#![warn(missing_docs)]

pub mod clock;
pub mod counters;
pub mod event;
pub mod labels;
pub mod sink;

pub use clock::{timed, Stopwatch};
pub use counters::{Counter, CounterRegistry, HistogramSnapshot};
pub use event::{AccessModel, TraceEvent};
pub use sink::{null_sink, FanoutSink, JsonlWriter, NullSink, RingRecorder, TraceSink};
