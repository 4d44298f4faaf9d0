//! The closed label sets behind the events' `&'static str` fields. The
//! emitters pass their own literals; the decoder hands back the matching
//! entry, so a decoded event needs no allocation and no label outside
//! these sets ever enters a report.

/// `RunStart`/`RunEnd::engine`: the four `Policy::name()`s.
pub const ENGINES: &[&str] = &["graphsd", "hus-graph", "lumos", "gridstream"];
/// `QueryAccepted`/`QueryCompleted::op`: `gsd_serve::Request::op()`.
pub const QUERY_OPS: &[&str] = &[
    "ping",
    "stats",
    "degree",
    "neighbors",
    "khop",
    "ppr",
    "run",
    "shutdown",
    "mutate",
    "compact",
];
