//! Sequential scatter/apply kernels shared by every out-of-core engine.
//!
//! The kernels are plain loops over single-writer state ([`ValueArray`],
//! [`Frontier`] — `Cell`-backed and `!Sync`, so no other thread can hold
//! them). Edges are visited in slice order ([`scatter_sorted`] skips
//! edges but never reorders them) and vertices in ascending id order;
//! together with the engines' fixed block visit order that fixes the
//! float combine order, which is what keeps value fingerprints
//! bit-identical across runs and engines.
//!
//! ## One walk, two views
//!
//! [`scatter_sorted`] is one galloping walk over any
//! [`SourceSortedEdges`] view of a `BySource` sub-block, which answers
//! how many edges it holds, the source of edge `k` and edge `k`, and runs
//! the per-edge loop a dense block takes instead. The driver's stream
//! pass hands it decoded slices ([`SortedBySource`], whose per-edge loop
//! is [`scatter_edges`]); the serve daemon hands it the payload bytes it
//! read ([`EncodedBySource`]), so a sparse query decodes only the edges
//! its frontier sends and a dense one decodes each record once, in place.
//! Both views deliver the same messages in the same order —
//! `tests/kernel_equivalence.rs` pins that bit for bit.

use crate::context::ProgramContext;
use crate::frontier::Frontier;
use crate::program::VertexProgram;
use crate::values::ValueArray;
use gsd_graph::types::Records;
use gsd_graph::{Edge, EdgeCodec};

/// Re-exported clock primitives: this module is the timing module of the
/// engine layer — engines route every elapsed-time measurement through
/// [`timed`] or [`apply_range_timed`];
/// `std::time::Instant` itself is banned outside `gsd_trace::clock`
/// (`clippy.toml`, DESIGN.md §11).
pub use gsd_trace::clock::{timed, Stopwatch};

/// Scatters `edges` (the paper's `UserFunction` / `CrossIterUpdate` inner
/// loop): for every edge whose source passes `source_filter`, produce a
/// message from the source's value in `source_values` and combine it into
/// `accum[dst]`, marking `dst` in `touched`. Returns the number of
/// messages delivered.
pub fn scatter_edges<P: VertexProgram>(
    program: &P,
    ctx: &ProgramContext,
    edges: &[Edge],
    source_filter: Option<&Frontier>,
    source_values: &ValueArray<P::Value>,
    accum: &ValueArray<P::Accum>,
    touched: &Frontier,
) -> u64 {
    let send = |e: &Edge| deliver(program, ctx, e, source_values, accum, touched);
    let mut delivered = 0u64;
    match source_filter {
        None => {
            for e in edges {
                delivered += send(e);
            }
        }
        Some(filter) => {
            for e in edges {
                if filter.contains(e.src) {
                    delivered += send(e);
                }
            }
        }
    }
    delivered
}

/// A source-sorted sub-block as [`scatter_sorted`] walks it: `len`
/// edges, the source of edge `k` and edge `k` itself, which the gallop
/// reads, and the per-edge loop a dense block runs instead. The gallop
/// reads sources to find live runs and whole edges only for the messages
/// it sends, so a view that decodes on access pays for exactly those.
pub trait SourceSortedEdges {
    /// Number of edges.
    fn len(&self) -> usize;
    /// Whether the view holds no edge.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Source of edge `k < len()`.
    fn src(&self, k: usize) -> u32;
    /// Edge `k < len()`.
    fn edge(&self, k: usize) -> Edge;
    /// [`scatter_edges`] over every edge, filtered by `source_filter`:
    /// the per-edge loop of [`scatter_sorted`].
    fn scatter_each<P: VertexProgram>(
        &self,
        program: &P,
        ctx: &ProgramContext,
        source_filter: &Frontier,
        source_values: &ValueArray<P::Value>,
        accum: &ValueArray<P::Accum>,
        touched: &Frontier,
    ) -> u64;
}

/// Decoded edges in ascending source order — a `BySource` sub-block as
/// the driver's stream pass holds it. Only [`SortedBySource::new`] builds
/// one, and it checks the order in debug builds.
#[derive(Clone, Copy)]
pub struct SortedBySource<'a>(&'a [Edge]);

impl<'a> SortedBySource<'a> {
    /// Wraps `edges`, which must be sorted by `src`.
    pub fn new(edges: &'a [Edge]) -> Self {
        debug_assert!(
            edges.is_sorted_by_key(|e| e.src),
            "edges are not sorted by source"
        );
        SortedBySource(edges)
    }
}

impl SourceSortedEdges for SortedBySource<'_> {
    #[inline]
    fn len(&self) -> usize {
        self.0.len()
    }
    #[inline]
    fn src(&self, k: usize) -> u32 {
        self.0[k].src
    }
    #[inline]
    fn edge(&self, k: usize) -> Edge {
        self.0[k]
    }
    fn scatter_each<P: VertexProgram>(
        &self,
        program: &P,
        ctx: &ProgramContext,
        source_filter: &Frontier,
        source_values: &ValueArray<P::Value>,
        accum: &ValueArray<P::Accum>,
        touched: &Frontier,
    ) -> u64 {
        let filter = Some(source_filter);
        scatter_edges(program, ctx, self.0, filter, source_values, accum, touched)
    }
}

/// A `BySource` sub-block's payload as stored — its codec's records,
/// `ID`-byte interval-relative ids then a weight if `WEIGHTED`
/// ([`gsd_graph::types::Records`]) — walked without decoding it first: a
/// source is the record's first id plus the block's source base, the
/// gallop decodes an edge only when it sends it, and the per-edge
/// fallback decodes each record in place. The layout is a constant so
/// each record sits at a fixed offset; the serve daemon picks it from its
/// grid's codec and keeps its cached blocks in this form. Only
/// [`EncodedBySource::new`] builds one; it checks the length always and
/// the order in debug builds.
#[derive(Clone, Copy)]
pub struct EncodedBySource<'a, const ID: usize, const WEIGHTED: bool>(Records<'a, ID, WEIGHTED>);

impl<'a, const ID: usize, const WEIGHTED: bool> EncodedBySource<'a, ID, WEIGHTED> {
    /// Wraps `bytes`, a whole number of records of `codec` (the block's
    /// codec, of this layout) sorted by source.
    pub fn new(bytes: &'a [u8], codec: EdgeCodec) -> Self {
        let view = EncodedBySource(Records::new(bytes, codec));
        debug_assert!(
            (1..view.len()).all(|k| view.src(k - 1) <= view.src(k)),
            "payload is not sorted by source"
        );
        view
    }
}

impl<const ID: usize, const WEIGHTED: bool> SourceSortedEdges
    for EncodedBySource<'_, ID, WEIGHTED>
{
    #[inline]
    fn len(&self) -> usize {
        self.0.len()
    }
    #[inline]
    fn src(&self, k: usize) -> u32 {
        self.0.src(k)
    }
    #[inline]
    fn edge(&self, k: usize) -> Edge {
        self.0.edge(k)
    }
    fn scatter_each<P: VertexProgram>(
        &self,
        program: &P,
        ctx: &ProgramContext,
        source_filter: &Frontier,
        source_values: &ValueArray<P::Value>,
        accum: &ValueArray<P::Accum>,
        touched: &Frontier,
    ) -> u64 {
        let mut delivered = 0u64;
        for e in self.0.iter() {
            if source_filter.contains(e.src) {
                delivered += deliver(program, ctx, &e, source_values, accum, touched);
            }
        }
        delivered
    }
}

/// A sorted block gallops over inactive sources only while it holds at
/// least this many edges per live source in its source range; denser
/// blocks take the per-edge loop. Each live source costs the walk a
/// frontier lookup and a search, which only pays when it skips
/// enough edges. On synthetic blocks of 10 000 sources (1–64 edges per
/// source, 1–100 % of sources live; 2-vCPU VM) the walk took 1.1–3.8× the
/// per-edge loop's time below 16 edges per live source, 0.8–1.2× between
/// 16 and 32, and 0.09–1.15× from 32 up (above 1 only with every source
/// live, where both loops cost about the same). A switch at 4 sent a
/// third of PageRank's scattered edges on a 200 000-vertex Kronecker
/// graph (every source live, hub rows with 4–32 edges per source) through
/// the walk, and `pr_stream` ran slower than without the walk in 8 of 9
/// runs (×0.93–×1.69); an unconditional walk slowed PageRank's
/// scatter from 0.10–0.16 s to 0.23–0.24 s. A road grid's SSSP wavefront
/// (≈ 3 % of sources live, ≈ 4 edges per source) sits far above 32.
const GALLOP_EDGES_PER_LIVE_SOURCE: u64 = 32;

/// [`scatter_edges`] filtered by `source_filter` over a source-sorted
/// view: the same messages in the same order, so accumulators, `touched`
/// and the returned count are bit-identical whichever view carries the
/// edges. A sparse block costs `O(live source runs · log gap)` instead of
/// `O(edges)`: the walk jumps to each live source with
/// [`Frontier::next_member`] and gallops (doubling, then binary search)
/// over the runs of inactive sources in between, reading only their
/// sources. A block with fewer than `GALLOP_EDGES_PER_LIVE_SOURCE` (32)
/// edges per live source runs the per-edge loop instead.
pub fn scatter_sorted<P: VertexProgram, E: SourceSortedEdges>(
    program: &P,
    ctx: &ProgramContext,
    edges: E,
    source_filter: &Frontier,
    source_values: &ValueArray<P::Value>,
    accum: &ValueArray<P::Accum>,
    touched: &Frontier,
) -> u64 {
    if edges.is_empty() {
        return 0;
    }
    let len = edges.len();
    // Sources past the universe are clipped by the frontier's searches.
    let (first, end) = (edges.src(0), edges.src(len - 1).saturating_add(1));
    let live = source_filter.count_range(first..end);
    if live * GALLOP_EDGES_PER_LIVE_SOURCE > len as u64 {
        return edges.scatter_each(program, ctx, source_filter, source_values, accum, touched);
    }
    let mut delivered = 0u64;
    let mut at = 0usize;
    while at < len {
        let Some(u) = source_filter.next_member(edges.src(at), end) else {
            break;
        };
        at = gallop(&edges, at, u);
        while at < len && edges.src(at) == u {
            let e = edges.edge(at);
            delivered += deliver(program, ctx, &e, source_values, accum, touched);
            at += 1;
        }
    }
    delivered
}

/// The first index `≥ from` whose source is at least `u` (`len()` if
/// none): doubling steps bracket it, a binary search inside the bracket
/// finds it, so a gap of `g` edges costs `O(log g)` source reads.
fn gallop<E: SourceSortedEdges>(edges: &E, from: usize, u: u32) -> usize {
    let len = edges.len();
    let mut step = 1;
    while from + step < len && edges.src(from + step) < u {
        step *= 2;
    }
    let (mut lo, mut hi) = (from + step / 2, len.min(from + step));
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if edges.src(mid) < u {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// One edge of a scatter: a message from the source's value, combined
/// into `accum[dst]` with `dst` marked in `touched`. Returns 1 if a
/// message was sent.
#[inline]
fn deliver<P: VertexProgram>(
    program: &P,
    ctx: &ProgramContext,
    e: &Edge,
    source_values: &ValueArray<P::Value>,
    accum: &ValueArray<P::Accum>,
    touched: &Frontier,
) -> u64 {
    match program.scatter(e.src, source_values.get(e.src), e.weight, ctx) {
        Some(msg) => {
            accum.combine(e.dst, msg, |a, b| program.combine(a, b));
            touched.insert(e.dst);
            1
        }
        None => 0,
    }
}

/// Applies the accumulator to every vertex of `range` at a BSP barrier:
/// touched vertices (or all, for `apply_all` programs) fold their
/// accumulator into their committed value; changed vertices are inserted
/// into `out`. Accumulators of processed vertices are reset to the
/// program's zero. Returns the number of changed vertices.
#[expect(
    clippy::too_many_arguments,
    reason = "a kernel over the program, its context, the range and the four state arrays it reads and writes; a struct would only rename them"
)]
pub fn apply_range<P: VertexProgram>(
    program: &P,
    ctx: &ProgramContext,
    range: std::ops::Range<u32>,
    apply_all: bool,
    touched: &Frontier,
    accum: &ValueArray<P::Accum>,
    values: &ValueArray<P::Value>,
    out: &Frontier,
) -> u64 {
    let zero = program.zero_accum();
    let apply_one = |v: u32| -> u64 {
        let a = accum.get(v);
        accum.set(v, zero);
        match program.apply(v, values.get(v), a, ctx) {
            Some(new) => {
                values.set(v, new);
                out.insert(v);
                1
            }
            None => 0,
        }
    };
    let mut changed = 0u64;
    if apply_all {
        for v in range {
            changed += apply_one(v);
        }
    } else {
        for v in touched.iter_range(range) {
            changed += apply_one(v);
        }
    }
    changed
}

/// [`apply_range`] with its wall time accumulated into `elapsed`.
/// Engines use this to populate `IterationStats::apply_time` and time
/// their scatters into `scatter_time` the same way, with [`timed`];
/// nesting those timers inside the engine's own compute timing keeps
/// `scatter_time + apply_time <= compute_time` by construction.
#[expect(
    clippy::too_many_arguments,
    reason = "apply_range's eight arguments plus the elapsed accumulator"
)]
pub fn apply_range_timed<P: VertexProgram>(
    program: &P,
    ctx: &ProgramContext,
    range: std::ops::Range<u32>,
    apply_all: bool,
    touched: &Frontier,
    accum: &ValueArray<P::Accum>,
    values: &ValueArray<P::Value>,
    out: &Frontier,
    elapsed: &mut std::time::Duration,
) -> u64 {
    timed(elapsed, || {
        apply_range(program, ctx, range, apply_all, touched, accum, values, out)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::InitialFrontier;
    use std::sync::Arc;

    /// In-degree counting in one round.
    struct InDegree;
    impl VertexProgram for InDegree {
        type Value = u32;
        type Accum = u32;
        fn name(&self) -> &'static str {
            "in-degree"
        }
        fn init_value(&self, _: u32, _: &ProgramContext) -> u32 {
            0
        }
        fn zero_accum(&self) -> u32 {
            0
        }
        fn scatter(&self, _: u32, _: u32, _: f32, _: &ProgramContext) -> Option<u32> {
            Some(1)
        }
        fn combine(&self, a: u32, b: u32) -> u32 {
            a + b
        }
        fn apply(&self, _: u32, old: u32, accum: u32, _: &ProgramContext) -> Option<u32> {
            (accum > 0).then_some(old + accum)
        }
        fn initial_frontier(&self, _: &ProgramContext) -> InitialFrontier {
            InitialFrontier::All
        }
    }

    fn ctx(n: u32) -> ProgramContext {
        ProgramContext::new(n, Arc::new(vec![0; n as usize]))
    }

    fn star_edges(n: u32) -> Vec<Edge> {
        (1..n).map(|v| Edge::new(v, 0)).collect()
    }

    #[test]
    fn scatter_counts_in_degree() {
        let n = 1000u32;
        let ctx = ctx(n);
        let p = InDegree;
        let values = ValueArray::new(n as usize, 0u32);
        let accum = ValueArray::new(n as usize, 0u32);
        let touched = Frontier::empty(n);
        let delivered = scatter_edges(&p, &ctx, &star_edges(n), None, &values, &accum, &touched);
        assert_eq!(delivered, (n - 1) as u64);
        assert_eq!(accum.get(0), n - 1);
        assert_eq!(touched.count(), 1);
    }

    #[test]
    fn scatter_respects_source_filter() {
        let n = 100u32;
        let ctx = ctx(n);
        let p = InDegree;
        let values = ValueArray::new(n as usize, 0u32);
        let accum = ValueArray::new(n as usize, 0u32);
        let touched = Frontier::empty(n);
        let filter = Frontier::from_seeds(n, &[1, 2, 3]);
        let delivered = scatter_edges(
            &p,
            &ctx,
            &star_edges(n),
            Some(&filter),
            &values,
            &accum,
            &touched,
        );
        assert_eq!(delivered, 3);
        assert_eq!(accum.get(0), 3);
    }

    #[test]
    fn apply_commits_and_resets_accum() {
        let n = 10u32;
        let ctx = ctx(n);
        let p = InDegree;
        let values = ValueArray::new(n as usize, 0u32);
        let accum = ValueArray::new(n as usize, 0u32);
        accum.set(4, 7);
        let touched = Frontier::from_seeds(n, &[4, 5]);
        let out = Frontier::empty(n);
        let changed = apply_range(&p, &ctx, 0..n, false, &touched, &accum, &values, &out);
        // vertex 4 changes; vertex 5 touched but accum 0 -> apply None.
        assert_eq!(changed, 1);
        assert_eq!(values.get(4), 7);
        assert_eq!(accum.get(4), 0, "accumulator reset");
        assert!(out.contains(4));
        assert!(!out.contains(5));
    }

    #[test]
    fn apply_all_visits_untouched() {
        struct SetOne;
        impl VertexProgram for SetOne {
            type Value = u32;
            type Accum = u32;
            fn name(&self) -> &'static str {
                "set-one"
            }
            fn init_value(&self, _: u32, _: &ProgramContext) -> u32 {
                0
            }
            fn zero_accum(&self) -> u32 {
                0
            }
            fn scatter(&self, _: u32, _: u32, _: f32, _: &ProgramContext) -> Option<u32> {
                None
            }
            fn combine(&self, a: u32, b: u32) -> u32 {
                a + b
            }
            fn apply(&self, _: u32, _: u32, accum: u32, _: &ProgramContext) -> Option<u32> {
                Some(accum + 1)
            }
            fn initial_frontier(&self, _: &ProgramContext) -> InitialFrontier {
                InitialFrontier::All
            }
            fn apply_all(&self) -> bool {
                true
            }
        }
        let n = 8u32;
        let ctx = ctx(n);
        let values = ValueArray::new(n as usize, 0u32);
        let accum = ValueArray::new(n as usize, 0u32);
        let touched = Frontier::empty(n);
        let out = Frontier::empty(n);
        let changed = apply_range(&SetOne, &ctx, 0..n, true, &touched, &accum, &values, &out);
        assert_eq!(changed, n as u64);
        assert!(values.snapshot().iter().all(|&x| x == 1));
    }

    #[test]
    fn apply_range_restricts_to_range() {
        let n = 10u32;
        let ctx = ctx(n);
        let p = InDegree;
        let values = ValueArray::new(n as usize, 0u32);
        let accum = ValueArray::new(n as usize, 0u32);
        accum.set(2, 5);
        accum.set(8, 5);
        let touched = Frontier::from_seeds(n, &[2, 8]);
        let out = Frontier::empty(n);
        apply_range(&p, &ctx, 0..5, false, &touched, &accum, &values, &out);
        assert_eq!(values.get(2), 5);
        assert_eq!(values.get(8), 0, "outside range untouched");
        assert_eq!(accum.get(8), 5, "outside range accum preserved");
    }
}
