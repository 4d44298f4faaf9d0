//! Iteration-order determinism, pinned end to end.
//!
//! PR 8 converted the engine-visible `HashMap`s
//! (`MemStorage::objects`, the I/O cursor tables, the sub-block buffer's
//! residency map) to ordered `BTreeMap`s. These pins prove such changes
//! *fingerprint-neutral*. Each shape carries two:
//!
//! * the **answer** pin — committed values, iteration count,
//!   per-iteration frontier sizes, cross-iteration edges served. A move
//!   here means iteration order leaked into results; no I/O-planning
//!   change may touch it.
//! * the **traffic** pin — byte-for-byte I/O accounting (seq/rand
//!   classification, virtual clock), buffer hits, per-iteration model
//!   choice and I/O. It moves when a change intends to read differently,
//!   and is then re-pinned with the reason next to the constant.
//!
//! The shapes deliberately run under a tight memory budget so the
//! sub-block buffer admits *and evicts* through the converted map, and
//! with the prefetch pipeline both off and on. One more shape checks the
//! stream pass's one unplanned read — a buffered block that an offer
//! earlier in the pass evicted before its visit — by its answer.

use graphsd::algos::{Bfs, ConnectedComponents, PageRank};
use graphsd::core::{GraphSdConfig, GraphSdEngine, PipelineConfig};
use graphsd::graph::{preprocess, GeneratorConfig, Graph, GraphKind, GridGraph, PreprocessConfig};
use graphsd::io::{DiskModel, SharedStorage, SimDisk, Storage};
use graphsd::runtime::{
    value_fingerprint, Engine, ReferenceEngine, RunOptions, RunResult, VertexProgram,
};
use graphsd::trace::{RingRecorder, TraceEvent};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The two pins of one shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pins {
    answer: u64,
    traffic: u64,
}

/// FNV-1a over the debug rendering of everything a run produces except
/// wall-clock durations, split into what was computed and what was read.
/// Debug formatting of `f64` is the shortest round-trip representation,
/// so identical bit patterns hash identically and any bit flip moves the
/// hash.
fn fingerprint<V: Clone + PartialEq + std::fmt::Debug>(r: &RunResult<V>) -> Pins {
    let per_iteration = &r.stats.per_iteration;
    let answer = format!(
        "{:?}",
        (
            &r.values,
            r.stats.iterations,
            r.stats.cross_iter_edges,
            per_iteration
                .iter()
                .map(|it| (it.iteration, it.frontier))
                .collect::<Vec<_>>(),
        )
    );
    let traffic = format!(
        "{:?}",
        (
            r.stats.io,
            r.stats.buffer_hits,
            r.stats.buffer_hit_bytes,
            per_iteration
                .iter()
                .map(|it| (it.iteration, it.model, it.io))
                .collect::<Vec<_>>(),
        )
    );
    Pins {
        answer: graphsd::integrity::fnv64(answer.as_bytes()),
        traffic: graphsd::integrity::fnv64(traffic.as_bytes()),
    }
}

/// What the sub-block buffer did in a traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BufferTrace {
    /// Residents evicted.
    evictions: usize,
    /// Loads of a block evicted earlier in the same pass. A pass visits
    /// a block once, and only a resident can be evicted, so such a block
    /// was resident when the pass was planned: the plan left it to the
    /// buffer, and the pass read it after all.
    fallback_loads: usize,
}

fn buffer_trace(events: &[TraceEvent]) -> BufferTrace {
    let mut evicted = BTreeSet::new();
    let mut trace = BufferTrace {
        evictions: 0,
        fallback_loads: 0,
    };
    for event in events {
        if let TraceEvent::IterationStart { .. } = event {
            // Every stream pass is an iteration of its own.
            evicted.clear();
        } else if let TraceEvent::BufferEviction { i, j, .. } = *event {
            trace.evictions += 1;
            evicted.insert((i, j));
        } else if let TraceEvent::BlockLoad { i, j, .. } = *event {
            trace.fallback_loads += usize::from(evicted.contains(&(i, j)));
        }
    }
    trace
}

/// Runs `program` on `graph` at `p` intervals on the HDD model, under
/// `config` with a budget of `budget(edge bytes of the grid)`, traced.
fn traced_run<P: VertexProgram>(
    graph: &Graph,
    p: u32,
    config: GraphSdConfig,
    budget: impl Fn(u64) -> u64,
    program: &P,
) -> (RunResult<P::Value>, BufferTrace) {
    let storage: SharedStorage = Arc::new(SimDisk::new(DiskModel::hdd()));
    preprocess(
        graph,
        storage.as_ref(),
        &PreprocessConfig::graphsd("").with_intervals(p),
    )
    .unwrap();
    let grid = GridGraph::open(storage).unwrap();
    let config = config.with_memory_budget(budget(grid.meta().total_edge_bytes()));
    let mut engine = GraphSdEngine::new(grid, config).unwrap();
    let ring = Arc::new(RingRecorder::new(1 << 20));
    engine.set_trace(ring.clone());
    let result = engine.run(program, &RunOptions::default()).unwrap();
    assert_eq!(ring.dropped(), 0, "the ring holds the whole run");
    (result, buffer_trace(&ring.events()))
}

fn run<P: VertexProgram>(
    graph: &Graph,
    p: u32,
    config: GraphSdConfig,
    budget: u64,
    program: &P,
) -> (Pins, BufferTrace)
where
    P::Value: Clone + PartialEq + std::fmt::Debug,
{
    let (result, trace) = traced_run(graph, p, config, |_| budget, program);
    (fingerprint(&result), trace)
}

/// One shape, prefetch off and on under a `budget`-byte memory budget:
/// both pins must hold, and the two configurations must also agree with
/// each other on both and on what the buffer did, which is returned.
fn assert_pinned<P: VertexProgram>(
    name: &str,
    graph: &Graph,
    p: u32,
    budget: u64,
    program: &P,
    want: Pins,
) -> BufferTrace
where
    P::Value: Clone + PartialEq + std::fmt::Debug,
{
    let config = GraphSdConfig::full();
    let (sync, trace) = run(graph, p, config.clone().without_prefetch(), budget, program);
    let piped = run(
        graph,
        p,
        config.with_prefetch(PipelineConfig::with_depth(2)),
        budget,
        program,
    );
    assert_eq!(
        (sync, trace),
        piped,
        "{name}: prefetch must not change the run"
    );
    assert_eq!(
        sync.answer, want.answer,
        "{name}: answer moved — iteration order leaked into results \
         (update the pin ONLY for an intended semantic change)"
    );
    assert_eq!(
        sync.traffic, want.traffic,
        "{name}: traffic moved — the run reads differently (re-pin with \
         the reason if that is what the change intends)"
    );
    trace
}

#[test]
fn pagerank_fingerprint_is_pinned_under_eviction_pressure() {
    let g = GeneratorConfig::new(GraphKind::RMat, 900, 9000, 31).generate();
    // The FCIU pass's working block takes the largest block (12 092 B of
    // the grid's 36 000) off the budget; 18 KiB leaves the buffer about
    // 6 KiB, small enough that sub-blocks are admitted and evicted
    // through the buffer's residency map.
    let trace = assert_pinned(
        "pagerank",
        &g,
        4,
        18 * 1024,
        &PageRank::paper(),
        PIN_PAGERANK,
    );
    assert!(trace.evictions > 0, "{trace:?}");
}

#[test]
fn bfs_fingerprint_is_pinned_on_web_locality() {
    let g = GeneratorConfig::new(GraphKind::WebLocality, 1500, 12_000, 7).generate();
    assert_pinned("bfs", &g, 4, 16 * 1024, &Bfs::new(0), PIN_BFS);
}

#[test]
fn cc_fingerprint_is_pinned_on_symmetrized_rmat() {
    let g = GeneratorConfig::new(GraphKind::RMat, 700, 5600, 13)
        .generate()
        .symmetrized();
    assert_pinned("cc", &g, 3, 8 * 1024, &ConnectedComponents, PIN_CC);
}

/// The stream pass plans no read for a secondary block the buffer holds;
/// if an offer earlier in the pass evicts it, the pass reads it when it
/// gets there. On this shape that happens, and the run still reaches the
/// in-memory oracle's components, with the prefetch pipeline off and on.
#[test]
fn a_block_evicted_before_its_visit_is_read_and_the_answer_holds() {
    let g = GeneratorConfig::new(GraphKind::RMat, 2000, 20_000, 5)
        .generate()
        .symmetrized();
    let want = ReferenceEngine::new(&g)
        .run(&ConnectedComponents, &RunOptions::default())
        .unwrap();
    for config in [
        GraphSdConfig::full().without_prefetch(),
        GraphSdConfig::full().with_prefetch(PipelineConfig::with_depth(2)),
    ] {
        // A third of the edge bytes: the buffer holds some secondary
        // blocks, and later offers displace some of them.
        let (got, trace) = traced_run(
            &g,
            6,
            config,
            |edge_bytes| edge_bytes / 3,
            &ConnectedComponents,
        );
        assert!(trace.fallback_loads > 0, "{trace:?}");
        assert_eq!(
            value_fingerprint(&got.values),
            value_fingerprint(&want.values)
        );
    }
}

/// `MemStorage::list_keys` must come back sorted: scrub/recovery walk
/// the key list, and a nondeterministic walk order shows up as run-to-
/// run diffs in trace and repair logs.
#[test]
fn mem_storage_key_listing_is_sorted() {
    let store = graphsd::io::MemStorage::new();
    for key in ["zeta", "alpha", "mid/b", "mid/a", "omega"] {
        store.create(key, &[1, 2, 3]).unwrap();
    }
    let keys = store.list_keys();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "list_keys must be deterministic and sorted");
}

// Answer pins: computed on the tree before PR 19 (request planning)
// with this file's split fingerprint, equal after it.
//
// Traffic pins re-pinned when `IoStatsSnapshot` lost its two always-zero
// retry counters: the traffic string hashes its `{:?}`, which no longer
// renders `, retried_ops: 0, gave_up_ops: 0`. Each new pin is FNV-1a of
// the previous tree's traffic string with that text removed; no count
// moved. (Before: PageRank 9157009749462319285, BFS 13376574458534597123,
// CC 2516963325648787409. BFS had been re-pinned once before, from
// 15734597810668172377, when the full passes began skipping sub-blocks
// with no active source and the on-demand runs began bridging sub-seek
// gaps.)
//
// Traffic pins re-pinned again when edge records began storing
// interval-relative ids, 2 bytes wide on these grids: every block is half
// as long, so every byte count moves (before: PageRank
// 11949479058976950195, BFS 14574033794613014671, CC
// 9391025342219933238). PageRank's budget moved from 6 KiB to 18 KiB at
// the same time: 6 KiB was below its largest block even at 8 bytes per
// edge, so its buffer had held nothing; at 18 KiB it admits and evicts.
// BFS's answer pin moved with it (before: 17937542940398426127), because
// it hashes the cross-iteration edge count: with half the bytes to
// stream, the scheduler runs iterations 5 and 6 under the full model
// instead of on demand, and their FCIU passes serve 73 edges across
// iterations where the on-demand passes served 24. The values, the
// iteration count and every iteration's frontier are unchanged.
//
// BFS's traffic pin re-pinned when the row index began storing only the
// columns of non-empty sub-blocks, with 2-byte offsets where every block
// of the row holds at most 65 535 edges (format v8): its on-demand
// iterations read narrower index spans, so the run reads 84 444 bytes
// instead of 84 624, in the same 24 requests (before:
// 7863062781661747504). PageRank and CC read no row index here.
const PIN_PAGERANK: Pins = Pins {
    answer: 8609675645980343636,
    traffic: 8878452615095500408,
};
const PIN_BFS: Pins = Pins {
    answer: 2099908315445181259,
    traffic: 5010987214176376155,
};
const PIN_CC: Pins = Pins {
    answer: 12410300235809019003,
    traffic: 330061156262299469,
};
