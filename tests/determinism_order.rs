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
//! with the prefetch pipeline both off and on.

use graphsd::algos::{Bfs, ConnectedComponents, PageRank};
use graphsd::core::{GraphSdConfig, GraphSdEngine, PipelineConfig};
use graphsd::graph::{preprocess, GeneratorConfig, Graph, GraphKind, GridGraph, PreprocessConfig};
use graphsd::io::{DiskModel, SharedStorage, SimDisk, Storage};
use graphsd::runtime::{Engine, RunOptions, RunResult, VertexProgram};
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

fn run<P: VertexProgram>(graph: &Graph, p: u32, config: GraphSdConfig, program: &P) -> Pins
where
    P::Value: Clone + PartialEq + std::fmt::Debug,
{
    let storage: SharedStorage = Arc::new(SimDisk::new(DiskModel::hdd()));
    preprocess(
        graph,
        storage.as_ref(),
        &PreprocessConfig::graphsd("").with_intervals(p),
    )
    .unwrap();
    let mut engine = GraphSdEngine::new(GridGraph::open(storage).unwrap(), config).unwrap();
    fingerprint(&engine.run(program, &RunOptions::default()).unwrap())
}

/// One shape, prefetch off and on: both pins must hold, and the two
/// configurations must also agree with each other on both.
fn assert_pinned<P: VertexProgram>(
    name: &str,
    graph: &Graph,
    p: u32,
    config: GraphSdConfig,
    program: &P,
    want: Pins,
) where
    P::Value: Clone + PartialEq + std::fmt::Debug,
{
    let sync = run(graph, p, config.clone().without_prefetch(), program);
    let piped = run(
        graph,
        p,
        config.with_prefetch(PipelineConfig::with_depth(2)),
        program,
    );
    assert_eq!(sync, piped, "{name}: prefetch must not change the run");
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
}

#[test]
fn pagerank_fingerprint_is_pinned_under_eviction_pressure() {
    let g = GeneratorConfig::new(GraphKind::RMat, 900, 9000, 31).generate();
    // ~6KB budget: small enough that sub-blocks are admitted and evicted
    // through the buffer's residency map every iteration.
    assert_pinned(
        "pagerank",
        &g,
        4,
        GraphSdConfig::full().with_memory_budget(6 * 1024),
        &PageRank::paper(),
        PIN_PAGERANK,
    );
}

#[test]
fn bfs_fingerprint_is_pinned_on_web_locality() {
    let g = GeneratorConfig::new(GraphKind::WebLocality, 1500, 12_000, 7).generate();
    assert_pinned(
        "bfs",
        &g,
        4,
        GraphSdConfig::full().with_memory_budget(16 * 1024),
        &Bfs::new(0),
        PIN_BFS,
    );
}

#[test]
fn cc_fingerprint_is_pinned_on_symmetrized_rmat() {
    let g = GeneratorConfig::new(GraphKind::RMat, 700, 5600, 13)
        .generate()
        .symmetrized();
    assert_pinned(
        "cc",
        &g,
        3,
        GraphSdConfig::full().with_memory_budget(8 * 1024),
        &ConnectedComponents,
        PIN_CC,
    );
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
const PIN_PAGERANK: Pins = Pins {
    answer: 8609675645980343636,
    traffic: 11949479058976950195,
};
const PIN_BFS: Pins = Pins {
    answer: 17937542940398426127,
    traffic: 14574033794613014671,
};
const PIN_CC: Pins = Pins {
    answer: 12410300235809019003,
    traffic: 9391025342219933238,
};
