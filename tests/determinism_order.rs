//! Iteration-order determinism, pinned end to end.
//!
//! PR 8 converted the engine-visible `HashMap`s
//! (`MemStorage::objects`, the I/O cursor tables, the sub-block buffer's
//! residency map) to ordered `BTreeMap`s. These pins prove the
//! conversion was *fingerprint-neutral*: the hashes below were captured
//! on the tree **before** the data-structure change and must keep
//! matching after it — committed values, iteration counts, model
//! choices, and byte-for-byte I/O accounting (seq/rand classification,
//! virtual clock) are all folded in. A hash move here means iteration
//! order leaked into results or `RunStats`.
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

/// FNV-1a over the debug rendering of everything a run produces except
/// wall-clock durations. Debug formatting of `f64` is the shortest
/// round-trip representation, so identical bit patterns hash
/// identically and any bit flip moves the hash.
fn fingerprint<V: Clone + PartialEq + std::fmt::Debug>(r: &RunResult<V>) -> u64 {
    let rendered = format!(
        "{:?}",
        (
            &r.values,
            r.stats.iterations,
            r.stats.io,
            r.stats.buffer_hits,
            r.stats.buffer_hit_bytes,
            r.stats.cross_iter_edges,
            r.stats
                .per_iteration
                .iter()
                .map(|it| (it.iteration, it.model, it.frontier, it.io))
                .collect::<Vec<_>>(),
        )
    );
    graphsd::integrity::fnv64(rendered.as_bytes())
}

fn run<P: VertexProgram>(graph: &Graph, p: u32, config: GraphSdConfig, program: &P) -> u64
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
/// configurations must also agree with each other.
fn assert_pinned<P: VertexProgram>(
    name: &str,
    graph: &Graph,
    p: u32,
    config: GraphSdConfig,
    program: &P,
    want: u64,
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
        sync, want,
        "{name}: fingerprint moved — iteration order leaked into results \
         or RunStats (update the pin ONLY for an intended semantic change)"
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

// Captured on the pre-remediation tree (HashMap-based storage cursors,
// object store and sub-block buffer) — see module docs.
const PIN_PAGERANK: u64 = 18328943462899757227;
const PIN_BFS: u64 = 2940861909851439057;
const PIN_CC: u64 = 13095771009067092910;
