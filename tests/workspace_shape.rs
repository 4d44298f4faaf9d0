//! The workspace's shape, held by tier-1: every dependency edge has a
//! reader, the facade keeps the paths `benchmark/` imports, and the
//! seeded generator stream — which every generated graph,
//! `tests/determinism_order.rs` and `ci/bench_baseline.json` pin — does
//! not move.

#![expect(
    clippy::disallowed_methods,
    reason = "test: reads the checked-in manifests and sources"
)]

use graphsd::bench::{Datasets, Scale};
use graphsd::graph::{EdgeCodec, GeneratorConfig, Graph, GraphKind};
use graphsd::integrity::fnv64;
use std::path::{Path, PathBuf};

// (b) Every `graphsd::…` path `benchmark/src/**/*.rs` imports
// (benchmark/README.md lists them). Compile-only: a facade break fails
// `cargo test -q` here instead of the benchmark build.
#[allow(
    unused_imports,
    reason = "importing the paths is the whole test; nothing is called"
)]
mod benchmark_surface {
    use graphsd::algos::{Bfs, PageRank, Sssp};
    use graphsd::baselines::{
        build_hus_format, build_lumos_format, GridStreamEngine, HusFormat, HusGraphEngine,
        LumosEngine,
    };
    use graphsd::core::{
        GraphSdConfig, GraphSdEngine, GridSession, PipelineConfig, RecoveryConfig, Scheduler,
        SchedulerDecision, SubBlockBuffer,
    };
    use graphsd::delta::{compact, incremental_run, ingest, MutationBatch};
    use graphsd::graph::{
        preprocess, scrub_grid, CorruptionResponse, DeltaOp, Edge, GeneratorConfig, Graph,
        GraphKind, GridGraph, GridMeta, PreprocessConfig, PreprocessReport, VerifyPolicy,
    };
    use graphsd::integrity::{crc32, fnv64};
    use graphsd::io::{
        DiskModel, FileStorage, IoStats, IoStatsSnapshot, MemStorage, SharedStorage, Storage,
        TempDir,
    };
    use graphsd::pipeline::{PrefetchExecutor, PrefetchRequest};
    use graphsd::recover::{CheckpointData, CheckpointStore, ManifestTag};
    use graphsd::runtime::kernels::{apply_range, scatter_edges};
    use graphsd::runtime::{
        Engine, Frontier, IoAccessModel, ProgramContext, ReferenceEngine, RunOptions, RunStats,
        Value, ValueArray, VertexProgram,
    };
    use graphsd::serve::{
        serve_tcp, Request, Response, ServeCore, ServeCounters, Server, TcpClient,
    };
    use graphsd::trace::{null_sink, AccessModel, CounterRegistry, TraceEvent, TraceSink};
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// One member's text, split the way its two dependency tables are: what
/// `[dependencies]` must serve (each `src` file up to its first
/// `#[cfg(test)]`, line comments dropped) and what `[dev-dependencies]`
/// may serve (the rest of `src` — doc tests included — plus `tests/`,
/// `examples/` and `benches/`).
fn member_text(root: &Path) -> (String, String) {
    let (mut code, mut tests) = (String::new(), String::new());
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    for file in files {
        let text = std::fs::read_to_string(&file).unwrap();
        let split = text.find("#[cfg(test)]").unwrap_or(text.len());
        for line in text[..split].lines() {
            let (kept, comment) = line.split_at(line.find("//").unwrap_or(line.len()));
            code.push_str(kept);
            code.push('\n');
            tests.push_str(comment);
            tests.push('\n');
        }
        tests.push_str(&text[split..]);
    }
    let mut files = Vec::new();
    for dir in ["tests", "examples", "benches"] {
        rust_files(&root.join(dir), &mut files);
    }
    for file in files {
        // This file names crates in prose and in strings; it proves no edge.
        if file.ends_with("tests/workspace_shape.rs") {
            continue;
        }
        tests.push_str(&std::fs::read_to_string(&file).unwrap());
    }
    (code, tests)
}

/// Whether `text` names crate `name` as a path root: `name::…` or
/// `use name…`, with `name` a whole identifier. A bare word (a local
/// called `rand`) does not count.
fn names_crate(text: &str, name: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    text.match_indices(name).any(|(at, _)| {
        let before = &text[..at];
        let after = &text[at + name.len()..];
        if before.chars().next_back().is_some_and(is_ident)
            || after.chars().next().is_some_and(is_ident)
        {
            return false;
        }
        after.starts_with("::") || before.ends_with("use ") || before.ends_with("extern crate ")
    })
}

/// The crate names of one manifest table, as Rust spells them.
fn table_entries(manifest: &str, table: &str) -> Vec<String> {
    let header = format!("[{table}]");
    manifest
        .lines()
        .skip_while(|l| l.trim() != header)
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .filter_map(|l| {
            let l = l.trim();
            let key = l.split(['.', '=', ' ']).next()?;
            (!key.is_empty() && !l.starts_with('#')).then(|| key.replace('-', "_"))
        })
        .collect()
}

#[test]
fn every_dependency_edge_has_a_reader() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut members = vec![root.to_path_buf()];
    for entry in std::fs::read_dir(root.join("crates")).unwrap().flatten() {
        members.push(entry.path());
    }
    members.sort();
    let mut stale = Vec::new();
    for member in &members {
        let manifest = std::fs::read_to_string(member.join("Cargo.toml")).unwrap();
        let (code, tests) = member_text(member);
        let at = member.strip_prefix(root).unwrap().display().to_string();
        for dep in table_entries(&manifest, "dependencies") {
            if !names_crate(&code, &dep) {
                stale.push(format!("{at}/Cargo.toml [dependencies] {dep}"));
            }
        }
        for dep in table_entries(&manifest, "dev-dependencies") {
            if !names_crate(&tests, &dep) {
                stale.push(format!("{at}/Cargo.toml [dev-dependencies] {dep}"));
            }
        }
    }
    assert!(
        stale.is_empty(),
        "{} dependency entries name a crate their member never uses \
         (a test-only use belongs in [dev-dependencies]):\n{}",
        stale.len(),
        stale.join("\n")
    );
}

fn edge_hash(graph: &Graph) -> u64 {
    fnv64(&EdgeCodec::new(graph.is_weighted()).encode_all(graph.edges()))
}

// (c) Computed at the parent of the PR that replaced `vendor/rand` +
// `vendor/rand_chacha` with `gsd_graph::rng`, before the swap.
#[test]
fn the_seeded_generator_stream_is_pinned() {
    for (kind, unweighted, weighted) in [
        (GraphKind::RMat, 0x17c6a8685e60d173, 0xeab6b2a6b3232a2b),
        (GraphKind::Kronecker, 0x17c6a8685e60d173, 0xeab6b2a6b3232a2b),
        (
            GraphKind::ErdosRenyi,
            0x7923dd49d6ee20b7,
            0xe637b77f2ae5da99,
        ),
        (
            GraphKind::WebLocality,
            0xac0fced92a8dd92b,
            0x0412e923d2093f65,
        ),
        (GraphKind::Grid2d, 0xeedd5c8a8c18d921, 0x68f77f0afa95ea06),
    ] {
        let config = GeneratorConfig::new(kind, 900, 7_000, 2022);
        assert_eq!(edge_hash(&config.generate()), unweighted, "{kind:?}");
        assert_eq!(
            edge_hash(&config.weighted().generate()),
            weighted,
            "{kind:?} weighted"
        );
    }
    let datasets = Datasets::load(Scale::Tiny);
    let sssp_inputs: Vec<(&str, u64)> = datasets
        .all()
        .iter()
        .map(|ds| (ds.name, edge_hash(ds.weighted())))
        .collect();
    assert_eq!(
        sssp_inputs,
        [
            ("twitter_sim", 0xa065edf275b2bae4),
            ("sk_sim", 0xc5972bd6948fff5f),
            ("uk_sim", 0x589a241d16c4e28a),
            ("ukunion_sim", 0x0d269a119a7e8057),
            ("kron_sim", 0x19d65958131fb843),
        ]
    );
}
