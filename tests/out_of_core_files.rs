//! Genuine out-of-core operation: the full pipeline (parse → preprocess →
//! run) against real files on disk through [`FileStorage`], including
//! format persistence across "process restarts" (re-opening the store).

use gsd_algos::{ConnectedComponents, PageRank, Sssp};
use gsd_core::{GraphSdConfig, GraphSdEngine};
use gsd_graph::{parse_edge_list, preprocess, preprocess_text, GridGraph, PreprocessConfig};
use gsd_io::{FileStorage, SharedStorage, Storage, TempDir};
use gsd_runtime::{Engine, ReferenceEngine, RunOptions};
use std::sync::Arc;

fn sample_edge_list() -> String {
    // A deterministic graph with two lobes and a weighted bridge.
    let mut text = String::from("# sample\n");
    for v in 0..40u32 {
        text.push_str(&format!("{} {}\n", v, (v + 1) % 40));
        text.push_str(&format!("{} {}\n", v, (v + 7) % 40));
    }
    for v in 40..60u32 {
        text.push_str(&format!("{} {}\n", v, 40 + (v + 1) % 20));
    }
    text.push_str("39 40\n40 39\n");
    text
}

#[test]
fn end_to_end_on_real_files() {
    let dir = TempDir::new("gsd-e2e").unwrap();
    let storage: SharedStorage = Arc::new(FileStorage::open(dir.path()).unwrap());

    let (meta, report) = preprocess_text(
        sample_edge_list().as_bytes(),
        storage.as_ref(),
        &PreprocessConfig::graphsd("").with_intervals(4),
    )
    .unwrap();
    assert_eq!(meta.p, 4);
    assert!(report.bytes_written > 0);
    assert!(dir.path().join("blocks").is_dir(), "real files on disk");

    let grid = GridGraph::open(storage.clone()).unwrap();
    let mut engine = GraphSdEngine::new(grid, GraphSdConfig::full()).unwrap();
    let result = engine
        .run(&ConnectedComponents, &RunOptions::default())
        .unwrap();

    let graph = parse_edge_list(sample_edge_list().as_bytes()).unwrap();
    let want = ReferenceEngine::new(&graph)
        .run(&ConnectedComponents, &RunOptions::default())
        .unwrap()
        .values;
    assert_eq!(result.values, want);
    // The bridge 39<->40 joins everything into one component.
    assert!(result.values.iter().all(|&l| l == 0));
    // Real I/O was counted.
    assert!(result.stats.io.read_bytes() > 0);
    assert!(result.stats.io_time > std::time::Duration::ZERO);
}

#[test]
fn format_survives_reopening_the_store() {
    let dir = TempDir::new("gsd-reopen").unwrap();
    let graph = parse_edge_list(sample_edge_list().as_bytes()).unwrap();
    {
        let storage: SharedStorage = Arc::new(FileStorage::open(dir.path()).unwrap());
        preprocess(
            &graph,
            storage.as_ref(),
            &PreprocessConfig::graphsd("").with_intervals(3),
        )
        .unwrap();
    } // "process exit"

    let storage: SharedStorage = Arc::new(FileStorage::open(dir.path()).unwrap());
    let grid = GridGraph::open(storage).unwrap();
    assert_eq!(grid.num_edges(), graph.num_edges());
    let mut engine = GraphSdEngine::new(grid, GraphSdConfig::full()).unwrap();
    let result = engine
        .run(&PageRank::with_iterations(3), &RunOptions::default())
        .unwrap();
    let want = ReferenceEngine::new(&graph)
        .run(&PageRank::with_iterations(3), &RunOptions::default())
        .unwrap()
        .values;
    for (a, b) in result.values.iter().zip(want.iter()) {
        assert!((a - b).abs() < 1e-4);
    }
}

#[test]
fn weighted_run_on_files() {
    let dir = TempDir::new("gsd-weighted").unwrap();
    let storage: SharedStorage = Arc::new(FileStorage::open(dir.path()).unwrap());
    let text = "0 1 0.5\n1 2 0.25\n0 2 1.0\n2 3 0.125\n";
    preprocess_text(
        text.as_bytes(),
        storage.as_ref(),
        &PreprocessConfig::graphsd("").with_intervals(2),
    )
    .unwrap();
    let grid = GridGraph::open(storage).unwrap();
    assert!(grid.meta().weighted);
    let mut engine = GraphSdEngine::new(grid, GraphSdConfig::full()).unwrap();
    let result = engine.run(&Sssp::new(0), &RunOptions::default()).unwrap();
    assert_eq!(result.values, vec![0.0, 0.5, 0.75, 0.875]);
}

#[test]
fn two_formats_share_one_directory() {
    let dir = TempDir::new("gsd-shared").unwrap();
    let storage: SharedStorage = Arc::new(FileStorage::open(dir.path()).unwrap());
    let graph = parse_edge_list(sample_edge_list().as_bytes()).unwrap();
    preprocess(
        &graph,
        storage.as_ref(),
        &PreprocessConfig::graphsd("main/").with_intervals(2),
    )
    .unwrap();
    let (lumos_grid, _) =
        gsd_baselines::build_lumos_format(&graph, &storage, "lumos/", Some(2)).unwrap();
    let main = GridGraph::open_with_prefix(storage.clone(), "main/").unwrap();
    assert_eq!(main.num_edges(), lumos_grid.num_edges());
    assert!(main.meta().order.has_row_index());
    assert!(!lumos_grid.meta().order.has_row_index());
    // Keys are disjoint namespaces.
    let keys = storage.list_keys();
    assert!(keys.iter().any(|k| k.starts_with("main/")));
    assert!(keys.iter().any(|k| k.starts_with("lumos/")));
}

/// A reader that closes the pipe early (`gsd info dir | head -1`) ends
/// the command quietly; `println!` used to panic on the broken pipe and
/// exit 101 with a backtrace.
#[test]
fn a_closed_stdout_does_not_panic_the_cli() {
    let dir = TempDir::new("gsd-epipe").unwrap();
    let storage: SharedStorage = Arc::new(FileStorage::open(dir.path()).unwrap());
    preprocess_text(
        sample_edge_list().as_bytes(),
        storage.as_ref(),
        &PreprocessConfig::graphsd("").with_intervals(2),
    )
    .unwrap();
    // The read end is gone before the command writes its first line.
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_gsd"))
        .arg("info")
        .arg(dir.path())
        .stdout(writer)
        .status()
        .unwrap();
    assert_eq!(status.code(), Some(0), "{status:?}");
}

/// A flag the verb does not read fails the command before it does any
/// work: a misspelt `--verfiy full` used to run unverified, and a retired
/// flag would be accepted and do nothing.
#[test]
fn a_flag_the_verb_does_not_read_is_rejected() {
    let dir = TempDir::new("gsd-flags").unwrap();
    let storage: SharedStorage = Arc::new(FileStorage::open(dir.path()).unwrap());
    preprocess_text(
        sample_edge_list().as_bytes(),
        storage.as_ref(),
        &PreprocessConfig::graphsd("").with_intervals(2),
    )
    .unwrap();
    let grid = dir.path().to_str().unwrap();
    for (args, want) in [
        (
            &["run", grid, "pagerank", "--verfiy", "full"][..],
            "unknown flag --verfiy for run",
        ),
        (
            &["run", grid, "pagerank", "--on-corruption", "retry"],
            "unknown flag --on-corruption for run",
        ),
        (&["info", grid, "--top", "3"], "unknown flag --top for info"),
        (
            &["scrub", grid, "--repiar"],
            "unknown flag --repiar for scrub",
        ),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_gsd"))
            .args(args)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(want), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} did work before failing");
    }
}

/// `ingest --recompute` warm-starts from a converged run, so it takes no
/// `--iterations`: a capped warm run is not a state an incremental run
/// can finish from, and the flag used to cap it silently. Uncapped, the
/// incremental fingerprint is the one an empty-batch re-run of the
/// compacted grid prints.
#[test]
fn ingest_recompute_takes_no_iteration_cap_and_matches_a_rerun() {
    let dir = TempDir::new("gsd-ingest-recompute").unwrap();
    let gsd = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_gsd"))
            .current_dir(dir.path())
            .args(args)
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        (out.status.code(), stdout, stderr)
    };
    let ok = |args: &[&str]| {
        let (code, stdout, stderr) = gsd(args);
        assert_eq!(code, Some(0), "{args:?}: {stderr}");
        stdout
    };
    let fingerprint = |stdout: &str| {
        let at = stdout
            .find("value fingerprint ")
            .expect("a fingerprint line");
        stdout[at..].lines().next().unwrap().to_string()
    };
    ok(&[
        "generate",
        "rmat",
        "2000",
        "16000",
        "edges.txt",
        "--seed",
        "11",
    ]);
    ok(&["preprocess", "edges.txt", "grid"]);
    let files = FileStorage::open(dir.path()).unwrap();
    files
        .create(
            "batch.txt",
            b"+ 0 1990\n+ 0 1991 0.5\n+ 17 1992\n- 3 1\n- 10 4\n",
        )
        .unwrap();
    files.create("empty.txt", b"").unwrap();

    let recompute = [
        "ingest",
        "grid",
        "batch.txt",
        "--recompute",
        "bfs",
        "--source",
        "0",
    ];
    let (code, stdout, stderr) = gsd(&[&recompute[..], &["--iterations", "1"]].concat());
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains("unknown flag --iterations for ingest"),
        "{stderr}"
    );
    assert!(stdout.is_empty(), "ingest did work before failing");

    let incremental = fingerprint(&ok(&recompute));
    ok(&["compact", "grid"]);
    let rerun = ok(&[
        "ingest",
        "grid",
        "empty.txt",
        "--recompute",
        "bfs",
        "--source",
        "0",
    ]);
    assert_eq!(incremental, fingerprint(&rerun));
}

/// A `--datasets` name that matches no stand-in is a usage error naming
/// the five; it used to run zero cells, write an empty report and exit 0.
#[test]
fn bench_rejects_an_unknown_dataset_name() {
    let dir = TempDir::new("gsd-bench-datasets").unwrap();
    let report = dir.path().join("BENCH.json");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_gsd"))
        .args([
            "bench",
            "--scale",
            "tiny",
            "--datasets",
            "twiter_sim",
            "--out",
        ])
        .arg(&report)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("twiter_sim")
            && stderr.contains("twitter_sim|sk_sim|uk_sim|ukunion_sim|kron_sim"),
        "{stderr}"
    );
    assert!(!report.exists(), "a report was written");
}

/// `gsd experiments` runs the paper harness: known ids print their
/// tables, an unknown id fails naming itself and the known ones, and a
/// flag it does not read is rejected.
#[test]
fn experiments_verb_runs_known_ids_and_rejects_the_rest() {
    let gsd = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_gsd"))
            .arg("experiments")
            .args(args)
            .output()
            .unwrap()
    };
    let out = gsd(&["--scale", "tiny", "table3"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("== Table 3"));

    let out = gsd(&["--scale", "tiny", "nope"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("\"nope\""), "{stderr}");
    assert!(stderr.contains("table1 table3 table4 fig5"), "{stderr}");
    assert!(out.stdout.is_empty(), "an unknown id ran the others first");

    let out = gsd(&["--bogus"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("unknown flag --bogus for experiments"),
        "{stderr}"
    );
}

/// A switch never takes the next argument: `generate --weighted grid …`
/// used to read `grid` as the switch's value and fail for want of a
/// kind, and `preprocess --degree-balanced <edges> <dir>` failed the same
/// way. Where a switch stands does not change what the command does.
#[test]
fn a_switch_does_not_swallow_the_next_positional() {
    let dir = TempDir::new("gsd-switches").unwrap();
    let gsd = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_gsd"))
            .current_dir(dir.path())
            .args(args)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
    };
    gsd(&["generate", "--weighted", "grid", "100", "200", "first.txt"]);
    gsd(&["generate", "grid", "100", "200", "last.txt", "--weighted"]);
    let files = FileStorage::open(dir.path()).unwrap();
    let first = files.read_all("first.txt").unwrap();
    assert!(!first.is_empty());
    assert_eq!(first, files.read_all("last.txt").unwrap());
    gsd(&["preprocess", "--degree-balanced", "first.txt", "data"]);
}
