//! # gsd-bench — paper tables, the counters gate and the trace fold
//!
//! Three reading jobs live here, each with one entry point. Wall time,
//! RSS, the serve and delta paths and the per-layer numbers are the
//! repository-root `benchmark/` package's job, not this crate's.
//!
//! **Counters gate** — [`wall::run_wall`], reached through `gsd bench`:
//! every (system, algorithm, dataset) cell once on real files, gated by
//! [`BenchReport::compare_deterministic`] on iterations, bytes moved,
//! read requests and prefetch events against `ci/bench_baseline.json`
//! ([`bench`] is that file's schema).
//!
//! **Trace fold** — [`report`]: the one accumulator over the trace
//! stream ([`TraceReport::apply`]). `gsd report` folds a JSONL file,
//! [`LiveReport`] a live process; folding is strictly observational
//! (`tests/metrics_neutrality.rs`).
//!
//! **Paper tables** — [`experiments`], on the simulated disk's virtual
//! clock: every table and figure of the paper's evaluation (§5) on the
//! scaled-down stand-in datasets, across the GraphSD engine, its §5.4
//! ablations, and the HUS-Graph-like / Lumos-like baselines:
//!
//! | id | paper item | harness |
//! |----|------------|---------|
//! | `table1` | optimization matrix | [`experiments::table1`] |
//! | `table3` | dataset inventory | [`experiments::table3`] |
//! | `table4` | GraphSD absolute execution times | [`experiments::table4`] |
//! | `fig5` | normalized time vs HUS-Graph / Lumos | [`experiments::fig5`] |
//! | `fig6` | runtime breakdown (I/O vs compute) | [`experiments::fig6`] |
//! | `fig7` | I/O traffic comparison | [`experiments::fig7`] |
//! | `fig8` | preprocessing time comparison | [`experiments::fig8`] |
//! | `fig9` | update-strategy ablation (b1/b2) | [`experiments::fig9`] |
//! | `fig10` | per-iteration scheduling (b3/b4) | [`experiments::fig10`] |
//! | `fig11` | scheduler overhead vs saved I/O | [`experiments::fig11`] |
//! | `fig12` | buffering effect | [`experiments::fig12`] |
//!
//! Run everything with `cargo run --release -p gsd-bench --bin experiments`
//! or a single item by appending its `<id>`; `--scale tiny|small|medium`
//! selects the workload scale (default `small`). Every other setting of a
//! run is a [`RunSettings`] argument built by [`RunFlags::parse`].

#![warn(missing_docs)]

pub mod bench;
pub mod datasets;
pub mod experiments;
// The fold runs live inside a traced process (`LiveReport`), so it keeps
// the hot-path crates' panic ban (DESIGN.md §11).
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
pub mod report;
pub mod runner;
pub mod settings;
pub mod table;
pub mod trace;
pub mod wall;

pub use bench::BenchReport;
pub use datasets::{Dataset, Datasets, Scale};
pub use report::TraceReport;
pub use runner::{Algo, RunOutcome, SystemKind};
pub use settings::{RunFlags, RunSettings};
pub use trace::{trace_sink, LiveReport, VerboseSink};
pub use wall::{run_wall, WallOptions};

/// Writes to standard output, for both binaries. A reader that closed the
/// pipe (`gsd info dir | head -3`) has seen enough: the process ends
/// quietly with status 0 where `println!` would panic. Any other write
/// error is the caller's to report.
pub fn stdout_write(args: std::fmt::Arguments<'_>) -> Result<(), String> {
    use std::io::Write;
    match std::io::stdout().lock().write_fmt(args) {
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        result => result.map_err(|e| format!("stdout: {e}")),
    }
}

/// `println!` through [`stdout_write`].
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::stdout_write(format_args!("{}\n", format_args!($($arg)*)))
    };
}
