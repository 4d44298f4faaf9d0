//! CLI for the paper-experiment harness.
//!
//! ```text
//! experiments [run flags] [ids...]
//!
//! ids                         experiment ids (default: all); `e1`..`e10`
//!                             are shorthand for fig5..fig12, ext_storage,
//!                             ext_psweep
//! --scale tiny|small|medium   workload scale (default small)
//! --no-prefetch               fully synchronous reads (the harness
//!                             pipelines by default)
//! --prefetch-depth N          prefetch lookahead window (default 2)
//! --checkpoint-every N        checkpoint every N committed iterations
//!                             (engines resume from checkpoints when any
//!                             are found)
//! --inject-faults SEED:RATE   deterministic transient I/O faults at the
//!                             given per-operation rate, absorbed by the
//!                             bounded-retry layer (results unchanged)
//! --verify off|full           checksum grid objects as runs read them
//!                             (default off; detected corruption fails
//!                             the experiment instead of skewing results)
//! --trace FILE                stream every trace event as JSONL to FILE
//!                             (`gsd report FILE` folds it into tables)
//! --verbose                   live per-iteration table on stderr
//! ```
//!
//! The run flags are [`gsd_bench::RunFlags`], the parser `gsd run`,
//! `gsd serve` and `gsd bench` share; the settings they spell reach every
//! engine as an argument. Results are bit-identical whichever way they
//! are set — only wall time (and, for faults, the retry counters)
//! changes.
//!
//! Failures do not abort the batch: every requested experiment runs, a
//! failure summary is printed at the end, and the exit status is nonzero
//! iff at least one experiment failed.

use gsd_bench::experiments::{run_by_id, ALL_IDS};
use gsd_bench::{Datasets, RunFlags};
use gsd_core::PipelineConfig;

/// `e<N>` shorthand for the figure/extension experiments, in paper order.
const ALIASES: [(&str, &str); 10] = [
    ("e1", "fig5"),
    ("e2", "fig6"),
    ("e3", "fig7"),
    ("e4", "fig8"),
    ("e5", "fig9"),
    ("e6", "fig10"),
    ("e7", "fig11"),
    ("e8", "fig12"),
    ("e9", "ext_storage"),
    ("e10", "ext_psweep"),
];

fn resolve(id: &str) -> &str {
    ALIASES
        .iter()
        .find(|(alias, _)| *alias == id)
        .map_or(id, |(_, full)| *full)
}

fn usage(error: &str) -> ! {
    eprintln!("experiments: {error}");
    eprintln!(
        "usage: experiments [--scale tiny|small|medium] [--no-prefetch] \
         [--prefetch-depth N] [--checkpoint-every N] [--inject-faults SEED:RATE] \
         [--verify off|full] [--trace FILE] [--verbose] [ids...]"
    );
    eprintln!("known ids: {}", ALL_IDS.join(" "));
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = match RunFlags::parse(&args, Some(PipelineConfig::default())) {
        Ok(flags) => flags,
        Err(e) => usage(&e),
    };
    if let Some(unknown) = flags.rest.iter().find(|a| a.starts_with('-')) {
        usage(&format!("unknown flag {unknown}"));
    }
    let mut ids: Vec<&str> = flags.rest.iter().map(|id| resolve(id)).collect();
    if ids.is_empty() {
        ids = ALL_IDS.to_vec();
    }

    let scale = flags.scale;
    eprintln!("# GraphSD paper experiments — scale {scale:?} (--scale tiny|small|medium)");
    let ds = Datasets::load(scale);
    let mut failures: Vec<(&str, std::io::Error)> = Vec::new();
    for id in ids {
        let started = gsd_trace::Stopwatch::start();
        let printed = run_by_id(id, &ds, &flags.settings).and_then(|output| {
            gsd_bench::stdout_write(format_args!("{output}\n")).map_err(std::io::Error::other)
        });
        match printed {
            Ok(()) => {
                eprintln!("# [{id}] done in {:.1}s\n", started.elapsed().as_secs_f64());
            }
            Err(e) => {
                eprintln!("# [{id}] FAILED: {e}\n");
                failures.push((id, e));
            }
        }
    }
    flags.settings.sink.flush();
    if !failures.is_empty() {
        eprintln!("# {} experiment(s) failed:", failures.len());
        for (id, e) in &failures {
            eprintln!("#   {id}: {e}");
        }
        std::process::exit(1);
    }
}
