//! CLI for the paper-experiment harness.
//!
//! ```text
//! experiments [--trace FILE] [--metrics-out FILE] [--verbose]
//!             [--no-prefetch] [--prefetch-depth N] [--checkpoint-every N]
//!             [--resume] [--inject-faults SEED:RATE] [ids...]
//!
//! ids                         experiment ids (default: all); `e1`..`e10`
//!                             are shorthand for fig5..fig12, ext_storage,
//!                             ext_psweep
//! --trace FILE                stream every trace event as JSONL to FILE
//! --metrics-out FILE          aggregate every trace event into a labeled
//!                             metrics registry and write a snapshot to
//!                             FILE (Prometheus text format for
//!                             .prom/.txt, JSON otherwise)
//! --metrics-every N           additionally rewrite the snapshot every N
//!                             iterations while running (default: at the
//!                             end only)
//! --verbose                   live per-iteration table on stderr
//! --no-prefetch               fully synchronous reads (the CLI enables
//!                             the prefetch pipeline by default)
//! --prefetch-depth N          prefetch lookahead window (default 2)
//! --checkpoint-every N        checkpoint every N committed iterations
//!                             (engines resume from checkpoints by
//!                             default when any are found)
//! --resume                    force resume on even when the calling
//!                             environment set GSD_CKPT_RESUME=0
//! --inject-faults SEED:RATE   deterministic transient I/O faults at the
//!                             given per-operation rate, absorbed by the
//!                             bounded-retry layer (results unchanged)
//! --verify off|full|sample:N  checksum grid objects as runs read them
//!                             (default off; detected corruption fails
//!                             the experiment instead of skewing results)
//! GSD_SCALE=tiny|small|medium workload scale (default small)
//! ```
//!
//! The prefetch, checkpoint, fault and verify flags work by setting the
//! `GSD_PREFETCH*` / `GSD_CKPT_*` / `GSD_FAULT_INJECT` / `GSD_VERIFY`
//! environment variables before any engine is built; results are
//! bit-identical whichever way they are set — only wall time (and, for
//! faults, the retry counters) changes.
//!
//! Failures do not abort the batch: every requested experiment runs, a
//! failure summary is printed at the end, and the exit status is nonzero
//! iff at least one experiment failed.

use gsd_bench::experiments::{run_by_id, ALL_IDS};
use gsd_bench::{Datasets, Observability, Scale};

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

fn usage() -> ! {
    eprintln!(
        "usage: experiments [--trace FILE] [--metrics-out FILE] \
         [--metrics-every N] [--verbose] [--no-prefetch] \
         [--prefetch-depth N] [--checkpoint-every N] [--resume] \
         [--inject-faults SEED:RATE] [--verify off|full|sample:N] [ids...]"
    );
    eprintln!("known ids: {}", ALL_IDS.join(" "));
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ids: Vec<&str> = Vec::new();
    let mut trace_path: Option<&str> = None;
    let mut metrics_out: Option<&str> = None;
    let mut metrics_every: u64 = 0;
    let mut verbose = false;
    let mut prefetch = true;
    let mut prefetch_depth: Option<&str> = None;
    let mut checkpoint_every: Option<&str> = None;
    let mut resume = false;
    let mut inject_faults: Option<&str> = None;
    let mut verify: Option<&str> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trace" => match it.next() {
                Some(path) => trace_path = Some(path),
                None => usage(),
            },
            "--metrics-out" => match it.next() {
                Some(path) => metrics_out = Some(path),
                None => usage(),
            },
            "--metrics-every" => match it.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(n) => metrics_every = n,
                None => usage(),
            },
            "--verbose" | "-v" => verbose = true,
            "--no-prefetch" => prefetch = false,
            "--prefetch-depth" => match it.next().map(String::as_str) {
                Some(n) if n.parse::<usize>().is_ok_and(|n| n >= 1) => prefetch_depth = Some(n),
                _ => usage(),
            },
            "--checkpoint-every" => match it.next().map(String::as_str) {
                Some(n) if n.parse::<u32>().is_ok_and(|n| n >= 1) => checkpoint_every = Some(n),
                _ => usage(),
            },
            "--resume" => resume = true,
            "--inject-faults" => match it.next().map(String::as_str) {
                Some(spec) if gsd_recover::FaultConfig::parse(spec).is_some() => {
                    inject_faults = Some(spec)
                }
                _ => usage(),
            },
            "--verify" => match it.next().map(String::as_str) {
                Some(spec) if gsd_integrity::VerifyPolicy::parse(spec).is_some() => {
                    verify = Some(spec)
                }
                _ => usage(),
            },
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => usage(),
            other => ids.push(resolve(other)),
        }
    }
    if ids.is_empty() {
        ids = ALL_IDS.to_vec();
    }

    // Engine configs consult GSD_PREFETCH* when they are built (deep
    // inside the runner), so the flags translate to the environment here,
    // before any engine exists. An explicit GSD_PREFETCH=0 in the calling
    // environment is overridden by the CLI's default-on policy.
    std::env::set_var("GSD_PREFETCH", if prefetch { "1" } else { "0" });
    if let Some(depth) = prefetch_depth {
        std::env::set_var("GSD_PREFETCH_DEPTH", depth);
    }
    if let Some(every) = checkpoint_every {
        std::env::set_var("GSD_CKPT_EVERY", every);
    }
    if resume {
        std::env::set_var("GSD_CKPT_RESUME", "1");
    }
    if let Some(spec) = inject_faults {
        std::env::set_var("GSD_FAULT_INJECT", spec);
    }
    if let Some(spec) = verify {
        std::env::set_var("GSD_VERIFY", spec);
    }

    let obs = match Observability::from_flags(trace_path, metrics_out, metrics_every, verbose) {
        Ok(obs) => obs,
        Err(e) => {
            eprintln!("# {e}");
            std::process::exit(2);
        }
    };
    obs.install();

    let scale = Scale::from_env();
    eprintln!("# GraphSD paper experiments — scale {scale:?} (set GSD_SCALE=tiny|small|medium)");
    let ds = Datasets::load(scale);
    let mut failures: Vec<(&str, std::io::Error)> = Vec::new();
    for id in ids {
        let started = gsd_trace::Stopwatch::start();
        match run_by_id(id, &ds) {
            Ok(output) => {
                println!("{output}");
                eprintln!("# [{id}] done in {:.1}s\n", started.elapsed().as_secs_f64());
            }
            Err(e) => {
                eprintln!("# [{id}] FAILED: {e}\n");
                failures.push((id, e));
            }
        }
    }
    if let Err(e) = obs.finish() {
        eprintln!("# warning: {e}");
    }
    if !failures.is_empty() {
        eprintln!("# {} experiment(s) failed:", failures.len());
        for (id, e) in &failures {
            eprintln!("#   {id}: {e}");
        }
        std::process::exit(1);
    }
}
