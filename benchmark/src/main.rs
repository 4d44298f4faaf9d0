//! The GraphSD-rs benchmark: four workloads measured end to end with
//! tracing off, and layer by layer in a separate traced pass. See
//! README.md; `BENCHMARK.json` at the repository root names every metric.

mod env;
mod harness;
mod inputs;
mod layers;
mod quiet;
mod report;
mod spans;
mod stats;
mod timed_storage;
mod workloads;

use harness::Ctx;
use inputs::Sizes;
use report::{Outcome, WORKLOADS};
use std::path::{Path, PathBuf};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    /// Also print every metric on a line of its own, for people.
    print: bool,
    sabotage: bool,
    bench_dir: PathBuf,
    /// Internal: run the preparing half into this directory and exit.
    prepare: Option<PathBuf>,
}

/// Seconds one run measures; `BENCHMARK.json`'s `run_seconds`.
const RUN_SECONDS: u32 = 20;

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: gsd-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--quick] [--print] [--sabotage] [--bench-dir DIR]\n       gsd-benchmark --emit-benchmark-json",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        quick: false,
        print: false,
        sabotage: false,
        bench_dir: PathBuf::from("benchmark"),
        prepare: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = value("a workload name")?,
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--bench-dir" => args.bench_dir = PathBuf::from(value("a directory")?),
            "--prepare" => args.prepare = Some(PathBuf::from(value("a directory")?)),
            "--quick" => args.quick = true,
            "--print" => args.print = true,
            "--sabotage" => args.sabotage = true,
            "--emit-benchmark-json" => {
                print!("{}", report::benchmark_json(RUN_SECONDS));
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.iter().any(|w| w.name == args.workload) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// The preparing half of `workload`: generate the graph, set up on real
/// files, compute the oracles, and leave everything the measuring half
/// needs under `prep`.
fn prepare(ctx: &Ctx, workload: &str, prep: &Path) -> std::io::Result<()> {
    match workload {
        "pr_stream" | "sssp_frontier" => workloads::analytic::prepare(ctx, workload, prep),
        "mutate_cycle" => workloads::mutate::prepare(ctx, prep),
        _ => workloads::serve::prepare(ctx, prep),
    }
}

/// The measuring half: warm-up, timed units, checks, and with `--trace 1`
/// the traced pass, all on what `prepare` left under `prep`.
fn measure(ctx: &Ctx, workload: &str, prep: &Path) -> std::io::Result<Outcome> {
    match workload {
        "pr_stream" | "sssp_frontier" => workloads::analytic::measure(ctx, workload, prep),
        "mutate_cycle" => workloads::mutate::measure(ctx, prep),
        _ => workloads::serve::measure(ctx, prep),
    }
}

/// Prepares in a child process, then measures in this one. The graph,
/// the preprocessor's buffers and the oracles' state live and die in the
/// child, so this process's memory is the out-of-core work's alone —
/// resetting the RSS high-water mark is not enough, because the
/// allocator keeps what set-up freed.
fn run(ctx: &Ctx, args: &Args) -> std::io::Result<Outcome> {
    let prep = ctx.temp_dir("prep")?;
    let mut child = std::process::Command::new(std::env::current_exe()?);
    child
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .arg("--bench-dir")
        .arg(&args.bench_dir)
        .arg("--prepare")
        .arg(prep.path());
    if args.quick {
        child.arg("--quick");
    }
    let status = child.status()?;
    if !status.success() {
        return Err(std::io::Error::other(format!(
            "the preparing process ended with {status}"
        )));
    }
    measure(ctx, &args.workload, prep.path())
}

fn main() -> std::process::ExitCode {
    // Before any thread exists: nothing a caller exported may reach the
    // engines' `GSD_*` defaults.
    let scrubbed = env::scrub_gsd_env();
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("gsd-benchmark: {message}\n{}", usage());
            return std::process::ExitCode::from(2);
        }
    };
    let out_dir = args.bench_dir.join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("gsd-benchmark: cannot create {}: {e}", out_dir.display());
        return std::process::ExitCode::from(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: if args.quick {
            args.seconds.min(0.5)
        } else {
            args.seconds
        },
        trace: args.trace,
        quick: args.quick,
        sabotage: args.sabotage,
        sizes: if args.quick {
            Sizes::quick()
        } else {
            Sizes::full()
        },
        root: args
            .bench_dir
            .parent()
            .map(PathBuf::from)
            .unwrap_or_default(),
        out_dir,
    };
    if let Some(prep) = &args.prepare {
        return match prepare(&ctx, &args.workload, prep) {
            Ok(()) => std::process::ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("gsd-benchmark: preparing {}: {e}", args.workload);
                std::process::ExitCode::FAILURE
            }
        };
    }
    eprintln!("context: {}", ctx.context_json(&args.workload, None));
    if !scrubbed.is_empty() {
        eprintln!("removed from the environment: {}", scrubbed.join(" "));
    }
    let mut outcome = match run(&ctx, &args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("gsd-benchmark: {}: {e}", args.workload);
            return std::process::ExitCode::FAILURE;
        }
    };
    let line = report::result_line(&mut outcome, ctx.trace);
    for failure in &outcome.failures {
        eprintln!("FAILED: {failure}");
    }
    if args.print {
        println!(
            "== {} (seed {}, trace {}) ==",
            args.workload,
            ctx.seed,
            u8::from(ctx.trace)
        );
        for (name, unit) in report::expected(ctx.trace) {
            println!(
                "{name:<44} {:>16.6} {unit}",
                outcome.metrics.get(name).unwrap_or(0.0)
            );
        }
    }
    println!("{line}");
    if outcome.correct() {
        std::process::ExitCode::SUCCESS
    } else {
        std::process::ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(trace: bool, sabotage: bool) -> Ctx {
        let out_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
        std::fs::create_dir_all(&out_dir).unwrap();
        Ctx {
            seed: 11,
            seconds: 0.2,
            trace,
            quick: true,
            sabotage,
            sizes: Sizes::quick(),
            root: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/..")),
            out_dir,
        }
    }

    /// Both halves in this process (a test binary cannot re-run itself
    /// as the preparing child).
    fn in_process(ctx: &Ctx, workload: &str) -> Outcome {
        let prep = ctx.temp_dir("prep").unwrap();
        prepare(ctx, workload, prep.path()).unwrap();
        measure(ctx, workload, prep.path()).unwrap()
    }

    /// Every workload, untraced and traced, on tiny graphs: all gates
    /// pass and the result line carries exactly the contract's metrics.
    #[test]
    fn quick_runs_are_correct_and_complete() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let mut outcome = in_process(&quick(trace, false), workload.name);
                let line = report::result_line(&mut outcome, trace);
                assert!(
                    outcome.correct(),
                    "{} trace {trace}: {:?}",
                    workload.name,
                    outcome.failures
                );
                assert!(outcome.attempted > 1);
                assert_eq!(
                    line.matches("\"value\"").count(),
                    report::expected(trace).len()
                );
            }
        }
    }

    /// With one bit of every oracle flipped, every workload reports
    /// failed operations, so the process would exit non-zero.
    #[test]
    fn a_wrong_oracle_fails_every_workload() {
        for workload in WORKLOADS {
            let outcome = in_process(&quick(false, true), workload.name);
            assert!(
                !outcome.correct() && outcome.failed > 0,
                "{} did not notice",
                workload.name
            );
        }
    }
}
