//! `gsd-lint` CLI.
//!
//! ```text
//! gsd-lint check [--root DIR] [--config FILE]
//! gsd-lint rules
//! ```
//!
//! Exit codes: `0` clean, `1` at least one diagnostic, `2` usage or I/O
//! failure — including a missing or invalid config file: `lint.toml` is the
//! only source of scopes, there is no built-in fallback.

#![expect(
    clippy::disallowed_methods,
    reason = "the linter reads its config file; it is not graph data behind Storage"
)]

use gsd_lint::{LintConfig, Workspace, RETIRED, RULES};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
gsd-lint — GraphSD workspace static analysis

USAGE:
    gsd-lint check [--root DIR] [--config FILE]
    gsd-lint rules

OPTIONS:
    --root DIR       workspace root to lint (default: .)
    --config FILE    lint config (default: <root>/lint.toml; required)
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => run_check(&args[1..]),
        Some("rules") => {
            for r in RULES {
                println!("{} {}", r.id, r.summary);
                println!("       invariant: {}", r.invariant);
            }
            for (id, lint) in RETIRED {
                println!("{id} retired — enforced by {lint}");
            }
            ExitCode::SUCCESS
        }
        Some("--help") | Some("-h") | Some("help") => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        _ => {
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run_check(args: &[String]) -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut config_path: Option<PathBuf> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        let result = match arg.as_str() {
            "--root" => value("--root").map(|v| root = PathBuf::from(v)),
            "--config" => value("--config").map(|v| config_path = Some(PathBuf::from(v))),
            other => Err(format!("unknown argument `{other}`")),
        };
        if let Err(msg) = result {
            eprintln!("gsd-lint: {msg}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    }

    let config_file = config_path.unwrap_or_else(|| root.join("lint.toml"));
    let parsed = std::fs::read_to_string(&config_file)
        .map_err(|err| err.to_string())
        .and_then(|text| LintConfig::parse(&text));
    let cfg = match parsed {
        Ok(cfg) => cfg,
        Err(err) => {
            eprintln!("gsd-lint: {}: {err}", config_file.display());
            return ExitCode::from(2);
        }
    };

    let ws = match Workspace::load(&root, &cfg) {
        Ok(ws) => ws,
        Err(err) => {
            eprintln!("gsd-lint: failed to walk {}: {err}", root.display());
            return ExitCode::from(2);
        }
    };
    let diags = ws.check(&cfg);
    for d in &diags {
        println!("{}", d.render_human());
    }
    println!(
        "gsd-lint: {} file(s) scanned, {} error(s)",
        ws.files.len(),
        diags.len()
    );
    if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
