//! The real binary's exit-code contract: `1` with a `file:line` diagnostic
//! on an injected violation, `0` on the checked-in workspace, `2` on a
//! usage error or a missing `lint.toml` (there is no built-in fallback
//! configuration). The library-level "checked-in tree is clean" gate is
//! the root package's `tests/lint_clean.rs`, so tier-1 runs it.

#![expect(
    clippy::disallowed_methods,
    reason = "test: builds a throwaway workspace on disk for the binary to lint"
)]

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repo_root() -> PathBuf {
    // crates/gsd-lint -> crates -> repo root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("manifest dir has two ancestors")
        .to_path_buf()
}

fn gsd_lint(args: &[&str], root: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gsd-lint"))
        .args(args)
        .arg("--root")
        .arg(root)
        .output()
        .expect("run gsd-lint")
}

#[test]
fn cli_exits_nonzero_on_injected_violation() {
    // A throwaway mini-workspace: the checked-in lint.toml plus one file
    // holding a lock guard across a storage call in a scoped crate.
    let dir = std::env::temp_dir().join(format!("gsd-lint-inject-{}", std::process::id()));
    let src_dir = dir.join("crates/gsd-io/src");
    std::fs::create_dir_all(&src_dir).expect("create temp workspace");
    let bad = "pub fn f(c: &C, s: &dyn Storage) {\n    let g = c.m.lock();\n    s.sync();\n}\n";
    std::fs::write(src_dir.join("bad.rs"), bad).expect("write bad.rs");

    // Without a config file there is nothing to fall back to.
    let out = gsd_lint(&["check"], &dir);
    assert_eq!(
        out.status.code(),
        Some(2),
        "a missing lint.toml is an error"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("lint.toml"), "stderr:\n{stderr}");

    std::fs::copy(repo_root().join("lint.toml"), dir.join("lint.toml")).expect("copy lint.toml");
    let out = gsd_lint(&["check"], &dir);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(1),
        "expected exit 1 on a violation; stdout:\n{stdout}"
    );
    assert!(
        stdout.contains("crates/gsd-io/src/bad.rs:2: error[GSD003]"),
        "diagnostic must carry file:line; stdout:\n{stdout}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_exits_zero_on_the_real_workspace() {
    let out = gsd_lint(&["check"], &repo_root());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "the checked-in workspace must pass the CLI:\n{stdout}"
    );
}

#[test]
fn cli_rejects_unknown_arguments_and_retired_formats_with_usage_exit() {
    for args in [&["check", "--wat"][..], &["check", "--format", "json"][..]] {
        let out = gsd_lint(args, &repo_root());
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
}
