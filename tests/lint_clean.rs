//! Tier-1 gate for the invariants `gsd-lint` guards (DESIGN.md §11): the
//! checked-in tree is clean under the checked-in `lint.toml`, and the one
//! checked-in suppression still covers a finding the rule really makes.
//! The bans the toolchain took over (`clippy.toml`, crate-root `deny`) are
//! gated by CI's blocking clippy run and proven live by `ci/lint_canary.sh`.

#![expect(
    clippy::disallowed_methods,
    reason = "test: reads the checked-in lint.toml"
)]

use gsd_lint::{LintConfig, Workspace};
use std::path::Path;

fn workspace() -> (Workspace, LintConfig) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(root.join("lint.toml")).expect("lint.toml is checked in");
    let cfg = LintConfig::parse(&text).expect("checked-in lint.toml parses");
    let ws = Workspace::load(root, &cfg).expect("workspace walks");
    (ws, cfg)
}

#[test]
fn checked_in_workspace_is_lint_clean() {
    let (ws, cfg) = workspace();
    assert!(
        ws.files.len() > 50,
        "expected the full workspace, found only {} files — include dirs wrong?",
        ws.files.len()
    );
    let errors: Vec<String> = ws.check(&cfg).iter().map(|d| d.render_human()).collect();
    assert!(
        errors.is_empty(),
        "the checked-in workspace must be lint-clean:\n{}",
        errors.join("\n")
    );
}

#[test]
fn simdisk_suppression_is_load_bearing() {
    // SimDisk holds its cursor lock over the in-memory inner read on
    // purpose. If the code changes shape, the stale allow comment should
    // be deleted, and this test will notice.
    const STORAGE: &str = "crates/gsd-io/src/storage.rs";
    let (mut ws, cfg) = workspace();
    let allows: Vec<&str> = ws
        .files
        .iter()
        .filter(|f| f.text.contains("gsd-lint: allow(") && !f.path.starts_with("crates/gsd-lint/"))
        .map(|f| f.path.as_str())
        .collect();
    assert_eq!(allows, [STORAGE], "exactly one file carries a suppression");

    let storage = ws
        .files
        .iter_mut()
        .find(|f| f.path == STORAGE)
        .expect("storage.rs present");
    storage.text = storage
        .text
        .lines()
        .filter(|l| !l.contains("gsd-lint: allow(GSD003"))
        .collect::<Vec<_>>()
        .join("\n");
    let diags = ws.check(&cfg);
    assert!(
        diags
            .iter()
            .any(|d| d.rule == "GSD003" && d.file == STORAGE),
        "stripping the allow comment must surface the GSD003 finding: {diags:?}"
    );
}
