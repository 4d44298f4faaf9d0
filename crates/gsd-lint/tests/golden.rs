//! Fixture golden tests: every rule fires on its positive fixture and
//! stays silent on its negative fixture. Fixtures live under
//! `tests/fixtures/` and are linted under *virtual* paths chosen to put
//! them in each rule's scope in the checked-in `lint.toml` — the only
//! source of scopes — and are never compiled.

use gsd_lint::{Diagnostic, LintConfig, SourceFile, Workspace};

/// Lints `(path, text)` files as one workspace under the checked-in
/// configuration.
fn lint_files(files: &[(&str, &str)]) -> Vec<Diagnostic> {
    let cfg =
        LintConfig::parse(include_str!("../../../lint.toml")).expect("checked-in lint.toml parses");
    let files = files
        .iter()
        .map(|&(path, text)| SourceFile {
            path: path.to_string(),
            text: text.to_string(),
        })
        .collect();
    Workspace { files }.check(&cfg)
}

/// Lints one fixture under the checked-in configuration.
fn lint(path: &str, text: &str) -> Vec<Diagnostic> {
    lint_files(&[(path, text)])
}

fn rules_of(diags: &[Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.rule).collect()
}

#[test]
fn gsd003_fires_on_guard_held_across_io() {
    let diags = lint(
        "crates/gsd-io/src/fixture.rs",
        include_str!("fixtures/gsd003/pos.rs"),
    );
    assert_eq!(rules_of(&diags), vec!["GSD003"], "{diags:?}");
    assert_eq!(diags[0].line, 4, "anchored at the guard binding: {diags:?}");
    assert!(diags[0].message.contains("read_at"), "{diags:?}");
}

#[test]
fn gsd003_covers_the_whole_storage_trait_and_grid_read_surface() {
    let diags = lint(
        "crates/gsd-io/src/fixture.rs",
        include_str!("fixtures/gsd003/pos_surface.rs"),
    );
    let names = [
        "exists",
        "delete",
        "list_keys",
        "read_unaccounted",
        "sync",
        "read_block",
        "read_index",
        "load_out_degrees",
    ];
    assert_eq!(rules_of(&diags), vec!["GSD003"; names.len()], "{diags:?}");
    for (diag, name) in diags.iter().zip(names) {
        assert!(diag.message.contains(&format!("`{name}`")), "{diag:?}");
    }
}

#[test]
fn gsd003_silent_when_guard_is_scoped_or_dropped() {
    let diags = lint(
        "crates/gsd-io/src/fixture.rs",
        include_str!("fixtures/gsd003/neg.rs"),
    );
    assert!(diags.is_empty(), "{diags:?}");
}

fn gsd004_workspace(consumer: &str) -> Vec<Diagnostic> {
    lint_files(&[
        (
            "crates/gsd-trace/src/event.rs",
            include_str!("fixtures/gsd004/event.rs"),
        ),
        ("crates/gsd-core/src/consumer.rs", consumer),
    ])
}

#[test]
fn gsd004_fires_on_pattern_only_variant() {
    let diags = gsd004_workspace(include_str!("fixtures/gsd004/match_only.rs"));
    assert_eq!(rules_of(&diags), vec!["GSD004"], "{diags:?}");
    assert!(diags[0].message.contains("BufferHit"), "{diags:?}");
    assert_eq!(diags[0].file, "crates/gsd-trace/src/event.rs");
    assert_eq!(diags[0].line, 8, "anchored at the variant definition");
}

#[test]
fn gsd004_silent_when_all_variants_are_emitted() {
    let diags = gsd004_workspace(include_str!("fixtures/gsd004/emit_all.rs"));
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn gsd000_fires_on_each_malformed_directive() {
    let diags = lint(
        "crates/gsd-graph/src/fixture.rs",
        include_str!("fixtures/gsd000/pos.rs"),
    );
    assert_eq!(rules_of(&diags), vec!["GSD000"; 3], "{diags:?}");
    assert_eq!(
        diags.iter().map(|d| d.line).collect::<Vec<_>>(),
        vec![2, 3, 4]
    );
}

#[test]
fn gsd000_silent_on_justified_directive() {
    let diags = lint(
        "crates/gsd-io/src/fixture.rs",
        include_str!("fixtures/gsd000/neg.rs"),
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn every_shipped_rule_has_fixture_coverage() {
    // Guards the registry against silently growing an untested rule: the
    // ids exercised above must cover the whole registry.
    let covered = ["GSD000", "GSD003", "GSD004"];
    for rule in gsd_lint::RULES {
        assert!(
            covered.contains(&rule.id),
            "rule {} has no fixture coverage — add tests/fixtures/{}/",
            rule.id,
            rule.id.to_lowercase()
        );
    }
}
