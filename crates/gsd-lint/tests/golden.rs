//! Fixture golden tests: every rule fires on its positive fixture and
//! stays silent on its negative fixture. Fixtures live under
//! `tests/fixtures/` and are linted under *virtual* paths chosen to put
//! them in each rule's scope in the checked-in `lint.toml` — the only
//! source of scopes — and are never compiled.

use gsd_lint::{check_snippet, LintConfig, Severity, Workspace};

/// The checked-in configuration.
fn config() -> LintConfig {
    LintConfig::parse(include_str!("../../../lint.toml")).expect("checked-in lint.toml parses")
}

/// The checked-in configuration with one rule table edited.
fn config_with(rule: &str, edit: impl FnOnce(&mut gsd_lint::config::RuleConfig)) -> LintConfig {
    let mut cfg = config();
    edit(
        cfg.rules
            .get_mut(rule)
            .expect("rule has a table in lint.toml"),
    );
    cfg
}

/// Lints one fixture under the checked-in configuration.
fn lint(path: &str, text: &str) -> Vec<gsd_lint::Diagnostic> {
    check_snippet(path, text, &config())
}

fn rules_of(diags: &[gsd_lint::Diagnostic]) -> Vec<&'static str> {
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

fn gsd004_workspace(consumer: &str) -> Vec<gsd_lint::Diagnostic> {
    let cfg = config();
    Workspace::from_files([
        (
            cfg.event_file.clone(),
            include_str!("fixtures/gsd004/event.rs").to_string(),
        ),
        (
            "crates/gsd-core/src/consumer.rs".to_string(),
            consumer.to_string(),
        ),
    ])
    .check(&cfg)
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
fn gsd006_fires_on_as_u32_truncation() {
    let diags = lint(
        "crates/gsd-graph/src/fixture.rs",
        include_str!("fixtures/gsd006/pos.rs"),
    );
    assert_eq!(rules_of(&diags), vec!["GSD006"], "{diags:?}");
    assert_eq!(diags[0].line, 4);
}

#[test]
fn gsd006_silent_on_checked_narrowing_and_widening() {
    let diags = lint(
        "crates/gsd-graph/src/fixture.rs",
        include_str!("fixtures/gsd006/neg.rs"),
    );
    assert!(diags.is_empty(), "{diags:?}");
    // The checked-conversion helper itself is exempt.
    let diags = lint(
        "crates/gsd-graph/src/narrow.rs",
        include_str!("fixtures/gsd006/pos.rs"),
    );
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
fn severity_override_demotes_a_rule_to_warning() {
    let cfg = config_with("GSD006", |rc| rc.severity = Some(Severity::Warn));
    let diags = check_snippet(
        "crates/gsd-graph/src/fixture.rs",
        include_str!("fixtures/gsd006/pos.rs"),
        &cfg,
    );
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].severity, Severity::Warn);
    assert!(!gsd_lint::has_errors(&diags));
}

#[test]
fn severity_off_disables_a_rule() {
    let cfg = config_with("GSD006", |rc| rc.severity = Some(Severity::Off));
    let diags = check_snippet(
        "crates/gsd-graph/src/fixture.rs",
        include_str!("fixtures/gsd006/pos.rs"),
        &cfg,
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn gsd010_fires_on_relaxed_outside_counter_allow_list() {
    let diags = lint(
        "crates/gsd-core/src/fixture.rs",
        include_str!("fixtures/gsd010/pos.rs"),
    );
    assert_eq!(rules_of(&diags), vec!["GSD010"], "{diags:?}");
    assert_eq!(diags[0].line, 9, "{diags:?}");
    assert!(diags[0].message.contains("epoch"), "{diags:?}");
}

#[test]
fn gsd010_silent_on_listed_counters_and_stronger_orderings() {
    let diags = lint(
        "crates/gsd-core/src/fixture.rs",
        include_str!("fixtures/gsd010/neg.rs"),
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn gsd010_config_extends_the_counter_allow_list() {
    let cfg = config_with("GSD010", |rc| rc.idents.push("epoch".to_string()));
    let diags = check_snippet(
        "crates/gsd-core/src/fixture.rs",
        include_str!("fixtures/gsd010/pos.rs"),
        &cfg,
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn gsd011_fires_on_every_line_naming_fs_or_file() {
    let diags = lint(
        "crates/gsd-runtime/src/fixture.rs",
        include_str!("fixtures/gsd011/pos.rs"),
    );
    assert_eq!(rules_of(&diags), vec!["GSD011"; 3], "{diags:?}");
    let lines: Vec<u32> = diags.iter().map(|d| d.line).collect();
    assert_eq!(
        lines,
        vec![1, 4, 11],
        "the import + both signatures: {diags:?}"
    );
}

#[test]
fn gsd011_silent_on_storage_api_and_outside_the_kernel_crates() {
    let diags = lint(
        "crates/gsd-runtime/src/fixture.rs",
        include_str!("fixtures/gsd011/neg.rs"),
    );
    assert!(diags.is_empty(), "{diags:?}");
    // gsd-io is the storage layer: raw files are its job.
    let diags = lint(
        "crates/gsd-io/src/fixture.rs",
        include_str!("fixtures/gsd011/pos.rs"),
    );
    assert!(diags.is_empty(), "{diags:?}");
}

fn gsd012_workspace(consumer: &str) -> Vec<gsd_lint::Diagnostic> {
    // The enum lives away from the GSD004 event_file path so only GSD012
    // is exercised here.
    let cfg = config();
    Workspace::from_files([
        (
            "crates/gsd-core/src/event.rs".to_string(),
            include_str!("fixtures/gsd012/event.rs").to_string(),
        ),
        (
            "crates/gsd-core/src/consumer.rs".to_string(),
            consumer.to_string(),
        ),
    ])
    .check(&cfg)
}

#[test]
fn gsd012_fires_on_catch_all_over_listed_enum() {
    let diags = gsd012_workspace(include_str!("fixtures/gsd012/pos.rs"));
    assert_eq!(rules_of(&diags), vec!["GSD012"], "{diags:?}");
    assert_eq!(diags[0].file, "crates/gsd-core/src/consumer.rs");
    assert_eq!(diags[0].line, 6, "anchored at the catch-all arm: {diags:?}");
    assert!(diags[0].message.contains("RunEnd"), "{diags:?}");
    assert!(diags[0].message.contains("BlockLoad"), "{diags:?}");
}

#[test]
fn gsd012_silent_on_exhaustive_match_and_unlisted_enums() {
    let diags = gsd012_workspace(include_str!("fixtures/gsd012/neg.rs"));
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn every_shipped_rule_has_fixture_coverage() {
    // Guards the registry against silently growing an untested rule: the
    // ids exercised above must cover the whole registry.
    let covered = [
        "GSD000", "GSD003", "GSD004", "GSD006", "GSD010", "GSD011", "GSD012",
    ];
    for rule in gsd_lint::RULES {
        assert!(
            covered.contains(&rule.id),
            "rule {} has no fixture coverage — add tests/fixtures/{}/",
            rule.id,
            rule.id.to_lowercase()
        );
    }
}
