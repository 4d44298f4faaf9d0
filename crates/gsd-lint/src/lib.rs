//! # gsd-lint — the GraphSD invariants no toolchain lint can say
//!
//! Bans belong to the toolchain: panic-freedom of the hot-path crates,
//! checked narrowing, the wall-clock, hash-container, file-I/O, atomic and
//! thread/lock-constructor bans are clippy's (`clippy.toml`, the crate-root
//! `#![deny(clippy::…)]` blocks), exhaustive matches are clippy's
//! `wildcard_enum_match_arm`, and `unsafe` is rustc's
//! (`[workspace.lints]` in the root `Cargo.toml`) — retired
//! GSD001/002/005/006/007/008/009/010/011/012, see [`RETIRED`]. What is left
//! here are the three rules that need GraphSD's own vocabulary: directive
//! hygiene (GSD000), no lock guard held across storage I/O (GSD003) and
//! live telemetry (GSD004). Run it as:
//!
//! ```text
//! cargo run -p gsd-lint -- check [--root DIR] [--config FILE]
//! ```
//!
//! The tool is dependency-free and small on purpose: a hand-rolled lexer,
//! a TOML-subset config loader ([`LintConfig`]) and token-pattern rules —
//! no parser, no symbol table, no dataflow. Scopes come from `lint.toml`
//! and nowhere else. Suppressions are inline comments of the form
//! `// gsd-lint: allow(GSD003, "justification")` — the justification is
//! mandatory, and malformed directives are themselves an error (GSD000),
//! so a typo can never silently mask a finding.
//!
//! The library surface lints a [`Workspace`] of `(path, text)` files, so
//! tests lint fixture snippets without touching the real workspace, and
//! the root package's `tests/lint_clean.rs` lints the real workspace with
//! the checked-in `lint.toml`.

#![warn(missing_docs)]
#![expect(
    clippy::disallowed_methods,
    reason = "the linter reads the source tree it checks; it is not graph data behind Storage"
)]

mod config;
mod diagnostics;
mod lexer;
mod rules;

pub use config::LintConfig;
pub use diagnostics::Diagnostic;
pub use rules::{RuleInfo, RETIRED, RULES};

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// One source file under analysis: a workspace-relative `/`-separated
/// path plus its full text. The path may be virtual (fixture tests).
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators, e.g.
    /// `crates/gsd-io/src/storage.rs`.
    pub path: String,
    /// Full file contents.
    pub text: String,
}

/// A set of source files to lint as one unit (GSD004 is cross-file).
#[derive(Debug, Default)]
pub struct Workspace {
    /// The files, in load order.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Walks `root` for `.rs` files under the configured include
    /// directories, skipping excluded prefixes.
    pub fn load(root: &Path, cfg: &LintConfig) -> std::io::Result<Workspace> {
        let mut files = Vec::new();
        for dir in &cfg.include {
            let abs = root.join(dir);
            if abs.is_dir() {
                walk(&abs, root, &cfg.exclude, &mut files)?;
            }
        }
        files.sort_by(|a, b| a.path.cmp(&b.path));
        Ok(Workspace { files })
    }

    /// Runs every rule and applies suppressions. Diagnostics come back
    /// sorted by `(file, line, rule)`; every one is an error.
    pub fn check(&self, cfg: &LintConfig) -> Vec<Diagnostic> {
        // Lex everything once; the rules share the token streams.
        let lexed: Vec<_> = self.files.iter().map(|f| lexer::lex(&f.text)).collect();
        let masks: Vec<_> = self
            .files
            .iter()
            .zip(&lexed)
            .map(|(f, l)| rules::test_mask(&f.path, &l.tokens))
            .collect();
        let cxs: Vec<rules::FileCx<'_>> = self
            .files
            .iter()
            .zip(&lexed)
            .zip(&masks)
            .map(|((f, l), mask)| rules::FileCx {
                path: &f.path,
                tokens: &l.tokens,
                mask,
                directives: &l.directives,
            })
            .collect();

        let mut diags = Vec::new();
        for cx in &cxs {
            rules::check_directives(cx, &mut diags);
            rules::check_gsd003(cx, cfg, &mut diags);
        }
        rules::check_gsd004(&cxs, cfg, &mut diags);

        let suppressed = suppression_map(&cxs);
        diags.retain(|d| {
            d.rule == "GSD000" || !suppressed.contains(&(d.file.clone(), d.rule, d.line))
        });
        diags.sort_by(|a, b| {
            (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule))
        });
        diags
    }
}

/// Builds the set of `(file, rule, line)` a well-formed `allow` directive
/// covers. A trailing directive covers its own line; a standalone comment
/// covers the next line that has code on it.
fn suppression_map(cxs: &[rules::FileCx<'_>]) -> BTreeSet<(String, &'static str, u32)> {
    let mut set = BTreeSet::new();
    for cx in cxs {
        for d in cx.directives {
            if d.malformed.is_some() {
                continue;
            }
            let Some(info) = rules::rule_info(&d.rule) else {
                continue;
            };
            let target = if d.trailing {
                Some(d.line)
            } else {
                cx.tokens.iter().map(|t| t.line).find(|&line| line > d.line)
            };
            if let Some(line) = target {
                set.insert((cx.path.to_string(), info.id, line));
            }
        }
    }
    set
}

fn walk(
    dir: &Path,
    root: &Path,
    exclude: &[String],
    out: &mut Vec<SourceFile>,
) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<_, _>>()?;
    entries.sort();
    for path in entries {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        if exclude.iter().any(|p| rules::matches_prefix(&rel, p)) {
            continue;
        }
        if path.is_dir() {
            walk(&path, root, exclude, out)?;
        } else if rel.ends_with(".rs") {
            let text = std::fs::read_to_string(&path)?;
            out.push(SourceFile { path: rel, text });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const PATH: &str = "crates/gsd-io/src/x.rs";
    const BAD: &str = "fn f(c: &C, s: &dyn Storage) {\n    let g = c.m.lock();\n    s.sync();\n}";

    fn cfg() -> LintConfig {
        LintConfig::parse(include_str!("../../../lint.toml")).expect("checked-in lint.toml parses")
    }

    fn check_snippet(path: &str, text: &str) -> Vec<Diagnostic> {
        let file = SourceFile {
            path: path.to_string(),
            text: text.to_string(),
        };
        Workspace { files: vec![file] }.check(&cfg())
    }

    #[test]
    fn snippet_checking_fires_and_suppresses() {
        let diags = check_snippet(PATH, BAD);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "GSD003");

        let allowed = BAD.replace(
            "    let g",
            "    // gsd-lint: allow(GSD003, \"demo\")\n    let g",
        );
        assert!(check_snippet(PATH, &allowed).is_empty());
    }

    #[test]
    fn unjustified_suppression_is_gsd000_and_does_not_suppress() {
        let text = BAD.replace("    let g", "    // gsd-lint: allow(GSD003)\n    let g");
        let diags = check_snippet(PATH, &text);
        let rules: Vec<_> = diags.iter().map(|d| d.rule).collect();
        assert_eq!(rules, vec!["GSD000", "GSD003"], "{diags:?}");
    }

    #[test]
    fn test_code_and_out_of_scope_paths_are_exempt() {
        let text = format!("#[cfg(test)]\nmod tests {{\n    #[test]\n    {BAD}\n}}");
        assert!(check_snippet(PATH, &text).is_empty());
        assert!(check_snippet("crates/gsd-bench/src/x.rs", BAD).is_empty());
    }
}
