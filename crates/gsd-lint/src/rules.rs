//! The rule registry and the three checks.
//!
//! Every rule is a pattern over the token stream from [`crate::lexer`]
//! plus bracket matching — there is no syntax tree, no name resolution and
//! no dataflow. Whatever can be said as "this type / this function / this
//! cast / this arm is banned" is said to the toolchain instead
//! (`clippy.toml`, the crate-root `deny` blocks and `[workspace.lints]`;
//! see [`RETIRED`]). What stays here is what no off-the-shelf lint
//! expresses: a guard *held across* a storage call, and a trace variant
//! nobody constructs.
//!
//! GSD003 is scoped by the workspace-relative path prefixes in `lint.toml`
//! — the only source of scopes — and every rule skips *test regions*:
//! `#[cfg(test)]` / `#[test]` items, and files under `tests/` or
//! `benches/` directories.

use crate::config::LintConfig;
use crate::diagnostics::Diagnostic;
use crate::lexer::{Directive, Tok, TokKind};
use std::collections::BTreeSet;

/// Static metadata for one rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable id, e.g. `"GSD003"`. Never renumbered.
    pub id: &'static str,
    /// One-line summary for `gsd-lint rules` and docs.
    pub summary: &'static str,
    /// The system invariant the rule protects.
    pub invariant: &'static str,
    /// Whether the rule needs a `paths` scope in `lint.toml`.
    pub scoped: bool,
}

/// The live rules, in id order. Every finding is an error.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "GSD000",
        summary: "malformed or unjustified `gsd-lint:` directive",
        invariant: "a typo'd suppression must never silently mask a real diagnostic",
        scoped: false,
    },
    RuleInfo {
        id: "GSD003",
        summary: "no lock guard held across a storage read/write call",
        invariant: "storage calls can block for a simulated seek; holding a guard across \
                    one serializes unrelated engine threads",
        scoped: true,
    },
    RuleInfo {
        id: "GSD004",
        summary: "every TraceEvent variant is constructed somewhere outside tests",
        invariant: "dead telemetry variants rot: the JSONL schema advertises events \
                    no run can ever emit",
        scoped: false,
    },
];

/// Retired ids and the toolchain lint that took each over. The ids stay
/// reserved (a directive naming one is well-formed but inert); the bans
/// live in `clippy.toml` and the crate-root `#![deny(clippy::…)]` blocks.
pub const RETIRED: &[(&str, &str)] = &[
    (
        "GSD001",
        "crate-root deny(clippy::unwrap_used, expect_used, panic, …)",
    ),
    ("GSD002", "clippy::disallowed_types (Instant, SystemTime)"),
    (
        "GSD005",
        "[workspace.lints.rust] unsafe_code = \"forbid\" (root Cargo.toml)",
    ),
    (
        "GSD006",
        "crate-root deny(clippy::cast_possible_truncation)",
    ),
    ("GSD007", "clippy::disallowed_types (HashMap, HashSet)"),
    ("GSD008", "clippy::disallowed_types (HashMap, HashSet)"),
    (
        "GSD009",
        "clippy::disallowed_methods (thread/channel/lock ctors)",
    ),
    (
        "GSD010",
        "clippy::disallowed_types (std::sync::atomic::Atomic*; gsd_trace::Counter)",
    ),
    (
        "GSD011",
        "clippy::disallowed_types / disallowed_methods (std::fs)",
    ),
    (
        "GSD012",
        "[workspace.lints.clippy] wildcard_enum_match_arm = \"deny\"",
    ),
];

/// Looks up a live rule's metadata by id.
pub(crate) fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// True if `id` was a rule once and is now enforced by the toolchain.
pub(crate) fn is_retired(id: &str) -> bool {
    RETIRED.iter().any(|(r, _)| *r == id)
}

/// True if `path` falls under prefix `p` (exact file match for `.rs`
/// entries, directory-prefix match otherwise).
pub(crate) fn matches_prefix(path: &str, p: &str) -> bool {
    if p.ends_with(".rs") {
        return path == p;
    }
    let p = p.trim_end_matches('/');
    path == p || (path.starts_with(p) && path.as_bytes().get(p.len()) == Some(&b'/'))
}

/// One lexed file plus the per-token test mask.
pub(crate) struct FileCx<'a> {
    /// Workspace-relative, `/`-separated path.
    pub(crate) path: &'a str,
    /// Token stream.
    pub(crate) tokens: &'a [Tok],
    /// `true` where the token sits in test code.
    pub(crate) mask: &'a [bool],
    /// Control comments from the lexer.
    pub(crate) directives: &'a [Directive],
}

/// True if the whole file is test/bench code by location.
fn path_is_test(path: &str) -> bool {
    path.split('/')
        .any(|seg| seg == "tests" || seg == "benches")
}

/// Computes the per-token test mask: `#[cfg(test)]` / `#[test]` items (the
/// attribute through the end of the item body) and test-located files.
pub(crate) fn test_mask(path: &str, tokens: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    if path_is_test(path) {
        mask.iter_mut().for_each(|m| *m = true);
        return mask;
    }
    let mut i = 0usize;
    while i < tokens.len() {
        if is_test_attribute(tokens, i) {
            let end = item_end(tokens, i);
            for m in mask.iter_mut().take(end + 1).skip(i) {
                *m = true;
            }
            i = end + 1;
        } else {
            i += 1;
        }
    }
    mask
}

/// `#[cfg(test…` or `#[test]` starting at token `i`?
fn is_test_attribute(tokens: &[Tok], i: usize) -> bool {
    let at = |k: usize| tokens.get(i + k);
    if !at(0).is_some_and(|t| t.is_punct('#')) || !at(1).is_some_and(|t| t.is_punct('[')) {
        return false;
    }
    match at(2) {
        Some(t) if t.is_ident("test") => at(3).is_some_and(|t| t.is_punct(']')),
        Some(t) if t.is_ident("cfg") => {
            at(3).is_some_and(|t| t.is_punct('('))
                && at(4).is_some_and(|t| t.is_ident("test"))
                && at(5).is_some_and(|t| t.is_punct(')') || t.is_punct(','))
        }
        _ => false,
    }
}

/// End index (inclusive) of the item a test attribute at `i` applies to:
/// past the attribute, then to the matching `}` of the first top-level `{`
/// (or to a top-level `;` for brace-less items).
fn item_end(tokens: &[Tok], i: usize) -> usize {
    let attr_end = close_of(tokens, i + 1);
    match scan_flat(tokens, attr_end + 1, |t, k| {
        t[k].is_punct('{') || t[k].is_punct(';')
    }) {
        Some(k) if tokens[k].is_punct('{') => close_of(tokens, k),
        Some(k) => k,
        None => attr_end, // an attribute on a field or expression, not an item
    }
}

fn is_open(t: &Tok) -> bool {
    t.is_punct('(') || t.is_punct('[') || t.is_punct('{')
}

fn is_close(t: &Tok) -> bool {
    t.is_punct(')') || t.is_punct(']') || t.is_punct('}')
}

/// Index of the bracket closing the `(`/`[`/`{` at `open`; the last token
/// if the file is unbalanced (code mid-edit).
fn close_of(tokens: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if is_open(t) {
            depth += 1;
        } else if is_close(t) {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    tokens.len() - 1
}

/// First index `>= from` where `stop` holds, stepping over whole bracket
/// groups; `None` once the bracket enclosing `from` closes first.
fn scan_flat(tokens: &[Tok], from: usize, stop: impl Fn(&[Tok], usize) -> bool) -> Option<usize> {
    let mut k = from;
    while k < tokens.len() {
        if stop(tokens, k) {
            return Some(k);
        }
        if is_open(&tokens[k]) {
            k = close_of(tokens, k);
        } else if is_close(&tokens[k]) {
            return None;
        }
        k += 1;
    }
    None
}

/// `tokens[k]` and `tokens[k + 1]` are both `:` — a path separator.
fn path_sep_at(tokens: &[Tok], k: usize) -> bool {
    tokens.get(k).is_some_and(|t| t.is_punct(':'))
        && tokens.get(k + 1).is_some_and(|t| t.is_punct(':'))
}

/// `tokens[k]` is the method name of a `.name(` call.
fn is_method_call(tokens: &[Tok], k: usize) -> bool {
    k > 0
        && tokens[k].kind == TokKind::Ident
        && tokens[k - 1].is_punct('.')
        && tokens.get(k + 1).is_some_and(|t| t.is_punct('('))
}

/// A diagnostic for rule `id` at `line` of `file`.
fn diag(id: &'static str, file: &str, line: u32, message: String) -> Diagnostic {
    Diagnostic {
        rule: id,
        file: file.to_string(),
        line,
        message,
    }
}

// ---- GSD000 — malformed directives ----

/// Emits GSD000 for every malformed or unjustified control comment.
pub(crate) fn check_directives(cx: &FileCx<'_>, out: &mut Vec<Diagnostic>) {
    for d in cx.directives {
        let why = match &d.malformed {
            Some(why) => why.clone(),
            None if rule_info(&d.rule).is_none() && !is_retired(&d.rule) => {
                format!("`{}` is not a registered gsd-lint rule", d.rule)
            }
            None => continue,
        };
        out.push(diag("GSD000", cx.path, d.line, why));
    }
}

// ---- GSD003 — lock guard held across storage I/O ----

/// Storage-layer entry points whose call under a held guard is flagged:
/// every `Storage` method that touches the store (`len` is left out — it
/// is every collection's `len` too), `GridGraph`'s read surface, and the
/// vertex store's flush.
const IO_METHODS: &[&str] = &[
    // gsd_io::Storage
    "create",
    "read_at",
    "write_at",
    "exists",
    "delete",
    "list_keys",
    "read_unaccounted",
    "read_all",
    "sync",
    // gsd_graph::GridGraph
    "read_block",
    "read_block_into",
    "read_row_index_span",
    "read_index",
    "read_edge_run",
    "load_out_degrees",
    // gsd_runtime::VertexStore
    "write_all",
];

const GUARD_METHODS: &[&str] = &["lock", "read", "write"];

/// Flags `let guard = ….lock()/read()/write();` bindings whose lexical
/// scope (to the enclosing block's `}` or an explicit `drop(guard)`)
/// contains a storage I/O call.
pub(crate) fn check_gsd003(cx: &FileCx<'_>, cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
    if !cfg
        .paths("GSD003")
        .iter()
        .any(|p| matches_prefix(cx.path, p))
    {
        return;
    }
    let toks = cx.tokens;
    for i in 0..toks.len() {
        // `if let` / `while let` bind pattern matches, not guards.
        if cx.mask[i]
            || !toks[i].is_ident("let")
            || (i > 0 && (toks[i - 1].is_ident("if") || toks[i - 1].is_ident("while")))
        {
            continue;
        }
        let Some(stmt_end) = scan_flat(toks, i, |t, k| t[k].is_punct(';')) else {
            continue;
        };
        let Some(guard) = guard_binding(toks, i, stmt_end) else {
            continue;
        };
        if let Some(io) = first_io_call_under(toks, stmt_end + 1, guard) {
            out.push(diag(
                "GSD003",
                cx.path,
                toks[i].line,
                format!(
                    "lock guard `{guard}` is held across the storage call `{}` \
                     (line {}) — drop the guard (or copy what you need out \
                     of it) before touching storage",
                    io.text, io.line
                ),
            ));
        }
    }
}

/// Does `let …;` over `[start, stmt_end]` bind a lock guard? True when the
/// statement's last `.lock()` / `.read()` / `.write()` call is followed
/// only by guard-preserving ops (`?`, `.unwrap()`, `.expect(…)`), so the
/// guard outlives the statement. A longer chain (`.lock().forget(k)`)
/// consumes the guard within the statement and is fine. Tuple and struct
/// patterns are skipped — storage guards are plain bindings.
fn guard_binding(tokens: &[Tok], start: usize, stmt_end: usize) -> Option<&str> {
    let n = start + 1 + usize::from(tokens[start + 1].is_ident("mut"));
    let plain = n < stmt_end
        && tokens[n].kind == TokKind::Ident
        && (tokens[n + 1].is_punct('=') || tokens[n + 1].is_punct(':'));
    if !plain {
        return None;
    }
    let guard_call = (start..stmt_end).rev().find(|&k| {
        is_method_call(tokens, k)
            && GUARD_METHODS.contains(&tokens[k].text.as_str())
            && tokens[k + 2].is_punct(')') // in bounds: `;` follows at stmt_end
    })?;
    let mut k = guard_call + 3;
    while k < stmt_end {
        if tokens[k].is_punct('?') {
            k += 1;
        } else if tokens[k].is_punct('.')
            && is_method_call(tokens, k + 1)
            && (tokens[k + 1].is_ident("unwrap") || tokens[k + 1].is_ident("expect"))
        {
            k = close_of(tokens, k + 2) + 1;
        } else {
            return None;
        }
    }
    Some(&tokens[n].text)
}

/// First storage I/O method call after `from` while `guard` is alive: the
/// scan ends where the enclosing block closes or at `drop(guard)`.
fn first_io_call_under<'a>(tokens: &'a [Tok], from: usize, guard: &str) -> Option<&'a Tok> {
    let mut depth = 0i32;
    for k in from..tokens.len() {
        let t = &tokens[k];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth < 0 {
                return None;
            }
        } else if t.is_ident("drop")
            && tokens.get(k + 1).is_some_and(|t| t.is_punct('('))
            && tokens.get(k + 2).is_some_and(|t| t.is_ident(guard))
        {
            return None;
        } else if is_method_call(tokens, k) && IO_METHODS.contains(&t.text.as_str()) {
            return Some(t);
        }
    }
    None
}

// ---- GSD004 — dead telemetry (cross-file) ----

/// Cross-file check: every variant of the trace-event enum must be
/// constructed in at least one non-test file other than its definition.
pub(crate) fn check_gsd004(files: &[FileCx<'_>], cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
    let Some(event_cx) = files.iter().find(|f| f.path == cfg.event_file) else {
        return; // No event file in this workspace view — nothing to check.
    };
    let mut constructed: BTreeSet<&str> = BTreeSet::new();
    for cx in files.iter().filter(|cx| cx.path != cfg.event_file) {
        collect_constructions(cx, &cfg.event_enum, &mut constructed);
    }
    for variant in enum_variants(event_cx.tokens, &cfg.event_enum) {
        if !constructed.contains(variant.text.as_str()) {
            out.push(diag(
                "GSD004",
                event_cx.path,
                variant.line,
                format!(
                    "trace event `{}::{}` is never constructed outside tests — \
                     dead telemetry: either emit it or remove the variant",
                    cfg.event_enum, variant.text
                ),
            ));
        }
    }
}

/// The variant-name tokens of `enum <name> { … }`, empty if not defined
/// in this file.
fn enum_variants<'a>(tokens: &'a [Tok], name: &str) -> Vec<&'a Tok> {
    let Some(open) = (2..tokens.len()).find(|&i| {
        tokens[i].is_punct('{') && tokens[i - 1].is_ident(name) && tokens[i - 2].is_ident("enum")
    }) else {
        return Vec::new();
    };
    let close = close_of(tokens, open);
    let mut out = Vec::new();
    let mut k = open + 1;
    while k < close {
        if tokens[k].is_punct('#') {
            k = close_of(tokens, k + 1) + 1; // an attribute's bracket group
        } else if tokens[k].kind == TokKind::Ident {
            out.push(&tokens[k]);
            // Skip the payload to the `,` ending the variant.
            k = scan_flat(tokens, k + 1, |t, j| t[j].is_punct(',')).map_or(close, |c| c + 1);
        } else {
            k += 1;
        }
    }
    out
}

/// Records variants of `enum_name` that this file *constructs* (as opposed
/// to pattern-matches) in non-test code. `Enum::Variant { … }` is a
/// pattern when it follows `let`, ends in a bare `..`, or is followed by
/// `=>`, `|`, `=` or `if`; anything else counts as a construction.
fn collect_constructions<'a>(cx: &FileCx<'a>, enum_name: &str, out: &mut BTreeSet<&'a str>) {
    let toks = cx.tokens;
    for i in 0..toks.len() {
        let struct_like = !cx.mask[i]
            && toks[i].is_ident(enum_name)
            && path_sep_at(toks, i + 1)
            && toks.get(i + 3).is_some_and(|t| t.kind == TokKind::Ident)
            && toks.get(i + 4).is_some_and(|t| t.is_punct('{'));
        if !struct_like {
            continue; // a bare path is a unit-variant reference or pattern
        }
        let close = close_of(toks, i + 4);
        let is_pattern = (i > 0 && toks[i - 1].is_ident("let"))
            || (toks[close - 1].is_punct('.') && toks[close - 2].is_punct('.'))
            || toks
                .get(close + 1)
                .is_some_and(|t| t.is_punct('|') || t.is_punct('=') || t.is_ident("if"));
        if !is_pattern {
            out.insert(&toks[i + 3].text);
        }
    }
}
