//! The rule registry and the seven checks.
//!
//! Every rule is a pattern over the token stream from [`crate::lexer`]
//! plus bracket matching — there is no syntax tree, no name resolution and
//! no dataflow. Whatever can be said as "this type / this function is
//! banned" is said to the toolchain instead (`clippy.toml` and the
//! crate-root `deny` blocks; see [`RETIRED`]). What stays here is what no
//! off-the-shelf lint expresses: a guard *held across* a storage call, a
//! trace variant nobody constructs, `Relaxed` on anything but a listed
//! counter, a catch-all over one particular enum.
//!
//! Rules are scoped by the workspace-relative path prefixes in `lint.toml`
//! — the only source of scopes — and skip *test regions*: `#[cfg(test)]` /
//! `#[test]` items, and files under `tests/` or `benches/` directories.

use crate::config::{LintConfig, Severity};
use crate::diagnostics::Diagnostic;
use crate::lexer::{Directive, Tok, TokKind};
use std::collections::BTreeSet;
use std::ops::Range;

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

/// The live rules, in id order. Every rule is an error unless `lint.toml`
/// sets another severity.
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
    RuleInfo {
        id: "GSD006",
        summary: "no `as u32` truncation in graph/offset arithmetic",
        invariant: "vertex ids and offsets narrow through gsd_graph::narrow so overflow \
                    fails loudly instead of wrapping",
        scoped: true,
    },
    RuleInfo {
        id: "GSD010",
        summary: "Ordering::Relaxed only on allow-listed statistics counters",
        invariant: "Relaxed is safe only for monotonic counters; on anything else it \
                    licenses reorderings that break cross-thread protocols",
        scoped: true,
    },
    RuleInfo {
        id: "GSD011",
        summary: "no std::fs / File in the engine and kernel crates",
        invariant: "all engine I/O goes through gsd_io::Storage, the one place bytes are \
                    accounted, priced and fault-injected",
        scoped: true,
    },
    RuleInfo {
        id: "GSD012",
        summary: "no catch-all arm in matches over exhaustiveness-listed enums",
        invariant: "a `_` arm silently swallows newly-added variants; listing them makes \
                    every addition a reviewed decision",
        scoped: true,
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
    ("GSD007", "clippy::disallowed_types (HashMap, HashSet)"),
    ("GSD008", "clippy::disallowed_types (HashMap, HashSet)"),
    (
        "GSD009",
        "clippy::disallowed_methods (thread/channel/lock ctors)",
    ),
];

/// Looks up a live rule's metadata by id.
pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// True if `id` was a rule once and is now enforced by the toolchain.
pub fn is_retired(id: &str) -> bool {
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
pub struct FileCx<'a> {
    /// Workspace-relative, `/`-separated path.
    pub path: &'a str,
    /// Token stream.
    pub tokens: &'a [Tok],
    /// `true` where the token sits in test code.
    pub mask: &'a [bool],
    /// Control comments from the lexer.
    pub directives: &'a [Directive],
}

/// True if the whole file is test/bench code by location.
pub fn path_is_test(path: &str) -> bool {
    path.split('/')
        .any(|seg| seg == "tests" || seg == "benches")
}

/// Computes the per-token test mask: `#[cfg(test)]` / `#[test]` items (the
/// attribute through the end of the item body) and test-located files.
pub fn test_mask(path: &str, tokens: &[Tok]) -> Vec<bool> {
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

fn severity(id: &str, cfg: &LintConfig) -> Severity {
    cfg.rule(id).severity.unwrap_or(Severity::Error)
}

/// A diagnostic for rule `id` at `(line, col)` of `file`.
fn diag(
    id: &'static str,
    cfg: &LintConfig,
    file: &str,
    (line, col): (u32, u32),
    message: String,
) -> Diagnostic {
    Diagnostic {
        rule: id,
        severity: severity(id, cfg),
        file: file.to_string(),
        line,
        col,
        message,
    }
}

fn rule_enabled(id: &str, cfg: &LintConfig) -> bool {
    severity(id, cfg) != Severity::Off
}

/// Is the rule on, and `path` inside its `paths` minus its `allow_paths`?
fn rule_applies(id: &str, path: &str, cfg: &LintConfig) -> bool {
    let rc = cfg.rule(id);
    rule_enabled(id, cfg)
        && rc.paths.iter().any(|p| matches_prefix(path, p))
        && !rc.allow_paths.iter().any(|p| matches_prefix(path, p))
}

// ---- GSD000 — malformed directives ----

/// Emits GSD000 for every malformed or unjustified control comment.
pub fn check_directives(cx: &FileCx<'_>, cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
    if !rule_enabled("GSD000", cfg) {
        return;
    }
    for d in cx.directives {
        let why = match &d.malformed {
            Some(why) => why.clone(),
            None if rule_info(&d.rule).is_none() && !is_retired(&d.rule) => {
                format!("`{}` is not a registered gsd-lint rule", d.rule)
            }
            None => continue,
        };
        out.push(diag("GSD000", cfg, cx.path, (d.line, 1), why));
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
pub fn check_gsd003(cx: &FileCx<'_>, cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
    if !rule_applies("GSD003", cx.path, cfg) {
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
                cfg,
                cx.path,
                toks[i].pos(),
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
pub fn check_gsd004(files: &[FileCx<'_>], cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
    if !rule_enabled("GSD004", cfg) {
        return;
    }
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
                cfg,
                event_cx.path,
                variant.pos(),
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

// ---- GSD006 — `as u32` truncation in graph/offset arithmetic ----

/// Flags `as u32` casts in the id/offset-arithmetic crates; narrowing must
/// go through `gsd_graph::narrow` so truncation fails loudly.
pub fn check_gsd006(cx: &FileCx<'_>, cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
    if !rule_applies("GSD006", cx.path, cfg) {
        return;
    }
    for (i, tok) in cx.tokens.iter().enumerate() {
        if !cx.mask[i]
            && tok.is_ident("as")
            && cx.tokens.get(i + 1).is_some_and(|t| t.is_ident("u32"))
        {
            out.push(diag(
                "GSD006",
                cfg,
                cx.path,
                tok.pos(),
                "`as u32` in graph/offset arithmetic silently truncates — narrow \
                 through `gsd_graph::narrow` (to_u32/from_usize/…) instead"
                    .to_string(),
            ));
        }
    }
}

// ---- GSD010 — Ordering::Relaxed outside allow-listed counters ----

/// Flags every `Relaxed` that is not an argument of a method call on one
/// of the statistics counters listed under `[rules.GSD010] idents`.
pub fn check_gsd010(cx: &FileCx<'_>, cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
    if !rule_applies("GSD010", cx.path, cfg) {
        return;
    }
    let allowed = cfg.rule("GSD010").idents;
    for (i, tok) in cx.tokens.iter().enumerate() {
        if cx.mask[i] || !tok.is_ident("Relaxed") {
            continue;
        }
        let recv = relaxed_receiver(cx.tokens, i);
        if recv.is_some_and(|r| allowed.iter().any(|a| a == r)) {
            continue;
        }
        out.push(diag(
            "GSD010",
            cfg,
            cx.path,
            tok.pos(),
            format!(
                "`Ordering::Relaxed` on `{}` — Relaxed is reserved for the \
                 allow-listed statistics counters; use Acquire/Release, or \
                 add the counter to [rules.GSD010] idents in lint.toml",
                recv.unwrap_or("<expression>")
            ),
        ));
    }
}

/// The receiver of the method call that the token at `i` is an argument
/// of: `self.write_ops.fetch_add(1, Ordering::Relaxed)` → `write_ops`.
/// `None` for a free-function call, a `self.method(…)` call, a receiver
/// that is itself a call result, or a `Relaxed` outside any call.
fn relaxed_receiver(tokens: &[Tok], i: usize) -> Option<&str> {
    let mut depth = 0i32;
    let open = (0..i).rev().find(|&k| {
        let t = &tokens[k];
        if t.is_punct(')') {
            depth += 1;
        } else if t.is_punct('(') {
            depth -= 1;
        }
        depth < 0 || t.is_punct(';') || t.is_punct('{') || t.is_punct('}')
    })?;
    if !tokens[open].is_punct('(') || open < 3 || !is_method_call(tokens, open - 1) {
        return None;
    }
    // Step left over `[index]` groups: `self.counters[i].fetch_add(…)`.
    let mut r = open - 3;
    while tokens[r].is_punct(']') {
        let mut depth = 0i32;
        r = (0..=r).rev().find(|&k| {
            depth += i32::from(tokens[k].is_punct(']')) - i32::from(tokens[k].is_punct('['));
            depth == 0
        })?;
        r = r.checked_sub(1)?;
    }
    (tokens[r].kind == TokKind::Ident && !tokens[r].is_ident("self"))
        .then(|| tokens[r].text.as_str())
}

// ---- GSD011 — no std::fs / File in the engine and kernel crates ----

/// Flags any mention of `File` or an `fs::` path in non-test code of the
/// engine and kernel crates: their I/O goes through `gsd_io::Storage`. A
/// name ban — one finding per line.
pub fn check_gsd011(cx: &FileCx<'_>, cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
    if !rule_applies("GSD011", cx.path, cfg) {
        return;
    }
    let toks = cx.tokens;
    let mut last_line = 0u32;
    for (i, tok) in toks.iter().enumerate() {
        let hit = tok.is_ident("File")
            || (tok.is_ident("fs")
                && (path_sep_at(toks, i + 1) || (i >= 2 && path_sep_at(toks, i - 2))));
        if cx.mask[i] || !hit || tok.line == last_line {
            continue;
        }
        last_line = tok.line;
        out.push(diag(
            "GSD011",
            cfg,
            cx.path,
            tok.pos(),
            format!(
                "`{}` in an engine/kernel crate — raw file I/O bypasses the accounted, \
                 priced and fault-injected block API; go through `gsd_io::Storage`",
                tok.text
            ),
        ));
    }
}

// ---- GSD012 — exhaustive matches over listed enums (cross-file) ----

/// Cross-file check: a `match` whose arms name a variant of an enum listed
/// under `[rules.GSD012] enums` must not have a catch-all arm while
/// variants remain uncovered.
pub fn check_gsd012(files: &[FileCx<'_>], cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
    // Variant sets come from whichever file defines each listed enum.
    let listed: Vec<(String, Vec<&Tok>)> = cfg
        .rule("GSD012")
        .enums
        .into_iter()
        .filter_map(|name| {
            let vars = files
                .iter()
                .map(|cx| enum_variants(cx.tokens, &name))
                .find(|v| !v.is_empty())?;
            Some((name, vars))
        })
        .collect();
    for cx in files {
        if !rule_applies("GSD012", cx.path, cfg) {
            continue;
        }
        for (i, tok) in cx.tokens.iter().enumerate() {
            if cx.mask[i] || !tok.is_ident("match") {
                continue;
            }
            let arms = match_arm_patterns(cx.tokens, i);
            let Some(catch) = arms.iter().find(|a| is_catch_all(&cx.tokens[(*a).clone()])) else {
                continue;
            };
            for (name, variants) in &listed {
                let covered: BTreeSet<&str> = arms
                    .iter()
                    .flat_map(|a| a.clone())
                    .filter(|&k| cx.tokens[k].is_ident(name) && path_sep_at(cx.tokens, k + 1))
                    .filter_map(|k| cx.tokens.get(k + 3).map(|t| t.text.as_str()))
                    .collect();
                let missing: Vec<&str> = variants
                    .iter()
                    .map(|v| v.text.as_str())
                    .filter(|v| !covered.contains(v))
                    .collect();
                if covered.is_empty() || missing.is_empty() {
                    continue; // not a match over this enum, or fully listed
                }
                out.push(diag(
                    "GSD012",
                    cfg,
                    cx.path,
                    cx.tokens[catch.start].pos(),
                    format!(
                        "catch-all arm in a `match` over `{name}` hides {} unhandled variant(s): \
                         {} — list them explicitly so adding a variant forces a decision here",
                        missing.len(),
                        missing.join(", ")
                    ),
                ));
            }
        }
    }
}

/// Token ranges of the arm patterns (guards included) of the `match` whose
/// keyword is at `at`.
fn match_arm_patterns(tokens: &[Tok], at: usize) -> Vec<Range<usize>> {
    let Some(open) = scan_flat(tokens, at + 1, |t, k| t[k].is_punct('{')) else {
        return Vec::new();
    };
    let close = close_of(tokens, open);
    let mut arms = Vec::new();
    let mut k = open + 1;
    while k < close {
        if tokens[k].is_punct('#') {
            k = close_of(tokens, k + 1) + 1; // an attribute on the arm
            continue;
        }
        let Some(arrow) = scan_flat(tokens, k, |t, j| {
            t[j].is_punct('=') && t.get(j + 1).is_some_and(|n| n.is_punct('>'))
        }) else {
            break;
        };
        arms.push(k..arrow);
        // The body is a block, or an expression up to the arm's `,`.
        let body = arrow + 2;
        k = if tokens.get(body).is_some_and(|t| t.is_punct('{')) {
            close_of(tokens, body) + 1
        } else {
            scan_flat(tokens, body, |t, j| t[j].is_punct(',')).unwrap_or(close)
        };
        if tokens.get(k).is_some_and(|t| t.is_punct(',')) {
            k += 1;
        }
    }
    arms
}

/// `_` or a plain lower-case binding (optionally `ref`/`mut`, optionally
/// guarded) — the arms that swallow variants added later.
fn is_catch_all(pattern: &[Tok]) -> bool {
    let end = pattern
        .iter()
        .position(|t| t.is_ident("if"))
        .unwrap_or(pattern.len());
    let mut words = pattern[..end]
        .iter()
        .skip_while(|t| t.is_punct('|') || t.is_ident("ref") || t.is_ident("mut"));
    match (words.next(), words.next()) {
        (Some(t), None) if t.kind == TokKind::Ident => {
            let name = t.ident_text();
            name.starts_with(|c: char| c.is_lowercase() || c == '_')
                && !matches!(name, "true" | "false")
        }
        _ => false,
    }
}
