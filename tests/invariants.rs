//! The two invariants no toolchain lint can say (DESIGN.md §11), over
//! every non-test `.rs` file under `src/` and `crates/*/src/`:
//! * GSD003: no lock guard (`let g = ….lock()/read()/write();`) is held
//!   across a storage call, which can block for a device seek.
//! * GSD004: every `TraceEvent` variant of the `trace_events!` table is
//!   constructed outside tests, so the schema names no event no run emits.
//!
//! Token patterns and bracket matching over a comment- and literal-aware
//! tokenizer; `#[test]`/`#[cfg(test)]` items are exempt. There is no
//! exception list: an exception would be an edit to this file. Fixtures
//! pin each rule; the canaries edit one violation into the real tree.

#![expect(
    clippy::disallowed_methods,
    reason = "test: reads the source tree it checks"
)]

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

const EVENT_FILE: &str = "crates/gsd-trace/src/event.rs";
const STORAGE_FILE: &str = "crates/gsd-io/src/storage.rs";

/// `Storage`'s methods but `len` (every collection has one), `GridGraph`'s
/// read surface and the vertex store's flush.
const IO_METHODS: &str = "create read_at write_at exists delete list_keys read_unaccounted \
     read_all sync read_block read_block_into read_block_payload read_row_index_span read_index \
     read_edge_run load_out_degrees write_all";

const GUARD_METHODS: &str = "lock read write";

// ---- tokenizer ----

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Ident,
    /// One punctuation character.
    Punct,
    /// A string, byte, raw or char literal, a number or a lifetime.
    Lit,
}

#[derive(Debug)]
struct Tok {
    kind: Kind,
    text: String,
    line: u32,
}

/// `toks[k]` is the identifier or punctuation `s`.
fn at(toks: &[Tok], k: usize, s: &str) -> bool {
    toks.get(k)
        .is_some_and(|t| t.kind != Kind::Lit && t.text == s)
}

fn is_word(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

/// A tick at `i` opens a char literal iff the closing tick follows one
/// scalar or an escape; otherwise it is a lifetime or a loop label.
fn char_follows(s: &[char], i: usize) -> bool {
    matches!(
        (s.get(i + 1), s.get(i + 2)),
        (Some('\\'), _) | (Some(_), Some('\''))
    )
}

/// End (exclusive) of the literal quoted by `s[i]`, escapes honoured.
fn quoted_end(s: &[char], mut i: usize) -> usize {
    let quote = s[i];
    i += 1;
    while i < s.len() && s[i] != quote {
        i += if s[i] == '\\' { 2 } else { 1 };
    }
    s.len().min(i + 1)
}

/// End (exclusive) of the raw string whose `#…#"` starts at `i`, if one
/// does.
fn raw_end(s: &[char], i: usize) -> Option<usize> {
    let hashes = s[i..].iter().take_while(|&&c| c == '#').count();
    if s.get(i + hashes) != Some(&'"') {
        return None;
    }
    let closes =
        |k: &usize| s[*k] == '"' && s[k + 1..].iter().take_while(|&&c| c == '#').count() >= hashes;
    let end = (i + hashes + 1..s.len()).find(closes);
    Some(end.map_or(s.len(), |k| k + 1 + hashes))
}

/// End (exclusive) of the (nested) block comment starting at `i`.
fn block_comment_end(s: &[char], mut i: usize) -> usize {
    let mut depth = 0usize;
    while i < s.len() {
        match (s[i], s.get(i + 1)) {
            ('/', Some('*')) => depth += 1,
            ('*', Some('/')) => depth -= 1,
            _ => {
                i += 1;
                continue;
            }
        }
        i += 2;
        if depth == 0 {
            return i;
        }
    }
    s.len()
}

/// Identifiers, literals and single-character punctuation with 1-based
/// lines; comments and whitespace are dropped.
fn tokenize(src: &str) -> Vec<Tok> {
    let s: Vec<char> = src.chars().collect();
    let (mut out, mut i, mut line) = (Vec::new(), 0usize, 1u32);
    while i < s.len() {
        let c = s[i];
        let word_end = i + s[i..].iter().take_while(|&&c| is_word(c)).count();
        let prefix = &s[i..word_end];
        let (kind, end) = if c.is_whitespace() {
            (None, i + 1)
        } else if c == '/' && s.get(i + 1) == Some(&'/') {
            (None, i + s[i..].iter().take_while(|&&c| c != '\n').count())
        } else if c == '/' && s.get(i + 1) == Some(&'*') {
            (None, block_comment_end(&s, i))
        } else if c == '"' || (c == '\'' && char_follows(&s, i)) {
            (Some(Kind::Lit), quoted_end(&s, i))
        } else if c == '\'' {
            let name = s[i + 1..].iter().take_while(|&&c| is_word(c)).count();
            (Some(Kind::Lit), i + 1 + name)
        } else if let Some(end) = (prefix == ['r'] || prefix == ['b', 'r'])
            .then(|| raw_end(&s, word_end))
            .flatten()
        {
            (Some(Kind::Lit), end)
        } else if c.is_ascii_digit() {
            (Some(Kind::Lit), word_end)
        } else if word_end > i {
            (Some(Kind::Ident), word_end)
        } else {
            (Some(Kind::Punct), i + 1)
        };
        if let Some(kind) = kind {
            let text = s[i..end].iter().collect();
            out.push(Tok { kind, text, line });
        }
        line += s[i..end].iter().filter(|&&c| c == '\n').count() as u32;
        i = end;
    }
    out
}

// ---- bracket matching and the test-region mask ----

/// `+1` for an opening bracket, `-1` for a closing one.
fn nest(t: &Tok) -> i32 {
    match t.text.as_str() {
        _ if t.kind != Kind::Punct => 0,
        "(" | "[" | "{" => 1,
        ")" | "]" | "}" => -1,
        _ => 0,
    }
}

/// Index of the bracket closing the first one at or after `open`; the
/// last token if the file is unbalanced.
fn close_of(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0;
    for (k, t) in toks.iter().enumerate().skip(open) {
        depth += nest(t);
        if depth == 0 && nest(t) < 0 {
            return k;
        }
    }
    toks.len() - 1
}

/// First index `>= from` where `stop` holds, stepping over whole bracket
/// groups; `None` once the bracket enclosing `from` closes first.
fn scan_flat(toks: &[Tok], from: usize, stop: impl Fn(&Tok) -> bool) -> Option<usize> {
    let mut k = from;
    while k < toks.len() {
        if stop(&toks[k]) {
            return Some(k);
        }
        match nest(&toks[k]) {
            1 => k = close_of(toks, k),
            -1 => return None,
            _ => {}
        }
        k += 1;
    }
    None
}

/// `true` for every token of a `#[test]` / `#[cfg(test…` item: the
/// attribute through the matching `}` of the item's first top-level `{`
/// (or its `;`).
fn test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        let is = |k: usize, s: &str| at(toks, i + k, s);
        let cfg_test = is(2, "cfg") && is(3, "(") && is(4, "test") && (is(5, ")") || is(5, ","));
        if !(is(0, "#") && is(1, "[") && ((is(2, "test") && is(3, "]")) || cfg_test)) {
            i += 1;
            continue;
        }
        let attr_end = close_of(toks, i + 1);
        let end = match scan_flat(toks, attr_end + 1, |t| t.text == "{" || t.text == ";") {
            Some(k) if toks[k].text == "{" => close_of(toks, k),
            Some(k) => k,
            None => attr_end, // on a field or an expression, not an item
        };
        mask[i..=end].iter_mut().for_each(|m| *m = true);
        i = end + 1;
    }
    mask
}

// ---- the rules ----

struct File {
    path: String,
    toks: Vec<Tok>,
    mask: Vec<bool>,
}

fn file(path: &str, text: &str) -> File {
    let toks = tokenize(text);
    let mask = test_mask(&toks);
    let path = path.to_string();
    File { path, toks, mask }
}

/// A rule, the path and line it is anchored at, and the storage call
/// (GSD003) or the variant (GSD004) it names.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Finding(&'static str, String, u32, String);

/// `toks[k]` is the method name of a `.name(` call in `names`.
fn is_call(toks: &[Tok], k: usize, names: &str) -> bool {
    k > 0
        && toks[k].kind == Kind::Ident
        && at(toks, k - 1, ".")
        && at(toks, k + 1, "(")
        && names.split_whitespace().any(|n| n == toks[k].text)
}

/// GSD003: a `let` binding a lock guard, and a storage call before the
/// enclosing block closes or the guard is `drop`ped; anchored at the `let`.
fn gsd003(f: &File) -> Vec<Finding> {
    let toks = &f.toks;
    let finding = |i: usize| -> Option<Finding> {
        if f.mask[i] || !at(toks, i, "let") {
            return None;
        }
        let stmt_end = scan_flat(toks, i, |t| t.text == ";")?;
        let guard = guard_binding(toks, i, stmt_end)?;
        let io = first_io_call_under(toks, stmt_end + 1, guard)?;
        Some(Finding("GSD003", f.path.clone(), toks[i].line, io.into()))
    };
    (0..toks.len()).filter_map(finding).collect()
}

/// The name `let …;` over `[start, stmt_end]` binds, if it is a lock
/// guard: a plain binding whose last `.lock()`/`.read()`/`.write()` is
/// followed only by `?`, `.unwrap()` or `.expect(…)`. A longer chain
/// (`.lock().forget(k)`) consumes the guard within the statement.
fn guard_binding(toks: &[Tok], start: usize, stmt_end: usize) -> Option<&str> {
    let n = start + 1 + usize::from(at(toks, start + 1, "mut"));
    let plain = n < stmt_end
        && toks[n].kind == Kind::Ident
        && (at(toks, n + 1, "=") || at(toks, n + 1, ":"));
    let guard_call = (start..stmt_end)
        .rev()
        .find(|&k| is_call(toks, k, GUARD_METHODS) && at(toks, k + 2, ")"))
        .filter(|_| plain)?;
    let mut k = guard_call + 3;
    while k < stmt_end {
        if at(toks, k, "?") {
            k += 1;
        } else if at(toks, k, ".") && is_call(toks, k + 1, "unwrap expect") {
            k = close_of(toks, k + 2) + 1;
        } else {
            return None;
        }
    }
    Some(&toks[n].text)
}

/// The first storage call after `from` while `guard` lives: the scan ends
/// where the enclosing block closes or at `drop(guard)`.
fn first_io_call_under<'a>(toks: &'a [Tok], from: usize, guard: &str) -> Option<&'a str> {
    let mut depth = 0i32;
    for k in from..toks.len() {
        depth += i32::from(at(toks, k, "{")) - i32::from(at(toks, k, "}"));
        let dropped = at(toks, k, "drop") && at(toks, k + 1, "(") && at(toks, k + 2, guard);
        if depth < 0 || dropped {
            return None;
        }
        if is_call(toks, k, IO_METHODS) {
            return Some(&toks[k].text);
        }
    }
    None
}

/// The variant-name tokens of `enum TraceEvent { … }`: the plain enum or
/// the `trace_events!` table, which spells it the same way.
fn variants(toks: &[Tok]) -> Vec<&Tok> {
    let Some(open) = (2..toks.len())
        .find(|&i| at(toks, i, "{") && at(toks, i - 1, "TraceEvent") && at(toks, i - 2, "enum"))
    else {
        return Vec::new();
    };
    let close = close_of(toks, open);
    let (mut out, mut k) = (Vec::new(), open + 1);
    while k < close {
        if at(toks, k, "#") {
            k = close_of(toks, k + 1) + 1;
        } else if toks[k].kind == Kind::Ident {
            out.push(&toks[k]);
            k = scan_flat(toks, k + 1, |t| t.text == ",").map_or(close, |c| c + 1);
        } else {
            k += 1;
        }
    }
    out
}

/// Variants `f` constructs outside tests. `TraceEvent::V { … }` is a
/// pattern when it follows `let`, ends in a bare `..`, or is followed by
/// `=>`, `|`, `=` or `if`; anything else is a construction. A bare path
/// is a unit-variant reference or a pattern.
fn constructions(f: &File) -> impl Iterator<Item = &str> {
    let toks = &f.toks;
    (0..toks.len()).filter_map(move |i| {
        let struct_like = !f.mask[i]
            && at(toks, i, "TraceEvent")
            && at(toks, i + 1, ":")
            && at(toks, i + 2, ":")
            && toks.get(i + 3).is_some_and(|t| t.kind == Kind::Ident)
            && at(toks, i + 4, "{");
        if !struct_like {
            return None;
        }
        let close = close_of(toks, i + 4);
        let is_pattern = (i > 0 && at(toks, i - 1, "let"))
            || (at(toks, close - 1, ".") && at(toks, close - 2, "."))
            || ["|", "=", "if"].iter().any(|s| at(toks, close + 1, s));
        (!is_pattern).then_some(toks[i + 3].text.as_str())
    })
}

/// GSD004: each variant defined in `EVENT_FILE` that no other file
/// constructs, anchored at its definition.
fn gsd004(files: &[File]) -> Vec<Finding> {
    let Some(event) = files.iter().find(|f| f.path == EVENT_FILE) else {
        return Vec::new();
    };
    let others = files.iter().filter(|f| f.path != EVENT_FILE);
    let built: BTreeSet<&str> = others.flat_map(constructions).collect();
    let dead = variants(&event.toks)
        .into_iter()
        .filter(|v| !built.contains(v.text.as_str()));
    dead.map(|v| Finding("GSD004", EVENT_FILE.into(), v.line, v.text.clone()))
        .collect()
}

/// Both rules over one set of files, sorted.
fn check(files: &[File]) -> Vec<Finding> {
    let mut out: Vec<Finding> = files.iter().flat_map(gsd003).collect();
    out.extend(gsd004(files));
    out.sort();
    out
}

// ---- the tree, the canaries and the fixtures ----

/// `(path, text)` of every `.rs` file under `src/` and `crates/*/src/`.
fn tree() -> Vec<(String, String)> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).expect("readable directory") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut paths = Vec::new();
    walk(&root.join("src"), &mut paths);
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let src = krate.expect("directory entry").path().join("src");
        if src.is_dir() {
            walk(&src, &mut paths);
        }
    }
    paths.sort();
    let read = |p: &PathBuf| {
        let rel = p.strip_prefix(root).expect("under the root");
        let text = std::fs::read_to_string(p).expect("UTF-8 source");
        (rel.to_string_lossy().replace('\\', "/"), text)
    };
    paths.iter().map(read).collect()
}

/// Both rules over the tree with `new_line` inserted into `path` before
/// its first line containing `anchor`, and the inserted line's number.
fn canary(path: &str, anchor: &str, new_line: &str) -> (Vec<Finding>, u32) {
    let mut inserted = 0;
    let mut edit = |(p, text): &(String, String)| {
        if p != path {
            return file(p, text);
        }
        let mut lines: Vec<&str> = text.lines().collect();
        let idx = lines.iter().position(|l| l.contains(anchor));
        let idx = idx.expect("anchor line");
        lines.insert(idx, new_line);
        inserted = idx as u32 + 1;
        file(p, &lines.join("\n"))
    };
    let files: Vec<File> = tree().iter().map(&mut edit).collect();
    (check(&files), inserted)
}

/// `(rule, line, name)` of each finding.
fn names(findings: &[Finding]) -> Vec<(&str, u32, &str)> {
    findings.iter().map(|f| (f.0, f.2, &*f.3)).collect()
}

#[test]
fn the_tree_holds_both_invariants_with_no_exception() {
    let files: Vec<File> = tree().iter().map(|(p, t)| file(p, t)).collect();
    assert!(files.len() > 80, "the walk found {} files", files.len());
    let event = files.iter().find(|f| f.path == EVENT_FILE);
    let event = event.expect("event.rs is in the tree");
    assert!(variants(&event.toks).len() > 10, "trace_events! parses");
    let findings = check(&files);
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn gsd003_canary_fires_on_a_guard_inserted_before_a_real_read_at() {
    let guard = "        let g = self.cursors.lock();";
    let (findings, line) = canary(STORAGE_FILE, ".read_at(", guard);
    assert_eq!(names(&findings), [("GSD003", line, "read_at")]);
    assert_eq!(findings[0].1, STORAGE_FILE);
}

#[test]
fn gsd004_canary_names_a_variant_added_to_the_table_and_never_emitted() {
    let variant = "        NeverEmitted = \"never_emitted\" { count: u64 },";
    let (findings, line) = canary(EVENT_FILE, "RunStart = ", variant);
    assert_eq!(names(&findings), [("GSD004", line, "NeverEmitted")]);
}

#[test]
fn gsd003_fixtures_yield_the_pinned_findings() {
    let fixture = |text: &str| check(&[file("fixture.rs", text)]);
    let pos = fixture(include_str!("fixtures/invariants/gsd003/pos.rs"));
    assert_eq!(names(&pos), [("GSD003", 4, "read_at")]);
    // Every name the rule learned when its list grew to the whole
    // `Storage` trait and `GridGraph`'s read surface, one line each.
    let surface = fixture(include_str!("fixtures/invariants/gsd003/pos_surface.rs"));
    let want = "exists delete list_keys read_unaccounted sync read_block read_index";
    let want = want.split(' ').chain(["load_out_degrees"]).zip(5..);
    let want: Vec<_> = want.map(|(n, l)| ("GSD003", l, n)).collect();
    assert_eq!(names(&surface), want);
    let neg = fixture(include_str!("fixtures/invariants/gsd003/neg.rs"));
    assert!(neg.is_empty(), "{neg:#?}");
}

#[test]
fn gsd004_fixtures_yield_the_pinned_findings() {
    let event = include_str!("fixtures/invariants/gsd004/event.rs");
    let with = |consumer| check(&[file(EVENT_FILE, event), file("consumer.rs", consumer)]);
    let match_only = with(include_str!("fixtures/invariants/gsd004/match_only.rs"));
    assert_eq!(names(&match_only), [("GSD004", 8, "BufferHit")]);
    assert_eq!(match_only[0].1, EVENT_FILE);
    let emit_all = with(include_str!("fixtures/invariants/gsd004/emit_all.rs"));
    assert!(emit_all.is_empty(), "{emit_all:#?}");
}

#[test]
fn comments_literals_and_test_items_hide_code() {
    let src = r####"fn f<'a>(c: &'a C, s: &S) -> char {
    // let g = c.m.lock(); s.sync();
    /* a /* b */ let g = c.m.lock(); s.sync(); */
    let t = ("\" let g = c.m.lock(); s.sync(); \"", b"{", b'\'', r#"" let g = c.m.lock(); s.sync(); ""#);
    let (q, u) = ('"', br##"" let g = c.m.lock(); s.sync(); ""##); 'outer: loop { break 'outer; }
    let g = c.m.lock(); drop(g); s.sync(); q
}
#[cfg(test)]
mod tests { fn t(c: &C, s: &S) { let g = c.m.lock(); s.sync(); } }"####;
    assert!(check(&[file("f.rs", src)]).is_empty());
    let held = check(&[file("f.rs", &src.replace("drop(g); ", ""))]);
    assert_eq!(names(&held), [("GSD003", 6, "sync")]);
}
