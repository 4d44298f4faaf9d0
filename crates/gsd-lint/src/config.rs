//! `lint.toml` loading.
//!
//! gsd-lint is dependency-free, so it ships a tiny TOML-subset parser that
//! covers exactly what rule configuration needs: `[section]` headers,
//! `key = "string"`, and single- or multi-line string arrays. `lint.toml`
//! is the only source of scopes: there are no built-in defaults to fall
//! back to, so unknown sections, keys or rule ids — and a path-scoped rule
//! without `paths` — are errors, never a silent no-op.

use crate::rules::{is_retired, rule_info, RULES};
use std::collections::BTreeMap;

/// Full lint configuration: file walking plus each path-scoped rule's
/// scope. Path entries are workspace-relative, `/`-separated prefixes (a
/// trailing file name matches exactly; a directory matches everything
/// under it).
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Top-level directories to walk for `.rs` files.
    pub(crate) include: Vec<String>,
    /// Path prefixes to skip entirely (fixtures, vendor, build output).
    pub(crate) exclude: Vec<String>,
    /// `paths` of each `[rules.GSDnnn]` table, keyed by rule id.
    paths: BTreeMap<String, Vec<String>>,
    /// File defining the trace-event enum checked by GSD004.
    pub(crate) event_file: String,
    /// Name of the trace-event enum checked by GSD004.
    pub(crate) event_enum: String,
}

impl LintConfig {
    /// The paths `rule` applies to; empty if it has no table.
    pub(crate) fn paths(&self, rule: &str) -> &[String] {
        self.paths.get(rule).map_or(&[], Vec::as_slice)
    }

    /// Parses a `lint.toml` document. Errors are human-readable strings
    /// with 1-based line numbers.
    pub fn parse(text: &str) -> Result<LintConfig, String> {
        let doc = parse_toml_subset(text)?;
        let mut cfg = LintConfig {
            include: Vec::new(),
            exclude: Vec::new(),
            paths: BTreeMap::new(),
            event_file: String::new(),
            event_enum: String::new(),
        };
        for (section, entries) in &doc {
            match section.as_str() {
                "lint" => {
                    for (key, value) in entries {
                        match key.as_str() {
                            "include" => cfg.include = value.as_list(section, key)?,
                            "exclude" => cfg.exclude = value.as_list(section, key)?,
                            "event_file" => cfg.event_file = value.as_str(section, key)?,
                            "event_enum" => cfg.event_enum = value.as_str(section, key)?,
                            other => {
                                return Err(format!("unknown key `{other}` in [lint]"));
                            }
                        }
                    }
                }
                rule if rule.starts_with("rules.") => {
                    let id = rule.trim_start_matches("rules.").to_string();
                    if is_retired(&id) {
                        return Err(format!(
                            "[{rule}]: {id} is retired — the toolchain enforces it (clippy.toml)"
                        ));
                    }
                    if rule_info(&id).is_none() {
                        return Err(format!("[{rule}]: `{id}` is not a gsd-lint rule"));
                    }
                    let mut paths = Vec::new();
                    for (key, value) in entries {
                        match key.as_str() {
                            "paths" => paths = value.as_list(section, key)?,
                            other => {
                                return Err(format!("unknown key `{other}` in [{rule}]"));
                            }
                        }
                    }
                    cfg.paths.insert(id, paths);
                }
                other => return Err(format!("unknown section [{other}]")),
            }
        }
        if cfg.include.is_empty() {
            return Err("[lint] include is missing: nothing would be scanned".to_string());
        }
        for info in RULES.iter().filter(|r| r.scoped) {
            if cfg.paths(info.id).is_empty() {
                return Err(format!(
                    "[rules.{}] needs `paths`: the rule has no built-in scope",
                    info.id
                ));
            }
        }
        Ok(cfg)
    }
}

/// A value in the TOML subset.
#[derive(Debug, Clone)]
enum Value {
    Str(String),
    List(Vec<String>),
}

impl Value {
    fn as_str(&self, section: &str, key: &str) -> Result<String, String> {
        match self {
            Value::Str(s) => Ok(s.clone()),
            Value::List(_) => Err(format!(
                "[{section}] {key}: expected a string, found a list"
            )),
        }
    }

    fn as_list(&self, section: &str, key: &str) -> Result<Vec<String>, String> {
        match self {
            Value::List(items) => Ok(items.clone()),
            Value::Str(_) => Err(format!(
                "[{section}] {key}: expected a list, found a string"
            )),
        }
    }
}

type Document = Vec<(String, Vec<(String, Value)>)>;

/// Strips a `#` comment that is outside any double-quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (idx, ch) in line.char_indices() {
        match ch {
            _ if escaped => escaped = false,
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..idx],
            _ => {}
        }
    }
    line
}

fn parse_toml_subset(text: &str) -> Result<Document, String> {
    let mut doc: Document = Vec::new();
    let mut lines = text.lines().enumerate().peekable();
    while let Some((idx, raw)) = lines.next() {
        let lineno = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix('[') {
            let Some(name) = header.strip_suffix(']') else {
                return Err(format!("line {lineno}: unterminated section header"));
            };
            doc.push((name.trim().to_string(), Vec::new()));
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("line {lineno}: expected `key = value`"));
        };
        let key = key.trim().to_string();
        let mut value = value.trim().to_string();
        // Multi-line array: keep consuming lines until the closing `]`.
        while value.starts_with('[') && !value.ends_with(']') {
            let Some((_, cont)) = lines.next() else {
                return Err(format!("line {lineno}: unterminated array for `{key}`"));
            };
            value.push(' ');
            value.push_str(strip_comment(cont).trim());
        }
        let parsed = parse_value(&value)
            .map_err(|e| format!("line {lineno}: {e} (while parsing `{key}`)"))?;
        let Some((_, entries)) = doc.last_mut() else {
            return Err(format!(
                "line {lineno}: `{key}` appears before any [section]"
            ));
        };
        entries.push((key, parsed));
    }
    Ok(doc)
}

fn parse_value(text: &str) -> Result<Value, String> {
    if let Some(body) = text.strip_prefix('[') {
        let Some(body) = body.strip_suffix(']') else {
            return Err("unterminated array".to_string());
        };
        let mut items = Vec::new();
        let mut rest = body.trim();
        while !rest.is_empty() {
            let Some(tail) = rest.strip_prefix('"') else {
                return Err(format!(
                    "array items must be quoted strings, found `{rest}`"
                ));
            };
            let Some(close) = tail.find('"') else {
                return Err("unterminated string in array".to_string());
            };
            items.push(tail[..close].to_string());
            rest = tail[close + 1..].trim().trim_start_matches(',').trim();
        }
        return Ok(Value::List(items));
    }
    if text.len() >= 2 && text.starts_with('"') && text.ends_with('"') {
        return Ok(Value::Str(text[1..text.len() - 1].to_string()));
    }
    Err(format!("expected a quoted string or array, found `{text}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal valid document: every path-scoped rule has a scope.
    fn doc(extra: &str) -> String {
        let mut text = String::from("[lint]\ninclude = [\"src\", \"crates\"]\n");
        for info in RULES.iter().filter(|r| r.scoped) {
            text.push_str(&format!("[rules.{}]\npaths = [\"crates\"]\n", info.id));
        }
        text + extra
    }

    #[test]
    fn there_is_no_built_in_scope() {
        let err = LintConfig::parse("[lint]\ninclude = [\"src\"]").unwrap_err();
        assert!(err.contains("needs `paths`"), "{err}");
        let err = LintConfig::parse("").unwrap_err();
        assert!(err.contains("include"), "{err}");
        assert!(LintConfig::parse(&doc("")).is_ok());
    }

    #[test]
    fn retired_and_unknown_rule_tables_are_rejected() {
        for id in ["GSD001", "GSD006", "GSD010", "GSD011", "GSD012"] {
            let err = LintConfig::parse(&doc(&format!("[rules.{id}]\npaths = [\"crates\"]")))
                .unwrap_err();
            assert!(err.contains("retired"), "{id}: {err}");
        }
        let err = LintConfig::parse(&doc("[rules.GSD0O6]\npaths = [\"crates\"]")).unwrap_err();
        assert!(err.contains("not a gsd-lint rule"), "{err}");
    }

    #[test]
    fn retired_keys_are_rejected() {
        for key in ["severity", "allow_paths", "idents", "enums"] {
            let err =
                LintConfig::parse(&doc(&format!("[rules.GSD003]\n{key} = \"x\""))).unwrap_err();
            assert!(err.contains(&format!("unknown key `{key}`")), "{err}");
        }
    }

    #[test]
    fn parses_sections_comments_and_multiline_arrays() {
        let cfg = LintConfig::parse(&doc(r#"
            # comment
            [rules.GSD003]
            paths = [   # trailing comment
                "crates/gsd-trace/",
                "crates/gsd-bench/",
            ]
            "#))
        .expect("parses");
        assert_eq!(
            cfg.paths("GSD003"),
            ["crates/gsd-trace/", "crates/gsd-bench/"]
        );
    }

    #[test]
    fn unknown_key_is_rejected() {
        let err = LintConfig::parse("[lint]\nincluude = [\"src\"]").unwrap_err();
        assert!(err.contains("incluude"), "{err}");
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let cfg = LintConfig::parse(&doc("[lint]\nevent_enum = \"Has#Hash\"")).expect("parses");
        assert_eq!(cfg.event_enum, "Has#Hash");
    }
}
