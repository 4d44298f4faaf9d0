//! A hand-rolled Rust lexer, just deep enough for token-pattern rules.
//!
//! The lexer produces a flat token stream with 1-based line numbers and
//! the list of `gsd-lint:` control comments. It understands everything that could make a naive text scan
//! lie about code structure:
//!
//! * line comments and *nested* block comments (Rust block comments nest),
//!   including `gsd-lint:` directives on inner lines of a multi-line
//!   block comment;
//! * string, byte-string, raw-string (`r#"…"#`), char and byte-char
//!   (`b'x'`) literals, so `".unwrap()"` inside a string is never
//!   mistaken for a call;
//! * raw identifiers (`r#type` is one token, not `r`/`#`/`type`);
//! * the `'a` lifetime vs `'a'` char-literal ambiguity;
//! * identifiers, numeric literals, and single-char punctuation.
//!
//! Multi-character operators (`::`, `->`, `=>`, `..`) are emitted as
//! single-char punctuation tokens; the rules match them as adjacent
//! tokens, which keeps the lexer trivially correct about token boundaries.

/// What kind of token this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`let`, `unwrap`, `Instant`, …). Raw
    /// identifiers keep their `r#` prefix in [`Tok::text`].
    Ident,
    /// Lifetime such as `'a` (the tick is not part of [`Tok::text`]).
    Lifetime,
    /// String / raw-string / byte-string / char / byte-char literal.
    /// Text is the raw source slice including quotes and prefixes.
    Str,
    /// Numeric literal.
    Num,
    /// A single punctuation character (`.`, `{`, `!`, …).
    Punct,
}

/// One token with its source position.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token class.
    pub kind: TokKind,
    /// Source text (for [`TokKind::Punct`], exactly one character).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Tok {
    /// True if this token is the given punctuation character.
    pub fn is_punct(&self, ch: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == ch.len_utf8() && self.text.starts_with(ch)
    }

    /// True if this token is an identifier with exactly this text.
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokKind::Ident && self.text == text
    }
}

/// A parsed `// gsd-lint: allow(GSDnnn, "justification")` control comment.
#[derive(Debug, Clone)]
pub struct Directive {
    /// 1-based line the comment (or, inside a multi-line block comment,
    /// the directive's own line) sits on.
    pub line: u32,
    /// True if code precedes the comment on the same line (the directive
    /// then targets its own line instead of the next code line).
    pub trailing: bool,
    /// The rule id inside `allow(…)`, e.g. `"GSD003"`. Empty if the
    /// comment could not be parsed at all.
    pub rule: String,
    /// `None` if well-formed; otherwise why the directive is rejected.
    pub malformed: Option<String>,
}

/// Lexer output: the token stream and any control comments found.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All tokens in source order.
    pub tokens: Vec<Tok>,
    /// All `gsd-lint:` control comments, well-formed or not.
    pub directives: Vec<Directive>,
}

/// Lexes `src` into tokens and directives. Never fails: unterminated
/// literals simply run to end of input, which is the most useful behavior
/// for a linter that may see code mid-edit.
pub fn lex(src: &str) -> Lexed {
    Lexer {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        line_has_code: false,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    /// Whether a token has already started on the current line — makes a
    /// `gsd-lint:` comment "trailing" (targets its own line).
    line_has_code: bool,
    out: Lexed,
}

impl Lexer {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn peek_at(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let ch = self.peek()?;
        self.pos += 1;
        if ch == '\n' {
            self.line += 1;
            self.line_has_code = false;
        }
        ch.into()
    }

    fn push(&mut self, kind: TokKind, text: String, at: u32) {
        self.out.tokens.push(Tok {
            kind,
            text,
            line: at,
        });
    }

    fn run(mut self) -> Lexed {
        while let Some(ch) = self.peek() {
            let at = self.line;
            match ch {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek_at(1) == Some('/') => self.line_comment(),
                '/' if self.peek_at(1) == Some('*') => self.block_comment(),
                '"' => self.string_literal(at, String::new()),
                'b' if self.peek_at(1) == Some('"') => {
                    let mut prefix = String::new();
                    prefix.push(self.bump().expect("peeked 'b'"));
                    self.string_literal(at, prefix);
                }
                'b' if self.peek_at(1) == Some('\'')
                    && byte_char_follows(&self.chars[self.pos..]) =>
                {
                    let mut prefix = String::new();
                    prefix.push(self.bump().expect("peeked 'b'"));
                    self.char_literal(at, prefix);
                }
                'r' | 'b' if is_raw_string_start(&self.chars[self.pos..]) => {
                    self.raw_string_literal(at);
                }
                'r' if self.peek_at(1) == Some('#')
                    && self
                        .peek_at(2)
                        .is_some_and(|c| c == '_' || c.is_alphabetic()) =>
                {
                    self.raw_ident(at);
                }
                '\'' => self.char_or_lifetime(at),
                c if c == '_' || c.is_alphabetic() => self.ident(at),
                c if c.is_ascii_digit() => self.number(at),
                c => {
                    self.bump();
                    self.line_has_code = true;
                    self.push(TokKind::Punct, c.to_string(), at);
                }
            }
        }
        self.out
    }

    fn line_comment(&mut self) {
        let line = self.line;
        let trailing = self.line_has_code;
        let mut text = String::new();
        while let Some(ch) = self.peek() {
            if ch == '\n' {
                break;
            }
            text.push(ch);
            self.bump();
        }
        self.maybe_directive(&text, line, trailing);
    }

    /// Consumes a (possibly nested) block comment. Every *line* of the
    /// comment body is checked for a directive, so the common doc shape
    ///
    /// ```text
    /// /*
    ///  * gsd-lint: allow(GSD003, "why this is sound")
    ///  */
    /// ```
    ///
    /// works.
    fn block_comment(&mut self) {
        let first_line = self.line;
        let trailing = self.line_has_code;
        let mut text = String::new();
        let mut depth = 0usize;
        while let Some(ch) = self.peek() {
            if ch == '/' && self.peek_at(1) == Some('*') {
                depth += 1;
                text.push_str("/*");
                self.bump();
                self.bump();
            } else if ch == '*' && self.peek_at(1) == Some('/') {
                depth -= 1;
                text.push_str("*/");
                self.bump();
                self.bump();
                if depth == 0 {
                    break;
                }
            } else {
                text.push(ch);
                self.bump();
            }
        }
        for (idx, body_line) in text.split('\n').enumerate() {
            let line = first_line + idx as u32;
            // Only the comment's first line can sit after code; inner
            // lines are their own (comment-only) lines and thus target
            // the next code line, like a standalone `//` directive.
            let trailing = trailing && idx == 0;
            self.maybe_directive(body_line.trim_end_matches('\r'), line, trailing);
        }
    }

    fn string_literal(&mut self, at: u32, prefix: String) {
        let mut text = prefix;
        text.push(self.bump().expect("caller saw an opening quote")); // opening "
        while let Some(ch) = self.bump() {
            text.push(ch);
            match ch {
                '\\' => {
                    if let Some(esc) = self.bump() {
                        text.push(esc);
                    }
                }
                '"' => break,
                _ => {}
            }
        }
        self.line_has_code = true;
        self.push(TokKind::Str, text, at);
    }

    fn raw_string_literal(&mut self, at: u32) {
        // r"…", r#"…"#, br#"…"# — already validated by is_raw_string_start.
        let mut text = String::new();
        if self.peek() == Some('b') {
            text.push(self.bump().expect("validated prefix"));
        }
        text.push(self.bump().expect("validated prefix")); // 'r'
        let mut hashes = 0usize;
        while self.peek() == Some('#') {
            hashes += 1;
            text.push(self.bump().expect("peeked '#'"));
        }
        text.push(self.bump().unwrap_or('"')); // opening quote
        while let Some(ch) = self.bump() {
            text.push(ch);
            if ch == '"' {
                let mut seen = 0usize;
                while seen < hashes && self.peek() == Some('#') {
                    seen += 1;
                    text.push(self.bump().expect("peeked '#'"));
                }
                if seen == hashes {
                    break;
                }
            }
        }
        self.line_has_code = true;
        self.push(TokKind::Str, text, at);
    }

    /// `r#ident` — one identifier token, `r#` prefix kept in the text.
    fn raw_ident(&mut self, at: u32) {
        let mut text = String::new();
        text.push(self.bump().expect("peeked 'r'"));
        text.push(self.bump().expect("peeked '#'"));
        while let Some(ch) = self.peek() {
            if ch == '_' || ch.is_alphanumeric() {
                text.push(ch);
                self.bump();
            } else {
                break;
            }
        }
        self.line_has_code = true;
        self.push(TokKind::Ident, text, at);
    }

    /// A char literal body after an optional already-consumed `b` prefix.
    fn char_literal(&mut self, at: u32, prefix: String) {
        let mut text = prefix;
        text.push(self.bump().expect("caller saw a tick")); // '
        while let Some(ch) = self.bump() {
            text.push(ch);
            match ch {
                '\\' => {
                    if let Some(esc) = self.bump() {
                        text.push(esc);
                    }
                }
                '\'' => break,
                _ => {}
            }
        }
        self.line_has_code = true;
        self.push(TokKind::Str, text, at);
    }

    /// `'a` (lifetime) vs `'a'` (char literal). A tick starts a char
    /// literal iff the closing tick follows one scalar (or one escape);
    /// otherwise it is a lifetime / loop label.
    fn char_or_lifetime(&mut self, at: u32) {
        let is_char = matches!(
            (self.peek_at(1), self.peek_at(2)),
            (Some('\\'), _) | (Some(_), Some('\''))
        );
        self.line_has_code = true;
        if is_char {
            self.char_literal(at, String::new());
        } else {
            self.bump(); // consume the tick
            let mut text = String::new();
            while let Some(ch) = self.peek() {
                if ch == '_' || ch.is_alphanumeric() {
                    text.push(ch);
                    self.bump();
                } else {
                    break;
                }
            }
            self.push(TokKind::Lifetime, text, at);
        }
    }

    fn ident(&mut self, at: u32) {
        let mut text = String::new();
        while let Some(ch) = self.peek() {
            if ch == '_' || ch.is_alphanumeric() {
                text.push(ch);
                self.bump();
            } else {
                break;
            }
        }
        self.line_has_code = true;
        self.push(TokKind::Ident, text, at);
    }

    fn number(&mut self, at: u32) {
        let mut text = String::new();
        while let Some(ch) = self.peek() {
            // Good enough for linting: digits, underscores, radix/exponent
            // letters, and the decimal point when followed by a digit
            // (so `0..n` stays two range dots, not part of the number).
            let take = ch == '_'
                || ch.is_ascii_alphanumeric()
                || (ch == '.' && self.peek_at(1).is_some_and(|c| c.is_ascii_digit()));
            if take {
                text.push(ch);
                self.bump();
            } else {
                break;
            }
        }
        self.line_has_code = true;
        self.push(TokKind::Num, text, at);
    }

    /// If a comment *begins with* `gsd-lint:` (after its `//`/`/*`
    /// leaders), parse the directive after it. Requiring the marker at the
    /// start keeps prose that merely mentions `gsd-lint:` — like this
    /// sentence — from being read as a directive. Anything that does not
    /// parse cleanly is recorded as malformed — rule GSD000 turns those
    /// into errors so a typo'd suppression can never silently mask a real
    /// diagnostic.
    fn maybe_directive(&mut self, comment: &str, line: u32, trailing: bool) {
        const MARKER: &str = "gsd-lint:";
        let body = comment.trim_start_matches(['/', '*', '!', ' ', '\t']);
        let Some(body) = body.strip_prefix(MARKER) else {
            return;
        };
        let body = body.trim().trim_end_matches("*/").trim_end();
        self.out
            .directives
            .push(parse_directive(body, line, trailing));
    }
}

fn is_raw_string_start(rest: &[char]) -> bool {
    let mut i = 0usize;
    if rest.first() == Some(&'b') {
        i += 1;
    }
    if rest.get(i) != Some(&'r') {
        return false;
    }
    i += 1;
    while rest.get(i) == Some(&'#') {
        i += 1;
    }
    rest.get(i) == Some(&'"')
}

/// Whether `b'` at the head of `rest` opens a byte-char literal (`b'x'`,
/// `b'\n'`) rather than an identifier `b` followed by a loop label.
fn byte_char_follows(rest: &[char]) -> bool {
    matches!(
        (rest.get(2), rest.get(3)),
        (Some('\\'), _) | (Some(_), Some('\''))
    )
}

/// Parses the text after `gsd-lint:` — expected shape
/// `allow(GSDnnn, "justification")`.
fn parse_directive(body: &str, line: u32, trailing: bool) -> Directive {
    let mut d = Directive {
        line,
        trailing,
        rule: String::new(),
        malformed: None,
    };
    let Some(args) = body
        .strip_prefix("allow")
        .map(str::trim_start)
        .and_then(|rest| rest.strip_prefix('('))
        .and_then(|rest| rest.trim_end().strip_suffix(')'))
    else {
        d.malformed = Some(format!(
            "expected `allow(GSDnnn, \"justification\")`, found `{body}`"
        ));
        return d;
    };
    let (rule, rest) = match args.find(',') {
        Some(comma) => (args[..comma].trim(), Some(args[comma + 1..].trim())),
        None => (args.trim(), None),
    };
    d.rule = rule.to_string();
    if rule.len() != 6 || !rule.starts_with("GSD") || !rule[3..].bytes().all(|b| b.is_ascii_digit())
    {
        d.malformed = Some(format!("`{rule}` is not a rule id of the form GSDnnn"));
        return d;
    }
    match rest {
        Some(just) if just.len() >= 2 && just.starts_with('"') && just.ends_with('"') => {
            if just[1..just.len() - 1].trim().is_empty() {
                d.malformed = Some("justification string is empty".to_string());
            }
        }
        Some(other) => {
            d.malformed = Some(format!(
                "justification must be a double-quoted string, found `{other}`"
            ));
        }
        None => {
            d.malformed = Some(format!(
                "suppressing {rule} requires a justification: allow({rule}, \"why this is sound\")"
            ));
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_their_contents() {
        let src = r##"
            // x.unwrap() in a comment
            /* nested /* x.unwrap() */ still comment */
            let s = "x.unwrap()";
            let r = r#"y.unwrap()"#;
            real.call();
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"unwrap".to_string()), "ids: {ids:?}");
        assert!(ids.contains(&"real".to_string()));
    }

    #[test]
    fn lifetimes_do_not_eat_following_code() {
        let toks = lex("fn f<'a>(x: &'a str) { x.unwrap() }");
        let ids: Vec<_> = toks
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert!(ids.contains(&"unwrap"));
        assert!(toks
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "a"));
    }

    #[test]
    fn char_literal_is_not_a_lifetime() {
        let toks = lex(r"let c = 'x'; let nl = '\n';");
        let strs: Vec<_> = toks
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Str)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(strs, vec!["'x'", r"'\n'"]);
    }

    #[test]
    fn byte_char_literal_is_one_token() {
        let toks = lex(r"let c = b'x'; let e = b'\''; b_ident'outer: loop {}");
        let strs: Vec<_> = toks
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Str)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(strs, vec![r"b'x'", r"b'\''"]);
        assert!(
            toks.tokens
                .iter()
                .any(|t| t.kind == TokKind::Lifetime && t.text == "outer"),
            "a label after an ident must stay a lifetime"
        );
    }

    #[test]
    fn raw_identifier_is_one_token() {
        let toks = lex("let r#type = r#match.r#fn();");
        let ids: Vec<_> = toks
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(ids, vec!["let", "r#type", "r#match", "r#fn"]);
    }

    #[test]
    fn raw_ident_does_not_shadow_raw_string() {
        let toks = lex(r##"let s = r#"not # an ident"#; x.go();"##);
        assert!(toks
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Str && t.text.contains("not # an ident")));
    }

    #[test]
    fn line_numbers_are_one_based_and_advance() {
        let toks = lex("a\nb\n\nc");
        let lines: Vec<_> = toks
            .tokens
            .iter()
            .map(|t| (t.text.as_str(), t.line))
            .collect();
        assert_eq!(lines, vec![("a", 1), ("b", 2), ("c", 4)]);
    }

    #[test]
    fn well_formed_directive_parses() {
        let out = lex("// gsd-lint: allow(GSD003, \"the inner read is in-memory\")\nlet x = 1;");
        assert_eq!(out.directives.len(), 1);
        let d = &out.directives[0];
        assert_eq!(d.rule, "GSD003");
        assert!(d.malformed.is_none());
        assert!(!d.trailing);
    }

    #[test]
    fn directive_without_justification_is_malformed() {
        let out = lex("// gsd-lint: allow(GSD001)");
        assert!(out.directives[0].malformed.is_some());
    }

    #[test]
    fn directive_with_bad_rule_id_is_malformed() {
        let out = lex("// gsd-lint: allow(CLIPPY1, \"nope\")");
        assert!(out.directives[0].malformed.is_some());
    }

    #[test]
    fn trailing_directive_is_marked_trailing() {
        let out = lex("let x = y.lock(); // gsd-lint: allow(GSD003, \"short critical section\")");
        assert!(out.directives[0].trailing);
    }

    #[test]
    fn block_comment_inner_line_directive_parses() {
        let src = "/*\n * gsd-lint: allow(GSD001, \"demo\")\n */\nx.unwrap();";
        let out = lex(src);
        assert_eq!(out.directives.len(), 1);
        let d = &out.directives[0];
        assert_eq!(d.rule, "GSD001");
        assert_eq!(d.line, 2, "directive is anchored to its own line");
        assert!(!d.trailing);
        assert!(d.malformed.is_none());
    }

    #[test]
    fn single_line_block_comment_directive_stays_trailing() {
        let out = lex("let g = m.lock(); /* gsd-lint: allow(GSD003, \"held briefly\") */");
        assert_eq!(out.directives.len(), 1);
        assert!(out.directives[0].trailing);
    }

    #[test]
    fn raw_strings_hide_directives_and_calls() {
        let src = "let s = r#\"// gsd-lint: allow(GSD001, \"x\")\"#;\nlet t = r\"y.unwrap()\";";
        let out = lex(src);
        assert!(out.directives.is_empty(), "raw strings are not comments");
        assert!(!idents(src).contains(&"unwrap".to_string()));
    }

    #[test]
    fn crlf_directive_parses_cleanly() {
        let out = lex("// gsd-lint: allow(GSD002, \"clock shim\")\r\nlet x = 1;\r\n");
        assert_eq!(out.directives.len(), 1);
        assert!(
            out.directives[0].malformed.is_none(),
            "trailing CR must be trimmed"
        );
    }
}
