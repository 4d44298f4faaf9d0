//! The diagnostic type and its one rendering.

/// One finding: a rule violation at a source location. Every finding is
/// an error.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Stable rule id (`"GSD003"`).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Human-readable explanation ending in the suggested remedy.
    pub message: String,
}

impl Diagnostic {
    /// `file:line: error[RULE] message` — the greppable, editor-clickable
    /// form.
    pub fn render_human(&self) -> String {
        format!(
            "{}:{}: error[{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_rendering_is_file_line_first() {
        let d = Diagnostic {
            rule: "GSD003",
            file: "crates/gsd-io/src/storage.rs".into(),
            line: 42,
            message: "bad".into(),
        };
        assert_eq!(
            d.render_human(),
            "crates/gsd-io/src/storage.rs:42: error[GSD003] bad"
        );
    }
}
