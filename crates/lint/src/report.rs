//! Diagnostics: findings, reports, and their text / JSON renderings.

use serde::Serialize;

/// The `--json` payload schema version. Version 1 was the unversioned
/// layout; version 2 added `schema_version` and a per-finding `id`
/// (the rule name in snake_case); version 3 dropped `id`, which only
/// mirrored `rule`. Bump this whenever a field is added, removed, or
/// renamed — the golden-file test in `tests/output_formats.rs` pins the
/// layout.
pub const SCHEMA_VERSION: u32 = 3;

/// One rule violation at a source position.
#[derive(Debug, Clone, Serialize)]
pub struct Finding {
    /// Rule name (kebab-case, used in text output and allow directives).
    pub rule: &'static str,
    /// Workspace-relative file path (`/`-separated).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description of the violation.
    pub message: String,
    /// The offending source line.
    pub snippet: String,
}

/// The result of a lint run.
#[derive(Debug, Serialize)]
pub struct Report {
    /// JSON schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// All findings, sorted by (file, line, col, rule).
    pub findings: Vec<Finding>,
    /// Number of source files checked.
    pub files_checked: usize,
}

impl Report {
    /// True if the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human-readable rendering: one `file:line:col` header plus the
    /// offending line per finding, then a summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{}:{}:{}: [{}] {}\n    {}\n",
                f.file,
                f.line,
                f.col,
                f.rule,
                f.message,
                f.snippet.trim_end()
            ));
        }
        if self.is_clean() {
            out.push_str(&format!(
                "wheels-lint: {} files checked, clean\n",
                self.files_checked
            ));
        } else {
            out.push_str(&format!(
                "wheels-lint: {} finding(s) in {} files checked\n",
                self.findings.len(),
                self.files_checked
            ));
        }
        out
    }

    /// Machine-readable rendering.
    pub fn render_json(&self) -> String {
        serde_json::to_string(self).unwrap_or_else(|_| "{}".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_rendering_includes_position_and_snippet() {
        let r = Report {
            schema_version: SCHEMA_VERSION,
            findings: vec![Finding {
                rule: "unwrap-in-lib",
                file: "crates/x/src/lib.rs".into(),
                line: 3,
                col: 9,
                message: "bare unwrap".into(),
                snippet: "    x.unwrap();".into(),
            }],
            files_checked: 1,
        };
        let t = r.render_text();
        assert!(t.contains("crates/x/src/lib.rs:3:9: [unwrap-in-lib]"));
        assert!(t.contains("x.unwrap();"));
        assert!(t.contains("1 finding(s)"));
    }

    #[test]
    fn json_rendering_is_valid() {
        let r = Report {
            schema_version: SCHEMA_VERSION,
            findings: vec![],
            files_checked: 2,
        };
        let json = r.render_json();
        assert!(json.contains("\"schema_version\":3"));
        assert!(json.contains("\"files_checked\":2"));
        assert!(json.contains("\"findings\":[]"));
    }
}
