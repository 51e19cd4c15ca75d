//! SARIF 2.1.0 rendering of a lint report.
//!
//! SARIF (Static Analysis Results Interchange Format) is the
//! OASIS-standard JSON envelope consumed by code-scanning UIs. This
//! module renders a [`Report`] as a single-run SARIF log: one
//! `tool.driver` carrying the full rule catalogue, one `result` per
//! finding. Result `ruleId`s are the stable snake_case ids from
//! [`crate::rules::RULES`] — the same strings the `--json` payload pins
//! under `schema_version` 2 — so dashboards can correlate the two
//! outputs.
//!
//! The JSON is assembled by hand: the vendored `serde_json` stand-in
//! serializes flat derive structs but has no dynamic `Value` tree, and
//! SARIF's nesting (`locations[].physicalLocation.region`) is deep
//! enough that dedicated structs per level would outweigh the format.
//! Escaping is centralized in `esc`.

use crate::report::Report;
use crate::rules::RULES;

/// The SARIF version emitted, pinned by tests.
pub const SARIF_VERSION: &str = "2.1.0";

/// The `$schema` URI emitted, pinned by tests.
pub const SARIF_SCHEMA: &str = "https://json.schemastore.org/sarif-2.1.0.json";

/// Escape a string for embedding in a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render a report as a SARIF 2.1.0 log.
pub fn render_sarif(report: &Report) -> String {
    let mut rules = String::new();
    for (i, r) in RULES.iter().enumerate() {
        if i > 0 {
            rules.push(',');
        }
        rules.push_str(&format!(
            "{{\"id\":\"{}\",\"name\":\"{}\",\"shortDescription\":{{\"text\":\"{}\"}}}}",
            esc(r.id),
            esc(r.name),
            esc(r.about)
        ));
    }
    let mut results = String::new();
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            results.push(',');
        }
        results.push_str(&format!(
            concat!(
                "{{\"ruleId\":\"{}\",\"level\":\"error\",",
                "\"message\":{{\"text\":\"{}\"}},",
                "\"locations\":[{{\"physicalLocation\":{{",
                "\"artifactLocation\":{{\"uri\":\"{}\"}},",
                "\"region\":{{\"startLine\":{},\"startColumn\":{},",
                "\"snippet\":{{\"text\":\"{}\"}}}}}}}}]}}"
            ),
            esc(f.id),
            esc(&f.message),
            esc(&f.file),
            f.line,
            f.col,
            esc(f.snippet.trim_end())
        ));
    }
    format!(
        concat!(
            "{{\"$schema\":\"{}\",\"version\":\"{}\",\"runs\":[{{",
            "\"tool\":{{\"driver\":{{\"name\":\"wheels-lint\",\"rules\":[{}]}}}},",
            "\"results\":[{}]}}]}}"
        ),
        SARIF_SCHEMA, SARIF_VERSION, rules, results
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{Finding, Report, SCHEMA_VERSION};

    fn sample() -> Report {
        Report {
            schema_version: SCHEMA_VERSION,
            findings: vec![Finding {
                rule: "determinism-taint",
                id: "determinism_taint",
                file: "crates/core/src/campaign.rs".into(),
                line: 7,
                col: 13,
                message: "clock value \"t0\" flows into a record".into(),
                snippet: "    let t0 = Instant::now();".into(),
            }],
            files_checked: 3,
        }
    }

    #[test]
    fn sarif_has_required_envelope() {
        let s = render_sarif(&sample());
        assert!(s.contains(&format!("\"$schema\":\"{SARIF_SCHEMA}\"")));
        assert!(s.contains("\"version\":\"2.1.0\""));
        assert!(s.contains("\"name\":\"wheels-lint\""));
    }

    #[test]
    fn sarif_result_carries_snake_case_rule_id_and_region() {
        let s = render_sarif(&sample());
        assert!(s.contains("\"ruleId\":\"determinism_taint\""));
        assert!(s.contains("\"uri\":\"crates/core/src/campaign.rs\""));
        assert!(s.contains("\"startLine\":7"));
        assert!(s.contains("\"startColumn\":13"));
    }

    #[test]
    fn sarif_lists_whole_rule_catalogue() {
        let s = render_sarif(&sample());
        for r in RULES.iter() {
            assert!(s.contains(&format!("\"id\":\"{}\"", r.id)), "{}", r.id);
        }
    }

    #[test]
    fn sarif_escapes_quotes_and_newlines() {
        let mut r = sample();
        r.findings[0].message = "label \"a/b\"\nsecond line".into();
        let s = render_sarif(&r);
        assert!(s.contains("label \\\"a/b\\\"\\nsecond line"));
        assert!(!s.contains('\n'));
    }
}
