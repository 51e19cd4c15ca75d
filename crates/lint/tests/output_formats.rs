//! Output-format pin: the `--json` payload (schema version, field
//! order) is compared byte-for-byte against a golden file.

use wheels_lint::{lint_sources, Report, SourceFile};

/// A minimal workspace with exactly one finding at a pinned position.
fn one_finding_report() -> Report {
    let f = SourceFile {
        rel_path: "crates/geo/src/sample.rs".to_string(),
        crate_name: "geo".to_string(),
        is_bin: false,
        src: "pub fn first(xs: &[u32]) -> u32 {\n    *xs.first().unwrap()\n}\n".to_string(),
    };
    lint_sources(&[f])
}

#[test]
fn json_matches_golden_file() {
    let got = one_finding_report().render_json();
    let golden = include_str!("golden/report.json");
    assert_eq!(
        got,
        golden.trim_end(),
        "--json layout drifted; if intentional, bump SCHEMA_VERSION and regenerate tests/golden/report.json"
    );
}

#[test]
fn json_schema_version_and_ids_are_pinned() {
    let json = one_finding_report().render_json();
    assert!(json.starts_with("{\"schema_version\":3,"), "{json}");
    assert!(json.contains("\"rule\":\"unwrap-in-lib\""), "{json}");
    assert!(!json.contains("\"id\":"), "{json}");
}
