//! Tier-2 fixture tests: each dataflow pass must fire on its `_bad.rs`
//! fixture with the exact `file:line:col` positions and stay silent on
//! the clean `_ok.rs` counterpart, and the stale-allow audit must flag
//! exactly the directives that suppress nothing.

use wheels_lint::{lint_sources, SourceFile};

/// Build the virtual workspace entry for one fixture.
fn fixture(name: &str, crate_name: &str, src: &str) -> SourceFile {
    SourceFile {
        rel_path: format!("crates/{crate_name}/src/{name}.rs"),
        crate_name: crate_name.to_string(),
        is_bin: false,
        src: src.to_string(),
    }
}

/// Lint fixtures and return `(rule, line, col)` triples.
fn lint_all(files: Vec<SourceFile>) -> Vec<(&'static str, u32, u32)> {
    let report = lint_sources(&files);
    report
        .findings
        .iter()
        .map(|f| (f.rule, f.line, f.col))
        .collect()
}

/// The record-struct sink file, mounted on a `taint_sink_paths` entry.
fn records_file() -> SourceFile {
    fixture("records", "core", include_str!("fixtures/taint_records.rs"))
}

#[test]
fn determinism_taint_fires_with_positions() {
    let bad = fixture("taint_bad", "core", include_str!("fixtures/taint_bad.rs"));
    let got = lint_all(vec![records_file(), bad]);
    assert_eq!(got, vec![("determinism-taint", 14, 5)]);
}

#[test]
fn determinism_taint_reports_the_call_chain() {
    let bad = fixture("taint_bad", "core", include_str!("fixtures/taint_bad.rs"));
    let report = lint_sources(&[records_file(), bad]);
    let msg = &report.findings[0].message;
    assert!(msg.contains("available_parallelism"), "{msg}");
    assert!(msg.contains("returned by host_threads"), "{msg}");
    assert!(msg.contains("record `RunRecord` literal"), "{msg}");
}

#[test]
fn determinism_taint_silent_on_clean_counterpart() {
    let ok = fixture("taint_ok", "core", include_str!("fixtures/taint_ok.rs"));
    assert_eq!(lint_all(vec![records_file(), ok]), vec![]);
}

#[test]
fn rng_stream_flow_fires_with_positions() {
    let bad = fixture(
        "streamflow_bad",
        "ran",
        include_str!("fixtures/streamflow_bad.rs"),
    );
    assert_eq!(lint_all(vec![bad]), vec![("rng-stream-labels", 7, 9)]);
}

#[test]
fn rng_stream_flow_silent_on_clean_counterpart() {
    let ok = fixture(
        "streamflow_ok",
        "ran",
        include_str!("fixtures/streamflow_ok.rs"),
    );
    assert_eq!(lint_all(vec![ok]), vec![]);
}

#[test]
fn persistence_ordering_fires_with_positions() {
    // `checkpoint_flow_bad` lands inside the `crates/core/src/checkpoint`
    // persist-path prefix.
    let bad = fixture(
        "checkpoint_flow_bad",
        "core",
        include_str!("fixtures/checkpoint_flow_bad.rs"),
    );
    assert_eq!(lint_all(vec![bad]), vec![("atomic-persistence", 12, 9)]);
}

#[test]
fn persistence_ordering_create_is_not_its_own_fsync() {
    // Name-based resolution binds `File::create` to every workspace fn
    // called `create`; one that fsyncs must not discharge the obligation.
    let journal = fixture(
        "journal",
        "core",
        "pub struct Journal;\nimpl Journal {\n    pub fn create(f: &File) -> std::io::Result<()> {\n        f.sync_all()\n    }\n}\n",
    );
    let bad = fixture(
        "checkpoint_flow_bad",
        "core",
        include_str!("fixtures/checkpoint_flow_bad.rs"),
    );
    assert_eq!(
        lint_all(vec![journal, bad]),
        vec![("atomic-persistence", 12, 9)]
    );
}

#[test]
fn persistence_ordering_silent_on_transitive_fsync() {
    let ok = fixture(
        "checkpoint_flow_ok",
        "core",
        include_str!("fixtures/checkpoint_flow_ok.rs"),
    );
    assert_eq!(lint_all(vec![ok]), vec![]);
}

#[test]
fn unordered_float_reduction_fires_with_positions() {
    // The hash-returning callees live outside the dataset crates, so
    // only the reductions that consume them are findings.
    let apps = fixture(
        "gaming",
        "apps",
        "use std::collections::HashMap;\npub struct Stats;\nimpl Stats {\n    pub fn bytes_by_frame(&self) -> HashMap<u32, f64> {\n        HashMap::new()\n    }\n}\npub fn bytes_by_frame(_: &Stats) -> HashMap<u32, f64> {\n    HashMap::new()\n}\n",
    );
    let bad = fixture(
        "analysis/floatfold_bad",
        "core",
        include_str!("fixtures/floatfold_bad.rs"),
    );
    assert_eq!(
        lint_all(vec![apps, bad]),
        vec![
            ("unordered-float-reduction", 9, 15),
            ("unordered-float-reduction", 15, 15),
            ("unordered-float-reduction", 21, 37),
            ("unordered-float-reduction", 25, 57),
        ]
    );
}

#[test]
fn unordered_float_reduction_silent_on_clean_counterpart() {
    let ok = fixture(
        "analysis/floatfold_ok",
        "core",
        include_str!("fixtures/floatfold_ok.rs"),
    );
    assert_eq!(lint_all(vec![ok]), vec![]);
}

#[test]
fn tier2_findings_honour_allow_directives() {
    let src = include_str!("fixtures/streamflow_bad.rs").replace(
        "    rng.split(&label);",
        "    // lint: allow(rng-stream-labels, pinned legacy label)\n    rng.split(&label);",
    );
    let bad = fixture("streamflow_bad", "ran", &src);
    assert_eq!(lint_all(vec![bad]), vec![]);
}

#[test]
fn strict_allows_flags_stale_directive() {
    let src =
        "pub fn f() -> u32 {\n    1\n}\n// lint: allow(unwrap-in-lib, nothing left to suppress)\n";
    let f = fixture("stale", "geo", src);
    let report = lint_sources(&[f]);
    let got: Vec<_> = report
        .findings
        .iter()
        .map(|f| (f.rule, f.line, f.col))
        .collect();
    assert_eq!(got, vec![("stale-allow", 4, 1)]);
}

#[test]
fn strict_allows_flags_unknown_rule_name() {
    let src = "pub fn f() -> u32 {\n    // lint: allow(no-such-rule, typo)\n    1\n}\n";
    let f = fixture("typo", "geo", src);
    let report = lint_sources(&[f]);
    assert_eq!(report.findings.len(), 1);
    assert_eq!(report.findings[0].rule, "stale-allow");
    assert!(report.findings[0].message.contains("no-such-rule"));
}

#[test]
fn strict_allows_accepts_used_directive() {
    let src = "pub fn f(xs: &[u32]) -> u32 {\n    // lint: allow(unwrap-in-lib, slice is non-empty by construction)\n    *xs.first().unwrap()\n}\n";
    let f = fixture("used", "geo", src);
    let report = lint_sources(&[f]);
    assert_eq!(report.findings.len(), 0, "{:?}", report.findings);
}
