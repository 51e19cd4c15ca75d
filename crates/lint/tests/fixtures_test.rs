//! Per-rule fixture tests: every rule must fire on its `_bad.rs` fixture
//! with the exact `file:line:col` positions, and stay silent on the clean
//! `_ok.rs` counterpart (including the `// lint: allow(rule, reason)`
//! escape hatch each counterpart exercises).

use wheels_lint::{lint_sources, Config, SourceFile};

/// Build the virtual workspace entry for one fixture.
fn fixture(name: &str, crate_name: &str, src: &str) -> SourceFile {
    SourceFile {
        rel_path: format!("crates/{crate_name}/src/{name}.rs"),
        crate_name: crate_name.to_string(),
        is_bin: false,
        is_crate_root: false,
        src: src.to_string(),
    }
}

/// Lint one fixture and return `(rule, line, col)` triples.
fn lint_one(file: SourceFile) -> Vec<(&'static str, u32, u32)> {
    let report = lint_sources(&[file], &Config::default());
    report
        .findings
        .iter()
        .map(|f| (f.rule, f.line, f.col))
        .collect()
}

#[test]
fn nondeterminism_fires_with_positions() {
    let src = include_str!("fixtures/nondeterminism_bad.rs");
    let got = lint_one(fixture("nondeterminism_bad", "sim-core", src));
    assert_eq!(
        got,
        vec![
            ("nondeterminism", 4, 14),
            ("nondeterminism", 9, 23),
            ("nondeterminism", 10, 11),
            ("nondeterminism", 14, 15),
        ]
    );
}

#[test]
fn nondeterminism_silent_on_clean_counterpart() {
    let src = include_str!("fixtures/nondeterminism_ok.rs");
    assert_eq!(
        lint_one(fixture("nondeterminism_ok", "sim-core", src)),
        vec![]
    );
}

#[test]
fn nondeterminism_exempts_binaries() {
    let src = include_str!("fixtures/nondeterminism_bad.rs");
    let mut f = fixture("main", "sim-core", src);
    f.is_bin = true;
    assert_eq!(lint_one(f), vec![]);
}

#[test]
fn hash_iteration_fires_with_positions() {
    let src = include_str!("fixtures/hash_iteration_bad.rs");
    let got = lint_one(fixture("hash_iteration_bad", "core", src));
    assert_eq!(
        got,
        vec![
            ("hash-iteration", 1, 23),
            ("hash-iteration", 3, 31),
            ("hash-iteration", 4, 17),
        ]
    );
}

#[test]
fn hash_iteration_silent_on_clean_counterpart() {
    let src = include_str!("fixtures/hash_iteration_ok.rs");
    assert_eq!(lint_one(fixture("hash_iteration_ok", "core", src)), vec![]);
}

#[test]
fn hash_iteration_ignores_non_dataset_crates() {
    let src = include_str!("fixtures/hash_iteration_bad.rs");
    assert_eq!(
        lint_one(fixture("hash_iteration_bad", "radio", src)),
        vec![]
    );
}

#[test]
fn rng_stream_labels_fire_with_positions() {
    let src = include_str!("fixtures/rng_stream_labels_bad.rs");
    let got = lint_one(fixture("rng_stream_labels_bad", "ran", src));
    assert_eq!(
        got,
        vec![("rng-stream-labels", 2, 23), ("rng-stream-labels", 4, 23),]
    );
}

#[test]
fn rng_stream_labels_silent_on_clean_counterpart() {
    let src = include_str!("fixtures/rng_stream_labels_ok.rs");
    assert_eq!(
        lint_one(fixture("rng_stream_labels_ok", "ran", src)),
        vec![]
    );
}

#[test]
fn rng_stream_labels_unique_across_files() {
    // The registry spans the whole lint run: the same label in two files
    // is a duplicate even though each file alone is fine.
    let a = fixture(
        "a",
        "ran",
        "pub fn f(r: &SimRng) { r.split(\"area/same\"); }\n",
    );
    let b = fixture(
        "b",
        "ue",
        "pub fn g(r: &SimRng) { r.split(\"area/same\"); }\n",
    );
    let report = lint_sources(&[a, b], &Config::default());
    assert_eq!(report.findings.len(), 1);
    let f = &report.findings[0];
    assert_eq!(f.rule, "rng-stream-labels");
    assert_eq!(f.file, "crates/ue/src/b.rs");
    assert!(
        f.message.contains("crates/ran/src/a.rs:1:32"),
        "{}",
        f.message
    );
}

#[test]
fn unwrap_in_lib_fires_with_positions() {
    let src = include_str!("fixtures/unwrap_in_lib_bad.rs");
    let got = lint_one(fixture("unwrap_in_lib_bad", "geo", src));
    assert_eq!(got, vec![("unwrap-in-lib", 2, 17), ("unwrap-in-lib", 6, 5)]);
}

#[test]
fn unwrap_in_lib_silent_on_clean_counterpart() {
    let src = include_str!("fixtures/unwrap_in_lib_ok.rs");
    assert_eq!(lint_one(fixture("unwrap_in_lib_ok", "geo", src)), vec![]);
}

#[test]
fn lossy_cast_fires_with_positions() {
    let src = include_str!("fixtures/lossy_cast_bad.rs");
    let got = lint_one(fixture("lossy_cast_bad", "core", src));
    assert_eq!(got, vec![("lossy-cast", 2, 16), ("lossy-cast", 6, 18)]);
}

#[test]
fn lossy_cast_silent_on_clean_counterpart() {
    let src = include_str!("fixtures/lossy_cast_ok.rs");
    assert_eq!(lint_one(fixture("lossy_cast_ok", "core", src)), vec![]);
}

#[test]
fn lossy_cast_scoped_to_configured_paths() {
    let src = include_str!("fixtures/lossy_cast_bad.rs");
    assert_eq!(lint_one(fixture("lossy_cast_bad", "radio", src)), vec![]);
}

#[test]
fn crate_hygiene_fires_on_bare_root() {
    let src = include_str!("fixtures/crate_hygiene_bad.rs");
    let mut f = fixture("lib", "transport", src);
    f.is_crate_root = true;
    let got = lint_one(f);
    assert_eq!(got, vec![("crate-hygiene", 1, 1), ("crate-hygiene", 1, 1)]);
}

#[test]
fn crate_hygiene_silent_on_clean_counterpart() {
    let src = include_str!("fixtures/crate_hygiene_ok.rs");
    let mut f = fixture("lib", "transport", src);
    f.is_crate_root = true;
    assert_eq!(lint_one(f), vec![]);
}

#[test]
fn cfg_test_modules_are_masked() {
    let src = "pub fn ok() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let x: Option<u32> = None;\n        x.unwrap();\n    }\n}\n";
    assert_eq!(lint_one(fixture("masked", "geo", src)), vec![]);
}

#[test]
fn allow_without_reason_does_not_suppress() {
    let src = "pub fn f(xs: &[u32]) -> u32 {\n    // lint: allow(unwrap-in-lib, )\n    *xs.first().unwrap()\n}\n";
    let got = lint_one(fixture("noreason", "geo", src));
    assert_eq!(got, vec![("unwrap-in-lib", 3, 17)]);
}

#[test]
fn disrupt_stream_namespace_fires_with_positions() {
    let src = include_str!("fixtures/disrupt_stream_bad.rs");
    let got = lint_one(fixture("disrupt_stream_bad", "core", src));
    assert_eq!(
        got,
        vec![
            ("disrupt-stream-namespace", 2, 23),
            ("disrupt-stream-namespace", 3, 32),
        ]
    );
}

#[test]
fn disrupt_stream_namespace_silent_on_clean_counterpart() {
    let src = include_str!("fixtures/disrupt_stream_ok.rs");
    assert_eq!(lint_one(fixture("disrupt_stream_ok", "core", src)), vec![]);
}

#[test]
fn disrupt_stream_namespace_scoped_to_disrupt_paths() {
    // The same labels outside the disrupt module are rule-3 territory
    // only (well-formed and unique, so no findings at all).
    let src = include_str!("fixtures/disrupt_stream_bad.rs");
    assert_eq!(lint_one(fixture("other", "core", src)), vec![]);
}

#[test]
fn atomic_persistence_fires_with_positions() {
    // `checkpoint_bad` lands at crates/core/src/checkpoint_bad.rs, inside
    // the `crates/core/src/checkpoint` persist-path prefix.
    let src = include_str!("fixtures/checkpoint_bad.rs");
    let got = lint_one(fixture("checkpoint_bad", "core", src));
    assert_eq!(
        got,
        vec![("atomic-persistence", 4, 9), ("atomic-persistence", 8, 23)]
    );
}

#[test]
fn atomic_persistence_silent_on_clean_counterpart() {
    // Temp-file + rename, append-mode writes, and the reasoned allow are
    // all accepted.
    let src = include_str!("fixtures/checkpoint_ok.rs");
    assert_eq!(lint_one(fixture("checkpoint_ok", "core", src)), vec![]);
}

#[test]
fn atomic_persistence_scoped_to_persist_paths() {
    let src = include_str!("fixtures/checkpoint_bad.rs");
    assert_eq!(lint_one(fixture("journal_bad", "core", src)), vec![]);
}

#[test]
fn columnar_kernel_fires_with_positions() {
    // `analysis/…` lands the fixture inside the `crates/core/src/analysis`
    // columnar-path prefix.
    let src = include_str!("fixtures/columnar_kernel_bad.rs");
    let got = lint_one(fixture("analysis/columnar_kernel_bad", "core", src));
    assert_eq!(
        got,
        vec![("columnar-kernel", 2, 32), ("columnar-kernel", 7, 13)]
    );
}

#[test]
fn columnar_kernel_silent_on_clean_counterpart() {
    // Index gathers (`|&i|`), method-call maps (`r.len()`), and the
    // reasoned allow are all accepted.
    let src = include_str!("fixtures/columnar_kernel_ok.rs");
    assert_eq!(
        lint_one(fixture("analysis/columnar_kernel_ok", "core", src)),
        vec![]
    );
}

#[test]
fn columnar_kernel_scoped_to_columnar_paths() {
    // The same projections outside the analysis kernels (here, the
    // records module) are ordinary row iteration — no findings.
    let src = include_str!("fixtures/columnar_kernel_bad.rs");
    assert_eq!(
        lint_one(fixture("columnar_kernel_bad", "core", src)),
        vec![]
    );
}

#[test]
fn bounded_retry_fires_with_positions() {
    // `server` lands at crates/serve/src/server.rs, inside the
    // configured retry paths.
    let src = include_str!("fixtures/bounded_retry_bad.rs");
    let got = lint_one(fixture("server", "serve", src));
    assert_eq!(
        got,
        vec![
            ("bounded-retry", 2, 5),
            ("bounded-retry", 11, 5),
            ("bounded-retry", 18, 5),
        ]
    );
}

#[test]
fn bounded_retry_silent_on_clean_counterpart() {
    // Stop flag, deadline, and attempt budget each count as the bound;
    // for-loops are exempt (the iterator bounds them); the supervised
    // spin helper carries the reasoned allow.
    let src = include_str!("fixtures/bounded_retry_ok.rs");
    assert_eq!(lint_one(fixture("harness", "stress", src)), vec![]);
}

#[test]
fn bounded_retry_scoped_to_service_paths() {
    // The same sleepy loops outside the serve/stress paths (here, a
    // core helper) are out of scope — batch code may pace itself
    // however it likes.
    let src = include_str!("fixtures/bounded_retry_bad.rs");
    assert_eq!(lint_one(fixture("pacing", "core", src)), vec![]);
}

#[test]
fn atomic_persistence_covers_binaries() {
    // Binaries are exempt from most rules but their output writers are
    // exactly where torn files hurt, so this rule reaches into src/bin.
    let src = include_str!("fixtures/checkpoint_bad.rs");
    let f = SourceFile {
        rel_path: "crates/experiments/src/bin/export_bad.rs".to_string(),
        crate_name: "experiments".to_string(),
        is_bin: true,
        is_crate_root: false,
        src: src.to_string(),
    };
    assert_eq!(
        lint_one(f),
        vec![("atomic-persistence", 4, 9), ("atomic-persistence", 8, 23)]
    );
}
