//! The shipped tree must lint clean: every rule enabled, zero findings;
//! and every member must hand its crate policy to rustc.

use std::fs;
use std::path::PathBuf;

use wheels_lint::lint_workspace;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
}

/// True if the TOML table `header` of `manifest` holds the `key = value`
/// line (whitespace-insensitive).
fn table_has(manifest: &str, header: &str, line: &str) -> bool {
    let want = line.replace(' ', "");
    let mut inside = false;
    for l in manifest.lines().map(str::trim) {
        if l.starts_with('[') {
            inside = l == header;
        } else if inside && l.replace(' ', "") == want {
            return true;
        }
    }
    false
}

#[test]
fn shipped_workspace_has_no_findings() {
    let report = lint_workspace(&workspace_root()).expect("workspace scan succeeds");
    assert!(
        report.files_checked > 50,
        "expected to scan the full workspace, saw {} files",
        report.files_checked
    );
    assert!(
        report.is_clean(),
        "workspace has lint findings:\n{}",
        report.render_text()
    );
}

/// `unsafe_code` and `missing_docs` are denied once, in the root
/// manifest's `[workspace.lints.rust]`, and reach a crate only through
/// its `[lints] workspace = true`: a member without that line would
/// build with neither.
#[test]
fn every_member_inherits_the_workspace_lints() {
    let root = workspace_root();
    let root_manifest = fs::read_to_string(root.join("Cargo.toml")).expect("root manifest reads");
    for policy in ["unsafe_code = \"deny\"", "missing_docs = \"deny\""] {
        assert!(
            table_has(&root_manifest, "[workspace.lints.rust]", policy),
            "root Cargo.toml lacks `{policy}` under [workspace.lints.rust]"
        );
    }
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in fs::read_dir(root.join("crates")).expect("crates/ lists") {
        let manifest = entry.expect("crates/ entry").path().join("Cargo.toml");
        if manifest.is_file() {
            manifests.push(manifest);
        }
    }
    assert!(manifests.len() > 10, "saw only {manifests:?}");
    let escaping: Vec<_> = manifests
        .iter()
        .filter(|m| {
            let text = fs::read_to_string(m).expect("member manifest reads");
            !table_has(&text, "[lints]", "workspace = true")
        })
        .map(|m| m.strip_prefix(&root).unwrap_or(m))
        .collect();
    assert!(
        escaping.is_empty(),
        "members without `[lints] workspace = true`: {escaping:?}"
    );
}
