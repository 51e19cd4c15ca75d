//! Workspace file discovery.
//!
//! The lint scans library source only: the root package's `src/` plus
//! every `crates/*/src/`. Integration tests, benches and examples live
//! outside `src/` and are intentionally out of scope; `#[cfg(test)]`
//! modules inside `src/` are masked at the token level instead.

use std::fs;
use std::io;
use std::path::Path;

use crate::config::skips_dir;

/// One source file with its workspace context.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub rel_path: String,
    /// Crate identifier: the directory name under `crates/`, or
    /// `"wheels"` for the root package.
    pub crate_name: String,
    /// True for binary targets (`src/bin/**` or `src/main.rs`): entry
    /// points are exempt from the simulation-determinism rules.
    pub is_bin: bool,
    /// File contents.
    pub src: String,
}

/// Collect every library source file of the workspace rooted at `root`,
/// in deterministic (path-sorted) order.
pub fn collect_workspace(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut out = Vec::new();
    collect_crate(root, &root.join("src"), "wheels", &mut out)?;
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut dirs: Vec<_> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        for dir in dirs {
            let name = dir
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default()
                .to_string();
            if name.is_empty() || skips_dir(&name) {
                continue;
            }
            collect_crate(root, &dir.join("src"), &name, &mut out)?;
        }
    }
    out.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    Ok(out)
}

/// Collect one crate's `src/` tree, recursively; a crate without one
/// contributes nothing.
fn collect_crate(
    root: &Path,
    dir: &Path,
    crate_name: &str,
    out: &mut Vec<SourceFile>,
) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<_> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        if path.is_dir() {
            if !skips_dir(&name) {
                collect_crate(root, &path, crate_name, out)?;
            }
            continue;
        }
        if !name.ends_with(".rs") {
            continue;
        }
        let rel_path = rel(&path, root);
        let is_bin = rel_path.contains("/bin/") || name == "main.rs";
        let src = fs::read_to_string(&path)?;
        out.push(SourceFile {
            rel_path,
            crate_name: crate_name.to_string(),
            is_bin,
            src,
        });
    }
    Ok(())
}

/// Workspace-relative `/`-separated path.
fn rel(path: &Path, root: &Path) -> String {
    let p = path.strip_prefix(root).unwrap_or(path);
    p.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}
