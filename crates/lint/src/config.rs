//! The workspace's lint scopes.
//!
//! Crates are identified by their directory name under `crates/` (the
//! workspace root package is `"wheels"`); paths are workspace-relative,
//! `/`-separated prefixes. Together these encode the workspace's
//! reproducibility contract.

/// Directory names never descended into (anywhere in the tree).
pub const SKIP_DIRS: &[&str] = &["vendor", "target"];

/// Crates where wall-clock time, OS entropy, and environment reads
/// are forbidden (the simulator and analysis stack). Binaries under
/// `src/bin/` are exempt everywhere — they are entry points, not
/// simulation code.
pub const NONDET_CRATES: &[&str] = &[
    "sim-core",
    "geo",
    "radio",
    "ran",
    "transport",
    "ue",
    "apps",
    "core",
    "experiments",
    "wheels",
];

/// Crates whose outputs become datasets or figures: `HashMap` /
/// `HashSet` are flagged because their iteration order can leak into
/// emitted tables.
pub const DATASET_CRATES: &[&str] = &["core", "experiments"];

/// Crates exempt from the RNG stream-label rule (e.g. this tool,
/// which has no RNG but does string-match on `split`).
pub const LABEL_EXEMPT_CRATES: &[&str] = &["lint"];

/// Path prefixes where unannotated `as` casts to integer types are
/// flagged.
pub const LOSSY_PATHS: &[&str] = &["crates/core/src", "crates/experiments/src"];

/// Path prefixes of the disruption subsystem: every RNG stream label
/// there must live in the `campaign/faults/` namespace, and no label
/// elsewhere may. Fault schedules drawing from any other stream would
/// entangle the fault model with the simulation streams and break the
/// off-by-default bit-identity guarantee.
pub const DISRUPT_PATHS: &[&str] = &["crates/core/src/disrupt"];

/// Path prefixes that persist state a later run will trust (the
/// checkpoint journal, the binaries' output writers and the
/// `dataset` export in `cli.rs`): in-place
/// `fs::write`, non-renamed `File::create`, and a rename with no
/// fsync before it are flagged there — a crash must never leave a
/// torn or unsynced file behind.
pub const PERSIST_PATHS: &[&str] = &[
    "crates/core/src/checkpoint",
    "crates/experiments/src/bin",
    "crates/experiments/src/cli.rs",
];

/// Crates excluded from the determinism-taint and float-reduction
/// passes (this tool itself: its fixtures and string tables would
/// otherwise trip the very patterns it searches for; the serving
/// layer and the stress harness, which are wall-clock-aware by
/// design — uptime, latency histograms, soak timings — and whose
/// answers are pinned byte-identical to the offline replay by their
/// own integration tests rather than by taint analysis).
pub const TIER2_EXEMPT_CRATES: &[&str] = &["lint", "serve", "stress"];

/// Path prefixes on the always-on service and soak-harness paths:
/// `loop`/`while` bodies that sleep (retry/poll loops) must carry a
/// visible bound — a stop flag, deadline, timeout, or attempt
/// budget — or they can spin forever against a peer that never
/// recovers.
pub const RETRY_PATHS: &[&str] = &["crates/serve/src", "crates/stress/src"];

/// Path prefixes whose record/encoder structs and fns count as
/// determinism-taint *sinks*: values persisted or published from
/// here must never derive from wall-clock, entropy, host topology,
/// or hash-iteration order.
pub const TAINT_SINK_PATHS: &[&str] = &[
    "crates/core/src/records.rs",
    "crates/core/src/checkpoint.rs",
    "crates/core/src/column",
];

/// Additional fn names treated as determinism-taint sinks wherever
/// they are defined (e.g. the report printers).
pub const TAINT_SINK_FNS: &[&str] = &["render_report"];

/// Path prefixes where non-commutative f64 reductions over unordered
/// (hash/channel) iteration are flagged — the analysis kernels and
/// the campaign merge, whose outputs are bit-identity-pinned.
pub const FLOAT_FOLD_PATHS: &[&str] = &["crates/core/src/analysis", "crates/core/src/campaign.rs"];

/// True if a directory with this name must not be descended into.
pub fn skips_dir(name: &str) -> bool {
    SKIP_DIRS.contains(&name)
}

/// True if `rel_path` lives under any of the `/`-separated prefixes.
pub fn in_paths(rel_path: &str, paths: &[&str]) -> bool {
    paths.iter().any(|p| rel_path.starts_with(p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_skips_vendor_and_target() {
        assert!(skips_dir("vendor"));
        assert!(skips_dir("target"));
        assert!(!skips_dir("src"));
    }
}
