//! Per-crate lint configuration.
//!
//! Crates are identified by their directory name under `crates/` (the
//! workspace root package is `"wheels"`). The default configuration
//! encodes the workspace's reproducibility contract.

/// Which crates each rule applies to, and what the walker skips.
#[derive(Debug, Clone)]
pub struct Config {
    /// Directory names never descended into (anywhere in the tree).
    pub skip_dirs: Vec<String>,
    /// Crates where wall-clock time, OS entropy, and environment reads
    /// are forbidden (the simulator and analysis stack). Binaries under
    /// `src/bin/` are exempt everywhere — they are entry points, not
    /// simulation code.
    pub nondet_crates: Vec<String>,
    /// Crates whose outputs become datasets or figures: `HashMap` /
    /// `HashSet` are flagged because their iteration order can leak into
    /// emitted tables.
    pub dataset_crates: Vec<String>,
    /// Crates exempt from the RNG stream-label rule (e.g. this tool,
    /// which has no RNG but does string-match on `split`).
    pub label_exempt_crates: Vec<String>,
    /// Path prefixes (relative to the workspace root, `/`-separated)
    /// where unannotated `as` casts to integer types are flagged.
    pub lossy_paths: Vec<String>,
    /// Path prefixes of the disruption subsystem: every RNG stream label
    /// there must live in the `campaign/faults/` namespace, and no label
    /// elsewhere may. Fault schedules drawing from any other stream would
    /// entangle the fault model with the simulation streams and break the
    /// off-by-default bit-identity guarantee.
    pub disrupt_paths: Vec<String>,
    /// Path prefixes that persist state a later run will trust (the
    /// checkpoint journal, the binaries' output writers and the
    /// `dataset` export in `cli.rs`): in-place
    /// `fs::write`, non-renamed `File::create`, and a rename with no
    /// fsync before it are flagged there — a crash must never leave a
    /// torn or unsynced file behind.
    pub persist_paths: Vec<String>,
    /// Crates excluded from the determinism-taint and float-reduction
    /// passes (this tool itself: its fixtures and string tables would
    /// otherwise trip the very patterns it searches for; the serving
    /// layer and the stress harness, which are wall-clock-aware by
    /// design — uptime, latency histograms, soak timings — and whose
    /// answers are pinned byte-identical to the offline replay by their
    /// own integration tests rather than by taint analysis).
    pub tier2_exempt_crates: Vec<String>,
    /// Path prefixes on the always-on service and soak-harness paths:
    /// `loop`/`while` bodies that sleep (retry/poll loops) must carry a
    /// visible bound — a stop flag, deadline, timeout, or attempt
    /// budget — or they can spin forever against a peer that never
    /// recovers.
    pub retry_paths: Vec<String>,
    /// Path prefixes whose record/encoder structs and fns count as
    /// determinism-taint *sinks*: values persisted or published from
    /// here must never derive from wall-clock, entropy, host topology,
    /// or hash-iteration order.
    pub taint_sink_paths: Vec<String>,
    /// Additional fn names treated as determinism-taint sinks wherever
    /// they are defined (e.g. the report printers).
    pub taint_sink_fns: Vec<String>,
    /// Path prefixes where non-commutative f64 reductions over unordered
    /// (hash/channel) iteration are flagged — the analysis kernels and
    /// the campaign merge, whose outputs are bit-identity-pinned.
    pub float_fold_paths: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        fn v(items: &[&str]) -> Vec<String> {
            items.iter().map(|s| s.to_string()).collect()
        }
        Config {
            skip_dirs: v(&["vendor", "target"]),
            nondet_crates: v(&[
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
            ]),
            dataset_crates: v(&["core", "experiments"]),
            label_exempt_crates: v(&["lint"]),
            lossy_paths: v(&["crates/core/src", "crates/experiments/src"]),
            disrupt_paths: v(&["crates/core/src/disrupt"]),
            persist_paths: v(&[
                "crates/core/src/checkpoint",
                "crates/experiments/src/bin",
                "crates/experiments/src/cli.rs",
            ]),
            tier2_exempt_crates: v(&["lint", "serve", "stress"]),
            retry_paths: v(&["crates/serve/src", "crates/stress/src"]),
            taint_sink_paths: v(&[
                "crates/core/src/records.rs",
                "crates/core/src/checkpoint.rs",
                "crates/core/src/column",
            ]),
            taint_sink_fns: v(&["render_report"]),
            float_fold_paths: v(&["crates/core/src/analysis", "crates/core/src/campaign.rs"]),
        }
    }
}

impl Config {
    /// True if a directory with this name must not be descended into.
    pub fn skips_dir(&self, name: &str) -> bool {
        self.skip_dirs.iter().any(|d| d == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_skips_vendor_and_target() {
        let c = Config::default();
        assert!(c.skips_dir("vendor"));
        assert!(c.skips_dir("target"));
        assert!(!c.skips_dir("src"));
    }
}
