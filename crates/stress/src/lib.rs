//! # wheels-stress
//!
//! The chaos/soak harness: the platform's determinism and crash-safety
//! contracts, re-verified continuously under induced failure instead of
//! once per unit test.
//!
//! One soak run drives the quick world's checkpointed `dataset` export
//! **in a supervised child process** (`wheels-stress child`, which is
//! [`wheels_experiments::cli::dataset`]), kills it at randomized (but
//! seeded, hence reproducible) journal watermarks, resumes it with
//! varied thread counts, and the whole time races a `wheels-serve`
//! instance tailing the same journal under a configurable mixed query
//! load. After every
//! kill/resume cycle the harness re-checks the core invariants at a
//! quiesce point:
//!
//! 1. **Prefix replayability** — the journal's intact prefix always
//!    replays through `DatasetView::from_journal`, whatever byte the
//!    kill landed on.
//! 2. **Served identity** — once the live tailer has caught up, the
//!    server's answer bytes equal an offline replay of the same prefix.
//! 3. **Resume identity** — the final dataset after any sequence of
//!    kills and resumes is byte-identical to an undisturbed reference
//!    run of the same configuration.
//! 4. **Audit conservation** — the disruption ledger balances:
//!    `recorded + lost == planned`, per row of the final dataset and in
//!    the tally of the audit rows the final child appended.
//!
//! Query latency flows through the shared `wheels-metrics` layer — the
//! same counters and log₂ histograms the server records into. The
//! final child's campaign counts (shards replayed and completed, frames
//! and bytes appended, the appended audit tally) are derived from the
//! journal before and after it ran, so the final report carries query
//! percentiles, ingest lag, salvage and retry rates, and per-cycle
//! outcomes without the child reporting anything but its dataset.
//!
//! The harness is budgeted (`--cycles` / `--duration-s`) so CI can run
//! a quick deterministic soak; the verdict is the process exit code
//! (0 = all invariants held, 1 = a check failed, 2 = harness error).

#![forbid(unsafe_code)]

pub mod harness;
pub mod load;
pub mod options;
pub mod report;
pub mod scenario;
pub mod verify;

use std::path::PathBuf;

/// Locate the `wheels-stress` executable for child spawns when the
/// caller did not pass `--child-exe`: the current executable if it *is*
/// the harness binary, else a sibling in the same target profile
/// directory (covers test binaries, which run from `deps/`).
pub fn default_child_exe() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let name = format!("wheels-stress{}", std::env::consts::EXE_SUFFIX);
    if exe.file_name().is_some_and(|n| n == name.as_str()) {
        return Some(exe);
    }
    let mut dir = exe.parent()?;
    // target/<profile>/deps/<test-bin> -> target/<profile>/wheels-stress
    for _ in 0..2 {
        let cand = dir.join(&name);
        if cand.is_file() {
            return Some(cand);
        }
        dir = dir.parent()?;
    }
    None
}
