//! # wheels-bench
//!
//! The component benchmark harness, in two kinds of bench target.
//!
//! The Criterion targets regenerate part of the paper's evaluation and
//! measure how long the regeneration takes:
//!
//! - `paper_tables` — Tables 1–5.
//! - `coverage_figures` — Figs. 1–2.
//! - `network_figures` — Figs. 3–10.
//! - `handover_figures` — Figs. 11–12.
//! - `app_figures` — Figs. 13–16 and 18–22.
//! - `components` — microbenchmarks of the simulator's hot paths
//!   (channel sampling, CUBIC ticks, session polls, route queries).
//! - `ablations` — the DESIGN.md design-choice probes (upgrade policy,
//!   buffer sizing, BBA, CA, local tracking).
//! - `extensions` — the extension analyses (the paper's future work).
//!
//! Each experiment bench prints its regenerated rows once (to stderr) so
//! `cargo bench` output doubles as a reproduction log.
//!
//! The plain-`main` targets time one subsystem end to end and rewrite a
//! tracked `BENCH_*.json` baseline at the repo root (add `-- --standard`
//! for the Standard-scale points where a bench has them):
//!
//! - `campaign` — campaign wall time across worker-thread counts
//!   (`BENCH_campaign.json`).
//! - `analysis` — cold scans vs the indexed view, and full-repro wall
//!   time across runner thread counts (`BENCH_analysis.json`).
//! - `storage` — WCD1 binary load vs JSON parse, encoded sizes, and view
//!   construction (`BENCH_storage.json`).
//! - `ingest` — incremental shard ingest vs a full view rebuild
//!   (`BENCH_ingest.json`).
//! - `serve` — `wheels-serve` query latency and ingest lag
//!   (`BENCH_serve.json`).
//! - `stress` — `wheels-stress` soak cycle and verification cost
//!   (`BENCH_stress.json`).
//!
//! These are component baselines. The end-to-end performance ledger —
//! the workloads a change is accepted or rejected on — is the separate
//! `perf/` runner, declared by `BENCHMARK.json` at the repo root.
//!
//! The shared world is built once per bench binary at Quick scale; use the
//! `repro` binary with `--standard`/`--full` for the higher-fidelity runs
//! recorded in EXPERIMENTS.md.

#![forbid(unsafe_code)]

/// Re-export for bench targets.
pub use wheels_experiments::world::{Scale, World};

/// Print an experiment's output once per process (so Criterion's repeated
/// iterations don't spam).
pub fn print_once(id: &str, text: &str) {
    use std::collections::HashSet;
    use std::sync::Mutex;
    use std::sync::OnceLock;
    static PRINTED: OnceLock<Mutex<HashSet<String>>> = OnceLock::new();
    let set = PRINTED.get_or_init(|| Mutex::new(HashSet::new()));
    let mut set = set.lock().expect("dedup-print mutex poisoned");
    if set.insert(id.to_string()) {
        eprintln!("\n----- {id} -----\n{text}");
    }
}
