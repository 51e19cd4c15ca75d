//! `dataset` — export the consolidated dataset.
//!
//! The paper publishes its dataset on GitHub; our substitute is a seeded
//! regeneration. This binary builds the world at the chosen scale and
//! writes the full consolidated database (typed tables: throughput
//! samples, RTT samples, coverage rows, test runs, handovers, app runs,
//! plus the Table 1 accounting) as a single document.
//!
//! ```text
//! dataset [--quick|--standard|--full] [--seed N] [--threads N] [--faults]
//!         [--checkpoint DIR | --resume DIR] [--format json|bin] [output]
//! ```
//!
//! `--format json` (default) emits the pinned JSON interchange schema,
//! byte-stable across releases. `--format bin` emits the WCD1 columnar
//! binary format — the fast cache/transport layer `repro --load`
//! auto-detects and loads without a parse step.
//!
//! `--faults` injects the demo disruption mix; the exported `audits`
//! table then carries the retry/salvage/loss ledger.
//!
//! `--checkpoint DIR` journals each completed campaign shard to `DIR` so
//! a killed export can be restarted with `--resume DIR`, replaying the
//! finished shards and re-simulating only the rest — the output is
//! byte-identical either way.
//!
//! With no output path, the document goes to stdout. File output lands
//! via a temp file + atomic rename, so a crash mid-write never leaves a
//! truncated file at the output path. The export itself is
//! [`wheels_experiments::cli::dataset`].

fn main() {
    std::process::exit(wheels_experiments::cli::dataset(std::env::args().skip(1)));
}
