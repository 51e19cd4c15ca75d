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
//! truncated file at the output path.

use std::io::Write;
use std::path::Path;

/// `dataset | head` closing stdout early is normal Unix usage: exit 0
/// quietly instead of failing. No-op for every other error kind.
fn exit_broken_pipe_quietly(e: &std::io::Error) {
    if e.kind() == std::io::ErrorKind::BrokenPipe {
        std::process::exit(0);
    }
}

use wheels_core::checkpoint::write_atomic;
use wheels_core::column::wcd;
use wheels_experiments::cli::{self, Format};
use wheels_experiments::world::Scale;

fn main() {
    let args = cli::parse_args(Scale::Quick, std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let out_path = args.rest.last().cloned();

    eprintln!(
        "building world at scale {:?} (seed {})...",
        args.scale, args.seed
    );
    let ds = cli::build_world(&args)
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(1);
        })
        .into_dataset();
    eprintln!(
        "serializing {} tput / {} rtt / {} coverage / {} runs / {} handovers / {} app runs",
        ds.tput.len(),
        ds.rtt.len(),
        ds.coverage.len(),
        ds.runs.len(),
        ds.handovers.len(),
        ds.apps.len()
    );
    match args.format {
        Format::Json => {
            let bytes = serde_json::to_string(&ds)
                .expect("dataset serializes")
                .into_bytes();
            match out_path {
                Some(p) => {
                    if let Err(e) = write_atomic(Path::new(&p), &bytes) {
                        eprintln!("cannot write {p}: {e}");
                        std::process::exit(1);
                    }
                    eprintln!("wrote {p} ({} MB)", bytes.len() / 1_000_000);
                }
                None => {
                    if let Err(e) = std::io::stdout().lock().write_all(&bytes) {
                        exit_broken_pipe_quietly(&e);
                        eprintln!("cannot write dataset to stdout: {e}");
                        std::process::exit(1);
                    }
                }
            }
        }
        // Stream the WCD1 sections straight off the row tables to the
        // sink (temp file + atomic rename, or stdout) — the full encoded
        // image never exists in memory.
        Format::Bin => match out_path {
            Some(p) => {
                let path = Path::new(&p);
                if let Err(e) = wcd::write_file(path, &ds) {
                    eprintln!("cannot write {p}: {e}");
                    std::process::exit(1);
                }
                let written = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
                eprintln!("wrote {p} ({} MB)", written / 1_000_000);
            }
            None => {
                let mut w = std::io::BufWriter::new(std::io::stdout().lock());
                let streamed = wcd::encode_to(&ds, &mut w)
                    .and_then(|()| w.flush().map_err(wcd::WcdError::from));
                if let Err(e) = streamed {
                    if let wcd::WcdError::Io(io) = &e {
                        exit_broken_pipe_quietly(io);
                    }
                    eprintln!("cannot write dataset to stdout: {e}");
                    std::process::exit(1);
                }
            }
        },
    }
}
