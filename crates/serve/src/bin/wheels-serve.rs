//! `wheels-serve` — serve the analysis view of a (possibly still
//! growing) campaign checkpoint journal over TCP.
//!
//! ```text
//! wheels-serve --journal DIR [--quick|--standard|--full] [--seed N]
//!              [--faults] [--addr HOST:PORT] [--workers N]
//!              [--poll-ms N] [--io-timeout-ms N] [--max-inflight N]
//!              [--drain-secs N]
//! ```
//!
//! The service replays the journal into a `DatasetView`, then keeps
//! tailing it for newly appended shard frames while answering
//! line-delimited JSON queries (see the README "Serving" section for
//! the protocol and an `nc` session). SIGINT/SIGTERM, or a client
//! `{"cmd":"shutdown"}`, drain in-flight requests and dump the serving
//! metrics to stderr.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use wheels_core::analysis::view::DatasetView;
use wheels_core::records::Dataset;
use wheels_experiments::cli;
use wheels_experiments::world::World;
use wheels_serve::options;
use wheels_serve::server::{self, JournalSpec, ServeOptions};

/// Flipped by the signal handler; the main loop polls it.
static STOP: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    // Only async-signal-safe work here: one atomic store.
    STOP.store(true, Ordering::SeqCst);
}

/// Route SIGINT (2) and SIGTERM (15) to the stop flag via the libc
/// `signal()` entry point — the one piece of the service std cannot
/// express, hence the only unsafe block in the crate.
#[allow(unsafe_code)]
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    unsafe {
        signal(2, on_signal);
        signal(15, on_signal);
    }
}

fn main() {
    let opts = options::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    install_signal_handlers();

    let fingerprint = World::fingerprint_for(opts.scale, opts.seed, cli::fault_mix(opts.faults));
    // Start from an empty view: the ingest thread replays the journal
    // (if present) and keeps tailing — one code path for catch-up and
    // live follow, which is what keeps served answers byte-identical
    // to an offline replay of the same prefix.
    let base = World::from_view(opts.scale, opts.seed, DatasetView::new(Dataset::default()));
    let journal = JournalSpec {
        dir: std::path::PathBuf::from(&opts.journal),
        fingerprint,
    };
    let serve_opts = ServeOptions { ..opts.serve };
    let handle = server::start(base, journal, opts.addr.as_str(), serve_opts).unwrap_or_else(|e| {
        eprintln!("cannot bind {}: {e}", opts.addr);
        std::process::exit(1);
    });
    eprintln!(
        "wheels-serve listening on {} (journal {}, scale {:?}, seed {})",
        handle.addr(),
        opts.journal,
        opts.scale,
        opts.seed
    );

    while !STOP.load(Ordering::SeqCst) && !handle.is_stopping() {
        std::thread::sleep(Duration::from_millis(100));
    }
    match handle.shutdown() {
        Ok(dump) => eprintln!("{dump}"),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}
