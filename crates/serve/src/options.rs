//! `wheels-serve` command-line parsing.
//!
//! ```text
//! wheels-serve --journal DIR [--quick|--standard|--full] [--seed N]
//!              [--faults] [--addr HOST:PORT] [--workers N]
//!              [--poll-ms N] [--io-timeout-ms N] [--max-inflight N]
//!              [--drain-secs N]
//! ```
//!
//! Parsed on the same flag walker as `repro`/`dataset`
//! ([`wheels_experiments::cli::Flags`]): each flag at most once (a
//! silently-dropped duplicate on a long-running service is worse than an
//! error), the scale flags are three spellings of one setting, and
//! unknown flags are refused.

use std::num::NonZeroUsize;

use wheels_experiments::cli::{positional, Flags};
use wheels_experiments::world::Scale;

use crate::server::ServeOptions;

/// Parsed `wheels-serve` invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Options {
    /// Campaign scale the journal is expected to hold
    /// (`--quick`/`--standard`/`--full`, default standard).
    pub scale: Scale,
    /// Campaign seed (`--seed N`, default 2022).
    pub seed: u64,
    /// Expect the demo disruption mix (`--faults`). Part of the journal
    /// identity: a journal written with different faults is refused.
    pub faults: bool,
    /// Checkpoint directory to tail (`--journal DIR`, required). May
    /// not exist yet; the server waits for the writer.
    pub journal: String,
    /// Listen address (`--addr HOST:PORT`, default `127.0.0.1:7878`;
    /// port 0 picks a free port).
    pub addr: String,
    /// Server tuning (`--workers`/`--poll-ms`/`--io-timeout-ms`/
    /// `--max-inflight`/`--drain-secs`).
    pub serve: ServeOptions,
}

/// Parse `argv` (without the program name).
pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        scale: Scale::Standard,
        seed: 2022,
        faults: false,
        journal: String::new(),
        addr: "127.0.0.1:7878".to_string(),
        serve: ServeOptions::default(),
    };
    let mut flags = Flags::new(argv.into_iter());
    while let Some(arg) = flags.next_arg()? {
        let serve = &mut opts.serve;
        match arg.as_str() {
            "--quick" => opts.scale = Scale::Quick,
            "--standard" => opts.scale = Scale::Standard,
            "--full" => opts.scale = Scale::Full,
            "--faults" => opts.faults = true,
            "--seed" => opts.seed = flags.parse(&arg, "an integer")?,
            "--journal" => opts.journal = flags.value(&arg, "a directory")?,
            "--addr" => opts.addr = flags.value(&arg, "HOST:PORT")?,
            "--workers" => {
                serve.workers = flags
                    .parse::<NonZeroUsize>(&arg, "a positive integer")?
                    .get();
            }
            "--poll-ms" => serve.poll_ms = flags.parse(&arg, "an integer")?,
            "--io-timeout-ms" => serve.io_timeout_ms = flags.parse(&arg, "an integer")?,
            "--max-inflight" => {
                serve.max_inflight = flags
                    .parse::<NonZeroUsize>(&arg, "a positive integer")?
                    .get();
            }
            "--drain-secs" => serve.drain_secs = flags.parse(&arg, "an integer")?,
            _ => return Err(format!("unexpected argument {:?}", positional(arg)?)),
        }
    }
    if opts.journal.is_empty() {
        return Err("--journal DIR is required".to_string());
    }
    Ok(opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(|a| a.to_string())
    }

    #[test]
    fn defaults_and_full_invocation() {
        let o = parse(args("--journal /tmp/j")).expect("minimal invocation parses");
        assert_eq!(o.scale, Scale::Standard);
        assert_eq!(o.seed, 2022);
        assert_eq!(o.addr, "127.0.0.1:7878");
        assert_eq!(o.serve.workers, ServeOptions::default().workers);

        let o = parse(args(
            "--quick --seed 7 --faults --journal /tmp/j --addr 0.0.0.0:9000 \
             --workers 8 --poll-ms 50 --io-timeout-ms 500 --max-inflight 16 \
             --drain-secs 3",
        ))
        .expect("full invocation parses");
        assert_eq!(o.scale, Scale::Quick);
        assert_eq!(o.seed, 7);
        assert!(o.faults);
        assert_eq!(o.addr, "0.0.0.0:9000");
        assert_eq!(
            (
                o.serve.workers,
                o.serve.poll_ms,
                o.serve.io_timeout_ms,
                o.serve.max_inflight,
                o.serve.drain_secs
            ),
            (8, 50, 500, 16, 3)
        );
    }

    #[test]
    fn scale_flags_are_exempt_from_duplicate_rejection() {
        let o = parse(args("--quick --standard --journal /tmp/j")).expect("last scale wins");
        assert_eq!(o.scale, Scale::Standard);
    }

    #[test]
    fn bad_invocations_are_rejected() {
        for bad in [
            "",
            "--seed 1",
            "--journal /tmp/j --seed 1 --seed 2",
            "--journal /tmp/j --seed",
            "--journal /tmp/j --workers 0",
            "--journal /tmp/j --max-inflight 0",
            "--journal /tmp/j --portfolio",
            "--journal /tmp/j stray",
        ] {
            assert!(parse(args(bad)).is_err(), "accepted {bad:?}");
        }
    }
}
