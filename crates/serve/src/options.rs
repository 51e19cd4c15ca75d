//! `wheels-serve` command-line parsing.
//!
//! ```text
//! wheels-serve --journal DIR [--quick|--standard|--full] [--seed N]
//!              [--faults] [--addr HOST:PORT] [--workers N]
//!              [--poll-ms N] [--io-timeout-ms N] [--max-inflight N]
//!              [--drain-secs N]
//! ```
//!
//! Follows the same parsing discipline as the `repro`/`dataset` CLI:
//! each flag at most once (a silently-dropped duplicate on a
//! long-running service is worse than an error), the scale flags are
//! three spellings of one setting, and unknown dashed flags are
//! rejected.

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

/// Parse the value following `flag`; shared with the `wheels-stress`
/// parser so every CLI words its errors alike.
pub fn parse_num<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<T, String> {
    let raw = v.ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse()
        .map_err(|_| format!("{flag} needs a number, got {raw:?}"))
}

/// Record `flag` as given, refusing a second occurrence.
pub fn reject_duplicate(flag: &str, seen: &mut Vec<String>) -> Result<(), String> {
    if seen.iter().any(|s| s == flag) {
        return Err(format!("{flag} given more than once"));
    }
    seen.push(flag.to_string());
    Ok(())
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
    let mut seen: Vec<String> = Vec::new();
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => opts.scale = Scale::Quick,
            "--standard" => opts.scale = Scale::Standard,
            "--full" => opts.scale = Scale::Full,
            "--faults" => {
                reject_duplicate(&arg, &mut seen)?;
                opts.faults = true;
            }
            "--seed" => {
                reject_duplicate(&arg, &mut seen)?;
                opts.seed = parse_num(&arg, it.next())?;
            }
            "--journal" => {
                reject_duplicate(&arg, &mut seen)?;
                opts.journal = it.next().ok_or("--journal needs a directory")?;
            }
            "--addr" => {
                reject_duplicate(&arg, &mut seen)?;
                opts.addr = it.next().ok_or("--addr needs HOST:PORT")?;
            }
            "--workers" => {
                reject_duplicate(&arg, &mut seen)?;
                opts.serve.workers = parse_num(&arg, it.next())?;
                if opts.serve.workers == 0 {
                    return Err("--workers must be at least 1".to_string());
                }
            }
            "--poll-ms" => {
                reject_duplicate(&arg, &mut seen)?;
                opts.serve.poll_ms = parse_num(&arg, it.next())?;
            }
            "--io-timeout-ms" => {
                reject_duplicate(&arg, &mut seen)?;
                opts.serve.io_timeout_ms = parse_num(&arg, it.next())?;
            }
            "--max-inflight" => {
                reject_duplicate(&arg, &mut seen)?;
                opts.serve.max_inflight = parse_num(&arg, it.next())?;
                if opts.serve.max_inflight == 0 {
                    return Err("--max-inflight must be at least 1".to_string());
                }
            }
            "--drain-secs" => {
                reject_duplicate(&arg, &mut seen)?;
                opts.serve.drain_secs = parse_num(&arg, it.next())?;
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag {other} (see wheels-serve docs)"));
            }
            other => {
                return Err(format!("unexpected argument {other:?}"));
            }
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
