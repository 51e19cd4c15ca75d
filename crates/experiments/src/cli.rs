//! Shared, fallible command-line parsing and world building for the
//! `repro` and `dataset` binaries.
//!
//! Parsing returns `Result` instead of exiting, so bad/missing flag
//! values are unit-testable; the binaries map `Err` to an exit code.

use std::path::Path;

use wheels_core::checkpoint::CheckpointError;
use wheels_core::disrupt::FaultConfig;

use crate::world::{Scale, Tuning, World};

/// Dataset export format (`--format json|bin`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Format {
    /// The pinned JSON interchange format (default; byte-stable schema).
    #[default]
    Json,
    /// The WCD1 columnar binary format (fast cache/transport layer).
    Bin,
}

/// Parsed common arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Campaign scale (`--quick` / `--standard` / `--full`).
    pub scale: Scale,
    /// Campaign seed (`--seed N`, default 2022).
    pub seed: u64,
    /// Worker-pool cap (`--threads N`, default = host cores). Never
    /// changes any output, only wall time.
    pub threads: Option<usize>,
    /// Enable the demo disruption mix (`--faults`): injected server
    /// outages, app crashes, logger gaps and clock-drift bursts, with
    /// retry/salvage accounting in the quality report.
    pub faults: bool,
    /// Checkpoint directory for a fresh crash-safe run
    /// (`--checkpoint DIR`): each completed campaign shard is journalled
    /// there, so a killed run can be resumed.
    pub checkpoint: Option<String>,
    /// Checkpoint directory to resume from (`--resume DIR`): replays the
    /// journalled shards, re-simulates only the missing ones, and keeps
    /// journalling to the same directory.
    pub resume: Option<String>,
    /// Dataset export format (`--format json|bin`, default json).
    pub format: Format,
    /// Dataset file to analyse instead of simulating (`--load FILE`):
    /// auto-detects WCD1 binary (loaded without a parse step) vs JSON.
    pub load: Option<String>,
    /// Positional arguments (experiment ids for `repro`, the output path
    /// for `dataset`).
    pub rest: Vec<String>,
}

/// Parse the flags shared by the binaries. `default_scale` differs per
/// binary (`repro` defaults to Standard, `dataset` to Quick).
///
/// Each flag may appear at most once: `--seed 1 --seed 2` is rejected
/// rather than resolved last-one-wins, because a silently-dropped value
/// in a long campaign invocation is exactly the kind of mistake that
/// costs a day of compute. The scale flags are exempt — `--quick`,
/// `--standard` and `--full` are three spellings of *one* setting, and
/// overriding a script's default scale by appending a flag is idiomatic.
pub fn parse_args(
    default_scale: Scale,
    argv: impl IntoIterator<Item = String>,
) -> Result<Args, String> {
    let mut args = Args {
        scale: default_scale,
        seed: 2022,
        threads: None,
        faults: false,
        checkpoint: None,
        resume: None,
        format: Format::Json,
        load: None,
        rest: Vec::new(),
    };
    let mut seen: Vec<String> = Vec::new();
    let mut iter = argv.into_iter();
    while let Some(a) = iter.next() {
        // Duplicate detection applies to every flag except the scale
        // family (one logical setting, last one wins by design).
        if a.starts_with("--") && !matches!(a.as_str(), "--quick" | "--standard" | "--full") {
            if seen.contains(&a) {
                return Err(format!("duplicate flag {a}"));
            }
            seen.push(a.clone());
        }
        match a.as_str() {
            "--quick" => args.scale = Scale::Quick,
            "--standard" => args.scale = Scale::Standard,
            "--full" => args.scale = Scale::Full,
            "--seed" => {
                let v = iter.next().ok_or("--seed needs an integer")?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed needs an integer, got {v:?}"))?;
            }
            "--threads" => {
                let v = iter.next().ok_or("--threads needs a positive integer")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--threads needs a positive integer, got {v:?}"))?;
                if n == 0 {
                    return Err("--threads needs a positive integer, got 0".to_string());
                }
                args.threads = Some(n);
            }
            "--faults" => args.faults = true,
            "--checkpoint" => {
                let v = iter.next().ok_or("--checkpoint needs a directory path")?;
                args.checkpoint = Some(v);
            }
            "--resume" => {
                let v = iter.next().ok_or("--resume needs a directory path")?;
                args.resume = Some(v);
            }
            "--format" => {
                let v = iter.next().ok_or("--format needs json or bin")?;
                args.format = match v.as_str() {
                    "json" => Format::Json,
                    "bin" => Format::Bin,
                    other => return Err(format!("--format needs json or bin, got {other:?}")),
                };
            }
            "--load" => {
                let v = iter.next().ok_or("--load needs a dataset file path")?;
                args.load = Some(v);
            }
            // Reject unknown flags instead of letting them fall through
            // to `rest`: a typo like `--thread 4` or `-q` would otherwise
            // silently become a positional arg (an experiment id / output
            // path) and the user's intent would be dropped. A bare `-`
            // stays positional by convention.
            other if other.starts_with('-') && other.len() > 1 => {
                return Err(format!("unknown flag {other}"));
            }
            other => args.rest.push(other.to_string()),
        }
    }
    if args.checkpoint.is_some() && args.resume.is_some() {
        return Err(
            "--checkpoint and --resume are mutually exclusive: --checkpoint starts a fresh \
             journal, --resume continues one"
                .to_string(),
        );
    }
    if args.load.is_some() && (args.checkpoint.is_some() || args.resume.is_some() || args.faults) {
        return Err(
            "--load analyses an existing dataset file; it cannot be combined with the \
             simulation flags --checkpoint/--resume/--faults"
                .to_string(),
        );
    }
    Ok(args)
}

/// Build the world the simulation flags ask for: a plain run, a fresh
/// journal under `--checkpoint DIR`, or a replay of `--resume DIR` (the
/// two are exclusive, see [`parse_args`]), with the demo disruption mix
/// under `--faults`. `--load` is `repro`'s own path: it simulates
/// nothing.
pub fn build_world(args: &Args) -> Result<World, CheckpointError> {
    let faults = if args.faults {
        FaultConfig::demo()
    } else {
        FaultConfig::default()
    };
    let tuning = Tuning {
        threads: args.threads,
    };
    match args.checkpoint.as_ref().or(args.resume.as_ref()) {
        Some(dir) => World::build_checkpointed(
            args.scale,
            args.seed,
            tuning,
            faults,
            Path::new(dir),
            args.resume.is_some(),
        ),
        None => Ok(World::build_with_faults(
            args.scale,
            args.seed,
            args.threads,
            faults,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(Scale::Standard, args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.scale, Scale::Standard);
        assert_eq!(a.seed, 2022);
        assert_eq!(a.threads, None);
        assert_eq!(a.checkpoint, None);
        assert_eq!(a.resume, None);
        assert!(a.rest.is_empty());
    }

    #[test]
    fn flags_and_positionals() {
        let a = parse(&["--quick", "--seed", "7", "--threads", "4", "fig3", "fig9"]).unwrap();
        assert_eq!(a.scale, Scale::Quick);
        assert_eq!(a.seed, 7);
        assert_eq!(a.threads, Some(4));
        assert_eq!(a.rest, vec!["fig3".to_string(), "fig9".to_string()]);
    }

    #[test]
    fn last_scale_flag_wins() {
        let a = parse(&["--quick", "--full"]).unwrap();
        assert_eq!(a.scale, Scale::Full);
    }

    #[test]
    fn missing_seed_value_errors() {
        let e = parse(&["--seed"]).unwrap_err();
        assert!(e.contains("--seed needs an integer"), "{e}");
    }

    #[test]
    fn bad_seed_value_errors() {
        let e = parse(&["--seed", "twelve"]).unwrap_err();
        assert!(e.contains("--seed needs an integer"), "{e}");
        assert!(e.contains("twelve"), "{e}");
        // A negative seed is also rejected (u64).
        assert!(parse(&["--seed", "-1"]).is_err());
    }

    #[test]
    fn bad_threads_values_error() {
        assert!(parse(&["--threads"]).is_err());
        assert!(parse(&["--threads", "zero"]).is_err());
        let e = parse(&["--threads", "0"]).unwrap_err();
        assert!(e.contains("positive"), "{e}");
    }

    #[test]
    fn removed_reorder_window_flag_is_rejected() {
        // The reorder window is gone; a script still passing it must get
        // an error, not have the flag (or its value) silently ignored.
        let e = parse(&["--merge-window", "4"]).unwrap_err();
        assert_eq!(e, "unknown flag --merge-window");
    }

    #[test]
    fn unknown_flag_errors() {
        let e = parse(&["--frobnicate"]).unwrap_err();
        assert_eq!(e, "unknown flag --frobnicate");
    }

    #[test]
    fn unknown_single_dash_flag_errors() {
        // Regression: these used to be swallowed into `rest` as if they
        // were experiment ids / output paths.
        let e = parse(&["-q"]).unwrap_err();
        assert_eq!(e, "unknown flag -q");
        assert!(parse(&["-j4"]).is_err());
        // A bare `-` is still a positional argument.
        let a = parse(&["-"]).unwrap();
        assert_eq!(a.rest, vec!["-".to_string()]);
    }

    #[test]
    fn faults_flag() {
        assert!(!parse(&[]).unwrap().faults);
        assert!(parse(&["--faults"]).unwrap().faults);
    }

    #[test]
    fn duplicate_flags_are_rejected() {
        // Regression: `--seed 1 --seed 2` used to resolve last-one-wins,
        // silently dropping the first value.
        let e = parse(&["--seed", "1", "--seed", "2"]).unwrap_err();
        assert_eq!(e, "duplicate flag --seed");
        let e = parse(&["--threads", "2", "--threads", "2"]).unwrap_err();
        assert_eq!(e, "duplicate flag --threads");
        let e = parse(&["--faults", "--faults"]).unwrap_err();
        assert_eq!(e, "duplicate flag --faults");
        // The scale family stays last-one-wins (one logical setting) —
        // including an exact repeat.
        assert_eq!(parse(&["--quick", "--quick"]).unwrap().scale, Scale::Quick);
    }

    #[test]
    fn format_flag() {
        assert_eq!(parse(&[]).unwrap().format, Format::Json);
        assert_eq!(parse(&["--format", "json"]).unwrap().format, Format::Json);
        assert_eq!(parse(&["--format", "bin"]).unwrap().format, Format::Bin);
        let e = parse(&["--format", "csv"]).unwrap_err();
        assert!(e.contains("json or bin"), "{e}");
        assert!(e.contains("csv"), "{e}");
        assert!(parse(&["--format"]).is_err());
        assert_eq!(
            parse(&["--format", "bin", "--format", "json"]).unwrap_err(),
            "duplicate flag --format"
        );
    }

    #[test]
    fn load_flag() {
        let a = parse(&["--load", "ds.wcd", "fig3"]).unwrap();
        assert_eq!(a.load.as_deref(), Some("ds.wcd"));
        assert_eq!(a.rest, vec!["fig3".to_string()]);
        assert!(parse(&["--load"]).is_err());
        // --load replaces simulation; combining with sim-side flags is
        // a contradiction, not a preference.
        for bad in [
            ["--load", "d", "--faults", ""].as_slice(),
            ["--load", "d", "--checkpoint", "c"].as_slice(),
            ["--load", "d", "--resume", "c"].as_slice(),
        ] {
            let argv: Vec<&str> = bad.iter().copied().filter(|s| !s.is_empty()).collect();
            let e = parse(&argv).unwrap_err();
            assert!(e.contains("--load"), "{e}");
        }
    }

    #[test]
    fn checkpoint_and_resume_flags() {
        let a = parse(&["--checkpoint", "ckpt"]).unwrap();
        assert_eq!(a.checkpoint.as_deref(), Some("ckpt"));
        assert_eq!(a.resume, None);
        let a = parse(&["--resume", "ckpt"]).unwrap();
        assert_eq!(a.resume.as_deref(), Some("ckpt"));
        assert!(parse(&["--checkpoint"]).is_err());
        assert!(parse(&["--resume"]).is_err());
        let e = parse(&["--checkpoint", "a", "--resume", "a"]).unwrap_err();
        assert!(e.contains("mutually exclusive"), "{e}");
    }
}
