//! The one command-line front end of the workspace's binaries.
//!
//! [`Flags`] walks an argument list for every parser (`repro` and
//! `dataset` here, `wheels-serve`, the `wheels-stress` supervisor), so
//! they share one policy: each flag at most once, the scale flags are
//! one setting, unknown flags are refused, and a missing or bad value
//! reads `X needs …`. Parsing returns `Result` instead of exiting, so
//! bad/missing flag values are unit-testable; the binaries map `Err` to
//! an exit code. [`dataset`] is the whole `dataset` export, run by its
//! binary and by the soak's campaign child alike.

use std::io::{ErrorKind, Write};
use std::num::NonZeroUsize;
use std::path::Path;
use std::str::FromStr;

use wheels_core::checkpoint::{write_atomic, CheckpointError};
use wheels_core::column::wcd::{self, WcdError};
use wheels_core::disrupt::FaultConfig;
use wheels_core::records::Dataset;

use crate::world::{Scale, Tuning, World};

/// The scale flags: three spellings of one setting, so the last one
/// wins and a repeat is no error.
const SCALE_FLAGS: [&str; 3] = ["--quick", "--standard", "--full"];

/// Walks a command line flag by flag.
///
/// Each flag may appear at most once: `--seed 1 --seed 2` is rejected
/// rather than resolved last-one-wins, because a silently-dropped value
/// in a long campaign invocation (or on a long-running service) is
/// exactly the kind of mistake that costs a day of compute. The scale
/// flags are exempt — `--quick`, `--standard` and `--full` are three
/// spellings of *one* setting, and overriding a script's default scale
/// by appending a flag is idiomatic.
pub struct Flags<I> {
    argv: I,
    seen: Vec<String>,
}

impl<I: Iterator<Item = String>> Flags<I> {
    /// Walk `argv` (without the program name).
    pub fn new(argv: I) -> Self {
        Flags {
            argv,
            seen: Vec::new(),
        }
    }

    /// The next argument, `None` at the end; a flag given before is an
    /// error.
    pub fn next_arg(&mut self) -> Result<Option<String>, String> {
        let Some(arg) = self.argv.next() else {
            return Ok(None);
        };
        if is_flag(&arg) && !SCALE_FLAGS.contains(&arg.as_str()) {
            if self.seen.contains(&arg) {
                return Err(format!("duplicate flag {arg}"));
            }
            self.seen.push(arg.clone());
        }
        Ok(Some(arg))
    }

    /// The value following `flag`; `needs` words what it must be.
    pub fn value(&mut self, flag: &str, needs: &str) -> Result<String, String> {
        self.argv
            .next()
            .ok_or_else(|| format!("{flag} needs {needs}"))
    }

    /// The value following `flag`, parsed.
    pub fn parse<T: FromStr>(&mut self, flag: &str, needs: &str) -> Result<T, String> {
        let v = self.value(flag, needs)?;
        v.parse()
            .map_err(|_| format!("{flag} needs {needs}, got {v:?}"))
    }
}

/// An argument no flag arm matched: a positional one, or an unknown
/// flag. Refusing the flag matters: a typo like `--thread 4` or `-q`
/// would otherwise become a positional argument (an experiment id, an
/// output path) and the user's intent would be dropped.
pub fn positional(arg: String) -> Result<String, String> {
    if is_flag(&arg) {
        return Err(format!("unknown flag {arg}"));
    }
    Ok(arg)
}

/// A dashed argument; a bare `-` stays positional by convention.
fn is_flag(arg: &str) -> bool {
    arg.starts_with('-') && arg.len() > 1
}

/// The disruption mix the `--faults` switch selects: the demo mix, or
/// none.
pub fn fault_mix(faults: bool) -> FaultConfig {
    if faults {
        FaultConfig::demo()
    } else {
        FaultConfig::default()
    }
}

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
    let mut flags = Flags::new(argv.into_iter());
    while let Some(arg) = flags.next_arg()? {
        match arg.as_str() {
            "--quick" => args.scale = Scale::Quick,
            "--standard" => args.scale = Scale::Standard,
            "--full" => args.scale = Scale::Full,
            "--seed" => args.seed = flags.parse(&arg, "an integer")?,
            "--threads" => {
                let n: NonZeroUsize = flags.parse(&arg, "a positive integer")?;
                args.threads = Some(n.get());
            }
            "--faults" => args.faults = true,
            "--checkpoint" => args.checkpoint = Some(flags.value(&arg, "a directory path")?),
            "--resume" => args.resume = Some(flags.value(&arg, "a directory path")?),
            "--format" => {
                args.format = match flags.value(&arg, "json or bin")?.as_str() {
                    "json" => Format::Json,
                    "bin" => Format::Bin,
                    other => return Err(format!("--format needs json or bin, got {other:?}")),
                };
            }
            "--load" => args.load = Some(flags.value(&arg, "a dataset file path")?),
            _ => args.rest.push(positional(arg)?),
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
    let faults = fault_mix(args.faults);
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

/// The `dataset` export: parse `argv` (without the program name; the
/// default scale is Quick), build the world and write the consolidated
/// dataset to the last positional path, or to stdout without one.
/// Returns the process exit code: 0 on success, 1 when the build or the
/// write fails, 2 on a bad command line.
///
/// The `dataset` binary is this function, and so is the chaos soak's
/// campaign child (`wheels-stress child ARGS`): the soak kills and
/// resumes the real export path.
pub fn dataset(argv: impl IntoIterator<Item = String>) -> i32 {
    let args = match parse_args(Scale::Quick, argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    match export(&args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("{e}");
            1
        }
    }
}

fn export(args: &Args) -> Result<(), String> {
    eprintln!(
        "building world at scale {:?} (seed {})...",
        args.scale, args.seed
    );
    let ds = build_world(args).map_err(|e| e.to_string())?.into_dataset();
    eprintln!(
        "serializing {} tput / {} rtt / {} coverage / {} runs / {} handovers / {} app runs",
        ds.tput.len(),
        ds.rtt.len(),
        ds.coverage.len(),
        ds.runs.len(),
        ds.handovers.len(),
        ds.apps.len()
    );
    let json = |ds: &Dataset| serde_json::to_string(ds).expect("dataset serializes");
    match (args.format, args.rest.last()) {
        // File output lands via a temp file + atomic rename, so a crash
        // mid-write never leaves a truncated file at the output path.
        (format, Some(p)) => {
            let path = Path::new(p);
            match format {
                Format::Json => write_atomic(path, json(&ds).as_bytes()),
                Format::Bin => wcd::write_file(path, &ds).map_err(io_error),
            }
            .map_err(|e| format!("cannot write {p}: {e}"))?;
            let written = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
            eprintln!("wrote {p} ({} MB)", written / 1_000_000);
        }
        (format, None) => {
            let mut w = std::io::BufWriter::new(std::io::stdout().lock());
            let streamed = match format {
                Format::Json => w.write_all(json(&ds).as_bytes()),
                // Stream the WCD1 sections straight off the row tables:
                // the full encoded image never exists in memory.
                Format::Bin => wcd::encode_to(&ds, &mut w).map_err(io_error),
            }
            .and_then(|()| w.flush());
            match streamed {
                // `dataset | head` closing stdout early is normal Unix
                // usage: succeed quietly.
                Err(e) if e.kind() == ErrorKind::BrokenPipe => {}
                other => other.map_err(|e| format!("cannot write dataset to stdout: {e}"))?,
            }
        }
    }
    Ok(())
}

/// An encode into a writer fails only when the writer does.
fn io_error(e: WcdError) -> std::io::Error {
    match e {
        WcdError::Io(e) => e,
        other => std::io::Error::other(other),
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
