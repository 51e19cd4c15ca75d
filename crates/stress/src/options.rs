//! `wheels-stress` command-line parsing.
//!
//! ```text
//! wheels-stress --dir DIR [--seed N] [--faults] [--stress-seed N]
//!               [--cycles N] [--duration-s N] [--clients N]
//!               [--report PATH] [--child-exe PATH]
//!
//! wheels-stress child DATASET-ARGS
//! ```
//!
//! The first is the supervisor (the soak harness proper), parsed here on
//! the workspace's one flag walker ([`wheels_experiments::cli::Flags`]):
//! each flag at most once, unknown flags refused. The second is the
//! campaign child the supervisor spawns and kills: the `dataset` export
//! itself ([`wheels_experiments::cli::dataset`]), so its arguments are
//! `dataset`'s. The soak always runs the quick world.

use std::path::PathBuf;

use wheels_experiments::cli::{positional, Flags};

/// Supervisor invocation: the soak harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StressOptions {
    /// Working directory (`--dir`, required): the checkpoint journal,
    /// child outputs, and the report live under it.
    pub dir: PathBuf,
    /// Campaign seed (`--seed`, default 42).
    pub seed: u64,
    /// Demo disruption mix on (`--faults`).
    pub faults: bool,
    /// Chaos-schedule seed (`--stress-seed`, default 1): kill points,
    /// resume thread counts, and the query mix all derive from it, so a
    /// soak run is reproducible end to end.
    pub stress_seed: u64,
    /// Kill/resume cycles to run (`--cycles`, default 2).
    pub cycles: u32,
    /// Optional wall-clock budget in seconds (`--duration-s`): no new
    /// cycle starts after it elapses (the final verification still
    /// runs).
    pub duration_s: Option<u64>,
    /// Concurrent query-load clients (`--clients`, default 2).
    pub clients: usize,
    /// Where to write the final JSON report (`--report`, default
    /// `DIR/report.json`).
    pub report: Option<PathBuf>,
    /// The binary whose `child` subcommand runs the `dataset` export as
    /// the campaign child (`--child-exe`, default: discovered from the
    /// current executable).
    pub child_exe: Option<PathBuf>,
}

/// Parse the supervisor's `argv` (without the program name).
pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<StressOptions, String> {
    let mut opts = StressOptions {
        dir: PathBuf::new(),
        seed: 42,
        faults: false,
        stress_seed: 1,
        cycles: 2,
        duration_s: None,
        clients: 2,
        report: None,
        child_exe: None,
    };
    let mut flags = Flags::new(argv.into_iter());
    while let Some(arg) = flags.next_arg()? {
        match arg.as_str() {
            "--faults" => opts.faults = true,
            "--dir" => opts.dir = flags.value(&arg, "a directory")?.into(),
            "--seed" => opts.seed = flags.parse(&arg, "an integer")?,
            "--stress-seed" => opts.stress_seed = flags.parse(&arg, "an integer")?,
            "--cycles" => opts.cycles = flags.parse(&arg, "an integer")?,
            "--duration-s" => opts.duration_s = Some(flags.parse(&arg, "an integer")?),
            "--clients" => opts.clients = flags.parse(&arg, "an integer")?,
            "--report" => opts.report = Some(flags.value(&arg, "a path")?.into()),
            "--child-exe" => opts.child_exe = Some(flags.value(&arg, "a path")?.into()),
            _ => return Err(format!("unexpected argument {:?}", positional(arg)?)),
        }
    }
    if opts.dir.as_os_str().is_empty() {
        return Err("--dir DIR is required".to_string());
    }
    if opts.cycles == 0 && opts.duration_s.is_none() {
        return Err("--cycles 0 needs a --duration-s budget".to_string());
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
    fn supervisor_defaults_and_full_invocation() {
        let o = parse(args("--dir /tmp/s")).expect("minimal parses");
        assert!(!o.faults);
        assert_eq!((o.seed, o.stress_seed, o.cycles, o.clients), (42, 1, 2, 2));

        let o = parse(args(
            "--dir /tmp/s --seed 7 --faults --stress-seed 9 \
             --cycles 4 --duration-s 30 --clients 3 --report /tmp/r.json \
             --child-exe /bin/true",
        ))
        .expect("full parses");
        assert!(o.faults);
        assert_eq!((o.seed, o.stress_seed, o.cycles), (7, 9, 4));
        assert_eq!(o.duration_s, Some(30));
        assert_eq!(
            o.report.as_deref(),
            Some(std::path::Path::new("/tmp/r.json"))
        );
    }

    #[test]
    fn bad_invocations_are_rejected() {
        for bad in [
            "",
            "--cycles 2",
            "--dir /tmp/s --cycles 0",
            "--dir /tmp/s --seed",
            "--dir /tmp/s --seed 1 --seed 2",
            "--dir /tmp/s --portfolio",
            "--dir /tmp/s stray",
            // The soak's campaign is always the quick world.
            "--dir /tmp/s --mini",
            "--dir /tmp/s --quick",
        ] {
            assert!(parse(args(bad)).is_err(), "accepted {bad:?}");
        }
    }
}
