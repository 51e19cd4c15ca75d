//! `wheels-stress` command-line parsing.
//!
//! Two invocation shapes, one binary:
//!
//! ```text
//! wheels-stress --dir DIR [--mini|--quick] [--seed N] [--faults]
//!               [--stress-seed N] [--cycles N] [--duration-s N]
//!               [--clients N] [--report PATH] [--child-exe PATH]
//!
//! wheels-stress child --dir DIR [--mini|--quick] [--seed N] [--faults]
//!               [--resume] [--threads N]
//!               --out PATH
//! ```
//!
//! The first is the supervisor (the soak harness proper); the second is
//! the campaign child it spawns and kills. Both share the campaign
//! profile flags so the supervisor can forward its configuration
//! verbatim. Parsing follows the same discipline as the other CLIs:
//! each flag at most once, unknown dashed flags rejected.

use std::path::PathBuf;

use wheels_core::campaign::CampaignConfig;
use wheels_core::disrupt::FaultConfig;
use wheels_experiments::world::Scale;
use wheels_serve::options::{parse_num, reject_duplicate};

/// Which campaign the soak exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// The 9-shard mini campaign the crash/serve test matrix uses:
    /// seconds per full pass, the CI soak default.
    Mini,
    /// The quick-world campaign — a heavier soak for local runs.
    Quick,
}

impl Profile {
    /// The campaign configuration this profile names.
    pub fn config(self, seed: u64, faults: bool) -> CampaignConfig {
        let faults = if faults {
            FaultConfig::demo()
        } else {
            FaultConfig::default()
        };
        match self {
            Profile::Mini => CampaignConfig {
                seed,
                max_cycles: Some(3),
                include_apps: false,
                include_static: false,
                cycle_stride_s: 40_000,
                shard_cycles: Some(1),
                faults,
                ..CampaignConfig::default()
            },
            Profile::Quick => CampaignConfig {
                seed,
                faults,
                ..Scale::Quick.config()
            },
        }
    }

    /// The flag spelling, for forwarding to a child invocation.
    pub fn flag(self) -> &'static str {
        match self {
            Profile::Mini => "--mini",
            Profile::Quick => "--quick",
        }
    }
}

/// Supervisor invocation: the soak harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StressOptions {
    /// Working directory (`--dir`, required): the checkpoint journal,
    /// child outputs, and the report live under it.
    pub dir: PathBuf,
    /// Campaign profile (`--mini` default, or `--quick`).
    pub profile: Profile,
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
    /// Path of the `wheels-stress` executable to spawn as the campaign
    /// child (`--child-exe`, default: discovered from the current
    /// executable).
    pub child_exe: Option<PathBuf>,
}

/// Child invocation: one supervised campaign run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChildOptions {
    /// Checkpoint directory (`--dir`, required).
    pub dir: PathBuf,
    /// Campaign profile — must match the supervisor's.
    pub profile: Profile,
    /// Campaign seed.
    pub seed: u64,
    /// Demo disruption mix on.
    pub faults: bool,
    /// Resume the existing journal instead of creating a fresh one.
    pub resume: bool,
    /// Worker threads (`--threads`, default: one per core).
    pub threads: Option<usize>,
    /// Where to write the final dataset JSON (`--out`, required).
    pub out: PathBuf,
}

/// A parsed `wheels-stress` invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Invocation {
    /// Run the soak harness.
    Supervise(StressOptions),
    /// Run one supervised campaign (spawned by the harness).
    Child(ChildOptions),
}

/// Parse `argv` (without the program name).
pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Invocation, String> {
    let mut it = argv.into_iter().peekable();
    if it.peek().map(String::as_str) == Some("child") {
        it.next();
        return parse_child(it).map(Invocation::Child);
    }
    parse_supervise(it).map(Invocation::Supervise)
}

fn parse_supervise(argv: impl IntoIterator<Item = String>) -> Result<StressOptions, String> {
    let mut opts = StressOptions {
        dir: PathBuf::new(),
        profile: Profile::Mini,
        seed: 42,
        faults: false,
        stress_seed: 1,
        cycles: 2,
        duration_s: None,
        clients: 2,
        report: None,
        child_exe: None,
    };
    let mut seen: Vec<String> = Vec::new();
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--mini" => opts.profile = Profile::Mini,
            "--quick" => opts.profile = Profile::Quick,
            "--faults" => {
                reject_duplicate(&arg, &mut seen)?;
                opts.faults = true;
            }
            "--dir" => {
                reject_duplicate(&arg, &mut seen)?;
                opts.dir = PathBuf::from(it.next().ok_or("--dir needs a directory")?);
            }
            "--seed" => {
                reject_duplicate(&arg, &mut seen)?;
                opts.seed = parse_num(&arg, it.next())?;
            }
            "--stress-seed" => {
                reject_duplicate(&arg, &mut seen)?;
                opts.stress_seed = parse_num(&arg, it.next())?;
            }
            "--cycles" => {
                reject_duplicate(&arg, &mut seen)?;
                opts.cycles = parse_num(&arg, it.next())?;
            }
            "--duration-s" => {
                reject_duplicate(&arg, &mut seen)?;
                opts.duration_s = Some(parse_num(&arg, it.next())?);
            }
            "--clients" => {
                reject_duplicate(&arg, &mut seen)?;
                opts.clients = parse_num(&arg, it.next())?;
            }
            "--report" => {
                reject_duplicate(&arg, &mut seen)?;
                opts.report = Some(PathBuf::from(it.next().ok_or("--report needs a path")?));
            }
            "--child-exe" => {
                reject_duplicate(&arg, &mut seen)?;
                opts.child_exe = Some(PathBuf::from(it.next().ok_or("--child-exe needs a path")?));
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag {other} (see wheels-stress docs)"));
            }
            other => return Err(format!("unexpected argument {other:?}")),
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

fn parse_child(argv: impl IntoIterator<Item = String>) -> Result<ChildOptions, String> {
    let mut opts = ChildOptions {
        dir: PathBuf::new(),
        profile: Profile::Mini,
        seed: 42,
        faults: false,
        resume: false,
        threads: None,
        out: PathBuf::new(),
    };
    let mut seen: Vec<String> = Vec::new();
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--mini" => opts.profile = Profile::Mini,
            "--quick" => opts.profile = Profile::Quick,
            "--faults" => {
                reject_duplicate(&arg, &mut seen)?;
                opts.faults = true;
            }
            "--resume" => {
                reject_duplicate(&arg, &mut seen)?;
                opts.resume = true;
            }
            "--dir" => {
                reject_duplicate(&arg, &mut seen)?;
                opts.dir = PathBuf::from(it.next().ok_or("--dir needs a directory")?);
            }
            "--seed" => {
                reject_duplicate(&arg, &mut seen)?;
                opts.seed = parse_num(&arg, it.next())?;
            }
            "--threads" => {
                reject_duplicate(&arg, &mut seen)?;
                opts.threads = Some(parse_num(&arg, it.next())?);
            }
            "--out" => {
                reject_duplicate(&arg, &mut seen)?;
                opts.out = PathBuf::from(it.next().ok_or("--out needs a path")?);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown child flag {other}"));
            }
            other => return Err(format!("unexpected child argument {other:?}")),
        }
    }
    if opts.dir.as_os_str().is_empty() {
        return Err("child: --dir DIR is required".to_string());
    }
    if opts.out.as_os_str().is_empty() {
        return Err("child: --out PATH is required".to_string());
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
        let Invocation::Supervise(o) = parse(args("--dir /tmp/s")).expect("minimal parses") else {
            unreachable!("no leading `child` argument")
        };
        assert_eq!(o.profile, Profile::Mini);
        assert_eq!((o.seed, o.stress_seed, o.cycles, o.clients), (42, 1, 2, 2));

        let Invocation::Supervise(o) = parse(args(
            "--quick --dir /tmp/s --seed 7 --faults --stress-seed 9 \
             --cycles 4 --duration-s 30 --clients 3 --report /tmp/r.json \
             --child-exe /bin/true",
        ))
        .expect("full parses") else {
            unreachable!("no leading `child` argument")
        };
        assert_eq!(o.profile, Profile::Quick);
        assert!(o.faults);
        assert_eq!((o.seed, o.stress_seed, o.cycles), (7, 9, 4));
        assert_eq!(o.duration_s, Some(30));
        assert_eq!(
            o.report.as_deref(),
            Some(std::path::Path::new("/tmp/r.json"))
        );
    }

    #[test]
    fn child_invocation_parses() {
        let Invocation::Child(c) = parse(args(
            "child --dir /tmp/s --resume --threads 4 \
             --out /tmp/ds.json",
        ))
        .expect("child parses") else {
            unreachable!("leading `child` argument selects the child parser")
        };
        assert!(c.resume);
        assert_eq!(c.threads, Some(4));
        // The reorder window is gone: a supervisor or script still
        // passing it gets an error, not a silently ignored flag.
        let e = parse(args(
            "child --dir /tmp/s --merge-window 4 --out /tmp/ds.json",
        ))
        .expect_err("removed flag is rejected");
        assert_eq!(e, "unknown child flag --merge-window");
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
            "child --dir /tmp/s",
            "child --out /tmp/ds.json",
        ] {
            assert!(parse(args(bad)).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn profiles_pin_their_campaign_shape() {
        let mini = Profile::Mini.config(42, false);
        assert_eq!(mini.max_cycles, Some(3));
        assert_eq!(mini.shard_cycles, Some(1));
        assert!(!mini.faults.enabled);
        let demo = Profile::Mini.config(42, true);
        assert!(demo.faults.enabled);
    }
}
