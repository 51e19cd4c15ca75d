//! The supervisor: reference run, serve-under-load, kill/resume cycles,
//! final verification, verdict.
//!
//! Sequence of one soak:
//!
//! 1. Run the campaign **undisturbed, in-process**, checkpointed, to pin
//!    the reference serialization every later byte-identity check
//!    compares against; its journal gives the header end and the
//!    complete length the kill offsets are drawn between.
//! 2. Start a `wheels-serve` instance (in-process, real TCP) tailing
//!    the soak's checkpoint directory — before the journal even exists,
//!    so the wait-for-writer path is part of every soak.
//! 3. Start the seeded query load against it.
//! 4. For each scheduled cycle: spawn a campaign child whose file-size
//!    limit (`RLIMIT_FSIZE`) is the planned journal byte, so the kernel
//!    kills it with SIGXFSZ exactly there, usually mid-frame; check the
//!    journal is exactly that long, then verify at the quiesce point —
//!    prefix replays, the tailer catches up to the intact prefix end,
//!    and served answers equal the offline replay byte for byte.
//! 5. Spawn one final child and let it finish; its dataset must be
//!    byte-identical to the reference, and its audit ledger must
//!    conserve samples.
//! 6. Fold every metric source into the report; the exit code is the
//!    verdict.
//!
//! The harness never truncates or rewrites the journal itself — only
//! the child's own crash-recovery path does — so the server's view and
//! the journal's contents evolve exactly as they would in production.

use std::io::Read;
use std::os::unix::process::{CommandExt, ExitStatusExt};
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use serde::Value;
use wheels_core::analysis::view::DatasetView;
use wheels_core::checkpoint::{self, Fingerprint, Journal};
use wheels_core::records::{AuditTally, Dataset};
use wheels_experiments::cli;
use wheels_experiments::world::{Scale, Tuning, World};
use wheels_serve::server::{self, JournalSpec, ServeOptions};

use crate::options::StressOptions;
use crate::report::{CycleOutcome, Report};
use crate::scenario::Schedule;
use crate::{load, verify};

/// Give any single child this long before declaring the soak wedged.
const CHILD_TIMEOUT: Duration = Duration::from_secs(600);
/// How long the live tailer gets to catch up to a static journal.
const CATCH_UP: Duration = Duration::from_secs(120);
/// The signal a process gets for writing past its `RLIMIT_FSIZE`.
const SIGXFSZ: i32 = 25;

/// Run one soak end to end. `Err` is a harness error (exit code 2);
/// invariant violations land in the returned [`Report`] instead.
pub fn run(opts: &StressOptions) -> Result<Report, String> {
    let t0 = Instant::now();
    let child_exe = opts
        .child_exe
        .clone()
        .or_else(crate::default_child_exe)
        .ok_or("cannot locate the wheels-stress executable; pass --child-exe")?;
    let ckpt = opts.dir.join("ckpt");
    let reference_dir = opts.dir.join("reference");
    let _ = std::fs::remove_dir_all(&ckpt);
    let _ = std::fs::remove_dir_all(&reference_dir);
    std::fs::create_dir_all(&opts.dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.dir.display()))?;

    let faults = cli::fault_mix(true);
    let fp = World::fingerprint_for(Scale::Quick, opts.seed, faults);
    let jobs = fp.jobs;
    println!(
        "soak: {} jobs, {} cycles planned, seed {}, stress-seed {}",
        jobs, opts.cycles, opts.seed, opts.stress_seed
    );

    // 1. The undisturbed reference: every identity check compares
    // against these bytes, and its journal bounds the kill offsets.
    let reference = World::build_checkpointed(
        Scale::Quick,
        opts.seed,
        Tuning::default(),
        faults,
        &reference_dir,
        false,
    )
    .map_err(|e| format!("reference run failed: {e}"))?
    .into_dataset();
    let ends = checkpoint::frame_ends(&reference_dir)
        .map_err(|e| format!("cannot read the reference journal: {e}"))?;
    let (Some(&header_end), Some(&final_len)) = (ends.first(), ends.last()) else {
        return Err("the reference journal has no header".to_string());
    };
    let schedule = Schedule::new(opts.stress_seed, opts.cycles, header_end, final_len)?;
    let reference_json = serde_json::to_string(&reference)
        .map_err(|e| format!("cannot serialize reference dataset: {e}"))?;
    let ledger = AuditTally::of(&reference.audits);
    let retry_rate = if ledger.attempted == 0 {
        0.0
    } else {
        ledger.retried as f64 / ledger.attempted as f64
    };

    // 2. The server, attached before the journal exists.
    let base = World::from_view(
        Scale::Quick,
        opts.seed,
        DatasetView::new(Dataset::default()),
    );
    let handle = server::start(
        base,
        JournalSpec {
            dir: ckpt.clone(),
            fingerprint: fp.clone(),
        },
        "127.0.0.1:0",
        ServeOptions {
            workers: 2,
            poll_ms: 2,
            io_timeout_ms: 30_000,
            max_inflight: 32,
            drain_secs: 5,
        },
    )
    .map_err(|e| format!("cannot start serve instance: {e}"))?;

    // 3. The query load.
    let loadgen = load::start(handle.addr(), opts.stress_seed);

    let mut cycles: Vec<CycleOutcome> = Vec::new();
    let mut failures: Vec<String> = Vec::new();

    // 4. Kill/resume cycles.
    for (cycle, plan) in (0..).zip(&schedule.cycles) {
        let frames_at_start = verify::shard_frames(&ckpt);
        let run0 = Instant::now();
        let out = opts.dir.join(format!("cycle{cycle}.json"));
        let mut cmd = child_command(&child_exe, opts.seed, &ckpt, plan.threads, &out);
        limit_file_size(&mut cmd, plan.kill_at_byte);
        let mut child = cmd
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", child_exe.display()))?;
        let status = wait_with_timeout(&mut child, CHILD_TIMEOUT);
        let mut stderr = String::new();
        if let Some(mut pipe) = child.stderr.take() {
            let _ = pipe.read_to_string(&mut stderr);
        }
        if let Err(e) = status.and_then(killed_by_file_limit) {
            failures.push(format!(
                "cycle {cycle}: {e}; child stderr: {}",
                stderr.trim()
            ));
            break;
        }
        let cycle_ms = ms(run0.elapsed());
        let len = std::fs::metadata(Journal::file_path(&ckpt)).map_or(0, |m| m.len());
        if len != plan.kill_at_byte {
            failures.push(format!(
                "cycle {cycle}: the journal is {len} bytes after a kill at byte {}",
                plan.kill_at_byte
            ));
            break;
        }

        // Quiesce-point checks: the journal is static now.
        let verify0 = Instant::now();
        let frames_after = verify::shard_frames(&ckpt);
        let mut replayed_frames = 0;
        let mut intact_end = 0;
        let mut served_checked = 0;
        match verify::replay_prefix(&ckpt, &fp) {
            Err(e) => failures.push(format!("cycle {cycle}: {e}")),
            Ok((view, delivered, end)) => {
                replayed_frames = delivered;
                intact_end = end;
                match verify::await_catch_up(&handle, intact_end, CATCH_UP) {
                    Err(e) => failures.push(format!("cycle {cycle}: {e}")),
                    Ok(()) => {
                        match verify::served_matches_offline(handle.addr(), opts.seed, view) {
                            Err(e) => failures.push(format!("cycle {cycle}: {e}")),
                            Ok(n) => served_checked = n,
                        }
                    }
                }
            }
        }
        let done = CycleOutcome {
            cycle,
            frames_at_start,
            kill_at_byte: plan.kill_at_byte,
            threads: plan.threads,
            frames_after,
            intact_end,
            replayed_frames,
            served_checked,
            cycle_ms,
            verify_ms: ms(verify0.elapsed()),
        };
        println!("{}", done.render());
        cycles.push(done);
    }

    // 5. The final, undisturbed completion run.
    let final_out = opts.dir.join("final.json");
    let replayed = verify::shard_frames(&ckpt);
    let prior_end = verify::intact_end(&ckpt);
    let mut child = child_command(
        &child_exe,
        opts.seed,
        &ckpt,
        schedule.final_threads,
        &final_out,
    )
    .stderr(Stdio::inherit())
    .spawn()
    .map_err(|e| format!("cannot spawn {}: {e}", child_exe.display()))?;
    let mut child_metrics = None;
    match wait_with_timeout(&mut child, CHILD_TIMEOUT) {
        Err(e) => failures.push(format!("final run: {e}")),
        Ok(status) if !status.success() => {
            failures.push(format!("final run exited with {status}"));
        }
        Ok(_) => {
            if let Err(e) = verify::final_matches_reference(&final_out, &reference_json) {
                failures.push(format!("final run: {e}"));
            }
            match std::fs::read_to_string(&final_out)
                .map_err(|e| e.to_string())
                .and_then(|s| serde_json::from_str::<Dataset>(&s).map_err(|e| e.to_string()))
            {
                Err(e) => failures.push(format!("final run: cannot re-parse dataset: {e}")),
                Ok(ds) => {
                    if let Err(e) = verify::ledger_conserves(&ds) {
                        failures.push(format!("final run: {e}"));
                    }
                }
            }
            match campaign_metrics(&ckpt, &fp, replayed, prior_end) {
                Err(e) => failures.push(format!("final run: {e}")),
                Ok((metrics, t)) => {
                    if t.recorded_samples + t.lost_samples != t.planned_samples {
                        failures.push(format!(
                            "final run: appended audit rows violate conservation: \
                             {} recorded + {} lost != {} planned",
                            t.recorded_samples, t.lost_samples, t.planned_samples
                        ));
                    }
                    child_metrics = Some(metrics);
                }
            }
        }
    }
    match verify::replay_prefix(&ckpt, &fp) {
        Err(e) => failures.push(format!("final verify: {e}")),
        Ok((view, delivered, intact_end)) => {
            if delivered != jobs {
                failures.push(format!(
                    "final journal replays {delivered} frames, campaign plans {jobs}"
                ));
            }
            match verify::await_catch_up(&handle, intact_end, CATCH_UP) {
                Err(e) => failures.push(format!("final verify: {e}")),
                Ok(()) => {
                    if let Err(e) = verify::served_matches_offline(handle.addr(), opts.seed, view) {
                        failures.push(format!("final verify: {e}"));
                    }
                }
            }
        }
    }
    let salvage_rate = if child_metrics.is_none() || jobs == 0 {
        0.0
    } else {
        replayed as f64 / jobs as f64
    };

    // 6. Wind down and report.
    let load_report = loadgen.stop();
    let serve_dump = match handle.shutdown() {
        Ok(dump) => serde_json::from_str::<Value>(&dump).ok(),
        Err(e) => {
            failures.push(format!("serve shutdown reported: {e}"));
            None
        }
    };
    let final_frames = verify::shard_frames(&ckpt);
    let elapsed_ms = ms(t0.elapsed());
    let report = Report {
        jobs,
        cycles,
        failures,
        final_frames,
        elapsed_ms,
        // A kill discards at most a torn partial frame and a resume
        // replays intact ones instead of rewriting them, so the frames
        // on disk at the end are exactly the frames written all soak.
        shards_per_s: if elapsed_ms == 0 {
            0.0
        } else {
            final_frames as f64 * 1000.0 / elapsed_ms as f64
        },
        salvage_rate,
        retry_rate,
        load: load_report,
        child_metrics,
        serve_dump,
    };
    Ok(report)
}

/// The final child's campaign counters, derived from the journal it
/// extended: before it ran, the journal held `replayed` intact shard
/// frames ending at byte `prior_end` (`None`: the child created it).
/// Returns the report's `campaign_metrics` object and the tally of the
/// appended frames' audit rows.
fn campaign_metrics(
    ckpt: &Path,
    fp: &Fingerprint,
    replayed: usize,
    prior_end: Option<u64>,
) -> Result<(Value, AuditTally), String> {
    let mut tally = AuditTally::default();
    let mut frame = 0;
    let end = checkpoint::tail(ckpt, fp, |_, rec| {
        if frame >= replayed {
            rec.dataset.audits.iter().for_each(|a| tally.add(a));
        }
        frame += 1;
        Ok(())
    })
    .map_err(|e| format!("cannot walk the final journal: {e}"))?;
    let start = match prior_end {
        Some(end) => end,
        None => checkpoint::frame_ends(ckpt)
            .ok()
            .and_then(|ends| ends.first().copied())
            .ok_or("the final journal has no header")?,
    };
    let appended = end.delivered().saturating_sub(replayed) as u64;
    let fields = [
        ("shards_completed", appended),
        ("shards_replayed", replayed as u64),
        ("tests_completed", tally.completed),
        ("tests_partial", tally.partial),
        ("tests_lost", tally.lost),
        ("tests_retried", tally.retried),
        ("samples_planned", tally.planned_samples),
        ("samples_recorded", tally.recorded_samples),
        ("samples_lost", tally.lost_samples),
        ("frames_appended", appended),
        ("bytes_appended", end.next_offset.saturating_sub(start)),
    ];
    let metrics = fields
        .into_iter()
        .map(|(k, v)| (k.to_string(), Value::U64(v)))
        .collect();
    Ok((Value::Object(metrics), tally))
}

/// One campaign child: the quick `dataset` export with the demo
/// disruption mix, journalling to `ckpt` (resuming it if a journal is
/// there) and writing the dataset JSON to `out`. The caller sets stderr.
fn child_command(exe: &Path, seed: u64, ckpt: &Path, threads: usize, out: &Path) -> Command {
    let resume = Journal::file_path(ckpt).exists();
    let mut cmd = Command::new(exe);
    cmd.args(["child", "--quick", "--faults", "--seed", &seed.to_string()])
        .args(["--threads", &threads.to_string()])
        .arg(if resume { "--resume" } else { "--checkpoint" })
        .arg(ckpt)
        .arg(out)
        .stdout(Stdio::null());
    cmd
}

/// Cap every file the child writes at `bytes` (`RLIMIT_FSIZE`), so the
/// kernel kills it with SIGXFSZ once its journal reaches that length,
/// and turn off its core dump (`RLIMIT_CORE`). Both limits are set
/// between fork and exec, which std cannot express: hence the only
/// unsafe block in the crate. A failed `setrlimit` fails the spawn.
#[allow(unsafe_code)]
fn limit_file_size(cmd: &mut Command, bytes: u64) {
    /// `struct rlimit`; `rlim_t` is 64 bits on Linux.
    #[repr(C)]
    struct Rlimit {
        cur: u64,
        max: u64,
    }
    extern "C" {
        fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    }
    const RLIMIT_FSIZE: i32 = 1;
    const RLIMIT_CORE: i32 = 4;
    let set = move || {
        for (resource, cur) in [(RLIMIT_FSIZE, bytes), (RLIMIT_CORE, 0)] {
            let lim = Rlimit { cur, max: cur };
            // SAFETY: `setrlimit` only reads the struct, and it is
            // async-signal-safe, as `pre_exec` requires.
            if unsafe { setrlimit(resource, &lim) } != 0 {
                return Err(std::io::Error::last_os_error());
            }
        }
        Ok(())
    };
    // SAFETY: the closure allocates nothing and takes no lock.
    unsafe {
        cmd.pre_exec(set);
    }
}

/// A kill-cycle child must die of SIGXFSZ: any other end, a clean exit
/// included, means the kill did not land where it was scheduled.
fn killed_by_file_limit(status: ExitStatus) -> Result<(), String> {
    if status.signal() == Some(SIGXFSZ) {
        Ok(())
    } else {
        Err(format!("child ended with {status}, not by SIGXFSZ"))
    }
}

/// Wait for a child with a deadline: a wedged child must not hang the
/// soak forever.
fn wait_with_timeout(child: &mut Child, timeout: Duration) -> Result<ExitStatus, String> {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(status) = child.try_wait().map_err(|e| format!("wait: {e}"))? {
            return Ok(status);
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("child exceeded {timeout:?}"));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn ms(d: Duration) -> u64 {
    u64::try_from(d.as_millis()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_sigxfsz_counts_as_a_kill() {
        // Raw wait statuses: a signal number in the low bits, an exit
        // code in the second byte.
        assert_eq!(killed_by_file_limit(ExitStatus::from_raw(SIGXFSZ)), Ok(()));
        for (raw, what) in [(9, "SIGKILL"), (1 << 8, "exit 1"), (0, "exit 0")] {
            assert!(
                killed_by_file_limit(ExitStatus::from_raw(raw)).is_err(),
                "{what} counted as a kill"
            );
        }
    }
}
