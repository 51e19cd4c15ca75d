//! The supervisor: reference run, serve-under-load, kill/resume cycles,
//! final verification, verdict.
//!
//! Sequence of one soak:
//!
//! 1. Run the campaign **undisturbed, in-process** to pin the reference
//!    serialization every later byte-identity check compares against.
//! 2. Start a `wheels-serve` instance (in-process, real TCP) tailing
//!    the soak's checkpoint directory — before the journal even exists,
//!    so the wait-for-writer path is part of every soak.
//! 3. Start the seeded query load against it.
//! 4. For each scheduled cycle: spawn a campaign child, SIGKILL it at
//!    the planned journal watermark, then verify at the quiesce point —
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

use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use serde::Value;
use wheels_core::analysis::view::DatasetView;
use wheels_core::campaign::Campaign;
use wheels_core::checkpoint::Journal;
use wheels_core::records::Dataset;
use wheels_experiments::world::{Scale, World};
use wheels_serve::server::{self, JournalSpec, ServeOptions};

use crate::options::StressOptions;
use crate::report::{CycleOutcome, Report};
use crate::scenario::Schedule;
use crate::{load, verify};

/// Give any single child this long before declaring the soak wedged.
const CHILD_TIMEOUT: Duration = Duration::from_secs(600);
/// How long the live tailer gets to catch up to a static journal.
const CATCH_UP: Duration = Duration::from_secs(120);

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
    let _ = std::fs::remove_dir_all(&ckpt);
    std::fs::create_dir_all(&opts.dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.dir.display()))?;

    let cfg = opts.profile.config(opts.seed, opts.faults);
    let campaign = Campaign::standard(opts.seed);
    let fp = campaign.fingerprint(&cfg);
    let jobs = fp.jobs;
    println!(
        "soak: {} jobs, {} cycles planned, seed {}, stress-seed {}",
        jobs, opts.cycles, opts.seed, opts.stress_seed
    );

    // 1. The undisturbed reference: every identity check compares
    // against these bytes.
    let reference = campaign.run(&cfg);
    let reference_json = serde_json::to_string(&reference)
        .map_err(|e| format!("cannot serialize reference dataset: {e}"))?;
    let retried = reference.audits.iter().filter(|a| a.attempts > 1).count();
    let retry_rate = if reference.audits.is_empty() {
        0.0
    } else {
        retried as f64 / reference.audits.len() as f64
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
    let loadgen = load::start(handle.addr(), opts.clients, opts.stress_seed);

    let mut schedule = Schedule::new(opts.stress_seed);
    let mut cycles: Vec<CycleOutcome> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let budget = opts.duration_s.map(Duration::from_secs);

    // 4. Kill/resume cycles.
    for cycle in 0..opts.cycles {
        if let Some(b) = budget {
            if t0.elapsed() >= b {
                println!("soak: duration budget reached after {cycle} cycles");
                break;
            }
        }
        let frames_at_start = verify::shard_frames(&ckpt);
        let Some(plan) = schedule.next_cycle(frames_at_start, jobs) else {
            println!("soak: journal complete after {cycle} cycles; nothing left to interrupt");
            break;
        };
        let run0 = Instant::now();
        let out = opts.dir.join(format!("cycle{cycle}.json"));
        let mut child = spawn_child(
            &child_exe,
            opts,
            &ckpt,
            Journal::file_path(&ckpt).exists(),
            plan.threads,
            &out,
            None,
        )?;
        let outcome = match ride_until(&mut child, &ckpt, plan.kill_at_frames) {
            Ok(o) => o,
            Err(e) => {
                failures.push(format!("cycle {cycle}: {e}"));
                break;
            }
        };
        let cycle_ms = ms(run0.elapsed());

        // Quiesce-point checks: the journal is static now.
        let verify0 = Instant::now();
        let frames_after = verify::shard_frames(&ckpt);
        let mut replayed_frames = 0;
        let mut served_checked = 0;
        match verify::replay_prefix(&ckpt, &fp) {
            Err(e) => failures.push(format!("cycle {cycle}: {e}")),
            Ok((view, delivered, intact_end)) => {
                replayed_frames = delivered;
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
            kill_at_frames: plan.kill_at_frames,
            threads: plan.threads,
            outcome,
            frames_after,
            replayed_frames,
            served_checked,
            cycle_ms,
            verify_ms: ms(verify0.elapsed()),
        };
        println!("{}", done.render());
        cycles.push(done);
    }

    // 5. The final, undisturbed completion run.
    let threads = schedule.threads();
    let final_out = opts.dir.join("final.json");
    let final_metrics = opts.dir.join("final-metrics.json");
    let mut child = spawn_child(
        &child_exe,
        opts,
        &ckpt,
        Journal::file_path(&ckpt).exists(),
        threads,
        &final_out,
        Some(&final_metrics),
    )?;
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
    let child_metrics = std::fs::read_to_string(&final_metrics)
        .ok()
        .and_then(|s| serde_json::from_str::<Value>(&s).ok());
    let salvage_rate = child_metrics
        .as_ref()
        .and_then(|m| field_u64(m, "shards_replayed"))
        .map(|r| {
            if jobs == 0 {
                0.0
            } else {
                r as f64 / jobs as f64
            }
        })
        .unwrap_or(0.0);

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

/// Spawn one campaign child process.
fn spawn_child(
    exe: &Path,
    opts: &StressOptions,
    ckpt: &Path,
    resume: bool,
    threads: usize,
    out: &Path,
    metrics_out: Option<&Path>,
) -> Result<Child, String> {
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .arg(opts.profile.flag())
        .arg("--dir")
        .arg(ckpt)
        .arg("--seed")
        .arg(opts.seed.to_string())
        .arg("--threads")
        .arg(threads.to_string())
        .arg("--out")
        .arg(out)
        .stdout(Stdio::null())
        .stderr(Stdio::inherit());
    if opts.faults {
        cmd.arg("--faults");
    }
    if resume {
        cmd.arg("--resume");
    }
    if let Some(m) = metrics_out {
        cmd.arg("--metrics-out").arg(m);
    }
    cmd.spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", exe.display()))
}

/// Poll the journal until the watermark is reached (SIGKILL the child
/// there) or the child finishes first. Returns the cycle outcome label.
fn ride_until(
    child: &mut Child,
    ckpt: &Path,
    kill_at_frames: usize,
) -> Result<&'static str, String> {
    let deadline = Instant::now() + CHILD_TIMEOUT;
    loop {
        if let Some(status) = child.try_wait().map_err(|e| format!("wait: {e}"))? {
            if status.success() {
                return Ok("completed");
            }
            return Err(format!("child died unprovoked with {status}"));
        }
        if verify::shard_frames(ckpt) >= kill_at_frames {
            child.kill().map_err(|e| format!("kill: {e}"))?;
            child.wait().map_err(|e| format!("reap: {e}"))?;
            return Ok("killed");
        }
        if Instant::now() >= deadline {
            child
                .kill()
                .map_err(|e| format!("kill after timeout: {e}"))?;
            child
                .wait()
                .map_err(|e| format!("reap after timeout: {e}"))?;
            return Err(format!(
                "child made no progress to {kill_at_frames} frames within {CHILD_TIMEOUT:?}"
            ));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Wait for a child with a deadline (the final run is never killed, but
/// a wedged one must not hang the soak forever).
fn wait_with_timeout(
    child: &mut Child,
    timeout: Duration,
) -> Result<std::process::ExitStatus, String> {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(status) = child.try_wait().map_err(|e| format!("wait: {e}"))? {
            return Ok(status);
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("final child exceeded {timeout:?}"));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn ms(d: Duration) -> u64 {
    u64::try_from(d.as_millis()).unwrap_or(u64::MAX)
}

/// Pull a `u64` field out of a JSON object value.
fn field_u64(v: &Value, key: &str) -> Option<u64> {
    match v {
        Value::Object(fields) => fields.iter().find_map(|(k, val)| {
            if k == key {
                match val {
                    Value::U64(n) => Some(*n),
                    _ => None,
                }
            } else {
                None
            }
        }),
        _ => None,
    }
}
