//! Tier-1 soak smoke: two seeded kill/resume cycles against the mini
//! campaign, with live query load, run through the real harness (the
//! campaign children are real spawned processes, killed with SIGKILL
//! at the scheduled journal watermarks). Asserts the verdict and the
//! report shape the CI soak job greps for — if this passes, every
//! continuously-checked invariant held at least twice under fire.

use wheels_stress::harness;
use wheels_stress::options::{Profile, StressOptions};

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("wheels-stress-smoke-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn two_kill_resume_cycles_under_query_load_hold_every_invariant() {
    let dir = scratch("mini");
    let opts = StressOptions {
        dir: dir.clone(),
        profile: Profile::Mini,
        seed: 42,
        faults: true,
        stress_seed: 7,
        cycles: 2,
        duration_s: None,
        clients: 2,
        report: None,
        // The test binary is not the wheels-stress binary, so child
        // discovery from current_exe would be guesswork; Cargo hands us
        // the real path.
        child_exe: Some(env!("CARGO_BIN_EXE_wheels-stress").into()),
    };
    let report = harness::run(&opts).expect("harness runs");

    assert_eq!(report.exit_code(), 0, "failures: {:?}", report.failures);
    assert!(
        report.failures.is_empty(),
        "failures: {:?}",
        report.failures
    );
    assert_eq!(report.final_frames, report.jobs, "journal ends complete");
    assert!(
        !report.cycles.is_empty() && report.cycles.len() <= 2,
        "cycle count: {}",
        report.cycles.len()
    );
    for c in &report.cycles {
        // Kills never lose intact frames, and every cycle re-proved the
        // served-identity invariant over the whole verification script.
        assert!(c.frames_after >= c.frames_at_start, "{}", c.render());
        assert_eq!(c.replayed_frames, c.frames_after, "{}", c.render());
        assert_eq!(c.served_checked, 6, "{}", c.render());
    }
    assert!(report.load.answered > 0, "query load never got an answer");
    assert_eq!(report.load.malformed, 0, "malformed responses under load");
    assert!(
        report.load.latency.count == report.load.answered,
        "latency histogram counts every answered query"
    );
    let metrics = report.child_metrics.as_ref().expect("final child metrics");
    let line = serde_json::to_string(metrics).expect("metrics render");
    assert!(line.contains("\"shards_replayed\""), "{line}");

    // Same seeds, fresh directory: the soak passes again, and the first
    // cycle's plan — drawn before any racy kill can perturb the
    // observed frame count — is identical draw for draw. (Later
    // watermark draws range over the frames a kill actually left
    // behind, which the SIGKILL race is allowed to vary.)
    let dir2 = scratch("mini-rerun");
    let report2 = harness::run(&StressOptions {
        dir: dir2.clone(),
        ..opts
    })
    .expect("rerun harness runs");
    assert_eq!(report2.exit_code(), 0, "failures: {:?}", report2.failures);
    let (a, b) = (&report.cycles[0], &report2.cycles[0]);
    assert_eq!(a.kill_at_frames, b.kill_at_frames, "kill schedule drifted");
    assert_eq!(a.threads, b.threads, "thread schedule drifted");

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}
