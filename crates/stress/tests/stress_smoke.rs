//! Tier-1 soak smoke: two seeded kill/resume cycles against the quick
//! world's `dataset` export with the demo disruption mix, under live
//! query load, run through the real harness (the campaign children are
//! real spawned processes, killed by SIGXFSZ when their journal
//! reaches the scheduled byte). Asserts the verdict and the report
//! shape the CI soak job greps for — if this passes, every
//! continuously-checked invariant held at least twice under fire.

use wheels_stress::harness;
use wheels_stress::options::StressOptions;

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("wheels-stress-smoke-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn two_kill_resume_cycles_under_query_load_hold_every_invariant() {
    let dir = scratch("quick");
    let opts = StressOptions {
        dir: dir.clone(),
        seed: 42,
        stress_seed: 7,
        cycles: 2,
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
    // The reference ledger retried tests, so the kills cut through a
    // campaign whose disruptions reach the audit rows.
    assert!(report.retry_rate > 0.0, "retry rate {}", report.retry_rate);
    assert_eq!(report.cycles.len(), 2, "every scheduled cycle ran");
    for c in &report.cycles {
        // Kills never lose intact frames, never keep a byte past the
        // kill, and every cycle re-proved the served-identity invariant
        // over the whole verification script.
        assert!(c.frames_after >= c.frames_at_start, "{}", c.render());
        assert!(c.intact_end <= c.kill_at_byte, "{}", c.render());
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
    let serde::Value::Object(fields) = metrics else {
        panic!("campaign_metrics is not an object: {line}")
    };
    let field = |key: &str| match serde::get_field(fields, key) {
        serde::Value::U64(n) => *n as usize,
        other => panic!("campaign_metrics {key} is {other:?}: {line}"),
    };
    assert_eq!(
        field("shards_replayed") + field("shards_completed"),
        report.jobs,
        "{line}"
    );
    assert_eq!(
        field("frames_appended"),
        field("shards_completed"),
        "{line}"
    );
    // The last kill lands before the journal's end, so the final child
    // always has a frame to append.
    assert!(field("shards_completed") >= 1, "{line}");
    assert_eq!(
        field("samples_recorded") + field("samples_lost"),
        field("samples_planned"),
        "{line}"
    );

    // Same seeds, fresh directory: the soak passes again, and every
    // cycle's plan is identical draw for draw — the schedule depends on
    // the stress seed alone, not on what an earlier kill left behind.
    let dir2 = scratch("quick-rerun");
    let report2 = harness::run(&StressOptions {
        dir: dir2.clone(),
        ..opts
    })
    .expect("rerun harness runs");
    assert_eq!(report2.exit_code(), 0, "failures: {:?}", report2.failures);
    assert_eq!(report2.cycles.len(), report.cycles.len());
    for (a, b) in report.cycles.iter().zip(&report2.cycles) {
        assert_eq!(a.kill_at_byte, b.kill_at_byte, "kill schedule drifted");
        assert_eq!(a.threads, b.threads, "thread schedule drifted");
    }

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}
