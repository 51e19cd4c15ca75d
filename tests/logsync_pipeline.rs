//! End-to-end log-synchronization pipeline: generate real modem logs from
//! a driving phone, write XCAL files with the messy timestamp conventions,
//! fabricate app logs in all three dialects, and verify the sync software
//! reconciles everything back onto the simulation clock.

use wheels::core::logsync::{sync_all, sync_log, AppLog, StampKind, SyncedLog};
use wheels::geo::route::Route;
use wheels::geo::trace::DrivePlan;
use wheels::ran::cells::Deployment;
use wheels::ran::operator::Operator;
use wheels::ran::policy::TrafficDemand;
use wheels::ran::session::{PollCtx, RanSession};
use wheels::sim_core::rng::SimRng;
use wheels::sim_core::time::{SimDuration, SimTime, WallClock};
use wheels::ue::xcal::{DrmFile, XcalLogger};

/// Drive a phone and log three XCAL files at different trip points.
fn build_drms() -> (Vec<DrmFile>, Vec<SimTime>) {
    let route = Route::standard();
    let rng = SimRng::seed(77);
    let plan = DrivePlan {
        city_stop: SimDuration::from_mins(2),
        ..Default::default()
    };
    let trace = plan.generate(&route, &mut rng.split("trace"));
    let dep = Deployment::generate(&route, Operator::Verizon, &mut rng.split("dep"));
    let mut session = RanSession::new(&dep, TrafficDemand::BackloggedDownlink, rng.split("s"));
    let mut logger = XcalLogger::new();
    let mut starts = Vec::new();

    for idx in [20_000usize, 90_000, 180_000] {
        let s0 = trace.samples()[idx.min(trace.samples().len() - 1)];
        starts.push(s0.t);
        logger.open_file(s0.t, s0.tz);
        for k in 0..60u64 {
            let t = s0.t + SimDuration::from_millis(k * 500);
            if let Some(s) = trace.sample_at(t) {
                if let Some(snap) = session.poll(t, PollCtx::from(s)) {
                    logger.log(&snap);
                }
            }
        }
    }
    (logger.finish(), starts)
}

#[test]
fn full_pipeline_reconciles_all_dialects() {
    let (drms, starts) = build_drms();
    assert_eq!(drms.len(), 3);
    // The three files were opened in (at least) two different zones.
    let zones: std::collections::HashSet<_> = drms.iter().map(|f| f.filename_zone).collect();
    assert!(zones.len() >= 2, "trip should cross zones: {zones:?}");

    // App logs: one per test, one per dialect, using each test's real span.
    let route_zone = |i: usize| drms[i].filename_zone;
    let logs = vec![
        AppLog {
            test_id: 0,
            stamp: StampKind::Utc,
            entries_ms: (0..25)
                .map(|k| WallClock::utc_ms(starts[0] + SimDuration::from_secs(k)))
                .collect(),
        },
        AppLog {
            test_id: 1,
            stamp: StampKind::LocalUnknown,
            entries_ms: (0..25)
                .map(|k| WallClock::local_ms(starts[1] + SimDuration::from_secs(k), route_zone(1)))
                .collect(),
        },
        AppLog {
            test_id: 2,
            stamp: StampKind::Local(route_zone(2)),
            entries_ms: (0..25)
                .map(|k| WallClock::local_ms(starts[2] + SimDuration::from_secs(k), route_zone(2)))
                .collect(),
        },
    ];

    let results: Vec<SyncedLog> = sync_all(&logs, &drms)
        .into_iter()
        .map(|r| r.expect("every log should sync"))
        .collect();

    for (i, s) in results.iter().enumerate() {
        assert_eq!(s.drm_index, i, "log {i} matched wrong file");
        assert_eq!(s.entries[0], starts[i], "log {i} start time wrong");
    }
    // The unknown-zone log's zone was inferred correctly.
    assert_eq!(results[1].inferred_zone, Some(route_zone(1)));
}

#[test]
fn corrupted_log_is_rejected_not_misattributed() {
    let (drms, starts) = build_drms();
    // A log claiming UTC but actually written 5 hours off matches nothing.
    let bogus = AppLog {
        test_id: 9,
        stamp: StampKind::Utc,
        entries_ms: (0..10)
            .map(|k| {
                WallClock::utc_ms(
                    starts[0] + SimDuration::from_hours(5) + SimDuration::from_secs(k),
                )
            })
            .collect(),
    };
    assert!(sync_log(&bogus, &drms).is_err());
}

#[test]
fn drm_contents_convert_back_to_sim_time() {
    let (drms, starts) = build_drms();
    for (f, start) in drms.iter().zip(&starts) {
        assert_eq!(f.record_sim_time(0), Some(*start));
        // Monotone, 500 ms cadence.
        for i in 1..f.records.len() {
            let a = f.record_sim_time(i - 1).unwrap();
            let b = f.record_sim_time(i).unwrap();
            assert!(b.as_millis() >= a.as_millis() + 500);
        }
    }
}
