//! Failure injection: drive every layer of the stack through a total
//! coverage hole and verify graceful degradation and recovery — no panics,
//! no stuck state, correct loss accounting.

use wheels::apps::arcav::{AppConfig, OffloadRun};
use wheels::apps::link::LinkState;
use wheels::apps::video::VideoRun;
use wheels::geo::route::Route;
use wheels::radio::tech::Technology;
use wheels::ran::cells::{Cell, CellId, Deployment};
use wheels::ran::operator::Operator;
use wheels::ran::policy::TrafficDemand;
use wheels::ran::session::{PollCtx, RanSession};
use wheels::sim_core::rng::SimRng;
use wheels::sim_core::time::{SimDuration, SimTime};
use wheels::sim_core::units::{DataRate, Distance, Speed};
use wheels::transport::ping::PingSession;
use wheels::transport::servers::{NetPath, ServerKind};
use wheels::transport::tcp::CubicFlow;

/// A deployment with LTE everywhere except a hole in [hole_lo, hole_hi] km.
fn holey_deployment(hole_lo: f64, hole_hi: f64) -> Deployment {
    let mut cells = Vec::new();
    let mut id = 0u32;
    let mut km = 0.0;
    while km < 200.0 {
        if km < hole_lo - 8.0 || km > hole_hi + 8.0 {
            cells.push(Cell {
                id: CellId(id),
                operator: Operator::Verizon,
                tech: Technology::Lte,
                odo: Distance::from_km(km),
                lateral: Distance::from_m(150.0),
                power_offset_db: -2.0,
            });
            id += 1;
        }
        km += 3.0;
    }
    Deployment::from_cells(Operator::Verizon, cells)
}

/// Drive a session through the hole, returning per-poll service flags.
fn drive_through_hole() -> (Vec<bool>, RanSessionStats) {
    let route = Route::standard();
    let dep = holey_deployment(80.0, 120.0);
    let mut session = RanSession::new(&dep, TrafficDemand::BackloggedDownlink, SimRng::seed(9));
    let speed = Speed::from_mph(65.0);
    let mut t = SimTime::from_hours(10);
    let mut odo = Distance::from_km(40.0);
    let mut served = Vec::new();
    while odo.as_km() < 170.0 {
        let ctx = PollCtx {
            odo,
            speed,
            zone: route.zone_at(odo),
            tz: route.timezone_at(odo),
        };
        served.push(session.poll(t, ctx).is_some());
        t += SimDuration::from_millis(500);
        odo += speed.distance_in_ms(500);
    }
    let stats = RanSessionStats {
        events: session.events().len(),
        unique_cells: session.unique_cell_count(),
    };
    (served, stats)
}

struct RanSessionStats {
    events: usize,
    unique_cells: usize,
}

#[test]
fn session_loses_and_regains_service_across_a_hole() {
    let (served, stats) = drive_through_hole();
    // Service before, outage in the middle, service after.
    let n = served.len();
    assert!(served[..n / 5].iter().filter(|s| **s).count() > n / 10);
    let mid = &served[2 * n / 5..3 * n / 5];
    assert!(
        mid.iter().filter(|s| !**s).count() > mid.len() / 2,
        "expected a dead zone in the middle"
    );
    assert!(
        served[4 * n / 5..].iter().filter(|s| **s).count() > n / 10,
        "service must recover after the hole"
    );
    assert!(stats.unique_cells >= 2);
    let _ = stats.events;
}

#[test]
fn tcp_survives_long_outage_with_rto_and_recovers() {
    let mut flow = CubicFlow::new();
    let link = DataRate::from_mbps(40.0);
    for _ in 0..1000 {
        flow.advance(10.0, link, 60.0);
    }
    // 30 s outage.
    let mut rtos = 0;
    for _ in 0..3000 {
        let t = flow.advance(10.0, DataRate::ZERO, 60.0);
        assert_eq!(t.delivered_bytes, 0.0);
        rtos += t.rto as u32;
    }
    assert!(rtos >= 1, "RTO must fire during a 30 s outage");
    // Recovery: goodput returns within ~20 s (slow start from 1 MSS).
    let mut bytes = 0.0;
    for _ in 0..2000 {
        bytes += flow.advance(10.0, link, 60.0).delivered_bytes;
    }
    let mbps = bytes * 8.0 / 20.0 / 1e6;
    assert!(mbps > 20.0, "post-outage goodput {mbps}");
}

#[test]
fn pings_all_lost_in_dead_zone() {
    let mut ping = PingSession::new(SimTime::EPOCH, SimRng::seed(3));
    let path = NetPath {
        kind: ServerKind::Cloud,
        core_owd_ms: 20.0,
    };
    for _ in 0..50 {
        let r = ping.fire(None, &path, 0.0);
        assert!(r.rtt_ms.is_none());
    }
}

#[test]
fn ar_app_survives_mid_run_outage() {
    // Link dies for the middle third of the run.
    let mut sampler = |t: SimTime| -> Option<LinkState> {
        let s = t.as_millis() % 20_000;
        if (7_000..14_000).contains(&s) {
            None
        } else {
            Some(LinkState {
                dl: DataRate::from_mbps(60.0),
                ul: DataRate::from_mbps(10.0),
                rtt_ms: 60.0,
                in_handover: false,
                on_high_speed_5g: false,
            })
        }
    };
    let cfg = AppConfig::ar();
    let stats = OffloadRun::execute(&cfg, &mut sampler, SimTime::EPOCH, true);
    // Frames flow before and after, but a third of the run is dead.
    assert!(
        stats.frames_offloaded > 10,
        "offloaded {}",
        stats.frames_offloaded
    );
    assert!(
        stats.frames_offloaded < stats.frames_total,
        "outage must cost frames"
    );
}

#[test]
fn video_stalls_through_outage_then_resumes() {
    let mut sampler = |t: SimTime| -> Option<LinkState> {
        let s = t.as_millis();
        if (60_000..100_000).contains(&s) {
            None
        } else {
            Some(LinkState {
                dl: DataRate::from_mbps(30.0),
                ul: DataRate::from_mbps(10.0),
                rtt_ms: 60.0,
                in_handover: false,
                on_high_speed_5g: false,
            })
        }
    };
    let stats = VideoRun::execute(&mut sampler, SimTime::EPOCH);
    // A 40 s outage against a <=30 s buffer must rebuffer.
    let total_rebuffer: f64 = stats.chunks.iter().map(|c| c.rebuffer_s).sum();
    assert!(total_rebuffer > 5.0, "rebuffered {total_rebuffer}s");
    // But the session still plays a substantial number of chunks.
    assert!(stats.chunks.len() > 40, "chunks {}", stats.chunks.len());
}

// ---------------------------------------------------------------------------
// Fault matrix: drive each measurement-disruption kind through a small
// campaign end-to-end — no panics, graceful degradation downstream, and
// audit accounting that conserves samples.
// ---------------------------------------------------------------------------

use wheels::core::campaign::{Campaign, CampaignConfig};
use wheels::core::disrupt::{FaultConfig, FaultKind};
use wheels::core::records::{Dataset, TestKind, TestStatus};

/// A small campaign with a given disruption mix. App tests are skipped
/// unless requested (they dominate runtime); static probes are out of the
/// fault model's scope and skipped throughout.
fn faulted_campaign(faults: FaultConfig, include_apps: bool) -> Dataset {
    let c = Campaign::standard(2022);
    c.run(&CampaignConfig {
        max_cycles: Some(8),
        cycle_stride_s: 4_000,
        include_apps,
        include_static: false,
        faults,
        ..CampaignConfig::default()
    })
}

/// One-kind-only config with rates high enough to guarantee hits in a
/// small campaign.
fn only(kind: FaultKind) -> FaultConfig {
    let mut f = FaultConfig {
        enabled: true,
        retry: wheels::core::disrupt::RetryPolicy::default(),
        ..FaultConfig::default()
    };
    match kind {
        FaultKind::ServerOutage => {
            f.outages_per_hour = 18.0;
            f.outage_secs = (20, 90);
        }
        FaultKind::AppCrash => {
            f.crashes_per_hour = 18.0;
            f.restart_secs = (20, 90);
        }
        FaultKind::LoggerGap => {
            f.gaps_per_hour = 25.0;
            f.gap_secs = (10, 40);
        }
        FaultKind::ClockDrift => {
            f.drifts_per_hour = 12.0;
            f.drift_ms = (60_000, 120_000);
            f.drift_correctable_ms = 30_000;
        }
    }
    f
}

fn is_instrument(kind: TestKind) -> bool {
    matches!(
        kind,
        TestKind::DownlinkTput | TestKind::UplinkTput | TestKind::Rtt
    )
}

/// Shared invariants for any faulted dataset.
fn check_accounting(ds: &Dataset) {
    assert!(!ds.audits.is_empty());
    for a in &ds.audits {
        // The ledger always balances.
        assert_eq!(
            a.planned_samples,
            a.recorded_samples + a.lost_samples,
            "test {} ledger",
            a.test_id
        );
        match a.status {
            TestStatus::Lost => assert_eq!(a.recorded_samples, 0, "lost test {}", a.test_id),
            TestStatus::Partial => assert!(
                a.lost_samples > 0 || !is_instrument(a.kind),
                "partial test {} lost nothing",
                a.test_id
            ),
            TestStatus::Completed => {
                assert_eq!(a.lost_samples, 0, "completed test {}", a.test_id);
            }
        }
        if a.status == TestStatus::Lost || a.attempts > 1 {
            assert!(
                a.fault.is_some(),
                "test {} outcome without a cause",
                a.test_id
            );
        }
    }
    // Recorded samples in the audit trail match the actual tables.
    for a in &ds.audits {
        let rows = match a.kind {
            TestKind::DownlinkTput | TestKind::UplinkTput => {
                ds.tput.iter().filter(|s| s.test_id == a.test_id).count()
            }
            TestKind::Rtt => ds.rtt.iter().filter(|s| s.test_id == a.test_id).count(),
            _ => continue,
        };
        assert_eq!(
            rows as u32, a.recorded_samples,
            "test {} audit vs table rows",
            a.test_id
        );
    }
    // Lost tests leave no run record; salvaged partials are flagged.
    let partial_ids: std::collections::HashSet<u32> = ds
        .audits
        .iter()
        .filter(|a| a.status == TestStatus::Partial)
        .map(|a| a.test_id)
        .collect();
    let lost_ids: std::collections::HashSet<u32> = ds
        .audits
        .iter()
        .filter(|a| a.status == TestStatus::Lost)
        .map(|a| a.test_id)
        .collect();
    for r in ds.runs.iter().filter(|r| r.driving) {
        assert!(!lost_ids.contains(&r.id), "lost test {} has a run", r.id);
        assert_eq!(r.partial, partial_ids.contains(&r.id), "run {} flag", r.id);
    }
}

fn count_fault(ds: &Dataset, kind: FaultKind) -> usize {
    ds.audits.iter().filter(|a| a.fault == Some(kind)).count()
}

const TPUT: &[TestKind] = &[TestKind::DownlinkTput, TestKind::UplinkTput];
const RTT: &[TestKind] = &[TestKind::Rtt];
const APPS: &[TestKind] = &[
    TestKind::Ar,
    TestKind::Cav,
    TestKind::Video,
    TestKind::Gaming,
];

/// True when some audit row of one of `kinds` ended with `status`.
fn has_outcome(ds: &Dataset, kinds: &[TestKind], status: TestStatus) -> bool {
    ds.audits
        .iter()
        .any(|a| a.status == status && kinds.contains(&a.kind))
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Pin every byte of a faulted dataset by the FNV-1a-64 of its JSON
/// export: which rows each disrupted slot leaves, their counts, times,
/// fault tags and the byte counters all feed it.
fn assert_pinned(ds: &Dataset, pin: u64, what: &str) {
    let json = serde_json::to_string(ds).expect("dataset serializes");
    let got = fnv1a64(json.as_bytes());
    assert_eq!(got, pin, "{what}: dataset bytes drifted (now {got:#018x})");
}

#[test]
fn matrix_server_outage_blocks_retries_and_truncates() {
    let ds = faulted_campaign(only(FaultKind::ServerOutage), false);
    check_accounting(&ds);
    assert_pinned(&ds, 0x1584_6679_ce3f_9e68, "server outage");
    // Blocked starts retry late (partial) or run out of retries (lost),
    // for the throughput and the RTT instruments alike.
    for kinds in [TPUT, RTT] {
        assert!(has_outcome(&ds, kinds, TestStatus::Lost), "{kinds:?} lost");
        assert!(
            has_outcome(&ds, kinds, TestStatus::Partial),
            "{kinds:?} partial"
        );
    }
    assert!(
        count_fault(&ds, FaultKind::ServerOutage) > 0,
        "outages never hit a test"
    );
    // Blocking faults produce retries and at least one disrupted outcome.
    assert!(ds.audits.iter().any(|a| a.attempts > 1), "no retries");
    assert!(
        ds.audits.iter().any(|a| a.status != TestStatus::Completed),
        "no test was disrupted"
    );
}

#[test]
fn matrix_app_crash_loses_or_truncates_app_tests() {
    let ds = faulted_campaign(only(FaultKind::AppCrash), true);
    check_accounting(&ds);
    assert_pinned(&ds, 0xa56b_169c_ac86_71c9, "app crash");
    assert!(has_outcome(&ds, APPS, TestStatus::Lost), "no app slot lost");
    assert!(
        count_fault(&ds, FaultKind::AppCrash) > 0,
        "crashes never hit a test"
    );
    // App tests have fixed internal durations: a crash either delays the
    // whole slot away (lost) or degrades the run mid-flight.
    assert!(
        ds.audits
            .iter()
            .any(|a| !is_instrument(a.kind) && a.status != TestStatus::Completed),
        "no app test was disrupted"
    );
}

#[test]
fn matrix_logger_gap_salvages_partials_without_blocking() {
    let ds = faulted_campaign(only(FaultKind::LoggerGap), false);
    check_accounting(&ds);
    assert_pinned(&ds, 0x812a_0b1f_e81f_3943, "logger gap");
    assert!(
        count_fault(&ds, FaultKind::LoggerGap) > 0,
        "gaps never hit a test"
    );
    // Gaps never block: every test starts on time, first attempt.
    assert!(ds.audits.iter().all(|a| a.attempts == 1));
    assert!(ds.audits.iter().all(|a| a.status != TestStatus::Lost));
    // XCAL-derived throughput rows are eaten; app-layer RTT rows are not.
    assert!(
        ds.audits
            .iter()
            .any(|a| a.kind != TestKind::Rtt && a.status == TestStatus::Partial),
        "no tput test was salvaged as partial"
    );
    assert!(ds
        .audits
        .iter()
        .filter(|a| a.kind == TestKind::Rtt)
        .all(|a| a.status == TestStatus::Completed));
}

#[test]
fn matrix_logger_gap_marks_app_runs_partial() {
    // Apps keep their scheduled slot under a gap; the coverage rows the
    // gap ate are counted as planned-but-lost, and the run is partial.
    let ds = faulted_campaign(only(FaultKind::LoggerGap), true);
    check_accounting(&ds);
    assert_pinned(&ds, 0xfc54_1bb5_36a3_83c4, "logger gap with apps");
    assert!(
        has_outcome(&ds, APPS, TestStatus::Partial),
        "no app partial"
    );
    for a in ds.audits.iter().filter(|a| APPS.contains(&a.kind)) {
        assert_eq!(a.attempts, 1, "app test {} retried", a.test_id);
        if a.status == TestStatus::Partial {
            assert_eq!(a.fault, Some(FaultKind::LoggerGap), "app {}", a.test_id);
        }
    }
}

#[test]
fn matrix_clock_drift_poisons_only_uncorrectable_slots() {
    // All drifts above the correctable threshold: affected slots are lost.
    let ds = faulted_campaign(only(FaultKind::ClockDrift), false);
    check_accounting(&ds);
    assert_pinned(&ds, 0x410c_9f4d_2615_73a0, "clock drift");
    let lost = ds
        .audits
        .iter()
        .filter(|a| a.status == TestStatus::Lost)
        .count();
    assert!(lost > 0, "uncorrectable drift never poisoned a slot");
    assert!(ds
        .audits
        .iter()
        .filter(|a| a.status == TestStatus::Lost)
        .all(|a| a.fault == Some(FaultKind::ClockDrift) && a.attempts == 1));

    // Same rates, but every drift is correctable: log sync absorbs them
    // and nothing is lost or retried.
    let mut correctable = only(FaultKind::ClockDrift);
    correctable.drift_correctable_ms = 200_000;
    let ds = faulted_campaign(correctable, false);
    check_accounting(&ds);
    assert_pinned(&ds, 0x585d_89f2_8497_f09a, "correctable clock drift");
    assert!(ds
        .audits
        .iter()
        .all(|a| a.status == TestStatus::Completed && a.attempts == 1));
    assert!(
        count_fault(&ds, FaultKind::ClockDrift) > 0,
        "correctable drifts should still be annotated"
    );
}

#[test]
fn matrix_demo_mix_flows_through_the_full_pipeline() {
    use wheels::experiments::world::{Scale, World};

    // The demo mix (all four kinds) at quick scale, rendered through the
    // entire experiment registry: analysis must degrade gracefully on a
    // gapped dataset — no panics, every experiment renders.
    let world = World::build_with_faults(Scale::Quick, 2022, None, FaultConfig::demo());
    let exps = wheels::experiments::registry();
    let report = wheels::experiments::render_report(&world, &exps, None);
    assert_eq!(report.matches(&"=".repeat(78)).count(), exps.len());
    assert!(report.contains("Data quality"), "quality report missing");
    let ds = world.into_dataset();
    check_accounting(&ds);
    // The bytes `dataset --quick --faults` writes (sha256 ffcb9b8f…).
    assert_pinned(&ds, 0x9451_a6bc_4dde_f821, "quick demo mix");
    // Every disrupted outcome the model has shows up in the mix.
    for (kinds, status) in [
        (TPUT, TestStatus::Lost),
        (TPUT, TestStatus::Partial),
        (RTT, TestStatus::Lost),
        (APPS, TestStatus::Lost),
        (APPS, TestStatus::Partial),
    ] {
        assert!(has_outcome(&ds, kinds, status), "{kinds:?} {status:?}");
    }
}

/// The demo mix at Standard scale, the default `repro` world: the bytes
/// `dataset --standard --faults` writes (sha256 7bcc03d9…). Minutes in
/// debug builds, so ignored by default; CI runs it in release with
/// `-- --ignored`.
#[test]
#[ignore = "standard-scale campaign; run explicitly (CI does)"]
fn demo_mix_pinned_at_standard_scale() {
    use wheels::experiments::world::{Scale, World};

    let ds =
        World::build_with_faults(Scale::Standard, 2022, None, FaultConfig::demo()).into_dataset();
    check_accounting(&ds);
    assert_pinned(&ds, 0x9188_01e5_8979_b0e7, "standard demo mix");
}
