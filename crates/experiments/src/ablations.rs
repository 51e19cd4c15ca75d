//! Mechanism ablations: each of the paper's headline shapes switched off
//! one mechanism at a time.
//!
//! The paper explains Fig. 1's passive/active gap by traffic-gated 5G
//! upgrades, the Fig. 3b multi-second RTT tail by bufferbloat, LTE-A
//! throughput by carrier aggregation, and app QoE by ABR, edge placement
//! and local tracking. Each function here runs one mechanism with and
//! without it and returns `(baseline, ablated)`, where the baseline is
//! the simulator as it ships. None needs a [`crate::world::World`]: each
//! builds its own deployment, flow, link or app run from fixed seeds, so
//! the values are deterministic and `crates/experiments/tests/ablations.rs`
//! pins their shape.
//!
//! Not in [`crate::registry`], so the report pins are unaffected;
//! `cargo run --release --example ablations` prints [`run`], the
//! EXPERIMENTS.md §Ablations table.

use wheels_apps::arcav::{accuracy, AppConfig, OffloadRun};
use wheels_apps::link::{ConstantLink, LinkState};
use wheels_apps::video::{Abr, VideoRun};
use wheels_geo::route::Route;
use wheels_radio::ca::{aggregate, CarrierAllocation, CarrierComponent};
use wheels_radio::tech::{Direction, Technology};
use wheels_ran::cells::Deployment;
use wheels_ran::operator::Operator;
use wheels_ran::policy::{TrafficDemand, UpgradePolicy};
use wheels_ran::session::{PollCtx, RanSession};
use wheels_sim_core::rng::SimRng;
use wheels_sim_core::time::{SimDuration, SimTime};
use wheels_sim_core::units::{DataRate, Db, Distance, Speed};
use wheels_transport::tcp::CubicFlow;

/// Share of an ICMP-only T-Mobile drive (30 min at 65 mph) served by 5G:
/// traffic-aware policy vs an eager one that upgrades regardless of
/// traffic.
pub fn upgrade_policy() -> (f64, f64) {
    let share = |eager: bool| {
        let route = Route::standard();
        let dep = Deployment::generate(&route, Operator::TMobile, &mut SimRng::seed(11));
        let mut session = RanSession::new(&dep, TrafficDemand::IcmpOnly, SimRng::seed(12));
        if eager {
            session.set_policy(UpgradePolicy::eager(Operator::TMobile));
        }
        let speed = Speed::from_mph(65.0);
        let mut t = SimTime::from_hours(30);
        let mut odo = Distance::from_km(300.0);
        let (mut five_g, mut n) = (0u32, 0u32);
        for _ in 0..3600 {
            let ctx = PollCtx {
                odo,
                speed,
                zone: route.zone_at(odo),
                tz: route.timezone_at(odo),
            };
            if let Some(s) = session.poll(t, ctx) {
                n += 1;
                five_g += u32::from(s.tech.is_5g());
            }
            t += SimDuration::from_millis(500);
            odo += speed.distance_in_ms(500);
        }
        f64::from(five_g) / f64::from(n.max(1))
    };
    (share(false), share(true))
}

/// Max RTT (ms) of a 40 s backlogged CUBIC flow over a 2 Mbps link: the
/// carrier buffer (4×BDP, 750 KB floor) vs a 1×BDP buffer with a 30 KB
/// floor.
pub fn bufferbloat() -> (f64, f64) {
    let max_rtt = |mut f: CubicFlow| {
        (0..4000)
            .map(|_| f.advance(10.0, DataRate::from_mbps(2.0), 60.0).rtt_ms)
            .fold(0.0, f64::max)
    };
    (
        max_rtt(CubicFlow::new()),
        max_rtt(CubicFlow::with_buffer(1.0, 30_000.0)),
    )
}

/// `(QoE, rebuffer %)` of a video session on a link cycling 40 / 8 /
/// 70 Mbps every 15 s: buffer-based ABR vs a fixed 50 Mbps bitrate.
pub fn abr() -> ((f64, f64), (f64, f64)) {
    let session = |abr: Abr| {
        let mut varying = |t: SimTime| {
            let mbps = match (t.as_millis() / 15_000) % 3 {
                0 => 40.0,
                1 => 8.0,
                _ => 70.0,
            };
            Some(LinkState {
                dl: DataRate::from_mbps(mbps),
                ul: DataRate::from_mbps(10.0),
                rtt_ms: 60.0,
                in_handover: false,
                on_high_speed_5g: false,
            })
        };
        let s = VideoRun::execute_with_abr(&mut varying, SimTime::EPOCH, abr);
        (s.avg_qoe(), s.rebuffer_pct())
    };
    (session(Abr::Bba), session(Abr::Fixed(50.0)))
}

/// LTE-A downlink rate (Mbps) at 14 dB SINR and a 60 % resource share:
/// four component carriers vs one.
pub fn carrier_aggregation() -> (f64, f64) {
    let rate = |alloc: CarrierAllocation| {
        aggregate(&alloc, Direction::Downlink, Db(14.0), 0.6)
            .rate
            .as_mbps()
    };
    let four = CarrierAllocation {
        primary: CarrierComponent {
            tech: Technology::LteA,
            count: 4,
        },
        secondaries: vec![],
    };
    (
        rate(four),
        rate(CarrierAllocation::single(Technology::LteA)),
    )
}

/// Mean detection mAP over result staleness 0–9 frames: with local
/// tracking (the Table 5 decay) vs without, where a result is only
/// accurate when fresh and falls to the model's stale-box floor after.
pub fn local_tracking() -> (f64, f64) {
    let model = |k: f64| accuracy::tracking_decay_model(k, false);
    let (fresh, floor) = (model(0.0), model(f64::INFINITY));
    let on = (0..10).map(|k| model(f64::from(k))).sum::<f64>() / 10.0;
    let off = (0..10)
        .map(|k| if k == 0 { fresh } else { floor })
        .sum::<f64>()
        / 10.0;
    (on, off)
}

/// AR end-to-end median latency (ms) on an 80/12 Mbps link: edge-like
/// (20 ms) vs cloud-like (70 ms) RTT.
pub fn edge() -> (f64, f64) {
    let median = |rtt_ms: f64| {
        let mut link = ConstantLink(LinkState {
            dl: DataRate::from_mbps(80.0),
            ul: DataRate::from_mbps(12.0),
            rtt_ms,
            in_handover: false,
            on_high_speed_5g: true,
        });
        OffloadRun::execute(&AppConfig::ar(), &mut link, SimTime::EPOCH, true)
            .median_e2e_ms()
            .unwrap_or(f64::NAN)
    };
    (median(20.0), median(70.0))
}

/// The EXPERIMENTS.md §Ablations table: one row per mechanism.
pub fn run() -> String {
    let (passive, eager) = upgrade_policy();
    let (carrier, tight) = bufferbloat();
    let ((bba_qoe, bba_reb), (fixed_qoe, fixed_reb)) = abr();
    let (ca4, ca1) = carrier_aggregation();
    let (tracked, untracked) = local_tracking();
    let (near, far) = edge();
    let rows = [
        (
            "Upgrade policy: traffic-aware → eager",
            "passive (ICMP-only) 5G share",
            format!("{:.1} %", passive * 100.0),
            format!("{:.1} %", eager * 100.0),
        ),
        (
            "Buffer: 4×BDP/750 KB → 1×BDP/30 KB",
            "max RTT at 2 Mbps",
            format!("{carrier:.0} ms"),
            format!("{tight:.0} ms"),
        ),
        (
            "ABR: BBA → fixed 50 Mbps",
            "video QoE (rebuffering) on a varying link",
            format!("{bba_qoe:.1} ({bba_reb:.1} %)"),
            format!("{fixed_qoe:.1} ({fixed_reb:.1} %)"),
        ),
        (
            "CA: 4 CC → 1 CC",
            "LTE-A DL at 14 dB, 60 % share",
            format!("{ca4:.0} Mbps"),
            format!("{ca1:.0} Mbps"),
        ),
        (
            "Local tracking: on → off",
            "mean mAP over staleness 0–9 frames",
            format!("{tracked:.1}"),
            format!("{untracked:.1}"),
        ),
        (
            "Server: edge → cloud RTT",
            "AR E2E median",
            format!("{near:.0} ms"),
            format!("{far:.0} ms"),
        ),
    ];
    let mut out = String::from("| Ablation | Metric | Baseline | Ablated |\n|---|---|---|---|\n");
    for (ablation, metric, base, ablated) in rows {
        out.push_str(&format!("| {ablation} | {metric} | {base} | {ablated} |\n"));
    }
    out
}
