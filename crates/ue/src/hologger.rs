//! The handover-logger phones.
//!
//! §3: three additional unrooted phones ran a custom Android app for the
//! whole 8-day trip, sending 38-byte ICMP pings every 200 ms (to keep the
//! radio out of sleep) and logging what the Android APIs expose: GPS, cell
//! ID, and the displayed cellular technology. No PHY KPIs — that is what
//! distinguishes this passive dataset from XCAL's.
//!
//! Because this traffic is ICMP-only, the upgrade policy rarely elevates
//! these phones to 5G, which is exactly the paper's Fig. 1 finding: the
//! passive view dramatically under-reports 5G coverage.

use serde::{Deserialize, Serialize};
use wheels_geo::trace::DriveTrace;
use wheels_ran::cells::Deployment;
use wheels_ran::policy::TrafficDemand;
use wheels_ran::session::{PollCtx, RanSession};
use wheels_sim_core::rng::SimRng;
use wheels_sim_core::time::{SimDuration, WallClock};

/// One Android-API-level log row (UTC timestamps — this app logged UTC).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HoLogRow {
    /// UTC wall-clock milliseconds.
    pub utc_ms: i64,
    /// GPS latitude.
    pub lat: f64,
    /// GPS longitude.
    pub lon: f64,
    /// Vehicle speed (m/s) as reported by GPS.
    pub speed_mps: f64,
    /// Displayed technology, `None` when out of service.
    pub tech: Option<wheels_radio::tech::Technology>,
    /// Serving cell id, `None` when out of service.
    pub cell: Option<u32>,
}

/// The passive logging app.
pub struct HandoverLogger;

/// Ping/log cadence (200 ms).
const LOG_INTERVAL_MS: u64 = 200;

impl HandoverLogger {
    /// Run the logger over (a slice of) the drive trace.
    ///
    /// `start_idx..end_idx` index into `trace.samples()`; the full-trip
    /// dataset uses the whole range. Returns one row per 200 ms of active
    /// trip time.
    pub fn run(
        deployment: &Deployment,
        trace: &DriveTrace,
        start_idx: usize,
        end_idx: usize,
        rng: SimRng,
    ) -> Vec<HoLogRow> {
        Self::run_with_events(deployment, trace, start_idx, end_idx, rng).0
    }

    /// Like [`Self::run`], additionally returning the handover events the
    /// passive session experienced — the source of Table 1's handover
    /// counts in the paper.
    pub fn run_with_events(
        deployment: &Deployment,
        trace: &DriveTrace,
        start_idx: usize,
        end_idx: usize,
        rng: SimRng,
    ) -> (Vec<HoLogRow>, Vec<wheels_ran::session::HandoverEvent>) {
        let mut session = RanSession::new(deployment, TrafficDemand::IcmpOnly, rng);
        let mut rows = Vec::new();
        let samples = &trace.samples()[start_idx..end_idx.min(trace.samples().len())];
        for s in samples {
            for k in 0..(1000 / LOG_INTERVAL_MS) {
                let t = s.t + SimDuration::from_millis(k * LOG_INTERVAL_MS);
                let snap = session.poll(t, PollCtx::from(s));
                rows.push(HoLogRow {
                    utc_ms: WallClock::utc_ms(t),
                    lat: s.pos.lat,
                    lon: s.pos.lon,
                    speed_mps: s.speed.as_mps(),
                    tech: snap.as_ref().map(|x| x.tech),
                    cell: snap.as_ref().map(|x| x.cell.0),
                });
            }
        }
        let events = session.events().to_vec();
        (rows, events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;
    use wheels_geo::route::Route;
    use wheels_geo::trace::DrivePlan;
    use wheels_ran::operator::Operator;

    struct Fixture {
        trace: DriveTrace,
        deployments: Vec<Deployment>,
    }

    fn fixture() -> &'static Fixture {
        static FIX: OnceLock<Fixture> = OnceLock::new();
        FIX.get_or_init(|| {
            let route = Route::standard();
            let rng = SimRng::seed(7);
            let plan = DrivePlan {
                city_stop: SimDuration::from_mins(2),
                ..DrivePlan::default()
            };
            let trace = plan.generate(&route, &mut rng.split("trace"));
            let deployments = Operator::ALL
                .into_iter()
                .map(|op| Deployment::generate(&route, op, &mut rng.split(op.label())))
                .collect();
            Fixture { trace, deployments }
        })
    }

    #[test]
    fn logs_five_rows_per_second() {
        let f = fixture();
        let rows = HandoverLogger::run(&f.deployments[0], &f.trace, 1000, 1060, SimRng::seed(1));
        assert_eq!(rows.len(), 60 * 5);
    }

    #[test]
    fn rows_carry_gps_and_service() {
        let f = fixture();
        let rows = HandoverLogger::run(&f.deployments[0], &f.trace, 5000, 5120, SimRng::seed(2));
        let in_service = rows.iter().filter(|r| r.tech.is_some()).count();
        assert!(
            in_service as f64 / rows.len() as f64 > 0.9,
            "in service {in_service}/{}",
            rows.len()
        );
        for r in &rows {
            assert!(r.lat > 30.0 && r.lat < 45.0);
            assert!(r.lon < -70.0 && r.lon > -120.0);
            assert_eq!(r.tech.is_some(), r.cell.is_some());
        }
    }

    #[test]
    fn passive_logger_mostly_sees_4g() {
        // Fig. 1b–1d: the handover-logger reports overwhelmingly LTE/LTE-A
        // even where 5G exists. Check on a T-Mobile-rich western segment.
        let f = fixture();
        let rows = HandoverLogger::run(&f.deployments[2], &f.trace, 2000, 3800, SimRng::seed(3));
        let served: Vec<_> = rows.iter().filter_map(|r| r.tech).collect();
        assert!(!served.is_empty());
        let lte = served.iter().filter(|t| !t.is_5g()).count();
        assert!(
            lte as f64 / served.len() as f64 > 0.85,
            "AT&T passive 4G fraction {}",
            lte as f64 / served.len() as f64
        );
    }

    #[test]
    fn utc_timestamps_monotone() {
        let f = fixture();
        let rows = HandoverLogger::run(&f.deployments[1], &f.trace, 100, 160, SimRng::seed(4));
        for w in rows.windows(2) {
            assert!(w[1].utc_ms > w[0].utc_ms);
        }
    }
}
