//! Static baseline tests (§5.1).
//!
//! In each major city the authors parked facing a 5G mmWave base station
//! (falling back to mid-band where no mmWave could be found, and skipping
//! operator-city combinations with neither) and ran the same throughput
//! and RTT tests. We reproduce that: find the best high-speed-5G cell near
//! the city center, park the (virtual) UE at that cell's route position —
//! distance = the cell's lateral offset, i.e. "facing the BS" — and run
//! the instruments with a stationary context.

use wheels_geo::route::{Route, ZoneClass};
use wheels_radio::ca::aggregate;
use wheels_radio::channel::LinkChannel;
use wheels_radio::tech::{Direction, Technology};
use wheels_ran::cells::{Cell, Deployment};
use wheels_ran::load::LoadModel;
use wheels_ran::policy::TrafficDemand;
use wheels_ran::session::{local_hour, typical_allocation, PollCtx, RanSession, RanSnapshot};
use wheels_sim_core::rng::SimRng;
use wheels_sim_core::time::{SimDuration, SimTime, Timezone};
use wheels_sim_core::units::{Db, Distance, Speed};
use wheels_transport::servers::ServerFleet;

use crate::measure::{self, VehicleCtx};
use crate::records::{Dataset, TestKind, TestRun};

/// Search radius around a city center for a high-speed-5G cell.
const CITY_SEARCH_KM: f64 = 8.0;

/// Find the best static test target near `city_odo`: an mmWave cell if
/// any, else a mid-band cell, else `None` (the paper omitted those
/// combinations).
pub fn find_target(dep: &Deployment, city_odo: Distance) -> Option<Cell> {
    for tech in [Technology::Nr5gMmWave, Technology::Nr5gMid] {
        let best = dep
            .cells()
            .iter()
            .filter(|c| c.tech == tech)
            .filter(|c| (c.odo.as_km() - city_odo.as_km()).abs() <= CITY_SEARCH_KM)
            .min_by(|a, b| {
                (a.odo.as_km() - city_odo.as_km())
                    .abs()
                    .total_cmp(&(b.odo.as_km() - city_odo.as_km()).abs())
            });
        if let Some(c) = best {
            return Some(*c);
        }
    }
    None
}

/// A link pinned to the static test's target cell: the tester stands in
/// front of the BS, so no cell selection, no policy dice, no handovers —
/// only the channel, the cell's load, and the device limits. This matches
/// the paper's procedure of parking *facing* a chosen 5G base station.
struct PinnedLink {
    cell: Cell,
    channel: LinkChannel,
    alloc: wheels_radio::ca::CarrierAllocation,
    load: LoadModel,
    tz: Timezone,
}

impl PinnedLink {
    fn new(dep: &Deployment, cell: Cell, tz: Timezone, rng: &mut SimRng) -> Self {
        let beam = if cell.tech == Technology::Nr5gMmWave {
            dep.operator.beam_profile()
        } else {
            wheels_radio::linkbudget::BeamProfile::neutral()
        };
        PinnedLink {
            cell,
            channel: LinkChannel::new(cell.tech, beam, &mut rng.split("probe/chan"))
                .with_static_los(),
            alloc: typical_allocation(dep.operator, cell.tech, &mut rng.split("probe/ca")),
            load: LoadModel::new(rng.split("probe/cell-load")),
            tz,
        }
    }

    fn poll(
        &mut self,
        t: SimTime,
        op: wheels_ran::operator::Operator,
        rng: &mut SimRng,
    ) -> RanSnapshot {
        // Facing the BS: the tester walks toward it, so the distance is
        // the cell's lateral offset capped at ~90 m.
        let facing = Distance::from_m(self.cell.lateral.as_m().min(90.0));
        let sample = self
            .channel
            .sample(rng, facing, Distance::ZERO, 100, Speed::ZERO);
        let sinr = Db(sample.snr.0 - 3.0);
        let share = self
            .load
            .share(self.cell.id, ZoneClass::City, t, local_hour(t, self.tz));
        let dl = aggregate(&self.alloc, Direction::Downlink, sinr, share);
        let ul = aggregate(&self.alloc, Direction::Uplink, sinr, share);
        RanSnapshot {
            t,
            operator: op,
            cell: self.cell.id,
            tech: self.cell.tech,
            rsrp: sample.rsrp,
            sinr,
            blocked: sample.blocked,
            in_handover: false,
            carriers: dl.carriers,
            primary_mcs: dl.primary_mcs,
            primary_bler: dl.primary_bler,
            dl_rate: dl.rate,
            ul_rate: ul.rate,
            share,
        }
    }
}

/// Run the static test suite (DL tput, UL tput, RTT) for one operator in
/// one city, appending to `ds`. Returns `false` when the city has no
/// high-speed 5G for this operator (tests skipped, as in the paper).
#[allow(clippy::too_many_arguments)]
pub fn run_city(
    dep: &Deployment,
    route: &Route,
    fleet: &ServerFleet,
    city_odo: Distance,
    start: SimTime,
    next_test_id: &mut u32,
    rng: &mut SimRng,
    ds: &mut Dataset,
) -> bool {
    let Some(target) = find_target(dep, city_odo) else {
        return false;
    };
    // Park at the cell's route position: the link distance is just the
    // lateral offset ("facing the BS").
    let ue_odo = target.odo;
    let tz = route.timezone_at(ue_odo);
    let path = fleet.path(dep.operator, route, ue_odo);

    let mut pinned = PinnedLink::new(dep, target, tz, &mut rng.split("probe/stand"));
    let mut pin_rng = rng.split("probe/pin-noise");
    let mut session = RanSession::new(dep, TrafficDemand::IcmpOnly, rng.split("probe/static"));
    let ctx = PollCtx {
        odo: ue_odo,
        speed: Speed::ZERO,
        zone: ZoneClass::City,
        tz,
    };
    let vctx = VehicleCtx {
        speed_mph: 0.0,
        zone: ZoneClass::City,
        tz,
    };

    let mut t = start;
    for (kind, dir) in [
        (TestKind::DownlinkTput, Some(Direction::Downlink)),
        (TestKind::UplinkTput, Some(Direction::Uplink)),
        (TestKind::Rtt, None),
    ] {
        let id = *next_test_id;
        *next_test_id += 1;
        let (end, hs5g) = match dir {
            Some(d) => {
                let op = dep.operator;
                let out = measure::measure_tput(
                    &mut |pt| Some(pinned.poll(pt, op, &mut pin_rng)),
                    &mut |_| Some(vctx),
                    d,
                    t,
                    t + measure::TPUT_TEST,
                    id,
                    dep.operator,
                    path,
                    false,
                );
                match d {
                    Direction::Downlink => ds.rx_bytes += out.bytes,
                    Direction::Uplink => ds.tx_bytes += out.bytes,
                }
                ds.tput.extend(out.samples);
                // Static coverage rows carry no miles; skip them.
                (t + measure::TPUT_TEST, out.hs5g_fraction)
            }
            None => {
                // RTT tests carry only ICMP traffic; the operator decides
                // the technology (often LTE — the paper's AT&T observation
                // in §5.1), so this goes through the normal session.
                let (samples, _cov, hs5g) = measure::measure_rtt(
                    &mut |pt| session.poll(pt, ctx),
                    &mut |_| Some(vctx),
                    t,
                    t + measure::RTT_TEST,
                    id,
                    dep.operator,
                    path,
                    false,
                    rng.split(&format!("probe/rtt/{id}")),
                );
                ds.rtt.extend(samples);
                (t + measure::RTT_TEST, hs5g)
            }
        };
        ds.runs.push(TestRun {
            id,
            kind,
            operator: dep.operator,
            start: t,
            end,
            miles: 0.0,
            tz,
            server: path.kind,
            hs5g_fraction: hs5g,
            handovers: 0,
            driving: false,
            partial: false,
        });
        t = end + SimDuration::from_secs(5);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;
    use wheels_ran::operator::Operator;
    use wheels_sim_core::stats::Cdf;

    struct Fix {
        route: Route,
        deps: Vec<Deployment>,
        fleet: ServerFleet,
    }

    fn fix() -> &'static Fix {
        static F: OnceLock<Fix> = OnceLock::new();
        F.get_or_init(|| {
            let route = Route::standard();
            let rng = SimRng::seed(42);
            let deps = Operator::ALL
                .into_iter()
                .map(|op| Deployment::generate(&route, op, &mut rng.split(op.label())))
                .collect();
            Fix {
                route,
                deps,
                fleet: ServerFleet::standard(),
            }
        })
    }

    fn run_all_cities(op_idx: usize, seed: u64) -> Dataset {
        let f = fix();
        let mut ds = Dataset::default();
        let mut id = 0;
        let rng = SimRng::seed(seed);
        for (i, (wi, odo)) in f.route.major_cities().into_iter().enumerate() {
            let _ = wi;
            run_city(
                &f.deps[op_idx],
                &f.route,
                &f.fleet,
                odo,
                SimTime::from_hours(10 + i as u64 * 24),
                &mut id,
                &mut rng.split(&format!("city{i}")),
                &mut ds,
            );
        }
        ds
    }

    #[test]
    fn verizon_finds_mmwave_in_most_cities() {
        let f = fix();
        let mut mmwave = 0;
        for (_, odo) in f.route.major_cities() {
            if let Some(c) = find_target(&f.deps[0], odo) {
                if c.tech == Technology::Nr5gMmWave {
                    mmwave += 1;
                }
            }
        }
        assert!(mmwave >= 6, "mmWave cities {mmwave}");
    }

    #[test]
    fn static_dl_far_exceeds_typical_driving() {
        // Fig. 3a vs 3b: static city 5G downlink medians are hundreds of
        // Mbps to Gbps.
        let ds = run_all_cities(0, 1);
        let dl: Vec<f64> = ds
            .tput_where(
                Some(Operator::Verizon),
                Some(Direction::Downlink),
                Some(false),
            )
            .map(|s| s.mbps)
            .collect();
        assert!(dl.len() > 100, "samples {}", dl.len());
        let med = Cdf::from_samples(dl).median().unwrap();
        assert!(med > 200.0, "static DL median {med}");
    }

    #[test]
    fn static_ul_order_of_magnitude_below_dl() {
        let ds = run_all_cities(0, 2);
        let med = |d: Direction| {
            Cdf::from_samples(
                ds.tput_where(Some(Operator::Verizon), Some(d), Some(false))
                    .map(|s| s.mbps),
            )
            .median()
            .unwrap()
        };
        let dl = med(Direction::Downlink);
        let ul = med(Direction::Uplink);
        assert!(dl / ul > 3.0, "dl {dl} ul {ul}");
    }

    #[test]
    fn static_runs_are_marked_non_driving() {
        let ds = run_all_cities(1, 3);
        assert!(!ds.runs.is_empty());
        for r in &ds.runs {
            assert!(!r.driving);
            assert_eq!(r.miles, 0.0);
        }
        assert!(ds.tput.iter().all(|s| !s.driving));
    }

    #[test]
    fn skips_cities_without_high_speed_5g() {
        // AT&T (index 2) should skip at least one city (3% high-speed 5G).
        let f = fix();
        let mut found = 0;
        for (_, odo) in f.route.major_cities() {
            if find_target(&f.deps[2], odo).is_some() {
                found += 1;
            }
        }
        assert!(found < 10, "AT&T found targets in all {found} cities");
        assert!(found >= 1, "AT&T should find at least one");
    }

    #[test]
    fn static_rtt_samples_recorded() {
        let ds = run_all_cities(0, 4);
        let rtts: Vec<f64> = ds.rtt_where(Some(Operator::Verizon), Some(false)).collect();
        assert!(rtts.len() > 200, "rtt samples {}", rtts.len());
        let med = Cdf::from_samples(rtts).median().unwrap();
        assert!((5.0..120.0).contains(&med), "median {med}");
    }
}
