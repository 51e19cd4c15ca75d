//! The measurement instruments: one function per test type.
//!
//! These are the §3/§5 test procedures, factored out so that the driving
//! campaign, the static baselines, and the experiment ablations all run
//! the *same* instrument over different link sources.
//!
//! Each instrument consumes a "poller" — a closure advancing the modem to
//! a given time — and a context closure describing the vehicle state, and
//! produces typed records for the consolidated dataset.

use wheels_geo::route::ZoneClass;
use wheels_geo::trace::TraceSample;
use wheels_radio::tech::Direction;
use wheels_ran::operator::Operator;
use wheels_ran::session::RanSnapshot;
use wheels_sim_core::rng::SimRng;
use wheels_sim_core::time::{SimDuration, SimTime, Timezone};
use wheels_sim_core::units::DataRate;
use wheels_transport::ping::PingSession;
use wheels_transport::servers::NetPath;
use wheels_transport::tcp::CubicFlow;

use crate::records::{CoverageSample, RttSample, TputSample};

/// Vehicle context at a poll instant.
#[derive(Debug, Clone, Copy)]
pub struct VehicleCtx {
    /// Speed in mph.
    pub speed_mph: f64,
    /// Road zone.
    pub zone: ZoneClass,
    /// Timezone.
    pub tz: Timezone,
}

impl From<&TraceSample> for VehicleCtx {
    fn from(s: &TraceSample) -> Self {
        VehicleCtx {
            speed_mph: s.speed.as_mph(),
            zone: s.zone,
            tz: s.tz,
        }
    }
}

/// Closure types used by the instruments.
pub type Poller<'p> = dyn FnMut(SimTime) -> Option<RanSnapshot> + 'p;
/// Context provider (None = vehicle inactive).
pub type CtxOf<'p> = dyn FnMut(SimTime) -> Option<VehicleCtx> + 'p;

/// Throughput test duration (the paper used 30–35 s).
pub const TPUT_TEST: SimDuration = SimDuration(30_000);
/// RTT test duration (20 s).
pub const RTT_TEST: SimDuration = SimDuration(20_000);
/// XCAL throughput sampling period.
pub const SAMPLE_MS: u64 = 500;
/// TCP fluid tick.
const TCP_TICK_MS: u64 = 10;
/// RAN poll period during tests.
const POLL_MS: u64 = 100;

/// Result of one throughput test.
#[derive(Debug, Clone, Default)]
pub struct TputTestOut {
    /// 500 ms samples.
    pub samples: Vec<TputSample>,
    /// Coverage rows (one per 500 ms bin, connected or not).
    pub coverage: Vec<CoverageSample>,
    /// Application bytes moved.
    pub bytes: f64,
    /// Fraction of polls on high-speed 5G.
    pub hs5g_fraction: f64,
}

/// Base RTT (ms) for a path given the serving technology.
pub fn base_rtt_ms(snap: &RanSnapshot, path: &NetPath) -> f64 {
    2.0 * snap.tech.ran_latency_ms() + 2.0 * path.core_owd_ms
}

/// Run a (possibly truncated) backlogged TCP throughput test over
/// `[start, cut)`. Only **complete** 500 ms bins are recorded — a run
/// cut short mid-bin salvages its finished samples and discards the
/// partial bin, the paper's "keep what the disruption left us" rule.
/// A full test is `cut = start + TPUT_TEST`.
#[allow(clippy::too_many_arguments)]
pub fn measure_tput(
    poll: &mut Poller,
    ctx_of: &mut CtxOf,
    dir: Direction,
    start: SimTime,
    cut: SimTime,
    test_id: u32,
    operator: Operator,
    path: NetPath,
    driving: bool,
) -> TputTestOut {
    // Clip to whole bins: the fluid loop below closes a bin only when it
    // is full, so stopping on a bin boundary discards nothing extra.
    let whole_bins = cut.since(start).as_millis() / SAMPLE_MS;
    let end = start + SimDuration::from_millis(whole_bins * SAMPLE_MS);
    let mut flow = CubicFlow::new();
    let mut out = TputTestOut::default();
    let mut t = start;
    let mut last_snap: Option<RanSnapshot> = None;
    let mut bin_bytes = 0.0;
    let mut bin_start = start;
    let mut hs5g_polls = 0u32;
    let mut polls = 0u32;
    let mut bin_ho_start = 0usize;
    let mut ho_count_probe = 0usize;

    while t < end {
        if t.as_millis().is_multiple_of(POLL_MS) {
            last_snap = poll(t);
            if let Some(s) = &last_snap {
                polls += 1;
                if s.tech.is_high_speed() {
                    hs5g_polls += 1;
                }
                // Track handover onsets via the in_handover edge.
                if s.in_handover {
                    ho_count_probe += 1;
                }
            }
        }
        let rate = match &last_snap {
            Some(s) => match dir {
                Direction::Downlink => s.dl_rate,
                Direction::Uplink => s.ul_rate,
            },
            None => DataRate::ZERO,
        };
        let rtt = last_snap
            .as_ref()
            .map(|s| base_rtt_ms(s, &path))
            .unwrap_or(100.0);
        let tick = flow.advance(TCP_TICK_MS as f64, rate, rtt);
        bin_bytes += tick.delivered_bytes;

        t += SimDuration::from_millis(TCP_TICK_MS);

        if t.since(bin_start).as_millis() >= SAMPLE_MS {
            let ctx = ctx_of(bin_start);
            let mbps = bin_bytes * 8.0 / 1e6 / (SAMPLE_MS as f64 / 1000.0);
            out.bytes += bin_bytes;
            if let (Some(s), Some(c)) = (&last_snap, ctx) {
                out.samples.push(TputSample {
                    t: bin_start,
                    test_id,
                    operator,
                    direction: dir,
                    mbps,
                    tech: s.tech,
                    cell: s.cell.0,
                    speed_mph: c.speed_mph,
                    zone: c.zone,
                    tz: c.tz,
                    server: path.kind,
                    rsrp_dbm: s.rsrp.0,
                    mcs: s.primary_mcs,
                    bler: s.primary_bler,
                    carriers: s.carriers,
                    // lint: allow(lossy-cast, clamped to 255 on the previous call)
                    handovers_in_bin: (ho_count_probe - bin_ho_start).min(255) as u8,
                    driving,
                });
            }
            if let Some(c) = ctx {
                out.coverage.push(CoverageSample {
                    t: bin_start,
                    operator,
                    tech: last_snap.as_ref().map(|s| s.tech),
                    direction: Some(dir),
                    miles: c.speed_mph * (SAMPLE_MS as f64 / 3_600_000.0),
                    speed_mph: c.speed_mph,
                    tz: c.tz,
                    zone: c.zone,
                });
            }
            bin_bytes = 0.0;
            bin_start = t;
            bin_ho_start = ho_count_probe;
        }
    }
    out.hs5g_fraction = if polls == 0 {
        0.0
    } else {
        hs5g_polls as f64 / polls as f64
    };
    out
}

/// Run a (possibly truncated) RTT test over `[start, cut)`: pings keep
/// their deterministic 200 ms cadence and simply stop at the cut. A full
/// test (20 s of 200 ms pings) is `cut = start + RTT_TEST`.
#[allow(clippy::too_many_arguments)]
pub fn measure_rtt(
    poll: &mut Poller,
    ctx_of: &mut CtxOf,
    start: SimTime,
    cut: SimTime,
    test_id: u32,
    operator: Operator,
    path: NetPath,
    driving: bool,
    rng: SimRng,
) -> (Vec<RttSample>, Vec<CoverageSample>, f64) {
    let end = cut;
    let mut ping = PingSession::new(start, rng);
    let mut samples = Vec::new();
    let mut coverage = Vec::new();
    let mut hs5g = 0u32;
    let mut n = 0u32;
    while ping.next_due() < end {
        let t = ping.next_due();
        let snap = poll(t);
        let Some(c) = ctx_of(t) else {
            let _ = ping.fire(None, &path, 0.0);
            continue;
        };
        if let Some(s) = &snap {
            n += 1;
            if s.tech.is_high_speed() {
                hs5g += 1;
            }
        }
        let res = ping.fire(snap.as_ref(), &path, 0.0);
        samples.push(RttSample {
            t,
            test_id,
            operator,
            rtt_ms: res.rtt_ms,
            tech: snap
                .map(|s| s.tech)
                .unwrap_or(wheels_radio::tech::Technology::Lte),
            speed_mph: c.speed_mph,
            tz: c.tz,
            server: path.kind,
            driving,
        });
        // Coverage rows at 500 ms cadence (every 2nd-3rd ping boundary).
        if t.as_millis().is_multiple_of(600) {
            coverage.push(CoverageSample {
                t,
                operator,
                tech: samples.last().and_then(|r| {
                    if r.rtt_ms.is_some() {
                        Some(r.tech)
                    } else {
                        None
                    }
                }),
                direction: None,
                miles: c.speed_mph * (600.0 / 3_600_000.0),
                speed_mph: c.speed_mph,
                tz: c.tz,
                zone: c.zone,
            });
        }
    }
    let frac = if n == 0 { 0.0 } else { hs5g as f64 / n as f64 };
    (samples, coverage, frac)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wheels_radio::tech::Technology;
    use wheels_ran::cells::CellId;
    use wheels_sim_core::units::{Db, Dbm};
    use wheels_transport::servers::ServerKind;

    fn snap(t: SimTime, dl: f64, ul: f64, tech: Technology) -> RanSnapshot {
        RanSnapshot {
            t,
            operator: Operator::TMobile,
            cell: CellId(3),
            tech,
            rsrp: Dbm(-100.0),
            sinr: Db(12.0),
            blocked: false,
            in_handover: false,
            carriers: 2,
            primary_mcs: 16,
            primary_bler: 0.09,
            dl_rate: DataRate::from_mbps(dl),
            ul_rate: DataRate::from_mbps(ul),
            share: 0.5,
        }
    }

    fn ctx() -> VehicleCtx {
        VehicleCtx {
            speed_mph: 65.0,
            zone: ZoneClass::Highway,
            tz: Timezone::Central,
        }
    }

    #[test]
    fn tput_test_produces_60_samples() {
        let mut poll = |t: SimTime| Some(snap(t, 80.0, 15.0, Technology::Nr5gMid));
        let mut c = |_t: SimTime| Some(ctx());
        let out = measure_tput(
            &mut poll,
            &mut c,
            Direction::Downlink,
            SimTime::EPOCH,
            SimTime::EPOCH + TPUT_TEST,
            1,
            Operator::TMobile,
            NetPath {
                kind: ServerKind::Cloud,
                core_owd_ms: 20.0,
            },
            true,
        );
        assert_eq!(out.samples.len(), 60);
        assert_eq!(out.coverage.len(), 60);
        // Steady 80 Mbps link: later samples should approach it.
        let tail_mean = out.samples[40..].iter().map(|s| s.mbps).sum::<f64>() / 20.0;
        assert!(tail_mean > 60.0, "tail mean {tail_mean}");
        assert!(out.hs5g_fraction > 0.99);
        assert!(out.bytes > 0.0);
    }

    #[test]
    fn tput_uses_direction_rate() {
        let mut poll = |t: SimTime| Some(snap(t, 100.0, 5.0, Technology::LteA));
        let mut c = |_t: SimTime| Some(ctx());
        let out = measure_tput(
            &mut poll,
            &mut c,
            Direction::Uplink,
            SimTime::EPOCH,
            SimTime::EPOCH + TPUT_TEST,
            2,
            Operator::TMobile,
            NetPath {
                kind: ServerKind::Cloud,
                core_owd_ms: 20.0,
            },
            true,
        );
        let tail = out.samples[40..].iter().map(|s| s.mbps).sum::<f64>() / 20.0;
        assert!(tail < 6.0, "uplink tail {tail}");
        assert!(out.hs5g_fraction < 0.01);
    }

    #[test]
    fn no_coverage_yields_coverage_rows_without_samples() {
        let mut poll = |_t: SimTime| None;
        let mut c = |_t: SimTime| Some(ctx());
        let out = measure_tput(
            &mut poll,
            &mut c,
            Direction::Downlink,
            SimTime::EPOCH,
            SimTime::EPOCH + TPUT_TEST,
            3,
            Operator::Att,
            NetPath {
                kind: ServerKind::Cloud,
                core_owd_ms: 25.0,
            },
            true,
        );
        assert!(out.samples.is_empty());
        assert_eq!(out.coverage.len(), 60);
        assert!(out.coverage.iter().all(|c| c.tech.is_none()));
    }

    #[test]
    fn rtt_test_fires_100_pings() {
        let mut poll = |t: SimTime| Some(snap(t, 50.0, 10.0, Technology::LteA));
        let mut c = |_t: SimTime| Some(ctx());
        let (samples, _cov, _f) = measure_rtt(
            &mut poll,
            &mut c,
            SimTime::EPOCH,
            SimTime::EPOCH + RTT_TEST,
            4,
            Operator::TMobile,
            NetPath {
                kind: ServerKind::Cloud,
                core_owd_ms: 20.0,
            },
            true,
            SimRng::seed(1),
        );
        assert_eq!(samples.len(), 100);
        let ok = samples.iter().filter(|s| s.rtt_ms.is_some()).count();
        assert!(ok > 90, "ok {ok}");
    }

    #[test]
    fn truncated_tput_keeps_only_complete_bins() {
        let mut poll = |t: SimTime| Some(snap(t, 80.0, 15.0, Technology::Nr5gMid));
        let mut c = |_t: SimTime| Some(ctx());
        // Cut mid-bin at 10.25 s: 20 complete 500 ms bins survive, the
        // half-filled 21st is discarded.
        let out = measure_tput(
            &mut poll,
            &mut c,
            Direction::Downlink,
            SimTime::EPOCH,
            SimTime::EPOCH + SimDuration::from_millis(10_250),
            5,
            Operator::TMobile,
            NetPath {
                kind: ServerKind::Cloud,
                core_owd_ms: 20.0,
            },
            true,
        );
        assert_eq!(out.samples.len(), 20);
        assert_eq!(out.coverage.len(), 20);
        assert!(out.bytes > 0.0);
    }

    #[test]
    fn truncated_rtt_stops_at_cut() {
        let mut poll = |t: SimTime| Some(snap(t, 50.0, 10.0, Technology::LteA));
        let mut c = |_t: SimTime| Some(ctx());
        let (samples, _cov, _f) = measure_rtt(
            &mut poll,
            &mut c,
            SimTime::EPOCH,
            SimTime::EPOCH + SimDuration::from_millis(10_100),
            6,
            Operator::TMobile,
            NetPath {
                kind: ServerKind::Cloud,
                core_owd_ms: 20.0,
            },
            true,
            SimRng::seed(1),
        );
        // Pings at 0, 200, …, 10_000 ms — 51 of the full run's 100.
        assert_eq!(samples.len(), 51);
    }

    #[test]
    fn base_rtt_combines_ran_and_core() {
        let s = snap(SimTime::EPOCH, 1.0, 1.0, Technology::Nr5gMmWave);
        let p = NetPath {
            kind: ServerKind::Edge,
            core_owd_ms: 1.8,
        };
        let r = base_rtt_ms(&s, &p);
        assert!((r - (2.0 * 4.0 + 3.6)).abs() < 1e-9);
    }
}
