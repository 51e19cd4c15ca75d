//! Carrier aggregation and aggregate link rate.
//!
//! A UE's aggregate rate is the sum over its component carriers (possibly
//! spanning technologies — EN-DC runs NR legs beside an LTE anchor), capped
//! by the device. §5.5's CA finding is reproduced structurally: more
//! carriers do not always mean more throughput, because secondary carriers
//! run at progressively lower SINR and an LTE anchor carrier contributes
//! only LTE-grade bandwidth.

use serde::{Deserialize, Serialize};
use wheels_sim_core::units::{DataRate, Db};

use crate::mcs::{
    bler, goodput_mcs, harq_goodput_factor, mcs_from_sinr, spectral_efficiency_table,
};
use crate::tech::{Direction, Technology};

/// One block of identical component carriers in an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CarrierComponent {
    /// The carriers' technology.
    pub tech: Technology,
    /// Number of carriers of this technology.
    pub count: u8,
}

impl CarrierComponent {
    /// The carrier count, clamped to the device's limit for the
    /// technology in `dir`.
    fn device_count(self, dir: Direction) -> u8 {
        self.count.min(self.tech.max_ccs(dir))
    }
}

/// The set of carriers currently serving one UE in one direction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CarrierAllocation {
    /// The primary (anchor) component; its tech is what XCAL reports as
    /// the serving technology, and its SINR drives the reported MCS/BLER.
    pub primary: CarrierComponent,
    /// Secondary components (may be a different technology under EN-DC).
    pub secondaries: Vec<CarrierComponent>,
}

impl CarrierAllocation {
    /// Single-carrier allocation.
    pub fn single(tech: Technology) -> Self {
        CarrierAllocation {
            primary: CarrierComponent { tech, count: 1 },
            secondaries: Vec::new(),
        }
    }

    /// Total number of component carriers.
    pub fn total_carriers(&self) -> u8 {
        self.primary.count + self.secondaries.iter().map(|c| c.count).sum::<u8>()
    }

    /// Clamp carrier counts to the device's per-technology limits.
    pub fn clamped_to_device(mut self, dir: Direction) -> Self {
        self.primary.count = self.primary.device_count(dir).max(1);
        for c in &mut self.secondaries {
            c.count = c.device_count(dir);
        }
        self.secondaries.retain(|c| c.count > 0);
        self
    }
}

/// Per-technology device peak rates (Samsung S21-class): the modem caps
/// the aggregate regardless of spectrum (3.5 Gbps DL / 350 Mbps UL on
/// mmWave per the paper's testbed description, Appendix B).
pub fn device_peak(tech: Technology, dir: Direction) -> DataRate {
    let mbps = match (tech, dir) {
        (Technology::Lte, Direction::Downlink) => 110.0,
        (Technology::Lte, Direction::Uplink) => 45.0,
        (Technology::LteA, Direction::Downlink) => 450.0,
        (Technology::LteA, Direction::Uplink) => 90.0,
        (Technology::Nr5gLow, Direction::Downlink) => 160.0,
        (Technology::Nr5gLow, Direction::Uplink) => 60.0,
        (Technology::Nr5gMid, Direction::Downlink) => 1200.0,
        (Technology::Nr5gMid, Direction::Uplink) => 160.0,
        (Technology::Nr5gMmWave, Direction::Downlink) => 3500.0,
        (Technology::Nr5gMmWave, Direction::Uplink) => 350.0,
    };
    DataRate::from_mbps(mbps)
}

/// SINR degradation of the i-th extra carrier relative to the primary
/// (secondary cells are farther / less optimized).
const SECONDARY_SINR_STEP_DB: f64 = 1.8;

/// Protocol overhead (reference signals, control channels, headers) taken
/// off the PHY rate.
const OVERHEAD: f64 = 0.82;

/// Maximum MIMO layers by technology and direction.
fn mimo_layers(tech: Technology, dir: Direction) -> f64 {
    match (tech, dir) {
        (Technology::Nr5gMid, Direction::Downlink) => 4.0,
        (Technology::Nr5gMmWave, Direction::Downlink) => 2.0,
        (Technology::LteA, Direction::Downlink) => 2.0,
        (Technology::Lte, Direction::Downlink) => 2.0,
        (Technology::Nr5gLow, Direction::Downlink) => 2.0,
        (_, Direction::Uplink) => 1.0,
    }
}

/// Rank adaptation: usable spatial layers grow with SINR (rank 2 needs
/// roughly 15 dB, rank 4 roughly 33 dB), capped by the configuration.
fn effective_layers(sinr: Db, max_layers: f64) -> f64 {
    (1.0 + (sinr.0 - 6.0) / 9.0).clamp(1.0, max_layers)
}

/// A computed aggregate link: total rate plus the primary-cell KPIs XCAL
/// would report.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AggregateLink {
    /// Aggregate achievable goodput in this direction.
    pub rate: DataRate,
    /// Primary cell's MCS (the Table 2 KPI).
    pub primary_mcs: u8,
    /// Primary cell's initial BLER (the Table 2 KPI).
    pub primary_bler: f64,
    /// Total component carriers in the allocation (the Table 2 CA KPI).
    pub carriers: u8,
}

/// Rate of `count` carriers of `tech` at `sinr` (each successive carrier
/// loses `SECONDARY_SINR_STEP_DB` relative to the block's first).
fn component_rate(tech: Technology, count: u8, first_sinr: Db, dir: Direction) -> DataRate {
    let bw_hz = tech.cc_bandwidth_mhz() * 1e6 * tech.direction_fraction(dir);
    let max_layers = mimo_layers(tech, dir);
    let mut total = 0.0;
    for i in 0..count {
        let sinr = Db(first_sinr.0 - SECONDARY_SINR_STEP_DB * i as f64);
        // Transmit with the goodput-optimal index; the XCAL-reported KPI
        // (primary_mcs below) keeps the raw SINR-indicated index.
        let m = goodput_mcs(sinr);
        let se = spectral_efficiency_table()[usize::from(m.0)];
        let goodput = harq_goodput_factor(bler(sinr, m));
        total += bw_hz * se * effective_layers(sinr, max_layers) * goodput * OVERHEAD;
    }
    DataRate::from_bps(total)
}

/// Compute the aggregate link for an allocation.
///
/// `primary_sinr` is the SINR on the primary carrier; each secondary block
/// starts `SECONDARY_SINR_STEP_DB` below the previous block's first
/// carrier. `load_factor` in 0..=1 is the fraction of cell resources
/// available to this UE (1 = empty cell).
pub fn aggregate(
    alloc: &CarrierAllocation,
    dir: Direction,
    primary_sinr: Db,
    load_factor: f64,
) -> AggregateLink {
    // The device clamp of `CarrierAllocation::clamped_to_device`, applied
    // per component as it is read instead of on a clone.
    let primary_count = alloc.primary.device_count(dir).max(1);
    let secondaries = alloc
        .secondaries
        .iter()
        .map(|c| (c.tech, c.device_count(dir)))
        .filter(|&(_, count)| count > 0);
    let load = load_factor.clamp(0.0, 1.0);

    let mut rate = component_rate(alloc.primary.tech, primary_count, primary_sinr, dir);
    let mut block_start = primary_sinr.0 - SECONDARY_SINR_STEP_DB * primary_count as f64;
    // Device cap follows the fastest technology present.
    let mut cap = device_peak(alloc.primary.tech, dir);
    let mut carriers = primary_count;
    for (tech, count) in secondaries {
        rate = rate + component_rate(tech, count, Db(block_start), dir);
        block_start -= SECONDARY_SINR_STEP_DB * count as f64;
        cap = cap.max(device_peak(tech, dir));
        carriers += count;
    }

    let m = mcs_from_sinr(primary_sinr);
    AggregateLink {
        rate: (rate * load).min(cap),
        primary_mcs: m.0,
        primary_bler: bler(primary_sinr, m),
        carriers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_lte_carrier_realistic_rate() {
        let a = CarrierAllocation::single(Technology::Lte);
        let l = aggregate(&a, Direction::Downlink, Db(18.0), 1.0);
        // Good LTE link: several tens of Mbps, below the 110 cap.
        assert!(
            l.rate.as_mbps() > 40.0 && l.rate.as_mbps() <= 110.0,
            "rate {}",
            l.rate.as_mbps()
        );
    }

    #[test]
    fn mmwave_peak_hits_device_cap() {
        let a = CarrierAllocation {
            primary: CarrierComponent {
                tech: Technology::Nr5gMmWave,
                count: 8,
            },
            secondaries: vec![],
        };
        let l = aggregate(&a, Direction::Downlink, Db(28.0), 1.0);
        assert!(
            (l.rate.as_mbps() - 3500.0).abs() < 1e-6,
            "rate {}",
            l.rate.as_mbps()
        );
    }

    #[test]
    fn uplink_much_slower_than_downlink() {
        for tech in Technology::ALL {
            let a = CarrierAllocation::single(tech);
            let dl = aggregate(&a, Direction::Downlink, Db(15.0), 1.0);
            let ul = aggregate(&a, Direction::Uplink, Db(15.0), 1.0);
            assert!(
                dl.rate.as_mbps() > ul.rate.as_mbps() * 1.5,
                "{tech:?}: dl {} ul {}",
                dl.rate.as_mbps(),
                ul.rate.as_mbps()
            );
        }
    }

    #[test]
    fn more_carriers_more_rate_below_cap() {
        let one = CarrierAllocation::single(Technology::LteA);
        let three = CarrierAllocation {
            primary: CarrierComponent {
                tech: Technology::LteA,
                count: 3,
            },
            secondaries: vec![],
        };
        let r1 = aggregate(&one, Direction::Downlink, Db(12.0), 1.0);
        let r3 = aggregate(&three, Direction::Downlink, Db(12.0), 1.0);
        assert!(r3.rate.as_mbps() > r1.rate.as_mbps() * 2.0);
        assert_eq!(r1.carriers, 1);
        assert_eq!(r3.carriers, 3);
    }

    #[test]
    fn lte_anchor_contributes_little_beside_nr_mid() {
        // EN-DC: NR mid primary + LTE anchor secondary. The anchor adds a
        // carrier (CA KPI goes up) but little rate — the paper's T-Mobile
        // UL CA observation.
        let nr_only = CarrierAllocation::single(Technology::Nr5gMid);
        let endc = CarrierAllocation {
            primary: CarrierComponent {
                tech: Technology::Nr5gMid,
                count: 1,
            },
            secondaries: vec![CarrierComponent {
                tech: Technology::Lte,
                count: 1,
            }],
        };
        let a = aggregate(&nr_only, Direction::Uplink, Db(10.0), 1.0);
        let b = aggregate(&endc, Direction::Uplink, Db(10.0), 1.0);
        assert!(b.carriers == 2 && a.carriers == 1);
        let gain = b.rate.as_mbps() / a.rate.as_mbps();
        assert!(gain < 1.7, "EN-DC UL gain {gain}");
    }

    #[test]
    fn load_scales_rate_linearly() {
        let a = CarrierAllocation::single(Technology::Nr5gMid);
        let full = aggregate(&a, Direction::Downlink, Db(14.0), 1.0);
        let half = aggregate(&a, Direction::Downlink, Db(14.0), 0.5);
        assert!((half.rate.as_mbps() - full.rate.as_mbps() / 2.0).abs() < 1e-6);
    }

    #[test]
    fn clamp_respects_device_limits() {
        let a = CarrierAllocation {
            primary: CarrierComponent {
                tech: Technology::Nr5gMmWave,
                count: 20,
            },
            secondaries: vec![CarrierComponent {
                tech: Technology::Lte,
                count: 9,
            }],
        }
        .clamped_to_device(Direction::Downlink);
        assert_eq!(a.primary.count, 8);
        assert_eq!(a.secondaries[0].count, 1);
        let ul = CarrierAllocation {
            primary: CarrierComponent {
                tech: Technology::Nr5gMmWave,
                count: 20,
            },
            secondaries: vec![],
        }
        .clamped_to_device(Direction::Uplink);
        assert_eq!(ul.primary.count, 2);
    }

    #[test]
    fn bad_sinr_yields_tiny_rate() {
        let a = CarrierAllocation::single(Technology::Nr5gMid);
        let l = aggregate(&a, Direction::Downlink, Db(-8.0), 1.0);
        assert!(l.rate.as_mbps() < 20.0, "rate {}", l.rate.as_mbps());
        assert!(l.primary_bler > 0.3);
        assert_eq!(l.primary_mcs, 0);
    }

    #[test]
    fn kpis_reflect_primary_only() {
        let endc = CarrierAllocation {
            primary: CarrierComponent {
                tech: Technology::Lte,
                count: 1,
            },
            secondaries: vec![CarrierComponent {
                tech: Technology::Nr5gMid,
                count: 2,
            }],
        };
        let l = aggregate(&endc, Direction::Downlink, Db(20.0), 1.0);
        assert_eq!(l.primary_mcs, mcs_from_sinr(Db(20.0)).0);
        assert_eq!(l.carriers, 3);
    }

    #[test]
    fn tmobile_midband_driving_peak_plausible() {
        // Fig. 4: T-Mobile 5G-mid DL reaches ~760 Mbps while driving. Two
        // n41 carriers at strong SINR with some load should sit in the
        // several-hundred-Mbps regime.
        let a = CarrierAllocation {
            primary: CarrierComponent {
                tech: Technology::Nr5gMid,
                count: 2,
            },
            secondaries: vec![],
        };
        let l = aggregate(&a, Direction::Downlink, Db(24.0), 0.7);
        assert!(
            l.rate.as_mbps() > 500.0 && l.rate.as_mbps() <= 1200.0,
            "rate {}",
            l.rate.as_mbps()
        );
    }
}
