//! Property-based tests for link adaptation and carrier aggregation.

use proptest::prelude::*;
use wheels_radio::ca::{aggregate, device_peak, CarrierAllocation, CarrierComponent};
use wheels_radio::linkbudget::LinkBudget;
use wheels_radio::mcs::{
    bler, goodput_mcs, harq_goodput_factor, mcs_from_sinr, spectral_efficiency,
    spectral_efficiency_table, McsIndex,
};
use wheels_radio::tech::{Direction, Technology};
use wheels_sim_core::units::{DataRate, Db, Distance};

fn any_tech() -> impl Strategy<Value = Technology> {
    prop::sample::select(Technology::ALL.to_vec())
}

fn any_dir() -> impl Strategy<Value = Direction> {
    prop::sample::select(Direction::ALL.to_vec())
}

/// `aggregate` as first written: clamp a clone of the allocation, then
/// call `spectral_efficiency` for every carrier. The constants are the
/// private ones of `ca.rs` (SINR step 1.8 dB, overhead 0.82, MIMO layers).
fn aggregate_reference(
    alloc: &CarrierAllocation,
    dir: Direction,
    primary_sinr: Db,
    load_factor: f64,
) -> (DataRate, u8, f64, u8) {
    const STEP_DB: f64 = 1.8;
    let layers = |tech: Technology| match (tech, dir) {
        (Technology::Nr5gMid, Direction::Downlink) => 4.0,
        (_, Direction::Downlink) => 2.0,
        (_, Direction::Uplink) => 1.0,
    };
    let component = |tech: Technology, count: u8, first_sinr: f64| {
        let bw_hz = tech.cc_bandwidth_mhz() * 1e6 * tech.direction_fraction(dir);
        let mut total = 0.0;
        for i in 0..count {
            let sinr = Db(first_sinr - STEP_DB * i as f64);
            let m = goodput_mcs(sinr);
            let se = spectral_efficiency(m);
            let goodput = harq_goodput_factor(bler(sinr, m));
            let eff_layers = (1.0 + (sinr.0 - 6.0) / 9.0).clamp(1.0, layers(tech));
            total += bw_hz * se * eff_layers * goodput * 0.82;
        }
        DataRate::from_bps(total)
    };
    let alloc = alloc.clone().clamped_to_device(dir);
    let mut rate = component(alloc.primary.tech, alloc.primary.count, primary_sinr.0);
    let mut block_start = primary_sinr.0 - STEP_DB * alloc.primary.count as f64;
    for c in &alloc.secondaries {
        rate = rate + component(c.tech, c.count, block_start);
        block_start -= STEP_DB * c.count as f64;
    }
    let cap = core::iter::once(alloc.primary.tech)
        .chain(alloc.secondaries.iter().map(|c| c.tech))
        .map(|t| device_peak(t, dir))
        .fold(DataRate::ZERO, DataRate::max);
    let m = mcs_from_sinr(primary_sinr);
    (
        (rate * load_factor.clamp(0.0, 1.0)).min(cap),
        m.0,
        bler(primary_sinr, m),
        alloc.total_carriers(),
    )
}

#[test]
fn spectral_efficiency_table_bit_equal_to_function() {
    for (i, se) in spectral_efficiency_table().iter().enumerate() {
        let mcs = McsIndex(u8::try_from(i).expect("29 indices"));
        assert_eq!(se.to_bits(), spectral_efficiency(mcs).to_bits(), "mcs {i}");
    }
}

proptest! {
    // A bit-equality oracle is cheap per case, so it runs many.
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn aggregate_bit_equal_to_clone_and_clamp_reference(
        primary in (any_tech(), 0u8..=8),
        secondaries in prop::collection::vec((any_tech(), 0u8..=8), 1..4),
        sinr in -20.0f64..=45.0,
        load in 0.0f64..=1.0,
    ) {
        let component = |(tech, count)| CarrierComponent { tech, count };
        let alloc = CarrierAllocation {
            primary: component(primary),
            secondaries: secondaries.into_iter().map(component).collect(),
        };
        for dir in Direction::ALL {
            let link = aggregate(&alloc, dir, Db(sinr), load);
            let (rate, mcs, bler, carriers) = aggregate_reference(&alloc, dir, Db(sinr), load);
            prop_assert_eq!(link.rate.as_bps().to_bits(), rate.as_bps().to_bits());
            prop_assert_eq!(link.primary_mcs, mcs);
            prop_assert_eq!(link.primary_bler.to_bits(), bler.to_bits());
            prop_assert_eq!(link.carriers, carriers);
        }
    }
}

proptest! {
    #[test]
    fn mcs_monotone_nondecreasing(a in -30.0f64..50.0, d in 0.0f64..20.0) {
        prop_assert!(mcs_from_sinr(Db(a + d)) >= mcs_from_sinr(Db(a)));
    }

    #[test]
    fn bler_in_unit_interval_and_monotone_in_sinr(sinr in -40.0f64..60.0, mcs in 0u8..=28) {
        let m = McsIndex(mcs);
        let b = bler(Db(sinr), m);
        prop_assert!((0.0..=1.0).contains(&b));
        let better = bler(Db(sinr + 5.0), m);
        prop_assert!(better <= b + 1e-12);
    }

    #[test]
    fn spectral_efficiency_positive_and_bounded(mcs in 0u8..=28) {
        let se = spectral_efficiency(McsIndex(mcs));
        prop_assert!(se > 0.0 && se <= 5.55 + 1e-12);
    }

    #[test]
    fn harq_factor_bounded(b in -1.0f64..2.0) {
        let f = harq_goodput_factor(b);
        prop_assert!((0.5..=1.0).contains(&f));
    }

    #[test]
    fn aggregate_rate_nonnegative_and_capped(
        tech in any_tech(),
        dir in any_dir(),
        sinr in -30.0f64..50.0,
        load in 0.0f64..1.0,
        count in 1u8..10,
    ) {
        let alloc = CarrierAllocation {
            primary: CarrierComponent { tech, count },
            secondaries: vec![],
        };
        let link = aggregate(&alloc, dir, Db(sinr), load);
        prop_assert!(link.rate.as_bps() >= 0.0);
        prop_assert!(link.rate.as_bps() <= device_peak(tech, dir).as_bps() + 1e-6);
        prop_assert!(link.primary_mcs <= 28);
        prop_assert!((0.0..=1.0).contains(&link.primary_bler));
        prop_assert!(link.carriers >= 1);
    }

    #[test]
    fn aggregate_monotone_in_load(
        tech in any_tech(),
        dir in any_dir(),
        sinr in -10.0f64..40.0,
        lo in 0.0f64..1.0,
        d in 0.0f64..1.0,
    ) {
        let hi = (lo + d).min(1.0);
        let alloc = CarrierAllocation::single(tech);
        let a = aggregate(&alloc, dir, Db(sinr), lo);
        let b = aggregate(&alloc, dir, Db(sinr), hi);
        prop_assert!(b.rate.as_bps() >= a.rate.as_bps() - 1e-6);
    }

    #[test]
    fn aggregate_monotone_in_sinr(
        tech in any_tech(),
        dir in any_dir(),
        sinr in -20.0f64..40.0,
        d in 0.0f64..15.0,
    ) {
        let alloc = CarrierAllocation::single(tech);
        let a = aggregate(&alloc, dir, Db(sinr), 0.8);
        let b = aggregate(&alloc, dir, Db(sinr + d), 0.8);
        prop_assert!(b.rate.as_bps() >= a.rate.as_bps() - 1e-6);
    }

    #[test]
    fn clamp_never_exceeds_device_limits(
        tech in any_tech(),
        dir in any_dir(),
        count in 1u8..30,
    ) {
        let alloc = CarrierAllocation {
            primary: CarrierComponent { tech, count },
            secondaries: vec![CarrierComponent { tech: Technology::Lte, count: 7 }],
        }
        .clamped_to_device(dir);
        prop_assert!(alloc.primary.count <= tech.max_ccs(dir));
        prop_assert!(alloc.primary.count >= 1);
        for s in &alloc.secondaries {
            prop_assert!(s.count <= s.tech.max_ccs(dir));
            prop_assert!(s.count >= 1);
        }
    }

    #[test]
    fn path_loss_monotone_in_distance(tech in any_tech(), m in 10.0f64..20_000.0, d in 0.0f64..5_000.0) {
        let lb = LinkBudget::for_tech(tech);
        let near = lb.path_loss(Distance::from_m(m));
        let far = lb.path_loss(Distance::from_m(m + d));
        prop_assert!(far.0 >= near.0 - 1e-9);
    }

    #[test]
    fn rx_power_below_eirp(tech in any_tech(), m in 10.0f64..20_000.0) {
        let lb = LinkBudget::for_tech(tech);
        prop_assert!(lb.mean_rx_power(Distance::from_m(m)).0 < lb.eirp.0);
    }
}
