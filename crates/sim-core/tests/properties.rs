//! Property-based tests for the statistics toolkit, RNG, time, and units.

use proptest::prelude::*;
use wheels_sim_core::rng::SimRng;
use wheels_sim_core::stats::{pearson, Cdf, LinearBins};
use wheels_sim_core::time::{SimDuration, SimTime, Timezone, WallClock};
use wheels_sim_core::units::{DataRate, Db, Dbm, Distance, Speed, SpeedBin};

proptest! {
    // ---------- Cdf ----------

    #[test]
    fn cdf_quantiles_are_monotone(mut xs in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let c = Cdf::from_samples(xs.drain(..));
        let mut last = f64::NEG_INFINITY;
        for i in 0..=20 {
            let q = c.quantile(i as f64 / 20.0).unwrap();
            prop_assert!(q >= last);
            last = q;
        }
    }

    #[test]
    fn cdf_quantiles_bounded_by_min_max(xs in prop::collection::vec(-1e6f64..1e6, 1..200), q in 0.0f64..1.0) {
        let c = Cdf::from_samples(xs.iter().copied());
        let v = c.quantile(q).unwrap();
        prop_assert!(v >= c.min().unwrap() - 1e-9);
        prop_assert!(v <= c.max().unwrap() + 1e-9);
    }

    #[test]
    fn cdf_fraction_is_monotone_cdf(xs in prop::collection::vec(-1e3f64..1e3, 1..100), a in -1e3f64..1e3, b in -1e3f64..1e3) {
        let c = Cdf::from_samples(xs.iter().copied());
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(c.fraction_at_or_below(lo) <= c.fraction_at_or_below(hi));
        prop_assert!(c.fraction_at_or_below(f64::INFINITY) == 1.0);
    }

    #[test]
    fn cdf_mean_between_min_and_max(xs in prop::collection::vec(-1e6f64..1e6, 1..100)) {
        let c = Cdf::from_samples(xs.iter().copied());
        let m = c.mean().unwrap();
        prop_assert!(m >= c.min().unwrap() - 1e-9 && m <= c.max().unwrap() + 1e-9);
    }

    // ---------- Pearson ----------

    #[test]
    fn pearson_in_unit_interval(pairs in prop::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 2..200)) {
        let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        if let Some(r) = pearson(&xs, &ys) {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r), "r = {r}");
        }
    }

    #[test]
    fn pearson_symmetric_and_self_correlated(xs in prop::collection::vec(-1e3f64..1e3, 3..100)) {
        let ys: Vec<f64> = xs.iter().map(|x| x * 2.0 + 1.0).collect();
        if let (Some(a), Some(b)) = (pearson(&xs, &ys), pearson(&ys, &xs)) {
            prop_assert!((a - b).abs() < 1e-9);
            prop_assert!((a - 1.0).abs() < 1e-6, "affine transform should give r=1, got {a}");
        }
    }

    // ---------- RNG ----------

    #[test]
    fn rng_split_is_deterministic_and_label_sensitive(seed in any::<u64>(), label in "[a-z]{1,12}") {
        let root = SimRng::seed(seed);
        let mut a = root.split(&label);
        let mut b = root.split(&label);
        prop_assert_eq!(a.uniform_u64(0, 1_000_000), b.uniform_u64(0, 1_000_000));
        let mut c = root.split(&format!("{label}x"));
        let va: Vec<u64> = (0..4).map(|_| a.uniform_u64(0, u64::MAX - 1)).collect();
        let vc: Vec<u64> = (0..4).map(|_| c.uniform_u64(0, u64::MAX - 1)).collect();
        prop_assert_ne!(va, vc);
    }

    #[test]
    fn rng_uniform_in_bounds(seed in any::<u64>(), lo in -1e6f64..1e6, width in 1e-3f64..1e6) {
        let mut r = SimRng::seed(seed);
        let hi = lo + width;
        for _ in 0..50 {
            let v = r.uniform(lo, hi);
            prop_assert!(v >= lo && v < hi);
        }
    }

    #[test]
    fn rng_lognormal_positive(seed in any::<u64>(), median in 1e-3f64..1e4, sigma in 0.0f64..2.0) {
        let mut r = SimRng::seed(seed);
        for _ in 0..20 {
            prop_assert!(r.lognormal_median(median, sigma) > 0.0);
        }
    }

    #[test]
    fn weighted_index_respects_zero_weights(seed in any::<u64>(), weights in prop::collection::vec(0.0f64..10.0, 1..10)) {
        let mut r = SimRng::seed(seed);
        match r.weighted_index(&weights) {
            Some(i) => prop_assert!(weights[i] > 0.0),
            None => prop_assert!(weights.iter().all(|w| *w <= 0.0)),
        }
    }

    // ---------- Time ----------

    #[test]
    fn wallclock_roundtrip_all_zones(ms in 0u64..(15 * 24 * 3_600_000)) {
        let t = SimTime(ms);
        prop_assert_eq!(WallClock::from_utc_ms(WallClock::utc_ms(t)), Some(t));
        for z in Timezone::ALL {
            prop_assert_eq!(WallClock::from_local_ms(WallClock::local_ms(t, z), z), Some(t));
        }
    }

    #[test]
    fn simtime_floor_is_idempotent_and_below(ms in 0u64..1e12 as u64, g in 1u64..10_000) {
        let t = SimTime(ms);
        let f = t.floor_to(g);
        prop_assert!(f <= t);
        prop_assert_eq!(f.floor_to(g), f);
        prop_assert_eq!(f.as_millis() % g, 0);
    }

    #[test]
    fn duration_add_sub_consistent(a in 0u64..1e9 as u64, b in 0u64..1e9 as u64) {
        let da = SimDuration(a);
        let db = SimDuration(b);
        prop_assert_eq!((da + db) - db, da);
    }

    // ---------- Units ----------

    #[test]
    fn db_linear_roundtrip(v in -120.0f64..120.0) {
        let g = Db(v);
        prop_assert!((Db::from_linear(g.as_linear()).0 - v).abs() < 1e-6);
    }

    #[test]
    fn dbm_power_sum_at_least_max(a in -140.0f64..0.0, b in -140.0f64..0.0) {
        let s = Dbm::power_sum([Dbm(a), Dbm(b)]);
        prop_assert!(s.0 >= a.max(b) - 1e-9);
        prop_assert!(s.0 <= a.max(b) + 3.02); // at most +3 dB for two terms
    }

    #[test]
    fn rate_bytes_roundtrip(mbps in 0.01f64..1e4, ms in 1u64..100_000) {
        let r = DataRate::from_mbps(mbps);
        let bytes = r.bytes_in_ms(ms);
        let back = DataRate::for_bytes_in_ms(bytes, ms as f64);
        prop_assert!((back.as_mbps() - mbps).abs() / mbps < 1e-9);
    }

    #[test]
    fn distance_speed_consistency(mph in 0.0f64..120.0, ms in 1u64..3_600_000) {
        let s = Speed::from_mph(mph);
        let d = s.distance_in_ms(ms);
        prop_assert!((d.as_miles() - mph * ms as f64 / 3_600_000.0).abs() < 1e-6);
    }

    #[test]
    fn speed_bins_partition(mph in 0.0f64..200.0) {
        let bin = SpeedBin::of(Speed::from_mph(mph));
        let expected = if mph < 20.0 {
            SpeedBin::Low
        } else if mph < 60.0 {
            SpeedBin::Mid
        } else {
            SpeedBin::High
        };
        prop_assert_eq!(bin, expected);
    }

    #[test]
    fn linear_bins_cover_all_reals(x in -1e9f64..1e9, origin in -100.0f64..100.0, width in 0.1f64..100.0, count in 1usize..100) {
        let b = LinearBins { origin, width, count };
        let i = b.bin_of(x);
        prop_assert!(i < count);
        let (lo, hi) = b.edges(i);
        // Clamped values may fall outside their bin edges; interior ones may not.
        if x >= origin && x < origin + width * count as f64 {
            prop_assert!(x >= lo - 1e-9 && x < hi + 1e-9);
        }
        let _ = Distance::from_m(1.0); // keep the import exercised
    }
}
