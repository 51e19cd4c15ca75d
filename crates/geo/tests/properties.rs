//! Property-based tests for route geometry and the speed model.

use proptest::prelude::*;
use std::sync::OnceLock;
use wheels_geo::route::{LatLon, Route, ZoneClass};
use wheels_geo::speed::{SpeedModel, SpeedTargets};
use wheels_sim_core::rng::SimRng;
use wheels_sim_core::units::Distance;

fn route() -> &'static Route {
    static R: OnceLock<Route> = OnceLock::new();
    R.get_or_init(Route::standard)
}

proptest! {
    #[test]
    fn haversine_symmetric_and_triangleish(
        lat1 in 25.0f64..50.0, lon1 in -125.0f64..-65.0,
        lat2 in 25.0f64..50.0, lon2 in -125.0f64..-65.0,
        lat3 in 25.0f64..50.0, lon3 in -125.0f64..-65.0,
    ) {
        let a = LatLon { lat: lat1, lon: lon1 };
        let b = LatLon { lat: lat2, lon: lon2 };
        let c = LatLon { lat: lat3, lon: lon3 };
        let ab = a.haversine(b).as_m();
        let ba = b.haversine(a).as_m();
        prop_assert!((ab - ba).abs() < 1e-6);
        // Triangle inequality on the sphere.
        let ac = a.haversine(c).as_m();
        let cb = c.haversine(b).as_m();
        prop_assert!(ab <= ac + cb + 1e-6);
    }

    #[test]
    fn lerp_stays_in_bounding_box(lat1 in 25.0f64..50.0, lon1 in -125.0f64..-65.0, lat2 in 25.0f64..50.0, lon2 in -125.0f64..-65.0, f in -0.5f64..1.5) {
        let a = LatLon { lat: lat1, lon: lon1 };
        let b = LatLon { lat: lat2, lon: lon2 };
        let p = a.lerp(b, f); // clamps f internally
        prop_assert!(p.lat >= lat1.min(lat2) - 1e-9 && p.lat <= lat1.max(lat2) + 1e-9);
        prop_assert!(p.lon >= lon1.min(lon2) - 1e-9 && p.lon <= lon1.max(lon2) + 1e-9);
    }

    #[test]
    fn route_position_defined_everywhere(km in -100.0f64..6000.0) {
        let r = route();
        let p = r.position_at(Distance::from_km(km.max(0.0)));
        prop_assert!(p.lat > 30.0 && p.lat < 46.0, "lat {}", p.lat);
        prop_assert!(p.lon > -120.0 && p.lon < -70.0, "lon {}", p.lon);
        // Zone and timezone are total functions of position.
        let _ = r.zone_at(Distance::from_km(km.max(0.0)));
        let _ = r.timezone_at(Distance::from_km(km.max(0.0)));
    }

    #[test]
    fn route_positions_advance_eastward_on_average(km in 0.0f64..5000.0) {
        let r = route();
        let here = r.position_at(Distance::from_km(km));
        let there = r.position_at(Distance::from_km(km + 600.0));
        // The route generally heads east; over 600 km it always does.
        prop_assert!(there.lon > here.lon - 1.0, "lon {} -> {}", here.lon, there.lon);
    }

    #[test]
    fn timezone_never_regresses(km in 0.0f64..5600.0, d in 0.0f64..100.0) {
        let r = route();
        let a = r.timezone_at(Distance::from_km(km));
        let b = r.timezone_at(Distance::from_km(km + d));
        prop_assert!(b >= a, "{a:?} -> {b:?}");
    }

    #[test]
    fn speed_model_bounded_for_any_zone_sequence(
        seed in any::<u64>(),
        zones in prop::collection::vec(0u8..3, 10..200),
    ) {
        let mut rng = SimRng::seed(seed);
        let mut m = SpeedModel::new(SpeedTargets::default(), ZoneClass::Highway, &mut rng);
        for z in zones {
            let zone = match z {
                0 => ZoneClass::City,
                1 => ZoneClass::Suburban,
                _ => ZoneClass::Highway,
            };
            let s = m.step_1s(zone, &mut rng);
            prop_assert!(s.as_mph() >= 0.0 && s.as_mph() <= 85.0);
        }
    }
}

/// The zone rule as a scan of every waypoint: the oracle for
/// [`Route::zone_at`], which visits only the waypoints within reach. The
/// band half-widths are the route module's (city core 9 km, suburban
/// ring 28 km beyond it, town pocket 7 km).
fn zone_by_full_scan(r: &Route, odo: Distance) -> ZoneClass {
    let mut best = ZoneClass::Highway;
    for (i, w) in r.waypoints().iter().enumerate() {
        let d_km = (r.waypoint_odometer(i).as_km() - odo.as_km()).abs();
        if w.major_city {
            if d_km <= 9.0 {
                return ZoneClass::City;
            }
            if d_km <= 9.0 + 28.0 {
                best = ZoneClass::Suburban;
            }
        } else if d_km <= 7.0 {
            best = ZoneClass::Suburban;
        }
    }
    best
}

fn assert_zone_matches_full_scan(r: &Route, odo: Distance) {
    assert_eq!(
        r.zone_at(odo),
        zone_by_full_scan(r, odo),
        "at {} m ({:#x})",
        odo.as_m(),
        odo.as_m().to_bits()
    );
}

#[test]
fn windowed_zone_equals_full_scan_every_10_m() {
    let r = route();
    let steps = (r.total().as_m() / 10.0).ceil() as u64;
    for k in 0..=steps {
        assert_zone_matches_full_scan(r, Distance::from_m(k as f64 * 10.0));
    }
}

#[test]
fn windowed_zone_equals_full_scan_at_every_band_edge() {
    // The town pocket, city core and suburban ring edges around every
    // waypoint, the f64 values either side of each, and past both ends.
    let r = route();
    let mut probes = vec![0.0, r.total().as_km() + 0.001, r.total().as_km() + 100.0];
    for i in 0..r.waypoints().len() {
        let at = r.waypoint_odometer(i).as_km();
        for off in [0.0, 7.0, 9.0, 37.0] {
            probes.push(at - off);
            probes.push(at + off);
        }
    }
    for km in probes {
        let bits = Distance::from_km(km).as_m().to_bits();
        for bits in [bits.saturating_sub(1), bits, bits + 1] {
            assert_zone_matches_full_scan(r, Distance::from_m(f64::from_bits(bits)));
        }
    }
}

proptest! {
    #[test]
    fn windowed_zone_equals_full_scan_anywhere(km in -50.0f64..5800.0) {
        let r = route();
        let odo = Distance::from_km(km);
        prop_assert_eq!(r.zone_at(odo), zone_by_full_scan(r, odo));
    }
}
