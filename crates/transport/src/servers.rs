//! The measurement server fleet.
//!
//! §3: two EC2 cloud locations — California for tests run in the Pacific
//! and Mountain timezones, Ohio for Central and Eastern — plus five
//! Wavelength edge servers *inside Verizon's network* in Los Angeles, Las
//! Vegas, Denver, Chicago, and Boston. Only Verizon traffic can reach the
//! edge servers, and only while driving within one of those metros.
//!
//! One-way delay = fiber propagation over the great-circle distance times a
//! routing-inflation factor, plus a fixed processing/core component. The
//! edge path skips the Internet leg entirely (it terminates at the mobile
//! core), which is what gives Fig. 4's edge-vs-cloud RTT gap.

use serde::{Deserialize, Serialize};
use wheels_geo::route::{LatLon, Route};
use wheels_ran::operator::Operator;
use wheels_sim_core::time::Timezone;
use wheels_sim_core::units::Distance;

/// Cloud (remote EC2) or edge (Wavelength) termination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ServerKind {
    /// Remote AWS EC2 (California or Ohio).
    Cloud,
    /// Verizon Wavelength edge (inside the operator network).
    Edge,
}

impl ServerKind {
    /// Label used in figures ("cloud"/"edge").
    pub fn label(self) -> &'static str {
        match self {
            ServerKind::Cloud => "cloud",
            ServerKind::Edge => "edge",
        }
    }
}

/// A resolved network path from the UE's current location to the serving
/// test server.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetPath {
    /// Cloud or edge.
    pub kind: ServerKind,
    /// One-way delay beyond the RAN, in milliseconds.
    pub core_owd_ms: f64,
}

/// EC2 us-west (N. California region proxy).
const CLOUD_CA: LatLon = LatLon {
    lat: 37.35,
    lon: -121.95,
};
/// EC2 us-east-2 (Ohio).
const CLOUD_OH: LatLon = LatLon {
    lat: 40.10,
    lon: -83.15,
};

/// Fiber propagation: ~5 µs/km one way.
const FIBER_MS_PER_KM: f64 = 0.005;
/// Routing inflation over great-circle distance.
const ROUTE_INFLATION: f64 = 1.9;
/// Fixed mobile-core + peering component of the cloud path (one way).
const CORE_FIXED_MS: f64 = 6.0;
/// One-way delay of the Wavelength edge path (terminates in the mobile
/// core of the metro).
const EDGE_OWD_MS: f64 = 1.8;
/// How far from an edge-city center the Wavelength server is still used.
const EDGE_METRO_RADIUS_KM: f64 = 35.0;

/// The deployed server fleet.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ServerFleet;

impl ServerFleet {
    /// The fleet of §3.
    pub fn standard() -> Self {
        ServerFleet
    }

    /// Which cloud location serves a test run from timezone `tz`.
    pub fn cloud_location(tz: Timezone) -> LatLon {
        match tz {
            Timezone::Pacific | Timezone::Mountain => CLOUD_CA,
            Timezone::Central | Timezone::Eastern => CLOUD_OH,
        }
    }

    /// Resolve the path for `operator` at route position `odo`.
    ///
    /// Verizon gets the Wavelength edge inside the five edge metros; every
    /// other combination goes to the timezone's cloud server.
    pub fn path(&self, operator: Operator, route: &Route, odo: Distance) -> NetPath {
        if operator.has_edge_servers() && Self::in_edge_metro(route, odo) {
            return NetPath {
                kind: ServerKind::Edge,
                core_owd_ms: EDGE_OWD_MS,
            };
        }
        self.cloud_path(route, odo)
    }

    /// Force the cloud path regardless of edge availability (used by the
    /// edge-vs-cloud comparisons and ablations).
    pub fn cloud_path(&self, route: &Route, odo: Distance) -> NetPath {
        let pos = route.position_at(odo);
        let tz = route.timezone_at(odo);
        let cloud = Self::cloud_location(tz);
        let dist_km = pos.haversine(cloud).as_km();
        NetPath {
            kind: ServerKind::Cloud,
            core_owd_ms: CORE_FIXED_MS + dist_km * FIBER_MS_PER_KM * ROUTE_INFLATION,
        }
    }

    /// Whether `odo` lies within an edge metro.
    pub fn in_edge_metro(route: &Route, odo: Distance) -> bool {
        route.waypoints().iter().enumerate().any(|(i, w)| {
            w.edge_city
                && (route.waypoint_odometer(i).as_km() - odo.as_km()).abs() <= EDGE_METRO_RADIUS_KM
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verizon_gets_edge_in_la() {
        let route = Route::standard();
        let fleet = ServerFleet::standard();
        let p = fleet.path(Operator::Verizon, &route, Distance::from_km(2.0));
        assert_eq!(p.kind, ServerKind::Edge);
        assert!(p.core_owd_ms < 3.0);
    }

    #[test]
    fn other_operators_never_get_edge() {
        let route = Route::standard();
        let fleet = ServerFleet::standard();
        for op in [Operator::TMobile, Operator::Att] {
            for km in (0..5700).step_by(50) {
                let p = fleet.path(op, &route, Distance::from_km(km as f64));
                assert_eq!(p.kind, ServerKind::Cloud, "{op:?} at {km} km");
            }
        }
    }

    #[test]
    fn verizon_cloud_outside_edge_metros() {
        let route = Route::standard();
        let fleet = ServerFleet::standard();
        // Mid-Wyoming is far from any edge city.
        let p = fleet.path(Operator::Verizon, &route, Distance::from_km(1400.0));
        assert_eq!(p.kind, ServerKind::Cloud);
    }

    #[test]
    fn edge_owd_much_lower_than_cloud() {
        let route = Route::standard();
        let fleet = ServerFleet::standard();
        let edge = fleet.path(Operator::Verizon, &route, Distance::from_km(2.0));
        let cloud = fleet.cloud_path(&route, Distance::from_km(2.0));
        assert!(edge.core_owd_ms * 3.0 < cloud.core_owd_ms);
    }

    #[test]
    fn cloud_owd_grows_with_distance_from_server() {
        let route = Route::standard();
        let fleet = ServerFleet::standard();
        // LA is near the CA cloud; mid-Utah (still Mountain → CA cloud) is
        // farther.
        let near = fleet.cloud_path(&route, Distance::from_km(10.0));
        let far = fleet.cloud_path(&route, Distance::from_km(1100.0));
        assert!(far.core_owd_ms > near.core_owd_ms + 2.0);
    }

    #[test]
    fn cloud_switches_to_ohio_in_central() {
        let route = Route::standard();
        // Find a Central-timezone position.
        let mut central_odo = None;
        for km in (0..5700).step_by(10) {
            if route.timezone_at(Distance::from_km(km as f64)) == Timezone::Central {
                central_odo = Some(Distance::from_km(km as f64));
                break;
            }
        }
        let odo = central_odo.expect("route crosses Central");
        let cloud = ServerFleet::cloud_location(route.timezone_at(odo));
        assert!((cloud.lon - CLOUD_OH.lon).abs() < 1e-9);
    }

    #[test]
    fn all_five_edge_metros_reachable() {
        let route = Route::standard();
        let fleet = ServerFleet::standard();
        let mut edge_hits = 0;
        for (i, w) in route.waypoints().iter().enumerate() {
            if w.edge_city {
                let p = fleet.path(Operator::Verizon, &route, route.waypoint_odometer(i));
                assert_eq!(p.kind, ServerKind::Edge, "{}", w.name);
                edge_hits += 1;
            }
        }
        assert_eq!(edge_hits, 5);
    }

    #[test]
    fn cloud_owd_realistic_range() {
        let route = Route::standard();
        let fleet = ServerFleet::standard();
        for km in (0..5700).step_by(100) {
            let p = fleet.cloud_path(&route, Distance::from_km(km as f64));
            assert!(
                (6.0..45.0).contains(&p.core_owd_ms),
                "owd {} at {km} km",
                p.core_owd_ms
            );
        }
    }
}
