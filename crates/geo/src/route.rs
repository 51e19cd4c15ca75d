//! The LA→Boston route.
//!
//! The paper drove 5711+ km over 8 days (08/08–08/15/2022) through Las
//! Vegas, Salt Lake City, Denver, Omaha, Chicago, Indianapolis, Cleveland
//! and Rochester. We model the route as a waypoint polyline following the
//! actual interstates (I-15, I-80, I-25, I-76, I-65, I-70/71, I-90). Each
//! leg carries an explicit *road* distance — great-circle distance times a
//! winding factor, rescaled so the total matches the paper's 5711 km — and
//! positions along a leg interpolate between the endpoint coordinates.
//!
//! Zone classification: a band around each major city is `City`, a wider
//! band is `Suburban`, everything else is `Highway`, with additional small
//! suburban pockets for the towns between cities (the paper's "mid-speed
//! region ... from sub-urban areas in-between cities/towns", §5.5).

use serde::{Deserialize, Serialize};
use wheels_sim_core::time::Timezone;
use wheels_sim_core::units::Distance;

/// A geographic coordinate in degrees.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatLon {
    /// Latitude, degrees north.
    pub lat: f64,
    /// Longitude, degrees east (US longitudes are negative).
    pub lon: f64,
}

impl LatLon {
    /// Great-circle distance via the haversine formula.
    pub fn haversine(self, other: LatLon) -> Distance {
        const R_EARTH_M: f64 = 6_371_000.0;
        let (la1, lo1) = (self.lat.to_radians(), self.lon.to_radians());
        let (la2, lo2) = (other.lat.to_radians(), other.lon.to_radians());
        let dlat = la2 - la1;
        let dlon = lo2 - lo1;
        let a = (dlat / 2.0).sin().powi(2) + la1.cos() * la2.cos() * (dlon / 2.0).sin().powi(2);
        Distance::from_m(2.0 * R_EARTH_M * a.sqrt().asin())
    }

    /// Linear interpolation between two coordinates (adequate for the
    /// sub-100 km legs we use).
    pub fn lerp(self, other: LatLon, f: f64) -> LatLon {
        let f = f.clamp(0.0, 1.0);
        LatLon {
            lat: self.lat + (other.lat - self.lat) * f,
            lon: self.lon + (other.lon - self.lon) * f,
        }
    }

    /// The US timezone this longitude falls in along the I-15/I-80/I-90
    /// corridor (approximate boundary meridians for the 2022 route).
    pub fn timezone(self) -> Timezone {
        if self.lon < -114.04 {
            Timezone::Pacific
        } else if self.lon < -101.0 {
            Timezone::Mountain
        } else if self.lon < -87.0 {
            Timezone::Central
        } else {
            Timezone::Eastern
        }
    }
}

/// Road-zone classification, the paper's proxy for deployment density and
/// driving speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ZoneClass {
    /// Downtown / dense urban: low speeds, dense deployments, mmWave.
    City,
    /// In-between towns and city outskirts: mid speeds, sparser cells.
    Suburban,
    /// Interstate highway: high speeds, sparse macro cells.
    Highway,
}

impl ZoneClass {
    /// All classes.
    pub const ALL: [ZoneClass; 3] = [ZoneClass::City, ZoneClass::Suburban, ZoneClass::Highway];
}

/// A named point on the route.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Waypoint {
    /// Place name.
    pub name: &'static str,
    /// Coordinates.
    pub pos: LatLon,
    /// One of the paper's 10 major cities (static tests + overnight stops).
    pub major_city: bool,
    /// Hosts a Verizon Wavelength edge server (LA, Las Vegas, Denver,
    /// Chicago, Boston — §3).
    pub edge_city: bool,
}

const fn wp(name: &'static str, lat: f64, lon: f64) -> Waypoint {
    Waypoint {
        name,
        pos: LatLon { lat, lon },
        major_city: false,
        edge_city: false,
    }
}

const fn city(name: &'static str, lat: f64, lon: f64, edge: bool) -> Waypoint {
    Waypoint {
        name,
        pos: LatLon { lat, lon },
        major_city: true,
        edge_city: edge,
    }
}

/// The route's waypoints, west to east, following the interstates the trip
/// used. Intermediate towns anchor the polyline to the real roads and seed
/// the suburban pockets.
pub const WAYPOINTS: &[Waypoint] = &[
    city("Los Angeles", 34.05, -118.24, true),
    wp("Barstow", 34.90, -117.02),
    city("Las Vegas", 36.17, -115.14, true),
    wp("Mesquite", 36.80, -114.07),
    wp("St. George", 37.10, -113.58),
    wp("Beaver", 38.28, -112.64),
    wp("Provo", 40.23, -111.66),
    city("Salt Lake City", 40.76, -111.89, false),
    wp("Evanston", 41.27, -110.96),
    wp("Rock Springs", 41.59, -109.22),
    wp("Rawlins", 41.79, -107.24),
    wp("Laramie", 41.31, -105.59),
    wp("Cheyenne", 41.14, -104.82),
    city("Denver", 39.74, -104.99, true),
    wp("Fort Morgan", 40.25, -103.80),
    wp("Sterling", 40.63, -103.21),
    wp("North Platte", 41.12, -100.77),
    wp("Kearney", 40.70, -99.08),
    wp("Lincoln", 40.81, -96.68),
    city("Omaha", 41.26, -95.93, false),
    wp("Des Moines", 41.59, -93.62),
    wp("Iowa City", 41.66, -91.53),
    wp("Davenport", 41.52, -90.57),
    wp("Joliet", 41.53, -88.08),
    city("Chicago", 41.88, -87.63, true),
    wp("Lafayette", 40.42, -86.88),
    city("Indianapolis", 39.77, -86.16, false),
    wp("Columbus", 39.96, -83.00),
    city("Cleveland", 41.50, -81.69, false),
    wp("Erie", 42.13, -80.09),
    wp("Buffalo", 42.89, -78.88),
    city("Rochester", 43.16, -77.61, false),
    wp("Syracuse", 43.05, -76.15),
    wp("Utica", 43.10, -75.23),
    wp("Albany", 42.65, -73.75),
    wp("Springfield", 42.10, -72.59),
    wp("Worcester", 42.26, -71.80),
    city("Boston", 42.36, -71.06, true),
];

/// Paper's total road distance; per-leg road lengths are rescaled so they
/// sum to this.
pub const TOTAL_ROAD_KM: f64 = 5711.0;

/// Half-width of the `City` zone around a major-city waypoint.
const CITY_ZONE_KM: f64 = 9.0;
/// Half-width of the `Suburban` ring around a major city (beyond the city
/// zone).
const CITY_SUBURBAN_KM: f64 = 28.0;
/// Half-width of the suburban pocket around an intermediate town.
const TOWN_SUBURBAN_KM: f64 = 7.0;

/// The calibrated route: waypoints plus cumulative road odometer.
///
/// ```
/// use wheels_geo::route::Route;
/// use wheels_sim_core::units::Distance;
/// use wheels_sim_core::time::Timezone;
///
/// let route = Route::standard();
/// assert!((route.total().as_km() - 5711.0).abs() < 1e-6);
/// assert_eq!(route.timezone_at(Distance::ZERO), Timezone::Pacific);
/// assert_eq!(route.timezone_at(route.total()), Timezone::Eastern);
/// ```
#[derive(Debug, Clone)]
pub struct Route {
    waypoints: Vec<Waypoint>,
    /// Cumulative road distance at each waypoint; `odometer[0] == 0`.
    odometer: Vec<Distance>,
}

impl Default for Route {
    fn default() -> Self {
        Self::standard()
    }
}

impl Route {
    /// Build the paper's LA→Boston route.
    pub fn standard() -> Self {
        Self::from_waypoints(WAYPOINTS.to_vec(), TOTAL_ROAD_KM)
    }

    /// Build a route from arbitrary waypoints, rescaling leg road lengths
    /// (great-circle × winding factor 1.18) so the total equals
    /// `total_road_km`.
    pub fn from_waypoints(waypoints: Vec<Waypoint>, total_road_km: f64) -> Self {
        assert!(waypoints.len() >= 2, "route needs at least two waypoints");
        let raw: Vec<f64> = waypoints
            .windows(2)
            .map(|w| w[0].pos.haversine(w[1].pos).as_km() * 1.18)
            .collect();
        let raw_total: f64 = raw.iter().sum();
        assert!(raw_total > 0.0, "degenerate route");
        let scale = total_road_km / raw_total;
        let mut odometer = Vec::with_capacity(waypoints.len());
        let mut acc = 0.0;
        odometer.push(Distance::ZERO);
        for leg in &raw {
            acc += leg * scale;
            odometer.push(Distance::from_km(acc));
        }
        Route {
            waypoints,
            odometer,
        }
    }

    /// Total road length.
    pub fn total(&self) -> Distance {
        *self
            .odometer
            .last()
            .expect("odometer has one entry per waypoint")
    }

    /// All waypoints.
    pub fn waypoints(&self) -> &[Waypoint] {
        &self.waypoints
    }

    /// Odometer position of waypoint `i`.
    pub fn waypoint_odometer(&self, i: usize) -> Distance {
        self.odometer[i]
    }

    /// The major cities in route order, as `(waypoint index, odometer)`.
    pub fn major_cities(&self) -> Vec<(usize, Distance)> {
        self.waypoints
            .iter()
            .enumerate()
            .filter(|(_, w)| w.major_city)
            .map(|(i, _)| (i, self.odometer[i]))
            .collect()
    }

    /// Index of the leg containing odometer position `odo` (clamped).
    fn leg_of(&self, odo: Distance) -> usize {
        let idx = self.odometer.partition_point(|d| *d <= odo);
        idx.saturating_sub(1).min(self.waypoints.len() - 2)
    }

    /// Interpolated coordinates at odometer position `odo` (clamped to the
    /// route ends).
    pub fn position_at(&self, odo: Distance) -> LatLon {
        let leg = self.leg_of(odo);
        let lo = self.odometer[leg];
        let hi = self.odometer[leg + 1];
        let span = (hi - lo).as_m();
        let f = if span <= 0.0 {
            0.0
        } else {
            ((odo - lo).as_m() / span).clamp(0.0, 1.0)
        };
        self.waypoints[leg].pos.lerp(self.waypoints[leg + 1].pos, f)
    }

    /// Timezone at odometer position `odo`.
    pub fn timezone_at(&self, odo: Distance) -> Timezone {
        self.position_at(odo).timezone()
    }

    /// Zone classification at odometer position `odo`.
    pub fn zone_at(&self, odo: Distance) -> ZoneClass {
        // Nearest-waypoint distances decide the zone. Major cities project a
        // city core plus a suburban ring; intermediate towns project a small
        // suburban pocket.
        let mut best = ZoneClass::Highway;
        for (i, w) in self.waypoints.iter().enumerate() {
            let d_km = (self.odometer[i].as_km() - odo.as_km()).abs();
            if w.major_city {
                if d_km <= CITY_ZONE_KM {
                    return ZoneClass::City;
                }
                if d_km <= CITY_ZONE_KM + CITY_SUBURBAN_KM {
                    best = ZoneClass::Suburban;
                }
            } else if d_km <= TOWN_SUBURBAN_KM {
                best = ZoneClass::Suburban;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn haversine_known_distance() {
        // LA → Boston great-circle is ~4,170 km.
        let la = LatLon {
            lat: 34.05,
            lon: -118.24,
        };
        let bos = LatLon {
            lat: 42.36,
            lon: -71.06,
        };
        let d = la.haversine(bos).as_km();
        assert!((d - 4170.0).abs() < 60.0, "distance {d}");
    }

    #[test]
    fn haversine_zero_for_same_point() {
        let p = LatLon {
            lat: 40.0,
            lon: -100.0,
        };
        assert!(p.haversine(p).as_m() < 1e-6);
    }

    #[test]
    fn route_total_matches_paper() {
        let r = Route::standard();
        assert!((r.total().as_km() - TOTAL_ROAD_KM).abs() < 1e-6);
    }

    #[test]
    fn route_has_ten_major_cities_and_five_edge_cities() {
        let r = Route::standard();
        assert_eq!(r.major_cities().len(), 10);
        let edges = r.waypoints().iter().filter(|w| w.edge_city).count();
        assert_eq!(edges, 5);
    }

    #[test]
    fn odometer_is_strictly_increasing() {
        let r = Route::standard();
        for w in r.odometer.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn position_clamps_to_ends() {
        let r = Route::standard();
        let start = r.position_at(Distance::ZERO);
        assert!((start.lat - 34.05).abs() < 1e-9);
        let past_end = r.position_at(Distance::from_km(99_999.0));
        assert!((past_end.lat - 42.36).abs() < 1e-9);
        assert!((past_end.lon - -71.06).abs() < 1e-9);
    }

    #[test]
    fn position_interpolates_mid_leg() {
        let r = Route::standard();
        // Midpoint of the first leg (LA → Barstow).
        let mid = (r.odometer[0].as_m() + r.odometer[1].as_m()) / 2.0;
        let p = r.position_at(Distance::from_m(mid));
        assert!(p.lat > 34.05 && p.lat < 34.90);
        assert!(p.lon > -118.24 && p.lon < -117.02);
    }

    #[test]
    fn timezones_progress_west_to_east() {
        let r = Route::standard();
        assert_eq!(r.timezone_at(Distance::ZERO), Timezone::Pacific);
        assert_eq!(r.timezone_at(r.total()), Timezone::Eastern);
        // Monotone non-decreasing along the route.
        let mut last = Timezone::Pacific;
        let mut seen = vec![last];
        for km in (0..=5711).step_by(10) {
            let tz = r.timezone_at(Distance::from_km(km as f64));
            if tz != last {
                seen.push(tz);
                last = tz;
            }
        }
        assert_eq!(
            seen,
            vec![
                Timezone::Pacific,
                Timezone::Mountain,
                Timezone::Central,
                Timezone::Eastern
            ]
        );
    }

    #[test]
    fn major_city_centers_are_city_zone() {
        let r = Route::standard();
        for (_, odo) in r.major_cities() {
            assert_eq!(r.zone_at(odo), ZoneClass::City, "at {} km", odo.as_km());
        }
    }

    #[test]
    fn zone_rings_around_cities() {
        let r = Route::standard();
        let (_, denver) = r
            .major_cities()
            .into_iter()
            .find(|(i, _)| r.waypoints()[*i].name == "Denver")
            .unwrap();
        assert_eq!(r.zone_at(denver), ZoneClass::City);
        let ring = Distance::from_km(denver.as_km() + CITY_ZONE_KM + 5.0);
        assert_eq!(r.zone_at(ring), ZoneClass::Suburban);
        let far = Distance::from_km(denver.as_km() + CITY_ZONE_KM + CITY_SUBURBAN_KM + 40.0);
        assert_eq!(r.zone_at(far), ZoneClass::Highway);
    }

    #[test]
    fn highway_dominates_route_length() {
        let r = Route::standard();
        let mut hw = 0u32;
        let mut total = 0u32;
        for km in (0..5711).step_by(5) {
            total += 1;
            if r.zone_at(Distance::from_km(km as f64)) == ZoneClass::Highway {
                hw += 1;
            }
        }
        let frac = hw as f64 / total as f64;
        assert!(frac > 0.5, "highway fraction {frac}");
    }

    #[test]
    #[should_panic(expected = "at least two waypoints")]
    fn route_rejects_single_waypoint() {
        let _ = Route::from_waypoints(vec![WAYPOINTS[0].clone()], 100.0);
    }
}
