//! The 8-day drive schedule and the resulting trace.
//!
//! [`DrivePlan::generate`] integrates the speed process along the route into
//! a second-resolution [`DriveTrace`]: for every active second of the trip
//! it records time, odometer position, coordinates, speed, zone, timezone,
//! and whether the car is parked for a static baseline test. The trace is
//! the single source of mobility ground truth for every other crate — the
//! RAN samples it for cell geometry, the campaign runner samples it to know
//! when tests ran where, and the analysis joins throughput samples against
//! its speed values.

use serde::{Deserialize, Serialize};
use wheels_sim_core::rng::SimRng;
use wheels_sim_core::time::{SimDuration, SimTime, Timezone};
use wheels_sim_core::units::{Distance, Speed};

use crate::route::{LatLon, Route, ZoneClass};
use crate::speed::{SpeedModel, SpeedTargets};

/// One second of trip ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceSample {
    /// Simulation time of this sample.
    pub t: SimTime,
    /// Road odometer from the LA start.
    pub odo: Distance,
    /// Interpolated coordinates.
    pub pos: LatLon,
    /// Vehicle speed during this second.
    pub speed: Speed,
    /// Road-zone class at this position.
    pub zone: ZoneClass,
    /// Timezone at this position.
    pub tz: Timezone,
    /// Trip day, 0-based (0 = 2022-08-08).
    pub day: u8,
    /// True while parked in a city doing the static baseline tests (§5.1).
    pub static_stop: bool,
}

/// Parameters of the drive schedule.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DrivePlan {
    /// Number of driving days (paper: 8).
    pub days: u8,
    /// Local departure hour each morning.
    pub depart_local_hour: u64,
    /// Hard cap on a day's driving time.
    pub max_day_hours: u64,
    /// Duration of the static-test stopover in each major city.
    pub city_stop: SimDuration,
    /// Speed-model targets.
    pub targets: SpeedTargets,
}

impl Default for DrivePlan {
    fn default() -> Self {
        DrivePlan {
            days: 8,
            depart_local_hour: 8,
            max_day_hours: 13,
            city_stop: SimDuration::from_mins(45),
            targets: SpeedTargets::default(),
        }
    }
}

impl DrivePlan {
    /// Generate the full trip trace over `route`.
    ///
    /// Deterministic in `(route, plan, rng seed)`.
    pub fn generate(&self, route: &Route, rng: &mut SimRng) -> DriveTrace {
        assert!(self.days >= 1, "need at least one driving day");
        let total = route.total();
        let mut samples: Vec<TraceSample> = Vec::new();
        let mut odo = Distance::ZERO;
        let mut speed_rng = rng.split("geo/speed");
        let mut model = SpeedModel::new(self.targets, route.zone_at(odo), &mut speed_rng);
        let cities = route.major_cities();
        let mut visited_cities: Vec<usize> = Vec::new();

        for day in 0..self.days {
            // Depart at the configured local hour of the zone the car wakes
            // up in; sim time is anchored to Pacific midnight.
            let tz = route.timezone_at(odo);
            let local_offset_h = tz.offset_from_pacific_ms() / 3_600_000;
            let depart_h =
                day as u64 * 24 + (self.depart_local_hour as i64 - local_offset_h).max(0) as u64;
            let mut t = SimTime::from_hours(depart_h);
            let day_end = t + SimDuration::from_hours(self.max_day_hours);
            // Equal distance quota per day; the last day finishes the route.
            let quota = if day + 1 == self.days {
                total
            } else {
                Distance::from_km(total.as_km() * (day as f64 + 1.0) / self.days as f64)
            };

            while odo < quota && (t < day_end || day + 1 == self.days) {
                // `pos.timezone()` is exactly `route.timezone_at(odo)`,
                // without interpolating the position a second time.
                let pos = route.position_at(odo);
                let tz = pos.timezone();
                let zone = route.zone_at(odo);

                // Static stopover on first entry into a major city core.
                if let Some(&(ci, _)) = cities.iter().find(|(i, d)| {
                    !visited_cities.contains(i) && (d.as_km() - odo.as_km()).abs() < 2.0
                }) {
                    visited_cities.push(ci);
                    let stop_secs = self.city_stop.as_millis() / 1000;
                    for _ in 0..stop_secs {
                        samples.push(TraceSample {
                            t,
                            odo,
                            pos,
                            speed: Speed::ZERO,
                            zone,
                            tz,
                            day,
                            static_stop: true,
                        });
                        t += SimDuration::from_secs(1);
                    }
                }

                let speed = model.step_1s(zone, &mut speed_rng);
                samples.push(TraceSample {
                    t,
                    odo,
                    pos,
                    speed,
                    zone,
                    tz,
                    day,
                    static_stop: false,
                });
                odo += speed.distance_in_ms(1000);
                t += SimDuration::from_secs(1);
            }
            if odo >= total {
                break;
            }
        }

        DriveTrace { samples }
    }
}

/// The generated trip trace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DriveTrace {
    samples: Vec<TraceSample>,
}

impl DriveTrace {
    /// Build directly from samples (used by tests and by trace slicing).
    pub fn from_samples(samples: Vec<TraceSample>) -> Self {
        debug_assert!(samples.windows(2).all(|w| w[0].t <= w[1].t));
        DriveTrace { samples }
    }

    /// All samples, time-ordered.
    pub fn samples(&self) -> &[TraceSample] {
        &self.samples
    }

    /// Number of active (driving or static-test) seconds.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The sample covering time `t` (the latest sample at or before `t`),
    /// if the car was active within the previous second.
    pub fn sample_at(&self, t: SimTime) -> Option<&TraceSample> {
        let idx = self.samples.partition_point(|s| s.t <= t);
        let s = &self.samples[idx.checked_sub(1)?];
        // Samples are 1 s wide; a gap (overnight) yields None.
        if t.since(s.t) <= SimDuration::from_secs(1) {
            Some(s)
        } else {
            None
        }
    }

    /// Total distance covered (final odometer).
    pub fn total_distance(&self) -> Distance {
        self.samples.last().map(|s| s.odo).unwrap_or(Distance::ZERO)
    }

    /// Cumulative active time.
    pub fn active_duration(&self) -> SimDuration {
        SimDuration::from_secs(self.samples.len() as u64)
    }

    /// Samples while driving (not parked for static tests).
    pub fn driving_samples(&self) -> impl Iterator<Item = &TraceSample> {
        self.samples.iter().filter(|s| !s.static_stop)
    }

    /// Samples while parked for static tests.
    pub fn static_samples(&self) -> impl Iterator<Item = &TraceSample> {
        self.samples.iter().filter(|s| s.static_stop)
    }

    /// Distance driven within `[start, end)`.
    pub fn distance_in_window(&self, start: SimTime, end: SimTime) -> Distance {
        let lo = self.samples.partition_point(|s| s.t < start);
        let hi = self.samples.partition_point(|s| s.t < end);
        if lo >= hi {
            return Distance::ZERO;
        }
        let last = &self.samples[hi - 1];
        // End odometer includes the final second's motion.
        let end_odo = last.odo + last.speed.distance_in_ms(1000);
        end_odo - self.samples[lo].odo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_trace() -> (Route, DriveTrace) {
        let route = Route::standard();
        let mut rng = SimRng::seed(11);
        // Compressed plan for test speed: fewer days would break the quota
        // math realism, so keep 8 days but shrink stopovers.
        let plan = DrivePlan {
            city_stop: SimDuration::from_mins(2),
            ..DrivePlan::default()
        };
        let trace = plan.generate(&route, &mut rng);
        (route, trace)
    }

    #[test]
    fn trace_completes_route() {
        let (route, trace) = small_trace();
        let done = trace.total_distance().as_km();
        assert!(
            done >= route.total().as_km() * 0.999,
            "completed {done} of {}",
            route.total().as_km()
        );
    }

    #[test]
    fn trace_spans_eight_days() {
        let (_, trace) = small_trace();
        let days: std::collections::BTreeSet<u8> = trace.samples().iter().map(|s| s.day).collect();
        assert_eq!(days.len(), 8);
        assert_eq!(*days.iter().next().unwrap(), 0);
        assert_eq!(*days.iter().last().unwrap(), 7);
    }

    #[test]
    fn trace_is_time_ordered_and_odometer_monotone() {
        let (_, trace) = small_trace();
        for w in trace.samples().windows(2) {
            assert!(w[1].t > w[0].t);
            assert!(w[1].odo >= w[0].odo);
        }
    }

    #[test]
    fn trace_visits_all_ten_cities_statically() {
        let (route, trace) = small_trace();
        let mut static_odos: Vec<f64> = trace.static_samples().map(|s| s.odo.as_km()).collect();
        static_odos.dedup();
        assert_eq!(
            static_odos.len(),
            route.major_cities().len(),
            "static stops {static_odos:?}"
        );
    }

    #[test]
    fn static_samples_are_stationary_in_cities() {
        let (_, trace) = small_trace();
        for s in trace.static_samples() {
            assert_eq!(s.speed, Speed::ZERO);
            assert_eq!(s.zone, ZoneClass::City);
        }
    }

    #[test]
    fn sample_at_hits_and_gaps() {
        let (_, trace) = small_trace();
        let first = trace.samples()[0];
        assert_eq!(trace.sample_at(first.t), Some(&first));
        // Before trip start: nothing.
        assert_eq!(trace.sample_at(SimTime::EPOCH), None);
        // Find an overnight gap: consecutive samples > 1 s apart.
        let gap = trace
            .samples()
            .windows(2)
            .find(|w| w[1].t.since(w[0].t) > SimDuration::from_secs(1))
            .expect("trip has overnight gaps");
        let mid = SimTime((gap[0].t.as_millis() + gap[1].t.as_millis()) / 2);
        assert_eq!(trace.sample_at(mid), None);
    }

    #[test]
    fn distance_in_window_matches_speed_integral() {
        let (_, trace) = small_trace();
        let s0 = trace.samples()[1000].t;
        let s1 = trace.samples()[1600].t;
        let d = trace.distance_in_window(s0, s1);
        assert!(d.as_km() >= 0.0);
        // 600 s at <=85 mph is at most ~22.8 km.
        assert!(d.as_km() < 23.0, "window distance {}", d.as_km());
    }

    #[test]
    fn timezone_progression_in_trace() {
        let (_, trace) = small_trace();
        let first_tz = trace.samples().first().unwrap().tz;
        let last_tz = trace.samples().last().unwrap().tz;
        assert_eq!(first_tz, Timezone::Pacific);
        assert_eq!(last_tz, Timezone::Eastern);
    }

    #[test]
    fn trace_duration_is_plausible() {
        let (_, trace) = small_trace();
        let hours = trace.active_duration().as_secs_f64() / 3600.0;
        // 5711 km at a realistic mix of speeds: between 55 and 110 hours.
        assert!((55.0..110.0).contains(&hours), "active hours {hours}");
    }

    #[test]
    fn deterministic_generation() {
        let route = Route::standard();
        let plan = DrivePlan {
            city_stop: SimDuration::from_mins(2),
            ..DrivePlan::default()
        };
        let t1 = plan.generate(&route, &mut SimRng::seed(5));
        let t2 = plan.generate(&route, &mut SimRng::seed(5));
        assert_eq!(t1.samples().len(), t2.samples().len());
        assert_eq!(t1.samples()[0], t2.samples()[0]);
        let last = t1.samples().len() - 1;
        assert_eq!(t1.samples()[last], t2.samples()[last]);
    }

    #[test]
    fn speed_bins_all_represented() {
        use wheels_sim_core::units::SpeedBin;
        let (_, trace) = small_trace();
        let mut counts = std::collections::HashMap::new();
        for s in trace.driving_samples() {
            *counts.entry(SpeedBin::of(s.speed)).or_insert(0u32) += 1;
        }
        for bin in SpeedBin::ALL {
            assert!(counts.get(&bin).copied().unwrap_or(0) > 100, "bin {bin:?}");
        }
        // Highway driving dominates a cross-country trip.
        assert!(counts[&SpeedBin::High] > counts[&SpeedBin::Low]);
    }
}
