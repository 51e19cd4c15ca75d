//! # wheels-geo
//!
//! Geography and mobility substrate: the LA→Boston route of the paper's
//! drive study (§3), the road-zone classification that drives both the
//! speed model and the operators' deployment densities, the four timezones
//! crossed, and the 8-day drive schedule that turns all of it into a
//! deterministic `(time → position, speed)` trace.
//!
//! The paper's measurements hinge on where the car is (city / suburban /
//! highway, which timezone) and how fast it moves (the 0–20 / 20–60 / 60+
//! mph bins of §4.2 and §5.5). This crate produces exactly that ground
//! truth:
//!
//! - [`route`] — a waypoint polyline through the 10 major cities with
//!   per-leg road distances calibrated to the paper's 5711+ km total, plus
//!   zone and timezone lookup by odometer position.
//! - [`speed`] — a per-zone stochastic speed process (city stop-and-go,
//!   suburban arterials, interstate cruising).
//! - [`trace`] — the 8-day drive schedule (2022-08-08 → 2022-08-15) that
//!   integrates the speed process into a second-resolution trace with city
//!   stopovers for the static baseline tests.

pub mod route;
pub mod speed;
pub mod trace;

pub use route::{LatLon, Route, Waypoint, ZoneClass};
pub use trace::{DrivePlan, DriveTrace, TraceSample};
