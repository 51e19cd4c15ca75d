//! # wheels-sim-core
//!
//! Foundation crate for the `wheels` workspace — the deterministic
//! discrete-time substrate on which the drive-test simulation is built.
//!
//! The design follows the sans-IO, event-driven philosophy: nothing in this
//! crate (or in any crate above it) performs I/O or spawns threads. Every
//! simulated component is a state machine advanced by an explicit clock, and
//! every stochastic element draws from a seeded, *splittable* RNG so that the
//! same master seed regenerates the same dataset bit-for-bit regardless of
//! which subsystems are enabled.
//!
//! Modules:
//!
//! - [`time`] — millisecond simulation clock anchored at the trip epoch
//!   (2022-08-08 00:00 PDT), wall-clock/timezone conversion used by the
//!   log-synchronization layer.
//! - [`units`] — strongly-typed physical quantities (Mbps, dBm, mph, km)
//!   with the conversions the radio and analysis layers need.
//! - [`rng`] — ChaCha-based deterministic RNG with string-labelled
//!   substreams.
//! - [`process`] — the stochastic processes used by the channel and speed
//!   models (Gauss-Markov, AR(1), two-state Markov, lognormal).
//! - [`stats`] — the statistics toolkit behind every figure and table:
//!   empirical CDFs, quantiles, Pearson correlation, binning.

pub mod process;
pub mod rng;
pub mod stats;
pub mod time;
pub mod units;

pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use units::{DataRate, Db, Dbm, Distance, Speed};
