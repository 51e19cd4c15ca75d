//! # wheels-radio
//!
//! The cellular PHY substrate: everything between "the car is at this
//! distance from this cell" and "the modem reports RSRP −97 dBm, MCS 18,
//! BLER 9%, 4 component carriers, 212 Mbps achievable".
//!
//! The paper's analysis (§5.5, Table 2) correlates throughput against
//! exactly five lower-layer KPIs — primary-cell RSRP, primary-cell MCS,
//! carrier aggregation, primary-cell BLER, handovers — so this crate is
//! built around producing those KPIs with realistic dynamics:
//!
//! - [`tech`] — the five technologies of the study (LTE, LTE-A, 5G-low,
//!   5G-mid, 5G-mmWave) with their bands, bandwidths, and CA limits.
//! - [`linkbudget`] — log-distance path loss per band, per-operator beam
//!   models (the Verizon-wide-beam vs AT&T-narrow-beam RSRP effect), and
//!   transmit powers.
//! - [`channel`] — per-link dynamics: spatially-correlated shadowing,
//!   AR(1) fast fading, and a two-state LOS/blockage process for mmWave.
//! - [`mcs`] — SINR→CQI→MCS mapping and the BLER model around the 10%
//!   initial-transmission HARQ target.
//! - [`ca`] — carrier aggregation: assembling component carriers into an
//!   aggregate rate, UL/DL asymmetry included.

pub mod ca;
pub mod channel;
pub mod linkbudget;
pub mod mcs;
pub mod tech;

pub use ca::{AggregateLink, CarrierAllocation};
pub use channel::{ChannelSample, LinkChannel};
pub use linkbudget::{BeamProfile, LinkBudget};
pub use mcs::{bler, mcs_from_sinr, spectral_efficiency, McsIndex};
pub use tech::{Direction, Technology};
