//! # wheels-ran
//!
//! The radio access network simulator: per-operator cell deployments along
//! the LA→Boston route, the traffic-dependent 5G upgrade policy, per-cell
//! load, and the serving-session state machine that produces what a phone's
//! modem actually experiences — serving technology, RSRP/SINR, carrier
//! allocation, and handovers with their interruptions.
//!
//! This crate encodes the paper's three structural findings about *why*
//! coverage and performance look the way they do:
//!
//! 1. **Deployment strategies differ per operator and region** (§4.2):
//!    Verizon concentrates mmWave in downtown cores, T-Mobile blankets
//!    highways with mid-band, AT&T leans on LTE-A — all tunable in
//!    [`operator::OperatorStrategy`].
//! 2. **Upgrades to 5G are traffic-dependent** (§4.1, challenge C3): an
//!    idle or ICMP-only UE is rarely elevated off LTE, and uplink backlog
//!    is served with high-speed 5G far less often than downlink backlog —
//!    [`policy::UpgradePolicy`].
//! 3. **Handovers are frequent but short** (§6): an A3-style comparison
//!    with hysteresis and time-to-trigger drives both horizontal and
//!    vertical handovers, each with a lognormal interruption calibrated to
//!    the paper's per-operator medians — [`session::RanSession`].

pub mod cells;
pub mod load;
pub mod operator;
pub mod policy;
pub mod session;

pub use cells::{Cell, CellId, Deployment};
pub use operator::{Operator, OperatorStrategy};
pub use policy::{TrafficDemand, UpgradePolicy};
pub use session::{HandoverEvent, HandoverKind, RanSession, RanSnapshot};
