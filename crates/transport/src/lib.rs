//! # wheels-transport
//!
//! End-to-end transport over the simulated radio link:
//!
//! - [`servers`] — the measurement server fleet of §3: AWS EC2 cloud
//!   instances in California and Ohio, plus the five Verizon Wavelength
//!   edge servers (LA, Las Vegas, Denver, Chicago, Boston), with
//!   propagation-based one-way delays.
//! - [`tcp`] — a fluid-flow single-connection TCP CUBIC model (the paper's
//!   nuttcp configuration) over a time-varying bottleneck with a droptail
//!   buffer. Bufferbloat on low-rate links is what inflates driving RTTs
//!   into the seconds (Fig. 3b); handover interruptions stall delivery and
//!   can force an RTO.
//! - [`ping`] — the ICMP measurement (200 ms interval, 38-byte payload)
//!   used both by the RTT tests and the handover-logger phones.
//! - [`mptcp`] — a multipath bond of CUBIC subflows across operators,
//!   implementing the paper's multi-connectivity recommendation (§5.4/§8)
//!   for the `ext-multipath` experiment.

pub mod mptcp;
pub mod ping;
pub mod servers;
pub mod tcp;

pub use mptcp::MptcpFlow;
pub use ping::PingSession;
pub use servers::{NetPath, ServerFleet, ServerKind};
pub use tcp::{CubicFlow, FlowTick};
