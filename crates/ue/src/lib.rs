//! # wheels-ue
//!
//! The user-equipment layer: the two phone-side loggers of the paper's
//! testbed (Appendix B) that produced its dataset.
//!
//! - [`xcal`] — the XCAL-Solo-style cross-layer logger: 500 ms KPI records
//!   written into `.drm`-like files whose *names* carry local-time stamps
//!   while their *contents* carry EDT stamps — the exact timestamp mess
//!   challenge \[C2\] is about. `wheels-core`'s log-sync untangles it.
//! - [`hologger`] — the "handover-logger" phones: an Android-API-level
//!   app sending 38-byte pings every 200 ms to keep the radio awake while
//!   recording GPS, cell ID, and technology. Because its traffic is
//!   ICMP-only, operators rarely upgrade it to 5G — reproducing the
//!   passive-vs-active coverage gap of Fig. 1.

pub mod hologger;
pub mod xcal;

pub use hologger::{HandoverLogger, HoLogRow};
pub use xcal::{DrmFile, XcalLogger, XcalRecord};
