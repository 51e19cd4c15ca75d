//! # wheels
//!
//! Umbrella crate for the `wheels` workspace — a from-scratch Rust
//! reproduction of *Performance of Cellular Networks on the Wheels*
//! (IMC '23): a deterministic cross-country drive-test simulator for US
//! cellular networks (LTE / LTE-A / 5G low / mid / mmWave across three
//! operators), the paper's measurement platform (campaign orchestration,
//! XCAL-style cross-layer logging, multi-timezone log synchronization), the
//! four "5G killer" apps (AR, CAV, 360° video, cloud gaming), and the
//! analysis pipeline that regenerates every table and figure in the paper.
//!
//! This crate simply re-exports the subsystem crates under stable names;
//! depend on it to get the whole public API:
//!
//! ```
//! use wheels::sim_core::SimRng;
//! let rng = SimRng::seed(42);
//! let _ = rng;
//! ```

pub use wheels_apps as apps;
pub use wheels_core as core;
pub use wheels_experiments as experiments;
pub use wheels_geo as geo;
pub use wheels_radio as radio;
pub use wheels_ran as ran;
pub use wheels_serve as serve;
pub use wheels_sim_core as sim_core;
pub use wheels_transport as transport;
pub use wheels_ue as ue;
