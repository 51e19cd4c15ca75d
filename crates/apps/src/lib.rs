//! # wheels-apps
//!
//! The four "5G killer" applications the paper evaluates (§7):
//!
//! - [`arcav`] — the custom edge-assisted AR and CAV benchmark apps
//!   (uplink-centric: offload camera frames / LIDAR point clouds to a GPU
//!   server for DNN object detection), with the Table 4 configurations and
//!   the Table 5 latency→accuracy model.
//! - [`video`] — 360° video streaming: Puffer-style server, BBA ABR over
//!   2-second chunks at four bitrates, and the control-theoretic QoE metric
//!   of Appendix D.
//! - [`gaming`] — Steam-Remote-Play-style cloud gaming: a bitrate adapter
//!   capped at 100 Mbps, 60 FPS target with frame-rate adaptation, and
//!   frame-drop accounting (Appendix E).
//!
//! All apps consume the same [`link::LinkSampler`] abstraction — a
//! time-indexed view of the phone's current achievable rates and RTT — so
//! they run identically over the full RAN simulation (the experiments
//! crate) and over synthetic link shapes (unit tests, ablations).

pub mod arcav;
pub mod gaming;
pub mod link;
pub mod video;

pub use arcav::{AppConfig, OffloadRun, OffloadStats};
pub use gaming::{GamingRun, GamingStats};
pub use link::{LinkSampler, LinkState};
pub use video::{VideoRun, VideoStats};
