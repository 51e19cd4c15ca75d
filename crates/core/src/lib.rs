//! # wheels-core
//!
//! The paper's measurement platform and analysis pipeline — the primary
//! contribution this workspace reproduces.
//!
//! - [`records`] — the consolidated database schema: 500 ms throughput
//!   samples with their cross-layer KPIs, RTT samples, per-test aggregates,
//!   handover events, coverage samples, and app-run records.
//! - [`logsync`] — the challenge-\[C2\] software: reconciling app logs (UTC
//!   or local time) with XCAL `.drm` files (local-time filenames, EDT
//!   contents) across four timezones into one simulation-time database.
//! - [`staticprobe`] — the §5.1 baseline: static tests facing a 5G
//!   mmWave/mid-band base station in each major city.
//! - [`disrupt`] — the challenge-\[C2\] fault model: deterministic
//!   schedules of server outages, app crashes, XCAL logger gaps, and
//!   clock-drift bursts, with per-test retry/backoff, salvage, and loss
//!   accounting. Off by default; the empty schedule is bit-identical to
//!   the fault-free campaign.
//! - [`campaign`] — the §3 drive-test campaign: three XCAL phones running
//!   throughput / RTT / app tests round-robin while three handover-logger
//!   phones record passively, producing a [`records::Dataset`].
//! - [`checkpoint`] — crash-safe campaign persistence: an append-only
//!   shard journal (length-prefixed, checksummed frames behind an
//!   atomically-created identity header) that lets a `--checkpoint` run
//!   killed at any byte resume bit-identically with `--resume`.
//! - [`analysis`] — everything §4–§7 computes: coverage-by-miles,
//!   KPI↔throughput correlations (Table 2), handover impact (ΔT₁/ΔT₂,
//!   Fig. 12), and operator diversity (Fig. 6).
//! - [`column`] — the WCD1 binary file format of [`records::Dataset`]:
//!   a checksummed, column-by-column fixed-width layout that the codec
//!   writes straight from the rows and loads without a parse step. JSON
//!   stays the pinned interchange format; WCD1 is the fast
//!   cache/transport layer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod campaign;
pub mod checkpoint;
pub mod column;
pub mod disrupt;
pub mod logsync;
pub mod measure;
pub mod records;
pub mod staticprobe;

pub use campaign::{Campaign, CampaignConfig};
pub use records::Dataset;
