//! `wheels-serve` — the always-on analysis service.
//!
//! The ROADMAP's north star is a measurement platform whose dataset is
//! *continuously queryable*, not a one-shot report. This crate promotes
//! the incremental [`DatasetView`] pipeline into a long-running TCP
//! service: one ingest thread tails a campaign checkpoint journal
//! (a resumable cursor via `checkpoint::tail_from` — no full-journal
//! re-read per poll), splicing each new shard frame into a
//! shared [`World`] behind an `RwLock`, while a small worker pool
//! answers line-delimited JSON queries — figure results, per-partition
//! quantiles and CDF samples, Table-1 accounting, and a live `status`
//! endpoint.
//!
//! The load-bearing invariant: **served answers are byte-identical to
//! an offline [`DatasetView::from_journal`] of the same journal
//! prefix.** Both paths replay the identical frame sequence through
//! [`DatasetView::ingest_shard`] and render through the same pure
//! [`query::respond`] function, so the server adds availability, never
//! a second answer.
//!
//! Serving skeleton, in the spirit of a production front-end rather
//! than a demo loop:
//!
//! - ingest: single writer, poll-driven, resumable offsets, fingerprint
//!   verified once at attach;
//! - queries: worker pool over a shared `RwLock<World>` (writers =
//!   ingest only), per-connection read/write timeouts;
//! - overload: bounded in-flight connection count with load-shedding —
//!   an explicit `busy` response instead of an unbounded queue;
//! - shutdown: signal- or command-initiated, draining in-flight
//!   requests, with counters/histograms (requests, query latency,
//!   ingest splice/lag) dumped on exit and on demand via `status`.
//!
//! [`DatasetView`]: wheels_core::analysis::view::DatasetView
//! [`DatasetView::from_journal`]: wheels_core::analysis::view::DatasetView::from_journal
//! [`DatasetView::ingest_shard`]: wheels_core::analysis::view::DatasetView::ingest_shard
//! [`World`]: wheels_experiments::world::World

pub mod metrics;
pub mod options;
pub mod protocol;
pub mod query;
pub mod server;
