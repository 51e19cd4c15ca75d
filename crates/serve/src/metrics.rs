//! Serving counters and latency histograms.
//!
//! The primitives live in the shared [`wheels_metrics`] layer (lock-free
//! counters + log₂-bucket histograms with mergeable snapshots — the same
//! types the `wheels-stress` soak harness records into); this module
//! just names the set the server keeps and renders it in the wire
//! format. Everything
//! here is written on hot paths (per request, per ingested shard), so it
//! is all relaxed atomics — no locks, no allocation.

use serde::Value;
pub use wheels_metrics::{Counter, Histogram, Snapshot};

use crate::protocol::obj;

/// Every counter the server keeps: dumped on shutdown and embedded in
/// each `status` response.
#[derive(Default)]
pub struct Metrics {
    /// Connections accepted (including shed ones).
    pub connections: Counter,
    /// Requests answered (any outcome).
    pub requests: Counter,
    /// Requests answered with an error line.
    pub errors: Counter,
    /// Connections shed with a `busy` line at the in-flight cap.
    pub busy: Counter,
    /// Per-request latency (parse + evaluate + write), µs.
    pub query_us: Histogram,
    /// Per-shard splice time under the write lock, µs.
    pub ingest_us: Histogram,
    /// Per-shard visibility lag: poll wake-up to queryable, µs.
    pub ingest_lag_us: Histogram,
}

impl Metrics {
    /// Snapshot as a JSON value.
    pub fn to_value(&self) -> Value {
        obj(vec![
            ("connections", Value::U64(self.connections.get())),
            ("requests", Value::U64(self.requests.get())),
            ("errors", Value::U64(self.errors.get())),
            ("busy", Value::U64(self.busy.get())),
            ("query", self.query_us.to_value()),
            ("ingest", self.ingest_us.to_value()),
            ("ingest_lag", self.ingest_lag_us.to_value()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_is_a_json_object() {
        let m = Metrics::default();
        m.requests.add(3);
        m.query_us.record(250);
        let line = crate::protocol::render(&m.to_value());
        assert!(line.contains(r#""requests":3"#), "{line}");
        assert!(line.contains(r#""query":{"count":1"#), "{line}");
    }
}
