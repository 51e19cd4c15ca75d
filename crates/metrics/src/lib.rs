//! # wheels-metrics
//!
//! The shared observability layer: lock-free counters and log₂-bucket
//! histograms with **mergeable snapshots**, written on hot paths (per
//! request, per ingested shard) by `wheels-serve` and by the
//! `wheels-stress` soak harness. The simulator crates do not use it:
//! they count in plain integers (the campaign's audit ledger).
//!
//! Design constraints, in order:
//!
//! 1. **No locks, no allocation on the record path.** Everything is
//!    relaxed atomics; [`Histogram::record`] is a handful of
//!    `fetch_add`s.
//! 2. **Mergeable snapshots.** Per-thread histograms (e.g. one per
//!    stress load-generator client) fold into one report via
//!    [`Snapshot::merge`], which is associative and commutative —
//!    pinned by the property tests in `tests/metrics_properties.rs`.
//! 3. **Bounded quantile error.** Buckets are powers of two, so a
//!    quantile bound is within a factor of two of the true sample —
//!    coarse, but dependency-free and enough to read p50/p90/p99 off a
//!    `status` response or a soak report.
//! 4. **Determinism-safe.** Nothing here reads a clock or entropy:
//!    callers record durations *they* measured (or pure counts).
//!
//! By convention histogram values are **microseconds** when they are
//! durations — the JSON rendering labels them `_us` — but any `u64`
//! magnitude (bytes, frames) buckets just as well.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::Value;

/// Number of log₂ buckets: values up to `2^31` µs (~36 minutes) get
/// their own bucket; everything larger shares the last one.
pub const BUCKETS: usize = 32;

/// A lock-free monotone event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh zero counter.
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Add `n` events.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one event.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Events counted so far.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A log₂-bucketed histogram of `u64` magnitudes (µs by convention).
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// The bucket index for a value: floor(log₂(max(v,1))), clamped.
fn bucket_of(v: u64) -> usize {
    (63 - v.max(1).leading_zeros() as usize).min(BUCKETS - 1)
}

impl Histogram {
    /// A fresh empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one observation.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the histogram state. Concurrent
    /// `record`s may land between field loads, so a snapshot's `count`
    /// can briefly exceed its bucket total — `merge` and the quantile
    /// walk tolerate that (they work off whichever is smaller).
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// Snapshot rendered as the standard JSON object (see
    /// [`Snapshot::to_value`]).
    pub fn to_value(&self) -> Value {
        self.snapshot().to_value()
    }
}

/// An owned, mergeable copy of a [`Histogram`]'s state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Per-bucket observation counts.
    pub buckets: [u64; BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
}

impl Default for Snapshot {
    fn default() -> Self {
        Snapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Snapshot {
    /// An empty snapshot — the identity element of [`Snapshot::merge`].
    pub fn empty() -> Snapshot {
        Snapshot::default()
    }

    /// Fold `other` into `self`. Associative and commutative (sums are
    /// saturating, max is max), so per-thread snapshots can fold in any
    /// order — or any grouping — into the same report.
    pub fn merge(&mut self, other: &Snapshot) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b = b.saturating_add(*o);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket holding quantile `q` — a factor-of-two
    /// estimate: the true sample at rank `q` is `> bound/2` and
    /// `<= bound` (which is what a log₂ histogram buys).
    pub fn quantile_bound(&self, q: f64) -> u64 {
        let total: u64 = self.buckets.iter().sum();
        let count = self.count.min(total);
        if count == 0 {
            return 0;
        }
        let rank = ((count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return 1u64 << (i + 1).min(63);
            }
        }
        self.max
    }

    /// True when `self` is a later snapshot of the same histogram as
    /// `earlier`: every bucket, the count, the sum, and the max are
    /// non-decreasing. Live histograms only ever grow, so successive
    /// snapshots must dominate their predecessors.
    pub fn dominates(&self, earlier: &Snapshot) -> bool {
        self.count >= earlier.count
            && self.sum >= earlier.sum
            && self.max >= earlier.max
            && self
                .buckets
                .iter()
                .zip(earlier.buckets.iter())
                .all(|(now, then)| now >= then)
    }

    /// The standard JSON rendering: count, mean, max, and p50/p90/p99
    /// bucket bounds. Duration histograms are µs by convention, hence
    /// the `_us` keys (shared with the `wheels-serve` wire format).
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("count".to_string(), Value::U64(self.count)),
            ("mean_us".to_string(), Value::F64(self.mean())),
            ("max_us".to_string(), Value::U64(self.max)),
            ("p50_us".to_string(), Value::U64(self.quantile_bound(0.50))),
            ("p90_us".to_string(), Value::U64(self.quantile_bound(0.90))),
            ("p99_us".to_string(), Value::U64(self.quantile_bound(0.99))),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn buckets_cover_the_range_and_quantiles_bound() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 100, 1000, 10_000, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        let s = h.snapshot();
        let p50 = s.quantile_bound(0.5);
        assert!((3..=256).contains(&p50), "p50 bound {p50}");
        assert!(s.quantile_bound(0.99) >= 1_000_000);
        // Zero values land in the first bucket instead of panicking.
        h.record(0);
        assert_eq!(h.count(), 8);
        assert_eq!(h.snapshot().buckets[0], 2, "0 and 1 share bucket 0");
    }

    #[test]
    fn merge_is_the_sum_of_parts() {
        let (a, b) = (Histogram::new(), Histogram::new());
        a.record(10);
        a.record(5000);
        b.record(70);
        let (sa, sb) = (a.snapshot(), b.snapshot());
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        assert_eq!(ab, ba, "merge commutes");
        assert_eq!(ab.count, 3);
        assert_eq!(ab.sum, 5080);
        assert_eq!(ab.max, 5000);
        let mut with_empty = ab.clone();
        with_empty.merge(&Snapshot::empty());
        assert_eq!(with_empty, ab, "empty is the identity");
    }

    #[test]
    fn snapshots_dominate_their_predecessors() {
        let h = Histogram::new();
        h.record(3);
        let early = h.snapshot();
        h.record(900);
        let late = h.snapshot();
        assert!(late.dominates(&early));
        assert!(!early.dominates(&late));
        assert!(early.dominates(&early));
    }

    #[test]
    fn json_shape_is_the_serve_wire_format() {
        let h = Histogram::new();
        h.record(250);
        let line = serde_json::to_string(&h.to_value()).expect("renders");
        assert!(line.starts_with(r#"{"count":1"#), "{line}");
        for key in ["mean_us", "max_us", "p50_us", "p90_us", "p99_us"] {
            assert!(line.contains(key), "{line} missing {key}");
        }
    }
}
