//! Soak reporting: per-cycle text lines as the run progresses, one JSON
//! document at the end, and the verdict as an exit code.
//!
//! The report embeds three metric sources, all speaking the shared
//! `wheels-metrics` vocabulary: the merged load-client latency
//! snapshot, the server's shutdown dump (ingest/query histograms,
//! connection counters), and the final campaign child's counter dump
//! (shards completed/replayed, audit-ledger totals).

use serde::Value;

use crate::load::LoadReport;

/// What happened to one kill/resume cycle.
#[derive(Debug, Clone)]
pub struct CycleOutcome {
    /// Cycle index (0-based).
    pub cycle: u32,
    /// Intact shard frames when the cycle started (all salvaged from
    /// earlier cycles).
    pub frames_at_start: usize,
    /// The watermark the kill was armed at.
    pub kill_at_frames: usize,
    /// Worker threads this cycle's child ran with.
    pub threads: usize,
    /// `"killed"` at the watermark, or `"completed"` if the child beat
    /// the kill to the finish line.
    pub outcome: &'static str,
    /// Intact shard frames after the cycle (its salvage for the next).
    pub frames_after: usize,
    /// Frames the post-kill offline replay delivered.
    pub replayed_frames: usize,
    /// Scripted served-vs-offline answers verified byte-identical.
    pub served_checked: u64,
    /// Wall-clock of the run-and-kill phase, ms.
    pub cycle_ms: u64,
    /// Wall-clock of the invariant checks, ms.
    pub verify_ms: u64,
}

impl CycleOutcome {
    /// One progress line, printed as the cycle finishes.
    pub fn render(&self) -> String {
        format!(
            "cycle {}: {} at {} frames (started {}, {} threads) -> {} intact, replay {} frames, {} served answers verified [{} ms run, {} ms verify]",
            self.cycle,
            self.outcome,
            self.kill_at_frames,
            self.frames_at_start,
            self.threads,
            self.frames_after,
            self.replayed_frames,
            self.served_checked,
            self.cycle_ms,
            self.verify_ms,
        )
    }

    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("cycle".to_string(), Value::U64(u64::from(self.cycle))),
            (
                "frames_at_start".to_string(),
                Value::U64(self.frames_at_start as u64),
            ),
            (
                "kill_at_frames".to_string(),
                Value::U64(self.kill_at_frames as u64),
            ),
            ("threads".to_string(), Value::U64(self.threads as u64)),
            (
                "outcome".to_string(),
                Value::String(self.outcome.to_string()),
            ),
            (
                "frames_after".to_string(),
                Value::U64(self.frames_after as u64),
            ),
            (
                "replayed_frames".to_string(),
                Value::U64(self.replayed_frames as u64),
            ),
            (
                "served_checked".to_string(),
                Value::U64(self.served_checked),
            ),
            ("cycle_ms".to_string(), Value::U64(self.cycle_ms)),
            ("verify_ms".to_string(), Value::U64(self.verify_ms)),
        ])
    }
}

/// The whole soak's outcome.
#[derive(Debug, Clone)]
pub struct Report {
    /// Shard jobs in the campaign plan.
    pub jobs: usize,
    /// Per-cycle outcomes, in order.
    pub cycles: Vec<CycleOutcome>,
    /// Every invariant violation or harness failure, in order. Empty
    /// means the soak passed.
    pub failures: Vec<String>,
    /// Intact shard frames at the end (== `jobs` on a passing run).
    pub final_frames: usize,
    /// Whole-soak wall clock, ms.
    pub elapsed_ms: u64,
    /// Journalled shard throughput over the whole soak (frames written
    /// across all children / elapsed).
    pub shards_per_s: f64,
    /// Fraction of shard work the final child salvaged from the journal
    /// instead of re-simulating (replayed / jobs).
    pub salvage_rate: f64,
    /// Fraction of ledger tests that needed more than one attempt, from
    /// the reference dataset (deterministic per config).
    pub retry_rate: f64,
    /// Merged load-client report.
    pub load: LoadReport,
    /// The final campaign child's `CampaignMetrics` dump.
    pub child_metrics: Option<Value>,
    /// The server's parsed shutdown dump (ingest/query histograms).
    pub serve_dump: Option<Value>,
}

impl Report {
    /// Process exit code: 0 = every invariant held, 1 = something
    /// failed.
    pub fn exit_code(&self) -> i32 {
        if self.failures.is_empty() {
            0
        } else {
            1
        }
    }

    /// The final JSON document.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            (
                "verdict".to_string(),
                Value::String(
                    if self.failures.is_empty() {
                        "pass"
                    } else {
                        "fail"
                    }
                    .to_string(),
                ),
            ),
            ("jobs".to_string(), Value::U64(self.jobs as u64)),
            (
                "cycles".to_string(),
                Value::Array(self.cycles.iter().map(CycleOutcome::to_value).collect()),
            ),
            (
                "failures".to_string(),
                Value::Array(
                    self.failures
                        .iter()
                        .map(|f| Value::String(f.clone()))
                        .collect(),
                ),
            ),
            (
                "final_frames".to_string(),
                Value::U64(self.final_frames as u64),
            ),
            ("elapsed_ms".to_string(), Value::U64(self.elapsed_ms)),
            ("shards_per_s".to_string(), Value::F64(self.shards_per_s)),
            ("salvage_rate".to_string(), Value::F64(self.salvage_rate)),
            ("retry_rate".to_string(), Value::F64(self.retry_rate)),
            (
                "queries".to_string(),
                Value::Object(vec![
                    ("answered".to_string(), Value::U64(self.load.answered)),
                    ("malformed".to_string(), Value::U64(self.load.malformed)),
                    ("io_errors".to_string(), Value::U64(self.load.io_errors)),
                    ("latency".to_string(), self.load.latency.to_value()),
                ]),
            ),
            (
                "campaign_metrics".to_string(),
                self.child_metrics.clone().unwrap_or(Value::Null),
            ),
            (
                "serve".to_string(),
                self.serve_dump.clone().unwrap_or(Value::Null),
            ),
        ])
    }

    /// The human-readable closing summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let lat = &self.load.latency;
        out.push_str(&format!(
            "soak {}: {} cycles, {}/{} frames, {:.1} shards/s, salvage {:.0}%, retry {:.1}%\n",
            if self.failures.is_empty() {
                "PASS"
            } else {
                "FAIL"
            },
            self.cycles.len(),
            self.final_frames,
            self.jobs,
            self.shards_per_s,
            self.salvage_rate * 100.0,
            self.retry_rate * 100.0,
        ));
        out.push_str(&format!(
            "queries: {} answered ({} malformed, {} io errors), latency p50<={}us p90<={}us p99<={}us\n",
            self.load.answered,
            self.load.malformed,
            self.load.io_errors,
            lat.quantile_bound(0.50),
            lat.quantile_bound(0.90),
            lat.quantile_bound(0.99),
        ));
        for f in &self.failures {
            out.push_str(&format!("FAILURE: {f}\n"));
        }
        out
    }
}
