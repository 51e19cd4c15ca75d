//! Data-quality report: measurement-disruption accounting.
//!
//! The paper's campaign lost tests to server outages, app crashes, XCAL
//! logger gaps, and clock drift (challenge \[C2\]); the authors tracked
//! what survived and what had to be discarded. This report aggregates the
//! per-test audit trail ([`wheels_core::records::TestAudit`]) the campaign
//! keeps even when fault injection is off: per operator × trace day, how
//! many tests were attempted, completed cleanly, salvaged as partials,
//! needed retries, or were lost outright — and the sample-level ledger
//! (planned vs recorded vs lost 500 ms / 200 ms samples).
//!
//! With faults disabled (the default) every row shows a clean campaign:
//! all tests completed on the first attempt, zero loss. Run `repro
//! --faults` to see the demo disruption mix.

use std::collections::BTreeMap;

use wheels_core::records::{AuditTally, Dataset};
use wheels_ran::operator::Operator;

use crate::fmt;
use crate::world::World;

/// Aggregate the dataset's audit trail per (operator, trace day),
/// sorted by operator then day.
pub fn summarize(ds: &Dataset) -> BTreeMap<(Operator, u8), AuditTally> {
    let mut groups: BTreeMap<(Operator, u8), AuditTally> = BTreeMap::new();
    for a in &ds.audits {
        groups.entry((a.operator, a.day)).or_default().add(a);
    }
    groups
}

/// Render the data-quality report.
pub fn run(world: &World) -> String {
    let ds = world.dataset();
    let groups = summarize(ds);

    let mut rows: Vec<Vec<String>> = groups
        .iter()
        .map(|((op, day), row)| render_row(&format!("{} d{day}", op.label()), row))
        .collect();
    let total = AuditTally::of(&ds.audits);
    rows.push(render_row("all", &total));

    let salvage = if total.planned_samples == 0 {
        100.0
    } else {
        100.0 * total.recorded_samples as f64 / total.planned_samples as f64
    };
    let mut out = String::from("Data quality: disruption accounting per operator x day\n\n");
    out.push_str(&fmt::table(
        &[
            "group", "tests", "done", "part", "retry", "lost", "planned", "kept", "dropped",
        ],
        &rows,
    ));
    out.push_str(&format!(
        "\nsample salvage rate: {} ({} of {} planned samples recorded)\n",
        fmt::pct(salvage),
        total.recorded_samples,
        total.planned_samples,
    ));
    out
}

fn render_row(label: &str, r: &AuditTally) -> Vec<String> {
    vec![
        label.to_string(),
        r.attempted.to_string(),
        r.completed.to_string(),
        r.partial.to_string(),
        r.retried.to_string(),
        r.lost.to_string(),
        r.planned_samples.to_string(),
        r.recorded_samples.to_string(),
        r.lost_samples.to_string(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use wheels_core::records::{TestAudit, TestKind, TestStatus};
    use wheels_sim_core::time::SimTime;

    fn audit(
        op: Operator,
        day: u8,
        status: TestStatus,
        attempts: u32,
        planned: u32,
        recorded: u32,
    ) -> TestAudit {
        TestAudit {
            test_id: 1,
            operator: op,
            kind: TestKind::DownlinkTput,
            day,
            scheduled: SimTime::EPOCH,
            status,
            attempts,
            fault: None,
            planned_samples: planned,
            recorded_samples: recorded,
            lost_samples: planned - recorded,
        }
    }

    #[test]
    fn summarize_groups_by_operator_and_day() {
        let mut ds = Dataset::default();
        ds.audits.push(audit(
            Operator::Verizon,
            0,
            TestStatus::Completed,
            1,
            60,
            60,
        ));
        ds.audits
            .push(audit(Operator::Verizon, 0, TestStatus::Partial, 2, 60, 40));
        ds.audits
            .push(audit(Operator::Verizon, 1, TestStatus::Lost, 3, 100, 0));
        ds.audits
            .push(audit(Operator::Att, 0, TestStatus::Completed, 1, 10, 10));

        let groups = summarize(&ds);
        assert_eq!(groups.len(), 3);

        let v0 = groups[&(Operator::Verizon, 0)];
        assert_eq!(v0.attempted, 2);
        assert_eq!(v0.completed, 1);
        assert_eq!(v0.partial, 1);
        assert_eq!(v0.retried, 1);
        assert_eq!(v0.lost, 0);
        assert_eq!(v0.planned_samples, 120);
        assert_eq!(v0.recorded_samples, 100);
        assert_eq!(v0.lost_samples, 20);

        let v1 = groups[&(Operator::Verizon, 1)];
        assert_eq!(v1.lost, 1);
        assert_eq!(v1.retried, 1);
        assert_eq!(v1.lost_samples, 100);
    }

    #[test]
    fn report_renders_clean_campaign_as_zero_loss() {
        let w = crate::world::World::quick();
        let out = run(w);
        assert!(out.contains("sample salvage rate: 100.0%"), "{out}");
        // Audits exist even with faults off.
        assert!(!w.dataset().audits.is_empty());
        let groups = summarize(w.dataset());
        for row in groups.values() {
            assert_eq!(row.attempted, row.completed);
            assert_eq!(row.partial, 0);
            assert_eq!(row.retried, 0);
            assert_eq!(row.lost, 0);
            assert_eq!(row.planned_samples, row.recorded_samples);
        }
    }
}
