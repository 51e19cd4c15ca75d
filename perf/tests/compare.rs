use wheels_perf::compare::{bounds, classify, compare, Verdict};
use wheels_perf::report::{parse_ledger_line, LedgerRow, Metric, Report};

const BOUND: f64 = 0.10;

#[test]
fn a_median_worse_by_more_than_the_bound_is_worse() {
    let base = [100.0, 101.0, 99.0, 100.0];
    let new = [115.0, 116.0, 114.0, 115.0];
    assert_eq!(classify(&base, &new, BOUND, true), Verdict::Worse);
    // For a higher-is-better metric the same move is a gain.
    assert_eq!(classify(&base, &new, BOUND, false), Verdict::Better);
}

#[test]
fn a_change_inside_the_bound_is_same_unless_it_clears_the_base_spread() {
    let base = [100.0, 101.0, 99.0, 100.0];
    assert_eq!(
        classify(&base, &[105.0, 104.0, 106.0], BOUND, true),
        Verdict::Same
    );
    assert_eq!(
        classify(&base, &[100.5, 99.5, 100.0], BOUND, true),
        Verdict::Same
    );
    assert_eq!(
        classify(&base, &[95.0, 94.0, 96.0], BOUND, true),
        Verdict::Better
    );
}

#[test]
fn a_spread_wider_than_the_bound_is_unresolved() {
    let base = [80.0, 100.0, 120.0, 100.0];
    assert_eq!(
        classify(&base, &[100.0, 130.0, 90.0], BOUND, true),
        Verdict::Unresolved
    );
    // ...unless every new run beats every base run.
    assert_eq!(
        classify(&base, &[60.0, 70.0, 75.0], BOUND, true),
        Verdict::Better
    );
    // One run a side cannot show its spread.
    assert_eq!(
        classify(&[100.0], &[150.0], BOUND, true),
        Verdict::Unresolved
    );
}

fn row(workload: &str, attempted: u64, failed: u64, p50: f64) -> LedgerRow {
    LedgerRow {
        workload: workload.to_string(),
        trace: false,
        attempted,
        failed,
        metrics: vec![("op_p50_ms".to_string(), p50)],
    }
}

#[test]
fn compare_reads_bounds_and_flags_new_failures() {
    let b =
        bounds(r#"{"end_to_end":[{"name":"op_p50_ms","unit":"ms","better":"lower","bound":0.1}]}"#)
            .expect("bounds parse");
    let base = vec![row("repro", 10, 0, 100.0), row("repro", 10, 0, 101.0)];
    let new = vec![row("repro", 10, 0, 100.0), row("repro", 10, 1, 100.5)];
    let rows = compare(&b, &base, &new);
    let verdicts: Vec<(&str, Verdict)> = rows
        .iter()
        .map(|r| (r.metric.as_str(), r.verdict))
        .collect();
    assert_eq!(
        verdicts,
        vec![
            ("op_p50_ms", Verdict::Same),
            ("failed_share", Verdict::Worse)
        ]
    );
    assert!(bounds(r#"{"end_to_end":[{"name":"x","better":"up","bound":0.1}]}"#).is_err());
}

#[test]
fn result_line_has_exactly_the_four_keys_and_the_ledger_line_reads_back() {
    let report = Report {
        workload: "repro".to_string(),
        seed: 7,
        trace: false,
        cores: 2,
        profile: "release",
        seconds: 10.0,
        attempted: 3,
        failed: 0,
        problems: Vec::new(),
        metrics: vec![Metric::new("op_p50_ms", "ms", 4123.25, 3)],
        info: vec![Metric::new("op_max_ms", "ms", 4200.0, 3)],
    };
    assert_eq!(
        report.result_line(),
        r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"op_p50_ms":{"value":4123.25,"unit":"ms"}}}"#
    );
    let back = parse_ledger_line(&report.ledger_line()).expect("ledger line parses");
    assert_eq!(
        back,
        LedgerRow {
            workload: "repro".to_string(),
            trace: false,
            attempted: 3,
            failed: 0,
            metrics: vec![("op_p50_ms".to_string(), 4123.25)],
        }
    );
    assert_eq!(
        parse_ledger_line(&report.result_line()),
        None,
        "the result line is not a ledger line"
    );
}
