//! `--compare BASE NEW`: judge a set of runs against a baseline set with
//! the bounds `BENCHMARK.json` fixes.
//!
//! For each (workload, end-to-end metric) the verdict is one of:
//!
//! - `worse`: the new median is worse than the base median by more than
//!   the metric's bound;
//! - `better`: the new median is better by more than the base runs'
//!   own quartile spread;
//! - `same`: neither;
//! - `unresolved`: the run-to-run spread of either side is wider than
//!   the bound (or either side has fewer than two runs), so the runs
//!   cannot tell — unless every new run beats every base run.
//!
//! A rise in the share of failed operations is always `worse`.

use serde::Value;

use crate::report::LedgerRow;
use crate::stats;

/// One end-to-end metric's regression bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// True when a smaller value is better.
    pub lower_is_better: bool,
    /// Share of the base median the metric may worsen by.
    pub bound: f64,
}

/// Read the `end_to_end` bounds out of `BENCHMARK.json`.
pub fn bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let v: Value =
        serde_json::from_str(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Value::Object(top) = &v else {
        return Err("BENCHMARK.json is not an object".to_string());
    };
    let Value::Array(list) = serde::get_field(top, "end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".to_string());
    };
    list.iter()
        .map(|m| {
            let Value::Object(f) = m else {
                return Err("end_to_end entry is not an object".to_string());
            };
            let name = match serde::get_field(f, "name") {
                Value::String(s) => s.clone(),
                _ => return Err("end_to_end entry without a name".to_string()),
            };
            let lower_is_better = match serde::get_field(f, "better") {
                Value::String(s) if s == "lower" => true,
                Value::String(s) if s == "higher" => false,
                _ => return Err(format!("{name}: better must be lower or higher")),
            };
            let bound = match serde::get_field(f, "bound") {
                Value::F64(x) => *x,
                Value::U64(n) => *n as f64,
                _ => return Err(format!("{name}: bound must be a number")),
            };
            Ok(Bound {
                name,
                lower_is_better,
                bound,
            })
        })
        .collect()
}

/// A comparison verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the base spread.
    Better,
    /// Within the bound.
    Same,
    /// Regressed by more than the bound.
    Worse,
    /// The spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Relative change of `new` against `base`, signed so that positive is
/// worse.
fn worsening(base: f64, new: f64, lower_is_better: bool) -> f64 {
    let d = (new - base) / base.abs();
    if lower_is_better {
        d
    } else {
        -d
    }
}

/// Judge one metric: `base` and `new` are one value per run.
pub fn classify(base: &[f64], new: &[f64], bound: f64, lower_is_better: bool) -> Verdict {
    let (Some(bm), Some(nm)) = (stats::median(base), stats::median(new)) else {
        return Verdict::Unresolved;
    };
    if base.len() < 2 || new.len() < 2 {
        return Verdict::Unresolved;
    }
    let beats = |n: f64, b: f64| if lower_is_better { n < b } else { n > b };
    let all_better = new.iter().all(|&n| base.iter().all(|&b| beats(n, b)));
    let base_spread = stats::spread(base).unwrap_or(f64::INFINITY);
    let spread = base_spread.max(stats::spread(new).unwrap_or(f64::INFINITY));
    let worse = worsening(bm, nm, lower_is_better);
    if spread > bound {
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse > bound {
        Verdict::Worse
    } else if -worse > base_spread {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// One line of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name (`failed_share` for the failure row).
    pub metric: String,
    /// Base median.
    pub base: f64,
    /// New median.
    pub new: f64,
    /// Signed relative change, positive = worse.
    pub change: f64,
    /// Bound applied.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compare the untraced runs of `new` against those of `base`, workload
/// by workload, for every bounded metric.
pub fn compare(bounds: &[Bound], base: &[LedgerRow], new: &[LedgerRow]) -> Vec<Row> {
    let mut workloads: Vec<&str> = Vec::new();
    for r in base.iter().chain(new) {
        if !r.trace && !workloads.contains(&r.workload.as_str()) {
            workloads.push(&r.workload);
        }
    }
    let mut rows = Vec::new();
    for w in workloads {
        let runs = |side: &[LedgerRow]| -> Vec<LedgerRow> {
            side.iter()
                .filter(|r| !r.trace && r.workload == w)
                .cloned()
                .collect()
        };
        let (b, n) = (runs(base), runs(new));
        if b.is_empty() || n.is_empty() {
            continue;
        }
        for bd in bounds {
            let values = |side: &[LedgerRow]| -> Vec<f64> {
                side.iter()
                    .filter_map(|r| {
                        r.metrics
                            .iter()
                            .find(|(k, _)| *k == bd.name)
                            .map(|(_, v)| *v)
                    })
                    .collect()
            };
            let (bv, nv) = (values(&b), values(&n));
            let (Some(bm), Some(nm)) = (stats::median(&bv), stats::median(&nv)) else {
                continue;
            };
            rows.push(Row {
                workload: w.to_string(),
                metric: bd.name.clone(),
                base: bm,
                new: nm,
                change: worsening(bm, nm, bd.lower_is_better),
                bound: bd.bound,
                verdict: classify(&bv, &nv, bd.bound, bd.lower_is_better),
            });
        }
        let share = |side: &[LedgerRow]| {
            let attempted: u64 = side.iter().map(|r| r.attempted).sum();
            let failed: u64 = side.iter().map(|r| r.failed).sum();
            failed as f64 / attempted.max(1) as f64
        };
        let (bs, ns) = (share(&b), share(&n));
        rows.push(Row {
            workload: w.to_string(),
            metric: "failed_share".to_string(),
            base: bs,
            new: ns,
            change: ns - bs,
            bound: 0.0,
            verdict: if ns > bs {
                Verdict::Worse
            } else {
                Verdict::Same
            },
        });
    }
    rows
}
