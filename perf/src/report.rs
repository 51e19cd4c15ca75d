//! The run report: one full JSON line for the ledger, then the short
//! result line that ends every run.

use serde::Value;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Catalogue name.
    pub name: String,
    /// Catalogue unit.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Samples behind the value.
    pub n: usize,
}

impl Metric {
    /// A metric with its sample count.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, n: usize) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            n,
        }
    }
}

/// Everything one run reports.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Seed the inputs came from.
    pub seed: u64,
    /// True for the traced (per-layer) run.
    pub trace: bool,
    /// `available_parallelism` of the host.
    pub cores: usize,
    /// Build profile of the runner.
    pub profile: &'static str,
    /// Length of the timed phase, s.
    pub seconds: f64,
    /// Operations attempted.
    pub attempted: usize,
    /// Operations failed.
    pub failed: usize,
    /// Correctness failures; the run is correct when this is empty.
    pub problems: Vec<String>,
    /// The metrics, in catalogue order.
    pub metrics: Vec<Metric>,
    /// Readings kept in the ledger line only, never gated: too noisy on
    /// a shared host for any bound (the latency tail).
    pub info: Vec<Metric>,
}

fn s(v: &str) -> Value {
    Value::String(v.to_string())
}

fn u(v: usize) -> Value {
    Value::U64(v as u64)
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

impl Report {
    /// True when no check failed and no operation failed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// The ledger line: workload, seed, host and every metric with its
    /// sample count. `--compare` reads these.
    pub fn ledger_line(&self) -> String {
        let with_n = |list: &[Metric]| {
            Value::Object(
                list.iter()
                    .map(|m| {
                        (
                            m.name.clone(),
                            obj(vec![
                                ("value", Value::F64(m.value)),
                                ("unit", s(m.unit)),
                                ("n", u(m.n)),
                            ]),
                        )
                    })
                    .collect(),
            )
        };
        let v = obj(vec![
            ("bench", s("wheels-perf")),
            ("workload", s(&self.workload)),
            ("seed", Value::U64(self.seed)),
            ("trace", Value::Bool(self.trace)),
            (
                "host",
                obj(vec![("cores", u(self.cores)), ("profile", s(self.profile))]),
            ),
            ("seconds", Value::F64(self.seconds)),
            ("correct", Value::Bool(self.correct())),
            ("attempted", u(self.attempted)),
            ("failed", u(self.failed)),
            ("metrics", with_n(&self.metrics)),
            ("info", with_n(&self.info)),
            (
                "problems",
                Value::Array(self.problems.iter().map(|p| s(p)).collect()),
            ),
        ]);
        serde_json::to_string(&v).expect("a value tree always serializes")
    }

    /// The last line of every run: exactly `correct`, `attempted`,
    /// `failed` and `metrics` (`{name: {value, unit}}`).
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    obj(vec![("value", Value::F64(m.value)), ("unit", s(m.unit))]),
                )
            })
            .collect();
        let v = obj(vec![
            ("correct", Value::Bool(self.correct())),
            ("attempted", u(self.attempted.max(1))),
            ("failed", u(self.failed)),
            ("metrics", Value::Object(metrics)),
        ]);
        serde_json::to_string(&v).expect("a value tree always serializes")
    }
}

/// One ledger line read back: workload, failures and metric values.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerRow {
    /// Workload name.
    pub workload: String,
    /// True for a traced run.
    pub trace: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Metric name → value.
    pub metrics: Vec<(String, f64)>,
}

/// Parse a ledger line; any other line (the result line, logs) is `None`.
pub fn parse_ledger_line(line: &str) -> Option<LedgerRow> {
    let v: Value = serde_json::from_str(line.trim()).ok()?;
    let Value::Object(fields) = &v else {
        return None;
    };
    let get = |k: &str| serde::get_field(fields, k);
    if get("bench") != &s("wheels-perf") {
        return None;
    }
    let Value::String(workload) = get("workload") else {
        return None;
    };
    let num = |v: &Value| match v {
        Value::F64(x) => Some(*x),
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        _ => None,
    };
    let Value::Object(ms) = get("metrics") else {
        return None;
    };
    let metrics = ms
        .iter()
        .filter_map(|(name, m)| match m {
            Value::Object(f) => num(serde::get_field(f, "value")).map(|x| (name.clone(), x)),
            _ => None,
        })
        .collect();
    Some(LedgerRow {
        workload: workload.clone(),
        trace: matches!(get("trace"), Value::Bool(true)),
        attempted: num(get("attempted"))? as u64,
        failed: num(get("failed"))? as u64,
        metrics,
    })
}
