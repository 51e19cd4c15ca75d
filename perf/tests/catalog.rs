//! The names the runner can emit and the names `BENCHMARK.json`
//! declares must be the same sets, with the same units and directions.

use std::collections::BTreeMap;
use std::path::Path;

use serde::Value;
use wheels_perf::catalog::{self, END_TO_END, PER_LAYER};
use wheels_perf::workload::Workload;

fn benchmark() -> Vec<(String, Value)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    match serde_json::from_str(&text).expect("BENCHMARK.json parses") {
        Value::Object(fields) => fields,
        other => panic!("BENCHMARK.json is not an object: {other:?}"),
    }
}

fn str_field<'a>(fields: &'a [(String, Value)], key: &str) -> &'a str {
    match serde::get_field(fields, key) {
        Value::String(s) => s,
        other => panic!("{key} is not a string: {other:?}"),
    }
}

/// name → (unit, better) for one metric list of `BENCHMARK.json`.
fn declared(list: &str) -> BTreeMap<String, (String, String)> {
    let top = benchmark();
    let Value::Array(items) = serde::get_field(&top, list) else {
        panic!("{list} is not a list");
    };
    let mut out = BTreeMap::new();
    for item in items {
        let Value::Object(f) = item else {
            panic!("{list} entry is not an object")
        };
        let name = str_field(f, "name").to_string();
        let prev = out.insert(
            name.clone(),
            (
                str_field(f, "unit").to_string(),
                str_field(f, "better").to_string(),
            ),
        );
        assert!(prev.is_none(), "{name} declared twice");
    }
    out
}

fn better(lower: bool) -> String {
    if lower { "lower" } else { "higher" }.to_string()
}

#[test]
fn end_to_end_names_match_in_both_directions() {
    let emitted: BTreeMap<String, (String, String)> = END_TO_END
        .iter()
        .map(|d| {
            (
                d.name.to_string(),
                (d.unit.to_string(), better(d.lower_is_better)),
            )
        })
        .collect();
    assert_eq!(emitted, declared("end_to_end"));
}

#[test]
fn per_layer_names_match_in_both_directions() {
    let lower: BTreeMap<&str, bool> = PER_LAYER
        .iter()
        .map(|d| (d.name, d.lower_is_better))
        .collect();
    let emitted: BTreeMap<String, (String, String)> = catalog::per_layer_names()
        .into_iter()
        .map(|(name, unit)| {
            let lower_is_better = lower.get(name.as_str()).copied().unwrap_or(true);
            (name, (unit.to_string(), better(lower_is_better)))
        })
        .collect();
    assert_eq!(
        emitted.len(),
        catalog::per_layer_names().len(),
        "a per-layer name repeats"
    );
    assert_eq!(emitted, declared("per_layer"));
}

#[test]
fn workloads_match_the_runner() {
    let top = benchmark();
    let Value::Array(items) = serde::get_field(&top, "workloads") else {
        panic!("workloads is not a list");
    };
    let declared: Vec<&str> = items
        .iter()
        .map(|w| match w {
            Value::Object(f) => str_field(f, "name"),
            _ => panic!("workload entry is not an object"),
        })
        .collect();
    let runner: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(declared, runner);
}

#[test]
fn the_catalogue_lists_every_registered_experiment() {
    let registered: Vec<&str> = wheels_experiments::registry()
        .iter()
        .map(|(id, _, _)| *id)
        .collect();
    assert_eq!(registered, catalog::EXPERIMENTS.to_vec());
}
