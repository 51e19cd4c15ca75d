//! Storage timings — WCD1 binary load vs JSON parse, encoded sizes,
//! and view construction.
//!
//! Like the campaign and analysis benches, deliberately not Criterion:
//! one load or one view build over a whole dataset is the right
//! granularity, and the results land in `BENCH_storage.json` at the repo
//! root as a tracked baseline.
//!
//! Usage:
//!
//! ```text
//! cargo bench -p wheels-bench --bench storage              # Quick scale
//! cargo bench -p wheels-bench --bench storage -- --standard
//! ```
//!
//! Both load paths go through [`wheels_core::column::load_dataset`] —
//! exactly what `repro --load` runs — so the speedup column is the
//! end-to-end parse-vs-decode ratio a user sees, not a microbenchmark.
//! The view-build timing is `DatasetView::new` (normalize sort + index
//! build) over a source cloned before the clock starts.

use std::path::PathBuf;
use std::time::Instant;

use wheels_core::analysis::view::DatasetView;
use wheels_core::column::{self, wcd, ColumnarDataset};
use wheels_experiments::world::{Scale, World};

fn best_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        let sink = f();
        best = best.min(t0.elapsed().as_secs_f64());
        // Keep the optimizer honest.
        assert!(sink.is_finite());
    }
    best
}

struct ScaleResult {
    name: &'static str,
    tput_samples: usize,
    json_bytes: usize,
    bin_bytes: usize,
    json_parse_secs: f64,
    bin_load_secs: f64,
    json_encode_secs: f64,
    bin_encode_secs: f64,
    view_rows_secs: f64,
}

fn bench_scale(name: &'static str, scale: Scale, reps: usize) -> ScaleResult {
    eprintln!("{name} scale: building world...");
    let world = World::build_with(scale, 2022, None);
    let ds = world.dataset().clone();
    let cols = ColumnarDataset::from_rows(&ds);

    let json = serde_json::to_string(&ds).expect("dataset serializes");
    let bin = wcd::encode(&cols);
    let json_bytes = json.len();
    let bin_bytes = bin.len();

    // Both loads run the `repro --load` path: auto-detect + full
    // materialization back to row tables.
    let json_parse_secs = best_of(reps, || {
        let (loaded, _) = column::load_dataset(json.as_bytes()).expect("json loads");
        loaded.tput.len() as f64
    });
    let bin_load_secs = best_of(reps, || {
        let (loaded, _) = column::load_dataset(&bin).expect("binary loads");
        loaded.tput.len() as f64
    });

    let json_encode_secs = best_of(reps, || {
        serde_json::to_string(&ds)
            .expect("dataset serializes")
            .len() as f64
    });
    let bin_encode_secs = best_of(reps, || wcd::encode(&cols).len() as f64);

    // View construction takes its input by value, so the per-rep
    // sources are cloned up front, outside the timed closure.
    let mut row_sources: Vec<_> = (0..reps).map(|_| ds.clone()).collect();
    let view_rows_secs = best_of(reps, || {
        let src = row_sources.pop().expect("one pre-cloned source per rep");
        DatasetView::new(src).dataset().tput.len() as f64
    });

    eprintln!(
        "  {} tput samples: json {:.1} MB parse {:.4}s | bin {:.1} MB load {:.4}s ({:.0}x) | \
         view {:.4}s",
        ds.tput.len(),
        json_bytes as f64 / 1e6,
        json_parse_secs,
        bin_bytes as f64 / 1e6,
        bin_load_secs,
        json_parse_secs / bin_load_secs,
        view_rows_secs
    );

    ScaleResult {
        name,
        tput_samples: ds.tput.len(),
        json_bytes,
        bin_bytes,
        json_parse_secs,
        bin_load_secs,
        json_encode_secs,
        bin_encode_secs,
        view_rows_secs,
    }
}

fn json_scale(r: &ScaleResult) -> String {
    format!(
        "    {{\n      \"scale\": \"{}\",\n      \"tput_samples\": {},\n      \
         \"json_bytes\": {},\n      \"bin_bytes\": {},\n      \"size_ratio\": {:.2},\n      \
         \"json_parse_secs\": {:.6},\n      \"bin_load_secs\": {:.6},\n      \
         \"load_speedup\": {:.1},\n      \"json_encode_secs\": {:.6},\n      \
         \"bin_encode_secs\": {:.6},\n      \"view_build_rows_secs\": {:.6}\n    }}",
        r.name,
        r.tput_samples,
        r.json_bytes,
        r.bin_bytes,
        r.json_bytes as f64 / r.bin_bytes as f64,
        r.json_parse_secs,
        r.bin_load_secs,
        r.json_parse_secs / r.bin_load_secs,
        r.json_encode_secs,
        r.bin_encode_secs,
        r.view_rows_secs
    )
}

fn main() {
    let standard = std::env::args().any(|a| a == "--standard");
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!("storage bench: {cores} cores, standard={standard}");

    let mut scales = vec![json_scale(&bench_scale("quick", Scale::Quick, 10))];
    if standard {
        scales.push(json_scale(&bench_scale("standard", Scale::Standard, 5)));
    }

    let json = format!(
        "{{\n  \"bench\": \"storage\",\n  \"host_cores\": {},\n  \"note\": \"{}\",\n  \
         \"scales\": [\n{}\n  ]\n}}\n",
        cores,
        "load timings run the repro --load path (auto-detect + materialize rows); \
         view-build timings consume pre-cloned source tables",
        scales.join(",\n")
    );
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root");
    let path = root.join("BENCH_storage.json");
    std::fs::write(&path, &json).expect("write BENCH_storage.json");
    eprintln!("wrote {}", path.display());
    print!("{json}");
}
