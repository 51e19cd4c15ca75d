//! Streaming-ingest timings — incremental `DatasetView::ingest_shard`
//! vs a full rebuild.
//!
//! Like the campaign and storage benches, deliberately not Criterion:
//! one full ingest pass is the right granularity, and the results land
//! in `BENCH_ingest.json` at the repo root as a tracked baseline.
//!
//! Usage:
//!
//! ```text
//! cargo bench -p wheels-bench --bench ingest              # Quick scale
//! cargo bench -p wheels-bench --bench ingest -- --standard
//! ```
//!
//! The ingest column answers "what does keeping the view live cost per
//! arriving shard?": all plan-order shards are spliced into one empty
//! view and the total is divided by the shard count. The rebuild
//! column is the alternative it replaces — `DatasetView::new` over the
//! fully merged dataset.

use std::path::PathBuf;
use std::time::Instant;

use wheels_core::analysis::view::DatasetView;
use wheels_core::campaign::Campaign;
use wheels_core::records::Dataset;
use wheels_experiments::world::Scale;

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
    shards: usize,
    tput_samples: usize,
    rebuild_secs: f64,
    ingest_total_secs: f64,
}

fn bench_scale(campaign: &Campaign, name: &'static str, scale: Scale, reps: usize) -> ScaleResult {
    eprintln!("{name} scale: building shards...");
    let cfg = scale.config();
    let shards = campaign.shard_records(&cfg);
    let full = campaign.run(&cfg);
    let tput_samples = full.tput.len();

    // Full rebuild: normalize sort + index build over the
    // already-merged dataset. Sources are pre-cloned outside the timer.
    let mut rebuild_sources: Vec<_> = (0..reps).map(|_| full.clone()).collect();
    let rebuild_secs = best_of(reps, || {
        let src = rebuild_sources.pop().expect("one source per rep");
        DatasetView::new(src).dataset().tput.len() as f64
    });

    // Incremental ingest: splice every plan-order shard into one
    // initially empty view; the per-shard figure amortizes the pass.
    let mut shard_sets: Vec<_> = (0..reps).map(|_| shards.clone()).collect();
    let ingest_total_secs = best_of(reps, || {
        let set = shard_sets.pop().expect("one shard set per rep");
        let mut view = DatasetView::new(Dataset::default());
        for rec in set {
            view.ingest_shard(rec);
        }
        view.dataset().tput.len() as f64
    });

    eprintln!(
        "  {} shards / {} tput samples: rebuild {:.4}s | ingest {:.4}s total, {:.1} us/shard",
        shards.len(),
        tput_samples,
        rebuild_secs,
        ingest_total_secs,
        ingest_total_secs / shards.len() as f64 * 1e6
    );

    ScaleResult {
        name,
        shards: shards.len(),
        tput_samples,
        rebuild_secs,
        ingest_total_secs,
    }
}

fn json_scale(r: &ScaleResult) -> String {
    let per_shard_us = r.ingest_total_secs / r.shards as f64 * 1e6;
    format!(
        "    {{\n      \"scale\": \"{}\",\n      \"shards\": {},\n      \
         \"tput_samples\": {},\n      \"rebuild_secs\": {:.6},\n      \
         \"ingest_total_secs\": {:.6},\n      \"ingest_us_per_shard\": {:.1}\n    }}",
        r.name, r.shards, r.tput_samples, r.rebuild_secs, r.ingest_total_secs, per_shard_us,
    )
}

fn main() {
    let standard = std::env::args().any(|a| a == "--standard");
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!("ingest bench: {cores} cores, standard={standard}");

    let campaign = Campaign::standard(2022);

    let mut scales = vec![json_scale(&bench_scale(
        &campaign,
        "quick",
        Scale::Quick,
        5,
    ))];
    if standard {
        scales.push(json_scale(&bench_scale(
            &campaign,
            "standard",
            Scale::Standard,
            3,
        )));
    }

    let json = format!(
        "{{\n  \"bench\": \"ingest\",\n  \"host_cores\": {},\n  \"note\": \"{}\",\n  \
         \"scales\": [\n{}\n  ]\n}}\n",
        cores,
        "ingest_us_per_shard amortizes one empty-view ingest pass over all plan-order \
         shards; rebuild_secs is DatasetView::new over the merged dataset",
        scales.join(",\n")
    );
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root");
    let path = root.join("BENCH_ingest.json");
    std::fs::write(&path, &json).expect("write BENCH_ingest.json");
    eprintln!("wrote {}", path.display());
    print!("{json}");
}
