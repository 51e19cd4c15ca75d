//! # wheels-experiments
//!
//! One module per table and figure of the paper's evaluation, each
//! regenerating its rows/series from a simulated campaign dataset. The
//! `repro` binary prints any (or all) of them; EXPERIMENTS.md records the
//! paper-vs-measured comparison. [`ablations`] switches the mechanisms
//! behind the headline shapes off one at a time; it needs no world and
//! stays out of the registry.
//!
//! Experiments are registered in [`registry`]; each takes a shared
//! [`world::World`] (campaign + dataset, built once per scale) and returns
//! the rendered text.

pub mod ablations;
pub mod cli;
pub mod fmt;
pub mod targets;
pub mod world;

pub mod ext_multipath;
pub mod ext_multivariate;
pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13_14;
pub mod fig15;
pub mod fig16;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7_8;
pub mod fig9;
pub mod findings;
pub mod quality;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4_5;

use world::World;

/// One registered experiment: `(id, description, runner)`.
pub type Experiment = (&'static str, &'static str, fn(&World) -> String);

/// The experiment registry.
pub fn registry() -> Vec<Experiment> {
    vec![
        (
            "table1",
            "Dataset statistics",
            table1::run as fn(&World) -> String,
        ),
        (
            "fig1",
            "Passive vs active coverage along the route",
            fig1::run,
        ),
        ("fig2", "Technology coverage breakdowns", fig2::run),
        ("fig3", "Static vs driving performance", fig3::run),
        (
            "fig4",
            "Per-technology performance; edge vs cloud",
            fig4::run,
        ),
        ("fig5", "Throughput by timezone", fig5::run),
        ("fig6", "Operator diversity", fig6::run),
        ("fig7", "Throughput vs speed", fig7_8::run_fig7),
        ("fig8", "RTT vs speed", fig7_8::run_fig8),
        ("fig9", "Per-test means and variability", fig9::run),
        (
            "fig10",
            "Performance vs high-speed-5G time share",
            fig10::run,
        ),
        ("table2", "Throughput-KPI correlations", table2::run),
        (
            "table3",
            "Comparison with the Ookla Q3-2022 report",
            table3::run,
        ),
        ("fig11", "Handover rates and durations", fig11::run),
        ("fig12", "Handover throughput impact", fig12::run),
        ("table4", "AR/CAV app configuration", table4_5::run_table4),
        ("table5", "Latency-accuracy model", table4_5::run_table5),
        ("fig13", "AR app performance (Verizon)", fig13_14::run_fig13),
        (
            "fig14",
            "CAV app performance (Verizon)",
            fig13_14::run_fig14,
        ),
        ("fig15", "360 video performance", fig15::run),
        ("fig16", "Cloud gaming performance", fig16::run),
        (
            "fig18",
            "AR/CAV across operators (Figs. 18-20)",
            fig13_14::run_fig18_20,
        ),
        ("fig21", "360 video across operators", fig15::run_all_ops),
        ("fig22", "Cloud gaming across operators", fig16::run_all_ops),
        (
            "findings",
            "Digest: the paper's key findings re-checked against this dataset",
            findings::run,
        ),
        (
            "ext-multipath",
            "Extension: multi-connectivity what-if (paper recommendation #2)",
            ext_multipath::run,
        ),
        (
            "ext-multivariate",
            "Extension: multivariate KPI analysis (paper's stated future work)",
            ext_multivariate::run,
        ),
        (
            "quality",
            "Data quality: disruption and salvage accounting",
            quality::run,
        ),
    ]
}

/// Run one experiment by id.
pub fn run_by_id(world: &World, id: &str) -> Option<String> {
    registry()
        .into_iter()
        .find(|(eid, _, _)| *eid == id)
        .map(|(_, _, f)| f(world))
}

/// Resolve ids against the registry, preserving input order. `Err` is
/// the first unknown id, so callers can reject bad invocations before
/// building a world.
pub fn resolve(ids: &[String]) -> Result<Vec<Experiment>, String> {
    let reg = registry();
    ids.iter()
        .map(|id| {
            reg.iter()
                .find(|(eid, _, _)| eid == id)
                .copied()
                .ok_or_else(|| id.clone())
        })
        .collect()
}

/// Run experiments on a worker pool (the campaign engine's pattern: an
/// atomic next-job counter over scoped threads, results parked in
/// per-slot mutexes). Returned texts are in `exps` order regardless of
/// thread count or completion order; `threads` of `None` means host
/// cores. Experiments only read the shared world, so parallelism cannot
/// change any output.
pub fn run_experiments(world: &World, exps: &[Experiment], threads: Option<usize>) -> Vec<String> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let threads = threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
        .clamp(1, exps.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<String>>> = exps.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some((_, _, f)) = exps.get(i) else { break };
                let text = f(world);
                *slots[i].lock().expect("experiment slot mutex poisoned") = Some(text);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("experiment slot mutex poisoned")
                .expect("every claimed experiment stores its text")
        })
        .collect()
}

/// The exact byte stream `repro` writes to stdout for these experiments:
/// a 78-char separator line, then the experiment text, per experiment.
/// The determinism suite compares this across thread counts.
pub fn render_report(world: &World, exps: &[Experiment], threads: Option<usize>) -> String {
    let texts = run_experiments(world, exps, threads);
    let mut out = String::new();
    for text in texts {
        out.push_str(&"=".repeat(78));
        out.push('\n');
        out.push_str(&text);
        out.push('\n');
    }
    out
}
