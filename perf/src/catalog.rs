//! The metric catalogue: every name the runner can emit, its unit and
//! direction, and for each per-layer metric the end-to-end metric (and
//! workload) it should move. `BENCHMARK.json` declares the same names;
//! `tests/catalog.rs` holds the two lists equal in both directions.

/// One catalogue entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Def {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// True when a smaller value is better.
    pub lower_is_better: bool,
    /// End-to-end: what it measures. Per-layer: what it should move.
    pub note: &'static str,
}

const fn lower(name: &'static str, unit: &'static str, note: &'static str) -> Def {
    Def {
        name,
        unit,
        lower_is_better: true,
        note,
    }
}

const fn higher(name: &'static str, unit: &'static str, note: &'static str) -> Def {
    Def {
        name,
        unit,
        lower_is_better: false,
        note,
    }
}

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[Def] = &[
    lower(
        "setup_s",
        "s",
        "median of the set-up repetitions: a warm-up report (repro) or a complete journal (the others)",
    ),
    lower(
        "op_p50_ms",
        "ms",
        "median of the user operation: report from seed (repro), report after restart (resume), query reply from its scheduled send (serve-*)",
    ),
    lower(
        "ready_ms",
        "ms",
        "median time until the data is queryable: world built (repro), world resumed (resume), server caught up (serve-read), frame written to queryable (serve-live)",
    ),
    lower(
        "peak_rss_mb",
        "MB",
        "peak resident set after set-up (VmHWM reset at its end), read when the phase ends or, on serve-*, before the first server stops",
    ),
];

const COMPONENTS: &str = "repro op_p50_ms and ready_ms; nothing elsewhere";
const CAMPAIGN: &str = "repro op_p50_ms and ready_ms";
const COUNT: &str = "must never move in a performance change";
const RESUME: &str = "resume ready_ms and op_p50_ms";
const CATCHUP: &str = "serve-read ready_ms; serve-live ready_ms";
const EXPERIMENT: &str = "repro and resume op_p50_ms";
const QUERY: &str = "serve-read op_p50_ms";

/// Ids of the 28 registered experiments, in registry order.
pub const EXPERIMENTS: [&str; 28] = [
    "table1",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "table2",
    "table3",
    "fig11",
    "fig12",
    "table4",
    "table5",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig18",
    "fig21",
    "fig22",
    "findings",
    "ext-multipath",
    "ext-multivariate",
    "quality",
];

/// Per-layer metrics other than the per-experiment times, printed by
/// every traced run.
pub const PER_LAYER: &[Def] = &[
    lower("sim_core.cdf_10k_us", "us", COMPONENTS),
    lower("geo.zone_at_ns", "ns", COMPONENTS),
    lower("radio.channel_sample_ns", "ns", COMPONENTS),
    lower("radio.ca_aggregate_ns", "ns", COMPONENTS),
    lower("ran.session_poll_ns", "ns", COMPONENTS),
    lower("transport.cubic_advance_ns", "ns", COMPONENTS),
    lower("campaign.setup_ms", "ms", "repro op_p50_ms and ready_ms; serve-read ready_ms (the server builds one too)"),
    lower("campaign.run_ms", "ms", CAMPAIGN),
    lower("campaign.verizon_ms", "ms", CAMPAIGN),
    lower("campaign.tmobile_ms", "ms", CAMPAIGN),
    lower("campaign.att_ms", "ms", CAMPAIGN),
    higher("campaign.parallel_eff", "ratio", CAMPAIGN),
    higher("campaign.shards", "count", COUNT),
    higher("campaign.test_runs", "count", COUNT),
    higher("campaign.tput_samples", "count", COUNT),
    higher("campaign.rtt_samples", "count", COUNT),
    higher("campaign.handovers", "count", COUNT),
    higher("campaign.app_runs", "count", COUNT),
    lower("checkpoint.append_frame_p50_ms", "ms", "setup_s of resume and serve-*"),
    lower("checkpoint.append_sum_ms", "ms", "setup_s of resume and serve-*"),
    lower("checkpoint.index_ms", "ms", RESUME),
    lower("checkpoint.decode_frame_p50_ms", "ms", "resume ready_ms; serve-live ready_ms"),
    lower("checkpoint.decode_sum_ms", "ms", RESUME),
    lower("records.merge_ms", "ms", RESUME),
    lower("checkpoint.tail_sum_ms", "ms", CATCHUP),
    lower("checkpoint.journal_mb", "MB", "resume peak_rss_mb"),
    higher("checkpoint.frames", "count", COUNT),
    lower("view.build_ms", "ms", "repro and resume ready_ms"),
    lower("view.ingest_sum_ms", "ms", "serve-read ready_ms"),
    lower("view.splice_p50_ms", "ms", "serve-live ready_ms and op_p50_ms"),
    lower("view.splice_max_ms", "ms", "serve-live op_p50_ms"),
    lower("experiments.run_ms", "ms", EXPERIMENT),
    lower("experiments.sum_ms", "ms", EXPERIMENT),
    lower("serve.parse_us", "us", QUERY),
    lower("serve.respond_quantile_us", "us", QUERY),
    lower("serve.respond_cdf_us", "us", QUERY),
    lower("serve.respond_table1_us", "us", QUERY),
    lower("serve.respond_cold_max_us", "us", "serve-live op_p50_ms"),
    lower("serve.net_p50_us", "us", QUERY),
    lower("serve.server_query_p50_us", "us", QUERY),
    lower("serve.server_query_p99_us", "us", QUERY),
    lower("serve.server_ingest_p50_us", "us", "serve-live ready_ms"),
    lower("serve.server_lag_p50_us", "us", "serve-live ready_ms"),
    lower(
        "trace.unexplained_share",
        "ratio",
        "share of the workload's attributed time (repro and resume: op; serve-read: catch-up; serve-live: ingest lag) that no blocking step's self time covers",
    ),
    lower("trace.overhead_share", "ratio", "traced against untraced op_p50_ms of the same run"),
    lower("loadgen.late_p99_us", "us", "must stay under 1000, or serve numbers measure the generator"),
    lower("loadgen.late_max_us", "us", "sender stalls; charged to the requests behind them"),
];

/// Name of the per-experiment time metric.
pub fn experiment_metric(id: &str) -> String {
    format!("experiments.{id}_ms")
}

/// Every per-layer (name, unit) in emission order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    PER_LAYER
        .iter()
        .map(|d| (d.name.to_string(), d.unit))
        .chain(EXPERIMENTS.iter().map(|id| (experiment_metric(id), "ms")))
        .collect()
}

/// Every end-to-end (name, unit) in emission order.
pub fn end_to_end_names() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|d| (d.name.to_string(), d.unit))
        .collect()
}
