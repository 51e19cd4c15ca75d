//! The per-layer sweep of a traced run: every layer of the catalogue,
//! measured through its public API with a span around each call.
//!
//! The sweep is the same on every workload, so every traced run reports
//! the whole catalogue; the attribution metrics then relate it to the
//! workload's own untraced timings.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use serde::Value;
use wheels_core::analysis::view::DatasetView;
use wheels_core::campaign::Campaign;
use wheels_core::checkpoint::{self, Journal};
use wheels_core::disrupt::FaultConfig;
use wheels_core::records::Dataset;
use wheels_experiments::world::{Tuning, World};
use wheels_experiments::{registry, render_report};
use wheels_geo::route::Route;
use wheels_radio::ca::{aggregate, CarrierAllocation};
use wheels_radio::channel::LinkChannel;
use wheels_radio::linkbudget::BeamProfile;
use wheels_radio::tech::{Direction, Technology};
use wheels_ran::cells::Deployment;
use wheels_ran::operator::Operator;
use wheels_ran::policy::TrafficDemand;
use wheels_ran::session::{PollCtx, RanSession};
use wheels_serve::protocol::parse_request;
use wheels_serve::query::respond;
use wheels_sim_core::rng::SimRng;
use wheels_sim_core::stats::Cdf;
use wheels_sim_core::time::{SimDuration, SimTime};
use wheels_sim_core::units::{DataRate, Db, Distance, Speed};
use wheels_transport::tcp::CubicFlow;

use crate::catalog;
use crate::report::Metric;
use crate::stats;
use crate::trace::{self, Span, Tracer};
use crate::workload::{self, Ctx, Measured, Prepared, Workload, MIX, SCALE};

/// Batches per micro-benchmark; the reported value is their median.
const BATCHES: usize = 15;

/// Smallest batch duration, so timer resolution stays negligible.
const MIN_BATCH: Duration = Duration::from_millis(2);

/// ns per call of `f`: grow the batch until it takes [`MIN_BATCH`], then
/// take the median of [`BATCHES`] batches.
fn ns_per_op(mut f: impl FnMut()) -> f64 {
    let mut ops = 1usize;
    loop {
        let t = Instant::now();
        for _ in 0..ops {
            f();
        }
        if t.elapsed() >= MIN_BATCH || ops >= 1 << 24 {
            break;
        }
        ops *= 2;
    }
    let per_op: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..ops {
                f();
            }
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    stats::median(&per_op).expect("BATCHES > 0")
}

fn op_key(op: Operator) -> &'static str {
    match op {
        Operator::Verizon => "verizon",
        Operator::TMobile => "tmobile",
        Operator::Att => "att",
    }
}

/// Per-layer micro-benchmarks on the inputs `benches/components.rs` of
/// the workspace uses.
fn components(tracer: &Tracer, root: Option<u64>, out: &mut BTreeMap<String, f64>) {
    let mut timed = |name: &str, metric: &str, scale: f64, f: &mut dyn FnMut()| {
        let v = tracer.span(name, root, |_| ns_per_op(f));
        out.insert(metric.into(), v / scale);
    };
    let mut rng = SimRng::seed(1);
    let mut ch = LinkChannel::new(Technology::Nr5gMid, BeamProfile::neutral(), &mut rng);
    timed(
        "radio.channel_sample",
        "radio.channel_sample_ns",
        1.0,
        &mut || {
            std::hint::black_box(ch.sample(
                &mut rng,
                std::hint::black_box(Distance::from_km(1.2)),
                Distance::from_m(15.0),
                500,
                Speed::from_mph(65.0),
            ));
        },
    );
    let alloc = CarrierAllocation::single(Technology::Nr5gMid);
    timed(
        "radio.ca_aggregate",
        "radio.ca_aggregate_ns",
        1.0,
        &mut || {
            std::hint::black_box(aggregate(
                &alloc,
                Direction::Downlink,
                std::hint::black_box(Db(14.0)),
                0.5,
            ));
        },
    );
    let mut flow = CubicFlow::new();
    let link = DataRate::from_mbps(80.0);
    timed(
        "transport.cubic_advance",
        "transport.cubic_advance_ns",
        1.0,
        &mut || {
            std::hint::black_box(flow.advance(10.0, std::hint::black_box(link), 60.0));
        },
    );
    let route = Route::standard();
    let mut km = 0.0f64;
    timed("geo.zone_at", "geo.zone_at_ns", 1.0, &mut || {
        km = (km + 37.7) % 5700.0;
        std::hint::black_box(route.zone_at(std::hint::black_box(Distance::from_km(km))));
    });
    let dep = Deployment::generate(&route, Operator::TMobile, &mut SimRng::seed(2));
    let mut session = RanSession::new(&dep, TrafficDemand::BackloggedDownlink, SimRng::seed(3));
    let mut t = SimTime::from_hours(30);
    let mut odo = Distance::from_km(500.0);
    timed("ran.session_poll", "ran.session_poll_ns", 1.0, &mut || {
        t += SimDuration::from_millis(100);
        odo += Distance::from_m(3.0);
        if odo.as_km() > 5600.0 {
            odo = Distance::from_km(500.0);
        }
        std::hint::black_box(session.poll(
            t,
            PollCtx {
                odo,
                speed: Speed::from_mph(65.0),
                zone: route.zone_at(odo),
                tz: route.timezone_at(odo),
            },
        ));
    });
    let mut rng = SimRng::seed(4);
    let data: Vec<f64> = (0..10_000).map(|_| rng.uniform(0.0, 500.0)).collect();
    timed("sim_core.cdf_10k", "sim_core.cdf_10k_us", 1e3, &mut || {
        let c = Cdf::from_samples(std::hint::black_box(&data).iter().copied());
        std::hint::black_box((c.median(), c.quantile(0.9)));
    });
}

/// A number from a `status` reply: `metrics.<hist>.<key>`.
fn status_field(status: &str, hist: &str, key: &str) -> Option<f64> {
    let v: Value = serde_json::from_str(status).ok()?;
    let Value::Object(top) = &v else { return None };
    let Value::Object(metrics) = serde::get_field(top, "metrics") else {
        return None;
    };
    let Value::Object(h) = serde::get_field(metrics, hist) else {
        return None;
    };
    match serde::get_field(h, key) {
        Value::U64(n) => Some(*n as f64),
        Value::F64(x) => Some(*x),
        _ => None,
    }
}

/// Everything the sweep measured.
pub struct Sweep {
    /// Per-layer values by catalogue name (plus a few attribution-only
    /// sums such as `serve.base_world_ms`).
    pub values: BTreeMap<String, f64>,
    /// Sender lateness of the sweep's own open-loop passes, µs.
    pub late_us: Vec<f64>,
    /// Operations the sweep attempted (report checks, serve passes).
    pub attempted: usize,
    /// Operations of the sweep that failed.
    pub failed: usize,
    /// Correctness failures found by the sweep.
    pub problems: Vec<String>,
}

impl Sweep {
    /// Sum of the named values (ms), for attribution.
    fn total(&self, names: &[&str]) -> f64 {
        names
            .iter()
            .map(|n| self.values.get(*n).copied().unwrap_or(0.0))
            .sum()
    }

    /// The catalogue's per-layer metrics in emission order; a name the
    /// sweep did not measure is reported in `missing`.
    pub fn metrics(&self, missing: &mut Vec<String>) -> Vec<Metric> {
        catalog::per_layer_names()
            .into_iter()
            .map(|(name, unit)| {
                let value = self.values.get(&name).copied().unwrap_or_else(|| {
                    missing.push(name.clone());
                    0.0
                });
                Metric::new(name, unit, value, 1)
            })
            .collect()
    }

    /// The share of the workload's attributed untraced time that the
    /// sweep's blocking steps do not cover.
    pub fn unexplained_share(&self, w: Workload, untraced: &Measured) -> f64 {
        let (steps, whole) = match w {
            Workload::Repro => (
                self.total(&[
                    "campaign.setup_ms",
                    "campaign.run_ms",
                    "view.build_ms",
                    "experiments.run_ms",
                ]),
                stats::median(&untraced.op_ms),
            ),
            Workload::Resume => (
                self.total(&[
                    "checkpoint.index_ms",
                    "checkpoint.decode_sum_ms",
                    "records.merge_ms",
                    "view.build_ms",
                    "experiments.run_ms",
                ]),
                stats::median(&untraced.op_ms),
            ),
            Workload::ServeRead => (
                self.total(&[
                    "serve.fingerprint_ms",
                    "serve.base_world_ms",
                    "checkpoint.tail_sum_ms",
                    "view.ingest_sum_ms",
                ]),
                stats::median(&untraced.ready_ms),
            ),
            Workload::ServeLive => (
                self.total(&["checkpoint.decode_frame_p50_ms", "view.splice_p50_ms"]),
                stats::median(&untraced.ready_ms),
            ),
        };
        whole.map_or(1.0, |whole| 1.0 - steps / whole)
    }
}

/// Run the sweep. `prep` supplies the workload's journal when it has
/// one; otherwise the sweep writes its own.
pub fn run(ctx: &Ctx<'_>, prep: &Prepared, tracer: &Tracer) -> Sweep {
    let mut out = BTreeMap::new();
    let mut problems = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let mut late_us = Vec::new();
    let cores = crate::host::cores();
    let fp = ctx.fingerprint();
    let mut cfg = SCALE.config();
    cfg.seed = ctx.seed;

    tracer.span("sweep", None, |root| {
        components(tracer, root, &mut out);

        // Campaign: pooled run, then each operator alone.
        let campaign = tracer.span("campaign.setup", root, |_| Campaign::standard(ctx.seed));
        let ds = tracer.span("campaign.run", root, |_| campaign.run(&cfg));
        out.insert("campaign.shards".into(), fp.jobs as f64);
        out.insert("campaign.test_runs".into(), ds.runs.len() as f64);
        out.insert("campaign.tput_samples".into(), ds.tput.len() as f64);
        out.insert("campaign.rtt_samples".into(), ds.rtt.len() as f64);
        out.insert("campaign.handovers".into(), ds.handovers.len() as f64);
        out.insert("campaign.app_runs".into(), ds.apps.len() as f64);
        for op in Operator::ALL {
            let name = format!("campaign.{}", op_key(op));
            std::hint::black_box(tracer.span(&name, root, |_| campaign.run_operator(op, &cfg)));
        }

        // View and experiments over the simulated dataset.
        let view = tracer.span("view.build", root, |_| DatasetView::new(ds));
        let world = World::from_view(SCALE, ctx.seed, view);
        let reg = registry();
        let report = tracer.span("experiments.run", root, |_| {
            render_report(&world, &reg, None)
        });
        let mut hash = None;
        if !workload::check_report(&mut hash, &report, ctx.seed, &mut problems) {
            failed += 1;
        }
        attempted += 1;
        for (id, _, f) in &reg {
            std::hint::black_box(tracer.span(&format!("experiments.{id}"), root, |_| f(&world)));
        }
        drop(world);

        // Journal: index, decode, merge and append, frame by frame.
        let journal: PathBuf = match &prep.journal {
            Some(dir) => dir.clone(),
            None => {
                let dir = ctx.scratch.join("sweep-journal");
                let built = tracer.span("checkpoint.write", root, |_| {
                    World::build_checkpointed(
                        SCALE,
                        ctx.seed,
                        Tuning::default(),
                        FaultConfig::default(),
                        &dir,
                        false,
                    )
                });
                if let Err(e) = built {
                    problems.push(format!("sweep journal: {e}"));
                    return;
                }
                dir
            }
        };
        let size = std::fs::metadata(Journal::file_path(&journal)).map_or(0, |m| m.len());
        out.insert(
            "checkpoint.journal_mb".into(),
            size as f64 / (1024.0 * 1024.0),
        );
        let indexed = tracer.span("checkpoint.index", root, |_| {
            Journal::resume_indexed(&journal, &fp)
        });
        let (reader, spans) = match indexed {
            Ok((j, spans)) => (j.reader(), spans),
            Err(e) => {
                problems.push(format!("sweep index: {e}"));
                return;
            }
        };
        out.insert("checkpoint.frames".into(), spans.len() as f64);
        let mut records = Vec::with_capacity(spans.len());
        for (job, span) in &spans {
            match tracer.span("checkpoint.decode_frame", root, |_| {
                reader.read_frame(*span)
            }) {
                Ok(r) => records.push((*job, r)),
                Err(e) => {
                    problems.push(format!("sweep decode: {e}"));
                    return;
                }
            }
        }
        let copy = ctx.scratch.join("sweep-append");
        match Journal::create(&copy, &fp) {
            Ok(mut j) => {
                for (job, r) in &records {
                    if let Err(e) = tracer.span("checkpoint.append", root, |_| j.append(*job, r)) {
                        problems.push(format!("sweep append: {e}"));
                        break;
                    }
                }
            }
            Err(e) => problems.push(format!("sweep append journal: {e}")),
        }
        let _ = std::fs::remove_dir_all(&copy);
        let merged = tracer.span("records.merge", root, |_| {
            let mut out = Dataset::default();
            for (_, r) in records {
                out.merge_normalized(r.dataset);
            }
            out
        });
        drop(merged);

        // Catch-up offline, step by step as the server starts: identity,
        // empty base world, then a tail of the journal with one splice
        // per frame, each followed by the first (cold) query after it.
        let cold_req = parse_request(MIX[1]).expect("mix lines parse");
        std::hint::black_box(tracer.span("serve.fingerprint", root, |_| ctx.fingerprint()));
        let mut world = tracer.span("serve.base_world", root, |_| {
            World::from_view(SCALE, ctx.seed, DatasetView::new(Dataset::default()))
        });
        // On a fresh thread, as the server's ingest thread replays.
        let tailed = std::thread::scope(|s| {
            s.spawn(|| {
                tracer.span("checkpoint.tail", root, |tail| {
                    checkpoint::tail(&journal, &fp, |_, rec| {
                        tracer.span("view.splice", tail, |_| world.ingest_shard(rec));
                        std::hint::black_box(
                            tracer.span("serve.respond_cold", tail, |_| respond(&world, &cold_req)),
                        );
                        Ok(())
                    })
                })
            })
            .join()
            .expect("tail thread panicked")
        });
        if let Err(e) = tailed {
            problems.push(format!("sweep tail: {e}"));
            return;
        }

        // Warm query kernels on the caught-up world.
        let lines: Vec<String> = MIX.iter().map(|s| s.to_string()).collect();
        let answers: Vec<String> = lines
            .iter()
            .map(|l| respond(&world, &parse_request(l).expect("mix lines parse")))
            .collect();
        if !prep.answers.is_empty() && prep.answers != answers {
            problems.push("offline tail answers differ from the set-up oracle".to_string());
            failed += 1;
        }
        attempted += 1;
        tracer.span("serve.parse", root, |_| {
            let v = ns_per_op(|| {
                for l in &lines {
                    std::hint::black_box(parse_request(std::hint::black_box(l)).ok());
                }
            });
            out.insert("serve.parse_us".into(), v / lines.len() as f64 / 1e3);
        });
        for (metric, line) in [
            ("serve.respond_quantile_us", MIX[1]),
            ("serve.respond_cdf_us", MIX[4]),
            ("serve.respond_table1_us", MIX[7]),
        ] {
            let req = parse_request(line).expect("mix lines parse");
            let v = tracer.span("serve.respond_warm", root, |_| {
                ns_per_op(|| {
                    std::hint::black_box(respond(&world, &req));
                })
            });
            out.insert(metric.into(), v / 1e3);
        }
        drop(world);

        // Live servers: a short read pass and a live-ingest pass.
        let serve_prep = Prepared {
            journal: Some(journal.clone()),
            answers,
            ..Prepared::default()
        };
        let short = Ctx {
            seconds: 4.0,
            ..*ctx
        };
        let read = tracer.span("serve.read_server", root, |_| {
            workload::measure(Workload::ServeRead, &short, &serve_prep, &Tracer::off())
        });
        let live = tracer.span("serve.live_server", root, |_| {
            workload::measure(Workload::ServeLive, &short, &serve_prep, &Tracer::off())
        });
        for m in [&read, &live] {
            attempted += m.attempted;
            failed += m.failed;
            problems.extend(m.problems.iter().cloned());
            late_us.extend_from_slice(&m.late_us);
        }
        let status = |m: &Measured, hist: &str, key: &str| {
            m.status
                .as_deref()
                .and_then(|s| status_field(s, hist, key))
                .unwrap_or(0.0)
        };
        let client_p50_us = stats::median(&read.op_ms).unwrap_or(0.0) * 1e3;
        let server_p50 = status(&read, "query", "p50_us");
        out.insert("serve.server_query_p50_us".into(), server_p50);
        out.insert(
            "serve.server_query_p99_us".into(),
            status(&read, "query", "p99_us"),
        );
        out.insert("serve.net_p50_us".into(), client_p50_us - server_p50);
        out.insert(
            "serve.server_ingest_p50_us".into(),
            status(&live, "ingest", "p50_us"),
        );
        out.insert(
            "serve.server_lag_p50_us".into(),
            status(&live, "ingest_lag", "p50_us"),
        );
    });

    Sweep {
        values: from_spans(&tracer.spans(), out, cores),
        late_us,
        attempted,
        failed,
        problems,
    }
}

/// Add the per-layer values that come from span durations to `out`.
fn from_spans(
    spans: &[Span],
    mut out: BTreeMap<String, f64>,
    cores: usize,
) -> BTreeMap<String, f64> {
    let ms = |name: &str| trace::durations_ms(spans, name);
    let sum = |name: &str| ms(name).iter().sum::<f64>();
    let p50 = |name: &str| stats::median(&ms(name)).unwrap_or(0.0);
    let max = |name: &str| ms(name).iter().copied().fold(0.0, f64::max);
    let own = trace::self_ns(spans);
    let self_ms = |name: &str| {
        spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, n)| *n as f64 / 1e6)
            .sum::<f64>()
    };

    for name in [
        "campaign.setup",
        "campaign.run",
        "view.build",
        "experiments.run",
        "checkpoint.index",
        "records.merge",
        "serve.fingerprint",
        "serve.base_world",
    ] {
        out.insert(format!("{name}_ms"), sum(name));
    }
    let op_sum: f64 = Operator::ALL
        .iter()
        .map(|op| sum(&format!("campaign.{}", op_key(*op))))
        .sum();
    for op in Operator::ALL {
        let k = op_key(op);
        out.insert(format!("campaign.{k}_ms"), sum(&format!("campaign.{k}")));
    }
    let run_ms = sum("campaign.run");
    out.insert(
        "campaign.parallel_eff".into(),
        if run_ms > 0.0 {
            op_sum / (cores as f64 * run_ms)
        } else {
            0.0
        },
    );
    out.insert(
        "checkpoint.append_frame_p50_ms".into(),
        p50("checkpoint.append"),
    );
    out.insert("checkpoint.append_sum_ms".into(), sum("checkpoint.append"));
    out.insert(
        "checkpoint.decode_frame_p50_ms".into(),
        p50("checkpoint.decode_frame"),
    );
    out.insert(
        "checkpoint.decode_sum_ms".into(),
        sum("checkpoint.decode_frame"),
    );
    out.insert("checkpoint.tail_sum_ms".into(), self_ms("checkpoint.tail"));
    out.insert("view.ingest_sum_ms".into(), sum("view.splice"));
    out.insert("view.splice_p50_ms".into(), p50("view.splice"));
    out.insert("view.splice_max_ms".into(), max("view.splice"));
    out.insert(
        "serve.respond_cold_max_us".into(),
        max("serve.respond_cold") * 1e3,
    );
    let mut exp_sum = 0.0;
    for id in catalog::EXPERIMENTS {
        let v = sum(&format!("experiments.{id}"));
        exp_sum += v;
        out.insert(catalog::experiment_metric(id), v);
    }
    out.insert("experiments.sum_ms".into(), exp_sum);
    out
}
