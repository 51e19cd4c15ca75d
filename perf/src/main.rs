//! `wheels-perf`: run one workload of the performance ledger, or compare
//! two sets of runs. See `README.md` beside this crate.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use wheels_perf::catalog;
use wheels_perf::compare;
use wheels_perf::host::{self, Scratch};
use wheels_perf::report::{self, Metric, Report};
use wheels_perf::stats;
use wheels_perf::sweep;
use wheels_perf::trace::{self, Tracer};
use wheels_perf::workload::{self, Ctx, Measured, Prepared, Workload};

const USAGE: &str = "usage:
  wheels-perf --workload <repro|resume|serve-read|serve-live> [--seed N] [--seconds S] [--trace 0|1]
  wheels-perf --compare BASE.jsonl NEW.jsonl";

/// Where scratch journals and trace files go, relative to the working
/// directory.
const OUT_DIR: &str = ".perf";

struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Command {
    Run(RunArgs),
    Compare(PathBuf, PathBuf),
}

fn parse(argv: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = 2022u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                let v = value()?;
                seed = v
                    .parse()
                    .map_err(|_| format!("--seed needs an integer, got {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("--seconds needs a positive number, got {v:?}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace needs 0 or 1, got {other:?}")),
                };
            }
            "--compare" => {
                let base = value()?;
                let new = value()?;
                return Ok(Command::Compare(base.into(), new.into()));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Command::Run(RunArgs {
        workload,
        seed,
        seconds,
        trace,
    }))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match parse(&argv) {
        Ok(Command::Run(args)) => run(&args),
        Ok(Command::Compare(base, new)) => run_compare(&base, &new),
        Err(e) => {
            eprintln!("wheels-perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("wheels-perf: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &RunArgs) -> Result<ExitCode, String> {
    let w = args.workload;
    let out = Path::new(OUT_DIR);
    std::fs::create_dir_all(out).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let scratch = Scratch::create(out).map_err(|e| format!("cannot create scratch: {e}"))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        scratch: &scratch,
    };
    eprintln!(
        "wheels-perf: {} seed {} on {} cores: set-up x{}",
        w.name(),
        args.seed,
        host::cores(),
        workload::SETUP_REPS
    );
    let prep = workload::setup(w, &ctx)?;
    if !host::reset_peak_rss() {
        eprintln!("wheels-perf: cannot reset the peak RSS; peak_rss_mb includes set-up");
    }
    eprintln!("wheels-perf: timed phase, {} s", args.seconds);
    let untraced = workload::measure(w, &ctx, &prep, &Tracer::off());

    let mut problems = untraced.problems.clone();
    let mut attempted = untraced.attempted;
    let mut failed = untraced.failed;
    let metrics = if args.trace {
        let tracer = Tracer::on();
        eprintln!("wheels-perf: traced phase, {} s", args.seconds);
        let traced = workload::measure(w, &ctx, &prep, &tracer);
        eprintln!("wheels-perf: per-layer sweep");
        let mut sweep = sweep::run(&ctx, &prep, &tracer);
        attempted += traced.attempted + sweep.attempted;
        failed += traced.failed + sweep.failed;
        problems.extend(traced.problems.iter().cloned());
        problems.append(&mut sweep.problems);
        let overhead = match (stats::median(&traced.op_ms), stats::median(&untraced.op_ms)) {
            (Some(t), Some(u)) if u > 0.0 => t / u - 1.0,
            _ => 0.0,
        };
        let mut late = untraced.late_us.clone();
        late.extend_from_slice(&traced.late_us);
        late.extend_from_slice(&sweep.late_us);
        let late = stats::sorted(&late);
        let unexplained = sweep.unexplained_share(w, &untraced);
        sweep
            .values
            .insert("trace.unexplained_share".into(), unexplained);
        sweep.values.insert("trace.overhead_share".into(), overhead);
        sweep.values.insert(
            "loadgen.late_p99_us".into(),
            stats::nearest_rank(&late, 99.0).unwrap_or(0.0),
        );
        sweep.values.insert(
            "loadgen.late_max_us".into(),
            late.last().copied().unwrap_or(0.0),
        );
        let mut missing = Vec::new();
        let metrics = sweep.metrics(&mut missing);
        if !missing.is_empty() {
            problems.push(format!(
                "per-layer metrics not measured: {}",
                missing.join(", ")
            ));
        }
        write_trace(&tracer, w, args.seed);
        metrics
    } else {
        end_to_end(&prep, &untraced, &mut problems)
    };

    for m in &metrics {
        if !m.value.is_finite() {
            problems.push(format!("{} is not a finite number", m.name));
        }
    }
    let metrics = metrics
        .into_iter()
        .map(|m| Metric {
            value: if m.value.is_finite() { m.value } else { 0.0 },
            ..m
        })
        .collect();
    let report = Report {
        workload: w.name().to_string(),
        seed: args.seed,
        trace: args.trace,
        cores: host::cores(),
        profile: host::profile(),
        seconds: args.seconds,
        attempted,
        failed,
        problems,
        metrics,
        info: if args.trace {
            Vec::new()
        } else {
            op_tail(&untraced)
        },
    };
    for p in &report.problems {
        eprintln!("wheels-perf: FAILED CHECK: {p}");
    }
    println!("{}", report.ledger_line());
    println!("{}", report.result_line());
    Ok(ExitCode::SUCCESS)
}

/// The tail of the user operation: the highest ladder percentile with
/// at least ten samples beyond it, or the slowest operation when there
/// are too few samples for any.
fn op_tail(m: &Measured) -> Vec<Metric> {
    let op = stats::sorted(&m.op_ms);
    let (name, value) = match stats::tail_percentile(op.len()) {
        Some(p) => (format!("op_p{p}_ms"), stats::nearest_rank(&op, p)),
        None => ("op_max_ms".to_string(), op.last().copied()),
    };
    value
        .map(|v| Metric::new(name, "ms", v, op.len()))
        .into_iter()
        .collect()
}

/// The end-to-end metrics of an untraced run, in catalogue order.
fn end_to_end(prep: &Prepared, m: &Measured, problems: &mut Vec<String>) -> Vec<Metric> {
    let mut med = |name: &str, v: &[f64]| {
        stats::median(v).unwrap_or_else(|| {
            problems.push(format!("{name}: no samples"));
            0.0
        })
    };
    let values = [
        (med("setup_s", &prep.setup_s), prep.setup_s.len()),
        (med("op_p50_ms", &m.op_ms), m.op_ms.len()),
        (med("ready_ms", &m.ready_ms), m.ready_ms.len()),
        (m.peak_rss_mb.unwrap_or(0.0), 1),
    ];
    if m.peak_rss_mb.is_none() {
        problems.push("peak_rss_mb: the platform reports no VmHWM".to_string());
    }
    catalog::end_to_end_names()
        .into_iter()
        .zip(values)
        .map(|((name, unit), (value, n))| Metric::new(name, unit, value, n))
        .collect()
}

/// Write the spans as JSON lines and print self time per layer.
fn write_trace(tracer: &Tracer, w: Workload, seed: u64) {
    let spans = tracer.spans();
    let path = Path::new(OUT_DIR).join(format!("trace-{}-{seed}.jsonl", w.name()));
    let run = format!("{}-{seed}-{}", w.name(), std::process::id());
    match trace::write_jsonl(&path, &run, &spans) {
        Ok(()) => eprintln!(
            "wheels-perf: {} spans written to {}",
            spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("wheels-perf: cannot write {}: {e}", path.display()),
    }
    let by_layer = trace::self_ns_by_layer(&spans);
    let total: u64 = by_layer.values().sum();
    eprintln!("wheels-perf: self time per layer");
    let mut rows: Vec<_> = by_layer.into_iter().collect();
    rows.sort_by_key(|(_, ns)| std::cmp::Reverse(*ns));
    for (layer, ns) in rows {
        eprintln!(
            "  {layer:<14} {:>10.1} ms {:>6.1} %",
            ns as f64 / 1e6,
            100.0 * ns as f64 / total.max(1) as f64
        );
    }
}

fn run_compare(base: &Path, new: &Path) -> Result<ExitCode, String> {
    let read = |p: &Path| {
        std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    let bounds = compare::bounds(&read(Path::new("BENCHMARK.json"))?)?;
    let rows = |text: String| -> Vec<report::LedgerRow> {
        text.lines().filter_map(report::parse_ledger_line).collect()
    };
    let (b, n) = (rows(read(base)?), rows(read(new)?));
    let table = compare::compare(&bounds, &b, &n);
    println!(
        "{:<12} {:<14} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "base", "new", "change", "bound"
    );
    for r in &table {
        println!(
            "{:<12} {:<14} {:>12.4} {:>12.4} {:>+7.1}% {:>5.0}%  {}",
            r.workload,
            r.metric,
            r.base,
            r.new,
            100.0 * r.change,
            100.0 * r.bound,
            r.verdict.label()
        );
    }
    let worse = table
        .iter()
        .filter(|r| r.verdict == compare::Verdict::Worse)
        .count();
    if table.is_empty() {
        return Err("no workload has untraced runs on both sides".to_string());
    }
    Ok(if worse > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
