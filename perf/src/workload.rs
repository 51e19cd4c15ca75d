//! The four workloads: set-up, the timed phase, and the correctness
//! checks each one applies to its own outputs.
//!
//! Every workload runs at Standard scale, the `repro` default. The seed
//! is the campaign seed and also orders the query mix.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use wheels_core::analysis::view::DatasetView;
use wheels_core::checkpoint::{self, Fingerprint, Journal};
use wheels_core::disrupt::FaultConfig;
use wheels_core::records::Dataset;
use wheels_experiments::world::{Scale, Tuning, World};
use wheels_experiments::{registry, render_report};
use wheels_serve::protocol::parse_request;
use wheels_serve::query::respond;
use wheels_serve::server::{self, JournalSpec, ServeOptions, ServerHandle};

use crate::host::{self, Scratch};
use crate::loadgen::{self, Pass, PassOutcome};
use crate::trace::Tracer;
use crate::{fnv1a64, mix_order};

/// Scale of every workload.
pub const SCALE: Scale = Scale::Standard;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Open-loop request rate: one request due every 200 µs, against about
/// 16 µs of server time and a 90 µs round trip on a 2-vCPU host, so the
/// backlog cannot grow.
const RATE_HZ: f64 = 5000.0;

/// Live-journal frame pace: about the rate a 2-core host appends frames
/// while simulating a Standard campaign (27 frames in ~5 s).
const FRAME_INTERVAL: Duration = Duration::from_millis(200);

/// The live-journal copier writes each frame in slices of this size, one
/// slice per send slot, so a 5 MB frame never stalls the sender.
const COPY_SLICE: usize = 256 * 1024;

/// How long outstanding replies are awaited after the last send.
const DRAIN: Duration = Duration::from_secs(10);

/// (seed, FNV-1a 64) of the seed-2022 Standard report: byte for byte
/// what `repro --standard` prints, whose sha256 is
/// `0bea3bb998f2442260e2421e139e5e87aa5b3d233b4ccd56e851ce4c9564c3ec`.
const PINNED_REPORT: (u64, u64) = (2022, 0x9784_708e_7441_92e8);

/// The query mix: quantile, cdf and table1 over both tables with
/// operator, direction and driving filters.
pub const MIX: [&str; 8] = [
    r#"{"cmd":"quantile","table":"tput","q":0.5}"#,
    r#"{"cmd":"quantile","table":"tput","op":"verizon","dir":"dl","driving":true,"q":0.9}"#,
    r#"{"cmd":"quantile","table":"rtt","op":"att","driving":true,"q":0.5}"#,
    r#"{"cmd":"quantile","table":"rtt","driving":false,"q":0.99}"#,
    r#"{"cmd":"cdf","table":"tput","op":"tmobile","dir":"ul","points":11}"#,
    r#"{"cmd":"cdf","table":"rtt","op":"verizon","points":21}"#,
    r#"{"cmd":"cdf","table":"tput","dir":"dl","driving":false,"points":5}"#,
    r#"{"cmd":"table1"}"#,
];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Simulate the campaign and print all 28 experiments.
    Repro,
    /// Restart from a complete journal and print the report.
    Resume,
    /// Catch a server up on a complete journal, then query it.
    ServeRead,
    /// Query a server while a journal is appended under it.
    ServeLive,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Repro,
        Workload::Resume,
        Workload::ServeRead,
        Workload::ServeLive,
    ];

    /// Name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Repro => "repro",
            Workload::Resume => "resume",
            Workload::ServeRead => "serve-read",
            Workload::ServeLive => "serve-live",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Run parameters shared by every phase.
pub struct Ctx<'a> {
    /// Campaign seed; also orders the query mix.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Where journals go; removed at exit.
    pub scratch: &'a Scratch,
}

impl Ctx<'_> {
    /// The identity every journal of this run carries.
    pub fn fingerprint(&self) -> Fingerprint {
        World::fingerprint_for(SCALE, self.seed, FaultConfig::default())
    }
}

/// What set-up leaves for the timed phase.
#[derive(Default)]
pub struct Prepared {
    /// Wall time of each set-up repetition, s.
    pub setup_s: Vec<f64>,
    /// A complete journal of this run's campaign.
    pub journal: Option<PathBuf>,
    /// The dataset set-up simulated (resume compares against it).
    pub reference: Option<Dataset>,
    /// The offline answer to each [`MIX`] line on the complete journal.
    pub answers: Vec<String>,
}

/// What one timed phase observed.
#[derive(Debug, Default)]
pub struct Measured {
    /// The workload's user operation, ms per sample.
    pub op_ms: Vec<f64>,
    /// Time until the workload's data was queryable, ms per sample.
    pub ready_ms: Vec<f64>,
    /// Operations attempted.
    pub attempted: usize,
    /// Operations that failed or returned wrong output.
    pub failed: usize,
    /// Correctness failures, for the log.
    pub problems: Vec<String>,
    /// Sender lateness of every open-loop request, µs.
    pub late_us: Vec<f64>,
    /// The last server's `status` reply before it stopped.
    pub status: Option<String>,
    /// Peak resident set since set-up ended, MB: read at the end of the
    /// phase, or before the first server stops on the serve workloads.
    pub peak_rss_mb: Option<f64>,
}

impl Measured {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.problems.push(why);
    }

    fn absorb_pass(&mut self, out: &PassOutcome, tracer: &Tracer, parent: Option<u64>) {
        self.attempted += out.sent();
        self.failed += out.failed();
        if let Some(p) = &out.first_problem {
            self.problems
                .push(format!("{} failed request(s), first: {p}", out.failed()));
        }
        self.op_ms
            .extend(out.acct.latency_us.iter().map(|us| us / 1e3));
        self.late_us.extend_from_slice(&out.acct.late_us);
        if tracer.is_on() {
            let at = |ns: u64| out.start + Duration::from_nanos(ns);
            for (i, r) in out.recv_ns.iter().enumerate() {
                if let Some(r) = r {
                    tracer.record(
                        "loadgen.request",
                        parent,
                        at(out.interval_ns * i as u64),
                        at(*r),
                    );
                }
            }
        }
    }
}

/// Seconds since `t`.
fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Set the workload up [`SETUP_REPS`] times.
pub fn setup(w: Workload, ctx: &Ctx<'_>) -> Result<Prepared, String> {
    let mut prep = Prepared::default();
    match w {
        Workload::Repro => {
            // Repro needs no input but the seed, so its set-up is warm-up:
            // whole reports, until allocator arenas and any lazy state
            // have settled. (A sub-second set-up such as the static
            // campaign alone swung by 60 % with the host's load.)
            let reg = registry();
            for _ in 0..SETUP_REPS {
                let t = Instant::now();
                let world = World::build_with(SCALE, ctx.seed, None);
                std::hint::black_box(render_report(&world, &reg, None));
                prep.setup_s.push(secs(t));
            }
        }
        Workload::Resume | Workload::ServeRead | Workload::ServeLive => {
            let dir = ctx.scratch.join("journal");
            for _ in 0..SETUP_REPS {
                let t = Instant::now();
                let world = World::build_checkpointed(
                    SCALE,
                    ctx.seed,
                    Tuning::default(),
                    FaultConfig::default(),
                    &dir,
                    false,
                )
                .map_err(|e| format!("journal set-up failed: {e}"))?;
                prep.setup_s.push(secs(t));
                if w == Workload::Resume {
                    prep.reference = Some(world.dataset().clone());
                }
            }
            if w != Workload::Resume {
                prep.answers = oracle_answers(&dir, &ctx.fingerprint(), ctx.seed)?;
            }
            prep.journal = Some(dir);
        }
    }
    Ok(prep)
}

/// Fold one report into the run's hash: every report must repeat the
/// first, and the seed-2022 report must equal the pin.
pub fn check_report(
    hash: &mut Option<u64>,
    report: &str,
    seed: u64,
    problems: &mut Vec<String>,
) -> bool {
    let h = fnv1a64(report.as_bytes());
    let first = *hash.get_or_insert(h);
    let mut ok = true;
    if h != first {
        problems.push(format!(
            "report hash {h:016x} differs from this run's first report {first:016x}"
        ));
        ok = false;
    }
    if seed == PINNED_REPORT.0 && h != PINNED_REPORT.1 {
        problems.push(format!(
            "seed-{seed} report hash {h:016x} differs from the pin {:016x}",
            PINNED_REPORT.1
        ));
        ok = false;
    }
    ok
}

/// The offline answer to every [`MIX`] line: replay the journal into a
/// view and answer through the same pure function the server uses.
fn oracle_answers(dir: &Path, fp: &Fingerprint, seed: u64) -> Result<Vec<String>, String> {
    let (view, _) =
        DatasetView::from_journal(dir, fp).map_err(|e| format!("offline replay failed: {e}"))?;
    let world = World::from_view(SCALE, seed, view);
    MIX.iter()
        .map(|line| {
            let req =
                parse_request(line).map_err(|e| format!("mix line {line} does not parse: {e}"))?;
            let answer = respond(&world, &req);
            if answer.starts_with(r#"{"ok":true"#) {
                Ok(answer)
            } else {
                Err(format!("mix line {line} has no offline answer: {answer}"))
            }
        })
        .collect()
}

/// Run the timed phase for about `ctx.seconds`.
pub fn measure(w: Workload, ctx: &Ctx<'_>, prep: &Prepared, tracer: &Tracer) -> Measured {
    let mut m = Measured::default();
    let result = match w {
        Workload::Repro | Workload::Resume => measure_report(w, ctx, prep, tracer, &mut m),
        Workload::ServeRead => measure_serve_read(ctx, prep, tracer, &mut m),
        Workload::ServeLive => measure_serve_live(ctx, prep, tracer, &mut m),
    };
    if let Err(e) = result {
        m.fail(e);
    }
    m
}

/// Repro and resume: build the world (simulate, or replay the journal),
/// then render the full report, as `repro` and `repro --resume` do.
fn measure_report(
    w: Workload,
    ctx: &Ctx<'_>,
    prep: &Prepared,
    tracer: &Tracer,
    m: &mut Measured,
) -> Result<(), String> {
    let reg = registry();
    let mut hash = None;
    let t_phase = Instant::now();
    let mut last = 0.0;
    while m.op_ms.is_empty() || secs(t_phase) + last / 2.0 <= ctx.seconds {
        let t_iter = Instant::now();
        let (world, report, ready, op) = tracer.span(&format!("{}.op", w.name()), None, |root| {
            let t0 = Instant::now();
            let world = match w {
                Workload::Repro => tracer.span("world.build", root, |_| {
                    Ok(World::build_with(SCALE, ctx.seed, None))
                }),
                _ => tracer.span("world.resume", root, |_| {
                    let dir = prep
                        .journal
                        .as_deref()
                        .expect("resume set-up writes a journal");
                    World::build_checkpointed(
                        SCALE,
                        ctx.seed,
                        Tuning::default(),
                        FaultConfig::default(),
                        dir,
                        true,
                    )
                }),
            };
            let ready = t0.elapsed();
            let report = world.as_ref().ok().map(|world| {
                tracer.span("experiments.render", root, |_| {
                    render_report(world, &reg, None)
                })
            });
            (world, report, ready, t0.elapsed())
        });
        m.attempted += 1;
        let world = world.map_err(|e| format!("resume failed: {e}"))?;
        let report = report.expect("a built world renders");
        let mut ok = check_report(&mut hash, &report, ctx.seed, &mut m.problems);
        if let Some(reference) = &prep.reference {
            if world.dataset() != reference {
                m.problems
                    .push("resumed dataset differs from the dataset set-up simulated".to_string());
                ok = false;
            }
        }
        if !ok {
            m.failed += 1;
        }
        m.ready_ms.push(ready.as_secs_f64() * 1e3);
        m.op_ms.push(op.as_secs_f64() * 1e3);
        drop(world);
        last = secs(t_iter);
    }
    m.peak_rss_mb = host::peak_rss_mb();
    Ok(())
}

fn serve_options() -> ServeOptions {
    ServeOptions {
        workers: 2,
        poll_ms: 1,
        io_timeout_ms: 30_000,
        max_inflight: 16,
        drain_secs: 5,
    }
}

/// Start a server on `dir` the way the `wheels-serve` binary does
/// (fingerprint, empty base world, start); with `want` set, wait until
/// that many shards are queryable. Returns the time from the first step
/// until ready.
fn start_server(
    ctx: &Ctx<'_>,
    dir: &Path,
    want: Option<usize>,
) -> Result<(ServerHandle, Duration), String> {
    let t0 = Instant::now();
    let spec = JournalSpec {
        dir: dir.to_path_buf(),
        fingerprint: ctx.fingerprint(),
    };
    let base = World::from_view(SCALE, ctx.seed, DatasetView::new(Dataset::default()));
    let handle = server::start(base, spec, "127.0.0.1:0", serve_options())
        .map_err(|e| format!("server start failed: {e}"))?;
    let ready = |h: &ServerHandle| match want {
        Some(n) => h.shards_ingested() >= n,
        None => h.journal_offset().is_some(),
    };
    while !ready(&handle) {
        if handle.is_stopping() || t0.elapsed() > Duration::from_secs(60) {
            let why = handle
                .shutdown()
                .err()
                .unwrap_or_else(|| "no progress in 60 s".to_string());
            return Err(format!("server did not catch up: {why}"));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok((handle, t0.elapsed()))
}

/// Keep the server's `status` reply, then stop it; a fatal ingest error
/// becomes a problem.
fn stop_server(handle: ServerHandle, m: &mut Measured) {
    if let Ok(mut replies) = loadgen::ask(handle.addr(), &[r#"{"cmd":"status"}"#.to_string()]) {
        m.status = replies.pop();
    }
    if let Err(e) = handle.shutdown() {
        m.fail(format!("server stopped with an error: {e}"));
    }
}

fn exact_answer<'a>(
    answers: &'a [String],
) -> impl Fn(usize, &str) -> Result<(), String> + Sync + 'a {
    move |i, reply| {
        if reply == answers[i] {
            Ok(())
        } else {
            Err(format!(
                "reply to {} differs from the offline answer: {reply:.120}",
                MIX[i]
            ))
        }
    }
}

fn any_ok(_: usize, reply: &str) -> Result<(), String> {
    if reply.starts_with(r#"{"ok":true"#) {
        Ok(())
    } else {
        Err(format!("non-ok reply: {reply:.120}"))
    }
}

/// Serve-read: time a server start to full catch-up and query it
/// open-loop; then time two more starts. The peak RSS is read before
/// the first server stops, so it covers one server, not the memory an
/// allocator keeps from the ones before.
fn measure_serve_read(
    ctx: &Ctx<'_>,
    prep: &Prepared,
    tracer: &Tracer,
    m: &mut Measured,
) -> Result<(), String> {
    let dir = prep
        .journal
        .as_deref()
        .expect("serve set-up writes a journal");
    let jobs = ctx.fingerprint().jobs;
    let starts = ((ctx.seconds / 4.0) as usize).clamp(1, 3);
    let catch_up = |m: &mut Measured| {
        m.attempted += 1;
        let (handle, took) = tracer.span("serve.catchup", None, |_| {
            start_server(ctx, dir, Some(jobs))
        })?;
        m.ready_ms.push(took.as_secs_f64() * 1e3);
        Ok::<_, String>(handle)
    };
    let handle = catch_up(m)?;
    // The later starts take about as long as the first.
    let pass_s = ctx.seconds - starts as f64 * m.ready_ms[0] / 1e3;
    let order = mix_order(ctx.seed, 4096);
    let lines: Vec<String> = MIX.iter().map(|s| s.to_string()).collect();
    let pass = Pass {
        addr: handle.addr(),
        lines: &lines,
        order: &order,
        rate_hz: RATE_HZ,
        duration: Duration::from_secs_f64(pass_s.max(1.0)),
        drain: DRAIN,
    };
    let out = tracer.span("loadgen.pass", None, |id| {
        loadgen::run_pass(&pass, exact_answer(&prep.answers), |_| {}).map(|out| (out, id))
    });
    match out {
        Ok((out, id)) => m.absorb_pass(&out, tracer, id),
        Err(e) => m.fail(format!("load generator failed: {e}")),
    }
    m.peak_rss_mb = host::peak_rss_mb();
    stop_server(handle, m);
    for _ in 1..starts {
        let handle = catch_up(m)?;
        stop_server(handle, m);
    }
    Ok(())
}

/// Copies a complete journal into a live one frame by frame, and
/// records how long each frame takes to become queryable.
struct Copier {
    src: File,
    dst: File,
    /// Frame boundaries of the source: header end, then each frame end.
    ends: Vec<u64>,
    pos: u64,
    first_due: Instant,
    buf: Vec<u8>,
    /// When the last byte of each copied frame was written.
    done_at: Vec<Instant>,
    started_at: Vec<Instant>,
    /// Ingest lag per frame, ms (last byte written → queryable).
    lag_ms: Vec<f64>,
    error: Option<String>,
}

impl Copier {
    fn open(src_dir: &Path, dst_dir: &Path, first_due: Instant) -> Result<Copier, String> {
        let io = |e: std::io::Error| format!("live journal copy: {e}");
        let ends = checkpoint::frame_ends(src_dir).map_err(|e| format!("source journal: {e}"))?;
        let mut src = File::open(Journal::file_path(src_dir)).map_err(io)?;
        let dst = OpenOptions::new()
            .append(true)
            .open(Journal::file_path(dst_dir))
            .map_err(io)?;
        let header = ends[0];
        let mut a = vec![0u8; usize::try_from(header).map_err(|e| e.to_string())?];
        src.read_exact(&mut a).map_err(io)?;
        let b = std::fs::read(Journal::file_path(dst_dir)).map_err(io)?;
        if a != b {
            return Err("live journal header differs from the source journal's".to_string());
        }
        Ok(Copier {
            src,
            dst,
            pos: header,
            ends,
            first_due,
            buf: vec![0u8; COPY_SLICE],
            done_at: Vec::new(),
            started_at: Vec::new(),
            lag_ms: Vec::new(),
            error: None,
        })
    }

    fn frames(&self) -> usize {
        self.ends.len() - 1
    }

    /// Record lags of newly visible frames, then copy one slice if the
    /// next frame is due.
    fn tick(&mut self, now: Instant, ingested: usize) {
        while self.lag_ms.len() < ingested.min(self.done_at.len()) {
            let done = self.done_at[self.lag_ms.len()];
            self.lag_ms
                .push(now.saturating_duration_since(done).as_secs_f64() * 1e3);
        }
        let next = self.done_at.len();
        if self.error.is_none()
            && next < self.frames()
            && now >= self.first_due + FRAME_INTERVAL * next as u32
        {
            if let Err(e) = self.copy_slice() {
                self.error = Some(format!("live journal copy: {e}"));
            }
        }
    }

    fn copy_slice(&mut self) -> std::io::Result<()> {
        let next = self.done_at.len();
        if self.started_at.len() == next {
            self.started_at.push(Instant::now());
        }
        let end = self.ends[next + 1];
        let len =
            usize::try_from((end - self.pos).min(COPY_SLICE as u64)).expect("slice fits usize");
        self.src.seek(SeekFrom::Start(self.pos))?;
        self.src.read_exact(&mut self.buf[..len])?;
        self.dst.write_all(&self.buf[..len])?;
        self.pos += len as u64;
        if self.pos == end {
            self.done_at.push(Instant::now());
        }
        Ok(())
    }

    /// Copy whatever is left and wait until every frame is queryable.
    fn finish(&mut self, handle: &ServerHandle) -> Result<(), String> {
        while self.error.is_none() && self.done_at.len() < self.frames() {
            if let Err(e) = self.copy_slice() {
                self.error = Some(format!("live journal copy: {e}"));
            }
        }
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        let t0 = Instant::now();
        while self.lag_ms.len() < self.frames() {
            if t0.elapsed() > Duration::from_secs(20) || handle.is_stopping() {
                return Err(format!(
                    "only {} of {} live frames became queryable",
                    self.lag_ms.len(),
                    self.frames()
                ));
            }
            std::thread::sleep(Duration::from_micros(200));
            self.tick(Instant::now(), handle.shards_ingested());
        }
        Ok(())
    }
}

/// Serve-live: per pass, start a server on a fresh live journal, query
/// it open-loop while the complete journal is copied in, then check
/// every answer against the offline replay.
fn measure_serve_live(
    ctx: &Ctx<'_>,
    prep: &Prepared,
    tracer: &Tracer,
    m: &mut Measured,
) -> Result<(), String> {
    let src = prep
        .journal
        .as_deref()
        .expect("serve set-up writes a journal");
    let order = mix_order(ctx.seed, 4096);
    let lines: Vec<String> = MIX.iter().map(|s| s.to_string()).collect();
    let t_phase = Instant::now();
    let mut last = 0.0;
    let mut passes = 0;
    while passes == 0 || secs(t_phase) + last / 2.0 <= ctx.seconds {
        let t_pass = Instant::now();
        passes += 1;
        let live = ctx.scratch.join(&format!("live-{passes}"));
        Journal::create(&live, &ctx.fingerprint()).map_err(|e| format!("live journal: {e}"))?;
        let (handle, _) = start_server(ctx, &live, None)?;
        let lead = Duration::from_millis(100);
        let mut copier = Copier::open(src, &live, Instant::now() + lead)?;
        let frames = copier.frames();
        let pass = Pass {
            addr: handle.addr(),
            lines: &lines,
            order: &order,
            rate_hz: RATE_HZ,
            duration: lead + FRAME_INTERVAL * frames as u32 + Duration::from_millis(300),
            drain: DRAIN,
        };
        let out = tracer.span("loadgen.pass", None, |id| {
            loadgen::run_pass(&pass, any_ok, |now| {
                copier.tick(now, handle.shards_ingested())
            })
            .map(|o| (o, id))
        });
        match out {
            Ok((out, id)) => m.absorb_pass(&out, tracer, id),
            Err(e) => m.fail(format!("load generator failed: {e}")),
        }
        m.attempted += frames;
        if let Err(e) = copier.finish(&handle) {
            m.failed += frames - copier.lag_ms.len();
            m.problems.push(e);
        }
        for (k, lag) in copier.lag_ms.iter().enumerate() {
            m.ready_ms.push(*lag);
            if tracer.is_on() {
                let done = copier.done_at[k];
                tracer.record("journal.copy_frame", None, copier.started_at[k], done);
                tracer.record(
                    "serve.ingest_lag",
                    None,
                    done,
                    done + Duration::from_secs_f64(lag / 1e3),
                );
            }
        }
        // Once caught up, every answer must equal the offline replay.
        m.attempted += MIX.len();
        match loadgen::ask(handle.addr(), &lines) {
            Ok(replies) => {
                for (i, reply) in replies.iter().enumerate() {
                    if let Err(e) = exact_answer(&prep.answers)(i, reply) {
                        m.fail(format!("after live ingest: {e}"));
                    }
                }
            }
            Err(e) => {
                m.failed += MIX.len();
                m.problems.push(format!("verification pass failed: {e}"));
            }
        }
        if m.peak_rss_mb.is_none() {
            m.peak_rss_mb = host::peak_rss_mb();
        }
        stop_server(handle, m);
        let _ = std::fs::remove_dir_all(&live);
        last = secs(t_pass);
    }
    Ok(())
}
