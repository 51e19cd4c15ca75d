//! The drive-test campaign (§3).
//!
//! Three phones — one per operator — run the test suite round-robin while
//! the car drives: 30 s downlink nuttcp, 30 s uplink nuttcp, 20 s RTT,
//! then the four apps (AR and CAV each with and without compression, a 3
//! minute 360° video session, a 1 minute cloud-gaming session), then the
//! cycle repeats. Static baselines run at the city stopovers. The output
//! is the consolidated [`Dataset`].
//!
//! The three operators run **concurrently on the same clock** (the paper
//! strapped all phones into the same car), which is what makes the Fig. 6
//! operator-diversity analysis possible: for any time bin, all three
//! operators were measured at the same place under the same conditions.
//!
//! # Parallel execution model
//!
//! The unit of parallelism is an **(operator × trace-segment) shard**, not
//! an operator. The cycle schedule is a pure function of (trace, config) —
//! every test has a fixed duration, so cycle start times can be computed
//! up front without running anything. The trace is partitioned at the
//! overnight gaps (one segment per drive day, optionally sub-split via
//! [`CampaignConfig::shard_cycles`]), each shard runs independently on a
//! worker pool with its own RNG stream (`campaign/{op}/{segment}`) and its
//! own test-id range, and the shard datasets **stream** into one
//! [`DatasetView`] in a fixed plan order: each shard normalizes itself
//! into sorted runs, a shard that finishes ahead of the drain front parks
//! until its turn, and each drains through
//! [`DatasetView::ingest_shard`], the same fold `wheels-serve` and
//! [`DatasetView::from_journal`] use — no terminal sort and no index
//! rebuild, and the result is bit-identical at any thread count. One
//! drain loop serves plain, checkpointed and resumed runs alike: a
//! checkpointed run journals each shard before parking it, and a resumed
//! run decodes its replayed journal frames one at a time as the drain
//! front reaches them.
//!
//! Each drive shard cold-starts its [`RanSession`] a [`WARMUP`] window
//! before its first cycle so the serving state (grant, A3 filter state) at
//! the segment boundary matches a session that had been driving all along;
//! warm-up KPIs and handovers are discarded.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use wheels_apps::arcav::{AppConfig, OffloadRun};
use wheels_apps::gaming::GamingRun;
use wheels_apps::link::LinkState;
use wheels_apps::video::VideoRun;
use wheels_geo::route::Route;
use wheels_geo::trace::{DrivePlan, DriveTrace};
use wheels_radio::tech::Direction;
use wheels_ran::cells::{CellId, Deployment};
use wheels_ran::operator::Operator;
use wheels_ran::policy::TrafficDemand;
use wheels_ran::session::{PollCtx, RanSession};
use wheels_sim_core::rng::SimRng;
use wheels_sim_core::time::{SimDuration, SimTime};
use wheels_transport::servers::ServerFleet;

use crate::analysis::view::DatasetView;
use crate::checkpoint::{
    encode_shard_frame, CheckpointError, Fingerprint, FrameSpan, Journal, JournalMetrics,
};
use crate::disrupt::{FaultConfig, FaultKind, FaultSchedule, RetryPolicy};
use crate::measure::{self, VehicleCtx};
use crate::records::{
    AppRun, Dataset, ShardRecords, TaggedHandover, TestAudit, TestKind, TestRun, TestStatus,
};
use crate::staticprobe;

/// Gap between consecutive tests in a cycle.
const TEST_GAP: SimDuration = SimDuration(3_000);
/// Approximate TCP/app-layer efficiency over the radio goodput when apps
/// move data without a dedicated fluid-TCP model.
const APP_TCP_EFF: f64 = 0.85;
/// Synthetic XCAL volume per logged 500 ms record.
const LOG_BYTES_PER_SAMPLE: f64 = 2600.0;
/// Session warm-up window polled (and discarded) before a drive shard's
/// first cycle, so mid-trace shards start with realistic serving state.
const WARMUP: SimDuration = SimDuration(90_000);

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed.
    pub seed: u64,
    /// Stop after this many round-robin cycles per operator (None = the
    /// whole trip).
    pub max_cycles: Option<usize>,
    /// Run the app tests (AR/CAV/video/gaming) in each cycle.
    pub include_apps: bool,
    /// Run the static baselines at city stopovers.
    pub include_static: bool,
    /// Start at this index into the drive trace.
    pub start_at_sample: usize,
    /// Idle gap inserted after each cycle (seconds). Zero = continuous
    /// testing (the paper's actual protocol); larger values subsample the
    /// trip uniformly, which keeps scaled-down runs spanning all four
    /// timezones.
    pub cycle_stride_s: u64,
    /// Worker threads for shard execution (None = one per available
    /// core). The shard plan — and therefore the output — depends only on
    /// the config, never on this.
    pub threads: Option<usize>,
    /// Sub-split each drive day into shards of at most this many cycles
    /// (None = one shard per drive day). Changing this changes the RNG
    /// stream layout, so it is part of the config, not a runtime knob.
    pub shard_cycles: Option<usize>,
    /// Measurement-disruption injection (default: disabled). Fault
    /// schedules are drawn from dedicated `campaign/faults/{op}/{segment}`
    /// streams, so enabling them never perturbs the simulation streams
    /// and the output stays bit-identical at any thread count.
    pub faults: FaultConfig,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 2022,
            max_cycles: None,
            include_apps: true,
            include_static: true,
            start_at_sample: 0,
            cycle_stride_s: 0,
            threads: None,
            shard_cycles: None,
            faults: FaultConfig::default(),
        }
    }
}

/// Live counters a checkpointed run bumps as it goes — the campaign's
/// face of the shared `wheels-metrics` layer. Everything here is a
/// deterministic event count (shards, frames, audit-ledger rows); no
/// clock is ever read, so attaching metrics cannot perturb output
/// bytes. The `wheels-stress` soak harness polls these mid-run and
/// checks the audit-conservation invariant over the final totals.
#[derive(Debug, Default)]
pub struct CampaignMetrics {
    /// Shards freshly simulated (and journalled) by this run.
    pub shards_completed: wheels_metrics::Counter,
    /// Shards replayed from the journal on `--resume`.
    pub shards_replayed: wheels_metrics::Counter,
    /// Audit rows with [`TestStatus::Completed`].
    pub tests_completed: wheels_metrics::Counter,
    /// Audit rows with [`TestStatus::Partial`].
    pub tests_partial: wheels_metrics::Counter,
    /// Audit rows with [`TestStatus::Lost`].
    pub tests_lost: wheels_metrics::Counter,
    /// Audit rows that needed more than one attempt.
    pub tests_retried: wheels_metrics::Counter,
    /// Samples planned across all audit rows.
    pub samples_planned: wheels_metrics::Counter,
    /// Samples actually recorded.
    pub samples_recorded: wheels_metrics::Counter,
    /// Samples lost to disruptions.
    pub samples_lost: wheels_metrics::Counter,
    /// Journal append traffic (shared with [`Journal::attach_metrics`]).
    pub journal: std::sync::Arc<JournalMetrics>,
}

impl CampaignMetrics {
    /// Fold one shard's audit-ledger rows into the test counters.
    fn count_audits(&self, audits: &[TestAudit]) {
        for a in audits {
            match a.status {
                TestStatus::Completed => self.tests_completed.inc(),
                TestStatus::Partial => self.tests_partial.inc(),
                TestStatus::Lost => self.tests_lost.inc(),
            }
            if a.attempts > 1 {
                self.tests_retried.inc();
            }
            self.samples_planned.add(u64::from(a.planned_samples));
            self.samples_recorded.add(u64::from(a.recorded_samples));
            self.samples_lost.add(u64::from(a.lost_samples));
        }
    }

    /// The audit-ledger conservation invariant over everything counted
    /// so far: every planned sample is accounted for as recorded or
    /// lost. Only meaningful at a quiesce point (no run in flight).
    pub fn conservation_holds(&self) -> bool {
        self.samples_recorded.get() + self.samples_lost.get() == self.samples_planned.get()
    }

    /// Counters as a JSON object (for the stress report and any
    /// metrics-out dump).
    pub fn to_value(&self) -> serde::Value {
        let u = |c: &wheels_metrics::Counter| serde::Value::U64(c.get());
        serde::Value::Object(vec![
            ("shards_completed".to_string(), u(&self.shards_completed)),
            ("shards_replayed".to_string(), u(&self.shards_replayed)),
            ("tests_completed".to_string(), u(&self.tests_completed)),
            ("tests_partial".to_string(), u(&self.tests_partial)),
            ("tests_lost".to_string(), u(&self.tests_lost)),
            ("tests_retried".to_string(), u(&self.tests_retried)),
            ("samples_planned".to_string(), u(&self.samples_planned)),
            ("samples_recorded".to_string(), u(&self.samples_recorded)),
            ("samples_lost".to_string(), u(&self.samples_lost)),
            (
                "frames_appended".to_string(),
                u(&self.journal.frames_appended),
            ),
            (
                "bytes_appended".to_string(),
                u(&self.journal.bytes_appended),
            ),
        ])
    }
}

/// One test slot of the round-robin cycle. [`CYCLE`] lists the cycle
/// once: the cycle's duration, the runner's clock and the rows each
/// slot leaves all come from it.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// 30 s of backlogged nuttcp in one direction.
    Tput(Direction),
    /// 20 s of pings every 200 ms.
    Rtt,
    /// AR or CAV frame offload, raw or compressed.
    Offload { kind: TestKind, compressed: bool },
    /// One 360° video session.
    Video,
    /// One cloud-gaming session.
    Gaming,
}

/// The cycle in run order: the instruments, then the apps.
const CYCLE: [Slot; 9] = [
    Slot::Tput(Direction::Downlink),
    Slot::Tput(Direction::Uplink),
    Slot::Rtt,
    Slot::Offload {
        kind: TestKind::Ar,
        compressed: false,
    },
    Slot::Offload {
        kind: TestKind::Cav,
        compressed: false,
    },
    Slot::Offload {
        kind: TestKind::Ar,
        compressed: true,
    },
    Slot::Offload {
        kind: TestKind::Cav,
        compressed: true,
    },
    Slot::Video,
    Slot::Gaming,
];

/// The slots one cycle runs: the instruments, plus the apps when
/// `include_apps`.
fn cycle(include_apps: bool) -> impl Iterator<Item = Slot> {
    CYCLE
        .into_iter()
        .filter(move |s| include_apps || matches!(s, Slot::Tput(_) | Slot::Rtt))
}

fn offload_config(kind: TestKind) -> AppConfig {
    if kind == TestKind::Ar {
        AppConfig::ar()
    } else {
        AppConfig::cav()
    }
}

impl Slot {
    fn kind(self) -> TestKind {
        match self {
            Slot::Tput(Direction::Downlink) => TestKind::DownlinkTput,
            Slot::Tput(Direction::Uplink) => TestKind::UplinkTput,
            Slot::Rtt => TestKind::Rtt,
            Slot::Offload { kind, .. } => kind,
            Slot::Video => TestKind::Video,
            Slot::Gaming => TestKind::Gaming,
        }
    }

    /// Scheduled length, without the trailing [`TEST_GAP`].
    fn duration(self) -> SimDuration {
        match self {
            Slot::Tput(_) => measure::TPUT_TEST,
            Slot::Rtt => measure::RTT_TEST,
            Slot::Offload { kind, .. } => SimDuration::from_secs(offload_config(kind).duration_s),
            Slot::Video => SimDuration::from_secs(wheels_apps::video::SESSION_S),
            Slot::Gaming => SimDuration::from_secs(wheels_apps::gaming::SESSION_S),
        }
    }

    /// The traffic's dominant direction, which tags the slot's handovers
    /// and app coverage rows (`None`: pings only).
    fn direction(self) -> Option<Direction> {
        match self {
            Slot::Tput(dir) => Some(dir),
            Slot::Rtt => None,
            Slot::Offload { .. } => Some(Direction::Uplink),
            Slot::Video | Slot::Gaming => Some(Direction::Downlink),
        }
    }

    fn demand(self) -> TrafficDemand {
        match self.direction() {
            Some(Direction::Downlink) => TrafficDemand::BackloggedDownlink,
            Some(Direction::Uplink) => TrafficDemand::BackloggedUplink,
            None => TrafficDemand::IcmpOnly,
        }
    }
}

/// Duration of one round-robin cycle, including the trailing inter-test
/// gaps — a pure function of the config, which is what lets the shard
/// planner precompute every cycle start time without simulating anything.
pub fn cycle_duration(include_apps: bool) -> SimDuration {
    SimDuration(
        cycle(include_apps)
            .map(|slot| slot.duration().as_millis() + TEST_GAP.as_millis())
            .sum(),
    )
}

/// One trace segment's worth of cycles, run as an independent shard.
#[derive(Debug, Clone)]
struct Segment {
    /// Global segment ordinal (time order) — keys the RNG stream and the
    /// shard's test-id range.
    index: usize,
    /// Precomputed cycle start times within this segment.
    starts: Vec<SimTime>,
}

/// One unit of work for the shard pool.
struct ShardJob {
    op: Operator,
    segment: Option<Segment>,
}

/// Table 1 accounting over an assembled dataset: per-operator
/// unique-cell counts, runtimes, and the runtime-derived XCAL log
/// volume accumulated in `ops` order on top of `log_base` (the summed
/// per-shard log bytes, zero in practice). Shared by
/// [`DatasetView::ingest_shard`] and [`Campaign::run_operator`], so both
/// accumulate in the same f64 order. Replaces any aggregates already
/// present.
pub(crate) fn apply_table1_accounting(
    ds: &mut Dataset,
    ops: &[Operator],
    cells: &[BTreeSet<CellId>],
    log_base: f64,
) {
    ds.unique_cells.clear();
    ds.runtime_min.clear();
    ds.log_bytes = log_base;
    for (i, op) in ops.iter().enumerate() {
        let runtime_ms: u64 = ds
            .runs
            .iter()
            .filter(|r| r.operator == *op)
            .map(|r| r.end.since(r.start).as_millis())
            .sum();
        ds.unique_cells.push((*op, cells[i].len()));
        ds.runtime_min.push((*op, runtime_ms as f64 / 60_000.0));
        ds.log_bytes += (runtime_ms as f64 / measure::SAMPLE_MS as f64) * LOG_BYTES_PER_SAMPLE;
    }
}

/// The campaign: route, trace, per-operator deployments, servers.
pub struct Campaign {
    /// The LA→Boston route.
    pub route: Route,
    /// The 8-day drive trace.
    pub trace: DriveTrace,
    /// Deployments in `Operator::ALL` order.
    pub deployments: Vec<Deployment>,
    /// The cloud/edge server fleet.
    pub fleet: ServerFleet,
}

impl Campaign {
    /// Build the standard campaign world from a seed. The deployments
    /// are generated on a second thread while this one generates the
    /// trace: each draws only from its own labelled split of the seed, so
    /// the overlap cannot change a value.
    pub fn standard(seed: u64) -> Self {
        let route = Route::standard();
        let rng = SimRng::seed(seed);
        let (trace, deployments) = std::thread::scope(|s| {
            let deployments = s.spawn(|| {
                Operator::ALL
                    .into_iter()
                    // lint: allow(rng-stream-labels, the operator display names seed the deployment streams; relabeling to an area/rest scheme would change every FNV child seed and break the published byte-identical dataset pin in EXPERIMENTS.md)
                    .map(|op| Deployment::generate(&route, op, &mut rng.split(op.label())))
                    .collect()
            });
            let trace =
                DrivePlan::default().generate(&route, &mut rng.split("campaign/drive-plan"));
            let deployments = deployments
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            (trace, deployments)
        });
        Campaign {
            route,
            trace,
            deployments,
            fleet: ServerFleet::standard(),
        }
    }

    /// The deployment of one operator. O(1): `standard()` builds the
    /// deployments in `Operator::ALL` order, so the operator's position
    /// indexes directly; hand-assembled campaigns that ordered them
    /// differently fall back to a scan.
    pub fn deployment(&self, op: Operator) -> &Deployment {
        let idx = op.index();
        match self.deployments.get(idx) {
            Some(d) if d.operator == op => d,
            _ => self
                .deployments
                .iter()
                .find(|d| d.operator == op)
                .expect("all operators deployed"),
        }
    }

    /// Precompute every cycle start time — the same walk the runner used
    /// to take, minus the simulation: skip overnight gaps and static
    /// stops, advance by the (constant) cycle duration plus the stride.
    fn cycle_starts(&self, cfg: &CampaignConfig) -> Vec<SimTime> {
        let samples = self.trace.samples();
        let mut starts = Vec::new();
        if samples.is_empty() {
            return starts;
        }
        let step = cycle_duration(cfg.include_apps) + SimDuration::from_secs(cfg.cycle_stride_s);
        let mut t = samples[cfg.start_at_sample.min(samples.len() - 1)].t;
        let trace_end = samples.last().expect("checked non-empty above").t;
        while t < trace_end {
            if let Some(max) = cfg.max_cycles {
                if starts.len() >= max {
                    break;
                }
            }
            match self.trace.sample_at(t) {
                None => {
                    // Overnight gap: jump to the next active sample.
                    let idx = samples.partition_point(|s| s.t <= t);
                    if idx >= samples.len() {
                        break;
                    }
                    t = samples[idx].t;
                    continue;
                }
                Some(s) if s.static_stop => {
                    t += SimDuration::from_secs(30);
                    continue;
                }
                Some(_) => {}
            }
            starts.push(t);
            t += step;
        }
        starts
    }

    /// Partition the cycle schedule into shard segments: one per drive
    /// day (the overnight gaps are natural cut points — no session state
    /// survives them), sub-split to at most `shard_cycles` cycles each.
    /// The plan depends only on (trace, config), never on thread count.
    fn segments(&self, cfg: &CampaignConfig) -> Vec<Segment> {
        let cap = cfg.shard_cycles.unwrap_or(usize::MAX).max(1);
        let mut segs: Vec<Segment> = Vec::new();
        let mut cur_day: Option<u8> = None;
        for t in self.cycle_starts(cfg) {
            let day = match self.trace.sample_at(t) {
                Some(s) => s.day,
                None => continue,
            };
            let split =
                cur_day != Some(day) || segs.last().map(|s| s.starts.len() >= cap).unwrap_or(true);
            if split {
                segs.push(Segment {
                    index: segs.len(),
                    starts: Vec::new(),
                });
                cur_day = Some(day);
            }
            segs.last_mut()
                .expect("split pushed a segment on the first iteration")
                .starts
                .push(t);
        }
        segs
    }

    /// The full shard plan, in the fixed drain order.
    fn plan(&self, cfg: &CampaignConfig) -> Vec<ShardJob> {
        let segments = self.segments(cfg);
        let mut jobs = Vec::new();
        for op in Operator::ALL {
            if cfg.include_static {
                jobs.push(ShardJob { op, segment: None });
            }
            for seg in &segments {
                jobs.push(ShardJob {
                    op,
                    segment: Some(seg.clone()),
                });
            }
        }
        jobs
    }

    /// Run the full campaign and export the consolidated dataset in
    /// canonical order: [`Campaign::run_view`], then
    /// [`DatasetView::into_dataset`]. Bit-identical at any thread count.
    pub fn run(&self, cfg: &CampaignConfig) -> Dataset {
        self.run_view(cfg).into_dataset()
    }

    /// Run the full campaign: execute the shard plan on a worker pool and
    /// ingest the results into one view in plan order. Bit-identical at
    /// any thread count.
    pub fn run_view(&self, cfg: &CampaignConfig) -> DatasetView {
        let jobs = self.plan(cfg);
        self.run_jobs(
            &jobs,
            cfg,
            None,
            BTreeMap::new(),
            &CampaignMetrics::default(),
        )
        .expect("a run without a journal has no journal to fail")
    }

    /// Simulate every shard in the plan sequentially and hand back the
    /// raw per-shard records in plan order — the feed for the
    /// incremental `DatasetView::ingest_shard` pipeline and its
    /// property tests, which deliberately need the whole plan
    /// materialized to shuffle and replay it.
    pub fn shard_records(&self, cfg: &CampaignConfig) -> Vec<ShardRecords> {
        self.plan(cfg)
            .iter()
            .map(|job| self.run_shard(job, cfg))
            .collect()
    }

    /// The identity of a checkpointed run: every config field the shard
    /// plan and shard contents depend on, plus the derived plan shape —
    /// and deliberately *not* `threads`, which the engine guarantees has
    /// no effect on output. A journal may only be resumed by a run with
    /// an equal fingerprint.
    pub fn fingerprint(&self, cfg: &CampaignConfig) -> Fingerprint {
        Fingerprint {
            seed: cfg.seed,
            max_cycles: cfg.max_cycles,
            include_apps: cfg.include_apps,
            include_static: cfg.include_static,
            start_at_sample: cfg.start_at_sample,
            cycle_stride_s: cfg.cycle_stride_s,
            shard_cycles: cfg.shard_cycles,
            faults: cfg.faults,
            segments: self.segments(cfg).len(),
            jobs: self.plan(cfg).len(),
        }
    }

    /// Run the campaign with crash-safe checkpointing: each completed
    /// shard is journalled to `dir` before it is ingested. With
    /// `resume = false` a fresh journal replaces whatever was in `dir`;
    /// with `resume = true` the existing journal is verified against this
    /// run's [`Fingerprint`], its intact frames replay as already-done
    /// shards (any torn tail from a crash is truncated away), and only
    /// the missing shards are re-simulated. Either way the view is
    /// bit-identical to [`Campaign::run_view`] with the same config, at
    /// any thread count.
    pub fn run_checkpointed(
        &self,
        cfg: &CampaignConfig,
        dir: &Path,
        resume: bool,
    ) -> Result<DatasetView, CheckpointError> {
        self.run_checkpointed_observed(cfg, dir, resume, &CampaignMetrics::default())
    }

    /// [`Campaign::run_checkpointed`] with live
    /// [`CampaignMetrics`] attached: the run bumps shard, journal, and
    /// audit-ledger counters as it goes. Counters never feed back into
    /// the simulation, so observed and unobserved runs are
    /// byte-identical.
    pub fn run_checkpointed_observed(
        &self,
        cfg: &CampaignConfig,
        dir: &Path,
        resume: bool,
        metrics: &CampaignMetrics,
    ) -> Result<DatasetView, CheckpointError> {
        let fp = self.fingerprint(cfg);
        let jobs = self.plan(cfg);
        let (journal, completed) = if resume {
            Journal::resume_indexed(dir, &fp)?
        } else {
            (Journal::create(dir, &fp)?, BTreeMap::new())
        };
        // A matching fingerprint pins the plan shape, but frames still
        // assert which shard they are — check the plan bounds up front;
        // the operator cross-check happens when each frame is decoded at
        // drain time (frames are no longer eagerly materialized).
        for i in completed.keys() {
            if *i >= jobs.len() {
                return Err(CheckpointError::Invalid(format!(
                    "journal frame for shard {i} is outside the {}-job plan",
                    jobs.len()
                )));
            }
        }
        self.run_jobs(&jobs, cfg, Some(journal), completed, metrics)
    }

    /// Run the campaign for one operator (sequentially, same shard plan —
    /// the result matches that operator's slice of [`Campaign::run`],
    /// with Table 1 rows for that operator alone).
    pub fn run_operator(&self, op: Operator, cfg: &CampaignConfig) -> Dataset {
        let static_job = cfg.include_static.then_some(ShardJob { op, segment: None });
        let drive_jobs = self.segments(cfg).into_iter().map(|seg| ShardJob {
            op,
            segment: Some(seg),
        });
        let mut out = Dataset::default();
        let mut cells = BTreeSet::new();
        for job in static_job.into_iter().chain(drive_jobs) {
            let shard = self.run_shard(&job, cfg);
            cells.extend(shard.cells);
            out.merge_normalized(shard.dataset);
        }
        let log_base = out.log_bytes;
        apply_table1_accounting(&mut out, &[op], &[cells], log_base);
        out
    }

    /// Worker count for a plan: `cfg.threads`, defaulting to one per
    /// core, clamped to the number of jobs.
    fn worker_threads(cfg: &CampaignConfig, jobs: usize) -> usize {
        cfg.threads
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
            .clamp(1, jobs.max(1))
    }

    /// Execute jobs on a pool of `cfg.threads` workers (default: one per
    /// core), draining finished shards into one [`DatasetView`] through
    /// [`DatasetView::ingest_shard`] in plan order. Workers pull jobs
    /// from a shared counter; a freshly simulated shard parks until the
    /// drain front reaches it, and a frame in `replayed` (indexed by
    /// `--resume`) is decoded only then, so a resume holds one replayed
    /// shard at a time. Because the drain
    /// order is the plan order no matter which worker ran what, the
    /// output is byte-identical at any thread count.
    ///
    /// With a `journal`, every fresh shard is encoded by its worker, then
    /// appended under a lock (appends must not interleave; the lock
    /// covers only the write and sync) *before* it counts as done, so a kill
    /// at any moment loses at most the shards still in flight. The first
    /// journal error stops the pool at the next job boundary and
    /// surfaces as an error rather than silently degrading to an
    /// uncheckpointed run. Without one, nothing is encoded or written.
    fn run_jobs(
        &self,
        jobs: &[ShardJob],
        cfg: &CampaignConfig,
        journal: Option<Journal>,
        replayed: BTreeMap<usize, FrameSpan>,
        metrics: &CampaignMetrics,
    ) -> Result<DatasetView, CheckpointError> {
        struct Reorder {
            view: DatasetView,
            parked: BTreeMap<usize, ShardRecords>,
            next_drain: usize,
            failed: Option<CheckpointError>,
        }
        // lint: allow(lossy-cast, shard count is far below u64::MAX — usize widens exactly)
        metrics.shards_replayed.add(replayed.len() as u64);
        let reader = journal.as_ref().map(Journal::reader);
        let journal = journal.map(|mut j| {
            j.attach_metrics(std::sync::Arc::clone(&metrics.journal));
            Mutex::new(j)
        });
        // Fold every contiguous done shard at the drain front: parked
        // shards straight in, replayed ones decoded from their journal
        // frame (re-verifying the operator the plan expects).
        let drain = |st: &mut Reorder| -> Result<(), CheckpointError> {
            loop {
                let i = st.next_drain;
                let shard = match (st.parked.remove(&i), replayed.get(&i), &reader) {
                    (Some(shard), _, _) => shard,
                    (None, Some(&span), Some(reader)) => {
                        let rec = reader.read_frame(span)?;
                        if rec.operator != jobs[i].op {
                            return Err(CheckpointError::Invalid(format!(
                                "journal frame for shard {i} records {}, the plan expects {}",
                                rec.operator.label(),
                                jobs[i].op.label()
                            )));
                        }
                        rec
                    }
                    _ => return Ok(()),
                };
                st.view.ingest_shard(shard);
                st.next_drain += 1;
            }
        };
        let threads = Self::worker_threads(cfg, jobs.len());
        let next_job = AtomicUsize::new(0);
        let state = Mutex::new(Reorder {
            view: DatasetView::new(Dataset::default()),
            parked: BTreeMap::new(),
            next_drain: 0,
            failed: None,
        });
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| loop {
                    let i = next_job.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs.len() {
                        break;
                    }
                    if replayed.contains_key(&i) {
                        continue;
                    }
                    let failed = state
                        .lock()
                        .expect("reorder state mutex poisoned")
                        .failed
                        .is_some();
                    if failed {
                        break; // the journal is broken; stop burning work
                    }
                    let shard = self.run_shard(&jobs[i], cfg);
                    if let Some(j) = &journal {
                        // Encode outside the lock: only the write and
                        // its sync serialize the workers.
                        let appended = encode_shard_frame(i, &shard).and_then(|frame| {
                            j.lock()
                                .expect("journal mutex poisoned")
                                .write_frame(&frame)
                        });
                        if let Err(e) = appended {
                            let mut st = state.lock().expect("reorder state mutex poisoned");
                            st.failed.get_or_insert(e);
                            break;
                        }
                    }
                    metrics.shards_completed.inc();
                    metrics.count_audits(&shard.dataset.audits);
                    let mut st = state.lock().expect("reorder state mutex poisoned");
                    st.parked.insert(i, shard);
                    if let Err(e) = drain(&mut st) {
                        st.failed.get_or_insert(e);
                        break;
                    }
                });
            }
        });
        let mut st = state.into_inner().expect("reorder state mutex poisoned");
        if let Some(e) = st.failed.take() {
            return Err(e);
        }
        // Replayed frames behind the last fresh shard (all of them, on a
        // complete journal) drain here.
        drain(&mut st)?;
        debug_assert_eq!(st.next_drain, jobs.len(), "every shard drained");
        Ok(st.view)
    }

    /// Run one shard: the operator's static baselines (segment = None) or
    /// one trace segment of drive cycles.
    fn run_shard(&self, job: &ShardJob, cfg: &CampaignConfig) -> ShardRecords {
        let op = job.op;
        let dep = self.deployment(op);
        // lint: allow(lossy-cast, operator index is 0..3, exact in u32)
        let op_idx = op.index() as u32;
        let (rng, next_id) = match &job.segment {
            // Static shard: keep the original per-operator stream and id
            // range so static baselines are unchanged by the sharding.
            None => (
                SimRng::seed(cfg.seed).split(&format!("campaign/{}", op.label())),
                (op_idx + 1) * 1_000_000,
            ),
            Some(seg) => (
                SimRng::seed(cfg.seed).split(&format!("campaign/{}/{}", op.label(), seg.index)),
                // Disjoint id ranges: 10k ids per segment, segments well
                // clear of the static ranges.
                // lint: allow(lossy-cast, segment count is bounded by trace days x shard_cycles, far below u32)
                (op_idx + 1) * 100_000_000 + seg.index as u32 * 10_000,
            ),
        };
        // Disruptions only hit the drive campaign: each drive segment
        // gets its own schedule from a dedicated stream, keyed like the
        // shard itself, spanning first cycle start → last cycle end.
        // Static shards (and disabled faults) get the empty schedule.
        let faults = match &job.segment {
            Some(seg) if cfg.faults.enabled => match (seg.starts.first(), seg.starts.last()) {
                (Some(&lo), Some(&hi)) => FaultSchedule::generate(
                    &cfg.faults,
                    cfg.seed,
                    op.label(),
                    seg.index,
                    lo,
                    hi + cycle_duration(cfg.include_apps),
                ),
                _ => FaultSchedule::default(),
            },
            _ => FaultSchedule::default(),
        };
        let mut runner = OpRunner {
            route: &self.route,
            trace: &self.trace,
            fleet: &self.fleet,
            session: RanSession::new(
                dep,
                TrafficDemand::BackloggedDownlink,
                rng.split("campaign/ran"),
            ),
            rng,
            ds: Dataset::default(),
            next_id,
            op,
            ho_mark: 0,
            faults,
            retry: cfg.faults.retry,
            day: 0,
        };
        match &job.segment {
            None => runner.run_static_stops(dep),
            Some(seg) => runner.run_segment(seg, cfg.include_apps),
        }
        // Hand each shard off as a set of sorted runs: the view splices
        // them in plan order, and merging stably-sorted runs reproduces
        // the permutation of a stable sort over the concatenation (the
        // classic mergesort identity), which is what keeps the streaming
        // engine byte-identical to a terminal sort.
        runner.ds.normalize();
        // The session's cell set is unordered; the frame carries it
        // ascending so its encoding is order-stable.
        let cells: BTreeSet<CellId> = runner.session.unique_cells().collect();
        ShardRecords {
            operator: op,
            dataset: runner.ds,
            cells: cells.into_iter().collect(),
        }
    }
}

/// Per-operator campaign state.
struct OpRunner<'a> {
    route: &'a Route,
    trace: &'a DriveTrace,
    fleet: &'a ServerFleet,
    session: RanSession<'a>,
    rng: SimRng,
    ds: Dataset,
    next_id: u32,
    op: Operator,
    ho_mark: usize,
    /// Shard fault schedule (empty unless injection is enabled).
    faults: FaultSchedule,
    /// Retry policy for blocked test starts.
    retry: RetryPolicy,
    /// Trip day of the cycle currently running (keys the audit rows).
    day: u8,
}

impl<'a> OpRunner<'a> {
    fn alloc_id(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Tag handovers recorded since the last mark to `test_id`.
    fn drain_handovers(&mut self, test_id: u32, direction: Option<Direction>) -> u32 {
        let events = self.session.events();
        let new = &events[self.ho_mark..];
        // lint: allow(lossy-cast, handovers per test are far below u32::MAX)
        let n = new.len() as u32;
        for e in new {
            self.ds.handovers.push(TaggedHandover {
                event: *e,
                operator: self.op,
                test_id: Some(test_id),
                direction,
            });
        }
        self.ho_mark = events.len();
        n
    }

    /// Samples the fault-free schedule would record in `[start, end)` at
    /// `step_ms` cadence: one per grid point with trace coverage. A pure
    /// function of (trace, config), so it is identical whether or not
    /// faults are enabled — the baseline the audit ledger accounts
    /// against.
    fn planned_samples(&self, start: SimTime, end: SimTime, step_ms: u64) -> u32 {
        let mut n = 0u32;
        let mut t = start;
        while t < end {
            if self.trace.sample_at(t).is_some() {
                n += 1;
            }
            t += SimDuration::from_millis(step_ms);
        }
        n
    }

    fn run_static_stops(&mut self, dep: &'a Deployment) {
        // Group static samples into per-city stops.
        let mut stops: Vec<(SimTime, f64)> = Vec::new();
        for s in self.trace.static_samples() {
            match stops.last() {
                Some((_, odo_km)) if (s.odo.as_km() - odo_km).abs() < 5.0 => {}
                _ => stops.push((s.t, s.odo.as_km())),
            }
        }
        for (i, (t, odo_km)) in stops.iter().enumerate() {
            let mut rng = self.rng.split(&format!("static/{i}"));
            staticprobe::run_city(
                dep,
                self.route,
                self.fleet,
                wheels_sim_core::units::Distance::from_km(*odo_km),
                *t,
                &mut self.next_id,
                &mut rng,
                &mut self.ds,
            );
        }
    }

    /// Run one trace segment: warm the session up ahead of the first
    /// cycle (KPIs and handovers discarded), run each precomputed cycle,
    /// then record leftover handovers as passive (untagged).
    fn run_segment(&mut self, seg: &Segment, include_apps: bool) {
        let Some(&first) = seg.starts.first() else {
            return;
        };
        let mut t = SimTime(first.0.saturating_sub(WARMUP.as_millis()));
        while t < first {
            if let Some(s) = self.trace.sample_at(t) {
                self.session.poll(t, PollCtx::from(s));
            }
            t += SimDuration(measure::SAMPLE_MS);
        }
        // Warm-up handovers belong to no test and would double against
        // the neighbouring shard's — drop them.
        self.ho_mark = self.session.events().len();
        for &start in &seg.starts {
            let Some(s) = self.trace.sample_at(start) else {
                continue;
            };
            self.day = s.day;
            self.run_cycle(start, include_apps);
        }
        let events = self.session.events();
        for e in &events[self.ho_mark..] {
            self.ds.handovers.push(TaggedHandover {
                event: *e,
                operator: self.op,
                test_id: None,
                direction: None,
            });
        }
        self.ho_mark = events.len();
    }

    /// Run one round-robin cycle starting at `t`.
    fn run_cycle(&mut self, mut t: SimTime, include_apps: bool) {
        for slot in cycle(include_apps) {
            self.run_slot(slot, t);
            t += slot.duration() + TEST_GAP;
        }
    }

    fn current_path(&self, t: SimTime) -> wheels_transport::servers::NetPath {
        match self.trace.sample_at(t) {
            Some(s) => self.fleet.path(self.op, self.route, s.odo),
            None => self
                .fleet
                .cloud_path(self.route, wheels_sim_core::units::Distance::ZERO),
        }
    }

    /// Run one slot scheduled at `start`. Whatever the fault layer did,
    /// it leaves exactly one audit row; a slot that ran also leaves one
    /// run row, and an app slot one app row.
    fn run_slot(&mut self, slot: Slot, start: SimTime) {
        let id = self.alloc_id();
        let kind = slot.kind();
        let sched_end = start + slot.duration();
        // The instruments sample a fixed grid (500 ms bins, 200 ms
        // pings), so their planned count is a pure trace lookup. App
        // sampling follows app behaviour: an app plans what it produced
        // plus what logger gaps ate, and a lost app plans nothing.
        let grid_ms = match slot {
            Slot::Tput(_) => Some(measure::SAMPLE_MS),
            Slot::Rtt => Some(200),
            _ => None,
        };
        let plan = self.faults.plan_test(start, sched_end, &self.retry);
        let mut audit = TestAudit {
            test_id: id,
            operator: self.op,
            kind,
            day: self.day,
            scheduled: start,
            status: TestStatus::Lost,
            attempts: plan.attempts,
            fault: plan.fault,
            planned_samples: grid_ms.map_or(0, |ms| self.planned_samples(start, sched_end, ms)),
            recorded_samples: 0,
            lost_samples: 0,
        };
        // A blocked instrument salvages a late begin. An app session has
        // fixed internal timing, so it runs from its scheduled start or
        // not at all (mid-run faults degrade its link instead). A lost
        // slot still used its id, so the id plan matches the fault-free
        // campaign.
        if let Some(begin) = plan.begin.filter(|&b| grid_ms.is_some() || b == start) {
            let path = self.current_path(begin);
            self.session.set_demand(slot.demand());
            let mut app = AppRun {
                id,
                operator: self.op,
                kind,
                server: path.kind,
                driving: true,
                offload: None,
                video: None,
                gaming: None,
            };
            let (trace, session) = (self.trace, &mut self.session);
            let mut poll = |t| session.poll(t, PollCtx::from(trace.sample_at(t)?));
            let mut ctx_of = |t| trace.sample_at(t).map(VehicleCtx::from);
            // Each arm records its rows and returns the run's end, its
            // kept and gap-dropped counts, and its high-speed-5G share.
            let (end, kept, dropped, hs5g) = match slot {
                Slot::Tput(dir) => {
                    let mut out = measure::measure_tput(
                        &mut poll,
                        &mut ctx_of,
                        dir,
                        begin,
                        plan.cut,
                        id,
                        self.op,
                        path,
                        true,
                    );
                    // XCAL logger gaps eat the KPI-joined rows recorded
                    // inside them.
                    let before = out.coverage.len();
                    if !self.faults.is_empty() {
                        let faults = &self.faults;
                        out.samples.retain(|s| !faults.in_gap(s.t));
                        out.coverage.retain(|c| !faults.in_gap(c.t));
                    }
                    let kept = out.coverage.len();
                    match dir {
                        Direction::Downlink => self.ds.rx_bytes += out.bytes,
                        Direction::Uplink => self.ds.tx_bytes += out.bytes,
                    }
                    self.ds.tput.extend(out.samples);
                    self.ds.coverage.extend(out.coverage);
                    // The instrument records whole 500 ms bins from
                    // `begin` to the cut; that is the run's window.
                    let bins = plan.cut.since(begin).as_millis() / measure::SAMPLE_MS;
                    let end = begin + SimDuration::from_millis(bins * measure::SAMPLE_MS);
                    (end, kept, before - kept, out.hs5g_fraction)
                }
                Slot::Rtt => {
                    let (samples, mut coverage, hs5g) = measure::measure_rtt(
                        &mut poll,
                        &mut ctx_of,
                        begin,
                        plan.cut,
                        id,
                        self.op,
                        path,
                        true,
                        self.rng.split(&format!("campaign/rtt/{id}")),
                    );
                    // The ping log is app-layer, so logger gaps only eat
                    // the XCAL-derived coverage rows, never a counted
                    // sample.
                    if !self.faults.is_empty() {
                        let faults = &self.faults;
                        coverage.retain(|c| !faults.in_gap(c.t));
                    }
                    let kept = samples.len();
                    self.ds.rtt.extend(samples);
                    self.ds.coverage.extend(coverage);
                    (plan.cut, kept, 0, hs5g)
                }
                Slot::Offload { compressed, .. } => {
                    let config = offload_config(kind);
                    let (stats, kept, dropped) = self.with_sampler(path, slot, |s| {
                        OffloadRun::execute(&config, s, start, compressed)
                    });
                    let frame_kb = if compressed {
                        config.compressed_frame_kb
                    } else {
                        config.raw_frame_kb
                    };
                    self.ds.tx_bytes += stats.frames_offloaded as f64 * frame_kb * 1024.0;
                    let hs5g = stats.high_speed_5g_fraction;
                    app.offload = Some(stats);
                    (sched_end, kept, dropped, hs5g)
                }
                Slot::Video => {
                    let (stats, kept, dropped) =
                        self.with_sampler(path, slot, |s| VideoRun::execute(s, start));
                    self.ds.rx_bytes +=
                        stats.avg_bitrate() * 1e6 / 8.0 * stats.chunks.len() as f64 * 2.0;
                    let hs5g = stats.high_speed_5g_fraction;
                    app.video = Some(stats);
                    (sched_end, kept, dropped, hs5g)
                }
                Slot::Gaming => {
                    let (stats, kept, dropped) =
                        self.with_sampler(path, slot, |s| GamingRun::execute(s, start));
                    self.ds.rx_bytes += stats
                        .bitrate_mbps
                        .iter()
                        .map(|b| b * 1e6 / 8.0)
                        .sum::<f64>();
                    let hs5g = stats.high_speed_5g_fraction;
                    app.gaming = Some(stats);
                    (sched_end, kept, dropped, hs5g)
                }
            };
            // lint: allow(lossy-cast, rows per test are far below u32::MAX)
            let (kept, dropped) = (kept as u32, dropped as u32);
            if dropped > 0 {
                audit.fault = audit.fault.or(Some(FaultKind::LoggerGap));
            }
            if grid_ms.is_none() {
                audit.planned_samples = kept + dropped;
            }
            audit.recorded_samples = kept;
            let partial = kept < audit.planned_samples;
            audit.status = if partial {
                TestStatus::Partial
            } else {
                TestStatus::Completed
            };
            let handovers = self.drain_handovers(id, slot.direction());
            self.ds.runs.push(TestRun {
                id,
                kind,
                operator: self.op,
                start: begin,
                end,
                miles: self.trace.distance_in_window(begin, end).as_miles(),
                tz: self
                    .trace
                    .sample_at(begin)
                    .map(|s| s.tz)
                    .unwrap_or(wheels_sim_core::time::Timezone::Pacific),
                server: path.kind,
                hs5g_fraction: hs5g,
                handovers,
                driving: true,
                partial,
            });
            if grid_ms.is_none() {
                self.ds.apps.push(app);
            }
        }
        audit.lost_samples = audit.planned_samples.saturating_sub(audit.recorded_samples);
        self.ds.audits.push(audit);
    }

    /// Adapt the phone into the apps' link abstraction for one app slot.
    ///
    /// XCAL keeps logging during the app tests, so every 500 ms bin the
    /// sampler touches also yields a coverage row, tagged with the
    /// slot's traffic direction. Under an injected blocking fault the
    /// link reads as dead (`None`) — the modem still logs, so the
    /// coverage row is recorded first — and rows falling in logger gaps
    /// are dropped afterwards. Returns the closure's result plus (kept,
    /// gap-dropped) coverage-row counts for the audit ledger.
    fn with_sampler<R>(
        &mut self,
        path: wheels_transport::servers::NetPath,
        slot: Slot,
        f: impl FnOnce(&mut dyn wheels_apps::link::LinkSampler) -> R,
    ) -> (R, usize, usize) {
        let trace = self.trace;
        let session = &mut self.session;
        let op = self.op;
        let faults = &self.faults;
        let coverage = std::cell::RefCell::new(Vec::new());
        let mut last_bin: u64 = u64::MAX;
        let r = {
            let coverage = &coverage;
            let mut sampler = move |t: SimTime| -> Option<LinkState> {
                let s = trace.sample_at(t)?;
                let snap = session.poll(t, PollCtx::from(s));
                let bin = t.as_millis() / 500;
                if bin != last_bin {
                    last_bin = bin;
                    coverage.borrow_mut().push(crate::records::CoverageSample {
                        t,
                        operator: op,
                        tech: snap.as_ref().map(|x| x.tech),
                        direction: slot.direction(),
                        miles: s.speed.as_mph() * (500.0 / 3_600_000.0),
                        speed_mph: s.speed.as_mph(),
                        tz: s.tz,
                        zone: s.zone,
                    });
                }
                if faults.blocking_at(t).is_some() {
                    return None;
                }
                let snap = snap?;
                Some(LinkState {
                    dl: snap.dl_rate * APP_TCP_EFF,
                    ul: snap.ul_rate * APP_TCP_EFF,
                    rtt_ms: measure::base_rtt_ms(&snap, &path),
                    in_handover: snap.in_handover,
                    on_high_speed_5g: snap.tech.is_high_speed(),
                })
            };
            f(&mut sampler)
        };
        let mut rows = coverage.into_inner();
        let before = rows.len();
        if !self.faults.is_empty() {
            let faults = &self.faults;
            rows.retain(|c| !faults.in_gap(c.t));
        }
        let kept = rows.len();
        self.ds.coverage.extend(rows);
        (r, kept, before - kept)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn small_campaign() -> &'static (Campaign, Dataset) {
        static C: OnceLock<(Campaign, Dataset)> = OnceLock::new();
        C.get_or_init(|| {
            let c = Campaign::standard(2022);
            let cfg = CampaignConfig {
                max_cycles: Some(4),
                include_apps: true,
                include_static: false,
                start_at_sample: 30_000,
                ..CampaignConfig::default()
            };
            let ds = c.run(&cfg);
            (c, ds)
        })
    }

    #[test]
    fn all_three_operators_produce_data() {
        let (_, ds) = small_campaign();
        for op in Operator::ALL {
            let n = ds.tput_where(Some(op), None, Some(true)).count();
            assert!(n > 50, "{op:?}: {n} tput samples");
            assert!(
                ds.rtt.iter().any(|r| r.operator == op),
                "{op:?}: no rtt samples"
            );
        }
    }

    #[test]
    fn operators_share_the_clock() {
        // Concurrent measurement: the three operators' first driving DL
        // tests start at the same sim time (Fig. 6 requires this).
        let (_, ds) = small_campaign();
        let starts: Vec<SimTime> = Operator::ALL
            .iter()
            .map(|op| {
                ds.runs
                    .iter()
                    .filter(|r| r.operator == *op && r.kind == TestKind::DownlinkTput)
                    .map(|r| r.start)
                    .min()
                    .unwrap()
            })
            .collect();
        assert_eq!(starts[0], starts[1]);
        assert_eq!(starts[1], starts[2]);
    }

    #[test]
    fn cycle_produces_all_test_kinds() {
        let (_, ds) = small_campaign();
        for kind in [
            TestKind::DownlinkTput,
            TestKind::UplinkTput,
            TestKind::Rtt,
            TestKind::Ar,
            TestKind::Cav,
            TestKind::Video,
            TestKind::Gaming,
        ] {
            assert!(
                ds.runs.iter().any(|r| r.kind == kind),
                "missing {kind:?} runs"
            );
        }
        // AR and CAV each ran compressed and raw.
        let ar_runs: Vec<_> = ds.apps.iter().filter(|a| a.kind == TestKind::Ar).collect();
        assert!(ar_runs
            .iter()
            .any(|a| a.offload.as_ref().unwrap().compressed));
        assert!(ar_runs
            .iter()
            .any(|a| !a.offload.as_ref().unwrap().compressed));
    }

    #[test]
    fn accounting_totals_populated() {
        let (_, ds) = small_campaign();
        assert!(ds.rx_bytes > 1e6, "rx {}", ds.rx_bytes);
        assert!(ds.tx_bytes > 1e5, "tx {}", ds.tx_bytes);
        assert!(ds.log_bytes > 0.0);
        assert_eq!(ds.unique_cells.len(), 3);
        assert_eq!(ds.runtime_min.len(), 3);
        for (_, mins) in &ds.runtime_min {
            assert!(*mins > 10.0, "runtime {mins} min");
        }
    }

    #[test]
    fn driving_tput_mostly_below_static_peaks() {
        let (_, ds) = small_campaign();
        let driving: Vec<f64> = ds
            .tput_where(None, Some(Direction::Downlink), Some(true))
            .map(|s| s.mbps)
            .collect();
        let med = wheels_sim_core::stats::Cdf::from_samples(driving.iter().copied())
            .median()
            .unwrap();
        assert!(med < 200.0, "driving DL median {med}");
    }

    #[test]
    fn handovers_are_tagged_with_tests() {
        let (_, ds) = small_campaign();
        // At least some handovers happened over 4 cycles × 3 operators.
        assert!(!ds.handovers.is_empty(), "no handovers at all");
        assert!(
            ds.handovers.iter().any(|h| h.test_id.is_some()),
            "no handover attributed to a test"
        );
    }

    #[test]
    fn test_ids_unique_across_operators() {
        let (_, ds) = small_campaign();
        let mut ids: Vec<u32> = ds.runs.iter().map(|r| r.id).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    #[test]
    fn checkpointed_run_matches_plain_run_and_resumes_complete_journals() {
        let c = Campaign::standard(7);
        let cfg = CampaignConfig {
            max_cycles: Some(2),
            include_apps: false,
            include_static: false,
            cycle_stride_s: 40_000,
            shard_cycles: Some(1),
            ..CampaignConfig::default()
        };
        let dir = std::env::temp_dir()
            .join("wheels-checkpoint-tests")
            .join("campaign_roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let baseline = c.run(&cfg);
        assert!(baseline.is_normalized(), "streamed output is canonical");
        let fresh = c
            .run_checkpointed(&cfg, &dir, false)
            .unwrap()
            .into_dataset();
        assert_eq!(
            serde_json::to_string(&fresh).unwrap(),
            serde_json::to_string(&baseline).unwrap()
        );
        // Every shard is journalled: a resume replays all of them and
        // must reproduce the same bytes without re-simulating anything.
        let resumed = c.run_checkpointed(&cfg, &dir, true).unwrap().into_dataset();
        assert_eq!(
            serde_json::to_string(&resumed).unwrap(),
            serde_json::to_string(&baseline).unwrap()
        );
        // A different seed must be refused, not merged.
        let other = CampaignConfig {
            seed: cfg.seed + 1,
            ..cfg.clone()
        };
        match c.run_checkpointed(&other, &dir, true) {
            Err(CheckpointError::Mismatch(d)) => assert!(d.contains("seed"), "{d}"),
            other => panic!("expected Mismatch, got {other:?}"),
        }
    }

    #[test]
    fn observed_runs_count_shards_and_conserve_the_audit_ledger() {
        let c = Campaign::standard(7);
        let cfg = CampaignConfig {
            max_cycles: Some(2),
            include_apps: false,
            include_static: false,
            cycle_stride_s: 40_000,
            shard_cycles: Some(1),
            faults: FaultConfig::demo(),
            ..CampaignConfig::default()
        };
        let dir = std::env::temp_dir()
            .join("wheels-checkpoint-tests")
            .join("campaign_observed");
        let _ = std::fs::remove_dir_all(&dir);
        let jobs = c.plan(&cfg).len() as u64;

        let fresh = CampaignMetrics::default();
        let ds = c
            .run_checkpointed_observed(&cfg, &dir, false, &fresh)
            .unwrap();
        assert_eq!(fresh.shards_completed.get(), jobs);
        assert_eq!(fresh.shards_replayed.get(), 0);
        assert_eq!(fresh.journal.frames_appended.get(), jobs);
        assert!(fresh.journal.bytes_appended.get() > 0);
        let audits = ds.dataset().audits.len() as u64;
        assert_eq!(
            fresh.tests_completed.get() + fresh.tests_partial.get() + fresh.tests_lost.get(),
            audits,
            "every ledger row lands in exactly one status counter"
        );
        assert!(
            fresh.conservation_holds(),
            "recorded {} + lost {} != planned {}",
            fresh.samples_recorded.get(),
            fresh.samples_lost.get(),
            fresh.samples_planned.get()
        );

        // A full-journal resume replays everything and appends nothing.
        let resumed = CampaignMetrics::default();
        c.run_checkpointed_observed(&cfg, &dir, true, &resumed)
            .unwrap();
        assert_eq!(resumed.shards_replayed.get(), jobs);
        assert_eq!(resumed.shards_completed.get(), 0);
        assert_eq!(resumed.journal.frames_appended.get(), 0);
        assert!(resumed.conservation_holds(), "vacuous on a full replay");
    }

    #[test]
    fn static_stops_produce_baselines() {
        // A tiny campaign with static probes only.
        let c = Campaign::standard(2022);
        let cfg = CampaignConfig {
            max_cycles: Some(0),
            include_apps: false,
            include_static: true,
            ..CampaignConfig::default()
        };
        let ds = c.run_operator(Operator::Verizon, &cfg);
        let static_runs = ds.runs.iter().filter(|r| !r.driving).count();
        assert!(static_runs >= 9, "static runs {static_runs}");
        assert!(ds.tput.iter().any(|s| !s.driving));
    }
}
