//! The consolidated database.
//!
//! Everything the analysis needs, in flat typed tables. This is the
//! synthetic equivalent of the paper's "consolidated database, which
//! includes both the XCAL and the app layer data" (§3).

use std::cmp::Ordering;

use crate::disrupt::FaultKind;
use serde::{Deserialize, Serialize};
use wheels_apps::arcav::OffloadStats;
use wheels_apps::gaming::GamingStats;
use wheels_apps::video::VideoStats;
use wheels_geo::route::ZoneClass;
use wheels_radio::tech::{Direction, Technology};
use wheels_ran::cells::CellId;
use wheels_ran::operator::Operator;
use wheels_ran::session::HandoverEvent;
use wheels_sim_core::time::{SimTime, Timezone};
use wheels_transport::servers::ServerKind;

/// The kind of test a record came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TestKind {
    /// Backlogged TCP downlink (nuttcp).
    DownlinkTput,
    /// Backlogged TCP uplink (nuttcp).
    UplinkTput,
    /// ICMP RTT test.
    Rtt,
    /// AR offload run.
    Ar,
    /// CAV offload run.
    Cav,
    /// 360° video session.
    Video,
    /// Cloud gaming session.
    Gaming,
}

impl TestKind {
    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            TestKind::DownlinkTput => "tput-dl",
            TestKind::UplinkTput => "tput-ul",
            TestKind::Rtt => "rtt",
            TestKind::Ar => "ar",
            TestKind::Cav => "cav",
            TestKind::Video => "video",
            TestKind::Gaming => "gaming",
        }
    }
}

/// One 500 ms application-layer throughput sample joined with its KPIs —
/// the row type behind Figs. 3–10 and Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TputSample {
    /// Sample time (start of the 500 ms bin).
    pub t: SimTime,
    /// Test id this sample belongs to.
    pub test_id: u32,
    /// Operator.
    pub operator: Operator,
    /// Traffic direction.
    pub direction: Direction,
    /// Application-layer goodput (Mbps) over the bin.
    pub mbps: f64,
    /// Serving technology during the bin.
    pub tech: Technology,
    /// Serving cell id.
    pub cell: u32,
    /// Vehicle speed (mph).
    pub speed_mph: f64,
    /// Road zone.
    pub zone: ZoneClass,
    /// Timezone.
    pub tz: Timezone,
    /// Edge or cloud server.
    pub server: ServerKind,
    /// Primary-cell RSRP (dBm).
    pub rsrp_dbm: f64,
    /// Primary-cell MCS.
    pub mcs: u8,
    /// Primary-cell BLER.
    pub bler: f64,
    /// Component carriers.
    pub carriers: u8,
    /// Handovers that *started* during this bin.
    pub handovers_in_bin: u8,
    /// True while driving (false = static baseline).
    pub driving: bool,
}

/// One RTT sample (Figs. 3, 4, 8, 9).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RttSample {
    /// Ping send time.
    pub t: SimTime,
    /// Test id.
    pub test_id: u32,
    /// Operator.
    pub operator: Operator,
    /// Measured RTT, `None` for lost pings.
    pub rtt_ms: Option<f64>,
    /// Serving technology at send time.
    pub tech: Technology,
    /// Vehicle speed (mph).
    pub speed_mph: f64,
    /// Timezone.
    pub tz: Timezone,
    /// Edge or cloud server.
    pub server: ServerKind,
    /// True while driving.
    pub driving: bool,
}

/// One coverage sample: 500 ms of connectivity weighted by miles driven —
/// the row type behind Figs. 1–2.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoverageSample {
    /// Sample time.
    pub t: SimTime,
    /// Operator.
    pub operator: Operator,
    /// Serving technology, `None` when out of service.
    pub tech: Option<Technology>,
    /// Direction of the test backlogging the network at this moment
    /// (`None` for ICMP-only periods).
    pub direction: Option<Direction>,
    /// Miles covered during this sample.
    pub miles: f64,
    /// Speed (mph).
    pub speed_mph: f64,
    /// Timezone.
    pub tz: Timezone,
    /// Zone class.
    pub zone: ZoneClass,
}

/// Per-test aggregate (Figs. 9–11).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TestRun {
    /// Unique test id (joins samples).
    pub id: u32,
    /// Test kind.
    pub kind: TestKind,
    /// Operator.
    pub operator: Operator,
    /// Start time.
    pub start: SimTime,
    /// End time.
    pub end: SimTime,
    /// Miles driven during the test.
    pub miles: f64,
    /// Timezone at start.
    pub tz: Timezone,
    /// Edge or cloud.
    pub server: ServerKind,
    /// Fraction of test time on high-speed 5G.
    pub hs5g_fraction: f64,
    /// Handovers during the test.
    pub handovers: u32,
    /// True while driving.
    pub driving: bool,
    /// True when the test was truncated by a disruption and salvaged:
    /// the run keeps its completed 500 ms samples but covers less than
    /// the scheduled window. Always `false` with faults off.
    pub partial: bool,
}

/// A handover event tagged with its operator and test.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaggedHandover {
    /// The event.
    pub event: HandoverEvent,
    /// Operator.
    pub operator: Operator,
    /// Test during which it happened (if any).
    pub test_id: Option<u32>,
    /// Direction of the backlogged traffic at the time (if any).
    pub direction: Option<Direction>,
}

/// One application run's metrics (§7 figures).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppRun {
    /// Test id.
    pub id: u32,
    /// Operator.
    pub operator: Operator,
    /// Which app.
    pub kind: TestKind,
    /// Edge or cloud server.
    pub server: ServerKind,
    /// True while driving.
    pub driving: bool,
    /// AR/CAV runs (with/without compression pairs are separate runs).
    pub offload: Option<OffloadStats>,
    /// Video session stats.
    pub video: Option<VideoStats>,
    /// Gaming session stats.
    pub gaming: Option<GamingStats>,
}

/// Outcome of one scheduled drive test, for the data-quality ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TestStatus {
    /// Every planned sample was recorded.
    Completed,
    /// The test ran but lost samples to a disruption (salvaged).
    Partial,
    /// The test never produced data (retries exhausted or window gone).
    Lost,
}

impl TestStatus {
    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            TestStatus::Completed => "completed",
            TestStatus::Partial => "partial",
            TestStatus::Lost => "lost",
        }
    }
}

/// One row of the disruption ledger: what a scheduled drive test was
/// supposed to record vs what survived. With faults off, every audit is
/// `Completed` with one attempt and zero loss; the quality report
/// aggregates these per operator × day.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TestAudit {
    /// Test id (allocated even when the test is lost, so the slot plan
    /// stays identical with faults on or off).
    pub test_id: u32,
    /// Operator.
    pub operator: Operator,
    /// Test kind.
    pub kind: TestKind,
    /// 0-based trip day the test was scheduled on.
    pub day: u8,
    /// Originally scheduled start (before any retry backoff).
    pub scheduled: SimTime,
    /// Outcome.
    pub status: TestStatus,
    /// Attempts made (1 = no retry).
    pub attempts: u32,
    /// First disruption that interfered, if any.
    pub fault: Option<FaultKind>,
    /// Samples the fault-free schedule would have recorded in this slot
    /// (a pure function of trace and config, so it is identical with
    /// faults on or off).
    pub planned_samples: u32,
    /// Samples actually recorded.
    pub recorded_samples: u32,
    /// `planned_samples - recorded_samples`.
    pub lost_samples: u32,
}

/// Totals over a set of [`TestAudit`] rows: the one tally of the
/// disruption ledger, shared by the quality report and the soak.
/// `lost_samples` counts `planned - recorded` per row (saturating),
/// which equals the row's own `lost_samples` on every row the campaign
/// writes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuditTally {
    /// Tests scheduled (every audit, whatever its outcome).
    pub attempted: u64,
    /// Tests that recorded every planned sample.
    pub completed: u64,
    /// Truncated tests salvaged with a partial sample set.
    pub partial: u64,
    /// Tests that needed more than one attempt (any outcome).
    pub retried: u64,
    /// Tests that recorded nothing.
    pub lost: u64,
    /// Samples the fault-free schedule would have recorded.
    pub planned_samples: u64,
    /// Samples actually recorded.
    pub recorded_samples: u64,
    /// Samples lost to disruptions.
    pub lost_samples: u64,
}

impl AuditTally {
    /// Count one ledger row.
    pub fn add(&mut self, a: &TestAudit) {
        self.attempted += 1;
        match a.status {
            TestStatus::Completed => self.completed += 1,
            TestStatus::Partial => self.partial += 1,
            TestStatus::Lost => self.lost += 1,
        }
        if a.attempts > 1 {
            self.retried += 1;
        }
        self.planned_samples += u64::from(a.planned_samples);
        self.recorded_samples += u64::from(a.recorded_samples);
        self.lost_samples += u64::from(a.planned_samples.saturating_sub(a.recorded_samples));
    }

    /// The tally of `rows`.
    pub fn of<'a>(rows: impl IntoIterator<Item = &'a TestAudit>) -> AuditTally {
        let mut t = AuditTally::default();
        for a in rows {
            t.add(a);
        }
        t
    }
}

/// The full consolidated dataset of one campaign.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    /// 500 ms throughput samples.
    pub tput: Vec<TputSample>,
    /// RTT samples.
    pub rtt: Vec<RttSample>,
    /// Coverage samples (active tests).
    pub coverage: Vec<CoverageSample>,
    /// Per-test aggregates.
    pub runs: Vec<TestRun>,
    /// All handovers observed during tests.
    pub handovers: Vec<TaggedHandover>,
    /// Application runs.
    pub apps: Vec<AppRun>,
    /// Disruption ledger: one row per scheduled drive test.
    pub audits: Vec<TestAudit>,
    /// Total bytes received over cellular (Table 1).
    pub rx_bytes: f64,
    /// Total bytes transmitted over cellular (Table 1).
    pub tx_bytes: f64,
    /// Synthetic XCAL log volume in bytes (Table 1).
    pub log_bytes: f64,
    /// Per-operator unique cells connected (Table 1).
    pub unique_cells: Vec<(Operator, usize)>,
    /// Per-operator cumulative experiment runtime in minutes (Table 1).
    pub runtime_min: Vec<(Operator, f64)>,
}

/// Everything one completed campaign shard contributes to the merged
/// dataset — the payload of one checkpoint-journal frame. The served-cell
/// set travels as a sorted `Vec` (the canonical order of the engine's
/// `BTreeSet`) so the frame encoding is order-stable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardRecords {
    /// The shard's index in the campaign's shard plan.
    pub job: usize,
    /// Operator the shard simulated.
    pub operator: Operator,
    /// The shard's slice of the dataset, incl. its `TestAudit` ledger
    /// rows. The campaign normalizes it before hand-off; ingest re-sorts
    /// one that arrives out of order.
    pub dataset: Dataset,
    /// Cells served during the shard, ascending.
    pub cells: Vec<wheels_ran::cells::CellId>,
}

/// Merge a sorted run `src` into the sorted `dst`, keyed by `key`, with
/// `dst`'s elements winning ties. This is exactly the permutation a
/// stable sort of `dst ++ src` would produce, so repeatedly merging
/// shard runs, in any order (their keys never collide), reproduces the
/// concatenate-then-`normalize` bytes without the terminal sort.
/// Everything in `dst` keyed at or below the run's first key stays put
/// and only the tail is merged; a run that sorts entirely after `dst`
/// (the common in-order arrival) is a plain `extend`.
/// [`Dataset::merge_normalized`] and the view's small tables and
/// position indexes all splice through it.
pub(crate) fn merge_sorted_by_key<T, K: Ord>(dst: &mut Vec<T>, src: Vec<T>, key: impl Fn(&T) -> K) {
    let Some(first) = src.first().map(&key) else {
        return;
    };
    if dst.last().is_none_or(|d| key(d) <= first) {
        dst.extend(src);
        return;
    }
    let tail = dst.split_off(dst.partition_point(|d| key(d) <= first));
    dst.reserve(tail.len() + src.len());
    let (mut a, mut b) = (tail.into_iter().peekable(), src.into_iter().peekable());
    while let (Some(x), Some(y)) = (a.peek(), b.peek()) {
        let next = if key(x) <= key(y) { a.next() } else { b.next() };
        dst.extend(next);
    }
    dst.extend(a);
    dst.extend(b);
}

/// K-way merge of runs, each ascending by `cmp`, into one ascending
/// vector. On ties the earlier run goes first, so the result is exactly
/// a stable sort of the runs' concatenation.
pub(crate) fn merge_runs<T: Copy>(runs: &[&[T]], cmp: impl Fn(&T, &T) -> Ordering) -> Vec<T> {
    let mut out = Vec::with_capacity(runs.iter().map(|r| r.len()).sum());
    let mut cursors = vec![0usize; runs.len()];
    loop {
        let mut best: Option<(usize, &T)> = None;
        for (i, run) in runs.iter().enumerate() {
            let Some(x) = run.get(cursors[i]) else {
                continue;
            };
            if best.is_none_or(|(_, b)| cmp(x, b).is_lt()) {
                best = Some((i, x));
            }
        }
        let Some((i, &x)) = best else {
            return out;
        };
        out.push(x);
        cursors[i] += 1;
    }
}

// The canonical order, one sort key per table: `normalize` sorts by
// these, and every run merge (the campaign drain, the view splice) and
// order check reads them from here.

pub(crate) fn tput_key(s: &TputSample) -> (u64, u32) {
    (s.t.as_millis(), s.test_id)
}

pub(crate) fn rtt_key(s: &RttSample) -> (u64, u32) {
    (s.t.as_millis(), s.test_id)
}

pub(crate) fn coverage_key(s: &CoverageSample) -> (u64, usize) {
    (s.t.as_millis(), s.operator.index())
}

pub(crate) fn run_key(r: &TestRun) -> (u64, u32) {
    (r.start.as_millis(), r.id)
}

pub(crate) fn handover_key(h: &TaggedHandover) -> (u64, usize, CellId) {
    (
        h.event.start.as_millis(),
        h.operator.index(),
        h.event.to_cell,
    )
}

pub(crate) fn app_key(a: &AppRun) -> u32 {
    a.id
}

pub(crate) fn audit_key(a: &TestAudit) -> (u64, u32) {
    (a.scheduled.as_millis(), a.test_id)
}

/// Key of the per-operator aggregate tables (`unique_cells`,
/// `runtime_min`).
fn operator_key<T>(row: &(Operator, T)) -> usize {
    row.0.index()
}

/// True when `v` is sorted (non-strictly) by `key`.
fn sorted_by_key<T, K: Ord>(v: &[T], key: impl Fn(&T) -> K) -> bool {
    v.windows(2).all(|w| key(&w[0]) <= key(&w[1]))
}

impl Dataset {
    /// Merge another dataset (used to combine per-operator shards).
    pub fn merge(&mut self, other: Dataset) {
        self.tput.extend(other.tput);
        self.rtt.extend(other.rtt);
        self.coverage.extend(other.coverage);
        self.runs.extend(other.runs);
        self.handovers.extend(other.handovers);
        self.apps.extend(other.apps);
        self.audits.extend(other.audits);
        self.rx_bytes += other.rx_bytes;
        self.tx_bytes += other.tx_bytes;
        self.log_bytes += other.log_bytes;
        self.unique_cells.extend(other.unique_cells);
        self.runtime_min.extend(other.runtime_min);
    }

    /// Bring every table into a canonical order so the dataset is
    /// independent of the order its shards were merged in. All sorts are
    /// stable and keyed on values that are themselves deterministic
    /// (times, test ids, operators).
    pub fn normalize(&mut self) {
        self.tput.sort_by_key(tput_key);
        self.rtt.sort_by_key(rtt_key);
        self.coverage.sort_by_key(coverage_key);
        self.runs.sort_by_key(run_key);
        self.handovers.sort_by_key(handover_key);
        self.apps.sort_by_key(app_key);
        self.audits.sort_by_key(audit_key);
        self.unique_cells.sort_by_key(operator_key);
        self.runtime_min.sort_by_key(operator_key);
    }

    /// Merge another **normalized** dataset into this **normalized**
    /// one while keeping every table in canonical order. Equivalent to
    /// [`Dataset::merge`] followed by [`Dataset::normalize`] — the run
    /// merge keeps `self`'s rows first on ties, exactly like the stable
    /// sort — but costs one linear pass per table instead of a full
    /// re-sort. `Campaign::run_operator` folds its shards with it.
    pub fn merge_normalized(&mut self, other: Dataset) {
        merge_sorted_by_key(&mut self.tput, other.tput, tput_key);
        merge_sorted_by_key(&mut self.rtt, other.rtt, rtt_key);
        merge_sorted_by_key(&mut self.coverage, other.coverage, coverage_key);
        merge_sorted_by_key(&mut self.runs, other.runs, run_key);
        merge_sorted_by_key(&mut self.handovers, other.handovers, handover_key);
        merge_sorted_by_key(&mut self.apps, other.apps, app_key);
        merge_sorted_by_key(&mut self.audits, other.audits, audit_key);
        self.rx_bytes += other.rx_bytes;
        self.tx_bytes += other.tx_bytes;
        self.log_bytes += other.log_bytes;
        merge_sorted_by_key(&mut self.unique_cells, other.unique_cells, operator_key);
        merge_sorted_by_key(&mut self.runtime_min, other.runtime_min, operator_key);
    }

    /// True when every table is already in [`Dataset::normalize`]'s
    /// canonical order (so `normalize` would be a no-op permutation).
    pub fn is_normalized(&self) -> bool {
        sorted_by_key(&self.tput, tput_key)
            && sorted_by_key(&self.rtt, rtt_key)
            && sorted_by_key(&self.coverage, coverage_key)
            && sorted_by_key(&self.runs, run_key)
            && sorted_by_key(&self.handovers, handover_key)
            && sorted_by_key(&self.apps, app_key)
            && sorted_by_key(&self.audits, audit_key)
            && sorted_by_key(&self.unique_cells, operator_key)
            && sorted_by_key(&self.runtime_min, operator_key)
    }

    /// Throughput samples filtered the way most figures need.
    pub fn tput_where(
        &self,
        operator: Option<Operator>,
        direction: Option<Direction>,
        driving: Option<bool>,
    ) -> impl Iterator<Item = &TputSample> {
        self.tput.iter().filter(move |s| {
            operator.is_none_or(|o| s.operator == o)
                && direction.is_none_or(|d| s.direction == d)
                && driving.is_none_or(|dr| s.driving == dr)
        })
    }

    /// Valid (non-lost) RTT values matching the filters.
    pub fn rtt_where(
        &self,
        operator: Option<Operator>,
        driving: Option<bool>,
    ) -> impl Iterator<Item = f64> + '_ {
        self.rtt.iter().filter_map(move |s| {
            if operator.is_none_or(|o| s.operator == o) && driving.is_none_or(|dr| s.driving == dr)
            {
                s.rtt_ms
            } else {
                None
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Tag each key with a distinct id and sort stably by key, so a
    /// comparison also sees which of two equal keys came first.
    fn sorted_run(keys: Vec<u8>, first_tag: u32) -> Vec<(u8, u32)> {
        let mut run: Vec<(u8, u32)> = keys.into_iter().zip(first_tag..).collect();
        run.sort_by_key(|e| e.0);
        run
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Keys in 0..4 tie heavily and either side may be empty. With
        /// `after`, `src` starts at `dst`'s top key (a tie) and takes
        /// the append path; otherwise it usually splices mid-`dst`.
        #[test]
        fn splice_equals_stable_sort_of_concatenation(
            dst in prop::collection::vec(0u8..4, 0..12),
            src in prop::collection::vec(0u8..4, 0..12),
            after in any::<bool>(),
        ) {
            let dst = sorted_run(dst, 0);
            let lift = if after { dst.last().map_or(0, |e| e.0) } else { 0 };
            let src = sorted_run(src.into_iter().map(|k| k + lift).collect(), 100);
            let mut want = [dst.clone(), src.clone()].concat();
            want.sort_by_key(|e| e.0);
            let mut got = dst;
            merge_sorted_by_key(&mut got, src, |e| e.0);
            prop_assert_eq!(got, want);
        }

        #[test]
        fn kway_merge_of_values_equals_stable_sort(
            runs in prop::collection::vec(prop::collection::vec(0usize..5, 0..8), 0..5),
        ) {
            const VALUES: [f64; 5] = [-2.5, -0.0, 0.0, 1.0, 1e9];
            let runs: Vec<Vec<f64>> = runs
                .into_iter()
                .map(|run| {
                    let mut v: Vec<f64> = run.into_iter().map(|i| VALUES[i]).collect();
                    v.sort_by(f64::total_cmp);
                    v
                })
                .collect();
            let slices: Vec<&[f64]> = runs.iter().map(Vec::as_slice).collect();
            let mut want = runs.concat();
            want.sort_by(f64::total_cmp);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&merge_runs(&slices, f64::total_cmp)), bits(&want));
        }

        /// Positions keyed by `p % 4` tie on key across and within runs:
        /// by key alone the earlier run must win, and with the position
        /// tie-break the merge is the total (key, position) order.
        #[test]
        fn kway_merge_of_positions_equals_stable_sort(
            runs in prop::collection::vec(prop::collection::vec(0u32..32, 0..8), 0..5),
        ) {
            let key = |p: &u32| p % 4;
            let runs: Vec<Vec<u32>> = runs
                .into_iter()
                .map(|mut run| {
                    run.sort_by_key(|p| (key(p), *p));
                    run
                })
                .collect();
            let slices: Vec<&[u32]> = runs.iter().map(Vec::as_slice).collect();
            let mut want = runs.concat();
            want.sort_by_key(key);
            prop_assert_eq!(merge_runs(&slices, |a, b| key(a).cmp(&key(b))), want.clone());
            want.sort_by_key(|p| (key(p), *p));
            prop_assert_eq!(merge_runs(&slices, |a, b| (key(a), a).cmp(&(key(b), b))), want);
        }
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Dataset {
            rx_bytes: 10.0,
            ..Default::default()
        };
        let b = Dataset {
            rx_bytes: 5.0,
            unique_cells: vec![(Operator::Att, 3)],
            ..Default::default()
        };
        a.merge(b);
        assert_eq!(a.rx_bytes, 15.0);
        assert_eq!(a.unique_cells.len(), 1);
    }

    #[test]
    fn filters_work() {
        let mut d = Dataset::default();
        let mk = |op, dir, driving, mbps| TputSample {
            t: SimTime::EPOCH,
            test_id: 0,
            operator: op,
            direction: dir,
            mbps,
            tech: Technology::Lte,
            cell: 1,
            speed_mph: 60.0,
            zone: ZoneClass::Highway,
            tz: Timezone::Central,
            server: ServerKind::Cloud,
            rsrp_dbm: -100.0,
            mcs: 10,
            bler: 0.1,
            carriers: 1,
            handovers_in_bin: 0,
            driving,
        };
        d.tput
            .push(mk(Operator::Verizon, Direction::Downlink, true, 50.0));
        d.tput
            .push(mk(Operator::Verizon, Direction::Uplink, true, 5.0));
        d.tput
            .push(mk(Operator::Att, Direction::Downlink, false, 700.0));
        assert_eq!(d.tput_where(Some(Operator::Verizon), None, None).count(), 2);
        assert_eq!(
            d.tput_where(None, Some(Direction::Downlink), Some(true))
                .count(),
            1
        );
        d.rtt.push(RttSample {
            t: SimTime::EPOCH,
            test_id: 1,
            operator: Operator::Verizon,
            rtt_ms: Some(64.0),
            tech: Technology::LteA,
            speed_mph: 60.0,
            tz: Timezone::Central,
            server: ServerKind::Cloud,
            driving: true,
        });
        d.rtt.push(RttSample {
            t: SimTime::EPOCH,
            test_id: 1,
            operator: Operator::Verizon,
            rtt_ms: None,
            tech: Technology::LteA,
            speed_mph: 60.0,
            tz: Timezone::Central,
            server: ServerKind::Cloud,
            driving: true,
        });
        let vals: Vec<f64> = d.rtt_where(Some(Operator::Verizon), Some(true)).collect();
        assert_eq!(vals, vec![64.0]);
    }

    #[test]
    fn merge_normalized_matches_merge_then_normalize() {
        let mk = |t_ms: u64, id: u32| RttSample {
            t: SimTime(t_ms),
            test_id: id,
            operator: Operator::Verizon,
            rtt_ms: Some(40.0),
            tech: Technology::Lte,
            speed_mph: 60.0,
            tz: Timezone::Central,
            server: ServerKind::Cloud,
            driving: true,
        };
        let mut a = Dataset {
            rtt: vec![mk(0, 1), mk(500, 1), mk(2_000, 7)],
            rx_bytes: 3.0,
            ..Default::default()
        };
        let b = Dataset {
            rtt: vec![mk(500, 1), mk(500, 2), mk(9_000, 3)],
            rx_bytes: 4.0,
            ..Default::default()
        };
        assert!(a.is_normalized() && b.is_normalized());
        let mut plain = a.clone();
        plain.merge(b.clone());
        plain.normalize();
        a.merge_normalized(b);
        assert_eq!(a, plain);
        assert!(a.is_normalized());
        assert_eq!(a.rx_bytes, 7.0);
    }

    #[test]
    fn audit_tally_conserves_and_matches_a_hand_fold() {
        use crate::campaign::{Campaign, CampaignConfig};
        use crate::disrupt::FaultConfig;
        // The Quick scale with the demo disruption mix: every status,
        // retries and sample loss all occur.
        let cfg = CampaignConfig {
            cycle_stride_s: 6000,
            faults: FaultConfig::demo(),
            ..CampaignConfig::default()
        };
        let audits = Campaign::standard(2022).run(&cfg).audits;
        let t = AuditTally::of(&audits);
        let rows = audits.len() as u64;
        assert_eq!(t.completed + t.partial + t.lost, t.attempted);
        assert_eq!(t.attempted, rows);
        assert_eq!(t.recorded_samples + t.lost_samples, t.planned_samples);
        assert!(t.partial > 0 && t.lost > 0 && t.retried > 0, "{t:?}");

        let count = |f: &dyn Fn(&TestAudit) -> bool| audits.iter().filter(|a| f(a)).count() as u64;
        let sum = |f: &dyn Fn(&TestAudit) -> u32| audits.iter().map(|a| u64::from(f(a))).sum();
        let hand = AuditTally {
            attempted: rows,
            completed: count(&|a| a.status == TestStatus::Completed),
            partial: count(&|a| a.status == TestStatus::Partial),
            retried: count(&|a| a.attempts > 1),
            lost: count(&|a| a.status == TestStatus::Lost),
            planned_samples: sum(&|a| a.planned_samples),
            recorded_samples: sum(&|a| a.recorded_samples),
            lost_samples: sum(&|a| a.lost_samples),
        };
        assert_eq!(t, hand);
    }

    #[test]
    fn serde_roundtrip() {
        let d = Dataset::default();
        let s = serde_json::to_string(&d).unwrap();
        let back: Dataset = serde_json::from_str(&s).unwrap();
        assert_eq!(back.tput.len(), 0);
    }
}
