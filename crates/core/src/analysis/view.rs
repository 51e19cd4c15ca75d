//! Indexed, memoized views over a normalized [`Dataset`].
//!
//! Every figure module filters the same flat tables by the same handful
//! of dimensions (operator × direction × driving, then technology /
//! timezone / speed bin below that) and then sorts the surviving samples
//! into a fresh [`Cdf`]. On a Standard/Full campaign that is dozens of
//! full-table scans and re-sorts per `repro` run. A [`DatasetView`] is
//! built once per world: it partitions each table by those dimensions
//! into permutation indices (positions into the owned tables, ascending,
//! so iteration order is exactly the order a linear `*_where` scan would
//! visit), and memoizes per-query sorted-sample [`Cdf`]s so quantile and
//! summary queries are O(1) after a single shared sort.
//!
//! Figure values are unchanged: the view yields the same samples in the
//! same order as [`Dataset::tput_where`]/[`Dataset::rtt_where`] on the
//! normalized dataset, and the memoized Cdfs hold the identical sorted
//! multiset `Cdf::from_samples` would produce (a property test in
//! `crates/core/tests/view_properties.rs` pins both claims against the
//! brute-force filters on shuffled inserts).
//!
//! The view is `Sync` (plain tables plus `OnceLock` memo slots), so one
//! instance can back the parallel experiment runner without locking.
//!
//! # Incremental ingest
//!
//! [`DatasetView::ingest_shard`] folds one completed campaign shard
//! into a live view without a rebuild: the big sample tables (tput,
//! rtt, coverage) are *appended* to the raw storage and every affected
//! permutation index is extended by a binary-splice merge of the
//! shard's pre-sorted position run — so the raw tables end up in
//! arrival order while every indexed accessor keeps yielding canonical
//! `normalize` order, and `OnceLock` memos are re-armed only for the
//! partitions and combos the shard actually touched. The small tables
//! (runs, handovers, apps, audits) stay *physically* canonical (the
//! handover-impact kernel and the figure code iterate them raw), which
//! is cheap because they are thousands of times smaller than the
//! sample tables. [`DatasetView::from_journal`] replays a checkpoint
//! journal frame-by-frame through the same path, so `run_checkpointed`,
//! `--resume`, and a future `wheels-serve` share one pipeline.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::OnceLock;

use wheels_radio::tech::{Direction, Technology};
use wheels_ran::cells::CellId;
use wheels_ran::operator::Operator;
use wheels_sim_core::stats::Cdf;
use wheels_sim_core::time::Timezone;
use wheels_sim_core::units::{Speed, SpeedBin};

use crate::analysis::correlation::{self, CorrelationRow};
use crate::analysis::coverage::{self, TechShare};
use crate::analysis::handover::{self, HoImpact};
use crate::campaign::apply_table1_accounting;
use crate::checkpoint::{self, CheckpointError, Fingerprint, TailState};
use crate::records::{
    merge_sorted_by_key, CoverageSample, Dataset, RttSample, ShardRecords, TputSample,
};

const OPS: usize = Operator::ALL.len();
const DIRS: usize = Direction::ALL.len();
const TECHS: usize = Technology::ALL.len();
const TZS: usize = Timezone::ALL.len();
const BINS: usize = SpeedBin::ALL.len();

/// Fully-specified throughput partitions: operator × direction × driving.
const TPUT_PARTS: usize = OPS * DIRS * 2;
/// Throughput query combos including wildcard (`None`) dimensions.
const TPUT_COMBOS: usize = (OPS + 1) * (DIRS + 1) * 3;
/// Fully-specified RTT partitions: operator × driving.
const RTT_PARTS: usize = OPS * 2;
/// RTT query combos including wildcards.
const RTT_COMBOS: usize = (OPS + 1) * 3;

/// Index a table by a u32 position produced at view-build time.
#[inline]
pub(crate) fn at<T>(table: &[T], pos: u32) -> &T {
    // lint: allow(lossy-cast, u32 position to usize is widening on every supported target)
    &table[pos as usize]
}

fn dir_index(d: Direction) -> usize {
    match d {
        Direction::Downlink => 0,
        Direction::Uplink => 1,
    }
}

fn tz_index(tz: Timezone) -> usize {
    Timezone::ALL
        .iter()
        .position(|&t| t == tz)
        .expect("Timezone::ALL covers every variant")
}

fn bin_index(b: SpeedBin) -> usize {
    match b {
        SpeedBin::Low => 0,
        SpeedBin::Mid => 1,
        SpeedBin::High => 2,
    }
}

fn tpart(op: usize, dir: usize, driving: usize) -> usize {
    (op * DIRS + dir) * 2 + driving
}

fn rpart(op: usize, driving: usize) -> usize {
    op * 2 + driving
}

/// Combo slot for a (possibly wildcard) throughput query; wildcards take
/// the one-past-the-end index of their dimension.
fn tcombo(op: Option<Operator>, dir: Option<Direction>, driving: Option<bool>) -> usize {
    let o = op.map_or(OPS, Operator::index);
    let d = dir.map_or(DIRS, dir_index);
    let dr = driving.map_or(2, usize::from);
    (o * (DIRS + 1) + d) * 3 + dr
}

fn rcombo(op: Option<Operator>, driving: Option<bool>) -> usize {
    let o = op.map_or(OPS, Operator::index);
    let dr = driving.map_or(2, usize::from);
    o * 3 + dr
}

/// Partition ids whose (operator, direction, driving) match the filter.
fn tput_part_ids(
    op: Option<Operator>,
    dir: Option<Direction>,
    driving: Option<bool>,
) -> Vec<usize> {
    let mut out = Vec::new();
    for o in 0..OPS {
        if op.is_some_and(|x| x.index() != o) {
            continue;
        }
        for d in 0..DIRS {
            if dir.is_some_and(|x| dir_index(x) != d) {
                continue;
            }
            for dr in 0..2 {
                if driving.is_some_and(|x| usize::from(x) != dr) {
                    continue;
                }
                out.push(tpart(o, d, dr));
            }
        }
    }
    out
}

fn rtt_part_ids(op: Option<Operator>, driving: Option<bool>) -> Vec<usize> {
    let mut out = Vec::new();
    for o in 0..OPS {
        if op.is_some_and(|x| x.index() != o) {
            continue;
        }
        for dr in 0..2 {
            if driving.is_some_and(|x| usize::from(x) != dr) {
                continue;
            }
            out.push(rpart(o, dr));
        }
    }
    out
}

/// K-way merge of ascending (`f64::total_cmp`) runs into one ascending
/// vector — the identical sorted multiset a fresh sort would produce.
fn merge_sorted(runs: &[&[f64]]) -> Vec<f64> {
    let mut out = Vec::with_capacity(runs.iter().map(|r| r.len()).sum());
    let mut cursors = vec![0usize; runs.len()];
    loop {
        let mut best: Option<usize> = None;
        for (i, run) in runs.iter().enumerate() {
            let Some(&x) = run.get(cursors[i]) else {
                continue;
            };
            best = match best {
                Some(b) if runs[b][cursors[b]].total_cmp(&x).is_le() => Some(b),
                _ => Some(i),
            };
        }
        let Some(b) = best else { break };
        out.push(runs[b][cursors[b]]);
        cursors[b] += 1;
    }
    out
}

fn push_pos(list: &mut Vec<u32>, i: usize) {
    list.push(u32::try_from(i).expect("table exceeds u32 rows"));
}

/// Merge a canonical-key-ascending run of `new` positions into the
/// canonical-key-ascending index `idx`, existing entries first on ties
/// — exactly the permutation a stable re-sort of the whole partition
/// would produce. Binary splice: everything before the first affected
/// slot is untouched, only the tail is merged, and a shard whose keys
/// sort entirely after the index (the common in-order arrival) is a
/// plain `extend`.
fn merge_positions<K: Ord>(idx: &mut Vec<u32>, new: &[u32], key: impl Fn(u32) -> K) {
    if new.is_empty() {
        return;
    }
    let first = key(new[0]);
    if idx.last().is_none_or(|&l| key(l) <= first) {
        idx.extend_from_slice(new);
        return;
    }
    let lo = idx.partition_point(|&i| key(i) <= first);
    let tail = idx.split_off(lo);
    idx.reserve(tail.len() + new.len());
    let mut a = tail.into_iter().peekable();
    let mut b = new.iter().copied().peekable();
    while let (Some(&x), Some(&y)) = (a.peek(), b.peek()) {
        if key(x) <= key(y) {
            idx.push(x);
            a.next();
        } else {
            idx.push(y);
            b.next();
        }
    }
    idx.extend(a);
    idx.extend(b);
}

/// K-way merge of canonical-key-ascending position runs, ties broken by
/// position. On a canonically-ordered dataset (positions ascending with
/// the key) this reproduces the plain position sort the wildcard memos
/// used before incremental ingest existed; on an ingested view it keeps
/// the merged index in canonical key order even though raw positions
/// are arrival-ordered.
fn merge_indices<K: Ord>(runs: &[&[u32]], key: impl Fn(u32) -> K) -> Vec<u32> {
    let mut out = Vec::with_capacity(runs.iter().map(|r| r.len()).sum());
    let mut cursors = vec![0usize; runs.len()];
    loop {
        let mut best: Option<usize> = None;
        for (i, run) in runs.iter().enumerate() {
            let Some(&x) = run.get(cursors[i]) else {
                continue;
            };
            best = match best {
                Some(b) => {
                    let y = runs[b][cursors[b]];
                    if (key(y), y) <= (key(x), x) {
                        Some(b)
                    } else {
                        Some(i)
                    }
                }
                None => Some(i),
            };
        }
        let Some(b) = best else { break };
        out.push(runs[b][cursors[b]]);
        cursors[b] += 1;
    }
    out
}

#[derive(Default)]
struct TputPart {
    /// Positions into `Dataset::tput`, ascending.
    idx: Vec<u32>,
    by_tech: [Vec<u32>; TECHS],
    by_tz: [Vec<u32>; TZS],
    by_bin_tech: [[Vec<u32>; TECHS]; BINS],
    /// Finite `mbps` values of this partition, sorted ascending.
    sorted_mbps: OnceLock<Vec<f64>>,
}

impl TputPart {
    /// Gather this partition's finite `mbps` values and sort once,
    /// shared by every Cdf that merges it.
    fn sorted_mbps(&self, tput: &[TputSample]) -> &[f64] {
        self.sorted_mbps.get_or_init(|| {
            let mut v: Vec<f64> = self
                .idx
                .iter()
                .map(|&i| at(tput, i).mbps)
                .filter(|x| x.is_finite())
                .collect();
            v.sort_by(f64::total_cmp);
            v
        })
    }
}

#[derive(Default)]
struct RttPart {
    /// Positions into `Dataset::rtt` (lost pings included), ascending.
    idx: Vec<u32>,
    by_tech: [Vec<u32>; TECHS],
    by_bin_tech: [[Vec<u32>; TECHS]; BINS],
    /// Finite valid RTT values of this partition, sorted ascending.
    sorted_ms: OnceLock<Vec<f64>>,
}

impl RttPart {
    /// Gather this partition's finite valid RTT values and sort once.
    fn sorted_ms(&self, rtt: &[RttSample]) -> &[f64] {
        self.sorted_ms.get_or_init(|| {
            let mut v: Vec<f64> = self
                .idx
                .iter()
                .filter_map(|&i| at(rtt, i).rtt_ms)
                .filter(|x| x.is_finite())
                .collect();
            v.sort_by(f64::total_cmp);
            v
        })
    }
}

/// Append positions `base..` of `rows`, in row order, to the partition
/// lists and per-test groups each sample belongs to.
fn index_tput(
    parts: &mut [TputPart],
    by_test: &mut BTreeMap<u32, Vec<u32>>,
    rows: &[TputSample],
    base: usize,
) {
    for (j, s) in rows.iter().enumerate() {
        let i = base + j;
        let tech = s.tech.index();
        let p = &mut parts[tpart(
            s.operator.index(),
            dir_index(s.direction),
            usize::from(s.driving),
        )];
        push_pos(&mut p.idx, i);
        push_pos(&mut p.by_tech[tech], i);
        push_pos(&mut p.by_tz[tz_index(s.tz)], i);
        let b = bin_index(SpeedBin::of(Speed::from_mph(s.speed_mph)));
        push_pos(&mut p.by_bin_tech[b][tech], i);
        push_pos(by_test.entry(s.test_id).or_default(), i);
    }
}

/// RTT counterpart of [`index_tput`].
fn index_rtt(
    parts: &mut [RttPart],
    by_test: &mut BTreeMap<u32, Vec<u32>>,
    rows: &[RttSample],
    base: usize,
) {
    for (j, s) in rows.iter().enumerate() {
        let i = base + j;
        let tech = s.tech.index();
        let p = &mut parts[rpart(s.operator.index(), usize::from(s.driving))];
        push_pos(&mut p.idx, i);
        push_pos(&mut p.by_tech[tech], i);
        let b = bin_index(SpeedBin::of(Speed::from_mph(s.speed_mph)));
        push_pos(&mut p.by_bin_tech[b][tech], i);
        push_pos(by_test.entry(s.test_id).or_default(), i);
    }
}

/// Coverage counterpart of [`index_tput`]: one list per operator.
fn index_coverage(lists: &mut [Vec<u32>; OPS], rows: &[CoverageSample], base: usize) {
    for (j, s) in rows.iter().enumerate() {
        push_pos(&mut lists[s.operator.index()], base + j);
    }
}

/// Canonical ([`Dataset::normalize`]) sort key of a throughput position.
fn tput_key(tput: &[TputSample], i: u32) -> (u64, u32) {
    let s = at(tput, i);
    (s.t.as_millis(), s.test_id)
}

/// RTT counterpart of [`tput_key`].
fn rtt_key(rtt: &[RttSample], i: u32) -> (u64, u32) {
    let s = at(rtt, i);
    (s.t.as_millis(), s.test_id)
}

/// Indexed view over an owned, normalized [`Dataset`]. See the module
/// docs for the guarantees.
pub struct DatasetView {
    ds: Dataset,
    tput_parts: Vec<TputPart>,
    rtt_parts: Vec<RttPart>,
    cov_idx: [Vec<u32>; OPS],
    /// Per-test positions into `tput`, time-ascending (normalize sorts by
    /// `(t, test_id)` and a test's samples share one `test_id`).
    tput_by_test: BTreeMap<u32, Vec<u32>>,
    rtt_by_test: BTreeMap<u32, Vec<u32>>,
    /// Memoized merged indices for wildcard combos.
    tput_merged: [OnceLock<Vec<u32>>; TPUT_COMBOS],
    rtt_merged: [OnceLock<Vec<u32>>; RTT_COMBOS],
    /// Memoized per-combo Cdfs (throughput Mbps / valid RTT ms).
    tput_cdfs: [OnceLock<Cdf>; TPUT_COMBOS],
    rtt_cdfs: [OnceLock<Cdf>; RTT_COMBOS],
    /// Memoized handover impact rows (Fig. 12, findings).
    impacts: OnceLock<Vec<HoImpact>>,
    /// Per-operator served-cell unions accumulated by `ingest_shard`
    /// (`Operator::ALL` order). Finalized datasets store only counts,
    /// so the streaming path has to carry the sets itself to keep
    /// Table 1's unique-cell column from double counting.
    cell_sets: Vec<BTreeSet<CellId>>,
    /// Sum of the ingested shards' own `log_bytes` — the base the
    /// runtime-derived XCAL volume accumulates on top of (zero in
    /// practice; shards derive no log volume of their own).
    log_base: f64,
}

impl DatasetView {
    /// Normalize `ds` (idempotent) and build all eager indices. Lazy
    /// memos (sorted runs, merged combos, Cdfs, impacts) fill on first
    /// use.
    pub fn new(mut ds: Dataset) -> DatasetView {
        ds.normalize();
        let mut tput_parts: Vec<TputPart> = (0..TPUT_PARTS).map(|_| TputPart::default()).collect();
        let mut tput_by_test = BTreeMap::new();
        index_tput(&mut tput_parts, &mut tput_by_test, &ds.tput, 0);
        let mut rtt_parts: Vec<RttPart> = (0..RTT_PARTS).map(|_| RttPart::default()).collect();
        let mut rtt_by_test = BTreeMap::new();
        index_rtt(&mut rtt_parts, &mut rtt_by_test, &ds.rtt, 0);
        let mut cov_idx: [Vec<u32>; OPS] = Default::default();
        index_coverage(&mut cov_idx, &ds.coverage, 0);

        DatasetView {
            ds,
            tput_parts,
            rtt_parts,
            cov_idx,
            tput_by_test,
            rtt_by_test,
            tput_merged: std::array::from_fn(|_| OnceLock::new()),
            rtt_merged: std::array::from_fn(|_| OnceLock::new()),
            tput_cdfs: std::array::from_fn(|_| OnceLock::new()),
            rtt_cdfs: std::array::from_fn(|_| OnceLock::new()),
            impacts: OnceLock::new(),
            cell_sets: vec![BTreeSet::new(); OPS],
            log_base: 0.0,
        }
    }

    /// The owned, normalized dataset (for tables the view does not index:
    /// runs, handovers, apps, Table-1 aggregates).
    pub fn dataset(&self) -> &Dataset {
        &self.ds
    }

    /// Positions matching the filter, in dataset (time) order — the same
    /// visit order as a linear `tput_where` scan.
    fn tput_index(
        &self,
        op: Option<Operator>,
        dir: Option<Direction>,
        driving: Option<bool>,
    ) -> &[u32] {
        if let (Some(o), Some(d), Some(dr)) = (op, dir, driving) {
            return &self.tput_parts[tpart(o.index(), dir_index(d), usize::from(dr))].idx;
        }
        self.tput_merged[tcombo(op, dir, driving)].get_or_init(|| {
            let runs: Vec<&[u32]> = tput_part_ids(op, dir, driving)
                .into_iter()
                .map(|p| self.tput_parts[p].idx.as_slice())
                .collect();
            merge_indices(&runs, |i| tput_key(&self.ds.tput, i))
        })
    }

    fn rtt_index(&self, op: Option<Operator>, driving: Option<bool>) -> &[u32] {
        if let (Some(o), Some(dr)) = (op, driving) {
            return &self.rtt_parts[rpart(o.index(), usize::from(dr))].idx;
        }
        self.rtt_merged[rcombo(op, driving)].get_or_init(|| {
            let runs: Vec<&[u32]> = rtt_part_ids(op, driving)
                .into_iter()
                .map(|p| self.rtt_parts[p].idx.as_slice())
                .collect();
            merge_indices(&runs, |i| rtt_key(&self.ds.rtt, i))
        })
    }

    /// Equivalent of [`Dataset::tput_where`]: same samples, same order,
    /// without the full-table scan.
    pub fn tput_iter(
        &self,
        op: Option<Operator>,
        dir: Option<Direction>,
        driving: Option<bool>,
    ) -> impl Iterator<Item = &TputSample> {
        self.tput_index(op, dir, driving)
            .iter()
            .map(|&i| at(&self.ds.tput, i))
    }

    /// Memoized Cdf of `mbps` over the filter — the sorted multiset
    /// `Cdf::from_samples` would build, shared across callers.
    pub fn tput_cdf(
        &self,
        op: Option<Operator>,
        dir: Option<Direction>,
        driving: Option<bool>,
    ) -> &Cdf {
        self.tput_cdfs[tcombo(op, dir, driving)].get_or_init(|| {
            let runs: Vec<&[f64]> = tput_part_ids(op, dir, driving)
                .into_iter()
                .map(|p| self.tput_parts[p].sorted_mbps(&self.ds.tput))
                .collect();
            Cdf::from_sorted(merge_sorted(&runs))
        })
    }

    /// Throughput samples of one partition on one technology (Fig. 4).
    pub fn tput_tech(
        &self,
        op: Operator,
        dir: Direction,
        driving: bool,
        tech: Technology,
    ) -> impl Iterator<Item = &TputSample> {
        self.tput_parts[tpart(op.index(), dir_index(dir), usize::from(driving))].by_tech
            [tech.index()]
        .iter()
        .map(|&i| at(&self.ds.tput, i))
    }

    /// Throughput samples of one partition in one timezone (Fig. 5).
    pub fn tput_tz(
        &self,
        op: Operator,
        dir: Direction,
        driving: bool,
        tz: Timezone,
    ) -> impl Iterator<Item = &TputSample> {
        self.tput_parts[tpart(op.index(), dir_index(dir), usize::from(driving))].by_tz[tz_index(tz)]
            .iter()
            .map(|&i| at(&self.ds.tput, i))
    }

    /// Throughput samples of one partition in one speed bin on one
    /// technology (Figs. 7–8).
    pub fn tput_bin_tech(
        &self,
        op: Operator,
        dir: Direction,
        driving: bool,
        bin: SpeedBin,
        tech: Technology,
    ) -> impl Iterator<Item = &TputSample> {
        self.tput_parts[tpart(op.index(), dir_index(dir), usize::from(driving))].by_bin_tech
            [bin_index(bin)][tech.index()]
        .iter()
        .map(|&i| at(&self.ds.tput, i))
    }

    /// Per-test throughput sample groups matching the filter, keyed by
    /// test id, each group in time order (Figs. 9–10). A test's operator,
    /// direction and driving flag are constant by construction, so the
    /// filter checks the group's first sample.
    pub fn tput_tests(
        &self,
        op: Option<Operator>,
        dir: Option<Direction>,
        driving: Option<bool>,
    ) -> impl Iterator<Item = (u32, impl Iterator<Item = &TputSample>)> {
        self.tput_by_test.iter().filter_map(move |(&id, pos)| {
            let first = at(&self.ds.tput, *pos.first()?);
            let keep = op.is_none_or(|o| first.operator == o)
                && dir.is_none_or(|d| first.direction == d)
                && driving.is_none_or(|dr| first.driving == dr);
            keep.then(|| (id, pos.iter().map(|&i| at(&self.ds.tput, i))))
        })
    }

    /// Equivalent of iterating `Dataset::rtt` with the `rtt_where`
    /// filters but keeping whole samples (lost pings included).
    pub fn rtt_iter(
        &self,
        op: Option<Operator>,
        driving: Option<bool>,
    ) -> impl Iterator<Item = &RttSample> {
        self.rtt_index(op, driving)
            .iter()
            .map(|&i| at(&self.ds.rtt, i))
    }

    /// Equivalent of [`Dataset::rtt_where`]: valid RTT values in dataset
    /// order.
    pub fn rtt_values(
        &self,
        op: Option<Operator>,
        driving: Option<bool>,
    ) -> impl Iterator<Item = f64> + '_ {
        self.rtt_iter(op, driving).filter_map(|s| s.rtt_ms)
    }

    /// Memoized Cdf of valid RTT ms over the filter.
    pub fn rtt_cdf(&self, op: Option<Operator>, driving: Option<bool>) -> &Cdf {
        self.rtt_cdfs[rcombo(op, driving)].get_or_init(|| {
            let runs: Vec<&[f64]> = rtt_part_ids(op, driving)
                .into_iter()
                .map(|p| self.rtt_parts[p].sorted_ms(&self.ds.rtt))
                .collect();
            Cdf::from_sorted(merge_sorted(&runs))
        })
    }

    /// RTT samples of one partition on one technology (Fig. 4).
    pub fn rtt_tech(
        &self,
        op: Operator,
        driving: bool,
        tech: Technology,
    ) -> impl Iterator<Item = &RttSample> {
        self.rtt_parts[rpart(op.index(), usize::from(driving))].by_tech[tech.index()]
            .iter()
            .map(|&i| at(&self.ds.rtt, i))
    }

    /// RTT samples of one partition in one speed bin on one technology
    /// (Fig. 8).
    pub fn rtt_bin_tech(
        &self,
        op: Operator,
        driving: bool,
        bin: SpeedBin,
        tech: Technology,
    ) -> impl Iterator<Item = &RttSample> {
        self.rtt_parts[rpart(op.index(), usize::from(driving))].by_bin_tech[bin_index(bin)]
            [tech.index()]
        .iter()
        .map(|&i| at(&self.ds.rtt, i))
    }

    /// Per-test RTT sample groups matching the filter (Fig. 9).
    pub fn rtt_tests(
        &self,
        op: Option<Operator>,
        driving: Option<bool>,
    ) -> impl Iterator<Item = (u32, impl Iterator<Item = &RttSample>)> {
        self.rtt_by_test.iter().filter_map(move |(&id, pos)| {
            let first = at(&self.ds.rtt, *pos.first()?);
            let keep = op.is_none_or(|o| first.operator == o)
                && driving.is_none_or(|dr| first.driving == dr);
            keep.then(|| (id, pos.iter().map(|&i| at(&self.ds.rtt, i))))
        })
    }

    /// Coverage samples of one operator, in dataset order (Figs. 1–2).
    pub fn coverage_for(&self, op: Operator) -> impl Iterator<Item = &CoverageSample> {
        self.cov_idx[op.index()]
            .iter()
            .map(|&i| at(&self.ds.coverage, i))
    }

    /// Memoized handover throughput impacts (Fig. 12, findings), computed
    /// once over the shared by-test index.
    pub fn impacts(&self) -> &[HoImpact] {
        self.impacts
            .get_or_init(|| handover::impacts_indexed(&self.ds, &self.tput_by_test))
    }

    /// One Table-2 row over the partition's samples, in dataset order.
    pub fn tput_correlation(&self, op: Operator, dir: Direction, driving: bool) -> CorrelationRow {
        let idx = &self.tput_parts[tpart(op.index(), dir_index(dir), usize::from(driving))].idx;
        correlation::correlate_rows(idx.iter().map(|&i| at(&self.ds.tput, i)), op, dir)
    }

    /// Fig. 2a technology share.
    pub fn coverage_share(&self, op: Operator) -> TechShare {
        coverage::overall_from(self.coverage_for(op))
    }

    /// Fig. 2b share split by backlogged direction.
    pub fn coverage_share_by_direction(&self, op: Operator) -> BTreeMap<Direction, TechShare> {
        coverage::by_direction_from(self.coverage_for(op))
    }

    /// Fig. 2c share per timezone.
    pub fn coverage_share_by_timezone(&self, op: Operator) -> BTreeMap<Timezone, TechShare> {
        coverage::by_timezone_from(self.coverage_for(op))
    }

    /// Fig. 2d share per speed bin.
    pub fn coverage_share_by_speed_bin(&self, op: Operator) -> BTreeMap<SpeedBin, TechShare> {
        coverage::by_speed_bin_from(self.coverage_for(op))
    }

    /// Fold one completed campaign shard into the view incrementally —
    /// µs per shard instead of the full rebuild `DatasetView::new`
    /// pays. The sample tables are appended in arrival order and every
    /// affected permutation index is extended by a binary-splice run
    /// merge, so all indexed accessors keep yielding exactly what a
    /// rebuild over the union would yield; memoized sorted runs, merged
    /// combos and Cdfs are re-armed only where the shard actually
    /// landed. The small tables stay physically canonical (the raw-scan
    /// consumers need them so), and Table 1 accounting is recomputed
    /// with the same f64 accumulation order as the campaign merger.
    ///
    /// Preconditions (both guaranteed by the simulator): each shard is
    /// ingested at most once, and shard canonical keys (test ids,
    /// coverage/handover instants) never collide across shards — the
    /// equality with a full rebuild is then independent of arrival
    /// order. A view seeded from an already-finalized dataset keeps
    /// exact runtimes but its unique-cell counts cover only ingested
    /// shards (finalized datasets store counts, not the sets).
    pub fn ingest_shard(&mut self, rec: ShardRecords) {
        let ShardRecords {
            operator,
            dataset: mut sd,
            cells,
        } = rec;
        if !sd.is_normalized() {
            // Shards normalize before handing off, but a journal
            // written by an older build may carry unsorted tables.
            sd.normalize();
        }

        let tput_touched = self.ingest_tput(std::mem::take(&mut sd.tput));
        let rtt_touched = self.ingest_rtt(std::mem::take(&mut sd.rtt));
        self.ingest_coverage(std::mem::take(&mut sd.coverage));
        self.ingest_small_tables(&mut sd);

        // Re-arm every memo whose partition set intersects the shard:
        // wildcard slots merge multiple partitions, so one landed
        // partition can dirty several combos. Fully-specified slots
        // only carry a Cdf (their index is the partition itself).
        let mut op_opts: Vec<Option<Operator>> = Operator::ALL.iter().copied().map(Some).collect();
        op_opts.push(None);
        let mut dir_opts: Vec<Option<Direction>> =
            Direction::ALL.iter().copied().map(Some).collect();
        dir_opts.push(None);
        const DRV: [Option<bool>; 3] = [Some(false), Some(true), None];
        for &o in &op_opts {
            for &dr in &DRV {
                for &d in &dir_opts {
                    if tput_part_ids(o, d, dr).iter().any(|&p| tput_touched[p]) {
                        let c = tcombo(o, d, dr);
                        self.tput_merged[c] = OnceLock::new();
                        self.tput_cdfs[c] = OnceLock::new();
                    }
                }
                if rtt_part_ids(o, dr).iter().any(|&p| rtt_touched[p]) {
                    let c = rcombo(o, dr);
                    self.rtt_merged[c] = OnceLock::new();
                    self.rtt_cdfs[c] = OnceLock::new();
                }
            }
        }
        self.impacts = OnceLock::new();

        // Table 1 accounting, identical accumulation order to the
        // campaign merger's finish pass.
        self.cell_sets[operator.index()].extend(cells.iter().copied());
        self.log_base += sd.log_bytes;
        self.ds.rx_bytes += sd.rx_bytes;
        self.ds.tx_bytes += sd.tx_bytes;
        apply_table1_accounting(&mut self.ds, &Operator::ALL, &self.cell_sets, self.log_base);
    }

    /// Append the shard's throughput run and splice-merge each touched
    /// partition index; returns the touched-partition mask.
    fn ingest_tput(&mut self, rows: Vec<TputSample>) -> [bool; TPUT_PARTS] {
        let mut touched = [false; TPUT_PARTS];
        if rows.is_empty() {
            return touched;
        }
        let mut add: Vec<TputPart> = (0..TPUT_PARTS).map(|_| TputPart::default()).collect();
        index_tput(&mut add, &mut self.tput_by_test, &rows, self.ds.tput.len());
        self.ds.tput.extend(rows);

        let tput = &self.ds.tput;
        let key = |i: u32| tput_key(tput, i);
        for (p, new) in add.iter().enumerate() {
            if new.idx.is_empty() {
                continue;
            }
            touched[p] = true;
            let part = &mut self.tput_parts[p];
            merge_positions(&mut part.idx, &new.idx, key);
            for (list, run) in part.by_tech.iter_mut().zip(&new.by_tech) {
                merge_positions(list, run, key);
            }
            for (list, run) in part.by_tz.iter_mut().zip(&new.by_tz) {
                merge_positions(list, run, key);
            }
            for (bin, new_bin) in part.by_bin_tech.iter_mut().zip(&new.by_bin_tech) {
                for (list, run) in bin.iter_mut().zip(new_bin) {
                    merge_positions(list, run, key);
                }
            }
            part.sorted_mbps = OnceLock::new();
        }
        touched
    }

    /// RTT twin of [`DatasetView::ingest_tput`].
    fn ingest_rtt(&mut self, rows: Vec<RttSample>) -> [bool; RTT_PARTS] {
        let mut touched = [false; RTT_PARTS];
        if rows.is_empty() {
            return touched;
        }
        let mut add: Vec<RttPart> = (0..RTT_PARTS).map(|_| RttPart::default()).collect();
        index_rtt(&mut add, &mut self.rtt_by_test, &rows, self.ds.rtt.len());
        self.ds.rtt.extend(rows);

        let rtt = &self.ds.rtt;
        let key = |i: u32| rtt_key(rtt, i);
        for (p, new) in add.iter().enumerate() {
            if new.idx.is_empty() {
                continue;
            }
            touched[p] = true;
            let part = &mut self.rtt_parts[p];
            merge_positions(&mut part.idx, &new.idx, key);
            for (list, run) in part.by_tech.iter_mut().zip(&new.by_tech) {
                merge_positions(list, run, key);
            }
            for (bin, new_bin) in part.by_bin_tech.iter_mut().zip(&new.by_bin_tech) {
                for (list, run) in bin.iter_mut().zip(new_bin) {
                    merge_positions(list, run, key);
                }
            }
            part.sorted_ms = OnceLock::new();
        }
        touched
    }

    /// Coverage counterpart: per-operator index splice (coverage has no lazy
    /// memos — the share kernels scan the index on every call).
    fn ingest_coverage(&mut self, rows: Vec<CoverageSample>) {
        if rows.is_empty() {
            return;
        }
        let mut add: [Vec<u32>; OPS] = Default::default();
        index_coverage(&mut add, &rows, self.ds.coverage.len());
        self.ds.coverage.extend(rows);

        let coverage = &self.ds.coverage;
        let key = |i: u32| {
            let s = at(coverage, i);
            (s.t.as_millis(), s.operator.index())
        };
        for (list, run) in self.cov_idx.iter_mut().zip(&add) {
            merge_positions(list, run, key);
        }
    }

    /// Physically merge the shard's small tables into canonical order
    /// (raw-order consumers: the handover kernels and the figure code)
    /// — thousands of times smaller than the sample tables, so the
    /// linear merge is noise.
    fn ingest_small_tables(&mut self, sd: &mut Dataset) {
        merge_sorted_by_key(&mut self.ds.runs, std::mem::take(&mut sd.runs), |r| {
            (r.start.as_millis(), r.id)
        });
        merge_sorted_by_key(
            &mut self.ds.handovers,
            std::mem::take(&mut sd.handovers),
            |h| {
                (
                    h.event.start.as_millis(),
                    h.operator.index(),
                    h.event.to_cell,
                )
            },
        );
        merge_sorted_by_key(&mut self.ds.apps, std::mem::take(&mut sd.apps), |a| a.id);
        merge_sorted_by_key(&mut self.ds.audits, std::mem::take(&mut sd.audits), |a| {
            (a.scheduled.as_millis(), a.test_id)
        });
    }

    /// Rebuild a view by replaying a checkpoint journal frame-by-frame
    /// through [`DatasetView::ingest_shard`] — the one incremental
    /// pipeline `run_checkpointed`, `--resume` and `wheels-serve`
    /// share. Strictly read-only (`checkpoint::tail` stops at a torn
    /// tail without truncating it); returns the view and the
    /// [`TailState`] resume cursor, so a live follower can keep
    /// polling from `TailState::next_offset` via
    /// `checkpoint::tail_from` without re-reading the replayed prefix.
    pub fn from_journal(
        dir: &Path,
        fp: &Fingerprint,
    ) -> Result<(DatasetView, TailState), CheckpointError> {
        let mut view = DatasetView::new(Dataset::default());
        let state = checkpoint::tail(dir, fp, |_, rec| {
            view.ingest_shard(rec);
            Ok(())
        })?;
        Ok((view, state))
    }

    /// Surrender the dataset, restoring physical canonical order first
    /// (ingest leaves the sample tables arrival-ordered). The stable
    /// re-sort makes the export byte-identical to a plan-order campaign
    /// merge whenever canonical keys are shard-unique — which the
    /// simulator guarantees.
    pub fn into_dataset(mut self) -> Dataset {
        self.ds.normalize();
        self.ds
    }
}
