//! Indexed, memoized views over a normalized [`Dataset`].
//!
//! Every figure module filters the same flat tables by the same handful
//! of dimensions (operator × direction × driving, then technology /
//! timezone / speed bin below that) and then sorts the surviving samples
//! into a fresh [`Cdf`]. On a Standard/Full campaign that is dozens of
//! full-table scans and re-sorts per `repro` run. A [`DatasetView`] is
//! built once per world. It keeps one index per partition of each
//! sample table (operator × direction × driving for throughput,
//! operator × driving for RTT, operator for coverage): positions into
//! the owned tables in canonical order, so iteration order is exactly
//! the order a linear `*_where` scan would visit. The finer slices
//! (technology, timezone, speed bin) are filtered from the partition
//! index on demand, which keeps that order. Per-query sorted-sample
//! [`Cdf`]s are memoized, so quantile and summary queries are O(1)
//! after a single shared sort.
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
//! rtt, coverage) are *appended* to the raw storage and each partition
//! index the shard lands in is extended by a binary-splice merge of the
//! shard's pre-sorted position run — so the raw tables end up in
//! arrival order while every indexed accessor keeps yielding canonical
//! `normalize` order, and `OnceLock` memos are re-armed only for the
//! partitions and combos the shard actually touched. The small tables
//! (runs, handovers, apps, audits) stay *physically* canonical (the
//! handover-impact kernel and the figure code iterate them raw), which
//! is cheap because they are thousands of times smaller than the
//! sample tables. It is the only shard fold: the campaign engine drains
//! every shard through it in plan order, [`DatasetView::from_journal`]
//! replays a checkpoint journal frame-by-frame through it, and
//! `wheels-serve` splices live shards with it.
//! [`DatasetView::into_dataset`] restores physical canonical order for
//! export.

use std::collections::{BTreeMap, BTreeSet};
use std::marker::PhantomData;
use std::mem::take;
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
    app_key, audit_key, coverage_key, handover_key, merge_runs, merge_sorted_by_key, rtt_key,
    run_key, tput_key, CoverageSample, Dataset, RttSample, ShardRecords, TputSample,
};

const OPS: usize = Operator::ALL.len();

/// Index a table by a u32 position produced at view-build time.
#[inline]
pub(crate) fn at<T>(table: &[T], pos: u32) -> &T {
    // lint: allow(lossy-cast, u32 position to usize is widening on every supported target)
    &table[pos as usize]
}

/// The rows of `table` at `positions`, in that order.
fn select<'a, T>(table: &'a [T], positions: &'a [u32]) -> impl Iterator<Item = &'a T> {
    positions.iter().map(|&i| at(table, i))
}

fn push_pos(list: &mut Vec<u32>, i: usize) {
    list.push(u32::try_from(i).expect("table exceeds u32 rows"));
}

fn dir_index(d: Direction) -> usize {
    match d {
        Direction::Downlink => 0,
        Direction::Uplink => 1,
    }
}

/// Partition id of a fully-specified coordinate: mixed radix over `dims`.
fn part_of(dims: &[usize], coords: &[usize]) -> usize {
    dims.iter().zip(coords).fold(0, |acc, (&n, &c)| acc * n + c)
}

/// Memo slot of a query: mixed radix over `dims + 1`, each wildcard
/// (`None`) taking its dimension's one-past-the-end value.
fn combo_of(dims: &[usize], filter: &[Option<usize>]) -> usize {
    dims.iter()
        .zip(filter)
        .fold(0, |acc, (&n, f)| acc * (n + 1) + f.unwrap_or(n))
}

/// Whether the query in memo slot `combo` matches partition `part`.
fn covers(dims: &[usize], mut combo: usize, mut part: usize) -> bool {
    dims.iter().rev().all(|&n| {
        let (c, p) = (combo % (n + 1), part % n);
        combo /= n + 1;
        part /= n;
        c == n || c == p
    })
}

/// A sample table the view partitions: throughput by operator ×
/// direction × driving, RTT by the same without the direction.
trait Sample {
    /// Partition dimensions, outermost first.
    const DIMS: &'static [usize];
    /// The row's partition ([`part_of`] over `DIMS`).
    fn part(&self) -> usize;
    /// The canonical (`normalize`) sort key.
    fn key(&self) -> (u64, u32);
    fn test_id(&self) -> u32;
    /// The value the memoized Cdfs sort, if the row has one.
    fn value(&self) -> Option<f64>;
}

impl Sample for TputSample {
    const DIMS: &'static [usize] = &[OPS, Direction::ALL.len(), 2];
    fn part(&self) -> usize {
        let coords = [
            self.operator.index(),
            dir_index(self.direction),
            usize::from(self.driving),
        ];
        part_of(Self::DIMS, &coords)
    }
    fn key(&self) -> (u64, u32) {
        tput_key(self)
    }
    fn test_id(&self) -> u32 {
        self.test_id
    }
    fn value(&self) -> Option<f64> {
        Some(self.mbps)
    }
}

impl Sample for RttSample {
    const DIMS: &'static [usize] = &[OPS, 2];
    fn part(&self) -> usize {
        part_of(
            Self::DIMS,
            &[self.operator.index(), usize::from(self.driving)],
        )
    }
    fn key(&self) -> (u64, u32) {
        rtt_key(self)
    }
    fn test_id(&self) -> u32 {
        self.test_id
    }
    /// Lost pings carry no value.
    fn value(&self) -> Option<f64> {
        self.rtt_ms
    }
}

/// One fully-specified partition of a sample table.
#[derive(Default)]
struct Part {
    /// Positions into the sample table, in canonical order.
    idx: Vec<u32>,
    /// Finite values of this partition, sorted ascending.
    sorted: OnceLock<Vec<f64>>,
}

/// The memos of one (possibly wildcard) query.
struct Combo {
    /// Partitions the query matches, ascending.
    parts: Vec<usize>,
    /// The matched partitions' indexes merged in canonical order
    /// (wildcard queries only: one partition is its own index).
    merged: OnceLock<Vec<u32>>,
    cdf: OnceLock<Cdf>,
}

/// The index over one sample table, whose rows the view's [`Dataset`]
/// owns: one canonical-order position list per partition, the per-test
/// groups, and lazy per-query memos.
struct Table<S> {
    parts: Vec<Part>,
    /// Indexed by [`combo_of`].
    combos: Vec<Combo>,
    /// Per-test positions, time-ascending (normalize sorts by
    /// `(t, test_id)` and a test's samples share one `test_id`).
    by_test: BTreeMap<u32, Vec<u32>>,
    rows: PhantomData<S>,
}

impl<S: Sample> Table<S> {
    fn new() -> Table<S> {
        let parts: usize = S::DIMS.iter().product();
        let combos: usize = S::DIMS.iter().map(|n| n + 1).product();
        Table {
            parts: (0..parts).map(|_| Part::default()).collect(),
            combos: (0..combos)
                .map(|c| Combo {
                    parts: (0..parts).filter(|&p| covers(S::DIMS, c, p)).collect(),
                    merged: OnceLock::new(),
                    cdf: OnceLock::new(),
                })
                .collect(),
            by_test: BTreeMap::new(),
            rows: PhantomData,
        }
    }

    /// Index `rows[base..]`, a canonically-ordered run appended since
    /// the last call: splice each partition's share of it into that
    /// partition's index and re-arm every memo over a partition the run
    /// landed in.
    fn index_from(&mut self, rows: &[S], base: usize) {
        let mut runs = vec![Vec::new(); self.parts.len()];
        for (i, s) in (base..).zip(&rows[base..]) {
            push_pos(&mut runs[s.part()], i);
            push_pos(self.by_test.entry(s.test_id()).or_default(), i);
        }
        for combo in &mut self.combos {
            if combo.parts.iter().any(|&p| !runs[p].is_empty()) {
                combo.merged = OnceLock::new();
                combo.cdf = OnceLock::new();
            }
        }
        for (part, run) in self.parts.iter_mut().zip(runs) {
            if !run.is_empty() {
                merge_sorted_by_key(&mut part.idx, run, |&i| at(rows, i).key());
                part.sorted = OnceLock::new();
            }
        }
    }

    /// Positions matching `filter` (one entry per dimension), in
    /// canonical order.
    fn index(&self, rows: &[S], filter: &[Option<usize>]) -> &[u32] {
        let combo = &self.combos[combo_of(S::DIMS, filter)];
        if let [p] = combo.parts[..] {
            return &self.parts[p].idx;
        }
        combo.merged.get_or_init(|| {
            let runs: Vec<&[u32]> = combo
                .parts
                .iter()
                .map(|&p| self.parts[p].idx.as_slice())
                .collect();
            // Raw positions are in arrival order, so key ties fall back
            // to the order the stable export sort keeps.
            merge_runs(&runs, |&a, &b| {
                (at(rows, a).key(), a).cmp(&(at(rows, b).key(), b))
            })
        })
    }

    /// Memoized Cdf of the finite values matching `filter`: each
    /// partition sorts its values once, and the query merges them.
    fn cdf(&self, rows: &[S], filter: &[Option<usize>]) -> &Cdf {
        let combo = &self.combos[combo_of(S::DIMS, filter)];
        combo.cdf.get_or_init(|| {
            let runs: Vec<&[f64]> = combo
                .parts
                .iter()
                .map(|&p| {
                    let part = &self.parts[p];
                    part.sorted.get_or_init(|| {
                        let mut v: Vec<f64> = select(rows, &part.idx)
                            .filter_map(Sample::value)
                            .filter(|x| x.is_finite())
                            .collect();
                        v.sort_by(f64::total_cmp);
                        v
                    })
                })
                .map(Vec::as_slice)
                .collect();
            Cdf::from_sorted(merge_runs(&runs, f64::total_cmp))
        })
    }

    /// Per-test groups matching `filter`, keyed by test id. A test's
    /// partition is constant by construction, so the filter checks the
    /// group's first sample.
    fn tests<'a>(
        &'a self,
        rows: &'a [S],
        filter: &[Option<usize>],
    ) -> impl Iterator<Item = (u32, impl Iterator<Item = &'a S>)> {
        let combo = combo_of(S::DIMS, filter);
        self.by_test.iter().filter_map(move |(&id, pos)| {
            let first = at(rows, *pos.first()?);
            covers(S::DIMS, combo, first.part()).then(|| (id, select(rows, pos)))
        })
    }
}

fn tput_filter(
    op: Option<Operator>,
    dir: Option<Direction>,
    driving: Option<bool>,
) -> [Option<usize>; 3] {
    [
        op.map(Operator::index),
        dir.map(dir_index),
        driving.map(usize::from),
    ]
}

fn rtt_filter(op: Option<Operator>, driving: Option<bool>) -> [Option<usize>; 2] {
    [op.map(Operator::index), driving.map(usize::from)]
}

fn in_bin(speed_mph: f64, bin: SpeedBin) -> bool {
    SpeedBin::of(Speed::from_mph(speed_mph)) == bin
}

/// Indexed view over an owned [`Dataset`]. See the module docs for the
/// guarantees.
pub struct DatasetView {
    ds: Dataset,
    tput: Table<TputSample>,
    rtt: Table<RttSample>,
    /// Per-operator positions into `coverage`, in canonical order.
    cov_idx: [Vec<u32>; OPS],
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

/// Row counts only: the indices and memos are derived state.
impl std::fmt::Debug for DatasetView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DatasetView")
            .field("tput", &self.ds.tput.len())
            .field("rtt", &self.ds.rtt.len())
            .field("coverage", &self.ds.coverage.len())
            .field("runs", &self.ds.runs.len())
            .finish_non_exhaustive()
    }
}

impl DatasetView {
    /// Normalize `ds` (idempotent) and index its sample tables. Lazy
    /// memos (sorted runs, merged combos, Cdfs, impacts) fill on first
    /// use.
    pub fn new(mut ds: Dataset) -> DatasetView {
        ds.normalize();
        let mut view = DatasetView {
            ds,
            tput: Table::new(),
            rtt: Table::new(),
            cov_idx: Default::default(),
            impacts: OnceLock::new(),
            cell_sets: vec![BTreeSet::new(); OPS],
            log_base: 0.0,
        };
        view.index_from([0; 3]);
        view
    }

    /// The owned dataset, for the tables the view does not index (runs,
    /// handovers, apps, audits, Table-1 aggregates), which are in
    /// canonical order. The sample tables (tput, rtt, coverage) are in
    /// ingest order — canonical only for a view built by
    /// [`DatasetView::new`]; read them through the accessors, or export
    /// with [`DatasetView::into_dataset`].
    pub fn dataset(&self) -> &Dataset {
        &self.ds
    }

    /// Equivalent of [`Dataset::tput_where`]: same samples, same order,
    /// without the full-table scan.
    pub fn tput_iter(
        &self,
        op: Option<Operator>,
        dir: Option<Direction>,
        driving: Option<bool>,
    ) -> impl Iterator<Item = &TputSample> {
        let rows = &self.ds.tput;
        select(rows, self.tput.index(rows, &tput_filter(op, dir, driving)))
    }

    /// Memoized Cdf of `mbps` over the filter — the sorted multiset
    /// `Cdf::from_samples` would build, shared across callers.
    pub fn tput_cdf(
        &self,
        op: Option<Operator>,
        dir: Option<Direction>,
        driving: Option<bool>,
    ) -> &Cdf {
        self.tput.cdf(&self.ds.tput, &tput_filter(op, dir, driving))
    }

    /// Throughput samples of one partition on one technology (Fig. 4).
    pub fn tput_tech(
        &self,
        op: Operator,
        dir: Direction,
        driving: bool,
        tech: Technology,
    ) -> impl Iterator<Item = &TputSample> {
        self.tput_iter(Some(op), Some(dir), Some(driving))
            .filter(move |s| s.tech == tech)
    }

    /// Throughput samples of one partition in one timezone (Fig. 5).
    pub fn tput_tz(
        &self,
        op: Operator,
        dir: Direction,
        driving: bool,
        tz: Timezone,
    ) -> impl Iterator<Item = &TputSample> {
        self.tput_iter(Some(op), Some(dir), Some(driving))
            .filter(move |s| s.tz == tz)
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
        self.tput_tech(op, dir, driving, tech)
            .filter(move |s| in_bin(s.speed_mph, bin))
    }

    /// Per-test throughput sample groups matching the filter, keyed by
    /// test id, each group in time order (Figs. 9–10).
    pub fn tput_tests(
        &self,
        op: Option<Operator>,
        dir: Option<Direction>,
        driving: Option<bool>,
    ) -> impl Iterator<Item = (u32, impl Iterator<Item = &TputSample>)> {
        self.tput
            .tests(&self.ds.tput, &tput_filter(op, dir, driving))
    }

    /// Equivalent of iterating `Dataset::rtt` with the `rtt_where`
    /// filters but keeping whole samples (lost pings included).
    pub fn rtt_iter(
        &self,
        op: Option<Operator>,
        driving: Option<bool>,
    ) -> impl Iterator<Item = &RttSample> {
        let rows = &self.ds.rtt;
        select(rows, self.rtt.index(rows, &rtt_filter(op, driving)))
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
        self.rtt.cdf(&self.ds.rtt, &rtt_filter(op, driving))
    }

    /// RTT samples of one partition on one technology (Fig. 4).
    pub fn rtt_tech(
        &self,
        op: Operator,
        driving: bool,
        tech: Technology,
    ) -> impl Iterator<Item = &RttSample> {
        self.rtt_iter(Some(op), Some(driving))
            .filter(move |s| s.tech == tech)
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
        self.rtt_tech(op, driving, tech)
            .filter(move |s| in_bin(s.speed_mph, bin))
    }

    /// Per-test RTT sample groups matching the filter (Fig. 9).
    pub fn rtt_tests(
        &self,
        op: Option<Operator>,
        driving: Option<bool>,
    ) -> impl Iterator<Item = (u32, impl Iterator<Item = &RttSample>)> {
        self.rtt.tests(&self.ds.rtt, &rtt_filter(op, driving))
    }

    /// Coverage samples of one operator, in dataset order (Figs. 1–2).
    pub fn coverage_for(&self, op: Operator) -> impl Iterator<Item = &CoverageSample> {
        select(&self.ds.coverage, &self.cov_idx[op.index()])
    }

    /// Memoized handover throughput impacts (Fig. 12, findings), computed
    /// once over the shared by-test index.
    pub fn impacts(&self) -> &[HoImpact] {
        self.impacts
            .get_or_init(|| handover::impacts_indexed(&self.ds, &self.tput.by_test))
    }

    /// One Table-2 row over the partition's samples, in dataset order.
    pub fn tput_correlation(&self, op: Operator, dir: Direction, driving: bool) -> CorrelationRow {
        correlation::correlate_rows(self.tput_iter(Some(op), Some(dir), Some(driving)), op, dir)
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
    /// pays. The sample tables are appended in arrival order and each
    /// partition index the shard lands in is extended by a binary-splice
    /// run merge, so all indexed accessors keep yielding exactly what a
    /// rebuild over the union would yield; memoized sorted runs, merged
    /// combos and Cdfs are re-armed only where the shard actually
    /// landed. The small tables stay physically canonical (the raw-scan
    /// consumers need them so), and Table 1 accounting is recomputed
    /// over every shard ingested so far, in ingest order.
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
            // Shards normalize before handing off, but a replayed
            // frame is outside input: its checksum vouches that it was
            // written whole, not that its tables are sorted, and the
            // splice needs sorted runs.
            sd.normalize();
        }

        let base = [
            self.ds.tput.len(),
            self.ds.rtt.len(),
            self.ds.coverage.len(),
        ];
        self.ds.tput.append(&mut sd.tput);
        self.ds.rtt.append(&mut sd.rtt);
        self.ds.coverage.append(&mut sd.coverage);
        self.index_from(base);
        // The small tables merge physically: the handover kernels and
        // the figure code read them raw, and they are thousands of
        // times smaller than the sample tables.
        let ds = &mut self.ds;
        merge_sorted_by_key(&mut ds.runs, take(&mut sd.runs), run_key);
        merge_sorted_by_key(&mut ds.handovers, take(&mut sd.handovers), handover_key);
        merge_sorted_by_key(&mut ds.apps, take(&mut sd.apps), app_key);
        merge_sorted_by_key(&mut ds.audits, take(&mut sd.audits), audit_key);

        // Table 1 accounting over every shard so far, byte sums in
        // ingest order.
        self.cell_sets[operator.index()].extend(cells.iter().copied());
        self.log_base += sd.log_bytes;
        self.ds.rx_bytes += sd.rx_bytes;
        self.ds.tx_bytes += sd.tx_bytes;
        apply_table1_accounting(&mut self.ds, &Operator::ALL, &self.cell_sets, self.log_base);
    }

    /// Index the tput, rtt and coverage rows from the given positions
    /// on, re-arming the memos they touch. Coverage has no lazy memos:
    /// the share kernels scan its index on every call.
    fn index_from(&mut self, [tput, rtt, cov]: [usize; 3]) {
        self.tput.index_from(&self.ds.tput, tput);
        self.rtt.index_from(&self.ds.rtt, rtt);
        let coverage = &self.ds.coverage;
        let mut runs: [Vec<u32>; OPS] = Default::default();
        for (i, s) in (cov..).zip(&coverage[cov..]) {
            push_pos(&mut runs[s.operator.index()], i);
        }
        for (idx, run) in self.cov_idx.iter_mut().zip(runs) {
            merge_sorted_by_key(idx, run, |&i| coverage_key(at(coverage, i)));
        }
        self.impacts = OnceLock::new();
    }

    /// Rebuild a view by replaying a checkpoint journal frame-by-frame
    /// through [`DatasetView::ingest_shard`], the fold the campaign
    /// engine and `wheels-serve` use too. Strictly read-only
    /// (`checkpoint::tail` stops at a torn tail without truncating it);
    /// returns the view and the [`TailState`] resume cursor, so a live
    /// follower can keep polling from `TailState::next_offset` via
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
    /// re-sort leaves rows with equal keys in ingest order, so the export
    /// is independent of arrival order whenever canonical keys are
    /// shard-unique — which the simulator guarantees.
    pub fn into_dataset(mut self) -> Dataset {
        self.ds.normalize();
        self.ds
    }
}
