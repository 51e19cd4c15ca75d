//! Columnar (struct-of-arrays) form of the consolidated [`Dataset`]:
//! the in-memory side of the WCD1 binary codec, and nothing else.
//!
//! The analysis views hold rows only. This module stores each table as
//! contiguous per-field vectors sharing one row count so that the
//! on-disk format ([`wcd`]) is a direct dump of those fixed-width
//! sections and loading is a checksummed bulk copy with no parse step.
//! Writers call [`ColumnarDataset::from_rows`] just before encoding;
//! readers call [`ColumnarDataset::to_rows`] (or [`load_dataset`]) just
//! after decoding.
//!
//! Invariants:
//!
//! - **Row order is preserved bit-for-bit.** `from_rows` visits rows in
//!   table order and `to_rows` re-emits them in the same order, so a
//!   normalized dataset stays normalized across the conversion.
//! - **Round-trips are lossless.** `f64` fields travel as raw bits,
//!   `Option` fields as a validity column or a sentinel code
//!   ([`NONE_CODE`]), enums as the stable codes below. Property tests in
//!   `crates/core/tests/column_properties.rs` pin
//!   `to_rows(from_rows(ds)) == ds` for every table on shuffled inserts.
//! - **JSON stays the interchange format.** Nothing here touches the
//!   serde schema `tests/dataset_roundtrip.rs` pins; the binary format
//!   is a cache/transport layer, not a replacement.
//!
//! # Enum codes
//!
//! Codes are part of the on-disk format and must never be renumbered:
//! operators/technologies/timezones use their `ALL`-array position,
//! the other enums their declaration order. `0xFF` ([`NONE_CODE`])
//! encodes `None` for optional enum columns.

pub mod wcd;

use std::fmt;

use wheels_apps::arcav::OffloadStats;
use wheels_apps::gaming::GamingStats;
use wheels_apps::video::{ChunkRecord, VideoStats};
use wheels_geo::route::ZoneClass;
use wheels_radio::tech::{Direction, Technology};
use wheels_ran::cells::CellId;
use wheels_ran::operator::Operator;
use wheels_ran::session::{HandoverEvent, HandoverKind};
use wheels_sim_core::time::{SimDuration, SimTime, Timezone};
use wheels_transport::servers::ServerKind;

use crate::disrupt::FaultKind;
use crate::records::{
    AppRun, CoverageSample, Dataset, RttSample, TaggedHandover, TestAudit, TestKind, TestRun,
    TestStatus, TputSample,
};

/// Sentinel code for `None` in optional enum columns.
pub const NONE_CODE: u8 = 0xFF;

/// A structurally invalid columnar dataset: mismatched column lengths,
/// an unknown enum code, or variable-length sections that do not add up.
/// Only decoded (on-disk) data can be invalid; [`ColumnarDataset::from_rows`]
/// output converts back infallibly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnError(pub String);

impl fmt::Display for ColumnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid columnar dataset: {}", self.0)
    }
}

impl std::error::Error for ColumnError {}

/// Define a stable `u8` code for an enum: an encoder, a fallible decoder,
/// and an `Option` pair using [`NONE_CODE`].
macro_rules! codec {
    ($(#[$m:meta])* $enc:ident / $dec:ident : $ty:ty { $($variant:path => $code:literal),+ $(,)? }) => {
        $(#[$m])*
        pub fn $enc(v: $ty) -> u8 {
            match v {
                $($variant => $code,)+
            }
        }

        /// Decode the code written by the paired encoder; `Err` on a
        /// byte outside the catalogue (corrupt or foreign data).
        pub fn $dec(code: u8) -> Result<$ty, ColumnError> {
            match code {
                $($code => Ok($variant),)+
                other => Err(ColumnError(format!(
                    "{} is not a valid {} code",
                    other,
                    stringify!($ty)
                ))),
            }
        }
    };
}

codec!(
    /// Operator code (the paper's column order).
    op_code / op_from: Operator {
        Operator::Verizon => 0,
        Operator::TMobile => 1,
        Operator::Att => 2,
    }
);

codec!(
    /// Traffic-direction code.
    dir_code / dir_from: Direction {
        Direction::Downlink => 0,
        Direction::Uplink => 1,
    }
);

codec!(
    /// Technology code (slowest to fastest, `Technology::ALL` order).
    tech_code / tech_from: Technology {
        Technology::Lte => 0,
        Technology::LteA => 1,
        Technology::Nr5gLow => 2,
        Technology::Nr5gMid => 3,
        Technology::Nr5gMmWave => 4,
    }
);

codec!(
    /// Road-zone code.
    zone_code / zone_from: ZoneClass {
        ZoneClass::City => 0,
        ZoneClass::Suburban => 1,
        ZoneClass::Highway => 2,
    }
);

codec!(
    /// Timezone code (west to east).
    tz_code / tz_from: Timezone {
        Timezone::Pacific => 0,
        Timezone::Mountain => 1,
        Timezone::Central => 2,
        Timezone::Eastern => 3,
    }
);

codec!(
    /// Server-kind code.
    server_code / server_from: ServerKind {
        ServerKind::Cloud => 0,
        ServerKind::Edge => 1,
    }
);

codec!(
    /// Test-kind code (declaration order).
    kind_code / kind_from: TestKind {
        TestKind::DownlinkTput => 0,
        TestKind::UplinkTput => 1,
        TestKind::Rtt => 2,
        TestKind::Ar => 3,
        TestKind::Cav => 4,
        TestKind::Video => 5,
        TestKind::Gaming => 6,
    }
);

codec!(
    /// Test-status code.
    status_code / status_from: TestStatus {
        TestStatus::Completed => 0,
        TestStatus::Partial => 1,
        TestStatus::Lost => 2,
    }
);

codec!(
    /// Fault-kind code.
    fault_code / fault_from: FaultKind {
        FaultKind::ServerOutage => 0,
        FaultKind::AppCrash => 1,
        FaultKind::LoggerGap => 2,
        FaultKind::ClockDrift => 3,
    }
);

codec!(
    /// Handover-kind code.
    ho_code / ho_from: HandoverKind {
        HandoverKind::Horizontal4g => 0,
        HandoverKind::Horizontal5g => 1,
        HandoverKind::Up4gTo5g => 2,
        HandoverKind::Down5gTo4g => 3,
    }
);

/// Encode an optional enum with [`NONE_CODE`] for `None`.
fn opt_code<T>(v: Option<T>, enc: impl Fn(T) -> u8) -> u8 {
    v.map_or(NONE_CODE, enc)
}

/// Decode an optional enum column byte.
fn opt_from<T>(
    code: u8,
    dec: impl Fn(u8) -> Result<T, ColumnError>,
) -> Result<Option<T>, ColumnError> {
    if code == NONE_CODE {
        Ok(None)
    } else {
        dec(code).map(Some)
    }
}

fn bool_code(b: bool) -> u8 {
    u8::from(b)
}

fn bool_from(code: u8) -> Result<bool, ColumnError> {
    match code {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(ColumnError(format!("{other} is not a valid bool code"))),
    }
}

fn idx(i: u32) -> usize {
    // lint: allow(lossy-cast, u32 position to usize is widening on every supported target)
    i as usize
}

fn to_u64(n: usize) -> u64 {
    u64::try_from(n).expect("usize fits u64 on every supported target")
}

fn to_usize(n: u64, what: &str) -> Result<usize, ColumnError> {
    usize::try_from(n).map_err(|_| ColumnError(format!("{what} count {n} exceeds usize")))
}

/// Columnar twin of `Dataset::tput`: one contiguous vector per
/// [`TputSample`] field, all sharing the row count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TputColumns {
    /// Sample times (ms since epoch).
    pub t_ms: Vec<u64>,
    /// Test ids.
    pub test_id: Vec<u32>,
    /// Operator codes.
    pub operator: Vec<u8>,
    /// Direction codes.
    pub direction: Vec<u8>,
    /// Application-layer goodput (Mbps).
    pub mbps: Vec<f64>,
    /// Technology codes.
    pub tech: Vec<u8>,
    /// Serving cell ids.
    pub cell: Vec<u32>,
    /// Vehicle speeds (mph).
    pub speed_mph: Vec<f64>,
    /// Zone codes.
    pub zone: Vec<u8>,
    /// Timezone codes.
    pub tz: Vec<u8>,
    /// Server-kind codes.
    pub server: Vec<u8>,
    /// Primary-cell RSRP (dBm).
    pub rsrp_dbm: Vec<f64>,
    /// Primary-cell MCS.
    pub mcs: Vec<u8>,
    /// Primary-cell BLER.
    pub bler: Vec<f64>,
    /// Component-carrier counts.
    pub carriers: Vec<u8>,
    /// Handovers started in the bin.
    pub handovers_in_bin: Vec<u8>,
    /// Driving flags (0/1).
    pub driving: Vec<u8>,
}

impl TputColumns {
    /// Row count.
    pub fn len(&self) -> usize {
        self.t_ms.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.t_ms.is_empty()
    }

    /// Append one row.
    pub fn push(&mut self, s: &TputSample) {
        self.t_ms.push(s.t.as_millis());
        self.test_id.push(s.test_id);
        self.operator.push(op_code(s.operator));
        self.direction.push(dir_code(s.direction));
        self.mbps.push(s.mbps);
        self.tech.push(tech_code(s.tech));
        self.cell.push(s.cell);
        self.speed_mph.push(s.speed_mph);
        self.zone.push(zone_code(s.zone));
        self.tz.push(tz_code(s.tz));
        self.server.push(server_code(s.server));
        self.rsrp_dbm.push(s.rsrp_dbm);
        self.mcs.push(s.mcs);
        self.bler.push(s.bler);
        self.carriers.push(s.carriers);
        self.handovers_in_bin.push(s.handovers_in_bin);
        self.driving.push(bool_code(s.driving));
    }

    /// Reconstruct row `i`.
    pub fn row(&self, i: u32) -> Result<TputSample, ColumnError> {
        let i = idx(i);
        Ok(TputSample {
            t: SimTime(self.t_ms[i]),
            test_id: self.test_id[i],
            operator: op_from(self.operator[i])?,
            direction: dir_from(self.direction[i])?,
            mbps: self.mbps[i],
            tech: tech_from(self.tech[i])?,
            cell: self.cell[i],
            speed_mph: self.speed_mph[i],
            zone: zone_from(self.zone[i])?,
            tz: tz_from(self.tz[i])?,
            server: server_from(self.server[i])?,
            rsrp_dbm: self.rsrp_dbm[i],
            mcs: self.mcs[i],
            bler: self.bler[i],
            carriers: self.carriers[i],
            handovers_in_bin: self.handovers_in_bin[i],
            driving: bool_from(self.driving[i])?,
        })
    }

    fn check(&self) -> Result<(), ColumnError> {
        let n = self.len();
        let lens = [
            self.test_id.len(),
            self.operator.len(),
            self.direction.len(),
            self.mbps.len(),
            self.tech.len(),
            self.cell.len(),
            self.speed_mph.len(),
            self.zone.len(),
            self.tz.len(),
            self.server.len(),
            self.rsrp_dbm.len(),
            self.mcs.len(),
            self.bler.len(),
            self.carriers.len(),
            self.handovers_in_bin.len(),
            self.driving.len(),
        ];
        if lens.iter().any(|&l| l != n) {
            return Err(ColumnError(
                "tput columns disagree on row count".to_string(),
            ));
        }
        Ok(())
    }
}

/// Columnar twin of `Dataset::rtt`. Lost pings keep a `0` in
/// `rtt_valid` and a placeholder `0.0` in `rtt_ms`; valid values travel
/// as raw `f64` bits, so the `Option<f64>` round-trips losslessly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RttColumns {
    /// Ping send times (ms since epoch).
    pub t_ms: Vec<u64>,
    /// Test ids.
    pub test_id: Vec<u32>,
    /// Operator codes.
    pub operator: Vec<u8>,
    /// Validity column: 1 when `rtt_ms` holds a measured value.
    pub rtt_valid: Vec<u8>,
    /// Measured RTT (ms); `0.0` placeholder for lost pings.
    pub rtt_ms: Vec<f64>,
    /// Technology codes.
    pub tech: Vec<u8>,
    /// Vehicle speeds (mph).
    pub speed_mph: Vec<f64>,
    /// Timezone codes.
    pub tz: Vec<u8>,
    /// Server-kind codes.
    pub server: Vec<u8>,
    /// Driving flags (0/1).
    pub driving: Vec<u8>,
}

impl RttColumns {
    /// Row count.
    pub fn len(&self) -> usize {
        self.t_ms.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.t_ms.is_empty()
    }

    /// Append one row.
    pub fn push(&mut self, s: &RttSample) {
        self.t_ms.push(s.t.as_millis());
        self.test_id.push(s.test_id);
        self.operator.push(op_code(s.operator));
        self.rtt_valid.push(bool_code(s.rtt_ms.is_some()));
        self.rtt_ms.push(s.rtt_ms.unwrap_or(0.0));
        self.tech.push(tech_code(s.tech));
        self.speed_mph.push(s.speed_mph);
        self.tz.push(tz_code(s.tz));
        self.server.push(server_code(s.server));
        self.driving.push(bool_code(s.driving));
    }

    /// Reconstruct row `i`.
    pub fn row(&self, i: u32) -> Result<RttSample, ColumnError> {
        let i = idx(i);
        Ok(RttSample {
            t: SimTime(self.t_ms[i]),
            test_id: self.test_id[i],
            operator: op_from(self.operator[i])?,
            rtt_ms: bool_from(self.rtt_valid[i])?.then(|| self.rtt_ms[i]),
            tech: tech_from(self.tech[i])?,
            speed_mph: self.speed_mph[i],
            tz: tz_from(self.tz[i])?,
            server: server_from(self.server[i])?,
            driving: bool_from(self.driving[i])?,
        })
    }

    fn check(&self) -> Result<(), ColumnError> {
        let n = self.len();
        let lens = [
            self.test_id.len(),
            self.operator.len(),
            self.rtt_valid.len(),
            self.rtt_ms.len(),
            self.tech.len(),
            self.speed_mph.len(),
            self.tz.len(),
            self.server.len(),
            self.driving.len(),
        ];
        if lens.iter().any(|&l| l != n) {
            return Err(ColumnError("rtt columns disagree on row count".to_string()));
        }
        Ok(())
    }
}

/// Columnar twin of `Dataset::coverage`. `tech` and `direction` use
/// [`NONE_CODE`] sentinels for out-of-service / ICMP-only samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoverageColumns {
    /// Sample times (ms since epoch).
    pub t_ms: Vec<u64>,
    /// Operator codes.
    pub operator: Vec<u8>,
    /// Technology codes ([`NONE_CODE`] = out of service).
    pub tech: Vec<u8>,
    /// Direction codes ([`NONE_CODE`] = no backlogged test).
    pub direction: Vec<u8>,
    /// Miles covered per sample.
    pub miles: Vec<f64>,
    /// Vehicle speeds (mph).
    pub speed_mph: Vec<f64>,
    /// Timezone codes.
    pub tz: Vec<u8>,
    /// Zone codes.
    pub zone: Vec<u8>,
}

impl CoverageColumns {
    /// Row count.
    pub fn len(&self) -> usize {
        self.t_ms.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.t_ms.is_empty()
    }

    /// Append one row.
    pub fn push(&mut self, s: &CoverageSample) {
        self.t_ms.push(s.t.as_millis());
        self.operator.push(op_code(s.operator));
        self.tech.push(opt_code(s.tech, tech_code));
        self.direction.push(opt_code(s.direction, dir_code));
        self.miles.push(s.miles);
        self.speed_mph.push(s.speed_mph);
        self.tz.push(tz_code(s.tz));
        self.zone.push(zone_code(s.zone));
    }

    /// Reconstruct row `i`.
    pub fn row(&self, i: u32) -> Result<CoverageSample, ColumnError> {
        let i = idx(i);
        Ok(CoverageSample {
            t: SimTime(self.t_ms[i]),
            operator: op_from(self.operator[i])?,
            tech: opt_from(self.tech[i], tech_from)?,
            direction: opt_from(self.direction[i], dir_from)?,
            miles: self.miles[i],
            speed_mph: self.speed_mph[i],
            tz: tz_from(self.tz[i])?,
            zone: zone_from(self.zone[i])?,
        })
    }

    fn check(&self) -> Result<(), ColumnError> {
        let n = self.len();
        let lens = [
            self.operator.len(),
            self.tech.len(),
            self.direction.len(),
            self.miles.len(),
            self.speed_mph.len(),
            self.tz.len(),
            self.zone.len(),
        ];
        if lens.iter().any(|&l| l != n) {
            return Err(ColumnError(
                "coverage columns disagree on row count".to_string(),
            ));
        }
        Ok(())
    }
}

/// Columnar twin of `Dataset::runs`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunColumns {
    /// Test ids.
    pub id: Vec<u32>,
    /// Test-kind codes.
    pub kind: Vec<u8>,
    /// Operator codes.
    pub operator: Vec<u8>,
    /// Start times (ms since epoch).
    pub start_ms: Vec<u64>,
    /// End times (ms since epoch).
    pub end_ms: Vec<u64>,
    /// Miles driven per test.
    pub miles: Vec<f64>,
    /// Timezone codes at start.
    pub tz: Vec<u8>,
    /// Server-kind codes.
    pub server: Vec<u8>,
    /// Fraction of test time on high-speed 5G.
    pub hs5g_fraction: Vec<f64>,
    /// Handovers per test.
    pub handovers: Vec<u32>,
    /// Driving flags (0/1).
    pub driving: Vec<u8>,
    /// Partial (salvaged) flags (0/1).
    pub partial: Vec<u8>,
}

impl RunColumns {
    /// Row count.
    pub fn len(&self) -> usize {
        self.id.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.id.is_empty()
    }

    /// Append one row.
    pub fn push(&mut self, r: &TestRun) {
        self.id.push(r.id);
        self.kind.push(kind_code(r.kind));
        self.operator.push(op_code(r.operator));
        self.start_ms.push(r.start.as_millis());
        self.end_ms.push(r.end.as_millis());
        self.miles.push(r.miles);
        self.tz.push(tz_code(r.tz));
        self.server.push(server_code(r.server));
        self.hs5g_fraction.push(r.hs5g_fraction);
        self.handovers.push(r.handovers);
        self.driving.push(bool_code(r.driving));
        self.partial.push(bool_code(r.partial));
    }

    /// Reconstruct row `i`.
    pub fn row(&self, i: u32) -> Result<TestRun, ColumnError> {
        let i = idx(i);
        Ok(TestRun {
            id: self.id[i],
            kind: kind_from(self.kind[i])?,
            operator: op_from(self.operator[i])?,
            start: SimTime(self.start_ms[i]),
            end: SimTime(self.end_ms[i]),
            miles: self.miles[i],
            tz: tz_from(self.tz[i])?,
            server: server_from(self.server[i])?,
            hs5g_fraction: self.hs5g_fraction[i],
            handovers: self.handovers[i],
            driving: bool_from(self.driving[i])?,
            partial: bool_from(self.partial[i])?,
        })
    }

    fn check(&self) -> Result<(), ColumnError> {
        let n = self.len();
        let lens = [
            self.kind.len(),
            self.operator.len(),
            self.start_ms.len(),
            self.end_ms.len(),
            self.miles.len(),
            self.tz.len(),
            self.server.len(),
            self.hs5g_fraction.len(),
            self.handovers.len(),
            self.driving.len(),
            self.partial.len(),
        ];
        if lens.iter().any(|&l| l != n) {
            return Err(ColumnError(
                "runs columns disagree on row count".to_string(),
            ));
        }
        Ok(())
    }
}

/// Columnar twin of `Dataset::handovers` (the [`TaggedHandover`] table,
/// event fields flattened).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HandoverColumns {
    /// Execution start times (ms since epoch).
    pub start_ms: Vec<u64>,
    /// Interruption lengths (ms).
    pub duration_ms: Vec<u64>,
    /// Source cell ids.
    pub from_cell: Vec<u32>,
    /// Target cell ids.
    pub to_cell: Vec<u32>,
    /// Source technology codes.
    pub from_tech: Vec<u8>,
    /// Target technology codes.
    pub to_tech: Vec<u8>,
    /// Handover-kind codes.
    pub kind: Vec<u8>,
    /// Operator codes.
    pub operator: Vec<u8>,
    /// Validity column: 1 when the handover happened during a test.
    pub test_valid: Vec<u8>,
    /// Test ids (`0` placeholder when `test_valid` is 0).
    pub test_id: Vec<u32>,
    /// Direction codes ([`NONE_CODE`] = no backlogged traffic).
    pub direction: Vec<u8>,
}

impl HandoverColumns {
    /// Row count.
    pub fn len(&self) -> usize {
        self.start_ms.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.start_ms.is_empty()
    }

    /// Append one row.
    pub fn push(&mut self, h: &TaggedHandover) {
        self.start_ms.push(h.event.start.as_millis());
        self.duration_ms.push(h.event.duration.as_millis());
        self.from_cell.push(h.event.from_cell.0);
        self.to_cell.push(h.event.to_cell.0);
        self.from_tech.push(tech_code(h.event.from_tech));
        self.to_tech.push(tech_code(h.event.to_tech));
        self.kind.push(ho_code(h.event.kind));
        self.operator.push(op_code(h.operator));
        self.test_valid.push(bool_code(h.test_id.is_some()));
        self.test_id.push(h.test_id.unwrap_or(0));
        self.direction.push(opt_code(h.direction, dir_code));
    }

    /// Reconstruct row `i`.
    pub fn row(&self, i: u32) -> Result<TaggedHandover, ColumnError> {
        let i = idx(i);
        Ok(TaggedHandover {
            event: HandoverEvent {
                start: SimTime(self.start_ms[i]),
                duration: SimDuration::from_millis(self.duration_ms[i]),
                from_cell: CellId(self.from_cell[i]),
                to_cell: CellId(self.to_cell[i]),
                from_tech: tech_from(self.from_tech[i])?,
                to_tech: tech_from(self.to_tech[i])?,
                kind: ho_from(self.kind[i])?,
            },
            operator: op_from(self.operator[i])?,
            test_id: bool_from(self.test_valid[i])?.then(|| self.test_id[i]),
            direction: opt_from(self.direction[i], dir_from)?,
        })
    }

    fn check(&self) -> Result<(), ColumnError> {
        let n = self.len();
        let lens = [
            self.duration_ms.len(),
            self.from_cell.len(),
            self.to_cell.len(),
            self.from_tech.len(),
            self.to_tech.len(),
            self.kind.len(),
            self.operator.len(),
            self.test_valid.len(),
            self.test_id.len(),
            self.direction.len(),
        ];
        if lens.iter().any(|&l| l != n) {
            return Err(ColumnError(
                "handover columns disagree on row count".to_string(),
            ));
        }
        Ok(())
    }
}

/// Columnar twin of `Dataset::apps`. The nested per-run vectors
/// (`e2e_ms`, video chunks, gaming bitrate/latency series) are stored
/// Arrow-list style: a per-row length column plus one flat value vector
/// per field, concatenated in row order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AppColumns {
    /// Test ids.
    pub id: Vec<u32>,
    /// Operator codes.
    pub operator: Vec<u8>,
    /// Test-kind codes.
    pub kind: Vec<u8>,
    /// Server-kind codes.
    pub server: Vec<u8>,
    /// Driving flags (0/1).
    pub driving: Vec<u8>,

    /// Validity column for the AR/CAV offload stats.
    pub off_valid: Vec<u8>,
    /// Per-row `e2e_ms` sample counts.
    pub off_e2e_len: Vec<u32>,
    /// Frames offloaded per run.
    pub off_frames_offloaded: Vec<u64>,
    /// Frames produced per run.
    pub off_frames_total: Vec<u64>,
    /// Compression flags (0/1).
    pub off_compressed: Vec<u8>,
    /// High-speed-5G fraction per run.
    pub off_hs5g: Vec<f64>,
    /// Handovers per run.
    pub off_handovers: Vec<u64>,
    /// Flat per-frame E2E latency values, concatenated in row order.
    pub off_e2e_ms: Vec<f64>,

    /// Validity column for the video stats.
    pub vid_valid: Vec<u8>,
    /// Per-row chunk counts.
    pub vid_chunks_len: Vec<u32>,
    /// High-speed-5G fraction per session.
    pub vid_hs5g: Vec<f64>,
    /// Handovers per session.
    pub vid_handovers: Vec<u64>,
    /// Flat chunk bitrates (Mbps), concatenated in row order.
    pub vid_bitrate_mbps: Vec<f64>,
    /// Flat chunk rebuffer times (s), concatenated in row order.
    pub vid_rebuffer_s: Vec<f64>,
    /// Flat chunk QoE contributions, concatenated in row order.
    pub vid_qoe: Vec<f64>,

    /// Validity column for the gaming stats.
    pub gam_valid: Vec<u8>,
    /// Per-row bitrate sample counts.
    pub gam_bitrate_len: Vec<u32>,
    /// Per-row latency sample counts.
    pub gam_latency_len: Vec<u32>,
    /// Frames dropped per session.
    pub gam_frames_dropped: Vec<u64>,
    /// Frames sent per session.
    pub gam_frames_sent: Vec<u64>,
    /// High-speed-5G fraction per session.
    pub gam_hs5g: Vec<f64>,
    /// Handovers per session.
    pub gam_handovers: Vec<u64>,
    /// Flat per-second send bitrates (Mbps), concatenated in row order.
    pub gam_bitrate_mbps: Vec<f64>,
    /// Flat per-frame latency samples (ms), concatenated in row order.
    pub gam_latency_ms: Vec<f64>,
}

impl AppColumns {
    /// Row count.
    pub fn len(&self) -> usize {
        self.id.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.id.is_empty()
    }

    /// Append one row.
    pub fn push(&mut self, a: &AppRun) {
        self.id.push(a.id);
        self.operator.push(op_code(a.operator));
        self.kind.push(kind_code(a.kind));
        self.server.push(server_code(a.server));
        self.driving.push(bool_code(a.driving));

        self.off_valid.push(bool_code(a.offload.is_some()));
        match &a.offload {
            Some(o) => {
                self.off_e2e_len
                    .push(u32::try_from(o.e2e_ms.len()).expect("e2e series exceeds u32 rows"));
                self.off_e2e_ms.extend_from_slice(&o.e2e_ms);
                self.off_frames_offloaded.push(to_u64(o.frames_offloaded));
                self.off_frames_total.push(to_u64(o.frames_total));
                self.off_compressed.push(bool_code(o.compressed));
                self.off_hs5g.push(o.high_speed_5g_fraction);
                self.off_handovers.push(to_u64(o.handovers));
            }
            None => {
                self.off_e2e_len.push(0);
                self.off_frames_offloaded.push(0);
                self.off_frames_total.push(0);
                self.off_compressed.push(0);
                self.off_hs5g.push(0.0);
                self.off_handovers.push(0);
            }
        }

        self.vid_valid.push(bool_code(a.video.is_some()));
        match &a.video {
            Some(v) => {
                self.vid_chunks_len
                    .push(u32::try_from(v.chunks.len()).expect("chunk series exceeds u32 rows"));
                for c in &v.chunks {
                    self.vid_bitrate_mbps.push(c.bitrate_mbps);
                    self.vid_rebuffer_s.push(c.rebuffer_s);
                    self.vid_qoe.push(c.qoe);
                }
                self.vid_hs5g.push(v.high_speed_5g_fraction);
                self.vid_handovers.push(to_u64(v.handovers));
            }
            None => {
                self.vid_chunks_len.push(0);
                self.vid_hs5g.push(0.0);
                self.vid_handovers.push(0);
            }
        }

        self.gam_valid.push(bool_code(a.gaming.is_some()));
        match &a.gaming {
            Some(g) => {
                self.gam_bitrate_len.push(
                    u32::try_from(g.bitrate_mbps.len()).expect("bitrate series exceeds u32 rows"),
                );
                self.gam_latency_len.push(
                    u32::try_from(g.latency_ms.len()).expect("latency series exceeds u32 rows"),
                );
                self.gam_bitrate_mbps.extend_from_slice(&g.bitrate_mbps);
                self.gam_latency_ms.extend_from_slice(&g.latency_ms);
                self.gam_frames_dropped.push(to_u64(g.frames_dropped));
                self.gam_frames_sent.push(to_u64(g.frames_sent));
                self.gam_hs5g.push(g.high_speed_5g_fraction);
                self.gam_handovers.push(to_u64(g.handovers));
            }
            None => {
                self.gam_bitrate_len.push(0);
                self.gam_latency_len.push(0);
                self.gam_frames_dropped.push(0);
                self.gam_frames_sent.push(0);
                self.gam_hs5g.push(0.0);
                self.gam_handovers.push(0);
            }
        }
    }

    /// Reconstruct the whole table (cursor-based because of the flat
    /// variable-length sections).
    fn to_rows(&self) -> Result<Vec<AppRun>, ColumnError> {
        let mut out = Vec::with_capacity(self.len());
        let (mut e2e_at, mut chunk_at, mut br_at, mut lat_at) = (0usize, 0usize, 0usize, 0usize);
        for i in 0..self.len() {
            let offload = if bool_from(self.off_valid[i])? {
                let n = idx(self.off_e2e_len[i]);
                let e2e = self
                    .off_e2e_ms
                    .get(e2e_at..e2e_at + n)
                    .ok_or_else(|| ColumnError("offload e2e section overruns".to_string()))?
                    .to_vec();
                e2e_at += n;
                Some(OffloadStats {
                    e2e_ms: e2e,
                    frames_offloaded: to_usize(self.off_frames_offloaded[i], "frames_offloaded")?,
                    frames_total: to_usize(self.off_frames_total[i], "frames_total")?,
                    compressed: bool_from(self.off_compressed[i])?,
                    high_speed_5g_fraction: self.off_hs5g[i],
                    handovers: to_usize(self.off_handovers[i], "handovers")?,
                })
            } else {
                None
            };
            let video = if bool_from(self.vid_valid[i])? {
                let n = idx(self.vid_chunks_len[i]);
                if chunk_at + n > self.vid_bitrate_mbps.len()
                    || chunk_at + n > self.vid_rebuffer_s.len()
                    || chunk_at + n > self.vid_qoe.len()
                {
                    return Err(ColumnError("video chunk section overruns".to_string()));
                }
                let chunks = (chunk_at..chunk_at + n)
                    .map(|j| ChunkRecord {
                        bitrate_mbps: self.vid_bitrate_mbps[j],
                        rebuffer_s: self.vid_rebuffer_s[j],
                        qoe: self.vid_qoe[j],
                    })
                    .collect();
                chunk_at += n;
                Some(VideoStats {
                    chunks,
                    high_speed_5g_fraction: self.vid_hs5g[i],
                    handovers: to_usize(self.vid_handovers[i], "handovers")?,
                })
            } else {
                None
            };
            let gaming = if bool_from(self.gam_valid[i])? {
                let nb = idx(self.gam_bitrate_len[i]);
                let nl = idx(self.gam_latency_len[i]);
                let bitrate = self
                    .gam_bitrate_mbps
                    .get(br_at..br_at + nb)
                    .ok_or_else(|| ColumnError("gaming bitrate section overruns".to_string()))?
                    .to_vec();
                let latency = self
                    .gam_latency_ms
                    .get(lat_at..lat_at + nl)
                    .ok_or_else(|| ColumnError("gaming latency section overruns".to_string()))?
                    .to_vec();
                br_at += nb;
                lat_at += nl;
                Some(GamingStats {
                    bitrate_mbps: bitrate,
                    latency_ms: latency,
                    frames_dropped: to_usize(self.gam_frames_dropped[i], "frames_dropped")?,
                    frames_sent: to_usize(self.gam_frames_sent[i], "frames_sent")?,
                    high_speed_5g_fraction: self.gam_hs5g[i],
                    handovers: to_usize(self.gam_handovers[i], "handovers")?,
                })
            } else {
                None
            };
            out.push(AppRun {
                id: self.id[i],
                operator: op_from(self.operator[i])?,
                kind: kind_from(self.kind[i])?,
                server: server_from(self.server[i])?,
                driving: bool_from(self.driving[i])?,
                offload,
                video,
                gaming,
            });
        }
        if e2e_at != self.off_e2e_ms.len()
            || chunk_at != self.vid_bitrate_mbps.len()
            || br_at != self.gam_bitrate_mbps.len()
            || lat_at != self.gam_latency_ms.len()
        {
            return Err(ColumnError(
                "flat app sections longer than their length columns account for".to_string(),
            ));
        }
        Ok(out)
    }

    fn check(&self) -> Result<(), ColumnError> {
        let n = self.len();
        let lens = [
            self.operator.len(),
            self.kind.len(),
            self.server.len(),
            self.driving.len(),
            self.off_valid.len(),
            self.off_e2e_len.len(),
            self.off_frames_offloaded.len(),
            self.off_frames_total.len(),
            self.off_compressed.len(),
            self.off_hs5g.len(),
            self.off_handovers.len(),
            self.vid_valid.len(),
            self.vid_chunks_len.len(),
            self.vid_hs5g.len(),
            self.vid_handovers.len(),
            self.gam_valid.len(),
            self.gam_bitrate_len.len(),
            self.gam_latency_len.len(),
            self.gam_frames_dropped.len(),
            self.gam_frames_sent.len(),
            self.gam_hs5g.len(),
            self.gam_handovers.len(),
        ];
        if lens.iter().any(|&l| l != n) {
            return Err(ColumnError("app columns disagree on row count".to_string()));
        }
        if self.vid_rebuffer_s.len() != self.vid_bitrate_mbps.len()
            || self.vid_qoe.len() != self.vid_bitrate_mbps.len()
        {
            return Err(ColumnError(
                "video chunk sections disagree on element count".to_string(),
            ));
        }
        Ok(())
    }
}

/// Columnar twin of `Dataset::audits`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditColumns {
    /// Test ids.
    pub test_id: Vec<u32>,
    /// Operator codes.
    pub operator: Vec<u8>,
    /// Test-kind codes.
    pub kind: Vec<u8>,
    /// 0-based trip days.
    pub day: Vec<u8>,
    /// Scheduled start times (ms since epoch).
    pub scheduled_ms: Vec<u64>,
    /// Status codes.
    pub status: Vec<u8>,
    /// Attempt counts.
    pub attempts: Vec<u32>,
    /// Fault-kind codes ([`NONE_CODE`] = no disruption).
    pub fault: Vec<u8>,
    /// Planned sample counts.
    pub planned_samples: Vec<u32>,
    /// Recorded sample counts.
    pub recorded_samples: Vec<u32>,
    /// Lost sample counts.
    pub lost_samples: Vec<u32>,
}

impl AuditColumns {
    /// Row count.
    pub fn len(&self) -> usize {
        self.test_id.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.test_id.is_empty()
    }

    /// Append one row.
    pub fn push(&mut self, a: &TestAudit) {
        self.test_id.push(a.test_id);
        self.operator.push(op_code(a.operator));
        self.kind.push(kind_code(a.kind));
        self.day.push(a.day);
        self.scheduled_ms.push(a.scheduled.as_millis());
        self.status.push(status_code(a.status));
        self.attempts.push(a.attempts);
        self.fault.push(opt_code(a.fault, fault_code));
        self.planned_samples.push(a.planned_samples);
        self.recorded_samples.push(a.recorded_samples);
        self.lost_samples.push(a.lost_samples);
    }

    /// Reconstruct row `i`.
    pub fn row(&self, i: u32) -> Result<TestAudit, ColumnError> {
        let i = idx(i);
        Ok(TestAudit {
            test_id: self.test_id[i],
            operator: op_from(self.operator[i])?,
            kind: kind_from(self.kind[i])?,
            day: self.day[i],
            scheduled: SimTime(self.scheduled_ms[i]),
            status: status_from(self.status[i])?,
            attempts: self.attempts[i],
            fault: opt_from(self.fault[i], fault_from)?,
            planned_samples: self.planned_samples[i],
            recorded_samples: self.recorded_samples[i],
            lost_samples: self.lost_samples[i],
        })
    }

    fn check(&self) -> Result<(), ColumnError> {
        let n = self.len();
        let lens = [
            self.operator.len(),
            self.kind.len(),
            self.day.len(),
            self.scheduled_ms.len(),
            self.status.len(),
            self.attempts.len(),
            self.fault.len(),
            self.planned_samples.len(),
            self.recorded_samples.len(),
            self.lost_samples.len(),
        ];
        if lens.iter().any(|&l| l != n) {
            return Err(ColumnError(
                "audit columns disagree on row count".to_string(),
            ));
        }
        Ok(())
    }
}

/// The whole consolidated dataset in struct-of-arrays layout: the seven
/// row tables as column bundles plus the Table-1 scalars and
/// per-operator aggregates. Row order matches the source [`Dataset`]
/// exactly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColumnarDataset {
    /// 500 ms throughput samples.
    pub tput: TputColumns,
    /// RTT samples.
    pub rtt: RttColumns,
    /// Coverage samples.
    pub coverage: CoverageColumns,
    /// Per-test aggregates.
    pub runs: RunColumns,
    /// Tagged handovers.
    pub handovers: HandoverColumns,
    /// Application runs.
    pub apps: AppColumns,
    /// Disruption ledger.
    pub audits: AuditColumns,
    /// Total bytes received over cellular.
    pub rx_bytes: f64,
    /// Total bytes transmitted over cellular.
    pub tx_bytes: f64,
    /// Synthetic XCAL log volume in bytes.
    pub log_bytes: f64,
    /// Per-operator unique-cell counts: operator codes.
    pub cells_operator: Vec<u8>,
    /// Per-operator unique-cell counts: counts.
    pub cells_count: Vec<u64>,
    /// Per-operator runtime: operator codes.
    pub runtime_operator: Vec<u8>,
    /// Per-operator runtime: minutes.
    pub runtime_min: Vec<f64>,
}

impl ColumnarDataset {
    /// Columnarize a row dataset. Row order is preserved exactly — the
    /// `i`-th row of every input table becomes position `i` of its
    /// column bundle — so a normalized dataset stays normalized.
    pub fn from_rows(ds: &Dataset) -> ColumnarDataset {
        let mut out = ColumnarDataset {
            rx_bytes: ds.rx_bytes,
            tx_bytes: ds.tx_bytes,
            log_bytes: ds.log_bytes,
            ..ColumnarDataset::default()
        };
        for s in &ds.tput {
            out.tput.push(s);
        }
        for s in &ds.rtt {
            out.rtt.push(s);
        }
        for s in &ds.coverage {
            out.coverage.push(s);
        }
        for r in &ds.runs {
            out.runs.push(r);
        }
        for h in &ds.handovers {
            out.handovers.push(h);
        }
        for a in &ds.apps {
            out.apps.push(a);
        }
        for a in &ds.audits {
            out.audits.push(a);
        }
        for &(op, n) in &ds.unique_cells {
            out.cells_operator.push(op_code(op));
            out.cells_count.push(to_u64(n));
        }
        for &(op, min) in &ds.runtime_min {
            out.runtime_operator.push(op_code(op));
            out.runtime_min.push(min);
        }
        debug_assert_eq!(out.tput.len(), ds.tput.len());
        debug_assert_eq!(out.rtt.len(), ds.rtt.len());
        debug_assert_eq!(out.coverage.len(), ds.coverage.len());
        debug_assert_eq!(out.runs.len(), ds.runs.len());
        debug_assert_eq!(out.handovers.len(), ds.handovers.len());
        debug_assert_eq!(out.apps.len(), ds.apps.len());
        debug_assert_eq!(out.audits.len(), ds.audits.len());
        out
    }

    /// Reconstruct the row dataset, in the stored order. Fails only on
    /// structurally invalid data (possible after decoding a corrupt or
    /// foreign file; `from_rows` output always converts back).
    pub fn to_rows(&self) -> Result<Dataset, ColumnError> {
        self.check()?;
        let mut ds = Dataset {
            rx_bytes: self.rx_bytes,
            tx_bytes: self.tx_bytes,
            log_bytes: self.log_bytes,
            ..Dataset::default()
        };
        let pos = |i: usize| u32::try_from(i).expect("table exceeds u32 rows");
        for i in 0..self.tput.len() {
            ds.tput.push(self.tput.row(pos(i))?);
        }
        for i in 0..self.rtt.len() {
            ds.rtt.push(self.rtt.row(pos(i))?);
        }
        for i in 0..self.coverage.len() {
            ds.coverage.push(self.coverage.row(pos(i))?);
        }
        for i in 0..self.runs.len() {
            ds.runs.push(self.runs.row(pos(i))?);
        }
        for i in 0..self.handovers.len() {
            ds.handovers.push(self.handovers.row(pos(i))?);
        }
        ds.apps = self.apps.to_rows()?;
        for i in 0..self.audits.len() {
            ds.audits.push(self.audits.row(pos(i))?);
        }
        for (i, &code) in self.cells_operator.iter().enumerate() {
            ds.unique_cells
                .push((op_from(code)?, to_usize(self.cells_count[i], "cell")?));
        }
        for (i, &code) in self.runtime_operator.iter().enumerate() {
            ds.runtime_min.push((op_from(code)?, self.runtime_min[i]));
        }
        Ok(ds)
    }

    /// Structural validity: every table's columns agree on the row
    /// count and the per-operator aggregate pairs line up. Enum codes
    /// are validated lazily by [`ColumnarDataset::to_rows`].
    pub fn check(&self) -> Result<(), ColumnError> {
        self.tput.check()?;
        self.rtt.check()?;
        self.coverage.check()?;
        self.runs.check()?;
        self.handovers.check()?;
        self.apps.check()?;
        self.audits.check()?;
        if self.cells_operator.len() != self.cells_count.len() {
            return Err(ColumnError(
                "unique-cell columns disagree on row count".to_string(),
            ));
        }
        if self.runtime_operator.len() != self.runtime_min.len() {
            return Err(ColumnError(
                "runtime columns disagree on row count".to_string(),
            ));
        }
        Ok(())
    }
}

/// Auto-detecting loader: WCD1 bytes decode without a parse step,
/// anything else is treated as the pinned JSON interchange format.
/// Returns the row dataset plus the format that was detected.
pub fn load_dataset(bytes: &[u8]) -> Result<(Dataset, &'static str), ColumnError> {
    if bytes.starts_with(wcd::MAGIC) {
        let cols = wcd::decode(bytes).map_err(|e| ColumnError(e.to_string()))?;
        Ok((cols.to_rows()?, "bin"))
    } else {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| ColumnError("dataset file is neither WCD1 nor UTF-8 JSON".to_string()))?;
        let ds = serde_json::from_str(text)
            .map_err(|e| ColumnError(format!("JSON dataset does not parse: {e}")))?;
        Ok((ds, "json"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_dataset_roundtrips() {
        let ds = Dataset::default();
        let cols = ColumnarDataset::from_rows(&ds);
        assert_eq!(cols.to_rows().expect("valid by construction"), ds);
    }

    #[test]
    fn option_codes_roundtrip() {
        assert_eq!(opt_from(NONE_CODE, tech_from).unwrap(), None);
        for t in Technology::ALL {
            assert_eq!(
                opt_from(opt_code(Some(t), tech_code), tech_from).unwrap(),
                Some(t)
            );
        }
        assert!(tech_from(9).is_err());
        assert!(bool_from(2).is_err());
    }

    #[test]
    fn load_dataset_detects_json() {
        let ds = Dataset::default();
        let json = serde_json::to_string(&ds).expect("serializes");
        let (back, fmt) = load_dataset(json.as_bytes()).expect("loads");
        assert_eq!(fmt, "json");
        assert_eq!(back, ds);
        assert!(load_dataset(b"garbage \xff\xfe").is_err());
    }
}
