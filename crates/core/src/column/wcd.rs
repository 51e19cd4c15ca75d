//! WCD1 — the dataset's binary on-disk format.
//!
//! Same family as the WCJ2 checkpoint journal: magic, length prefixes,
//! and FNV-1a-64 checksums, but laid out as a *column catalogue* rather
//! than an append-only frame log. Each journal shard frame carries one
//! WCD1 image of its shard's dataset. Each named column is one fixed-width
//! little-endian section whose payload starts on an 8-byte boundary, so
//! a loader may memory-map the file and view every section in place.
//! The encoder streams each column straight off the row tables; the
//! decoder borrows every section from the input and builds the rows
//! from those slices, with no parse step and no columnar copy between.
//!
//! ```text
//! file    := "WCD1" | count: u32 LE | section*
//! section := tag: u8 | name_len: u8 | name bytes (ASCII)
//!          | elems: u64 LE | fnv1a64(payload): u64 LE
//!          | pad to 8-byte file offset | payload (elems × width LE)
//! tag     := 1 = u8 | 2 = u32 | 3 = u64 | 4 = f64
//! ```
//!
//! `f64` payloads are raw IEEE-754 bit patterns (`to_le_bytes`), so the
//! format is lossless for every value JSON can carry and then some.
//! Decoding is strict: a file loads whole or not at all, mirroring the
//! journal's "torn tail is truncated, corrupt body is an error" rule.
//! Before any row is allocated the decoder checks every checksum, the
//! column names, order and tags against the catalogue (`columns`), the
//! declared column count, that the columns of each table agree on its
//! row count, and that no bytes trail the last section. Building the
//! rows then checks every enum and bool code and the apps table's list
//! lengths.

use std::fmt;
use std::io;
use std::ops::Range;
use std::path::Path;

use wheels_apps::arcav::OffloadStats;
use wheels_apps::gaming::GamingStats;
use wheels_apps::video::{ChunkRecord, VideoStats};
use wheels_ran::cells::CellId;
use wheels_ran::session::HandoverEvent;
use wheels_sim_core::time::{SimDuration, SimTime};

use crate::checkpoint::{fnv1a64, write_atomic_with};
use crate::records::{
    AppRun, CoverageSample, Dataset, RttSample, TaggedHandover, TestAudit, TestRun, TputSample,
};

use super::{
    bool_code, bool_from, dir_code, dir_from, fault_code, fault_from, ho_code, ho_from, idx,
    kind_code, kind_from, op_code, op_from, opt_code, opt_from, server_code, server_from,
    status_code, status_from, tech_code, tech_from, to_u64, to_usize, tz_code, tz_from, zone_code,
    zone_from,
};

/// File magic; also the auto-detection key used by
/// [`super::load_dataset`].
pub const MAGIC: &[u8; 4] = b"WCD1";

/// Decode failure: structurally broken, checksum-mismatched, or
/// foreign/unknown-schema bytes.
#[derive(Debug)]
pub enum WcdError {
    /// Not a WCD1 file, or its catalogue or rows do not hold together.
    Invalid(String),
    /// A section checksum did not match its payload.
    Checksum(String),
    /// Underlying I/O failure (file-level helpers only).
    Io(io::Error),
}

impl fmt::Display for WcdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WcdError::Invalid(m) => write!(f, "invalid dataset: {m}"),
            WcdError::Checksum(m) => write!(f, "WCD1 checksum mismatch: {m}"),
            WcdError::Io(e) => write!(f, "WCD1 io error: {e}"),
        }
    }
}

impl std::error::Error for WcdError {}

impl From<io::Error> for WcdError {
    fn from(e: io::Error) -> Self {
        WcdError::Io(e)
    }
}

/// A fixed-width column element and the tag of its sections.
trait Elem: Copy {
    const TAG: u8;
    fn put(self, out: &mut Vec<u8>);
}

macro_rules! elem {
    ($($ty:ty => $tag:literal),+) => {
        $(impl Elem for $ty {
            const TAG: u8 = $tag;
            fn put(self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
        })+
    };
}

elem!(u8 => 1, u32 => 2, u64 => 3, f64 => 4);

/// Bytes per element in a section with this tag (`None`: unknown tag).
fn tag_width(tag: u8) -> Option<usize> {
    match tag {
        1 => Some(1),
        2 => Some(4),
        3 | 4 => Some(8),
        _ => None,
    }
}

/// Number of columns [`columns`] emits: the count every file declares.
const COLUMNS: usize = 105;

/// Where [`columns`] sends each column: a [`SectionWriter`] writes it,
/// a [`CatalogueCheck`] checks it against the next section of a file.
trait ColumnSink {
    /// A column holding one element per row of its table (the name up
    /// to the dot).
    fn col<R, T: Elem>(
        &mut self,
        name: &'static str,
        rows: &[R],
        f: impl Fn(&R) -> T,
    ) -> Result<(), WcdError>;

    /// One of the apps table's Arrow-style lists: the nested per-run
    /// vectors of every row with stats, concatenated in row order, each
    /// row taking as many elements as its `*_len` column says.
    fn list<T: Elem>(
        &mut self,
        name: &'static str,
        values: impl Iterator<Item = T>,
    ) -> Result<(), WcdError>;
}

/// The column catalogue: every column of `ds`, in file order. It is the
/// one list of names, tags and order: the encoder writes it, and the
/// decoder checks a file by replaying it over an empty dataset. Absent
/// optional values keep a 0 validity code and a zero placeholder (enums
/// use [`super::NONE_CODE`]); absent app stats add no list elements.
/// The three dataset scalars are one-row tables at the end.
fn columns(ds: &Dataset, s: &mut impl ColumnSink) -> Result<(), WcdError> {
    let t = &ds.tput;
    s.col("tput.t_ms", t, |r| r.t.as_millis())?;
    s.col("tput.test_id", t, |r| r.test_id)?;
    s.col("tput.operator", t, |r| op_code(r.operator))?;
    s.col("tput.direction", t, |r| dir_code(r.direction))?;
    s.col("tput.mbps", t, |r| r.mbps)?;
    s.col("tput.tech", t, |r| tech_code(r.tech))?;
    s.col("tput.cell", t, |r| r.cell)?;
    s.col("tput.speed_mph", t, |r| r.speed_mph)?;
    s.col("tput.zone", t, |r| zone_code(r.zone))?;
    s.col("tput.tz", t, |r| tz_code(r.tz))?;
    s.col("tput.server", t, |r| server_code(r.server))?;
    s.col("tput.rsrp_dbm", t, |r| r.rsrp_dbm)?;
    s.col("tput.mcs", t, |r| r.mcs)?;
    s.col("tput.bler", t, |r| r.bler)?;
    s.col("tput.carriers", t, |r| r.carriers)?;
    s.col("tput.handovers_in_bin", t, |r| r.handovers_in_bin)?;
    s.col("tput.driving", t, |r| bool_code(r.driving))?;

    let t = &ds.rtt;
    s.col("rtt.t_ms", t, |r| r.t.as_millis())?;
    s.col("rtt.test_id", t, |r| r.test_id)?;
    s.col("rtt.operator", t, |r| op_code(r.operator))?;
    s.col("rtt.rtt_valid", t, |r| bool_code(r.rtt_ms.is_some()))?;
    s.col("rtt.rtt_ms", t, |r| r.rtt_ms.unwrap_or(0.0))?;
    s.col("rtt.tech", t, |r| tech_code(r.tech))?;
    s.col("rtt.speed_mph", t, |r| r.speed_mph)?;
    s.col("rtt.tz", t, |r| tz_code(r.tz))?;
    s.col("rtt.server", t, |r| server_code(r.server))?;
    s.col("rtt.driving", t, |r| bool_code(r.driving))?;

    let t = &ds.coverage;
    s.col("coverage.t_ms", t, |r| r.t.as_millis())?;
    s.col("coverage.operator", t, |r| op_code(r.operator))?;
    s.col("coverage.tech", t, |r| opt_code(r.tech, tech_code))?;
    s.col("coverage.direction", t, |r| opt_code(r.direction, dir_code))?;
    s.col("coverage.miles", t, |r| r.miles)?;
    s.col("coverage.speed_mph", t, |r| r.speed_mph)?;
    s.col("coverage.tz", t, |r| tz_code(r.tz))?;
    s.col("coverage.zone", t, |r| zone_code(r.zone))?;

    let t = &ds.runs;
    s.col("runs.id", t, |r| r.id)?;
    s.col("runs.kind", t, |r| kind_code(r.kind))?;
    s.col("runs.operator", t, |r| op_code(r.operator))?;
    s.col("runs.start_ms", t, |r| r.start.as_millis())?;
    s.col("runs.end_ms", t, |r| r.end.as_millis())?;
    s.col("runs.miles", t, |r| r.miles)?;
    s.col("runs.tz", t, |r| tz_code(r.tz))?;
    s.col("runs.server", t, |r| server_code(r.server))?;
    s.col("runs.hs5g_fraction", t, |r| r.hs5g_fraction)?;
    s.col("runs.handovers", t, |r| r.handovers)?;
    s.col("runs.driving", t, |r| bool_code(r.driving))?;
    s.col("runs.partial", t, |r| bool_code(r.partial))?;

    let t = &ds.handovers;
    s.col("handovers.start_ms", t, |h| h.event.start.as_millis())?;
    s.col("handovers.duration_ms", t, |h| h.event.duration.as_millis())?;
    s.col("handovers.from_cell", t, |h| h.event.from_cell.0)?;
    s.col("handovers.to_cell", t, |h| h.event.to_cell.0)?;
    s.col("handovers.from_tech", t, |h| tech_code(h.event.from_tech))?;
    s.col("handovers.to_tech", t, |h| tech_code(h.event.to_tech))?;
    s.col("handovers.kind", t, |h| ho_code(h.event.kind))?;
    s.col("handovers.operator", t, |h| op_code(h.operator))?;
    s.col("handovers.test_valid", t, |h| {
        bool_code(h.test_id.is_some())
    })?;
    s.col("handovers.test_id", t, |h| h.test_id.unwrap_or(0))?;
    s.col("handovers.direction", t, |h| {
        opt_code(h.direction, dir_code)
    })?;

    let t = &ds.apps;
    fn off(a: &AppRun) -> Option<&OffloadStats> {
        a.offload.as_ref()
    }
    fn vid(a: &AppRun) -> Option<&VideoStats> {
        a.video.as_ref()
    }
    fn gam(a: &AppRun) -> Option<&GamingStats> {
        a.gaming.as_ref()
    }
    s.col("apps.id", t, |a| a.id)?;
    s.col("apps.operator", t, |a| op_code(a.operator))?;
    s.col("apps.kind", t, |a| kind_code(a.kind))?;
    s.col("apps.server", t, |a| server_code(a.server))?;
    s.col("apps.driving", t, |a| bool_code(a.driving))?;
    s.col("apps.off_valid", t, |a| bool_code(off(a).is_some()))?;
    s.col("apps.off_e2e_len", t, |a| {
        off(a).map_or(0, |o| len32(o.e2e_ms.len()))
    })?;
    s.col("apps.off_frames_offloaded", t, |a| {
        off(a).map_or(0, |o| to_u64(o.frames_offloaded))
    })?;
    s.col("apps.off_frames_total", t, |a| {
        off(a).map_or(0, |o| to_u64(o.frames_total))
    })?;
    s.col("apps.off_compressed", t, |a| {
        off(a).map_or(0, |o| bool_code(o.compressed))
    })?;
    s.col("apps.off_hs5g", t, |a| {
        off(a).map_or(0.0, |o| o.high_speed_5g_fraction)
    })?;
    s.col("apps.off_handovers", t, |a| {
        off(a).map_or(0, |o| to_u64(o.handovers))
    })?;
    s.list(
        "apps.off_e2e_ms",
        t.iter()
            .filter_map(off)
            .flat_map(|o| o.e2e_ms.iter().copied()),
    )?;
    s.col("apps.vid_valid", t, |a| bool_code(vid(a).is_some()))?;
    s.col("apps.vid_chunks_len", t, |a| {
        vid(a).map_or(0, |v| len32(v.chunks.len()))
    })?;
    s.col("apps.vid_hs5g", t, |a| {
        vid(a).map_or(0.0, |v| v.high_speed_5g_fraction)
    })?;
    s.col("apps.vid_handovers", t, |a| {
        vid(a).map_or(0, |v| to_u64(v.handovers))
    })?;
    let chunks = || t.iter().filter_map(vid).flat_map(|v| &v.chunks);
    s.list("apps.vid_bitrate_mbps", chunks().map(|c| c.bitrate_mbps))?;
    s.list("apps.vid_rebuffer_s", chunks().map(|c| c.rebuffer_s))?;
    s.list("apps.vid_qoe", chunks().map(|c| c.qoe))?;
    s.col("apps.gam_valid", t, |a| bool_code(gam(a).is_some()))?;
    s.col("apps.gam_bitrate_len", t, |a| {
        gam(a).map_or(0, |g| len32(g.bitrate_mbps.len()))
    })?;
    s.col("apps.gam_latency_len", t, |a| {
        gam(a).map_or(0, |g| len32(g.latency_ms.len()))
    })?;
    s.col("apps.gam_frames_dropped", t, |a| {
        gam(a).map_or(0, |g| to_u64(g.frames_dropped))
    })?;
    s.col("apps.gam_frames_sent", t, |a| {
        gam(a).map_or(0, |g| to_u64(g.frames_sent))
    })?;
    s.col("apps.gam_hs5g", t, |a| {
        gam(a).map_or(0.0, |g| g.high_speed_5g_fraction)
    })?;
    s.col("apps.gam_handovers", t, |a| {
        gam(a).map_or(0, |g| to_u64(g.handovers))
    })?;
    let games = || t.iter().filter_map(gam);
    s.list(
        "apps.gam_bitrate_mbps",
        games().flat_map(|g| g.bitrate_mbps.iter().copied()),
    )?;
    s.list(
        "apps.gam_latency_ms",
        games().flat_map(|g| g.latency_ms.iter().copied()),
    )?;

    let t = &ds.audits;
    s.col("audits.test_id", t, |a| a.test_id)?;
    s.col("audits.operator", t, |a| op_code(a.operator))?;
    s.col("audits.kind", t, |a| kind_code(a.kind))?;
    s.col("audits.day", t, |a| a.day)?;
    s.col("audits.scheduled_ms", t, |a| a.scheduled.as_millis())?;
    s.col("audits.status", t, |a| status_code(a.status))?;
    s.col("audits.attempts", t, |a| a.attempts)?;
    s.col("audits.fault", t, |a| opt_code(a.fault, fault_code))?;
    s.col("audits.planned_samples", t, |a| a.planned_samples)?;
    s.col("audits.recorded_samples", t, |a| a.recorded_samples)?;
    s.col("audits.lost_samples", t, |a| a.lost_samples)?;

    s.col("cells.operator", &ds.unique_cells, |&(op, _)| op_code(op))?;
    s.col("cells.count", &ds.unique_cells, |&(_, n)| to_u64(n))?;
    s.col("runtime.operator", &ds.runtime_min, |&(op, _)| op_code(op))?;
    s.col("runtime.min", &ds.runtime_min, |&(_, min)| min)?;

    s.col("scalar.rx_bytes", &[ds.rx_bytes], |&v| v)?;
    s.col("scalar.tx_bytes", &[ds.tx_bytes], |&v| v)?;
    s.col("scalar.log_bytes", &[ds.log_bytes], |&v| v)
}

/// Streaming section emitter: tracks the absolute file offset so the
/// pad-to-8 math works against any `io::Write` sink (the in-memory
/// buffer's length is not available once the bytes go straight to a
/// file). One scratch buffer is reused across sections, so peak memory
/// is one column's payload, not the whole file image.
struct SectionWriter<W: io::Write> {
    w: W,
    pos: u64,
    scratch: Vec<u8>,
    /// Columns written so far.
    written: usize,
}

impl<W: io::Write> SectionWriter<W> {
    fn put(&mut self, bytes: &[u8]) -> Result<(), WcdError> {
        self.w.write_all(bytes)?;
        self.pos += len64(bytes.len())?;
        Ok(())
    }

    fn section<T: Elem>(
        &mut self,
        name: &str,
        values: impl Iterator<Item = T>,
    ) -> Result<(), WcdError> {
        self.written += 1;
        self.scratch.clear();
        for v in values {
            v.put(&mut self.scratch);
        }
        let elems = len64(self.scratch.len() / std::mem::size_of::<T>())?;
        let name_len = u8::try_from(name.len())
            .map_err(|_| WcdError::Invalid(format!("column name {name:?} exceeds 255 bytes")))?;
        let sum = fnv1a64(&self.scratch);
        self.put(&[T::TAG, name_len])?;
        self.put(name.as_bytes())?;
        self.put(&elems.to_le_bytes())?;
        self.put(&sum.to_le_bytes())?;
        while !self.pos.is_multiple_of(8) {
            self.put(&[0])?;
        }
        self.w.write_all(&self.scratch)?;
        self.pos += len64(self.scratch.len())?;
        Ok(())
    }
}

impl<W: io::Write> ColumnSink for SectionWriter<W> {
    fn col<R, T: Elem>(
        &mut self,
        name: &'static str,
        rows: &[R],
        f: impl Fn(&R) -> T,
    ) -> Result<(), WcdError> {
        self.section(name, rows.iter().map(f))
    }

    fn list<T: Elem>(
        &mut self,
        name: &'static str,
        values: impl Iterator<Item = T>,
    ) -> Result<(), WcdError> {
        self.section(name, values)
    }
}

fn len64(n: usize) -> Result<u64, WcdError> {
    u64::try_from(n).map_err(|_| WcdError::Invalid("column length exceeds u64".to_string()))
}

fn len32(n: usize) -> u32 {
    u32::try_from(n).expect("a per-run series exceeds u32 elements")
}

/// Serialize a dataset straight into `w`, section by section, each
/// column read straight off the row tables. Peak memory is one column's
/// payload (the checksum needs the serialized bytes before the header is
/// written), never the full encoded image — the `dataset --format bin`
/// export streams through here. Bytes produced are identical to
/// [`encode`].
pub fn encode_to<W: io::Write>(ds: &Dataset, w: W) -> Result<(), WcdError> {
    let mut s = SectionWriter {
        w,
        pos: 0,
        scratch: Vec::new(),
        written: 0,
    };
    s.put(MAGIC)?;
    s.put(
        &u32::try_from(COLUMNS)
            .expect("small catalogue")
            .to_le_bytes(),
    )?;
    columns(ds, &mut s)?;
    assert_eq!(s.written, COLUMNS, "the catalogue has COLUMNS columns");
    Ok(())
}

/// Serialize a dataset to WCD1 bytes in memory.
pub fn encode(ds: &Dataset) -> Vec<u8> {
    let mut out = Vec::new();
    encode_to(ds, &mut out).expect("encoding to memory cannot fail");
    out
}

/// Streaming reader over the section catalogue.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], WcdError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| WcdError::Invalid(format!("file truncated reading {what}")))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u64le(&mut self, what: &str) -> Result<u64, WcdError> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8, what)?);
        Ok(u64::from_le_bytes(b))
    }

    fn align8(&mut self) {
        self.pos = (self.pos + 7) & !7;
    }

    /// Read one section header and its checksum-verified payload.
    fn section(&mut self) -> Result<(&'a str, u8, Col<'a>), WcdError> {
        let tag = self.take(1, "section tag")?[0];
        let width =
            tag_width(tag).ok_or_else(|| WcdError::Invalid(format!("unknown column tag {tag}")))?;
        let name_len = usize::from(self.take(1, "name length")?[0]);
        let name = std::str::from_utf8(self.take(name_len, "column name")?)
            .map_err(|_| WcdError::Invalid("column name is not UTF-8".to_string()))?;
        let elems = self.u64le("element count")?;
        let stored_sum = self.u64le("checksum")?;
        let len = usize::try_from(elems)
            .ok()
            .filter(|n| n.checked_mul(width).is_some())
            .ok_or_else(|| WcdError::Invalid(format!("column {name} too large for memory")))?;
        self.align8();
        let bytes = self.take(len * width, "column payload")?;
        if fnv1a64(bytes) != stored_sum {
            return Err(WcdError::Checksum(format!("column {name}")));
        }
        Ok((name, tag, Col { bytes, len }))
    }
}

/// One checksummed section payload, borrowed from the input. Its tag
/// was checked against the catalogue, so each accessor reads the width
/// the column was written with.
#[derive(Debug, Clone, Copy, Default)]
struct Col<'a> {
    bytes: &'a [u8],
    /// Element count.
    len: usize,
}

impl Col<'_> {
    fn word<const N: usize>(self, i: usize) -> [u8; N] {
        let mut b = [0u8; N];
        b.copy_from_slice(&self.bytes[N * i..N * (i + 1)]);
        b
    }

    fn u8(self, i: usize) -> u8 {
        self.bytes[i]
    }

    fn u32(self, i: usize) -> u32 {
        u32::from_le_bytes(self.word(i))
    }

    fn u64(self, i: usize) -> u64 {
        u64::from_le_bytes(self.word(i))
    }

    fn f64(self, i: usize) -> f64 {
        f64::from_le_bytes(self.word(i))
    }

    fn bool(self, i: usize) -> Result<bool, WcdError> {
        bool_from(self.u8(i))
    }

    fn time(self, i: usize) -> SimTime {
        SimTime(self.u64(i))
    }
}

/// Deserialize WCD1 bytes into a dataset. Strict: every check listed in
/// the module docs must pass, so a file either loads whole or is an
/// `Err`; no row is allocated until the catalogue and the row counts
/// have been checked.
pub fn decode(bytes: &[u8]) -> Result<Dataset, WcdError> {
    let cols = catalogue(bytes)?;
    let [.., rx, tx, log] = cols;
    let mut c = cols.as_slice();
    Ok(Dataset {
        tput: tput_rows(take(&mut c))?,
        rtt: rtt_rows(take(&mut c))?,
        coverage: coverage_rows(take(&mut c))?,
        runs: run_rows(take(&mut c))?,
        handovers: handover_rows(take(&mut c))?,
        apps: app_rows(take(&mut c))?,
        audits: audit_rows(take(&mut c))?,
        unique_cells: {
            let [op, count] = take(&mut c);
            rows(op.len, |i| {
                Ok((op_from(op.u8(i))?, to_usize(count.u64(i), "cell")?))
            })?
        },
        runtime_min: {
            let [op, min] = take(&mut c);
            rows(op.len, |i| Ok((op_from(op.u8(i))?, min.f64(i))))?
        },
        rx_bytes: rx.f64(0),
        tx_bytes: tx.f64(0),
        log_bytes: log.f64(0),
    })
}

/// The next `N` catalogue columns.
fn take<'a, const N: usize>(cols: &mut &[Col<'a>]) -> [Col<'a>; N] {
    let (head, rest) = cols
        .split_first_chunk()
        .expect("the catalogue holds every table's columns");
    *cols = rest;
    *head
}

/// Reads a file's sections in step with [`columns`], checking each
/// checksum, name and tag, and that the columns of each table agree on
/// its row count.
struct CatalogueCheck<'a> {
    r: Reader<'a>,
    cols: [Col<'a>; COLUMNS],
    read: usize,
    /// Table of the last row column, and its row count.
    table: (&'static str, usize),
}

impl<'a> CatalogueCheck<'a> {
    fn section<T: Elem>(&mut self, name: &'static str) -> Result<Col<'a>, WcdError> {
        let (got, tag, col) = self.r.section()?;
        if got != name {
            return Err(WcdError::Invalid(format!(
                "expected column {name}, file has {got}"
            )));
        }
        if tag != T::TAG {
            return Err(WcdError::Invalid(format!(
                "column {name}: expected tag {}, file has {tag}",
                T::TAG
            )));
        }
        self.cols[self.read] = col;
        self.read += 1;
        Ok(col)
    }
}

impl ColumnSink for CatalogueCheck<'_> {
    fn col<R, T: Elem>(
        &mut self,
        name: &'static str,
        _: &[R],
        _: impl Fn(&R) -> T,
    ) -> Result<(), WcdError> {
        let col = self.section::<T>(name)?;
        let table = name.split_once('.').map_or(name, |(t, _)| t);
        if table != self.table.0 {
            self.table = (table, col.len);
        } else if col.len != self.table.1 {
            return Err(WcdError::Invalid(format!(
                "column {name} holds {} rows where its table has {}",
                col.len, self.table.1
            )));
        }
        Ok(())
    }

    fn list<T: Elem>(
        &mut self,
        name: &'static str,
        _: impl Iterator<Item = T>,
    ) -> Result<(), WcdError> {
        self.section::<T>(name).map(drop)
    }
}

/// Read and checksum every section and check the catalogue, the row
/// counts and the file's end: everything [`decode`] verifies before it
/// allocates a row.
fn catalogue(bytes: &[u8]) -> Result<[Col<'_>; COLUMNS], WcdError> {
    let mut r = Reader { bytes, pos: 0 };
    if r.take(4, "magic").ok() != Some(MAGIC.as_slice()) {
        return Err(WcdError::Invalid("missing WCD1 magic".to_string()));
    }
    let mut count = [0u8; 4];
    count.copy_from_slice(r.take(4, "column count")?);
    let declared = u32::from_le_bytes(count);
    if usize::try_from(declared).ok() != Some(COLUMNS) {
        return Err(WcdError::Invalid(format!(
            "catalogue declares {declared} columns, schema expects {COLUMNS}"
        )));
    }
    let mut check = CatalogueCheck {
        r,
        cols: [Col::default(); COLUMNS],
        read: 0,
        table: ("", 0),
    };
    columns(&Dataset::default(), &mut check)?;
    assert_eq!(check.read, COLUMNS, "the catalogue has COLUMNS columns");
    let end = check.r.pos;
    if end != bytes.len() {
        return Err(WcdError::Invalid(format!(
            "{} trailing bytes after last column",
            bytes.len() - end
        )));
    }
    // The last table, `scalar`, has exactly one row.
    if check.table.1 != 1 {
        return Err(WcdError::Invalid(
            "scalar columns must hold exactly one element".to_string(),
        ));
    }
    Ok(check.cols)
}

/// Build `n` rows, allocating once.
fn rows<T>(
    n: usize,
    mut row: impl FnMut(usize) -> Result<T, WcdError>,
) -> Result<Vec<T>, WcdError> {
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        out.push(row(i)?);
    }
    Ok(out)
}

fn tput_rows(
    [t, test_id, operator, direction, mbps, tech, cell, speed_mph, zone, tz, server, rsrp_dbm, mcs,
     bler, carriers, handovers_in_bin, driving]: [Col<'_>; 17],
) -> Result<Vec<TputSample>, WcdError> {
    rows(t.len, |i| {
        Ok(TputSample {
            t: t.time(i),
            test_id: test_id.u32(i),
            operator: op_from(operator.u8(i))?,
            direction: dir_from(direction.u8(i))?,
            mbps: mbps.f64(i),
            tech: tech_from(tech.u8(i))?,
            cell: cell.u32(i),
            speed_mph: speed_mph.f64(i),
            zone: zone_from(zone.u8(i))?,
            tz: tz_from(tz.u8(i))?,
            server: server_from(server.u8(i))?,
            rsrp_dbm: rsrp_dbm.f64(i),
            mcs: mcs.u8(i),
            bler: bler.f64(i),
            carriers: carriers.u8(i),
            handovers_in_bin: handovers_in_bin.u8(i),
            driving: driving.bool(i)?,
        })
    })
}

fn rtt_rows(
    [t, test_id, operator, rtt_valid, rtt_ms, tech, speed_mph, tz, server, driving]: [Col<'_>; 10],
) -> Result<Vec<RttSample>, WcdError> {
    rows(t.len, |i| {
        Ok(RttSample {
            t: t.time(i),
            test_id: test_id.u32(i),
            operator: op_from(operator.u8(i))?,
            rtt_ms: rtt_valid.bool(i)?.then(|| rtt_ms.f64(i)),
            tech: tech_from(tech.u8(i))?,
            speed_mph: speed_mph.f64(i),
            tz: tz_from(tz.u8(i))?,
            server: server_from(server.u8(i))?,
            driving: driving.bool(i)?,
        })
    })
}

fn coverage_rows(
    [t, operator, tech, direction, miles, speed_mph, tz, zone]: [Col<'_>; 8],
) -> Result<Vec<CoverageSample>, WcdError> {
    rows(t.len, |i| {
        Ok(CoverageSample {
            t: t.time(i),
            operator: op_from(operator.u8(i))?,
            tech: opt_from(tech.u8(i), tech_from)?,
            direction: opt_from(direction.u8(i), dir_from)?,
            miles: miles.f64(i),
            speed_mph: speed_mph.f64(i),
            tz: tz_from(tz.u8(i))?,
            zone: zone_from(zone.u8(i))?,
        })
    })
}

fn run_rows(
    [id, kind, operator, start, end, miles, tz, server, hs5g_fraction, handovers, driving,
     partial]: [Col<'_>; 12],
) -> Result<Vec<TestRun>, WcdError> {
    rows(id.len, |i| {
        Ok(TestRun {
            id: id.u32(i),
            kind: kind_from(kind.u8(i))?,
            operator: op_from(operator.u8(i))?,
            start: start.time(i),
            end: end.time(i),
            miles: miles.f64(i),
            tz: tz_from(tz.u8(i))?,
            server: server_from(server.u8(i))?,
            hs5g_fraction: hs5g_fraction.f64(i),
            handovers: handovers.u32(i),
            driving: driving.bool(i)?,
            partial: partial.bool(i)?,
        })
    })
}

fn handover_rows(
    [start, duration_ms, from_cell, to_cell, from_tech, to_tech, kind, operator, test_valid,
     test_id, direction]: [Col<'_>; 11],
) -> Result<Vec<TaggedHandover>, WcdError> {
    rows(start.len, |i| {
        Ok(TaggedHandover {
            event: HandoverEvent {
                start: start.time(i),
                duration: SimDuration::from_millis(duration_ms.u64(i)),
                from_cell: CellId(from_cell.u32(i)),
                to_cell: CellId(to_cell.u32(i)),
                from_tech: tech_from(from_tech.u8(i))?,
                to_tech: tech_from(to_tech.u8(i))?,
                kind: ho_from(kind.u8(i))?,
            },
            operator: op_from(operator.u8(i))?,
            test_id: test_valid.bool(i)?.then(|| test_id.u32(i)),
            direction: opt_from(direction.u8(i), dir_from)?,
        })
    })
}

/// Cursor over one of the apps table's lists (see [`ColumnSink::list`]):
/// each row with stats takes the next `n` elements.
struct List<'a> {
    col: Col<'a>,
    at: usize,
}

impl<'a> List<'a> {
    fn new(col: Col<'a>) -> Self {
        List { col, at: 0 }
    }

    fn take(&mut self, n: u32, what: &str) -> Result<Range<usize>, WcdError> {
        let end = self.at + idx(n);
        if end > self.col.len {
            return Err(WcdError::Invalid(format!(
                "apps {what} lengths overrun their list"
            )));
        }
        Ok(std::mem::replace(&mut self.at, end)..end)
    }

    fn f64s(&mut self, n: u32, what: &str) -> Result<Vec<f64>, WcdError> {
        let col = self.col;
        Ok(self.take(n, what)?.map(|j| col.f64(j)).collect())
    }

    fn finish(&self, what: &str) -> Result<(), WcdError> {
        if self.at != self.col.len {
            return Err(WcdError::Invalid(format!(
                "apps {what} list holds elements no row accounts for"
            )));
        }
        Ok(())
    }
}

fn app_rows(
    [id, operator, kind, server, driving, off_valid, off_e2e_len, off_frames_offloaded,
     off_frames_total, off_compressed, off_hs5g, off_handovers, off_e2e_ms, vid_valid,
     vid_chunks_len, vid_hs5g, vid_handovers, vid_bitrate_mbps, vid_rebuffer_s, vid_qoe, gam_valid,
     gam_bitrate_len, gam_latency_len, gam_frames_dropped, gam_frames_sent, gam_hs5g,
     gam_handovers, gam_bitrate_mbps, gam_latency_ms]: [Col<'_>; 29],
) -> Result<Vec<AppRun>, WcdError> {
    let mut e2e = List::new(off_e2e_ms);
    let mut bitrate = List::new(vid_bitrate_mbps);
    let mut rebuffer = List::new(vid_rebuffer_s);
    let mut qoe = List::new(vid_qoe);
    let mut gam_bitrate = List::new(gam_bitrate_mbps);
    let mut gam_latency = List::new(gam_latency_ms);
    let apps = rows(id.len, |i| {
        let offload = if off_valid.bool(i)? {
            Some(OffloadStats {
                e2e_ms: e2e.f64s(off_e2e_len.u32(i), "offload e2e")?,
                frames_offloaded: to_usize(off_frames_offloaded.u64(i), "frames_offloaded")?,
                frames_total: to_usize(off_frames_total.u64(i), "frames_total")?,
                compressed: off_compressed.bool(i)?,
                high_speed_5g_fraction: off_hs5g.f64(i),
                handovers: to_usize(off_handovers.u64(i), "handovers")?,
            })
        } else {
            None
        };
        let video = if vid_valid.bool(i)? {
            let n = vid_chunks_len.u32(i);
            let (b, r, q) = (
                bitrate.take(n, "video chunk")?,
                rebuffer.take(n, "video chunk")?,
                qoe.take(n, "video chunk")?,
            );
            Some(VideoStats {
                chunks: b
                    .zip(r)
                    .zip(q)
                    .map(|((b, r), q)| ChunkRecord {
                        bitrate_mbps: vid_bitrate_mbps.f64(b),
                        rebuffer_s: vid_rebuffer_s.f64(r),
                        qoe: vid_qoe.f64(q),
                    })
                    .collect(),
                high_speed_5g_fraction: vid_hs5g.f64(i),
                handovers: to_usize(vid_handovers.u64(i), "handovers")?,
            })
        } else {
            None
        };
        let gaming = if gam_valid.bool(i)? {
            Some(GamingStats {
                bitrate_mbps: gam_bitrate.f64s(gam_bitrate_len.u32(i), "gaming bitrate")?,
                latency_ms: gam_latency.f64s(gam_latency_len.u32(i), "gaming latency")?,
                frames_dropped: to_usize(gam_frames_dropped.u64(i), "frames_dropped")?,
                frames_sent: to_usize(gam_frames_sent.u64(i), "frames_sent")?,
                high_speed_5g_fraction: gam_hs5g.f64(i),
                handovers: to_usize(gam_handovers.u64(i), "handovers")?,
            })
        } else {
            None
        };
        Ok(AppRun {
            id: id.u32(i),
            operator: op_from(operator.u8(i))?,
            kind: kind_from(kind.u8(i))?,
            server: server_from(server.u8(i))?,
            driving: driving.bool(i)?,
            offload,
            video,
            gaming,
        })
    })?;
    e2e.finish("offload e2e")?;
    bitrate.finish("video bitrate")?;
    rebuffer.finish("video rebuffer")?;
    qoe.finish("video qoe")?;
    gam_bitrate.finish("gaming bitrate")?;
    gam_latency.finish("gaming latency")?;
    Ok(apps)
}

fn audit_rows(
    [test_id, operator, kind, day, scheduled, status, attempts, fault, planned_samples,
     recorded_samples, lost_samples]: [Col<'_>; 11],
) -> Result<Vec<TestAudit>, WcdError> {
    rows(test_id.len, |i| {
        Ok(TestAudit {
            test_id: test_id.u32(i),
            operator: op_from(operator.u8(i))?,
            kind: kind_from(kind.u8(i))?,
            day: day.u8(i),
            scheduled: scheduled.time(i),
            status: status_from(status.u8(i))?,
            attempts: attempts.u32(i),
            fault: opt_from(fault.u8(i), fault_from)?,
            planned_samples: planned_samples.u32(i),
            recorded_samples: recorded_samples.u32(i),
            lost_samples: lost_samples.u32(i),
        })
    })
}

/// Encode and persist via the checkpoint crash-safety discipline
/// (temp file + fsync + atomic rename), streaming sections to the
/// temp file instead of materializing the encoded image in memory.
pub fn write_file(path: &Path, ds: &Dataset) -> Result<(), WcdError> {
    write_atomic_with(path, |w| encode_to(ds, w))
}

#[cfg(test)]
mod tests {
    use wheels_ran::operator::Operator;

    use super::*;

    #[test]
    fn empty_dataset_encodes_and_decodes() {
        let ds = Dataset::default();
        let bytes = encode(&ds);
        assert_eq!(&bytes[..4], MAGIC);
        let back = decode(&bytes).expect("decodes");
        assert_eq!(back, ds);
    }

    #[test]
    fn payloads_are_8_byte_aligned() {
        // Corrupting any payload byte must be caught; alignment is part
        // of the frame math, so a decode success proves both.
        let ds = Dataset {
            rx_bytes: 1.5,
            ..Dataset::default()
        };
        let bytes = encode(&ds);
        let back = decode(&bytes).expect("decodes");
        assert_eq!(back.rx_bytes, 1.5);
    }

    /// An `io::Write` that forwards one byte per `write` call, forcing
    /// the section writer's running-offset pad math to survive
    /// arbitrarily fragmented sinks.
    struct DribbleWriter(Vec<u8>);

    impl io::Write for DribbleWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            match buf.first() {
                Some(&b) => {
                    self.0.push(b);
                    Ok(1)
                }
                None => Ok(0),
            }
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn streamed_encode_is_byte_identical() {
        let ds = Dataset {
            rx_bytes: 3.25,
            tx_bytes: 0.5,
            log_bytes: 9.0,
            unique_cells: vec![(Operator::Verizon, 10), (Operator::TMobile, 20)],
            ..Dataset::default()
        };
        let mut dribbled = DribbleWriter(Vec::new());
        encode_to(&ds, &mut dribbled).expect("streamed encode succeeds");
        assert_eq!(dribbled.0, encode(&ds));
    }

    #[test]
    fn write_file_streams_the_same_bytes() {
        let dir = std::env::temp_dir().join("wheels-wcd-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.wcd");
        let ds = Dataset {
            log_bytes: 42.0,
            runtime_min: vec![(Operator::Att, 1.0), (Operator::Verizon, 2.0)],
            ..Dataset::default()
        };
        write_file(&path, &ds).expect("streamed file write succeeds");
        assert_eq!(std::fs::read(&path).unwrap(), encode(&ds));
        assert!(!dir.join("stream.wcd.tmp").exists());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corruption_is_detected() {
        let ds = Dataset {
            log_bytes: 7.25,
            ..Dataset::default()
        };
        let mut bytes = encode(&ds);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(decode(&bytes).is_err(), "flipped payload bit must fail");
        assert!(
            decode(&bytes[..bytes.len() - 9]).is_err(),
            "truncation must fail"
        );
        assert!(
            decode(b"WCJ2----").is_err(),
            "journal magic is not a dataset"
        );
    }
}
