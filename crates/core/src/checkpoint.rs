//! Crash-safe campaign checkpointing — the platform-level half of
//! challenge \[C2\].
//!
//! The paper's campaign is a multi-day drive; a mid-run death of the
//! collection host must not cost the miles already driven. This module
//! persists the segment-parallel engine's progress as an **append-only
//! shard journal**: as each (operator × trace-day segment) shard
//! completes, its records ([`ShardRecords`]: the shard dataset, the
//! `TestAudit` ledger rows inside it, and the shard's served-cell set)
//! are appended as one length-prefixed, checksummed frame. A run killed
//! at *any byte* can be restarted with the same configuration: completed
//! shards replay from the journal, the torn or corrupt tail frame (if
//! the kill landed mid-append) is detected and truncated away, and only
//! the missing shards are re-simulated — the merged result is
//! bit-identical to an uninterrupted run (`tests/crash_resume.rs`).
//!
//! # Journal format
//!
//! ```text
//! "WCJ2"                                     4-byte magic
//! frame        header: JSON Fingerprint      run identity (see below)
//! frame*       one per completed shard: binary shard payload
//!
//! frame := len: u32 LE | fnv1a64(payload): u64 LE | payload bytes
//! shard payload := job: u64 LE | operator code: u8
//!                | cell count: u32 LE | cells: u32 LE*
//!                | WCD1 image of the shard dataset
//! ```
//!
//! The shard payload reuses the WCD1 columnar codec (`column::wcd`) for
//! the dataset, so replaying a frame is a checksum pass plus reading
//! rows out of fixed-width sections rather than a JSON parse, and
//! non-finite floats survive bit-for-bit. Only the small identity
//! header stays JSON. A journal written by the older JSON-framed format
//! (magic `WCJ1`) is refused by name; it must be re-run with
//! `--checkpoint`.
//!
//! The journal is *created* via temp-file + atomic rename (a kill during
//! creation leaves either no journal or a complete header, never a
//! half-written one); shard frames are then appended sequentially and
//! synced, so a kill mid-append leaves at most one torn tail frame. On
//! resume, the first frame whose length or checksum does not hold marks
//! the torn tail: it and everything after it are truncated away. A
//! checksum can only vouch for bytes that were fully written, so
//! anything beyond the first bad frame is unreliable by construction.
//!
//! # Fingerprint rule
//!
//! Frames are only as trustworthy as the run that wrote them. The header
//! records a [`Fingerprint`] of everything the shard plan and shard
//! contents depend on — seed, scale knobs (cycles, stride, apps, static,
//! sub-day splits), the full [`FaultConfig`], and the derived plan shape
//! (segment and job counts). `threads` is deliberately absent: the
//! engine guarantees thread-count invariance, so a journal written at
//! `--threads 1` may be resumed at `--threads 8`. Any other difference
//! is refused with a field-by-field diagnostic — a journal is never
//! silently merged into a run it does not belong to.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize, Value};
use wheels_ran::cells::CellId;

use crate::column::{op_code, op_from, wcd};
use crate::disrupt::FaultConfig;
use crate::records::ShardRecords;

/// File name of the shard journal inside a checkpoint directory.
pub const JOURNAL_FILE: &str = "journal.wcj";

/// Journal magic + format version.
const MAGIC: &[u8; 4] = b"WCJ2";

/// Magic of the retired JSON-framed format, recognized only so it can
/// be refused by name.
const OLD_MAGIC: &[u8; 4] = b"WCJ1";

/// Bytes of frame framing ahead of the payload (u32 length + u64 checksum).
const FRAME_HEADER: usize = 12;

/// Everything a checkpointed run's output depends on, minus the worker
/// count. Two runs with equal fingerprints execute the same shard plan
/// and produce the same shard records, so their journal frames are
/// interchangeable; anything else must be refused.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fingerprint {
    /// Master seed.
    pub seed: u64,
    /// Cycle cap (`CampaignConfig::max_cycles`).
    pub max_cycles: Option<usize>,
    /// App tests included in each cycle.
    pub include_apps: bool,
    /// Static city baselines included.
    pub include_static: bool,
    /// Trace start offset.
    pub start_at_sample: usize,
    /// Idle gap after each cycle (seconds).
    pub cycle_stride_s: u64,
    /// Sub-day shard split.
    pub shard_cycles: Option<usize>,
    /// The full fault-injection configuration (schedules are part of the
    /// shard contents, so any change invalidates recorded frames).
    pub faults: FaultConfig,
    /// Drive segments per operator in the shard plan.
    pub segments: usize,
    /// Total jobs in the shard plan (all operators).
    pub jobs: usize,
}

impl Fingerprint {
    /// Human-readable field-by-field differences, for the refusal
    /// diagnostic (`self` = requested run, `other` = journal header),
    /// values rendered as JSON. Walks the serialized fields, so a field
    /// added to the struct is compared without being listed here.
    fn diff(&self, other: &Fingerprint) -> Vec<String> {
        let fields = |fp: &Fingerprint| match fp.to_value() {
            Value::Object(fields) => fields,
            _ => Vec::new(),
        };
        let json = |v: &Value| serde_json::to_string(v).unwrap_or_default();
        fields(self)
            .into_iter()
            .zip(fields(other))
            .filter(|((_, want), (_, got))| want != got)
            .map(|((name, want), (_, got))| {
                format!(
                    "{name}: run has {}, journal has {}",
                    json(&want),
                    json(&got)
                )
            })
            .collect()
    }
}

/// The byte span of one intact shard frame inside the journal file
/// (length prefix and checksum included), as handed out by
/// [`Journal::resume_indexed`] and [`Journal::append`]. A span is a
/// claim that the frame was checksum-verified (resume) or freshly
/// written and synced (append); [`JournalReader::read_frame`]
/// re-verifies the checksum on every read anyway.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrameSpan {
    /// Offset of the frame's length prefix.
    pub start: u64,
    /// Offset just past the frame payload.
    pub end: u64,
}

/// Why a checkpoint operation failed.
#[derive(Debug)]
pub enum CheckpointError {
    /// An underlying filesystem operation failed.
    Io(io::Error),
    /// The journal is missing, not a journal, or structurally unusable
    /// (e.g. its identity header is torn — nothing can be verified).
    Invalid(String),
    /// The journal belongs to a different run; the diagnostic lists the
    /// mismatching fingerprint fields.
    Mismatch(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Invalid(d) => write!(f, "invalid checkpoint journal: {d}"),
            CheckpointError::Mismatch(d) => {
                write!(f, "checkpoint journal belongs to a different run: {d}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// FNV-1a 64-bit — a small, dependency-free integrity checksum. It only
/// needs to catch torn writes and bit rot, not adversaries. Shared with
/// the WCD1 columnar dataset format (`column::wcd`).
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Finish a frame whose payload was written after `FRAME_HEADER`
/// reserved bytes: fill in the length prefix and checksum in place, so
/// the payload is never copied.
fn seal_frame(mut frame: Vec<u8>) -> Result<Vec<u8>, CheckpointError> {
    let payload = &frame[FRAME_HEADER..];
    let len = u32::try_from(payload.len())
        .map_err(|_| CheckpointError::Invalid("frame payload exceeds u32 length".to_string()))?;
    let sum = fnv1a64(payload);
    frame[..4].copy_from_slice(&len.to_le_bytes());
    frame[4..FRAME_HEADER].copy_from_slice(&sum.to_le_bytes());
    Ok(frame)
}

/// Encode one completed shard as a sealed journal frame (envelope
/// included): the fixed prefix — job, operator code, served cells —
/// then the WCD1 image of the shard dataset. Pure CPU work with no
/// journal access, so a campaign worker encodes before it takes the
/// journal lock and the lock covers only the write and its sync.
pub fn encode_shard_frame(job: usize, records: &ShardRecords) -> Result<Vec<u8>, CheckpointError> {
    let job = u64::try_from(job)
        .map_err(|_| CheckpointError::Invalid("shard job index exceeds u64".to_string()))?;
    let cells = u32::try_from(records.cells.len())
        .map_err(|_| CheckpointError::Invalid("shard cell list exceeds u32 length".to_string()))?;
    let mut frame = vec![0u8; FRAME_HEADER];
    frame.extend_from_slice(&job.to_le_bytes());
    frame.push(op_code(records.operator));
    frame.extend_from_slice(&cells.to_le_bytes());
    frame.extend(records.cells.iter().flat_map(|c| c.0.to_le_bytes()));
    wcd::encode_to(&records.dataset, &mut frame)
        .map_err(|e| CheckpointError::Invalid(format!("cannot encode shard frame: {e}")))?;
    seal_frame(frame)
}

/// Decode one shard-frame payload (the bytes inside the envelope, as
/// written by [`encode_shard_frame`]) into its job index and records.
/// `pos` is the frame's journal offset, for the diagnostic only. Every
/// replay path — [`tail_from`] and [`JournalReader::read_frame`] —
/// decodes through here. Strict like WCD1 itself: the payload is
/// checked section by section and must be consumed exactly, so a frame
/// either decodes whole or is an error.
pub fn decode_shard_frame(
    payload: &[u8],
    pos: usize,
) -> Result<(usize, ShardRecords), CheckpointError> {
    let bad = |what: String| {
        CheckpointError::Invalid(format!(
            "checksummed frame at byte {pos} does not decode: {what}"
        ))
    };
    let (job, rest) = frame_job(payload, pos)?;
    let (&op, rest) = rest
        .split_first()
        .ok_or_else(|| bad("missing operator code".to_string()))?;
    let operator = op_from(op).map_err(|e| bad(e.to_string()))?;
    let (count, rest) = rest
        .split_first_chunk::<4>()
        .ok_or_else(|| bad("missing cell count".to_string()))?;
    let cell_bytes = usize::try_from(u32::from_le_bytes(*count))
        .ok()
        .and_then(|n| n.checked_mul(4))
        .filter(|&n| n <= rest.len())
        .ok_or_else(|| bad("cell list overruns the frame".to_string()))?;
    let (cells, image) = rest.split_at(cell_bytes);
    let cells = cells
        .chunks_exact(4)
        .map(|c| {
            let mut b = [0u8; 4];
            b.copy_from_slice(c);
            CellId(u32::from_le_bytes(b))
        })
        .collect();
    let dataset = wcd::decode(image).map_err(|e| bad(e.to_string()))?;
    Ok((
        job,
        ShardRecords {
            operator,
            dataset,
            cells,
        },
    ))
}

/// A journal file read front to back, one frame at a time: the frame
/// scan every reader shares. It holds one frame's payload and reads no
/// further than the frame it is on.
struct Frames {
    file: File,
    /// File offset of the next unread frame.
    pos: usize,
    /// Payload of the frame [`Frames::next`] last returned.
    payload: Vec<u8>,
}

impl Frames {
    /// Start reading `file`, the journal at `path`, after its magic.
    fn start(path: &Path, mut file: File) -> Result<Frames, CheckpointError> {
        let mut magic = [0u8; MAGIC.len()];
        let head: &[u8] = match file.read_exact(&mut magic) {
            Ok(()) => &magic,
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => &[],
            Err(e) => return Err(e.into()),
        };
        check_magic(path, head)?;
        Ok(Frames {
            file,
            pos: MAGIC.len(),
            payload: Vec::new(),
        })
    }

    /// Read the journal at `path` from byte `pos`, a frame boundary an
    /// earlier walk returned.
    fn resume(path: &Path, pos: u64) -> Result<Frames, CheckpointError> {
        use std::io::{Seek, SeekFrom};
        let mut file = File::open(path)?;
        file.seek(SeekFrom::Start(pos))?;
        Ok(Frames {
            file,
            pos: usize::try_from(pos).map_err(|_| too_long())?,
            payload: Vec::new(),
        })
    }

    /// Read the next frame into `payload` and return its start offset.
    /// `None` at the end of the file and at a torn frame (cut short, or
    /// failing its checksum); `pos` then stays at that frame's start.
    fn next(&mut self) -> Result<Option<usize>, CheckpointError> {
        let mut head = [0u8; FRAME_HEADER];
        match self.file.read_exact(&mut head) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(e.into()),
        }
        let (len4, sum8) = head.split_at(4);
        let len = u64::from(u32::from_le_bytes(len4.try_into().expect("4-byte length")));
        let stored = u64::from_le_bytes(sum8.try_into().expect("8-byte checksum"));
        // Room for the claimed payload, capped by what the file still
        // holds: one read fills it, and a corrupt length costs nothing.
        let body = file_offset(self.pos + FRAME_HEADER)?;
        let left = self.file.metadata()?.len().saturating_sub(body);
        self.payload.clear();
        self.payload
            .reserve(usize::try_from(len.min(left)).map_err(|_| too_long())?);
        (&mut self.file).take(len).read_to_end(&mut self.payload)?;
        if file_offset(self.payload.len())? != len || fnv1a64(&self.payload) != stored {
            return Ok(None);
        }
        let start = self.pos;
        self.pos += FRAME_HEADER + self.payload.len();
        Ok(Some(start))
    }
}

/// The error for a file offset that does not fit the other integer type.
fn too_long() -> CheckpointError {
    CheckpointError::Invalid("journal length exceeds u64".to_string())
}

/// A file offset as `u64`.
fn file_offset(pos: usize) -> Result<u64, CheckpointError> {
    u64::try_from(pos).map_err(|_| too_long())
}

/// Split the job index off a shard-frame payload's fixed prefix (its
/// first 8 bytes) without decoding the records. This is what lets a
/// resume build its frame index without materializing a single shard.
fn frame_job(payload: &[u8], pos: usize) -> Result<(usize, &[u8]), CheckpointError> {
    payload
        .split_first_chunk::<8>()
        .and_then(|(b, rest)| Some((usize::try_from(u64::from_le_bytes(*b)).ok()?, rest)))
        .ok_or_else(|| {
            CheckpointError::Invalid(format!(
                "checksummed frame at byte {pos} does not start with a job index"
            ))
        })
}

/// Check the journal magic at the head of `bytes`. A journal in the
/// retired JSON-framed format is refused by name, with the way out.
fn check_magic(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    if bytes.starts_with(MAGIC) {
        return Ok(());
    }
    if bytes.starts_with(OLD_MAGIC) {
        return Err(CheckpointError::Invalid(format!(
            "{} is a WCJ1 journal (JSON shard frames), a format this build no longer reads; \
             re-run the campaign with --checkpoint to write a WCJ2 journal",
            path.display()
        )));
    }
    Err(CheckpointError::Invalid(format!(
        "{} is not a wheels checkpoint journal (bad magic)",
        path.display()
    )))
}

/// Open `dir`'s journal, check its magic and verify its identity
/// header against `fp`. Returns the journal path and the walk, left at
/// the first shard frame. Shared by the resume paths and the read-only
/// [`tail`] replay.
fn open_verified(dir: &Path, fp: &Fingerprint) -> Result<(PathBuf, Frames), CheckpointError> {
    let path = Journal::file_path(dir);
    let file = match File::open(&path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return Err(CheckpointError::Invalid(format!(
                "no journal at {} — start the run with --checkpoint first",
                path.display()
            )));
        }
        Err(e) => return Err(e.into()),
    };
    let mut frames = Frames::start(&path, file)?;
    // The header must be intact: a journal whose identity cannot be
    // verified cannot be trusted at all.
    if frames.next()?.is_none() {
        return Err(CheckpointError::Invalid(format!(
            "{}: identity header is torn or missing — the journal cannot be verified",
            path.display()
        )));
    }
    let header_str = std::str::from_utf8(&frames.payload)
        .map_err(|_| CheckpointError::Invalid("identity header is not valid UTF-8".to_string()))?;
    let recorded: Fingerprint = serde_json::from_str(header_str)
        .map_err(|e| CheckpointError::Invalid(format!("unreadable identity header: {e}")))?;
    if recorded != *fp {
        return Err(CheckpointError::Mismatch(fp.diff(&recorded).join("; ")));
    }
    Ok((path, frames))
}

/// Where a journal tail stopped: the resume cursor a live follower
/// feeds back into [`tail_from`] on its next poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TailState {
    /// Byte offset of the first unconsumed frame — the end of the last
    /// intact frame delivered (or, equivalently, the start of the torn
    /// tail if the walk stopped at one). Resuming here makes polling
    /// incremental: nothing before this offset is ever re-read, and a
    /// frame that was torn on one poll and completed by the writer
    /// before the next is delivered exactly once.
    pub next_offset: u64,
    /// Frames delivered to the sink by this walk.
    pub delivered: usize,
}

/// Replay `dir`'s journal frame-by-frame into `sink`, in append order,
/// reading the file as it goes: it never holds more than one frame's
/// bytes and one decoded frame in memory. The
/// identity header is verified against `fp` exactly like a resume, but
/// the walk is strictly **read-only**: a torn tail stops the replay
/// (every intact frame before it is delivered) and is *not* truncated
/// away. `DatasetView::from_journal` and the `wheels-serve` live
/// follower read through it; a resumed campaign does not (it indexes the
/// journal with [`Journal::resume_indexed`], truncating any torn tail,
/// and decodes each frame when its drain reaches it). Returns the
/// [`TailState`] cursor; follow-up polls continue from it via
/// [`tail_from`].
pub fn tail(
    dir: &Path,
    fp: &Fingerprint,
    sink: impl FnMut(usize, ShardRecords) -> Result<(), CheckpointError>,
) -> Result<TailState, CheckpointError> {
    tail_from(dir, fp, None, sink)
}

/// [`tail`] with a resume cursor: `resume_at = Some(offset)` continues
/// a live follow from a prior [`TailState::next_offset`], reading only
/// the bytes at and after the offset — no full-journal re-read per
/// poll, and no header re-verification (the identity was pinned when
/// the follower attached with `resume_at = None`). The offset contract
/// makes the torn-tail race safe by construction: a poll that lands
/// mid-append stops *at* the torn frame's start and returns that
/// offset, so the next poll re-scans the now-completed frame and
/// delivers it exactly once — never skipped, never double-ingested.
/// Offsets must come from a prior tail of the same journal; an
/// arbitrary offset is harmless (a frame checksum cannot hold at a
/// misaligned position, so the walk just reports a torn tail) but
/// useless.
pub fn tail_from(
    dir: &Path,
    fp: &Fingerprint,
    resume_at: Option<u64>,
    mut sink: impl FnMut(usize, ShardRecords) -> Result<(), CheckpointError>,
) -> Result<TailState, CheckpointError> {
    let mut frames = match resume_at {
        None => open_verified(dir, fp)?.1,
        Some(off) => Frames::resume(&Journal::file_path(dir), off)?,
    };
    let mut delivered = 0usize;
    while let Some(start) = frames.next()? {
        let (job, records) = decode_shard_frame(&frames.payload, start)?;
        sink(job, records)?;
        delivered += 1;
    }
    Ok(TailState {
        next_offset: file_offset(frames.pos)?,
        delivered,
    })
}

/// Write `bytes` to `path` atomically: temp file in the same directory,
/// flush + fsync, then rename over the destination. Readers (and a
/// resumed run) see either the old content or the new, never a torn
/// intermediate. Shared by the journal header and the `dataset` binary's
/// JSON export.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    write_atomic_with(path, |w| w.write_all(bytes))
}

/// Streaming variant of [`write_atomic`]: `write` produces the content
/// incrementally into a buffered temp-file writer, so large documents
/// (the WCD1 dataset export) never need a full in-memory image. The
/// same crash guarantee holds — the rename only happens after the
/// writer is drained and fsynced, so readers see old content, new
/// content, or (for a fresh path) nothing, never a torn intermediate.
pub fn write_atomic_with<E: From<io::Error>>(
    path: &Path,
    write: impl FnOnce(&mut io::BufWriter<File>) -> Result<(), E>,
) -> Result<(), E> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut w = io::BufWriter::new(File::create(&tmp)?);
    write(&mut w)?;
    let f = w.into_inner().map_err(|e| e.into_error())?;
    f.sync_all()?;
    std::fs::rename(&tmp, path)?;
    // The rename is durable only once the *directory entry* is on disk:
    // fsyncing the file persists its bytes, but a crash before the
    // parent directory syncs can resurrect the old name (or no name at
    // all) on some filesystems. Journal creation rides through here, so
    // this is what makes "the journal exists" itself crash-safe.
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    fsync_dir(&parent)?;
    Ok(())
}

/// Count of parent-directory fsyncs issued, observable from the
/// durability unit test (`dir_is_synced_after_atomic_writes`).
#[cfg(test)]
static DIR_SYNCS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Fsync a directory so a just-renamed entry inside it survives power
/// loss. On platforms where directories cannot be opened for sync this
/// degrades to a no-op error propagation like any other io failure.
fn fsync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(test)]
    DIR_SYNCS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    File::open(dir)?.sync_all()
}

/// An open shard journal: created fresh (`--checkpoint`) or recovered
/// (`--resume`), then appended to as shards complete.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
}

impl Journal {
    /// The journal file path inside a checkpoint directory.
    pub fn file_path(dir: &Path) -> PathBuf {
        dir.join(JOURNAL_FILE)
    }

    /// Start a fresh journal in `dir` (created if missing), identified by
    /// `fp`. Overwrites any previous journal atomically: a kill during
    /// creation leaves either the old journal or the new header, never a
    /// hybrid.
    pub fn create(dir: &Path, fp: &Fingerprint) -> Result<Journal, CheckpointError> {
        std::fs::create_dir_all(dir)?;
        let json = serde_json::to_string(fp)
            .map_err(|e| CheckpointError::Invalid(format!("cannot serialize fingerprint: {e}")))?;
        let mut header = vec![0u8; FRAME_HEADER];
        header.extend_from_slice(json.as_bytes());
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&seal_frame(header)?);
        let path = Self::file_path(dir);
        write_atomic(&path, &bytes)?;
        Ok(Journal { path })
    }

    /// Recover the journal in `dir` for the run identified by `fp`
    /// **without materializing any shard**: verify the identity header,
    /// index every intact shard frame by its byte span, and truncate the
    /// torn/corrupt tail (everything from the first bad frame on) so
    /// subsequent appends extend a valid prefix. Returns the journal and
    /// the completed frame spans keyed by plan-order job index; decode a
    /// span on demand with [`JournalReader::read_frame`].
    pub fn resume_indexed(
        dir: &Path,
        fp: &Fingerprint,
    ) -> Result<(Journal, BTreeMap<usize, FrameSpan>), CheckpointError> {
        let (path, mut frames) = open_verified(dir, fp)?;
        let mut completed = BTreeMap::new();
        while let Some(start) = frames.next()? {
            let (job, _) = frame_job(&frames.payload, start)?;
            let span = FrameSpan {
                start: file_offset(start)?,
                end: file_offset(frames.pos)?,
            };
            completed.insert(job, span);
        }
        let valid_end = file_offset(frames.pos)?;
        if valid_end < frames.file.metadata()?.len() {
            // Torn tail: cut the journal back to its valid prefix so the
            // resumed run appends after the last intact frame.
            let f = OpenOptions::new().write(true).open(&path)?;
            f.set_len(valid_end)?;
            f.sync_all()?;
        }
        Ok((Journal { path }, completed))
    }

    /// A read-only handle on this journal's file, usable concurrently
    /// with appends (spans are only handed out for fully-synced bytes).
    pub fn reader(&self) -> JournalReader {
        JournalReader {
            path: self.path.clone(),
        }
    }

    /// Append one completed shard frame and sync it to disk. A kill
    /// anywhere inside this write leaves a torn tail that the next
    /// resume truncates. Returns the frame's byte span, which
    /// [`JournalReader::read_frame`] decodes.
    pub fn append(
        &mut self,
        job: usize,
        records: &ShardRecords,
    ) -> Result<FrameSpan, CheckpointError> {
        self.write_frame(&encode_shard_frame(job, records)?)
    }

    /// The one write path: append a frame sealed by
    /// [`encode_shard_frame`] and sync it. Callers that share a journal
    /// encode first and hold their lock only across this call.
    pub(crate) fn write_frame(&mut self, frame: &[u8]) -> Result<FrameSpan, CheckpointError> {
        let mut f = OpenOptions::new().append(true).open(&self.path)?;
        let start = f.metadata()?.len();
        f.write_all(frame)?;
        f.sync_data()?;
        let len = u64::try_from(frame.len())
            .map_err(|_| CheckpointError::Invalid("frame length exceeds u64".to_string()))?;
        Ok(FrameSpan {
            start,
            end: start + len,
        })
    }
}

/// A cloneable read-only view of a journal file: decodes single frames
/// by span, re-verifying the checksum on every read. A resumed campaign
/// decodes its replayed shards through this, one at a time, as its
/// merge reaches them.
#[derive(Debug, Clone)]
pub struct JournalReader {
    path: PathBuf,
}

impl JournalReader {
    /// Decode the shard frame at `span`, verifying its checksum.
    pub fn read_frame(&self, span: FrameSpan) -> Result<ShardRecords, CheckpointError> {
        let mut frames = Frames::resume(&self.path, span.start)?;
        match frames.next()? {
            Some(start) if file_offset(frames.pos)? == span.end => {
                Ok(decode_shard_frame(&frames.payload, start)?.1)
            }
            _ => Err(CheckpointError::Invalid(format!(
                "journal frame at bytes {}..{} failed re-verification — the file changed under a live run",
                span.start, span.end
            ))),
        }
    }
}

/// Byte offsets of every intact frame boundary in `dir`'s journal, in
/// order: the end of the identity header first, then the end of each
/// shard frame. These are exactly the kill points at which the file is
/// tear-free; the crash harness truncates at (and between) them.
pub fn frame_ends(dir: &Path) -> Result<Vec<u64>, CheckpointError> {
    let path = Journal::file_path(dir);
    let mut frames = Frames::start(&path, File::open(&path)?)?;
    let mut ends = Vec::new();
    while frames.next()?.is_some() {
        ends.push(file_offset(frames.pos)?);
    }
    Ok(ends)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::Dataset;
    use wheels_ran::cells::CellId;
    use wheels_ran::operator::Operator;

    fn fp(seed: u64) -> Fingerprint {
        Fingerprint {
            seed,
            max_cycles: Some(2),
            include_apps: false,
            include_static: false,
            start_at_sample: 0,
            cycle_stride_s: 40_000,
            shard_cycles: Some(1),
            faults: FaultConfig::default(),
            segments: 2,
            jobs: 6,
        }
    }

    fn rec(op: Operator) -> ShardRecords {
        let dataset = Dataset {
            rx_bytes: 12.5,
            ..Dataset::default()
        };
        ShardRecords {
            operator: op,
            dataset,
            cells: vec![CellId(3), CellId(7)],
        }
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("wheels-checkpoint-tests")
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn create_then_resume_empty() {
        let dir = tmpdir("ckpt_empty");
        Journal::create(&dir, &fp(1)).unwrap();
        let (_, done) = Journal::resume_indexed(&dir, &fp(1)).unwrap();
        assert!(done.is_empty());
    }

    #[test]
    fn append_and_replay() {
        let dir = tmpdir("ckpt_replay");
        let mut j = Journal::create(&dir, &fp(1)).unwrap();
        j.append(0, &rec(Operator::Verizon)).unwrap();
        j.append(3, &rec(Operator::Att)).unwrap();
        let (j2, done) = Journal::resume_indexed(&dir, &fp(1)).unwrap();
        let reader = j2.reader();
        assert_eq!(done.len(), 2);
        assert_eq!(reader.read_frame(done[&0]).unwrap(), rec(Operator::Verizon));
        assert_eq!(reader.read_frame(done[&3]).unwrap(), rec(Operator::Att));
    }

    #[test]
    fn resume_indexed_spans_decode_on_demand() {
        let dir = tmpdir("ckpt_indexed");
        let mut j = Journal::create(&dir, &fp(1)).unwrap();
        let s0 = j.append(0, &rec(Operator::Verizon)).unwrap();
        let s3 = j.append(3, &rec(Operator::Att)).unwrap();
        let (j2, spans) = Journal::resume_indexed(&dir, &fp(1)).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[&0], s0);
        assert_eq!(spans[&3], s3);
        let reader = j2.reader();
        assert_eq!(
            reader.read_frame(spans[&0]).unwrap(),
            rec(Operator::Verizon)
        );
        assert_eq!(reader.read_frame(spans[&3]).unwrap(), rec(Operator::Att));
    }

    #[test]
    fn tail_replays_in_append_order_and_is_read_only() {
        let dir = tmpdir("ckpt_tail");
        let mut j = Journal::create(&dir, &fp(1)).unwrap();
        j.append(2, &rec(Operator::Verizon)).unwrap();
        j.append(0, &rec(Operator::TMobile)).unwrap();
        let full = std::fs::read(Journal::file_path(&dir)).unwrap();
        // Tear the third frame in half: tail must deliver the two intact
        // frames in append order, then stop without truncating anything.
        j.append(1, &rec(Operator::Att)).unwrap();
        let torn = std::fs::read(Journal::file_path(&dir)).unwrap();
        let cut = full.len() + (torn.len() - full.len()) / 2;
        std::fs::write(Journal::file_path(&dir), &torn[..cut]).unwrap();
        let mut seen = Vec::new();
        let state = tail(&dir, &fp(1), |job, rec| {
            seen.push((job, rec.operator));
            Ok(())
        })
        .unwrap();
        assert_eq!(state.delivered, 2);
        assert_eq!(
            state.next_offset,
            u64::try_from(full.len()).unwrap(),
            "resume cursor must sit at the start of the torn frame"
        );
        assert_eq!(seen, vec![(2, Operator::Verizon), (0, Operator::TMobile)]);
        assert_eq!(
            std::fs::metadata(Journal::file_path(&dir)).unwrap().len(),
            u64::try_from(cut).unwrap(),
            "tail must not truncate the torn tail"
        );
        // And it enforces the same identity rule as a resume.
        match tail(&dir, &fp(9), |_, _| Ok(())) {
            Err(CheckpointError::Mismatch(d)) => assert!(d.contains("seed"), "{d}"),
            other => panic!("expected Mismatch, got {other:?}"),
        }
    }

    #[test]
    fn tail_from_resumes_mid_frame_without_skip_or_double_ingest() {
        let dir = tmpdir("ckpt_tail_resume");
        let mut j = Journal::create(&dir, &fp(1)).unwrap();
        j.append(0, &rec(Operator::Verizon)).unwrap();
        let mut seen = Vec::new();
        let st0 = tail(&dir, &fp(1), |job, rec| {
            seen.push((job, rec.operator));
            Ok(())
        })
        .unwrap();
        assert_eq!((st0.delivered, seen.len()), (1, 1));
        let len0 = std::fs::metadata(Journal::file_path(&dir)).unwrap().len();
        assert_eq!(st0.next_offset, len0);

        // The writer starts appending frame 1; a poll lands mid-frame.
        j.append(1, &rec(Operator::TMobile)).unwrap();
        let full = std::fs::read(Journal::file_path(&dir)).unwrap();
        let cut = usize::try_from(st0.next_offset).unwrap() + FRAME_HEADER / 2;
        std::fs::write(Journal::file_path(&dir), &full[..cut]).unwrap();
        let st1 = tail_from(&dir, &fp(1), Some(st0.next_offset), |job, rec| {
            seen.push((job, rec.operator));
            Ok(())
        })
        .unwrap();
        assert_eq!(st1.delivered, 0, "a torn frame must not be delivered");
        assert_eq!(
            st1.next_offset, st0.next_offset,
            "the cursor must stay at the torn frame's start"
        );

        // The writer finishes the append; the next poll picks the frame
        // up exactly once — neither skipped nor double-ingested.
        std::fs::write(Journal::file_path(&dir), &full).unwrap();
        let st2 = tail_from(&dir, &fp(1), Some(st1.next_offset), |job, rec| {
            seen.push((job, rec.operator));
            Ok(())
        })
        .unwrap();
        assert_eq!(st2.delivered, 1);
        assert_eq!(st2.next_offset, u64::try_from(full.len()).unwrap());

        // Polls are incremental: with the cursor past the header, a new
        // frame is picked up even when the already-consumed prefix is
        // unreadable garbage — proof the poll never re-reads from byte 0.
        j.append(2, &rec(Operator::Att)).unwrap();
        let appended = std::fs::read(Journal::file_path(&dir)).unwrap();
        let mut scribbled = appended.clone();
        for b in scribbled.iter_mut().take(MAGIC.len()) {
            *b = 0xFF;
        }
        std::fs::write(Journal::file_path(&dir), &scribbled).unwrap();
        let st3 = tail_from(&dir, &fp(1), Some(st2.next_offset), |job, rec| {
            seen.push((job, rec.operator));
            Ok(())
        })
        .unwrap();
        assert_eq!(st3.delivered, 1);
        assert_eq!(st3.next_offset, u64::try_from(appended.len()).unwrap());
        assert_eq!(
            seen,
            vec![
                (0, Operator::Verizon),
                (1, Operator::TMobile),
                (2, Operator::Att)
            ],
            "every frame exactly once, in append order"
        );
    }

    #[test]
    fn fingerprint_mismatch_is_refused_with_field_names() {
        let dir = tmpdir("ckpt_mismatch");
        Journal::create(&dir, &fp(1)).unwrap();
        let err = Journal::resume_indexed(&dir, &fp(2)).unwrap_err();
        match err {
            CheckpointError::Mismatch(d) => assert!(d.contains("seed"), "{d}"),
            other => panic!("expected Mismatch, got {other:?}"),
        }
        let mut other = fp(1);
        other.faults = FaultConfig::demo();
        let err = Journal::resume_indexed(&dir, &other).unwrap_err();
        match err {
            CheckpointError::Mismatch(d) => assert!(d.contains("faults"), "{d}"),
            other => panic!("expected Mismatch, got {other:?}"),
        }
    }

    #[test]
    fn fingerprint_diff_names_every_differing_field() {
        let run = fp(1);
        let journal = Fingerprint {
            seed: 2,
            max_cycles: None,
            include_apps: true,
            include_static: true,
            start_at_sample: 1,
            cycle_stride_s: 0,
            shard_cycles: None,
            faults: FaultConfig::demo(),
            segments: 3,
            jobs: 9,
        };
        let diff = run.diff(&journal);
        let names: Vec<&str> = diff
            .iter()
            .map(|d| d.split(':').next().expect("split yields a first piece"))
            .collect();
        assert_eq!(
            names,
            [
                "seed",
                "max_cycles",
                "include_apps",
                "include_static",
                "start_at_sample",
                "cycle_stride_s",
                "shard_cycles",
                "faults",
                "segments",
                "jobs"
            ]
        );
        assert_eq!(diff[0], "seed: run has 1, journal has 2");
        assert_eq!(diff[1], "max_cycles: run has 2, journal has null");
        assert!(run.diff(&run.clone()).is_empty());
    }

    #[test]
    fn torn_tail_is_truncated_at_every_offset() {
        let dir = tmpdir("ckpt_torn");
        let mut j = Journal::create(&dir, &fp(1)).unwrap();
        j.append(0, &rec(Operator::Verizon)).unwrap();
        let keep = std::fs::read(Journal::file_path(&dir)).unwrap();
        j.append(1, &rec(Operator::TMobile)).unwrap();
        let full = std::fs::read(Journal::file_path(&dir)).unwrap();
        // Kill at every byte of the second frame: resume must always
        // recover exactly frame 0 and truncate back to `keep`.
        for cut in keep.len()..full.len() {
            std::fs::write(Journal::file_path(&dir), &full[..cut]).unwrap();
            let (_, done) = Journal::resume_indexed(&dir, &fp(1)).unwrap();
            assert_eq!(done.len(), 1, "cut at byte {cut}");
            assert!(done.contains_key(&0), "cut at byte {cut}");
            let after = std::fs::read(Journal::file_path(&dir)).unwrap();
            assert_eq!(after, keep, "cut at byte {cut}: tail not truncated");
        }
    }

    #[test]
    fn corrupt_mid_frame_byte_drops_the_tail() {
        let dir = tmpdir("ckpt_flip");
        let mut j = Journal::create(&dir, &fp(1)).unwrap();
        j.append(0, &rec(Operator::Verizon)).unwrap();
        let keep_len = std::fs::metadata(Journal::file_path(&dir)).unwrap().len();
        j.append(1, &rec(Operator::TMobile)).unwrap();
        let mut bytes = std::fs::read(Journal::file_path(&dir)).unwrap();
        // Flip one payload byte inside the second frame.
        let idx = usize::try_from(keep_len).unwrap() + FRAME_HEADER + 2;
        bytes[idx] ^= 0x40;
        std::fs::write(Journal::file_path(&dir), &bytes).unwrap();
        let (_, done) = Journal::resume_indexed(&dir, &fp(1)).unwrap();
        assert_eq!(done.len(), 1);
        assert_eq!(
            std::fs::metadata(Journal::file_path(&dir)).unwrap().len(),
            keep_len
        );
    }

    #[test]
    fn missing_and_torn_header_journals_are_invalid() {
        let dir = tmpdir("ckpt_missing");
        match Journal::resume_indexed(&dir, &fp(1)) {
            Err(CheckpointError::Invalid(d)) => assert!(d.contains("--checkpoint"), "{d}"),
            other => panic!("expected Invalid, got {other:?}"),
        }
        Journal::create(&dir, &fp(1)).unwrap();
        let bytes = std::fs::read(Journal::file_path(&dir)).unwrap();
        std::fs::write(Journal::file_path(&dir), &bytes[..bytes.len() - 1]).unwrap();
        match Journal::resume_indexed(&dir, &fp(1)) {
            Err(CheckpointError::Invalid(d)) => assert!(d.contains("header"), "{d}"),
            other => panic!("expected Invalid, got {other:?}"),
        }
        std::fs::write(Journal::file_path(&dir), b"not a journal").unwrap();
        match Journal::resume_indexed(&dir, &fp(1)) {
            Err(CheckpointError::Invalid(d)) => assert!(d.contains("magic"), "{d}"),
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn wcj1_journals_are_refused_by_name() {
        // A journal as the JSON-framed format wrote it: old magic, then
        // a well-formed JSON identity header that matches the run.
        let dir = tmpdir("ckpt_wcj1");
        std::fs::create_dir_all(&dir).unwrap();
        let mut header = vec![0u8; FRAME_HEADER];
        header.extend_from_slice(serde_json::to_string(&fp(1)).unwrap().as_bytes());
        let mut bytes = b"WCJ1".to_vec();
        bytes.extend_from_slice(&seal_frame(header).unwrap());
        std::fs::write(Journal::file_path(&dir), &bytes).unwrap();
        let check = |what: &str, err: CheckpointError| match err {
            CheckpointError::Invalid(d) => {
                assert!(
                    d.contains("WCJ1") && d.contains("--checkpoint"),
                    "{what}: {d}"
                )
            }
            other => panic!("{what}: expected Invalid, got {other:?}"),
        };
        check(
            "resume_indexed",
            Journal::resume_indexed(&dir, &fp(1)).unwrap_err(),
        );
        check("tail", tail(&dir, &fp(1), |_, _| Ok(())).unwrap_err());
        check("frame_ends", frame_ends(&dir).unwrap_err());
        assert_eq!(
            std::fs::read(Journal::file_path(&dir)).unwrap(),
            bytes,
            "a refused journal is left as it was"
        );
    }

    #[test]
    fn frame_ends_track_appends() {
        let dir = tmpdir("ckpt_ends");
        let mut j = Journal::create(&dir, &fp(1)).unwrap();
        let e0 = frame_ends(&dir).unwrap();
        assert_eq!(e0.len(), 1, "header only");
        j.append(0, &rec(Operator::Verizon)).unwrap();
        j.append(1, &rec(Operator::Att)).unwrap();
        let e2 = frame_ends(&dir).unwrap();
        assert_eq!(e2.len(), 3);
        assert_eq!(e2[0], e0[0]);
        assert_eq!(
            *e2.last().unwrap(),
            std::fs::metadata(Journal::file_path(&dir)).unwrap().len()
        );
    }

    #[test]
    fn write_atomic_replaces_content() {
        let dir = tmpdir("ckpt_atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        assert!(!dir.join("out.json.tmp").exists());
    }

    #[test]
    fn dir_is_synced_after_atomic_writes() {
        use std::sync::atomic::Ordering;
        let dir = tmpdir("ckpt_dirsync");
        std::fs::create_dir_all(&dir).unwrap();
        // Other tests also write atomically (the counter is global), so
        // assert the delta from our three renames, not an absolute.
        let before = DIR_SYNCS.load(Ordering::Relaxed);
        write_atomic(&dir.join("a.json"), b"a").unwrap();
        write_atomic(&dir.join("b.json"), b"b").unwrap();
        Journal::create(&dir, &fp(1)).unwrap();
        let after = DIR_SYNCS.load(Ordering::Relaxed);
        assert!(
            after >= before + 3,
            "expected >=3 parent-dir fsyncs (two write_atomic + journal \
             creation), saw {}",
            after - before
        );
    }
}
