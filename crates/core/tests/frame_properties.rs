//! Journal shard frames: the WCJ2 payload round-trips bit-for-bit
//! through every replay path, and its decoders survive hostile bytes.
//!
//! The fuzz half feeds arbitrary bytes, every truncation and single-bit
//! flips of a real shard payload into `decode_shard_frame` and
//! `wcd::decode`. A checksum only vouches that bytes were written whole,
//! not that the writer was right, so these run on the payload behind
//! the frame's FNV check. Each call must return `Ok` or `Err` without
//! panicking, and its largest allocation must stay within a small
//! multiple of the input length; a counting allocator measures that.
//!
//! The frame scan in front of them (`checkpoint`'s private `Frames`)
//! is fuzzed through `frame_ends` and `tail_from` on whole journal
//! files: a valid WCJ2 header followed by arbitrary bytes, every
//! truncation of a real journal, and bit flips in each frame's length
//! and checksum words. Each call stops cleanly or returns `Err`, under
//! the same allocation bound, even when a length points past the end.
//!
//! The tails decode on worker threads, so the counting allocator keeps
//! one process-wide maximum, and every test here holds [`serial`] so no
//! other test allocates while one measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use proptest::prelude::*;
use wheels_apps::arcav::OffloadStats;
use wheels_apps::gaming::GamingStats;
use wheels_apps::video::{ChunkRecord, VideoStats};
use wheels_core::checkpoint::{
    decode_shard_frame, encode_shard_frame, frame_ends, tail, tail_from, Fingerprint, Journal,
    TailState,
};
use wheels_core::column::wcd;
use wheels_core::disrupt::{FaultConfig, FaultKind};
use wheels_core::records::{
    AppRun, CoverageSample, Dataset, RttSample, ShardRecords, TaggedHandover, TestAudit, TestKind,
    TestRun, TestStatus, TputSample,
};
use wheels_geo::route::ZoneClass;
use wheels_radio::tech::{Direction, Technology};
use wheels_ran::cells::CellId;
use wheels_ran::operator::Operator;
use wheels_ran::session::{HandoverEvent, HandoverKind};
use wheels_sim_core::time::{SimDuration, SimTime, Timezone};
use wheels_transport::servers::ServerKind;

/// Records the largest single allocation request made on any thread,
/// so a decode's worst allocation can be bounded by its input.
struct Tracking;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    LARGEST.fetch_max(size, Ordering::Relaxed);
}

/// Held by every test in this file for its whole body, so the
/// process-wide [`LARGEST`] sees only the measured call's allocations.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Run `call` and return its result with the largest single allocation
/// any thread made during it.
fn peak<T>(call: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.store(0, Ordering::Relaxed);
    let out = call();
    (out, LARGEST.load(Ordering::Relaxed))
}

// SAFETY: every call forwards unchanged to the system allocator; the
// only addition is an atomic maximum, which never allocates.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Tracking = Tracking;

/// Bytes of envelope (`u32` length + `u64` FNV checksum) ahead of a
/// frame's payload.
const ENVELOPE: usize = 12;

/// Decode `bytes` with both decoders and return whether each succeeded,
/// failing the test if either one's largest allocation exceeds what the
/// input length can justify. Decoded rows are at most ~4x their column
/// bytes (`(Operator, usize)` pairs from 9 bytes, doubled by `Vec`
/// growth); 8x plus a page of slack still catches any size taken from an
/// unchecked header field.
fn decode_bounded(bytes: &[u8]) -> (bool, bool) {
    let limit = 8 * bytes.len() + 4096;
    let (frame_ok, frame_peak) = peak(|| decode_shard_frame(bytes, 0).is_ok());
    let (wcd_ok, wcd_peak) = peak(|| wcd::decode(bytes).is_ok());
    assert!(
        frame_peak <= limit && wcd_peak <= limit,
        "{}-byte input allocated {frame_peak} (frame) / {wcd_peak} (wcd) bytes at once",
        bytes.len()
    );
    (frame_ok, wcd_ok)
}

/// Float values JSON could not carry, or carried only approximately.
const AWKWARD: [f64; 6] = [
    -0.0,
    5e-324,
    f64::MIN_POSITIVE / 4.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

fn at(ms: u64) -> SimTime {
    SimTime::EPOCH + SimDuration::from_millis(ms)
}

/// A shard dataset with `n` rows in every table, each float field drawn
/// from [`AWKWARD`] and every optional field alternating between `None`
/// and `Some`.
fn awkward_dataset(n: usize, op: Operator) -> Dataset {
    let f = |i: usize, k: usize| AWKWARD[(i + k) % AWKWARD.len()];
    let mut ds = Dataset {
        rx_bytes: -0.0,
        tx_bytes: 5e-324,
        log_bytes: f64::NAN,
        unique_cells: vec![(op, 3), (Operator::Att, usize::MAX)],
        runtime_min: vec![(op, f64::INFINITY), (Operator::Verizon, -0.0)],
        ..Dataset::default()
    };
    for i in 0..n {
        let id = u32::try_from(i).expect("small test tables");
        let some = i % 2 == 0;
        ds.tput.push(TputSample {
            t: at(500 * u64::from(id)),
            test_id: id,
            operator: op,
            direction: Direction::ALL[i % 2],
            mbps: f(i, 0),
            tech: Technology::ALL[i % 5],
            cell: u32::MAX - id,
            speed_mph: f(i, 1),
            zone: ZoneClass::ALL[i % 3],
            tz: Timezone::ALL[i % 4],
            server: ServerKind::Edge,
            rsrp_dbm: f(i, 2),
            mcs: 27,
            bler: f(i, 3),
            carriers: 3,
            handovers_in_bin: 1,
            driving: some,
        });
        ds.rtt.push(RttSample {
            t: at(u64::MAX / 2 + u64::from(id)),
            test_id: id,
            operator: op,
            rtt_ms: some.then(|| f(i, 4)),
            tech: Technology::Nr5gMmWave,
            speed_mph: f(i, 5),
            tz: Timezone::Pacific,
            server: ServerKind::Cloud,
            driving: !some,
        });
        ds.coverage.push(CoverageSample {
            t: at(u64::from(id)),
            operator: op,
            tech: some.then_some(Technology::LteA),
            direction: (!some).then_some(Direction::Uplink),
            miles: f(i, 0),
            speed_mph: f(i, 3),
            tz: Timezone::Central,
            zone: ZoneClass::Highway,
        });
        ds.runs.push(TestRun {
            id,
            kind: TestKind::Rtt,
            operator: op,
            start: at(10),
            end: at(20),
            miles: f(i, 1),
            tz: Timezone::Mountain,
            server: ServerKind::Edge,
            hs5g_fraction: f(i, 2),
            handovers: u32::MAX,
            driving: some,
            partial: !some,
        });
        ds.handovers.push(TaggedHandover {
            event: HandoverEvent {
                start: at(7),
                duration: SimDuration::from_millis(40),
                from_cell: CellId(id),
                to_cell: CellId(id + 1),
                from_tech: Technology::Lte,
                to_tech: Technology::Nr5gMid,
                kind: HandoverKind::Up4gTo5g,
            },
            operator: op,
            test_id: some.then_some(id),
            direction: some.then_some(Direction::Downlink),
        });
        ds.apps.push(AppRun {
            id,
            operator: op,
            kind: TestKind::Gaming,
            server: ServerKind::Cloud,
            driving: some,
            offload: some.then(|| OffloadStats {
                e2e_ms: (0..i).map(|k| f(i, k)).collect(),
                frames_offloaded: i,
                frames_total: usize::MAX,
                compressed: true,
                high_speed_5g_fraction: f(i, 4),
                handovers: 2,
            }),
            video: Some(VideoStats {
                chunks: (0..i % 3)
                    .map(|k| ChunkRecord {
                        bitrate_mbps: f(i, k),
                        rebuffer_s: f(i, k + 1),
                        qoe: f(i, k + 2),
                    })
                    .collect(),
                high_speed_5g_fraction: f(i, 5),
                handovers: 0,
            }),
            gaming: (!some).then(|| GamingStats {
                bitrate_mbps: vec![f(i, 1), f(i, 2)],
                latency_ms: (0..=i).map(|k| f(i, k + 3)).collect(),
                frames_dropped: 1,
                frames_sent: 60,
                high_speed_5g_fraction: f(i, 0),
                handovers: 4,
            }),
        });
        ds.audits.push(TestAudit {
            test_id: id,
            operator: op,
            kind: TestKind::Video,
            day: 13,
            scheduled: at(99),
            status: [TestStatus::Completed, TestStatus::Partial, TestStatus::Lost][i % 3],
            attempts: 2,
            fault: some.then_some(FaultKind::LoggerGap),
            planned_samples: 10,
            recorded_samples: 7,
            lost_samples: 3,
        });
    }
    ds
}

/// Raw bits of every float in a dataset, table by table. Equal bits
/// mean equal values even where `PartialEq` cannot tell (NaN).
fn float_bits(ds: &Dataset) -> Vec<u64> {
    let tput = ds
        .tput
        .iter()
        .flat_map(|s| [s.mbps, s.speed_mph, s.rsrp_dbm, s.bler]);
    let rtt = ds
        .rtt
        .iter()
        .flat_map(|s| [s.rtt_ms.unwrap_or(0.0), s.speed_mph]);
    let coverage = ds.coverage.iter().flat_map(|s| [s.miles, s.speed_mph]);
    let runs = ds.runs.iter().flat_map(|r| [r.miles, r.hs5g_fraction]);
    let apps = ds.apps.iter().flat_map(|a| {
        let off = a
            .offload
            .iter()
            .flat_map(|o| o.e2e_ms.iter().copied().chain([o.high_speed_5g_fraction]));
        let vid = a.video.iter().flat_map(|v| {
            v.chunks
                .iter()
                .flat_map(|c| [c.bitrate_mbps, c.rebuffer_s, c.qoe])
                .chain([v.high_speed_5g_fraction])
        });
        let gam = a.gaming.iter().flat_map(|g| {
            g.bitrate_mbps
                .iter()
                .chain(&g.latency_ms)
                .copied()
                .chain([g.high_speed_5g_fraction])
        });
        off.chain(vid).chain(gam)
    });
    let runtime = ds.runtime_min.iter().map(|&(_, min)| min);
    tput.chain(rtt)
        .chain(coverage)
        .chain(runs)
        .chain(apps)
        .chain(runtime)
        .chain([ds.rx_bytes, ds.tx_bytes, ds.log_bytes])
        .map(f64::to_bits)
        .collect()
}

/// Bit-for-bit equality of two shard records: `PartialEq` where it can
/// decide (no NaN anywhere), the `Debug` rendering where it cannot, and
/// the raw bits of every float either way.
fn assert_same(got: &ShardRecords, want: &ShardRecords, what: &str) {
    let has_nan = float_bits(&want.dataset)
        .into_iter()
        .any(|b| f64::from_bits(b).is_nan());
    if has_nan {
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "{what}");
    } else {
        assert_eq!(got, want, "{what}");
    }
    assert_eq!(
        float_bits(&got.dataset),
        float_bits(&want.dataset),
        "{what}: float bits"
    );
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("frame_properties")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The identity of every test journal here. Its plan has room for the
/// most frames a test appends (32): a replay refuses a shard past it.
fn fingerprint() -> Fingerprint {
    Fingerprint {
        seed: 7,
        max_cycles: Some(1),
        include_apps: true,
        include_static: false,
        cycle_stride_s: 40_000,
        shard_cycles: Some(1),
        faults: FaultConfig::default(),
        segments: 1,
        jobs: 32,
    }
}

fn cases() -> Vec<ShardRecords> {
    let mut out = Vec::new();
    for op in Operator::ALL {
        out.push(ShardRecords {
            job: out.len(),
            operator: op,
            dataset: Dataset::default(),
            cells: Vec::new(),
        });
        out.push(ShardRecords {
            job: out.len(),
            operator: op,
            dataset: awkward_dataset(7, op),
            cells: vec![CellId(0), CellId(41), CellId(u32::MAX)],
        });
    }
    out
}

#[test]
fn shard_frames_roundtrip_bit_for_bit_through_read_frame_and_tail() {
    let _serial = serial();
    let dir = tmpdir("roundtrip");
    let fp = fingerprint();
    let mut journal = Journal::create(&dir, &fp).expect("create journal");
    let cases = cases();
    let spans: Vec<_> = cases
        .iter()
        .enumerate()
        .map(|(job, rec)| journal.append(job, rec).expect("append"))
        .collect();
    let reader = journal.reader();
    for (job, (span, want)) in spans.iter().zip(&cases).enumerate() {
        let got = reader.read_frame(*span).expect("read_frame decodes");
        assert_same(&got, want, &format!("read_frame of job {job}"));
    }
    let mut tailed = Vec::new();
    let state = tail(&dir, &fp, |job, rec| {
        tailed.push((job, rec));
        Ok(())
    })
    .expect("tail replays");
    assert_eq!(state.delivered(), cases.len());
    for (i, ((job, got), want)) in tailed.iter().zip(&cases).enumerate() {
        assert_eq!(*job, i, "tail delivers in append order");
        assert_same(got, want, &format!("tail of job {job}"));
    }
}

/// A replay reads the journal a frame at a time: over 32 equal frames,
/// its largest allocation (one frame's bytes, or the rows decoded from
/// them) stays well below the file's length, which reading the whole
/// file first would take.
#[test]
fn tail_holds_one_frame_at_a_time() {
    let _serial = serial();
    let dir = tmpdir("tail_one_frame");
    let fp = fingerprint();
    let mut journal = Journal::create(&dir, &fp).expect("create journal");
    let mut rec = ShardRecords {
        job: 0,
        operator: Operator::Verizon,
        dataset: awkward_dataset(7, Operator::Verizon),
        cells: vec![CellId(1), CellId(2)],
    };
    let frames = 32;
    for job in 0..frames {
        rec.job = job;
        journal.append(job, &rec).expect("append");
    }
    let file_len = std::fs::metadata(Journal::file_path(&dir))
        .expect("journal exists")
        .len();
    let (state, peak) = peak(|| tail(&dir, &fp, |_, _| Ok(())).expect("tail replays"));
    let peak = u64::try_from(peak).expect("fits");
    assert_eq!(state.delivered(), frames);
    assert!(
        4 * peak < file_len,
        "tail of a {file_len}-byte journal allocated {peak} bytes at once"
    );
}

/// Offset of the WCD1 image inside [`real_payload`]: job `u64`,
/// operator `u8`, cell count `u32`, then its two `u32` cells.
const IMAGE: usize = 8 + 1 + 4 + 2 * 4;

/// A real sealed shard frame: job 11, T-Mobile, two cells, and
/// [`awkward_dataset`] with `rows` rows.
fn real_frame(rows: usize) -> Vec<u8> {
    let rec = ShardRecords {
        job: 11,
        operator: Operator::TMobile,
        dataset: awkward_dataset(rows, Operator::TMobile),
        cells: vec![CellId(5), CellId(9)],
    };
    encode_shard_frame(&rec).expect("encodes")
}

/// A real shard payload, envelope stripped, and the byte ranges of its
/// WCD1 column payloads (walked from the section headers).
fn real_payload(rows: usize) -> (Vec<u8>, Vec<std::ops::Range<usize>>) {
    let payload = real_frame(rows)[ENVELOPE..].to_vec();
    assert_eq!(&payload[IMAGE..IMAGE + 4], wcd::MAGIC);
    let (_, sections) = sections_of(&payload[IMAGE..]);
    let columns = sections
        .iter()
        .map(|s| IMAGE + s.at..IMAGE + s.at + s.payload.len())
        .collect();
    (payload, columns)
}

/// The exact bytes of one shard frame over floats JSON cannot carry
/// (NaN, −0.0, subnormals) and `usize::MAX` counts: a codec change that
/// moves any byte of a journal fails here.
#[test]
fn shard_frame_bytes_are_pinned() {
    let _serial = serial();
    assert_eq!(
        fnv1a64(&real_frame(3)),
        0xdf02_5e1d_aedf_018b,
        "shard frame bytes drifted"
    );
}

/// One WCD1 section as a test can edit it: the header fields as stored
/// and the payload bytes. [`image_of`] re-seals every checksum.
#[derive(Clone)]
struct Section {
    tag: u8,
    name: String,
    elems: u64,
    payload: Vec<u8>,
    /// Offset of the payload in the image it was read from.
    at: usize,
}

/// Split a WCD1 image into its declared column count and sections.
fn sections_of(image: &[u8]) -> (u32, Vec<Section>) {
    let word = |p: usize| {
        let mut b = [0u8; 8];
        b.copy_from_slice(&image[p..p + 8]);
        u64::from_le_bytes(b)
    };
    let mut count = [0u8; 4];
    count.copy_from_slice(&image[4..8]);
    let mut out = Vec::new();
    let mut pos = 8; // magic + column count
    while pos < image.len() {
        let tag = image[pos];
        let width = match tag {
            1 => 1,
            2 => 4,
            _ => 8,
        };
        let name_len = usize::from(image[pos + 1]);
        let name = String::from_utf8(image[pos + 2..pos + 2 + name_len].to_vec()).expect("ASCII");
        pos += 2 + name_len;
        let elems = word(pos);
        pos = (pos + 16).next_multiple_of(8); // element count + checksum
        let len = usize::try_from(elems).expect("fits") * width;
        out.push(Section {
            tag,
            name,
            elems,
            payload: image[pos..pos + len].to_vec(),
            at: pos,
        });
        pos += len;
    }
    (u32::from_le_bytes(count), out)
}

/// Lay `sections` out as a WCD1 image declaring `count` columns, with a
/// fresh checksum over every payload.
fn image_of(count: u32, sections: &[Section]) -> Vec<u8> {
    let mut out = wcd::MAGIC.to_vec();
    out.extend_from_slice(&count.to_le_bytes());
    for s in sections {
        out.push(s.tag);
        out.push(u8::try_from(s.name.len()).expect("short name"));
        out.extend_from_slice(s.name.as_bytes());
        out.extend_from_slice(&s.elems.to_le_bytes());
        out.extend_from_slice(&fnv1a64(&s.payload).to_le_bytes());
        out.resize(out.len().next_multiple_of(8), 0);
        out.extend_from_slice(&s.payload);
    }
    out
}

/// An edit to a WCD1 image's declared column count and sections.
type Mutation<'a> = Box<dyn Fn(&mut u32, &mut Vec<Section>) + 'a>;

/// Every structural check behind the checksums refuses a file that does
/// not load whole: each mutation below is re-sealed, so it reaches the
/// decoder's name, order, tag, count, row-count, code and list-length
/// checks, and must come back `Err` without a panic, inside the
/// allocation bound, through both decoders.
#[test]
fn resealed_structural_mutations_are_errors() {
    let _serial = serial();
    let (payload, _) = real_payload(3);
    let (count, sections) = sections_of(&payload[IMAGE..]);
    assert_eq!(
        image_of(count, &sections),
        payload[IMAGE..],
        "re-sealing is exact"
    );
    let at = |name: &str| {
        sections
            .iter()
            .position(|s| s.name == name)
            .unwrap_or_else(|| panic!("no column {name}"))
    };
    assert_eq!(
        sections[at("apps.off_valid")].payload[0],
        1,
        "row 0 has offload stats"
    );
    let mutations: Vec<(&str, Mutation)> = vec![
        (
            "one row fewer in tput.mbps",
            Box::new(|_, s| {
                let c = &mut s[at("tput.mbps")];
                c.elems -= 1;
                c.payload.truncate(c.payload.len() - 8);
            }),
        ),
        (
            "enum code 7 in rtt.tech",
            Box::new(|_, s| s[at("rtt.tech")].payload[0] = 7),
        ),
        (
            "bool code 2 in tput.driving",
            Box::new(|_, s| s[at("tput.driving")].payload[0] = 2),
        ),
        (
            "two section names swapped",
            Box::new(|_, s| {
                let (zone, tz) = (at("tput.zone"), at("tput.tz"));
                let name = s[zone].name.clone();
                s[zone].name = std::mem::replace(&mut s[tz].name, name);
            }),
        ),
        (
            "an F64 column tagged U8",
            Box::new(|_, s| {
                // Same row count, so only the tag check stands between
                // the decoder and reading 8-byte values from 1-byte ones.
                let c = &mut s[at("tput.mbps")];
                c.tag = 1;
                c.payload.truncate(usize::try_from(c.elems).expect("small"));
            }),
        ),
        (
            "one surplus apps.vid_qoe element",
            Box::new(|_, s| {
                let c = &mut s[at("apps.vid_qoe")];
                c.elems += 1;
                c.payload.extend_from_slice(&1.5f64.to_le_bytes());
            }),
        ),
        (
            "apps.off_e2e_len overruns apps.off_e2e_ms",
            Box::new(|_, s| {
                let flat = u32::try_from(s[at("apps.off_e2e_ms")].elems).expect("small");
                s[at("apps.off_e2e_len")].payload[..4].copy_from_slice(&(flat + 1).to_le_bytes());
            }),
        ),
        (
            "no row in the scalar table",
            Box::new(|_, s| {
                for c in s.iter_mut().filter(|c| c.name.starts_with("scalar.")) {
                    c.elems = 0;
                    c.payload.clear();
                }
            }),
        ),
        (
            "one column too many declared",
            Box::new(|count, _| *count += 1),
        ),
    ];
    for (what, mutate) in &mutations {
        let (mut count, mut mutated) = (count, sections.clone());
        mutate(&mut count, &mut mutated);
        let image = image_of(count, &mutated);
        assert!(!decode_bounded(&image).1, "{what}: image decoded");
        let framed = [&payload[..IMAGE], &image].concat();
        assert!(!decode_bounded(&framed).0, "{what}: frame decoded");
    }
    let trailing = [&payload[IMAGE..], &[0u8; 8]].concat();
    assert!(
        !decode_bounded(&trailing).1,
        "8 trailing bytes: image decoded"
    );
    let framed = [&payload[..IMAGE], &trailing].concat();
    assert!(
        !decode_bounded(&framed).0,
        "8 trailing bytes: frame decoded"
    );
}

#[test]
fn every_truncation_and_every_column_bit_flip_is_an_error() {
    let _serial = serial();
    let (payload, columns) = real_payload(3);
    let image = &payload[IMAGE..];
    assert!(decode_bounded(&payload).0, "the intact payload decodes");
    assert!(decode_bounded(image).1, "the intact image decodes");
    for cut in 0..payload.len() {
        assert!(
            !decode_bounded(&payload[..cut]).0,
            "truncation at byte {cut} decoded"
        );
    }
    for cut in 0..image.len() {
        assert!(
            !decode_bounded(&image[..cut]).1,
            "image truncation at byte {cut} decoded"
        );
    }
    let mut flipped = payload.clone();
    for byte in columns.iter().flat_map(Clone::clone) {
        for bit in 0..8 {
            flipped[byte] ^= 1 << bit;
            assert!(
                !decode_bounded(&flipped).0,
                "flip of bit {bit} at byte {byte} decoded"
            );
            assert!(
                !decode_bounded(&flipped[IMAGE..]).1,
                "image flip of bit {bit} at byte {byte} decoded"
            );
            flipped[byte] ^= 1 << bit;
        }
    }
}

/// What the two public frame scans made of one journal file.
#[derive(Debug, PartialEq)]
struct ScanOutcome {
    /// `frame_ends`, or `None` if it returned `Err`.
    ends: Option<Vec<u64>>,
    /// Frames a fresh `tail_from` delivered, or `None` if it returned
    /// `Err`.
    delivered: Option<usize>,
}

/// Write `bytes` as the journal in `dir`, then scan it with
/// `frame_ends`, a fresh `tail_from`, and a `tail_from` resumed at
/// `resume_at`. Fails the test if any call panics or its largest
/// allocation exceeds what the file length can justify (the same bound
/// as [`decode_bounded`], since the tails decode what they find).
fn scan_bounded(dir: &Path, fp: &Fingerprint, bytes: &[u8], resume_at: u64) -> ScanOutcome {
    std::fs::write(Journal::file_path(dir), bytes).expect("write journal");
    let limit = 8 * bytes.len() + 4096;
    let bounded = |what: &str, call: &mut dyn FnMut()| {
        let ((), peak) = peak(call);
        assert!(
            peak <= limit,
            "{what} on a {}-byte journal allocated {peak} bytes at once",
            bytes.len()
        );
    };
    let mut ends = None;
    bounded("frame_ends", &mut || ends = frame_ends(dir).ok());
    let mut delivered = None;
    bounded("tail_from", &mut || {
        let mut cursor = TailState::default();
        delivered = tail_from(dir, fp, &mut cursor, |_, _| Ok(()))
            .ok()
            .map(|()| cursor.delivered());
    });
    bounded("resumed tail_from", &mut || {
        let mut cursor = TailState {
            next_offset: resume_at,
            ..TailState::default()
        };
        let _ = tail_from(dir, fp, &mut cursor, |_, _| Ok(()));
    });
    ScanOutcome { ends, delivered }
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A frame around `payload` with a correct length and FNV-1a-64
/// checksum, so arbitrary bytes get past the scan into the decoder.
fn seal(payload: &[u8]) -> Vec<u8> {
    let sum = fnv1a64(payload);
    let len = u32::try_from(payload.len()).expect("small payload");
    let mut frame = len.to_le_bytes().to_vec();
    frame.extend_from_slice(&sum.to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// A real journal (magic, identity header, two shard frames) and the
/// offset where each of its three frames starts.
fn real_journal(dir: &Path, fp: &Fingerprint) -> (Vec<u8>, [usize; 3]) {
    let mut journal = Journal::create(dir, fp).expect("create journal");
    let header_end = std::fs::metadata(Journal::file_path(dir))
        .expect("journal exists")
        .len();
    let mut starts = [4, usize::try_from(header_end).expect("fits"), 0];
    for (job, rec) in cases().iter().take(2).enumerate() {
        let span = journal.append(job, rec).expect("append");
        if job == 0 {
            starts[2] = usize::try_from(span.end).expect("fits");
        }
    }
    let bytes = std::fs::read(Journal::file_path(dir)).expect("read journal");
    (bytes, starts)
}

#[test]
fn every_journal_truncation_stops_at_the_last_whole_frame() {
    let _serial = serial();
    let dir = tmpdir("scan_truncation");
    let fp = fingerprint();
    let (bytes, starts) = real_journal(&dir, &fp);
    let ends = [starts[1], starts[2], bytes.len()].map(|e| u64::try_from(e).expect("fits"));
    for cut in 0..=bytes.len() {
        let whole = ends
            .iter()
            .take_while(|&&e| e <= u64::try_from(cut).expect("fits"))
            .count();
        let got = scan_bounded(&dir, &fp, &bytes[..cut], ends[0]);
        let want = ScanOutcome {
            // Too short for the magic: not a journal at all.
            ends: (cut >= 4).then(|| ends[..whole].to_vec()),
            // A torn identity header cannot be verified.
            delivered: (whole >= 1).then(|| whole - 1),
        };
        assert_eq!(got, want, "journal cut at byte {cut}");
    }
}

#[test]
fn envelope_bit_flips_stop_the_scan_at_the_flipped_frame() {
    let _serial = serial();
    let dir = tmpdir("scan_flips");
    let fp = fingerprint();
    let (bytes, starts) = real_journal(&dir, &fp);
    let ends = [starts[1], starts[2], bytes.len()].map(|e| u64::try_from(e).expect("fits"));
    let mut flipped = bytes.clone();
    for (frame, start) in starts.into_iter().enumerate() {
        // The 4-byte length word and the 8-byte checksum word.
        for byte in start..start + ENVELOPE {
            for bit in 0..8 {
                flipped[byte] ^= 1 << bit;
                let got = scan_bounded(&dir, &fp, &flipped, ends[0]);
                let want = ScanOutcome {
                    ends: Some(ends[..frame].to_vec()),
                    delivered: (frame >= 1).then(|| frame - 1),
                };
                assert_eq!(got, want, "frame {frame}: bit {bit} of byte {byte} flipped");
                flipped[byte] ^= 1 << bit;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A valid WCJ2 header followed by arbitrary bytes, bare or sealed
    /// into a checksummed frame, scans without panicking and within the
    /// allocation bound, and a tail resumed at any offset does too.
    #[test]
    fn arbitrary_journal_tails_scan_cleanly(
        tail_bytes in prop::collection::vec(any::<u8>(), 0..400),
        sealed in any::<bool>(),
        resume_at in 0u64..1_000,
    ) {
        let _serial = serial();
        let dir = tmpdir("scan_arbitrary");
        let fp = fingerprint();
        drop(Journal::create(&dir, &fp).expect("create journal"));
        let mut bytes = std::fs::read(Journal::file_path(&dir)).expect("read journal");
        let header_end = u64::try_from(bytes.len()).expect("fits");
        if sealed {
            bytes.extend_from_slice(&seal(&tail_bytes));
        } else {
            bytes.extend_from_slice(&tail_bytes);
        }
        let got = scan_bounded(&dir, &fp, &bytes, resume_at);
        // The header is intact, so neither scan can fail before it.
        let ends = got.ends.expect("frame_ends reads a journal with a valid header");
        prop_assert_eq!(ends.first().copied(), Some(header_end));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes, bare or behind a valid frame prefix and WCD1
    /// magic (so they reach the section parser), never panic and never
    /// allocate beyond the input.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..600)) {
        let _serial = serial();
        decode_bounded(&bytes);
        let mut framed = vec![0u8; 13];
        framed[8] = 2; // operator code: AT&T
        framed.extend_from_slice(wcd::MAGIC);
        framed.extend_from_slice(&bytes);
        decode_bounded(&framed);
        decode_bounded(&framed[13..]);
    }

    /// Any single-bit flip anywhere in a real payload decodes to `Ok` or
    /// `Err` within the allocation bound; inside a column payload it is
    /// always `Err`.
    #[test]
    fn single_bit_flips_are_contained(rows in 0usize..6, at in any::<u64>(), bit in 0u32..8) {
        let _serial = serial();
        let (mut payload, columns) = real_payload(rows);
        let len = u64::try_from(payload.len()).expect("fits");
        let byte = usize::try_from(at % len).expect("fits");
        payload[byte] ^= 1 << bit;
        let (frame_ok, _) = decode_bounded(&payload);
        if columns.iter().any(|c| c.contains(&byte)) {
            prop_assert!(!frame_ok, "column flip at byte {} decoded", byte);
        }
    }
}
