//! Property tests for the WCD1 column codec: for every table,
//! rows → WCD1 columns → rows must be the identity on arbitrarily
//! shuffled inserts (no normalization required) with a byte-identical
//! re-encode, non-finite floats must survive bit-exactly, and the
//! encoded columns must carry no NaN the rows didn't. Each record is
//! expanded deterministically from one random `u64` seed, like the view
//! property tests.

use proptest::prelude::*;
use wheels_apps::arcav::OffloadStats;
use wheels_apps::gaming::GamingStats;
use wheels_apps::video::{ChunkRecord, VideoStats};
use wheels_core::column::wcd;
use wheels_core::disrupt::FaultKind;
use wheels_core::records::{
    AppRun, CoverageSample, Dataset, RttSample, TaggedHandover, TestAudit, TestKind, TestRun,
    TestStatus, TputSample,
};
use wheels_geo::route::ZoneClass;
use wheels_radio::tech::{Direction, Technology};
use wheels_ran::cells::CellId;
use wheels_ran::operator::Operator;
use wheels_ran::session::{HandoverEvent, HandoverKind};
use wheels_sim_core::time::{SimDuration, SimTime, Timezone};
use wheels_transport::servers::ServerKind;

/// splitmix64 step: one seed fans out into as many independent field
/// draws as a record needs.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(state: &mut u64) -> f64 {
    (next(state) >> 11) as f64 / (1u64 << 53) as f64
}

fn pick<T: Copy>(state: &mut u64, items: &[T]) -> T {
    items[(next(state) % items.len() as u64) as usize]
}

const TEST_KINDS: [TestKind; 7] = [
    TestKind::DownlinkTput,
    TestKind::UplinkTput,
    TestKind::Rtt,
    TestKind::Ar,
    TestKind::Cav,
    TestKind::Video,
    TestKind::Gaming,
];

const HO_KINDS: [HandoverKind; 4] = [
    HandoverKind::Horizontal4g,
    HandoverKind::Horizontal5g,
    HandoverKind::Up4gTo5g,
    HandoverKind::Down5gTo4g,
];

const STATUSES: [TestStatus; 3] = [TestStatus::Completed, TestStatus::Partial, TestStatus::Lost];

const FAULTS: [FaultKind; 4] = [
    FaultKind::ServerOutage,
    FaultKind::AppCrash,
    FaultKind::LoggerGap,
    FaultKind::ClockDrift,
];

fn t_at(state: &mut u64) -> SimTime {
    SimTime::EPOCH + SimDuration::from_millis(next(state) % 5_000_000)
}

fn tput_from(seed: u64) -> TputSample {
    let mut s = seed;
    TputSample {
        t: t_at(&mut s),
        test_id: (next(&mut s) % 500) as u32,
        operator: pick(&mut s, &Operator::ALL),
        direction: pick(&mut s, &Direction::ALL),
        mbps: unit(&mut s) * 400.0,
        tech: pick(&mut s, &Technology::ALL),
        cell: (next(&mut s) % 50) as u32,
        speed_mph: unit(&mut s) * 80.0,
        zone: pick(&mut s, &ZoneClass::ALL),
        tz: pick(&mut s, &Timezone::ALL),
        server: pick(&mut s, &[ServerKind::Cloud, ServerKind::Edge]),
        rsrp_dbm: -120.0 + unit(&mut s) * 50.0,
        mcs: (next(&mut s) % 28) as u8,
        bler: unit(&mut s) * 0.5,
        carriers: 1 + (next(&mut s) % 3) as u8,
        handovers_in_bin: (next(&mut s) % 3) as u8,
        driving: next(&mut s) % 2 == 1,
    }
}

fn rtt_from(seed: u64) -> RttSample {
    let mut s = seed;
    RttSample {
        t: t_at(&mut s),
        test_id: (next(&mut s) % 500) as u32,
        operator: pick(&mut s, &Operator::ALL),
        rtt_ms: (!next(&mut s).is_multiple_of(8)).then(|| 1.0 + unit(&mut s) * 300.0),
        tech: pick(&mut s, &Technology::ALL),
        speed_mph: unit(&mut s) * 80.0,
        tz: pick(&mut s, &Timezone::ALL),
        server: pick(&mut s, &[ServerKind::Cloud, ServerKind::Edge]),
        driving: next(&mut s) % 2 == 1,
    }
}

fn cov_from(seed: u64) -> CoverageSample {
    let mut s = seed;
    CoverageSample {
        t: t_at(&mut s),
        operator: pick(&mut s, &Operator::ALL),
        tech: (!next(&mut s).is_multiple_of(5)).then(|| pick(&mut s, &Technology::ALL)),
        direction: (!next(&mut s).is_multiple_of(3)).then(|| pick(&mut s, &Direction::ALL)),
        miles: unit(&mut s) * 0.1,
        speed_mph: unit(&mut s) * 80.0,
        tz: pick(&mut s, &Timezone::ALL),
        zone: pick(&mut s, &ZoneClass::ALL),
    }
}

fn run_from(seed: u64) -> TestRun {
    let mut s = seed;
    let start = t_at(&mut s);
    TestRun {
        id: (next(&mut s) % 500) as u32,
        kind: pick(&mut s, &TEST_KINDS),
        operator: pick(&mut s, &Operator::ALL),
        start,
        end: start + SimDuration::from_millis(next(&mut s) % 300_000),
        miles: unit(&mut s) * 5.0,
        tz: pick(&mut s, &Timezone::ALL),
        server: pick(&mut s, &[ServerKind::Cloud, ServerKind::Edge]),
        hs5g_fraction: unit(&mut s),
        handovers: (next(&mut s) % 40) as u32,
        driving: next(&mut s) % 2 == 1,
        partial: next(&mut s).is_multiple_of(7),
    }
}

fn handover_from(seed: u64) -> TaggedHandover {
    let mut s = seed;
    TaggedHandover {
        event: HandoverEvent {
            start: t_at(&mut s),
            duration: SimDuration::from_millis(next(&mut s) % 10_000),
            from_cell: CellId((next(&mut s) % 50) as u32),
            to_cell: CellId((next(&mut s) % 50) as u32),
            from_tech: pick(&mut s, &Technology::ALL),
            to_tech: pick(&mut s, &Technology::ALL),
            kind: pick(&mut s, &HO_KINDS),
        },
        operator: pick(&mut s, &Operator::ALL),
        test_id: (!next(&mut s).is_multiple_of(4)).then(|| (next(&mut s) % 500) as u32),
        direction: (!next(&mut s).is_multiple_of(3)).then(|| pick(&mut s, &Direction::ALL)),
    }
}

fn app_from(seed: u64) -> AppRun {
    let mut s = seed;
    let kind = pick(
        &mut s,
        &[
            TestKind::Ar,
            TestKind::Cav,
            TestKind::Video,
            TestKind::Gaming,
        ],
    );
    let offload = matches!(kind, TestKind::Ar | TestKind::Cav).then(|| OffloadStats {
        e2e_ms: (0..next(&mut s) % 20)
            .map(|_| unit(&mut s) * 200.0)
            .collect(),
        frames_offloaded: (next(&mut s) % 3_000) as usize,
        frames_total: (next(&mut s) % 5_000) as usize,
        compressed: next(&mut s) % 2 == 1,
        high_speed_5g_fraction: unit(&mut s),
        handovers: (next(&mut s) % 30) as usize,
    });
    let video = matches!(kind, TestKind::Video).then(|| VideoStats {
        chunks: (0..next(&mut s) % 15)
            .map(|_| ChunkRecord {
                bitrate_mbps: unit(&mut s) * 50.0,
                rebuffer_s: unit(&mut s) * 3.0,
                qoe: unit(&mut s) * 5.0 - 1.0,
            })
            .collect(),
        high_speed_5g_fraction: unit(&mut s),
        handovers: (next(&mut s) % 30) as usize,
    });
    let gaming = matches!(kind, TestKind::Gaming).then(|| GamingStats {
        bitrate_mbps: (0..next(&mut s) % 20)
            .map(|_| unit(&mut s) * 40.0)
            .collect(),
        latency_ms: (0..next(&mut s) % 30)
            .map(|_| unit(&mut s) * 150.0)
            .collect(),
        frames_dropped: (next(&mut s) % 200) as usize,
        frames_sent: (next(&mut s) % 10_000) as usize,
        high_speed_5g_fraction: unit(&mut s),
        handovers: (next(&mut s) % 30) as usize,
    });
    AppRun {
        id: (next(&mut s) % 500) as u32,
        operator: pick(&mut s, &Operator::ALL),
        kind,
        server: pick(&mut s, &[ServerKind::Cloud, ServerKind::Edge]),
        driving: next(&mut s) % 2 == 1,
        offload,
        video,
        gaming,
    }
}

fn audit_from(seed: u64) -> TestAudit {
    let mut s = seed;
    let planned = (next(&mut s) % 400) as u32;
    let recorded = if planned == 0 {
        0
    } else {
        (next(&mut s) % u64::from(planned + 1)) as u32
    };
    TestAudit {
        test_id: (next(&mut s) % 500) as u32,
        operator: pick(&mut s, &Operator::ALL),
        kind: pick(&mut s, &TEST_KINDS),
        day: (next(&mut s) % 14) as u8,
        scheduled: t_at(&mut s),
        status: pick(&mut s, &STATUSES),
        attempts: 1 + (next(&mut s) % 3) as u32,
        fault: (!next(&mut s).is_multiple_of(3)).then(|| pick(&mut s, &FAULTS)),
        planned_samples: planned,
        recorded_samples: recorded,
        lost_samples: planned - recorded,
    }
}

/// A dataset with every table populated from the seed lists, in whatever
/// shuffled order the seeds produced — deliberately *not* normalized, so
/// the converters have to preserve arbitrary row order.
fn dataset_from(seeds: &[u64]) -> Dataset {
    let mut s = seeds.iter().fold(0x5EED_u64, |a, b| a ^ b.wrapping_mul(3));
    Dataset {
        tput: seeds.iter().map(|&x| tput_from(x)).collect(),
        rtt: seeds.iter().map(|&x| rtt_from(x.wrapping_add(1))).collect(),
        coverage: seeds.iter().map(|&x| cov_from(x.wrapping_add(2))).collect(),
        runs: seeds.iter().map(|&x| run_from(x.wrapping_add(3))).collect(),
        handovers: seeds
            .iter()
            .map(|&x| handover_from(x.wrapping_add(4)))
            .collect(),
        apps: seeds.iter().map(|&x| app_from(x.wrapping_add(5))).collect(),
        audits: seeds
            .iter()
            .map(|&x| audit_from(x.wrapping_add(6)))
            .collect(),
        rx_bytes: unit(&mut s) * 1e12,
        tx_bytes: unit(&mut s) * 1e11,
        log_bytes: unit(&mut s) * 1e10,
        unique_cells: Operator::ALL
            .into_iter()
            .map(|op| (op, (next(&mut s) % 900) as usize))
            .collect(),
        runtime_min: Operator::ALL
            .into_iter()
            .map(|op| (op, unit(&mut s) * 4_000.0))
            .collect(),
    }
}

/// Every `f64` column (tag 4) of a WCD1 image, by name, read straight
/// from its section payload, for the NaN sweep.
fn all_f64_columns(image: &[u8]) -> Vec<(String, Vec<f64>)> {
    let word = |p: usize| u64::from_le_bytes(image[p..p + 8].try_into().expect("8 bytes"));
    let mut out = Vec::new();
    let mut pos = 8; // magic + column count
    while pos < image.len() {
        let (tag, name_len) = (image[pos], usize::from(image[pos + 1]));
        let name = String::from_utf8_lossy(&image[pos + 2..pos + 2 + name_len]).into_owned();
        pos += 2 + name_len;
        let elems = word(pos) as usize;
        pos = (pos + 16).next_multiple_of(8);
        let width = [0, 1, 4, 8, 8][usize::from(tag)];
        if tag == 4 {
            out.push((
                name,
                (0..elems)
                    .map(|i| f64::from_bits(word(pos + 8 * i)))
                    .collect(),
            ));
        }
        pos += elems * width;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Rows → WCD1 columns → rows is the identity for every table at
    /// once, on shuffled (un-normalized) inserts, and the streaming
    /// writer lays down the same columns as the in-memory encoder.
    #[test]
    fn row_column_row_is_lossless(seeds in prop::collection::vec(any::<u64>(), 0..150)) {
        let ds = dataset_from(&seeds);
        let bytes = wcd::encode(&ds);
        let mut streamed = Vec::new();
        wcd::encode_to(&ds, &mut streamed).expect("streaming encode into a Vec");
        prop_assert_eq!(&streamed, &bytes, "encode_to and encode agree");
        prop_assert_eq!(wcd::decode(&bytes).expect("encoded dataset decodes"), ds);
    }

    /// The WCD1 binary encoding is bit-exact: encode → decode equals the
    /// source rows, and a second encode is byte-identical (the format
    /// has a single canonical serialization).
    #[test]
    fn wcd_binary_roundtrip_is_bit_exact(seeds in prop::collection::vec(any::<u64>(), 0..80)) {
        let ds = dataset_from(&seeds);
        let bytes = wcd::encode(&ds);
        let decoded = wcd::decode(&bytes).expect("encoded dataset decodes");
        prop_assert_eq!(wcd::encode(&decoded), bytes, "re-encode is byte-identical");
        prop_assert_eq!(decoded, ds);
    }

    /// Rows with finite fields yield NaN-free columns: optional floats
    /// travel as validity + placeholder pairs, never as NaN sentinels.
    #[test]
    fn columns_are_nan_free(seeds in prop::collection::vec(any::<u64>(), 0..150)) {
        let columns = all_f64_columns(&wcd::encode(&dataset_from(&seeds)));
        prop_assert_eq!(columns.len(), 23, "every f64 column was read");
        for (name, col) in columns {
            prop_assert!(col.iter().all(|v| !v.is_nan()), "NaN leaked into {}", name);
        }
    }
}

/// Empty tables are not a degenerate case: the empty dataset round-trips
/// through the binary format, and the binary file is still a valid,
/// non-empty catalogue (magic + per-column headers).
#[test]
fn empty_dataset_roundtrips_everywhere() {
    let ds = Dataset::default();
    let bytes = wcd::encode(&ds);
    assert_eq!(&bytes[..4], wcd::MAGIC);
    assert_eq!(all_f64_columns(&bytes).len(), 23, "every column is present");
    assert_eq!(wcd::decode(&bytes).expect("empty encoding decodes"), ds);
}

/// Non-finite floats a future producer might emit survive the binary
/// format bit-for-bit — payloads are raw IEEE-754 patterns, not text.
#[test]
fn non_finite_floats_survive_the_binary_format() {
    let mut ds = Dataset::default();
    let mut t = tput_from(7);
    t.mbps = f64::NAN;
    t.rsrp_dbm = f64::NEG_INFINITY;
    ds.tput.push(t);
    ds.log_bytes = f64::INFINITY;
    let bytes = wcd::encode(&ds);
    let back = wcd::decode(&bytes).expect("decodes");
    assert!(back.tput[0].mbps.is_nan());
    assert_eq!(back.tput[0].rsrp_dbm, f64::NEG_INFINITY);
    assert_eq!(back.log_bytes, f64::INFINITY);
}
