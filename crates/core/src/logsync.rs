//! Log synchronization — the paper's challenge \[C2\].
//!
//! The raw campaign logs arrive in three timestamp dialects:
//!
//! 1. app logs written in **UTC** milliseconds;
//! 2. app logs written in **local time** (whatever zone the car was in —
//!    which changes four times along the route, and the writer does not
//!    record which zone it was);
//! 3. XCAL `.drm` files whose **filenames** are local-time stamps and
//!    whose **contents** are EDT stamps.
//!
//! The paper: *"we wrote a sophisticated software that maps each app-layer
//! log to the corresponding XCAL file taking into account the different
//! timestamp types and the timezones we crossed."* This module is that
//! software: it normalizes every record to simulation time, inferring the
//! unknown local zone of a log by trying all four candidate zones and
//! keeping the one that makes the log line up with its XCAL counterpart.

use serde::{Deserialize, Serialize};
use wheels_sim_core::time::{SimTime, Timezone, WallClock};
use wheels_ue::xcal::DrmFile;

/// Timestamp dialect of an app log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StampKind {
    /// UTC milliseconds.
    Utc,
    /// Local-time milliseconds in an **unrecorded** zone.
    LocalUnknown,
    /// Local-time milliseconds in a known zone.
    Local(Timezone),
}

/// An app-layer log: a test's own record of what it did, with timestamps
/// in one of the dialects.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppLog {
    /// Which test produced it (opaque to the sync layer).
    pub test_id: u32,
    /// The dialect its stamps use.
    pub stamp: StampKind,
    /// Raw timestamps of its entries, in the dialect's milliseconds.
    pub entries_ms: Vec<i64>,
}

/// Error from synchronization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyncError {
    /// The log has no entries.
    EmptyLog,
    /// No XCAL file overlaps the log under any candidate zone.
    NoMatchingDrm,
    /// A timestamp fell before the trip epoch.
    PreEpoch,
}

impl core::fmt::Display for SyncError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SyncError::EmptyLog => write!(f, "app log has no entries"),
            SyncError::NoMatchingDrm => {
                write!(f, "no XCAL file overlaps the app log in any timezone")
            }
            SyncError::PreEpoch => write!(f, "timestamp precedes the trip epoch"),
        }
    }
}

impl std::error::Error for SyncError {}

/// A synchronized log: entries in simulation time plus the index of the
/// DRM file it was matched with.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyncedLog {
    /// The test id carried over.
    pub test_id: u32,
    /// Entry times in simulation time.
    pub entries: Vec<SimTime>,
    /// Index of the matching DRM file in the input slice.
    pub drm_index: usize,
    /// The zone inferred for a `LocalUnknown` log (`None` for UTC logs).
    pub inferred_zone: Option<Timezone>,
}

/// Convert one raw stamp to simulation time under an assumed dialect.
fn to_sim(ms: i64, stamp: StampKind, assumed: Option<Timezone>) -> Option<SimTime> {
    match stamp {
        StampKind::Utc => WallClock::from_utc_ms(ms),
        StampKind::Local(z) => WallClock::from_local_ms(ms, z),
        StampKind::LocalUnknown => WallClock::from_local_ms(ms, assumed?),
    }
}

/// Time span (sim ms) covered by a DRM file's records.
fn drm_span(drm: &DrmFile) -> Option<(SimTime, SimTime)> {
    let first = drm.record_sim_time(0)?;
    let last = drm.record_sim_time(drm.records.len().checked_sub(1)?)?;
    Some((first, last))
}

/// How well a converted log lines up with a DRM file: 0 when the log's
/// span is fully inside (with slack), growing with the gap.
fn mismatch_ms(log_lo: SimTime, log_hi: SimTime, drm_lo: SimTime, drm_hi: SimTime) -> u64 {
    const SLACK_MS: u64 = 3_000;
    let lo_gap = drm_lo
        .as_millis()
        .saturating_sub(log_lo.as_millis() + SLACK_MS);
    let hi_gap = log_hi
        .as_millis()
        .saturating_sub(drm_hi.as_millis() + SLACK_MS);
    lo_gap + hi_gap
}

/// Deterministic preference order among equally-mismatched candidates:
/// earliest UTC offset (westernmost zone) first, then the *tightest*
/// containing DRM file (smallest span), then the lowest DRM index.
/// Smaller key wins.
type CandidateKey = (u64, i64, u64, usize);

fn candidate_key(
    mismatch: u64,
    zone: Option<Timezone>,
    drm_lo: SimTime,
    drm_hi: SimTime,
    drm_index: usize,
) -> CandidateKey {
    (
        mismatch,
        zone.map_or(0, Timezone::utc_offset_hours),
        drm_hi.as_millis() - drm_lo.as_millis(),
        drm_index,
    )
}

/// Synchronize one app log against the campaign's DRM files.
///
/// For `LocalUnknown` logs all four zones are tried; the zone (and DRM
/// file) with the smallest span mismatch wins. A perfect match requires
/// the app-log span to sit inside the DRM span within a few seconds —
/// anything else returns [`SyncError::NoMatchingDrm`].
///
/// **Tie-break** (deterministic): when several (zone, DRM) candidates
/// align equally well, the earliest-offset zone (westernmost, e.g.
/// Pacific before Eastern) wins; within one zone, the tightest
/// containing DRM file wins, then the lowest DRM index. This makes the
/// choice a pure function of the inputs instead of iteration order.
pub fn sync_log(log: &AppLog, drms: &[DrmFile]) -> Result<SyncedLog, SyncError> {
    if log.entries_ms.is_empty() {
        return Err(SyncError::EmptyLog);
    }
    let candidate_zones: Vec<Option<Timezone>> = match log.stamp {
        StampKind::LocalUnknown => Timezone::ALL.iter().map(|z| Some(*z)).collect(),
        _ => vec![None],
    };

    let mut best: Option<(CandidateKey, SyncedLog)> = None;
    for zone in candidate_zones {
        let converted: Option<Vec<SimTime>> = log
            .entries_ms
            .iter()
            .map(|ms| to_sim(*ms, log.stamp, zone))
            .collect();
        let Some(entries) = converted else { continue };
        let lo = *entries.iter().min().expect("non-empty log checked above");
        let hi = *entries.iter().max().expect("non-empty log checked above");
        for (i, drm) in drms.iter().enumerate() {
            let Some((dlo, dhi)) = drm_span(drm) else {
                continue;
            };
            let key = candidate_key(mismatch_ms(lo, hi, dlo, dhi), zone, dlo, dhi, i);
            if best.as_ref().is_none_or(|(bk, _)| key < *bk) {
                best = Some((
                    key,
                    SyncedLog {
                        test_id: log.test_id,
                        entries: entries.clone(),
                        drm_index: i,
                        inferred_zone: zone.filter(|_| log.stamp == StampKind::LocalUnknown),
                    },
                ));
            }
        }
    }

    match best {
        Some(((0, ..), synced)) => Ok(synced),
        Some(_) | None => Err(SyncError::NoMatchingDrm),
    }
}

/// Synchronize a batch of logs; returns per-log results.
pub fn sync_all(logs: &[AppLog], drms: &[DrmFile]) -> Vec<Result<SyncedLog, SyncError>> {
    logs.iter().map(|l| sync_log(l, drms)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wheels_radio::tech::Technology;
    use wheels_ran::cells::CellId;
    use wheels_ran::operator::Operator;
    use wheels_ran::session::RanSnapshot;
    use wheels_sim_core::time::SimDuration;
    use wheels_sim_core::units::{DataRate, Db, Dbm};
    use wheels_ue::xcal::XcalLogger;

    fn snap(t: SimTime) -> RanSnapshot {
        RanSnapshot {
            t,
            operator: Operator::Verizon,
            cell: CellId(9),
            tech: Technology::LteA,
            rsrp: Dbm(-101.0),
            sinr: Db(9.0),
            blocked: false,
            in_handover: false,
            carriers: 3,
            primary_mcs: 14,
            primary_bler: 0.1,
            dl_rate: DataRate::from_mbps(80.0),
            ul_rate: DataRate::from_mbps(15.0),
            share: 0.4,
        }
    }

    /// Build a DRM file covering [start, start+secs).
    fn drm(start: SimTime, secs: u64, zone: Timezone) -> DrmFile {
        let mut l = XcalLogger::new();
        l.open_file(start, zone);
        for k in 0..secs * 2 {
            l.log(&snap(start + SimDuration::from_millis(k * 500)));
        }
        l.finish().pop().unwrap()
    }

    #[test]
    fn utc_log_syncs_to_overlapping_drm() {
        let t0 = SimTime::from_hours(12);
        let drms = vec![
            drm(SimTime::from_hours(10), 40, Timezone::Pacific),
            drm(t0, 40, Timezone::Pacific),
        ];
        let log = AppLog {
            test_id: 7,
            stamp: StampKind::Utc,
            entries_ms: (0..30)
                .map(|k| WallClock::utc_ms(t0 + SimDuration::from_secs(k)))
                .collect(),
        };
        let s = sync_log(&log, &drms).unwrap();
        assert_eq!(s.drm_index, 1);
        assert_eq!(s.entries[0], t0);
        assert_eq!(s.inferred_zone, None);
    }

    #[test]
    fn local_unknown_zone_is_inferred() {
        // Car in Mountain time; log written in local ms without zone info.
        let t0 = SimTime::from_hours(30);
        let drms = vec![drm(t0, 40, Timezone::Mountain)];
        let log = AppLog {
            test_id: 1,
            stamp: StampKind::LocalUnknown,
            entries_ms: (0..30)
                .map(|k| WallClock::local_ms(t0 + SimDuration::from_secs(k), Timezone::Mountain))
                .collect(),
        };
        let s = sync_log(&log, &drms).unwrap();
        assert_eq!(s.inferred_zone, Some(Timezone::Mountain));
        assert_eq!(s.entries[0], t0);
    }

    #[test]
    fn wrong_zone_assumption_rejected_when_no_overlap() {
        // A log whose only consistent interpretation would be hours away
        // from any DRM file.
        let t0 = SimTime::from_hours(30);
        let drms = vec![drm(t0, 40, Timezone::Mountain)];
        let log = AppLog {
            test_id: 2,
            stamp: StampKind::Utc,
            entries_ms: (0..30)
                .map(|k| {
                    WallClock::utc_ms(t0 + SimDuration::from_hours(9) + SimDuration::from_secs(k))
                })
                .collect(),
        };
        assert_eq!(sync_log(&log, &drms), Err(SyncError::NoMatchingDrm));
    }

    #[test]
    fn zone_inference_disambiguates_between_two_drms() {
        // Two DRM files 1 hour apart; a LocalUnknown log that is only
        // *inside* one of them under the correct zone. (An off-by-one-zone
        // interpretation shifts by a full hour.)
        let t0 = SimTime::from_hours(50);
        let t1 = SimTime::from_hours(51);
        let drms = vec![
            drm(t0, 60, Timezone::Central),
            drm(t1, 60, Timezone::Central),
        ];
        let log = AppLog {
            test_id: 3,
            stamp: StampKind::LocalUnknown,
            entries_ms: (0..30)
                .map(|k| WallClock::local_ms(t1 + SimDuration::from_secs(k), Timezone::Central))
                .collect(),
        };
        let s = sync_log(&log, &drms).unwrap();
        // The Central interpretation matches file 1 exactly; a Mountain
        // interpretation would land at t1+1h (outside), an Eastern one at
        // t1-1h (inside file 0!). Both are perfect containments, so the
        // earliest-offset tie-break decides: Central (UTC-5) beats
        // Eastern (UTC-4), deterministically.
        assert_eq!(s.drm_index, 1, "got {s:?}");
        assert_eq!(s.inferred_zone, Some(Timezone::Central));
    }

    #[test]
    fn tie_break_prefers_earliest_zone_offset() {
        // One DRM file long enough that *all four* zone interpretations
        // of a short LocalUnknown log land inside it — a four-way perfect
        // tie. The documented rule picks the earliest UTC offset, i.e.
        // the westernmost zone (Pacific, UTC-7).
        let t0 = SimTime::from_hours(40);
        let drms = vec![drm(t0, 4 * 3_600, Timezone::Central)];
        let log = AppLog {
            test_id: 6,
            stamp: StampKind::LocalUnknown,
            entries_ms: (0..30)
                .map(|k| {
                    WallClock::local_ms(
                        t0 + SimDuration::from_mins(90) + SimDuration::from_secs(k),
                        Timezone::Central,
                    )
                })
                .collect(),
        };
        let s = sync_log(&log, &drms).unwrap();
        assert_eq!(s.inferred_zone, Some(Timezone::Pacific));
    }

    #[test]
    fn tie_break_prefers_tightest_containing_drm() {
        // Regression: two DRM files both contain the log perfectly — a
        // wide one at index 0 and a tight one at index 1. The old code
        // kept whichever it saw first (index 0); the documented tie-break
        // picks the tightest containing file.
        let t0 = SimTime::from_hours(60);
        let drms = vec![
            drm(t0, 600, Timezone::Mountain),
            drm(t0 + SimDuration::from_secs(100), 60, Timezone::Mountain),
        ];
        let log = AppLog {
            test_id: 8,
            stamp: StampKind::Utc,
            entries_ms: (0..30)
                .map(|k| {
                    WallClock::utc_ms(t0 + SimDuration::from_secs(110) + SimDuration::from_secs(k))
                })
                .collect(),
        };
        let s = sync_log(&log, &drms).unwrap();
        assert_eq!(s.drm_index, 1, "tightest containing file must win");
    }

    #[test]
    fn known_local_zone_used_directly() {
        let t0 = SimTime::from_hours(70);
        let drms = vec![drm(t0, 40, Timezone::Eastern)];
        let log = AppLog {
            test_id: 4,
            stamp: StampKind::Local(Timezone::Eastern),
            entries_ms: (0..20)
                .map(|k| WallClock::local_ms(t0 + SimDuration::from_secs(k), Timezone::Eastern))
                .collect(),
        };
        let s = sync_log(&log, &drms).unwrap();
        assert_eq!(s.entries[0], t0);
        assert_eq!(s.inferred_zone, None);
    }

    #[test]
    fn empty_log_errors() {
        let drms = vec![drm(SimTime::from_hours(1), 10, Timezone::Pacific)];
        let log = AppLog {
            test_id: 5,
            stamp: StampKind::Utc,
            entries_ms: vec![],
        };
        assert_eq!(sync_log(&log, &drms), Err(SyncError::EmptyLog));
    }

    #[test]
    fn sync_all_batches() {
        let t0 = SimTime::from_hours(20);
        let drms = vec![drm(t0, 40, Timezone::Pacific)];
        let good = AppLog {
            test_id: 1,
            stamp: StampKind::Utc,
            entries_ms: vec![WallClock::utc_ms(t0 + SimDuration::from_secs(5))],
        };
        let bad = AppLog {
            test_id: 2,
            stamp: StampKind::Utc,
            entries_ms: vec![],
        };
        let results = sync_all(&[good, bad], &drms);
        assert!(results[0].is_ok());
        assert_eq!(results[1], Err(SyncError::EmptyLog));
    }

    #[test]
    fn drm_filename_convention_survives_sync() {
        // The filename stamp is *not* used for matching (it is local time
        // in a zone real files do not even record); content EDT stamps
        // are. A Pacific-opened file must still sync an Eastern-trip log
        // correctly.
        let t0 = SimTime::from_hours(100);
        let f = drm(t0, 40, Timezone::Pacific);
        // Filename reads 3 hours earlier than content EDT.
        assert_eq!(f.records[0].edt_ms - f.filename_local_ms, 3 * 3_600_000);
        let log = AppLog {
            test_id: 9,
            stamp: StampKind::Utc,
            entries_ms: vec![WallClock::utc_ms(t0 + SimDuration::from_secs(3))],
        };
        let s = sync_log(&log, &[f]).unwrap();
        assert_eq!(s.drm_index, 0);
    }
}
