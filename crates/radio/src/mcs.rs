//! Link adaptation: SINR → CQI → MCS, spectral efficiency, and BLER.
//!
//! The shapes follow LTE/NR link adaptation: the scheduler picks the
//! highest MCS whose expected initial-transmission BLER stays near the 10%
//! HARQ operating point; the realized BLER then follows a logistic curve in
//! the SINR error around that operating point. The XCAL logger reports the
//! primary cell's MCS and BLER — the two KPIs of Table 2.

use serde::{Deserialize, Serialize};
use wheels_sim_core::units::Db;

/// An MCS index, 0–28 as in the LTE/NR MCS tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct McsIndex(pub u8);

impl McsIndex {
    /// Largest index in the table.
    pub const MAX: McsIndex = McsIndex(28);
}

/// SINR (dB) at which each MCS hits the 10% BLER operating point.
/// Approximately 1.05 dB per step from −6 dB, matching published LTE link
/// curves.
fn mcs_threshold_db(mcs: McsIndex) -> f64 {
    -6.0 + 1.05 * mcs.0 as f64
}

/// Pick the MCS a proportional-fair scheduler would choose at `sinr`:
/// the largest index whose operating point is at or below `sinr`.
pub fn mcs_from_sinr(sinr: Db) -> McsIndex {
    let idx = ((sinr.0 + 6.0) / 1.05).floor();
    McsIndex(idx.clamp(0.0, 28.0) as u8)
}

/// Spectral efficiency (bits/s/Hz per spatial layer) delivered by an MCS.
///
/// Shannon-backoff form: ~75% of capacity at the MCS's operating SINR,
/// capped at 256-QAM rate-0.93 (≈7.4 b/Hz is the table ceiling; real field
/// links rarely exceed ~5.5 with overheads, which the caller applies).
pub fn spectral_efficiency(mcs: McsIndex) -> f64 {
    let sinr_lin = 10f64.powf(mcs_threshold_db(mcs) / 10.0);
    (0.75 * (1.0 + sinr_lin).log2()).min(5.55)
}

/// [`spectral_efficiency`] of every index 0–28, computed once by that
/// function, so a lookup is bit-equal to the call it replaces.
pub fn spectral_efficiency_table() -> &'static [f64; 29] {
    static TABLE: std::sync::OnceLock<[f64; 29]> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| core::array::from_fn(|i| spectral_efficiency(McsIndex(i as u8))))
}

/// Initial-transmission block error rate at `sinr` for a given `mcs`.
///
/// Logistic in the dB error around the operating point: exactly 10% when
/// the link adaptation is perfect, collapsing toward 0 with headroom and
/// toward 1 when the channel drops faster than adaptation tracks.
pub fn bler(sinr: Db, mcs: McsIndex) -> f64 {
    bler_from_err(sinr.0 - mcs_threshold_db(mcs))
}

fn bler_from_err(err_db: f64) -> f64 {
    // err = 0 → 10%; slope 1.1 dB per e-fold.
    let x = -err_db / 1.1 + (0.1f64 / 0.9).ln();
    1.0 / (1.0 + (-x).exp())
}

/// Expected goodput-per-Hz of transmitting with `mcs` at `sinr`.
fn goodput_per_hz(mcs: McsIndex, sinr_db: f64) -> f64 {
    spectral_efficiency(mcs) * harq_goodput_factor(bler_from_err(sinr_db - mcs_threshold_db(mcs)))
}

/// SINR (dB) at which stepping up to each MCS index first *improves*
/// expected goodput over staying one index lower. Near the spectral-
/// efficiency cap the SE gain of a step shrinks below the BLER-reset
/// cost, so the profitable switch point sits above the 10%-BLER
/// operating point — and for the capped top index it never comes.
fn goodput_up_thresholds() -> &'static [f64; 29] {
    static THRESHOLDS: std::sync::OnceLock<[f64; 29]> = std::sync::OnceLock::new();
    THRESHOLDS.get_or_init(|| {
        let mut t = [f64::NEG_INFINITY; 29];
        for k in 1..29usize {
            let profitable = |s: f64| {
                goodput_per_hz(McsIndex(k as u8), s) >= goodput_per_hz(McsIndex(k as u8 - 1), s)
            };
            let base = mcs_threshold_db(McsIndex(k as u8));
            t[k] = if profitable(base) {
                base
            } else if !profitable(base + 60.0) {
                f64::INFINITY
            } else {
                let (mut lo, mut hi) = (base, base + 60.0);
                for _ in 0..80 {
                    let mid = 0.5 * (lo + hi);
                    if profitable(mid) {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                }
                hi
            };
            // Keep the table sorted so the chain k ≥ k-1 ≥ ... holds at
            // every switch point.
            if t[k] < t[k - 1] {
                t[k] = t[k - 1];
            }
        }
        t
    })
}

/// The MCS the scheduler actually transmits with: like
/// [`mcs_from_sinr`], but it steps up only once the higher index
/// improves expected goodput. This makes realized goodput monotone in
/// SINR across MCS switch points (the raw table dips at switches near
/// the spectral-efficiency cap).
pub fn goodput_mcs(sinr: Db) -> McsIndex {
    let t = goodput_up_thresholds();
    let idx = t.partition_point(|&thr| sinr.0 >= thr);
    McsIndex(idx.saturating_sub(1) as u8)
}

/// Goodput factor after HARQ: one retransmission recovers most errors, so
/// goodput ≈ rate × (1 − bler/(1+bler)) — a mild penalty at the 10% point
/// and a steep one when BLER runs away.
pub fn harq_goodput_factor(bler: f64) -> f64 {
    let b = bler.clamp(0.0, 1.0);
    1.0 - b / (1.0 + b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mcs_monotone_in_sinr() {
        let mut last = McsIndex(0);
        for s in -10..=35 {
            let m = mcs_from_sinr(Db(s as f64));
            assert!(m >= last);
            last = m;
        }
    }

    #[test]
    fn mcs_clamps_at_table_edges() {
        assert_eq!(mcs_from_sinr(Db(-30.0)), McsIndex(0));
        assert_eq!(mcs_from_sinr(Db(60.0)), McsIndex::MAX);
    }

    #[test]
    fn chosen_mcs_runs_near_ten_percent_bler() {
        for s in [-2.0f64, 5.0, 12.0, 20.0] {
            let m = mcs_from_sinr(Db(s));
            let b = bler(Db(s), m);
            // At or just above the operating point: BLER in (2%, 12%].
            assert!(b > 0.02 && b <= 0.12, "sinr {s} mcs {} bler {b}", m.0);
        }
    }

    #[test]
    fn bler_logistic_extremes() {
        let m = McsIndex(15);
        assert!(bler(Db(mcs_threshold_db(m) + 15.0), m) < 0.01);
        assert!(bler(Db(mcs_threshold_db(m) - 15.0), m) > 0.95);
        let at_point = bler(Db(mcs_threshold_db(m)), m);
        assert!((at_point - 0.10).abs() < 1e-9, "bler {at_point}");
    }

    #[test]
    fn spectral_efficiency_monotone_and_capped() {
        let mut last = 0.0;
        for i in 0..=28 {
            let se = spectral_efficiency(McsIndex(i));
            assert!(se >= last, "mcs {i}");
            last = se;
        }
        assert!(spectral_efficiency(McsIndex::MAX) <= 5.55 + 1e-12);
        assert!(spectral_efficiency(McsIndex(0)) > 0.1);
    }

    #[test]
    fn spectral_efficiency_realistic_midrange() {
        // MCS ~14 (≈ 8.7 dB) should deliver ~2.3-2.7 b/Hz.
        let se = spectral_efficiency(McsIndex(14));
        assert!((2.0..3.0).contains(&se), "se {se}");
    }

    #[test]
    fn harq_factor_behaviour() {
        assert!((harq_goodput_factor(0.0) - 1.0).abs() < 1e-12);
        let at_op = harq_goodput_factor(0.10);
        assert!((at_op - (1.0 - 0.1 / 1.1)).abs() < 1e-12);
        assert!((harq_goodput_factor(1.0) - 0.5).abs() < 1e-12);
        // Clamps out-of-range inputs.
        assert_eq!(harq_goodput_factor(-0.5), 1.0);
        assert_eq!(harq_goodput_factor(2.0), 0.5);
    }
}
