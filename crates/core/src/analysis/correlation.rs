//! Table 2: Pearson correlation between 500 ms throughput and the KPIs.
//!
//! Each `TputSample` already carries its bin's RSRP, MCS, CA count, BLER,
//! speed, and handover count, so the correlation is a direct column-wise
//! Pearson over the filtered sample set — exactly what the paper computes
//! after joining XCAL KPI logs with throughput logs.

use serde::{Deserialize, Serialize};
use wheels_radio::tech::Direction;
use wheels_ran::operator::Operator;
use wheels_sim_core::stats::{pearson, spearman};

use crate::records::TputSample;

/// The KPI columns of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Kpi {
    /// Primary cell RSRP.
    Rsrp,
    /// Primary cell MCS.
    Mcs,
    /// Carrier aggregation (number of carriers).
    Ca,
    /// Primary cell BLER.
    Bler,
    /// Vehicle speed.
    Speed,
    /// Handovers in the bin.
    Handovers,
}

impl Kpi {
    /// Table 2 column order.
    pub const ALL: [Kpi; 6] = [
        Kpi::Rsrp,
        Kpi::Mcs,
        Kpi::Ca,
        Kpi::Bler,
        Kpi::Speed,
        Kpi::Handovers,
    ];

    /// Column label.
    pub fn label(self) -> &'static str {
        match self {
            Kpi::Rsrp => "RSRP",
            Kpi::Mcs => "MCS",
            Kpi::Ca => "CA",
            Kpi::Bler => "BLER",
            Kpi::Speed => "Speed",
            Kpi::Handovers => "HO",
        }
    }

    /// Extract the KPI value from a sample.
    pub fn value(self, s: &TputSample) -> f64 {
        match self {
            Kpi::Rsrp => s.rsrp_dbm,
            Kpi::Mcs => s.mcs as f64,
            Kpi::Ca => s.carriers as f64,
            Kpi::Bler => s.bler,
            Kpi::Speed => s.speed_mph,
            Kpi::Handovers => s.handovers_in_bin as f64,
        }
    }
}

/// One row of Table 2: operator × direction → r per KPI.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CorrelationRow {
    /// Operator.
    pub operator: Operator,
    /// Direction.
    pub direction: Direction,
    /// `(kpi, Pearson r)` pairs; `None` when undefined (constant column).
    pub r: Vec<(Kpi, Option<f64>)>,
    /// `(kpi, Spearman rho)` pairs — the rank-based robustness companion
    /// (throughput is heavy-tailed, so rank correlation is the sanity
    /// check on every Pearson cell).
    pub rho: Vec<(Kpi, Option<f64>)>,
    /// Number of samples used.
    pub n: usize,
}

/// Compute one row from driving throughput samples.
pub fn correlate(
    samples: &[TputSample],
    operator: Operator,
    direction: Direction,
) -> CorrelationRow {
    correlate_rows(
        samples
            .iter()
            .filter(|s| s.operator == operator && s.direction == direction && s.driving),
        operator,
        direction,
    )
}

/// [`correlate`] over pre-filtered samples (the dataset-view path),
/// in the order given.
pub fn correlate_rows<'a>(
    samples: impl IntoIterator<Item = &'a TputSample>,
    operator: Operator,
    direction: Direction,
) -> CorrelationRow {
    let rows: Vec<&TputSample> = samples.into_iter().collect();
    let tput: Vec<f64> = rows.iter().map(|s| s.mbps).collect();
    let mut r = Vec::with_capacity(Kpi::ALL.len());
    let mut rho = Vec::with_capacity(Kpi::ALL.len());
    for k in Kpi::ALL {
        let xs: Vec<f64> = rows.iter().map(|s| k.value(s)).collect();
        r.push((k, pearson(&xs, &tput)));
        rho.push((k, spearman(&xs, &tput)));
    }
    CorrelationRow {
        operator,
        direction,
        r,
        rho,
        n: rows.len(),
    }
}

/// The full Table 2 (3 operators × 2 directions).
pub fn table2(samples: &[TputSample]) -> Vec<CorrelationRow> {
    let mut out = Vec::new();
    for op in Operator::ALL {
        for dir in Direction::ALL {
            out.push(correlate(samples, op, dir));
        }
    }
    out
}

impl CorrelationRow {
    /// Look up Pearson r for one KPI.
    pub fn get(&self, kpi: Kpi) -> Option<f64> {
        self.r.iter().find(|(k, _)| *k == kpi).and_then(|(_, v)| *v)
    }

    /// Look up Spearman rho for one KPI.
    pub fn get_rho(&self, kpi: Kpi) -> Option<f64> {
        self.rho
            .iter()
            .find(|(k, _)| *k == kpi)
            .and_then(|(_, v)| *v)
    }

    /// The paper's headline check: no KPI strongly correlates with
    /// throughput (|r| below `threshold` for every column).
    pub fn no_strong_correlation(&self, threshold: f64) -> bool {
        self.r
            .iter()
            .all(|(_, v)| v.is_none_or(|x| x.abs() < threshold))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wheels_geo::route::ZoneClass;
    use wheels_radio::tech::Technology;
    use wheels_sim_core::time::{SimTime, Timezone};
    use wheels_transport::servers::ServerKind;

    fn sample(mbps: f64, rsrp: f64, mcs: u8, speed: f64) -> TputSample {
        TputSample {
            t: SimTime::EPOCH,
            test_id: 0,
            operator: Operator::Verizon,
            direction: Direction::Downlink,
            mbps,
            tech: Technology::LteA,
            cell: 1,
            speed_mph: speed,
            zone: ZoneClass::Highway,
            tz: Timezone::Central,
            server: ServerKind::Cloud,
            rsrp_dbm: rsrp,
            mcs,
            bler: 0.1,
            carriers: 2,
            handovers_in_bin: 0,
            driving: true,
        }
    }

    #[test]
    fn perfect_mcs_correlation_detected() {
        let samples: Vec<TputSample> = (0..50)
            .map(|i| sample(i as f64 * 2.0, -100.0 + i as f64 * 0.0, i as u8 % 29, 60.0))
            .collect();
        // mbps = 2 * i, mcs = i (mod 29 wraps at 29; keep i < 29)
        let samples: Vec<TputSample> = samples.into_iter().take(28).collect();
        let row = correlate(&samples, Operator::Verizon, Direction::Downlink);
        let r_mcs = row.get(Kpi::Mcs).unwrap();
        assert!(r_mcs > 0.99, "r {r_mcs}");
        // RSRP constant → undefined.
        assert_eq!(row.get(Kpi::Rsrp), None);
        assert_eq!(row.n, 28);
    }

    #[test]
    fn wrong_operator_direction_excluded() {
        let samples = vec![sample(10.0, -90.0, 10, 60.0)];
        let row = correlate(&samples, Operator::Att, Direction::Downlink);
        assert_eq!(row.n, 0);
        assert!(row.r.iter().all(|(_, v)| v.is_none()));
    }

    #[test]
    fn table2_has_six_rows() {
        let samples: Vec<TputSample> = (0..30)
            .map(|i| sample(i as f64, -110.0 + i as f64, (i % 28) as u8, 50.0 + i as f64))
            .collect();
        let t = table2(&samples);
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn no_strong_correlation_helper() {
        let samples: Vec<TputSample> = (0..100)
            .map(|i| {
                // Throughput unrelated to the KPIs.
                sample(
                    ((i * 37) % 100) as f64,
                    -110.0 + (i % 40) as f64,
                    (i % 28) as u8,
                    (i % 80) as f64,
                )
            })
            .collect();
        let row = correlate(&samples, Operator::Verizon, Direction::Downlink);
        assert!(row.no_strong_correlation(0.7));
    }
}
