//! Per-cell load.
//!
//! Cell load — how much of the cell's capacity other users are consuming —
//! is the paper's implicit explanation for why throughput stays poor "even
//! in areas with full high-speed 5G coverage" (§5.2) and why no single
//! radio KPI correlates strongly with throughput (Table 2): the scheduler
//! share is invisible to the UE-side KPIs.
//!
//! The model: each cell has a base utilization drawn once (zone-dependent:
//! city cells run hotter), a diurnal component (busy hours), and a bursty
//! two-state component (a platoon of users arrives/leaves). The UE's
//! schedulable share is `1 − utilization`, floored at a small positive
//! share.

use std::collections::HashMap;

use wheels_geo::route::ZoneClass;
use wheels_sim_core::process::TwoStateMarkov;
use wheels_sim_core::rng::SimRng;
use wheels_sim_core::time::SimTime;

use crate::cells::CellId;

/// Minimum schedulable share left to our UE even in a saturated cell.
pub const MIN_SHARE: f64 = 0.045;

/// Load state of one cell.
#[derive(Debug, Clone)]
struct CellLoad {
    /// Long-run base utilization in [0, 0.9].
    base: f64,
    /// Bursty component: ON adds `burst_depth` utilization.
    burst: TwoStateMarkov,
    burst_depth: f64,
    last_poll: Option<SimTime>,
}

/// Tracks load for all cells of a deployment, lazily instantiated.
#[derive(Debug)]
pub struct LoadModel {
    cells: HashMap<CellId, CellLoad>,
    rng: SimRng,
}

/// Diurnal utilization multiplier: quiet nights, busy midday/evening.
/// `local_hour` in [0, 24).
pub fn diurnal_factor(local_hour: f64) -> f64 {
    // Smooth double-peak curve: morning (9h) and evening (18h) peaks.
    let h = local_hour.rem_euclid(24.0);
    let peak = |center: f64, width: f64| (-((h - center) / width).powi(2)).exp();
    let day = 0.55 + 0.45 * (peak(9.5, 4.0) + peak(18.0, 4.5)).min(1.0);
    day.clamp(0.3, 1.0)
}

impl LoadModel {
    /// New load model with its own RNG substream.
    pub fn new(rng: SimRng) -> Self {
        LoadModel {
            cells: HashMap::new(),
            rng,
        }
    }

    /// Schedulable share (`1 − utilization`, floored) for our UE on `cell`
    /// at time `t` with the cell in `zone` and local hour `local_hour`.
    pub fn share(&mut self, cell: CellId, zone: ZoneClass, t: SimTime, local_hour: f64) -> f64 {
        let rng = &mut self.rng;
        let entry = self.cells.entry(cell).or_insert_with(|| {
            let mut crng = rng.split(&format!("load/{}", cell.0));
            let base_range = match zone {
                ZoneClass::City => (0.40, 0.88),
                ZoneClass::Suburban => (0.32, 0.82),
                ZoneClass::Highway => (0.25, 0.78),
            };
            CellLoad {
                base: crng.uniform(base_range.0, base_range.1),
                burst: TwoStateMarkov::new_stationary(45_000.0, 120_000.0, &mut crng),
                burst_depth: crng.uniform(0.20, 0.60),
                last_poll: None,
            }
        });
        let dt_ms = entry
            .last_poll
            .map(|last| t.since(last).as_millis())
            .unwrap_or(0);
        entry.last_poll = Some(t);
        let bursting = entry.burst.step(&mut self.rng, dt_ms as f64);
        let util = entry.base * diurnal_factor(local_hour)
            + if bursting { entry.burst_depth } else { 0.0 };
        (1.0 - util).clamp(MIN_SHARE, 1.0)
    }

    /// Number of cells with instantiated load state.
    pub fn tracked_cells(&self) -> usize {
        self.cells.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diurnal_peaks_during_day() {
        assert!(diurnal_factor(3.0) < diurnal_factor(9.5));
        assert!(diurnal_factor(18.0) > diurnal_factor(23.5));
        for h in 0..24 {
            let f = diurnal_factor(h as f64);
            assert!((0.3..=1.0).contains(&f), "hour {h}: {f}");
        }
    }

    #[test]
    fn share_bounds_respected() {
        let mut m = LoadModel::new(SimRng::seed(1));
        for i in 0..200 {
            let s = m.share(
                CellId(i),
                ZoneClass::City,
                SimTime::from_secs(i as u64),
                12.0,
            );
            assert!((MIN_SHARE..=1.0).contains(&s), "share {s}");
        }
    }

    #[test]
    fn city_cells_hotter_than_highway() {
        let mut m = LoadModel::new(SimRng::seed(2));
        let mut city = 0.0;
        let mut hw = 0.0;
        let n = 400;
        for i in 0..n {
            city += m.share(CellId(i), ZoneClass::City, SimTime::from_secs(0), 12.0);
            hw += m.share(
                CellId(10_000 + i),
                ZoneClass::Highway,
                SimTime::from_secs(0),
                12.0,
            );
        }
        assert!(
            hw / n as f64 > city / n as f64 + 0.05,
            "hw {} city {}",
            hw / n as f64,
            city / n as f64
        );
    }

    #[test]
    fn same_cell_load_is_persistent() {
        let mut m = LoadModel::new(SimRng::seed(3));
        let a = m.share(CellId(7), ZoneClass::Suburban, SimTime::from_secs(0), 12.0);
        // 100 ms later, load should be nearly identical (same base, burst
        // rarely flips in 100 ms).
        let b = m.share(CellId(7), ZoneClass::Suburban, SimTime(100), 12.0);
        assert!((a - b).abs() < 0.01, "a {a} b {b}");
        assert_eq!(m.tracked_cells(), 1);
    }

    #[test]
    fn different_cells_have_different_load() {
        let mut m = LoadModel::new(SimRng::seed(4));
        let shares: Vec<f64> = (0..50)
            .map(|i| m.share(CellId(i), ZoneClass::City, SimTime::from_secs(0), 12.0))
            .collect();
        let distinct = shares
            .windows(2)
            .filter(|w| (w[0] - w[1]).abs() > 1e-6)
            .count();
        assert!(distinct > 30, "distinct {distinct}");
    }

    #[test]
    fn bursts_change_share_over_time() {
        let mut m = LoadModel::new(SimRng::seed(5));
        let mut values = Vec::new();
        for s in 0..600 {
            values.push(m.share(CellId(1), ZoneClass::Highway, SimTime::from_secs(s), 12.0));
        }
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(0.0, f64::max);
        assert!(max - min > 0.05, "min {min} max {max}");
    }
}
