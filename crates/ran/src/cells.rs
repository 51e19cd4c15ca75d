//! Cell deployment along the route.
//!
//! The world is quasi-one-dimensional: the car never leaves the route, so a
//! cell is placed at a route odometer position plus a lateral offset, and
//! UE↔cell distance is the hypotenuse. Deployment is generated per
//! `(operator, technology)` by walking the route with an on/off renewal
//! process whose ON fraction equals the strategy's coverage target and
//! whose ON-run length sets the fragmentation; within ON runs, sites are
//! placed at realistic corridor spacings (well inside the serving radius,
//! as real interstates overlap macro cells) and each site contributes two
//! road-facing sector cells with a shared site-quality offset.

use serde::{Deserialize, Serialize};
use wheels_geo::route::Route;
use wheels_radio::tech::{TechSet, Technology};
use wheels_sim_core::rng::SimRng;
use wheels_sim_core::units::Distance;

use crate::operator::Operator;

/// Globally unique cell identifier (per deployment).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CellId(pub u32);

/// One cell site.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Cell {
    /// Unique id within the deployment.
    pub id: CellId,
    /// Owning operator.
    pub operator: Operator,
    /// Radio technology.
    pub tech: Technology,
    /// Position along the route.
    pub odo: Distance,
    /// Lateral offset from the road.
    pub lateral: Distance,
    /// Site-quality offset (dB, <= 0): terrain, down-tilt, backhaul and
    /// antenna placement make some sites serve the road far worse than
    /// free-space geometry suggests. This heterogeneity is a large part of
    /// the weak-signal tail observed while driving.
    pub power_offset_db: f64,
}

impl Cell {
    /// Straight-line distance from a car at route position `ue_odo`.
    pub fn distance_to(&self, ue_odo: Distance) -> Distance {
        let along = self.odo.as_m() - ue_odo.as_m();
        let lat = self.lateral.as_m();
        Distance::from_m((along * along + lat * lat).sqrt())
    }

    /// Whether the car at `ue_odo` is within this cell's serving range
    /// (1.25× the nominal radius — links degrade rather than vanish at the
    /// nominal edge).
    pub fn in_range(&self, ue_odo: Distance) -> bool {
        self.distance_to(ue_odo).as_m() <= self.tech.cell_radius().as_m() * 1.25
    }
}

/// All cells of one operator along the route.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Deployment {
    /// The operator deployed.
    pub operator: Operator,
    /// Cells sorted by `odo`, across all technologies.
    cells: Vec<Cell>,
    /// Index of cells by technology (indices into `cells`), each sorted by
    /// `odo`, addressed by [`Technology::index`] — a fixed-size array so
    /// the per-poll lookup is a direct index, not a linear scan.
    by_tech: [Vec<u32>; Technology::COUNT],
}

/// Build the per-technology index over an odo-sorted cell list.
fn index_by_tech(cells: &[Cell]) -> [Vec<u32>; Technology::COUNT] {
    let mut by_tech: [Vec<u32>; Technology::COUNT] = Default::default();
    for (i, c) in cells.iter().enumerate() {
        by_tech[c.tech.index()].push(i as u32);
    }
    by_tech
}

/// Sampling step when walking the route for deployment generation.
const WALK_STEP_KM: f64 = 0.1;

/// Inter-site distance along the road per technology (km). Much denser
/// than the serving radius: interstate corridors overlap macro cells by
/// design, and each crossing of a sector boundary is a handover.
fn site_spacing_km(tech: Technology) -> f64 {
    match tech {
        Technology::Lte | Technology::LteA => 3.2,
        Technology::Nr5gLow => 3.2,
        Technology::Nr5gMid => 2.0,
        Technology::Nr5gMmWave => 0.28,
    }
}

/// Road-facing sectors emitted per site (each sector is its own cell/PCI,
/// as XCAL counts them).
const SECTORS_PER_SITE: u32 = 2;

impl Deployment {
    /// Generate the deployment of `operator` along `route`.
    ///
    /// Deterministic in `(route, operator, rng seed)`.
    pub fn generate(route: &Route, operator: Operator, rng: &mut SimRng) -> Self {
        let strategy = operator.strategy();
        let mut cells: Vec<Cell> = Vec::new();
        let mut next_id = 0u32;
        let total_km = route.total().as_km();

        for tech in Technology::ALL {
            let mut trng = rng.split(&format!("deploy/{}/{}", operator.label(), tech.label()));
            let radius_km = tech.cell_radius().as_km();
            let spacing_km = site_spacing_km(tech);
            let run_km = strategy.covered_run_km(tech);

            let mut odo_km = 0.0;
            let mut covered = false;
            let mut run_left_km = 0.0;
            let mut next_cell_km = 0.0;
            while odo_km < total_km {
                let odo = Distance::from_km(odo_km);
                let zone = route.zone_at(odo);
                let tz = route.timezone_at(odo);
                // Each ON run's radio footprint extends ~1.25 radii past
                // both ends, so the ON fraction is deflated to keep the
                // *measured* coverage at the strategy target.
                let target = strategy.coverage(tech, zone, tz);
                let dilation = 1.0 + 2.5 * radius_km / run_km;
                let p = if target >= 0.999 {
                    1.0
                } else {
                    target / dilation
                };

                // A zero-coverage zone (e.g. mmWave on highways) cuts any
                // run short immediately.
                if p <= 0.0 {
                    covered = false;
                }

                if run_left_km <= 0.0 {
                    // Renewal: each run is ON with probability equal to the
                    // local coverage target and all runs share the same mean
                    // length, so the expected ON fraction is exactly `p`
                    // while `run_km` sets the fragmentation granularity.
                    covered = trng.chance(p);
                    run_left_km = trng.exponential(run_km).clamp(WALK_STEP_KM, 500.0);
                    next_cell_km = odo_km; // first cell right away in a run
                }

                if covered && odo_km >= next_cell_km {
                    // One site = SECTORS_PER_SITE road-facing sectors, each
                    // its own cell, staggered along the road.
                    let site_odo = odo_km + trng.uniform(-0.1, 0.1) * spacing_km;
                    // Road-serving sites sit close to the corridor.
                    let max_lateral = (radius_km * 1000.0 * 0.45).clamp(50.0, 500.0);
                    let lateral = Distance::from_m(trng.uniform(25.0, max_lateral));
                    let site_quality = -trng.uniform(0.0, 20.0);
                    for sector in 0..SECTORS_PER_SITE {
                        let frac = (sector as f64 + 0.5) / SECTORS_PER_SITE as f64 - 0.5;
                        cells.push(Cell {
                            id: CellId(next_id),
                            operator,
                            tech,
                            odo: Distance::from_km(site_odo + frac * spacing_km * 0.5),
                            lateral,
                            power_offset_db: site_quality - trng.uniform(0.0, 4.0),
                        });
                        next_id += 1;
                    }
                    next_cell_km = odo_km + spacing_km * trng.uniform(0.8, 1.2);
                }

                odo_km += WALK_STEP_KM;
                run_left_km -= WALK_STEP_KM;
            }
        }

        cells.sort_by(|a, b| a.odo.as_m().total_cmp(&b.odo.as_m()));
        let by_tech = index_by_tech(&cells);
        Deployment {
            operator,
            cells,
            by_tech,
        }
    }

    /// Build a deployment from an explicit cell list (tests, ablations,
    /// and custom scenarios such as injected coverage holes). Cells are
    /// re-sorted by odometer.
    pub fn from_cells(operator: Operator, mut cells: Vec<Cell>) -> Self {
        cells.sort_by(|a, b| a.odo.as_m().total_cmp(&b.odo.as_m()));
        let by_tech = index_by_tech(&cells);
        Deployment {
            operator,
            cells,
            by_tech,
        }
    }

    /// All cells (sorted by odometer).
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Number of cells of one technology.
    pub fn count_of(&self, tech: Technology) -> usize {
        self.by_tech[tech.index()].len()
    }

    /// The in-range cells of `tech` around route position `ue_odo`,
    /// nearest first (convenience wrapper over [`candidates_into`]).
    ///
    /// [`candidates_into`]: Deployment::candidates_into
    pub fn candidates(&self, tech: Technology, ue_odo: Distance) -> Vec<&Cell> {
        let mut out = Vec::new();
        self.candidates_into(tech, ue_odo, &mut out);
        out
    }

    /// Fill `out` with the in-range cells of `tech` around `ue_odo`,
    /// nearest first. The buffer is cleared first; re-using one buffer
    /// across polls keeps the hot path free of per-sample allocation.
    pub fn candidates_into<'d>(
        &'d self,
        tech: Technology,
        ue_odo: Distance,
        out: &mut Vec<&'d Cell>,
    ) {
        out.clear();
        let radius_m = tech.cell_radius().as_m() * 1.25;
        let lo = Distance::from_m((ue_odo.as_m() - radius_m).max(0.0));
        let hi = Distance::from_m(ue_odo.as_m() + radius_m);
        let idxs = &self.by_tech[tech.index()];
        // Cells and the per-tech index are both odo-sorted; binary search
        // the window.
        let start = idxs.partition_point(|&i| self.cells[i as usize].odo < lo);
        out.extend(
            idxs[start..]
                .iter()
                .map(|&i| &self.cells[i as usize])
                .take_while(|c| c.odo <= hi)
                .filter(|c| c.in_range(ue_odo)),
        );
        // In-place sort: `sort_unstable_by` does not allocate (the stable
        // sort's merge buffer would count as a per-sample allocation).
        out.sort_unstable_by(|a, b| {
            a.distance_to(ue_odo)
                .as_m()
                .total_cmp(&b.distance_to(ue_odo).as_m())
        });
    }

    /// Whether `tech` has at least one in-range cell at `ue_odo`.
    ///
    /// Short-circuits on the first hit — unlike [`candidates`], it never
    /// collects or sorts, so probing all five technologies at a new
    /// position costs one windowed scan each.
    ///
    /// [`candidates`]: Deployment::candidates
    pub fn has_coverage(&self, tech: Technology, ue_odo: Distance) -> bool {
        let radius_m = tech.cell_radius().as_m() * 1.25;
        let lo = Distance::from_m((ue_odo.as_m() - radius_m).max(0.0));
        let hi = Distance::from_m(ue_odo.as_m() + radius_m);
        let idxs = &self.by_tech[tech.index()];
        let start = idxs.partition_point(|&i| self.cells[i as usize].odo < lo);
        idxs[start..]
            .iter()
            .map(|&i| &self.cells[i as usize])
            .take_while(|c| c.odo <= hi)
            .any(|c| c.in_range(ue_odo))
    }

    /// Technologies with at least one in-range cell at `ue_odo`.
    pub fn available_techs(&self, ue_odo: Distance) -> TechSet {
        Technology::ALL
            .into_iter()
            .filter(|t| self.has_coverage(*t, ue_odo))
            .collect()
    }

    /// Fraction of route length (sampled at `step_km`) where `tech` has an
    /// in-range cell — used by calibration tests against Fig. 2 targets.
    pub fn coverage_fraction(&self, route: &Route, tech: Technology, step_km: f64) -> f64 {
        let total_km = route.total().as_km();
        let mut covered = 0u32;
        let mut n = 0u32;
        let mut km = 0.0;
        while km < total_km {
            n += 1;
            if self.has_coverage(tech, Distance::from_km(km)) {
                covered += 1;
            }
            km += step_km;
        }
        covered as f64 / n.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn deployments() -> &'static [(Operator, Deployment)] {
        static DEPLOYMENTS: OnceLock<Vec<(Operator, Deployment)>> = OnceLock::new();
        DEPLOYMENTS.get_or_init(|| {
            let route = Route::standard();
            let rng = SimRng::seed(2022);
            Operator::ALL
                .into_iter()
                .map(|op| {
                    (
                        op,
                        Deployment::generate(&route, op, &mut rng.split(op.label())),
                    )
                })
                .collect()
        })
    }

    fn get(op: Operator) -> &'static Deployment {
        &deployments().iter().find(|(o, _)| *o == op).unwrap().1
    }

    #[test]
    fn cell_distance_math() {
        let c = Cell {
            id: CellId(0),
            operator: Operator::Verizon,
            tech: Technology::Lte,
            odo: Distance::from_km(10.0),
            lateral: Distance::from_m(300.0),
            power_offset_db: 0.0,
        };
        let d = c.distance_to(Distance::from_km(10.4));
        assert!((d.as_m() - 500.0).abs() < 1e-9); // 3-4-5 triangle
    }

    #[test]
    fn lte_is_nearly_continuous() {
        let route = Route::standard();
        for op in Operator::ALL {
            let f = get(op).coverage_fraction(&route, Technology::Lte, 2.0);
            assert!(f > 0.97, "{op:?} LTE coverage {f}");
        }
    }

    #[test]
    fn cell_counts_in_paper_ballpark() {
        // Table 1: 3020 (V), 4038 (T), 3150 (A) unique *connected* cells;
        // deployed counts should be the same order of magnitude.
        for op in Operator::ALL {
            let n = get(op).cells().len();
            assert!((500..15_000).contains(&n), "{op:?} deployed {n} cells");
        }
    }

    #[test]
    fn tmobile_midband_beats_others() {
        let route = Route::standard();
        let t = get(Operator::TMobile).coverage_fraction(&route, Technology::Nr5gMid, 2.0);
        let v = get(Operator::Verizon).coverage_fraction(&route, Technology::Nr5gMid, 2.0);
        let a = get(Operator::Att).coverage_fraction(&route, Technology::Nr5gMid, 2.0);
        assert!(t > 0.25, "T-Mobile midband {t}");
        assert!(t > v * 2.0, "T {t} vs V {v}");
        assert!(t > a * 5.0, "T {t} vs A {a}");
    }

    #[test]
    fn mmwave_exists_only_near_cities() {
        let route = Route::standard();
        for op in Operator::ALL {
            for c in get(op)
                .cells()
                .iter()
                .filter(|c| c.tech == Technology::Nr5gMmWave)
            {
                let zone = route.zone_at(c.odo);
                assert_ne!(
                    zone,
                    wheels_geo::route::ZoneClass::Highway,
                    "{op:?} mmWave cell at {} km in {zone:?}",
                    c.odo.as_km()
                );
            }
        }
    }

    #[test]
    fn verizon_has_most_mmwave() {
        let v = get(Operator::Verizon).count_of(Technology::Nr5gMmWave);
        let t = get(Operator::TMobile).count_of(Technology::Nr5gMmWave);
        let a = get(Operator::Att).count_of(Technology::Nr5gMmWave);
        assert!(v > t && v > a, "V {v} T {t} A {a}");
    }

    #[test]
    fn candidates_sorted_by_distance_and_in_range() {
        let d = get(Operator::TMobile);
        // Probe many positions; whenever there are candidates, check order.
        for km in (0..5700).step_by(97) {
            let odo = Distance::from_km(km as f64);
            let cands = d.candidates(Technology::Nr5gMid, odo);
            for w in cands.windows(2) {
                assert!(w[0].distance_to(odo).as_m() <= w[1].distance_to(odo).as_m());
            }
            for c in &cands {
                assert!(c.in_range(odo));
                assert_eq!(c.tech, Technology::Nr5gMid);
            }
        }
    }

    #[test]
    fn available_techs_always_includes_lte_mostly() {
        let d = get(Operator::Att);
        let mut with_lte = 0;
        let mut n = 0;
        for km in (0..5700).step_by(13) {
            n += 1;
            if d.available_techs(Distance::from_km(km as f64))
                .contains(Technology::Lte)
            {
                with_lte += 1;
            }
        }
        assert!(with_lte as f64 / n as f64 > 0.97);
    }

    #[test]
    fn has_coverage_agrees_with_candidates() {
        let d = get(Operator::Verizon);
        for km in (0..5700).step_by(53) {
            let odo = Distance::from_km(km as f64);
            for tech in Technology::ALL {
                assert_eq!(
                    d.has_coverage(tech, odo),
                    !d.candidates(tech, odo).is_empty(),
                    "{tech:?} at {km} km"
                );
            }
        }
    }

    #[test]
    fn candidates_into_reuses_buffer() {
        let d = get(Operator::TMobile);
        let mut buf: Vec<&Cell> = Vec::new();
        let mut last_cap = 0;
        for km in (0..500).step_by(7) {
            let odo = Distance::from_km(km as f64);
            d.candidates_into(Technology::Lte, odo, &mut buf);
            assert_eq!(buf.len(), d.candidates(Technology::Lte, odo).len());
            // Capacity only ever grows: the buffer is reused, not
            // reallocated per call.
            assert!(buf.capacity() >= last_cap);
            last_cap = buf.capacity();
        }
    }

    #[test]
    fn deployment_is_deterministic() {
        let route = Route::standard();
        let a = Deployment::generate(&route, Operator::Verizon, &mut SimRng::seed(7));
        let b = Deployment::generate(&route, Operator::Verizon, &mut SimRng::seed(7));
        assert_eq!(a.cells().len(), b.cells().len());
        assert_eq!(a.cells().first(), b.cells().first());
        assert_eq!(a.cells().last(), b.cells().last());
    }

    #[test]
    fn cells_sorted_by_odometer() {
        for op in Operator::ALL {
            for w in get(op).cells().windows(2) {
                assert!(w[0].odo.as_m() <= w[1].odo.as_m());
            }
        }
    }
}
