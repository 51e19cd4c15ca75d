//! Coverage analysis (Figs. 1–2): miles-weighted technology shares.

use std::collections::BTreeMap;

use wheels_radio::tech::{Direction, Technology};
use wheels_ran::operator::Operator;
use wheels_sim_core::time::Timezone;
use wheels_sim_core::units::{Speed, SpeedBin};

use crate::records::CoverageSample;

/// A coverage breakdown: for each technology (plus out-of-service), the
/// percentage of miles driven while connected to it.
#[derive(Debug, Clone, Default)]
pub struct TechShare {
    /// Miles per slot: out of service, then [`Technology::ALL`] order.
    miles: [f64; Technology::COUNT + 1],
    total: f64,
}

/// Dense slot of a (possibly absent) technology: 0 is out of service.
fn slot(tech: Option<Technology>) -> usize {
    tech.map_or(0, |t| t.index() + 1)
}

impl TechShare {
    /// Accumulate a sample. Non-positive mileage is ignored.
    pub fn add(&mut self, tech: Option<Technology>, miles: f64) {
        if miles <= 0.0 {
            return;
        }
        self.miles[slot(tech)] += miles;
        self.total += miles;
    }

    fn percent(&self, tech: Option<Technology>) -> f64 {
        if self.total <= 0.0 {
            return 0.0;
        }
        self.miles[slot(tech)] / self.total * 100.0
    }

    /// Percentage of miles on `tech`.
    pub fn pct(&self, tech: Technology) -> f64 {
        self.percent(Some(tech))
    }

    /// Percentage of miles with no service.
    pub fn pct_no_service(&self) -> f64 {
        self.percent(None)
    }

    /// Percentage of miles on any 5G technology (Fig. 2a's headline).
    pub fn pct_5g(&self) -> f64 {
        Technology::ALL
            .iter()
            .filter(|t| t.is_5g())
            .map(|t| self.pct(*t))
            .sum()
    }

    /// Percentage of miles on high-speed 5G (mid + mmWave).
    pub fn pct_high_speed(&self) -> f64 {
        Technology::ALL
            .iter()
            .filter(|t| t.is_high_speed())
            .map(|t| self.pct(*t))
            .sum()
    }

    /// Total miles accumulated.
    pub fn total_miles(&self) -> f64 {
        self.total
    }
}

/// Fig. 2a: per-operator overall technology share of miles driven.
pub fn overall(samples: &[CoverageSample], op: Operator) -> TechShare {
    overall_from(samples.iter().filter(|s| s.operator == op))
}

/// [`overall`] over pre-filtered samples (the dataset-view path).
pub fn overall_from<'a>(samples: impl IntoIterator<Item = &'a CoverageSample>) -> TechShare {
    let mut out = TechShare::default();
    for s in samples {
        out.add(s.tech, s.miles);
    }
    out
}

/// Fig. 2b: share split by backlogged traffic direction.
pub fn by_direction(samples: &[CoverageSample], op: Operator) -> BTreeMap<Direction, TechShare> {
    by_direction_from(samples.iter().filter(|s| s.operator == op))
}

/// [`by_direction`] over pre-filtered samples.
pub fn by_direction_from<'a>(
    samples: impl IntoIterator<Item = &'a CoverageSample>,
) -> BTreeMap<Direction, TechShare> {
    let mut out: BTreeMap<Direction, TechShare> = BTreeMap::new();
    for s in samples {
        if let Some(dir) = s.direction {
            out.entry(dir).or_default().add(s.tech, s.miles);
        }
    }
    out
}

/// Fig. 2c: share per timezone.
pub fn by_timezone(samples: &[CoverageSample], op: Operator) -> BTreeMap<Timezone, TechShare> {
    by_timezone_from(samples.iter().filter(|s| s.operator == op))
}

/// [`by_timezone`] over pre-filtered samples.
pub fn by_timezone_from<'a>(
    samples: impl IntoIterator<Item = &'a CoverageSample>,
) -> BTreeMap<Timezone, TechShare> {
    let mut out: BTreeMap<Timezone, TechShare> = BTreeMap::new();
    for s in samples {
        out.entry(s.tz).or_default().add(s.tech, s.miles);
    }
    out
}

/// Fig. 2d: share per speed bin.
pub fn by_speed_bin(samples: &[CoverageSample], op: Operator) -> BTreeMap<SpeedBin, TechShare> {
    by_speed_bin_from(samples.iter().filter(|s| s.operator == op))
}

/// [`by_speed_bin`] over pre-filtered samples.
pub fn by_speed_bin_from<'a>(
    samples: impl IntoIterator<Item = &'a CoverageSample>,
) -> BTreeMap<SpeedBin, TechShare> {
    let mut out: BTreeMap<SpeedBin, TechShare> = BTreeMap::new();
    for s in samples {
        out.entry(SpeedBin::of(Speed::from_mph(s.speed_mph)))
            .or_default()
            .add(s.tech, s.miles);
    }
    out
}

/// Fig. 1: coverage along the route as per-segment dominant technology.
/// Returns `(segment start mile, dominant tech)` for fixed-width segments
/// from mile 0 to past the farthest point, skipping empty segments. A
/// point belongs to the segment with `start <= mile < start + width`, so
/// negative and NaN miles belong to none. The dominant technology is the
/// slot with the most points; a tie goes to the later slot.
pub fn route_profile(
    samples: &[(f64, Option<Technology>)], // (mile, tech) points in route order
    segment_miles: f64,
) -> Vec<(f64, Option<Technology>)> {
    if samples.is_empty() || segment_miles <= 0.0 {
        return Vec::new();
    }
    let max_mile = samples.iter().map(|(m, _)| *m).fold(0.0, f64::max);
    // Segment starts by repeated addition, so each end is bit-equal to
    // the next start.
    let mut starts = Vec::new();
    let mut seg_start = 0.0;
    while seg_start <= max_mile {
        starts.push(seg_start);
        seg_start += segment_miles;
    }
    let mut counts = vec![[0u32; Technology::COUNT + 1]; starts.len()];
    for &(m, t) in samples {
        let Some(i) = starts.partition_point(|s| *s <= m).checked_sub(1) else {
            continue;
        };
        if m < starts[i] + segment_miles {
            counts[i][slot(t)] += 1;
        }
    }
    let slots = core::iter::once(None).chain(Technology::ALL.iter().map(|t| Some(*t)));
    starts
        .iter()
        .zip(&counts)
        .filter(|(_, c)| c.iter().any(|n| *n > 0))
        .map(|(s, c)| {
            let dominant = slots
                .clone()
                .max_by_key(|t| c[slot(*t)])
                .expect("iterator is non-empty by construction");
            (*s, dominant)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use wheels_geo::route::ZoneClass;
    use wheels_sim_core::time::SimTime;

    fn cov(
        op: Operator,
        tech: Option<Technology>,
        dir: Option<Direction>,
        tz: Timezone,
        mph: f64,
        miles: f64,
    ) -> CoverageSample {
        CoverageSample {
            t: SimTime::EPOCH,
            operator: op,
            tech,
            direction: dir,
            miles,
            speed_mph: mph,
            tz,
            zone: ZoneClass::Highway,
        }
    }

    #[test]
    fn overall_shares_sum_to_100() {
        let samples = vec![
            cov(
                Operator::Verizon,
                Some(Technology::Lte),
                None,
                Timezone::Pacific,
                60.0,
                3.0,
            ),
            cov(
                Operator::Verizon,
                Some(Technology::Nr5gMid),
                None,
                Timezone::Pacific,
                60.0,
                1.0,
            ),
            cov(Operator::Verizon, None, None, Timezone::Pacific, 60.0, 1.0),
            // Other operator ignored.
            cov(
                Operator::Att,
                Some(Technology::LteA),
                None,
                Timezone::Pacific,
                60.0,
                9.0,
            ),
        ];
        let s = overall(&samples, Operator::Verizon);
        assert!((s.pct(Technology::Lte) - 60.0).abs() < 1e-9);
        assert!((s.pct(Technology::Nr5gMid) - 20.0).abs() < 1e-9);
        assert!((s.pct_no_service() - 20.0).abs() < 1e-9);
        assert!((s.pct_5g() - 20.0).abs() < 1e-9);
        assert!((s.total_miles() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn direction_split() {
        let samples = vec![
            cov(
                Operator::TMobile,
                Some(Technology::Nr5gMid),
                Some(Direction::Downlink),
                Timezone::Central,
                60.0,
                2.0,
            ),
            cov(
                Operator::TMobile,
                Some(Technology::Lte),
                Some(Direction::Uplink),
                Timezone::Central,
                60.0,
                2.0,
            ),
            cov(
                Operator::TMobile,
                Some(Technology::Nr5gMid),
                None,
                Timezone::Central,
                60.0,
                5.0,
            ),
        ];
        let by_dir = by_direction(&samples, Operator::TMobile);
        assert!((by_dir[&Direction::Downlink].pct_high_speed() - 100.0).abs() < 1e-9);
        assert!((by_dir[&Direction::Uplink].pct_high_speed() - 0.0).abs() < 1e-9);
    }

    #[test]
    fn timezone_and_speed_breakdowns() {
        let samples = vec![
            cov(
                Operator::Att,
                Some(Technology::LteA),
                None,
                Timezone::Mountain,
                70.0,
                1.0,
            ),
            cov(
                Operator::Att,
                Some(Technology::Nr5gLow),
                None,
                Timezone::Eastern,
                10.0,
                1.0,
            ),
        ];
        let tz = by_timezone(&samples, Operator::Att);
        assert_eq!(tz.len(), 2);
        assert!((tz[&Timezone::Eastern].pct_5g() - 100.0).abs() < 1e-9);
        let sb = by_speed_bin(&samples, Operator::Att);
        assert!((sb[&SpeedBin::High].pct(Technology::LteA) - 100.0).abs() < 1e-9);
        assert!((sb[&SpeedBin::Low].pct(Technology::Nr5gLow) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn route_profile_picks_dominant() {
        let pts = vec![
            (0.1, Some(Technology::Lte)),
            (0.2, Some(Technology::Lte)),
            (0.3, Some(Technology::Nr5gMid)),
            (10.5, Some(Technology::Nr5gMid)),
            (10.6, Some(Technology::Nr5gMid)),
        ];
        let prof = route_profile(&pts, 10.0);
        assert_eq!(prof.len(), 2);
        assert_eq!(prof[0], (0.0, Some(Technology::Lte)));
        assert_eq!(prof[1], (10.0, Some(Technology::Nr5gMid)));
    }

    #[test]
    fn route_profile_empty_inputs() {
        assert!(route_profile(&[], 10.0).is_empty());
        assert!(route_profile(&[(1.0, None)], 0.0).is_empty());
    }

    /// Reference `route_profile`: for each segment, rescan every point
    /// and weigh it into a map, keeping the last of equal maxima.
    fn rescan_profile(
        samples: &[(f64, Option<Technology>)],
        segment_miles: f64,
    ) -> Vec<(f64, Option<Technology>)> {
        if samples.is_empty() || segment_miles <= 0.0 {
            return Vec::new();
        }
        let max_mile = samples.iter().map(|(m, _)| *m).fold(0.0, f64::max);
        let mut out = Vec::new();
        let mut seg_start = 0.0;
        while seg_start <= max_mile {
            let seg_end = seg_start + segment_miles;
            let mut weights: std::collections::HashMap<Option<Technology>, f64> =
                std::collections::HashMap::new();
            let mut total = 0.0;
            for (_, t) in samples
                .iter()
                .filter(|(m, _)| *m >= seg_start && *m < seg_end)
            {
                *weights.entry(*t).or_insert(0.0) += 1.0;
                total += 1.0;
            }
            if total > 0.0 {
                let weight = |k: &Option<Technology>| weights.get(k).copied().unwrap_or(0.0);
                let dominant = core::iter::once(None)
                    .chain(Technology::ALL.iter().map(|t| Some(*t)))
                    .max_by(|a, b| weight(a).total_cmp(&weight(b)))
                    .unwrap();
                out.push((seg_start, dominant));
            }
            seg_start = seg_end;
        }
        out
    }

    /// Slot 0 is out of service, then [`Technology::ALL`].
    fn tech_of(slot: usize) -> Option<Technology> {
        slot.checked_sub(1).map(|i| Technology::ALL[i])
    }

    /// A mile of kind 0 is ordinary, 1 an exact multiple of 50, 2 just
    /// below one, 3 negative, 4 negative zero and 5 NaN.
    fn mile_of(kind: u8, x: f64, k: u32) -> f64 {
        match kind {
            0 => x * 3600.0,
            1 => f64::from(k) * 50.0,
            2 => f64::from(k) * 50.0 - 1e-9,
            3 => -100.0 * x,
            4 => -0.0,
            _ => f64::NAN,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn route_profile_matches_per_segment_rescan(
            points in prop::collection::vec((0u8..6, 0.0f64..1.0, 0u32..73, 0usize..6), 0..400),
            segment in prop::sample::select(vec![50.0, 7.5, 33.3, 120.0, 400.0, f64::NAN]),
        ) {
            let points: Vec<(f64, Option<Technology>)> = points
                .into_iter()
                .map(|(kind, x, k, slot)| (mile_of(kind, x, k), tech_of(slot)))
                .collect();
            let got = route_profile(&points, segment);
            let want = rescan_profile(&points, segment);
            prop_assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(g.0.to_bits(), w.0.to_bits());
                prop_assert_eq!(g.1, w.1);
            }
        }

        /// Few points over few segments, so equal counts are common and
        /// the tie-break is exercised.
        #[test]
        fn route_profile_breaks_ties_like_the_rescan(
            points in prop::collection::vec((0u32..6, 0usize..6), 1..12),
        ) {
            let points: Vec<(f64, Option<Technology>)> = points
                .into_iter()
                .map(|(k, slot)| (f64::from(k) * 25.0, tech_of(slot)))
                .collect();
            prop_assert_eq!(route_profile(&points, 50.0), rescan_profile(&points, 50.0));
        }

        #[test]
        fn tech_share_percentages_sum_to_100(
            samples in prop::collection::vec((0usize..6, 0.01f64..100.0), 1..20),
        ) {
            let mut share = TechShare::default();
            for (slot, miles) in &samples {
                share.add(tech_of(*slot), *miles);
            }
            let total = share.pct_no_service()
                + Technology::ALL.iter().map(|t| share.pct(*t)).sum::<f64>();
            prop_assert!((total - 100.0).abs() < 1e-9, "total {}", total);
        }
    }

    #[test]
    fn tech_share_ignores_non_positive_miles() {
        let mut share = TechShare::default();
        share.add(Some(Technology::Lte), 30.0);
        share.add(None, 70.0);
        share.add(None, 0.0);
        share.add(Some(Technology::Lte), -5.0);
        assert!((share.pct(Technology::Lte) - 30.0).abs() < 1e-12);
        assert!((share.pct_no_service() - 70.0).abs() < 1e-12);
        assert_eq!(share.pct(Technology::Nr5gMid), 0.0);
        assert_eq!(share.total_miles(), 100.0);
        assert_eq!(TechShare::default().pct_no_service(), 0.0);
    }
}
