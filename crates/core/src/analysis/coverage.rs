//! Coverage analysis (Figs. 1–2): miles-weighted technology shares.

use std::collections::BTreeMap;

use wheels_radio::tech::{Direction, Technology};
use wheels_ran::operator::Operator;
use wheels_sim_core::stats::WeightedShare;
use wheels_sim_core::time::Timezone;
use wheels_sim_core::units::{Speed, SpeedBin};

use crate::records::CoverageSample;

/// A coverage breakdown: for each technology (plus out-of-service), the
/// percentage of miles driven while connected to it.
#[derive(Debug, Clone, Default)]
pub struct TechShare {
    share: WeightedShare<Option<Technology>>,
}

impl TechShare {
    /// Accumulate a sample.
    pub fn add(&mut self, tech: Option<Technology>, miles: f64) {
        self.share.add(tech, miles);
    }

    /// Percentage of miles on `tech`.
    pub fn pct(&self, tech: Technology) -> f64 {
        self.share.percent(&Some(tech))
    }

    /// Percentage of miles with no service.
    pub fn pct_no_service(&self) -> f64 {
        self.share.percent(&None)
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
        self.share.total()
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
/// Returns `(segment start mile, dominant tech)` for fixed-width segments.
pub fn route_profile(
    samples: &[(f64, Option<Technology>)], // (mile, tech) points in route order
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
        let mut share: WeightedShare<Option<Technology>> = WeightedShare::new();
        for (m, t) in samples
            .iter()
            .filter(|(m, _)| *m >= seg_start && *m < seg_end)
        {
            let _ = m;
            share.add(*t, 1.0);
        }
        if share.total() > 0.0 {
            // Dominant = the key with the largest weight.
            let dominant = core::iter::once(None)
                .chain(Technology::ALL.iter().map(|t| Some(*t)))
                .max_by(|a, b| share.weight(a).total_cmp(&share.weight(b)))
                .expect("iterator is non-empty by construction");
            out.push((seg_start, dominant));
        }
        seg_start = seg_end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
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
}
