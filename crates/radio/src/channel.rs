//! Per-link channel dynamics.
//!
//! A [`LinkChannel`] owns the stochastic state of one UE↔cell link:
//!
//! - **Shadowing** — spatially-correlated log-normal (Gauss-Markov stepped
//!   by meters moved), so a car driving behind a hill stays shadowed for a
//!   correlated stretch of road.
//! - **Fast fading** — AR(1) in dB, stepped per poll.
//! - **Blockage** — mmWave only: a two-state LOS/NLOS Markov process whose
//!   dwell times shrink with speed (passing trucks, poles, foliage), adding
//!   a large penalty when blocked. This is the main source of the paper's
//!   "mmWave can deliver >1 Gbps and also extremely low throughput while
//!   driving" bimodality.
//!
//! The output [`ChannelSample`] separates *reported RSRP* (what XCAL logs,
//! including the operator's SSB beam offset) from *SINR* (what the
//! scheduler actually achieves on the traffic beam) — the wedge between the
//! two is what breaks the RSRP↔throughput correlation for wide-beam
//! operators (Table 2).

use std::cell::Cell;

use serde::{Deserialize, Serialize};
use wheels_sim_core::process::{Ar1, GaussMarkov, TwoStateMarkov};
use wheels_sim_core::rng::SimRng;
use wheels_sim_core::units::{Db, Dbm, Distance, Speed};

use crate::linkbudget::{BeamProfile, LinkBudget};
use crate::tech::Technology;

/// Instantaneous channel readout for one link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChannelSample {
    /// RSRP as the modem reports it (includes the SSB beam offset).
    pub rsrp: Dbm,
    /// Signal-to-noise ratio on the traffic beam, before interference.
    pub snr: Db,
    /// True while a mmWave link is blocked (NLOS).
    pub blocked: bool,
}

/// dB penalty applied to a blocked mmWave link.
const BLOCKAGE_PENALTY_DB: f64 = 22.0;

/// Stochastic state of one UE↔cell radio link.
#[derive(Debug, Clone)]
pub struct LinkChannel {
    budget: LinkBudget,
    beam: BeamProfile,
    shadowing: GaussMarkov,
    fading: Ar1,
    blockage: Option<TwoStateMarkov>,
    /// `budget.noise_floor()`, fixed for the link's lifetime.
    noise_floor: Dbm,
    /// The last `budget.mean_rx_power` result, keyed by the distance's
    /// bits: a drive trace moves the car once per second while the link
    /// is polled many times, so most calls repeat the previous distance.
    mean_rx: Cell<Option<(u64, Dbm)>>,
}

impl LinkChannel {
    /// Create the channel for a link using `tech` with the operator's
    /// mmWave `beam` profile.
    pub fn new(tech: Technology, beam: BeamProfile, rng: &mut SimRng) -> Self {
        let shadow_sigma = match tech {
            Technology::Nr5gMmWave => 4.5,
            Technology::Nr5gMid => 7.0,
            _ => 6.5,
        };
        // Correlation length in meters (decorrelation distance).
        let shadow_corr_m = match tech {
            Technology::Nr5gMmWave => 25.0,
            _ => 90.0,
        };
        let blockage = (tech == Technology::Nr5gMmWave)
            .then(|| TwoStateMarkov::new_stationary(6_000.0, 1_500.0, rng));
        let budget = LinkBudget::for_tech(tech);
        LinkChannel {
            budget,
            beam,
            shadowing: GaussMarkov::new_stationary(0.0, shadow_sigma, shadow_corr_m, rng),
            fading: Ar1::new(0.70, 2.5),
            blockage,
            noise_floor: budget.noise_floor(),
            mean_rx: Cell::new(None),
        }
    }

    /// The technology this link runs on.
    pub fn tech(&self) -> Technology {
        self.budget.tech
    }

    /// Re-bias the blockage process for a static, line-of-sight geometry
    /// (a tester standing in front of the BS): ~97% LOS with only brief
    /// obstructions from passing traffic.
    #[must_use]
    pub fn with_static_los(mut self) -> Self {
        if self.blockage.is_some() {
            self.blockage = Some(TwoStateMarkov::new(30_000.0, 900.0, true));
        }
        self
    }

    /// Advance the channel and sample it.
    ///
    /// * `distance` — current UE↔cell distance.
    /// * `moved` — meters moved since the last sample (steps shadowing).
    /// * `dt_ms` — time since the last sample (steps blockage; its dwell
    ///   times scale down with `speed` so faster driving blocks more).
    pub fn sample(
        &mut self,
        rng: &mut SimRng,
        distance: Distance,
        moved: Distance,
        dt_ms: u64,
        speed: Speed,
    ) -> ChannelSample {
        let shadow = Db(self.shadowing.step(rng, moved.as_m()));
        let fade = Db(self.fading.step(rng));

        let mut blocked = false;
        let mut blockage_loss = Db(0.0);
        if let Some(b) = &mut self.blockage {
            // Faster motion sweeps through blockers quicker in both
            // directions: scale effective time by (1 + v/10).
            let scale = 1.0 + speed.as_mps() / 10.0;
            blocked = !b.step(rng, dt_ms as f64 * scale);
            if blocked {
                blockage_loss = Db(BLOCKAGE_PENALTY_DB);
            }
        }

        let rx = self
            .mean_rx_power(distance)
            .plus(shadow)
            .plus(fade)
            .minus(blockage_loss);
        let snr = rx - self.noise_floor;
        let re_norm = Db(self.budget.tech.rsrp_per_re_offset_db());
        // Measurement error: the modem's reported RSRP is a filtered
        // estimate, a couple of dB off the true channel at any instant —
        // one of the reasons RSRP predicts throughput poorly (Table 2).
        let meas_err = Db(rng.normal(0.0, 2.0));
        let reported = rx.plus(self.beam.rsrp_offset).minus(re_norm).plus(meas_err);
        ChannelSample {
            // Modems report RSRP within [-140, -44] dBm.
            rsrp: Dbm(reported.0.clamp(-140.0, -44.0)),
            snr,
            blocked,
        }
    }

    /// Mean (deterministic) reported RSRP at a distance — used for cell
    /// selection and A3 handover comparison without consuming randomness.
    pub fn mean_rsrp(&self, distance: Distance) -> Dbm {
        self.mean_rx_power(distance)
            .plus(self.beam.rsrp_offset)
            .minus(Db(self.budget.tech.rsrp_per_re_offset_db()))
    }

    /// `budget.mean_rx_power(distance)`, recomputed only when the distance
    /// differs from the previous call's.
    fn mean_rx_power(&self, distance: Distance) -> Dbm {
        let key = distance.as_m().to_bits();
        match self.mean_rx.get() {
            Some((k, rx)) if k == key => rx,
            _ => {
                let rx = self.budget.mean_rx_power(distance);
                self.mean_rx.set(Some((key, rx)));
                rx
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_many(
        tech: Technology,
        beam: BeamProfile,
        d: Distance,
        n: usize,
        seed: u64,
    ) -> Vec<ChannelSample> {
        let mut rng = SimRng::seed(seed);
        let mut ch = LinkChannel::new(tech, beam, &mut rng);
        (0..n)
            .map(|_| {
                ch.sample(
                    &mut rng,
                    d,
                    Distance::from_m(15.0),
                    500,
                    Speed::from_mph(65.0),
                )
            })
            .collect()
    }

    #[test]
    fn rsrp_centers_on_link_budget_minus_re_norm() {
        let d = Distance::from_km(2.0);
        let samples = sample_many(Technology::Lte, BeamProfile::neutral(), d, 5000, 1);
        let mean_rsrp = samples.iter().map(|s| s.rsrp.0).sum::<f64>() / samples.len() as f64;
        let expect = LinkBudget::for_tech(Technology::Lte).mean_rx_power(d).0
            - Technology::Lte.rsrp_per_re_offset_db();
        assert!(
            (mean_rsrp - expect).abs() < 1.0,
            "mean {mean_rsrp} expect {expect}"
        );
    }

    #[test]
    fn reported_mmwave_rsrp_in_paper_range() {
        // §5.5: Verizon mmWave RSRP mostly −80..−110 dBm (wide beams),
        // AT&T −70..−90 dBm (narrow beams).
        let d = Distance::from_m(150.0);
        let wide = sample_many(Technology::Nr5gMmWave, BeamProfile::wide(), d, 4000, 21);
        let med = |v: &[ChannelSample]| {
            let mut xs: Vec<f64> = v.iter().map(|s| s.rsrp.0).collect();
            xs.sort_by(f64::total_cmp);
            xs[xs.len() / 2]
        };
        let mv = med(&wide);
        assert!((-112.0..=-80.0).contains(&mv), "verizon-like median {mv}");
        let narrow = sample_many(Technology::Nr5gMmWave, BeamProfile::narrow(), d, 4000, 21);
        let ma = med(&narrow);
        assert!((-101.0..=-68.0).contains(&ma), "att-like median {ma}");
        assert!(ma > mv);
    }

    #[test]
    fn beam_offset_shifts_reported_rsrp_not_snr() {
        let d = Distance::from_m(120.0);
        let wide = sample_many(Technology::Nr5gMmWave, BeamProfile::wide(), d, 4000, 2);
        let narrow = sample_many(Technology::Nr5gMmWave, BeamProfile::narrow(), d, 4000, 2);
        let mean = |v: &[ChannelSample], f: fn(&ChannelSample) -> f64| {
            v.iter().map(f).sum::<f64>() / v.len() as f64
        };
        let d_rsrp = mean(&narrow, |s| s.rsrp.0) - mean(&wide, |s| s.rsrp.0);
        let d_snr = mean(&narrow, |s| s.snr.0) - mean(&wide, |s| s.snr.0);
        assert!((d_rsrp - 13.0).abs() < 1.5, "rsrp delta {d_rsrp}");
        assert!(d_snr.abs() < 1.0, "snr delta {d_snr}");
    }

    #[test]
    fn mmwave_blocks_sometimes_others_never() {
        let mm = sample_many(
            Technology::Nr5gMmWave,
            BeamProfile::neutral(),
            Distance::from_m(150.0),
            5000,
            3,
        );
        let frac = mm.iter().filter(|s| s.blocked).count() as f64 / mm.len() as f64;
        assert!(frac > 0.05 && frac < 0.5, "blocked fraction {frac}");
        for tech in [Technology::Lte, Technology::Nr5gMid, Technology::Nr5gLow] {
            let s = sample_many(
                tech,
                BeamProfile::neutral(),
                Distance::from_km(1.0),
                1000,
                4,
            );
            assert!(s.iter().all(|x| !x.blocked), "{tech:?}");
        }
    }

    #[test]
    fn blockage_costs_snr() {
        let samples = sample_many(
            Technology::Nr5gMmWave,
            BeamProfile::neutral(),
            Distance::from_m(150.0),
            8000,
            5,
        );
        let (blocked, clear): (Vec<_>, Vec<_>) = samples.iter().partition(|s| s.blocked);
        assert!(!blocked.is_empty() && !clear.is_empty());
        let m = |v: &[&ChannelSample]| v.iter().map(|s| s.snr.0).sum::<f64>() / v.len() as f64;
        let gap = m(&clear) - m(&blocked);
        assert!(
            (gap - BLOCKAGE_PENALTY_DB).abs() < 3.0,
            "blockage gap {gap} dB"
        );
    }

    #[test]
    fn snr_declines_with_distance() {
        let near = sample_many(
            Technology::Nr5gMid,
            BeamProfile::neutral(),
            Distance::from_m(300.0),
            2000,
            6,
        );
        let far = sample_many(
            Technology::Nr5gMid,
            BeamProfile::neutral(),
            Distance::from_km(2.5),
            2000,
            6,
        );
        let m = |v: &[ChannelSample]| v.iter().map(|s| s.snr.0).sum::<f64>() / v.len() as f64;
        assert!(m(&near) > m(&far) + 15.0);
    }

    #[test]
    fn shadowing_is_correlated_over_short_moves() {
        let mut rng = SimRng::seed(7);
        let mut ch = LinkChannel::new(Technology::Lte, BeamProfile::neutral(), &mut rng);
        let d = Distance::from_km(3.0);
        // Tiny moves: consecutive samples should be close (correlated).
        let mut diffs = Vec::new();
        let mut last = ch
            .sample(&mut rng, d, Distance::from_m(1.0), 100, Speed::ZERO)
            .rsrp
            .0;
        for _ in 0..500 {
            let s = ch
                .sample(&mut rng, d, Distance::from_m(1.0), 100, Speed::ZERO)
                .rsrp
                .0;
            diffs.push((s - last).abs());
            last = s;
        }
        let mean_diff = diffs.iter().sum::<f64>() / diffs.len() as f64;
        // Fading contributes ~2.5 dB sd; shadowing barely moves at 1 m steps.
        assert!(mean_diff < 5.0, "mean step {mean_diff} dB");
    }

    #[test]
    fn mean_rsrp_is_deterministic() {
        let mut rng = SimRng::seed(8);
        let ch = LinkChannel::new(Technology::LteA, BeamProfile::neutral(), &mut rng);
        let a = ch.mean_rsrp(Distance::from_km(1.0));
        let b = ch.mean_rsrp(Distance::from_km(1.0));
        assert_eq!(a, b);
        assert!(ch.mean_rsrp(Distance::from_km(0.5)).0 > a.0);
    }
}
