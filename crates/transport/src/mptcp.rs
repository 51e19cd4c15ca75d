//! Multipath TCP bonding across operators.
//!
//! The paper's recommendation #2 (§5.4, §8): aggregate links from multiple
//! operators over MPTCP. This module models that client: one CUBIC subflow
//! per operator, each running its own congestion control over its own
//! radio link and bottleneck buffer, with the aggregate goodput being the
//! sum of subflow deliveries.
//!
//! The interesting gap this model exposes (and the experiments measure) is
//! **bonding efficiency**: a real multipath transport pays slow-start and
//! recovery on every subflow independently, so it delivers less than the
//! ideal `sum(link rates)` — but it still rescues the outage tail, because
//! the subflows' dead zones rarely overlap.

use serde::{Deserialize, Serialize};
use wheels_sim_core::units::DataRate;

use crate::tcp::CubicFlow;

/// A bonded connection over N subflows.
///
/// ```
/// use wheels_transport::mptcp::MptcpFlow;
/// use wheels_sim_core::units::DataRate;
///
/// let mut bond = MptcpFlow::new(2);
/// let links = [DataRate::from_mbps(20.0), DataRate::from_mbps(30.0)];
/// let bytes = bond.advance(10.0, &links, &[60.0, 60.0]);
/// assert!(bytes > 0.0); // both legs deliver from the first tick
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MptcpFlow {
    subflows: Vec<CubicFlow>,
}

impl MptcpFlow {
    /// Create a bond with `n` subflows.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "a bond needs at least one subflow");
        MptcpFlow {
            subflows: (0..n).map(|_| CubicFlow::new()).collect(),
        }
    }

    /// Number of subflows.
    pub fn width(&self) -> usize {
        self.subflows.len()
    }

    /// Advance all subflows by `dt_ms` and return the bytes delivered
    /// across them, summed in subflow order. `links` and `base_rtts_ms`
    /// give each subflow's current bottleneck rate and path RTT; their
    /// lengths must equal the bond width.
    pub fn advance(&mut self, dt_ms: f64, links: &[DataRate], base_rtts_ms: &[f64]) -> f64 {
        assert_eq!(links.len(), self.subflows.len(), "one link per subflow");
        assert_eq!(base_rtts_ms.len(), self.subflows.len());
        self.subflows
            .iter_mut()
            .zip(links.iter().zip(base_rtts_ms))
            .map(|(f, (l, r))| f.advance(dt_ms, *l, *r).delivered_bytes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_bond(rates: &[[f64; 3]], rtts: [f64; 3], tick_ms: f64, ticks_per_step: usize) -> f64 {
        let mut bond = MptcpFlow::new(3);
        let mut bytes = 0.0;
        for step in rates {
            let links = step.map(DataRate::from_mbps);
            for _ in 0..ticks_per_step {
                bytes += bond.advance(tick_ms, &links, &rtts);
            }
        }
        bytes
    }

    #[test]
    fn bond_outperforms_best_single_on_steady_links() {
        let steps: Vec<[f64; 3]> = vec![[30.0, 20.0, 10.0]; 80];
        let bonded = run_bond(&steps, [60.0, 60.0, 60.0], 10.0, 50);
        // Best single subflow alone:
        let mut single = CubicFlow::new();
        let mut single_bytes = 0.0;
        for _ in 0..80 * 50 {
            single_bytes += single
                .advance(10.0, DataRate::from_mbps(30.0), 60.0)
                .delivered_bytes;
        }
        assert!(
            bonded > single_bytes * 1.5,
            "bonded {bonded} vs single {single_bytes}"
        );
    }

    #[test]
    fn bond_survives_disjoint_outages() {
        // Each subflow dies in a different third of the run; the bond
        // always has at least two live legs.
        let mut steps = Vec::new();
        for i in 0..90 {
            let mut s = [25.0, 25.0, 25.0];
            s[i / 30] = 0.0;
            steps.push(s);
        }
        let bonded = run_bond(&steps, [60.0, 60.0, 60.0], 10.0, 50);
        let run_s = 90.0 * 50.0 * 0.01;
        let mbps = bonded * 8.0 / 1e6 / run_s;
        // Two live 25 Mbps legs most of the time → well above any single.
        assert!(mbps > 25.0, "bonded goodput {mbps}");
    }

    #[test]
    fn bonding_efficiency_below_ideal_sum() {
        let steps: Vec<[f64; 3]> = vec![[20.0, 20.0, 20.0]; 60];
        let bonded = run_bond(&steps, [60.0, 60.0, 60.0], 10.0, 50);
        let run_s = 60.0 * 50.0 * 0.01;
        let mbps = bonded * 8.0 / 1e6 / run_s;
        assert!(mbps < 60.0 + 1e-6, "cannot beat the ideal sum: {mbps}");
        assert!(mbps > 35.0, "bonding efficiency too low: {mbps}");
    }

    #[test]
    fn width_and_validation() {
        let mut bond = MptcpFlow::new(2);
        assert_eq!(bond.width(), 2);
        // A bond with one dead leg delivers exactly what a lone flow
        // delivers on the live leg, tick by tick.
        let mut lone = CubicFlow::new();
        let live = DataRate::from_mbps(10.0);
        for _ in 0..500 {
            let bonded = bond.advance(10.0, &[live, DataRate::ZERO], &[50.0, 50.0]);
            let single = lone.advance(10.0, live, 50.0).delivered_bytes;
            assert_eq!(bonded.to_bits(), single.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "one link per subflow")]
    fn mismatched_links_panics() {
        let mut bond = MptcpFlow::new(2);
        bond.advance(10.0, &[DataRate::ZERO], &[50.0, 50.0]);
    }

    #[test]
    #[should_panic(expected = "at least one subflow")]
    fn empty_bond_rejected() {
        let _ = MptcpFlow::new(0);
    }
}
