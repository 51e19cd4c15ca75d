//! Extension: multi-connectivity (the paper's recommendation #2).
//!
//! §5.4/§8: *"performance under driving can benefit significantly from
//! multi-connectivity solutions, e.g., over Multipath TCP, that can
//! aggregate links from multiple operators"*. Because the three phones
//! measured concurrently, the dataset supports a what-if: for every 500 ms
//! bin with samples from all three operators, compare
//!
//! - the **single-home** throughput (each operator alone),
//! - **best-of** (an ideal switcher always on the best operator),
//! - **bonded** (an ideal MPTCP aggregating all three).

use std::collections::BTreeMap;

use wheels_radio::tech::Direction;
use wheels_ran::operator::Operator;
use wheels_sim_core::stats::Cdf;

use crate::fmt;
use crate::world::World;

/// One concurrent bin with all three operators present.
#[derive(Debug, Clone, Copy)]
pub struct TriSample {
    /// Per-operator Mbps in `Operator::ALL` order.
    pub mbps: [f64; 3],
}

impl TriSample {
    /// Best single operator.
    pub fn best_of(&self) -> f64 {
        self.mbps.iter().cloned().fold(0.0, f64::max)
    }

    /// Ideal aggregation of all three.
    pub fn bonded(&self) -> f64 {
        self.mbps.iter().sum()
    }
}

/// Collect all bins where all three operators have a driving sample.
pub fn tri_samples(world: &World, dir: Direction) -> Vec<TriSample> {
    let mut by_bin: BTreeMap<u64, [Option<f64>; 3]> = BTreeMap::new();
    for s in world.view().tput_iter(None, Some(dir), Some(true)) {
        let idx = s.operator.index();
        by_bin.entry(s.t.as_millis() / 500).or_default()[idx] = Some(s.mbps);
    }
    let mut out: Vec<TriSample> = by_bin
        .into_values()
        .filter_map(|v| {
            Some(TriSample {
                mbps: [v[0]?, v[1]?, v[2]?],
            })
        })
        .collect();
    out.sort_by(|a, b| a.bonded().total_cmp(&b.bonded()));
    out
}

/// Median multi-connectivity gain over the best single operator.
pub fn median_bonding_gain(samples: &[TriSample]) -> Option<f64> {
    Cdf::from_samples(
        samples
            .iter()
            .filter(|s| s.best_of() > 0.5)
            .map(|s| s.bonded() / s.best_of()),
    )
    .median()
}

/// Replay the concurrent bins through a real
/// [`MptcpFlow`](wheels_transport::mptcp::MptcpFlow) (one CUBIC subflow
/// per operator, each paying its own slow start and recovery) and return
/// 500 ms goodput samples. The per-operator throughput samples are
/// treated as the subflows' link rates, each bin lasting 500 ms.
pub fn realistic_mptcp_samples(tri: &[TriSample]) -> Vec<f64> {
    use wheels_sim_core::units::DataRate;
    use wheels_transport::mptcp::MptcpFlow;
    let mut bond = MptcpFlow::new(3);
    let rtts = [60.0, 60.0, 60.0];
    let mut out = Vec::with_capacity(tri.len());
    for s in tri {
        let links = s.mbps.map(DataRate::from_mbps);
        let mut bytes = 0.0;
        for _ in 0..50 {
            bytes += bond.advance(10.0, &links, &rtts);
        }
        out.push(bytes * 8.0 / 1e6 / 0.5);
    }
    out
}

/// Render the extension.
pub fn run(world: &World) -> String {
    let mut out =
        String::from("Extension — multi-connectivity what-if (the paper's recommendation #2)\n\n");
    for dir in Direction::ALL {
        let tri = tri_samples(world, dir);
        if tri.len() < 20 {
            out.push_str(&format!("{}: insufficient concurrent bins\n", dir.label()));
            continue;
        }
        out.push_str(&format!(
            "{} ({} concurrent bins):\n",
            dir.label(),
            tri.len()
        ));
        for (i, op) in Operator::ALL.iter().enumerate() {
            out.push_str(&format!(
                "  single {:<9}: {}\n",
                op.label(),
                fmt::cdf_line(tri.iter().map(|s| s.mbps[i]))
            ));
        }
        out.push_str(&format!(
            "  best-of-three   : {}\n",
            fmt::cdf_line(tri.iter().map(|s| s.best_of()))
        ));
        out.push_str(&format!(
            "  bonded (ideal)  : {}\n",
            fmt::cdf_line(tri.iter().map(|s| s.bonded()))
        ));
        let realistic = realistic_mptcp_samples(&tri);
        out.push_str(&format!(
            "  bonded (MPTCP)  : {}\n",
            fmt::cdf_line(realistic.iter().copied())
        ));
        // The paper's strongest argument: multi-connectivity rescues the
        // *tail* — the fraction of time below 5 Mbps.
        let below5 = |vals: Vec<f64>| Cdf::from_samples(vals).fraction_at_or_below(5.0) * 100.0;
        let singles: f64 = (0..3)
            .map(|i| below5(tri.iter().map(|s| s.mbps[i]).collect()))
            .sum::<f64>()
            / 3.0;
        out.push_str(&format!(
            "  time below 5 Mbps: single avg {:.1}%  best-of {:.1}%  bonded {:.1}%\n",
            singles,
            below5(tri.iter().map(|s| s.best_of()).collect()),
            below5(tri.iter().map(|s| s.bonded()).collect()),
        ));
        if let Some(g) = median_bonding_gain(&tri) {
            out.push_str(&format!(
                "  median bonding gain over best single: {g:.2}x\n"
            ));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bonded_dominates_best_of_dominates_singles() {
        let w = World::quick();
        for dir in Direction::ALL {
            let tri = tri_samples(w, dir);
            assert!(tri.len() > 50, "{dir:?}: {} bins", tri.len());
            for s in &tri {
                assert!(s.bonded() >= s.best_of() - 1e-9);
                for m in s.mbps {
                    assert!(s.best_of() >= m - 1e-9);
                }
            }
        }
    }

    #[test]
    fn multiconnectivity_rescues_the_tail() {
        // Best-of-three has a much smaller below-5-Mbps fraction than any
        // single operator — the paper's §5.4 argument.
        let w = World::quick();
        let tri = tri_samples(w, Direction::Downlink);
        let below5 = |vals: Vec<f64>| Cdf::from_samples(vals).fraction_at_or_below(5.0);
        let single_avg: f64 = (0..3)
            .map(|i| below5(tri.iter().map(|s| s.mbps[i]).collect()))
            .sum::<f64>()
            / 3.0;
        let best = below5(tri.iter().map(|s| s.best_of()).collect());
        assert!(
            best < single_avg * 0.6,
            "single avg {single_avg} vs best-of {best}"
        );
    }

    #[test]
    fn bonding_gain_is_substantial() {
        let w = World::quick();
        let tri = tri_samples(w, Direction::Downlink);
        let g = median_bonding_gain(&tri).unwrap();
        assert!(g > 1.2 && g < 3.5, "gain {g}");
    }

    #[test]
    fn realistic_mptcp_between_best_of_and_ideal() {
        let w = World::quick();
        let tri = tri_samples(w, Direction::Downlink);
        let realistic = realistic_mptcp_samples(&tri);
        let med = |v: Vec<f64>| Cdf::from_samples(v).median().unwrap();
        let m_real = med(realistic);
        let m_ideal = med(tri.iter().map(|s| s.bonded()).collect());
        let m_single_best = med(tri.iter().map(|s| s.best_of()).collect());
        assert!(m_real <= m_ideal + 1e-6, "real {m_real} ideal {m_ideal}");
        assert!(
            m_real > m_single_best * 0.8,
            "real {m_real} vs best single {m_single_best}"
        );
    }

    #[test]
    fn renders() {
        let out = run(World::quick());
        assert!(out.contains("bonded (MPTCP)"));
        assert!(out.contains("bonded (ideal)"));
        assert!(out.contains("below 5 Mbps"));
    }
}
