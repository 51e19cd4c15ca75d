//! The link abstraction apps run over.
//!
//! Apps do not talk to the RAN directly; they sample a [`LinkSampler`]
//! which yields the current achievable rates, RTT, and handover state.
//! The campaign runner adapts a RAN session + server path into this
//! trait; unit tests use synthetic shapes.

use wheels_sim_core::time::SimTime;
use wheels_sim_core::units::DataRate;

/// Instantaneous link state as an application experiences it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkState {
    /// Achievable downlink goodput.
    pub dl: DataRate,
    /// Achievable uplink goodput.
    pub ul: DataRate,
    /// Base round-trip time to the serving edge/cloud server (ms),
    /// excluding self-induced queueing.
    pub rtt_ms: f64,
    /// A handover interruption is in progress (no data moves).
    pub in_handover: bool,
    /// Connected technology is high-speed 5G (mid-band or mmWave) — used
    /// for the "% time on high-speed 5G" QoE breakdowns.
    pub on_high_speed_5g: bool,
}

/// A time-indexed view of the link. `None` means no service.
pub trait LinkSampler {
    /// Sample the link at time `t`.
    fn sample(&mut self, t: SimTime) -> Option<LinkState>;
}

impl<F> LinkSampler for F
where
    F: FnMut(SimTime) -> Option<LinkState>,
{
    fn sample(&mut self, t: SimTime) -> Option<LinkState> {
        self(t)
    }
}

/// A constant-state sampler (tests, best-static baselines).
#[derive(Debug, Clone, Copy)]
pub struct ConstantLink(pub LinkState);

impl LinkSampler for ConstantLink {
    fn sample(&mut self, _t: SimTime) -> Option<LinkState> {
        Some(self.0)
    }
}

impl LinkState {
    /// A comfortable static mmWave-class link (the paper's "best static"
    /// baselines).
    pub fn best_static() -> Self {
        LinkState {
            dl: DataRate::from_mbps(1500.0),
            ul: DataRate::from_mbps(160.0),
            rtt_ms: 15.0,
            in_handover: false,
            on_high_speed_5g: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_sampler_works() {
        let mut s = |t: SimTime| {
            if t.as_millis() < 1000 {
                Some(LinkState::best_static())
            } else {
                None
            }
        };
        assert!(s.sample(SimTime(0)).is_some());
        assert!(s.sample(SimTime(2000)).is_none());
    }

    #[test]
    fn constant_sampler_is_constant() {
        let mut c = ConstantLink(LinkState::best_static());
        assert_eq!(c.sample(SimTime(0)), c.sample(SimTime(1_000_000)));
    }
}
