//! A measurement phone.
//!
//! [`Phone`] binds one operator's RAN session to the shared drive trace:
//! given a time, it looks up where the car is and polls the session there.
//! The campaign runner owns three XCAL phones (one per operator) and three
//! handover-logger phones, all built from this type.

use wheels_geo::trace::DriveTrace;
use wheels_ran::cells::Deployment;
use wheels_ran::operator::Operator;
use wheels_ran::policy::TrafficDemand;
use wheels_ran::session::{HandoverEvent, PollCtx, RanSession, RanSnapshot};
use wheels_sim_core::rng::SimRng;
use wheels_sim_core::time::SimTime;

/// One phone: an operator SIM plus modem state.
pub struct Phone<'a> {
    operator: Operator,
    trace: &'a DriveTrace,
    session: RanSession<'a>,
}

impl<'a> Phone<'a> {
    /// Provision a phone on `deployment`, reading mobility from `trace`.
    pub fn new(
        deployment: &'a Deployment,
        trace: &'a DriveTrace,
        demand: TrafficDemand,
        rng: SimRng,
    ) -> Self {
        Phone {
            operator: deployment.operator,
            trace,
            session: RanSession::new(deployment, demand, rng),
        }
    }

    /// The SIM's operator.
    pub fn operator(&self) -> Operator {
        self.operator
    }

    /// Switch traffic demand (between round-robin tests).
    pub fn set_demand(&mut self, demand: TrafficDemand) {
        self.session.set_demand(demand);
    }

    /// Poll the modem at time `t`. Returns `None` when the car is inactive
    /// (overnight) or the operator has no coverage.
    pub fn poll(&mut self, t: SimTime) -> Option<RanSnapshot> {
        let s = self.trace.sample_at(t)?;
        self.session.poll(t, PollCtx::from(s))
    }

    /// Completed handovers.
    pub fn handovers(&self) -> &[HandoverEvent] {
        self.session.events()
    }

    /// Unique cells connected so far (Table 1 statistic).
    pub fn unique_cells(&self) -> usize {
        self.session.unique_cell_count()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::OnceLock;
    use wheels_geo::route::Route;
    use wheels_geo::trace::DrivePlan;
    use wheels_sim_core::time::SimDuration;

    pub(crate) struct Fixture {
        #[allow(dead_code)]
        pub route: Route,
        pub trace: DriveTrace,
        pub deployments: Vec<Deployment>,
    }

    pub(crate) fn fixture() -> &'static Fixture {
        static FIX: OnceLock<Fixture> = OnceLock::new();
        FIX.get_or_init(|| {
            let route = Route::standard();
            let rng = SimRng::seed(7);
            let plan = DrivePlan {
                city_stop: SimDuration::from_mins(2),
                ..DrivePlan::default()
            };
            let trace = plan.generate(&route, &mut rng.split("trace"));
            let deployments = Operator::ALL
                .into_iter()
                .map(|op| Deployment::generate(&route, op, &mut rng.split(op.label())))
                .collect();
            Fixture {
                route,
                trace,
                deployments,
            }
        })
    }

    #[test]
    fn phone_polls_during_drive() {
        let f = fixture();
        let mut p = Phone::new(
            &f.deployments[0],
            &f.trace,
            TrafficDemand::BackloggedDownlink,
            SimRng::seed(1),
        );
        let start = f.trace.samples()[5000].t;
        let mut hits = 0;
        for i in 0..600u64 {
            if p.poll(start + SimDuration::from_millis(i * 500)).is_some() {
                hits += 1;
            }
        }
        assert!(hits > 500, "hits {hits}");
    }

    #[test]
    fn phone_returns_none_overnight() {
        let f = fixture();
        let mut p = Phone::new(
            &f.deployments[0],
            &f.trace,
            TrafficDemand::IcmpOnly,
            SimRng::seed(2),
        );
        // Find an overnight gap.
        let gap = f
            .trace
            .samples()
            .windows(2)
            .find(|w| w[1].t.since(w[0].t) > SimDuration::from_secs(100))
            .unwrap();
        let mid = SimTime((gap[0].t.as_millis() + gap[1].t.as_millis()) / 2);
        assert!(p.poll(mid).is_none());
    }

    #[test]
    fn phone_accumulates_handovers_and_cells() {
        let f = fixture();
        let mut p = Phone::new(
            &f.deployments[1],
            &f.trace,
            TrafficDemand::BackloggedDownlink,
            SimRng::seed(3),
        );
        let start = f.trace.samples()[20_000].t;
        for i in 0..7200u64 {
            let _ = p.poll(start + SimDuration::from_millis(i * 500));
        }
        assert!(p.unique_cells() > 3, "cells {}", p.unique_cells());
        assert!(!p.handovers().is_empty());
    }
}
