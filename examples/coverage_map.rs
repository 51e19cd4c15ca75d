//! Coverage map: regenerate the paper's Fig. 1 comparison between the
//! passive handover-logger view and the active (backlogged) view of 5G
//! coverage along the LA→Boston route.
//!
//! ```text
//! cargo run --release --example coverage_map
//! ```

use wheels::geo::route::Route;
use wheels::geo::trace::DrivePlan;
use wheels::radio::tech::Technology;
use wheels::ran::cells::Deployment;
use wheels::ran::operator::Operator;
use wheels::ran::policy::TrafficDemand;
use wheels::ran::session::{PollCtx, RanSession};
use wheels::sim_core::rng::SimRng;
use wheels::sim_core::time::SimDuration;
use wheels::ue::hologger::HandoverLogger;

fn tech_char(t: Option<Technology>) -> char {
    match t {
        None => '.',
        Some(Technology::Lte) => 'l',
        Some(Technology::LteA) => 'L',
        Some(Technology::Nr5gLow) => '5',
        Some(Technology::Nr5gMid) => 'M',
        Some(Technology::Nr5gMmWave) => 'W',
    }
}

fn main() {
    let route = Route::standard();
    let rng = SimRng::seed(2022);
    let plan = DrivePlan {
        city_stop: SimDuration::from_mins(2),
        ..Default::default()
    };
    let trace = plan.generate(&route, &mut rng.split("trace"));
    println!("legend: l=LTE L=LTE-A 5=5G-low M=5G-mid W=mmWave .=none  (1 char ≈ 60 km)\n");

    const SEG_KM: f64 = 60.0;
    let nsegs = (route.total().as_km() / SEG_KM) as usize + 1;

    for op in Operator::ALL {
        let dep = Deployment::generate(&route, op, &mut rng.split(op.label()));

        // Passive: the 200 ms ICMP handover-logger, subsampled chunks.
        let mut passive = vec![Vec::new(); nsegs];
        let n = trace.samples().len();
        let mut idx = 0;
        while idx + 30 < n {
            let rows =
                HandoverLogger::run(&dep, &trace, idx, idx + 30, rng.split(&format!("p{idx}")));
            for (i, r) in rows.iter().enumerate() {
                let s = &trace.samples()[idx + i / 5];
                passive[(s.odo.as_km() / SEG_KM) as usize].push(r.tech);
            }
            idx += 600;
        }

        // Active: a backlogged session sampled along the same route.
        let mut active = vec![Vec::new(); nsegs];
        let mut session = RanSession::new(&dep, TrafficDemand::BackloggedDownlink, rng.split("a"));
        for s in trace.samples().iter().step_by(20) {
            let snap = session.poll(s.t, PollCtx::from(s));
            active[(s.odo.as_km() / SEG_KM) as usize].push(snap.map(|x| x.tech));
        }

        let dominant = |v: &Vec<Option<Technology>>| -> Option<Technology> {
            let mut counts = std::collections::HashMap::new();
            for t in v {
                *counts.entry(*t).or_insert(0) += 1;
            }
            counts.into_iter().max_by_key(|(_, c)| *c).map(|(t, _)| t)?
        };
        let strip = |segs: &Vec<Vec<Option<Technology>>>| -> String {
            segs.iter()
                .map(|v| {
                    if v.is_empty() {
                        ' '
                    } else {
                        tech_char(dominant(v))
                    }
                })
                .collect()
        };

        println!("{:<9} passive |{}|", op.label(), strip(&passive));
        println!("{:<9} active  |{}|\n", "", strip(&active));
    }
    println!("LA {} Boston", " ".repeat(nsegs.saturating_sub(6)));
}
