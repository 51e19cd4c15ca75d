//! The serving session: what one phone's modem experiences.
//!
//! [`RanSession`] is the state machine between a UE and one operator's
//! deployment. Each `poll` it:
//!
//! 1. re-evaluates the serving *technology* when the set of available
//!    technologies changes (the upgrade policy decides, and its grant is
//!    sticky until coverage changes — operators do not re-roll policy every
//!    second);
//! 2. runs an A3-style horizontal handover check against same-technology
//!    neighbors (hysteresis + time-to-trigger on L3-filtered RSRP);
//! 3. samples the serving link's channel, picks the carrier allocation's
//!    aggregate rates, and asks the load model for the scheduler share;
//! 4. while a handover executes, reports the interruption (zero rate), and
//!    records a typed [`HandoverEvent`] when it completes.
//!
//! The output [`RanSnapshot`] carries exactly the cross-layer KPI set the
//! paper's XCAL logger captured: serving cell + technology, RSRP, SINR,
//! MCS, BLER, CA count, handover state, and achievable rate per direction.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};
use wheels_geo::route::ZoneClass;
use wheels_geo::trace::TraceSample;
use wheels_radio::ca::{aggregate, CarrierAllocation, CarrierComponent};
use wheels_radio::channel::LinkChannel;
use wheels_radio::tech::{Direction, TechSet, Technology};
use wheels_sim_core::rng::SimRng;
use wheels_sim_core::time::{SimDuration, SimTime, Timezone, WallClock};
use wheels_sim_core::units::{DataRate, Db, Dbm, Distance, Speed};

use crate::cells::{Cell, CellId, Deployment};
use crate::load::LoadModel;
use crate::operator::Operator;
use crate::policy::{TrafficDemand, UpgradePolicy};

/// A3 hysteresis (dB) and time-to-trigger (ms) by traffic state: networks
/// configure aggressive measurement for UEs moving real traffic (fast
/// handovers protect the session) and relaxed measurement for near-idle
/// UEs (ping-only phones mostly camp until the link degrades). This is the
/// mechanism behind the paper's active/passive handover-rate gap (Table 1
/// passive counts vs Fig. 11a per-test rates).
fn a3_params(demand: TrafficDemand) -> (f64, u64) {
    match demand {
        TrafficDemand::IcmpOnly => (4.0, 1280),
        _ => (2.5, 256),
    }
}

/// Serving RSRP below which a near-idle UE starts considering neighbors
/// (the coverage gate of its relaxed measurement configuration).
const RESELECT_RSRP_DBM: f64 = -122.0;

/// Handover prohibit timer: after a completed handover, no new
/// measurement-triggered handover is started for this long (an RRC
/// ping-pong guard; much longer for near-idle UEs).
fn ho_prohibit_ms(demand: TrafficDemand) -> u64 {
    match demand {
        TrafficDemand::IcmpOnly => 45_000,
        _ => 4_000,
    }
}
/// L3 filter coefficient for smoothed RSRP.
const L3_ALPHA: f64 = 0.22;
/// Interference margin taken off SNR to get SINR.
const INTERFERENCE_MARGIN_DB: f64 = 3.0;
/// Gap (ms) after which a session re-attaches from scratch (overnight).
const REATTACH_GAP_MS: u64 = 10_000;

/// Handover classification used by Fig. 12.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HandoverKind {
    /// 4G → 4G (incl. LTE ↔ LTE-A).
    Horizontal4g,
    /// 5G → 5G.
    Horizontal5g,
    /// 4G → 5G.
    Up4gTo5g,
    /// 5G → 4G.
    Down5gTo4g,
}

impl HandoverKind {
    /// Classify by the technologies involved.
    pub fn classify(from: Technology, to: Technology) -> Self {
        match (from.is_5g(), to.is_5g()) {
            (false, false) => HandoverKind::Horizontal4g,
            (true, true) => HandoverKind::Horizontal5g,
            (false, true) => HandoverKind::Up4gTo5g,
            (true, false) => HandoverKind::Down5gTo4g,
        }
    }

    /// Paper-style label.
    pub fn label(self) -> &'static str {
        match self {
            HandoverKind::Horizontal4g => "4G->4G",
            HandoverKind::Horizontal5g => "5G->5G",
            HandoverKind::Up4gTo5g => "4G->5G",
            HandoverKind::Down5gTo4g => "5G->4G",
        }
    }
}

/// One completed handover.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HandoverEvent {
    /// When execution began.
    pub start: SimTime,
    /// Interruption length.
    pub duration: SimDuration,
    /// Source cell.
    pub from_cell: CellId,
    /// Target cell.
    pub to_cell: CellId,
    /// Source technology.
    pub from_tech: Technology,
    /// Target technology.
    pub to_tech: Technology,
    /// Classification.
    pub kind: HandoverKind,
}

/// One poll's cross-layer KPI readout.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RanSnapshot {
    /// Poll time.
    pub t: SimTime,
    /// Serving operator.
    pub operator: Operator,
    /// Serving cell.
    pub cell: CellId,
    /// Serving technology (what XCAL logs as the connection type).
    pub tech: Technology,
    /// Reported RSRP of the primary cell.
    pub rsrp: Dbm,
    /// SINR on the primary cell's traffic beam.
    pub sinr: Db,
    /// True while a mmWave link is blocked.
    pub blocked: bool,
    /// True while a handover interruption is in progress.
    pub in_handover: bool,
    /// Component carriers in the allocation (CA KPI).
    pub carriers: u8,
    /// Primary cell's MCS index.
    pub primary_mcs: u8,
    /// Primary cell's initial-transmission BLER.
    pub primary_bler: f64,
    /// Achievable downlink goodput (0 during handover).
    pub dl_rate: DataRate,
    /// Achievable uplink goodput (0 during handover).
    pub ul_rate: DataRate,
    /// Scheduler share granted by the serving cell's load.
    pub share: f64,
}

/// Mobility/context inputs for one poll, taken from the drive trace.
#[derive(Debug, Clone, Copy)]
pub struct PollCtx {
    /// Route odometer position.
    pub odo: Distance,
    /// Vehicle speed.
    pub speed: Speed,
    /// Road-zone class.
    pub zone: ZoneClass,
    /// Local timezone.
    pub tz: Timezone,
}

impl From<&TraceSample> for PollCtx {
    fn from(s: &TraceSample) -> Self {
        PollCtx {
            odo: s.odo,
            speed: s.speed,
            zone: s.zone,
            tz: s.tz,
        }
    }
}

/// Ordering of technologies by expected throughput, used to decide whether
/// a newly available technology justifies revisiting a sticky grant.
fn speed_rank(t: Technology) -> u8 {
    match t {
        Technology::Lte => 0,
        Technology::LteA => 1,
        Technology::Nr5gLow => 2,
        Technology::Nr5gMid => 3,
        Technology::Nr5gMmWave => 4,
    }
}

/// Local wall-clock hour (0–24) at time `t` in zone `tz`.
pub fn local_hour(t: SimTime, tz: Timezone) -> f64 {
    let local_ms = WallClock::local_ms(t, tz);
    (local_ms.rem_euclid(86_400_000)) as f64 / 3_600_000.0
}

/// The carrier allocation an operator typically configures for a serving
/// technology — operator-specific CA depth (Verizon's mmWave spectrum runs
/// near the S21's 8-CC limit, T-Mobile aggregates two n41 carriers) and an
/// LTE anchor riding along on NSA technologies.
pub fn typical_allocation(op: Operator, tech: Technology, rng: &mut SimRng) -> CarrierAllocation {
    match tech {
        Technology::Lte => CarrierAllocation::single(Technology::Lte),
        Technology::LteA => CarrierAllocation {
            primary: CarrierComponent {
                tech: Technology::LteA,
                count: 1 + rng.uniform_u64(1, 5) as u8,
            },
            secondaries: vec![],
        },
        Technology::Nr5gLow => CarrierAllocation {
            primary: CarrierComponent {
                tech: Technology::Nr5gLow,
                count: 1,
            },
            // NSA: LTE anchor rides along.
            secondaries: vec![CarrierComponent {
                tech: Technology::Lte,
                count: 1,
            }],
        },
        Technology::Nr5gMid => CarrierAllocation {
            primary: CarrierComponent {
                tech: Technology::Nr5gMid,
                // T-Mobile's n41 holdings support 2 mid-band CCs; the
                // others mostly run one C-band carrier.
                count: if op == Operator::TMobile {
                    1 + rng.uniform_u64(0, 2) as u8
                } else {
                    1
                },
            },
            secondaries: vec![CarrierComponent {
                tech: Technology::Lte,
                count: 1,
            }],
        },
        Technology::Nr5gMmWave => CarrierAllocation {
            primary: CarrierComponent {
                tech: Technology::Nr5gMmWave,
                // Verizon's mmWave spectrum depth supports near-full
                // S21 aggregation; AT&T/T-Mobile run fewer carriers
                // (Fig. 3a: 1511 vs 710 Mbps static medians).
                count: match op {
                    Operator::Verizon => 6 + rng.uniform_u64(0, 3) as u8,
                    _ => 3 + rng.uniform_u64(0, 2) as u8,
                },
            },
            secondaries: vec![CarrierComponent {
                tech: Technology::Lte,
                count: 1,
            }],
        },
    }
}

struct Serving {
    cell: Cell,
    channel: LinkChannel,
    alloc: CarrierAllocation,
    smoothed_rsrp: f64,
}

struct PendingHandover {
    until: SimTime,
    start: SimTime,
    target: Cell,
}

/// The UE↔operator serving-session state machine.
pub struct RanSession<'a> {
    deployment: &'a Deployment,
    policy: UpgradePolicy,
    demand: TrafficDemand,
    load: LoadModel,
    rng: SimRng,
    serving: Option<Serving>,
    pending: Option<PendingHandover>,
    /// Sticky availability context: the policy re-rolls only when this
    /// changes.
    last_available: TechSet,
    granted: Option<Technology>,
    /// Position memo: the available technologies at the last polled
    /// odometer, keyed by its bits. A drive trace holds the odometer for
    /// a whole second while the session is polled many times within it,
    /// and the deployment never changes, so no key ever goes stale.
    available: Option<(u64, TechSet)>,
    /// Scratch buffer for candidate lookups — reused across polls so the
    /// steady-state hot path performs no heap allocation.
    cand: Vec<&'a Cell>,
    /// The `(odometer bits, technology)` that `cand` currently holds.
    cand_key: Option<(u64, Technology)>,
    /// A3 state: candidate neighbor and for how long it has won.
    a3_candidate: Option<(CellId, u64)>,
    neighbor_smoothed: HashMap<CellId, f64>,
    last_poll: Option<(SimTime, Distance)>,
    /// When the most recent handover completed (prohibit-timer anchor).
    last_ho_done: Option<SimTime>,
    events: Vec<HandoverEvent>,
    unique_cells: std::collections::HashSet<CellId>,
}

impl<'a> RanSession<'a> {
    /// Open a session on `deployment` with the given traffic demand.
    pub fn new(deployment: &'a Deployment, demand: TrafficDemand, rng: SimRng) -> Self {
        let load = LoadModel::new(rng.split("ran/load"));
        RanSession {
            deployment,
            policy: UpgradePolicy::of(deployment.operator),
            demand,
            load,
            rng: rng.split("ran/session"),
            serving: None,
            pending: None,
            last_available: TechSet::EMPTY,
            granted: None,
            available: None,
            cand: Vec::new(),
            cand_key: None,
            a3_candidate: None,
            neighbor_smoothed: HashMap::new(),
            last_poll: None,
            last_ho_done: None,
            events: Vec::new(),
            unique_cells: Default::default(),
        }
    }

    /// Change the traffic demand (the campaign runner flips this between
    /// tests); forces a policy re-evaluation at the next poll.
    pub fn set_demand(&mut self, demand: TrafficDemand) {
        if demand != self.demand {
            self.demand = demand;
            // A traffic change invalidates the current grant entirely —
            // the network re-decides the serving layer for the new demand
            // (this is what downgrades uplink-heavy UEs off high-speed 5G,
            // Fig. 2b).
            self.last_available = TechSet::EMPTY;
            self.granted = None;
        }
    }

    /// Current traffic demand.
    pub fn demand(&self) -> TrafficDemand {
        self.demand
    }

    /// Replace the upgrade policy (ablations), forcing a re-evaluation.
    pub fn set_policy(&mut self, policy: UpgradePolicy) {
        self.policy = policy;
        self.last_available = TechSet::EMPTY;
    }

    /// Completed handovers so far.
    pub fn events(&self) -> &[HandoverEvent] {
        &self.events
    }

    /// Number of distinct cells this session has been served by.
    pub fn unique_cell_count(&self) -> usize {
        self.unique_cells.len()
    }

    /// The distinct cells this session has been served by (unordered).
    /// The campaign runner unions these across trace-segment shards so
    /// Table 1's per-operator unique-cell counts stay merge-correct.
    pub fn unique_cells(&self) -> impl Iterator<Item = CellId> + '_ {
        self.unique_cells.iter().copied()
    }

    fn draw_alloc(&mut self, tech: Technology) -> CarrierAllocation {
        typical_allocation(self.deployment.operator, tech, &mut self.rng)
    }

    /// The beam profile that applies to a given technology: operator beam
    /// strategies only shape mmWave RSRP reporting.
    fn beam_for(&self, tech: Technology) -> wheels_radio::linkbudget::BeamProfile {
        if tech == Technology::Nr5gMmWave {
            self.deployment.operator.beam_profile()
        } else {
            wheels_radio::linkbudget::BeamProfile::neutral()
        }
    }

    /// The technologies with coverage at `odo`, from the position memo.
    fn available_at(&mut self, odo: Distance) -> TechSet {
        let key = odo.as_m().to_bits();
        match self.available {
            Some((k, set)) if k == key => set,
            _ => {
                let set = self.deployment.available_techs(odo);
                self.available = Some((key, set));
                set
            }
        }
    }

    /// Fill `cand` with the in-range `tech` cells at `odo`, nearest first,
    /// unless it already holds exactly that lookup.
    fn fill_candidates(&mut self, tech: Technology, odo: Distance) {
        let key = (odo.as_m().to_bits(), tech);
        if self.cand_key != Some(key) {
            self.deployment.candidates_into(tech, odo, &mut self.cand);
            self.cand_key = Some(key);
        }
    }

    fn attach(&mut self, cell: Cell) -> Serving {
        self.unique_cells.insert(cell.id);
        let mut chrng = self.rng.split(&format!("chan/{}", cell.id.0));
        let channel = LinkChannel::new(cell.tech, self.beam_for(cell.tech), &mut chrng);
        let alloc = self.draw_alloc(cell.tech);
        Serving {
            smoothed_rsrp: f64::NAN,
            cell,
            channel,
            alloc,
        }
    }

    fn start_handover(&mut self, now: SimTime, target: Cell) {
        let op = self.deployment.operator;
        let dur_ms = self
            .rng
            .lognormal_median(op.ho_interruption_median_ms(), op.ho_interruption_sigma())
            .clamp(15.0, 4000.0);
        self.pending = Some(PendingHandover {
            until: now + SimDuration::from_millis(dur_ms as u64),
            start: now,
            target,
        });
        self.a3_candidate = None;
    }

    /// Advance the session to `now` and read the link state.
    ///
    /// Returns `None` when the operator has no coverage at all at this
    /// position (no cell of any technology in range).
    pub fn poll(&mut self, now: SimTime, ctx: PollCtx) -> Option<RanSnapshot> {
        let (dt_ms, moved) = match self.last_poll {
            Some((t0, odo0)) => (
                now.since(t0).as_millis(),
                Distance::from_m((ctx.odo.as_m() - odo0.as_m()).abs()),
            ),
            None => (0, Distance::ZERO),
        };
        self.last_poll = Some((now, ctx.odo));

        // Overnight (or any long) gap: tear down and re-attach.
        if dt_ms > REATTACH_GAP_MS {
            self.serving = None;
            self.pending = None;
            self.granted = None;
            self.last_available = TechSet::EMPTY;
            self.a3_candidate = None;
            self.neighbor_smoothed.clear();
        }

        // Complete a pending handover.
        if let Some(p) = &self.pending {
            if now >= p.until {
                let p = self.pending.take().expect("pending checked above");
                if let Some(s) = &self.serving {
                    self.events.push(HandoverEvent {
                        start: p.start,
                        duration: p.until.since(p.start),
                        from_cell: s.cell.id,
                        to_cell: p.target.id,
                        from_tech: s.cell.tech,
                        to_tech: p.target.tech,
                        kind: HandoverKind::classify(s.cell.tech, p.target.tech),
                    });
                }
                self.serving = Some(self.attach(p.target));
                self.neighbor_smoothed.clear();
                self.last_ho_done = Some(now);
            }
        }

        // Technology (re-)selection: only when the availability context
        // changes, the serving cell is lost, or we have no serving cell.
        let available = self.available_at(ctx.odo);
        if available.is_empty() {
            self.serving = None;
            self.granted = None;
            self.last_available = TechSet::EMPTY;
            return None;
        }
        let serving_lost = self
            .serving
            .as_ref()
            .map(|s| !s.cell.in_range(ctx.odo))
            .unwrap_or(true);
        if available != self.last_available || serving_lost {
            // Sticky grants: while the current grant's coverage persists
            // and nothing faster appeared, the operator does not revisit
            // the decision — this is what keeps handover counts at the
            // paper's per-mile levels rather than policy-flapping levels.
            let faster_appeared = match self.granted {
                Some(g) => available
                    .iter()
                    .any(|t| speed_rank(t) > speed_rank(g) && !self.last_available.contains(t)),
                None => true,
            };
            let keep = !serving_lost
                && !faster_appeared
                && self.granted.map(|g| available.contains(g)).unwrap_or(false);
            if !keep {
                self.granted = self
                    .policy
                    .select(self.demand, available, ctx.tz, &mut self.rng);
            }
            self.last_available = available;
        }
        let target_tech = self.granted?;

        // Vertical handover / initial attach when the granted technology
        // differs from the serving one, or the serving cell went out of
        // range.
        let need_new_cell = serving_lost
            || self
                .serving
                .as_ref()
                .map(|s| s.cell.tech != target_tech)
                .unwrap_or(true);
        if need_new_cell && self.pending.is_none() {
            self.fill_candidates(target_tech, ctx.odo);
            let target = self.cand.first().copied().copied();
            if let Some(target) = target {
                if let Some(serving_id) = self.serving.as_ref().map(|s| s.cell.id) {
                    if target.id != serving_id {
                        self.start_handover(now, target);
                    }
                } else {
                    // Initial attach: no interruption.
                    self.serving = Some(self.attach(target));
                }
            } else if serving_lost {
                self.serving = None;
                return None;
            }
        }

        // Horizontal A3 check among same-technology neighbors.
        if self.pending.is_none() {
            if let Some(s) = &self.serving {
                let serving = s.cell;
                let serving_id = serving.id;
                let serving_mean =
                    s.channel.mean_rsrp(serving.distance_to(ctx.odo)).0 + serving.power_offset_db;
                let serving_level = if s.smoothed_rsrp.is_nan() {
                    serving_mean
                } else {
                    s.smoothed_rsrp
                };
                let tech = serving.tech;
                self.fill_candidates(tech, ctx.odo);
                let best_neighbor = self.cand.iter().find(|c| c.id != serving_id).map(|c| **c);
                if let Some(nb) = best_neighbor {
                    // Neighbor level: deterministic mean with the same
                    // reporting offsets as the serving sample, plus its own
                    // L3 smoothing of measurement noise.
                    let mean = wheels_radio::linkbudget::LinkBudget::for_tech(tech)
                        .mean_rx_power(nb.distance_to(ctx.odo))
                        .0
                        - tech.rsrp_per_re_offset_db()
                        + self.beam_for(tech).rsrp_offset.0
                        + nb.power_offset_db;
                    let noisy = mean + self.rng.normal(0.0, 1.0);
                    let sm = self
                        .neighbor_smoothed
                        .entry(nb.id)
                        .and_modify(|v| *v = *v * (1.0 - L3_ALPHA) + noisy * L3_ALPHA)
                        .or_insert(noisy);
                    let (hyst, ttt) = a3_params(self.demand);
                    // Near-idle (ICMP-only) UEs follow a relaxed
                    // reselection rule rather than per-sector A3: they camp
                    // until the serving cell has clearly receded behind a
                    // much nearer one (or signal collapses), roughly one
                    // reselection per site crossing. This is why the
                    // passive handover-logger phones record ~4x fewer
                    // handovers than the loaded test phones (Table 1 vs
                    // Fig. 11a).
                    let trigger = if self.demand == TrafficDemand::IcmpOnly {
                        let serving_dist = serving.distance_to(ctx.odo).as_m();
                        let nearest_dist = nb.distance_to(ctx.odo).as_m();
                        serving_dist > 2.0 * nearest_dist + 200.0
                            || serving_level < RESELECT_RSRP_DBM
                    } else {
                        *sm > serving_level + hyst
                    };
                    let prohibited = self
                        .last_ho_done
                        .map(|t0| now.since(t0).as_millis() < ho_prohibit_ms(self.demand))
                        .unwrap_or(false);
                    if trigger && !prohibited {
                        let timer = match self.a3_candidate {
                            Some((id, acc)) if id == nb.id => acc + dt_ms,
                            _ => 0,
                        };
                        if timer >= ttt {
                            self.start_handover(now, nb);
                        } else {
                            self.a3_candidate = Some((nb.id, timer));
                        }
                    } else if matches!(self.a3_candidate, Some((id, _)) if id == nb.id) {
                        self.a3_candidate = None;
                    }
                }
            }
        }

        let in_handover = self.pending.is_some();
        let op = self.deployment.operator;
        let lh = local_hour(now, ctx.tz);

        let s = self.serving.as_mut()?;
        let dist = s.cell.distance_to(ctx.odo);
        let mut sample = s
            .channel
            .sample(&mut self.rng, dist, moved, dt_ms.max(1), ctx.speed);
        // Site-quality offset applies to both the report and the link.
        sample.rsrp = Dbm((sample.rsrp.0 + s.cell.power_offset_db).clamp(-140.0, -44.0));
        sample.snr = Db(sample.snr.0 + s.cell.power_offset_db);
        // Channel aging: CQI reports lag the channel, and the lag costs
        // more the faster the car moves (the paper's mild negative
        // speed-throughput correlation, Table 2).
        let aging_db = 3.2 * (ctx.speed.as_mph() / 70.0).min(1.3);
        sample.snr = Db(sample.snr.0 - aging_db);
        s.smoothed_rsrp = if s.smoothed_rsrp.is_nan() {
            sample.rsrp.0
        } else {
            s.smoothed_rsrp * (1.0 - L3_ALPHA) + sample.rsrp.0 * L3_ALPHA
        };
        let sinr = Db(sample.snr.0 - INTERFERENCE_MARGIN_DB);
        let share = self.load.share(s.cell.id, ctx.zone, now, lh);

        let dl = aggregate(&s.alloc, Direction::Downlink, sinr, share);
        let ul = aggregate(&s.alloc, Direction::Uplink, sinr, share);

        Some(RanSnapshot {
            t: now,
            operator: op,
            cell: s.cell.id,
            tech: s.cell.tech,
            rsrp: sample.rsrp,
            sinr,
            blocked: sample.blocked,
            in_handover,
            carriers: dl.carriers,
            primary_mcs: dl.primary_mcs,
            primary_bler: dl.primary_bler,
            dl_rate: if in_handover { DataRate::ZERO } else { dl.rate },
            ul_rate: if in_handover { DataRate::ZERO } else { ul.rate },
            share,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;
    use wheels_geo::route::Route;

    fn fixtures() -> &'static (Route, Vec<(Operator, Deployment)>) {
        static FIX: OnceLock<(Route, Vec<(Operator, Deployment)>)> = OnceLock::new();
        FIX.get_or_init(|| {
            let route = Route::standard();
            let rng = SimRng::seed(99);
            let deps = Operator::ALL
                .into_iter()
                .map(|op| {
                    (
                        op,
                        Deployment::generate(&route, op, &mut rng.split(op.label())),
                    )
                })
                .collect();
            (route, deps)
        })
    }

    fn dep(op: Operator) -> &'static Deployment {
        &fixtures().1.iter().find(|(o, _)| *o == op).unwrap().1
    }

    /// Drive a session along a stretch of route at constant speed.
    fn drive(
        session: &mut RanSession,
        route: &Route,
        start_km: f64,
        seconds: u64,
        speed_mph: f64,
        poll_ms: u64,
    ) -> Vec<Option<RanSnapshot>> {
        let speed = Speed::from_mph(speed_mph);
        let mut out = Vec::new();
        let mut t = SimTime::from_hours(30); // mid-trip-ish daytime
        let mut odo = Distance::from_km(start_km);
        let polls = seconds * 1000 / poll_ms;
        for _ in 0..polls {
            let ctx = PollCtx {
                odo,
                speed,
                zone: route.zone_at(odo),
                tz: route.timezone_at(odo),
            };
            out.push(session.poll(t, ctx));
            t += SimDuration::from_millis(poll_ms);
            odo += speed.distance_in_ms(poll_ms);
        }
        out
    }

    #[test]
    fn session_attaches_and_serves() {
        let (route, _) = fixtures();
        let mut s = RanSession::new(
            dep(Operator::Verizon),
            TrafficDemand::BackloggedDownlink,
            SimRng::seed(1),
        );
        let snaps = drive(&mut s, route, 100.0, 60, 65.0, 500);
        let served = snaps.iter().flatten().count();
        assert!(
            served as f64 / snaps.len() as f64 > 0.9,
            "served {served}/{}",
            snaps.len()
        );
        for snap in snaps.iter().flatten() {
            assert!(snap.share >= crate::load::MIN_SHARE - 1e-9 && snap.share <= 1.0);
            assert!(snap.rsrp.0 <= -44.0 && snap.rsrp.0 >= -140.0);
        }
    }

    #[test]
    fn backlogged_dl_yields_positive_rates() {
        let (route, _) = fixtures();
        let mut s = RanSession::new(
            dep(Operator::TMobile),
            TrafficDemand::BackloggedDownlink,
            SimRng::seed(2),
        );
        let snaps = drive(&mut s, route, 500.0, 120, 65.0, 500);
        let rates: Vec<f64> = snaps
            .iter()
            .flatten()
            .filter(|s| !s.in_handover)
            .map(|s| s.dl_rate.as_mbps())
            .collect();
        assert!(!rates.is_empty());
        let positive = rates.iter().filter(|r| **r > 0.1).count();
        assert!(positive as f64 / rates.len() as f64 > 0.8);
    }

    #[test]
    fn handovers_happen_while_driving() {
        let (route, _) = fixtures();
        let mut s = RanSession::new(
            dep(Operator::TMobile),
            TrafficDemand::BackloggedDownlink,
            SimRng::seed(3),
        );
        // 20 minutes of highway driving.
        drive(&mut s, route, 700.0, 1200, 68.0, 500);
        assert!(
            !s.events().is_empty(),
            "expected handovers in 20 min of driving"
        );
        assert!(s.unique_cell_count() > 1);
    }

    #[test]
    fn handover_interruptions_near_operator_median() {
        let (route, _) = fixtures();
        for op in Operator::ALL {
            let mut s =
                RanSession::new(dep(op), TrafficDemand::BackloggedDownlink, SimRng::seed(4));
            drive(&mut s, route, 300.0, 3600, 66.0, 500);
            let durs: Vec<f64> = s
                .events()
                .iter()
                .map(|e| e.duration.as_millis() as f64)
                .collect();
            if durs.len() < 10 {
                continue;
            }
            let mut sorted = durs.clone();
            sorted.sort_by(f64::total_cmp);
            let med = sorted[sorted.len() / 2];
            let target = op.ho_interruption_median_ms();
            assert!(
                (med - target).abs() / target < 0.5,
                "{op:?} median {med} target {target}"
            );
        }
    }

    #[test]
    fn rates_zero_during_handover() {
        let (route, _) = fixtures();
        let mut s = RanSession::new(
            dep(Operator::Verizon),
            TrafficDemand::BackloggedDownlink,
            SimRng::seed(5),
        );
        let snaps = drive(&mut s, route, 200.0, 2400, 65.0, 100);
        let in_ho: Vec<_> = snaps.iter().flatten().filter(|s| s.in_handover).collect();
        assert!(!in_ho.is_empty(), "no in-handover polls observed");
        for snap in in_ho {
            assert_eq!(snap.dl_rate, DataRate::ZERO);
            assert_eq!(snap.ul_rate, DataRate::ZERO);
        }
    }

    #[test]
    fn icmp_demand_sees_less_5g_than_backlogged() {
        let (route, _) = fixtures();
        // Drive through a major city (Chicago) where Verizon's 5G layers
        // exist, approaching from 20 km out at city speeds.
        let chicago_km = route
            .waypoints()
            .iter()
            .position(|w| w.name == "Chicago")
            .map(|i| route.waypoint_odometer(i).as_km())
            .unwrap();
        let frac_5g = |demand: TrafficDemand, seed: u64| {
            let mut s = RanSession::new(dep(Operator::Verizon), demand, SimRng::seed(seed));
            let snaps = drive(&mut s, route, chicago_km - 20.0, 3600, 25.0, 500);
            let (n5, n) = snaps
                .iter()
                .flatten()
                .fold((0u32, 0u32), |(a, b), s| (a + s.tech.is_5g() as u32, b + 1));
            n5 as f64 / n.max(1) as f64
        };
        let idle = frac_5g(TrafficDemand::IcmpOnly, 6);
        let dl = frac_5g(TrafficDemand::BackloggedDownlink, 7);
        assert!(dl > idle + 0.1, "idle {idle} dl {dl}");
    }

    #[test]
    fn overnight_gap_reattaches() {
        let (route, _) = fixtures();
        let d = dep(Operator::Att);
        let mut s = RanSession::new(d, TrafficDemand::BackloggedDownlink, SimRng::seed(8));
        let odo = Distance::from_km(50.0);
        let ctx = PollCtx {
            odo,
            speed: Speed::ZERO,
            zone: route.zone_at(odo),
            tz: route.timezone_at(odo),
        };
        let a = s.poll(SimTime::from_hours(10), ctx);
        assert!(a.is_some());
        // 10 hours later.
        let b = s.poll(SimTime::from_hours(20), ctx);
        assert!(b.is_some());
        // Re-attach must not have recorded a handover event.
        assert!(s.events().is_empty());
    }

    #[test]
    fn snapshot_kpis_are_consistent() {
        let (route, _) = fixtures();
        let mut s = RanSession::new(
            dep(Operator::TMobile),
            TrafficDemand::BackloggedDownlink,
            SimRng::seed(9),
        );
        for snap in drive(&mut s, route, 1500.0, 600, 60.0, 500)
            .iter()
            .flatten()
        {
            assert!(snap.carriers >= 1);
            assert!(snap.primary_mcs <= 28);
            assert!((0.0..=1.0).contains(&snap.primary_bler));
            assert!(snap.dl_rate.as_mbps() <= 3500.0);
            assert!(snap.ul_rate.as_mbps() <= 350.0);
            if snap.tech == Technology::Lte {
                assert_eq!(snap.carriers, 1);
            }
        }
    }

    #[test]
    fn ho_rate_per_mile_in_paper_ballpark() {
        // Fig. 11a: median 1–3 HO/mile, 75th percentile ~5-6. Accept a
        // looser band here (0.3–8) — the experiment crate calibrates finer.
        let (route, _) = fixtures();
        let mut total_hos = 0usize;
        let mut total_miles = 0.0;
        for (op, seed) in [
            (Operator::Verizon, 10u64),
            (Operator::TMobile, 11),
            (Operator::Att, 12),
        ] {
            let mut s = RanSession::new(
                dep(op),
                TrafficDemand::BackloggedDownlink,
                SimRng::seed(seed),
            );
            let secs = 1800;
            drive(&mut s, route, 900.0, secs, 65.0, 500);
            total_hos += s.events().len();
            total_miles += 65.0 * secs as f64 / 3600.0;
        }
        let per_mile = total_hos as f64 / total_miles;
        assert!(
            (0.3..8.0).contains(&per_mile),
            "handovers per mile {per_mile}"
        );
    }

    #[test]
    fn vertical_handovers_recorded_with_kinds() {
        let (route, _) = fixtures();
        let mut s = RanSession::new(
            dep(Operator::TMobile),
            TrafficDemand::BackloggedDownlink,
            SimRng::seed(13),
        );
        drive(&mut s, route, 2400.0, 3600, 66.0, 500);
        let kinds: std::collections::HashSet<_> = s.events().iter().map(|e| e.kind).collect();
        // A long T-Mobile drive crosses 5G run boundaries: expect at least
        // one vertical kind plus horizontals.
        assert!(
            kinds.len() >= 2,
            "kinds seen: {kinds:?} over {} events",
            s.events().len()
        );
    }

    /// Fold `bytes` into an FNV-1a-64 state.
    fn fnv(h: &mut u64, bytes: &[u8]) {
        for b in bytes {
            *h ^= u64::from(*b);
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold every field of one poll result into `h`, floats as raw bits.
    fn fold_snapshot(h: &mut u64, snap: Option<RanSnapshot>) {
        let Some(s) = snap else {
            fnv(h, &[0xff]);
            return;
        };
        fnv(h, &s.t.as_millis().to_le_bytes());
        fnv(h, &[s.operator.index() as u8, s.tech.index() as u8]);
        fnv(h, &s.cell.0.to_le_bytes());
        for x in [s.rsrp.0, s.sinr.0, s.primary_bler, s.share] {
            fnv(h, &x.to_bits().to_le_bytes());
        }
        for r in [s.dl_rate, s.ul_rate] {
            fnv(h, &r.as_bps().to_bits().to_le_bytes());
        }
        fnv(
            h,
            &[
                u8::from(s.blocked),
                u8::from(s.in_handover),
                s.carriers,
                s.primary_mcs,
            ],
        );
    }

    /// Pins the full poll stream of one session polled every 10 ms while
    /// the odometer advances once per second, as a drive trace does. The
    /// stretch includes a demand flip DL → UL → ICMP at an unchanged
    /// odometer, a vertical handover forced by the eager policy, and a
    /// gap long enough to re-attach, so any cached position state that
    /// outlives a change of technology or demand shows as a new hash.
    #[test]
    fn session_stream_pin() {
        let (route, _) = fixtures();
        let op = Operator::Verizon;
        let chicago_km = route
            .waypoints()
            .iter()
            .position(|w| w.name == "Chicago")
            .map(|i| route.waypoint_odometer(i).as_km())
            .unwrap();
        let start = Distance::from_km(chicago_km - 3.0);
        let speed = Speed::from_mph(25.0);
        let base = SimTime::from_hours(30);
        let mut s = RanSession::new(dep(op), TrafficDemand::BackloggedDownlink, SimRng::seed(17));
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for step in 0..15_000u64 {
            let ms = step * 10;
            match ms {
                60_500 => s.set_demand(TrafficDemand::BackloggedUplink),
                60_700 => s.set_demand(TrafficDemand::IcmpOnly),
                90_300 => s.set_policy(UpgradePolicy::eager(op)),
                _ => {}
            }
            let gap_ms = if ms >= 110_000 {
                REATTACH_GAP_MS + 2_000
            } else {
                0
            };
            let odo = start + speed.distance_in_ms(ms / 1000 * 1000);
            let ctx = PollCtx {
                odo,
                speed,
                zone: route.zone_at(odo),
                tz: route.timezone_at(odo),
            };
            let snap = s.poll(base + SimDuration::from_millis(ms + gap_ms), ctx);
            fold_snapshot(&mut h, snap);
        }
        for e in s.events() {
            fnv(&mut h, &e.start.as_millis().to_le_bytes());
            fnv(&mut h, &e.duration.as_millis().to_le_bytes());
            fnv(&mut h, &e.from_cell.0.to_le_bytes());
            fnv(&mut h, &e.to_cell.0.to_le_bytes());
        }
        // The scripted events really happen on this stretch: the uplink
        // flip moves the UE off mmWave, the eager policy moves it back.
        let vertical: Vec<_> = s
            .events()
            .iter()
            .filter(|e| e.from_tech != e.to_tech)
            .map(|e| (e.start.since(base).as_millis(), e.kind))
            .collect();
        assert_eq!(
            vertical,
            [
                (60_500, HandoverKind::Down5gTo4g),
                (90_300, HandoverKind::Up4gTo5g)
            ]
        );
        assert_eq!(h, 0xfdea_80c6_fddc_58bf, "stream hash {h:#018x}");
    }

    #[test]
    fn classify_kinds() {
        assert_eq!(
            HandoverKind::classify(Technology::Lte, Technology::LteA),
            HandoverKind::Horizontal4g
        );
        assert_eq!(
            HandoverKind::classify(Technology::Nr5gMid, Technology::Nr5gMmWave),
            HandoverKind::Horizontal5g
        );
        assert_eq!(
            HandoverKind::classify(Technology::LteA, Technology::Nr5gLow),
            HandoverKind::Up4gTo5g
        );
        assert_eq!(
            HandoverKind::classify(Technology::Nr5gMmWave, Technology::Lte),
            HandoverKind::Down5gTo4g
        );
    }

    #[test]
    fn local_hour_conversion() {
        // Epoch = midnight PDT.
        assert!((local_hour(SimTime::EPOCH, Timezone::Pacific) - 0.0).abs() < 1e-9);
        assert!((local_hour(SimTime::EPOCH, Timezone::Eastern) - 3.0).abs() < 1e-9);
        assert!((local_hour(SimTime::from_hours(26), Timezone::Pacific) - 2.0).abs() < 1e-9);
    }
}
