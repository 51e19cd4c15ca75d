//! Fluid-flow TCP CUBIC over a time-varying bottleneck.
//!
//! The paper measured throughput with nuttcp: a single CUBIC connection,
//! 30–35 s backlogged, sampled every 500 ms. This module reproduces that
//! measurement instrument: the radio link is the bottleneck, its rate
//! changes every poll, and a droptail buffer sits in front of it.
//!
//! The model is deliberately fluid (rates and byte-counts, not packets) —
//! the analysis consumes 500 ms throughput samples, so sub-RTT packet
//! dynamics are irrelevant, but three TCP behaviours matter and are kept:
//!
//! 1. **CUBIC window evolution** (RFC 8312): cubic growth around `W_max`
//!    with β = 0.7 multiplicative decrease on loss, plus classic slow
//!    start. After a rate drop it takes CUBIC real time to refill the pipe,
//!    which is where much of the driving throughput loss comes from.
//! 2. **Bufferbloat**: the droptail buffer is sized generously (as carrier
//!    buffers are); at low link rates the queueing delay reaches seconds —
//!    Fig. 3b's 2–3 s driving RTT tail.
//! 3. **Stalls and RTOs**: a handover interruption (link rate 0) stalls
//!    delivery; if it outlasts the retransmission timeout the window
//!    collapses to one segment and slow start restarts.

use serde::{Deserialize, Serialize};
use wheels_sim_core::units::DataRate;

/// Maximum segment size (bytes).
pub const MSS: f64 = 1448.0;
/// CUBIC scaling constant (RFC 8312).
const CUBIC_C: f64 = 0.4;
/// CUBIC multiplicative-decrease factor.
const CUBIC_BETA: f64 = 0.7;
/// Minimum bottleneck buffer (bytes) — carrier buffers do not shrink below
/// this even on slow links; this constant is the bufferbloat source.
const MIN_BUFFER_BYTES: f64 = 750_000.0;
/// Buffer size in bandwidth-delay products (when larger than the floor).
const BUFFER_BDP_MULT: f64 = 4.0;
/// Retransmission timeout floor (ms).
const RTO_MIN_MS: f64 = 1000.0;
/// Initial congestion window (segments).
const INIT_CWND_SEGS: f64 = 10.0;

/// CUBIC's K (RFC 8312 §4.1) in seconds for a window of `w_max` bytes.
fn cubic_k(w_max: f64) -> f64 {
    (w_max / MSS * (1.0 - CUBIC_BETA) / CUBIC_C).cbrt()
}

/// Output of one simulation tick of the flow.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowTick {
    /// Bytes delivered to the application during the tick.
    pub delivered_bytes: f64,
    /// Smoothed RTT including queueing delay (ms).
    pub rtt_ms: f64,
    /// Whether a congestion (loss) event fired during the tick.
    pub lost: bool,
    /// Whether an RTO fired during the tick.
    pub rto: bool,
}

/// A single backlogged CUBIC flow.
///
/// ```
/// use wheels_transport::tcp::CubicFlow;
/// use wheels_sim_core::units::DataRate;
///
/// let mut flow = CubicFlow::new();
/// let link = DataRate::from_mbps(50.0);
/// let mut bytes = 0.0;
/// for _ in 0..3000 {
///     bytes += flow.advance(10.0, link, 60.0).delivered_bytes;
/// }
/// let goodput_mbps = bytes * 8.0 / 1e6 / 30.0;
/// assert!(goodput_mbps > 40.0); // saturates a steady 50 Mbps link
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CubicFlow {
    /// Congestion window (bytes).
    cwnd: f64,
    /// Slow-start threshold (bytes).
    ssthresh: f64,
    /// Window before the last decrease (bytes).
    w_max: f64,
    /// CUBIC's K for `w_max`: seconds from the last decrease until the
    /// cubic curve regains `w_max`. Set wherever `w_max` is.
    k_s: f64,
    /// Milliseconds since the last congestion event.
    epoch_ms: f64,
    /// Bottleneck queue occupancy (bytes).
    queue: f64,
    /// Milliseconds the link has been fully stalled.
    stall_ms: f64,
    /// Last computed RTT (ms).
    srtt_ms: f64,
    /// Bottleneck buffer sizing: BDP multiple.
    buffer_bdp_mult: f64,
    /// Bottleneck buffer floor (bytes) — the bufferbloat source.
    min_buffer_bytes: f64,
}

impl Default for CubicFlow {
    fn default() -> Self {
        Self::new()
    }
}

impl CubicFlow {
    /// Fresh flow in slow start over a default (carrier-sized) buffer.
    pub fn new() -> Self {
        Self::with_buffer(BUFFER_BDP_MULT, MIN_BUFFER_BYTES)
    }

    /// Fresh flow over a custom bottleneck buffer (ablations: a 1×BDP
    /// buffer with no floor kills the bufferbloat RTT tail).
    pub fn with_buffer(bdp_mult: f64, min_bytes: f64) -> Self {
        CubicFlow {
            cwnd: INIT_CWND_SEGS * MSS,
            ssthresh: f64::INFINITY,
            w_max: 0.0,
            k_s: cubic_k(0.0),
            epoch_ms: 0.0,
            queue: 0.0,
            stall_ms: 0.0,
            srtt_ms: 0.0,
            buffer_bdp_mult: bdp_mult.max(0.1),
            min_buffer_bytes: min_bytes.max(3.0 * MSS),
        }
    }

    /// Current congestion window in bytes.
    pub fn cwnd_bytes(&self) -> f64 {
        self.cwnd
    }

    /// Whether the flow is in slow start.
    pub fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }

    /// CUBIC window target `epoch_ms` after the last loss (RFC 8312 §4.1).
    fn cubic_target(&self) -> f64 {
        let wmax_segs = self.w_max / MSS;
        let t = self.epoch_ms / 1000.0;
        let target_segs = CUBIC_C * (t - self.k_s).powi(3) + wmax_segs;
        target_segs * MSS
    }

    fn on_loss(&mut self) {
        self.w_max = self.cwnd;
        self.k_s = cubic_k(self.w_max);
        self.cwnd = (self.cwnd * CUBIC_BETA).max(2.0 * MSS);
        self.ssthresh = self.cwnd;
        self.epoch_ms = 0.0;
    }

    fn on_rto(&mut self) {
        self.ssthresh = (self.cwnd / 2.0).max(2.0 * MSS);
        self.w_max = self.cwnd;
        self.k_s = cubic_k(self.w_max);
        self.cwnd = MSS;
        self.epoch_ms = 0.0;
        self.queue = 0.0; // queued data is retransmitted, buffer flushed
    }

    /// Advance the flow by `dt_ms` with the bottleneck at `link_rate` and
    /// a path base RTT (propagation, no queueing) of `base_rtt_ms`.
    pub fn advance(&mut self, dt_ms: f64, link_rate: DataRate, base_rtt_ms: f64) -> FlowTick {
        assert!(dt_ms > 0.0, "tick must be positive");
        let link_bps = link_rate.as_bps();

        // Full stall (handover / dead zone).
        if link_bps <= 1.0 {
            self.stall_ms += dt_ms;
            let rto = self.stall_ms >= RTO_MIN_MS.max(2.0 * self.srtt_ms.max(base_rtt_ms));
            if rto {
                self.on_rto();
                self.stall_ms = 0.0;
            }
            self.srtt_ms = base_rtt_ms + 0.0;
            return FlowTick {
                delivered_bytes: 0.0,
                rtt_ms: self.srtt_ms,
                lost: false,
                rto,
            };
        }
        self.stall_ms = 0.0;

        let queue_delay_ms = self.queue / link_bps * 8.0 * 1000.0;
        let rtt_ms = base_rtt_ms + queue_delay_ms;
        self.srtt_ms = rtt_ms;

        // Window growth over the tick.
        self.epoch_ms += dt_ms;
        let rtts_in_tick = dt_ms / rtt_ms.max(1.0);
        if self.in_slow_start() {
            // Doubling per RTT, capped at ssthresh.
            self.cwnd = (self.cwnd * 2f64.powf(rtts_in_tick)).min(self.ssthresh.max(self.cwnd));
        } else {
            let target = self.cubic_target();
            if target > self.cwnd {
                // Approach the cubic target but never more than 1.5x/RTT
                // (TCP-friendly cap on aggressive regrowth).
                let max_growth = self.cwnd * 1.5f64.powf(rtts_in_tick);
                self.cwnd = target.min(max_growth);
            } else {
                // In the concave plateau the window holds.
            }
        }
        self.cwnd = self.cwnd.max(MSS);

        // Fluid queue update: the flow offers cwnd/RTT; the link drains at
        // link_rate.
        let offered_bps = self.cwnd * 8.0 / (rtt_ms / 1000.0);
        let link_bytes = link_bps / 8.0 * (dt_ms / 1000.0);
        let offered_bytes = offered_bps / 8.0 * (dt_ms / 1000.0);

        let bdp_bytes = link_bps / 8.0 * (base_rtt_ms / 1000.0);
        let buffer = (bdp_bytes * self.buffer_bdp_mult).max(self.min_buffer_bytes);

        let mut lost = false;
        let drained: f64;
        if offered_bytes >= link_bytes {
            drained = link_bytes;
            self.queue += offered_bytes - link_bytes;
            if self.queue >= buffer {
                self.queue = buffer * 0.85; // droptail spills, sender backs off
                self.on_loss();
                lost = true;
            }
        } else {
            let deficit = link_bytes - offered_bytes;
            let from_queue = deficit.min(self.queue);
            self.queue -= from_queue;
            drained = offered_bytes + from_queue;
        }

        FlowTick {
            delivered_bytes: drained,
            rtt_ms,
            lost,
            rto: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Run a flow over a constant link, returning per-tick results.
    fn run_constant(mbps: f64, base_rtt: f64, ms: u64, tick: u64) -> (CubicFlow, Vec<FlowTick>) {
        let mut f = CubicFlow::new();
        let link = DataRate::from_mbps(mbps);
        let ticks = (0..ms / tick)
            .map(|_| f.advance(tick as f64, link, base_rtt))
            .collect();
        (f, ticks)
    }

    fn goodput_mbps(ticks: &[FlowTick], tick_ms: u64) -> f64 {
        let bytes: f64 = ticks.iter().map(|t| t.delivered_bytes).sum();
        bytes * 8.0 / 1e6 / (ticks.len() as f64 * tick_ms as f64 / 1000.0)
    }

    #[test]
    fn saturates_steady_link() {
        let (_, ticks) = run_constant(50.0, 60.0, 30_000, 10);
        // Skip the first 5 s of slow start.
        let steady = &ticks[500..];
        let g = goodput_mbps(steady, 10);
        assert!(g > 45.0 && g <= 50.5, "goodput {g}");
    }

    #[test]
    fn saturates_slow_link_and_bloats_rtt() {
        let (_, ticks) = run_constant(2.0, 60.0, 40_000, 10);
        let steady = &ticks[2000..];
        let g = goodput_mbps(steady, 10);
        assert!(g > 1.7 && g <= 2.05, "goodput {g}");
        // Bufferbloat: with a 750 KB floor at 2 Mbps, queue delay reaches
        // seconds before droptail bites.
        let max_rtt = ticks.iter().map(|t| t.rtt_ms).fold(0.0, f64::max);
        assert!(max_rtt > 1000.0, "max rtt {max_rtt}");
    }

    #[test]
    fn slow_start_then_congestion_avoidance() {
        let (f, ticks) = run_constant(100.0, 50.0, 20_000, 10);
        assert!(!f.in_slow_start(), "should have exited slow start");
        assert!(ticks.iter().any(|t| t.lost), "droptail loss expected");
    }

    #[test]
    fn loss_reduces_window_by_beta() {
        let mut f = CubicFlow::new();
        // Force a known window, then a loss.
        f.cwnd = 100.0 * MSS;
        f.ssthresh = 10.0 * MSS; // out of slow start
        let before = f.cwnd_bytes();
        f.on_loss();
        assert!((f.cwnd_bytes() - before * CUBIC_BETA).abs() < 1e-6);
    }

    #[test]
    fn cubic_regrows_toward_wmax() {
        let mut f = CubicFlow::new();
        f.cwnd = 100.0 * MSS;
        f.ssthresh = 10.0 * MSS;
        f.on_loss();
        let after_loss = f.cwnd_bytes();
        // Generous link so the link itself is not limiting regrowth.
        let link = DataRate::from_mbps(500.0);
        for _ in 0..1500 {
            f.advance(10.0, link, 50.0);
        }
        assert!(
            f.cwnd_bytes() > after_loss * 1.2,
            "window did not regrow: {} vs {}",
            f.cwnd_bytes(),
            after_loss
        );
    }

    #[test]
    fn stall_triggers_rto_and_slow_start() {
        let mut f = CubicFlow::new();
        let link = DataRate::from_mbps(50.0);
        for _ in 0..1000 {
            f.advance(10.0, link, 60.0);
        }
        let before = f.cwnd_bytes();
        assert!(before > 10.0 * MSS);
        // 1.5 s outage.
        let mut rto_seen = false;
        for _ in 0..150 {
            let t = f.advance(10.0, DataRate::ZERO, 60.0);
            assert_eq!(t.delivered_bytes, 0.0);
            rto_seen |= t.rto;
        }
        assert!(rto_seen, "RTO should fire during a 1.5 s outage");
        assert!(f.cwnd_bytes() <= MSS + 1e-9);
        assert!(f.in_slow_start());
    }

    #[test]
    fn short_stall_no_rto() {
        let mut f = CubicFlow::new();
        let link = DataRate::from_mbps(50.0);
        for _ in 0..500 {
            f.advance(10.0, link, 60.0);
        }
        let before = f.cwnd_bytes();
        // 60 ms interruption — the paper's median handover.
        for _ in 0..6 {
            let t = f.advance(10.0, DataRate::ZERO, 60.0);
            assert!(!t.rto);
        }
        assert_eq!(f.cwnd_bytes(), before, "window survives a short stall");
    }

    #[test]
    fn adapts_downward_when_link_halves() {
        let mut f = CubicFlow::new();
        for _ in 0..2000 {
            f.advance(10.0, DataRate::from_mbps(80.0), 60.0);
        }
        // Halve the link; goodput must settle near the new rate.
        let ticks: Vec<FlowTick> = (0..3000)
            .map(|_| f.advance(10.0, DataRate::from_mbps(40.0), 60.0))
            .collect();
        let g = goodput_mbps(&ticks[1000..], 10);
        assert!(g > 35.0 && g <= 40.5, "goodput {g}");
    }

    #[test]
    fn rtt_includes_queue_delay_under_load() {
        let (_, ticks) = run_constant(10.0, 60.0, 20_000, 10);
        let late = &ticks[1500..];
        let mean_rtt = late.iter().map(|t| t.rtt_ms).sum::<f64>() / late.len() as f64;
        assert!(mean_rtt > 100.0, "mean rtt {mean_rtt} — no bufferbloat?");
    }

    #[test]
    fn deterministic() {
        let (_, a) = run_constant(25.0, 70.0, 5000, 10);
        let (_, b) = run_constant(25.0, 70.0, 5000, 10);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "tick must be positive")]
    fn zero_tick_panics() {
        let mut f = CubicFlow::new();
        f.advance(0.0, DataRate::from_mbps(10.0), 50.0);
    }

    /// Reference stepper with no cached K: CUBIC's K is recomputed from
    /// `w_max` on every congestion-avoidance tick, and the decrease paths
    /// leave `k_s` alone. The cached flow must match it bit for bit.
    fn reference_advance(
        f: &mut CubicFlow,
        dt_ms: f64,
        link_rate: DataRate,
        base_rtt_ms: f64,
    ) -> FlowTick {
        fn on_loss(f: &mut CubicFlow) {
            f.w_max = f.cwnd;
            f.cwnd = (f.cwnd * CUBIC_BETA).max(2.0 * MSS);
            f.ssthresh = f.cwnd;
            f.epoch_ms = 0.0;
        }
        let link_bps = link_rate.as_bps();
        if link_bps <= 1.0 {
            f.stall_ms += dt_ms;
            let rto = f.stall_ms >= RTO_MIN_MS.max(2.0 * f.srtt_ms.max(base_rtt_ms));
            if rto {
                f.ssthresh = (f.cwnd / 2.0).max(2.0 * MSS);
                f.w_max = f.cwnd;
                f.cwnd = MSS;
                f.epoch_ms = 0.0;
                f.queue = 0.0;
                f.stall_ms = 0.0;
            }
            f.srtt_ms = base_rtt_ms + 0.0;
            return FlowTick {
                delivered_bytes: 0.0,
                rtt_ms: f.srtt_ms,
                lost: false,
                rto,
            };
        }
        f.stall_ms = 0.0;
        let queue_delay_ms = f.queue / link_bps * 8.0 * 1000.0;
        let rtt_ms = base_rtt_ms + queue_delay_ms;
        f.srtt_ms = rtt_ms;
        f.epoch_ms += dt_ms;
        let rtts_in_tick = dt_ms / rtt_ms.max(1.0);
        if f.in_slow_start() {
            f.cwnd = (f.cwnd * 2f64.powf(rtts_in_tick)).min(f.ssthresh.max(f.cwnd));
        } else {
            let wmax_segs = f.w_max / MSS;
            let k = (wmax_segs * (1.0 - CUBIC_BETA) / CUBIC_C).cbrt();
            let t = f.epoch_ms / 1000.0;
            let target = (CUBIC_C * (t - k).powi(3) + wmax_segs) * MSS;
            if target > f.cwnd {
                f.cwnd = target.min(f.cwnd * 1.5f64.powf(rtts_in_tick));
            }
        }
        f.cwnd = f.cwnd.max(MSS);
        let offered_bps = f.cwnd * 8.0 / (rtt_ms / 1000.0);
        let link_bytes = link_bps / 8.0 * (dt_ms / 1000.0);
        let offered_bytes = offered_bps / 8.0 * (dt_ms / 1000.0);
        let bdp_bytes = link_bps / 8.0 * (base_rtt_ms / 1000.0);
        let buffer = (bdp_bytes * f.buffer_bdp_mult).max(f.min_buffer_bytes);
        let mut lost = false;
        let drained;
        if offered_bytes >= link_bytes {
            drained = link_bytes;
            f.queue += offered_bytes - link_bytes;
            if f.queue >= buffer {
                f.queue = buffer * 0.85;
                on_loss(f);
                lost = true;
            }
        } else {
            let from_queue = (link_bytes - offered_bytes).min(f.queue);
            f.queue -= from_queue;
            drained = offered_bytes + from_queue;
        }
        FlowTick {
            delivered_bytes: drained,
            rtt_ms,
            lost,
            rto: false,
        }
    }

    fn tick_bits(t: FlowTick) -> (u64, u64, bool, bool) {
        (
            t.delivered_bytes.to_bits(),
            t.rtt_ms.to_bits(),
            t.lost,
            t.rto,
        )
    }

    /// Drive a cached-K flow and the reference over `(Mbps, ticks)` legs,
    /// requiring bit-equal ticks. A zero-rate leg is stretched to outlast
    /// `RTO_MIN_MS`. Returns the (loss, RTO) counts seen.
    fn cached_vs_reference(
        legs: &[(f64, usize)],
        base_rtt: f64,
        dt_ms: f64,
        small_buffer: bool,
    ) -> (usize, usize) {
        let fresh = || {
            if small_buffer {
                CubicFlow::with_buffer(1.0, 30_000.0)
            } else {
                CubicFlow::new()
            }
        };
        let (mut cached, mut reference) = (fresh(), fresh());
        let stall_ticks = (RTO_MIN_MS / dt_ms).ceil() as usize + 5;
        let (mut losses, mut rtos) = (0, 0);
        for &(mbps, ticks) in legs {
            let ticks = if mbps == 0.0 {
                ticks.max(stall_ticks)
            } else {
                ticks
            };
            let link = DataRate::from_mbps(mbps);
            for i in 0..ticks {
                let got = cached.advance(dt_ms, link, base_rtt);
                let want = reference_advance(&mut reference, dt_ms, link, base_rtt);
                assert_eq!(tick_bits(got), tick_bits(want), "{mbps} Mbps, tick {i}");
                losses += usize::from(got.lost);
                rtos += usize::from(got.rto);
            }
        }
        assert_eq!(cached.cwnd.to_bits(), reference.cwnd.to_bits());
        (losses, rtos)
    }

    #[test]
    fn cached_k_matches_reference_through_losses_and_rtos() {
        let legs = [
            (80.0, 1500),
            (0.0, 150),
            (3.0, 800),
            (400.0, 900),
            (0.0, 0),
            (20.0, 600),
        ];
        for small_buffer in [false, true] {
            let (losses, rtos) = cached_vs_reference(&legs, 60.0, 10.0, small_buffer);
            assert!(losses > 0 && rtos > 0, "losses {losses}, RTOs {rtos}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random link trajectories mixing stalls, slow legs that bloat the
        /// buffer and fast legs that overflow it: leg kind 0 is a stall,
        /// 1 a 0.05–5 Mbps leg, 2 a 5–800 Mbps leg.
        #[test]
        fn cached_k_matches_per_tick_k(
            legs in prop::collection::vec((0u8..3, 0.0f64..1.0, 1usize..400), 1..24),
            base_rtt in 5.0f64..300.0,
            dt_ms in prop::sample::select(vec![10.0, 1.0, 3.7, 25.0, 50.0]),
            small_buffer in any::<bool>(),
        ) {
            let legs: Vec<(f64, usize)> = legs
                .into_iter()
                .map(|(kind, x, ticks)| match kind {
                    0 => (0.0, ticks),
                    1 => (0.05 + x * 4.95, ticks),
                    _ => (5.0 + x * 795.0, ticks),
                })
                .collect();
            cached_vs_reference(&legs, base_rtt, dt_ms, small_buffer);
        }
    }

    #[test]
    fn goodput_never_exceeds_link() {
        let (_, ticks) = run_constant(5.0, 60.0, 20_000, 10);
        for t in &ticks {
            // Per tick, delivery is capped by the link (plus queue drain,
            // also link-capped).
            assert!(t.delivered_bytes <= 5e6 / 8.0 * 0.01 + 1e-6);
        }
    }
}
