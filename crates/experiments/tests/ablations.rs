//! Each mechanism ablation keeps the shape EXPERIMENTS.md §Ablations
//! states: switching the mechanism off moves its metric the way the
//! paper's explanation says, by a clear margin. Removing a mechanism
//! from the simulator fails the matching test here.

use wheels_experiments::ablations;

#[test]
fn eager_upgrades_close_the_passive_5g_gap() {
    let (traffic_aware, eager) = ablations::upgrade_policy();
    assert!(
        eager > traffic_aware + 0.2,
        "eager 5G share {eager:.3} should exceed traffic-aware {traffic_aware:.3} by >20 points"
    );
}

#[test]
fn the_rtt_tail_is_bufferbloat() {
    let (carrier, tight) = ablations::bufferbloat();
    assert!(tight < 700.0, "1×BDP/30 KB buffer max RTT {tight:.0} ms");
    assert!(carrier > 2000.0, "carrier buffer max RTT {carrier:.0} ms");
}

#[test]
fn fixed_bitrate_loses_to_bba() {
    let ((bba_qoe, bba_rebuffer), (fixed_qoe, fixed_rebuffer)) = ablations::abr();
    assert!(
        fixed_qoe < bba_qoe,
        "QoE fixed {fixed_qoe:.1} vs BBA {bba_qoe:.1}"
    );
    assert!(
        fixed_rebuffer > bba_rebuffer,
        "rebuffering fixed {fixed_rebuffer:.1} % vs BBA {bba_rebuffer:.1} %"
    );
}

#[test]
fn carrier_aggregation_more_than_doubles_lte_a() {
    let (four_cc, one_cc) = ablations::carrier_aggregation();
    assert!(
        four_cc > 2.0 * one_cc,
        "4 CC {four_cc:.0} Mbps vs 1 CC {one_cc:.0} Mbps"
    );
}

#[test]
fn local_tracking_holds_up_stale_accuracy() {
    let (on, off) = ablations::local_tracking();
    assert!(
        on > off + 5.0,
        "mean mAP tracking on {on:.1} vs off {off:.1}"
    );
}

#[test]
fn cloud_rtt_raises_ar_latency() {
    let (edge, cloud) = ablations::edge();
    assert!(
        cloud > edge,
        "AR E2E median cloud {cloud:.0} ms vs edge {edge:.0} ms"
    );
}

#[test]
fn table_has_one_row_per_mechanism() {
    let table = ablations::run();
    assert_eq!(table.lines().count(), 2 + 6, "{table}");
    assert!(table
        .lines()
        .all(|l| l.starts_with('|') && l.ends_with('|')));
}
