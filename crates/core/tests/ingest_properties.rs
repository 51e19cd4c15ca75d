//! Property tests for incremental shard ingest: replaying a campaign's
//! shards into an empty [`DatasetView`] in *any* arrival order must
//! reproduce exactly what a full `DatasetView::new` rebuild over the
//! merged campaign dataset yields — every partition iterator, every
//! sub-index, every memoized Cdf and quantile, the by-test groups, the
//! handover impacts, and the Table 1 accounting down to the bits of its
//! f64 byte totals — with faults off and on (faulted runs salvage
//! partial shards, so their tables are irregular). The arrival-order
//! independence rests on a simulator guarantee the fixtures also pin:
//! canonical sort keys never collide across shards.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::OnceLock;

use proptest::prelude::*;
use wheels_core::analysis::view::DatasetView;
use wheels_core::campaign::{Campaign, CampaignConfig};
use wheels_core::checkpoint;
use wheels_core::disrupt::FaultConfig;
use wheels_core::records::{Dataset, RttSample, ShardRecords, TputSample};
use wheels_radio::tech::{Direction, Technology};
use wheels_ran::operator::Operator;
use wheels_sim_core::time::Timezone;
use wheels_sim_core::units::SpeedBin;

fn cfg(faults: bool) -> CampaignConfig {
    CampaignConfig {
        seed: 7,
        max_cycles: Some(2),
        // Apps ride along in the faulted scenario so the app/audit
        // small-table merge sees non-trivial rows; the plain scenario
        // stays lean to keep the fixture cheap.
        include_apps: faults,
        include_static: false,
        cycle_stride_s: 40_000,
        shard_cycles: Some(1),
        faults: if faults {
            FaultConfig::demo()
        } else {
            FaultConfig::default()
        },
        ..CampaignConfig::default()
    }
}

struct Scenario {
    shards: Vec<ShardRecords>,
    full: DatasetView,
}

/// Shards (plan order, read back from a checkpoint journal) and the
/// rebuilt reference view, computed once per fault mode. Also pins the
/// cross-shard key-uniqueness guarantee arrival-order independence
/// rests on.
fn scenario(faults: bool) -> &'static Scenario {
    static PLAIN: OnceLock<Scenario> = OnceLock::new();
    static FAULTED: OnceLock<Scenario> = OnceLock::new();
    let slot = if faults { &FAULTED } else { &PLAIN };
    slot.get_or_init(|| {
        let campaign = Campaign::standard(7);
        let c = cfg(faults);
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("ingest_properties_faults_{faults}"));
        let run = campaign
            .run_checkpointed(&c, &dir, false)
            .expect("checkpointed run");
        let mut shards = Vec::new();
        checkpoint::tail(&dir, &campaign.fingerprint(&c), |_, rec| {
            shards.push(rec);
            Ok(())
        })
        .expect("journal replays");
        shards.sort_by_key(|s| s.job);
        assert!(shards.len() >= 4, "scenario too small to shuffle");
        assert_keys_shard_unique(&shards);
        let full = DatasetView::new(run.into_dataset());
        Scenario { shards, full }
    })
}

/// The simulator guarantee that makes ingest order irrelevant: no
/// canonical sort key appears in two different shards.
fn assert_keys_shard_unique(shards: &[ShardRecords]) {
    let mut tput = BTreeSet::new();
    let mut rtt = BTreeSet::new();
    let mut cov = BTreeSet::new();
    let mut ho = BTreeSet::new();
    let mut tests = BTreeSet::new();
    for s in shards {
        let ds = &s.dataset;
        for x in &ds.tput {
            assert!(
                tput.insert((x.t.as_millis(), x.test_id)),
                "duplicate tput key across shards"
            );
        }
        for x in &ds.rtt {
            assert!(
                rtt.insert((x.t.as_millis(), x.test_id)),
                "duplicate rtt key across shards"
            );
        }
        for x in &ds.coverage {
            assert!(
                cov.insert((x.t.as_millis(), x.operator.index())),
                "duplicate coverage key across shards"
            );
        }
        for x in &ds.handovers {
            assert!(
                ho.insert((
                    x.event.start.as_millis(),
                    x.operator.index(),
                    x.event.to_cell
                )),
                "duplicate handover key across shards"
            );
        }
        for r in &ds.runs {
            assert!(tests.insert(r.id), "test id split across shards");
        }
    }
}

/// splitmix64 step for the deterministic Fisher–Yates shuffle.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn shuffle(order: &mut [usize], seed: u64) {
    let mut s = seed;
    for i in (1..order.len()).rev() {
        let j = (next(&mut s) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
}

fn op_filters() -> Vec<Option<Operator>> {
    std::iter::once(None)
        .chain(Operator::ALL.into_iter().map(Some))
        .collect()
}

fn dir_filters() -> Vec<Option<Direction>> {
    std::iter::once(None)
        .chain(Direction::ALL.into_iter().map(Some))
        .collect()
}

/// Every public query surface of the two views must agree.
fn assert_views_match(got: &DatasetView, want: &DatasetView) {
    const DRV: [Option<bool>; 3] = [None, Some(false), Some(true)];
    for &op in &op_filters() {
        for &drv in &DRV {
            for &dir in &dir_filters() {
                let g: Vec<TputSample> = got.tput_iter(op, dir, drv).cloned().collect();
                let w: Vec<TputSample> = want.tput_iter(op, dir, drv).cloned().collect();
                assert_eq!(g, w, "tput_iter({op:?},{dir:?},{drv:?})");
                let (gc, wc) = (got.tput_cdf(op, dir, drv), want.tput_cdf(op, dir, drv));
                assert_eq!(gc, wc, "tput_cdf({op:?},{dir:?},{drv:?})");
                for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
                    assert_eq!(gc.quantile(q), wc.quantile(q), "tput quantile {q}");
                }
            }
            let g: Vec<RttSample> = got.rtt_iter(op, drv).cloned().collect();
            let w: Vec<RttSample> = want.rtt_iter(op, drv).cloned().collect();
            assert_eq!(g, w, "rtt_iter({op:?},{drv:?})");
            let (gc, wc) = (got.rtt_cdf(op, drv), want.rtt_cdf(op, drv));
            assert_eq!(gc, wc, "rtt_cdf({op:?},{drv:?})");
            for q in [0.1, 0.5, 0.9, 0.99] {
                assert_eq!(gc.quantile(q), wc.quantile(q), "rtt quantile {q}");
            }
        }
    }

    for op in Operator::ALL {
        for dir in Direction::ALL {
            for drv in [false, true] {
                for tech in Technology::ALL {
                    let g: Vec<TputSample> = got.tput_tech(op, dir, drv, tech).cloned().collect();
                    let w: Vec<TputSample> = want.tput_tech(op, dir, drv, tech).cloned().collect();
                    assert_eq!(g, w, "tput_tech({op:?},{dir:?},{drv},{tech:?})");
                    for bin in SpeedBin::ALL {
                        let g: Vec<TputSample> = got
                            .tput_bin_tech(op, dir, drv, bin, tech)
                            .cloned()
                            .collect();
                        let w: Vec<TputSample> = want
                            .tput_bin_tech(op, dir, drv, bin, tech)
                            .cloned()
                            .collect();
                        assert_eq!(g, w, "tput_bin_tech({op:?},{dir:?},{drv},{bin:?},{tech:?})");
                    }
                }
                for tz in Timezone::ALL {
                    let g: Vec<TputSample> = got.tput_tz(op, dir, drv, tz).cloned().collect();
                    let w: Vec<TputSample> = want.tput_tz(op, dir, drv, tz).cloned().collect();
                    assert_eq!(g, w, "tput_tz({op:?},{dir:?},{drv},{tz:?})");
                }
                let g =
                    serde_json::to_string(&got.tput_correlation(op, dir, drv)).expect("serializes");
                let w = serde_json::to_string(&want.tput_correlation(op, dir, drv))
                    .expect("serializes");
                assert_eq!(g, w, "tput_correlation({op:?},{dir:?},{drv})");
            }
        }
        for drv in [false, true] {
            for tech in Technology::ALL {
                let g: Vec<RttSample> = got.rtt_tech(op, drv, tech).cloned().collect();
                let w: Vec<RttSample> = want.rtt_tech(op, drv, tech).cloned().collect();
                assert_eq!(g, w, "rtt_tech({op:?},{drv},{tech:?})");
                for bin in SpeedBin::ALL {
                    let g: Vec<RttSample> = got.rtt_bin_tech(op, drv, bin, tech).cloned().collect();
                    let w: Vec<RttSample> =
                        want.rtt_bin_tech(op, drv, bin, tech).cloned().collect();
                    assert_eq!(g, w, "rtt_bin_tech({op:?},{drv},{bin:?},{tech:?})");
                }
            }
        }
        let g: Vec<_> = got.coverage_for(op).cloned().collect();
        let w: Vec<_> = want.coverage_for(op).cloned().collect();
        assert_eq!(g, w, "coverage_for({op:?})");
    }

    let g: Vec<(u32, Vec<TputSample>)> = got
        .tput_tests(None, None, None)
        .map(|(id, it)| (id, it.cloned().collect()))
        .collect();
    let w: Vec<(u32, Vec<TputSample>)> = want
        .tput_tests(None, None, None)
        .map(|(id, it)| (id, it.cloned().collect()))
        .collect();
    assert_eq!(g, w, "tput_tests");
    let g: Vec<(u32, Vec<RttSample>)> = got
        .rtt_tests(None, None)
        .map(|(id, it)| (id, it.cloned().collect()))
        .collect();
    let w: Vec<(u32, Vec<RttSample>)> = want
        .rtt_tests(None, None)
        .map(|(id, it)| (id, it.cloned().collect()))
        .collect();
    assert_eq!(g, w, "rtt_tests");

    assert_eq!(got.impacts(), want.impacts(), "handover impacts");

    // Small tables are physically canonical on both sides.
    assert_eq!(got.dataset().runs, want.dataset().runs, "runs table");
    assert_eq!(
        got.dataset().handovers,
        want.dataset().handovers,
        "handovers table"
    );
    assert_eq!(got.dataset().apps, want.dataset().apps, "apps table");
    assert_eq!(got.dataset().audits, want.dataset().audits, "audits table");

    // Table 1 accounting: cell counts and runtimes are integer-derived,
    // and the f64 byte totals are summed in job order whatever the
    // arrival order, so all of it matches exactly.
    assert_eq!(
        got.dataset().unique_cells,
        want.dataset().unique_cells,
        "unique cells"
    );
    assert_eq!(
        got.dataset().runtime_min,
        want.dataset().runtime_min,
        "runtime minutes"
    );
    assert_eq!(
        table1_bytes(got.dataset()),
        table1_bytes(want.dataset()),
        "Table 1 byte totals"
    );
}

/// The bits of a dataset's `[rx_bytes, tx_bytes, log_bytes]`.
fn table1_bytes(ds: &Dataset) -> [u64; 3] {
    [ds.rx_bytes, ds.tx_bytes, ds.log_bytes].map(f64::to_bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any shard arrival order, faults off or on: the incrementally
    /// ingested view answers every query identically to the full
    /// rebuild, and surrendering the dataset restores the canonical
    /// tables bit-for-bit.
    #[test]
    fn shuffled_ingest_matches_full_rebuild(order_seed in any::<u64>(), faulted in any::<bool>()) {
        let sc = scenario(faulted);
        let mut order: Vec<usize> = (0..sc.shards.len()).collect();
        shuffle(&mut order, order_seed);

        let mut view = DatasetView::new(Dataset::default());
        for &i in &order {
            view.ingest_shard(sc.shards[i].clone());
        }
        assert_views_match(&view, &sc.full);

        let exported = view.into_dataset();
        let want = sc.full.dataset();
        prop_assert_eq!(&exported.tput, &want.tput);
        prop_assert_eq!(&exported.rtt, &want.rtt);
        prop_assert_eq!(&exported.coverage, &want.coverage);
        prop_assert_eq!(&exported.runs, &want.runs);
        prop_assert_eq!(&exported.handovers, &want.handovers);
        prop_assert_eq!(&exported.apps, &want.apps);
        prop_assert_eq!(&exported.audits, &want.audits);
        prop_assert_eq!(&exported.unique_cells, &want.unique_cells);
        prop_assert_eq!(&exported.runtime_min, &want.runtime_min);
        prop_assert_eq!(exported.rx_bytes.to_bits(), want.rx_bytes.to_bits());
        prop_assert_eq!(exported.tx_bytes.to_bits(), want.tx_bytes.to_bits());
        prop_assert_eq!(exported.log_bytes.to_bits(), want.log_bytes.to_bits());
    }
}
