//! Reproducibility: the same seed regenerates the same dataset
//! bit-for-bit — at any thread count and any shard-merge order; a
//! different seed produces a different one. This is the workspace's
//! substitute for the paper's published dataset.

use wheels::core::campaign::{Campaign, CampaignConfig};
use wheels::core::records::Dataset;

fn cfg(seed: u64) -> CampaignConfig {
    CampaignConfig {
        max_cycles: Some(2),
        cycle_stride_s: 40_000,
        include_static: false,
        seed,
        ..CampaignConfig::default()
    }
}

/// Full structural equality via the serialized form (every table, every
/// field).
fn assert_datasets_identical(a: &Dataset, b: &Dataset, what: &str) {
    let ja = serde_json::to_string(a).unwrap();
    let jb = serde_json::to_string(b).unwrap();
    assert_eq!(ja, jb, "{what}: datasets differ");
}

#[test]
fn same_seed_identical_dataset() {
    let c = Campaign::standard(42);
    let a = c.run(&cfg(42));
    let b = c.run(&cfg(42));
    // Shards merge in any order into a normalized dataset, so the whole
    // serialized dataset must match — not just per-operator slices.
    assert_datasets_identical(&a, &b, "same seed, same thread count");
}

#[test]
fn thread_count_does_not_change_results() {
    // The shard plan is a function of the config only; the worker count
    // decides who runs what, never what runs. 1 thread vs 4 threads (on
    // however many cores the host has) must be bit-identical.
    let c = Campaign::standard(42);
    let mut one = cfg(42);
    one.threads = Some(1);
    let mut four = cfg(42);
    four.threads = Some(4);
    let a = c.run(&one);
    let b = c.run(&four);
    assert_datasets_identical(&a, &b, "threads=1 vs threads=4");
}

#[test]
fn sub_day_sharding_single_thread_matches_parallel() {
    use wheels::core::disrupt::FaultConfig;

    // Sub-day splits multiply the shard count; scheduling still must not
    // leak into the output (the RNG stream layout is config-keyed, so
    // shard_cycles itself legitimately changes results — but threads at a
    // fixed shard_cycles must not), with faults off or on.
    let c = Campaign::standard(7);
    for faults in [FaultConfig::default(), FaultConfig::demo()] {
        let mut base = cfg(7);
        base.max_cycles = Some(4);
        base.shard_cycles = Some(1);
        base.faults = faults;
        let mut one = base.clone();
        one.threads = Some(1);
        let mut many = base;
        many.threads = Some(8);
        assert_datasets_identical(
            &c.run(&one),
            &c.run(&many),
            &format!("shard_cycles=1, threads=1 vs 8, faults={}", faults.enabled),
        );
    }
}

#[test]
fn merge_is_order_independent_after_normalize() {
    // Split the campaign into per-operator datasets, merge them in every
    // rotation, and normalize: all orders must converge to the same
    // serialized dataset.
    let c = Campaign::standard(11);
    let conf = cfg(11);
    let parts: Vec<Dataset> = wheels::ran::operator::Operator::ALL
        .into_iter()
        .map(|op| c.run_operator(op, &conf))
        .collect();
    let merged = |order: &[usize]| -> Dataset {
        let mut out = Dataset::default();
        for &i in order {
            out.merge(parts[i].clone());
        }
        out.normalize();
        // f64 accumulation is order-sensitive in the last ulp; the byte
        // totals are already covered by the fixed-order same-seed test.
        out.rx_bytes = 0.0;
        out.tx_bytes = 0.0;
        out.log_bytes = 0.0;
        out
    };
    let a = merged(&[0, 1, 2]);
    let b = merged(&[2, 0, 1]);
    let d = merged(&[1, 2, 0]);
    assert_datasets_identical(&a, &b, "merge order 012 vs 201");
    assert_datasets_identical(&a, &d, "merge order 012 vs 120");
}

/// Index and both values of the first element where two slices differ.
fn first_difference<'a, T: PartialEq>(a: &'a [T], b: &'a [T]) -> Option<(usize, &'a T, &'a T)> {
    a.iter()
        .zip(b)
        .enumerate()
        .find(|(_, (x, y))| x != y)
        .map(|(i, (x, y))| (i, x, y))
}

#[test]
fn world_build_is_deterministic() {
    // `Campaign::standard` generates the deployments on a second thread
    // while it generates the trace. It must equal a sequential build from
    // the same labelled streams, sample for sample and cell for cell.
    use wheels::geo::route::Route;
    use wheels::geo::trace::DrivePlan;
    use wheels::ran::cells::Deployment;
    use wheels::ran::operator::Operator;
    use wheels::sim_core::rng::SimRng;

    let seed = 9;
    let built = Campaign::standard(seed);
    let route = Route::standard();
    let rng = SimRng::seed(seed);
    let trace = DrivePlan::default().generate(&route, &mut rng.split("campaign/drive-plan"));
    assert_eq!(built.trace.samples().len(), trace.samples().len());
    if let Some((i, got, want)) = first_difference(built.trace.samples(), trace.samples()) {
        panic!("trace sample {i} differs: {got:?} vs {want:?}");
    }
    assert_eq!(built.deployments.len(), Operator::ALL.len());
    for (got, op) in built.deployments.iter().zip(Operator::ALL) {
        let want = Deployment::generate(&route, op, &mut rng.split(op.label()));
        assert_eq!(got.operator, want.operator);
        assert_eq!(got.cells().len(), want.cells().len(), "{op:?} cell count");
        if let Some((i, g, w)) = first_difference(got.cells(), want.cells()) {
            panic!("{op:?} cell {i} differs: {g:?} vs {w:?}");
        }
    }
}

#[test]
fn repro_report_identical_across_thread_counts() {
    // The repro runner executes experiments on a worker pool but buffers
    // per-experiment output and prints in registry order, so the report
    // bytes must not depend on the thread count.
    use wheels::experiments::{registry, render_report, world::World};
    let w = World::quick();
    let reg = registry();
    let one = render_report(w, &reg, Some(1));
    let two = render_report(w, &reg, Some(2));
    let eight = render_report(w, &reg, Some(8));
    assert!(one.contains("Findings digest"), "report looks truncated");
    assert_eq!(one, two, "report bytes differ between threads=1 and 2");
    assert_eq!(one, eight, "report bytes differ between threads=1 and 8");
    // The exact bytes `repro --quick` prints (sha256 442c31f7…).
    assert_eq!(
        fnv1a64(one.as_bytes()),
        0xd3c7_8b41_d2e3_3180,
        "the Quick report drifted"
    );
}

/// `repro_full.txt` is what `repro --full` prints (sha256 9b023a70…):
/// the paper's continuous protocol, checked in as the record of how the
/// generated dataset compares with the paper's measurements. ~7 s to
/// build in release and far longer in debug, so ignored by default; CI
/// runs it in release with `-- --ignored`.
#[test]
#[ignore = "full-scale campaign; run explicitly (CI does)"]
fn full_report_matches_checked_in_file() {
    use wheels::experiments::world::{Scale, World};
    use wheels::experiments::{registry, render_report};
    let report = render_report(&World::build(Scale::Full), &registry(), None);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/repro_full.txt");
    let want = std::fs::read_to_string(path).expect("repro_full.txt is checked in");
    if let Some((n, (got, want))) = report
        .lines()
        .zip(want.lines())
        .enumerate()
        .find(|(_, (a, b))| a != b)
    {
        panic!(
            "repro_full.txt line {}: file has {want:?}, report has {got:?}",
            n + 1
        );
    }
    assert!(
        report == want,
        "repro_full.txt differs in its line count or line endings"
    );
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn different_seed_differs() {
    let c1 = Campaign::standard(1);
    let c2 = Campaign::standard(2);
    // Different seeds produce different deployments and traces.
    let n1: usize = c1.deployments.iter().map(|d| d.cells().len()).sum();
    let n2: usize = c2.deployments.iter().map(|d| d.cells().len()).sum();
    let first_differs = c1.deployments[0].cells().first().map(|c| c.odo.as_m())
        != c2.deployments[0].cells().first().map(|c| c.odo.as_m());
    assert!(
        n1 != n2 || first_differs,
        "seeds 1 and 2 built identical worlds"
    );
}

#[test]
fn fault_injection_is_thread_invariant_and_off_by_default() {
    use wheels::core::disrupt::FaultConfig;

    // Fault schedules are keyed by (seed, operator, segment) — never by
    // which worker runs the shard — so a fixed fault config must be
    // bit-identical across thread counts too.
    let c = Campaign::standard(42);
    let faulted = |threads: usize| -> Dataset {
        let mut conf = cfg(42);
        conf.max_cycles = Some(4);
        conf.faults = FaultConfig::demo();
        conf.faults.outages_per_hour = 6.0;
        conf.faults.gaps_per_hour = 6.0;
        conf.threads = Some(threads);
        c.run(&conf)
    };
    let a = faulted(1);
    let b = faulted(2);
    let e = faulted(8);
    assert!(
        a.audits.iter().any(|x| x.fault.is_some()),
        "fault config never fired"
    );
    assert_datasets_identical(&a, &b, "faults on, threads=1 vs 2");
    assert_datasets_identical(&a, &e, "faults on, threads=1 vs 8");

    // And the default (disabled) config changes nothing: an explicit
    // all-off FaultConfig is the same dataset as the seed config.
    let base = c.run(&cfg(42));
    let mut off = cfg(42);
    off.faults = FaultConfig::default();
    assert_datasets_identical(&base, &c.run(&off), "faults off vs default");
}
