//! Pins the WCD1 binary export: its exact bytes (an FNV-1a-64 per
//! scale), which must decode back to the identical normalized dataset,
//! auto-detect correctly through [`wheels_core::column::load_dataset`],
//! and leave the JSON interchange untouched — serializing the loaded
//! copy reproduces the exact JSON the row tables would have produced. A
//! world rebuilt the way `repro --load` rebuilds it (`load_dataset` →
//! `World::from_dataset`) must also drive the analysis kernels to the
//! same memoized results as the simulated one, so `repro --load` cannot
//! drift from `repro`.

use wheels_core::analysis::view::DatasetView;
use wheels_core::campaign::{Campaign, CampaignConfig};
use wheels_core::column::{self, wcd};
use wheels_core::disrupt::FaultConfig;
use wheels_experiments::world::{Scale, World};
use wheels_ran::operator::Operator;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Full round-trip at one campaign config: rows → WCD1 bytes → rows,
/// checked against the normalized source dataset, with the export's
/// bytes pinned by their FNV-1a-64 (`pin`).
fn roundtrip(cfg: &CampaignConfig, pin: u64) {
    let campaign = Campaign::standard(cfg.seed);
    let ds = campaign.run(cfg);
    assert!(!ds.tput.is_empty(), "tput table empty");
    assert!(!ds.apps.is_empty(), "apps table empty");
    assert!(!ds.audits.is_empty(), "audit ledger empty");

    // The export path: the view normalizes the tables and
    // `dataset --format bin` encodes its dataset.
    let view = DatasetView::new(ds);
    let bytes = wcd::encode(view.dataset());
    assert_eq!(&bytes[..4], wcd::MAGIC);
    assert_eq!(fnv1a64(&bytes), pin, "WCD1 export bytes drifted");

    // `repro --load` path: auto-detect, load, compare tables.
    let (loaded, fmt) = column::load_dataset(&bytes).expect("binary export loads");
    assert_eq!(fmt, "bin");
    assert_eq!(&loaded, view.dataset(), "binary round-trip changed a table");

    // JSON stays the interchange format: the loaded copy serializes to
    // the exact bytes the row tables produce.
    let json_rows = serde_json::to_string(view.dataset()).expect("rows serialize");
    assert!(
        json_rows.len() > 4 * bytes.len(),
        "WCD1 is no longer ~4× smaller than JSON: {} vs {} bytes",
        bytes.len(),
        json_rows.len()
    );
    let json_loaded = serde_json::to_string(&loaded).expect("loaded dataset serializes");
    assert_eq!(
        json_loaded, json_rows,
        "binary round-trip perturbed the JSON export"
    );

    // The loaded world answers like the original.
    let world = World::from_dataset(Scale::Quick, cfg.seed, loaded);
    let v2 = world.view();
    assert_eq!(
        v2.tput_cdf(None, None, None),
        view.tput_cdf(None, None, None),
        "tput CDF drifted through the binary format"
    );
    assert_eq!(
        v2.rtt_cdf(None, None),
        view.rtt_cdf(None, None),
        "rtt CDF drifted through the binary format"
    );
    for op in Operator::ALL {
        assert_eq!(
            v2.coverage_share(op).pct_5g(),
            view.coverage_share(op).pct_5g(),
            "coverage share drifted for {op:?}"
        );
    }
}

/// Quick scale (the dataset_roundtrip fixture config): every table
/// populated, fast enough for tier 1.
#[test]
fn binary_export_roundtrips_at_quick_scale() {
    roundtrip(
        &CampaignConfig {
            seed: 11,
            max_cycles: Some(2),
            include_apps: true,
            include_static: false,
            cycle_stride_s: 40_000,
            faults: FaultConfig::demo(),
            ..CampaignConfig::default()
        },
        0x0ab9_936b_9dc5_7b0b,
    );
}

/// Standard scale (the default `repro` world). Minutes in debug builds,
/// so ignored by default; CI runs it explicitly with `-- --ignored`.
#[test]
#[ignore = "standard-scale campaign; run explicitly (CI does)"]
fn binary_export_roundtrips_at_standard_scale() {
    roundtrip(
        &CampaignConfig {
            seed: 2022,
            include_apps: true,
            cycle_stride_s: 800,
            ..CampaignConfig::default()
        },
        0x4f88_beb0_70da_7738,
    );
}
