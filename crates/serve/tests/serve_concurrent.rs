//! Concurrent writer/reader journal matrix: a checkpointed campaign
//! runs in one thread while the server's tail loop ingests in another,
//! at {1,4} campaign threads × {off,demo} faults. The server attaches
//! *before* the journal exists, so the test also covers the
//! wait-for-writer path, torn-frame polls (the tailer races live
//! appends), and the final byte-identity check against an offline
//! `DatasetView::from_journal` of the finished journal.

mod util;

use std::time::Duration;

use wheels_core::analysis::view::DatasetView;
use wheels_core::campaign::{Campaign, CampaignConfig};
use wheels_core::checkpoint::Journal;
use wheels_core::disrupt::FaultConfig;
use wheels_core::records::Dataset;
use wheels_experiments::world::{Scale, World};
use wheels_serve::protocol::parse_request;
use wheels_serve::query;
use wheels_serve::server::{self, JournalSpec, ServeOptions};

/// The crash-matrix mini campaign: 3 cycles split one per shard across
/// 3 operators = 9 frames, small enough to run the 4-way matrix.
fn cfg(faults: FaultConfig, threads: Option<usize>) -> CampaignConfig {
    CampaignConfig {
        seed: 42,
        max_cycles: Some(3),
        include_apps: false,
        include_static: false,
        cycle_stride_s: 40_000,
        shard_cycles: Some(1),
        threads,
        faults,
    }
}

/// Deterministic queries only (no figures — the mini campaign is not
/// the quick world, and the identity contract is about the view).
const SCRIPT: &[&str] = &[
    r#"{"cmd":"quantile","table":"tput","q":0.5}"#,
    r#"{"cmd":"quantile","table":"tput","op":"verizon","dir":"dl","driving":true,"q":0.9}"#,
    r#"{"cmd":"quantile","table":"rtt","op":"tmobile","q":0.25}"#,
    r#"{"cmd":"cdf","table":"tput","op":"att","dir":"ul","points":7}"#,
    r#"{"cmd":"cdf","table":"rtt","driving":true,"points":5}"#,
    r#"{"cmd":"table1"}"#,
];

#[test]
fn live_tail_matches_offline_replay_across_threads_and_faults() {
    for threads in [1usize, 4] {
        for faults in [FaultConfig::default(), FaultConfig::demo()] {
            let name = format!("concurrent_t{}_f{}", threads, faults.enabled);
            let dir = util::tmpdir(&name);
            let c = cfg(faults, Some(threads));
            let fp = Campaign::standard(42).fingerprint(&c);

            // Server first: the journal does not exist yet, so the
            // ingest thread starts in its wait-for-writer loop and then
            // races the live appends frame by frame.
            let base = World::from_view(Scale::Quick, 42, DatasetView::new(Dataset::default()));
            let handle = server::start(
                base,
                JournalSpec {
                    dir: dir.clone(),
                    fingerprint: fp.clone(),
                },
                "127.0.0.1:0",
                ServeOptions {
                    workers: 2,
                    poll_ms: 1,
                    io_timeout_ms: 60_000,
                    max_inflight: 8,
                    ..ServeOptions::default()
                },
            )
            .expect("server starts");

            let writer_dir = dir.clone();
            let writer_cfg = c.clone();
            let writer = std::thread::spawn(move || {
                Campaign::standard(42)
                    .run_checkpointed(&writer_cfg, &writer_dir, false)
                    .expect("checkpointed campaign")
                    .into_dataset()
            });
            let dataset = writer.join().expect("writer thread");
            assert!(!dataset.tput.is_empty());

            let journal_len = std::fs::metadata(Journal::file_path(&dir)).unwrap().len();
            util::wait_for_shards(&handle, fp.jobs, journal_len, Duration::from_secs(120));
            assert_eq!(
                handle.journal_offset(),
                Some(journal_len),
                "{name}: tail cursor must reach the journal's end"
            );

            let (view, state) = DatasetView::from_journal(&dir, &fp).expect("offline replay");
            assert_eq!(state.delivered(), fp.jobs, "{name}");
            let offline = World::from_view(Scale::Quick, 42, view);

            let served = util::tcp_session(handle.addr(), SCRIPT);
            for (req, got) in SCRIPT.iter().zip(&served) {
                let expect = query::respond(&offline, &parse_request(req).expect("script parses"));
                assert_eq!(got, &expect, "{name}: served bytes diverge for {req}");
            }

            handle.shutdown().unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }
}
