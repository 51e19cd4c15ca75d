//! Serve smoke: start a server on a finished quick-scale journal, run
//! scripted queries over TCP, and diff every answer against the pure
//! offline path (`DatasetView::from_journal` + `query::respond`). This
//! is the byte-identity invariant end-to-end, plus clean shutdown — the
//! same script the CI serve-smoke job runs.

mod util;

use std::time::Duration;

use wheels_core::analysis::view::DatasetView;
use wheels_core::campaign::Campaign;
use wheels_core::checkpoint::Journal;
use wheels_core::records::Dataset;
use wheels_experiments::world::{Scale, World};
use wheels_serve::protocol::parse_request;
use wheels_serve::query;
use wheels_serve::server::{self, JournalSpec, ServeOptions};

/// Deterministic requests mirrored against the offline world. Includes
/// figure queries — the quick journal reproduces the full quick world,
/// so every registered experiment is fair game.
const SCRIPT: &[&str] = &[
    r#"{"cmd":"quantile","table":"tput","q":0.5}"#,
    r#"{"cmd":"quantile","table":"tput","op":"verizon","dir":"dl","driving":true,"q":0.9}"#,
    r#"{"cmd":"quantile","table":"tput","op":"tmobile","dir":"ul","q":0.25}"#,
    r#"{"cmd":"quantile","table":"rtt","op":"att","driving":true,"q":0.5}"#,
    r#"{"cmd":"cdf","table":"tput","op":"verizon","dir":"dl","driving":true,"points":11}"#,
    r#"{"cmd":"cdf","table":"rtt","points":5}"#,
    r#"{"cmd":"table1"}"#,
    r#"{"cmd":"figure","id":"table1"}"#,
    r#"{"cmd":"figure","id":"fig3"}"#,
    r#"{"cmd":"quantile","table":"rtt","dir":"dl","q":0.5}"#,
    r#"{"cmd":"nope"}"#,
];

#[test]
fn served_answers_match_offline_view_and_shutdown_is_clean() {
    let dir = util::tmpdir("smoke");
    let campaign = Campaign::standard(2022);
    let mut cfg = Scale::Quick.config();
    cfg.seed = 2022;
    cfg.threads = Some(2);
    campaign
        .run_checkpointed(&cfg, &dir, false)
        .expect("quick checkpoint campaign");
    let fp = campaign.fingerprint(&cfg);
    let journal_len = std::fs::metadata(Journal::file_path(&dir)).unwrap().len();

    let base = World::from_view(Scale::Quick, 2022, DatasetView::new(Dataset::default()));
    let handle = server::start(
        base,
        JournalSpec {
            dir: dir.clone(),
            fingerprint: fp.clone(),
        },
        "127.0.0.1:0",
        ServeOptions {
            workers: 2,
            poll_ms: 10,
            io_timeout_ms: 60_000,
            max_inflight: 8,
            ..ServeOptions::default()
        },
    )
    .expect("server starts");
    util::wait_for_shards(&handle, fp.jobs, journal_len, Duration::from_secs(120));
    assert_eq!(
        handle.journal_offset(),
        Some(journal_len),
        "resume cursor must sit at the journal's end after catch-up"
    );

    // The offline twin: same journal prefix, same pure query function.
    let (view, state) = DatasetView::from_journal(&dir, &fp).expect("offline replay");
    assert_eq!(state.next_offset, journal_len);
    let offline = World::from_view(Scale::Quick, 2022, view);

    let served = util::tcp_session(handle.addr(), SCRIPT);
    for (req, got) in SCRIPT.iter().zip(&served) {
        let expect = match parse_request(req) {
            Ok(parsed) => query::respond(&offline, &parsed),
            Err(msg) => wheels_serve::protocol::error_line(&msg),
        };
        assert_eq!(got, &expect, "served bytes diverge for {req}");
    }

    // Status is live (not part of the identity contract) but must be
    // coherent with what we just verified.
    let status = util::tcp_session(handle.addr(), &[r#"{"cmd":"status"}"#]);
    let line = &status[0];
    assert!(line.contains(r#""ok":true"#), "{line}");
    assert!(line.contains(r#""attached":true"#), "{line}");
    assert!(line.contains(&format!(r#""shards":{}"#, fp.jobs)), "{line}");
    assert!(
        line.contains(&format!(r#""journal_offset":{journal_len}"#)),
        "{line}"
    );

    // Command-initiated graceful shutdown: ack first, then drain.
    let ack = util::tcp_session(handle.addr(), &[r#"{"cmd":"shutdown"}"#]);
    assert!(ack[0].contains(r#""cmd":"shutdown""#), "{}", ack[0]);
    let dump = handle.shutdown().expect("clean shutdown");
    assert!(dump.contains(r#""event":"shutdown""#), "{dump}");
    assert!(dump.contains(r#""requests""#), "{dump}");
}

#[test]
fn connections_beyond_the_inflight_cap_are_shed_with_busy() {
    let dir = util::tmpdir("busy");
    let campaign = Campaign::standard(2022);
    let mut cfg = Scale::Quick.config();
    cfg.seed = 2022;
    let fp = campaign.fingerprint(&cfg);
    // No journal needed: shedding happens at accept time.
    let base = World::from_view(Scale::Quick, 2022, DatasetView::new(Dataset::default()));
    let handle = server::start(
        base,
        JournalSpec {
            dir,
            fingerprint: fp,
        },
        "127.0.0.1:0",
        ServeOptions {
            workers: 1,
            poll_ms: 50,
            io_timeout_ms: 10_000,
            // Cap of zero: every connection is load-shed — the
            // deterministic way to exercise the busy path end-to-end.
            max_inflight: 0,
            ..ServeOptions::default()
        },
    )
    .expect("server starts");
    let responses = util::tcp_session(handle.addr(), &[r#"{"cmd":"status"}"#]);
    assert!(
        responses[0].contains(r#""busy":true"#),
        "expected a busy line, got {}",
        responses[0]
    );
    handle.shutdown().expect("clean shutdown");
}
