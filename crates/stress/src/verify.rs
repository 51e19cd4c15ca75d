//! The continuously-checked invariants.
//!
//! Each check is a pure function from observable state (journal bytes,
//! TCP answers, dataset files) to pass/fail-with-reason; the harness
//! runs them at quiesce points — after a kill, when the journal is
//! static — so no check ever races an append. The four invariants
//! correspond one-to-one with the contracts the unit/integration suite
//! pins once; here they are re-checked after every induced failure.

use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use wheels_core::analysis::view::DatasetView;
use wheels_core::checkpoint::{self, Fingerprint};
use wheels_core::records::Dataset;
use wheels_experiments::world::{Scale, World};
use wheels_serve::protocol::parse_request;
use wheels_serve::query;
use wheels_serve::server::ServerHandle;

/// The deterministic verification script: every answer is a pure
/// function of the ingested prefix, so served bytes must equal the
/// offline replay byte for byte.
pub const VERIFY_SCRIPT: &[&str] = &[
    r#"{"cmd":"quantile","table":"tput","q":0.5}"#,
    r#"{"cmd":"quantile","table":"tput","op":"verizon","dir":"dl","driving":true,"q":0.9}"#,
    r#"{"cmd":"quantile","table":"rtt","op":"tmobile","q":0.25}"#,
    r#"{"cmd":"cdf","table":"tput","op":"att","dir":"ul","points":7}"#,
    r#"{"cmd":"cdf","table":"rtt","driving":true,"points":5}"#,
    r#"{"cmd":"table1"}"#,
];

/// Invariant 1 — the journal's intact prefix replays. Returns the
/// replayed view plus (delivered frames, intact-prefix end offset).
pub fn replay_prefix(dir: &Path, fp: &Fingerprint) -> Result<(DatasetView, usize, u64), String> {
    let (view, state) = DatasetView::from_journal(dir, fp)
        .map_err(|e| format!("journal prefix failed to replay: {e}"))?;
    Ok((view, state.delivered(), state.next_offset))
}

/// Block until the live tailer's resume cursor reaches `target` bytes
/// (the intact-prefix end — never the raw file length, which may
/// include a torn tail the server rightly refuses to consume).
pub fn await_catch_up(handle: &ServerHandle, target: u64, timeout: Duration) -> Result<(), String> {
    let t0 = Instant::now();
    while handle.journal_offset() != Some(target) {
        if t0.elapsed() > timeout {
            return Err(format!(
                "server cursor {:?} never reached the intact prefix end {target} within {timeout:?}",
                handle.journal_offset()
            ));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    Ok(())
}

/// Invariant 2 — served identity: every scripted answer over TCP equals
/// the offline replay of the same prefix, byte for byte.
pub fn served_matches_offline(
    addr: SocketAddr,
    seed: u64,
    view: DatasetView,
) -> Result<u64, String> {
    let offline = World::from_view(Scale::Quick, seed, view);
    let served = tcp_script(addr, VERIFY_SCRIPT)?;
    let mut checked = 0u64;
    for (req, got) in VERIFY_SCRIPT.iter().zip(&served) {
        let parsed = parse_request(req).map_err(|e| format!("script request {req:?}: {e}"))?;
        let expect = query::respond(&offline, &parsed);
        if *got != expect {
            return Err(format!(
                "served bytes diverge from offline replay for {req}\n  served:  {got}\n  offline: {expect}"
            ));
        }
        checked += 1;
    }
    Ok(checked)
}

/// Invariant 3 — resume identity: the dataset a resumed child published
/// is byte-identical to the undisturbed reference serialization.
pub fn final_matches_reference(out: &Path, reference_json: &str) -> Result<(), String> {
    let got = std::fs::read_to_string(out)
        .map_err(|e| format!("cannot read final dataset {}: {e}", out.display()))?;
    if got != reference_json {
        return Err(format!(
            "final dataset diverges from the undisturbed reference run \
             ({} bytes vs {} bytes)",
            got.len(),
            reference_json.len()
        ));
    }
    Ok(())
}

/// Invariant 4 — audit conservation: every ledger row balances
/// (`recorded + lost == planned`), so no sample is double-counted or
/// silently dropped across kills and resumes.
pub fn ledger_conserves(ds: &Dataset) -> Result<(), String> {
    for a in &ds.audits {
        if a.recorded_samples + a.lost_samples != a.planned_samples {
            return Err(format!(
                "audit row for test {} violates conservation: {} recorded + {} lost != {} planned",
                a.test_id, a.recorded_samples, a.lost_samples, a.planned_samples
            ));
        }
    }
    Ok(())
}

/// Count of intact shard frames currently in the journal (excludes the
/// identity header).
pub fn shard_frames(dir: &Path) -> usize {
    checkpoint::frame_ends(dir)
        .map(|ends| ends.len().saturating_sub(1))
        .unwrap_or(0)
}

/// End offset of the journal's intact prefix, if a journal exists.
pub fn intact_end(dir: &Path) -> Option<u64> {
    checkpoint::frame_ends(dir)
        .ok()
        .and_then(|ends| ends.last().copied())
}

/// One scripted TCP session: send each request, collect each response
/// line (newline stripped).
fn tcp_script(addr: SocketAddr, script: &[&str]) -> Result<Vec<String>, String> {
    use std::io::{BufRead, BufReader, Write};
    let sock = std::net::TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    sock.set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| format!("socket setup: {e}"))?;
    sock.set_write_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| format!("socket setup: {e}"))?;
    sock.set_nodelay(true)
        .map_err(|e| format!("socket setup: {e}"))?;
    let mut writer = sock.try_clone().map_err(|e| format!("socket clone: {e}"))?;
    let mut reader = BufReader::new(sock);
    let mut out = Vec::with_capacity(script.len());
    for req in script {
        writer
            .write_all(format!("{req}\n").as_bytes())
            .and_then(|()| writer.flush())
            .map_err(|e| format!("send {req:?}: {e}"))?;
        let mut line = String::new();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("read response to {req:?}: {e}"))?;
        if n == 0 {
            return Err(format!("server closed before answering {req:?}"));
        }
        out.push(line.trim_end_matches('\n').to_string());
    }
    Ok(out)
}
