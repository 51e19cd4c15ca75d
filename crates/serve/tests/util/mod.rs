//! Shared harness for the serve integration tests: tmp dirs, a tiny
//! scripted TCP client, and ingest-completion waits.

// Each integration test binary compiles its own copy of this module and
// uses a different subset of the helpers.
#![allow(dead_code)]

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use wheels_serve::server::ServerHandle;

pub fn tmpdir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("serve")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One connection: send each request line, collect each response line.
pub fn tcp_session(addr: SocketAddr, requests: &[&str]) -> Vec<String> {
    let sock = TcpStream::connect(addr).expect("connect to server");
    sock.set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    sock.set_write_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    sock.set_nodelay(true).expect("nodelay");
    let mut writer = sock.try_clone().expect("clone socket");
    let mut reader = BufReader::new(sock);
    let mut responses = Vec::with_capacity(requests.len());
    for req in requests {
        writer
            .write_all(format!("{req}\n").as_bytes())
            .expect("send request");
        writer.flush().expect("flush request");
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read response");
        assert!(n > 0, "server closed before answering {req:?}");
        responses.push(line.trim_end_matches('\n').to_string());
    }
    responses
}

/// Block until the server has ingested `want` shards *and* published
/// its resume cursor at `journal_len` (or panic after `timeout`). The
/// tail loop bumps the shard count per frame but stores the cursor only
/// once its poll returns, so waiting on the count alone races the
/// cursor.
pub fn wait_for_shards(handle: &ServerHandle, want: usize, journal_len: u64, timeout: Duration) {
    let t0 = Instant::now();
    while handle.shards_ingested() < want || handle.journal_offset() != Some(journal_len) {
        assert!(
            t0.elapsed() < timeout,
            "ingested {}/{want} shards, cursor {:?} of {journal_len} bytes after {timeout:?}",
            handle.shards_ingested(),
            handle.journal_offset()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}
