//! Request-line bound: a client that streams bytes with no newline must
//! get one error line and a closed connection once the line passes the
//! server's limit, instead of growing the server's line buffer for as
//! long as it keeps sending. The server stays up for everyone else.

mod util;

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::thread;
use std::time::Duration;

use wheels_core::analysis::view::DatasetView;
use wheels_core::campaign::Campaign;
use wheels_core::records::Dataset;
use wheels_experiments::world::{Scale, World};
use wheels_serve::server::{self, JournalSpec, ServeOptions};

#[test]
fn overlong_request_line_gets_an_error_and_eof() {
    let dir = util::tmpdir("line_bound");
    let campaign = Campaign::standard(2022);
    let mut cfg = Scale::Quick.config();
    cfg.seed = 2022;
    let base = World::from_view(Scale::Quick, 2022, DatasetView::new(Dataset::default()));
    let handle = server::start(
        base,
        JournalSpec {
            dir,
            fingerprint: campaign.fingerprint(&cfg),
        },
        "127.0.0.1:0",
        ServeOptions {
            workers: 2,
            ..ServeOptions::default()
        },
    )
    .expect("server starts");

    let sock = TcpStream::connect(handle.addr()).expect("connect");
    sock.set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    // 1 MiB with no newline, from its own thread: once the server stops
    // reading, this write blocks until the server closes, then fails.
    let mut flood = sock.try_clone().expect("clone socket");
    let sender = thread::spawn(move || {
        let _ = flood.write_all(&vec![b'a'; 1 << 20]);
    });

    let mut reader = BufReader::new(sock);
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("error line");
    assert!(reply.starts_with("{\"ok\":false"), "{reply}");
    assert!(reply.ends_with('\n'), "{reply:?}");
    let mut rest = Vec::new();
    let n = reader.read_to_end(&mut rest).expect("clean EOF");
    assert_eq!(n, 0, "bytes after the error line: {rest:?}");
    sender.join().expect("sender thread");

    let status = util::tcp_session(handle.addr(), &["{\"cmd\":\"status\"}"]);
    assert!(status[0].starts_with("{\"ok\":true"), "{}", status[0]);
    handle.shutdown().expect("clean shutdown");
}
