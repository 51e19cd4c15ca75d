use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::time::Duration;

use wheels_perf::loadgen::{account, run_pass, Pass};

#[test]
fn latency_runs_from_the_scheduled_send_time() {
    // Requests are due every 1000 ns. The sender stalls before request 2
    // and sends it 4000 ns late; the next two go out right behind it.
    let sent = [0, 1_000, 6_000, 6_100, 6_200];
    let recv = [Some(500), Some(1_600), Some(6_500), Some(6_900), None];
    let a = account(1_000, &sent, &recv);
    assert_eq!(a.late_us, vec![0.0, 0.0, 4.0, 3.1, 2.2]);
    // Request 3 took 800 ns on the wire, but waited 3100 ns behind the
    // stall: both count.
    assert_eq!(a.latency_us, vec![0.5, 0.6, 4.5, 3.9]);
    assert_eq!(a.missing, 1);
}

#[test]
fn a_sender_is_never_charged_negative_lateness() {
    let a = account(1_000, &[0, 900], &[Some(100), Some(950)]);
    assert_eq!(a.late_us, vec![0.0, 0.0]);
    assert_eq!(a.latency_us, vec![0.1, 0.0]);
}

#[test]
fn replies_pair_first_in_first_out_and_unanswered_requests_fail() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    // Answer the first 40 requests (the second line type wrongly), then
    // go silent while keeping the connection open.
    let server = std::thread::spawn(move || {
        let (sock, _) = listener.accept().expect("accept");
        let mut w = sock.try_clone().expect("clone");
        let mut lines = BufReader::new(sock).lines();
        for _ in 0..40 {
            let req = lines.next().expect("request").expect("read");
            let reply = if req == "b" { "wrong" } else { "ok" };
            w.write_all(format!("{reply}\n").as_bytes()).expect("write");
        }
        for l in lines {
            if l.is_err() {
                break;
            }
        }
    });
    let lines = vec!["a".to_string(), "b".to_string()];
    let pass = Pass {
        addr,
        lines: &lines,
        order: &[0, 0, 0, 1],
        rate_hz: 1_000.0,
        duration: Duration::from_millis(100),
        drain: Duration::from_millis(200),
    };
    let out = run_pass(
        &pass,
        |i, reply| {
            let want = if i == 0 { "ok" } else { "right" };
            if reply == want {
                Ok(())
            } else {
                Err(format!("line {i}: {reply}"))
            }
        },
        |_| {},
    )
    .expect("pass runs");
    assert_eq!(out.sent(), 100);
    assert_eq!(out.acct.latency_us.len(), 40);
    assert_eq!(out.acct.missing, 60);
    assert_eq!(out.rejected, 10, "every fourth reply is to line b");
    assert_eq!(out.failed(), 70);
    server.join().expect("server thread");
}
