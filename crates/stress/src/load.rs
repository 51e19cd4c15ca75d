//! The query-load generator: seeded mixed traffic against the server.
//!
//! Each client thread owns one TCP connection (reconnecting on error),
//! draws requests from a fixed mixed pool via its own `SimRng` stream,
//! and records per-request latency into a thread-local histogram. The
//! per-thread snapshots fold into one report through
//! `Snapshot::merge` — the associativity the metrics property tests
//! pin is what makes this fold order-independent.
//!
//! During a soak the journal is being appended to live, so response
//! *content* varies with ingest progress; clients therefore validate
//! shape only (a line arrived, it is a protocol object). Byte-level
//! identity is the verifier's job, at quiesce points.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use wheels_metrics::{Counter, Histogram, Snapshot};
use wheels_sim_core::rng::SimRng;

/// The mixed request pool: quantiles, CDFs, Table 1, and status — the
/// same surfaces the serve tests pin, in soak-sized rotation.
pub const QUERY_POOL: &[&str] = &[
    r#"{"cmd":"quantile","table":"tput","q":0.5}"#,
    r#"{"cmd":"quantile","table":"tput","op":"verizon","dir":"dl","driving":true,"q":0.9}"#,
    r#"{"cmd":"quantile","table":"rtt","op":"tmobile","q":0.25}"#,
    r#"{"cmd":"quantile","table":"rtt","q":0.99}"#,
    r#"{"cmd":"cdf","table":"tput","op":"att","dir":"ul","points":7}"#,
    r#"{"cmd":"cdf","table":"rtt","driving":true,"points":5}"#,
    r#"{"cmd":"table1"}"#,
    r#"{"cmd":"status"}"#,
];

/// Concurrent query clients, each on its own connection.
pub const CLIENTS: usize = 2;

/// Merged outcome of the whole load phase.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests answered with a line.
    pub answered: u64,
    /// Responses that were not a protocol object (shape violations).
    pub malformed: u64,
    /// IO errors (reconnects) across all clients.
    pub io_errors: u64,
    /// Per-request latency across all clients, µs.
    pub latency: Snapshot,
}

/// A running pack of load clients.
pub struct LoadGen {
    stop: Arc<AtomicBool>,
    clients: Vec<JoinHandle<ClientTally>>,
}

struct ClientTally {
    answered: Counter,
    malformed: Counter,
    io_errors: Counter,
    latency: Histogram,
}

impl Default for ClientTally {
    fn default() -> Self {
        ClientTally {
            answered: Counter::new(),
            malformed: Counter::new(),
            io_errors: Counter::new(),
            latency: Histogram::new(),
        }
    }
}

/// Start [`CLIENTS`] query threads against `addr`. Each draws from its
/// own seeded stream, so the global request sequence depends only on
/// `stress_seed` and scheduling (which is why only counts and shapes —
/// never content — are asserted here).
pub fn start(addr: SocketAddr, stress_seed: u64) -> LoadGen {
    let stop = Arc::new(AtomicBool::new(false));
    let root = SimRng::seed(stress_seed);
    let clients = (0..CLIENTS)
        .map(|i| {
            let stop = Arc::clone(&stop);
            let mut rng = root.split(&format!("stress/load/{i}"));
            std::thread::spawn(move || {
                let tally = ClientTally::default();
                client_loop(addr, &stop, &mut rng, &tally);
                tally
            })
        })
        .collect();
    LoadGen { stop, clients }
}

fn client_loop(addr: SocketAddr, stop: &AtomicBool, rng: &mut SimRng, tally: &ClientTally) {
    let mut conn: Option<(TcpStream, BufReader<TcpStream>)> = None;
    while !stop.load(Ordering::Acquire) {
        let Some((writer, reader)) = conn.as_mut() else {
            match connect(addr) {
                Ok(c) => conn = Some(c),
                Err(_) => {
                    tally.io_errors.inc();
                    // Brief pause before the next reconnect so a dead
                    // server is not hot-spun against; the stop flag
                    // bounds the loop.
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
            continue;
        };
        let idx = rng.uniform_u64(0, QUERY_POOL.len() as u64) as usize;
        let req = QUERY_POOL[idx];
        let t0 = Instant::now();
        let sent = writer
            .write_all(req.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush());
        if sent.is_err() {
            tally.io_errors.inc();
            conn = None;
            continue;
        }
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(n) if n > 0 => {
                tally.latency.record(us(t0.elapsed()));
                tally.answered.inc();
                if !line.starts_with('{') {
                    tally.malformed.inc();
                }
                // The server sheds connections beyond the in-flight cap
                // with a busy line and a close; rotate to a fresh
                // connection like a real client would.
                if line.contains(r#""busy""#) {
                    conn = None;
                }
            }
            _ => {
                tally.io_errors.inc();
                conn = None;
            }
        }
    }
}

fn connect(addr: SocketAddr) -> std::io::Result<(TcpStream, BufReader<TcpStream>)> {
    let sock = TcpStream::connect(addr)?;
    sock.set_read_timeout(Some(Duration::from_secs(30)))?;
    sock.set_write_timeout(Some(Duration::from_secs(30)))?;
    sock.set_nodelay(true)?;
    let writer = sock.try_clone()?;
    Ok((writer, BufReader::new(sock)))
}

fn us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

impl LoadGen {
    /// Stop every client and fold their tallies into one report.
    pub fn stop(self) -> LoadReport {
        self.stop.store(true, Ordering::Release);
        let mut report = LoadReport {
            answered: 0,
            malformed: 0,
            io_errors: 0,
            latency: Snapshot::empty(),
        };
        for c in self.clients {
            let Ok(tally) = c.join() else {
                report.io_errors += 1;
                continue;
            };
            report.answered += tally.answered.get();
            report.malformed += tally.malformed.get();
            report.io_errors += tally.io_errors.get();
            report.latency.merge(&tally.latency.snapshot());
        }
        report
    }
}
