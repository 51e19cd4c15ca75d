//! Open-loop request generator over one TCP connection.
//!
//! Requests go out on a fixed schedule whatever the server does (an
//! open loop: independent users, not callers waiting on replies). One
//! sender thread writes request lines and one receiver thread reads
//! reply lines; replies pair with requests first-in first-out, which is
//! what one line-delimited connection guarantees. Every latency runs
//! from the request's *scheduled* send time, so a stall that delays
//! later sends is charged to those requests too, and the sender's own
//! lateness is reported next to it: when the generator runs late, the
//! numbers measure the generator, not the server.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Latency and lateness per request, from nanosecond offsets since the
/// pass started. Request `i` was due at `i * interval_ns`, went out at
/// `sent_ns[i]` and was answered at `recv_ns[i]` (`None`: no reply).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Accounting {
    /// Reply time minus scheduled send time, µs, for answered requests.
    pub latency_us: Vec<f64>,
    /// Actual send time minus scheduled send time, µs, for every sent
    /// request (never negative: the sender never sends early).
    pub late_us: Vec<f64>,
    /// Sent requests that never got a reply.
    pub missing: usize,
}

/// Charge every request from its scheduled send time.
pub fn account(interval_ns: u64, sent_ns: &[u64], recv_ns: &[Option<u64>]) -> Accounting {
    let due = |i: usize| interval_ns * i as u64;
    let mut out = Accounting::default();
    for (i, &sent) in sent_ns.iter().enumerate() {
        out.late_us.push(sent.saturating_sub(due(i)) as f64 / 1e3);
        match recv_ns.get(i).copied().flatten() {
            Some(r) => out.latency_us.push(r.saturating_sub(due(i)) as f64 / 1e3),
            None => out.missing += 1,
        }
    }
    out
}

/// One pass of traffic.
pub struct Pass<'a> {
    /// Server address.
    pub addr: SocketAddr,
    /// Request lines (no newline), indexed by `order`.
    pub lines: &'a [String],
    /// Which line request `i` sends: `lines[order[i % order.len()]]`.
    pub order: &'a [usize],
    /// Requests per second.
    pub rate_hz: f64,
    /// How long requests are sent for.
    pub duration: Duration,
    /// How long to wait for outstanding replies after the last send.
    pub drain: Duration,
}

/// What one pass observed.
#[derive(Debug)]
pub struct PassOutcome {
    /// Per-request accounting.
    pub acct: Accounting,
    /// When the schedule started.
    pub start: Instant,
    /// Scheduled send interval, ns.
    pub interval_ns: u64,
    /// Reply offsets (ns since `start`), request-aligned.
    pub recv_ns: Vec<Option<u64>>,
    /// Replies the checker rejected (busy, error or wrong bytes).
    pub rejected: usize,
    /// The first rejected reply or I/O failure, for the log.
    pub first_problem: Option<String>,
}

impl PassOutcome {
    /// Requests sent.
    pub fn sent(&self) -> usize {
        self.acct.late_us.len()
    }

    /// Sent requests that failed: rejected or never answered.
    pub fn failed(&self) -> usize {
        self.rejected + self.acct.missing
    }
}

/// Run one pass. `check(line_index, reply)` judges each reply; `tick`
/// runs on the sender thread before every send (the live-journal copier
/// does its writing there, so file writes and request sends share one
/// clock).
pub fn run_pass(
    pass: &Pass<'_>,
    check: impl Fn(usize, &str) -> Result<(), String> + Sync,
    mut tick: impl FnMut(Instant) + Send,
) -> std::io::Result<PassOutcome> {
    let sock = TcpStream::connect(pass.addr)?;
    sock.set_nodelay(true)?;
    sock.set_read_timeout(Some(Duration::from_millis(50)))?;
    let mut writer = sock.try_clone()?;
    let mut reader = BufReader::new(sock);
    let wire: Vec<String> = pass.lines.iter().map(|l| format!("{l}\n")).collect();
    let interval_ns = (1e9 / pass.rate_hz).round().max(1.0) as u64;
    let total = (pass.duration.as_nanos() as u64 / interval_ns).max(1) as usize;
    let sent_count = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let start = Instant::now() + Duration::from_millis(5);
    let offset = |t: Instant| {
        u64::try_from(t.saturating_duration_since(start).as_nanos()).unwrap_or(u64::MAX)
    };

    let (sent_ns, (recv_ns, rejected, first_problem)) = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let mut sent_ns = Vec::with_capacity(total);
            for i in 0..total {
                let due = start + Duration::from_nanos(interval_ns * i as u64);
                tick(Instant::now());
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let at = Instant::now();
                let line = &wire[pass.order[i % pass.order.len()]];
                if writer.write_all(line.as_bytes()).is_err() {
                    break;
                }
                sent_ns.push(offset(at));
                sent_count.store(sent_ns.len(), Ordering::Release);
            }
            done.store(true, Ordering::Release);
            sent_ns
        });
        let receiver = s.spawn(|| {
            let mut recv_ns: Vec<Option<u64>> = Vec::with_capacity(total);
            let mut rejected = 0usize;
            let mut first_problem: Option<String> = None;
            let mut line = String::new();
            let mut drain_deadline: Option<Instant> = None;
            loop {
                if done.load(Ordering::Acquire) {
                    if recv_ns.len() >= sent_count.load(Ordering::Acquire) {
                        break;
                    }
                    let deadline =
                        *drain_deadline.get_or_insert_with(|| Instant::now() + pass.drain);
                    if Instant::now() >= deadline {
                        break;
                    }
                }
                match reader.read_line(&mut line) {
                    Ok(0) => {
                        first_problem
                            .get_or_insert_with(|| "server closed the connection".to_string());
                        break;
                    }
                    Ok(_) if line.ends_with('\n') => {
                        let at = Instant::now();
                        let i = recv_ns.len();
                        recv_ns.push(Some(offset(at)));
                        if let Err(why) = check(pass.order[i % pass.order.len()], line.trim_end()) {
                            rejected += 1;
                            first_problem.get_or_insert(why);
                        }
                        line.clear();
                    }
                    // A timeout keeps the partial line; the next read
                    // appends the rest of it.
                    Ok(_) => {}
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) => {}
                    Err(e) => {
                        first_problem.get_or_insert_with(|| format!("read failed: {e}"));
                        break;
                    }
                }
            }
            (recv_ns, rejected, first_problem)
        });
        (
            sender.join().expect("sender thread panicked"),
            receiver.join().expect("receiver thread panicked"),
        )
    });
    let mut recv_ns = recv_ns;
    recv_ns.resize(sent_ns.len(), None);
    let acct = account(interval_ns, &sent_ns, &recv_ns);
    Ok(PassOutcome {
        acct,
        start,
        interval_ns,
        recv_ns,
        rejected,
        first_problem,
    })
}

/// Send `lines` one at a time on a fresh connection and return the
/// replies (closed loop; for verification and `status`, never timed).
pub fn ask(addr: SocketAddr, lines: &[String]) -> std::io::Result<Vec<String>> {
    let sock = TcpStream::connect(addr)?;
    sock.set_nodelay(true)?;
    sock.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut writer = sock.try_clone()?;
    let mut reader = BufReader::new(sock);
    let mut out = Vec::with_capacity(lines.len());
    for l in lines {
        writer.write_all(format!("{l}\n").as_bytes())?;
        let mut reply = String::new();
        if reader.read_line(&mut reply)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        out.push(reply.trim_end().to_string());
    }
    Ok(out)
}
