//! The serving skeleton: ingest thread + acceptor + worker pool.
//!
//! Concurrency model (one writer, many readers):
//!
//! - The **ingest thread** polls the checkpoint journal with
//!   `checkpoint::tail_from`, carrying the resume offset between polls
//!   so each poll reads only bytes it has never seen. Each delivered
//!   frame is spliced into the shared [`World`] under the write lock —
//!   one shard per critical section, so readers interleave between
//!   shards of a large catch-up.
//! - **Workers** pull accepted connections from a shared channel and
//!   answer requests under the read lock. Connections get read/write
//!   timeouts, so a stalled client can neither pin a worker forever nor
//!   wedge shutdown.
//! - The **acceptor** enforces the in-flight cap: beyond it, a
//!   connection gets an explicit `busy` line and is closed immediately
//!   (load-shedding) rather than queued without bound.
//! - **Shutdown** (signal, `shutdown` command, or API) flips one flag:
//!   the acceptor stops, workers drain queued connections and finish
//!   in-flight requests, the ingest thread exits after its current
//!   poll, and the final metrics snapshot is returned to the caller.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::Value;
use wheels_core::checkpoint::{self, CheckpointError, Fingerprint, Journal};
use wheels_experiments::world::World;

use crate::metrics::Metrics;
use crate::protocol::{self, obj, parse_request, Request};
use crate::query;

/// Server tuning knobs. None of them change any answer bytes — they
/// move latency, overload behavior, and shutdown promptness only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOptions {
    /// Connection-handler pool size.
    pub workers: usize,
    /// Journal poll interval in milliseconds (worst-case added
    /// visibility lag for a freshly appended shard).
    pub poll_ms: u64,
    /// Per-connection read/write timeout in milliseconds.
    pub io_timeout_ms: u64,
    /// In-flight connection cap; beyond it new connections are shed
    /// with a `busy` response.
    pub max_inflight: usize,
    /// Shutdown drain deadline in seconds: once a stop is requested,
    /// in-flight connections get this long to finish before they are
    /// force-closed, so a stalled or trickling client can never hold
    /// SIGTERM (or a `shutdown` command) forever.
    pub drain_secs: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 4,
            poll_ms: 200,
            io_timeout_ms: 10_000,
            max_inflight: 64,
            drain_secs: 10,
        }
    }
}

/// The journal a server tails: directory + the identity the tailer
/// verifies once at attach.
#[derive(Debug, Clone)]
pub struct JournalSpec {
    /// Checkpoint directory (the journal file may not exist yet — the
    /// ingest thread waits for a writer to create it).
    pub dir: PathBuf,
    /// Expected campaign identity; a mismatched journal is fatal.
    pub fingerprint: Fingerprint,
}

struct Shared {
    world: RwLock<World>,
    metrics: Metrics,
    stop: AtomicBool,
    shards: AtomicUsize,
    /// Resume cursor (`u64::MAX` = not attached yet).
    offset: AtomicU64,
    fatal: Mutex<Option<String>>,
    started: Instant,
    inflight: AtomicUsize,
    /// Drain deadline, µs since `started` (`u64::MAX` = no stop yet).
    /// Set once by the first [`Shared::begin_stop`]; the shutdown
    /// reaper force-closes every registered connection at this point.
    deadline_us: AtomicU64,
    /// Live connections by id: a second handle on each accepted socket
    /// so the reaper can `Shutdown::Both` the ones still open when the
    /// drain deadline passes.
    conns: Mutex<Vec<(u64, TcpStream)>>,
    next_conn: AtomicU64,
    opts: ServeOptions,
}

/// Longest request line a client may send, newline included. A longer
/// line gets one error line and the connection is closed: the read
/// timeout only catches an idle client, and one that keeps sending
/// bytes with no newline would otherwise grow the line buffer forever.
const MAX_REQUEST_BYTES: u64 = 64 * 1024;

const UNATTACHED: u64 = u64::MAX;
const NO_DEADLINE: u64 = u64::MAX;

impl Shared {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Request a stop and pin the drain deadline. The first caller wins
    /// the deadline, so a `shutdown` command followed by the process
    /// joining the threads drains one bounded window, not two.
    fn begin_stop(&self) {
        self.stop.store(true, Ordering::Release);
        let now = us(self.started.elapsed());
        let deadline = now.saturating_add(self.opts.drain_secs.saturating_mul(1_000_000));
        let _ = self.deadline_us.compare_exchange(
            NO_DEADLINE,
            deadline,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }

    /// True once the drain deadline has passed.
    fn past_deadline(&self) -> bool {
        us(self.started.elapsed()) >= self.deadline_us.load(Ordering::Acquire)
    }

    /// Track a live connection for the drain reaper.
    fn register_conn(&self, sock: &TcpStream) -> Option<u64> {
        let clone = sock.try_clone().ok()?;
        let id = self.next_conn.fetch_add(1, Ordering::Relaxed);
        self.conns
            .lock()
            .expect("connection registry lock poisoned")
            .push((id, clone));
        Some(id)
    }

    /// Drop a finished connection from the registry.
    fn deregister_conn(&self, id: u64) {
        let mut conns = self
            .conns
            .lock()
            .expect("connection registry lock poisoned");
        conns.retain(|(i, _)| *i != id);
    }

    /// Force-close every connection still registered — the drain
    /// deadline has passed and blocked reads must return now.
    fn close_all_conns(&self) {
        let conns = self
            .conns
            .lock()
            .expect("connection registry lock poisoned");
        for (_, sock) in conns.iter() {
            let _ = sock.shutdown(Shutdown::Both);
        }
    }

    fn status_line(&self) -> String {
        let offset = self.offset.load(Ordering::Acquire);
        let fatal = match &*self.fatal.lock().expect("fatal flag lock poisoned") {
            Some(msg) => Value::String(msg.clone()),
            None => Value::Null,
        };
        protocol::render(&obj(vec![
            ("ok", Value::Bool(true)),
            ("cmd", Value::String("status".to_string())),
            (
                "shards",
                Value::U64(self.shards.load(Ordering::Acquire) as u64),
            ),
            (
                "journal_offset",
                Value::U64(if offset == UNATTACHED { 0 } else { offset }),
            ),
            ("attached", Value::Bool(offset != UNATTACHED)),
            ("uptime_s", Value::F64(self.started.elapsed().as_secs_f64())),
            ("fatal", fatal),
            ("metrics", self.metrics.to_value()),
        ]))
    }

    fn handle_line(&self, line: &str) -> (String, bool) {
        match parse_request(line) {
            Err(msg) => {
                self.metrics.errors.inc();
                (protocol::error_line(&msg), false)
            }
            Ok(Request::Status) => (self.status_line(), false),
            Ok(Request::Shutdown) => {
                self.begin_stop();
                (
                    protocol::render(&obj(vec![
                        ("ok", Value::Bool(true)),
                        ("cmd", Value::String("shutdown".to_string())),
                    ])),
                    true,
                )
            }
            Ok(req) => {
                let world = self.world.read().expect("world lock poisoned");
                let resp = query::respond(&world, &req);
                if resp.starts_with(r#"{"ok":false"#) {
                    self.metrics.errors.inc();
                }
                (resp, false)
            }
        }
    }
}

fn us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Sleep in short slices so a stop flag cuts the wait short.
fn sleep_unless_stopped(shared: &Shared, total: Duration) {
    let slice = Duration::from_millis(10);
    let mut left = total;
    while !shared.stopping() && left > Duration::ZERO {
        let step = left.min(slice);
        std::thread::sleep(step);
        left -= step;
    }
}

fn ingest_loop(shared: &Shared, journal: &JournalSpec) {
    let poll = Duration::from_millis(shared.opts.poll_ms.max(1));
    let mut resume: Option<u64> = None;
    while !shared.stopping() {
        if resume.is_none() && !Journal::file_path(&journal.dir).exists() {
            // No journal yet: the campaign writer has not created it.
            // `Journal::create` lands atomically, so existence is safe
            // to poll without racing a partial header.
            sleep_unless_stopped(shared, poll);
            continue;
        }
        let woke = Instant::now();
        let result = checkpoint::tail_from(&journal.dir, &journal.fingerprint, resume, |_, rec| {
            let splice = Instant::now();
            {
                let mut world = shared.world.write().expect("world lock poisoned");
                world.ingest_shard(rec);
            }
            shared.metrics.ingest_us.record(us(splice.elapsed()));
            shared.metrics.ingest_lag_us.record(us(woke.elapsed()));
            shared.shards.fetch_add(1, Ordering::AcqRel);
            Ok(())
        });
        match result {
            Ok(state) => {
                resume = Some(state.next_offset);
                shared.offset.store(state.next_offset, Ordering::Release);
            }
            Err(CheckpointError::Io(_)) => {
                // Transient (e.g. the file vanished mid-poll): keep the
                // cursor and retry on the next tick.
            }
            Err(e) => {
                *shared.fatal.lock().expect("fatal flag lock poisoned") =
                    Some(format!("journal tail failed: {e}"));
                shared.begin_stop();
                return;
            }
        }
        sleep_unless_stopped(shared, poll);
    }
}

fn accept_loop(shared: &Shared, listener: &TcpListener, tx: &mpsc::Sender<TcpStream>) {
    listener
        .set_nonblocking(true)
        .expect("listener supports non-blocking accept");
    while !shared.stopping() {
        match listener.accept() {
            Ok((sock, _peer)) => {
                shared.metrics.connections.inc();
                let inflight = shared.inflight.fetch_add(1, Ordering::AcqRel);
                if inflight >= shared.opts.max_inflight {
                    // Load-shed: tell the client explicitly, never queue.
                    shared.metrics.busy.inc();
                    shed(shared, sock);
                    shared.inflight.fetch_sub(1, Ordering::AcqRel);
                    continue;
                }
                if tx.send(sock).is_err() {
                    // Workers are gone; we are shutting down.
                    shared.inflight.fetch_sub(1, Ordering::AcqRel);
                    return;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn shed(shared: &Shared, mut sock: TcpStream) {
    let _ = sock.set_write_timeout(Some(Duration::from_millis(
        shared.opts.io_timeout_ms.max(1),
    )));
    let mut line = protocol::busy_line();
    line.push('\n');
    let _ = sock.write_all(line.as_bytes());
}

fn worker_loop(shared: &Shared, rx: &Mutex<mpsc::Receiver<TcpStream>>) {
    loop {
        // Standard shared-receiver pattern: hold the lock only while
        // blocked in recv, release it before handling the connection so
        // the pool stays concurrent.
        let sock = {
            let guard = rx.lock().expect("connection queue lock poisoned");
            guard.recv()
        };
        match sock {
            Ok(sock) => {
                handle_conn(shared, sock);
                shared.inflight.fetch_sub(1, Ordering::AcqRel);
            }
            // Acceptor hung up and the queue is drained: we are done.
            Err(_) => return,
        }
    }
}

fn handle_conn(shared: &Shared, sock: TcpStream) {
    // Register before serving so the drain reaper can force-close this
    // socket if the client is still holding it at the drain deadline.
    let conn_id = shared.register_conn(&sock);
    serve_conn(shared, sock);
    if let Some(id) = conn_id {
        shared.deregister_conn(id);
    }
}

fn serve_conn(shared: &Shared, sock: TcpStream) {
    let timeout = Duration::from_millis(shared.opts.io_timeout_ms.max(1));
    if sock.set_read_timeout(Some(timeout)).is_err()
        || sock.set_write_timeout(Some(timeout)).is_err()
    {
        return;
    }
    // Responses are one small write each; Nagle would trade ~40 ms of
    // delayed-ACK latency for nothing.
    let _ = sock.set_nodelay(true);
    let mut writer = match sock.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(sock);
    let mut line = String::new();
    loop {
        // Drain semantics: a request already read completes below even
        // during shutdown; here, between requests, we close instead of
        // waiting for another.
        if shared.stopping() {
            return;
        }
        line.clear();
        match (&mut reader)
            .take(MAX_REQUEST_BYTES + 1)
            .read_line(&mut line)
        {
            Ok(0) => return,
            Ok(n) if n as u64 > MAX_REQUEST_BYTES => {
                shared.metrics.errors.inc();
                let msg = format!("request line longer than {MAX_REQUEST_BYTES} bytes");
                let resp = protocol::error_line(&msg) + "\n";
                // FIN right behind the reply: closing with unread input
                // resets the connection, and the client should see the
                // error and a clean EOF before that reset lands.
                let _ = writer
                    .write_all(resp.as_bytes())
                    .and_then(|()| writer.flush())
                    .and_then(|()| writer.shutdown(Shutdown::Write));
                return;
            }
            Ok(_) => {
                let t0 = Instant::now();
                let trimmed = line.trim();
                if trimmed.is_empty() {
                    continue;
                }
                let (mut resp, close) = shared.handle_line(trimmed);
                shared.metrics.requests.inc();
                resp.push('\n');
                let sent = writer
                    .write_all(resp.as_bytes())
                    .and_then(|()| writer.flush());
                shared.metrics.query_us.record(us(t0.elapsed()));
                if sent.is_err() || close {
                    return;
                }
            }
            // Timeout (idle client) or any read error: drop the
            // connection; the timeout is what bounds shutdown latency.
            Err(_) => return,
        }
    }
}

/// A running server: join handle + shared state.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound listen address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shards spliced into the live view so far.
    pub fn shards_ingested(&self) -> usize {
        self.shared.shards.load(Ordering::Acquire)
    }

    /// The journal resume offset (`None` until the first successful
    /// poll), i.e. how many journal bytes are reflected in answers.
    pub fn journal_offset(&self) -> Option<u64> {
        match self.shared.offset.load(Ordering::Acquire) {
            UNATTACHED => None,
            off => Some(off),
        }
    }

    /// True once the server is stopping (signal, `shutdown` command,
    /// fatal ingest error, or [`ServerHandle::request_stop`]).
    pub fn is_stopping(&self) -> bool {
        self.shared.stopping()
    }

    /// Ask the server to stop without blocking. Starts the drain
    /// window; [`ServerHandle::shutdown`] enforces its deadline.
    pub fn request_stop(&self) {
        self.shared.begin_stop();
    }

    /// Stop (if not already stopping), drain for at most
    /// [`ServeOptions::drain_secs`], join every thread, and return the
    /// final metrics dump line. Connections still open at the drain
    /// deadline are force-closed, so a stalled client bounds shutdown
    /// instead of wedging it. A fatal ingest error is returned as `Err`
    /// with the same dump appended.
    pub fn shutdown(self) -> Result<String, String> {
        self.shared.begin_stop();
        let done = Arc::new(AtomicBool::new(false));
        let reaper = {
            let shared = Arc::clone(&self.shared);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                while !done.load(Ordering::Acquire) {
                    if shared.past_deadline() {
                        // Idempotent, and repeated so a connection that
                        // registers after this pass still gets closed.
                        shared.close_all_conns();
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
            })
        };
        for t in self.threads {
            let _ = t.join();
        }
        done.store(true, Ordering::Release);
        let _ = reaper.join();
        let dump = protocol::render(&obj(vec![
            ("event", Value::String("shutdown".to_string())),
            (
                "shards",
                Value::U64(self.shared.shards.load(Ordering::Acquire) as u64),
            ),
            (
                "journal_offset",
                Value::U64(match self.shared.offset.load(Ordering::Acquire) {
                    UNATTACHED => 0,
                    off => off,
                }),
            ),
            (
                "uptime_s",
                Value::F64(self.shared.started.elapsed().as_secs_f64()),
            ),
            ("metrics", self.shared.metrics.to_value()),
        ]));
        let fatal = self
            .shared
            .fatal
            .lock()
            .expect("fatal flag lock poisoned")
            .clone();
        match fatal {
            Some(msg) => Err(format!("{msg}\n{dump}")),
            None => Ok(dump),
        }
    }
}

/// Start a server: bind `addr`, spawn the ingest thread and the worker
/// pool, and return immediately. `base` is the world answers start from
/// (normally [`World::from_view`] over an empty view — the ingest
/// thread replays the whole journal through the same splice path the
/// live tail uses, keeping one code path for catch-up and follow).
pub fn start(
    base: World,
    journal: JournalSpec,
    addr: impl ToSocketAddrs,
    opts: ServeOptions,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let shared = Arc::new(Shared {
        world: RwLock::new(base),
        metrics: Metrics::default(),
        stop: AtomicBool::new(false),
        shards: AtomicUsize::new(0),
        offset: AtomicU64::new(UNATTACHED),
        fatal: Mutex::new(None),
        started: Instant::now(),
        inflight: AtomicUsize::new(0),
        deadline_us: AtomicU64::new(NO_DEADLINE),
        conns: Mutex::new(Vec::new()),
        next_conn: AtomicU64::new(0),
        opts,
    });
    let (tx, rx) = mpsc::channel::<TcpStream>();
    let rx = Arc::new(Mutex::new(rx));
    let mut threads = Vec::with_capacity(opts.workers + 2);

    let ingest_shared = Arc::clone(&shared);
    threads.push(std::thread::spawn(move || {
        ingest_loop(&ingest_shared, &journal);
    }));

    for _ in 0..opts.workers.max(1) {
        let worker_shared = Arc::clone(&shared);
        let worker_rx = Arc::clone(&rx);
        threads.push(std::thread::spawn(move || {
            worker_loop(&worker_shared, &worker_rx);
        }));
    }

    let accept_shared = Arc::clone(&shared);
    threads.push(std::thread::spawn(move || {
        accept_loop(&accept_shared, &listener, &tx);
        // Dropping `tx` here hangs up the queue: workers drain what was
        // already accepted, then exit.
    }));

    Ok(ServerHandle {
        addr: local,
        shared,
        threads,
    })
}
