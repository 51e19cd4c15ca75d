//! Spans around the runner's calls into the program's public API.
//!
//! A traced run keeps every span in memory (name, id, parent, start,
//! end) and writes them as JSON lines when it ends. Nothing here reaches
//! inside the program: a span brackets one public call made by the
//! runner, so a layer's time is what the runner observed at that
//! boundary. A layer is the span name up to its first `.`.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer was made.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Dotted name; the part before the first `.` is the layer.
    pub name: String,
    /// Unique within one tracer.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// The layer this span is charged to.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }

    /// Wall duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. An [`off`](Tracer::off) tracer runs every closure and
/// records nothing, so traced and untraced runs share one code path.
pub struct Tracer {
    on: bool,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder that keeps spans.
    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    /// A recorder that keeps nothing.
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// True when spans are kept.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Run `f` inside a span named `name`. `f` receives the span's id
    /// (`None` when tracing is off) to parent its own spans.
    pub fn span<T>(&self, name: &str, parent: Option<u64>, f: impl FnOnce(Option<u64>) -> T) -> T {
        if !self.on {
            return f(None);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(Some(id));
        self.push(name, id, parent, start, Instant::now());
        out
    }

    /// Record a span whose bounds the caller measured, e.g. a request
    /// from its scheduled send time to its reply.
    pub fn record(&self, name: &str, parent: Option<u64>, start: Instant, end: Instant) {
        if self.on {
            let id = self.next.fetch_add(1, Ordering::Relaxed);
            self.push(name, id, parent, start, end);
        }
    }

    fn push(&self, name: &str, id: u64, parent: Option<u64>, start: Instant, end: Instant) {
        let ns = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        let span = Span {
            name: name.to_string(),
            id,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        };
        self.spans
            .lock()
            .expect("span buffer lock poisoned")
            .push(span);
    }

    /// Every span recorded so far, in close order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span buffer lock poisoned")
            .clone()
    }
}

/// Self time of every span, in ns, index-aligned with `spans`: its
/// duration minus the part of its interval that its children cover.
/// Overlapping children (parallel work) are counted once, and a child
/// reaching outside its parent counts only inside it.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
            s.duration_ns() - covered_ns(kids, s.start_ns, s.end_ns)
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time summed per layer, in ns.
pub fn self_ns_by_layer(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_ns(spans)) {
        *out.entry(s.layer().to_string()).or_insert(0) += own;
    }
    out
}

/// Durations in ms of every span named exactly `name`, in close order.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

/// Write `spans` as JSON lines tagged with `run`.
pub fn write_jsonl(path: &Path, run: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"run\":{},\"name\":{},\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            json_str(run),
            json_str(&s.name),
            s.id,
            s.start_ns,
            s.end_ns
        )?;
    }
    w.flush()
}

fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("a string always serializes")
}
