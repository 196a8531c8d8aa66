//! Bench-local tracing: spans recorded around calls into the program's
//! public API, and an [`ObjectStore`] probe that sits between two storage
//! layers.
//!
//! A span has a name, a start and end on the host clock, the span that
//! was open on the same thread when it began (its parent), and the query
//! the driving thread was serving. Spans live in memory until the run
//! ends. A layer's self time is the duration of the spans of the probe
//! above it minus the part of each span its children (the probe below
//! it) cover.

use airphant_storage::{BatchFetch, Fetched, ObjectStore, RangeRequest, Result, Version};
use bytes::Bytes;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique id within the tracer, starting at 1.
    pub id: u64,
    /// The enclosing span on the same thread, or 0.
    pub parent: u64,
    /// The query being served when the span began (0 outside queries).
    pub query: u64,
    /// Layer boundary or API call name.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// In-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    query: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(0),
            query: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Set the query id later spans are tagged with.
    pub fn set_query(&self, query: u64) {
        self.query.store(query, Ordering::Relaxed);
    }

    /// Run `f` inside a span called `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied().unwrap_or(0);
            open.push(id);
            parent
        });
        let query = self.query.load(Ordering::Relaxed);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        OPEN.with(|open| open.borrow_mut().pop());
        self.spans.lock().expect("span log poisoned").push(Span {
            id,
            parent,
            query,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Take every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span log poisoned"))
    }
}

/// Run `f` inside a span when tracing, or plainly when not.
pub fn span<T>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// Total and self time per span name, in nanoseconds, with call counts.
#[derive(Debug, Default, Clone)]
pub struct SpanTotals {
    /// Span name → (calls, total ns, self ns).
    pub by_name: BTreeMap<&'static str, (u64, u64, u64)>,
}

impl SpanTotals {
    /// Aggregate spans: self time is duration minus the union of the
    /// intervals of the span's children.
    pub fn of(spans: &[Span]) -> Self {
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in spans {
            if s.parent != 0 {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        let mut by_name: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for s in spans {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let covered = children.get_mut(&s.id).map_or(0, |iv| covered_ns(iv));
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(covered);
        }
        SpanTotals { by_name }
    }

    /// Self time of `name` in microseconds.
    pub fn self_us(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |e| e.2 as f64 / 1e3)
    }
}

/// Length of the union of `intervals`.
fn covered_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Write spans as JSON lines.
pub fn dump_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"query\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.query, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// Counters one probe keeps.
#[derive(Debug, Default)]
pub struct ProbeCounts {
    /// Bytes returned by reads.
    pub read_bytes: AtomicU64,
    /// `put` and `put_if_version` calls.
    pub puts: AtomicU64,
    /// Bytes written.
    pub put_bytes: AtomicU64,
    /// Bytes of reads whose exact range was requested before.
    pub repeat_bytes: AtomicU64,
}

/// An [`ObjectStore`] decorator placed at a layer boundary: it counts the
/// traffic that crosses it and, with a tracer, records a span per call.
pub struct Probe {
    name: &'static str,
    inner: Arc<dyn ObjectStore>,
    tracer: Option<Arc<Tracer>>,
    /// Traffic counters.
    pub counts: ProbeCounts,
    seen: Option<Mutex<HashSet<(String, u64, u64)>>>,
}

impl Probe {
    /// Wrap `inner`; `tracer` of `None` only counts.
    pub fn new(
        name: &'static str,
        inner: Arc<dyn ObjectStore>,
        tracer: Option<Arc<Tracer>>,
    ) -> Self {
        Probe {
            name,
            inner,
            tracer,
            counts: ProbeCounts::default(),
            seen: None,
        }
    }

    /// Also track which read bytes repeat an earlier request.
    pub fn tracking_repeats(mut self) -> Self {
        self.seen = Some(Mutex::new(HashSet::new()));
        self
    }

    fn traced<T>(&self, f: impl FnOnce() -> T) -> T {
        span(self.tracer.as_deref(), self.name, f)
    }

    fn read(&self, name: &str, offset: u64, len: u64, got: u64) {
        self.counts.read_bytes.fetch_add(got, Ordering::Relaxed);
        if let Some(seen) = &self.seen {
            let fresh =
                seen.lock()
                    .expect("range log poisoned")
                    .insert((name.to_owned(), offset, len));
            if !fresh {
                self.counts.repeat_bytes.fetch_add(got, Ordering::Relaxed);
            }
        }
    }

    fn wrote(&self, bytes: u64) {
        self.counts.puts.fetch_add(1, Ordering::Relaxed);
        self.counts.put_bytes.fetch_add(bytes, Ordering::Relaxed);
    }
}

/// Read a counter.
pub fn load(c: &AtomicU64) -> u64 {
    c.load(Ordering::Relaxed)
}

impl ObjectStore for Probe {
    fn put(&self, name: &str, data: Bytes) -> Result<()> {
        self.wrote(data.len() as u64);
        self.traced(|| self.inner.put(name, data))
    }

    fn get(&self, name: &str) -> Result<Fetched> {
        let f = self.traced(|| self.inner.get(name))?;
        self.read(name, 0, u64::MAX, f.bytes.len() as u64);
        Ok(f)
    }

    fn get_range(&self, name: &str, offset: u64, len: u64) -> Result<Fetched> {
        let f = self.traced(|| self.inner.get_range(name, offset, len))?;
        self.read(name, offset, len, f.bytes.len() as u64);
        Ok(f)
    }

    fn get_ranges(&self, requests: &[RangeRequest]) -> Result<BatchFetch> {
        let batch = self.traced(|| self.inner.get_ranges(requests))?;
        for (r, part) in requests.iter().zip(&batch.parts) {
            self.read(&r.name, r.offset, r.len, part.bytes.len() as u64);
        }
        Ok(batch)
    }

    fn version_of(&self, name: &str) -> Result<Version> {
        self.inner.version_of(name)
    }

    fn put_if_version(&self, name: &str, data: Bytes, expected: Version) -> Result<Version> {
        self.wrote(data.len() as u64);
        self.traced(|| self.inner.put_if_version(name, data, expected))
    }

    fn size_of(&self, name: &str) -> Result<u64> {
        self.inner.size_of(name)
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        self.inner.list(prefix)
    }

    fn delete(&self, name: &str) -> Result<()> {
        self.inner.delete(name)
    }

    fn usage(&self, prefix: &str) -> Result<u64> {
        self.inner.usage(prefix)
    }
}
