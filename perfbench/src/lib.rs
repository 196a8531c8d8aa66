//! Whole-stack benchmark of Airphant.
//!
//! Three workloads drive the production read, serve and ingest stacks end
//! to end (`perfbench/WORKLOADS.md` records why each was chosen, its
//! sizes, rates and policies, and every metric's definition):
//!
//! * [`hot_zipf`] — a cached `Searcher` behind the caller-pumped
//!   `AsyncQueryServer`, under open-loop load.
//! * [`cold_logs`] — a four-way `ShardedSearcher` over a replicated,
//!   coalescing, nearly uncached three-region store, one closed-loop
//!   client, with prefix and fuzzy queries.
//! * [`ingest_live`] — appends, group-commit flushes and compactions of a
//!   `LiveIndex`, with freshness probes and historical reads in between.
//!
//! A run reports two kinds of latency. *Cloud latency* is read from the
//! simulated clock (what a user of a cloud-backed index waits for).
//! *Host cost* is read from the real clock (the CPU and real waiting the
//! program itself adds) and, as a gate that the host's own load cannot
//! move, from the heap bytes the program asks for ([`CountingAlloc`]).
//! With tracing on, a run also attributes time and traffic to the
//! program's modules, only by timing and counting calls into their public
//! API ([`trace`]).

pub mod cold_logs;
pub mod hot_zipf;
pub mod ingest_live;
pub mod oracle;
pub mod trace;

use airphant::SearchResult;
use airphant_storage::PhaseKind;
use oracle::{Class, Verdict};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The workloads, by their `--workload` name.
pub const WORKLOADS: [&str; 3] = ["hot_zipf", "cold_sharded_logs", "ingest_live"];

/// Metrics printed with tracing off, with their units.
pub const END_TO_END: [(&str, &str); 9] = [
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("capacity_qps", "1/s"),
    ("served_frac", "fraction"),
    ("alloc_bytes_per_query", "bytes"),
    ("alloc_bytes_per_doc", "bytes"),
    ("write_amp", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Metrics printed with tracing on, with their units. A layer that is
/// not on a workload's path reports 0. The two host-time figures come from
/// the run's untraced passes.
pub const PER_LAYER: [(&str, &str); 59] = [
    ("host_us_per_query", "us"),
    ("ingest_docs_per_s", "docs/s"),
    ("serve.queue_p99_ms", "ms"),
    ("serve.peak_in_flight", "count"),
    ("admission.shed", "count"),
    ("plan.round_trips", "count"),
    ("plan.postings_wait_ms", "ms"),
    ("plan.postings_download_ms", "ms"),
    ("plan.documents_wait_ms", "ms"),
    ("plan.documents_download_ms", "ms"),
    ("plan.docs_per_hit", "ratio"),
    ("plan.compute_ms", "ms"),
    ("plan.false_positives_per_query", "count"),
    ("plan.topk_shortfall_frac", "fraction"),
    ("class.term.host_us", "us"),
    ("class.and.host_us", "us"),
    ("class.prefix.host_us", "us"),
    ("class.fuzzy.host_us", "us"),
    ("class.term.p99_ms", "ms"),
    ("class.and.p99_ms", "ms"),
    ("class.prefix.p99_ms", "ms"),
    ("class.fuzzy.p99_ms", "ms"),
    ("shard.gather_host_us", "us"),
    ("shard.straggler_ms", "ms"),
    ("cache.hit_rate.index", "fraction"),
    ("cache.hit_rate.superpost", "fraction"),
    ("cache.hit_rate.data", "fraction"),
    ("cache.bytes_avoided_per_query", "bytes"),
    ("cache.self_us", "us"),
    ("scheduler.merged_ranges", "count"),
    ("scheduler.fused_batches", "count"),
    ("scheduler.bytes_padded", "bytes"),
    ("scheduler.backend_batches", "count"),
    ("scheduler.self_us", "us"),
    ("replicated.nearest_frac", "fraction"),
    ("replicated.rerouted_reads", "count"),
    ("replicated.demotions", "count"),
    ("sim.requests_per_query", "count"),
    ("sim.batches_per_query", "count"),
    ("sim.bytes_per_query", "bytes"),
    ("sim.spiked", "count"),
    ("memtable.append_us", "us"),
    ("memtable.flush_ms", "ms"),
    ("memtable.flush_puts", "count"),
    ("memtable.flush_bytes", "bytes"),
    ("compact.ms", "ms"),
    ("compact.bytes_rewritten", "bytes"),
    ("compact.segments_merged", "count"),
    ("compact.query_p99_ms", "ms"),
    ("segments.live", "count"),
    ("builder.build_s", "s"),
    ("builder.index_bytes_per_doc", "bytes"),
    ("trace.overhead_us_per_query", "us"),
    ("workload.candidates_over_k_share", "fraction"),
    ("workload.rerequested_bytes_share", "fraction"),
    ("query.samples", "count"),
    ("query.beyond_p99", "count"),
    ("sim.requests_untraced_per_query", "count"),
    ("host.threads_available", "count"),
];

/// How one run is configured.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Generation seed of every input.
    pub seed: u64,
    /// How long the timed phase runs, in host seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// A reduced size for the benchmark's own tests.
    pub small: bool,
    /// Where the traced run writes its spans and per-layer table.
    pub out_dir: Option<PathBuf>,
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the checked pass.
    pub attempted: u64,
    /// Operations that failed, were shed or were refused.
    pub failed: u64,
    /// Correctness failures, one line each.
    pub failures: Vec<String>,
    /// Metrics, by name.
    pub metrics: Vec<(String, f64)>,
    /// Simulated-clock figures and counts that repeat exactly under a seed
    /// on deterministic stacks.
    pub counts: Vec<(String, f64)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a metric.
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_owned(), value));
    }

    /// Record a count.
    pub fn count(&mut self, name: &str, value: f64) {
        self.counts.push((name.to_owned(), value));
    }

    /// Record a correctness failure.
    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    /// Look a metric up.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// Run a workload by name.
pub fn run(workload: &str, cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = match workload {
        "hot_zipf" => hot_zipf::run(cfg),
        "cold_sharded_logs" => cold_logs::run(cfg),
        "ingest_live" => ingest_live::run(cfg),
        other => return Err(format!("unknown workload {other:?}")),
    };
    out.metric("peak_rss_mb", peak_rss_mb());
    Ok(out)
}

/// SplitMix64: a small seeded generator for input generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seed a generator.
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Nearest-rank percentile of unsorted samples (0 when empty).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of unsorted samples (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean (0 when empty).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 9;

/// Set up [`SETUPS`] times and keep the first (`set_up` gets `true` for
/// it). Returns it with every set-up's `(setup_s, build_s)` as read by
/// `times`.
pub fn set_up_repeatedly<B>(
    mut set_up: impl FnMut(bool) -> B,
    times: impl Fn(&B) -> (f64, f64),
) -> (B, Vec<f64>, Vec<f64>) {
    let built = set_up(true);
    let (s, b) = times(&built);
    let (mut setups, mut builds) = (vec![s], vec![b]);
    for _ in 1..SETUPS {
        let (s, b) = times(&set_up(false));
        setups.push(s);
        builds.push(b);
    }
    (built, setups, builds)
}

/// The timed phase: passes, each given its index, until `cfg.seconds` have
/// elapsed (at least three). The traced run alternates untraced (even)
/// and traced (odd) passes, at least two of each, so the tracing overhead
/// is measured under the same conditions.
pub fn run_passes<P>(
    cfg: &RunConfig,
    mut pass: impl FnMut(usize, Option<Arc<trace::Tracer>>) -> P,
) -> Vec<P> {
    let tracer = Arc::new(trace::Tracer::default());
    let min = if cfg.trace { 4 } else { 3 };
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || start.elapsed().as_secs_f64() < cfg.seconds {
        let i = out.len();
        let traced = cfg.trace && i % 2 == 1;
        out.push(pass(i, traced.then(|| tracer.clone())));
    }
    out
}

/// Split per-pass values into those of untraced and of traced passes, as
/// [`run_passes`] alternates them.
pub fn by_tracing<T: Clone>(cfg: &RunConfig, values: &[T]) -> (Vec<T>, Vec<T>) {
    if !cfg.trace {
        return (values.to_vec(), Vec::new());
    }
    (
        values.iter().step_by(2).cloned().collect(),
        values.iter().skip(1).step_by(2).cloned().collect(),
    )
}

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting the bytes every allocation asks for.
/// The `perfbench` binary installs it as the global allocator; heap bytes
/// allocated per query or per document are the host-independent proxy of
/// host cost that the end-to-end metrics gate, since wall time on a shared
/// host drifts with its neighbours' load.
pub struct CountingAlloc;

// SAFETY: every method forwards the caller's pointer and layout unchanged
// to `System`, so `System` upholds `GlobalAlloc`'s contract; the counter is
// a statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller guarantees a non-zero size.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; the caller guarantees a valid `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap bytes requested so far (0 unless [`CountingAlloc`] is installed).
pub fn allocated_bytes() -> u64 {
    ALLOCATED.load(Ordering::Relaxed)
}

/// Peak resident memory of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one query's result says about the planner, with its checks.
#[derive(Debug, Clone, Copy)]
pub struct QueryRecord {
    /// Query class.
    pub class: Class,
    /// The workload's latency measure, in simulated ms.
    pub latency_ms: f64,
    /// `SearchResult::trace.total()`, in simulated ms.
    pub trace_ms: f64,
    /// Host time of the call, in ns (0 where not attributable).
    pub host_ns: u64,
    /// Hits returned.
    pub hits: usize,
    /// Candidates the sketch produced.
    pub candidates: usize,
    /// Candidates the verify pass dropped.
    pub false_positives: usize,
    /// Storage round trips of the trace.
    pub round_trips: u64,
    /// Postings-phase wait and download, simulated ms.
    pub postings: (f64, f64),
    /// Documents-phase wait and download, simulated ms.
    pub documents: (f64, f64),
    /// Documents requested by the documents phase.
    pub documents_fetched: u64,
    /// Compute time recorded in the trace, ms.
    pub compute_ms: f64,
    /// The correctness verdict.
    pub verdict: Verdict,
}

impl QueryRecord {
    /// Summarise one result.
    pub fn of(
        class: Class,
        r: &SearchResult,
        latency_ms: f64,
        host_ns: u64,
        verdict: Verdict,
    ) -> Self {
        let mut postings = (0.0, 0.0);
        let mut documents = (0.0, 0.0);
        let mut documents_fetched = 0;
        for p in r.trace.phases() {
            match p.kind {
                PhaseKind::Postings | PhaseKind::Lookup => {
                    postings.0 += p.wait.as_millis_f64();
                    postings.1 += p.download.as_millis_f64();
                }
                PhaseKind::Documents => {
                    documents.0 += p.wait.as_millis_f64();
                    documents.1 += p.download.as_millis_f64();
                    documents_fetched += p.requests;
                }
                _ => {}
            }
        }
        QueryRecord {
            class,
            latency_ms,
            trace_ms: r.trace.total().as_millis_f64(),
            host_ns,
            hits: r.hits.len(),
            candidates: r.candidates,
            false_positives: r.false_positives_removed,
            round_trips: r.trace.round_trips(),
            postings,
            documents,
            documents_fetched,
            compute_ms: r.trace.compute().as_millis_f64(),
            verdict,
        }
    }
}

/// Record correctness failures found in `records`.
pub fn check_records(out: &mut Outcome, records: &[QueryRecord]) {
    let wrong = records.iter().filter(|r| r.verdict.wrong).count();
    let inexact = records.iter().filter(|r| r.verdict.short_exact).count();
    if wrong > 0 {
        out.fail(format!(
            "{wrong} queries returned a hit that fails the query, or more than top-k"
        ));
    }
    if inexact > 0 {
        out.fail(format!(
            "{inexact} compound or expanded queries did not return min(k, true matches)"
        ));
    }
}

/// The end-to-end latency pair over `records`.
pub fn latency_metrics(out: &mut Outcome, records: &[QueryRecord]) {
    let lat: Vec<f64> = records.iter().map(|r| r.latency_ms).collect();
    let p99 = percentile(&lat, 0.99);
    out.metric("query_p50_ms", percentile(&lat, 0.50));
    out.metric("query_p99_ms", p99);
    out.notes.push(format!(
        "query latency samples: {} ({} beyond p99)",
        lat.len(),
        lat.iter().filter(|&&l| l > p99).count()
    ));
    let deciles: Vec<f64> = (1..10).map(|d| percentile(&lat, d as f64 / 10.0)).collect();
    out.notes
        .push(format!("query latency deciles, ms: {deciles:.1?}"));
}

/// The `plan.*`, `class.*` and workload-share metrics over `records`.
pub fn plan_metrics(out: &mut Outcome, records: &[QueryRecord]) {
    let n = records.len() as f64;
    let avg = |f: &dyn Fn(&QueryRecord) -> f64| ratio(records.iter().map(f).sum(), n);
    out.metric("plan.round_trips", avg(&|r| r.round_trips as f64));
    out.metric("plan.postings_wait_ms", avg(&|r| r.postings.0));
    out.metric("plan.postings_download_ms", avg(&|r| r.postings.1));
    out.metric("plan.documents_wait_ms", avg(&|r| r.documents.0));
    out.metric("plan.documents_download_ms", avg(&|r| r.documents.1));
    out.metric(
        "plan.docs_per_hit",
        ratio(
            records.iter().map(|r| r.documents_fetched as f64).sum(),
            records.iter().map(|r| r.hits as f64).sum(),
        ),
    );
    out.metric("plan.compute_ms", avg(&|r| r.compute_ms));
    out.metric(
        "plan.false_positives_per_query",
        avg(&|r| r.false_positives as f64),
    );
    let terms = records.iter().filter(|r| r.class == Class::Term).count() as f64;
    let short = records.iter().filter(|r| r.verdict.shortfall).count() as f64;
    out.metric("plan.topk_shortfall_frac", ratio(short, terms));
    out.metric(
        "workload.candidates_over_k_share",
        avg(&|r| f64::from(u8::from(r.candidates > oracle::TOP_K))),
    );
    let lat: Vec<f64> = records.iter().map(|r| r.latency_ms).collect();
    let p99 = percentile(&lat, 0.99);
    out.metric("query.samples", n);
    out.metric(
        "query.beyond_p99",
        lat.iter().filter(|&&l| l > p99).count() as f64,
    );
    for class in Class::ALL {
        let of: Vec<&QueryRecord> = records.iter().filter(|r| r.class == class).collect();
        let lat: Vec<f64> = of.iter().map(|r| r.latency_ms).collect();
        out.metric(
            &format!("class.{}.p99_ms", class.label()),
            percentile(&lat, 0.99),
        );
    }
}

/// Per-class mean host time in µs, the median over passes of
/// `(class, host ns)` per query (classes without attributable host time
/// report 0).
pub fn class_host_metrics(out: &mut Outcome, passes: &[Vec<(Class, u64)>]) {
    for class in Class::ALL {
        let per_pass: Vec<f64> = passes
            .iter()
            .map(|pass| {
                let us: Vec<f64> = pass
                    .iter()
                    .filter(|(c, _)| *c == class)
                    .map(|&(_, ns)| ns as f64 / 1e3)
                    .collect();
                mean(&us)
            })
            .collect();
        out.metric(
            &format!("class.{}.host_us", class.label()),
            median(&per_pass),
        );
    }
}

/// Write the traced run's spans, and their per-name totals, under `dir`.
pub fn write_trace(
    out: &mut Outcome,
    dir: &std::path::Path,
    workload: &str,
    seed: u64,
    spans: &[trace::Span],
    totals: &trace::SpanTotals,
) {
    let path = dir.join(format!("{workload}-seed{seed}.spans.jsonl"));
    match trace::dump_spans(&path, spans) {
        Ok(()) => out.notes.push(format!(
            "spans: {} written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => out
            .notes
            .push(format!("warning: could not write {}: {e}", path.display())),
    }
    out.notes.push(format!(
        "{:<28} {:>9} {:>14} {:>14}",
        "span", "calls", "total_us", "self_us"
    ));
    for (name, (calls, total, own)) in &totals.by_name {
        out.notes.push(format!(
            "{:<28} {:>9} {:>14.1} {:>14.1}",
            name,
            calls,
            *total as f64 / 1e3,
            *own as f64 / 1e3
        ));
    }
}

/// `n` stratified draws from a distribution with the given weights: the
/// i-th draw sits at quantile `(i + u) / n` for one uniform offset `u`.
/// Each draw still follows the distribution, but every seed offers the
/// same mix up to that offset, so a few rare, costly draws do not make
/// one seed's run unlike another's. Returns indices in quantile order.
pub fn stratified(weights: &[f64], n: usize, rng: &mut Rng) -> Vec<usize> {
    let total: f64 = weights.iter().sum();
    let u = rng.unit();
    let mut out = Vec::with_capacity(n);
    let (mut idx, mut cum) = (0, weights[0]);
    for i in 0..n {
        let target = (i as f64 + u) / n as f64 * total;
        while cum <= target && idx + 1 < weights.len() {
            idx += 1;
            cum += weights[idx];
        }
        out.push(idx);
    }
    out
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(v: &mut [T], rng: &mut Rng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
}

/// The mean of the middle half of `samples` (their median when fewer than
/// four): the host-time estimator. Host speed here drifts between slower
/// and faster spells lasting seconds, so the estimator drops the quarter
/// of passes at each end and averages the rest.
pub fn steady(samples: &[f64]) -> f64 {
    if samples.len() < 4 {
        return median(samples);
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let q = v.len() / 4;
    mean(&v[q..v.len() - q])
}
