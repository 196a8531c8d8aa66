//! `hot_zipf`: frequency-weighted queries over a zipf corpus, through a
//! shared cache smaller than the bytes the stream touches, served by the
//! caller-pumped async core under open-loop load.
//!
//! Stack: `SimulatedCloudStore(gcs_like)` → `CachedStore` → `Searcher` →
//! `AsyncQueryServer` (no executor threads, default storage slots and
//! admission). Every pass replays the same arrivals on a fresh stack, so
//! every simulated-clock figure repeats exactly under a seed.

use crate::oracle::{self, canonical, Oracle, Spec, TOP_K};
use crate::trace::{load, span, Probe, SpanTotals, Tracer};
use crate::{
    allocated_bytes, by_tracing, check_records, class_host_metrics, latency_metrics, median,
    percentile, plan_metrics, ratio, run_passes, set_up_repeatedly, shuffle, steady, stratified,
    Outcome, QueryRecord, Rng, RunConfig,
};
use airphant::{
    AirphantConfig, AsyncQueryServer, AsyncServerConfig, AsyncTicket, Builder, QueryOptions,
    QueryResponse, Searcher, ServeError, ServerStats, StagedEngine, SubmitSpec,
};
use airphant_corpus::{zipf, SyntheticSpec};
use airphant_storage::{
    CacheStats, CachedStore, InMemoryStore, IoStatsSnapshot, LatencyModel, ObjectStore,
    SimDuration, SimulatedCloudStore,
};
use std::sync::Arc;
use std::time::Instant;

/// Documents (and vocabulary words) of the zipf(d, d, 1) corpus.
pub const DOCS: u64 = 20_000;
/// Words per document.
pub const WORDS_PER_DOC: u64 = 10;
/// Sketch bins of the single segment.
pub const BINS: usize = 10_000;
/// Shared cache budget (data tier; the index tier gets an eighth more).
pub const CACHE_BYTES: usize = 256 << 10;
/// Offered open-loop rate of the measured stream, queries per simulated
/// second.
pub const RATE_QPS: f64 = 400.0;
/// Queries that warm the cache before the measured ones, on the same
/// arrival schedule.
pub const WARMUP: usize = 250;
/// Measured queries per pass.
pub const MEASURED: usize = 1_000;
/// One query in this many is a two-term `And` (20%); the rest are
/// single terms.
pub const AND_EVERY: usize = 5;
/// The capacity search's latency limit: p99 sojourn at most this much
/// above the unloaded p99.
pub const SLO_HEADROOM_MS: f64 = 200.0;
/// The capacity search's backlog test: the delay load adds to a query (its
/// sojourn minus its sojourn in the unloaded replay), medianed over the
/// last tenth of arrivals, may exceed the first tenth's by at most this.
pub const BACKLOG_SLACK_MS: f64 = 20.0;
/// Offered rates the capacity search brackets, queries per simulated
/// second.
pub const CAPACITY_RANGE: (f64, f64) = (50.0, 3_200.0);
/// Bisection steps of the capacity search (resolution 64^(1/128), ~3%).
pub const CAPACITY_STEPS: usize = 7;

struct Sizes {
    docs: u64,
    warmup: usize,
    measured: usize,
}

struct Built {
    raw: Arc<InMemoryStore>,
    setup_s: f64,
    build_s: f64,
    /// Heap bytes the index build asked for.
    build_alloc: u64,
    put_bytes: u64,
    corpus_bytes: u64,
    index_bytes: u64,
    docs: u64,
    oracle: Oracle,
    /// The vocabulary by descending document frequency.
    vocab: Vec<(String, u64)>,
}

fn config(seed: u64) -> AirphantConfig {
    AirphantConfig::default()
        .with_total_bins(BINS)
        .with_seed(seed)
}

/// Corpus generation + index build + open, timed.
fn set_up(sizes: &Sizes, seed: u64, tracer: Option<&Tracer>) -> Built {
    let t0 = Instant::now();
    let raw = Arc::new(InMemoryStore::new());
    let writes = Arc::new(Probe::new("setup.writes", raw.clone(), None));
    let spec = SyntheticSpec {
        n_docs: sizes.docs,
        n_vocab: sizes.docs,
        words_per_doc: WORDS_PER_DOC,
    };
    let corpus = zipf(spec, writes.clone(), "corpus", seed);
    let profile = corpus.profile().expect("profile the generated corpus");
    let corpus_bytes = load(&writes.counts.put_bytes);
    let tb = Instant::now();
    let a0 = allocated_bytes();
    let report = span(tracer, "builder.build_with_profile", || {
        Builder::new(config(seed)).build_with_profile(&corpus, "idx", profile.clone())
    })
    .expect("build the index");
    let build_alloc = allocated_bytes() - a0;
    let build_s = tb.elapsed().as_secs_f64();
    let sim = SimulatedCloudStore::new(raw.clone(), LatencyModel::gcs_like(), seed);
    Searcher::open(Arc::new(sim), "idx").expect("open the index");
    let setup_s = t0.elapsed().as_secs_f64();

    let mut oracle = Oracle::default();
    corpus
        .for_each_document(|d| {
            oracle.add(&d.text);
        })
        .expect("read the corpus back");
    oracle.finish();
    let vocab = profile.vocabulary_by_frequency();
    Built {
        raw,
        setup_s,
        build_s,
        build_alloc,
        put_bytes: load(&writes.counts.put_bytes),
        corpus_bytes,
        index_bytes: report.index_bytes(),
        docs: sizes.docs,
        oracle,
        vocab,
    }
}

/// `n` queries with frequency-weighted words (§IV-B alternative (a)):
/// every [`AND_EVERY`]-th is a two-term `And`, the rest single terms.
/// Words are stratified draws; an `And` couples the frequency quantile of
/// its first word with the quantile half a turn away for its second.
fn stream(vocab: &[(String, u64)], n: usize, rng: &mut Rng) -> Vec<Spec> {
    let weights: Vec<f64> = vocab.iter().map(|(_, f)| *f as f64).collect();
    let first = stratified(&weights, n, rng);
    let second = stratified(&weights, n, rng);
    let mut out: Vec<Spec> = (0..n)
        .map(|i| {
            let a = &vocab[first[i]].0;
            let b = &vocab[second[(i + n / 2) % n]].0;
            if i % AND_EVERY == AND_EVERY - 1 && a != b {
                Spec::And(a.clone(), b.clone())
            } else {
                Spec::Term(a.clone())
            }
        })
        .collect();
    shuffle(&mut out, rng);
    out
}

/// One pass over a fresh stack.
struct Pass {
    host_ns: u64,
    /// Heap bytes asked for while serving.
    alloc: u64,
    responses: Vec<QueryResponse>,
    stats: ServerStats,
    cache: CacheStats,
    sim: IoStatsSnapshot,
    /// Bytes read above the cache and below it, and repeated above it.
    probe_bytes: (u64, u64, u64),
    spans: Vec<crate::trace::Span>,
}

fn pass(
    built: &Built,
    queries: &[Spec],
    rate: f64,
    seed: u64,
    tracer: Option<Arc<Tracer>>,
) -> Pass {
    let sim = Arc::new(SimulatedCloudStore::new(
        built.raw.clone(),
        LatencyModel::gcs_like(),
        seed,
    ));
    let (below, above_probe, below_probe);
    match &tracer {
        Some(t) => {
            let p = Arc::new(Probe::new("store.sim", sim.clone(), Some(t.clone())));
            below = p.clone() as Arc<dyn ObjectStore>;
            below_probe = Some(p);
        }
        None => {
            below = sim.clone() as Arc<dyn ObjectStore>;
            below_probe = None;
        }
    }
    let cache = Arc::new(CachedStore::new(below, CACHE_BYTES));
    let top: Arc<dyn ObjectStore> = match &tracer {
        Some(t) => {
            let p = Arc::new(
                Probe::new("store.cache", cache.clone(), Some(t.clone())).tracking_repeats(),
            );
            above_probe = Some(p.clone());
            p
        }
        None => {
            above_probe = None;
            cache.clone()
        }
    };
    let searcher = Arc::new(Searcher::open(top, "idx").expect("open the index"));
    let cache_before = cache.stats();
    let probe_before = (
        above_probe
            .as_ref()
            .map_or(0, |p| load(&p.counts.read_bytes)),
        below_probe
            .as_ref()
            .map_or(0, |p| load(&p.counts.read_bytes)),
        above_probe
            .as_ref()
            .map_or(0, |p| load(&p.counts.repeat_bytes)),
    );
    sim.reset_stats();
    if let Some(t) = &tracer {
        t.take();
    }
    let server = AsyncQueryServer::start(
        searcher as Arc<dyn StagedEngine>,
        AsyncServerConfig::new().with_executor_threads(0),
    );
    let tr = tracer.as_deref();
    let opts = QueryOptions::new().top_k(TOP_K);

    let t0 = Instant::now();
    let a0 = allocated_bytes();
    let tickets: Vec<AsyncTicket> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            if let Some(t) = tr {
                t.set_query(i as u64 + 1);
            }
            let at = SimDuration::from_secs_f64(i as f64 / rate);
            span(tr, "serve.submit_at", || {
                server.submit_at(q.query(), opts.clone(), SubmitSpec::new().at(at))
            })
        })
        .collect();
    if let Some(t) = tr {
        t.set_query(0);
    }
    span(tr, "serve.drain", || server.drain());
    let responses: Vec<QueryResponse> = tickets.into_iter().map(AsyncTicket::wait).collect();
    let host_ns = t0.elapsed().as_nanos() as u64;
    let alloc = allocated_bytes() - a0;

    let stats = server.shutdown();
    let after = cache.stats();
    let cache_delta = CacheStats {
        index_hits: after.index_hits - cache_before.index_hits,
        index_misses: after.index_misses - cache_before.index_misses,
        superpost_hits: after.superpost_hits - cache_before.superpost_hits,
        superpost_misses: after.superpost_misses - cache_before.superpost_misses,
        data_hits: after.data_hits - cache_before.data_hits,
        data_misses: after.data_misses - cache_before.data_misses,
        ..after
    };
    Pass {
        host_ns,
        alloc,
        responses,
        stats,
        cache: cache_delta,
        sim: sim.stats(),
        probe_bytes: (
            above_probe
                .as_ref()
                .map_or(0, |p| load(&p.counts.read_bytes))
                - probe_before.0,
            below_probe
                .as_ref()
                .map_or(0, |p| load(&p.counts.read_bytes))
                - probe_before.1,
            above_probe
                .as_ref()
                .map_or(0, |p| load(&p.counts.repeat_bytes))
                - probe_before.2,
        ),
        spans: tracer.as_ref().map(|t| t.take()).unwrap_or_default(),
    }
}

/// Served, shed and failed counts of a pass's measured queries.
fn outcomes(p: &Pass, warmup: usize) -> (u64, u64, u64) {
    let (mut ok, mut shed, mut failed) = (0, 0, 0);
    for r in &p.responses[warmup..] {
        match &r.result {
            Ok(_) => ok += 1,
            Err(ServeError::Rejected(_)) => shed += 1,
            Err(_) => failed += 1,
        }
    }
    (ok, shed, failed)
}

fn sojourns(p: &Pass, warmup: usize) -> Vec<f64> {
    p.responses[warmup..]
        .iter()
        .map(|r| r.sojourn.as_millis_f64())
        .collect()
}

/// The highest offered rate whose p99 sojourn is within the SLO, with
/// nothing shed and no growing backlog: a bisection in log space between
/// [`CAPACITY_RANGE`]'s ends, taken to pass and fail respectively.
fn capacity(built: &Built, queries: &[Spec], sizes: &Sizes, seed: u64) -> (f64, f64) {
    let unloaded = sojourns(&pass(built, queries, 1.0, seed, None), sizes.warmup);
    let slo = percentile(&unloaded, 0.99) + SLO_HEADROOM_MS;
    let meets = |rate: f64| {
        let p = pass(built, queries, rate, seed, None);
        let s = sojourns(&p, sizes.warmup);
        let (_, shed, failed) = outcomes(&p, sizes.warmup);
        // What load adds to each query, in arrival order: its sojourn
        // minus its sojourn in the unloaded replay. (The async core counts
        // waiting for a storage slot in the query's own trace, so sojourn
        // minus trace total does not show a backlog.)
        let queued: Vec<f64> = s.iter().zip(&unloaded).map(|(a, b)| a - b).collect();
        let tenth = queued.len() / 10;
        let first = median(&queued[..tenth]);
        let last = median(&queued[queued.len() - tenth..]);
        shed == 0 && failed == 0 && percentile(&s, 0.99) <= slo && last <= first + BACKLOG_SLACK_MS
    };
    let (mut lo, mut hi) = CAPACITY_RANGE;
    for _ in 0..CAPACITY_STEPS {
        let mid = (lo * hi).sqrt();
        if meets(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo, slo)
}

/// Run the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let sizes = if cfg.small {
        Sizes {
            docs: 2_000,
            warmup: 100,
            measured: 1_000,
        }
    } else {
        Sizes {
            docs: DOCS,
            warmup: WARMUP,
            measured: MEASURED,
        }
    };
    let seed = cfg.seed;
    let mut out = Outcome::default();
    let setup_tracer = cfg.trace.then(Tracer::default);

    let (built, setup_times, build_times) = set_up_repeatedly(
        |first| set_up(&sizes, seed, setup_tracer.as_ref().filter(|_| first)),
        |b| (b.setup_s, b.build_s),
    );
    let mut rng = Rng::new(seed ^ 0xA5);
    let mut queries = stream(&built.vocab, sizes.warmup, &mut rng);
    queries.extend(stream(&built.vocab, sizes.measured, &mut rng));
    let sim_seed = seed ^ 0x5151;

    // Timed phase: identical replays on fresh stacks.
    let passes = run_passes(cfg, |i, tracer| {
        let mut p = pass(&built, &queries, RATE_QPS, sim_seed, tracer);
        if i > 1 {
            // The first pass is checked and the second traced; later
            // passes only time.
            p.responses = Vec::new();
        }
        p
    });
    let total = queries.len() as f64;
    let host_us: Vec<f64> = passes
        .iter()
        .map(|p| p.host_ns as f64 / 1e3 / total)
        .collect();
    let (untraced, traced_us) = by_tracing(cfg, &host_us);
    out.notes
        .push(format!("host us/query per pass: {untraced:.1?}"));
    let first = &passes[0];

    // Checks, outside the timed phase.
    let reference = Searcher::open(
        Arc::new(SimulatedCloudStore::new(
            built.raw.clone(),
            LatencyModel::gcs_like(),
            sim_seed,
        )),
        "idx",
    )
    .expect("open the uncached reference");
    out.notes.push(format!(
        "false-positive target F0 {}; top-k failure probability delta {}",
        reference.accuracy_f0(),
        config(seed).topk_delta
    ));
    let opts = QueryOptions::new().top_k(TOP_K);
    let mut records = Vec::with_capacity(sizes.measured);
    let mut mismatched = 0;
    for (q, r) in queries.iter().zip(&first.responses).skip(sizes.warmup) {
        let Ok(result) = &r.result else { continue };
        let truth = built.oracle.matches(q, built.oracle.docs());
        let verdict = oracle::check(q, &result.hits, truth);
        let direct = reference
            .execute(&q.query(), &opts)
            .expect("reference query");
        if canonical(&direct.hits) != canonical(&result.hits) {
            mismatched += 1;
        }
        records.push(QueryRecord::of(
            q.class(),
            result,
            r.sojourn.as_millis_f64(),
            0,
            verdict,
        ));
    }
    if mismatched > 0 {
        out.fail(format!(
            "{mismatched} served results differ from a direct execute on an uncached stack"
        ));
    }
    check_records(&mut out, &records);
    let repeats = passes
        .iter()
        .filter(|p| !p.responses.is_empty())
        .filter(|p| sojourns(p, sizes.warmup) != sojourns(first, sizes.warmup))
        .count();
    if repeats > 0 {
        out.notes.push(format!(
            "warning: {repeats} of {} replays gave other sojourns than the first",
            passes.len()
        ));
    }

    let (ok, shed, failed) = outcomes(first, 0);
    out.attempted = queries.len() as u64;
    out.failed = shed + failed;
    let (capacity_qps, slo) = capacity(&built, &queries, &sizes, sim_seed);
    out.notes.push(format!(
        "offered {RATE_QPS} q/s; capacity {capacity_qps:.1} q/s at p99 sojourn <= {slo:.1} ms"
    ));

    latency_metrics(&mut out, &records);
    out.metric("host_us_per_query", steady(&untraced));
    out.metric("capacity_qps", capacity_qps);
    out.metric("served_frac", ratio(ok as f64, total));
    let allocs: Vec<f64> = passes.iter().map(|p| p.alloc as f64 / total).collect();
    out.metric("alloc_bytes_per_query", median(&by_tracing(cfg, &allocs).0));
    out.metric(
        "alloc_bytes_per_doc",
        built.build_alloc as f64 / built.docs as f64,
    );
    out.metric(
        "ingest_docs_per_s",
        built.docs as f64 / steady(&build_times),
    );
    out.metric(
        "write_amp",
        ratio(built.put_bytes as f64, built.corpus_bytes as f64),
    );
    out.metric("setup_s", median(&setup_times));
    out.notes.push(format!(
        "sizes: corpus {} B, index {} B, cache {} B, bytes fetched below the cache per pass {} B",
        built.corpus_bytes,
        built.index_bytes,
        CACHE_BYTES + CACHE_BYTES / 8,
        first.sim.bytes_read
    ));

    for (name, v) in [
        ("query_p50_ms", out.get("query_p50_ms").unwrap_or(0.0)),
        ("query_p99_ms", out.get("query_p99_ms").unwrap_or(0.0)),
        ("capacity_qps", capacity_qps),
        ("sim.requests", first.sim.read_requests as f64),
        ("sim.batches", first.sim.batches as f64),
        ("sim.bytes", first.sim.bytes_read as f64),
        ("cache.hits", first.cache.hits() as f64),
        ("cache.misses", first.cache.misses() as f64),
        ("serve.peak_in_flight", first.stats.peak_in_flight as f64),
        ("serve.completed", first.stats.completed as f64),
        ("admission.shed", shed as f64),
    ] {
        out.count(name, v);
    }

    if cfg.trace {
        let traced = &passes[1];
        let spans = SpanTotals::of(&traced.spans);
        let (_, traced_shed, _) = outcomes(traced, 0);
        for (what, a, b) in [
            (
                "sim requests",
                first.sim.read_requests,
                traced.sim.read_requests,
            ),
            ("sim batches", first.sim.batches, traced.sim.batches),
            ("sim bytes", first.sim.bytes_read, traced.sim.bytes_read),
            ("cache hits", first.cache.hits(), traced.cache.hits()),
            ("shed", shed, traced_shed),
        ] {
            if a != b {
                out.fail(format!(
                    "traced run changed a count: {what} {a} untraced vs {b} traced"
                ));
            }
        }
        plan_metrics(&mut out, &records);
        class_host_metrics(&mut out, &[]);
        let queue: Vec<f64> = records
            .iter()
            .map(|r| (r.latency_ms - r.trace_ms).max(0.0))
            .collect();
        out.metric("serve.queue_p99_ms", percentile(&queue, 0.99));
        out.metric("serve.peak_in_flight", traced.stats.peak_in_flight as f64);
        out.metric("admission.shed", traced_shed as f64);
        let c = &traced.cache;
        let hr = |h: u64, m: u64| ratio(h as f64, (h + m) as f64);
        out.metric("cache.hit_rate.index", hr(c.index_hits, c.index_misses));
        out.metric(
            "cache.hit_rate.superpost",
            hr(c.superpost_hits, c.superpost_misses),
        );
        out.metric("cache.hit_rate.data", hr(c.data_hits, c.data_misses));
        let (above, below, repeated) = traced.probe_bytes;
        out.notes.push(format!(
            "bytes touched per pass (distinct ranges asked of the cache): {} B",
            above - repeated
        ));
        out.metric(
            "cache.bytes_avoided_per_query",
            (above as f64 - below as f64) / total,
        );
        out.metric("cache.self_us", spans.self_us("store.cache") / total);
        out.metric(
            "workload.rerequested_bytes_share",
            ratio(repeated as f64, above as f64),
        );
        let s = &traced.sim;
        out.metric("sim.requests_per_query", s.read_requests as f64 / total);
        out.metric(
            "sim.requests_untraced_per_query",
            first.sim.read_requests as f64 / total,
        );
        out.metric("sim.batches_per_query", s.batches as f64 / total);
        out.metric("sim.bytes_per_query", s.bytes_read as f64 / total);
        out.metric("sim.spiked", s.spiked as f64);
        out.metric("segments.live", 1.0);
        out.metric("builder.build_s", median(&build_times));
        out.metric(
            "builder.index_bytes_per_doc",
            built.index_bytes as f64 / built.docs as f64,
        );
        out.metric(
            "trace.overhead_us_per_query",
            steady(&traced_us) - steady(&untraced),
        );
        out.notes.push(format!(
            "traced pass: {} spans; {} passes in all",
            traced.spans.len(),
            passes.len()
        ));
        if let Some(dir) = &cfg.out_dir {
            let mut all = setup_tracer.map(|t| t.take()).unwrap_or_default();
            all.extend_from_slice(&traced.spans);
            crate::write_trace(&mut out, dir, "hot_zipf", seed, &all, &spans);
        }
    }
    out
}
