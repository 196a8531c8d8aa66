//! `cold_sharded_logs`: uniformly drawn `Term`, `And`, `Prefix` and
//! `Fuzzy` queries over the HDFS look-alike, appended as several segments
//! and split across four shards, from one closed-loop client.
//!
//! Stack: one `SimulatedCloudStore` per region of
//! `RegionProfile::paper_spread()` (the nearest with a Pareto long tail)
//! → `ReplicatedStore` → `CoalescingStore` (default configuration) →
//! `CachedStore` far smaller than the index → `ShardedSearcher`, called
//! through the `SearchEngine` trait.

use crate::oracle::{self, Class, Oracle, Spec, TOP_K};
use crate::trace::{load, span, Probe, SpanTotals, Tracer};
use crate::{
    allocated_bytes, by_tracing, check_records, class_host_metrics, latency_metrics, mean, median,
    percentile, plan_metrics, ratio, run_passes, set_up_repeatedly, shuffle, steady, stratified,
    Outcome, QueryRecord, Rng, RunConfig,
};
use airphant::{
    AirphantConfig, QueryOptions, SearchEngine, SearchResult, ShardRouter, ShardedSearcher,
};
use airphant_corpus::{hdfs_like, LogCorpusSpec};
use airphant_storage::{
    CacheStats, CachedStore, CoalescingStore, InMemoryStore, IoStatsSnapshot, LatencyModel,
    ObjectStore, RegionProfile, ReplicatedStore, SchedulerStats, SimulatedCloudStore,
};
use std::sync::Arc;
use std::time::Instant;

/// Log lines in the corpus.
pub const DOCS: u64 = 8_000;
/// Appends (segments per shard).
pub const PARTS: u64 = 4;
/// Shards.
pub const SHARDS: usize = 4;
/// Sketch bins per segment.
pub const BINS: usize = 1_000;
/// Cache budget, far below the index size.
pub const CACHE_BYTES: usize = 64 << 10;
/// Queries per pass, all distinct draws.
pub const QUERIES: usize = 1_000;
/// The nearest region's long tail: probability and Pareto shape.
pub const TAIL: (f64, f64) = (0.01, 3.0);
/// Query mix, repeated: 40% `Term`, 20% each of `And`, `Prefix` (the
/// word less its last letter; a `Term` for words under four letters) and
/// `Fuzzy` (one edit).
pub const PATTERN: [Class; 5] = [
    Class::Term,
    Class::Term,
    Class::And,
    Class::Prefix,
    Class::Fuzzy,
];

struct Built {
    raw: Arc<InMemoryStore>,
    setup_s: f64,
    build_s: f64,
    /// Heap bytes the appends to the shards asked for.
    build_alloc: u64,
    put_bytes: u64,
    corpus_bytes: u64,
    index_bytes: u64,
    docs: u64,
    oracle: Oracle,
}

fn set_up(docs: u64, seed: u64, tracer: Option<&Tracer>) -> Built {
    let t0 = Instant::now();
    let raw = Arc::new(InMemoryStore::new());
    let writes = Arc::new(Probe::new("setup.writes", raw.clone(), None));
    let store: Arc<dyn ObjectStore> = writes.clone();
    let config = AirphantConfig::default()
        .with_total_bins(BINS)
        .with_seed(seed);
    let router =
        ShardRouter::create(store.clone(), "idx", SHARDS).expect("create the shard layout");
    let mut corpora = Vec::new();
    let mut corpus_bytes = 0;
    let mut build_s = 0.0;
    let mut build_alloc = 0;
    let mut index_bytes = 0;
    for part in 0..PARTS {
        let before = load(&writes.counts.put_bytes);
        let spec = LogCorpusSpec::new(docs / PARTS, seed.wrapping_mul(31).wrapping_add(part));
        let corpus = hdfs_like(spec, store.clone(), &format!("corpus/part{part}"));
        corpus_bytes += load(&writes.counts.put_bytes) - before;
        let tb = Instant::now();
        let a0 = allocated_bytes();
        let appended = span(tracer, "shard.append", || router.append(&corpus, &config))
            .expect("append a part to the shards");
        build_alloc += allocated_bytes() - a0;
        build_s += tb.elapsed().as_secs_f64();
        index_bytes += appended
            .iter()
            .filter_map(|a| a.report.as_ref())
            .map(|r| r.index_bytes())
            .sum::<u64>();
        corpora.push(corpus);
    }
    let sim = SimulatedCloudStore::new(raw.clone(), LatencyModel::gcs_like(), seed);
    ShardRouter::open(Arc::new(sim), "idx")
        .and_then(|r| r.open_searcher())
        .expect("open the sharded index");
    let setup_s = t0.elapsed().as_secs_f64();

    let mut oracle = Oracle::default();
    for corpus in &corpora {
        corpus
            .for_each_document(|d| {
                oracle.add(&d.text);
            })
            .expect("read the corpus back");
    }
    oracle.finish();
    Built {
        raw,
        setup_s,
        build_s,
        build_alloc,
        put_bytes: load(&writes.counts.put_bytes),
        corpus_bytes,
        index_bytes,
        docs,
        oracle,
    }
}

/// `n` queries over uniformly drawn words (the paper's default prior), in
/// the fixed class pattern [`PATTERN`]. Words are stratified draws over
/// the sorted vocabulary; an `And`'s second word is the draw half a turn
/// away.
fn stream(oracle: &Oracle, n: usize, seed: u64) -> Vec<Spec> {
    let vocab = oracle.vocabulary();
    let mut rng = Rng::new(seed ^ 0xC01D);
    let uniform = vec![1.0; vocab.len()];
    let draws = stratified(&uniform, n, &mut rng);
    let mut out: Vec<Spec> = (0..n)
        .map(|i| {
            let w = vocab[draws[i]].clone();
            match PATTERN[i % PATTERN.len()] {
                Class::And => Spec::And(w, vocab[draws[(i + n / 2) % n]].clone()),
                Class::Prefix if w.len() >= 4 => Spec::Prefix(w[..w.len() - 1].to_owned()),
                Class::Fuzzy => Spec::Fuzzy(w),
                _ => Spec::Term(w),
            }
        })
        .collect();
    shuffle(&mut out, &mut rng);
    out
}

/// A fresh stack, with probes at every boundary when traced.
struct Stack {
    sims: Vec<Arc<SimulatedCloudStore<Arc<InMemoryStore>>>>,
    replicated: Arc<ReplicatedStore>,
    scheduler: Arc<CoalescingStore<Arc<dyn ObjectStore>>>,
    cache: Arc<CachedStore<Arc<dyn ObjectStore>>>,
    probes: Vec<Arc<Probe>>,
    searcher: ShardedSearcher,
}

fn stack(raw: &Arc<InMemoryStore>, seed: u64, tracer: Option<&Arc<Tracer>>) -> Stack {
    let mut probes = Vec::new();
    let mut wrap =
        |name: &'static str, s: Arc<dyn ObjectStore>, repeats: bool| -> Arc<dyn ObjectStore> {
            match tracer {
                Some(t) => {
                    let mut p = Probe::new(name, s, Some(t.clone()));
                    if repeats {
                        p = p.tracking_repeats();
                    }
                    let p = Arc::new(p);
                    probes.push(p.clone());
                    p
                }
                None => s,
            }
        };
    let mut sims = Vec::new();
    let regions = RegionProfile::paper_spread()
        .into_iter()
        .enumerate()
        .map(|(i, profile)| {
            let model = if i == 0 {
                LatencyModel::builder().long_tail(TAIL.0, TAIL.1).build()
            } else {
                LatencyModel::gcs_like()
            }
            .with_region(profile.clone());
            let sim = Arc::new(SimulatedCloudStore::new(
                raw.clone(),
                model,
                seed + i as u64,
            ));
            sims.push(sim.clone());
            (profile, wrap("store.region", sim, false))
        })
        .collect();
    let replicated = Arc::new(ReplicatedStore::new(regions));
    let scheduler = Arc::new(CoalescingStore::new(wrap(
        "store.replicated",
        replicated.clone(),
        false,
    )));
    let cache = Arc::new(CachedStore::new(
        wrap("store.scheduler", scheduler.clone(), false),
        CACHE_BYTES,
    ));
    let top = wrap("store.cache", cache.clone(), true);
    let searcher = ShardRouter::open(top, "idx")
        .and_then(|r| r.open_searcher())
        .expect("open the sharded index");
    Stack {
        sims,
        replicated,
        scheduler,
        cache,
        probes,
        searcher,
    }
}

struct Counters {
    sim: IoStatsSnapshot,
    scheduler: SchedulerStats,
    cache: CacheStats,
    region_reads: Vec<u64>,
    rerouted: u64,
    demotions: u64,
    probe_bytes: Vec<(u64, u64)>,
}

impl Stack {
    fn counters(&self) -> Counters {
        let mut sim = IoStatsSnapshot::default();
        for s in &self.sims {
            let x = s.stats();
            sim.read_requests += x.read_requests;
            sim.batches += x.batches;
            sim.bytes_read += x.bytes_read;
            sim.spiked += x.spiked;
        }
        let rep = self.replicated.stats();
        Counters {
            sim,
            scheduler: self.scheduler.stats(),
            cache: self.cache.stats(),
            region_reads: rep.reads_by_region.iter().map(|r| r.1).collect(),
            rerouted: rep.rerouted_reads,
            demotions: rep.demotions,
            probe_bytes: self
                .probes
                .iter()
                .map(|p| (load(&p.counts.read_bytes), load(&p.counts.repeat_bytes)))
                .collect(),
        }
    }
}

impl Counters {
    fn since(&self, before: &Counters) -> Counters {
        Counters {
            sim: IoStatsSnapshot {
                read_requests: self.sim.read_requests - before.sim.read_requests,
                batches: self.sim.batches - before.sim.batches,
                bytes_read: self.sim.bytes_read - before.sim.bytes_read,
                spiked: self.sim.spiked - before.sim.spiked,
                ..self.sim
            },
            scheduler: SchedulerStats {
                merged_ranges: self.scheduler.merged_ranges - before.scheduler.merged_ranges,
                fused_batches: self.scheduler.fused_batches - before.scheduler.fused_batches,
                bytes_saved: self.scheduler.bytes_saved - before.scheduler.bytes_saved,
                bytes_padded: self.scheduler.bytes_padded - before.scheduler.bytes_padded,
                backend_batches: self.scheduler.backend_batches - before.scheduler.backend_batches,
            },
            cache: CacheStats {
                index_hits: self.cache.index_hits - before.cache.index_hits,
                index_misses: self.cache.index_misses - before.cache.index_misses,
                superpost_hits: self.cache.superpost_hits - before.cache.superpost_hits,
                superpost_misses: self.cache.superpost_misses - before.cache.superpost_misses,
                data_hits: self.cache.data_hits - before.cache.data_hits,
                data_misses: self.cache.data_misses - before.cache.data_misses,
                ..self.cache
            },
            region_reads: self
                .region_reads
                .iter()
                .zip(&before.region_reads)
                .map(|(a, b)| a - b)
                .collect(),
            rerouted: self.rerouted - before.rerouted,
            demotions: self.demotions - before.demotions,
            probe_bytes: self
                .probe_bytes
                .iter()
                .zip(&before.probe_bytes)
                .map(|(a, b)| (a.0 - b.0, a.1 - b.1))
                .collect(),
        }
    }
}

struct Pass {
    host_ns: u64,
    /// Heap bytes asked for while serving.
    alloc: u64,
    results: Vec<Result<SearchResult, airphant::AirphantError>>,
    host_by_query: Vec<u64>,
    counters: Counters,
    spans: Vec<crate::trace::Span>,
}

fn pass(built: &Built, queries: &[Spec], seed: u64, tracer: Option<Arc<Tracer>>) -> Pass {
    let st = stack(&built.raw, seed, tracer.as_ref());
    let before = st.counters();
    if let Some(t) = &tracer {
        t.take();
    }
    let tr = tracer.as_deref();
    let engine: &dyn SearchEngine = &st.searcher;
    let opts = QueryOptions::new().top_k(TOP_K);
    let mut results = Vec::with_capacity(queries.len());
    let mut host_by_query = Vec::with_capacity(queries.len());
    let t0 = Instant::now();
    let a0 = allocated_bytes();
    for (i, q) in queries.iter().enumerate() {
        if let Some(t) = tr {
            t.set_query(i as u64 + 1);
        }
        let tq = Instant::now();
        results.push(span(tr, "engine.execute", || {
            engine.execute(&q.query(), &opts)
        }));
        host_by_query.push(tq.elapsed().as_nanos() as u64);
    }
    let alloc = allocated_bytes() - a0;
    let host_ns = t0.elapsed().as_nanos() as u64;
    Pass {
        host_ns,
        alloc,
        results,
        host_by_query,
        counters: st.counters().since(&before),
        spans: tracer.as_ref().map(|t| t.take()).unwrap_or_default(),
    }
}

/// Every shard's `execute` timed alone beside the sharded call, on a
/// fresh stack: (mean gather host µs, p99 straggler ms).
fn shard_solo(built: &Built, queries: &[Spec], seed: u64, tracer: &Tracer) -> (f64, f64) {
    let st = stack(&built.raw, seed, None);
    let opts = QueryOptions::new().top_k(TOP_K);
    let mut gather = Vec::with_capacity(queries.len());
    let mut straggle = Vec::with_capacity(queries.len());
    for (i, q) in queries.iter().enumerate() {
        tracer.set_query(i as u64 + 1);
        let query = q.query();
        let t = Instant::now();
        let whole = tracer.span("engine.execute", || st.searcher.execute(&query, &opts));
        let whole_ns = t.elapsed().as_nanos() as f64;
        let mut slowest_ns: f64 = 0.0;
        let mut lat = Vec::new();
        for shard in st.searcher.shards() {
            let t = Instant::now();
            let r = tracer.span("shard.execute", || shard.execute(&query, &opts));
            slowest_ns = slowest_ns.max(t.elapsed().as_nanos() as f64);
            if let Ok(r) = r {
                lat.push(r.trace.total().as_millis_f64());
            }
        }
        if whole.is_ok() && !lat.is_empty() {
            gather.push((whole_ns - slowest_ns) / 1e3);
            let slowest = lat.iter().copied().fold(0.0, f64::max);
            straggle.push(slowest - median(&lat));
        }
    }
    (mean(&gather), percentile(&straggle, 0.99))
}

/// Run the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let (docs, n_queries) = if cfg.small {
        (2_000, 200)
    } else {
        (DOCS, QUERIES)
    };
    let seed = cfg.seed;
    let mut out = Outcome::default();
    let setup_tracer = cfg.trace.then(Tracer::default);
    let (built, setup_times, build_times) = set_up_repeatedly(
        |first| set_up(docs, seed, setup_tracer.as_ref().filter(|_| first)),
        |b| (b.setup_s, b.build_s),
    );
    let queries = stream(&built.oracle, n_queries, seed);
    let sim_seed = seed ^ 0x5151;

    let passes = run_passes(cfg, |i, tracer| {
        let mut p = pass(&built, &queries, sim_seed, tracer);
        if i > 0 {
            // Only the first pass's results are checked and reported.
            p.results = Vec::new();
        }
        p
    });
    let n = queries.len() as f64;
    let host_us: Vec<f64> = passes.iter().map(|p| p.host_ns as f64 / 1e3 / n).collect();
    let (untraced, traced_us) = by_tracing(cfg, &host_us);
    let first = &passes[0];

    let mut records = Vec::with_capacity(queries.len());
    let mut failed = 0;
    for ((q, r), host_ns) in queries.iter().zip(&first.results).zip(&first.host_by_query) {
        match r {
            Ok(result) => {
                let truth = built.oracle.matches(q, built.oracle.docs());
                let verdict = oracle::check(q, &result.hits, truth);
                let lat = result.trace.total().as_millis_f64();
                records.push(QueryRecord::of(q.class(), result, lat, *host_ns, verdict));
            }
            Err(_) => failed += 1,
        }
    }
    check_records(&mut out, &records);
    let mut costliest: Vec<(u64, &Spec)> =
        first.host_by_query.iter().copied().zip(&queries).collect();
    costliest.sort_by_key(|c| std::cmp::Reverse(c.0));
    for (ns, q) in costliest.iter().take(5) {
        out.notes.push(format!(
            "costly query: {:.1} ms host, {q:?}",
            *ns as f64 / 1e6
        ));
    }
    out.attempted = queries.len() as u64;
    out.failed = failed;

    latency_metrics(&mut out, &records);
    let sim_s: f64 = records.iter().map(|r| r.latency_ms).sum::<f64>() / 1e3;
    out.metric("host_us_per_query", steady(&untraced));
    out.metric("capacity_qps", ratio(records.len() as f64, sim_s));
    out.metric("served_frac", ratio(records.len() as f64, n));
    let allocs: Vec<f64> = passes.iter().map(|p| p.alloc as f64 / n).collect();
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
        "sizes: corpus {} B, index {} B, cache {} B, bytes read from the regions per pass {} B",
        built.corpus_bytes,
        built.index_bytes,
        CACHE_BYTES + CACHE_BYTES / 8,
        first.counters.sim.bytes_read
    ));
    out.notes.push(
        "capacity_qps here is the closed-loop rate of one client on the simulated clock".into(),
    );
    for (name, v) in [
        ("sim.requests", first.counters.sim.read_requests as f64),
        ("sim.bytes", first.counters.sim.bytes_read as f64),
        ("cache.hits", first.counters.cache.hits() as f64),
    ] {
        out.count(name, v);
    }

    if cfg.trace {
        let traced_pass = &passes[1];
        let c = &traced_pass.counters;
        let spans = SpanTotals::of(&traced_pass.spans);
        let untraced_hosts: Vec<Vec<(Class, u64)>> = passes
            .iter()
            .step_by(2)
            .map(|p| {
                queries
                    .iter()
                    .map(Spec::class)
                    .zip(p.host_by_query.iter().copied())
                    .collect()
            })
            .collect();
        plan_metrics(&mut out, &records);
        class_host_metrics(&mut out, &untraced_hosts);
        let solo = Tracer::default();
        let (gather_us, straggler_ms) = shard_solo(&built, &queries, sim_seed, &solo);
        out.metric("shard.gather_host_us", gather_us);
        out.metric("shard.straggler_ms", straggler_ms);
        let hr = |h: u64, m: u64| ratio(h as f64, (h + m) as f64);
        out.metric(
            "cache.hit_rate.index",
            hr(c.cache.index_hits, c.cache.index_misses),
        );
        out.metric(
            "cache.hit_rate.superpost",
            hr(c.cache.superpost_hits, c.cache.superpost_misses),
        );
        out.metric(
            "cache.hit_rate.data",
            hr(c.cache.data_hits, c.cache.data_misses),
        );
        // Probes in creation order: three regions, replicated, scheduler, cache.
        let bytes = |i: usize| c.probe_bytes.get(i).copied().unwrap_or((0, 0));
        let (above_cache, repeated) = bytes(5);
        let (below_cache, _) = bytes(4);
        out.notes.push(format!(
            "bytes touched per pass (distinct ranges asked of the cache): {} B",
            above_cache - repeated
        ));
        out.metric(
            "cache.bytes_avoided_per_query",
            (above_cache as f64 - below_cache as f64) / n,
        );
        out.metric("cache.self_us", spans.self_us("store.cache") / n);
        out.metric(
            "workload.rerequested_bytes_share",
            ratio(repeated as f64, above_cache as f64),
        );
        let s = &c.scheduler;
        out.metric("scheduler.merged_ranges", s.merged_ranges as f64);
        out.metric("scheduler.fused_batches", s.fused_batches as f64);
        out.metric("scheduler.bytes_padded", s.bytes_padded as f64);
        out.metric("scheduler.backend_batches", s.backend_batches as f64);
        out.metric("scheduler.self_us", spans.self_us("store.scheduler") / n);
        let reads: u64 = c.region_reads.iter().sum();
        out.metric(
            "replicated.nearest_frac",
            ratio(
                c.region_reads.first().copied().unwrap_or(0) as f64,
                reads as f64,
            ),
        );
        out.metric("replicated.rerouted_reads", c.rerouted as f64);
        out.metric("replicated.demotions", c.demotions as f64);
        out.metric("sim.requests_per_query", c.sim.read_requests as f64 / n);
        out.metric(
            "sim.requests_untraced_per_query",
            first.counters.sim.read_requests as f64 / n,
        );
        out.metric("sim.batches_per_query", c.sim.batches as f64 / n);
        out.metric("sim.bytes_per_query", c.sim.bytes_read as f64 / n);
        out.metric("sim.spiked", c.sim.spiked as f64);
        let (segments, f0) = fan_out(&built);
        out.metric("segments.live", segments);
        out.notes.push(format!(
            "false-positive target F0 {f0}; top-k failure probability delta {}",
            AirphantConfig::default().topk_delta
        ));
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
            traced_pass.spans.len(),
            passes.len()
        ));
        if let Some(dir) = &cfg.out_dir {
            let mut all = setup_tracer.map(|t| t.take()).unwrap_or_default();
            all.extend_from_slice(&traced_pass.spans);
            all.extend(solo.take());
            crate::write_trace(&mut out, dir, "cold_sharded_logs", seed, &all, &spans);
        }
    }
    out
}

/// Segments a query fans out to (the sum over shards), and the index's
/// false-positive target F0.
fn fan_out(built: &Built) -> (f64, f64) {
    let st = stack(&built.raw, 0, None);
    let shards = st.searcher.shards();
    let segments = shards.iter().map(|s| s.segment_count() as f64).sum();
    let f0 = shards
        .iter()
        .flat_map(|s| s.segments().first())
        .map(|s| s.accuracy_f0())
        .next()
        .unwrap_or(0.0);
    (segments, f0)
}
