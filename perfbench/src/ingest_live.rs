//! `ingest_live`: one thread appends a seeded stream of log lines to a
//! `LiveIndex`, flushes every [`FLUSH_EVERY`] appends, compacts every
//! [`COMPACT_EVERY`] flushes with deferred GC (reclaimed after the next
//! flush, once the live index has picked up the new generation), and in
//! between issues freshness probes and historical term queries.
//!
//! Stack: `InMemoryStore` → `SimulatedCloudStore(gcs_like)` → a
//! write-counting probe → `LiveIndex`.

use crate::oracle::{self, Class, Oracle, Spec, TOP_K};
use crate::trace::{load, span, Probe, SpanTotals, Tracer};
use crate::{
    allocated_bytes, by_tracing, check_records, latency_metrics, mean, median, percentile,
    plan_metrics, ratio, run_passes, set_up_repeatedly, shuffle, steady, stratified, Outcome,
    QueryRecord, Rng, RunConfig,
};
use airphant::{
    AirphantConfig, CompactionPolicy, Compactor, FlushPolicy, LiveIndex, QueryOptions,
    SearchEngine, SearchResult, SegmentManager, StagedEngine,
};
use airphant_corpus::{hdfs_like, LogCorpusSpec};
use airphant_storage::{
    InMemoryStore, IoStatsSnapshot, LatencyModel, ObjectStore, SimulatedCloudStore,
};
use std::sync::Arc;
use std::time::Instant;

/// Historical log lines indexed before the stream starts.
pub const HISTORY: u64 = 16_000;
/// Lines appended per pass.
pub const APPENDS: usize = 4_096;
/// Group commit: the active memtable seals at this many documents.
pub const SEAL_DOCS: usize = 256;
/// Appends between `flush` calls.
pub const FLUSH_EVERY: usize = 256;
/// Flushes between compactions.
pub const COMPACT_EVERY: usize = 2;
/// Compaction policy: live-segment bound and merge factor.
pub const MAX_LIVE: usize = 4;
/// Segments merged per compaction round, at most.
pub const MERGE_FACTOR: usize = 4;
/// Appends between freshness probes.
pub const PROBE_EVERY: usize = 8;
/// Appends between historical term queries.
pub const READ_EVERY: usize = 4;
/// Sketch bins per segment.
pub const BINS: usize = 1_000;

struct Sizes {
    history: u64,
    appends: usize,
}

struct Built {
    raw: Arc<InMemoryStore>,
    setup_s: f64,
    build_s: f64,
    index_bytes: u64,
    oracle: Oracle,
    lines: Vec<String>,
    words: Vec<String>,
}

fn config(seed: u64) -> AirphantConfig {
    AirphantConfig::default()
        .with_total_bins(BINS)
        .with_seed(seed)
}

fn policy() -> CompactionPolicy {
    CompactionPolicy::new()
        .with_max_live_segments(MAX_LIVE)
        .with_merge_factor(MERGE_FACTOR)
        .with_deferred_gc(true)
}

fn line(rng: &mut Rng, i: usize) -> String {
    const TEMPLATES: [&str; 3] = [
        "INFO dfs.DataNode$DataXceiver: Receiving block",
        "INFO dfs.FSNamesystem: BLOCK* NameSystem.allocateBlock: block",
        "WARN dfs.DataNode$PacketResponder: Slow ack for block",
    ];
    let dn = rng.below(64);
    format!(
        "081110 {:06} {} {} blk_{} src datanode_{} evt{}",
        i % 240_000,
        dn,
        TEMPLATES[rng.below(TEMPLATES.len())],
        rng.below(2_000),
        dn,
        i
    )
}

fn set_up(sizes: &Sizes, seed: u64, tracer: Option<&Tracer>) -> Built {
    let t0 = Instant::now();
    let raw = Arc::new(InMemoryStore::new());
    let store: Arc<dyn ObjectStore> = raw.clone();
    let corpus = hdfs_like(
        LogCorpusSpec::new(sizes.history, seed),
        store.clone(),
        "corpus/history",
    );
    let tb = Instant::now();
    let (report, _) = span(tracer, "segments.append", || {
        SegmentManager::new(store.clone(), "live").append(&corpus, &config(seed))
    })
    .expect("index the history");
    let build_s = tb.elapsed().as_secs_f64();
    let sim = Arc::new(SimulatedCloudStore::new(
        raw.clone(),
        LatencyModel::gcs_like(),
        seed,
    ));
    LiveIndex::open(sim, "live", config(seed)).expect("open the live index");
    let setup_s = t0.elapsed().as_secs_f64();

    let mut oracle = Oracle::default();
    corpus
        .for_each_document(|d| {
            oracle.add(&d.text);
        })
        .expect("read the history back");
    oracle.finish();
    let mut rng = Rng::new(seed ^ 0x1A6E);
    let lines = (0..sizes.appends).map(|i| line(&mut rng, i)).collect();
    let vocab = oracle.vocabulary();
    let draws = stratified(
        &vec![1.0; vocab.len()],
        sizes.appends / READ_EVERY,
        &mut rng,
    );
    let mut words: Vec<String> = draws.into_iter().map(|i| vocab[i].clone()).collect();
    shuffle(&mut words, &mut rng);
    Built {
        raw,
        setup_s,
        build_s,
        index_bytes: report.index_bytes(),
        oracle,
        lines,
        words,
    }
}

/// One read: which query, how many documents it could see, and what came
/// back.
struct Read {
    spec: Spec,
    /// The appended line a freshness probe must return.
    fresh: Option<usize>,
    upto: u32,
    after_compaction: bool,
    segments: usize,
    host_ns: u64,
    /// `None` once the pass is over, except in the checked first pass.
    result: Option<Result<SearchResult, airphant::AirphantError>>,
}

#[derive(Default)]
struct Pass {
    reads: Vec<Read>,
    read_ns: u64,
    /// Heap bytes asked for by reads, and by appends, flushes and
    /// compactions.
    read_alloc: u64,
    ingest_alloc: u64,
    append_ns: u64,
    flush_ns: Vec<u64>,
    compact_ns: Vec<u64>,
    flush_puts: u64,
    flush_bytes: u64,
    compact_bytes: u64,
    merged: usize,
    put_bytes: u64,
    user_bytes: u64,
    failed_writes: u64,
    writes: u64,
    sim: IoStatsSnapshot,
    repeat_bytes: (u64, u64),
    /// Bytes put so far ÷ user bytes appended so far, after each flush.
    amp_after_flush: Vec<f64>,
    missing_after_reopen: usize,
    spans: Vec<crate::trace::Span>,
}

impl Pass {
    fn ingest_ns(&self) -> u64 {
        self.append_ns + self.flush_ns.iter().sum::<u64>() + self.compact_ns.iter().sum::<u64>()
    }
}

fn pass(built: &Built, seed: u64, tracer: Option<Arc<Tracer>>, verify_reopen: bool) -> Pass {
    let mem = Arc::new(InMemoryStore::new());
    for name in built.raw.list("").expect("list the set-up store") {
        let bytes = built.raw.get(&name).expect("copy the set-up store").bytes;
        mem.put(&name, bytes).expect("copy the set-up store");
    }
    let sim = Arc::new(SimulatedCloudStore::new(
        mem,
        LatencyModel::gcs_like(),
        seed,
    ));
    let mut probe = Probe::new("store.sim", sim.clone(), tracer.clone());
    if tracer.is_some() {
        probe = probe.tracking_repeats();
    }
    let probe = Arc::new(probe);
    let store: Arc<dyn ObjectStore> = probe.clone();
    let live = LiveIndex::open(store.clone(), "live", config(seed))
        .expect("open the live index")
        .with_policy(FlushPolicy {
            max_docs: SEAL_DOCS,
            max_bytes: u64::MAX,
        });
    let compactor = Compactor::new(live.segment_manager(), config(seed)).with_policy(policy());
    sim.reset_stats();
    if let Some(t) = &tracer {
        t.take();
    }
    let tr = tracer.as_deref();
    // Historical reads ask for the top k; a freshness probe, and the check
    // that a cold open returns every acknowledged document, ask whether a
    // unique token's one document is there, so they take the full result
    // and Eq. 6's sampled fetch cannot stand in for a lost write.
    let opts = QueryOptions::new().top_k(TOP_K);
    let full = QueryOptions::new();
    let puts = || (load(&probe.counts.puts), load(&probe.counts.put_bytes));
    let start_puts = puts();
    let history = built.oracle.docs();
    let mut p = Pass::default();
    let mut pending_gc = None;
    let mut after_compaction = false;
    let mut flushes = 0;

    let read = |p: &mut Pass, spec: Spec, fresh: Option<usize>, upto: u32, after: bool| {
        let t = Instant::now();
        let a0 = allocated_bytes();
        let o = if fresh.is_some() { &full } else { &opts };
        let result = span(tr, "engine.execute", || live.execute(&spec.query(), o));
        p.read_alloc += allocated_bytes() - a0;
        let host_ns = t.elapsed().as_nanos() as u64;
        p.read_ns += host_ns;
        let mut segments = 0;
        live.with_segments(&mut |s| segments = s.len());
        p.reads.push(Read {
            spec,
            fresh,
            upto,
            after_compaction: after,
            segments,
            host_ns,
            result: Some(result),
        });
    };
    let flush = |p: &mut Pass, pending_gc: &mut Option<airphant::CompactionReport>| {
        let before = puts();
        let t = Instant::now();
        let a0 = allocated_bytes();
        let ok = span(tr, "live.flush", || live.flush()).is_ok();
        p.ingest_alloc += allocated_bytes() - a0;
        p.flush_ns.push(t.elapsed().as_nanos() as u64);
        let after = puts();
        p.flush_puts += after.0 - before.0;
        p.flush_bytes += after.1 - before.1;
        p.writes += 1;
        p.failed_writes += u64::from(!ok);
        if let Some(report) = pending_gc.take() {
            let t = Instant::now();
            let a0 = allocated_bytes();
            let ok = span(tr, "compact.gc_deferred", || compactor.gc_deferred(&report)).is_ok();
            p.ingest_alloc += allocated_bytes() - a0;
            p.compact_ns.push(t.elapsed().as_nanos() as u64);
            p.writes += 1;
            p.failed_writes += u64::from(!ok);
        }
    };

    for (i, text) in built.lines.iter().enumerate() {
        if let Some(t) = tr {
            t.set_query(i as u64 + 1);
        }
        let t = Instant::now();
        let a0 = allocated_bytes();
        let ok = span(tr, "live.append", || live.append(text)).is_ok();
        p.ingest_alloc += allocated_bytes() - a0;
        p.append_ns += t.elapsed().as_nanos() as u64;
        p.writes += 1;
        p.failed_writes += u64::from(!ok);
        p.user_bytes += text.len() as u64 + 1;
        let upto = history + i as u32 + 1;
        if (i + 1) % PROBE_EVERY == 0 {
            read(
                &mut p,
                Spec::Term(format!("evt{i}")),
                Some(i),
                upto,
                after_compaction,
            );
        }
        if (i + 1) % READ_EVERY == 0 {
            let word = built.words[i / READ_EVERY].clone();
            read(&mut p, Spec::Term(word), None, upto, after_compaction);
        }
        if (i + 1) % FLUSH_EVERY == 0 {
            flush(&mut p, &mut pending_gc);
            after_compaction = false;
            flushes += 1;
            p.amp_after_flush
                .push((puts().1 - start_puts.1) as f64 / p.user_bytes as f64);
            if flushes % COMPACT_EVERY == 0 {
                let before = puts();
                let t = Instant::now();
                let a0 = allocated_bytes();
                let report = span(tr, "compact.compact", || compactor.compact());
                p.ingest_alloc += allocated_bytes() - a0;
                p.compact_ns.push(t.elapsed().as_nanos() as u64);
                p.compact_bytes += puts().1 - before.1;
                p.writes += 1;
                match report {
                    Ok(report) => {
                        p.merged += report.merged_segment_ids.len();
                        after_compaction = report.rounds > 0;
                        pending_gc = Some(report);
                    }
                    Err(_) => p.failed_writes += 1,
                }
            }
        }
    }
    flush(&mut p, &mut pending_gc);
    let end_puts = puts();
    p.put_bytes = end_puts.1 - start_puts.1;
    p.sim = sim.stats();
    p.repeat_bytes = (
        load(&probe.counts.read_bytes),
        load(&probe.counts.repeat_bytes),
    );
    p.spans = tracer.as_ref().map(|t| t.take()).unwrap_or_default();

    if verify_reopen {
        // Every acknowledged append is returned by a cold open.
        let cold = SegmentManager::new(store, "live")
            .open()
            .expect("cold open after the final flush");
        p.missing_after_reopen = built
            .lines
            .iter()
            .enumerate()
            .filter(|(i, text)| {
                cold.execute(&Spec::Term(format!("evt{i}")).query(), &full)
                    .map_or(true, |r| r.hits.len() != 1 || &r.hits[0].text != *text)
            })
            .count();
    }
    p
}

/// Run the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let sizes = if cfg.small {
        Sizes {
            history: 1_000,
            appends: 1_024,
        }
    } else {
        Sizes {
            history: HISTORY,
            appends: APPENDS,
        }
    };
    let seed = cfg.seed;
    let mut out = Outcome::default();
    let setup_tracer = cfg.trace.then(Tracer::default);
    let (built, setup_times, build_times) = set_up_repeatedly(
        |first| set_up(&sizes, seed, setup_tracer.as_ref().filter(|_| first)),
        |b| (b.setup_s, b.build_s),
    );
    let sim_seed = seed ^ 0x5151;

    let passes = run_passes(cfg, |i, tracer| {
        let mut p = pass(&built, sim_seed, tracer, i == 0);
        if i > 0 {
            p.reads.iter_mut().for_each(|r| r.result = None);
        }
        p
    });
    let (untraced, traced_passes) = by_tracing(cfg, &passes.iter().collect::<Vec<&Pass>>());
    let first = &passes[0];
    let n_reads = first.reads.len() as f64;
    let host_us = |p: &&Pass| p.read_ns as f64 / 1e3 / p.reads.len() as f64;
    let untraced_us: Vec<f64> = untraced.iter().map(host_us).collect();

    // Checks.
    let mut oracle = built.oracle.clone();
    for text in &built.lines {
        oracle.add(text);
    }
    let mut records = Vec::with_capacity(first.reads.len());
    let mut stale = 0;
    let mut failed_reads = 0;
    for r in &first.reads {
        let Some(Ok(result)) = &r.result else {
            failed_reads += 1;
            continue;
        };
        if let Some(i) = r.fresh {
            if result.hits.len() != 1 || result.hits[0].text != built.lines[i] {
                stale += 1;
            }
        }
        let verdict = oracle::check(&r.spec, &result.hits, oracle.matches(&r.spec, r.upto));
        let lat = result.trace.total().as_millis_f64();
        records.push(QueryRecord::of(
            Class::Term,
            result,
            lat,
            r.host_ns,
            verdict,
        ));
    }
    check_records(&mut out, &records);
    if stale > 0 {
        out.fail(format!(
            "{stale} freshness probes missed the just-appended document"
        ));
    }
    if first.missing_after_reopen > 0 {
        out.fail(format!(
            "{} acknowledged documents missing from a cold open after the final flush",
            first.missing_after_reopen
        ));
    }
    out.attempted = first.writes + first.reads.len() as u64;
    out.failed = first.failed_writes + failed_reads;

    latency_metrics(&mut out, &records);
    let sim_s: f64 = records.iter().map(|r| r.latency_ms).sum::<f64>() / 1e3;
    out.metric("host_us_per_query", steady(&untraced_us));
    out.metric("capacity_qps", ratio(records.len() as f64, sim_s));
    out.metric(
        "served_frac",
        ratio((out.attempted - out.failed) as f64, out.attempted as f64),
    );
    out.metric(
        "alloc_bytes_per_query",
        median(
            &untraced
                .iter()
                .map(|p| p.read_alloc as f64 / p.reads.len() as f64)
                .collect::<Vec<_>>(),
        ),
    );
    out.metric(
        "alloc_bytes_per_doc",
        median(
            &untraced
                .iter()
                .map(|p| p.ingest_alloc as f64 / sizes.appends as f64)
                .collect::<Vec<_>>(),
        ),
    );
    let docs_per_s: Vec<f64> = untraced
        .iter()
        .map(|p| sizes.appends as f64 / (p.ingest_ns() as f64 / 1e9))
        .collect();
    out.metric("ingest_docs_per_s", steady(&docs_per_s));
    out.metric(
        "write_amp",
        ratio(first.put_bytes as f64, first.user_bytes as f64),
    );
    out.metric("setup_s", median(&setup_times));
    out.notes.push(format!(
        "sizes: history {} docs, index {} B, {} appends ({} B) per pass; no cache",
        sizes.history, built.index_bytes, sizes.appends, first.user_bytes
    ));
    out.notes.push(format!(
        "policy: seal at {SEAL_DOCS} docs, flush every {FLUSH_EVERY} appends, compact every \
         {COMPACT_EVERY} flushes (max {MAX_LIVE} live, merge {MERGE_FACTOR}, deferred GC)"
    ));
    out.notes.push(format!(
        "write amplification after each flush: {:.2?}",
        first.amp_after_flush
    ));
    out.notes.push(
        "capacity_qps here is the closed-loop read rate of one client on the simulated clock"
            .into(),
    );
    if let Some(seg) = SegmentManager::new(built.raw.clone(), "live")
        .open()
        .ok()
        .and_then(|s| s.segments().first().map(|s| s.accuracy_f0()))
    {
        out.notes.push(format!(
            "false-positive target F0 {seg}; top-k failure probability delta {}",
            config(seed).topk_delta
        ));
    }
    out.count("write.put_bytes", first.put_bytes as f64);
    out.count("sim.requests", first.sim.read_requests as f64);

    if cfg.trace {
        let traced = &passes[1];
        let spans = SpanTotals::of(&traced.spans);
        let traced_us: Vec<f64> = traced_passes.iter().map(host_us).collect();
        plan_metrics(&mut out, &records);
        let med =
            |f: &dyn Fn(&Pass) -> f64| median(&untraced.iter().map(|p| f(p)).collect::<Vec<_>>());
        out.metric(
            "class.term.host_us",
            med(&|p| {
                mean(
                    &p.reads
                        .iter()
                        .map(|r| r.host_ns as f64 / 1e3)
                        .collect::<Vec<_>>(),
                )
            }),
        );
        for class in [Class::And, Class::Prefix, Class::Fuzzy] {
            out.metric(&format!("class.{}.host_us", class.label()), 0.0);
        }
        let flushes = first.flush_ns.len() as f64;
        out.metric(
            "memtable.append_us",
            med(&|p| p.append_ns as f64 / 1e3 / sizes.appends as f64),
        );
        out.metric(
            "memtable.flush_ms",
            med(&|p| {
                mean(
                    &p.flush_ns
                        .iter()
                        .map(|&n| n as f64 / 1e6)
                        .collect::<Vec<_>>(),
                )
            }),
        );
        out.metric("memtable.flush_puts", first.flush_puts as f64 / flushes);
        out.metric("memtable.flush_bytes", first.flush_bytes as f64 / flushes);
        out.metric(
            "compact.ms",
            med(&|p| {
                mean(
                    &p.compact_ns
                        .iter()
                        .map(|&n| n as f64 / 1e6)
                        .collect::<Vec<_>>(),
                )
            }),
        );
        out.metric("compact.bytes_rewritten", first.compact_bytes as f64);
        out.metric("compact.segments_merged", first.merged as f64);
        let after: Vec<f64> = first
            .reads
            .iter()
            .zip(&records)
            .filter(|(r, _)| r.after_compaction)
            .map(|(_, rec)| rec.latency_ms)
            .collect();
        out.metric("compact.query_p99_ms", percentile(&after, 0.99));
        out.metric(
            "segments.live",
            mean(
                &first
                    .reads
                    .iter()
                    .map(|r| r.segments as f64)
                    .collect::<Vec<_>>(),
            ),
        );
        let s = &traced.sim;
        out.metric("sim.requests_per_query", s.read_requests as f64 / n_reads);
        out.metric(
            "sim.requests_untraced_per_query",
            first.sim.read_requests as f64 / n_reads,
        );
        out.metric("sim.batches_per_query", s.batches as f64 / n_reads);
        out.metric("sim.bytes_per_query", s.bytes_read as f64 / n_reads);
        out.metric("sim.spiked", s.spiked as f64);
        out.metric(
            "workload.rerequested_bytes_share",
            ratio(traced.repeat_bytes.1 as f64, traced.repeat_bytes.0 as f64),
        );
        out.notes.push(format!(
            "bytes touched per pass (distinct ranges read): {} B",
            traced.repeat_bytes.0 - traced.repeat_bytes.1
        ));
        out.metric("builder.build_s", median(&build_times));
        out.metric(
            "builder.index_bytes_per_doc",
            built.index_bytes as f64 / sizes.history as f64,
        );
        out.metric(
            "trace.overhead_us_per_query",
            steady(&traced_us) - steady(&untraced_us),
        );
        out.notes.push(format!(
            "traced pass: {} spans; {} passes in all",
            traced.spans.len(),
            passes.len()
        ));
        if let Some(dir) = &cfg.out_dir {
            let mut all = setup_tracer.map(|t| t.take()).unwrap_or_default();
            all.extend_from_slice(&traced.spans);
            crate::write_trace(&mut out, dir, "ingest_live", seed, &all, &spans);
        }
    }
    out
}
