//! Streaming-ingestion bench: sustained ingest rate through the
//! memtable + group-commit flush pipeline, and the freshness lag between
//! an append and the moment a query can return it.
//!
//! All on the simulated clock:
//!
//! 1. **Ingest throughput**: append a synthetic log stream through a
//!    [`LiveIndex`] with a group-commit policy, flushing periodically.
//!    Every durable write is counted (count + bytes) and priced with the
//!    GCS-like [`LatencyModel`] — one round trip to first byte per put
//!    plus transfer time for the bytes — giving a deterministic virtual
//!    ingest wall-clock. The headline is docs per *virtual* second
//!    sustained, amortized across the whole stream including every
//!    segment build and manifest CAS.
//! 2. **Freshness lag**: after each sampled append, execute a query that
//!    must return the just-appended document and record the query's
//!    simulated storage time (`trace.total()`). Appends are searchable
//!    before any durability — the lag is the cost of the search that
//!    sees them, dominated by the durable segments' simulated reads, not
//!    by a flush. Headline: p99 lag in simulated ms.
//! 3. **Equality check** (exit-coded): canonical live hits before the
//!    final flush must equal both the live hits after it and a cold
//!    durable-only open — the streaming guarantee the proptests pin,
//!    re-checked under the bench corpus.

use airphant::{
    AirphantConfig, FlushPolicy, LiveIndex, Query, QueryOptions, SearchEngine, SearchResult,
    SegmentManager,
};
use airphant_bench::{Headline, Report};
use airphant_storage::{InMemoryStore, LatencyModel, ObjectStore, SimulatedCloudStore, Version};
use bytes::Bytes;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Documents in the synthetic log stream.
const N_DOCS: usize = 4_000;
/// Group-commit seal threshold.
const BATCH_DOCS: usize = 256;
/// Appends between explicit flush calls (several sealed batches each).
const FLUSH_EVERY: usize = 1_024;
/// Appends between freshness probes.
const PROBE_EVERY: usize = 16;

/// Counts durable writes (count + bytes) flowing to the wrapped store so
/// the bench can price them on the virtual clock. Reads delegate
/// untouched, preserving the inner store's simulated latencies.
struct CountingStore {
    inner: Arc<dyn ObjectStore>,
    puts: AtomicU64,
    put_bytes: AtomicU64,
}

impl CountingStore {
    fn new(inner: Arc<dyn ObjectStore>) -> Self {
        CountingStore {
            inner,
            puts: AtomicU64::new(0),
            put_bytes: AtomicU64::new(0),
        }
    }

    fn count(&self, bytes: u64) {
        self.puts.fetch_add(1, Ordering::Relaxed);
        self.put_bytes.fetch_add(bytes, Ordering::Relaxed);
    }
}

impl airphant_storage::StoreLayer for CountingStore {
    type Inner = dyn ObjectStore;

    fn inner(&self) -> &Self::Inner {
        &*self.inner
    }

    fn put(&self, name: &str, data: Bytes) -> airphant_storage::Result<()> {
        self.count(data.len() as u64);
        self.inner().put(name, data)
    }

    fn put_if_version(
        &self,
        name: &str,
        data: Bytes,
        expected: Version,
    ) -> airphant_storage::Result<Version> {
        self.count(data.len() as u64);
        self.inner().put_if_version(name, data, expected)
    }
}

fn doc(i: usize) -> String {
    format!(
        "req{i} svc{} code{} latency{} region{}",
        i % 37,
        i % 7,
        (i * 13) % 113,
        i % 3
    )
}

fn canonical(result: &SearchResult) -> Vec<String> {
    result
        .hits
        .iter()
        .map(|h| format!("{}#{}+{}:{}", h.blob, h.offset, h.len, h.text))
        .collect()
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn main() {
    let model = LatencyModel::gcs_like();
    let config = AirphantConfig::default()
        .with_total_bins(512)
        .with_common_fraction(0.0)
        .with_seed(1);

    // Reads of durable segments pay simulated cloud latency; writes are
    // counted and priced below (the simulator passes writes through, by
    // design — builds are not latency-measured there).
    let sim: Arc<dyn ObjectStore> = Arc::new(SimulatedCloudStore::new(
        InMemoryStore::new(),
        model.clone(),
        11,
    ));
    let counting = Arc::new(CountingStore::new(sim));
    let idx = LiveIndex::open(counting.clone() as Arc<dyn ObjectStore>, "idx", config)
        .expect("open live index")
        .with_policy(FlushPolicy {
            max_docs: BATCH_DOCS,
            max_bytes: u64::MAX,
        });

    let mut ok = true;
    let mut report = Report::new("ingest", &["phase", "value", "detail"]);

    // Phase 1+2 interleaved: stream the log in, probing freshness.
    let mut lags_ms: Vec<f64> = Vec::new();
    let mut flushes = 0usize;
    for i in 0..N_DOCS {
        idx.append(&doc(i)).expect("append");
        if i % PROBE_EVERY == PROBE_EVERY - 1 {
            // The probe must see the newest doc — fresh, not yet durable.
            let newest = format!("req{i}");
            let r = idx
                .execute(&Query::term(&newest), &QueryOptions::new())
                .expect("probe");
            if r.hits.len() != 1 || !r.hits[0].text.starts_with(&newest) {
                eprintln!("FAIL: probe {newest} missed the just-appended doc");
                ok = false;
            }
            lags_ms.push(r.trace.total().as_millis_f64());
        }
        if i % FLUSH_EVERY == FLUSH_EVERY - 1 {
            idx.flush().expect("flush");
            flushes += 1;
        }
    }

    // Pre-flush probes for the equality check, then the final flush.
    let eq_queries: Vec<Query> = (0..7)
        .map(|s| Query::term(format!("svc{s}")))
        .chain([Query::all([Query::term("svc3"), Query::term("code2")])])
        .collect();
    let live_before: Vec<Vec<String>> = eq_queries
        .iter()
        .map(|q| canonical(&idx.execute(q, &QueryOptions::new()).expect("live probe")))
        .collect();
    idx.flush().expect("final flush");
    flushes += 1;

    // Price the durable writes on the virtual clock: one first-byte
    // round trip per put, plus the bytes at effective bandwidth.
    let puts = counting.puts.load(Ordering::Relaxed);
    let put_bytes = counting.put_bytes.load(Ordering::Relaxed);
    let virtual_ingest_secs = puts as f64 * model.effective_first_byte_median().as_secs_f64()
        + model.transfer_time(put_bytes).as_secs_f64();
    let docs_per_sec = N_DOCS as f64 / virtual_ingest_secs;

    lags_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let lag_p50 = percentile(&lags_ms, 0.50);
    let lag_p99 = percentile(&lags_ms, 0.99);

    report.push(
        vec![
            "ingest".into(),
            format!("{docs_per_sec:.0} docs/s_sim"),
            format!("{N_DOCS} docs, {flushes} flushes, {puts} puts, {put_bytes} B"),
        ],
        serde_json::json!({
            "phase": "ingest",
            "docs": N_DOCS,
            "flushes": flushes,
            "durable_puts": puts,
            "durable_put_bytes": put_bytes,
            "virtual_ingest_secs": virtual_ingest_secs,
            "docs_per_sec_virtual": docs_per_sec,
        }),
    );
    report.push(
        vec![
            "freshness".into(),
            format!("p50 {lag_p50:.1}ms / p99 {lag_p99:.1}ms"),
            format!("{} probes, every {PROBE_EVERY} appends", lags_ms.len()),
        ],
        serde_json::json!({
            "phase": "freshness",
            "probes": lags_ms.len(),
            "lag_p50_ms": lag_p50,
            "lag_p99_ms": lag_p99,
        }),
    );

    // Phase 3: equality across the flush boundary, live and cold.
    let cold = SegmentManager::new(counting as Arc<dyn ObjectStore>, "idx")
        .open()
        .expect("cold open");
    for (q, want) in eq_queries.iter().zip(&live_before) {
        let live_after = canonical(&idx.execute(q, &QueryOptions::new()).expect("live after"));
        let durable = canonical(&cold.execute(q, &QueryOptions::new()).expect("cold"));
        if &live_after != want || &durable != want {
            eprintln!("FAIL: results diverged across the flush for {q:?}");
            ok = false;
        }
    }
    if idx.pending_docs() != 0 {
        eprintln!(
            "FAIL: {} docs left undurable after flush",
            idx.pending_docs()
        );
        ok = false;
    }
    report.push(
        vec![
            "equality".into(),
            if ok { "ok".into() } else { "FAILED".into() },
            format!("{} queries live==post-flush==cold", eq_queries.len()),
        ],
        serde_json::json!({
            "phase": "equality",
            "queries": eq_queries.len(),
            "ok": ok,
        }),
    );
    report.finish();

    let cfg = serde_json::json!({
        "n_docs": N_DOCS,
        "batch_docs": BATCH_DOCS,
        "flush_every": FLUSH_EVERY,
        "probe_every": PROBE_EVERY,
        "latency_model": "gcs_like",
        "seed": 11,
    });
    let p1 = Headline::new(
        "ingest",
        "docs_per_sec_virtual",
        docs_per_sec,
        "ops",
        cfg.clone(),
    )
    .write();
    let p2 = Headline::new("ingest_freshness", "freshness_lag_p99", lag_p99, "ms", cfg).write();
    println!(
        "headline: {docs_per_sec:.0} docs/s_sim sustained -> {}",
        p1.display()
    );
    println!(
        "headline: freshness lag p50 {lag_p50:.1}ms p99 {lag_p99:.1}ms -> {}",
        p2.display()
    );

    if !ok {
        std::process::exit(1);
    }
}
