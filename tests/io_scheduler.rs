//! The I/O scheduler composed with the full serving stack: a
//! [`CoalescingStore`] *below* a shared [`CachedStore`] (the ADR-005
//! ordering) must preserve query results byte-for-byte, and two
//! concurrent identical queries must cost exactly one backend postings
//! round trip — the cache single-flights the duplicate, the scheduler
//! coalesces the miss batch, and neither layer re-fetches what the other
//! already has in flight.

use airphant::{AirphantConfig, Builder, Query, QueryOptions, Searcher};
use airphant_corpus::{Corpus, LineSplitter, WhitespaceTokenizer};
use airphant_storage::{
    CachedStore, CoalescingStore, InMemoryStore, IoStatsSnapshot, LatencyModel, ObjectStore,
    PhaseKind, SimulatedCloudStore,
};
use bytes::Bytes;
use std::sync::Arc;

fn corpus_lines(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| format!("w{} w{} shared{} tail{}", i % 7, i % 13, i % 5, i))
        .collect()
}

fn build_index(store: Arc<dyn ObjectStore>, lines: &[String], prefix: &str) {
    store
        .put("c/blob-0", Bytes::from(lines.join("\n")))
        .unwrap();
    let corpus = Corpus::new(
        store.clone(),
        vec!["c/blob-0".into()],
        Arc::new(LineSplitter),
        Arc::new(WhitespaceTokenizer),
    );
    Builder::new(
        AirphantConfig::default()
            .with_total_bins(96)
            .with_manual_layers(2)
            .with_common_fraction(0.0)
            .with_seed(11),
    )
    .build(&corpus, prefix)
    .unwrap();
}

/// One full serving stack over a fresh copy of the same corpus:
/// raw → simulated cloud → scheduler → cache → searcher.
struct Stack {
    sim: Arc<SimulatedCloudStore<Arc<dyn ObjectStore>>>,
    scheduler: Arc<CoalescingStore<Arc<dyn ObjectStore>>>,
    cache: Arc<CachedStore<Arc<dyn ObjectStore>>>,
    searcher: Arc<Searcher>,
}

fn stack(lines: &[String]) -> Stack {
    let raw: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
    build_index(raw.clone(), lines, "idx");
    let sim = Arc::new(SimulatedCloudStore::new(
        raw,
        LatencyModel::gcs_like(),
        4242,
    ));
    let scheduler = Arc::new(CoalescingStore::new(sim.clone() as Arc<dyn ObjectStore>));
    let cache = Arc::new(CachedStore::new(
        scheduler.clone() as Arc<dyn ObjectStore>,
        1 << 20,
    ));
    let searcher = Arc::new(Searcher::open(cache.clone() as Arc<dyn ObjectStore>, "idx").unwrap());
    Stack {
        sim,
        scheduler,
        cache,
        searcher,
    }
}

fn hits_fingerprint(result: &airphant::SearchResult) -> Vec<(String, u64, String)> {
    let mut v: Vec<(String, u64, String)> = result
        .hits
        .iter()
        .map(|h| (h.blob.clone(), h.offset, h.text.clone()))
        .collect();
    v.sort();
    v
}

#[test]
fn two_concurrent_identical_queries_cost_one_backend_postings_round_trip() {
    let lines = corpus_lines(60);
    let query = Query::all([Query::term("w3"), Query::term("shared2")]);
    let opts = QueryOptions::new();

    // Reference: the same query, solo, over an identical fresh stack.
    let solo = stack(&lines);
    let solo_init: IoStatsSnapshot = solo.sim.stats(); // header reads
    let solo_result = solo.searcher.execute(&query, &opts).unwrap();
    let solo_cost = solo.sim.stats();

    // Two identical queries racing through ONE shared stack.
    let shared = stack(&lines);
    let init = shared.sim.stats();
    let (h0, m0) = shared.cache.hit_stats(); // open-time header reads
    assert_eq!(init.read_requests, solo_init.read_requests, "same init");
    let barrier = Arc::new(std::sync::Barrier::new(2));
    let results: Vec<airphant::SearchResult> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let searcher = shared.searcher.clone();
                let barrier = barrier.clone();
                let (query, opts) = (query.clone(), opts.clone());
                s.spawn(move || {
                    barrier.wait();
                    searcher.execute(&query, &opts).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Byte-for-byte identical answers, each planned as one postings batch.
    for r in &results {
        assert_eq!(hits_fingerprint(r), hits_fingerprint(&solo_result));
        assert_eq!(r.trace.round_trips_of(PhaseKind::Postings), 1);
    }

    // The whole pair cost the backend exactly what ONE query costs: the
    // cache single-flighted the duplicate ranges, and what did go down
    // went through the scheduler as (merged) batches.
    let cost = shared.sim.stats();
    assert_eq!(
        cost.read_requests - init.read_requests,
        solo_cost.read_requests - solo_init.read_requests,
        "the second identical query must be free at the backend"
    );
    assert_eq!(
        cost.batches - init.batches,
        solo_cost.batches - solo_init.batches,
        "no extra backend round trips for the duplicate query"
    );
    // Every range the pair read cost exactly one miss (whichever thread
    // led it) and one single-flighted hit for the other thread.
    let (hits, misses) = shared.cache.hit_stats();
    assert_eq!(hits - h0, misses - m0, "one miss + one hit per range");
    assert!(shared.scheduler.stats().backend_batches > 0);
}

#[test]
fn scheduler_under_cache_preserves_results_for_distinct_queries() {
    let lines = corpus_lines(80);
    let queries: Vec<Query> = (0..6)
        .map(|i| {
            Query::all([
                Query::term(format!("w{}", i % 7)),
                Query::term(format!("shared{}", i % 5)),
            ])
        })
        .collect();

    // Oracle: every query solo over a plain (scheduler-less) stack.
    let raw: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
    build_index(raw.clone(), &lines, "idx");
    let plain = Arc::new(Searcher::open(raw, "idx").unwrap());

    // The scheduled stack serves the same queries from 6 racing threads.
    let shared = stack(&lines);
    let results: Vec<(usize, airphant::SearchResult)> = std::thread::scope(|s| {
        let handles: Vec<_> = queries
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let searcher = shared.searcher.clone();
                let q = q.clone();
                s.spawn(move || (i, searcher.execute(&q, &QueryOptions::new()).unwrap()))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (i, result) in results {
        let oracle = plain.execute(&queries[i], &QueryOptions::new()).unwrap();
        assert_eq!(
            hits_fingerprint(&result),
            hits_fingerprint(&oracle),
            "query {i} through scheduler+cache must match the plain stack"
        );
    }
}
