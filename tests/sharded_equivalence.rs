//! Sharded vs. unsharded equivalence: a query over N hash-partitioned
//! shards must return byte-for-byte the same result set as a single
//! segmented index over the same zipf corpus — for any query AST, for
//! N ∈ {1, 2, 4, 8}, under every straggler policy, and identically
//! whether queries run sequentially or from 8 concurrent threads. With
//! `top_k` it must equal the per-shard merge (each shard truncated, then
//! doc-id order, then truncated), and at every N it must send exactly
//! one postings batch and at most one documents batch to the store.

use airphant::{
    AirphantConfig, Query, QueryOptions, SearchHit, SegmentManager, ShardRouter, ShardedSearcher,
    Straggler,
};
use airphant_corpus::{synth::word_token, zipf, Corpus, SyntheticSpec};
use airphant_storage::{
    CoalescingStore, InMemoryStore, LatencyModel, ObjectStore, PhaseKind, QueryTrace, SimDuration,
    SimulatedCloudStore,
};
use proptest::prelude::*;
use std::sync::Arc;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn config(seed: u64) -> AirphantConfig {
    AirphantConfig::default()
        .with_total_bins(96)
        .with_manual_layers(2)
        .with_common_fraction(0.0)
        .with_seed(seed)
}

/// Byte-for-byte canonical form of a result set: every field of every
/// hit, in stable doc-id order.
fn canonical(hits: &[SearchHit]) -> Vec<(String, u64, u32, String)> {
    let mut v: Vec<_> = hits
        .iter()
        .map(|h| (h.blob.clone(), h.offset, h.len, h.text.clone()))
        .collect();
    v.sort();
    v
}

/// The straggler policy under test. Picks 3 and 4 keep both layers.
fn policy(pick: u8, k: usize, timeout_ms: u64) -> Straggler {
    match pick {
        0 => Straggler::WaitAll,
        1 => Straggler::Fastest(k),
        2 => Straggler::Timeout(SimDuration::from_millis(timeout_ms)),
        3 => Straggler::Fastest(2),
        _ => Straggler::Timeout(SimDuration::from_nanos(u64::MAX)),
    }
}

/// A trace's shape: per storage phase, its kind, requests, round trips
/// and bytes.
fn shape(trace: &QueryTrace) -> Vec<(PhaseKind, u64, u64, u64)> {
    trace
        .phases()
        .iter()
        .filter(|p| p.kind != PhaseKind::Compute)
        .map(|p| (p.kind, p.requests, p.batches, p.bytes))
        .collect()
}

/// Random AST over the zipf vocabulary from an opcode tape (the
/// stack-machine idiom of `query_properties.rs`): 0 pushes a term,
/// 1 folds AND, 2 folds OR. Word ranks run past the vocabulary so
/// absent words appear too.
fn ast_from_tape(tape: &[(u8, u16)]) -> Query {
    let mut stack: Vec<Query> = Vec::new();
    for &(op, w) in tape {
        match op {
            1 if stack.len() >= 2 => {
                let b = stack.pop().unwrap();
                let a = stack.pop().unwrap();
                stack.push(Query::all([a, b]));
            }
            2 if stack.len() >= 2 => {
                let b = stack.pop().unwrap();
                let a = stack.pop().unwrap();
                stack.push(Query::any([a, b]));
            }
            _ => stack.push(Query::term(word_token(w as u64))),
        }
    }
    if stack.len() == 1 {
        stack.pop().unwrap()
    } else {
        Query::any(stack)
    }
}

/// One zipf corpus, one unsharded segmented reference, and a sharded
/// layout per shard count — all in one shared store with heavy-tailed
/// simulated first bytes, so straggler policies have layers to drop.
struct Env {
    flat: airphant::SegmentedSearcher,
    sharded: Vec<(usize, ShardedSearcher)>,
    #[allow(dead_code)]
    corpus: Corpus,
}

fn build_env(n_docs: u64, corpus_seed: u64, build_seed: u64) -> Env {
    let store: Arc<dyn ObjectStore> = Arc::new(SimulatedCloudStore::new(
        InMemoryStore::new(),
        LatencyModel::builder().long_tail(0.3, 1.1).build(),
        corpus_seed,
    ));
    let spec = SyntheticSpec {
        n_docs,
        n_vocab: 60,
        words_per_doc: 5,
    };
    let corpus = zipf(spec, store.clone(), "corpora/zipf", corpus_seed);
    let flat_mgr = SegmentManager::new(store.clone(), "flat");
    flat_mgr.append(&corpus, &config(build_seed)).unwrap();
    let flat = flat_mgr.open().unwrap();
    let sharded = SHARD_COUNTS
        .iter()
        .map(|&n| {
            let router = ShardRouter::create(store.clone(), format!("idx{n}"), n).unwrap();
            router.append(&corpus, &config(build_seed)).unwrap();
            (n, router.open_searcher().unwrap())
        })
        .collect();
    Env {
        flat,
        sharded,
        corpus,
    }
}

/// The reference merge of a sharded query, built from each shard on its
/// own: every shard's `execute` (already truncated to `top_k`), the hits
/// in doc-id order, truncated again; candidates and false positives
/// summed.
fn per_shard_merge(
    searcher: &ShardedSearcher,
    query: &Query,
    top_k: Option<usize>,
) -> (Vec<SearchHit>, usize, usize) {
    let opts = QueryOptions::new().with_top_k(top_k);
    let (mut hits, mut candidates, mut dropped) = (Vec::new(), 0, 0);
    for shard in searcher.shards() {
        let r = shard.execute(query, &opts).unwrap();
        hits.extend(r.hits);
        candidates += r.candidates;
        dropped += r.false_positives_removed;
    }
    hits.sort_by(|a, b| (&a.blob, a.offset, a.len).cmp(&(&b.blob, b.offset, b.len)));
    if let Some(k) = top_k {
        hits.truncate(k);
    }
    (hits, candidates, dropped)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any AST, any shard count, any straggler policy: identical result
    /// sets, byte for byte.
    #[test]
    fn sharded_equals_unsharded_for_any_ast(
        n_docs in 40u64..160,
        corpus_seed in 0u64..1_000,
        build_seed in 0u64..1_000,
        tapes in prop::collection::vec(
            prop::collection::vec((0u8..3, 0u16..70), 1..10),
            1..6,
        ),
        pick in 0u8..5,
        k in 1usize..3,
        timeout_ms in 0u64..120,
        top in 0usize..6,
    ) {
        let top_k = (top > 0).then_some(top);
        let env = build_env(n_docs, corpus_seed, build_seed);
        let straggler = policy(pick, k, timeout_ms);
        let opts = QueryOptions::new().straggler(straggler);
        let top = QueryOptions::new().with_top_k(top_k);
        for tape in &tapes {
            let query = ast_from_tape(tape);
            let expected = canonical(
                &env.flat.execute(&query, &QueryOptions::new()).unwrap().hits,
            );
            for (n, searcher) in &env.sharded {
                let topped = searcher.execute(&query, &top).unwrap();
                let (hits, candidates, dropped) = per_shard_merge(searcher, &query, top_k);
                prop_assert_eq!(&topped.hits, &hits, "{} shards, top {:?}, {:?}", n, top_k, &query);
                prop_assert_eq!(topped.candidates, candidates, "{} shards", n);
                prop_assert_eq!(topped.false_positives_removed, dropped, "{} shards", n);
                let wait_all = searcher.execute(&query, &QueryOptions::new()).unwrap();
                let got = searcher.execute(&query, &opts).unwrap();
                prop_assert_eq!(&got.hits, &wait_all.hits, "{} shards, {:?}", n, straggler);
                prop_assert!(got.candidates >= wait_all.candidates, "{} shards", n);
                prop_assert_eq!(
                    got.trace.round_trips_of(PhaseKind::Postings),
                    wait_all.trace.round_trips_of(PhaseKind::Postings),
                    "{} shards: still at most one postings round trip",
                    n
                );
                prop_assert!(got.trace.round_trips_of(PhaseKind::Postings) <= 1);
                if pick == 0 || pick >= 3 {
                    prop_assert_eq!(shape(&got.trace), shape(&wait_all.trace));
                }
                prop_assert_eq!(
                    canonical(&got.hits),
                    expected.clone(),
                    "{} shards, query {:?}",
                    n,
                    query
                );
                // The sharded merge is already in stable doc-id order.
                prop_assert_eq!(canonical(&got.hits), {
                    got.hits
                        .iter()
                        .map(|h| (h.blob.clone(), h.offset, h.len, h.text.clone()))
                        .collect::<Vec<_>>()
                }, "{} shards: merge order must be canonical", n);
            }
        }
    }

    /// The same queries fired from 8 concurrent threads return exactly
    /// the sequential answers at every shard count — the sharded
    /// read path shares no mutable per-query state.
    #[test]
    fn concurrent_sharded_queries_match_sequential(
        corpus_seed in 0u64..1_000,
        tapes in prop::collection::vec(
            prop::collection::vec((0u8..3, 0u16..70), 1..8),
            4..9,
        ),
    ) {
        let env = build_env(96, corpus_seed, 17);
        let queries: Vec<Query> = tapes.iter().map(|t| ast_from_tape(t)).collect();
        for (n, searcher) in &env.sharded {
            let sequential: Vec<_> = queries
                .iter()
                .map(|q| canonical(&searcher.execute(q, &QueryOptions::new()).unwrap().hits))
                .collect();
            let threads = 8;
            let concurrent: Vec<Vec<_>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|t| {
                        let queries = &queries;
                        s.spawn(move || {
                            // Each thread walks the query list from its
                            // own starting point so shard fan-outs from
                            // different queries interleave.
                            (0..queries.len())
                                .map(|i| {
                                    let q = &queries[(t + i) % queries.len()];
                                    canonical(
                                        &searcher
                                            .execute(q, &QueryOptions::new())
                                            .unwrap()
                                            .hits,
                                    )
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for (t, per_thread) in concurrent.iter().enumerate() {
                for (i, got) in per_thread.iter().enumerate() {
                    let expected = &sequential[(t + i) % queries.len()];
                    prop_assert_eq!(
                        got,
                        expected,
                        "{} shards, thread {}, query {}",
                        n,
                        t,
                        i
                    );
                }
            }
        }
    }
}

/// At every shard count, and with or without a [`CoalescingStore`]
/// between the index and the simulated cloud, a query costs the cloud
/// exactly one postings batch plus one documents batch (none when no
/// candidate survives) — never one pair per shard.
#[test]
fn one_batch_per_phase_across_shards() {
    for coalesce in [false, true] {
        let sim = Arc::new(SimulatedCloudStore::new(
            InMemoryStore::new(),
            LatencyModel::gcs_like(),
            5,
        ));
        let store: Arc<dyn ObjectStore> = if coalesce {
            Arc::new(CoalescingStore::new(sim.clone()))
        } else {
            sim.clone()
        };
        let spec = SyntheticSpec {
            n_docs: 200,
            n_vocab: 60,
            words_per_doc: 5,
        };
        let corpus = zipf(spec, store.clone(), "corpora/zipf", 3);
        let queries = [
            Query::term(word_token(1)),
            Query::all([Query::term(word_token(1)), Query::term(word_token(2))]),
            Query::prefix("w000000"),
            Query::fuzzy(word_token(3), 1),
            Query::term("absent"),
        ];
        for n in SHARD_COUNTS {
            let router = ShardRouter::create(store.clone(), format!("idx{n}"), n).unwrap();
            router.append(&corpus, &config(9)).unwrap();
            let searcher = router.open_searcher().unwrap();
            for query in &queries {
                let before = sim.stats().batches;
                let r = searcher.execute(query, &QueryOptions::new()).unwrap();
                let expected = if r.candidates == 0 { 1 } else { 2 };
                assert_eq!(
                    sim.stats().batches - before,
                    expected,
                    "{n} shards, coalesce {coalesce}, {query:?}"
                );
                assert_eq!(r.trace.round_trips(), expected, "{n} shards, {query:?}");
            }
        }
    }
}

/// Non-property regression: the documented fan-out invariants on a
/// fixed corpus — constant round trips and deterministic top-k.
#[test]
fn fanout_round_trips_and_top_k_are_stable() {
    let env = build_env(120, 7, 7);
    let query = Query::term(word_token(1));
    let expected = canonical(&env.flat.execute(&query, &QueryOptions::new()).unwrap().hits);
    assert!(!expected.is_empty(), "rank-1 zipf word must occur");
    for (n, searcher) in &env.sharded {
        let r = searcher.execute(&query, &QueryOptions::new()).unwrap();
        assert_eq!(canonical(&r.hits), expected, "{n} shards");
        assert_eq!(
            r.trace.round_trips(),
            2,
            "{n} shards: one lookup batch + one document batch"
        );
        // Deterministic top-k: two runs agree, and the kept hits are the
        // k smallest doc ids of the full result set.
        let k = expected.len().min(5);
        let a = searcher
            .execute(&query, &QueryOptions::new().top_k(k))
            .unwrap();
        let b = searcher
            .execute(&query, &QueryOptions::new().top_k(k))
            .unwrap();
        assert_eq!(canonical(&a.hits), canonical(&b.hits), "{n} shards");
        assert_eq!(a.hits.len(), k, "{n} shards");
        // Every kept hit is a true hit (the per-shard sampled fetch of
        // Equation 6 may pick different members than the flat index,
        // but never a non-member).
        for hit in canonical(&a.hits) {
            assert!(expected.contains(&hit), "{n} shards: {hit:?}");
        }
    }
}
