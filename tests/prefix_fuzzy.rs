//! Prefix and fuzzy query atoms, end to end: any randomly composed AST
//! mixing `Term`, `Prefix`, and `Fuzzy` returns byte-for-byte the
//! documents a linear scan would — through the sync `Searcher`, the
//! staged lookup/complete halves, the async serving core, and
//! sharding at N ∈ {1, 2, 4, 8} — while the whole
//! vocabulary expansion still pays exactly one postings batch. Segments
//! without a vocabulary (format v1) degrade to a typed
//! [`AirphantError::UnsupportedQuery`], never a panic.

use airphant::{
    AirphantConfig, AirphantError, AsyncQueryServer, AsyncServerConfig, Builder, FormatVersion,
    Query, QueryOptions, SearchHit, Searcher, SegmentManager, ServeError, ShardRouter,
    StagedEngine, SubmitSpec,
};
use airphant_corpus::{Corpus, LineSplitter, WhitespaceTokenizer};
use airphant_storage::{InMemoryStore, LatencyModel, ObjectStore, PhaseKind, SimulatedCloudStore};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn doc_text(words: &[u8]) -> String {
    words
        .iter()
        .map(|w| format!("w{w}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Random AST from an opcode tape, extending the stack-machine idiom of
/// `query_properties.rs` with the new atoms: 0 pushes a term, 1 folds
/// AND, 2 folds OR, 3 pushes a prefix (one-digit stems like `w1` cover
/// `w1`, `w10`..`w19`), 4 pushes a fuzzy term at one edit. Word indices
/// run past the vocabulary so absent stems appear too.
fn ast_from_tape(tape: &[(u8, u8)]) -> Query {
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
            3 => stack.push(Query::prefix(format!("w{}", w % 10))),
            4 => stack.push(Query::fuzzy(format!("w{w}"), 1)),
            _ => stack.push(Query::term(format!("w{w}"))),
        }
    }
    if stack.len() == 1 {
        stack.pop().unwrap()
    } else {
        Query::any(stack)
    }
}

/// Linear-scan oracle over the raw documents, using the full query
/// semantics (`starts_with` for Prefix, bounded edit distance for
/// Fuzzy) on whitespace tokens.
fn oracle(query: &Query, docs: &[Vec<u8>]) -> BTreeSet<String> {
    let mut expected = BTreeSet::new();
    for d in docs {
        let text = doc_text(d);
        let tokens: Vec<String> = text.split_ascii_whitespace().map(str::to_owned).collect();
        if query.matches_tokens(&tokens, &text) {
            expected.insert(text);
        }
    }
    expected
}

fn canonical(hits: &[SearchHit]) -> Vec<(String, u64, u32, String)> {
    let mut v: Vec<_> = hits
        .iter()
        .map(|h| (h.blob.clone(), h.offset, h.len, h.text.clone()))
        .collect();
    v.sort();
    v
}

fn config(seed: u64) -> AirphantConfig {
    AirphantConfig::default()
        .with_total_bins(48)
        .with_manual_layers(2)
        .with_common_fraction(0.0)
        .with_seed(seed)
}

fn whitespace_corpus(store: Arc<dyn ObjectStore>, blob: &str, docs: &[Vec<u8>]) -> Corpus {
    let text = docs
        .iter()
        .map(|d| doc_text(d))
        .collect::<Vec<_>>()
        .join("\n");
    store.put(blob, bytes::Bytes::from(text)).unwrap();
    Corpus::new(
        store,
        vec![blob.to_owned()],
        Arc::new(LineSplitter),
        Arc::new(WhitespaceTokenizer),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sync path: any Term/Prefix/Fuzzy AST matches the linear-scan
    /// oracle exactly, and the staged lookup half — which carries the
    /// whole vocabulary expansion — never spends more than one postings
    /// batch.
    #[test]
    fn prefix_fuzzy_ast_matches_oracle_in_one_postings_batch(
        docs in prop::collection::vec(prop::collection::vec(0u8..30, 1..6), 1..40),
        tape in prop::collection::vec((0u8..5, 0u8..34), 1..12),
        seed in 0u64..500,
    ) {
        let store = Arc::new(SimulatedCloudStore::new(
            InMemoryStore::new(),
            LatencyModel::instantaneous(),
            seed,
        ));
        {
            let s: Arc<dyn ObjectStore> = store.clone();
            let corpus = whitespace_corpus(s, "c/docs", &docs);
            Builder::new(config(seed)).build(&corpus, "idx").unwrap();
        }
        let searcher = Searcher::open(store.clone(), "idx").unwrap();
        let query = ast_from_tape(&tape);

        // Staged lookup half: expansion + every expanded atom's
        // superposts in at most one get_ranges batch (zero only when
        // the expansion is empty — no vocabulary word matched).
        store.reset_stats();
        let (_, trace) = searcher.execute_lookup(&query).unwrap();
        let lookup_batches = store.stats().batches;
        prop_assert!(
            lookup_batches <= 1,
            "expansion must not multiply postings batches: {} for {:?}",
            lookup_batches,
            query
        );
        prop_assert_eq!(trace.round_trips(), lookup_batches);

        // Full execution: byte-for-byte the linear scan, and the
        // postings phase of the trace agrees with the staged half.
        store.reset_stats();
        let r = searcher.execute(&query, &QueryOptions::new()).unwrap();
        prop_assert_eq!(
            r.trace.round_trips_of(PhaseKind::Postings),
            lookup_batches
        );
        let got: BTreeSet<String> = r.hits.into_iter().map(|h| h.text).collect();
        prop_assert_eq!(got, oracle(&query, &docs), "query: {:?}", query);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Multi-segment and sharded paths: the expansion unions vocabularies
    /// across segments, so a three-segment flat index and every shard
    /// count return exactly the oracle's answer for any Prefix/Fuzzy AST.
    #[test]
    fn segmented_and_sharded_prefix_fuzzy_match_oracle(
        docs in prop::collection::vec(prop::collection::vec(0u8..30, 1..6), 6..48),
        tapes in prop::collection::vec(
            prop::collection::vec((0u8..5, 0u8..34), 1..8),
            1..5,
        ),
        seed in 0u64..500,
    ) {
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());

        // Flat reference: the corpus split across three segments, so
        // prefix/fuzzy expansion must union three vocabularies.
        let flat_mgr = SegmentManager::new(store.clone(), "flat");
        let chunk = docs.len().div_ceil(3);
        for (i, part) in docs.chunks(chunk).enumerate() {
            let corpus = whitespace_corpus(store.clone(), &format!("c/part{i}"), part);
            flat_mgr.append(&corpus, &config(seed)).unwrap();
        }
        let flat = flat_mgr.open().unwrap();

        // Sharded layouts over the whole corpus.
        let whole = whitespace_corpus(store.clone(), "c/whole", &docs);
        let sharded: Vec<_> = SHARD_COUNTS
            .iter()
            .map(|&n| {
                let router = ShardRouter::create(store.clone(), format!("idx{n}"), n).unwrap();
                router.append(&whole, &config(seed)).unwrap();
                (n, router.open_searcher().unwrap())
            })
            .collect();

        for tape in &tapes {
            let query = ast_from_tape(tape);
            let expected = oracle(&query, &docs);
            let flat_got: BTreeSet<String> = flat
                .execute(&query, &QueryOptions::new())
                .unwrap()
                .hits
                .into_iter()
                .map(|h| h.text)
                .collect();
            prop_assert_eq!(&flat_got, &expected, "flat segments, query {:?}", query);
            for (n, searcher) in &sharded {
                let got: BTreeSet<String> = searcher
                    .execute(&query, &QueryOptions::new())
                    .unwrap()
                    .hits
                    .into_iter()
                    .map(|h| h.text)
                    .collect();
                prop_assert_eq!(&got, &expected, "{} shards, query {:?}", n, query);
            }
        }
    }
}

/// The async serving core answers Prefix/Fuzzy queries byte-for-byte
/// like the unloaded sync path: expansion happens once at arrival,
/// before staging, inside the same admission-controlled flight.
#[test]
fn async_server_agrees_with_sync_for_prefix_and_fuzzy() {
    let docs: Vec<Vec<u8>> = (0..40u8)
        .map(|i| {
            vec![
                i % 30,
                (i as u16 * 7 % 30) as u8,
                (i as u16 * 13 % 30) as u8,
            ]
        })
        .collect();
    let inner = Arc::new(InMemoryStore::new());
    {
        let s: Arc<dyn ObjectStore> = inner.clone();
        let corpus = whitespace_corpus(s, "c/docs", &docs);
        Builder::new(config(7)).build(&corpus, "idx").unwrap();
    }
    let view: Arc<dyn ObjectStore> =
        Arc::new(SimulatedCloudStore::new(inner, LatencyModel::gcs_like(), 7));
    let searcher = Arc::new(Searcher::open(view, "idx").unwrap());

    let queries = [
        Query::prefix("w1"),
        Query::prefix("w2"),
        Query::fuzzy("w5", 1),
        Query::prefix("w1").and(Query::fuzzy("w7", 1)),
        Query::term("w3").or(Query::prefix("w2")),
        Query::prefix("zzz"),
    ];
    let server = AsyncQueryServer::start(
        searcher.clone() as Arc<dyn StagedEngine>,
        AsyncServerConfig::new().with_executor_threads(0),
    );
    let tickets: Vec<_> = queries
        .iter()
        .map(|q| {
            server
                .try_submit(q.clone(), QueryOptions::new(), SubmitSpec::new())
                .unwrap()
        })
        .collect();
    server.drain();
    for (query, ticket) in queries.iter().zip(tickets) {
        let response = ticket.wait();
        let served = response.result.expect("admitted query is served");
        let sync = searcher.execute(query, &QueryOptions::new()).unwrap();
        assert_eq!(
            canonical(&served.hits),
            canonical(&sync.hits),
            "async vs sync for {query:?}"
        );
        let expected = oracle(query, &docs);
        let got: BTreeSet<String> = served.hits.into_iter().map(|h| h.text).collect();
        assert_eq!(got, expected, "oracle for {query:?}");
    }
}

/// A v1 segment has no vocabulary section: Prefix/Fuzzy degrade to a
/// typed `UnsupportedQuery` on every surface — sync, staged, and async
/// (as `ServeError::Failed`) — never a panic, while exact terms keep
/// answering.
#[test]
fn v1_segments_reject_prefix_fuzzy_with_typed_error() {
    let docs: Vec<Vec<u8>> = (0..12u8).map(|i| vec![i, (i + 1) % 12]).collect();
    let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
    let corpus = whitespace_corpus(store.clone(), "c/docs", &docs);
    Builder::new(config(3).with_format(FormatVersion::V1))
        .build(&corpus, "idx")
        .unwrap();
    let searcher = Arc::new(Searcher::open(store, "idx").unwrap());

    for query in [Query::prefix("w1"), Query::fuzzy("w5", 1)] {
        // Sync and staged halves.
        for err in [
            searcher
                .execute(&query, &QueryOptions::new())
                .expect_err("no vocabulary"),
            searcher
                .execute_lookup(&query)
                .map(|_| ())
                .expect_err("no vocabulary"),
        ] {
            assert!(
                matches!(err, AirphantError::UnsupportedQuery { .. }),
                "want UnsupportedQuery, got {err:?}"
            );
        }
        // Async path: the same typed error, delivered through the ticket.
        let server = AsyncQueryServer::start(
            searcher.clone() as Arc<dyn StagedEngine>,
            AsyncServerConfig::new().with_executor_threads(0),
        );
        let ticket = server
            .try_submit(query.clone(), QueryOptions::new(), SubmitSpec::new())
            .unwrap();
        server.drain();
        match ticket.wait().result {
            Err(ServeError::Failed(AirphantError::UnsupportedQuery { .. })) => {}
            other => panic!("want Failed(UnsupportedQuery), got {other:?}"),
        }
    }

    // Exact terms still answer on the same v1 index.
    let r = searcher
        .execute(&Query::term("w1"), &QueryOptions::new())
        .unwrap();
    assert_eq!(
        r.hits
            .iter()
            .map(|h| h.text.clone())
            .collect::<BTreeSet<_>>(),
        oracle(&Query::term("w1"), &docs)
    );
}
