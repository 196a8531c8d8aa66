//! Property tests for the unified query planner: ANY randomly composed
//! `Query` AST (a) issues exactly one superpost batch for its whole
//! index-lookup phase and (b) returns exactly the documents a linear
//! scan would — no false negatives from the sketch, no false positives
//! past the verify pass — under every straggler policy.

use airphant::{AirphantConfig, Builder, Query, QueryOptions, Searcher, Straggler};
use airphant_corpus::{Corpus, LineSplitter, WhitespaceTokenizer};
use airphant_storage::{
    InMemoryStore, LatencyModel, ObjectStore, PhaseKind, QueryTrace, SimDuration,
    SimulatedCloudStore,
};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Build a random AST from an opcode tape, stack-machine style: opcode 0
/// pushes a term, 1 folds the top two into AND, 2 folds them into OR.
/// Word indices run past the vocabulary so absent words appear too.
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
            _ => stack.push(Query::term(format!("w{w}"))),
        }
    }
    if stack.len() == 1 {
        stack.pop().unwrap()
    } else {
        Query::any(stack)
    }
}

/// The straggler policy under test. Picks 3 and 4 keep every layer of
/// an index built with `layers` layers.
fn policy(pick: u8, k: usize, timeout_ms: u64, layers: usize) -> Straggler {
    match pick {
        0 => Straggler::WaitAll,
        1 => Straggler::Fastest(k),
        2 => Straggler::Timeout(SimDuration::from_millis(timeout_ms)),
        3 => Straggler::Fastest(layers),
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

fn doc_text(words: &[u8]) -> String {
    words
        .iter()
        .map(|w| format!("w{w}"))
        .collect::<Vec<_>>()
        .join(" ")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_ast_is_single_batch_and_matches_linear_scan(
        docs in prop::collection::vec(prop::collection::vec(0u8..30, 1..6), 1..40),
        tape in prop::collection::vec((0u8..3, 0u8..34), 1..12),
        layers in 1usize..4,
        seed in 0u64..500,
        pick in 0u8..5,
        k in 1usize..4,
        timeout_ms in 0u64..120,
    ) {
        // --- Index the corpus behind a batch-counting store whose
        // heavy-tailed first bytes make the straggler policy bite.
        let store = Arc::new(SimulatedCloudStore::new(
            InMemoryStore::new(),
            LatencyModel::builder().long_tail(0.3, 1.1).build(),
            seed,
        ));
        {
            let s: Arc<dyn ObjectStore> = store.clone();
            let blob = docs.iter().map(|d| doc_text(d)).collect::<Vec<_>>().join("\n");
            s.put("c/docs", bytes::Bytes::from(blob)).unwrap();
            let corpus = Corpus::new(
                s,
                vec!["c/docs".into()],
                Arc::new(LineSplitter),
                Arc::new(WhitespaceTokenizer),
            );
            let config = AirphantConfig::default()
                .with_total_bins(48)
                .with_manual_layers(layers)
                .with_common_fraction(0.0)
                .with_seed(seed);
            Builder::new(config).build(&corpus, "idx").unwrap();
        }
        let searcher = Searcher::open(store.clone(), "idx").unwrap();
        let query = ast_from_tape(&tape);

        // --- (a) The whole index-lookup phase is one get_ranges batch.
        store.reset_stats();
        let (_, trace) = searcher.execute_lookup(&query).unwrap();
        let atoms = query.atoms().unwrap();
        if atoms.is_empty() {
            prop_assert_eq!(store.stats().batches, 0);
        } else {
            prop_assert_eq!(store.stats().batches, 1, "atoms: {:?}", atoms);
            prop_assert_eq!(trace.round_trips(), 1);
        }

        // --- (b) Exactness against a linear scan of the raw documents.
        let r = searcher.execute(&query, &QueryOptions::new()).unwrap();
        let got: BTreeSet<String> = r.hits.iter().map(|h| h.text.clone()).collect();
        let mut expected = BTreeSet::new();
        for d in &docs {
            let text = doc_text(d);
            let has = |w: &str| text.split_ascii_whitespace().any(|t| t == w);
            if query.matches_doc(&has, &text) {
                expected.insert(text);
            }
        }
        prop_assert_eq!(got, expected, "query: {:?}", query);

        // --- (c) A straggler policy only admits more candidates: the
        // hits stay byte-equal to the wait-all run, still in one postings
        // round trip, and a policy that keeps every layer leaves the
        // trace shape untouched.
        let straggler = policy(pick, k, timeout_ms, layers);
        let p = searcher
            .execute(&query, &QueryOptions::new().straggler(straggler))
            .unwrap();
        prop_assert_eq!(&p.hits, &r.hits, "{:?}, query: {:?}", straggler, query);
        prop_assert!(p.candidates >= r.candidates, "{:?}", straggler);
        prop_assert_eq!(
            p.trace.round_trips_of(PhaseKind::Postings),
            u64::from(!atoms.is_empty())
        );
        if pick == 0 || pick >= 3 {
            prop_assert_eq!(shape(&p.trace), shape(&r.trace), "{:?}", straggler);
        }
    }
}
