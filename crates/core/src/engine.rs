//! The [`SearchEngine`] trait: the common interface the benchmark harness
//! drives for Airphant and every baseline (Lucene-like, Elasticsearch-like,
//! SQLite-like, HashTable).
//!
//! Each engine indexes the same parsed corpus, persists its structures in
//! the same object store, and answers [`Query`] ASTs through
//! [`SearchEngine::execute`], reporting a [`QueryTrace`] so the
//! experiments can compare end-to-end latency, term lookup latency, the
//! wait/download breakdown, and — via
//! [`QueryTrace::round_trips`](airphant_storage::QueryTrace::round_trips)
//! — the dependent round-trip structure that the paper's analysis
//! attributes the latency differences to.

use crate::query::{Query, QueryOptions};
use crate::result::SearchResult;
use crate::Result;
use airphant_storage::QueryTrace;
use iou_sketch::PostingsList;

/// A keyword-search engine under benchmark.
///
/// Engines are `Send + Sync`: one engine instance (over one shared,
/// byte-budgeted cache) is driven concurrently by every executor thread
/// of the serving core ([`crate::serve`]), so the whole read path must
/// be shareable across threads. Per-query state (the
/// [`QueryTrace`], candidate postings, sampled fetches) lives on the
/// calling thread's stack — implementations must not route it through
/// shared mutable cells.
pub trait SearchEngine: Send + Sync {
    /// Engine name as it appears in the paper's figures
    /// (e.g. `"AIRPHANT"`, `"Lucene"`, `"SQLite"`).
    fn name(&self) -> &'static str;

    /// One-time per-corpus initialization cost (header download, snapshot
    /// mount, …). Zero trace for engines with no init step.
    fn init_trace(&self) -> QueryTrace {
        QueryTrace::new()
    }

    /// Term-index lookup only: resolve `word` to its (possibly
    /// approximate) postings list. This is what Figure 14 measures.
    fn lookup(&self, word: &str) -> Result<(PostingsList, QueryTrace)>;

    /// Execute a full [`Query`] AST: resolve every term/gram, evaluate
    /// the boolean algebra, fetch candidate documents, and filter to
    /// exact results. Airphant's implementation resolves the *whole*
    /// query in a single superpost batch; hierarchical baselines pay
    /// their per-atom round-trip structure.
    fn execute(&self, query: &Query, opts: &QueryOptions) -> Result<SearchResult>;

    /// Single-keyword search; `top_k = Some(k)` bounds the result set.
    ///
    /// Default shim over [`SearchEngine::execute`] with a bare
    /// [`Query::Term`] — engines only implement `execute`.
    fn search(&self, word: &str, top_k: Option<usize>) -> Result<SearchResult> {
        self.execute(&Query::term(word), &QueryOptions::new().with_top_k(top_k))
    }

    /// Total bytes of index structures this engine persisted (for the
    /// storage-usage comparisons, Figure 15b).
    fn index_bytes(&self) -> u64;

    /// This engine as a [`StagedEngine`], if it can be driven in stages.
    /// The serving core runs staged engines through the suspendable
    /// planner halves and every other engine through one
    /// [`SearchEngine::execute`] call. Every [`StagedEngine`] returns
    /// `Some(self)`.
    fn staged(&self) -> Option<&dyn StagedEngine> {
        None
    }
}

/// A [`SearchEngine`] whose execution can be driven in *stages* by an
/// external scheduler: plan a storage batch, suspend while it is in
/// flight, then complete from the fetched bytes.
///
/// The serving core ([`crate::serve`]) needs direct access to the
/// per-segment [`Searcher`](crate::Searcher)s so it can run the staged planner halves in
/// `crate::plan` itself — suspending the query on the simulated clock
/// between dispatch and completion instead of blocking an OS thread
/// inside [`SearchEngine::execute`]. Because both paths run the *same*
/// staged code, served results are byte-for-byte identical to a direct
/// [`SearchEngine::execute`] by construction.
///
/// Implementors must also override [`SearchEngine::staged`] to return
/// `Some(self)`; the core picks the staged path from it.
///
/// The callback shape keeps the trait object-safe while letting
/// implementations hand out borrowed segment slices without allocating
/// on every query (the segmented impl materializes a short-lived
/// `Vec<&Searcher>`).
pub trait StagedEngine: SearchEngine {
    /// Invoke `f` with this engine's live segment set. The slice is only
    /// valid for the duration of the call.
    fn with_segments(&self, f: &mut dyn FnMut(&[&crate::Searcher]));
}

impl SearchEngine for crate::Searcher {
    fn name(&self) -> &'static str {
        "AIRPHANT"
    }

    fn init_trace(&self) -> QueryTrace {
        crate::Searcher::init_trace(self).clone()
    }

    fn lookup(&self, word: &str) -> Result<(PostingsList, QueryTrace)> {
        self.execute_lookup(&Query::term(word))
    }

    fn execute(&self, query: &Query, opts: &QueryOptions) -> Result<SearchResult> {
        crate::Searcher::execute(self, query, opts)
    }

    fn index_bytes(&self) -> u64 {
        // Header + superpost blocks under the index prefix.
        self.index_usage_bytes()
    }

    fn staged(&self) -> Option<&dyn StagedEngine> {
        Some(self)
    }
}

impl StagedEngine for crate::Searcher {
    fn with_segments(&self, f: &mut dyn FnMut(&[&crate::Searcher])) {
        f(&[self]);
    }
}

impl StagedEngine for crate::SegmentedSearcher {
    fn with_segments(&self, f: &mut dyn FnMut(&[&crate::Searcher])) {
        let refs: Vec<&crate::Searcher> = self.segments().iter().collect();
        f(&refs);
    }
}

impl SearchEngine for crate::SegmentedSearcher {
    fn name(&self) -> &'static str {
        "AIRPHANT-segmented"
    }

    fn init_trace(&self) -> QueryTrace {
        // Segment headers are independent fetches: opening the live set
        // costs one concurrent round of header downloads.
        QueryTrace::merge_parallel(
            &self
                .segments()
                .iter()
                .map(|s| s.init_trace().clone())
                .collect::<Vec<_>>(),
        )
    }

    fn lookup(&self, word: &str) -> Result<(PostingsList, QueryTrace)> {
        self.execute_lookup(&Query::term(word))
    }

    fn execute(&self, query: &Query, opts: &QueryOptions) -> Result<SearchResult> {
        crate::SegmentedSearcher::execute(self, query, opts)
    }

    fn index_bytes(&self) -> u64 {
        self.segments().iter().map(|s| s.index_usage_bytes()).sum()
    }

    fn staged(&self) -> Option<&dyn StagedEngine> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;
    use crate::config::AirphantConfig;
    use crate::Searcher;
    use airphant_corpus::{Corpus, LineSplitter, WhitespaceTokenizer};
    use airphant_storage::{InMemoryStore, ObjectStore};
    use bytes::Bytes;
    use std::sync::Arc;

    #[test]
    fn searcher_implements_engine() {
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        store
            .put("c/b", Bytes::from_static(b"alpha beta\ngamma"))
            .unwrap();
        let corpus = Corpus::new(
            store.clone(),
            vec!["c/b".into()],
            Arc::new(LineSplitter),
            Arc::new(WhitespaceTokenizer),
        );
        Builder::new(AirphantConfig::default().with_total_bins(64))
            .build(&corpus, "idx")
            .unwrap();
        let engine: Box<dyn SearchEngine> = Box::new(Searcher::open(store, "idx").unwrap());
        assert_eq!(engine.name(), "AIRPHANT");
        let r = engine.search("alpha", None).unwrap();
        assert_eq!(r.hits.len(), 1);
        let (postings, _) = engine.lookup("gamma").unwrap();
        assert!(!postings.is_empty());
        assert!(engine.index_bytes() > 0);
        assert!(engine.init_trace().bytes() > 0);
    }

    #[test]
    fn trait_search_shim_equals_execute() {
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        store
            .put("c/b", Bytes::from_static(b"alpha beta\nalpha gamma\nbeta"))
            .unwrap();
        let corpus = Corpus::new(
            store.clone(),
            vec!["c/b".into()],
            Arc::new(LineSplitter),
            Arc::new(WhitespaceTokenizer),
        );
        Builder::new(AirphantConfig::default().with_total_bins(64))
            .build(&corpus, "idx")
            .unwrap();
        let engine: Box<dyn SearchEngine> = Box::new(Searcher::open(store, "idx").unwrap());
        let via_shim = engine.search("alpha", Some(5)).unwrap();
        let via_execute = engine
            .execute(&Query::term("alpha"), &QueryOptions::new().top_k(5))
            .unwrap();
        let texts = |r: &crate::SearchResult| {
            let mut v: Vec<String> = r.hits.iter().map(|h| h.text.clone()).collect();
            v.sort();
            v
        };
        assert_eq!(texts(&via_shim), texts(&via_execute));
    }
}
