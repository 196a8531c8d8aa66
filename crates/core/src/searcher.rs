//! The Airphant Searcher (§III-C0c): initialization and querying.
//!
//! * **Initialization** (once per corpus): download the header block,
//!   reconstruct the hash functions and the MHT in memory. The footprint is
//!   `O(B)` — about 2 MB at the paper's `B = 10^5`.
//! * **Querying**: hash the query word to collect `L` superpost pointers,
//!   fetch all `L` superposts in a *single batch of concurrent requests*,
//!   intersect them, fetch the candidate documents, and filter out false
//!   positives by examining document content (restoring perfect precision).

use crate::builder::header_blob;
use crate::error::AirphantError;
use crate::result::SearchResult;
use crate::Result;
use airphant_corpus::{Tokenizer, WhitespaceTokenizer};
use airphant_storage::{ObjectStore, PhaseKind, QueryTrace, RangeRequest};
use iou_sketch::{HeaderBlock, Mht, PostingsList, SegmentFormat};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A lightweight query server over a cloud-persisted Airphant index.
pub struct Searcher {
    store: Arc<dyn ObjectStore>,
    prefix: String,
    mht: Mht,
    tokenizer: Arc<dyn Tokenizer>,
    init_trace: QueryTrace,
    accuracy_f0: f64,
    /// Modeled expected false positives of the built structure — drives
    /// the top-K sample size (Equation 6).
    expected_fp: f64,
    topk_delta: f64,
    optimal_layers: usize,
    /// What was on the wire when the header was decoded (version, and the
    /// layer directory for v2).
    format: SegmentFormat,
}

impl Searcher {
    /// Initialize from the index under `prefix`: fetches the header block
    /// and reconstructs the MHT. Uses the whitespace tokenizer (the
    /// experiments' analyzer); see [`Searcher::open_with_tokenizer`].
    pub fn open(store: Arc<dyn ObjectStore>, prefix: &str) -> Result<Self> {
        Self::open_with_tokenizer(store, prefix, Arc::new(WhitespaceTokenizer))
    }

    /// Initialize with a custom document-word parser (must match the one
    /// the corpus was indexed with).
    pub fn open_with_tokenizer(
        store: Arc<dyn ObjectStore>,
        prefix: &str,
        tokenizer: Arc<dyn Tokenizer>,
    ) -> Result<Self> {
        let header_name = header_blob(prefix);
        if !store.exists(&header_name) {
            return Err(AirphantError::IndexNotFound {
                prefix: prefix.to_owned(),
            });
        }
        let mut init_trace = QueryTrace::new();
        // The header is Index-class by definition: fetch it as a ranged
        // read carrying the tier hint so a tiered cache pins it against
        // Data traffic (reopen-heavy serverless workloads reuse it).
        let header_len = store.size_of(&header_name)?;
        let batch = store.get_ranges(&[RangeRequest::index(&header_name, 0, header_len)])?;
        init_trace.record_batch(PhaseKind::Init, &batch);
        let (header, format) = HeaderBlock::decode_any_bytes(&batch.parts[0].bytes)?;
        let mht = Mht::from_header(header);
        let accuracy_f0 = mht
            .meta_value("f0")
            .and_then(|v| v.parse().ok())
            .unwrap_or(1.0);
        let expected_fp = mht
            .meta_value("expected_fp")
            .and_then(|v| v.parse().ok())
            .unwrap_or(accuracy_f0);
        let topk_delta = mht
            .meta_value("topk_delta")
            .and_then(|v| v.parse().ok())
            .unwrap_or(1e-6);
        let optimal_layers = mht
            .meta_value("optimal_layers")
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| mht.layers());
        Ok(Searcher {
            store,
            prefix: prefix.to_owned(),
            mht,
            tokenizer,
            init_trace,
            accuracy_f0,
            expected_fp,
            topk_delta,
            optimal_layers,
            format,
        })
    }

    /// The in-memory MHT.
    pub fn mht(&self) -> &Mht {
        &self.mht
    }

    /// The index prefix this Searcher was opened on.
    pub fn prefix(&self) -> &str {
        &self.prefix
    }

    /// The index-time vocabulary, when the segment carries one (format v2
    /// built with prefix/fuzzy support). Backs [`Query::Prefix`],
    /// [`Query::Fuzzy`], and the short-substring fallback; `None` means
    /// those atoms surface a typed
    /// [`AirphantError::UnsupportedQuery`].
    ///
    /// [`Query::Prefix`]: crate::Query::Prefix
    /// [`Query::Fuzzy`]: crate::Query::Fuzzy
    pub fn vocab(&self) -> Option<&Arc<iou_sketch::Vocabulary>> {
        self.mht.vocab()
    }

    /// The on-wire format the index header was decoded from (version, and
    /// the layer directory for v2).
    pub fn format(&self) -> &SegmentFormat {
        &self.format
    }

    /// Simulated cost of initialization (header download).
    pub fn init_trace(&self) -> &QueryTrace {
        &self.init_trace
    }

    /// The accuracy constraint the index was built with.
    pub fn accuracy_f0(&self) -> f64 {
        self.accuracy_f0
    }

    /// The optimized layer count `L*` (≤ built layers when overprovisioned).
    pub fn optimal_layers(&self) -> usize {
        self.optimal_layers
    }

    /// Approximate Searcher memory footprint (the MHT dominates).
    pub fn memory_bytes(&self) -> usize {
        self.mht.approx_memory_bytes()
    }

    pub(crate) fn resolve_block(&self, block: u32) -> String {
        crate::builder::block_blob(&self.prefix, block)
    }

    /// Modeled expected false positives per query (drives Equation 6).
    pub(crate) fn expected_fp(&self) -> f64 {
        self.expected_fp
    }

    /// The index's top-K failure probability δ.
    pub(crate) fn topk_delta(&self) -> f64 {
        self.topk_delta
    }

    /// Crate-internal access to the underlying store (boolean queries,
    /// engine adapters).
    pub(crate) fn store_dyn(&self) -> &dyn ObjectStore {
        self.store.as_ref()
    }

    /// Total bytes of index structures persisted under this index's prefix
    /// (header + superpost blocks).
    pub fn index_usage_bytes(&self) -> u64 {
        self.store.usage(&format!("{}/", self.prefix)).unwrap_or(0)
    }

    /// Execute a [`Query`](crate::Query) through the single-batch planner
    /// (§III-C generalized): every term's and gram's superposts are
    /// fetched in **one** concurrent batch, the boolean algebra runs over
    /// the decoded postings, and one fetch-and-filter pass restores exact
    /// results.
    pub fn execute(
        &self,
        query: &crate::Query,
        opts: &crate::QueryOptions,
    ) -> Result<SearchResult> {
        crate::plan::execute_over(&[self], query, opts)
    }

    /// Index-lookup phase of [`Searcher::execute`] only: resolve the whole
    /// query's candidate postings in exactly one storage round trip
    /// (`trace.round_trips() == 1`). A single [`Query::term`] is the
    /// term-index lookup Figure 14 measures.
    ///
    /// [`Query::term`]: crate::Query::term
    pub fn execute_lookup(&self, query: &crate::Query) -> Result<(PostingsList, QueryTrace)> {
        crate::plan::lookup_over(&[self], query)
    }

    /// Full keyword search (§II-A workflow): lookup, then fetch candidate
    /// documents and filter false positives by content. `top_k = Some(k)`
    /// enables the sampled fetch of §IV-D (Equation 6).
    ///
    /// Thin shim over [`Searcher::execute`] with a single
    /// [`Query::Term`](crate::Query::Term); kept for convenience and
    /// backward compatibility.
    pub fn search(&self, word: &str, top_k: Option<usize>) -> Result<SearchResult> {
        self.execute(
            &crate::Query::term(word),
            &crate::QueryOptions::new().with_top_k(top_k),
        )
    }

    /// Tokenizer used for false-positive filtering.
    pub fn tokenizer(&self) -> &Arc<dyn Tokenizer> {
        &self.tokenizer
    }
}

/// Deterministic per-word sampling seed.
pub(crate) fn seed_for(word: &str) -> u64 {
    iou_sketch::hash::fnv1a64(word.as_bytes())
}

/// Uniformly sample `k` postings without replacement (partial
/// Fisher–Yates), deterministic under `seed`.
pub(crate) fn sample_postings(
    list: &PostingsList,
    k: usize,
    seed: u64,
) -> Vec<iou_sketch::Posting> {
    let mut all: Vec<iou_sketch::Posting> = list.iter().copied().collect();
    let k = k.min(all.len());
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..k {
        let j = rng.gen_range(i..all.len());
        all.swap(i, j);
    }
    all.truncate(k);
    all
}

// The whole read path is shared across query threads through a single
// `Arc<Searcher>`: per-query state (trace, candidates, samples) lives on
// the calling thread's stack, and the only shared mutability sits behind
// the store's own synchronization (cache LRU, RNG, counters).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Searcher>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;
    use crate::config::AirphantConfig;
    use crate::{Query, QueryOptions, Straggler};
    use airphant_corpus::{Corpus, LineSplitter, WhitespaceTokenizer};
    use airphant_storage::{
        InMemoryStore, LatencyModel, PhaseTrace, SimDuration, SimulatedCloudStore,
    };
    use bytes::Bytes;

    fn build_corpus(store: Arc<dyn ObjectStore>, lines: &[&str]) -> Corpus {
        let blob = lines.join("\n");
        store.put("c/blob-0", Bytes::from(blob)).unwrap();
        Corpus::new(
            store,
            vec!["c/blob-0".into()],
            Arc::new(LineSplitter),
            Arc::new(WhitespaceTokenizer),
        )
    }

    fn build_index(store: Arc<dyn ObjectStore>, lines: &[&str], config: AirphantConfig) {
        let corpus = build_corpus(store, lines);
        Builder::new(config).build(&corpus, "idx").unwrap();
    }

    /// The postings phase of an executed query's trace.
    fn postings_phase(r: &SearchResult) -> &PhaseTrace {
        let mut phases = r
            .trace
            .phases()
            .iter()
            .filter(|p| p.kind == PhaseKind::Postings);
        let phase = phases.next().expect("a postings phase");
        assert!(phases.next().is_none(), "exactly one postings phase");
        phase
    }

    fn execute_with(searcher: &Searcher, word: &str, policy: Straggler) -> SearchResult {
        searcher
            .execute(&Query::term(word), &QueryOptions::new().straggler(policy))
            .unwrap()
    }

    #[test]
    fn open_missing_index_errors() {
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        match Searcher::open(store, "nope") {
            Err(AirphantError::IndexNotFound { prefix }) => assert_eq!(prefix, "nope"),
            other => panic!("expected IndexNotFound, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn search_returns_exact_matches_only() {
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        build_index(
            store.clone(),
            &[
                "error disk failure",
                "info all good",
                "error network partition",
                "warn error imminent",
            ],
            AirphantConfig::default().with_total_bins(64),
        );
        let searcher = Searcher::open(store, "idx").unwrap();
        let result = searcher.search("error", None).unwrap();
        assert_eq!(result.hits.len(), 3);
        assert!(result.hits.iter().all(|h| h.text.contains("error")));
        // Perfect precision after filtering: no non-matching docs.
        let none = searcher.search("absent-word", None).unwrap();
        assert!(none.hits.is_empty());
    }

    #[test]
    fn search_has_no_false_negatives_under_tiny_sketch() {
        // A deliberately undersized sketch forces superpost collisions;
        // recall must still be perfect for every word.
        let lines: Vec<String> = (0..100)
            .map(|i| format!("word{} shared{} tail{}", i, i % 7, i % 3))
            .collect();
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        build_index(
            store.clone(),
            &refs,
            AirphantConfig::default()
                .with_total_bins(32)
                .with_manual_layers(2)
                .with_common_fraction(0.0),
        );
        let searcher = Searcher::open(store, "idx").unwrap();
        for i in [0usize, 13, 57, 99] {
            let r = searcher.search(&format!("word{i}"), None).unwrap();
            assert_eq!(r.hits.len(), 1, "word{i} must be found");
        }
        let shared = searcher.search("shared0", None).unwrap();
        assert_eq!(shared.hits.len(), 100usize.div_ceil(7));
    }

    #[test]
    fn lookup_issues_single_concurrent_batch() {
        let store = Arc::new(SimulatedCloudStore::new(
            InMemoryStore::new(),
            LatencyModel::gcs_like(),
            42,
        ));
        {
            let s: Arc<dyn ObjectStore> = store.clone();
            build_index(
                s,
                &["alpha beta", "beta gamma", "gamma delta"],
                AirphantConfig::default()
                    .with_total_bins(64)
                    .with_manual_layers(3)
                    .with_common_fraction(0.0),
            );
        }
        store.reset_stats();
        let searcher = Searcher::open(store.clone(), "idx").unwrap();
        store.reset_stats(); // drop init traffic
        let (_, trace) = searcher.execute_lookup(&Query::term("beta")).unwrap();
        let stats = store.stats();
        assert_eq!(stats.batches, 1, "exactly one concurrent batch");
        assert_eq!(stats.read_requests, 3, "one request per layer");
        // Wait is ~one round-trip, not three.
        assert!(trace.wait().as_millis_f64() < 3.0 * 45.0);
        assert!(trace.wait().as_millis_f64() > 5.0);
    }

    #[test]
    fn common_word_lookup_is_exact_single_request() {
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        // "the" appears in every document → most common.
        build_index(
            store.clone(),
            &["the alpha", "the beta", "the gamma", "delta epsilon"],
            AirphantConfig::default()
                .with_total_bins(100)
                .with_manual_layers(2)
                .with_common_fraction(0.05),
        );
        let searcher = Searcher::open(store, "idx").unwrap();
        let (postings, trace) = searcher.execute_lookup(&Query::term("the")).unwrap();
        assert_eq!(postings.len(), 3);
        assert_eq!(trace.requests(), 1, "common word needs one pointer");
        let r = searcher.search("the", None).unwrap();
        assert_eq!(r.hits.len(), 3);
        assert_eq!(r.false_positives_removed, 0, "exact list has no FPs");
    }

    #[test]
    fn top_k_fetches_fewer_documents() {
        let lines: Vec<String> = (0..200).map(|i| format!("needle filler{i}")).collect();
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        build_index(
            store.clone(),
            &refs,
            AirphantConfig::default()
                .with_total_bins(512)
                .with_manual_layers(2)
                .with_common_fraction(0.0),
        );
        let searcher = Searcher::open(store, "idx").unwrap();
        let full = searcher.search("needle", None).unwrap();
        assert_eq!(full.hits.len(), 200);
        let topk = searcher.search("needle", Some(10)).unwrap();
        assert_eq!(topk.hits.len(), 10);
        // Equation 6: ~23 fetches for top-10 at delta=1e-6 — far below 200.
        assert!(
            topk.trace.requests() < full.trace.requests() / 3,
            "top-k should fetch far fewer docs: {} vs {}",
            topk.trace.requests(),
            full.trace.requests()
        );
    }

    #[test]
    fn waiting_for_fewer_layers_reduces_wait() {
        let store = Arc::new(SimulatedCloudStore::new(
            InMemoryStore::new(),
            LatencyModel::builder().long_tail(0.3, 1.1).build(),
            7,
        ));
        {
            let s: Arc<dyn ObjectStore> = store.clone();
            let lines: Vec<String> = (0..50).map(|i| format!("common word{i}")).collect();
            let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
            build_index(
                s,
                &refs,
                AirphantConfig::default()
                    .with_total_bins(256)
                    .with_manual_layers(2)
                    .with_overprovision(4) // build 6 layers, need 2
                    .with_common_fraction(0.0),
            );
        }
        let searcher = Searcher::open(store.clone(), "idx").unwrap();
        assert_eq!(searcher.mht().layers(), 6);
        // Average over queries: waiting for 2-of-6 beats waiting for all 6
        // under a heavy-tailed latency model.
        let mut full_wait = 0.0;
        let mut fast_wait = 0.0;
        for i in 0..30 {
            let w = format!("word{i}");
            let full = execute_with(&searcher, &w, Straggler::WaitAll);
            let fast = execute_with(&searcher, &w, Straggler::Fastest(2));
            full_wait += postings_phase(&full).wait.as_millis_f64();
            fast_wait += postings_phase(&fast).wait.as_millis_f64();
        }
        assert!(
            fast_wait < full_wait,
            "2-of-6 wait {fast_wait} should beat 6-of-6 {full_wait}"
        );
        // Recall is still perfect with the degraded intersection.
        let r = execute_with(&searcher, "word7", Straggler::Fastest(2));
        assert_eq!(r.hits.len(), 1);
    }

    #[test]
    fn timeout_lookup_drops_stragglers_but_still_answers() {
        let store = Arc::new(SimulatedCloudStore::new(
            InMemoryStore::new(),
            LatencyModel::builder().long_tail(0.5, 1.0).build(),
            13,
        ));
        {
            let s: Arc<dyn ObjectStore> = store.clone();
            let lines: Vec<String> = (0..60).map(|i| format!("tok{i}")).collect();
            let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
            build_index(
                s,
                &refs,
                AirphantConfig::default()
                    .with_total_bins(128)
                    .with_manual_layers(4)
                    .with_common_fraction(0.0),
            );
        }
        let searcher = Searcher::open(store, "idx").unwrap();
        let timeout = SimDuration::from_millis(120);
        let mut any_dropped = false;
        for i in 0..30 {
            let w = format!("tok{i}");
            let r = execute_with(&searcher, &w, Straggler::Timeout(timeout));
            // Recall is preserved regardless of how many layers survived.
            assert!(r.candidates > 0, "word {w} must resolve");
            assert_eq!(r.hits.len(), 1, "word {w} must be found");
            let postings = postings_phase(&r);
            if postings.requests < 4 {
                any_dropped = true;
                // Wait never exceeds the timeout when layers were dropped
                // (unless the all-slow fallback kicked in with 1 request).
                if postings.requests > 1 {
                    assert!(postings.wait <= timeout, "wait {} > timeout", postings.wait);
                }
            }
        }
        assert!(any_dropped, "heavy tail should trip the timeout sometimes");
    }

    #[test]
    fn timeout_lookup_on_calm_network_keeps_all_layers() {
        let store = Arc::new(SimulatedCloudStore::new(
            InMemoryStore::new(),
            LatencyModel::gcs_like(),
            3,
        ));
        {
            let s: Arc<dyn ObjectStore> = store.clone();
            build_index(
                s,
                &["alpha beta", "beta gamma"],
                AirphantConfig::default()
                    .with_total_bins(64)
                    .with_manual_layers(3)
                    .with_common_fraction(0.0),
            );
        }
        let searcher = Searcher::open(store, "idx").unwrap();
        let r = execute_with(
            &searcher,
            "beta",
            Straggler::Timeout(SimDuration::from_millis(10_000)),
        );
        assert_eq!(
            postings_phase(&r).requests,
            3,
            "generous timeout keeps all layers"
        );
    }

    #[test]
    fn searcher_memory_is_small() {
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        build_index(
            store.clone(),
            &["a b c", "d e f"],
            AirphantConfig::default().with_total_bins(1_000),
        );
        let searcher = Searcher::open(store, "idx").unwrap();
        assert!(searcher.memory_bytes() < 64 * 1024);
        assert!(searcher.init_trace().bytes() > 0);
    }

    #[test]
    fn sample_postings_is_deterministic_and_unique() {
        let list = PostingsList::from_doc_ids(&(0..100).collect::<Vec<u64>>());
        let a = sample_postings(&list, 10, 42);
        let b = sample_postings(&list, 10, 42);
        assert_eq!(a, b);
        let set: std::collections::HashSet<_> = a.iter().collect();
        assert_eq!(set.len(), 10, "sampling is without replacement");
        let all = sample_postings(&list, 1_000, 42);
        assert_eq!(all.len(), 100, "k > n clamps to n");
    }
}
