//! Streaming ingestion: an in-memory memtable tail, a [`LiveIndex`] that
//! merges it with the durable segments, and a group-commit [`Flusher`].
//!
//! The paper defers frequent updates to future work (§III-A); the
//! segmented index (PR 3) made appends *possible* but each one is a full
//! [`Builder`](crate::Builder) run to object storage — a freshly appended
//! document is invisible until its segment lands. This module adds the
//! missing LSM half:
//!
//! * [`Memtable`] — an in-memory tail batch. Appended documents are
//!   indexed with the **same** builder, config, and tokenizer as durable
//!   segments, into a mini-index staged in a [`TailStore`] overlay
//!   (never written to the durable store). Because the mini-index is a
//!   real segment in all but durability, the memtable serves queries
//!   through the *same* staged planner (`crate::plan`) as every other
//!   segment — including the serving core's suspend/resume halves via
//!   [`StagedEngine`].
//! * [`LiveIndex`] — the read/write front. Reads see
//!   `[durable segments…, sealed batches…, active batch]`, exactly the
//!   segment order a post-flush manifest produces; writes go to the
//!   active batch and are searchable immediately. Results are
//!   **byte-for-byte equal** to a post-flush search *by construction*:
//!   the same planner walks the same per-segment sketches (the staged
//!   build is deterministic under the shared config seed) and document
//!   hits carry the same `(blob, offset, len)` because the corpus batch
//!   is staged under its final durable name up front.
//! * [`Flusher`] — a background thread that group-commits sealed batches
//!   into real segments through the existing [`SegmentManager`] CAS
//!   publish. A crash (or injected write fault) mid-flush leaves the old
//!   manifest generation intact and the memtable still serving — never a
//!   torn index; a retried flush converges.
//!
//! ## Flush protocol
//!
//! 1. Seal the active memtable (atomically swap in a fresh one); sealed
//!    batches keep serving reads.
//! 2. For the oldest sealed batch: `put` its corpus blob to the durable
//!    store under the name it was staged at, then build + CAS-publish a
//!    real segment over it ([`SegmentManager::append`]).
//! 3. Reopen the durable snapshot, retire the sealed batch, and drop its
//!    staged blobs — all under one write lock, so no query ever sees a
//!    gap or a doubled batch.
//!
//! If any step fails, the batch stays sealed (still serving), the
//! manifest is untouched (the CAS publish is the single commit point),
//! and re-running the flush retries from step 2. Half-built segment
//! blobs from a failed attempt are orphans for the compactor's GC sweep,
//! exactly like a crashed [`SegmentManager::append`].

use crate::config::AirphantConfig;
use crate::engine::{SearchEngine, StagedEngine};
use crate::error::AirphantError;
use crate::query::{Query, QueryOptions};
use crate::result::SearchResult;
use crate::searcher::Searcher;
use crate::segments::{SegmentManager, SegmentedSearcher};
use crate::Result;
use airphant_corpus::{Corpus, LineSplitter, Tokenizer, WhitespaceTokenizer};
use airphant_storage::{ObjectStore, QueryTrace, TailStore};
use bytes::Bytes;
use iou_sketch::PostingsList;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// When the active memtable is sealed into a flush-ready batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushPolicy {
    /// Seal once the active batch holds this many documents.
    pub max_docs: usize,
    /// Seal once the active batch holds this many corpus bytes.
    pub max_bytes: u64,
}

impl Default for FlushPolicy {
    fn default() -> Self {
        FlushPolicy {
            max_docs: 4096,
            max_bytes: 4 << 20,
        }
    }
}

/// What one [`LiveIndex::flush`] call committed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlushReport {
    /// Sealed batches turned into durable segments.
    pub batches: usize,
    /// Documents made durable.
    pub docs: usize,
    /// Corpus bytes made durable (index bytes not included).
    pub corpus_bytes: u64,
    /// Manifest generation after the last publish.
    pub generation: u64,
}

/// State behind the memtable's lock: the raw documents plus the staged
/// mini-index covering a prefix of them.
struct MemtableState {
    docs: Vec<String>,
    bytes: u64,
    /// How many of `docs` the staged searcher covers.
    built_docs: usize,
    searcher: Option<Searcher>,
}

/// An in-memory tail batch: appended documents plus a lazily (re)built
/// staged mini-index over them.
///
/// The mini-index is produced by the same [`Builder`](crate::Builder)
/// (same config, same seed, same tokenizer) that durable segments use,
/// over the exact corpus bytes a flush will later make durable — staged
/// in the [`TailStore`] under the batch's final blob name. That identity
/// is what makes live results equal post-flush results byte for byte.
pub struct Memtable {
    tail: Arc<TailStore>,
    config: AirphantConfig,
    tokenizer: Arc<dyn Tokenizer>,
    /// The corpus blob's final durable name, staged up front.
    corpus_blob: String,
    /// The staged mini-index prefix (under the tail's staging prefix).
    index_prefix: String,
    state: RwLock<MemtableState>,
}

impl Memtable {
    fn new(
        tail: Arc<TailStore>,
        config: AirphantConfig,
        tokenizer: Arc<dyn Tokenizer>,
        base: &str,
        seq: u64,
    ) -> Self {
        Memtable {
            tail,
            config,
            tokenizer,
            corpus_blob: format!("{base}/ingest/batch-{seq:08}"),
            index_prefix: format!("{base}/.memtable/batch-{seq:08}"),
            state: RwLock::new(MemtableState {
                docs: Vec::new(),
                bytes: 0,
                built_docs: 0,
                searcher: None,
            }),
        }
    }

    /// Append one document (a log line). Rejected with
    /// [`AirphantError::InvalidDocument`] if empty or containing a raw
    /// newline — the line-oriented corpus codec could not round-trip it,
    /// which would break live/post-flush equality.
    pub fn append(&self, line: &str) -> Result<()> {
        if line.is_empty() {
            return Err(AirphantError::InvalidDocument {
                reason: "empty documents are skipped by the line splitter".to_owned(),
            });
        }
        if line.contains('\n') {
            return Err(AirphantError::InvalidDocument {
                reason: "raw newline would split the document at flush".to_owned(),
            });
        }
        let mut st = self.lock_write();
        st.bytes += line.len() as u64 + 1;
        st.docs.push(line.to_owned());
        Ok(())
    }

    /// Number of documents in this batch.
    pub fn len(&self) -> usize {
        self.lock_read().docs.len()
    }

    /// Whether the batch holds no documents.
    pub fn is_empty(&self) -> bool {
        self.lock_read().docs.is_empty()
    }

    /// Corpus bytes this batch will occupy once flushed.
    pub fn pending_bytes(&self) -> u64 {
        self.lock_read().bytes
    }

    /// The durable blob name this batch flushes to (already used by
    /// staged document hits).
    pub fn corpus_blob(&self) -> &str {
        &self.corpus_blob
    }

    /// The exact bytes a flush writes: documents joined by `\n`.
    fn corpus_bytes(&self) -> Bytes {
        Bytes::from(self.lock_read().docs.join("\n"))
    }

    fn lock_read(&self) -> RwLockReadGuard<'_, MemtableState> {
        self.state.read().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_write(&self) -> std::sync::RwLockWriteGuard<'_, MemtableState> {
        self.state.write().unwrap_or_else(|e| e.into_inner())
    }

    /// (Re)build the staged mini-index if documents arrived since the
    /// last build. A search of an N-doc batch therefore pays one
    /// in-memory build, and repeat searches are free until the next
    /// append — group-commit amortization on the read side.
    fn ensure_built(&self) -> Result<()> {
        {
            let st = self.lock_read();
            if st.built_docs == st.docs.len() {
                return Ok(());
            }
        }
        let mut st = self.lock_write();
        if st.built_docs == st.docs.len() {
            return Ok(());
        }
        // Stage the corpus under its final durable name, replace the
        // previous build, and open a searcher over the staged blobs.
        // Readers hold the state read lock while searching, so the
        // unstage/rebuild window is invisible to them.
        self.tail
            .stage(&self.corpus_blob, Bytes::from(st.docs.join("\n")));
        self.tail.unstage_prefix(&format!("{}/", self.index_prefix));
        let corpus = Corpus::new(
            self.tail.clone() as Arc<dyn ObjectStore>,
            vec![self.corpus_blob.clone()],
            Arc::new(LineSplitter),
            self.tokenizer.clone(),
        );
        crate::builder::Builder::new(self.config.clone()).build(&corpus, &self.index_prefix)?;
        let searcher = Searcher::open_with_tokenizer(
            self.tail.clone() as Arc<dyn ObjectStore>,
            &self.index_prefix,
            self.tokenizer.clone(),
        )?;
        st.built_docs = st.docs.len();
        st.searcher = Some(searcher);
        Ok(())
    }

    /// Run `f` over the staged searcher (`None` while the batch is
    /// empty), rebuilding first if the batch grew.
    fn with_searcher<T>(&self, f: impl FnOnce(Option<&Searcher>) -> T) -> Result<T> {
        self.ensure_built()?;
        let st = self.lock_read();
        Ok(f(st.searcher.as_ref()))
    }
}

impl SearchEngine for Memtable {
    fn name(&self) -> &'static str {
        "AIRPHANT-memtable"
    }

    fn lookup(&self, word: &str) -> Result<(PostingsList, QueryTrace)> {
        self.with_searcher(|s| match s {
            Some(s) => crate::plan::lookup_over(&[&[s]], &Query::term(word)),
            None => Ok((PostingsList::new(), QueryTrace::new())),
        })?
    }

    fn execute(&self, query: &Query, opts: &QueryOptions) -> Result<SearchResult> {
        self.with_searcher(|s| match s {
            Some(s) => crate::plan::execute_single(&[s], query, opts),
            None => Ok(SearchResult {
                hits: Vec::new(),
                trace: QueryTrace::new(),
                candidates: 0,
                false_positives_removed: 0,
            }),
        })?
    }

    fn index_bytes(&self) -> u64 {
        self.tail
            .usage(&format!("{}/", self.index_prefix))
            .unwrap_or(0)
    }

    fn staged(&self) -> Option<&dyn StagedEngine> {
        Some(self)
    }
}

impl StagedEngine for Memtable {
    fn with_segments(&self, f: &mut dyn FnMut(&[&Searcher])) {
        // An in-memory staged build cannot fail under a validated
        // config; if it somehow does, serve the empty set rather than
        // panicking the executor thread.
        if self.ensure_built().is_err() {
            f(&[]);
            return;
        }
        let st = self.lock_read();
        match st.searcher.as_ref() {
            Some(s) => f(&[s]),
            None => f(&[]),
        }
    }
}

/// Mutable state of the live index: the durable snapshot plus the
/// double-buffered memtables.
struct LiveState {
    durable: SegmentedSearcher,
    /// Sealed batches awaiting flush, oldest first. They keep serving
    /// reads until their segment is durable.
    sealed: VecDeque<Arc<Memtable>>,
    active: Arc<Memtable>,
    /// Sequence number for the next batch to create.
    next_batch: u64,
}

/// A segmented index with a live in-memory tail: appends are searchable
/// immediately, group-commit flushes make them durable, and results are
/// byte-for-byte what a post-flush search returns.
///
/// Implements [`SearchEngine`] and [`StagedEngine`], so both serving
/// front ends — the closed-loop [`QueryServer`](crate::QueryServer) and
/// the open-loop [`AsyncQueryServer`](crate::AsyncQueryServer) — serve
/// it through the staged planner directly.
pub struct LiveIndex {
    tail: Arc<TailStore>,
    mgr: SegmentManager,
    config: AirphantConfig,
    tokenizer: Arc<dyn Tokenizer>,
    base: String,
    policy: FlushPolicy,
    /// Serializes flushes: two concurrent flushes of one batch would
    /// publish the same documents as two segments.
    flush_lock: Mutex<()>,
    state: RwLock<LiveState>,
}

impl LiveIndex {
    /// Open (or create) a live index over `store` rooted at `base`, with
    /// the whitespace tokenizer.
    pub fn open(
        store: Arc<dyn ObjectStore>,
        base: impl Into<String>,
        config: AirphantConfig,
    ) -> Result<Self> {
        Self::open_with_tokenizer(store, base, config, Arc::new(WhitespaceTokenizer))
    }

    /// Open with a custom tokenizer (must match what durable segments
    /// under `base` were built with).
    pub fn open_with_tokenizer(
        store: Arc<dyn ObjectStore>,
        base: impl Into<String>,
        config: AirphantConfig,
        tokenizer: Arc<dyn Tokenizer>,
    ) -> Result<Self> {
        let base = base.into();
        config.validate()?;
        let tail = Arc::new(TailStore::new(store, format!("{base}/.memtable/")));
        let mgr = SegmentManager::new(tail.clone() as Arc<dyn ObjectStore>, base.clone());
        let durable = mgr.open_inner(tokenizer.clone(), true)?;
        // Resume batch numbering after any previously flushed batches so
        // a restarted writer never reuses a durable blob name.
        let next_batch = tail
            .inner()
            .list(&format!("{base}/ingest/batch-"))?
            .iter()
            .filter_map(|n| n.rsplit('-').next()?.parse::<u64>().ok())
            .max()
            .map_or(0, |m| m + 1);
        let active = Arc::new(Memtable::new(
            tail.clone(),
            config.clone(),
            tokenizer.clone(),
            &base,
            next_batch,
        ));
        Ok(LiveIndex {
            tail,
            mgr,
            config,
            tokenizer,
            base,
            policy: FlushPolicy::default(),
            flush_lock: Mutex::new(()),
            state: RwLock::new(LiveState {
                durable,
                sealed: VecDeque::new(),
                active,
                next_batch: next_batch + 1,
            }),
        })
    }

    /// Replace the seal policy (defaults to [`FlushPolicy::default`]).
    pub fn with_policy(mut self, policy: FlushPolicy) -> Self {
        self.policy = policy;
        self
    }

    fn lock_read(&self) -> RwLockReadGuard<'_, LiveState> {
        self.state.read().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_write(&self) -> std::sync::RwLockWriteGuard<'_, LiveState> {
        self.state.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Append one document; it is searchable as soon as this returns.
    /// Seals the active batch into the flush queue when it crosses the
    /// [`FlushPolicy`] (sealing keeps it searchable — only a flush makes
    /// it durable).
    pub fn append(&self, line: &str) -> Result<()> {
        {
            let st = self.lock_read();
            st.active.append(line)?;
        }
        let should_seal = {
            let st = self.lock_read();
            st.active.len() >= self.policy.max_docs
                || st.active.pending_bytes() >= self.policy.max_bytes
        };
        if should_seal {
            self.seal();
        }
        Ok(())
    }

    /// Rotate the double buffer: move the active batch (if non-empty) to
    /// the sealed queue and install a fresh active batch. Sealed batches
    /// keep serving until their segment is durable.
    pub fn seal(&self) {
        let mut st = self.lock_write();
        if st.active.is_empty() {
            return;
        }
        let seq = st.next_batch;
        st.next_batch += 1;
        let fresh = Arc::new(Memtable::new(
            self.tail.clone(),
            self.config.clone(),
            self.tokenizer.clone(),
            &self.base,
            seq,
        ));
        let sealed = std::mem::replace(&mut st.active, fresh);
        st.sealed.push_back(sealed);
    }

    /// Group-commit every pending batch (sealing the active one first)
    /// into durable segments, oldest first. On error the failed batch —
    /// and everything after it — stays sealed and serving; the manifest
    /// is never torn (the CAS publish is the single commit point) and a
    /// retry converges.
    pub fn flush(&self) -> Result<FlushReport> {
        let _flushing = self.flush_lock.lock().unwrap_or_else(|e| e.into_inner());
        self.seal();
        let mut report = FlushReport::default();
        loop {
            let next = self.lock_read().sealed.front().cloned();
            let Some(mem) = next else { break };
            let (docs, bytes) = self.flush_one(&mem)?;
            report.batches += 1;
            report.docs += docs;
            report.corpus_bytes += bytes;
        }
        report.generation = self.generation();
        Ok(report)
    }

    /// Make one sealed batch durable: corpus put → segment build → CAS
    /// publish → snapshot swap → drop staged blobs.
    fn flush_one(&self, mem: &Arc<Memtable>) -> Result<(usize, u64)> {
        // Re-stage first: an earlier search may have staged a corpus
        // covering only a prefix of the batch, and the tail-first read
        // below would serve that stale copy to the segment build.
        mem.ensure_built()?;
        let bytes = mem.corpus_bytes();
        let n_docs = mem.len();
        let n_bytes = bytes.len() as u64;
        // 1. The corpus batch becomes durable under the exact name its
        //    staged hits already carry. Retry-idempotent: same bytes,
        //    same name.
        self.tail.inner().put(&mem.corpus_blob, bytes)?;
        // 2. Build + CAS-publish a real segment over the durable blob.
        //    (Corpus reads resolve from the staged copy — identical
        //    bytes, no cloud round trips for the build's input.)
        let corpus = Corpus::new(
            self.tail.clone() as Arc<dyn ObjectStore>,
            vec![mem.corpus_blob.clone()],
            Arc::new(LineSplitter),
            self.tokenizer.clone(),
        );
        self.mgr.append(&corpus, &self.config)?;
        // 3. Swap in the new durable snapshot and retire the batch under
        //    one write lock: queries see the batch as a memtable or as a
        //    durable segment, never both, never neither.
        let durable = self.mgr.open_inner(self.tokenizer.clone(), true)?;
        {
            let mut st = self.lock_write();
            st.durable = durable;
            if st
                .sealed
                .front()
                .is_some_and(|front| Arc::ptr_eq(front, mem))
            {
                st.sealed.pop_front();
            }
        }
        // 4. The staged copies are dead weight now; durable reads take
        //    over at the same coordinates.
        self.tail.unstage(&mem.corpus_blob);
        self.tail.unstage_prefix(&format!("{}/", mem.index_prefix));
        Ok((n_docs, n_bytes))
    }

    /// Documents appended but not yet durable (active + sealed batches).
    pub fn pending_docs(&self) -> usize {
        let st = self.lock_read();
        st.active.len() + st.sealed.iter().map(|m| m.len()).sum::<usize>()
    }

    /// Sealed batches waiting for a flush.
    pub fn sealed_batches(&self) -> usize {
        self.lock_read().sealed.len()
    }

    /// The durable manifest generation this index last observed.
    pub fn generation(&self) -> u64 {
        self.lock_read().durable.generation()
    }

    /// Durable segments in the current snapshot.
    pub fn durable_segments(&self) -> usize {
        self.lock_read().durable.segment_count()
    }

    /// The segment manager over the same (overlaid) store, for
    /// compaction or inspection.
    pub fn segment_manager(&self) -> &SegmentManager {
        &self.mgr
    }

    /// Run `f` over the full live segment set: durable segments in
    /// manifest order, then sealed batches oldest-first, then the active
    /// batch — the exact order a post-flush manifest would produce.
    fn with_all_segments<T>(&self, f: impl FnOnce(&[&Searcher]) -> T) -> Result<T> {
        let st = self.lock_read();
        let mems: Vec<Arc<Memtable>> = st
            .sealed
            .iter()
            .cloned()
            .chain(std::iter::once(st.active.clone()))
            .collect();
        for m in &mems {
            m.ensure_built()?;
        }
        let guards: Vec<RwLockReadGuard<'_, MemtableState>> =
            mems.iter().map(|m| m.lock_read()).collect();
        let mut refs: Vec<&Searcher> = st.durable.segments().iter().collect();
        for g in &guards {
            if let Some(s) = g.searcher.as_ref() {
                refs.push(s);
            }
        }
        Ok(f(&refs))
    }
}

impl SearchEngine for LiveIndex {
    fn name(&self) -> &'static str {
        "AIRPHANT-live"
    }

    fn lookup(&self, word: &str) -> Result<(PostingsList, QueryTrace)> {
        self.with_all_segments(|refs| crate::plan::lookup_over(&[refs], &Query::term(word)))?
    }

    fn execute(&self, query: &Query, opts: &QueryOptions) -> Result<SearchResult> {
        self.with_all_segments(|refs| crate::plan::execute_single(refs, query, opts))?
    }

    fn index_bytes(&self) -> u64 {
        let durable: u64 = self
            .lock_read()
            .durable
            .segments()
            .iter()
            .map(|s| s.index_usage_bytes())
            .sum();
        durable + self.tail.staged_bytes()
    }

    fn staged(&self) -> Option<&dyn StagedEngine> {
        Some(self)
    }
}

impl StagedEngine for LiveIndex {
    fn with_segments(&self, f: &mut dyn FnMut(&[&Searcher])) {
        // The callback MUST be invoked (the serving core relies on it); if
        // a staged build errors, degrade to the durable snapshot.
        if self.with_all_segments(|refs| f(refs)).is_err() {
            let st = self.lock_read();
            let refs: Vec<&Searcher> = st.durable.segments().iter().collect();
            f(&refs);
        }
    }
}

// One LiveIndex behind an Arc serves N query threads while an appender
// writes and the flusher commits.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Memtable>();
    assert_send_sync::<LiveIndex>();
};

/// Counters of a [`Flusher`]'s background activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlusherStats {
    /// Successful flush rounds (only rounds that committed ≥ 1 batch).
    pub flushes: u64,
    /// Flush rounds that returned an error (batches stay sealed; the
    /// next tick retries).
    pub failures: u64,
    /// Documents made durable by this flusher.
    pub docs_flushed: u64,
}

struct FlusherShared {
    stop: AtomicBool,
    flushes: AtomicU64,
    failures: AtomicU64,
    docs_flushed: AtomicU64,
}

/// A background group-commit thread: every `interval`, flush whatever
/// the [`LiveIndex`] has pending. Errors are counted and retried on the
/// next tick (the memtable keeps serving either way). Dropping the
/// flusher stops the thread after one final flush attempt.
pub struct Flusher {
    shared: Arc<FlusherShared>,
    handle: Option<JoinHandle<()>>,
}

impl Flusher {
    /// Start flushing `live` every `interval` (wall clock).
    pub fn start(live: Arc<LiveIndex>, interval: Duration) -> Self {
        let shared = Arc::new(FlusherShared {
            stop: AtomicBool::new(false),
            flushes: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            docs_flushed: AtomicU64::new(0),
        });
        let thread_shared = shared.clone();
        let handle = std::thread::spawn(move || {
            loop {
                if thread_shared.stop.load(Ordering::Acquire) {
                    break;
                }
                std::thread::park_timeout(interval);
                Self::flush_once(&live, &thread_shared);
            }
            // Final group commit so an orderly shutdown loses nothing.
            Self::flush_once(&live, &thread_shared);
        });
        Flusher {
            shared,
            handle: Some(handle),
        }
    }

    fn flush_once(live: &LiveIndex, shared: &FlusherShared) {
        if live.pending_docs() == 0 {
            return;
        }
        match live.flush() {
            Ok(report) if report.batches > 0 => {
                shared.flushes.fetch_add(1, Ordering::Relaxed);
                shared
                    .docs_flushed
                    .fetch_add(report.docs as u64, Ordering::Relaxed);
            }
            Ok(_) => {}
            Err(_) => {
                shared.failures.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Snapshot of the flusher's counters.
    pub fn stats(&self) -> FlusherStats {
        FlusherStats {
            flushes: self.shared.flushes.load(Ordering::Relaxed),
            failures: self.shared.failures.load(Ordering::Relaxed),
            docs_flushed: self.shared.docs_flushed.load(Ordering::Relaxed),
        }
    }

    /// Stop the thread after one final flush attempt and return the
    /// final counters.
    pub fn stop(mut self) -> FlusherStats {
        self.join();
        self.stats()
    }

    fn join(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
    }
}

impl Drop for Flusher {
    fn drop(&mut self) {
        self.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airphant_storage::InMemoryStore;

    fn config() -> AirphantConfig {
        AirphantConfig::default()
            .with_total_bins(64)
            .with_common_fraction(0.0)
    }

    fn live(store: Arc<dyn ObjectStore>) -> LiveIndex {
        LiveIndex::open(store, "idx", config()).unwrap()
    }

    fn texts(r: &SearchResult) -> Vec<&str> {
        r.hits.iter().map(|h| h.text.as_str()).collect()
    }

    #[test]
    fn appends_are_searchable_before_any_durability() {
        let inner: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        let idx = live(inner.clone());
        idx.append("error disk unit0").unwrap();
        idx.append("info boot unit1").unwrap();
        // Nothing durable yet: no manifest, no segments, no corpus blobs.
        assert!(inner.list("idx/").unwrap().is_empty());
        assert_eq!(idx.generation(), 0);
        let r = idx
            .execute(&Query::term("error"), &QueryOptions::new())
            .unwrap();
        assert_eq!(texts(&r), vec!["error disk unit0"]);
        assert_eq!(idx.pending_docs(), 2);
    }

    #[test]
    fn staged_blobs_count_in_tail_metadata_before_first_flush() {
        let inner: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        let tail = Arc::new(TailStore::new(inner.clone(), "idx/.memtable/"));
        let mem = Memtable::new(
            tail.clone(),
            config(),
            Arc::new(WhitespaceTokenizer),
            "idx",
            0,
        );
        mem.append("error disk unit0").unwrap();
        mem.append("info boot unit1").unwrap();
        // A search builds the staged mini-index; nothing is durable yet.
        mem.execute(&Query::term("error"), &QueryOptions::new())
            .unwrap();
        assert!(inner.list("").unwrap().is_empty());

        // The corpus blob is staged under its durable name, outside the
        // staging prefix; the mini-index lives under the prefix.
        let corpus = mem.corpus_blob();
        let corpus_len = mem.pending_bytes() - 1;
        assert!(tail.exists(corpus));
        assert!(!inner.exists(corpus));
        assert_eq!(tail.size_of(corpus).unwrap(), corpus_len);
        assert_eq!(tail.usage(corpus).unwrap(), corpus_len);

        let index = format!("{}/", mem.index_prefix);
        let staged = tail.list(&index).unwrap();
        assert!(!staged.is_empty());
        let staged_bytes: u64 = staged.iter().map(|n| tail.size_of(n).unwrap()).sum();
        assert!(staged.iter().all(|n| tail.exists(n) && !inner.exists(n)));
        assert_eq!(tail.usage(&index).unwrap(), staged_bytes);
        assert_eq!(tail.usage("idx/").unwrap(), staged_bytes + corpus_len);
        assert_eq!(inner.usage("idx/").unwrap(), 0);
        assert!(mem.index_bytes() > 0);
        assert_eq!(mem.index_bytes(), staged_bytes);
    }

    #[test]
    fn invalid_documents_are_rejected() {
        let idx = live(Arc::new(InMemoryStore::new()));
        assert!(matches!(
            idx.append(""),
            Err(AirphantError::InvalidDocument { .. })
        ));
        assert!(matches!(
            idx.append("two\nlines"),
            Err(AirphantError::InvalidDocument { .. })
        ));
        assert_eq!(idx.pending_docs(), 0);
    }

    #[test]
    fn live_results_equal_post_flush_results_byte_for_byte() {
        let inner: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        let idx = live(inner.clone());
        for i in 0..40 {
            idx.append(&format!("common word{i} line{i}")).unwrap();
        }
        let canonical = |r: &SearchResult| {
            r.hits
                .iter()
                .map(|h| format!("{}#{}+{}:{}", h.blob, h.offset, h.len, h.text))
                .collect::<Vec<_>>()
        };
        let queries = [
            Query::term("common"),
            Query::term("word7"),
            Query::term("absent"),
            Query::all([Query::term("common"), Query::term("word3")]),
        ];
        let before: Vec<Vec<String>> = queries
            .iter()
            .map(|q| canonical(&idx.execute(q, &QueryOptions::new()).unwrap()))
            .collect();
        let report = idx.flush().unwrap();
        assert_eq!(report.docs, 40);
        assert_eq!(report.batches, 1);
        // Post-flush, through the live index AND through a cold
        // segmented open of the durable store alone.
        let reopened = SegmentManager::new(inner, "idx").open().unwrap();
        for (q, want) in queries.iter().zip(&before) {
            let live_after = canonical(&idx.execute(q, &QueryOptions::new()).unwrap());
            let durable = canonical(&reopened.execute(q, &QueryOptions::new()).unwrap());
            assert_eq!(&live_after, want, "live result changed across flush");
            assert_eq!(&durable, want, "durable result differs from live");
        }
    }

    #[test]
    fn seal_policy_rotates_and_flush_commits_in_order() {
        let inner: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        let idx = live(inner.clone()).with_policy(FlushPolicy {
            max_docs: 3,
            max_bytes: u64::MAX,
        });
        for i in 0..7 {
            idx.append(&format!("doc{i} shared")).unwrap();
        }
        // 7 docs at 3/batch: two sealed batches + one active.
        assert_eq!(idx.sealed_batches(), 2);
        assert_eq!(idx.pending_docs(), 7);
        let r = idx
            .execute(&Query::term("shared"), &QueryOptions::new())
            .unwrap();
        assert_eq!(
            texts(&r),
            (0..7).map(|i| format!("doc{i} shared")).collect::<Vec<_>>()
        );
        let report = idx.flush().unwrap();
        assert_eq!(report.batches, 3);
        assert_eq!(report.docs, 7);
        assert_eq!(idx.pending_docs(), 0);
        assert_eq!(idx.durable_segments(), 3);
        // Order preserved across the flush.
        let r = idx
            .execute(&Query::term("shared"), &QueryOptions::new())
            .unwrap();
        assert_eq!(
            texts(&r),
            (0..7).map(|i| format!("doc{i} shared")).collect::<Vec<_>>()
        );
        // The staged overlay is fully drained.
        assert_eq!(idx.tail.staged_count(), 0);
    }

    #[test]
    fn reopen_resumes_batch_numbering() {
        let inner: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        {
            let idx = live(inner.clone());
            idx.append("first run doc").unwrap();
            idx.flush().unwrap();
        }
        let idx = live(inner.clone());
        idx.append("second run doc").unwrap();
        idx.flush().unwrap();
        let blobs = inner.list("idx/ingest/").unwrap();
        assert_eq!(
            blobs,
            vec!["idx/ingest/batch-00000000", "idx/ingest/batch-00000001"]
        );
        let r = idx
            .execute(&Query::term("doc"), &QueryOptions::new())
            .unwrap();
        assert_eq!(r.hits.len(), 2);
    }

    #[test]
    fn flusher_thread_commits_in_background() {
        let inner: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        let idx = Arc::new(live(inner));
        let flusher = Flusher::start(idx.clone(), Duration::from_millis(1));
        for i in 0..20 {
            idx.append(&format!("bg doc{i}")).unwrap();
        }
        // The final flush on stop() guarantees everything is durable.
        let stats = flusher.stop();
        assert_eq!(idx.pending_docs(), 0);
        assert!(stats.flushes >= 1);
        assert_eq!(stats.failures, 0);
        assert_eq!(stats.docs_flushed, 20);
        assert!(idx.generation() >= 1);
        let r = idx
            .execute(&Query::term("bg"), &QueryOptions::new())
            .unwrap();
        assert_eq!(r.hits.len(), 20);
    }

    #[test]
    fn memtable_is_a_staged_engine() {
        let idx = live(Arc::new(InMemoryStore::new()));
        idx.append("staged alpha").unwrap();
        let mut n_segments = None;
        StagedEngine::with_segments(&idx, &mut |segs| n_segments = Some(segs.len()));
        assert_eq!(n_segments, Some(1));
        idx.flush().unwrap();
        idx.append("staged beta").unwrap();
        let mut n_segments = None;
        StagedEngine::with_segments(&idx, &mut |segs| n_segments = Some(segs.len()));
        // One durable segment + the active memtable.
        assert_eq!(n_segments, Some(2));
    }
}
