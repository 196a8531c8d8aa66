//! Segment compaction and garbage collection — the merge half of the
//! LSM-style lifecycle (`segments.rs` is the append half).
//!
//! Every append adds one segment, and every live segment adds its
//! superpost pointers to each query's fan-in, so an append-only index
//! slowly trades lookup latency for freshness. The [`Compactor`] restores
//! the balance: it merges the K smallest live segments (size-tiered
//! selection) into one segment rebuilt from source documents with the
//! ordinary [`Builder`], publishes the swap as a single new manifest
//! generation via compare-and-swap, and only then garbage-collects the
//! superseded blobs. The order gives crash atomicity:
//!
//! 1. the merged segment is built under a fresh unique prefix — a crash
//!    here leaves the manifest untouched and the new blobs orphaned;
//! 2. the manifest CAS atomically unlinks the merged segments and links
//!    the replacement — readers see either the old generation or the new
//!    one, never a mix, and a lost CAS (a concurrent append) is retried
//!    against the fresh manifest;
//! 3. deletion of superseded blobs happens strictly after the new
//!    manifest is durable — a crash between 2 and 3 leaks blobs (cleaned
//!    by the next orphan sweep) but never loses data.
//!
//! The orphan sweep also reclaims the debris of half-finished builds
//! (e.g. superposts persisted but no header — a builder that died
//! mid-persist). It assumes no append is in flight *at sweep time*
//! (an in-progress build is indistinguishable from a dead one); run it
//! from the same maintenance task that runs compaction.

use crate::builder::{BuildReport, Builder};
use crate::config::AirphantConfig;
use crate::segments::{manifest_blob, unique_segment_id, SegmentEntry, SegmentManager};
use crate::Result;
use airphant_corpus::{
    Corpus, DocFilter, DocSplitter, LineSplitter, Tokenizer, WhitespaceTokenizer,
};
use airphant_storage::ObjectStore;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Delete every blob under `{prefix}/`, returning how many went away.
/// Shared with layout-generation GC ([`crate::ShardRouter::gc_generation`]).
pub(crate) fn delete_prefix(store: &dyn ObjectStore, prefix: &str) -> Result<usize> {
    let names = store.list(&format!("{prefix}/"))?;
    let count = names.len();
    for name in names {
        store.delete(&name)?;
    }
    Ok(count)
}

/// When and how aggressively to compact.
#[derive(Debug, Clone)]
pub struct CompactionPolicy {
    /// Compact while the live-segment count exceeds this bound. `1`
    /// means "merge everything into a single segment".
    pub max_live_segments: usize,
    /// How many of the smallest live segments each round merges
    /// (clamped to at least 2 and at most the live count).
    pub merge_factor: usize,
    /// Whether [`Compactor::compact`] finishes with an orphan sweep.
    /// **Off by default**: the sweep cannot tell an in-flight append's
    /// not-yet-published blobs from a dead build's, so it must only be
    /// enabled when the caller knows no append is running (deleting a
    /// racing append's blobs would let it publish a segment whose header
    /// is gone, wedging every subsequent open of the index).
    pub sweep_orphans: bool,
    /// Defer all deletion: [`Compactor::compact`] publishes the new
    /// generation but removes **nothing**, recording the superseded
    /// prefixes in the report for a later [`Compactor::gc_deferred`].
    /// Use this when a live [`QueryServer`](crate::QueryServer) may
    /// still have in-flight queries on the old generation (each query
    /// keeps the engine it was submitted on): publish → refresh → drain
    /// → GC.
    pub defer_gc: bool,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy {
            max_live_segments: 8,
            merge_factor: 4,
            sweep_orphans: false,
            defer_gc: false,
        }
    }
}

impl CompactionPolicy {
    /// Default policy: keep at most 8 live segments, merging 4 at a
    /// time; no orphan sweep (opt in with
    /// [`CompactionPolicy::with_orphan_sweep`] when appends are
    /// quiesced).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the live-segment bound that triggers compaction.
    pub fn with_max_live_segments(mut self, max: usize) -> Self {
        assert!(max >= 1, "at least one live segment must remain");
        self.max_live_segments = max;
        self
    }

    /// Set how many segments each compaction round merges.
    pub fn with_merge_factor(mut self, k: usize) -> Self {
        self.merge_factor = k;
        self
    }

    /// Enable/disable the trailing orphan sweep. Only enable when no
    /// append can be in flight (see [`CompactionPolicy::sweep_orphans`]).
    pub fn with_orphan_sweep(mut self, sweep: bool) -> Self {
        self.sweep_orphans = sweep;
        self
    }

    /// Defer deletion to an explicit [`Compactor::gc_deferred`] call
    /// (for the publish → refresh → drain → GC sequence).
    pub fn with_deferred_gc(mut self, defer: bool) -> Self {
        self.defer_gc = defer;
        self
    }
}

/// What a [`Compactor::compact`] run did — the compaction counterpart of
/// [`BuildReport`].
#[derive(Debug, Clone, Default)]
pub struct CompactionReport {
    /// Merge rounds performed (0 when the index was already compact).
    pub rounds: usize,
    /// Ids of the segments that were merged away.
    pub merged_segment_ids: Vec<String>,
    /// Ids of the replacement segments that were created.
    pub new_segment_ids: Vec<String>,
    /// Build reports of the rebuilt (merged) segments.
    pub builds: Vec<BuildReport>,
    /// Live segments before and after.
    pub live_before: usize,
    /// Live segments once compaction finished.
    pub live_after: usize,
    /// Manifest generation after the last publish.
    pub generation: u64,
    /// Blobs of superseded segments deleted after their unlink was
    /// durable.
    pub superseded_blobs_deleted: usize,
    /// Unreferenced blobs reclaimed by the orphan sweep.
    pub orphan_blobs_deleted: usize,
    /// Superseded segment prefixes whose deletion was deferred
    /// ([`CompactionPolicy::defer_gc`]); hand this report to
    /// [`Compactor::gc_deferred`] once old-generation readers drained.
    pub deferred_prefixes: Vec<String>,
}

/// Merges small segments and reclaims dead blobs for one
/// [`SegmentManager`].
pub struct Compactor<'a> {
    manager: &'a SegmentManager,
    config: AirphantConfig,
    policy: CompactionPolicy,
    splitter: Arc<dyn DocSplitter>,
    tokenizer: Arc<dyn Tokenizer>,
    doc_filter: Option<DocFilter>,
}

impl<'a> Compactor<'a> {
    /// A compactor over `manager`, rebuilding merged segments with
    /// `config` (defaults: line-split documents, whitespace tokens,
    /// [`CompactionPolicy::default`]).
    pub fn new(manager: &'a SegmentManager, config: AirphantConfig) -> Self {
        Compactor {
            manager,
            config,
            policy: CompactionPolicy::default(),
            splitter: Arc::new(LineSplitter),
            tokenizer: Arc::new(WhitespaceTokenizer),
            doc_filter: None,
        }
    }

    /// Set the compaction policy.
    pub fn with_policy(mut self, policy: CompactionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Set the document splitter used to re-parse merged corpora (must
    /// match what the segments were appended with).
    pub fn with_splitter(mut self, splitter: Arc<dyn DocSplitter>) -> Self {
        self.splitter = splitter;
        self
    }

    /// Set the tokenizer used to re-parse merged corpora (must match
    /// what the segments were appended with).
    pub fn with_tokenizer(mut self, tokenizer: Arc<dyn Tokenizer>) -> Self {
        self.tokenizer = tokenizer;
        self
    }

    /// Restrict merged rebuilds to documents passing `filter`. A shard
    /// of a hash-partitioned index MUST compact with its routing filter:
    /// segments record their source *blobs*, and the same blobs back
    /// every shard, so an unfiltered rebuild would pull the other
    /// shards' documents into this shard's merged segment.
    pub fn with_doc_filter(mut self, filter: DocFilter) -> Self {
        self.doc_filter = Some(filter);
        self
    }

    /// The policy in use.
    pub fn policy(&self) -> &CompactionPolicy {
        &self.policy
    }

    /// Merge rounds until the live-segment count is within policy, then
    /// GC. Returns a report of everything that happened; a no-op run
    /// (already compact) still performs the orphan sweep when enabled.
    pub fn compact(&self) -> Result<CompactionReport> {
        let mut report = CompactionReport {
            live_before: self.manager.manifest()?.segments.len(),
            ..CompactionReport::default()
        };
        loop {
            let manifest = self.manager.manifest()?;
            if manifest.segments.len() <= self.policy.max_live_segments {
                report.live_after = manifest.segments.len();
                report.generation = manifest.generation;
                break;
            }

            // Size-tiered victim selection: the K smallest live segments
            // by persisted index bytes (ties keep append order).
            let base = self.manager.base();
            let store = self.manager.store();
            let mut sized: Vec<(u64, SegmentEntry)> = manifest
                .segments
                .iter()
                .map(|s| {
                    let bytes = store.usage(&format!("{}/", s.prefix(base)))?;
                    Ok((bytes, s.clone()))
                })
                .collect::<Result<_>>()?;
            sized.sort_by_key(|&(bytes, _)| bytes);
            // Merge the K smallest, but never more than needed to get
            // back within the live bound (merging live−max+1 segments
            // nets live−max fewer) — compaction converges on the policy
            // instead of overshooting it.
            let k = self
                .policy
                .merge_factor
                .min(manifest.segments.len() - self.policy.max_live_segments + 1)
                .clamp(2, manifest.segments.len());
            let victim_ids: BTreeSet<String> =
                sized.iter().take(k).map(|(_, s)| s.id.clone()).collect();

            // The merged segment re-indexes the victims' source blobs,
            // in manifest (append) order so hit ordering is preserved.
            // Duplicates (the same blob appended into two victim
            // segments, e.g. an ingest retry) are collapsed: postings
            // are sets over (blob, offset, len), so one segment cannot
            // hold the same document twice anyway — the merge
            // *canonicalizes* a double-counted document to one hit,
            // which is the set-semantic answer the searcher defines.
            let mut blobs: Vec<String> = Vec::new();
            for seg in manifest
                .segments
                .iter()
                .filter(|s| victim_ids.contains(&s.id))
            {
                for blob in &seg.corpus_blobs {
                    if !blobs.contains(blob) {
                        blobs.push(blob.clone());
                    }
                }
            }
            let corpus = Corpus::new(
                store.clone(),
                blobs.clone(),
                self.splitter.clone(),
                self.tokenizer.clone(),
            );
            let corpus = match &self.doc_filter {
                Some(filter) => corpus.with_doc_filter(filter.clone()),
                None => corpus,
            };
            let new_entry = SegmentEntry {
                id: unique_segment_id(),
                corpus_blobs: blobs,
            };
            let new_prefix = new_entry.prefix(base);
            let build = Builder::new(self.config.clone()).build(&corpus, &new_prefix)?;

            // Atomic swap: unlink the victims, link the replacement where
            // the oldest victim sat. Concurrent appends lose the CAS race
            // at most transiently — the publish loop re-reads and keeps
            // their segments. If another compactor already removed one of
            // our victims, this round aborts and its blobs become
            // orphans for the sweep below.
            let entry_for_publish = new_entry.clone();
            let published = self.manager.publish_with(move |m| {
                if !victim_ids
                    .iter()
                    .all(|id| m.segments.iter().any(|s| &s.id == id))
                {
                    return false;
                }
                let pos = m
                    .segments
                    .iter()
                    .position(|s| victim_ids.contains(&s.id))
                    .expect("victims present");
                m.segments.retain(|s| !victim_ids.contains(&s.id));
                m.segments.insert(pos, entry_for_publish.clone());
                true
            })?;

            match published {
                Some(manifest) => {
                    report.rounds += 1;
                    report.generation = manifest.generation;
                    report.live_after = manifest.segments.len();
                    report.builds.push(build);
                    report.new_segment_ids.push(new_entry.id.clone());
                    // GC strictly after the new manifest is durable —
                    // and, under `defer_gc`, strictly after the caller
                    // has also drained old-generation readers.
                    for id in sized.iter().take(k).map(|(_, s)| &s.id) {
                        if self.policy.defer_gc {
                            report.deferred_prefixes.push(format!("{base}/{id}"));
                        } else {
                            report.superseded_blobs_deleted +=
                                delete_prefix(store.as_ref(), &format!("{base}/{id}"))?;
                        }
                        report.merged_segment_ids.push(id.clone());
                    }
                }
                None => {
                    // Lost to a concurrent compactor: our rebuilt segment
                    // was never linked, so reclaim it immediately and
                    // re-plan against the fresh manifest.
                    delete_prefix(store.as_ref(), &new_prefix)?;
                }
            }
        }
        // Under deferred GC nothing may be deleted yet: the superseded
        // prefixes are orphans from the manifest's point of view, so the
        // sweep waits for `gc_deferred` too.
        if self.policy.sweep_orphans && !self.policy.defer_gc {
            report.orphan_blobs_deleted = self.sweep_orphans()?;
        }
        Ok(report)
    }

    /// Second half of a deferred-GC compaction: delete the superseded
    /// prefixes recorded in `report` (call once old-generation readers
    /// have drained — e.g. after a
    /// [`QueryServer::refresh`](crate::QueryServer::refresh) plus
    /// in-flight-query completion), then run the orphan sweep if the
    /// policy asks for one. Returns the number of blobs reclaimed.
    pub fn gc_deferred(&self, report: &CompactionReport) -> Result<usize> {
        let store = self.manager.store();
        let mut deleted = 0;
        for prefix in &report.deferred_prefixes {
            deleted += delete_prefix(store.as_ref(), prefix)?;
        }
        if self.policy.sweep_orphans {
            deleted += self.sweep_orphans()?;
        }
        Ok(deleted)
    }

    /// Delete every blob under the index base that no live segment (and
    /// not the manifest) references: debris of crashed builds and of
    /// compactions that died between publish and GC.
    ///
    /// Must not run concurrently with an in-flight append — a build that
    /// has not yet published its manifest entry looks exactly like a
    /// dead one.
    pub fn sweep_orphans(&self) -> Result<usize> {
        let base = self.manager.base();
        let store = self.manager.store();
        let manifest = self.manager.manifest()?;
        let manifest_name = manifest_blob(base);
        let live: Vec<String> = manifest
            .segments
            .iter()
            .map(|s| format!("{}/", s.prefix(base)))
            .collect();
        let mut deleted = 0;
        for name in store.list(&format!("{base}/"))? {
            if name == manifest_name || live.iter().any(|p| name.starts_with(p.as_str())) {
                continue;
            }
            store.delete(&name)?;
            deleted += 1;
        }
        Ok(deleted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::header_blob;
    use crate::error::AirphantError;
    use crate::segments::SegmentManager;
    use crate::Searcher;
    use airphant_storage::InMemoryStore;
    use bytes::Bytes;

    fn corpus_of(store: Arc<dyn ObjectStore>, blob: &str, lines: &[String]) -> Corpus {
        store.put(blob, Bytes::from(lines.join("\n"))).unwrap();
        Corpus::new(
            store,
            vec![blob.to_owned()],
            Arc::new(LineSplitter),
            Arc::new(WhitespaceTokenizer),
        )
    }

    fn config() -> AirphantConfig {
        AirphantConfig::default()
            .with_total_bins(128)
            .with_common_fraction(0.0)
    }

    fn seeded_manager(store: &Arc<dyn ObjectStore>, days: usize) -> SegmentManager {
        let mgr = SegmentManager::new(store.clone(), "idx");
        for day in 0..days {
            let lines: Vec<String> = (0..6).map(|i| format!("common word{day}x{i}")).collect();
            let c = corpus_of(store.clone(), &format!("c/day{day}"), &lines);
            mgr.append(&c, &config()).unwrap();
        }
        mgr
    }

    #[test]
    fn compaction_merges_down_to_policy_and_keeps_every_document() {
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        let mgr = seeded_manager(&store, 6);
        assert_eq!(mgr.manifest().unwrap().segments.len(), 6);
        let blobs_before = store.list("idx/").unwrap().len();

        let report = Compactor::new(&mgr, config())
            .with_policy(CompactionPolicy::new().with_max_live_segments(2))
            .compact()
            .unwrap();
        assert!(report.rounds >= 1);
        assert_eq!(report.live_before, 6);
        assert_eq!(report.live_after, 2);
        assert!(report.superseded_blobs_deleted > 0);
        assert!(!report.builds.is_empty());

        let manifest = mgr.manifest().unwrap();
        assert_eq!(manifest.segments.len(), 2);
        assert_eq!(manifest.generation, report.generation);
        // Every document from every original segment is still findable.
        let searcher = mgr.open().unwrap();
        for day in 0..6 {
            for i in 0..6 {
                assert_eq!(
                    searcher
                        .search(&format!("word{day}x{i}"), None)
                        .unwrap()
                        .hits
                        .len(),
                    1,
                    "word{day}x{i}"
                );
            }
        }
        assert_eq!(searcher.search("common", None).unwrap().hits.len(), 36);
        // The dead segments' blobs are actually gone.
        assert!(store.list("idx/").unwrap().len() < blobs_before);
    }

    #[test]
    fn compact_to_single_segment() {
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        let mgr = seeded_manager(&store, 4);
        let report = Compactor::new(&mgr, config())
            .with_policy(
                CompactionPolicy::new()
                    .with_max_live_segments(1)
                    .with_merge_factor(16),
            )
            .compact()
            .unwrap();
        assert_eq!(report.live_after, 1);
        assert_eq!(report.rounds, 1, "merge factor covers all segments");
        let searcher = mgr.open().unwrap();
        assert_eq!(searcher.segment_count(), 1);
        assert_eq!(searcher.search("common", None).unwrap().hits.len(), 24);
    }

    #[test]
    fn merging_segments_that_share_a_blob_canonicalizes_duplicates() {
        // The same corpus blob appended into two segments (e.g. an
        // ingest retry) double-counts its documents — one hit per
        // segment. Postings are sets over (blob, offset, len), so a
        // single segment cannot hold a document twice: compaction
        // canonicalizes the duplicate down to one hit per physical
        // document, losing no document.
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        let mgr = SegmentManager::new(store.clone(), "idx");
        let lines = vec!["hello twice".to_owned(), "hello again".to_owned()];
        let corpus = corpus_of(store.clone(), "c/shared", &lines);
        mgr.append(&corpus, &config()).unwrap();
        mgr.append(&corpus, &config()).unwrap();
        let before = mgr.open().unwrap().search("hello", None).unwrap().hits;
        assert_eq!(before.len(), 4, "double-counted across two segments");

        Compactor::new(&mgr, config())
            .with_policy(
                CompactionPolicy::new()
                    .with_max_live_segments(1)
                    .with_merge_factor(4),
            )
            .compact()
            .unwrap();
        let after = mgr.open().unwrap().search("hello", None).unwrap().hits;
        // One hit per *physical document*; the set of documents matches.
        let docs = |hits: &[crate::SearchHit]| {
            let mut v: Vec<(String, u64)> =
                hits.iter().map(|h| (h.blob.clone(), h.offset)).collect();
            v.sort();
            v.dedup();
            v
        };
        assert_eq!(after.len(), 2);
        assert_eq!(docs(&after), docs(&before), "no document lost");
    }

    #[test]
    fn already_compact_is_a_noop() {
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        let mgr = seeded_manager(&store, 2);
        let gen_before = mgr.generation().unwrap();
        let report = Compactor::new(&mgr, config()).compact().unwrap();
        assert_eq!(report.rounds, 0);
        assert_eq!(report.live_after, 2);
        assert_eq!(mgr.generation().unwrap(), gen_before, "no publish");
    }

    #[test]
    fn concurrent_append_during_compaction_survives() {
        // Compaction's CAS loses to an append landing between its read
        // and its publish; the retry must keep the appended segment.
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        let mgr = seeded_manager(&store, 5);
        std::thread::scope(|s| {
            let store2 = store.clone();
            let appender = s.spawn(move || {
                let mgr2 = SegmentManager::new(store2.clone(), "idx");
                let lines = vec!["fresh appended".to_owned()];
                let c = corpus_of(store2, "c/fresh", &lines);
                mgr2.append(&c, &config()).unwrap();
            });
            let compactor = s.spawn(|| {
                Compactor::new(&mgr, config())
                    .with_policy(
                        CompactionPolicy::new()
                            .with_max_live_segments(2)
                            // No sweep: the racing append is in flight.
                            .with_orphan_sweep(false),
                    )
                    .compact()
                    .unwrap()
            });
            appender.join().unwrap();
            compactor.join().unwrap();
        });
        let searcher = mgr.open().unwrap();
        assert_eq!(searcher.search("fresh", None).unwrap().hits.len(), 1);
        assert_eq!(searcher.search("common", None).unwrap().hits.len(), 30);
        assert!(mgr.manifest().unwrap().segments.len() <= 3);
    }

    #[test]
    fn deferred_gc_keeps_old_generation_readable_until_collected() {
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        let mgr = seeded_manager(&store, 4);
        // Snapshot the old generation BEFORE compacting.
        let old_reader = mgr.open().unwrap();
        let compactor = Compactor::new(&mgr, config()).with_policy(
            CompactionPolicy::new()
                .with_max_live_segments(1)
                .with_merge_factor(16)
                .with_deferred_gc(true),
        );
        let report = compactor.compact().unwrap();
        assert_eq!(report.superseded_blobs_deleted, 0, "nothing deleted yet");
        assert_eq!(report.deferred_prefixes.len(), 4);
        // The pre-compaction snapshot still serves: its blobs survive.
        assert_eq!(old_reader.search("common", None).unwrap().hits.len(), 24);
        // New readers see the compacted generation.
        let new_reader = mgr.open().unwrap();
        assert_eq!(new_reader.segment_count(), 1);
        assert_eq!(new_reader.search("common", None).unwrap().hits.len(), 24);
        // Drain, then collect: the old segments' blobs go away.
        let reclaimed = compactor.gc_deferred(&report).unwrap();
        assert!(reclaimed > 0);
        for prefix in &report.deferred_prefixes {
            assert!(store.list(&format!("{prefix}/")).unwrap().is_empty());
        }
        assert_eq!(new_reader.search("common", None).unwrap().hits.len(), 24);
    }

    #[test]
    fn orphan_sweep_reclaims_crashed_build_but_keeps_live_generation() {
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        let mgr = seeded_manager(&store, 2);
        // Simulate a build that died between blocks and header: superpost
        // blobs under a seg- prefix with no header, never published.
        store
            .put(
                "idx/seg-deadbeefdeadbeef/superposts/00000",
                Bytes::from_static(b"orphan bytes"),
            )
            .unwrap();
        // A header-less prefix must keep reporting IndexNotFound.
        assert!(matches!(
            Searcher::open(store.clone(), "idx/seg-deadbeefdeadbeef"),
            Err(AirphantError::IndexNotFound { .. })
        ));
        let compactor = Compactor::new(&mgr, config());
        let swept = compactor.sweep_orphans().unwrap();
        assert_eq!(swept, 1, "exactly the orphan blob");
        assert!(!store.exists("idx/seg-deadbeefdeadbeef/superposts/00000"));
        assert!(store.exists(&header_blob(&mgr.segments().unwrap()[0])));
        // The live generation still serves.
        let searcher = mgr.open().unwrap();
        assert_eq!(searcher.search("common", None).unwrap().hits.len(), 12);
    }
}
