//! Segmented indexes: append-only corpus updates with an atomic manifest.
//!
//! The paper targets "read-oriented workloads where the corpus doesn't
//! change frequently" and defers frequent-update support to future work
//! (§III-A). This module implements the LSM/Lucene-segment strategy: each
//! batch of new documents becomes its own immutable IoU Sketch *segment*;
//! a query fans out to all segments concurrently (their lookups are
//! independent single batches, so the fan-out preserves Airphant's
//! no-dependent-round-trips property) and unions the results.
//!
//! The set of live segments is a **versioned manifest** blob: a
//! generation-numbered record listing unique segment ids, published with
//! [`ObjectStore::put_if_version`] (compare-and-swap) in a re-read-and-
//! retry loop. Concurrent appenders therefore never lose each other's
//! segments — the second writer's CAS fails, it re-reads the manifest
//! that now includes the first writer's segment, and republishes with
//! both. Segment ids are process-unique random tokens, never derived
//! from the live-segment *count* (which two racing appenders would
//! compute identically, colliding on the same blob prefix).
//!
//! Segment-count growth is bounded by the [`Compactor`](crate::Compactor)
//! (see `compact.rs`), which merges small segments into one rebuilt
//! sketch and garbage-collects the superseded blobs after the new
//! manifest generation is durable.

use crate::builder::{BuildReport, Builder};
use crate::config::AirphantConfig;
use crate::error::AirphantError;
use crate::result::SearchResult;
use crate::searcher::Searcher;
use crate::Result;
use airphant_corpus::{Corpus, CorpusProfile, Tokenizer, WhitespaceTokenizer};
use airphant_storage::{ObjectStore, QueryTrace, StorageError, Version};
use bytes::Bytes;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// First line of every manifest: format magic + version.
const MANIFEST_MAGIC: &str = "airphant-segments v1";

/// Give up CAS-publishing after this many lost rounds (each loss proves
/// another writer made progress, so hitting the cap means the store is
/// misbehaving, not that contention is high).
const MAX_PUBLISH_ATTEMPTS: usize = 1024;

pub(crate) fn manifest_blob(base: &str) -> String {
    format!("{base}/manifest")
}

/// One live segment: its unique id and the corpus blobs it indexed (the
/// blob list is what lets the [`Compactor`](crate::Compactor) rebuild a
/// merged sketch from source documents).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentEntry {
    /// Unique segment id, e.g. `seg-a1b2c3…`; the segment's blobs live
    /// under `{base}/{id}/`.
    pub id: String,
    /// The corpus blobs this segment indexed, in append order.
    pub corpus_blobs: Vec<String>,
}

impl SegmentEntry {
    /// The segment's index prefix under `base`.
    pub fn prefix(&self, base: &str) -> String {
        format!("{base}/{}", self.id)
    }
}

/// A decoded segment manifest: a generation number plus the live
/// segments, oldest first.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Manifest {
    /// Strictly increasing publish counter; every successful CAS bumps
    /// it, which also guarantees no two manifest payloads are ever
    /// byte-identical (so content-derived version tokens cannot ABA).
    pub generation: u64,
    /// Live segments in append order.
    pub segments: Vec<SegmentEntry>,
}

impl Manifest {
    /// Serialize to the versioned text format.
    ///
    /// ```text
    /// airphant-segments v1
    /// generation 3
    /// segment<TAB>seg-00a1…<TAB>c/day1<TAB>c/day2
    /// ```
    pub fn encode(&self) -> Bytes {
        let mut out = String::new();
        out.push_str(MANIFEST_MAGIC);
        out.push('\n');
        out.push_str(&format!("generation {}\n", self.generation));
        for seg in &self.segments {
            out.push_str("segment\t");
            out.push_str(&seg.id);
            for blob in &seg.corpus_blobs {
                out.push('\t');
                out.push_str(blob);
            }
            out.push('\n');
        }
        Bytes::from(out)
    }

    /// Parse a manifest blob, rejecting anything malformed with a typed
    /// [`AirphantError::CorruptManifest`] (never a lossy decode that
    /// would mangle corruption into bogus segment prefixes).
    pub fn decode(base: &str, bytes: &[u8]) -> Result<Manifest> {
        let corrupt = |reason: String| AirphantError::CorruptManifest {
            base: base.to_owned(),
            reason,
        };
        let text = std::str::from_utf8(bytes)
            .map_err(|e| corrupt(format!("manifest is not valid UTF-8: {e}")))?;
        let mut lines = text.lines();
        match lines.next() {
            Some(MANIFEST_MAGIC) => {}
            Some(other) if other.starts_with("airphant-segments ") => {
                return Err(corrupt(format!(
                    "unsupported manifest version {:?} (expected {MANIFEST_MAGIC:?})",
                    other
                )));
            }
            other => {
                return Err(corrupt(format!(
                    "unrecognized manifest header {other:?} (expected {MANIFEST_MAGIC:?})"
                )));
            }
        }
        let generation = match lines.next().and_then(|l| l.strip_prefix("generation ")) {
            Some(n) => n
                .parse::<u64>()
                .map_err(|_| corrupt(format!("unknown generation format {n:?}")))?,
            None => return Err(corrupt("missing generation record".to_owned())),
        };
        let mut segments = Vec::new();
        for line in lines.filter(|l| !l.is_empty()) {
            let mut fields = line.split('\t');
            if fields.next() != Some("segment") {
                return Err(corrupt(format!("unrecognized manifest record {line:?}")));
            }
            let id = match fields.next() {
                Some(id) if !id.is_empty() && !id.contains('/') => id.to_owned(),
                other => return Err(corrupt(format!("malformed segment id {other:?}"))),
            };
            if segments.iter().any(|s: &SegmentEntry| s.id == id) {
                return Err(corrupt(format!("duplicate segment id {id:?}")));
            }
            segments.push(SegmentEntry {
                id,
                corpus_blobs: fields.map(str::to_owned).collect(),
            });
        }
        Ok(Manifest {
            generation,
            segments,
        })
    }
}

/// A process-unique segment id: time + pid + a monotone counter, mixed
/// through FNV. Never derived from the manifest length — that is exactly
/// the collision two racing appenders would both compute.
pub(crate) fn unique_segment_id() -> String {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for word in [
        nanos,
        std::process::id() as u64,
        COUNTER.fetch_add(1, Ordering::Relaxed),
    ] {
        for byte in word.to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("seg-{hash:016x}")
}

/// Manages the segment manifest: appends new segments and opens searchers
/// over the live set.
pub struct SegmentManager {
    store: Arc<dyn ObjectStore>,
    base: String,
}

impl SegmentManager {
    /// Open (or start) a segmented index rooted at `base`.
    pub fn new(store: Arc<dyn ObjectStore>, base: impl Into<String>) -> Self {
        SegmentManager {
            store,
            base: base.into(),
        }
    }

    /// The object store the segments live in.
    pub fn store(&self) -> &Arc<dyn ObjectStore> {
        &self.store
    }

    /// The base prefix of this segmented index.
    pub fn base(&self) -> &str {
        &self.base
    }

    /// The current manifest (empty generation 0 when none exists yet).
    pub fn manifest(&self) -> Result<Manifest> {
        Ok(self.manifest_with_version()?.0)
    }

    /// Whether a manifest blob has been published under this base —
    /// distinguishes "segmented index with zero live segments" from "no
    /// segmented index here at all" (the sharded layout relies on this:
    /// every shard's manifest exists from creation, so a missing one is
    /// a hole, not an empty shard).
    pub fn manifest_exists(&self) -> bool {
        self.store.exists(&manifest_blob(&self.base))
    }

    /// Publish an empty generation-1 manifest if none exists yet.
    /// Sharded layouts call this for every shard up front, so a shard
    /// that happens to receive no documents still has a manifest. A
    /// racing append simply wins the CAS — this publish then aborts.
    pub fn ensure_manifest(&self) -> Result<()> {
        if self.manifest_exists() {
            return Ok(());
        }
        self.publish_with(|manifest| manifest.generation == 0 && manifest.segments.is_empty())?;
        Ok(())
    }

    /// The manifest plus the version token a CAS publish must present.
    pub(crate) fn manifest_with_version(&self) -> Result<(Manifest, Version)> {
        let name = manifest_blob(&self.base);
        match self.store.get(&name) {
            Ok(fetched) => {
                let manifest = Manifest::decode(&self.base, &fetched.bytes)?;
                Ok((manifest, Version::of_bytes(&fetched.bytes)))
            }
            Err(StorageError::BlobNotFound { .. }) => Ok((Manifest::default(), Version::Absent)),
            Err(e) => Err(e.into()),
        }
    }

    /// CAS-with-retry publish: apply `update` to a freshly read manifest
    /// and publish the result; on a lost race, re-read and re-apply.
    /// `update` returns `false` to abort (nothing left to publish), which
    /// surfaces as `Ok(None)`.
    pub(crate) fn publish_with(
        &self,
        mut update: impl FnMut(&mut Manifest) -> bool,
    ) -> Result<Option<Manifest>> {
        let name = manifest_blob(&self.base);
        let mut last_err = None;
        for _ in 0..MAX_PUBLISH_ATTEMPTS {
            let (mut manifest, version) = self.manifest_with_version()?;
            if !update(&mut manifest) {
                return Ok(None);
            }
            manifest.generation += 1;
            match self.store.put_if_version(&name, manifest.encode(), version) {
                Ok(_) => return Ok(Some(manifest)),
                Err(e @ StorageError::VersionMismatch { .. }) => {
                    last_err = Some(e);
                    continue;
                }
                Err(e) => return Err(e.into()),
            }
        }
        Err(last_err.expect("loop exits early unless a CAS lost").into())
    }

    /// The live segment prefixes, in append order.
    pub fn segments(&self) -> Result<Vec<String>> {
        let manifest = self.manifest()?;
        Ok(manifest
            .segments
            .iter()
            .map(|s| s.prefix(&self.base))
            .collect())
    }

    /// The current manifest generation (0 before the first append).
    pub fn generation(&self) -> Result<u64> {
        Ok(self.manifest()?.generation)
    }

    /// Index `corpus` as a new immutable segment and publish it in the
    /// manifest. Returns the segment's build report and prefix.
    ///
    /// Safe under concurrency: the segment is built under a unique
    /// prefix, then linked into the manifest with CAS-and-retry, so
    /// racing appenders each keep their own blobs and the final manifest
    /// lists every segment. If the build fails (or the process dies)
    /// before the publish, the manifest is untouched and the
    /// half-written blobs are orphans for the compactor's GC sweep.
    pub fn append(
        &self,
        corpus: &Corpus,
        config: &AirphantConfig,
    ) -> Result<(BuildReport, String)> {
        self.append_inner(corpus, config, None)
    }

    /// Append with a pre-computed profile (a sharded build profiles
    /// every shard's slice in one corpus pass, then hands each shard
    /// its profile here instead of paying a per-shard re-profile).
    pub(crate) fn append_with_profile(
        &self,
        corpus: &Corpus,
        config: &AirphantConfig,
        profile: CorpusProfile,
    ) -> Result<(BuildReport, String)> {
        self.append_inner(corpus, config, Some(profile))
    }

    fn append_inner(
        &self,
        corpus: &Corpus,
        config: &AirphantConfig,
        profile: Option<CorpusProfile>,
    ) -> Result<(BuildReport, String)> {
        let entry = SegmentEntry {
            id: unique_segment_id(),
            corpus_blobs: corpus.blobs().to_vec(),
        };
        let prefix = entry.prefix(&self.base);
        let builder = Builder::new(config.clone());
        let report = match profile {
            Some(profile) => builder.build_with_profile(corpus, &prefix, profile)?,
            None => builder.build(corpus, &prefix)?,
        };
        self.publish_with(|manifest| {
            manifest.segments.push(entry.clone());
            true
        })?;
        Ok((report, prefix))
    }

    /// Open a searcher over every live segment (whitespace tokenizer).
    pub fn open(&self) -> Result<SegmentedSearcher> {
        self.open_with_tokenizer(Arc::new(WhitespaceTokenizer))
    }

    /// Open with a custom document-word parser (must match the tokenizer
    /// the segments were indexed with, e.g. an
    /// [`airphant_corpus::NgramTokenizer`] for substring queries).
    pub fn open_with_tokenizer(&self, tokenizer: Arc<dyn Tokenizer>) -> Result<SegmentedSearcher> {
        self.open_inner(tokenizer, false)
    }

    /// Open a snapshot; `allow_empty` admits a manifest with zero live
    /// segments (a sharded layout's shard that received no documents)
    /// instead of reporting `IndexNotFound`.
    pub(crate) fn open_inner(
        &self,
        tokenizer: Arc<dyn Tokenizer>,
        allow_empty: bool,
    ) -> Result<SegmentedSearcher> {
        let manifest = self.manifest()?;
        if manifest.segments.is_empty() && !allow_empty {
            return Err(AirphantError::IndexNotFound {
                prefix: self.base.clone(),
            });
        }
        let searchers = manifest
            .segments
            .iter()
            .map(|s| {
                Searcher::open_with_tokenizer(
                    self.store.clone(),
                    &s.prefix(&self.base),
                    tokenizer.clone(),
                )
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(SegmentedSearcher {
            searchers,
            generation: manifest.generation,
        })
    }
}

/// A query server over multiple immutable segments — a consistent
/// snapshot of one manifest generation.
pub struct SegmentedSearcher {
    searchers: Vec<Searcher>,
    generation: u64,
}

impl SegmentedSearcher {
    /// Number of live segments.
    pub fn segment_count(&self) -> usize {
        self.searchers.len()
    }

    /// The manifest generation this snapshot was opened at.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Per-segment searchers (for introspection).
    pub fn segments(&self) -> &[Searcher] {
        &self.searchers
    }

    /// Execute a [`Query`](crate::Query) across every segment through the
    /// single-batch planner: all segments' superpost pointers for all the
    /// query's terms/grams are coalesced into **one**
    /// `ObjectStore::get_ranges` batch (one round trip, not one per
    /// segment), then each segment's candidates are evaluated, fetched in
    /// one document batch, and filtered exactly. Hits keep append order
    /// (older segments first).
    pub fn execute(
        &self,
        query: &crate::Query,
        opts: &crate::QueryOptions,
    ) -> Result<SearchResult> {
        let refs: Vec<&Searcher> = self.searchers.iter().collect();
        crate::plan::execute_single(&refs, query, opts)
    }

    /// Index-lookup phase only: the whole query's candidate postings,
    /// unioned across segments, in exactly one storage round trip.
    pub fn execute_lookup(
        &self,
        query: &crate::Query,
    ) -> Result<(iou_sketch::PostingsList, QueryTrace)> {
        let refs: Vec<&Searcher> = self.searchers.iter().collect();
        crate::plan::lookup_over(&[&refs], query)
    }

    /// Single-keyword search across all segments; thin shim over
    /// [`SegmentedSearcher::execute`].
    pub fn search(&self, word: &str, top_k: Option<usize>) -> Result<SearchResult> {
        self.execute(
            &crate::Query::term(word),
            &crate::QueryOptions::new().with_top_k(top_k),
        )
    }
}

// Segment fan-out shares the same thread-safety contract as a single
// Searcher: a `SegmentedSearcher` behind one `Arc` serves N query threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SegmentManager>();
    assert_send_sync::<SegmentedSearcher>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use airphant_corpus::{LineSplitter, WhitespaceTokenizer};
    use airphant_storage::{InMemoryStore, LatencyModel, SimulatedCloudStore};

    fn corpus_of(store: Arc<dyn ObjectStore>, blob: &str, lines: &[&str]) -> Corpus {
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
            .with_total_bins(64)
            .with_common_fraction(0.0)
    }

    #[test]
    fn append_and_search_across_segments() {
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        let mgr = SegmentManager::new(store.clone(), "idx");
        assert!(mgr.segments().unwrap().is_empty());
        assert_eq!(mgr.generation().unwrap(), 0);

        let day1 = corpus_of(store.clone(), "c/day1", &["error disk", "info boot"]);
        mgr.append(&day1, &config()).unwrap();
        let day2 = corpus_of(store.clone(), "c/day2", &["error network", "warn temp"]);
        mgr.append(&day2, &config()).unwrap();

        assert_eq!(mgr.segments().unwrap().len(), 2);
        assert_eq!(mgr.generation().unwrap(), 2);
        let searcher = mgr.open().unwrap();
        assert_eq!(searcher.segment_count(), 2);
        assert_eq!(searcher.generation(), 2);

        // "error" spans both segments.
        let r = searcher.search("error", None).unwrap();
        let texts: Vec<&str> = r.hits.iter().map(|h| h.text.as_str()).collect();
        assert_eq!(texts, vec!["error disk", "error network"]);
        // Words local to one segment still resolve.
        assert_eq!(searcher.search("boot", None).unwrap().hits.len(), 1);
        assert_eq!(searcher.search("temp", None).unwrap().hits.len(), 1);
        assert!(searcher.search("absent", None).unwrap().hits.is_empty());
    }

    #[test]
    fn new_documents_visible_after_reopen() {
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        let mgr = SegmentManager::new(store.clone(), "idx");
        let day1 = corpus_of(store.clone(), "c/day1", &["alpha"]);
        mgr.append(&day1, &config()).unwrap();
        let s1 = mgr.open().unwrap();
        assert_eq!(s1.search("beta", None).unwrap().hits.len(), 0);

        let day2 = corpus_of(store.clone(), "c/day2", &["beta"]);
        mgr.append(&day2, &config()).unwrap();
        // Old handle still serves its snapshot; a reopen sees the update.
        assert_eq!(s1.segment_count(), 1);
        let s2 = mgr.open().unwrap();
        assert_eq!(s2.search("beta", None).unwrap().hits.len(), 1);
        assert!(s2.generation() > s1.generation());
    }

    #[test]
    fn open_empty_manifest_errors() {
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        let mgr = SegmentManager::new(store, "idx");
        assert!(matches!(
            mgr.open(),
            Err(AirphantError::IndexNotFound { .. })
        ));
    }

    #[test]
    fn manifest_roundtrip() {
        let m = Manifest {
            generation: 7,
            segments: vec![
                SegmentEntry {
                    id: "seg-00ff".into(),
                    corpus_blobs: vec!["c/day1".into(), "c/day2".into()],
                },
                SegmentEntry {
                    id: "seg-1234".into(),
                    corpus_blobs: vec![],
                },
            ],
        };
        let decoded = Manifest::decode("idx", &m.encode()).unwrap();
        assert_eq!(decoded, m);
        assert_eq!(decoded.segments[0].prefix("idx"), "idx/seg-00ff");
    }

    #[test]
    fn corrupt_manifests_are_typed_errors() {
        let cases: Vec<(&[u8], &str)> = vec![
            (b"\xff\xfe garbage".as_slice(), "not valid UTF-8"),
            (b"not-a-manifest\nsegment\tx".as_slice(), "unrecognized"),
            (b"airphant-segments v99\ngeneration 1".as_slice(), "version"),
            (b"airphant-segments v1\n".as_slice(), "generation"),
            (
                b"airphant-segments v1\ngeneration twelve".as_slice(),
                "unknown generation format",
            ),
            (
                b"airphant-segments v1\ngeneration 1\nbogus-record".as_slice(),
                "record",
            ),
            (
                b"airphant-segments v1\ngeneration 1\nsegment\ta/b".as_slice(),
                "segment id",
            ),
            (
                b"airphant-segments v1\ngeneration 1\nsegment\tdup\nsegment\tdup".as_slice(),
                "duplicate",
            ),
        ];
        for (bytes, needle) in cases {
            match Manifest::decode("idx", bytes) {
                Err(AirphantError::CorruptManifest { base, reason }) => {
                    assert_eq!(base, "idx");
                    assert!(
                        reason.contains(needle),
                        "reason {reason:?} should mention {needle:?}"
                    );
                }
                other => panic!("expected CorruptManifest, got {other:?}"),
            }
        }
    }

    #[test]
    fn corrupt_manifest_surfaces_from_manager() {
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        store
            .put("idx/manifest", Bytes::from_static(b"\xffnot utf8\xff"))
            .unwrap();
        let mgr = SegmentManager::new(store, "idx");
        assert!(matches!(
            mgr.segments(),
            Err(AirphantError::CorruptManifest { .. })
        ));
        assert!(matches!(
            mgr.open(),
            Err(AirphantError::CorruptManifest { .. })
        ));
        // The old pre-versioned format (a bare list of prefixes) is also
        // rejected as corrupt rather than lossily misread.
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        store
            .put("idx/manifest", Bytes::from_static(b"idx/seg-00000"))
            .unwrap();
        let mgr = SegmentManager::new(store, "idx");
        assert!(matches!(
            mgr.segments(),
            Err(AirphantError::CorruptManifest { .. })
        ));
    }

    #[test]
    fn unique_ids_do_not_collide() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            assert!(seen.insert(unique_segment_id()));
        }
    }

    #[test]
    fn segment_fanout_waits_overlap() {
        let store = Arc::new(SimulatedCloudStore::new(
            InMemoryStore::new(),
            LatencyModel::gcs_like(),
            21,
        ));
        let dyn_store: Arc<dyn ObjectStore> = store.clone();
        let mgr = SegmentManager::new(dyn_store.clone(), "idx");
        for day in 0..4 {
            let lines: Vec<String> = (0..20).map(|i| format!("shared word{day}x{i}")).collect();
            let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
            let c = corpus_of(dyn_store.clone(), &format!("c/day{day}"), &refs);
            mgr.append(&c, &config()).unwrap();
        }
        let searcher = mgr.open().unwrap();
        let r = searcher.search("shared", None).unwrap();
        assert_eq!(r.hits.len(), 80, "union across 4 segments");
        // Four concurrent segment lookups at ~50ms each must overlap: the
        // merged wait stays well under 4 sequential round-trip stacks.
        let single_rt = 46.0;
        assert!(
            r.trace.wait().as_millis_f64() < 3.0 * 2.0 * single_rt,
            "fan-out wait {} should overlap",
            r.trace.wait()
        );
    }

    #[test]
    fn compound_query_over_three_segments_is_one_batch() {
        let store = Arc::new(SimulatedCloudStore::new(
            InMemoryStore::new(),
            LatencyModel::gcs_like(),
            17,
        ));
        let dyn_store: Arc<dyn ObjectStore> = store.clone();
        let mgr = SegmentManager::new(dyn_store.clone(), "idx");
        for day in 0..3 {
            let lines: Vec<String> = (0..10)
                .map(|i| format!("error disk{day} unit{i}"))
                .collect();
            let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
            let c = corpus_of(dyn_store.clone(), &format!("c/day{day}"), &refs);
            mgr.append(&c, &config()).unwrap();
        }
        let searcher = mgr.open().unwrap();
        assert_eq!(searcher.segment_count(), 3);

        store.reset_stats();
        let query = crate::Query::all([crate::Query::term("error"), crate::Query::term("disk1")]);
        let (postings, trace) = searcher.execute_lookup(&query).unwrap();
        let stats = store.stats();
        assert_eq!(
            stats.batches, 1,
            "3 segments x 2 terms coalesce into one batch"
        );
        assert_eq!(trace.round_trips(), 1);
        // Segment 1's 10 docs all survive; other segments may contribute
        // false-positive candidates (removed later by the verify pass).
        assert!(postings.len() >= 10, "candidates union across segments");

        // Full execution: one lookup batch + one document batch.
        store.reset_stats();
        let r = searcher
            .execute(&query, &crate::QueryOptions::new())
            .unwrap();
        assert_eq!(r.hits.len(), 10);
        assert!(r.hits.iter().all(|h| h.text.contains("disk1")));
        assert_eq!(store.stats().batches, 2, "lookup batch + document batch");
        assert_eq!(r.trace.round_trips(), 2);
    }

    #[test]
    fn top_k_truncates_across_segments() {
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        let mgr = SegmentManager::new(store.clone(), "idx");
        for day in 0..3 {
            let lines: Vec<String> = (0..30).map(|i| format!("common tail{day}-{i}")).collect();
            let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
            let c = corpus_of(store.clone(), &format!("c/day{day}"), &refs);
            mgr.append(&c, &config()).unwrap();
        }
        let searcher = mgr.open().unwrap();
        let r = searcher.search("common", Some(7)).unwrap();
        assert_eq!(r.hits.len(), 7);
    }

    #[test]
    fn concurrent_appends_keep_every_segment() {
        // The PR-3 regression: two managers over one store race appends;
        // with the old len()-derived prefixes + blind manifest put, one
        // appender's segment silently vanished. With CAS both survive.
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        let threads = 4;
        let per_thread = 3;
        std::thread::scope(|s| {
            for t in 0..threads {
                let store = store.clone();
                s.spawn(move || {
                    let mgr = SegmentManager::new(store.clone(), "idx");
                    for i in 0..per_thread {
                        let blob = format!("c/t{t}b{i}");
                        let line = format!("doc{t}x{i} shared");
                        let c = corpus_of(store.clone(), &blob, &[&line]);
                        mgr.append(&c, &config()).unwrap();
                    }
                });
            }
        });
        let mgr = SegmentManager::new(store, "idx");
        let manifest = mgr.manifest().unwrap();
        assert_eq!(manifest.segments.len(), threads * per_thread);
        assert_eq!(manifest.generation, (threads * per_thread) as u64);
        let searcher = mgr.open().unwrap();
        for t in 0..threads {
            for i in 0..per_thread {
                let hits = searcher.search(&format!("doc{t}x{i}"), None).unwrap().hits;
                assert_eq!(hits.len(), 1, "doc{t}x{i} must be findable");
            }
        }
        assert_eq!(
            searcher.search("shared", None).unwrap().hits.len(),
            threads * per_thread
        );
    }
}
