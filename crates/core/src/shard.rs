//! Horizontal sharding: hash-partitioned corpora across N independent
//! segmented indexes, queried with one storage batch per phase.
//!
//! A single (even segmented) index funnels every query through one
//! sketch and one postings-fetch path; the scale-out axis is
//! partitioning the *corpus itself*. A [`ShardRouter`] owns a sharded
//! layout under one base prefix:
//!
//! ```text
//! {base}/shards                  the layout blob: "airphant-shards v2"
//! {base}/shard-0000/manifest     generation 1: an ordinary segmented index
//! {base}/shard-0000/seg-…/…
//! {base}/gen0002/shard-0000/…    generation 2+ lives under its own prefix
//! ```
//!
//! **Layout generations.** The layout blob is an explicit, versioned
//! [`ShardLayout`]: shard count, layout generation, and (optionally) the
//! home regions of every shard. It is CAS-published exactly like a
//! segment manifest, so the *placement contract itself* can change at
//! runtime: [`ShardRouter::split`] and [`ShardRouter::merge`] build a
//! complete new shard set under the next generation's prefix, then
//! swing the layout blob in one conditional write. Readers holding the
//! old generation keep serving it (its blobs are untouched) until a
//! refresh; [`ShardRouter::gc_generation`] reclaims a superseded
//! generation once no searcher references it.
//!
//! **Routing.** Within a generation a document belongs to exactly one
//! shard: `shard_of(blob, offset) = fnv1a(blob ‖ offset) mod N`. The
//! rule is a pure function of the document's identity, so appends,
//! compactions, and queries all agree on placement without
//! coordination, and every shard can rebuild its slice of a shared
//! corpus blob through a [`DocFilter`] view
//! ([`Corpus::with_doc_filter`]) — the same filtered-rebuild path
//! resharding migrates documents through.
//!
//! **One batch per phase across shards.** [`ShardedSearcher`] implements
//! [`SearchEngine`](crate::SearchEngine) by handing the planner every
//! shard's segments as one group per shard. Each shard expands
//! Prefix/Fuzzy atoms against its own vocabularies and evaluates and
//! verifies its own candidates, but the requests of all shards go out
//! together: an N-shard query sends exactly one postings `get_ranges`
//! and at most one documents `get_ranges`, the paper's constant-round-
//! trip lookup (§III-C). The per-shard results then merge
//! deterministically: each shard's hits truncated to `top_k`, merged in
//! stable doc-id order (`(blob, offset)`), truncated again, with
//! counters summed.
//!
//! **Refresh.** A [`ShardedSearcher`] is an immutable snapshot of every
//! shard's manifest generation. After appends or compactions, reopen
//! the router and hand the fresh snapshot to
//! [`QueryServer::refresh`](crate::QueryServer::refresh): the whole
//! shard set swaps atomically behind one `Arc`, so no query ever sees
//! a mix of old and new shard generations. A [`ShardedSearcher`] is not
//! a [`StagedEngine`](crate::StagedEngine): the serving core runs its
//! `execute` as one stretch per query.

use crate::builder::BuildReport;
use crate::compact::{CompactionPolicy, CompactionReport, Compactor};
use crate::config::AirphantConfig;
use crate::error::AirphantError;
use crate::query::{Query, QueryOptions};
use crate::result::SearchResult;
use crate::searcher::Searcher;
use crate::segments::{SegmentManager, SegmentedSearcher};
use crate::Result;
use airphant_corpus::{
    Corpus, CorpusProfile, DocFilter, DocSplitter, Tokenizer, WhitespaceTokenizer,
};
use airphant_storage::{ObjectStore, QueryTrace, StorageError, Version};
use bytes::Bytes;
use iou_sketch::PostingsList;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// First line of a v1 layout blob (shard count only, generation 1).
const LAYOUT_MAGIC_V1: &str = "airphant-shards v1";
/// First line of a v2 layout blob (generation + optional region homes).
const LAYOUT_MAGIC_V2: &str = "airphant-shards v2";

/// Blob name of the shard-layout record under `base`. Its existence is
/// what marks a prefix as a *sharded* index (the way a `manifest` blob
/// marks a segmented one).
pub(crate) fn layout_blob(base: &str) -> String {
    format!("{base}/shards")
}

/// The explicit placement contract of a sharded index: which generation
/// of the layout is live, how many shards it has, and (optionally)
/// which simulated regions each shard's replicas call home.
///
/// Serialized as the `{base}/shards` blob and republished by CAS, so
/// every layout change (resharding, rehoming) is one atomic swing that
/// concurrent writers cannot clobber.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardLayout {
    /// Monotonically increasing layout generation. Generation 1 keeps
    /// its shard directories directly under `base` (the pre-generation
    /// layout); later generations are scoped under `{base}/gen{g:04}/`
    /// so a superseded generation keeps serving until GC.
    pub generation: u64,
    /// Number of hash partitions.
    pub shards: usize,
    /// Region names in nearness order (empty = single-home layout with
    /// no region awareness).
    pub regions: Vec<String>,
    /// Per-shard home replicas as indices into `regions`; an empty
    /// outer vec (or an empty inner vec) means "every region".
    pub homes: Vec<Vec<usize>>,
}

impl ShardLayout {
    /// A fresh single-home layout (generation 1, no regions).
    pub fn single_home(shards: usize) -> Self {
        ShardLayout {
            generation: 1,
            shards,
            regions: Vec::new(),
            homes: Vec::new(),
        }
    }

    /// The home-region names of one shard (empty = homed everywhere).
    pub fn replica_regions(&self, shard: usize) -> Vec<String> {
        match self.homes.get(shard) {
            Some(indices) if !indices.is_empty() => indices
                .iter()
                .filter_map(|&i| self.regions.get(i).cloned())
                .collect(),
            _ => self.regions.clone(),
        }
    }

    /// The prefix of one shard's segmented index under this layout.
    pub fn shard_prefix(&self, base: &str, shard: usize) -> String {
        if self.generation <= 1 {
            format!("{base}/shard-{shard:04}")
        } else {
            format!("{base}/gen{:04}/shard-{shard:04}", self.generation)
        }
    }

    /// The storage prefixes owned exclusively by this layout generation
    /// (what [`ShardRouter::gc_generation`] deletes).
    fn owned_prefixes(&self, base: &str) -> Vec<String> {
        if self.generation <= 1 {
            (0..self.shards)
                .map(|s| self.shard_prefix(base, s))
                .collect()
        } else {
            vec![format!("{base}/gen{:04}", self.generation)]
        }
    }

    /// Serialize as the layout blob payload (always v2; v1 blobs remain
    /// decodable for layouts written before generations existed).
    pub fn encode(&self) -> Bytes {
        let mut out = format!(
            "{LAYOUT_MAGIC_V2}\ngeneration {}\nshards {}\n",
            self.generation, self.shards
        );
        for region in &self.regions {
            out.push_str(&format!("region\t{region}\n"));
        }
        for (shard, home) in self.homes.iter().enumerate() {
            out.push_str(&format!("shard\t{shard}"));
            for &r in home {
                out.push_str(&format!("\t{r}"));
            }
            out.push('\n');
        }
        Bytes::from(out)
    }

    /// Decode a layout blob (either format version).
    pub fn decode(base: &str, bytes: &[u8]) -> Result<Self> {
        let corrupt = |reason: String| AirphantError::CorruptManifest {
            base: base.to_owned(),
            reason,
        };
        let text = std::str::from_utf8(bytes)
            .map_err(|e| corrupt(format!("shard layout is not valid UTF-8: {e}")))?;
        let mut lines = text.lines();
        let v2 = match lines.next() {
            Some(LAYOUT_MAGIC_V1) => false,
            Some(LAYOUT_MAGIC_V2) => true,
            other => {
                return Err(corrupt(format!(
                    "unrecognized shard layout header {other:?} \
                     (expected {LAYOUT_MAGIC_V1:?} or {LAYOUT_MAGIC_V2:?})"
                )));
            }
        };
        let generation = if v2 {
            match lines.next().and_then(|l| l.strip_prefix("generation ")) {
                Some(g) => g
                    .parse::<u64>()
                    .map_err(|_| corrupt(format!("unknown layout generation format {g:?}")))?,
                None => return Err(corrupt("missing layout generation record".to_owned())),
            }
        } else {
            1
        };
        if generation < 1 {
            return Err(corrupt("layout generation must be >= 1".to_owned()));
        }
        let shards = match lines.next().and_then(|l| l.strip_prefix("shards ")) {
            Some(n) => n
                .parse::<usize>()
                .map_err(|_| corrupt(format!("unknown shard count format {n:?}")))?,
            None => return Err(corrupt("missing shard count record".to_owned())),
        };
        if shards < 1 {
            return Err(corrupt("shard layout declares zero shards".to_owned()));
        }
        let mut regions = Vec::new();
        let mut homes: Vec<Vec<usize>> = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let mut fields = line.split('\t');
            match fields.next() {
                Some("region") => match fields.next() {
                    Some(name) if !name.is_empty() => regions.push(name.to_owned()),
                    _ => return Err(corrupt("region record missing a name".to_owned())),
                },
                Some("shard") => {
                    let idx = fields
                        .next()
                        .and_then(|f| f.parse::<usize>().ok())
                        .ok_or_else(|| corrupt("shard record missing an index".to_owned()))?;
                    if idx != homes.len() || idx >= shards {
                        return Err(corrupt(format!(
                            "shard home records out of order at shard {idx}"
                        )));
                    }
                    let home = fields
                        .map(|f| f.parse::<usize>())
                        .collect::<std::result::Result<Vec<_>, _>>()
                        .map_err(|_| corrupt(format!("bad region index in shard {idx} home")))?;
                    if home.iter().any(|&r| r >= regions.len()) {
                        return Err(corrupt(format!(
                            "shard {idx} homed in an undeclared region"
                        )));
                    }
                    homes.push(home);
                }
                other => {
                    return Err(corrupt(format!("unrecognized layout record {other:?}")));
                }
            }
        }
        if !homes.is_empty() && homes.len() != shards {
            return Err(corrupt(format!(
                "layout declares {shards} shards but {} home records",
                homes.len()
            )));
        }
        Ok(ShardLayout {
            generation,
            shards,
            regions,
            homes,
        })
    }
}

/// Route a document identity to a shard: FNV-1a over the blob name and
/// byte offset, reduced mod `shards`. Deterministic and
/// coordination-free — builders, compactors, and queries all derive the
/// same placement from the document alone.
pub fn shard_of(blob: &str, offset: u64, shards: usize) -> usize {
    debug_assert!(shards >= 1, "a layout has at least one shard");
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in blob.as_bytes().iter().copied().chain(offset.to_le_bytes()) {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (hash % shards.max(1) as u64) as usize
}

/// Per-shard outcome of one [`ShardRouter::append`].
#[derive(Debug)]
pub struct ShardAppend {
    /// The shard index.
    pub shard: usize,
    /// Documents the routing rule sent to this shard.
    pub docs: u64,
    /// The build report of the shard's new segment (`None` when no
    /// documents routed here — the shard's manifest is left untouched).
    pub report: Option<BuildReport>,
    /// The new segment's prefix, when one was appended.
    pub segment_prefix: Option<String>,
}

/// Manages a sharded index layout: creates the per-shard segmented
/// indexes, routes appends, runs per-shard compaction, and opens
/// sharded searchers.
pub struct ShardRouter {
    store: Arc<dyn ObjectStore>,
    base: String,
    layout: ShardLayout,
}

impl ShardRouter {
    /// Create (or re-open) a sharded layout of `shards` partitions under
    /// `base`. Publishing the layout blob is a CAS against absence, so
    /// two racing creators converge on one layout; creating over an
    /// existing layout with a *different* shard count is rejected
    /// (use [`ShardRouter::split`] / [`ShardRouter::merge`] to reshard
    /// online). Every shard's segment manifest is published up front,
    /// so an empty shard is distinguishable from a missing one.
    pub fn create(
        store: Arc<dyn ObjectStore>,
        base: impl Into<String>,
        shards: usize,
    ) -> Result<Self> {
        if shards < 1 {
            return Err(AirphantError::InvalidConfig {
                reason: "a sharded layout needs at least one shard".into(),
            });
        }
        let base = base.into();
        let name = layout_blob(&base);
        let mut layout = ShardLayout::single_home(shards);
        match store.put_if_version(&name, layout.encode(), Version::Absent) {
            Ok(_) => {}
            Err(StorageError::VersionMismatch { .. }) => {
                // Lost the creation race (or the layout predates us):
                // adopt the existing layout if it agrees on the count.
                let existing = Self::open(store.clone(), base.clone())?;
                if existing.shards() != shards {
                    return Err(AirphantError::InvalidConfig {
                        reason: format!(
                            "index {base} is already sharded {} ways (asked for {shards}); \
                             use split/merge to reshard online",
                            existing.shards()
                        ),
                    });
                }
                layout = existing.layout;
            }
            Err(e) => return Err(e.into()),
        }
        let router = ShardRouter {
            store,
            base,
            layout,
        };
        for shard in 0..router.shards() {
            router.manager(shard).ensure_manifest()?;
        }
        Ok(router)
    }

    /// Open an existing sharded layout rooted at `base`.
    pub fn open(store: Arc<dyn ObjectStore>, base: impl Into<String>) -> Result<Self> {
        let base = base.into();
        let (layout, _) = Self::fetch_layout(&store, &base)?;
        Ok(ShardRouter {
            store,
            base,
            layout,
        })
    }

    /// Read and decode the current layout blob plus its CAS token.
    fn fetch_layout(store: &Arc<dyn ObjectStore>, base: &str) -> Result<(ShardLayout, Version)> {
        let fetched = match store.get(&layout_blob(base)) {
            Ok(f) => f,
            Err(StorageError::BlobNotFound { .. }) => {
                return Err(AirphantError::IndexNotFound {
                    prefix: base.to_owned(),
                })
            }
            Err(e) => return Err(e.into()),
        };
        let layout = ShardLayout::decode(base, &fetched.bytes)?;
        Ok((layout, Version::of_bytes(&fetched.bytes)))
    }

    /// Whether a sharded layout exists under `base` (the auto-detection
    /// hook: a `shards` blob marks the prefix, the way `manifest` marks
    /// a segmented index).
    pub fn is_sharded(store: &Arc<dyn ObjectStore>, base: &str) -> bool {
        store.exists(&layout_blob(base))
    }

    /// The object store the shards live in.
    pub fn store(&self) -> &Arc<dyn ObjectStore> {
        &self.store
    }

    /// The base prefix of this sharded index.
    pub fn base(&self) -> &str {
        &self.base
    }

    /// Number of shards in the layout.
    pub fn shards(&self) -> usize {
        self.layout.shards
    }

    /// The layout generation this router serves.
    pub fn generation(&self) -> u64 {
        self.layout.generation
    }

    /// The full placement contract.
    pub fn layout(&self) -> &ShardLayout {
        &self.layout
    }

    /// The shard a document routes to under this layout.
    pub fn route(&self, blob: &str, offset: u64) -> usize {
        shard_of(blob, offset, self.shards())
    }

    /// The prefix of shard `shard`'s segmented index.
    pub fn shard_prefix(&self, shard: usize) -> String {
        self.layout.shard_prefix(&self.base, shard)
    }

    /// The [`SegmentManager`] of one shard.
    pub fn manager(&self, shard: usize) -> SegmentManager {
        SegmentManager::new(self.store.clone(), self.shard_prefix(shard))
    }

    /// The routing predicate for one shard — the [`DocFilter`] that
    /// restricts a shared corpus to the documents this shard indexes.
    pub fn doc_filter(&self, shard: usize) -> DocFilter {
        let shards = self.shards();
        Arc::new(move |doc| shard_of(&doc.blob, doc.offset, shards) == shard)
    }

    /// Index `corpus` across the shards: each document goes to exactly
    /// one shard by the routing rule, and each shard that receives any
    /// documents gains one new immutable segment (published atomically
    /// in that shard's manifest). Returns one [`ShardAppend`] per shard.
    ///
    /// All N shard profiles are computed in **one** pass over the
    /// corpus (routing + tokenizing each document into its shard's
    /// accumulator); each non-empty shard then pays one build pass over
    /// its filtered view. An N-shard append therefore reads the corpus
    /// `1 + populated_shards` times, not `1 + 2N`.
    pub fn append(&self, corpus: &Corpus, config: &AirphantConfig) -> Result<Vec<ShardAppend>> {
        #[derive(Default)]
        struct ProfileAcc {
            n_docs: u64,
            n_words: u64,
            total_bytes: u64,
            doc_distinct_sizes: Vec<u64>,
            doc_freqs: HashMap<String, u64>,
        }
        let tokenizer = corpus.tokenizer().clone();
        let shards = self.shards();
        let mut accs: Vec<ProfileAcc> = (0..shards).map(|_| ProfileAcc::default()).collect();
        corpus.for_each_document(|doc| {
            let acc = &mut accs[shard_of(&doc.blob, doc.offset, shards)];
            acc.n_docs += 1;
            acc.total_bytes += doc.len as u64;
            let tokens = tokenizer.tokens(&doc.text);
            acc.n_words += tokens.len() as u64;
            let distinct: BTreeSet<String> = tokens.into_iter().collect();
            acc.doc_distinct_sizes.push(distinct.len() as u64);
            for w in distinct {
                *acc.doc_freqs.entry(w).or_insert(0) += 1;
            }
        })?;
        let mut out = Vec::with_capacity(shards);
        for (shard, acc) in accs.into_iter().enumerate() {
            let docs = acc.n_docs;
            if docs == 0 {
                out.push(ShardAppend {
                    shard,
                    docs,
                    report: None,
                    segment_prefix: None,
                });
                continue;
            }
            let profile = CorpusProfile {
                n_docs: acc.n_docs,
                n_terms: acc.doc_freqs.len() as u64,
                n_words: acc.n_words,
                total_bytes: acc.total_bytes,
                doc_distinct_sizes: acc.doc_distinct_sizes,
                doc_freqs: acc.doc_freqs,
            };
            let view = corpus.with_doc_filter(self.doc_filter(shard));
            let (report, prefix) = self
                .manager(shard)
                .append_with_profile(&view, config, profile)?;
            out.push(ShardAppend {
                shard,
                docs,
                report: Some(report),
                segment_prefix: Some(prefix),
            });
        }
        Ok(out)
    }

    /// Compact every shard under `policy` (whitespace tokenizer).
    pub fn compact(
        &self,
        config: &AirphantConfig,
        policy: &CompactionPolicy,
    ) -> Result<Vec<CompactionReport>> {
        self.compact_with_tokenizer(config, policy, Arc::new(WhitespaceTokenizer))
    }

    /// Compact every shard: each shard runs an ordinary [`Compactor`]
    /// over its own manifest, with the shard's routing filter installed
    /// so merged rebuilds re-index only this shard's slice of the
    /// (shared) corpus blobs.
    pub fn compact_with_tokenizer(
        &self,
        config: &AirphantConfig,
        policy: &CompactionPolicy,
        tokenizer: Arc<dyn Tokenizer>,
    ) -> Result<Vec<CompactionReport>> {
        let mut reports = Vec::with_capacity(self.shards());
        for shard in 0..self.shards() {
            let manager = self.manager(shard);
            let report = Compactor::new(&manager, config.clone())
                .with_tokenizer(tokenizer.clone())
                .with_doc_filter(self.doc_filter(shard))
                .with_policy(policy.clone())
                .compact()?;
            reports.push(report);
        }
        Ok(reports)
    }

    /// Each shard's current manifest generation.
    pub fn generations(&self) -> Result<Vec<u64>> {
        (0..self.shards())
            .map(|shard| self.manager(shard).generation())
            .collect()
    }

    /// Every shard's index prefix, in shard order, verifying each
    /// shard's segment manifest exists — a hole in the layout fails
    /// with the shard-naming [`AirphantError::ShardNotFound`]. This is
    /// the validation `segments`/`compact`-style tooling should run
    /// before walking the shards.
    pub fn shard_bases(&self) -> Result<Vec<String>> {
        (0..self.shards())
            .map(|shard| {
                if !self.manager(shard).manifest_exists() {
                    return Err(AirphantError::ShardNotFound {
                        base: self.base.clone(),
                        shard,
                        shards: self.shards(),
                        generation: self.layout.generation,
                        replicas: self.layout.replica_regions(shard),
                    });
                }
                Ok(self.shard_prefix(shard))
            })
            .collect()
    }

    /// Open a sharded searcher over every shard's live segment
    /// set (whitespace tokenizer).
    pub fn open_searcher(&self) -> Result<ShardedSearcher> {
        self.open_searcher_with_tokenizer(Arc::new(WhitespaceTokenizer))
    }

    /// Open with a custom document-word parser (must match what the
    /// shards were built with). A shard whose manifest blob is missing
    /// is a hole in the layout and fails with the shard-naming
    /// [`AirphantError::ShardNotFound`]; a shard with zero live
    /// segments is merely empty and serves no hits.
    pub fn open_searcher_with_tokenizer(
        &self,
        tokenizer: Arc<dyn Tokenizer>,
    ) -> Result<ShardedSearcher> {
        self.shard_bases()?;
        let shards = (0..self.shards())
            .map(|shard| self.manager(shard).open_inner(tokenizer.clone(), true))
            .collect::<Result<Vec<_>>>()?;
        Ok(ShardedSearcher {
            shards,
            layout_generation: self.layout.generation,
        })
    }

    /// Split every shard in two: build a complete new shard set of
    /// `2 * shards()` partitions under the next layout generation by
    /// re-routing every document through the per-shard [`DocFilter`]
    /// rebuild path, then CAS-publish the new layout. The old
    /// generation's blobs are untouched — searchers already open keep
    /// serving it until a refresh — and a concurrent reshard loses the
    /// CAS and surfaces as [`StorageError::VersionMismatch`].
    ///
    /// Returns `(router over the new layout, the superseded layout)`;
    /// pass the latter to [`ShardRouter::gc_generation`] once every
    /// reader has refreshed.
    pub fn split(
        &self,
        config: &AirphantConfig,
        splitter: Arc<dyn DocSplitter>,
        tokenizer: Arc<dyn Tokenizer>,
    ) -> Result<(ShardRouter, ShardLayout)> {
        let target = self
            .shards()
            .checked_mul(2)
            .ok_or_else(|| AirphantError::InvalidConfig {
                reason: "shard count overflow on split".into(),
            })?;
        self.reshard(target, config, splitter, tokenizer)
    }

    /// Merge shards pairwise: `shards() / 2` partitions under the next
    /// layout generation. Errors when the current count is odd or 1.
    /// See [`ShardRouter::split`] for the migration/cutover contract.
    pub fn merge(
        &self,
        config: &AirphantConfig,
        splitter: Arc<dyn DocSplitter>,
        tokenizer: Arc<dyn Tokenizer>,
    ) -> Result<(ShardRouter, ShardLayout)> {
        let n = self.shards();
        if n < 2 || !n.is_multiple_of(2) {
            return Err(AirphantError::InvalidConfig {
                reason: format!("cannot merge {n} shards pairwise (need an even count >= 2)"),
            });
        }
        self.reshard(n / 2, config, splitter, tokenizer)
    }

    /// The shared split/merge engine: rebuild into `target` shards under
    /// generation `g+1`, then swing the layout blob by CAS.
    fn reshard(
        &self,
        target: usize,
        config: &AirphantConfig,
        splitter: Arc<dyn DocSplitter>,
        tokenizer: Arc<dyn Tokenizer>,
    ) -> Result<(ShardRouter, ShardLayout)> {
        // Anchor the CAS on the layout as it exists *now*; if another
        // resharder published meanwhile, the final swing below loses.
        let (current, expected) = Self::fetch_layout(&self.store, &self.base)?;
        if current.generation != self.layout.generation {
            return Err(AirphantError::InvalidConfig {
                reason: format!(
                    "layout of {} moved to generation {} (router holds {}); reopen and retry",
                    self.base, current.generation, self.layout.generation
                ),
            });
        }
        // Union of every shard's corpus blobs, deduplicated in shard +
        // append order: the complete document set of this generation.
        let mut blobs = Vec::new();
        let mut seen = BTreeSet::new();
        for shard in 0..self.shards() {
            let manifest = self.manager(shard).manifest()?;
            for segment in &manifest.segments {
                for blob in &segment.corpus_blobs {
                    if seen.insert(blob.clone()) {
                        blobs.push(blob.clone());
                    }
                }
            }
        }
        let next = ShardLayout {
            generation: current.generation + 1,
            shards: target,
            regions: current.regions.clone(),
            homes: if current.regions.is_empty() {
                Vec::new()
            } else {
                // Round-robin re-homing: hash routing reshuffles the
                // documents anyway, so homes cannot be inherited —
                // spread them deterministically instead.
                (0..target)
                    .map(|s| vec![s % current.regions.len()])
                    .collect()
            },
        };
        // A staged router over the unpublished layout: its shard
        // prefixes live under the new generation's directory, so the
        // migration is invisible to readers until the CAS below.
        let staged = ShardRouter {
            store: self.store.clone(),
            base: self.base.clone(),
            layout: next.clone(),
        };
        for shard in 0..target {
            staged.manager(shard).ensure_manifest()?;
        }
        if !blobs.is_empty() {
            let corpus = Corpus::new(self.store.clone(), blobs, splitter, tokenizer);
            staged.append(&corpus, config)?;
        }
        // Data durable → swing the contract. One conditional write is
        // the entire cutover.
        self.store
            .put_if_version(&layout_blob(&self.base), next.encode(), expected)?;
        Ok((staged, current))
    }

    /// Delete a superseded layout generation's shard directories. Only
    /// valid for a generation other than the one this router serves
    /// (the caller sequences publish → refresh → drain → GC, exactly
    /// like deferred segment GC).
    pub fn gc_generation(&self, old: &ShardLayout) -> Result<usize> {
        if old.generation == self.layout.generation {
            return Err(AirphantError::InvalidConfig {
                reason: format!(
                    "refusing to GC generation {} of {}: it is the live layout",
                    old.generation, self.base
                ),
            });
        }
        let mut deleted = 0;
        for prefix in old.owned_prefixes(&self.base) {
            deleted += crate::compact::delete_prefix(self.store.as_ref(), &prefix)?;
        }
        Ok(deleted)
    }
}

/// A query server over N shard snapshots — a consistent
/// view of every shard's manifest generation at open time.
pub struct ShardedSearcher {
    shards: Vec<SegmentedSearcher>,
    layout_generation: u64,
}

impl ShardedSearcher {
    /// Number of shards in the snapshot.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The layout generation this snapshot was opened under. In-flight
    /// queries keep executing against it even after a reshard publishes
    /// a newer generation — the cutover happens at refresh.
    pub fn layout_generation(&self) -> u64 {
        self.layout_generation
    }

    /// Per-shard segmented snapshots (for introspection).
    pub fn shards(&self) -> &[SegmentedSearcher] {
        &self.shards
    }

    /// The manifest generation each shard was opened at.
    pub fn generations(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.generation()).collect()
    }

    /// Execute `f` with every shard's segments, one group per shard, in
    /// shard order — the shape the planner takes.
    fn with_groups<T>(&self, f: impl FnOnce(&[&[&Searcher]]) -> T) -> T {
        let segments: Vec<Vec<&Searcher>> = self
            .shards
            .iter()
            .map(|shard| shard.segments().iter().collect())
            .collect();
        let groups: Vec<&[&Searcher]> = segments.iter().map(Vec::as_slice).collect();
        f(&groups)
    }

    /// Execute a [`Query`] across every shard through the planner: one
    /// postings batch and at most one documents batch cover all shards.
    /// Each shard's hits are truncated to `top_k` and then merged in
    /// stable doc-id order (`(blob, offset)` — routing makes shards
    /// disjoint, so no dedup is needed); candidate/false-positive
    /// counters are summed.
    pub fn execute(&self, query: &Query, opts: &QueryOptions) -> Result<SearchResult> {
        let (results, trace) =
            self.with_groups(|groups| crate::plan::execute_over(groups, query, opts))?;
        let mut hits = Vec::new();
        let mut candidates = 0usize;
        let mut dropped = 0usize;
        for result in results {
            hits.extend(result.hits);
            candidates += result.candidates;
            dropped += result.false_positives_removed;
        }
        hits.sort_by(|a, b| {
            a.blob
                .cmp(&b.blob)
                .then(a.offset.cmp(&b.offset))
                .then(a.len.cmp(&b.len))
        });
        if let Some(k) = opts.top_k {
            hits.truncate(k);
        }
        Ok(SearchResult {
            hits,
            trace,
            candidates,
            false_positives_removed: dropped,
        })
    }

    /// Index-lookup phase only: every shard's candidate postings,
    /// unioned, fetched in one batch across the shards.
    pub fn execute_lookup(&self, query: &Query) -> Result<(PostingsList, QueryTrace)> {
        self.with_groups(|groups| crate::plan::lookup_over(groups, query))
    }

    /// Single-keyword search across all shards; thin shim over
    /// [`ShardedSearcher::execute`].
    pub fn search(&self, word: &str, top_k: Option<usize>) -> Result<SearchResult> {
        self.execute(&Query::term(word), &QueryOptions::new().with_top_k(top_k))
    }
}

impl crate::SearchEngine for ShardedSearcher {
    fn name(&self) -> &'static str {
        "AIRPHANT-sharded"
    }

    fn init_trace(&self) -> QueryTrace {
        // Shards initialize concurrently, each fanning out its own
        // segment-header downloads.
        QueryTrace::merge_parallel(
            &self
                .shards
                .iter()
                .map(crate::SearchEngine::init_trace)
                .collect::<Vec<_>>(),
        )
    }

    fn lookup(&self, word: &str) -> Result<(PostingsList, QueryTrace)> {
        self.execute_lookup(&Query::term(word))
    }

    fn execute(&self, query: &Query, opts: &QueryOptions) -> Result<SearchResult> {
        ShardedSearcher::execute(self, query, opts)
    }

    fn index_bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(crate::SearchEngine::index_bytes)
            .sum()
    }
}

// One sharded snapshot behind one `Arc` serves every executor thread of
// the serving core, same as the single-index engines.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ShardRouter>();
    assert_send_sync::<ShardedSearcher>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{QueryServer, ServerConfig};
    use crate::SearchEngine;
    use airphant_corpus::LineSplitter;
    use airphant_storage::{InMemoryStore, LatencyModel, SimulatedCloudStore};
    use std::collections::BTreeSet;

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
            .with_seed(3)
    }

    fn lines(prefix: &str, n: usize) -> Vec<String> {
        (0..n).map(|i| format!("shared {prefix}doc{i}")).collect()
    }

    #[test]
    fn routing_is_deterministic_and_covers_every_shard() {
        for shards in [1usize, 2, 4, 8] {
            let mut seen = vec![0usize; shards];
            for i in 0..1_000u64 {
                let s = shard_of("corpus/blob", i * 17, shards);
                assert_eq!(s, shard_of("corpus/blob", i * 17, shards));
                seen[s] += 1;
            }
            assert!(
                seen.iter().all(|&c| c > 0),
                "{shards} shards must all receive documents, got {seen:?}"
            );
        }
    }

    #[test]
    fn create_open_roundtrip_and_mismatch_rejected() {
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        let router = ShardRouter::create(store.clone(), "idx", 4).unwrap();
        assert_eq!(router.shards(), 4);
        assert!(ShardRouter::is_sharded(&store, "idx"));
        assert!(!ShardRouter::is_sharded(&store, "other"));
        // Every shard's manifest exists up front.
        for shard in 0..4 {
            assert!(router.manager(shard).manifest_exists());
        }
        // Re-creating with the same count adopts the layout.
        assert_eq!(
            ShardRouter::create(store.clone(), "idx", 4)
                .unwrap()
                .shards(),
            4
        );
        // A different count is a rebuild, not a config flip.
        assert!(matches!(
            ShardRouter::create(store.clone(), "idx", 8),
            Err(AirphantError::InvalidConfig { .. })
        ));
        let reopened = ShardRouter::open(store.clone(), "idx").unwrap();
        assert_eq!(reopened.shards(), 4);
        assert!(matches!(
            ShardRouter::open(store, "missing"),
            Err(AirphantError::IndexNotFound { .. })
        ));
    }

    #[test]
    fn corrupt_layout_is_a_typed_error() {
        let cases: Vec<&[u8]> = vec![
            b"\xff\xfe garbage".as_slice(),
            b"not-a-layout\nshards 4".as_slice(),
            b"airphant-shards v1\n".as_slice(),
            b"airphant-shards v1\nshards four".as_slice(),
            b"airphant-shards v1\nshards 0".as_slice(),
        ];
        for bytes in cases {
            let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
            store
                .put("idx/shards", Bytes::from(bytes.to_vec()))
                .unwrap();
            assert!(matches!(
                ShardRouter::open(store, "idx"),
                Err(AirphantError::CorruptManifest { .. })
            ));
        }
    }

    #[test]
    fn append_routes_every_document_to_exactly_one_shard() {
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        let router = ShardRouter::create(store.clone(), "idx", 4).unwrap();
        let docs = lines("a", 40);
        let corpus = corpus_of(store.clone(), "c/a", &docs);
        let appends = router.append(&corpus, &config()).unwrap();
        assert_eq!(appends.len(), 4);
        assert_eq!(appends.iter().map(|a| a.docs).sum::<u64>(), 40);
        let searcher = router.open_searcher().unwrap();
        // Every document findable exactly once through the fan-out …
        for i in 0..40 {
            let hits = searcher.search(&format!("adoc{i}"), None).unwrap().hits;
            assert_eq!(hits.len(), 1, "adoc{i}");
        }
        assert_eq!(searcher.search("shared", None).unwrap().hits.len(), 40);
        // … and the shards partition the corpus (disjoint, exhaustive).
        let per_shard: Vec<usize> = searcher
            .shards()
            .iter()
            .map(|s| s.search("shared", None).unwrap().hits.len())
            .collect();
        assert_eq!(per_shard.iter().sum::<usize>(), 40);
        assert_eq!(
            per_shard,
            appends.iter().map(|a| a.docs as usize).collect::<Vec<_>>()
        );
    }

    #[test]
    fn sharded_results_match_unsharded_in_doc_id_order() {
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        let docs: Vec<String> = (0..60)
            .map(|i| format!("common w{} tag{}", i % 7, i % 3))
            .collect();
        let corpus = corpus_of(store.clone(), "c/a", &docs);
        // Unsharded reference: one segmented index over the same corpus.
        let unsharded = SegmentManager::new(store.clone(), "flat");
        unsharded.append(&corpus, &config()).unwrap();
        let flat = unsharded.open().unwrap();
        let canonical = |mut hits: Vec<crate::SearchHit>| {
            hits.sort_by(|a, b| (&a.blob, a.offset, a.len).cmp(&(&b.blob, b.offset, b.len)));
            hits.into_iter()
                .map(|h| (h.blob, h.offset, h.len, h.text))
                .collect::<Vec<_>>()
        };
        for shards in [1usize, 2, 4, 8] {
            let router =
                ShardRouter::create(store.clone(), format!("idx{shards}"), shards).unwrap();
            router.append(&corpus, &config()).unwrap();
            let sharded = router.open_searcher().unwrap();
            for query in [
                Query::term("common"),
                Query::all([Query::term("w3"), Query::term("tag0")]),
                Query::any([Query::term("w1"), Query::term("w5")]),
                Query::term("absent"),
            ] {
                let s = sharded.execute(&query, &QueryOptions::new()).unwrap();
                let f = flat.execute(&query, &QueryOptions::new()).unwrap();
                // The sharded merge arrives already in doc-id order.
                let as_tuples: Vec<_> = s
                    .hits
                    .iter()
                    .map(|h| (h.blob.clone(), h.offset, h.len, h.text.clone()))
                    .collect();
                assert_eq!(canonical(s.hits.clone()), as_tuples);
                assert_eq!(
                    canonical(s.hits),
                    canonical(f.hits),
                    "{shards} shards, {query:?}"
                );
            }
        }
    }

    #[test]
    fn top_k_truncates_deterministically_in_doc_id_order() {
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        let docs = lines("t", 30);
        let corpus = corpus_of(store.clone(), "c/a", &docs);
        let router = ShardRouter::create(store.clone(), "idx", 4).unwrap();
        router.append(&corpus, &config()).unwrap();
        let searcher = router.open_searcher().unwrap();
        let a = searcher.search("shared", Some(7)).unwrap();
        let b = searcher.search("shared", Some(7)).unwrap();
        assert_eq!(a.hits.len(), 7);
        let ids = |r: &SearchResult| {
            r.hits
                .iter()
                .map(|h| (h.blob.clone(), h.offset))
                .collect::<Vec<_>>()
        };
        assert_eq!(ids(&a), ids(&b), "merge order is stable across runs");
        let mut sorted = ids(&a);
        sorted.sort();
        assert_eq!(ids(&a), sorted, "hits arrive in doc-id order");
    }

    #[test]
    fn empty_shards_serve_and_missing_manifest_names_the_shard() {
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        let router = ShardRouter::create(store.clone(), "idx", 8).unwrap();
        // One document: 7 of 8 shards stay empty but still open + serve.
        let corpus = corpus_of(store.clone(), "c/one", &["solo entry".to_owned()]);
        router.append(&corpus, &config()).unwrap();
        let searcher = router.open_searcher().unwrap();
        assert_eq!(searcher.shard_count(), 8);
        assert_eq!(searcher.search("solo", None).unwrap().hits.len(), 1);
        assert!(searcher.search("absent", None).unwrap().hits.is_empty());

        // Punch a hole: delete shard 5's manifest. The open must name
        // the missing shard, not report a generic IndexNotFound.
        store
            .delete(&format!("{}/manifest", router.shard_prefix(5)))
            .unwrap();
        match router.open_searcher() {
            Err(AirphantError::ShardNotFound {
                base,
                shard,
                shards,
                generation,
                replicas,
            }) => {
                assert_eq!(base, "idx");
                assert_eq!(shard, 5);
                assert_eq!(shards, 8);
                assert_eq!(generation, 1);
                assert!(replicas.is_empty(), "single-home layout");
            }
            Err(other) => panic!("expected ShardNotFound, got {other:?}"),
            Ok(_) => panic!("expected ShardNotFound, got a searcher"),
        }
    }

    #[test]
    fn scatter_gather_trace_reports_max_over_shards_round_trips() {
        let store = Arc::new(SimulatedCloudStore::new(
            InMemoryStore::new(),
            LatencyModel::gcs_like(),
            13,
        ));
        let dyn_store: Arc<dyn ObjectStore> = store.clone();
        let router = ShardRouter::create(dyn_store.clone(), "idx", 4).unwrap();
        let docs = lines("r", 48);
        let corpus = corpus_of(dyn_store.clone(), "c/a", &docs);
        router.append(&corpus, &config()).unwrap();
        let searcher = router.open_searcher().unwrap();

        let (_, lookup_trace) = searcher.execute_lookup(&Query::term("shared")).unwrap();
        assert_eq!(
            lookup_trace.round_trips(),
            1,
            "4-shard fan-out is still one dependent lookup round trip"
        );
        let r = searcher
            .execute(&Query::term("shared"), &QueryOptions::new())
            .unwrap();
        assert_eq!(r.hits.len(), 48);
        assert_eq!(
            r.trace.round_trips(),
            2,
            "one lookup batch + one document batch across all shards (not 2 x 4)"
        );
    }

    #[test]
    fn per_shard_compaction_keeps_shards_disjoint() {
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        let router = ShardRouter::create(store.clone(), "idx", 2).unwrap();
        // Two appends so every shard holds two segments built from two
        // *shared* corpus blobs.
        for batch in 0..2 {
            let docs = lines(&format!("b{batch}x"), 24);
            let corpus = corpus_of(store.clone(), &format!("c/b{batch}"), &docs);
            router.append(&corpus, &config()).unwrap();
        }
        let before: BTreeSet<(String, u64)> = router
            .open_searcher()
            .unwrap()
            .search("shared", None)
            .unwrap()
            .hits
            .iter()
            .map(|h| (h.blob.clone(), h.offset))
            .collect();
        assert_eq!(before.len(), 48);

        let reports = router
            .compact(
                &config(),
                &CompactionPolicy::new()
                    .with_max_live_segments(1)
                    .with_merge_factor(8),
            )
            .unwrap();
        assert_eq!(reports.len(), 2);
        assert!(reports.iter().all(|r| r.live_after == 1));

        // The regression this guards: an unfiltered rebuild would pull
        // the sibling shard's documents out of the shared blobs, and
        // every document would then be served twice.
        let searcher = router.open_searcher().unwrap();
        let after: Vec<(String, u64)> = searcher
            .search("shared", None)
            .unwrap()
            .hits
            .iter()
            .map(|h| (h.blob.clone(), h.offset))
            .collect();
        assert_eq!(after.len(), 48, "no duplicates after compaction");
        assert_eq!(after.iter().cloned().collect::<BTreeSet<_>>(), before);
        for batch in 0..2 {
            for i in 0..24 {
                let word = format!("b{batch}xdoc{i}");
                assert_eq!(
                    searcher.search(&word, None).unwrap().hits.len(),
                    1,
                    "{word}"
                );
            }
        }
    }

    #[test]
    fn refresh_swaps_the_whole_shard_set_atomically() {
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        let router = ShardRouter::create(store.clone(), "idx", 4).unwrap();
        let corpus = corpus_of(store.clone(), "c/a", &lines("a", 16));
        router.append(&corpus, &config()).unwrap();

        let server = QueryServer::start(
            Arc::new(router.open_searcher().unwrap()),
            ServerConfig::new().with_workers(2),
        );
        let count = |server: &QueryServer| {
            server
                .execute(&Query::term("shared"), &QueryOptions::new())
                .unwrap()
                .hits
                .len()
        };
        assert_eq!(count(&server), 16);

        // Grow every shard, then swap the whole set in one refresh.
        let corpus = corpus_of(store.clone(), "c/b", &lines("b", 16));
        router.append(&corpus, &config()).unwrap();
        assert_eq!(count(&server), 16, "old snapshot serves until refresh");
        server.refresh(Arc::new(router.open_searcher().unwrap()));
        assert_eq!(count(&server), 32, "new snapshot serves the whole set");
        let stats = server.shutdown();
        assert_eq!(stats.refreshes, 1);
        assert_eq!(stats.failed, 0);
    }

    #[test]
    fn layout_v2_roundtrip_and_v1_compat() {
        let layout = ShardLayout {
            generation: 3,
            shards: 4,
            regions: vec!["us-central1-c".into(), "europe-west2-c".into()],
            homes: vec![vec![0], vec![1], vec![0, 1], vec![]],
        };
        let decoded = ShardLayout::decode("idx", &layout.encode()).unwrap();
        assert_eq!(decoded, layout);
        assert_eq!(decoded.replica_regions(0), vec!["us-central1-c"]);
        assert_eq!(
            decoded.replica_regions(2),
            vec!["us-central1-c", "europe-west2-c"]
        );
        // An empty home means "everywhere".
        assert_eq!(
            decoded.replica_regions(3),
            vec!["us-central1-c", "europe-west2-c"]
        );
        // Pre-generation v1 blobs decode as generation 1, single-home.
        let v1 = ShardLayout::decode("idx", b"airphant-shards v1\nshards 4\n").unwrap();
        assert_eq!((v1.generation, v1.shards), (1, 4));
        assert!(v1.regions.is_empty() && v1.homes.is_empty());
        // Generation 1 keeps the legacy un-scoped shard directories;
        // later generations are scoped so both can coexist.
        assert_eq!(v1.shard_prefix("idx", 2), "idx/shard-0002");
        assert_eq!(layout.shard_prefix("idx", 2), "idx/gen0003/shard-0002");
    }

    #[test]
    fn corrupt_v2_layouts_are_typed_errors() {
        let cases: Vec<&[u8]> = vec![
            b"airphant-shards v2\nshards 4\n".as_slice(), // missing generation
            b"airphant-shards v2\ngeneration x\nshards 4\n".as_slice(),
            b"airphant-shards v2\ngeneration 0\nshards 4\n".as_slice(),
            b"airphant-shards v2\ngeneration 2\nshards 4\nregion\t\n".as_slice(),
            b"airphant-shards v2\ngeneration 2\nshards 2\nregion\tus\nshard\t1\t0\n".as_slice(),
            b"airphant-shards v2\ngeneration 2\nshards 2\nregion\tus\nshard\t0\t7\n".as_slice(),
            b"airphant-shards v2\ngeneration 2\nshards 2\nregion\tus\nshard\t0\t0\n".as_slice(),
            b"airphant-shards v2\ngeneration 2\nshards 2\nbogus\trecord\n".as_slice(),
        ];
        for bytes in cases {
            assert!(
                matches!(
                    ShardLayout::decode("idx", bytes),
                    Err(AirphantError::CorruptManifest { .. })
                ),
                "{:?}",
                String::from_utf8_lossy(bytes)
            );
        }
    }

    fn canonical(hits: Vec<crate::SearchHit>) -> Vec<(String, u64, u32, String)> {
        let mut out: Vec<_> = hits
            .into_iter()
            .map(|h| (h.blob, h.offset, h.len, h.text))
            .collect();
        out.sort();
        out
    }

    #[test]
    fn split_migrates_docs_and_serves_old_generation_until_gc() {
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        let router = ShardRouter::create(store.clone(), "idx", 2).unwrap();
        for batch in 0..2 {
            let docs = lines(&format!("s{batch}x"), 24);
            let corpus = corpus_of(store.clone(), &format!("c/s{batch}"), &docs);
            router.append(&corpus, &config()).unwrap();
        }
        let old_searcher = router.open_searcher().unwrap();
        assert_eq!(old_searcher.layout_generation(), 1);
        let before = canonical(old_searcher.search("shared", None).unwrap().hits);
        assert_eq!(before.len(), 48);

        let (split_router, old_layout) = router
            .split(
                &config(),
                Arc::new(LineSplitter),
                Arc::new(WhitespaceTokenizer),
            )
            .unwrap();
        assert_eq!(split_router.shards(), 4);
        assert_eq!(split_router.generation(), 2);
        assert_eq!(old_layout.generation, 1);

        // The published layout is the new one …
        let reopened = ShardRouter::open(store.clone(), "idx").unwrap();
        assert_eq!((reopened.shards(), reopened.generation()), (4, 2));
        // … but the old snapshot keeps serving its generation unchanged.
        assert_eq!(
            canonical(old_searcher.search("shared", None).unwrap().hits),
            before
        );
        // The new generation is byte-for-byte equivalent and disjoint.
        let new_searcher = reopened.open_searcher().unwrap();
        assert_eq!(new_searcher.layout_generation(), 2);
        assert_eq!(
            canonical(new_searcher.search("shared", None).unwrap().hits),
            before
        );
        let per_shard: usize = new_searcher
            .shards()
            .iter()
            .map(|s| s.search("shared", None).unwrap().hits.len())
            .sum();
        assert_eq!(per_shard, 48, "shards partition the corpus");

        // GC refuses the live generation, reclaims the superseded one.
        assert!(matches!(
            split_router.gc_generation(split_router.layout()),
            Err(AirphantError::InvalidConfig { .. })
        ));
        let deleted = split_router.gc_generation(&old_layout).unwrap();
        assert!(deleted > 0, "old shard dirs reclaimed");
        assert_eq!(
            canonical(new_searcher.search("shared", None).unwrap().hits),
            before,
            "GC of the old generation never touches the live one"
        );
    }

    #[test]
    fn merge_halves_the_layout_and_preserves_results() {
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        let router = ShardRouter::create(store.clone(), "idx", 4).unwrap();
        let corpus = corpus_of(store.clone(), "c/a", &lines("m", 32));
        router.append(&corpus, &config()).unwrap();
        let before = canonical(
            router
                .open_searcher()
                .unwrap()
                .search("shared", None)
                .unwrap()
                .hits,
        );
        let (merged, old_layout) = router
            .merge(
                &config(),
                Arc::new(LineSplitter),
                Arc::new(WhitespaceTokenizer),
            )
            .unwrap();
        assert_eq!((merged.shards(), merged.generation()), (2, 2));
        assert_eq!(
            canonical(
                merged
                    .open_searcher()
                    .unwrap()
                    .search("shared", None)
                    .unwrap()
                    .hits
            ),
            before
        );
        merged.gc_generation(&old_layout).unwrap();
        // A second reshard stacks another generation (2 -> 3).
        let (split_again, _) = merged
            .split(
                &config(),
                Arc::new(LineSplitter),
                Arc::new(WhitespaceTokenizer),
            )
            .unwrap();
        assert_eq!((split_again.shards(), split_again.generation()), (4, 3));
        assert_eq!(
            canonical(
                split_again
                    .open_searcher()
                    .unwrap()
                    .search("shared", None)
                    .unwrap()
                    .hits
            ),
            before
        );
    }

    #[test]
    fn merge_rejects_odd_and_single_shard_layouts() {
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        for shards in [1usize, 3] {
            let router =
                ShardRouter::create(store.clone(), format!("idx{shards}"), shards).unwrap();
            assert!(matches!(
                router.merge(
                    &config(),
                    Arc::new(LineSplitter),
                    Arc::new(WhitespaceTokenizer),
                ),
                Err(AirphantError::InvalidConfig { .. })
            ));
        }
    }

    #[test]
    fn concurrent_reshard_loses_the_layout_cas() {
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        let router_a = ShardRouter::create(store.clone(), "idx", 2).unwrap();
        let corpus = corpus_of(store.clone(), "c/a", &lines("c", 8));
        router_a.append(&corpus, &config()).unwrap();
        let router_b = ShardRouter::open(store.clone(), "idx").unwrap();
        router_a
            .split(
                &config(),
                Arc::new(LineSplitter),
                Arc::new(WhitespaceTokenizer),
            )
            .unwrap();
        // B still holds generation 1; its reshard must fail loudly, not
        // clobber A's published generation 2.
        match router_b.split(
            &config(),
            Arc::new(LineSplitter),
            Arc::new(WhitespaceTokenizer),
        ) {
            Err(AirphantError::InvalidConfig { .. }) => {}
            Err(other) => panic!("expected InvalidConfig, got {other:?}"),
            Ok(_) => panic!("stale router must not reshard over a newer generation"),
        }
        let live = ShardRouter::open(store, "idx").unwrap();
        assert_eq!((live.shards(), live.generation()), (4, 2));
    }

    #[test]
    fn resharding_a_regioned_layout_rehomes_round_robin() {
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        let layout = ShardLayout {
            generation: 1,
            shards: 2,
            regions: vec!["us-central1-c".into(), "europe-west2-c".into()],
            homes: vec![vec![0], vec![1]],
        };
        store
            .put_if_version(&layout_blob("idx"), layout.encode(), Version::Absent)
            .unwrap();
        let router = ShardRouter::open(store.clone(), "idx").unwrap();
        for shard in 0..2 {
            router.manager(shard).ensure_manifest().unwrap();
        }
        let corpus = corpus_of(store.clone(), "c/a", &lines("r", 12));
        router.append(&corpus, &config()).unwrap();
        let (split_router, _) = router
            .split(
                &config(),
                Arc::new(LineSplitter),
                Arc::new(WhitespaceTokenizer),
            )
            .unwrap();
        let next = split_router.layout();
        assert_eq!(next.regions, layout.regions, "regions carry forward");
        assert_eq!(next.homes.len(), 4);
        for (shard, home) in next.homes.iter().enumerate() {
            assert_eq!(home, &vec![shard % 2], "round-robin homing");
        }
        assert_eq!(
            split_router.layout().replica_regions(1),
            vec!["europe-west2-c"]
        );
    }

    #[test]
    fn engine_trait_over_sharded_searcher() {
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        let router = ShardRouter::create(store.clone(), "idx", 2).unwrap();
        let corpus = corpus_of(store.clone(), "c/a", &lines("e", 12));
        router.append(&corpus, &config()).unwrap();
        let engine: Box<dyn SearchEngine> = Box::new(router.open_searcher().unwrap());
        assert_eq!(engine.name(), "AIRPHANT-sharded");
        assert_eq!(engine.search("edoc3", None).unwrap().hits.len(), 1);
        let (postings, _) = engine.lookup("shared").unwrap();
        assert!(!postings.is_empty());
        assert!(engine.index_bytes() > 0);
        assert!(engine.init_trace().bytes() > 0);
    }
}
