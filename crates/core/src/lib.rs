//! # airphant
//!
//! The Airphant search engine (ICDE 2022): keyword search with every byte —
//! documents, superposts, and index header — persisted in cloud object
//! storage, and a lightweight stateless Searcher that answers queries with
//! a *single batch of concurrent storage reads* thanks to the IoU Sketch.
//!
//! ## Components (§III-C)
//!
//! * [`Builder`] — profiles a corpus, optimizes the IoU Sketch structure
//!   (Algorithm 1), constructs superposts, compacts them into blocks, and
//!   persists the header block.
//! * [`Searcher`] — initializes once per corpus (downloads the header,
//!   reconstructs the MHT in memory), then serves queries: hash → one
//!   concurrent superpost batch → intersect → fetch documents → filter.
//!
//! ## Quick start
//!
//! Every lookup goes through one API: build a [`Query`] (a term, a
//! boolean combination, a phrase, a substring pattern, a prefix, or a
//! fuzzy term), then [`Searcher::execute`] it. The planner resolves
//! *all* of the query's terms and grams from the in-memory MHT — prefix
//! and fuzzy atoms are first expanded against the index vocabulary —
//! and fetches every superpost in a **single** concurrent batch:
//! compound queries pay the same one round-trip wait as single keywords.
//!
//! ```
//! use std::sync::Arc;
//! use airphant::{AirphantConfig, Builder, Query, QueryOptions, Searcher};
//! use airphant_corpus::{Corpus, LineSplitter, WhitespaceTokenizer};
//! use airphant_storage::{InMemoryStore, ObjectStore};
//! use bytes::Bytes;
//!
//! let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
//! store.put(
//!     "corpus/blob-0",
//!     Bytes::from_static(b"hello world\nhello airphant\nbye airphant"),
//! ).unwrap();
//! let corpus = Corpus::new(
//!     store.clone(),
//!     vec!["corpus/blob-0".into()],
//!     Arc::new(LineSplitter),
//!     Arc::new(WhitespaceTokenizer),
//! );
//!
//! let config = AirphantConfig::default().with_total_bins(256);
//! let built = Builder::new(config).build(&corpus, "index").unwrap();
//!
//! let searcher = Searcher::open(store, "index").unwrap();
//!
//! // Single keyword — the convenience shim over `execute`.
//! let result = searcher.search("airphant", None).unwrap();
//! assert_eq!(result.hits.len(), 2);
//!
//! // Compound query: both terms' superposts arrive in ONE storage batch.
//! let query = Query::term("hello").and(Query::term("airphant"));
//! let result = searcher.execute(&query, &QueryOptions::new()).unwrap();
//! assert_eq!(result.hits.len(), 1);
//! assert!(result.hits[0].text.contains("hello airphant"));
//! assert_eq!(
//!     result.trace.round_trips_of(airphant_storage::PhaseKind::Postings),
//!     1,
//! );
//!
//! // Top-k with the sampled fetch of Equation 6.
//! let top = searcher
//!     .execute(&Query::term("hello"), &QueryOptions::new().top_k(1))
//!     .unwrap();
//! assert_eq!(top.hits.len(), 1);
//!
//! // Typeahead: resolve every vocabulary term starting with "air" —
//! // still one postings batch after expansion.
//! let ahead = searcher
//!     .execute(&Query::prefix("air"), &QueryOptions::new())
//!     .unwrap();
//! assert_eq!(ahead.hits.len(), 2);
//! # let _ = built;
//! ```
//!
//! ## API stability (v1 contract)
//!
//! The query surface is designed to grow without breaking downstream
//! matches or constructor calls:
//!
//! * [`Query`], [`AirphantError`], and [`SubmitError`] are
//!   `#[non_exhaustive]`: embedders must match with a wildcard arm, and
//!   new query atoms or error variants are additive, not breaking.
//! * Construct queries through the constructors ([`Query::term`],
//!   [`Query::all`], [`Query::any`], [`Query::phrase`],
//!   [`Query::substring`], [`Query::prefix`], [`Query::fuzzy`]) or the
//!   fluent [`QueryBuilder`] chain
//!   (`Query::term("x").and(Query::prefix("ty")).top_k(10)`) rather than
//!   variant literals.
//! * [`QueryOptions`] grows by builder-style setters with unchanged
//!   defaults; a default-constructed `QueryOptions` always means "the
//!   exact, untraced, full-result query".
//! * Index capabilities degrade to *typed errors*, never panics: a
//!   prefix/fuzzy query against a segment without a vocabulary section
//!   is [`AirphantError::UnsupportedQuery`], and v1 segments keep
//!   decoding and answering every query shape they supported when they
//!   were written.

#![warn(missing_docs)]

pub mod admission;
pub mod builder;
pub mod compact;
pub mod config;
pub mod engine;
pub mod error;
mod expand;
pub mod memtable;
pub mod plan;
pub mod query;
pub mod result;
pub mod retrieval;
pub mod searcher;
pub mod segments;
pub mod serve;
pub mod shard;

pub use admission::{AdmissionConfig, AdmissionController, AdmissionStats, Priority, QuotaConfig};
pub use builder::{BuildReport, Builder};
pub use compact::{CompactionPolicy, CompactionReport, Compactor};
pub use config::AirphantConfig;
pub use engine::{SearchEngine, StagedEngine};
pub use error::AirphantError;
pub use expand::EXPANSION_CAP;
pub use memtable::{FlushPolicy, FlushReport, Flusher, FlusherStats, LiveIndex, Memtable};
pub use plan::execute_with_lookup;
pub use query::{Query, QueryBuilder, QueryOptions, Straggler};
pub use result::{SearchHit, SearchResult};
pub use searcher::Searcher;
pub use segments::{Manifest, SegmentEntry, SegmentManager, SegmentedSearcher};
pub use serve::{
    AsyncQueryServer, AsyncServerConfig, AsyncTicket, HedgeConfig, QueryResponse, QueryServer,
    ServeError, ServerConfig, ServerStats, SubmitError, SubmitSpec, Ticket,
};
pub use shard::{shard_of, ShardAppend, ShardLayout, ShardRouter, ShardedSearcher};

// Segment-format types, re-exported so embedders and the CLI can select
// and introspect the on-wire format without depending on `iou_sketch`.
pub use iou_sketch::{ByteClass, FormatVersion, LayerDirectory, SectionInfo, SegmentFormat};

/// Convenient `Result` alias.
pub type Result<T> = std::result::Result<T, AirphantError>;
