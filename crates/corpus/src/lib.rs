//! # airphant-corpus
//!
//! Corpora for the Airphant reproduction: document/parser abstractions,
//! synthetic dataset generators matching the paper's evaluation (§V-A), a
//! single-pass profiler, and query-workload generation.
//!
//! The paper benchmarks on four real corpora (Cranfield 1400 and the
//! Loghub HDFS / Windows / Spark logs) and three synthetic families
//! (`diag`, `unif`, `zipf`). The real corpora are multi-gigabyte downloads
//! unavailable offline, so this crate generates *look-alikes* whose
//! profiled statistics match scaled-down versions of Table II — the
//! statistics (document counts, vocabulary, per-document distinct words,
//! skew) are what drive IoU Sketch behaviour, not the literal byte content.
//! EXPERIMENTS.md records the substitution and each corpus's scale factor.
//!
//! * [`Corpus`] — blobs in an [`ObjectStore`](airphant_storage::ObjectStore)
//!   plus a document splitter and tokenizer; iterate documents, profile,
//!   compute ground-truth postings.
//! * [`parse`] — corpus-document parsers (line-delimited, whole-blob) and
//!   document-word parsers (whitespace, lowercase-alphanumeric).
//! * [`synth`] — `diag(d, w, l)`, `unif(d, w, l)`, `zipf(d, w, l)`
//!   generators with the paper's Zipf exponent 1.07.
//! * [`logs`] — template-based HDFS-, Windows-, and Spark-like log
//!   generators, plus the Cranfield-like abstract generator.
//! * [`profile`] — single-pass corpus statistics (Table II columns).
//! * [`workload`] — seeded query-word sampling (uniform prior by default,
//!   as §IV-B assumes).

#![warn(missing_docs)]

pub mod corpus;
pub mod logs;
pub mod parse;
pub mod profile;
pub mod synth;
pub mod workload;

pub use corpus::{Corpus, DocFilter, Document};
pub use logs::{cranfield_like, hdfs_like, spark_like, windows_like, LogCorpusSpec};
pub use parse::{
    AlnumLowerTokenizer, DocSpan, DocSplitter, LineSplitter, NgramTokenizer, Tokenizer,
    WhitespaceTokenizer, WholeBlobSplitter,
};
pub use profile::CorpusProfile;
pub use synth::{diag, unif, zipf, SyntheticSpec, ZipfSampler};
pub use workload::QueryWorkload;
