//! # airphant-storage
//!
//! Object-storage substrate for the Airphant reproduction.
//!
//! The paper (Airphant: Cloud-oriented Document Indexing, ICDE 2022) persists
//! every byte — documents, super postings lists, and the index header — in
//! cloud object storage (GCP Cloud Storage in the paper's experiments) and
//! reads them over the network. This crate provides:
//!
//! * [`ObjectStore`] — the blob-store abstraction the rest of the system is
//!   written against: named blobs, whole-object and ranged reads, and a
//!   *batched* ranged read ([`ObjectStore::get_ranges`]) that models a single
//!   round of concurrent requests (the heart of the IoU Sketch's
//!   "single batch of concurrent communications").
//! * [`InMemoryStore`] and [`LocalFsStore`] — plain backends with zero
//!   simulated latency, used for unit tests and offline index building.
//! * [`SimulatedCloudStore`] — a backend wrapper that attaches a *simulated
//!   cloud latency* to every operation, calibrated to the affine
//!   latency-vs-size relationship of the paper's Figure 2 (≈50 ms to first
//!   byte, linear beyond ~2 MB), with optional long-tail behaviour and
//!   cross-region multipliers (Figures 7, 12, 13).
//! * Decorators that stack over any store: [`CachedStore`],
//!   [`CoalescingStore`], [`FlakyStore`], [`RetryingStore`], and
//!   [`TailStore`], plus `SimulatedCloudStore` above. Each is a
//!   [`StoreLayer`]: it names its inner store and writes only the methods
//!   it changes; every other call goes straight to the inner store.
//!   [`ReplicatedStore`] fans out over several region stores instead.
//! * [`QueryTrace`] — wait-time vs download-time instrumentation that stands
//!   in for the paper's tcpdump-based latency breakdown (Figures 8 and 11).
//!
//! ## Virtual clock
//!
//! Latencies are **data, not sleeps**: every read returns the simulated
//! duration it would have taken on a real cloud link. A batch of `k`
//! concurrent requests completes at `max(first_byte_i) + total_bytes /
//! bandwidth` — parallel requests overlap their round-trip latency but share
//! link bandwidth, exactly the trade-off §II-C of the paper describes. This
//! keeps experiments fast and deterministic under a seed.

#![warn(missing_docs)]

mod cache;
mod error;
mod flaky;
mod latency;
mod localfs;
mod memory;
mod object_store;
mod replicated;
mod scheduler;
mod sim;
mod tail;
mod trace;

pub use cache::{CacheStats, CachedStore};
pub use error::StorageError;
pub use flaky::{FlakyStore, RetryingStore};
pub use latency::{LatencyModel, LatencyModelBuilder, LatencySample, RegionProfile, SimDuration};
pub use localfs::LocalFsStore;
pub use memory::InMemoryStore;
pub use object_store::{
    BatchFetch, Fetched, ObjectStore, RangeClass, RangeRequest, StoreLayer, Version,
};
pub use replicated::{ReplicatedStore, ReplicationStats};
pub use scheduler::{CoalescingStore, SchedulerConfig, SchedulerStats};
pub use sim::{IoStatsSnapshot, SimulatedCloudStore, SpikeProfile};
pub use tail::TailStore;
pub use trace::{PhaseKind, PhaseTrace, QueryTrace};

/// Convenient `Result` alias for storage operations.
pub type Result<T> = std::result::Result<T, StorageError>;
