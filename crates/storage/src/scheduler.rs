//! Cross-query I/O scheduler: range coalescing and batch fusion.
//!
//! The paper's batch model (§II-C, `sim.rs`) prices a lookup by its round
//! trips: a batch of concurrent requests costs `max(first_byte_i)` of wait
//! plus a shared-bandwidth download, so *fewer, larger, concurrent* GETs
//! win. The planner already dedups identical ranges within one query;
//! [`CoalescingStore`] pushes the same idea below every engine:
//!
//! 1. **Range coalescing** — within one [`ObjectStore::get_ranges`] batch,
//!    requests to the same blob are sorted and merged whenever they
//!    overlap or sit within [`SchedulerConfig::coalesce_gap`] bytes of
//!    each other. The merged (fewer, larger) ranges are issued; each
//!    caller's exact bytes are sliced back out of the merged payloads,
//!    byte-for-byte identical to the uncoalesced fetch.
//! 2. **Cross-query batch fusion** — concurrent `get_ranges` callers that
//!    arrive within [`SchedulerConfig::batch_window`] (or before the
//!    accumulated batch reaches [`SchedulerConfig::max_batch_requests`])
//!    are fused into **one** backend batch by a submission queue with
//!    leader election: the first caller opens the batch and waits out the
//!    window, later callers append their requests and block, the leader
//!    issues the fused (coalesced) batch and hands every caller its
//!    slices. W server workers hitting the postings phase together pay
//!    one shared round trip instead of W.
//!
//! ## Simulated-clock semantics
//!
//! Each fused caller is charged the wait of the merged streams *its own
//! ranges* landed in (`max(first_byte)` over those streams — they are all
//! in flight concurrently, and streams it does not consume from do not
//! block it) and the byte-proportional share of the fused download its
//! slices account for. This preserves the per-query latency scale that
//! `ServerStats`/`qps_sim` replay on the virtual clock: fusion removes
//! round trips from the *backend* without inflating any single query's
//! simulated latency by other queries' bytes.
//!
//! The scheduler sits **below** [`crate::CachedStore`] in the serving
//! stack (`cloud → CoalescingStore → CachedStore → engine`): hits never
//! reach it, and the cache's single-flighted miss batches are exactly the
//! traffic worth coalescing and fusing. See `docs/adr/005-io-scheduler.md`
//! for the full stacking argument.

use crate::latency::{LatencySample, SimDuration};
use crate::object_store::{BatchFetch, Fetched, ObjectStore, RangeRequest};
use crate::{Result, StorageError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Tuning knobs for a [`CoalescingStore`].
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Two same-blob ranges whose gap is at most this many bytes are
    /// merged into one read (overlapping/touching ranges always merge).
    /// The padding bytes fetched to bridge a gap trade download for a
    /// whole round trip — cheap under the paper's affine latency model.
    pub coalesce_gap: u64,
    /// A pending fused batch closes as soon as it holds this many
    /// requests, without waiting out the window.
    pub max_batch_requests: usize,
    /// How long (wall clock) the first caller of a fused batch waits for
    /// more callers before issuing. [`Duration::ZERO`] disables fusion
    /// entirely: every caller issues its own (still coalesced) batch.
    pub batch_window: Duration,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            coalesce_gap: 4096,
            max_batch_requests: 64,
            batch_window: Duration::from_micros(200),
        }
    }
}

impl SchedulerConfig {
    /// The default configuration (4 KiB gap, 64-request batches, 200 µs
    /// fusion window).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the merge gap in bytes.
    pub fn with_coalesce_gap(mut self, gap: u64) -> Self {
        self.coalesce_gap = gap;
        self
    }

    /// Set the fused-batch request cap (clamped to at least 1).
    pub fn with_max_batch_requests(mut self, max: usize) -> Self {
        self.max_batch_requests = max.max(1);
        self
    }

    /// Set the fusion window ([`Duration::ZERO`] disables fusion).
    pub fn with_batch_window(mut self, window: Duration) -> Self {
        self.batch_window = window;
        self
    }

    /// Coalescing only: merge ranges within each caller's batch but never
    /// hold a batch open for other callers.
    pub fn coalesce_only(self) -> Self {
        self.with_batch_window(Duration::ZERO)
    }
}

/// Aggregate counters of a [`CoalescingStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedulerStats {
    /// Requests eliminated by merging (submitted minus issued).
    pub merged_ranges: u64,
    /// Backend batches that served two or more fused callers.
    pub fused_batches: u64,
    /// Bytes the backend did not have to send because overlapping ranges
    /// were fetched once (requested bytes minus their union).
    pub bytes_saved: u64,
    /// Padding bytes fetched to bridge sub-`coalesce_gap` gaps — the
    /// download price paid for the merged round trips.
    pub bytes_padded: u64,
    /// Total batches issued to the backend.
    pub backend_batches: u64,
}

#[derive(Debug, Default)]
struct StatCells {
    merged_ranges: AtomicU64,
    fused_batches: AtomicU64,
    bytes_saved: AtomicU64,
    bytes_padded: AtomicU64,
    backend_batches: AtomicU64,
}

/// One pending fused batch: callers append requests while it is open; the
/// leader closes it, issues the fused fetch, and publishes per-caller
/// results.
struct BatchCell {
    data: Mutex<BatchData>,
    cv: Condvar,
}

struct BatchData {
    requests: Vec<RangeRequest>,
    /// Per caller: `(start, count)` span into `requests`.
    spans: Vec<(usize, usize)>,
    /// No further callers may join (the leader is about to issue).
    closed: bool,
    /// Per-caller outcomes, filled by the leader; parallel to `spans`.
    results: Vec<Option<Result<BatchFetch>>>,
    done: bool,
}

/// Unblocks followers if the leader unwinds before publishing results —
/// the scheduler mirror of the cache's claim guard.
struct LeaderGuard<'a> {
    cell: &'a BatchCell,
    armed: bool,
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let mut d = self.cell.data.lock().unwrap_or_else(|e| e.into_inner());
        for slot in d.results.iter_mut() {
            if slot.is_none() {
                *slot = Some(Err(StorageError::Io(std::io::Error::other(
                    "scheduler leader panicked before publishing the fused batch",
                ))));
            }
        }
        d.done = true;
        self.cell.cv.notify_all();
    }
}

/// An [`ObjectStore`] decorator that merges ranged reads into fewer,
/// larger backend requests and fuses concurrent batches into one shared
/// round trip. Pure pass-through for writes, listings, and CAS.
pub struct CoalescingStore<S> {
    inner: S,
    config: SchedulerConfig,
    stats: StatCells,
    /// The currently-open fused batch, if any.
    open: Mutex<Option<Arc<BatchCell>>>,
}

impl<S: ObjectStore> CoalescingStore<S> {
    /// Wrap `inner` with the default [`SchedulerConfig`].
    pub fn new(inner: S) -> Self {
        Self::with_config(inner, SchedulerConfig::default())
    }

    /// Wrap `inner` with an explicit configuration.
    pub fn with_config(inner: S, config: SchedulerConfig) -> Self {
        CoalescingStore {
            inner,
            config,
            stats: StatCells::default(),
            open: Mutex::new(None),
        }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The configuration in use.
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// Snapshot the scheduler counters.
    pub fn stats(&self) -> SchedulerStats {
        SchedulerStats {
            merged_ranges: self.stats.merged_ranges.load(Ordering::Relaxed),
            fused_batches: self.stats.fused_batches.load(Ordering::Relaxed),
            bytes_saved: self.stats.bytes_saved.load(Ordering::Relaxed),
            bytes_padded: self.stats.bytes_padded.load(Ordering::Relaxed),
            backend_batches: self.stats.backend_batches.load(Ordering::Relaxed),
        }
    }

    /// Coalesce `requests`, issue the merged batch, and record stats.
    fn fetch_merged(&self, requests: &[RangeRequest]) -> Result<MergedFetch> {
        let (merged, assignment, union_len) = coalesce(requests, self.config.coalesce_gap);
        let batch = self.inner.get_ranges(&merged)?;
        let requested: u64 = requests.iter().map(|r| r.len).sum();
        let fetched: u64 = merged.iter().map(|m| m.len).sum();
        let mut requested_per_merged = vec![0u64; merged.len()];
        for (i, r) in requests.iter().enumerate() {
            requested_per_merged[assignment[i]] += r.len;
        }
        self.stats.backend_batches.fetch_add(1, Ordering::Relaxed);
        self.stats
            .merged_ranges
            .fetch_add((requests.len() - merged.len()) as u64, Ordering::Relaxed);
        // Overlap dedup (requested beyond the union was fetched once) and
        // gap padding (fetched beyond the union) are separate ledgers: a
        // padded merge spends download to save a round trip, and must not
        // silently cancel real savings out of the report.
        self.stats
            .bytes_saved
            .fetch_add(requested.saturating_sub(union_len), Ordering::Relaxed);
        self.stats
            .bytes_padded
            .fetch_add(fetched.saturating_sub(union_len), Ordering::Relaxed);
        Ok(MergedFetch {
            merged,
            assignment,
            requested_per_merged,
            batch,
        })
    }

    /// The coalesce-only path: one caller, one (merged) backend batch.
    fn coalesced_solo(&self, requests: &[RangeRequest]) -> Result<BatchFetch> {
        let mf = self.fetch_merged(requests)?;
        let parts: Vec<Fetched> = requests
            .iter()
            .enumerate()
            .map(|(i, r)| mf.slice(mf.assignment[i], r))
            .collect();
        Ok(BatchFetch {
            parts,
            batch_latency: mf.batch.batch_wait + mf.batch.batch_download,
            batch_wait: mf.batch.batch_wait,
            batch_download: mf.batch.batch_download,
        })
    }

    /// Join the open fused batch (or open a new one as its leader).
    /// Returns the cell, this caller's span index, and leadership.
    fn join_or_open(&self, requests: &[RangeRequest]) -> (Arc<BatchCell>, usize, bool) {
        let mut open = self.open.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(cell) = open.clone() {
            let mut d = cell.data.lock().unwrap_or_else(|e| e.into_inner());
            if !d.closed {
                let start = d.requests.len();
                d.requests.extend_from_slice(requests);
                d.spans.push((start, requests.len()));
                d.results.push(None);
                let idx = d.spans.len() - 1;
                if d.requests.len() >= self.config.max_batch_requests {
                    // Full: close now and wake the leader early.
                    d.closed = true;
                    cell.cv.notify_all();
                    drop(d);
                    *open = None;
                    return (cell, idx, false);
                }
                drop(d);
                return (cell, idx, false);
            }
            // Closed but not yet detached by its leader: start fresh.
        }
        let closed = requests.len() >= self.config.max_batch_requests;
        let cell = Arc::new(BatchCell {
            data: Mutex::new(BatchData {
                requests: requests.to_vec(),
                spans: vec![(0, requests.len())],
                closed,
                results: vec![None],
                done: false,
            }),
            cv: Condvar::new(),
        });
        // A batch born full can never accept a joiner — publishing it
        // would only make later callers lock a dead cell before opening
        // their own.
        if !closed {
            *open = Some(cell.clone());
        }
        (cell, 0, true)
    }

    /// The fusion path: leader waits out the window, issues the fused
    /// batch, and distributes per-caller slices; followers block for
    /// their share.
    fn fused_get_ranges(&self, requests: &[RangeRequest]) -> Result<BatchFetch> {
        let (cell, my_idx, leader) = self.join_or_open(requests);
        if !leader {
            let mut d = cell.data.lock().unwrap_or_else(|e| e.into_inner());
            while !d.done {
                d = cell.cv.wait(d).unwrap_or_else(|e| e.into_inner());
            }
            return d.results[my_idx].take().expect("one result per caller");
        }

        // Leader: hold the batch open for the window (or until full).
        let deadline = Instant::now() + self.config.batch_window;
        {
            let mut d = cell.data.lock().unwrap_or_else(|e| e.into_inner());
            while !d.closed {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (g, _) = cell
                    .cv
                    .wait_timeout(d, deadline - now)
                    .unwrap_or_else(|e| e.into_inner());
                d = g;
            }
        }
        // Close and detach under the queue lock (queue → cell order, same
        // as join_or_open) so late arrivals open a fresh batch.
        {
            let mut open = self.open.lock().unwrap_or_else(|e| e.into_inner());
            let mut d = cell.data.lock().unwrap_or_else(|e| e.into_inner());
            d.closed = true;
            if let Some(cur) = open.as_ref() {
                if Arc::ptr_eq(cur, &cell) {
                    *open = None;
                }
            }
        }
        let (fused_requests, spans) = {
            let mut d = cell.data.lock().unwrap_or_else(|e| e.into_inner());
            (std::mem::take(&mut d.requests), d.spans.clone())
        };
        if spans.len() > 1 {
            self.stats.fused_batches.fetch_add(1, Ordering::Relaxed);
        }

        // From here on followers are waiting on us: the guard publishes
        // error results if the backend (or slicing) panics.
        let mut guard = LeaderGuard {
            cell: &cell,
            armed: true,
        };
        let outcome = self.fetch_merged(&fused_requests);
        let mut results: Vec<Option<Result<BatchFetch>>> = match &outcome {
            Ok(mf) => spans
                .iter()
                .map(|&(start, count)| Some(Ok(mf.caller_batch(&fused_requests, start, count))))
                .collect(),
            Err(e) => spans.iter().map(|_| Some(Err(clone_error(e)))).collect(),
        };
        let mine = results[my_idx].take().expect("leader result");
        {
            let mut d = cell.data.lock().unwrap_or_else(|e| e.into_inner());
            d.results = results;
            d.done = true;
            cell.cv.notify_all();
        }
        guard.armed = false;
        mine
    }
}

/// A coalesced backend fetch plus the bookkeeping to slice callers' exact
/// ranges back out of the merged payloads.
struct MergedFetch {
    merged: Vec<RangeRequest>,
    /// Original request index → merged request index.
    assignment: Vec<usize>,
    /// Sum of the original request lengths folded into each merged range
    /// — the denominator that splits a merged stream's whole transfer
    /// time (gap padding included) across the requests that caused it.
    requested_per_merged: Vec<u64>,
    batch: BatchFetch,
}

impl MergedFetch {
    /// Slice request `r`'s exact bytes out of merged part `m`, attributing
    /// a byte-proportional share of the merged stream's transfer time
    /// (the full stream, so padding bytes are charged, not vanished).
    fn slice(&self, m: usize, r: &RangeRequest) -> Fetched {
        let merged = &self.merged[m];
        let part = &self.batch.parts[m];
        let start = (r.offset - merged.offset) as usize;
        let bytes = part.bytes.slice(start..start + r.len as usize);
        let share = if self.requested_per_merged[m] > 0 {
            r.len as f64 / self.requested_per_merged[m] as f64
        } else {
            0.0
        };
        Fetched {
            bytes,
            latency: LatencySample {
                first_byte: part.latency.first_byte,
                transfer: part.latency.transfer * share,
            },
        }
    }

    /// Assemble one fused caller's [`BatchFetch`]: its sliced parts, the
    /// max first-byte over the merged streams *it* consumes from, and its
    /// byte-proportional download share (see the module docs).
    fn caller_batch(&self, fused: &[RangeRequest], start: usize, count: usize) -> BatchFetch {
        let mut parts = Vec::with_capacity(count);
        let mut wait = SimDuration::ZERO;
        let mut download = SimDuration::ZERO;
        for (i, r) in fused.iter().enumerate().skip(start).take(count) {
            let m = self.assignment[i];
            let part = self.slice(m, r);
            wait = wait.max(self.batch.parts[m].latency.first_byte);
            download += part.latency.transfer;
            parts.push(part);
        }
        BatchFetch {
            parts,
            batch_latency: wait + download,
            batch_wait: wait,
            batch_download: download,
        }
    }
}

/// Sort requests per blob and merge overlapping / gap-≤`gap` neighbours.
/// Returns the merged requests, each original request's merged index, and
/// the total length of the requests' union (for the dedup-vs-padding
/// byte ledgers).
fn coalesce(requests: &[RangeRequest], gap: u64) -> (Vec<RangeRequest>, Vec<usize>, u64) {
    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.sort_by(|&a, &b| {
        let (ra, rb) = (&requests[a], &requests[b]);
        (&ra.name, ra.offset, ra.len).cmp(&(&rb.name, rb.offset, rb.len))
    });
    let mut merged: Vec<RangeRequest> = Vec::new();
    let mut assignment = vec![0usize; requests.len()];
    // Union bookkeeping: how far the current blob's coverage extends.
    let mut union_len = 0u64;
    let mut covered: Option<(&str, u64)> = None;
    for &i in &order {
        let r = &requests[i];
        let end = r.offset + r.len;
        match &mut covered {
            Some((name, covered_end)) if *name == r.name => {
                if end > *covered_end {
                    union_len += end - (*covered_end).max(r.offset);
                    *covered_end = end;
                }
            }
            _ => {
                union_len += r.len;
                covered = Some((&r.name, end));
            }
        }
        let extend = matches!(
            merged.last(),
            Some(m) if m.name == r.name && r.offset <= (m.offset + m.len).saturating_add(gap)
        );
        if extend {
            let m = merged.last_mut().expect("matched Some above");
            let merged_end = end.max(m.offset + m.len);
            m.len = merged_end - m.offset;
        } else {
            merged.push(r.clone());
        }
        assignment[i] = merged.len() - 1;
    }
    (merged, assignment, union_len)
}

/// Structural clone for fanning one backend error out to every fused
/// caller ([`std::io::Error`] is not `Clone`; its message is preserved).
fn clone_error(e: &StorageError) -> StorageError {
    match e {
        StorageError::BlobNotFound { name } => StorageError::BlobNotFound { name: name.clone() },
        StorageError::RangeOutOfBounds {
            name,
            offset,
            len,
            blob_size,
        } => StorageError::RangeOutOfBounds {
            name: name.clone(),
            offset: *offset,
            len: *len,
            blob_size: *blob_size,
        },
        StorageError::Timeout { name } => StorageError::Timeout { name: name.clone() },
        StorageError::VersionMismatch {
            name,
            expected,
            actual,
        } => StorageError::VersionMismatch {
            name: name.clone(),
            expected: *expected,
            actual: *actual,
        },
        StorageError::Io(err) => StorageError::Io(std::io::Error::new(err.kind(), err.to_string())),
    }
}

impl<S: ObjectStore> crate::StoreLayer for CoalescingStore<S> {
    type Inner = S;

    fn inner(&self) -> &S {
        &self.inner
    }

    /// Batches are coalesced (and fused when the window is open). Single
    /// ranges pass straight through: there is nothing to merge, and
    /// holding a lone read hostage to the fusion window would tax every
    /// header fetch for no round-trip saving.
    fn get_ranges(&self, requests: &[RangeRequest]) -> Result<BatchFetch> {
        if requests.is_empty() {
            return Ok(BatchFetch {
                parts: Vec::new(),
                batch_latency: SimDuration::ZERO,
                batch_wait: SimDuration::ZERO,
                batch_download: SimDuration::ZERO,
            });
        }
        if self.config.batch_window.is_zero() {
            self.coalesced_solo(requests)
        } else {
            self.fused_get_ranges(requests)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InMemoryStore, LatencyModel, SimulatedCloudStore};
    use bytes::Bytes;

    fn blob_store() -> InMemoryStore {
        let store = InMemoryStore::new();
        let data: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        store.put("blob", Bytes::from(data)).unwrap();
        store.put("other", Bytes::from(vec![7u8; 1024])).unwrap();
        store
    }

    fn expect(offset: u64, len: u64) -> Vec<u8> {
        (offset as u32..(offset + len) as u32)
            .map(|i| (i % 251) as u8)
            .collect()
    }

    #[test]
    fn coalesce_merges_overlap_adjacency_and_gaps() {
        let reqs = vec![
            RangeRequest::new("blob", 0, 100),
            RangeRequest::new("blob", 50, 100), // overlaps the first
            RangeRequest::new("blob", 150, 50), // touches the merged end
            RangeRequest::new("blob", 230, 10), // 30-byte gap: merged at gap=32
            RangeRequest::new("blob", 400, 10), // far away: own range
        ];
        let (merged, assignment, union_len) = coalesce(&reqs, 32);
        assert_eq!(
            merged,
            vec![
                RangeRequest::new("blob", 0, 240),
                RangeRequest::new("blob", 400, 10),
            ]
        );
        assert_eq!(assignment, vec![0, 0, 0, 0, 1]);
        // Union: [0,200) ∪ [230,240) ∪ [400,410) = 220 bytes.
        assert_eq!(union_len, 220);
        // gap = 0 still merges overlap and touch, but not the gap.
        let (merged, _, _) = coalesce(&reqs, 0);
        assert_eq!(merged.len(), 3);
    }

    #[test]
    fn coalesce_never_crosses_blobs() {
        let reqs = vec![
            RangeRequest::new("a", 0, 10),
            RangeRequest::new("b", 0, 10),
            RangeRequest::new("a", 10, 10),
        ];
        let (merged, assignment, union_len) = coalesce(&reqs, 1024);
        assert_eq!(
            merged,
            vec![RangeRequest::new("a", 0, 20), RangeRequest::new("b", 0, 10)]
        );
        assert_eq!(assignment, vec![0, 1, 0]);
        assert_eq!(union_len, 30);
    }

    #[test]
    fn sliced_parts_are_byte_identical() {
        let store = CoalescingStore::with_config(
            blob_store(),
            SchedulerConfig::new().coalesce_only().with_coalesce_gap(64),
        );
        let reqs = vec![
            RangeRequest::new("blob", 10, 90),
            RangeRequest::new("blob", 80, 40), // overlap
            RangeRequest::new("blob", 140, 8), // 20-byte gap
            RangeRequest::new("other", 0, 16),
            RangeRequest::new("blob", 3000, 96),
        ];
        let batch = store.get_ranges(&reqs).unwrap();
        assert_eq!(batch.parts.len(), reqs.len());
        assert_eq!(&batch.parts[0].bytes[..], &expect(10, 90)[..]);
        assert_eq!(&batch.parts[1].bytes[..], &expect(80, 40)[..]);
        assert_eq!(&batch.parts[2].bytes[..], &expect(140, 8)[..]);
        assert_eq!(&batch.parts[3].bytes[..], &[7u8; 16][..]);
        assert_eq!(&batch.parts[4].bytes[..], &expect(3000, 96)[..]);
        let stats = store.stats();
        assert_eq!(stats.backend_batches, 1);
        // blob[10..180) fused 3 requests into 1; the others stayed.
        assert_eq!(stats.merged_ranges, 2);
    }

    #[test]
    fn backend_sees_fewer_requests_and_duplicate_bytes_once() {
        let inner = blob_store();
        let sim = SimulatedCloudStore::new(inner, LatencyModel::gcs_like(), 3);
        let store = CoalescingStore::with_config(
            sim,
            SchedulerConfig::new().coalesce_only().with_coalesce_gap(0),
        );
        // Two fully-overlapping and one adjacent range: one backend read.
        let reqs = vec![
            RangeRequest::new("blob", 0, 256),
            RangeRequest::new("blob", 0, 256),
            RangeRequest::new("blob", 256, 256),
        ];
        let batch = store.get_ranges(&reqs).unwrap();
        assert_eq!(batch.parts.len(), 3);
        assert_eq!(store.inner().stats().read_requests, 1);
        assert_eq!(store.inner().stats().bytes_read, 512);
        let stats = store.stats();
        assert_eq!(stats.merged_ranges, 2);
        assert_eq!(stats.bytes_saved, 256, "the duplicate range was free");
        // The batch is cheaper than three concurrent streams: one
        // first-byte sample, no per-stream dispatch overhead.
        assert!(batch.batch_wait > SimDuration::ZERO);
    }

    #[test]
    fn gap_padding_and_overlap_savings_are_separate_ledgers() {
        let store = CoalescingStore::with_config(
            blob_store(),
            SchedulerConfig::new()
                .coalesce_only()
                .with_coalesce_gap(100),
        );
        let reqs = vec![
            RangeRequest::new("blob", 0, 10),
            RangeRequest::new("blob", 0, 10), // duplicate: 10 bytes saved
            RangeRequest::new("blob", 100, 10), // 90 padding bytes fetched
        ];
        store.get_ranges(&reqs).unwrap();
        let stats = store.stats();
        assert_eq!(stats.merged_ranges, 2);
        assert_eq!(
            stats.bytes_saved, 10,
            "the duplicate's bytes, not net of padding"
        );
        assert_eq!(stats.bytes_padded, 90, "the gap bridge is its own ledger");
    }

    #[test]
    fn zero_len_and_empty_batches() {
        let store =
            CoalescingStore::with_config(blob_store(), SchedulerConfig::new().coalesce_only());
        let empty = store.get_ranges(&[]).unwrap();
        assert!(empty.parts.is_empty());
        assert_eq!(empty.batch_latency, SimDuration::ZERO);
        let batch = store
            .get_ranges(&[
                RangeRequest::new("blob", 64, 0),
                RangeRequest::new("blob", 64, 32),
            ])
            .unwrap();
        assert!(batch.parts[0].bytes.is_empty());
        assert_eq!(&batch.parts[1].bytes[..], &expect(64, 32)[..]);
    }

    #[test]
    fn solo_latency_matches_inner_batch() {
        let sim = SimulatedCloudStore::new(blob_store(), LatencyModel::gcs_like(), 9);
        let store = CoalescingStore::with_config(sim, SchedulerConfig::new().coalesce_only());
        let reqs = vec![
            RangeRequest::new("blob", 0, 128),
            RangeRequest::new("blob", 2048, 128),
        ];
        let batch = store.get_ranges(&reqs).unwrap();
        assert_eq!(batch.batch_latency, batch.batch_wait + batch.batch_download);
        assert!(batch.batch_wait > SimDuration::ZERO);
        // Per-part transfer attribution sums to (at most) the download.
        let parts_sum: f64 = batch
            .parts
            .iter()
            .map(|p| p.latency.transfer.as_secs_f64())
            .sum();
        assert!(parts_sum <= batch.batch_download.as_secs_f64() + 1e-9);
    }

    #[test]
    fn concurrent_callers_fuse_into_one_backend_batch() {
        // Two callers, two requests each; max_batch_requests = 4 closes
        // the batch deterministically the moment the second caller joins
        // (the 5 s window is only the upper bound, never waited out).
        let sim = SimulatedCloudStore::new(blob_store(), LatencyModel::gcs_like(), 17);
        let store = Arc::new(CoalescingStore::with_config(
            sim,
            SchedulerConfig::new()
                .with_coalesce_gap(0)
                .with_max_batch_requests(4)
                .with_batch_window(Duration::from_secs(5)),
        ));
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let batches: Vec<BatchFetch> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|t| {
                    let store = store.clone();
                    let barrier = barrier.clone();
                    s.spawn(move || {
                        let reqs = vec![
                            RangeRequest::new("blob", t * 1000, 100),
                            RangeRequest::new("blob", t * 1000 + 200, 100),
                        ];
                        barrier.wait();
                        store.get_ranges(&reqs).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (t, batch) in batches.iter().enumerate() {
            let base = t as u64 * 1000;
            assert_eq!(&batch.parts[0].bytes[..], &expect(base, 100)[..]);
            assert_eq!(&batch.parts[1].bytes[..], &expect(base + 200, 100)[..]);
            assert!(batch.batch_wait > SimDuration::ZERO, "shared wait charged");
        }
        let stats = store.stats();
        assert_eq!(stats.backend_batches, 1, "one fused backend batch");
        assert_eq!(stats.fused_batches, 1);
        assert_eq!(store.inner().stats().batches, 1);
        assert_eq!(store.inner().stats().read_requests, 4);
    }

    #[test]
    fn fused_callers_share_overlapping_ranges() {
        // Both callers want the same hot range: fused AND merged — the
        // backend reads the bytes once.
        let sim = SimulatedCloudStore::new(blob_store(), LatencyModel::gcs_like(), 23);
        let store = Arc::new(CoalescingStore::with_config(
            sim,
            SchedulerConfig::new()
                .with_coalesce_gap(0)
                .with_max_batch_requests(2)
                .with_batch_window(Duration::from_secs(5)),
        ));
        let barrier = Arc::new(std::sync::Barrier::new(2));
        std::thread::scope(|s| {
            for _ in 0..2 {
                let store = store.clone();
                let barrier = barrier.clone();
                s.spawn(move || {
                    barrier.wait();
                    let batch = store
                        .get_ranges(&[RangeRequest::new("blob", 512, 256)])
                        .unwrap();
                    assert_eq!(&batch.parts[0].bytes[..], &expect(512, 256)[..]);
                });
            }
        });
        let stats = store.stats();
        assert_eq!(stats.fused_batches, 1);
        assert_eq!(store.inner().stats().read_requests, 1);
        assert_eq!(stats.bytes_saved, 256);
    }

    #[test]
    fn window_zero_never_fuses() {
        let store = Arc::new(CoalescingStore::with_config(
            blob_store(),
            SchedulerConfig::new().coalesce_only(),
        ));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let store = store.clone();
                s.spawn(move || {
                    store
                        .get_ranges(&[RangeRequest::new("blob", 0, 64)])
                        .unwrap();
                });
            }
        });
        let stats = store.stats();
        assert_eq!(stats.fused_batches, 0);
        assert_eq!(stats.backend_batches, 4);
    }

    #[test]
    fn lone_caller_is_released_by_the_window() {
        let sim = SimulatedCloudStore::new(blob_store(), LatencyModel::gcs_like(), 5);
        let store = CoalescingStore::with_config(
            sim,
            SchedulerConfig::new().with_batch_window(Duration::from_millis(5)),
        );
        // No other caller ever arrives: the leader times out and issues.
        let batch = store
            .get_ranges(&[RangeRequest::new("blob", 0, 64)])
            .unwrap();
        assert_eq!(&batch.parts[0].bytes[..], &expect(0, 64)[..]);
        assert_eq!(store.stats().fused_batches, 0);
        assert_eq!(store.stats().backend_batches, 1);
    }

    #[test]
    fn fused_errors_reach_every_caller() {
        let store = Arc::new(CoalescingStore::with_config(
            blob_store(),
            SchedulerConfig::new()
                .with_max_batch_requests(2)
                .with_batch_window(Duration::from_secs(5)),
        ));
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let errors: Vec<StorageError> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let store = store.clone();
                    let barrier = barrier.clone();
                    s.spawn(move || {
                        barrier.wait();
                        store
                            .get_ranges(&[RangeRequest::new("missing", 0, 8)])
                            .unwrap_err()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for e in &errors {
            assert!(
                matches!(e, StorageError::BlobNotFound { name } if name == "missing"),
                "typed error preserved across the fan-out, got {e:?}"
            );
        }
        // The scheduler recovers: the next batch works.
        let store = Arc::try_unwrap(store).ok().expect("threads joined");
        let batch = store
            .get_ranges(&[
                RangeRequest::new("blob", 0, 8),
                RangeRequest::new("blob", 8, 8),
            ])
            .unwrap();
        assert_eq!(&batch.parts[0].bytes[..], &expect(0, 8)[..]);
    }

    /// Panics on the first `get_ranges`, succeeds afterwards.
    struct PanicOnceStore {
        inner: InMemoryStore,
        panicked: std::sync::atomic::AtomicBool,
    }

    impl crate::StoreLayer for PanicOnceStore {
        type Inner = InMemoryStore;
        fn inner(&self) -> &InMemoryStore {
            &self.inner
        }
        fn get_ranges(&self, requests: &[RangeRequest]) -> Result<BatchFetch> {
            if !self.panicked.swap(true, Ordering::SeqCst) {
                panic!("injected backend panic");
            }
            self.inner.get_ranges(requests)
        }
    }

    #[test]
    fn leader_panic_does_not_strand_followers() {
        let inner = PanicOnceStore {
            inner: blob_store(),
            panicked: std::sync::atomic::AtomicBool::new(false),
        };
        let store = Arc::new(CoalescingStore::with_config(
            inner,
            SchedulerConfig::new()
                .with_max_batch_requests(2)
                .with_batch_window(Duration::from_secs(5)),
        ));
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let outcomes: Vec<bool> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let store = store.clone();
                    let barrier = barrier.clone();
                    s.spawn(move || {
                        barrier.wait();
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            store.get_ranges(&[RangeRequest::new("blob", 0, 8)])
                        }))
                        .is_ok()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // The leader unwound; the follower got an error result instead of
        // hanging on the condvar forever.
        assert_eq!(outcomes.iter().filter(|&&ok| ok).count(), 1);
        // And the scheduler still works for the next caller.
        let batch = store
            .get_ranges(&[RangeRequest::new("blob", 0, 8)])
            .unwrap();
        assert_eq!(&batch.parts[0].bytes[..], &expect(0, 8)[..]);
    }

    #[test]
    fn writes_and_metadata_pass_through() {
        let store = CoalescingStore::new(InMemoryStore::new());
        store.put("x", Bytes::from_static(b"12345")).unwrap();
        assert_eq!(store.size_of("x").unwrap(), 5);
        assert!(store.exists("x"));
        assert_eq!(store.get("x").unwrap().bytes.len(), 5);
        assert_eq!(store.get_range("x", 1, 3).unwrap().bytes.len(), 3);
        assert_eq!(store.list("").unwrap(), vec!["x".to_string()]);
        assert_eq!(store.usage("").unwrap(), 5);
        let v = store.version_of("x").unwrap();
        store
            .put_if_version("x", Bytes::from_static(b"67890"), v)
            .unwrap();
        store.delete("x").unwrap();
        assert!(!store.exists("x"));
    }
}
