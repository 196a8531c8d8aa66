//! I/O scheduler: range coalescing within each storage batch.
//!
//! The paper's batch model (§II-C, `sim.rs`) prices a lookup by its round
//! trips: a batch of concurrent requests costs `max(first_byte_i)` of wait
//! plus a shared-bandwidth download, so *fewer, larger, concurrent* GETs
//! win. The planner already sends one postings batch and at most one
//! documents batch per query — across every segment *and every shard* —
//! and dedups identical ranges within it. [`CoalescingStore`] pushes the
//! remaining merge below every engine: within one
//! [`ObjectStore::get_ranges`] batch, requests to the same blob are
//! sorted and merged whenever they overlap or sit within
//! [`SchedulerConfig::coalesce_gap`] bytes of each other. The merged
//! (fewer, larger) ranges are issued as one backend batch; each caller's
//! exact bytes are sliced back out of the merged payloads, byte-for-byte
//! identical to the uncoalesced fetch.
//!
//! The store holds no state between batches: it never holds a batch open
//! for, or fuses it with, another caller's batch. Fusion comes from the
//! plan instead (ADR 005), so it does not depend on thread timing.
//!
//! ## Simulated-clock semantics
//!
//! A coalesced batch is charged exactly what the backend charged for the
//! merged batch (its wait and download, spikes included). Each part
//! keeps its merged stream's first byte and a byte-proportional share of
//! that stream's whole transfer time, so padding bytes are charged, not
//! vanished.
//!
//! The scheduler sits **below** [`crate::CachedStore`] in the serving
//! stack (`cloud → CoalescingStore → CachedStore → engine`): hits never
//! reach it, and the cache's single-flighted miss batches are exactly the
//! traffic worth coalescing. See `docs/adr/005-io-scheduler.md` for the
//! full stacking argument.

use crate::latency::{LatencySample, SimDuration};
use crate::object_store::{BatchFetch, Fetched, ObjectStore, RangeRequest};
use crate::Result;
use std::sync::atomic::{AtomicU64, Ordering};

/// Tuning knobs for a [`CoalescingStore`].
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Two same-blob ranges whose gap is at most this many bytes are
    /// merged into one read (overlapping/touching ranges always merge).
    /// The padding bytes fetched to bridge a gap trade download for a
    /// whole round trip — cheap under the paper's affine latency model.
    pub coalesce_gap: u64,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig { coalesce_gap: 4096 }
    }
}

impl SchedulerConfig {
    /// The default configuration (4 KiB merge gap).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the merge gap in bytes.
    pub fn with_coalesce_gap(mut self, gap: u64) -> Self {
        self.coalesce_gap = gap;
        self
    }
}

/// Aggregate counters of a [`CoalescingStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedulerStats {
    /// Requests eliminated by merging (submitted minus issued).
    pub merged_ranges: u64,
    /// Backend batches shared by two or more callers. Always 0: the store
    /// never fuses callers' batches (the planner already sends one batch
    /// per phase); kept so existing reports keep their columns.
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
    bytes_saved: AtomicU64,
    bytes_padded: AtomicU64,
    backend_batches: AtomicU64,
}

/// An [`ObjectStore`] decorator that merges the ranged reads of each
/// batch into fewer, larger backend requests. Pure pass-through for
/// writes, listings, and CAS.
pub struct CoalescingStore<S> {
    inner: S,
    config: SchedulerConfig,
    stats: StatCells,
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
            fused_batches: 0,
            bytes_saved: self.stats.bytes_saved.load(Ordering::Relaxed),
            bytes_padded: self.stats.bytes_padded.load(Ordering::Relaxed),
            backend_batches: self.stats.backend_batches.load(Ordering::Relaxed),
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

impl<S: ObjectStore> crate::StoreLayer for CoalescingStore<S> {
    type Inner = S;

    fn inner(&self) -> &S {
        &self.inner
    }

    /// Coalesce `requests`, issue the merged ranges as one backend batch,
    /// record the ledgers, and slice every request's exact bytes back out.
    fn get_ranges(&self, requests: &[RangeRequest]) -> Result<BatchFetch> {
        if requests.is_empty() {
            return Ok(BatchFetch {
                parts: Vec::new(),
                batch_latency: SimDuration::ZERO,
                batch_wait: SimDuration::ZERO,
                batch_download: SimDuration::ZERO,
            });
        }
        let (merged, assignment, union_len) = coalesce(requests, self.config.coalesce_gap);
        let batch = self.inner.get_ranges(&merged)?;
        let requested: u64 = requests.iter().map(|r| r.len).sum();
        let fetched: u64 = merged.iter().map(|m| m.len).sum();
        // Sum of the original request lengths folded into each merged
        // range — the denominator that splits a merged stream's whole
        // transfer time (gap padding included) across its requests.
        let mut requested_per_merged = vec![0u64; merged.len()];
        for (r, &m) in requests.iter().zip(&assignment) {
            requested_per_merged[m] += r.len;
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
        // Each request's exact bytes, charged its merged stream's first
        // byte and a byte-proportional share of the stream's whole
        // transfer (padding bytes are charged, not vanished).
        let parts = requests
            .iter()
            .zip(&assignment)
            .map(|(r, &m)| {
                let part = &batch.parts[m];
                let start = (r.offset - merged[m].offset) as usize;
                let share = if requested_per_merged[m] > 0 {
                    r.len as f64 / requested_per_merged[m] as f64
                } else {
                    0.0
                };
                Fetched {
                    bytes: part.bytes.slice(start..start + r.len as usize),
                    latency: LatencySample {
                        first_byte: part.latency.first_byte,
                        transfer: part.latency.transfer * share,
                    },
                }
            })
            .collect();
        Ok(BatchFetch {
            parts,
            batch_latency: batch.batch_wait + batch.batch_download,
            batch_wait: batch.batch_wait,
            batch_download: batch.batch_download,
        })
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
            SchedulerConfig::new().with_coalesce_gap(64),
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
        // blob[10..180) merged 3 requests into 1; the others stayed.
        assert_eq!(stats.merged_ranges, 2);
    }

    #[test]
    fn backend_sees_fewer_requests_and_duplicate_bytes_once() {
        let inner = blob_store();
        let sim = SimulatedCloudStore::new(inner, LatencyModel::gcs_like(), 3);
        let store = CoalescingStore::with_config(sim, SchedulerConfig::new().with_coalesce_gap(0));
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
            SchedulerConfig::new().with_coalesce_gap(100),
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
        let store = CoalescingStore::new(blob_store());
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
        let store = CoalescingStore::new(sim);
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
