//! Equivalence properties for the coalescing I/O scheduler: for ANY mix
//! of overlapping / adjacent / disjoint ranges, [`CoalescingStore`]
//! returns byte-for-byte the same parts as the bare store, and never
//! issues more backend requests than the uncoalesced path — sequentially
//! and from 8 concurrent threads.

use airphant_storage::{
    CoalescingStore, InMemoryStore, LatencyModel, ObjectStore, RangeRequest, SchedulerConfig,
    SimulatedCloudStore,
};
use bytes::Bytes;
use proptest::prelude::*;
use std::sync::Arc;

/// Clamp raw `(offset, len)` pairs into valid ranges over `data`.
fn clamp_ranges(data: &[u8], ranges: &[(usize, usize)]) -> Vec<RangeRequest> {
    ranges
        .iter()
        .map(|&(offset, len)| {
            let offset = offset.min(data.len());
            let len = len.min(data.len() - offset);
            RangeRequest::new("blob", offset as u64, len as u64)
        })
        .collect()
}

fn fresh_store(data: &[u8], seed: u64) -> SimulatedCloudStore<InMemoryStore> {
    let inner = InMemoryStore::new();
    inner.put("blob", Bytes::from(data.to_vec())).unwrap();
    SimulatedCloudStore::new(inner, LatencyModel::gcs_like(), seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Over the simulated cloud store: identical parts, never more
    /// backend requests, and the batch latency stays max+shared-shaped.
    #[test]
    fn coalesced_equals_uncoalesced_over_cloud(
        data in prop::collection::vec(any::<u8>(), 1..4096),
        ranges in prop::collection::vec((0usize..4096, 0usize..512), 1..16),
        gap in 0u64..256,
        seed in 0u64..1000,
    ) {
        let reqs = clamp_ranges(&data, &ranges);
        let plain = fresh_store(&data, seed);
        let plain_batch = plain.get_ranges(&reqs).unwrap();
        let sched = CoalescingStore::with_config(
            fresh_store(&data, seed),
            SchedulerConfig::new().with_coalesce_gap(gap),
        );
        let batch = sched.get_ranges(&reqs).unwrap();
        prop_assert_eq!(batch.parts.len(), plain_batch.parts.len());
        for (i, (a, b)) in batch.parts.iter().zip(&plain_batch.parts).enumerate() {
            prop_assert_eq!(&a.bytes[..], &b.bytes[..], "part {} bytes differ", i);
        }
        prop_assert!(
            sched.inner().stats().read_requests <= plain.stats().read_requests,
            "coalescing must never add backend requests: {} > {}",
            sched.inner().stats().read_requests,
            plain.stats().read_requests
        );
        let stats = sched.stats();
        prop_assert_eq!(
            stats.merged_ranges,
            plain.stats().read_requests - sched.inner().stats().read_requests
        );
    }

    /// Over the plain in-memory store (zero latency): the same byte
    /// identity, so correctness does not lean on the latency model.
    #[test]
    fn coalesced_equals_uncoalesced_over_memory(
        data in prop::collection::vec(any::<u8>(), 1..2048),
        ranges in prop::collection::vec((0usize..2048, 0usize..256), 1..12),
        gap in 0u64..4096,
    ) {
        let reqs = clamp_ranges(&data, &ranges);
        let inner = InMemoryStore::new();
        inner.put("blob", Bytes::from(data.clone())).unwrap();
        let sched = CoalescingStore::with_config(
            inner,
            SchedulerConfig::new().with_coalesce_gap(gap),
        );
        let batch = sched.get_ranges(&reqs).unwrap();
        for (r, part) in reqs.iter().zip(&batch.parts) {
            let (o, l) = (r.offset as usize, r.len as usize);
            prop_assert_eq!(&part.bytes[..], &data[o..o + l]);
        }
    }

    /// 8 threads with independent random range sets through ONE shared
    /// scheduler: every thread gets byte-identical parts, and the backend
    /// still sees no more requests than the uncoalesced total.
    #[test]
    fn concurrent_coalesced_reads_are_byte_identical(
        data in prop::collection::vec(any::<u8>(), 64..2048),
        per_thread in prop::collection::vec(
            prop::collection::vec((0usize..2048, 0usize..256), 1..6), 8..9),
        seed in 0u64..1000,
    ) {
        let total_requests: usize = per_thread.iter().map(Vec::len).sum();
        let sched = Arc::new(CoalescingStore::with_config(
            fresh_store(&data, seed),
            SchedulerConfig::new().with_coalesce_gap(64),
        ));
        std::thread::scope(|s| {
            for ranges in &per_thread {
                let sched = sched.clone();
                let reqs = clamp_ranges(&data, ranges);
                let data = &data;
                s.spawn(move || {
                    let batch = sched.get_ranges(&reqs).unwrap();
                    for (r, part) in reqs.iter().zip(&batch.parts) {
                        let (o, l) = (r.offset as usize, r.len as usize);
                        assert_eq!(&part.bytes[..], &data[o..o + l]);
                    }
                });
            }
        });
        prop_assert!(
            sched.inner().stats().read_requests <= total_requests as u64,
            "merging must not add requests: {} > {}",
            sched.inner().stats().read_requests,
            total_requests
        );
    }
}
