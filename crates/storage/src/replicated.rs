//! Multi-region replica placement: one [`ObjectStore`] per region, reads
//! routed to the nearest healthy replica, writes fanned out from a fixed
//! primary.
//!
//! The paper's cross-region measurements (Figures 7, 12, 13) show
//! first-byte latency scaling ~3× transatlantic and ~7× transpacific —
//! exactly the spread [`RegionProfile`] models. [`ReplicatedStore`] turns
//! that model into a placement policy:
//!
//! * **Reads** go to the nearest region (smallest `first_byte_mult`).
//!   A transient fault ([`StorageError::Timeout`] / [`StorageError::Io`])
//!   *demotes* the replica for a burst of requests ("skip credits"), so
//!   traffic reroutes to the next-nearest region instead of erroring; once
//!   the credits drain, the next read probes the replica again, which
//!   auto-heals a recovered region without wall-clock timers (the whole
//!   stack runs on a simulated clock).
//! * **Writes** (`put`, `delete`) must succeed on the fixed *primary*
//!   (the nearest region at construction) and are mirrored best-effort to
//!   the other regions; a lagging mirror only costs a rerouted read later
//!   (`BlobNotFound` on a replica falls through to the next region, never
//!   demotes). Conditional writes ([`ObjectStore::put_if_version`]) CAS
//!   **only against the primary** — one linearization point — then mirror
//!   the committed bytes unconditionally.
//!
//! All blobs Airphant serves are immutable once published (manifests are
//! replaced, never edited in place), so any replica's bytes are
//! byte-identical to the primary's — which is what makes cross-region
//! hedged reads ([`ReplicatedStore::hedge_target`]) safe.

use crate::object_store::{BatchFetch, Fetched, ObjectStore, RangeRequest, Version};
use crate::{RegionProfile, Result, StorageError};
use bytes::Bytes;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How many reads route around a faulted replica before it is probed
/// again. With ~100-query test streams this keeps a flaky region cold for
/// a meaningful stretch while still converging quickly after a heal.
const DEMOTION_CREDITS: u64 = 64;

/// One region's replica: its latency profile, its store, and its health.
struct Replica {
    profile: RegionProfile,
    store: Arc<dyn ObjectStore>,
    /// 0 = healthy; otherwise the number of further reads that will skip
    /// this replica before the next probe.
    skip_credits: AtomicU64,
    /// Reads served by this replica.
    reads: AtomicU64,
}

impl Replica {
    fn is_healthy(&self) -> bool {
        self.skip_credits.load(Ordering::SeqCst) == 0
    }
}

/// Read/write routing counters of a [`ReplicatedStore`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReplicationStats {
    /// Reads served per region, in nearness order.
    pub reads_by_region: Vec<(String, u64)>,
    /// Reads served by a region other than the nearest (demotion reroutes
    /// plus `BlobNotFound` fall-throughs on lagging mirrors).
    pub rerouted_reads: u64,
    /// Healthy→demoted transitions (a transient fault tripped a replica).
    pub demotions: u64,
    /// Demoted→healthy transitions (skip credits drained; the replica is
    /// probed again and back in rotation).
    pub recoveries: u64,
    /// Best-effort mirror writes that failed (the primary write still
    /// succeeded; the mirror serves the blob after its next successful
    /// write or a read falls through past it).
    pub mirror_failures: u64,
}

/// An [`ObjectStore`] that places one replica of every blob in each of a
/// set of simulated regions. See the module docs for the routing policy.
pub struct ReplicatedStore {
    /// Sorted by `first_byte_mult` ascending; `replicas[0]` is the
    /// primary (writes) and the preferred read target.
    replicas: Vec<Replica>,
    rerouted_reads: AtomicU64,
    demotions: AtomicU64,
    recoveries: AtomicU64,
    mirror_failures: AtomicU64,
}

impl ReplicatedStore {
    /// Build from `(region, store)` pairs. Replicas are ordered by the
    /// region's `first_byte_mult` (nearest first); the nearest region is
    /// the primary. Panics if `regions` is empty.
    pub fn new(regions: Vec<(RegionProfile, Arc<dyn ObjectStore>)>) -> Self {
        assert!(!regions.is_empty(), "ReplicatedStore needs >= 1 region");
        let mut regions = regions;
        regions.sort_by(|a, b| {
            a.0.first_byte_mult
                .partial_cmp(&b.0.first_byte_mult)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.name.cmp(&b.0.name))
        });
        ReplicatedStore {
            replicas: regions
                .into_iter()
                .map(|(profile, store)| Replica {
                    profile,
                    store,
                    skip_credits: AtomicU64::new(0),
                    reads: AtomicU64::new(0),
                })
                .collect(),
            rerouted_reads: AtomicU64::new(0),
            demotions: AtomicU64::new(0),
            recoveries: AtomicU64::new(0),
            mirror_failures: AtomicU64::new(0),
        }
    }

    /// Region names in nearness order (primary first).
    pub fn regions(&self) -> Vec<String> {
        self.replicas
            .iter()
            .map(|r| r.profile.name.clone())
            .collect()
    }

    /// The primary region's name.
    pub fn primary_region(&self) -> &str {
        &self.replicas[0].profile.name
    }

    /// Whether the named region is currently demoted (routed around).
    pub fn is_demoted(&self, region: &str) -> bool {
        self.replicas
            .iter()
            .any(|r| r.profile.name == region && !r.is_healthy())
    }

    /// Routing counters snapshot.
    pub fn stats(&self) -> ReplicationStats {
        ReplicationStats {
            reads_by_region: self
                .replicas
                .iter()
                .map(|r| (r.profile.name.clone(), r.reads.load(Ordering::Relaxed)))
                .collect(),
            rerouted_reads: self.rerouted_reads.load(Ordering::Relaxed),
            demotions: self.demotions.load(Ordering::Relaxed),
            recoveries: self.recoveries.load(Ordering::Relaxed),
            mirror_failures: self.mirror_failures.load(Ordering::Relaxed),
        }
    }

    /// The next-nearest *healthy* region after the current preferred read
    /// target — where a region-aware hedge re-dispatches a slow batch.
    /// `None` when fewer than two regions are healthy (hedging against a
    /// known-flaky replica would burn budget on likely failures).
    pub fn hedge_target(&self) -> Option<(String, Arc<dyn ObjectStore>)> {
        let mut healthy = self.replicas.iter().filter(|r| r.is_healthy());
        let _nearest = healthy.next()?;
        let second = healthy.next()?;
        Some((second.profile.name.clone(), second.store.clone()))
    }

    /// Consume one skip credit of a demoted replica; counts the recovery
    /// when the credits drain to zero.
    fn consume_credit(&self, replica: &Replica) {
        let prev = replica
            .skip_credits
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |c| c.checked_sub(1))
            .unwrap_or(0);
        if prev == 1 {
            self.recoveries.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Demote a replica after a transient fault (idempotent under races:
    /// only the healthy→demoted edge counts).
    fn demote(&self, replica: &Replica) {
        let was = replica
            .skip_credits
            .swap(DEMOTION_CREDITS, Ordering::SeqCst);
        if was == 0 {
            self.demotions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Run a read against the nearest healthy replica, failing over on
    /// transient faults (which demote) and missing blobs (which do not).
    fn route_read<T>(&self, op: impl Fn(&Arc<dyn ObjectStore>) -> Result<T>) -> Result<T> {
        // Healthy replicas in nearness order, then demoted ones as a last
        // resort (an all-regions outage should still try, not give up).
        let mut order: Vec<usize> = Vec::with_capacity(self.replicas.len());
        let mut demoted: Vec<usize> = Vec::new();
        for (i, r) in self.replicas.iter().enumerate() {
            if r.is_healthy() {
                order.push(i);
            } else {
                self.consume_credit(r);
                demoted.push(i);
            }
        }
        order.extend(demoted);

        let mut last_err = None;
        for &i in &order {
            let replica = &self.replicas[i];
            match op(&replica.store) {
                Ok(v) => {
                    replica.reads.fetch_add(1, Ordering::Relaxed);
                    if i != 0 {
                        self.rerouted_reads.fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok(v);
                }
                Err(e @ (StorageError::Timeout { .. } | StorageError::Io(_))) => {
                    self.demote(replica);
                    last_err = Some(e);
                }
                Err(e @ StorageError::BlobNotFound { .. }) => {
                    // A lagging mirror, not a region fault: fall through.
                    last_err = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last_err.expect("order is never empty"))
    }

    /// Mirror a committed primary write to the other regions, best-effort.
    fn mirror_put(&self, name: &str, data: &Bytes) {
        for replica in &self.replicas[1..] {
            if replica.store.put(name, data.clone()).is_err() {
                self.mirror_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

impl ObjectStore for ReplicatedStore {
    fn put(&self, name: &str, data: Bytes) -> Result<()> {
        self.replicas[0].store.put(name, data.clone())?;
        self.mirror_put(name, &data);
        Ok(())
    }

    fn get(&self, name: &str) -> Result<Fetched> {
        self.route_read(|s| s.get(name))
    }

    fn get_range(&self, name: &str, offset: u64, len: u64) -> Result<Fetched> {
        self.route_read(|s| s.get_range(name, offset, len))
    }

    fn get_ranges(&self, requests: &[RangeRequest]) -> Result<BatchFetch> {
        self.route_read(|s| s.get_ranges(requests))
    }

    fn version_of(&self, name: &str) -> Result<Version> {
        // Version tokens feed CAS decisions, so they must come from the
        // linearization point — the primary — never a lagging mirror.
        self.replicas[0].store.version_of(name)
    }

    fn put_if_version(&self, name: &str, data: Bytes, expected: Version) -> Result<Version> {
        let next = self.replicas[0]
            .store
            .put_if_version(name, data.clone(), expected)?;
        self.mirror_put(name, &data);
        Ok(next)
    }

    fn size_of(&self, name: &str) -> Result<u64> {
        self.route_read(|s| s.size_of(name))
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        self.replicas[0].store.list(prefix)
    }

    fn delete(&self, name: &str) -> Result<()> {
        self.replicas[0].store.delete(name)?;
        for replica in &self.replicas[1..] {
            if replica.store.delete(name).is_err() {
                self.mirror_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    fn usage(&self, prefix: &str) -> Result<u64> {
        self.replicas[0].store.usage(prefix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlakyStore, InMemoryStore, LatencyModel, SimulatedCloudStore};

    /// Three regions over one shared backing store (replicas of the same
    /// immutable bytes), each behind its own flaky wrapper so a region
    /// can be taken down independently.
    fn three_regions() -> (ReplicatedStore, Vec<Arc<FlakyStore<Arc<InMemoryStore>>>>) {
        let backing = Arc::new(InMemoryStore::new());
        backing.put("blob", Bytes::from(vec![7u8; 4096])).unwrap();
        let mut flakies = Vec::new();
        let mut regions: Vec<(RegionProfile, Arc<dyn ObjectStore>)> = Vec::new();
        for (i, profile) in RegionProfile::paper_spread().into_iter().enumerate() {
            let flaky = Arc::new(FlakyStore::new(backing.clone(), 0.0, i as u64 + 1));
            flakies.push(flaky.clone());
            regions.push((profile, flaky as Arc<dyn ObjectStore>));
        }
        (ReplicatedStore::new(regions), flakies)
    }

    #[test]
    fn reads_prefer_the_nearest_region() {
        let (store, _) = three_regions();
        assert_eq!(store.primary_region(), "us-central1-c");
        for _ in 0..10 {
            store.get_range("blob", 0, 64).unwrap();
        }
        let stats = store.stats();
        assert_eq!(stats.reads_by_region[0].1, 10);
        assert_eq!(stats.reads_by_region[1].1, 0);
        assert_eq!(stats.reads_by_region[2].1, 0);
        assert_eq!(stats.rerouted_reads, 0);
    }

    #[test]
    fn nearness_ordering_ignores_construction_order() {
        let backing = Arc::new(InMemoryStore::new());
        let store = ReplicatedStore::new(vec![
            (
                RegionProfile::singapore(),
                backing.clone() as Arc<dyn ObjectStore>,
            ),
            (
                RegionProfile::same_region(),
                backing.clone() as Arc<dyn ObjectStore>,
            ),
            (RegionProfile::london(), backing as Arc<dyn ObjectStore>),
        ]);
        assert_eq!(
            store.regions(),
            vec!["us-central1-c", "europe-west2-c", "asia-southeast1-b"]
        );
    }

    #[test]
    fn transient_fault_demotes_and_reroutes_until_probe_heals() {
        let (store, flakies) = three_regions();
        flakies[0].set_failure_probability(1.0);
        // First read faults on the primary, demotes it, serves from the
        // next region — no error surfaces.
        let f = store.get_range("blob", 0, 64).unwrap();
        assert_eq!(f.bytes.len(), 64);
        assert!(store.is_demoted("us-central1-c"));
        let stats = store.stats();
        assert_eq!(stats.demotions, 1);
        assert_eq!(stats.rerouted_reads, 1);
        // While demoted, reads skip the primary without touching it.
        let injected_before = flakies[0].injected_failures();
        for _ in 0..10 {
            store.get_range("blob", 0, 64).unwrap();
        }
        assert_eq!(flakies[0].injected_failures(), injected_before);
        // Heal the region; drain the credits; traffic converges home.
        flakies[0].set_failure_probability(0.0);
        for _ in 0..(DEMOTION_CREDITS + 8) {
            store.get_range("blob", 0, 64).unwrap();
        }
        assert!(!store.is_demoted("us-central1-c"));
        let stats = store.stats();
        assert_eq!(stats.recoveries, 1);
        let home_reads = stats.reads_by_region[0].1;
        assert!(home_reads > 0, "healed primary serves again");
    }

    #[test]
    fn all_regions_down_still_surfaces_a_typed_error() {
        let (store, flakies) = three_regions();
        for f in &flakies {
            f.set_failure_probability(1.0);
        }
        match store.get_range("blob", 0, 64) {
            Err(StorageError::Timeout { .. }) => {}
            other => panic!("expected Timeout, got {other:?}"),
        }
        // Every region took the fault and was demoted.
        assert_eq!(store.stats().demotions, 3);
    }

    #[test]
    fn missing_blob_falls_through_without_demoting() {
        let backing_near = Arc::new(InMemoryStore::new());
        let backing_far = Arc::new(InMemoryStore::new());
        backing_far
            .put("only-far", Bytes::from_static(b"x"))
            .unwrap();
        let store = ReplicatedStore::new(vec![
            (
                RegionProfile::same_region(),
                backing_near as Arc<dyn ObjectStore>,
            ),
            (RegionProfile::london(), backing_far as Arc<dyn ObjectStore>),
        ]);
        let f = store.get("only-far").unwrap();
        assert_eq!(&f.bytes[..], b"x");
        let stats = store.stats();
        assert_eq!(stats.demotions, 0, "lag is not a fault");
        assert_eq!(stats.rerouted_reads, 1);
        // Missing everywhere stays BlobNotFound.
        assert!(matches!(
            store.get("nowhere"),
            Err(StorageError::BlobNotFound { .. })
        ));
    }

    #[test]
    fn writes_fan_out_and_cas_hits_only_the_primary() {
        let near = Arc::new(InMemoryStore::new());
        let far = Arc::new(InMemoryStore::new());
        let store = ReplicatedStore::new(vec![
            (
                RegionProfile::same_region(),
                near.clone() as Arc<dyn ObjectStore>,
            ),
            (RegionProfile::london(), far.clone() as Arc<dyn ObjectStore>),
        ]);
        store.put("m", Bytes::from_static(b"gen1")).unwrap();
        assert!(near.exists("m") && far.exists("m"));
        // Make the far mirror stale; CAS must consult only the primary.
        far.put("m", Bytes::from_static(b"divergent")).unwrap();
        let v = store.version_of("m").unwrap();
        assert_eq!(v, Version::of_bytes(b"gen1"));
        store
            .put_if_version("m", Bytes::from_static(b"gen2"), v)
            .unwrap();
        // The committed bytes were mirrored over the divergence.
        assert_eq!(&near.get("m").unwrap().bytes[..], b"gen2");
        assert_eq!(&far.get("m").unwrap().bytes[..], b"gen2");
        // A stale CAS loses against the primary, not the mirror.
        assert!(matches!(
            store.put_if_version("m", Bytes::from_static(b"gen3"), v),
            Err(StorageError::VersionMismatch { .. })
        ));
    }

    #[test]
    fn mirror_write_failures_are_counted_not_fatal() {
        let near = Arc::new(InMemoryStore::new());
        let far = Arc::new(FlakyStore::new(InMemoryStore::new(), 0.0, 9));
        far.fail_puts_after(0);
        let store = ReplicatedStore::new(vec![
            (
                RegionProfile::same_region(),
                near.clone() as Arc<dyn ObjectStore>,
            ),
            (RegionProfile::london(), far as Arc<dyn ObjectStore>),
        ]);
        store.put("m", Bytes::from_static(b"gen1")).unwrap();
        assert!(near.exists("m"));
        assert_eq!(store.stats().mirror_failures, 1);
    }

    #[test]
    fn hedge_target_is_next_nearest_healthy() {
        let (store, flakies) = three_regions();
        let (region, _) = store.hedge_target().unwrap();
        assert_eq!(region, "europe-west2-c");
        // Demote the primary: reads prefer London, hedges go to Singapore.
        flakies[0].set_failure_probability(1.0);
        store.get_range("blob", 0, 64).unwrap();
        assert!(store.is_demoted("us-central1-c"));
        let (region, _) = store.hedge_target().unwrap();
        assert_eq!(region, "asia-southeast1-b");
        // Take London down too: the next read trips it, leaving a single
        // healthy region — nothing left to hedge to.
        flakies[1].set_failure_probability(1.0);
        store.get_range("blob", 0, 64).unwrap();
        assert!(store.is_demoted("europe-west2-c"));
        assert!(store.hedge_target().is_none());
    }

    #[test]
    fn batched_reads_route_and_failover_like_single_reads() {
        let (store, flakies) = three_regions();
        flakies[0].set_failure_probability(1.0);
        let reqs = vec![
            RangeRequest::superpost("blob", 0, 64),
            RangeRequest::new("blob", 64, 64),
        ];
        let b = store.get_ranges(&reqs).unwrap();
        assert_eq!(b.parts.len(), 2);
        assert_eq!(b.total_bytes(), 128);
        assert!(store.is_demoted("us-central1-c"));
    }

    #[test]
    fn concurrent_outage_never_errors_and_counters_stay_sane() {
        let backing = Arc::new(InMemoryStore::new());
        backing.put("blob", Bytes::from(vec![3u8; 4096])).unwrap();
        let mut flakies = Vec::new();
        let mut regions: Vec<(RegionProfile, Arc<dyn ObjectStore>)> = Vec::new();
        for (i, profile) in RegionProfile::paper_spread().into_iter().enumerate() {
            let sim = SimulatedCloudStore::new(
                backing.clone(),
                LatencyModel::gcs_like().with_region(profile.clone()),
                100 + i as u64,
            );
            let flaky = Arc::new(FlakyStore::new(sim, 0.0, 200 + i as u64));
            flakies.push(flaky.clone());
            regions.push((profile, flaky as Arc<dyn ObjectStore>));
        }
        let store = Arc::new(ReplicatedStore::new(regions));
        flakies[0].set_failure_probability(1.0);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let store = store.clone();
                s.spawn(move || {
                    for i in 0..100u64 {
                        let offset = ((t * 100 + i) * 13) % 4032;
                        let f = store.get_range("blob", offset, 64).unwrap();
                        assert_eq!(f.bytes.len(), 64);
                    }
                });
            }
        });
        let stats = store.stats();
        assert!(stats.demotions >= 1);
        let total: u64 = stats.reads_by_region.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 800, "every read served exactly once");
        assert!(stats.reads_by_region[1].1 > 0, "rerouted to next-nearest");
    }
}
