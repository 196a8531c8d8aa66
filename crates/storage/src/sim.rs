//! [`SimulatedCloudStore`]: a latency-simulating wrapper around any backend.
//!
//! This is the substitution for GCP Cloud Storage (see EXPERIMENTS.md): the
//! inner store supplies the bytes, the [`LatencyModel`] supplies the
//! simulated network cost. Every read samples a latency; batched reads use
//! the shared-bandwidth contention model. Aggregate I/O statistics are
//! tracked so experiments can report request counts, bytes moved, and the
//! wait/download split.

use crate::latency::{seeded_rng, LatencyModel, SimDuration};
use crate::object_store::{BatchFetch, Fetched, ObjectStore, RangeRequest, Version};
use crate::Result;
use bytes::Bytes;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use std::sync::atomic::{AtomicU64, Ordering};

/// A deterministic tail-latency spike injector: every `every`-th
/// dispatched read (batch or single get) has its time-to-first-byte
/// multiplied by `multiplier`.
///
/// This models the occasional straggling cloud request (overloaded
/// backend shard, connection re-establishment) that hedged reads are
/// designed to cut. Being counter-based rather than sampled, the set of
/// spiked requests is a pure function of dispatch order — benches and
/// tests get the *same* stragglers on every run without rolling their
/// own latency hacks.
///
/// `SpikeProfile::new(100, 10.0)` gives the canonical "p99 ≈ 10× the
/// median" profile: 1 in 100 requests pays 10× its sampled first byte.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpikeProfile {
    /// Spike every `every`-th dispatch (must be ≥ 1).
    pub every: u64,
    /// First-byte multiplier applied to spiked dispatches.
    pub multiplier: f64,
    /// Phase offset: dispatch indices `i` with `i % every == offset`
    /// spike. Defaults to `every - 1` so short runs still hit one.
    pub offset: u64,
}

impl SpikeProfile {
    /// Spike every `every`-th dispatch by `multiplier`.
    pub fn new(every: u64, multiplier: f64) -> Self {
        let every = every.max(1);
        SpikeProfile {
            every,
            multiplier,
            offset: every - 1,
        }
    }

    /// Change the phase offset (wrapped into `0..every`).
    pub fn with_offset(mut self, offset: u64) -> Self {
        self.offset = offset % self.every;
        self
    }

    fn is_spiked(&self, dispatch_index: u64) -> bool {
        dispatch_index % self.every == self.offset
    }
}

/// Snapshot of the I/O counters of a [`SimulatedCloudStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoStatsSnapshot {
    /// Number of read requests issued (each range in a batch counts once).
    pub read_requests: u64,
    /// Number of concurrent batches issued.
    pub batches: u64,
    /// Total bytes fetched.
    pub bytes_read: u64,
    /// Sum of simulated wait (time-to-first-byte) across *batches*.
    pub sim_wait_nanos: u64,
    /// Sum of simulated download (transfer) across *batches*.
    pub sim_download_nanos: u64,
    /// Dispatches whose first byte was stretched by the
    /// [`SpikeProfile`] (0 when no profile is attached).
    pub spiked: u64,
}

impl IoStatsSnapshot {
    /// Total simulated time spent in storage I/O.
    pub fn sim_total(&self) -> SimDuration {
        SimDuration::from_nanos(self.sim_wait_nanos + self.sim_download_nanos)
    }
}

#[derive(Debug, Default)]
struct IoStats {
    read_requests: AtomicU64,
    batches: AtomicU64,
    bytes_read: AtomicU64,
    sim_wait_nanos: AtomicU64,
    sim_download_nanos: AtomicU64,
    spiked: AtomicU64,
}

impl IoStats {
    fn snapshot(&self) -> IoStatsSnapshot {
        IoStatsSnapshot {
            read_requests: self.read_requests.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            sim_wait_nanos: self.sim_wait_nanos.load(Ordering::Relaxed),
            sim_download_nanos: self.sim_download_nanos.load(Ordering::Relaxed),
            spiked: self.spiked.load(Ordering::Relaxed),
        }
    }
}

/// An [`ObjectStore`] decorator that attaches simulated cloud latencies.
///
/// Writes pass through without simulation (the paper benchmarks querying;
/// index *builds* run on a beefy VM and are not latency-measured).
pub struct SimulatedCloudStore<S> {
    inner: S,
    model: LatencyModel,
    rng: Mutex<StdRng>,
    stats: IoStats,
    real_sleep: bool,
    spikes: Option<SpikeProfile>,
    /// Monotone dispatch counter driving the (deterministic) spike phase.
    dispatches: AtomicU64,
}

impl<S: ObjectStore> SimulatedCloudStore<S> {
    /// Wrap `inner` with the given latency model, seeding the jitter RNG.
    pub fn new(inner: S, model: LatencyModel, seed: u64) -> Self {
        SimulatedCloudStore {
            inner,
            model,
            rng: Mutex::new(seeded_rng(seed)),
            stats: IoStats::default(),
            real_sleep: false,
            spikes: None,
            dispatches: AtomicU64::new(0),
        }
    }

    /// Enable wall-clock sleeping for each simulated latency (demo mode).
    pub fn with_real_sleep(mut self) -> Self {
        self.real_sleep = true;
        self
    }

    /// Attach a deterministic straggler profile: every `profile.every`-th
    /// dispatch pays `profile.multiplier`× its sampled first byte.
    pub fn with_spikes(mut self, profile: SpikeProfile) -> Self {
        self.spikes = Some(profile);
        self
    }

    /// The attached spike profile, if any.
    pub fn spike_profile(&self) -> Option<SpikeProfile> {
        self.spikes
    }

    /// Stretch `first_byte` if this dispatch lands on a spike slot.
    fn apply_spike(&self, first_byte: SimDuration) -> SimDuration {
        let Some(profile) = self.spikes else {
            return first_byte;
        };
        let idx = self.dispatches.fetch_add(1, Ordering::Relaxed);
        if profile.is_spiked(idx) {
            self.stats.spiked.fetch_add(1, Ordering::Relaxed);
            first_byte * profile.multiplier
        } else {
            first_byte
        }
    }

    /// The latency model in use.
    pub fn model(&self) -> &LatencyModel {
        &self.model
    }

    /// A reference to the wrapped backend (e.g. to build without latency).
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Snapshot the I/O counters.
    pub fn stats(&self) -> IoStatsSnapshot {
        self.stats.snapshot()
    }

    /// Reset the I/O counters to zero.
    pub fn reset_stats(&self) {
        self.stats.read_requests.store(0, Ordering::Relaxed);
        self.stats.batches.store(0, Ordering::Relaxed);
        self.stats.bytes_read.store(0, Ordering::Relaxed);
        self.stats.sim_wait_nanos.store(0, Ordering::Relaxed);
        self.stats.sim_download_nanos.store(0, Ordering::Relaxed);
        // The dispatch counter is *not* reset: the spike phase stays a
        // pure function of dispatch order across the store's lifetime.
        self.stats.spiked.store(0, Ordering::Relaxed);
    }

    fn record_batch(&self, requests: u64, bytes: u64, wait: SimDuration, download: SimDuration) {
        self.stats
            .read_requests
            .fetch_add(requests, Ordering::Relaxed);
        self.stats.batches.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes_read.fetch_add(bytes, Ordering::Relaxed);
        self.stats
            .sim_wait_nanos
            .fetch_add(wait.as_nanos(), Ordering::Relaxed);
        self.stats
            .sim_download_nanos
            .fetch_add(download.as_nanos(), Ordering::Relaxed);
        if self.real_sleep {
            std::thread::sleep((wait + download).to_std());
        }
    }

    fn simulate_single(&self, bytes: u64) -> (SimDuration, SimDuration) {
        let sample = {
            let mut rng = self.rng.lock();
            self.model.sample(bytes, &mut rng)
        };
        (self.apply_spike(sample.first_byte), sample.transfer)
    }
}

impl<S: ObjectStore> ObjectStore for SimulatedCloudStore<S> {
    fn put(&self, name: &str, data: Bytes) -> Result<()> {
        self.inner.put(name, data)
    }

    fn get(&self, name: &str) -> Result<Fetched> {
        let fetched = self.inner.get(name)?;
        let (fb, tx) = self.simulate_single(fetched.bytes.len() as u64);
        self.record_batch(1, fetched.bytes.len() as u64, fb, tx);
        Ok(Fetched {
            bytes: fetched.bytes,
            latency: crate::latency::LatencySample {
                first_byte: fb,
                transfer: tx,
            },
        })
    }

    fn get_range(&self, name: &str, offset: u64, len: u64) -> Result<Fetched> {
        let fetched = self.inner.get_range(name, offset, len)?;
        let (fb, tx) = self.simulate_single(fetched.bytes.len() as u64);
        self.record_batch(1, fetched.bytes.len() as u64, fb, tx);
        Ok(Fetched {
            bytes: fetched.bytes,
            latency: crate::latency::LatencySample {
                first_byte: fb,
                transfer: tx,
            },
        })
    }

    /// The calibrated concurrent-batch model (§II-C / Fig 10c):
    ///
    /// * all requests are dispatched at once, so round-trip waits overlap —
    ///   the batch's wait is `max(first_byte_i)`;
    /// * transfers share the link — the batch's download time is
    ///   `total_bytes / bandwidth` plus a per-stream dispatch overhead
    ///   (this is the bandwidth contention that makes L=16 lookups slower
    ///   than L=2 in Figure 10c, while still ≪ 16× the L=1 latency).
    fn get_ranges(&self, requests: &[RangeRequest]) -> Result<BatchFetch> {
        if requests.is_empty() {
            return Ok(BatchFetch {
                parts: Vec::new(),
                batch_latency: SimDuration::ZERO,
                batch_wait: SimDuration::ZERO,
                batch_download: SimDuration::ZERO,
            });
        }
        let mut parts = Vec::with_capacity(requests.len());
        let mut max_fb = SimDuration::ZERO;
        let mut total_bytes = 0u64;
        for r in requests {
            let fetched = self.inner.get_range(&r.name, r.offset, r.len)?;
            let fb = {
                let mut rng = self.rng.lock();
                self.model.sample_first_byte(&mut rng)
            };
            max_fb = max_fb.max(fb);
            total_bytes += fetched.bytes.len() as u64;
            parts.push(Fetched {
                bytes: fetched.bytes,
                latency: crate::latency::LatencySample {
                    first_byte: fb,
                    transfer: SimDuration::ZERO, // filled below proportionally
                },
            });
        }
        // A batch is one dispatch to the cloud: a straggling batch is one
        // whose slowest stream straggles, so the spike applies to the
        // batch-level wait.
        max_fb = self.apply_spike(max_fb);
        let download = self
            .model
            .contended_transfer_time(total_bytes, requests.len());
        // Attribute transfer time to parts proportionally to size, for
        // per-request introspection; the batch totals are authoritative.
        if total_bytes > 0 {
            for p in &mut parts {
                let share = p.bytes.len() as f64 / total_bytes as f64;
                p.latency.transfer = download * share;
            }
        }
        self.record_batch(requests.len() as u64, total_bytes, max_fb, download);
        Ok(BatchFetch {
            parts,
            batch_latency: max_fb + download,
            batch_wait: max_fb,
            batch_download: download,
        })
    }

    // Conditional writes pass through unsimulated, like `put`: the
    // latency model measures the query path, and the inner store keeps
    // the atomicity.
    fn version_of(&self, name: &str) -> Result<Version> {
        self.inner.version_of(name)
    }

    fn put_if_version(&self, name: &str, data: Bytes, expected: Version) -> Result<Version> {
        self.inner.put_if_version(name, data, expected)
    }

    fn size_of(&self, name: &str) -> Result<u64> {
        self.inner.size_of(name)
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        self.inner.list(prefix)
    }

    fn delete(&self, name: &str) -> Result<()> {
        self.inner.delete(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InMemoryStore, LatencyModel};

    fn store_with(model: LatencyModel) -> SimulatedCloudStore<InMemoryStore> {
        let inner = InMemoryStore::new();
        inner.put("blob", Bytes::from(vec![7u8; 1 << 20])).unwrap();
        SimulatedCloudStore::new(inner, model, 1234)
    }

    #[test]
    fn single_get_records_latency_and_stats() {
        let store = store_with(LatencyModel::gcs_like());
        let f = store.get_range("blob", 0, 1024).unwrap();
        assert_eq!(f.bytes.len(), 1024);
        assert!(f.latency.first_byte.as_millis_f64() > 5.0);
        let stats = store.stats();
        assert_eq!(stats.read_requests, 1);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.bytes_read, 1024);
        assert!(stats.sim_wait_nanos > 0);
    }

    #[test]
    fn batch_wait_is_max_not_sum() {
        let store = store_with(LatencyModel::gcs_like());
        let reqs: Vec<_> = (0..8)
            .map(|i| RangeRequest::new("blob", i * 1024, 1024))
            .collect();
        let batch = store.get_ranges(&reqs).unwrap();
        // With 8 concurrent ~45ms round-trips, the batch wait must be far
        // below the 8 * 45ms a sequential scheme would pay.
        assert!(batch.batch_wait.as_millis_f64() < 4.0 * 45.0);
        assert!(batch.batch_wait.as_millis_f64() > 10.0);
        // Sequential equivalent for comparison: issue one-by-one.
        store.reset_stats();
        let mut seq_wait = SimDuration::ZERO;
        for r in &reqs {
            let f = store.get_range(&r.name, r.offset, r.len).unwrap();
            seq_wait += f.latency.first_byte;
        }
        assert!(
            seq_wait > batch.batch_wait,
            "sequential {seq_wait} should exceed batched {}",
            batch.batch_wait
        );
    }

    #[test]
    fn batch_download_shares_bandwidth() {
        let store = store_with(LatencyModel::gcs_like());
        let reqs: Vec<_> = (0..4)
            .map(|i| RangeRequest::new("blob", i * 262_144, 262_144))
            .collect();
        let batch = store.get_ranges(&reqs).unwrap();
        let single = store.model().transfer_time(262_144);
        // Total download ≈ 4x a single transfer (shared link), not 1x.
        assert!(batch.batch_download.as_secs_f64() > 3.0 * single.as_secs_f64());
        assert_eq!(batch.total_bytes(), 4 * 262_144);
    }

    #[test]
    fn empty_batch_is_free() {
        let store = store_with(LatencyModel::gcs_like());
        let batch = store.get_ranges(&[]).unwrap();
        assert_eq!(batch.batch_latency, SimDuration::ZERO);
        assert_eq!(store.stats().batches, 0);
    }

    #[test]
    fn per_part_transfer_attribution_sums_to_batch() {
        let store = store_with(LatencyModel::gcs_like());
        let reqs = vec![
            RangeRequest::new("blob", 0, 100_000),
            RangeRequest::new("blob", 100_000, 300_000),
        ];
        let batch = store.get_ranges(&reqs).unwrap();
        let parts_sum: f64 = batch
            .parts
            .iter()
            .map(|p| p.latency.transfer.as_secs_f64())
            .sum();
        assert!((parts_sum - batch.batch_download.as_secs_f64()).abs() < 1e-3);
        // Larger part gets the larger share.
        assert!(batch.parts[1].latency.transfer > batch.parts[0].latency.transfer);
    }

    #[test]
    fn instantaneous_model_passes_through() {
        let store = store_with(LatencyModel::instantaneous());
        let f = store.get_range("blob", 0, 2048).unwrap();
        assert_eq!(f.latency.total(), SimDuration::ZERO);
    }

    #[test]
    fn determinism_under_seed() {
        let run = || {
            let inner = InMemoryStore::new();
            inner.put("b", Bytes::from(vec![1u8; 4096])).unwrap();
            let store = SimulatedCloudStore::new(inner, LatencyModel::gcs_like(), 77);
            let mut lat = Vec::new();
            for _ in 0..5 {
                lat.push(store.get_range("b", 0, 4096).unwrap().latency);
            }
            lat
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn stats_reset() {
        let store = store_with(LatencyModel::gcs_like());
        store.get("blob").unwrap();
        assert!(store.stats().read_requests > 0);
        store.reset_stats();
        assert_eq!(store.stats(), IoStatsSnapshot::default());
    }

    #[test]
    fn writes_are_not_latency_charged() {
        let store = store_with(LatencyModel::gcs_like());
        store.put("new", Bytes::from_static(b"data")).unwrap();
        assert_eq!(store.stats().read_requests, 0);
    }

    #[test]
    fn spike_profile_hits_every_nth_dispatch() {
        let store = store_with(LatencyModel::gcs_like()).with_spikes(SpikeProfile::new(5, 10.0));
        let mut waits = Vec::new();
        for _ in 0..20 {
            let reqs = vec![RangeRequest::new("blob", 0, 1024)];
            waits.push(store.get_ranges(&reqs).unwrap().batch_wait);
        }
        assert_eq!(store.stats().spiked, 4, "20 dispatches / every 5");
        // The spiked batches are exactly indices 4, 9, 14, 19 and they
        // dwarf their unspiked neighbors.
        for (i, w) in waits.iter().enumerate() {
            let spiked = i % 5 == 4;
            let neighbor = waits[if spiked { i - 1 } else { i / 5 * 5 + 4 }];
            if spiked {
                assert!(*w > neighbor * 3.0, "batch {i} should straggle vs neighbor");
            }
        }
    }

    #[test]
    fn spike_profile_is_deterministic_under_seed() {
        let run = || {
            let inner = InMemoryStore::new();
            inner.put("b", Bytes::from(vec![1u8; 4096])).unwrap();
            let store = SimulatedCloudStore::new(inner, LatencyModel::gcs_like(), 77)
                .with_spikes(SpikeProfile::new(3, 8.0));
            (0..9)
                .map(|_| store.get_range("b", 0, 4096).unwrap().latency)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn spike_profile_shapes_the_tail() {
        // The canonical profile: 1-in-100 dispatches at 10× first byte
        // must push p99 to roughly an order of magnitude over the median.
        let store = store_with(LatencyModel::gcs_like()).with_spikes(SpikeProfile::new(100, 10.0));
        let mut waits: Vec<f64> = (0..300)
            .map(|_| {
                store
                    .get_ranges(&[RangeRequest::new("blob", 0, 1024)])
                    .unwrap()
                    .batch_wait
                    .as_millis_f64()
            })
            .collect();
        assert_eq!(store.stats().spiked, 3);
        waits.sort_by(f64::total_cmp);
        let median = waits[waits.len() / 2];
        let p99 = waits[(waits.len() as f64 * 0.99) as usize];
        assert!(
            p99 > 5.0 * median,
            "p99 {p99:.1}ms should be ≫ median {median:.1}ms"
        );
    }

    #[test]
    fn spike_offset_wraps_and_singles_count() {
        let profile = SpikeProfile::new(4, 6.0).with_offset(9);
        assert_eq!(profile.offset, 1);
        let store = store_with(LatencyModel::gcs_like()).with_spikes(profile);
        for _ in 0..8 {
            store.get_range("blob", 0, 512).unwrap();
        }
        assert_eq!(store.stats().spiked, 2, "indices 1 and 5 spike");
        assert_eq!(store.spike_profile(), Some(profile));
    }

    #[test]
    fn no_profile_means_no_spikes() {
        let store = store_with(LatencyModel::gcs_like());
        store.get("blob").unwrap();
        assert_eq!(store.stats().spiked, 0);
        assert_eq!(store.spike_profile(), None);
    }
}
