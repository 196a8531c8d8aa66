//! Failure injection and retries.
//!
//! Cloud object stores fail transiently (throttling, connection resets,
//! §IV-G's "dormant storage or network congestion"). [`FlakyStore`] injects
//! seeded transient failures for testing; [`RetryingStore`] wraps any store
//! with bounded retries plus simulated backoff latency, so engines built on
//! it survive the injected faults — the failure-injection half of the
//! reliability story (§IV-G handles the *slow*-response half).

use crate::latency::SimDuration;
use crate::object_store::{BatchFetch, Fetched, ObjectStore, RangeRequest, Version};
use crate::{Result, StorageError};
use bytes::Bytes;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};

/// A store decorator that makes reads fail with a seeded probability, and
/// can additionally be armed to fail *writes* after a countdown — the
/// crash-injection hook for crash-consistency tests (a builder that dies
/// between its block puts and its header put).
pub struct FlakyStore<S> {
    inner: S,
    /// Read-failure probability, stored as `f64::to_bits` so outage tests
    /// can flip a region flaky (and heal it) mid-stream without `&mut`.
    failure_probability: AtomicU64,
    rng: Mutex<StdRng>,
    injected: AtomicU64,
    /// Writes remaining before puts start failing; `u64::MAX` disables.
    puts_until_failure: AtomicU64,
}

impl<S: ObjectStore> FlakyStore<S> {
    /// Fail each read independently with `failure_probability`.
    pub fn new(inner: S, failure_probability: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&failure_probability));
        FlakyStore {
            inner,
            failure_probability: AtomicU64::new(failure_probability.to_bits()),
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            injected: AtomicU64::new(0),
            puts_until_failure: AtomicU64::new(u64::MAX),
        }
    }

    /// Number of failures injected so far.
    pub fn injected_failures(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Change the read-failure probability at runtime (the region-outage
    /// sweep sets 1.0 to take a region down, then 0.0 to heal it).
    pub fn set_failure_probability(&self, p: f64) {
        assert!((0.0..=1.0).contains(&p));
        self.failure_probability
            .store(p.to_bits(), Ordering::SeqCst);
    }

    /// The current read-failure probability.
    pub fn failure_probability(&self) -> f64 {
        f64::from_bits(self.failure_probability.load(Ordering::SeqCst))
    }

    /// Arm deterministic write faults: allow `remaining` more successful
    /// `put`s, then fail every subsequent write (including conditional
    /// writes) with [`StorageError::Timeout`] until re-armed. This is how
    /// tests simulate a builder crashing mid-persist.
    pub fn fail_puts_after(&self, remaining: u64) {
        self.puts_until_failure.store(remaining, Ordering::SeqCst);
    }

    /// Disarm write faults (writes succeed again, as after a node restart).
    pub fn heal_puts(&self) {
        self.puts_until_failure.store(u64::MAX, Ordering::SeqCst);
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn maybe_fail(&self, name: &str) -> Result<()> {
        let roll: f64 = self.rng.lock().gen();
        if roll < self.failure_probability() {
            self.injected.fetch_add(1, Ordering::Relaxed);
            return Err(StorageError::Timeout {
                name: name.to_owned(),
            });
        }
        Ok(())
    }

    fn maybe_fail_put(&self, name: &str) -> Result<()> {
        loop {
            let remaining = self.puts_until_failure.load(Ordering::SeqCst);
            if remaining == u64::MAX {
                return Ok(());
            }
            if remaining == 0 {
                self.injected.fetch_add(1, Ordering::Relaxed);
                return Err(StorageError::Timeout {
                    name: name.to_owned(),
                });
            }
            if self
                .puts_until_failure
                .compare_exchange(remaining, remaining - 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return Ok(());
            }
        }
    }
}

impl<S: ObjectStore> crate::StoreLayer for FlakyStore<S> {
    type Inner = S;

    fn inner(&self) -> &S {
        &self.inner
    }

    fn put(&self, name: &str, data: Bytes) -> Result<()> {
        self.maybe_fail_put(name)?;
        self.inner.put(name, data)
    }

    fn get(&self, name: &str) -> Result<Fetched> {
        self.maybe_fail(name)?;
        self.inner.get(name)
    }

    fn get_range(&self, name: &str, offset: u64, len: u64) -> Result<Fetched> {
        self.maybe_fail(name)?;
        self.inner.get_range(name, offset, len)
    }

    fn get_ranges(&self, requests: &[RangeRequest]) -> Result<BatchFetch> {
        // One failure roll per batch: a real client retries individual
        // failed streams, so the *batch-level* retry a caller observes
        // happens at roughly the per-request rate, not amplified by the
        // batch width.
        if let Some(first) = requests.first() {
            self.maybe_fail(&first.name)?;
        }
        self.inner.get_ranges(requests)
    }

    fn put_if_version(&self, name: &str, data: Bytes, expected: Version) -> Result<Version> {
        // Armed write faults hit conditional writes too (a crash does not
        // care which kind of put was in flight); every injected fault
        // lands in the same `injected_failures` accounting.
        self.maybe_fail_put(name)?;
        self.inner.put_if_version(name, data, expected)
    }
}

/// A store decorator that retries transient read failures with exponential
/// simulated backoff. Non-transient errors (missing blobs, bad ranges)
/// surface immediately.
pub struct RetryingStore<S> {
    inner: S,
    max_attempts: u32,
    base_backoff: SimDuration,
    retries: AtomicU64,
}

impl<S: ObjectStore> RetryingStore<S> {
    /// Retry up to `max_attempts` total tries with exponential backoff
    /// starting at `base_backoff` (added to the returned simulated
    /// latency, since a retried request waited that long).
    pub fn new(inner: S, max_attempts: u32, base_backoff: SimDuration) -> Self {
        assert!(max_attempts >= 1);
        RetryingStore {
            inner,
            max_attempts,
            base_backoff,
            retries: AtomicU64::new(0),
        }
    }

    /// Number of retried attempts so far.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// The wrapped store (e.g. to read a [`FlakyStore`]'s fault counter).
    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn is_transient(err: &StorageError) -> bool {
        matches!(err, StorageError::Timeout { .. } | StorageError::Io(_))
    }

    fn with_retries<T>(
        &self,
        mut op: impl FnMut() -> Result<T>,
        add_backoff: impl FnOnce(&mut T, SimDuration),
    ) -> Result<T> {
        let mut backoff_total = SimDuration::ZERO;
        let mut backoff = self.base_backoff;
        for attempt in 1..=self.max_attempts {
            match op() {
                Ok(mut v) => {
                    add_backoff(&mut v, backoff_total);
                    return Ok(v);
                }
                Err(e) if Self::is_transient(&e) && attempt < self.max_attempts => {
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    backoff_total += backoff;
                    backoff = backoff * 2.0;
                }
                Err(e) => return Err(e),
            }
        }
        unreachable!("loop always returns")
    }
}

// Writes and conditional writes pass through untouched. A
// VersionMismatch in particular is NOT transient: blindly re-issuing the
// same conditional write would lose another writer's update, so the
// manifest CAS loop re-reads and retries at its own layer.
impl<S: ObjectStore> crate::StoreLayer for RetryingStore<S> {
    type Inner = S;

    fn inner(&self) -> &S {
        &self.inner
    }

    fn get(&self, name: &str) -> Result<Fetched> {
        self.with_retries(
            || self.inner.get(name),
            |f, backoff| f.latency.first_byte += backoff,
        )
    }

    fn get_range(&self, name: &str, offset: u64, len: u64) -> Result<Fetched> {
        self.with_retries(
            || self.inner.get_range(name, offset, len),
            |f, backoff| f.latency.first_byte += backoff,
        )
    }

    fn get_ranges(&self, requests: &[RangeRequest]) -> Result<BatchFetch> {
        self.with_retries(
            || self.inner.get_ranges(requests),
            |b, backoff| {
                b.batch_wait += backoff;
                b.batch_latency += backoff;
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InMemoryStore;

    fn flaky(p: f64, seed: u64) -> FlakyStore<InMemoryStore> {
        let inner = InMemoryStore::new();
        inner.put("blob", Bytes::from(vec![5u8; 4096])).unwrap();
        FlakyStore::new(inner, p, seed)
    }

    #[test]
    fn flaky_injects_failures_at_rate() {
        let store = flaky(0.3, 1);
        let mut failures = 0;
        for _ in 0..200 {
            if store.get_range("blob", 0, 64).is_err() {
                failures += 1;
            }
        }
        assert!((30..90).contains(&failures), "saw {failures}/200 failures");
        assert_eq!(store.injected_failures(), failures);
    }

    #[test]
    fn flaky_zero_probability_never_fails() {
        let store = flaky(0.0, 1);
        for _ in 0..50 {
            store.get_range("blob", 0, 64).unwrap();
        }
    }

    #[test]
    fn failure_probability_toggles_at_runtime() {
        let store = flaky(0.0, 1);
        for _ in 0..20 {
            store.get_range("blob", 0, 64).unwrap();
        }
        store.set_failure_probability(1.0);
        assert_eq!(store.failure_probability(), 1.0);
        assert!(matches!(
            store.get_range("blob", 0, 64),
            Err(StorageError::Timeout { .. })
        ));
        store.set_failure_probability(0.0);
        for _ in 0..20 {
            store.get_range("blob", 0, 64).unwrap();
        }
    }

    #[test]
    fn armed_write_faults_fail_puts_deterministically() {
        let store = flaky(0.0, 1);
        store.fail_puts_after(2);
        store.put("a", Bytes::from_static(b"1")).unwrap();
        store.put("b", Bytes::from_static(b"2")).unwrap();
        // Third write "crashes", and so does every one after it —
        // including conditional writes.
        assert!(matches!(
            store.put("c", Bytes::from_static(b"3")),
            Err(StorageError::Timeout { .. })
        ));
        assert!(matches!(
            store.put_if_version("d", Bytes::from_static(b"4"), Version::Absent),
            Err(StorageError::Timeout { .. })
        ));
        assert_eq!(store.injected_failures(), 2);
        assert!(!store.inner().exists("c"));
        // After the "restart", writes work again.
        store.heal_puts();
        store.put("c", Bytes::from_static(b"3")).unwrap();
        assert!(store.inner().exists("c"));
    }

    #[test]
    fn version_mismatch_is_not_retried() {
        let inner = InMemoryStore::new();
        inner.put("m", Bytes::from_static(b"gen1")).unwrap();
        let store = RetryingStore::new(inner, 5, SimDuration::from_millis(1));
        let stale = Version::of_bytes(b"something-else");
        assert!(matches!(
            store.put_if_version("m", Bytes::from_static(b"gen2"), stale),
            Err(StorageError::VersionMismatch { .. })
        ));
        assert_eq!(store.retries(), 0, "CAS losses must surface immediately");
    }

    #[test]
    fn retrying_recovers_from_transient_failures() {
        let store = RetryingStore::new(flaky(0.4, 7), 8, SimDuration::from_millis(10));
        for _ in 0..100 {
            let f = store.get_range("blob", 0, 64).unwrap();
            assert_eq!(f.bytes.len(), 64);
        }
        assert!(store.retries() > 10, "retries should have happened");
    }

    #[test]
    fn retrying_charges_backoff_latency() {
        // Force failure on the first attempt: probability 1 would always
        // fail, so use a seeded sequence where the first roll fails.
        let store = RetryingStore::new(flaky(0.5, 3), 10, SimDuration::from_millis(25));
        // Run until we observe a fetched result whose wait includes backoff.
        let mut saw_backoff = false;
        for _ in 0..50 {
            let f = store.get_range("blob", 0, 64).unwrap();
            if f.latency.first_byte >= SimDuration::from_millis(25) {
                saw_backoff = true;
                break;
            }
        }
        assert!(saw_backoff, "some retried request should carry backoff");
    }

    #[test]
    fn retrying_gives_up_after_max_attempts() {
        let store = RetryingStore::new(flaky(1.0, 5), 3, SimDuration::from_millis(1));
        match store.get_range("blob", 0, 64) {
            Err(StorageError::Timeout { .. }) => {}
            other => panic!("expected Timeout after exhausting retries, got {other:?}"),
        }
        assert_eq!(store.retries(), 2, "attempts - 1 retries");
    }

    #[test]
    fn permanent_errors_are_not_retried() {
        let inner = InMemoryStore::new();
        let store = RetryingStore::new(inner, 5, SimDuration::from_millis(1));
        assert!(matches!(
            store.get("missing"),
            Err(StorageError::BlobNotFound { .. })
        ));
        assert_eq!(store.retries(), 0);
    }

    #[test]
    fn concurrent_lookups_all_retried_to_success_with_exact_counters() {
        // 8 threads × 200 reads through a shared RetryingStore over a 30%
        // flaky backend: every read must succeed, and the injected/retry
        // counters must account for every event exactly (no lost updates).
        let store = std::sync::Arc::new(RetryingStore::new(
            flaky(0.3, 99),
            32,
            SimDuration::from_millis(1),
        ));
        let per_thread_reads = 200u64;
        let threads = 8u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let store = store.clone();
                s.spawn(move || {
                    for i in 0..per_thread_reads {
                        let offset = ((t * per_thread_reads + i) * 7) % 4032;
                        let f = store.get_range("blob", offset, 64).unwrap();
                        assert_eq!(f.bytes.len(), 64);
                    }
                });
            }
        });
        let injected = store.inner.injected_failures();
        let retries = store.retries();
        // With 32 attempts and p=0.3, exhausting retries is impossible in
        // practice, so every injected failure was followed by exactly one
        // retry: the two counters must agree event-for-event.
        assert_eq!(
            retries, injected,
            "every injected failure retried exactly once"
        );
        let total = threads * per_thread_reads;
        // ~30% failure rate: the counters also have to be in a sane band,
        // not just equal (both racing to the same wrong value would hide).
        let expected = (total as f64 * 0.3 / 0.7) as u64;
        assert!(
            injected > expected / 2 && injected < expected * 2,
            "injected {injected} should be near {expected}"
        );
    }

    #[test]
    fn concurrent_batches_recover_and_count_exactly() {
        let store = std::sync::Arc::new(RetryingStore::new(
            flaky(0.25, 1234),
            32,
            SimDuration::from_millis(2),
        ));
        std::thread::scope(|s| {
            for _ in 0..6 {
                let store = store.clone();
                s.spawn(move || {
                    let reqs = vec![
                        RangeRequest::new("blob", 0, 64),
                        RangeRequest::new("blob", 64, 64),
                        RangeRequest::new("blob", 128, 64),
                    ];
                    for _ in 0..100 {
                        let b = store.get_ranges(&reqs).unwrap();
                        assert_eq!(b.parts.len(), 3);
                        assert_eq!(b.total_bytes(), 192);
                    }
                });
            }
        });
        assert_eq!(
            store.retries(),
            store.inner.injected_failures(),
            "no lost counter updates under parallel batch retries"
        );
    }

    #[test]
    fn batch_retry_retries_whole_batch() {
        let store = RetryingStore::new(flaky(0.3, 11), 10, SimDuration::from_millis(5));
        let reqs = vec![
            RangeRequest::new("blob", 0, 64),
            RangeRequest::new("blob", 64, 64),
        ];
        for _ in 0..30 {
            let b = store.get_ranges(&reqs).unwrap();
            assert_eq!(b.parts.len(), 2);
        }
    }
}
