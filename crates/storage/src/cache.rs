//! Client-side read cache.
//!
//! The paper notes that "node caching may reduce communications, [but]
//! allocating a large enough cache to store the entire index is
//! prohibitively expensive" (§I), and its scalability study (Appendix B-B)
//! points at "a more aggressive caching policy" as future work for small
//! corpora. [`CachedStore`] is that extension: a byte-budgeted LRU over
//! ranged reads. Cache hits cost zero simulated latency — they never leave
//! the client.
//!
//! The cache is safe to share across query threads (one budget serving a
//! whole worker pool), and concurrent fetches of the *same* range are
//! single-flighted: one thread performs the network read while the others
//! wait for the cached bytes, so a popular range is charged its cold
//! latency exactly once and the store underneath sees one request.

use crate::latency::{LatencySample, SimDuration};
use crate::object_store::{BatchFetch, Fetched, ObjectStore, RangeClass, RangeRequest, Version};
use crate::Result;
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};

/// Cache key: one exact ranged read.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct RangeKey {
    name: String,
    offset: u64,
    len: u64,
}

/// One cache tier: entries tagged with their last-use tick.
#[derive(Debug, Default)]
struct Tier {
    entries: HashMap<RangeKey, (Bytes, u64)>,
    bytes: usize,
}

impl Tier {
    fn get(&mut self, key: &RangeKey, tick: u64) -> Option<Bytes> {
        self.entries.get_mut(key).map(|(data, used)| {
            *used = tick;
            data.clone()
        })
    }

    fn insert(&mut self, key: RangeKey, data: Bytes, tick: u64, budget: usize) {
        if data.len() > budget {
            return; // larger than the whole tier: don't thrash
        }
        self.bytes += data.len();
        self.entries.insert(key, (data, tick));
        while self.bytes > budget {
            // Evict the least recently used entry of THIS tier only.
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k.clone())
                .expect("non-empty over budget");
            if let Some((data, _)) = self.entries.remove(&victim) {
                self.bytes -= data.len();
            }
        }
    }

    fn evict_blob(&mut self, name: &str) {
        let victims: Vec<RangeKey> = self
            .entries
            .keys()
            .filter(|k| k.name == name)
            .cloned()
            .collect();
        for k in victims {
            if let Some((data, _)) = self.entries.remove(&k) {
                self.bytes -= data.len();
            }
        }
    }
}

/// Tiered LRU state: a small Index tier that bulky Data traffic can never
/// evict, the Data tier with the main budget, a shared monotone use
/// counter, and a per-blob invalidation epoch (bumped by every write or
/// delete of the blob) that in-flight fetches check before admitting bytes.
#[derive(Debug, Default)]
struct LruState {
    index: Tier,
    data: Tier,
    tick: u64,
    epochs: HashMap<String, u64>,
}

impl LruState {
    fn get(&mut self, key: &RangeKey) -> Option<Bytes> {
        self.tick += 1;
        let tick = self.tick;
        self.index
            .get(key, tick)
            .or_else(|| self.data.get(key, tick))
    }

    /// Admit by class: Index-class ranges go to the pinned index tier
    /// (falling back to the data tier when they cannot fit there at all,
    /// so tiering is never worse than the flat cache); Data-class ranges
    /// only ever touch the data tier.
    fn insert(
        &mut self,
        key: RangeKey,
        data: Bytes,
        class: RangeClass,
        data_budget: usize,
        index_budget: usize,
    ) {
        self.tick += 1;
        let tick = self.tick;
        match class {
            RangeClass::Index if data.len() <= index_budget => {
                self.index.insert(key, data, tick, index_budget);
            }
            _ => self.data.insert(key, data, tick, data_budget),
        }
    }
}

/// One in-flight fetch of a range: followers block on the condvar until
/// the leader publishes (or abandons) the bytes.
struct Flight {
    done: StdMutex<bool>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Self {
        Flight {
            done: StdMutex::new(false),
            cv: Condvar::new(),
        }
    }

    fn wait(&self) {
        let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
        while !*done {
            done = self.cv.wait(done).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn finish(&self) {
        *self.done.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.cv.notify_all();
    }
}

/// Outcome of registering interest in a missing range.
enum Claim<'a, S: ObjectStore> {
    /// This thread fetches; the guard releases the flight on drop (so a
    /// panicking backend can never strand followers on the condvar).
    Leader(ClaimGuard<'a, S>),
    /// Another thread is already fetching; wait on its flight.
    Follower(Arc<Flight>),
}

/// Releases a leader's claim when dropped — on success, error, or unwind.
struct ClaimGuard<'a, S: ObjectStore> {
    store: &'a CachedStore<S>,
    key: RangeKey,
    flight: Arc<Flight>,
}

impl<S: ObjectStore> Drop for ClaimGuard<'_, S> {
    fn drop(&mut self) {
        self.store.release(&self.key, &self.flight);
    }
}

/// Per-tier hit/miss/byte ledgers of a [`CachedStore`].
///
/// A read is attributed to the tier its [`RangeClass`] hint names, so the
/// ablation can report how index traffic and data traffic fare separately
/// under one budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Hits on Index-class reads.
    pub index_hits: u64,
    /// Misses on Index-class reads.
    pub index_misses: u64,
    /// Bytes currently resident in the index tier.
    pub index_bytes: u64,
    /// Hits on Superpost-class reads (posting bytes; resident in the
    /// data tier but ledgered apart from document traffic).
    pub superpost_hits: u64,
    /// Misses on Superpost-class reads.
    pub superpost_misses: u64,
    /// Hits on Data-class reads (document verification bytes).
    pub data_hits: u64,
    /// Misses on Data-class reads.
    pub data_misses: u64,
    /// Bytes currently resident in the data tier.
    pub data_bytes: u64,
}

impl CacheStats {
    /// Total hits across tiers.
    pub fn hits(&self) -> u64 {
        self.index_hits + self.superpost_hits + self.data_hits
    }

    /// Total misses across tiers.
    pub fn misses(&self) -> u64 {
        self.index_misses + self.superpost_misses + self.data_misses
    }

    /// Overall hit rate in `[0, 1]` (0 when nothing was read).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits() + self.misses();
        if total == 0 {
            0.0
        } else {
            self.hits() as f64 / total as f64
        }
    }
}

/// An [`ObjectStore`] decorator that caches ranged reads in client memory,
/// with **tiered admission**: ranges hinted [`RangeClass::Index`] are held
/// under a small dedicated budget that Data-class traffic can never evict
/// (the paper's cache ablation measures exactly this trade — tiny
/// high-fanout index bytes versus bulky payload bytes competing for one
/// budget).
///
/// Whole-object `get`s are treated as ranged reads of the full length so
/// repeated header fetches also hit. Writes and deletes invalidate the
/// touched blob's entries in both tiers.
pub struct CachedStore<S> {
    inner: S,
    budget: usize,
    index_budget: usize,
    lru: Mutex<LruState>,
    in_flight: StdMutex<HashMap<RangeKey, Arc<Flight>>>,
    data_hits: AtomicU64,
    data_misses: AtomicU64,
    superpost_hits: AtomicU64,
    superpost_misses: AtomicU64,
    index_hits: AtomicU64,
    index_misses: AtomicU64,
}

impl<S: ObjectStore> CachedStore<S> {
    /// Wrap `inner` with a Data-tier budget of `budget_bytes`, plus a
    /// dedicated index tier of an eighth of that (so headers survive data
    /// churn out of the box). Use [`CachedStore::with_budgets`] to pick
    /// both budgets explicitly.
    pub fn new(inner: S, budget_bytes: usize) -> Self {
        Self::with_budgets(inner, budget_bytes, budget_bytes / 8)
    }

    /// Wrap `inner` with explicit per-tier budgets. `index_budget_bytes`
    /// of zero disables tiering: Index-class ranges then compete in the
    /// Data LRU like everything else (the flat-cache baseline).
    pub fn with_budgets(inner: S, data_budget_bytes: usize, index_budget_bytes: usize) -> Self {
        CachedStore {
            inner,
            budget: data_budget_bytes,
            index_budget: index_budget_bytes,
            lru: Mutex::new(LruState::default()),
            in_flight: StdMutex::new(HashMap::new()),
            data_hits: AtomicU64::new(0),
            data_misses: AtomicU64::new(0),
            superpost_hits: AtomicU64::new(0),
            superpost_misses: AtomicU64::new(0),
            index_hits: AtomicU64::new(0),
            index_misses: AtomicU64::new(0),
        }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// `(hits, misses)` counters, summed across tiers.
    pub fn hit_stats(&self) -> (u64, u64) {
        let s = self.stats();
        (s.hits(), s.misses())
    }

    /// Per-tier hit/miss/byte ledgers.
    pub fn stats(&self) -> CacheStats {
        let (index_bytes, data_bytes) = {
            let lru = self.lru.lock();
            (lru.index.bytes as u64, lru.data.bytes as u64)
        };
        CacheStats {
            index_hits: self.index_hits.load(Ordering::Relaxed),
            index_misses: self.index_misses.load(Ordering::Relaxed),
            index_bytes,
            superpost_hits: self.superpost_hits.load(Ordering::Relaxed),
            superpost_misses: self.superpost_misses.load(Ordering::Relaxed),
            data_hits: self.data_hits.load(Ordering::Relaxed),
            data_misses: self.data_misses.load(Ordering::Relaxed),
            data_bytes,
        }
    }

    /// Bytes currently cached across both tiers.
    pub fn cached_bytes(&self) -> usize {
        let lru = self.lru.lock();
        lru.index.bytes + lru.data.bytes
    }

    fn count_hit(&self, class: RangeClass) {
        match class {
            RangeClass::Index => self.index_hits.fetch_add(1, Ordering::Relaxed),
            RangeClass::Superpost => self.superpost_hits.fetch_add(1, Ordering::Relaxed),
            RangeClass::Data => self.data_hits.fetch_add(1, Ordering::Relaxed),
        };
    }

    fn count_miss(&self, class: RangeClass) {
        match class {
            RangeClass::Index => self.index_misses.fetch_add(1, Ordering::Relaxed),
            RangeClass::Superpost => self.superpost_misses.fetch_add(1, Ordering::Relaxed),
            RangeClass::Data => self.data_misses.fetch_add(1, Ordering::Relaxed),
        };
    }

    fn invalidate(&self, name: &str) {
        let mut lru = self.lru.lock();
        // Bumped under the LRU lock, the same lock admits take: an admit
        // either lands before this (and is removed below) or observes the
        // new epoch and skips.
        *lru.epochs.entry(name.to_owned()).or_insert(0) += 1;
        lru.index.evict_blob(name);
        lru.data.evict_blob(name);
    }

    /// The blob's current invalidation epoch (leaders snapshot this
    /// before fetching).
    fn epoch_of(&self, name: &str) -> u64 {
        self.lru.lock().epochs.get(name).copied().unwrap_or(0)
    }

    /// Cache probe that counts a hit against the request's class ledger; a
    /// miss is counted by whoever ends up leading the fetch, so every
    /// logical read increments exactly one counter exactly once.
    fn probe(&self, key: &RangeKey, class: RangeClass) -> Option<Fetched> {
        let cached = self.lru.lock().get(key);
        cached.map(|bytes| {
            self.count_hit(class);
            Fetched {
                bytes,
                latency: LatencySample::ZERO,
            }
        })
    }

    /// Admit fetched bytes unless an invalidation of the same blob landed
    /// since the fetch started (`epoch` is the leader's pre-fetch
    /// snapshot).
    fn admit_if_current(&self, key: RangeKey, bytes: &Bytes, class: RangeClass, epoch: u64) {
        let mut lru = self.lru.lock();
        if lru.epochs.get(&key.name).copied().unwrap_or(0) == epoch {
            lru.insert(key, bytes.clone(), class, self.budget, self.index_budget);
        }
    }

    /// Register interest in fetching `key`: the first caller becomes the
    /// leader, everyone else follows its flight.
    fn claim(&self, key: &RangeKey) -> Claim<'_, S> {
        let mut map = self.in_flight.lock().unwrap_or_else(|e| e.into_inner());
        self.claim_in(&mut map, key)
    }

    /// [`CachedStore::claim`] under an already-held in-flight lock.
    fn claim_in(&self, map: &mut HashMap<RangeKey, Arc<Flight>>, key: &RangeKey) -> Claim<'_, S> {
        match map.get(key) {
            Some(flight) => Claim::Follower(flight.clone()),
            None => {
                let flight = Arc::new(Flight::new());
                map.insert(key.clone(), flight.clone());
                Claim::Leader(ClaimGuard {
                    store: self,
                    key: key.clone(),
                    flight,
                })
            }
        }
    }

    /// Leader hand-off: unpark followers after the bytes were admitted (or
    /// the fetch failed — followers re-probe and fetch for themselves).
    fn release(&self, key: &RangeKey, flight: &Flight) {
        self.in_flight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(key);
        flight.finish();
    }

    /// Route one round of a batch's requests (`indices` into `requests`,
    /// no key twice): a cache hit fills `parts[i]`; a claimed fetch is
    /// queued into the round's `leading` set (its guard held so followers
    /// can wait on the flight); a range another thread is already
    /// fetching joins `following`. The whole round is probed and claimed
    /// under ONE in-flight lock, so two threads sending the same batch
    /// never split its leadership (each would then pay a backend batch
    /// for half of it): one leads every range, the other follows. Holding
    /// that lock also closes the probe→claim window `get_range` re-probes
    /// for: a prior leader admits before it releases, and it cannot
    /// release while we hold the lock, so a miss we then claim is truly
    /// not cached. (Lock order: in-flight, then LRU; nothing takes them
    /// the other way round.)
    fn route_round<'a>(
        &'a self,
        requests: &[RangeRequest],
        indices: impl IntoIterator<Item = usize>,
        parts: &mut [Option<Fetched>],
    ) -> BatchRound<'a, S> {
        let mut round = BatchRound::new();
        let mut map = self.in_flight.lock().unwrap_or_else(|e| e.into_inner());
        for i in indices {
            let r = &requests[i];
            let key = RangeKey {
                name: r.name.clone(),
                offset: r.offset,
                len: r.len,
            };
            if let Some(hit) = self.probe(&key, r.class) {
                parts[i] = Some(hit);
                continue;
            }
            match self.claim_in(&mut map, &key) {
                Claim::Leader(guard) => {
                    self.count_miss(r.class);
                    round.leading.push((i, r.clone(), self.epoch_of(&r.name)));
                    round.claims.push(guard);
                }
                Claim::Follower(flight) => round.following.push((i, flight)),
            }
        }
        round
    }

    /// Issue one round's led ranges as a single concurrent batch, admit
    /// what fits, fill `parts`, and fold the batch's cost in with
    /// concurrent semantics (waits overlap via max, transfers share the
    /// link and add).
    fn lead_batch(
        &self,
        leading: Vec<(usize, RangeRequest, u64)>,
        parts: &mut [Option<Fetched>],
        wait: &mut SimDuration,
        download: &mut SimDuration,
    ) -> Result<()> {
        if leading.is_empty() {
            return Ok(());
        }
        let reqs: Vec<RangeRequest> = leading.iter().map(|(_, r, _)| r.clone()).collect();
        // Errors (and panics) drop the caller's claims, releasing every
        // flight.
        let batch = self.inner.get_ranges(&reqs)?;
        *wait = (*wait).max(batch.batch_wait);
        *download += batch.batch_download;
        for ((i, r, epoch), fetched) in leading.into_iter().zip(batch.parts) {
            self.admit_if_current(
                RangeKey {
                    name: r.name,
                    offset: r.offset,
                    len: r.len,
                },
                &fetched.bytes,
                r.class,
                epoch,
            );
            parts[i] = Some(fetched);
        }
        Ok(())
    }
}

/// One round of a batched fetch: the ranges this thread leads (claims
/// held until the round's batch lands) and the flights it follows.
struct BatchRound<'a, S: ObjectStore> {
    leading: Vec<(usize, RangeRequest, u64)>,
    claims: Vec<ClaimGuard<'a, S>>,
    following: Vec<(usize, Arc<Flight>)>,
}

impl<S: ObjectStore> BatchRound<'_, S> {
    fn new() -> Self {
        BatchRound {
            leading: Vec::new(),
            claims: Vec::new(),
            following: Vec::new(),
        }
    }
}

// `version_of` is a layer default on purpose: versions must reflect the
// durable store, never a cached entry — a CAS retry loop that read a
// stale version would spin.
impl<S: ObjectStore> crate::StoreLayer for CachedStore<S> {
    type Inner = S;

    fn inner(&self) -> &S {
        &self.inner
    }

    fn put(&self, name: &str, data: Bytes) -> Result<()> {
        self.invalidate(name);
        let result = self.inner.put(name, data);
        // Invalidate again once the write has applied: a fetch that
        // snapshotted its epoch after the first invalidation could still
        // have read pre-write bytes and admitted them in the meantime —
        // this pass evicts that entry and fails any still-in-flight
        // admit's epoch check, so stale bytes can never outlive the
        // write.
        self.invalidate(name);
        result
    }

    fn put_if_version(&self, name: &str, data: Bytes, expected: Version) -> Result<Version> {
        // Same invalidate-before-and-after discipline as `put`. A lost
        // CAS invalidates too: the mismatch proves another writer updated
        // the blob, so whatever this cache holds for it is stale.
        self.invalidate(name);
        let result = self.inner.put_if_version(name, data, expected);
        self.invalidate(name);
        result
    }

    fn get(&self, name: &str) -> Result<Fetched> {
        let size = self.inner.size_of(name)?;
        ObjectStore::get_range(self, name, 0, size)
    }

    fn get_range(&self, name: &str, offset: u64, len: u64) -> Result<Fetched> {
        let key = RangeKey {
            name: name.to_owned(),
            offset,
            len,
        };
        loop {
            if let Some(hit) = self.probe(&key, RangeClass::Data) {
                return Ok(hit);
            }
            match self.claim(&key) {
                Claim::Leader(guard) => {
                    // Re-probe: a prior leader may have admitted and
                    // released between our probe and our claim, and its
                    // admit happens-before its release happens-before
                    // this claim — don't re-fetch what just landed.
                    if let Some(hit) = self.probe(&key, RangeClass::Data) {
                        drop(guard);
                        return Ok(hit);
                    }
                    self.count_miss(RangeClass::Data);
                    let epoch = self.epoch_of(name);
                    let result = self.inner.get_range(name, offset, len);
                    if let Ok(fetched) = &result {
                        self.admit_if_current(key.clone(), &fetched.bytes, RangeClass::Data, epoch);
                    }
                    drop(guard); // publish to followers
                    return result;
                }
                // Re-probe once the leader lands: usually a free hit. If
                // the leader failed (or the bytes were too big to admit),
                // the next iteration claims leadership and fetches.
                Claim::Follower(flight) => flight.wait(),
            }
        }
    }

    fn get_ranges(&self, requests: &[RangeRequest]) -> Result<BatchFetch> {
        // Serve hits locally; fetch only the misses this thread leads as
        // one (smaller) batch; ranges already being fetched by another
        // thread are awaited instead of re-requested. A range appearing
        // twice in the same batch is physically fetched once and the
        // duplicate is served from the first occurrence's part — without
        // this, a non-admittable (oversized) payload would send the
        // duplicate back to the backend for bytes this very batch already
        // holds.
        let mut parts: Vec<Option<Fetched>> = vec![None; requests.len()];
        let mut first_occurrence: HashMap<(&str, u64, u64), usize> = HashMap::new();
        let mut duplicates: Vec<(usize, usize)> = Vec::new();
        let firsts = requests.iter().enumerate().filter_map(|(i, r)| {
            match first_occurrence.entry((r.name.as_str(), r.offset, r.len)) {
                Entry::Occupied(j) => {
                    duplicates.push((i, *j.get()));
                    None
                }
                Entry::Vacant(slot) => Some(*slot.insert(i)),
            }
        });
        let round = self.route_round(requests, firsts, &mut parts);

        let (mut wait, mut download) = (SimDuration::ZERO, SimDuration::ZERO);
        self.lead_batch(round.leading, &mut parts, &mut wait, &mut download)?;
        // Publish our claims *before* waiting on anyone else's flight:
        // every batch completes its own fetches without blocking on other
        // threads, so there is no wait cycle to deadlock on.
        drop(round.claims);

        // Ranges another thread was fetching: wait for every flight, then
        // re-probe (via `route_round`, like round one). Whatever the
        // leaders failed to admit (error, or bytes larger than the cache)
        // is refetched as ONE concurrent fallback batch per round — never
        // a range at a time, which would degrade a K-range batch into K
        // serial round trips. A round's fallback ranges that yet another
        // thread is again fetching roll into the next round. Each round's
        // batch folds in with concurrent semantics: waits overlap, its
        // transfer shares the link.
        let mut following = round.following;
        while !following.is_empty() {
            for (_, flight) in &following {
                flight.wait();
            }
            let round = self.route_round(requests, following.iter().map(|(i, _)| *i), &mut parts);
            self.lead_batch(round.leading, &mut parts, &mut wait, &mut download)?;
            drop(round.claims);
            following = round.following;
        }

        // Intra-batch duplicates ride on the first occurrence's bytes —
        // the same physical fetch, so they cost nothing and count as hits
        // (`hits + misses == requests` stays exact; the old fallback
        // could double-count a duplicate as a second miss).
        for (i, j) in duplicates {
            self.count_hit(requests[i].class);
            parts[i] = Some(parts[j].clone().expect("first occurrence filled"));
        }

        Ok(BatchFetch {
            parts: parts.into_iter().map(|p| p.expect("all filled")).collect(),
            batch_latency: wait + download,
            batch_wait: wait,
            batch_download: download,
        })
    }

    fn delete(&self, name: &str) -> Result<()> {
        self.invalidate(name);
        let result = self.inner.delete(name);
        self.invalidate(name); // see `put`
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InMemoryStore, LatencyModel, SimulatedCloudStore};

    fn cloud() -> SimulatedCloudStore<InMemoryStore> {
        let inner = InMemoryStore::new();
        inner.put("blob", Bytes::from(vec![9u8; 1 << 16])).unwrap();
        SimulatedCloudStore::new(inner, LatencyModel::gcs_like(), 1)
    }

    #[test]
    fn repeated_reads_hit_cache_and_cost_nothing() {
        let store = CachedStore::new(cloud(), 1 << 20);
        let cold = store.get_range("blob", 0, 1024).unwrap();
        assert!(cold.latency.total() > SimDuration::ZERO);
        let warm = store.get_range("blob", 0, 1024).unwrap();
        assert_eq!(warm.latency.total(), SimDuration::ZERO);
        assert_eq!(warm.bytes, cold.bytes);
        assert_eq!(store.hit_stats(), (1, 1));
    }

    #[test]
    fn superpost_reads_ledger_separately_from_documents() {
        let store = CachedStore::new(cloud(), 1 << 20);
        let reqs = vec![
            RangeRequest::superpost("blob", 0, 64),
            RangeRequest::new("blob", 64, 64),
        ];
        store.get_ranges(&reqs).unwrap(); // both miss
        store.get_ranges(&reqs).unwrap(); // both hit
        let s = store.stats();
        assert_eq!((s.superpost_hits, s.superpost_misses), (1, 1));
        assert_eq!((s.data_hits, s.data_misses), (1, 1));
        assert_eq!((s.index_hits, s.index_misses), (0, 0));
        assert_eq!(store.hit_stats(), (2, 2));
        // Superpost bytes live in the data tier (no dedicated budget yet);
        // the index tier stays empty.
        assert_eq!(s.index_bytes, 0);
        assert_eq!(s.data_bytes, 128);
    }

    #[test]
    fn different_ranges_are_distinct_entries() {
        let store = CachedStore::new(cloud(), 1 << 20);
        store.get_range("blob", 0, 100).unwrap();
        let miss = store.get_range("blob", 0, 200).unwrap();
        assert!(miss.latency.total() > SimDuration::ZERO);
        assert_eq!(store.hit_stats(), (0, 2));
    }

    #[test]
    fn lru_evicts_under_budget_pressure() {
        let store = CachedStore::new(cloud(), 300);
        store.get_range("blob", 0, 100).unwrap(); // A
        store.get_range("blob", 100, 100).unwrap(); // B
        store.get_range("blob", 200, 100).unwrap(); // C — budget full
        store.get_range("blob", 0, 100).unwrap(); // A hits, refreshes
        store.get_range("blob", 300, 100).unwrap(); // D — evicts B (LRU)
        assert!(store.cached_bytes() <= 300);
        let a = store.get_range("blob", 0, 100).unwrap();
        assert_eq!(a.latency.total(), SimDuration::ZERO, "A survived");
        let b = store.get_range("blob", 100, 100).unwrap();
        assert!(b.latency.total() > SimDuration::ZERO, "B was evicted");
    }

    #[test]
    fn oversized_objects_bypass_cache() {
        let store = CachedStore::new(cloud(), 128);
        store.get_range("blob", 0, 1024).unwrap();
        assert_eq!(store.cached_bytes(), 0);
    }

    #[test]
    fn writes_invalidate() {
        let store = CachedStore::new(cloud(), 1 << 20);
        store.get_range("blob", 0, 16).unwrap();
        store.put("blob", Bytes::from(vec![1u8; 1 << 16])).unwrap();
        let refetched = store.get_range("blob", 0, 16).unwrap();
        assert!(refetched.latency.total() > SimDuration::ZERO);
        assert_eq!(&refetched.bytes[..], &[1u8; 16]);
    }

    #[test]
    fn conditional_writes_invalidate_cached_entries() {
        let store = CachedStore::new(cloud(), 1 << 20);
        store.get_range("blob", 0, 16).unwrap();
        let v = store.inner().version_of("blob").unwrap();
        store
            .put_if_version("blob", Bytes::from(vec![4u8; 1 << 16]), v)
            .unwrap();
        let refetched = store.get_range("blob", 0, 16).unwrap();
        assert!(refetched.latency.total() > SimDuration::ZERO, "cold again");
        assert_eq!(&refetched.bytes[..], &[4u8; 16]);
        // A *lost* CAS also invalidates (the mismatch proves the cached
        // view is stale) but never applies the loser's bytes.
        assert!(store
            .put_if_version("blob", Bytes::from(vec![9u8; 4]), v)
            .is_err());
        assert_eq!(
            &store.get_range("blob", 0, 16).unwrap().bytes[..],
            &[4u8; 16]
        );
    }

    #[test]
    fn batch_fetches_only_misses() {
        let store = CachedStore::new(cloud(), 1 << 20);
        store.get_range("blob", 0, 64).unwrap();
        let reqs = vec![
            RangeRequest::new("blob", 0, 64),   // hit
            RangeRequest::new("blob", 64, 64),  // miss
            RangeRequest::new("blob", 128, 64), // miss
        ];
        let batch = store.get_ranges(&reqs).unwrap();
        assert_eq!(batch.parts.len(), 3);
        assert_eq!(store.hit_stats().0, 1);
        // A fully-warm batch is free.
        let batch = store.get_ranges(&reqs).unwrap();
        assert_eq!(batch.batch_latency, SimDuration::ZERO);
    }

    #[test]
    fn whole_get_caches_as_full_range() {
        let store = CachedStore::new(cloud(), 1 << 20);
        store.get("blob").unwrap();
        let warm = store.get("blob").unwrap();
        assert_eq!(warm.latency.total(), SimDuration::ZERO);
    }

    #[test]
    fn hit_miss_accounting_is_exact() {
        // Every read counts exactly once: hits + misses == logical reads,
        // whether issued singly or batched.
        let store = CachedStore::new(cloud(), 1 << 20);
        store.get_range("blob", 0, 64).unwrap(); // miss
        store.get_range("blob", 0, 64).unwrap(); // hit
        let reqs = vec![
            RangeRequest::new("blob", 0, 64),   // hit
            RangeRequest::new("blob", 64, 64),  // miss
            RangeRequest::new("blob", 128, 64), // miss
        ];
        store.get_ranges(&reqs).unwrap();
        let (hits, misses) = store.hit_stats();
        assert_eq!((hits, misses), (2, 3));
        assert_eq!(hits + misses, 5, "one count per logical read");
    }

    #[test]
    fn failed_fetches_do_not_poison_the_cache() {
        let store = CachedStore::new(cloud(), 1 << 20);
        assert!(store.get_range("missing", 0, 8).is_err());
        // The failed flight was released: the same key can be retried and
        // a later failure still surfaces (no deadlock, no cached error).
        assert!(store.get_range("missing", 0, 8).is_err());
        // Real data still works afterwards.
        store.get_range("blob", 0, 8).unwrap();
        assert_eq!(store.hit_stats().0, 0);
    }

    #[test]
    fn lru_eviction_order_survives_interleaved_readers() {
        // Four threads interleave reads over three hot ranges while the
        // budget only holds three entries; afterwards the entry no reader
        // refreshed is the one that a new insert evicts.
        let store = std::sync::Arc::new(CachedStore::new(cloud(), 300));
        store.get_range("blob", 0, 100).unwrap(); // A
        store.get_range("blob", 100, 100).unwrap(); // B
        store.get_range("blob", 200, 100).unwrap(); // C — budget full
        std::thread::scope(|s| {
            for _ in 0..4 {
                let store = store.clone();
                s.spawn(move || {
                    for _ in 0..50 {
                        // Touch A and C, never B.
                        assert_eq!(
                            store.get_range("blob", 0, 100).unwrap().latency.total(),
                            SimDuration::ZERO
                        );
                        assert_eq!(
                            store.get_range("blob", 200, 100).unwrap().latency.total(),
                            SimDuration::ZERO
                        );
                    }
                });
            }
        });
        store.get_range("blob", 300, 100).unwrap(); // D — evicts B (LRU)
        assert!(store.cached_bytes() <= 300);
        assert_eq!(
            store.get_range("blob", 0, 100).unwrap().latency.total(),
            SimDuration::ZERO,
            "A stayed hot"
        );
        assert!(
            store.get_range("blob", 100, 100).unwrap().latency.total() > SimDuration::ZERO,
            "B was the LRU victim"
        );
    }

    #[test]
    fn concurrent_same_range_is_single_flighted() {
        // Eight threads race on one cold range: exactly one pays the
        // simulated cold latency, the rest are served from the cache for
        // free, and the store underneath sees exactly one request.
        for round in 0..20 {
            let inner = InMemoryStore::new();
            inner.put("blob", Bytes::from(vec![9u8; 1 << 16])).unwrap();
            let sim = SimulatedCloudStore::new(inner, LatencyModel::gcs_like(), round);
            let store = std::sync::Arc::new(CachedStore::new(sim, 1 << 20));
            let charged: Vec<SimDuration> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..8)
                    .map(|_| {
                        let store = store.clone();
                        s.spawn(move || store.get_range("blob", 0, 1024).unwrap().latency.total())
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let paid: Vec<&SimDuration> =
                charged.iter().filter(|l| **l > SimDuration::ZERO).collect();
            assert_eq!(paid.len(), 1, "exactly one cold fetch is charged");
            assert_eq!(
                store.hit_stats(),
                (7, 1),
                "7 followers hit, 1 leader missed"
            );
            assert_eq!(
                store.inner().stats().read_requests,
                1,
                "the backend saw a single request"
            );
            // All eight observed identical bytes.
            let reference = store.get_range("blob", 0, 1024).unwrap().bytes;
            assert_eq!(&reference[..], &[9u8; 1024][..]);
        }
    }

    /// Which call a [`StallingStore`] parks.
    #[derive(PartialEq)]
    enum Stall {
        /// `get_range` parks *after* reading: the caller ends up holding
        /// pre-write bytes across whatever the test interleaves.
        Reads,
        /// `put` parks *before* writing, so a read can be interleaved
        /// into the invalidate→write window.
        Puts,
    }

    /// Delegates to an [`InMemoryStore`] but parks one kind of call on a
    /// gate and flags when it has started — lets tests interleave a write
    /// with an in-flight read (or the reverse) deterministically.
    struct StallingStore {
        inner: InMemoryStore,
        stall: Stall,
        started: StdMutex<bool>,
        started_cv: Condvar,
        gate: StdMutex<bool>,
        gate_cv: Condvar,
    }

    impl StallingStore {
        fn new(inner: InMemoryStore, stall: Stall) -> Self {
            StallingStore {
                inner,
                stall,
                started: StdMutex::new(false),
                started_cv: Condvar::new(),
                gate: StdMutex::new(false),
                gate_cv: Condvar::new(),
            }
        }

        fn wait_for_start(&self) {
            let mut started = self.started.lock().unwrap();
            while !*started {
                started = self.started_cv.wait(started).unwrap();
            }
        }

        fn open_gate(&self) {
            *self.gate.lock().unwrap() = true;
            self.gate_cv.notify_all();
        }

        fn park(&self) {
            {
                *self.started.lock().unwrap() = true;
                self.started_cv.notify_all();
            }
            let mut open = self.gate.lock().unwrap();
            while !*open {
                open = self.gate_cv.wait(open).unwrap();
            }
        }
    }

    impl crate::StoreLayer for StallingStore {
        type Inner = InMemoryStore;
        fn inner(&self) -> &InMemoryStore {
            &self.inner
        }
        fn get_range(&self, name: &str, offset: u64, len: u64) -> crate::Result<Fetched> {
            let result = self.inner.get_range(name, offset, len);
            if self.stall == Stall::Reads {
                self.park();
            }
            result
        }
        fn put(&self, name: &str, data: Bytes) -> crate::Result<()> {
            if self.stall == Stall::Puts {
                self.park();
            }
            self.inner.put(name, data)
        }
    }

    #[test]
    fn write_racing_an_in_flight_fetch_is_not_cached_stale() {
        let inner = InMemoryStore::new();
        inner.put("blob", Bytes::from(vec![1u8; 64])).unwrap();
        let stall = StallingStore::new(inner, Stall::Reads);
        let store = std::sync::Arc::new(CachedStore::new(stall, 1 << 20));
        std::thread::scope(|s| {
            let reader = {
                let store = store.clone();
                s.spawn(move || store.get_range("blob", 0, 64).unwrap())
            };
            // The fetch is in flight (parked inside the backend) when the
            // write lands; the fetched pre-write bytes must not be
            // admitted over it.
            store.inner().wait_for_start();
            store.put("blob", Bytes::from(vec![2u8; 64])).unwrap();
            store.inner().open_gate();
            let old = reader.join().unwrap();
            assert_eq!(&old.bytes[..], &[1u8; 64][..], "read began pre-write");
        });
        let fresh = store.get_range("blob", 0, 64).unwrap();
        assert_eq!(
            &fresh.bytes[..],
            &[2u8; 64][..],
            "stale in-flight bytes must not serve later readers"
        );
    }

    #[test]
    fn fetch_between_invalidate_and_write_cannot_pin_stale_bytes() {
        // The nastier half of the write race: a fetch that *starts after*
        // the write's invalidation but reads the backend *before* the
        // write applies. Its admit looks current, so only the post-write
        // invalidation pass evicts what it cached.
        let inner = InMemoryStore::new();
        inner.put("blob", Bytes::from(vec![1u8; 64])).unwrap();
        let stall = StallingStore::new(inner, Stall::Puts);
        let store = std::sync::Arc::new(CachedStore::new(stall, 1 << 20));
        std::thread::scope(|s| {
            let writer = {
                let store = store.clone();
                // invalidates, then parks inside the backend write
                s.spawn(move || store.put("blob", Bytes::from(vec![2u8; 64])).unwrap())
            };
            store.inner().wait_for_start();
            // Reads pre-write bytes and admits them mid-write.
            let old = store.get_range("blob", 0, 64).unwrap();
            assert_eq!(&old.bytes[..], &[1u8; 64][..], "write not yet applied");
            store.inner().open_gate();
            writer.join().unwrap();
        });
        let fresh = store.get_range("blob", 0, 64).unwrap();
        assert_eq!(
            &fresh.bytes[..],
            &[2u8; 64][..],
            "mid-write admit must not survive the write"
        );
    }

    #[test]
    fn writes_do_not_block_admission_of_other_blobs() {
        // Epochs are per blob: hammering writes on one blob must not stop
        // concurrent fetches of another blob from being admitted.
        let inner = InMemoryStore::new();
        inner.put("hot", Bytes::from(vec![7u8; 1 << 12])).unwrap();
        inner.put("churn", Bytes::from(vec![0u8; 16])).unwrap();
        let store = std::sync::Arc::new(CachedStore::new(inner, 1 << 20));
        std::thread::scope(|s| {
            let store2 = store.clone();
            let writes = s.spawn(move || {
                for i in 0..200 {
                    store2.put("churn", Bytes::from(vec![i as u8; 16])).unwrap();
                }
            });
            for i in 0..50 {
                store.get_range("hot", i * 64, 64).unwrap();
            }
            writes.join().unwrap();
        });
        // Every distinct "hot" range was admitted despite the write storm.
        let (hits_before, _) = store.hit_stats();
        for i in 0..50 {
            store.get_range("hot", i * 64, 64).unwrap();
        }
        let (hits_after, _) = store.hit_stats();
        assert_eq!(hits_after - hits_before, 50, "all hot ranges were cached");
    }

    /// Panics on the first `get_range`, succeeds afterwards.
    struct PanicOnceStore {
        inner: InMemoryStore,
        panicked: std::sync::atomic::AtomicBool,
    }

    impl crate::StoreLayer for PanicOnceStore {
        type Inner = InMemoryStore;
        fn inner(&self) -> &InMemoryStore {
            &self.inner
        }
        fn get_range(&self, name: &str, offset: u64, len: u64) -> crate::Result<Fetched> {
            if !self.panicked.swap(true, Ordering::SeqCst) {
                panic!("injected backend panic");
            }
            self.inner.get_range(name, offset, len)
        }
    }

    #[test]
    fn leader_panic_does_not_strand_followers() {
        let inner = InMemoryStore::new();
        inner.put("blob", Bytes::from(vec![3u8; 64])).unwrap();
        let store = std::sync::Arc::new(CachedStore::new(
            PanicOnceStore {
                inner,
                panicked: std::sync::atomic::AtomicBool::new(false),
            },
            1 << 20,
        ));
        // Many racers: one leader hits the injected panic; the claim
        // guard still releases the flight, so the others recover and
        // complete instead of hanging on the condvar forever.
        let ok: usize = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let store = store.clone();
                    s.spawn(move || {
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            store.get_range("blob", 0, 64).unwrap().bytes
                        }))
                        .is_ok()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .filter(|&ok| ok)
                .count()
        });
        assert_eq!(ok, 3, "one panicking leader, three recovered followers");
        // The key is serviceable afterwards.
        assert_eq!(store.get_range("blob", 0, 64).unwrap().bytes.len(), 64);
    }

    #[test]
    fn intra_batch_duplicate_of_oversized_range_is_not_refetched() {
        // Budget 128 B, range 1 KiB: the leader's bytes are never
        // admitted, so the duplicate occurrence cannot be served from the
        // cache — it must ride on the leader's fetched part instead of
        // paying the backend a second time for identical bytes.
        let store = CachedStore::new(cloud(), 128);
        let reqs = vec![
            RangeRequest::new("blob", 0, 1024),
            RangeRequest::new("blob", 0, 1024),
        ];
        let batch = store.get_ranges(&reqs).unwrap();
        assert_eq!(batch.parts.len(), 2);
        assert_eq!(&batch.parts[0].bytes[..], &batch.parts[1].bytes[..]);
        assert_eq!(
            store.inner().stats().read_requests,
            1,
            "the duplicate must not re-fetch from the backend"
        );
        // Exactly one count per logical read: 1 miss (leader) + 1 hit
        // (duplicate served from the leader's part). The old fallback
        // charged a second miss through `get_range`.
        assert_eq!(store.hit_stats(), (1, 1));
    }

    #[test]
    fn duplicate_heavy_batch_accounting_is_exact() {
        let store = CachedStore::new(cloud(), 1 << 20);
        store.get_range("blob", 0, 64).unwrap(); // warm one range: 1 miss
        let reqs = vec![
            RangeRequest::new("blob", 0, 64),  // hit
            RangeRequest::new("blob", 0, 64),  // duplicate of a hit
            RangeRequest::new("blob", 64, 64), // miss
            RangeRequest::new("blob", 64, 64), // duplicate of a miss
            RangeRequest::new("blob", 64, 64), // and again
        ];
        let batch = store.get_ranges(&reqs).unwrap();
        for w in batch.parts.windows(2).take(1) {
            assert_eq!(&w[0].bytes[..], &w[1].bytes[..]);
        }
        assert_eq!(&batch.parts[2].bytes[..], &batch.parts[3].bytes[..]);
        assert_eq!(&batch.parts[3].bytes[..], &batch.parts[4].bytes[..]);
        let (hits, misses) = store.hit_stats();
        assert_eq!(hits + misses, 1 + 5, "one count per logical read");
        assert_eq!((hits, misses), (4, 2));
    }

    #[test]
    fn follower_fallback_is_batched_not_serial() {
        // Eight threads race on the same batch of K oversized ranges
        // (budget 128 B, ranges 1 KiB: never admitted). One thread leads
        // the first backend batch; every other thread's follower wait
        // comes back empty and must fall back — as ONE concurrent batch,
        // not K serial `get_range` round trips.
        const K: u64 = 6;
        let inner = InMemoryStore::new();
        inner.put("blob", Bytes::from(vec![9u8; 1 << 16])).unwrap();
        let sim = SimulatedCloudStore::new(inner, LatencyModel::gcs_like(), 77);
        let store = std::sync::Arc::new(CachedStore::new(sim, 128));
        let reqs: Vec<RangeRequest> = (0..K)
            .map(|i| RangeRequest::new("blob", i * 1024, 1024))
            .collect();
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(8));
        let latencies: Vec<(SimDuration, SimDuration)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let store = store.clone();
                    let reqs = reqs.clone();
                    let barrier = barrier.clone();
                    s.spawn(move || {
                        barrier.wait();
                        let batch = store.get_ranges(&reqs).unwrap();
                        for (i, p) in batch.parts.iter().enumerate() {
                            assert_eq!(p.bytes.len(), 1024, "part {i} intact");
                        }
                        (batch.batch_wait, batch.batch_latency)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Nothing was admittable, so every thread fetched every range
        // from the backend exactly once…
        assert_eq!(store.inner().stats().read_requests, 8 * K);
        let (hits, misses) = store.hit_stats();
        assert_eq!((hits, misses), (0, 8 * K), "one miss per logical read");
        // …but in batch-shaped rounds: the old fallback issued one
        // single-range backend request per follower per range (1 + 7·K
        // batches); batched fallbacks stay well under that.
        assert!(
            store.inner().stats().batches < 1 + 7 * K,
            "fallbacks must coalesce into batches, saw {} backend batches",
            store.inner().stats().batches
        );
        // Batch-shaped latency: a serial fallback would charge the SUM of
        // K ~45 ms waits (≈ 270 ms); a concurrent batch charges maxes.
        // Rounds overlap, so even a straggler stays far below the sum.
        for (wait, total) in &latencies {
            assert!(
                wait.as_millis_f64() < 150.0,
                "wait {wait} must be max-shaped, not a {K}-round-trip sum"
            );
            assert!(*total >= *wait);
        }
    }

    #[test]
    fn concurrent_batches_sharing_ranges_do_not_double_fetch() {
        let store = std::sync::Arc::new(CachedStore::new(cloud(), 1 << 20));
        let reqs: Vec<RangeRequest> = (0..6)
            .map(|i| RangeRequest::new("blob", i * 512, 512))
            .collect();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let store = store.clone();
                let reqs = reqs.clone();
                s.spawn(move || {
                    let batch = store.get_ranges(&reqs).unwrap();
                    assert_eq!(batch.parts.len(), 6);
                    for (i, p) in batch.parts.iter().enumerate() {
                        assert_eq!(p.bytes.len(), 512, "part {i} intact");
                    }
                });
            }
        });
        // 8 threads × 6 ranges, but each distinct range was fetched from
        // the backend exactly once.
        assert_eq!(store.inner().stats().read_requests, 6);
        let (hits, misses) = store.hit_stats();
        assert_eq!(misses, 6);
        assert_eq!(hits + misses, 8 * 6);
    }

    // -- tiered admission ---------------------------------------------------

    #[test]
    fn data_scan_cannot_evict_index_ranges() {
        // THE tiering regression test: a Data-heavy scan far exceeding the
        // data budget must not evict an Index-class range.
        let store = CachedStore::with_budgets(cloud(), 300, 200);
        store
            .get_ranges(&[RangeRequest::index("blob", 0, 128)])
            .unwrap();
        assert_eq!(store.stats().index_bytes, 128);
        // Scan 64 data ranges of 100 B through a 300 B data budget.
        for i in 0..64 {
            store.get_range("blob", 1_000 + i * 100, 100).unwrap();
        }
        let warm = store
            .get_ranges(&[RangeRequest::index("blob", 0, 128)])
            .unwrap();
        assert_eq!(
            warm.batch_latency,
            SimDuration::ZERO,
            "index range must survive the data scan"
        );
        let stats = store.stats();
        assert_eq!(stats.index_hits, 1);
        assert_eq!(stats.index_misses, 1);
        assert_eq!(stats.data_misses, 64);
        assert_eq!(stats.index_bytes, 128);
        assert!(stats.data_bytes <= 300);
    }

    #[test]
    fn flat_cache_baseline_evicts_index_under_data_pressure() {
        // With tiering disabled (index budget 0), the same workload DOES
        // evict the index range — the behaviour tiering exists to fix.
        let store = CachedStore::with_budgets(cloud(), 300, 0);
        store
            .get_ranges(&[RangeRequest::index("blob", 0, 128)])
            .unwrap();
        for i in 0..64 {
            store.get_range("blob", 1_000 + i * 100, 100).unwrap();
        }
        let refetch = store
            .get_ranges(&[RangeRequest::index("blob", 0, 128)])
            .unwrap();
        assert!(
            refetch.batch_latency > SimDuration::ZERO,
            "flat cache loses the index range to data churn"
        );
        assert_eq!(store.stats().index_misses, 2);
    }

    #[test]
    fn oversized_index_range_falls_back_to_data_tier() {
        // An index range bigger than the whole index budget is cached in
        // the data tier instead — never worse than the flat cache.
        let store = CachedStore::with_budgets(cloud(), 1 << 20, 64);
        store
            .get_ranges(&[RangeRequest::index("blob", 0, 1024)])
            .unwrap();
        let stats = store.stats();
        assert_eq!(stats.index_bytes, 0);
        assert_eq!(stats.data_bytes, 1024);
        // …and still hits on re-read.
        let warm = store
            .get_ranges(&[RangeRequest::index("blob", 0, 1024)])
            .unwrap();
        assert_eq!(warm.batch_latency, SimDuration::ZERO);
        assert_eq!(store.stats().index_hits, 1);
    }

    #[test]
    fn index_tier_evicts_lru_among_index_entries_only() {
        let store = CachedStore::with_budgets(cloud(), 1 << 20, 200);
        store
            .get_ranges(&[RangeRequest::index("blob", 0, 100)])
            .unwrap(); // A
        store
            .get_ranges(&[RangeRequest::index("blob", 100, 100)])
            .unwrap(); // B — index tier full
        store
            .get_ranges(&[RangeRequest::index("blob", 0, 100)])
            .unwrap(); // A refreshed
        store
            .get_ranges(&[RangeRequest::index("blob", 200, 100)])
            .unwrap(); // C — evicts B (LRU within the tier)
        assert!(store.stats().index_bytes <= 200);
        let a = store
            .get_ranges(&[RangeRequest::index("blob", 0, 100)])
            .unwrap();
        assert_eq!(a.batch_latency, SimDuration::ZERO, "A survived");
        let b = store
            .get_ranges(&[RangeRequest::index("blob", 100, 100)])
            .unwrap();
        assert!(b.batch_latency > SimDuration::ZERO, "B was the victim");
    }

    #[test]
    fn writes_invalidate_index_tier_too() {
        let store = CachedStore::with_budgets(cloud(), 1 << 20, 1 << 16);
        store
            .get_ranges(&[RangeRequest::index("blob", 0, 16)])
            .unwrap();
        assert_eq!(store.stats().index_bytes, 16);
        store.put("blob", Bytes::from(vec![5u8; 1 << 16])).unwrap();
        assert_eq!(store.stats().index_bytes, 0, "invalidated");
        let refetched = store
            .get_ranges(&[RangeRequest::index("blob", 0, 16)])
            .unwrap();
        assert!(refetched.batch_latency > SimDuration::ZERO);
        assert_eq!(&refetched.parts[0].bytes[..], &[5u8; 16]);
    }

    #[test]
    fn per_tier_accounting_is_exact() {
        // hits + misses == logical reads, and each ledger only counts its
        // own class — including intra-batch duplicates.
        let store = CachedStore::with_budgets(cloud(), 1 << 20, 1 << 16);
        let reqs = vec![
            RangeRequest::index("blob", 0, 64), // index miss
            RangeRequest::index("blob", 0, 64), // duplicate → index hit
            RangeRequest::new("blob", 64, 64),  // data miss
            RangeRequest::new("blob", 128, 64), // data miss
            RangeRequest::new("blob", 128, 64), // duplicate → data hit
        ];
        store.get_ranges(&reqs).unwrap();
        let s = store.stats();
        assert_eq!((s.index_hits, s.index_misses), (1, 1));
        assert_eq!((s.data_hits, s.data_misses), (1, 2));
        assert_eq!(s.hits() + s.misses(), 5, "one count per logical read");
        assert_eq!(store.hit_stats(), (2, 3), "summed view stays compatible");
        assert!((s.hit_rate() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn default_budget_reserves_an_index_slice() {
        // `new` carves out budget/8 for the index tier in addition to the
        // data budget, so header pinning works without opting in.
        let store = CachedStore::new(cloud(), 800);
        store
            .get_ranges(&[RangeRequest::index("blob", 0, 64)])
            .unwrap();
        for i in 0..32 {
            store.get_range("blob", 1_000 + i * 100, 100).unwrap();
        }
        let warm = store
            .get_ranges(&[RangeRequest::index("blob", 0, 64)])
            .unwrap();
        assert_eq!(warm.batch_latency, SimDuration::ZERO);
    }
}
