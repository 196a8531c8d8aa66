//! [`TailStore`]: an in-memory overlay over a durable object store, the
//! storage half of streaming ingestion.
//!
//! A memtable must serve freshly appended documents through the *same*
//! staged planner that serves durable segments — and that planner batches
//! every segment's ranged reads through one store handle
//! (`get_ranges`). The overlay makes that possible: the memtable's
//! mini-index and its future corpus blob are **staged** in an in-memory
//! tail map layered over the durable store, so one [`TailStore`] handle
//! resolves durable blobs from the inner store and staged blobs from
//! memory, mixed freely within a single batch.
//!
//! The overlay is a first-class [`ObjectStore`], so it composes with the
//! rest of the stack: beneath a cache, above a [`crate::FlakyStore`] for
//! crash-during-flush tests, or over a [`crate::SimulatedCloudStore`].

use crate::object_store::{BatchFetch, Fetched, ObjectStore, RangeRequest, Version};
use crate::{Result, StorageError};
use bytes::Bytes;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

/// An in-memory tail of staged blobs layered over a durable store.
///
/// Routing rules:
///
/// * Reads and metadata (`get`, `get_range`, `get_ranges`, `size_of`,
///   `exists`, `version_of`) consult the tail first and fall through to
///   the inner store; `list` and `usage` cover both. Tail hits cost zero
///   simulated latency — they are local memory, not cloud round trips,
///   which is exactly the freshness story: a just-appended doc is
///   searchable without waiting for durability.
/// * Writes under the configured **staging prefix** land in the tail;
///   everything else (real segment builds, manifests, corpus flushes)
///   goes straight to the inner store — so a flush pays real (simulated,
///   possibly fault-injected) I/O while memtable rebuilds stay free.
/// * [`TailStore::stage`] / [`TailStore::unstage`] pin arbitrary names
///   into the tail regardless of prefix. Ingestion stages the corpus
///   batch under its *final durable name* up front, so document hits
///   carry identical `(blob, offset, len)` coordinates before and after
///   the flush makes the blob real.
pub struct TailStore {
    inner: Arc<dyn ObjectStore>,
    staging_prefix: String,
    tail: RwLock<BTreeMap<String, Bytes>>,
}

impl TailStore {
    /// Overlay `inner` with an empty tail. Writes whose name starts with
    /// `staging_prefix` are held in memory; all other writes delegate.
    pub fn new(inner: Arc<dyn ObjectStore>, staging_prefix: impl Into<String>) -> Self {
        TailStore {
            inner,
            staging_prefix: staging_prefix.into(),
            tail: RwLock::new(BTreeMap::new()),
        }
    }

    /// The durable store beneath the overlay.
    pub fn inner(&self) -> &dyn ObjectStore {
        &*self.inner
    }

    /// The prefix whose writes are held in the tail.
    pub fn staging_prefix(&self) -> &str {
        &self.staging_prefix
    }

    /// Pin `data` into the tail under `name`, regardless of prefix. Reads
    /// of `name` resolve from memory until [`TailStore::unstage`].
    pub fn stage(&self, name: &str, data: Bytes) {
        self.tail.write().insert(name.to_owned(), data);
    }

    /// Drop a staged blob; reads fall through to the inner store again.
    /// Returns whether the name was staged.
    pub fn unstage(&self, name: &str) -> bool {
        self.tail.write().remove(name).is_some()
    }

    /// Drop every staged blob under `prefix`; returns how many were held.
    pub fn unstage_prefix(&self, prefix: &str) -> usize {
        let mut tail = self.tail.write();
        let doomed: Vec<String> = tail
            .range(prefix.to_owned()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect();
        for name in &doomed {
            tail.remove(name);
        }
        doomed.len()
    }

    /// Whether `name` currently resolves from the tail.
    pub fn is_staged(&self, name: &str) -> bool {
        self.tail.read().contains_key(name)
    }

    /// Number of blobs currently held in the tail.
    pub fn staged_count(&self) -> usize {
        self.tail.read().len()
    }

    /// Total bytes currently held in the tail.
    pub fn staged_bytes(&self) -> u64 {
        self.tail.read().values().map(|b| b.len() as u64).sum()
    }

    fn staged_range(&self, name: &str, offset: u64, len: u64) -> Option<Result<Fetched>> {
        let tail = self.tail.read();
        let data = tail.get(name)?;
        let end = match offset.checked_add(len).filter(|&e| e <= data.len() as u64) {
            Some(e) => e,
            None => {
                return Some(Err(StorageError::RangeOutOfBounds {
                    name: name.to_owned(),
                    offset,
                    len,
                    blob_size: data.len() as u64,
                }))
            }
        };
        Some(Ok(Fetched::instant(
            data.slice(offset as usize..end as usize),
        )))
    }
}

impl std::fmt::Debug for TailStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TailStore")
            .field("staging_prefix", &self.staging_prefix)
            .field("staged_count", &self.staged_count())
            .finish_non_exhaustive()
    }
}

impl crate::StoreLayer for TailStore {
    type Inner = dyn ObjectStore;

    fn inner(&self) -> &Self::Inner {
        &*self.inner
    }

    fn put(&self, name: &str, data: Bytes) -> Result<()> {
        if name.starts_with(&self.staging_prefix) {
            self.stage(name, data);
            Ok(())
        } else {
            self.inner().put(name, data)
        }
    }

    fn get(&self, name: &str) -> Result<Fetched> {
        if let Some(data) = self.tail.read().get(name) {
            return Ok(Fetched::instant(data.clone()));
        }
        self.inner().get(name)
    }

    fn get_range(&self, name: &str, offset: u64, len: u64) -> Result<Fetched> {
        match self.staged_range(name, offset, len) {
            Some(res) => res,
            None => self.inner().get_range(name, offset, len),
        }
    }

    fn get_ranges(&self, requests: &[RangeRequest]) -> Result<BatchFetch> {
        // Partition: staged parts are free local reads; the rest stays
        // ONE inner batch so the backend's batch semantics (correlated
        // sampling, shared bandwidth, per-batch fault injection) hold.
        let mut parts: Vec<Option<Fetched>> = vec![None; requests.len()];
        let mut fallthrough = Vec::new();
        for (i, r) in requests.iter().enumerate() {
            match self.staged_range(&r.name, r.offset, r.len) {
                Some(res) => parts[i] = Some(res?),
                None => fallthrough.push((i, r.clone())),
            }
        }
        let (batch_wait, batch_download) = if fallthrough.is_empty() {
            (crate::SimDuration::ZERO, crate::SimDuration::ZERO)
        } else {
            let inner_requests: Vec<RangeRequest> =
                fallthrough.iter().map(|(_, r)| r.clone()).collect();
            let inner_batch = self.inner().get_ranges(&inner_requests)?;
            for ((i, _), fetched) in fallthrough.iter().zip(inner_batch.parts) {
                parts[*i] = Some(fetched);
            }
            (inner_batch.batch_wait, inner_batch.batch_download)
        };
        let parts: Vec<Fetched> = parts
            .into_iter()
            .map(|p| p.expect("every request resolved from tail or inner"))
            .collect();
        Ok(BatchFetch {
            parts,
            batch_latency: batch_wait + batch_download,
            batch_wait,
            batch_download,
        })
    }

    fn version_of(&self, name: &str) -> Result<Version> {
        if let Some(data) = self.tail.read().get(name) {
            return Ok(Version::of_bytes(data));
        }
        self.inner().version_of(name)
    }

    fn put_if_version(&self, name: &str, data: Bytes, expected: Version) -> Result<Version> {
        if name.starts_with(&self.staging_prefix) || self.is_staged(name) {
            // CAS within the tail, serialized under one write lock.
            let mut tail = self.tail.write();
            let actual = tail
                .get(name)
                .map(|d| Version::of_bytes(d))
                .unwrap_or(Version::Absent);
            if actual != expected {
                return Err(StorageError::VersionMismatch {
                    name: name.to_owned(),
                    expected,
                    actual,
                });
            }
            let next = Version::of_bytes(&data);
            tail.insert(name.to_owned(), data);
            return Ok(next);
        }
        self.inner().put_if_version(name, data, expected)
    }

    fn size_of(&self, name: &str) -> Result<u64> {
        if let Some(data) = self.tail.read().get(name) {
            return Ok(data.len() as u64);
        }
        self.inner().size_of(name)
    }

    fn exists(&self, name: &str) -> bool {
        self.is_staged(name) || self.inner().exists(name)
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        let mut names = self.inner().list(prefix)?;
        {
            let tail = self.tail.read();
            names.extend(
                tail.range(prefix.to_owned()..)
                    .take_while(|(k, _)| k.starts_with(prefix))
                    .map(|(k, _)| k.clone()),
            );
        }
        names.sort();
        names.dedup();
        Ok(names)
    }

    fn delete(&self, name: &str) -> Result<()> {
        if self.tail.write().remove(name).is_some() {
            return Ok(());
        }
        self.inner().delete(name)
    }

    // Staged blobs count. The layer default (`inner.usage`) would miss
    // them, and the memtable sizes its staged mini-index through this.
    fn usage(&self, prefix: &str) -> Result<u64> {
        let mut total = 0;
        for name in ObjectStore::list(self, prefix)? {
            total += ObjectStore::size_of(self, &name)?;
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InMemoryStore;

    fn overlay() -> TailStore {
        TailStore::new(Arc::new(InMemoryStore::new()), "idx/.memtable/")
    }

    #[test]
    fn staging_prefix_writes_stay_in_memory() {
        let store = overlay();
        store
            .put("idx/.memtable/b0/header", Bytes::from_static(b"hdr"))
            .unwrap();
        store
            .put("idx/seg-1/header", Bytes::from_static(b"dur"))
            .unwrap();
        assert!(store.is_staged("idx/.memtable/b0/header"));
        assert!(!store.is_staged("idx/seg-1/header"));
        assert!(store.inner().exists("idx/seg-1/header"));
        assert!(!store.inner().exists("idx/.memtable/b0/header"));
        assert_eq!(
            &store.get("idx/.memtable/b0/header").unwrap().bytes[..],
            b"hdr"
        );
        assert_eq!(&store.get("idx/seg-1/header").unwrap().bytes[..], b"dur");
    }

    #[test]
    fn staged_blob_shadows_inner_until_unstaged() {
        let store = overlay();
        store
            .inner()
            .put("c/batch", Bytes::from_static(b"durable"))
            .unwrap();
        store.stage("c/batch", Bytes::from_static(b"staged!"));
        assert_eq!(&store.get("c/batch").unwrap().bytes[..], b"staged!");
        assert!(store.unstage("c/batch"));
        assert_eq!(&store.get("c/batch").unwrap().bytes[..], b"durable");
        assert!(!store.unstage("c/batch"));
    }

    #[test]
    fn mixed_batches_resolve_in_request_order() {
        let store = overlay();
        store
            .inner()
            .put("dur", Bytes::from_static(b"0123456789"))
            .unwrap();
        store.stage("tail", Bytes::from_static(b"abcdefghij"));
        let batch = store
            .get_ranges(&[
                RangeRequest::new("tail", 0, 3),
                RangeRequest::new("dur", 2, 4),
                RangeRequest::new("tail", 5, 5),
                RangeRequest::new("dur", 0, 1),
            ])
            .unwrap();
        let got: Vec<&[u8]> = batch.parts.iter().map(|p| &p.bytes[..]).collect();
        assert_eq!(got, vec![&b"abc"[..], b"2345", b"fghij", b"0"]);
    }

    #[test]
    fn tail_only_batches_cost_zero_latency() {
        let store = overlay();
        store.stage("t", Bytes::from_static(b"xyz"));
        let batch = store.get_ranges(&[RangeRequest::new("t", 0, 3)]).unwrap();
        assert_eq!(batch.batch_latency, crate::SimDuration::ZERO);
    }

    #[test]
    fn staged_range_bounds_are_checked() {
        let store = overlay();
        store.stage("t", Bytes::from_static(b"0123"));
        assert!(matches!(
            store.get_range("t", 2, 5),
            Err(StorageError::RangeOutOfBounds { blob_size: 4, .. })
        ));
        assert!(store.get_range("t", u64::MAX, 1).is_err());
        assert_eq!(&store.get_range("t", 1, 2).unwrap().bytes[..], b"12");
    }

    #[test]
    fn list_merges_tail_and_inner_sorted() {
        let store = overlay();
        store.inner().put("a/1", Bytes::new()).unwrap();
        store.inner().put("a/3", Bytes::new()).unwrap();
        store.stage("a/2", Bytes::new());
        store.stage("a/3", Bytes::new()); // shadowed, not duplicated
        assert_eq!(store.list("a/").unwrap(), vec!["a/1", "a/2", "a/3"]);
    }

    #[test]
    fn unstage_prefix_drops_only_that_prefix() {
        let store = overlay();
        store.stage("idx/.memtable/b0/h", Bytes::new());
        store.stage("idx/.memtable/b0/s", Bytes::new());
        store.stage("idx/.memtable/b1/h", Bytes::new());
        store.stage("c/batch-0", Bytes::new());
        assert_eq!(store.unstage_prefix("idx/.memtable/b0/"), 2);
        assert_eq!(store.staged_count(), 2);
        assert!(store.is_staged("idx/.memtable/b1/h"));
        assert!(store.is_staged("c/batch-0"));
    }

    #[test]
    fn cas_routes_by_staging() {
        let store = overlay();
        // Non-staged name: the CAS reaches the durable store (this is the
        // manifest-publish path — durability must never be faked by the
        // tail).
        let v = store
            .put_if_version("idx/manifest", Bytes::from_static(b"gen1"), Version::Absent)
            .unwrap();
        assert!(store.inner().exists("idx/manifest"));
        store
            .put_if_version("idx/manifest", Bytes::from_static(b"gen2"), v)
            .unwrap();
        assert!(store
            .put_if_version("idx/manifest", Bytes::from_static(b"x"), v)
            .is_err());
        // Staged name: the CAS stays in the tail.
        store
            .put_if_version(
                "idx/.memtable/meta",
                Bytes::from_static(b"m1"),
                Version::Absent,
            )
            .unwrap();
        assert!(store.is_staged("idx/.memtable/meta"));
        assert!(!store.inner().exists("idx/.memtable/meta"));
    }

    #[test]
    fn delete_prefers_tail_then_inner() {
        let store = overlay();
        store.stage("x", Bytes::from_static(b"t"));
        store.inner().put("x", Bytes::from_static(b"d")).unwrap();
        store.delete("x").unwrap();
        assert_eq!(&store.get("x").unwrap().bytes[..], b"d");
        store.delete("x").unwrap();
        assert!(store.delete("x").is_err());
    }
}
