//! The [`ObjectStore`] trait: the blob-store API every component of the
//! reproduction reads and writes through.
//!
//! The paper assumes (§III-A) that cloud storage offers *random reads* —
//! fetching bytes from an arbitrary offset without a full-object read — which
//! all major vendors support via HTTP `Range` headers. The Airphant Builder
//! relies on this to pack many superposts into a single blob while the
//! Searcher retrieves any one of them in a single round-trip.

use crate::latency::{LatencySample, SimDuration};
use crate::{Result, StorageError};
use bytes::Bytes;

/// A blob's version token for conditional (compare-and-swap) writes.
///
/// Cloud stores expose this as an ETag / object generation; here it is a
/// fingerprint of the blob's content, so any backend can derive it from
/// the bytes it already holds. Content-derived tokens are safe for the
/// manifest workload they serve: every manifest embeds a strictly
/// increasing generation number, so no two competing writes ever carry
/// identical bytes (no ABA window).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Version {
    /// The blob does not exist (a CAS with this token is a create).
    Absent,
    /// The blob exists with this content fingerprint.
    Tag(u64),
}

impl Version {
    /// The version token of a blob holding exactly `data`.
    pub fn of_bytes(data: &[u8]) -> Version {
        // FNV-1a over content + length: stable, dependency-free.
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for &b in data {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash ^= data.len() as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        Version::Tag(hash)
    }
}

impl std::fmt::Display for Version {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Version::Absent => write!(f, "absent"),
            Version::Tag(t) => write!(f, "{t:016x}"),
        }
    }
}

/// A blob payload together with the simulated latency its retrieval cost.
#[derive(Debug, Clone)]
pub struct Fetched {
    /// The fetched bytes.
    pub bytes: Bytes,
    /// Simulated request latency (zero for local backends).
    pub latency: LatencySample,
}

impl Fetched {
    /// Wrap raw bytes with zero latency.
    pub fn instant(bytes: Bytes) -> Self {
        Fetched {
            bytes,
            latency: LatencySample::ZERO,
        }
    }
}

/// Which cache tier a requested range belongs to.
///
/// This is a *hint* threaded through [`ObjectStore::get_ranges`]: backends
/// are free to ignore it, but [`crate::CachedStore`] uses it for tiered
/// admission — Index-class ranges (segment headers, MHT, superpost
/// directory) are held under a small dedicated budget that bulky Data
/// traffic can never evict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RangeClass {
    /// Small, high-fanout index structures touched by every query.
    Index,
    /// Superposting payloads — the per-atom posting bytes every query
    /// intersects. Cached in the Data tier but ledgered separately so
    /// posting traffic and document-verification traffic are
    /// distinguishable in [`crate::CacheStats`].
    Superpost,
    /// Bulk payload bytes (documents fetched for verification).
    #[default]
    Data,
}

/// A single ranged read request within a concurrent batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeRequest {
    /// Blob name.
    pub name: String,
    /// Byte offset of the first byte to read.
    pub offset: u64,
    /// Number of bytes to read.
    pub len: u64,
    /// Cache-tier hint (defaults to [`RangeClass::Data`]).
    pub class: RangeClass,
}

impl RangeRequest {
    /// Convenience constructor for a Data-class request.
    pub fn new(name: impl Into<String>, offset: u64, len: u64) -> Self {
        RangeRequest {
            name: name.into(),
            offset,
            len,
            class: RangeClass::Data,
        }
    }

    /// Convenience constructor for an Index-class request.
    pub fn index(name: impl Into<String>, offset: u64, len: u64) -> Self {
        RangeRequest::new(name, offset, len).with_class(RangeClass::Index)
    }

    /// Convenience constructor for a Superpost-class request.
    pub fn superpost(name: impl Into<String>, offset: u64, len: u64) -> Self {
        RangeRequest::new(name, offset, len).with_class(RangeClass::Superpost)
    }

    /// Set the cache-tier hint.
    pub fn with_class(mut self, class: RangeClass) -> Self {
        self.class = class;
        self
    }
}

/// The result of one concurrent batch of ranged reads.
///
/// `batch_latency` is the *wall-clock* cost of the whole batch under the
/// parallel-request semantics of §II-C: all requests are issued at once, so
/// the batch completes when the slowest stream finishes, while transfers
/// share link bandwidth.
#[derive(Debug, Clone)]
pub struct BatchFetch {
    /// Per-request payloads, in request order.
    pub parts: Vec<Fetched>,
    /// Simulated latency of the whole concurrent batch.
    pub batch_latency: SimDuration,
    /// Wait component of the batch (max time-to-first-byte).
    pub batch_wait: SimDuration,
    /// Download component of the batch (shared-bandwidth transfer).
    pub batch_download: SimDuration,
}

impl BatchFetch {
    /// Total bytes fetched across all parts.
    pub fn total_bytes(&self) -> u64 {
        self.parts.iter().map(|p| p.bytes.len() as u64).sum()
    }
}

/// Abstraction over named-blob storage with ranged and batched reads.
///
/// Implementations must be safe to share across threads; the Builder uploads
/// concurrently and the Searcher issues concurrent read batches.
pub trait ObjectStore: Send + Sync {
    /// Store (create or replace) a blob under `name`.
    fn put(&self, name: &str, data: Bytes) -> Result<()>;

    /// Fetch an entire blob.
    fn get(&self, name: &str) -> Result<Fetched>;

    /// Fetch `len` bytes starting at `offset`.
    fn get_range(&self, name: &str, offset: u64, len: u64) -> Result<Fetched>;

    /// Issue a *single batch of concurrent ranged reads* and return all
    /// payloads plus the simulated latency of the batch.
    ///
    /// The default implementation executes requests back-to-back but
    /// combines their simulated latencies with parallel semantics:
    /// `max(first_byte_i) + sum(transfer_i)` — a conservative model for
    /// backends that do not define their own contention behaviour.
    /// [`crate::SimulatedCloudStore`] overrides this with the calibrated
    /// shared-bandwidth model.
    fn get_ranges(&self, requests: &[RangeRequest]) -> Result<BatchFetch> {
        let mut parts = Vec::with_capacity(requests.len());
        let mut max_fb = SimDuration::ZERO;
        let mut total_transfer = SimDuration::ZERO;
        for r in requests {
            let f = self.get_range(&r.name, r.offset, r.len)?;
            max_fb = max_fb.max(f.latency.first_byte);
            total_transfer += f.latency.transfer;
            parts.push(f);
        }
        Ok(BatchFetch {
            parts,
            batch_latency: max_fb + total_transfer,
            batch_wait: max_fb,
            batch_download: total_transfer,
        })
    }

    /// The blob's current version token ([`Version::Absent`] if missing).
    fn version_of(&self, name: &str) -> Result<Version> {
        match self.get(name) {
            Ok(f) => Ok(Version::of_bytes(&f.bytes)),
            Err(StorageError::BlobNotFound { .. }) => Ok(Version::Absent),
            Err(e) => Err(e),
        }
    }

    /// Atomically replace `name` with `data` **iff** its current version
    /// equals `expected`; returns the new version on success and
    /// [`StorageError::VersionMismatch`] when another writer got there
    /// first. `Version::Absent` expresses create-if-missing.
    ///
    /// This is the compare-and-swap every manifest publish goes through:
    /// concurrent appenders re-read and retry on mismatch instead of
    /// silently overwriting each other. The default implementation is
    /// check-then-put and is only atomic for backends whose reads and
    /// writes already serialize through one lock; [`crate::InMemoryStore`]
    /// and [`crate::LocalFsStore`] override it with a properly serialized
    /// compare-and-swap, and every [`StoreLayer`] delegates to its inner
    /// store unless it overrides the method.
    fn put_if_version(&self, name: &str, data: Bytes, expected: Version) -> Result<Version> {
        let actual = self.version_of(name)?;
        if actual != expected {
            return Err(StorageError::VersionMismatch {
                name: name.to_owned(),
                expected,
                actual,
            });
        }
        let next = Version::of_bytes(&data);
        self.put(name, data)?;
        Ok(next)
    }

    /// Size of a blob in bytes.
    fn size_of(&self, name: &str) -> Result<u64>;

    /// Whether a blob exists.
    fn exists(&self, name: &str) -> bool {
        self.size_of(name).is_ok()
    }

    /// List blob names with the given prefix, in lexicographic order.
    fn list(&self, prefix: &str) -> Result<Vec<String>>;

    /// Delete a blob. Deleting a missing blob is an error.
    fn delete(&self, name: &str) -> Result<()>;

    /// Total bytes stored across blobs matching `prefix` (used for the
    /// storage-usage experiments, Figures 15 and 16d).
    fn usage(&self, prefix: &str) -> Result<u64> {
        let mut total = 0;
        for name in self.list(prefix)? {
            total += self.size_of(&name)?;
        }
        Ok(total)
    }
}

/// A store decorator over one inner store.
///
/// Every [`ObjectStore`] method defaults to the same call on
/// [`StoreLayer::inner`], so a layer writes only the methods whose
/// behaviour it changes; a blanket impl makes every layer an
/// `ObjectStore`. The defaults go to the inner store, never back through
/// `self`: a layer that hooks `get_range` does not thereby hook
/// `get_ranges`, and `put_if_version` reaches the inner store's atomic
/// compare-and-swap instead of a check-then-put through the layer.
///
/// Never import this trait where stores are used. Its methods share
/// their names with `ObjectStore`'s, so with both traits in scope every
/// store call is ambiguous (E0034); name it by path in `impl` headers.
pub trait StoreLayer: Send + Sync {
    /// The wrapped store.
    type Inner: ObjectStore + ?Sized;

    /// The store this layer forwards to.
    fn inner(&self) -> &Self::Inner;

    /// See [`ObjectStore::put`].
    fn put(&self, name: &str, data: Bytes) -> Result<()> {
        ObjectStore::put(self.inner(), name, data)
    }

    /// See [`ObjectStore::get`].
    fn get(&self, name: &str) -> Result<Fetched> {
        ObjectStore::get(self.inner(), name)
    }

    /// See [`ObjectStore::get_range`].
    fn get_range(&self, name: &str, offset: u64, len: u64) -> Result<Fetched> {
        ObjectStore::get_range(self.inner(), name, offset, len)
    }

    /// See [`ObjectStore::get_ranges`].
    fn get_ranges(&self, requests: &[RangeRequest]) -> Result<BatchFetch> {
        ObjectStore::get_ranges(self.inner(), requests)
    }

    /// See [`ObjectStore::version_of`].
    fn version_of(&self, name: &str) -> Result<Version> {
        ObjectStore::version_of(self.inner(), name)
    }

    /// See [`ObjectStore::put_if_version`].
    fn put_if_version(&self, name: &str, data: Bytes, expected: Version) -> Result<Version> {
        ObjectStore::put_if_version(self.inner(), name, data, expected)
    }

    /// See [`ObjectStore::size_of`].
    fn size_of(&self, name: &str) -> Result<u64> {
        ObjectStore::size_of(self.inner(), name)
    }

    /// See [`ObjectStore::exists`].
    fn exists(&self, name: &str) -> bool {
        ObjectStore::exists(self.inner(), name)
    }

    /// See [`ObjectStore::list`].
    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        ObjectStore::list(self.inner(), prefix)
    }

    /// See [`ObjectStore::delete`].
    fn delete(&self, name: &str) -> Result<()> {
        ObjectStore::delete(self.inner(), name)
    }

    /// See [`ObjectStore::usage`].
    fn usage(&self, prefix: &str) -> Result<u64> {
        ObjectStore::usage(self.inner(), prefix)
    }
}

impl<L: StoreLayer> ObjectStore for L {
    fn put(&self, name: &str, data: Bytes) -> Result<()> {
        StoreLayer::put(self, name, data)
    }
    fn get(&self, name: &str) -> Result<Fetched> {
        StoreLayer::get(self, name)
    }
    fn get_range(&self, name: &str, offset: u64, len: u64) -> Result<Fetched> {
        StoreLayer::get_range(self, name, offset, len)
    }
    fn get_ranges(&self, requests: &[RangeRequest]) -> Result<BatchFetch> {
        StoreLayer::get_ranges(self, requests)
    }
    fn version_of(&self, name: &str) -> Result<Version> {
        StoreLayer::version_of(self, name)
    }
    fn put_if_version(&self, name: &str, data: Bytes, expected: Version) -> Result<Version> {
        StoreLayer::put_if_version(self, name, data, expected)
    }
    fn size_of(&self, name: &str) -> Result<u64> {
        StoreLayer::size_of(self, name)
    }
    fn exists(&self, name: &str) -> bool {
        StoreLayer::exists(self, name)
    }
    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        StoreLayer::list(self, prefix)
    }
    fn delete(&self, name: &str) -> Result<()> {
        StoreLayer::delete(self, name)
    }
    fn usage(&self, prefix: &str) -> Result<u64> {
        StoreLayer::usage(self, prefix)
    }
}

/// `Arc<S>` is the identity layer, so shared handles work as stores.
impl<S: ObjectStore + ?Sized> StoreLayer for std::sync::Arc<S> {
    type Inner = S;
    fn inner(&self) -> &S {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InMemoryStore;

    #[test]
    fn default_batch_combines_latencies() {
        let store = InMemoryStore::new();
        store.put("a", Bytes::from_static(b"hello world")).unwrap();
        store.put("b", Bytes::from_static(b"goodbye")).unwrap();
        let batch = store
            .get_ranges(&[RangeRequest::new("a", 0, 5), RangeRequest::new("b", 0, 7)])
            .unwrap();
        assert_eq!(batch.parts.len(), 2);
        assert_eq!(&batch.parts[0].bytes[..], b"hello");
        assert_eq!(&batch.parts[1].bytes[..], b"goodbye");
        assert_eq!(batch.batch_latency, SimDuration::ZERO);
        assert_eq!(batch.total_bytes(), 12);
    }

    #[test]
    fn arc_blanket_impl_works() {
        let arc = std::sync::Arc::new(InMemoryStore::new());
        // `StoreLayer` is in scope here too, so plain method calls on the
        // `Arc` are ambiguous; go through `dyn ObjectStore` instead.
        let store: &dyn ObjectStore = &arc;
        store.put("x", Bytes::from_static(b"12345")).unwrap();
        assert_eq!(store.size_of("x").unwrap(), 5);
        assert!(store.exists("x"));
        assert!(!store.exists("y"));
    }

    #[test]
    fn usage_sums_over_prefix() {
        let store = InMemoryStore::new();
        store
            .put("idx/header", Bytes::from_static(b"1234"))
            .unwrap();
        store
            .put("idx/sp/0", Bytes::from_static(b"123456"))
            .unwrap();
        store.put("docs/a", Bytes::from_static(b"xx")).unwrap();
        assert_eq!(store.usage("idx/").unwrap(), 10);
        assert_eq!(store.usage("").unwrap(), 12);
    }
}
