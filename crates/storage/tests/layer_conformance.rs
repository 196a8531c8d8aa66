//! Layer conformance: every single-inner store layer, wrapped around an
//! [`InMemoryStore`], answers one script of `ObjectStore` calls exactly
//! as the bare store does, and keeps the inner store's atomic
//! compare-and-swap under an 8-thread race.
//!
//! Layers that change reads (latency, retries, caching, coalescing) must
//! still return the same bytes, versions, sizes, listings and errors; only
//! simulated latencies may differ, so the transcript leaves them out.

use airphant_storage::{
    CachedStore, CoalescingStore, FlakyStore, InMemoryStore, LatencyModel, ObjectStore,
    RangeRequest, RetryingStore, SchedulerConfig, SimDuration, SimulatedCloudStore, StorageError,
    TailStore, Version,
};
use bytes::Bytes;
use std::fmt::Debug;
use std::sync::{Arc, Barrier};

/// Every layer under test, each over a fresh, empty [`InMemoryStore`].
fn layers() -> Vec<(&'static str, Arc<dyn ObjectStore>)> {
    let bare = InMemoryStore::new;
    let backoff = SimDuration::from_millis(1);
    let coalesce_only = SchedulerConfig::new().coalesce_only();
    let cloud = LatencyModel::gcs_like();
    vec![
        ("flaky p=0", Arc::new(FlakyStore::new(bare(), 0.0, 7))),
        ("retrying", Arc::new(RetryingStore::new(bare(), 3, backoff))),
        ("cached", Arc::new(CachedStore::new(bare(), 1 << 20))),
        (
            "coalesce-only",
            Arc::new(CoalescingStore::with_config(bare(), coalesce_only)),
        ),
        // The default config fuses concurrent batches over a window.
        ("coalescing, fused", Arc::new(CoalescingStore::new(bare()))),
        (
            "simulated cloud",
            Arc::new(SimulatedCloudStore::new(bare(), cloud, 3)),
        ),
        // No script name starts with the staging prefix, so every call
        // reaches the inner store.
        (
            "tail",
            Arc::new(TailStore::new(Arc::new(bare()), "staged/")),
        ),
        ("arc", Arc::new(Arc::new(bare()))),
    ]
}

/// Run the script against `store` and return the transcript of every
/// call's result. Success values any store must produce are asserted
/// on the way.
fn script(store: &dyn ObjectStore) -> Vec<String> {
    let mut log = Vec::new();
    let mut rec = |r: &dyn Debug| log.push(format!("{r:?}"));
    let get = |name: &str| store.get(name).map(|f| f.bytes);
    let range = |name: &str, offset, len| store.get_range(name, offset, len).map(|f| f.bytes);
    let batch = |reqs: &[RangeRequest]| {
        let parts = store.get_ranges(reqs)?.parts;
        Ok::<_, StorageError>(parts.into_iter().map(|p| p.bytes).collect::<Vec<_>>())
    };
    for (name, data) in [("a/1", "hello world"), ("a/2", "goodbye"), ("b/1", "xyz")] {
        rec(&store.put(name, Bytes::from(data)));
    }

    let whole = get("a/1");
    assert_eq!(&whole.as_ref().unwrap()[..], b"hello world");
    rec(&whole);
    rec(&get("missing"));
    let word = range("a/1", 6, 5);
    assert_eq!(&word.as_ref().unwrap()[..], b"world");
    rec(&word);
    rec(&range("a/1", 8, 10));
    let parts = batch(&[
        RangeRequest::new("a/1", 0, 5),
        RangeRequest::index("a/2", 0, 7),
        RangeRequest::superpost("b/1", 1, 2),
        RangeRequest::new("a/1", 0, 5),
    ]);
    let expected: Vec<Bytes> = ["hello", "goodbye", "yz", "hello"].map(Bytes::from).into();
    assert_eq!(parts.as_ref().unwrap(), &expected);
    rec(&parts);
    rec(&batch(&[
        RangeRequest::new("b/1", 0, 3),
        RangeRequest::new("gone", 0, 1),
    ]));

    // Compare-and-swap: a winning replace, a losing one from the same
    // (now stale) version, and a create from `Absent`.
    let v = store.version_of("a/1").unwrap();
    assert_eq!(v, Version::of_bytes(b"hello world"));
    rec(&store.version_of("missing"));
    let won = store.put_if_version("a/1", Bytes::from("HELLO WORLD"), v);
    assert_eq!(won.as_ref().unwrap(), &Version::of_bytes(b"HELLO WORLD"));
    rec(&won);
    let lost = store.put_if_version("a/1", Bytes::from("stale"), v);
    assert!(matches!(lost, Err(StorageError::VersionMismatch { .. })));
    rec(&lost);
    rec(&store.put_if_version("c", Bytes::from("new"), Version::Absent));
    // The winner's bytes are what every read path sees now.
    rec(&get("a/1"));
    assert_eq!(&range("a/1", 0, 5).unwrap()[..], b"HELLO");

    let size = store.size_of("a/1");
    assert_eq!(size.as_ref().unwrap(), &11);
    rec(&size);
    rec(&store.size_of("missing"));
    assert!(store.exists("a/1"));
    assert!(!store.exists("missing"));
    let listed = store.list("");
    assert_eq!(listed.as_ref().unwrap(), &["a/1", "a/2", "b/1", "c"]);
    rec(&listed);
    let usage = store.usage("a/");
    assert_eq!(usage.as_ref().unwrap(), &18);
    rec(&usage);

    // A delete removes the blob from every view; a second delete errs.
    rec(&store.delete("a/2"));
    rec(&store.delete("a/2"));
    assert!(!store.exists("a/2"));
    rec(&get("a/2"));
    rec(&store.list("a/"));
    rec(&store.usage(""));
    log
}

#[test]
fn every_layer_answers_the_script_like_the_bare_store() {
    let expected = script(&InMemoryStore::new());
    for (name, store) in layers() {
        assert_eq!(script(store.as_ref()), expected, "layer: {name}");
    }
}

#[test]
fn every_layer_keeps_put_if_version_atomic() {
    const WRITERS: usize = 8;
    for (name, store) in layers() {
        store.put("m", Bytes::from("start")).unwrap();
        for round in 0..20 {
            let from = store.version_of("m").unwrap();
            let barrier = Barrier::new(WRITERS);
            let winners: Vec<Bytes> = std::thread::scope(|s| {
                let writers: Vec<_> = (0..WRITERS)
                    .map(|w| {
                        let (store, barrier) = (&store, &barrier);
                        s.spawn(move || {
                            let data = Bytes::from(format!("round {round} writer {w}"));
                            barrier.wait();
                            match store.put_if_version("m", data.clone(), from) {
                                Ok(_) => Some(data),
                                Err(StorageError::VersionMismatch { .. }) => None,
                                Err(e) => panic!("{name}: unexpected error {e:?}"),
                            }
                        })
                    })
                    .collect();
                writers
                    .into_iter()
                    .filter_map(|h| h.join().unwrap())
                    .collect()
            });
            assert_eq!(winners.len(), 1, "{name}, round {round}: one winner");
            assert_eq!(store.get("m").unwrap().bytes, winners[0], "{name}");
        }
    }
}
