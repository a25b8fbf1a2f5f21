//! Sharded concurrent maps and order-preserving parallel maps for
//! MINARET's hot shared state.
//!
//! The serving layer runs many worker threads against shared state.
//! Guarding a map with one process-wide lock serializes every worker on
//! every touch; this crate provides the [`ConcurrentMap`] abstraction
//! with two interchangeable implementations:
//!
//! - [`SingleLockMap`] — one `RwLock<HashMap>`, the pre-sharding
//!   design, kept as the observable-behaviour baseline for equivalence
//!   tests and the contention benchmark;
//! - [`ShardedMap`] — N independent `RwLock<HashMap>` shards selected
//!   by the high bits of a deterministic key hash, so operations on
//!   different keys almost never contend and no operation ever takes a
//!   whole-map lock.
//!
//! [`ShardedMap`] backs the source registry's single-flight coalescing
//! map. The result cache keeps its own shards and shares only
//! [`stable_hash`] with this crate.
//!
//! The trait follows the `Collection`/`Handle` shape of concurrent
//! map benchmarks: a map is `Sync`, handed around behind an `Arc`, and
//! every operation goes through `&self`. Values are handed out by
//! clone, so `V` is typically an `Arc` or another pointer-sized handle.
//!
//! Shard selection is a **pure function of the key** (FNV-1a with an
//! avalanche finalizer, fixed seed — no per-process randomness), so
//! tests can place keys on chosen shards deterministically and a key's
//! shard never changes for the life of the process.
//!
//! [`chunked_map`] is the other shared primitive: a map over a slice,
//! split into contiguous chunks across threads and concatenated in
//! chunk order, so its output is element-for-element the sequential
//! one. Filter, rank, assignment scoring and a source's profile builds
//! run on it.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod hash;
mod par;
mod sharded;
mod single;

pub use hash::{stable_hash, FnvBuildHasher, FnvHasher};
pub use par::{chunked_map, MIN_PARALLEL_ITEMS};
pub use sharded::ShardedMap;
pub use single::SingleLockMap;

use std::borrow::Borrow;
use std::hash::Hash;

/// A thread-safe map handing values out by clone.
///
/// All operations take `&self`; implementations choose their own
/// locking granularity. Lookup methods accept any borrowed form of the
/// key (`Q`) whose `Hash`/`Eq` agree with `K`'s, so an
/// `Arc<str>`-keyed map can be probed with a plain `&str` without
/// allocating.
///
/// # Contract for `get_or_insert_with`
///
/// `make` runs **at most once per winning insert**: when several
/// threads race on the same absent key, exactly one runs `make` and
/// every racer receives a clone of that single stored value (the
/// returned flag says whether *this* call was the winner).
/// Implementations may run `make` while holding the lock that guards
/// the key, so `make` must not touch the same map (it may block; only
/// operations contending for the same lock wait behind it — for
/// [`ShardedMap`], one shard).
pub trait ConcurrentMap<K, V>: Send + Sync
where
    K: Hash + Eq + Send + Sync,
    V: Clone + Send + Sync,
{
    /// Clones the value under `key`, if present.
    fn get<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: ?Sized + Hash + Eq;

    /// True when `key` is present.
    fn contains<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: ?Sized + Hash + Eq,
    {
        self.get(key).is_some()
    }

    /// Inserts `value` under `key`, returning the previous value.
    fn insert(&self, key: K, value: V) -> Option<V>;

    /// Removes `key`, returning its value if it was present.
    fn remove<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: ?Sized + Hash + Eq;

    /// Clones the value under `key`, inserting `make()` first when
    /// absent. Returns the value and whether this call inserted it
    /// (`true` exactly once per key among racing callers — the
    /// single-flight leadership test).
    fn get_or_insert_with(&self, key: K, make: impl FnOnce() -> V) -> (V, bool);

    /// Number of entries. For sharded implementations this is a sum of
    /// per-shard counts — exact when quiescent, a consistent snapshot
    /// is not guaranteed under concurrent writers.
    fn len(&self) -> usize;

    /// True when no entries exist (same snapshot caveat as [`len`]).
    ///
    /// [`len`]: ConcurrentMap::len
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes every entry, returning how many were dropped.
    fn clear(&self) -> usize;

    /// Visits every entry. Sharded implementations lock one shard at a
    /// time; entries inserted on already-visited shards during the walk
    /// may be missed (the map is never locked as a whole).
    fn for_each(&self, f: impl FnMut(&K, &V));

    /// Keeps only the entries for which `f` returns true, returning
    /// how many were removed. Same shard-at-a-time caveat as
    /// [`for_each`](ConcurrentMap::for_each).
    fn retain(&self, f: impl FnMut(&K, &mut V) -> bool) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn exercise(map: &impl ConcurrentMap<String, Arc<str>>) {
        assert!(map.is_empty());
        assert_eq!(map.get("a"), None);
        assert_eq!(map.insert("a".into(), Arc::from("1")), None);
        assert_eq!(map.insert("a".into(), Arc::from("2")).as_deref(), Some("1"));
        assert_eq!(map.get("a").as_deref(), Some("2"));
        assert!(map.contains("a"));
        assert!(!map.contains("b"));
        let (v, inserted) = map.get_or_insert_with("b".into(), || Arc::from("3"));
        assert!(inserted);
        assert_eq!(v.as_ref(), "3");
        let (v, inserted) = map.get_or_insert_with("b".into(), || unreachable!("present"));
        assert!(!inserted);
        assert_eq!(v.as_ref(), "3");
        assert_eq!(map.len(), 2);
        assert_eq!(map.remove("a").as_deref(), Some("2"));
        assert_eq!(map.remove("a"), None);
        let mut seen = Vec::new();
        map.for_each(|k, v| seen.push((k.clone(), v.clone())));
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].0, "b");
        map.insert("c".into(), Arc::from("4"));
        assert_eq!(map.retain(|k, _| k == "b"), 1);
        assert_eq!(map.len(), 1);
        assert_eq!(map.clear(), 1);
        assert!(map.is_empty());
    }

    #[test]
    fn single_lock_map_contract() {
        exercise(&SingleLockMap::new());
    }

    #[test]
    fn sharded_map_contract() {
        exercise(&ShardedMap::new());
        exercise(&ShardedMap::with_shards(1));
        exercise(&ShardedMap::with_shards(3)); // rounds up to 4
    }

    #[test]
    fn shard_selection_is_deterministic_and_covers_shards() {
        let map: ShardedMap<u64, u64> = ShardedMap::with_shards(16);
        assert_eq!(map.shard_count(), 16);
        let mut hit = [false; 16];
        for k in 0..4096u64 {
            let s = map.shard_index(&k);
            assert_eq!(s, map.shard_index(&k), "stable per key");
            assert!(s < 16);
            hit[s] = true;
        }
        assert!(hit.iter().all(|&h| h), "4096 keys must touch every shard");
    }

    #[test]
    fn racing_get_or_insert_has_exactly_one_winner_per_key() {
        let map: Arc<ShardedMap<u64, usize>> = Arc::new(ShardedMap::new());
        let builds = Arc::new(AtomicUsize::new(0));
        const KEYS: u64 = 64;
        let handles: Vec<_> = (0..4)
            .map(|tid| {
                let map = Arc::clone(&map);
                let builds = Arc::clone(&builds);
                std::thread::spawn(move || {
                    let mut wins = 0usize;
                    for k in 0..KEYS {
                        let (_, inserted) = map.get_or_insert_with(k, || {
                            builds.fetch_add(1, Ordering::SeqCst);
                            tid
                        });
                        wins += usize::from(inserted);
                    }
                    wins
                })
            })
            .collect();
        let total_wins: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total_wins as u64, KEYS, "one winner per key");
        assert_eq!(
            builds.load(Ordering::SeqCst) as u64,
            KEYS,
            "one build per key"
        );
        assert_eq!(map.len() as u64, KEYS);
    }
}
