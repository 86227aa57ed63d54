//! Lock-sharded wrapper around [`ObjectStore`].
//!
//! The checkpoint leader used to serialize every ORoot/backup access of a
//! round behind one global mutex, held across the whole tree walk, so the
//! lock hold time grew with the store. A [`ShardedStore`] splits the arena
//! into `N` independently locked shards; each operation locks exactly one
//! shard for the duration of that operation, so concurrent readers (the
//! replication shipper, scrub) touching different records proceed in
//! parallel and contention is observable (a counter increments whenever a
//! lock was not immediately available).
//!
//! Mutation is confined to the checkpoint/restore critical sections (the
//! round's leader); no mutator's syscall or fault
//! path touches these arenas. That confinement is what keeps the
//! non-snapshot iterators sound under both checkpoint protocols: under
//! **stop-the-world** every other core is parked for the walk, and under
//! the **epoch flip** the walk runs after the world resumed, but the
//! running cores only write pages — conflicting writes go through the
//! epoch fence — never records.
//!
//! Shard membership is encoded in the [`SlotId`] itself (high bits of the
//! 32-bit index), so ids remain plain, `to_raw`-persistable values and a
//! record's shard can be recomputed from its id alone — nothing about the
//! on-NVM id format changes.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use parking_lot::Mutex;

use crate::store::{ObjectStore, SlotId};

/// Bit position where the shard index lives inside `SlotId::index`.
/// Leaves 2²⁸ slots per shard and up to 16 shards.
const SHARD_SHIFT: u32 = 28;
/// Mask extracting the per-shard local index.
const LOCAL_MASK: u32 = (1 << SHARD_SHIFT) - 1;

/// Default shard count (must be a power-of-two-free value ≤ 16; 8 keeps
/// per-shard contention negligible at the core counts the bench sweeps).
pub const DEFAULT_SHARDS: usize = 8;

/// A sharded generational arena: `N` independent [`ObjectStore`]s, each
/// behind its own short-held mutex.
#[derive(Debug)]
pub struct ShardedStore<T> {
    shards: Vec<Mutex<ObjectStore<T>>>,
    /// Round-robin insertion cursor (spreads records across shards).
    next: AtomicUsize,
    /// Times a shard lock was not immediately available.
    contention: AtomicU64,
}

impl<T> Default for ShardedStore<T> {
    fn default() -> Self {
        Self::new(DEFAULT_SHARDS)
    }
}

impl<T> ShardedStore<T> {
    /// Creates an empty store with `n` shards (1 ≤ n ≤ 16).
    pub fn new(n: usize) -> Self {
        assert!((1..=16).contains(&n), "shard count must be in 1..=16");
        Self {
            shards: (0..n).map(|_| Mutex::new(ObjectStore::new())).collect(),
            next: AtomicUsize::new(0),
            contention: AtomicU64::new(0),
        }
    }

    /// Rebuilds a store from per-shard arenas (recovery path). The vector
    /// must have the same length (and ordering) `take_shards` produced.
    pub fn from_shards(shards: Vec<ObjectStore<T>>) -> Self {
        assert!((1..=16).contains(&shards.len()), "shard count must be in 1..=16");
        Self {
            shards: shards.into_iter().map(Mutex::new).collect(),
            next: AtomicUsize::new(0),
            contention: AtomicU64::new(0),
        }
    }

    /// Detaches all shard arenas (crash path: the persistent image moves
    /// to the recovery side). The store is left empty but usable.
    pub fn take_shards(&self) -> Vec<ObjectStore<T>> {
        self.shards.iter().map(|s| std::mem::take(&mut *self.lock(s))).collect()
    }

    /// Times any shard lock was found contended since creation.
    pub fn contention(&self) -> u64 {
        self.contention.load(Ordering::Relaxed)
    }

    fn lock<'a>(&'a self, m: &'a Mutex<ObjectStore<T>>) -> parking_lot::MutexGuard<'a, ObjectStore<T>> {
        match m.try_lock() {
            Some(g) => g,
            None => {
                self.contention.fetch_add(1, Ordering::Relaxed);
                m.lock()
            }
        }
    }

    fn shard_of(&self, id: SlotId) -> Option<&Mutex<ObjectStore<T>>> {
        self.shards.get((id.index() >> SHARD_SHIFT) as usize)
    }

    /// Translates a public id to the shard-local id.
    fn local(id: SlotId) -> SlotId {
        SlotId::from_raw(id.to_raw() & !u64::from(!LOCAL_MASK))
    }

    /// Translates a shard-local id to the public (shard-tagged) id.
    fn global(shard: usize, id: SlotId) -> SlotId {
        debug_assert_eq!(id.index() & !LOCAL_MASK, 0, "shard exceeded 2^28 slots");
        SlotId::from_raw(id.to_raw() | ((shard as u64) << SHARD_SHIFT))
    }

    /// Inserts a record into the next round-robin shard.
    pub fn insert(&self, val: T) -> SlotId {
        let s = self.next.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        let local = self.lock(&self.shards[s]).insert(val);
        Self::global(s, local)
    }

    /// Removes a record, returning it if `id` was live.
    pub fn remove(&self, id: SlotId) -> Option<T> {
        let shard = self.shard_of(id)?;
        self.lock(shard).remove(Self::local(id))
    }

    /// Returns `true` if `id` refers to a live record.
    pub fn contains(&self, id: SlotId) -> bool {
        self.shard_of(id).is_some_and(|s| self.lock(s).contains(Self::local(id)))
    }

    /// Runs `f` on a shared reference to the record, if live.
    pub fn with<R>(&self, id: SlotId, f: impl FnOnce(&T) -> R) -> Option<R> {
        let shard = self.shard_of(id)?;
        let guard = self.lock(shard);
        guard.get(Self::local(id)).map(f)
    }

    /// Runs `f` on an exclusive reference to the record, if live.
    pub fn with_mut<R>(&self, id: SlotId, f: impl FnOnce(&mut T) -> R) -> Option<R> {
        let shard = self.shard_of(id)?;
        let mut guard = self.lock(shard);
        guard.get_mut(Self::local(id)).map(f)
    }

    /// Clones the record out, if live.
    pub fn get_cloned(&self, id: SlotId) -> Option<T>
    where
        T: Clone,
    {
        self.with(id, T::clone)
    }

    /// Number of live records across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| self.lock(s).len()).sum()
    }

    /// Returns `true` if no shard holds a record.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visits every live record, one shard lock at a time. The traversal
    /// is not a snapshot: records inserted into already-visited shards
    /// during the walk are missed. Callers must confine concurrent
    /// inserts to the checkpoint critical section itself (the round's
    /// leader) — under the epoch flip mutators run during
    /// the walk, and they stay safe only because nothing outside that
    /// section mutates the store.
    pub fn for_each(&self, mut f: impl FnMut(SlotId, &T)) {
        for (s, shard) in self.shards.iter().enumerate() {
            let guard = self.lock(shard);
            for (id, v) in guard.iter() {
                f(Self::global(s, id), v);
            }
        }
    }

    /// Visits every live record mutably, one shard lock at a time.
    pub fn for_each_mut(&self, mut f: impl FnMut(SlotId, &mut T)) {
        for (s, shard) in self.shards.iter().enumerate() {
            let mut guard = self.lock(shard);
            for (id, v) in guard.iter_mut() {
                f(Self::global(s, id), v);
            }
        }
    }

    /// Ids of every live record (one shard lock at a time).
    pub fn ids(&self) -> Vec<SlotId> {
        let mut out = Vec::new();
        self.for_each(|id, _| out.push(id));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_spreads_and_roundtrips() {
        let s: ShardedStore<u32> = ShardedStore::new(4);
        let ids: Vec<_> = (0..16u32).map(|i| s.insert(i)).collect();
        assert_eq!(s.len(), 16);
        // Round-robin puts consecutive inserts in different shards.
        assert_ne!(ids[0].index() >> SHARD_SHIFT, ids[1].index() >> SHARD_SHIFT);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(s.get_cloned(*id), Some(i as u32));
        }
    }

    #[test]
    fn ids_survive_raw_roundtrip() {
        let s: ShardedStore<&str> = ShardedStore::new(8);
        let id = s.insert("x");
        let back = SlotId::from_raw(id.to_raw());
        assert_eq!(s.get_cloned(back), Some("x"));
    }

    #[test]
    fn remove_and_generational_safety() {
        let s: ShardedStore<u32> = ShardedStore::new(2);
        let a = s.insert(1);
        assert_eq!(s.remove(a), Some(1));
        assert_eq!(s.remove(a), None);
        assert!(!s.contains(a));
        // Fill until the same shard slot is reused; the stale id must not
        // alias.
        let b = loop {
            let b = s.insert(2);
            if b.index() == a.index() {
                break b;
            }
        };
        assert_ne!(a, b);
        assert_eq!(s.get_cloned(a), None);
        assert_eq!(s.get_cloned(b), Some(2));
    }

    #[test]
    fn with_mut_mutates_in_place() {
        let s: ShardedStore<Vec<u8>> = ShardedStore::new(3);
        let id = s.insert(vec![1]);
        s.with_mut(id, |v| v.push(2)).unwrap();
        assert_eq!(s.get_cloned(id), Some(vec![1, 2]));
    }

    #[test]
    fn for_each_sees_all_live() {
        let s: ShardedStore<u32> = ShardedStore::new(5);
        let ids: Vec<_> = (0..20u32).map(|i| s.insert(i)).collect();
        s.remove(ids[3]);
        let mut seen: Vec<u32> = Vec::new();
        s.for_each(|id, v| {
            assert!(s1_local_matches(id));
            seen.push(*v);
        });
        seen.sort();
        let expect: Vec<u32> = (0..20).filter(|&i| i != 3).collect();
        assert_eq!(seen, expect);
        assert_eq!(s.ids().len(), 19);
    }

    fn s1_local_matches(id: SlotId) -> bool {
        (id.index() >> SHARD_SHIFT) < 16
    }

    #[test]
    fn take_and_rebuild_preserves_ids() {
        let s: ShardedStore<u32> = ShardedStore::new(4);
        let ids: Vec<_> = (0..10u32).map(|i| s.insert(i)).collect();
        let shards = s.take_shards();
        assert!(s.is_empty());
        let r = ShardedStore::from_shards(shards);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(r.get_cloned(*id), Some(i as u32));
        }
    }

    #[test]
    fn concurrent_access_counts_contention() {
        use std::sync::Arc;
        let s: Arc<ShardedStore<u64>> = Arc::new(ShardedStore::new(1));
        let id = s.insert(0);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..5000 {
                        s.with_mut(id, |v| *v += 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(s.get_cloned(id), Some(20_000));
    }
}
