//! The per-round dirty object queue: the O(changes) walk's work list.
//!
//! The paper's incremental checkpointing "skips state intact since the
//! last checkpoint" — but skipping the *copy* is not enough: a leader
//! that still *visits* every object pays O(live objects) per pause. The
//! dirty queue makes the visit itself proportional to the write set:
//! [`KObject::mark_dirty`] pushes the object id on the flag's false→true
//! edge (at most one enqueue per object per round, no matter how many
//! times it is mutated), and the checkpoint leader drains the queue
//! during the pause instead of re-walking the reachability graph.
//!
//! The queue is a Treiber stack: `push` is a lock-free CAS on the head
//! pointer, and `drain` detaches the whole list with one `swap`. Because
//! nodes are only ever pushed (never popped individually), the classic
//! ABA hazard of Treiber pops does not arise.
//!
//! [`KObject::mark_dirty`]: crate::object::KObject::mark_dirty

use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

use crate::types::ObjId;

struct Node {
    id: ObjId,
    next: *mut Node,
}

/// Lock-free multi-producer / single-drainer stack of dirty object ids.
///
/// Producers are syscall paths calling `mark_dirty`; the single drainer
/// is the checkpoint leader inside the stop-the-world pause. Entries may
/// be stale (an object can be checkpointed by a full walk without the
/// queue being drained); consumers must therefore re-check the object's
/// dirty flag — a stale entry costs one flag load, not a copy.
#[derive(Debug)]
pub struct DirtyQueue {
    head: AtomicPtr<Node>,
    /// Approximate depth (pushes minus drains), exported as a gauge.
    depth: AtomicU64,
}

// The raw node pointers are only ever exchanged through the atomic head;
// ownership of a detached chain is unique to the drainer.
unsafe impl Send for DirtyQueue {}
unsafe impl Sync for DirtyQueue {}

/// A detached dirty-queue chain: the O(1) result of an epoch-flip cut
/// ([`DirtyQueue::take_cut`]). Owns its nodes; dropping it without
/// [`DirtyQueue::collect`] frees them (but loses the depth adjustment,
/// which is only a gauge).
#[derive(Debug)]
pub struct DirtyCut {
    head: *mut Node,
}

// Ownership of the detached chain is unique to the holder.
unsafe impl Send for DirtyCut {}

impl Drop for DirtyCut {
    fn drop(&mut self) {
        let mut p = self.head;
        while !p.is_null() {
            // Safety: the chain was detached atomically; we own it.
            let node = unsafe { Box::from_raw(p) };
            p = node.next;
        }
    }
}

impl Default for DirtyQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl DirtyQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            head: AtomicPtr::new(ptr::null_mut()),
            depth: AtomicU64::new(0),
        }
    }

    /// Pushes one object id (lock-free; called on `mark_dirty`'s
    /// false→true edge).
    pub fn push(&self, id: ObjId) {
        let node = Box::into_raw(Box::new(Node { id, next: ptr::null_mut() }));
        let mut head = self.head.load(Ordering::Relaxed);
        loop {
            // Safety: we own `node` until the CAS publishes it.
            unsafe { (*node).next = head };
            match self.head.compare_exchange_weak(
                head,
                node,
                Ordering::Release,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(h) => head = h,
            }
        }
        self.depth.fetch_add(1, Ordering::Relaxed);
    }

    /// Detaches the whole queue and returns its ids (LIFO order; callers
    /// deduplicate by round anyway). One atomic `swap`, then a private
    /// walk of the detached chain.
    pub fn drain(&self) -> Vec<ObjId> {
        let cut = self.take_cut();
        self.collect(cut)
    }

    /// Detaches the queue in O(1) — one atomic `swap`, no chain walk.
    ///
    /// This is the epoch flip's dirty-queue cut: the leader snips the
    /// round's work list inside the stop window without paying a visit
    /// per entry, then walks it *after* resuming the world via
    /// [`collect`](DirtyQueue::collect). New pushes land on the emptied
    /// head and belong to the next round.
    pub fn take_cut(&self) -> DirtyCut {
        DirtyCut { head: self.head.swap(ptr::null_mut(), Ordering::AcqRel) }
    }

    /// Walks a detached [`DirtyCut`] chain, freeing it and returning its
    /// ids (LIFO order). Runs outside the pause, concurrent with mutators
    /// pushing next-round entries.
    pub fn collect(&self, cut: DirtyCut) -> Vec<ObjId> {
        let mut p = cut.head;
        std::mem::forget(cut);
        let mut out = Vec::new();
        while !p.is_null() {
            // Safety: the chain was detached atomically; we own it.
            let node = unsafe { Box::from_raw(p) };
            out.push(node.id);
            p = node.next;
        }
        self.depth.fetch_sub(out.len() as u64, Ordering::Relaxed);
        out
    }

    /// Discards all pending entries (restore path: the queue describes a
    /// runtime tree that no longer exists).
    pub fn clear(&self) {
        let _ = self.drain();
    }

    /// Approximate number of pending entries (obs gauge).
    pub fn depth(&self) -> u64 {
        self.depth.load(Ordering::Relaxed)
    }
}

impl Drop for DirtyQueue {
    fn drop(&mut self) {
        self.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_drain_roundtrip() {
        let q = DirtyQueue::new();
        q.push(ObjId::from_raw(1));
        q.push(ObjId::from_raw(2));
        assert_eq!(q.depth(), 2);
        let mut ids = q.drain();
        ids.sort();
        assert_eq!(ids, vec![ObjId::from_raw(1), ObjId::from_raw(2)]);
        assert_eq!(q.depth(), 0);
        assert!(q.drain().is_empty());
    }

    #[test]
    fn concurrent_pushes_all_arrive() {
        let q = Arc::new(DirtyQueue::new());
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        q.push(ObjId::from_raw(t * 1000 + i));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let ids = q.drain();
        assert_eq!(ids.len(), 4000);
        let set: std::collections::HashSet<_> = ids.into_iter().collect();
        assert_eq!(set.len(), 4000);
    }

    #[test]
    fn cut_freezes_entries_and_later_pushes_land_next_round() {
        let q = DirtyQueue::new();
        q.push(ObjId::from_raw(1));
        q.push(ObjId::from_raw(2));
        let cut = q.take_cut();
        q.push(ObjId::from_raw(3)); // after the flip: next round
        let mut frozen = q.collect(cut);
        frozen.sort();
        assert_eq!(frozen, vec![ObjId::from_raw(1), ObjId::from_raw(2)]);
        assert_eq!(q.drain(), vec![ObjId::from_raw(3)]);
        assert_eq!(q.depth(), 0);
        // An uncollected cut frees its chain on drop.
        q.push(ObjId::from_raw(9));
        drop(q.take_cut());
    }

    #[test]
    fn clear_discards_pending() {
        let q = DirtyQueue::new();
        for i in 0..10 {
            q.push(ObjId::from_raw(i));
        }
        q.clear();
        assert_eq!(q.depth(), 0);
        assert!(q.drain().is_empty());
    }
}
