//! The run-queue scheduler.
//!
//! TreeSLS deliberately keeps scheduler state *out* of the checkpoint:
//! "Some derived state of other kernel services (IPC and scheduler) does
//! not need to be persisted, as TreeSLS can recover such state from the
//! capability tree, e.g., adding all threads to the scheduler's queue"
//! (§3). The queue here is exactly that derived state — volatile, rebuilt
//! by the restore path from the `Runnable` thread set. The same goes for
//! the core-affinity map: pins are scheduling hints, not capability-tree
//! state, so a restore drops them and the embedder re-pins its service
//! threads after recovery.

use std::collections::{HashMap, VecDeque};
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::types::ObjId;

/// Pinned-thread scheduling state: the affinity map plus one FIFO queue
/// per core that has pinned threads. Kept under a single lock with the
/// global queue untouched, so the common (unpinned) path stays one
/// lock + one deque op.
#[derive(Debug, Default)]
struct PinState {
    affinity: HashMap<ObjId, u32>,
    queues: HashMap<u32, VecDeque<ObjId>>,
}

/// A global FIFO run queue with a wakeup condition variable, plus
/// per-core affinity queues for pinned threads.
///
/// Core worker threads park on [`park`] when idle; enqueues and
/// stop-the-world requests wake them. While a pause is pending no core
/// pulls from any queue (see `cores.rs`).
///
/// [`park`]: Self::park
#[derive(Debug, Default)]
pub struct Scheduler {
    queue: Mutex<VecDeque<ObjId>>,
    pins: Mutex<PinState>,
    cv: Condvar,
}

impl Scheduler {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues a runnable thread and wakes one parked core (pinned
    /// threads land in their core's affinity queue and wake every core,
    /// since `notify_one` cannot target the owning core).
    pub fn enqueue(&self, tid: ObjId) {
        let mut pins = self.pins.lock();
        if let Some(&core) = pins.affinity.get(&tid) {
            pins.queues.entry(core).or_default().push_back(tid);
            drop(pins);
            self.cv.notify_all();
        } else {
            drop(pins);
            self.queue.lock().push_back(tid);
            self.cv.notify_one();
        }
    }

    /// Enqueues a batch of runnable threads under one queue lock and wakes
    /// every parked core once — the fan-in path for a multi-queue device
    /// raising many doorbells at the same event (e.g. a NIC re-arming all
    /// of its queues after a restore).
    pub fn enqueue_batch(&self, tids: &[ObjId]) {
        if tids.is_empty() {
            return;
        }
        let mut pins = self.pins.lock();
        if pins.affinity.is_empty() {
            drop(pins);
            self.queue.lock().extend(tids.iter().copied());
        } else {
            let mut global = Vec::with_capacity(tids.len());
            for &tid in tids {
                match pins.affinity.get(&tid) {
                    Some(&core) => pins.queues.entry(core).or_default().push_back(tid),
                    None => global.push(tid),
                }
            }
            drop(pins);
            self.queue.lock().extend(global);
        }
        self.cv.notify_all();
    }

    /// Pins `tid` to `core` (`None` unpins). Queued entries migrate to the
    /// right queue immediately. Affinity is volatile derived state: a
    /// restore clears it along with the run queue.
    pub fn set_affinity(&self, tid: ObjId, core: Option<u32>) {
        let mut pins = self.pins.lock();
        let prev = match core {
            Some(c) => pins.affinity.insert(tid, c),
            None => pins.affinity.remove(&tid),
        };
        // Migrate any queued entries between queues.
        let mut queued = 0usize;
        if let Some(p) = prev {
            if let Some(q) = pins.queues.get_mut(&p) {
                let before = q.len();
                q.retain(|&t| t != tid);
                queued += before - q.len();
            }
        } else {
            let mut g = self.queue.lock();
            let before = g.len();
            g.retain(|&t| t != tid);
            queued += before - g.len();
        }
        if queued > 0 {
            match core {
                Some(c) => {
                    for _ in 0..queued {
                        pins.queues.entry(c).or_default().push_back(tid);
                    }
                }
                None => {
                    let mut g = self.queue.lock();
                    for _ in 0..queued {
                        g.push_back(tid);
                    }
                }
            }
        }
        drop(pins);
        self.cv.notify_all();
    }

    /// The core `tid` is pinned to, if any.
    pub fn affinity(&self, tid: ObjId) -> Option<u32> {
        self.pins.lock().affinity.get(&tid).copied()
    }

    /// Dequeues the next runnable thread, if any (non-blocking). Pulls
    /// only the global queue — core workers use [`next_for`].
    ///
    /// [`next_for`]: Self::next_for
    pub fn next(&self) -> Option<ObjId> {
        self.queue.lock().pop_front()
    }

    /// Dequeues the next thread for `core`: its affinity queue first, then
    /// the global queue.
    pub fn next_for(&self, core: u32) -> Option<ObjId> {
        {
            let mut pins = self.pins.lock();
            if let Some(q) = pins.queues.get_mut(&core) {
                if let Some(tid) = q.pop_front() {
                    return Some(tid);
                }
            }
        }
        self.queue.lock().pop_front()
    }

    /// Removes a specific thread from every queue (thread destruction).
    pub fn remove(&self, tid: ObjId) {
        self.queue.lock().retain(|&t| t != tid);
        let mut pins = self.pins.lock();
        for q in pins.queues.values_mut() {
            q.retain(|&t| t != tid);
        }
    }

    /// Current queue depth (global + affinity queues).
    pub fn len(&self) -> usize {
        self.queue.lock().len() + self.pins.lock().queues.values().map(VecDeque::len).sum::<usize>()
    }

    /// Returns `true` if no thread is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Empties the queues and the affinity map (crash teardown / restore
    /// rebuild — affinity is volatile derived state).
    pub fn clear(&self) {
        self.queue.lock().clear();
        let mut pins = self.pins.lock();
        pins.queues.clear();
        pins.affinity.clear();
    }

    /// Parks the calling core until work may be available or `timeout`
    /// elapses. Spurious wakeups are fine: callers re-check their loop
    /// conditions (including the stop-the-world flag).
    pub fn park(&self, timeout: Duration) {
        let mut g = self.queue.lock();
        if g.is_empty() {
            self.cv.wait_for(&mut g, timeout);
        }
    }

    /// Wakes every parked core (used when initiating a stop-the-world
    /// pause so idle cores reach the quiescence gate promptly).
    pub fn wake_all(&self) {
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use treesls_nvm::ObjectStore;

    fn ids(n: usize) -> Vec<ObjId> {
        let mut s: ObjectStore<usize> = ObjectStore::new();
        (0..n).map(|i| s.insert(i)).collect()
    }

    #[test]
    fn fifo_order() {
        let s = Scheduler::new();
        let t = ids(3);
        for &id in &t {
            s.enqueue(id);
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.next(), Some(t[0]));
        assert_eq!(s.next(), Some(t[1]));
        assert_eq!(s.next(), Some(t[2]));
        assert_eq!(s.next(), None);
    }

    #[test]
    fn remove_specific_thread() {
        let s = Scheduler::new();
        let t = ids(3);
        for &id in &t {
            s.enqueue(id);
        }
        s.remove(t[1]);
        assert_eq!(s.next(), Some(t[0]));
        assert_eq!(s.next(), Some(t[2]));
    }

    #[test]
    fn park_wakes_on_enqueue() {
        let s = Arc::new(Scheduler::new());
        let s2 = Arc::clone(&s);
        let h = std::thread::spawn(move || {
            let start = std::time::Instant::now();
            while s2.next().is_none() {
                s2.park(Duration::from_millis(100));
                if start.elapsed() > Duration::from_secs(5) {
                    panic!("never woke");
                }
            }
        });
        std::thread::sleep(Duration::from_millis(20));
        s.enqueue(ids(1)[0]);
        h.join().unwrap();
    }

    #[test]
    fn clear_empties() {
        let s = Scheduler::new();
        for id in ids(5) {
            s.enqueue(id);
        }
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn pinned_threads_route_to_their_core() {
        let s = Scheduler::new();
        let t = ids(3);
        s.set_affinity(t[0], Some(2));
        s.enqueue(t[0]);
        s.enqueue(t[1]);
        // Core 0 must not see the pinned thread.
        assert_eq!(s.next_for(0), Some(t[1]));
        assert_eq!(s.next_for(0), None);
        // Core 2 pulls its affinity queue first.
        s.enqueue(t[2]);
        assert_eq!(s.next_for(2), Some(t[0]));
        assert_eq!(s.next_for(2), Some(t[2]));
    }

    #[test]
    fn set_affinity_migrates_queued_entries() {
        let s = Scheduler::new();
        let t = ids(1);
        s.enqueue(t[0]);
        s.set_affinity(t[0], Some(3));
        // Entry moved out of the global queue into core 3's queue.
        assert_eq!(s.next(), None);
        assert_eq!(s.next_for(3), Some(t[0]));
        // Unpin moves it back.
        s.enqueue(t[0]);
        s.set_affinity(t[0], None);
        assert_eq!(s.affinity(t[0]), None);
        assert_eq!(s.next(), Some(t[0]));
        assert!(s.is_empty());
    }
}
