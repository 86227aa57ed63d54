//! The failure-resilient NVM allocator of the TreeSLS checkpoint manager.
//!
//! The checkpoint manager "uses a buddy system to manage all NVM resources
//! in TreeSLS" with "slab systems ... to facilitate the allocation of small
//! fixed-sized objects", and "leverages redo/undo journaling to maintain the
//! crash consistency of the checkpoint manager" (§3 of the paper). This
//! crate implements exactly that trio:
//!
//! * [`buddy`] — a binary buddy allocator over NVM page frames whose free
//!   lists and per-frame block headers live *inside* the NVM metadata arena,
//!   so they survive power failures byte-for-byte.
//! * [`slab`] — size-class slab caches carved out of buddy frames, for the
//!   small fixed-size records of the backup capability tree.
//! * [`journal`] — an undo journal: every metadata word is logged before it
//!   is overwritten, and an interrupted operation is rolled back during
//!   recovery, making every alloc/free atomic with respect to crashes.
//!
//! The allocator is deliberately *not* checkpointed (it would otherwise have
//! to checkpoint itself); instead it is repaired on reboot by
//! [`PmemAllocator::recover`] and then reconciled against the reachable set
//! of the backup capability tree (mark-and-sweep via
//! [`PmemAllocator::rebuild`]), mirroring step ❼ of the paper's Figure 5.
//! The rebuild bypasses the journal: it rewrites every buddy and slab word
//! from the reachable set alone, a pure function of the committed image, so
//! a crash midway is undone by the next recovery rebuilding the same state.
//! One O(frames) sweep per region builds it in DRAM; one store writes it.

pub mod buddy;
pub mod error;
pub mod journal;
pub mod layout;
pub mod slab;

use std::sync::Arc;

use parking_lot::Mutex;
use treesls_nvm::{FrameId, NvmDevice};

pub use error::AllocError;
pub use layout::AllocLayout;
pub use slab::NvmAddr;

use buddy::Buddy;
use journal::Journal;
use slab::SlabHeap;

/// Statistics describing the allocator's current occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocStats {
    /// Total frames managed by the buddy system.
    pub total_frames: usize,
    /// Frames currently free (summed over all orders).
    pub free_frames: usize,
    /// Live slab objects.
    pub live_slab_objects: usize,
    /// Frames currently backing slabs.
    pub slab_frames: usize,
}

/// The combined buddy + slab allocator with undo journaling.
///
/// All public operations are atomic with respect to simulated power
/// failures: each takes a journal transaction around its metadata writes, so
/// recovery either observes the operation fully applied or fully rolled
/// back.
#[derive(Debug)]
pub struct PmemAllocator {
    dev: Arc<NvmDevice>,
    inner: Mutex<Inner>,
}

#[derive(Debug)]
struct Inner {
    buddy: Buddy,
    slab: SlabHeap,
    journal: Journal,
}

impl PmemAllocator {
    /// Formats the metadata region and creates a fresh allocator managing
    /// frames `[layout.first_frame, layout.first_frame + layout.frame_count)`.
    pub fn format(dev: Arc<NvmDevice>, layout: AllocLayout) -> Self {
        let journal = Journal::format(&dev, layout.journal_off, layout.journal_records);
        let buddy = Buddy::format(&dev, &layout);
        let slab = SlabHeap::format(&dev, &layout);
        Self { dev, inner: Mutex::new(Inner { buddy, slab, journal }) }
    }

    /// Recovers the allocator after a power failure.
    ///
    /// First replays the undo journal to roll back any in-flight operation,
    /// then reattaches to the (now consistent) metadata. A buddy or slab
    /// header that does not match `layout` is [`AllocError::Corrupt`].
    pub fn recover(dev: Arc<NvmDevice>, layout: AllocLayout) -> Result<Self, AllocError> {
        let journal = Journal::recover(&dev, layout.journal_off, layout.journal_records);
        let buddy = Buddy::attach(&dev, &layout)?;
        let slab = SlabHeap::attach(&dev, &layout)?;
        Ok(Self { dev, inner: Mutex::new(Inner { buddy, slab, journal }) })
    }

    /// Allocates a block of `1 << order` contiguous frames.
    pub fn alloc_frames(&self, order: u8) -> Result<FrameId, AllocError> {
        let mut g = self.inner.lock();
        let Inner { buddy, journal, .. } = &mut *g;
        journal.run(&self.dev, |j| buddy.alloc(&self.dev, j, order))
    }

    /// Frees a block previously returned by [`alloc_frames`] with the same
    /// `order`.
    ///
    /// [`alloc_frames`]: Self::alloc_frames
    pub fn free_frames(&self, frame: FrameId, order: u8) -> Result<(), AllocError> {
        let mut g = self.inner.lock();
        let Inner { buddy, journal, .. } = &mut *g;
        journal.run(&self.dev, |j| buddy.free(&self.dev, j, frame, order))
    }

    /// Allocates one frame (order 0); convenience for the page-fault path.
    pub fn alloc_page(&self) -> Result<FrameId, AllocError> {
        self.alloc_frames(0)
    }

    /// Frees one frame (order 0).
    pub fn free_page(&self, frame: FrameId) -> Result<(), AllocError> {
        self.free_frames(frame, 0)
    }

    /// Allocates `size` bytes from the slab caches.
    ///
    /// Sizes above the largest class are rejected; use frame allocation for
    /// bulk data.
    pub fn slab_alloc(&self, size: usize) -> Result<NvmAddr, AllocError> {
        let mut g = self.inner.lock();
        let Inner { buddy, slab, journal } = &mut *g;
        journal.run(&self.dev, |j| slab.alloc(&self.dev, buddy, j, size))
    }

    /// Frees a slab allocation of the given original `size`.
    pub fn slab_free(&self, addr: NvmAddr, size: usize) -> Result<(), AllocError> {
        let mut g = self.inner.lock();
        let Inner { buddy, slab, journal } = &mut *g;
        journal.run(&self.dev, |j| slab.free(&self.dev, buddy, j, addr, size))
    }

    /// Point-in-time occupancy statistics.
    pub fn stats(&self) -> AllocStats {
        let g = self.inner.lock();
        AllocStats {
            total_frames: g.buddy.frame_count(),
            free_frames: g.buddy.free_frames(&self.dev),
            live_slab_objects: g.slab.live_objects(&self.dev),
            slab_frames: g.slab.slab_frames(&self.dev),
        }
    }

    /// Verifies internal invariants, returning a description of the first
    /// violation found.
    ///
    /// Checked invariants: free lists are well-formed doubly-linked lists,
    /// no block appears on two lists, buddies of free blocks are not both
    /// free at the same order (they would have merged), and every frame is
    /// accounted for exactly once.
    pub fn verify(&self) -> Result<(), String> {
        let g = self.inner.lock();
        g.buddy.verify(&self.dev)?;
        g.slab.verify(&self.dev)
    }

    /// Rebuilds the allocator state from the reachable set during restore.
    ///
    /// After a crash, allocations performed since the last checkpoint refer
    /// to objects that the restore rolls back; the paper identifies and
    /// undoes them "by comparing system's state at crash with the last
    /// checkpoint's state". `reachable_blocks` are the `(frame, order)`
    /// buddy blocks referenced by the recovered system, and
    /// `reachable_slab_objs` the `(addr, size)` slab objects. Everything
    /// else returns to the free lists. A set that claims a frame or slot
    /// twice, or an invalid one, is an `Err` and writes nothing.
    pub fn rebuild(
        &self,
        reachable_blocks: &[(FrameId, u8)],
        reachable_slab_objs: &[(NvmAddr, usize)],
    ) -> Result<(), AllocError> {
        let g = self.inner.lock();
        let (mut map, mut img) = (g.buddy.empty_map(), g.slab.empty_image());
        for &(frame, order) in reachable_blocks {
            g.buddy.claim(&mut map, frame, order)?;
        }
        for &(addr, size) in reachable_slab_objs {
            g.slab.claim(&mut img, &g.buddy, &mut map, addr, size)?;
        }
        g.buddy.sweep(&self.dev, &map);
        g.slab.sweep(&self.dev, &mut img);
        self.dev.persist_barrier();
        Ok(())
    }

    /// Torn/corrupt journal tail records truncated by the last recovery
    /// (0 for a freshly formatted allocator or a clean log).
    pub fn journal_truncated(&self) -> u64 {
        self.inner.lock().journal.truncated_records()
    }

    /// Most undo records any single transaction has logged since boot —
    /// the journal-capacity telemetry surfaced by the metrics registry.
    pub fn journal_high_water(&self) -> u64 {
        self.inner.lock().journal.high_water_records()
    }
}
