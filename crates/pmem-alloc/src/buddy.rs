//! Binary buddy allocator over NVM page frames.
//!
//! All allocator state lives in the NVM metadata arena so it survives power
//! failures; every alloc/free goes through a journal [`Tx`], making each
//! atomic (§3 of the paper, "the checkpoint manager needs to be
//! failure-resilient"). Format and the restore-time rebuild instead rewrite
//! the whole region in one `Buddy::sweep`.
//!
//! Persistent layout at `layout.buddy_off`:
//!
//! ```text
//! +0                      magic        u64
//! +8                      frame_count  u64
//! +16                     first_frame  u64
//! +24                     heads[MAX_ORDER+1]  u32 each (NONE = u32::MAX)
//! +24 + 4*(MAX_ORDER+1)   meta[frame_count]   u8 each (block heads only)
//! then                    next[frame_count]   u32 each
//! then                    prev[frame_count]   u32 each
//! ```
//!
//! The `meta` byte of a *block head* encodes `order` (low 4 bits) and an
//! allocated bit (bit 6). Non-head frames carry no meaning: the block
//! structure is recovered by scanning heads low-to-high, each head covering
//! `1 << order` frames — blocks are always contiguous and aligned, so the
//! scan is unambiguous.

use treesls_nvm::{FrameId, NvmDevice};

use crate::error::AllocError;
use crate::journal::Tx;
use crate::layout::{align8, put_u32, AllocLayout, MAX_ORDER};

const MAGIC: u64 = 0xB0DD_15B0_DD15_0001;
const NONE: u32 = u32::MAX;
const ALLOC_BIT: u8 = 1 << 6;
const ORDER_MASK: u8 = 0x0F;
/// A frame no reachable block covers, in a rebuild's used-frame map.
pub(crate) const FREE: u8 = u8::MAX;

/// The buddy allocator. Holds only volatile offsets; all state is in NVM.
#[derive(Debug)]
pub struct Buddy {
    off: usize,
    first_frame: u32,
    frame_count: u32,
}

struct Offsets {
    heads: usize,
    meta: usize,
    next: usize,
    prev: usize,
}

impl Buddy {
    /// Bytes of arena needed for `frame_count` frames.
    pub fn region_len(frame_count: u32) -> usize {
        let n = frame_count as usize;
        align8(24 + 4 * (MAX_ORDER as usize + 1)) + align8(n) + align8(4 * n) + align8(4 * n)
    }

    fn offsets(&self) -> Offsets {
        let n = self.frame_count as usize;
        let heads = self.off + 24;
        let meta = self.off + align8(24 + 4 * (MAX_ORDER as usize + 1));
        let next = meta + align8(n);
        let prev = next + align8(4 * n);
        Offsets { heads, meta, next, prev }
    }

    fn at(l: &AllocLayout) -> Self {
        Self { off: l.buddy_off, first_frame: l.first_frame, frame_count: l.frame_count }
    }

    fn header(&self) -> [u64; 3] {
        [MAGIC, self.frame_count as u64, self.first_frame as u64]
    }

    /// Formats a fresh buddy system covering the layout's frame range: the
    /// sweep over an empty reachable set.
    pub fn format(dev: &NvmDevice, layout: &AllocLayout) -> Self {
        let b = Self::at(layout);
        b.sweep(dev, &b.empty_map());
        b
    }

    /// Reattaches to already-formatted metadata (after journal recovery). A
    /// header that does not match `layout` is [`AllocError::Corrupt`].
    pub fn attach(dev: &NvmDevice, layout: &AllocLayout) -> Result<Self, AllocError> {
        let b = Self::at(layout);
        let intact = (0..3).all(|i| dev.meta().read_u64(b.off + 8 * i) == b.header()[i]);
        intact.then_some(b).ok_or(AllocError::Corrupt)
    }

    /// A rebuild's used-frame map with nothing claimed: per frame, [`FREE`]
    /// or the meta byte of the allocated block covering it.
    pub(crate) fn empty_map(&self) -> Vec<u8> {
        vec![FREE; self.frame_count as usize]
    }

    /// Marks the block `(head, order)` allocated in the used-frame `map`.
    ///
    /// A misaligned or out-of-range block is [`AllocError::InvalidFree`],
    /// one sharing a frame with an earlier claim [`AllocError::Overlap`].
    pub(crate) fn claim(&self, map: &mut [u8], head: FrameId, order: u8) -> Result<(), AllocError> {
        if order > MAX_ORDER {
            return Err(AllocError::OrderTooLarge);
        }
        let size = 1usize << order;
        let r = head.0.checked_sub(self.first_frame).ok_or(AllocError::InvalidFree)? as usize;
        if !r.is_multiple_of(size) || r + size > map.len() {
            return Err(AllocError::InvalidFree);
        }
        let block = &mut map[r..r + size];
        if block.iter().any(|&m| m != FREE) {
            return Err(AllocError::Overlap);
        }
        block.fill(order | ALLOC_BIT);
        Ok(())
    }

    /// Rewrites every buddy word from the used-frame `map` in one ascending
    /// sweep and one store.
    ///
    /// Each allocated block head gets `order | ALLOC_BIT`; each free run is
    /// covered by the largest aligned free blocks that fit, so no two free
    /// buddies are left unmerged, and each block is pushed at the head of
    /// its free list in DRAM, so the lists run from the highest frame down,
    /// as `free` pushes. Unjournaled: see the crate docs.
    pub(crate) fn sweep(&self, dev: &NvmDevice, map: &[u8]) {
        let n = map.len();
        // used[r] counts the reachable frames below r, so a block
        // [r, r + size) is free iff used[r + size] == used[r].
        let mut used = vec![0u32; n + 1];
        for r in 0..n {
            used[r + 1] = used[r] + u32::from(map[r] != FREE);
        }
        let o = self.offsets();
        let (meta, next, prev) = (o.meta - self.off, o.next - self.off, o.prev - self.off);
        let mut img = vec![0u8; Self::region_len(self.frame_count)];
        let mut heads = [NONE; MAX_ORDER as usize + 1];
        let mut r = 0;
        while r < n {
            let ord = if map[r] != FREE {
                img[meta + r] = map[r];
                map[r] & ORDER_MASK
            } else {
                let fits = |&ord: &u8| {
                    let end = r + (1 << ord);
                    r.is_multiple_of(1 << ord) && end <= n && used[end] == used[r]
                };
                let ord = (0..=MAX_ORDER).rev().find(fits).expect("a free frame fits order 0");
                let head = std::mem::replace(&mut heads[ord as usize], r as u32);
                img[meta + r] = ord;
                put_u32(&mut img, next + 4 * r, head);
                put_u32(&mut img, prev + 4 * r, NONE);
                if head != NONE {
                    put_u32(&mut img, prev + 4 * head as usize, r as u32);
                }
                ord
            };
            r += 1 << ord;
        }
        for (i, v) in self.header().iter().enumerate() {
            img[8 * i..8 * i + 8].copy_from_slice(&v.to_le_bytes());
        }
        for (ord, &head) in heads.iter().enumerate() {
            put_u32(&mut img, o.heads - self.off + 4 * ord, head);
        }
        dev.meta().write_bytes(self.off, &img);
    }

    /// Number of frames managed.
    pub fn frame_count(&self) -> usize {
        self.frame_count as usize
    }

    fn rel(&self, frame: FrameId) -> u32 {
        frame.0 - self.first_frame
    }

    fn abs(&self, rel: u32) -> FrameId {
        FrameId(rel + self.first_frame)
    }

    fn read_meta(&self, dev: &NvmDevice, r: u32) -> u8 {
        dev.meta().read_u8(self.offsets().meta + r as usize)
    }

    fn list_remove(&self, dev: &NvmDevice, tx: &mut Tx<'_>, ord: u8, r: u32) {
        let o = self.offsets();
        let meta = dev.meta();
        let next = meta.read_u32(o.next + 4 * r as usize);
        let prev = meta.read_u32(o.prev + 4 * r as usize);
        if prev == NONE {
            tx.write_u32(o.heads + 4 * ord as usize, next);
        } else {
            tx.write_u32(o.next + 4 * prev as usize, next);
        }
        if next != NONE {
            tx.write_u32(o.prev + 4 * next as usize, prev);
        }
    }

    fn list_push(&self, dev: &NvmDevice, tx: &mut Tx<'_>, ord: u8, r: u32) {
        let o = self.offsets();
        let head = dev.meta().read_u32(o.heads + 4 * ord as usize);
        tx.write_u32(o.next + 4 * r as usize, head);
        tx.write_u32(o.prev + 4 * r as usize, NONE);
        if head != NONE {
            tx.write_u32(o.prev + 4 * head as usize, r);
        }
        tx.write_u32(o.heads + 4 * ord as usize, r);
    }

    /// Returns `true` if `r` is a genuine block head.
    ///
    /// Meta bytes of interior frames are stale, so a head claim is confirmed
    /// by walking the block partition from the nearest max-order boundary
    /// (blocks never span one, as every block is aligned to its own size).
    fn is_block_head(&self, dev: &NvmDevice, r: u32) -> bool {
        let mut pos = r & !((1u32 << MAX_ORDER) - 1);
        while pos < r {
            let ord = self.read_meta(dev, pos) & ORDER_MASK;
            pos += 1u32 << ord.min(MAX_ORDER);
        }
        pos == r
    }

    /// Allocates a block of `1 << order` frames.
    pub fn alloc(&self, dev: &NvmDevice, tx: &mut Tx<'_>, order: u8) -> Result<FrameId, AllocError> {
        if order > MAX_ORDER {
            return Err(AllocError::OrderTooLarge);
        }
        let o = self.offsets();
        let meta = dev.meta();
        // Find the smallest order with a free block.
        let mut found = None;
        for ord in order..=MAX_ORDER {
            let head = meta.read_u32(o.heads + 4 * ord as usize);
            if head != NONE {
                found = Some((ord, head));
                break;
            }
        }
        let (mut ord, r) = found.ok_or(AllocError::OutOfMemory)?;
        self.list_remove(dev, tx, ord, r);
        // Split down to the requested order, freeing upper halves.
        while ord > order {
            ord -= 1;
            let upper = r + (1u32 << ord);
            tx.write_u8(o.meta + upper as usize, ord); // free head, order `ord`
            self.list_push(dev, tx, ord, upper);
        }
        tx.write_u8(o.meta + r as usize, order | ALLOC_BIT);
        Ok(self.abs(r))
    }

    /// Frees the block at `frame` previously allocated with `order`.
    pub fn free(
        &self,
        dev: &NvmDevice,
        tx: &mut Tx<'_>,
        frame: FrameId,
        order: u8,
    ) -> Result<(), AllocError> {
        if order > MAX_ORDER {
            return Err(AllocError::OrderTooLarge);
        }
        if frame.0 < self.first_frame || self.rel(frame) >= self.frame_count {
            return Err(AllocError::InvalidFree);
        }
        let mut r = self.rel(frame);
        if !r.is_multiple_of(1u32 << order) {
            return Err(AllocError::InvalidFree);
        }
        let m = self.read_meta(dev, r);
        if m != (order | ALLOC_BIT) || !self.is_block_head(dev, r) {
            return Err(AllocError::InvalidFree);
        }
        let o = self.offsets();
        let mut ord = order;
        // Eager merge with free buddies.
        while ord < MAX_ORDER {
            let buddy = r ^ (1u32 << ord);
            if buddy + (1u32 << ord) > self.frame_count {
                break;
            }
            let bm = self.read_meta(dev, buddy);
            if bm != ord {
                // Buddy is allocated, or free at a different order.
                break;
            }
            self.list_remove(dev, tx, ord, buddy);
            r = r.min(buddy);
            ord += 1;
        }
        tx.write_u8(o.meta + r as usize, ord);
        self.list_push(dev, tx, ord, r);
        Ok(())
    }

    /// Counts free frames by walking the free lists.
    pub fn free_frames(&self, dev: &NvmDevice) -> usize {
        let o = self.offsets();
        let meta = dev.meta();
        let mut total = 0usize;
        for ord in 0..=MAX_ORDER {
            let mut cur = meta.read_u32(o.heads + 4 * ord as usize);
            while cur != NONE {
                total += 1usize << ord;
                cur = meta.read_u32(o.next + 4 * cur as usize);
            }
        }
        total
    }

    /// Verifies the persistent structures; see [`PmemAllocator::verify`].
    ///
    /// [`PmemAllocator::verify`]: crate::PmemAllocator::verify
    pub fn verify(&self, dev: &NvmDevice) -> Result<(), String> {
        let o = self.offsets();
        let meta = dev.meta();
        let n = self.frame_count;
        // Pass 1: scan block heads.
        let mut free_heads = std::collections::HashSet::new();
        let mut r = 0u32;
        while r < n {
            let m = self.read_meta(dev, r);
            let ord = m & ORDER_MASK;
            if ord > MAX_ORDER {
                return Err(format!("frame {r}: bad order {ord}"));
            }
            let size = 1u32 << ord;
            if !r.is_multiple_of(size) {
                return Err(format!("frame {r}: misaligned block of order {ord}"));
            }
            if r + size > n {
                return Err(format!("frame {r}: block of order {ord} overruns range"));
            }
            if m & ALLOC_BIT == 0 {
                free_heads.insert((r, ord));
            }
            r += size;
        }
        // Pass 2: free lists match the scan.
        let mut listed = std::collections::HashSet::new();
        for ord in 0..=MAX_ORDER {
            let mut cur = meta.read_u32(o.heads + 4 * ord as usize);
            let mut prev = NONE;
            let mut steps = 0u32;
            while cur != NONE {
                steps += 1;
                if steps > n {
                    return Err(format!("order {ord}: free list cycle"));
                }
                if !free_heads.contains(&(cur, ord)) {
                    return Err(format!("order {ord}: list member {cur} is not a free head"));
                }
                if meta.read_u32(o.prev + 4 * cur as usize) != prev {
                    return Err(format!("order {ord}: bad prev link at {cur}"));
                }
                if !listed.insert(cur) {
                    return Err(format!("frame {cur} on two free lists"));
                }
                prev = cur;
                cur = meta.read_u32(o.next + 4 * cur as usize);
            }
        }
        if listed.len() != free_heads.len() {
            return Err(format!(
                "{} free heads scanned but {} frames listed",
                free_heads.len(),
                listed.len()
            ));
        }
        // Pass 3: eager-merge invariant — no two free buddies at same order.
        for &(r, ord) in &free_heads {
            if ord < MAX_ORDER {
                let buddy = r ^ (1u32 << ord);
                if free_heads.contains(&(buddy, ord)) && buddy > r {
                    return Err(format!("free buddies {r} and {buddy} at order {ord} unmerged"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::Journal;
    use std::sync::Arc;
    use treesls_nvm::LatencyModel;

    fn setup(frames: u32) -> (Arc<NvmDevice>, Buddy, Journal) {
        let layout = AllocLayout::for_device(0, frames);
        let dev = Arc::new(NvmDevice::new(
            frames as usize,
            layout.end_off,
            Arc::new(LatencyModel::disabled()),
        ));
        let j = Journal::format(&dev, layout.journal_off, layout.journal_records);
        let b = Buddy::format(&dev, &layout);
        (dev, b, j)
    }

    #[test]
    fn fresh_buddy_is_all_free() {
        let (dev, b, mut j) = setup(4096);
        assert_eq!(b.free_frames(&dev), 4096);
        b.verify(&dev).unwrap();
        // Free lists run from the highest block down.
        assert_eq!(j.run(&dev, |tx| b.alloc(&dev, tx, MAX_ORDER)), Ok(FrameId(3072)));
    }

    #[test]
    fn alloc_free_roundtrip() {
        let (dev, b, mut j) = setup(1024);
        let f = j.run(&dev, |tx| b.alloc(&dev, tx, 0)).unwrap();
        assert_eq!(b.free_frames(&dev), 1023);
        b.verify(&dev).unwrap();
        j.run(&dev, |tx| b.free(&dev, tx, f, 0)).unwrap();
        assert_eq!(b.free_frames(&dev), 1024);
        b.verify(&dev).unwrap();
    }

    #[test]
    fn split_and_merge_restore_max_blocks() {
        let (dev, b, mut j) = setup(1024);
        let frames: Vec<_> =
            (0..8).map(|_| j.run(&dev, |tx| b.alloc(&dev, tx, 0)).unwrap()).collect();
        b.verify(&dev).unwrap();
        for f in frames {
            j.run(&dev, |tx| b.free(&dev, tx, f, 0)).unwrap();
        }
        b.verify(&dev).unwrap();
        // Everything merged back: a max-order alloc must succeed.
        let big = j.run(&dev, |tx| b.alloc(&dev, tx, MAX_ORDER)).unwrap();
        assert_eq!(big.0 % (1 << MAX_ORDER), 0);
    }

    #[test]
    fn multi_order_allocations() {
        let (dev, b, mut j) = setup(4096);
        let a = j.run(&dev, |tx| b.alloc(&dev, tx, 3)).unwrap();
        let c = j.run(&dev, |tx| b.alloc(&dev, tx, 5)).unwrap();
        assert_eq!(b.free_frames(&dev), 4096 - 8 - 32);
        b.verify(&dev).unwrap();
        j.run(&dev, |tx| b.free(&dev, tx, a, 3)).unwrap();
        j.run(&dev, |tx| b.free(&dev, tx, c, 5)).unwrap();
        assert_eq!(b.free_frames(&dev), 4096);
    }

    #[test]
    fn oom_when_exhausted() {
        let (dev, b, mut j) = setup(4);
        for _ in 0..4 {
            j.run(&dev, |tx| b.alloc(&dev, tx, 0)).unwrap();
        }
        let r = j.run(&dev, |tx| b.alloc(&dev, tx, 0));
        assert_eq!(r, Err(AllocError::OutOfMemory));
        // Failed alloc must not corrupt state.
        b.verify(&dev).unwrap();
    }

    #[test]
    fn invalid_frees_rejected() {
        let (dev, b, mut j) = setup(64);
        let f = j.run(&dev, |tx| b.alloc(&dev, tx, 2)).unwrap();
        // Wrong order.
        assert_eq!(j.run(&dev, |tx| b.free(&dev, tx, f, 1)), Err(AllocError::InvalidFree));
        // Double free.
        j.run(&dev, |tx| b.free(&dev, tx, f, 2)).unwrap();
        assert_eq!(j.run(&dev, |tx| b.free(&dev, tx, f, 2)), Err(AllocError::InvalidFree));
        // Out of range.
        assert_eq!(
            j.run(&dev, |tx| b.free(&dev, tx, FrameId(1000), 0)),
            Err(AllocError::InvalidFree)
        );
        b.verify(&dev).unwrap();
    }

    #[test]
    fn non_power_of_two_range() {
        let (dev, b, mut j) = setup(1000);
        assert_eq!(b.free_frames(&dev), 1000);
        b.verify(&dev).unwrap();
        let mut got = Vec::new();
        loop {
            match j.run(&dev, |tx| b.alloc(&dev, tx, 0)) {
                Ok(f) => got.push(f),
                Err(AllocError::OutOfMemory) => break,
                Err(e) => panic!("{e}"),
            }
        }
        assert_eq!(got.len(), 1000);
        let unique: std::collections::HashSet<_> = got.iter().collect();
        assert_eq!(unique.len(), 1000);
    }

    #[test]
    fn carve_reserves_specific_block() {
        let (dev, b, mut j) = setup(256);
        let mut map = b.empty_map();
        b.claim(&mut map, FrameId(64), 2).unwrap();
        // Claiming an overlapping block fails.
        assert_eq!(b.claim(&mut map, FrameId(64), 0), Err(AllocError::Overlap));
        assert_eq!(b.claim(&mut map, FrameId(66), 1), Err(AllocError::Overlap));
        // Misaligned, out-of-range and oversized blocks are typed errors.
        assert_eq!(b.claim(&mut map, FrameId(65), 1), Err(AllocError::InvalidFree));
        assert_eq!(b.claim(&mut map, FrameId(256), 0), Err(AllocError::InvalidFree));
        assert_eq!(b.claim(&mut map, FrameId(0), MAX_ORDER + 1), Err(AllocError::OrderTooLarge));
        // Adjacent claim succeeds.
        b.claim(&mut map, FrameId(68), 2).unwrap();
        b.sweep(&dev, &map);
        b.verify(&dev).unwrap();
        assert_eq!(b.free_frames(&dev), 256 - 8);
        // Subsequent allocs never return the claimed frames.
        let mut seen = std::collections::HashSet::new();
        while let Ok(f) = j.run(&dev, |tx| b.alloc(&dev, tx, 0)) {
            seen.insert(f.0);
        }
        assert_eq!(seen.len(), 256 - 8);
        for r in 64..72 {
            assert!(!seen.contains(&r), "claimed frame {r} re-allocated");
        }
        // The claimed blocks free back into one fully merged range.
        for f in seen {
            j.run(&dev, |tx| b.free(&dev, tx, FrameId(f), 0)).unwrap();
        }
        j.run(&dev, |tx| b.free(&dev, tx, FrameId(64), 2)).unwrap();
        j.run(&dev, |tx| b.free(&dev, tx, FrameId(68), 2)).unwrap();
        b.verify(&dev).unwrap();
        assert_eq!(j.run(&dev, |tx| b.alloc(&dev, tx, 8)), Ok(FrameId(0)));
    }

    #[test]
    fn attach_after_recover_sees_same_state() {
        let layout = AllocLayout::for_device(0, 128);
        let dev = Arc::new(NvmDevice::new(128, layout.end_off, Arc::new(LatencyModel::disabled())));
        let mut j = Journal::format(&dev, layout.journal_off, layout.journal_records);
        let b = Buddy::format(&dev, &layout);
        let f = j.run(&dev, |tx| b.alloc(&dev, tx, 4)).unwrap();
        let _ = (b, j);
        // "Reboot".
        let _j2 = Journal::recover(&dev, layout.journal_off, layout.journal_records);
        let b2 = Buddy::attach(&dev, &layout).unwrap();
        assert_eq!(b2.free_frames(&dev), 128 - 16);
        b2.verify(&dev).unwrap();
        let mut j2 = Journal::recover(&dev, layout.journal_off, layout.journal_records);
        j2.run(&dev, |tx| b2.free(&dev, tx, f, 4)).unwrap();
        assert_eq!(b2.free_frames(&dev), 128);
    }

    #[test]
    fn crash_injection_during_ops_always_recovers_consistent() {
        // Crash after every possible metadata write during a mixed
        // workload; after journal recovery the buddy must verify and the
        // free count must equal one of the two legal values.
        for cut in 0..200u64 {
            let layout = AllocLayout::for_device(0, 64);
            let dev =
                Arc::new(NvmDevice::new(64, layout.end_off, Arc::new(LatencyModel::disabled())));
            let mut j = Journal::format(&dev, layout.journal_off, layout.journal_records);
            let b = Buddy::format(&dev, &layout);
            let a = j.run(&dev, |tx| b.alloc(&dev, tx, 0)).unwrap();
            let before = b.free_frames(&dev);
            dev.meta().arm_crash_after(cut);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                j.run(&dev, |tx| b.alloc(&dev, tx, 2)).unwrap();
                j.run(&dev, |tx| b.free(&dev, tx, a, 0)).unwrap();
            }));
            dev.meta().disarm_crash();
            let _ = Journal::recover(&dev, layout.journal_off, layout.journal_records);
            let b2 = Buddy::attach(&dev, &layout).unwrap();
            b2.verify(&dev).unwrap_or_else(|e| panic!("cut={cut}: {e}"));
            let after = b2.free_frames(&dev);
            if result.is_ok() {
                assert_eq!(after, before - 4 + 1, "cut={cut}");
            } else {
                // Rolled back to one of the operation boundaries.
                assert!(
                    after == before || after == before - 4 || after == before - 4 + 1,
                    "cut={cut}: free={after}, before={before}"
                );
            }
        }
    }
}
