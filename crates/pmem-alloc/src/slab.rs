//! Slab caches for small fixed-size NVM allocations.
//!
//! The checkpoint manager allocates many small records — backup object
//! headers, radix-tree nodes, capability-table shadows. Slabs carve 4 KiB
//! buddy frames into power-of-two size classes (64 B … 2 KiB) with a `u64`
//! occupancy bitmap per slab, all persisted in the NVM metadata arena and
//! mutated only through journal transactions — except by format and the
//! restore-time rebuild, which rewrite the region in one `SlabHeap::sweep`.
//!
//! Persistent layout at `layout.slab_off`:
//!
//! ```text
//! +0    magic                u64
//! +8    partial_heads[class] u32 each (relative frame id, NONE = u32::MAX)
//! +8+4C descriptors[frame_count], 24 bytes each:
//!         +0  class+1  u8   (0 = frame is not a slab)
//!         +1  pad      3 B
//!         +4  next     u32  (partial list link)
//!         +8  prev     u32
//!         +12 pad      4 B
//!         +16 bitmap   u64  (bit i set = object i live)
//! ```

use treesls_nvm::{FrameId, NvmDevice, PAGE_SIZE};

use crate::buddy::Buddy;
use crate::error::AllocError;
use crate::journal::Tx;
use crate::layout::{align8, put_u32, AllocLayout, SLAB_CLASSES};

const MAGIC: u64 = 0x51AB_51AB_51AB_0001;
const NONE: u32 = u32::MAX;
const DESC_SIZE: usize = 24;

/// An NVM address inside a slab frame: `(frame, byte offset)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NvmAddr {
    /// The frame holding the object.
    pub frame: FrameId,
    /// Byte offset of the object within the frame.
    pub offset: u32,
}

impl NvmAddr {
    /// Packs the address into a `u64` for persistence.
    pub fn to_raw(self) -> u64 {
        ((self.frame.0 as u64) << 32) | self.offset as u64
    }

    /// Unpacks an address produced by [`to_raw`](Self::to_raw).
    pub fn from_raw(raw: u64) -> Self {
        Self { frame: FrameId((raw >> 32) as u32), offset: raw as u32 }
    }
}

/// The occupancy bitmap of the descriptor at offset `d` of a slab image.
fn bitmap(img: &[u8], d: usize) -> u64 {
    u64::from_le_bytes(img[d + 16..d + 24].try_into().expect("8-byte bitmap"))
}

/// Returns the class index for an allocation of `size` bytes.
pub fn class_for(size: usize) -> Option<usize> {
    SLAB_CLASSES.iter().position(|&c| c >= size.max(1))
}

/// The slab heap. Holds volatile offsets only; all state is in NVM.
#[derive(Debug)]
pub struct SlabHeap {
    off: usize,
    first_frame: u32,
    frame_count: u32,
}

impl SlabHeap {
    /// Bytes of arena needed for `frame_count` frames.
    pub fn region_len(frame_count: u32) -> usize {
        align8(8 + 4 * SLAB_CLASSES.len()) + frame_count as usize * DESC_SIZE
    }

    fn heads_off(&self) -> usize {
        self.off + 8
    }

    fn desc_off(&self, rel: u32) -> usize {
        self.off + align8(8 + 4 * SLAB_CLASSES.len()) + rel as usize * DESC_SIZE
    }

    fn at(l: &AllocLayout) -> Self {
        Self { off: l.slab_off, first_frame: l.first_frame, frame_count: l.frame_count }
    }

    /// Formats a fresh slab heap: the sweep over no slab objects.
    pub fn format(dev: &NvmDevice, layout: &AllocLayout) -> Self {
        let s = Self::at(layout);
        s.sweep(dev, &mut s.empty_image());
        s
    }

    /// Reattaches to already-formatted metadata; a bad magic number is
    /// [`AllocError::Corrupt`].
    pub fn attach(dev: &NvmDevice, layout: &AllocLayout) -> Result<Self, AllocError> {
        let intact = dev.meta().read_u64(layout.slab_off) == MAGIC;
        intact.then(|| Self::at(layout)).ok_or(AllocError::Corrupt)
    }

    /// A DRAM image of the slab region with no slabs, for a rebuild to
    /// [`claim`](Self::claim) objects into.
    pub(crate) fn empty_image(&self) -> Vec<u8> {
        vec![0u8; Self::region_len(self.frame_count)]
    }

    /// Marks the slab object `(addr, size)` live in the DRAM image `img`; its
    /// frame becomes a slab of its class on first use, claimed from the buddy
    /// used-frame `map`. A frame or slot claimed twice (or under two classes)
    /// is [`AllocError::Overlap`], a bad frame or offset `InvalidFree`.
    pub(crate) fn claim(
        &self,
        img: &mut [u8],
        buddy: &Buddy,
        map: &mut [u8],
        addr: NvmAddr,
        size: usize,
    ) -> Result<(), AllocError> {
        let class = class_for(size).ok_or(AllocError::SizeTooLarge)?;
        let r = addr.frame.0.checked_sub(self.first_frame).filter(|&r| r < self.frame_count);
        let d = self.desc_off(r.ok_or(AllocError::InvalidFree)?) - self.off;
        match img[d] {
            0 => {
                buddy.claim(map, addr.frame, 0)?;
                img[d] = class as u8 + 1;
            }
            tag if tag as usize != class + 1 => return Err(AllocError::Overlap),
            _ => {}
        }
        let csize = SLAB_CLASSES[class] as u32;
        if !addr.offset.is_multiple_of(csize) || addr.offset / csize >= Self::objs_per_slab(class) {
            return Err(AllocError::InvalidFree);
        }
        let (old, bit) = (bitmap(img, d), 1u64 << (addr.offset / csize));
        if old & bit != 0 {
            return Err(AllocError::Overlap);
        }
        img[d + 16..d + 24].copy_from_slice(&(old | bit).to_le_bytes());
        Ok(())
    }

    /// Pushes every partial slab of the image `img` on its class's partial
    /// list, in DRAM, and writes the image — magic, heads and descriptors —
    /// in one store. Unjournaled: see the crate docs.
    pub(crate) fn sweep(&self, dev: &NvmDevice, img: &mut [u8]) {
        let mut heads = [NONE; SLAB_CLASSES.len()];
        for r in 0..self.frame_count {
            let d = self.desc_off(r) - self.off;
            let partial = |c: &usize| bitmap(img, d) != Self::full_mask(*c);
            let Some(class) = (img[d] as usize).checked_sub(1).filter(partial) else { continue };
            let head = std::mem::replace(&mut heads[class], r);
            put_u32(img, d + 4, head);
            put_u32(img, d + 8, NONE);
            if head != NONE {
                put_u32(img, self.desc_off(head) - self.off + 8, r);
            }
        }
        for (class, &head) in heads.iter().enumerate() {
            put_u32(img, self.heads_off() - self.off + 4 * class, head);
        }
        img[..8].copy_from_slice(&MAGIC.to_le_bytes());
        dev.meta().write_bytes(self.off, img);
    }

    fn rel(&self, frame: FrameId) -> u32 {
        frame.0 - self.first_frame
    }

    fn objs_per_slab(class: usize) -> u32 {
        (PAGE_SIZE / SLAB_CLASSES[class]) as u32
    }

    fn full_mask(class: usize) -> u64 {
        let n = Self::objs_per_slab(class);
        if n >= 64 {
            u64::MAX
        } else {
            (1u64 << n) - 1
        }
    }

    fn partial_push(&self, dev: &NvmDevice, tx: &mut Tx<'_>, class: usize, r: u32) {
        let head = dev.meta().read_u32(self.heads_off() + 4 * class);
        tx.write_u32(self.desc_off(r) + 4, head);
        tx.write_u32(self.desc_off(r) + 8, NONE);
        if head != NONE {
            tx.write_u32(self.desc_off(head) + 8, r);
        }
        tx.write_u32(self.heads_off() + 4 * class, r);
    }

    fn partial_remove(&self, dev: &NvmDevice, tx: &mut Tx<'_>, class: usize, r: u32) {
        let meta = dev.meta();
        let next = meta.read_u32(self.desc_off(r) + 4);
        let prev = meta.read_u32(self.desc_off(r) + 8);
        if prev == NONE {
            tx.write_u32(self.heads_off() + 4 * class, next);
        } else {
            tx.write_u32(self.desc_off(prev) + 4, next);
        }
        if next != NONE {
            tx.write_u32(self.desc_off(next) + 8, prev);
        }
    }

    /// Allocates `size` bytes.
    pub fn alloc(
        &self,
        dev: &NvmDevice,
        buddy: &Buddy,
        tx: &mut Tx<'_>,
        size: usize,
    ) -> Result<NvmAddr, AllocError> {
        let class = class_for(size).ok_or(AllocError::SizeTooLarge)?;
        let meta = dev.meta();
        let mut r = meta.read_u32(self.heads_off() + 4 * class);
        if r == NONE {
            // No partial slab: grow by one buddy frame.
            let frame = buddy.alloc(dev, tx, 0)?;
            r = self.rel(frame);
            tx.write_u8(self.desc_off(r), class as u8 + 1);
            tx.write_u64(self.desc_off(r) + 16, 0);
            self.partial_push(dev, tx, class, r);
        }
        let bitmap = meta.read_u64(self.desc_off(r) + 16);
        let slot = (!bitmap).trailing_zeros();
        debug_assert!(slot < Self::objs_per_slab(class));
        let new_bitmap = bitmap | (1u64 << slot);
        tx.write_u64(self.desc_off(r) + 16, new_bitmap);
        if new_bitmap == Self::full_mask(class) {
            self.partial_remove(dev, tx, class, r);
        }
        Ok(NvmAddr {
            frame: FrameId(r + self.first_frame),
            offset: slot * SLAB_CLASSES[class] as u32,
        })
    }

    /// Frees an object previously allocated with the same original `size`.
    pub fn free(
        &self,
        dev: &NvmDevice,
        buddy: &Buddy,
        tx: &mut Tx<'_>,
        addr: NvmAddr,
        size: usize,
    ) -> Result<(), AllocError> {
        let class = class_for(size).ok_or(AllocError::SizeTooLarge)?;
        let r = self.rel(addr.frame);
        if r >= self.frame_count {
            return Err(AllocError::InvalidFree);
        }
        let meta = dev.meta();
        let tag = meta.read_u8(self.desc_off(r));
        if tag as usize != class + 1 {
            return Err(AllocError::InvalidFree);
        }
        let csize = SLAB_CLASSES[class] as u32;
        if !addr.offset.is_multiple_of(csize) {
            return Err(AllocError::InvalidFree);
        }
        let slot = addr.offset / csize;
        if slot >= Self::objs_per_slab(class) {
            return Err(AllocError::InvalidFree);
        }
        let bitmap = meta.read_u64(self.desc_off(r) + 16);
        if bitmap & (1u64 << slot) == 0 {
            return Err(AllocError::InvalidFree);
        }
        let was_full = bitmap == Self::full_mask(class);
        let new_bitmap = bitmap & !(1u64 << slot);
        tx.write_u64(self.desc_off(r) + 16, new_bitmap);
        if new_bitmap == 0 {
            // Slab empty: return the frame to the buddy system.
            if !was_full {
                self.partial_remove(dev, tx, class, r);
            }
            tx.write_u8(self.desc_off(r), 0);
            buddy.free(dev, tx, addr.frame, 0)?;
        } else if was_full {
            self.partial_push(dev, tx, class, r);
        }
        Ok(())
    }

    /// Counts live objects across all slabs (scan; diagnostics only).
    pub fn live_objects(&self, dev: &NvmDevice) -> usize {
        let meta = dev.meta();
        let mut total = 0usize;
        for r in 0..self.frame_count {
            if meta.read_u8(self.desc_off(r)) != 0 {
                total += meta.read_u64(self.desc_off(r) + 16).count_ones() as usize;
            }
        }
        total
    }

    /// Counts frames currently used as slabs.
    pub fn slab_frames(&self, dev: &NvmDevice) -> usize {
        let meta = dev.meta();
        (0..self.frame_count).filter(|&r| meta.read_u8(self.desc_off(r)) != 0).count()
    }

    /// Verifies slab invariants.
    pub fn verify(&self, dev: &NvmDevice) -> Result<(), String> {
        let meta = dev.meta();
        let mut on_list = std::collections::HashSet::new();
        for (class, _) in SLAB_CLASSES.iter().enumerate() {
            let mut cur = meta.read_u32(self.heads_off() + 4 * class);
            let mut prev = NONE;
            let mut steps = 0;
            while cur != NONE {
                steps += 1;
                if steps > self.frame_count {
                    return Err(format!("slab class {class}: partial list cycle"));
                }
                let tag = meta.read_u8(self.desc_off(cur));
                if tag as usize != class + 1 {
                    return Err(format!("slab class {class}: list member {cur} has tag {tag}"));
                }
                let bitmap = meta.read_u64(self.desc_off(cur) + 16);
                if bitmap == Self::full_mask(class) {
                    return Err(format!("slab class {class}: full slab {cur} on partial list"));
                }
                if meta.read_u32(self.desc_off(cur) + 8) != prev {
                    return Err(format!("slab class {class}: bad prev link at {cur}"));
                }
                if !on_list.insert(cur) {
                    return Err(format!("slab frame {cur} on two partial lists"));
                }
                prev = cur;
                cur = meta.read_u32(self.desc_off(cur) + 4);
            }
        }
        for r in 0..self.frame_count {
            let tag = meta.read_u8(self.desc_off(r));
            if tag == 0 {
                continue;
            }
            let class = tag as usize - 1;
            if class >= SLAB_CLASSES.len() {
                return Err(format!("slab frame {r}: bad class tag {tag}"));
            }
            let bitmap = meta.read_u64(self.desc_off(r) + 16);
            let mask = Self::full_mask(class);
            if bitmap & !mask != 0 {
                return Err(format!("slab frame {r}: bitmap bits beyond object count"));
            }
            if bitmap == 0 {
                return Err(format!("slab frame {r}: empty slab not returned to buddy"));
            }
            let partial = bitmap != mask;
            if partial && !on_list.contains(&r) {
                return Err(format!("slab frame {r}: partial slab missing from list"));
            }
            if !partial && on_list.contains(&r) {
                return Err(format!("slab frame {r}: full slab on partial list"));
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

    fn setup(frames: u32) -> (Arc<NvmDevice>, Buddy, SlabHeap, Journal) {
        let layout = AllocLayout::for_device(0, frames);
        let dev = Arc::new(NvmDevice::new(
            frames as usize,
            layout.end_off,
            Arc::new(LatencyModel::disabled()),
        ));
        let j = Journal::format(&dev, layout.journal_off, layout.journal_records);
        let b = Buddy::format(&dev, &layout);
        let s = SlabHeap::format(&dev, &layout);
        (dev, b, s, j)
    }

    #[test]
    fn class_selection() {
        assert_eq!(class_for(1), Some(0));
        assert_eq!(class_for(64), Some(0));
        assert_eq!(class_for(65), Some(1));
        assert_eq!(class_for(2048), Some(SLAB_CLASSES.len() - 1));
        assert_eq!(class_for(2049), None);
    }

    #[test]
    fn addr_raw_roundtrip() {
        let a = NvmAddr { frame: FrameId(77), offset: 1920 };
        assert_eq!(NvmAddr::from_raw(a.to_raw()), a);
    }

    #[test]
    fn alloc_free_roundtrip() {
        let (dev, b, s, mut j) = setup(64);
        let a = j.run(&dev, |tx| s.alloc(&dev, &b, tx, 100)).unwrap();
        assert_eq!(s.live_objects(&dev), 1);
        assert_eq!(s.slab_frames(&dev), 1);
        s.verify(&dev).unwrap();
        b.verify(&dev).unwrap();
        j.run(&dev, |tx| s.free(&dev, &b, tx, a, 100)).unwrap();
        assert_eq!(s.live_objects(&dev), 0);
        assert_eq!(s.slab_frames(&dev), 0);
        // Frame returned to buddy.
        assert_eq!(b.free_frames(&dev), 64);
        s.verify(&dev).unwrap();
        b.verify(&dev).unwrap();
    }

    #[test]
    fn fills_slab_then_grows() {
        let (dev, b, s, mut j) = setup(64);
        // 2048-byte class: 2 objects per slab.
        let a1 = j.run(&dev, |tx| s.alloc(&dev, &b, tx, 2048)).unwrap();
        let a2 = j.run(&dev, |tx| s.alloc(&dev, &b, tx, 2048)).unwrap();
        assert_eq!(a1.frame, a2.frame);
        assert_ne!(a1.offset, a2.offset);
        let a3 = j.run(&dev, |tx| s.alloc(&dev, &b, tx, 2048)).unwrap();
        assert_ne!(a3.frame, a1.frame);
        assert_eq!(s.slab_frames(&dev), 2);
        s.verify(&dev).unwrap();
        // Free one from the full slab: it returns to the partial list and
        // serves the next allocation.
        j.run(&dev, |tx| s.free(&dev, &b, tx, a1, 2048)).unwrap();
        s.verify(&dev).unwrap();
        let a4 = j.run(&dev, |tx| s.alloc(&dev, &b, tx, 2048)).unwrap();
        assert_eq!(a4, a1);
    }

    #[test]
    fn distinct_classes_use_distinct_slabs() {
        let (dev, b, s, mut j) = setup(64);
        let small = j.run(&dev, |tx| s.alloc(&dev, &b, tx, 64)).unwrap();
        let large = j.run(&dev, |tx| s.alloc(&dev, &b, tx, 1024)).unwrap();
        assert_ne!(small.frame, large.frame);
        s.verify(&dev).unwrap();
        j.run(&dev, |tx| s.free(&dev, &b, tx, small, 64)).unwrap();
        j.run(&dev, |tx| s.free(&dev, &b, tx, large, 1024)).unwrap();
        assert_eq!(b.free_frames(&dev), 64);
    }

    #[test]
    fn invalid_frees_rejected() {
        let (dev, b, s, mut j) = setup(64);
        let a = j.run(&dev, |tx| s.alloc(&dev, &b, tx, 100)).unwrap();
        // Wrong size class.
        assert_eq!(
            j.run(&dev, |tx| s.free(&dev, &b, tx, a, 2000)),
            Err(AllocError::InvalidFree)
        );
        // Misaligned offset.
        let bad = NvmAddr { frame: a.frame, offset: a.offset + 1 };
        assert_eq!(j.run(&dev, |tx| s.free(&dev, &b, tx, bad, 100)), Err(AllocError::InvalidFree));
        // Dead slot.
        let dead = NvmAddr { frame: a.frame, offset: a.offset + 128 };
        assert_eq!(
            j.run(&dev, |tx| s.free(&dev, &b, tx, dead, 100)),
            Err(AllocError::InvalidFree)
        );
        // Double free.
        j.run(&dev, |tx| s.free(&dev, &b, tx, a, 100)).unwrap();
        assert_eq!(j.run(&dev, |tx| s.free(&dev, &b, tx, a, 100)), Err(AllocError::InvalidFree));
        s.verify(&dev).unwrap();
        b.verify(&dev).unwrap();
    }

    #[test]
    fn many_allocations_unique_addresses() {
        let (dev, b, s, mut j) = setup(256);
        let mut addrs = std::collections::HashSet::new();
        for _ in 0..500 {
            let a = j.run(&dev, |tx| s.alloc(&dev, &b, tx, 64)).unwrap();
            assert!(addrs.insert(a), "duplicate address {a:?}");
        }
        assert_eq!(s.live_objects(&dev), 500);
        s.verify(&dev).unwrap();
        b.verify(&dev).unwrap();
        for a in addrs {
            j.run(&dev, |tx| s.free(&dev, &b, tx, a, 64)).unwrap();
        }
        assert_eq!(b.free_frames(&dev), 256);
    }

    #[test]
    fn carve_rebuilds_live_objects() {
        let (dev, b, s, mut j) = setup(64);
        let a1 = j.run(&dev, |tx| s.alloc(&dev, &b, tx, 256)).unwrap();
        let a2 = j.run(&dev, |tx| s.alloc(&dev, &b, tx, 256)).unwrap();
        // Simulate restore: rebuild with only a1 reachable.
        let (mut map, mut img) = (b.empty_map(), s.empty_image());
        s.claim(&mut img, &b, &mut map, a1, 256).unwrap();
        // Double claim of the same object, a class mismatch on its frame and
        // a block over its frame are overlaps.
        assert_eq!(s.claim(&mut img, &b, &mut map, a1, 256), Err(AllocError::Overlap));
        assert_eq!(s.claim(&mut img, &b, &mut map, a2, 64), Err(AllocError::Overlap));
        assert_eq!(b.claim(&mut map, a1.frame, 0), Err(AllocError::Overlap));
        let bad = NvmAddr { frame: a1.frame, offset: 100 };
        assert_eq!(s.claim(&mut img, &b, &mut map, bad, 256), Err(AllocError::InvalidFree));
        b.sweep(&dev, &map);
        s.sweep(&dev, &mut img);
        s.verify(&dev).unwrap();
        b.verify(&dev).unwrap();
        assert_eq!(s.live_objects(&dev), 1);
        assert_eq!(b.free_frames(&dev), 63);
        // a2's slot can be re-used by fresh allocations now.
        let fresh = j.run(&dev, |tx| s.alloc(&dev, &b, tx, 256)).unwrap();
        assert_eq!(fresh, a2);
    }

    #[test]
    fn crash_injection_during_slab_ops_recovers() {
        for cut in 0..150u64 {
            let layout = AllocLayout::for_device(0, 64);
            let dev =
                Arc::new(NvmDevice::new(64, layout.end_off, Arc::new(LatencyModel::disabled())));
            let mut j = Journal::format(&dev, layout.journal_off, layout.journal_records);
            let b = Buddy::format(&dev, &layout);
            let s = SlabHeap::format(&dev, &layout);
            let a = j.run(&dev, |tx| s.alloc(&dev, &b, tx, 512)).unwrap();
            dev.meta().arm_crash_after(cut);
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = j.run(&dev, |tx| s.alloc(&dev, &b, tx, 512));
                let _ = j.run(&dev, |tx| s.free(&dev, &b, tx, a, 512));
            }));
            dev.meta().disarm_crash();
            let _ = Journal::recover(&dev, layout.journal_off, layout.journal_records);
            let b2 = Buddy::attach(&dev, &layout).unwrap();
            let s2 = SlabHeap::attach(&dev, &layout).unwrap();
            b2.verify(&dev).unwrap_or_else(|e| panic!("cut={cut}: buddy: {e}"));
            s2.verify(&dev).unwrap_or_else(|e| panic!("cut={cut}: slab: {e}"));
        }
    }
}
