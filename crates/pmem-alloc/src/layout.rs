//! On-NVM layout of the allocator metadata.
//!
//! The metadata arena of the [`NvmDevice`](treesls_nvm::NvmDevice) is carved
//! into fixed regions at format time. Offsets are bytes from the start of
//! the arena. The first [`AllocLayout::GLOBAL_META_RESERVED`] bytes are left
//! for the checkpoint manager's global metadata (global version number,
//! commit record, backup-tree root — see `treesls-checkpoint`).

/// Maximum buddy order: blocks range from 1 frame (4 KiB) to
/// `1 << MAX_ORDER` frames (4 MiB).
pub const MAX_ORDER: u8 = 10;

/// Slab size classes in bytes. Classes are powers of two so a 4 KiB slab
/// frame holds at most 64 objects and its occupancy fits a `u64` bitmap.
pub const SLAB_CLASSES: &[usize] = &[64, 128, 256, 512, 1024, 2048];

/// Byte layout of the allocator's metadata regions.
///
/// Construct with [`AllocLayout::for_device`], which sizes every region
/// from the device's frame count and packs them after the reserved global
/// metadata area.
#[derive(Debug, Clone, Copy)]
pub struct AllocLayout {
    /// First frame id managed by the buddy system.
    pub first_frame: u32,
    /// Number of frames managed.
    pub frame_count: u32,
    /// Offset of the undo journal header.
    pub journal_off: usize,
    /// Capacity of the undo journal in records.
    pub journal_records: usize,
    /// Offset of the buddy header (magic, counts, free-list heads).
    pub buddy_off: usize,
    /// Offset of the slab region (class heads + per-frame descriptors).
    pub slab_off: usize,
    /// Offset of the flight-recorder event ring (cache-line aligned; see
    /// `treesls-obs`).
    pub recorder_off: usize,
    /// Capacity of the flight-recorder ring in 64-byte slots.
    pub recorder_slots: usize,
    /// Total metadata bytes consumed (for arena sizing).
    pub end_off: usize,
}

impl AllocLayout {
    /// Bytes at the start of the arena reserved for the checkpoint
    /// manager's global metadata.
    pub const GLOBAL_META_RESERVED: usize = 4096;

    /// Default journal capacity in records.
    ///
    /// A single buddy alloc/free touches O(`MAX_ORDER`) list words; slabs a
    /// handful more. 512 records is an order of magnitude of headroom.
    pub const DEFAULT_JOURNAL_RECORDS: usize = 512;

    /// Size of one flight-recorder slot in bytes (one cache line).
    ///
    /// Must equal `treesls_obs::SLOT_LEN`; the recorder's append is a
    /// single-cache-line store, which is what makes it atomic-or-absent
    /// under every persistence model (see `OBSERVABILITY.md`).
    pub const RECORDER_SLOT_LEN: usize = 64;

    /// Default flight-recorder capacity in slots (16 KiB of arena).
    pub const DEFAULT_RECORDER_SLOTS: usize = 256;

    /// Computes the layout for a device managing `frame_count` frames
    /// starting at frame `first_frame`.
    pub fn for_device(first_frame: u32, frame_count: u32) -> Self {
        let journal_off = Self::GLOBAL_META_RESERVED;
        let journal_records = Self::DEFAULT_JOURNAL_RECORDS;
        let journal_len = crate::journal::Journal::region_len(journal_records);
        let buddy_off = align8(journal_off + journal_len);
        let buddy_len = crate::buddy::Buddy::region_len(frame_count);
        let slab_off = align8(buddy_off + buddy_len);
        let slab_len = crate::slab::SlabHeap::region_len(frame_count);
        let recorder_off = align_to(slab_off + slab_len, Self::RECORDER_SLOT_LEN);
        let recorder_slots = Self::DEFAULT_RECORDER_SLOTS;
        let end_off = align8(recorder_off + recorder_slots * Self::RECORDER_SLOT_LEN);
        Self {
            first_frame,
            frame_count,
            journal_off,
            journal_records,
            buddy_off,
            slab_off,
            recorder_off,
            recorder_slots,
            end_off,
        }
    }

    /// Returns the minimum metadata-arena length for `frame_count` frames.
    pub fn required_meta_len(frame_count: u32) -> usize {
        Self::for_device(0, frame_count).end_off
    }
}

pub(crate) fn align8(x: usize) -> usize {
    (x + 7) & !7
}

/// Stores `v` little-endian at `at` in a DRAM image of a region.
pub(crate) fn put_u32(img: &mut [u8], at: usize, v: u32) {
    img[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

/// Rounds `x` up to a multiple of `to` (a power of two).
fn align_to(x: usize, to: usize) -> usize {
    (x + to - 1) & !(to - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_do_not_overlap() {
        let l = AllocLayout::for_device(0, 1024);
        assert!(l.journal_off >= AllocLayout::GLOBAL_META_RESERVED);
        assert!(l.buddy_off > l.journal_off);
        assert!(l.slab_off > l.buddy_off);
        assert!(l.recorder_off > l.slab_off);
        assert!(l.end_off >= l.recorder_off + l.recorder_slots * AllocLayout::RECORDER_SLOT_LEN);
    }

    #[test]
    fn recorder_region_is_cache_line_aligned() {
        for frames in [64u32, 1024, 16384] {
            let l = AllocLayout::for_device(0, frames);
            assert_eq!(l.recorder_off % AllocLayout::RECORDER_SLOT_LEN, 0);
            assert_eq!(l.recorder_slots, AllocLayout::DEFAULT_RECORDER_SLOTS);
        }
    }

    #[test]
    fn layout_scales_with_frames() {
        let small = AllocLayout::required_meta_len(64);
        let large = AllocLayout::required_meta_len(65536);
        assert!(large > small);
    }

    #[test]
    fn align8_works() {
        assert_eq!(align8(0), 0);
        assert_eq!(align8(1), 8);
        assert_eq!(align8(8), 8);
        assert_eq!(align8(9), 16);
    }
}
