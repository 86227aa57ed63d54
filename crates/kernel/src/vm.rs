//! VM spaces, regions, the DRAM-resident soft page table and the
//! per-thread TLB in front of it.
//!
//! "VM Space records a list of accessible virtual memory regions and a page
//! table structure for the space. Each virtual memory region is backed by a
//! physical memory object (PMO)" (§4.1). TreeSLS checkpoints the region
//! list but *not* the page table: "the page tables can be rebuilt after
//! recovery ... TreeSLS puts the page tables on DRAM as they do not need to
//! be persisted". The soft page table here is exactly that: a volatile
//! vpn → page-slot cache that is dropped on crash and repopulated by soft
//! page faults after restore.
//!
//! Each thread also keeps a small direct-mapped TLB ([`TLB_ENTRIES`]
//! entries) of the translations it used last, keyed by kernel instance,
//! VM space and vpn, so an access that hits takes no object-table, VM-space
//! or page-table lock. The page table stays the one authority: a miss walks
//! it as before and fills the entry. There is one invalidation rule: every
//! removal from a page table bumps the kernel's TLB generation *after*
//! removing ([`Kernel::invalidate_tlbs`]), and a fill records the
//! generation it read *before* its walk, so an entry is used only while the
//! generation it was filled under is still current. A restore builds a new
//! kernel with a new instance id, so no entry of the dead kernel can hit.
//!
//! Write protection deliberately does NOT live in the cached translation.
//! A [`PteCache`] entry carries only the region permissions from map time;
//! the per-checkpoint CoW state (`writable`, migration, the in-line undo
//! log) lives in the shared [`PageSlot`]'s `PageMeta`, which every write
//! takes a lock on. That split is what lets the epoch flip's
//! `mark_readonly` pass stay O(dirty pages) with no shootdown: the leader
//! flips `meta.writable` under each slot lock and every cached translation
//! — in every thread's TLB and every page table — observes it on its next
//! write, so the O(1) stop window has no TLB/PTE invalidation step
//! (DESIGN.md "Epoch-concurrent checkpointing: the no-park flip").
//!
//! [`Kernel::invalidate_tlbs`]: crate::Kernel::invalidate_tlbs

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::cap::CapRights;
use crate::pmo::PageSlot;
use crate::types::{ObjId, Vpn};

/// A contiguous virtual memory region backed by (part of) a PMO.
#[derive(Debug, Clone)]
pub struct VmRegion {
    /// First virtual page of the region.
    pub base: Vpn,
    /// Length in pages.
    pub npages: u64,
    /// Backing PMO (runtime object id).
    pub pmo: ObjId,
    /// Page offset within the PMO where this region starts.
    pub pmo_off: u64,
    /// Access permissions.
    pub perm: CapRights,
}

impl VmRegion {
    /// Returns the PMO page index backing `vpn`, if the region covers it.
    pub fn pmo_index(&self, vpn: Vpn) -> Option<u64> {
        if vpn >= self.base && vpn.0 < self.base.0 + self.npages {
            Some(self.pmo_off + (vpn.0 - self.base.0))
        } else {
            None
        }
    }
}

/// A cached translation: the shared page slot plus region permissions.
///
/// Checkpoint-epoch write-protection state is *not* cached here — it is
/// read from the slot's `PageMeta` under its lock on every write, so a
/// flip never has to find or invalidate these entries (see the module
/// docs).
#[derive(Debug, Clone)]
pub struct PteCache {
    /// The shared page slot holding the page's physical state.
    pub slot: Arc<PageSlot>,
    /// Region permissions at map time.
    pub perm: CapRights,
    /// The backing PMO (needed by the fault handler for bookkeeping).
    pub pmo: ObjId,
}

/// The volatile soft page table of one VM space.
///
/// Lives in DRAM; never checkpointed. After restore every translation
/// misses and is re-established through the region list — the paper's
/// "empty page table is created for each process" recovery behaviour.
#[derive(Debug, Default)]
pub struct PageTable {
    map: Mutex<HashMap<Vpn, PteCache>>,
}

impl PageTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up a cached translation.
    pub fn get(&self, vpn: Vpn) -> Option<PteCache> {
        self.map.lock().get(&vpn).cloned()
    }

    /// Installs a translation.
    pub fn insert(&self, vpn: Vpn, pte: PteCache) {
        self.map.lock().insert(vpn, pte);
    }

    /// Drops a translation (region unmap, page removal). The caller bumps
    /// the kernel's TLB generation afterwards
    /// ([`Kernel::invalidate_tlbs`](crate::Kernel::invalidate_tlbs)).
    pub fn remove(&self, vpn: Vpn) -> Option<PteCache> {
        self.map.lock().remove(&vpn)
    }

    /// Number of cached translations.
    pub fn len(&self) -> usize {
        self.map.lock().len()
    }

    /// Returns `true` if no translations are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Entries in each thread's TLB (direct-mapped, a power of two).
pub const TLB_ENTRIES: usize = 64;

/// One cached translation of a thread's TLB.
struct TlbEntry {
    /// Instance id of the kernel that owns the VM space.
    kernel: u64,
    vmspace: ObjId,
    vpn: Vpn,
    /// The kernel's TLB generation read before the page-table walk.
    gen: u64,
    pte: PteCache,
}

thread_local! {
    static TLB: RefCell<[Option<TlbEntry>; TLB_ENTRIES]> =
        const { RefCell::new([const { None }; TLB_ENTRIES]) };
}

fn tlb_index(vmspace: ObjId, vpn: Vpn) -> usize {
    let h = (vpn.0 ^ vmspace.to_raw().rotate_left(32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (h >> (64 - TLB_ENTRIES.trailing_zeros())) as usize
}

/// Looks `vpn` of `vmspace` up in the calling thread's TLB: a hit needs the
/// entry to be `kernel`'s and filled under generation `gen`.
pub(crate) fn tlb_lookup(kernel: u64, gen: u64, vmspace: ObjId, vpn: Vpn) -> Option<PteCache> {
    TLB.with(|tlb| match &tlb.borrow()[tlb_index(vmspace, vpn)] {
        Some(e) if e.gen == gen && e.kernel == kernel && e.vmspace == vmspace && e.vpn == vpn => {
            Some(e.pte.clone())
        }
        _ => None,
    })
}

/// Caches `pte` in the calling thread's TLB, filled under generation `gen`
/// (read before the page-table walk that produced `pte`).
pub(crate) fn tlb_fill(kernel: u64, gen: u64, vmspace: ObjId, vpn: Vpn, pte: &PteCache) {
    TLB.with(|tlb| {
        tlb.borrow_mut()[tlb_index(vmspace, vpn)] =
            Some(TlbEntry { kernel, vmspace, vpn, gen, pte: pte.clone() });
    });
}

/// Runtime body of a VM Space object.
#[derive(Debug)]
pub struct VmSpaceBody {
    /// Mapped regions, kept sorted by base vpn.
    pub regions: Vec<VmRegion>,
    /// The volatile soft page table.
    pub page_table: Arc<PageTable>,
}

impl Default for VmSpaceBody {
    fn default() -> Self {
        Self::new()
    }
}

impl VmSpaceBody {
    /// Creates an empty VM space.
    pub fn new() -> Self {
        Self { regions: Vec::new(), page_table: Arc::new(PageTable::new()) }
    }

    /// Maps a region; regions must not overlap.
    ///
    /// Returns `false` (and maps nothing) on overlap.
    pub fn map_region(&mut self, region: VmRegion) -> bool {
        let new_start = region.base.0;
        let new_end = region.base.0 + region.npages;
        for r in &self.regions {
            let s = r.base.0;
            let e = r.base.0 + r.npages;
            if new_start < e && s < new_end {
                return false;
            }
        }
        let pos = self.regions.partition_point(|r| r.base.0 < new_start);
        self.regions.insert(pos, region);
        true
    }

    /// Unmaps the region starting exactly at `base`, returning it.
    pub fn unmap_region(&mut self, base: Vpn) -> Option<VmRegion> {
        let pos = self.regions.iter().position(|r| r.base == base)?;
        Some(self.regions.remove(pos))
    }

    /// Finds the region covering `vpn` (binary search over sorted bases).
    pub fn region_for(&self, vpn: Vpn) -> Option<&VmRegion> {
        let idx = self.regions.partition_point(|r| r.base.0 <= vpn.0);
        let r = self.regions.get(idx.checked_sub(1)?)?;
        if vpn.0 < r.base.0 + r.npages {
            Some(r)
        } else {
            None
        }
    }

    /// Total mapped pages across regions.
    pub fn mapped_pages(&self) -> u64 {
        self.regions.iter().map(|r| r.npages).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treesls_nvm::{FrameId, ObjectStore};

    fn pmo_id() -> ObjId {
        let mut s: ObjectStore<u8> = ObjectStore::new();
        s.insert(0)
    }

    fn region(base: u64, npages: u64) -> VmRegion {
        VmRegion { base: Vpn(base), npages, pmo: pmo_id(), pmo_off: 0, perm: CapRights::ALL }
    }

    #[test]
    fn map_and_find() {
        let mut vs = VmSpaceBody::new();
        assert!(vs.map_region(region(10, 5)));
        assert!(vs.map_region(region(0, 4)));
        assert!(vs.map_region(region(100, 1)));
        assert_eq!(vs.region_for(Vpn(0)).unwrap().base, Vpn(0));
        assert_eq!(vs.region_for(Vpn(3)).unwrap().base, Vpn(0));
        assert!(vs.region_for(Vpn(4)).is_none());
        assert_eq!(vs.region_for(Vpn(12)).unwrap().base, Vpn(10));
        assert!(vs.region_for(Vpn(15)).is_none());
        assert_eq!(vs.region_for(Vpn(100)).unwrap().base, Vpn(100));
        assert_eq!(vs.mapped_pages(), 10);
    }

    #[test]
    fn overlap_rejected() {
        let mut vs = VmSpaceBody::new();
        assert!(vs.map_region(region(10, 5)));
        assert!(!vs.map_region(region(14, 1)));
        assert!(!vs.map_region(region(5, 6)));
        assert!(!vs.map_region(region(12, 1)));
        assert!(vs.map_region(region(15, 1)));
        assert_eq!(vs.regions.len(), 2);
    }

    #[test]
    fn unmap_by_base() {
        let mut vs = VmSpaceBody::new();
        vs.map_region(region(10, 5));
        assert!(vs.unmap_region(Vpn(11)).is_none());
        let r = vs.unmap_region(Vpn(10)).unwrap();
        assert_eq!(r.npages, 5);
        assert!(vs.region_for(Vpn(12)).is_none());
    }

    #[test]
    fn pmo_index_math() {
        let mut r = region(10, 5);
        r.pmo_off = 100;
        assert_eq!(r.pmo_index(Vpn(10)), Some(100));
        assert_eq!(r.pmo_index(Vpn(14)), Some(104));
        assert_eq!(r.pmo_index(Vpn(15)), None);
        assert_eq!(r.pmo_index(Vpn(9)), None);
    }

    #[test]
    fn page_table_cache_roundtrip() {
        let pt = PageTable::new();
        assert!(pt.is_empty());
        let slot = PageSlot::new(0, FrameId(1));
        pt.insert(
            Vpn(7),
            PteCache { slot: Arc::clone(&slot), perm: CapRights::ALL, pmo: pmo_id() },
        );
        assert_eq!(pt.len(), 1);
        assert!(Arc::ptr_eq(&pt.get(Vpn(7)).unwrap().slot, &slot));
        assert!(pt.get(Vpn(8)).is_none());
        assert!(pt.remove(Vpn(7)).is_some());
        assert!(pt.get(Vpn(7)).is_none());
    }
}
