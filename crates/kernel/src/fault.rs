//! The soft-MMU memory path: translation, minor faults, copy-on-write.
//!
//! Every application memory access goes through [`Kernel::vm_read`] /
//! [`Kernel::vm_write`], which play the role of the hardware MMU plus the
//! kernel's page-fault handler:
//!
//! * a **minor fault** materializes a page on first touch (allocating a
//!   zeroed NVM frame) or re-establishes a translation after restore (the
//!   paper's "page accesses from applications will trigger page faults and
//!   the handler will ... find the physical page from the recovered VM
//!   Space's ... PMO, and add the mapping to the page table");
//! * a **write fault** on a read-only page runs the copy-on-write handler
//!   of Figure 5 step ❻: duplicate the page into its backup slot tagged
//!   with the current global version (§4.2 case ❶), make the runtime page
//!   writable again, and bump the hotness counter that drives hybrid copy
//!   (§4.3.2);
//! * a write racing an epoch flip preserves the round's image in-line:
//!   a migrated page through the hybrid batch's stop-and-copy
//!   ([`Kernel::stop_and_copy`]), a frozen NVM page through an in-line
//!   undo record or a whole-page capture.
//!
//! [`PageMeta::restore_image`], restore's rule, is also the in-process
//! rule: a capture or log leaves a page only through one fold, which
//! first makes the source that rule picks the committed backup, and a CoW
//! fault copies the runtime frame only when the rule picks it.
//!
//! The fault handler's time and the page-copy time are measured separately
//! because Figure 10 of the paper breaks runtime overhead into exactly
//! those two components.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use treesls_nvm::PAGE_SIZE;

use crate::cap::CapRights;
use crate::kernel::Kernel;
use crate::object::{KObject, ObjType, ObjectBody};
use crate::oroot::BackupObject;
use crate::pmo::{
    encode_undo_record, undo_record_size, InlineLog, PageMeta, PagePtr, PageSlot, PageSource,
    PhysLoc, INLINE_LOG_CAP, INLINE_MAX_DATA, UNDO_HEADER,
};
use crate::types::{KernelError, ObjId, Vaddr, Vpn};
use crate::vm::{tlb_fill, tlb_lookup, PteCache};

/// Fault-path counters (Figure 10 / Table 4 inputs).
#[derive(Debug, Default)]
pub struct KernelStats {
    /// Copy-on-write (write-permission) faults.
    pub write_faults: AtomicU64,
    /// Translation misses (first touch or post-restore rebuild).
    pub minor_faults: AtomicU64,
    /// Pages actually copied by the CoW handler.
    pub cow_copies: AtomicU64,
    /// Nanoseconds spent inside fault handling (excluding the page copy).
    pub fault_ns: AtomicU64,
    /// Nanoseconds spent copying pages in the CoW handler.
    pub memcpy_ns: AtomicU64,
    /// Epoch-fence conflict captures: writes racing an epoch flip's copy
    /// phase that hit a page whose round image was not yet preserved
    /// (see [`Kernel::write_page_slot`]).
    pub epoch_conflicts: AtomicU64,
}

impl KernelStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of all counters as plain values.
    pub fn snapshot(&self) -> KernelStatsSnapshot {
        KernelStatsSnapshot {
            write_faults: self.write_faults.load(Ordering::Relaxed),
            minor_faults: self.minor_faults.load(Ordering::Relaxed),
            cow_copies: self.cow_copies.load(Ordering::Relaxed),
            fault_ns: self.fault_ns.load(Ordering::Relaxed),
            memcpy_ns: self.memcpy_ns.load(Ordering::Relaxed),
            epoch_conflicts: self.epoch_conflicts.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value snapshot of [`KernelStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStatsSnapshot {
    /// Copy-on-write faults.
    pub write_faults: u64,
    /// Translation misses.
    pub minor_faults: u64,
    /// CoW page copies.
    pub cow_copies: u64,
    /// Fault-handler time (ns).
    pub fault_ns: u64,
    /// CoW copy time (ns).
    pub memcpy_ns: u64,
    /// Epoch-fence conflict captures.
    pub epoch_conflicts: u64,
}

impl KernelStatsSnapshot {
    /// Field-wise difference `self - earlier`.
    pub fn since(&self, earlier: &KernelStatsSnapshot) -> KernelStatsSnapshot {
        KernelStatsSnapshot {
            write_faults: self.write_faults - earlier.write_faults,
            minor_faults: self.minor_faults - earlier.minor_faults,
            cow_copies: self.cow_copies - earlier.cow_copies,
            fault_ns: self.fault_ns - earlier.fault_ns,
            memcpy_ns: self.memcpy_ns - earlier.memcpy_ns,
            epoch_conflicts: self.epoch_conflicts - earlier.epoch_conflicts,
        }
    }
}

/// Fault-path bookkeeping consumed by the checkpoint manager.
#[derive(Debug, Default)]
pub struct PageTracker {
    /// Pages that became writable since the last checkpoint and must be
    /// re-marked read-only during the next stop-the-world pause (the "VM
    /// Space" marking cost of Figure 9b).
    pub dirty_list: Mutex<Vec<Arc<PageSlot>>>,
    /// The dual-function active page list of §4.3.2: hot pages that are
    /// (or are about to be) DRAM-cached and stop-and-copied by non-leader
    /// cores during the pause.
    pub active_list: Mutex<Vec<Arc<PageSlot>>>,
}

impl PageTracker {
    /// Creates empty tracking lists.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes the current dirty list, leaving it empty.
    pub fn take_dirty(&self) -> Vec<Arc<PageSlot>> {
        std::mem::take(&mut *self.dirty_list.lock())
    }

    /// Current length of the active list.
    pub fn active_len(&self) -> usize {
        self.active_list.lock().len()
    }
}

impl Kernel {
    /// Translates `vpn` in `vmspace`, handling minor faults.
    ///
    /// Returns the cached translation entry (shared page slot + region
    /// permissions). The calling thread's TLB answers when it holds the
    /// entry under the current generation; otherwise the page table is
    /// walked and the TLB filled (see [`crate::vm`]).
    pub fn translate(&self, vmspace: ObjId, vpn: Vpn) -> Result<PteCache, KernelError> {
        // Read before the walk: a removal that races the walk bumps the
        // generation after removing, so this fill can never hit again.
        let gen = self.tlb_gen.load(Ordering::Acquire);
        if let Some(pte) = tlb_lookup(self.tlb_id, gen, vmspace, vpn) {
            return Ok(pte);
        }
        let pte = self.walk_page_table(vmspace, vpn)?;
        tlb_fill(self.tlb_id, gen, vmspace, vpn, &pte);
        Ok(pte)
    }

    /// The TLB miss: looks `vpn` up in the VM space's page table, and on a
    /// page-table miss runs the minor fault through the region list.
    fn walk_page_table(&self, vmspace: ObjId, vpn: Vpn) -> Result<PteCache, KernelError> {
        let vs = self.typed_object(vmspace, ObjType::VmSpace)?;
        let pt = {
            let body = vs.body.read();
            match &*body {
                ObjectBody::VmSpace(v) => Arc::clone(&v.page_table),
                _ => unreachable!("typed_object checked VmSpace"),
            }
        };
        if let Some(pte) = pt.get(vpn) {
            return Ok(pte);
        }
        // Minor fault.
        let t0 = Instant::now();
        self.stats.minor_faults.fetch_add(1, Ordering::Relaxed);
        let (pmo_id, pidx, perm) = {
            let body = vs.body.read();
            match &*body {
                ObjectBody::VmSpace(v) => {
                    let r = v.region_for(vpn).ok_or(KernelError::UnmappedAddress(vpn.base().0))?;
                    (r.pmo, r.pmo_index(vpn).expect("region_for covers vpn"), r.perm)
                }
                _ => unreachable!(),
            }
        };
        let pmo_obj = self.typed_object(pmo_id, ObjType::Pmo)?;
        let slot = {
            let mut body = pmo_obj.body.write();
            match &mut *body {
                ObjectBody::Pmo(p) => {
                    if let Some(s) = p.get(pidx) {
                        Arc::clone(s)
                    } else if let Some(s) = self.unsynced_removal(&pmo_obj, pidx) {
                        // The backup tree holds one entry per index, and
                        // this slot is still it: take the slot back and
                        // zero it through the write path, which preserves
                        // its committed image like any other first write.
                        p.insert(pidx, Arc::clone(&s));
                        self.write_page_slot(&s, 0, &[0u8; PAGE_SIZE])?;
                        pmo_obj.mark_dirty();
                        s
                    } else {
                        // First touch: materialize a zeroed NVM page.
                        let eternal = p.kind == crate::pmo::PmoKind::Eternal;
                        let frame = self.pers.alloc.alloc_page()?;
                        self.pers.dev.zero_page(frame);
                        let s = PageSlot::new(pidx, frame);
                        s.meta.lock().eternal = eternal;
                        p.insert(pidx, Arc::clone(&s));
                        pmo_obj.mark_dirty();
                        // The new page is writable; the next checkpoint
                        // must mark it read-only. Eternal pages are never
                        // marked read-only (§5: not rolled back).
                        if !eternal {
                            self.tracker.dirty_list.lock().push(Arc::clone(&s));
                        }
                        s
                    }
                }
                _ => unreachable!(),
            }
        };
        let pte = PteCache { slot, perm, pmo: pmo_id };
        pt.insert(vpn, pte.clone());
        self.charge_fault(t0, Duration::ZERO);
        Ok(pte)
    }

    /// The slot a page removal took out of PMO `pmo` at `pidx`, while the
    /// PMO's backup record still lists it live there: the removal has not
    /// been synced into the backup tree yet (that sync writes a tombstone).
    /// Called with the PMO body locked, which keeps the sync out.
    fn unsynced_removal(&self, pmo: &KObject, pidx: u64) -> Option<Arc<PageSlot>> {
        let bk = self.pers.oroots.with(pmo.oroot()?, |r| r.backups[0])??;
        self.pers.backups.with(bk.slot, |rec| match rec {
            BackupObject::Pmo { pages, .. } => pages
                .get(pidx)
                .filter(|e| e.removed.is_none())
                .map(|e| Arc::clone(&e.slot)),
            _ => None,
        })?
    }

    /// Reads process memory, spanning pages as needed.
    pub fn vm_read(&self, vmspace: ObjId, addr: Vaddr, buf: &mut [u8]) -> Result<(), KernelError> {
        let mut done = 0usize;
        while done < buf.len() {
            let a = addr.add_bytes(done as u64);
            let off = a.page_off();
            let n = (PAGE_SIZE - off).min(buf.len() - done);
            let pte = self.translate(vmspace, a.vpn())?;
            if !pte.perm.allows(CapRights::READ) {
                return Err(KernelError::PermissionDenied);
            }
            let meta = pte.slot.meta.lock();
            match meta.runtime_loc() {
                PhysLoc::Nvm(f) => self.pers.dev.read(f, off, &mut buf[done..done + n]),
                PhysLoc::Dram(d) => self.dram.read(d, off, &mut buf[done..done + n]),
            }
            done += n;
        }
        Ok(())
    }

    /// Writes process memory, running the CoW fault handler as needed.
    pub fn vm_write(&self, vmspace: ObjId, addr: Vaddr, data: &[u8]) -> Result<(), KernelError> {
        let mut done = 0usize;
        while done < data.len() {
            let a = addr.add_bytes(done as u64);
            let off = a.page_off();
            let n = (PAGE_SIZE - off).min(data.len() - done);
            let pte = self.translate(vmspace, a.vpn())?;
            if !pte.perm.allows(CapRights::WRITE) {
                return Err(KernelError::PermissionDenied);
            }
            if self.write_page_slot(&pte.slot, off, &data[done..done + n])? {
                // The page transitioned writable (CoW or epoch capture):
                // its content diverges from the last committed image, so
                // the owning PMO must re-enter the ORoot dirty queue —
                // otherwise an O(changes) walk (and anything derived from
                // it, e.g. a shipped replication delta) would miss the
                // round's fresh page images and manifest.
                self.typed_object(pte.pmo, ObjType::Pmo)?.mark_dirty();
            }
            done += n;
        }
        Ok(())
    }

    /// Writes a span within one page slot, faulting if read-only.
    ///
    /// While the kernel's [`EpochFence`] is armed (an epoch-flip round is
    /// copying concurrently with this write), the round's frozen page
    /// image must not be destroyed. No write ever waits out the copy
    /// phase; every first conflicting write preserves the image in-line:
    ///
    /// * **migrated pages** whose in-flight image is not yet preserved run
    ///   the hybrid batch's stop-and-copy in-line ([`stop_and_copy`], the
    ///   "conflict CoW") — the hybrid worker then skips the slot;
    /// * **non-migrated read-only pages** capture in-line too: a small
    ///   write (≤ one cache line of changed bytes) appends a pre-write
    ///   undo record to the page's in-line log, while a big write (or a
    ///   log overflow) escalates to a whole-page epoch capture into a
    ///   fresh frame — the previous committed image stays anchored in
    ///   `pairs` untouched, so no third copy is ever at risk;
    /// * **non-migrated writable pages** write through — their runtime
    ///   frame only becomes the round's image when `mark_readonly`
    ///   freezes it, after which the write lands in the capture branch.
    ///   Before the mark only off-core writers can get here: no core runs
    ///   a program step between the arm and the flip's resume.
    ///
    /// Returns `true` when this write is the page's first content change
    /// of the round — a CoW fault, an epoch conflict capture or first
    /// undo-log append, or the clean→dirty flip of a DRAM-migrated page
    /// (whose stores never fault again). In every case the page's content
    /// now diverges from its last committed image and the owning PMO's
    /// backup record must be rewritten by the next checkpoint. Callers
    /// that know the owning PMO (the `vm_write` path) use this to mark it
    /// dirty. The page is flagged [`unshipped`](PageMeta::unshipped) too.
    ///
    /// [`EpochFence`]: crate::kernel::EpochFence
    /// [`stop_and_copy`]: Self::stop_and_copy
    pub fn write_page_slot(
        &self,
        slot: &Arc<PageSlot>,
        off: usize,
        data: &[u8],
    ) -> Result<bool, KernelError> {
        let mut meta = slot.meta.lock();
        let inflight = self.fence.inflight();
        let mut duplicated = false;
        // The fence only governs the pre-commit window: once the round's
        // commit record lands (global == inflight), ordinary CoW
        // semantics preserve images correctly even before disarm.
        if self.fence.active() && !meta.eternal && self.pers.global_version() < inflight {
            if meta.is_migrated() {
                // Keyed to the fence *round*, not the version tag: an
                // aborted round leaves captures carrying the same
                // in-flight version, and this round must re-capture.
                if meta.epoch_round != self.fence.round() {
                    let t0 = Instant::now();
                    self.stats.write_faults.fetch_add(1, Ordering::Relaxed);
                    let mut copy = Duration::ZERO;
                    self.charge_copy(self.stop_and_copy(&mut meta, inflight, true)?, &mut copy);
                    meta.epoch_round = self.fence.round();
                    self.stats.epoch_conflicts.fetch_add(1, Ordering::Relaxed);
                    self.charge_fault(t0, copy);
                    duplicated = true;
                }
            } else if !meta.writable && meta.epoch_round != self.fence.round() {
                // epoch_round == round means a whole-page capture already
                // preserved this round's image: write through. Otherwise
                // log or capture the pre-write bytes first.
                duplicated =
                    self.epoch_conflict_locked(slot, &mut meta, inflight, off, data.len())?;
            }
        } else if !meta.writable {
            self.cow_fault_locked(slot, &mut meta)?;
            duplicated = true;
        }
        match meta.runtime_loc() {
            PhysLoc::Nvm(f) => self.pers.dev.write(f, off, data),
            PhysLoc::Dram(d) => {
                self.dram.write(d, off, data);
                // First store into a clean migrated page this round:
                // the stop-and-copy will capture it, so the record
                // rewrite must ride the same round's dirty queue.
                if !meta.dirty {
                    meta.dirty = true;
                    duplicated = true;
                }
            }
        }
        meta.idle_rounds = 0;
        meta.unshipped |= duplicated;
        Ok(duplicated)
    }

    /// The one DRAM stop-and-copy (called with the slot lock held): copies
    /// a migrated page's DRAM content into the pair slot the restore rule
    /// would *not* pick at the committed version ([`PageMeta::sac_dst`], so
    /// a torn copy never destroys the recoverable image), reusing that
    /// slot's frame, and tags it `inflight`. The hybrid batch runs it for a
    /// dirty page (`conflict = false`); a write racing the epoch flip runs
    /// it first (`conflict = true`), and whichever of the two runs first
    /// wins — the other skips. The copy becomes the page's image at the
    /// commit, so the page is flagged [`unshipped`](PageMeta::unshipped).
    /// A conflict copy logs a `HybridSacCopy` slot; the batch's copies are
    /// counted in the round's `RoundCommit` instead. Returns the copy's wall
    /// time.
    pub fn stop_and_copy(
        &self,
        meta: &mut PageMeta,
        inflight: u64,
        conflict: bool,
    ) -> Result<Duration, KernelError> {
        let dst = meta.sac_dst(inflight - 1);
        let frame = match meta.pairs[dst] {
            Some(p) => p.frame,
            None => self.pers.alloc.alloc_page()?,
        };
        let d = meta.runtime_dram.expect("stop-and-copy is for migrated pages");
        let sched = self.pers.dev.crash_schedule();
        if conflict {
            treesls_nvm::crash_site!(sched, "stw.clean_core_cow");
        } else {
            treesls_nvm::crash_site!(sched, "hybrid.pre_sac_copy");
        }
        let tc = Instant::now();
        self.pers.dev.copy_from_dram(&self.dram, d, frame);
        let copied = tc.elapsed();
        let crc = self.pers.dev.page_crc(frame);
        meta.pairs[dst] = Some(PagePtr::backup(frame, inflight, crc));
        meta.unshipped = true;
        self.metrics.record_backup_page(inflight);
        if conflict {
            self.pers.recorder().record(
                treesls_obs::EventKind::HybridSacCopy,
                [frame.0 as u64, inflight, d.0 as u64, 1, 0, 0],
            );
        }
        Ok(copied)
    }

    /// Charges one page copy of duration `d` to `memcpy_ns` and to the
    /// calling fault handler's `copy` share.
    fn charge_copy(&self, d: Duration, copy: &mut Duration) {
        *copy += d;
        self.stats.memcpy_ns.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Charges a fault handler's time since `t0` to `fault_ns`, less the
    /// `copy` share its page copies already charged to `memcpy_ns`: the
    /// two timers are disjoint, the split Figure 10 reports.
    fn charge_fault(&self, t0: Instant, copy: Duration) {
        let d = t0.elapsed().saturating_sub(copy);
        self.stats.fault_ns.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Kills the page's in-line log, if any — its first record header is
    /// zeroed durably, so no later parse of the frame yields a record —
    /// and frees its frame. Must run *after* the image the log protected
    /// is durable elsewhere: a crash between the two finds one or the
    /// other.
    fn drop_inline_log(&self, meta: &mut PageMeta) {
        if let Some(log) = meta.inline_log.take() {
            self.pers.dev.write(log.frame, 0, &[0u8; UNDO_HEADER]);
            self.pers.dev.flush_frame(log.frame, 0, UNDO_HEADER);
            self.pers.dev.fence();
            let _ = self.pers.alloc.free_page(log.frame);
        }
    }

    /// Writes the bytes of `src` into a freshly allocated frame, makes
    /// them durable and returns a backup pointer tagged `version`. The
    /// copy time is charged to `memcpy_ns` and added to `copy`.
    fn persist_image(
        &self,
        src: PageSource,
        version: u64,
        copy: &mut Duration,
    ) -> Result<PagePtr, KernelError> {
        let mut img = Box::new([0u8; PAGE_SIZE]);
        src.read(&self.pers.dev, &mut img);
        let dst = self.pers.alloc.alloc_page()?;
        let tc = Instant::now();
        self.pers.dev.write(dst, 0, &img[..]);
        self.pers.dev.flush_frame(dst, 0, PAGE_SIZE);
        self.pers.dev.fence();
        self.charge_copy(tc.elapsed(), copy);
        self.metrics.record_backup_page(version);
        let crc = self.pers.dev.page_crc(dst);
        Ok(PagePtr::backup(dst, version, crc))
    }

    /// The one fold (called with the slot lock held): makes the source
    /// [`PageMeta::restore_image`] picks at the committed version `global`
    /// the page's committed backup — a capture is anchored in `pairs[0]`,
    /// a logged page's runtime ⊖ log is materialized there durably, a pair
    /// is kept — then frees every capture or log frame it did not anchor.
    /// A crash restores the same bytes before and after. Before the first
    /// commit there is nothing to keep. On `Err` (no frame to materialize
    /// into) the page is untouched.
    fn fold_locked(
        &self,
        meta: &mut PageMeta,
        global: u64,
        copy: &mut Duration,
    ) -> Result<(), KernelError> {
        if !meta.pending_fold() {
            return Ok(());
        }
        let anchor = match (global > 0).then(|| meta.restore_image(global)).flatten() {
            Some(PageSource::Capture(c)) => {
                meta.epoch_capture = None;
                Some(c)
            }
            Some(log @ PageSource::Log { .. }) => {
                let ptr = self.persist_image(log, global, copy)?;
                self.stats.cow_copies.fetch_add(1, Ordering::Relaxed);
                Some(ptr)
            }
            Some(PageSource::Pair(..)) | None => None,
        };
        if let Some(old) = anchor.and_then(|new| meta.pairs[0].replace(new)) {
            let _ = self.pers.alloc.free_page(old.frame);
        }
        if let Some(c) = meta.epoch_capture.take() {
            let _ = self.pers.alloc.free_page(c.frame);
        }
        self.drop_inline_log(meta);
        Ok(())
    }

    /// First conflicting write of the epoch window to a non-migrated
    /// read-only page (called with the slot lock held): the form of the
    /// conflict CoW that lets *every* core keep running through the copy
    /// phase.
    ///
    /// An earlier window's capture or log is folded first. Then a small
    /// write (≤ [`INLINE_MAX_DATA`] bytes) appends a pre-write undo record
    /// to the page's in-line log — the round image stays reconstructible
    /// as runtime ⊖ reverse(records) while the write itself lands directly
    /// on the runtime frame. A big write, or a log overflow, escalates to
    /// a whole-page capture, into a fresh frame, of the image this round
    /// would restore ([`PageMeta::epoch_capture`]).
    ///
    /// Returns `true` on the page's first preserved conflict of the round
    /// (the PMO must re-enter the dirty queue for the *next* round).
    fn epoch_conflict_locked(
        &self,
        slot: &Arc<PageSlot>,
        meta: &mut PageMeta,
        inflight: u64,
        off: usize,
        len: usize,
    ) -> Result<bool, KernelError> {
        let t0 = Instant::now();
        let mut copy = Duration::ZERO;
        self.stats.write_faults.fetch_add(1, Ordering::Relaxed);
        let round = self.fence.round();
        // A log of this very window means the slot is registered and the
        // PMO already rides the next round's queue.
        let first = meta.inline_log.is_none_or(|l| l.arm != round);
        if first {
            self.fold_locked(meta, self.pers.global_version(), &mut copy)?;
        }

        let logged = len <= INLINE_MAX_DATA && {
            let mut log = match meta.inline_log {
                Some(l) => l,
                None => {
                    let frame = self.pers.alloc.alloc_page()?;
                    self.pers.dev.zero_page(frame);
                    InlineLog { frame, round: inflight, used: 0, arm: round }
                }
            };
            let fits = log.used as usize + undo_record_size(len) <= INLINE_LOG_CAP;
            if fits {
                treesls_nvm::crash_site!(self.pers.dev.crash_schedule(), "ckpt.inline_log_capture");
                let rt = meta.pairs[1].expect("non-migrated page has a runtime NVM frame").frame;
                let mut pre = vec![0u8; len];
                self.pers.dev.read(rt, off, &mut pre);
                let rec = encode_undo_record(inflight, off as u16, &pre);
                self.pers.dev.write(log.frame, log.used as usize, &rec);
                self.pers.dev.flush_frame(log.frame, log.used as usize, rec.len());
                self.pers.dev.fence();
                log.used += rec.len() as u32;
                self.metrics.record_inline_log(rec.len() as u64);
                self.pers.recorder().record(
                    treesls_obs::EventKind::InlineLog,
                    [log.frame.0 as u64, inflight, off as u64, len as u64, log.used as u64, 0],
                );
            }
            meta.inline_log = Some(log);
            fits
        };
        if !logged {
            // Whole-page escalation: capture the image this round would
            // restore (the runtime frame, minus this window's logged
            // writes), durable *before* the log dies.
            treesls_nvm::crash_site!(self.pers.dev.crash_schedule(), "stw.clean_core_cow");
            let src = meta.restore_image(inflight).expect("non-migrated page has a runtime frame");
            let ptr = self.persist_image(src, inflight, &mut copy)?;
            meta.epoch_capture = Some(ptr);
            meta.epoch_round = round;
            self.drop_inline_log(meta);
            self.pers.recorder().record(
                treesls_obs::EventKind::HybridSacCopy,
                [ptr.frame.0 as u64, inflight, 0, 2, 0, 0],
            );
        }
        if first {
            self.stats.epoch_conflicts.fetch_add(1, Ordering::Relaxed);
            self.epoch_captures.lock().push(Arc::clone(slot));
        }
        self.charge_fault(t0, copy);
        Ok(first)
    }

    /// Folds every page the last fence window captured or logged, under
    /// the committed version: the checkpoint leader runs it after a
    /// commit, after an abort, and before arming a round (so a re-run of
    /// an aborted version never mistakes the leftovers for its own). A
    /// committed round's in-line log stays — it *is* the page's durable
    /// image until the page's next fault folds it — so the post-commit
    /// path writes no page. A folded page whose committed image is off its
    /// runtime frame turns writable again. A page whose fold fails keeps
    /// its capture or log and stays listed for the next call; the first
    /// such error is returned.
    pub fn fold_epoch_captures(&self) -> Result<(), KernelError> {
        let global = self.pers.global_version();
        let mut copy = Duration::ZERO;
        let mut failed = Vec::new();
        let mut result = Ok(());
        // Its own statement: a `for` head's guard would hold the list
        // across the loop, and a core capturing a page registers it here
        // while holding the page's lock — the lock the loop waits for.
        let captured = std::mem::take(&mut *self.epoch_captures.lock());
        for slot in captured {
            let mut meta = slot.meta.lock();
            if !meta.pending_fold()
                || matches!(meta.restore_image(global),
                    Some(PageSource::Log { log, .. }) if log.round == global)
            {
                continue;
            }
            if let Err(e) = self.fold_locked(&mut meta, global, &mut copy) {
                drop(meta);
                failed.push(slot);
                result = result.and(Err(e));
                continue;
            }
            if !meta.runtime_is_image(global) {
                meta.writable = true;
                drop(meta);
                self.tracker.dirty_list.lock().push(slot);
            }
        }
        self.epoch_captures.lock().extend(failed);
        result
    }

    /// The copy-on-write fault handler (called with the slot lock held).
    ///
    /// Figure 5 step ❻: "the memory page will be duplicated to the backup
    /// capability tree, finishing the copy-on-write procedure". An earlier
    /// window's capture or log folds first, and the runtime frame is copied
    /// into `pairs[0]` (tagged with the committed version, durable before
    /// the fault returns) only when it is the committed image.
    fn cow_fault_locked(
        &self,
        slot: &Arc<PageSlot>,
        meta: &mut PageMeta,
    ) -> Result<(), KernelError> {
        let t0 = Instant::now();
        let mut copy = Duration::ZERO;
        debug_assert!(!meta.eternal, "eternal pages are never marked read-only");
        self.stats.write_faults.fetch_add(1, Ordering::Relaxed);
        let global = self.pers.global_version();
        if !meta.is_migrated() {
            self.fold_locked(meta, global, &mut copy)?;
        }
        if meta.runtime_is_image(global) {
            let runtime = meta.pairs[1].expect("non-migrated page has a runtime NVM frame").frame;
            let dst = match meta.pairs[0] {
                Some(p) => p.frame,
                None => self.pers.alloc.alloc_page()?,
            };
            let tc = Instant::now();
            self.pers.dev.copy_frame(runtime, dst);
            // Ordering point (ADR): the duplicate is the only version-N
            // image once the triggering store lands on the runtime page,
            // so it must be durable *before* this fault returns. A no-op
            // under eADR.
            self.pers.dev.flush_frame(dst, 0, PAGE_SIZE);
            self.pers.dev.fence();
            self.charge_copy(tc.elapsed(), &mut copy);
            self.stats.cow_copies.fetch_add(1, Ordering::Relaxed);
            let crc = self.pers.dev.page_crc(dst);
            meta.pairs[0] = Some(PagePtr::backup(dst, global, crc));
            self.metrics.record_backup_page(global);
            self.pers.recorder().record(
                treesls_obs::EventKind::CowFault,
                [dst.0 as u64, global, runtime.0 as u64, 0, 0, 0],
            );
        }
        meta.writable = true;
        meta.hotness = meta.hotness.saturating_add(1);
        meta.idle_rounds = 0;
        if self.config.hybrid_copy
            && meta.hotness >= self.config.hot_threshold
            && !meta.on_active_list
        {
            meta.on_active_list = true;
            self.tracker.active_list.lock().push(Arc::clone(slot));
        }
        // Re-mark read-only at the next checkpoint.
        self.tracker.dirty_list.lock().push(Arc::clone(slot));
        self.charge_fault(t0, copy);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelConfig;
    use crate::pmo::PmoKind;

    fn setup() -> (Arc<Kernel>, ObjId, ObjId) {
        let k = Kernel::boot(KernelConfig {
            nvm_frames: 1024,
            dram_pages: 64,
            ..KernelConfig::default()
        });
        let g = k.create_cap_group("p").unwrap();
        let vs = k.create_vmspace(g).unwrap();
        let pmo = k.create_pmo(g, 64, PmoKind::Data).unwrap();
        k.map_region(vs, Vpn(0), 64, pmo, 0, CapRights::ALL).unwrap();
        (k, vs, pmo)
    }

    #[test]
    fn read_of_untouched_page_is_zero() {
        let (k, vs, _) = setup();
        let mut buf = [0xFFu8; 64];
        k.vm_read(vs, Vaddr(100), &mut buf).unwrap();
        assert_eq!(buf, [0u8; 64]);
        assert_eq!(k.stats.snapshot().minor_faults, 1);
    }

    #[test]
    fn write_read_roundtrip_cross_page() {
        let (k, vs, _) = setup();
        let data: Vec<u8> = (0..=255).collect();
        // Spans the page-0/page-1 boundary.
        k.vm_write(vs, Vaddr(4000), &data).unwrap();
        let mut buf = vec![0u8; 256];
        k.vm_read(vs, Vaddr(4000), &mut buf).unwrap();
        assert_eq!(buf, data);
        // Two pages materialized.
        assert_eq!(k.stats.snapshot().minor_faults, 2);
    }

    #[test]
    fn unmapped_access_fails() {
        let (k, vs, _) = setup();
        let mut buf = [0u8; 4];
        assert!(matches!(
            k.vm_read(vs, Vaddr(64 * 4096), &mut buf),
            Err(KernelError::UnmappedAddress(_))
        ));
        assert!(matches!(
            k.vm_write(vs, Vaddr(1 << 40), &buf),
            Err(KernelError::UnmappedAddress(_))
        ));
    }

    #[test]
    fn new_pages_do_not_cow_fault() {
        let (k, vs, _) = setup();
        k.vm_write(vs, Vaddr(0), b"x").unwrap();
        // Fresh page is writable: no write fault, no copy.
        let s = k.stats.snapshot();
        assert_eq!(s.write_faults, 0);
        assert_eq!(s.cow_copies, 0);
    }

    #[test]
    fn read_only_page_faults_and_copies_on_write() {
        let (k, vs, pmo) = setup();
        k.vm_write(vs, Vaddr(0), b"before").unwrap();
        // Simulate the checkpoint marking pages read-only.
        let pmo_obj = k.object(pmo).unwrap();
        let slot = {
            let b = pmo_obj.body.read();
            match &*b {
                ObjectBody::Pmo(p) => Arc::clone(p.get(0).unwrap()),
                _ => unreachable!(),
            }
        };
        slot.meta.lock().writable = false;
        k.pers.commit_version(1);

        k.vm_write(vs, Vaddr(0), b"after!").unwrap();
        let s = k.stats.snapshot();
        assert_eq!(s.write_faults, 1);
        assert_eq!(s.cow_copies, 1);
        // The backup holds the pre-write image tagged with version 1.
        let m = slot.meta.lock();
        let backup = m.pairs[0].expect("backup created");
        assert_eq!(backup.version, 1);
        let mut page = [0u8; 6];
        k.pers.dev.read(backup.frame, 0, &mut page);
        assert_eq!(&page, b"before");
        // Runtime page holds the new data.
        let PhysLoc::Nvm(rt) = m.runtime_loc() else { panic!("not migrated") };
        let mut page = [0u8; 6];
        k.pers.dev.read(rt, 0, &mut page);
        assert_eq!(&page, b"after!");
    }

    #[test]
    fn second_fault_reuses_backup_frame() {
        let (k, vs, pmo) = setup();
        k.vm_write(vs, Vaddr(0), b"v0").unwrap();
        let pmo_obj = k.object(pmo).unwrap();
        let slot = {
            let b = pmo_obj.body.read();
            match &*b {
                ObjectBody::Pmo(p) => Arc::clone(p.get(0).unwrap()),
                _ => unreachable!(),
            }
        };
        slot.meta.lock().writable = false;
        k.pers.commit_version(1);
        k.vm_write(vs, Vaddr(0), b"v1").unwrap();
        let f1 = slot.meta.lock().pairs[0].unwrap().frame;
        slot.meta.lock().writable = false;
        k.pers.commit_version(2);
        k.vm_write(vs, Vaddr(0), b"v2").unwrap();
        let p0 = slot.meta.lock().pairs[0].unwrap();
        assert_eq!(p0.frame, f1, "backup frame is reused");
        assert_eq!(p0.version, 2);
        let mut b = [0u8; 2];
        k.pers.dev.read(p0.frame, 0, &mut b);
        assert_eq!(&b, b"v1");
    }

    #[test]
    fn hotness_crosses_threshold_onto_active_list() {
        let (k, vs, pmo) = setup();
        k.vm_write(vs, Vaddr(0), b"x").unwrap();
        let pmo_obj = k.object(pmo).unwrap();
        let slot = {
            let b = pmo_obj.body.read();
            match &*b {
                ObjectBody::Pmo(p) => Arc::clone(p.get(0).unwrap()),
                _ => unreachable!(),
            }
        };
        for v in 1..=k.config.hot_threshold as u64 {
            slot.meta.lock().writable = false;
            k.pers.commit_version(v);
            k.vm_write(vs, Vaddr(0), b"y").unwrap();
        }
        assert_eq!(k.tracker.active_len(), 1);
        assert!(slot.meta.lock().on_active_list);
        // Further faults do not duplicate the entry.
        slot.meta.lock().writable = false;
        k.vm_write(vs, Vaddr(0), b"z").unwrap();
        assert_eq!(k.tracker.active_len(), 1);
    }

    #[test]
    fn dirty_list_collects_writable_pages() {
        let (k, vs, _) = setup();
        k.vm_write(vs, Vaddr(0), b"a").unwrap();
        k.vm_write(vs, Vaddr(4096), b"b").unwrap();
        let dirty = k.tracker.take_dirty();
        assert_eq!(dirty.len(), 2);
        assert!(k.tracker.take_dirty().is_empty());
    }

    #[test]
    fn folding_captures_never_waits_for_a_page_while_holding_the_list() {
        // A core capturing a page holds the page's lock when it registers
        // the page in `epoch_captures`; the fold must not hold the list
        // while it waits for a page lock, or the two deadlock.
        let (k, vs, _) = setup();
        k.vm_write(vs, Vaddr(0), &[1]).unwrap();
        let slot = k.translate(vs, Vpn(0)).unwrap().slot;
        k.epoch_captures.lock().push(Arc::clone(&slot));
        let page_lock = slot.meta.lock();
        std::thread::scope(|s| {
            let fold = s.spawn(|| k.fold_epoch_captures());
            let deadline = Instant::now() + Duration::from_secs(5);
            // The fold has taken the list once it reads empty.
            while k.epoch_captures.try_lock().is_none_or(|list| !list.is_empty()) {
                assert!(Instant::now() < deadline, "the fold holds the list while it waits");
                std::thread::yield_now();
            }
            drop(page_lock);
            fold.join().unwrap().unwrap();
        });
    }

    #[test]
    fn permission_bits_enforced() {
        let k = Kernel::boot(KernelConfig {
            nvm_frames: 256,
            dram_pages: 16,
            ..KernelConfig::default()
        });
        let g = k.create_cap_group("p").unwrap();
        let vs = k.create_vmspace(g).unwrap();
        let pmo = k.create_pmo(g, 4, PmoKind::Data).unwrap();
        k.map_region(vs, Vpn(0), 4, pmo, 0, CapRights::READ).unwrap();
        let mut buf = [0u8; 4];
        k.vm_read(vs, Vaddr(0), &mut buf).unwrap();
        assert_eq!(
            k.vm_write(vs, Vaddr(0), &buf),
            Err(KernelError::PermissionDenied)
        );
    }
}
