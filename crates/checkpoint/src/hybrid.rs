//! Hybrid copy: hot-page DRAM migration and speculative stop-and-copy
//! (§4.3 of the paper).
//!
//! During the stop-the-world pause, cores other than the leader traverse
//! sub-lists of the *dual-function active page list*:
//!
//! * dirty DRAM-cached pages are **stop-and-copied** into the non-keeper
//!   NVM backup slot and tagged with the in-flight version
//!   (`Kernel::stop_and_copy`, the same copy a write racing the epoch flip
//!   runs first);
//! * pages newly appended since the last checkpoint are **migrated** to
//!   DRAM;
//! * pages idle for too many checkpoints are **migrated back** to NVM and
//!   dropped from the list.
//!
//! The copy destination is always the pair slot that the restore rule would
//! *not* pick at the current committed version, so a crash mid-copy can
//! never destroy the recoverable image (see `PageMeta::sac_dst`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use treesls_kernel::cores::HybridWork;
use treesls_kernel::pmo::{PagePtr, PageSlot};
use treesls_kernel::Kernel;

/// Per-round hybrid-copy counters, shared with the worker closure.
#[derive(Debug, Default)]
pub struct RoundCounters {
    /// Dirty DRAM pages speculatively copied.
    pub sac_copies: AtomicU64,
    /// Pages migrated NVM→DRAM.
    pub migrated_in: AtomicU64,
    /// Pages migrated DRAM→NVM (evicted).
    pub evicted: AtomicU64,
    /// Total busy nanoseconds across all cores processing items.
    pub busy_ns: AtomicU64,
}

/// Builds the stop-the-world hybrid-copy batch from the active page list.
///
/// The page items are *taken* from the tracker by pointer swap — O(1), no
/// allocation proportional to the list inside the pause — and given back
/// by [`compact_active_list`] after the round. CoW faults between the take
/// and the pause land in the tracker's fresh list and are merged back at
/// compaction (their `on_active_list` flag keeps them deduplicated).
///
/// Always returns a batch (possibly with zero page items) so the
/// checkpoint leader can offload tree work to the quiesced cores even when
/// hybrid copy is disabled.
pub fn build_work(
    kernel: &Arc<Kernel>,
    inflight: u64,
    counters: Arc<RoundCounters>,
) -> Arc<HybridWork> {
    let items: Vec<Arc<PageSlot>> = if kernel.config.hybrid_copy {
        std::mem::take(&mut *kernel.tracker.active_list.lock())
    } else {
        Vec::new()
    };
    let k = Arc::clone(kernel);
    HybridWork::with_offload(items, move |slot| {
        process_slot(&k, slot, inflight, &counters);
    })
}

/// Processes one active-list entry during the pause.
pub fn process_slot(kernel: &Kernel, slot: &Arc<PageSlot>, inflight: u64, counters: &RoundCounters) {
    let global = inflight - 1;
    let mut meta = slot.meta.lock();
    if !meta.on_active_list || meta.eternal {
        meta.on_active_list = false;
        return;
    }
    if !meta.is_migrated() {
        if meta.pending_fold() {
            // A window capture or log still holds this page's image:
            // migrating in would retag the runtime frame, which carries
            // post-flip writes, over it. Defer to a round after the fold.
            meta.idle_rounds = 0;
            return;
        }
        // Newly appended since the last checkpoint: migrate NVM→DRAM
        // ("newly appended pages since the last checkpointing are migrated
        // to DRAM", §4.3.2).
        match kernel.dram.alloc() {
            Some(d) => {
                treesls_nvm::crash_site!(kernel.pers.dev.crash_schedule(), "hybrid.pre_migrate_in");
                let home = meta.pairs[1].expect("non-migrated page has a home frame").frame;
                kernel.pers.dev.copy_to_dram(home, &kernel.dram, d);
                meta.runtime_dram = Some(d);
                // "TreeSLS sets the version of the runtime page in NVM ...
                // so that it becomes the latest backup page" (§4.3.3): the
                // home page holds the in-flight checkpoint image, so it is
                // tagged with the in-flight version — valid once this
                // checkpoint commits, ignored (in favour of the CoW backup
                // in pairs[0]) if the crash precedes the commit.
                let crc = kernel.pers.dev.page_crc(home);
                meta.pairs[1] = Some(PagePtr::backup(home, inflight, crc));
                meta.writable = true;
                meta.dirty = false;
                meta.idle_rounds = 0;
                counters.migrated_in.fetch_add(1, Ordering::Relaxed);
                kernel.pers.recorder().record(
                    treesls_obs::EventKind::HybridMigrateIn,
                    [home.0 as u64, inflight, d.0 as u64, 0, 0, 0],
                );
            }
            None => {
                // DRAM cache full: give up on this page.
                meta.on_active_list = false;
                meta.hotness = 0;
            }
        }
        return;
    }
    if meta.dirty {
        // Speculative stop-and-copy of the dirty DRAM page.
        if kernel.fence.active() && meta.epoch_round == kernel.fence.round() {
            // An epoch-fence conflict capture (free-core write during this
            // very pause) already preserved the round's image; the dirty
            // bit now describes *post*-epoch writes and must survive into
            // the next round. Keyed to the fence round, never the version
            // tag — an aborted round's stale capture carries the same
            // in-flight version but must be overwritten here.
            meta.idle_rounds = 0;
            return;
        }
        if kernel.stop_and_copy(&mut meta, inflight, false).is_err() {
            return; // out of NVM: leave dirty; CoW-less DRAM
        }
        meta.dirty = false;
        meta.idle_rounds = 0;
        counters.sac_copies.fetch_add(1, Ordering::Relaxed);
    } else {
        meta.idle_rounds += 1;
        // Eviction rebuilds the runtime page from the committed copy, equal
        // to the clean DRAM copy only when no later copy exists. An aborted
        // round's stop-and-copy (tagged above the committed version) holds
        // newer DRAM content, so the page stays cached until a round
        // commits that copy.
        let copies_committed = meta.pairs.iter().flatten().all(|p| p.version <= global);
        if meta.idle_rounds >= kernel.config.idle_evict_rounds && copies_committed {
            treesls_nvm::crash_site!(kernel.pers.dev.crash_schedule(), "hybrid.pre_evict");
            // Migrate DRAM→NVM (§4.3.3): ensure the second backup holds the
            // latest data, mark it version 0, and make it the runtime page.
            let keep = meta.restore_pick(global);
            if keep == Some(0) {
                // The committed image lives in pairs[0]; pairs[1] must be
                // (re)filled from the identical DRAM copy.
                let frame = match meta.pairs[1] {
                    Some(p) => p.frame,
                    None => match kernel.pers.alloc.alloc_page() {
                        Ok(f) => f,
                        Err(_) => return,
                    },
                };
                let d = meta.runtime_dram.expect("migrated page has a DRAM copy");
                kernel.pers.dev.copy_from_dram(&kernel.dram, d, frame);
                // Once the DRAM copy is freed below, this frame is the only
                // image of the last committed version until the in-flight
                // checkpoint commits: it must be durable before the tag
                // flips, or an ADR crash before that commit drops its
                // unfenced lines and restore serves a torn page (no-op
                // under eADR).
                kernel.pers.dev.flush_frame(frame, 0, treesls_nvm::PAGE_SIZE);
                kernel.pers.dev.fence();
                meta.pairs[1] = Some(PagePtr::runtime(frame));
            } else if let Some(p) = meta.pairs[1].as_mut() {
                p.version = 0;
                p.crc = None;
            }
            let d = meta.runtime_dram.take().expect("migrated page has a DRAM copy");
            kernel.dram.free(d);
            meta.writable = false;
            meta.on_active_list = false;
            meta.hotness = 0;
            counters.evicted.fetch_add(1, Ordering::Relaxed);
            let home = meta.pairs[1].map_or(0, |p| p.frame.0 as u64);
            kernel.pers.recorder().record(
                treesls_obs::EventKind::HybridEvict,
                [home, inflight, 0, 0, 0, 0],
            );
        }
    }
}

/// Marks every page that became writable since the last checkpoint as
/// read-only again (the copy-on-write arming that the paper attributes to
/// VM Space checkpointing). Returns the number of pages marked.
pub fn mark_readonly(kernel: &Kernel) -> usize {
    let slots = kernel.tracker.take_dirty();
    let mut marked = 0;
    for slot in slots {
        let mut meta = slot.meta.lock();
        if !meta.eternal && !meta.is_migrated() {
            meta.writable = false;
            marked += 1;
        }
    }
    marked
}

/// Compacts the active page list, dropping evicted entries, and returns
/// the number of pages currently DRAM-cached (Table 4 "# of cached pages").
///
/// When the round had a [`HybridWork`] batch, its taken items are the
/// authoritative list: they are compacted with a *single* meta lock per
/// slot (retain + cached-count folded into one pass), merged with any
/// entries CoW faults appended to the tracker meanwhile, and the vector is
/// swapped back into the tracker so its capacity is reused next round.
pub fn compact_active_list(kernel: &Kernel, work: Option<&Arc<HybridWork>>) -> usize {
    let Some(work) = work else {
        let mut list = kernel.tracker.active_list.lock();
        let mut cached = 0;
        list.retain(|s| {
            let meta = s.meta.lock();
            if meta.on_active_list {
                if meta.is_migrated() {
                    cached += 1;
                }
                true
            } else {
                false
            }
        });
        return cached;
    };
    let mut items = work.take_items();
    let mut cached = 0;
    items.retain(|s| {
        let meta = s.meta.lock();
        if meta.on_active_list {
            if meta.is_migrated() {
                cached += 1;
            }
            true
        } else {
            false
        }
    });
    let mut cur = kernel.tracker.active_list.lock();
    // Entries appended during the round (CoW faults before the pause) are
    // new DRAM-cache candidates, not yet migrated: keep them, uncounted.
    items.extend(cur.drain(..));
    std::mem::swap(&mut *cur, &mut items);
    cached
}
