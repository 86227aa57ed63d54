//! Crash simulation and whole-system restore (Figure 5 step ❼).
//!
//! `crash` models a power failure: it consumes the machine and keeps only
//! the persistent state (the NVM device plus the typed backup stores that
//! conceptually live in its slab space). `restore` then "rolls back the
//! whole system by reviving state of the backup capability tree": it
//! replays the allocator journal, walks the backup tree from the root
//! ORoot, rebuilds every runtime object, resets per-page state according
//! to the versioning rules of §4.2/§4.3.3, re-enqueues runnable threads,
//! and finally rebuilds the allocator via mark-and-sweep over the
//! reachable set ("malloc/free operations after the last checkpoint are
//! identified and rolled back").

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use treesls_kernel::cap::{CapGroupBody, Capability};
use treesls_kernel::ipc::{IpcConnBody, IpcMsg};
use treesls_kernel::kernel::{KernelConfig, Persistent};
use treesls_kernel::notif::{IrqNotifBody, NotifBody};
use treesls_kernel::object::{KObject, ObjType, ObjectBody};
use treesls_kernel::oroot::{BackupObject, BkThreadState, ORoot};
use treesls_kernel::pmo::{PagePtr, Pmo, PmoKind};
use treesls_kernel::program::ProgramRegistry;
use treesls_kernel::thread::{BlockedOn, ThreadBody, ThreadState};
use treesls_kernel::types::{KernelError, ObjId, OrootId, Vpn};
use treesls_kernel::vm::{VmRegion, VmSpaceBody};
use treesls_kernel::Kernel;
use treesls_nvm::{FrameId, NvmDevice, ShardedStore};
use treesls_pmem_alloc::NvmAddr;

use crate::stats::{MinMax, ObjectTimeTable};

/// The persistent state surviving a power failure.
#[derive(Debug)]
pub struct CrashImage {
    /// The NVM device (frames + metadata arena).
    pub dev: Arc<NvmDevice>,
    /// Frame count (needed to re-derive the allocator layout).
    pub nvm_frames: u32,
    /// Backup object records.
    pub backups: ShardedStore<BackupObject>,
    /// The ORoot table.
    pub oroots: ShardedStore<ORoot>,
}

/// Simulates a power failure: consumes the kernel, returning only the
/// persistent state. All DRAM-side state — the runtime capability tree,
/// page tables, scheduler queues, the DRAM page cache, register state of
/// running threads — is dropped here.
///
/// The caller must have stopped all cores and any checkpoint timer first.
pub fn crash(kernel: Arc<Kernel>) -> CrashImage {
    let backups = ShardedStore::from_shards(kernel.pers.backups.take_shards());
    let oroots = ShardedStore::from_shards(kernel.pers.oroots.take_shards());
    CrashImage {
        dev: Arc::clone(&kernel.pers.dev),
        nvm_frames: kernel.config.nvm_frames,
        backups,
        oroots,
    }
}

/// One backup page whose every candidate image failed integrity checks:
/// the page is dropped from the revived PMO instead of serving torn or
/// bit-rotted bytes as if they were checkpoint data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantinedPage {
    /// The PMO's ORoot id.
    pub oroot: OrootId,
    /// Page index within the PMO.
    pub index: u64,
    /// The frame whose checksum failed.
    pub frame: FrameId,
}

/// Integrity outcomes of a recovery — the degraded-recovery evidence the
/// torn-write/media-fault model makes observable instead of silent.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Commit-record validation: did a torn commit force a fallback to
    /// generation N-1, and how many slots were invalid.
    pub commit: treesls_kernel::kernel::CommitRecovery,
    /// Backup page images whose CRC was checked and passed.
    pub pages_verified: usize,
    /// Pages restored from the *other* pair entry after the picked image
    /// failed its checksum (page-level generation fallback).
    pub pages_fell_back: usize,
    /// Pages dropped entirely: no candidate image passed validation.
    pub quarantined: Vec<QuarantinedPage>,
    /// Torn/corrupt allocator-journal tail records dropped during replay.
    pub journal_records_truncated: u64,
    /// Flight-recorder events that survived the crash, oldest first — the
    /// last N things the system did before the cut (post-crash forensics;
    /// see `treesls-obs`). A torn tail slot fails its CRC and is absent,
    /// never mis-parsed. Not consulted by [`is_clean`](Self::is_clean).
    pub flight_events: Vec<treesls_obs::FlightEvent>,
}

impl RecoveryReport {
    /// `true` when recovery was fully clean: no fallback of any kind, no
    /// quarantined pages, no truncated journal tail.
    pub fn is_clean(&self) -> bool {
        !self.commit.fell_back
            && self.commit.invalid_slots <= 1
            && self.pages_fell_back == 0
            && self.quarantined.is_empty()
            && self.journal_records_truncated == 0
    }
}

/// Outcome of a whole-system restore.
#[derive(Debug)]
pub struct RestoreReport {
    /// The committed version the system was restored to.
    pub version: u64,
    /// Runtime objects revived.
    pub objects: usize,
    /// Memory pages revived.
    pub pages: usize,
    /// End-to-end restore time.
    pub duration: Duration,
    /// Per-object-type restore times (Table 3 "Restore").
    pub per_type: HashMap<ObjType, MinMax>,
    /// Integrity outcomes (commit-record fallback, page checksums,
    /// quarantines, journal truncation).
    pub recovery: RecoveryReport,
}

/// Restores a whole system from a crash image.
///
/// `register_programs` is called before threads are revived so that every
/// thread's program name resolves (programs are "executables on disk" and
/// must be re-registered after reboot, as a real system reloads binaries).
pub fn restore(
    image: CrashImage,
    config: KernelConfig,
    register_programs: impl FnOnce(&ProgramRegistry),
) -> Result<(Arc<Kernel>, RestoreReport), KernelError> {
    let t0 = Instant::now();
    let CrashImage { dev, nvm_frames, backups, oroots } = image;
    // Journal replay makes the allocator metadata consistent; the global
    // metadata tells us which version committed.
    let pers = Persistent::recover(dev, nvm_frames, backups, oroots);
    let global = pers.global_version();
    let mut recovery = RecoveryReport {
        commit: pers.commit_recovery(),
        journal_records_truncated: pers.alloc.journal_truncated(),
        flight_events: pers.take_recovered_events(),
        ..RecoveryReport::default()
    };
    let root_oroot = pers
        .root_oroot()
        .ok_or(KernelError::InvalidState("no committed checkpoint to restore"))?;

    let kernel = Kernel::from_parts(pers, config);
    register_programs(&kernel.programs);

    let mut table = ObjectTimeTable::default();
    let mut pages_revived = 0usize;

    // ---- reachability over the backup graph --------------------------------
    let mut reachable: Vec<OrootId> = Vec::new();
    {
        let oroots = &kernel.pers.oroots;
        let backups = &kernel.pers.backups;
        let mut seen: HashMap<OrootId, ()> = HashMap::new();
        let mut stack = vec![root_oroot];
        while let Some(id) = stack.pop() {
            if seen.contains_key(&id) {
                continue;
            }
            let Some(vb) = oroots
                .with(id, |r| {
                    if !r.live_at(global) {
                        return None;
                    }
                    r.restore_pick(global).and_then(|keep| r.backups[keep])
                })
                .flatten()
            else {
                continue;
            };
            let Some(kids) = backups.with(vb.slot, crate::tree::record_edges) else { continue };
            seen.insert(id, ());
            reachable.push(id);
            stack.extend(kids);
        }
    }

    // ---- pass A: placeholders ----------------------------------------------
    let mut map: HashMap<OrootId, ObjId> = HashMap::new();
    {
        let oroots = &kernel.pers.oroots;
        for &id in &reachable {
            let otype = oroots.with(id, |r| r.otype).expect("reachable oroot");
            let obj = kernel.insert_object(placeholder_body(otype));
            obj.set_oroot(id);
            oroots.with_mut(id, |r| r.runtime = Some(obj.id())).expect("reachable oroot");
            map.insert(id, obj.id());
        }
    }

    // ---- pass B: fill bodies ------------------------------------------------
    for &id in &reachable {
        let t_obj = Instant::now();
        let (otype, vb) = kernel
            .pers
            .oroots
            .with(id, |r| {
                let keep = r.restore_pick(global).expect("picked during walk");
                (r.otype, r.backups[keep].expect("picked during walk"))
            })
            .expect("reachable oroot");
        let record =
            kernel.pers.backups.get_cloned(vb.slot).expect("record present");
        let obj_id = map[&id];
        let obj = kernel.object(obj_id)?;
        let revived_pages = fill_body(&kernel, &obj, record, &map, global, &mut recovery)?;
        pages_revived += revived_pages;
        // The revived state equals the backup: the next checkpoint can
        // skip this object unless it is mutated again.
        obj.take_dirty();
        table.add_restore(otype, t_obj.elapsed());
    }

    // ---- derived state -------------------------------------------------------
    *kernel.root_cap_group.lock() = Some(map[&root_oroot]);
    // Rebuild the run queue "by adding all threads to the scheduler's
    // queue" (§3), and the IRQ line table.
    for &id in &reachable {
        let obj = kernel.object(map[&id])?;
        let body = obj.body.read();
        match &*body {
            ObjectBody::Thread(t) if t.state == ThreadState::Runnable => {
                kernel.sched.enqueue(obj.id());
            }
            ObjectBody::IrqNotification(irq) => {
                kernel.irq_lines.lock().insert(irq.line, obj.id());
            }
            _ => {}
        }
    }

    // ---- sweep unreachable persistent records --------------------------------
    {
        let keep: std::collections::HashSet<OrootId> = reachable.iter().copied().collect();
        let dead: Vec<OrootId> =
            kernel.pers.oroots.ids().into_iter().filter(|i| !keep.contains(i)).collect();
        for id in dead {
            let r = kernel.pers.oroots.remove(id).expect("listed");
            for vb in r.backups.into_iter().flatten() {
                kernel.pers.backups.remove(vb.slot);
            }
        }
        // Also drop non-kept backup slots' records? No: the two-slot
        // rotation keeps the *other* slot as the next overwrite target and
        // its slab accounting is carved below.
    }

    // ---- allocator mark-and-sweep --------------------------------------------
    let (blocks, slabs) = collect_reachable(&kernel);
    kernel.pers.alloc.rebuild(&blocks, &slabs)?;

    // The dirty queue filled with every revived object's insertion push,
    // but pass B consumed the flags (revived state equals the backup), so
    // the entries are stale; drop them. Reference counts and volatile
    // tombstone bookkeeping did not survive the crash either — force the
    // next checkpoint to run the healing full walk, which rewrites all
    // reachable records and rebuilds the counts from scratch.
    kernel.dirty_queue.clear();
    kernel.force_full_next.store(true, std::sync::atomic::Ordering::Release);

    // Log the recovery itself into the (persistent) flight recorder so the
    // *next* crash's forensics include this restore and its degradations.
    for q in &recovery.quarantined {
        kernel.pers.recorder().record(
            treesls_obs::EventKind::Quarantine,
            [q.oroot.to_raw(), q.index, q.frame.0 as u64, 0, 0, 0],
        );
    }
    if recovery.journal_records_truncated > 0 {
        kernel.pers.recorder().record(
            treesls_obs::EventKind::JournalTruncate,
            [recovery.journal_records_truncated, 0, 0, 0, 0, 0],
        );
    }
    kernel.pers.recorder().record(
        treesls_obs::EventKind::Restore,
        [
            global,
            reachable.len() as u64,
            pages_revived as u64,
            recovery.pages_fell_back as u64,
            0,
            0,
        ],
    );
    kernel.metrics.record_restore();

    let version = global;
    let report = RestoreReport {
        version,
        objects: reachable.len(),
        pages: pages_revived,
        duration: t0.elapsed(),
        per_type: table.restore,
        recovery,
    };
    Ok((kernel, report))
}

fn placeholder_body(otype: ObjType) -> ObjectBody {
    match otype {
        ObjType::CapGroup => ObjectBody::CapGroup(CapGroupBody::new("")),
        ObjType::Thread => ObjectBody::Thread(ThreadBody {
            ctx: Default::default(),
            state: ThreadState::Exited,
            program: String::new(),
            cap_group: ObjId::INVALID,
            vmspace: ObjId::INVALID,
            on_cpu: false,
        }),
        ObjType::VmSpace => ObjectBody::VmSpace(VmSpaceBody::new()),
        ObjType::Pmo => ObjectBody::Pmo(Pmo::new(0, PmoKind::Data)),
        ObjType::IpcConnection => ObjectBody::IpcConnection(IpcConnBody::new()),
        ObjType::Notification => ObjectBody::Notification(NotifBody::new()),
        ObjType::IrqNotification => ObjectBody::IrqNotification(IrqNotifBody::new(0)),
    }
}

/// Fills a placeholder object from its backup record, translating ORoot
/// references to revived runtime ids. Returns the number of pages revived
/// (PMOs only).
fn fill_body(
    kernel: &Arc<Kernel>,
    obj: &Arc<KObject>,
    record: BackupObject,
    map: &HashMap<OrootId, ObjId>,
    global: u64,
    recovery: &mut RecoveryReport,
) -> Result<usize, KernelError> {
    let resolve = |o: OrootId| -> Result<ObjId, KernelError> {
        map.get(&o).copied().ok_or(KernelError::DeadObject)
    };
    let mut pages = 0usize;
    let body: ObjectBody = match record {
        BackupObject::CapGroup { name, caps } => {
            let mut g = CapGroupBody::new(name);
            g.caps = caps
                .into_iter()
                .map(|c| {
                    c.map(|c| {
                        Ok::<Capability, KernelError>(Capability {
                            obj: resolve(c.oroot)?,
                            rights: c.rights,
                        })
                    })
                    .transpose()
                })
                .collect::<Result<_, _>>()?;
            ObjectBody::CapGroup(g)
        }
        BackupObject::Thread { ctx, state, program, cap_group, vmspace } => {
            if kernel.programs.get(&program).is_none() {
                return Err(KernelError::InvalidState(
                    "restored thread's program is not registered",
                ));
            }
            ObjectBody::Thread(ThreadBody {
                ctx,
                state: match state {
                    BkThreadState::Runnable => ThreadState::Runnable,
                    BkThreadState::Exited => ThreadState::Exited,
                    BkThreadState::BlockedNotification(o) => {
                        ThreadState::Blocked(BlockedOn::Notification(resolve(o)?))
                    }
                    BkThreadState::BlockedIpcRecv(o) => {
                        ThreadState::Blocked(BlockedOn::IpcRecv(resolve(o)?))
                    }
                    BkThreadState::BlockedIpcReply(o) => {
                        ThreadState::Blocked(BlockedOn::IpcReply(resolve(o)?))
                    }
                },
                program,
                cap_group: resolve(cap_group)?,
                vmspace: resolve(vmspace)?,
                on_cpu: false,
            })
        }
        BackupObject::VmSpace { regions } => {
            let mut vs = VmSpaceBody::new();
            for r in regions {
                let mapped = vs.map_region(VmRegion {
                    base: Vpn(r.base),
                    npages: r.npages,
                    pmo: resolve(r.pmo)?,
                    pmo_off: r.pmo_off,
                    perm: r.perm,
                });
                if !mapped {
                    return Err(KernelError::InvalidState("backup regions overlap"));
                }
            }
            // The page table starts empty (the paper rebuilds page tables
            // lazily through faults after recovery).
            ObjectBody::VmSpace(vs)
        }
        BackupObject::Pmo { npages, kind, pages: bk_pages, .. } => {
            let mut pmo = Pmo::new(npages, kind);
            let eternal = kind == PmoKind::Eternal;
            // Collect first: purged entries must free their frames, live
            // entries are normalized and inserted.
            let mut live = Vec::new();
            let mut dead = Vec::new();
            bk_pages.for_each(|idx, e| {
                if e.live_at(global) {
                    live.push((idx, Arc::clone(&e.slot)));
                } else {
                    dead.push(idx);
                }
            });
            // Dead entries (uncommitted additions or committed removals):
            // their frames simply stay out of the reachable set and return
            // to the free lists during the allocator rebuild. They must be
            // dropped from the backup radix so no stale Arc survives.
            let _ = dead;
            let oroot = obj.oroot().expect("set in pass A");
            // Returns `true` if a pair entry is an acceptable restore
            // image: checksummed images must match the frame content;
            // untagged (runtime, version-0) images have nothing to check.
            let validates = |p: &PagePtr| match p.crc {
                Some(expect) => kernel.pers.dev.page_crc(p.frame) == expect,
                None => true,
            };
            let mut kept = Vec::new();
            for (idx, slot) in &live {
                let mut meta = slot.meta.lock();
                // Epoch-concurrent leftovers from the crashed round first.
                // A whole-page capture holds the page's committed image (a
                // frozen page takes no writes between windows, so the
                // window-start content the capture froze *is* the last
                // committed content) while the runtime frame carries
                // post-flip writes: anchor the capture as the committed
                // backup so the pick/validate cascade below prefers it. An
                // in-line log rolls the post-flip writes back in place on
                // the runtime frame (every record carries its own CRC;
                // torn or corrupt tails parse as absent, and the already-
                // applied prefix still undoes the writes it logged).
                match meta.restore_image(global) {
                    // On checksum failure the capture falls to the `_`
                    // arm — dropped, and the cascade falls back to the
                    // pair entries.
                    treesls_kernel::pmo::RestoreImage::Capture(c) if global > 0 && validates(&c) => {
                        meta.pairs[0] = Some(PagePtr {
                            frame: c.frame,
                            version: c.version.min(global),
                            crc: c.crc,
                        });
                    }
                    treesls_kernel::pmo::RestoreImage::Log(log) => {
                        let rt = meta.pairs[1].expect("logged pages are non-migrated").frame;
                        let mut img = Box::new([0u8; treesls_nvm::PAGE_SIZE]);
                        kernel.pers.dev.read_page(rt, &mut img);
                        let mut raw = vec![0u8; log.used as usize];
                        kernel.pers.dev.read(log.frame, 0, &mut raw);
                        let recs = treesls_kernel::pmo::parse_undo_records(&raw);
                        treesls_kernel::pmo::apply_undo_records(&mut img, &recs);
                        kernel.pers.dev.write(rt, 0, &img[..]);
                        kernel.pers.dev.flush_frame(rt, 0, treesls_nvm::PAGE_SIZE);
                        kernel.pers.dev.fence();
                    }
                    _ => {}
                }
                meta.epoch_capture = None;
                meta.inline_log = None;
                let Some(picked) = meta.restore_pick(global) else { continue };
                // Integrity gate: verify the picked image's checksum; on
                // mismatch fall back to the other pair entry (the previous
                // generation's image) if it is committed and validates;
                // otherwise quarantine the page.
                let mut keep = picked;
                let chosen_ptr = meta.pairs[picked].expect("picked entry has a frame");
                if validates(&chosen_ptr) {
                    if chosen_ptr.crc.is_some() {
                        recovery.pages_verified += 1;
                    }
                } else {
                    let other = 1 - picked;
                    let fallback = meta.pairs[other]
                        .filter(|p| p.version <= global && validates(p));
                    match fallback {
                        Some(_) => {
                            keep = other;
                            recovery.pages_fell_back += 1;
                        }
                        None => {
                            recovery.quarantined.push(QuarantinedPage {
                                oroot,
                                index: *idx,
                                frame: chosen_ptr.frame,
                            });
                            continue;
                        }
                    }
                }
                // Normalize: the chosen image becomes the runtime NVM page
                // (pair slot 1, version 0); the other frame is kept as the
                // spare backup target.
                if keep == 0 {
                    meta.pairs.swap(0, 1);
                }
                let chosen = meta.pairs[1].expect("picked entry has a frame");
                meta.pairs[1] = Some(PagePtr::runtime(chosen.frame));
                if let Some(p) = meta.pairs[0].as_mut() {
                    // Stale data from before the restore point: mark it
                    // version 0 so no rule can ever prefer it.
                    p.version = 0;
                    p.crc = None;
                }
                meta.runtime_dram = None;
                meta.writable = eternal;
                meta.hotness = 0;
                meta.epoch_round = 0;
                meta.dirty = false;
                meta.on_active_list = false;
                meta.idle_rounds = 0;
                meta.eternal = eternal;
                pmo.insert(*idx, Arc::clone(slot));
                kept.push((*idx, Arc::clone(slot)));
                pages += 1;
            }
            // Rebuild the backup record's radix to exactly the kept set
            // with committed tags, and re-sync the structure tick.
            // Quarantined pages drop out here too, so their frames return
            // to the free lists during the allocator rebuild.
            let tick = pmo.structure_tick.load(std::sync::atomic::Ordering::Relaxed);
            {
                let vb = kernel
                    .pers
                    .oroots
                    .with(oroot, |r| r.backups[0])
                    .expect("live oroot")
                    .expect("PMO record exists");
                kernel.pers.backups.with_mut(vb.slot, |rec| {
                    if let BackupObject::Pmo { pages: bkp, synced_tick, .. } = rec {
                        let mut fresh = treesls_kernel::radix::Radix::new();
                        for (idx, slot) in &kept {
                            fresh.insert(
                                *idx,
                                treesls_kernel::oroot::BkPageEntry {
                                    slot: Arc::clone(slot),
                                    added: 0,
                                    removed: None,
                                },
                            );
                        }
                        *bkp = fresh;
                        *synced_tick = tick;
                    }
                });
            }
            ObjectBody::Pmo(pmo)
        }
        BackupObject::IpcConnection { recv_waiter, queue, replies } => {
            let mut c = IpcConnBody::new();
            c.recv_waiter = recv_waiter.map(resolve).transpose()?;
            c.queue = queue
                .into_iter()
                .map(|(t, d)| Ok::<_, KernelError>(IpcMsg { from: resolve(t)?, data: d }))
                .collect::<Result<_, _>>()?;
            c.replies = replies
                .into_iter()
                .map(|(t, d)| Ok::<_, KernelError>((resolve(t)?, d)))
                .collect::<Result<_, _>>()?;
            ObjectBody::IpcConnection(c)
        }
        BackupObject::Notification { count, waiters } => {
            let mut n = NotifBody::new();
            n.count = count;
            n.waiters = waiters.into_iter().map(resolve).collect::<Result<_, _>>()?;
            ObjectBody::Notification(n)
        }
        BackupObject::IrqNotification { line, count, waiters } => {
            let mut irq = IrqNotifBody::new(line);
            irq.inner.count = count;
            irq.inner.waiters = waiters.into_iter().map(resolve).collect::<Result<_, _>>()?;
            ObjectBody::IrqNotification(irq)
        }
    };
    *obj.body.write() = body;
    Ok(pages)
}

/// Reachable buddy blocks `(frame, order)` feeding the allocator rebuild.
type ReachableBlocks = Vec<(FrameId, u8)>;
/// Reachable slab objects `(addr, size)` feeding the allocator rebuild.
type ReachableSlabs = Vec<(NvmAddr, usize)>;

/// Collects the reachable buddy blocks and slab objects for the allocator
/// rebuild: every frame referenced by a (reachable) backup PMO record plus
/// every backup record's slab accounting.
fn collect_reachable(kernel: &Kernel) -> (ReachableBlocks, ReachableSlabs) {
    let mut blocks = Vec::new();
    let mut slabs = Vec::new();
    let mut pmo_slots = Vec::new();
    kernel.pers.oroots.for_each(|_, r| {
        for vb in r.backups.iter().flatten() {
            if let Some((addr, size)) = vb.slab {
                slabs.push((addr, size as usize));
            }
            pmo_slots.push(vb.slot);
        }
    });
    for slot in pmo_slots {
        kernel.pers.backups.with(slot, |record| {
            if let BackupObject::Pmo { pages, .. } = record {
                pages.for_each(|_, e| {
                    let meta = e.slot.meta.lock();
                    for p in meta.pairs.iter().flatten() {
                        blocks.push((p.frame, 0));
                    }
                });
            }
        });
    }
    (blocks, slabs)
}
