//! Crash simulation and whole-system restore (Figure 5 step ❼).
//!
//! `crash` models a power failure: it consumes the machine and keeps only
//! the persistent state (the NVM device plus the typed backup stores that
//! conceptually live in its slab space). `restore` then "rolls back the
//! whole system by reviving state of the backup capability tree": it
//! replays the allocator journal, walks the [`CommittedImage`] from the
//! root ORoot, rebuilds every runtime object, resets per-page state to
//! the image's checked page sources (§4.2/§4.3.3), re-enqueues runnable
//! threads, and finally rebuilds the allocator via mark-and-sweep over
//! the reachable set ("malloc/free operations after the last checkpoint
//! are identified and rolled back").

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use treesls_kernel::cap::{CapGroupBody, Capability};
use treesls_kernel::ipc::{IpcConnBody, IpcMsg};
use treesls_kernel::kernel::{KernelConfig, Persistent};
use treesls_kernel::notif::{IrqNotifBody, NotifBody};
use treesls_kernel::object::{ObjType, ObjectBody};
use treesls_kernel::oroot::{
    BackupObject, BkCap, BkPageEntry, BkThreadState, ORoot, VersionedBackup,
};
use treesls_kernel::pmo::{PageMeta, PagePtr, Pmo, PmoKind};
use treesls_kernel::program::ProgramRegistry;
use treesls_kernel::radix::Radix;
use treesls_kernel::thread::{BlockedOn, ThreadBody, ThreadState};
use treesls_kernel::types::{KernelError, ObjId, OrootId, Vpn};
use treesls_kernel::vm::{VmRegion, VmSpaceBody};
use treesls_kernel::Kernel;
use treesls_nvm::{FrameId, NvmDevice, ShardedStore, PAGE_SIZE};
use treesls_pmem_alloc::NvmAddr;

use crate::image::{CommittedImage, ImageError, PageCheck, PageSource};
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

/// Where a restore's time went, phase by phase. Journal replay and
/// commit-record validation, which run before the first phase, make up
/// the rest of [`RestoreReport::duration`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RestorePhases {
    /// The reachability walk over the committed image.
    pub walk: Duration,
    /// Reviving the reachable objects: placeholders (pass A), bodies and
    /// pages (pass B), then the run queue and IRQ lines.
    pub revive: Duration,
    /// Dropping the records of every unreachable ORoot.
    pub sweep: Duration,
    /// The allocator's mark-and-sweep: collecting the reachable frames
    /// and slabs, then rebuilding the free lists from them.
    pub alloc: Duration,
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
    /// Per-phase durations within `duration`.
    pub phases: RestorePhases,
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
///
/// A committed image that cannot be revived — no commit, a reachable
/// reference to a missing or deleted object, a record of the wrong type —
/// is an `Err`, never a panic.
pub fn restore(
    image: CrashImage,
    config: KernelConfig,
    register_programs: impl FnOnce(&ProgramRegistry),
) -> Result<(Arc<Kernel>, RestoreReport), KernelError> {
    let t0 = Instant::now();
    let CrashImage { dev, nvm_frames, backups, oroots } = image;
    // Journal replay makes the allocator metadata consistent; the global
    // metadata tells us which version committed.
    let pers = Persistent::recover(dev, nvm_frames, backups, oroots)?;
    let mut recovery = RecoveryReport {
        commit: pers.commit_recovery(),
        journal_records_truncated: pers.alloc.journal_truncated(),
        flight_events: pers.take_recovered_events(),
        ..RecoveryReport::default()
    };
    let kernel = Kernel::from_parts(pers, config);
    register_programs(&kernel.programs);
    let image = CommittedImage::open(&kernel.pers)?;
    let mut phases = RestorePhases::default();

    let t = Instant::now();
    let reachable = image.walk()?;
    phases.walk = t.elapsed();

    // ---- pass A: placeholders ----------------------------------------------
    let t = Instant::now();
    let mut map: HashMap<OrootId, ObjId> = HashMap::with_capacity(reachable.len());
    let mut objs = Vec::with_capacity(reachable.len());
    for &(id, otype, _) in &reachable {
        let obj = kernel.insert_object(placeholder_body(otype));
        obj.set_oroot(id);
        kernel.pers.oroots.with_mut(id, |r| r.runtime = Some(obj.id()));
        map.insert(id, obj.id());
        objs.push(obj);
    }

    // ---- pass B: fill bodies ------------------------------------------------
    let mut table = ObjectTimeTable::default();
    let mut pages_revived = 0usize;
    for (&(id, otype, vb), obj) in reachable.iter().zip(&objs) {
        let t_obj = Instant::now();
        let record =
            kernel.pers.backups.get_cloned(vb.slot).ok_or(ImageError::MissingRecord(id))?;
        let body = fill_body(&kernel, &image, (id, vb), record, &map, &mut recovery)?;
        // Rebuild the run queue "by adding all threads to the scheduler's
        // queue" (§3), and the IRQ line table.
        match &body {
            ObjectBody::Pmo(pmo) => pages_revived += pmo.materialized(),
            ObjectBody::Thread(t) if t.state == ThreadState::Runnable => {
                kernel.sched.enqueue(obj.id());
            }
            ObjectBody::IrqNotification(irq) => {
                kernel.irq_lines.lock().insert(irq.line, obj.id());
            }
            _ => {}
        }
        *obj.body.write() = body;
        // The revived state equals the backup: the next checkpoint can
        // skip this object unless it is mutated again.
        obj.take_dirty();
        table.add_restore(otype, t_obj.elapsed());
    }

    *kernel.root_cap_group.lock() = map.get(&image.root()).copied();
    phases.revive = t.elapsed();

    // ---- sweep unreachable persistent records --------------------------------
    // The two-slot rotation keeps a reachable object's *other* slot as
    // the next overwrite target; its slab accounting is claimed below.
    let t = Instant::now();
    for id in kernel.pers.oroots.ids() {
        if map.contains_key(&id) {
            continue;
        }
        if let Some(r) = kernel.pers.oroots.remove(id) {
            for vb in r.backups.into_iter().flatten() {
                kernel.pers.backups.remove(vb.slot);
            }
        }
    }
    phases.sweep = t.elapsed();

    // ---- allocator mark-and-sweep --------------------------------------------
    let t = Instant::now();
    let (blocks, slabs) = collect_reachable(&kernel);
    kernel.pers.alloc.rebuild(&blocks, &slabs)?;
    phases.alloc = t.elapsed();

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
            image.version(),
            reachable.len() as u64,
            pages_revived as u64,
            recovery.pages_fell_back as u64,
            0,
            0,
        ],
    );
    kernel.metrics.record_restore();

    let report = RestoreReport {
        version: image.version(),
        objects: reachable.len(),
        pages: pages_revived,
        duration: t0.elapsed(),
        phases,
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

/// Builds the runtime body of the object `(oroot, vb)` from its committed
/// record, translating ORoot references to revived runtime ids.
fn fill_body(
    kernel: &Kernel,
    image: &CommittedImage<'_>,
    (oroot, vb): (OrootId, VersionedBackup),
    record: BackupObject,
    map: &HashMap<OrootId, ObjId>,
    recovery: &mut RecoveryReport,
) -> Result<ObjectBody, KernelError> {
    let resolve = |o: OrootId| -> Result<ObjId, KernelError> {
        map.get(&o).copied().ok_or(KernelError::DeadObject)
    };
    Ok(match record {
        BackupObject::CapGroup { name, caps } => {
            let mut g = CapGroupBody::new(name);
            let cap = |c: BkCap| -> Result<Capability, KernelError> {
                Ok(Capability { obj: resolve(c.oroot)?, rights: c.rights })
            };
            g.caps = caps.into_iter().map(|c| c.map(cap).transpose()).collect::<Result<_, _>>()?;
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
            revive_pages(kernel, image, (oroot, vb), &mut pmo, &bk_pages, recovery);
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
    })
}

/// Revives the pages of the PMO `(oroot, vb)` into `pmo` from the live
/// entries of its committed record. Each page's committed image is
/// checked and then normalized into the runtime page (pair slot 1,
/// version 0), with the other frame kept as the spare backup target. The
/// backup record's radix is rebuilt to exactly the kept set with
/// committed tags, so dead, unrecoverable and quarantined entries drop out
/// and their frames return to the free lists in the allocator rebuild.
fn revive_pages(
    kernel: &Kernel,
    image: &CommittedImage<'_>,
    (oroot, vb): (OrootId, VersionedBackup),
    pmo: &mut Pmo,
    bk_pages: &Radix<BkPageEntry>,
    recovery: &mut RecoveryReport,
) {
    let eternal = pmo.kind == PmoKind::Eternal;
    let mut kept = Radix::new();
    bk_pages.for_each(|idx, e| {
        if !e.live_at(image.version()) {
            return;
        }
        let mut meta = e.slot.meta.lock();
        let src = match image.check(&meta) {
            None => return,
            Some(PageCheck::Intact(src)) => {
                if matches!(src, PageSource::Capture(p) | PageSource::Pair(_, p) if p.crc.is_some())
                {
                    recovery.pages_verified += 1;
                }
                src
            }
            Some(PageCheck::FellBack(src)) => {
                recovery.pages_fell_back += 1;
                src
            }
            Some(PageCheck::Quarantined(frame)) => {
                recovery.quarantined.push(QuarantinedPage { oroot, index: idx, frame });
                return;
            }
        };
        let (keep, frame) = match src {
            // A whole-page capture holds the committed image while the
            // runtime frame carries post-flip writes.
            PageSource::Capture(c) => (0, c.frame),
            PageSource::Pair(i, p) => (i, p.frame),
            // An in-line log rolls the post-flip writes back in place on
            // the runtime frame.
            PageSource::Log { runtime, .. } => {
                let mut img = Box::new([0u8; PAGE_SIZE]);
                image.read(src, &mut img);
                let dev = &kernel.pers.dev;
                dev.write(runtime, 0, &img[..]);
                dev.flush_frame(runtime, 0, PAGE_SIZE);
                dev.fence();
                (1, runtime)
            }
        };
        // The other pair entry holds stale data from before the restore
        // point. It stays the next backup target if its frame is on the
        // device, at version 0 so no rule can ever prefer it. Everything
        // else — the crashed round's capture and log included — resets.
        let spare = meta.pairs[1 - keep].filter(|p| image.on_device(p.frame));
        *meta = PageMeta {
            pairs: [spare.map(|p| PagePtr::runtime(p.frame)), Some(PagePtr::runtime(frame))],
            writable: eternal,
            eternal,
            ..PageMeta::new_runtime(frame)
        };
        pmo.insert(idx, Arc::clone(&e.slot));
        kept.insert(idx, BkPageEntry { slot: Arc::clone(&e.slot), added: 0, removed: None });
    });
    let tick = pmo.structure_tick.load(std::sync::atomic::Ordering::Relaxed);
    kernel.pers.backups.with_mut(vb.slot, |rec| {
        if let BackupObject::Pmo { pages, synced_tick, .. } = rec {
            *pages = kept;
            *synced_tick = tick;
        }
    });
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
