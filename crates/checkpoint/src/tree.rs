//! Checkpointing the capability tree (§4.1).
//!
//! Two walk strategies produce the same backup tree:
//!
//! * **Dirty-queue walk** (the default): the leader drains the kernel's
//!   per-round dirty queue and visits *only* mutated objects, so the pause
//!   cost is O(changes), not O(live objects). Deletion detection is
//!   incremental too: every rewritten record's outgoing ORoot edge multiset
//!   is diffed against the edges of the record it supersedes, maintaining a
//!   per-ORoot incoming-reference count ([`ORoot::inrefs`]); ORoots whose
//!   count drains to zero are tombstoned (O(deletions) cascade), and swept
//!   after commit from an explicit pending list instead of a whole-table
//!   filter. Independent backup-record builds are offloaded to the already
//!   quiesced non-leader cores through the [`HybridWork`] aux queue.
//! * **Full walk**: the original reachability traversal from the root cap
//!   group. It remains the differential oracle for the dirty walk, the
//!   cycle collector (reference cycles never drain their counts; the
//!   periodic full walk reclaims them), and the self-healing fallback after
//!   a restore or a failed round — in those cases it rewrites every
//!   reachable record and rebuilds all reference counts from scratch.
//!
//! Object-kind strategies follow §4.1 exactly:
//! * small, frequently updated objects (threads, notifications, IPC
//!   connections, cap groups) are copied during the pause;
//! * VM spaces copy their region list and *not* their page table, plus the
//!   read-only marking of newly-changed pages (attributed to VM Space in
//!   Figure 9b);
//! * PMOs sync their backup radix tree structurally and leave page data to
//!   copy-on-write / hybrid copy.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use treesls_kernel::cores::HybridWork;
use treesls_kernel::dirty::DirtyCut;
use treesls_kernel::object::{KObject, ObjType, ObjectBody};
use treesls_kernel::oroot::{
    BackupObject, BkCap, BkPageEntry, BkRegion, BkThreadState, ORoot, VersionedBackup,
};
use treesls_kernel::radix::Radix;
use treesls_kernel::thread::{BlockedOn, ThreadState};
use treesls_kernel::types::{BackupId, KernelError, ObjId, OrootId};
use treesls_kernel::Kernel;
use treesls_nvm::ShardedStore;

/// Minimum non-PMO dirty batch size worth offloading to quiesced cores
/// (below this the chunking overhead exceeds the build cost).
const OFFLOAD_MIN: usize = 32;
/// Objects per offloaded build chunk.
const OFFLOAD_CHUNK: usize = 16;

/// Result of one capability-tree checkpoint.
#[derive(Debug, Default)]
pub struct TreeOutcome {
    /// Leader time per object type (Figure 9b).
    pub per_type: HashMap<ObjType, Duration>,
    /// `(type, was_full, duration)` per processed object (Table 3).
    pub samples: Vec<(ObjType, bool, Duration)>,
    /// Objects copied (dirty or first-time).
    pub copied: usize,
    /// Objects skipped (clean reachable objects on a full walk; stale
    /// queue entries on a dirty walk).
    pub skipped: usize,
    /// Whether this round ran the full reachability walk.
    pub full_walk: bool,
    /// Dirty-queue entries drained this round (before dedup).
    pub dirty_drained: usize,
    /// Backup-record builds executed through the aux queue.
    pub offloaded: usize,
    /// ORoots tombstoned this round.
    pub tombstoned: usize,
    /// ORoots whose backup record was (re)written this round — the
    /// round's *delta*, consumed by checkpoint-shipping replication.
    pub rewritten: Vec<OrootId>,
    /// ORoots tombstoned this round, by id (the deletion half of the
    /// delta; captured here because the post-commit sweep removes them
    /// from the store before shipping runs).
    pub tombstoned_ids: Vec<OrootId>,
}

/// Ensures `obj` has a live ORoot, creating one on first contact (§4.1:
/// "if the corresponding ORoot is absent ... TreeSLS will initialize the
/// ORoot for it"). Safe to race from concurrent record builders: losers
/// release their speculative insert and adopt the winner. Also repairs a
/// stale link (the object's previous ORoot was swept while the runtime
/// object survived).
pub fn ensure_oroot(oroots: &ShardedStore<ORoot>, obj: &Arc<KObject>) -> OrootId {
    loop {
        let cur = obj.oroot();
        if let Some(id) = cur {
            if oroots.with_mut(id, |r| r.runtime = Some(obj.id())).is_some() {
                return id;
            }
        }
        let spec = oroots.insert(ORoot::new(obj.otype, obj.id()));
        let winner = obj.reset_oroot_race(cur, spec);
        if winner == spec {
            return spec;
        }
        // Lost the race: drop the speculative record and retry (the
        // winner's id may itself be stale by now, hence the loop).
        oroots.remove(spec);
    }
}

/// Collects the runtime object ids referenced by `obj` (capability table
/// entries plus object-internal references), defining tree reachability;
/// [`BackupObject::edges`] is its persistent mirror.
fn children(obj: &Arc<KObject>) -> Vec<ObjId> {
    let body = obj.body.read();
    match &*body {
        ObjectBody::CapGroup(g) => g.iter().map(|(_, c)| c.obj).collect(),
        ObjectBody::Thread(t) => {
            let mut v = vec![t.cap_group, t.vmspace];
            if let ThreadState::Blocked(b) = t.state {
                v.push(b.object());
            }
            v
        }
        ObjectBody::VmSpace(vs) => vs.regions.iter().map(|r| r.pmo).collect(),
        ObjectBody::Pmo(_) => Vec::new(),
        ObjectBody::IpcConnection(c) => {
            let mut v: Vec<ObjId> = c.queue.iter().map(|m| m.from).collect();
            v.extend(c.replies.iter().map(|(t, _)| *t));
            v.extend(c.recv_waiter);
            v
        }
        ObjectBody::Notification(n) => n.waiters.iter().copied().collect(),
        ObjectBody::IrqNotification(irq) => irq.inner.waiters.iter().copied().collect(),
    }
}

/// Maps a runtime object reference to its ORoot, creating one if needed.
fn oroot_of(
    kernel: &Kernel,
    oroots: &ShardedStore<ORoot>,
    id: ObjId,
) -> Result<OrootId, KernelError> {
    let obj = kernel.object(id)?;
    Ok(ensure_oroot(oroots, &obj))
}

/// The backup slot holding the *newest* record of `r` (committed or not).
/// Its edges are the ones counted in [`ORoot::inrefs`].
fn newest_slot(r: &ORoot) -> Option<BackupId> {
    r.backups.iter().flatten().max_by_key(|b| b.version).map(|b| b.slot)
}

/// The outgoing edges of `id`'s newest record, or empty if it has none.
fn newest_edges(
    oroots: &ShardedStore<ORoot>,
    backups: &ShardedStore<BackupObject>,
    id: OrootId,
) -> Vec<OrootId> {
    oroots
        .with(id, newest_slot)
        .flatten()
        .and_then(|slot| backups.with(slot, BackupObject::edges))
        .unwrap_or_default()
}

/// Builds the backup record for a non-PMO object.
fn build_record(
    kernel: &Kernel,
    oroots: &ShardedStore<ORoot>,
    obj: &Arc<KObject>,
) -> Result<BackupObject, KernelError> {
    let body = obj.body.read();
    Ok(match &*body {
        ObjectBody::CapGroup(g) => BackupObject::CapGroup {
            name: g.name.clone(),
            caps: g
                .caps
                .iter()
                .map(|c| {
                    c.map(|c| {
                        Ok::<BkCap, KernelError>(BkCap {
                            oroot: oroot_of(kernel, oroots, c.obj)?,
                            rights: c.rights,
                        })
                    })
                    .transpose()
                })
                .collect::<Result<_, _>>()?,
        },
        ObjectBody::Thread(t) => BackupObject::Thread {
            ctx: t.ctx,
            state: match t.state {
                ThreadState::Runnable => BkThreadState::Runnable,
                ThreadState::Exited => BkThreadState::Exited,
                ThreadState::Blocked(BlockedOn::Notification(o)) => {
                    BkThreadState::BlockedNotification(oroot_of(kernel, oroots, o)?)
                }
                ThreadState::Blocked(BlockedOn::IpcRecv(o)) => {
                    BkThreadState::BlockedIpcRecv(oroot_of(kernel, oroots, o)?)
                }
                ThreadState::Blocked(BlockedOn::IpcReply(o)) => {
                    BkThreadState::BlockedIpcReply(oroot_of(kernel, oroots, o)?)
                }
            },
            program: t.program.clone(),
            cap_group: oroot_of(kernel, oroots, t.cap_group)?,
            vmspace: oroot_of(kernel, oroots, t.vmspace)?,
        },
        ObjectBody::VmSpace(vs) => BackupObject::VmSpace {
            regions: vs
                .regions
                .iter()
                .map(|r| {
                    Ok::<BkRegion, KernelError>(BkRegion {
                        base: r.base.0,
                        npages: r.npages,
                        pmo: oroot_of(kernel, oroots, r.pmo)?,
                        pmo_off: r.pmo_off,
                        perm: r.perm,
                    })
                })
                .collect::<Result<_, _>>()?,
        },
        ObjectBody::IpcConnection(c) => BackupObject::IpcConnection {
            recv_waiter: c
                .recv_waiter
                .map(|t| oroot_of(kernel, oroots, t))
                .transpose()?,
            queue: c
                .queue
                .iter()
                .map(|m| Ok::<_, KernelError>((oroot_of(kernel, oroots, m.from)?, m.data.clone())))
                .collect::<Result<_, _>>()?,
            replies: c
                .replies
                .iter()
                .map(|(t, d)| Ok::<_, KernelError>((oroot_of(kernel, oroots, *t)?, d.clone())))
                .collect::<Result<_, _>>()?,
        },
        ObjectBody::Notification(n) => BackupObject::Notification {
            count: n.count,
            waiters: n
                .waiters
                .iter()
                .map(|t| oroot_of(kernel, oroots, *t))
                .collect::<Result<_, _>>()?,
        },
        ObjectBody::IrqNotification(irq) => BackupObject::IrqNotification {
            line: irq.line,
            count: irq.inner.count,
            waiters: irq
                .inner
                .waiters
                .iter()
                .map(|t| oroot_of(kernel, oroots, *t))
                .collect::<Result<_, _>>()?,
        },
        ObjectBody::Pmo(_) => unreachable!("PMOs use sync_pmo"),
    })
}

/// Writes `record` into the checkpoint-destination backup slot of `oroot`,
/// rotating the two-slot protocol and re-accounting slab space.
fn write_backup(
    kernel: &Kernel,
    oroot: OrootId,
    record: BackupObject,
    inflight: u64,
) -> Result<(), KernelError> {
    let oroots = &kernel.pers.oroots;
    let backups = &kernel.pers.backups;
    let global = inflight - 1;
    treesls_nvm::crash_site!(kernel.pers.dev.crash_schedule(), "tree.pre_backup_write");
    let (dst, old) = oroots
        .with(oroot, |r| {
            let dst = r.ckpt_dst(global);
            (dst, r.backups[dst])
        })
        .expect("live oroot");
    // Retire the slot being overwritten.
    if let Some(old) = old {
        backups.remove(old.slot);
        if let Some((addr, size)) = old.slab {
            kernel.pers.alloc.slab_free(addr, size as usize)?;
        }
    }
    let size = record.approx_size().clamp(1, 2048);
    let slab = kernel.pers.alloc.slab_alloc(size)?;
    let slot = backups.insert(record);
    oroots
        .with_mut(oroot, |r| {
            r.backups[dst] =
                Some(VersionedBackup { slot, version: inflight, slab: Some((slab, size as u32)) })
        })
        .expect("live oroot");
    Ok(())
}

/// Synchronizes a PMO's backup radix tree with its runtime tree.
///
/// Structural additions are tagged `added = inflight` and removals
/// `removed = inflight`, so they become restore-visible only at commit.
/// Entries whose removal has committed are purged and their frames freed
/// (the paper's deferred reclamation of checkpointed pages). A round that
/// writes *new* removal tombstones re-marks the object dirty, so the
/// dirty-queue walk revisits it next round to purge them once committed.
fn sync_pmo(
    kernel: &Kernel,
    obj: &Arc<KObject>,
    oroot: OrootId,
    inflight: u64,
) -> Result<bool, KernelError> {
    let oroots = &kernel.pers.oroots;
    let backups = &kernel.pers.backups;
    let global = inflight - 1;
    treesls_nvm::crash_site!(kernel.pers.dev.crash_schedule(), "tree.pre_pmo_sync");
    let body = obj.body.read();
    let ObjectBody::Pmo(pmo) = &*body else { unreachable!("sync_pmo requires a PMO") };
    let tick = pmo.structure_tick.load(std::sync::atomic::Ordering::Relaxed);

    let existing = oroots.with(oroot, |r| r.backups[0]).expect("live oroot");
    let Some(bk) = existing else {
        // First checkpoint: build the whole backup radix tree.
        let mut pages: Radix<BkPageEntry> = Radix::new();
        pmo.pages.for_each(|idx, slot| {
            pages.insert(idx, BkPageEntry { slot: Arc::clone(slot), added: inflight, removed: None });
        });
        let record =
            BackupObject::Pmo { npages: pmo.npages, kind: pmo.kind, pages, synced_tick: tick };
        let size = record.approx_size().clamp(1, 2048);
        let slab = kernel.pers.alloc.slab_alloc(size)?;
        let slot = backups.insert(record);
        oroots
            .with_mut(oroot, |r| {
                r.backups[0] = Some(VersionedBackup {
                    slot,
                    version: inflight,
                    slab: Some((slab, size as u32)),
                })
            })
            .expect("live oroot");
        return Ok(true);
    };

    let tombstoned_new = match backups.with_mut(bk.slot, |rec| {
        let BackupObject::Pmo { pages, synced_tick, .. } = rec else {
            return Err(KernelError::InvalidState("PMO backup record is not a PMO"));
        };
        // Purge committed removals first and reclaim their frames: a purged
        // index may be re-added below, and purging after the addition would
        // leak the removed page's frames.
        let mut to_purge = Vec::new();
        pages.for_each(|idx, e| {
            if e.removed.is_some_and(|r| r <= global) {
                to_purge.push(idx);
            }
        });
        for idx in to_purge {
            let entry = pages.remove(idx).expect("entry present");
            let meta = entry.slot.meta.lock();
            for (frame, _) in meta.frames() {
                kernel.pers.alloc.free_page(frame)?;
            }
            if let Some(d) = meta.runtime_dram {
                kernel.dram.free(d);
            }
        }
        let mut new_tombstones = false;
        if *synced_tick != tick {
            // Additions: runtime entries missing from the backup tree.
            // (Tombstones are always committed — a page cannot be removed and
            // re-added within one round — so the purge above already cleared
            // any stale entry at a re-added index.)
            let mut to_add = Vec::new();
            pmo.pages.for_each(|idx, slot| {
                if pages.get(idx).is_none() {
                    to_add.push((idx, Arc::clone(slot)));
                }
            });
            for (idx, slot) in to_add {
                let old = pages.insert(idx, BkPageEntry { slot, added: inflight, removed: None });
                debug_assert!(old.is_none(), "stale backup entry survived the purge");
            }
            // Removals: live backup entries whose page left the runtime tree.
            let mut to_remove = Vec::new();
            pages.for_each(|idx, e| {
                if e.removed.is_none() && pmo.pages.get(idx).is_none() {
                    to_remove.push(idx);
                }
            });
            new_tombstones = !to_remove.is_empty();
            for idx in to_remove {
                pages.get_mut(idx).expect("entry present").removed = Some(inflight);
            }
            *synced_tick = tick;
        }
        Ok(new_tombstones)
    }) {
        Some(r) => r?,
        None => return Err(KernelError::InvalidState("PMO backup record missing")),
    };
    // Stamp the record's version (cheap; keeps restore_pick uniform).
    oroots
        .with_mut(oroot, |r| r.backups[0] = Some(VersionedBackup { version: inflight, ..bk }))
        .expect("live oroot");
    if tombstoned_new {
        // The fresh tombstones commit this round and must be purged (frames
        // freed) next round: re-queue the object so the O(changes) walk
        // comes back to it even if no further runtime mutation happens.
        obj.mark_dirty();
    }
    Ok(false)
}

/// Checkpoints the capability tree into the backup tree (Figure 5 step ❷).
///
/// Chooses between the O(changes) dirty-queue walk and the full
/// reachability walk: the latter runs when forced by configuration, every
/// `full_walk_interval` rounds (cycle collection), or as the self-healing
/// fallback after a restore or a failed round (in which case it also
/// rewrites every reachable record, since a failed round may have consumed
/// dirty flags without persisting the corresponding records).
///
/// Must be called during a stop-the-world pause — or, under the epoch
/// flip, after the flip with `cut` holding the dirty-queue cut taken inside
/// the flip window (post-flip pushes land in the live queue for the next
/// round and are invisible to this walk). `work`, when present, is the
/// round's [`HybridWork`] batch; its aux queue is used to offload record
/// builds to the quiesced cores and is always closed before this function
/// returns.
pub fn checkpoint_tree(
    kernel: &Arc<Kernel>,
    inflight: u64,
    work: Option<&Arc<HybridWork>>,
    cut: Option<DirtyCut>,
) -> Result<TreeOutcome, KernelError> {
    use std::sync::atomic::Ordering;

    let heal = kernel.force_full_next.swap(false, Ordering::AcqRel);
    let rounds = kernel.rounds_since_full.load(Ordering::Relaxed) + 1;
    let interval = kernel.config.full_walk_interval;
    let full = kernel.config.force_full_walk || heal || (interval > 0 && rounds >= interval);
    kernel.rounds_since_full.store(if full { 0 } else { rounds }, Ordering::Relaxed);

    let result = if full {
        // The full walk visits everything reachable; a pre-taken cut only
        // needs its nodes reclaimed (and the depth gauge adjusted).
        if let Some(c) = cut {
            let _ = kernel.dirty_queue.collect(c);
        }
        full_walk(kernel, inflight, heal)
    } else {
        dirty_walk(kernel, inflight, work, cut)
    };
    if let Some(w) = work {
        // The manager's `finish_hybrid_work` barrier polls the aux queue;
        // guarantee it can terminate on every exit path.
        w.close_aux();
    }
    if result.is_err() {
        // A half-applied round leaves consumed dirty flags and partial
        // reference counts behind; the next round's healing full walk
        // rewrites all reachable records and rebuilds the counts.
        kernel.force_full_next.store(true, Ordering::Release);
    }
    result
}

/// Copies one object into the backup tree, timing it into `out`.
fn copy_object(
    kernel: &Kernel,
    obj: &Arc<KObject>,
    oroot: OrootId,
    inflight: u64,
    prebuilt: Option<(BackupObject, Duration)>,
    out: &mut TreeOutcome,
) -> Result<(), KernelError> {
    let t0 = Instant::now();
    out.rewritten.push(oroot);
    let full = if obj.otype == ObjType::Pmo {
        sync_pmo(kernel, obj, oroot, inflight)?
    } else {
        let full = kernel
            .pers
            .oroots
            .with(oroot, |r| r.backups.iter().all(Option::is_none))
            .expect("live oroot");
        let (record, built) = match prebuilt {
            Some((r, d)) => (r, d),
            None => {
                let t = Instant::now();
                let r = build_record(kernel, &kernel.pers.oroots, obj)?;
                (r, t.elapsed())
            }
        };
        write_backup(kernel, oroot, record, inflight)?;
        // Attribute offloaded build time to the object even though another
        // core spent it (Table 3 cares about per-object cost, not locus).
        let dt = t0.elapsed() + built;
        out.copied += 1;
        *out.per_type.entry(obj.otype).or_default() += dt;
        out.samples.push((obj.otype, full, dt));
        return Ok(());
    };
    let dt = t0.elapsed();
    out.copied += 1;
    *out.per_type.entry(obj.otype).or_default() += dt;
    out.samples.push((obj.otype, full, dt));
    Ok(())
}

/// The O(changes) walk: drain the dirty queue, rewrite the records of
/// queued objects (builds offloaded to quiesced cores when the batch is
/// large enough), diff each record's edge multiset against the record it
/// supersedes, and cascade tombstones from reference counts that drain to
/// zero.
fn dirty_walk(
    kernel: &Arc<Kernel>,
    inflight: u64,
    work: Option<&Arc<HybridWork>>,
    cut: Option<DirtyCut>,
) -> Result<TreeOutcome, KernelError> {
    let oroots = &kernel.pers.oroots;
    let backups = &kernel.pers.backups;
    let sched = kernel.pers.dev.crash_schedule();
    let mut out = TreeOutcome::default();

    let root_obj = kernel.object(kernel.root())?;
    let root_oroot = ensure_oroot(oroots, &root_obj);
    if kernel.pers.root_oroot().is_none() {
        kernel.pers.set_root_oroot(root_oroot);
    }

    let drained = match cut {
        Some(c) => kernel.dirty_queue.collect(c),
        None => kernel.dirty_queue.drain(),
    };
    out.dirty_drained = drained.len();
    treesls_nvm::crash_site!(sched, "tree.dirty_drained");

    // Claim the batch: dedup queue entries and consume dirty flags. An
    // entry whose flag is already clear is stale (a full walk or a failed
    // claim raced it) and skips in O(1).
    let mut seen: HashSet<ObjId> = HashSet::with_capacity(drained.len());
    let mut pmos: Vec<Arc<KObject>> = Vec::new();
    let mut plain: Vec<Arc<KObject>> = Vec::new();
    for id in drained {
        if !seen.insert(id) {
            continue;
        }
        let Ok(obj) = kernel.object(id) else { continue };
        if !obj.take_dirty() {
            out.skipped += 1;
            continue;
        }
        if obj.otype == ObjType::Pmo {
            pmos.push(obj);
        } else {
            plain.push(obj);
        }
    }

    // Build all non-PMO records (possibly on the quiesced cores). Builders
    // only read runtime bodies and create missing child ORoots; no backup
    // record is written until the leader-serial phase below.
    treesls_nvm::crash_site!(sched, "tree.pre_offload");
    let built = build_records(kernel, plain, work, &mut out)?;
    treesls_nvm::crash_site!(sched, "tree.aux_drained");

    // Leader-serial write phase: rotate backup slots and accumulate the
    // edge diff of every rewritten record. The superseded edge multiset
    // must be read *before* write_backup — after an aborted round the
    // destination slot can itself hold the newest record.
    let mut deltas: HashMap<OrootId, i64> = HashMap::new();
    let mut edge_targets: Vec<OrootId> = Vec::new();
    for (obj, record, built_in) in built {
        let oroot = ensure_oroot(oroots, &obj);
        let deleted = oroots.with(oroot, |r| r.deleted_at.is_some()).expect("live oroot");
        let new_edges = record.edges();
        // A tombstoned object's edges are uncounted while it stays dead;
        // if a reference resurrects it, the cascade re-acquires the edges
        // of exactly this fresh record.
        let old_edges = if deleted { None } else { Some(newest_edges(oroots, backups, oroot)) };
        copy_object(kernel, &obj, oroot, inflight, Some((record, built_in)), &mut out)?;
        if let Some(old) = old_edges {
            for e in &new_edges {
                *deltas.entry(*e).or_default() += 1;
            }
            for e in old {
                *deltas.entry(e).or_default() -= 1;
            }
            edge_targets.extend(new_edges);
        }
    }
    for obj in pmos {
        let oroot = ensure_oroot(oroots, &obj);
        copy_object(kernel, &obj, oroot, inflight, None, &mut out)?;
    }

    treesls_nvm::crash_site!(sched, "tree.pre_epoch_apply");

    // A rewritten record may reference an object whose ORoot was created
    // this instant with no backup yet *and* whose dirty flag is clear (a
    // raw-id re-reference after its previous ORoot was swept). Such
    // objects must enter this round's image or the new record would dangle
    // across a crash; chase them (and anything they reference) now.
    let mut chase: Vec<OrootId> = edge_targets;
    let mut chased: HashSet<OrootId> = HashSet::new();
    while let Some(id) = chase.pop() {
        if !chased.insert(id) {
            continue;
        }
        let Some((never_backed, runtime, deleted)) = oroots
            .with(id, |r| (r.backups.iter().all(Option::is_none), r.runtime, r.deleted_at.is_some()))
        else {
            continue;
        };
        if !never_backed || deleted {
            continue;
        }
        let Some(objid) = runtime else {
            return Err(KernelError::InvalidState("never-backed ORoot without runtime object"));
        };
        let obj = kernel.object(objid)?;
        obj.take_dirty(); // its queue entry (if any) becomes a stale skip
        if obj.otype == ObjType::Pmo {
            copy_object(kernel, &obj, id, inflight, None, &mut out)?;
        } else {
            let record = build_record(kernel, oroots, &obj)?;
            let new_edges = record.edges();
            copy_object(kernel, &obj, id, inflight, Some((record, Duration::ZERO)), &mut out)?;
            for e in &new_edges {
                *deltas.entry(*e).or_default() += 1;
            }
            chase.extend(new_edges);
        }
    }

    out.tombstoned_ids = apply_deltas(kernel, root_oroot, deltas, inflight);
    out.tombstoned = out.tombstoned_ids.len();
    Ok(out)
}

/// Builds the backup records for a batch of non-PMO objects, offloading
/// chunks to the quiesced cores via the aux queue when the batch is large
/// enough. Returns `(object, record, build time)` triples.
#[allow(clippy::type_complexity)]
fn build_records(
    kernel: &Arc<Kernel>,
    plain: Vec<Arc<KObject>>,
    work: Option<&Arc<HybridWork>>,
    out: &mut TreeOutcome,
) -> Result<Vec<(Arc<KObject>, BackupObject, Duration)>, KernelError> {
    let offload = work.filter(|w| w.aux_open() && plain.len() >= OFFLOAD_MIN);
    let Some(work) = offload else {
        let mut built = Vec::with_capacity(plain.len());
        for obj in plain {
            let t0 = Instant::now();
            let record = build_record(kernel, &kernel.pers.oroots, &obj)?;
            built.push((obj, record, t0.elapsed()));
        }
        return Ok(built);
    };

    type BuildSlot = Mutex<Option<Result<(BackupObject, Duration), KernelError>>>;
    let objs = Arc::new(plain);
    let results: Arc<Vec<BuildSlot>> =
        Arc::new((0..objs.len()).map(|_| Mutex::new(None)).collect());
    for start in (0..objs.len()).step_by(OFFLOAD_CHUNK) {
        let end = (start + OFFLOAD_CHUNK).min(objs.len());
        let kernel = Arc::clone(kernel);
        let objs = Arc::clone(&objs);
        let results = Arc::clone(&results);
        work.push_aux(Box::new(move || {
            for i in start..end {
                let t0 = Instant::now();
                let r = build_record(&kernel, &kernel.pers.oroots, &objs[i]);
                *results[i].lock() = Some(r.map(|rec| (rec, t0.elapsed())));
            }
        }));
    }
    work.close_aux();
    work.join_aux();
    out.offloaded = objs.len();

    let objs = Arc::try_unwrap(objs)
        .map_err(|_| KernelError::InvalidState("offload batch still shared"))?;
    let results = Arc::try_unwrap(results)
        .map_err(|_| KernelError::InvalidState("offload results still shared"))?;
    let mut built = Vec::with_capacity(objs.len());
    for (obj, cell) in objs.into_iter().zip(results) {
        let slot = cell
            .into_inner()
            .ok_or(KernelError::InvalidState("offloaded record build was lost"))?;
        let (record, dt) = slot?;
        built.push((obj, record, dt));
    }
    Ok(built)
}

/// Applies the accumulated edge diff to the reference counts, then runs
/// the tombstone/resurrect cascade over every touched ORoot. Returns the
/// ids of the ORoots tombstoned this round.
fn apply_deltas(
    kernel: &Kernel,
    root_oroot: OrootId,
    deltas: HashMap<OrootId, i64>,
    inflight: u64,
) -> Vec<OrootId> {
    let oroots = &kernel.pers.oroots;
    let backups = &kernel.pers.backups;
    let mut worklist: Vec<OrootId> = Vec::with_capacity(deltas.len());
    for (id, d) in deltas {
        if d == 0 {
            continue;
        }
        let applied = oroots.with_mut(id, |r| {
            let v = i64::from(r.inrefs) + d;
            r.inrefs = v.max(0) as u32;
            v >= 0
        });
        match applied {
            Some(true) => worklist.push(id),
            // More references dropped than were ever counted: the count
            // was wrong, so a zero proves nothing. Keep the object and let
            // the next round's healing full walk recount everything.
            Some(false) => {
                kernel.force_full_next.store(true, std::sync::atomic::Ordering::Release)
            }
            None => {}
        }
    }

    let mut newly_dead: Vec<OrootId> = Vec::new();
    while let Some(id) = worklist.pop() {
        if id == root_oroot {
            continue; // the root cap group is pinned
        }
        let Some((inrefs, deleted)) = oroots.with(id, |r| (r.inrefs, r.deleted_at.is_some()))
        else {
            continue;
        };
        if inrefs == 0 && !deleted {
            oroots.with_mut(id, |r| r.deleted_at = Some(inflight));
            newly_dead.push(id);
            // A dead object's outgoing references no longer count.
            for e in newest_edges(oroots, backups, id) {
                if oroots
                    .with_mut(e, |r| r.inrefs = r.inrefs.saturating_sub(1))
                    .is_some()
                {
                    worklist.push(e);
                }
            }
        } else if inrefs > 0 && deleted {
            // Re-referenced before its deletion committed: resurrect, and
            // its newest record's edges count again.
            oroots.with_mut(id, |r| r.deleted_at = None);
            for e in newest_edges(oroots, backups, id) {
                if oroots.with_mut(e, |r| r.inrefs += 1).is_some() {
                    worklist.push(e);
                }
            }
        }
    }
    // A cascade can resurrect an id it tombstoned moments earlier; only
    // ids still dead at the end of the round are real deletions (the
    // sweep drops resurrected pending entries the same way).
    newly_dead.retain(|&id| {
        oroots.with(id, |r| r.deleted_at.is_some()).unwrap_or(false)
    });
    kernel.pending_sweep.lock().extend(newly_dead.iter().copied());
    newly_dead
}

/// The full reachability walk from the root cap group: the differential
/// oracle for the dirty walk, the cycle collector, and (with `copy_all`)
/// the self-healing pass that rewrites every reachable record. Rebuilds
/// all reference counts from the visited records' edge multisets and
/// tombstones every unreachable ORoot.
fn full_walk(
    kernel: &Arc<Kernel>,
    inflight: u64,
    copy_all: bool,
) -> Result<TreeOutcome, KernelError> {
    let oroots = &kernel.pers.oroots;
    let mut out = TreeOutcome { full_walk: true, ..TreeOutcome::default() };

    let root_obj = kernel.object(kernel.root())?;
    let root_oroot = ensure_oroot(oroots, &root_obj);
    if kernel.pers.root_oroot().is_none() {
        kernel.pers.set_root_oroot(root_oroot);
    }

    // The dirty queue is deliberately *not* drained: a full walk consumes
    // every dirty flag, so queued entries become stale O(1) skips on the
    // next dirty round.
    let mut counts: HashMap<OrootId, u32> = HashMap::new();
    let mut visited: Vec<OrootId> = Vec::new();
    let mut stack = vec![root_obj];
    while let Some(obj) = stack.pop() {
        let oroot = ensure_oroot(oroots, &obj);
        let fresh = oroots
            .with_mut(oroot, |r| {
                if r.ckpt_round == inflight {
                    false
                } else {
                    r.ckpt_round = inflight;
                    // An object can reappear (e.g. a capability re-granted
                    // before its deletion committed); resurrect it.
                    r.deleted_at = None;
                    true
                }
            })
            .expect("just ensured");
        if !fresh {
            continue;
        }
        visited.push(oroot);
        for child in children(&obj) {
            if let Ok(c) = kernel.object(child) {
                stack.push(c);
            }
        }
        let dirty = obj.take_dirty();
        let never_backed =
            oroots.with(oroot, |r| r.backups.iter().all(Option::is_none)).expect("live oroot");
        if obj.otype == ObjType::Pmo || dirty || never_backed || copy_all {
            copy_object(kernel, &obj, oroot, inflight, None, &mut out)?;
        } else {
            out.skipped += 1;
        }
        // Count (and keep reachable) what the record this round keeps or
        // just wrote references — never what the runtime body references.
        // Mutators run during an epoch-concurrent walk: a thread read as
        // runnable here and as blocked when its record is built would
        // leave the notification one reference short, and the dirty walk's
        // record-to-record diffs would later drain it to zero while a
        // clean record still points at it.
        for e in newest_edges(oroots, &kernel.pers.backups, oroot) {
            *counts.entry(e).or_default() += 1;
            let target = oroots.with(e, |r| r.runtime).flatten();
            if let Some(c) = target.and_then(|id| kernel.object(id).ok()) {
                stack.push(c);
            }
        }
    }

    // Reference counts are rebuilt from scratch, from the same edges the
    // dirty walk diffs against.
    treesls_nvm::crash_site!(kernel.pers.dev.crash_schedule(), "tree.pre_epoch_apply");
    for id in visited {
        let n = counts.get(&id).copied().unwrap_or(0);
        oroots.with_mut(id, |r| r.inrefs = n);
    }

    // Deletion detection: reachable objects carry this round's tag;
    // everything else became unreachable since the last checkpoint.
    let mut newly_dead: Vec<OrootId> = Vec::new();
    oroots.for_each_mut(|id, r| {
        if r.ckpt_round != inflight && r.deleted_at.is_none() {
            r.deleted_at = Some(inflight);
            r.inrefs = 0; // nothing counted above references it
            newly_dead.push(id);
        }
    });
    out.tombstoned = newly_dead.len();
    kernel.pending_sweep.lock().extend(newly_dead.iter().copied());
    out.tombstoned_ids = newly_dead;
    Ok(out)
}

/// Recounts every live ORoot's incoming references from the newest records
/// of the live ORoots and compares them with the stored [`ORoot::inrefs`]
/// — the invariant both walks maintain and deletion detection rests on.
/// Call between rounds (the counts move while a walk is applying its diff).
pub fn check_inrefs(kernel: &Kernel) -> Result<(), String> {
    let oroots = &kernel.pers.oroots;
    let mut live: Vec<(OrootId, u32)> = Vec::new();
    oroots.for_each(|id, r| {
        if r.deleted_at.is_none() {
            live.push((id, r.inrefs));
        }
    });
    let mut recount: HashMap<OrootId, u32> = HashMap::new();
    for &(id, _) in &live {
        for e in newest_edges(oroots, &kernel.pers.backups, id) {
            *recount.entry(e).or_default() += 1;
        }
    }
    for (id, stored) in live {
        let counted = recount.get(&id).copied().unwrap_or(0);
        if stored != counted {
            return Err(format!("ORoot {id:?}: inrefs {stored}, records reference it {counted}×"));
        }
    }
    Ok(())
}

/// Sweeps ORoots whose deletion has committed: removes their backup
/// records, frees slab space, and for PMOs frees all page frames.
///
/// O(deletions): consumes the kernel's pending-sweep list (fed by the
/// tombstone cascade and the full walk) instead of filtering the whole
/// table. Entries whose tombstone has not committed yet are put back;
/// resurrected or already-swept entries are dropped.
///
/// Called by the checkpoint manager after the commit point.
pub fn sweep_deleted(kernel: &Kernel, committed: u64) -> Result<usize, KernelError> {
    treesls_nvm::crash_site!(kernel.pers.dev.crash_schedule(), "tree.pre_sweep_deleted");
    let oroots = &kernel.pers.oroots;
    let backups = &kernel.pers.backups;
    let pending = std::mem::take(&mut *kernel.pending_sweep.lock());
    let mut kept: Vec<OrootId> = Vec::new();
    let mut swept = 0usize;
    for id in pending {
        match oroots.with(id, |r| r.deleted_at) {
            None => {}       // already swept (duplicate pending entry)
            Some(None) => {} // resurrected since it was tombstoned
            Some(Some(d)) if d <= committed => {
                let r = oroots.remove(id).expect("just observed live");
                for vb in r.backups.into_iter().flatten() {
                    if let Some(BackupObject::Pmo { pages, .. }) = backups.remove(vb.slot) {
                        pages.for_each(|_, e| {
                            let meta = e.slot.meta.lock();
                            for (frame, _) in meta.frames() {
                                let _ = kernel.pers.alloc.free_page(frame);
                            }
                            if let Some(d) = meta.runtime_dram {
                                kernel.dram.free(d);
                            }
                        });
                    }
                    if let Some((addr, size)) = vb.slab {
                        kernel.pers.alloc.slab_free(addr, size as usize)?;
                    }
                }
                swept += 1;
            }
            Some(Some(_)) => kept.push(id), // tombstone not committed yet
        }
    }
    if !kept.is_empty() {
        kernel.pending_sweep.lock().extend(kept);
    }
    Ok(swept)
}
