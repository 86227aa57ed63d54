//! ORoots and backup object records: the persistent half of the
//! capability tree.
//!
//! "Since an object can be referred by multiple cap groups, TreeSLS
//! maintains a capability object root (ORoot) structure for each unique
//! object to avoid redundant checkpointing. ORoot records the addresses of
//! the runtime object and the corresponding backup objects (if present)"
//! (§4.1). Backup capabilities point at ORoots rather than at backup
//! objects directly, so a restored runtime tree can be rebuilt by mapping
//! each ORoot to its freshly revived runtime object.
//!
//! Non-PMO objects keep **two** versioned backup slots: the checkpoint
//! writes the slot the restore rule would *not* currently pick (see
//! [`ORoot::ckpt_dst`]), so a crash mid-checkpoint always leaves the last
//! committed image intact. PMOs keep a single backup record whose page
//! data is versioned per page ([`crate::pmo::PageMeta`]); its radix tree
//! entries are versioned with add/remove tags ([`BkPageEntry`]) so that
//! structural changes also commit atomically with the global version bump.

use std::sync::Arc;

use crate::cap::CapRights;
use crate::object::ObjType;
use crate::pmo::{PageSlot, PmoKind};
use crate::radix::Radix;
use crate::thread::ThreadContext;
use crate::types::{BackupId, ObjId, OrootId};

/// One versioned backup slot of an ORoot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionedBackup {
    /// The backup record in the persistent backup store.
    pub slot: BackupId,
    /// Version of the checkpoint that wrote this backup.
    pub version: u64,
    /// NVM slab space accounting for the record `(address, byte size)`.
    pub slab: Option<(treesls_pmem_alloc::NvmAddr, u32)>,
}

/// The persistent per-object root record.
#[derive(Debug, Clone)]
pub struct ORoot {
    /// Object type (fixed for the ORoot's lifetime).
    pub otype: ObjType,
    /// The runtime object, when one exists. Volatile hint: stale after a
    /// crash; restore rewrites it while reviving the tree.
    pub runtime: Option<ObjId>,
    /// Up to two versioned backups. PMOs use only slot 0.
    pub backups: [Option<VersionedBackup>; 2],
    /// Checkpoint round tag: equals the in-flight version when the object
    /// has already been processed this round (handles objects referenced
    /// from multiple cap groups).
    pub ckpt_round: u64,
    /// Version of the checkpoint at which the object was observed deleted;
    /// the record is swept once a later checkpoint commits.
    pub deleted_at: Option<u64>,
    /// Incoming ORoot references counted over the *newest* backup edges
    /// (how many backup records currently point at this ORoot). The
    /// dirty-queue walk maintains it by diffing each rewritten record's
    /// edge multiset, and tombstones ORoots whose count drains to zero —
    /// O(deletions) instead of a whole-table reachability sweep. The root
    /// cap group is pinned regardless of its count. Reference *cycles*
    /// never drain; the periodic full walk (and any restore) collects
    /// them, so a leaked cycle is bounded, never restore-visible.
    pub inrefs: u32,
}

impl ORoot {
    /// Creates an ORoot for a newly checkpointed runtime object.
    pub fn new(otype: ObjType, runtime: ObjId) -> Self {
        Self {
            otype,
            runtime: Some(runtime),
            backups: [None, None],
            ckpt_round: 0,
            deleted_at: None,
            inrefs: 0,
        }
    }

    /// Picks the backup slot holding the committed image for `global`.
    ///
    /// The highest version not exceeding the committed global version wins;
    /// in-flight tags (`> global`) are ignored, mirroring the page rule in
    /// [`crate::pmo::PageMeta::restore_pick`].
    ///
    /// PMOs are the exception: they keep a *single* backup record whose
    /// radix entries and page pairs carry their own per-item version tags
    /// (the record is updated in place every round), so the record is
    /// always the restore source regardless of its own stamp — an
    /// interrupted checkpoint merely leaves in-flight item tags inside it,
    /// which the per-item rules already filter.
    pub fn restore_pick(&self, global: u64) -> Option<usize> {
        if self.otype == ObjType::Pmo {
            return self.backups[0].map(|_| 0);
        }
        let cand = |i: usize| self.backups[i].filter(|b| b.version <= global);
        match (cand(0), cand(1)) {
            (Some(a), Some(b)) => Some(if a.version >= b.version { 0 } else { 1 }),
            (Some(_), None) => Some(0),
            (None, Some(_)) => Some(1),
            (None, None) => None,
        }
    }

    /// The backup slot index a checkpoint must (over)write: the one not
    /// protecting the committed image.
    pub fn ckpt_dst(&self, global: u64) -> usize {
        match self.restore_pick(global) {
            Some(keep) => 1 - keep,
            None => 0,
        }
    }

    /// Returns `true` if this object should be revived when restoring to
    /// `global` (not deleted by a committed checkpoint).
    pub fn live_at(&self, global: u64) -> bool {
        self.deleted_at.is_none_or(|d| d > global)
    }
}

/// A backup capability: ORoot reference plus rights.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BkCap {
    /// The referenced object's ORoot.
    pub oroot: OrootId,
    /// Rights carried by the capability.
    pub rights: CapRights,
}

/// A backup VM region (PMO referenced through its ORoot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BkRegion {
    /// First virtual page.
    pub base: u64,
    /// Length in pages.
    pub npages: u64,
    /// Backing PMO's ORoot.
    pub pmo: OrootId,
    /// Page offset within the PMO.
    pub pmo_off: u64,
    /// Permissions.
    pub perm: CapRights,
}

/// Backup thread scheduling state (references via ORoots).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BkThreadState {
    /// Was runnable: restore re-enqueues it.
    Runnable,
    /// Was blocked waiting on a notification.
    BlockedNotification(OrootId),
    /// Was blocked in `ipc_recv`.
    BlockedIpcRecv(OrootId),
    /// Was blocked in `ipc_call` awaiting a reply.
    BlockedIpcReply(OrootId),
    /// Had exited.
    Exited,
}

/// A versioned entry of a backup PMO radix tree.
///
/// Structural changes to PMOs (pages materialized or removed) are synced
/// into the backup tree during the stop-the-world pause but only become
/// restore-visible once the global version reaches their tag, so a crash
/// before commit cannot leak post-checkpoint pages into the restored image.
#[derive(Debug, Clone)]
pub struct BkPageEntry {
    /// The shared page slot (page data + CPP versioning).
    pub slot: Arc<PageSlot>,
    /// Version of the checkpoint that added this page.
    pub added: u64,
    /// Version of the checkpoint that observed the page removed, if any.
    pub removed: Option<u64>,
}

impl BkPageEntry {
    /// Returns `true` if the page belongs to the image of version `global`.
    pub fn live_at(&self, global: u64) -> bool {
        self.added <= global && self.removed.is_none_or(|r| r > global)
    }
}

/// Type-specific backup record contents.
#[derive(Debug, Clone)]
pub enum BackupObject {
    /// Cap group: name + capability table with ORoot references.
    CapGroup {
        /// Process/service name.
        name: String,
        /// Capability table; indexes match the runtime table.
        caps: Vec<Option<BkCap>>,
    },
    /// Thread: full context copy.
    Thread {
        /// Saved registers.
        ctx: ThreadContext,
        /// Scheduling state with ORoot references.
        state: BkThreadState,
        /// Program registry key.
        program: String,
        /// Owning cap group.
        cap_group: OrootId,
        /// The thread's VM space.
        vmspace: OrootId,
    },
    /// VM space: the region list (page table deliberately omitted).
    VmSpace {
        /// Regions with ORoot PMO references.
        regions: Vec<BkRegion>,
    },
    /// PMO: the backup radix tree with versioned entries.
    Pmo {
        /// Capacity in pages.
        npages: u64,
        /// Data vs. eternal.
        kind: PmoKind,
        /// Versioned page index.
        pages: Radix<BkPageEntry>,
        /// The runtime `structure_tick` value at the last sync, for
        /// skipping structurally unchanged PMOs.
        synced_tick: u64,
    },
    /// IPC connection: buffered messages copied verbatim.
    IpcConnection {
        /// Blocked server (recv waiter), if any.
        recv_waiter: Option<OrootId>,
        /// Pending requests `(client thread ORoot, bytes)`.
        queue: Vec<(OrootId, Vec<u8>)>,
        /// Staged replies `(client thread ORoot, bytes)`.
        replies: Vec<(OrootId, Vec<u8>)>,
    },
    /// Notification: count + waiter list.
    Notification {
        /// Pending signal count.
        count: u64,
        /// Blocked waiter threads (ORoots), FIFO order.
        waiters: Vec<OrootId>,
    },
    /// IRQ notification: line + embedded notification state.
    IrqNotification {
        /// Bound interrupt line.
        line: u32,
        /// Pending count.
        count: u64,
        /// Blocked waiter threads (ORoots).
        waiters: Vec<OrootId>,
    },
}

impl BackupObject {
    /// The object type of this record.
    pub fn otype(&self) -> ObjType {
        match self {
            BackupObject::CapGroup { .. } => ObjType::CapGroup,
            BackupObject::Thread { .. } => ObjType::Thread,
            BackupObject::VmSpace { .. } => ObjType::VmSpace,
            BackupObject::Pmo { .. } => ObjType::Pmo,
            BackupObject::IpcConnection { .. } => ObjType::IpcConnection,
            BackupObject::Notification { .. } => ObjType::Notification,
            BackupObject::IrqNotification { .. } => ObjType::IrqNotification,
        }
    }

    /// Approximate NVM bytes this record occupies (slab accounting).
    pub fn approx_size(&self) -> usize {
        match self {
            BackupObject::CapGroup { name, caps } => 32 + name.len() + caps.len() * 16,
            BackupObject::Thread { program, .. } => 192 + program.len(),
            BackupObject::VmSpace { regions } => 32 + regions.len() * 40,
            BackupObject::Pmo { .. } => 64,
            BackupObject::IpcConnection { queue, replies, .. } => {
                48 + queue.iter().map(|(_, d)| 16 + d.len()).sum::<usize>()
                    + replies.iter().map(|(_, d)| 16 + d.len()).sum::<usize>()
            }
            BackupObject::Notification { waiters, .. } => 24 + waiters.len() * 8,
            BackupObject::IrqNotification { waiters, .. } => 32 + waiters.len() * 8,
        }
    }

    /// The outgoing ORoot edge multiset of this record (the persistent
    /// mirror of a runtime object's references): the edges a committed
    /// image is walked along and [`ORoot::inrefs`] counts.
    pub fn edges(&self) -> Vec<OrootId> {
        match self {
            BackupObject::CapGroup { caps, .. } => {
                caps.iter().flatten().map(|c| c.oroot).collect()
            }
            BackupObject::Thread { state, cap_group, vmspace, .. } => {
                let mut v = vec![*cap_group, *vmspace];
                match state {
                    BkThreadState::BlockedNotification(o)
                    | BkThreadState::BlockedIpcRecv(o)
                    | BkThreadState::BlockedIpcReply(o) => v.push(*o),
                    BkThreadState::Runnable | BkThreadState::Exited => {}
                }
                v
            }
            BackupObject::VmSpace { regions } => regions.iter().map(|r| r.pmo).collect(),
            BackupObject::Pmo { .. } => Vec::new(),
            BackupObject::IpcConnection { recv_waiter, queue, replies } => {
                let mut v: Vec<OrootId> = queue.iter().map(|(t, _)| *t).collect();
                v.extend(replies.iter().map(|(t, _)| *t));
                v.extend(*recv_waiter);
                v
            }
            BackupObject::Notification { waiters, .. }
            | BackupObject::IrqNotification { waiters, .. } => waiters.clone(),
        }
    }

    /// A copy of this record with every ORoot reference — exactly the
    /// [`edges`](Self::edges) — translated by `f`; the first failing
    /// translation aborts the copy. A replica's promotion maps the
    /// primary's ids onto its own with it.
    pub fn map_refs<E>(
        &self,
        mut f: impl FnMut(OrootId) -> Result<OrootId, E>,
    ) -> Result<BackupObject, E> {
        let mut out = self.clone();
        for r in out.refs_mut() {
            *r = f(*r)?;
        }
        Ok(out)
    }

    /// Every ORoot reference field of the record, in [`edges`](Self::edges)
    /// order.
    fn refs_mut(&mut self) -> Vec<&mut OrootId> {
        match self {
            BackupObject::CapGroup { caps, .. } => {
                caps.iter_mut().flatten().map(|c| &mut c.oroot).collect()
            }
            BackupObject::Thread { state, cap_group, vmspace, .. } => {
                let mut v = vec![cap_group, vmspace];
                match state {
                    BkThreadState::BlockedNotification(o)
                    | BkThreadState::BlockedIpcRecv(o)
                    | BkThreadState::BlockedIpcReply(o) => v.push(o),
                    BkThreadState::Runnable | BkThreadState::Exited => {}
                }
                v
            }
            BackupObject::VmSpace { regions } => regions.iter_mut().map(|r| &mut r.pmo).collect(),
            BackupObject::Pmo { .. } => Vec::new(),
            BackupObject::IpcConnection { recv_waiter, queue, replies } => {
                let mut v: Vec<&mut OrootId> = queue.iter_mut().map(|(t, _)| t).collect();
                v.extend(replies.iter_mut().map(|(t, _)| t));
                v.extend(recv_waiter.as_mut());
                v
            }
            BackupObject::Notification { waiters, .. }
            | BackupObject::IrqNotification { waiters, .. } => waiters.iter_mut().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treesls_nvm::ObjectStore;

    fn oid() -> ObjId {
        let mut s: ObjectStore<u8> = ObjectStore::new();
        s.insert(0)
    }

    fn vb(slot_seed: u8, version: u64) -> Option<VersionedBackup> {
        let mut s: ObjectStore<u8> = ObjectStore::new();
        let mut slot = s.insert(0);
        for _ in 0..slot_seed {
            slot = s.insert(0);
        }
        Some(VersionedBackup { slot, version, slab: None })
    }

    #[test]
    fn restore_pick_prefers_highest_committed() {
        let mut o = ORoot::new(ObjType::Thread, oid());
        assert_eq!(o.restore_pick(10), None);
        o.backups[0] = vb(0, 4);
        assert_eq!(o.restore_pick(10), Some(0));
        o.backups[1] = vb(1, 7);
        assert_eq!(o.restore_pick(10), Some(1));
        // In-flight tag beyond global is ignored.
        o.backups[0] = vb(0, 11);
        assert_eq!(o.restore_pick(10), Some(1));
    }

    #[test]
    fn ckpt_dst_avoids_keeper() {
        let mut o = ORoot::new(ObjType::Thread, oid());
        assert_eq!(o.ckpt_dst(5), 0);
        o.backups[0] = vb(0, 5);
        assert_eq!(o.ckpt_dst(5), 1);
        o.backups[1] = vb(1, 6);
        // Slot 1 is in-flight (version 6 > global 5): keeper is slot 0,
        // destination is slot 1 (safe to overwrite).
        assert_eq!(o.ckpt_dst(5), 1);
    }

    #[test]
    fn liveness_with_deletion() {
        let mut o = ORoot::new(ObjType::Pmo, oid());
        assert!(o.live_at(3));
        o.deleted_at = Some(5);
        assert!(o.live_at(4)); // deleted at ckpt 5 ⇒ still alive in image 4
        assert!(!o.live_at(5));
        assert!(!o.live_at(9));
    }

    #[test]
    fn bk_page_entry_visibility() {
        let slot = PageSlot::new(0, treesls_nvm::FrameId(0));
        let e = BkPageEntry { slot, added: 3, removed: Some(7) };
        assert!(!e.live_at(2));
        assert!(e.live_at(3));
        assert!(e.live_at(6));
        assert!(!e.live_at(7));
    }

    #[test]
    fn backup_types_and_sizes() {
        let b = BackupObject::Notification { count: 1, waiters: vec![] };
        assert_eq!(b.otype(), ObjType::Notification);
        assert!(b.approx_size() >= 24);
        let cg = BackupObject::CapGroup { name: "x".into(), caps: vec![None; 10] };
        assert!(cg.approx_size() > b.approx_size());
    }

    #[test]
    fn map_refs_translates_exactly_the_edges() {
        let id = OrootId::from_raw;
        let shift = |o: OrootId| Ok::<_, ()>(id(o.to_raw() + 100));
        let records = [
            BackupObject::Thread {
                ctx: ThreadContext::new(),
                state: BkThreadState::BlockedNotification(id(5)),
                program: String::new(),
                cap_group: id(1),
                vmspace: id(2),
            },
            BackupObject::IpcConnection {
                recv_waiter: Some(id(3)),
                queue: vec![(id(4), vec![1])],
                replies: vec![(id(6), vec![])],
            },
        ];
        for rec in records {
            let want: Vec<OrootId> = rec.edges().into_iter().map(|o| shift(o).unwrap()).collect();
            assert_eq!(rec.map_refs(shift).unwrap().edges(), want);
            assert_eq!(rec.map_refs(|_| Err::<OrootId, _>("gone")).err(), Some("gone"));
        }
    }
}
