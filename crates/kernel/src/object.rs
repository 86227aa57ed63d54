//! Runtime kernel objects: the nodes of the capability tree.
//!
//! Table 1 of the paper lists the seven capability-referred object kinds;
//! [`ObjectBody`] is their runtime representation. Every object carries a
//! dirty flag (set on mutation, cleared by the checkpoint) that drives the
//! paper's incremental checkpointing — "skipping state intact since the
//! last checkpoint" (§3) — and a lazily assigned [`ORoot`] id linking it to
//! its backups (§4.1).
//!
//! [`ORoot`]: crate::oroot::ORoot

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;

use crate::cap::CapGroupBody;
use crate::dirty::DirtyQueue;
use crate::ipc::IpcConnBody;
use crate::notif::{IrqNotifBody, NotifBody};
use crate::pmo::Pmo;
use crate::thread::ThreadBody;
use crate::types::{ObjId, OrootId};
use crate::vm::VmSpaceBody;

/// The seven kernel object kinds of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ObjType {
    /// A group of capabilities (a process).
    CapGroup,
    /// A thread: register context and scheduling state.
    Thread,
    /// A list of virtual memory regions.
    VmSpace,
    /// A set of physical memory pages.
    Pmo,
    /// Inter-process communication endpoint.
    IpcConnection,
    /// Synchronization primitive (like a semaphore).
    Notification,
    /// A hardware signal sent to the processor.
    IrqNotification,
}

impl ObjType {
    /// All object types, in Table 1 order.
    pub const ALL: [ObjType; 7] = [
        ObjType::CapGroup,
        ObjType::Thread,
        ObjType::VmSpace,
        ObjType::Pmo,
        ObjType::IpcConnection,
        ObjType::Notification,
        ObjType::IrqNotification,
    ];

    /// Short display name (used in the Table 2 census).
    pub fn short_name(self) -> &'static str {
        match self {
            ObjType::CapGroup => "C.G.",
            ObjType::Thread => "Thread",
            ObjType::VmSpace => "VMS",
            ObjType::Pmo => "PMO",
            ObjType::IpcConnection => "IPC",
            ObjType::Notification => "Noti.",
            ObjType::IrqNotification => "IRQ",
        }
    }
}

/// Type-specific runtime state of a kernel object.
#[derive(Debug)]
pub enum ObjectBody {
    /// See [`CapGroupBody`].
    CapGroup(CapGroupBody),
    /// See [`ThreadBody`].
    Thread(ThreadBody),
    /// See [`VmSpaceBody`].
    VmSpace(VmSpaceBody),
    /// See [`Pmo`].
    Pmo(Pmo),
    /// See [`IpcConnBody`].
    IpcConnection(IpcConnBody),
    /// See [`NotifBody`].
    Notification(NotifBody),
    /// See [`IrqNotifBody`].
    IrqNotification(IrqNotifBody),
}

impl ObjectBody {
    /// The object's type tag.
    pub fn otype(&self) -> ObjType {
        match self {
            ObjectBody::CapGroup(_) => ObjType::CapGroup,
            ObjectBody::Thread(_) => ObjType::Thread,
            ObjectBody::VmSpace(_) => ObjType::VmSpace,
            ObjectBody::Pmo(_) => ObjType::Pmo,
            ObjectBody::IpcConnection(_) => ObjType::IpcConnection,
            ObjectBody::Notification(_) => ObjType::Notification,
            ObjectBody::IrqNotification(_) => ObjType::IrqNotification,
        }
    }
}

/// A runtime kernel object.
///
/// Objects are shared via `Arc` (capabilities in several cap groups may
/// reference the same object); the body is behind an `RwLock` for
/// concurrent syscalls, and the per-object `dirty` flag and `oroot` link
/// are lock-free.
#[derive(Debug)]
pub struct KObject {
    /// The object's runtime store id (set once at insertion).
    id: OnceLock<ObjId>,
    /// Type tag (redundant with the body, but readable without locking).
    pub otype: ObjType,
    /// Link to the persistent ORoot; `u64::MAX` until the first checkpoint
    /// assigns one (the paper initializes ORoots lazily, §4.1).
    oroot: AtomicU64,
    /// Set on mutation; cleared when checkpointed (incremental ckpt).
    dirty: AtomicBool,
    /// The kernel's dirty queue, installed at insertion. `mark_dirty`
    /// pushes the object id here on the flag's false→true edge, so the
    /// checkpoint leader can visit only mutated objects (O(changes) walk).
    sink: OnceLock<Arc<DirtyQueue>>,
    /// The type-specific state.
    pub body: RwLock<ObjectBody>,
}

const NO_OROOT: u64 = u64::MAX;

impl KObject {
    /// Wraps a body into a new (dirty, oroot-less) object.
    pub fn new(body: ObjectBody) -> Arc<Self> {
        Arc::new(Self {
            id: OnceLock::new(),
            otype: body.otype(),
            oroot: AtomicU64::new(NO_OROOT),
            dirty: AtomicBool::new(true),
            sink: OnceLock::new(),
            body: RwLock::new(body),
        })
    }

    /// Installs the dirty-queue sink (called once at insertion, after
    /// [`set_id`](Self::set_id)). Objects are born dirty, so the inserter
    /// pushes the id itself; later `mark_dirty` edges push here.
    pub fn install_dirty_sink(&self, sink: Arc<DirtyQueue>) {
        let _ = self.sink.set(sink);
    }

    /// Records the runtime store id. Called exactly once at insertion.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn set_id(&self, id: ObjId) {
        self.id.set(id).expect("KObject id set twice");
    }

    /// The runtime store id.
    ///
    /// # Panics
    ///
    /// Panics if the object was never inserted into a store.
    pub fn id(&self) -> ObjId {
        *self.id.get().expect("KObject not yet inserted")
    }

    /// The ORoot assigned by the checkpoint manager, if any.
    pub fn oroot(&self) -> Option<OrootId> {
        let raw = self.oroot.load(Ordering::Acquire);
        if raw == NO_OROOT {
            None
        } else {
            Some(OrootId::from_raw(raw))
        }
    }

    /// Assigns the ORoot (first checkpoint of this object).
    pub fn set_oroot(&self, id: OrootId) {
        self.oroot.store(id.to_raw(), Ordering::Release);
    }

    /// Race-safe ORoot assignment for parallel record builders: CASes the
    /// link from `expected` (`None` = never assigned, or a stale id whose
    /// ORoot was swept) to `id`. Returns the winning id — `id` if this
    /// call installed it, or the value another core installed first (the
    /// loser must release its speculative ORoot record and retry).
    pub fn reset_oroot_race(&self, expected: Option<OrootId>, id: OrootId) -> OrootId {
        match self.oroot.compare_exchange(
            expected.map_or(NO_OROOT, |e| e.to_raw()),
            id.to_raw(),
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => id,
            Err(winner) => OrootId::from_raw(winner),
        }
    }

    /// Marks the object modified since the last checkpoint.
    ///
    /// On the false→true edge the object id is pushed to the kernel's
    /// dirty queue — at most one push per object per checkpoint round, no
    /// matter how many syscalls touch it.
    #[inline]
    pub fn mark_dirty(&self) {
        if !self.dirty.swap(true, Ordering::AcqRel) {
            if let (Some(sink), Some(id)) = (self.sink.get(), self.id.get()) {
                sink.push(*id);
            }
        }
    }

    /// Reads and clears the dirty flag (checkpoint path).
    pub fn take_dirty(&self) -> bool {
        self.dirty.swap(false, Ordering::AcqRel)
    }

    /// Reads the dirty flag without clearing.
    pub fn is_dirty(&self) -> bool {
        self.dirty.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treesls_nvm::ObjectStore;

    #[test]
    fn body_type_tags() {
        assert_eq!(ObjectBody::Notification(NotifBody::new()).otype(), ObjType::Notification);
        assert_eq!(
            ObjectBody::CapGroup(CapGroupBody::new("x")).otype(),
            ObjType::CapGroup
        );
    }

    #[test]
    fn new_objects_are_dirty_without_oroot() {
        let o = KObject::new(ObjectBody::Notification(NotifBody::new()));
        assert!(o.is_dirty());
        assert!(o.oroot().is_none());
        assert!(o.take_dirty());
        assert!(!o.is_dirty());
        o.mark_dirty();
        assert!(o.is_dirty());
    }

    #[test]
    fn id_set_once() {
        let o = KObject::new(ObjectBody::Notification(NotifBody::new()));
        let mut store: ObjectStore<Arc<KObject>> = ObjectStore::new();
        let id = store.insert(Arc::clone(&o));
        o.set_id(id);
        assert_eq!(o.id(), id);
    }

    #[test]
    #[should_panic(expected = "id set twice")]
    fn double_id_set_panics() {
        let o = KObject::new(ObjectBody::Notification(NotifBody::new()));
        let mut store: ObjectStore<Arc<KObject>> = ObjectStore::new();
        let id = store.insert(Arc::clone(&o));
        o.set_id(id);
        o.set_id(id);
    }

    #[test]
    fn oroot_roundtrip() {
        let o = KObject::new(ObjectBody::Notification(NotifBody::new()));
        let mut store: ObjectStore<u8> = ObjectStore::new();
        let oroot = store.insert(1);
        o.set_oroot(oroot);
        assert_eq!(o.oroot(), Some(oroot));
    }

    #[test]
    fn all_types_listed_once() {
        let set: std::collections::HashSet<_> = ObjType::ALL.iter().collect();
        assert_eq!(set.len(), 7);
        for t in ObjType::ALL {
            assert!(!t.short_name().is_empty());
        }
    }
}
