//! The TreeSLS microkernel model: capability tree, kernel objects, virtual
//! memory with a software MMU, scheduler, IPC and multi-core execution.
//!
//! TreeSLS "adopts the microkernel architecture that minimizes kernel
//! functionalities (e.g., IPC, scheduler, checkpoint manager) and puts most
//! system services to the user space" (§3). This crate implements that
//! kernel. All system resources are capability-referred objects of the
//! seven kinds in Table 1 of the paper ([`object::ObjType`]), grouped into
//! a capability tree rooted at the root cap group; "checkpointing the
//! capability tree is equal to checkpointing the whole system".
//!
//! The pieces:
//!
//! * [`object`] / [`cap`] — kernel objects, capabilities, cap groups.
//! * [`oroot`] — the capability object root (ORoot) table: per-object
//!   records linking the runtime object with its (up to two) versioned
//!   backups, enabling incremental checkpointing (§4.1).
//! * [`pmo`] / [`radix`] — physical memory objects with radix-tree page
//!   indexes and the checkpointed-page-pair versioning state of §4.2–4.3.
//! * [`vm`] / [`fault`] — VM spaces, regions, the soft-MMU page table, and
//!   the copy-on-write / hotness-tracking page-fault handler.
//! * [`thread`] / [`sched`] — thread contexts (the register state that must
//!   be checkpointed) and the run queue (rebuilt after restore).
//! * [`ipc`] / [`notif`] — IPC connections and notifications.
//! * [`program`] — the re-entrant program model: applications keep all
//!   mutable state in registers + process memory, so a restored system
//!   resumes them exactly from the last checkpoint.
//! * [`cores`] — simulated CPU cores and the IPI/stop-the-world controller
//!   used by the checkpoint leader (steps ❶/❺ of Figure 5).
//! * [`kernel`] — the `Kernel` struct tying everything together, and the
//!   persistent/volatile split that defines crash semantics.

#![deny(missing_docs)]

pub mod cap;
pub mod cores;
pub mod dirty;
pub mod fault;
pub mod ipc;
pub mod kernel;
pub mod notif;
pub mod object;
pub mod oroot;
pub mod pmo;
pub mod program;
pub mod radix;
pub mod sched;
pub mod thread;
pub mod types;
pub mod vm;

pub use cap::{CapRights, Capability};
pub use kernel::{Kernel, KernelConfig, Persistent};
pub use object::{KObject, ObjType, ObjectBody};
pub use program::{Program, StepOutcome, UserCtx};
pub use types::{KernelError, ObjId, OrootId};
