//! Spawning a NIC-backed service process inside the SLS.
//!
//! One deployment is one process: a data heap (ordinary rolled-back
//! memory holding the service's tables and the per-queue RX cursors), an
//! eternal PMO holding every queue's ring pair, one doorbell notification
//! and one [`PollServer`] thread per queue, and a [`VirtualNic`] whose
//! checkpoint/restore callbacks are registered with the checkpoint
//! manager.

use std::sync::Arc;

use treesls_checkpoint::CheckpointManager;
use treesls_kernel::cap::CapRights;
use treesls_kernel::object::ObjectBody;
use treesls_kernel::pmo::PmoKind;
use treesls_kernel::program::Program;
use treesls_kernel::thread::ThreadContext;
use treesls_kernel::types::{CapSlot, KernelError, ObjId, Vpn};
use treesls_kernel::Kernel;

use crate::nic::{NicConfig, NicLayout, VirtualNic};
use crate::runtime::{PollServer, Service};

/// Finds the capability slot of `obj` in `group`.
pub fn cap_slot_of(kernel: &Kernel, group: ObjId, obj: ObjId) -> CapSlot {
    let g = kernel.object(group).expect("group exists");
    let body = g.body.read();
    let ObjectBody::CapGroup(cg) = &*body else { panic!("not a cap group") };
    let slot = cg.iter().find(|(_, c)| c.obj == obj).map(|(s, _)| s).expect("cap installed");
    slot
}

/// What to build: process shape + NIC behaviour.
#[derive(Debug, Clone)]
pub struct DeploySpec {
    /// Cap-group and program-name prefix (queue `q`'s program is
    /// `"{name}-q{q}"`).
    pub name: String,
    /// Pages of ordinary data heap mapped at address 0 (tables +
    /// cursors). The eternal ring PMO is mapped 16 pages above it.
    pub heap_pages: u64,
    /// Address of queue 0's RX cursor (must lie inside the heap).
    pub cursor_base: u64,
    /// Byte stride between consecutive queues' cursors.
    pub cursor_stride: u64,
    /// NIC behaviour (queue count, ring geometry, credits, ext-sync,
    /// wire faults).
    pub cfg: NicConfig,
    /// Requests each server loop serves per step (and the maximum round
    /// size a queue releases per batched TX publish).
    pub batch: usize,
    /// When `Some(n)`, pin queue `q`'s server thread to simulated core
    /// `q % n`, aligning the service shard with the core that owns its
    /// dirty pages. An epoch flip holds pinned and unpinned threads back
    /// alike. `None` (every shipped deployment) leaves scheduling
    /// unconstrained.
    pub pin_cores: Option<u32>,
}

/// A running NIC-backed deployment.
pub struct NicDeployment {
    /// The server process VM space.
    pub vmspace: ObjId,
    /// The NIC serving all queues.
    pub nic: Arc<VirtualNic>,
    /// Server thread ids, one per queue.
    pub server_threads: Vec<ObjId>,
}

/// Builds the process, rings, doorbells and server loops described by
/// `spec`, instantiating queue `q`'s protocol via `service(q)`.
pub fn deploy(
    kernel: &Arc<Kernel>,
    manager: &CheckpointManager,
    spec: &DeploySpec,
    mut service: impl FnMut(usize) -> Arc<dyn Service>,
) -> Result<NicDeployment, KernelError> {
    let g = kernel.create_cap_group(&spec.name)?;
    let vs = kernel.create_vmspace(g)?;

    // Data heap: service tables + per-queue RX cursors (rolled back).
    let pmo = kernel.create_pmo(g, spec.heap_pages, PmoKind::Data)?;
    kernel.map_region(vs, Vpn(0), spec.heap_pages, pmo, 0, CapRights::ALL)?;

    // Eternal ring area above the heap: one eternal PMO *per queue*, so
    // each shard's ring pair is its own checkpoint object. A queue's
    // request traffic then dirties only its own PMO — a round rewrites
    // only the records of the shards that produced, and the address map
    // is unchanged (queue `q` still lands at `ring_base + q·2·ring_len`).
    let ring_base_vpn = spec.heap_pages + 16;
    let layout =
        NicLayout::new(&spec.cfg, ring_base_vpn * 4096, spec.cursor_base, spec.cursor_stride);
    let pages_per_queue = 2 * layout.ring_len() / 4096;
    for q in 0..spec.cfg.queues as u64 {
        let epmo = kernel.create_pmo(g, pages_per_queue, PmoKind::Eternal)?;
        kernel.map_region(
            vs,
            Vpn(ring_base_vpn + q * pages_per_queue),
            pages_per_queue,
            epmo,
            0,
            CapRights::ALL,
        )?;
    }

    let nic = VirtualNic::new(Arc::clone(kernel), vs, layout, &spec.cfg)?;
    let mut server_threads = Vec::new();
    for q in 0..spec.cfg.queues {
        let doorbell = kernel.create_notification(g)?;
        nic.set_doorbell(q, doorbell);
        let prog = format!("{}-q{q}", spec.name);
        kernel.programs.register(
            prog.clone(),
            Arc::new(PollServer {
                port: layout.port(q),
                service: service(q),
                batch: spec.batch,
                doorbell_slot: cap_slot_of(kernel, g, doorbell),
                queue: q,
                scratch: Default::default(),
            }) as Arc<dyn Program>,
        );
        let tid = kernel.create_thread(g, vs, &prog, ThreadContext::new())?;
        if let Some(n) = spec.pin_cores {
            kernel.sched.set_affinity(tid, Some(q as u32 % n.max(1)));
        }
        server_threads.push(tid);
    }
    manager.register_callback(Arc::clone(&nic) as _);
    Ok(NicDeployment { vmspace: vs, nic, server_threads })
}
