//! Host-side DMA view of a service's rings (§5).
//!
//! The paper implements external synchrony "in a network server that
//! handles communications between clients and servers on the same
//! machine". This module holds what the host side of that server needs:
//! [`HostIo`], the host's byte-addressed window into a service's address
//! space, playing the NIC's DMA engine (and the external clients behind
//! it), and [`PortLayout`], one queue's ring pair.
//!
//! The port *device* itself — multi-queue rings, doorbells, the
//! commit-gated visibility barrier — and its in-SLS serving loop
//! (`PollServer`) live in the `treesls-net` crate, which builds on these
//! primitives.

use std::sync::Arc;

use treesls_kernel::types::{KernelError, ObjId, Vaddr};
use treesls_kernel::Kernel;

use crate::ring::{MemIo, RingLayout};

/// Host-side memory access into a service's address space (the NIC's DMA
/// view).
#[derive(Clone)]
pub struct HostIo {
    kernel: Arc<Kernel>,
    vmspace: ObjId,
}

impl HostIo {
    /// Creates a DMA view into `vmspace`.
    pub fn new(kernel: Arc<Kernel>, vmspace: ObjId) -> Self {
        Self { kernel, vmspace }
    }

    /// The kernel this view reaches through (for doorbell delivery,
    /// metrics and crash scheduling by device emulations built on top).
    pub fn kernel(&self) -> &Arc<Kernel> {
        &self.kernel
    }

    /// The address space this view targets.
    pub fn vmspace(&self) -> ObjId {
        self.vmspace
    }
}

impl MemIo for HostIo {
    fn mem_read(&self, addr: u64, buf: &mut [u8]) -> Result<(), KernelError> {
        self.kernel.vm_read(self.vmspace, Vaddr(addr), buf)
    }
    fn mem_write(&self, addr: u64, data: &[u8]) -> Result<(), KernelError> {
        self.kernel.vm_write(self.vmspace, Vaddr(addr), data)
    }
    fn version(&self) -> u64 {
        self.kernel.pers.global_version()
    }
    fn flush(&self) {
        self.kernel.pers.dev.persist_barrier();
    }
    fn crash_hook(&self, site: &'static str) {
        self.kernel.pers.dev.crash_schedule().site(site);
    }
}

/// Configuration of one queue's ring pair.
#[derive(Debug, Clone, Copy)]
pub struct PortLayout {
    /// Request ring (host → server), in an eternal PMO.
    pub rx: RingLayout,
    /// Response ring (server → host), in an eternal PMO.
    pub tx: RingLayout,
    /// Address (in ordinary process memory) of the server's RX read
    /// cursor — deliberately *not* eternal so it rolls back with the
    /// server state.
    pub rx_cursor_addr: u64,
}
