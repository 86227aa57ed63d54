//! Transparent external synchrony for TreeSLS (§5 of the paper).
//!
//! An SLS must make sure "the state changes caused by a request are
//! persisted before sending responses to external systems". With
//! millisecond checkpoints, TreeSLS achieves this *transparently*: the
//! driver delays externally visible operations until the checkpoint
//! covering their producing state commits, and applications need no
//! persistence code at all.
//!
//! * [`ring`] — version-tagged ring buffers in eternal PMOs, implementing
//!   the `reader` / `writer` / `visible_writer` discipline of Figure 8.
//! * [`port`] — the host-side DMA view ([`HostIo`]) and one queue's ring
//!   pair ([`PortLayout`]). The port *device* — multi-queue rings,
//!   doorbells, the commit-gated visibility barrier — is the
//!   `treesls-net` crate's `VirtualNic`, and its in-SLS serving loop is
//!   that crate's `PollServer`, both built on these primitives.
//! * [`wire`] — the bounds-checked byte cursor ([`Reader`] and the `put_*`
//!   writers) that the KV, transaction and replication codecs read and
//!   write ring-slot payloads through.
//! * [`heap`] — flat host memory ([`HeapMem`]): a [`MemIo`] over a plain
//!   buffer for host-side rings, baseline heaps and tests; and
//!   [`Counted`], which counts the `MemIo` calls a code path makes.

#![deny(missing_docs)]

pub mod heap;
pub mod port;
pub mod ring;
pub mod wire;

pub use heap::{Counted, HeapMem};
pub use port::{HostIo, PortLayout};
pub use ring::{check_ext_sync_invariants, MemIo, RingError, RingLayout, RingMsg, SlotInfo};
pub use wire::{Reader, WireError};

use treesls_kernel::program::UserCtx;
use treesls_kernel::types::KernelError;

impl MemIo for UserCtx<'_> {
    fn mem_read(&self, addr: u64, buf: &mut [u8]) -> Result<(), KernelError> {
        self.read(addr, buf)
    }
    fn mem_write(&self, addr: u64, data: &[u8]) -> Result<(), KernelError> {
        self.write(addr, data)
    }
    fn version(&self) -> u64 {
        self.global_version()
    }
    fn flush(&self) {
        // Under eADR this is free (the barrier no-ops); under ADR it
        // drains the ring stores so a crash cannot reorder a published
        // writer bump ahead of the slot contents. Baseline backends charge
        // their WAL-flush latency here instead.
        self.persist_barrier();
    }
    fn crash_hook(&self, site: &'static str) {
        self.crash_site(site);
    }
}
