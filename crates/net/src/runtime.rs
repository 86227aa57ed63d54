//! The poll-mode server runtime: one service loop per queue.
//!
//! A [`PollServer`] is the in-SLS half of a NIC queue — a re-entrant
//! step-machine program run by one server thread per queue, draining its
//! RX ring in batches and dispatching each request to a registered
//! [`Service`].
//! It is the DPDK-style shape: the loop *polls* while work is queued and
//! parks on the queue's doorbell notification (the virtual MSI) only when
//! the ring runs dry, so an idle queue costs no cycles. The NIC raises the
//! doorbell with a pending bit (`Kernel::signal_objects` drops a raise
//! while a signal is unconsumed and nobody waits), so a burst costs one
//! wake-up: the loop serves it in batches, then one step consumes the
//! pending signal and finds the ring dry, and the next parks.
//!
//! The data path is zero-copy and round-batched:
//!
//! * requests are read with [`ring::read_into`] into a per-queue scratch
//!   buffer and handed to the service as a borrowed `&[u8]` view — no
//!   per-request `Vec`;
//! * the TX header is read once per round ([`ring::read_header`]);
//! * responses are encoded by the service into a second reusable buffer
//!   and *staged* into TX slots with [`ring::stage_at`];
//! * the whole round is then released by ONE [`ring::publish`] — a single
//!   persistence barrier and a single writer store for up to `batch`
//!   responses, which the checkpoint callback later makes visible under
//!   the cross-queue commit barrier.
//!
//! Crash discipline: staged slots are unpublished until the writer store,
//! and the RX cursor advances only after the publish — so a crash at any
//! boundary re-serves the whole round (at-least-once) and the host dedups
//! duplicate responses by sequence number. The cursor lives in ordinary
//! rolled-back memory; the rings are eternal.

use parking_lot::Mutex;
use treesls_extsync::port::PortLayout;
use treesls_extsync::ring::{self, hdr, MemIo};
use treesls_kernel::program::{Program, StepOutcome, UserCtx};
use treesls_kernel::types::CapSlot;

/// Fatal service failure: the serving thread exits and the queue goes
/// dead (recoverable state stays in the eternal rings). Deliberately
/// opaque — protocol-level errors travel in the response payload, not
/// here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceError;

/// An application protocol served by a [`PollServer`].
///
/// Implementations live in `treesls-apps` (KV table, LSM tree); the
/// runtime stays protocol-agnostic. Handlers are zero-copy on both
/// sides: the request arrives as a borrowed view into the queue's
/// scratch buffer and the response is appended to a reusable output
/// buffer owned by the poll loop.
pub trait Service: Send + Sync + std::fmt::Debug {
    /// One-time in-SLS initialization (first boot only — a restored
    /// thread resumes past it and re-attaches inside [`Service::handle`]).
    fn init(&self, ctx: &mut UserCtx<'_>) -> Result<(), ServiceError>;

    /// Handles one request payload, appending the response payload to
    /// `out` (cleared by the caller before each request). `Err` is fatal
    /// and exits the serving thread.
    fn handle(
        &self,
        ctx: &mut UserCtx<'_>,
        payload: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), ServiceError>;
}

/// Register allocation of the poll loop (shared with `treesls-apps`
/// conventions: `DONE` counts served requests).
pub mod regs {
    /// Requests served so far.
    pub const DONE: usize = 2;
}

/// Reusable request/response buffers for one queue's poll loop: allocated
/// once, grown to the ring's payload capacity, reused every round.
#[derive(Debug, Default)]
pub struct Scratch {
    /// Request bytes read out of the RX ring ([`ring::read_into`]).
    pub req: Vec<u8>,
    /// Response bytes the service encodes into ([`Service::handle`]).
    pub resp: Vec<u8>,
}

/// One queue's poll-mode service loop (see the module docs).
#[derive(Debug)]
pub struct PollServer {
    /// The queue's ring pair and RX cursor.
    pub port: PortLayout,
    /// The application protocol behind this queue.
    pub service: std::sync::Arc<dyn Service>,
    /// Requests served per step (syscall-boundary granularity); also the
    /// maximum round size released per TX publish.
    pub batch: usize,
    /// Capability slot of the queue's doorbell notification.
    pub doorbell_slot: CapSlot,
    /// The queue index this loop serves (= the service shard it owns),
    /// used to attribute per-shard metrics.
    pub queue: usize,
    /// Per-queue scratch buffers (a `Mutex` only because `step` takes
    /// `&self`; the loop is single-threaded per queue, so the lock is
    /// always uncontended).
    pub scratch: Mutex<Scratch>,
}

impl Program for PollServer {
    fn step(&self, ctx: &mut UserCtx<'_>) -> StepOutcome {
        if ctx.pc() == 0 {
            if self.service.init(ctx).is_err() {
                return StepOutcome::Exited;
            }
            ctx.set_pc(1);
            return StepOutcome::Ready;
        }
        let mut scratch = self.scratch.lock();
        let Scratch { req, resp } = &mut *scratch;
        let Ok(cursor) = ctx.mem_read_u64(self.port.rx_cursor_addr) else {
            return StepOutcome::Exited;
        };
        let Ok(rx_writer) = ring::header(ctx, &self.port.rx, hdr::WRITER) else {
            return StepOutcome::Exited;
        };
        if cursor >= rx_writer {
            // Ring dry: park on the doorbell rather than spinning.
            return match ctx.notif_wait(self.doorbell_slot) {
                Ok(true) => StepOutcome::Ready, // re-check the ring
                Ok(false) => StepOutcome::Blocked,
                Err(_) => StepOutcome::Exited,
            };
        }
        // One round: the TX header is read once, every response is
        // staged against the snapshotted ack, and the batch is published
        // with a single flush + writer store.
        let Ok(tx) = ring::read_header(ctx, &self.port.tx) else {
            return StepOutcome::Exited;
        };
        let (tx_writer, tx_ack) = (tx.get(hdr::WRITER), tx.get(hdr::ACK));
        let budget = (rx_writer - cursor).min(self.batch.max(1) as u64);
        let mut staged = 0u64;
        let mut tx_full = false;
        while staged < budget {
            // Capacity check BEFORE handling, so a full TX ring never
            // applies a request whose response it cannot stage.
            let Some(in_use) = (tx_writer + staged).checked_sub(tx_ack) else {
                return StepOutcome::Exited; // corrupt header: ack ahead of writer
            };
            if in_use >= self.port.tx.nslots {
                tx_full = true;
                break;
            }
            let Ok(info) = ring::read_into(ctx, &self.port.rx, cursor + staged, req) else {
                return StepOutcome::Exited;
            };
            resp.clear();
            if self.service.handle(ctx, &req[..info.len], resp).is_err() {
                return StepOutcome::Exited;
            }
            if ring::stage_at(ctx, &self.port.tx, tx_writer + staged, tx_ack, info.seq, resp)
                .is_err()
            {
                return StepOutcome::Exited;
            }
            staged += 1;
        }
        if staged > 0 {
            // The batch's linearization point: one barrier, one store.
            if ring::publish(ctx, &self.port.tx, tx_writer + staged).is_err() {
                return StepOutcome::Exited;
            }
            // The responses are published (tagged, not yet visible) but
            // the cursor still points at the round's first request: a
            // crash here re-serves the whole round and the host drops the
            // duplicate responses by seq.
            ctx.crash_site("net.tx_published");
            if ctx.mem_write_u64(self.port.rx_cursor_addr, cursor + staged).is_err() {
                return StepOutcome::Exited;
            }
            let done = ctx.reg(regs::DONE);
            ctx.set_reg(regs::DONE, done + staged);
            ctx.metrics().record_net_batch(self.queue, staged);
        }
        if tx_full {
            // Published what fit; let consumers drain before retrying.
            return StepOutcome::Yielded;
        }
        StepOutcome::Ready
    }
}
