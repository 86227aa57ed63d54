//! The multi-queue virtual NIC with commit-gated TX.
//!
//! A [`VirtualNic`] owns N queues, each a pair of version-tagged rings in
//! eternal PMOs (RX requests in, TX responses out) plus a doorbell
//! notification (the virtual MSI vector) that wakes the queue's server
//! thread. The host side plays the external clients and the DMA engine;
//! the SLS side runs one poll-mode server loop per queue (see
//! [`crate::runtime`]).
//!
//! External synchrony (§5 of the paper) is enforced *per NIC, per
//! commit*: when a checkpoint commits, the checkpoint callback advances
//! every queue's `visible_writer` and then issues **one** persistence
//! barrier — the cross-queue visibility barrier. No response on any queue
//! is released to a client before the checkpoint covering its producing
//! state is durable. On restore the callback truncates every queue's
//! rolled-back responses under a single barrier and uniformly re-arms the
//! doorbell of every queue with undrained requests (the interrupt edge
//! died with the power; the eternal RX contents did not).
//!
//! Admission control is a per-queue credit budget bounding the *server's
//! unconsumed RX backlog*: a queue whose server is `credits` requests
//! behind sheds new work with an explicit [`NetError::Busy`] instead of
//! queueing unboundedly. Credits are consumed at admission and
//! re-derived from the ring itself (`rx_writer − rx_cursor`) at every
//! pump, commit barrier and doorbell re-arm — a request stops holding a
//! credit as soon as the server has consumed it, not only when its
//! commit-gated response finally drains, so checkpoint latency never
//! eats the admission budget.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use treesls_checkpoint::CkptCallback;
use treesls_extsync::port::{HostIo, PortLayout};
use treesls_extsync::ring::{self, hdr, MemIo, RingError, RingLayout};
use treesls_kernel::types::{KernelError, ObjId};
use treesls_kernel::Kernel;

use crate::fault::{FaultState, NetFaultConfig, Perturbation};
use crate::flow::queue_for;
use crate::repl::ReleaseGate;

/// Behavioural configuration of a NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NicConfig {
    /// Number of queues (ring pairs + doorbells + server loops).
    pub queues: usize,
    /// Slots per ring.
    pub nslots: u64,
    /// Bytes per slot (including the slot header).
    pub slot_size: u64,
    /// Per-queue admission budget: requests admitted beyond this while
    /// the server's RX backlog has not drained are shed with
    /// [`NetError::Busy`].
    pub credits: u64,
    /// Whether TX visibility is gated on checkpoint commits.
    pub ext_sync: bool,
    /// Wire perturbation model (defaults to a perfect wire).
    pub fault: NetFaultConfig,
    /// Overall deadline for [`VirtualNic::call_checked`]: past it the
    /// call surfaces [`CallError::TimedOut`] instead of retrying forever
    /// (clients of a dead or failed-over primary must give up and move).
    pub call_timeout: Duration,
}

impl Default for NicConfig {
    fn default() -> Self {
        Self {
            queues: 1,
            nslots: 256,
            slot_size: 1280,
            credits: 8,
            ext_sync: true,
            fault: NetFaultConfig::default(),
            call_timeout: Duration::from_secs(5),
        }
    }
}

/// Placement of a NIC's rings and cursors inside the service's address
/// space.
///
/// Queue `q`'s ring pair occupies `[ring_base + q·2·ring_len, …)` (RX then
/// TX, each padded to whole pages) in an *eternal* PMO; its RX cursor
/// lives at `cursor_base + q·cursor_stride` in ordinary rolled-back
/// memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NicLayout {
    /// Base address of queue 0's RX ring (eternal, page-aligned).
    pub ring_base: u64,
    /// Address of queue 0's RX cursor (ordinary process memory).
    pub cursor_base: u64,
    /// Byte stride between consecutive queues' cursors.
    pub cursor_stride: u64,
    /// Slots per ring.
    pub nslots: u64,
    /// Bytes per slot.
    pub slot_size: u64,
    /// Number of queues.
    pub queues: usize,
}

impl NicLayout {
    /// Derives the placement from a config, ring base and cursor placement.
    pub fn new(cfg: &NicConfig, ring_base: u64, cursor_base: u64, cursor_stride: u64) -> Self {
        Self {
            ring_base,
            cursor_base,
            cursor_stride,
            nslots: cfg.nslots,
            slot_size: cfg.slot_size,
            queues: cfg.queues,
        }
    }

    /// Bytes one ring occupies, padded to whole pages.
    pub fn ring_len(&self) -> u64 {
        (hdr::SIZE + self.nslots * self.slot_size).div_ceil(4096) * 4096
    }

    /// Total bytes of the ring region (all queues, RX + TX).
    pub fn span(&self) -> u64 {
        self.queues as u64 * 2 * self.ring_len()
    }

    /// The ring pair and cursor of queue `q`.
    pub fn port(&self, q: usize) -> PortLayout {
        debug_assert!(q < self.queues);
        let rl = self.ring_len();
        let base = self.ring_base + q as u64 * 2 * rl;
        PortLayout {
            rx: RingLayout { base, nslots: self.nslots, slot_size: self.slot_size },
            tx: RingLayout { base: base + rl, nslots: self.nslots, slot_size: self.slot_size },
            rx_cursor_addr: self.cursor_base + q as u64 * self.cursor_stride,
        }
    }
}

/// Errors surfaced to NIC clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// Admission control shed the request (credit budget exhausted or the
    /// RX ring is full). Retryable; the server state is untouched.
    Busy,
    /// A non-retryable ring failure (corruption, bad memory access).
    Ring(RingError),
}

/// Outcome of a blocking [`VirtualNic::call`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallOutcome {
    /// The response payload.
    Reply(Vec<u8>),
    /// Shed by admission control before entering the system.
    Busy,
    /// No response within the deadline (the request is abandoned; a late
    /// duplicate response is dropped by the host dedup).
    TimedOut,
}

impl CallOutcome {
    /// The payload, if the call got a reply.
    pub fn reply(self) -> Option<Vec<u8>> {
        match self {
            CallOutcome::Reply(p) => Some(p),
            _ => None,
        }
    }
}

/// Error surfaced by [`VirtualNic::call_checked`]: the fallible variant
/// of [`CallOutcome`] that client fleets can propagate with `?` instead
/// of looping on an outcome enum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallError {
    /// Shed by admission control (credits exhausted, ring full, or the
    /// release gate is degraded). Retryable after backoff.
    Busy,
    /// No response within the NIC's configured `call_timeout`.
    TimedOut,
    /// The NIC was closed (its system stopped or failed over); no
    /// response will ever arrive. Move to the new primary.
    Closed,
    /// Non-retryable ring failure.
    Ring(RingError),
}

/// A request awaiting its response, keyed by NIC-global sequence number.
#[derive(Debug)]
struct Pending {
    queue: usize,
    resp: Option<Vec<u8>>,
}

/// Host-side per-queue state.
#[derive(Debug)]
struct QueueState {
    /// Doorbell notification (virtual MSI vector) of this queue.
    doorbell: Mutex<Option<ObjId>>,
    /// Credit consumption: an over-approximation of the server's
    /// unconsumed RX backlog, bumped at admission and clamped back down
    /// to the observed `rx_writer − rx_cursor` by
    /// [`VirtualNic::resync_credits`].
    inflight: AtomicU64,
    /// TX writer snapshot taken by `on_epoch` inside the checkpoint's
    /// stop window; `u64::MAX` when no round is in flight. Caps the
    /// commit barrier's visibility advance so responses produced *after*
    /// the epoch flip wait for the commit that covers their producing
    /// state.
    epoch_tx_writer: AtomicU64,
    /// RX cursor sample taken at the previous checkpoint (or, after a
    /// restore, the restored cursor); a lower bound on the
    /// *checkpointed* cursor, so those request slots are safe to release
    /// for reuse.
    prev_cursor_sample: AtomicU64,
    /// Serializes RX-ring appends: `ring::push` is read-modify-write on
    /// the writer header, and concurrent client threads landing on the
    /// same queue would otherwise claim the same slot (one request
    /// silently overwritten, its caller stuck until timeout).
    dma: Mutex<()>,
}

/// A packet sitting on the emulated wire (reorder window).
#[derive(Debug)]
struct WirePacket {
    queue: usize,
    seq: u64,
    data: Vec<u8>,
}

/// The multi-queue virtual NIC (see the module docs).
pub struct VirtualNic {
    io: HostIo,
    layout: NicLayout,
    ext_sync: AtomicBool,
    credits: u64,
    call_timeout: Duration,
    next_seq: AtomicU64,
    pending: Mutex<HashMap<u64, Pending>>,
    cv: Condvar,
    pump_lock: Mutex<()>,
    queues: Vec<QueueState>,
    fault: Option<FaultState>,
    wire: Mutex<VecDeque<WirePacket>>,
    /// Set when the NIC's system is stopped or failed over: blocked
    /// callers unblock immediately instead of burning their full timeout
    /// against a primary that will never answer.
    closed: AtomicBool,
    /// Optional replication gate: bounds commit-time TX visibility to
    /// rounds durable on a quorum and sheds writes while degraded.
    gate: Mutex<Option<Arc<dyn ReleaseGate>>>,
}

impl VirtualNic {
    /// Creates a NIC and initializes every queue's rings and cursor.
    pub fn new(
        kernel: Arc<Kernel>,
        vmspace: ObjId,
        layout: NicLayout,
        cfg: &NicConfig,
    ) -> Result<Arc<Self>, KernelError> {
        let io = HostIo::new(kernel, vmspace);
        for q in 0..layout.queues {
            let port = layout.port(q);
            ring::init(&io, &port.rx)?;
            ring::init(&io, &port.tx)?;
            io.mem_write_u64(port.rx_cursor_addr, 0)?;
        }
        Ok(Self::from_io(io, layout, cfg))
    }

    /// Reattaches to existing rings after a restore, *without*
    /// reinitializing them — the rings are eternal and their contents must
    /// survive; the restore callback does the reconciliation.
    ///
    /// `next_seq` must be beyond any previously used sequence number so
    /// retransmitted and fresh requests never collide.
    pub fn attach(
        kernel: Arc<Kernel>,
        vmspace: ObjId,
        layout: NicLayout,
        cfg: &NicConfig,
        next_seq: u64,
    ) -> Arc<Self> {
        let nic = Self::from_io(HostIo::new(kernel, vmspace), layout, cfg);
        nic.next_seq.store(next_seq, Ordering::SeqCst);
        nic
    }

    fn from_io(io: HostIo, layout: NicLayout, cfg: &NicConfig) -> Arc<Self> {
        debug_assert_eq!(layout.queues, cfg.queues);
        let queues = (0..layout.queues)
            .map(|_| QueueState {
                doorbell: Mutex::new(None),
                inflight: AtomicU64::new(0),
                epoch_tx_writer: AtomicU64::new(u64::MAX),
                prev_cursor_sample: AtomicU64::new(0),
                dma: Mutex::new(()),
            })
            .collect();
        Arc::new(Self {
            io,
            layout,
            ext_sync: AtomicBool::new(cfg.ext_sync),
            credits: cfg.credits.max(1),
            call_timeout: cfg.call_timeout,
            next_seq: AtomicU64::new(1),
            pending: Mutex::new(HashMap::new()),
            cv: Condvar::new(),
            pump_lock: Mutex::new(()),
            queues,
            fault: cfg.fault.is_active().then(|| FaultState::new(cfg.fault)),
            wire: Mutex::new(VecDeque::new()),
            closed: AtomicBool::new(false),
            gate: Mutex::new(None),
        })
    }

    /// The NIC's ring/cursor placement (e.g. to re-attach after restore).
    pub fn layout(&self) -> NicLayout {
        self.layout
    }

    /// The ring pair of queue `q` (for tests and direct ring inspection).
    pub fn port(&self, q: usize) -> PortLayout {
        self.layout.port(q)
    }

    /// Number of queues.
    pub fn queues(&self) -> usize {
        self.layout.queues
    }

    /// The queue flow `flow` is steered to.
    pub fn queue_for(&self, flow: u64) -> usize {
        queue_for(flow, self.layout.queues)
    }

    /// Binds the doorbell notification of queue `q`.
    pub fn set_doorbell(&self, q: usize, notif: ObjId) {
        *self.queues[q].doorbell.lock() = Some(notif);
    }

    /// Enables or disables commit-gated TX visibility.
    pub fn set_ext_sync(&self, on: bool) {
        self.ext_sync.store(on, Ordering::SeqCst);
    }

    /// Installs (or clears) the replication release gate consulted at
    /// admission and at every commit barrier.
    pub fn set_release_gate(&self, gate: Option<Arc<dyn ReleaseGate>>) {
        *self.gate.lock() = gate;
    }

    /// Marks the NIC closed (system stopped / failed over) and wakes every
    /// blocked caller so they fail fast instead of waiting out a timeout
    /// against a dead primary.
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        self.cv.notify_all();
    }

    /// Whether [`Self::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    /// Whether TX visibility is gated on checkpoint commits.
    pub fn ext_sync(&self) -> bool {
        self.ext_sync.load(Ordering::SeqCst)
    }

    /// The committed global checkpoint version (for external-synchrony
    /// oracles: a response must never be observed at a version ≤ the one
    /// current when its request was sent).
    pub fn committed_version(&self) -> u64 {
        self.io.version()
    }

    fn metrics(&self) -> &treesls_obs::MetricsRegistry {
        &self.io.kernel().metrics
    }

    /// Sends a request on the queue its flow hashes to; returns the
    /// sequence number to await.
    pub fn send_request(&self, flow: u64, data: &[u8]) -> Result<u64, NetError> {
        self.send_to_queue(self.queue_for(flow), data)
    }

    /// Sends a request on an explicit queue (tests steering specific
    /// queues; production traffic goes through [`Self::send_request`]).
    pub fn send_to_queue(&self, q: usize, data: &[u8]) -> Result<u64, NetError> {
        assert!(q < self.layout.queues, "queue {q} out of range");
        // Replication admission: while the quorum is lost the gate sheds
        // new state-mutating work (reads stay admitted — their responses
        // simply wait behind the durability bound).
        if let Some(gate) = self.gate.lock().clone() {
            if !gate.admit(data) {
                self.metrics().record_net_shed();
                return Err(NetError::Busy);
            }
        }
        let credits = self.credits;
        if self.queues[q]
            .inflight
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |c| (c < credits).then_some(c + 1))
            .is_err()
        {
            self.metrics().record_net_shed();
            return Err(NetError::Busy);
        }
        let seq = self.next_seq.fetch_add(1, Ordering::SeqCst);
        self.pending.lock().insert(seq, Pending { queue: q, resp: None });
        self.metrics().record_net_request();
        match self.transmit(q, seq, data) {
            Ok(()) => Ok(seq),
            Err(e) => {
                self.abandon(seq);
                if e == NetError::Busy {
                    self.metrics().record_net_shed();
                }
                Err(e)
            }
        }
    }

    /// Retransmits a still-unanswered request (same sequence number, so a
    /// duplicate arrival is re-processed idempotently and deduplicated on
    /// response). Returns `false` if the request is no longer pending.
    pub fn retransmit(&self, seq: u64, data: &[u8]) -> Result<bool, NetError> {
        let q = {
            let pending = self.pending.lock();
            match pending.get(&seq) {
                Some(p) if p.resp.is_none() => p.queue,
                _ => return Ok(false),
            }
        };
        self.transmit(q, seq, data)?;
        Ok(true)
    }

    /// Runs one packet through the wire model and (maybe) into the RX
    /// ring.
    fn transmit(&self, q: usize, seq: u64, data: &[u8]) -> Result<(), NetError> {
        match self.fault.as_ref().map(|f| f.next()).unwrap_or(Perturbation::Deliver) {
            Perturbation::Drop => {
                // Lost on the wire; the client's retransmission recovers.
                self.metrics().record_net_faults(1, 0, 0);
                Ok(())
            }
            Perturbation::Duplicate => {
                self.metrics().record_net_faults(0, 1, 0);
                self.enqueue_wire(q, seq, data)?;
                // The second copy is best-effort: a duplicate that finds
                // the ring full is simply lost, which is indistinguishable
                // from it never having been duplicated.
                let _ = self.enqueue_wire(q, seq, data);
                Ok(())
            }
            Perturbation::Deliver => self.enqueue_wire(q, seq, data),
        }
    }

    /// Hands a packet to the (possibly reordering) wire.
    fn enqueue_wire(&self, q: usize, seq: u64, data: &[u8]) -> Result<(), NetError> {
        let window = self.fault.as_ref().map(|f| f.cfg().reorder_window).unwrap_or(0);
        if window <= 1 {
            return self.deliver(q, seq, data);
        }
        let release = {
            let mut wire = self.wire.lock();
            wire.push_back(WirePacket { queue: q, seq, data: data.to_vec() });
            if wire.len() >= window {
                let idx = self.fault.as_ref().map(|f| f.pick(wire.len())).unwrap_or(0);
                if idx != 0 {
                    self.metrics().record_net_faults(0, 0, 1);
                }
                wire.remove(idx)
            } else {
                None
            }
        };
        match release {
            Some(p) => self.deliver(p.queue, p.seq, &p.data),
            None => Ok(()),
        }
    }

    /// Drains the reorder window onto the rings (in seeded-permuted
    /// order). Called by timed-out/retrying clients and by quiescing
    /// scenarios so no packet is stranded on the wire.
    pub fn flush_wire(&self) {
        loop {
            let pkt = {
                let mut wire = self.wire.lock();
                if wire.is_empty() {
                    return;
                }
                let idx = self.fault.as_ref().map(|f| f.pick(wire.len())).unwrap_or(0);
                if idx != 0 {
                    self.metrics().record_net_faults(0, 0, 1);
                }
                wire.remove(idx)
            };
            if let Some(p) = pkt {
                if self.deliver(p.queue, p.seq, &p.data).is_err() {
                    // A full ring at flush time loses the packet, exactly
                    // like a wire drop; the retransmission recovers it.
                    self.metrics().record_net_faults(1, 0, 0);
                }
            }
        }
    }

    /// DMAs a packet into queue `q`'s RX ring and rings its doorbell.
    fn deliver(&self, q: usize, seq: u64, data: &[u8]) -> Result<(), NetError> {
        let port = self.layout.port(q);
        let _dma = self.queues[q].dma.lock();
        match ring::push(&self.io, &port.rx, seq, data) {
            Ok(_) => {
                if let Some(n) = *self.queues[q].doorbell.lock() {
                    let _ = self.io.kernel().signal_object(n);
                }
                Ok(())
            }
            Err(RingError::Full) => Err(NetError::Busy),
            Err(e) => Err(NetError::Ring(e)),
        }
    }

    /// Drains visible responses from every queue's TX ring into the
    /// pending map (one "NIC interrupt" worth of work). Safe to call
    /// concurrently.
    pub fn pump(&self) {
        let _g = self.pump_lock.lock();
        let limit = if self.ext_sync() { hdr::VISIBLE_WRITER } else { hdr::WRITER };
        let mut any = false;
        for q in 0..self.layout.queues {
            let port = self.layout.port(q);
            while let Ok(Some(msg)) = ring::pop_below(&self.io, &port.tx, limit) {
                let mut pending = self.pending.lock();
                // Duplicate responses (server re-processed after restore,
                // or a duplicated request) hit an absent or fulfilled
                // entry and are dropped.
                if let Some(p) = pending.get_mut(&msg.seq) {
                    if p.resp.is_none() {
                        p.resp = Some(msg.payload);
                        any = true;
                    }
                }
            }
            // Return credits for everything the server has consumed by
            // now — with commit-gated TX the response drain above lags a
            // whole checkpoint interval behind consumption, and holding
            // credits that long starves admission at steady load.
            self.resync_credits(q);
            // Release consumed TX slots for reuse.
            if let Ok(reader) = ring::header(&self.io, &port.tx, hdr::READER) {
                self.publish_ack(&port.tx, reader);
            }
            // Without external synchrony no durability is promised for
            // requests, so consumed RX slots are released eagerly (with
            // ext-sync the checkpoint callback does this conservatively).
            if !self.ext_sync() {
                if let Ok(cursor) = self.io.mem_read_u64(port.rx_cursor_addr) {
                    self.publish_ack(&port.rx, cursor);
                }
            }
        }
        if any {
            self.cv.notify_all();
        }
    }

    /// Publishes `value` as `ring`'s ACK header unless it already holds
    /// it: a spin-polling host and an idle queue's checkpoint callback
    /// would otherwise pay one persistent 8 B store per call to rewrite
    /// the same number.
    fn publish_ack(&self, ring: &RingLayout, value: u64) {
        if ring::header(&self.io, ring, hdr::ACK).ok() != Some(value) {
            let _ = ring::set_header(&self.io, ring, hdr::ACK, value);
        }
    }

    /// Takes a fulfilled response without blocking.
    pub fn try_take(&self, seq: u64) -> Option<Vec<u8>> {
        let mut pending = self.pending.lock();
        match pending.get(&seq) {
            Some(p) if p.resp.is_some() => pending.remove(&seq).and_then(|p| p.resp),
            _ => None,
        }
    }

    /// Abandons a pending request (timeout): removes the entry. Its
    /// credit is not returned here — credits track the server backlog and
    /// are re-derived from the ring at the next resync point, which also
    /// reclaims the credit of a request lost on the wire (one that never
    /// reached the ring at all).
    pub fn abandon(&self, seq: u64) {
        self.pending.lock().remove(&seq);
    }

    /// Clamps queue `q`'s credit consumption down to the server's actual
    /// unconsumed RX backlog (`rx_writer − rx_cursor`).
    ///
    /// The admission increment over-approximates: requests the server has
    /// already consumed (but whose responses await a commit), and
    /// requests dropped on the wire, keep holding a credit. Re-deriving
    /// the count from the ring headers returns those credits; the clamp
    /// only ever lowers the counter, so it never races an admission into
    /// a negative balance.
    fn resync_credits(&self, q: usize) {
        let port = self.layout.port(q);
        if let (Ok(writer), Ok(cursor)) = (
            ring::header(&self.io, &port.rx, hdr::WRITER),
            self.io.mem_read_u64(port.rx_cursor_addr),
        ) {
            let backlog = writer.saturating_sub(cursor);
            let _ = self.queues[q].inflight.fetch_update(
                Ordering::SeqCst,
                Ordering::SeqCst,
                |c| (c > backlog).then_some(backlog),
            );
        }
    }

    /// Sends a request on its flow's queue and waits for the response.
    ///
    /// Sheds surface as [`CallOutcome::Busy`] without blocking. On a lossy
    /// wire the call periodically flushes the reorder window and
    /// retransmits (same sequence number — safe against duplication).
    pub fn call(
        &self,
        flow: u64,
        data: &[u8],
        timeout: Duration,
    ) -> Result<CallOutcome, RingError> {
        let seq = match self.send_request(flow, data) {
            Ok(s) => s,
            Err(NetError::Busy) => return Ok(CallOutcome::Busy),
            Err(NetError::Ring(e)) => return Err(e),
        };
        let deadline = Instant::now() + timeout;
        let lossy = self.fault.is_some();
        // Exponential poll backoff (50 µs → 1 ms): commit-gated replies
        // arrive at checkpoint cadence, and a fleet of callers spinning at
        // a fixed fine grain can starve the cores that produce the very
        // responses they poll for.
        let mut wait = Duration::from_micros(50);
        // Deterministic per-call jitter (xorshift seeded from the sequence
        // number): every caller capping at exactly 1 ms otherwise phase-
        // locks the fleet into synchronized poll bursts at commit cadence,
        // and the caller that keeps missing the commit edge by a hair
        // pays a full extra period at the tail.
        let mut rng = seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut since_recovery = Duration::ZERO;
        loop {
            self.pump();
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            // Sleep in [wait, 1.5·wait).
            let sleep =
                wait + Duration::from_nanos(wait.as_nanos() as u64 * ((rng >> 33) % 512) / 1024);
            {
                let mut pending = self.pending.lock();
                if pending.get(&seq).is_some_and(|p| p.resp.is_some()) {
                    return Ok(CallOutcome::Reply(
                        pending.remove(&seq).and_then(|p| p.resp).unwrap_or_default(),
                    ));
                }
                if self.is_closed() || Instant::now() >= deadline {
                    drop(pending);
                    self.abandon(seq);
                    return Ok(CallOutcome::TimedOut);
                }
                self.cv.wait_for(&mut pending, sleep);
            }
            since_recovery += sleep;
            wait = (wait * 2).min(Duration::from_millis(1));
            // ~2ms between recovery attempts on a faulty wire.
            if lossy && since_recovery >= Duration::from_millis(2) {
                since_recovery = Duration::ZERO;
                self.flush_wire();
                let _ = self.retransmit(seq, data);
            }
        }
    }

    /// [`Self::call`] with the NIC's *configured* overall timeout and a
    /// fallible result: sheds are `Err(Busy)`, expiry is `Err(TimedOut)`,
    /// and a closed NIC (stopped or failed-over primary) is
    /// `Err(Closed)` — the signal for a client to move to the promoted
    /// replica instead of retrying here forever.
    pub fn call_checked(&self, flow: u64, data: &[u8]) -> Result<Vec<u8>, CallError> {
        if self.is_closed() {
            return Err(CallError::Closed);
        }
        match self.call(flow, data, self.call_timeout) {
            Ok(CallOutcome::Reply(p)) => Ok(p),
            Ok(CallOutcome::Busy) => Err(CallError::Busy),
            Ok(CallOutcome::TimedOut) => {
                if self.is_closed() {
                    Err(CallError::Closed)
                } else {
                    Err(CallError::TimedOut)
                }
            }
            Err(e) => Err(CallError::Ring(e)),
        }
    }

    /// Number of requests awaiting responses across all queues.
    pub fn in_flight(&self) -> usize {
        self.pending.lock().values().filter(|p| p.resp.is_none()).count()
    }

    /// Point-in-time cursor/header snapshot of queue `q` (host-side
    /// observability; all values are free-running counts).
    pub fn queue_stats(&self, q: usize) -> QueueStats {
        let port = self.layout.port(q);
        QueueStats {
            rx_cursor: self.io.mem_read_u64(port.rx_cursor_addr).unwrap_or(0),
            rx_writer: ring::header(&self.io, &port.rx, hdr::WRITER).unwrap_or(0),
            rx_ack: ring::header(&self.io, &port.rx, hdr::ACK).unwrap_or(0),
            tx_writer: ring::header(&self.io, &port.tx, hdr::WRITER).unwrap_or(0),
            tx_visible: ring::header(&self.io, &port.tx, hdr::VISIBLE_WRITER).unwrap_or(0),
            tx_reader: ring::header(&self.io, &port.tx, hdr::READER).unwrap_or(0),
            tx_ack: ring::header(&self.io, &port.tx, hdr::ACK).unwrap_or(0),
            credits_used: self.queues[q].inflight.load(Ordering::SeqCst),
        }
    }
}

/// Snapshot of one queue's ring positions (see
/// [`VirtualNic::queue_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Server-side RX consumption cursor (rolled-back memory).
    pub rx_cursor: u64,
    /// Eternal RX producer count.
    pub rx_writer: u64,
    /// RX slots released for reuse.
    pub rx_ack: u64,
    /// Eternal TX producer count.
    pub tx_writer: u64,
    /// Commit-gated TX visibility bound.
    pub tx_visible: u64,
    /// Host-side TX consumption cursor.
    pub tx_reader: u64,
    /// TX slots released for reuse.
    pub tx_ack: u64,
    /// Admission credits currently held by in-flight requests.
    pub credits_used: u64,
}

impl CkptCallback for VirtualNic {
    fn on_epoch(&self, _version: u64) {
        // Inside the stop window: snapshot every queue's TX writer —
        // this is the commit barrier's TX cut. Under the default
        // epoch-concurrent flip NO server parks: every core keeps
        // producing responses through the copy phase (their first
        // conflicting writes self-capture the flip image), and a
        // response appended after this cut was produced by state the
        // *next* checkpoint covers — so the commit barrier below must
        // not release it (the snapshot is the cap). The cut is sound
        // because this callback runs inside the grace-held flip window:
        // pre-arm steps have finished and post-arm steps are held at
        // their first write until the seal, so no ring append lands
        // between this read and the flip. Under full quiescence nothing
        // runs between here and the commit, so the cap is exactly the
        // barrier-time writer.
        for q in 0..self.layout.queues {
            let port = self.layout.port(q);
            if let Ok(w) = ring::header(&self.io, &port.tx, hdr::WRITER) {
                self.queues[q].epoch_tx_writer.store(w, Ordering::SeqCst);
            }
        }
    }

    fn on_checkpoint(&self, version: u64) {
        let kernel = self.io.kernel();
        treesls_nvm::crash_site!(kernel.pers.dev.crash_schedule(), "net.pre_barrier");
        // Replication durability bound: with a gate installed, responses
        // are only released up to the round durable on a quorum of
        // replicas, never merely up to the local commit. The shipper's
        // callback runs *before* this one (registered at the front), so
        // by now `release_bound` reflects this round's replication fate.
        let bound = match self.gate.lock().clone() {
            Some(g) => g.release_bound(version),
            None => version,
        };
        let mut released = 0u64;
        let mut lag_max = 0u64;
        let mut lag_sum = 0u64;
        let mut tx_depth = 0u64;
        let mut rx_occ = 0u64;
        let mut tx_occ = 0u64;
        let mut stale_bells = Vec::new();
        for q in 0..self.layout.queues {
            let port = self.layout.port(q);
            // Release responses whose producing state is now persistent —
            // unfenced: all queues share the single barrier below. The
            // advance is capped at the TX writer snapshotted inside the
            // pause (`on_epoch`): responses appended after the pause by
            // still-running clean cores wait for the next commit.
            let cap = self.queues[q].epoch_tx_writer.swap(u64::MAX, Ordering::SeqCst);
            let before =
                ring::header(&self.io, &port.tx, hdr::VISIBLE_WRITER).unwrap_or(0);
            let visible =
                ring::advance_visible_capped_unfenced(&self.io, &port.tx, bound, cap)
                    .unwrap_or(before);
            released += visible.saturating_sub(before);
            // Double-buffered RX acknowledgement: the cursor sampled at
            // the *previous* checkpoint is ≤ the cursor captured by this
            // commit, so those request slots can never be needed again.
            if let Ok(cursor) = self.io.mem_read_u64(port.rx_cursor_addr) {
                let prev = self.queues[q].prev_cursor_sample.swap(cursor, Ordering::SeqCst);
                self.publish_ack(&port.rx, prev);
            }
            // Commit-time credit replenishment: everything the server
            // consumed during the interval stops holding admission
            // credits now, not when its response eventually drains.
            self.resync_credits(q);
            if let (Ok(writer), Ok(ack)) = (
                ring::header(&self.io, &port.tx, hdr::WRITER),
                ring::header(&self.io, &port.tx, hdr::ACK),
            ) {
                let lag = writer.saturating_sub(visible);
                let depth = writer.saturating_sub(ack);
                lag_max = lag_max.max(lag);
                lag_sum += lag;
                tx_depth += depth;
                tx_occ = tx_occ.max(depth);
            }
            if let (Ok(w), Ok(a)) = (
                ring::header(&self.io, &port.rx, hdr::WRITER),
                ring::header(&self.io, &port.rx, hdr::ACK),
            ) {
                rx_occ = rx_occ.max(w.saturating_sub(a));
                // Doorbell-coalescing watchdog: a cursor trailing the
                // writer means undelivered requests. Normally the pending
                // interrupt covers them, but a wake edge lost to a racing
                // drain would strand the queue until the next request —
                // re-ringing here is idempotent and bounds the stall to
                // one checkpoint interval.
                if let Ok(cursor) = self.io.mem_read_u64(port.rx_cursor_addr) {
                    if cursor < w {
                        if let Some(n) = *self.queues[q].doorbell.lock() {
                            stale_bells.push(n);
                        }
                    }
                }
            }
        }
        treesls_nvm::crash_site!(kernel.pers.dev.crash_schedule(), "net.pre_barrier_flush");
        // The cross-queue visibility barrier: one fence makes every
        // queue's new visibility bound durable together.
        self.io.flush();
        kernel.metrics.record_ring_publish();
        kernel.metrics.set_ring_gauges(tx_depth, lag_sum);
        kernel.metrics.record_net_barrier(lag_max, lag_sum, rx_occ, tx_occ);
        kernel.pers.recorder().record(
            treesls_obs::EventKind::NetBarrier,
            [version, self.layout.queues as u64, released, lag_max, lag_sum, tx_depth],
        );
        kernel.signal_objects(&stale_bells);
        self.cv.notify_all();
    }

    fn on_restore(&self, version: u64) {
        let kernel = self.io.kernel();
        treesls_nvm::crash_site!(kernel.pers.dev.crash_schedule(), "net.pre_restore");
        // Discard responses produced by the rolled-back interval on every
        // queue (the restored servers will re-produce them), then one
        // barrier before the system resumes producing into those slots.
        let mut truncated = 0u64;
        for q in 0..self.layout.queues {
            let port = self.layout.port(q);
            let before = ring::header(&self.io, &port.tx, hdr::WRITER).unwrap_or(0);
            let after = ring::truncate_uncommitted_unfenced(&self.io, &port.tx, version)
                .unwrap_or(before);
            truncated += before.saturating_sub(after);
            // Seed the cursor sample with the restored cursor: it comes
            // from the committed image, so its slots are never needed
            // again, and it is ≥ every `ACK` published before the crash.
            // A zero sample would move `ACK` back to 0 at the next
            // commit and the ring would read as full for a round.
            let cursor = self.io.mem_read_u64(port.rx_cursor_addr).unwrap_or(0);
            self.queues[q].prev_cursor_sample.store(cursor, Ordering::SeqCst);
        }
        self.io.flush();
        // Uniform doorbell re-arm: every queue whose restored cursor
        // trails its eternal RX writer had requests queued when power
        // failed. The interrupt edge died with the power; without a
        // replay those servers would sleep on undelivered requests until
        // a fresh request happened to arrive.
        let mut bells = Vec::new();
        let mut rearmed = 0u64;
        for q in 0..self.layout.queues {
            let port = self.layout.port(q);
            if let (Ok(cursor), Ok(writer)) = (
                self.io.mem_read_u64(port.rx_cursor_addr),
                ring::header(&self.io, &port.rx, hdr::WRITER),
            ) {
                if cursor < writer {
                    rearmed += 1;
                    if let Some(n) = *self.queues[q].doorbell.lock() {
                        bells.push(n);
                    }
                }
            }
            // The restored cursor defines the new true backlog; any epoch
            // snapshot from a round that died with the power is stale.
            self.queues[q].epoch_tx_writer.store(u64::MAX, Ordering::SeqCst);
            self.resync_credits(q);
        }
        treesls_nvm::crash_site!(kernel.pers.dev.crash_schedule(), "net.pre_rearm");
        kernel.signal_objects(&bells);
        kernel.metrics.record_net_rearm(rearmed);
        kernel.pers.recorder().record(
            treesls_obs::EventKind::NetRearm,
            [version, self.layout.queues as u64, rearmed, truncated, 0, 0],
        );
        self.cv.notify_all();
    }
}

impl std::fmt::Debug for VirtualNic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VirtualNic")
            .field("queues", &self.layout.queues)
            .field("ext_sync", &self.ext_sync())
            .field("in_flight", &self.in_flight())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_region_is_page_aligned_and_disjoint() {
        let cfg = NicConfig { queues: 4, nslots: 8, slot_size: 84, ..Default::default() };
        let layout = NicLayout::new(&cfg, 0x10_0000, 0x1000, 0x2000);
        assert_eq!(layout.ring_len() % 4096, 0);
        let mut spans: Vec<(u64, u64)> = Vec::new();
        for q in 0..4 {
            let p = layout.port(q);
            for ring in [p.rx, p.tx] {
                let s = (ring.base, ring.base + ring.byte_len());
                assert!(s.0 % 4096 == 0, "ring base not page aligned");
                for &(a, b) in &spans {
                    assert!(s.1 <= a || s.0 >= b, "rings overlap");
                }
                spans.push(s);
            }
            assert_eq!(p.rx_cursor_addr, 0x1000 + q as u64 * 0x2000);
        }
        assert_eq!(layout.span(), 4 * 2 * layout.ring_len());
    }

    #[test]
    fn call_outcome_reply_extraction() {
        assert_eq!(CallOutcome::Reply(vec![1]).reply(), Some(vec![1]));
        assert_eq!(CallOutcome::Busy.reply(), None);
        assert_eq!(CallOutcome::TimedOut.reply(), None);
    }
}
