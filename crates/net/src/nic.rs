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

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use treesls_checkpoint::CkptCallback;
use treesls_extsync::port::{HostIo, PortLayout};
use treesls_extsync::ring::{self, hdr, MemIo, RingError, RingLayout};
use treesls_kernel::types::{KernelError, ObjId};
use treesls_kernel::Kernel;

use crate::fault::{NetFaultConfig, Wire, WireEvent};
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
    /// RX cursor sampled by `on_epoch` next to `epoch_tx_writer` (or,
    /// after a restore, the restored cursor): the cursor of the image the
    /// next commit makes durable, so the commit releases those request
    /// slots for reuse.
    epoch_rx_cursor: AtomicU64,
    /// Serializes RX-ring appends: `ring::push` is read-modify-write on
    /// the writer header, and concurrent client threads landing on the
    /// same queue would otherwise claim the same slot (one request
    /// silently overwritten, its caller stuck until timeout).
    dma: Mutex<()>,
}

/// The multi-queue virtual NIC (see the module docs).
pub struct VirtualNic {
    io: HostIo,
    layout: NicLayout,
    ext_sync: bool,
    credits: u64,
    next_seq: AtomicU64,
    pending: Mutex<HashMap<u64, Pending>>,
    cv: Condvar,
    pump_lock: Mutex<()>,
    queues: Vec<QueueState>,
    /// The client → RX-ring wire; a packet's header is `(queue, seq)`.
    wire: Wire<(usize, u64)>,
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
                epoch_rx_cursor: AtomicU64::new(0),
                dma: Mutex::new(()),
            })
            .collect();
        Arc::new(Self {
            io,
            layout,
            ext_sync: cfg.ext_sync,
            credits: cfg.credits.max(1),
            next_seq: AtomicU64::new(1),
            pending: Mutex::new(HashMap::new()),
            cv: Condvar::new(),
            pump_lock: Mutex::new(()),
            queues,
            wire: Wire::new(cfg.fault),
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
        self.ext_sync
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
        self.wire.send((q, seq), data, |(q, seq), d| self.deliver(q, seq, d), |e| self.count(e))
    }

    /// Drains the reorder window onto the rings (in seeded-permuted
    /// order). Called by timed-out/retrying clients and by quiescing
    /// scenarios so no packet is stranded on the wire. A full ring at
    /// flush time loses the packet, exactly like a wire drop; the
    /// retransmission recovers it.
    pub fn flush_wire(&self) {
        self.wire.flush(|(q, seq), d| self.deliver(q, seq, d), |e| self.count(e));
    }

    /// Counts one wire fault into the metrics registry.
    fn count(&self, e: WireEvent) {
        match e {
            WireEvent::Dropped | WireEvent::Lost => self.metrics().record_net_faults(1, 0, 0),
            WireEvent::Duplicated => self.metrics().record_net_faults(0, 1, 0),
            WireEvent::Reordered => self.metrics().record_net_faults(0, 0, 1),
        }
    }

    /// DMAs a packet into queue `q`'s RX ring and rings its doorbell.
    ///
    /// The doorbell is raised through [`Kernel::signal_objects`], which
    /// drops a raise while an earlier one is still pending and nobody
    /// waits (the MSI pending bit): a burst of requests costs the server
    /// one wake-up, not one empty poll step per request. The push lands
    /// before the raise, and the server re-checks the ring after
    /// consuming the pending signal, so a dropped raise loses no request.
    fn deliver(&self, q: usize, seq: u64, data: &[u8]) -> Result<(), NetError> {
        let port = self.layout.port(q);
        let _dma = self.queues[q].dma.lock();
        match ring::push(&self.io, &port.rx, seq, data) {
            Ok(_) => {
                if let Some(n) = *self.queues[q].doorbell.lock() {
                    self.io.kernel().signal_objects(&[n]);
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
        let mut msgs = Vec::new();
        for q in 0..self.layout.queues {
            let port = self.layout.port(q);
            // One drain per queue: one header read, the slots, one
            // `READER` store. A corrupt slot ends it; the messages before
            // it are still delivered and their slots released below.
            let tx = ring::drain_below(&self.io, &port.tx, limit, u64::MAX, &mut msgs)
                .ok()
                .or_else(|| ring::read_header(&self.io, &port.tx).ok());
            if !msgs.is_empty() {
                let mut pending = self.pending.lock();
                for msg in msgs.drain(..) {
                    // Duplicate responses (server re-processed after
                    // restore, or a duplicated request) hit an absent or
                    // fulfilled entry and are dropped.
                    if let Some(p) = pending.get_mut(&msg.seq) {
                        if p.resp.is_none() {
                            p.resp = Some(msg.payload);
                            any = true;
                        }
                    }
                }
            }
            // Return credits for everything the server has consumed by
            // now — with commit-gated TX the response drain above lags a
            // whole checkpoint interval behind consumption, and holding
            // credits that long starves admission at steady load.
            let rx = ring::read_header(&self.io, &port.rx);
            let cursor = self.io.mem_read_u64(port.rx_cursor_addr);
            if let (Ok(rx), Ok(cursor)) = (rx, cursor) {
                self.resync_credits(q, rx.get(hdr::WRITER), cursor);
                // Without external synchrony no durability is promised
                // for requests, so consumed RX slots are released eagerly
                // (with ext-sync the checkpoint callback does this
                // conservatively).
                if !self.ext_sync() {
                    self.publish_ack(&port.rx, rx.get(hdr::ACK), cursor);
                }
            }
            // Release consumed TX slots for reuse.
            if let Some(tx) = tx {
                self.publish_ack(&port.tx, tx.get(hdr::ACK), tx.get(hdr::READER));
            }
        }
        if any {
            self.cv.notify_all();
        }
    }

    /// Publishes `value` as `ring`'s ACK header unless `held`, the ACK
    /// the caller just read, already equals it: a spin-polling host and
    /// an idle queue's checkpoint callback would otherwise pay one
    /// persistent 8 B store per call to rewrite the same number.
    fn publish_ack(&self, ring: &RingLayout, held: u64, value: u64) {
        if held != value {
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
    /// unconsumed RX backlog (`rx_writer − rx_cursor`, both just read by
    /// the caller).
    ///
    /// The admission increment over-approximates: requests the server has
    /// already consumed (but whose responses await a commit), and
    /// requests dropped on the wire, keep holding a credit. Re-deriving
    /// the count from the ring headers returns those credits; the clamp
    /// only ever lowers the counter, so it never races an admission into
    /// a negative balance.
    fn resync_credits(&self, q: usize, rx_writer: u64, cursor: u64) {
        let backlog = rx_writer.saturating_sub(cursor);
        let _ = self.queues[q].inflight.fetch_update(
            Ordering::SeqCst,
            Ordering::SeqCst,
            |c| (c > backlog).then_some(backlog),
        );
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
        let lossy = self.wire.is_faulty();
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
        // epoch-concurrent flip NO server parks: every core resumes
        // producing responses through the copy phase (their first
        // conflicting writes self-capture the flip image), and a
        // response appended after this cut was produced by state the
        // *next* checkpoint covers — so the commit barrier below must
        // not release it (the snapshot is the cap). The cut is sound
        // because this callback runs inside the flip window, where no
        // core runs a program step: every slice ended before the arm and
        // none starts before the resume, so no ring append lands between
        // this read and the flip. Under full quiescence nothing runs
        // between here and the commit, so the cap is exactly the
        // barrier-time writer. The same window makes the RX cursor read
        // here the cursor of the image this round commits.
        for q in 0..self.layout.queues {
            let port = self.layout.port(q);
            if let Ok(w) = ring::header(&self.io, &port.tx, hdr::WRITER) {
                self.queues[q].epoch_tx_writer.store(w, Ordering::SeqCst);
            }
            if let Ok(cursor) = self.io.mem_read_u64(port.rx_cursor_addr) {
                self.queues[q].epoch_rx_cursor.store(cursor, Ordering::SeqCst);
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
            let Ok(tx) = ring::read_header(&self.io, &port.tx) else { continue };
            let before = tx.get(hdr::VISIBLE_WRITER);
            let visible =
                ring::advance_visible_capped_unfenced(&self.io, &port.tx, bound, cap)
                    .unwrap_or(before);
            released += visible.saturating_sub(before);
            // Barrier statistics come from the header read before the
            // advance; a response appended since then counts from the
            // next barrier on.
            let lag = tx.get(hdr::WRITER).saturating_sub(visible);
            let depth = tx.get(hdr::WRITER).saturating_sub(tx.get(hdr::ACK));
            lag_max = lag_max.max(lag);
            lag_sum += lag;
            tx_depth += depth;
            tx_occ = tx_occ.max(depth);
            let (Ok(rx), Ok(cursor)) = (
                ring::read_header(&self.io, &port.rx),
                self.io.mem_read_u64(port.rx_cursor_addr),
            ) else {
                continue;
            };
            // RX acknowledgement: this commit made the epoch cursor
            // durable, so those request slots can never be needed again.
            let rx_ack = self.queues[q].epoch_rx_cursor.load(Ordering::SeqCst);
            self.publish_ack(&port.rx, rx.get(hdr::ACK), rx_ack);
            rx_occ = rx_occ.max(rx.get(hdr::WRITER).saturating_sub(rx_ack));
            // Commit-time credit replenishment: everything the server
            // consumed during the interval stops holding admission
            // credits now, not when its response eventually drains.
            self.resync_credits(q, rx.get(hdr::WRITER), cursor);
            // Doorbell watchdog: a cursor trailing the writer means
            // undelivered requests. Normally the pending signal covers
            // them, but a wake edge lost to a racing drain would strand
            // the queue until the next request. A re-raise is dropped
            // while a signal is still pending, so it only ever wakes a
            // queue that truly sleeps, and it bounds the stall to one
            // checkpoint interval.
            if cursor < rx.get(hdr::WRITER) {
                if let Some(n) = *self.queues[q].doorbell.lock() {
                    stale_bells.push(n);
                }
            }
        }
        treesls_nvm::crash_site!(kernel.pers.dev.crash_schedule(), "net.pre_barrier_flush");
        // The cross-queue visibility barrier: one fence makes every
        // queue's new visibility bound durable together.
        self.io.flush();
        kernel.metrics.record_net_barrier(tx_depth, lag_max, lag_sum, rx_occ, tx_occ);
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
            // A sample left by a round that died with the power may run
            // ahead of that image.
            let cursor = self.io.mem_read_u64(port.rx_cursor_addr).unwrap_or(0);
            self.queues[q].epoch_rx_cursor.store(cursor, Ordering::SeqCst);
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
            // Any epoch snapshot from a round that died with the power is
            // stale.
            self.queues[q].epoch_tx_writer.store(u64::MAX, Ordering::SeqCst);
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
                // The restored cursor defines the new true backlog.
                self.resync_credits(q, writer, cursor);
            }
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
