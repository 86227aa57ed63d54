//! The primary side: shipping each committed round's delta to every
//! replica and holding the NIC's visibility barrier at the
//! quorum-durable round.
//!
//! The dirty-queue drain *is* the delta ([`RoundDelta`]): the shipper
//! serializes only the records the round rewrote plus the page images
//! that changed since they were last shipped, so wire bytes scale with
//! the change rate, not the tree size (the same O(changes) argument as
//! the checkpoint itself). Reads scale the same way: a data page is read
//! and hashed only while the kernel flags it
//! [`unshipped`](treesls_kernel::pmo::PageMeta::unshipped) — a write, a
//! freeze or a stop-and-copy may have changed its committed image — and
//! every other manifest entry comes from the page's version and the CRC
//! cached at its last ship. Eternal rings, which host clients write
//! without a fault, are read and hashed every round and ship only when
//! their CRC moved. A replica that misses anything — drop, reorder past
//! the window, corruption, its own crash — requests a resync and
//! receives a full snapshot instead of the next delta.
//!
//! External synchrony across machines: the shipper runs *before* the
//! NIC's checkpoint callback (`register_callback_front`), waits up to
//! `ack_timeout` for the round to be durable on `quorum` machines
//! (counting the primary), and publishes the result through
//! [`ReplHealth`], the [`ReleaseGate`] the NIC consults. Quorum met →
//! the barrier releases through this round. Quorum lost → the barrier
//! stays at the last durable round (responses for newer state are held,
//! not dropped), new writes are shed with `Busy`, reads keep flowing,
//! and the health flips to degraded until a later round reaches quorum.

use std::collections::{HashMap, HashSet};
use std::iter::once;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use treesls_checkpoint::{CheckpointManager, CkptCallback, CommittedImage, PageSource, RoundDelta};
use treesls_kernel::kernel::Kernel;
use treesls_kernel::oroot::BackupObject;
use treesls_kernel::pmo::PmoKind;
use treesls_kernel::types::OrootId;
use treesls_net::repl::ReleaseGate;
use treesls_net::{ReplChannel, ShipError};
use treesls_nvm::{crash_site, PAGE_SIZE};
use treesls_obs::EventKind;

use crate::wire::{Frame, WireRecord};

/// Replication tunables.
#[derive(Debug, Clone)]
pub struct ShipConfig {
    /// Machines (including the primary) that must hold a round durably
    /// before the visibility barrier releases it. `1` = no remote wait:
    /// single-box behavior, the compatibility oracle.
    pub quorum: usize,
    /// How long to wait for quorum before declaring degraded mode.
    pub ack_timeout: Duration,
    /// Per-frame push retries when a replica's ring is full.
    pub max_retries: u32,
    /// Base retry backoff; doubles per attempt up to `backoff_cap`.
    pub backoff: Duration,
    /// Retry backoff ceiling.
    pub backoff_cap: Duration,
}

impl Default for ShipConfig {
    fn default() -> Self {
        Self {
            quorum: 1,
            ack_timeout: Duration::from_millis(50),
            max_retries: 6,
            backoff: Duration::from_micros(50),
            backoff_cap: Duration::from_millis(2),
        }
    }
}

/// Classifies a request payload as a write (`true`) for degraded-mode
/// shedding.
pub type WriteClassifier = Arc<dyn Fn(&[u8]) -> bool + Send + Sync>;

/// Cluster durability state; implements the [`ReleaseGate`] the NIC
/// consults on every checkpoint and every admitted request.
pub struct ReplHealth {
    durable: AtomicU64,
    degraded: AtomicBool,
    /// Degraded-mode write classifier. `None` sheds everything while
    /// degraded (conservative).
    write_classifier: Mutex<Option<WriteClassifier>>,
}

impl ReplHealth {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            durable: AtomicU64::new(0),
            degraded: AtomicBool::new(false),
            write_classifier: Mutex::new(None),
        })
    }

    /// Highest round durable on a quorum of machines.
    pub fn durable_round(&self) -> u64 {
        self.durable.load(Ordering::SeqCst)
    }

    /// Whether the cluster is below quorum (writes shed, barrier held).
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::SeqCst)
    }

    /// Installs the payload classifier degraded mode uses to shed writes
    /// while still admitting reads.
    pub fn set_write_classifier(&self, f: WriteClassifier) {
        *self.write_classifier.lock() = Some(f);
    }
}

impl ReleaseGate for ReplHealth {
    fn release_bound(&self, committed: u64) -> u64 {
        committed.min(self.durable.load(Ordering::SeqCst))
    }

    fn admit(&self, payload: &[u8]) -> bool {
        if !self.degraded.load(Ordering::SeqCst) {
            return true;
        }
        match self.write_classifier.lock().clone() {
            Some(is_write) => !is_write(payload),
            None => false,
        }
    }
}

struct Peer {
    id: usize,
    ch: Arc<ReplChannel>,
    /// Highest round this peer has acked under the current epoch.
    acked: u64,
    /// Ship a full snapshot instead of the next delta.
    needs_snapshot: bool,
}

/// Per-round shipping telemetry (consumed by the bench harness).
#[derive(Debug, Clone, Default)]
pub struct ShipStats {
    /// Checkpoint round the stats cover.
    pub round: u64,
    /// Backup records shipped in the round's delta.
    pub records: u64,
    /// Tombstones shipped.
    pub tombstones: u64,
    /// Page images shipped.
    pub pages: u64,
    /// Data pages the round's delta read from NVM (and hashed, unless a
    /// stored CRC covers them) to build it. Eternal ring pages, read
    /// every round, are not counted.
    pub read: u64,
    /// Nanoseconds spent building the round's frames (the delta and any
    /// snapshot).
    pub build_ns: u64,
    /// Encoded frame bytes shipped (all peers).
    pub bytes: u64,
    /// Peers that received a snapshot this round.
    pub snapshots: u64,
    /// Nanoseconds spent waiting for quorum.
    pub wait_ns: u64,
    /// Machines durable at this round when the wait ended.
    pub durable: u64,
    /// Whether the round ended below quorum (degraded mode).
    pub degraded: bool,
}

/// The frames one build collects before encoding them.
#[derive(Default)]
struct Shipment {
    records: Vec<Frame>,
    pages: Vec<Frame>,
    /// Data pages read from NVM to build them.
    read: u64,
}

#[derive(Default)]
struct BuiltFrames {
    frames: Vec<Vec<u8>>,
    records: u64,
    tombstones: u64,
    pages: u64,
    read: u64,
    bytes: u64,
}

impl BuiltFrames {
    /// Encodes `frames`, counting the records, tombstones and pages among
    /// them.
    fn encode(frames: impl Iterator<Item = Frame>) -> Self {
        let mut built = Self::default();
        for f in frames {
            match f {
                Frame::Record { .. } => built.records += 1,
                Frame::Tombstone { .. } => built.tombstones += 1,
                Frame::Page { .. } => built.pages += 1,
                _ => {}
            }
            built.frames.push(f.encode());
        }
        built.bytes = built.frames.iter().map(|f| f.len() as u64).sum();
        built
    }
}

/// The checkpoint-shipping callback installed on the primary.
pub struct Shipper {
    kernel: Arc<Kernel>,
    mgr: Weak<CheckpointManager>,
    cfg: ShipConfig,
    /// The gate the primary's NIC consults (install with
    /// [`VirtualNic::set_release_gate`](treesls_net::VirtualNic::set_release_gate)).
    pub health: Arc<ReplHealth>,
    epoch: AtomicU64,
    peers: Mutex<Vec<Peer>>,
    /// Last shipped CRC per `(oroot, page idx)`: pages whose content did
    /// not change since the previous ship are elided from deltas, and an
    /// unflagged data page takes its CRC from here without being read.
    page_crc: Mutex<HashMap<(u64, u64), u32>>,
    /// Eternal PMOs seen by any ship. Host clients write eternal rings
    /// directly — no fault ever fires, so nothing marks them dirty and
    /// they would silently drop out of every delta. They are instead
    /// re-serialized every round; the CRC cache keeps unchanged ring
    /// pages off the wire.
    eternal: Mutex<HashSet<u64>>,
    /// Telemetry of the most recent round.
    pub last_ship: Mutex<ShipStats>,
}

impl Shipper {
    /// Creates a shipper over one channel per replica and registers it at
    /// the *front* of `mgr`'s callback chain (it must run before the
    /// NIC's visibility barrier).
    pub fn install(
        kernel: Arc<Kernel>,
        mgr: &Arc<CheckpointManager>,
        channels: Vec<Arc<ReplChannel>>,
        cfg: ShipConfig,
    ) -> Arc<Self> {
        let shipper = Arc::new(Self {
            kernel,
            mgr: Arc::downgrade(mgr),
            cfg,
            health: ReplHealth::new(),
            epoch: AtomicU64::new(1),
            peers: Mutex::new(
                channels
                    .into_iter()
                    .enumerate()
                    .map(|(id, ch)| Peer { id, ch, acked: 0, needs_snapshot: false })
                    .collect(),
            ),
            page_crc: Mutex::new(HashMap::new()),
            eternal: Mutex::new(HashSet::new()),
            last_ship: Mutex::new(ShipStats::default()),
        });
        mgr.register_callback_front(Arc::clone(&shipper) as Arc<dyn CkptCallback>);
        shipper
    }

    /// The primary's current epoch (bumped by failover).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Drains the ack rings: acks raise the peer's durable round, resync
    /// requests flag the peer for a snapshot. An ack that reaches
    /// `waiting`, the round whose quorum wait is draining, is counted in
    /// that round's `ReplShip` event (its peers-durable word); every other
    /// ack advance — a peer catching up after its round's wait ended — is
    /// logged as a `ReplAck` of its own.
    fn drain_acks(&self, waiting: Option<u64>) {
        let epoch = self.epoch.load(Ordering::SeqCst);
        let mut peers = self.peers.lock();
        for peer in peers.iter_mut() {
            loop {
                match peer.ch.recv_ack() {
                    Ok(None) => break,
                    Ok(Some(bytes)) => match Frame::decode(&bytes) {
                        Ok(Frame::Ack { epoch: e, round }) if e == epoch => {
                            if round > peer.acked {
                                peer.acked = round;
                                self.kernel.metrics.record_repl_ack();
                                if waiting != Some(round) {
                                    self.kernel.pers.recorder().record(
                                        EventKind::ReplAck,
                                        [epoch, round, peer.id as u64, 0, 0, 0],
                                    );
                                }
                            }
                        }
                        Ok(Frame::ResyncRequest { applied_round, .. }) => {
                            if !peer.needs_snapshot {
                                peer.needs_snapshot = true;
                                self.kernel.metrics.record_repl_resync();
                                self.kernel.pers.recorder().record(
                                    EventKind::ReplResync,
                                    [epoch, applied_round, peer.id as u64, 0, 0, 0],
                                );
                            }
                        }
                        // Stale-epoch acks and anything else: ignore.
                        Ok(_) | Err(_) => {}
                    },
                    // A corrupt ack slot was consumed; the next ack
                    // supersedes it.
                    Err(_) => {}
                }
            }
        }
    }

    /// Appends the committed record of `id` to `out` in wire form,
    /// returning `false` when the image holds none (deleted or never
    /// committed). Any object but a PMO travels as itself. A PMO becomes
    /// its page manifest, and the page images whose CRC changed since the
    /// last ship are appended to `out.pages`. A delta (`snapshot = false`)
    /// reads only the data pages flagged [`PageMeta::unshipped`] and takes
    /// every other manifest entry from the page's version and the cached
    /// CRC; eternal rings, which host clients write without a fault, are
    /// read and hashed every round. A snapshot reads every page, ships it
    /// whatever the cache says, and leaves the flags alone. `out.read`
    /// counts the data pages read.
    ///
    /// [`PageMeta::unshipped`]: treesls_kernel::pmo::PageMeta::unshipped
    fn ship_record(
        &self,
        image: &CommittedImage<'_>,
        id: OrootId,
        snapshot: bool,
        out: &mut Shipment,
    ) -> bool {
        let Some(rec) = image.record(id).ok().flatten() else { return false };
        let raw = id.to_raw();
        let BackupObject::Pmo { npages, kind, pages: radix, synced_tick } = rec else {
            out.records.push(Frame::Record { oroot: raw, rec: WireRecord::Object(rec) });
            return true;
        };
        let eternal = kind == PmoKind::Eternal;
        if eternal {
            self.eternal.lock().insert(raw);
        }
        let mut manifest = Vec::new();
        let mut cache = self.page_crc.lock();
        radix.for_each(|idx, entry| {
            if !entry.live_at(image.version()) {
                return;
            }
            // The shipped bytes must be the *frozen* round image, not the
            // live runtime — mutators keep writing through the copy phase
            // — so they come from the image's page source, read under the
            // slot lock. The page is not `check`ed: that would cost a CRC
            // per shipped page, and a promoted replica runs restore's own
            // check anyway.
            let mut meta = entry.slot.meta.lock();
            let Some(src) = image.page(&meta) else { return };
            // Version 0 ("the runtime page is the image") travels as-is:
            // it is round-independent, so re-serializing an unchanged
            // record at a later round yields identical bytes, and the
            // promotion path accepts it (a v0 backup is picked by the
            // (Some, None) fallthrough).
            let (version, stored_crc) = match src {
                PageSource::Capture(p) | PageSource::Pair(_, p) => (p.version, p.crc),
                PageSource::Log { .. } => (image.version(), None),
            };
            // A delta needs no bytes of a data page whose image is the
            // one last shipped: unflagged, or a backup whose stored CRC is
            // the cached one.
            let cached = cache.get(&(raw, idx)).copied();
            if let Some(crc) = cached.filter(|&c| {
                !snapshot && !eternal && (!meta.unshipped || stored_crc == Some(c))
            }) {
                manifest.push((idx, version, crc));
                meta.shipped(src);
                return;
            }
            let mut data = Box::new([0u8; PAGE_SIZE]);
            image.read(src, &mut data);
            if !eternal {
                out.read += 1;
            }
            // Backup pages are frozen, so their stored CRC matches the
            // bytes read. A runtime page (no stored CRC) may be an eternal
            // ring a host client is writing right now, and a log
            // reconstruction is computed on the fly: hash the bytes we
            // actually read, not the frame again.
            let crc = stored_crc.unwrap_or_else(|| treesls_nvm::crc32(&data[..]));
            manifest.push((idx, version, crc));
            if snapshot || cached != Some(crc) {
                out.pages.push(Frame::Page { oroot: raw, idx, version, crc, data });
            }
            cache.insert((raw, idx), crc);
            if !snapshot {
                meta.shipped(src);
            }
        });
        let rec = WireRecord::Pmo { npages, eternal, synced_tick, pages: manifest };
        out.records.push(Frame::Record { oroot: raw, rec });
        true
    }

    fn build_delta(&self, image: &CommittedImage, delta: &RoundDelta, epoch: u64) -> BuiltFrames {
        let round = delta.round;
        let mut tombs: HashSet<u64> =
            delta.tombstoned.iter().map(|id| id.to_raw()).collect();
        let mut out = Shipment::default();
        let mut shipped: HashSet<u64> = HashSet::new();
        for id in &delta.rewritten {
            let raw = id.to_raw();
            if tombs.contains(&raw) || !shipped.insert(raw) {
                continue;
            }
            // Rewritten then deleted before the callbacks ran: the store
            // no longer has it, so it is a tombstone.
            if !self.ship_record(image, *id, false, &mut out) {
                tombs.insert(raw);
            }
        }
        // Eternal PMOs ride along every round (see the `eternal` field):
        // host writes to them never fault, so the dirty queue cannot
        // know about their content changes.
        let eternal: Vec<u64> = self.eternal.lock().iter().copied().collect();
        for raw in eternal {
            if tombs.contains(&raw) || !shipped.insert(raw) {
                continue;
            }
            if !self.ship_record(image, OrootId::from_raw(raw), false, &mut out) {
                self.eternal.lock().remove(&raw);
            }
        }
        // Deleted objects keep no page state worth deduplicating.
        self.page_crc.lock().retain(|(o, _), _| !tombs.contains(o));
        self.eternal.lock().retain(|o| !tombs.contains(o));
        let begin = Frame::DeltaBegin {
            epoch,
            round,
            records: out.records.len() as u32,
            tombstones: tombs.len() as u32,
            pages: out.pages.len() as u32,
        };
        let commit = Frame::DeltaCommit { epoch, round, root: image.root().to_raw() };
        let tombs = tombs.into_iter().map(|oroot| Frame::Tombstone { oroot });
        let frames = once(begin).chain(out.records).chain(out.pages).chain(tombs);
        BuiltFrames { read: out.read, ..BuiltFrames::encode(frames.chain(once(commit))) }
    }

    /// A full-state transfer: every live, restorable record and every
    /// live page image of the committed image.
    fn build_snapshot(&self, image: &CommittedImage<'_>, epoch: u64, round: u64) -> BuiltFrames {
        let mut out = Shipment::default();
        for id in self.kernel.pers.oroots.ids() {
            self.ship_record(image, id, true, &mut out);
        }
        let begin = Frame::SnapBegin {
            epoch,
            round,
            records: out.records.len() as u32,
            pages: out.pages.len() as u32,
        };
        let commit = Frame::SnapCommit { epoch, round, root: image.root().to_raw() };
        BuiltFrames::encode(once(begin).chain(out.records).chain(out.pages).chain(once(commit)))
    }

    /// Pushes `frames` to one peer with bounded retry and capped
    /// exponential backoff. Returns `false` (and flags the peer for a
    /// snapshot) if the ring stayed full through every retry.
    fn ship_to(&self, peer: &mut Peer, round: u64, frames: &[Vec<u8>], first_peer: bool) -> bool {
        let sched = self.kernel.pers.dev.crash_schedule();
        let last = frames.len().saturating_sub(1);
        for (i, frame) in frames.iter().enumerate() {
            if first_peer && i == last {
                // Crash with the delta's data shipped but its commit
                // frame not: the replica must hold the round in staging
                // and never apply it.
                crash_site!(sched, "repl.mid_ship");
            }
            let mut backoff = self.cfg.backoff;
            let mut attempt = 0;
            loop {
                match peer.ch.send_delta(round, frame) {
                    Ok(()) => break,
                    Err(ShipError::Backpressure) if attempt < self.cfg.max_retries => {
                        attempt += 1;
                        std::thread::sleep(backoff);
                        backoff = (backoff * 2).min(self.cfg.backoff_cap);
                    }
                    Err(_) => {
                        peer.needs_snapshot = true;
                        return false;
                    }
                }
            }
        }
        peer.ch.flush_wire();
        true
    }

    /// Machines (including the primary) durable at `round`.
    fn durable_at(&self, round: u64) -> usize {
        1 + self.peers.lock().iter().filter(|p| p.acked >= round).count()
    }
}

impl CkptCallback for Shipper {
    fn on_checkpoint(&self, version: u64) {
        let sched = self.kernel.pers.dev.crash_schedule();
        let epoch = self.epoch.load(Ordering::SeqCst);
        self.drain_acks(None);
        crash_site!(sched, "repl.pre_ship");

        let Ok(image) = CommittedImage::open(&self.kernel.pers) else {
            return;
        };
        let t_build = Instant::now();
        let delta = self
            .mgr
            .upgrade()
            .and_then(|m| m.take_round_delta())
            .filter(|d| d.round == version)
            .map(|d| self.build_delta(&image, &d, epoch));
        let mut build = t_build.elapsed();

        let mut stats = ShipStats { round: version, ..ShipStats::default() };
        if let Some(b) = &delta {
            stats.records = b.records;
            stats.tombstones = b.tombstones;
            stats.pages = b.pages;
            stats.read = b.read;
        }

        // Ship: peers in good standing get the delta; flagged peers (or
        // everyone, if the round's delta is unavailable, e.g. right after
        // a restore) get a snapshot.
        let mut snapshot: Option<BuiltFrames> = None;
        {
            let mut peers = self.peers.lock();
            let mut first = true;
            for peer in peers.iter_mut() {
                let built = match &delta {
                    Some(d) if !peer.needs_snapshot => d,
                    _ => {
                        if snapshot.is_none() {
                            let t = Instant::now();
                            snapshot = Some(self.build_snapshot(&image, epoch, version));
                            build += t.elapsed();
                        }
                        stats.snapshots += 1;
                        peer.needs_snapshot = false;
                        snapshot.as_ref().expect("built above")
                    }
                };
                stats.bytes += built.bytes;
                self.ship_to(peer, version, &built.frames, first);
                first = false;
            }
        }
        stats.build_ns = build.as_nanos() as u64;
        self.kernel.metrics.record_repl_ship(stats.records, stats.pages, stats.bytes);

        // Quorum wait: the visibility barrier may only release rounds
        // durable on `quorum` machines.
        let wait_start = Instant::now();
        let deadline = wait_start + self.cfg.ack_timeout;
        let mut durable = self.durable_at(version);
        while durable < self.cfg.quorum && Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(20));
            self.drain_acks(Some(version));
            durable = self.durable_at(version);
        }
        stats.wait_ns = wait_start.elapsed().as_nanos() as u64;
        self.kernel.metrics.record_repl_round(stats.build_ns, stats.read, stats.wait_ns);
        stats.durable = durable as u64;
        crash_site!(sched, "repl.post_ack");

        if durable >= self.cfg.quorum {
            self.health.durable.store(version, Ordering::SeqCst);
            if self.health.degraded.swap(false, Ordering::SeqCst) {
                self.kernel.pers.recorder().record(
                    EventKind::ReplDegraded,
                    [epoch, version, 0, durable as u64, 0, 0],
                );
            }
        } else if !self.health.degraded.swap(true, Ordering::SeqCst) {
            self.kernel.metrics.record_repl_degraded();
            self.kernel.pers.recorder().record(
                EventKind::ReplDegraded,
                [epoch, version, 1, durable as u64, 0, 0],
            );
        }
        stats.degraded = self.health.is_degraded();

        let min_acked =
            self.peers.lock().iter().map(|p| p.acked).min().unwrap_or(version);
        self.kernel
            .metrics
            .set_repl_gauges(min_acked, version.saturating_sub(self.health.durable_round()));
        self.kernel.pers.recorder().record(
            EventKind::ReplShip,
            [version, stats.records, stats.pages, stats.bytes, stats.snapshots, durable as u64],
        );
        *self.last_ship.lock() = stats;
    }

    fn on_restore(&self, version: u64) {
        // The machine rebooted into `version`; its delta continuity is
        // gone, so every peer resyncs. The restored round is durable
        // locally by construction.
        self.health.durable.store(version, Ordering::SeqCst);
        self.health.degraded.store(false, Ordering::SeqCst);
        self.page_crc.lock().clear();
        self.eternal.lock().clear();
        for peer in self.peers.lock().iter_mut() {
            peer.needs_snapshot = true;
            peer.acked = 0;
        }
    }
}
