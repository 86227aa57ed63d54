//! The replica side: applying shipped deltas, quarantining damage, and
//! promoting the mirror into a bootable kernel after primary failure.
//!
//! A replica is a logical mirror, not a byte mirror: it holds the
//! shipped wire records and page images keyed by the *primary's* raw
//! ORoot ids. Promotion re-materializes a real persistent tree from the
//! mirror (slot ids are machine-local, so every reference is translated
//! through a fresh id map), commits it, and then routes the image through
//! the ordinary crash-restore path — the promoted machine is validated by
//! the exact same code that validates a local reboot.
//!
//! Damage handling is uniform: a CRC-corrupt slot, an undecodable frame,
//! a round gap, or a count mismatch at commit all *quarantine* the
//! in-flight round (drop staging, count it, request a resync) and never
//! panic. Until the snapshot lands the replica keeps acking nothing, so
//! the primary's quorum accounting sees it as behind — which it is.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use treesls::{ProgramRegistry, RestoreReport, System, SystemConfig};
use treesls_kernel::kernel::{Kernel, Persistent};
use treesls_kernel::oroot::{BackupObject, BkPageEntry, ORoot, VersionedBackup};
use treesls_kernel::pmo::{PagePtr, PageSlot, PmoKind};
use treesls_kernel::radix::Radix;
use treesls_kernel::types::{KernelError, ObjId, OrootId};
use treesls_net::ReplChannel;
use treesls_obs::MetricsRegistry;
use treesls_pmem_alloc::AllocError;

use crate::wire::{Frame, WireRecord};

/// One shipped 4 KiB page image.
#[derive(Debug, Clone, PartialEq)]
pub struct PageImage {
    /// Checkpoint version the image belongs to.
    pub version: u64,
    /// CRC of `data` as computed on the primary.
    pub crc: u32,
    /// The page bytes.
    pub data: Box<[u8; 4096]>,
}

/// The replica's durable mirror: the primary's tree in wire form, keyed
/// by the primary's raw ORoot ids.
#[derive(Debug, Clone, Default)]
pub struct ReplicaStore {
    /// Primary epoch this state was shipped under.
    pub epoch: u64,
    /// Last atomically applied round.
    pub applied_round: u64,
    /// Raw id of the root cap group as of `applied_round`.
    pub root: u64,
    /// Record per live ORoot.
    pub records: HashMap<u64, WireRecord>,
    /// Page images keyed by `(oroot, page index)`. Cumulative: a delta
    /// only ships changed pages, unchanged ones stay from prior rounds.
    pub pages: HashMap<(u64, u64), PageImage>,
}

/// An in-flight round being staged; applied atomically at the commit
/// frame, discarded whole on any damage.
#[derive(Debug, Default)]
struct Staging {
    snapshot: bool,
    epoch: u64,
    round: u64,
    expect_records: u32,
    expect_tombstones: u32,
    expect_pages: u32,
    records: HashMap<u64, WireRecord>,
    pages: HashMap<(u64, u64), PageImage>,
    tombstones: HashSet<u64>,
}

#[derive(Debug, Default)]
struct ReplicaState {
    store: ReplicaStore,
    staging: Option<Staging>,
    /// Set after quarantine: ignore delta frames until a snapshot lands.
    awaiting_snapshot: bool,
    /// Frames below this epoch are from a deposed primary; ignore them.
    min_epoch: u64,
}

/// A replica machine consuming one [`ReplChannel`] from the primary.
pub struct Replica {
    /// Replica index within the cluster (stable; used in logs/metrics).
    pub id: usize,
    /// The queue pair shared with the primary.
    pub channel: Arc<ReplChannel>,
    /// The replica machine's own metrics registry.
    pub metrics: Arc<MetricsRegistry>,
    state: Mutex<ReplicaState>,
    alive: AtomicBool,
    /// Frames ignored due to epoch fencing (deposed-primary writes).
    pub fenced_frames: AtomicU64,
}

impl Replica {
    /// Creates a fresh (empty) replica on `channel`. A fresh replica at
    /// round 0 accepts the primary's first delta (round 1) directly; a
    /// replica attached later gap-detects and resyncs.
    pub fn new(id: usize, channel: Arc<ReplChannel>) -> Arc<Self> {
        Arc::new(Self {
            id,
            channel,
            metrics: Arc::new(MetricsRegistry::new()),
            state: Mutex::new(ReplicaState::default()),
            alive: AtomicBool::new(true),
            fenced_frames: AtomicU64::new(0),
        })
    }

    /// Whether the replica machine is up.
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    /// Crashes the replica machine: polling stops and the volatile
    /// staging area (any half-applied round) is lost. The durable mirror
    /// (`ReplicaStore`) survives, as NVM would.
    pub fn kill(&self) {
        self.alive.store(false, Ordering::SeqCst);
        let mut st = self.state.lock();
        st.staging = None;
    }

    /// Reboots the replica. It cannot know which frames it missed while
    /// down, so it conservatively requests a resync.
    pub fn revive(&self) {
        self.alive.store(true, Ordering::SeqCst);
        let mut st = self.state.lock();
        st.staging = None;
        st.awaiting_snapshot = true;
        let req = Frame::ResyncRequest {
            epoch: st.store.epoch,
            applied_round: st.store.applied_round,
        };
        drop(st);
        let _ = self.channel.send_ack(&req.encode());
    }

    /// Fences out frames below `epoch` (called when a peer is promoted:
    /// the deposed primary may still be shipping).
    pub fn fence(&self, epoch: u64) {
        self.state.lock().min_epoch = epoch;
    }

    /// Last atomically applied round.
    pub fn applied_round(&self) -> u64 {
        self.state.lock().store.applied_round
    }

    /// Whether the replica is quarantined and waiting for a snapshot.
    pub fn is_awaiting_snapshot(&self) -> bool {
        self.state.lock().awaiting_snapshot
    }

    /// A clone of the durable mirror (promotion input).
    pub fn store_snapshot(&self) -> ReplicaStore {
        self.state.lock().store.clone()
    }

    /// Drains every available delta frame. Returns frames consumed.
    pub fn poll(&self) -> usize {
        self.poll_limit(usize::MAX)
    }

    /// Drains at most `max` frames (deterministic mid-round crash drills
    /// stop a replica between two frames of one delta).
    pub fn poll_limit(&self, max: usize) -> usize {
        if !self.is_alive() {
            return 0;
        }
        let mut n = 0;
        while n < max {
            match self.channel.recv_delta() {
                Ok(None) => break,
                Ok(Some((_tag, bytes))) => {
                    n += 1;
                    match Frame::decode(&bytes) {
                        Ok(frame) => self.handle(frame),
                        Err(_) => self.quarantine(),
                    }
                }
                Err(_corrupt) => {
                    // The slot was consumed by the channel; the stream
                    // now has a hole, so the round cannot apply.
                    n += 1;
                    self.quarantine();
                }
            }
        }
        n
    }

    fn handle(&self, frame: Frame) {
        let mut st = self.state.lock();
        let frame_epoch = match &frame {
            Frame::DeltaBegin { epoch, .. }
            | Frame::DeltaCommit { epoch, .. }
            | Frame::SnapBegin { epoch, .. }
            | Frame::SnapCommit { epoch, .. } => Some(*epoch),
            _ => None,
        };
        if let Some(e) = frame_epoch {
            if e < st.min_epoch {
                self.fenced_frames.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        match frame {
            Frame::DeltaBegin { epoch, round, records, tombstones, pages } => {
                if st.awaiting_snapshot {
                    return;
                }
                // A duplicated frame of an already-applied round is not
                // damage; the application was atomic, so ignore it.
                if round <= st.store.applied_round {
                    return;
                }
                if round != st.store.applied_round + 1 {
                    // Round gap: a delta was dropped or superseded.
                    drop(st);
                    self.quarantine();
                    return;
                }
                st.staging = Some(Staging {
                    snapshot: false,
                    epoch,
                    round,
                    expect_records: records,
                    expect_tombstones: tombstones,
                    expect_pages: pages,
                    ..Staging::default()
                });
            }
            Frame::Record { oroot, rec } => {
                if let Some(s) = st.staging.as_mut() {
                    s.records.insert(oroot, rec);
                }
            }
            Frame::Page { oroot, idx, version, crc, data } => {
                if let Some(s) = st.staging.as_mut() {
                    s.pages.insert((oroot, idx), PageImage { version, crc, data });
                }
            }
            Frame::Tombstone { oroot } => {
                if let Some(s) = st.staging.as_mut() {
                    s.tombstones.insert(oroot);
                }
            }
            Frame::DeltaCommit { epoch, round, root } => {
                let ok = st.staging.as_ref().is_some_and(|s| {
                    !s.snapshot
                        && s.epoch == epoch
                        && s.round == round
                        && s.records.len() == s.expect_records as usize
                        && s.tombstones.len() == s.expect_tombstones as usize
                        && s.pages.len() == s.expect_pages as usize
                });
                if st.awaiting_snapshot {
                    return;
                }
                if !ok {
                    // A duplicate commit for a round that already applied
                    // atomically is harmless; anything else is damage.
                    let stale = round <= st.store.applied_round;
                    drop(st);
                    if !stale {
                        self.quarantine();
                    }
                    return;
                }
                let s = st.staging.take().expect("checked above");
                if !s.tombstones.is_empty() {
                    for t in &s.tombstones {
                        st.store.records.remove(t);
                    }
                    st.store.pages.retain(|(o, _), _| !s.tombstones.contains(o));
                }
                st.store.records.extend(s.records);
                st.store.pages.extend(s.pages);
                st.store.root = root;
                st.store.applied_round = round;
                st.store.epoch = epoch;
                drop(st);
                let _ = self.channel.send_ack(&Frame::Ack { epoch, round }.encode());
            }
            Frame::SnapBegin { epoch, round, records, pages } => {
                st.staging = Some(Staging {
                    snapshot: true,
                    epoch,
                    round,
                    expect_records: records,
                    expect_pages: pages,
                    ..Staging::default()
                });
            }
            Frame::SnapCommit { epoch, round, root } => {
                let ok = st.staging.as_ref().is_some_and(|s| {
                    s.snapshot
                        && s.epoch == epoch
                        && s.round == round
                        && s.records.len() == s.expect_records as usize
                        && s.pages.len() == s.expect_pages as usize
                });
                if !ok {
                    let stale = round <= st.store.applied_round;
                    drop(st);
                    if !stale {
                        self.quarantine();
                    }
                    return;
                }
                let s = st.staging.take().expect("checked above");
                st.store = ReplicaStore {
                    epoch,
                    applied_round: round,
                    root,
                    records: s.records,
                    pages: s.pages,
                };
                st.awaiting_snapshot = false;
                self.metrics.record_repl_resync();
                drop(st);
                let _ = self.channel.send_ack(&Frame::Ack { epoch, round }.encode());
            }
            Frame::Ack { .. } | Frame::ResyncRequest { .. } => {
                // Primary-bound control frames never appear on the delta
                // ring; treat as damage.
                drop(st);
                self.quarantine();
            }
        }
    }

    /// Drops the in-flight round and requests a full-state transfer.
    /// Never panics: damage is an expected input, not a bug.
    fn quarantine(&self) {
        self.metrics.record_repl_quarantine();
        let mut st = self.state.lock();
        st.staging = None;
        st.awaiting_snapshot = true;
        let req = Frame::ResyncRequest {
            epoch: st.store.epoch,
            applied_round: st.store.applied_round,
        };
        drop(st);
        let _ = self.channel.send_ack(&req.encode());
    }
}

/// Failures while materializing a promoted kernel from a mirror.
#[derive(Debug)]
pub enum PromoteError {
    /// Nothing to promote (no round ever applied).
    EmptyStore,
    /// The shipped root id has no record.
    MissingRoot,
    /// A record references an id with no record (`from → to`).
    MissingRef {
        /// Raw ORoot id of the referencing record.
        from: u64,
        /// Raw ORoot id the reference points at.
        to: u64,
    },
    /// A PMO manifest entry has no page image.
    MissingPage {
        /// Raw ORoot id of the PMO.
        oroot: u64,
        /// Missing page index.
        idx: u64,
    },
    /// A page image's CRC does not match the manifest.
    PageMismatch {
        /// Raw ORoot id of the PMO.
        oroot: u64,
        /// Mismatching page index.
        idx: u64,
    },
    /// NVM allocation failed while materializing.
    Alloc(AllocError),
    /// Restore of the materialized image failed.
    Kernel(KernelError),
}

impl From<AllocError> for PromoteError {
    fn from(e: AllocError) -> Self {
        PromoteError::Alloc(e)
    }
}

impl From<KernelError> for PromoteError {
    fn from(e: KernelError) -> Self {
        PromoteError::Kernel(e)
    }
}

/// Promotes a replica mirror into a running [`System`]: materializes a
/// persistent tree on a fresh NVM device (translating every raw id to
/// this machine's slot ids), commits it at the mirror's round, and boots
/// through the standard crash-restore path so the §4.4 validation
/// (type checks, page CRC verification, quarantine) applies to the
/// promoted image exactly as to a local reboot.
pub fn promote(
    store: &ReplicaStore,
    config: SystemConfig,
    register_programs: impl FnOnce(&ProgramRegistry),
) -> Result<(System, RestoreReport), PromoteError> {
    if store.applied_round == 0 || store.records.is_empty() {
        return Err(PromoteError::EmptyStore);
    }
    let pers = Persistent::format(&config.kernel);
    let kernel = Kernel::from_parts(pers, config.kernel.clone());
    let round = store.applied_round;

    // Pass 1: allocate an ORoot per mirrored record; build the id map.
    let mut map: HashMap<u64, OrootId> = HashMap::with_capacity(store.records.len());
    for (&raw, rec) in &store.records {
        // Reference counts are healed by the restore-time full walk.
        let oroot = ORoot { runtime: None, ..ORoot::new(rec.otype(), ObjId::INVALID) };
        let id = kernel.pers.oroots.insert(oroot);
        map.insert(raw, id);
    }

    // Pass 2: materialize each record with translated references.
    for (&raw, rec) in &store.records {
        let backup = materialize(&kernel, store, raw, rec, &map)?;
        let size = backup.approx_size();
        let slot = kernel.pers.backups.insert(backup);
        let slab_addr = kernel.pers.alloc.slab_alloc(size)?;
        kernel.pers.oroots.with_mut(map[&raw], |o| {
            o.backups[0] = Some(VersionedBackup {
                slot,
                version: round,
                slab: Some((slab_addr, size as u32)),
            });
            o.ckpt_round = round;
        });
    }

    let root = *map.get(&store.root).ok_or(PromoteError::MissingRoot)?;
    kernel.pers.set_root_oroot(root);
    kernel.pers.commit_version(round);

    // Boot through the ordinary crash-restore path.
    let image = treesls_checkpoint::restore::crash(kernel);
    Ok(System::recover(image, config, register_programs)?)
}

fn translate(map: &HashMap<u64, OrootId>, from: u64, to: u64) -> Result<OrootId, PromoteError> {
    map.get(&to).copied().ok_or(PromoteError::MissingRef { from, to })
}

/// Rebuilds one mirrored record on this machine: references are
/// translated through `map`, and a PMO's manifest becomes fresh frames
/// holding its (CRC-checked) page images.
fn materialize(
    kernel: &Arc<Kernel>,
    store: &ReplicaStore,
    raw: u64,
    rec: &WireRecord,
    map: &HashMap<u64, OrootId>,
) -> Result<BackupObject, PromoteError> {
    let (npages, eternal, synced_tick, pages) = match rec {
        WireRecord::Object(rec) => return rec.map_refs(|to| translate(map, raw, to.to_raw())),
        WireRecord::Pmo { npages, eternal, synced_tick, pages } => {
            (*npages, *eternal, *synced_tick, pages)
        }
    };
    let mut radix = Radix::new();
    for &(idx, version, crc) in pages {
        let img =
            store.pages.get(&(raw, idx)).ok_or(PromoteError::MissingPage { oroot: raw, idx })?;
        if img.crc != crc {
            return Err(PromoteError::PageMismatch { oroot: raw, idx });
        }
        let frame = kernel.pers.alloc.alloc_page()?;
        kernel.pers.dev.write_page(frame, &img.data);
        let slot = PageSlot::new(idx, frame);
        {
            let mut meta = slot.meta.lock();
            meta.pairs = [Some(PagePtr::backup(frame, version, crc)), None];
            meta.writable = false;
            meta.eternal = eternal;
        }
        radix.insert(idx, BkPageEntry { slot, added: 0, removed: None });
    }
    Ok(BackupObject::Pmo {
        npages,
        kind: if eternal { PmoKind::Eternal } else { PmoKind::Data },
        pages: radix,
        synced_tick,
    })
}
