//! The kernel: persistent/volatile split, object lifecycle, syscalls.
//!
//! ## Crash semantics
//!
//! The machine is split exactly along the paper's persistence boundary:
//!
//! * [`Persistent`] — survives power failure: the NVM device (page frames +
//!   metadata arena with allocator state, journal and the global checkpoint
//!   record), the backup object store and the ORoot table (conceptually
//!   slab space on NVM).
//! * [`Kernel`] — volatile: the runtime object store (the runtime
//!   capability tree), soft page tables, the scheduler queue, DRAM pool,
//!   hotness/dirty tracking. All of it is dropped by a crash and rebuilt
//!   by the restore path from the backup tree.
//!
//! ## Lock ordering
//!
//! To stay deadlock-free the kernel acquires locks in this order:
//! object-store read lock (released before body locks) → cap-group body →
//! IPC/notification body → thread body; and for memory: VM space body →
//! PMO body → page-slot meta. Thread bodies are never nested inside one
//! another.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use treesls_nvm::{DramPool, LatencyModel, NvmDevice, ObjectStore, ShardedStore};
use treesls_obs::{FlightEvent, FlightRecorder, MetricsRegistry};
use treesls_pmem_alloc::{AllocLayout, PmemAllocator};

use crate::cap::{CapGroupBody, CapRights, Capability};
use crate::dirty::DirtyQueue;
use crate::fault::{KernelStats, PageTracker};
use crate::ipc::IpcConnBody;
use crate::notif::{IrqNotifBody, NotifBody};
use crate::object::{KObject, ObjType, ObjectBody};
use crate::oroot::ORoot;
use crate::oroot::BackupObject;
use crate::pmo::{Pmo, PmoKind};
use crate::program::ProgramRegistry;
use crate::sched::Scheduler;
use crate::thread::{BlockedOn, ThreadBody, ThreadContext, ThreadState};
use crate::types::{CapSlot, KernelError, ObjId, OrootId, Vpn};
use crate::vm::{VmRegion, VmSpaceBody};

/// Offsets of the global checkpoint metadata within the NVM metadata arena
/// (the first [`AllocLayout::GLOBAL_META_RESERVED`] bytes).
///
/// The commit point is a CRC-tagged, dual-slot (ping-pong) **commit
/// record**: checkpoint version `N` writes slot `N & 1`, so the newest
/// *valid* record is never overwritten by an in-flight commit. A torn or
/// dropped commit write leaves a bad CRC in its slot; recovery then falls
/// back to the other slot — generation `N-1` — instead of trusting torn
/// bytes. Each slot is 32 bytes and cache-line aligned, so it occupies a
/// single 64 B line and a single ADR line drop reverts it to the (valid)
/// record of generation `N-2`.
pub mod global_meta {
    /// Magic number identifying a formatted TreeSLS device.
    pub const MAGIC_OFF: usize = 0;
    /// First commit-record slot (versions with `N & 1 == 0`).
    pub const COMMIT_SLOT0_OFF: usize = 64;
    /// Second commit-record slot (versions with `N & 1 == 1`).
    pub const COMMIT_SLOT1_OFF: usize = 128;
    /// Commit-record slot length in bytes.
    pub const COMMIT_SLOT_LEN: usize = 32;
    /// Offset of the committed version within a slot.
    pub const REC_VERSION: usize = 0;
    /// Offset of the root ORoot id within a slot.
    pub const REC_ROOT_OROOT: usize = 8;
    /// Offset of the checkpoint count within a slot.
    pub const REC_COUNT: usize = 16;
    /// Offset of the CRC-32 over the preceding 24 bytes within a slot.
    pub const REC_CRC: usize = 24;
    /// Expected magic value.
    pub const MAGIC: u64 = 0x7EE5_1501_7EE5_1501;

    /// The slot a given version commits into.
    pub fn slot_off(version: u64) -> usize {
        if version & 1 == 0 {
            COMMIT_SLOT0_OFF
        } else {
            COMMIT_SLOT1_OFF
        }
    }
}

/// A decoded checkpoint commit record (one ping-pong slot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitRecord {
    /// The committed global checkpoint version.
    pub version: u64,
    /// Raw ORoot id of the root cap group (`u64::MAX` = none yet).
    pub root_oroot: u64,
    /// Number of checkpoints ever committed.
    pub ckpt_count: u64,
}

impl CommitRecord {
    /// CRC-32 over the record's payload fields.
    pub fn crc(&self) -> u32 {
        let mut buf = [0u8; 24];
        buf[..8].copy_from_slice(&self.version.to_le_bytes());
        buf[8..16].copy_from_slice(&self.root_oroot.to_le_bytes());
        buf[16..].copy_from_slice(&self.ckpt_count.to_le_bytes());
        treesls_nvm::crc32(&buf)
    }
}

/// What commit-record validation observed during recovery — surfaced in
/// the `RecoveryReport` so degraded recoveries are visible, not silent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommitRecovery {
    /// `true` when the newer slot held a torn/corrupt record and recovery
    /// fell back to the previous committed generation.
    pub fell_back: bool,
    /// Number of commit-record slots with invalid CRCs (0, 1 or 2).
    pub invalid_slots: u32,
}

/// Configuration of a freshly booted machine.
#[derive(Debug, Clone)]
pub struct KernelConfig {
    /// NVM capacity in 4 KiB frames.
    pub nvm_frames: u32,
    /// DRAM pool capacity in pages (hot-page cache).
    pub dram_pages: usize,
    /// Write-fault count at which a page is considered hot (§4.3.2).
    pub hot_threshold: u32,
    /// Checkpoints without modification before a DRAM page is evicted.
    pub idle_evict_rounds: u32,
    /// Enable hybrid copy (hot-page DRAM migration + speculative
    /// stop-and-copy, §4.3).
    pub hybrid_copy: bool,
    /// Run every checkpoint as a full reachability walk instead of the
    /// O(changes) dirty-queue walk. Kept as the differential oracle and
    /// for measuring the walk cost the dirty queue removes.
    pub force_full_walk: bool,
    /// The checkpoint protocol. `false` (the default) runs the epoch
    /// flip: the stop window shrinks to an O(1) flip (arm the fence, cut
    /// the dirty queue, resume) and the tree walk + page copies run
    /// concurrently with mutators, whose first conflicting writes are
    /// captured in-line (whole-page epoch captures, or ≤64 B undo records
    /// for small hot writes). `true` runs the paper's stop-the-world
    /// protocol — every core parks for the whole copy phase — kept as the
    /// differential oracle for the flip, like `force_full_walk` is for
    /// the dirty walk.
    pub force_full_quiesce: bool,
    /// Checkpoint rounds between periodic full walks (the cycle collector
    /// for reference loops the O(deletions) tombstoning cannot reclaim;
    /// see DESIGN.md). `0` disables periodic full walks — unreachable
    /// cycles then persist until restore, which sweeps them anyway.
    pub full_walk_interval: u64,
    /// Latency model for the emulated NVM.
    pub latency: LatencyProfile,
}

/// Which latency model to install on the emulated NVM device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyProfile {
    /// No injected latency (functional tests).
    Uniform,
    /// Calibrated Optane-like asymmetry (benchmarks).
    Optane,
}

impl Default for KernelConfig {
    fn default() -> Self {
        Self {
            nvm_frames: 16384, // 64 MiB
            dram_pages: 2048,  // 8 MiB hot cache
            hot_threshold: 3,
            idle_evict_rounds: 8,
            hybrid_copy: true,
            force_full_walk: false,
            force_full_quiesce: false,
            full_walk_interval: 64,
            latency: LatencyProfile::Uniform,
        }
    }
}

/// The state that survives a power failure.
#[derive(Debug)]
pub struct Persistent {
    /// The emulated NVM device.
    pub dev: Arc<NvmDevice>,
    /// The failure-resilient checkpoint-manager allocator.
    pub alloc: Arc<PmemAllocator>,
    /// Backup object records (the backup capability tree's nodes). Lock
    /// sharding lets quiesced non-leader cores build backup records in
    /// parallel with the leader during the pause.
    pub backups: ShardedStore<BackupObject>,
    /// The ORoot table (§4.1), sharded like `backups`.
    pub oroots: ShardedStore<ORoot>,
    /// Volatile mirror of the committed global version for fast reads on
    /// the fault path; rebuilt from NVM at recovery.
    cached_version: AtomicU64,
    /// Staged root-ORoot id for the next commit record (`u64::MAX` = none).
    staged_root: AtomicU64,
    /// Volatile mirror of the committed checkpoint count.
    cached_count: AtomicU64,
    /// Commit-record validation outcome of the last recovery.
    commit_recovery: CommitRecovery,
    /// Persistent flight recorder (event ring in the metadata arena).
    recorder: FlightRecorder,
    /// Flight-recorder events that survived the last crash, captured at
    /// recovery; the restore path drains them into its `RecoveryReport`.
    recovered_tail: Mutex<Vec<FlightEvent>>,
}

impl Persistent {
    /// Formats a fresh persistent state on a new device.
    pub fn format(config: &KernelConfig) -> Arc<Self> {
        let latency = Arc::new(match config.latency {
            LatencyProfile::Uniform => LatencyModel::disabled(),
            LatencyProfile::Optane => LatencyModel::optane(),
        });
        let layout = AllocLayout::for_device(0, config.nvm_frames);
        let dev = Arc::new(NvmDevice::new(config.nvm_frames as usize, layout.end_off, latency));
        let alloc = Arc::new(PmemAllocator::format(Arc::clone(&dev), layout));
        let meta = dev.meta();
        meta.write_u64(global_meta::MAGIC_OFF, global_meta::MAGIC);
        // Slot 0 starts as the valid generation-0 record; slot 1 stays
        // all-zero (invalid CRC) until the first odd version commits.
        let genesis = CommitRecord { version: 0, root_oroot: u64::MAX, ckpt_count: 0 };
        Self::write_commit_record(&dev, &genesis);
        let recorder = FlightRecorder::format(&dev, layout.recorder_off, layout.recorder_slots);
        Arc::new(Self {
            dev,
            alloc,
            backups: ShardedStore::default(),
            oroots: ShardedStore::default(),
            cached_version: AtomicU64::new(0),
            staged_root: AtomicU64::new(u64::MAX),
            cached_count: AtomicU64::new(0),
            commit_recovery: CommitRecovery::default(),
            recorder,
            recovered_tail: Mutex::new(Vec::new()),
        })
    }

    /// Writes `rec` into its ping-pong slot and makes it durable. Each
    /// field is an aligned ≤ 8-byte store (atomic on the media); the CRC
    /// goes last, so any crash inside the sequence leaves a slot that
    /// fails validation instead of lying.
    fn write_commit_record(dev: &NvmDevice, rec: &CommitRecord) {
        let meta = dev.meta();
        let slot = global_meta::slot_off(rec.version);
        meta.write_u64(slot + global_meta::REC_VERSION, rec.version);
        meta.write_u64(slot + global_meta::REC_ROOT_OROOT, rec.root_oroot);
        meta.write_u64(slot + global_meta::REC_COUNT, rec.ckpt_count);
        meta.write_u32(slot + global_meta::REC_CRC, rec.crc());
        meta.flush(slot, global_meta::COMMIT_SLOT_LEN);
        meta.fence();
    }

    /// Reads one commit-record slot; `None` if its CRC does not match.
    fn read_commit_slot(dev: &NvmDevice, slot: usize) -> Option<CommitRecord> {
        let meta = dev.meta();
        let rec = CommitRecord {
            version: meta.read_u64(slot + global_meta::REC_VERSION),
            root_oroot: meta.read_u64(slot + global_meta::REC_ROOT_OROOT),
            ckpt_count: meta.read_u64(slot + global_meta::REC_COUNT),
        };
        (meta.read_u32(slot + global_meta::REC_CRC) == rec.crc()).then_some(rec)
    }

    /// Validates both slots and picks the newest valid record, reporting
    /// whether a torn newer record forced a fallback to generation N-1.
    fn validate_commit_records(dev: &NvmDevice) -> (CommitRecord, CommitRecovery) {
        let slots = [global_meta::COMMIT_SLOT0_OFF, global_meta::COMMIT_SLOT1_OFF];
        let decoded = slots.map(|s| Self::read_commit_slot(dev, s));
        let invalid_slots = decoded.iter().filter(|d| d.is_none()).count() as u32;
        let best = decoded.iter().flatten().max_by_key(|r| r.version).copied();
        match best {
            Some(rec) => {
                // A fallback happened iff the *other* slot — the one the
                // in-flight generation `rec.version + 1` would have used —
                // holds torn (nonzero but invalid) bytes.
                let other_off = global_meta::slot_off(rec.version + 1);
                let other_valid = Self::read_commit_slot(dev, other_off).is_some();
                let mut raw = [0u8; global_meta::COMMIT_SLOT_LEN];
                dev.meta().read_bytes(other_off, &mut raw);
                let fell_back = !other_valid && raw.iter().any(|&b| b != 0);
                (rec, CommitRecovery { fell_back, invalid_slots })
            }
            None => {
                // Both records corrupt: nothing trustworthy to restore.
                // Degrade to generation 0 and report, rather than panic.
                let rec = CommitRecord { version: 0, root_oroot: u64::MAX, ckpt_count: 0 };
                (rec, CommitRecovery { fell_back: true, invalid_slots })
            }
        }
    }

    /// Reattaches after a power failure: replays the allocator journal and
    /// reloads the version mirror. The caller (restore path) then rebuilds
    /// the runtime tree.
    pub fn recover(
        dev: Arc<NvmDevice>,
        nvm_frames: u32,
        backups: ShardedStore<BackupObject>,
        oroots: ShardedStore<ORoot>,
    ) -> Arc<Self> {
        assert_eq!(
            dev.meta().read_u64(global_meta::MAGIC_OFF),
            global_meta::MAGIC,
            "device was never formatted as TreeSLS NVM"
        );
        let layout = AllocLayout::for_device(0, nvm_frames);
        let alloc = Arc::new(PmemAllocator::recover(Arc::clone(&dev), layout));
        let (rec, commit_recovery) = Self::validate_commit_records(&dev);
        let (recorder, tail) =
            FlightRecorder::recover(&dev, layout.recorder_off, layout.recorder_slots);
        Arc::new(Self {
            dev,
            alloc,
            backups,
            oroots,
            cached_version: AtomicU64::new(rec.version),
            staged_root: AtomicU64::new(rec.root_oroot),
            cached_count: AtomicU64::new(rec.ckpt_count),
            commit_recovery,
            recorder,
            recovered_tail: Mutex::new(tail),
        })
    }

    /// Commit-record validation outcome of the recovery that produced this
    /// state (all-zero for a freshly formatted device).
    pub fn commit_recovery(&self) -> CommitRecovery {
        self.commit_recovery
    }

    /// The persistent flight recorder (see `treesls-obs`): a CRC-tagged
    /// event ring in the metadata arena that survives crashes.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Drains the flight-recorder events that survived the last crash
    /// (empty on a fresh format, and after the first call). The restore
    /// path publishes them in its `RecoveryReport` for forensics.
    pub fn take_recovered_events(&self) -> Vec<FlightEvent> {
        std::mem::take(&mut self.recovered_tail.lock())
    }

    /// Re-validates both commit-record slots against NVM *now*, returning
    /// the number with invalid CRCs (0, 1 or 2). Used by the scrub pass to
    /// catch media faults that landed after recovery.
    pub fn scrub_commit_records(&self) -> u32 {
        let (_, recovery) = Self::validate_commit_records(&self.dev);
        recovery.invalid_slots
    }

    /// The committed checkpoint count.
    pub fn checkpoint_count(&self) -> u64 {
        self.cached_count.load(Ordering::Acquire)
    }

    /// The committed global checkpoint version.
    #[inline]
    pub fn global_version(&self) -> u64 {
        self.cached_version.load(Ordering::Acquire)
    }

    /// Commits checkpoint `version`: writes the CRC-tagged commit record
    /// into its ping-pong slot — the atomic commit point of the whole
    /// checkpoint (step ❹ of Figure 5).
    ///
    /// Ordering: a `persist_barrier` first drains every pending line
    /// (backup pages, journal, rings) so the record never points at data
    /// that is still volatile; then the record fields land as aligned
    /// stores with the CRC last, followed by its own flush + fence.
    pub fn commit_version(&self, version: u64) {
        self.dev.persist_barrier();
        treesls_nvm::crash_site!(self.dev.crash_schedule(), "pers.pre_commit");
        let rec = CommitRecord {
            version,
            root_oroot: self.staged_root.load(Ordering::Acquire),
            ckpt_count: self.cached_count.load(Ordering::Acquire) + 1,
        };
        Self::write_commit_record(&self.dev, &rec);
        self.cached_version.store(version, Ordering::Release);
        self.cached_count.store(rec.ckpt_count, Ordering::Release);
        treesls_nvm::crash_site!(self.dev.crash_schedule(), "pers.post_commit");
    }

    /// Stages the root cap group's ORoot for the next commit record (set
    /// once, at the first checkpoint; durable only when that commits).
    pub fn set_root_oroot(&self, id: crate::types::OrootId) {
        self.staged_root.store(id.to_raw(), Ordering::Release);
    }

    /// Reads the root cap group's ORoot, if one was ever recorded.
    pub fn root_oroot(&self) -> Option<crate::types::OrootId> {
        let raw = self.staged_root.load(Ordering::Acquire);
        if raw == u64::MAX {
            None
        } else {
            Some(crate::types::OrootId::from_raw(raw))
        }
    }
}

/// The per-round epoch fence of the epoch flip.
///
/// While a checkpoint's copy phase is in progress every core keeps
/// running. A conflicting write to a page whose round image has not been
/// preserved yet must not destroy that image: the fault path consults
/// this fence and preserves the image in-line — a small write (≤ 64 B
/// changed) appends a record-level undo entry to the page's in-line log,
/// a large one captures the whole pre-write page (see `fault.rs`).
/// Nobody ever waits the fence out.
///
/// Armed only by the epoch flip's leader, disarmed right after the
/// commit record lands (from then on the ordinary post-commit CoW path
/// preserves images correctly). The stop-the-world protocol never arms
/// it: every core is parked for the whole copy phase.
#[derive(Debug, Default)]
pub struct EpochFence {
    active: AtomicBool,
    inflight: AtomicU64,
    /// Monotonic arm counter (starts at 1 on first arm, never reused).
    /// Captures are keyed to the round, not the version tag: an aborted
    /// round leaves stale captures carrying the same in-flight version,
    /// and the next round must not mistake them for its own.
    round: AtomicU64,
    /// Epoch-flip seal. While the fence is armed but *unsealed* the
    /// leader is still defining the round's page images (step grace +
    /// `mark_readonly` + queue cut), so a program step that started
    /// *after* the arm must not write yet: its first write spins until
    /// the seal (see `write_page_slot`), which makes every step land
    /// entirely before or entirely after the flip image — step-granular
    /// atomicity without parking any core. Steps that started before
    /// the arm write through freely; the leader's grace period waits
    /// them out before marking.
    sealed: AtomicBool,
}

impl EpochFence {
    /// Arms the fence, unsealed, for the round checkpointing version
    /// `inflight`: post-arm steps hold their first write until
    /// [`seal`](Self::seal). SeqCst so the arm totally orders against
    /// every core's step-start fence load — a step that missed the arm is
    /// provably visible to the leader's subsequent grace scan.
    pub fn arm(&self, inflight: u64) {
        self.inflight.store(inflight, Ordering::Release);
        self.sealed.store(false, Ordering::SeqCst);
        self.round.fetch_add(1, Ordering::SeqCst);
        self.active.store(true, Ordering::SeqCst);
    }

    /// Seals the flip: the round's images are all preserved (or capture-
    /// protected), held first writes may proceed into conflict capture.
    pub fn seal(&self) {
        self.sealed.store(true, Ordering::SeqCst);
    }

    /// Returns `true` once the armed round's flip images are defined.
    #[inline]
    pub fn sealed(&self) -> bool {
        self.sealed.load(Ordering::SeqCst)
    }

    /// The round counter if the fence is armed, else 0 (never a valid
    /// round: arming starts at 1). Step starts latch this with SeqCst
    /// ordering against their step-sequence publication.
    #[inline]
    pub fn active_round(&self) -> u64 {
        if self.active.load(Ordering::SeqCst) {
            self.round.load(Ordering::SeqCst)
        } else {
            0
        }
    }

    /// Disarms the fence (round committed or aborted). Also seals, so a
    /// write held at an aborted unsealed flip is released.
    pub fn disarm(&self) {
        self.active.store(false, Ordering::SeqCst);
        self.sealed.store(true, Ordering::SeqCst);
    }

    /// Returns `true` while an epoch-flip round is in flight.
    #[inline]
    pub fn active(&self) -> bool {
        self.active.load(Ordering::Acquire)
    }

    /// The version the in-flight round will commit as.
    #[inline]
    pub fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::Acquire)
    }

    /// The current arm counter (0 before the first arm, ≥1 after).
    #[inline]
    pub fn round(&self) -> u64 {
        self.round.load(Ordering::Acquire)
    }
}

/// The volatile kernel: runtime capability tree plus derived state.
#[derive(Debug)]
pub struct Kernel {
    /// Persistent state (shared with the checkpoint manager).
    pub pers: Arc<Persistent>,
    /// The volatile DRAM pool (hot-page cache).
    pub dram: Arc<DramPool>,
    /// Runtime object store: the nodes of the runtime capability tree.
    pub objects: RwLock<ObjectStore<Arc<KObject>>>,
    /// The root cap group, from which every object is reachable.
    pub root_cap_group: Mutex<Option<ObjId>>,
    /// The run queue.
    pub sched: Scheduler,
    /// Registered programs (the "executables on disk").
    pub programs: ProgramRegistry,
    /// Page-fault bookkeeping shared with the checkpoint manager.
    pub tracker: PageTracker,
    /// Per-round dirty object queue: `mark_dirty`'s false→true edge
    /// pushes here, the checkpoint leader drains it (O(changes) walk).
    pub dirty_queue: Arc<DirtyQueue>,
    /// Forces the next checkpoint to run a full reachability walk (set
    /// after restore, when the queue describes a dead runtime tree).
    pub force_full_next: AtomicBool,
    /// Checkpoint rounds since the last full walk (drives the periodic
    /// cycle-collecting walk of `KernelConfig::full_walk_interval`).
    pub rounds_since_full: AtomicU64,
    /// ORoots tombstoned but not yet reclaimed; the post-commit sweep
    /// drains this instead of scanning the whole ORoot table
    /// (O(deletions), volatile — restore re-derives deletions from
    /// reachability, so losing it is safe).
    pub pending_sweep: Mutex<Vec<OrootId>>,
    /// Per-round epoch fence consulted by the write-fault path while an
    /// epoch-flip round is copying concurrently with mutators.
    pub fence: EpochFence,
    /// Per-core step-boundary publication for the epoch flip's no-park
    /// grace period (see [`crate::cores::StepTracker`]).
    pub steps: crate::cores::StepTracker,
    /// Page slots that took a whole-page epoch capture or an in-line undo
    /// log during the current round's fence window, until the leader's
    /// `fold_epoch_captures` after the round commits or aborts (a page
    /// whose fold failed stays listed); volatile — restore re-derives
    /// everything from the per-slot persistent state.
    pub epoch_captures: Mutex<Vec<Arc<crate::pmo::PageSlot>>>,
    /// Fault/copy counters and timers (Figure 10 / Table 4).
    pub stats: KernelStats,
    /// Cross-cutting metrics registry (see `treesls-obs`), shared with the
    /// checkpoint manager and the external-synchrony layer.
    pub metrics: Arc<MetricsRegistry>,
    /// IRQ line → IrqNotification object (volatile; rebuilt on restore).
    pub irq_lines: Mutex<HashMap<u32, ObjId>>,
    /// Boot configuration.
    pub config: KernelConfig,
}

impl Kernel {
    /// Boots a fresh machine: formats NVM and creates the root cap group.
    pub fn boot(config: KernelConfig) -> Arc<Kernel> {
        let pers = Persistent::format(&config);
        let kernel = Self::from_parts(pers, config);
        let root = kernel.insert_object(ObjectBody::CapGroup(CapGroupBody::new("root")));
        *kernel.root_cap_group.lock() = Some(root.id());
        kernel
    }

    /// Assembles a kernel around existing persistent state (boot and
    /// restore paths). The runtime tree starts empty; the restore path
    /// fills it.
    pub fn from_parts(pers: Arc<Persistent>, config: KernelConfig) -> Arc<Kernel> {
        Arc::new(Kernel {
            pers,
            dram: Arc::new(DramPool::new(config.dram_pages)),
            objects: RwLock::new(ObjectStore::new()),
            root_cap_group: Mutex::new(None),
            sched: Scheduler::new(),
            programs: ProgramRegistry::new(),
            tracker: PageTracker::new(),
            dirty_queue: Arc::new(DirtyQueue::new()),
            force_full_next: AtomicBool::new(false),
            rounds_since_full: AtomicU64::new(0),
            pending_sweep: Mutex::new(Vec::new()),
            fence: EpochFence::default(),
            steps: crate::cores::StepTracker::default(),
            epoch_captures: Mutex::new(Vec::new()),
            stats: KernelStats::new(),
            metrics: Arc::new(MetricsRegistry::new()),
            irq_lines: Mutex::new(HashMap::new()),
            config,
        })
    }

    /// The root cap group id.
    ///
    /// # Panics
    ///
    /// Panics if the kernel has not finished boot/restore.
    pub fn root(&self) -> ObjId {
        self.root_cap_group.lock().expect("kernel not fully booted")
    }

    /// Inserts a new object into the runtime store.
    pub fn insert_object(&self, body: ObjectBody) -> Arc<KObject> {
        let obj = KObject::new(body);
        let id = self.objects.write().insert(Arc::clone(&obj));
        obj.set_id(id);
        obj.install_dirty_sink(Arc::clone(&self.dirty_queue));
        // Objects are born with the dirty flag already set, so the
        // mark_dirty edge can never fire for them — enqueue explicitly.
        self.dirty_queue.push(id);
        obj
    }

    /// Looks up a runtime object.
    pub fn object(&self, id: ObjId) -> Result<Arc<KObject>, KernelError> {
        self.objects.read().get(id).cloned().ok_or(KernelError::DeadObject)
    }

    /// Looks up an object expecting a specific type.
    pub fn typed_object(&self, id: ObjId, otype: ObjType) -> Result<Arc<KObject>, KernelError> {
        let o = self.object(id)?;
        if o.otype != otype {
            return Err(KernelError::BadCapability);
        }
        Ok(o)
    }

    /// Resolves capability `slot` of `cap_group` requiring `needed` rights.
    pub fn lookup_cap(
        &self,
        cap_group: ObjId,
        slot: CapSlot,
        needed: CapRights,
    ) -> Result<Capability, KernelError> {
        let group = self.typed_object(cap_group, ObjType::CapGroup)?;
        let body = group.body.read();
        match &*body {
            ObjectBody::CapGroup(g) => g.lookup_with(slot, needed),
            _ => unreachable!("typed_object checked CapGroup"),
        }
    }

    /// Installs a capability for `obj` into `cap_group`.
    pub fn install_cap(
        &self,
        cap_group: ObjId,
        obj: ObjId,
        rights: CapRights,
    ) -> Result<CapSlot, KernelError> {
        let group = self.typed_object(cap_group, ObjType::CapGroup)?;
        let mut body = group.body.write();
        let slot = match &mut *body {
            ObjectBody::CapGroup(g) => g.install(Capability { obj, rights }),
            _ => unreachable!(),
        };
        group.mark_dirty();
        Ok(slot)
    }

    // ---- object creation -------------------------------------------------

    /// Creates a process cap group and installs it in the root cap group.
    pub fn create_cap_group(&self, name: &str) -> Result<ObjId, KernelError> {
        let obj = self.insert_object(ObjectBody::CapGroup(CapGroupBody::new(name)));
        self.install_cap(self.root(), obj.id(), CapRights::ALL)?;
        Ok(obj.id())
    }

    /// Creates a VM space owned by `cap_group`.
    pub fn create_vmspace(&self, cap_group: ObjId) -> Result<ObjId, KernelError> {
        let obj = self.insert_object(ObjectBody::VmSpace(VmSpaceBody::new()));
        self.install_cap(cap_group, obj.id(), CapRights::ALL)?;
        Ok(obj.id())
    }

    /// Creates a PMO of `npages` pages owned by `cap_group`.
    ///
    /// Eternal PMOs (§5 of the paper) are fully materialized at creation:
    /// their pages must exist before the first checkpoint so that a restore
    /// can hand them back *unmodified* — ring buffers and driver state are
    /// fixed-size structures, so eager allocation is the natural shape.
    pub fn create_pmo(
        &self,
        cap_group: ObjId,
        npages: u64,
        kind: PmoKind,
    ) -> Result<ObjId, KernelError> {
        let mut pmo = Pmo::new(npages, kind);
        if kind == PmoKind::Eternal {
            for idx in 0..npages {
                let frame = self.pers.alloc.alloc_page()?;
                self.pers.dev.zero_page(frame);
                let slot = crate::pmo::PageSlot::new(idx, frame);
                slot.meta.lock().eternal = true;
                pmo.insert(idx, slot);
            }
        }
        let obj = self.insert_object(ObjectBody::Pmo(pmo));
        self.install_cap(cap_group, obj.id(), CapRights::ALL)?;
        Ok(obj.id())
    }

    /// Creates a notification owned by `cap_group`.
    pub fn create_notification(&self, cap_group: ObjId) -> Result<ObjId, KernelError> {
        let obj = self.insert_object(ObjectBody::Notification(NotifBody::new()));
        self.install_cap(cap_group, obj.id(), CapRights::ALL)?;
        Ok(obj.id())
    }

    /// Creates an IRQ notification bound to `line`, owned by `cap_group`.
    pub fn create_irq_notification(
        &self,
        cap_group: ObjId,
        line: u32,
    ) -> Result<ObjId, KernelError> {
        let obj = self.insert_object(ObjectBody::IrqNotification(IrqNotifBody::new(line)));
        self.install_cap(cap_group, obj.id(), CapRights::ALL)?;
        self.irq_lines.lock().insert(line, obj.id());
        Ok(obj.id())
    }

    /// Creates an IPC connection, installing capabilities in both the
    /// server and client cap groups. Returns the object id; each side
    /// receives its own slot.
    pub fn create_ipc_conn(
        &self,
        server_group: ObjId,
        client_group: ObjId,
    ) -> Result<(ObjId, CapSlot, CapSlot), KernelError> {
        let obj = self.insert_object(ObjectBody::IpcConnection(IpcConnBody::new()));
        let server_slot = self.install_cap(server_group, obj.id(), CapRights::ALL)?;
        let client_slot = if client_group == server_group {
            server_slot
        } else {
            self.install_cap(client_group, obj.id(), CapRights::READ.union(CapRights::WRITE))?
        };
        Ok((obj.id(), server_slot, client_slot))
    }

    /// Creates a thread and enqueues it.
    pub fn create_thread(
        &self,
        cap_group: ObjId,
        vmspace: ObjId,
        program: &str,
        ctx: ThreadContext,
    ) -> Result<ObjId, KernelError> {
        if self.programs.get(program).is_none() {
            return Err(KernelError::InvalidState("program not registered"));
        }
        let obj = self.insert_object(ObjectBody::Thread(ThreadBody {
            ctx,
            state: ThreadState::Runnable,
            program: program.to_string(),
            cap_group,
            vmspace,
            on_cpu: false,
        }));
        self.install_cap(cap_group, obj.id(), CapRights::ALL)?;
        self.sched.enqueue(obj.id());
        Ok(obj.id())
    }

    /// Maps `npages` of `pmo` (starting at page `pmo_off`) at virtual page
    /// `base` in `vmspace`.
    pub fn map_region(
        &self,
        vmspace: ObjId,
        base: Vpn,
        npages: u64,
        pmo: ObjId,
        pmo_off: u64,
        perm: CapRights,
    ) -> Result<(), KernelError> {
        let vs = self.typed_object(vmspace, ObjType::VmSpace)?;
        // Validate the PMO exists and the range fits.
        let p = self.typed_object(pmo, ObjType::Pmo)?;
        {
            let pb = p.body.read();
            if let ObjectBody::Pmo(pmo_body) = &*pb {
                if pmo_off + npages > pmo_body.npages {
                    return Err(KernelError::InvalidState("region exceeds PMO capacity"));
                }
            }
        }
        let mut body = vs.body.write();
        let ok = match &mut *body {
            ObjectBody::VmSpace(v) => {
                v.map_region(VmRegion { base, npages, pmo, pmo_off, perm })
            }
            _ => unreachable!(),
        };
        if !ok {
            return Err(KernelError::InvalidState("region overlaps existing mapping"));
        }
        vs.mark_dirty();
        Ok(())
    }

    /// Unmaps the region starting at `base` from `vmspace`, dropping its
    /// page-table entries.
    ///
    /// The backing PMO and its pages are untouched (a PMO may be mapped in
    /// several spaces); drop the PMO's capability to delete the object.
    pub fn unmap_region(&self, vmspace: ObjId, base: Vpn) -> Result<(), KernelError> {
        let vs = self.typed_object(vmspace, ObjType::VmSpace)?;
        let mut body = vs.body.write();
        let ObjectBody::VmSpace(v) = &mut *body else { unreachable!() };
        let region = v
            .unmap_region(base)
            .ok_or(KernelError::InvalidState("no region at that base"))?;
        for vpn in region.base.0..region.base.0 + region.npages {
            v.page_table.remove(Vpn(vpn));
        }
        vs.mark_dirty();
        Ok(())
    }

    /// Removes one materialized page from a PMO.
    ///
    /// The NVM frames are *not* freed here: the backup capability tree may
    /// still need them to restore the last committed checkpoint. The next
    /// checkpoint tombstones the page in the backup radix tree and a later
    /// one reclaims the frames — the deferred reclamation of §4.1's
    /// "reuse the radix tree in subsequent checkpoints" bookkeeping.
    pub fn pmo_remove_page(&self, pmo: ObjId, index: u64) -> Result<bool, KernelError> {
        let p = self.typed_object(pmo, ObjType::Pmo)?;
        let mut body = p.body.write();
        let ObjectBody::Pmo(pb) = &mut *body else { unreachable!() };
        if pb.kind == crate::pmo::PmoKind::Eternal {
            return Err(KernelError::InvalidState("eternal PMOs never shrink"));
        }
        let removed = pb.remove(index).is_some();
        if removed {
            p.mark_dirty();
        }
        Ok(removed)
    }

    /// Revokes capability `slot` from `cap_group`.
    ///
    /// If this was the last reference, the object becomes unreachable and
    /// the next checkpoint marks it deleted; the sweep after the following
    /// commit reclaims its backups (§4.1 deletion handling).
    pub fn revoke_cap(&self, cap_group: ObjId, slot: CapSlot) -> Result<(), KernelError> {
        let group = self.typed_object(cap_group, ObjType::CapGroup)?;
        let mut body = group.body.write();
        let ObjectBody::CapGroup(g) = &mut *body else { unreachable!() };
        g.revoke(slot)?;
        group.mark_dirty();
        Ok(())
    }

    // ---- thread wake/block helpers ----------------------------------------

    /// Marks `tid` runnable and enqueues it unless it is currently on a
    /// core (the core re-enqueues it at step end — see `ThreadBody::on_cpu`).
    pub fn wake_thread(&self, tid: ObjId) {
        let Ok(th) = self.typed_object(tid, ObjType::Thread) else { return };
        let mut body = th.body.write();
        if let ObjectBody::Thread(t) = &mut *body {
            if t.state == ThreadState::Exited {
                return;
            }
            t.state = ThreadState::Runnable;
            th.mark_dirty();
            if !t.on_cpu {
                self.sched.enqueue(tid);
            }
        }
    }

    fn block_thread(&self, tid: ObjId, on: BlockedOn) -> Result<(), KernelError> {
        let th = self.typed_object(tid, ObjType::Thread)?;
        let mut body = th.body.write();
        if let ObjectBody::Thread(t) = &mut *body {
            t.state = ThreadState::Blocked(on);
            th.mark_dirty();
        }
        Ok(())
    }

    // ---- notification syscalls --------------------------------------------

    /// `notif_wait`: consume a signal or block.
    pub fn notif_wait(
        &self,
        thread: ObjId,
        cap_group: ObjId,
        slot: CapSlot,
    ) -> Result<bool, KernelError> {
        let cap = self.lookup_cap(cap_group, slot, CapRights::READ)?;
        let notif = self.object(cap.obj)?;
        // Registration and self-blocking must be atomic under the
        // notification lock: if the lock were released in between, a
        // signal could wake the thread before it marks itself blocked and
        // the self-block would overwrite the wake (lost-wakeup deadlock).
        let mut body = notif.body.write();
        let acquired = match &mut *body {
            ObjectBody::Notification(n) => n.wait(thread),
            ObjectBody::IrqNotification(irq) => irq.inner.wait(thread),
            _ => return Err(KernelError::BadCapability),
        };
        notif.mark_dirty();
        if !acquired {
            // Lock order: notification body → thread body.
            self.block_thread(thread, BlockedOn::Notification(cap.obj))?;
        }
        Ok(acquired)
    }

    /// `notif_signal`: signal, waking one waiter if present.
    pub fn notif_signal(&self, cap_group: ObjId, slot: CapSlot) -> Result<(), KernelError> {
        let cap = self.lookup_cap(cap_group, slot, CapRights::WRITE)?;
        self.signal_object(cap.obj)
    }

    /// Signals a notification object directly (kernel-internal use and the
    /// virtual IRQ path).
    pub fn signal_object(&self, notif_id: ObjId) -> Result<(), KernelError> {
        let notif = self.object(notif_id)?;
        let woken = {
            let mut body = notif.body.write();
            let woken = match &mut *body {
                ObjectBody::Notification(n) => n.signal(),
                ObjectBody::IrqNotification(irq) => irq.inner.signal(),
                _ => return Err(KernelError::BadCapability),
            };
            notif.mark_dirty();
            woken
        };
        if let Some(tid) = woken {
            self.wake_thread(tid);
        }
        Ok(())
    }

    /// Signals a batch of notification objects in one pass (doorbell
    /// fan-in): each notification's counter is bumped under its own body
    /// lock, the woken waiters are collected, and the scheduler is poked
    /// once for the whole batch instead of once per doorbell. Invalid ids
    /// in the batch are skipped — a device re-arming many queues must not
    /// lose the rest because one queue's doorbell was revoked.
    pub fn signal_objects(&self, notif_ids: &[ObjId]) {
        let mut woken = Vec::new();
        for &id in notif_ids {
            let Ok(notif) = self.object(id) else { continue };
            let mut body = notif.body.write();
            let tid = match &mut *body {
                ObjectBody::Notification(n) => n.signal(),
                ObjectBody::IrqNotification(irq) => irq.inner.signal(),
                _ => continue,
            };
            notif.mark_dirty();
            drop(body);
            if let Some(tid) = tid {
                woken.push(tid);
            }
        }
        // Mark runnable first (each under its thread lock), then hand the
        // whole batch to the scheduler with one lock acquisition.
        let mut enqueue = Vec::with_capacity(woken.len());
        for tid in woken {
            let Ok(th) = self.typed_object(tid, ObjType::Thread) else { continue };
            let mut body = th.body.write();
            if let ObjectBody::Thread(t) = &mut *body {
                if t.state == ThreadState::Exited {
                    continue;
                }
                t.state = ThreadState::Runnable;
                th.mark_dirty();
                if !t.on_cpu {
                    enqueue.push(tid);
                }
            }
        }
        self.sched.enqueue_batch(&enqueue);
    }

    /// Raises virtual interrupt `line`, signalling its IRQ notification.
    pub fn raise_irq(&self, line: u32) -> Result<(), KernelError> {
        let id = self
            .irq_lines
            .lock()
            .get(&line)
            .copied()
            .ok_or(KernelError::InvalidState("no IRQ notification bound to line"))?;
        self.signal_object(id)
    }

    // ---- IPC syscalls ------------------------------------------------------

    /// `ipc_call`: enqueue a request and block awaiting the reply.
    pub fn ipc_call(
        &self,
        thread: ObjId,
        cap_group: ObjId,
        slot: CapSlot,
        data: Vec<u8>,
    ) -> Result<(), KernelError> {
        let cap = self.lookup_cap(cap_group, slot, CapRights::WRITE)?;
        let conn = self.typed_object(cap.obj, ObjType::IpcConnection)?;
        // The request becomes visible to the server the moment the
        // connection lock drops, so the client must already be marked
        // blocked by then — otherwise a fast server could reply and wake
        // the client before its self-block, which would then overwrite
        // the wake (lost-wakeup deadlock).
        let wake = {
            let mut body = conn.body.write();
            let wake = match &mut *body {
                ObjectBody::IpcConnection(c) => c.call(thread, data)?,
                _ => unreachable!(),
            };
            conn.mark_dirty();
            // Lock order: connection body → thread body.
            self.block_thread(thread, BlockedOn::IpcReply(cap.obj))?;
            wake
        };
        if let Some(server) = wake {
            self.wake_thread(server);
        }
        Ok(())
    }

    /// `ipc_recv`: dequeue the next request or block as recv waiter.
    pub fn ipc_recv(
        &self,
        thread: ObjId,
        cap_group: ObjId,
        slot: CapSlot,
    ) -> Result<Option<(u64, Vec<u8>)>, KernelError> {
        let cap = self.lookup_cap(cap_group, slot, CapRights::READ)?;
        let conn = self.typed_object(cap.obj, ObjType::IpcConnection)?;
        // Register-as-waiter and self-block are atomic under the
        // connection lock (see ipc_call for the lost-wakeup hazard).
        let mut body = conn.body.write();
        let msg = match &mut *body {
            ObjectBody::IpcConnection(c) => c.recv(thread)?,
            _ => unreachable!(),
        };
        conn.mark_dirty();
        match msg {
            Some(m) => Ok(Some((m.from.to_raw(), m.data))),
            None => {
                // Lock order: connection body → thread body.
                self.block_thread(thread, BlockedOn::IpcRecv(cap.obj))?;
                Ok(None)
            }
        }
    }

    /// `ipc_reply`: stage the reply and wake the blocked client.
    pub fn ipc_reply(
        &self,
        cap_group: ObjId,
        slot: CapSlot,
        client_token: u64,
        data: Vec<u8>,
    ) -> Result<(), KernelError> {
        let client = ObjId::from_raw(client_token);
        let cap = self.lookup_cap(cap_group, slot, CapRights::WRITE)?;
        let conn = self.typed_object(cap.obj, ObjType::IpcConnection)?;
        {
            let mut body = conn.body.write();
            match &mut *body {
                ObjectBody::IpcConnection(c) => c.reply(client, data)?,
                _ => unreachable!(),
            }
            conn.mark_dirty();
        }
        self.wake_thread(client);
        Ok(())
    }

    /// Consumes the staged reply for `thread` on the connection in `slot`.
    pub fn ipc_take_reply(
        &self,
        thread: ObjId,
        cap_group: ObjId,
        slot: CapSlot,
    ) -> Result<Option<Vec<u8>>, KernelError> {
        let cap = self.lookup_cap(cap_group, slot, CapRights::READ)?;
        let conn = self.typed_object(cap.obj, ObjType::IpcConnection)?;
        let mut body = conn.body.write();
        let r = match &mut *body {
            ObjectBody::IpcConnection(c) => c.take_reply(thread),
            _ => unreachable!(),
        };
        if r.is_some() {
            conn.mark_dirty();
        }
        Ok(r)
    }

    // ---- census (Table 2) --------------------------------------------------

    /// Counts live runtime objects by type.
    pub fn census(&self) -> HashMap<ObjType, usize> {
        let mut counts: HashMap<ObjType, usize> = HashMap::new();
        for (_, obj) in self.objects.read().iter() {
            *counts.entry(obj.otype).or_insert(0) += 1;
        }
        counts
    }

    /// Total materialized application memory in bytes (Table 2 "App").
    pub fn app_memory_bytes(&self) -> u64 {
        let mut pages = 0u64;
        for (_, obj) in self.objects.read().iter() {
            if obj.otype == ObjType::Pmo {
                if let ObjectBody::Pmo(p) = &*obj.body.read() {
                    pages += p.materialized() as u64;
                }
            }
        }
        pages * treesls_nvm::PAGE_SIZE as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> KernelConfig {
        KernelConfig { nvm_frames: 512, dram_pages: 32, ..KernelConfig::default() }
    }

    #[test]
    fn boot_creates_root_group() {
        let k = Kernel::boot(small());
        let root = k.root();
        let obj = k.object(root).unwrap();
        assert_eq!(obj.otype, ObjType::CapGroup);
        assert_eq!(k.census()[&ObjType::CapGroup], 1);
    }

    #[test]
    fn process_scaffolding_reachable_from_root() {
        let k = Kernel::boot(small());
        let g = k.create_cap_group("proc").unwrap();
        let vs = k.create_vmspace(g).unwrap();
        let pmo = k.create_pmo(g, 16, PmoKind::Data).unwrap();
        let n = k.create_notification(g).unwrap();
        k.map_region(vs, Vpn(0), 16, pmo, 0, CapRights::ALL).unwrap();
        let census = k.census();
        assert_eq!(census[&ObjType::CapGroup], 2);
        assert_eq!(census[&ObjType::VmSpace], 1);
        assert_eq!(census[&ObjType::Pmo], 1);
        assert_eq!(census[&ObjType::Notification], 1);
        // All created objects distinct.
        assert_ne!(vs, pmo);
        assert_ne!(pmo, n);
    }

    #[test]
    fn map_region_validates_pmo_capacity() {
        let k = Kernel::boot(small());
        let g = k.create_cap_group("p").unwrap();
        let vs = k.create_vmspace(g).unwrap();
        let pmo = k.create_pmo(g, 4, PmoKind::Data).unwrap();
        assert!(matches!(
            k.map_region(vs, Vpn(0), 5, pmo, 0, CapRights::ALL),
            Err(KernelError::InvalidState(_))
        ));
        k.map_region(vs, Vpn(0), 4, pmo, 0, CapRights::ALL).unwrap();
        // Overlap rejected.
        assert!(k.map_region(vs, Vpn(3), 1, pmo, 0, CapRights::ALL).is_err());
    }

    #[test]
    fn notification_wait_signal_across_threads() {
        let k = Kernel::boot(small());
        let g = k.create_cap_group("p").unwrap();
        let n = k.create_notification(g).unwrap();
        // Find the cap slot for the notification in g.
        let group = k.object(g).unwrap();
        let slot = {
            let b = group.body.read();
            match &*b {
                ObjectBody::CapGroup(cg) => {
                    cg.iter().find(|(_, c)| c.obj == n).map(|(s, _)| s).unwrap()
                }
                _ => unreachable!(),
            }
        };
        // Two fake threads (objects in the store so ids are live).
        let vs = k.create_vmspace(g).unwrap();
        k.programs.register("idle", Arc::new(crate::cores::IdleProgram));
        let t1 = k.create_thread(g, vs, "idle", ThreadContext::new()).unwrap();
        // Signal first: wait consumes without blocking.
        k.notif_signal(g, slot).unwrap();
        assert!(k.notif_wait(t1, g, slot).unwrap());
        // Now wait blocks...
        assert!(!k.notif_wait(t1, g, slot).unwrap());
        let th = k.typed_object(t1, ObjType::Thread).unwrap();
        if let ObjectBody::Thread(t) = &*th.body.read() {
            assert!(matches!(t.state, ThreadState::Blocked(BlockedOn::Notification(_))));
        }
        // ...and signal wakes it.
        k.notif_signal(g, slot).unwrap();
        if let ObjectBody::Thread(t) = &*th.body.read() {
            assert_eq!(t.state, ThreadState::Runnable);
        };
    }

    #[test]
    fn ipc_call_recv_reply_flow() {
        let k = Kernel::boot(small());
        let g = k.create_cap_group("srv").unwrap();
        let vs = k.create_vmspace(g).unwrap();
        k.programs.register("idle", Arc::new(crate::cores::IdleProgram));
        let server = k.create_thread(g, vs, "idle", ThreadContext::new()).unwrap();
        let client = k.create_thread(g, vs, "idle", ThreadContext::new()).unwrap();
        let (_conn, sslot, cslot) = k.create_ipc_conn(g, g).unwrap();
        assert_eq!(sslot, cslot); // same group

        // Server receives: nothing pending → blocks.
        assert!(k.ipc_recv(server, g, sslot).unwrap().is_none());
        // Client calls → server wakes with the message next recv.
        k.ipc_call(client, g, cslot, b"ping".to_vec()).unwrap();
        let (tok, data) = k.ipc_recv(server, g, sslot).unwrap().unwrap();
        assert_eq!(data, b"ping");
        assert_eq!(tok, client.to_raw());
        // Reply wakes the client, which takes the reply.
        k.ipc_reply(g, sslot, tok, b"pong".to_vec()).unwrap();
        assert_eq!(k.ipc_take_reply(client, g, cslot).unwrap(), Some(b"pong".to_vec()));
    }

    #[test]
    fn rights_enforced_by_syscalls() {
        let k = Kernel::boot(small());
        let g = k.create_cap_group("p").unwrap();
        let n = k.create_notification(g).unwrap();
        // Install a read-only alias capability.
        let ro_slot = k.install_cap(g, n, CapRights::READ).unwrap();
        assert_eq!(k.notif_signal(g, ro_slot), Err(KernelError::PermissionDenied));
    }

    #[test]
    fn irq_raise_signals_bound_notification() {
        let k = Kernel::boot(small());
        let g = k.create_cap_group("drv").unwrap();
        let irq = k.create_irq_notification(g, 7).unwrap();
        k.raise_irq(7).unwrap();
        let o = k.object(irq).unwrap();
        if let ObjectBody::IrqNotification(b) = &*o.body.read() {
            assert_eq!(b.inner.count, 1);
        }
        assert!(k.raise_irq(9).is_err());
    }

    #[test]
    fn global_version_roundtrip() {
        let k = Kernel::boot(small());
        assert_eq!(k.pers.global_version(), 0);
        k.pers.commit_version(7);
        assert_eq!(k.pers.global_version(), 7);
        // Version 7 lands in slot 1 with a valid CRC; slot 0 still holds
        // the genesis record.
        let meta = k.pers.dev.meta();
        let slot = global_meta::slot_off(7);
        assert_eq!(slot, global_meta::COMMIT_SLOT1_OFF);
        assert_eq!(meta.read_u64(slot + global_meta::REC_VERSION), 7);
        assert_eq!(meta.read_u64(slot + global_meta::REC_COUNT), 1);
        assert_eq!(meta.read_u64(global_meta::COMMIT_SLOT0_OFF + global_meta::REC_VERSION), 0);
        assert_eq!(k.pers.checkpoint_count(), 1);
    }

    #[test]
    fn torn_commit_record_falls_back_a_generation() {
        let k = Kernel::boot(small());
        k.pers.commit_version(1);
        k.pers.commit_version(2);
        // Tear the in-flight record for version 3: write garbage into
        // slot 1 without a matching CRC.
        let meta = k.pers.dev.meta();
        let slot = global_meta::slot_off(3);
        meta.write_u64(slot + global_meta::REC_VERSION, 3);
        let (rec, info) = Persistent::validate_commit_records(&k.pers.dev);
        assert_eq!(rec.version, 2, "recovery lands on generation N-1");
        assert!(info.fell_back);
        assert_eq!(info.invalid_slots, 1);
    }
}
