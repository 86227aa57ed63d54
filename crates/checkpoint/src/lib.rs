//! The TreeSLS checkpoint manager: tree-structured whole-system state
//! checkpoint on NVM (§3–§4 of the paper) and the restore path (§4.2).
//!
//! [`CheckpointManager::checkpoint`] performs one whole-system checkpoint
//! following Figure 5:
//!
//! 1. ❶ the leader IPIs all cores into a quiescent state
//!    ([`treesls_kernel::cores::StwController`]);
//! 2. ❷ the leader copies the capability tree to the backup tree
//!    ([`tree::checkpoint_tree`]) and re-arms copy-on-write by marking
//!    newly-changed pages read-only ([`hybrid::mark_readonly`]);
//! 3. ❸ in parallel, the other cores run the hybrid-copy batch over the
//!    active page list ([`hybrid`]);
//! 4. ❹ the commit point: a single `u64` store bumping the global version
//!    ([`treesls_kernel::kernel::Persistent::commit_version`]);
//! 5. ❺ the leader resumes the world, then invokes the registered
//!    checkpoint callbacks (transparent external synchrony, §5).
//!
//! [`restore()`] rebuilds a whole runtime system from the backup tree after
//! a simulated power failure (step ❼). It, [`CheckpointManager::verify_checkpoint`],
//! [`CheckpointManager::scrub`] and the replication shipper all read the
//! committed tree through one [`CommittedImage`].

#![deny(missing_docs)]

pub mod hybrid;
pub mod image;
pub mod restore;
pub mod stats;
pub mod tree;

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use treesls_kernel::cores::{HybridWork, StwController};
use treesls_kernel::fault::KernelStatsSnapshot;
use treesls_kernel::object::ObjType;
use treesls_kernel::types::KernelError;
use treesls_kernel::Kernel;

pub use image::{CommittedImage, ImageError, PageCheck, PageSource};
pub use restore::{
    crash, restore, CrashImage, QuarantinedPage, RecoveryReport, RestorePhases, RestoreReport,
};
pub use stats::{HybridRoundStats, MinMax, ObjectTimeTable, StwBreakdown};

/// Outcome of a [`CheckpointManager::scrub`] pass over the committed
/// checkpoint's integrity tags (§8 "Data Reliability": periodic scrubbing
/// detects silent media corruption *before* a recovery depends on it).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Backup page images whose checksum was verified.
    pub pages_scanned: u64,
    /// Backup page entries carrying no checksum (runtime pages and images
    /// from checkpoints predating checksum tagging).
    pub pages_untagged: u64,
    /// `(frame, version)` of every image whose stored CRC no longer
    /// matches its contents.
    pub corrupt_pages: Vec<(treesls_nvm::FrameId, u64)>,
    /// Commit-record slots (0–2) that currently fail CRC validation. One
    /// invalid slot is expected right after a torn commit; two means the
    /// recovery anchor itself is gone.
    pub invalid_commit_slots: u32,
}

impl ScrubReport {
    /// `true` when every tagged image and the commit anchor verified.
    pub fn is_clean(&self) -> bool {
        self.corrupt_pages.is_empty() && self.invalid_commit_slots == 0
    }
}

/// Callback hooks for transparent external synchrony (§5).
///
/// User-space services (e.g. the network server) register one; the
/// checkpoint callback runs after every commit so the service can advance
/// its visible-writer pointers, and the restore callback runs at the end of
/// recovery so it can reconcile ring-buffer state with the external world.
pub trait CkptCallback: Send + Sync {
    /// Invoked after checkpoint `version` committed and the world resumed.
    fn on_checkpoint(&self, version: u64);
    /// Invoked at the end of a recovery that restored `version`.
    fn on_restore(&self, _version: u64) {}
    /// Invoked *inside* the stop window, before the round's image is cut,
    /// for the round that will commit as `version`. Under the epoch flip
    /// every core keeps producing state through the copy phase, so a
    /// service whose release barrier must match the checkpoint image
    /// (e.g. the NIC's TX visibility barrier) snapshots its cut-off here
    /// — against the flip, not the later commit. Must be fast and must
    /// not take checkpoint-ordered locks.
    fn on_epoch(&self, _version: u64) {}
}

/// The write set of one committed checkpoint round, captured for
/// checkpoint-shipping replication before the post-commit sweep destroys
/// the evidence (tombstoned ORoots leave the store inside the pause).
///
/// The dirty-queue drain *is* the delta: `rewritten` lists every ORoot
/// whose backup record the round (re)wrote, `tombstoned` every ORoot the
/// round deleted. A replica holding round `round − 1` plus this delta
/// holds round `round`.
#[derive(Debug, Clone, Default)]
pub struct RoundDelta {
    /// The committed version this delta produces.
    pub round: u64,
    /// ORoots whose backup record was (re)written this round.
    pub rewritten: Vec<treesls_kernel::types::OrootId>,
    /// ORoots tombstoned (deleted) this round.
    pub tombstoned: Vec<treesls_kernel::types::OrootId>,
}

/// What steps ❶–❸ of one round ([`CheckpointManager::pre_commit`])
/// leave for the commit.
struct PreCommit {
    inflight: u64,
    work: Arc<HybridWork>,
    counters: Arc<hybrid::RoundCounters>,
    /// The tree copy's outcome; on `Err` the round must not commit.
    tree: Result<tree::TreeOutcome, KernelError>,
    /// Start of the pause.
    t_pause: Instant,
    /// Start of the copy phase.
    t_conc: Instant,
    ipi: Duration,
    mark: Duration,
    cap_tree: Duration,
    hybrid_wait: Duration,
    /// The flip's pause under the epoch flip, whose world already
    /// resumed; `None` under full quiesce, whose world is still stopped.
    flip_pause: Option<Duration>,
}

/// The in-kernel checkpoint manager.
pub struct CheckpointManager {
    kernel: Arc<Kernel>,
    stw: Arc<StwController>,
    /// Table 3 aggregates.
    pub table: Mutex<ObjectTimeTable>,
    /// Figure 9a/9b breakdowns, most recent last; once 65536 records
    /// accumulate the oldest is evicted, so long runs keep the
    /// steady-state tail rather than the warm-up prefix.
    pub breakdowns: Mutex<VecDeque<StwBreakdown>>,
    /// Table 4 per-round hybrid stats, most recent last (bounded like
    /// `breakdowns`).
    pub hybrid_rounds: Mutex<VecDeque<HybridRoundStats>>,
    last_faults: Mutex<KernelStatsSnapshot>,
    callbacks: Mutex<Vec<Arc<dyn CkptCallback>>>,
    round_delta: Mutex<Option<RoundDelta>>,
}

/// Retain at most this many per-round records.
const HISTORY_CAP: usize = 65536;

/// Appends `v` to a history buffer bounded at `cap`, evicting the oldest
/// record once full (the buffer always holds the most recent `cap`
/// entries, never a frozen prefix).
fn push_capped<T>(buf: &mut VecDeque<T>, cap: usize, v: T) {
    if buf.len() >= cap {
        buf.pop_front();
    }
    buf.push_back(v);
}

impl CheckpointManager {
    /// Creates a manager for `kernel` using `stw` for quiescence.
    pub fn new(kernel: Arc<Kernel>, stw: Arc<StwController>) -> Arc<Self> {
        Arc::new(Self {
            kernel,
            stw,
            table: Mutex::new(ObjectTimeTable::default()),
            breakdowns: Mutex::new(VecDeque::new()),
            hybrid_rounds: Mutex::new(VecDeque::new()),
            last_faults: Mutex::new(KernelStatsSnapshot::default()),
            callbacks: Mutex::new(Vec::new()),
            round_delta: Mutex::new(None),
        })
    }

    /// The kernel this manager checkpoints.
    pub fn kernel(&self) -> &Arc<Kernel> {
        &self.kernel
    }

    /// The stop-the-world controller.
    pub fn stw(&self) -> &Arc<StwController> {
        &self.stw
    }

    /// Registers an external-synchrony callback.
    pub fn register_callback(&self, cb: Arc<dyn CkptCallback>) {
        self.callbacks.lock().push(cb);
    }

    /// Registers a callback at the *front* of the invocation order.
    ///
    /// Callbacks run in registration order; a replication shipper must run
    /// before the NIC's visibility barrier so the barrier observes the
    /// round's quorum-durable bound, even when the NIC was registered
    /// first (e.g. by a deployment helper).
    pub fn register_callback_front(&self, cb: Arc<dyn CkptCallback>) {
        self.callbacks.lock().insert(0, cb);
    }

    /// Takes the write set of the most recent committed round (set just
    /// before the checkpoint callbacks fire; `None` once consumed or if no
    /// round committed since). Consumed by the replication shipper.
    pub fn take_round_delta(&self) -> Option<RoundDelta> {
        self.round_delta.lock().take()
    }

    /// Invokes all restore callbacks (called by the `System` facade at the
    /// end of recovery).
    pub fn fire_restore_callbacks(&self, version: u64) {
        for cb in self.callbacks.lock().iter() {
            cb.on_restore(version);
        }
    }

    /// Steps ❶–❸ of one round: quiesce (or flip), mark, copy the
    /// capability tree and drain the hybrid batch. [`checkpoint`] and
    /// [`checkpoint_interrupted_before_commit`] both run exactly this
    /// sequence, so a test that interrupts a round runs the production
    /// one. Under full quiesce the world is still stopped on return;
    /// under the epoch flip it resumed at the flip.
    ///
    /// [`checkpoint`]: Self::checkpoint
    /// [`checkpoint_interrupted_before_commit`]: Self::checkpoint_interrupted_before_commit
    fn pre_commit(&self) -> Result<PreCommit, KernelError> {
        let kernel = &self.kernel;
        let inflight = kernel.pers.global_version() + 1;

        // Fold what an aborted (or deliberately interrupted) round left
        // tagged with this very in-flight version, or this round's commit
        // would validate it. A page whose fold cannot get a frame keeps the
        // round from starting. Near-free when the list is empty.
        kernel.fold_epoch_captures()?;

        let counters = Arc::new(hybrid::RoundCounters::default());
        let work = hybrid::build_work(kernel, inflight, Arc::clone(&counters));

        let sched = kernel.pers.dev.crash_schedule();
        kernel.pers.recorder().record(
            treesls_obs::EventKind::CkptBegin,
            [inflight, kernel.tracker.active_len() as u64, 0, 0, 0, 0],
        );
        let t_pause = Instant::now();
        let flip = !kernel.config.force_full_quiesce;
        // ❶ Full quiesce parks every core; they start pulling hybrid-copy
        // items (❸) and keep polling the batch's aux queue for offloaded
        // tree work. The epoch flip parks nobody and does not hand the
        // batch out: the leader runs it itself after the flip,
        // concurrently with the running cores.
        let ipi = self.stw.stop_world((!flip).then(|| Arc::clone(&work)), kernel);
        // Step atomicity against the flip comes from the fence instead of
        // parking: arm it unsealed, wait the step grace period out (every
        // step in flight at the arm finishes with write-through semantics
        // — cores keep running), then mark and cut while post-arm steps
        // hold their first write at the seal. Every program step thus
        // lands entirely before or entirely after the round's image.
        if flip {
            kernel.fence.arm(inflight);
            kernel.steps.wait_step_grace();
        }
        treesls_nvm::crash_site!(sched, "ckpt.stw_stopped");
        kernel.pers.recorder().record(
            treesls_obs::EventKind::PartialQuiesce,
            [
                inflight,
                self.stw.stopped_cores() as u64,
                self.stw.cores() as u64,
                self.stw.stop_mask(),
                u64::from(!flip),
                kernel.stats.epoch_conflicts.load(Ordering::Relaxed),
            ],
        );
        // Epoch cut-off for external-synchrony services: their release
        // barrier must match the checkpoint image, which under the flip
        // is defined by this instant, not by the end of the round.
        treesls_nvm::crash_site!(sched, "stw.epoch_fence");
        for cb in self.callbacks.lock().iter() {
            cb.on_epoch(inflight);
        }

        // ❷ Leader: mark newly-changed pages read-only (attributed to VM
        // Space checkpointing per the paper), then copy the capability
        // tree.
        let t_mark = Instant::now();
        hybrid::mark_readonly(kernel);
        let mark = t_mark.elapsed();
        treesls_nvm::crash_site!(sched, "ckpt.marked_ro");

        // Epoch flip: cut the dirty queue with one pointer swap — the
        // frozen logical snapshot this round drains — and resume the
        // world. Everything after this point runs concurrently with
        // mutators; post-flip writes land in the live queue for the next
        // round and self-capture their flip images on first conflict.
        let mut flip_pause = None;
        let cut = if flip {
            let queue_depth = kernel.dirty_queue.depth();
            let stop_mask = self.stw.stop_mask();
            let cut = kernel.dirty_queue.take_cut();
            treesls_nvm::crash_site!(sched, "stw.epoch_flip");
            // Seal after the cut: writes released from the seal push
            // their dirty entries into the fresh live queue, never into
            // the cut the drain below is walking.
            kernel.fence.seal();
            // Measure the flip *before* releasing the world: once
            // `resume_world` lands, freshly woken mutators may claim the
            // CPU ahead of this thread, and that scheduler handoff is
            // mutator runtime, not pause.
            let p = t_pause.elapsed();
            self.stw.resume_world();
            flip_pause = Some(p);
            kernel.metrics.record_epoch_flip();
            kernel.pers.recorder().record(
                treesls_obs::EventKind::EpochFlip,
                [
                    inflight,
                    kernel.fence.round(),
                    queue_depth,
                    stop_mask,
                    p.as_nanos() as u64,
                    0,
                ],
            );
            treesls_nvm::crash_site!(sched, "ckpt.concurrent_drain");
            Some(cut)
        } else {
            None
        };

        let t_conc = Instant::now();
        let tree = tree::checkpoint_tree(kernel, inflight, Some(&work), cut);
        let cap_tree = t_conc.elapsed();
        treesls_nvm::crash_site!(sched, "ckpt.tree_copied");

        // ❸ Join and drain the hybrid-copy batch. Under the flip no core
        // is parked to share it: the leader runs the whole batch here,
        // still concurrently with mutators (first-write captures in
        // `fault.rs` have already preserved any page a mutator touched
        // first).
        let t_hyb = Instant::now();
        if flip {
            work.run_available();
            while !work.is_done() {
                std::thread::yield_now();
            }
        } else {
            self.stw.finish_hybrid_work();
        }
        let hybrid_wait = t_hyb.elapsed();
        treesls_nvm::crash_site!(sched, "ckpt.hybrid_drained");
        counters.busy_ns.store(work.busy_ns(), Ordering::Relaxed);

        Ok(PreCommit {
            inflight,
            work,
            counters,
            tree,
            t_pause,
            t_conc,
            ipi,
            mark,
            cap_tree,
            hybrid_wait,
            flip_pause,
        })
    }

    /// Takes one whole-system checkpoint (Figure 5 ❶–❺).
    ///
    /// Two protocols, chosen by `KernelConfig::force_full_quiesce`:
    ///
    /// * **stop-the-world** (`true`, the paper's protocol): every core
    ///   parks for the whole copy phase;
    /// * **epoch flip** (the default): the stop window shrinks to a flip —
    ///   arm the fence, snapshot per-service TX writers via `on_epoch`,
    ///   mark, cut the dirty queue (one pointer swap), seal, resume — and
    ///   the tree walk, record builds, and page copies all run
    ///   concurrently with mutators. Every first conflicting write of the
    ///   round preserves its page's flip image in-line (whole-page
    ///   capture or a ≤-cache-line undo-log record, see `fault.rs`), so no
    ///   core ever parks for the copy phase and the pause is
    ///   O(write-set marking), independent of heap size.
    ///
    /// On error the world is resumed without committing; the previous
    /// checkpoint remains the recovery point.
    pub fn checkpoint(&self) -> Result<StwBreakdown, KernelError> {
        let kernel = &self.kernel;
        let sched = kernel.pers.dev.crash_schedule();
        let PreCommit {
            inflight,
            work,
            counters,
            tree,
            t_pause,
            t_conc,
            ipi,
            mark,
            cap_tree,
            hybrid_wait,
            flip_pause,
        } = self.pre_commit()?;

        let mut outcome = match tree {
            Ok(o) => o,
            Err(e) => {
                // Abort: resume without committing — but still give the
                // taken active list back to the tracker. The fence drops
                // with the round; its in-flight captures are ignored by
                // restore (tags never became valid). Under the flip the
                // world already resumed, and leftover captures/logs are
                // folded down so a committing re-run of the same version
                // cannot mistake them for its own (`pre_commit` retries a
                // page whose fold fails here).
                kernel.fence.disarm();
                if flip_pause.is_some() {
                    let _ = kernel.fold_epoch_captures();
                } else {
                    self.stw.resume_world();
                }
                hybrid::compact_active_list(kernel, Some(&work));
                return Err(e);
            }
        };

        // ❹ Commit point.
        let t_others = Instant::now();
        treesls_nvm::crash_site!(sched, "ckpt.pre_commit");
        kernel.pers.commit_version(inflight);
        // The round's image is committed: racing writes now fall back to
        // ordinary CoW (which tags against the new global version), so
        // the fence has nothing left to protect.
        kernel.fence.disarm();
        treesls_nvm::crash_site!(sched, "ckpt.post_commit");
        // Eager fold: the round's whole-page captures become their pages'
        // backups (anchoring allocates nothing, so this cannot fail);
        // in-line logs stay, they are the pages' durable images.
        let _ = kernel.fold_epoch_captures();
        let _ = tree::sweep_deleted(kernel, inflight);
        let cached = hybrid::compact_active_list(kernel, Some(&work));
        let others = t_others.elapsed();
        treesls_nvm::crash_site!(sched, "ckpt.post_sweep");

        // ❺ Resume (the flip resumed at the flip; its pause is the flip
        // alone, and the copy phase's wall time is exported as a gauge).
        let total_pause = match flip_pause {
            Some(p) => {
                kernel.metrics.set_concurrent_copy_ns(t_conc.elapsed().as_nanos() as u64);
                p
            }
            None => {
                self.stw.resume_world();
                t_pause.elapsed()
            }
        };
        // Telemetry (outside the pause): one flight-recorder slot with the
        // per-phase durations, plus the registry's counters and pause
        // histogram.
        kernel.pers.recorder().record(
            treesls_obs::EventKind::CkptCommit,
            [
                inflight,
                ipi.as_nanos() as u64,
                (cap_tree + mark).as_nanos() as u64,
                others.as_nanos() as u64,
                counters.busy_ns.load(Ordering::Relaxed),
                total_pause.as_nanos() as u64,
            ],
        );
        kernel.metrics.record_checkpoint(total_pause.as_nanos() as u64);
        kernel.metrics.record_hybrid(
            counters.migrated_in.load(Ordering::Relaxed),
            counters.sac_copies.load(Ordering::Relaxed),
            counters.evicted.load(Ordering::Relaxed),
        );
        kernel.metrics.record_tree_walk(
            outcome.full_walk,
            outcome.dirty_drained as u64,
            outcome.copied as u64,
            outcome.offloaded as u64,
            outcome.tombstoned as u64,
        );
        kernel.metrics.set_ckpt_gauges(
            kernel.dirty_queue.depth(),
            kernel.pers.oroots.contention() + kernel.pers.backups.contention(),
        );
        kernel.metrics.set_quiesced_cores(self.stw.stopped_cores() as u64);
        kernel.pers.recorder().record(
            treesls_obs::EventKind::TreeWalk,
            [
                inflight,
                u64::from(outcome.full_walk),
                outcome.dirty_drained as u64,
                outcome.copied as u64,
                outcome.offloaded as u64,
                outcome.tombstoned as u64,
            ],
        );

        // Stash the round's write set for the replication shipper before
        // the callbacks run (the shipper is itself a callback). A delta
        // nobody consumed is superseded: replicas that missed it will
        // detect the round gap and resync.
        *self.round_delta.lock() = Some(RoundDelta {
            round: inflight,
            rewritten: std::mem::take(&mut outcome.rewritten),
            tombstoned: std::mem::take(&mut outcome.tombstoned_ids),
        });

        // External synchrony callbacks (outside the pause).
        treesls_nvm::crash_site!(sched, "ckpt.pre_callbacks");
        for cb in self.callbacks.lock().iter() {
            cb.on_checkpoint(inflight);
        }
        treesls_nvm::crash_site!(sched, "ckpt.post_callbacks");

        // Bookkeeping.
        let mut per_type = outcome.per_type.clone();
        *per_type.entry(ObjType::VmSpace).or_default() += mark;
        let breakdown = StwBreakdown {
            version: inflight,
            ipi,
            cap_tree: cap_tree + mark,
            per_type,
            others,
            hybrid_wait,
            hybrid_busy: Duration::from_nanos(
                counters.busy_ns.load(Ordering::Relaxed),
            ),
            total_pause,
            objects_copied: outcome.copied,
            objects_skipped: outcome.skipped,
        };
        {
            let mut table = self.table.lock();
            for (otype, full, d) in &outcome.samples {
                table.add_ckpt(*otype, *full, *d);
            }
        }
        {
            let faults_now = kernel.stats.snapshot();
            let mut last = self.last_faults.lock();
            let delta = faults_now.since(&last);
            *last = faults_now;
            let round = HybridRoundStats {
                runtime_faults: delta.write_faults,
                dirty_cached: counters.sac_copies.load(Ordering::Relaxed),
                cached: cached as u64,
                migrated_in: counters.migrated_in.load(Ordering::Relaxed),
                evicted: counters.evicted.load(Ordering::Relaxed),
            };
            push_capped(&mut self.hybrid_rounds.lock(), HISTORY_CAP, round);
        }
        push_capped(&mut self.breakdowns.lock(), HISTORY_CAP, breakdown.clone());
        Ok(breakdown)
    }

    /// Performs every step of a checkpoint *except* the commit (step ❹),
    /// simulating a power failure in the instant before the global version
    /// bump: the backup tree carries in-flight version tags that never
    /// became valid.
    ///
    /// Testing hook for the §4.2 correctness argument — a subsequent
    /// crash-and-restore must reproduce the **previous** committed version
    /// exactly, ignoring all in-flight tags. Not used by production paths.
    pub fn checkpoint_interrupted_before_commit(&self) -> Result<(), KernelError> {
        let round = self.pre_commit()?;
        // Power failure here: no commit, no sweep, no callbacks — but the
        // machine keeps running until the simulated crash, so the taken
        // active list must go back to the tracker. Epoch captures and
        // in-line logs are deliberately *left in place* carrying their
        // never-valid in-flight tags: restore must ignore them, and a
        // subsequent `checkpoint` folds them down before re-arming.
        self.kernel.fence.disarm();
        hybrid::compact_active_list(&self.kernel, Some(&round.work));
        if round.flip_pause.is_none() {
            self.stw.resume_world();
        }
        round.tree.map(|_| ())
    }

    /// Verifies the integrity of the committed checkpoint (§8 "Data
    /// Reliability"): the allocator metadata must satisfy its invariants,
    /// the [`CommittedImage`] must walk from its root (every reachable
    /// object has a well-typed committed record), and every live page
    /// entry of a reachable PMO must resolve — under restore's own rule —
    /// to an intact committed image ([`CommittedImage::check`]). Returns
    /// the number of objects checked.
    ///
    /// Intended to run between checkpoints (it takes the backup locks); a
    /// production system would run it against a quiesced or shadow copy.
    pub fn verify_checkpoint(&self) -> Result<usize, String> {
        use treesls_kernel::oroot::{BackupObject, BkPageEntry};
        let pers = &self.kernel.pers;
        let image = CommittedImage::open(pers).map_err(|e| format!("{e:?}"))?;
        pers.alloc.verify()?;
        let reachable = image.walk().map_err(|e| format!("{e:?}"))?;
        for &(id, _, vb) in &reachable {
            let Some(BackupObject::Pmo { pages, npages, .. }) = pers.backups.get_cloned(vb.slot)
            else {
                continue;
            };
            let intact = |e: &BkPageEntry| {
                matches!(image.check(&e.slot.meta.lock()), Some(PageCheck::Intact(_)))
            };
            let bad = pages.iter().find(|&(idx, e)| {
                e.live_at(image.version()) && (idx >= npages || !intact(e))
            });
            if let Some((idx, _)) = bad {
                return Err(format!("ORoot {id:?}: page {idx} is unrecoverable or out of range"));
            }
        }
        Ok(reachable.len())
    }

    /// Total bytes of checkpoint state currently on NVM (Table 2 "Ckpt"):
    /// backup records plus page frames that hold *backup* images (runtime
    /// pages with version 0 are counted as application memory, not
    /// checkpoint — the paper's point that NVM lets the checkpoint reuse
    /// runtime pages).
    pub fn ckpt_size_bytes(&self) -> u64 {
        use treesls_kernel::oroot::BackupObject;
        let mut bytes = 0u64;
        self.kernel.pers.backups.for_each(|_, record| {
            bytes += record.approx_size() as u64;
            if let BackupObject::Pmo { pages, .. } = record {
                pages.for_each(|_, e| {
                    let held = e.slot.meta.lock().frames().filter(|&(_, v)| v != 0).count();
                    bytes += (held * treesls_nvm::PAGE_SIZE) as u64;
                });
            }
        });
        bytes
    }

    /// Scrubs the committed checkpoint's integrity tags (§8): recomputes
    /// the checksum of every committed backup page image and re-validates
    /// the commit-record slots, reporting (not repairing) every mismatch.
    ///
    /// Only *committed* images are checked (`0 < version ≤ global`):
    /// in-flight tags belong to a checkpoint that does not exist yet, and
    /// version-0 entries are runtime pages the application may be writing.
    /// Each generation is validated by the rule restore's page check
    /// ([`CommittedImage::check`]) applies to it.
    pub fn scrub(&self) -> ScrubReport {
        use treesls_kernel::oroot::BackupObject;
        let pers = &self.kernel.pers;
        let mut report = ScrubReport {
            invalid_commit_slots: pers.scrub_commit_records(),
            ..ScrubReport::default()
        };
        // Before the first commit no generation is committed.
        let Ok(image) = CommittedImage::open(pers) else { return report };
        pers.backups.for_each(|_, record| {
            let BackupObject::Pmo { pages, .. } = record else { return };
            pages.for_each(|_, e| {
                let meta = e.slot.meta.lock();
                for p in meta.pairs.iter().flatten() {
                    if p.version == 0 || p.version > image.version() {
                        continue;
                    }
                    match p.crc {
                        None => report.pages_untagged += 1,
                        Some(_) => {
                            report.pages_scanned += 1;
                            if !image.validates(p) {
                                report.corrupt_pages.push((p.frame, p.version));
                            }
                        }
                    }
                }
            });
        });
        report
    }
}

impl std::fmt::Debug for CheckpointManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointManager")
            .field("version", &self.kernel.pers.global_version())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn history_evicts_oldest_not_newest() {
        let mut buf: VecDeque<u64> = VecDeque::new();
        for i in 0..10 {
            push_capped(&mut buf, 4, i);
        }
        // The last `cap` records survive; the warm-up prefix is evicted.
        assert_eq!(buf.iter().copied().collect::<Vec<_>>(), vec![6, 7, 8, 9]);
    }

    #[test]
    fn history_below_cap_keeps_everything() {
        let mut buf: VecDeque<u64> = VecDeque::new();
        for i in 0..3 {
            push_capped(&mut buf, 4, i);
        }
        assert_eq!(buf.iter().copied().collect::<Vec<_>>(), vec![0, 1, 2]);
    }
}
