//! Simulated CPU cores and the stop-the-world (IPI) controller.
//!
//! Figure 5 of the paper: "❶ A leader CPU core sends IPI requests to all
//! other cores to force them into a quiescent state. ... ❸ In parallel to
//! the leader core checkpointing the capability tree, other cores
//! speculatively copy a certain set of page objects. ... ❺ The leader core
//! sends IPI requests to other cores to inform them to resume execution."
//!
//! Cores here are OS worker threads running application program steps; the
//! IPI is a flag checked at every kernel entry (step boundary), matching
//! the paper's "interrupts are disabled in the kernel space, so the IPI
//! will not interrupt a core modifying object state in the kernel" — cores
//! quiesce only between steps, never mid-syscall. While parked, cores pull
//! hybrid-copy work items (step ❸) before waiting for the resume signal.
//!
//! ## Two protocols
//!
//! [`StwController::stop_world`] stops either every registered core or
//! none. `KernelConfig::force_full_quiesce` selects the paper's
//! stop-the-world protocol: every core parks for the whole copy phase.
//! The default epoch flip parks nobody: cores keep running behind the
//! kernel's per-round [`EpochFence`] — a post-arm step's first write
//! waits for the seal, and a first conflicting write to a page whose
//! round image is not yet preserved is captured in-line (see
//! `fault.rs`) — and during the flip window their scheduler pulls are
//! restricted to their own affinity queue, so an unpinned thread cannot
//! start a slice while the leader defines the round's image.
//!
//! [`EpochFence`]: crate::kernel::EpochFence

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::kernel::Kernel;
use crate::object::ObjectBody;
use crate::pmo::PageSlot;
use crate::program::{Program, StepOutcome, UserCtx};
use crate::thread::ThreadState;
use crate::types::ObjId;

/// Core id of threads that are not kernel cores (host drivers, the
/// checkpoint leader, tests). Their writes never latch a fence round:
/// state mutated off-core is protected by per-object locks, not by
/// quiescence.
pub const NO_CORE: u32 = u32::MAX;

thread_local! {
    /// The simulated core id of the calling OS thread (`NO_CORE` for
    /// threads that are not core workers: the leader, hosts, tests).
    static CURRENT_CORE: std::cell::Cell<u32> = const { std::cell::Cell::new(NO_CORE) };

    /// The epoch-fence round the calling core latched at the start of
    /// its current program step (0 between steps or when the fence was
    /// unarmed at step start). `write_page_slot` compares this against
    /// the live fence round to tell pre-arm in-flight steps — which
    /// write through and are waited out by the leader's grace period —
    /// from post-arm steps, which hold their first write until the flip
    /// seals.
    static CURRENT_STEP_ROUND: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The core id of the calling thread (`NO_CORE` off-core). Used by the
/// write path to tell core steps, which the flip's grace protocol
/// tracks, from off-core writers.
#[inline]
pub fn current_core() -> u32 {
    CURRENT_CORE.with(|c| c.get())
}

/// Declares the calling thread to be core `core` (called once per core
/// worker at spawn; tests may use it to impersonate a core).
pub fn set_current_core(core: u32) {
    CURRENT_CORE.with(|c| c.set(core));
}

/// The fence round the calling core's current program step latched at
/// its start (0 off-step / off-core / pre-arm).
#[inline]
pub fn current_step_round() -> u64 {
    CURRENT_STEP_ROUND.with(|r| r.get())
}

/// Per-core program-step publication: the shared half of the epoch
/// flip's no-park atomicity protocol (the private half is the
/// [`current_step_round`] latch).
///
/// Each core bumps its sequence word around every program step — odd
/// while mid-step, even between steps — with SeqCst ordering against
/// the fence-round latch taken at step start. The flip leader arms the
/// fence unsealed and then runs [`wait_step_grace`]: any core whose
/// step predates the arm is still odd-and-unchanged in the scan, so the
/// leader waits (the step is at most microseconds; the core never
/// parks). A core whose step postdates the arm either finishes without
/// writing, or publishes [`blocked`] and spins at its first write until
/// the seal — both let the scan pass it. After the grace period every
/// write the leader can race belongs to a whole step on exactly one
/// side of the flip.
///
/// [`wait_step_grace`]: Self::wait_step_grace
/// [`blocked`]: Self::set_blocked
#[derive(Debug)]
pub struct StepTracker {
    /// Per-core step sequence (odd = mid-step). Indexed by core id,
    /// matching the 64-bit stop mask's core-id space.
    seqs: [AtomicU64; 64],
    /// Cores currently spinning at the fence seal inside their first
    /// write — mid-step by definition, but safe for the grace scan to
    /// pass: the held write has not executed, and it will land in a
    /// conflict capture once sealed.
    blocked: [AtomicBool; 64],
}

impl Default for StepTracker {
    fn default() -> Self {
        Self {
            seqs: [const { AtomicU64::new(0) }; 64],
            blocked: [const { AtomicBool::new(false) }; 64],
        }
    }
}

impl StepTracker {
    /// Marks the calling core mid-step and latches `fence_round` (the
    /// fence's [`active_round`] read *after* the sequence bump — the
    /// SeqCst pairing the grace scan relies on).
    ///
    /// [`active_round`]: crate::kernel::EpochFence::active_round
    #[inline]
    pub fn begin_step(&self, core: u32, fence_round: u64) {
        if let Some(seq) = self.seqs.get(core as usize) {
            seq.fetch_add(1, Ordering::SeqCst);
        }
        CURRENT_STEP_ROUND.with(|r| r.set(fence_round));
    }

    /// Marks the calling core between steps and clears its round latch.
    #[inline]
    pub fn end_step(&self, core: u32) {
        CURRENT_STEP_ROUND.with(|r| r.set(0));
        if let Some(seq) = self.seqs.get(core as usize) {
            seq.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Publishes whether the calling core is spinning at the fence seal.
    #[inline]
    pub fn set_blocked(&self, core: u32, blocked: bool) {
        if let Some(b) = self.blocked.get(core as usize) {
            b.store(blocked, Ordering::SeqCst);
        }
    }

    /// Leader: waits until no program step that started before the
    /// (just-armed, unsealed) fence is still executing. A core passes
    /// the scan once it is between steps, has advanced to a new step
    /// (which then latched the armed round), or is spinning at the
    /// seal. Bounded by one program step per core; no core parks.
    pub fn wait_step_grace(&self) {
        let snap: Vec<u64> = self.seqs.iter().map(|s| s.load(Ordering::SeqCst)).collect();
        loop {
            let settled = self.seqs.iter().enumerate().all(|(i, s)| {
                let cur = s.load(Ordering::SeqCst);
                cur.is_multiple_of(2) || cur != snap[i] || self.blocked[i].load(Ordering::SeqCst)
            });
            if settled {
                return;
            }
            std::thread::yield_now();
        }
    }
}

/// The per-slot closure a [`HybridWork`] batch runs on each worker core.
pub type SlotRunner = Box<dyn Fn(&Arc<PageSlot>) + Send + Sync>;

/// A deferred task fed to quiescent cores through the auxiliary queue
/// (leader-offloaded backup-record builds).
pub type AuxTask = Box<dyn FnOnce() + Send>;

/// A batch of hybrid-copy work executed by quiescent cores during the
/// stop-the-world pause.
///
/// Two kinds of work flow through one batch:
///
/// * **page items** — the active-list snapshot, claimed lock-free by index
///   (Figure 5 step ❸). The vector is taken from the page tracker by
///   pointer swap and given back at compaction, so building the batch
///   allocates nothing proportional to the list.
/// * **auxiliary tasks** — closures the leader publishes *mid-pause*
///   (backup-record build chunks). Cores that finish their page items poll
///   the aux queue until the leader closes it, so the quiesced cores keep
///   absorbing leader work for the whole tree-walk phase.
pub struct HybridWork {
    /// Page items; behind a mutex only so the compactor can take the
    /// vector back — claiming locks just long enough to clone one `Arc`.
    items: Mutex<Vec<Arc<PageSlot>>>,
    /// Item count, fixed at construction (lock-free `is_done`).
    count: usize,
    next: AtomicUsize,
    done: AtomicUsize,
    runner: SlotRunner,
    /// Leader-published deferred tasks.
    aux: Mutex<VecDeque<AuxTask>>,
    /// Once set, no further aux tasks will arrive; pollers may leave.
    aux_closed: AtomicBool,
    /// Aux tasks published but not yet finished executing.
    aux_pending: AtomicUsize,
    /// Nanoseconds spent by all cores processing page items (two
    /// timestamps per core per round, not two per item).
    busy_ns: AtomicU64,
    /// Nanoseconds spent by all cores executing aux tasks (two timestamps
    /// per task chunk).
    aux_busy_ns: AtomicU64,
}

impl std::fmt::Debug for HybridWork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HybridWork")
            .field("items", &self.count)
            .field("done", &self.done.load(Ordering::Relaxed))
            .field("aux_pending", &self.aux_pending.load(Ordering::Relaxed))
            .finish()
    }
}

impl HybridWork {
    /// Creates a work batch over `items` processed by `runner`, with the
    /// aux queue already closed (pure page batch — the historical shape,
    /// still used by tests driving `stop_world` directly).
    pub fn new(
        items: Vec<Arc<PageSlot>>,
        runner: impl Fn(&Arc<PageSlot>) + Send + Sync + 'static,
    ) -> Arc<Self> {
        let w = Self::with_offload(items, runner);
        w.close_aux();
        w
    }

    /// Creates a work batch whose aux queue is open: cores finishing their
    /// page items keep polling for leader-published tasks until
    /// [`close_aux`](Self::close_aux) is called. The checkpoint path uses
    /// this to offload backup-record builds to the quiesced cores.
    pub fn with_offload(
        items: Vec<Arc<PageSlot>>,
        runner: impl Fn(&Arc<PageSlot>) + Send + Sync + 'static,
    ) -> Arc<Self> {
        let count = items.len();
        Arc::new(Self {
            items: Mutex::new(items),
            count,
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            runner: Box::new(runner),
            aux: Mutex::new(VecDeque::new()),
            aux_closed: AtomicBool::new(false),
            aux_pending: AtomicUsize::new(0),
            busy_ns: AtomicU64::new(0),
            aux_busy_ns: AtomicU64::new(0),
        })
    }

    /// Claims and processes page items until the batch is exhausted, then
    /// drains the aux queue until it is closed.
    pub fn run_available(&self) {
        let t0 = Instant::now();
        let mut claimed = 0usize;
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.count {
                break;
            }
            let slot = self.items.lock().get(i).map(Arc::clone);
            if let Some(slot) = slot {
                (self.runner)(&slot);
            }
            claimed += 1;
            self.done.fetch_add(1, Ordering::Release);
        }
        if claimed > 0 {
            self.busy_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        self.drain_aux();
    }

    /// Publishes a deferred task for any quiescent core (or the leader via
    /// [`drain_aux`](Self::drain_aux)) to execute.
    ///
    /// # Panics
    ///
    /// Panics if the aux queue was already closed.
    pub fn push_aux(&self, task: AuxTask) {
        assert!(!self.aux_closed.load(Ordering::Acquire), "push_aux after close");
        self.aux_pending.fetch_add(1, Ordering::AcqRel);
        self.aux.lock().push_back(task);
    }

    /// Closes the aux queue: pollers drain what remains and leave.
    /// Idempotent.
    pub fn close_aux(&self) {
        self.aux_closed.store(true, Ordering::Release);
    }

    /// Returns `true` while the aux queue accepts tasks.
    pub fn aux_open(&self) -> bool {
        !self.aux_closed.load(Ordering::Acquire)
    }

    /// Executes aux tasks until the queue is both empty and closed.
    pub fn drain_aux(&self) {
        loop {
            let task = self.aux.lock().pop_front();
            match task {
                Some(t) => {
                    let t0 = Instant::now();
                    t();
                    self.aux_busy_ns
                        .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    self.aux_pending.fetch_sub(1, Ordering::AcqRel);
                }
                None => {
                    if self.aux_closed.load(Ordering::Acquire) {
                        return;
                    }
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Leader: closes the queue is assumed already; helps drain and then
    /// blocks until every published task (including ones claimed by other
    /// cores) has finished. Call after [`close_aux`](Self::close_aux).
    pub fn join_aux(&self) {
        self.drain_aux();
        while self.aux_pending.load(Ordering::Acquire) != 0 {
            std::thread::yield_now();
        }
    }

    /// Returns `true` once every aux task has finished and the queue is
    /// closed.
    pub fn aux_done(&self) -> bool {
        self.aux_closed.load(Ordering::Acquire)
            && self.aux_pending.load(Ordering::Acquire) == 0
    }

    /// Returns `true` once every page item and aux task has been processed.
    pub fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire) >= self.count && self.aux_done()
    }

    /// Nanoseconds cores spent processing page items.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns.load(Ordering::Relaxed)
    }

    /// Nanoseconds cores spent executing offloaded aux tasks.
    pub fn aux_busy_ns(&self) -> u64 {
        self.aux_busy_ns.load(Ordering::Relaxed)
    }

    /// Takes the page-item vector back out (active-list give-back after
    /// the batch has drained). Subsequent claims see missing items and
    /// skip them.
    pub fn take_items(&self) -> Vec<Arc<PageSlot>> {
        std::mem::take(&mut *self.items.lock())
    }

    /// Number of page items in the batch.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Returns `true` if the batch has no page items.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// The stop-the-world controller: the simulated IPI fabric.
#[derive(Debug, Default)]
pub struct StwController {
    pending: AtomicBool,
    /// Copy-phase gate: set by the leader only once every stopped core
    /// is parked. A core arriving at the quiescence gate early must not
    /// touch the hybrid batch before this — other stopped cores may
    /// still be mid-step, and copying a page concurrently with program
    /// writes captures a torn image into the checkpoint. (Under the
    /// epoch flip nobody stops; the epoch fence protects the round's
    /// images instead, see `fault.rs`.)
    go: AtomicBool,
    registered: AtomicUsize,
    quiescent: AtomicUsize,
    epoch: Mutex<u64>,
    cv: Condvar,
    work: Mutex<Option<Arc<HybridWork>>>,
    /// Cores the current (or last) round parks — the quiescence target:
    /// every registered core under full quiesce, none under the epoch
    /// flip.
    stop_count: AtomicUsize,
    /// Cores currently executing a slice of an *unpinned* thread. The
    /// leader waits for this to reach zero after requesting a pause:
    /// such slices break at their next step boundary — so the wait is at
    /// most one program step long.
    unpinned_active: AtomicUsize,
    /// Aggregate nanoseconds cores spent parked in `participate` since
    /// the last [`take_paused_ns`] — the per-core pause the epoch flip
    /// removes. (Wall pause time divides the same tree-copy work over
    /// both protocols; this sums only actually-parked core time.)
    ///
    /// [`take_paused_ns`]: Self::take_paused_ns
    paused_ns: AtomicU64,
    /// Instant [`resume_world`] last released the gate. Parked-time
    /// accounting charges a core up to this release instant, not until
    /// the host OS actually reschedules its thread: the post-release
    /// wake-up latency is simulation-host noise (acute on single-CPU
    /// hosts, where the leader's concurrent copy keeps the CPU busy),
    /// not part of the checkpoint protocol's pause.
    ///
    /// [`resume_world`]: Self::resume_world
    released_at: Mutex<Option<Instant>>,
}

impl StwController {
    /// Creates a controller with no cores registered.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `n` additional cores (called by [`CoreSet::start`]).
    pub fn add_cores(&self, n: usize) {
        self.registered.fetch_add(n, Ordering::SeqCst);
    }

    /// Unregisters `n` cores (called when a core set stops).
    pub fn remove_cores(&self, n: usize) {
        self.registered.fetch_sub(n, Ordering::SeqCst);
    }

    /// Number of registered cores.
    pub fn cores(&self) -> usize {
        self.registered.load(Ordering::SeqCst)
    }

    /// Returns `true` if a stop-the-world pause is requested or active.
    #[inline]
    pub fn pending(&self) -> bool {
        self.pending.load(Ordering::Acquire)
    }

    /// Returns `true` if `core` must park for the current pause: a pause
    /// is pending and the round stops every core. Off-core callers
    /// (`NO_CORE`) conservatively report `true` while a pause is pending,
    /// preserving the historical `pending()` semantics for direct
    /// `run_slice` drivers.
    #[inline]
    pub fn should_park(&self, core: u32) -> bool {
        self.pending.load(Ordering::Acquire)
            && (core == NO_CORE || self.stop_count.load(Ordering::Acquire) != 0)
    }

    /// Number of cores the current (or last) round actually stopped: all
    /// registered cores under full quiesce, 0 under the epoch flip.
    pub fn stopped_cores(&self) -> usize {
        self.stop_count.load(Ordering::Acquire)
    }

    /// The current round's stop bitmask: all registered cores or none
    /// (zero outside a pause).
    pub fn stop_mask(&self) -> u64 {
        if !self.pending() {
            return 0;
        }
        match self.stopped_cores() {
            n if n >= 64 => u64::MAX,
            n => (1u64 << n) - 1,
        }
    }

    /// Leader: requests quiescence and waits for the stop set to park.
    ///
    /// `KernelConfig::force_full_quiesce` stops every registered core
    /// (the paper's protocol); the default epoch flip stops none — it
    /// only raises `pending`, which restricts scheduler pulls and drains
    /// in-flight unpinned slices. `work` is the hybrid-copy batch the
    /// parked cores will execute (Figure 5 step ❸). Returns the IPI
    /// round-trip time — the Figure 9a "IPI" component.
    ///
    /// # Panics
    ///
    /// Panics if a pause is already in progress.
    pub fn stop_world(&self, work: Option<Arc<HybridWork>>, kernel: &Kernel) -> Duration {
        assert!(!self.pending(), "nested stop_world");
        // Drain stragglers from the previous round: a core still inside
        // `participate`'s exit path would otherwise be double-counted
        // toward this round's (possibly smaller) quiescence target.
        while self.quiescent.load(Ordering::SeqCst) != 0 {
            std::thread::yield_now();
        }
        *self.work.lock() = work;
        let t0 = Instant::now();
        let target = if kernel.config.force_full_quiesce {
            self.registered.load(Ordering::SeqCst)
        } else {
            // Epoch flip: *no* core parks. Step atomicity against the
            // flip image comes from the fence protocol instead of
            // parking: the leader arms the fence unsealed,
            // [`StepTracker::wait_step_grace`] drains pre-arm in-flight
            // steps (cores keep running), and post-arm steps hold their
            // first write at the seal — so the quiescence handshake,
            // whose serialized per-core park latency dominated the flip
            // on small hosts, buys nothing.
            0
        };
        self.stop_count.store(target, Ordering::SeqCst);
        self.pending.store(true, Ordering::SeqCst);
        // Kick sleeping cores so they reach the gate promptly, then
        // yield-spin on the quiescent count: handing the CPU straight to
        // a runnable core beats a condvar round-trip per parker (the
        // epoch flip's dominant cost on single-CPU hosts). Re-kick only
        // sparingly — hammering `wake_all` floods idle cores with
        // wakeups whose processing then steals the CPU from the leader
        // in the middle of the flip window.
        kernel.sched.wake_all();
        let mut spins = 0u32;
        while self.quiescent.load(Ordering::SeqCst) < target {
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(1024) {
                kernel.sched.wake_all();
            }
            std::thread::yield_now();
        }
        // A free core may have pulled an unpinned thread just before the
        // pause became visible; its slice breaks at the very next step
        // boundary. Wait it out so no unpinned thread executes a step
        // after this returns.
        while self.unpinned_active.load(Ordering::SeqCst) != 0 {
            std::thread::yield_now();
        }
        // Every stopped core is parked: open the copy phase. Not before —
        // a core that reached the gate early would otherwise start
        // stop-and-copy while a late core is still executing a program
        // step, tearing multi-word invariants inside the copied page.
        self.go.store(true, Ordering::SeqCst);
        self.cv.notify_all();
        t0.elapsed()
    }

    /// Leader: joins the hybrid-copy batch and waits for it to drain.
    ///
    /// Must be called between [`stop_world`] and [`resume_world`]; the
    /// leader contributes its own cycles once the tree copy is finished,
    /// then blocks until in-flight items complete.
    ///
    /// [`stop_world`]: Self::stop_world
    /// [`resume_world`]: Self::resume_world
    pub fn finish_hybrid_work(&self) {
        let work = self.work.lock().clone();
        if let Some(w) = work {
            w.run_available();
            while !w.is_done() {
                // Another core is finishing its last item; yield the CPU
                // (essential on single-CPU hosts where spinning would
                // starve that very core).
                std::thread::yield_now();
            }
        }
    }

    /// Leader: releases all cores (Figure 5 step ❺).
    pub fn resume_world(&self) {
        let mut gate = self.epoch.lock();
        *self.released_at.lock() = Some(Instant::now());
        *self.work.lock() = None;
        self.go.store(false, Ordering::SeqCst);
        self.pending.store(false, Ordering::SeqCst);
        *gate += 1;
        self.cv.notify_all();
    }

    /// Blocks until every core that parked for the last round has left
    /// `participate` (so [`take_paused_ns`] reads a complete round).
    ///
    /// [`take_paused_ns`]: Self::take_paused_ns
    pub fn wait_all_resumed(&self) {
        while self.quiescent.load(Ordering::SeqCst) != 0 {
            std::thread::yield_now();
        }
    }

    /// Detaches the aggregate core-parked nanoseconds accumulated since
    /// the last call (bench instrumentation).
    pub fn take_paused_ns(&self) -> u64 {
        self.paused_ns.swap(0, Ordering::AcqRel)
    }

    /// Core: parks at the quiescence gate until resumed, contributing to
    /// the hybrid-copy batch while parked.
    pub fn participate(&self) {
        let t0 = Instant::now();
        let mut gate = self.epoch.lock();
        let entry_epoch = *gate;
        self.quiescent.fetch_add(1, Ordering::SeqCst);
        self.cv.notify_all();
        // Wait for the leader to declare full quiescence before touching
        // the copy batch: arriving early means another core may still be
        // running user steps, and hybrid copy must never overlap them.
        while *gate == entry_epoch && self.pending() && !self.go.load(Ordering::SeqCst) {
            self.cv.wait_for(&mut gate, Duration::from_millis(1));
        }
        let copy_open = *gate == entry_epoch && self.pending();
        // Pull speculative-copy work (outside the gate lock).
        drop(gate);
        if copy_open {
            let work = self.work.lock().clone();
            if let Some(w) = work {
                w.run_available();
            }
        }
        gate = self.epoch.lock();
        while *gate == entry_epoch && self.pending() {
            self.cv.wait_for(&mut gate, Duration::from_millis(1));
        }
        // Charge this core up to the leader's release instant. The next
        // round's `stop_world` drains `quiescent` before it can resume
        // again, so the stored instant is still this round's release —
        // and it cannot predate `t0` by more than a racing fast round
        // (which the saturating subtraction clamps to zero).
        let parked = self
            .released_at
            .lock()
            .map(|r| r.saturating_duration_since(t0))
            .unwrap_or_else(|| t0.elapsed());
        self.quiescent.fetch_sub(1, Ordering::SeqCst);
        drop(gate);
        self.paused_ns.fetch_add(parked.as_nanos() as u64, Ordering::Relaxed);
    }
}

/// Runs up to `max_steps` program steps of thread `tid` on the calling
/// core, honouring the stop-the-world flag at every step boundary.
///
/// During a pause, the slice breaks when the round stops the calling core
/// — or when the thread is not pinned to this core: an unpinned thread
/// must not keep executing while the leader defines the round's image.
pub fn run_slice(kernel: &Kernel, tid: ObjId, max_steps: usize, stw: &StwController) {
    let core = current_core();
    let pinned_here = core != NO_CORE && kernel.sched.affinity(tid) == Some(core);
    // Advertise this slice before checking the pause flag. The SeqCst
    // pairing with `stop_world` guarantees: either the leader sees our
    // increment and waits the slice out, or we see `pending` here and bail
    // before touching the thread at all. Either way no unpinned thread is
    // mutated after the leader opens the copy phase.
    struct SliceGuard<'a>(&'a StwController);
    impl Drop for SliceGuard<'_> {
        fn drop(&mut self) {
            self.0.unpinned_active.fetch_sub(1, Ordering::SeqCst);
        }
    }
    let _unpinned = (core != NO_CORE && !pinned_here).then(|| {
        stw.unpinned_active.fetch_add(1, Ordering::SeqCst);
        SliceGuard(stw)
    });
    if core != NO_CORE && !pinned_here && stw.pending() {
        // Pause in progress and this thread belongs to the round's copy
        // set: hand it back to the queue untouched.
        kernel.sched.enqueue(tid);
        return;
    }
    let Ok(th) = kernel.object(tid) else { return };
    // Enter "user space": mark on-CPU and copy the context out.
    let (mut ctx, prog_name, cap_group, vmspace) = {
        let mut body = th.body.write();
        match &mut *body {
            ObjectBody::Thread(t) => {
                if t.state != ThreadState::Runnable {
                    // Stale queue entry (e.g. woken then exited); skip.
                    return;
                }
                t.on_cpu = true;
                (t.ctx, t.program.clone(), t.cap_group, t.vmspace)
            }
            _ => return,
        }
    };
    let program = kernel.programs.get(&prog_name);
    let mut outcome = StepOutcome::Exited;
    if let Some(program) = program {
        outcome = StepOutcome::Yielded;
        // Publishes the step boundary for the epoch flip's grace scan;
        // the guard keeps the sequence even if an injected crash unwinds
        // mid-step.
        struct StepGuard<'a>(&'a StepTracker, u32);
        impl Drop for StepGuard<'_> {
            fn drop(&mut self) {
                self.0.end_step(self.1);
            }
        }
        for _ in 0..max_steps {
            if stw.pending() && (!pinned_here || stw.should_park(core)) {
                break;
            }
            let _step = (core != NO_CORE).then(|| {
                // Latch the fence round *after* the sequence bump: the
                // SeqCst pair guarantees the leader's post-arm grace
                // scan sees this step if the latch missed the arm.
                kernel.steps.begin_step(core, kernel.fence.active_round());
                StepGuard(&kernel.steps, core)
            });
            let mut uc = UserCtx::new(kernel, tid, cap_group, vmspace, &mut ctx);
            outcome = program.step(&mut uc);
            if outcome != StepOutcome::Ready {
                break;
            }
        }
    }
    // Leave "user space": write the context back and decide re-enqueue.
    let re_enqueue = {
        let mut body = th.body.write();
        match &mut *body {
            ObjectBody::Thread(t) => {
                t.ctx = ctx;
                t.on_cpu = false;
                th.mark_dirty();
                match outcome {
                    StepOutcome::Exited => {
                        t.state = ThreadState::Exited;
                        false
                    }
                    // A wake may have raced with a Blocked outcome; the
                    // state is authoritative.
                    _ => t.state == ThreadState::Runnable,
                }
            }
            _ => false,
        }
    };
    if re_enqueue {
        kernel.sched.enqueue(tid);
    }
}

/// A program that yields forever (scheduler/test filler).
#[derive(Debug)]
pub struct IdleProgram;

impl Program for IdleProgram {
    fn step(&self, _ctx: &mut UserCtx<'_>) -> StepOutcome {
        StepOutcome::Yielded
    }
}

/// A set of running core worker threads.
#[derive(Debug)]
pub struct CoreSet {
    handles: Vec<JoinHandle<()>>,
    shutdown: Arc<AtomicBool>,
    stw: Arc<StwController>,
    n: usize,
}

impl CoreSet {
    /// Spawns `n` cores executing the scheduler loop with `quantum` steps
    /// per slice.
    pub fn start(
        kernel: Arc<Kernel>,
        stw: Arc<StwController>,
        n: usize,
        quantum: usize,
    ) -> CoreSet {
        stw.add_cores(n);
        let shutdown = Arc::new(AtomicBool::new(false));
        let handles = (0..n)
            .map(|i| {
                let kernel = Arc::clone(&kernel);
                let stw = Arc::clone(&stw);
                let shutdown = Arc::clone(&shutdown);
                std::thread::Builder::new()
                    .name(format!("core-{i}"))
                    .spawn(move || core_loop(&kernel, &stw, &shutdown, quantum, i as u32))
                    .expect("spawn core thread")
            })
            .collect();
        CoreSet { handles, shutdown, stw, n }
    }

    /// Number of cores in the set.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` if the set has no cores.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Stops all cores and waits for them to exit.
    ///
    /// Must not be called while a stop-the-world pause is in progress.
    pub fn stop(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for h in self.handles.drain(..) {
            h.thread().unpark();
            h.join().expect("core thread panicked");
        }
        self.stw.remove_cores(self.n);
        self.n = 0;
    }
}

impl Drop for CoreSet {
    fn drop(&mut self) {
        if !self.handles.is_empty() {
            self.shutdown.store(true, Ordering::SeqCst);
            for h in self.handles.drain(..) {
                let _ = h.join();
            }
            self.stw.remove_cores(self.n);
        }
    }
}

fn core_loop(
    kernel: &Kernel,
    stw: &StwController,
    shutdown: &AtomicBool,
    quantum: usize,
    core: u32,
) {
    set_current_core(core);
    while !shutdown.load(Ordering::SeqCst) {
        if stw.should_park(core) {
            stw.participate();
            continue;
        }
        // Not stopped during a pause (the epoch flip): run on, but only
        // threads pinned to this core — unpinned threads wait out the
        // flip window in the global queue.
        let restricted = stw.pending();
        match kernel.sched.next_for(core, restricted) {
            Some(tid) => run_slice(kernel, tid, quantum, stw),
            None => kernel.sched.park(Duration::from_micros(200)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cap::CapRights;
    use crate::kernel::KernelConfig;
    use crate::pmo::PmoKind;
    use crate::thread::ThreadContext;
    use crate::types::{Vaddr, Vpn};

    fn kernel() -> Arc<Kernel> {
        Kernel::boot(KernelConfig { nvm_frames: 1024, dram_pages: 64, ..KernelConfig::default() })
    }

    /// A program that increments a memory counter `regs[1]` times, one per
    /// step, then exits.
    struct Counter;
    impl Program for Counter {
        fn step(&self, ctx: &mut UserCtx<'_>) -> StepOutcome {
            let target = ctx.reg(1);
            let done = ctx.reg(2);
            if done >= target {
                return StepOutcome::Exited;
            }
            let v = ctx.read_u64(0).unwrap();
            ctx.write_u64(0, v + 1).unwrap();
            ctx.set_reg(2, done + 1);
            StepOutcome::Ready
        }
    }

    fn spawn_counter(k: &Arc<Kernel>, count: u64) -> (ObjId, ObjId) {
        k.programs.register("counter", Arc::new(Counter));
        let g = k.create_cap_group("p").unwrap();
        let vs = k.create_vmspace(g).unwrap();
        let pmo = k.create_pmo(g, 4, PmoKind::Data).unwrap();
        k.map_region(vs, Vpn(0), 4, pmo, 0, CapRights::ALL).unwrap();
        let mut ctx = ThreadContext::new();
        ctx.regs[1] = count;
        let tid = k.create_thread(g, vs, "counter", ctx).unwrap();
        (tid, vs)
    }

    #[test]
    fn cores_run_threads_to_completion() {
        let k = kernel();
        let stw = Arc::new(StwController::new());
        let (tid, vs) = spawn_counter(&k, 100);
        let cores = CoreSet::start(Arc::clone(&k), Arc::clone(&stw), 2, 8);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let th = k.object(tid).unwrap();
            let exited = matches!(
                &*th.body.read(),
                ObjectBody::Thread(t) if t.state == ThreadState::Exited
            );
            if exited {
                break;
            }
            assert!(Instant::now() < deadline, "thread never finished");
            std::thread::sleep(Duration::from_millis(1));
        }
        cores.stop();
        let mut buf = [0u8; 8];
        k.vm_read(vs, Vaddr(0), &mut buf).unwrap();
        assert_eq!(u64::from_le_bytes(buf), 100);
    }

    #[test]
    fn stop_world_quiesces_and_resumes() {
        let k = kernel();
        let stw = Arc::new(StwController::new());
        let (_tid, vs) = spawn_counter(&k, u64::MAX); // runs forever
        let cores = CoreSet::start(Arc::clone(&k), Arc::clone(&stw), 2, 4);

        // Let it run a bit.
        std::thread::sleep(Duration::from_millis(10));
        let ipi = stw.stop_world(None, &k);
        assert!(ipi < Duration::from_secs(1));
        // World is stopped: the counter must not advance.
        let mut buf = [0u8; 8];
        k.vm_read(vs, Vaddr(0), &mut buf).unwrap();
        let v1 = u64::from_le_bytes(buf);
        std::thread::sleep(Duration::from_millis(20));
        k.vm_read(vs, Vaddr(0), &mut buf).unwrap();
        let v2 = u64::from_le_bytes(buf);
        assert_eq!(v1, v2, "counter advanced during stop-the-world");
        stw.finish_hybrid_work();
        stw.resume_world();
        // It advances again.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            k.vm_read(vs, Vaddr(0), &mut buf).unwrap();
            if u64::from_le_bytes(buf) > v2 {
                break;
            }
            assert!(Instant::now() < deadline, "counter never resumed");
            std::thread::sleep(Duration::from_millis(1));
        }
        cores.stop();
    }

    #[test]
    fn hybrid_work_is_shared_between_cores_and_leader() {
        let k = kernel();
        let stw = Arc::new(StwController::new());
        let cores = CoreSet::start(Arc::clone(&k), Arc::clone(&stw), 3, 4);
        let items: Vec<_> =
            (0..64).map(|i| crate::pmo::PageSlot::new(i, treesls_nvm::FrameId(0))).collect();
        let counter = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&counter);
        let work = HybridWork::new(items, move |_slot| {
            c2.fetch_add(1, Ordering::SeqCst);
        });
        stw.stop_world(Some(Arc::clone(&work)), &k);
        stw.finish_hybrid_work();
        assert!(work.is_done());
        assert_eq!(counter.load(Ordering::SeqCst), 64);
        stw.resume_world();
        cores.stop();
    }

    #[test]
    fn repeated_pauses_do_not_deadlock() {
        let k = kernel();
        let stw = Arc::new(StwController::new());
        let (_tid, _vs) = spawn_counter(&k, u64::MAX);
        let cores = CoreSet::start(Arc::clone(&k), Arc::clone(&stw), 2, 4);
        for _ in 0..50 {
            stw.stop_world(None, &k);
            stw.finish_hybrid_work();
            stw.resume_world();
        }
        cores.stop();
    }

    #[test]
    fn stop_world_with_no_cores_is_immediate() {
        let k = kernel();
        let stw = StwController::new();
        let d = stw.stop_world(None, &k);
        assert!(d < Duration::from_millis(100));
        stw.finish_hybrid_work();
        stw.resume_world();
    }

    #[test]
    fn epoch_flip_never_parks_a_dirty_owning_pinned_writer() {
        // Under the default config `stop_world` raises the pause without
        // parking anyone: a pinned writer that owns the round's dirty
        // state keeps stepping through the whole window.
        let k = kernel();
        let stw = Arc::new(StwController::new());
        let (tid, vs) = spawn_counter(&k, u64::MAX); // runs forever
        k.sched.set_affinity(tid, Some(0));
        let cores = CoreSet::start(Arc::clone(&k), Arc::clone(&stw), 2, 4);
        let read = || {
            let mut buf = [0u8; 8];
            k.vm_read(vs, Vaddr(0), &mut buf).unwrap();
            u64::from_le_bytes(buf)
        };
        let deadline = Instant::now() + Duration::from_secs(5);
        while read() == 0 {
            assert!(Instant::now() < deadline, "writer never started");
            std::thread::yield_now();
        }
        stw.stop_world(None, &k);
        assert_eq!(stw.stopped_cores(), 0, "the epoch flip parks nobody");
        let v1 = read();
        while read() == v1 {
            assert!(Instant::now() < deadline, "pinned writer was parked by stop_world");
            std::thread::yield_now();
        }
        stw.finish_hybrid_work();
        stw.resume_world();
        stw.wait_all_resumed();
        assert_eq!(stw.take_paused_ns(), 0, "no core accrued pause time");
        cores.stop();
    }

    #[test]
    fn force_full_quiesce_parks_every_core() {
        let k = Kernel::boot(KernelConfig {
            nvm_frames: 1024,
            dram_pages: 64,
            force_full_quiesce: true,
            ..KernelConfig::default()
        });
        let stw = Arc::new(StwController::new());
        let cores = CoreSet::start(Arc::clone(&k), Arc::clone(&stw), 3, 4);
        stw.stop_world(None, &k);
        assert_eq!(stw.stopped_cores(), 3, "oracle mode stops all cores");
        stw.finish_hybrid_work();
        stw.resume_world();
        cores.stop();
    }

    #[test]
    fn blocked_threads_leave_cores_idle_but_quiescable() {
        let k = kernel();
        k.programs.register("idle", Arc::new(IdleProgram));
        let stw = Arc::new(StwController::new());
        let cores = CoreSet::start(Arc::clone(&k), Arc::clone(&stw), 2, 4);
        // No runnable threads at all: STW still completes.
        let d = stw.stop_world(None, &k);
        assert!(d < Duration::from_secs(1));
        stw.finish_hybrid_work();
        stw.resume_world();
        cores.stop();
    }
}
