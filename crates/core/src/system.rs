//! The `System` facade: one emulated TreeSLS machine.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use treesls_checkpoint::{crash as crash_kernel, restore as restore_kernel};
use treesls_checkpoint::{CheckpointManager, CrashImage, RestoreReport, StwBreakdown};
use treesls_kernel::cores::{CoreSet, StwController};
use treesls_kernel::object::ObjectBody;
use treesls_kernel::program::{Program, ProgramRegistry};
use treesls_kernel::thread::ThreadState;
use treesls_kernel::types::{KernelError, ObjId, Vaddr};
use treesls_kernel::{Kernel, KernelConfig};

use crate::process::{ProcessHandle, ProcessSpec};

/// Configuration of a whole emulated machine.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Kernel/memory configuration.
    pub kernel: KernelConfig,
    /// Number of simulated CPU cores.
    pub cores: usize,
    /// Program steps a core runs per scheduling slice.
    pub quantum: usize,
    /// Periodic checkpoint interval; `None` disables the timer (manual
    /// checkpoints only). The paper's headline configuration is 1 ms.
    pub checkpoint_interval: Option<Duration>,
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self {
            kernel: KernelConfig::default(),
            cores: 4,
            quantum: 32,
            checkpoint_interval: Some(Duration::from_millis(1)),
        }
    }
}

impl SystemConfig {
    /// A small configuration for tests: 2 cores, 16 MiB NVM, manual
    /// checkpoints.
    pub fn small() -> Self {
        Self {
            kernel: KernelConfig { nvm_frames: 4096, dram_pages: 256, ..KernelConfig::default() },
            cores: 2,
            quantum: 16,
            checkpoint_interval: None,
        }
    }
}

/// The periodic checkpoint timer (the "leader core" loop).
struct CkptTimer {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl CkptTimer {
    fn start(mgr: Arc<CheckpointManager>, interval: Duration) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("ckpt-leader".into())
            .spawn(move || {
                let mut next = Instant::now() + interval;
                while !stop2.load(Ordering::SeqCst) {
                    let now = Instant::now();
                    if now < next {
                        std::thread::sleep((next - now).min(interval));
                        continue;
                    }
                    let _ = mgr.checkpoint();
                    next += interval;
                    // Do not try to catch up after long stalls.
                    if next < Instant::now() {
                        next = Instant::now() + interval;
                    }
                }
            })
            .expect("spawn checkpoint timer");
        Self { stop, handle: Some(handle) }
    }

    fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            h.join().expect("checkpoint timer panicked");
        }
    }
}

/// One emulated TreeSLS machine.
pub struct System {
    kernel: Arc<Kernel>,
    stw: Arc<StwController>,
    mgr: Arc<CheckpointManager>,
    cores: Option<CoreSet>,
    timer: Option<CkptTimer>,
    config: SystemConfig,
}

impl System {
    /// Boots a fresh machine (formats the emulated NVM).
    pub fn boot(config: SystemConfig) -> System {
        let kernel = Kernel::boot(config.kernel.clone());
        Self::assemble(kernel, config)
    }

    fn assemble(kernel: Arc<Kernel>, config: SystemConfig) -> System {
        let stw = Arc::new(StwController::new());
        let mgr = CheckpointManager::new(Arc::clone(&kernel), Arc::clone(&stw));
        System { kernel, stw, mgr, cores: None, timer: None, config }
    }

    /// The kernel.
    pub fn kernel(&self) -> &Arc<Kernel> {
        &self.kernel
    }

    /// The checkpoint manager.
    pub fn manager(&self) -> &Arc<CheckpointManager> {
        &self.mgr
    }

    /// The program registry.
    pub fn programs(&self) -> &ProgramRegistry {
        &self.kernel.programs
    }

    /// Registers a program.
    pub fn register_program(&self, name: &str, program: Arc<dyn Program>) {
        self.kernel.programs.register(name, program);
    }

    /// The machine configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Starts the cores and (if configured) the checkpoint timer.
    pub fn start(&mut self) {
        if self.cores.is_none() {
            self.cores = Some(CoreSet::start(
                Arc::clone(&self.kernel),
                Arc::clone(&self.stw),
                self.config.cores,
                self.config.quantum,
            ));
        }
        if self.timer.is_none() {
            if let Some(interval) = self.config.checkpoint_interval {
                self.timer = Some(CkptTimer::start(Arc::clone(&self.mgr), interval));
            }
        }
    }

    /// Stops the checkpoint timer and the cores (in that order).
    pub fn stop(&mut self) {
        if let Some(t) = self.timer.take() {
            t.stop();
        }
        if let Some(c) = self.cores.take() {
            c.stop();
        }
    }

    /// Takes one checkpoint synchronously.
    pub fn checkpoint_now(&self) -> Result<StwBreakdown, KernelError> {
        self.mgr.checkpoint()
    }

    /// One consistent observability snapshot of the whole machine.
    ///
    /// Merges the kernel's [`MetricsRegistry`](treesls_obs::MetricsRegistry)
    /// (checkpoint/hybrid/NIC/replication/transaction counters and the
    /// histograms) with the fault and epoch-conflict counters, the NVM
    /// device counters and the allocator journal stats that live outside
    /// the registry. Snapshots are plain values: diff two with
    /// [`MetricsSnapshot::since`](treesls_obs::MetricsSnapshot::since) to
    /// scope counters to an interval.
    pub fn metrics_snapshot(&self) -> treesls_obs::MetricsSnapshot {
        let mut snap = self.kernel.metrics.snapshot();
        let faults = self.kernel.stats.snapshot();
        snap.write_faults = faults.write_faults;
        snap.minor_faults = faults.minor_faults;
        snap.cow_copies = faults.cow_copies;
        snap.epoch_conflicts = faults.epoch_conflicts;
        let nvm = self.kernel.pers.dev.stats().snapshot();
        snap.nvm_bytes_written = nvm.bytes_written;
        snap.nvm_bytes_read = nvm.bytes_read;
        snap.nvm_page_copies = nvm.page_copies;
        snap.journal_high_water = self.kernel.pers.alloc.journal_high_water();
        snap.journal_truncated = self.kernel.pers.alloc.journal_truncated();
        snap
    }

    /// Spawns a process from a spec.
    pub fn spawn(&self, spec: &ProcessSpec) -> Result<ProcessHandle, KernelError> {
        let kernel = &self.kernel;
        let cap_group = kernel.create_cap_group(&spec.name)?;
        let vmspace = kernel.create_vmspace(cap_group)?;
        let mut pmos = Vec::with_capacity(spec.regions.len());
        for r in &spec.regions {
            let pmo = kernel.create_pmo(cap_group, r.npages, r.kind)?;
            kernel.map_region(vmspace, r.base, r.npages, pmo, 0, r.perm)?;
            pmos.push(pmo);
        }
        let mut threads = Vec::with_capacity(spec.threads.len());
        for t in &spec.threads {
            threads.push(kernel.create_thread(cap_group, vmspace, &t.program, t.ctx)?);
        }
        Ok(ProcessHandle { cap_group, vmspace, pmos, threads })
    }

    /// Reads process memory (host-side convenience).
    pub fn read_mem(&self, vmspace: ObjId, addr: u64, buf: &mut [u8]) -> Result<(), KernelError> {
        self.kernel.vm_read(vmspace, Vaddr(addr), buf)
    }

    /// Writes process memory (host-side convenience).
    pub fn write_mem(&self, vmspace: ObjId, addr: u64, data: &[u8]) -> Result<(), KernelError> {
        self.kernel.vm_write(vmspace, Vaddr(addr), data)
    }

    /// Returns `true` once `thread` has exited.
    pub fn thread_exited(&self, thread: ObjId) -> bool {
        match self.kernel.object(thread) {
            Ok(o) => {
                let body = o.body.read();
                matches!(&*body, ObjectBody::Thread(t) if t.state == ThreadState::Exited)
            }
            Err(_) => true,
        }
    }

    /// Blocks until every thread in `threads` exits or `timeout` elapses;
    /// returns `true` on success.
    pub fn join_threads(&self, threads: &[ObjId], timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if threads.iter().all(|&t| self.thread_exited(t)) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Pulls the plug: stops everything and discards all volatile state,
    /// returning only what the NVM holds.
    pub fn crash(mut self) -> CrashImage {
        self.stop();
        let kernel = Arc::clone(&self.kernel);
        drop(self);
        crash_kernel(kernel)
    }

    /// Recovers a machine from a crash image.
    ///
    /// `register_programs` re-registers the application programs (like
    /// reloading binaries after reboot). Cores and the timer are *not*
    /// started; call [`start`](Self::start) once external-synchrony
    /// callbacks are re-registered and
    /// [`CheckpointManager::fire_restore_callbacks`] has run.
    pub fn recover(
        image: CrashImage,
        config: SystemConfig,
        register_programs: impl FnOnce(&ProgramRegistry),
    ) -> Result<(System, RestoreReport), KernelError> {
        let (kernel, report) = restore_kernel(image, config.kernel.clone(), register_programs)?;
        Ok((Self::assemble(kernel, config), report))
    }
}

impl Drop for System {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("version", &self.kernel.pers.global_version())
            .field("cores", &self.config.cores)
            .field("running", &self.cores.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::{ProcessSpec, ThreadSpec};
    use treesls_kernel::program::{StepOutcome, UserCtx};

    struct Bump;
    impl Program for Bump {
        fn step(&self, ctx: &mut UserCtx<'_>) -> StepOutcome {
            let n = ctx.reg(1);
            if ctx.reg(2) >= n {
                return StepOutcome::Exited;
            }
            let v = ctx.read_u64(0).unwrap();
            ctx.write_u64(0, v + 1).unwrap();
            ctx.set_reg(2, ctx.reg(2) + 1);
            StepOutcome::Ready
        }
    }

    #[test]
    fn boot_spawn_run_join() {
        let mut sys = System::boot(SystemConfig::small());
        sys.register_program("bump", Arc::new(Bump));
        let p = sys
            .spawn(&ProcessSpec::new("worker").heap(8).thread(ThreadSpec::new("bump").reg(1, 500)))
            .unwrap();
        sys.start();
        assert!(sys.join_threads(&p.threads, Duration::from_secs(10)));
        sys.stop();
        let mut buf = [0u8; 8];
        sys.read_mem(p.vmspace, 0, &mut buf).unwrap();
        assert_eq!(u64::from_le_bytes(buf), 500);
    }

    #[test]
    fn periodic_checkpoints_run_alongside_workload() {
        let mut cfg = SystemConfig::small();
        cfg.checkpoint_interval = Some(Duration::from_millis(1));
        let mut sys = System::boot(cfg);
        sys.register_program("bump", Arc::new(Bump));
        let p = sys
            .spawn(&ProcessSpec::new("w").heap(8).thread(ThreadSpec::new("bump").reg(1, 20_000)))
            .unwrap();
        sys.start();
        assert!(sys.join_threads(&p.threads, Duration::from_secs(30)));
        sys.stop();
        // Multiple checkpoints committed while the workload ran.
        assert!(sys.kernel().pers.global_version() >= 2);
        let mut buf = [0u8; 8];
        sys.read_mem(p.vmspace, 0, &mut buf).unwrap();
        assert_eq!(u64::from_le_bytes(buf), 20_000);
    }

    #[test]
    fn crash_recover_roundtrip_via_facade() {
        let mut sys = System::boot(SystemConfig::small());
        sys.register_program("bump", Arc::new(Bump));
        let p = sys
            .spawn(&ProcessSpec::new("w").heap(8).thread(ThreadSpec::new("bump").reg(1, 100)))
            .unwrap();
        sys.start();
        assert!(sys.join_threads(&p.threads, Duration::from_secs(10)));
        sys.stop();
        sys.checkpoint_now().unwrap();
        let image = sys.crash();
        let (sys2, report) =
            System::recover(image, SystemConfig::small(), |r| r.register("bump", Arc::new(Bump)))
                .unwrap();
        assert_eq!(report.version, 1);
        // The counter survived at its checkpointed value.
        let vs = {
            let objects = sys2.kernel().objects.read();
            let mut found = None;
            for (id, o) in objects.iter() {
                if o.otype == treesls_kernel::object::ObjType::VmSpace {
                    // Only one non-root process exists.
                    found = Some(id);
                }
            }
            found.unwrap()
        };
        let mut buf = [0u8; 8];
        sys2.read_mem(vs, 0, &mut buf).unwrap();
        assert_eq!(u64::from_le_bytes(buf), 100);
    }
}
