//! Deterministic crash-schedule testing: run a workload, pull the plug at
//! a chosen NVM write or named crash site, recover, and check invariants.
//!
//! This is the systematic version of the paper's §7.2 fault injection
//! ("we manually crash and reboot the system while running these
//! programs"): instead of crashing at arbitrary wall-clock points, the
//! [`treesls_nvm::CrashSchedule`] cuts execution at an *exact* NVM write
//! index or crash-site occurrence, so every interesting interleaving of
//! the checkpoint protocol can be enumerated and replayed byte-for-byte.
//!
//! A scenario runs single-threaded: cores are never started, programs are
//! stepped inline with [`treesls_kernel::cores::run_slice`], and
//! checkpoints are taken with [`System::checkpoint_now`]. With no timer
//! threads and no scheduler, the sequence of NVM writes is a pure function
//! of the scenario, which is what makes `crash at write i` reproducible.
//!
//! A failure is reported as `(seed = the scenario, site/write index)`; to
//! reproduce, re-run [`run_with_crash_schedule`] with the same
//! [`CrashPoint`].

use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::Once;

use treesls_checkpoint::RestoreReport;
use treesls_kernel::program::ProgramRegistry;
use treesls_nvm::{CrashPoint, InjectedCrash, PersistMode, SiteHit};

use crate::system::{System, SystemConfig};

/// Persistence-domain behaviour for one crash run (the fault environment
/// the "power failure" happens in).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEnv {
    /// Persistence mode active during the workload phase.
    pub mode: PersistMode,
    /// Seed deciding which unfenced lines the failing power domain loses
    /// at the cut (see [`treesls_nvm::NvmDevice::settle_crash`]);
    /// `u64::MAX` drops *every* pending line — the adversarial worst
    /// case. Irrelevant under [`PersistMode::Eadr`] (nothing is pending).
    pub settle_seed: u64,
}

impl FaultEnv {
    /// Today's hardware assumption: flush-on-fail, nothing is ever lost.
    pub fn eadr() -> Self {
        Self { mode: PersistMode::Eadr, settle_seed: 0 }
    }
}

/// One crash-injection workload.
///
/// The harness owns the system lifecycle; the scenario provides the
/// pieces that differ per workload:
///
/// * [`setup`](CrashScenario::setup) boots programs/processes and **must
///   commit at least one checkpoint** (the recovery floor — a crash
///   before any commit has nothing to restore to);
/// * [`workload`](CrashScenario::workload) is the phase under test: every
///   NVM write it performs is a candidate crash point;
/// * [`verify`](CrashScenario::verify) is the oracle, called on the
///   recovered system.
///
/// `State` carries oracle data (expected snapshots, observed replies)
/// across the crash — it lives on the host side of the "power failure",
/// like a client's view of the server.
pub trait CrashScenario {
    /// Host-side oracle state surviving the crash.
    type State;

    /// The machine configuration (used for boot and for recovery).
    fn config(&self) -> SystemConfig;

    /// Boots processes and takes the initial checkpoint.
    fn setup(&self, sys: &mut System) -> Self::State;

    /// The workload phase; crashes are injected inside this call.
    fn workload(&self, sys: &mut System, st: &mut Self::State);

    /// Re-registers programs after reboot (the "binaries on disk").
    fn programs(&self, reg: &ProgramRegistry);

    /// Re-wires host-side attachments (network ports, callbacks) to the
    /// recovered system, before the restore callbacks fire.
    fn reattach(&self, _sys: &mut System, _st: &mut Self::State) {}

    /// The consistency oracle, run on the recovered system.
    fn verify(
        &self,
        sys: &mut System,
        st: &mut Self::State,
        report: &RestoreReport,
    ) -> Result<(), String>;
}

/// Outcome of one crash-schedule run.
#[derive(Debug)]
pub struct CrashRun {
    /// Whether the armed crash actually fired (`false` means the workload
    /// completed before reaching the scheduled point; the plug was pulled
    /// after completion instead).
    pub crashed: bool,
    /// The recovery report.
    pub report: RestoreReport,
}

/// Results of a crash-point enumeration.
#[derive(Debug, Default)]
pub struct EnumerationReport {
    /// NVM writes (page + metadata) performed by one clean workload run.
    pub writes: u64,
    /// Crash-site trace of the clean run, in order.
    pub sites: Vec<SiteHit>,
    /// Crash runs executed.
    pub runs: usize,
    /// Runs in which the scheduled crash fired before completion.
    pub injected: usize,
    /// `(crash point description, error)` for every failed run.
    pub failures: Vec<(String, String)>,
}

impl EnumerationReport {
    /// Panics with a readable summary if any run failed.
    pub fn assert_clean(&self) {
        if !self.failures.is_empty() {
            let mut msg = format!(
                "{} of {} crash runs failed ({} writes, {} site hits):\n",
                self.failures.len(),
                self.runs,
                self.writes,
                self.sites.len()
            );
            for (point, err) in &self.failures {
                msg.push_str(&format!("  at {point}: {err}\n"));
            }
            panic!("{msg}");
        }
    }
}

/// Suppresses the default panic-hook noise for [`InjectedCrash`] unwinds
/// (an enumeration triggers thousands of them); real panics still print.
fn quiet_injected_crash_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedCrash>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Runs `scenario` once, crashing at `point` (or never, if `None` or the
/// workload finishes first), then recovers and verifies.
///
/// The flow is: boot → setup → arm → workload (the injected crash unwinds
/// out of it) → disarm → [`System::crash`] → [`System::recover`] →
/// reattach → restore callbacks → [`CheckpointManager::verify_checkpoint`]
/// → scenario oracle. The schedule is disarmed before recovery because
/// recovery legitimately writes NVM (allocator rebuild, version-tag
/// repair) and must not trip the fuse.
///
/// [`CheckpointManager::verify_checkpoint`]:
/// treesls_checkpoint::CheckpointManager::verify_checkpoint
pub fn run_with_crash_schedule<S: CrashScenario>(
    scenario: &S,
    point: Option<CrashPoint>,
) -> Result<CrashRun, String> {
    run_with_crash_schedule_ex(scenario, point, FaultEnv::eadr())
}

/// [`run_with_crash_schedule`] under an explicit fault environment: the
/// workload runs in `env.mode`, and — when the crash fires — the device
/// [settles](treesls_nvm::NvmDevice::settle_crash) with `env.settle_seed`,
/// losing a seed-chosen subset of the unfenced reorder window before
/// recovery begins. Recovery itself always runs under eADR (a healthy
/// replacement power domain).
pub fn run_with_crash_schedule_ex<S: CrashScenario>(
    scenario: &S,
    point: Option<CrashPoint>,
    env: FaultEnv,
) -> Result<CrashRun, String> {
    quiet_injected_crash_panics();
    let mut sys = System::boot(scenario.config());
    let mut st = scenario.setup(&mut sys);
    let dev = std::sync::Arc::clone(&sys.kernel().pers.dev);
    let sched = std::sync::Arc::clone(dev.crash_schedule());
    dev.set_persist_mode(env.mode);
    if let Some(p) = point {
        sched.arm(p);
    }
    let run = std::panic::catch_unwind(AssertUnwindSafe(|| scenario.workload(&mut sys, &mut st)));
    sched.disarm();
    let crashed = match run {
        Ok(()) => false,
        Err(payload) => {
            if payload.downcast_ref::<InjectedCrash>().is_none() {
                // A genuine bug in the workload, not an injected crash.
                std::panic::resume_unwind(payload);
            }
            true
        }
    };
    if crashed {
        // Power failure: the failing domain loses a seed-chosen subset of
        // the lines that were never fenced.
        dev.settle_crash(env.settle_seed);
    } else {
        // Clean completion: an orderly shutdown drains everything.
        dev.persist_barrier();
    }
    dev.set_persist_mode(PersistMode::Eadr);
    let image = sys.crash();
    let (mut sys2, report) = System::recover(image, scenario.config(), |r| scenario.programs(r))
        .map_err(|e| format!("recovery failed: {e:?}"))?;
    scenario.reattach(&mut sys2, &mut st);
    sys2.manager().fire_restore_callbacks(report.version);
    sys2.manager()
        .verify_checkpoint()
        .map_err(|e| format!("verify_checkpoint after restore: {e}"))?;
    scenario.verify(&mut sys2, &mut st, &report)?;
    Ok(CrashRun { crashed, report })
}

impl System {
    /// Convenience entry point for [`run_with_crash_schedule`]: runs one
    /// scenario to the scheduled crash point, recovers, and verifies.
    ///
    /// An associated function (not a method) because the scenario's
    /// system is consumed by the simulated power failure mid-run.
    pub fn run_with_crash_schedule<S: CrashScenario>(
        scenario: &S,
        point: Option<CrashPoint>,
    ) -> Result<CrashRun, String> {
        run_with_crash_schedule(scenario, point)
    }
}

/// Dry-runs `scenario` (no crash) to measure the workload phase, returning
/// its NVM write count and crash-site trace.
pub fn measure<S: CrashScenario>(scenario: &S) -> (u64, Vec<SiteHit>) {
    let (writes, sites, _) = measure_with_trace(scenario);
    (writes, sites)
}

/// [`measure`] plus the full per-write trace (offset and length of every
/// NVM store), which torn-write enumeration uses to derive each write's
/// tear classes.
pub fn measure_with_trace<S: CrashScenario>(
    scenario: &S,
) -> (u64, Vec<SiteHit>, Vec<treesls_nvm::WriteRec>) {
    let mut sys = System::boot(scenario.config());
    let mut st = scenario.setup(&mut sys);
    let sched = std::sync::Arc::clone(sys.kernel().pers.dev.crash_schedule());
    let before = sched.counts().total();
    sched.start_trace();
    sched.start_write_trace();
    scenario.workload(&mut sys, &mut st);
    let sites = sched.take_trace();
    let trace = sched.take_write_trace();
    let writes = sched.counts().total() - before;
    (writes, sites, trace)
}

/// Exhaustively replays `scenario`, crashing at every `stride`-th NVM
/// write index of the workload phase (`stride == 1` covers every single
/// write — the acceptance mode; CI smoke jobs pass a larger stride).
pub fn enumerate_crashes<S: CrashScenario>(scenario: &S, stride: u64) -> EnumerationReport {
    assert!(stride >= 1, "stride must be at least 1");
    let (writes, sites) = measure(scenario);
    let mut report =
        EnumerationReport { writes, sites, ..Default::default() };
    let mut i = 1;
    while i <= writes {
        report.runs += 1;
        match run_with_crash_schedule(scenario, Some(CrashPoint::AnyWrite(i - 1))) {
            Ok(r) => {
                if r.crashed {
                    report.injected += 1;
                }
            }
            Err(e) => report.failures.push((format!("write {i}/{writes}"), e)),
        }
        i += stride;
    }
    report
}

/// Exhaustively replays `scenario` under the **torn-write model**: for
/// every `stride`-th NVM write of the workload phase and every cache-line
/// tear class of that write (cut 0 = nothing applied, cut *k* = the
/// prefix up to the *k*-th interior 64-byte boundary applied), the fuse
/// fires *mid-write* and the run recovers and verifies.
///
/// `env.mode` selects the persistence model; under
/// [`PersistMode::Adr`] each `(write, cut)` pair is additionally replayed
/// once per seed in `drop_seeds`, losing a different subset of the
/// unfenced reorder window each time. Under [`PersistMode::Eadr`] pass a
/// single seed (the window is always empty).
pub fn enumerate_torn_crashes<S: CrashScenario>(
    scenario: &S,
    stride: u64,
    env_mode: PersistMode,
    drop_seeds: &[u64],
) -> EnumerationReport {
    assert!(stride >= 1, "stride must be at least 1");
    assert!(!drop_seeds.is_empty(), "need at least one settle seed");
    let (writes, sites, trace) = measure_with_trace(scenario);
    let mut report = EnumerationReport { writes, sites, ..Default::default() };
    let mut skip = 0u64;
    while (skip as usize) < trace.len() {
        let rec = trace[skip as usize];
        for cut in 0..=rec.tear_cuts() {
            for &seed in drop_seeds {
                report.runs += 1;
                let point = CrashPoint::TornWrite { skip, cut };
                let env = FaultEnv { mode: env_mode, settle_seed: seed };
                match run_with_crash_schedule_ex(scenario, Some(point), env) {
                    Ok(r) => {
                        if r.crashed {
                            report.injected += 1;
                        }
                    }
                    Err(e) => report.failures.push((
                        format!(
                            "torn write {skip}/{} cut {cut}/{} seed {seed:#x} \
                             ({:?} off {} len {})",
                            trace.len(),
                            rec.tear_cuts(),
                            rec.kind,
                            rec.off,
                            rec.len
                        ),
                        e,
                    )),
                }
            }
        }
        skip += stride;
    }
    report
}

/// Replays `scenario`, crashing at every occurrence of every named crash
/// site the clean run traverses (`crash_site!` markers across the
/// checkpoint manager, allocator journal, persistence commit, and ring
/// callbacks).
pub fn enumerate_site_crashes<S: CrashScenario>(scenario: &S) -> EnumerationReport {
    let (writes, sites) = measure(scenario);
    let mut occurrences: HashMap<&'static str, u64> = HashMap::new();
    for hit in &sites {
        *occurrences.entry(hit.name).or_default() += 1;
    }
    let mut names: Vec<_> = occurrences.into_iter().collect();
    names.sort();
    let mut report =
        EnumerationReport { writes, sites, ..Default::default() };
    for (name, count) in names {
        for skip in 0..count {
            report.runs += 1;
            let point = CrashPoint::Site { name: name.to_string(), skip };
            match run_with_crash_schedule(scenario, Some(point)) {
                Ok(r) => {
                    if r.crashed {
                        report.injected += 1;
                    }
                }
                Err(e) => report.failures.push((format!("site {name}#{skip}"), e)),
            }
        }
    }
    report
}
