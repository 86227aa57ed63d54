//! TreeSLS — a whole-system persistent microkernel with tree-structured
//! state checkpoint on emulated NVM.
//!
//! This crate is the public facade over the TreeSLS reproduction stack
//! (`treesls-nvm`, `treesls-pmem-alloc`, `treesls-kernel`,
//! `treesls-checkpoint`, `treesls-extsync`). A [`System`] is one emulated
//! machine: boot it, spawn processes whose threads run re-entrant
//! [`Program`]s, start the cores and the millisecond checkpoint timer, and
//! at any point pull the plug with [`System::crash`] and bring everything
//! back with [`System::recover`] — applications resume from the last
//! committed checkpoint with no persistence code of their own.
//!
//! ```
//! use treesls::{System, SystemConfig};
//!
//! let mut sys = System::boot(SystemConfig::small());
//! sys.start();
//! sys.checkpoint_now().unwrap();
//! sys.stop();
//! ```

pub mod crashtest;
pub mod process;
pub mod system;

pub use crashtest::{
    enumerate_crashes, enumerate_site_crashes, enumerate_torn_crashes, run_with_crash_schedule,
    run_with_crash_schedule_ex, CrashRun, CrashScenario, EnumerationReport, FaultEnv,
};
pub use process::{ProcessHandle, ProcessSpec, RegionSpec, ThreadSpec};
pub use system::{System, SystemConfig};

// Re-export the layers a downstream user needs.
pub use treesls_checkpoint::{
    crash as crash_kernel, restore as restore_kernel, CheckpointManager, CkptCallback,
    CrashImage, HybridRoundStats, QuarantinedPage, RecoveryReport, RestorePhases, RestoreReport,
    ScrubReport, StwBreakdown,
};
pub use treesls_extsync as extsync;
pub use treesls_net as net;
pub use treesls_obs::{
    EventKind, FlightEvent, FlightRecorder, MetricsRegistry, MetricsSnapshot, PauseStats,
    RoundCommit, SLOT_LEN,
};
pub use treesls_kernel::cap::CapRights;
pub use treesls_kernel::kernel::LatencyProfile;
pub use treesls_kernel::object::ObjType;
pub use treesls_kernel::pmo::PmoKind;
pub use treesls_kernel::program::{Program, ProgramRegistry, StepOutcome, UserCtx};
pub use treesls_kernel::thread::ThreadContext;
pub use treesls_kernel::types::{KernelError, ObjId, Vaddr, Vpn};
pub use treesls_kernel::{Kernel, KernelConfig};
pub use treesls_nvm::PAGE_SIZE;
