//! Crash-loop torture: a bank-transfer workload crash-looped five times.
//!
//! Demonstrates whole-system consistency: transfers move money between two
//! accounts whose invariant (constant total) must hold at *every* recovery
//! point, no matter when the power fails — the paper's promise that a
//! restored system is always a consistent checkpoint image, never a torn
//! intermediate state.
//!
//! Each recovery prints its [`RecoveryReport`] — the integrity evidence of
//! the torn-write/media-fault model (checksummed commit records, per-page
//! CRCs, journal-tail truncation). The final round tears the newest commit
//! record on purpose to show a *degraded* recovery: the system falls back
//! one generation and says so, instead of serving a torn checkpoint.
//!
//! ```sh
//! cargo run --release --example crash_recovery
//! ```

use std::sync::Arc;
use std::time::Duration;

use treesls::{
    ProcessSpec, Program, ProgramRegistry, RecoveryReport, StepOutcome, System, SystemConfig,
    ThreadSpec, UserCtx,
};
use treesls_kernel::kernel::global_meta;

const TOTAL: u64 = 1_000_000;
const ACCT_A: u64 = 0;
const ACCT_B: u64 = 8;
const TRANSFERS_DONE: u64 = 16;

/// Moves a pseudo-random amount between two accounts each step.
///
/// Both balances are updated within one step — one syscall-boundary span —
/// so every checkpoint (and hence every recovery point) sees the invariant
/// intact. The same discipline a real application needs on real TreeSLS:
/// multi-word invariants must not straddle a kernel entry while
/// intermediate.
struct Bank;

impl Program for Bank {
    fn step(&self, ctx: &mut UserCtx<'_>) -> StepOutcome {
        if ctx.pc() == 0 {
            ctx.write_u64(ACCT_A, TOTAL).unwrap();
            ctx.write_u64(ACCT_B, 0).unwrap();
            ctx.write_u64(TRANSFERS_DONE, 0).unwrap();
            ctx.set_pc(1);
            return StepOutcome::Ready;
        }
        let done = ctx.read_u64(TRANSFERS_DONE).unwrap();
        if done >= 300_000 {
            return StepOutcome::Exited;
        }
        let rng = treesls_apps::server::xorshift64(ctx.reg(3).max(1));
        ctx.set_reg(3, rng);
        let a = ctx.read_u64(ACCT_A).unwrap();
        let b = ctx.read_u64(ACCT_B).unwrap();
        let amount = rng % 1000;
        let (na, nb) = if rng.is_multiple_of(2) && a >= amount {
            (a - amount, b + amount)
        } else if b >= amount {
            (a + amount, b - amount)
        } else {
            (a, b)
        };
        ctx.write_u64(ACCT_A, na).unwrap();
        ctx.write_u64(ACCT_B, nb).unwrap();
        ctx.write_u64(TRANSFERS_DONE, done + 1).unwrap();
        StepOutcome::Ready
    }
}

fn register(r: &ProgramRegistry) {
    r.register("bank", Arc::new(Bank));
}

fn config() -> SystemConfig {
    let mut c = SystemConfig::small();
    c.checkpoint_interval = Some(Duration::from_millis(1));
    c
}

/// One line of integrity evidence: what recovery verified, what it had to
/// fall back on, and what it refused to serve.
fn describe(r: &RecoveryReport) -> String {
    if r.is_clean() {
        format!("clean ({} page images verified)", r.pages_verified)
    } else {
        format!(
            "DEGRADED: commit fell back={}, invalid slots={}, pages verified={}, \
             pages fell back={}, quarantined={}, journal records truncated={}",
            r.commit.fell_back,
            r.commit.invalid_slots,
            r.pages_verified,
            r.pages_fell_back,
            r.quarantined.len(),
            r.journal_records_truncated
        )
    }
}

/// Reads the two balances and the transfer counter from the restored heap.
fn read_accounts(sys: &System) -> (u64, u64, u64) {
    let vs = {
        let k = sys.kernel();
        let objects = k.objects.read();
        let id = objects
            .iter()
            .find(|(_, o)| o.otype == treesls::ObjType::VmSpace)
            .map(|(id, _)| id)
            .expect("vmspace");
        drop(objects);
        id
    };
    let mut buf = [0u8; 24];
    sys.read_mem(vs, 0, &mut buf).unwrap();
    let a = u64::from_le_bytes(buf[0..8].try_into().unwrap());
    let b = u64::from_le_bytes(buf[8..16].try_into().unwrap());
    let done = u64::from_le_bytes(buf[16..24].try_into().unwrap());
    (a, b, done)
}

fn main() {
    let mut sys = System::boot(config());
    register(sys.programs());
    sys.spawn(&ProcessSpec::new("bank").heap(4).thread(ThreadSpec::new("bank"))).unwrap();

    for round in 1..=5 {
        sys.start();
        std::thread::sleep(Duration::from_millis(50));
        sys.stop();
        let image = sys.crash();
        let (s2, report) = System::recover(image, config(), register).expect("recover");
        sys = s2;
        // Check the invariant at the recovery point.
        let (a, b, done) = read_accounts(&sys);
        assert_eq!(a + b, TOTAL, "invariant broken at recovery!");
        println!(
            "crash {round}: recovered to version {} — {done} transfers, A={a} B={b}, A+B={} ✓",
            report.version,
            a + b
        );
        println!("         integrity: {}", describe(&report.recovery));
        let p = report.phases;
        println!(
            "         restore {:?}: walk {:?}, revive {:?}, sweep {:?}, allocator {:?}",
            report.duration, p.walk, p.revive, p.sweep, p.alloc
        );
    }

    // A periodic scrub pass proves the media still matches every stored
    // checksum before the next recovery has to depend on it.
    let scrub = sys.manager().scrub();
    println!(
        "scrub: {} images verified, {} corrupt, {} invalid commit slots",
        scrub.pages_scanned,
        scrub.corrupt_pages.len(),
        scrub.invalid_commit_slots
    );
    assert!(scrub.is_clean());

    // Final round: tear the newest commit record (a torn-write/media
    // fault at the recovery anchor). Recovery must fall back to the
    // previous generation — with the invariant intact — and report the
    // degradation instead of hiding it.
    let before = sys.kernel().pers.global_version();
    let image = sys.crash();
    image.dev.flip_meta_bit(global_meta::slot_off(before) + global_meta::REC_VERSION, 0);
    let (sys, report) = System::recover(image, config(), register).expect("degraded recover");
    let (a, b, done) = read_accounts(&sys);
    assert_eq!(a + b, TOTAL, "invariant broken after torn commit!");
    assert!(report.recovery.commit.fell_back);
    assert_eq!(report.version, before - 1);
    println!(
        "torn commit: v{before} record corrupted → recovered to version {} — \
         {done} transfers, A+B={} ✓",
        report.version,
        a + b
    );
    println!("         integrity: {}", describe(&report.recovery));
    println!("invariant held across 5 power failures and one torn commit record");
}
