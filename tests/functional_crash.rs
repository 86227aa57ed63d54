//! §7.2 functional tests: "We tested self-implemented simple test programs
//! (hello world, ping-pong and simple key-value stores) ... We manually
//! crash and reboot the system while running these programs. After reboot,
//! these programs can continue running with expected behaviors."
//!
//! These tests run whole applications under periodic checkpointing, crash
//! the machine at arbitrary wall-clock points, recover, and verify the
//! programs continue to their expected final states.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::{find_vmspace, open_window, AbortedWindowScenario};
use treesls::{
    CapRights, CrashScenario, ObjType, ProcessSpec, Program, StepOutcome, System, SystemConfig,
    ThreadSpec, UserCtx, Vpn,
};
use treesls_kernel::object::ObjectBody;
use treesls_kernel::program::ProgramRegistry;

fn config() -> SystemConfig {
    let mut c = SystemConfig::small();
    c.checkpoint_interval = Some(Duration::from_millis(1));
    c
}

/// "Hello world": writes a message into memory and exits.
struct Hello;
impl Program for Hello {
    fn step(&self, ctx: &mut UserCtx<'_>) -> StepOutcome {
        ctx.write(0, b"hello, persistent world").unwrap();
        StepOutcome::Exited
    }
}

/// Ping-pong: two threads bounce a counter through a pair of
/// notifications until it reaches a target.
struct Pinger {
    my_notif: usize,
    peer_notif: usize,
    counter_addr: u64,
    target: u64,
}
impl Program for Pinger {
    fn step(&self, ctx: &mut UserCtx<'_>) -> StepOutcome {
        match ctx.pc() {
            0 => {
                // Wait for my turn.
                match ctx.notif_wait(self.my_notif) {
                    Ok(true) => {
                        ctx.set_pc(1);
                        StepOutcome::Ready
                    }
                    Ok(false) => StepOutcome::Blocked,
                    Err(_) => StepOutcome::Exited,
                }
            }
            _ => {
                let v = ctx.read_u64(self.counter_addr).unwrap();
                if v >= self.target {
                    // Pass the baton one last time so the peer can exit.
                    let _ = ctx.notif_signal(self.peer_notif);
                    return StepOutcome::Exited;
                }
                ctx.write_u64(self.counter_addr, v + 1).unwrap();
                ctx.notif_signal(self.peer_notif).unwrap();
                ctx.set_pc(0);
                StepOutcome::Ready
            }
        }
    }
}

fn find_named_vmspace(sys: &System, name: &str) -> treesls::ObjId {
    let kernel = sys.kernel();
    let objects = kernel.objects.read();
    let group = objects
        .iter()
        .map(|(_, o)| Arc::clone(o))
        .find(|o| {
            o.otype == ObjType::CapGroup
                && matches!(&*o.body.read(), ObjectBody::CapGroup(g) if g.name == name)
        })
        .expect("group");
    drop(objects);
    let body = group.body.read();
    let ObjectBody::CapGroup(g) = &*body else { unreachable!() };
    let vs = g
        .iter()
        .map(|(_, c)| c.obj)
        .find(|&o| kernel.object(o).map(|o| o.otype == ObjType::VmSpace).unwrap_or(false))
        .expect("vmspace");
    drop(body);
    vs
}

#[test]
fn hello_world_result_survives_crash() {
    let mut sys = System::boot(config());
    sys.register_program("hello", Arc::new(Hello));
    let p = sys
        .spawn(&ProcessSpec::new("hello").heap(4).thread(ThreadSpec::new("hello")))
        .unwrap();
    sys.start();
    assert!(sys.join_threads(&p.threads, Duration::from_secs(10)));
    // Let a checkpoint cover the final state.
    std::thread::sleep(Duration::from_millis(10));
    sys.stop();
    let image = sys.crash();
    let (sys2, _) =
        System::recover(image, config(), |r| r.register("hello", Arc::new(Hello))).unwrap();
    let vs = find_named_vmspace(&sys2, "hello");
    let mut buf = [0u8; 23];
    sys2.read_mem(vs, 0, &mut buf).unwrap();
    assert_eq!(&buf, b"hello, persistent world");
}

fn pingpong_registry(r: &ProgramRegistry) {
    r.register(
        "ping",
        Arc::new(Pinger { my_notif: 2, peer_notif: 3, counter_addr: 0, target: 50_000 }),
    );
    r.register(
        "pong",
        Arc::new(Pinger { my_notif: 3, peer_notif: 2, counter_addr: 0, target: 50_000 }),
    );
}

#[test]
fn ping_pong_continues_across_crash() {
    let mut sys = System::boot(config());
    pingpong_registry(sys.programs());
    // Build the process manually so the notification cap slots are known:
    // slot 0 = vmspace, slot 1 = heap pmo, slots 2 and 3 = notifications.
    let kernel = Arc::clone(sys.kernel());
    let g = kernel.create_cap_group("pingpong").unwrap();
    let vs = kernel.create_vmspace(g).unwrap();
    let pmo = kernel.create_pmo(g, 4, treesls::PmoKind::Data).unwrap();
    kernel.map_region(vs, Vpn(0), 4, pmo, 0, CapRights::ALL).unwrap();
    kernel.create_notification(g).unwrap(); // slot 2 (ping waits)
    kernel.create_notification(g).unwrap(); // slot 3 (pong waits)
    let t1 = kernel.create_thread(g, vs, "ping", treesls::ThreadContext::new()).unwrap();
    let t2 = kernel.create_thread(g, vs, "pong", treesls::ThreadContext::new()).unwrap();
    // Kick off: signal ping's notification.
    let slot2_cap = {
        let go = kernel.object(g).unwrap();
        let b = go.body.read();
        let ObjectBody::CapGroup(cg) = &*b else { unreachable!() };
        let found = cg.iter().find(|(s, _)| *s == 2).map(|(s, _)| s).unwrap();
        drop(b);
        found
    };
    kernel.notif_signal(g, slot2_cap).unwrap();

    sys.start();
    // Let it bounce for a while under 1 ms checkpointing, then crash
    // mid-run.
    std::thread::sleep(Duration::from_millis(200));
    sys.stop();
    let image = sys.crash();
    let (mut sys2, report) = System::recover(image, config(), pingpong_registry).unwrap();
    assert!(report.version >= 1);
    let vs2 = find_named_vmspace(&sys2, "pingpong");
    let mut buf = [0u8; 8];
    sys2.read_mem(vs2, 0, &mut buf).unwrap();
    let at_restore = u64::from_le_bytes(buf);
    // Resume and verify it completes to the exact target.
    sys2.start();
    let threads: Vec<_> = {
        let kernel = sys2.kernel();
        kernel
            .objects
            .read()
            .iter()
            .filter(|(_, o)| o.otype == ObjType::Thread)
            .filter(|(_, o)| {
                matches!(&*o.body.read(), ObjectBody::Thread(t) if t.program.starts_with("p"))
            })
            .map(|(id, _)| id)
            .collect()
    };
    assert_eq!(threads.len(), 2);
    assert!(sys2.join_threads(&threads, Duration::from_secs(60)), "ping-pong never finished");
    sys2.stop();
    let mut buf = [0u8; 8];
    sys2.read_mem(vs2, 0, &mut buf).unwrap();
    let final_v = u64::from_le_bytes(buf);
    assert!(final_v >= 50_000, "counter reached {final_v}, restored from {at_restore}");
    let _ = (t1, t2);
}

/// Waits on the notification in cap slot 2, counts the wake-up in memory,
/// waits again.
struct Waiter;
impl Program for Waiter {
    fn step(&self, ctx: &mut UserCtx<'_>) -> StepOutcome {
        match ctx.notif_wait(2) {
            Ok(true) => {
                let v = ctx.read_u64(0).unwrap();
                ctx.write_u64(0, v + 1).unwrap();
                StepOutcome::Ready
            }
            Ok(false) => StepOutcome::Blocked,
            Err(_) => StepOutcome::Exited,
        }
    }
}

/// Timer-driven epoch rounds walk the tree while the thread below blocks
/// and unblocks on its notification. Across several periodic full walks
/// the reference counts must keep matching the records, and the image
/// must restore (`recover: DeadObject` on the notification otherwise).
#[test]
fn blocking_thread_keeps_its_notification_across_full_walks() {
    let reg = |r: &ProgramRegistry| r.register("waiter", Arc::new(Waiter));
    let mut sys = System::boot(config());
    reg(sys.programs());
    let kernel = Arc::clone(sys.kernel());
    let g = kernel.create_cap_group("waiter").unwrap();
    let vs = kernel.create_vmspace(g).unwrap();
    let pmo = kernel.create_pmo(g, 4, treesls::PmoKind::Data).unwrap();
    kernel.map_region(vs, Vpn(0), 4, pmo, 0, CapRights::ALL).unwrap();
    let notif = kernel.create_notification(g).unwrap(); // slot 2
    kernel.create_thread(g, vs, "waiter", treesls::ThreadContext::new()).unwrap();

    sys.start();
    let rounds = 3 * kernel.config.full_walk_interval + 2;
    let until = kernel.pers.global_version() + rounds;
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    let mut wakeups = 0u64;
    while kernel.pers.global_version() < until {
        assert!(std::time::Instant::now() < deadline, "checkpoint timer stalled");
        // Signal only a parked waiter, so every signal is one
        // block → unblock transition of the thread's record.
        let parked = matches!(
            &*kernel.object(notif).unwrap().body.read(),
            ObjectBody::Notification(n) if !n.waiters.is_empty()
        );
        if parked {
            kernel.signal_object(notif).unwrap();
            wakeups += 1;
        }
        std::thread::yield_now();
    }
    sys.stop();
    assert!(wakeups > rounds, "the thread blocked and woke throughout ({wakeups} wake-ups)");
    treesls_checkpoint::tree::check_inrefs(&kernel).unwrap();
    sys.manager().verify_checkpoint().unwrap();
    drop(kernel);
    let image = sys.crash();
    System::recover(image, config(), reg).expect("every record's references resolve");
}

#[test]
fn repeated_random_crashes_never_lose_committed_state() {
    // A counter workload crash-looped several times: after each recovery
    // the counter must be monotonically ≥ the last observed checkpointed
    // value and the run must still complete.
    struct Count;
    impl Program for Count {
        fn step(&self, ctx: &mut UserCtx<'_>) -> StepOutcome {
            let v = ctx.read_u64(0).unwrap();
            if v >= 200_000 {
                return StepOutcome::Exited;
            }
            ctx.write_u64(0, v + 1).unwrap();
            StepOutcome::Ready
        }
    }
    let reg = |r: &ProgramRegistry| r.register("count", Arc::new(Count));

    let mut sys = System::boot(config());
    reg(sys.programs());
    let p = sys
        .spawn(&ProcessSpec::new("counter").heap(4).thread(ThreadSpec::new("count")))
        .unwrap();
    let mut vs = p.vmspace;
    let mut last_seen = 0u64;
    for round in 0..4 {
        sys.start();
        std::thread::sleep(Duration::from_millis(40));
        sys.stop();
        let image = sys.crash();
        let (s2, _) = System::recover(image, config(), reg).unwrap();
        sys = s2;
        vs = find_named_vmspace(&sys, "counter");
        let mut buf = [0u8; 8];
        sys.read_mem(vs, 0, &mut buf).unwrap();
        let v = u64::from_le_bytes(buf);
        assert!(
            v >= last_seen,
            "round {round}: counter went backwards past a commit: {last_seen} -> {v}"
        );
        last_seen = v;
    }
    // Finish the job after the final recovery.
    sys.start();
    let threads: Vec<_> = {
        let kernel = sys.kernel();
        kernel
            .objects
            .read()
            .iter()
            .filter(|(_, o)| o.otype == ObjType::Thread)
            .map(|(id, _)| id)
            .collect()
    };
    sys.join_threads(&threads, Duration::from_secs(60));
    sys.stop();
    let mut buf = [0u8; 8];
    sys.read_mem(vs, 0, &mut buf).unwrap();
    assert_eq!(u64::from_le_bytes(buf), 200_000);
}

/// Moves a pseudo-random amount between two accounts on the same page;
/// both balances are written within one step, so every recovery point
/// must see their sum intact.
struct Transfer;
impl Program for Transfer {
    fn step(&self, ctx: &mut UserCtx<'_>) -> StepOutcome {
        const TOTAL: u64 = 1_000_000;
        if ctx.pc() == 0 {
            ctx.write_u64(0, TOTAL).unwrap();
            ctx.write_u64(8, 0).unwrap();
            ctx.set_pc(1);
            return StepOutcome::Ready;
        }
        let rng = treesls_apps::server::xorshift64(ctx.reg(3).max(1));
        ctx.set_reg(3, rng);
        let a = ctx.read_u64(0).unwrap();
        let b = ctx.read_u64(8).unwrap();
        let amount = rng % 1000;
        let (na, nb) = if rng.is_multiple_of(2) && a >= amount {
            (a - amount, b + amount)
        } else if b >= amount {
            (a + amount, b - amount)
        } else {
            (a, b)
        };
        ctx.write_u64(0, na).unwrap();
        ctx.write_u64(8, nb).unwrap();
        StepOutcome::Ready
    }
}

/// Finds the single thread of the cap group named `name`.
fn find_named_thread(sys: &System, name: &str) -> treesls::ObjId {
    let kernel = sys.kernel();
    let objects = kernel.objects.read();
    let group = objects
        .iter()
        .map(|(_, o)| Arc::clone(o))
        .find(|o| {
            o.otype == ObjType::CapGroup
                && matches!(&*o.body.read(), ObjectBody::CapGroup(g) if g.name == name)
        })
        .expect("group");
    drop(objects);
    let body = group.body.read();
    let ObjectBody::CapGroup(g) = &*body else { unreachable!() };
    let tid = g
        .iter()
        .map(|(_, c)| c.obj)
        .find(|&o| kernel.object(o).map(|o| o.otype == ObjType::Thread).unwrap_or(false))
        .expect("thread");
    drop(body);
    tid
}

#[test]
fn epoch_flip_never_tears_a_page_under_pinned_writers() {
    // Epoch-flip companion to the hybrid-copy test below: two transfer
    // processes pinned to different cores keep stepping behind the epoch
    // fence through every checkpoint — the flip parks no core. A fence
    // bug — a write-through into the round's image, or a skipped conflict
    // capture — tears the two-word balance update exactly like the old
    // all-cores quiescence race did.
    fn register(r: &ProgramRegistry) {
        r.register("transfer", Arc::new(Transfer));
    }
    let config = || {
        let mut c = config();
        c.cores = 4;
        c.kernel.hot_threshold = 2;
        c
    };
    let pin = |sys: &System| {
        for (name, core) in [("xfer-a", 0u32), ("xfer-b", 1u32)] {
            let tid = find_named_thread(sys, name);
            sys.kernel().sched.set_affinity(tid, Some(core));
        }
    };
    let mut sys = System::boot(config());
    register(sys.programs());
    for name in ["xfer-a", "xfer-b"] {
        sys.spawn(&ProcessSpec::new(name).heap(4).thread(ThreadSpec::new("transfer")))
            .unwrap();
    }
    pin(&sys);
    for round in 1..=4 {
        sys.start();
        std::thread::sleep(Duration::from_millis(40));
        sys.stop();
        // The last round must not have parked any core: a parked core
        // means the flip never engaged.
        let quiesced = sys.kernel().metrics.snapshot().quiesced_cores;
        assert_eq!(quiesced, 0, "round {round}: the flip parked {quiesced}/4 cores");
        let image = sys.crash();
        let (s2, report) = System::recover(image, config(), register).expect("recover");
        sys = s2;
        for name in ["xfer-a", "xfer-b"] {
            let vs = find_named_vmspace(&sys, name);
            let mut buf = [0u8; 16];
            sys.read_mem(vs, 0, &mut buf).unwrap();
            let a = u64::from_le_bytes(buf[0..8].try_into().unwrap());
            let b = u64::from_le_bytes(buf[8..16].try_into().unwrap());
            assert_eq!(
                a + b,
                1_000_000,
                "{name}: torn page at recovery {round} (version {}): A={a} B={b}",
                report.version
            );
        }
        // Affinity is scheduler state, volatile across restore: re-pin.
        pin(&sys);
    }
}

#[test]
fn hybrid_copy_never_tears_a_page_under_multicore_load() {
    // Regression test for a stop-the-world race: a core that reached the
    // quiescence gate early used to start the hybrid stop-and-copy batch
    // while another core was still mid-step, so the copied page could
    // capture one half of a two-word update (A debited, B not yet
    // credited). Low hot_threshold forces the account page into the DRAM
    // cache quickly so every checkpoint stop-and-copies it.
    fn register(r: &ProgramRegistry) {
        r.register("transfer", Arc::new(Transfer));
    }
    let config = || {
        let mut c = config();
        c.kernel.hot_threshold = 2;
        c
    };
    let mut sys = System::boot(config());
    register(sys.programs());
    sys.spawn(&ProcessSpec::new("transfer").heap(4).thread(ThreadSpec::new("transfer")))
        .unwrap();
    for round in 1..=4 {
        sys.start();
        std::thread::sleep(Duration::from_millis(40));
        sys.stop();
        let image = sys.crash();
        let (s2, report) = System::recover(image, config(), register).expect("recover");
        sys = s2;
        let vs = find_named_vmspace(&sys, "transfer");
        let mut buf = [0u8; 16];
        sys.read_mem(vs, 0, &mut buf).unwrap();
        let a = u64::from_le_bytes(buf[0..8].try_into().unwrap());
        let b = u64::from_le_bytes(buf[8..16].try_into().unwrap());
        assert_eq!(
            a + b,
            1_000_000,
            "torn page at recovery {round} (version {}): A={a} B={b}",
            report.version
        );
    }
}

// ---------------------------------------------------------------------------
// Aborted epoch windows: what a fold of the leftovers keeps.
// ---------------------------------------------------------------------------

const A: u8 = 0xA5;
const B: u8 = 0xB6;
const C: u8 = 0xC7;

/// A one-page process whose page holds `A` in a committed checkpoint.
/// The aborted-window config has no hybrid copy and no timer: the test
/// plays the checkpoint leader.
fn committed_page_a() -> (System, treesls::ObjId) {
    let sys = System::boot(AbortedWindowScenario.config());
    let p = sys.spawn(&ProcessSpec::new("window").heap(1)).unwrap();
    sys.write_mem(p.vmspace, 0, &[A; 4096]).unwrap();
    sys.checkpoint_now().unwrap();
    (sys, p.vmspace)
}

/// Crashes `sys`, recovers it and reads the page back.
fn recovered_page(sys: System) -> Vec<u8> {
    let (sys2, _) =
        System::recover(sys.crash(), AbortedWindowScenario.config(), |_| {}).expect("recover");
    let vs = find_vmspace(&sys2, "window");
    let mut page = vec![0u8; 4096];
    sys2.read_mem(vs, 0, &mut page).unwrap();
    page
}

#[derive(Debug, Clone, Copy)]
enum Fold {
    /// Crash with the leftovers attached.
    None,
    /// The leader's fold over the window's pages.
    Eager,
    /// The page's next CoW fault.
    Lazy,
}

#[test]
fn aborted_window_fold_keeps_the_committed_image() {
    // Write A and commit; write B (an interval CoW: the backup pair holds
    // A, tagged with the committed version); flip; C races the window as
    // an undo record (8 B) or a whole-page capture (128 B) of B; abort.
    // Whichever fold runs, the recoverable image stays A — the aborted
    // round's B was never committed.
    for len in [8usize, 128] {
        for fold in [Fold::None, Fold::Eager, Fold::Lazy] {
            let (sys, vs) = committed_page_a();
            sys.write_mem(vs, 0, &[B; 4096]).unwrap();
            open_window(&sys);
            sys.write_mem(vs, 0, &vec![C; len]).unwrap();
            sys.kernel().fence.disarm();
            match fold {
                Fold::None => {}
                Fold::Eager => sys.kernel().fold_epoch_captures().unwrap(),
                Fold::Lazy => sys.write_mem(vs, 2048, &[0xD8; 8]).unwrap(),
            }
            let page = recovered_page(sys);
            assert!(
                page.iter().all(|&b| b == A),
                "{len} B window write, {fold:?} fold: restored {:#04x}.., committed {A:#04x}",
                page[0]
            );
        }
    }
}

#[test]
fn fold_out_of_frames_keeps_the_log_and_errs() {
    // Page A committed and untouched since, so the 8 B window write's undo
    // record is the only way back to A: the fold has to materialize
    // runtime ⊖ log into a fresh frame. With every frame held it must fail
    // and keep the log; once the frames are back, the next round folds it
    // and commits A with C's 8 bytes on top.
    for release in [false, true] {
        let (sys, vs) = committed_page_a();
        open_window(&sys);
        sys.write_mem(vs, 0, &[C; 8]).unwrap();
        sys.kernel().fence.disarm();
        let alloc = &sys.kernel().pers.alloc;
        let held: Vec<_> = std::iter::from_fn(|| alloc.alloc_page().ok()).collect();
        assert!(sys.kernel().fold_epoch_captures().is_err(), "fold got a frame from nowhere");
        let mut want = vec![A; 4096];
        if release {
            for frame in held {
                alloc.free_page(frame).unwrap();
            }
            sys.checkpoint_now().expect("the next round folds the log and commits");
            want[..8].fill(C);
        }
        let page = recovered_page(sys);
        let diff = page.iter().zip(&want).position(|(a, b)| a != b);
        assert_eq!(diff, None, "release={release}: restored page diverges at that byte");
    }
}
