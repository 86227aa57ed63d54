//! End-to-end checkpoint → crash → restore tests.
//!
//! These tests exercise the whole persistence stack: the capability-tree
//! checkpoint (§4.1), per-page versioning (§4.2), hybrid copy (§4.3) and
//! the restore path (Figure 5 step ❼), verifying that a restored system is
//! exactly the committed checkpoint image.

use std::sync::Arc;

use treesls_checkpoint::{crash, restore, CheckpointManager};
use treesls_kernel::cap::CapRights;
use treesls_kernel::cores::StwController;
use treesls_kernel::object::{ObjType, ObjectBody};
use treesls_kernel::pmo::{PhysLoc, PmoKind};
use treesls_kernel::program::{Program, ProgramRegistry, StepOutcome, UserCtx};
use treesls_kernel::thread::{ThreadContext, ThreadState};
use treesls_kernel::types::{ObjId, Vaddr, Vpn};
use treesls_kernel::{Kernel, KernelConfig};

fn config() -> KernelConfig {
    KernelConfig { nvm_frames: 2048, dram_pages: 128, ..KernelConfig::default() }
}

fn boot() -> (Arc<Kernel>, Arc<CheckpointManager>) {
    let kernel = Kernel::boot(config());
    let stw = Arc::new(StwController::new());
    let mgr = CheckpointManager::new(Arc::clone(&kernel), stw);
    (kernel, mgr)
}

/// Creates a process with a 64-page data region mapped at vpn 0.
fn process(kernel: &Arc<Kernel>, name: &str) -> (ObjId, ObjId, ObjId) {
    let g = kernel.create_cap_group(name).unwrap();
    let vs = kernel.create_vmspace(g).unwrap();
    let pmo = kernel.create_pmo(g, 64, PmoKind::Data).unwrap();
    kernel.map_region(vs, Vpn(0), 64, pmo, 0, CapRights::ALL).unwrap();
    (g, vs, pmo)
}

fn no_programs(_r: &ProgramRegistry) {}

#[test]
fn checkpoint_increments_version_and_reports_breakdown() {
    let (kernel, mgr) = boot();
    assert_eq!(kernel.pers.global_version(), 0);
    let b1 = mgr.checkpoint().unwrap();
    assert_eq!(b1.version, 1);
    assert_eq!(kernel.pers.global_version(), 1);
    assert!(b1.objects_copied >= 1); // at least the root cap group
    let b2 = mgr.checkpoint().unwrap();
    assert_eq!(b2.version, 2);
    // Second round is incremental: nothing was re-dirtied, so the
    // dirty-queue walk does not even visit the clean root group.
    assert_eq!(b2.objects_copied, 0);
}

#[test]
fn restore_without_checkpoint_fails() {
    let (kernel, _mgr) = boot();
    let image = crash(kernel);
    assert!(restore(image, config(), no_programs).is_err());
}

#[test]
fn data_rolls_back_to_committed_checkpoint() {
    let (kernel, mgr) = boot();
    let (_g, vs, _pmo) = process(&kernel, "p");
    kernel.vm_write(vs, Vaddr(0), b"committed").unwrap();
    kernel.vm_write(vs, Vaddr(8192), &[7u8; 100]).unwrap();
    mgr.checkpoint().unwrap();
    // Post-checkpoint writes must vanish.
    kernel.vm_write(vs, Vaddr(0), b"uncommitt").unwrap();
    kernel.vm_write(vs, Vaddr(16384), b"new page").unwrap();

    let image = crash(kernel);
    let (k2, report) = restore(image, config(), no_programs).unwrap();
    assert_eq!(report.version, 1);
    assert!(report.pages >= 2);

    // Find the restored process's vmspace: walk the root group.
    let vs2 = find_vmspace(&k2, "p");
    let mut buf = [0u8; 9];
    k2.vm_read(vs2, Vaddr(0), &mut buf).unwrap();
    assert_eq!(&buf, b"committed");
    let mut buf = [0u8; 100];
    k2.vm_read(vs2, Vaddr(8192), &mut buf).unwrap();
    assert_eq!(buf, [7u8; 100]);
    // The page created after the checkpoint reads as zero (fresh page).
    let mut buf = [0u8; 8];
    k2.vm_read(vs2, Vaddr(16384), &mut buf).unwrap();
    assert_eq!(buf, [0u8; 8]);
}

/// Finds the VM space of the process cap group named `name`.
fn find_vmspace(kernel: &Arc<Kernel>, name: &str) -> ObjId {
    let objects = kernel.objects.read();
    let group = objects
        .iter()
        .map(|(_, o)| Arc::clone(o))
        .find(|o| {
            o.otype == ObjType::CapGroup
                && matches!(&*o.body.read(), ObjectBody::CapGroup(g) if g.name == name)
        })
        .expect("process group");
    drop(objects);
    let body = group.body.read();
    let ObjectBody::CapGroup(g) = &*body else { unreachable!() };
    for (_, cap) in g.iter() {
        if let Ok(o) = kernel.object(cap.obj) {
            if o.otype == ObjType::VmSpace {
                return cap.obj;
            }
        }
    }
    panic!("no vmspace in group {name}");
}

#[test]
fn repeated_checkpoint_crash_cycles_preserve_latest_commit() {
    let (mut kernel, mut mgr) = boot();
    let (_g, mut vs, _pmo) = process(&kernel, "p");
    for round in 0u64..5 {
        kernel.vm_write(vs, Vaddr(0), &round.to_le_bytes()).unwrap();
        mgr.checkpoint().unwrap();
        // Dirty the page after the commit; this write must not survive.
        kernel.vm_write(vs, Vaddr(0), &0xDEADu64.to_le_bytes()).unwrap();
        let image = crash(kernel);
        let (k2, report) = restore(image, config(), no_programs).unwrap();
        assert_eq!(report.version, round + 1);
        vs = find_vmspace(&k2, "p");
        let mut buf = [0u8; 8];
        k2.vm_read(vs, Vaddr(0), &mut buf).unwrap();
        assert_eq!(u64::from_le_bytes(buf), round, "round {round}");
        kernel = k2;
        let stw = Arc::new(StwController::new());
        mgr = CheckpointManager::new(Arc::clone(&kernel), stw);
    }
}

#[test]
fn allocator_is_consistent_after_restore() {
    let (kernel, mgr) = boot();
    let (_g, vs, _pmo) = process(&kernel, "p");
    for i in 0..32u64 {
        kernel.vm_write(vs, Vaddr(i * 4096), &i.to_le_bytes()).unwrap();
    }
    mgr.checkpoint().unwrap();
    for i in 0..32u64 {
        kernel.vm_write(vs, Vaddr(i * 4096), &(i * 3).to_le_bytes()).unwrap();
    }
    mgr.checkpoint().unwrap();
    let free_before = kernel.pers.alloc.stats().free_frames;
    let image = crash(kernel);
    let (k2, _) = restore(image, config(), no_programs).unwrap();
    k2.pers.alloc.verify().unwrap();
    let free_after = k2.pers.alloc.stats().free_frames;
    // Rollback can only return frames (uncommitted allocations), never
    // leak them.
    assert!(free_after >= free_before, "restore leaked frames: {free_before} -> {free_after}");
    // The restored system keeps working.
    let vs2 = find_vmspace(&k2, "p");
    k2.vm_write(vs2, Vaddr(0), b"alive").unwrap();
    let mut b = [0u8; 5];
    k2.vm_read(vs2, Vaddr(0), &mut b).unwrap();
    assert_eq!(&b, b"alive");
}

/// A program that increments a counter in memory once per step.
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

fn register_counter(r: &ProgramRegistry) {
    r.register("counter", Arc::new(Counter));
}

#[test]
fn thread_context_resumes_exactly_from_checkpoint() {
    let (kernel, mgr) = boot();
    register_counter(&kernel.programs);
    let (g, vs, _pmo) = process(&kernel, "p");
    let mut ctx = ThreadContext::new();
    ctx.regs[1] = 1000;
    let tid = kernel.create_thread(g, vs, "counter", ctx).unwrap();

    // Run 300 steps by hand (single "core", no STW contention).
    let stw = StwController::new();
    for _ in 0..300 {
        treesls_kernel::cores::run_slice(&kernel, tid, 1, &stw);
        kernel.sched.next();
    }
    let mut buf = [0u8; 8];
    kernel.vm_read(vs, Vaddr(0), &mut buf).unwrap();
    assert_eq!(u64::from_le_bytes(buf), 300);

    mgr.checkpoint().unwrap();
    // 200 more steps after the checkpoint — lost on crash.
    for _ in 0..200 {
        treesls_kernel::cores::run_slice(&kernel, tid, 1, &stw);
        kernel.sched.next();
    }

    let image = crash(kernel);
    let (k2, _) = restore(image, config(), register_counter).unwrap();
    let vs2 = find_vmspace(&k2, "p");
    let mut buf = [0u8; 8];
    k2.vm_read(vs2, Vaddr(0), &mut buf).unwrap();
    assert_eq!(u64::from_le_bytes(buf), 300, "memory rolled back to checkpoint");

    // The revived thread is runnable and continues to exactly 1000.
    let tid2 = k2.sched.next().expect("runnable thread restored");
    let stw2 = StwController::new();
    let mut guard = 0;
    loop {
        treesls_kernel::cores::run_slice(&k2, tid2, 100, &stw2);
        let th = k2.object(tid2).unwrap();
        let done = matches!(
            &*th.body.read(),
            ObjectBody::Thread(t) if t.state == ThreadState::Exited
        );
        if done {
            break;
        }
        k2.sched.next();
        guard += 1;
        assert!(guard < 100, "thread did not finish");
    }
    k2.vm_read(vs2, Vaddr(0), &mut buf).unwrap();
    assert_eq!(u64::from_le_bytes(buf), 1000, "register state resumed mid-run");
}

#[test]
fn blocked_thread_and_notification_state_survive() {
    let (kernel, mgr) = boot();
    blocked_thread(&kernel);
    mgr.checkpoint().unwrap();

    let image = crash(kernel);
    let (k2, _) = restore(image, config(), register_counter).unwrap();
    // The blocked thread is not in the run queue...
    assert!(k2.sched.next().is_none());
    // ...but a signal wakes it.
    let g2 = find_group(&k2, "p");
    let notif2 = {
        let body = k2.object(g2).unwrap();
        let b = body.body.read();
        let ObjectBody::CapGroup(cg) = &*b else { unreachable!() };
        let found = cg
            .iter()
            .map(|(_, c)| c.obj)
            .find(|&o| k2.object(o).unwrap().otype == ObjType::Notification)
            .unwrap();
        drop(b);
        found
    };
    k2.signal_object(notif2).unwrap();
    assert!(k2.sched.next().is_some(), "woken thread enqueued after restore");
}

/// Process "p" with a "counter" thread blocked on a fresh notification;
/// returns (notification, thread).
fn blocked_thread(kernel: &Arc<Kernel>) -> (ObjId, ObjId) {
    register_counter(&kernel.programs);
    let (g, vs, _pmo) = process(kernel, "p");
    let notif = kernel.create_notification(g).unwrap();
    let slot = find_cap_slot(kernel, g, notif);
    let tid = kernel.create_thread(g, vs, "counter", ThreadContext::new()).unwrap();
    assert!(!kernel.notif_wait(tid, g, slot).unwrap());
    (notif, tid)
}

/// The interleaving an epoch-concurrent periodic full walk can meet: a
/// thread is read as runnable while the (clean, kept) record says it is
/// blocked on a notification. Counting references from the runtime body
/// left the notification one short; the thread's later unblock then
/// drained it to zero, it was tombstoned and swept, and the cap group's
/// untouched record dangled (`recover: DeadObject`).
#[test]
fn full_walk_counts_kept_records_not_racing_runtime_state() {
    use std::sync::atomic::Ordering;
    use treesls_checkpoint::tree::check_inrefs;

    let (kernel, mgr) = boot();
    let (notif, tid) = blocked_thread(&kernel);
    mgr.checkpoint().unwrap();
    check_inrefs(&kernel).unwrap();

    let set_state = |state: ThreadState| {
        let thread = kernel.object(tid).unwrap();
        let mut body = thread.body.write();
        let ObjectBody::Thread(t) = &mut *body else { unreachable!() };
        std::mem::replace(&mut t.state, state)
    };
    let blocked = set_state(ThreadState::Runnable);
    // Next round is the periodic (non-healing) full walk.
    kernel.rounds_since_full.store(kernel.config.full_walk_interval - 1, Ordering::Relaxed);
    mgr.checkpoint().unwrap();
    set_state(blocked);
    check_inrefs(&kernel).unwrap();

    // The thread really unblocks: the dirty walk diffs its new record
    // against the kept one and drops the edge to the notification.
    kernel.signal_object(notif).unwrap();
    mgr.checkpoint().unwrap();
    mgr.checkpoint().unwrap();
    check_inrefs(&kernel).unwrap();
    mgr.verify_checkpoint().unwrap();
    let image = crash(kernel);
    restore(image, config(), register_counter).expect("cap group still resolves its notification");
}

/// A diff that drops more references than were ever counted means the
/// count was wrong: the object is kept and the next round recounts.
#[test]
fn inref_underflow_forces_a_recount_instead_of_a_tombstone() {
    use std::sync::atomic::Ordering;
    use treesls_checkpoint::tree::check_inrefs;

    let (kernel, mgr) = boot();
    let (notif, _tid) = blocked_thread(&kernel);
    mgr.checkpoint().unwrap();

    let oroot = kernel.object(notif).unwrap().oroot().expect("checkpointed");
    kernel.pers.oroots.with_mut(oroot, |r| r.inrefs = 0).expect("live oroot");
    assert!(check_inrefs(&kernel).is_err(), "the checker sees the planted miscount");

    kernel.signal_object(notif).unwrap(); // the thread's record drops its edge
    mgr.checkpoint().unwrap();
    assert!(kernel.force_full_next.load(Ordering::Acquire), "miscount schedules a healing walk");
    assert_eq!(kernel.pers.oroots.with(oroot, |r| r.deleted_at), Some(None), "not tombstoned");

    mgr.checkpoint().unwrap();
    check_inrefs(&kernel).unwrap();
    mgr.verify_checkpoint().unwrap();
    restore(crash(kernel), config(), register_counter).expect("nothing dangles");
}

fn find_group(kernel: &Arc<Kernel>, name: &str) -> ObjId {
    let objects = kernel.objects.read();
    let id = objects
        .iter()
        .find(|(_, o)| {
            o.otype == ObjType::CapGroup
                && matches!(&*o.body.read(), ObjectBody::CapGroup(g) if g.name == name)
        })
        .map(|(id, _)| id)
        .expect("group");
    drop(objects);
    id
}

fn find_cap_slot(kernel: &Arc<Kernel>, group: ObjId, obj: ObjId) -> usize {
    let g = kernel.object(group).unwrap();
    let b = g.body.read();
    let ObjectBody::CapGroup(cg) = &*b else { panic!("not a group") };
    let slot = cg.iter().find(|(_, c)| c.obj == obj).map(|(s, _)| s).expect("cap present");
    drop(b);
    slot
}

#[test]
fn hybrid_copy_migrates_hot_pages_and_survives_crash() {
    let (kernel, mgr) = boot();
    let (_g, vs, pmo) = process(&kernel, "hot");
    // Make page 0 hot: fault it across several checkpoint rounds.
    for round in 0u64..6 {
        kernel.vm_write(vs, Vaddr(0), &round.to_le_bytes()).unwrap();
        mgr.checkpoint().unwrap();
    }
    // The page should now be DRAM-cached.
    let slot = {
        let o = kernel.object(pmo).unwrap();
        let b = o.body.read();
        let ObjectBody::Pmo(p) = &*b else { unreachable!() };
        Arc::clone(p.get(0).unwrap())
    };
    assert!(slot.meta.lock().is_migrated(), "hot page migrated to DRAM");
    assert!(matches!(slot.meta.lock().runtime_loc(), PhysLoc::Dram(_)));

    // Write through DRAM, checkpoint (speculative stop-and-copy), then
    // dirty it again and crash: the committed value must be restored.
    kernel.vm_write(vs, Vaddr(0), &0xAAAAu64.to_le_bytes()).unwrap();
    let b = mgr.checkpoint().unwrap();
    assert!(b.hybrid_busy.as_nanos() > 0, "hybrid copy did work");
    kernel.vm_write(vs, Vaddr(0), &0xBBBBu64.to_le_bytes()).unwrap();

    let image = crash(kernel);
    let (k2, _) = restore(image, config(), no_programs).unwrap();
    let vs2 = find_vmspace(&k2, "hot");
    let mut buf = [0u8; 8];
    k2.vm_read(vs2, Vaddr(0), &mut buf).unwrap();
    assert_eq!(u64::from_le_bytes(buf), 0xAAAA, "DRAM page restored from NVM backup");
}

#[test]
fn idle_hot_pages_are_evicted_back_to_nvm() {
    let mut cfg = config();
    cfg.idle_evict_rounds = 3;
    let kernel = Kernel::boot(cfg);
    let stw = Arc::new(StwController::new());
    let mgr = CheckpointManager::new(Arc::clone(&kernel), stw);
    let (_g, vs, pmo) = process(&kernel, "p");
    for round in 0u64..5 {
        kernel.vm_write(vs, Vaddr(0), &round.to_le_bytes()).unwrap();
        mgr.checkpoint().unwrap();
    }
    let slot = {
        let o = kernel.object(pmo).unwrap();
        let b = o.body.read();
        let ObjectBody::Pmo(p) = &*b else { unreachable!() };
        Arc::clone(p.get(0).unwrap())
    };
    assert!(slot.meta.lock().is_migrated());
    // Stop touching the page: after idle_evict_rounds checkpoints it
    // returns to NVM.
    for _ in 0..5 {
        mgr.checkpoint().unwrap();
    }
    assert!(!slot.meta.lock().is_migrated(), "idle page evicted");
    assert_eq!(kernel.tracker.active_len(), 0, "active list compacted");
    // Its content is intact.
    let mut buf = [0u8; 8];
    kernel.vm_read(vs, Vaddr(0), &mut buf).unwrap();
    assert_eq!(u64::from_le_bytes(buf), 4);
}

#[test]
fn eternal_pmo_is_not_rolled_back() {
    let (kernel, mgr) = boot();
    let g = kernel.create_cap_group("driver").unwrap();
    let vs = kernel.create_vmspace(g).unwrap();
    let epmo = kernel.create_pmo(g, 4, PmoKind::Eternal).unwrap();
    kernel.map_region(vs, Vpn(0), 4, epmo, 0, CapRights::ALL).unwrap();
    kernel.vm_write(vs, Vaddr(0), b"ring v1").unwrap();
    mgr.checkpoint().unwrap();
    // Post-checkpoint write to the eternal PMO: must SURVIVE the crash.
    kernel.vm_write(vs, Vaddr(0), b"ring v2").unwrap();
    let s = kernel.stats.snapshot();
    assert_eq!(s.write_faults, 0, "eternal pages never CoW-fault");

    let image = crash(kernel);
    let (k2, _) = restore(image, config(), no_programs).unwrap();
    let vs2 = find_vmspace(&k2, "driver");
    let mut buf = [0u8; 7];
    k2.vm_read(vs2, Vaddr(0), &mut buf).unwrap();
    assert_eq!(&buf, b"ring v2", "eternal PMO kept its at-crash content");
}

#[test]
fn ipc_in_flight_messages_survive_restore() {
    let (kernel, mgr) = boot();
    register_counter(&kernel.programs);
    let (g, vs, _pmo) = process(&kernel, "srv");
    let client = kernel.create_thread(g, vs, "counter", ThreadContext::new()).unwrap();
    let (_conn, sslot, _cslot) = kernel.create_ipc_conn(g, g).unwrap();
    kernel.ipc_call(client, g, sslot, b"in-flight".to_vec()).unwrap();
    mgr.checkpoint().unwrap();

    let image = crash(kernel);
    let (k2, _) = restore(image, config(), register_counter).unwrap();
    // The revived server-side connection still has the queued request.
    let g2 = find_group(&k2, "srv");
    let conn2 = {
        let o = k2.object(g2).unwrap();
        let b = o.body.read();
        let ObjectBody::CapGroup(cg) = &*b else { unreachable!() };
        let found = cg
            .iter()
            .map(|(_, c)| c.obj)
            .find(|&o| k2.object(o).unwrap().otype == ObjType::IpcConnection)
            .unwrap();
        drop(b);
        found
    };
    let o = k2.object(conn2).unwrap();
    let b = o.body.read();
    let ObjectBody::IpcConnection(c) = &*b else { unreachable!() };
    assert_eq!(c.queue.len(), 1);
    assert_eq!(c.queue[0].data, b"in-flight");
    // The blocked client thread reference is consistent.
    let from = c.queue[0].from;
    let th = k2.object(from).unwrap();
    assert_eq!(th.otype, ObjType::Thread);
}

#[test]
fn unreferenced_objects_are_deleted_after_commit() {
    let (kernel, mgr) = boot();
    let g = kernel.create_cap_group("p").unwrap();
    let n = kernel.create_notification(g).unwrap();
    mgr.checkpoint().unwrap();
    let oroot_count_before = kernel.pers.oroots.len();
    // Revoke the only capability: the notification becomes unreachable.
    let slot = find_cap_slot(&kernel, g, n);
    {
        let go = kernel.object(g).unwrap();
        let mut b = go.body.write();
        let ObjectBody::CapGroup(cg) = &mut *b else { unreachable!() };
        cg.revoke(slot).unwrap();
        go.mark_dirty();
    }
    // First checkpoint marks the deletion; it is already committed at this
    // checkpoint's commit point, so the sweep reclaims it immediately.
    mgr.checkpoint().unwrap();
    let oroot_count_after = kernel.pers.oroots.len();
    assert!(
        oroot_count_after < oroot_count_before,
        "deleted object swept: {oroot_count_before} -> {oroot_count_after}"
    );
    // And a crash/restore does not revive it.
    let image = crash(kernel);
    let (k2, _) = restore(image, config(), no_programs).unwrap();
    let census = k2.census();
    assert_eq!(census.get(&ObjType::Notification).copied().unwrap_or(0), 0);
}

#[test]
fn census_and_ckpt_size_reporting() {
    let (kernel, mgr) = boot();
    let (_g, vs, _pmo) = process(&kernel, "p");
    for i in 0..16u64 {
        kernel.vm_write(vs, Vaddr(i * 4096), &[1u8; 4096]).unwrap();
    }
    mgr.checkpoint().unwrap();
    assert!(kernel.app_memory_bytes() >= 16 * 4096);
    // No page has been re-dirtied, so checkpoint size is just metadata
    // (runtime pages double as checkpoint data — the Table 2 point).
    let sz1 = mgr.ckpt_size_bytes();
    // Dirty all pages and checkpoint again: backups are created.
    for i in 0..16u64 {
        kernel.vm_write(vs, Vaddr(i * 4096), &[2u8; 4096]).unwrap();
    }
    mgr.checkpoint().unwrap();
    for i in 0..16u64 {
        kernel.vm_write(vs, Vaddr(i * 4096), &[3u8; 4096]).unwrap();
    }
    let sz2 = mgr.ckpt_size_bytes();
    assert!(sz2 > sz1, "CoW backups count toward checkpoint size: {sz1} -> {sz2}");
    assert!(sz2 >= 16 * 4096);
}

#[test]
fn removed_pages_are_tombstoned_then_reclaimed() {
    let (kernel, mgr) = boot();
    let (_g, vs, pmo) = process(&kernel, "p");
    for i in 0..8u64 {
        kernel.vm_write(vs, Vaddr(i * 4096), &[i as u8; 16]).unwrap();
    }
    mgr.checkpoint().unwrap(); // v1: 8 pages in the backup tree
    let free_v1 = kernel.pers.alloc.stats().free_frames;

    // Unmap + drop half the pages.
    kernel.unmap_region(vs, Vpn(0)).unwrap();
    for i in 0..4u64 {
        assert!(kernel.pmo_remove_page(pmo, i).unwrap());
        assert!(!kernel.pmo_remove_page(pmo, i).unwrap());
    }
    kernel.map_region(vs, Vpn(0), 64, pmo, 0, CapRights::ALL).unwrap();
    // v2 tombstones the removals; frames still held for restore-to-v1.
    mgr.checkpoint().unwrap();
    // v3 purges the committed tombstones and frees the frames.
    mgr.checkpoint().unwrap();
    let free_v3 = kernel.pers.alloc.stats().free_frames;
    assert!(
        free_v3 >= free_v1 + 4,
        "deferred reclamation did not return frames: {free_v1} -> {free_v3}"
    );
    kernel.pers.alloc.verify().unwrap();

    // Crash: restored PMO has only the surviving pages.
    let image = crash(kernel);
    let (k2, _) = restore(image, config(), no_programs).unwrap();
    let vs2 = find_vmspace(&k2, "p");
    let mut buf = [0u8; 16];
    k2.vm_read(vs2, Vaddr(5 * 4096), &mut buf).unwrap();
    assert_eq!(buf, [5u8; 16]);
    // The removed page reads as zero (fresh materialization).
    k2.vm_read(vs2, Vaddr(0), &mut buf).unwrap();
    assert_eq!(buf, [0u8; 16]);
}

#[test]
fn verify_checkpoint_passes_and_detects_missing_backup() {
    let (kernel, mgr) = boot();
    let (_g, vs, _pmo) = process(&kernel, "p");
    kernel.vm_write(vs, Vaddr(0), b"check me").unwrap();
    assert!(mgr.verify_checkpoint().is_err(), "no commit yet");
    mgr.checkpoint().unwrap();
    let checked = mgr.verify_checkpoint().unwrap();
    assert!(checked >= 4, "only {checked} objects verified");
    // Corrupt the backup store: remove a record behind the ORoots' back.
    {
        let mut victim = None;
        kernel.pers.oroots.for_each(|_, r| {
            if victim.is_none() {
                victim = r.backups.iter().flatten().next().map(|vb| vb.slot);
            }
        });
        kernel.pers.backups.remove(victim.expect("some backup")).expect("removed");
    }
    assert!(mgr.verify_checkpoint().is_err(), "corruption went undetected");
}

#[test]
fn revoked_last_cap_deletes_object_at_next_commit() {
    let (kernel, mgr) = boot();
    let g = kernel.create_cap_group("p").unwrap();
    let n = kernel.create_notification(g).unwrap();
    mgr.checkpoint().unwrap();
    let before = kernel.pers.oroots.len();
    let slot = find_cap_slot(&kernel, g, n);
    kernel.revoke_cap(g, slot).unwrap();
    mgr.checkpoint().unwrap();
    let after = kernel.pers.oroots.len();
    assert!(after < before);
    mgr.verify_checkpoint().unwrap();
}

#[test]
fn crash_during_uncommitted_checkpoint_restores_previous_version() {
    // §4.2's core correctness claim: "a consistent view is always
    // persisted to deal with unexpected power failures". A crash after
    // all checkpoint work but before the commit point must restore the
    // previous version, ignoring every in-flight version tag.
    let (kernel, mgr) = boot();
    let (_g, vs, _pmo) = process(&kernel, "p");
    kernel.vm_write(vs, Vaddr(0), b"v1-data").unwrap();
    mgr.checkpoint().unwrap(); // v1 commits
    kernel.vm_write(vs, Vaddr(0), b"v2-data").unwrap();
    // The interrupted checkpoint writes backup records and page tags for
    // v2 — none of which may be visible after recovery.
    mgr.checkpoint_interrupted_before_commit().unwrap();
    kernel.vm_write(vs, Vaddr(4096), b"late").unwrap();

    let image = crash(kernel);
    let (k2, report) = restore(image, config(), no_programs).unwrap();
    assert_eq!(report.version, 1, "uncommitted checkpoint must not be restored");
    let vs2 = find_vmspace(&k2, "p");
    let mut buf = [0u8; 7];
    k2.vm_read(vs2, Vaddr(0), &mut buf).unwrap();
    assert_eq!(&buf, b"v1-data");
    k2.pers.alloc.verify().unwrap();
}

#[test]
fn interrupted_then_completed_checkpoint_is_clean() {
    // An aborted round followed by a successful one: the successful
    // commit supersedes the in-flight tags and restores exactly.
    let (kernel, mgr) = boot();
    let (_g, vs, _pmo) = process(&kernel, "p");
    for round in 0u64..4 {
        kernel.vm_write(vs, Vaddr(0), &round.to_le_bytes()).unwrap();
        mgr.checkpoint_interrupted_before_commit().unwrap();
        kernel.vm_write(vs, Vaddr(0), &(round + 100).to_le_bytes()).unwrap();
        mgr.checkpoint().unwrap();
        mgr.verify_checkpoint().unwrap();
    }
    let committed = kernel.pers.global_version();
    let image = crash(kernel);
    let (k2, report) = restore(image, config(), no_programs).unwrap();
    assert_eq!(report.version, committed);
    let vs2 = find_vmspace(&k2, "p");
    let mut buf = [0u8; 8];
    k2.vm_read(vs2, Vaddr(0), &mut buf).unwrap();
    assert_eq!(u64::from_le_bytes(buf), 103);
}

/// Backup records live in NVM slab space, so they rot like any other NVM
/// byte. Two corruptions of a committed image: (a) the record of a
/// reachable notification replaced by a record of another type, and (b) a
/// committed, checksummed page pointer aimed past the device's last frame.
/// `verify_checkpoint` rejects both; restore refuses to revive (a) and
/// falls back or quarantines the page in (b), reporting it — it never
/// panics and never builds an object whose body disagrees with its type.
#[test]
fn corrupt_committed_image_is_rejected_not_revived() {
    use treesls_kernel::oroot::BackupObject;
    use treesls_nvm::FrameId;

    // (a) The notification's committed record now says "VM space".
    let (kernel, mgr) = boot();
    let (notif, _tid) = blocked_thread(&kernel);
    mgr.checkpoint().unwrap();
    let oroot = kernel.object(notif).unwrap().oroot().expect("checkpointed");
    let slot = kernel
        .pers
        .oroots
        .with(oroot, |r| r.backups.iter().flatten().max_by_key(|b| b.version).map(|b| b.slot))
        .flatten()
        .expect("committed record");
    kernel.pers.backups.with_mut(slot, |r| *r = BackupObject::VmSpace { regions: vec![] });
    assert!(mgr.verify_checkpoint().is_err(), "verify accepted a mistyped record");
    assert!(
        restore(crash(kernel), config(), register_counter).is_err(),
        "restore revived a mistyped record"
    );

    // (b) Page 0's committed CoW backup points past the last frame.
    let (kernel, mgr) = boot();
    let (_g, vs, pmo) = process(&kernel, "p");
    kernel.vm_write(vs, Vaddr(0), b"committed").unwrap();
    mgr.checkpoint().unwrap();
    kernel.vm_write(vs, Vaddr(0), b"later").unwrap(); // CoW: pairs[0] is the v1 image
    let page = {
        let o = kernel.object(pmo).unwrap();
        let b = o.body.read();
        let ObjectBody::Pmo(p) = &*b else { unreachable!() };
        Arc::clone(p.get(0).unwrap())
    };
    {
        let mut meta = page.meta.lock();
        let backup = meta.pairs[0].as_mut().expect("CoW backup");
        assert_eq!(backup.version, kernel.pers.global_version());
        assert!(backup.crc.is_some());
        backup.frame = FrameId(kernel.pers.dev.frame_count() as u32 + 7);
    }
    assert!(mgr.verify_checkpoint().is_err(), "verify accepted an off-device frame");
    let (k2, report) = restore(crash(kernel), config(), no_programs).expect("degraded recovery");
    let rec = &report.recovery;
    assert_eq!(rec.pages_fell_back + rec.quarantined.len(), 1, "{rec:?}");
    assert!(!rec.is_clean());
    k2.pers.alloc.verify().unwrap();
}
