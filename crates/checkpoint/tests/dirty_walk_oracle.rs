//! Differential oracle: the dirty-queue tree walk must be restore-
//! equivalent to the forced full walk.
//!
//! The same seeded syscall workload (creates, signals, revocations,
//! re-grants, heap writes, interleaved checkpoints) runs twice — once
//! with `force_full_walk: true` (the O(objects) oracle) and once in pure
//! dirty-queue mode (`full_walk_interval: 0`, never a periodic full
//! round). Both runs crash and restore, and the restored capability
//! trees must produce identical normalized fingerprints: same shape,
//! same cap slots and rights, same notification counters, same heap
//! bytes. Any object the dirty walk failed to persist, tombstoned too
//! eagerly, or left dangling shows up as a fingerprint diff naming the
//! first divergent node.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use treesls_checkpoint::{crash, restore, CheckpointManager};
use treesls_kernel::cap::CapRights;
use treesls_kernel::cores::StwController;
use treesls_kernel::object::{ObjType, ObjectBody};
use treesls_kernel::pmo::PmoKind;
use treesls_kernel::program::ProgramRegistry;
use treesls_kernel::types::{ObjId, Vaddr, Vpn};
use treesls_kernel::{Kernel, KernelConfig};

const HEAP_PAGES: u64 = 16;
const STEPS: usize = 220;

/// `full_quiesce` picks the checkpoint protocol: `true` = the paper's
/// stop-the-world oracle, `false` = the epoch flip (the default).
fn config(force_full: bool, full_quiesce: bool) -> KernelConfig {
    KernelConfig {
        nvm_frames: 4096,
        dram_pages: 128,
        force_full_walk: force_full,
        // The dirty-mode run must never fall back to a periodic full
        // round, or the oracle would be comparing full walks to full
        // walks.
        full_walk_interval: 0,
        force_full_quiesce: full_quiesce,
        ..KernelConfig::default()
    }
}

fn no_programs(_r: &ProgramRegistry) {}

/// Finds the slot of `obj`'s capability in `group`.
fn find_cap_slot(kernel: &Arc<Kernel>, group: ObjId, obj: ObjId) -> usize {
    let g = kernel.object(group).unwrap();
    let body = g.body.read();
    let ObjectBody::CapGroup(cg) = &*body else { panic!("not a group") };
    let slot = cg.iter().find(|(_, c)| c.obj == obj).map(|(s, _)| s).expect("cap present");
    slot
}

/// Runs the seeded workload under the given walk mode and checkpoint
/// protocol (see [`config`]) and returns the fingerprint of the
/// crash-restored system.
fn run(seed: u64, force_full: bool, full_quiesce: bool) -> Vec<String> {
    let kernel = Kernel::boot(config(force_full, full_quiesce));
    let stw = Arc::new(StwController::new());
    let mgr = CheckpointManager::new(Arc::clone(&kernel), stw);

    // One process with a mapped heap for content checks.
    let app = kernel.create_cap_group("app").unwrap();
    let vs = kernel.create_vmspace(app).unwrap();
    let heap = kernel.create_pmo(app, HEAP_PAGES, PmoKind::Data).unwrap();
    kernel.map_region(vs, Vpn(0), HEAP_PAGES, heap, 0, CapRights::ALL).unwrap();

    let mut rng = StdRng::seed_from_u64(seed);
    let mut groups: Vec<ObjId> = vec![app];
    // Live notifications as (owning group, object id); revoked ones move
    // to `graveyard` and may be re-granted later (the resurrect path).
    let mut notifs: Vec<(ObjId, ObjId)> = Vec::new();
    let mut graveyard: Vec<ObjId> = Vec::new();

    for step in 0..STEPS {
        match rng.gen_range(0..10u32) {
            0 | 1 => {
                let g = groups[rng.gen_range(0..groups.len())];
                let n = kernel.create_notification(g).unwrap();
                notifs.push((g, n));
            }
            2 => {
                let name = format!("g{step}");
                groups.push(kernel.create_cap_group(&name).unwrap());
            }
            3 | 4 if !notifs.is_empty() => {
                let (_, n) = notifs[rng.gen_range(0..notifs.len())];
                kernel.signal_object(n).unwrap();
            }
            5 if !notifs.is_empty() => {
                let (g, n) = notifs.swap_remove(rng.gen_range(0..notifs.len()));
                let slot = find_cap_slot(&kernel, g, n);
                kernel.revoke_cap(g, slot).unwrap();
                graveyard.push(n);
            }
            6 if !graveyard.is_empty() => {
                // Re-grant a previously revoked notification by raw id:
                // if its ORoot was already swept, the next walk must
                // rebuild it (and chase the fresh edge in the same
                // round).
                let n = graveyard.swap_remove(rng.gen_range(0..graveyard.len()));
                let g = groups[rng.gen_range(0..groups.len())];
                kernel.install_cap(g, n, CapRights::ALL).unwrap();
                notifs.push((g, n));
            }
            7 | 8 => {
                let page = rng.gen_range(0..HEAP_PAGES);
                let off = rng.gen_range(0..4096 - 8u64);
                let val: u64 = rng.gen();
                kernel
                    .vm_write(vs, Vaddr(page * 4096 + off), &val.to_le_bytes())
                    .unwrap();
            }
            _ => {
                mgr.checkpoint().unwrap();
            }
        }
        if step % 37 == 0 {
            mgr.checkpoint().unwrap();
        }
    }
    mgr.checkpoint().unwrap();
    mgr.verify_checkpoint().unwrap();
    treesls_checkpoint::tree::check_inrefs(&kernel).unwrap();

    let image = crash(kernel);
    let (k2, _) =
        restore(image, config(force_full, full_quiesce), no_programs).unwrap();
    fingerprint(&k2)
}

/// Normalized BFS fingerprint of the runtime capability tree: object ids
/// are replaced by first-visit indices, so two trees with the same shape
/// and state fingerprint identically regardless of allocation order.
fn fingerprint(kernel: &Arc<Kernel>) -> Vec<String> {
    let root = kernel.root();
    let mut order: HashMap<ObjId, usize> = HashMap::new();
    let mut queue = VecDeque::new();
    order.insert(root, 0);
    queue.push_back(root);
    let mut lines = Vec::new();
    while let Some(id) = queue.pop_front() {
        let idx = order[&id];
        let obj = kernel.object(id).expect("reachable object restored");
        let body = obj.body.read();
        let line = match &*body {
            ObjectBody::CapGroup(g) => {
                let mut kids = Vec::new();
                for (slot, cap) in g.iter() {
                    let next = order.len();
                    let k = *order.entry(cap.obj).or_insert_with(|| {
                        queue.push_back(cap.obj);
                        next
                    });
                    kids.push(format!("{slot}>{k}/{:x}", cap.rights.0));
                }
                format!("{idx} group {} [{}]", g.name, kids.join(","))
            }
            ObjectBody::Notification(n) => {
                format!("{idx} notif count={} waiters={}", n.count, n.waiters.len())
            }
            ObjectBody::IrqNotification(irq) => {
                format!("{idx} irq line={} count={}", irq.line, irq.inner.count)
            }
            ObjectBody::VmSpace(v) => {
                let regions: Vec<String> = v
                    .regions
                    .iter()
                    .map(|r| format!("{}+{}@{}", r.base.0, r.npages, r.pmo_off))
                    .collect();
                format!("{idx} vms [{}]", regions.join(","))
            }
            ObjectBody::Pmo(p) => {
                let mut present = Vec::new();
                p.pages.for_each(|i, _| present.push(i));
                format!("{idx} pmo n={} kind={:?} mat={:?}", p.npages, p.kind, present)
            }
            ObjectBody::Thread(t) => format!("{idx} thread state={:?}", t.state),
            ObjectBody::IpcConnection(c) => {
                format!("{idx} ipc queued={} replies={}", c.queue.len(), c.replies.len())
            }
        };
        lines.push(line);
    }
    // Heap content: every mapped byte of the app process, FNV-hashed per
    // page so a diff names the page.
    let vs = find_app_vmspace(kernel);
    for page in 0..HEAP_PAGES {
        let mut buf = [0u8; 4096];
        kernel.vm_read(vs, Vaddr(page * 4096), &mut buf).unwrap();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in buf {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        lines.push(format!("heap page {page} fnv={h:x}"));
    }
    lines
}

fn find_app_vmspace(kernel: &Arc<Kernel>) -> ObjId {
    let objects = kernel.objects.read();
    let group = objects
        .iter()
        .map(|(_, o)| Arc::clone(o))
        .find(|o| {
            o.otype == ObjType::CapGroup
                && matches!(&*o.body.read(), ObjectBody::CapGroup(g) if g.name == "app")
        })
        .expect("app group restored");
    drop(objects);
    let body = group.body.read();
    let ObjectBody::CapGroup(g) = &*body else { unreachable!() };
    let vs = g
        .iter()
        .map(|(_, c)| c.obj)
        .find(|&o| kernel.object(o).is_ok_and(|o| o.otype == ObjType::VmSpace))
        .expect("app vmspace restored");
    vs
}

#[test]
fn dirty_walk_matches_forced_full_walk() {
    for seed in [7u64, 23, 99, 1234, 424242] {
        let dirty = run(seed, false, false);
        let full = run(seed, true, false);
        assert_eq!(
            dirty, full,
            "seed {seed}: dirty-queue walk diverged from the full-walk oracle"
        );
    }
}

#[test]
fn dirty_walk_oracle_holds_under_both_quiesce_modes() {
    // The same differential oracle swept across the checkpoint protocol:
    // the epoch flip (the default) and the stop-the-world oracle must
    // both keep dirty ≡ full, and the two protocols must agree with each
    // other — the protocol may change *who pauses*, never *what commits*.
    for seed in [7u64, 1234] {
        let base = run(seed, false, false);
        for (force_full, full_quiesce) in [(false, true), (true, false), (true, true)] {
            let other = run(seed, force_full, full_quiesce);
            assert_eq!(
                base, other,
                "seed {seed}: walk mode force_full={force_full} / \
                 full_quiesce={full_quiesce} diverged from the epoch-flip dirty run"
            );
        }
    }
}

#[test]
fn epoch_concurrent_image_matches_quiesce_oracles() {
    // The epoch-flip round (pause = the flip only; tree walk, backup
    // builds and page copies race live mutators) must commit a round
    // image *bit-identical* to the stop-the-world oracle, which parks
    // every core for the whole copy phase. Concurrency may change *when
    // cores run*, never *what commits*.
    for seed in [7u64, 23, 99, 1234, 424242] {
        let epoch = run(seed, false, false);
        let full_quiesce = run(seed, false, true);
        assert_eq!(
            epoch, full_quiesce,
            "seed {seed}: epoch-flip image diverged from the full-quiesce oracle"
        );
    }
}

#[test]
fn dirty_walk_survives_mid_workload_restores() {
    // Same oracle, but the dirty-mode run additionally crashes and
    // restores *mid-workload*: the post-restore self-heal (cleared queue
    // + forced full round) must resynchronize the dirty state, and the
    // final tree must still match a run that never relied on dirty
    // tracking at all.
    let seed = 31337u64;
    let kernel0 = Kernel::boot(config(false, false));
    let stw = Arc::new(StwController::new());
    let mgr = CheckpointManager::new(Arc::clone(&kernel0), stw);
    let app = kernel0.create_cap_group("app").unwrap();
    let vs = kernel0.create_vmspace(app).unwrap();
    let heap = kernel0.create_pmo(app, HEAP_PAGES, PmoKind::Data).unwrap();
    kernel0.map_region(vs, Vpn(0), HEAP_PAGES, heap, 0, CapRights::ALL).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    for page in 0..HEAP_PAGES {
        let val: u64 = rng.gen();
        kernel0.vm_write(vs, Vaddr(page * 4096), &val.to_le_bytes()).unwrap();
    }
    let n = kernel0.create_notification(app).unwrap();
    kernel0.signal_object(n).unwrap();
    mgr.checkpoint().unwrap();

    // Crash + restore mid-workload, then keep mutating on the revived
    // kernel.
    let image = crash(kernel0);
    let (kernel, _) = restore(image, config(false, false), no_programs).unwrap();
    let stw = Arc::new(StwController::new());
    let mgr = CheckpointManager::new(Arc::clone(&kernel), stw);
    let vs = find_app_vmspace(&kernel);
    for page in 0..HEAP_PAGES {
        let val: u64 = rng.gen();
        kernel.vm_write(vs, Vaddr(page * 4096), &val.to_le_bytes()).unwrap();
    }
    mgr.checkpoint().unwrap();
    mgr.verify_checkpoint().unwrap();
    let image = crash(kernel);
    let (k2, _) = restore(image, config(false, false), no_programs).unwrap();

    // Reference: the same logical state built fresh under forced full
    // walks, no intermediate crash.
    let kref = Kernel::boot(config(true, false));
    let stw = Arc::new(StwController::new());
    let mref = CheckpointManager::new(Arc::clone(&kref), stw);
    let app = kref.create_cap_group("app").unwrap();
    let vsr = kref.create_vmspace(app).unwrap();
    let heapr = kref.create_pmo(app, HEAP_PAGES, PmoKind::Data).unwrap();
    kref.map_region(vsr, Vpn(0), HEAP_PAGES, heapr, 0, CapRights::ALL).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    for page in 0..HEAP_PAGES {
        let val: u64 = rng.gen();
        kref.vm_write(vsr, Vaddr(page * 4096), &val.to_le_bytes()).unwrap();
    }
    let n = kref.create_notification(app).unwrap();
    kref.signal_object(n).unwrap();
    mref.checkpoint().unwrap();
    for page in 0..HEAP_PAGES {
        let val: u64 = rng.gen();
        kref.vm_write(vsr, Vaddr(page * 4096), &val.to_le_bytes()).unwrap();
    }
    mref.checkpoint().unwrap();
    let image = crash(kref);
    let (kref2, _) = restore(image, config(true, false), no_programs).unwrap();

    assert_eq!(fingerprint(&k2), fingerprint(&kref2));
}
