//! The per-thread TLB in front of the soft page table.
//!
//! A TLB entry is keyed by kernel instance, VM space and vpn, and hits
//! only while the kernel's TLB generation is the one it was filled under.
//! Each test here fails on a TLB that skips the generation check or the
//! kernel id: it leaves a translation cached where a stale hit would read
//! or write the wrong page, or let a write through a read-only region.

use std::sync::Arc;

use treesls_checkpoint::{crash, restore, CheckpointManager};
use treesls_kernel::cap::CapRights;
use treesls_kernel::cores::StwController;
use treesls_kernel::object::{ObjType, ObjectBody};
use treesls_kernel::pmo::PmoKind;
use treesls_kernel::program::ProgramRegistry;
use treesls_kernel::types::{KernelError, ObjId, Vaddr, Vpn};
use treesls_kernel::{Kernel, KernelConfig};

fn config() -> KernelConfig {
    KernelConfig { nvm_frames: 1024, dram_pages: 64, ..KernelConfig::default() }
}

/// A process with one VM space and a 4-page PMO mapped at vpn 0.
fn process(kernel: &Kernel, perm: CapRights) -> (ObjId, ObjId, ObjId) {
    let g = kernel.create_cap_group("p").unwrap();
    let vs = kernel.create_vmspace(g).unwrap();
    let pmo = kernel.create_pmo(g, 4, PmoKind::Data).unwrap();
    kernel.map_region(vs, Vpn(0), 4, pmo, 0, perm).unwrap();
    (g, vs, pmo)
}

fn read(kernel: &Kernel, vs: ObjId, addr: u64, len: usize) -> Result<Vec<u8>, KernelError> {
    let mut buf = vec![0u8; len];
    kernel.vm_read(vs, Vaddr(addr), &mut buf)?;
    Ok(buf)
}

#[test]
fn unmap_on_another_thread_stops_a_cached_translation() {
    let kernel = Kernel::boot(config());
    let (_g, vs, _pmo) = process(&kernel, CapRights::ALL);
    kernel.vm_write(vs, Vaddr(0), b"cached").unwrap();
    assert_eq!(read(&kernel, vs, 0, 6).unwrap(), b"cached");

    let k = Arc::clone(&kernel);
    std::thread::spawn(move || k.unmap_region(vs, Vpn(0)).unwrap()).join().unwrap();

    assert!(matches!(read(&kernel, vs, 0, 6), Err(KernelError::UnmappedAddress(_))));
    assert!(matches!(kernel.vm_write(vs, Vaddr(0), b"x"), Err(KernelError::UnmappedAddress(_))));
}

#[test]
fn remap_to_another_pmo_reads_the_new_pmo() {
    let kernel = Kernel::boot(config());
    let (g, vs, _old) = process(&kernel, CapRights::ALL);
    let new = kernel.create_pmo(g, 4, PmoKind::Data).unwrap();
    kernel.map_region(vs, Vpn(100), 4, new, 0, CapRights::ALL).unwrap();
    kernel.vm_write(vs, Vaddr(100 * 4096), b"new pmo").unwrap();
    kernel.vm_write(vs, Vaddr(0), b"old pmo").unwrap();
    assert_eq!(read(&kernel, vs, 0, 7).unwrap(), b"old pmo");

    kernel.unmap_region(vs, Vpn(0)).unwrap();
    kernel.map_region(vs, Vpn(0), 4, new, 0, CapRights::ALL).unwrap();
    assert_eq!(read(&kernel, vs, 0, 7).unwrap(), b"new pmo");
}

#[test]
fn restore_on_the_same_thread_reads_the_restored_bytes() {
    const PROCS: usize = 4;
    let kernel = Kernel::boot(config());
    let mgr = CheckpointManager::new(Arc::clone(&kernel), Arc::new(StwController::new()));
    // Restore renumbers objects in its walk order. Creating the VM space
    // before the PMO in some processes and after it in others makes some
    // restored VM space take an id an old VM space had.
    let mut old = Vec::new();
    for i in 0..PROCS {
        let g = kernel.create_cap_group(&format!("p{i}")).unwrap();
        let (vs, pmo) = if i % 2 == 0 {
            let vs = kernel.create_vmspace(g).unwrap();
            (vs, kernel.create_pmo(g, 4, PmoKind::Data).unwrap())
        } else {
            let pmo = kernel.create_pmo(g, 4, PmoKind::Data).unwrap();
            (kernel.create_vmspace(g).unwrap(), pmo)
        };
        kernel.map_region(vs, Vpn(0), 4, pmo, 0, CapRights::ALL).unwrap();
        kernel.vm_write(vs, Vaddr(0), format!("committed {i}").as_bytes()).unwrap();
        old.push(vs);
    }
    mgr.checkpoint().unwrap();
    // Every space's translation of vpn 0 is now cached on this thread.
    for (i, &vs) in old.iter().enumerate() {
        kernel.vm_write(vs, Vaddr(0), format!("lost byte {i}").as_bytes()).unwrap();
    }
    drop(mgr);

    let (k2, _) = restore(crash(kernel), config(), |_: &ProgramRegistry| {}).unwrap();
    let mut reused = 0;
    for i in 0..PROCS {
        let vs2 = vmspace_of(&k2, &format!("p{i}"));
        reused += usize::from(old.contains(&vs2));
        assert_eq!(read(&k2, vs2, 0, 11).unwrap(), format!("committed {i}").as_bytes());
    }
    // A restored space whose id a dead kernel's cached entry also carries
    // is what only the kernel id tells apart.
    assert!(reused > 0, "no restored VM space reuses an old id: the test checks nothing");
}

#[test]
fn two_live_kernels_do_not_alias() {
    let k1 = Kernel::boot(config());
    let k2 = Kernel::boot(config());
    let (_, vs1, _) = process(&k1, CapRights::ALL);
    let (_, vs2, _) = process(&k2, CapRights::ALL);
    assert_eq!(vs1, vs2, "identical boots hand out identical ids");
    k1.vm_write(vs1, Vaddr(0), b"one").unwrap();
    // k2's first frame backs vpn 1, so its vpn 0 is on another frame than
    // k1's: a write through k1's translation would land on k2's vpn 1.
    k2.vm_write(vs2, Vaddr(4096), b"pad").unwrap();
    k2.vm_write(vs2, Vaddr(0), b"two").unwrap();
    assert_eq!(read(&k1, vs1, 0, 3).unwrap(), b"one");
    assert_eq!(read(&k2, vs2, 0, 3).unwrap(), b"two");
    assert_eq!(read(&k2, vs2, 4096, 3).unwrap(), b"pad");
}

#[test]
fn read_only_region_refuses_a_write_after_a_cached_read() {
    let kernel = Kernel::boot(config());
    let (_g, vs, pmo) = process(&kernel, CapRights::ALL);
    kernel.vm_write(vs, Vaddr(0), b"rw").unwrap();
    // Remapped read-only: the writable translation cached above is stale.
    kernel.unmap_region(vs, Vpn(0)).unwrap();
    kernel.map_region(vs, Vpn(0), 4, pmo, 0, CapRights::READ).unwrap();
    assert_eq!(read(&kernel, vs, 0, 2).unwrap(), b"rw");
    assert_eq!(kernel.vm_write(vs, Vaddr(0), b"xx"), Err(KernelError::PermissionDenied));
    assert_eq!(read(&kernel, vs, 0, 2).unwrap(), b"rw");
}

/// The VM space of the process cap group named `name`.
fn vmspace_of(kernel: &Kernel, name: &str) -> ObjId {
    let group = kernel
        .objects
        .read()
        .iter()
        .map(|(_, o)| Arc::clone(o))
        .find(|o| matches!(&*o.body.read(), ObjectBody::CapGroup(g) if g.name == name))
        .expect("process group");
    let body = group.body.read();
    let ObjectBody::CapGroup(g) = &*body else { unreachable!() };
    let vs = g
        .iter()
        .map(|(_, cap)| cap.obj)
        .find(|&id| kernel.object(id).is_ok_and(|o| o.otype == ObjType::VmSpace));
    vs.expect("a VM space in the group")
}
