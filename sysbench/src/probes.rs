//! Layer probes: direct calls on the workload's own machine, made after
//! its crash drill so they disturb no other number. Each probe times
//! `N` back-to-back calls of one public entry point and reports the mean;
//! the machine holds the workload's real tables, allocator state and
//! checkpoint history, which an isolated microbench would not.

use std::time::Instant;

use treesls::extsync::ring::{self, hdr};
use treesls::extsync::RingLayout;

use crate::rig::Rig;

/// Calls per probe.
pub const N: u64 = 2048;

#[derive(Debug, Clone, Copy, Default)]
pub struct Probes {
    /// `System::write_mem` of 64 B to a writable page.
    pub vm_write_64b_ns: f64,
    /// `System::read_mem` of 64 B.
    pub vm_read_64b_ns: f64,
    /// First 64 B write to a clean page after a checkpoint (CoW fault).
    pub cow_fault_ns: f64,
    /// `ring::push` + `ring::pop_below` + ack through `HostIo`.
    pub ring_push_pop_ns: f64,
    /// `alloc_page` + `free_page` (journaled buddy).
    pub page_alloc_free_ns: f64,
    /// `slab_alloc(128)` + `slab_free`.
    pub slab_alloc_free_128b_ns: f64,
    /// `NvmDevice::copy_frame` of one 4 KiB page.
    pub page_copy_ns: f64,
}

fn mean_ns(mut call: impl FnMut(u64)) -> f64 {
    let t0 = Instant::now();
    for i in 0..N {
        call(i);
    }
    t0.elapsed().as_nanos() as f64 / N as f64
}

pub fn run(rig: &Rig) -> Probes {
    let base = rig.spec.probe_base();
    let (sys, vs) = (&rig.sys, rig.vmspace);
    let line = [0xA5u8; 64];
    let mut out = [0u8; 64];

    // Touch every probe page, then checkpoint: the pages are now clean,
    // backed and read-only, so the next write to each takes a CoW fault.
    for p in 0..N {
        sys.write_mem(vs, base + p * 4096, &line)
            .expect("probe page");
    }
    rig.checkpoint();
    let cow_fault_ns = mean_ns(|p| {
        sys.write_mem(vs, base + p * 4096, &line)
            .expect("probe write")
    });
    let vm_write_64b_ns = mean_ns(|i| {
        sys.write_mem(vs, base + (i % 64) * 64, &line)
            .expect("probe write")
    });
    let vm_read_64b_ns = mean_ns(|i| {
        sys.read_mem(vs, base + (i % 64) * 64, &mut out)
            .expect("probe read")
    });

    let io = rig.host_io();
    let layout = RingLayout {
        base: base + N * 4096,
        nslots: 64,
        slot_size: 128,
    };
    ring::init(&io, &layout).expect("probe ring");
    let ring_push_pop_ns = mean_ns(|i| {
        ring::push(&io, &layout, i, &line).expect("probe push");
        ring::pop_below(&io, &layout, hdr::WRITER)
            .expect("probe pop")
            .expect("message");
        ring::set_header(&io, &layout, hdr::ACK, i + 1).expect("probe ack");
    });

    let alloc = &rig.sys.kernel().pers.alloc;
    let page_alloc_free_ns = mean_ns(|_| {
        let f = alloc.alloc_page().expect("probe page alloc");
        alloc.free_page(f).expect("probe page free");
    });
    let slab_alloc_free_128b_ns = mean_ns(|_| {
        let a = alloc.slab_alloc(128).expect("probe slab alloc");
        alloc.slab_free(a, 128).expect("probe slab free");
    });
    let (src, dst) = (
        alloc.alloc_page().expect("src"),
        alloc.alloc_page().expect("dst"),
    );
    let dev = &rig.sys.kernel().pers.dev;
    let page_copy_ns = mean_ns(|_| dev.copy_frame(src, dst));
    alloc.free_page(src).expect("free src");
    alloc.free_page(dst).expect("free dst");

    Probes {
        vm_write_64b_ns,
        vm_read_64b_ns,
        cow_fault_ns,
        ring_push_pop_ns,
        page_alloc_free_ns,
        slab_alloc_free_128b_ns,
        page_copy_ns,
    }
}
