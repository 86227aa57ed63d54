//! Seeded properties of `PmemAllocator::rebuild`, the restore-time
//! mark-and-sweep.
//!
//! A random alloc/free history of mixed block orders and slab sizes runs on
//! a small device, then the allocator is rebuilt from a random subset of
//! what is live. The rebuilt allocator must verify, account for every
//! frame, hand out exactly the frames and slots the subset left free, and
//! reject a malformed reachable set with a typed error without writing a
//! byte. A byte-count guard pins the rebuild's cost to O(frames), and a
//! corrupt header is an error at recovery, not a panic.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use treesls_nvm::{FrameId, LatencyModel, NvmDevice, PAGE_SIZE};
use treesls_pmem_alloc::layout::SLAB_CLASSES;
use treesls_pmem_alloc::slab::class_for;
use treesls_pmem_alloc::{AllocError, AllocLayout, NvmAddr, PmemAllocator};

fn fresh(frames: u32) -> (Arc<NvmDevice>, AllocLayout, PmemAllocator) {
    let layout = AllocLayout::for_device(0, frames);
    let dev = Arc::new(NvmDevice::new(
        frames as usize,
        layout.end_off,
        Arc::new(LatencyModel::disabled()),
    ));
    let a = PmemAllocator::format(Arc::clone(&dev), layout);
    (dev, layout, a)
}

#[derive(Debug, Clone)]
enum Op {
    AllocFrames(u8),
    FreeBlock(usize),
    SlabAlloc(usize),
    SlabFree(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..5).prop_map(Op::AllocFrames),
        (0usize..64).prop_map(Op::FreeBlock),
        (1usize..2049).prop_map(Op::SlabAlloc),
        (0usize..64).prop_map(Op::SlabFree),
    ]
}

/// A reachable set: buddy blocks `(frame, order)` and slab objects `(addr, size)`.
type Live = (Vec<(FrameId, u8)>, Vec<(NvmAddr, usize)>);

/// Live blocks and slab objects after running `ops` on `a`.
fn run_history(a: &PmemAllocator, ops: &[Op]) -> Live {
    let (mut blocks, mut slabs) = (Vec::new(), Vec::new());
    for op in ops {
        match *op {
            Op::AllocFrames(order) => {
                if let Ok(f) = a.alloc_frames(order) {
                    blocks.push((f, order));
                }
            }
            Op::FreeBlock(i) if !blocks.is_empty() => {
                let (f, order) = blocks.swap_remove(i % blocks.len());
                a.free_frames(f, order).expect("live block frees");
            }
            Op::SlabAlloc(size) => {
                if let Ok(addr) = a.slab_alloc(size) {
                    slabs.push((addr, size));
                }
            }
            Op::SlabFree(i) if !slabs.is_empty() => {
                let (addr, size) = slabs.swap_remove(i % slabs.len());
                a.slab_free(addr, size).expect("live object frees");
            }
            _ => {}
        }
    }
    (blocks, slabs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rebuild_from_random_subset_frees_exactly_the_rest(
        frames in prop_oneof![Just(64u32), Just(200u32), Just(256u32)],
        ops in proptest::collection::vec(op_strategy(), 1..160),
        seed in any::<u64>(),
    ) {
        let (dev, _, a) = fresh(frames);
        let (blocks, slabs) = run_history(&a, &ops);
        let mut rng = StdRng::seed_from_u64(seed);
        let blocks: Vec<_> = blocks.into_iter().filter(|_| rng.gen_bool(0.5)).collect();
        let slabs: Vec<_> = slabs.into_iter().filter(|_| rng.gen_bool(0.5)).collect();

        a.rebuild(&blocks, &slabs).map_err(|e| TestCaseError::fail(format!("{e}")))?;
        a.verify().map_err(TestCaseError::fail)?;
        // The rebuild is a pure function of the reachable set.
        let image = dev.meta().dump();
        a.rebuild(&blocks, &slabs).expect("second rebuild");
        prop_assert!(dev.meta().dump() == image, "rebuild is not idempotent");

        let mut reachable: HashSet<u32> = HashSet::new();
        for &(f, order) in &blocks {
            reachable.extend(f.0..f.0 + (1 << order));
        }
        // Free slots per slab frame, by class: what exhaustion must return.
        let mut slab_frames: HashMap<u32, (usize, u32)> = HashMap::new();
        for &(addr, size) in &slabs {
            let class = class_for(size).expect("valid size");
            let per_slab = (PAGE_SIZE / SLAB_CLASSES[class]) as u32;
            slab_frames.entry(addr.frame.0).or_insert((class, per_slab)).1 -= 1;
        }
        let stats = a.stats();
        prop_assert_eq!(stats.slab_frames, slab_frames.len());
        prop_assert_eq!(stats.live_slab_objects, slabs.len());
        prop_assert_eq!(stats.free_frames, frames as usize - reachable.len() - slab_frames.len());

        // Exhaust the frames, then every class's partial slabs.
        let mut pages = 0;
        while let Ok(f) = a.alloc_page() {
            prop_assert!(!reachable.contains(&f.0), "reachable frame {} reallocated", f.0);
            prop_assert!(!slab_frames.contains_key(&f.0), "slab frame {} reallocated", f.0);
            pages += 1;
        }
        prop_assert_eq!(pages, stats.free_frames);
        let kept: HashSet<NvmAddr> = slabs.iter().map(|&(addr, _)| addr).collect();
        for (class, &csize) in SLAB_CLASSES.iter().enumerate() {
            let mut got = 0u32;
            while let Ok(addr) = a.slab_alloc(csize) {
                prop_assert!(!kept.contains(&addr), "live slot {:?} reallocated", addr);
                prop_assert_eq!(slab_frames.get(&addr.frame.0).map(|s| s.0), Some(class));
                got += 1;
            }
            let free: u32 = slab_frames.values().filter(|s| s.0 == class).map(|s| s.1).sum();
            prop_assert_eq!(got, free, "class {} free slots", class);
        }
        a.verify().map_err(TestCaseError::fail)?;
    }

    #[test]
    fn malformed_reachable_set_is_a_typed_error_and_writes_nothing(
        frames in prop_oneof![Just(64u32), Just(200u32)],
        ops in proptest::collection::vec(op_strategy(), 1..100),
    ) {
        let (dev, _, a) = fresh(frames);
        let (blocks, mut slabs) = run_history(&a, &ops);
        a.rebuild(&blocks, &slabs).expect("the live set rebuilds");
        let image = dev.meta().dump();
        let with = |extra: &[(FrameId, u8)]| [&blocks[..], extra].concat();
        let bad = |extra: &[(FrameId, u8)]| a.rebuild(&with(extra), &slabs);
        // Frame 0 claimed twice: by a live block (or, if none, the first
        // copy) and then again.
        prop_assert_eq!(bad(&[(FrameId(0), 0), (FrameId(0), 0)]), Err(AllocError::Overlap));
        // Past the end, overrunning the end, misaligned, too large.
        prop_assert_eq!(bad(&[(FrameId(frames), 0)]), Err(AllocError::InvalidFree));
        prop_assert_eq!(bad(&[(FrameId(0), 8)]), Err(AllocError::InvalidFree));
        prop_assert_eq!(bad(&[(FrameId(1), 1)]), Err(AllocError::InvalidFree));
        prop_assert_eq!(bad(&[(FrameId(0), 11)]), Err(AllocError::OrderTooLarge));
        if let Some(&(addr, size)) = slabs.first() {
            let other = if class_for(size) == Some(0) { 128 } else { 64 };
            let mismatched = NvmAddr { frame: addr.frame, offset: 0 };
            slabs.push((mismatched, other));
            prop_assert_eq!(a.rebuild(&blocks, &slabs), Err(AllocError::Overlap));
            *slabs.last_mut().expect("pushed") = (addr, size);
            prop_assert_eq!(a.rebuild(&blocks, &slabs), Err(AllocError::Overlap));
            *slabs.last_mut().expect("pushed") = (addr, 4096);
            prop_assert_eq!(a.rebuild(&blocks, &slabs), Err(AllocError::SizeTooLarge));
        }
        prop_assert!(dev.meta().dump() == image, "a rejected rebuild wrote metadata");
        a.verify().map_err(TestCaseError::fail)?;
    }
}

/// The rebuild moves a constant number of metadata bytes per frame (one
/// store per region, no reads), however the reachable frames are spread:
/// with every other frame reachable the free space is as fragmented as it
/// gets. A count, not a timing, so it holds on any host.
#[test]
fn rebuild_bytes_are_linear_in_frames() {
    const FRAMES: u32 = 4096;
    let (dev, _, a) = fresh(FRAMES);
    let blocks: Vec<_> = (0..FRAMES).step_by(2).map(|f| (FrameId(f), 0)).collect();
    let before = dev.stats().snapshot();
    a.rebuild(&blocks, &[]).unwrap();
    let cost = dev.stats().snapshot().since(&before);
    let bytes = cost.bytes_read + cost.bytes_written;
    assert!(bytes <= 40 * FRAMES as u64, "rebuild moved {bytes} B for {FRAMES} frames");
    a.verify().unwrap();
    assert_eq!(a.stats().free_frames, FRAMES as usize / 2);
}

#[test]
fn corrupt_header_is_an_error_not_a_panic() {
    let layout = AllocLayout::for_device(0, 64);
    // Buddy magic, buddy frame count, slab magic.
    for off in [layout.buddy_off, layout.buddy_off + 8, layout.slab_off] {
        let (dev, layout, a) = fresh(64);
        drop(a);
        dev.meta().write_u64(off, 0);
        assert_eq!(PmemAllocator::recover(dev, layout).err(), Some(AllocError::Corrupt));
    }
}
