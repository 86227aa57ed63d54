//! Property-based tests for the failure-resilient NVM allocator.
//!
//! Random operation sequences (allocs and frees of random orders and slab
//! sizes) must preserve the allocator invariants checked by `verify()`,
//! never hand out overlapping blocks, and always recover to a consistent
//! state from a crash injected at a random metadata-write tick.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;

use treesls_nvm::{FrameId, LatencyModel, NvmDevice};
use treesls_pmem_alloc::{AllocError, AllocLayout, PmemAllocator};

const FRAMES: u32 = 256;

fn fresh() -> PmemAllocator {
    let layout = AllocLayout::for_device(0, FRAMES);
    let dev = Arc::new(NvmDevice::new(
        FRAMES as usize,
        layout.end_off,
        Arc::new(LatencyModel::disabled()),
    ));
    PmemAllocator::format(dev, layout)
}

#[derive(Debug, Clone)]
enum Op {
    AllocFrames(u8),
    FreeOldestBlock,
    SlabAlloc(usize),
    SlabFreeOldest,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..5).prop_map(Op::AllocFrames),
        Just(Op::FreeOldestBlock),
        (1usize..2048).prop_map(Op::SlabAlloc),
        Just(Op::SlabFreeOldest),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_ops_preserve_invariants(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let a = fresh();
        let mut blocks: Vec<(FrameId, u8)> = Vec::new();
        let mut slabs: Vec<(treesls_pmem_alloc::NvmAddr, usize)> = Vec::new();
        let mut owned: HashMap<u32, (u32, bool)> = HashMap::new(); // frame -> (span, live)
        for op in ops {
            match op {
                Op::AllocFrames(order) => match a.alloc_frames(order) {
                    Ok(f) => {
                        let span = 1u32 << order;
                        // No overlap with any live block.
                        for (&start, &(s, live)) in &owned {
                            if live {
                                prop_assert!(
                                    f.0 + span <= start || start + s <= f.0,
                                    "overlap: new [{}, {}) vs live [{}, {})",
                                    f.0, f.0 + span, start, start + s
                                );
                            }
                        }
                        owned.insert(f.0, (span, true));
                        blocks.push((f, order));
                    }
                    Err(AllocError::OutOfMemory) => {}
                    Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                },
                Op::FreeOldestBlock => {
                    if !blocks.is_empty() {
                        let (f, order) = blocks.remove(0);
                        a.free_frames(f, order).expect("valid free");
                        owned.get_mut(&f.0).expect("tracked").1 = false;
                    }
                }
                Op::SlabAlloc(size) => match a.slab_alloc(size) {
                    Ok(addr) => slabs.push((addr, size)),
                    Err(AllocError::OutOfMemory) => {}
                    Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                },
                Op::SlabFreeOldest => {
                    if !slabs.is_empty() {
                        let (addr, size) = slabs.remove(0);
                        a.slab_free(addr, size).expect("valid slab free");
                    }
                }
            }
            a.verify().map_err(TestCaseError::fail)?;
        }
        // Tear down everything: all frames must return.
        for (f, order) in blocks {
            a.free_frames(f, order).expect("final free");
        }
        for (addr, size) in slabs {
            a.slab_free(addr, size).expect("final slab free");
        }
        a.verify().map_err(TestCaseError::fail)?;
        prop_assert_eq!(a.stats().free_frames, FRAMES as usize);
    }

    #[test]
    fn crash_at_random_tick_recovers_consistent(
        seed_ops in proptest::collection::vec(op_strategy(), 1..40),
        cut in 0u64..400,
    ) {
        let layout = AllocLayout::for_device(0, FRAMES);
        let dev = Arc::new(NvmDevice::new(
            FRAMES as usize,
            layout.end_off,
            Arc::new(LatencyModel::disabled()),
        ));
        let a = PmemAllocator::format(Arc::clone(&dev), layout);
        let mut blocks: Vec<(FrameId, u8)> = Vec::new();
        let mut slabs: Vec<(treesls_pmem_alloc::NvmAddr, usize)> = Vec::new();
        dev.meta().arm_crash_after(cut);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for op in &seed_ops {
                match op {
                    Op::AllocFrames(order) => {
                        if let Ok(f) = a.alloc_frames(*order) {
                            blocks.push((f, *order));
                        }
                    }
                    Op::FreeOldestBlock => {
                        if !blocks.is_empty() {
                            let (f, order) = blocks.remove(0);
                            let _ = a.free_frames(f, order);
                        }
                    }
                    Op::SlabAlloc(size) => {
                        if let Ok(addr) = a.slab_alloc(*size) {
                            slabs.push((addr, *size));
                        }
                    }
                    Op::SlabFreeOldest => {
                        if !slabs.is_empty() {
                            let (addr, size) = slabs.remove(0);
                            let _ = a.slab_free(addr, size);
                        }
                    }
                }
            }
        }));
        dev.meta().disarm_crash();
        drop(a);
        // Power comes back: journal replay must leave a consistent heap.
        let recovered = PmemAllocator::recover(dev, layout).expect("header intact");
        recovered.verify().map_err(TestCaseError::fail)?;
        // The recovered allocator still works.
        let f = recovered.alloc_page();
        prop_assert!(f.is_ok() || matches!(f, Err(AllocError::OutOfMemory)));
        let _ = result;
    }
}
