//! A seeded model of page images, driven through the real kernel.
//!
//! Each seed runs a random sequence of host writes (small ones that take
//! an in-line undo record, big ones that take a whole-page capture or a
//! CoW copy), epoch rounds played the way the flip leader plays them (fold,
//! arm, mark, seal), hybrid-batch items (`hybrid::process_slot`: migration,
//! stop-and-copy, eviction) interleaved with the window's writes, commits
//! and aborts. After every step it checks, for every page:
//!
//! * the bytes of `PageMeta::restore_image(global)` — what restore would
//!   read — equal the model's committed content;
//! * the runtime bytes equal the model's runtime content;
//!
//! and, for the whole device, that the allocator's free frames plus the
//! frames the pages hold stay constant: a fold or copy neither leaks a
//! frame nor frees one twice.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use treesls_checkpoint::hybrid::{self, RoundCounters};
use treesls_kernel::cap::CapRights;
use treesls_kernel::cores::HybridWork;
use treesls_kernel::object::ObjectBody;
use treesls_kernel::pmo::{PageSlot, PmoKind};
use treesls_kernel::types::{ObjId, Vaddr, Vpn};
use treesls_kernel::{Kernel, KernelConfig};
use treesls_nvm::PAGE_SIZE;

const PAGES: usize = 4;

/// The round in flight between a flip and its commit or abort.
struct Window {
    inflight: u64,
    /// The image the round commits: every page as of the flip.
    image: Vec<Vec<u8>>,
    /// The hybrid batch taken at the flip, and how much of it ran.
    batch: Vec<Arc<PageSlot>>,
    ran: usize,
}

struct Model {
    kernel: Arc<Kernel>,
    vmspace: ObjId,
    slots: Vec<Arc<PageSlot>>,
    runtime: Vec<Vec<u8>>,
    committed: Vec<Vec<u8>>,
    window: Option<Window>,
    counters: RoundCounters,
    /// Free frames plus the frames the pages hold.
    frames: usize,
    /// Distinct fill byte of the next write.
    fill: u8,
}

impl Model {
    fn new() -> Self {
        let kernel = Kernel::boot(KernelConfig {
            nvm_frames: 512,
            // Fewer DRAM pages than heap pages: some hot pages stay in NVM.
            dram_pages: 2,
            hybrid_copy: true,
            hot_threshold: 2,
            idle_evict_rounds: 2,
            ..KernelConfig::default()
        });
        let g = kernel.create_cap_group("model").unwrap();
        let vmspace = kernel.create_vmspace(g).unwrap();
        let pmo = kernel.create_pmo(g, PAGES as u64, PmoKind::Data).unwrap();
        kernel.map_region(vmspace, Vpn(0), PAGES as u64, pmo, 0, CapRights::ALL).unwrap();
        for page in 0..PAGES {
            kernel.vm_write(vmspace, Vaddr((page * PAGE_SIZE) as u64), &[page as u8 + 1]).unwrap();
        }
        let slots = {
            let obj = kernel.object(pmo).unwrap();
            let body = obj.body.read();
            let ObjectBody::Pmo(p) = &*body else { unreachable!() };
            (0..PAGES as u64).map(|i| Arc::clone(p.get(i).unwrap())).collect()
        };
        let mut runtime = vec![vec![0u8; PAGE_SIZE]; PAGES];
        for (page, bytes) in runtime.iter_mut().enumerate() {
            bytes[0] = page as u8 + 1;
        }
        let mut m = Model {
            kernel,
            vmspace,
            slots,
            committed: runtime.clone(),
            runtime,
            window: None,
            counters: RoundCounters::default(),
            frames: 0,
            fill: 0x10,
        };
        m.flip();
        m.end_window(true);
        m.frames = m.frames_now();
        m
    }

    fn frames_now(&self) -> usize {
        let held: usize = self.slots.iter().map(|s| s.meta.lock().frames().count()).sum();
        self.kernel.pers.alloc.stats().free_frames + held
    }

    fn write(&mut self, page: usize, off: usize, len: usize) {
        self.fill = self.fill.wrapping_add(1).max(0x10);
        let data = vec![self.fill; len];
        let addr = Vaddr((page * PAGE_SIZE + off) as u64);
        self.kernel.vm_write(self.vmspace, addr, &data).unwrap();
        self.runtime[page][off..off + len].copy_from_slice(&data);
    }

    /// Steps ❶–❷ of a flip round: fold the last window's leftovers, take
    /// the hybrid batch, arm, mark, seal.
    fn flip(&mut self) {
        let k = &self.kernel;
        k.fold_epoch_captures().unwrap();
        let inflight = k.pers.global_version() + 1;
        let batch = std::mem::take(&mut *k.tracker.active_list.lock());
        k.fence.arm(inflight);
        hybrid::mark_readonly(k);
        k.fence.seal();
        self.window = Some(Window { inflight, image: self.runtime.clone(), batch, ran: 0 });
    }

    /// Runs the next hybrid-batch item; `false` once the batch is drained.
    fn hybrid_step(&mut self) -> bool {
        let w = self.window.as_mut().expect("in a window");
        let Some(slot) = w.batch.get(w.ran) else { return false };
        hybrid::process_slot(&self.kernel, slot, w.inflight, &self.counters);
        w.ran += 1;
        true
    }

    /// Ends the window: drain the batch, commit (or not), disarm, fold and
    /// give the batch back to the active list through the production
    /// compaction.
    fn end_window(&mut self, commit: bool) {
        while self.hybrid_step() {}
        let w = self.window.take().expect("in a window");
        let k = &self.kernel;
        if commit {
            k.pers.commit_version(w.inflight);
            self.committed = w.image;
        }
        k.fence.disarm();
        k.fold_epoch_captures().unwrap();
        hybrid::compact_active_list(k, &HybridWork::new(w.batch, |_| {}));
    }

    /// One random step: a write, or — outside a window — a flip, or —
    /// inside one — a hybrid-batch item, a commit or an abort.
    fn random_step(&mut self, rng: &mut StdRng) -> &'static str {
        let page = rng.gen_range(0..PAGES);
        match (self.window.is_some(), rng.gen_range(0..20)) {
            (_, 0..=7) => {
                let len = [8, 8, 64, 128, 1024, PAGE_SIZE][rng.gen_range(0..6)];
                let off = rng.gen_range(0..(PAGE_SIZE - len) / 8 + 1) * 8;
                self.write(page, off, len);
                "write"
            }
            (false, _) => {
                self.flip();
                "flip"
            }
            (true, 8..=12) => {
                self.hybrid_step();
                "hybrid"
            }
            (true, 13..=17) => {
                self.end_window(true);
                "commit"
            }
            (true, _) => {
                self.end_window(false);
                "abort"
            }
        }
    }

    fn check(&self, seed: u64, step: usize, op: &str) {
        let k = &self.kernel;
        let global = k.pers.global_version();
        let mut img = [0u8; PAGE_SIZE];
        for (page, slot) in self.slots.iter().enumerate() {
            let src = slot.meta.lock().restore_image(global).expect("every page is committed");
            src.read(&k.pers.dev, &mut img);
            let at = img.iter().zip(&self.committed[page]).position(|(a, b)| a != b);
            assert_eq!(
                at, None,
                "seed {seed} step {step} ({op}): page {page} restores {src:?} \
                 unlike its v{global} commit at that byte"
            );
            let mut live = vec![0u8; PAGE_SIZE];
            k.vm_read(self.vmspace, Vaddr((page * PAGE_SIZE) as u64), &mut live).unwrap();
            assert!(
                live == self.runtime[page],
                "seed {seed} step {step} ({op}): page {page} runtime"
            );
        }
        assert_eq!(
            self.frames_now(),
            self.frames,
            "seed {seed} step {step} ({op}): free + held frames changed"
        );
    }
}

#[test]
fn page_images_match_the_model_through_windows_aborts_and_hybrid_copy() {
    use std::sync::atomic::Ordering::Relaxed;
    // How often each preservation path ran, summed over the seeds: the
    // model must not be vacuous.
    let mut seen = std::collections::BTreeMap::new();
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = Model::new();
        for step in 0..300 {
            let op = m.random_step(&mut rng);
            *seen.entry(op).or_insert(0u64) += 1;
            m.check(seed, step, op);
        }
        let (stats, metrics, c) =
            (m.kernel.stats.snapshot(), m.kernel.metrics.snapshot(), &m.counters);
        for (path, n) in [
            ("cow copy", stats.cow_copies),
            ("conflict", stats.epoch_conflicts),
            ("undo record", metrics.inline_log_captures),
            ("migrate-in", c.migrated_in.load(Relaxed)),
            ("stop-and-copy", c.sac_copies.load(Relaxed)),
            ("eviction", c.evicted.load(Relaxed)),
        ] {
            *seen.entry(path).or_insert(0) += n;
        }
    }
    assert!(seen.values().all(|&n| n > 0) && seen.len() == 11, "{seen:?}");
}
