//! A seeded model of page images, driven through the real kernel.
//!
//! Each seed runs a random sequence of host writes (small ones that take
//! an in-line undo record, big ones that take a whole-page capture or a
//! CoW copy), epoch rounds played the way the flip leader plays them (fold,
//! arm, mark), hybrid-batch items (`hybrid::process_slot`: migration,
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
//!
//! After every commit it also plays the replication shipper's page rule:
//! a page flagged `PageMeta::unshipped` is read and "shipped" (and
//! unflagged by `PageMeta::shipped`), and an unflagged page — which the
//! shipper does not read — must restore to exactly the bytes shipped last.
//! Named scripts pin the paths that rule depends on: a logged window write
//! left idle for two rounds, a whole-page capture, conflict and batch
//! stop-and-copy, eviction and an abort.

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
    /// The bytes the shipper rule last read per page.
    shipped: Vec<Vec<u8>>,
    /// The first unflagged page whose image left its shipped bytes.
    ship_diverged: Option<usize>,
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
            shipped: vec![Vec::new(); PAGES],
            ship_diverged: None,
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
    /// the hybrid batch, arm, mark. The round's image is the runtime as
    /// of now.
    fn flip(&mut self) {
        let k = &self.kernel;
        k.fold_epoch_captures().unwrap();
        let inflight = k.pers.global_version() + 1;
        let batch = std::mem::take(&mut *k.tracker.active_list.lock());
        k.fence.arm(inflight);
        hybrid::mark_readonly(k);
        let image = self.runtime.clone();
        self.window = Some(Window { inflight, image, batch, ran: 0 });
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
        if commit {
            self.ship();
        }
    }

    /// The shipper's page rule, run after a commit: a flagged page is read
    /// and shipped, an unflagged one is skipped and must still restore to
    /// the bytes shipped last.
    fn ship(&mut self) {
        let k = &self.kernel;
        let global = k.pers.global_version();
        let mut img = [0u8; PAGE_SIZE];
        for (page, slot) in self.slots.iter().enumerate() {
            let mut meta = slot.meta.lock();
            let src = meta.restore_image(global).expect("every page is committed");
            src.read(&k.pers.dev, &mut img);
            if !meta.unshipped {
                if img[..] != self.shipped[page][..] {
                    self.ship_diverged.get_or_insert(page);
                }
                continue;
            }
            self.shipped[page] = img.to_vec();
            meta.shipped(src);
        }
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

    fn check(&self, at: &str) {
        let k = &self.kernel;
        let global = k.pers.global_version();
        if let Some(page) = self.ship_diverged {
            panic!("{at}: unflagged page {page} no longer restores to its shipped bytes");
        }
        let mut img = [0u8; PAGE_SIZE];
        for (page, slot) in self.slots.iter().enumerate() {
            let src = slot.meta.lock().restore_image(global).expect("every page is committed");
            src.read(&k.pers.dev, &mut img);
            let byte = img.iter().zip(&self.committed[page]).position(|(a, b)| a != b);
            assert_eq!(
                byte, None,
                "{at}: page {page} restores {src:?} unlike its v{global} commit at that byte"
            );
            let mut live = vec![0u8; PAGE_SIZE];
            k.vm_read(self.vmspace, Vaddr((page * PAGE_SIZE) as u64), &mut live).unwrap();
            assert!(live == self.runtime[page], "{at}: page {page} runtime");
        }
        assert_eq!(self.frames_now(), self.frames, "{at}: free + held frames changed");
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
            m.check(&format!("seed {seed} step {step} ({op})"));
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

/// A small write in a window is logged, and the logged page is read-only:
/// the commit after the one that shipped the log's reconstruction moves
/// the page's image onto the runtime frame with no write or freeze to
/// flag it. Only keeping the flag through a log-sourced ship catches it.
#[test]
fn shipper_rule_logged_write_then_two_idle_rounds() {
    let mut m = Model::new();
    m.flip();
    m.write(0, 64, 8);
    m.end_window(true);
    assert_eq!(m.kernel.metrics.snapshot().inline_log_captures, 1, "the write was logged");
    for _ in 0..2 {
        m.flip();
        m.end_window(true);
    }
    m.check("logged write, two idle rounds");
}

/// A big window write takes a whole-page capture, anchored as a pair by
/// the post-commit fold; the page turns writable and the next freeze flags
/// it again.
#[test]
fn shipper_rule_whole_page_capture() {
    let mut m = Model::new();
    m.flip();
    m.write(0, 0, PAGE_SIZE);
    m.end_window(true);
    assert_eq!(m.kernel.stats.snapshot().epoch_conflicts, 1, "the write was captured");
    assert_eq!(m.kernel.metrics.snapshot().inline_log_captures, 0);
    for _ in 0..2 {
        m.flip();
        m.end_window(true);
    }
    m.check("whole-page capture");
}

/// Makes page 1 hot (two CoW faults) so the next batch migrates it to
/// DRAM.
fn migrate_page_1(m: &mut Model) {
    for _ in 0..2 {
        m.write(1, 0, 8);
        m.flip();
        m.end_window(true);
    }
    assert!(m.slots[1].meta.lock().is_migrated(), "page 1 migrated in");
}

/// A window write to a migrated page runs the conflict stop-and-copy; the
/// page stays dirty, so the next batch stop-and-copies it.
#[test]
fn shipper_rule_conflict_and_batch_stop_and_copy() {
    use std::sync::atomic::Ordering::Relaxed;
    let mut m = Model::new();
    migrate_page_1(&mut m);
    m.flip();
    m.write(1, 256, 8);
    m.end_window(true);
    assert_eq!(m.kernel.stats.snapshot().epoch_conflicts, 1, "conflict stop-and-copy");
    m.write(1, 512, 8);
    m.flip();
    m.end_window(true);
    assert_eq!(m.counters.sac_copies.load(Relaxed), 1, "batch stop-and-copy");
    m.check("conflict and batch stop-and-copy");
}

/// An idle migrated page is evicted back to NVM: its committed bytes do
/// not change, so the flag need not be set.
#[test]
fn shipper_rule_eviction() {
    use std::sync::atomic::Ordering::Relaxed;
    let mut m = Model::new();
    migrate_page_1(&mut m);
    m.write(1, 256, 8);
    for _ in 0..4 {
        m.flip();
        m.end_window(true);
    }
    assert_eq!(m.counters.evicted.load(Relaxed), 1, "page 1 evicted");
    m.write(1, 512, 8);
    m.flip();
    m.end_window(true);
    m.check("eviction");
}

/// An aborted window's log and capture fold back onto the committed
/// image; the retried round and the one after ship what they commit.
#[test]
fn shipper_rule_abort() {
    let mut m = Model::new();
    m.flip();
    m.write(0, 64, 8);
    m.write(2, 0, PAGE_SIZE);
    m.end_window(false);
    m.write(0, 128, 8);
    for _ in 0..2 {
        m.flip();
        m.end_window(true);
    }
    m.check("abort");
}
