//! The emulated NVM device: persistent page frames plus the metadata arena.

use std::sync::Arc;

use parking_lot::RwLock;

use crate::crash::{CrashSchedule, WriteFate};
use crate::crc32::crc32;
use crate::dram::DramPool;
use crate::latency::LatencyModel;
use crate::meta::MetaArena;
use crate::page::{zeroed_page, DramId, FrameId, PageBuf, PAGE_SIZE};
use crate::persist::{PersistMode, PersistModel, Space, CACHE_LINE};
use crate::stats::MemStats;

/// An emulated byte-addressable non-volatile memory device.
///
/// The device owns a fixed array of page frames (the data area handed to the
/// buddy allocator) and a [`MetaArena`] (the global metadata area of
/// Figure 3 of the paper, holding allocator state, the journal and the
/// checkpoint commit record).
///
/// Everything inside an `NvmDevice` survives a simulated power failure: the
/// crash path of the `treesls` facade drops all volatile state and threads
/// only this value (plus the typed backup-object stores, which conceptually
/// live in its slab space) into recovery.
///
/// Frames are individually locked so that non-leader cores can perform
/// speculative stop-and-copy of disjoint pages in parallel with the leader's
/// capability-tree checkpoint, as in step ❸ of the paper's Figure 5. Lock
/// ordering is by ascending frame id (and DRAM-before-NVM for cross-device
/// copies) to keep concurrent page copies deadlock-free.
///
/// Durability semantics are governed by the device's [`PersistModel`]: in
/// eADR mode (default, the paper's testbed) a store is durable on
/// execution; in ADR mode dirty cache lines stay volatile until
/// [`flush_frame`](Self::flush_frame)/[`flush_meta`](Self::flush_meta) +
/// [`fence`](Self::fence), and a simulated crash may drop any still-pending
/// subset ([`settle_crash`](Self::settle_crash)).
#[derive(Debug)]
pub struct NvmDevice {
    frames: Vec<RwLock<PageBuf>>,
    meta: MetaArena,
    latency: Arc<LatencyModel>,
    stats: Arc<MemStats>,
    /// Crash-injection schedule shared with the metadata arena: every page
    /// write ticks it *before* mutating the frame, so a scheduled crash
    /// lands between two persistent stores exactly like a power failure.
    crash: Arc<CrashSchedule>,
    /// Cache-line durability tracking shared with the metadata arena.
    persist: Arc<PersistModel>,
}

impl NvmDevice {
    /// Creates a device with `frame_count` zeroed page frames and a zeroed
    /// metadata arena of `meta_len` bytes.
    pub fn new(frame_count: usize, meta_len: usize, latency: Arc<LatencyModel>) -> Self {
        let stats = Arc::new(MemStats::new());
        let crash = Arc::new(CrashSchedule::new());
        let persist = Arc::new(PersistModel::new());
        let frames = (0..frame_count).map(|_| RwLock::new(zeroed_page())).collect();
        let meta = MetaArena::new(
            meta_len,
            Arc::clone(&latency),
            Arc::clone(&stats),
            Arc::clone(&crash),
            Arc::clone(&persist),
        );
        Self { frames, meta, latency, stats, crash, persist }
    }

    /// The crash-injection schedule covering this device's whole persistent
    /// write stream (metadata + page frames).
    pub fn crash_schedule(&self) -> &Arc<CrashSchedule> {
        &self.crash
    }

    /// The cache-line durability model shared with the metadata arena.
    pub fn persist_model(&self) -> &Arc<PersistModel> {
        &self.persist
    }

    /// Switches the persistence model (eADR / ADR). Pending lines are
    /// considered drained by the switch.
    pub fn set_persist_mode(&self, mode: PersistMode) {
        self.persist.set_mode(mode);
    }

    /// Marks the metadata range for write-back (`clwb`).
    pub fn flush_meta(&self, off: usize, len: usize) {
        self.persist.flush(Space::Meta, off, len);
    }

    /// Marks the frame byte range for write-back (`clwb`).
    pub fn flush_frame(&self, frame: FrameId, off: usize, len: usize) {
        self.persist.flush(Space::Frame(frame.0), off, len);
    }

    /// Store fence: retires every flushed line to media (`sfence`).
    pub fn fence(&self) {
        self.persist.fence();
    }

    /// Flush-everything-and-fence over both spaces — the strongest
    /// ordering point (wraps the checkpoint commit record).
    pub fn persist_barrier(&self) {
        self.persist.persist_barrier();
    }

    /// Simulates the ADR power-failure outcome: a `seed`-selected subset of
    /// the still-pending cache lines never drained and is reverted to its
    /// pre-write media content. Returns the number of dropped lines.
    /// (`seed == u64::MAX` drops every pending line.) No-op under eADR.
    pub fn settle_crash(&self, seed: u64) -> usize {
        let dropped = self.persist.settle_crash(seed);
        for d in &dropped {
            match d.space {
                Space::Meta => self.meta.revert_line(d.line_off, &d.undo),
                Space::Frame(f) => {
                    let mut g = self.frames[f as usize].write();
                    let end = (d.line_off + CACHE_LINE).min(g.len());
                    g[d.line_off..end].copy_from_slice(&d.undo[..end - d.line_off]);
                }
            }
        }
        dropped.len()
    }

    /// Number of page frames in the data area.
    pub fn frame_count(&self) -> usize {
        self.frames.len()
    }

    /// The persistent metadata arena.
    pub fn meta(&self) -> &MetaArena {
        &self.meta
    }

    /// The latency model shared by this device.
    pub fn latency(&self) -> &Arc<LatencyModel> {
        &self.latency
    }

    /// Cumulative access statistics.
    pub fn stats(&self) -> &Arc<MemStats> {
        &self.stats
    }

    /// The single internal store path: ticks the crash schedule, tracks
    /// durability, and applies the bytes — in full, or torn at a cache-line
    /// boundary when a [`CrashPoint::TornWrite`](crate::CrashPoint) fires.
    /// Latency/stats accounting stays with the public callers.
    fn frame_store(&self, frame: FrameId, off: usize, data: &[u8]) {
        let mut g = self.frames[frame.index()].write();
        self.store_locked(&mut g, frame, off, data);
    }

    /// [`frame_store`](Self::frame_store) on a frame whose write lock the
    /// caller already holds (`g` must be `frame`'s buffer).
    fn store_locked(&self, g: &mut PageBuf, frame: FrameId, off: usize, data: &[u8]) {
        let space = Space::Frame(frame.0);
        match self.crash.on_page_write(off, data.len()) {
            WriteFate::Apply => {
                self.persist.note_write(space, off, data.len(), |line| {
                    let mut l = [0u8; CACHE_LINE];
                    let end = (line + CACHE_LINE).min(g.len());
                    l[..end - line].copy_from_slice(&g[line..end]);
                    l
                });
                g[off..off + data.len()].copy_from_slice(data);
            }
            WriteFate::Torn { keep } => {
                g[off..off + keep].copy_from_slice(&data[..keep]);
                // The applied prefix is what defines the tear: those lines
                // reached media.
                self.persist.retire_prefix(space, off, keep);
                self.crash.crash_now();
            }
        }
    }

    /// Data-comparison write of a whole page image: reads `dst` and stores
    /// only the maximal runs of 64 B lines in which it differs from
    /// `image`, leaving `dst` byte-identical to `image`.
    ///
    /// Each run is one store to the crash schedule, the durability tracker,
    /// the latency model and `bytes_written`, so a page that changed in two
    /// places costs two short writes instead of 4 KiB, and an unchanged one
    /// costs none. A crash or tear between runs leaves `dst` a mix of old
    /// and new lines — exactly what a torn full-page store leaves — which
    /// is safe for the same reason: callers only ever copy into a slot
    /// restore would not pick until the copy is complete and tagged.
    fn store_changed_lines(&self, dst: FrameId, image: &[u8; PAGE_SIZE]) {
        self.stats.record_page_copy();
        self.latency.charge_read(PAGE_SIZE);
        self.stats.record_read(PAGE_SIZE);
        let mut g = self.frames[dst.index()].write();
        let differs =
            |g: &PageBuf, off: usize| g[off..off + CACHE_LINE] != image[off..off + CACHE_LINE];
        let mut off = 0;
        while off < PAGE_SIZE {
            if !differs(&g, off) {
                off += CACHE_LINE;
                continue;
            }
            let start = off;
            while off < PAGE_SIZE && differs(&g, off) {
                off += CACHE_LINE;
            }
            self.latency.charge_write(off - start);
            self.stats.record_write(off - start);
            self.store_locked(&mut g, dst, start, &image[start..off]);
        }
    }

    /// Reads `buf.len()` bytes from `frame` starting at byte `off`.
    ///
    /// # Panics
    ///
    /// Panics if the range `off..off + buf.len()` exceeds the page.
    pub fn read(&self, frame: FrameId, off: usize, buf: &mut [u8]) {
        self.latency.charge_read(buf.len());
        self.stats.record_read(buf.len());
        let g = self.frames[frame.index()].read();
        buf.copy_from_slice(&g[off..off + buf.len()]);
    }

    /// Writes `data` into `frame` starting at byte `off`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the page.
    pub fn write(&self, frame: FrameId, off: usize, data: &[u8]) {
        self.latency.charge_write(data.len());
        self.stats.record_write(data.len());
        self.frame_store(frame, off, data);
    }

    /// Reads a little-endian `u64` at byte `off` of `frame`.
    pub fn read_u64(&self, frame: FrameId, off: usize) -> u64 {
        let mut b = [0u8; 8];
        self.read(frame, off, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian `u64` at byte `off` of `frame`.
    pub fn write_u64(&self, frame: FrameId, off: usize, v: u64) {
        self.write(frame, off, &v.to_le_bytes());
    }

    /// Copies the full content of `frame` into `out`.
    pub fn read_page(&self, frame: FrameId, out: &mut [u8; PAGE_SIZE]) {
        self.latency.charge_read(PAGE_SIZE);
        self.stats.record_read(PAGE_SIZE);
        out.copy_from_slice(&**self.frames[frame.index()].read());
    }

    /// Overwrites the full content of `frame` from `data`.
    pub fn write_page(&self, frame: FrameId, data: &[u8; PAGE_SIZE]) {
        self.latency.charge_write(PAGE_SIZE);
        self.stats.record_write(PAGE_SIZE);
        self.frame_store(frame, 0, data);
    }

    /// Zeroes the full content of `frame`.
    pub fn zero_page(&self, frame: FrameId) {
        self.latency.charge_write(PAGE_SIZE);
        self.stats.record_write(PAGE_SIZE);
        self.frame_store(frame, 0, &[0u8; PAGE_SIZE]);
    }

    /// Copies one NVM page to another NVM page (`src` → `dst`).
    ///
    /// The source is snapshotted under its read lock, then stored as a
    /// data-comparison write: only the 64 B lines of `dst` that differ are
    /// written (and counted in `bytes_written`).
    ///
    /// # Panics
    ///
    /// Panics if `src == dst`.
    pub fn copy_frame(&self, src: FrameId, dst: FrameId) {
        assert_ne!(src, dst, "copy_frame requires distinct frames");
        self.latency.charge_read(PAGE_SIZE);
        self.stats.record_read(PAGE_SIZE);
        let image: [u8; PAGE_SIZE] = **self.frames[src.index()].read();
        self.store_changed_lines(dst, &image);
    }

    /// Copies a DRAM page into an NVM frame (`src` → `dst`), storing only
    /// the 64 B lines of `dst` that differ (see
    /// [`copy_frame`](Self::copy_frame)).
    pub fn copy_from_dram(&self, dram: &DramPool, src: DramId, dst: FrameId) {
        let image: [u8; PAGE_SIZE] = **dram.lock_page(src);
        self.store_changed_lines(dst, &image);
    }

    /// Copies an NVM frame into a DRAM page (`src` → `dst`).
    ///
    /// Cross-device lock order is DRAM before NVM.
    pub fn copy_to_dram(&self, src: FrameId, dram: &DramPool, dst: DramId) {
        self.latency.charge_read(PAGE_SIZE);
        self.stats.record_read(PAGE_SIZE);
        let mut d = dram.lock_page_mut(dst);
        let s = self.frames[src.index()].read();
        d.copy_from_slice(&**s);
    }

    /// Returns `true` if the two frames hold identical bytes.
    pub fn pages_equal(&self, a: FrameId, b: FrameId) -> bool {
        if a == b {
            return true;
        }
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let ga = self.frames[lo.index()].read();
        let gb = self.frames[hi.index()].read();
        **ga == **gb
    }

    /// CRC-32 of the frame's full content — the integrity tag the
    /// checkpoint manager stores alongside each backup page image.
    pub fn page_crc(&self, frame: FrameId) -> u32 {
        self.latency.charge_read(PAGE_SIZE);
        self.stats.record_read(PAGE_SIZE);
        crc32(&**self.frames[frame.index()].read())
    }

    // ------------------------------------------------------------------
    // Media-fault injection (bit rot / poisoned frames). These mutate the
    // media directly — no crash tick, no stats, no durability tracking —
    // exactly like a cosmic ray or a failing cell, not a CPU store.
    // ------------------------------------------------------------------

    /// Flips one bit of `frame` at `byte_off` (media fault, not a store).
    pub fn flip_frame_bit(&self, frame: FrameId, byte_off: usize, bit: u8) {
        self.frames[frame.index()].write()[byte_off] ^= 1 << (bit & 7);
    }

    /// Flips one bit of the metadata arena at `off` (media fault).
    pub fn flip_meta_bit(&self, off: usize, bit: u8) {
        self.meta.flip_bit(off, bit);
    }

    /// Poisons a whole frame with a recognizable rot pattern (media fault).
    pub fn poison_frame(&self, frame: FrameId) {
        self.frames[frame.index()].write().fill(0xDE);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::CrashPoint;
    use crate::InjectedCrash;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn dev(frames: usize) -> NvmDevice {
        NvmDevice::new(frames, 1024, Arc::new(LatencyModel::disabled()))
    }

    #[test]
    fn frames_start_zeroed() {
        let d = dev(4);
        let mut p = [0xFFu8; PAGE_SIZE];
        d.read_page(FrameId(0), &mut p);
        assert!(p.iter().all(|&b| b == 0));
    }

    #[test]
    fn partial_read_write() {
        let d = dev(2);
        d.write(FrameId(1), 100, b"treesls");
        let mut b = [0u8; 7];
        d.read(FrameId(1), 100, &mut b);
        assert_eq!(&b, b"treesls");
    }

    #[test]
    fn u64_roundtrip() {
        let d = dev(1);
        d.write_u64(FrameId(0), 8, 0xFEED_FACE);
        assert_eq!(d.read_u64(FrameId(0), 8), 0xFEED_FACE);
    }

    #[test]
    fn copy_frame_both_directions() {
        let d = dev(3);
        d.write(FrameId(0), 0, b"abc");
        d.copy_frame(FrameId(0), FrameId(2));
        assert!(d.pages_equal(FrameId(0), FrameId(2)));
        d.write(FrameId(2), 0, b"xyz");
        d.copy_frame(FrameId(2), FrameId(1));
        let mut b = [0u8; 3];
        d.read(FrameId(1), 0, &mut b);
        assert_eq!(&b, b"xyz");
    }

    #[test]
    #[should_panic(expected = "distinct frames")]
    fn copy_frame_rejects_same_frame() {
        dev(1).copy_frame(FrameId(0), FrameId(0));
    }

    #[test]
    fn dram_round_trip() {
        let d = dev(2);
        let pool = DramPool::new(2);
        let page = pool.alloc().expect("dram page");
        d.write(FrameId(0), 0, b"hot");
        d.copy_to_dram(FrameId(0), &pool, page);
        pool.write(page, 3, b"ter");
        d.copy_from_dram(&pool, page, FrameId(1));
        let mut b = [0u8; 6];
        d.read(FrameId(1), 0, &mut b);
        assert_eq!(&b, b"hotter");
    }

    #[test]
    fn stats_track_copies() {
        let d = dev(2);
        d.copy_frame(FrameId(0), FrameId(1));
        assert_eq!(d.stats().snapshot().page_copies, 1);
    }

    /// A page in which each 64 B line is rewritten with probability 1/3,
    /// derived from `base`.
    fn mutate_lines(rng: &mut impl rand::Rng, base: &[u8; PAGE_SIZE]) -> [u8; PAGE_SIZE] {
        let mut page = *base;
        for line in page.chunks_exact_mut(CACHE_LINE) {
            if rng.gen_range(0..3u32) == 0 {
                // One changed byte makes the whole line differ.
                let at = rng.gen_range(0..CACHE_LINE);
                line[at] = line[at].wrapping_add(rng.gen_range(1..256u32) as u8);
            }
        }
        page
    }

    fn differing_lines(a: &[u8; PAGE_SIZE], b: &[u8; PAGE_SIZE]) -> u64 {
        a.chunks_exact(CACHE_LINE).zip(b.chunks_exact(CACHE_LINE)).filter(|(x, y)| x != y).count()
            as u64
    }

    #[test]
    fn copies_store_exactly_the_differing_lines() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(19);
        let d = dev(2);
        let pool = DramPool::new(1);
        let hot = pool.alloc().expect("dram page");
        let mut old = [0u8; PAGE_SIZE];
        for round in 0..200 {
            let new = if round % 10 == 9 {
                // Unrelated content: (almost) every line differs.
                let mut p = [0u8; PAGE_SIZE];
                p.iter_mut().for_each(|b| *b = rng.gen_range(0..256u32) as u8);
                p
            } else {
                mutate_lines(&mut rng, &old)
            };
            // Alternate the two copy entry points over the same destination.
            let from_nvm = round % 2 == 0;
            if from_nvm {
                d.write_page(FrameId(0), &new);
            } else {
                pool.write(hot, 0, &new);
            }
            let before = d.stats().snapshot();
            if from_nvm {
                d.copy_frame(FrameId(0), FrameId(1));
            } else {
                d.copy_from_dram(&pool, hot, FrameId(1));
            }
            let delta = d.stats().snapshot().since(&before);
            assert_eq!(delta.bytes_written, 64 * differing_lines(&old, &new), "round {round}");
            assert_eq!(delta.page_copies, 1);
            let mut got = [0u8; PAGE_SIZE];
            d.read_page(FrameId(1), &mut got);
            assert!(got == new, "round {round}: destination equals source");
            old = new;
        }
    }

    #[test]
    fn copying_an_identical_page_writes_nothing() {
        let d = dev(2);
        d.write(FrameId(0), 700, b"same on both sides");
        d.copy_frame(FrameId(0), FrameId(1));
        let before = d.stats().snapshot();
        let writes = d.crash_schedule().counts().page;
        d.copy_frame(FrameId(0), FrameId(1));
        let delta = d.stats().snapshot().since(&before);
        assert_eq!((delta.bytes_written, delta.page_copies), (0, 1));
        assert_eq!(d.crash_schedule().counts().page, writes, "no store reached the schedule");
    }

    #[test]
    fn copy_is_one_store_per_run_of_changed_lines() {
        let d = dev(2);
        // Lines 1–2 and line 40 differ: two runs, 128 B and 64 B.
        d.write(FrameId(0), 64, &[7u8; 128]);
        d.write(FrameId(0), 40 * 64 + 5, &[9u8; 3]);
        d.crash_schedule().start_write_trace();
        d.copy_frame(FrameId(0), FrameId(1));
        let trace = d.crash_schedule().take_write_trace();
        let runs: Vec<_> = trace.iter().map(|w| (w.off, w.len)).collect();
        assert_eq!(runs, vec![(64, 128), (40 * 64, 64)]);
    }

    #[test]
    fn crash_between_runs_leaves_old_and_new_lines_only() {
        let d = dev(2);
        d.write_page(FrameId(1), &[0x11u8; PAGE_SIZE]);
        let mut src = [0x11u8; PAGE_SIZE];
        src[0..64].fill(0x22);
        src[640..704].fill(0x33);
        d.write_page(FrameId(0), &src);
        // Let the first run through, power off before the second.
        d.crash_schedule().arm(CrashPoint::PageWrite(1));
        let err = catch_unwind(AssertUnwindSafe(|| d.copy_frame(FrameId(0), FrameId(1))))
            .expect_err("second run must crash");
        assert!(err.is::<InjectedCrash>());
        let mut out = [0u8; PAGE_SIZE];
        d.read_page(FrameId(1), &mut out);
        assert!(out[0..64].iter().all(|&b| b == 0x22), "first run landed");
        assert!(out[64..].iter().all(|&b| b == 0x11), "second run never reached media");
        // The interrupted copy, retried, converges by storing the rest.
        let before = d.stats().snapshot();
        d.copy_frame(FrameId(0), FrameId(1));
        assert_eq!(d.stats().snapshot().since(&before).bytes_written, 64);
        assert!(d.pages_equal(FrameId(0), FrameId(1)));
    }

    #[test]
    fn adr_tracks_only_the_stored_lines_of_a_copy() {
        let d = dev(2);
        d.write(FrameId(0), 128, &[5u8; 64]);
        d.set_persist_mode(PersistMode::Adr { reorder_window: 1024 });
        d.copy_frame(FrameId(0), FrameId(1));
        assert_eq!(d.persist_model().pending_lines(), 1, "one changed line, one pending line");
        assert_eq!(d.settle_crash(u64::MAX), 1);
        let mut out = [0xFFu8; PAGE_SIZE];
        d.read_page(FrameId(1), &mut out);
        assert!(out.iter().all(|&b| b == 0), "the dropped line reverts to the old content");
        d.set_persist_mode(PersistMode::Eadr);
    }

    #[test]
    fn concurrent_disjoint_copies() {
        let d = Arc::new(dev(64));
        for i in 0..32u32 {
            d.write(FrameId(i), 0, &i.to_le_bytes());
        }
        let mut handles = Vec::new();
        for t in 0..4 {
            let d = Arc::clone(&d);
            handles.push(std::thread::spawn(move || {
                for i in (t..32).step_by(4) {
                    d.copy_frame(FrameId(i as u32), FrameId(32 + i as u32));
                }
            }));
        }
        for h in handles {
            h.join().expect("copier thread");
        }
        for i in 0..32u32 {
            assert!(d.pages_equal(FrameId(i), FrameId(32 + i)));
        }
    }

    #[test]
    fn torn_page_write_applies_prefix_only() {
        let d = dev(2);
        d.crash_schedule().arm(CrashPoint::TornWrite { skip: 0, cut: 2 });
        let page = [0xABu8; PAGE_SIZE];
        let err = catch_unwind(AssertUnwindSafe(|| d.write_page(FrameId(0), &page)))
            .expect_err("torn write must crash");
        assert!(err.is::<InjectedCrash>());
        let mut out = [0u8; PAGE_SIZE];
        d.crash_schedule().disarm();
        d.read_page(FrameId(0), &mut out);
        assert!(out[..128].iter().all(|&b| b == 0xAB), "two lines applied");
        assert!(out[128..].iter().all(|&b| b == 0), "rest never reached media");
    }

    #[test]
    fn adr_settle_reverts_unflushed_lines() {
        let d = dev(2);
        d.set_persist_mode(PersistMode::Adr { reorder_window: 1024 });
        d.write(FrameId(0), 0, &[0x11u8; 128]);
        d.write(FrameId(0), 128, &[0x22u8; 64]);
        // Flush+fence only the first 128 bytes; the third line is pending.
        d.flush_frame(FrameId(0), 0, 128);
        d.fence();
        assert_eq!(d.settle_crash(u64::MAX), 1);
        let mut out = [0u8; PAGE_SIZE];
        d.read_page(FrameId(0), &mut out);
        assert!(out[..128].iter().all(|&b| b == 0x11), "fenced lines survive");
        assert!(out[128..192].iter().all(|&b| b == 0), "pending line reverted");
        d.set_persist_mode(PersistMode::Eadr);
    }

    #[test]
    fn persist_barrier_drains_everything() {
        let d = dev(1);
        d.set_persist_mode(PersistMode::Adr { reorder_window: 1024 });
        d.write(FrameId(0), 0, &[0x33u8; 256]);
        d.persist_barrier();
        assert_eq!(d.settle_crash(u64::MAX), 0);
        let mut out = [0u8; PAGE_SIZE];
        d.read_page(FrameId(0), &mut out);
        assert!(out[..256].iter().all(|&b| b == 0x33));
    }

    #[test]
    fn page_crc_detects_single_bit_rot() {
        let d = dev(1);
        d.write(FrameId(0), 0, b"integrity matters");
        let before = d.page_crc(FrameId(0));
        d.flip_frame_bit(FrameId(0), 5, 3);
        assert_ne!(d.page_crc(FrameId(0)), before);
        d.flip_frame_bit(FrameId(0), 5, 3);
        assert_eq!(d.page_crc(FrameId(0)), before);
    }
}
