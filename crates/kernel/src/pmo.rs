//! Physical memory objects (PMOs) and per-page checkpoint versioning.
//!
//! A PMO "records a set of physical memory pages organized by a radix
//! tree" (§4.1). Each materialized page owns a [`PageSlot`] whose
//! [`PageMeta`] carries the *checkpointed page pair* (CPP) of §4.3.3: up to
//! two NVM backup pages with version numbers. The runtime page is either
//! the second pair entry itself (version 0, the "runtime page is treated as
//! the second backup with version zero" rule of the paper) or a volatile
//! DRAM page when hybrid copy has migrated the page (§4.3).
//!
//! ## Restore rule
//!
//! §4.3.3 states: a backup whose version equals the global version is used;
//! otherwise the second backup if its version is zero; otherwise the higher
//! version. We additionally *ignore* any pair entry whose version exceeds
//! the committed global version: such tags are written by an in-flight
//! checkpoint that never committed, and following the paper's literal rule
//! they could otherwise be selected (e.g. pair versions `{V-1, V+1}` after
//! a crash between a speculative copy and the commit of checkpoint `V+1`
//! when the page skipped checkpoint `V`), rolling a single page forward to
//! an uncommitted state. The filter preserves the paper's behaviour in all
//! committed cases and closes that window; see DESIGN.md.
//!
//! [`PageMeta::restore_image`] extends the rule to an epoch window's
//! capture and in-line undo log. It is the in-process rule too: the fault
//! path's one fold keeps exactly the source it picks, and a CoW fault
//! copies the runtime frame only when it picks that frame.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use treesls_nvm::{crc32, DramId, FrameId, NvmDevice, PAGE_SIZE};

use crate::radix::Radix;

/// Where a page's runtime (writable) copy currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhysLoc {
    /// An NVM frame (the default; doubles as checkpoint data).
    Nvm(FrameId),
    /// A volatile DRAM page (hot page migrated by hybrid copy).
    Dram(DramId),
}

/// One entry of a checkpointed page pair: an NVM frame plus the version of
/// the checkpoint whose data it holds (0 = "this is the runtime page").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PagePtr {
    /// The NVM frame holding the data.
    pub frame: FrameId,
    /// Checkpoint version of the data; 0 marks the runtime NVM page.
    pub version: u64,
    /// CRC-32 of the frame content, recorded when a checkpoint copy wrote
    /// it (CoW backup, hybrid migrate-in or speculative stop-and-copy).
    /// `None` for runtime pages, whose content keeps changing.
    pub crc: Option<u32>,
}

impl PagePtr {
    /// A pointer to the live runtime NVM page (version 0, no checksum).
    pub fn runtime(frame: FrameId) -> Self {
        Self { frame, version: 0, crc: None }
    }

    /// A pointer to an immutable backup image of checkpoint `version`,
    /// integrity-tagged with the CRC of the bytes that were copied.
    pub fn backup(frame: FrameId, version: u64, crc: u32) -> Self {
        Self { frame, version, crc: Some(crc) }
    }
}

/// Maximum payload of one in-line undo record: one cache line of changed
/// bytes (Cohen et al., In-Cache-Line Logging). Bigger writes escalate to
/// a whole-page epoch capture.
pub const INLINE_MAX_DATA: usize = 64;

/// Fixed header size of one in-line undo record.
pub const UNDO_HEADER: usize = 16;

/// Capacity of a page's in-line undo log: one NVM frame.
pub const INLINE_LOG_CAP: usize = PAGE_SIZE;

/// On-NVM size of an undo record with `len` payload bytes (header plus
/// payload padded to 8 bytes, so headers stay naturally aligned).
pub const fn undo_record_size(len: usize) -> usize {
    UNDO_HEADER + ((len + 7) & !7)
}

/// One parsed in-line undo record: the pre-write image of `data.len()`
/// bytes at `offset` within the page, captured during round `version`'s
/// epoch window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UndoRecord {
    /// The in-flight round whose epoch window captured this undo image.
    pub version: u64,
    /// Byte offset of the span within the page.
    pub offset: u16,
    /// Pre-write bytes (1..=[`INLINE_MAX_DATA`]).
    pub data: Vec<u8>,
}

/// Encodes one undo record (little-endian header, CRC over the header
/// minus the CRC field plus the payload, payload zero-padded to 8 bytes):
///
/// ```text
/// [0..8)  version u64    round that captured the image (never 0)
/// [8..10) offset  u16    byte offset within the page
/// [10..12) len    u16    payload length, 1..=64
/// [12..16) crc    u32    crc32(bytes[0..12] ++ data)
/// [16..)  data           payload, zero-padded to a multiple of 8
/// ```
pub fn encode_undo_record(version: u64, offset: u16, data: &[u8]) -> Vec<u8> {
    assert!(!data.is_empty() && data.len() <= INLINE_MAX_DATA);
    assert_ne!(version, 0, "round versions start at 1");
    let mut buf = vec![0u8; undo_record_size(data.len())];
    buf[0..8].copy_from_slice(&version.to_le_bytes());
    buf[8..10].copy_from_slice(&offset.to_le_bytes());
    buf[10..12].copy_from_slice(&(data.len() as u16).to_le_bytes());
    let crc = treesls_nvm::crc32_update(crc32(&buf[0..12]), data);
    buf[12..16].copy_from_slice(&crc.to_le_bytes());
    buf[UNDO_HEADER..UNDO_HEADER + data.len()].copy_from_slice(data);
    buf
}

/// Parses the valid prefix of an in-line undo log image.
///
/// Walks records from offset 0 and stops at the first terminator: a zero
/// version (empty tail, or a durably killed log), a zero or oversized
/// length, a span that would cross the page end, a CRC mismatch (torn
/// append), or a version that differs from the first record's (a stale
/// tail left over from an earlier, killed round — rounds only grow, and a
/// live log holds exactly one round's records). Everything before the
/// terminator is intact by CRC and is returned in append order.
fn parse_undo_records(buf: &[u8]) -> Vec<UndoRecord> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos + UNDO_HEADER <= buf.len() {
        let version = u64::from_le_bytes(buf[pos..pos + 8].try_into().unwrap());
        if version == 0 {
            break;
        }
        let offset = u16::from_le_bytes(buf[pos + 8..pos + 10].try_into().unwrap());
        let len = u16::from_le_bytes(buf[pos + 10..pos + 12].try_into().unwrap()) as usize;
        if len == 0 || len > INLINE_MAX_DATA || offset as usize + len > PAGE_SIZE {
            break;
        }
        if pos + undo_record_size(len) > buf.len() {
            break;
        }
        let crc = u32::from_le_bytes(buf[pos + 12..pos + 16].try_into().unwrap());
        let data = &buf[pos + UNDO_HEADER..pos + UNDO_HEADER + len];
        let want = treesls_nvm::crc32_update(crc32(&buf[pos..pos + 12]), data);
        if crc != want {
            break;
        }
        if out.first().is_some_and(|f: &UndoRecord| f.version != version) {
            break;
        }
        out.push(UndoRecord { version, offset, data: data.to_vec() });
        pos += undo_record_size(len);
    }
    out
}

/// Applies parsed undo records to a page image, newest first, recovering
/// the pre-window content. Idempotent: re-applying after a crash mid-way
/// converges on the same image.
fn apply_undo_records(page: &mut [u8; PAGE_SIZE], records: &[UndoRecord]) {
    for r in records.iter().rev() {
        let off = r.offset as usize;
        page[off..off + r.data.len()].copy_from_slice(&r.data);
    }
}

/// Per-page in-line undo log state: a lazily allocated NVM frame holding
/// [`UndoRecord`]s for exactly one round's epoch window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InlineLog {
    /// The NVM frame holding the records.
    pub frame: FrameId,
    /// The in-flight *version* whose first-write undo images the log
    /// holds (matches the records' version tags; persistent).
    pub round: u64,
    /// Bytes appended so far (next append offset).
    pub used: u32,
    /// The `EpochFence` arm counter of the window that wrote the records.
    /// Volatile (meaningless after restore): distinguishes a live window's
    /// log from a stale one left by an aborted round that re-armed with
    /// the same in-flight version — the stale log must be folded before
    /// the new window logs anything.
    pub arm: u64,
}

impl InlineLog {
    /// Reads the page image the log protects into `page`: the `runtime`
    /// frame with the log's records undone newest-first ("runtime ⊖
    /// reverse(records)"). Every record carries its own CRC, so a torn or
    /// stale tail parses as absent and the intact prefix still undoes the
    /// writes it logged.
    pub fn reconstruct(&self, dev: &NvmDevice, runtime: FrameId, page: &mut [u8; PAGE_SIZE]) {
        dev.read_page(runtime, page);
        let mut raw = vec![0u8; self.used as usize];
        dev.read(self.frame, 0, &mut raw);
        apply_undo_records(page, &parse_undo_records(&raw));
    }
}

/// Where a page's committed bytes are: the source
/// [`PageMeta::restore_image`] selects at a committed global version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageSource {
    /// A whole-page epoch capture not folded yet, its version clamped to
    /// the committed version (an aborted round's capture holds the last
    /// committed content).
    Capture(PagePtr),
    /// Pair entry `.0` holds the image (the classic CPP rule).
    Pair(usize, PagePtr),
    /// The runtime frame (`pairs[1]`) with the in-line undo log applied
    /// newest-first (the page only took small logged writes during the
    /// epoch window).
    Log {
        /// The runtime NVM frame.
        runtime: FrameId,
        /// The log holding the window's undo records.
        log: InlineLog,
    },
}

impl PageSource {
    /// Reads the source's bytes into `page`; for a logged page this is the
    /// reconstruction runtime ⊖ reverse(undo records). The source's
    /// frames must lie on the device.
    pub fn read(&self, dev: &NvmDevice, page: &mut [u8; PAGE_SIZE]) {
        match self {
            PageSource::Capture(p) | PageSource::Pair(_, p) => dev.read_page(p.frame, page),
            PageSource::Log { runtime, log } => log.reconstruct(dev, *runtime, page),
        }
    }
}

/// Persistent + volatile per-page state.
///
/// The `pairs` array is persistent checkpoint metadata; the remaining
/// fields are runtime-only and are reset by restore (the DRAM cache, CoW
/// write-permission bit, hotness and dirtiness tracking).
#[derive(Debug, Clone)]
pub struct PageMeta {
    /// The checkpointed page pair. Invariant for non-migrated pages:
    /// `pairs[1]` is `Some` with version 0 and is the runtime page.
    pub pairs: [Option<PagePtr>; 2],
    /// DRAM copy when the page is migrated (hybrid copy); `None` otherwise.
    pub runtime_dram: Option<DramId>,
    /// Soft-MMU write permission: `false` means the next write faults
    /// (copy-on-write pending).
    pub writable: bool,
    /// Write-fault counter driving hot-page detection.
    pub hotness: u32,
    /// For DRAM-cached pages: modified since the last stop-and-copy.
    pub dirty: bool,
    /// The page is on the dual-function active page list.
    pub on_active_list: bool,
    /// Consecutive checkpoints without modification (drives DRAM→NVM
    /// eviction).
    pub idle_rounds: u32,
    /// Page of an eternal PMO (§5): never marked read-only, never copied,
    /// never migrated; survives restore with its at-crash content.
    pub eternal: bool,
    /// Epoch-fence round (`EpochFence::round`) whose conflict capture
    /// already preserved this page's image; 0 = none. Volatile (reset by
    /// restore) — rounds start at 1 and are never reused, so a stale value
    /// from an aborted round can never match the live round.
    pub epoch_round: u64,
    /// Whole-page epoch capture for non-migrated pages: the pre-write
    /// round image preserved by the first big conflicting write of an
    /// epoch window (version = the in-flight round). Persistent: restore
    /// prefers it over the pairs when its version matches the committed
    /// global. Folded away after the round commits or aborts: anchored in
    /// `pairs[0]` when [`restore_image`](Self::restore_image) picks it,
    /// freed otherwise.
    pub epoch_capture: Option<PagePtr>,
    /// In-line undo log for small hot writes during an epoch window:
    /// instead of a whole-page copy, each ≤[`INLINE_MAX_DATA`]-byte first
    /// write appends a pre-write undo record. Persistent: restore
    /// reconstructs the round image as runtime ⊖ reverse(records).
    pub inline_log: Option<InlineLog>,
    /// The committed image may differ from the one a replication shipper
    /// last shipped. Volatile: set on every new slot (restore builds new
    /// ones) and wherever a committed image can change — the freeze of a
    /// written page, a stop-and-copy, a write's first change of the round
    /// — and cleared only by [`shipped`](Self::shipped).
    pub unshipped: bool,
}

impl PageMeta {
    /// Creates the metadata for a freshly materialized page backed by
    /// `frame`.
    ///
    /// New pages are writable (no backup exists, and the page is not yet in
    /// any backup radix tree, so a crash simply discards it).
    pub fn new_runtime(frame: FrameId) -> Self {
        Self {
            pairs: [None, Some(PagePtr::runtime(frame))],
            runtime_dram: None,
            writable: true,
            hotness: 0,
            dirty: false,
            on_active_list: false,
            idle_rounds: 0,
            eternal: false,
            epoch_round: 0,
            epoch_capture: None,
            inline_log: None,
            unshipped: true,
        }
    }

    /// The current runtime location of the page.
    pub fn runtime_loc(&self) -> PhysLoc {
        match self.runtime_dram {
            Some(d) => PhysLoc::Dram(d),
            None => PhysLoc::Nvm(
                self.pairs[1].expect("non-migrated page has a runtime NVM frame").frame,
            ),
        }
    }

    /// Returns `true` if the page is migrated to DRAM.
    pub fn is_migrated(&self) -> bool {
        self.runtime_dram.is_some()
    }

    /// Picks the pair index holding the committed checkpoint data for
    /// `global` (the committed global version at recovery time).
    ///
    /// Returns `None` only for pages with no recoverable data (never
    /// checkpointed and no runtime NVM page — not reachable from a backup
    /// tree in practice).
    pub fn restore_pick(&self, global: u64) -> Option<usize> {
        let cand = |i: usize| self.pairs[i].filter(|p| p.version <= global);
        let (a, b) = (cand(0), cand(1));
        // Case ❶: a backup created by the page-fault handler (or a
        // committed speculative copy) in the committed interval.
        if a.is_some_and(|p| p.version == global) {
            return Some(0);
        }
        if b.is_some_and(|p| p.version == global) {
            return Some(1);
        }
        // Case ❷/❸: the runtime NVM page (version 0) is unmodified since
        // the last checkpoint and is itself the checkpoint data.
        if b.is_some_and(|p| p.version == 0) {
            return Some(1);
        }
        // Migrated pages with two real backups: the higher committed one.
        match (a, b) {
            (Some(pa), Some(pb)) => Some(if pa.version >= pb.version { 0 } else { 1 }),
            (Some(_), None) => Some(0),
            (None, Some(_)) => Some(1),
            (None, None) => None,
        }
    }

    /// The pair index a speculative stop-and-copy must write into: the one
    /// the restore rule would *not* pick at the current committed version,
    /// so a torn copy can never destroy the recoverable image.
    pub fn sac_dst(&self, global: u64) -> usize {
        match self.restore_pick(global) {
            Some(keep) => 1 - keep,
            None => 0,
        }
    }

    /// Picks the image source for the committed version `global`,
    /// generalizing [`restore_pick`](Self::restore_pick) to the
    /// epoch-concurrent capture state. Preference order:
    ///
    /// 1. an epoch capture tagged exactly `global` (the round committed
    ///    but the capture was not folded yet — the runtime page is already
    ///    dirtier than the image);
    /// 2. a pair slot tagged exactly `global` (the classic CPP case ❶);
    /// 3. an epoch capture tagged `> global` (the window's round aborted,
    ///    but the capture content *is* the last committed image: captures
    ///    only happen on read-only pages, and a page written after that
    ///    commit carries a CoW backup tagged exactly `global`, which case 2
    ///    already picked). A capture beats a same-round log because
    ///    escalation stops logging — post-escalation writes are only
    ///    undone by the capture;
    /// 4. the in-line log when its round is `>= global` (the page took
    ///    only small logged writes during the window; undoing them
    ///    newest-first recovers the frozen image from the runtime frame);
    /// 5. the classic pairs fallback (v0 runtime page / best committed
    ///    backup).
    ///
    /// `None` when the page holds no recoverable data.
    pub fn restore_image(&self, global: u64) -> Option<PageSource> {
        if let Some(c) = self.epoch_capture.filter(|c| c.version == global) {
            return Some(PageSource::Capture(c));
        }
        for i in 0..2 {
            if let Some(p) = self.pairs[i].filter(|p| p.version != 0 && p.version == global) {
                return Some(PageSource::Pair(i, p));
            }
        }
        if let Some(c) = self.epoch_capture.filter(|c| c.version > global) {
            return Some(PageSource::Capture(PagePtr { version: global, ..c }));
        }
        if let Some(log) = self.inline_log.filter(|l| l.round >= global && !self.is_migrated()) {
            return self.pairs[1].map(|p| PageSource::Log { runtime: p.frame, log });
        }
        let i = self.restore_pick(global)?;
        self.pairs[i].map(|p| PageSource::Pair(i, p))
    }

    /// `true` while an epoch window's capture or in-line log is still
    /// attached to the page, i.e. until the fault path folds it.
    pub fn pending_fold(&self) -> bool {
        self.epoch_capture.is_some() || self.inline_log.is_some()
    }

    /// `true` when the committed image at `global` is the runtime NVM
    /// frame itself, so the page's next write must copy it out first.
    pub fn runtime_is_image(&self, global: u64) -> bool {
        matches!(self.restore_image(global), Some(PageSource::Pair(1, p)) if p.version == 0)
    }

    /// Records that the image `src` (this page's
    /// [`restore_image`](Self::restore_image) at the committed version)
    /// was shipped. Only a pair clears [`unshipped`](Self::unshipped): a
    /// window's capture or in-line log stands for the image until the next
    /// commit moves it onto the runtime frame, with no write or freeze to
    /// flag the change, so such a page must be read again next round.
    pub fn shipped(&mut self, src: PageSource) {
        if matches!(src, PageSource::Pair(..)) {
            self.unshipped = false;
        }
    }

    /// Every NVM frame the page holds — both pair entries, the epoch
    /// capture and the in-line log — with the version its content stands
    /// for (0 = the runtime page).
    pub fn frames(&self) -> impl Iterator<Item = (FrameId, u64)> + '_ {
        let log = self.inline_log.map(|l| (l.frame, l.round));
        self.pairs
            .iter()
            .chain([&self.epoch_capture])
            .flatten()
            .map(|p| (p.frame, p.version))
            .chain(log)
    }
}

/// A shared, individually locked page slot.
///
/// Slots are shared between the runtime PMO radix tree and the backup PMO
/// radix tree (both reference the same `Arc`), which is how the paper's
/// "reuse the radix tree in subsequent checkpoints" manifests here. The
/// slot itself is persistent state.
#[derive(Debug)]
pub struct PageSlot {
    /// Page index within the PMO.
    pub index: u64,
    /// The versioning metadata, guarded for concurrent fault handling and
    /// parallel hybrid copy.
    pub meta: Mutex<PageMeta>,
}

impl PageSlot {
    /// Creates a slot for a freshly materialized page.
    pub fn new(index: u64, frame: FrameId) -> Arc<Self> {
        Arc::new(Self { index, meta: Mutex::new(PageMeta::new_runtime(frame)) })
    }
}

/// The kind of a PMO, controlling restore behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PmoKind {
    /// Normal data: rolled back to the last checkpoint on restore.
    Data,
    /// Eternal PMO (§5): pages are *not* rolled back; used by drivers for
    /// ring buffers and hardware state that must survive recovery as-is.
    Eternal,
}

/// Runtime body of a PMO object.
#[derive(Debug)]
pub struct Pmo {
    /// Capacity in pages (addresses beyond this fault permanently).
    pub npages: u64,
    /// Data vs. eternal.
    pub kind: PmoKind,
    /// Runtime radix tree: page index → shared page slot. Volatile; the
    /// backup tree (in the checkpoint manager) mirrors it at each
    /// checkpoint.
    pub pages: Radix<Arc<PageSlot>>,
    /// Monotone counter of structural changes (inserts/removes) used for
    /// incremental backup-tree synchronization.
    pub structure_tick: Arc<AtomicU64>,
}

impl Pmo {
    /// Creates an empty PMO of `npages` pages.
    pub fn new(npages: u64, kind: PmoKind) -> Self {
        Self { npages, kind, pages: Radix::new(), structure_tick: Arc::new(AtomicU64::new(0)) }
    }

    /// Looks up the slot for `index`.
    pub fn get(&self, index: u64) -> Option<&Arc<PageSlot>> {
        self.pages.get(index)
    }

    /// Inserts a slot, bumping the structure tick.
    pub fn insert(&mut self, index: u64, slot: Arc<PageSlot>) {
        self.pages.insert(index, slot);
        self.structure_tick.fetch_add(1, Ordering::Relaxed);
    }

    /// Removes a slot, bumping the structure tick.
    pub fn remove(&mut self, index: u64) -> Option<Arc<PageSlot>> {
        let r = self.pages.remove(index);
        if r.is_some() {
            self.structure_tick.fetch_add(1, Ordering::Relaxed);
        }
        r
    }

    /// Number of materialized pages.
    pub fn materialized(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pp(frame: u32, version: u64) -> Option<PagePtr> {
        Some(PagePtr { frame: FrameId(frame), version, crc: None })
    }

    #[test]
    fn fresh_page_is_runtime_second_pair() {
        let m = PageMeta::new_runtime(FrameId(7));
        assert_eq!(m.runtime_loc(), PhysLoc::Nvm(FrameId(7)));
        assert!(m.writable);
        assert!(!m.is_migrated());
        // Case ❸: never checkpointed → restore uses the runtime page.
        assert_eq!(m.restore_pick(5), Some(1));
    }

    #[test]
    fn restore_case1_backup_equals_global() {
        // Fault handler saved the backup at version 5; page then modified.
        let mut m = PageMeta::new_runtime(FrameId(1));
        m.pairs[0] = pp(2, 5);
        assert_eq!(m.restore_pick(5), Some(0));
    }

    #[test]
    fn restore_case2_stale_backup_uses_runtime() {
        // Backup version 3 < global 5: runtime page unmodified since ckpt.
        let mut m = PageMeta::new_runtime(FrameId(1));
        m.pairs[0] = pp(2, 3);
        assert_eq!(m.restore_pick(5), Some(1));
    }

    #[test]
    fn restore_case3_no_backup_uses_runtime() {
        let m = PageMeta::new_runtime(FrameId(1));
        assert_eq!(m.restore_pick(5), Some(1));
    }

    #[test]
    fn restore_migrated_picks_higher_committed() {
        // Migrated page: two real backups, versions 7 and 8, global 20.
        let m = PageMeta {
            pairs: [pp(1, 7), pp(2, 8)],
            runtime_dram: Some(DramId(0)),
            writable: true,
            hotness: 9,
            dirty: false,
            on_active_list: true,
            idle_rounds: 0,
            eternal: false,
            epoch_round: 0,
            epoch_capture: None,
            inline_log: None,
            unshipped: true,
        };
        assert_eq!(m.restore_pick(20), Some(1));
        let m2 = PageMeta { pairs: [pp(1, 9), pp(2, 8)], ..m.clone() };
        assert_eq!(m2.restore_pick(20), Some(0));
    }

    #[test]
    fn restore_ignores_uncommitted_inflight_tag() {
        // Crash between a speculative copy tagged V+1 and its commit while
        // the other slot holds V-1 (page skipped checkpoint V): the literal
        // higher-version rule would pick the uncommitted V+1 data.
        let m = PageMeta {
            pairs: [pp(1, 4), pp(2, 6)],
            runtime_dram: Some(DramId(0)),
            writable: true,
            hotness: 5,
            dirty: true,
            on_active_list: true,
            idle_rounds: 0,
            eternal: false,
            epoch_round: 0,
            epoch_capture: None,
            inline_log: None,
            unshipped: true,
        };
        assert_eq!(m.restore_pick(5), Some(0), "must ignore version 6 > global 5");
    }

    #[test]
    fn restore_equal_global_beats_zero_rule() {
        // Both a version==global backup and a v0 runtime page exist: the
        // backup holds the checkpoint image (runtime was modified after).
        let mut m = PageMeta::new_runtime(FrameId(9));
        m.pairs[0] = pp(3, 5);
        assert_eq!(m.restore_pick(5), Some(0));
    }

    #[test]
    fn sac_dst_never_targets_the_keeper() {
        for global in 0..10u64 {
            let cases = [
                [pp(1, 3), pp(2, 0)],
                [pp(1, global), pp(2, 0)],
                [None, pp(2, 0)],
                [pp(1, 3), pp(2, 4)],
                [pp(1, 9), pp(2, 4)],
            ];
            for pairs in cases {
                let m = PageMeta {
                    pairs,
                    runtime_dram: None,
                    writable: false,
                    hotness: 0,
                    dirty: false,
                    on_active_list: false,
                    idle_rounds: 0,
                    eternal: false,
                    epoch_round: 0,
                    epoch_capture: None,
                    inline_log: None,
                    unshipped: true,
                };
                if let Some(keep) = m.restore_pick(global) {
                    assert_ne!(m.sac_dst(global), keep, "global={global} pairs={pairs:?}");
                }
            }
        }
    }

    #[test]
    fn pmo_structure_tick_counts_changes() {
        let mut p = Pmo::new(100, PmoKind::Data);
        assert_eq!(p.materialized(), 0);
        p.insert(3, PageSlot::new(3, FrameId(1)));
        p.insert(4, PageSlot::new(4, FrameId(2)));
        assert_eq!(p.structure_tick.load(Ordering::Relaxed), 2);
        assert!(p.remove(3).is_some());
        assert!(p.remove(3).is_none());
        assert_eq!(p.structure_tick.load(Ordering::Relaxed), 3);
        assert_eq!(p.materialized(), 1);
    }

    #[test]
    fn eternal_kind_is_distinct() {
        assert_ne!(PmoKind::Data, PmoKind::Eternal);
    }

    #[test]
    fn undo_record_roundtrip_and_padding() {
        let rec = encode_undo_record(7, 100, b"hello");
        assert_eq!(rec.len(), undo_record_size(5));
        assert_eq!(rec.len() % 8, 0);
        let parsed = parse_undo_records(&rec);
        assert_eq!(
            parsed,
            vec![UndoRecord { version: 7, offset: 100, data: b"hello".to_vec() }]
        );
    }

    #[test]
    fn undo_parse_stops_at_terminators() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&encode_undo_record(3, 0, &[1u8; 64]));
        buf.extend_from_slice(&encode_undo_record(3, 64, &[2u8; 8]));
        // Torn third record: corrupt one payload byte after encoding.
        let mut torn = encode_undo_record(3, 128, &[3u8; 8]);
        torn[UNDO_HEADER] ^= 0xFF;
        buf.extend_from_slice(&torn);
        let parsed = parse_undo_records(&buf);
        assert_eq!(parsed.len(), 2, "CRC-torn tail record dropped");

        // A stale tail from an older killed round terminates the walk.
        let mut buf = Vec::new();
        buf.extend_from_slice(&encode_undo_record(9, 0, &[1u8; 8]));
        buf.extend_from_slice(&encode_undo_record(4, 8, &[2u8; 8]));
        assert_eq!(parse_undo_records(&buf).len(), 1);

        // A durably killed log (zeroed header) parses as empty.
        let mut buf = encode_undo_record(5, 0, &[1u8; 8]);
        buf[..UNDO_HEADER].fill(0);
        assert!(parse_undo_records(&buf).is_empty());
    }

    #[test]
    fn apply_undo_is_newest_first() {
        // Two records touching the same span: the *first* write of the
        // window holds the pre-window image, so applying newest-first
        // must leave record 0's data in place.
        let recs = vec![
            UndoRecord { version: 2, offset: 0, data: vec![0xAA; 4] },
            UndoRecord { version: 2, offset: 2, data: vec![0xBB; 4] },
        ];
        let mut page = [0u8; PAGE_SIZE];
        apply_undo_records(&mut page, &recs);
        assert_eq!(&page[0..4], &[0xAA; 4]);
        assert_eq!(&page[4..6], &[0xBB; 2]);
    }

    #[test]
    fn restore_image_prefers_capture_at_global() {
        let mut m = PageMeta::new_runtime(FrameId(1));
        m.pairs[0] = pp(2, 5);
        m.epoch_capture = Some(PagePtr::backup(FrameId(3), 5, 0));
        let src = m.restore_image(5);
        assert!(matches!(src, Some(PageSource::Capture(c)) if c.frame == FrameId(3)));
        // Exact pair match beats a future-round capture.
        m.epoch_capture = Some(PagePtr::backup(FrameId(3), 6, 0));
        assert_eq!(m.restore_image(5), Some(PageSource::Pair(0, m.pairs[0].unwrap())));
    }

    #[test]
    fn restore_image_aborted_round_capture_beats_log_and_runtime() {
        // Crash during window 6 (global stayed 5): the capture holds the
        // frozen committed image; the runtime page is dirtier.
        let mut m = PageMeta::new_runtime(FrameId(1));
        m.epoch_capture = Some(PagePtr::backup(FrameId(3), 6, 0));
        m.inline_log = Some(InlineLog { frame: FrameId(4), round: 6, used: 24, arm: 1 });
        // Its tag is clamped to the committed version it stands for.
        assert!(matches!(m.restore_image(5), Some(PageSource::Capture(c)) if c.version == 5));
        // Without the capture, the log reconstructs the image.
        m.epoch_capture = None;
        assert!(matches!(m.restore_image(5), Some(PageSource::Log { log, .. }) if log.round == 6));
        // Without either, the classic rule falls back to the runtime page.
        m.inline_log = None;
        assert!(matches!(m.restore_image(5), Some(PageSource::Pair(1, _))));
    }

    #[test]
    fn restore_image_matches_classic_rule_without_capture_state() {
        let mut m = PageMeta::new_runtime(FrameId(1));
        m.pairs[0] = pp(2, 3);
        assert!(matches!(m.restore_image(5), Some(PageSource::Pair(1, _))));
        m.pairs[0] = pp(2, 5);
        assert!(matches!(m.restore_image(5), Some(PageSource::Pair(0, _))));
    }
}
