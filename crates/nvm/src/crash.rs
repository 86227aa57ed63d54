//! The crash-schedule engine: deterministic whole-stack fault injection.
//!
//! TreeSLS's correctness claim (§4.2/§4.3.3 of the paper) is that a power
//! failure at *any* instant restores the last committed checkpoint exactly.
//! This module generalizes the old metadata-only write fuse into a
//! [`CrashSchedule`] shared by the metadata arena and the page-frame device,
//! so a simulated crash can be scheduled at:
//!
//! * the Nth **metadata** write ([`CrashPoint::MetaWrite`]),
//! * the Nth **page-frame** write ([`CrashPoint::PageWrite`]),
//! * the Nth NVM write of **either** kind ([`CrashPoint::AnyWrite`]) — the
//!   unit the exhaustive enumerator sweeps over,
//! * *mid-way through* the Nth NVM write ([`CrashPoint::TornWrite`]) — the
//!   write is applied only up to a chosen cache-line boundary, modelling
//!   the 64 B tear granularity of real persistent memory, or
//! * the Nth hit of a named **crash site** ([`CrashPoint::Site`]) — semantic
//!   hooks like `ckpt.pre_commit` placed throughout the checkpoint manager,
//!   allocator journal and external-synchrony callbacks via the
//!   [`crash_site!`](crate::crash_site) macro.
//!
//! For clean crash points the schedule panics with [`InjectedCrash`]
//! *before* the triggering write mutates NVM, exactly like a power failure
//! between two stores. For torn points the write path first applies the
//! prefix the schedule hands back in [`WriteFate::Torn`], then calls
//! [`CrashSchedule::crash_now`]. Drivers catch the panic (`catch_unwind`),
//! discard all volatile state through the normal `crash()` path, and run
//! recovery. A site trace can be recorded so a failing write index can be
//! reported alongside the nearest semantic site, and a *write trace*
//! records the `(kind, off, len)` of every NVM write so the torn
//! enumerator can compute how many distinct 64 B tear classes each write
//! admits.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};

use parking_lot::Mutex;

use crate::persist::CACHE_LINE;

/// Panic payload used by the crash-injection fuse.
///
/// Tests match on this to distinguish an injected crash from a real bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedCrash;

/// Where in the persistent write stream a crash is scheduled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CrashPoint {
    /// Crash on the metadata-arena write after `skip` more metadata writes
    /// (i.e. `skip` writes succeed, the next one powers off).
    MetaWrite(u64),
    /// Crash on the page-frame write after `skip` more page writes.
    PageWrite(u64),
    /// Crash on the NVM write (of either kind) after `skip` more writes.
    AnyWrite(u64),
    /// Crash *mid-way through* the NVM write (of either kind) after `skip`
    /// more writes: the write is applied only up to its `cut`-th interior
    /// 64 B cache-line boundary (`cut == 0` applies nothing, reproducing
    /// the clean [`AnyWrite`](Self::AnyWrite) semantics), then the fuse
    /// fires.
    TornWrite {
        /// Number of writes (of either kind) to let pass untouched.
        skip: u64,
        /// Tear class: how many interior cache-line boundaries of the
        /// targeted write are applied before the power fails.
        cut: u32,
    },
    /// Crash at the `skip + 1`th hit of the named crash site.
    Site {
        /// Site name, e.g. `"ckpt.pre_commit"`.
        name: String,
        /// Number of matching hits to let pass before crashing.
        skip: u64,
    },
}

/// What a write path must do with the triggering write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFate {
    /// Apply the write in full.
    Apply,
    /// Apply only the first `keep` bytes (ending on an absolute cache-line
    /// boundary), then call [`CrashSchedule::crash_now`]. `keep == 0`
    /// means the write never reached media at all.
    Torn {
        /// Bytes of the write to apply before powering off.
        keep: usize,
    },
}

/// Trigger class currently armed (packed into an `AtomicU8`).
const KIND_NONE: u8 = 0;
const KIND_META: u8 = 1;
const KIND_PAGE: u8 = 2;
const KIND_ANY: u8 = 3;
const KIND_SITE: u8 = 4;
const KIND_TORN: u8 = 5;

/// One recorded crash-site hit, for trace-assisted reproduction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteHit {
    /// The site's name.
    pub name: &'static str,
    /// Total NVM writes (meta + page) performed before this hit.
    pub writes_before: u64,
}

/// Which space an NVM write targeted (for the write trace).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    /// Metadata-arena write.
    Meta,
    /// Page-frame write.
    Page,
}

/// One recorded NVM write, for torn-crash enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteRec {
    /// Meta or page write.
    pub kind: WriteKind,
    /// Byte offset within its space (frame-relative for page writes).
    pub off: usize,
    /// Length in bytes.
    pub len: usize,
}

impl WriteRec {
    /// Number of distinct *partial* tear classes this write admits beyond
    /// the clean `cut == 0` class — i.e. its interior 64 B boundaries.
    pub fn tear_cuts(&self) -> u32 {
        interior_line_boundaries(self.off, self.len)
    }
}

/// Counts the cache-line boundaries strictly inside `(off, off + len)`.
pub fn interior_line_boundaries(off: usize, len: usize) -> u32 {
    if len == 0 {
        return 0;
    }
    let first = off / CACHE_LINE * CACHE_LINE + CACHE_LINE;
    let end = off + len;
    if first >= end {
        0
    } else {
        (end - 1 - first) as u32 / CACHE_LINE as u32 + 1
    }
}

/// The prefix length (in bytes) a write at `off..off + len` keeps under
/// tear class `cut`: 0 for `cut == 0`, otherwise up to the `cut`-th
/// interior cache-line boundary (clamped to the full write).
pub fn torn_keep(off: usize, len: usize, cut: u32) -> usize {
    if cut == 0 {
        return 0;
    }
    let first = off / CACHE_LINE * CACHE_LINE + CACHE_LINE;
    let p = first + (cut as usize - 1) * CACHE_LINE;
    if p >= off + len {
        len
    } else {
        p - off
    }
}

/// Cumulative NVM write counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WriteCounts {
    /// Metadata-arena writes.
    pub meta: u64,
    /// Page-frame writes.
    pub page: u64,
}

impl WriteCounts {
    /// Total writes of both kinds.
    pub fn total(&self) -> u64 {
        self.meta + self.page
    }
}

/// The per-device crash schedule.
///
/// One instance is shared by a device's [`MetaArena`](crate::MetaArena) and
/// its page-frame write paths; kernel-level code reaches it through
/// `NvmDevice::crash_schedule`. All operations are cheap atomics when the
/// schedule is disarmed and not tracing, so production paths pay one relaxed
/// load per write.
#[derive(Debug, Default)]
pub struct CrashSchedule {
    kind: AtomicU8,
    /// Matching events left before the crash fires.
    fuse: AtomicU64,
    /// Tear class for [`CrashPoint::TornWrite`].
    cut: AtomicU32,
    /// Site-name filter for [`CrashPoint::Site`].
    site: Mutex<Option<String>>,
    meta_writes: AtomicU64,
    page_writes: AtomicU64,
    /// When `Some`, every site hit is appended (enumeration dry runs).
    trace: Mutex<Option<Vec<SiteHit>>>,
    /// When `Some`, every NVM write is appended (torn-enumeration dry runs).
    write_trace: Mutex<Option<Vec<WriteRec>>>,
    /// `trace` is `Some`: lets a site hit skip the lock when not tracing.
    tracing: AtomicBool,
    /// `write_trace` is `Some`: lets a write skip the lock when not tracing.
    write_tracing: AtomicBool,
}

impl CrashSchedule {
    /// Creates a disarmed schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms the schedule. Any previously armed point is replaced.
    pub fn arm(&self, point: CrashPoint) {
        // Order matters: publish the fuse and filter before the kind so a
        // concurrent write cannot observe a half-armed schedule.
        match point {
            CrashPoint::MetaWrite(skip) => {
                self.fuse.store(skip, Ordering::SeqCst);
                self.kind.store(KIND_META, Ordering::SeqCst);
            }
            CrashPoint::PageWrite(skip) => {
                self.fuse.store(skip, Ordering::SeqCst);
                self.kind.store(KIND_PAGE, Ordering::SeqCst);
            }
            CrashPoint::AnyWrite(skip) => {
                self.fuse.store(skip, Ordering::SeqCst);
                self.kind.store(KIND_ANY, Ordering::SeqCst);
            }
            CrashPoint::TornWrite { skip, cut } => {
                self.cut.store(cut, Ordering::SeqCst);
                self.fuse.store(skip, Ordering::SeqCst);
                self.kind.store(KIND_TORN, Ordering::SeqCst);
            }
            CrashPoint::Site { name, skip } => {
                *self.site.lock() = Some(name);
                self.fuse.store(skip, Ordering::SeqCst);
                self.kind.store(KIND_SITE, Ordering::SeqCst);
            }
        }
    }

    /// Disarms the schedule (recovery paths call this before touching NVM).
    pub fn disarm(&self) {
        self.kind.store(KIND_NONE, Ordering::SeqCst);
        *self.site.lock() = None;
    }

    /// Returns `true` if a crash point is currently armed.
    pub fn armed(&self) -> bool {
        self.kind.load(Ordering::SeqCst) != KIND_NONE
    }

    /// Current write counters.
    pub fn counts(&self) -> WriteCounts {
        WriteCounts {
            meta: self.meta_writes.load(Ordering::SeqCst),
            page: self.page_writes.load(Ordering::SeqCst),
        }
    }

    /// Starts recording crash-site hits (replacing any previous trace).
    pub fn start_trace(&self) {
        *self.trace.lock() = Some(Vec::new());
        self.tracing.store(true, Ordering::SeqCst);
    }

    /// Stops recording and returns the collected trace.
    pub fn take_trace(&self) -> Vec<SiteHit> {
        self.tracing.store(false, Ordering::SeqCst);
        self.trace.lock().take().unwrap_or_default()
    }

    /// Starts recording every NVM write (replacing any previous trace).
    pub fn start_write_trace(&self) {
        *self.write_trace.lock() = Some(Vec::new());
        self.write_tracing.store(true, Ordering::SeqCst);
    }

    /// Stops recording writes and returns the collected trace.
    pub fn take_write_trace(&self) -> Vec<WriteRec> {
        self.write_tracing.store(false, Ordering::SeqCst);
        self.write_trace.lock().take().unwrap_or_default()
    }

    /// Panics with [`InjectedCrash`], disarming the schedule first. Write
    /// paths call this after applying the partial prefix of a torn write.
    pub fn crash_now(&self) -> ! {
        self.kind.store(KIND_NONE, Ordering::SeqCst);
        std::panic::panic_any(InjectedCrash);
    }

    /// Decrements the fuse; panics with [`InjectedCrash`] when it runs out.
    fn burn(&self) {
        // fetch_update keeps concurrent writers from double-spending one
        // remaining unit; exactly one of them observes zero and crashes.
        let fired = self
            .fuse
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
            .is_err();
        if fired {
            self.crash_now();
        }
    }

    /// Decrements the torn fuse; when it runs out, returns the partial
    /// prefix of the `off..off + len` write to apply before crashing.
    fn burn_torn(&self, off: usize, len: usize) -> WriteFate {
        let fired = self
            .fuse
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
            .is_err();
        if fired {
            let cut = self.cut.load(Ordering::SeqCst);
            WriteFate::Torn { keep: torn_keep(off, len, cut) }
        } else {
            WriteFate::Apply
        }
    }

    fn record_write(&self, kind: WriteKind, off: usize, len: usize) {
        if !self.write_tracing.load(Ordering::Acquire) {
            return;
        }
        if let Some(trace) = self.write_trace.lock().as_mut() {
            trace.push(WriteRec { kind, off, len });
        }
    }

    /// Called by the metadata arena before each write mutates the arena;
    /// tells the arena whether to apply the write in full or tear it.
    #[inline]
    pub fn on_meta_write(&self, off: usize, len: usize) -> WriteFate {
        self.meta_writes.fetch_add(1, Ordering::Relaxed);
        self.record_write(WriteKind::Meta, off, len);
        match self.kind.load(Ordering::Relaxed) {
            KIND_META | KIND_ANY => {
                self.burn();
                WriteFate::Apply
            }
            KIND_TORN => self.burn_torn(off, len),
            _ => WriteFate::Apply,
        }
    }

    /// Called by the device before each page-frame write mutates the frame;
    /// tells the device whether to apply the write in full or tear it.
    #[inline]
    pub fn on_page_write(&self, off: usize, len: usize) -> WriteFate {
        self.page_writes.fetch_add(1, Ordering::Relaxed);
        self.record_write(WriteKind::Page, off, len);
        match self.kind.load(Ordering::Relaxed) {
            KIND_PAGE | KIND_ANY => {
                self.burn();
                WriteFate::Apply
            }
            KIND_TORN => self.burn_torn(off, len),
            _ => WriteFate::Apply,
        }
    }

    /// Named crash-site hook; use via [`crash_site!`](crate::crash_site).
    ///
    /// Records the hit when tracing, and fires the fuse when armed with a
    /// matching [`CrashPoint::Site`].
    pub fn site(&self, name: &'static str) {
        if self.tracing.load(Ordering::Acquire) {
            if let Some(trace) = self.trace.lock().as_mut() {
                trace.push(SiteHit { name, writes_before: self.counts().total() });
            }
        }
        if self.kind.load(Ordering::Relaxed) == KIND_SITE {
            let matches = self.site.lock().as_deref() == Some(name);
            if matches {
                self.burn();
            }
        }
    }
}

/// Declares a named crash site on a [`CrashSchedule`].
///
/// ```ignore
/// crash_site!(kernel.pers.dev.crash_schedule(), "ckpt.pre_commit");
/// ```
///
/// Expands to a plain [`CrashSchedule::site`] call; the macro exists so
/// sites are grep-able as a class and can later grow cfg-gating without
/// touching every call site.
#[macro_export]
macro_rules! crash_site {
    ($sched:expr, $name:literal) => {
        $sched.site($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn crashes(f: impl FnOnce()) -> bool {
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(()) => false,
            Err(e) => {
                assert!(e.is::<InjectedCrash>(), "panic must be the injected crash");
                true
            }
        }
    }

    #[test]
    fn meta_fuse_fires_after_skip() {
        let s = CrashSchedule::new();
        s.arm(CrashPoint::MetaWrite(2));
        assert!(!crashes(|| {
            s.on_meta_write(0, 8);
        }));
        assert!(!crashes(|| {
            s.on_meta_write(0, 8);
        }));
        assert!(crashes(|| {
            s.on_meta_write(0, 8);
        }));
        // Fired fuse disarms itself.
        assert!(!s.armed());
        assert!(!crashes(|| {
            s.on_meta_write(0, 8);
        }));
    }

    #[test]
    fn page_and_any_classes() {
        let s = CrashSchedule::new();
        s.arm(CrashPoint::PageWrite(0));
        assert!(
            !crashes(|| {
                s.on_meta_write(0, 8);
            }),
            "meta writes don't burn a page fuse"
        );
        assert!(crashes(|| {
            s.on_page_write(0, 8);
        }));

        s.arm(CrashPoint::AnyWrite(1));
        assert!(!crashes(|| {
            s.on_meta_write(0, 8);
        }));
        assert!(crashes(|| {
            s.on_page_write(0, 8);
        }));
    }

    #[test]
    fn torn_fuse_returns_partial_fate() {
        let s = CrashSchedule::new();
        s.arm(CrashPoint::TornWrite { skip: 1, cut: 2 });
        assert_eq!(s.on_page_write(0, 4096), WriteFate::Apply);
        // 300-byte write at offset 10 has boundaries at 64, 128, 192, 256;
        // cut 2 keeps up to byte 128 → 118 bytes of the write.
        assert_eq!(s.on_meta_write(10, 300), WriteFate::Torn { keep: 118 });
        // Armed until the write path calls crash_now.
        assert!(s.armed());
        assert!(crashes(|| s.crash_now()));
        assert!(!s.armed());
    }

    #[test]
    fn torn_cut_zero_keeps_nothing() {
        let s = CrashSchedule::new();
        s.arm(CrashPoint::TornWrite { skip: 0, cut: 0 });
        assert_eq!(s.on_page_write(0, 4096), WriteFate::Torn { keep: 0 });
    }

    #[test]
    fn tear_geometry() {
        // An aligned u64 store can never tear.
        assert_eq!(interior_line_boundaries(8, 8), 0);
        assert_eq!(interior_line_boundaries(64, 8), 0);
        // A full page write has 63 interior boundaries.
        assert_eq!(interior_line_boundaries(0, 4096), 63);
        // A write spanning one boundary.
        assert_eq!(interior_line_boundaries(60, 8), 1);
        assert_eq!(torn_keep(60, 8, 1), 4);
        // Cuts beyond the last boundary clamp to the whole write.
        assert_eq!(torn_keep(60, 8, 2), 8);
        assert_eq!(torn_keep(0, 4096, 63), 4032);
        assert_eq!(torn_keep(0, 4096, 1), 64);
    }

    #[test]
    fn site_fuse_matches_by_name() {
        let s = CrashSchedule::new();
        s.arm(CrashPoint::Site { name: "ckpt.pre_commit".into(), skip: 1 });
        assert!(!crashes(|| crash_site!(s, "ckpt.post_commit")), "other sites pass");
        assert!(!crashes(|| crash_site!(s, "ckpt.pre_commit")), "skip=1 lets one pass");
        assert!(crashes(|| crash_site!(s, "ckpt.pre_commit")));
    }

    #[test]
    fn counters_and_trace() {
        let s = CrashSchedule::new();
        s.start_trace();
        s.start_write_trace();
        s.on_meta_write(0, 8);
        s.on_page_write(0, 4096);
        s.on_page_write(100, 16);
        crash_site!(s, "here");
        let c = s.counts();
        assert_eq!((c.meta, c.page, c.total()), (1, 2, 3));
        let trace = s.take_trace();
        assert_eq!(trace, vec![SiteHit { name: "here", writes_before: 3 }]);
        // Trace is consumed.
        assert!(s.take_trace().is_empty());
        let writes = s.take_write_trace();
        assert_eq!(
            writes,
            vec![
                WriteRec { kind: WriteKind::Meta, off: 0, len: 8 },
                WriteRec { kind: WriteKind::Page, off: 0, len: 4096 },
                WriteRec { kind: WriteKind::Page, off: 100, len: 16 },
            ]
        );
        assert_eq!(writes[1].tear_cuts(), 63);
        assert_eq!(writes[2].tear_cuts(), 0, "a 16 B write at 100 stays inside one line");
    }

    #[test]
    fn disarm_clears_pending_point() {
        let s = CrashSchedule::new();
        s.arm(CrashPoint::AnyWrite(0));
        s.disarm();
        assert!(!crashes(|| {
            s.on_page_write(0, 8);
        }));
    }
}
