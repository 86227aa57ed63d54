//! Access counters for the emulated memory devices.

use std::sync::atomic::{AtomicU64, Ordering};

/// Cumulative access statistics for a device.
///
/// All counters are monotonically increasing and updated with relaxed
/// atomics; they are read by the benchmark harness after a run, never used
/// for synchronization.
#[derive(Debug, Default)]
pub struct MemStats {
    /// Total bytes written.
    pub bytes_written: AtomicU64,
    /// Total bytes read.
    pub bytes_read: AtomicU64,
    /// Whole-page copies performed on this device (as destination).
    pub page_copies: AtomicU64,
}

impl MemStats {
    /// Creates a zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a write of `n` bytes.
    #[inline]
    pub fn record_write(&self, n: usize) {
        self.bytes_written.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Records a read of `n` bytes.
    #[inline]
    pub fn record_read(&self, n: usize) {
        self.bytes_read.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Records one whole-page copy landing on this device.
    #[inline]
    pub fn record_page_copy(&self) {
        self.page_copies.fetch_add(1, Ordering::Relaxed);
    }

    /// Returns a point-in-time snapshot of the counters.
    pub fn snapshot(&self) -> MemStatsSnapshot {
        MemStatsSnapshot {
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            page_copies: self.page_copies.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value snapshot of [`MemStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemStatsSnapshot {
    /// Total bytes written at snapshot time.
    pub bytes_written: u64,
    /// Total bytes read at snapshot time.
    pub bytes_read: u64,
    /// Whole-page copies at snapshot time.
    pub page_copies: u64,
}

impl MemStatsSnapshot {
    /// Returns the difference `self - earlier` field-wise.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is a later snapshot (counters are
    /// monotonic, so subtraction must not underflow).
    pub fn since(&self, earlier: &MemStatsSnapshot) -> MemStatsSnapshot {
        MemStatsSnapshot {
            bytes_written: self.bytes_written - earlier.bytes_written,
            bytes_read: self.bytes_read - earlier.bytes_read,
            page_copies: self.page_copies - earlier.page_copies,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = MemStats::new();
        s.record_write(100);
        s.record_write(28);
        s.record_read(4096);
        s.record_page_copy();
        let snap = s.snapshot();
        assert_eq!(snap.bytes_written, 128);
        assert_eq!(snap.bytes_read, 4096);
        assert_eq!(snap.page_copies, 1);
    }

    #[test]
    fn snapshot_difference() {
        let s = MemStats::new();
        s.record_write(10);
        let a = s.snapshot();
        s.record_write(5);
        s.record_read(7);
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.bytes_written, 5);
        assert_eq!(d.bytes_read, 7);
    }
}
