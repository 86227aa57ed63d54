//! The "Linux" baseline: plain DRAM execution with an optional
//! synchronous WAL on emulated Ext4-DAX.
//!
//! `Linux-base` (Figure 13) is just application code on host memory.
//! `Linux-WAL` additionally appends every write operation to a log on the
//! persistent-memory device and issues an `fsync`-equivalent barrier —
//! the "extra write on the critical path" the paper blames for the 64–78 %
//! throughput loss on write-intensive YCSB.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use treesls_extsync::wire::put_bytes;
use treesls_extsync::{HeapMem, MemIo};
use treesls_kernel::types::KernelError;
use treesls_nvm::LatencyModel;

/// A host ("Linux") process heap with an optional WAL device.
#[derive(Debug)]
pub struct LinuxHost {
    mem: HeapMem,
    wal: Mutex<Vec<u8>>,
    wal_enabled: bool,
    latency: Arc<LatencyModel>,
    /// WAL bytes written (diagnostics).
    pub wal_bytes: AtomicU64,
    /// WAL flush barriers issued.
    pub wal_flushes: AtomicU64,
}

impl LinuxHost {
    /// Creates a host heap of `len` bytes.
    ///
    /// `wal_enabled` turns every [`log_write`](Self::log_write) into an
    /// actual log append plus persistence barrier; when disabled the call
    /// is free (the `-base` configurations).
    pub fn new(len: usize, wal_enabled: bool, latency: Arc<LatencyModel>) -> Self {
        Self {
            mem: HeapMem::new(len),
            wal: Mutex::new(Vec::new()),
            wal_enabled,
            latency,
            wal_bytes: AtomicU64::new(0),
            wal_flushes: AtomicU64::new(0),
        }
    }

    /// Whether the WAL is on.
    pub fn wal_enabled(&self) -> bool {
        self.wal_enabled
    }

    /// Appends an operation record to the WAL and issues the persistence
    /// barrier (no-op when the WAL is disabled).
    pub fn log_write(&self, record: &[u8]) {
        if !self.wal_enabled {
            return;
        }
        put_bytes(&mut self.wal.lock(), record);
        self.wal_bytes.fetch_add(record.len() as u64 + 4, Ordering::Relaxed);
        self.wal_flushes.fetch_add(1, Ordering::Relaxed);
        // The WAL lives on the PM device: charge the write plus the sync.
        self.latency.charge_write(record.len() + 4);
        self.latency.charge_flush();
    }

    /// Truncates the WAL (after a snapshot/compaction).
    pub fn truncate_wal(&self) {
        self.wal.lock().clear();
    }

    /// Current WAL length in bytes.
    pub fn wal_len(&self) -> usize {
        self.wal.lock().len()
    }
}

impl MemIo for LinuxHost {
    fn mem_read(&self, addr: u64, buf: &mut [u8]) -> Result<(), KernelError> {
        self.mem.mem_read(addr, buf)
    }
    fn mem_write(&self, addr: u64, data: &[u8]) -> Result<(), KernelError> {
        self.mem.mem_write(addr, data)
    }
    fn version(&self) -> u64 {
        0
    }
    fn flush(&self) {
        self.wal_flushes.fetch_add(1, Ordering::Relaxed);
        self.latency.charge_flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treesls_apps::hashkv::HashKv;
    use treesls_apps::wire::make_key;

    #[test]
    fn apps_run_on_linux_host() {
        let host = LinuxHost::new(1 << 20, false, Arc::new(LatencyModel::disabled()));
        let t = HashKv::format(&host, 0, 1024, 64).unwrap();
        t.set(&host, &make_key(b"k"), b"v").unwrap();
        assert_eq!(t.get(&host, &make_key(b"k")).unwrap(), Some(b"v".to_vec()));
    }

    #[test]
    fn wal_accounting() {
        let host = LinuxHost::new(4096, true, Arc::new(LatencyModel::disabled()));
        host.log_write(b"op1");
        host.log_write(b"operation2");
        assert_eq!(host.wal_flushes.load(Ordering::Relaxed), 2);
        assert_eq!(host.wal_bytes.load(Ordering::Relaxed), 3 + 10 + 8);
        assert!(host.wal_len() > 0);
        host.truncate_wal();
        assert_eq!(host.wal_len(), 0);
    }

    #[test]
    fn disabled_wal_is_free() {
        let host = LinuxHost::new(4096, false, Arc::new(LatencyModel::disabled()));
        host.log_write(b"ignored");
        assert_eq!(host.wal_flushes.load(Ordering::Relaxed), 0);
        assert_eq!(host.wal_len(), 0);
    }
}
