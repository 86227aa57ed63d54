//! Flat host memory: a [`MemIo`] over an ordinary byte buffer.
//!
//! Whatever is not SLS-persistent state but still speaks the ring codec or
//! runs the application data structures uses this: the replication
//! channel's delta and ack rings (host infrastructure, like the NIC's DMA
//! engine), the baseline systems' DRAM process heap, and unit tests of
//! the rings, hash table and LSM.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

use treesls_kernel::types::KernelError;

use crate::ring::MemIo;

/// A zero-initialised byte buffer implementing [`MemIo`], with a settable
/// version tag and a count of flush barriers.
#[derive(Debug)]
pub struct HeapMem {
    bytes: RwLock<Vec<u8>>,
    version: AtomicU64,
    /// Count of flush barriers issued (WAL accounting in baselines).
    pub flushes: AtomicU64,
}

impl HeapMem {
    /// Allocates a zeroed buffer of `len` bytes.
    pub fn new(len: usize) -> Self {
        Self {
            bytes: RwLock::new(vec![0; len]),
            version: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
        }
    }

    /// Sets the value returned by [`MemIo::version`] (the tag stamped
    /// into subsequently pushed ring slots).
    pub fn set_version(&self, v: u64) {
        self.version.store(v, Ordering::SeqCst);
    }

    /// Flips one bit of the byte at `addr` (wrapped into the buffer):
    /// corruption injection for quarantine drills.
    pub fn corrupt_byte(&self, addr: u64) {
        let mut g = self.bytes.write();
        let a = (addr as usize) % g.len();
        g[a] ^= 0x40;
    }
}

impl MemIo for HeapMem {
    fn mem_read(&self, addr: u64, buf: &mut [u8]) -> Result<(), KernelError> {
        let g = self.bytes.read();
        let a = addr as usize;
        let src = g.get(a..a + buf.len()).ok_or(KernelError::UnmappedAddress(addr))?;
        buf.copy_from_slice(src);
        Ok(())
    }

    fn mem_write(&self, addr: u64, data: &[u8]) -> Result<(), KernelError> {
        let mut g = self.bytes.write();
        let a = addr as usize;
        let dst = g.get_mut(a..a + data.len()).ok_or(KernelError::UnmappedAddress(addr))?;
        dst.copy_from_slice(data);
        Ok(())
    }

    fn version(&self) -> u64 {
        self.version.load(Ordering::SeqCst)
    }

    fn flush(&self) {
        self.flushes.fetch_add(1, Ordering::Relaxed);
    }
}

/// A [`MemIo`] wrapper counting the reads and writes made through it.
///
/// Inside TreeSLS every `MemIo` call is one soft-MMU translation, so tests
/// pin a code path's call budget by running it over a counted
/// [`HeapMem`].
#[derive(Debug)]
pub struct Counted<M> {
    inner: M,
    reads: AtomicU64,
    writes: AtomicU64,
}

impl<M> Counted<M> {
    /// Wraps `inner` with both counts at zero.
    pub fn new(inner: M) -> Self {
        Self { inner, reads: AtomicU64::new(0), writes: AtomicU64::new(0) }
    }

    /// The wrapped memory (its accesses are not counted).
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// `mem_read` calls so far.
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// `mem_write` calls so far.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Sets both counts back to zero.
    pub fn reset(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
    }
}

impl<M: MemIo> MemIo for Counted<M> {
    fn mem_read(&self, addr: u64, buf: &mut [u8]) -> Result<(), KernelError> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.inner.mem_read(addr, buf)
    }

    fn mem_write(&self, addr: u64, data: &[u8]) -> Result<(), KernelError> {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.inner.mem_write(addr, data)
    }

    fn version(&self) -> u64 {
        self.inner.version()
    }

    fn flush(&self) {
        self.inner.flush()
    }

    fn crash_hook(&self, site: &'static str) {
        self.inner.crash_hook(site)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_checked() {
        let m = HeapMem::new(16);
        let mut b = [0u8; 8];
        assert!(m.mem_read(8, &mut b).is_ok());
        assert!(m.mem_read(9, &mut b).is_err());
        assert!(m.mem_write(16, &[1]).is_err());
    }

    #[test]
    fn counted_counts_calls_not_bytes() {
        let m = Counted::new(HeapMem::new(64));
        m.mem_write(0, &[1; 32]).unwrap();
        m.mem_write_u64(32, 7).unwrap();
        assert_eq!(m.mem_read_u64(32).unwrap(), 7);
        assert_eq!((m.reads(), m.writes()), (1, 2));
        m.reset();
        assert_eq!((m.reads(), m.writes()), (0, 0));
    }

    #[test]
    fn flush_counts() {
        let m = HeapMem::new(1);
        m.flush();
        m.flush();
        assert_eq!(m.flushes.load(Ordering::Relaxed), 2);
    }
}
