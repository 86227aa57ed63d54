//! Flat-memory [`MemIo`] for unit tests: counts stores and bytes, and can
//! fail one chosen store.

use std::cell::{Cell, RefCell};

use treesls_extsync::MemIo;
use treesls_kernel::types::KernelError;

use crate::store::KEY_LEN;

/// Zero-filled memory at address 0.
#[derive(Clone)]
pub struct Flat {
    /// The bytes.
    pub mem: RefCell<Vec<u8>>,
    /// Stores issued so far, failed ones included.
    pub stores: Cell<u64>,
    /// Bytes written by successful stores.
    pub bytes: Cell<u64>,
    /// Ordinal (0-based, in `stores`) of the store to fail with
    /// `OutOfMemory`; `u64::MAX` = none.
    pub fail_at: Cell<u64>,
}

impl Flat {
    pub fn new(len: usize) -> Flat {
        Flat {
            mem: RefCell::new(vec![0; len]),
            stores: Cell::new(0),
            bytes: Cell::new(0),
            fail_at: Cell::new(u64::MAX),
        }
    }
}

impl MemIo for Flat {
    fn mem_read(&self, addr: u64, buf: &mut [u8]) -> Result<(), KernelError> {
        let m = self.mem.borrow();
        buf.copy_from_slice(&m[addr as usize..addr as usize + buf.len()]);
        Ok(())
    }
    fn mem_write(&self, addr: u64, data: &[u8]) -> Result<(), KernelError> {
        let n = self.stores.get();
        self.stores.set(n + 1);
        if n == self.fail_at.get() {
            return Err(KernelError::OutOfMemory);
        }
        self.bytes.set(self.bytes.get() + data.len() as u64);
        let mut m = self.mem.borrow_mut();
        m[addr as usize..addr as usize + data.len()].copy_from_slice(data);
        Ok(())
    }
    fn version(&self) -> u64 {
        0
    }
}

/// 16-byte key `i` (big-endian, so keys sort numerically).
pub fn key(i: u64) -> [u8; KEY_LEN] {
    let mut k = [0u8; KEY_LEN];
    k[..8].copy_from_slice(&i.to_be_bytes());
    k
}
