//! Shared identifier and error types for the kernel.

use std::fmt;

use treesls_nvm::SlotId;

/// Identifier of a *runtime* kernel object (volatile object store).
///
/// Runtime ids do not survive crashes; persistent references between
/// objects always go through [`OrootId`]s instead, as in the paper ("the
/// backup capability stores the pointer to the corresponding ORoot").
pub type ObjId = SlotId;

/// Identifier of an ORoot record (persistent store; survives crashes).
pub type OrootId = SlotId;

/// Identifier of a backup object record (persistent store).
pub type BackupId = SlotId;

/// A capability slot index within a cap group's capability table.
pub type CapSlot = usize;

/// Virtual page number within a process address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Vpn(pub u64);

/// A virtual address within a process address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Vaddr(pub u64);

impl Vaddr {
    /// The page containing this address.
    pub fn vpn(self) -> Vpn {
        Vpn(self.0 / treesls_nvm::PAGE_SIZE as u64)
    }

    /// Byte offset within the page.
    pub fn page_off(self) -> usize {
        (self.0 % treesls_nvm::PAGE_SIZE as u64) as usize
    }

    /// Address `self + n` bytes, panicking on overflow in debug builds.
    pub fn add_bytes(self, n: u64) -> Vaddr {
        Vaddr(self.0 + n)
    }
}

impl Vpn {
    /// First address of this page.
    pub fn base(self) -> Vaddr {
        Vaddr(self.0 * treesls_nvm::PAGE_SIZE as u64)
    }
}

/// Errors surfaced by kernel operations ("syscalls").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// A capability lookup failed: empty slot or wrong object type.
    BadCapability,
    /// The capability exists but lacks the required rights.
    PermissionDenied,
    /// A virtual address is not covered by any VM region.
    UnmappedAddress(u64),
    /// Out of NVM or DRAM memory.
    OutOfMemory,
    /// A referenced object no longer exists.
    DeadObject,
    /// The operation is invalid in the object's current state.
    InvalidState(&'static str),
    /// An IPC message exceeded the connection's buffer capacity.
    MessageTooLarge,
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::BadCapability => write!(f, "bad capability"),
            KernelError::PermissionDenied => write!(f, "permission denied"),
            KernelError::UnmappedAddress(a) => write!(f, "unmapped address {a:#x}"),
            KernelError::OutOfMemory => write!(f, "out of memory"),
            KernelError::DeadObject => write!(f, "dead object"),
            KernelError::InvalidState(s) => write!(f, "invalid state: {s}"),
            KernelError::MessageTooLarge => write!(f, "IPC message too large"),
        }
    }
}

impl std::error::Error for KernelError {}

impl From<treesls_pmem_alloc::AllocError> for KernelError {
    fn from(e: treesls_pmem_alloc::AllocError) -> Self {
        match e {
            treesls_pmem_alloc::AllocError::OutOfMemory => KernelError::OutOfMemory,
            treesls_pmem_alloc::AllocError::Corrupt => {
                KernelError::InvalidState("allocator metadata header is corrupt")
            }
            _ => KernelError::InvalidState("allocator rejected operation"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vaddr_decomposition() {
        let a = Vaddr(4096 * 3 + 17);
        assert_eq!(a.vpn(), Vpn(3));
        assert_eq!(a.page_off(), 17);
        assert_eq!(Vpn(3).base(), Vaddr(4096 * 3));
    }

    #[test]
    fn errors_display() {
        assert!(KernelError::UnmappedAddress(0x1000).to_string().contains("0x1000"));
    }

    #[test]
    fn alloc_error_conversion() {
        let k: KernelError = treesls_pmem_alloc::AllocError::OutOfMemory.into();
        assert_eq!(k, KernelError::OutOfMemory);
    }
}
