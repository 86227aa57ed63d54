//! Allocator error types.

use std::fmt;

/// Errors returned by the NVM allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// No free block of the requested order (or larger) exists.
    OutOfMemory,
    /// The requested order exceeds the maximum supported block size.
    OrderTooLarge,
    /// A free targeted a block that is not currently allocated at that
    /// address/order, or a slab free targeted a dead object.
    InvalidFree,
    /// The requested slab size exceeds the largest size class.
    SizeTooLarge,
    /// A rebuild claimed a frame or slab slot twice.
    Overlap,
    /// The persistent header does not match the layout (corrupt or unformatted).
    Corrupt,
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::OutOfMemory => write!(f, "out of NVM frames"),
            AllocError::OrderTooLarge => write!(f, "requested order exceeds maximum"),
            AllocError::InvalidFree => write!(f, "free of unallocated or mismatched block"),
            AllocError::SizeTooLarge => write!(f, "slab size exceeds largest class"),
            AllocError::Overlap => write!(f, "rebuild claims an allocation twice"),
            AllocError::Corrupt => write!(f, "allocator metadata header is corrupt"),
        }
    }
}

impl std::error::Error for AllocError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_descriptive() {
        assert!(AllocError::OutOfMemory.to_string().contains("NVM"));
        assert!(AllocError::InvalidFree.to_string().contains("free"));
    }
}
