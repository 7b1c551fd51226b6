//! Typed addresses and memory accesses.

use std::fmt;
use std::ops::Add;

/// A byte address in the simulated (virtual) address space.
///
/// Workload models emit `Addr` streams; caches and page tables consume them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(u64);

impl Addr {
    /// Creates an address from a raw byte offset.
    pub const fn new(a: u64) -> Self {
        Addr(a)
    }

    /// Raw byte value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The containing aligned block number for a power-of-two block size
    /// (cache line, page, chunk).
    ///
    /// # Panics
    ///
    /// Panics if `block` is zero (integer division by zero panics in every
    /// build profile).
    pub const fn block(self, block: u64) -> u64 {
        self.0 / block
    }

    /// Byte offset within an aligned block.
    pub const fn offset_in(self, block: u64) -> u64 {
        self.0 % block
    }
}

impl Add<u64> for Addr {
    type Output = Addr;
    fn add(self, rhs: u64) -> Addr {
        Addr(self.0 + rhs)
    }
}

impl From<u64> for Addr {
    fn from(a: u64) -> Addr {
        Addr(a)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// Whether an access reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A read.
    Load,
    /// A write.
    Store,
}

impl AccessKind {
    /// True for [`AccessKind::Load`].
    pub const fn is_load(self) -> bool {
        matches!(self, AccessKind::Load)
    }
}

/// The memory space an access targets.
///
/// Shared-memory accesses bypass the L1 and never fault; global accesses
/// traverse L1 → L2 → HBM and may take UVM far faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSpace {
    /// Device global memory (backed by HBM, cached in L1/L2).
    Global,
    /// Per-SM software-managed shared memory.
    Shared,
}

/// One memory access from a kernel's address stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Target address.
    pub addr: Addr,
    /// Load or store.
    pub kind: AccessKind,
    /// Global or shared space.
    pub space: MemSpace,
}

impl MemAccess {
    /// A global-memory load.
    pub const fn global_load(addr: u64) -> Self {
        MemAccess {
            addr: Addr::new(addr),
            kind: AccessKind::Load,
            space: MemSpace::Global,
        }
    }

    /// A global-memory store.
    pub const fn global_store(addr: u64) -> Self {
        MemAccess {
            addr: Addr::new(addr),
            kind: AccessKind::Store,
            space: MemSpace::Global,
        }
    }

    /// A shared-memory load.
    pub const fn shared_load(addr: u64) -> Self {
        MemAccess {
            addr: Addr::new(addr),
            kind: AccessKind::Load,
            space: MemSpace::Shared,
        }
    }

    /// A shared-memory store.
    pub const fn shared_store(addr: u64) -> Self {
        MemAccess {
            addr: Addr::new(addr),
            kind: AccessKind::Store,
            space: MemSpace::Shared,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_math() {
        let a = Addr::new(4096 + 130);
        assert_eq!(a.block(4096), 1);
        assert_eq!(a.offset_in(4096), 130);
        assert_eq!(a.block(128), 33);
    }

    #[test]
    fn addr_arithmetic_and_conversion() {
        let a: Addr = 100u64.into();
        assert_eq!((a + 28).as_u64(), 128);
        assert_eq!(Addr::new(255).to_string(), "0xff");
    }

    #[test]
    fn constructors_set_fields() {
        let l = MemAccess::global_load(8);
        assert_eq!(l.kind, AccessKind::Load);
        assert_eq!(l.space, MemSpace::Global);
        assert!(l.kind.is_load());
        let s = MemAccess::shared_store(16);
        assert_eq!(s.kind, AccessKind::Store);
        assert_eq!(s.space, MemSpace::Shared);
        assert!(!s.kind.is_load());
        assert_eq!(MemAccess::global_store(1).space, MemSpace::Global);
        assert_eq!(MemAccess::shared_load(1).space, MemSpace::Shared);
    }
}
