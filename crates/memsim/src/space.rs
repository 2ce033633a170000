//! Virtual address-space bookkeeping for instrumented kernels.
//!
//! Instrumented kernels do not trace real pointers (ASLR would make runs
//! non-reproducible and regions could alias accidentally); instead each
//! logical data structure — index block, subject sequences, last-hit
//! arrays, hit buffer — allocates its region here and receives a stable,
//! page-aligned base address in a simulated address space.

/// Simulated address-space allocator. Regions are page-aligned and never
/// freed (kernels re-register per run, matching how the real code
/// reallocates per block).
#[derive(Clone, Debug)]
pub struct AddressSpace {
    next: u64,
}

const PAGE: u64 = 4096;
/// Guard gap between regions so that boundary accesses never alias.
const GUARD: u64 = 4 * PAGE;

impl Default for AddressSpace {
    fn default() -> Self {
        Self::new()
    }
}

impl AddressSpace {
    /// Fresh address space starting at a non-zero base (so address 0 is
    /// never valid, catching uninitialised bases in debug assertions).
    pub fn new() -> Self {
        AddressSpace { next: 1 << 20 }
    }

    /// Allocate a region of `size` bytes; returns its base address.
    pub fn alloc(&mut self, size: usize) -> u64 {
        let base = self.next;
        let span = (size as u64).div_ceil(PAGE) * PAGE + GUARD;
        self.next += span;
        base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_are_disjoint_and_page_aligned() {
        let mut sp = AddressSpace::new();
        let a = sp.alloc(100);
        let b = sp.alloc(5000);
        let c = sp.alloc(0);
        assert_eq!(a % PAGE, 0);
        assert_eq!(b % PAGE, 0);
        assert!(b >= a + 100);
        assert!(c >= b + 5000);
    }

    #[test]
    fn base_is_nonzero() {
        let mut sp = AddressSpace::new();
        assert!(sp.alloc(1) > 0);
    }
}
