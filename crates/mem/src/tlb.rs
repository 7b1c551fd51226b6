//! A TLB model for UVM address translation.
//!
//! Under UVM the GPU walks host-compatible page tables; the paper attributes
//! part of the `uvm` configuration's kernel inflation to "additional page
//! walking" (§4.1.1, citing Allen & Ge). This module models the per-SM TLB
//! as a small set-associative cache over page numbers, so the translation
//! overhead of a kernel *emerges from its access stream*: dense sequential
//! walks hit a few pages repeatedly, random walks miss constantly.
//!
//! The executor replays each global access through a [`Tlb`] when a run
//! uses managed memory and derives the translation stall from the measured
//! miss count × the page-walk cost.

use crate::addr::Addr;
use crate::cache::LruSets;

/// TLB geometry and costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TlbConfig {
    /// Translation granularity, bytes (UVM maps at 2 MB granularity once
    /// migrated chunks coalesce; 64 KB before).
    pub page_bytes: u64,
    /// Number of entries.
    pub entries: u32,
    /// Associativity.
    pub ways: u32,
    /// Page-walk latency per miss, in SM cycles.
    pub walk_cycles: f64,
}

impl TlbConfig {
    /// A100-class GPU MMU: 64-entry, 8-way, 64 KB pages under UVM, with a
    /// multi-level walk costing ~600 cycles when it leaves the page-walk
    /// caches.
    pub fn a100_uvm() -> Self {
        TlbConfig {
            page_bytes: 64 * 1024,
            entries: 64,
            ways: 8,
            walk_cycles: 600.0,
        }
    }
}

impl Default for TlbConfig {
    fn default() -> Self {
        TlbConfig::a100_uvm()
    }
}

/// A set-associative TLB with LRU replacement.
///
/// # Example
///
/// ```
/// use hetsim_mem::tlb::{Tlb, TlbConfig};
/// use hetsim_mem::addr::Addr;
///
/// let mut tlb = Tlb::new(TlbConfig::a100_uvm());
/// assert!(!tlb.access(Addr::new(0)));      // cold miss
/// assert!(tlb.access(Addr::new(4096)));    // same 64 KB page
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    config: TlbConfig,
    page_shift: u32,
    pages: LruSets,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Creates an empty TLB.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero entries/ways, or ways
    /// not dividing entries).
    pub fn new(config: TlbConfig) -> Self {
        assert!(config.entries > 0 && config.ways > 0, "zero TLB dimension");
        assert!(
            config.entries.is_multiple_of(config.ways),
            "entries must be a multiple of ways"
        );
        assert!(config.page_bytes.is_power_of_two(), "page size must be 2^n");
        Tlb {
            config,
            page_shift: config.page_bytes.trailing_zeros(),
            pages: LruSets::new((config.entries / config.ways) as u64, config.ways),
            hits: 0,
            misses: 0,
        }
    }

    /// The geometry.
    pub fn config(&self) -> TlbConfig {
        self.config
    }

    /// Translates one access; returns `true` on TLB hit.
    pub fn access(&mut self, addr: Addr) -> bool {
        let hit = self.pages.access(addr.as_u64() >> self.page_shift);
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss rate in `[0, 1]`; zero before any access.
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Total page-walk cycles incurred so far.
    pub fn walk_cycles(&self) -> f64 {
        self.misses as f64 * self.config.walk_cycles
    }

    /// Clears residency and counters (between kernels).
    pub fn reset(&mut self) {
        self.pages.clear();
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tlb() -> Tlb {
        Tlb::new(TlbConfig::a100_uvm())
    }

    #[test]
    fn sequential_walk_hits_within_pages() {
        let mut t = tlb();
        // 64 KB pages, 128 B lines: 512 accesses per page, 1 miss each.
        for i in 0..512 * 4 {
            t.access(Addr::new(i * 128));
        }
        assert_eq!(t.misses(), 4);
        assert!(t.miss_rate() < 0.01);
    }

    #[test]
    fn random_walk_thrashes() {
        let mut t = tlb();
        // Touch 4096 distinct pages pseudo-randomly: far beyond 64 entries.
        let mut x: u64 = 0x12345;
        for _ in 0..4096 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let page = x % 4096;
            t.access(Addr::new(page * 64 * 1024));
        }
        assert!(t.miss_rate() > 0.9, "rate {}", t.miss_rate());
        assert!(t.walk_cycles() > 0.0);
    }

    #[test]
    fn strided_reuse_within_reach_hits() {
        let mut t = tlb();
        // 32 pages re-walked repeatedly: fits the 64-entry TLB.
        for _ in 0..10 {
            for p in 0..32u64 {
                t.access(Addr::new(p * 64 * 1024));
            }
        }
        let rate = t.miss_rate();
        assert!(rate < 0.15, "rate {rate}");
    }

    #[test]
    fn reset_clears_everything() {
        let mut t = tlb();
        t.access(Addr::new(0));
        t.reset();
        assert_eq!(t.hits(), 0);
        assert_eq!(t.misses(), 0);
        assert_eq!(t.miss_rate(), 0.0);
        assert!(!t.access(Addr::new(0)), "cold again after reset");
    }

    #[test]
    fn lru_prefers_recent_pages() {
        let cfg = TlbConfig {
            page_bytes: 4096,
            entries: 2,
            ways: 2,
            walk_cycles: 100.0,
        };
        let mut t = Tlb::new(cfg);
        let page = |i: u64| Addr::new(i * 4096 * (cfg.entries as u64 / cfg.ways as u64));
        t.access(page(0));
        t.access(page(1));
        t.access(page(0)); // refresh 0; 1 is LRU
        t.access(page(2)); // evicts 1
        assert!(t.access(page(0)), "0 must survive");
        assert!(!t.access(page(1)), "1 was evicted");
    }

    #[test]
    #[should_panic(expected = "multiple of ways")]
    fn bad_geometry_rejected() {
        let _ = Tlb::new(TlbConfig {
            page_bytes: 4096,
            entries: 10,
            ways: 4,
            walk_cycles: 1.0,
        });
    }
}
