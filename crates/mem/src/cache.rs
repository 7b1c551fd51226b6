//! A set-associative, LRU, write-allocate cache model.
//!
//! One [`Cache`] instance models the per-SM unified L1/texture cache (whose
//! capacity is whatever the [carveout](crate::carveout) leaves after shared
//! memory) and another the device-wide L2. The model is functional, not
//! cycle-accurate: it classifies each access as hit or miss and maintains
//! the [`CacheCounters`] behind the paper's Fig 10.
//!
//! The replacement state is a flat, most-recently-used-ordered array of
//! line numbers per set (`LruSets`), which the [`Tlb`](crate::tlb::Tlb)
//! reuses over page numbers: one set-associative LRU for the crate.

use crate::addr::{AccessKind, Addr};
use hetsim_counters::CacheCounters;

/// Geometry of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity: u64,
    /// Line size in bytes (power of two).
    pub line: u64,
    /// Associativity (ways per set).
    pub ways: u32,
}

impl CacheConfig {
    /// Creates a config, validating geometry.
    ///
    /// # Panics
    ///
    /// Panics if the line size is not a power of two, if the capacity is not
    /// a multiple of `line * ways`, or if any field is zero.
    pub fn new(capacity: u64, line: u64, ways: u32) -> Self {
        assert!(capacity > 0 && line > 0 && ways > 0, "zero cache dimension");
        assert!(line.is_power_of_two(), "line size must be a power of two");
        assert!(
            capacity.is_multiple_of(line * ways as u64),
            "capacity {capacity} not divisible by line*ways"
        );
        CacheConfig {
            capacity,
            line,
            ways,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.capacity / (self.line * self.ways as u64)
    }
}

/// The set-associative LRU core shared by [`Cache`] and
/// [`Tlb`](crate::tlb::Tlb).
///
/// Keys are full block numbers (line or page numbers); the set is
/// `key % sets`, and keeping the whole key makes a separate tag
/// unnecessary. All ways live in one flat array, `ways` slots per set,
/// and each set keeps its first `fill` slots in most- to least-recently
/// used order: a hit moves its way to the front, a miss inserts at the
/// front and, when the set is full, drops the last way. That order is
/// exact LRU without a clock or per-line stamps.
#[derive(Debug, Clone)]
pub(crate) struct LruSets {
    keys: Vec<u64>,
    fill: Vec<u32>,
    sets: u64,
    ways: usize,
}

impl LruSets {
    /// An empty structure of `sets` sets of `ways` ways each.
    pub(crate) fn new(sets: u64, ways: u32) -> Self {
        assert!(sets > 0 && ways > 0, "zero LRU dimension");
        let ways = ways as usize;
        LruSets {
            keys: vec![0; sets as usize * ways],
            fill: vec![0; sets as usize],
            sets,
            ways,
        }
    }

    /// Touches `key`, making it the set's most recently used way; returns
    /// `true` if it was resident.
    #[inline]
    pub(crate) fn access(&mut self, key: u64) -> bool {
        let set = (key % self.sets) as usize;
        let fill = self.fill[set] as usize;
        let base = set * self.ways;
        let ways = &mut self.keys[base..base + self.ways];
        match ways[..fill].iter().position(|&k| k == key) {
            Some(pos) => {
                ways.copy_within(..pos, 1);
                ways[0] = key;
                true
            }
            None => {
                let kept = fill.min(self.ways - 1);
                ways.copy_within(..kept, 1);
                ways[0] = key;
                self.fill[set] = (kept + 1) as u32;
                false
            }
        }
    }

    /// Whether `key` is resident, without touching the LRU order.
    pub(crate) fn contains(&self, key: u64) -> bool {
        let set = (key % self.sets) as usize;
        let base = set * self.ways;
        self.keys[base..base + self.fill[set] as usize].contains(&key)
    }

    /// Number of resident keys.
    pub(crate) fn len(&self) -> usize {
        self.fill.iter().map(|&f| f as usize).sum()
    }

    /// Empties every set.
    pub(crate) fn clear(&mut self) {
        self.fill.fill(0);
    }
}

/// A set-associative LRU cache.
///
/// # Example
///
/// ```
/// use hetsim_mem::cache::{Cache, CacheConfig};
/// use hetsim_mem::addr::{AccessKind, Addr};
///
/// let mut l1 = Cache::new(CacheConfig::new(16 * 1024, 128, 4));
/// assert!(!l1.access(Addr::new(0), AccessKind::Load));  // cold miss
/// assert!(l1.access(Addr::new(64), AccessKind::Load));  // same line: hit
/// assert_eq!(l1.counters().load_misses(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    line_shift: u32,
    lines: LruSets,
    counters: CacheCounters,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        Cache {
            config,
            line_shift: config.line.trailing_zeros(),
            lines: LruSets::new(config.sets(), config.ways),
            counters: CacheCounters::new(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Performs one access; returns `true` on hit.
    ///
    /// Misses allocate (write-allocate policy) for loads and stores alike.
    pub fn access(&mut self, addr: Addr, kind: AccessKind) -> bool {
        let hit = self.lines.access(addr.as_u64() >> self.line_shift);
        match kind {
            AccessKind::Load => self.counters.record_load(hit),
            AccessKind::Store => self.counters.record_store(hit),
        }
        hit
    }

    /// Probes whether `addr` is resident without touching LRU state or
    /// counters.
    pub fn contains(&self, addr: Addr) -> bool {
        self.lines.contains(addr.as_u64() >> self.line_shift)
    }

    /// Number of currently resident lines.
    pub fn resident_lines(&self) -> usize {
        self.lines.len()
    }

    /// Accumulated hit/miss counters.
    pub fn counters(&self) -> CacheCounters {
        self.counters
    }

    /// Empties the cache (e.g. between kernels) without resetting counters.
    pub fn flush(&mut self) {
        self.lines.clear();
    }

    /// Resets the counters without touching residency.
    pub fn reset_counters(&mut self) {
        self.counters = CacheCounters::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 2 ways x 64B lines = 512B.
        Cache::new(CacheConfig::new(512, 64, 2))
    }

    #[test]
    fn config_geometry() {
        let c = CacheConfig::new(192 * 1024, 128, 4);
        assert_eq!(c.sets(), 384);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2_line() {
        let _ = CacheConfig::new(512, 96, 2);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn rejects_bad_capacity() {
        let _ = CacheConfig::new(500, 64, 2);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert!(!c.access(Addr::new(0), AccessKind::Load));
        assert!(c.access(Addr::new(63), AccessKind::Load), "same line");
        assert!(!c.access(Addr::new(64), AccessKind::Load), "next line");
        assert_eq!(c.counters().loads(), 3);
        assert_eq!(c.counters().load_misses(), 2);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = small();
        // Three lines mapping to set 0: line numbers 0, 4, 8 (4 sets).
        let a0 = Addr::new(0);
        let a1 = Addr::new(4 * 64);
        let a2 = Addr::new(8 * 64);
        c.access(a0, AccessKind::Load);
        c.access(a1, AccessKind::Load);
        c.access(a0, AccessKind::Load); // refresh a0: a1 becomes LRU
        c.access(a2, AccessKind::Load); // evicts a1
        assert!(c.contains(a0));
        assert!(!c.contains(a1));
        assert!(c.contains(a2));
    }

    #[test]
    fn stores_allocate_and_count() {
        let mut c = small();
        assert!(!c.access(Addr::new(128), AccessKind::Store));
        assert!(c.access(Addr::new(130), AccessKind::Load));
        assert_eq!(c.counters().store_misses(), 1);
        assert_eq!(c.counters().load_hits(), 1);
    }

    #[test]
    fn contains_does_not_disturb_lru_or_counters() {
        let mut c = small();
        c.access(Addr::new(0), AccessKind::Load);
        let before = c.counters();
        assert!(c.contains(Addr::new(32)));
        assert!(!c.contains(Addr::new(4096)));
        assert_eq!(c.counters(), before);
    }

    #[test]
    fn flush_clears_residency_not_counters() {
        let mut c = small();
        c.access(Addr::new(0), AccessKind::Load);
        c.flush();
        assert_eq!(c.resident_lines(), 0);
        assert_eq!(c.counters().loads(), 1);
        c.reset_counters();
        assert_eq!(c.counters().loads(), 0);
    }

    #[test]
    fn capacity_bounds_residency() {
        let mut c = small();
        for i in 0..1_000 {
            c.access(Addr::new(i * 64), AccessKind::Load);
        }
        assert!(c.resident_lines() <= 8, "512B / 64B lines = 8 lines max");
    }

    #[test]
    fn working_set_within_capacity_hits_after_warmup() {
        let mut c = small();
        let lines = 8u64;
        for pass in 0..3 {
            for i in 0..lines {
                let hit = c.access(Addr::new(i * 64), AccessKind::Load);
                if pass > 0 {
                    assert!(hit, "pass {pass} line {i} should hit");
                }
            }
        }
    }
}
