//! Differential tests: the flat MRU-ordered [`Cache`] and [`Tlb`] against
//! straightforward per-set LRU oracles.
//!
//! The oracles are the earlier models of both structures: one `Vec` of
//! ways per set, each way stamped with a global access clock, the victim
//! being the smallest stamp, and the tag being `block / sets`. (The old
//! cache's `dirty` bit is left out: nothing ever read it.) Seeded
//! [`SimRng`] streams drive oracle and model side by side; every access
//! must agree on hit or miss, and counters, residency and `contains`
//! probes must agree throughout, across flushes and counter resets.

use hetsim_counters::CacheCounters;
use hetsim_engine::rng::SimRng;
use hetsim_mem::addr::{AccessKind, Addr};
use hetsim_mem::cache::{Cache, CacheConfig};
use hetsim_mem::tlb::{Tlb, TlbConfig};

/// The clock-stamped cache model.
struct OracleCache {
    line: u64,
    ways: usize,
    sets: Vec<Vec<(u64, u64)>>, // (tag, last_use)
    clock: u64,
    counters: CacheCounters,
}

impl OracleCache {
    fn new(config: CacheConfig) -> Self {
        OracleCache {
            line: config.line,
            ways: config.ways as usize,
            sets: vec![Vec::with_capacity(config.ways as usize); config.sets() as usize],
            clock: 0,
            counters: CacheCounters::new(),
        }
    }

    fn locate(&self, addr: Addr) -> (usize, u64) {
        let line_no = addr.block(self.line);
        let n = self.sets.len() as u64;
        ((line_no % n) as usize, line_no / n)
    }

    fn access(&mut self, addr: Addr, kind: AccessKind) -> bool {
        self.clock += 1;
        let (idx, tag) = self.locate(addr);
        let hit = stamp_lru(&mut self.sets[idx], self.ways, tag, self.clock);
        match kind {
            AccessKind::Load => self.counters.record_load(hit),
            AccessKind::Store => self.counters.record_store(hit),
        }
        hit
    }

    fn contains(&self, addr: Addr) -> bool {
        let (idx, tag) = self.locate(addr);
        self.sets[idx].iter().any(|&(t, _)| t == tag)
    }

    fn resident_lines(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    fn flush(&mut self) {
        self.sets.iter_mut().for_each(Vec::clear);
    }
}

/// The clock-stamped TLB model.
struct OracleTlb {
    page: u64,
    ways: usize,
    sets: Vec<Vec<(u64, u64)>>, // (tag, last_use)
    clock: u64,
    hits: u64,
    misses: u64,
}

impl OracleTlb {
    fn new(config: TlbConfig) -> Self {
        let sets = (config.entries / config.ways) as usize;
        OracleTlb {
            page: config.page_bytes,
            ways: config.ways as usize,
            sets: vec![Vec::with_capacity(config.ways as usize); sets],
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn access(&mut self, addr: Addr) -> bool {
        self.clock += 1;
        let page = addr.block(self.page);
        let n = self.sets.len() as u64;
        let hit = stamp_lru(
            &mut self.sets[(page % n) as usize],
            self.ways,
            page / n,
            self.clock,
        );
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    fn reset(&mut self) {
        self.sets.iter_mut().for_each(Vec::clear);
        self.hits = 0;
        self.misses = 0;
    }
}

/// One access to a stamped set: refresh on hit, else fill or replace the
/// way with the oldest stamp.
fn stamp_lru(set: &mut Vec<(u64, u64)>, ways: usize, tag: u64, clock: u64) -> bool {
    if let Some(way) = set.iter_mut().find(|(t, _)| *t == tag) {
        way.1 = clock;
        return true;
    }
    if set.len() < ways {
        set.push((tag, clock));
    } else {
        let victim = set
            .iter_mut()
            .min_by_key(|(_, last_use)| *last_use)
            .expect("full set is non-empty");
        *victim = (tag, clock);
    }
    false
}

/// A block-number stream that mixes set-conflict storms, a working set
/// about twice the capacity, immediate re-references and sequential runs,
/// so every stream exercises hits at every LRU depth and evictions.
struct Stream {
    rng: SimRng,
    sets: u64,
    ways: u64,
    recent: [u64; 8],
    prev: u64,
}

impl Stream {
    fn new(label: &str, sets: u64, ways: u64) -> Self {
        Stream {
            rng: SimRng::seed_from_parts(&["lru_equiv", label], 0),
            sets,
            ways,
            recent: [0; 8],
            prev: 0,
        }
    }

    fn next_block(&mut self) -> u64 {
        let r = &mut self.rng;
        let block = match r.below(10) {
            // Conflicts: a few sets, a little more than `ways` tags each.
            0..=3 => r.below(self.sets.min(4)) + self.sets * r.below(self.ways + 2),
            4..=6 => r.below(2 * self.sets * self.ways),
            7 | 8 => self.recent[r.below(8) as usize],
            _ => self.prev + 1,
        };
        self.recent[(block % 8) as usize] = block;
        self.prev = block;
        block
    }

    /// An address inside `block` of `bytes`-sized blocks.
    fn addr(&mut self, block: u64, bytes: u64) -> Addr {
        Addr::new(block * bytes + self.rng.below(bytes))
    }
}

fn check_cache(label: &str, config: CacheConfig, accesses: u64) {
    let mut model = Cache::new(config);
    let mut oracle = OracleCache::new(config);
    let mut s = Stream::new(label, config.sets(), config.ways as u64);
    let mut hits = 0u64;
    for i in 0..accesses {
        let block = s.next_block();
        let addr = s.addr(block, config.line);
        let kind = if s.rng.chance(0.3) {
            AccessKind::Store
        } else {
            AccessKind::Load
        };
        let hit = oracle.access(addr, kind);
        assert_eq!(model.access(addr, kind), hit, "{label}: access {i} {addr}");
        hits += hit as u64;

        let probe_block = s.next_block();
        let probe = s.addr(probe_block, config.line);
        assert_eq!(
            model.contains(probe),
            oracle.contains(probe),
            "{label}: contains({probe}) after access {i}"
        );
        match s.rng.below(1000) {
            0 => {
                model.flush();
                oracle.flush();
            }
            1 => {
                model.reset_counters();
                oracle.counters = CacheCounters::new();
            }
            _ => {}
        }
        if i % 64 == 0 {
            assert_eq!(model.counters(), oracle.counters, "{label}: at {i}");
            assert_eq!(model.resident_lines(), oracle.resident_lines(), "{label}");
        }
    }
    assert_eq!(model.counters(), oracle.counters, "{label}: final");
    assert_eq!(model.resident_lines(), oracle.resident_lines(), "{label}");
    let misses = accesses - hits;
    assert!(
        hits > accesses / 10 && misses > accesses / 10,
        "{label}: stream too one-sided ({hits} hits, {misses} misses)"
    );
}

fn check_tlb(label: &str, config: TlbConfig, accesses: u64) {
    let mut model = Tlb::new(config);
    let mut oracle = OracleTlb::new(config);
    let sets = (config.entries / config.ways) as u64;
    let mut s = Stream::new(label, sets, config.ways as u64);
    for i in 0..accesses {
        let block = s.next_block();
        let addr = s.addr(block, config.page_bytes);
        assert_eq!(
            model.access(addr),
            oracle.access(addr),
            "{label}: {i} {addr}"
        );
        if s.rng.below(500) == 0 {
            model.reset();
            oracle.reset();
        }
        assert_eq!(
            (model.hits(), model.misses()),
            (oracle.hits, oracle.misses),
            "{label}: counts at {i}"
        );
    }
    assert!(
        oracle.hits > 0 && oracle.misses > 0,
        "{label}: stream too one-sided"
    );
    assert_eq!(
        model.walk_cycles(),
        oracle.misses as f64 * config.walk_cycles
    );
}

#[test]
fn direct_mapped_cache_matches_oracle() {
    check_cache("1way", CacheConfig::new(32 * 64, 64, 1), 20_000);
}

#[test]
fn fully_associative_cache_matches_oracle() {
    check_cache("one_set", CacheConfig::new(16 * 128, 128, 16), 20_000);
}

#[test]
fn a100_l2_geometry_matches_oracle() {
    // 40 MiB, 128 B lines, 16 ways: 20 480 sets, not a power of two.
    let config = CacheConfig::new(40 << 20, 128, 16);
    assert_eq!(config.sets(), 20_480);
    check_cache("a100_l2", config, 40_000);
}

#[test]
fn a100_l1_geometry_matches_oracle() {
    // The default carveout's 160 KiB L1: 320 sets of 4 ways.
    check_cache("a100_l1", CacheConfig::new(160 * 1024, 128, 4), 40_000);
}

#[test]
fn line_sizes_32_to_128_match_oracle() {
    // Six sets each: non-power-of-two set counts at every line size.
    for (line, ways) in [(32, 2), (64, 4), (128, 8)] {
        let config = CacheConfig::new(6 * line * ways, line, ways as u32);
        check_cache(&format!("line{line}"), config, 20_000);
    }
}

#[test]
fn tlb_geometries_match_oracle() {
    let tlb = |page_bytes, entries, ways| TlbConfig {
        page_bytes,
        entries,
        ways,
        walk_cycles: 600.0,
    };
    check_tlb("tlb_a100", TlbConfig::a100_uvm(), 20_000);
    check_tlb("tlb_1way", tlb(4096, 16, 1), 20_000);
    check_tlb("tlb_one_set", tlb(64 * 1024, 32, 32), 20_000);
    check_tlb("tlb_6_sets", tlb(2 << 20, 24, 4), 20_000);
}
