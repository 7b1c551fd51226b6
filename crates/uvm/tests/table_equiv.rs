//! Model-based equivalence test: the dense-region, stamp-LRU
//! [`PageTable`] must be observationally indistinguishable from a
//! map-based reference implementation (`HashMap` state +
//! `BTreeSet<(last_use, chunk)>` LRU index) on random operation
//! sequences — range registration over overlaps and gaps, the refault bit
//! through eviction, displacement, free and re-allocation, and the exact
//! LRU eviction order, including under churn long enough for the lazily
//! built eviction queue to compact. Driven by the engine's deterministic
//! [`SimRng`] (no external test dependencies).

use hetsim_engine::rng::SimRng;
use hetsim_uvm::page::ChunkId;
use hetsim_uvm::table::{Access, PageTable};
use std::collections::{BTreeSet, HashMap};

/// Reference per-chunk state.
#[derive(Clone, Copy)]
struct ModelSlot {
    resident: bool,
    dirty: bool,
    /// Evicted or displaced since registration.
    left: bool,
    last_use: u64,
}

/// The reference implementation: per-chunk state in a `HashMap`, LRU as
/// an ordered `(last_use, chunk)` set.
#[derive(Default)]
struct ModelTable {
    chunks: HashMap<ChunkId, ModelSlot>,
    lru: BTreeSet<(u64, ChunkId)>,
    clock: u64,
}

impl ModelTable {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn register_range(&mut self, first: u64, count: u64) -> u64 {
        let mut was_resident = 0;
        for i in first..first + count {
            let fresh = ModelSlot {
                resident: false,
                dirty: false,
                left: false,
                last_use: 0,
            };
            if let Some(old) = self.chunks.insert(ChunkId::new(i), fresh) {
                if old.resident {
                    self.lru.remove(&(old.last_use, ChunkId::new(i)));
                    was_resident += 1;
                }
            }
        }
        was_resident
    }

    fn is_managed(&self, chunk: ChunkId) -> bool {
        self.chunks.contains_key(&chunk)
    }

    fn is_resident(&self, chunk: ChunkId) -> bool {
        self.chunks.get(&chunk).is_some_and(|s| s.resident)
    }

    fn has_left_device(&self, chunk: ChunkId) -> bool {
        self.chunks.get(&chunk).is_some_and(|s| s.left)
    }

    fn access(&mut self, chunk: ChunkId, write: bool) -> Access {
        let now = self.tick();
        let s = self.chunks.get_mut(&chunk).expect("model: unmanaged");
        s.dirty |= write;
        if !s.resident {
            return Access::Fault { refault: s.left };
        }
        self.lru.remove(&(s.last_use, chunk));
        s.last_use = now;
        self.lru.insert((now, chunk));
        Access::Hit
    }

    fn make_resident(&mut self, chunk: ChunkId) {
        let now = self.tick();
        let s = self.chunks.get_mut(&chunk).expect("model: unmanaged");
        if s.resident {
            self.lru.remove(&(s.last_use, chunk));
        }
        s.resident = true;
        s.last_use = now;
        self.lru.insert((now, chunk));
    }

    fn send_home(&mut self, chunk: ChunkId) -> bool {
        let s = self.chunks.get_mut(&chunk).expect("model: unmanaged");
        self.lru.remove(&(s.last_use, chunk));
        let dirty = s.dirty;
        s.resident = false;
        s.dirty = false;
        s.left = true;
        dirty
    }

    fn evict_lru(&mut self) -> Option<(ChunkId, bool)> {
        let &(_, victim) = self.lru.iter().next()?;
        Some((victim, self.send_home(victim)))
    }

    fn displace(&mut self, chunk: ChunkId) -> bool {
        if !self.is_resident(chunk) {
            return false;
        }
        self.send_home(chunk);
        true
    }

    fn resident_in(&self, first: u64, count: u64) -> u64 {
        (first..first + count)
            .filter(|&i| self.is_resident(ChunkId::new(i)))
            .count() as u64
    }

    fn clean_range(&mut self, first: u64, count: u64) -> u64 {
        let mut cleaned = 0;
        for i in first..first + count {
            if let Some(s) = self.chunks.get_mut(&ChunkId::new(i)) {
                if s.resident && s.dirty {
                    s.dirty = false;
                    cleaned += 1;
                }
            }
        }
        cleaned
    }

    fn unregister_range(&mut self, first: u64, count: u64) -> (u64, u64) {
        let (mut resident, mut dirty) = (0, 0);
        for i in first..first + count {
            if let Some(s) = self.chunks.remove(&ChunkId::new(i)) {
                if s.resident {
                    self.lru.remove(&(s.last_use, ChunkId::new(i)));
                    resident += 1;
                    dirty += s.dirty as u64;
                }
            }
        }
        (resident, dirty)
    }

    fn dirty_resident(&self) -> Vec<ChunkId> {
        let mut v: Vec<ChunkId> = self
            .chunks
            .iter()
            .filter(|(_, s)| s.resident && s.dirty)
            .map(|(&c, _)| c)
            .collect();
        v.sort_unstable();
        v
    }
}

/// Two managed buffers far apart in the address space, mirroring how the
/// runtime lays buffers out at `(i + 1) << 42`.
const BUFFERS: [(u64, u64); 2] = [(16, 24), (1 << 26, 24)];

/// Every chunk the random operations can name: each buffer plus a margin
/// on both sides, so registrations overlap, extend and leave gaps.
fn universe() -> Vec<ChunkId> {
    BUFFERS
        .iter()
        .flat_map(|&(start, len)| (start - 8..start + len + 8).map(ChunkId::new))
        .collect()
}

/// A random sub-range around one buffer: it may start before the buffer,
/// end past it, or lie inside it.
fn random_range(rng: &mut SimRng) -> (u64, u64) {
    let (start, len) = BUFFERS[rng.below(BUFFERS.len() as u64) as usize];
    let first = start - 6 + rng.below(len + 6);
    (first, 1 + rng.below(20))
}

fn assert_same_observations(real: &PageTable, model: &ModelTable, universe: &[ChunkId], step: u64) {
    assert_eq!(
        real.managed_count(),
        model.chunks.len(),
        "managed_count @ step {step}"
    );
    assert_eq!(
        real.resident_count(),
        model.lru.len(),
        "resident_count @ step {step}"
    );
    assert_eq!(
        real.dirty_resident(),
        model.dirty_resident(),
        "dirty_resident @ step {step}"
    );
    for &c in universe {
        assert_eq!(
            real.is_managed(c),
            model.is_managed(c),
            "is_managed({c}) @ step {step}"
        );
        assert_eq!(
            real.is_resident(c),
            model.is_resident(c),
            "is_resident({c}) @ step {step}"
        );
        assert_eq!(
            real.has_left_device(c),
            model.has_left_device(c),
            "has_left_device({c}) @ step {step}"
        );
    }
    for &(start, len) in &BUFFERS {
        assert_eq!(
            real.resident_in(ChunkId::new(start - 8), len + 16),
            model.resident_in(start - 8, len + 16),
            "resident_in @ step {step}"
        );
    }
}

/// Random register/access/make_resident/evict/displace/clean/unregister
/// sequences produce identical observable behaviour — including the exact
/// LRU eviction order — on the dense table and the map-based model.
#[test]
fn dense_table_matches_map_model_on_random_sequences() {
    let universe = universe();
    for case in 0..32u64 {
        let mut rng = SimRng::seed_from_parts(&["table_equiv", "ops"], case);
        let mut real = PageTable::new();
        let mut model = ModelTable::default();
        // Start from the registered buffers so access/make_resident have
        // targets; later ops re-register and unregister freely.
        for &(start, len) in &BUFFERS {
            assert_eq!(
                real.register_range(ChunkId::new(start), len),
                model.register_range(start, len)
            );
        }
        for step in 0..400u64 {
            let c = universe[rng.below(universe.len() as u64) as usize];
            match rng.below(14) {
                0 => {
                    let (first, count) = random_range(&mut rng);
                    assert_eq!(
                        real.register_range(ChunkId::new(first), count),
                        model.register_range(first, count),
                        "register_range({first}, {count}) @ step {step} case {case}"
                    );
                }
                1..=3 => {
                    // Access only what is managed (unmanaged accesses
                    // panic by contract, identically on both).
                    if model.is_managed(c) {
                        let write = rng.chance(0.5);
                        assert_eq!(
                            real.access(c, write),
                            model.access(c, write),
                            "access({c}) @ step {step} case {case}"
                        );
                    }
                }
                4..=6 => {
                    if model.is_managed(c) {
                        real.make_resident(c);
                        model.make_resident(c);
                    }
                }
                7..=8 => {
                    assert_eq!(
                        real.evict_lru(),
                        model.evict_lru(),
                        "evict order @ step {step} case {case}"
                    );
                }
                9 => {
                    assert_eq!(
                        real.displace(c),
                        model.displace(c),
                        "displace({c}) @ step {step} case {case}"
                    );
                }
                10 => {
                    let (first, count) = random_range(&mut rng);
                    assert_eq!(
                        real.clean_range(ChunkId::new(first), count),
                        model.clean_range(first, count),
                        "clean_range @ step {step} case {case}"
                    );
                }
                11 => {
                    let (first, count) = random_range(&mut rng);
                    assert_eq!(
                        real.unregister_range(ChunkId::new(first), count),
                        model.unregister_range(first, count),
                        "unregister_range @ step {step} case {case}"
                    );
                }
                _ => {
                    assert_eq!(
                        real.unregister_range(c, 1),
                        model.unregister_range(c.index(), 1),
                        "unregister({c}) @ step {step} case {case}"
                    );
                }
            }
            assert_same_observations(&real, &model, &universe, step);
        }
        // Drain: the full eviction order must match to the end.
        loop {
            let (a, b) = (real.evict_lru(), model.evict_lru());
            assert_eq!(a, b, "drain order, case {case}");
            if a.is_none() {
                break;
            }
        }
    }
}

/// A device of `CAPACITY` chunks under a skewed re-touch stream, driven
/// the way `UvmSpace` drives the table (evict before a fault makes room).
/// Every eviction, refault flag and dirty bit must match the model across
/// tens of thousands of steps: long hit-only phases refresh far more
/// stamps than the queue tolerates stale, so it compacts many times, and
/// re-allocations mid-stream force it to be rebuilt from stamps.
#[test]
fn eviction_order_matches_model_under_heavy_churn() {
    const CAPACITY: usize = 48;
    const CHUNKS: u64 = 160;
    const BASE: u64 = 1 << 20;
    for case in 0..4u64 {
        let mut rng = SimRng::seed_from_parts(&["table_equiv", "churn"], case);
        let mut real = PageTable::new();
        let mut model = ModelTable::default();
        real.register_range(ChunkId::new(BASE), CHUNKS);
        model.register_range(BASE, CHUNKS);
        let mut evictions = 0u64;
        for step in 0..40_000u64 {
            if step % 9_000 == 8_999 {
                // Re-allocate a small buffer: adjacent to the first one
                // (its region grows) or in front of it (a new region that
                // shifts the first one's index, after which the queue is
                // rebuilt from stamps).
                let first = if case % 2 == 0 { BASE + CHUNKS } else { 0 };
                assert_eq!(
                    real.register_range(ChunkId::new(first), 8),
                    model.register_range(first, 8)
                );
            }
            // Churn phases mix a hot set of 32 chunks with a cold sweep;
            // hit-only phases re-touch the hot set while the cold chunks
            // stay resident untouched, so stale queue entries pile up
            // behind them until the queue compacts.
            let churn = (step / 2_500) % 2 == 0;
            let c = if !churn || rng.chance(0.8) {
                ChunkId::new(BASE + rng.below(32))
            } else {
                ChunkId::new(BASE + rng.below(CHUNKS))
            };
            let write = rng.chance(0.3);
            let got = real.access(c, write);
            assert_eq!(got, model.access(c, write), "access({c}) @ step {step}");
            if let Access::Fault { .. } = got {
                while real.resident_count() >= CAPACITY {
                    let victim = real.evict_lru();
                    assert_eq!(victim, model.evict_lru(), "victim @ step {step}");
                    evictions += 1;
                }
                real.make_resident(c);
                model.make_resident(c);
            }
            if step % 1_000 == 0 {
                assert_eq!(real.dirty_resident(), model.dirty_resident());
                assert_eq!(real.resident_count(), model.lru.len());
            }
        }
        assert!(evictions > 1_000, "churn must evict: {evictions}");
    }
}
