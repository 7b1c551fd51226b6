//! The device-side page table with chunk-granular residency and LRU
//! eviction.
//!
//! GPUs keep "a copy of the CPU virtual memory physical memory mapping" when
//! UVM is in use (§2.1); the simulator reduces that to the single question
//! the timing model needs: *is this chunk resident on the device right now?*
//!
//! Managed allocations register dense runs of chunk ids (one contiguous
//! range per buffer), so the table stores per-chunk state in dense
//! [`Vec`]-backed *regions* instead of a hash map: registering a buffer is
//! one region push, and a lookup is a check of the last region hit plus,
//! on a miss, a binary search over the handful of regions (one per buffer).
//!
//! Each slot carries everything the fault path asks about a chunk — its
//! residency, dirty bit, and *refault* bit (the chunk has left the device
//! since it was registered) — so [`PageTable::access`] answers a touch with
//! one lookup. LRU order is a per-slot use stamp from a table-wide clock:
//! a hit only rewrites the stamp. The eviction queue of `(stamp, slot)`
//! pairs is built at the first eviction, from then on takes one push per
//! stamp change (the clock only grows, so pushes keep it sorted), skips
//! entries whose slot has moved on since, and is compacted when those
//! stale entries outnumber the live ones. The victim is always the
//! resident slot with the minimum stamp, so eviction order is exactly LRU.
//! Streams that never evict — the common case — never build the queue.

use crate::page::ChunkId;
use std::collections::VecDeque;

/// Reference to one slot: region index + chunk offset within the region.
/// Eviction and residency changes never move a slot, so a reference stays
/// valid until the next [`PageTable::register_range`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SlotRef {
    region: u32,
    offset: u32,
}

/// Per-chunk page-table state.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// While device-resident, the clock value of the last use; once the
    /// chunk has been evicted or displaced, the clock value of its
    /// departure (see [`PageTable::off_device_since`]).
    stamp: u64,
    managed: bool,
    resident: bool,
    dirty: bool,
    /// The chunk has left the device (eviction or displacement) since it
    /// was registered: a fault on it is a refault.
    left: bool,
}

impl Slot {
    const FRESH: Slot = Slot {
        stamp: 0,
        managed: true,
        resident: false,
        dirty: false,
        left: false,
    };
}

/// One dense run of chunk ids starting at `start`.
#[derive(Debug, Clone)]
struct Region {
    start: u64,
    slots: Vec<Slot>,
}

impl Region {
    fn end(&self) -> u64 {
        self.start + self.slots.len() as u64
    }

    /// The slot index of `idx` if this region holds it.
    fn offset_of(&self, idx: u64) -> Option<u32> {
        let off = idx.checked_sub(self.start)?;
        (off < self.slots.len() as u64).then_some(off as u32)
    }

    /// The slot index range of `[lo, hi)` clipped to this region.
    fn clip(&self, lo: u64, hi: u64) -> std::ops::Range<usize> {
        let len = self.slots.len() as u64;
        let a = lo.saturating_sub(self.start).min(len);
        let b = hi.saturating_sub(self.start).min(len);
        a as usize..b as usize
    }
}

/// What [`PageTable::access`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// The chunk is device-resident; its LRU stamp was refreshed.
    Hit,
    /// The chunk is host-resident, so the access far-faults.
    Fault {
        /// The chunk has been evicted or displaced since it was
        /// registered: the fault is a refault (thrashing).
        refault: bool,
    },
}

/// Stale eviction-queue entries tolerated beyond twice the resident count
/// before the queue is compacted.
const QUEUE_SLACK: usize = 1024;

/// The device page table for one managed address space.
#[derive(Debug, Clone, Default)]
pub struct PageTable {
    /// Dense chunk-state regions, sorted by `start`, non-overlapping.
    regions: Vec<Region>,
    /// Region of the most recent fault-path lookup: touch streams stay
    /// within one buffer for long stretches.
    last: usize,
    /// LRU clock; every stamp change takes the next value, so stamps are
    /// unique.
    clock: u64,
    /// `(stamp, slot)` in ascending stamp order, built at the first
    /// eviction. An entry is live while its slot is resident with that
    /// stamp.
    queue: Option<VecDeque<(u64, SlotRef)>>,
    managed: usize,
    resident: usize,
}

impl PageTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        PageTable::default()
    }

    /// The region containing chunk index `idx`, if any — a binary search
    /// over the per-buffer regions (a handful), not the chunks.
    fn find(&self, idx: u64) -> Option<SlotRef> {
        let r = self
            .regions
            .partition_point(|r| r.start <= idx)
            .checked_sub(1)?;
        let offset = self.regions[r].offset_of(idx)?;
        Some(SlotRef {
            region: r as u32,
            offset,
        })
    }

    /// [`PageTable::find`], trying the last region hit first.
    fn lookup(&mut self, idx: u64) -> Option<SlotRef> {
        if let Some(offset) = self.regions.get(self.last).and_then(|r| r.offset_of(idx)) {
            return Some(SlotRef {
                region: self.last as u32,
                offset,
            });
        }
        let r = self.find(idx)?;
        self.last = r.region as usize;
        Some(r)
    }

    fn slot(&self, r: SlotRef) -> &Slot {
        &self.regions[r.region as usize].slots[r.offset as usize]
    }

    fn slot_mut(&mut self, r: SlotRef) -> &mut Slot {
        &mut self.regions[r.region as usize].slots[r.offset as usize]
    }

    fn managed_slot(&self, chunk: ChunkId) -> Option<&Slot> {
        self.find(chunk.index())
            .map(|r| self.slot(r))
            .filter(|s| s.managed)
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Whether a queue entry still names the slot's current LRU position.
    fn is_live(regions: &[Region], stamp: u64, r: SlotRef) -> bool {
        let s = &regions[r.region as usize].slots[r.offset as usize];
        s.managed && s.resident && s.stamp == stamp
    }

    /// Gives a resident slot a fresh LRU stamp.
    fn restamp(&mut self, r: SlotRef) {
        let stamp = self.tick();
        self.slot_mut(r).stamp = stamp;
        if let Some(q) = &mut self.queue {
            q.push_back((stamp, r));
            if q.len() > 2 * self.resident + QUEUE_SLACK {
                let regions = &self.regions;
                q.retain(|&(s, r)| Self::is_live(regions, s, r));
            }
        }
    }

    /// Registers `count` chunks starting at `first` as managed and
    /// host-resident, returning how many of them were device-resident
    /// before (address reuse resets them).
    ///
    /// Chunks already in the table are reset in place; the rest extend an
    /// adjacent region or become one new region.
    pub fn register_range(&mut self, first: ChunkId, count: u64) -> u64 {
        let (lo, hi) = (first.index(), first.index() + count);
        let mut i = self.regions.partition_point(|r| r.end() <= lo);
        let mut cursor = lo;
        let mut was_resident = 0u64;
        while cursor < hi {
            if i < self.regions.len() && self.regions[i].start <= cursor {
                let region = &mut self.regions[i];
                let end = region.end().min(hi);
                let range = region.clip(cursor, end);
                for s in &mut region.slots[range] {
                    if s.managed {
                        self.managed -= 1;
                    }
                    if s.resident {
                        was_resident += 1;
                    }
                    *s = Slot::FRESH;
                }
                cursor = end;
                i += 1;
            } else {
                let end = self.regions.get(i).map_or(hi, |r| r.start.min(hi));
                let fresh = std::iter::repeat_n(Slot::FRESH, (end - cursor) as usize);
                if i > 0 && self.regions[i - 1].end() == cursor {
                    self.regions[i - 1].slots.extend(fresh);
                } else {
                    self.regions.insert(
                        i,
                        Region {
                            start: cursor,
                            slots: fresh.collect(),
                        },
                    );
                    // Region indices past `i` shifted under the queue's
                    // slot refs; the next eviction rebuilds it from stamps.
                    self.queue = None;
                    i += 1;
                }
                cursor = end;
            }
        }
        self.managed += count as usize;
        self.resident -= was_resident as usize;
        was_resident
    }

    /// Whether the chunk is registered at all.
    pub fn is_managed(&self, chunk: ChunkId) -> bool {
        self.managed_slot(chunk).is_some()
    }

    /// Whether the chunk is resident on the device.
    pub fn is_resident(&self, chunk: ChunkId) -> bool {
        self.managed_slot(chunk).is_some_and(|s| s.resident)
    }

    /// Whether the chunk has been evicted or displaced since it was
    /// registered (a fault on it would be a refault).
    pub fn has_left_device(&self, chunk: ChunkId) -> bool {
        self.managed_slot(chunk).is_some_and(|s| s.left)
    }

    /// The LRU clock: grows by one at every use stamp, eviction and
    /// displacement.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Whether `chunk` was off the device at clock value `since`: it is
    /// not resident now and has not been evicted or displaced after
    /// `since`. Unmanaged chunks count as off the device.
    ///
    /// Range walks that make chunks resident (and so may evict others of
    /// the same range) use this to decide on the range's state at the
    /// start of the walk.
    pub fn off_device_since(&self, chunk: ChunkId, since: u64) -> bool {
        self.managed_slot(chunk)
            .is_none_or(|s| !s.resident && s.stamp <= since)
    }

    /// Records a device access: refreshes the LRU stamp of a resident
    /// chunk and marks the chunk dirty for writes. A host-resident chunk
    /// is only marked dirty; the caller services the fault
    /// ([`PageTable::make_resident`]).
    ///
    /// # Panics
    ///
    /// Panics if the chunk is not managed — touching unmanaged memory is a
    /// simulator bug, the analogue of a real segfault.
    pub fn access(&mut self, chunk: ChunkId, write: bool) -> Access {
        self.access_slot(chunk, write).1
    }

    /// [`PageTable::access`], also returning the chunk's slot so that a
    /// fault is serviced ([`PageTable::make_resident_at`]) without a second
    /// lookup.
    #[inline]
    pub(crate) fn access_slot(&mut self, chunk: ChunkId, write: bool) -> (SlotRef, Access) {
        let r = self
            .lookup(chunk.index())
            .filter(|&r| self.slot(r).managed)
            .expect("touched unmanaged chunk");
        let s = self.slot_mut(r);
        s.dirty |= write;
        if !s.resident {
            return (r, Access::Fault { refault: s.left });
        }
        self.restamp(r);
        (r, Access::Hit)
    }

    /// The slot of `chunk` if it is managed and host-resident (a touch
    /// would fault on it), for [`PageTable::make_resident_at`].
    pub(crate) fn host_resident_slot(&mut self, chunk: ChunkId) -> Option<SlotRef> {
        self.lookup(chunk.index()).filter(|&r| {
            let s = self.slot(r);
            s.managed && !s.resident
        })
    }

    /// Marks a chunk device-resident (after migration or prefetch) and
    /// most recently used.
    ///
    /// # Panics
    ///
    /// Panics if the chunk is not managed.
    pub fn make_resident(&mut self, chunk: ChunkId) {
        let r = self
            .lookup(chunk.index())
            .filter(|&r| self.slot(r).managed)
            .expect("made unmanaged chunk resident");
        self.make_resident_at(r);
    }

    /// [`PageTable::make_resident`] for a managed slot already looked up.
    pub(crate) fn make_resident_at(&mut self, r: SlotRef) {
        let s = self.slot_mut(r);
        if !s.resident {
            s.resident = true;
            self.resident += 1;
        }
        self.restamp(r);
    }

    /// Sends a resident chunk back to the host: clears residency and the
    /// dirty bit, sets the refault bit, and stamps the departure.
    fn send_home(&mut self, r: SlotRef) -> bool {
        let stamp = self.tick();
        let s = self.slot_mut(r);
        let dirty = s.dirty;
        s.resident = false;
        s.dirty = false;
        s.left = true;
        s.stamp = stamp;
        self.resident -= 1;
        dirty
    }

    /// Evicts the least-recently-used device-resident chunk back to the
    /// host, returning `(chunk, was_dirty)`; `None` if nothing is resident.
    pub fn evict_lru(&mut self) -> Option<(ChunkId, bool)> {
        if self.resident == 0 {
            return None;
        }
        let regions = &self.regions;
        let q = self.queue.get_or_insert_with(|| {
            let mut live: Vec<(u64, SlotRef)> = Vec::with_capacity(self.resident);
            for (ri, region) in regions.iter().enumerate() {
                for (off, s) in region.slots.iter().enumerate() {
                    if s.managed && s.resident {
                        let r = SlotRef {
                            region: ri as u32,
                            offset: off as u32,
                        };
                        live.push((s.stamp, r));
                    }
                }
            }
            live.sort_unstable_by_key(|&(stamp, _)| stamp);
            live.into()
        });
        let victim = loop {
            let (stamp, r) = q.pop_front().expect("every resident slot is queued");
            if Self::is_live(regions, stamp, r) {
                break r;
            }
        };
        let dirty = self.send_home(victim);
        let chunk = ChunkId::new(self.regions[victim.region as usize].start + victim.offset as u64);
        Some((chunk, dirty))
    }

    /// Displaces a resident chunk back to the host without writeback,
    /// exactly as an eviction would; returns whether it was resident.
    pub fn displace(&mut self, chunk: ChunkId) -> bool {
        match self.find(chunk.index()) {
            Some(r) if self.slot(r).managed && self.slot(r).resident => {
                self.send_home(r);
                true
            }
            _ => false,
        }
    }

    /// The managed slots of `[first, first + count)`, in chunk order.
    fn slots_in(&self, first: ChunkId, count: u64) -> impl Iterator<Item = &Slot> {
        let (lo, hi) = (first.index(), first.index() + count);
        let from = self.regions.partition_point(|r| r.end() <= lo);
        self.regions[from..]
            .iter()
            .take_while(move |r| r.start < hi)
            .flat_map(move |r| r.slots[r.clip(lo, hi)].iter())
            .filter(|s| s.managed)
    }

    /// Applies `f` to every managed slot of `[first, first + count)`.
    fn for_each_in(&mut self, first: ChunkId, count: u64, mut f: impl FnMut(&mut Slot)) {
        let (lo, hi) = (first.index(), first.index() + count);
        let from = self.regions.partition_point(|r| r.end() <= lo);
        for r in self.regions[from..].iter_mut().take_while(|r| r.start < hi) {
            let range = r.clip(lo, hi);
            r.slots[range]
                .iter_mut()
                .filter(|s| s.managed)
                .for_each(&mut f);
        }
    }

    /// Number of device-resident chunks in `[first, first + count)`.
    pub fn resident_in(&self, first: ChunkId, count: u64) -> u64 {
        self.slots_in(first, count).filter(|s| s.resident).count() as u64
    }

    /// Clears the dirty bit of every dirty device-resident chunk in
    /// `[first, first + count)` (a writeback; residency is kept),
    /// returning how many there were.
    pub fn clean_range(&mut self, first: ChunkId, count: u64) -> u64 {
        let mut cleaned = 0u64;
        self.for_each_in(first, count, |s| {
            if s.resident && s.dirty {
                s.dirty = false;
                cleaned += 1;
            }
        });
        cleaned
    }

    /// Unregisters `[first, first + count)` (free), returning
    /// `(resident, dirty)`: how many of its chunks were device-resident,
    /// and how many of those were dirty (need writeback).
    pub fn unregister_range(&mut self, first: ChunkId, count: u64) -> (u64, u64) {
        let (mut managed, mut resident, mut dirty) = (0u64, 0u64, 0u64);
        self.for_each_in(first, count, |s| {
            managed += 1;
            if s.resident {
                resident += 1;
                dirty += s.dirty as u64;
            }
            *s = Slot {
                managed: false,
                ..Slot::FRESH
            };
        });
        self.managed -= managed as usize;
        self.resident -= resident as usize;
        (resident, dirty)
    }

    /// Number of managed chunks.
    pub fn managed_count(&self) -> usize {
        self.managed
    }

    /// Number of device-resident chunks.
    pub fn resident_count(&self) -> usize {
        self.resident
    }

    /// Chunks that are both device-resident and dirty, in ascending chunk
    /// order (regions are sorted and dense, so the scan is already sorted).
    pub fn dirty_resident(&self) -> Vec<ChunkId> {
        let mut v = Vec::new();
        for region in &self.regions {
            for (off, s) in region.slots.iter().enumerate() {
                if s.managed && s.resident && s.dirty {
                    v.push(ChunkId::new(region.start + off as u64));
                }
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: u64) -> ChunkId {
        ChunkId::new(i)
    }

    #[test]
    fn register_starts_host_resident() {
        let mut t = PageTable::new();
        t.register_range(c(0), 1);
        assert!(t.is_managed(c(0)));
        assert!(!t.is_resident(c(0)));
        assert_eq!(t.managed_count(), 1);
        assert_eq!(t.resident_count(), 0);
    }

    #[test]
    fn migration_flow() {
        let mut t = PageTable::new();
        t.register_range(c(1), 1);
        assert_eq!(t.access(c(1), false), Access::Fault { refault: false });
        t.make_resident(c(1));
        assert!(t.is_resident(c(1)));
        assert_eq!(t.access(c(1), false), Access::Hit);
        assert_eq!(t.resident_count(), 1);
    }

    #[test]
    fn access_marks_dirty() {
        let mut t = PageTable::new();
        t.register_range(c(2), 1);
        t.make_resident(c(2));
        t.access(c(2), false);
        assert!(t.dirty_resident().is_empty());
        t.access(c(2), true);
        assert_eq!(t.dirty_resident(), vec![c(2)]);
        assert_eq!(t.clean_range(c(0), 4), 1);
        assert!(t.dirty_resident().is_empty());
    }

    #[test]
    fn evict_lru_picks_oldest() {
        let mut t = PageTable::new();
        t.register_range(c(0), 3);
        for i in 0..3 {
            t.make_resident(c(i));
        }
        t.access(c(0), false); // refresh chunk 0: chunk 1 is now LRU
        let (victim, dirty) = t.evict_lru().unwrap();
        assert_eq!(victim, c(1));
        assert!(!dirty);
        assert!(!t.is_resident(c(1)));
        assert!(t.is_managed(c(1)), "eviction keeps the mapping");
        assert!(t.has_left_device(c(1)));
        assert_eq!(t.access(c(1), false), Access::Fault { refault: true });
    }

    #[test]
    fn evict_reports_dirty() {
        let mut t = PageTable::new();
        t.register_range(c(0), 1);
        t.make_resident(c(0));
        t.access(c(0), true);
        let (_, dirty) = t.evict_lru().unwrap();
        assert!(dirty);
        assert_eq!(t.evict_lru(), None, "nothing left resident");
    }

    #[test]
    fn unregister_reports_writeback_need() {
        let mut t = PageTable::new();
        t.register_range(c(0), 1);
        t.make_resident(c(0));
        t.access(c(0), true);
        assert_eq!(t.unregister_range(c(0), 1), (1, 1));
        assert_eq!(
            t.unregister_range(c(0), 1),
            (0, 0),
            "double free is a no-op"
        );
        assert_eq!(t.managed_count(), 0);
        assert_eq!(t.resident_count(), 0);
    }

    #[test]
    fn reregister_resets_state() {
        let mut t = PageTable::new();
        t.register_range(c(0), 1);
        t.make_resident(c(0));
        t.access(c(0), true);
        t.evict_lru();
        t.make_resident(c(0));
        assert_eq!(t.register_range(c(0), 1), 1, "one stale resident chunk");
        assert!(!t.is_resident(c(0)));
        assert!(
            !t.has_left_device(c(0)),
            "a fresh allocation never refaults"
        );
        assert!(t.dirty_resident().is_empty());
        assert_eq!(t.resident_count(), 0, "LRU index must forget the chunk");
        assert_eq!(t.evict_lru(), None);
    }

    #[test]
    fn lru_index_stays_consistent_under_churn() {
        let mut t = PageTable::new();
        t.register_range(c(0), 100);
        for i in 0..100 {
            t.make_resident(c(i));
        }
        for i in 0..100 {
            t.access(c(i % 7), i % 2 == 0);
        }
        let mut evicted = 0;
        while t.evict_lru().is_some() {
            evicted += 1;
        }
        assert_eq!(evicted, 100);
        assert_eq!(t.resident_count(), 0);
        assert_eq!(t.managed_count(), 100);
    }

    #[test]
    fn disjoint_regions_stay_independent() {
        // Two buffers far apart in the address space: two dense regions.
        let mut t = PageTable::new();
        t.register_range(c(0), 8);
        t.register_range(c(1 << 26), 8);
        assert_eq!(t.managed_count(), 16);
        assert!(t.is_managed(c(7)));
        assert!(t.is_managed(c((1 << 26) + 7)));
        assert!(!t.is_managed(c(8)));
        assert!(!t.is_managed(c((1 << 26) - 1)));
        t.make_resident(c(3));
        t.make_resident(c((1 << 26) + 5));
        assert_eq!(t.evict_lru().unwrap().0, c(3), "LRU order spans regions");
        assert_eq!(t.evict_lru().unwrap().0, c((1 << 26) + 5));
    }

    #[test]
    fn unregistered_slot_in_dense_region_acts_unmanaged() {
        let mut t = PageTable::new();
        t.register_range(c(0), 4);
        t.unregister_range(c(2), 1);
        assert!(!t.is_managed(c(2)));
        assert!(t.is_managed(c(1)) && t.is_managed(c(3)));
        // Re-registering the hole restores it without growing the count
        // past the dense range.
        t.register_range(c(2), 1);
        assert_eq!(t.managed_count(), 4);
    }

    #[test]
    fn overlapping_registration_fills_gaps_and_resets_overlap() {
        let mut t = PageTable::new();
        t.register_range(c(10), 5); // [10, 15)
        t.make_resident(c(12));
        // [8, 20) overlaps the front gap, the whole region, and a tail gap.
        assert_eq!(t.register_range(c(8), 12), 1);
        assert_eq!(t.managed_count(), 12);
        assert_eq!(t.resident_count(), 0);
        assert!((8..20).all(|i| t.is_managed(c(i))));
        assert!(!t.is_managed(c(7)) && !t.is_managed(c(20)));
    }

    #[test]
    fn displaced_chunks_refault_and_walks_see_the_start_state() {
        let mut t = PageTable::new();
        t.register_range(c(0), 4);
        t.make_resident(c(0));
        t.make_resident(c(1));
        let since = t.clock();
        assert!(t.displace(c(1)));
        assert!(!t.displace(c(2)), "host-resident chunks stay put");
        assert!(t.has_left_device(c(1)));
        assert!(!t.off_device_since(c(0), since), "resident");
        assert!(!t.off_device_since(c(1), since), "left after `since`");
        assert!(t.off_device_since(c(2), since));
        assert!(t.off_device_since(c(9), since), "unmanaged");
        assert_eq!(t.resident_in(c(0), 4), 1);
    }

    #[test]
    #[should_panic(expected = "unmanaged")]
    fn touching_unmanaged_panics() {
        let mut t = PageTable::new();
        t.access(c(9), false);
    }
}
