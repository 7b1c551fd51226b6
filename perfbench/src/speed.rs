//! Host-speed normalisation: every reported host time is in reference
//! seconds.
//!
//! On a shared machine the CPU time of a fixed piece of work drifts with
//! what the other tenants do: on a 2-vCPU Xeon VM the same deterministic
//! `sweep_cold` pass took between 2.2 and 4.8 s of thread CPU time within
//! minutes, and the median of one 30 s run moved by a fifth from one run to
//! the next. The thread clock leaves out the time the CPU is taken away,
//! but not the caches and memory bandwidth that neighbours share.
//!
//! So each workload interleaves probe rounds with its timed work: a fixed
//! replay of an address stream through a two-level set-associative LRU
//! cache model, the same kind of work as the gpu executor's cache replay,
//! written here so that no change to the library moves it. The ratio of
//! the probe's measured time to its reference time is the host's slowdown
//! over the run, and every host time is divided by it. A reference second
//! is what a second of host time is on a host that replays one probe round
//! in [`REFERENCE_ROUND_S`]; the same VM, unloaded, takes about that long.

use crate::report::{HostTimer, Metric};

/// Addresses replayed per probe round.
const ROUND_ACCESSES: u64 = 1_000_000;
/// The reference host time of one probe round.
pub const REFERENCE_ROUND_S: f64 = 0.05;

/// A set-associative LRU cache over line numbers; `sets * ways` entries of
/// `(tag, last use)`, with `len` filled ways per set.
struct Lru {
    ways: usize,
    tags: Vec<u64>,
    last: Vec<u64>,
    len: Vec<u8>,
}

impl Lru {
    fn new(sets: usize, ways: usize) -> Lru {
        Lru {
            ways,
            tags: vec![0; sets * ways],
            last: vec![0; sets * ways],
            len: vec![0; sets],
        }
    }

    /// Accesses `line` at time `clock`; returns `true` on a hit.
    fn access(&mut self, line: u64, clock: u64) -> bool {
        let sets = self.len.len() as u64;
        let set = (line % sets) as usize;
        let tag = line / sets;
        let base = set * self.ways;
        let filled = usize::from(self.len[set]);
        if let Some(w) = (base..base + filled).find(|&i| self.tags[i] == tag) {
            self.last[w] = clock;
            return true;
        }
        let way = if filled < self.ways {
            self.len[set] += 1;
            base + filled
        } else {
            (base..base + self.ways)
                .min_by_key(|&i| self.last[i])
                .expect("a set has at least one way")
        };
        self.tags[way] = tag;
        self.last[way] = clock;
        false
    }
}

/// One probe round: three quarters of the stream walk lines in order,
/// one quarter scatters over 2M lines; an L1 of 256 × 4 lines in front of
/// an L2 of 20480 × 16 (the A100's 40 MiB at 128-byte lines). Returns the
/// number of hits, which is the same on every round.
pub fn probe_round() -> u64 {
    let mut l1 = Lru::new(256, 4);
    let mut l2 = Lru::new(20_480, 16);
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut hits = 0;
    for clock in 1..=ROUND_ACCESSES {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let line = if x & 3 != 0 {
            clock / 2
        } else {
            (x >> 20) % 2_000_000
        };
        if l1.access(line, clock) || l2.access(line, clock) {
            hits += 1;
        }
    }
    hits
}

/// The probe rounds of one run and the host time they took.
#[derive(Debug, Default)]
pub struct HostSpeed {
    rounds: u64,
    secs: f64,
}

impl HostSpeed {
    pub fn new() -> HostSpeed {
        HostSpeed::default()
    }

    /// Replays `rounds` probe rounds; returns the host seconds they took,
    /// which the caller leaves out of its own timing.
    pub fn probe(&mut self, rounds: u32) -> f64 {
        let t0 = HostTimer::start();
        for _ in 0..rounds {
            std::hint::black_box(probe_round());
        }
        let secs = t0.secs();
        self.record(u64::from(rounds), secs);
        secs
    }

    fn record(&mut self, rounds: u64, secs: f64) {
        self.rounds += rounds;
        self.secs += secs;
    }

    /// Host seconds per reference second over every round so far: 1 on
    /// the reference host, above 1 while neighbours slow this one. 1 if
    /// nothing was probed.
    pub fn slowdown(&self) -> f64 {
        if self.rounds == 0 || self.secs <= 0.0 {
            return 1.0;
        }
        self.secs / (self.rounds as f64 * REFERENCE_ROUND_S)
    }

    /// Rescales every host-time metric to reference time: times (`s`,
    /// `ns`) are divided by the slowdown, rates (`1/s`) multiplied.
    /// Simulated metrics, counts and ratios are left alone.
    pub fn normalize(&self, metrics: &mut [Metric]) {
        let k = self.slowdown();
        for m in metrics {
            match m.unit {
                "s" | "ns" => m.value /= k,
                "1/s" => m.value *= k,
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_probe_round_does_the_same_work_every_time() {
        // Pinned: a change to the round changes the reference second.
        assert_eq!(probe_round(), 333_265);
        assert_eq!(probe_round(), probe_round());
    }

    #[test]
    fn the_lru_evicts_the_least_recently_used_way() {
        let mut c = Lru::new(1, 2);
        assert!(!c.access(1, 1));
        assert!(!c.access(2, 2));
        assert!(c.access(1, 3));
        assert!(!c.access(3, 4)); // evicts 2, the older
        assert!(c.access(1, 5));
        assert!(!c.access(2, 6));
    }

    #[test]
    fn times_and_rates_are_rescaled_by_the_slowdown() {
        let mut speed = HostSpeed::new();
        assert_eq!(speed.slowdown(), 1.0);
        // Four rounds that took twice their reference time.
        speed.record(4, 8.0 * REFERENCE_ROUND_S);
        assert!((speed.slowdown() - 2.0).abs() < 1e-12);
        let mut m = vec![
            Metric::new("setup_s", 3.0, "s"),
            Metric::new("gpu.ns_per_l1_access", 10.0, "ns"),
            Metric::new("cells_per_s", 5.0, "1/s"),
            Metric::new("sim_goodput_rps", 7.0, "1/sim_s"),
            Metric::new("serve.shed", 9.0, "count"),
            Metric::new("bench.trace_overhead_frac", 0.1, "ratio"),
        ];
        speed.normalize(&mut m);
        let values: Vec<f64> = m.iter().map(|m| m.value).collect();
        assert_eq!(values, [1.5, 5.0, 10.0, 7.0, 9.0, 0.1]);
    }
}
