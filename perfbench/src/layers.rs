//! Per-layer replay of a `(workload, mode)` grid for the traced run.
//!
//! The library records no timings of its own, so the traced run calls
//! each layer directly, once per grid cell and with the inputs the
//! runtime gives it, and times those calls:
//!
//! * `runtime.run_base` — a cold `Runner::run_base` (never memoized);
//! * `gpu.execute` — `KernelExecutor::execute` on each of the cell's
//!   kernels, in the mode's `KernelStyle` and execution environment;
//! * `uvm.touch` — the `UvmSpace` allocation, prefetch, touch and
//!   writeback calls a managed-memory cell makes;
//! * `runtime.noise` — `Runner::apply_noise` once per run of the cell's
//!   distribution.
//!
//! The environment and `UvmSpace` call sequence mirror the runtime's UVM
//! path. Each replay's work counters are compared with the cold run's
//! report through a [`ReplayCheck`]: a disagreement is a failed operation
//! of the traced run, so a mirror that drifts from the runtime marks the
//! run incorrect instead of silently timing different work.

use crate::report::{self, Metric};
use crate::span::{self, Tracer};
use crate::speed::HostSpeed;
use hetsim::gpu::exec::{ExecEnv, KernelExecutor};
use hetsim::mem::{Addr, LinkPath, TlbConfig};
use hetsim::memo::MemoStats;
use hetsim::prelude::*;
use hetsim::runtime::{BufferRole, RunReport};
use hetsim::uvm::{ChunkId, ChunkTouch, PrefetchModel, UvmSpace};
use hetsim::workloads::spec::Workload;

/// The runtime replays at most this many invocations of a kernel's page
/// touch sequence.
const MAX_SEQUENCED_ROUNDS: u64 = 64;

/// Replayed layer calls checked against the run they mirror. Each check
/// is one attempted operation of the traced run and each disagreement one
/// failed operation, so the run reads `correct: false` when a replay no
/// longer does the measured run's work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayCheck {
    pub checked: u64,
    pub mismatched: u64,
}

impl ReplayCheck {
    /// Records one check of what the run did (`ran`) against what its
    /// replay did.
    pub fn expect<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, ran: T, replayed: T) {
        self.checked += 1;
        if ran != replayed {
            self.mismatched += 1;
            eprintln!("perfbench: replayed {what} did {replayed:?}, the run did {ran:?}");
        }
    }
}

/// The work counts a grid cell's replay must reproduce.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    pub l1_accesses: u64,
    pub l2_accesses: u64,
    pub page_faults: u64,
    pub pages_migrated: u64,
    pub pages_prefetched: u64,
}

impl Work {
    /// The work a run reports; UVM counts only on managed-memory cells.
    pub fn of_run(report: &RunReport, uvm: bool) -> Work {
        let c = &report.counters;
        let mut w = Work {
            l1_accesses: c.l1.accesses(),
            l2_accesses: c.l2.accesses(),
            ..Work::default()
        };
        if uvm {
            w.page_faults = c.uvm.page_faults();
            w.pages_migrated = c.uvm.pages_migrated();
            w.pages_prefetched = c.uvm.pages_prefetched();
        }
        w
    }
}

/// Per-layer totals over one replayed grid.
#[derive(Debug, Clone, Default)]
pub struct GridLayers {
    /// Cold `run_base` seconds, indexed like `TransferMode::ALL`.
    pub run_base_s: [f64; 5],
    /// `gpu.execute` seconds on explicit-copy cells only.
    pub explicit_execute_s: f64,
    pub execute_s: f64,
    pub execute_calls: u64,
    pub l1_accesses: u64,
    pub l2_accesses: u64,
    pub touch_s: f64,
    pub page_faults: u64,
    pub fault_batches: u64,
    pub pages_migrated: u64,
    pub pages_prefetched: u64,
    pub pages_evicted: u64,
    pub refaults: u64,
    pub noise_s: f64,
    pub noise_calls: u64,
    /// One check per cell: the replayed work against the cold run's.
    pub check: ReplayCheck,
}

impl GridLayers {
    /// `run_base` seconds of the explicit-copy modes.
    pub fn explicit_run_base_s(&self) -> f64 {
        TransferMode::ALL
            .iter()
            .zip(self.run_base_s)
            .filter(|(m, _)| !m.uses_uvm())
            .map(|(_, s)| s)
            .sum()
    }
}

/// Replays every cell of `cells`, `noise_runs` noise draws each.
pub fn replay_grid(
    tracer: &mut Tracer,
    cells: &[(&Workload, TransferMode)],
    noise_runs: u64,
) -> GridLayers {
    let device = Device::a100_epyc();
    let runner = Runner::new(device.clone());
    let executor = KernelExecutor::new(device.gpu.clone());
    let mut g = GridLayers::default();
    for (id, &(w, mode)) in cells.iter().enumerate() {
        tracer.span("bench.cell", Some(id as u64), |t| {
            let mi = mode_index(mode);
            let (report, s) = t.timed("runtime.run_base", |_| runner.run_base(w, mode));
            g.run_base_s[mi] += s;

            let env = if mode.uses_uvm() {
                uvm_env(w, mode, &device).0
            } else {
                ExecEnv::standard()
            };
            let ((l1, l2), s) = t.timed("gpu.execute", |_| {
                let (mut l1, mut l2) = (0, 0);
                for k in w.kernels() {
                    let r = executor.execute(k, mode.kernel_style(k.standard_style()), &env);
                    l1 += r.l1.accesses();
                    l2 += r.l2.accesses();
                }
                (l1, l2)
            });
            g.execute_s += s;
            g.execute_calls += w.kernels().len() as u64;
            g.l1_accesses += l1;
            g.l2_accesses += l2;
            let mut replayed = Work {
                l1_accesses: l1,
                l2_accesses: l2,
                ..Work::default()
            };
            if !mode.uses_uvm() {
                g.explicit_execute_s += s;
            } else {
                let (space, s) = t.timed("uvm.touch", |_| touch_replay(w, mode, &device));
                g.touch_s += s;
                let (ran, touched) = (report.counters.uvm, space.counters());
                replayed.page_faults = touched.page_faults();
                replayed.pages_migrated = touched.pages_migrated();
                replayed.pages_prefetched = touched.pages_prefetched();
                g.page_faults += ran.page_faults();
                g.fault_batches += ran.fault_batches();
                g.pages_migrated += ran.pages_migrated();
                g.pages_prefetched += ran.pages_prefetched();
                g.pages_evicted += ran.pages_evicted();
                g.refaults += ran.refaults();
            }
            let what = format!("{} / {}", w.name(), mode.name());
            g.check
                .expect(&what, Work::of_run(&report, mode.uses_uvm()), replayed);

            let ((), s) = t.timed("runtime.noise", |_| {
                for i in 0..noise_runs {
                    std::hint::black_box(runner.apply_noise(&report, w, mode, i));
                }
            });
            g.noise_s += s;
            g.noise_calls += noise_runs;
        });
    }
    g
}

pub fn mode_index(mode: TransferMode) -> usize {
    TransferMode::ALL
        .iter()
        .position(|&m| m == mode)
        .expect("every mode is in ALL")
}

/// The kernel environment and prefetch coverage the runtime derives for a
/// managed-memory cell.
fn uvm_env(w: &Workload, mode: TransferMode, dev: &Device) -> (ExecEnv, f64) {
    let regularity = w
        .kernels()
        .iter()
        .map(|k| k.regularity())
        .max_by(|a, b| {
            a.residual_fault_fraction()
                .total_cmp(&b.residual_fault_fraction())
        })
        .expect("workloads have kernels");
    let coverage = PrefetchModel::conflicting(w.prefetch_conflict()).effective_coverage(regularity);
    let prefetch = mode.uses_prefetch();
    let translation = if prefetch {
        1.0 + (regularity.uvm_translation_penalty() - 1.0) * 0.35
    } else {
        regularity.uvm_translation_penalty()
    };
    let l2_warm = if prefetch {
        dev.l2_warm_fraction() * coverage.powi(4)
    } else {
        0.0
    };
    let tlb = if prefetch {
        TlbConfig {
            page_bytes: 2 << 20,
            walk_cycles: 200.0,
            ..TlbConfig::a100_uvm()
        }
    } else {
        TlbConfig::a100_uvm()
    };
    (ExecEnv::new(translation, l2_warm).with_tlb(tlb), coverage)
}

/// The `UvmSpace` calls of one managed-memory cell, in the runtime's
/// order; returns the space so its counters can be checked.
fn touch_replay(w: &Workload, mode: TransferMode, dev: &Device) -> UvmSpace {
    let (_, coverage) = uvm_env(w, mode, dev);
    let prefetch = mode.uses_prefetch();
    let chunk = dev.uvm.chunk_size;
    let buffers = w.buffers();
    let bases: Vec<Addr> = (0..buffers.len())
        .map(|i| Addr::new((i as u64 + 1) << 42))
        .collect();
    let mut space = UvmSpace::new(dev.uvm);
    for (b, &base) in buffers.iter().zip(&bases) {
        space.managed_alloc(base, b.bytes);
    }
    if prefetch {
        for (b, &base) in buffers.iter().zip(&bases) {
            if b.role.is_input() {
                space.prefetch_range(base, b.bytes, coverage, &dev.link);
            }
        }
    }
    for (ki, k) in w.kernels().iter().enumerate() {
        if ki > 0 && prefetch && w.prefetch_conflict() < 1.0 {
            for _ in 0..k.invocations().clamp(1, 4) {
                for (b, &base) in buffers.iter().zip(&bases) {
                    space.displace_fraction(base, b.bytes, 1.0 - w.prefetch_conflict());
                    space.demand_touch_range(base, b.bytes, b.role.is_output(), true, &dev.link);
                }
            }
        }
        let mut sequenced = false;
        for inv in 0..k.invocations().min(MAX_SEQUENCED_ROUNDS) {
            let Some(touches) = w.page_touches(ki, inv, chunk) else {
                break;
            };
            sequenced = true;
            let seq: Vec<ChunkTouch> = touches
                .iter()
                .filter(|t| buffers[t.buffer].role != BufferRole::Scratch)
                .map(|t| {
                    let b = &buffers[t.buffer];
                    let nchunks = b.bytes.div_ceil(chunk).max(1);
                    ChunkTouch {
                        chunk: ChunkId::new(bases[t.buffer].as_u64() / chunk + t.chunk % nchunks),
                        write: t.write,
                        host_backed: b.role.is_input(),
                    }
                })
                .collect();
            space.demand_touch_sequence(&seq, &dev.link);
        }
        if !sequenced {
            for (b, &base) in buffers.iter().zip(&bases) {
                if b.role != BufferRole::Scratch {
                    let (write, host) = (b.role.is_output(), b.role.is_input());
                    space.demand_touch_range(base, b.bytes, write, host, &dev.link);
                }
            }
        }
    }
    let path = if prefetch {
        LinkPath::BulkPrefetch
    } else {
        LinkPath::DemandMigration
    };
    for (b, &base) in buffers.iter().zip(&bases) {
        if b.role.is_output() {
            space.writeback_dirty(base, b.bytes, path, &dev.link);
        }
    }
    space
}

/// The `gpu.*`, `uvm.*` and `runtime.*` metrics of a replayed grid.
pub fn layer_metrics(g: &GridLayers, noise_s: f64, noise_calls: u64) -> Vec<Metric> {
    let mut m = vec![
        Metric::new("gpu.execute_s", g.execute_s, "s"),
        Metric::new("gpu.execute_calls", g.execute_calls as f64, "count"),
        Metric::new("gpu.l1_accesses", g.l1_accesses as f64, "count"),
        Metric::new("gpu.l2_accesses", g.l2_accesses as f64, "count"),
        Metric::new(
            "gpu.ns_per_l1_access",
            report::frac(g.execute_s * 1e9, g.l1_accesses as f64),
            "ns",
        ),
        Metric::new("uvm.touch_s", g.touch_s, "s"),
        Metric::new("uvm.page_faults", g.page_faults as f64, "count"),
        Metric::new("uvm.fault_batches", g.fault_batches as f64, "count"),
        Metric::new(
            "uvm.faults_per_batch",
            report::frac(g.page_faults as f64, g.fault_batches as f64),
            "ratio",
        ),
        Metric::new("uvm.pages_migrated", g.pages_migrated as f64, "count"),
        Metric::new("uvm.pages_prefetched", g.pages_prefetched as f64, "count"),
        Metric::new("uvm.pages_evicted", g.pages_evicted as f64, "count"),
        Metric::new("uvm.refaults", g.refaults as f64, "count"),
    ];
    for mode in TransferMode::ALL {
        m.push(Metric::new(
            format!("runtime.run_base_s.{}", mode.name()),
            g.run_base_s[mode_index(mode)],
            "s",
        ));
    }
    m.extend([
        Metric::new(
            "runtime.self_s.explicit",
            report::self_time(g.explicit_run_base_s(), &[g.explicit_execute_s]),
            "s",
        ),
        Metric::new("runtime.noise_s", noise_s, "s"),
        Metric::new("runtime.noise_calls", noise_calls as f64, "count"),
    ]);
    m
}

/// The `core.*` metrics: memo counters of the measured calls, and the
/// wall time of a cold grid call (`grid_wall_s`, whose memo counters are
/// `grid_memo`) beyond the base runs it computed, as the memo's own wall
/// timer measured them during the same call. Both sides of that
/// difference are wall time, the only clock the memo keeps.
pub fn core_metrics(memo: MemoStats, grid_wall_s: f64, grid_memo: MemoStats) -> Vec<Metric> {
    vec![
        Metric::new("core.base_run_calls", memo.lookups as f64, "count"),
        Metric::new(
            "core.memo_hits",
            (memo.lookups - memo.computes) as f64,
            "count",
        ),
        Metric::new("core.memo_misses", memo.computes as f64, "count"),
        Metric::new("core.memo_overhead_s", memo.overhead_ns() as f64 / 1e9, "s"),
        Metric::new(
            "core.grid_self_s",
            report::self_time(grid_wall_s, &[grid_memo.compute_ns as f64 / 1e9]),
            "s",
        ),
    ]
}

/// The benchmark's own overheads.
pub fn bench_metrics(t: &Tracer, speed: &HostSpeed, traced_s: f64, untraced_s: f64) -> Vec<Metric> {
    vec![
        Metric::new("bench.host_slowdown", speed.slowdown(), "ratio"),
        Metric::new(
            "bench.trace_overhead_frac",
            report::trace_overhead(traced_s, untraced_s),
            "ratio",
        ),
        Metric::new(
            "bench.harness_self_s",
            span::self_s_with_prefix(t.spans(), "bench."),
            "s",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_matches_the_runtime_counters_on_every_mode() {
        // bfs carries a page-touch sequence; nw has inter-kernel prefetch
        // conflict; vector_seq takes the plain range walk.
        let workloads: Vec<Workload> = ["bfs", "nw", "vector_seq"]
            .iter()
            .map(|n| suite::by_name(n, InputSize::Tiny).expect("registered"))
            .collect();
        let cells: Vec<(&Workload, TransferMode)> = workloads
            .iter()
            .flat_map(|w| TransferMode::ALL.map(|m| (w, m)))
            .collect();
        let mut t = Tracer::new(true);
        let g = replay_grid(&mut t, &cells, 3);
        assert_eq!(
            g.check,
            ReplayCheck {
                checked: cells.len() as u64,
                mismatched: 0
            }
        );
        assert_eq!(g.noise_calls, 3 * cells.len() as u64);
        assert!(g.l1_accesses > 0 && g.page_faults > 0 && g.execute_calls > 0);
        assert_eq!(
            t.spans().iter().filter(|s| s.name == "uvm.touch").count(),
            3 * 3
        );
    }

    #[test]
    fn a_replay_that_does_other_work_than_the_run_is_a_failure() {
        let w = suite::by_name("vector_seq", InputSize::Tiny).expect("registered");
        let report = Runner::new(Device::a100_epyc()).run_base(&w, TransferMode::Uvm);
        let ran = Work::of_run(&report, true);
        assert!(ran.page_faults > 0 && ran.l1_accesses > 0);
        let mut check = ReplayCheck::default();
        check.expect("cell", ran, ran);
        assert_eq!(check.mismatched, 0);
        let tampered = Work {
            page_faults: ran.page_faults + 1,
            ..ran
        };
        check.expect("cell", ran, tampered);
        check.expect("lookups", 6_u64, 5);
        assert_eq!(
            check,
            ReplayCheck {
                checked: 3,
                mismatched: 2
            }
        );
    }
}
