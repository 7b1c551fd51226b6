//! Shape tests for the irregular-access trio (bfs, kmeans, pathfinder):
//! the workloads whose temporal touch models drive the UVM fault batcher
//! instead of the address-ordered blanket fallback.
//!
//! The paper's observation (§4.1.2, §4.2.2) is that prefetching pays off
//! when access is streaming and predictable, and that plain UVM inflates
//! kernel time through fault-handling stalls. Irregular workloads push on
//! both claims from the other side: scattered frontiers fill fault batches
//! poorly, so `uvm_prefetch`'s advantage over plain `uvm` *shrinks*
//! relative to streaming microbenchmarks, and the kernel inflation is
//! attributable to fault stalls rather than compute.
//!
//! Like `headline_shapes.rs`, these assertions pin orderings and coarse
//! factors — never absolute nanoseconds. Comparisons use kernel + memcpy
//! components (or raw fault counters), not run totals, because the fixed
//! per-run system overhead (~190 ms) dwarfs everything else at Medium.

use hetsim::experiment::Experiment;
use hetsim::prelude::*;

fn exp() -> Experiment {
    Experiment::new().with_runs(3)
}

fn w(name: &str) -> hetsim::workloads::Workload {
    suite::by_name(name, InputSize::Medium).expect("workload resolves")
}

/// kernel + memcpy: the UVM-sensitive part of a report (alloc and system
/// don't depend on the touch sequence).
fn uvm_sensitive(r: &RunReport) -> f64 {
    (r.kernel + r.memcpy).as_nanos() as f64
}

/// How much `uvm_prefetch` improves over plain `uvm` on the
/// UVM-sensitive components (>1 means prefetch wins).
fn prefetch_benefit(exp: &Experiment, name: &str) -> f64 {
    let wl = w(name);
    let plain = exp.runner().run_base(&wl, TransferMode::Uvm);
    let pf = exp.runner().run_base(&wl, TransferMode::UvmPrefetch);
    uvm_sensitive(&plain) / uvm_sensitive(&pf)
}

#[test]
fn trio_runs_in_all_five_modes() {
    let e = exp();
    for name in hetsim::figures::IRREGULAR_WORKLOADS {
        let wl = w(name);
        for mode in TransferMode::ALL {
            let r = e.runner().run_base(&wl, mode);
            assert!(r.kernel.as_nanos() > 0, "{name}/{} kernel", mode.name());
            assert!(r.total() > r.system, "{name}/{} total", mode.name());
            if mode.uses_uvm() {
                assert!(
                    r.counters.uvm.page_faults() > 0 || mode.uses_prefetch(),
                    "{name}/{} should fault or prefetch",
                    mode.name()
                );
            }
        }
    }
}

/// The tentpole shape: prefetching helps streaming workloads far more than
/// frontier-driven ones. A scattered fault stream defeats the
/// region-growing heuristic, so bfs keeps paying fault costs that
/// vector_seq and saxpy prefetch away.
#[test]
fn prefetch_benefit_shrinks_for_irregular_access() {
    let e = exp();
    let bfs = prefetch_benefit(&e, "bfs");
    let vector_seq = prefetch_benefit(&e, "vector_seq");
    let saxpy = prefetch_benefit(&e, "saxpy");

    assert!(
        bfs * 1.05 < vector_seq,
        "bfs prefetch benefit ({bfs:.2}x) must trail vector_seq ({vector_seq:.2}x)"
    );
    assert!(
        bfs * 1.05 < saxpy,
        "bfs prefetch benefit ({bfs:.2}x) must trail saxpy ({saxpy:.2}x)"
    );
    // Prefetch still helps bfs a little (bulk graph data is contiguous),
    // it just can't hide the frontier's scattered faults.
    assert!(bfs > 1.0, "prefetch should not hurt bfs, got {bfs:.2}x");
}

/// Scattered frontiers leave fault batches underfilled; streaming access
/// retires them full. This is the batcher-level mechanism behind the
/// shrinking prefetch benefit above.
#[test]
fn irregular_fault_batches_are_underfilled() {
    let e = exp();
    let bfs = e.runner().run_base(&w("bfs"), TransferMode::Uvm);
    let seq = e.runner().run_base(&w("vector_seq"), TransferMode::Uvm);

    let bfs_fill = bfs.counters.uvm.mean_batch_fill();
    let seq_fill = seq.counters.uvm.mean_batch_fill();
    assert!(
        bfs_fill < seq_fill,
        "bfs mean batch fill ({bfs_fill:.1}) must be below vector_seq ({seq_fill:.1})"
    );
    assert!(
        bfs.counters.uvm.underfilled_batch_fraction()
            > seq.counters.uvm.underfilled_batch_fraction(),
        "bfs must retire more underfilled batches than a streaming workload"
    );
    assert!(
        bfs.counters.uvm.fault_batches() > 1,
        "a frontier sweep needs multiple fault batches"
    );
}

/// Plain-UVM kernel inflation on the trio is fault-driven: the kernel runs
/// longer than standard mode, and the counters attribute nonzero stall to
/// fault handling (paper §4.2.2's "kernel time absorbs the page faults").
#[test]
fn uvm_kernel_inflation_is_fault_driven() {
    let e = exp();
    for name in hetsim::figures::IRREGULAR_WORKLOADS {
        let wl = w(name);
        let std = e.runner().run_base(&wl, TransferMode::Standard);
        let uvm = e.runner().run_base(&wl, TransferMode::Uvm);
        assert!(
            uvm.kernel > std.kernel,
            "{name}: uvm kernel ({}) must exceed standard ({})",
            uvm.kernel,
            std.kernel
        );
        assert!(
            uvm.counters.uvm.fault_stall().as_nanos() > 0,
            "{name}: fault stall must be attributed"
        );
        assert!(
            uvm.counters.uvm.page_faults() > 0,
            "{name}: plain uvm must take page faults"
        );
    }
}

/// kmeans re-touches its full dataset every pass; with device memory
/// tightened below the footprint, the second pass refaults pages the
/// eviction loop pushed out — the thrashing signature the refault counter
/// exists to expose.
#[test]
fn kmeans_thrashes_when_capacity_is_tight() {
    let mut dev = Device::a100_epyc();
    // Medium kmeans has a 64 MB footprint; a 16 MB carveout forces the
    // retouch passes to evict and re-migrate.
    dev.uvm.device_capacity = 16 << 20;
    let e = Experiment::new().with_runs(3).with_device(dev);

    let r = e.runner().run_base(&w("kmeans"), TransferMode::Uvm);
    let uvm = &r.counters.uvm;
    assert!(uvm.pages_evicted() > 0, "tight capacity must evict");
    assert!(
        uvm.refaults() > 0,
        "retouch passes must refault evicted pages"
    );

    // At the default 40 GB capacity the same run never thrashes.
    let roomy = exp().runner().run_base(&w("kmeans"), TransferMode::Uvm);
    assert_eq!(roomy.counters.uvm.refaults(), 0);
    assert_eq!(roomy.counters.uvm.pages_evicted(), 0);
}

/// The lane-interleaved kmeans stream still has enough short runs for the
/// inline region-growing heuristic to pull some pages without faults.
#[test]
fn kmeans_heuristic_prefetch_fires_on_bursts() {
    let r = exp().runner().run_base(&w("kmeans"), TransferMode::Uvm);
    assert!(
        r.counters.uvm.pages_heuristic() > 0,
        "burst adjacency should trigger heuristic pulls"
    );
    // Heuristic pages are migrations that took no fault, so migrated
    // pages must exceed faulted pages.
    assert!(r.counters.uvm.pages_migrated() > r.counters.uvm.page_faults());
}

/// The streamed fault path equals the slice path: feeding each touch of
/// `for_each_page_touch` straight into a `TouchSession` produces the same
/// `FaultReport` per invocation — and the same `UvmCounters` — as
/// `demand_touch_sequence` over the collected `page_touches`, on the trio's
/// sequences at Medium (under a tight device, so eviction and refaults are
/// part of what must agree).
#[test]
fn streamed_session_matches_demand_touch_sequence() {
    use hetsim::mem::{Addr, CpuGpuLink};
    use hetsim::runtime::{BufferRole, PageTouch};
    use hetsim::uvm::{ChunkId, ChunkTouch, UvmConfig, UvmSpace};
    let link = CpuGpuLink::pcie4_a100();
    for name in suite::IRREGULAR_TRIO {
        let wl = w(name);
        let mut config = UvmConfig::a100();
        config.device_capacity = wl.footprint() / 2;
        let chunk = config.chunk_size;
        let buffers = wl.buffers();
        let resolve = |t: PageTouch| {
            let b = &buffers[t.buffer];
            let first = ((t.buffer as u64 + 1) << 42) / chunk;
            (b.role != BufferRole::Scratch).then(|| ChunkTouch {
                chunk: ChunkId::new(first + t.chunk % b.bytes.div_ceil(chunk).max(1)),
                write: t.write,
                host_backed: b.role.is_input(),
            })
        };
        let mut streamed = UvmSpace::new(config);
        let mut sliced = UvmSpace::new(config);
        for (i, b) in buffers.iter().enumerate() {
            let base = Addr::new((i as u64 + 1) << 42);
            streamed.managed_alloc(base, b.bytes);
            sliced.managed_alloc(base, b.bytes);
        }
        let mut rounds = 0;
        for (ki, k) in wl.kernels().iter().enumerate() {
            for inv in 0..k.invocations() {
                let mut session = streamed.touch_session();
                let produced = wl.for_each_page_touch(ki, inv, chunk, &mut |t| {
                    if let Some(c) = resolve(t) {
                        session.touch(c);
                    }
                });
                let a = session.finish(&link);
                let Some(seq) = wl.page_touches(ki, inv, chunk) else {
                    assert!(!produced, "{name} k{ki}#{inv}: streamed a converged model");
                    break;
                };
                assert!(produced, "{name} k{ki}#{inv}: no stream for a sequence");
                let seq: Vec<ChunkTouch> = seq.into_iter().filter_map(resolve).collect();
                let b = sliced.demand_touch_sequence(&seq, &link);
                assert_eq!(a, b, "{name} k{ki}#{inv}");
                rounds += 1;
            }
        }
        assert!(rounds > 0, "{name} has a touch model");
        assert_eq!(streamed.counters(), sliced.counters(), "{name}");
        assert!(sliced.counters().page_faults() > 0, "{name}");
        assert!(sliced.counters().pages_evicted() > 0, "{name} must evict");
    }
}
