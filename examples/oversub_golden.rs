//! Prints the full noise-free `RunReport`s of two re-touch workloads under
//! device-memory oversubscription, plus kmeans' oversubscription table.
//!
//! The figure sweeps never evict (their largest footprint fits the 40 GB
//! device), so this is the regression surface of the UVM eviction path:
//! LRU order, refaults, dirty eviction writebacks. `scripts/ci.sh`
//! compares the output byte for byte against
//! `scripts/golden/oversub.golden`.
//!
//! ```text
//! cargo run --release --example oversub_golden
//! ```

use hetsim::extensions::{oversubscription_sweep, oversubscription_table};
use hetsim_runtime::{Device, GpuProgram, Runner, TransferMode};
use hetsim_workloads::{suite, InputSize};

fn main() {
    let modes = [
        TransferMode::Uvm,
        TransferMode::UvmPrefetch,
        TransferMode::UvmPrefetchAsync,
    ];
    for name in ["bfs", "kmeans"] {
        let w = suite::by_name(name, InputSize::Large).expect("registered workload");
        for divisor in [2, 4] {
            let mut device = Device::a100_epyc();
            device.uvm.device_capacity = w.footprint() / divisor;
            let runner = Runner::new(device);
            for mode in modes {
                let report = runner.run_base(&w, mode);
                println!("{name} @ large, capacity = footprint/{divisor}, {mode}");
                println!("{report:?}");
            }
        }
    }
    println!("kmeans @ large oversubscription sweep");
    let points = oversubscription_sweep(
        || suite::by_name("kmeans", InputSize::Large).expect("registered workload"),
        &[0.5, 1.0, 1.5, 2.0, 4.0],
    );
    println!("{}", oversubscription_table(&points));
}
