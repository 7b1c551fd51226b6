//! Prints the full `KernelResult` of every registered kernel at Small, in
//! each of the three kernel styles, under three execution environments.
//!
//! This is the regression surface of the sampled-block executor: raw L1/L2
//! hit/miss counters, TLB misses, HBM traffic and the dynamic instruction
//! mix behind Figs 9 and 10. The perfbench digest pins only timings, so a
//! change to the cache or TLB models that moves a counter shows up here
//! first. `scripts/ci.sh` compares the output byte for byte against
//! `scripts/golden/exec.golden`.
//!
//! ```text
//! cargo run --release --example exec_golden
//! ```

use hetsim_gpu::{ExecEnv, GpuConfig, KernelExecutor, KernelStyle};
use hetsim_mem::carveout::Carveout;
use hetsim_mem::tlb::TlbConfig;
use hetsim_runtime::GpuProgram;
use hetsim_workloads::{suite, InputSize};

fn main() {
    let a100 = GpuConfig::a100();
    let carveout = Carveout::with_shared_kib(128).expect("valid A100 carveout");
    let setups = [
        ("a100, standard", a100.clone(), ExecEnv::standard()),
        (
            "a100, uvm tlb",
            a100.clone(),
            ExecEnv::new(1.2, 0.3).with_tlb(TlbConfig::a100_uvm()),
        ),
        (
            "a100 shared 128 KiB, standard",
            a100.with_carveout(carveout),
            ExecEnv::standard(),
        ),
    ];
    let styles = [
        KernelStyle::Direct,
        KernelStyle::StagedSync,
        KernelStyle::StagedAsync,
    ];
    for (label, config, env) in &setups {
        let executor = KernelExecutor::new(config.clone());
        for entry in suite::all_entries() {
            let w = (entry.build)(InputSize::Small);
            for k in w.kernels() {
                for style in styles {
                    let r = executor.execute(k, style, env);
                    println!("{} / {} @ small, {style}, {label}", w.name(), k.name());
                    println!("{r:?}");
                }
            }
        }
    }
}
