//! The repository benchmark.
//!
//! ```text
//! perfbench --workload sweep_cold|serve_steady|serve_chaos --seed N
//!           --seconds S --trace 0|1 [--threads T]
//! ```
//!
//! Drives the hetsim library from outside, through its public functions,
//! for `S` seconds and checks every output. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. The traced run also writes its spans to
//! `perfbench/out/`. See `README.md` next to this file for the workloads,
//! the metrics and what each layer metric should move.

mod layers;
mod report;
mod serve;
mod span;
mod speed;
mod sweep;

use report::{Digest, Metric};
use std::process::ExitCode;

/// What one workload run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Digest of every simulated output of the run.
    pub digest: Digest,
    /// The traced run's spans, as JSON.
    pub spans: Option<String>,
}

const USAGE: &str = "usage: perfbench --workload sweep_cold|serve_steady|serve_chaos \
                     --seed N --seconds S --trace 0|1 [--threads T]";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    threads: usize,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0,
        trace: false,
        threads: 1,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} `{value}`"))
        };
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = num()?,
            "--seconds" => a.seconds = num()?,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}`")),
                }
            }
            "--threads" => a.threads = num()?.clamp(1, 256) as usize,
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if a.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(a)
}

/// The commit of the checkout, when it is a git repository.
fn commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &std::path::Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_string();
    };
    match head.trim().strip_prefix("ref: ") {
        Some(r) => read(&git.join(r)).map_or_else(|| r.to_string(), |h| h.trim().to_string()),
        None => head.trim().to_string(),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The traced run uses one pool thread, so spans nest on one clock.
    let threads = if args.trace {
        1
    } else {
        args.threads.min(nproc)
    };
    hetsim::pool::set_threads(Some(threads));

    let (outcome, params) = match args.workload.as_str() {
        "sweep_cold" => (
            sweep::run(args.seconds, args.trace),
            sweep::PARAMS.to_string(),
        ),
        "serve_steady" => (
            serve::run(serve::Kind::Steady, args.seed, args.seconds, args.trace),
            serve::Kind::Steady.params(),
        ),
        "serve_chaos" => (
            serve::run(serve::Kind::Chaos, args.seed, args.seconds, args.trace),
            serve::Kind::Chaos.params(),
        ),
        other => {
            eprintln!("perfbench: unknown workload `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let manifest = format!(
        "{{\"commit\": \"{}\", \"nproc\": {nproc}, \"pool_threads\": {threads}, \
         \"clock\": \"{}\", \"profile\": \"{}\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \
         \"trace\": {}, \"params\": {params}}}",
        commit(),
        report::host_clock(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
    );
    if let Some(spans) = &outcome.spans {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        let body = format!("{{\"manifest\": {manifest},\n\"spans\": {spans}}}\n");
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    println!("manifest {manifest}");
    println!("digest {} {}", args.workload, outcome.digest.hex());
    println!(
        "{}",
        report::result_line(
            outcome.failed == 0,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
    ExitCode::SUCCESS
}
