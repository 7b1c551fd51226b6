//! `sweep_cold`: the paper's own reproduction pass, cold.
//!
//! Fig 7 and Fig 8 at Super plus the irregular trio at Mega through a
//! fresh `Experiment` (empty memo, no disk cache, 30-run distributions):
//! 120 `(workload, mode)` cells, each simulated once. The simulator is
//! deterministic, so this workload ignores the seed.

use crate::layers;
use crate::report::{self, mean, median, rate, Digest, HostTimer, Metric};
use crate::span::Tracer;
use crate::speed::HostSpeed;
use crate::Outcome;
use hetsim::figures::{self, SuiteComparison};
use hetsim::headline::Headline;
use hetsim::memo::MemoStats;
use hetsim::prelude::*;
use hetsim::workloads::spec::Workload;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

const RUNS: u64 = 30;
/// `(workload, mode)` cells of one pass.
const CELLS: u64 = 120;
/// `setup_s` is the median of samples taken before every pass, so they
/// span the run; each sample is the mean of `SETUP_BATCH` constructions,
/// as one construction takes microseconds, too short to time alone.
const SETUP_SAMPLES_PER_PASS: usize = 5;
const SETUP_BATCH: u32 = 100;
/// Probe rounds before each figure call, about a sixth of a pass.
const PROBE_ROUNDS: u32 = 3;

pub const PARAMS: &str = "{\"figures\": [\"fig7@super\", \"fig8@super\", \"irregular@mega\"], \
     \"runs\": 30, \"cells\": 120, \"memo\": \"fresh per pass\", \"disk_cache\": false, \
     \"seed_used\": false}";

/// The three suites of one pass, in figure order.
fn suites() -> [Vec<Workload>; 3] {
    [
        suite::micro_suite(InputSize::Super),
        suite::app_suite(InputSize::Super),
        suite::irregular_suite(InputSize::Mega),
    ]
}

/// One pass, with probe rounds before each figure call; returns the
/// suites and the host seconds the probe took.
fn pass(exp: &Experiment, t: &mut Tracer, speed: &mut HostSpeed) -> ([SuiteComparison; 3], f64) {
    let mut probe_s = 0.0;
    let mut probe = |t: &mut Tracer| {
        probe_s += t.span("speed.probe", None, |_| speed.probe(PROBE_ROUNDS));
    };
    let suites = t.span("bench.pass", None, |t| {
        probe(t);
        let fig7 = t.span("core.fig7", None, |_| figures::fig7(exp, InputSize::Super));
        probe(t);
        let fig8 = t.span("core.fig8", None, |_| {
            figures::fig8_at(exp, InputSize::Super)
        });
        probe(t);
        let irregular = t.span("core.irregular", None, |_| {
            figures::irregular(exp, InputSize::Mega)
        });
        [fig7, fig8, irregular]
    });
    (suites, probe_s)
}

fn cells(s: &SuiteComparison) -> u64 {
    (s.comparisons().len() * TransferMode::ALL.len()) as u64
}

/// The headline numbers the paper's shape claims are made of.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    pub async_pct: f64,
    pub uvm_pct: f64,
    pub uvm_prefetch_pct: f64,
    /// Every headline component of every mode is finite.
    pub finite: bool,
}

impl Shape {
    pub fn of(s: &SuiteComparison) -> Shape {
        let h = Headline::from_suite(s);
        let finite = TransferMode::ALL.iter().all(|&m| {
            let r = h.row(m);
            r.improvement_pct.is_finite()
                && r.memcpy_savings_pct.is_finite()
                && r.kernel_overhead_pct.is_finite()
        });
        Shape {
            async_pct: h.row(TransferMode::Async).improvement_pct,
            uvm_pct: h.row(TransferMode::Uvm).improvement_pct,
            uvm_prefetch_pct: h.row(TransferMode::UvmPrefetch).improvement_pct,
            finite,
        }
    }

    /// The paper's §4 shapes: plain `uvm` loses overall, `uvm_prefetch`
    /// wins by more than 15%, `async` is near neutral.
    pub fn errors(&self) -> Vec<String> {
        let mut e = Vec::new();
        if !self.finite {
            e.push("a headline component is not finite".to_string());
        }
        if self.uvm_pct.is_nan() || self.uvm_pct >= 0.0 {
            e.push(format!(
                "uvm should lose overall, got {:+.2}%",
                self.uvm_pct
            ));
        }
        if self.uvm_prefetch_pct.is_nan() || self.uvm_prefetch_pct <= 15.0 {
            e.push(format!(
                "uvm_prefetch should win by >15%, got {:+.2}%",
                self.uvm_prefetch_pct
            ));
        }
        if !(-3.0..8.0).contains(&self.async_pct) {
            e.push(format!(
                "async should be near neutral, got {:+.2}%",
                self.async_pct
            ));
        }
        e
    }
}

/// Checks one pass; returns the number of failed cells.
fn check(
    suites: &[SuiteComparison; 3],
    memo: MemoStats,
    digest: Digest,
    first: &mut Option<Digest>,
) -> u64 {
    let total: u64 = suites.iter().map(cells).sum();
    let mut failed = 0;
    for (i, s) in suites.iter().enumerate() {
        let mut errors = Vec::new();
        // The irregular trio is where prefetch gains shrink (bfs), so
        // only the figure suites carry the paper's shape claims.
        if i < 2 {
            errors = Shape::of(s).errors();
        } else if !Shape::of(s).finite {
            errors.push("a headline component is not finite".to_string());
        }
        if s.comparisons().iter().any(|c| {
            TransferMode::ALL
                .iter()
                .any(|&m| c.mean(m).total() == Nanos::ZERO || !c.normalized_total(m).is_finite())
        }) {
            errors.push("a cell has an empty or non-finite total".to_string());
        }
        if !errors.is_empty() {
            eprintln!(
                "perfbench: sweep_cold suite {i} failed: {}",
                errors.join("; ")
            );
            failed += cells(s);
        }
    }
    let cold = memo.computes == total && memo.lookups == total;
    let same = *first.get_or_insert(digest) == digest;
    if total != CELLS || !cold || !same {
        eprintln!(
            "perfbench: sweep_cold pass failed: cells {total}, memo {memo:?}, output repeats: {same}"
        );
        failed = total;
    }
    failed
}

fn digest(suites: &[SuiteComparison; 3]) -> Digest {
    let mut d = Digest::default();
    for s in suites {
        for c in s.comparisons() {
            d.bytes(c.workload().as_bytes());
            for m in TransferMode::ALL {
                let mean = c.mean(m);
                for n in [mean.alloc, mean.memcpy, mean.kernel, mean.system] {
                    d.u64(n.as_nanos());
                }
                d.u64(mean.total_summary.mean().to_bits());
                d.u64(mean.total_summary.std().to_bits());
            }
        }
    }
    d
}

/// Simulated runs per simulated second, and the share of cells that run
/// no slower than the standard mode on the same workload (the paper's
/// baseline as the service level).
fn sim_metrics(suites: &[SuiteComparison; 3]) -> (f64, f64) {
    let comparisons: Vec<_> = suites.iter().flat_map(|s| s.comparisons()).collect();
    let sim_s: f64 = comparisons
        .iter()
        .flat_map(|c| TransferMode::ALL.map(|m| c.mean(m).total().as_secs_f64()))
        .sum();
    let cells = (comparisons.len() * TransferMode::ALL.len()) as f64;
    let met = comparisons
        .iter()
        .flat_map(|c| TransferMode::ALL.map(|m| c.normalized_total(m) <= 1.0))
        .filter(|&ok| ok)
        .count();
    (rate(cells, sim_s), report::frac(met as f64, cells))
}

/// One timed, checked pass.
struct Pass {
    secs: f64,
    /// Wall time of the figure calls, the memo's clock.
    wall_s: f64,
    failed: u64,
    memo: MemoStats,
    /// `None` if the pass panicked.
    suites: Option<[SuiteComparison; 3]>,
}

fn checked_pass(t: &mut Tracer, speed: &mut HostSpeed, first: &mut Option<Digest>) -> Pass {
    let exp = Experiment::new().with_runs(RUNS);
    let (t0, wall) = (HostTimer::start(), Instant::now());
    let out = catch_unwind(AssertUnwindSafe(|| pass(&exp, t, speed)));
    let (secs, wall_s) = (t0.secs(), wall.elapsed().as_secs_f64());
    // The probe is not the pass's work.
    let probe_s = out.as_ref().map_or(0.0, |(_, p)| *p);
    let (secs, wall_s) = (secs - probe_s, wall_s - probe_s);
    let out = out.map(|(s, _)| s);
    let memo = exp.memo_stats();
    let failed = match &out {
        Ok(s) => check(s, memo, digest(s), first),
        Err(_) => CELLS,
    };
    Pass {
        secs,
        wall_s,
        failed,
        memo,
        suites: out.ok(),
    }
}

pub fn run(seconds: u64, traced: bool) -> Outcome {
    let budget = Duration::from_secs(seconds);
    let mut first = None;
    let (mut attempted, mut failed) = (0, 0);
    let mut t = Tracer::new(false);
    let mut speed = HostSpeed::new();
    if !traced {
        let mut setup = Vec::new();
        let start = Instant::now();
        let mut times = Vec::new();
        let mut last = None;
        while times.is_empty() || start.elapsed() < budget {
            for _ in 0..SETUP_SAMPLES_PER_PASS {
                let t0 = HostTimer::start();
                for _ in 0..SETUP_BATCH {
                    std::hint::black_box((suites(), Experiment::new().with_runs(RUNS)));
                }
                setup.push(t0.secs() / f64::from(SETUP_BATCH));
            }
            let p = checked_pass(&mut t, &mut speed, &mut first);
            times.push(p.secs);
            attempted += CELLS;
            failed += p.failed;
            last = p.suites.or(last);
        }
        eprintln!(
            "perfbench: pass host seconds {times:.4?}, host slowdown {:.3}",
            speed.slowdown()
        );
        // The mean, so that the pass time and the probe's slowdown are
        // both taken over the whole run.
        let pass_s = mean(&times);
        let (goodput, slo) = last.as_ref().map_or((0.0, 0.0), sim_metrics);
        let mut metrics = vec![
            Metric::new("setup_s", median(&setup), "s"),
            Metric::new("cells_per_s", rate(CELLS as f64, pass_s), "1/s"),
            Metric::new("requests_per_s", rate((CELLS * RUNS) as f64, pass_s), "1/s"),
            Metric::new("peak_rss_mb", report::peak_rss_mb(), "MiB"),
            Metric::new("sim_goodput_rps", goodput, "1/sim_s"),
            Metric::new("sim_slo_attainment", slo, "ratio"),
        ];
        speed.normalize(&mut metrics);
        return Outcome {
            attempted,
            failed,
            digest: first.unwrap_or_default(),
            spans: None,
            metrics,
        };
    }

    // Traced run: alternate untraced and traced passes, then replay the
    // grid layer by layer.
    let start = Instant::now();
    let (mut plain, mut traced_times) = (Vec::new(), Vec::new());
    let (mut memo, mut figures_wall_s) = (None, 0.0);
    while plain.is_empty() || start.elapsed() < budget / 2 {
        for on in crate::span::pair_order(plain.len()) {
            t.set_enabled(on);
            let p = checked_pass(&mut t, &mut speed, &mut first);
            attempted += CELLS;
            failed += p.failed;
            if on {
                traced_times.push(p.secs);
                memo = Some(p.memo);
                figures_wall_s = p.wall_s;
            } else {
                plain.push(p.secs);
            }
        }
    }
    t.set_enabled(true);
    let workloads = suites();
    let grid: Vec<(&Workload, TransferMode)> = workloads
        .iter()
        .flatten()
        .flat_map(|w| TransferMode::ALL.map(|m| (w, m)))
        .collect();
    let g = t.span("bench.replay", None, |t| {
        layers::replay_grid(t, &grid, RUNS)
    });
    // A replay that no longer does the figures' work fails the run.
    attempted += g.check.checked;
    failed += g.check.mismatched;
    let mut metrics = layers::layer_metrics(&g, g.noise_s, g.noise_calls);
    let memo = memo.expect("at least one traced pass");
    metrics.extend(layers::core_metrics(memo, figures_wall_s, memo));
    metrics.extend(crate::serve::zero_metrics());
    metrics.extend(layers::bench_metrics(
        &t,
        &speed,
        median(&traced_times),
        median(&plain),
    ));
    speed.normalize(&mut metrics);
    Outcome {
        attempted,
        failed,
        digest: first.unwrap_or_default(),
        spans: Some(t.to_json()),
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_like() -> Shape {
        Shape {
            async_pct: 0.4,
            uvm_pct: -15.0,
            uvm_prefetch_pct: 25.0,
            finite: true,
        }
    }

    #[test]
    fn the_paper_shape_passes() {
        assert!(paper_like().errors().is_empty());
    }

    #[test]
    fn tampered_shapes_are_rejected() {
        let tampered = [
            Shape {
                uvm_pct: 2.0,
                ..paper_like()
            },
            Shape {
                uvm_prefetch_pct: 14.9,
                ..paper_like()
            },
            Shape {
                async_pct: 12.0,
                ..paper_like()
            },
            Shape {
                uvm_prefetch_pct: f64::NAN,
                ..paper_like()
            },
            Shape {
                finite: false,
                ..paper_like()
            },
        ];
        for s in tampered {
            assert_eq!(s.errors().len(), 1, "{s:?} should fail exactly one check");
        }
    }

    #[test]
    fn a_pass_that_hit_the_memo_or_changed_output_fails_whole() {
        let exp = Experiment::new().with_runs(2);
        let s = [
            figures::fig7(&exp, InputSize::Tiny),
            figures::fig8_at(&exp, InputSize::Tiny),
            figures::irregular(&exp, InputSize::Tiny),
        ];
        let d = digest(&s);
        let mut other = Digest::default();
        other.u64(1);
        let cold = MemoStats {
            lookups: 120,
            computes: 120,
            ..exp.memo_stats()
        };
        let warm = MemoStats {
            computes: 0,
            ..cold
        };
        // Shapes at Tiny are not the paper's, so compare only the
        // pass-level verdicts, which fail every cell.
        assert_eq!(check(&s, warm, d, &mut Some(d)), 120);
        assert_eq!(check(&s, cold, d, &mut Some(other)), 120);
        assert!(check(&s, cold, d, &mut Some(d)) < 120);
    }
}
