//! `serve_steady` and `serve_chaos`: a prewarmed 64-GPU NVLink fleet at
//! Large inputs playing open-loop arrival plans.
//!
//! Arrivals are open loop in simulated time, from a schedule seeded by
//! the benchmark seed; the host plays the cells one after another. The
//! library receives only the derived seeds.

use crate::layers::{self, ReplayCheck};
use crate::report::{self, derive_seed, mean, median, rate, Digest, HostTimer, Metric};
use crate::span::Tracer;
use crate::speed::HostSpeed;
use crate::Outcome;
use hetsim::memo::MemoStats;
use hetsim::prelude::*;
use hetsim::runtime::{HealthTimeline, RunReport};
use hetsim::workloads::spec::Workload;
use hetsim_serve::{
    ArrivalMix, ArrivalPlan, ClusterTopology, Fleet, FleetOutcome, ModeCosts, PolicyKind,
    PolicyReport, Request, ResilienceConfig, ServeConfig,
};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

const GPUS: usize = 64;
const SIZE: InputSize = InputSize::Large;
/// The CLI's default arrival rate.
const RATE_RPS: f64 = 100.0;
/// Fleet prewarms timed before every pass; `setup_s` is their median.
const SETUP_SAMPLES_PER_PASS: usize = 3;

/// Which serve workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Steady,
    Chaos,
}

impl Kind {
    /// Offered requests per cell.
    fn requests(self) -> u64 {
        match self {
            Kind::Steady => 40_000,
            Kind::Chaos => 16_000,
        }
    }

    /// Probe rounds before each cell, about a sixth of the cell's time.
    fn probe_rounds(self) -> u32 {
        match self {
            Kind::Steady => 2,
            Kind::Chaos => 12,
        }
    }

    pub fn params(self) -> String {
        let cells = match self {
            Kind::Steady => "\"policies\": \"all five\", \"mixes\": [\"poisson\", \"bursty\"]",
            Kind::Chaos => {
                "\"policies\": [\"slo_deadline\", \"chaos_failover\"], \"mixes\": [\"poisson\"], \
                 \"intensities\": [0.5, 1.0], \"slo_budget_ms\": 50"
            }
        };
        format!(
            "{{\"gpus\": {GPUS}, \"topology\": \"nvlink_mesh\", \"size\": \"{}\", \"rate_rps\": {RATE_RPS}, \
             \"requests_per_cell\": {}, {cells}, \"setup\": \"{SETUP_SAMPLES_PER_PASS} fresh fleet prewarms before every pass\"}}",
            SIZE.name(),
            self.requests(),
        )
    }
}

/// One serving cell: a config, plus a fault plan on the chaos workload.
struct Cell {
    config: ServeConfig,
    res: Option<ResilienceConfig>,
}

fn cells(kind: Kind, seed: u64) -> Vec<Cell> {
    let mix = |name| ArrivalMix::by_name(name, RATE_RPS).expect("shipped mix");
    let mut out = Vec::new();
    // Cell `i` takes stream `2i` for its arrival/policy seed and, under
    // chaos at `intensity`, stream `2i + 1` for its fault plan.
    let mut push = |policy, mix_name, intensity: Option<f64>| {
        let i = out.len() as u64;
        out.push(Cell {
            config: ServeConfig {
                policy,
                mix: mix(mix_name),
                seed: derive_seed(seed, 2 * i),
                requests: kind.requests(),
            },
            res: intensity.map(|x| ResilienceConfig::at_intensity(derive_seed(seed, 2 * i + 1), x)),
        });
    };
    match kind {
        Kind::Steady => {
            for m in ["poisson", "bursty"] {
                for p in PolicyKind::ALL {
                    push(p, m, None);
                }
            }
        }
        Kind::Chaos => {
            for p in [PolicyKind::SloDeadline, PolicyKind::ChaosFailover] {
                for intensity in [0.5, 1.0] {
                    push(p, "poisson", Some(intensity));
                }
            }
        }
    }
    out
}

fn play(fleet: &Fleet, cell: &Cell) -> FleetOutcome {
    match &cell.res {
        Some(res) => fleet.serve_resilient(&cell.config, res),
        None => fleet.serve(&cell.config),
    }
}

/// The per-cell output check: every offered request is either completed
/// or shed, and the simulated figures are in range.
pub fn cell_errors(r: &PolicyReport, requests: u64) -> Vec<String> {
    let mut e = Vec::new();
    if r.offered as u64 != requests {
        e.push(format!("offered {} of {requests} requests", r.offered));
    }
    if r.completed + r.shed != r.offered {
        e.push(format!(
            "completed {} + shed {} != offered {}",
            r.completed, r.shed, r.offered
        ));
    }
    if !(0.0..=1.0).contains(&r.slo_attainment) || !r.goodput_rps.is_finite() || r.goodput_rps < 0.0
    {
        e.push(format!(
            "slo_attainment {} / goodput {} out of range",
            r.slo_attainment, r.goodput_rps
        ));
    }
    e
}

/// Sums over the cells of one pass.
#[derive(Debug, Clone, Default)]
struct Totals {
    offered: u64,
    completed: u64,
    shed: u64,
    deadline_misses: u64,
    failovers: u64,
    hedges: u64,
    horizon_s: f64,
    lifecycle_events: u64,
}

impl Totals {
    fn add(&mut self, o: &FleetOutcome) {
        let r = &o.report;
        self.offered += r.offered as u64;
        self.completed += r.completed as u64;
        self.shed += r.shed as u64;
        self.deadline_misses += r.deadline_misses as u64;
        self.failovers += r.failovers as u64;
        self.hedges += r.hedges as u64;
        self.horizon_s += r.horizon.as_secs_f64();
        self.lifecycle_events += o.lifecycle.len() as u64;
    }

    /// Completed requests per simulated second of fleet horizon.
    fn goodput(&self) -> f64 {
        rate(self.completed as f64, self.horizon_s)
    }

    /// Requests that completed within their deadline, per offered.
    fn slo_attainment(&self) -> f64 {
        report::frac(
            self.completed.saturating_sub(self.deadline_misses) as f64,
            self.offered as f64,
        )
    }
}

/// One played pass over every cell.
struct Pass {
    secs: f64,
    failed: u64,
    totals: Totals,
    memo: MemoStats,
    outcomes: Vec<Option<FleetOutcome>>,
    /// Memo lookups each cell made, which its replay must reproduce.
    lookups: Vec<u64>,
}

/// Plays every cell once, with `probe_rounds` probe rounds before each;
/// the pass's time leaves the probe out.
fn checked_pass(
    fleet: &Fleet,
    exp: &Experiment,
    cells: &[Cell],
    (speed, probe_rounds): (&mut HostSpeed, u32),
    t: &mut Tracer,
    first: &mut Option<Digest>,
) -> Pass {
    let before = exp.memo_stats();
    let t0 = HostTimer::start();
    let mut probe_s = 0.0;
    let (mut failed, mut digest, mut totals) = (0, Digest::default(), Totals::default());
    let mut outcomes = Vec::with_capacity(cells.len());
    let mut lookups = Vec::with_capacity(cells.len());
    t.span("bench.pass", None, |t| {
        for (id, cell) in cells.iter().enumerate() {
            probe_s += t.span("speed.probe", Some(id as u64), |_| {
                speed.probe(probe_rounds)
            });
            let from = exp.memo_stats().lookups;
            let played = t.span("serve.cell", Some(id as u64), |_| {
                catch_unwind(AssertUnwindSafe(|| play(fleet, cell)))
            });
            lookups.push(exp.memo_stats().lookups - from);
            let Ok(o) = played else {
                failed += 1;
                outcomes.push(None);
                continue;
            };
            let json = t.span("serve.report_json", Some(id as u64), |_| {
                o.report.to_json_value()
            });
            digest.bytes(json.as_bytes());
            let errors = cell_errors(&o.report, cell.config.requests);
            if !errors.is_empty() {
                eprintln!("perfbench: serve cell {id} failed: {}", errors.join("; "));
                failed += 1;
            }
            totals.add(&o);
            outcomes.push(Some(o));
        }
    });
    let secs = t0.secs() - probe_s;
    let memo = memo_delta(exp.memo_stats(), before);
    let same = *first.get_or_insert(digest) == digest;
    if memo.computes != 0 || !same {
        eprintln!(
            "perfbench: serve pass failed: {} memo misses after prewarm, output repeats: {same}",
            memo.computes
        );
        failed = cells.len() as u64;
    }
    Pass {
        secs,
        failed,
        totals,
        memo,
        outcomes,
        lookups,
    }
}

fn memo_delta(after: MemoStats, before: MemoStats) -> MemoStats {
    MemoStats {
        entries: after.entries,
        lookups: after.lookups - before.lookups,
        computes: after.computes - before.computes,
        lookup_ns: after.lookup_ns - before.lookup_ns,
        compute_ns: after.compute_ns - before.compute_ns,
    }
}

/// A fleet prewarmed through an experiment the benchmark keeps a handle
/// on (clones share the memo), so memo counters stay observable.
fn prewarm() -> (Fleet, Experiment) {
    let exp = Experiment::new();
    let fleet = Fleet::with_experiment(ClusterTopology::nvlink_mesh(GPUS), SIZE, exp.clone());
    (fleet, exp)
}

pub fn run(kind: Kind, seed: u64, seconds: u64, traced: bool) -> Outcome {
    let budget = Duration::from_secs(seconds);
    let cells = cells(kind, seed);
    let n_cells = cells.len() as u64;
    let mut first = None;
    let (mut attempted, mut failed) = (0, 0);
    let mut t = Tracer::new(false);
    let mut speed = HostSpeed::new();
    let probe_rounds = kind.probe_rounds();
    if !traced {
        // Every pass plays on a freshly prewarmed fleet, the last of
        // `SETUP_SAMPLES_PER_PASS`, so the set-up samples span the run as
        // the passes do.
        let (mut setup, mut times) = (Vec::new(), Vec::new());
        let start = Instant::now();
        let mut totals = Totals::default();
        while times.is_empty() || start.elapsed() < budget {
            let mut warm = None;
            for _ in 0..SETUP_SAMPLES_PER_PASS {
                // Drop the previous fleet first, so only one is resident.
                drop(warm.take());
                let t0 = HostTimer::start();
                warm = Some(prewarm());
                setup.push(t0.secs());
            }
            let (fleet, exp) = warm.expect("at least one prewarm");
            let probe = (&mut speed, probe_rounds);
            let p = checked_pass(&fleet, &exp, &cells, probe, &mut t, &mut first);
            times.push(p.secs);
            attempted += n_cells;
            failed += p.failed;
            totals = p.totals;
        }
        eprintln!(
            "perfbench: pass host seconds {times:.4?}, host slowdown {:.3}",
            speed.slowdown()
        );
        // The mean, so that the pass time and the probe's slowdown are
        // both taken over the whole run.
        let pass_s = mean(&times);
        let mut metrics = vec![
            Metric::new("setup_s", median(&setup), "s"),
            Metric::new("cells_per_s", rate(n_cells as f64, pass_s), "1/s"),
            Metric::new("requests_per_s", rate(totals.offered as f64, pass_s), "1/s"),
            Metric::new("peak_rss_mb", report::peak_rss_mb(), "MiB"),
            Metric::new("sim_goodput_rps", totals.goodput(), "1/sim_s"),
            Metric::new("sim_slo_attainment", totals.slo_attainment(), "ratio"),
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

    // Traced run: prewarm once under a span and replay its grid, then
    // alternate untraced and traced passes, then replay each cell's
    // layer calls.
    t.set_enabled(true);
    let wall = Instant::now();
    let ((fleet, exp), prewarm_s) = t.timed("serve.prewarm", |_| prewarm());
    let prewarm_wall_s = wall.elapsed().as_secs_f64();
    let prewarm_memo = exp.memo_stats();
    let workloads = catalog_workloads();
    let grid: Vec<(&Workload, TransferMode)> = ArrivalPlan::full_catalog()
        .iter()
        .flat_map(|n| TransferMode::ALL.map(|m| (&workloads[n], m)))
        .collect();
    let g = t.span("bench.replay", None, |t| layers::replay_grid(t, &grid, 0));

    let start = Instant::now();
    let (mut plain, mut traced_times) = (Vec::new(), Vec::new());
    let mut last = None;
    while plain.is_empty() || start.elapsed() < budget / 2 {
        for on in crate::span::pair_order(plain.len()) {
            t.set_enabled(on);
            let from = t.spans().len();
            let probe = (&mut speed, probe_rounds);
            let p = checked_pass(&fleet, &exp, &cells, probe, &mut t, &mut first);
            attempted += n_cells;
            failed += p.failed;
            if on {
                traced_times.push(p.secs);
                last = Some((from, p));
            } else {
                plain.push(p.secs);
            }
        }
    }
    t.set_enabled(true);
    let (from, pass) = last.expect("at least one traced pass");
    let cell_s = t.total_s("serve.cell", from);
    let report_json_s = t.total_s("serve.report_json", from);
    let r = t.span("bench.replay", None, |t| {
        replay_cells(t, &exp, &workloads, &cells, &pass)
    });
    // A replay that no longer does the fleet's work fails the run.
    for check in [g.check, r.check] {
        attempted += check.checked;
        failed += check.mismatched;
    }

    let mut metrics = layers::layer_metrics(&g, r.noise_s, r.noise_calls);
    metrics.extend(layers::core_metrics(
        pass.memo,
        prewarm_wall_s,
        prewarm_memo,
    ));
    metrics.extend(serve_metrics(
        prewarm_s,
        cell_s,
        report_json_s,
        &r,
        &pass.totals,
    ));
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

/// The `serve.*` and `chaos.*` per-layer metrics of a workload that does
/// not serve.
pub fn zero_metrics() -> Vec<Metric> {
    serve_metrics(0.0, 0.0, 0.0, &CellReplay::default(), &Totals::default())
}

/// The `serve.*` and `chaos.*` per-layer metrics.
fn serve_metrics(
    prewarm_s: f64,
    cell_s: f64,
    report_json_s: f64,
    r: &CellReplay,
    tot: &Totals,
) -> Vec<Metric> {
    let replayed = [
        r.arrival_gen_s,
        r.cost_lookup_s,
        r.timeline_gen_s,
        r.timeline_query_s,
    ];
    let count = |n: u64| n as f64;
    vec![
        Metric::new("serve.prewarm_s", prewarm_s, "s"),
        Metric::new("serve.arrival_gen_s", r.arrival_gen_s, "s"),
        Metric::new("serve.cell_s", cell_s, "s"),
        Metric::new("serve.cost_lookup_s", r.cost_lookup_s, "s"),
        Metric::new("serve.cost_lookups", count(r.cost_lookups), "count"),
        Metric::new("serve.self_s", report::self_time(cell_s, &replayed), "s"),
        Metric::new("serve.report_json_s", report_json_s, "s"),
        Metric::new("serve.completed", count(tot.completed), "count"),
        Metric::new("serve.shed", count(tot.shed), "count"),
        Metric::new("serve.failovers", count(tot.failovers), "count"),
        Metric::new("serve.hedges", count(tot.hedges), "count"),
        Metric::new("serve.deadline_misses", count(tot.deadline_misses), "count"),
        Metric::new(
            "serve.completed_frac",
            report::frac(count(tot.completed), count(tot.offered)),
            "ratio",
        ),
        Metric::new("chaos.timeline_gen_s", r.timeline_gen_s, "s"),
        Metric::new(
            "chaos.lifecycle_events",
            count(tot.lifecycle_events),
            "count",
        ),
        Metric::new("chaos.timeline_query_s", r.timeline_query_s, "s"),
        Metric::new("chaos.timeline_queries", count(r.timeline_queries), "count"),
    ]
}

/// Replayed layer calls of every cell of a traced pass.
#[derive(Debug, Default)]
struct CellReplay {
    arrival_gen_s: f64,
    cost_lookup_s: f64,
    cost_lookups: u64,
    noise_s: f64,
    noise_calls: u64,
    timeline_gen_s: f64,
    timeline_query_s: f64,
    timeline_queries: u64,
    /// Per cell: its cost lookups, and on chaos cells its lifecycle
    /// events, against the fleet's.
    check: ReplayCheck,
}

/// The serving catalog's workloads at the fleet's input size.
fn catalog_workloads() -> HashMap<&'static str, Workload> {
    ArrivalPlan::full_catalog()
        .into_iter()
        .map(|n| {
            let w = suite::by_name(n, SIZE).expect("catalog names are registered");
            (n, w)
        })
        .collect()
}

/// Replays, per cell, the arrival generation, the per-request cost
/// lookups the fleet makes (`Experiment::base_run` plus `apply_noise`
/// for every ladder mode, and once more for the placed mode), the noise
/// alone on the same requests, and on the chaos workload the health
/// timeline and its per-request, per-device snapshot queries. Each cell's
/// lookup count and lifecycle-event count are checked against the
/// fleet's.
fn replay_cells(
    t: &mut Tracer,
    exp: &Experiment,
    workloads: &HashMap<&'static str, Workload>,
    cells: &[Cell],
    pass: &Pass,
) -> CellReplay {
    let catalog = ArrivalPlan::full_catalog();
    let bases: HashMap<(&str, TransferMode), RunReport> = catalog
        .iter()
        .flat_map(|&n| TransferMode::ALL.map(|m| ((n, m), exp.base_run(&workloads[n], m))))
        .collect();
    let mut r = CellReplay::default();
    for (id, (cell, outcome)) in cells.iter().zip(&pass.outcomes).enumerate() {
        let Some(o) = outcome else { continue };
        t.span("bench.cell", Some(id as u64), |t| {
            let c = &cell.config;
            let budget = cell
                .res
                .map_or(ArrivalPlan::DEFAULT_SLO_BUDGET, |res| res.slo_budget);
            let (plan, s) = t.timed("serve.arrival_gen", |_| {
                ArrivalPlan::generate_with_deadline(
                    c.mix, c.seed, c.requests, &catalog, SIZE, budget,
                )
            });
            r.arrival_gen_s += s;

            // The placed mode of a request shed after admission is not
            // reported; its one lookup is replayed on the first rung.
            let mut placed: HashMap<u64, TransferMode> =
                o.completed.iter().map(|q| (q.id, q.mode)).collect();
            for s in &o.shed {
                if matches!(s.reason, "deadline_exhausted" | "fleet_unavailable") {
                    placed.insert(s.id, ModeCosts::LADDER[0]);
                }
            }
            let lookups = |q: &Request| ModeCosts::LADDER.iter().chain(placed.get(&q.id)).copied();
            let (n, s) = t.timed("serve.cost_lookup", |_| {
                let mut n = 0;
                for q in &plan.requests {
                    let w = &workloads[q.workload];
                    for mode in lookups(q) {
                        let base = exp.base_run(w, mode);
                        std::hint::black_box(exp.runner().apply_noise(&base, w, mode, q.id));
                        n += 1;
                    }
                }
                n
            });
            r.cost_lookup_s += s;
            r.cost_lookups += n;
            r.check
                .expect(&format!("cost lookups of cell {id}"), pass.lookups[id], n);
            let ((), s) = t.timed("runtime.noise", |_| {
                for q in &plan.requests {
                    let w = &workloads[q.workload];
                    for mode in lookups(q) {
                        let base = &bases[&(q.workload, mode)];
                        std::hint::black_box(exp.runner().apply_noise(base, w, mode, q.id));
                    }
                }
            });
            r.noise_s += s;
            r.noise_calls += n;

            let Some(res) = cell.res else { return };
            let last = plan.requests.last().map_or(Nanos::ZERO, |q| q.arrival);
            let p = &res.plan;
            let horizon = last + res.slo_budget + p.degrade_lead + p.repair + p.drain + p.cooldown;
            let (tl, s) = t.timed("chaos.timeline_gen", |_| {
                HealthTimeline::generate(p, GPUS, horizon)
            });
            r.timeline_gen_s += s;
            r.check.expect(
                &format!("lifecycle events of cell {id}"),
                o.lifecycle.len(),
                tl.events().len(),
            );
            if tl.is_empty() {
                return;
            }
            let ((), s) = t.timed("chaos.timeline_query", |_| {
                for q in &plan.requests {
                    for d in 0..GPUS {
                        std::hint::black_box(tl.capacity_factor(d, q.arrival));
                        std::hint::black_box(tl.state(d, q.arrival));
                    }
                }
            });
            r.timeline_query_s += s;
            r.timeline_queries += 2 * (GPUS * plan.requests.len()) as u64;
        });
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_output_check_rejects_a_tampered_outcome() {
        let fleet = Fleet::nvlink(2, InputSize::Tiny);
        let config = ServeConfig {
            policy: PolicyKind::ModePacking,
            mix: ArrivalMix::by_name("poisson", RATE_RPS).expect("shipped mix"),
            seed: 3,
            requests: 40,
        };
        let o = fleet.serve(&config);
        assert!(cell_errors(&o.report, 40).is_empty());

        let mut lost = o.report.clone();
        lost.completed -= 1;
        assert_eq!(cell_errors(&lost, 40).len(), 1);
        let mut short = o.report.clone();
        short.offered -= 1;
        assert!(!cell_errors(&short, 40).is_empty());
        let mut slo = o.report.clone();
        slo.slo_attainment = 1.5;
        assert_eq!(cell_errors(&slo, 40).len(), 1);
    }

    #[test]
    fn a_replay_that_disagrees_with_the_fleet_fails_the_run() {
        let (fleet, exp) = prewarm();
        // Short slo_deadline cells at intensity 0.5 and 1.0.
        let cells: Vec<Cell> = cells(Kind::Chaos, 5)
            .into_iter()
            .take(2)
            .map(|mut c| {
                c.config.requests = 200;
                c
            })
            .collect();
        let mut t = Tracer::new(false);
        let probe = (&mut HostSpeed::new(), 0);
        let mut pass = checked_pass(&fleet, &exp, &cells, probe, &mut t, &mut None);
        assert_eq!(pass.failed, 0);
        let workloads = catalog_workloads();
        let r = replay_cells(&mut t, &exp, &workloads, &cells, &pass);
        // Per cell: its cost lookups and its lifecycle events.
        assert_eq!(r.check.checked, 4);
        assert_eq!(r.check.mismatched, 0);
        assert_eq!(r.cost_lookups, pass.lookups.iter().sum::<u64>());

        pass.lookups[0] += 1;
        let o = pass.outcomes[1].as_mut().expect("the cell played");
        assert!(!o.lifecycle.is_empty());
        o.lifecycle.pop();
        let r = replay_cells(&mut t, &exp, &workloads, &cells, &pass);
        assert_eq!(r.check.mismatched, 2);
    }

    #[test]
    fn cell_seeds_come_from_the_benchmark_seed() {
        let a = cells(Kind::Chaos, 1);
        let b = cells(Kind::Chaos, 2);
        assert_eq!(a.len(), 4);
        assert_eq!(cells(Kind::Steady, 1).len(), 10);
        assert_ne!(a[0].config.seed, b[0].config.seed);
        assert_ne!(a[0].config.seed, a[1].config.seed);
        let fault = |c: &Cell| c.res.expect("chaos cells carry a fault plan").plan.seed;
        assert_ne!(fault(&a[0]), fault(&b[0]));
        assert_ne!(fault(&a[0]), a[0].config.seed);
        assert_eq!(cells(Kind::Chaos, 1)[3].config.seed, a[3].config.seed);
    }
}
