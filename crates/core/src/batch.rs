//! The §6.2 inter-job data-transfer model (the paper's Fig 14),
//! implemented.
//!
//! The paper observes that once UVM + Async Memcpy shrink transfer time,
//! allocation (`cudaMallocManaged` + `cudaFree`) becomes the bottleneck —
//! ~38% of the total — and proposes overlapping job *i+1*'s CPU-side
//! allocation with job *i*'s GPU work (the KaaS batch-processing setting).
//! [`InterJobPipeline`] evaluates that proposal: it schedules a batch of
//! jobs with and without the overlap on a two-stage (CPU, GPU) recurrence
//! and reports the throughput gain — the ">30% additional improvement" the
//! paper estimates.

use hetsim_counters::report::Table;
use hetsim_engine::time::Nanos;
use hetsim_runtime::{RunReport, Timeline};
use hetsim_trace::{Category, Dim, Trace, TraceBuilder, TraceConfig};

/// One job's stage costs in the batch pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobStages {
    /// CPU-side stage: allocation + free.
    pub cpu: Nanos,
    /// GPU-side stage: data transfer + kernel.
    pub gpu: Nanos,
}

impl JobStages {
    /// Derives the stages from a measured run report (the fixed system
    /// overhead is per-process, not per-job, and is excluded).
    pub fn from_report(report: &RunReport) -> Self {
        JobStages {
            cpu: report.alloc,
            gpu: report.memcpy + report.kernel,
        }
    }

    /// Sequential cost of the job.
    pub fn total(&self) -> Nanos {
        self.cpu + self.gpu
    }
}

/// The batch scheduler comparing the current model against the proposed
/// inter-job overlap.
#[derive(Debug, Clone)]
pub struct InterJobPipeline {
    jobs: Vec<JobStages>,
}

/// The outcome of scheduling one batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineEstimate {
    /// Total time without inter-job overlap (today's model: jobs strictly
    /// serialized).
    pub sequential: Nanos,
    /// Total time with job *i+1*'s CPU stage overlapped with job *i*'s GPU
    /// stage.
    pub pipelined: Nanos,
}

impl PipelineEstimate {
    /// Fractional improvement, `1 - pipelined / sequential`.
    pub fn improvement(&self) -> f64 {
        let s = self.sequential.as_nanos() as f64;
        if s == 0.0 {
            0.0
        } else {
            1.0 - self.pipelined.as_nanos() as f64 / s
        }
    }
}

impl InterJobPipeline {
    /// A batch of `count` identical jobs with the given stage costs.
    pub fn homogeneous(stages: JobStages, count: u32) -> Self {
        InterJobPipeline {
            jobs: vec![stages; count as usize],
        }
    }

    /// A batch of heterogeneous jobs.
    ///
    /// # Panics
    ///
    /// Panics if `jobs` is empty.
    pub fn new(jobs: Vec<JobStages>) -> Self {
        assert!(!jobs.is_empty(), "batch needs at least one job");
        InterJobPipeline { jobs }
    }

    /// The jobs.
    pub fn jobs(&self) -> &[JobStages] {
        &self.jobs
    }

    /// Records both schedules of the paper's Fig 14 as traces:
    /// `(without_overlap, with_overlap)`, each with a `cpu` and a `gpu`
    /// track carrying `alloc[i]` / `kernel[i]` spans.
    ///
    /// These traces are the single source of truth for the batch model —
    /// [`InterJobPipeline::estimate`] reads their horizons and
    /// [`InterJobPipeline::timelines`] renders them, so the summary numbers
    /// and the Gantt pictures can never drift apart.
    pub fn traces(&self) -> (Trace, Trace) {
        let cap = (2 * self.jobs.len()).max(1);

        // Today's model: jobs strictly serialized.
        let mut serial = TraceBuilder::new(TraceConfig::default().with_capacity(cap));
        let cpu = serial.track("cpu");
        let gpu = serial.track("gpu");
        let mut clock = 0u64;
        for (i, j) in self.jobs.iter().enumerate() {
            serial.set_label(Dim::Job, &i.to_string());
            serial.span_at(
                cpu,
                Category::Alloc,
                format!("alloc[{i}]"),
                clock,
                j.cpu.as_nanos(),
            );
            clock += j.cpu.as_nanos();
            serial.span_at(
                gpu,
                Category::Kernel,
                format!("kernel[{i}]"),
                clock,
                j.gpu.as_nanos(),
            );
            clock += j.gpu.as_nanos();
        }

        // The proposed two-stage pipeline: job *i*'s GPU stage may start
        // once its CPU stage is done *and* job *i-1*'s GPU stage has
        // drained; CPU stages run ahead on the otherwise-idle host.
        let mut piped = TraceBuilder::new(TraceConfig::default().with_capacity(cap));
        let cpu = piped.track("cpu");
        let gpu = piped.track("gpu");
        let mut cpu_free = 0u64; // when the host is next available
        let mut gpu_free = 0u64; // when the device is next available
        for (i, j) in self.jobs.iter().enumerate() {
            piped.set_label(Dim::Job, &i.to_string());
            piped.span_at(
                cpu,
                Category::Alloc,
                format!("alloc[{i}]"),
                cpu_free,
                j.cpu.as_nanos(),
            );
            let cpu_done = cpu_free + j.cpu.as_nanos();
            cpu_free = cpu_done;
            let gpu_start = cpu_done.max(gpu_free);
            piped.span_at(
                gpu,
                Category::Kernel,
                format!("kernel[{i}]"),
                gpu_start,
                j.gpu.as_nanos(),
            );
            gpu_free = gpu_start + j.gpu.as_nanos();
        }

        (serial.finish(), piped.finish())
    }

    /// Schedules the batch both ways, reading both totals off the recorded
    /// schedule traces.
    pub fn estimate(&self) -> PipelineEstimate {
        let (serial, piped) = self.traces();
        PipelineEstimate {
            sequential: Nanos::from_nanos(serial.horizon()),
            pipelined: Nanos::from_nanos(piped.horizon()),
        }
    }

    /// Renders the two schedules of the paper's Fig 14 as timelines:
    /// `(without_overlap, with_overlap)`, each with a `cpu` and a `gpu`
    /// lane — Gantt views over [`InterJobPipeline::traces`].
    pub fn timelines(&self) -> (Timeline, Timeline) {
        let (serial, piped) = self.traces();
        (Timeline::from_trace(&serial), Timeline::from_trace(&piped))
    }

    /// The estimates of every prefix batch (`jobs[..1]`, `jobs[..2]`, …)
    /// computed in one incremental pass over the job list.
    ///
    /// Both schedules extend monotonically: the sequential prefix total is
    /// a running sum, and the pipelined prefix total is the device's
    /// availability time `gpu_free` after job *n* — the kernel recurrence
    /// of [`InterJobPipeline::traces`] gives `gpu_free ≥ cpu_free` at
    /// every step (each GPU stage starts no earlier than its CPU stage
    /// finished), so `gpu_free` *is* the prefix schedule's horizon.
    /// Re-scheduling each prefix from scratch would be O(n²) in batch
    /// size; this pass is O(n) and produces identical numbers (pinned by
    /// a test against [`InterJobPipeline::estimate`]).
    pub fn prefix_estimates(&self) -> Vec<PipelineEstimate> {
        let mut out = Vec::with_capacity(self.jobs.len());
        let mut sequential = 0u64;
        let mut cpu_free = 0u64;
        let mut gpu_free = 0u64;
        for j in &self.jobs {
            sequential += j.total().as_nanos();
            cpu_free += j.cpu.as_nanos();
            gpu_free = cpu_free.max(gpu_free) + j.gpu.as_nanos();
            out.push(PipelineEstimate {
                sequential: Nanos::from_nanos(sequential),
                pipelined: Nanos::from_nanos(gpu_free),
            });
        }
        out
    }

    /// Renders the estimate for a range of batch sizes (prefixes of the
    /// job list).
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(vec!["jobs", "sequential_ns", "pipelined_ns", "improvement"]);
        for (n, e) in self.prefix_estimates().iter().enumerate() {
            t.row(vec![
                (n + 1).to_string(),
                e.sequential.as_nanos().to_string(),
                e.pipelined.as_nanos().to_string(),
                format!("{:.2}%", e.improvement() * 100.0),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(cpu_ms: u64, gpu_ms: u64) -> JobStages {
        JobStages {
            cpu: Nanos::from_millis(cpu_ms),
            gpu: Nanos::from_millis(gpu_ms),
        }
    }

    #[test]
    fn single_job_cannot_overlap() {
        let e = InterJobPipeline::homogeneous(job(40, 60), 1).estimate();
        assert_eq!(e.sequential, e.pipelined);
        assert_eq!(e.improvement(), 0.0);
    }

    #[test]
    fn long_batch_converges_to_bottleneck_stage() {
        // CPU 40ms, GPU 60ms: pipelined steady state is GPU-bound, so per
        // job the cost approaches 60ms instead of 100ms -> 40% improvement.
        let e = InterJobPipeline::homogeneous(job(40, 60), 100).estimate();
        let per_job = e.pipelined.as_nanos() as f64 / 100.0;
        assert!((per_job / 60e6 - 1.0).abs() < 0.01, "per job {per_job}");
        assert!(e.improvement() > 0.35, "{}", e.improvement());
    }

    #[test]
    fn cpu_bound_batches_are_cpu_limited() {
        let e = InterJobPipeline::homogeneous(job(80, 20), 50).estimate();
        let per_job = e.pipelined.as_nanos() as f64 / 50.0;
        assert!(per_job >= 80e6 * 0.99);
    }

    #[test]
    fn pipelined_never_slower_never_better_than_bound() {
        let jobs = vec![job(10, 90), job(50, 50), job(90, 10), job(30, 30)];
        let e = InterJobPipeline::new(jobs.clone()).estimate();
        assert!(e.pipelined <= e.sequential);
        // Lower bound: max of total CPU and total GPU work.
        let cpu: Nanos = jobs.iter().map(|j| j.cpu).sum();
        let gpu: Nanos = jobs.iter().map(|j| j.gpu).sum();
        assert!(e.pipelined >= cpu.max(gpu));
    }

    #[test]
    fn paper_shape_thirty_percent_headroom() {
        // §6: allocation ~37.66% and GPU work ~62% of the post-UVM+async
        // breakdown; overlapping them should buy >30%.
        let e = InterJobPipeline::homogeneous(job(377, 623), 64).estimate();
        assert!(
            e.improvement() > 0.3,
            "improvement {:.3} should exceed 30%",
            e.improvement()
        );
    }

    #[test]
    fn timelines_match_estimates() {
        let p = InterJobPipeline::homogeneous(job(40, 60), 4);
        let (serial, piped) = p.timelines();
        let est = p.estimate();
        assert_eq!(
            serial.horizon().as_nanos(),
            est.sequential.as_nanos(),
            "serial timeline horizon equals the sequential estimate"
        );
        assert_eq!(
            piped.horizon().as_nanos(),
            est.pipelined.as_nanos(),
            "pipelined timeline horizon equals the pipelined estimate"
        );
        // Two lanes, four jobs each.
        assert_eq!(serial.len(), 8);
        assert!(piped.render(60).contains("cpu"));
    }

    fn span(trace: &Trace, name: &str) -> (u64, u64) {
        let e = trace
            .events()
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("no span named {name}"));
        (e.ts, e.end())
    }

    #[test]
    fn fig14_trace_shows_interjob_overlap() {
        let p = InterJobPipeline::homogeneous(job(40, 60), 3);
        let (serial, piped) = p.traces();
        // Without overlap, job 1's allocation waits for job 0's kernel.
        let (_, k0_end) = span(&serial, "kernel[0]");
        let (a1_start, _) = span(&serial, "alloc[1]");
        assert_eq!(a1_start, k0_end, "serial: next alloc waits for the kernel");
        // With the proposed pipeline, it runs during job 0's kernel.
        let (k0s, k0e) = span(&piped, "kernel[0]");
        let (a1s, a1e) = span(&piped, "alloc[1]");
        assert!(a1s < k0e && a1e > k0s, "piped: alloc[1] overlaps kernel[0]");
        // The trace carries the accounting categories, so exported batch
        // traces participate in category totals like everything else.
        assert_eq!(
            piped.category_total(Category::Kernel),
            Nanos::from_millis(3 * 60).as_nanos()
        );
        assert_eq!(
            piped.category_total(Category::Alloc),
            Nanos::from_millis(3 * 40).as_nanos()
        );
    }

    #[test]
    fn table_rows_per_prefix() {
        let p = InterJobPipeline::homogeneous(job(10, 10), 4);
        assert_eq!(p.to_table().len(), 4);
        assert_eq!(p.jobs().len(), 4);
    }

    #[test]
    fn incremental_prefixes_match_scratch_schedules() {
        // Heterogeneous stage mixes exercise both the CPU-bound and the
        // GPU-bound branches of the pipelined recurrence.
        let jobs = vec![
            job(10, 90),
            job(50, 50),
            job(90, 10),
            job(30, 30),
            job(1, 200),
            job(200, 1),
        ];
        let p = InterJobPipeline::new(jobs.clone());
        let incremental = p.prefix_estimates();
        assert_eq!(incremental.len(), jobs.len());
        for n in 1..=jobs.len() {
            let scratch = InterJobPipeline::new(jobs[..n].to_vec()).estimate();
            assert_eq!(incremental[n - 1], scratch, "prefix {n}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one job")]
    fn empty_batch_rejected() {
        let _ = InterJobPipeline::new(vec![]);
    }
}
