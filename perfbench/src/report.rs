//! Metrics, the derived-metric formulas, the result line, and the
//! simulated-output digest.

use std::fmt::Write as _;
use std::time::Instant;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Whether `name` is a legal metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// The last line of a run: `correct`, `attempted`, `failed`, `metrics`.
///
/// # Panics
///
/// Panics on an invalid name, a repeated name, or a non-finite value:
/// each is a bug in the benchmark, not a property of the measured code.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        assert!(valid_name(&m.name), "invalid metric name `{}`", m.name);
        assert!(
            metrics[..i].iter().all(|o| o.name != m.name),
            "metric `{}` reported twice",
            m.name
        );
        assert!(m.value.is_finite(), "metric `{}` is {}", m.name, m.value);
        if i > 0 {
            body.push_str(", ");
        }
        let _ = write!(
            body,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The mean of a non-empty sample.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of an empty sample");
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// `count / seconds`, zero for an empty interval.
pub fn rate(count: f64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        count / seconds
    } else {
        0.0
    }
}

/// `part / whole`, zero for an empty whole.
pub fn frac(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// A layer's self time: its measured total minus the time attributed to
/// the layers it calls.
pub fn self_time(total_s: f64, children_s: &[f64]) -> f64 {
    total_s - children_s.iter().sum::<f64>()
}

/// Extra wall time of the traced run, as a fraction of the untraced run.
pub fn trace_overhead(traced_s: f64, untraced_s: f64) -> f64 {
    frac(traced_s - untraced_s, untraced_s)
}

/// Host time of the work between [`HostTimer::start`] and
/// [`HostTimer::secs`].
///
/// With one pool thread all work runs on the calling thread, and the
/// timer reads that thread's CPU time, which leaves out the time other
/// tenants of a shared machine hold the CPU. With more threads, or where
/// the thread clock is unavailable, it reads wall time.
pub struct HostTimer {
    wall: Instant,
    cpu: Option<f64>,
}

impl HostTimer {
    pub fn start() -> HostTimer {
        let cpu = if hetsim::pool::configured_threads() == 1 {
            thread_cpu_s()
        } else {
            None
        };
        HostTimer {
            wall: Instant::now(),
            cpu,
        }
    }

    pub fn secs(&self) -> f64 {
        match (self.cpu, thread_cpu_s()) {
            (Some(start), Some(now)) => now - start,
            _ => self.wall.elapsed().as_secs_f64(),
        }
    }
}

/// Which clock [`HostTimer`] uses in this process.
pub fn host_clock() -> &'static str {
    if HostTimer::start().cpu.is_some() {
        "thread_cpu"
    } else {
        "wall"
    }
}

/// The calling thread's CPU time in seconds (`CLOCK_THREAD_CPUTIME_ID`).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn thread_cpu_s() -> Option<f64> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: on 64-bit Linux `struct timespec` is two 64-bit integers,
    // matching `Timespec`; `ts` is a valid, exclusively borrowed value and
    // `clock_gettime` writes only within it.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn thread_cpu_s() -> Option<f64> {
    None
}

/// Peak resident set of this process (`VmHWM`), in MiB; zero where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// FNV-1a over every simulated output a run produced. Printed for
/// information: equal digests at two commits mean equal outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// SplitMix64: derives independent per-cell seeds from the benchmark seed.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_contract() {
        for ok in [
            "setup_s",
            "gpu.execute_s",
            "runtime.run_base_s.uvm_prefetch",
            "a-b",
            "9x",
        ] {
            assert!(valid_name(ok), "{ok} should be valid");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            ".lead",
            "_lead",
            "has space",
            "quote\"",
            "slash/s",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad:?} should be invalid");
        }
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(true, 3, 0, &[Metric::new("cells_per_s", 1.5, "1/s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"cells_per_s\": {\"value\": 1.5, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn result_line_rejects_a_bad_name() {
        result_line(true, 1, 0, &[Metric::new("bad name", 1.0, "s")]);
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn result_line_rejects_a_repeated_name() {
        let m = Metric::new("x", 1.0, "s");
        result_line(true, 1, 0, &[m.clone(), m]);
    }

    #[test]
    #[should_panic(expected = "is NaN")]
    fn result_line_rejects_a_non_finite_value() {
        result_line(true, 1, 0, &[Metric::new("x", f64::NAN, "s")]);
    }

    #[test]
    fn derived_formulas() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(rate(120.0, 2.0), 60.0);
        assert_eq!(rate(5.0, 0.0), 0.0);
        assert_eq!(frac(1.0, 4.0), 0.25);
        assert_eq!(frac(1.0, 0.0), 0.0);
        assert!((self_time(1.0, &[0.25, 0.5]) - 0.25).abs() < 1e-12);
        assert!((trace_overhead(1.1, 1.0) - 0.1).abs() < 1e-12);
        assert!((trace_overhead(0.9, 1.0) + 0.1).abs() < 1e-12);
    }

    #[test]
    fn digest_is_order_sensitive_and_seeds_are_spread() {
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.bytes(b"ab");
        b.bytes(b"ba");
        assert_ne!(a, b);
        assert_eq!(Digest::default().hex().len(), 16);
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
    }

    #[test]
    fn host_timer_counts_work() {
        let t = HostTimer::start();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(t.secs() > 0.0);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
