//! [`MetricsRegistry`] — named counter time series derived from a trace,
//! with labeled dimensions.
//!
//! Counters are recorded as raw samples ([`Category::Counter`] events);
//! the registry groups them by name and answers the questions reports
//! need: the latest value, the peak, and a resampled series on a regular
//! sim-time grid for plotting. Each sample also keeps the label set it
//! was stamped with at record time, so fleet-scale slices — per mode, per
//! stream, per job — are one [`series_where`](MetricsRegistry::series_where)
//! or [`group_by`](MetricsRegistry::group_by) call away.
//!
//! [`Category::Counter`]: crate::Category::Counter

use crate::event::EventKind;
use crate::json::{escape, number};
use crate::label::Dim;
use crate::trace::Trace;
use std::collections::BTreeMap;

/// A resolved, sorted label key: `(dim, value)` pairs in [`Dim::ALL`]
/// order. Empty for unlabeled samples.
pub type LabelKey = Vec<(Dim, String)>;

/// Named counter series snapshotted from a [`Trace`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    series: BTreeMap<String, Vec<(u64, f64)>>,
    labeled: BTreeMap<(String, LabelKey), Vec<(u64, f64)>>,
}

impl MetricsRegistry {
    /// Collects every counter sample in `trace` into per-name series,
    /// sorted by timestamp (stable for equal timestamps), and into
    /// per-`(name, labels)` series for dimensional queries.
    pub fn from_trace(trace: &Trace) -> Self {
        let mut series: BTreeMap<String, Vec<(u64, f64)>> = BTreeMap::new();
        let mut labeled: BTreeMap<(String, LabelKey), Vec<(u64, f64)>> = BTreeMap::new();
        for ev in trace.events() {
            if let EventKind::Counter { value } = ev.kind {
                series
                    .entry(ev.name.to_string())
                    .or_default()
                    .push((ev.ts, value));
                let key: LabelKey = trace.labels(ev).map(|(d, v)| (d, v.to_string())).collect();
                labeled
                    .entry((ev.name.to_string(), key))
                    .or_default()
                    .push((ev.ts, value));
            }
        }
        for samples in series.values_mut() {
            samples.sort_by_key(|&(ts, _)| ts);
        }
        for samples in labeled.values_mut() {
            samples.sort_by_key(|&(ts, _)| ts);
        }
        MetricsRegistry { series, labeled }
    }

    /// Counter names, in sorted order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.series.keys().map(String::as_str)
    }

    /// The raw samples of one counter (all label slices merged).
    pub fn series(&self, name: &str) -> &[(u64, f64)] {
        self.series.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The distinct label keys under which `name` was sampled, in sorted
    /// order. An empty key means unlabeled samples exist.
    pub fn label_keys(&self, name: &str) -> Vec<&LabelKey> {
        self.labeled
            .keys()
            .filter(|(n, _)| n == name)
            .map(|(_, key)| key)
            .collect()
    }

    /// The distinct values one dimension takes across all samples of
    /// `name`, sorted.
    pub fn label_values(&self, name: &str, dim: Dim) -> Vec<&str> {
        let mut values: Vec<&str> = self
            .labeled
            .keys()
            .filter(|(n, _)| n == name)
            .flat_map(|(_, key)| key.iter())
            .filter(|(d, _)| *d == dim)
            .map(|(_, v)| v.as_str())
            .collect();
        values.sort_unstable();
        values.dedup();
        values
    }

    /// The samples of `name` whose labels match *every* `(dim, value)`
    /// filter, merged across the matching slices and sorted by timestamp.
    /// An empty filter list returns the same data as
    /// [`series`](MetricsRegistry::series).
    pub fn series_where(&self, name: &str, filters: &[(Dim, &str)]) -> Vec<(u64, f64)> {
        let mut out: Vec<(u64, f64)> = Vec::new();
        for ((n, key), samples) in &self.labeled {
            if n != name {
                continue;
            }
            let matches = filters
                .iter()
                .all(|(fd, fv)| key.iter().any(|(d, v)| d == fd && v == fv));
            if matches {
                out.extend_from_slice(samples);
            }
        }
        out.sort_by_key(|&(ts, _)| ts);
        out
    }

    /// Groups the samples of `name` by the value of one dimension:
    /// `dim value → merged sorted series`. Samples that don't carry `dim`
    /// are grouped under `"(unset)"`.
    pub fn group_by(&self, name: &str, dim: Dim) -> BTreeMap<String, Vec<(u64, f64)>> {
        let mut out: BTreeMap<String, Vec<(u64, f64)>> = BTreeMap::new();
        for ((n, key), samples) in &self.labeled {
            if n != name {
                continue;
            }
            let value = key
                .iter()
                .find(|(d, _)| *d == dim)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| "(unset)".to_string());
            out.entry(value).or_default().extend_from_slice(samples);
        }
        for samples in out.values_mut() {
            samples.sort_by_key(|&(ts, _)| ts);
        }
        out
    }

    /// The last recorded value of one counter.
    pub fn last(&self, name: &str) -> Option<f64> {
        self.series(name).last().map(|&(_, v)| v)
    }

    /// The maximum recorded value of one counter.
    pub fn peak(&self, name: &str) -> Option<f64> {
        self.series(name)
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Resamples one counter onto a regular grid of `interval` nanoseconds
    /// from 0 to `horizon` inclusive, holding the last-seen value
    /// (zero-order hold; 0.0 before the first sample).
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn sampled(&self, name: &str, interval: u64, horizon: u64) -> Vec<(u64, f64)> {
        assert!(interval > 0, "sampling interval must be non-zero");
        let samples = self.series(name);
        let mut out = Vec::new();
        let mut idx = 0usize;
        let mut held = 0.0f64;
        let mut ts = 0u64;
        loop {
            while idx < samples.len() && samples[idx].0 <= ts {
                held = samples[idx].1;
                idx += 1;
            }
            out.push((ts, held));
            if ts >= horizon {
                break;
            }
            ts += interval;
        }
        out
    }

    /// Renders every series as CSV (`name,ts_ns,value` rows, sorted by
    /// name then time) for offline plotting. Labels are collapsed — use
    /// [`to_labeled_csv`](MetricsRegistry::to_labeled_csv) for the
    /// dimensional view.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("name,ts_ns,value\n");
        for (name, samples) in &self.series {
            for &(ts, v) in samples {
                out.push_str(&format!("{name},{ts},{v}\n"));
            }
        }
        out
    }

    /// Renders every labeled slice as CSV with one column per dimension:
    /// `name,device,stream,sm,job,mode,ts_ns,value`, sorted by name, then
    /// label key, then time. Unset dimensions are empty fields.
    pub fn to_labeled_csv(&self) -> String {
        let mut out = String::from("name,device,stream,sm,job,mode,ts_ns,value\n");
        for ((name, key), samples) in &self.labeled {
            let mut cols: [&str; 5] = [""; 5];
            for (d, v) in key {
                cols[*d as usize] = v.as_str();
            }
            for &(ts, v) in samples {
                out.push_str(&format!(
                    "{name},{},{},{},{},{},{ts},{v}\n",
                    cols[0], cols[1], cols[2], cols[3], cols[4]
                ));
            }
        }
        out
    }

    /// Renders every labeled sample as JSONL:
    /// `{"name":…,"labels":{…},"ts":N,"value":V}`, one object per line,
    /// in the same order as [`to_labeled_csv`](MetricsRegistry::to_labeled_csv).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ((name, key), samples) in &self.labeled {
            for &(ts, v) in samples {
                out.push_str("{\"name\":\"");
                out.push_str(&escape(name));
                out.push_str("\",\"labels\":{");
                let mut first = true;
                for (d, value) in key {
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    out.push('"');
                    out.push_str(d.key());
                    out.push_str("\":\"");
                    out.push_str(&escape(value));
                    out.push('"');
                }
                out.push_str("},\"ts\":");
                out.push_str(&ts.to_string());
                out.push_str(",\"value\":");
                out.push_str(&number(v));
                out.push_str("}\n");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TraceBuilder, TraceConfig};

    fn registry() -> MetricsRegistry {
        let mut b = TraceBuilder::new(TraceConfig::default());
        b.counter_at("faults", 0, 1.0);
        b.counter_at("faults", 100, 4.0);
        b.counter_at("faults", 250, 2.0);
        b.counter_at("residency", 50, 0.5);
        MetricsRegistry::from_trace(&b.finish())
    }

    fn labeled_registry() -> MetricsRegistry {
        let mut b = TraceBuilder::new(TraceConfig::default());
        b.set_label(Dim::Mode, "uvm");
        b.set_label(Dim::Stream, "h2d");
        b.counter_at("bytes", 0, 10.0);
        b.set_label(Dim::Stream, "d2h");
        b.counter_at("bytes", 100, 20.0);
        b.set_label(Dim::Mode, "async");
        b.set_label(Dim::Stream, "h2d");
        b.counter_at("bytes", 50, 30.0);
        b.clear_label(Dim::Mode);
        b.clear_label(Dim::Stream);
        b.counter_at("bytes", 200, 40.0);
        MetricsRegistry::from_trace(&b.finish())
    }

    #[test]
    fn series_grouped_and_sorted() {
        let r = registry();
        assert_eq!(r.names().collect::<Vec<_>>(), vec!["faults", "residency"]);
        assert_eq!(r.series("faults").len(), 3);
        assert_eq!(r.last("faults"), Some(2.0));
        assert_eq!(r.peak("faults"), Some(4.0));
        assert_eq!(r.last("missing"), None);
    }

    #[test]
    fn zero_order_hold_resampling() {
        let r = registry();
        let grid = r.sampled("faults", 100, 300);
        assert_eq!(
            grid,
            vec![(0, 1.0), (100, 4.0), (200, 4.0), (300, 2.0)],
            "holds last value between samples"
        );
        // Before the first sample the held value is 0.
        let g2 = r.sampled("residency", 25, 50);
        assert_eq!(g2, vec![(0, 0.0), (25, 0.0), (50, 0.5)]);
    }

    #[test]
    fn csv_lists_all_samples() {
        let csv = registry().to_csv();
        assert!(csv.starts_with("name,ts_ns,value\n"));
        assert!(csv.contains("faults,100,4\n"));
        assert!(csv.contains("residency,50,0.5\n"));
    }

    #[test]
    fn series_where_filters_by_labels() {
        let r = labeled_registry();
        assert_eq!(
            r.series_where("bytes", &[(Dim::Mode, "uvm")]),
            vec![(0, 10.0), (100, 20.0)]
        );
        assert_eq!(
            r.series_where("bytes", &[(Dim::Mode, "uvm"), (Dim::Stream, "h2d")]),
            vec![(0, 10.0)]
        );
        assert_eq!(
            r.series_where("bytes", &[(Dim::Stream, "h2d")]),
            vec![(0, 10.0), (50, 30.0)],
            "filters cut across modes"
        );
        assert_eq!(r.series_where("bytes", &[]).len(), 4, "no filter = all");
        assert!(r.series_where("bytes", &[(Dim::Job, "7")]).is_empty());
    }

    #[test]
    fn group_by_slices_one_dimension() {
        let r = labeled_registry();
        let by_mode = r.group_by("bytes", Dim::Mode);
        assert_eq!(
            by_mode.keys().collect::<Vec<_>>(),
            vec!["(unset)", "async", "uvm"]
        );
        assert_eq!(by_mode["uvm"], vec![(0, 10.0), (100, 20.0)]);
        assert_eq!(by_mode["async"], vec![(50, 30.0)]);
        assert_eq!(by_mode["(unset)"], vec![(200, 40.0)]);
    }

    #[test]
    fn label_discovery() {
        let r = labeled_registry();
        assert_eq!(r.label_values("bytes", Dim::Mode), vec!["async", "uvm"]);
        assert_eq!(r.label_values("bytes", Dim::Stream), vec!["d2h", "h2d"]);
        assert_eq!(r.label_keys("bytes").len(), 4);
    }

    #[test]
    fn labeled_exports() {
        let r = labeled_registry();
        let csv = r.to_labeled_csv();
        assert!(csv.starts_with("name,device,stream,sm,job,mode,ts_ns,value\n"));
        assert!(csv.contains("bytes,,h2d,,,uvm,0,10\n"), "{csv}");
        assert!(csv.contains("bytes,,,,,,200,40\n"), "unlabeled row: {csv}");
        let jsonl = r.to_jsonl();
        assert!(
            jsonl.contains(
                "{\"name\":\"bytes\",\"labels\":{\"stream\":\"h2d\",\"mode\":\"uvm\"},\
                 \"ts\":0,\"value\":10}"
            ),
            "{jsonl}"
        );
        assert!(jsonl.contains("\"labels\":{},\"ts\":200,\"value\":40}"));
    }
}
