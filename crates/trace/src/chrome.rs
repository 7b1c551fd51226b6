//! Chrome trace-event JSON exporter: the chunked [`ChromeSink`] writer and
//! the buffered [`to_chrome_json`] wrapper around it.
//!
//! Emits the [Trace Event Format] understood by Perfetto and
//! `chrome://tracing`, written by hand (no serialization dependency) so
//! the output is byte-deterministic for the golden tests:
//!
//! * sim-time tracks live under **pid 1** (`process_name` = `"sim"`),
//!   one `tid` per track;
//! * host wall-clock tracks live under **pid 2** (`"host"`), keeping the
//!   two time bases on separate processes;
//! * process/thread metadata records are emitted lazily, immediately
//!   before the first event that references them — a requirement of
//!   chunked streaming (a track interned after the first chunk was
//!   written can't be announced retroactively), and applied identically
//!   in the buffered path so streamed and buffered bytes match;
//! * spans are `ph:"X"` complete events, instants `ph:"i"` with thread
//!   scope, counters `ph:"C"`; labels are merged into span/instant `args`
//!   objects (counters keep a pure numeric `value` series);
//! * a final `trace_stats` metadata record carries the total event count,
//!   the **drop count**, and the sim-time end cursor;
//! * timestamps are microseconds with exactly three fractional digits
//!   (`ns / 1000 . ns % 1000`) — nanosecond precision with no float
//!   rounding in the formatter.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::event::{EventKind, TraceEvent};
use crate::json::{escape, number};
use crate::label::LabelSet;
use crate::sink::{StreamSummary, TraceSink};
use crate::trace::{Trace, Track};
use std::fmt::Write as _;
use std::io::{self, Write};

const SIM_PID: u32 = 1;
const HOST_PID: u32 = 2;

/// Incremental Chrome trace-event JSON writer.
///
/// Safe to feed from multiple chunks: the `[` array header, the `,\n`
/// separators, and all metadata records are managed across calls, and the
/// closing `]` is written by [`TraceSink::finish`] together with the
/// `trace_stats` record. Output is a pure function of the event sequence —
/// never of where the chunk boundaries fell.
#[derive(Debug)]
pub struct ChromeSink<W: Write> {
    out: W,
    opened: bool,
    first: bool,
    sim_meta: bool,
    host_meta: bool,
    track_emitted: Vec<bool>,
}

impl<W: Write> ChromeSink<W> {
    /// Creates a writer over `out`.
    pub fn new(out: W) -> Self {
        ChromeSink {
            out,
            opened: false,
            first: true,
            sim_meta: false,
            host_meta: false,
            track_emitted: Vec::new(),
        }
    }

    fn open(&mut self, buf: &mut String) {
        if !self.opened {
            self.opened = true;
            buf.push_str("[\n");
        }
    }

    fn sep(&mut self, buf: &mut String) {
        if self.first {
            self.first = false;
        } else {
            buf.push_str(",\n");
        }
    }
}

impl<W: Write> TraceSink for ChromeSink<W> {
    fn chunk(
        &mut self,
        tracks: &[Track],
        symbols: &[String],
        events: &[TraceEvent],
    ) -> io::Result<()> {
        let mut buf = String::with_capacity(128 + events.len() * 96);
        self.open(&mut buf);
        if self.track_emitted.len() < tracks.len() {
            self.track_emitted.resize(tracks.len(), false);
        }
        for ev in events {
            let tid = ev.track.0 as usize;
            let track = &tracks[tid];
            let pid = if track.host { HOST_PID } else { SIM_PID };
            if track.host && !self.host_meta {
                self.host_meta = true;
                self.sep(&mut buf);
                push_meta_process(&mut buf, HOST_PID, "host");
            }
            if !track.host && !self.sim_meta {
                self.sim_meta = true;
                self.sep(&mut buf);
                push_meta_process(&mut buf, SIM_PID, "sim");
            }
            if !self.track_emitted[tid] {
                self.track_emitted[tid] = true;
                self.sep(&mut buf);
                let _ = write!(
                    buf,
                    "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    escape(&track.name)
                );
            }
            self.sep(&mut buf);
            match ev.kind {
                EventKind::Span { dur } => {
                    let _ = write!(
                        buf,
                        "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"dur\":{},\
                         \"cat\":\"{}\",\"name\":\"{}\"",
                        micros(ev.ts),
                        micros(dur),
                        ev.cat.name(),
                        escape(&ev.name)
                    );
                    push_args(&mut buf, ev.arg, ev.labels, symbols);
                    buf.push('}');
                }
                EventKind::Instant => {
                    let _ = write!(
                        buf,
                        "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\
                         \"cat\":\"{}\",\"name\":\"{}\"",
                        micros(ev.ts),
                        ev.cat.name(),
                        escape(&ev.name)
                    );
                    push_args(&mut buf, ev.arg, ev.labels, symbols);
                    buf.push('}');
                }
                EventKind::Counter { value } => {
                    let _ = write!(
                        buf,
                        "{{\"ph\":\"C\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\
                         \"name\":\"{}\",\"args\":{{\"value\":{}}}}}",
                        micros(ev.ts),
                        escape(&ev.name),
                        number(value)
                    );
                }
            }
        }
        self.out.write_all(buf.as_bytes())
    }

    fn finish(&mut self, summary: &StreamSummary) -> io::Result<()> {
        let mut buf = String::with_capacity(128);
        self.open(&mut buf);
        self.sep(&mut buf);
        let _ = write!(
            buf,
            "{{\"ph\":\"M\",\"pid\":{SIM_PID},\"name\":\"trace_stats\",\
             \"args\":{{\"events\":{},\"dropped\":{},\"end_cursor\":{}}}}}",
            summary.events, summary.dropped, summary.end_cursor
        );
        buf.push_str("\n]\n");
        self.out.write_all(buf.as_bytes())?;
        self.out.flush()
    }
}

/// Renders `trace` as a Chrome trace-event JSON array — a single-chunk
/// stream through [`ChromeSink`], so the result is byte-identical to
/// streaming the same recording.
pub fn to_chrome_json(trace: &Trace) -> String {
    let mut buf = Vec::with_capacity(128 + trace.len() * 96);
    let mut sink = ChromeSink::new(&mut buf);
    sink.chunk(trace.tracks(), trace.symbols(), trace.events())
        .expect("in-memory write cannot fail");
    sink.finish(&trace.stream_summary())
        .expect("in-memory write cannot fail");
    String::from_utf8(buf).expect("chrome output is UTF-8")
}

fn push_meta_process(out: &mut String, pid: u32, name: &str) {
    let _ = write!(
        out,
        "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\"args\":{{\"name\":\"{name}\"}}}}"
    );
}

fn push_args(
    out: &mut String,
    arg: Option<(&'static str, f64)>,
    labels: LabelSet,
    symbols: &[String],
) {
    if arg.is_none() && labels.is_empty() {
        return;
    }
    out.push_str(",\"args\":{");
    let mut first = true;
    if let Some((key, value)) = arg {
        let _ = write!(out, "\"{}\":{}", escape(key), number(value));
        first = false;
    }
    for (dim, sym) in labels.iter() {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "\"{}\":\"{}\"",
            dim.key(),
            escape(&symbols[sym as usize])
        );
    }
    out.push('}');
}

/// Nanoseconds rendered as microseconds with exactly three fractional
/// digits. Pure integer arithmetic — no float rounding, so identical
/// inputs always produce identical bytes.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::SharedBuffer;
    use crate::{Category, Dim, TraceBuilder, TraceConfig};

    #[test]
    fn micros_formatting_is_integer_exact() {
        assert_eq!(micros(0), "0.000");
        assert_eq!(micros(1), "0.001");
        assert_eq!(micros(999), "0.999");
        assert_eq!(micros(1_000), "1.000");
        assert_eq!(micros(1_234_567), "1234.567");
    }

    #[test]
    fn export_contains_metadata_and_all_phases() {
        let mut b = TraceBuilder::new(TraceConfig::default());
        let sim = b.track("stream0");
        let host = b.host_track("host.setup");
        b.span_at(sim, Category::Kernel, "k", 0, 1_500);
        b.span_at(host, Category::Host, "setup", 0, 10);
        b.instant_at(sim, Category::Mem, "spill", 5, Some(("bytes", 4096.0)));
        b.counter_at("faults", 7, 3.5);
        let json = b.finish().to_chrome_json();

        assert!(json.starts_with("[\n"));
        assert!(json.ends_with("]\n"));
        assert!(json.contains("\"process_name\",\"args\":{\"name\":\"sim\"}"));
        assert!(json.contains("\"process_name\",\"args\":{\"name\":\"host\"}"));
        assert!(json.contains("\"thread_name\",\"args\":{\"name\":\"stream0\"}"));
        assert!(json.contains("\"ph\":\"X\",\"pid\":1"));
        assert!(json.contains("\"dur\":1.500"));
        assert!(
            json.contains("\"ph\":\"X\",\"pid\":2"),
            "host span on pid 2"
        );
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"args\":{\"bytes\":4096}"));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"args\":{\"value\":3.5}"));
        assert!(
            json.contains("\"trace_stats\",\"args\":{\"events\":4,\"dropped\":0,"),
            "stats metadata embedded: {json}"
        );
    }

    #[test]
    fn labels_merge_into_span_args() {
        let mut b = TraceBuilder::new(TraceConfig::default());
        let t = b.track("runtime");
        b.set_label(Dim::Mode, "uvm");
        b.span_with(t, Category::Memcpy, "h2d", 0, 10, Some(("bytes", 8.0)));
        let json = b.finish().to_chrome_json();
        assert!(
            json.contains("\"args\":{\"bytes\":8,\"mode\":\"uvm\"}"),
            "arg then labels in Dim order: {json}"
        );
    }

    #[test]
    fn export_is_deterministic() {
        let build = || {
            let mut b = TraceBuilder::new(TraceConfig::default());
            let t = b.track("gpu");
            for i in 0..50u64 {
                b.span_at(t, Category::Tile, format!("block{i}"), i * 10, 9);
            }
            b.counter_at("occupancy", 0, 0.625);
            b.finish().to_chrome_json()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn streamed_chunks_match_buffered_export() {
        let record = |b: &mut TraceBuilder| {
            let t = b.track("gpu");
            for i in 0..100u64 {
                b.span_at(t, Category::Tile, format!("block{i}"), i * 10, 9);
            }
            b.counter_at("occupancy", 0, 0.625);
        };
        // Buffered: unbounded ring, single-chunk export.
        let mut buffered = TraceBuilder::new(TraceConfig::default());
        record(&mut buffered);
        let buffered = buffered.finish().to_chrome_json();
        // Streamed: tiny ring forcing many chunk boundaries.
        let bytes = SharedBuffer::new();
        let mut streamed = TraceBuilder::new(TraceConfig::default().with_capacity(7))
            .with_sink(Box::new(ChromeSink::new(bytes.clone())));
        record(&mut streamed);
        let trace = streamed.finish();
        assert_eq!(trace.dropped(), 0);
        assert_eq!(trace.streamed(), 101);
        assert_eq!(
            bytes.into_string(),
            buffered,
            "chunking must not leak into bytes"
        );
    }

    #[test]
    fn empty_stream_is_stats_only() {
        let json = TraceBuilder::new(TraceConfig::default())
            .finish()
            .to_chrome_json();
        assert_eq!(
            json,
            "[\n{\"ph\":\"M\",\"pid\":1,\"name\":\"trace_stats\",\
             \"args\":{\"events\":0,\"dropped\":0,\"end_cursor\":0}}\n]\n"
        );
    }
}
