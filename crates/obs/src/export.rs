//! Trace exporters: Chrome `trace_event` JSON and JSON-lines.
//!
//! Both exporters write through any [`std::io::Write`] sink (a file for
//! the CLI, a `Vec<u8>` in tests) and produce byte-stable output: object
//! keys are emitted in sorted order and floats use Rust's shortest
//! round-trip formatting, so a seeded run exports the identical file
//! every time (golden-tested).

use std::io::{self, Write};

use crate::field::{write_json_string, write_json_value, Fields};
use crate::recorder::{Event, EventKind};

/// Renders `fields` as a JSON object string with keys in sorted order —
/// the same byte-stable encoding the trace exporters use, reusable by
/// anything persisting [`Fields`] (experiment records, profile summaries,
/// the perf baselines).
#[must_use]
pub fn fields_to_json(fields: &Fields) -> String {
    let mut out = String::new();
    write_fields_object(&mut out, fields);
    out
}

/// Appends `fields` as a JSON object with keys in sorted order.
fn write_fields_object(out: &mut String, fields: &Fields) {
    let mut sorted: Vec<_> = fields.iter().collect();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));
    out.push('{');
    for (i, (key, value)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json_string(out, key);
        out.push(':');
        write_json_value(out, value);
    }
    out.push('}');
}

/// Renders one event as a Chrome `trace_event` object (keys sorted).
fn chrome_record(event: &Event) -> String {
    let ph = match event.kind {
        EventKind::SpanStart => "B",
        EventKind::SpanEnd => "E",
        EventKind::Instant => "i",
        EventKind::Counter => "C",
    };
    let mut out = String::new();
    out.push_str("{\"args\":");
    write_fields_object(&mut out, &event.fields);
    out.push_str(",\"cat\":");
    write_json_string(&mut out, event.kind.label());
    out.push_str(",\"name\":");
    write_json_string(&mut out, event.name);
    out.push_str(",\"ph\":\"");
    out.push_str(ph);
    out.push_str("\",\"pid\":0");
    if event.kind == EventKind::Instant {
        // instant scope: thread-local, the narrowest marker
        out.push_str(",\"s\":\"t\"");
    }
    out.push_str(&format!(",\"tid\":{},\"ts\":{}", event.track, event.ts_micros));
    out.push('}');
    out
}

/// Which edge of a flow arrow a [`Flow`] record marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowPhase {
    /// The arrow's origin (Chrome `ph: "s"`).
    Start,
    /// The arrow's destination (Chrome `ph: "f"`).
    Finish,
}

/// One edge of a cross-track handoff arrow in the Chrome trace
/// (`ph: "s"` / `ph: "f"` flow events). Two records sharing an `id` —
/// one [`FlowPhase::Start`], one [`FlowPhase::Finish`] — render as an
/// arrow in Perfetto, e.g. from a router dispatch on one track to the
/// admission on the target replica's track.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Flow {
    /// Arrow identity: the start and finish edges of one arrow share it.
    pub id: u64,
    /// Arrow name (Chrome `name`; both edges should agree).
    pub name: String,
    /// Timestamp of this edge in microseconds.
    pub ts_micros: u64,
    /// Track (Chrome `tid`) this edge anchors to.
    pub track: u32,
    /// Start or finish edge.
    pub phase: FlowPhase,
}

/// Renders one flow edge as a Chrome `trace_event` object (keys sorted).
fn flow_record(flow: &Flow) -> String {
    let mut out = String::new();
    // Finish edges bind to the enclosing slice (`bp:"e"`), which lets
    // Perfetto attach the arrowhead to instants and spans alike.
    if flow.phase == FlowPhase::Finish {
        out.push_str("{\"bp\":\"e\",\"cat\":\"flow\",\"id\":");
    } else {
        out.push_str("{\"cat\":\"flow\",\"id\":");
    }
    out.push_str(&flow.id.to_string());
    out.push_str(",\"name\":");
    write_json_string(&mut out, &flow.name);
    out.push_str(",\"ph\":\"");
    out.push_str(match flow.phase {
        FlowPhase::Start => "s",
        FlowPhase::Finish => "f",
    });
    out.push_str(&format!(
        "\",\"pid\":0,\"tid\":{},\"ts\":{}",
        flow.track, flow.ts_micros
    ));
    out.push('}');
    out
}

/// Writes `events` as a Chrome `trace_event` JSON array, loadable by
/// `chrome://tracing` and Perfetto. One record per line, keys sorted.
///
/// # Errors
/// Propagates sink I/O errors.
fn write_chrome_trace(events: &[Event], sink: &mut dyn Write) -> io::Result<()> {
    write_chrome_trace_with_flows(events, &[], sink)
}

/// Writes `events` plus `flows` as a Chrome `trace_event` JSON array:
/// the regular records first in event order, then the flow edges in the
/// order given (callers sort them deterministically), so the output is
/// byte-stable for a fixed input.
///
/// # Errors
/// Propagates sink I/O errors.
pub fn write_chrome_trace_with_flows(
    events: &[Event],
    flows: &[Flow],
    sink: &mut dyn Write,
) -> io::Result<()> {
    sink.write_all(b"[\n")?;
    let total = events.len() + flows.len();
    for (i, event) in events.iter().enumerate() {
        sink.write_all(chrome_record(event).as_bytes())?;
        if i + 1 < total {
            sink.write_all(b",")?;
        }
        sink.write_all(b"\n")?;
    }
    for (i, flow) in flows.iter().enumerate() {
        sink.write_all(flow_record(flow).as_bytes())?;
        if events.len() + i + 1 < total {
            sink.write_all(b",")?;
        }
        sink.write_all(b"\n")?;
    }
    sink.write_all(b"]\n")
}

/// The Chrome trace as an in-memory string (convenience over
/// `write_chrome_trace`).
#[must_use]
pub fn chrome_trace_to_string(events: &[Event]) -> String {
    let mut buf = Vec::new();
    write_chrome_trace(events, &mut buf).expect("in-memory sink cannot fail");
    String::from_utf8(buf).expect("exporter emits UTF-8")
}

/// Writes `events` as JSON-lines: one self-contained object per line with
/// keys `fields`, `kind`, `name`, `track`, `ts_us` (sorted).
///
/// # Errors
/// Propagates sink I/O errors.
fn write_json_lines(events: &[Event], sink: &mut dyn Write) -> io::Result<()> {
    for event in events {
        let mut out = String::new();
        out.push_str("{\"fields\":");
        write_fields_object(&mut out, &event.fields);
        out.push_str(",\"kind\":");
        write_json_string(&mut out, event.kind.label());
        out.push_str(",\"name\":");
        write_json_string(&mut out, event.name);
        out.push_str(&format!(
            ",\"track\":{},\"ts_us\":{}}}\n",
            event.track, event.ts_micros
        ));
        sink.write_all(out.as_bytes())?;
    }
    Ok(())
}

/// The JSON-lines dump as an in-memory string.
#[must_use]
pub fn json_lines_to_string(events: &[Event]) -> String {
    let mut buf = Vec::new();
    write_json_lines(events, &mut buf).expect("in-memory sink cannot fail");
    String::from_utf8(buf).expect("exporter emits UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields;
    use crate::recorder::{Recorder, TimelineRecorder};

    fn sample_events() -> Vec<Event> {
        let rec = TimelineRecorder::new();
        let run = rec.span_start(0, "run", fields! { "workers" => 2usize });
        rec.clock().advance(0.5);
        rec.instant(1, "crash", fields! { "worker" => 1u32, "step" => 10usize });
        rec.clock().advance(0.25);
        rec.counter(0, "rollbacks", 1);
        rec.span_end(run, fields! { "accuracy" => 0.875 });
        rec.events()
    }

    #[test]
    fn chrome_trace_is_a_json_array_with_sorted_keys() {
        let s = chrome_trace_to_string(&sample_events());
        assert!(s.starts_with("[\n"));
        assert!(s.ends_with("]\n"));
        assert!(s.contains(r#"{"args":{"workers":2},"cat":"span_start","name":"run","ph":"B","pid":0,"tid":0,"ts":0}"#));
        assert!(s.contains(r#"{"args":{"step":10,"worker":1},"cat":"instant","name":"crash","ph":"i","pid":0,"s":"t","tid":1,"ts":500000}"#));
        assert!(s.contains(r#""ph":"C""#));
        assert!(s.contains(r#""ph":"E""#));
    }

    #[test]
    fn export_is_deterministic() {
        let events = sample_events();
        assert_eq!(
            chrome_trace_to_string(&events),
            chrome_trace_to_string(&sample_events())
        );
        assert_eq!(
            json_lines_to_string(&events),
            json_lines_to_string(&sample_events())
        );
    }

    #[test]
    fn json_lines_one_object_per_event() {
        let events = sample_events();
        let s = json_lines_to_string(&events);
        assert_eq!(s.lines().count(), events.len());
        assert!(s
            .lines()
            .all(|l| l.starts_with("{\"fields\":") && l.ends_with('}')));
    }

    #[test]
    fn empty_trace_is_still_valid() {
        assert_eq!(chrome_trace_to_string(&[]), "[\n]\n");
        assert_eq!(json_lines_to_string(&[]), "");
    }

    fn sample_flows() -> Vec<Flow> {
        vec![
            Flow {
                id: 9,
                name: "serve.handoff".to_string(),
                ts_micros: 100,
                track: 0,
                phase: FlowPhase::Start,
            },
            Flow {
                id: 9,
                name: "serve.handoff".to_string(),
                ts_micros: 250,
                track: 3,
                phase: FlowPhase::Finish,
            },
        ]
    }

    #[test]
    fn flow_edges_render_as_s_and_f_records() {
        let mut buf = Vec::new();
        write_chrome_trace_with_flows(&sample_events(), &sample_flows(), &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains(
            r#"{"cat":"flow","id":9,"name":"serve.handoff","ph":"s","pid":0,"tid":0,"ts":100}"#
        ));
        assert!(s.contains(
            r#"{"bp":"e","cat":"flow","id":9,"name":"serve.handoff","ph":"f","pid":0,"tid":3,"ts":250}"#
        ));
        // Still one valid JSON array: every line but the last two ends
        // with a comma, and the bracket closes it.
        assert!(s.starts_with("[\n") && s.ends_with("]\n"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), sample_events().len() + 2 + 2);
        for line in &lines[1..lines.len() - 2] {
            assert!(line.ends_with(','), "interior line unterminated: {line}");
        }
    }

    #[test]
    fn flows_alone_form_a_valid_array() {
        let mut buf = Vec::new();
        write_chrome_trace_with_flows(&[], &sample_flows(), &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.starts_with("[\n") && s.ends_with("]\n"));
        assert_eq!(s.matches("\"cat\":\"flow\"").count(), 2);
        assert!(!s.contains("\n,"), "comma placement stays on the record line");
    }
}
