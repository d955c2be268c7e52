//! Golden-file test for the Chrome `trace_event` exporter: the rendered
//! bytes of a fixed scenario must never drift (stable JSON, sorted keys),
//! because downstream tooling diffs and archives exported traces.

use dl_obs::{export, fields, Recorder, TimelineRecorder};

/// A miniature fault-recovery timeline exercising every event kind,
/// field type, and the JSON string escaper.
fn scenario() -> TimelineRecorder {
    let rec = TimelineRecorder::new();
    let run = rec.span_start(
        0,
        "resilient_local_sgd",
        fields! { "workers" => 4usize, "sync_period" => 8usize, "label" => "golden" },
    );
    rec.clock().advance(0.5);
    let round = rec.span_start(0, "sync_round", fields! { "round" => 0usize });
    rec.clock().advance(0.25);
    rec.counter(0, "bytes_communicated", 4096);
    rec.span_end(round, fields! { "seconds" => 0.25 });
    rec.clock().advance(0.125);
    rec.instant(
        2,
        "crash",
        fields! { "worker" => 2usize, "step" => 17usize },
    );
    rec.clock().advance(0.0625);
    rec.instant(
        0,
        "rollback",
        fields! { "to_step" => 16usize, "lost_samples" => 128u64, "aborted" => false },
    );
    let ckpt = rec.span_start(0, "checkpoint_write", fields! { "step" => 24usize });
    rec.clock().advance(0.03125);
    rec.span_end(ckpt, fields! { "bytes" => 2080u64 });
    rec.instant(
        2,
        "rejoin",
        fields! { "worker" => 2usize, "source" => "checkpoint" },
    );
    rec.span_end(
        run,
        fields! { "accuracy" => 0.9375, "note" => "quote \" backslash \\ done" },
    );
    rec
}

#[test]
fn chrome_trace_matches_golden_file() {
    let rendered = export::chrome_trace_to_string(&scenario().events());
    if std::env::var_os("DL_OBS_REGEN_GOLDEN").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/chrome_trace.json"
        );
        std::fs::write(path, &rendered).expect("write golden file");
        return;
    }
    let golden = include_str!("golden/chrome_trace.json");
    assert_eq!(
        rendered, golden,
        "Chrome trace output drifted from tests/golden/chrome_trace.json; \
         if the change is intentional, rerun with DL_OBS_REGEN_GOLDEN=1"
    );
}

#[test]
fn golden_file_is_loadable_trace_event_json() {
    // Minimal structural validation without a JSON parser dependency:
    // the file is an array, every record is an object carrying the
    // required trace_event keys, and B/E edges are balanced per tid.
    let golden = include_str!("golden/chrome_trace.json");
    assert!(golden.starts_with("[\n") && golden.ends_with("]\n"));
    let records: Vec<&str> = golden.lines().filter(|l| l.starts_with('{')).collect();
    assert!(!records.is_empty());
    let mut depth = 0i64;
    for r in &records {
        for key in [
            "\"name\":",
            "\"ph\":",
            "\"pid\":",
            "\"tid\":",
            "\"ts\":",
            "\"args\":",
        ] {
            assert!(r.contains(key), "record missing {key}: {r}");
        }
        if r.contains("\"ph\":\"B\"") {
            depth += 1;
        }
        if r.contains("\"ph\":\"E\"") {
            depth -= 1;
            assert!(depth >= 0, "span end without a start");
        }
    }
    assert_eq!(depth, 0, "unbalanced span edges");
}

/// The golden scenario plus two flow arrows: a cross-track handoff from
/// the driver track to worker 2 (crash → rejoin causality) and a second
/// arrow inside track 0 (checkpoint → rollback ordering).
fn flow_scenario() -> (TimelineRecorder, Vec<export::Flow>) {
    let rec = scenario();
    let flows = vec![
        export::Flow {
            id: 1,
            name: "handoff".to_string(),
            ts_micros: 875_000,
            track: 0,
            phase: export::FlowPhase::Start,
        },
        export::Flow {
            id: 1,
            name: "handoff".to_string(),
            ts_micros: 968_750,
            track: 2,
            phase: export::FlowPhase::Finish,
        },
        export::Flow {
            id: 2,
            name: "retry".to_string(),
            ts_micros: 937_500,
            track: 0,
            phase: export::FlowPhase::Start,
        },
        export::Flow {
            id: 2,
            name: "retry".to_string(),
            ts_micros: 968_750,
            track: 0,
            phase: export::FlowPhase::Finish,
        },
    ];
    (rec, flows)
}

#[test]
fn chrome_trace_with_flows_matches_golden_file() {
    let (rec, flows) = flow_scenario();
    let mut buf = Vec::new();
    export::write_chrome_trace_with_flows(&rec.events(), &flows, &mut buf).expect("in-memory sink");
    let rendered = String::from_utf8(buf).expect("utf-8");
    if std::env::var_os("DL_OBS_REGEN_GOLDEN").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/chrome_trace_flows.json"
        );
        std::fs::write(path, &rendered).expect("write golden file");
        return;
    }
    let golden = include_str!("golden/chrome_trace_flows.json");
    assert_eq!(
        rendered, golden,
        "flow-event Chrome trace drifted from tests/golden/chrome_trace_flows.json; \
         if the change is intentional, rerun with DL_OBS_REGEN_GOLDEN=1"
    );
}

#[test]
fn flow_golden_file_pairs_every_arrow() {
    // Each flow id must appear exactly twice — once as ph:"s", once as
    // ph:"f" with the binding-point marker — or Perfetto drops the arrow.
    let golden = include_str!("golden/chrome_trace_flows.json");
    for id in [1, 2] {
        let start = format!("{{\"cat\":\"flow\",\"id\":{id},");
        let finish = format!("{{\"bp\":\"e\",\"cat\":\"flow\",\"id\":{id},");
        assert_eq!(golden.matches(&start).count(), 1, "flow {id} start");
        assert_eq!(golden.matches(&finish).count(), 1, "flow {id} finish");
    }
    assert!(golden.contains("\"ph\":\"s\""));
    assert!(golden.contains("\"ph\":\"f\""));
}

#[test]
fn json_lines_round_trips_the_same_scenario() {
    let rec = scenario();
    let lines = export::json_lines_to_string(&rec.events());
    assert_eq!(lines.lines().count(), rec.events().len());
    assert!(lines.contains("\"name\":\"crash\""));
    assert!(lines.contains("\"kind\":\"counter\""));
}
