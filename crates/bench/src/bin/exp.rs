//! The experiment runner.
//!
//! ```text
//! exp <id>... [--trace <path>] [--profile] [--profile-json <path>] [--baseline <dir>]
//! exp check --against <dir> [id...]
//! exp --list
//! ```
//!
//! Prints each experiment's table and verdict and writes a JSON record to
//! `target/experiments/<id>.json` (override the directory with
//! `DL_EXPERIMENT_DIR`).
//!
//! * `--trace <path>` — record every selected experiment onto one shared
//!   timeline and export it as a Chrome `trace_event` JSON file (loadable
//!   in `chrome://tracing` or Perfetto), with request-causality arrows
//!   (dispatch routing, hedge forks) drawn as flow events. If `<path>`
//!   is an existing directory, each experiment instead gets its own
//!   timeline, written to `<path>/<id>.trace.json`.
//! * `--profile` — after each experiment, analyze its trace with
//!   `dl-prof`: per-run wall-time decomposition (compute / sync /
//!   checkpoint / recovery / replay), the critical path and the fraction
//!   of wall time it explains, and per-worker lost-time attribution.
//! * `--profile-json <path>` — write the same analysis as JSON.
//! * `--monitor` — tap each experiment's recorder with a `dl-monitor`
//!   pipeline (default window grid, no rules) and print the live-series
//!   table it aggregated: per-replica and fleet p50/p99/p999 latency,
//!   admit/shed/downgrade counts, queue depth and health, plus any
//!   alerts fired.
//! * `--monitor-json <path>` — write the same live series as byte-stable
//!   JSON (one object per monitored experiment).
//! * `--requests` — tap each experiment's recorder with a `dl-trace`
//!   tracer and print its per-request view: outcome tallies, the exact
//!   phase decomposition at p50/p99 (admit / queue / batch-wait /
//!   service, plus retry and hedge waits), per-replica tail stats, and
//!   ASCII waterfalls for the slowest requests.
//! * `--requests-json <path>` — write the same per-request attribution
//!   as byte-stable JSON (one object per experiment).
//! * `--baseline <dir>` — snapshot each experiment's title, verdict and
//!   numeric records to `<dir>/BENCH_<ID>.json` for later `exp check` runs.
//! * `check --against <dir>` — run every experiment (or just the listed
//!   ids) once and compare the baseline it would write with
//!   `<dir>/BENCH_<ID>.json` byte for byte, printing the lines that differ
//!   (`-` committed, `+` fresh; one metric per line).
//!
//! Exit codes: `0` success, `1` an experiment failed or a baseline file is
//! missing or unreadable, `2` bad usage (unknown id or flag — detected
//! before anything runs), `3` baseline mismatch (`exp check` found a
//! committed file that the fresh run does not reproduce byte for byte).

use std::path::{Path, PathBuf};

use dl_bench::table::{baseline_file_name, col, fixed, pct, render_table, text, us, Column};
use dl_bench::{all_ids, run_experiment, run_experiment_traced};
use dl_monitor::{Monitor, MonitorConfig, MonitorReport};
use dl_obs::{export, NullRecorder, Recorder, TimelineRecorder, ToFields};
use dl_prof::{analyze, runs, TraceProfile};
use dl_trace::Tracer;

/// Slowest-request waterfalls shown/exported per experiment.
const TOP_K_WATERFALLS: usize = 5;

/// Span names that mark one distributed training run on the timeline.
const RUN_SPANS: [&str; 2] = ["local_sgd", "resilient_local_sgd"];

struct Args {
    ids: Vec<String>,
    trace_path: Option<String>,
    profile: bool,
    profile_json: Option<String>,
    monitor: bool,
    monitor_json: Option<String>,
    requests: bool,
    requests_json: Option<String>,
    baseline_dir: Option<String>,
    against: Option<String>,
    check: bool,
    list: bool,
}

fn flag_value(args: &[String], i: &mut usize, flag: &str) -> Result<String, String> {
    *i += 1;
    match args.get(*i) {
        Some(p) if !p.starts_with('-') => Ok(p.clone()),
        _ => Err(format!("{flag} requires a path argument")),
    }
}

/// Parses the command line; returns an error message for bad usage.
fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        ids: Vec::new(),
        trace_path: None,
        profile: false,
        profile_json: None,
        monitor: false,
        monitor_json: None,
        requests: false,
        requests_json: None,
        baseline_dir: None,
        against: None,
        check: args.first().map(String::as_str) == Some("check"),
        list: false,
    };
    let mut i = usize::from(parsed.check);
    while i < args.len() {
        match args[i].as_str() {
            "--list" => parsed.list = true,
            "--profile" => parsed.profile = true,
            "--trace" => parsed.trace_path = Some(flag_value(args, &mut i, "--trace")?),
            "--profile-json" => {
                parsed.profile_json = Some(flag_value(args, &mut i, "--profile-json")?);
            }
            "--monitor" => parsed.monitor = true,
            "--monitor-json" => {
                parsed.monitor_json = Some(flag_value(args, &mut i, "--monitor-json")?);
            }
            "--requests" => parsed.requests = true,
            "--requests-json" => {
                parsed.requests_json = Some(flag_value(args, &mut i, "--requests-json")?);
            }
            "--baseline" => parsed.baseline_dir = Some(flag_value(args, &mut i, "--baseline")?),
            "--against" => parsed.against = Some(flag_value(args, &mut i, "--against")?),
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag {flag:?}"));
            }
            "all" => parsed.ids.extend(all_ids()),
            id => parsed.ids.push(id.to_string()),
        }
        i += 1;
    }
    if parsed.check {
        if parsed.against.is_none() {
            return Err("check requires --against <dir>".into());
        }
    } else if parsed.against.is_some() {
        return Err("--against only applies to the check subcommand".into());
    }
    if !parsed.check && !parsed.list && parsed.ids.is_empty() {
        return Err("no experiments selected".into());
    }
    // Validate every id up front so a typo exits before hours of runs.
    let known = all_ids();
    for id in &parsed.ids {
        let canonical = id.to_ascii_lowercase();
        if !known.contains(&canonical) {
            return Err(format!(
                "unknown experiment {id:?}; expected e1..e31, a1..a4, or 'all'"
            ));
        }
    }
    Ok(parsed)
}

const PHASES: &[Column] = &[
    col("run", "run", text),
    col("total s", "total_seconds", fixed::<4>),
    col("compute s", "compute_seconds", fixed::<4>),
    col("sync s", "sync_seconds", fixed::<4>),
    col("ckpt s", "checkpoint_seconds", fixed::<4>),
    col("recovery s", "recovery_seconds", fixed::<4>),
    col("replay s", "replay_seconds", fixed::<4>),
    col("crit path s", "critical_path_seconds", fixed::<4>),
    col("explained", "explained_fraction", pct::<1>),
];

const WORKERS: &[Column] = &[
    col("worker", "worker", text),
    col("crashes", "crashes", text),
    col("rejoins", "rejoins", text),
    col("recovery s", "recovery_seconds", fixed::<4>),
    col("replay s", "replay_seconds", fixed::<4>),
    col("lost s", "lost_seconds", fixed::<4>),
    col("share of lost", "share", pct::<1>),
];

/// One profile's fields, labelled with its run.
fn profile_fields(label: &str, p: &TraceProfile) -> dl_obs::Fields {
    let mut fields = p.to_fields();
    fields.insert(0, ("run".into(), label.to_string().into()));
    fields
}

/// Renders one run's wall-time decomposition and, when the run saw
/// crashes, the per-worker lost-time attribution.
fn render_profile(label: &str, p: &TraceProfile) -> String {
    let mut out = render_table(PHASES, &[profile_fields(label, p)]);
    if !p.workers.is_empty() {
        let workers: Vec<_> = p.workers.iter().map(ToFields::to_fields).collect();
        out.push('\n');
        out.push_str(&render_table(WORKERS, &workers));
    }
    out
}

/// Extracts every distributed run window from `events` and profiles it.
fn profiles_of(events: &[dl_obs::Event]) -> Vec<(String, TraceProfile)> {
    let mut out = Vec::new();
    for name in RUN_SPANS {
        for (i, window) in runs(events, name).iter().enumerate() {
            out.push((format!("{name}#{i}"), analyze(window)));
        }
    }
    out
}

/// One experiment's profiles as a JSON object (baseline-grade formatting:
/// sorted keys inside each profile, stable ordering).
fn profiles_json(id: &str, profiles: &[(String, TraceProfile)]) -> String {
    let mut out = format!("{{\"id\": \"{id}\", \"profiles\": [");
    for (i, (label, p)) in profiles.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str("{\"profile\": ");
        out.push_str(&export::fields_to_json(&profile_fields(label, p)));
        out.push_str(", \"workers\": [");
        for (j, w) in p.workers.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&export::fields_to_json(&w.to_fields()));
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

const SERIES: &[Column] = &[
    col("scope", "scope", text),
    col("admit", "admits", text),
    col("done", "completions", text),
    col("shed", "sheds", text),
    col("downgr", "downgrades", text),
    col("p50 us", "p50_s", us::<1>),
    col("p99 us", "p99_s", us::<1>),
    col("p999 us", "p999_s", us::<1>),
    col("rate rps", "completion_rate_rps", fixed::<1>),
    col("queue", "queue_depth", fixed::<2>),
    col("health", "health", fixed::<2>),
];

/// Renders the monitor's live-series table: fleet first, then replicas,
/// then one line per alert fired.
fn render_monitor(id: &str, rep: &MonitorReport) -> String {
    let mut out = format!(
        "monitor: {id} ({} windows of {:.2e}s, {} lost)\n",
        rep.windows_closed, rep.window_s, rep.lost
    );
    let series: Vec<_> = std::iter::once(&rep.fleet)
        .chain(rep.replicas.iter())
        .map(ToFields::to_fields)
        .collect();
    out.push_str(&render_table(SERIES, &series));
    for a in &rep.alerts {
        out.push_str(&format!(
            "\nalert: {} [{}] {} at {:.6}s (value {:.4e}, threshold {:.4e})",
            a.rule,
            a.kind.label(),
            a.scope,
            a.at_s,
            a.value,
            a.threshold
        ));
    }
    if rep.alerts.is_empty() {
        out.push_str("\nalerts: none");
    }
    out.push('\n');
    out
}

/// One experiment's monitor report as a byte-stable JSON object.
fn monitor_json(id: &str, rep: &MonitorReport) -> String {
    let mut out = format!("{{\"id\": \"{id}\", \"monitor\": ");
    out.push_str(&export::fields_to_json(&rep.to_fields()));
    out.push_str(", \"series\": [");
    for (i, s) in std::iter::once(&rep.fleet)
        .chain(rep.replicas.iter())
        .enumerate()
    {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&export::fields_to_json(&s.to_fields()));
    }
    out.push_str("], \"alerts\": [");
    for (i, a) in rep.alerts.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&export::fields_to_json(&a.to_fields()));
    }
    out.push_str("]}");
    out
}

/// Chrome trace JSON with request-causality arrows (dispatch routing,
/// hedge forks) drawn as flow events. Experiments with no request
/// traffic produce no arrows, so the output degrades to the plain trace.
fn chrome_trace_with_requests(events: &[dl_obs::Event]) -> String {
    let flows = dl_trace::flows(events);
    let mut buf = Vec::new();
    export::write_chrome_trace_with_flows(events, &flows, &mut buf)
        .expect("in-memory sink cannot fail");
    String::from_utf8(buf).expect("exporter emits UTF-8")
}

/// `exp check --against <dir>`: re-runs each experiment (every id when
/// none are listed) and compares its baseline with the committed file
/// byte for byte. Returns the exit code.
fn check(dir: &Path, ids: &[String]) -> i32 {
    let ids = if ids.is_empty() {
        all_ids()
    } else {
        ids.to_vec()
    };
    let mut failed = false;
    let mut mismatched = false;
    for id in &ids {
        let path = dir.join(baseline_file_name(id));
        let committed = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) => {
                eprintln!("{id}: cannot read {}: {e}", path.display());
                failed = true;
                continue;
            }
        };
        let fresh = match run_experiment(id) {
            Ok(result) => result.baseline_json(),
            Err(e) => {
                eprintln!("{id}: experiment failed: {e}");
                failed = true;
                continue;
            }
        };
        if committed == fresh.as_bytes() {
            println!("{id}: ok ({} matches byte for byte)", path.display());
            continue;
        }
        mismatched = true;
        println!("{id}: MISMATCH against {}", path.display());
        let committed = String::from_utf8_lossy(&committed);
        let mut shown = false;
        for (sign, lines, other) in [('-', &*committed, &*fresh), ('+', &*fresh, &*committed)] {
            for line in lines.lines().filter(|l| !other.lines().any(|o| o == *l)) {
                println!("{sign} {line}");
                shown = true;
            }
        }
        if !shown {
            println!("  (same lines; they differ in order, repeats or line endings)");
        }
    }
    if failed {
        1
    } else if mismatched {
        3
    } else {
        0
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() || raw.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: exp <e1..e31|a1..a4|all> [more ids...] [--trace <path>] [--profile]\n\
             \x20           [--profile-json <path>] [--monitor] [--monitor-json <path>]\n\
             \x20           [--requests] [--requests-json <path>] [--baseline <dir>]\n\
             \x20      exp check --against <dir> [id...]\n\
             \x20      exp --list\n\
             exit codes: 0 ok, 1 experiment failed or baseline missing, 2 bad usage, 3 baseline mismatch"
        );
        std::process::exit(2);
    }
    let args = match parse(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if args.list {
        for id in all_ids() {
            println!("{id:<4} {}", dl_bench::describe(&id));
        }
        return;
    }
    if args.check {
        let dir = PathBuf::from(args.against.expect("checked in parse"));
        std::process::exit(check(&dir, &args.ids));
    }

    // A trace path naming an existing directory means one timeline (and
    // one trace file) per experiment; a file path means one shared
    // timeline across everything selected.
    let trace_dir = args
        .trace_path
        .as_ref()
        .filter(|p| Path::new(p.as_str()).is_dir())
        .cloned();
    let profiling = args.profile || args.profile_json.is_some();
    let shared = if (args.trace_path.is_some() && trace_dir.is_none()) || profiling {
        Some(TimelineRecorder::new())
    } else {
        None
    };
    let monitoring = args.monitor || args.monitor_json.is_some();
    let tracing = args.requests || args.requests_json.is_some();
    let mut failed = false;
    let mut all_profiles = Vec::new();
    let mut monitor_reports: Vec<(String, MonitorReport)> = Vec::new();
    let mut request_reports: Vec<(String, String)> = Vec::new();
    for id in &args.ids {
        // A fresh untraced recorder per experiment: its virtual clock never
        // runs backwards, so sharing one would leak an earlier
        // experiment's end time into a later one's timestamps and make a
        // record depend on which ids ran before it.
        let null = NullRecorder::new();
        let per_exp = trace_dir.as_ref().map(|_| TimelineRecorder::new());
        let inner: &dyn Recorder = per_exp
            .as_ref()
            .map(|t| t as &dyn Recorder)
            .or(shared.as_ref().map(|t| t as &dyn Recorder))
            .unwrap_or(&null);
        // The monitor taps whatever recorder the experiment would have
        // used — it forwards every event unchanged, so traces and
        // profiles are unaffected by attaching it.
        let monitor = monitoring.then(|| Monitor::new(inner, MonitorConfig::default()));
        let monitored: &dyn Recorder = monitor
            .as_ref()
            .map(|m| m as &dyn Recorder)
            .unwrap_or(inner);
        // The tracer stacks the same way: it retains a copy of request
        // lifecycle events and forwards the full stream unchanged.
        let tracer = tracing.then(|| Tracer::new(monitored));
        let rec: &dyn Recorder = tracer
            .as_ref()
            .map(|t| t as &dyn Recorder)
            .unwrap_or(monitored);
        let events_before = shared.as_ref().map_or(0, TimelineRecorder::len);
        match run_experiment_traced(id, rec) {
            Ok(result) => {
                println!("{}", result.render());
                match result.save() {
                    Ok(path) => println!("record: {}\n", path.display()),
                    Err(e) => eprintln!("warning: could not save record: {e}"),
                }
                if let Some(dir) = &args.baseline_dir {
                    let path = Path::new(dir).join(baseline_file_name(id));
                    match std::fs::write(&path, result.baseline_json()) {
                        Ok(()) => println!("baseline: {}\n", path.display()),
                        Err(e) => {
                            eprintln!("error: could not save baseline: {e}");
                            failed = true;
                        }
                    }
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                failed = true;
            }
        }
        if let Some(m) = &monitor {
            let rep = m.report();
            if args.monitor {
                println!("{}", render_monitor(id, &rep));
            }
            monitor_reports.push((id.clone(), rep));
        }
        if let Some(t) = &tracer {
            let set = t.traces();
            if args.requests {
                if set.requests.is_empty() {
                    println!("requests: {id} recorded no request traffic to trace\n");
                } else {
                    println!("requests: {id}");
                    println!("{}", dl_trace::render_requests(&set, TOP_K_WATERFALLS));
                }
            }
            request_reports.push((id.clone(), dl_trace::requests_json(&set, TOP_K_WATERFALLS)));
        }
        let events = match (&per_exp, &shared) {
            (Some(t), _) => t.events(),
            (None, Some(t)) => t.events()[events_before..].to_vec(),
            (None, None) => Vec::new(),
        };
        if profiling {
            let profiles = profiles_of(&events);
            if args.profile {
                if profiles.is_empty() {
                    println!("profile: {id} recorded no distributed runs to analyze\n");
                }
                for (label, p) in &profiles {
                    println!("profile: {id} {label}");
                    println!("{}", render_profile(label, p));
                }
            }
            all_profiles.push((id.clone(), profiles));
        }
        if let (Some(dir), Some(t)) = (&trace_dir, &per_exp) {
            let path = Path::new(dir).join(format!("{id}.trace.json"));
            match std::fs::write(&path, chrome_trace_with_requests(&t.events())) {
                Ok(()) => println!("trace: {} ({} events)", path.display(), t.len()),
                Err(e) => {
                    eprintln!("error: could not write trace to {}: {e}", path.display());
                    failed = true;
                }
            }
        }
    }
    if let Some(path) = &args.requests_json {
        let body = request_reports
            .iter()
            .map(|(id, json)| format!("{{\"id\": \"{id}\", \"requests\": {json}}}"))
            .collect::<Vec<_>>()
            .join(",\n  ");
        match std::fs::write(path, format!("[\n  {body}\n]\n")) {
            Ok(()) => println!("requests json: {path}"),
            Err(e) => {
                eprintln!("error: could not write requests json to {path}: {e}");
                failed = true;
            }
        }
    }
    if let Some(path) = &args.monitor_json {
        let body = monitor_reports
            .iter()
            .map(|(id, rep)| monitor_json(id, rep))
            .collect::<Vec<_>>()
            .join(",\n  ");
        match std::fs::write(path, format!("[\n  {body}\n]\n")) {
            Ok(()) => println!("monitor json: {path}"),
            Err(e) => {
                eprintln!("error: could not write monitor json to {path}: {e}");
                failed = true;
            }
        }
    }
    if let Some(path) = &args.profile_json {
        let body = all_profiles
            .iter()
            .map(|(id, profiles)| profiles_json(id, profiles))
            .collect::<Vec<_>>()
            .join(",\n  ");
        match std::fs::write(path, format!("[\n  {body}\n]\n")) {
            Ok(()) => println!("profile json: {path}"),
            Err(e) => {
                eprintln!("error: could not write profile json to {path}: {e}");
                failed = true;
            }
        }
    }
    if let (Some(path), None, Some(timeline)) = (&args.trace_path, &trace_dir, &shared) {
        let trace = chrome_trace_with_requests(&timeline.events());
        match std::fs::write(path, trace) {
            Ok(()) => println!("trace: {path} ({} events)", timeline.len()),
            Err(e) => {
                eprintln!("error: could not write trace to {path}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
