//! Trace analysis: time breakdowns, the distributed critical path, and
//! per-worker lost-time attribution from a recorded event stream.
//!
//! The input is the event vector of a `dl_obs::TimelineRecorder` after an
//! instrumented run (`local_sgd_traced`, `resilient_local_sgd_traced`, a
//! traced training loop). Because drivers advance the shared
//! [`VirtualClock`](dl_obs::VirtualClock) exactly when they account
//! simulated seconds, the gaps *between* events carry as much information
//! as the spans: a gap ending at a `sync_round` start is worker compute, a
//! gap ending at a `crash` instant is failure detection, a gap ending at a
//! `rollback` is checkpoint restore.
//!
//! [`analyze`] walks one run's events in order and classifies every
//! interval into compute / sync / checkpoint / recovery / replay, then
//! attributes recovery and replay time to the worker whose crash caused
//! it — the "worker 3 contributed 41% of the lost time across its 4
//! crashes" view of E22.

use dl_obs::recorder::{Event, EventKind};
use dl_obs::{fields, find_field, FieldValue, Fields, ToFields};
use std::collections::BTreeMap;

/// Aggregate of all spans sharing one name.
#[derive(Debug, Clone, PartialEq)]
#[must_use = "span statistics are pure data; dropping them discards the analysis"]
pub struct SpanStat {
    /// Span name (`sync_round`, `checkpoint_write`, ...).
    pub name: String,
    /// Number of completed spans.
    pub count: usize,
    /// Total simulated seconds inside these spans.
    pub seconds: f64,
}

/// Lost time attributed to one worker's failures.
#[derive(Debug, Clone, PartialEq)]
#[must_use = "worker attribution is pure data; dropping it discards the analysis"]
pub struct WorkerLostTime {
    /// Worker index.
    pub worker: u64,
    /// Crashes this worker suffered.
    pub crashes: usize,
    /// Rejoins this worker performed.
    pub rejoins: usize,
    /// Seconds of detection, restore, and regroup caused by this worker.
    pub recovery_seconds: f64,
    /// Seconds of re-executed training caused by this worker's rollbacks.
    pub replay_seconds: f64,
    /// This worker's share of all lost time in the run (`0..=1`).
    pub share: f64,
}

impl WorkerLostTime {
    /// Total seconds this worker's failures cost the run.
    pub fn lost_seconds(&self) -> f64 {
        self.recovery_seconds + self.replay_seconds
    }
}

impl ToFields for WorkerLostTime {
    fn to_fields(&self) -> Fields {
        fields! {
            "worker" => self.worker,
            "crashes" => self.crashes,
            "rejoins" => self.rejoins,
            "recovery_seconds" => self.recovery_seconds,
            "replay_seconds" => self.replay_seconds,
            "lost_seconds" => self.lost_seconds(),
            "share" => self.share,
        }
    }
}

/// Full decomposition of one run's wall time.
#[derive(Debug, Clone, Default)]
#[must_use = "a trace profile is pure data; dropping it discards the analysis"]
pub struct TraceProfile {
    /// Wall-clock (simulated) duration of the analyzed window.
    pub total_seconds: f64,
    /// Seconds workers spent computing gradients (gaps leading into sync
    /// rounds and run tails).
    pub compute_seconds: f64,
    /// Seconds inside `sync_round` spans making *new* progress (includes
    /// allreduce retries, which happen inside the round).
    pub sync_seconds: f64,
    /// Seconds inside `checkpoint_write` spans.
    pub checkpoint_seconds: f64,
    /// Seconds of failure handling: detection + regroup before a `crash`
    /// instant, restore before a `rollback`, regroup/restore before a
    /// `rejoin`.
    pub recovery_seconds: f64,
    /// Seconds re-executing steps a rollback discarded (sync rounds whose
    /// `step` was already seen, plus the compute leading into them).
    pub replay_seconds: f64,
    /// `allreduce_retry` instants observed.
    pub retry_count: usize,
    /// `crash` instants observed.
    pub crash_count: usize,
    /// `rollback` instants observed.
    pub rollback_count: usize,
    /// Per-span-name aggregates (sorted by name).
    pub spans: Vec<SpanStat>,
    /// Per-worker lost-time attribution, sorted by lost time descending.
    pub workers: Vec<WorkerLostTime>,
    /// Events in the analyzed window.
    pub events: usize,
}

impl TraceProfile {
    /// The coordinator's serialized overhead path: everything that is
    /// *not* parallel worker compute — synchronization, checkpointing,
    /// failure recovery, and replayed work. In a sync-dominated regime
    /// this path explains nearly all of the wall time.
    pub fn critical_path_seconds(&self) -> f64 {
        self.sync_seconds + self.checkpoint_seconds + self.recovery_seconds + self.replay_seconds
    }

    /// Fraction of wall time the critical path explains (`0..=1`).
    pub fn explained_fraction(&self) -> f64 {
        if self.total_seconds > 0.0 {
            self.critical_path_seconds() / self.total_seconds
        } else {
            0.0
        }
    }

    /// Seconds the run lost to failures (recovery + replay).
    pub fn lost_seconds(&self) -> f64 {
        self.recovery_seconds + self.replay_seconds
    }

    /// Wall time neither classified into a phase nor covered by a span —
    /// should be ~0; a large value means the trace schema drifted.
    pub fn unattributed_seconds(&self) -> f64 {
        (self.total_seconds
            - self.compute_seconds
            - self.sync_seconds
            - self.checkpoint_seconds
            - self.recovery_seconds
            - self.replay_seconds)
            .max(0.0)
    }
}

impl ToFields for TraceProfile {
    fn to_fields(&self) -> Fields {
        fields! {
            "total_seconds" => self.total_seconds,
            "compute_seconds" => self.compute_seconds,
            "sync_seconds" => self.sync_seconds,
            "checkpoint_seconds" => self.checkpoint_seconds,
            "recovery_seconds" => self.recovery_seconds,
            "replay_seconds" => self.replay_seconds,
            "critical_path_seconds" => self.critical_path_seconds(),
            "explained_fraction" => self.explained_fraction(),
            "lost_seconds" => self.lost_seconds(),
            "unattributed_seconds" => self.unattributed_seconds(),
            "crashes" => self.crash_count,
            "rollbacks" => self.rollback_count,
            "retries" => self.retry_count,
            "events" => self.events,
        }
    }
}

/// Extracts each top-level run window named `run_name` from a timeline
/// that may hold several runs back to back (a sweep traces every
/// configuration onto one recorder). Each returned slice spans from the
/// run's `SpanStart` through its matching `SpanEnd`, inclusive.
pub fn runs<'a>(events: &'a [Event], run_name: &str) -> Vec<&'a [Event]> {
    let mut out = Vec::new();
    let mut open: Option<usize> = None;
    let mut depth = 0usize;
    for (i, e) in events.iter().enumerate() {
        if e.name != run_name {
            continue;
        }
        match e.kind {
            EventKind::SpanStart => {
                if depth == 0 {
                    open = Some(i);
                }
                depth += 1;
            }
            EventKind::SpanEnd => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    if let Some(start) = open.take() {
                        out.push(&events[start..=i]);
                    }
                }
            }
            _ => {}
        }
    }
    out
}

#[derive(Default)]
struct Attribution {
    crashes: usize,
    rejoins: usize,
    recovery: f64,
    replay: f64,
}

/// Analyzes one run's event window into a [`TraceProfile`].
///
/// Works on any trace that follows the workspace schema (`sync_round` /
/// `checkpoint_write` spans, `crash` / `rollback` / `rejoin` /
/// `allreduce_retry` instants); unknown spans still show up in
/// [`TraceProfile::spans`], and a trace with none of the known names
/// degenerates gracefully to "everything is compute".
pub fn analyze(events: &[Event]) -> TraceProfile {
    let mut profile = TraceProfile {
        events: events.len(),
        ..TraceProfile::default()
    };
    let (Some(first), Some(last)) = (events.first(), events.last()) else {
        return profile;
    };
    profile.total_seconds = micros_delta(first.ts_micros, last.ts_micros);

    let mut span_stats: BTreeMap<&str, SpanStat> = BTreeMap::new();
    let mut attribution: BTreeMap<u64, Attribution> = BTreeMap::new();
    // Open-span bookkeeping: (name, track, start_ts, step field).
    let mut open_spans: Vec<(&str, u32, u64, Option<u64>)> = Vec::new();
    let mut last_ts = first.ts_micros;
    // Step high-water mark: a sync round at or below it is re-execution.
    let mut max_step: Option<u64> = None;
    let mut replaying = false;
    let mut last_crash_worker: Option<u64> = None;

    // True when the gap before the current event belongs to an open leaf
    // span (sync_round retries, checkpoint writes) and is therefore
    // already covered by that span's duration.
    let in_leaf = |open: &[(&str, u32, u64, Option<u64>)]| {
        open.iter()
            .any(|(n, ..)| *n == "sync_round" || *n == "checkpoint_write")
    };

    for event in events {
        let field = |key: &str| find_field(&event.fields, key);
        let gap = micros_delta(last_ts, event.ts_micros);
        match event.kind {
            EventKind::SpanStart => {
                if !in_leaf(&open_spans) {
                    match event.name {
                        "sync_round" => {
                            let step = field("step").and_then(FieldValue::as_u64);
                            let is_replay = replaying
                                && matches!((step, max_step), (Some(s), Some(m)) if s <= m);
                            if is_replay {
                                profile.replay_seconds += gap;
                                credit_replay(&mut attribution, last_crash_worker, gap);
                            } else {
                                profile.compute_seconds += gap;
                            }
                        }
                        _ => profile.compute_seconds += gap,
                    }
                }
                let step = field("step").and_then(FieldValue::as_u64);
                open_spans.push((event.name, event.track, event.ts_micros, step));
            }
            EventKind::SpanEnd => {
                let opened = open_spans
                    .iter()
                    .rposition(|(n, t, ..)| *n == event.name && *t == event.track);
                let Some(idx) = opened else {
                    last_ts = event.ts_micros;
                    continue;
                };
                let (name, _, start_ts, step) = open_spans.remove(idx);
                let duration = micros_delta(start_ts, event.ts_micros);
                let stat = span_stats.entry(name).or_insert_with(|| SpanStat {
                    name: name.to_string(),
                    count: 0,
                    seconds: 0.0,
                });
                stat.count += 1;
                stat.seconds += duration;
                match name {
                    "sync_round" => {
                        let is_replay =
                            replaying && matches!((step, max_step), (Some(s), Some(m)) if s <= m);
                        if is_replay {
                            profile.replay_seconds += duration;
                            credit_replay(&mut attribution, last_crash_worker, duration);
                        } else {
                            profile.sync_seconds += duration;
                            if let Some(s) = step {
                                if max_step.is_some_and(|m| s > m) || max_step.is_none() {
                                    max_step = Some(s);
                                }
                                replaying = false;
                            }
                        }
                    }
                    "checkpoint_write" => profile.checkpoint_seconds += duration,
                    _ => {
                        // A closing run/experiment span: the tail since the
                        // last event (final averaging, evaluation) is
                        // compute-side work, not overhead.
                        if !in_leaf(&open_spans) {
                            profile.compute_seconds += gap;
                        }
                    }
                }
            }
            EventKind::Instant => {
                let covered = in_leaf(&open_spans);
                match event.name {
                    "crash" => {
                        profile.crash_count += 1;
                        let worker = field("worker").and_then(FieldValue::as_u64).unwrap_or(0);
                        last_crash_worker = Some(worker);
                        let a = attribution.entry(worker).or_default();
                        a.crashes += 1;
                        if !covered {
                            profile.recovery_seconds += gap;
                            a.recovery += gap;
                        }
                    }
                    "rollback" => {
                        profile.rollback_count += 1;
                        replaying = true;
                        if !covered {
                            profile.recovery_seconds += gap;
                            if let Some(w) = last_crash_worker {
                                attribution.entry(w).or_default().recovery += gap;
                            }
                        }
                    }
                    "rejoin" => {
                        let worker = field("worker").and_then(FieldValue::as_u64).unwrap_or(0);
                        let a = attribution.entry(worker).or_default();
                        a.rejoins += 1;
                        if !covered {
                            profile.recovery_seconds += gap;
                            a.recovery += gap;
                        }
                    }
                    "allreduce_retry" => profile.retry_count += 1,
                    _ => {
                        if !covered {
                            profile.compute_seconds += gap;
                        }
                    }
                }
            }
            EventKind::Counter => {} // sampled inside spans; no interval of its own
        }
        last_ts = event.ts_micros;
    }

    profile.spans = span_stats.into_values().collect();
    let total_lost: f64 = attribution.values().map(|a| a.recovery + a.replay).sum();
    profile.workers = attribution
        .into_iter()
        .map(|(worker, a)| WorkerLostTime {
            worker,
            crashes: a.crashes,
            rejoins: a.rejoins,
            recovery_seconds: a.recovery,
            replay_seconds: a.replay,
            share: if total_lost > 0.0 {
                (a.recovery + a.replay) / total_lost
            } else {
                0.0
            },
        })
        .collect();
    profile
        .workers
        .sort_by(|a, b| b.lost_seconds().total_cmp(&a.lost_seconds()));
    profile
}

fn credit_replay(attribution: &mut BTreeMap<u64, Attribution>, worker: Option<u64>, seconds: f64) {
    if let Some(w) = worker {
        attribution.entry(w).or_default().replay += seconds;
    }
}

fn micros_delta(from: u64, to: u64) -> f64 {
    to.saturating_sub(from) as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_obs::{Recorder, TimelineRecorder};

    /// Builds a miniature trace with the workspace schema: two clean sync
    /// rounds, a crash/rollback on worker 1, one replayed round, a
    /// checkpoint, and a rejoin.
    fn fault_trace() -> Vec<Event> {
        let rec = TimelineRecorder::new();
        let run = rec.span_start(0, "resilient_local_sgd", fields! { "workers" => 2usize });
        // round 0 (step 0): 1s compute, 2s sync
        rec.clock().advance(1.0);
        let s = rec.span_start(
            0,
            "sync_round",
            fields! { "round" => 0usize, "step" => 0usize },
        );
        rec.clock().advance(2.0);
        rec.span_end(s, fields! {});
        // checkpoint: 0.5s
        let c = rec.span_start(0, "checkpoint_write", fields! { "step" => 1usize });
        rec.clock().advance(0.5);
        rec.span_end(c, fields! {});
        // round 1 (step 1): 1s compute, 2s sync
        rec.clock().advance(1.0);
        let s = rec.span_start(
            0,
            "sync_round",
            fields! { "round" => 1usize, "step" => 1usize },
        );
        rec.clock().advance(2.0);
        rec.span_end(s, fields! {});
        // crash on worker 1: 3s detection, then 1s restore to rollback
        rec.clock().advance(3.0);
        rec.instant(2, "crash", fields! { "worker" => 1usize, "step" => 2usize });
        rec.clock().advance(1.0);
        rec.instant(
            0,
            "rollback",
            fields! { "from_step" => 2usize, "to_step" => 1usize, "lost_samples" => 16usize },
        );
        // replayed round (step 1 again): 1s compute, 2s sync
        rec.clock().advance(1.0);
        let s = rec.span_start(
            0,
            "sync_round",
            fields! { "round" => 2usize, "step" => 1usize },
        );
        rec.clock().advance(2.0);
        rec.span_end(s, fields! {});
        // new progress (step 2): 1s compute, 2s sync
        rec.clock().advance(1.0);
        let s = rec.span_start(
            0,
            "sync_round",
            fields! { "round" => 3usize, "step" => 2usize },
        );
        rec.clock().advance(2.0);
        rec.span_end(s, fields! {});
        // rejoin of worker 1 after 0.5s regroup, then run tail
        rec.clock().advance(0.5);
        rec.instant(
            2,
            "rejoin",
            fields! { "worker" => 1usize, "step" => 3usize, "source" => "checkpoint" },
        );
        rec.clock().advance(0.25);
        rec.span_end(run, fields! {});
        rec.events()
    }

    #[test]
    fn decomposition_covers_the_whole_run() {
        let p = analyze(&fault_trace());
        assert!((p.total_seconds - 17.25).abs() < 1e-9);
        assert!((p.sync_seconds - 6.0).abs() < 1e-9, "3 live rounds x 2s");
        assert!((p.checkpoint_seconds - 0.5).abs() < 1e-9);
        assert!(
            (p.recovery_seconds - 4.5).abs() < 1e-9,
            "3s detect + 1s restore + 0.5s rejoin"
        );
        assert!(
            (p.replay_seconds - 3.0).abs() < 1e-9,
            "replayed round + its compute"
        );
        assert!(
            (p.compute_seconds - 3.25).abs() < 1e-9,
            "3 fresh rounds + tail"
        );
        assert!(p.unattributed_seconds() < 1e-9);
        assert_eq!(p.crash_count, 1);
        assert_eq!(p.rollback_count, 1);
    }

    #[test]
    fn lost_time_attributes_to_the_crashing_worker() {
        let p = analyze(&fault_trace());
        assert_eq!(p.workers.len(), 1);
        let w = &p.workers[0];
        assert_eq!(w.worker, 1);
        assert_eq!(w.crashes, 1);
        assert_eq!(w.rejoins, 1);
        assert!((w.lost_seconds() - 7.5).abs() < 1e-9);
        assert!(
            (w.share - 1.0).abs() < 1e-12,
            "only crasher owns all lost time"
        );
    }

    #[test]
    fn critical_path_excludes_parallel_compute() {
        let p = analyze(&fault_trace());
        let expected =
            p.sync_seconds + p.checkpoint_seconds + p.recovery_seconds + p.replay_seconds;
        assert!((p.critical_path_seconds() - expected).abs() < 1e-12);
        assert!(p.explained_fraction() > 0.0 && p.explained_fraction() < 1.0);
    }

    #[test]
    fn span_stats_aggregate_by_name() {
        let p = analyze(&fault_trace());
        let sync = p.spans.iter().find(|s| s.name == "sync_round").unwrap();
        assert_eq!(sync.count, 4);
        assert!((sync.seconds - 8.0).abs() < 1e-9);
        let ckpt = p
            .spans
            .iter()
            .find(|s| s.name == "checkpoint_write")
            .unwrap();
        assert_eq!(ckpt.count, 1);
    }

    #[test]
    fn runs_splits_back_to_back_windows() {
        let rec = TimelineRecorder::new();
        for i in 0..3 {
            let r = rec.span_start(0, "local_sgd", fields! { "run" => i as u64 });
            rec.clock().advance(1.0);
            rec.span_end(r, fields! {});
        }
        let events = rec.events();
        let windows = runs(&events, "local_sgd");
        assert_eq!(windows.len(), 3);
        assert!(windows.iter().all(|w| w.len() == 2));
        assert!(runs(&events, "missing").is_empty());
    }

    #[test]
    fn empty_trace_degenerates_to_zeros() {
        let p = analyze(&[]);
        assert_eq!(p.total_seconds, 0.0);
        assert_eq!(p.explained_fraction(), 0.0);
        assert!(p.workers.is_empty());
    }
}
