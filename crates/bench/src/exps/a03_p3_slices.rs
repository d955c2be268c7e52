//! A3 (ablation) — slice granularity in priority-based propagation.
//!
//! Design choice under test: `dl-distributed::priority` preempts transfers
//! at slice boundaries. One slice per gradient degenerates to
//! non-preemptive priority (barely better than FIFO); very fine slices
//! approach ideal preemption. This sweep measures where the returns
//! flatten.
//!
//! The module's slice count is a compile-time constant (8); the ablation
//! reimplements the same schedule locally with a variable count so the
//! shipped code stays simple.

use crate::table::{col, fixed, text, Column, ExperimentResult};
use dl_distributed::{LayerComm, Link};
use dl_obs::{fields, FieldValue};

/// A local re-implementation of the priority schedule with configurable
/// slice count (mirrors `dl_distributed::priority`, kept in sync by the
/// cross-check against the shipped 8-slice version in the unit test).
fn priority_with_slices(layers: &[LayerComm], link: &Link, slices: usize) -> f64 {
    let n = layers.len();
    let mut avail = vec![0.0f64; n];
    let mut t = 0.0;
    for i in (0..n).rev() {
        t += layers[i].backward_time;
        avail[i] = t;
    }
    struct Job {
        layer: usize,
        ready: f64,
        duration: f64,
    }
    let mut jobs: Vec<Job> = Vec::new();
    for (i, l) in layers.iter().enumerate() {
        let per_slice =
            l.grad_bytes as f64 / slices as f64 / link.bandwidth + link.latency / slices as f64;
        for _ in 0..slices {
            jobs.push(Job {
                layer: i,
                ready: avail[i],
                duration: per_slice,
            });
        }
    }
    let mut done = vec![0.0f64; n];
    let mut slices_left = vec![slices; n];
    let mut remaining: Vec<usize> = (0..jobs.len()).collect();
    let mut channel_free = 0.0f64;
    while !remaining.is_empty() {
        let now = channel_free;
        let ready: Vec<usize> = remaining
            .iter()
            .enumerate()
            .filter(|(_, &j)| jobs[j].ready <= now)
            .map(|(pos, _)| pos)
            .collect();
        let pick = if ready.is_empty() {
            remaining
                .iter()
                .enumerate()
                .min_by(|(_, &a), (_, &b)| {
                    jobs[a]
                        .ready
                        .total_cmp(&jobs[b].ready)
                        .then(jobs[a].layer.cmp(&jobs[b].layer))
                })
                .map(|(pos, _)| pos)
                .expect("non-empty")
        } else {
            ready
                .into_iter()
                .min_by_key(|&pos| jobs[remaining[pos]].layer)
                .expect("non-empty")
        };
        let job_idx = remaining.swap_remove(pick);
        let job = &jobs[job_idx];
        let start = channel_free.max(job.ready);
        channel_free = start + job.duration;
        slices_left[job.layer] -= 1;
        if slices_left[job.layer] == 0 {
            done[job.layer] = channel_free;
        }
    }
    let mut fwd_t = avail[0];
    for i in 0..n {
        fwd_t = fwd_t.max(done[i]) + layers[i].forward_time;
    }
    fwd_t
}

fn cnn_profile() -> Vec<LayerComm> {
    [2u64, 6, 10, 20, 40]
        .iter()
        .map(|&mb| LayerComm {
            backward_time: 0.010,
            forward_time: 0.010,
            grad_bytes: mb * 1_000_000,
        })
        .collect()
}

const COLUMNS: &[Column] = &[
    col("schedule", "schedule", text),
    col("iteration seconds", "seconds", fixed::<5>),
    col("vs FIFO", "vs_fifo", signed_pct),
];

/// A relative change as a signed percentage (`-16.3%`).
fn signed_pct(v: &FieldValue) -> String {
    format!("{:+.1}%", v.as_f64().expect("numeric field") * 100.0)
}

/// Runs the ablation.
pub fn run() -> ExperimentResult {
    use dl_distributed::{schedule_backward_comm, SchedulePolicy};
    let link = Link::ethernet();
    let layers = cnn_profile();
    let mut records = Vec::new();
    let fifo = schedule_backward_comm(&layers, &link, SchedulePolicy::Fifo).iteration_seconds;
    records.push(fields! {"schedule" => "fifo", "seconds" => fifo, "vs_fifo" => 0.0});
    let base = priority_with_slices(&layers, &link, 1);
    let mut s8 = base;
    let mut s64 = base;
    for slices in [1usize, 2, 4, 8, 16, 64] {
        let secs = priority_with_slices(&layers, &link, slices);
        records.push(fields! {
            "schedule" => format!("priority/{slices}"), "seconds" => secs,
            "vs_fifo" => secs / fifo - 1.0,
        });
        if slices == 8 {
            s8 = secs;
        }
        if slices == 64 {
            s64 = secs;
        }
    }
    // two separable effects: message-level reordering (priority/1 vs FIFO)
    // and slice-level preemption (priority/8 vs priority/1)
    let reordering_pays = base < fifo * 0.95;
    let preemption_pays = s8 < base * 0.97;
    let returns_flatten = (s8 - s64) / s8 < 0.05;
    ExperimentResult {
        id: "a3".into(),
        title: "ablation: P3 slice granularity (vs FIFO and non-preemptive priority)".into(),
        tables: vec![COLUMNS],
        verdict: if reordering_pays && preemption_pays && returns_flatten {
            "both halves of the design pay: priority reordering beats FIFO, slice \
             preemption adds several percent more, and returns flatten near the shipped \
             8-slice constant"
                .into()
        } else {
            format!(
                "inconclusive: reorder={reordering_pays} preempt={preemption_pays} flatten={returns_flatten}"
            )
        },
        records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_distributed::{schedule_backward_comm, SchedulePolicy};

    #[test]
    fn a3_runs() {
        let r = run();
        assert_eq!(r.row_counts(), [7]); // fifo + six slice counts
    }

    /// The local reimplementation at 8 slices matches the shipped module.
    #[test]
    fn local_schedule_matches_shipped_at_8_slices() {
        let layers = cnn_profile();
        let link = Link::ethernet();
        let local = priority_with_slices(&layers, &link, 8);
        let shipped =
            schedule_backward_comm(&layers, &link, SchedulePolicy::Priority).iteration_seconds;
        assert!(
            (local - shipped).abs() < 1e-9,
            "local {local} vs shipped {shipped}"
        );
    }
}
