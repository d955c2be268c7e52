//! Priority-based parameter propagation (P3-style, §2.1).
//!
//! During the backward pass, gradients become available from the last layer
//! to the first, but the *next* forward pass consumes updated parameters
//! from the first layer onward. A FIFO communication queue therefore ships
//! big late-layer gradients first and leaves the first layer's (urgently
//! needed) update stuck behind the backlog. Priority scheduling slices
//! gradients and ships first-needed-first, overlapping the remaining
//! communication with the next forward pass.
//!
//! This module is a deterministic discrete-event simulation of one training
//! iteration under both policies, driven by per-layer compute times and
//! gradient sizes from the real cost model.

use crate::sim::Link;

/// Per-layer timing and size inputs to the schedule simulation.
#[derive(Debug, Clone, Copy)]
pub struct LayerComm {
    /// Seconds of backward compute for this layer.
    pub backward_time: f64,
    /// Seconds of forward compute for this layer.
    pub forward_time: f64,
    /// Gradient bytes this layer must synchronize.
    pub grad_bytes: u64,
}

/// Communication scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulePolicy {
    /// Ship gradients in the order backward produces them (last layer
    /// first).
    Fifo,
    /// Ship slices in order of next-forward need (first layer first),
    /// preempting at slice granularity.
    Priority,
}

/// The simulated outcome of one iteration.
#[must_use = "the schedule carries the timing measurements this simulation exists to produce"]
#[derive(Debug, Clone)]
pub struct CommSchedule {
    /// Policy simulated.
    pub policy: SchedulePolicy,
    /// Seconds from backward start until the next forward pass completes.
    pub iteration_seconds: f64,
    /// Seconds the next forward pass spent stalled waiting for parameters.
    pub stall_seconds: f64,
}

/// Number of slices each layer's gradient is cut into under the priority
/// policy (P3 uses fixed-size slices; a constant count keeps the simulation
/// simple while preserving the preemption effect).
const SLICES: usize = 8;

/// Simulates one iteration (backward pass, gradient communication, next
/// forward pass) under `policy`.
///
/// # Panics
/// Panics when `layers` is empty.
pub fn schedule_backward_comm(
    layers: &[LayerComm],
    link: &Link,
    policy: SchedulePolicy,
) -> CommSchedule {
    assert!(!layers.is_empty(), "need at least one layer");
    let n = layers.len();
    // gradient availability: backward runs from layer n-1 down to 0
    let mut avail = vec![0.0f64; n];
    let mut t = 0.0;
    for i in (0..n).rev() {
        t += layers[i].backward_time;
        avail[i] = t;
    }
    // build transfer jobs: (layer, ready_time, seconds_on_wire)
    struct Job {
        layer: usize,
        ready: f64,
        duration: f64,
    }
    let mut jobs: Vec<Job> = Vec::new();
    match policy {
        SchedulePolicy::Fifo => {
            for i in (0..n).rev() {
                jobs.push(Job {
                    layer: i,
                    ready: avail[i],
                    duration: link.transfer_time(layers[i].grad_bytes),
                });
            }
        }
        SchedulePolicy::Priority => {
            // slice each gradient; slices of earlier layers preempt.
            // Slices of one message stream over an open connection, so the
            // per-message latency is amortized across its slices rather
            // than paid per slice.
            for i in 0..n {
                let per_slice = layers[i].grad_bytes as f64 / SLICES as f64 / link.bandwidth
                    + link.latency / SLICES as f64;
                for _ in 0..SLICES {
                    jobs.push(Job {
                        layer: i,
                        ready: avail[i],
                        duration: per_slice,
                    });
                }
            }
        }
    }
    // serialize the channel
    let mut done = vec![0.0f64; n]; // completion of each layer's full gradient
    let mut remaining: Vec<usize> = (0..jobs.len()).collect();
    let mut channel_free = 0.0f64;
    let mut slices_left: Vec<usize> = match policy {
        SchedulePolicy::Fifo => vec![1; n],
        SchedulePolicy::Priority => vec![SLICES; n],
    };
    while !remaining.is_empty() {
        // choose next job among ready ones
        let now = channel_free;
        let pick = match policy {
            SchedulePolicy::Fifo => {
                // earliest-ready first (ties by layer descending = FIFO of
                // the backward stream)
                remaining
                    .iter()
                    .enumerate()
                    .min_by(|(_, &a), (_, &b)| {
                        jobs[a]
                            .ready
                            .total_cmp(&jobs[b].ready)
                            .then(jobs[b].layer.cmp(&jobs[a].layer))
                    })
                    .map(|(pos, _)| pos)
                    .expect("non-empty")
            }
            SchedulePolicy::Priority => {
                // among jobs ready by `now`, lowest layer index wins;
                // if none are ready, the earliest-ready one
                let ready: Vec<(usize, &usize)> = remaining
                    .iter()
                    .enumerate()
                    .filter(|(_, &j)| jobs[j].ready <= now)
                    .collect();
                if ready.is_empty() {
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
                        .iter()
                        .min_by_key(|(_, &j)| jobs[j].layer)
                        .map(|&(pos, _)| pos)
                        .expect("non-empty")
                }
            }
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
    // next forward pass: layer i starts when layer i-1's forward finished
    // AND layer i's parameters have arrived
    let backward_end = avail[0];
    let mut fwd_t = backward_end; // forward cannot start before backward ends
    let mut stall = 0.0;
    for i in 0..n {
        let ready = fwd_t.max(done[i]);
        stall += ready - fwd_t;
        fwd_t = ready + layers[i].forward_time;
    }
    CommSchedule {
        policy,
        iteration_seconds: fwd_t,
        stall_seconds: stall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A network shaped like real CNNs: early conv layers are param-light,
    /// late dense layers param-heavy. Their huge gradients become available
    /// FIRST in backward and hog a FIFO channel while the small early-layer
    /// gradients (needed first by the next forward) queue behind them —
    /// exactly the regime where P3's preemption wins.
    fn cnn_like() -> Vec<LayerComm> {
        vec![
            LayerComm {
                backward_time: 0.01,
                forward_time: 0.01,
                grad_bytes: 2_000_000,
            },
            LayerComm {
                backward_time: 0.01,
                forward_time: 0.01,
                grad_bytes: 10_000_000,
            },
            LayerComm {
                backward_time: 0.01,
                forward_time: 0.01,
                grad_bytes: 20_000_000,
            },
            LayerComm {
                backward_time: 0.01,
                forward_time: 0.01,
                grad_bytes: 40_000_000,
            },
        ]
    }

    #[test]
    fn priority_beats_fifo_on_cnn_like_networks() {
        let link = Link::ethernet();
        let layers = cnn_like();
        let fifo = schedule_backward_comm(&layers, &link, SchedulePolicy::Fifo);
        let prio = schedule_backward_comm(&layers, &link, SchedulePolicy::Priority);
        assert!(
            prio.iteration_seconds < fifo.iteration_seconds,
            "priority {} vs fifo {}",
            prio.iteration_seconds,
            fifo.iteration_seconds
        );
        assert!(prio.stall_seconds <= fifo.stall_seconds);
    }

    #[test]
    fn both_policies_ship_all_bytes() {
        // iteration time must be at least total wire time + compute floor
        let link = Link::ethernet();
        let layers = cnn_like();
        let total_bytes: u64 = layers.iter().map(|l| l.grad_bytes).sum();
        let wire_floor = total_bytes as f64 / link.bandwidth;
        for policy in [SchedulePolicy::Fifo, SchedulePolicy::Priority] {
            let s = schedule_backward_comm(&layers, &link, policy);
            assert!(
                s.iteration_seconds >= wire_floor,
                "{policy:?} finished faster than the wire allows"
            );
        }
    }

    #[test]
    fn single_layer_policies_agree() {
        let link = Link::ethernet();
        let layers = vec![LayerComm {
            backward_time: 0.01,
            forward_time: 0.02,
            grad_bytes: 1_000_000,
        }];
        let fifo = schedule_backward_comm(&layers, &link, SchedulePolicy::Fifo);
        let prio = schedule_backward_comm(&layers, &link, SchedulePolicy::Priority);
        // one layer: nothing to reorder (slicing adds only extra latency
        // per slice, which is tiny)
        assert!((fifo.iteration_seconds - prio.iteration_seconds).abs() < 1e-3);
    }

    #[test]
    fn zero_communication_means_zero_stall() {
        let link = Link::nvlink();
        let layers = vec![
            LayerComm {
                backward_time: 0.01,
                forward_time: 0.01,
                grad_bytes: 0,
            };
            3
        ];
        let s = schedule_backward_comm(&layers, &link, SchedulePolicy::Priority);
        // latency-only transfers complete during compute: negligible stall
        assert!(s.stall_seconds < 1e-3);
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn empty_layers_rejected() {
        let _ = schedule_backward_comm(&[], &Link::ethernet(), SchedulePolicy::Fifo);
    }
}
