//! Rematerialization (gradient checkpointing) schedules.
//!
//! A feed-forward chain of `n` layers produces activations `a_1..a_n`
//! (bytes) at forward cost `f_1..f_n` (FLOPs). Backward needs each
//! activation again, in reverse order. A *schedule* picks a set of
//! **checkpoint** layers whose activations stay resident; everything else
//! is recomputed segment-by-segment during backward:
//!
//! * peak activation memory = bytes of all checkpoints + the largest
//!   segment's activations (materialized while that segment backprops),
//! * extra compute = one extra forward pass over every non-checkpoint
//!   layer (each segment is replayed exactly once).
//!
//! [`sqrt_schedule`] reproduces the classic equidistant heuristic, which
//! trains in O(sqrt(n)) memory for one extra forward pass.
//! [`optimal_schedule`] reproduces Checkmate's promise — the *best*
//! schedule for **any** memory budget — via Pareto-pruned dynamic
//! programming over (checkpoint bytes, max segment bytes, recompute).

use dl_nn::LayerCost;

/// A concrete checkpointing schedule and its costs.
#[derive(Debug, Clone, PartialEq, Eq)]
#[must_use = "a schedule is pure data; dropping it discards the plan"]
pub struct RematSchedule {
    /// Indices of layers whose activations stay resident (sorted).
    pub checkpoints: Vec<usize>,
    /// Peak activation memory in bytes.
    pub peak_bytes: u64,
    /// Extra forward FLOPs spent on recomputation per training step.
    pub recompute_flops: u64,
}

/// Activation bytes of layer `i`.
fn act_bytes(c: &LayerCost) -> u64 {
    c.activation_elems * 4
}

/// The store-everything baseline: every activation resident, no recompute.
pub fn store_all(costs: &[LayerCost]) -> RematSchedule {
    RematSchedule {
        checkpoints: (0..costs.len()).collect(),
        peak_bytes: costs.iter().map(act_bytes).sum(),
        recompute_flops: 0,
    }
}

/// Evaluates an arbitrary checkpoint set (sorted indices into `costs`).
///
/// # Panics
/// Panics when an index is out of range or unsorted/duplicated.
pub fn evaluate(costs: &[LayerCost], checkpoints: &[usize]) -> RematSchedule {
    assert!(
        checkpoints.windows(2).all(|w| w[0] < w[1]),
        "checkpoints must be sorted and unique"
    );
    assert!(
        checkpoints.iter().all(|&i| i < costs.len()),
        "checkpoint index out of range"
    );
    let ckpt_bytes: u64 = checkpoints.iter().map(|&i| act_bytes(&costs[i])).sum();
    // segments between consecutive checkpoints (and chain ends)
    let mut max_segment = 0u64;
    let mut recompute = 0u64;
    let mut is_ckpt = vec![false; costs.len()];
    for &i in checkpoints {
        is_ckpt[i] = true;
    }
    let mut seg_bytes = 0u64;
    for (i, c) in costs.iter().enumerate() {
        if is_ckpt[i] {
            max_segment = max_segment.max(seg_bytes);
            seg_bytes = 0;
        } else {
            seg_bytes += act_bytes(c);
            recompute += c.forward_flops;
        }
    }
    max_segment = max_segment.max(seg_bytes);
    RematSchedule {
        checkpoints: checkpoints.to_vec(),
        peak_bytes: ckpt_bytes + max_segment,
        recompute_flops: recompute,
    }
}

/// The classic equidistant heuristic: checkpoint every `ceil(sqrt(n))`-th
/// layer. Memory drops to O(sqrt(n)) of the baseline at the cost of (at
/// most) one extra forward pass.
pub fn sqrt_schedule(costs: &[LayerCost]) -> RematSchedule {
    let n = costs.len();
    if n == 0 {
        return RematSchedule {
            checkpoints: vec![],
            peak_bytes: 0,
            recompute_flops: 0,
        };
    }
    let stride = (n as f64).sqrt().ceil() as usize;
    let checkpoints: Vec<usize> = (0..n).step_by(stride.max(1)).collect();
    evaluate(costs, &checkpoints)
}

/// Finds the schedule minimizing recompute FLOPs subject to
/// `peak_bytes <= budget`, by dynamic programming over chain prefixes with
/// Pareto pruning (exact for the "replay each segment once" execution
/// model — the same model Checkmate's MILP optimizes in the paper's
/// single-replay setting).
///
/// Returns `None` when even the most aggressive schedule (no checkpoints)
/// exceeds the budget — the caller must distinguish that from success.
///
/// ```
/// use dl_memsched::{optimal_schedule, store_all};
/// use dl_nn::LayerCost;
/// let chain = vec![LayerCost {
///     forward_flops: 1000, backward_flops: 2000,
///     params: 0, activation_elems: 250, // 1000 bytes
/// }; 8];
/// let full = store_all(&chain).peak_bytes; // 8 KB
/// let half = optimal_schedule(&chain, full / 2).expect("feasible");
/// assert!(half.peak_bytes <= full / 2);
/// assert!(half.recompute_flops > 0); // memory bought with recompute
/// ```
#[must_use]
pub fn optimal_schedule(costs: &[LayerCost], budget: u64) -> Option<RematSchedule> {
    let n = costs.len();
    if n == 0 {
        return Some(RematSchedule {
            checkpoints: vec![],
            peak_bytes: 0,
            recompute_flops: 0,
        });
    }
    /// A partial schedule ending with a checkpoint at `last` (or none yet).
    #[derive(Clone)]
    struct State {
        ckpt_bytes: u64,
        max_seg: u64,
        recompute: u64,
        checkpoints: Vec<usize>,
    }
    // dominance: a state is dominated if another has <= on all three axes
    fn pareto_insert(states: &mut Vec<State>, s: State) {
        for t in states.iter() {
            if t.ckpt_bytes <= s.ckpt_bytes && t.max_seg <= s.max_seg && t.recompute <= s.recompute
            {
                return; // dominated
            }
        }
        states.retain(|t| {
            !(s.ckpt_bytes <= t.ckpt_bytes && s.max_seg <= t.max_seg && s.recompute <= t.recompute)
        });
        states.push(s);
    }
    // frontier[i] = Pareto states for the prefix 0..=i with layer i a
    // checkpoint; plus a virtual start "no checkpoint yet".
    let mut best: Option<State> = None;
    // seg_sum[i][j] helpers via prefix sums
    let mut pref_bytes = vec![0u64; n + 1];
    let mut pref_flops = vec![0u64; n + 1];
    for (i, c) in costs.iter().enumerate() {
        pref_bytes[i + 1] = pref_bytes[i] + act_bytes(c);
        pref_flops[i + 1] = pref_flops[i] + c.forward_flops;
    }
    let seg_bytes = |a: usize, b: usize| pref_bytes[b] - pref_bytes[a]; // layers a..b
    let seg_flops = |a: usize, b: usize| pref_flops[b] - pref_flops[a];
    let mut frontier: Vec<Vec<State>> = vec![Vec::new(); n];
    // initial states: first checkpoint at layer i (layers before it form a
    // recomputed segment), or no checkpoints at all.
    {
        let s = State {
            ckpt_bytes: 0,
            max_seg: seg_bytes(0, n),
            recompute: seg_flops(0, n),
            checkpoints: vec![],
        };
        if s.ckpt_bytes + s.max_seg <= budget {
            best = Some(s);
        }
    }
    for i in 0..n {
        let s = State {
            ckpt_bytes: act_bytes(&costs[i]),
            max_seg: seg_bytes(0, i),
            recompute: seg_flops(0, i),
            checkpoints: vec![i],
        };
        pareto_insert(&mut frontier[i], s);
    }
    for i in 0..n {
        // states ending at checkpoint i extend to a next checkpoint j or
        // finish (tail segment i+1..n)
        let states = frontier[i].clone();
        for s in states {
            // finish here
            let tail_seg = seg_bytes(i + 1, n);
            let total = State {
                ckpt_bytes: s.ckpt_bytes,
                max_seg: s.max_seg.max(tail_seg),
                recompute: s.recompute + seg_flops(i + 1, n),
                checkpoints: s.checkpoints.clone(),
            };
            if total.ckpt_bytes + total.max_seg <= budget {
                let better = match &best {
                    None => true,
                    Some(b) => total.recompute < b.recompute,
                };
                if better {
                    best = Some(total);
                }
            }
            // extend to checkpoint j
            for j in (i + 1)..n {
                let ns = State {
                    ckpt_bytes: s.ckpt_bytes + act_bytes(&costs[j]),
                    max_seg: s.max_seg.max(seg_bytes(i + 1, j)),
                    recompute: s.recompute + seg_flops(i + 1, j),
                    checkpoints: {
                        let mut c = s.checkpoints.clone();
                        c.push(j);
                        c
                    },
                };
                if ns.ckpt_bytes + ns.max_seg > budget {
                    // even if extended, ckpt_bytes only grows and max_seg
                    // never shrinks: prune
                    continue;
                }
                pareto_insert(&mut frontier[j], ns);
            }
        }
    }
    best.map(|s| RematSchedule {
        peak_bytes: s.ckpt_bytes + {
            // recompute true max segment including the tail
            evaluate(costs, &s.checkpoints).peak_bytes - s.ckpt_bytes
        },
        recompute_flops: s.recompute,
        checkpoints: s.checkpoints,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn uniform_chain(n: usize, bytes: u64, flops: u64) -> Vec<LayerCost> {
        vec![
            LayerCost {
                forward_flops: flops,
                backward_flops: 2 * flops,
                params: 0,
                activation_elems: bytes / 4,
            };
            n
        ]
    }

    #[test]
    fn store_all_has_no_recompute() {
        let chain = uniform_chain(16, 1000, 500);
        let s = store_all(&chain);
        assert_eq!(s.recompute_flops, 0);
        assert_eq!(s.peak_bytes, 16_000);
        assert_eq!(s.checkpoints.len(), 16);
    }

    #[test]
    fn sqrt_schedule_cuts_memory_geometrically() {
        let chain = uniform_chain(64, 1000, 500);
        let base = store_all(&chain);
        let sq = sqrt_schedule(&chain);
        // sqrt(64) = 8: 8 checkpoints + 7-layer segments ~ 15 units
        assert!(
            sq.peak_bytes <= base.peak_bytes / 4,
            "peak {}",
            sq.peak_bytes
        );
        // at most one extra forward pass
        let total_fwd: u64 = chain.iter().map(|c| c.forward_flops).sum();
        assert!(sq.recompute_flops <= total_fwd);
        assert!(sq.recompute_flops > 0);
    }

    #[test]
    fn evaluate_counts_segments_correctly() {
        let chain = uniform_chain(6, 100, 10);
        // checkpoints at 0 and 3: segments {1,2} and {4,5}
        let s = evaluate(&chain, &[0, 3]);
        assert_eq!(s.peak_bytes, 200 + 200); // 2 ckpts + max 2-layer segment
        assert_eq!(s.recompute_flops, 40); // layers 1,2,4,5 replayed
    }

    #[test]
    #[should_panic(expected = "sorted and unique")]
    fn evaluate_rejects_unsorted() {
        let _ = evaluate(&uniform_chain(4, 1, 1), &[2, 1]);
    }

    #[test]
    fn optimal_matches_store_all_with_big_budget() {
        let chain = uniform_chain(12, 1000, 500);
        let opt = optimal_schedule(&chain, u64::MAX).expect("feasible");
        assert_eq!(opt.recompute_flops, 0);
        assert_eq!(opt.checkpoints.len(), 12);
    }

    #[test]
    fn optimal_is_none_below_min_feasible_memory() {
        let chain = uniform_chain(8, 1000, 500);
        // best possible: 2 checkpoints (2000 B) + max segment of 2 layers
        // (2000 B) = 4000 B; anything below is infeasible
        assert!(optimal_schedule(&chain, 3_999).is_none());
        assert!(optimal_schedule(&chain, 4_000).is_some());
    }

    #[test]
    fn optimal_beats_sqrt_at_sqrt_memory() {
        // heterogeneous chain: big activations early, cheap flops late
        let mut chain = Vec::new();
        for i in 0..16 {
            chain.push(LayerCost {
                forward_flops: [900, 100][i % 2] * 1000,
                backward_flops: 0,
                params: 0,
                activation_elems: [4000u64, 250][i % 2],
            });
        }
        let sq = sqrt_schedule(&chain);
        let opt = optimal_schedule(&chain, sq.peak_bytes).expect("feasible at sqrt memory");
        assert!(
            opt.recompute_flops <= sq.recompute_flops,
            "optimal {} worse than sqrt {}",
            opt.recompute_flops,
            sq.recompute_flops
        );
        assert!(opt.peak_bytes <= sq.peak_bytes);
    }

    #[test]
    fn optimal_budget_monotonicity() {
        let chain = uniform_chain(8, 1000, 500);
        let budgets = [8_000u64, 6_000, 5_000, 4_000];
        let mut last = 0u64;
        for &b in &budgets {
            let s = optimal_schedule(&chain, b).expect("feasible");
            assert!(
                s.peak_bytes <= b,
                "peak {} exceeds budget {b}",
                s.peak_bytes
            );
            assert!(
                s.recompute_flops >= last,
                "less memory must not reduce recompute"
            );
            last = s.recompute_flops;
        }
    }

    /// The DP result never violates its budget and never recomputes
    /// more than one full forward pass (single-replay model).
    #[test]
    fn optimal_schedule_invariants() {
        for case in 0..256 {
            let mut rng = StdRng::seed_from_u64(case);
            let n = rng.gen_range(1usize..10);
            let budget_frac = rng.gen_range(0.3f64..1.2);
            let chain: Vec<LayerCost> = (0..n)
                .map(|_| LayerCost {
                    forward_flops: rng.gen_range(1..1000),
                    backward_flops: 0,
                    params: 0,
                    activation_elems: rng.gen_range(1..1000),
                })
                .collect();
            let base = store_all(&chain);
            let budget = (base.peak_bytes as f64 * budget_frac) as u64;
            if let Some(s) = optimal_schedule(&chain, budget) {
                assert!(s.peak_bytes <= budget, "case {case}");
                let total_fwd: u64 = chain.iter().map(|c| c.forward_flops).sum();
                assert!(s.recompute_flops <= total_fwd, "case {case}");
                // result must agree with independent evaluation
                let check = evaluate(&chain, &s.checkpoints);
                assert_eq!(check.recompute_flops, s.recompute_flops, "case {case}");
                assert_eq!(check.peak_bytes, s.peak_bytes, "case {case}");
            }
        }
    }

    /// Exhaustive check on tiny chains: the DP really is optimal.
    #[test]
    fn optimal_schedule_is_optimal_vs_bruteforce() {
        for case in 0..256 {
            let mut rng = StdRng::seed_from_u64(case);
            let n = rng.gen_range(1usize..7);
            let chain: Vec<LayerCost> = (0..n)
                .map(|_| LayerCost {
                    forward_flops: rng.gen_range(1..100),
                    backward_flops: 0,
                    params: 0,
                    activation_elems: rng.gen_range(1..100),
                })
                .collect();
            let base = store_all(&chain);
            let budget = base.peak_bytes * 2 / 3;
            // brute force over all checkpoint subsets
            let mut best: Option<u64> = None;
            for mask in 0u32..(1 << n) {
                let cps: Vec<usize> = (0..n).filter(|i| mask & (1 << i) != 0).collect();
                let s = evaluate(&chain, &cps);
                if s.peak_bytes <= budget {
                    best = Some(best.map_or(s.recompute_flops, |b: u64| b.min(s.recompute_flops)));
                }
            }
            let dp = optimal_schedule(&chain, budget);
            match (best, dp) {
                (None, None) => {}
                (Some(b), Some(d)) => assert_eq!(d.recompute_flops, b, "case {case}"),
                (b, d) => panic!(
                    "case {case}: feasibility mismatch: brute {:?} dp {:?}",
                    b,
                    d.map(|s| s.recompute_flops)
                ),
            }
        }
    }
}
