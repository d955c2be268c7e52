//! Optimize-then-parallelize (FlexFlow-style, §2.2).
//!
//! FlexFlow's core idea: spend *optimization time* up front — simulate
//! candidate parallelization strategies and search the strategy space with
//! a guided (MCMC) random walk — to save *execution time* on every
//! subsequent training iteration. This module reproduces that loop against
//! the `sim` cost model:
//!
//! * a **strategy** is an assignment of layers to devices
//!   ([`Placement`]),
//! * the **simulator** ([`Placement::simulate`]) prices a strategy:
//!   per-device compute load (the pipeline bottleneck) plus activation
//!   transfers across device boundaries,
//! * the **search** ([`optimize_placement`]) is simulated-annealing MCMC
//!   over single-layer reassignments,
//! * **baselines**: everything-on-one-device and round-robin model
//!   parallelism, plus fully data-parallel execution priced by the same
//!   model.

use crate::sim::Cluster;
use dl_nn::LayerCost;
use dl_tensor::init;
use rand::Rng;

/// A layer-to-device assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// `assignment[i]` = device executing layer `i`.
    pub assignment: Vec<usize>,
}

/// Simulated cost of a strategy.
#[must_use = "the cost breakdown is the output the placement search exists to produce"]
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StrategyCost {
    /// Seconds per training iteration in pipelined steady state.
    pub step_seconds: f64,
    /// Bytes of activations crossing device boundaries per iteration.
    pub transfer_bytes: u64,
}

impl Placement {
    /// Everything on device 0.
    pub fn single_device(layers: usize) -> Self {
        Placement {
            assignment: vec![0; layers],
        }
    }

    /// Layer `i` on device `i % n` (naive model parallelism).
    pub fn round_robin(layers: usize, devices: usize) -> Self {
        Placement {
            assignment: (0..layers).map(|i| i % devices).collect(),
        }
    }

    /// Simulated steady-state cost of this placement on `cluster` for a
    /// model with the given per-layer costs at the training batch size.
    ///
    /// Model: in pipelined execution the iteration time is bounded by the
    /// busiest device (compute bottleneck) plus the serialized activation
    /// traffic it must exchange. Backward is included (2x forward, same
    /// communication pattern).
    ///
    /// # Panics
    /// Panics when assignment length and layer count differ or a device
    /// index is out of range.
    pub fn simulate(&self, cluster: &Cluster, costs: &[LayerCost]) -> StrategyCost {
        assert_eq!(
            self.assignment.len(),
            costs.len(),
            "placement must assign every layer"
        );
        assert!(
            self.assignment.iter().all(|&d| d < cluster.len()),
            "device index out of range"
        );
        // per-device compute load (forward + backward)
        let mut load = vec![0.0f64; cluster.len()];
        for (i, c) in costs.iter().enumerate() {
            let d = self.assignment[i];
            load[d] += cluster.devices[d].compute_time(c.forward_flops + c.backward_flops);
        }
        let bottleneck = load.iter().copied().fold(0.0, f64::max);
        // activations crossing boundaries (forward) + gradients back
        let mut transfer_bytes = 0u64;
        for w in self.assignment.windows(2).zip(costs.windows(2)) {
            let (pair, cpair) = w;
            if pair[0] != pair[1] {
                // activation of the earlier layer moves, twice (fwd + bwd)
                transfer_bytes += 2 * cpair[0].activation_elems * 4;
            }
        }
        let comm = cluster.link.transfer_time(transfer_bytes);
        StrategyCost {
            step_seconds: bottleneck + comm,
            transfer_bytes,
        }
    }
}

/// Cost of pure data parallelism on the same cluster: every device holds a
/// replica, computes `1/n` of the batch, and all-reduces every parameter.
pub fn data_parallel_cost(cluster: &Cluster, costs: &[LayerCost]) -> StrategyCost {
    let n = cluster.len() as u64;
    let total_flops: u64 = costs
        .iter()
        .map(|c| c.forward_flops + c.backward_flops)
        .sum();
    let per_device = total_flops / n;
    let compute = cluster
        .devices
        .iter()
        .map(|d| d.compute_time(per_device))
        .fold(0.0, f64::max);
    let grad_bytes: u64 = costs.iter().map(|c| c.params * 4).sum();
    StrategyCost {
        step_seconds: compute + cluster.allreduce_time(grad_bytes),
        transfer_bytes: grad_bytes,
    }
}

/// MCMC search configuration.
#[derive(Debug, Clone)]
pub struct PlacementSearchConfig {
    /// Proposal/acceptance iterations.
    pub iterations: usize,
    /// Initial annealing temperature (in seconds of step-time slack).
    pub initial_temperature: f64,
    /// Multiplicative temperature decay per iteration.
    pub cooling: f64,
    /// Seed for the proposal chain.
    pub seed: u64,
}

impl Default for PlacementSearchConfig {
    fn default() -> Self {
        PlacementSearchConfig {
            iterations: 2000,
            initial_temperature: 0.05,
            cooling: 0.998,
            seed: 0,
        }
    }
}

/// Searches the placement space with simulated-annealing MCMC, starting
/// from round-robin. Returns the best placement found, its cost, and the
/// number of simulator evaluations spent (the "optimization time" axis of
/// experiment E7).
pub fn optimize_placement(
    cluster: &Cluster,
    costs: &[LayerCost],
    config: &PlacementSearchConfig,
) -> (Placement, StrategyCost, usize) {
    assert!(!costs.is_empty(), "cannot place an empty network");
    let mut rng = init::rng(config.seed);
    let mut current = Placement::round_robin(costs.len(), cluster.len());
    let mut current_cost = current.simulate(cluster, costs);
    let mut best = current.clone();
    let mut best_cost = current_cost;
    let mut temperature = config.initial_temperature;
    let mut evals = 1usize;
    for _ in 0..config.iterations {
        // propose: move one random layer to one random device
        let mut proposal = current.clone();
        let layer = rng.gen_range(0..costs.len());
        proposal.assignment[layer] = rng.gen_range(0..cluster.len());
        let cost = proposal.simulate(cluster, costs);
        evals += 1;
        let delta = cost.step_seconds - current_cost.step_seconds;
        let accept =
            delta <= 0.0 || (temperature > 0.0 && rng.gen::<f64>() < (-delta / temperature).exp());
        if accept {
            current = proposal;
            current_cost = cost;
            if current_cost.step_seconds < best_cost.step_seconds {
                best = current.clone();
                best_cost = current_cost;
            }
        }
        temperature *= config.cooling;
    }
    (best, best_cost, evals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{Device, Link};

    /// A 6-layer model with uneven compute and activation profiles.
    fn costs() -> Vec<LayerCost> {
        (0..6)
            .map(|i| LayerCost {
                forward_flops: [8, 1, 6, 1, 4, 1][i] * 1_000_000_000,
                backward_flops: [16, 2, 12, 2, 8, 2][i] * 1_000_000_000,
                params: 1_000_000,
                activation_elems: [400_000, 50_000, 300_000, 50_000, 200_000, 50_000][i],
            })
            .collect()
    }

    fn cluster() -> Cluster {
        Cluster::homogeneous(4, Device::accelerator(), Link::nvlink())
    }

    #[test]
    fn single_device_has_no_transfers() {
        let p = Placement::single_device(6);
        let c = p.simulate(&cluster(), &costs());
        assert_eq!(c.transfer_bytes, 0);
        assert!(c.step_seconds > 0.0);
    }

    #[test]
    fn round_robin_transfers_every_boundary() {
        let p = Placement::round_robin(6, 4);
        let c = p.simulate(&cluster(), &costs());
        assert!(c.transfer_bytes > 0);
    }

    #[test]
    fn simulate_rewards_load_balance() {
        let cl = cluster();
        let cs = costs();
        // all heavy layers on one device vs spread across two
        let lopsided = Placement {
            assignment: vec![0, 0, 0, 0, 0, 0],
        };
        let spread = Placement {
            assignment: vec![0, 0, 1, 1, 2, 2],
        };
        let a = lopsided.simulate(&cl, &cs);
        let b = spread.simulate(&cl, &cs);
        assert!(
            b.step_seconds < a.step_seconds,
            "{} vs {}",
            b.step_seconds,
            a.step_seconds
        );
    }

    #[test]
    fn search_beats_or_matches_round_robin() {
        let cl = cluster();
        let cs = costs();
        let rr = Placement::round_robin(6, 4).simulate(&cl, &cs);
        let (_, found, evals) = optimize_placement(&cl, &cs, &PlacementSearchConfig::default());
        assert!(found.step_seconds <= rr.step_seconds + 1e-12);
        assert!(evals > 1000);
    }

    #[test]
    fn search_beats_single_device_when_compute_dominates() {
        let cl = cluster();
        let cs = costs();
        let single = Placement::single_device(6).simulate(&cl, &cs);
        let (_, found, _) = optimize_placement(&cl, &cs, &PlacementSearchConfig::default());
        assert!(
            found.step_seconds < single.step_seconds,
            "search {} vs single {}",
            found.step_seconds,
            single.step_seconds
        );
    }

    #[test]
    fn search_is_seed_deterministic() {
        let cl = cluster();
        let cs = costs();
        let cfg = PlacementSearchConfig::default();
        let (a, ca, _) = optimize_placement(&cl, &cs, &cfg);
        let (b, cb, _) = optimize_placement(&cl, &cs, &cfg);
        assert_eq!(a, b);
        assert_eq!(ca.step_seconds, cb.step_seconds);
    }

    #[test]
    fn data_parallel_priced_by_allreduce() {
        let cl = cluster();
        let cs = costs();
        let dp = data_parallel_cost(&cl, &cs);
        assert_eq!(dp.transfer_bytes, 6 * 1_000_000 * 4);
        // on slow links data parallel loses to the searched placement
        let slow = Cluster::homogeneous(4, Device::accelerator(), Link::ethernet());
        let dp_slow = data_parallel_cost(&slow, &cs);
        assert!(dp_slow.step_seconds > dp.step_seconds);
    }

    #[test]
    #[should_panic(expected = "assign every layer")]
    fn mismatched_assignment_rejected() {
        let _ = Placement::single_device(3).simulate(&cluster(), &costs());
    }
}
