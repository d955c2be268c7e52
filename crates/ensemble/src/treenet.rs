//! TreeNets: ensemble members that share a trunk of early layers.
//!
//! The tutorial highlights TreeNets as exploiting *structural similarity*:
//! early layers learn generic features, so members can share them. The trunk
//! is trained once (receiving averaged gradient flow from all branches) and
//! evaluated once per input at inference — cutting both the memory and the
//! inference-time metric relative to independent members.

use crate::{Ensemble, EnsembleReport};
use dl_nn::{
    loss::{one_hot, Loss},
    Dataset, Network, Optimizer,
};
use dl_tensor::{init, Tensor};
use rand::rngs::StdRng;

/// TreeNet architecture and training configuration.
#[derive(Debug, Clone)]
pub struct TreeNetConfig {
    /// Widths of the shared trunk, starting at the input width
    /// (e.g. `[in, 32]`). The trunk ends with a ReLU.
    pub trunk_dims: Vec<usize>,
    /// Widths of each branch, starting at the trunk output width and ending
    /// at the class count (e.g. `[32, 16, classes]`).
    pub branch_dims: Vec<usize>,
    /// Number of branches (ensemble members).
    pub members: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Batch size.
    pub batch_size: usize,
    /// Seed for initialization and shuffling.
    pub seed: u64,
}

/// A trunk shared by `members` branch networks.
#[derive(Debug, Clone)]
pub struct TreeNet {
    /// Shared early layers.
    pub trunk: Network,
    /// Per-member heads.
    pub branches: Vec<Network>,
}

impl TreeNet {
    /// Builds a TreeNet per `config` with fresh weights.
    ///
    /// # Panics
    /// Panics when trunk output width and branch input width disagree, or
    /// `members == 0`.
    pub fn new(config: &TreeNetConfig, rng: &mut StdRng) -> Self {
        assert!(config.members > 0, "TreeNet needs at least one branch");
        assert_eq!(
            *config.trunk_dims.last().expect("trunk dims non-empty"),
            config.branch_dims[0],
            "trunk output width must equal branch input width"
        );
        let mut trunk = Network::mlp(&config.trunk_dims, rng);
        // trunk ends in ReLU so branches see nonlinear features
        *trunk.layers_mut() = {
            let mut ls = trunk.layers().to_vec();
            ls.push(dl_nn::Layer::ReLU(dl_nn::layers::ReLU::new()));
            ls
        };
        let branches = (0..config.members)
            .map(|_| Network::mlp(&config.branch_dims, rng))
            .collect();
        TreeNet { trunk, branches }
    }

    /// Averaged branch probabilities (trunk evaluated once).
    pub fn predict_proba(&self, x: &Tensor) -> Tensor {
        let features = self.trunk.eval(x);
        let mut acc: Option<Tensor> = None;
        for b in &self.branches {
            let p = b.predict_proba(&features);
            acc = Some(match acc {
                None => p,
                Some(a) => &a + &p,
            });
        }
        &acc.expect("at least one branch") * (1.0 / self.branches.len() as f32)
    }

    /// Class predictions.
    pub fn predict(&self, x: &Tensor) -> Vec<usize> {
        self.predict_proba(x).argmax_rows()
    }

    /// Accuracy on a dataset.
    pub fn accuracy(&self, data: &Dataset) -> f64 {
        dl_nn::metrics::accuracy(&self.predict(&data.x), &data.y)
    }

    /// Total parameters (trunk counted once — the memory saving).
    pub fn total_params(&self) -> usize {
        self.trunk.param_count() + self.branches.iter().map(Network::param_count).sum::<usize>()
    }

    /// Forward FLOPs per input (trunk counted once — the inference saving).
    pub fn inference_flops(&self) -> u64 {
        self.trunk.cost_profile(1).forward_flops
            + self
                .branches
                .iter()
                .map(|b| b.cost_profile(1).forward_flops)
                .sum::<u64>()
    }

    /// One training step on a batch: trunk forward once, every branch
    /// forward/backward, branch input-gradients averaged into the trunk.
    /// Returns the mean branch loss.
    pub fn train_step(
        &mut self,
        x: &Tensor,
        targets: &Tensor,
        trunk_opt: &mut Optimizer,
        branch_opts: &mut [Optimizer],
    ) -> f32 {
        let features = self.trunk.forward(x, true);
        let mut trunk_grad: Option<Tensor> = None;
        let mut total_loss = 0.0;
        for (branch, opt) in self.branches.iter_mut().zip(branch_opts.iter_mut()) {
            branch.zero_grads();
            let logits = branch.forward(&features, true);
            let (loss, grad) = Loss::SoftmaxCrossEntropy.evaluate(&logits, targets);
            let gin = branch.backward(&grad);
            let mut pg = branch.params_and_grads();
            opt.step(&mut pg, 1.0);
            total_loss += loss;
            trunk_grad = Some(match trunk_grad {
                None => gin,
                Some(a) => &a + &gin,
            });
        }
        let gin = &trunk_grad.expect("at least one branch") * (1.0 / self.branches.len() as f32);
        self.trunk.zero_grads();
        self.trunk.backward(&gin);
        let mut pg = self.trunk.params_and_grads();
        trunk_opt.step(&mut pg, 1.0);
        total_loss / self.branches.len() as f32
    }
}

/// Trains a TreeNet and reports ensemble-level metrics.
pub fn treenet(
    data: &Dataset,
    eval: &Dataset,
    config: &TreeNetConfig,
    rng: &mut StdRng,
) -> (TreeNet, EnsembleReport) {
    let mut tree = TreeNet::new(config, rng);
    let mut trunk_opt = Optimizer::adam(0.01);
    let mut branch_opts: Vec<Optimizer> =
        (0..config.members).map(|_| Optimizer::adam(0.01)).collect();
    let mut shuffle_rng = init::rng(config.seed);
    // FLOP accounting: trunk once + branches per step
    let trunk_step = tree.trunk.cost_profile(config.batch_size).train_step_flops();
    let branch_step: u64 = tree
        .branches
        .iter()
        .map(|b| b.cost_profile(config.batch_size).train_step_flops())
        .sum();
    let mut flops = 0u64;
    for _ in 0..config.epochs {
        let order = init::permutation(data.len(), &mut shuffle_rng);
        for chunk in order.chunks(config.batch_size) {
            let xb = data.x.select_rows(chunk);
            let labels: Vec<usize> = chunk.iter().map(|&i| data.y[i]).collect();
            let targets = one_hot(&labels, data.classes);
            tree.train_step(&xb, &targets, &mut trunk_opt, &mut branch_opts);
            flops += trunk_step + branch_step;
        }
    }
    let report = EnsembleReport {
        strategy: "treenet",
        accuracy: tree.accuracy(eval),
        train_flops: flops,
        params: tree.total_params(),
        inference_flops: tree.inference_flops(),
    };
    (tree, report)
}

/// Converts a trained TreeNet into a flat [`Ensemble`] by concatenating the
/// trunk and each branch into a standalone network (for interoperability
/// with code that expects plain ensembles; loses the sharing benefit).
pub fn flatten(tree: &TreeNet) -> Ensemble {
    let members = tree
        .branches
        .iter()
        .map(|branch| {
            let mut net = Network::new(tree.trunk.input_dim);
            let mut layers = tree.trunk.layers().to_vec();
            layers.extend(branch.layers().iter().cloned());
            *net.layers_mut() = layers;
            net
        })
        .collect();
    Ensemble::new(members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::independent;
    use dl_nn::TrainConfig;
    use dl_data::blobs;
    use dl_tensor::init::rng;

    fn config() -> TreeNetConfig {
        TreeNetConfig {
            trunk_dims: vec![4, 16],
            branch_dims: vec![16, 8, 3],
            members: 3,
            epochs: 20,
            batch_size: 32,
            seed: 0,
        }
    }

    #[test]
    fn treenet_learns() {
        let data = blobs(150, 3, 4, 6.0, 0.4, 0);
        let mut r = rng(1);
        let (tree, report) = treenet(&data, &data, &config(), &mut r);
        assert!(report.accuracy > 0.85, "accuracy {}", report.accuracy);
        assert_eq!(tree.branches.len(), 3);
        assert_eq!(tree.predict(&data.x).len(), 150);
    }

    #[test]
    fn treenet_saves_params_and_inference_vs_independent() {
        let data = blobs(120, 3, 4, 6.0, 0.4, 2);
        let mut r = rng(3);
        let (tree, tree_report) = treenet(&data, &data, &config(), &mut r);
        let (_, indep_report) = independent(
            &data,
            &data,
            &[4, 16, 8, 3],
            3,
            &TrainConfig {
                epochs: 20,
                ..TrainConfig::default()
            },
            &mut r,
        );
        assert!(
            tree_report.params < indep_report.params,
            "treenet {} >= independent {}",
            tree_report.params,
            indep_report.params
        );
        assert!(tree_report.inference_flops < indep_report.inference_flops);
        assert_eq!(tree.total_params(), tree_report.params);
    }

    #[test]
    #[should_panic(expected = "trunk output width")]
    fn mismatched_trunk_branch_rejected() {
        let mut r = rng(4);
        TreeNet::new(
            &TreeNetConfig {
                trunk_dims: vec![4, 16],
                branch_dims: vec![8, 3],
                members: 2,
                epochs: 1,
                batch_size: 8,
                seed: 0,
            },
            &mut r,
        );
    }

    #[test]
    fn flatten_preserves_predictions() {
        let data = blobs(60, 2, 3, 6.0, 0.4, 5);
        let mut r = rng(6);
        let cfg = TreeNetConfig {
            trunk_dims: vec![3, 8],
            branch_dims: vec![8, 2],
            members: 2,
            epochs: 10,
            batch_size: 16,
            seed: 1,
        };
        let (tree, _) = treenet(&data, &data, &cfg, &mut r);
        let flat = flatten(&tree);
        let p_tree = tree.predict_proba(&data.x);
        let p_flat = flat.predict_proba(&data.x);
        assert!(p_tree.approx_eq(&p_flat, 1e-5));
    }

    #[test]
    fn branches_diverge_during_training() {
        let data = blobs(80, 2, 3, 6.0, 0.4, 7);
        let mut r = rng(8);
        let cfg = TreeNetConfig {
            trunk_dims: vec![3, 8],
            branch_dims: vec![8, 2],
            members: 2,
            epochs: 5,
            batch_size: 16,
            seed: 2,
        };
        let (tree, _) = treenet(&data, &data, &cfg, &mut r);
        assert_ne!(tree.branches[0].flat_params(), tree.branches[1].flat_params());
    }
}
