//! The training loop, instrumented with the tutorial's two metric families.
//!
//! Every epoch records quality metrics (loss, accuracy) *and* resource
//! metrics (cumulative FLOPs, parameter and activation bytes). Downstream
//! crates convert the resource counts into simulated time and energy; the
//! counts themselves are hardware-independent and deterministic.

use dl_tensor::{init, Tensor};
use rand::rngs::StdRng;

use crate::loss::{one_hot, Loss};
use crate::metrics::accuracy;
use crate::network::Network;
use crate::optim::{LrSchedule, Optimizer};

/// A labeled classification dataset: feature rows plus integer labels.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Feature matrix `[samples, features]`.
    pub x: Tensor,
    /// Integer class labels, one per row.
    pub y: Vec<usize>,
    /// Number of classes.
    pub classes: usize,
}

impl Dataset {
    /// Bundles features and labels.
    ///
    /// # Panics
    /// Panics when row count and label count differ, or a label is out of
    /// range.
    pub fn new(x: Tensor, y: Vec<usize>, classes: usize) -> Self {
        assert_eq!(x.dims()[0], y.len(), "rows and labels must align");
        assert!(y.iter().all(|&l| l < classes), "label out of range");
        Dataset { x, y, classes }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// True when the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// The subset at the given row indices.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        Dataset {
            x: self.x.select_rows(indices),
            y: indices.iter().map(|&i| self.y[i]).collect(),
            classes: self.classes,
        }
    }

    /// Deterministic train/test split: first `(1-test_frac)` after a seeded
    /// shuffle goes to train.
    pub fn split(&self, test_frac: f64, seed: u64) -> (Dataset, Dataset) {
        let mut rng = init::rng(seed);
        let perm = init::permutation(self.len(), &mut rng);
        let test_n = (self.len() as f64 * test_frac).round() as usize;
        let (test_idx, train_idx) = perm.split_at(test_n);
        (self.subset(train_idx), self.subset(test_idx))
    }
}

/// Hyper-parameters for [`Trainer`].
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Loss function.
    pub loss: Loss,
    /// Learning-rate schedule applied on top of the optimizer's base rate.
    pub schedule: LrSchedule,
    /// Shuffle seed (data order is part of the experiment definition).
    pub seed: u64,
    /// L2 weight decay added to every gradient (0 disables).
    pub weight_decay: f32,
    /// Global gradient-norm clip (None disables).
    pub clip_norm: Option<f32>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 10,
            batch_size: 32,
            loss: Loss::SoftmaxCrossEntropy,
            schedule: LrSchedule::Constant,
            seed: 0,
            weight_decay: 0.0,
            clip_norm: None,
        }
    }
}

/// One epoch's record of quality and resource metrics.
#[derive(Debug, Clone)]
pub struct EpochRecord {
    /// 0-based epoch index.
    pub epoch: usize,
    /// Mean training loss over the epoch's batches.
    pub train_loss: f32,
    /// Training accuracy measured after the epoch.
    pub train_accuracy: f64,
    /// Learning-rate multiplier that was in effect.
    pub lr_scale: f32,
    /// Cumulative training FLOPs up to and including this epoch.
    pub cumulative_flops: u64,
    /// Whether the schedule marked this epoch as a snapshot point.
    pub cycle_end: bool,
}

/// Batched gradient-descent training with per-epoch instrumentation.
pub struct Trainer {
    /// Hyper-parameters.
    pub config: TrainConfig,
    /// Update rule.
    pub optimizer: Optimizer,
    /// Per-epoch records, appended as training progresses.
    pub history: Vec<EpochRecord>,
    /// Cumulative FLOPs across all `fit` calls on this trainer.
    pub flops: u64,
    rng: StdRng,
    /// Optional callback invoked after each epoch (snapshotting hooks).
    #[allow(clippy::type_complexity)]
    epoch_hook: Option<Box<dyn FnMut(&mut Network, &EpochRecord)>>,
}

impl Trainer {
    /// A trainer with the given config and optimizer.
    pub fn new(config: TrainConfig, optimizer: Optimizer) -> Self {
        let rng = init::rng(config.seed);
        Trainer {
            config,
            optimizer,
            history: Vec::new(),
            flops: 0,
            rng,
            epoch_hook: None,
        }
    }

    /// Registers a hook run after every epoch (Snapshot Ensembles use this
    /// to copy the model at cycle ends).
    pub fn on_epoch(&mut self, hook: impl FnMut(&mut Network, &EpochRecord) + 'static) {
        self.epoch_hook = Some(Box::new(hook));
    }

    /// Trains `net` on `data`, returning the per-epoch records added by
    /// this call.
    pub fn fit(&mut self, net: &mut Network, data: &Dataset) -> Vec<EpochRecord> {
        self.fit_soft(net, data, None)
    }

    /// Trains with optional soft targets (teacher probabilities for
    /// distillation) mixed in place of the hard one-hot labels.
    ///
    /// When `soft_targets` is `Some`, it must be a `[samples, classes]`
    /// matrix; rows are used directly as targets.
    pub fn fit_soft(
        &mut self,
        net: &mut Network,
        data: &Dataset,
        soft_targets: Option<&Tensor>,
    ) -> Vec<EpochRecord> {
        assert!(!data.is_empty(), "cannot train on an empty dataset");
        if let Some(t) = soft_targets {
            assert_eq!(t.dims()[0], data.len(), "soft target rows must match data");
        }
        let step_flops = net.cost_profile(self.config.batch_size).train_step_flops();
        let start_epoch = self.history.len();
        let mut added = Vec::with_capacity(self.config.epochs);
        for e in 0..self.config.epochs {
            let epoch = start_epoch + e;
            let scale = self.config.schedule.scale(epoch);
            let order = init::permutation(data.len(), &mut self.rng);
            let mut loss_sum = 0.0;
            let mut batches = 0;
            for chunk in order.chunks(self.config.batch_size) {
                let xb = data.x.select_rows(chunk);
                let targets = match soft_targets {
                    Some(t) => t.select_rows(chunk),
                    None => {
                        let labels: Vec<usize> = chunk.iter().map(|&i| data.y[i]).collect();
                        one_hot(&labels, data.classes)
                    }
                };
                net.zero_grads();
                let logits = net.forward(&xb, true);
                let (loss, grad) = self.config.loss.evaluate(&logits, &targets);
                net.backward(&grad);
                let mut pg = net.params_and_grads();
                apply_grad_transforms(&mut pg, self.config.weight_decay, self.config.clip_norm);
                self.optimizer.step(&mut pg, scale);
                loss_sum += loss;
                batches += 1;
                self.flops += step_flops;
            }
            let preds = net.predict(&data.x);
            let record = EpochRecord {
                epoch,
                train_loss: loss_sum / batches as f32,
                train_accuracy: accuracy(&preds, &data.y),
                lr_scale: scale,
                cumulative_flops: self.flops,
                cycle_end: self.config.schedule.is_cycle_end(epoch),
            };
            if let Some(hook) = &mut self.epoch_hook {
                hook(net, &record);
            }
            self.history.push(record.clone());
            added.push(record);
        }
        net.clear_caches();
        added
    }

    /// Rows per evaluation chunk. Small enough that the workspace's
    /// datasets genuinely exercise the multi-chunk path (the previous
    /// 2048 meant every eval was a single chunk and the chunking logic
    /// never ran), while still amortizing each dense layer's weight read
    /// over hundreds of rows. Chunking is bitwise invisible: see
    /// `predict_batched`.
    const EVAL_BATCH: usize = 256;

    /// Evaluates accuracy of `net` on a dataset without training.
    ///
    /// Runs through the chunked eval-mode forward path so peak
    /// activation memory is bounded by `EVAL_BATCH` (256) rows on
    /// arbitrarily large evaluation sets; chunking is bitwise invisible
    /// (see `predict_batched`).
    pub fn evaluate(net: &Network, data: &Dataset) -> f64 {
        accuracy(&net.predict_batched(&data.x, Self::EVAL_BATCH), &data.y)
    }
}

/// Adds L2 weight decay to every gradient and clips the global gradient
/// norm, in that order (decoupled-decay-then-clip, the common recipe).
fn apply_grad_transforms(
    params: &mut [(&mut Tensor, &mut Tensor)],
    weight_decay: f32,
    clip_norm: Option<f32>,
) {
    if weight_decay > 0.0 {
        for (p, g) in params.iter_mut() {
            **g = &**g + &(&**p * weight_decay);
        }
    }
    if let Some(max_norm) = clip_norm {
        assert!(max_norm > 0.0, "clip norm must be positive");
        let total: f32 = params
            .iter()
            .map(|(_, g)| g.sum_squares())
            .sum::<f32>()
            .sqrt();
        if total > max_norm {
            let scale = max_norm / total;
            for (_, g) in params.iter_mut() {
                g.map_inplace(|v| v * scale);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_tensor::init::rng;

    /// Two well-separated Gaussian blobs.
    fn blobs(n: usize, seed: u64) -> Dataset {
        let mut r = rng(seed);
        let mut xs = Vec::with_capacity(n * 2);
        let mut ys = Vec::with_capacity(n);
        for i in 0..n {
            let c = i % 2;
            let center = if c == 0 { -1.0 } else { 1.0 };
            let noise = init::uniform([2], -0.3, 0.3, &mut r);
            xs.push(center + noise.data()[0]);
            xs.push(center + noise.data()[1]);
            ys.push(c);
        }
        Dataset::new(Tensor::from_vec(xs, [n, 2]).unwrap(), ys, 2)
    }

    #[test]
    fn dataset_subset_and_split() {
        let d = blobs(20, 0);
        let s = d.subset(&[0, 5, 7]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.y[1], d.y[5]);
        let (train, test) = d.split(0.25, 1);
        assert_eq!(test.len(), 5);
        assert_eq!(train.len(), 15);
    }

    #[test]
    fn split_is_seed_deterministic() {
        let d = blobs(30, 2);
        let (a1, _) = d.split(0.3, 7);
        let (a2, _) = d.split(0.3, 7);
        assert_eq!(a1.y, a2.y);
        let (a3, _) = d.split(0.3, 8);
        assert_ne!(a1.y, a3.y);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn dataset_rejects_bad_labels() {
        Dataset::new(Tensor::zeros([2, 1]), vec![0, 5], 2);
    }

    #[test]
    fn training_converges_and_records_history() {
        let data = blobs(60, 3);
        let mut r = rng(4);
        let mut net = Network::mlp(&[2, 8, 2], &mut r);
        let mut trainer = Trainer::new(
            TrainConfig {
                epochs: 30,
                batch_size: 16,
                ..TrainConfig::default()
            },
            Optimizer::adam(0.01),
        );
        let records = trainer.fit(&mut net, &data);
        assert_eq!(records.len(), 30);
        assert!(records.last().unwrap().train_accuracy > 0.95);
        assert!(records.last().unwrap().train_loss < records[0].train_loss);
        // flops strictly increase
        assert!(records
            .windows(2)
            .all(|w| w[1].cumulative_flops > w[0].cumulative_flops));
    }

    #[test]
    fn epoch_hook_fires_each_epoch() {
        let data = blobs(20, 5);
        let mut r = rng(6);
        let mut net = Network::mlp(&[2, 4, 2], &mut r);
        let counter = std::rc::Rc::new(std::cell::Cell::new(0));
        let c2 = counter.clone();
        let mut trainer = Trainer::new(
            TrainConfig {
                epochs: 5,
                ..TrainConfig::default()
            },
            Optimizer::sgd(0.1),
        );
        trainer.on_epoch(move |_, _| c2.set(c2.get() + 1));
        trainer.fit(&mut net, &data);
        assert_eq!(counter.get(), 5);
    }

    #[test]
    fn cyclic_schedule_marks_cycle_ends() {
        let data = blobs(20, 7);
        let mut r = rng(8);
        let mut net = Network::mlp(&[2, 4, 2], &mut r);
        let mut trainer = Trainer::new(
            TrainConfig {
                epochs: 6,
                schedule: LrSchedule::CyclicCosine { cycle_len: 3 },
                ..TrainConfig::default()
            },
            Optimizer::sgd(0.1),
        );
        let records = trainer.fit(&mut net, &data);
        let ends: Vec<usize> = records
            .iter()
            .filter(|r| r.cycle_end)
            .map(|r| r.epoch)
            .collect();
        assert_eq!(ends, vec![2, 5]);
    }

    #[test]
    fn evaluate_chunked_matches_unchunked_bitwise() {
        // More rows than EVAL_BATCH so the multi-chunk path genuinely
        // runs (2 full chunks plus a ragged tail).
        let data = blobs(Trainer::EVAL_BATCH * 2 + 37, 11);
        let mut r = rng(12);
        let mut net = Network::mlp(&[2, 16, 2], &mut r);
        let mut trainer = Trainer::new(
            TrainConfig {
                epochs: 3,
                ..TrainConfig::default()
            },
            Optimizer::sgd(0.1),
        );
        trainer.fit(&mut net, &data);
        // Unchunked reference: one full forward, the library accuracy.
        let ref_acc = accuracy(&net.predict(&data.x), &data.y);
        assert_eq!(Trainer::evaluate(&net, &data), ref_acc);
    }

    #[test]
    fn soft_targets_train() {
        let data = blobs(20, 9);
        let soft = one_hot(&data.y, 2).map(|v| v * 0.9 + 0.05);
        let mut r = rng(10);
        let mut net = Network::mlp(&[2, 4, 2], &mut r);
        let mut trainer = Trainer::new(
            TrainConfig {
                epochs: 60,
                ..TrainConfig::default()
            },
            Optimizer::adam(0.02),
        );
        trainer.fit_soft(&mut net, &data, Some(&soft));
        assert!(Trainer::evaluate(&net, &data) > 0.9);
    }

    #[test]
    fn weight_decay_shrinks_parameter_norm() {
        let data = blobs(60, 40);
        let train = |wd: f32| {
            let mut r = rng(40);
            let mut net = Network::mlp(&[2, 16, 2], &mut r);
            let mut t = Trainer::new(
                TrainConfig {
                    epochs: 25,
                    weight_decay: wd,
                    ..TrainConfig::default()
                },
                Optimizer::sgd(0.1),
            );
            t.fit(&mut net, &data);
            net.flat_params().iter().map(|v| v * v).sum::<f32>().sqrt()
        };
        let free = train(0.0);
        let decayed = train(0.05);
        assert!(
            decayed < free,
            "decay should shrink weights: {decayed} vs {free}"
        );
    }

    #[test]
    fn gradient_clipping_bounds_update_magnitude() {
        // huge targets make raw gradients enormous; clipping bounds the step
        let data = blobs(40, 41);
        let run = |clip: Option<f32>| {
            let mut r = rng(42);
            let mut net = Network::mlp(&[2, 8, 2], &mut r);
            let before = net.flat_params();
            let mut t = Trainer::new(
                TrainConfig {
                    epochs: 1,
                    loss: Loss::MeanSquaredError,
                    clip_norm: clip,
                    ..TrainConfig::default()
                },
                Optimizer::sgd(1.0),
            );
            // train against absurd regression targets to provoke big grads
            let wild = Tensor::full([40, 2], 1e4);
            t.fit_soft(&mut net, &data, Some(&wild));
            let after = net.flat_params();
            before
                .iter()
                .zip(&after)
                .map(|(b, a)| (b - a).abs())
                .fold(0.0f32, f32::max)
        };
        let unclipped = run(None);
        let clipped = run(Some(1.0));
        assert!(
            clipped < unclipped / 10.0,
            "clipping must bound the step: {clipped} vs {unclipped}"
        );
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn fit_rejects_empty_dataset() {
        let mut r = rng(11);
        let mut net = Network::mlp(&[2, 2], &mut r);
        let empty = Dataset::new(Tensor::zeros([0, 2]), vec![], 2);
        Trainer::new(TrainConfig::default(), Optimizer::sgd(0.1)).fit(&mut net, &empty);
    }
}
