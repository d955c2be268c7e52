//! Measured per-layer cost profiles: what the tensor kernels actually did.
//!
//! [`NetworkProfile::profile`] drives one forward and one backward pass
//! through a network, opening a `dl_tensor::acct` scope around each layer,
//! and records the measured [`OpCost`] next to the static prediction from
//! `dl-nn::cost`. For dense layers on zero-free activations the forward
//! FLOPs agree *exactly* (both count `2·b·in·out` matmul work plus `b·out`
//! bias adds); ReLU-style activations and the sparse-matmul zero skip make
//! the measured numbers diverge from the model in documented, meaningful
//! ways — that divergence is the point of measuring.

use dl_nn::cost::{CostProfile, LayerCost};
use dl_nn::Network;
use dl_obs::{fields, Fields, Recorder, ToFields};
use dl_tensor::acct::{self, OpCost};
use dl_tensor::Tensor;

/// Measured cost of one layer: forward and backward kernel work, plus the
/// static model's prediction for the same layer and batch.
#[derive(Debug, Clone)]
#[must_use = "a layer profile is pure data; dropping it discards the measurement"]
pub struct LayerProfile {
    /// Position in the network (0-based).
    pub index: usize,
    /// Layer name (`dense`, `relu`, ...).
    pub name: String,
    /// Measured forward-pass cost.
    pub forward: OpCost,
    /// Measured backward-pass cost.
    pub backward: OpCost,
    /// The static model's prediction for this layer.
    pub modeled: LayerCost,
    /// Elements in this layer's output activation.
    pub output_elems: u64,
}

impl ToFields for LayerProfile {
    fn to_fields(&self) -> Fields {
        fields! {
            "layer" => self.index,
            "name" => self.name.clone(),
            "fwd_flops" => self.forward.flops,
            "fwd_bytes" => self.forward.bytes_moved(),
            "bwd_flops" => self.backward.flops,
            "bwd_bytes" => self.backward.bytes_moved(),
            "modeled_fwd_flops" => self.modeled.forward_flops,
            "modeled_bwd_flops" => self.modeled.backward_flops,
            "output_elems" => self.output_elems,
        }
    }
}

/// Measured cost profile of a whole network at one batch size.
#[derive(Debug, Clone)]
#[must_use = "a network profile is pure data; dropping it discards the measurement"]
pub struct NetworkProfile {
    /// Batch size the profile was taken at.
    pub batch: usize,
    /// Per-layer measurements, in network order.
    pub layers: Vec<LayerProfile>,
    /// Total measured forward cost.
    pub forward: OpCost,
    /// Total measured backward cost.
    pub backward: OpCost,
    /// Parameter memory in bytes.
    pub param_bytes: u64,
    /// Input batch memory in bytes.
    pub input_bytes: u64,
    /// Peak live memory under store-all training: parameters + input +
    /// every layer's output held for backward. This is the figure the
    /// `dl-memsched` schedulers attack.
    pub peak_live_bytes: u64,
    /// The static model's aggregate prediction.
    pub modeled: CostProfile,
}

impl NetworkProfile {
    /// Profiles `net` on input `x` (shape `[batch, features]`): one
    /// forward pass and one backward pass from a unit output gradient,
    /// each layer inside its own accounting scope.
    ///
    /// The network is genuinely trained-on (caches fill, dropout steps),
    /// so profile a clone when the original must stay untouched.
    ///
    /// # Panics
    /// Panics when `x` is not rank 2.
    pub fn profile(net: &mut Network, x: &Tensor) -> Self {
        assert_eq!(x.rank(), 2, "profile input must be [batch, features]");
        let batch = x.dims()[0];
        let param_bytes = (net.param_count() * 4) as u64;
        let input_bytes = (x.len() * 4) as u64;

        let mut layers = Vec::new();
        let mut activation = x.clone();
        let mut input_dim = x.dims()[1];
        for (index, layer) in net.layers_mut().iter_mut().enumerate() {
            let (modeled, out_dim) = layer.cost(batch, input_dim);
            let (out, forward) = acct::measure(|| layer.forward(activation, true));
            layers.push(LayerProfile {
                index,
                name: layer.name().to_string(),
                forward,
                backward: OpCost::default(),
                modeled,
                output_elems: out.len() as u64,
            });
            activation = out;
            input_dim = out_dim;
        }

        let mut grad = activation.map(|_| 1.0);
        // The map above charged a scope-less kernel; re-zero nothing —
        // accounting was off, so it cost nothing. Backward walk mirrors
        // the forward indices in reverse.
        for (index, layer) in net.layers_mut().iter_mut().enumerate().rev() {
            let (g, backward) = acct::measure(|| layer.backward(&grad));
            layers[index].backward = backward;
            grad = g;
        }

        let forward = layers
            .iter()
            .fold(OpCost::default(), |acc, l| acc.merge(l.forward));
        let backward = layers
            .iter()
            .fold(OpCost::default(), |acc, l| acc.merge(l.backward));
        let activation_bytes: u64 = layers.iter().map(|l| l.output_elems * 4).sum();
        let modeled = net.cost_profile(batch);
        NetworkProfile {
            batch,
            layers,
            forward,
            backward,
            param_bytes,
            input_bytes,
            peak_live_bytes: param_bytes + input_bytes + activation_bytes,
            modeled,
        }
    }

    /// Measured-over-modeled forward FLOP ratio (1.0 = exact agreement).
    pub fn forward_parity(&self) -> f64 {
        ratio(self.forward.flops, self.modeled.forward_flops)
    }

    /// Measured-over-modeled backward FLOP ratio. The static model uses
    /// the classic "backward = 2x forward" approximation, so a healthy
    /// measurement lands near, not at, 1.0.
    pub fn backward_parity(&self) -> f64 {
        ratio(self.backward.flops, self.modeled.backward_flops)
    }

    /// Total measured cost of one training step (forward + backward).
    pub fn train_step(&self) -> OpCost {
        self.forward.merge(self.backward)
    }

    /// The measured profile as per-layer [`LayerCost`]s, directly usable
    /// by the `dl-memsched` schedulers in place of the static model:
    /// FLOPs are measured, parameter and activation counts come from the
    /// layer geometry.
    pub fn measured_layer_costs(&self) -> Vec<LayerCost> {
        self.layers
            .iter()
            .map(|l| LayerCost {
                forward_flops: l.forward.flops,
                backward_flops: l.backward.flops,
                params: l.modeled.params,
                activation_elems: l.output_elems,
            })
            .collect()
    }

    /// Publishes the profile onto a recorder: aggregate counters under
    /// `prof.*` and one `layer_profile` instant per layer on track 0.
    pub fn emit(&self, rec: &dyn Recorder) {
        rec.counter(0, "prof.forward_flops", self.forward.flops);
        rec.counter(0, "prof.backward_flops", self.backward.flops);
        rec.counter(0, "prof.bytes_read", self.train_step().bytes_read);
        rec.counter(0, "prof.bytes_written", self.train_step().bytes_written);
        rec.counter(0, "prof.peak_live_bytes", self.peak_live_bytes);
        for layer in &self.layers {
            rec.instant(0, "layer_profile", layer.to_fields());
        }
    }
}

impl ToFields for NetworkProfile {
    fn to_fields(&self) -> Fields {
        fields! {
            "batch" => self.batch,
            "layers" => self.layers.len(),
            "fwd_flops" => self.forward.flops,
            "bwd_flops" => self.backward.flops,
            "bytes_read" => self.train_step().bytes_read,
            "bytes_written" => self.train_step().bytes_written,
            "param_bytes" => self.param_bytes,
            "peak_live_bytes" => self.peak_live_bytes,
            "modeled_fwd_flops" => self.modeled.forward_flops,
            "modeled_bwd_flops" => self.modeled.backward_flops,
            "fwd_parity" => self.forward_parity(),
            "bwd_parity" => self.backward_parity(),
        }
    }
}

fn ratio(measured: u64, modeled: u64) -> f64 {
    if modeled == 0 {
        if measured == 0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        measured as f64 / modeled as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_nn::layers::{Dense, Sigmoid};
    use dl_nn::Layer;
    use dl_tensor::init;

    fn sigmoid_mlp(dims: &[usize]) -> Network {
        // Sigmoid activations keep every activation strictly positive, so
        // the sparse-matmul zero skip never fires and dense forward FLOPs
        // match the static model exactly.
        let mut rng = init::rng(7);
        let mut net = Network::new(dims[0]);
        for w in dims.windows(2) {
            net = net
                .push(Layer::Dense(Dense::new(w[0], w[1], &mut rng)))
                .push(Layer::Sigmoid(Sigmoid::new()));
        }
        net
    }

    fn positive_input(batch: usize, features: usize) -> Tensor {
        Tensor::from_vec(
            (0..batch * features)
                .map(|i| 0.1 + (i % 13) as f32 * 0.07)
                .collect(),
            [batch, features],
        )
        .expect("valid input")
    }

    #[test]
    fn dense_forward_flops_match_static_model_exactly() {
        let mut net = sigmoid_mlp(&[6, 10, 4]);
        let x = positive_input(8, 6);
        let prof = NetworkProfile::profile(&mut net, &x);
        for layer in &prof.layers {
            if layer.name == "dense" {
                assert_eq!(
                    layer.forward.flops, layer.modeled.forward_flops,
                    "dense layer {} measured != modeled",
                    layer.index
                );
            }
        }
        assert_eq!(prof.layers.len(), 4);
        assert!(prof.forward.flops > 0);
    }

    #[test]
    fn backward_lands_in_the_2x_approximation_band() {
        let mut net = sigmoid_mlp(&[6, 10, 4]);
        let x = positive_input(8, 6);
        let prof = NetworkProfile::profile(&mut net, &x);
        let parity = prof.backward_parity();
        assert!(
            parity > 0.5 && parity < 1.5,
            "backward parity {parity} far from the 2x-forward approximation"
        );
    }

    #[test]
    fn peak_live_bytes_counts_params_input_and_activations() {
        let mut net = sigmoid_mlp(&[6, 10, 4]);
        let x = positive_input(8, 6);
        let prof = NetworkProfile::profile(&mut net, &x);
        // params: 6*10+10 + 10*4+4 = 114 -> 456 bytes; input 8*6*4 = 192;
        // activations: dense(8*10) + sigmoid(8*10) + dense(8*4) + sigmoid(8*4) = 224 elems
        assert_eq!(prof.param_bytes, 456);
        assert_eq!(prof.input_bytes, 192);
        assert_eq!(prof.peak_live_bytes, 456 + 192 + 224 * 4);
    }

    #[test]
    fn profiling_does_not_change_the_parameters() {
        let mut net = sigmoid_mlp(&[6, 10, 4]);
        let before = net.flat_params();
        let x = positive_input(8, 6);
        let _ = NetworkProfile::profile(&mut net, &x);
        assert_eq!(net.flat_params(), before);
    }

    #[test]
    fn measured_layer_costs_feed_memsched() {
        let mut net = sigmoid_mlp(&[6, 10, 4]);
        let x = positive_input(8, 6);
        let prof = NetworkProfile::profile(&mut net, &x);
        let costs = prof.measured_layer_costs();
        assert_eq!(costs.len(), 4);
        assert_eq!(
            costs.iter().map(|c| c.forward_flops).sum::<u64>(),
            prof.forward.flops
        );
        assert_eq!(costs[0].params, 6 * 10 + 10);
    }

    #[test]
    fn emit_publishes_counters_and_per_layer_instants() {
        let rec = dl_obs::TimelineRecorder::new();
        let mut net = sigmoid_mlp(&[6, 10, 4]);
        let x = positive_input(8, 6);
        let prof = NetworkProfile::profile(&mut net, &x);
        prof.emit(&rec);
        assert_eq!(rec.counters()["prof.forward_flops"], prof.forward.flops);
        let instants = rec
            .events()
            .iter()
            .filter(|e| e.name == "layer_profile")
            .count();
        assert_eq!(instants, 4);
    }
}
