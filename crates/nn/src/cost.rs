//! Resource cost accounting: the "resource-related metrics" of the tutorial.
//!
//! The tutorial classifies every efficiency technique by how it moves
//! quality metrics (accuracy) against resource metrics (training time,
//! inference time, memory). This module provides the resource side: static,
//! hardware-independent counts of floating-point work and bytes moved, which
//! the simulator crates (`dl-distributed`, `dl-green`) later turn into
//! seconds and joules under explicit hardware models.

/// Static cost of one layer for a given batch size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LayerCost {
    /// Floating-point operations for one forward pass.
    pub forward_flops: u64,
    /// Floating-point operations for one backward pass (grads for params and
    /// input). We use the standard approximation of 2x the forward work.
    pub backward_flops: u64,
    /// Number of trainable parameters.
    pub params: u64,
    /// Elements of activation output that must be held for backward.
    pub activation_elems: u64,
}

impl LayerCost {
    /// Cost of a dense layer `[fan_in, fan_out]` at `batch` samples.
    pub fn dense(batch: usize, fan_in: usize, fan_out: usize) -> Self {
        let fwd = 2 * (batch * fan_in * fan_out) as u64 + (batch * fan_out) as u64;
        LayerCost {
            forward_flops: fwd,
            backward_flops: 2 * fwd,
            params: (fan_in * fan_out + fan_out) as u64,
            activation_elems: (batch * fan_out) as u64,
        }
    }

    /// Cost of a 2-D convolution at `batch` samples.
    pub fn conv2d(
        batch: usize,
        in_c: usize,
        out_c: usize,
        kh: usize,
        kw: usize,
        out_h: usize,
        out_w: usize,
    ) -> Self {
        let per_output = 2 * in_c * kh * kw; // multiply-add per output element
        let outputs = batch * out_c * out_h * out_w;
        let fwd = (per_output * outputs) as u64;
        LayerCost {
            forward_flops: fwd,
            backward_flops: 2 * fwd,
            params: (out_c * in_c * kh * kw + out_c) as u64,
            activation_elems: outputs as u64,
        }
    }

    /// Cost of an elementwise layer over `elems` activations.
    pub fn elementwise(elems: usize) -> Self {
        LayerCost {
            forward_flops: elems as u64,
            backward_flops: elems as u64,
            params: 0,
            activation_elems: elems as u64,
        }
    }

    /// Component-wise sum of two costs.
    pub fn merge(self, other: LayerCost) -> Self {
        LayerCost {
            forward_flops: self.forward_flops + other.forward_flops,
            backward_flops: self.backward_flops + other.backward_flops,
            params: self.params + other.params,
            activation_elems: self.activation_elems + other.activation_elems,
        }
    }
}

/// Aggregate cost of a whole network, plus derived byte figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CostProfile {
    /// Total forward FLOPs per batch.
    pub forward_flops: u64,
    /// Total backward FLOPs per batch.
    pub backward_flops: u64,
    /// Total trainable parameters.
    pub params: u64,
    /// Total activation elements held live for backward per batch.
    pub activation_elems: u64,
}

impl CostProfile {
    /// Builds the profile from per-layer costs.
    pub fn from_layers(layers: &[LayerCost]) -> Self {
        let total = layers
            .iter()
            .copied()
            .fold(LayerCost::default(), LayerCost::merge);
        CostProfile {
            forward_flops: total.forward_flops,
            backward_flops: total.backward_flops,
            params: total.params,
            activation_elems: total.activation_elems,
        }
    }

    /// Parameter memory in bytes at `f32` precision.
    pub fn param_bytes(&self) -> u64 {
        self.params * 4
    }

    /// Activation memory in bytes at `f32` precision (all layers resident —
    /// the baseline `dl-memsched` improves on).
    pub fn activation_bytes(&self) -> u64 {
        self.activation_elems * 4
    }

    /// FLOPs of one training step (forward + backward).
    pub fn train_step_flops(&self) -> u64 {
        self.forward_flops + self.backward_flops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_cost_counts_macs_and_bias() {
        let c = LayerCost::dense(2, 3, 4);
        // 2 batch * (2*3*4 mac flops) + 2*4 bias adds
        assert_eq!(c.forward_flops, 2 * 2 * 3 * 4 / 2 * 2 + 8);
        assert_eq!(c.params, 3 * 4 + 4);
        assert_eq!(c.activation_elems, 8);
        assert_eq!(c.backward_flops, 2 * c.forward_flops);
    }

    #[test]
    fn conv_cost_scales_with_output_positions() {
        let small = LayerCost::conv2d(1, 1, 1, 3, 3, 2, 2);
        let large = LayerCost::conv2d(1, 1, 1, 3, 3, 4, 4);
        assert_eq!(large.forward_flops, small.forward_flops * 4);
        assert_eq!(small.params, 9 + 1);
    }

    #[test]
    fn profile_merges_layers() {
        let p = CostProfile::from_layers(&[
            LayerCost::dense(1, 2, 3),
            LayerCost::elementwise(3),
            LayerCost::dense(1, 3, 1),
        ]);
        assert_eq!(p.params, (2 * 3 + 3) + (3 + 1));
        assert_eq!(p.param_bytes(), p.params * 4);
        assert_eq!(p.activation_elems, 3 + 3 + 1);
        assert_eq!(p.train_step_flops(), p.forward_flops + p.backward_flops);
    }

    #[test]
    fn elementwise_has_no_params() {
        let c = LayerCost::elementwise(100);
        assert_eq!(c.params, 0);
        assert_eq!(c.forward_flops, 100);
    }
}
