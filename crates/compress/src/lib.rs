//! # dl-compress
//!
//! Neural network compression, the first tradeoff class of the tutorial's
//! Part 1 (accuracy vs. time/memory efficiency). Three families, mirroring
//! the tutorial's taxonomy:
//!
//! * [`quant`] — **quantization**: per-tensor affine integer quantization at
//!   any bit width, k-means codebook (vector-quantization-style) codes,
//!   sign binarization, and a Huffman coder so the lossless half of the
//!   codebook story is measurable too.
//! * [`prune`] — **parameter pruning**: unstructured magnitude pruning,
//!   first-order loss-saliency pruning, and structural neuron pruning that
//!   physically shrinks consecutive dense layers.
//! * [`distill`](mod@distill) — **knowledge distillation**: temperature-softened teacher
//!   probabilities transferred into a smaller student.
//! * [`qnn`] — **native int8 inference**: serve a quantized MLP directly on
//!   its packed codes (integer GEMM + one affine rescale per output) instead
//!   of dequantizing back to f32 first.
//!
//! Every entry point reports the compressed footprint in bytes next to the
//! (possibly degraded) model, so experiments can plot the tutorial's
//! accuracy-vs-memory tradeoff directly.

#![warn(missing_docs)]

pub mod distill;
pub mod prune;
pub mod qnn;
pub mod quant;

pub use distill::{distill, DistillConfig, DistillReport};
pub use qnn::{QuantizedDense, QuantizedMlp};
pub use prune::{filter_prune, magnitude_prune, neuron_prune, saliency_prune, sparsity, PruneReport};
pub use quant::{
    binarize_network, quantize_network, quantize_network_tensors, CodebookQuantizer, HuffmanCode,
    QuantScheme, QuantizedTensor,
};
