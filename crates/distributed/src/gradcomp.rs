//! Gradient compression for distributed training (§2.1).
//!
//! Two families from the literature the tutorial cites:
//!
//! * **Top-k sparsification** (Deep Gradient Compression): send only the
//!   largest-magnitude `k` fraction of gradient entries; the rest
//!   accumulate locally as *error feedback* and are sent once they grow.
//! * **Low-bit quantization**: send gradients at 1-8 bits with the same
//!   error-feedback correction.
//!
//! The compressor is exact about the bytes it would put on the wire, so
//! experiments can plot accuracy against real communication volume.

use crate::datapar::Shards;
use crate::sim::Cluster;
use dl_nn::{Dataset, Network, Optimizer};
use dl_tensor::init;

/// A lossy gradient encoder with error feedback.
#[derive(Debug, Clone)]
pub enum GradCompressor {
    /// Send every value at full precision (the baseline).
    None,
    /// Keep the top `frac` fraction of entries by magnitude.
    TopK {
        /// Fraction kept, in `(0, 1]`.
        frac: f64,
    },
    /// Uniform quantization to `bits` per value.
    Quantize {
        /// Bits per transmitted value (1-8).
        bits: u8,
    },
}

impl GradCompressor {
    /// Name for reports.
    pub fn name(&self) -> String {
        match self {
            GradCompressor::None => "none".into(),
            GradCompressor::TopK { frac } => {
                let pct = frac * 100.0;
                if pct < 1.0 {
                    format!("top{pct:.1}%")
                } else {
                    format!("top{pct:.0}%")
                }
            }
            GradCompressor::Quantize { bits } => format!("quant{bits}"),
        }
    }

    /// Compresses `grad` in place (values not transmitted become 0),
    /// returns the bytes that would go on the wire.
    ///
    /// `residual` carries the error feedback between calls and must have
    /// the same length as `grad`.
    ///
    /// # Panics
    /// Panics on residual length mismatch or invalid parameters.
    fn compress(&self, grad: &mut [f32], residual: &mut [f32]) -> u64 {
        assert_eq!(grad.len(), residual.len(), "residual length mismatch");
        // fold in the residual first: g <- g + r
        for (g, r) in grad.iter_mut().zip(residual.iter()) {
            *g += r;
        }
        match self {
            GradCompressor::None => {
                residual.fill(0.0);
                (grad.len() * 4) as u64
            }
            GradCompressor::TopK { frac } => {
                assert!(
                    *frac > 0.0 && *frac <= 1.0,
                    "top-k fraction must lie in (0,1], got {frac}"
                );
                let k = ((grad.len() as f64 * frac).ceil() as usize).clamp(1, grad.len());
                let mut mags: Vec<f32> = grad.iter().map(|v| v.abs()).collect();
                let cut = grad.len() - k;
                let threshold = if cut == 0 {
                    f32::NEG_INFINITY
                } else {
                    let (_, t, _) = mags.select_nth_unstable_by(cut - 1, f32::total_cmp);
                    *t
                };
                let mut kept = 0usize;
                for (g, r) in grad.iter_mut().zip(residual.iter_mut()) {
                    if g.abs() > threshold && kept < k {
                        *r = 0.0;
                        kept += 1;
                    } else {
                        *r = *g; // accumulate for later
                        *g = 0.0;
                    }
                }
                // value (4B) + index (4B) per kept entry
                (kept * 8) as u64
            }
            GradCompressor::Quantize { bits } => {
                assert!((1..=8).contains(bits), "bits must be 1-8");
                let levels = ((1u32 << bits) - 1) as f32;
                let (lo, hi) = grad
                    .iter()
                    .fold((f32::INFINITY, f32::NEG_INFINITY), |(l, h), &v| {
                        (l.min(v), h.max(v))
                    });
                let range = (hi - lo).max(1e-12);
                let scale = range / levels;
                for (g, r) in grad.iter_mut().zip(residual.iter_mut()) {
                    let code = ((*g - lo) / scale).round().clamp(0.0, levels);
                    let decoded = lo + code * scale;
                    *r = *g - decoded; // quantization error feeds back
                    *g = decoded;
                }
                (grad.len() * *bits as usize).div_ceil(8) as u64 + 8
            }
        }
    }
}

/// Result of a compressed data-parallel training run.
#[must_use = "the report carries the compression/accuracy measurements this run exists to produce"]
#[derive(Debug, Clone)]
pub struct GradCompressionReport {
    /// Compressor name.
    pub compressor: String,
    /// Final evaluation accuracy.
    pub accuracy: f64,
    /// Total gradient bytes put on the wire.
    pub bytes_communicated: u64,
    /// Bytes an uncompressed run would have sent.
    pub baseline_bytes: u64,
    /// Simulated seconds.
    pub simulated_seconds: f64,
}

impl GradCompressionReport {
    /// Compression ratio achieved on the wire.
    pub fn ratio(&self) -> f64 {
        self.baseline_bytes as f64 / self.bytes_communicated.max(1) as f64
    }
}

/// Synchronous data-parallel training with compressed gradient exchange.
///
/// Workers compute gradients on their shards, compress with error
/// feedback, and the (decoded) compressed gradients are averaged and
/// applied by every worker identically. Sharding and per-worker sampling
/// streams are those of [`crate::datapar::local_sgd`].
///
/// # Panics
/// Panics when the dataset is smaller than the worker count, or on an
/// invalid compressor.
#[allow(clippy::too_many_arguments)]
pub fn compressed_sgd(
    cluster: &Cluster,
    data: &Dataset,
    eval: &Dataset,
    dims: &[usize],
    compressor: &GradCompressor,
    steps: usize,
    batch_size: usize,
    lr: f32,
    seed: u64,
) -> (Network, GradCompressionReport) {
    compressed_sgd_opts(
        cluster, data, eval, dims, compressor, steps, batch_size, lr, seed, true,
    )
}

/// [`compressed_sgd`] with error feedback optionally disabled — the
/// ablation that shows why the residual accumulator matters (without it,
/// aggressive top-k silently discards most of the gradient signal
/// forever).
#[allow(clippy::too_many_arguments)]
pub fn compressed_sgd_opts(
    cluster: &Cluster,
    data: &Dataset,
    eval: &Dataset,
    dims: &[usize],
    compressor: &GradCompressor,
    steps: usize,
    batch_size: usize,
    lr: f32,
    seed: u64,
    error_feedback: bool,
) -> (Network, GradCompressionReport) {
    let workers = cluster.len();
    let mut shards = Shards::new(data, workers, seed);
    let mut seed_rng = init::rng(seed);
    let mut model = Network::mlp(dims, &mut seed_rng);
    let mut opt = Optimizer::sgd(lr);
    let nparams = model.param_count();
    let mut residuals = vec![vec![0.0f32; nparams]; workers];
    let step_flops = model.cost_profile(batch_size).train_step_flops();
    let mut bytes = 0u64;
    let mut seconds = 0.0f64;
    for _ in 0..steps {
        let mut mean_grad = vec![0.0f32; nparams];
        let mut step_bytes = 0u64;
        for (w, residual) in residuals.iter_mut().enumerate() {
            shards.backprop(w, &mut model, batch_size);
            let mut g = model.flat_grads();
            step_bytes += compressor.compress(&mut g, residual);
            if !error_feedback {
                residual.fill(0.0); // ablation: drop the unsent signal
            }
            for (m, v) in mean_grad.iter_mut().zip(&g) {
                *m += v / workers as f32;
            }
        }
        model.set_flat_grads(&mean_grad);
        let mut pg = model.params_and_grads();
        opt.step(&mut pg, 1.0);
        bytes += step_bytes;
        seconds += cluster
            .devices
            .iter()
            .map(|d| d.compute_time(step_flops))
            .fold(0.0, f64::max)
            + cluster.allreduce_time(step_bytes / workers as u64);
    }
    model.clear_caches();
    let accuracy = dl_nn::metrics::accuracy(&model.predict(&eval.x), &eval.y);
    let baseline_bytes = (nparams * 4 * workers * steps) as u64;
    (
        model,
        GradCompressionReport {
            compressor: compressor.name(),
            accuracy,
            bytes_communicated: bytes,
            baseline_bytes,
            simulated_seconds: seconds,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{Device, Link};
    use dl_data::blobs;

    #[test]
    fn topk_keeps_largest_and_banks_rest() {
        let mut g = vec![0.1, -5.0, 0.2, 3.0];
        let mut r = vec![0.0; 4];
        let c = GradCompressor::TopK { frac: 0.5 };
        let bytes = c.compress(&mut g, &mut r);
        assert_eq!(bytes, 16); // 2 entries * 8 bytes
        assert_eq!(g, vec![0.0, -5.0, 0.0, 3.0]);
        assert_eq!(r, vec![0.1, 0.0, 0.2, 0.0]);
    }

    #[test]
    fn error_feedback_accumulates_until_sent() {
        let c = GradCompressor::TopK { frac: 0.25 };
        let mut r = vec![0.0; 4];
        // small entry grows across rounds until it wins the top-k slot
        let mut g1 = vec![0.4, 1.0, 0.0, 0.0];
        c.compress(&mut g1, &mut r);
        assert_eq!(g1[0], 0.0);
        assert!((r[0] - 0.4).abs() < 1e-6);
        let mut g2 = vec![0.4, 0.1, 0.0, 0.0];
        c.compress(&mut g2, &mut r);
        // 0.4 + banked 0.4 = 0.8 beats everything else
        assert!((g2[0] - 0.8).abs() < 1e-6);
        assert_eq!(r[0], 0.0);
    }

    #[test]
    fn quantize_error_bounded_and_fed_back() {
        let c = GradCompressor::Quantize { bits: 4 };
        let mut g = vec![-1.0, -0.33, 0.2, 1.0];
        let orig = g.clone();
        let mut r = vec![0.0; 4];
        let bytes = c.compress(&mut g, &mut r);
        assert_eq!(bytes, 2 + 8);
        let step = 2.0 / 15.0;
        for ((&d, &o), &res) in g.iter().zip(&orig).zip(&r) {
            assert!((d - o).abs() <= step / 2.0 + 1e-6);
            assert!(
                (d + res - o).abs() < 1e-6,
                "feedback must capture the error"
            );
        }
    }

    #[test]
    fn none_compressor_is_identity() {
        let c = GradCompressor::None;
        let mut g = vec![1.0, 2.0];
        let mut r = vec![0.5, 0.0]; // pending residual folds in
        let bytes = c.compress(&mut g, &mut r);
        assert_eq!(bytes, 8);
        assert_eq!(g, vec![1.5, 2.0]);
        assert_eq!(r, vec![0.0, 0.0]);
    }

    #[test]
    fn compressed_training_saves_bytes_and_still_learns() {
        let data = blobs(200, 2, 4, 6.0, 0.4, 0);
        let eval = blobs(80, 2, 4, 6.0, 0.4, 1);
        let cluster = Cluster::homogeneous(4, Device::accelerator(), Link::ethernet());
        let run = |c: &GradCompressor| {
            compressed_sgd(&cluster, &data, &eval, &[4, 16, 2], c, 120, 16, 0.05, 7).1
        };
        let dense = run(&GradCompressor::None);
        let sparse = run(&GradCompressor::TopK { frac: 0.05 });
        let quant = run(&GradCompressor::Quantize { bits: 4 });
        assert!(dense.accuracy > 0.9);
        // top-5% with value+index pairs: theoretical ratio 4B / (8B * 5%) = 10
        assert!(sparse.ratio() > 8.0, "top-5% ratio {}", sparse.ratio());
        assert!(quant.ratio() > 6.0, "4-bit ratio {}", quant.ratio());
        assert!(sparse.accuracy > dense.accuracy - 0.15);
        assert!(quant.accuracy > dense.accuracy - 0.15);
        assert!(sparse.simulated_seconds < dense.simulated_seconds);
    }

    #[test]
    #[should_panic(expected = "cannot shard")]
    fn fewer_rows_than_workers_rejected() {
        let data = blobs(3, 2, 4, 6.0, 0.4, 2);
        let cluster = Cluster::homogeneous(4, Device::accelerator(), Link::ethernet());
        let none = GradCompressor::None;
        let _ = compressed_sgd(&cluster, &data, &data, &[4, 8, 2], &none, 5, 4, 0.05, 0);
    }

    #[test]
    #[should_panic(expected = "fraction must lie")]
    fn topk_rejects_zero_fraction() {
        GradCompressor::TopK { frac: 0.0 }.compress(&mut [1.0], &mut [0.0]);
    }
}
