//! A1 (ablation) — error feedback in gradient compression.
//!
//! Design choice under test: the residual accumulator in `dl-distributed`'s
//! compressors. Deep Gradient Compression's claim is that aggressive
//! sparsification only works because unsent gradient mass is banked and
//! eventually transmitted; dropping the bank should hurt at high
//! compression.

use crate::table::{col, fixed, signed, text, Column, ExperimentResult};
use dl_distributed::{compressed_sgd_opts, Cluster, Device, GradCompressor, Link};
use dl_obs::fields;

const COLUMNS: &[Column] = &[
    col("compressor", "compressor", text),
    col("with feedback", "with_feedback", fixed::<3>),
    col("without feedback", "without_feedback", fixed::<3>),
    col("delta", "delta", signed::<3>),
];

/// Runs the ablation.
pub fn run() -> ExperimentResult {
    // a harder task (8 close classes, high noise) so the compressed
    // signal is actually needed to make progress
    let data = dl_data::blobs(600, 8, 10, 3.0, 0.9, 200);
    let eval = dl_data::blobs(240, 8, 10, 3.0, 0.9, 201);
    let cluster = Cluster::homogeneous(4, Device::accelerator(), Link::ethernet());
    let mut records = Vec::new();
    let mut worst_delta = 0.0f64;
    for c in [
        GradCompressor::TopK { frac: 0.05 },
        GradCompressor::TopK { frac: 0.005 },
        GradCompressor::Quantize { bits: 2 },
    ] {
        let run = |fb: bool| {
            compressed_sgd_opts(
                &cluster,
                &data,
                &eval,
                &[10, 32, 8],
                &c,
                250,
                16,
                0.05,
                30,
                fb,
            )
            .1
        };
        let with = run(true);
        let without = run(false);
        let delta = with.accuracy - without.accuracy;
        records.push(fields! {
            "compressor" => with.compressor,
            "with_feedback" => with.accuracy,
            "without_feedback" => without.accuracy,
            "delta" => delta,
        });
        worst_delta = worst_delta.max(delta);
    }
    ExperimentResult {
        id: "a1".into(),
        title: "ablation: error feedback in compressed gradient exchange".into(),
        tables: vec![COLUMNS],
        verdict: if worst_delta > 0.05 {
            format!(
                "the design choice matters: dropping error feedback costs up to {worst_delta:.3} \
                 accuracy at high compression"
            )
        } else {
            "inconclusive at this scale: feedback made little difference".into()
        },
        records,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn a1_runs() {
        let r = super::run();
        assert_eq!(r.row_counts(), [3]);
    }
}
