//! E1 — quantization precision sweep (§2.1).
//!
//! Claim: quantization trades precision for memory; accuracy degrades as
//! bit width shrinks, with the Huffman-coded codebook squeezing further
//! losslessly.
//!
//! The verdict checks both halves: accuracy against bit width, and
//! `huffman_bytes < bytes` for every scheme, naming any scheme whose
//! stream Huffman coding does not shrink. Both sizes count the same side
//! data (scales, zero points, centroids); a Huffman stream also carries
//! one code-length byte per symbol up to the largest used, and a stream
//! that Huffman coding would not shrink stays bit-packed. A binary code
//! already spends one bit per weight, the least a Huffman code can, so
//! its stream stays packed.

use crate::table::{bytes, col, fixed, flops, text, Column, ExperimentResult};
use dl_compress::{quantize_network, QuantScheme};
use dl_nn::Trainer;
use dl_obs::fields;
use dl_tensor::acct;

const COLUMNS: &[Column] = &[
    col("scheme", "scheme", text),
    col("accuracy", "accuracy", fixed::<3>),
    col("acc drop", "acc_drop", fixed::<3>),
    col("bytes", "bytes", bytes),
    col("ratio", "ratio", fixed::<2>),
    col("huffman bytes", "huffman_bytes", bytes),
    col("measured fwd", "measured_fwd_flops", flops),
];

/// Runs the experiment.
pub fn run() -> ExperimentResult {
    let (_, test, net, _) = super::digits_setup(600, &[64, 32], 20, 1);
    let base_acc = Trainer::evaluate(&net, &test);
    // measured inference cost: what the kernels actually execute for one
    // pass over the test set (zeroed weights after aggressive quantization
    // genuinely skip multiplies).
    let measure_fwd = |n: &dl_nn::Network| acct::measure(|| n.predict(&test.x)).1.flops;
    let base_fwd = measure_fwd(&net);
    let mut records = Vec::new();
    let schemes = [
        QuantScheme::Affine { bits: 8 },
        QuantScheme::Affine { bits: 6 },
        QuantScheme::Affine { bits: 4 },
        QuantScheme::Affine { bits: 2 },
        QuantScheme::KMeans { k: 16 },
        QuantScheme::KMeans { k: 4 },
        QuantScheme::Binary,
    ];
    let fp32_bytes = net.param_count() * 4;
    records.push(fields! {
        "scheme" => "fp32", "accuracy" => base_acc,
        "bytes" => fp32_bytes, "inference_flops" => net.cost_profile(1).forward_flops,
        "measured_fwd_flops" => base_fwd, "acc_drop" => 0.0, "ratio" => 1.0,
    });
    let mut monotone_check: Vec<(u8, f64)> = Vec::new();
    let mut huffman_misses: Vec<String> = Vec::new();
    for scheme in schemes {
        let (q, report) = quantize_network(&net, scheme);
        let acc = Trainer::evaluate(&q, &test);
        let q_fwd = measure_fwd(&q);
        let ratio = report.ratio();
        if let QuantScheme::Affine { bits } = scheme {
            monotone_check.push((bits, acc));
        }
        if report.huffman_bytes >= report.compressed_bytes {
            huffman_misses.push(report.scheme.clone());
        }
        records.push(fields! {
            "scheme" => report.scheme, "accuracy" => acc,
            "bytes" => report.compressed_bytes,
            "huffman_bytes" => report.huffman_bytes,
            "inference_flops" => net.cost_profile(1).forward_flops,
            "measured_fwd_flops" => q_fwd,
            "acc_drop" => base_acc - acc, "ratio" => ratio,
        });
    }
    let shape_holds = monotone_check.windows(2).all(|w| w[0].1 >= w[1].1 - 0.05);
    let mut misses = Vec::new();
    if !shape_holds {
        misses.push("accuracy was not monotone in bit width on this run".to_string());
    }
    if !huffman_misses.is_empty() {
        let schemes = huffman_misses.join(", ");
        misses.push(format!(
            "Huffman coding does not shrink the code streams of {schemes}"
        ));
    }
    ExperimentResult {
        id: "e1".into(),
        title: "quantization: accuracy vs memory across bit widths".into(),
        tables: vec![COLUMNS],
        verdict: if misses.is_empty() {
            "matches the claim: accuracy decays as bits shrink while memory drops ~bits/32, and \
             Huffman coding shrinks every code stream"
                .into()
        } else {
            format!("PARTIAL: {}", misses.join("; "))
        },
        records,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn e1_runs_and_has_expected_shape() {
        let r = super::run();
        assert_eq!(r.row_counts(), [8]);
        assert!(r.render().contains("\nbinary "));
    }
}
