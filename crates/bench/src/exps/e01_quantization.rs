//! E1 — quantization precision sweep (§2.1).
//!
//! Claim: quantization trades precision for memory; accuracy degrades as
//! bit width shrinks, with the Huffman-coded codebook squeezing further
//! losslessly.

use crate::table::{bytes, f3, flops, ExperimentResult, Table};
use dl_compress::{quantize_network, QuantScheme};
use dl_nn::Trainer;
use dl_obs::fields;
use dl_tensor::acct;

/// Runs the experiment.
pub fn run() -> ExperimentResult {
    let (_, test, net, _) = super::digits_setup(600, &[64, 32], 20, 1);
    let base_acc = Trainer::evaluate(&net, &test);
    // measured inference cost: what the kernels actually execute for one
    // pass over the test set (zeroed weights after aggressive quantization
    // genuinely skip multiplies).
    let measure_fwd = |n: &dl_nn::Network| acct::measure(|| n.predict(&test.x)).1.flops;
    let base_fwd = measure_fwd(&net);
    let mut table = Table::new(&[
        "scheme",
        "accuracy",
        "acc drop",
        "bytes",
        "ratio",
        "huffman bytes",
        "measured fwd",
    ]);
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
    table.row(&[
        "fp32".into(),
        f3(base_acc),
        f3(0.0),
        bytes(fp32_bytes as u64),
        "1.00".into(),
        "-".into(),
        flops(base_fwd),
    ]);
    records.push(fields! {
        "scheme" => "fp32", "accuracy" => base_acc,
        "bytes" => fp32_bytes, "inference_flops" => net.cost_profile(1).forward_flops,
        "measured_fwd_flops" => base_fwd,
    });
    let mut monotone_check: Vec<(u8, f64)> = Vec::new();
    for scheme in schemes {
        let (q, report) = quantize_network(&net, scheme);
        let acc = Trainer::evaluate(&q, &test);
        let q_fwd = measure_fwd(&q);
        table.row(&[
            report.scheme.clone(),
            f3(acc),
            f3(base_acc - acc),
            bytes(report.compressed_bytes as u64),
            format!("{:.2}", report.ratio()),
            bytes(report.huffman_bytes as u64),
            flops(q_fwd),
        ]);
        if let QuantScheme::Affine { bits } = scheme {
            monotone_check.push((bits, acc));
        }
        records.push(fields! {
            "scheme" => report.scheme, "accuracy" => acc,
            "bytes" => report.compressed_bytes,
            "huffman_bytes" => report.huffman_bytes,
            "inference_flops" => net.cost_profile(1).forward_flops,
            "measured_fwd_flops" => q_fwd,
        });
    }
    let shape_holds = monotone_check.windows(2).all(|w| w[0].1 >= w[1].1 - 0.05);
    ExperimentResult {
        id: "e1".into(),
        title: "quantization: accuracy vs memory across bit widths".into(),
        table,
        verdict: if shape_holds {
            "matches the claim: accuracy decays as bits shrink while memory drops ~bits/32".into()
        } else {
            "PARTIAL: accuracy was not monotone in bit width on this run".into()
        },
        records,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn e1_runs_and_has_expected_shape() {
        let r = super::run();
        assert_eq!(r.table.rows.len(), 8);
        // fp32 row ratio is 1.0, binary row exists
        assert!(r.table.rows.iter().any(|row| row[0] == "binary"));
        assert!(!r.records.is_empty());
    }
}
