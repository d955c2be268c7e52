//! E26 — the parallel + cache-blocked compute backend under the gate.
//!
//! Claim: `dl_tensor::par` buys measured wall-clock speedup on the GEMM
//! that every other experiment funnels through, while remaining
//! *bit-identical* to the naive sequential kernel and charging the
//! *exact* same measured `OpCost` — so turning threads on changes
//! nothing but time. The sweep covers threads × tile size × matrix
//! shape; every cell asserts bitwise equality and cost parity, and the
//! accumulating GEMM and the conv lowering are checked the same way.
//!
//! Determinism note: wall-clock microseconds and speedups are genuinely
//! hardware-dependent, so they are reported as *string* fields, which
//! `ExperimentResult::baseline_json` deliberately leaves out of the
//! byte-exact baseline. Everything numeric in the records — shapes,
//! thread counts, measured FLOPs, equality booleans — is reproducible on
//! any machine, and the verdict depends only on those checks. The input
//! matrices are filled by a closed-form formula (no RNG) so measured
//! `nnz`-dependent FLOPs are environment-independent too.

use super::{best_us, filled};
use crate::table::{col, text, Column, ExperimentResult};
use dl_core::{Category, Metrics, Registry, Technique};
use dl_obs::{fields, Fields};
use dl_tensor::{acct, par};

/// Thread counts the sweep exercises (the pool handles counts beyond the
/// physical cores; the speedup columns just won't scale there).
const THREADS: [usize; 3] = [1, 2, 4];
/// Output-column tile widths for the blocked kernel.
const TILES: [usize; 3] = [32, 128, 512];
/// Wall-clock cells are string fields, which the baseline leaves out.
const GEMM: &[Column] = &[
    col("shape", "shape", text),
    col("threads", "threads", text),
    col("tile", "tile", text),
    col("naive us", "wall_naive_us", text),
    col("par us", "wall_par_us", text),
    col("speedup", "speedup", text),
    col("efficiency", "efficiency", text),
    col("bitwise", "bitwise_equal", text),
    col("cost ==", "cost_parity", text),
];

/// The other parallel kernels, each diffed at 4 threads.
const AUX: &[Column] = &[
    col("matmul_acc", "matmul_acc_ok", text),
    col("im2col+col2im", "conv_kernels_ok", text),
];

/// Runs the experiment. The claim here is about the *scalar* backend
/// (bit-identity with the sequential `Tensor` kernels), so the kernel
/// knob is pinned to [`par::Kernel::Scalar`] regardless of `DL_KERNEL`;
/// E31 owns the unrolled/int8 kernel claims.
pub fn run() -> ExperimentResult {
    par::with_kernel(par::Kernel::Scalar, run_inner)
}

fn run_inner() -> ExperimentResult {
    let shapes: [(&str, usize, usize, usize); 2] = [
        ("small 32x64·64x32", 32, 64, 32),
        ("large 256x256·256x256", 256, 256, 256),
    ];

    let mut records: Vec<Fields> = Vec::new();
    let mut cells = 0usize;
    let mut bitwise_ok = 0usize;
    let mut parity_ok = 0usize;
    let mut large_flops = 0u64;
    let mut speedup_large_4t = 0.0f64;

    for &(label, m, k, n) in &shapes {
        let a = filled(m, k, 1);
        let b = filled(k, n, 2);
        // Sequential reference: result, wall time, measured cost.
        let (want, seq_cost) = acct::measure(|| a.matmul(&b));
        let naive_us = best_us(|| {
            std::hint::black_box(a.matmul(&b));
        });
        if label.starts_with("large") {
            large_flops = seq_cost.flops;
        }
        for &t in &THREADS {
            for &tile in &TILES {
                let (got, par_cost) =
                    par::with_threads(t, || acct::measure(|| par::matmul_blocked(&a, &b, tile)));
                let par_us = best_us(|| {
                    par::with_threads(t, || {
                        std::hint::black_box(par::matmul_blocked(&a, &b, tile));
                    });
                });
                let bitwise = got.data() == want.data();
                let parity = par_cost == seq_cost;
                let speedup = naive_us / par_us;
                let efficiency = speedup / t as f64;
                cells += 1;
                bitwise_ok += usize::from(bitwise);
                parity_ok += usize::from(parity);
                if label.starts_with("large") && t == 4 && speedup > speedup_large_4t {
                    speedup_large_4t = speedup;
                }
                records.push(fields! {
                    "shape" => label,
                    "m" => m,
                    "k" => k,
                    "n" => n,
                    "threads" => t,
                    "tile" => tile,
                    "flops" => par_cost.flops,
                    "bytes_read" => par_cost.bytes_read,
                    "bytes_written" => par_cost.bytes_written,
                    "bitwise_equal" => bitwise,
                    "cost_parity" => parity,
                    // Hardware-dependent measurements ride along as
                    // strings: visible in saved records, invisible to
                    // the numeric baseline gate.
                    "wall_naive_us" => format!("{naive_us:.1}"),
                    "wall_par_us" => format!("{par_us:.1}"),
                    "speedup" => format!("{speedup:.3}"),
                    "efficiency" => format!("{efficiency:.3}"),
                });
            }
        }
    }

    // --- the other parallel kernels, same contract ------------------------
    let a = filled(48, 33, 3);
    let b = filled(33, 27, 4);
    let acc_init = filled(48, 27, 5);
    let mut acc_out = acc_init.clone();
    par::with_threads(4, || par::matmul_acc(&a, &b, &mut acc_out));
    let mut acc_want = acc_init.clone();
    {
        // Sequential accumulating reference: existing value + products in
        // ascending-k order, the documented matmul_acc semantics.
        let (m, kk, n) = (48, 33, 27);
        for i in 0..m {
            for x in 0..kk {
                let av = a.data()[i * kk + x];
                if av == 0.0 {
                    continue;
                }
                for j in 0..n {
                    acc_want.data_mut()[i * n + j] += av * b.data()[x * n + j];
                }
            }
        }
    }
    let img = filled(3 * 14, 11, 8)
        .reshape([3, 14, 11])
        .expect("3*14*11 elements");
    let (cols_seq, cols_cost) = acct::measure(|| img.im2col(3, 3, 2, 1));
    let (cols_par, cols_par_cost) =
        par::with_threads(4, || acct::measure(|| par::im2col(&img, 3, 3, 2, 1)));
    let grad = filled(cols_seq.dims()[0], cols_seq.dims()[1], 6);
    let (back_seq, back_cost) = acct::measure(|| grad.col2im(3, 14, 11, 3, 3, 2, 1));
    let (back_par, back_par_cost) = par::with_threads(4, || {
        acct::measure(|| par::col2im(&grad, 3, 14, 11, 3, 3, 2, 1))
    });
    let acc_ok = acc_out.data() == acc_want.data();
    let conv_ok = cols_par.data() == cols_seq.data()
        && back_par.data() == back_seq.data()
        && cols_par_cost == cols_cost
        && back_par_cost == back_cost;

    // --- register the backend under Category::Systems ---------------------
    let mut registry = Registry::new();
    for &t in &THREADS {
        registry
            .add(Technique {
                name: format!("par-gemm-{t}t"),
                category: Category::Systems,
                metrics: Metrics {
                    accuracy: 1.0, // bit-identical by construction
                    train_flops: 0,
                    inference_flops: large_flops,
                    memory_bytes: 4 * 256 * TILES[1] as u64, // packed panel scratch
                    energy_kwh: 0.0,
                },
                baseline: Some("par-gemm-1t".into()),
            })
            .expect("unique technique names");
    }
    let systems = registry.by_category(Category::Systems).len();

    let all_ok =
        bitwise_ok == cells && parity_ok == cells && acc_ok && conv_ok && systems == THREADS.len();

    records.push(fields! {
        "cells" => cells,
        "bitwise_equal_cells" => bitwise_ok,
        "cost_parity_cells" => parity_ok,
        "matmul_acc_ok" => acc_ok,
        "conv_kernels_ok" => conv_ok,
        "large_gemm_flops" => large_flops,
        "systems_techniques" => systems,
        "hardware_threads" => format!("{}", par::hardware_threads()),
        "speedup_large_4t" => format!("{speedup_large_4t:.3}"),
    });

    ExperimentResult {
        id: "e26".into(),
        title: "parallel + cache-blocked kernels: speedup with bit-identical results".into(),
        tables: vec![GEMM, AUX],
        verdict: if all_ok {
            format!(
                "matches the claim: {cells}/{cells} thread×tile×shape cells are bit-identical \
                 to the naive kernel with exact measured-cost parity, and the matmul_acc / \
                 im2col / col2im parallel kernels hold the same contract; \
                 measured wall-clock speedup is reported per cell (hardware-dependent, \
                 excluded from the baseline gate)"
            )
        } else {
            format!(
                "PARTIAL: bitwise {bitwise_ok}/{cells} parity {parity_ok}/{cells} \
                 acc={acc_ok} conv={conv_ok}"
            )
        },
        records,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn e26_matches_claim_and_gates_deterministically() {
        let a = super::run();
        assert!(
            a.verdict.contains("matches the claim"),
            "verdict: {}",
            a.verdict
        );
        assert_eq!(a.row_counts(), [18, 1]);
        let b = super::run();
        assert_eq!(
            a.verdict, b.verdict,
            "verdict must not depend on wall clock"
        );
        // The baseline `exp check` compares must come out byte-identical
        // even though the wall-clock string fields differ.
        assert_eq!(
            a.baseline_json(),
            b.baseline_json(),
            "baseline differs between identical runs"
        );
    }

    #[test]
    fn e26_large_gemm_speedup_on_multicore_hardware() {
        // The wall-clock acceptance bar only means something with >= 4
        // real cores; on smaller machines the bitwise/parity gates above
        // still hold and this check is skipped.
        if super::par::hardware_threads() < 4 {
            eprintln!("skipping speedup assertion: fewer than 4 hardware threads");
            return;
        }
        let r = super::run();
        let summary = r.records.last().expect("summary record");
        let speedup: f64 = summary
            .iter()
            .find(|(k, _)| k == "speedup_large_4t")
            .and_then(|(_, v)| v.as_str())
            .and_then(|s| s.parse().ok())
            .expect("speedup field present");
        assert!(
            speedup >= 2.5,
            "large-GEMM speedup at 4 threads was only {speedup:.2}x"
        );
    }
}
