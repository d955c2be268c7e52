//! Differential test of the native int8 GEMM `par::matmul_q8` against an
//! exact oracle.
//!
//! [`oracle`] sums every output's code products, and every row's and
//! column's codes, in `i64`, and feeds them into the affine expansion
//! `matmul_q8` documents, evaluated in `f64` in the same order. Integer
//! sums are exact whatever their order, so the kernel's output must have
//! the oracle's bits under every `Kernel` at 1 to 4 threads.
//!
//! Shapes cover `k = 0`, `k` past [`Q8_RUN`] (so a row spans two of the
//! kernel's `i32` runs), widths 1, 5, 8 and 13 (below, at and past one
//! 8-wide strip) and row counts below and above the thread count. Codes
//! come random with some zeros, all 0 and all 255.

use dl_tensor::init;
use dl_tensor::par::{self, Kernel};
use rand::Rng;

/// The most `k` terms one `i32` run of `matmul_q8` adds before folding it
/// into an `i64`.
const Q8_RUN: usize = 33_025;
const KERNELS: [Kernel; 2] = [Kernel::Scalar, Kernel::Unrolled];
const THREADS: [usize; 4] = [1, 2, 3, 4];

/// `(scale, zero point)` of `A`, then of `B`.
const AFFINE: [(f32, f32, f32, f32); 2] = [(0.031, -1.7, 0.011, -0.4), (1.0, 0.0, 2.5e-3, 0.75)];

/// The exact product of the affine matrices `za + sa·a` (`[m, k]`) and
/// `zb + sb·b` (`[k, n]`):
/// `k·za·zb + zb·sa·Σa + za·sb·Σb + sa·sb·Σa·b`, per output.
fn oracle(
    a: &[u8],
    (sa, za): (f32, f32),
    b: &[u8],
    (sb, zb): (f32, f32),
    m: usize,
    k: usize,
    n: usize,
) -> Vec<f32> {
    let base = f64::from(za) * f64::from(zb) * k as f64;
    let za_sb = f64::from(za) * f64::from(sb);
    let zb_sa = f64::from(zb) * f64::from(sa);
    let sa_sb = f64::from(sa) * f64::from(sb);
    let mut out = Vec::with_capacity(m * n);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let row_sum: i64 = a_row.iter().map(|&c| i64::from(c)).sum();
        let row_term = base + zb_sa * row_sum as f64;
        for j in 0..n {
            let b_col = (0..k).map(|kk| i64::from(b[kk * n + j]));
            let col_sum: i64 = b_col.clone().sum();
            let dot: i64 = a_row
                .iter()
                .zip(b_col)
                .map(|(&x, y)| i64::from(x) * y)
                .sum();
            out.push((row_term + za_sb * col_sum as f64 + sa_sb * dot as f64) as f32);
        }
    }
    out
}

/// `len` codes: random with about one in seven zero, or all `fill`.
fn codes(len: usize, fill: Option<u8>, rng: &mut rand::rngs::StdRng) -> Vec<u8> {
    (0..len)
        .map(|_| match fill {
            Some(c) => c,
            None if rng.gen_range(0u32..7) == 0 => 0,
            None => rng.gen_range(0u32..256) as u8,
        })
        .collect()
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn matmul_q8_matches_the_exact_oracle_at_every_thread_count() {
    let mut rng = init::rng(0x1a8);
    for k in [0usize, 1, 9, Q8_RUN + 5] {
        for n in [1usize, 5, 8, 13] {
            for m in [1usize, 3, 7] {
                for fill in [None, Some(0u8), Some(255)] {
                    let a = codes(m * k, fill, &mut rng);
                    let b = codes(k * n, fill, &mut rng);
                    for (sa, za, sb, zb) in AFFINE {
                        let want = oracle(&a, (sa, za), &b, (sb, zb), m, k, n);
                        for kern in KERNELS {
                            for t in THREADS {
                                let got = par::with_kernel(kern, || {
                                    par::with_threads(t, || {
                                        par::matmul_q8(&a, sa, za, &b, sb, zb, m, k, n)
                                    })
                                });
                                assert_eq!(
                                    bits(&got),
                                    bits(&want),
                                    "({m}, {k}, {n}) codes {fill:?} affine {:?} {kern:?} threads {t}",
                                    (sa, za, sb, zb)
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
