//! Golden-file guard for the per-precision kernel bits.
//!
//! Each [`par::Kernel`] has its own pinned golden of a 17×9 GEMM's bits:
//! the scalar oracle's equal `Tensor::matmul`'s by construction, and the
//! unrolled kernel's are pinned to its fixed FMA accumulation order. Any
//! change to an accumulation order shows up here as a bit diff, at every
//! `DL_THREADS` count.
//!
//! Regenerate (after an intentional order change) with:
//! `DL_REGEN_GOLDEN=1 cargo test -p dl-tensor --test kernel_goldens`

use dl_tensor::{par, Tensor};

const M: usize = 17;
const K: usize = 33;
const N: usize = 9;

/// Deterministic, RNG-free fill with exact zeros every 4th element so
/// the sparse skip participates (mirrors the bench crate's generator).
fn filled(rows: usize, cols: usize, salt: usize) -> Tensor {
    let data: Vec<f32> = (0..rows * cols)
        .map(|i| {
            if (i + salt).is_multiple_of(4) {
                0.0
            } else {
                ((i.wrapping_mul(2_654_435_761).wrapping_add(salt * 97)) % 1000) as f32 / 499.5
                    - 1.0
            }
        })
        .collect();
    Tensor::from_vec(data, [rows, cols]).expect("length matches by construction")
}

/// The pinned output of one kernel, the GEMM's bits in row-major order.
fn kernel_bits(kern: par::Kernel, threads: usize) -> Vec<u32> {
    par::with_kernel(kern, || {
        par::with_threads(threads, || {
            let a = filled(M, K, 1);
            let b = filled(K, N, 2);
            let mm = par::matmul(&a, &b);
            mm.data().iter().map(|x| x.to_bits()).collect()
        })
    })
}

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn read_golden(name: &str) -> Vec<u32> {
    let path = golden_path(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| u32::from_str_radix(l.trim(), 16).expect("golden lines are hex u32 bit patterns"))
        .collect()
}

fn write_golden(name: &str, bits: &[u32]) {
    let path = golden_path(name);
    std::fs::create_dir_all(path.parent().expect("golden dir has a parent"))
        .expect("create golden dir");
    let text: String = bits.iter().map(|b| format!("{b:08x}\n")).collect();
    std::fs::write(&path, text).expect("write golden");
}

fn check_kernel(kern: par::Kernel, golden_name: &str) {
    let reference = kernel_bits(kern, 1);
    if std::env::var("DL_REGEN_GOLDEN").is_ok() {
        write_golden(golden_name, &reference);
    }
    let golden = read_golden(golden_name);
    assert_eq!(
        reference, golden,
        "{kern:?} kernel bits diverged from pinned golden {golden_name} — \
         accumulation order changed (regenerate only if intentional)"
    );
    for t in [2, par::hardware_threads().max(3)] {
        assert_eq!(
            kernel_bits(kern, t),
            golden,
            "{kern:?} kernel bits depend on thread count {t}"
        );
    }
}

#[test]
fn scalar_kernel_matches_pinned_golden_at_every_thread_count() {
    check_kernel(par::Kernel::Scalar, "kernels_scalar.hex");
    // The scalar golden is, by construction, the sequential Tensor
    // kernel's bits — re-derive them to prove the oracle link.
    let a = filled(M, K, 1);
    let b = filled(K, N, 2);
    let oracle: Vec<u32> = a.matmul(&b).data().iter().map(|x| x.to_bits()).collect();
    assert_eq!(
        read_golden("kernels_scalar.hex"),
        oracle,
        "scalar golden must equal Tensor::matmul"
    );
}

#[test]
fn unrolled_kernel_matches_pinned_golden_at_every_thread_count() {
    check_kernel(par::Kernel::Unrolled, "kernels_unrolled.hex");
}

#[test]
fn per_kernel_goldens_differ_only_in_low_bits() {
    // The two pinned orders are genuinely different (FMA fuses a
    // rounding) but describe the same math: every element agrees to
    // float tolerance.
    let s = read_golden("kernels_scalar.hex");
    let u = read_golden("kernels_unrolled.hex");
    assert_eq!(s.len(), u.len());
    for (a, b) in s.iter().zip(&u) {
        let (x, y) = (f32::from_bits(*a), f32::from_bits(*b));
        assert!(
            (x - y).abs() <= 1e-3 * y.abs().max(1.0),
            "kernels disagree beyond rounding: {x} vs {y}"
        );
    }
}
