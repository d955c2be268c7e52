//! Differential test of the parallel convolution lowering, `par::im2col`
//! and `par::col2im`, against the sequential `Tensor::im2col` and
//! `Tensor::col2im`.
//!
//! Seeded images and column matrices hold NaN, ±inf, ±0.0 and subnormals
//! among uniform values. Over channel counts 1, 3 and 5, strides 1 and 2,
//! padding 0 to 2 and several kernel shapes, under every `Kernel` at 1 to
//! 4 threads, both must give the sequential kernel's bits and charge its
//! `acct` cost. `im2col` only copies, so its bits must match exactly,
//! NaN payloads included. `col2im` adds, and a NaN it adds only has to be
//! a NaN: Rust leaves its sign and payload open.

use dl_tensor::acct::{self, OpCost};
use dl_tensor::par::{self, Kernel};
use dl_tensor::{init, Tensor};
use rand::rngs::StdRng;
use rand::Rng;

const SPECIALS: [f32; 7] = [
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    0.0,
    -0.0,
    f32::MIN_POSITIVE / 8.0,
    -f32::from_bits(1),
];
const KERNELS: [Kernel; 2] = [Kernel::Scalar, Kernel::Unrolled];
const THREADS: [usize; 4] = [1, 2, 3, 4];

/// A `dims`-shaped tensor, uniform in ±4 except that about a fifth of
/// its values are drawn from [`SPECIALS`].
fn tensor(dims: &[usize], rng: &mut StdRng) -> Tensor {
    let len = dims.iter().product();
    let data = (0..len)
        .map(|_| {
            if rng.gen_range(0u32..5) == 0 {
                SPECIALS[rng.gen_range(0..SPECIALS.len())]
            } else {
                rng.gen_range(-4.0f32..4.0)
            }
        })
        .collect();
    Tensor::from_vec(data, dims).expect("length matches by construction")
}

fn exact_bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Bit patterns, with every NaN mapped to `f32::NAN`'s.
fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter()
        .map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits())
        .collect()
}

/// `f` under `kern` at `threads` threads, with its charge.
fn run<R>(kern: Kernel, threads: usize, f: impl FnOnce() -> R) -> (R, OpCost) {
    acct::measure(|| par::with_kernel(kern, || par::with_threads(threads, f)))
}

/// Checks both kernels for one geometry over `img` and a random column
/// matrix of the shape `im2col` gives it.
fn check(img: &Tensor, kh: usize, kw: usize, stride: usize, pad: usize, rng: &mut StdRng) {
    let (c, h, w) = (img.dims()[0], img.dims()[1], img.dims()[2]);
    let (cols_want, cols_cost) = acct::measure(|| img.im2col(kh, kw, stride, pad));
    let grad = tensor(cols_want.dims(), rng);
    let (img_want, img_cost) = acct::measure(|| grad.col2im(c, h, w, kh, kw, stride, pad));
    for kern in KERNELS {
        for t in THREADS {
            let at = format!(
                "{kern:?} threads {t}, [{c}, {h}, {w}] kernel {kh}x{kw} stride {stride} pad {pad}"
            );
            let (cols, cost) = run(kern, t, || par::im2col(img, kh, kw, stride, pad));
            assert_eq!(cols.dims(), cols_want.dims(), "im2col {at}");
            assert_eq!(
                exact_bits(cols.data()),
                exact_bits(cols_want.data()),
                "im2col {at}"
            );
            assert_eq!(cost, cols_cost, "im2col {at}: charge");
            let (back, cost) = run(kern, t, || par::col2im(&grad, c, h, w, kh, kw, stride, pad));
            assert_eq!(back.dims(), img_want.dims(), "col2im {at}");
            assert_eq!(bits(back.data()), bits(img_want.data()), "col2im {at}");
            assert_eq!(cost, img_cost, "col2im {at}: charge");
        }
    }
}

#[test]
fn im2col_and_col2im_match_the_sequential_kernels_with_special_values() {
    let mut rng = init::rng(0xc0_12);
    for channels in [1, 3, 5] {
        for (h, w) in [(4, 5), (7, 6)] {
            for (kh, kw) in [(1, 1), (2, 3), (3, 3)] {
                for stride in 1..=2 {
                    for pad in 0..=2 {
                        let img = tensor(&[channels, h, w], &mut rng);
                        check(&img, kh, kw, stride, pad, &mut rng);
                    }
                }
            }
        }
    }
}
