//! Differential test of `Tensor::sum_rows_into`, which writes a matrix's
//! `sum_axis(0)` over a buffer, against `Tensor::sum_axis(0)`.
//!
//! Seeded operands hold NaN, ±inf, ±0.0, subnormals and values large
//! enough to overflow a partial sum. Whatever shape and values the buffer
//! held, `sum_rows_into` must give `sum_axis(0)`'s shape and bits, which
//! add each column in ascending row order, and charge its `acct` cost.
//!
//! A NaN result only has to be a NaN: Rust leaves its sign and payload
//! open.

use dl_tensor::acct;
use dl_tensor::{init, Tensor};
use rand::rngs::StdRng;
use rand::Rng;

const SPECIALS: [f32; 9] = [
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    0.0,
    -0.0,
    f32::MIN_POSITIVE / 8.0,
    -f32::from_bits(1),
    f32::MAX,
    -f32::MAX,
];

/// A `[rows, cols]` matrix, uniform in ±4 except that each value is
/// drawn from [`SPECIALS`] with probability `special`.
fn matrix(rows: usize, cols: usize, special: f64, rng: &mut StdRng) -> Tensor {
    let data = (0..rows * cols)
        .map(|_| {
            if rng.gen::<f64>() < special {
                SPECIALS[rng.gen_range(0..SPECIALS.len())]
            } else {
                rng.gen_range(-4.0f32..4.0)
            }
        })
        .collect();
    Tensor::from_vec(data, [rows, cols]).expect("length matches by construction")
}

/// Bit patterns, with every NaN mapped to `f32::NAN`'s.
fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter()
        .map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits())
        .collect()
}

/// Checks `sum_rows_into` over a buffer of the right shape and one of
/// another, each full of other values.
fn check_sum_rows_into(t: &Tensor) {
    let dims = t.dims();
    let (want, want_cost) = acct::measure(|| t.sum_axis(0));
    for mut out in [Tensor::full([dims[1]], 7.0), Tensor::full([3, 2], -1.0)] {
        let ((), cost) = acct::measure(|| t.sum_rows_into(&mut out));
        assert_eq!(out.dims(), want.dims(), "sum_rows_into {dims:?}");
        assert_eq!(
            bits(out.data()),
            bits(want.data()),
            "sum_rows_into {dims:?}"
        );
        assert_eq!(cost, want_cost, "sum_rows_into {dims:?}: charge");
    }
}

#[test]
fn signed_zeros_and_overflow_keep_sum_rows_into_order() {
    // Sums of zeros keep the oracle's signs, and overflow is order
    // dependent: MAX + MAX overflows, MAX - MAX + MAX does not. Each list
    // is summed down a column, and across a row, where it sums nothing.
    for data in [
        vec![-0.0f32; 9],
        vec![-0.0, 0.0, -0.0],
        vec![f32::MAX, f32::MAX, -f32::MAX],
        vec![
            f32::MAX,
            -f32::MAX,
            f32::MAX,
            1.0,
            1.0,
            1.0,
            1.0,
            1.0,
            f32::MAX,
        ],
        vec![f32::INFINITY, f32::NEG_INFINITY],
        vec![f32::from_bits(1); 17],
    ] {
        let len = data.len();
        for dims in [[len, 1], [1, len]] {
            check_sum_rows_into(&Tensor::from_vec(data.clone(), dims).expect("matrix"));
        }
    }
}

#[test]
fn sum_rows_into_matches_sum_axis_with_special_values() {
    let mut rng = init::rng(0x5a15);
    for (rows, cols) in [(32, 5), (32, 64), (3, 17), (0, 4), (4, 0), (9, 1)] {
        for special in [0.0, 0.05, 0.3] {
            check_sum_rows_into(&matrix(rows, cols, special, &mut rng));
        }
    }
}
