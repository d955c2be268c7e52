//! Differential test of the reduction kernels `par::sum`, `par::dot` and
//! `par::sum_axis` against their sequential oracles.
//!
//! Seeded operands hold NaN, ±inf, ±0.0, subnormals and values large
//! enough to overflow a partial sum. Under every `with_kernel` ×
//! `with_threads` setting:
//!
//! * `Kernel::Scalar` must give the bits of the sequential `Tensor`
//!   kernels (`Tensor::sum`, `Tensor::dot`, `Tensor::sum_axis`), which add
//!   in ascending order;
//! * `Kernel::Unrolled` must give the bits of [`lanes`]: addend `i` goes
//!   to lane `i % 8` in ascending order (a dot product's terms fused with
//!   `mul_add`), and the eight lanes fold as
//!   `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`;
//! * both must charge the sequential kernel's `acct` cost.
//!
//! `Tensor::sum_rows_into`, which writes a matrix's `sum_axis(0)` over a
//! buffer, must give `Tensor::sum_axis(0)`'s bits and charge whatever
//! the buffer held.
//!
//! A NaN result only has to be a NaN: Rust leaves its sign and payload
//! open.

use dl_tensor::acct::{self, OpCost};
use dl_tensor::par::{self, Kernel};
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
const KERNELS: [Kernel; 2] = [Kernel::Scalar, Kernel::Unrolled];
const THREADS: [usize; 3] = [1, 2, 4];

/// `len` values, uniform in ±4 except that each is drawn from
/// [`SPECIALS`] with probability `special`.
fn values(len: usize, special: f64, rng: &mut StdRng) -> Vec<f32> {
    (0..len)
        .map(|_| {
            if rng.gen::<f64>() < special {
                SPECIALS[rng.gen_range(0..SPECIALS.len())]
            } else {
                rng.gen_range(-4.0f32..4.0)
            }
        })
        .collect()
}

fn tensor(dims: &[usize], special: f64, rng: &mut StdRng) -> Tensor {
    let len = dims.iter().product();
    Tensor::from_vec(values(len, special, rng), dims).expect("length matches by construction")
}

/// Bit patterns, with every NaN mapped to `f32::NAN`'s.
fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter()
        .map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits())
        .collect()
}

/// The unrolled kernels' order: term `i` into lane `i % 8`, lanes from
/// `+0.0`, folded by the fixed tree.
fn lanes(terms: impl Iterator<Item = (f32, f32)>, fused: bool) -> f32 {
    let mut l = [0.0f32; 8];
    for (i, (x, y)) in terms.enumerate() {
        l[i % 8] = if fused {
            x.mul_add(y, l[i % 8])
        } else {
            l[i % 8] + x
        };
    }
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

/// `f` under `kern` at `threads` threads, with its charge.
fn run<R>(kern: Kernel, threads: usize, f: impl FnOnce() -> R) -> (R, OpCost) {
    acct::measure(|| par::with_kernel(kern, || par::with_threads(threads, f)))
}

/// Checks `par::sum` and `par::dot` over `x` and `y` (equal lengths).
fn check_sum_and_dot(x: &Tensor, y: &Tensor) {
    let (sum_want, sum_cost) = acct::measure(|| x.sum());
    let (dot_want, dot_cost) = acct::measure(|| x.dot(y));
    let sum_lanes = lanes(x.data().iter().map(|&v| (v, 0.0)), false);
    let dot_lanes = lanes(x.data().iter().copied().zip(y.data().iter().copied()), true);
    for kern in KERNELS {
        let (sum_oracle, dot_oracle) = match kern {
            Kernel::Scalar => (sum_want, dot_want),
            Kernel::Unrolled => (sum_lanes, dot_lanes),
        };
        for t in THREADS {
            let at = format!("{kern:?} threads {t}, {} values", x.len());
            let (got, cost) = run(kern, t, || par::sum(x));
            assert_eq!(bits(&[got]), bits(&[sum_oracle]), "sum {at}");
            assert_eq!(cost, sum_cost, "sum {at}: charge");
            let (got, cost) = run(kern, t, || par::dot(x, y));
            assert_eq!(bits(&[got]), bits(&[dot_oracle]), "dot {at}");
            assert_eq!(cost, dot_cost, "dot {at}: charge");
        }
    }
}

/// Checks `par::sum_axis(t, axis)` for every axis of `t`, and
/// `sum_rows_into` for a matrix.
fn check_sum_axis(t: &Tensor) {
    let dims = t.dims();
    if dims.len() == 2 {
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
    for axis in 0..dims.len() {
        let (want, want_cost) = acct::measure(|| t.sum_axis(axis));
        let outer: usize = dims[..axis].iter().product();
        let mid = dims[axis];
        let inner: usize = dims[axis + 1..].iter().product();
        let lane_want: Vec<f32> = (0..outer * inner)
            .map(|o| {
                let (ob, i) = (o / inner, o % inner);
                let addends = (0..mid).map(|m| (t.data()[(ob * mid + m) * inner + i], 0.0));
                lanes(addends, false)
            })
            .collect();
        for kern in KERNELS {
            let oracle = match kern {
                Kernel::Scalar => want.data(),
                Kernel::Unrolled => &lane_want[..],
            };
            for th in THREADS {
                let at = format!("{kern:?} threads {th}, {:?} axis {axis}", dims);
                let (got, cost) = run(kern, th, || par::sum_axis(t, axis));
                assert_eq!(got.dims(), want.dims(), "{at}");
                assert_eq!(bits(got.data()), bits(oracle), "{at}");
                assert_eq!(cost, want_cost, "{at}: charge");
            }
        }
    }
}

#[test]
fn sum_and_dot_match_their_oracles_with_special_values() {
    let mut rng = init::rng(0x50d0);
    for len in [0usize, 1, 2, 7, 8, 9, 15, 16, 17, 64, 203] {
        for special in [0.0, 0.05, 0.3] {
            for _ in 0..4 {
                let x = tensor(&[len], special, &mut rng);
                let y = tensor(&[len], special, &mut rng);
                check_sum_and_dot(&x, &y);
            }
        }
    }
}

#[test]
fn signed_zeros_and_overflow_keep_each_kernels_order() {
    // Sums of zeros keep the oracles' signs, and overflow is order
    // dependent: MAX + MAX overflows, MAX - MAX + MAX does not.
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
        let x = Tensor::from_vec(data.clone(), [data.len()]).expect("vector");
        let y = Tensor::from_vec(vec![-1.0; data.len()], [data.len()]).expect("vector");
        check_sum_and_dot(&x, &y);
        let m = Tensor::from_vec(data.clone(), [1, data.len()]).expect("row");
        check_sum_axis(&m);
    }
}

#[test]
fn sum_axis_matches_its_oracles_with_special_values() {
    let mut rng = init::rng(0x5a15);
    let shapes: [&[usize]; 10] = [
        &[0],
        &[5],
        &[32, 5],
        &[32, 64],
        &[3, 17],
        &[0, 4],
        &[4, 0],
        &[9, 1],
        &[2, 9, 3],
        &[3, 0, 2],
    ];
    for dims in shapes {
        for special in [0.0, 0.05, 0.3] {
            check_sum_axis(&tensor(dims, special, &mut rng));
        }
    }
}
